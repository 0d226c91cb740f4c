"""The hybrid XML message (paper Section 6.2, Figure 3).

"An XML message encompassing the object is sent instead of only the object
itself.  This XML message consists of information about the types of the
object (type names and download paths of their implementations) and includes
the SOAP or binary serialized object."

The envelope is the unit the optimistic transport protocol actually puts on
the wire.  Note what it does *not* contain: no type descriptions and no
code — those travel only on demand.

Batch envelopes extend the same message for queue-driven fan-out: one
``<XmlMessage>`` whose type-information section is the *union* of every
batched value's types and whose payload is a single ``RBS2B`` frame (all
values share one intern table).  The ``<Payload>`` element carries
``batch`` (value count), ``roots`` (per-value index into the type
section) and optionally ``origin`` (the peer the events were first
published by, for broker meshes that must not echo events back).

Frame layout (``XME2``, the current wire format)::

    "XME2"  varint(header length)  header XML  payload bytes

The header is the ``<XmlMessage>`` element *without* the payload text —
a self-delimiting prefix carrying every routing decision input (type
entries, batch roots, per-value compaction keys, origin/ack/home
attributes).  Routing, replication, forwarding and log compaction read
only this prefix; the payload after it is the raw serialized bytes,
exposed by :meth:`EnvelopeCodec.parse` as a zero-copy ``memoryview``.
The legacy all-XML frame (``<XmlMessage>`` with a base64 payload text,
wire v1) is still parsed for old logs and old peers.
"""

from __future__ import annotations

import base64
import hashlib
import re
import xml.etree.ElementTree as ET
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from urllib.parse import quote, unquote

from ..cts.identity import Guid
from ..cts.registry import BoundedMemo
from ..cts.types import TypeInfo
from .binary import (BatchDecoder, BinarySerializer, _write_varint,
                     is_single_frame)
from .errors import WireFormatError
from ..runtime.objects import CtsInstance
from .graph import collect_types
from .soap import SoapSerializer

#: Field names that designate a value's entity identity, in preference
#: order; a type declaring none of them keys on its first declared field.
_KEY_FIELD_NAMES = ("key", "id", "name", "owner")

#: Entries each process-wide memo below keeps before it starts over.  A
#: process sees few distinct keys (one per published type set or batch
#: shape), so the cap only bounds one fed adversarial or ever-new input.
#: Every such memo is a pure function of its key.
_MEMO_CAP = 256

#: Field-name tuple -> the key field :func:`entity_key` picks.
_KEY_FIELDS = BoundedMemo(_MEMO_CAP)

#: Field value types that reach no further type: a CTS instance whose
#: fields all hold one of these contributes only its own type.
_PRIMITIVE_TYPES = frozenset((type(None), bool, int, float, str))

#: Magic of the framed envelope: header-prefix + raw payload bytes.
_MAGIC_FRAME = b"XME2"

#: Magic of a multi-frame container: several envelope frames, each
#: varint-length-prefixed, travelling as one network message.
_MAGIC_MULTI = b"XMEB"

try:
    # The splice path must produce the exact bytes ET.tostring would, so
    # attribute values are escaped with ET's own escaper when available.
    from xml.etree.ElementTree import _escape_attrib
except ImportError:  # pragma: no cover - stdlib reshuffle guard
    def _escape_attrib(text: str) -> str:
        text = text.replace("&", "&amp;")
        text = text.replace("<", "&lt;")
        text = text.replace(">", "&gt;")
        text = text.replace('"', "&quot;")
        text = text.replace("\r", "&#13;")
        text = text.replace("\n", "&#10;")
        text = text.replace("\t", "&#09;")
        return text

#: ``<Payload>`` attributes in the exact order :meth:`_render_header`
#: emits them — a spliced-in attribute lands where a re-render would put
#: it, keeping the two paths byte-identical on codec-built frames.
_PAYLOAD_ATTR_ORDER = ("encoding", "batch", "roots", "origin", "ack",
                       "publish_ack", "keys", "home", "trace")

#: Attributes :meth:`EnvelopeCodec.reframe` may stamp by splicing header
#: bytes: single string values with no cross-attribute invariants (keys
#: and batch shape are validated at parse time, so setting them must go
#: through the full parse + re-render path; removing ``keys`` splices).
_SPLICE_ATTRS = frozenset(("origin", "ack", "publish_ack", "home", "trace"))

#: The bytes a rendered ``<Payload>`` attribute pair starts with.
_PAIR_NEEDLES = {name: b' %s="' % name.encode("ascii")
                 for name in _PAYLOAD_ATTR_ORDER}


def _find_pair(header: bytes, name: str, start: int, stop: int) -> int:
    """Where attribute ``name``'s pair starts in ``header[start:stop]``,
    or -1.  The same bytes can end another value (`` x="a name="``); ET
    escapes ``"`` inside values, so a genuine pair has an even number of
    quotes before it."""
    needle = _PAIR_NEEDLES[name]
    at = header.find(needle, start, stop)
    while at >= 0 and header.count(b'"', start, at) & 1:
        at = header.find(needle, at + 1, stop)
    return at

Buffer = Union[bytes, bytearray, memoryview]


def _type_digest(info: TypeInfo) -> str:
    """A short stable digest of the type's structural fingerprint.

    Keyed on the *fingerprint* (not the GUID): two structurally identical
    types — the same logical entity type authored twice — compact against
    each other, exactly as they conform to each other.  Memoised on the
    TypeInfo, which is immutable once its identity is derived.
    """
    digest = getattr(info, "_entity_key_digest", None)
    if digest is None:
        digest = hashlib.blake2b(info.fingerprint().encode("utf-8"),
                                 digest_size=8).hexdigest()
        info._entity_key_digest = digest
    return digest


def _key_field(names: Tuple[str, ...]) -> str:
    """The key field of a type whose fields are ``names`` (see
    :func:`entity_key`), memoized by the name tuple."""
    field_name = _KEY_FIELDS.get(names)
    if field_name is None:
        lowered = {name.lower(): name for name in reversed(names)}
        for candidate in _KEY_FIELD_NAMES:
            if candidate in lowered:
                field_name = lowered[candidate]
                break
        else:
            field_name = names[0]
        _KEY_FIELDS.put(names, field_name)
    return field_name


def entity_key(value: Any) -> Optional[str]:
    """The compaction key of one value: ``<type digest>:<key field value>``.

    ``None`` — the value is not keyed and compaction must retain it —
    when the value is not a CTS instance, has no fields, or its key field
    holds a non-scalar.  The key field is the first of
    ``key``/``id``/``name``/``owner`` (case-insensitive) the type
    declares, falling back to the first declared field: latest-state
    semantics need *a* deterministic identity, not a perfect one, and a
    workload with richer identity passes explicit keys to
    :meth:`EnvelopeCodec.wrap_batch`.
    """
    info = getattr(value, "type_info", None)
    fields = getattr(value, "fields", None)
    if info is None or not fields:
        return None
    field_name = _key_field(tuple(fields))
    field_value = fields.get(field_name)
    if field_value is not None and not isinstance(field_value,
                                                  (str, int, float, bool)):
        return None
    return "%s:%s=%r" % (_type_digest(info), field_name, field_value)


#: ``quote(chr(code), safe="")`` for every ASCII code point: a
#: ``str.translate`` table that percent-encodes an ASCII key exactly as
#: ``quote`` would, without its per-byte Python loop.
_QUOTED_ASCII = [quote(chr(code), safe="") for code in range(128)]


def _quote_key(key: str) -> str:
    if key.isascii():
        return key.translate(_QUOTED_ASCII)
    return quote(key, safe="")


def _encode_keys(keys: Sequence[Optional[str]]) -> str:
    """Per-value keys -> one XML attribute (``-`` marks an unkeyed value;
    present keys are percent-encoded behind a ``_`` sigil so any key —
    spaces, empty string — survives the space-joined encoding)."""
    return " ".join("-" if key is None else "_" + _quote_key(key)
                    for key in keys)


def _check_keys_text(text: str, count: int) -> None:
    """Validate the *shape* of a ``keys`` attribute without decoding it.

    Token count and sigils are checked at parse time (so malformed
    headers fail exactly where they always did); the per-key
    percent-decoding — the expensive part — is deferred until something
    actually reads the keys (compaction, mostly).  Routing, forwarding
    and replication never do.  When every value is keyed, three string
    scans show it: ``count`` tokens, and ``_`` at the start and after
    every space.  Other attributes take the token loop."""
    spaces = text.count(" ")
    if spaces + 1 == count and text[:1] == "_" \
            and text.count(" _") == spaces:
        return
    tokens = text.split(" ") if text else []
    if len(tokens) != count:
        raise WireFormatError(
            "keys attribute holds %d entries, envelope declares %d values"
            % (len(tokens), count))
    for token in tokens:
        if token != "-" and not token.startswith("_"):
            raise WireFormatError("malformed keys token %r" % token)


def _decode_keys(text: str, count: int) -> Optional[List[Optional[str]]]:
    _check_keys_text(text, count)
    return [None if token == "-" else unquote(token[1:])
            for token in (text.split(" ") if text else [])]


def encode_home(shard_id: str, offsets: Sequence[Optional[int]]) -> str:
    """Build the ``home`` attribute: the shard a batch's values were first
    durably appended at, plus one record offset (or ``-``) per value."""
    text = {offset: "-" if offset is None else str(offset)
            for offset in set(offsets)}
    return "%s|%s" % (shard_id, ",".join(map(text.__getitem__, offsets)))


def decode_home(text: str) -> Optional[Tuple[str, List[Optional[int]]]]:
    """Parse a ``home`` attribute; ``None`` for malformed input (a record
    whose provenance cannot be read is simply treated as unattributed)."""
    shard_id, separator, tail = text.partition("|")
    if not separator or not shard_id:
        return None
    tokens = tail.split(",")
    # A batch repeats one offset per value: convert each distinct token once.
    try:
        offsets = {token: None if token == "-" else int(token)
                   for token in set(tokens)}
    except ValueError:
        return None
    return shard_id, list(map(offsets.__getitem__, tokens))


class CodecStats:
    """Observability counters of one :class:`EnvelopeCodec`.

    ``decodes`` counts *value-level* decodes — the expensive operation the
    zero-copy hot path exists to avoid; ``header_parses`` counts
    header-only envelope parses (the cheap operation that replaces them);
    ``header_parse_errors`` counts malformed headers swallowed by the
    lenient readers (:func:`parse_frame_header` and friends);
    ``buffer_pool_hits`` counts encode buffers served from the reuse pool
    instead of freshly allocated; ``header_renders`` counts full XML
    header builds (every ``envelope_to_bytes``); ``header_splices``
    counts header rewrites (one attribute set, any removed) served by
    patching the header bytes instead of a parse + re-render (see
    :meth:`EnvelopeCodec.reframe`).
    """

    _COUNTERS = ("decodes", "header_parses", "header_parse_errors",
                 "buffer_pool_hits", "header_renders", "header_splices")

    __slots__ = _COUNTERS

    def __init__(self):
        for name in self._COUNTERS:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self._COUNTERS}

    def __repr__(self) -> str:
        return "CodecStats(%s)" % ", ".join(
            "%s=%d" % (name, getattr(self, name)) for name in self._COUNTERS)


class _BufferPool:
    """A tiny free-list of reusable byte buffers.

    Encode side: ``envelope_to_bytes``/``reframe`` borrow a ``bytearray``,
    build the frame in it and return an immutable ``bytes`` copy; the
    scratch buffer goes back to the pool so steady-state encoding reuses a
    warm buffer (and its grown capacity) instead of allocating one per
    record.

    Receive side (the socket transport): each link borrows one buffer for
    its lifetime and parses inbound frames out of it as memoryviews, so a
    drain cycle allocates O(links), not O(records) — connection churn
    recycles warm buffers through the same free list.  ``max_free`` sizes
    the list for that usage (one retained buffer per expected concurrent
    link instead of the encode path's small scratch set).
    """

    _MAX_FREE = 4

    __slots__ = ("_free", "_stats", "_max_free")

    def __init__(self, stats: Optional[CodecStats] = None,
                 max_free: Optional[int] = None):
        self._free: List[bytearray] = []
        self._stats = stats
        self._max_free = self._MAX_FREE if max_free is None else max_free

    def acquire(self) -> bytearray:
        if self._free:
            if self._stats is not None:
                self._stats.buffer_pool_hits += 1
            return self._free.pop()
        return bytearray()

    def release(self, buf: bytearray) -> None:
        if len(self._free) < self._max_free:
            try:
                del buf[:]
            except BufferError:
                # A consumer kept a memoryview into the buffer alive: the
                # view holders own it now; pool a fresh one instead.
                return
            self._free.append(buf)


def _read_varint_at(data: Buffer, pos: int) -> Tuple[int, int]:
    """Read one varint out of a buffer; returns ``(value, next position)``."""
    shift = 0
    value = 0
    size = len(data)
    while True:
        if pos >= size:
            raise WireFormatError("truncated frame header length")
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise WireFormatError("frame header length varint too long")


def split_frames(data: Buffer) -> List[Buffer]:
    """Split a multi-frame container into its envelope frames.

    A message that is not a container (a plain ``XME2`` or legacy frame)
    passes through unchanged as a one-element list — senders only pay
    the container prefix when they actually coalesce several records
    into one message (see :meth:`EnvelopeCodec.join_frames`).
    """
    if bytes(data[:4]) != _MAGIC_MULTI:
        return [data]
    view = data if isinstance(data, memoryview) else memoryview(data)
    frames: List[Buffer] = []
    pos = len(_MAGIC_MULTI)
    total = len(view)
    while pos < total:
        length, pos = _read_varint_at(view, pos)
        end = pos + length
        if end > total:
            raise WireFormatError("truncated frame container")
        frames.append(view[pos:end])
        pos = end
    if not frames:
        raise WireFormatError("empty frame container")
    return frames


class FrameHeader:
    """The routing-relevant prefix of one encoded envelope.

    Everything a shard needs to route, forward, replicate, compact or
    classify a record — without touching the payload.  ``payload_offset``
    is the byte position the raw payload starts at for ``XME2`` frames,
    or ``None`` for legacy all-XML frames (whose payload is base64 text
    and has no zero-copy representation).
    """

    __slots__ = ("type_entries", "encoding", "batch_roots", "origin", "ack",
                 "publish_ack", "_keys", "_keys_text", "home", "trace",
                 "payload_offset")

    def __init__(self, type_entries, encoding, batch_roots, origin, ack,
                 publish_ack, keys_text, home, payload_offset, trace=None):
        self.type_entries = type_entries
        self.encoding = encoding
        self.batch_roots = batch_roots
        self.origin = origin
        self.ack = ack
        self.publish_ack = publish_ack
        self._keys: Optional[List[Optional[str]]] = None
        self._keys_text = keys_text
        self.home = home
        self.trace = trace
        self.payload_offset = payload_offset

    @property
    def batch_count(self) -> int:
        return len(self.batch_roots) if self.batch_roots is not None else 1

    @property
    def keys(self) -> Optional[List[Optional[str]]]:
        """Per-value record keys, percent-decoded on first access."""
        if self._keys is None and self._keys_text is not None:
            self._keys = _decode_keys(self._keys_text, self.batch_count)
        return self._keys


def _split_frame(data: Buffer) -> Tuple[bytes, Optional[memoryview]]:
    """Split an encoded envelope into (header XML bytes, payload view).

    The payload view is ``None`` for legacy all-XML frames.  Raises
    :class:`WireFormatError` for anything else.
    """
    prefix = bytes(data[:4])
    if prefix == _MAGIC_FRAME:
        view = data if isinstance(data, memoryview) else memoryview(data)
        header_len, pos = _read_varint_at(view, len(_MAGIC_FRAME))
        end = pos + header_len
        if end > len(view):
            raise WireFormatError("truncated frame header")
        return bytes(view[pos:end]), view[end:]
    if prefix[:1] == b"<":
        return bytes(data), None
    raise WireFormatError("not an envelope frame")


#: The canonical header shape :meth:`EnvelopeCodec._render_header` emits
#: for an envelope with type entries: these three markers delimit the
#: type section and the ``<Payload>`` attribute list.
_CANONICAL_HEAD = "<XmlMessage><TypeInformation>"
_CANONICAL_BOUNDARY = "</TypeInformation><Payload "
_CANONICAL_TAIL = " /></XmlMessage>"

#: The ``<Payload>`` attribute list as rendered: single-space-separated
#: ``name="value"`` pairs in ``_PAYLOAD_ATTR_ORDER``, ``encoding`` always
#: present.  Values are printable ASCII without ``"``, ``<`` or ``&`` —
#: no entities, no whitespace XML attribute normalisation would rewrite,
#: no multi-byte characters — so the raw text between the quotes *is*
#: the value ElementTree would report.  Absent attributes match as None.
_PAYLOAD_VALUE = r'([ !#-%\'-;=-~]*)'
_CANONICAL_PAYLOAD_ATTRS = re.compile(
    'encoding="%s"' % _PAYLOAD_VALUE + "".join(
        '(?: %s="%s")?' % (name, _PAYLOAD_VALUE)
        for name in _PAYLOAD_ATTR_ORDER[1:]))

#: Type section text (the header decoded as latin-1, one character per
#: byte) -> the validated entries parsed from it.  Process-wide: the same
#: bytes always parse to the same entries, whichever codec reads them.
#: Values are tuples so no reader can alter another's entries; each
#: parse gets a fresh list.
_TYPE_SECTIONS = BoundedMemo(_MEMO_CAP)

#: ``roots`` attribute text -> its root indexes with their least and
#: greatest.  Only text that parses enters.
_ROOTS = BoundedMemo(_MEMO_CAP)

#: ``<Payload>`` attribute values in ``_PAYLOAD_ATTR_ORDER``, None when
#: absent.
_PayloadAttrs = Tuple[Optional[str], ...]


def _type_entries(type_info: ET.Element) -> List["TypeEntry"]:
    entries: List[TypeEntry] = []
    for element in type_info.findall("Type"):
        name = element.get("name")
        guid_text = element.get("guid")
        if not name or not guid_text:
            raise WireFormatError("<Type> missing name/guid")
        entries.append(
            TypeEntry(name, guid_text, element.get("assembly", "default"),
                      element.get("path"))
        )
    return entries


def _parse_type_section(section: str) -> Optional[Tuple["TypeEntry", ...]]:
    """Parse one type section the memo does not hold yet, and keep it.

    ``None`` when the section does not parse or validate on its own: only
    good sections enter the memo, and the caller falls back to the full
    ElementTree reader for the authoritative error.
    """
    try:
        entries = tuple(_type_entries(
            ET.fromstring(section.encode("latin-1"))))
    except (ET.ParseError, WireFormatError):
        return None
    _TYPE_SECTIONS.put(section, entries)
    return entries


def _scan_canonical_header(
        header: bytes) -> Optional[Tuple[List["TypeEntry"], _PayloadAttrs]]:
    """Read a canonical header without building an XML tree.

    The type section comes from the memo and the ``<Payload>``
    attributes from one match of :data:`_CANONICAL_PAYLOAD_ATTRS`.
    Returns ``None`` for any other shape — legacy frames, hand-built,
    reordered or escaped headers, duplicate or unknown attributes — and
    the caller reads those with ElementTree instead.  Splitting at the
    first boundary is safe: when the section before it parses on its own
    and the attributes after it are canonical, the whole header parses to
    exactly those entries and attributes.
    """
    text = header.decode("latin-1")
    if not (text.startswith(_CANONICAL_HEAD)
            and text.endswith(_CANONICAL_TAIL)):
        return None
    boundary = text.find(_CANONICAL_BOUNDARY, len(_CANONICAL_HEAD))
    if boundary < 0:
        return None
    match = _CANONICAL_PAYLOAD_ATTRS.fullmatch(
        text, boundary + len(_CANONICAL_BOUNDARY),
        len(text) - len(_CANONICAL_TAIL))
    if match is None:
        return None
    section = text[len("<XmlMessage>"):
                   boundary + len("</TypeInformation>")]
    entries = _TYPE_SECTIONS.get(section)
    if entries is None:
        entries = _parse_type_section(section)
        if entries is None:
            return None
    return list(entries), match.groups()


def _read_header_xml(
        header: bytes,
) -> Tuple[List["TypeEntry"], _PayloadAttrs, Optional[str]]:
    """Read any header with ElementTree: the reference reader for every
    shape the canonical scan declines, and the source of every parse
    error message.  Also returns the ``<Payload>`` text (the base64
    payload of a legacy all-XML frame)."""
    try:
        root = ET.fromstring(header)
    except ET.ParseError as exc:
        raise WireFormatError("invalid envelope XML: %s" % exc)
    if root.tag != "XmlMessage":
        raise WireFormatError("expected <XmlMessage>, found <%s>" % root.tag)
    type_info = root.find("TypeInformation")
    entries = _type_entries(type_info) if type_info is not None else []
    payload_el = root.find("Payload")
    if payload_el is None:
        raise WireFormatError("envelope missing <Payload>")
    return (entries, tuple(map(payload_el.get, _PAYLOAD_ATTR_ORDER)),
            payload_el.text)


def _parse_roots(text: str) -> Tuple[Tuple[int, ...], int, int]:
    """Parse one ``roots`` attribute the memo does not hold yet, and keep
    it.  Raises ``ValueError`` for a token that is not an integer."""
    indexes = tuple(map(int, text.split()))
    roots = (indexes, min(indexes, default=0), max(indexes, default=0))
    _ROOTS.put(text, roots)
    return roots


def _read_header(data: Buffer) -> tuple:
    """The one header reader behind :meth:`EnvelopeCodec.parse` and
    :func:`parse_frame_header`.

    Returns ``(type entries, encoding, batch roots, origin, ack,
    publish_ack, keys text, home, trace, payload)`` with the batch shape
    and ``keys`` attribute validated.  ``payload`` is a zero-copy view
    for ``XME2`` frames and the ``<Payload>`` text (base64, possibly
    ``None``) for legacy frames.
    """
    header_bytes, payload = _split_frame(data)
    scanned = _scan_canonical_header(header_bytes)
    if scanned is None:
        entries, attrs, text = _read_header_xml(header_bytes)
    else:
        (entries, attrs), text = scanned, None
    (encoding, batch_attr, roots_attr, origin, ack, publish_ack, keys_text,
     home, trace) = attrs
    if encoding is None:
        encoding = "binary"
    elif encoding not in ("binary", "soap"):
        raise WireFormatError("unknown payload encoding %r" % encoding)
    batch_roots: Optional[List[int]] = None
    if batch_attr is not None:
        try:
            count = int(batch_attr)
            roots_text = roots_attr or ""
            roots = _ROOTS.get(roots_text) or _parse_roots(roots_text)
        except ValueError:
            raise WireFormatError("malformed batch attributes")
        if count < 1:
            # wrap_batch never builds an empty batch; a zero count would
            # let the lazy path admit a payload it never checked.
            raise WireFormatError("batch count %d is not positive" % count)
        indexes, lowest, highest = roots
        if count != len(indexes):
            raise WireFormatError(
                "batch count %d does not match %d roots"
                % (count, len(indexes))
            )
        if lowest < 0 or highest >= len(entries):
            for index in indexes:
                if not 0 <= index < len(entries):
                    raise WireFormatError(
                        "batch root %d out of range" % index)
        batch_roots = list(indexes)
    if keys_text is not None:
        _check_keys_text(keys_text,
                         len(batch_roots) if batch_roots is not None else 1)
    return (entries, encoding, batch_roots, origin, ack, publish_ack,
            keys_text, home, trace, payload if payload is not None else text)


def parse_frame_header(data: Buffer,
                       stats: Optional[CodecStats] = None) -> Optional[FrameHeader]:
    """Read just the header prefix of one encoded envelope.

    The uniform lenient entry point for mid-pipeline header reads: *any*
    malformed input — truncated frame, legacy XML that does not parse,
    corrupt attributes — returns ``None`` (counting one
    ``header_parse_errors`` on ``stats``) and never raises.  Both the
    ``XME2`` frame and the legacy all-XML envelope are accepted.
    """
    try:
        (entries, encoding, batch_roots, origin, ack, publish_ack, keys_text,
         home, trace, payload) = _read_header(data)
    except (WireFormatError, ValueError, TypeError):
        if stats is not None:
            stats.header_parse_errors += 1
        return None
    if stats is not None:
        stats.header_parses += 1
    payload_offset = None
    if isinstance(payload, memoryview):
        payload_offset = len(data) - len(payload)
    return FrameHeader(entries, encoding, batch_roots, origin, ack,
                       publish_ack, keys_text, home, payload_offset,
                       trace=trace)


def envelope_record_keys(data: Buffer,
                         stats: Optional[CodecStats] = None,
                         ) -> Optional[List[Optional[str]]]:
    """The per-value compaction keys of one encoded envelope, or ``None``
    when the message carries no ``keys`` attribute (records written
    before key extraction existed, or batches of unkeyed values).

    Reads only the header prefix — no payload decode, no runtime, no type
    knowledge — so offline tools (``repro log compact``) can key-compact
    a log they cannot materialize.  Unparseable data is reported as
    unkeyed rather than raised: compaction must retain what it cannot
    read.
    """
    header = parse_frame_header(data, stats=stats)
    if header is None:
        return None
    return header.keys


def envelope_home(data: Buffer,
                  stats: Optional[CodecStats] = None,
                  ) -> Optional[Tuple[str, List[Optional[int]]]]:
    """The home-record provenance of one encoded envelope: the shard id
    the content was first durably appended at and the per-value record
    offsets there, or ``None`` when the message carries no ``home``
    attribute (a record the storing shard itself is the home of).

    Like :func:`envelope_record_keys`, this reads only the header prefix
    — no payload decode, no runtime — so a shard can classify its stored
    records (own vs forwarded-in) without materializing them.
    """
    header = parse_frame_header(data, stats=stats)
    if header is None or header.home is None:
        return None
    return decode_home(header.home)


class TypeEntry:
    """One ``<Type>`` line of the envelope's type-information section."""

    __slots__ = ("name", "guid_text", "assembly", "download_path")

    def __init__(self, name: str, guid_text: str, assembly: str,
                 download_path: Optional[str]):
        self.name = name
        self.guid_text = guid_text
        self.assembly = assembly
        self.download_path = download_path

    @classmethod
    def for_type(cls, info: TypeInfo) -> "TypeEntry":
        return cls(info.full_name, str(info.guid), info.assembly_name, info.download_path)

    def __repr__(self) -> str:
        return "TypeEntry(%s @ %s)" % (self.name, self.download_path)


class ObjectEnvelope:
    """A parsed (or to-be-sent) hybrid message.

    ``payload`` holds the serialized value bytes — a ``memoryview`` into
    the received frame when parsed from an ``XME2`` message (zero-copy),
    plain ``bytes`` otherwise.  ``batch_roots`` is ``None`` for a classic
    single-object envelope; for a batch it lists, per batched value, the
    index of that value's root type in :attr:`type_entries`.  ``origin``
    optionally names the peer the content was first published by (meshes
    forward on its behalf).  ``ack`` optionally carries an opaque
    acknowledgement token: a receiver that processes the message echoes
    the token back to the sender, which uses it to advance durable replay
    cursors.  ``publish_ack`` is the publisher-side counterpart: a broker
    that durably appends the batch echoes the token back to the
    publisher.  ``keys`` optionally carries, per batched value, its
    compaction key (see :func:`entity_key`) — stored with the record so
    key-aware log compaction can decide latest-state without
    materializing (or even knowing) the types.  ``home`` optionally
    identifies, per batched value, the log record the value was first
    durably appended in — ``"<shard id>|o1,o2,..."`` with one home-shard
    offset (or ``-``) per value — so a mesh shard storing a forwarded-in
    copy can later recognise the same record arriving again by
    replication or backlog fetch and not deliver it twice.  ``trace``
    optionally carries the record's trace id (stamped once at origin
    publish, see :mod:`repro.obs.tracing`): it travels inside the frame
    bytes, so forwarding/replicating/replaying a record propagates the
    id with zero extra work on the zero-copy path.
    """

    def __init__(self, type_entries: List[TypeEntry], encoding: str,
                 payload: Buffer,
                 batch_roots: Optional[List[int]] = None,
                 origin: Optional[str] = None,
                 ack: Optional[str] = None,
                 publish_ack: Optional[str] = None,
                 keys: Optional[List[Optional[str]]] = None,
                 home: Optional[str] = None,
                 keys_text: Optional[str] = None,
                 trace: Optional[str] = None):
        self.type_entries = type_entries
        self.encoding = encoding  # "binary" | "soap"
        self.payload = payload
        self.batch_roots = batch_roots
        self.origin = origin
        self.ack = ack
        self.publish_ack = publish_ack
        self._keys = keys
        self._keys_text = keys_text if keys is None else None
        self.home = home
        self.trace = trace

    @property
    def is_batch(self) -> bool:
        return self.batch_roots is not None

    @property
    def batch_count(self) -> int:
        return len(self.batch_roots) if self.batch_roots is not None else 1

    @property
    def keys(self) -> Optional[List[Optional[str]]]:
        """Per-value record keys, percent-decoded on first access (a
        parsed envelope keeps the raw attribute text until then)."""
        if self._keys is None and self._keys_text is not None:
            self._keys = _decode_keys(self._keys_text, self.batch_count)
        return self._keys

    @keys.setter
    def keys(self, value: Optional[List[Optional[str]]]) -> None:
        self._keys = value
        self._keys_text = None

    def keys_attr(self) -> Optional[str]:
        """The ``keys`` attribute text to render: the raw parse text
        verbatim when nothing rewrote the keys (no decode + re-encode
        round trip on the re-frame hot path), freshly encoded otherwise."""
        if self._keys_text is not None:
            return self._keys_text
        if self._keys is not None:
            return _encode_keys(self._keys)
        return None

    def payload_bytes(self) -> bytes:
        """The payload as immutable ``bytes`` (copying a memoryview)."""
        payload = self.payload
        if isinstance(payload, bytes):
            return payload
        return bytes(payload)

    def type_names(self) -> List[str]:
        return [entry.name for entry in self.type_entries]

    def root_entry(self) -> TypeEntry:
        if not self.type_entries:
            raise WireFormatError("envelope has no type information")
        return self.type_entries[0]

    def batch_root_entry(self, index: int) -> TypeEntry:
        """The root type entry of the ``index``-th batched value."""
        if self.batch_roots is None:
            if index != 0:
                raise WireFormatError("not a batch envelope")
            return self.root_entry()
        try:
            return self.type_entries[self.batch_roots[index]]
        except IndexError:
            raise WireFormatError("batch root %d out of range" % index)

    def __repr__(self) -> str:
        extra = ", batch=%d" % self.batch_count if self.is_batch else ""
        return "ObjectEnvelope(%s, %d types, %d payload bytes%s)" % (
            self.encoding, len(self.type_entries), len(self.payload), extra,
        )


#: The root keys of a single-object envelope: its one value's root type
#: is the first entry.
_FIRST_ENTRY = (0,)


class LazyBatch:
    """A batch admitted by header only; values decode on first access.

    Exposes count, per-value root types (resolved against the local
    registry from the header's type entries) and per-value compaction
    keys without touching the payload.  :meth:`value` decodes the batch
    prefix incrementally — per value, not whole-batch — so a record that
    is only logged, replicated or forwarded crosses the shard with zero
    value-level decodes, and a record with one matching local subscriber
    decodes exactly the values dispatched to it (plus their prefix, which
    the shared intern table requires).  :meth:`decode_to` decodes a run
    of values in one call.
    """

    _UNRESOLVED = object()

    __slots__ = ("envelope", "_codec", "_registry", "_types", "_decoder",
                 "_single", "_counted")

    def __init__(self, codec: "EnvelopeCodec", envelope: ObjectEnvelope,
                 registry=None):
        self.envelope = envelope
        self._codec = codec
        self._registry = registry
        self._types: List[Any] = [self._UNRESOLVED] * envelope.batch_count
        self._decoder: Optional[BatchDecoder] = None
        self._single: Any = None
        self._counted = 0

    def __len__(self) -> int:
        return self.envelope.batch_count

    def _resolve(self, entry: TypeEntry) -> Optional[TypeInfo]:
        if self._registry is None:
            return None
        return self._codec._resolve(entry, self._registry)

    def root_type(self, index: int) -> Optional[TypeInfo]:
        """The locally-resolved root type of value ``index`` (or ``None``)."""
        cached = self._types[index]
        if cached is not self._UNRESOLVED:
            return cached
        info = self._resolve(self.envelope.batch_root_entry(index))
        self._types[index] = info
        return info

    def root_keys(self) -> Sequence[int]:
        """Per value, the index of its root type entry: values with equal
        keys share one root type."""
        roots = self.envelope.batch_roots
        return roots if roots is not None else _FIRST_ENTRY

    def key(self, index: int) -> Optional[str]:
        keys = self.envelope.keys
        return keys[index] if keys is not None else None

    def missing(self) -> Optional[TypeEntry]:
        """The first header type entry that does not resolve locally, or
        ``None``.  The type section is the union of all reachable types,
        so once none is missing :meth:`value` cannot hit
        :class:`~repro.serialization.errors.UnknownTypeError`."""
        for entry in self.envelope.type_entries:
            if self._resolve(entry) is None:
                return entry
        return None

    def value(self, index: int) -> Any:
        """Decode (and cache) value ``index`` — the one paid decode."""
        if self._decoder is None:
            payload = self.envelope.payload_bytes()
            if self.envelope.encoding != "binary" or is_single_frame(payload):
                return self._single_value(payload, index)
            self._open(payload)
        if not 0 <= index < len(self):
            raise IndexError("batch value %d out of range (%d values)"
                             % (index, len(self)))
        return self.decode_to(index + 1)[index]

    def decode_to(self, stop: int) -> List[Any]:
        """:meth:`BatchDecoder.decode_to`, counted once per call.  A failed
        value keeps the values before it: ``decode_to(0)`` returns them."""
        decoder = self._decoder
        if decoder is None:
            decoder = self._open(self.envelope.payload_bytes())
        try:
            return decoder.decode_to(stop)
        finally:
            decoded = decoder.decoded_count
            if decoded > self._counted:
                self._codec.stats.decodes += decoded - self._counted
                self._counted = decoded

    def _open(self, payload: bytes) -> BatchDecoder:
        decoder = BatchDecoder(self._codec._binary, payload)
        if len(decoder) != len(self):
            raise WireFormatError(
                "batch payload holds %d values, envelope declares %d"
                % (len(decoder), len(self)))
        self._decoder = decoder
        return decoder

    def _single_value(self, payload: bytes, index: int) -> Any:
        """A single-value frame (binary or soap) decodes in one call, kept
        for the next access: no batch decoder."""
        if len(self) != 1:
            raise WireFormatError(
                "batch payload holds 1 values, envelope declares %d"
                % len(self))
        if index != 0:
            raise IndexError("batch value %d out of range (1 values)" % index)
        if not self._counted:
            self._single = self._codec._payload_serializer(
                self.envelope.encoding).deserialize(payload)
            self._codec.stats.decodes += 1
            self._counted = 1
        return self._single

    def values(self) -> List[Any]:
        return [self.value(index) for index in range(len(self))]

    def __repr__(self) -> str:
        return "LazyBatch(%d values, %d decoded)" % (
            len(self),
            self._decoder.decoded_count if self._decoder else self._counted)


_UNSET = object()


class EnvelopeCodec:
    """Builds and parses hybrid envelopes.

    ``encoding`` selects the payload serializer: ``"binary"`` (compact) or
    ``"soap"`` (verbose XML) — both available exactly as in the paper.
    Encoded frames use the ``XME2`` layout (header prefix + raw payload);
    the legacy all-XML frame remains parseable.  :attr:`stats` counts
    value decodes, header parses and buffer-pool reuse.
    """

    def __init__(self, runtime=None, encoding: str = "binary"):
        if encoding not in ("binary", "soap"):
            raise ValueError("encoding must be 'binary' or 'soap'")
        self.encoding = encoding
        self.stats = CodecStats()
        self._pool = _BufferPool(self.stats)
        self._binary = BinarySerializer(runtime)
        self._soap = SoapSerializer(runtime)
        #: GUID text -> locally resolved TypeInfo, valid for one type
        #: epoch.  Positive entries only: a miss may succeed later (after
        #: a code fetch) and must be retried.
        self._resolve_memo = BoundedMemo(
            _MEMO_CAP, runtime.registry if runtime is not None else None)

    def _resolve(self, entry: TypeEntry, registry) -> Optional[TypeInfo]:
        """The local type a header entry names, memoized by GUID text for
        the current type epoch: a type replaced in place under the same
        GUID resolves to the replacement."""
        memo = self._resolve_memo
        if memo.epoch != registry.epoch:
            memo.fresh()
        info = memo.get(entry.guid_text)
        if info is not None:
            return info
        try:
            guid = Guid.parse(entry.guid_text)
        except ValueError:
            return None
        info = registry.get_by_guid(guid)
        if info is None:
            candidate = registry.get(entry.name)
            if candidate is not None and candidate.guid == guid:
                info = candidate
        if info is not None:
            memo.put(entry.guid_text, info)
        return info

    def _payload_serializer(self, encoding: str):
        return self._binary if encoding == "binary" else self._soap

    @property
    def registry(self):
        runtime = self._binary.runtime
        return runtime.registry if runtime is not None else None

    # -- build ------------------------------------------------------------

    def wrap(self, value: Any) -> ObjectEnvelope:
        """Object graph → envelope (types section + serialized payload).

        The value's compaction key rides along (``keys`` attribute) so a
        broker can log and compact the frame without materializing it.
        """
        entries = [TypeEntry.for_type(t) for t in collect_types(value)]
        payload = self._payload_serializer(self.encoding).serialize(value)
        key = entity_key(value)
        return ObjectEnvelope(entries, self.encoding, payload,
                              keys=None if key is None else [key])

    def encode(self, value: Any) -> bytes:
        """Object graph → wire bytes of the full framed message."""
        return self.envelope_to_bytes(self.wrap(value))

    def wrap_batch(self, values: List[Any],
                   origin: Optional[str] = None,
                   ack: Optional[str] = None,
                   publish_ack: Optional[str] = None,
                   keys: Optional[List[Optional[str]]] = None) -> ObjectEnvelope:
        """Many object graphs → one batch envelope.

        The type section is the union of every value's reachable types
        (first-seen order, deduplicated by identity) and the payload is a
        single ``RBS2B`` frame — one header and one intern table for the
        whole batch.  Batches always use the binary payload encoding.
        Per-value compaction keys are extracted automatically (see
        :func:`entity_key`) unless the caller passes explicit ``keys``;
        an all-``None`` key list is omitted from the wire entirely.
        """
        if not values:
            raise ValueError("cannot build an empty batch envelope")
        entries: List[TypeEntry] = []
        #: (name, GUID text) -> entry index, and the same by ``id`` of the
        #: TypeInfo, so a type seen before costs no GUID formatting.
        index_of: Dict[Tuple[str, str], int] = {}
        index_of_info: Dict[int, int] = {}
        roots: List[int] = []
        for value in values:
            if isinstance(value, CtsInstance) \
                    and _PRIMITIVE_TYPES.issuperset(
                        map(type, value.fields.values())):
                # Nothing else is reachable: the graph's one type.
                types = (value.type_info,)
            else:
                types = collect_types(value)
            if not types:
                raise WireFormatError(
                    "batched value %r has no root CTS type" % (value,)
                )
            for position, info in enumerate(types):
                index = index_of_info.get(id(info))
                if index is None:
                    key = (info.full_name, str(info.guid))
                    index = index_of.get(key)
                    if index is None:
                        index = index_of[key] = len(entries)
                        entries.append(TypeEntry.for_type(info))
                    index_of_info[id(info)] = index
                if position == 0:
                    roots.append(index)
        if keys is None:
            keys = [entity_key(value) for value in values]
        elif len(keys) != len(values):
            raise ValueError("got %d keys for %d values"
                             % (len(keys), len(values)))
        if all(key is None for key in keys):
            keys = None
        payload = self._binary.serialize_batch(values)
        return ObjectEnvelope(entries, "binary", payload,
                              batch_roots=roots, origin=origin, ack=ack,
                              publish_ack=publish_ack, keys=keys)

    def encode_batch(self, values: List[Any],
                     origin: Optional[str] = None,
                     ack: Optional[str] = None,
                     publish_ack: Optional[str] = None,
                     keys: Optional[List[Optional[str]]] = None) -> bytes:
        """Many object graphs → wire bytes of one batch message."""
        return self.envelope_to_bytes(
            self.wrap_batch(values, origin=origin, ack=ack,
                            publish_ack=publish_ack, keys=keys))

    def _render_header(self, envelope: ObjectEnvelope) -> bytes:
        """The canonical header, byte for byte what ElementTree would
        serialize for the same elements (attribute values through ET's
        own escaper, UTF-8 with character references for anything it
        cannot encode)."""
        parts = ["<XmlMessage>"]
        if envelope.type_entries:
            parts.append("<TypeInformation>")
            for entry in envelope.type_entries:
                parts.append('<Type name="%s" guid="%s" assembly="%s"' % (
                    _escape_attrib(entry.name),
                    _escape_attrib(entry.guid_text),
                    _escape_attrib(entry.assembly)))
                if entry.download_path:
                    parts.append(' path="%s"'
                                 % _escape_attrib(entry.download_path))
                parts.append(" />")
            parts.append("</TypeInformation>")
        else:
            parts.append("<TypeInformation />")
        parts.append('<Payload encoding="%s"'
                     % _escape_attrib(envelope.encoding))
        if envelope.is_batch:
            parts.append(' batch="%d" roots="%s"' % (
                envelope.batch_count,
                " ".join(map(str, envelope.batch_roots))))
        for name, value in (("origin", envelope.origin),
                            ("ack", envelope.ack),
                            ("publish_ack", envelope.publish_ack),
                            ("keys", envelope.keys_attr()),
                            ("home", envelope.home),
                            ("trace", envelope.trace)):
            if value is not None:
                parts.append(' %s="%s"' % (name, _escape_attrib(value)))
        parts.append(" /></XmlMessage>")
        self.stats.header_renders += 1
        return "".join(parts).encode("utf-8", "xmlcharrefreplace")

    def envelope_to_bytes(self, envelope: ObjectEnvelope) -> bytes:
        """Envelope → ``XME2`` frame bytes.

        The payload bytes (possibly a zero-copy ``memoryview`` from a
        parsed frame) are appended verbatim after the rendered header —
        re-framing a parsed envelope never touches, let alone decodes,
        the payload.  The scratch buffer comes from the codec's pool; the
        returned frame is an immutable ``bytes`` snapshot, safe to hand
        across any flush boundary.
        """
        header = self._render_header(envelope)
        buf = self._pool.acquire()
        try:
            buf += _MAGIC_FRAME
            _write_varint(buf, len(header))
            buf += header
            buf += envelope.payload
            return bytes(buf)
        finally:
            self._pool.release(buf)

    def join_frames(self, frames: Sequence[Buffer]) -> bytes:
        """Coalesce several envelope frames into one network message.

        A single frame travels as-is (byte-identical to sending it
        alone); two or more become an ``XMEB`` container of
        varint-length-prefixed frames that :func:`split_frames` undoes.
        Frames are copied, never decoded — this is how a flush keeps the
        one-message-per-destination economy without touching payloads.
        """
        if not frames:
            raise ValueError("join_frames needs at least one frame")
        if len(frames) == 1:
            frame = frames[0]
            return frame if isinstance(frame, bytes) else bytes(frame)
        buf = self._pool.acquire()
        try:
            buf += _MAGIC_MULTI
            for frame in frames:
                _write_varint(buf, len(frame))
                buf += frame
            return bytes(buf)
        finally:
            self._pool.release(buf)

    def envelope_to_legacy_bytes(self, envelope: ObjectEnvelope) -> bytes:
        """Envelope → legacy all-XML frame (wire v1: base64 payload text).

        Kept for compatibility fixtures and old-peer interop tests; the
        live pipeline always emits :meth:`envelope_to_bytes`.
        """
        root = ET.fromstring(self._render_header(envelope))
        payload_el = root.find("Payload")
        payload_el.text = base64.b64encode(
            envelope.payload_bytes()).decode("ascii")
        return ET.tostring(root, encoding="utf-8")

    def reframe(self, data: Buffer,
                origin: Any = _UNSET,
                ack: Any = _UNSET,
                publish_ack: Any = _UNSET,
                home: Any = _UNSET,
                keys: Any = _UNSET,
                trace: Any = _UNSET) -> bytes:
        """Re-render a frame's header with changed attributes (``None``
        removes one).

        The payload bytes are reused verbatim (zero value-level decodes);
        only the header XML is rebuilt, in a pooled buffer.  This is how
        the pipeline stamps ``origin`` at admission, ``home`` on
        forwarded copies and ``ack`` tokens on per-subscriber deliveries,
        and drops ``keys`` and ``home`` from subscriber frames, without
        re-encoding the values.

        When at most one string-valued attribute is set and any number
        are removed (the hot per-subscriber ack stamp, the per-forward
        home stamp, the subscriber-frame strip), the header bytes are
        spliced in one pass — no XML parse, no re-render — producing
        output byte-identical to the full path on codec-built frames.
        Anything else (several attributes set, a ``keys`` list, legacy
        frames, hand-built headers) falls back to parse + re-render.
        """
        changes = {}
        if origin is not _UNSET:
            changes["origin"] = origin
        if ack is not _UNSET:
            changes["ack"] = ack
        if publish_ack is not _UNSET:
            changes["publish_ack"] = publish_ack
        if home is not _UNSET:
            changes["home"] = home
        if keys is not _UNSET:
            changes["keys"] = keys
        if trace is not _UNSET:
            changes["trace"] = trace
        stamp = None
        removals = []
        for name, value in changes.items():
            if value is None:
                removals.append(name)
            elif stamp is None and name in _SPLICE_ATTRS \
                    and isinstance(value, str):
                stamp = (name, value)
            else:
                break
        else:
            patched = self._splice_attrs(data, stamp, removals)
            if patched is not None:
                return patched
        envelope = self.parse(data)
        for name, value in changes.items():
            setattr(envelope, name, value)
        return self.envelope_to_bytes(envelope)

    def _splice_attrs(self, data: Buffer,
                      stamp: Optional[Tuple[str, str]],
                      removals: Sequence[str]) -> Optional[bytes]:
        """Set one ``<Payload>`` attribute and remove others by patching
        header bytes.

        ``stamp`` is ``(name, value)`` or ``None``.  A present attribute
        has its value bytes replaced; an absent one is inserted as a
        whole ``name="value"`` pair at its canonical render position.  A
        removal cuts its pair, leading space included.  Returns ``data``
        itself (as ``bytes``) when nothing is present to change, and
        ``None`` when the frame's shape defeats the splice (not
        ``XME2``, no ``<Payload`` element, unterminated attribute) — the
        caller falls back to the full parse + re-render path.
        """
        view = memoryview(data)
        if bytes(view[:4]) != _MAGIC_FRAME:
            return None
        try:
            header_len, pos = _read_varint_at(view, len(_MAGIC_FRAME))
        except WireFormatError:
            return None
        end = pos + header_len
        if end > len(view):
            return None
        header = bytes(view[pos:end])
        elem = header.find(b"<Payload ")
        if elem < 0:
            return None
        # ET escapes `<`, `>` and `"` inside attribute values, so `/>`
        # only closes the element.
        close = header.find(b"/>", elem)
        if close < 0:
            return None
        edits = []
        for name in removals:
            at = _find_pair(header, name, elem, close)
            if at >= 0:
                stop = header.find(b'"', at + len(_PAIR_NEEDLES[name]), close)
                if stop < 0:
                    return None
                edits.append((at, stop + 1, b""))
        if stamp is not None:
            name, value = stamp
            encoded = _escape_attrib(value).encode("utf-8")
            at = _find_pair(header, name, elem, close)
            if at >= 0:
                start = at + len(_PAIR_NEEDLES[name])
                stop = header.find(b'"', start, close)
                if stop < 0:
                    return None
                edits.append((start, stop, encoded))
            else:
                rank = _PAYLOAD_ATTR_ORDER.index(name)
                for later in _PAYLOAD_ATTR_ORDER[rank + 1:]:
                    at = _find_pair(header, later, elem, close)
                    if at >= 0:
                        break
                else:
                    # ET renders a childless element as `<Payload ... />`:
                    # slot the new attribute in before that trailing space.
                    at = close - 1 if header[close - 1] == 0x20 else close
                edits.append((at, at, b' %s="%s"' % (
                    name.encode("ascii"), encoded)))
        if not edits:
            return data if isinstance(data, bytes) else bytes(data)
        # An insertion sorts before a removal starting at the same byte.
        edits.sort()
        buf = self._pool.acquire()
        try:
            buf += _MAGIC_FRAME
            _write_varint(buf, header_len + sum(
                len(insert) - (stop - start)
                for start, stop, insert in edits))
            last = 0
            for start, stop, insert in edits:
                buf += header[last:start]
                buf += insert
                last = stop
            buf += header[last:]
            buf += view[end:]
            self.stats.header_splices += 1
            return bytes(buf)
        finally:
            self._pool.release(buf)

    # -- parse ------------------------------------------------------------

    def parse(self, data: Buffer) -> ObjectEnvelope:
        """Wire bytes → envelope (payload NOT yet deserialized).

        For ``XME2`` frames this is a header-only parse: the returned
        envelope's payload is a ``memoryview`` into ``data`` — no copy,
        no base64, no value decode.  Legacy all-XML frames are still
        accepted (their base64 payload text must be decoded to bytes).
        Canonical headers skip ElementTree: the type section comes from
        a process-wide memo and the ``<Payload>`` attributes from a plain
        scan; every other shape is read with ElementTree.
        """
        (entries, encoding, batch_roots, origin, ack, publish_ack, keys_text,
         home, trace, payload) = _read_header(data)
        if not isinstance(payload, memoryview):
            try:
                payload = base64.b64decode(payload or "", validate=True)
            except (ValueError, TypeError):
                raise WireFormatError("payload is not valid base64")
        self.stats.header_parses += 1
        # Positional: this runs once per delivered record, and keyword
        # passing costs measurably more here.
        return ObjectEnvelope(entries, encoding, payload, batch_roots, origin,
                              ack, publish_ack, None, home, keys_text, trace)

    def lazy_batch(self, envelope: ObjectEnvelope) -> LazyBatch:
        """Wrap a parsed envelope for header-driven, decode-on-dispatch use."""
        return LazyBatch(self, envelope, self.registry)

    def unwrap(self, envelope: ObjectEnvelope) -> Any:
        """Envelope → object graph.

        Raises :class:`~repro.serialization.errors.UnknownTypeError` when a
        payload type is not locally known — the optimistic protocol's cue.
        """
        if envelope.is_batch:
            raise WireFormatError("batch envelope: use unwrap_batch")
        value = self._payload_serializer(envelope.encoding).deserialize(
            envelope.payload_bytes())
        self.stats.decodes += 1
        return value

    def unwrap_batch(self, envelope: ObjectEnvelope) -> List[Any]:
        """Batch envelope → list of object graphs (single → one-element).

        Raises :class:`~repro.serialization.errors.UnknownTypeError` when a
        payload type is not locally known, exactly like :meth:`unwrap`.
        """
        if not envelope.is_batch:
            return [self.unwrap(envelope)]
        values = self._binary.deserialize_batch(envelope.payload_bytes())
        if len(values) != envelope.batch_count:
            raise WireFormatError(
                "batch payload holds %d values, envelope declares %d"
                % (len(values), envelope.batch_count)
            )
        self.stats.decodes += len(values)
        return values

    def decode(self, data: Buffer) -> Any:
        """Wire bytes → object graph in one step."""
        return self.unwrap(self.parse(data))
