"""Compact binary object serializer (wire formats v1 and v2).

One of the two payload formats of the hybrid scheme (Section 6.2: "The SOAP
or binary serializations are used to serialize efficiently the whole object
(including the private fields)").  The format is tag-prefixed with varint
lengths, and supports shared references and cycles via back-references.

v1 layout (magic ``RBS1``, one value)::

    NULL | TRUE | FALSE
    INT     zigzag varint
    FLOAT   8-byte IEEE-754 big-endian
    STR     varint byte-length + UTF-8
    LIST    varint count + values
    DICT    varint count + (STR key, value) pairs
    OBJ     16-byte type GUID + STR type name + varint field count
            + (STR name, value) pairs
    REF     varint back-reference index (objects only, in OBJ-emission order)

v2 layout (magic ``RBS2``) is the same tag stream with two interning
tables, built identically by encoder and decoder as the payload streams:

- **strings** — every string position (STR values, dict keys, field names,
  type names) is a varint ``code``: low bit 0 means a literal of byte
  length ``code >> 1`` follows (and joins the table), low bit 1 means a
  back-reference to string ``code >> 1``.
- **types** — an OBJ starts with a varint ``code``: ``0`` means a literal
  type follows (16-byte GUID + interned name, and the type joins the
  table), low bit 1 means a back-reference to type ``code >> 1``.

Repeated type names, field names and dict keys are therefore transmitted
once; a homogeneous object list pays its 16-byte GUID and its field-name
strings exactly once.  Decoding accepts both magics, so v1 payloads
produced by older peers keep deserializing.

The **batch frame** (magic ``RBS2B``) extends v2 for fan-out: many values
in one frame sharing a *single* intern table and back-reference space::

    RBS2B  varint count  value*

N events to one peer therefore cost one header and one string/type table
— and a value repeated inside a batch (one event matching several
subscriptions at the same peer) collapses to a ``REF`` of a few bytes.
Batch frames are produced by :meth:`BinarySerializer.serialize_batch` and
read by :meth:`BinarySerializer.deserialize_batch`; a plain v2 (or v1)
single-value frame remains decodable unchanged, and is accepted by
``deserialize_batch`` as a one-element batch.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Optional, Tuple

from ..cts.identity import Guid
from ..cts.registry import BoundedMemo
from ..cts.types import TypeInfo
from ..runtime.loader import Runtime
from ..runtime.objects import CtsInstance
from .errors import UnknownTypeError, UnsupportedValueError, WireFormatError

_T_NULL = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_LIST = 0x06
_T_DICT = 0x07
_T_OBJ = 0x08
_T_REF = 0x09
_T_BYTES = 0x0A

_MAGIC_V1 = b"RBS1"  # "Repro Binary Serialization v1"
_MAGIC_V2 = b"RBS2"  # v2: interned strings and types
_MAGIC_BATCH = b"RBS2B"  # v2 batch frame: many values, one intern table
_MAGIC = _MAGIC_V1  # historical alias (seed name)


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _zigzag(value: int) -> int:
    # Width-independent zigzag: Python ints are arbitrary precision.
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) if (value & 1) == 0 else -((value + 1) >> 1)


class _InternTables:
    """Per-payload v2 interning state of the encoder."""

    __slots__ = ("strings", "types")

    def __init__(self):
        self.strings: Dict[str, int] = {}
        self.types: Dict[Guid, int] = {}


#: A decoded type literal: the local type and its field-defaults template.
_TypePlan = Tuple[TypeInfo, Dict[str, Any]]

#: Bound on a serializer's type-literal memo (types are few; a peer fed
#: ever-new GUIDs must not grow it without limit).
_MAX_TYPE_PLANS = 1024


class BinarySerializer:
    """Serializes object graphs to bytes and back.

    Emits wire format ``version`` (2 by default; pass ``version=1`` to
    produce payloads older peers can read) and decodes both versions by
    magic.  The output buffer is reused across :meth:`serialize` calls, so
    a long-lived serializer — one per peer — allocates no fresh buffer per
    send.

    Deserialization needs a :class:`~repro.runtime.loader.Runtime` to
    materialise instances; hitting a type the runtime does not know raises
    :class:`UnknownTypeError` — the signal the optimistic transport protocol
    reacts to.  Fields present on the wire but absent from the local type
    (schema drift) are kept on the instance and recorded in
    :attr:`last_schema_drift` as ``(type name, field name)`` pairs.
    """

    format_name = "binary"

    def __init__(self, runtime: Optional[Runtime] = None, version: int = 2):
        if version not in (1, 2):
            raise ValueError("unsupported wire version %r" % (version,))
        self.runtime = runtime
        self.version = version
        self.last_schema_drift: List[Tuple[str, str]] = []
        self._buf: Optional[bytearray] = bytearray()
        #: Type literal ``(16 GUID bytes, type name)`` -> plan, valid for
        #: one type epoch.
        self._type_plans = BoundedMemo(
            _MAX_TYPE_PLANS, runtime.registry if runtime is not None else None)

    # -- encode ------------------------------------------------------------

    def serialize(self, value: Any) -> bytes:
        buf = self._buf
        if buf is None:
            buf = bytearray()  # reentrant call: fall back to a one-off buffer
        else:
            self._buf = None  # claim the shared buffer
            del buf[:]
        try:
            if self.version == 1:
                buf += _MAGIC_V1
                self._encode(buf, value, {}, None)
            else:
                buf += _MAGIC_V2
                self._encode(buf, value, {}, _InternTables())
            return bytes(buf)
        finally:
            self._buf = buf

    def serialize_batch(self, values: List[Any]) -> bytes:
        """Encode many values into one ``RBS2B`` frame.

        All values share one string/type intern table and one object
        back-reference space, so a batch of same-type events pays the type
        GUID and field names once, and a value appearing twice costs a
        ``REF``.  Batch frames are inherently v2: a ``version=1``
        serializer refuses to emit them.
        """
        if self.version != 2:
            raise ValueError("batch frames (RBS2B) require wire version 2")
        buf = self._buf
        if buf is None:
            buf = bytearray()  # reentrant call: fall back to a one-off buffer
        else:
            self._buf = None  # claim the shared buffer
            del buf[:]
        try:
            buf += _MAGIC_BATCH
            _write_varint(buf, len(values))
            seen: Dict[int, int] = {}
            tables = _InternTables()
            for value in values:
                self._encode(buf, value, seen, tables)
            return bytes(buf)
        finally:
            self._buf = buf

    def _encode(self, out: bytearray, value: Any, seen: Dict[int, int],
                tables: Optional[_InternTables]) -> None:
        if value is None:
            out.append(_T_NULL)
        elif value is True:
            out.append(_T_TRUE)
        elif value is False:
            out.append(_T_FALSE)
        elif isinstance(value, int):
            out.append(_T_INT)
            _write_varint(out, _zigzag(value))
        elif isinstance(value, float):
            out.append(_T_FLOAT)
            out.extend(struct.pack(">d", value))
        elif isinstance(value, str):
            out.append(_T_STR)
            self._encode_str(out, value, tables)
        elif isinstance(value, (bytes, bytearray)):
            out.append(_T_BYTES)
            _write_varint(out, len(value))
            out.extend(value)
        elif isinstance(value, list):
            out.append(_T_LIST)
            _write_varint(out, len(value))
            for item in value:
                self._encode(out, item, seen, tables)
        elif isinstance(value, dict):
            out.append(_T_DICT)
            _write_varint(out, len(value))
            for key, item in value.items():
                if not isinstance(key, str):
                    raise UnsupportedValueError("dict keys must be strings")
                self._encode_str(out, key, tables)
                self._encode(out, item, seen, tables)
        elif isinstance(value, CtsInstance):
            marker = id(value)
            if marker in seen:
                out.append(_T_REF)
                _write_varint(out, seen[marker])
                return
            seen[marker] = len(seen)
            out.append(_T_OBJ)
            info = value.type_info
            if tables is None:
                out.extend(info.guid.bytes)
                self._encode_str(out, info.full_name, None)
            else:
                type_id = tables.types.get(info.guid)
                if type_id is not None:
                    _write_varint(out, (type_id << 1) | 1)
                else:
                    tables.types[info.guid] = len(tables.types)
                    out.append(0x00)  # literal-type marker
                    out.extend(info.guid.bytes)
                    self._encode_str(out, info.full_name, tables)
            fields = value.fields
            _write_varint(out, len(fields))
            for name, item in fields.items():
                self._encode_str(out, name, tables)
                self._encode(out, item, seen, tables)
        else:
            raise UnsupportedValueError(
                "cannot binary-serialize value of type %s" % type(value).__name__
            )

    @staticmethod
    def _encode_str(out: bytearray, text: str,
                    tables: Optional[_InternTables]) -> None:
        if tables is not None:
            index = tables.strings.get(text)
            if index is not None:
                _write_varint(out, (index << 1) | 1)
                return
            tables.strings[text] = len(tables.strings)
            data = text.encode("utf-8")
            _write_varint(out, len(data) << 1)
            out.extend(data)
            return
        data = text.encode("utf-8")
        _write_varint(out, len(data))
        out.extend(data)

    # -- decode ------------------------------------------------------------

    def deserialize(self, data: bytes) -> Any:
        if data.startswith(_MAGIC_BATCH):
            # "RBS2B" shares the "RBS2" prefix: check the longer magic
            # first and point the caller at the batch API.
            raise WireFormatError(
                "payload is a batch frame (RBS2B): use deserialize_batch"
            )
        if data.startswith(_MAGIC_V2):
            frame = _Frame(self, [])
        elif data.startswith(_MAGIC_V1):
            frame = _Frame(self, None)
        else:
            raise WireFormatError("bad magic: not a binary payload")
        self.last_schema_drift = []
        value, pos = _decode(frame, data, len(_MAGIC_V1))
        if pos != len(data):
            raise WireFormatError("trailing bytes after payload")
        return value

    def deserialize_batch(self, data: bytes) -> List[Any]:
        """Decode an ``RBS2B`` frame into its list of values.

        A plain single-value frame (``RBS2`` or ``RBS1``) is accepted too
        and returned as a one-element list, so receivers can treat every
        delivery uniformly.
        """
        if not data.startswith(_MAGIC_BATCH):
            return [self.deserialize(data)]
        decoder = BatchDecoder(self, data)
        if not decoder.count and decoder._pos != len(data):
            raise WireFormatError("trailing bytes after batch payload")
        return decoder.decode_to(decoder.count)

    def _type_plan(self, raw: bytes, type_name: str) -> _TypePlan:
        """The local type a literal names, with its field-defaults
        template, memoized per ``(GUID bytes, name)`` for the current type
        epoch.  A miss resolves exactly as an unmemoized decode would; an
        unknown type is never memoized."""
        plans = self._type_plans
        if plans.epoch != self.runtime.registry.epoch:
            plans.fresh()
        key = (raw, type_name)
        plan = plans.get(key)
        if plan is None:
            info = self._lookup_type(Guid(raw), type_name)
            plan = (info, self.runtime.field_defaults(info))
            plans.put(key, plan)
        return plan

    def _lookup_type(self, guid: Guid, type_name: str) -> TypeInfo:
        info = self.runtime.registry.get_by_guid(guid)
        if info is None:
            # Name fallback only when identities agree — a same-named type
            # of a *different version* must not be silently substituted.
            candidate = self.runtime.registry.get(type_name)
            if candidate is not None and candidate.guid == guid:
                info = candidate
        if info is None:
            raise UnknownTypeError(type_name, str(guid))
        return info


def is_single_frame(data: bytes) -> bool:
    """True for a single-value frame (``RBS2`` or ``RBS1``), which
    :meth:`BinarySerializer.deserialize` reads; an ``RBS2B`` batch frame
    is read by :class:`BatchDecoder`."""
    if data.startswith(_MAGIC_V2):
        return not data.startswith(_MAGIC_BATCH)
    return data.startswith(_MAGIC_V1)


class _Frame:
    """One frame's decode state: the serializer resolving its types and
    recording drift, the v2 string intern table (``None`` for v1), the
    type table and the object back-reference space."""

    __slots__ = ("serializer", "runtime", "strings", "types", "objects")

    def __init__(self, serializer: BinarySerializer,
                 strings: Optional[List[str]]):
        self.serializer = serializer
        self.runtime = serializer.runtime
        self.strings = strings
        self.types: List[_TypePlan] = []
        self.objects: List[CtsInstance] = []


# The decoder passes the payload and an integer position between plain
# functions, each returning ``(value, next position)``; a one-byte varint
# and an interned string are read inline where a payload holds most of
# them.  Any read past the end of the payload indexes out of range, and
# :func:`_decode` reports that IndexError as truncation.

_TRUNCATED = "truncated binary payload"
_DOUBLE = struct.Struct(">d")


def _decode(frame: _Frame, data: bytes, pos: int) -> Tuple[Any, int]:
    """The value at ``pos`` of ``data`` and the position after it."""
    try:
        return _value(frame, data, pos)
    except IndexError:
        raise WireFormatError(_TRUNCATED) from None


def _decode_count(data: bytes) -> Tuple[int, int]:
    """The value count of an ``RBS2B`` frame and the position after it."""
    try:
        return _varint(data, len(_MAGIC_BATCH))
    except IndexError:
        raise WireFormatError(_TRUNCATED) from None


def _varint(data: bytes, pos: int) -> Tuple[int, int]:
    byte = data[pos]
    pos += 1
    if not byte & 0x80:
        return byte, pos
    value = byte & 0x7F
    shift = 7
    while True:
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 2048:  # generous: arbitrary-precision ints allowed
            raise WireFormatError("varint too long")


def _utf8(data: bytes, start: int, end: int) -> str:
    if end > len(data):
        raise WireFormatError(_TRUNCATED)
    try:
        return data[start:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireFormatError("invalid UTF-8 in string: %s" % exc)


def _string(strings: Optional[List[str]], data: bytes,
            pos: int) -> Tuple[str, int]:
    code, pos = _varint(data, pos)
    if strings is None:  # v1: a byte length and the text
        end = pos + code
        return _utf8(data, pos, end), end
    if code & 1:
        index = code >> 1
        if index >= len(strings):
            raise WireFormatError("dangling string reference %d" % index)
        return strings[index], pos
    end = pos + (code >> 1)
    text = _utf8(data, pos, end)
    strings.append(text)
    return text, end


def _value(frame: _Frame, data: bytes, pos: int) -> Tuple[Any, int]:
    tag = data[pos]
    pos += 1
    # Objects and strings first: they are most of every payload.
    if tag == _T_OBJ:
        return _object(frame, data, pos)
    if tag == _T_STR:
        return _string(frame.strings, data, pos)
    if tag == _T_NULL:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        code, pos = _varint(data, pos)
        return _unzigzag(code), pos
    if tag == _T_FLOAT:
        end = pos + 8
        if end > len(data):
            raise WireFormatError(_TRUNCATED)
        return _DOUBLE.unpack_from(data, pos)[0], end
    if tag == _T_BYTES:
        length, pos = _varint(data, pos)
        end = pos + length
        if end > len(data):
            raise WireFormatError(_TRUNCATED)
        return data[pos:end], end
    if tag == _T_LIST:
        count, pos = _varint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _value(frame, data, pos)
            items.append(item)
        return items, pos
    if tag == _T_DICT:
        count, pos = _varint(data, pos)
        strings = frame.strings
        out: Dict[str, Any] = {}
        for _ in range(count):
            key, pos = _string(strings, data, pos)
            item, pos = _value(frame, data, pos)
            out[key] = item
        return out, pos
    if tag == _T_REF:
        index, pos = _varint(data, pos)
        if index >= len(frame.objects):
            raise WireFormatError("dangling back-reference %d" % index)
        return frame.objects[index], pos
    raise WireFormatError("unknown tag 0x%02x" % tag)


def _object(frame: _Frame, data: bytes, pos: int) -> Tuple[CtsInstance, int]:
    runtime = frame.runtime
    if runtime is None:
        raise WireFormatError(
            "payload contains objects but no runtime was provided"
        )
    strings = frame.strings
    if strings is None:
        start, pos = pos, pos + 16
        if pos > len(data):
            raise WireFormatError(_TRUNCATED)
        type_name, pos = _string(None, data, pos)
        info, template = frame.serializer._type_plan(data[start:start + 16],
                                                     type_name)
    else:
        code = data[pos]
        if code < 0x80:
            pos += 1
        else:
            code, pos = _varint(data, pos)
        if code & 1:
            index = code >> 1
            if index >= len(frame.types):
                raise WireFormatError("dangling type reference %d" % index)
            info, template = frame.types[index]
        elif code == 0:
            start, pos = pos, pos + 16
            if pos > len(data):
                raise WireFormatError(_TRUNCATED)
            type_name, pos = _string(strings, data, pos)
            plan = frame.serializer._type_plan(data[start:start + 16],
                                               type_name)
            frame.types.append(plan)
            info, template = plan
        else:
            raise WireFormatError("malformed type literal marker %d" % code)
    # Allocate first so cyclic back-references resolve.
    instance = CtsInstance(info, runtime, template.copy())
    frame.objects.append(instance)
    fields = instance.fields
    count = data[pos]
    if count < 0x80:
        pos += 1
    else:
        count, pos = _varint(data, pos)
    for _ in range(count):
        code = data[pos]
        if strings is None or code >= 0x80:
            name, pos = _string(strings, data, pos)
        elif code & 1:
            index = code >> 1
            if index >= len(strings):
                raise WireFormatError("dangling string reference %d" % index)
            name = strings[index]
            pos += 1
        else:
            start = pos + 1
            pos = start + (code >> 1)
            name = _utf8(data, start, pos)
            strings.append(name)
        if data[pos] == _T_STR and strings is not None and data[pos + 1] < 0x80:
            code = data[pos + 1]
            if code & 1:
                index = code >> 1
                if index >= len(strings):
                    raise WireFormatError("dangling string reference %d" % index)
                value = strings[index]
                pos += 2
            else:
                start = pos + 2
                pos = start + (code >> 1)
                value = _utf8(data, start, pos)
                strings.append(value)
        else:
            value, pos = _value(frame, data, pos)
        if name not in fields:
            # Field present on the wire but absent locally: keep it
            # (conformance mapping may still address it) and record the
            # drift so callers can observe it.
            frame.serializer.last_schema_drift.append((info.full_name, name))
        fields[name] = value
    return instance, pos


class BatchDecoder:
    """Incremental, per-value reader over one ``RBS2B`` frame.

    The batch frame shares a single intern table and one back-reference
    space across all values, so random access is impossible — but *prefix*
    access is cheap: decoding value ``i`` requires decoding values
    ``0..i`` exactly once, and every decoded value is cached.  A consumer
    that dispatches only value 0 of a 64-value batch pays one decode, not
    sixty-four; a consumer that touches nothing pays zero.  (A
    single-value frame needs none of this: see :func:`is_single_frame`.)
    :meth:`decode_to` is the one decode loop: a run of values costs one
    call, and :meth:`BinarySerializer.deserialize_batch` is one call.

    The serializer's :attr:`~BinarySerializer.last_schema_drift` starts
    afresh with each frame.  Each value decode snapshots the position and
    table lengths first: a failure mid-value rolls the decoder back, so
    the same value can be retried cleanly — after an UnknownTypeError
    (the protocol's fetch-code cue) once the type arrives.
    """

    __slots__ = ("count", "_frame", "_data", "_pos", "_values")

    def __init__(self, serializer: BinarySerializer, data: Any):
        if not isinstance(data, bytes):
            # memoryview payloads (zero-copy frame slices) are snapshotted
            # once here: value decode is the paid path by definition.
            data = bytes(data)
        if not data.startswith(_MAGIC_BATCH):
            raise WireFormatError("bad magic: not a binary payload")
        serializer.last_schema_drift = []
        self._frame = _Frame(serializer, [])
        self._data = data
        self._values: List[Any] = []
        self.count, self._pos = _decode_count(data)

    def __len__(self) -> int:
        return self.count

    @property
    def decoded_count(self) -> int:
        return len(self._values)

    def value(self, index: int) -> Any:
        """Decode (and cache) the batch prefix up to value ``index``."""
        if not 0 <= index < self.count:
            raise IndexError("batch value %d out of range (%d values)"
                             % (index, self.count))
        return self.decode_to(index + 1)[index]

    def values(self) -> List[Any]:
        return list(self.decode_to(self.count))

    def decode_to(self, stop: int) -> List[Any]:
        """Decode (and cache) the batch prefix of ``stop`` (at most
        :attr:`count`) values in one loop; returns the cache itself, which
        is not to be changed."""
        values = self._values
        frame = self._frame
        strings, types, objects = frame.strings, frame.types, frame.objects
        data, pos, last = self._data, self._pos, self.count - 1
        try:
            for index in range(len(values), stop):
                # Snapshot so a failure mid-value leaves the decoder
                # exactly where this value started.
                marks = len(strings), len(types), len(objects)
                value, pos = _value(frame, data, pos)
                if index == last and pos != len(data):
                    raise WireFormatError("trailing bytes after batch payload")
                values.append(value)
                self._pos = pos
        except (UnknownTypeError, WireFormatError, IndexError) as error:
            del strings[marks[0]:]
            del types[marks[1]:]
            del objects[marks[2]:]
            if isinstance(error, IndexError):
                raise WireFormatError(_TRUNCATED) from None
            raise
        return values
