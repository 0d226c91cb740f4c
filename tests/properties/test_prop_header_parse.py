"""The canonical header scan and render are invisible: ElementTree
equivalence.

``EnvelopeCodec.parse`` and ``parse_frame_header`` read the canonical
``XME2`` header without ElementTree — the type section through a
process-wide memo, the ``<Payload>`` attributes through a plain scan —
and fall back to ElementTree for every other shape.  That is an
optimisation, not a behaviour change: for every codec-built frame
(arbitrary attribute text including every XML-escaped character,
control and non-ASCII characters, empty strings, many type entries,
batches) and every mutation of one (duplicate, reordered, unknown or
single-quoted attributes, namespace declarations, extra whitespace,
entities, truncation, a corrupt type section after a memo hit), both
entry points must agree field for field with a test-local ElementTree
reference reader, or both must reject the frame.

``EnvelopeCodec`` also renders headers as strings, not element trees:
for every envelope the bytes must equal a test-local ElementTree
reference render, and the ``keys`` attribute must percent-encode every
key exactly as ``urllib.parse.quote(key, safe="")``.
"""

import base64
import re
import xml.etree.ElementTree as ET
from urllib.parse import quote

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serialization.binary import _write_varint
from repro.serialization.envelope import (
    EnvelopeCodec,
    ObjectEnvelope,
    TypeEntry,
    _encode_keys,
    _split_frame,
    decode_home,
    encode_home,
    parse_frame_header,
)
from repro.serialization.errors import WireFormatError

#: Text the canonical scan reads itself: printable ASCII that renders
#: unescaped (no ``"``, ``<``, ``&``).
_PLAIN_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " >'%/|,.-_=+;:#!~]"
)
#: Adds every XML-escaped character, whitespace XML normalises and
#: characters outside ASCII: text the scan must hand to ElementTree.
_ATTR_ALPHABET = _PLAIN_ALPHABET + "<&\"\t\r\né中\U0001f600"

attr_text = (st.text(alphabet=_PLAIN_ALPHABET, max_size=16)
             | st.text(alphabet=_ATTR_ALPHABET, max_size=16))
opt_attr = st.none() | attr_text
name_text = st.text(alphabet=_ATTR_ALPHABET, min_size=1, max_size=12)


# -- the reference reader -------------------------------------------------

def _reference(data):
    """Read a frame with ElementTree alone: (fields, payload view or
    ``None``, ``<Payload>`` text); raises WireFormatError when the
    header is not a valid envelope header."""
    header, payload = _split_frame(data)
    try:
        root = ET.fromstring(header)
    except ET.ParseError as exc:
        raise WireFormatError(str(exc))
    if root.tag != "XmlMessage":
        raise WireFormatError("root")
    type_info = root.find("TypeInformation")
    entries = []
    for element in (type_info.findall("Type")
                    if type_info is not None else []):
        if not element.get("name") or not element.get("guid"):
            raise WireFormatError("type")
        entries.append((element.get("name"), element.get("guid"),
                        element.get("assembly", "default"),
                        element.get("path")))
    payload_el = root.find("Payload")
    if payload_el is None:
        raise WireFormatError("payload")
    attrs = payload_el.attrib
    encoding = attrs.get("encoding", "binary")
    if encoding not in ("binary", "soap"):
        raise WireFormatError("encoding")
    roots = None
    if attrs.get("batch") is not None:
        try:
            count = int(attrs["batch"])
            roots = [int(part) for part in (attrs.get("roots") or "").split()]
        except ValueError:
            raise WireFormatError("batch")
        if count < 1 or count != len(roots):
            raise WireFormatError("batch count")
        if any(not 0 <= index < len(entries) for index in roots):
            raise WireFormatError("root")
    keys = attrs.get("keys")
    if keys is not None:
        tokens = keys.split(" ") if keys else []
        if len(tokens) != (len(roots) if roots is not None else 1):
            raise WireFormatError("keys")
        if any(token != "-" and not token.startswith("_")
               for token in tokens):
            raise WireFormatError("keys token")
    fields = {
        "entries": entries, "encoding": encoding, "batch_roots": roots,
        "origin": attrs.get("origin"), "ack": attrs.get("ack"),
        "publish_ack": attrs.get("publish_ack"), "keys": keys,
        "home": attrs.get("home"), "trace": attrs.get("trace"),
    }
    return fields, payload, payload_el.text


def reference_parse(data):
    fields, payload, text = _reference(data)
    if payload is None:
        try:
            payload = base64.b64decode(text or "", validate=True)
        except ValueError:
            raise WireFormatError("base64")
    fields["payload"] = bytes(payload)
    return fields


def reference_header(data):
    try:
        fields, payload, _ = _reference(data)
    except (WireFormatError, ValueError, TypeError):
        return None
    fields["payload_offset"] = (None if payload is None
                                else len(data) - len(payload))
    return fields


def _common(obj):
    return {
        "entries": [(entry.name, entry.guid_text, entry.assembly,
                     entry.download_path) for entry in obj.type_entries],
        "encoding": obj.encoding, "batch_roots": obj.batch_roots,
        "origin": obj.origin, "ack": obj.ack,
        "publish_ack": obj.publish_ack, "keys": obj._keys_text,
        "home": obj.home, "trace": obj.trace,
    }


def fast_parse(data):
    envelope = EnvelopeCodec().parse(data)
    fields = _common(envelope)
    fields["payload"] = bytes(envelope.payload)
    return fields


def fast_header(data):
    header = parse_frame_header(data)
    if header is None:
        return None
    fields = _common(header)
    fields["payload_offset"] = header.payload_offset
    return fields


def _outcome(reader, data):
    try:
        return reader(data)
    except WireFormatError:
        return "rejected"


def assert_equivalent(data):
    assert _outcome(fast_parse, data) == _outcome(reference_parse, data)
    assert fast_header(data) == reference_header(data)


# -- frames ---------------------------------------------------------------

@st.composite
def envelopes(draw):
    n_types = draw(st.integers(0, 8))
    entries = [
        TypeEntry(draw(name_text), draw(name_text), draw(attr_text),
                  draw(opt_attr))
        for _ in range(n_types)
    ]
    batch_roots = None
    keys = None
    if n_types and draw(st.booleans()):
        count = draw(st.integers(1, 4))
        batch_roots = [draw(st.integers(0, n_types - 1))
                       for _ in range(count)]
        if draw(st.booleans()):
            keys = [draw(opt_attr) for _ in range(count)]
    elif draw(st.booleans()):
        keys = [draw(opt_attr)]
    return ObjectEnvelope(
        entries, draw(st.sampled_from(["binary", "soap"])),
        draw(st.binary(max_size=32)),
        batch_roots=batch_roots,
        origin=draw(opt_attr), ack=draw(opt_attr),
        publish_ack=draw(opt_attr), home=draw(opt_attr),
        keys=keys, trace=draw(opt_attr),
    )


def _frame(header: bytes, payload: bytes) -> bytes:
    buf = bytearray(b"XME2")
    _write_varint(buf, len(header))
    return bytes(buf) + header + payload


def _pieces(data: bytes):
    header, payload = _split_frame(data)
    return header, bytes(payload)


def _payload_attrs(header: bytes):
    """(start, end) of the ``<Payload`` attribute list in ``header``."""
    start = header.index(b"<Payload") + len(b"<Payload")
    return start, header.index(b"/>", start)


def _duplicate(header, draw):
    start, _ = _payload_attrs(header)
    name = draw(st.sampled_from([b"encoding", b"origin", b"batch", b"ack"]))
    return header[:start] + b' %s="x"' % name + header[start:]


def _reorder(header, draw):
    start, end = _payload_attrs(header)
    attrs = draw(st.permutations(
        re.findall(rb'[A-Za-z_]+="[^"]*"', header[start:end])))
    return header[:start] + b" " + b" ".join(attrs) + b" " + header[end:]


def _single_quote(header, draw):
    return header.replace(b'encoding="binary"', b"encoding='binary'", 1) \
        .replace(b'encoding="soap"', b"encoding='soap'", 1)


def _whitespace(header, draw):
    old, new = draw(st.sampled_from([
        (b"<Payload ", b"<Payload  "), (b" />", b"/>"), (b" />", b"\n/>"),
        (b'" ', b'"\t'), (b"><Payload", b"> <Payload"),
        (b"<TypeInformation>", b"<TypeInformation >"),
    ]))
    return header.replace(old, new, 1)


def _set_attr(header, name, raw):
    """Replace ``<Payload>`` attribute ``name`` with raw ``value`` bytes,
    placed right after ``encoding`` (where the scan would look for it)."""
    header = re.sub(rb' %s="[^"]*"' % name, b"", header)
    return re.sub(rb' encoding="[^"]*"',
                  lambda match: match.group(0) + b' %s="%s"' % (name, raw),
                  header, count=1)


def _entity(header, draw):
    old, new = draw(st.sampled_from([
        (b'"binary"', b'"b&#105;nary"'), (b'"soap"', b'"so&#x61;p"'),
        (b'encoding="', b'encoding="&amp;'), (b'name="', b'name="&lt;'),
        (b'encoding="', b'encoding="&bogus;'),
    ]))
    if draw(st.booleans()):
        return header.replace(old, new, 1)
    return _set_attr(header, b"origin", draw(st.sampled_from(
        [b"a&amp;b", b"&#97;", b"&gt;", b"&quot;x", b"&bogus;"])))


def _raw_whitespace_value(header, draw):
    """A raw tab/newline/CR inside a value: XML normalises it to a space."""
    return _set_attr(header, b"origin", b"a%sb" % draw(
        st.sampled_from([b"\t", b"\n", b"\r", b"\r\n"])))


def _namespace(header, draw):
    start, _ = _payload_attrs(header)
    return header[:start] + b' xmlns="urn:x"' + header[start:]


def _unknown(header, draw):
    start, _ = _payload_attrs(header)
    return header[:start] + b' zz="1"' + header[start:]


def _zero_batch(header, draw):
    header = re.sub(rb' keys="[^"]*"', b"", header)
    return _set_attr(_set_attr(header, b"roots", b""), b"batch", b"0")


def _truncate(header, draw):
    return header[:draw(st.integers(0, max(0, len(header) - 1)))]


def _flip(header, draw):
    at = draw(st.integers(0, len(header) - 1))
    byte = draw(st.sampled_from(b'<>"&\' =/a\x00\xff'))
    return header[:at] + bytes([byte]) + header[at + 1:]


_MUTATIONS = (_duplicate, _reorder, _single_quote, _whitespace, _entity,
              _raw_whitespace_value, _namespace, _unknown, _zero_batch,
              _truncate, _flip)


# -- properties -----------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(envelope=envelopes())
def test_codec_built_frames_read_identically(envelope):
    codec = EnvelopeCodec()
    data = codec.envelope_to_bytes(envelope)
    assert_equivalent(data)
    # A second read is a memo hit for canonical headers.
    assert_equivalent(data)
    assert_equivalent(codec.envelope_to_legacy_bytes(envelope))


@settings(max_examples=400, deadline=None)
@given(envelope=envelopes(), mutation=st.sampled_from(_MUTATIONS),
       data=st.data())
def test_mutated_frames_read_identically(envelope, mutation, data):
    frame = EnvelopeCodec().envelope_to_bytes(envelope)
    header, payload = _pieces(frame)
    assert_equivalent(frame)
    assert_equivalent(_frame(mutation(header, data.draw), payload))


@settings(max_examples=200, deadline=None)
@given(envelope=envelopes().filter(lambda env: env.type_entries),
       data=st.data())
def test_corrupt_type_section_after_memo_hit(envelope, data):
    frame = EnvelopeCodec().envelope_to_bytes(envelope)
    header, payload = _pieces(frame)
    assert_equivalent(frame)
    stop = header.index(b"</TypeInformation>")
    start = len(b"<XmlMessage><TypeInformation>")
    old, new = data.draw(st.sampled_from([
        (b' guid="', b' giud="'), (b' name="', b' nmae="'), (b" />", b" >"),
        (b"<Type ", b"<Tpye "), (b'"', b"'"),
    ]))
    section = header[start:stop].replace(old, new, 1)
    corrupt = _frame(header[:start] + section + header[stop:], payload)
    assert_equivalent(corrupt)



# -- the render -------------------------------------------------------------

def reference_render(envelope):
    """The header as ElementTree serializes the same elements."""
    root = ET.Element("XmlMessage")
    type_info = ET.SubElement(root, "TypeInformation")
    for entry in envelope.type_entries:
        attrs = {"name": entry.name, "guid": entry.guid_text,
                 "assembly": entry.assembly}
        if entry.download_path:
            attrs["path"] = entry.download_path
        ET.SubElement(type_info, "Type", attrs)
    attrs = {"encoding": envelope.encoding}
    if envelope.is_batch:
        attrs["batch"] = str(envelope.batch_count)
        attrs["roots"] = " ".join(str(index)
                                  for index in envelope.batch_roots)
    keys = None
    if envelope.keys is not None:
        keys = " ".join("-" if key is None else "_" + quote(key, safe="")
                        for key in envelope.keys)
    for name, value in (("origin", envelope.origin), ("ack", envelope.ack),
                        ("publish_ack", envelope.publish_ack),
                        ("keys", keys), ("home", envelope.home),
                        ("trace", envelope.trace)):
        if value is not None:
            attrs[name] = value
    ET.SubElement(root, "Payload", attrs)
    return ET.tostring(root, encoding="utf-8")


@settings(max_examples=400, deadline=None)
@given(envelope=envelopes())
def test_render_equals_the_element_tree_render(envelope):
    assert EnvelopeCodec()._render_header(envelope) == \
        reference_render(envelope)


def test_render_of_unencodable_text_uses_character_references():
    """A lone surrogate cannot be UTF-8 encoded: both renders write it as
    a character reference."""
    envelope = ObjectEnvelope(
        [TypeEntry("a\ud800b", "g", "asm", "p\udfff")], "soap", b"",
        origin="o\ud83d", trace="t")
    rendered = EnvelopeCodec()._render_header(envelope)
    assert rendered == reference_render(envelope)
    assert b"&#55296;" in rendered


any_key = st.none() | st.text() | st.text(
    alphabet=st.characters(max_codepoint=127))


@settings(max_examples=300, deadline=None)
@given(keys=st.lists(any_key, max_size=6))
def test_encode_keys_quotes_like_urllib(keys):
    assert _encode_keys(keys) == " ".join(
        "-" if key is None else "_" + quote(key, safe="") for key in keys)


def test_encode_keys_covers_every_ascii_character():
    keys = [chr(code) for code in range(128)] + [
        "".join(chr(code) for code in range(128))]
    assert _encode_keys(keys) == " ".join(
        "_" + quote(key, safe="") for key in keys)


# -- the batch, keys and home fast paths ------------------------------------
#
# ``roots`` parses through a memo keyed by its text, all-keyed ``keys`` are
# checked by string scans, and ``home`` decodes by one ``map(int, ...)``
# when it holds no ``-``.  Against the token loops below, a frame must give
# the same envelope or the same error message, warm memo or cold.

def reference_batch_checks(batch_attr, roots_attr, keys_text, n_entries):
    """The batch and keys checks value by value, message for message."""
    batch_roots = None
    if batch_attr is not None:
        try:
            count = int(batch_attr)
            batch_roots = [int(part) for part in (roots_attr or "").split()]
        except ValueError:
            raise WireFormatError("malformed batch attributes")
        if count < 1:
            raise WireFormatError("batch count %d is not positive" % count)
        if count != len(batch_roots):
            raise WireFormatError("batch count %d does not match %d roots"
                                  % (count, len(batch_roots)))
        for index in batch_roots:
            if not 0 <= index < n_entries:
                raise WireFormatError("batch root %d out of range" % index)
    if keys_text is not None:
        count = len(batch_roots) if batch_roots is not None else 1
        tokens = keys_text.split(" ") if keys_text else []
        if len(tokens) != count:
            raise WireFormatError(
                "keys attribute holds %d entries, envelope declares %d values"
                % (len(tokens), count))
        for token in tokens:
            if token != "-" and not token.startswith("_"):
                raise WireFormatError("malformed keys token %r" % token)
    return batch_roots


def reference_decode_home(text):
    shard_id, separator, tail = text.partition("|")
    if not separator or not shard_id:
        return None
    offsets = []
    for token in tail.split(","):
        if token == "-":
            offsets.append(None)
        else:
            try:
                offsets.append(int(token))
            except ValueError:
                return None
    return shard_id, offsets


def _with_attrs(n_types, attrs):
    """A canonical frame with ``n_types`` type entries whose ``<Payload>``
    carries exactly ``attrs`` (``(name, text)`` pairs, ``None`` omitted)
    in render order."""
    entries = [TypeEntry("t.T%d" % index, "g%d" % index, "asm", None)
               for index in range(n_types)]
    header = EnvelopeCodec()._render_header(
        ObjectEnvelope(entries, "binary", b""))
    start, end = _payload_attrs(header)
    rendered = b"".join(b' %s="%s"' % (name.encode(), text.encode())
                        for name, text in attrs if text is not None)
    return _frame(header[:start] + b' encoding="binary"' + rendered + b" "
                  + header[end:], b"\x01")


def _batch_outcome(data):
    try:
        envelope = EnvelopeCodec().parse(data)
    except WireFormatError as exc:
        return "error", str(exc)
    return envelope.batch_roots, envelope._keys_text


def _reference_outcome(n_types, batch, roots, keys):
    try:
        return reference_batch_checks(batch, roots, keys, n_types), keys
    except WireFormatError as exc:
        return "error", str(exc)


root_token = (st.integers(-3, 9).map(str)
              | st.sampled_from(["x", "+1", "01", "1.5", "-0", "٣"]))
roots_text = st.lists(root_token, max_size=6).map(" ".join) \
    | st.lists(root_token, max_size=4).map("  ".join)
batch_text = st.none() | st.integers(-1, 7).map(str) | st.just("z")
key_token = st.sampled_from(["-", "_", "_a", "_%20b", "", "x", "-x", "__",
                             "+a", "_-"])
keys_text = st.none() | st.lists(key_token, max_size=7).map(" ".join)


@settings(max_examples=400, deadline=None)
@given(n_types=st.integers(1, 6), fewer=st.integers(0, 5), batch=batch_text,
       roots=roots_text, keys=keys_text)
def test_batch_and_keys_read_as_the_token_loops(n_types, fewer, batch, roots,
                                                keys):
    attrs = [("batch", batch), ("roots", roots if batch is not None
                                         else None), ("keys", keys)]
    data = _with_attrs(n_types, attrs)
    expected = _reference_outcome(n_types, batch, roots, keys)
    assert _batch_outcome(data) == expected
    # A warm memo, and the same text under fewer type entries.
    assert _batch_outcome(data) == expected
    smaller = max(0, n_types - fewer)
    assert _batch_outcome(_with_attrs(smaller, attrs)) == \
        _reference_outcome(smaller, batch, roots, keys)
    lenient = parse_frame_header(data)
    if expected[0] == "error":
        assert lenient is None
    else:
        assert (lenient.batch_roots, lenient._keys_text) == expected


def test_warm_roots_memo_under_fewer_entries():
    attrs = [("batch", "3"), ("roots", "0 2 1")]
    assert _batch_outcome(_with_attrs(3, attrs)) == ([0, 2, 1], None)
    assert _batch_outcome(_with_attrs(2, attrs)) == \
        ("error", "batch root 2 out of range")
    assert _batch_outcome(_with_attrs(1, [("batch", "2"),
                                          ("roots", "0 -1")])) == \
        ("error", "batch root -1 out of range")


home_token = st.sampled_from(["-", "+7", " 7", "x", "", "7", "-3", "12",
                              "0", "1_0"])
home_text = st.builds(
    lambda shard, sep, tokens: shard + sep + ",".join(tokens),
    st.sampled_from(["s0", "", "a|b"]), st.sampled_from(["|", ""]),
    st.lists(home_token, min_size=1, max_size=5))


@settings(max_examples=300, deadline=None)
@given(text=home_text)
def test_decode_home_reads_as_the_token_loop(text):
    assert decode_home(text) == reference_decode_home(text)


@settings(max_examples=200, deadline=None)
@given(offsets=st.lists(st.none() | st.integers(-2, 4), max_size=8))
def test_encode_home_formats_as_each_offset_alone(offsets):
    text = encode_home("s", offsets)
    assert text == "s|" + ",".join("-" if offset is None else str(offset)
                                   for offset in offsets)
    if offsets:
        assert decode_home(text) == ("s", offsets)
