"""Header splice-patching is invisible: ``reframe`` byte-equivalence.

``EnvelopeCodec.reframe`` sets one string attribute and removes any
others directly in the frame's header bytes (the ack stamp and the
subscriber-frame strip) instead of parsing and re-rendering the XML.
The splice is an optimisation, not a behaviour change: for every
generated envelope — arbitrary attribute values including every
XML-escaped character, percent-encoded ``keys`` attrs, batches, trace
ids — the spliced frame must be byte-identical to a full re-render
(parse, set the attributes, render the header again — the codec's own
fallback), splice after splice.  Legacy all-XML frames and changes that
set several attributes must fall back (``header_splices`` stays flat)
and still agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serialization.envelope import (
    EnvelopeCodec,
    ObjectEnvelope,
    TypeEntry,
)

#: Exercises every XML-escaped character (& < > " plus tab/CR/LF) and the
#: percent sign the keys codec escapes with.  Control characters are
#: excluded: the re-render baseline reparses the XML it produced, and
#: bare control chars are not representable in XML 1.0 text.
_ATTR_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    " <>&\"'%/|,.-_=+\t\r\n"
)

attr_text = st.text(alphabet=_ATTR_ALPHABET, max_size=24)
opt_attr = st.none() | attr_text

#: The single-string attributes the splice path handles.
_SPLICEABLE = ("origin", "ack", "publish_ack", "home", "trace")

#: The attributes the splice path removes.
_REMOVABLE = _SPLICEABLE + ("keys",)


@st.composite
def envelopes(draw):
    n_types = draw(st.integers(1, 3))
    entries = [
        TypeEntry("demo.T%d" % index, "guid-%d" % index, "asm-%d" % index,
                  draw(st.none() | st.just("repo://t%d/1.0" % index)))
        for index in range(n_types)
    ]
    batch_roots = None
    keys = None
    if draw(st.booleans()):
        count = draw(st.integers(1, 3))
        batch_roots = [draw(st.integers(0, n_types - 1))
                       for _ in range(count)]
        if draw(st.booleans()):
            keys = [draw(opt_attr) for _ in range(count)]
    return ObjectEnvelope(
        entries, "binary", draw(st.binary(max_size=48)),
        batch_roots=batch_roots,
        origin=draw(opt_attr),
        ack=draw(opt_attr),
        publish_ack=draw(opt_attr),
        home=draw(opt_attr),
        keys=keys,
        trace=draw(opt_attr),
    )


def rerender(data, **changes):
    """The reference: parse, set the attributes, render the whole header
    again (on its own codec, so the codec under test counts only its
    own splices and renders)."""
    codec = EnvelopeCodec()
    envelope = codec.parse(data)
    for name, value in changes.items():
        setattr(envelope, name, value)
    return codec.envelope_to_bytes(envelope)


@settings(max_examples=150, deadline=None)
@given(envelope=envelopes(), name=st.sampled_from(_SPLICEABLE),
       value=opt_attr)
def test_splice_is_byte_identical_to_rerender(envelope, name, value):
    fast = EnvelopeCodec()
    data = fast.envelope_to_bytes(envelope)
    renders_before = fast.stats.header_renders
    patched = fast.reframe(data, **{name: value})
    assert patched == rerender(data, **{name: value})
    if isinstance(value, str):
        # The string change went down the splice path: one splice, no
        # XML re-render.
        assert fast.stats.header_splices == 1
        assert fast.stats.header_renders == renders_before
    # The patched frame still parses, with the attribute applied.
    assert getattr(fast.parse(patched), name) == value


@settings(max_examples=100, deadline=None)
@given(envelope=envelopes(),
       ops=st.lists(st.tuples(st.sampled_from(_SPLICEABLE), opt_attr),
                    min_size=1, max_size=4))
def test_chained_splices_stay_equivalent(envelope, ops):
    """Splice-of-a-splice: the patched frame is itself a valid splice
    target, and every intermediate stays byte-equal to the re-render
    baseline walking the same sequence."""
    fast = EnvelopeCodec()
    fast_data = fast.envelope_to_bytes(envelope)
    reference_data = fast_data
    for name, value in ops:
        fast_data = fast.reframe(fast_data, **{name: value})
        reference_data = rerender(reference_data, **{name: value})
        assert fast_data == reference_data


def test_multi_attribute_change_falls_back_to_rerender():
    fast = EnvelopeCodec()
    envelope = ObjectEnvelope(
        [TypeEntry("demo.T", "guid-0", "asm", None)], "binary", b"\x01\x02")
    data = fast.envelope_to_bytes(envelope)
    out = fast.reframe(data, ack="tok", trace="tid")
    assert fast.stats.header_splices == 0
    assert out == rerender(data, ack="tok", trace="tid")
    parsed = fast.parse(out)
    assert parsed.ack == "tok" and parsed.trace == "tid"


def test_legacy_frame_falls_back_without_splice():
    """Wire-v1 all-XML frames have no XME2 header to patch: reframe must
    take the parse-and-re-render path (splices stay flat) and still
    apply the change."""
    fast = EnvelopeCodec()
    envelope = ObjectEnvelope(
        [TypeEntry("demo.T", "guid-0", "asm", None)], "binary", b"\x03\x04")
    legacy = fast.envelope_to_legacy_bytes(envelope)
    out = fast.reframe(legacy, ack="tok")
    assert fast.stats.header_splices == 0
    assert out == rerender(legacy, ack="tok")
    assert fast.parse(out).ack == "tok"


def test_attr_removal_splices_and_agrees():
    fast = EnvelopeCodec()
    envelope = ObjectEnvelope(
        [TypeEntry("demo.T", "guid-0", "asm", None)], "binary", b"\x05",
        ack="old-token", trace="tid")
    data = fast.envelope_to_bytes(envelope)
    renders = fast.stats.header_renders
    out = fast.reframe(data, ack=None)
    assert fast.stats.header_splices == 1
    assert fast.stats.header_renders == renders
    assert out == rerender(data, ack=None)
    parsed = fast.parse(out)
    assert parsed.ack is None and parsed.trace == "tid"


@settings(max_examples=150, deadline=None)
@given(envelope=envelopes(),
       removed=st.sets(st.sampled_from(_REMOVABLE), min_size=1),
       stamp=st.none() | st.tuples(st.sampled_from(_SPLICEABLE), attr_text))
def test_removals_with_one_set_splice_in_one_pass(envelope, removed, stamp):
    """Any removals plus at most one string set: one splice, no render,
    the bytes of parse + re-render."""
    changes = dict.fromkeys(removed)
    if stamp is not None:
        changes[stamp[0]] = stamp[1]
    fast = EnvelopeCodec()
    data = fast.envelope_to_bytes(envelope)
    renders = fast.stats.header_renders
    out = fast.reframe(data, **changes)
    assert out == rerender(data, **changes)
    assert fast.stats.header_renders == renders
    # A frame with nothing to change comes back as it was, unspliced.
    assert fast.stats.header_splices == (out is not data)
    parsed = fast.parse(out)
    for name, value in changes.items():
        assert getattr(parsed, name) == value


def test_value_that_looks_like_a_later_attribute_is_not_matched():
    """An ``origin`` ending in `` ack=`` puts the bytes `` ack="`` in the
    header (its closing quote); the splice walks the attribute list
    pair by pair, so it patches the real ``ack``, not that text."""
    fast = EnvelopeCodec()
    envelope = ObjectEnvelope(
        [TypeEntry("demo.T", "guid-0", "asm", None)], "binary", b"\x05",
        origin="x ack=", ack="tok", home="y keys=")
    data = fast.envelope_to_bytes(envelope)
    for changes in ({"ack": "new"}, {"ack": None},
                    {"trace": "t", "keys": None, "home": None}):
        out = fast.reframe(data, **changes)
        assert out == rerender(data, **changes)
        assert fast.parse(out).origin == "x ack="
