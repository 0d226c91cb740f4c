"""Tests for the hybrid envelope (Figure 3)."""

import pytest

from repro.cts.assembly import Assembly
from repro.cts.builder import TypeBuilder
from repro.fixtures import employee_csharp, person_assembly_pair
from repro.runtime.loader import Runtime
from repro.serialization import envelope as envelope_module
from repro.serialization.binary import _write_varint
from repro.serialization.envelope import (
    CodecStats,
    EnvelopeCodec,
    ObjectEnvelope,
    parse_frame_header,
)
from repro.serialization.errors import UnknownTypeError, WireFormatError


@pytest.fixture
def runtime():
    rt = Runtime()
    asm_a, _ = person_assembly_pair()
    rt.load_assembly(asm_a)
    return rt


def _zero_batch_frame(codec, runtime):
    """A frame whose header declares ``batch="0" roots=""`` over a payload
    holding one value."""
    envelope = codec.wrap_batch([runtime.new_instance("demo.a.Person",
                                                      ["Z"])])
    envelope.batch_roots = []
    envelope.keys = None
    return codec.envelope_to_bytes(envelope)


class TestWrap:
    def test_type_entries_cover_graph(self, runtime):
        hr = Assembly("hr-a", employee_csharp())
        runtime.load_assembly(hr)
        address = runtime.new_instance("demo.a.Address", ["5 Main St", "Lausanne"])
        employee = runtime.new_instance("demo.a.Employee", ["Eva", address])
        codec = EnvelopeCodec(runtime)
        envelope = codec.wrap(employee)
        assert envelope.type_names() == ["demo.a.Employee", "demo.a.Address"]

    def test_root_entry_first(self, runtime):
        codec = EnvelopeCodec(runtime)
        person = runtime.new_instance("demo.a.Person", ["Root"])
        assert codec.wrap(person).root_entry().name == "demo.a.Person"

    def test_entries_carry_download_paths(self, runtime):
        codec = EnvelopeCodec(runtime)
        person = runtime.new_instance("demo.a.Person", ["P"])
        entry = codec.wrap(person).root_entry()
        assert entry.download_path == "repo://person-a/1.0.0"
        assert entry.assembly == "person-a"

    def test_empty_envelope_root_raises(self):
        envelope = ObjectEnvelope([], "binary", b"")
        with pytest.raises(WireFormatError):
            envelope.root_entry()


class TestRoundTrip:
    @pytest.mark.parametrize("encoding", ["binary", "soap"])
    def test_object_round_trip(self, runtime, encoding):
        codec = EnvelopeCodec(runtime, encoding=encoding)
        person = runtime.new_instance("demo.a.Person", ["Ann"])
        restored = codec.decode(codec.encode(person))
        assert restored.invoke("GetName") == "Ann"

    @pytest.mark.parametrize("encoding", ["binary", "soap"])
    def test_plain_values_allowed(self, runtime, encoding):
        codec = EnvelopeCodec(runtime, encoding=encoding)
        assert codec.decode(codec.encode([1, "two", None])) == [1, "two", None]

    def test_parse_preserves_payload_encoding(self, runtime):
        soap_codec = EnvelopeCodec(runtime, encoding="soap")
        person = runtime.new_instance("demo.a.Person", ["Enc"])
        data = soap_codec.encode(person)
        # A binary-default codec can still decode: encoding travels in-band.
        binary_codec = EnvelopeCodec(runtime, encoding="binary")
        assert binary_codec.decode(data).invoke("GetName") == "Enc"

    def test_unwrap_unknown_type_raises(self, runtime):
        codec = EnvelopeCodec(runtime)
        person = runtime.new_instance("demo.a.Person", ["X"])
        data = codec.encode(person)
        receiver = EnvelopeCodec(Runtime())
        envelope = receiver.parse(data)  # parsing works without the type...
        assert envelope.root_entry().name == "demo.a.Person"
        with pytest.raises(UnknownTypeError):  # ...materialising does not
            receiver.unwrap(envelope)


class TestErrors:
    def test_invalid_encoding_config(self):
        with pytest.raises(ValueError):
            EnvelopeCodec(encoding="json")

    def test_parse_garbage(self, runtime):
        with pytest.raises(WireFormatError):
            EnvelopeCodec(runtime).parse(b"not xml")

    def test_parse_wrong_root(self, runtime):
        with pytest.raises(WireFormatError):
            EnvelopeCodec(runtime).parse(b"<Wrong/>")

    def test_parse_missing_payload(self, runtime):
        with pytest.raises(WireFormatError):
            EnvelopeCodec(runtime).parse(b"<XmlMessage><TypeInformation/></XmlMessage>")

    def test_parse_bad_encoding_attr(self, runtime):
        data = b'<XmlMessage><Payload encoding="weird">aGk=</Payload></XmlMessage>'
        with pytest.raises(WireFormatError):
            EnvelopeCodec(runtime).parse(data)

    def test_parse_bad_base64(self, runtime):
        data = b'<XmlMessage><Payload encoding="binary">@@@</Payload></XmlMessage>'
        with pytest.raises(WireFormatError):
            EnvelopeCodec(runtime).parse(data)


class TestBatchEnvelopes:
    def test_batch_round_trip(self, runtime):
        codec = EnvelopeCodec(runtime)
        events = [runtime.new_instance("demo.a.Person", ["b%d" % i])
                  for i in range(5)]
        envelope = codec.parse(codec.encode_batch(events))
        assert envelope.is_batch and envelope.batch_count == 5
        restored = codec.unwrap_batch(envelope)
        assert [p.GetName() for p in restored] == ["b%d" % i for i in range(5)]

    def test_union_type_section_and_roots(self, runtime):
        hr = Assembly("hr-a", employee_csharp())
        runtime.load_assembly(hr)
        codec = EnvelopeCodec(runtime)
        person = runtime.new_instance("demo.a.Person", ["P"])
        address = runtime.new_instance("demo.a.Address", ["5 Main St", "X"])
        employee = runtime.new_instance("demo.a.Employee", ["E", address])
        envelope = codec.wrap_batch([person, employee, person])
        # Union, first-seen order, deduplicated.
        assert envelope.type_names() == [
            "demo.a.Person", "demo.a.Employee", "demo.a.Address",
        ]
        assert envelope.batch_roots == [0, 1, 0]
        assert envelope.batch_root_entry(1).name == "demo.a.Employee"

    def test_origin_travels(self, runtime):
        codec = EnvelopeCodec(runtime)
        event = runtime.new_instance("demo.a.Person", ["O"])
        envelope = codec.parse(codec.encode_batch([event], origin="publisher-7"))
        assert envelope.origin == "publisher-7"

    def test_ack_token_travels(self, runtime):
        codec = EnvelopeCodec(runtime)
        event = runtime.new_instance("demo.a.Person", ["A"])
        envelope = codec.parse(
            codec.encode_batch([event], origin="pub", ack="shard-1/ack-9"))
        assert envelope.ack == "shard-1/ack-9"
        assert envelope.origin == "pub"
        # Absent by default — live non-durable batches carry no token.
        plain = codec.parse(codec.encode_batch([event]))
        assert plain.ack is None

    def test_single_envelope_unchanged(self, runtime):
        """Non-batch messages carry no batch attributes and keep parsing
        exactly as before."""
        codec = EnvelopeCodec(runtime)
        data = codec.encode(runtime.new_instance("demo.a.Person", ["S"]))
        assert b"batch=" not in data
        envelope = codec.parse(data)
        assert not envelope.is_batch
        assert envelope.origin is None
        assert codec.unwrap(envelope).GetName() == "S"
        # unwrap_batch treats it as a one-element batch.
        assert [v.GetName() for v in codec.unwrap_batch(envelope)] == ["S"]

    def test_unwrap_refuses_batch(self, runtime):
        codec = EnvelopeCodec(runtime)
        envelope = codec.parse(
            codec.encode_batch([runtime.new_instance("demo.a.Person", ["X"])])
        )
        with pytest.raises(WireFormatError, match="batch"):
            codec.unwrap(envelope)

    def test_empty_batch_rejected(self, runtime):
        with pytest.raises(ValueError):
            EnvelopeCodec(runtime).wrap_batch([])

    def test_malformed_batch_attrs_rejected(self, runtime):
        codec = EnvelopeCodec(runtime)
        data = codec.encode_batch([runtime.new_instance("demo.a.Person", ["M"])])
        broken = data.replace(b'batch="1"', b'batch="2"')
        with pytest.raises(WireFormatError, match="does not match"):
            codec.parse(broken)
        # Same-length corruption: the frame header is length-prefixed, so
        # a size-changing splice would truncate the XML instead.
        garbage = data.replace(b'batch="1"', b'batch="z"')
        with pytest.raises(WireFormatError, match="malformed"):
            codec.parse(garbage)
        # A zero-value batch would let the lazy path admit (and ack) a
        # payload it never checked.
        with pytest.raises(WireFormatError, match="not positive"):
            codec.parse(_zero_batch_frame(codec, runtime))

    def test_root_index_out_of_range_rejected(self, runtime):
        codec = EnvelopeCodec(runtime)
        data = codec.encode_batch([runtime.new_instance("demo.a.Person", ["R"])])
        broken = data.replace(b'roots="0"', b'roots="3"')
        with pytest.raises(WireFormatError, match="out of range"):
            codec.parse(broken)


class TestLenientHeaderReaders:
    """Uniform malformed-header handling: the mid-pipeline header readers
    (``envelope_record_keys``, ``envelope_home``) return ``None`` and
    count ``header_parse_errors`` for ANY malformed input — they never
    raise (a corrupt stored record must not take down compaction or
    record classification)."""

    def _readers(self):
        from repro.serialization.envelope import (
            envelope_home,
            envelope_record_keys,
            parse_frame_header,
        )
        return envelope_record_keys, envelope_home, parse_frame_header

    def _assert_swallowed(self, data, expected_errors=3):
        from repro.serialization.envelope import CodecStats
        stats = CodecStats()
        for reader in self._readers():
            assert reader(data, stats=stats) is None
        assert stats.header_parse_errors == expected_errors
        assert stats.header_parses == 0

    def test_truncated_frame(self, runtime):
        codec = EnvelopeCodec(runtime)
        data = codec.encode_batch([runtime.new_instance("demo.a.Person",
                                                        ["T"])])
        # Cut mid-header: the length prefix promises more than is there.
        self._assert_swallowed(data[:12])
        # Cut mid-length-prefix.
        self._assert_swallowed(b"XME2")

    def test_corrupt_v1_xml(self):
        self._assert_swallowed(b"<XmlMessage><TypeInformation>")
        self._assert_swallowed(b"<Wrong/>")

    def test_corrupt_attributes(self, runtime):
        codec = EnvelopeCodec(runtime)
        data = codec.encode_batch(
            [runtime.new_instance("demo.a.Person", ["C"])])
        self._assert_swallowed(data.replace(b'batch="1"', b'batch="z"'))
        self._assert_swallowed(data.replace(b'roots="0"', b'roots="9"'))

    def test_garbage(self):
        self._assert_swallowed(b"")
        self._assert_swallowed(b"\x00\x01\x02\x03garbage")

    def test_zero_value_batch(self, runtime):
        self._assert_swallowed(
            _zero_batch_frame(EnvelopeCodec(runtime), runtime))

    def test_wellformed_v1_still_reads(self, runtime):
        """The lenient readers accept the legacy all-XML frame too."""
        from repro.serialization.envelope import (
            CodecStats,
            envelope_home,
            envelope_record_keys,
        )
        codec = EnvelopeCodec(runtime)
        envelope = codec.wrap_batch(
            [runtime.new_instance("demo.a.Person", ["L"])])
        legacy = codec.envelope_to_legacy_bytes(envelope)
        stats = CodecStats()
        assert envelope_record_keys(legacy, stats=stats) is not None
        assert envelope_home(legacy, stats=stats) is None  # no home attr
        assert stats.header_parse_errors == 0
        assert stats.header_parses == 2


class TestTypeSectionMemo:
    """Canonical headers read their type section from a bounded,
    process-wide memo keyed by the section's exact bytes."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        envelope_module._TYPE_SECTIONS.clear()
        yield
        envelope_module._TYPE_SECTIONS.clear()

    @staticmethod
    def _frame(type_section: bytes, payload_attrs: bytes) -> bytes:
        header = (b"<XmlMessage><TypeInformation>" + type_section
                  + b"</TypeInformation><Payload " + payload_attrs
                  + b" /></XmlMessage>")
        buf = bytearray(b"XME2")
        _write_varint(buf, len(header))
        return bytes(buf + header) + b"\x01\x02"

    def test_codec_frames_take_the_memo(self, runtime):
        codec = EnvelopeCodec(runtime)
        data = codec.encode_batch(
            [runtime.new_instance("demo.a.Person", ["M"])], origin="pub")
        first = codec.parse(data)
        assert len(envelope_module._TYPE_SECTIONS) == 1
        second = codec.parse(data)
        # A memo hit still counts as one header parse.
        assert codec.stats.header_parses == 2
        assert second.type_names() == first.type_names() == ["demo.a.Person"]
        assert second.origin == "pub" and second.batch_roots == [0]

    def test_memo_never_grows_past_its_cap(self):
        cap = envelope_module._MEMO_CAP
        codec = EnvelopeCodec()
        for index in range(cap * 2 + 3):
            envelope = codec.parse(self._frame(
                b'<Type name="demo.T%d" guid="g%d" />' % (index, index),
                b'encoding="binary"'))
            assert envelope.type_names() == ["demo.T%d" % index]
            assert 0 < len(envelope_module._TYPE_SECTIONS) <= cap

    @pytest.mark.parametrize("section", [
        b'<Type name="demo.T" />',           # no guid
        b'<Type guid="g" />',                # no name
        b'<Type name="demo.T" guid="g">',    # not well-formed
    ])
    def test_malformed_section_never_inserted(self, section):
        data = self._frame(section, b'encoding="binary"')
        with pytest.raises(WireFormatError):
            EnvelopeCodec().parse(data)
        assert parse_frame_header(data) is None
        assert envelope_module._TYPE_SECTIONS == {}

    def test_memo_hit_then_malformed_payload(self):
        section = b'<Type name="demo.T" guid="g" />'
        codec = EnvelopeCodec()
        codec.parse(self._frame(section, b'encoding="binary" batch="1" '
                                         b'roots="0"'))
        for attrs, message in [
                (b'encoding="binary" batch="z" roots="0"', "malformed"),
                (b'encoding="binary" batch="1" roots="3"', "out of range"),
                (b'encoding="binary" batch="2" roots="0"', "does not match"),
                (b'encoding="weird"', "unknown payload encoding"),
                (b'encoding="binary" keys="x"', "malformed keys"),
                (b'encoding="binary" encoding="soap"', "invalid envelope"),
        ]:
            data = self._frame(section, attrs)
            with pytest.raises(WireFormatError, match=message):
                codec.parse(data)
            stats = CodecStats()
            assert parse_frame_header(data, stats=stats) is None
            assert (stats.header_parse_errors, stats.header_parses) == (1, 0)
        assert codec.stats.header_parses == 1
        assert len(envelope_module._TYPE_SECTIONS) == 1

    def test_envelopes_own_their_entry_lists(self, runtime):
        codec = EnvelopeCodec(runtime)
        data = codec.encode(runtime.new_instance("demo.a.Person", ["O"]))
        first = codec.parse(data)
        first.type_entries.clear()
        first_header = parse_frame_header(data)
        first_header.type_entries.append(first_header.type_entries[0])
        assert codec.parse(data).type_names() == ["demo.a.Person"]
        assert len(parse_frame_header(data).type_entries) == 1


class TestResolveMemo:
    """A codec resolves header type entries through a memo that lives for
    one registry version and never outgrows its cap."""

    @staticmethod
    def _type(name="memo.Swap"):
        return TypeBuilder(name).field("name", "string").build()

    def test_type_replaced_in_place_resolves_to_the_replacement(self):
        original = self._type()
        runtime = Runtime()
        runtime.load_type(original)
        codec = EnvelopeCodec(runtime)
        data = codec.encode_batch([runtime.instantiate(original),
                                   runtime.instantiate(original)])
        assert codec.lazy_batch(codec.parse(data)).root_type(0) is original
        replacement = self._type()
        assert replacement.guid == original.guid
        assert replacement is not original
        runtime.load_type(replacement, replace=True)
        batch = codec.lazy_batch(codec.parse(data))
        # Header-only routing and the decoded value agree on the type.
        assert batch.root_type(0) is replacement
        assert batch.value(0).type_info is replacement
        assert batch.types_known()

    def test_memo_never_grows_past_its_cap(self):
        runtime = Runtime()
        codec = EnvelopeCodec(runtime)
        cap = envelope_module._MEMO_CAP
        types = [self._type("memo.T%d" % index) for index in range(cap + 3)]
        for info in types:
            runtime.load_type(info)
        frames = [codec.encode(runtime.instantiate(info)) for info in types]
        for info, data in zip(types, frames):
            assert codec.lazy_batch(codec.parse(data)).root_type(0) is info
            assert 0 < len(codec._resolve_memo) <= cap


class TestHomeAttribute:
    """Per-value home-record provenance (mesh replication/fetch dedup)."""

    def test_home_round_trips(self, runtime):
        from repro.serialization.envelope import (
            decode_home,
            encode_home,
            envelope_home,
        )
        codec = EnvelopeCodec(runtime)
        events = [runtime.new_instance("demo.a.Person", ["h%d" % i])
                  for i in range(3)]
        envelope = codec.wrap_batch(events, origin="pub")
        envelope.home = encode_home("shard0", [4, None, 6])
        data = codec.envelope_to_bytes(envelope)
        assert codec.parse(data).home == "shard0|4,-,6"
        assert envelope_home(data) == ("shard0", [4, None, 6])
        assert decode_home("s|1,2") == ("s", [1, 2])
        assert decode_home("garbage") is None
        assert decode_home("s|1,x") is None

    def test_decode_home_repeated_and_missing_offsets(self):
        from repro.serialization.envelope import decode_home, encode_home
        text = encode_home("s", [7] * 50)
        assert text == "s|" + ",".join(["7"] * 50)
        assert decode_home(text) == ("s", [7] * 50)
        offsets = [3, None, 3, None, 9, 3]
        assert encode_home("s", offsets) == "s|3,-,3,-,9,3"
        assert decode_home("s|3,-,3,-,9,3") == ("s", offsets)
        assert decode_home("s|-") == ("s", [None])
        assert decode_home("s|-4,-") == ("s", [-4, None])

    def test_decode_home_malformed_tokens_read_none(self):
        from repro.serialization.envelope import decode_home
        for text in ("s|7,7,x,7", "s|7,,7", "s|-,--", "s|7,-,1.5",
                     "s|", "|7", "s7"):
            assert decode_home(text) is None, text

    def test_absent_home_reads_none(self, runtime):
        codec = EnvelopeCodec(runtime)
        data = codec.encode_batch(
            [runtime.new_instance("demo.a.Person", ["n"])])
        from repro.serialization.envelope import envelope_home
        assert envelope_home(data) is None
        assert envelope_home(b"not xml") is None
        assert codec.parse(data).home is None
