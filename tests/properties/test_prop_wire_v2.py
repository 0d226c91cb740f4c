"""Property-based tests for binary wire format v2 (interned strings/types).

v2 must round-trip everything v1 did (cycles, shared references included),
stay decodable from v1 payloads produced by older peers, and actually earn
its keep: repeated strings and homogeneous object lists must encode
smaller than under v1.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixtures import person_assembly_pair
from repro.runtime.loader import Runtime
from repro.serialization.binary import BinarySerializer
from repro.serialization.envelope import EnvelopeCodec
from repro.serialization.errors import WireFormatError

finite_floats = st.floats(allow_nan=False, allow_infinity=False)

binary_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**62), max_value=2**62)
    | finite_floats
    | st.text(max_size=40)
    | st.binary(max_size=40),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=20,
)


@pytest.fixture
def runtime():
    rt = Runtime()
    asm_a, _ = person_assembly_pair()
    rt.load_assembly(asm_a)
    return rt


class TestV2RoundTrip:
    @settings(max_examples=150)
    @given(binary_values)
    def test_round_trip(self, value):
        codec = BinarySerializer()
        data = codec.serialize(value)
        assert data.startswith(b"RBS2")
        assert codec.deserialize(data) == value

    @settings(max_examples=100)
    @given(binary_values)
    def test_v1_payloads_still_decode(self, value):
        """Backward compatibility: payloads in the seed wire format are
        decodable by the v2-emitting serializer."""
        legacy = BinarySerializer(version=1)
        data = legacy.serialize(value)
        assert data.startswith(b"RBS1")
        assert BinarySerializer().deserialize(data) == value

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from(["alpha", "beta", "gamma", ""]),
                    min_size=0, max_size=30))
    def test_interning_round_trips_repeats(self, words):
        codec = BinarySerializer()
        assert codec.deserialize(codec.serialize(words)) == words

    @settings(max_examples=60)
    @given(st.lists(st.text(max_size=20), min_size=1, max_size=6))
    def test_object_graphs(self, names):
        rt = Runtime()
        asm_a, _ = person_assembly_pair()
        rt.load_assembly(asm_a)
        codec = BinarySerializer(rt)
        people = [rt.new_instance("demo.a.Person", [n]) for n in names]
        restored = codec.deserialize(codec.serialize(people))
        assert [p.GetName() for p in restored] == names

    def test_shared_refs_and_cycles(self, runtime):
        codec = BinarySerializer(runtime)
        person = runtime.new_instance("demo.a.Person", ["Loop"])
        person.fields["name"] = person  # self-cycle through a field
        restored = codec.deserialize(codec.serialize([person, person]))
        assert restored[0] is restored[1]
        assert restored[0].fields["name"] is restored[0]

    def test_serializer_buffer_reuse_is_stateless(self, runtime):
        """Back-to-back serializations on one instance must not leak
        interning state or buffer contents between payloads."""
        codec = BinarySerializer(runtime)
        a = codec.serialize(["x", "x", "x"])
        b = codec.serialize(["x", "x", "x"])
        assert a == b
        assert codec.deserialize(a) == ["x", "x", "x"]


class TestV2Compactness:
    def test_repeated_strings_smaller_than_v1(self):
        value = [{"ticker": "AAPL", "venue": "XNAS"} for _ in range(20)]
        v1 = len(BinarySerializer(version=1).serialize(value))
        v2 = len(BinarySerializer().serialize(value))
        assert v2 < v1

    def test_homogeneous_object_list_smaller_than_v1(self, runtime):
        """Acceptance criterion: 50 same-type objects — the type GUID,
        type name and field names are transmitted once under v2."""
        people = [runtime.new_instance("demo.a.Person", ["p%d" % i])
                  for i in range(50)]
        v1 = len(BinarySerializer(runtime, version=1).serialize(people))
        v2 = len(BinarySerializer(runtime).serialize(people))
        assert v2 < v1
        # Per-object marginal cost: v1 repeats 16-byte GUID + names; v2
        # pays roughly one type-ref byte + interned field names.
        assert v2 < v1 * 0.6

    def test_unique_strings_no_regression_blowup(self):
        """All-distinct strings pay at most one extra varint bit each."""
        value = ["s%04d" % i for i in range(200)]
        v1 = len(BinarySerializer(version=1).serialize(value))
        v2 = len(BinarySerializer().serialize(value))
        assert v2 <= v1 + len(value)  # ≤1 extra byte per literal


class TestV2Robustness:
    def test_dangling_string_ref(self):
        # STR tag with an interned-string back-reference to index 0 in an
        # empty table: varint 0b1 = 1.
        with pytest.raises(WireFormatError):
            BinarySerializer().deserialize(b"RBS2\x05\x01")

    def test_dangling_type_ref(self, runtime):
        # OBJ tag with a type back-reference to index 0 in an empty table.
        with pytest.raises(WireFormatError):
            BinarySerializer(runtime).deserialize(b"RBS2\x08\x01")

    def test_malformed_type_literal_marker(self, runtime):
        # OBJ tag with an even, non-zero type code is not a valid literal.
        with pytest.raises(WireFormatError):
            BinarySerializer(runtime).deserialize(b"RBS2\x08\x02")

    def test_truncation(self):
        data = BinarySerializer().serialize(["hello", "hello"])
        for cut in range(4, len(data)):
            with pytest.raises(WireFormatError):
                BinarySerializer().deserialize(data[:cut])

    def test_trailing_garbage(self):
        data = BinarySerializer().serialize(42)
        with pytest.raises(WireFormatError):
            BinarySerializer().deserialize(data + b"\x00")

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError):
            BinarySerializer(version=3)


class TestBatchFrames:
    """RBS2B: many values, one intern table (acceptance criterion)."""

    @settings(max_examples=100)
    @given(st.lists(binary_values, max_size=6))
    def test_batch_round_trip(self, values):
        codec = BinarySerializer()
        data = codec.serialize_batch(values)
        assert data.startswith(b"RBS2B")
        assert codec.deserialize_batch(data) == values

    @settings(max_examples=60)
    @given(st.lists(st.text(max_size=20), min_size=1, max_size=6))
    def test_batch_of_objects_round_trips(self, names):
        rt = Runtime()
        asm_a, _ = person_assembly_pair()
        rt.load_assembly(asm_a)
        codec = BinarySerializer(rt)
        people = [rt.new_instance("demo.a.Person", [n]) for n in names]
        restored = codec.deserialize_batch(codec.serialize_batch(people))
        assert [p.GetName() for p in restored] == names

    @settings(max_examples=50)
    @given(binary_values)
    def test_single_v2_frame_decodes_unchanged(self, value):
        """A v2 single-object frame is untouched by the batch feature:
        same bytes, same deserialize result, and deserialize_batch accepts
        it as a one-element batch."""
        codec = BinarySerializer()
        data = codec.serialize(value)
        assert data.startswith(b"RBS2") and not data.startswith(b"RBS2B")
        assert codec.deserialize(data) == value
        assert codec.deserialize_batch(data) == [value]

    def test_empty_batch(self):
        codec = BinarySerializer()
        data = codec.serialize_batch([])
        assert codec.deserialize_batch(data) == []

    def test_duplicate_objects_collapse_to_refs(self, runtime):
        """The same event batched k times (one peer, k matching
        subscriptions) costs a few REF bytes per extra copy — and decodes
        back to the *same* instance."""
        codec = BinarySerializer(runtime)
        event = runtime.new_instance("demo.a.Person", ["dup"])
        one = len(codec.serialize_batch([event]))
        four = len(codec.serialize_batch([event] * 4))
        assert four < one + 12  # ~2 bytes per duplicate, not a re-encode
        restored = codec.deserialize_batch(codec.serialize_batch([event] * 4))
        assert restored[1] is restored[0] and restored[3] is restored[0]

    def test_batch_shares_one_intern_table(self, runtime):
        """N same-type events in one frame beat N separate v2 frames: the
        GUID, type name and field names are paid once per frame."""
        codec = BinarySerializer(runtime)
        events = [runtime.new_instance("demo.a.Person", ["e%d" % i])
                  for i in range(10)]
        separate = sum(len(codec.serialize(e)) for e in events)
        batched = len(codec.serialize_batch(events))
        assert batched < separate * 0.6

    def test_deserialize_refuses_batch_frame(self, runtime):
        codec = BinarySerializer(runtime)
        data = codec.serialize_batch(["x"])
        with pytest.raises(WireFormatError, match="batch"):
            codec.deserialize(data)

    def test_v1_serializer_refuses_batches(self):
        with pytest.raises(ValueError):
            BinarySerializer(version=1).serialize_batch(["x"])

    def test_batch_truncation(self):
        codec = BinarySerializer()
        data = codec.serialize_batch(["hello", "hello", 42])
        for cut in range(5, len(data)):
            with pytest.raises(WireFormatError):
                codec.deserialize_batch(data[:cut])

    def test_batch_trailing_garbage(self):
        codec = BinarySerializer()
        data = codec.serialize_batch([1, 2])
        with pytest.raises(WireFormatError):
            codec.deserialize_batch(data + b"\x00")


class TestSchemaDrift:
    def test_wire_only_fields_recorded(self, runtime):
        """A field present on the wire but absent locally is kept on the
        instance and surfaced via last_schema_drift."""
        codec = BinarySerializer(runtime)
        person = runtime.new_instance("demo.a.Person", ["Drift"])
        person.fields["legacy_flag"] = True  # not declared on the type
        restored = codec.deserialize(codec.serialize(person))
        assert restored.fields["legacy_flag"] is True
        assert ("demo.a.Person", "legacy_flag") in codec.last_schema_drift

    def test_drift_resets_per_payload(self, runtime):
        codec = BinarySerializer(runtime)
        person = runtime.new_instance("demo.a.Person", ["Clean"])
        drifted = runtime.new_instance("demo.a.Person", ["Dirty"])
        drifted.fields["extra"] = 1
        codec.deserialize(codec.serialize(drifted))
        assert codec.last_schema_drift
        codec.deserialize(codec.serialize(person))
        assert codec.last_schema_drift == []

    def test_drift_resets_per_lazy_batch_frame(self, runtime):
        """Every subscriber admits batch frames through the lazy decoder:
        each frame starts a fresh drift list, so four 3-value frames
        record 3 entries each rather than 3, 6, 9 and 12."""
        codec = EnvelopeCodec(runtime)
        for frame in range(4):
            values = []
            for index in range(3):
                person = runtime.new_instance("demo.a.Person",
                                              ["p%d.%d" % (frame, index)])
                person.fields["extra"] = index
                values.append(person)
            batch = codec.lazy_batch(
                codec.parse(codec.encode_batch(values, origin="drift")))
            assert [value.fields["extra"] for value in batch.values()] \
                == [0, 1, 2]
            assert codec._binary.last_schema_drift == \
                [("demo.a.Person", "extra")] * 3
