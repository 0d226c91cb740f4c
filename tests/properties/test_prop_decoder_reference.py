"""The position-passing binary decoder against the reader decoder it
replaced.

The reader-object decoder below (``_Reader`` plus one method call per
byte, varint, string and value) is a test-local copy of the decoder the
package shipped before; it is the reference.  It decodes through a real
:class:`~repro.serialization.binary.BinarySerializer` (its runtime, its
type-literal memo and its ``last_schema_drift`` list), so both decoders
resolve types identically and only the byte-level reading differs.

On generated v1, v2 and ``RBS2B`` payloads, each valid one, every
truncation of it and random byte mutations of it, ``deserialize``,
``deserialize_batch`` and the lazy per-value path must give equal values
(same object graph, same sharing) and the same schema drift, or raise the
same exception type with the same message.  ``BatchDecoder.decode_to`` at
random stops must hold the same decoded prefix as the reference's
value-by-value reader, also across an :class:`UnknownTypeError` rollback.
"""

import struct
from typing import Any, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixtures import person_assembly_pair
from repro.runtime.loader import Runtime
from repro.runtime.objects import CtsInstance
from repro.serialization.binary import (
    BatchDecoder,
    BinarySerializer,
    is_single_frame,
    _MAGIC_BATCH,
    _MAGIC_V1,
    _MAGIC_V2,
    _T_BYTES,
    _T_DICT,
    _T_FALSE,
    _T_FLOAT,
    _T_INT,
    _T_LIST,
    _T_NULL,
    _T_OBJ,
    _T_REF,
    _T_STR,
    _T_TRUE,
    _unzigzag,
)
from repro.serialization.errors import UnknownTypeError, WireFormatError


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise WireFormatError("truncated binary payload")
        chunk = self.data[self.pos:self.pos + count]
        self.pos += count
        return chunk

    def read_byte(self) -> int:
        pos = self.pos
        try:
            byte = self.data[pos]
        except IndexError:
            raise WireFormatError("truncated binary payload")
        self.pos = pos + 1
        return byte

    def read_varint(self) -> int:
        byte = self.read_byte()
        if not byte & 0x80:
            return byte
        value = byte & 0x7F
        shift = 7
        while True:
            byte = self.read_byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 2048:
                raise WireFormatError("varint too long")

    def read_str(self) -> str:
        length = self.read_varint()
        try:
            return self.read(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError("invalid UTF-8 in string: %s" % exc)


class _Tables:
    __slots__ = ("strings", "types")

    def __init__(self):
        self.strings: List[str] = []
        self.types: list = []


class ReferenceDecoder:
    """``deserialize``/``deserialize_batch`` of the reader decoder, over
    ``serializer``'s type resolution and drift list."""

    def __init__(self, serializer):
        self.serializer = serializer

    def deserialize(self, data: bytes) -> Any:
        if data.startswith(_MAGIC_BATCH):
            raise WireFormatError(
                "payload is a batch frame (RBS2B): use deserialize_batch")
        if data.startswith(_MAGIC_V2):
            tables: Optional[_Tables] = _Tables()
        elif data.startswith(_MAGIC_V1):
            tables = None
        else:
            raise WireFormatError("bad magic: not a binary payload")
        self.serializer.last_schema_drift = []
        reader = _Reader(data)
        reader.pos = len(_MAGIC_V1)
        value = self.decode(reader, [], tables)
        if reader.pos != len(data):
            raise WireFormatError("trailing bytes after payload")
        return value

    def deserialize_batch(self, data: bytes) -> List[Any]:
        if not data.startswith(_MAGIC_BATCH):
            return [self.deserialize(data)]
        self.serializer.last_schema_drift = []
        reader = _Reader(data)
        reader.pos = len(_MAGIC_BATCH)
        count = reader.read_varint()
        tables = _Tables()
        objects: List[CtsInstance] = []
        values = [self.decode(reader, objects, tables) for _ in range(count)]
        if reader.pos != len(data):
            raise WireFormatError("trailing bytes after batch payload")
        return values

    def decode(self, reader: _Reader, objects: List[CtsInstance],
               tables: Optional[_Tables]) -> Any:
        tag = reader.read_byte()
        if tag == _T_OBJ:
            return self._decode_object(reader, objects, tables)
        if tag == _T_STR:
            return self._read_str(reader, tables)
        if tag == _T_NULL:
            return None
        if tag == _T_TRUE:
            return True
        if tag == _T_FALSE:
            return False
        if tag == _T_INT:
            return _unzigzag(reader.read_varint())
        if tag == _T_FLOAT:
            return struct.unpack(">d", reader.read(8))[0]
        if tag == _T_BYTES:
            return reader.read(reader.read_varint())
        if tag == _T_LIST:
            count = reader.read_varint()
            return [self.decode(reader, objects, tables) for _ in range(count)]
        if tag == _T_DICT:
            count = reader.read_varint()
            out = {}
            for _ in range(count):
                key = self._read_str(reader, tables)
                out[key] = self.decode(reader, objects, tables)
            return out
        if tag == _T_REF:
            index = reader.read_varint()
            if index >= len(objects):
                raise WireFormatError("dangling back-reference %d" % index)
            return objects[index]
        raise WireFormatError("unknown tag 0x%02x" % tag)

    @staticmethod
    def _read_str(reader: _Reader, tables: Optional[_Tables]) -> str:
        if tables is None:
            return reader.read_str()
        code = reader.read_varint()
        if code & 1:
            index = code >> 1
            if index >= len(tables.strings):
                raise WireFormatError("dangling string reference %d" % index)
            return tables.strings[index]
        text = reader.read(code >> 1)
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError("invalid UTF-8 in string: %s" % exc)
        tables.strings.append(text)
        return text

    def _decode_object(self, reader: _Reader, objects: List[CtsInstance],
                       tables: Optional[_Tables]) -> CtsInstance:
        serializer = self.serializer
        if serializer.runtime is None:
            raise WireFormatError(
                "payload contains objects but no runtime was provided")
        if tables is None:
            info, template = serializer._type_plan(reader.read(16),
                                                   reader.read_str())
        else:
            code = reader.read_varint()
            if code & 1:
                index = code >> 1
                if index >= len(tables.types):
                    raise WireFormatError("dangling type reference %d" % index)
                info, template = tables.types[index]
            elif code == 0:
                raw = reader.read(16)
                plan = serializer._type_plan(raw, self._read_str(reader, tables))
                tables.types.append(plan)
                info, template = plan
            else:
                raise WireFormatError("malformed type literal marker %d" % code)
        instance = CtsInstance(info, serializer.runtime, template.copy())
        objects.append(instance)
        fields = instance.fields
        for _ in range(reader.read_varint()):
            name = self._read_str(reader, tables)
            value = self.decode(reader, objects, tables)
            if name not in fields:
                serializer.last_schema_drift.append((info.full_name, name))
            fields[name] = value
        return instance


class ReferenceBatchDecoder:
    """The reader decoder's incremental batch reader: an ``RBS2B`` frame
    value by value with rollback on :class:`UnknownTypeError`, and a
    single-value frame decoded afresh on each attempt."""

    def __init__(self, decoder: ReferenceDecoder, data: bytes):
        self._decoder = decoder
        self._values: List[Any] = []
        self._reader = _Reader(data)
        self._objects: List[CtsInstance] = []
        if data.startswith(_MAGIC_BATCH):
            self._single = False
            self._reader.pos = len(_MAGIC_BATCH)
            self.count = self._reader.read_varint()
            self._tables: Optional[_Tables] = _Tables()
        elif data.startswith(_MAGIC_V2):
            self._single = True
            self.count = 1
            self._tables = _Tables()
        elif data.startswith(_MAGIC_V1):
            self._single = True
            self.count = 1
            self._tables = None
        else:
            raise WireFormatError("bad magic: not a binary payload")

    def value(self, index: int) -> Any:
        if not 0 <= index < self.count:
            raise IndexError("batch value %d out of range (%d values)"
                             % (index, self.count))
        while len(self._values) <= index:
            self._decode_next()
        return self._values[index]

    def values(self) -> List[Any]:
        return [self.value(index) for index in range(self.count)]

    def _decode_next(self) -> None:
        reader = self._reader
        if self._single:
            reader.pos = len(_MAGIC_V1)
            tables = self._tables
            if tables is not None:
                tables = self._tables = _Tables()
            self._decoder.serializer.last_schema_drift = []
            value = self._decoder.decode(reader, [], tables)
            if reader.pos != len(reader.data):
                raise WireFormatError("trailing bytes after payload")
            self._values.append(value)
            return
        tables = self._tables
        pos = reader.pos
        n_strings = len(tables.strings)
        n_types = len(tables.types)
        n_objects = len(self._objects)
        try:
            value = self._decoder.decode(reader, self._objects, tables)
        except UnknownTypeError:
            reader.pos = pos
            del tables.strings[n_strings:]
            del tables.types[n_types:]
            del self._objects[n_objects:]
            raise
        if (len(self._values) + 1 == self.count
                and reader.pos != len(reader.data)):
            raise WireFormatError("trailing bytes after batch payload")
        self._values.append(value)


# -- the comparison --------------------------------------------------------

ASM_A, ASM_B = person_assembly_pair()

#: Encodes demo.a.Person and demo.b.Person; the decoding runtimes know
#: only demo.a.Person, so a demo.b.Person on the wire is an unknown type.
ENCODER = Runtime()
ENCODER.load_assembly(ASM_A)
ENCODER.load_assembly(ASM_B)


def _decoding_runtime() -> Runtime:
    runtime = Runtime()
    runtime.load_assembly(ASM_A)
    return runtime


def canon(value: Any, seen: dict) -> Any:
    """A comparable form of a decoded graph: objects by type, fields and
    first-visit order, so shared references and cycles compare too."""
    if isinstance(value, CtsInstance):
        if id(value) in seen:
            return ("ref", seen[id(value)])
        seen[id(value)] = len(seen)
        return ("obj", value.type_info.full_name, str(value.type_info.guid),
                tuple((name, canon(item, seen))
                      for name, item in value.fields.items()))
    if isinstance(value, list):
        return ("list", tuple(canon(item, seen) for item in value))
    if isinstance(value, dict):
        return ("dict", tuple((key, canon(item, seen))
                              for key, item in value.items()))
    if isinstance(value, float):
        return ("float", struct.pack(">d", value))
    return (type(value).__name__, value)


def outcome(decode, serializer, data: bytes):
    """What ``decode(data)`` gives: its values and the schema drift it
    recorded, or the exception it raised."""
    try:
        values = decode(data)
    except Exception as exc:  # the exception type and message are compared
        return ("raised", type(exc), str(exc))
    return ("ok", canon(values, {}), list(serializer.last_schema_drift))


class Pair:
    """The decoder under test and the reference, each on its own
    serializer over one decoding runtime."""

    def __init__(self, runtime: Runtime):
        self.new = BinarySerializer(runtime)
        self.ref_serializer = BinarySerializer(runtime)
        self.ref = ReferenceDecoder(self.ref_serializer)

    def new_lazy(self, data: bytes) -> List[Any]:
        """What ``LazyBatch.value`` runs: one ``deserialize`` for a
        single-value frame, a :class:`BatchDecoder` otherwise."""
        if is_single_frame(data):
            return [self.new.deserialize(data)]
        return BatchDecoder(self.new, data).values()

    def ref_lazy(self, data: bytes) -> List[Any]:
        # The reference batch decoder never reset the drift list; compare
        # only what this frame recorded.
        self.ref_serializer.last_schema_drift = []
        return ReferenceBatchDecoder(self.ref, data).values()

    def assert_same(self, data: bytes) -> None:
        for new, ref in ((self.new.deserialize, self.ref.deserialize),
                         (self.new.deserialize_batch, self.ref.deserialize_batch),
                         (self.new_lazy, self.ref_lazy)):
            assert (outcome(new, self.new, data)
                    == outcome(ref, self.ref_serializer, data)), data


primitives = (st.none() | st.booleans()
              | st.integers(min_value=-(2**70), max_value=2**70)
              | st.floats(allow_nan=False) | st.text(max_size=12)
              | st.binary(max_size=12))


class _Person:
    """A leaf standing for person ``index`` of the pool until the graph
    is built (hypothesis reprs what it draws, and graphs may be cyclic)."""

    def __init__(self, index: int):
        self.index = index

    def __repr__(self) -> str:
        return "_Person(%d)" % self.index


class Graphs:
    """Values over one pool of Person objects."""

    def __init__(self, values: List[Any], summary: str):
        self.values = values
        self.summary = summary

    def __repr__(self) -> str:
        return "Graphs(%s)" % self.summary


def _build(tree: Any, people: List[CtsInstance]) -> Any:
    if isinstance(tree, _Person):
        return people[tree.index % len(people)]
    if isinstance(tree, list):
        return [_build(item, people) for item in tree]
    if isinstance(tree, dict):
        return {key: _build(item, people) for key, item in tree.items()}
    return tree


@st.composite
def graphs(draw, max_values=4):
    """A few values over one pool of Person objects: shared references,
    cycles through a wire-only ``friend`` field (schema drift), and a
    demo.b.Person the decoding side does not know."""
    names = draw(st.lists(st.text(max_size=6), min_size=1, max_size=3))
    kinds = ["a"] * len(names)
    if draw(st.integers(0, 3)) == 0:
        names.append("b")
        kinds.append("b")
    people = [ENCODER.new_instance("demo.%s.Person" % kind, [name])
              for kind, name in zip(kinds, names)]
    friends = [draw(st.none() | st.integers(0, len(people) - 1))
               for _ in people]
    for person, friend in zip(people, friends):
        if friend is not None:
            person.fields["friend"] = people[friend]
    person = st.integers(0, len(people) - 1).map(_Person)
    leaves = st.one_of(*[person] * 6, primitives)
    tree = st.recursive(
        leaves,
        lambda children: (st.lists(children, max_size=3)
                          | st.dictionaries(st.text(max_size=4), children,
                                            max_size=3)),
        max_leaves=8)
    trees = draw(st.lists(tree, min_size=1, max_size=max_values))
    return Graphs([_build(item, people) for item in trees],
                  "kinds=%r friends=%r trees=%r" % (kinds, friends, trees))


def payloads(graph: Graphs) -> List[bytes]:
    values = graph.values
    return [BinarySerializer(ENCODER).serialize(values[0]),
            BinarySerializer(ENCODER, version=1).serialize(values[0]),
            BinarySerializer(ENCODER).serialize_batch(values)]


class TestAgainstTheReaderDecoder:
    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_valid_payloads(self, values):
        pair = Pair(_decoding_runtime())
        for data in payloads(values):
            pair.assert_same(data)

    @settings(max_examples=25, deadline=None)
    @given(graphs(max_values=2))
    def test_every_truncation(self, values):
        pair = Pair(_decoding_runtime())
        for data in payloads(values):
            for cut in range(len(data)):
                pair.assert_same(data[:cut])

    @settings(max_examples=200, deadline=None)
    @given(graphs(), st.integers(0, 2),
           st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)),
                    min_size=1, max_size=3),
           st.binary(max_size=2))
    def test_byte_mutations(self, values, which, edits, tail):
        pair = Pair(_decoding_runtime())
        data = bytearray(payloads(values)[which])
        for position, byte in edits:
            data[position % len(data)] = byte
        pair.assert_same(bytes(data) + tail)

    def test_edge_payloads(self):
        pair = Pair(_decoding_runtime())
        for data in (b"", b"RBS", b"RBS2", b"RBS1", b"RBS2B", b"RBS2B\x00",
                     b"RBS2B\x00\x00", b"RBS2B\x02\x00", b"RBS2\x0b",
                     b"RBS2\x04\x00", b"RBS2\x08\x02", b"RBS2\x08\x03",
                     b"RBS2\x09\x00", b"RBS2\x03" + b"\xff" * 300 + b"\x01",
                     b"RBS2\x05\x04\xff\xfe", b"RBS1\x05\x02\xff\xfe",
                     b"RBS2\x0a\x03ab", b"RBS2\x04\x00\x00\x00"):
            pair.assert_same(data)
        # No runtime: any object on the wire is refused the same way.
        data = BinarySerializer(ENCODER).serialize(
            ENCODER.new_instance("demo.a.Person", ["x"]))
        bare = BinarySerializer()
        assert (outcome(bare.deserialize, bare, data)
                == outcome(ReferenceDecoder(BinarySerializer()).deserialize,
                           bare, data))


class TestUnknownTypeMidBatch:
    """The optimistic protocol's cue: a value whose type is unknown raises
    :class:`UnknownTypeError` and rolls the batch decoder back; once the
    type is registered the same decoder resumes and decodes cleanly."""

    @staticmethod
    def _pool():
        """Two known people, two unknown ones (the second reaches the
        unknown type by a type back-reference), and a known one whose
        field holds an unknown one (its instance exists before the
        error)."""
        a1 = ENCODER.new_instance("demo.a.Person", ["a1"])
        a2 = ENCODER.new_instance("demo.a.Person", ["a2"])
        b = ENCODER.new_instance("demo.b.Person", ["b"])
        holder = ENCODER.new_instance("demo.a.Person", ["holder"])
        holder.fields["friend"] = b
        b2 = ENCODER.new_instance("demo.b.Person", ["b2"])
        return [a1, a2, b, holder, b2, "plain"]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=7)
           .filter(lambda picks: {2, 3, 4} & set(picks)))
    def test_retry_after_the_type_arrives(self, picks):
        pool = self._pool()
        values = [pool[pick] for pick in picks]
        data = BinarySerializer(ENCODER).serialize_batch(values)
        first_unknown = min(picks.index(pick) for pick in (2, 3, 4)
                            if pick in picks)
        runtime = _decoding_runtime()
        pair = Pair(runtime)
        new = BatchDecoder(pair.new, data)
        ref = ReferenceBatchDecoder(pair.ref, data)
        for decoder in (new, ref):
            for index in range(first_unknown):
                decoder.value(index)
            with pytest.raises(UnknownTypeError, match="demo.b.Person"):
                decoder.value(first_unknown)
        runtime.load_assembly(ASM_B)
        retried = canon(new.values(), {})
        assert retried == canon(ref.values(), {})
        assert retried == canon(BinarySerializer(runtime)
                                .deserialize_batch(data), {})
        assert new.decoded_count == len(values)


# -- decode_to: one loop to a stop -----------------------------------------

def _decode_to_step(new, ref, stop):
    """Both decoders to ``stop`` (clamped to the frame): each one's
    outcome, its decoded prefix and its decoded count."""
    stop = min(stop, new.count)
    try:
        new.decode_to(stop)
        new_outcome = ("ok",)
    except Exception as exc:
        new_outcome = ("raised", type(exc), str(exc))
    try:
        if stop:
            ref.value(stop - 1)
        ref_outcome = ("ok",)
    except Exception as exc:
        ref_outcome = ("raised", type(exc), str(exc))
    assert new_outcome == ref_outcome
    assert new.decoded_count == len(ref._values)
    assert canon(new.decode_to(0), {}) == canon(ref._values, {})
    return new_outcome


class TestDecodeTo:
    """``decode_to(stop)`` decodes the prefix in one loop; at every stop
    it matches the reference reader value for value."""

    @settings(max_examples=80, deadline=None)
    @given(graphs(), st.lists(st.integers(0, 5), min_size=1, max_size=5),
           st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)),
                    max_size=2))
    def test_random_stops(self, values, stops, edits):
        data = bytearray(BinarySerializer(ENCODER).serialize_batch(
            values.values))
        body = len(data) - len(_MAGIC_BATCH)
        for position, byte in edits:
            data[len(_MAGIC_BATCH) + position % body] = byte
        pair = Pair(_decoding_runtime())
        try:
            new = BatchDecoder(pair.new, bytes(data))
        except WireFormatError:
            with pytest.raises(WireFormatError):
                ReferenceBatchDecoder(pair.ref, bytes(data))
            return
        ref = ReferenceBatchDecoder(pair.ref, bytes(data))
        assert new.count == ref.count
        for stop in stops:
            outcome = _decode_to_step(new, ref, stop)
            # Only an UnknownTypeError rolls the reference back: after
            # any other error the two readers stand at different places.
            if outcome[0] == "raised" and outcome[1] is not UnknownTypeError:
                break

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=7),
           st.lists(st.integers(0, 8), min_size=1, max_size=4),
           st.lists(st.integers(0, 8), min_size=1, max_size=4))
    def test_random_stops_across_a_rollback(self, picks, before, after):
        pool = TestUnknownTypeMidBatch._pool()
        data = BinarySerializer(ENCODER).serialize_batch(
            [pool[pick] for pick in picks])
        runtime = _decoding_runtime()
        pair = Pair(runtime)
        new = BatchDecoder(pair.new, data)
        ref = ReferenceBatchDecoder(pair.ref, data)
        for stop in before:
            _decode_to_step(new, ref, stop)
        runtime.load_assembly(ASM_B)
        for stop in after + [len(picks)]:
            assert _decode_to_step(new, ref, stop) == ("ok",)
        assert new.decoded_count == len(picks)
