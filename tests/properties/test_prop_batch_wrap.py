"""Batch envelopes read their type section and keys without walking
flat values.

``EnvelopeCodec.wrap_batch`` lists a value whose fields all hold
primitives by its own type without a graph walk, and picks each value's
key field through a memo keyed by the field names.  For generated batches
(flat values, nested and shared instances, list and dict roots, fields
the type does not declare, primitive subclasses) the frame must equal,
byte for byte, the frame a test-local copy of the walk-every-value path
builds, or both must raise the same error.
"""

import enum

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cts.builder import TypeBuilder
from repro.runtime.loader import Runtime
from repro.runtime.objects import CtsInstance
from repro.serialization.envelope import (
    _KEY_FIELD_NAMES,
    EnvelopeCodec,
    ObjectEnvelope,
    TypeEntry,
    _type_digest,
)
from repro.serialization.errors import SerializationError, WireFormatError
from repro.serialization.graph import collect_types


class Level(enum.IntEnum):
    LOW = 1


class Tag(str):
    pass


TYPES = [
    TypeBuilder("wrap.Flat").field("key", "string").field("n", "int").build(),
    TypeBuilder("wrap.Named").field("Name", "string")
    .field("owner", "string").build(),
    TypeBuilder("wrap.Node").field("label", "string")
    .field("child", "wrap.Node").build(),
]
FIELD_NAMES = ["key", "n", "Name", "owner", "label", "child", "ID", "extra"]


def reference_entity_key(value):
    info = getattr(value, "type_info", None)
    fields = getattr(value, "fields", None)
    if info is None or not fields:
        return None
    field_name = None
    lowered = {name.lower(): name for name in reversed(list(fields))}
    for candidate in _KEY_FIELD_NAMES:
        if candidate in lowered:
            field_name = lowered[candidate]
            break
    if field_name is None:
        field_name = next(iter(fields))
    field_value = fields.get(field_name)
    if field_value is not None and not isinstance(field_value,
                                                  (str, int, float, bool)):
        return None
    return "%s:%s=%r" % (_type_digest(info), field_name, field_value)


def reference_encode_batch(codec, values):
    """Every value's types by a graph walk, every key by the name loop."""
    entries, index_of, roots = [], {}, []
    for value in values:
        types = collect_types(value)
        if not types:
            raise WireFormatError(
                "batched value %r has no root CTS type" % (value,))
        for position, info in enumerate(types):
            key = (info.full_name, str(info.guid))
            index = index_of.get(key)
            if index is None:
                index = index_of[key] = len(entries)
                entries.append(TypeEntry.for_type(info))
            if position == 0:
                roots.append(index)
    keys = [reference_entity_key(value) for value in values]
    if all(key is None for key in keys):
        keys = None
    payload = codec._binary.serialize_batch(values)
    return codec.envelope_to_bytes(ObjectEnvelope(
        entries, "binary", payload, batch_roots=roots, keys=keys))


primitives = (st.none() | st.booleans() | st.integers(-5, 5)
              | st.floats(allow_nan=False, width=32)
              | st.text(max_size=4)
              | st.sampled_from([Level.LOW, Tag("t")]))


@st.composite
def batches(draw):
    runtime = Runtime()
    for info in TYPES:
        runtime.load_type(info)
    pool = []

    def node(depth):
        choice = draw(st.integers(0, 5 if depth < 3 else 0))
        if choice == 0:
            return draw(primitives)
        if choice == 1 and pool:
            return draw(st.sampled_from(pool))  # a shared reference
        if choice == 2:
            return [instance(depth + 1) if draw(st.booleans())
                    else node(depth + 1)
                    for _ in range(draw(st.integers(0, 2)))]
        if choice == 3:
            return {name: node(depth + 1) for name in
                    draw(st.lists(st.sampled_from(FIELD_NAMES),
                                  max_size=2, unique=True))}
        return instance(depth)

    def instance(depth):
        info = draw(st.sampled_from(TYPES))
        names = [field.name for field in info.fields]
        names += draw(st.lists(st.sampled_from(FIELD_NAMES), max_size=2,
                               unique=True))  # drift fields
        fields = {}
        for name in dict.fromkeys(names):
            fields[name] = (node(depth + 1) if draw(st.booleans())
                            else draw(primitives))
        value = CtsInstance(info, runtime, fields)
        pool.append(value)
        return value

    def root():
        choice = draw(st.integers(0, 9))
        if choice == 0:
            return node(1)  # possibly no CTS type at all
        if choice == 1:
            return [node(1), instance(1)]
        if choice == 2:
            return {"value": instance(1)}
        return instance(0)

    return runtime, [root() for _ in range(draw(st.integers(1, 6)))]


def _outcome(build):
    try:
        return build()
    except (SerializationError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(batch=batches())
def test_wrap_batch_frames_equal_the_walk_every_value_frames(batch):
    runtime, values = batch
    codec = EnvelopeCodec(runtime)
    expected = _outcome(lambda: reference_encode_batch(codec, values))
    assert _outcome(lambda: codec.encode_batch(values)) == expected
    # The key-field memo is warm the second time.
    assert _outcome(lambda: codec.encode_batch(values)) == expected
