"""Figure 3 — the hybrid serialization scheme.

An object travels as an XML message holding type information + download
paths and a SOAP or binary payload.  We measure envelope build/parse cost
and compare the two payload encodings in size and speed.
"""

import pytest

from repro.serialization.envelope import EnvelopeCodec


class TestEnvelopeCost:
    def test_build_envelope_binary(self, benchmark, runtime, person):
        benchmark.extra_info["experiment"] = "fig3-build-binary"
        codec = EnvelopeCodec(runtime, encoding="binary")
        data = benchmark(lambda: codec.encode(person))
        benchmark.extra_info["bytes"] = len(data)

    def test_build_envelope_soap(self, benchmark, runtime, person):
        benchmark.extra_info["experiment"] = "fig3-build-soap"
        codec = EnvelopeCodec(runtime, encoding="soap")
        data = benchmark(lambda: codec.encode(person))
        benchmark.extra_info["bytes"] = len(data)

    def test_parse_envelope(self, benchmark, runtime, person):
        """Parsing stops at the envelope: the payload stays opaque until
        the types are known — the property the protocol relies on."""
        benchmark.extra_info["experiment"] = "fig3-parse"
        codec = EnvelopeCodec(runtime, encoding="binary")
        data = codec.encode(person)
        envelope = benchmark(lambda: codec.parse(data))
        assert envelope.root_entry().name == "demo.a.Person"

    def test_unwrap_payload(self, benchmark, runtime, person):
        benchmark.extra_info["experiment"] = "fig3-unwrap"
        codec = EnvelopeCodec(runtime, encoding="binary")
        envelope = codec.parse(codec.encode(person))
        restored = benchmark(lambda: codec.unwrap(envelope))
        assert restored.GetName() == "Benchmark"


class TestHeaderOnlyParse:
    """The zero-copy hot path consumes only the self-delimiting header
    prefix of an ``XME2`` frame — routing, forwarding and replication
    never touch the payload.  These measure that asymmetry on a 50-value
    batch record (the shape the mesh actually moves)."""

    BATCH = 50

    def _batch_frame(self, runtime):
        codec = EnvelopeCodec(runtime, encoding="binary")
        values = [runtime.new_instance("demo.a.Person", ["h%d" % i])
                  for i in range(self.BATCH)]
        return codec, codec.encode_batch(values, origin="bench")

    def test_header_only_parse(self, benchmark, runtime):
        benchmark.extra_info["experiment"] = "zero-copy-header-parse"
        codec, data = self._batch_frame(runtime)
        envelope = benchmark(lambda: codec.parse(data))
        assert envelope.batch_count == self.BATCH
        benchmark.extra_info["frame_bytes"] = len(data)
        benchmark.extra_info["codec"] = codec.stats.as_dict()

    def test_full_decode(self, benchmark, runtime):
        benchmark.extra_info["experiment"] = "zero-copy-full-decode"
        codec, data = self._batch_frame(runtime)
        values = benchmark(lambda: codec.unwrap_batch(codec.parse(data)))
        assert len(values) == self.BATCH
        benchmark.extra_info["codec"] = codec.stats.as_dict()

    def test_header_parse_at_least_5x_cheaper_than_decode(self, runtime):
        """The gate: a header-only parse of a batch record must cost at
        most a fifth of parse + full value decode."""
        import time

        codec, data = self._batch_frame(runtime)
        codec.unwrap_batch(codec.parse(data))  # warm both paths
        n = 300
        start = time.perf_counter()
        for _ in range(n):
            codec.parse(data)
        header_only = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(n):
            codec.unwrap_batch(codec.parse(data))
        full = time.perf_counter() - start
        assert header_only * 5 <= full, (
            "header-only parse %.4fs vs full decode %.4fs (< 5x)"
            % (header_only, full))
        # The counters tell the two paths apart.
        assert codec.stats.header_parses >= 2 * n
        assert codec.stats.decodes >= self.BATCH * n


class TestHeaderSplice:
    """PR 9: ``reframe`` patches a single string attribute by splicing the
    frame's header bytes in place — the ack-stamp hot path — instead of
    parsing and re-rendering the XML.  The splice must produce the
    re-rendered bytes exactly and never render a header.  (The gate
    raced a re-render-only codec switch, deleted once the splice stood
    alone; its last measured multiple is recorded in CHANGES.md.)"""

    BATCH = 50

    def _batch_frame(self, runtime):
        codec = EnvelopeCodec(runtime, encoding="binary")
        values = [runtime.new_instance("demo.a.Person", ["s%d" % i])
                  for i in range(self.BATCH)]
        return codec, codec.encode_batch(values, origin="bench",
                                         ack="warm-token")

    def test_splice_at_least_1_5x_cheaper_than_rerender(
            self, benchmark, runtime):
        splicer, data = self._batch_frame(runtime)
        # The reference: the codec's own multi-attribute fallback —
        # parse, set the attribute, render the whole header again.
        renderer = EnvelopeCodec(runtime, encoding="binary")
        envelope = renderer.parse(data)
        envelope.ack = "tok"
        assert splicer.reframe(data, ack="tok") == \
            renderer.envelope_to_bytes(envelope)
        renders_before = splicer.stats.header_renders

        n = 400

        def stamp_many():
            for index in range(n):
                splicer.reframe(data, ack="tok-%d" % index)

        benchmark.pedantic(stamp_many, rounds=5, iterations=1)

        # The counters tell the two paths apart: the splicer never
        # re-rendered, the reference never spliced.
        assert splicer.stats.header_splices >= n
        assert splicer.stats.header_renders == renders_before
        assert renderer.stats.header_splices == 0
        assert renderer.stats.header_renders == 1

        benchmark.extra_info["experiment"] = "transport-header-splice"
        benchmark.extra_info["frame_bytes"] = len(data)
        benchmark.extra_info["codec"] = splicer.stats.as_dict()


class TestEnvelopeShape:
    def test_binary_payload_smaller_than_soap(self, runtime, person):
        binary = EnvelopeCodec(runtime, encoding="binary").encode(person)
        soap = EnvelopeCodec(runtime, encoding="soap").encode(person)
        assert len(binary) < len(soap)

    def test_envelope_overhead_is_bounded(self, runtime, person):
        """Type-information section + base64 stays a small multiple of the
        raw payload."""
        from repro.serialization.binary import BinarySerializer

        raw = len(BinarySerializer(runtime).serialize(person))
        enveloped = len(EnvelopeCodec(runtime, encoding="binary").encode(person))
        assert enveloped < raw * 4 + 1200

    def test_parse_cheaper_than_unwrap_plus_parse(self, runtime, person):
        """Deferring payload deserialization is what makes rejection cheap."""
        import time

        codec = EnvelopeCodec(runtime, encoding="soap")
        data = codec.encode(person)
        n = 300
        start = time.perf_counter()
        for _ in range(n):
            codec.parse(data)
        parse_only = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(n):
            codec.unwrap(codec.parse(data))
        full = time.perf_counter() - start
        assert parse_only < full
