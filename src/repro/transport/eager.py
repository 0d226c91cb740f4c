"""Eager transport baseline: ship description + code with every object.

This is the strawman the optimistic protocol is measured against — the
behaviour of a middleware without on-demand type/code transfer: every send
bundles the envelope, the XML descriptions of every type in the object
graph, and the full assemblies implementing them.  Correct, zero round
trips, but pays the full price per message even when the receiver already
knows everything.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..cts.assembly import Assembly
from ..describe.xml_codec import description_bytes
from ..serialization.graph import collect_types
from .protocol import InteropPeer

KIND_OBJECT_EAGER = "object_eager"


class EagerPeer(InteropPeer):
    """An :class:`InteropPeer` that sends everything up front.

    Receiving still runs the conformance check against declared interests
    (type safety is not the axis being ablated) — but the description and
    code arrive whether or not they are needed.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.on(KIND_OBJECT_EAGER, self._handle_eager_object)

    # -- sending ------------------------------------------------------------

    def send(self, dst: str, value: Any) -> None:
        envelope_bytes = self.codec.encode(value)
        descriptions: List[bytes] = []
        assemblies: List[Dict] = []
        seen_assemblies = set()
        for info in collect_types(value):
            descriptions.append(description_bytes(info))
            hosting = self._find_hosting_assembly(info.full_name)
            if hosting is not None and hosting.download_path not in seen_assemblies:
                seen_assemblies.add(hosting.download_path)
                assemblies.append(hosting.to_wire())
        bundle = self._wire_codec.serialize(
            {
                "envelope": envelope_bytes,
                "descriptions": descriptions,
                "assemblies": assemblies,
            }
        )
        self.transport_stats.objects_sent += 1
        self.post(dst, KIND_OBJECT_EAGER, bundle)

    def _find_hosting_assembly(self, type_name: str) -> Optional[Assembly]:
        for assembly in self._hosted.values():
            if assembly.find_type(type_name) is not None:
                return assembly
        return None

    # -- receiving ------------------------------------------------------------

    def _handle_eager_object(self, payload: bytes, src: str) -> bytes:
        bundle = self._wire_codec.deserialize(payload)
        # Everything arrived inline: load it all, no protocol round trips.
        for wire in bundle.get("assemblies", []):
            assembly = Assembly.from_wire(wire)
            if not self.runtime.has_assembly(assembly.name):
                self.runtime.load_assembly(assembly)
        self.receive_envelope(self.codec.parse(bundle["envelope"]), src)
        return b"OK"
