"""Pass-by-reference semantics (paper Section 6.2, second half).

A :class:`RemotingPeer` can export objects; other peers obtain
:class:`RemoteProxy` stubs whose invocations travel over the simulated
network with by-value arguments and results (each leg an envelope, so the
optimistic protocol covers unknown argument/result types too).

When the client's expected type matches the remote object's type only
*implicitly*, the remote stub is wrapped in a
:class:`~repro.remoting.dynamic.DynamicProxy` — exactly the paper's
"interposing of a dynamic proxy as a wrapper is necessary since T_q and
T_l are not explicitly compatible".
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..cts.identity import Guid
from ..cts.types import TypeInfo
from ..net.network import SimulatedNetwork
from ..net.peer import error_response
from ..runtime.objects import CtsInstance
from ..serialization.errors import UnknownTypeError
from .dynamic import DynamicProxy, unwrap, wrap
from ..transport.protocol import InteropPeer, ProtocolError

KIND_INVOKE = "rmi_invoke"
KIND_LOOKUP = "rmi_lookup"


class RemotingError(Exception):
    pass


class ObjectRef:
    """A network handle to an exported object."""

    __slots__ = ("peer_id", "object_id", "type_name", "guid_text")

    def __init__(self, peer_id: str, object_id: int, type_name: str, guid_text: str):
        self.peer_id = peer_id
        self.object_id = object_id
        self.type_name = type_name
        self.guid_text = guid_text

    def to_wire(self) -> Dict[str, Any]:
        return {
            "peer": self.peer_id,
            "oid": self.object_id,
            "type": self.type_name,
            "guid": self.guid_text,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "ObjectRef":
        return cls(data["peer"], data["oid"], data["type"], data["guid"])

    def __repr__(self) -> str:
        return "ObjectRef(%s#%d: %s)" % (self.peer_id, self.object_id, self.type_name)


class RemoteProxy:
    """Client-side stub for an exported object.

    Speaks ``_repro_invoke`` so it composes with dynamic proxies and IL
    code; each call is one round trip carrying by-value arguments.
    """

    __slots__ = ("_peer", "_ref", "_type_info")

    def __init__(self, peer: "RemotingPeer", ref: ObjectRef, type_info: TypeInfo):
        object.__setattr__(self, "_peer", peer)
        object.__setattr__(self, "_ref", ref)
        object.__setattr__(self, "_type_info", type_info)

    def _repro_invoke(self, method_name: str, args: Sequence[Any]) -> Any:
        return self._peer._remote_invoke(self._ref, method_name, list(args))

    def _repro_type(self) -> TypeInfo:
        return self._type_info

    def invoke(self, method_name: str, *args: Any) -> Any:
        return self._repro_invoke(method_name, args)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)

        def bound(*args: Any) -> Any:
            return self._repro_invoke(name, args)

        bound.__name__ = name
        return bound

    def __repr__(self) -> str:
        return "RemoteProxy(%r)" % (self._ref,)


class RemotingPeer(InteropPeer):
    """An :class:`InteropPeer` that can export and invoke remote objects."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._exports: Dict[int, Any] = {}
        self._bindings: Dict[str, int] = {}
        self._next_oid = 1
        self.on(KIND_INVOKE, self._handle_invoke)
        self.on(KIND_LOOKUP, self._handle_lookup)

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------

    def export(self, obj: Any, name: Optional[str] = None) -> ObjectRef:
        """Make ``obj`` remotely invokable; optionally bind it to a name."""
        type_info = self._type_of(obj)
        oid = self._next_oid
        self._next_oid += 1
        self._exports[oid] = obj
        if name is not None:
            self._bindings[name] = oid
        return ObjectRef(self.peer_id, oid, type_info.full_name, str(type_info.guid))

    def unexport(self, ref: ObjectRef) -> bool:
        """Withdraw an export; later invocations on stubs fail with a stale
        reference error.  Returns whether anything was removed."""
        removed = self._exports.pop(ref.object_id, None) is not None
        self._bindings = {
            name: oid for name, oid in self._bindings.items()
            if oid != ref.object_id
        }
        return removed

    def export_count(self) -> int:
        return len(self._exports)

    @staticmethod
    def _type_of(obj: Any) -> TypeInfo:
        getter = getattr(obj, "_repro_type", None)
        if getter is None:
            raise RemotingError("cannot export %r: no CTS type" % (obj,))
        return getter()

    def _handle_lookup(self, payload: bytes, src: str) -> bytes:
        name = payload.decode("utf-8")
        oid = self._bindings.get(name)
        if oid is None:
            return error_response("no binding %r" % name)
        obj = self._exports[oid]
        info = self._type_of(obj)
        ref = ObjectRef(self.peer_id, oid, info.full_name, str(info.guid))
        return self._wire_codec.serialize(ref.to_wire())

    def _handle_invoke(self, payload: bytes, src: str) -> bytes:
        try:
            call = self._wire_codec.deserialize(payload)
            target = self._exports.get(call["oid"])
            if target is None:
                return error_response("stale object id %d" % call["oid"])
            args_envelope = self.codec.parse(call["args"])
            args = self.loaded_batch(args_envelope, src).value(0)
            result = target._repro_invoke(call["method"], args)
            result_bytes = self.codec.encode(unwrap(result))
            return self._wire_codec.serialize({"ok": True, "value": result_bytes})
        except (RemotingError, ProtocolError, UnknownTypeError, AttributeError, TypeError) as exc:
            return self._wire_codec.serialize({"ok": False, "error": str(exc)})

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------

    def lookup(self, server: str, name: str) -> RemoteProxy:
        """Resolve a named export to a remote stub (explicit typing)."""
        data = self.request(server, KIND_LOOKUP, name.encode("utf-8"))
        ref = ObjectRef.from_wire(self._wire_codec.deserialize(data))
        return self.proxy_for(ref)

    def lookup_as(self, server: str, name: str, expected: TypeInfo) -> Any:
        """Resolve a named export *as* an expected type.

        This is the paper's borrow scenario: if the remote type matches only
        implicitly, the remote stub comes back wrapped in a translating
        dynamic proxy."""
        stub = self.lookup(server, name)
        return wrap(stub, expected, self.checker)

    def proxy_for(self, ref: ObjectRef) -> RemoteProxy:
        info = self._resolve_remote_type(ref)
        return RemoteProxy(self, ref, info)

    def _resolve_remote_type(self, ref: ObjectRef) -> TypeInfo:
        info = self.runtime.registry.get_by_guid(Guid.parse(ref.guid_text))
        if info is None:
            info = self.runtime.registry.get(ref.type_name)
        if info is None:
            description = self._obtain_description(ref.peer_id, ref.type_name, None)
            if description is None:
                raise RemotingError("cannot describe remote type %s" % ref.type_name)
            info = description.to_type_info()
        return info

    def _remote_invoke(self, ref: ObjectRef, method: str, args: List[Any]) -> Any:
        from ..net.network import NetworkError

        call = {
            "oid": ref.object_id,
            "method": method,
            "args": self.codec.encode([unwrap(a) for a in args]),
        }
        try:
            response_bytes = self.request(
                ref.peer_id, KIND_INVOKE, self._wire_codec.serialize(call)
            )
        except NetworkError as exc:
            raise RemotingError(str(exc))
        response = self._wire_codec.deserialize(response_bytes)
        if not response.get("ok"):
            raise RemotingError(response.get("error", "remote invocation failed"))
        value_envelope = self.codec.parse(response["value"])
        return self.loaded_batch(value_envelope, ref.peer_id).value(0)
