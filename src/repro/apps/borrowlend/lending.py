"""The borrow/lend (BL) abstraction with type-conformance criteria.

"Another possible application of this form of interoperability is the
borrow/lend (BL) abstraction.  In this application lenders can lend
resources to borrowers via specific criteria.  A possible criterion is type
conformance, for a type T_q with which the lent resource's type T_l must
conform." (Section 8)

A :class:`BorrowLendPeer` can *lend* local objects (optionally for a limited
simulated-time duration) and *borrow* remote resources by describing the
type it expects: the lender checks, per offer, whether the lent resource's
type conforms to the query type, and hands back a remote reference.  The
borrower's view is a dynamic proxy chain: expected-type surface → remote
stub → actual resource.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ...core.context import ConformanceOptions
from ...cts.types import TypeInfo
from ...describe.xml_codec import description_bytes, description_type
from ...net.network import SimulatedNetwork
from ...net.peer import error_response
from ...remoting.dynamic import wrap
from ...remoting.remote import ObjectRef, RemotingPeer

KIND_BL_BORROW = "bl_borrow"
KIND_BL_RETURN = "bl_return"


class BorrowError(Exception):
    pass


class Offer:
    """A resource a lender has put up for lending."""

    __slots__ = ("name", "resource", "type_info", "max_duration_s", "lent_to")

    def __init__(self, name: str, resource: Any, type_info: TypeInfo,
                 max_duration_s: Optional[float] = None):
        self.name = name
        self.resource = resource
        self.type_info = type_info
        self.max_duration_s = max_duration_s
        self.lent_to: Optional[str] = None

    @property
    def available(self) -> bool:
        return self.lent_to is None

    def __repr__(self) -> str:
        state = "available" if self.available else "lent to %s" % self.lent_to
        return "Offer(%s: %s, %s)" % (self.name, self.type_info.full_name, state)


class Lease:
    """A borrower's live handle on a borrowed resource."""

    __slots__ = ("peer", "lender_id", "lease_id", "view", "expires_at_s")

    def __init__(self, peer: "BorrowLendPeer", lender_id: str, lease_id: int,
                 view: Any, expires_at_s: Optional[float]):
        self.peer = peer
        self.lender_id = lender_id
        self.lease_id = lease_id
        self.view = view
        self.expires_at_s = expires_at_s

    @property
    def expired(self) -> bool:
        if self.expires_at_s is None:
            return False
        return self.peer.network.clock_s >= self.expires_at_s

    def give_back(self) -> None:
        self.peer.return_resource(self)

    def __repr__(self) -> str:
        return "Lease(#%d from %s%s)" % (
            self.lease_id, self.lender_id, ", expired" if self.expired else "",
        )


class BorrowLendPeer(RemotingPeer):
    """Symmetric BL endpoint: every peer can lend and borrow."""

    def __init__(self, peer_id: str, network: SimulatedNetwork, **kwargs):
        kwargs.setdefault("options", ConformanceOptions.pragmatic())
        super().__init__(peer_id, network, **kwargs)
        self._offers: Dict[str, Offer] = {}
        self._leases: Dict[int, Offer] = {}
        self._lease_expiry: Dict[int, float] = {}
        self._next_lease = 1
        self.on(KIND_BL_BORROW, self._handle_borrow)
        self.on(KIND_BL_RETURN, self._handle_return)

    # ------------------------------------------------------------------
    # lender side
    # ------------------------------------------------------------------

    def lend(self, name: str, resource: Any,
             max_duration_s: Optional[float] = None) -> Offer:
        """Offer a local resource for borrowing under the conformance
        criterion."""
        type_getter = getattr(resource, "_repro_type", None)
        if type_getter is None:
            raise BorrowError("resource %r does not expose a CTS type" % (resource,))
        offer = Offer(name, resource, type_getter(), max_duration_s)
        self._offers[name] = offer
        return offer

    def withdraw(self, name: str) -> None:
        self._offers.pop(name, None)

    def offers(self) -> List[Offer]:
        return list(self._offers.values())

    def _handle_borrow(self, payload: bytes, src: str) -> bytes:
        request = self._wire_codec.deserialize(payload)
        query_type = description_type(request["description"],
                                      self.runtime.registry)
        for offer in self._offers.values():
            if not offer.available:
                continue
            result = self.checker.conforms(offer.type_info, query_type)
            if not result.ok:
                continue
            ref = self.export(offer.resource)
            lease_id = self._next_lease
            self._next_lease += 1
            offer.lent_to = src
            self._leases[lease_id] = offer
            expires: Optional[float] = None
            if offer.max_duration_s is not None:
                expires = self.network.clock_s + offer.max_duration_s
                self._lease_expiry[lease_id] = expires
            return self._wire_codec.serialize(
                {
                    "ref": ref.to_wire(),
                    "lease": lease_id,
                    "expires": expires,
                    "offer": offer.name,
                }
            )
        return error_response("no conformant resource available")

    def _handle_return(self, payload: bytes, src: str) -> bytes:
        request = self._wire_codec.deserialize(payload)
        lease_id = request["lease"]
        offer = self._leases.pop(lease_id, None)
        self._lease_expiry.pop(lease_id, None)
        if offer is None:
            return error_response("unknown lease %d" % lease_id)
        offer.lent_to = None
        return self._wire_codec.serialize({"ok": True})

    def reclaim_expired(self) -> List[str]:
        """Free every offer whose lease passed its deadline; returns the
        names of reclaimed offers."""
        reclaimed = []
        now = self.network.clock_s
        for lease_id, deadline in list(self._lease_expiry.items()):
            if now >= deadline:
                offer = self._leases.pop(lease_id, None)
                self._lease_expiry.pop(lease_id, None)
                if offer is not None:
                    offer.lent_to = None
                    reclaimed.append(offer.name)
        return reclaimed

    # ------------------------------------------------------------------
    # borrower side
    # ------------------------------------------------------------------

    def borrow(self, lender_id: str, expected: TypeInfo) -> Lease:
        """Borrow any resource of the lender conforming to ``expected``.

        The returned :class:`Lease` carries ``view`` — the resource as the
        expected type (remote stub, dynamically proxied if the match is only
        implicit)."""
        self.runtime.registry.register(expected)
        payload = self._wire_codec.serialize(
            {"description": description_bytes(expected)})
        try:
            response_bytes = self.request(lender_id, KIND_BL_BORROW, payload)
        except Exception as exc:
            raise BorrowError(str(exc))
        response = self._wire_codec.deserialize(response_bytes)
        ref = ObjectRef.from_wire(response["ref"])
        stub = self.proxy_for(ref)
        view = wrap(stub, expected, self.checker)
        return Lease(self, lender_id, response["lease"], view, response.get("expires"))

    def return_resource(self, lease: Lease) -> None:
        self.request(
            lease.lender_id,
            KIND_BL_RETURN,
            self._wire_codec.serialize({"lease": lease.lease_id}),
        )
