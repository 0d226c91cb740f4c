"""Fast-path routing for type-based publish/subscribe.

The paper calls the conformance cost of Section 7 "a lower bound" on real
workloads — a broker that re-runs a full structural check against every
subscription on every publish does not survive heavy traffic.  The
:class:`RoutingIndex` removes that cost from the hot path:

- subscriptions are **grouped by expected-type identity** (GUID), so a
  thousand subscribers to the same type cost one conformance decision and
  one translated view per event, not a thousand;
- each ``(provider-guid, expected-guid)`` pair is resolved **once** into a
  :class:`RouteEntry` (verdict + view factory) and cached — including
  negative verdicts, so non-conformant event types are dropped with a
  single dict lookup;
- before the rule engine runs at all, the **equal/equivalent fast paths**
  (identity, then memoised-fingerprint equality via
  :meth:`~repro.core.rules.ConformanceChecker.equivalent`) settle
  structurally identical types for the cost of a string comparison.

The verdict cache is invalidated when the backing type registry changes
(new descriptions or assemblies can turn a name-only comparison into a
resolved one) and can be dropped explicitly with :meth:`invalidate`.
Subscribe/unsubscribe update the groups in O(1); they never stale the
verdict cache because entries are keyed by type identity, not by
subscription.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from ...core.result import ConformanceResult, Verdict
from ...core.rules import ConformanceChecker
from ...cts.identity import Guid
from ...cts.registry import TypeRegistry
from ...cts.types import TypeInfo
from ...remoting.dynamic import make_proxy

_PairKey = Tuple[Guid, Guid]
_MISS = object()  # sentinel: distinguishes "not cached" from "cached negative"


class RouteEntry:
    """A cached positive routing decision for one (provider, expected) pair.

    Holds the conformance result and builds the delivered view; the view
    construction cost is paid once per event per expected type, and the
    proxy (when one is needed at all) is shared by every subscriber in the
    group — proxies are stateless translators, so sharing is safe.
    """

    __slots__ = ("expected", "result")

    def __init__(self, expected: TypeInfo, result: ConformanceResult):
        self.expected = expected
        self.result = result

    def view(self, event: Any, checker: Optional[ConformanceChecker] = None) -> Any:
        if not self.result.needs_proxy:
            return event
        return make_proxy(event, self.expected, self.result.mapping, checker)

    def __repr__(self) -> str:
        return "RouteEntry(%s, %s)" % (self.expected.full_name, self.result.verdict)


class _Group:
    """Subscriptions sharing one expected-type identity (insertion-ordered)."""

    __slots__ = ("expected", "members")

    def __init__(self, expected: TypeInfo):
        self.expected = expected
        self.members: Dict[int, Any] = {}  # subscription_id -> Subscription


class RoutingStats:
    """Counters reported by the routing benchmarks."""

    __slots__ = ("hits", "misses", "fast_equal", "fast_equivalent",
                 "full_checks", "invalidations")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return "RoutingStats(%s)" % ", ".join(
            "%s=%d" % item for item in self.as_dict().items()
        )


class RoutingIndex:
    """Verdict-cached subscription index shared by both broker flavours."""

    def __init__(self, checker: ConformanceChecker,
                 registry: Optional[TypeRegistry] = None):
        self.checker = checker
        self.registry = registry
        self._groups: Dict[Guid, _Group] = {}
        self._by_id: Dict[int, Any] = {}  # insertion-ordered: all subscriptions
        self._verdicts: Dict[_PairKey, Optional[RouteEntry]] = {}
        self._registry_version = registry.version if registry is not None else 0
        #: Bumped by every subscribe, unsubscribe and verdict-cache drop.
        self.version = 0
        self.stats = RoutingStats()

    # -- subscription management (O(1)) ---------------------------------

    def add(self, subscription: Any) -> None:
        guid = subscription.expected.guid
        group = self._groups.get(guid)
        if group is None:
            group = _Group(subscription.expected)
            self._groups[guid] = group
        group.members[subscription.subscription_id] = subscription
        self._by_id[subscription.subscription_id] = subscription
        self.version += 1

    def remove(self, subscription_id: int,
               peer_id: Optional[str] = None) -> bool:
        """Drop one subscription by id; returns whether it was present.

        When ``peer_id`` is given, the subscription is removed only if it
        belongs to that peer (a peer cannot cancel another's interest).
        """
        subscription = self._by_id.get(subscription_id)
        if subscription is None:
            return False
        if peer_id is not None and subscription.peer_id != peer_id:
            return False
        del self._by_id[subscription_id]
        self.version += 1
        guid = subscription.expected.guid
        group = self._groups.get(guid)
        if group is not None:
            group.members.pop(subscription_id, None)
            if not group.members:
                # Verdict entries for this expected type stay cached: they
                # are keyed by type identity and remain sound if the type
                # is subscribed to again.
                del self._groups[guid]
        return True

    def subscriptions(self) -> List[Any]:
        """All live subscriptions in subscribe order."""
        return list(self._by_id.values())

    def group_members(self, expected: TypeInfo) -> Optional[Dict[int, Any]]:
        """The live ``subscription_id -> subscription`` table of the group
        expecting ``expected`` (``None`` when no subscription does): what
        :meth:`route` snapshots when it reaches that group."""
        group = self._groups.get(expected.guid)
        return group.members if group is not None else None

    def get(self, subscription_id: int) -> Optional[Any]:
        """The live subscription with this id, if any."""
        return self._by_id.get(subscription_id)

    def __len__(self) -> int:
        return len(self._by_id)

    @property
    def group_count(self) -> int:
        return len(self._groups)

    # -- verdict cache ----------------------------------------------------

    def invalidate(self) -> None:
        """Drop every cached verdict (kept: the groups themselves).

        Also clears the checker's own memo: it caches negative results
        definitively, so a routing re-check would otherwise read the same
        stale verdict straight back out of the rule engine.
        """
        self._verdicts.clear()
        self.checker.clear_cache()
        self.stats.invalidations += 1
        self.version += 1

    @property
    def stamp(self) -> Tuple[int, int]:
        """Changes whenever a :meth:`route` pass could answer differently
        from the last one: a subscription came or went, the verdict cache
        was dropped, or the registry changed (which drops it on the next
        pass).  A caller that reuses one pass for several values of a
        record re-routes once this moves."""
        registry = self.registry
        return (self.version,
                registry.version if registry is not None else 0)

    def _check_registry(self) -> None:
        if self.registry is not None and self.registry.version != self._registry_version:
            self._registry_version = self.registry.version
            self.invalidate()

    def lookup(self, event_type: TypeInfo, expected: TypeInfo) -> Optional[RouteEntry]:
        """The cached routing decision for one pair (None = no route)."""
        key = (event_type.guid, expected.guid)
        entry = self._verdicts.get(key, _MISS)
        if entry is not _MISS:
            self.stats.hits += 1
            return entry
        self.stats.misses += 1
        entry = self._decide(event_type, expected)
        self._verdicts[key] = entry
        return entry

    def _decide(self, event_type: TypeInfo, expected: TypeInfo) -> Optional[RouteEntry]:
        if event_type.guid == expected.guid:
            self.stats.fast_equal += 1
            result = ConformanceResult.success(
                event_type.full_name, expected.full_name, Verdict.EQUAL
            )
        elif self.checker.equivalent(event_type, expected):
            # Structurally identical types skip the rule engine entirely.
            self.stats.fast_equivalent += 1
            result = ConformanceResult.success(
                event_type.full_name, expected.full_name, Verdict.EQUIVALENT
            )
        else:
            self.stats.full_checks += 1
            result = self.checker.conforms(event_type, expected)
        if not result.ok:
            return None
        return RouteEntry(expected, result)

    # -- routing -----------------------------------------------------------

    def route(self, event_type: TypeInfo) -> Iterator[Tuple[RouteEntry, List[Any]]]:
        """Yield ``(entry, subscriptions)`` per matching expected type.

        Snapshots groups and members so handlers may subscribe or
        unsubscribe during delivery without corrupting the iteration.
        """
        self._check_registry()
        for group in list(self._groups.values()):
            entry = self.lookup(event_type, group.expected)
            if entry is None:
                continue
            yield entry, list(group.members.values())
