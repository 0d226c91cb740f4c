"""Epoch-versioned mesh membership: the :class:`Topology` value object.

Elastic membership makes the shard set a first-class, *versioned*
value: a :class:`Topology` names the live shards, the shards that have
permanently left (``departed`` — their durable history is still
servable from their followers' replica logs), and an **epoch** that
bumps on every membership change.  Every shard carries the topology it
last committed, stamps the epoch into its stats and socket greetings,
and two shards can always tell whose view is newer by comparing
epochs.

Rendezvous hashing keeps membership changes minimally disruptive: only
the keys whose highest-random-weight winner changes are re-homed
(:meth:`Topology.rehomed` computes exactly that delta for a key sample).

:class:`MeshConfig` is the unified construction surface the three mesh
runners (``BrokerMesh``, ``SocketMesh``, ``ProcessMesh``) share: it
resolves ``topology=``, applies the replication-factor and log-root
validation once, and checks the broker kwargs — so the constructors
cannot drift apart again.  :func:`removal_topology` is the matching
pre-check every runner's ``remove_shard`` starts with.
"""

from __future__ import annotations

import hashlib
import inspect
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Topology", "MeshConfig", "removal_topology", "rendezvous_rank",
           "rendezvous_shard"]


def rendezvous_rank(key: str, shard_ids: Sequence[str]) -> List[str]:
    """Every shard ranked by highest-random-weight score for ``key`` —
    position 0 is the rendezvous winner, positions 1..N the natural
    follower preference list (deterministic, uniform, and minimally
    disruptive when shards come and go)."""
    def score(shard: str) -> int:
        digest = hashlib.blake2b(
            ("%s|%s" % (shard, key)).encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    return sorted(shard_ids, key=lambda shard: (-score(shard), shard))


def rendezvous_shard(key: str, shard_ids: Sequence[str]) -> str:
    """The rendezvous-hash home shard for ``key`` (see
    :func:`rendezvous_rank`)."""
    if not shard_ids:
        raise ValueError("no shards to hash onto")
    return rendezvous_rank(key, shard_ids)[0]


class Topology:
    """An immutable, epoch-versioned mesh membership snapshot.

    ``shard_ids`` are the live shards (publish/subscribe targets),
    ``departed`` the shards that left for good.  Membership transitions
    go through :meth:`with_shard` / :meth:`without_shard`, which return a
    NEW topology at ``epoch + 1`` — holders of the old value keep a
    consistent old view until they commit the new one.
    """

    def __init__(self, shard_ids: Sequence[str], epoch: int = 1,
                 departed: Sequence[str] = (), name: str = "mesh"):
        ids = list(shard_ids)
        if not ids:
            raise ValueError("a topology needs at least one shard")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate shard ids: %r" % (ids,))
        if epoch < 1:
            raise ValueError("epochs start at 1")
        overlap = set(ids) & set(departed)
        if overlap:
            raise ValueError("shards cannot be live and departed: %r"
                             % sorted(overlap))
        self._shard_ids: Tuple[str, ...] = tuple(ids)
        self.epoch = int(epoch)
        self.departed: Tuple[str, ...] = tuple(sorted(set(departed)))
        self.name = name

    @classmethod
    def sized(cls, shard_count: int, name: str = "mesh") -> "Topology":
        """The seed topology of ``shard_count`` shards:
        ``<name>-shard0 .. <name>-shard{N-1}`` at epoch 1."""
        if shard_count < 1:
            raise ValueError("a mesh needs at least one shard")
        return cls(["%s-shard%d" % (name, index)
                    for index in range(shard_count)], name=name)

    # -- membership views ---------------------------------------------------

    @property
    def shard_ids(self) -> List[str]:
        return list(self._shard_ids)

    def __len__(self) -> int:
        return len(self._shard_ids)

    def __contains__(self, shard_id: object) -> bool:
        return shard_id in self._shard_ids

    def __iter__(self) -> Iterator[str]:
        return iter(self._shard_ids)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Topology)
                and self._shard_ids == other._shard_ids
                and self.epoch == other.epoch
                and self.departed == other.departed)

    def __repr__(self) -> str:
        return "Topology(epoch=%d, shards=%r, departed=%r)" % (
            self.epoch, list(self._shard_ids), list(self.departed))

    def shard_for(self, key: str) -> str:
        """The rendezvous home shard for ``key`` under this membership."""
        return rendezvous_shard(key, self._shard_ids)

    def rank(self, key: str) -> List[str]:
        """Every live shard ranked by rendezvous preference for ``key``."""
        return rendezvous_rank(key, self._shard_ids)

    def next_shard_id(self) -> str:
        """The smallest unused ``<name>-shardN`` id — never a live one,
        and never a departed one either: a departed shard's id stays
        retired so its archived history remains unambiguous."""
        used = set(self._shard_ids) | set(self.departed)
        index = 0
        while "%s-shard%d" % (self.name, index) in used:
            index += 1
        return "%s-shard%d" % (self.name, index)

    # -- membership transitions --------------------------------------------

    def with_shard(self, shard_id: Optional[str] = None) -> "Topology":
        """The topology after ``shard_id`` joins (epoch + 1)."""
        if shard_id is None:
            shard_id = self.next_shard_id()
        if shard_id in self._shard_ids:
            raise ValueError("shard %r is already in the mesh" % shard_id)
        if shard_id in self.departed:
            raise ValueError("shard id %r is retired (departed shards "
                             "keep their id)" % shard_id)
        return Topology(list(self._shard_ids) + [shard_id],
                        epoch=self.epoch + 1, departed=self.departed,
                        name=self.name)

    def without_shard(self, shard_id: str) -> "Topology":
        """The topology after ``shard_id`` leaves for good (epoch + 1)."""
        if shard_id not in self._shard_ids:
            raise ValueError("no shard %r in this topology" % shard_id)
        if len(self._shard_ids) == 1:
            raise ValueError("cannot remove the last shard")
        return Topology([sid for sid in self._shard_ids if sid != shard_id],
                        epoch=self.epoch + 1,
                        departed=self.departed + (shard_id,),
                        name=self.name)

    def delta(self, other: "Topology") -> Dict[str, Any]:
        """What changed between this topology and ``other``."""
        return {
            "from_epoch": self.epoch,
            "to_epoch": other.epoch,
            "added": [sid for sid in other._shard_ids
                      if sid not in self._shard_ids],
            "removed": [sid for sid in self._shard_ids
                        if sid not in other._shard_ids],
        }

    def rehomed(self, keys: Sequence[str], other: "Topology") -> List[str]:
        """The keys whose rendezvous home differs between this topology
        and ``other`` — the migration set of a membership change (for a
        single join or leave, a ~1/N fraction of the key space)."""
        return [key for key in keys
                if self.shard_for(key) != other.shard_for(key)]

    # -- wire shape ---------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "shards": list(self._shard_ids),
            "departed": list(self.departed),
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Topology":
        return cls(data["shards"], epoch=int(data.get("epoch", 1)),
                   departed=data.get("departed", ()),
                   name=data.get("name", "mesh"))


def _resolve_topology(topology: Any, name: str,
                      default_count: int = 4) -> Topology:
    """The one place ``topology=`` is interpreted, shared by every mesh
    constructor."""
    if topology is None:
        return Topology.sized(default_count, name)
    if isinstance(topology, dict):
        return Topology.from_dict(topology)
    if not isinstance(topology, Topology):
        raise TypeError("topology= takes a Topology (or its as_dict "
                        "form), got %r" % type(topology).__name__)
    return topology


def _check_shard_kwargs(broker_kwargs: dict) -> None:
    """Reject a keyword no mesh shard constructor accepts, in the driver:
    a shard process would otherwise die at startup and surface only as
    a start timeout."""
    from .mesh import MeshShard  # mesh.py imports this module
    accepted = set()
    for cls in MeshShard.__mro__:
        init = cls.__dict__.get("__init__")
        if init is not None:
            accepted.update(
                name for name, parameter
                in inspect.signature(init).parameters.items()
                if parameter.kind is not parameter.VAR_KEYWORD)
    unknown = sorted(set(broker_kwargs) - accepted)
    if unknown:
        raise TypeError("mesh shards take no keyword argument %s"
                        % ", ".join(repr(name) for name in unknown))


def removal_topology(topology: Topology, shard_id: str,
                     replication_factor: int) -> Topology:
    """The topology after ``shard_id`` leaves, checked before any mesh
    runner touches a shard: the shard must be live, not the last one,
    and its departure must leave enough shards to hold
    ``replication_factor`` followers."""
    if shard_id not in topology:
        raise ValueError("no shard %r in this mesh" % shard_id)
    proposed = topology.without_shard(shard_id)
    if replication_factor >= len(proposed):
        raise ValueError(
            "removing %r would leave %d shards — too few for "
            "replication_factor=%d" % (shard_id, len(proposed),
                                       replication_factor))
    return proposed


class MeshConfig:
    """Normalized mesh construction parameters.

    All three mesh runners build one of these first, so topology
    resolution, the replication-factor bounds, the log-root requirement
    and the broker kwargs are validated identically everywhere.
    """

    def __init__(self, topology: Any = None,
                 name: str = "mesh",
                 log_root: Optional[str] = None,
                 replication_factor: int = 0,
                 broker_kwargs: Optional[dict] = None):
        self.name = name
        self.topology = _resolve_topology(topology, name)
        self.log_root = log_root
        self.replication_factor = replication_factor
        self.broker_kwargs = dict(broker_kwargs or {})
        _check_shard_kwargs(self.broker_kwargs)
        if replication_factor < 0:
            raise ValueError("replication_factor must be non-negative")
        if replication_factor >= len(self.topology):
            raise ValueError("replication_factor must leave the home shard "
                             "out (< shard count)")
        if replication_factor > 0 and log_root is None:
            raise ValueError("replication needs durable logs; pass log_root=")

    @property
    def shard_ids(self) -> List[str]:
        return self.topology.shard_ids
