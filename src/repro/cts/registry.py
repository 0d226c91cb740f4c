"""Type registry: the per-peer catalogue of locally known types.

Every peer in the distributed system owns a registry; the optimistic
transport protocol consults it to decide whether a received object's type is
already known (no description fetch needed) or not (fetch description, check
conformance, maybe fetch the assembly).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Set

from .identity import Guid
from .members import TypeRef
from .types import BUILTINS, TypeInfo, lookup_builtin


class TypeNotFoundError(KeyError):
    """Raised when a type cannot be resolved locally."""


class DuplicateTypeError(ValueError):
    """Raised when registering a name that is already bound to a different type."""


class TypeRegistry:
    """Maps full names and GUIDs to :class:`TypeInfo`.

    The registry is pre-populated with the CTS builtins so that primitive
    type references always resolve locally (the paper's descriptions never
    ship primitive definitions either).

    It also owns the peer's *type epoch*: every registration moves it, and
    so does anything else that can change a type-derived answer
    (:meth:`bump`).  Every type-derived memo is a :class:`BoundedMemo`
    holding what was derived at one epoch.
    """

    def __init__(self, include_builtins: bool = True):
        self._by_name: Dict[str, TypeInfo] = {}
        self._by_guid: Dict[Guid, TypeInfo] = {}
        #: Names bound only by a shadow load (see :meth:`register`).
        self._shadow_names: Set[str] = set()
        self.epoch = 0
        if include_builtins:
            for info in BUILTINS.values():
                self._register(info)
        #: Parsed description bytes -> type (``xml_codec.description_type``).
        self.described = BoundedMemo(256, self)

    def bump(self) -> None:
        """Move the type epoch: every memo filled before now is stale."""
        self.epoch += 1

    # -- registration ------------------------------------------------------

    def _register(self, info: TypeInfo) -> None:
        self._by_name[info.full_name] = info
        self._by_guid[info.guid] = info
        self.epoch += 1

    def register(self, info: TypeInfo, replace: bool = False,
                 shadow: bool = False) -> TypeInfo:
        """Register a type.

        ``shadow=True`` permits coexisting *versions*: a second type with
        the same full name but a different identity is recorded under its
        GUID only (name lookups keep resolving to the first registration).
        This is how a peer holds V1 and V2 of a module simultaneously —
        GUID-bearing references always find the right one.  A shadow load
        of a name nothing holds yet binds that name only until a plain
        registration of another identity claims it; the shadowed type
        keeps resolving by GUID.
        """
        name = info.full_name
        existing = self._by_name.get(name)
        if existing is not None and not replace:
            if existing.guid == info.guid:
                if not shadow:
                    self._shadow_names.discard(name)
                return existing
            if shadow:
                self._by_guid[info.guid] = info
                self.epoch += 1
                return info
            if name not in self._shadow_names:
                raise DuplicateTypeError(
                    "type %r already registered with a different identity"
                    % name
                )
        self._register(info)
        if shadow:
            self._shadow_names.add(name)
        else:
            self._shadow_names.discard(name)
        return info

    def register_all(self, infos: Iterable[TypeInfo], replace: bool = False) -> None:
        for info in infos:
            self.register(info, replace=replace)

    # -- lookup --------------------------------------------------------------

    def contains_name(self, full_name: str) -> bool:
        return full_name in self._by_name or lookup_builtin(full_name) is not None

    def contains_guid(self, guid: Guid) -> bool:
        return guid in self._by_guid

    def get(self, full_name: str) -> Optional[TypeInfo]:
        info = self._by_name.get(full_name)
        if info is None and full_name.endswith("[]"):
            element = self.get(full_name[:-2])
            if element is not None:
                from .types import array_of

                return array_of(element)
        if info is None:
            info = lookup_builtin(full_name)
        return info

    def require(self, full_name: str) -> TypeInfo:
        info = self.get(full_name)
        if info is None:
            raise TypeNotFoundError(full_name)
        return info

    def get_by_guid(self, guid: Guid) -> Optional[TypeInfo]:
        return self._by_guid.get(guid)

    def resolve(self, ref: TypeRef) -> TypeInfo:
        """Resolve a :class:`TypeRef` against local knowledge.

        Resolution order follows identity first (GUIDs are globally unique),
        then name.  The ref is memoised in place on success.
        """
        if ref.is_resolved:
            return ref.resolved  # type: ignore[return-value]
        if ref.guid is not None:
            info = self._by_guid.get(ref.guid)
            if info is not None:
                ref.resolve_with(info)
                return info
        info = self.get(ref.full_name)
        if info is None:
            raise TypeNotFoundError(ref.full_name)
        ref.resolve_with(info)
        return info

    def try_resolve(self, ref: TypeRef) -> Optional[TypeInfo]:
        try:
            return self.resolve(ref)
        except TypeNotFoundError:
            return None

    # -- iteration -------------------------------------------------------------

    def __iter__(self) -> Iterator[TypeInfo]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def user_types(self) -> List[TypeInfo]:
        """All registered non-builtin types."""
        return [t for t in self._by_name.values() if t.full_name not in BUILTINS]


class BoundedMemo(dict):
    """A memo of at most ``cap`` entries: :meth:`put` starts it over when
    it is full.

    With an ``owner`` registry it holds what was derived at the epoch in
    :attr:`epoch`, and :meth:`fresh` empties it once the owner's epoch
    has moved on (an entry computed while the epoch moved is dropped on
    the next read).  Per-value paths inline that test before ``get``, so
    a hit costs no Python call.  Without an owner it memoizes a pure
    function and only the cap applies.
    """

    __slots__ = ("cap", "owner", "epoch")

    def __init__(self, cap: int, owner: Optional[TypeRegistry] = None):
        super().__init__()
        self.cap = cap
        self.owner = owner
        self.epoch = owner.epoch if owner is not None else 0

    def fresh(self) -> "BoundedMemo":
        """This memo, emptied first if its owner's epoch moved on."""
        epoch = self.owner.epoch
        if epoch != self.epoch:
            self.clear()
            self.epoch = epoch
        return self

    def put(self, key: Hashable, value: Any) -> None:
        if len(self) >= self.cap:
            self.clear()
        self[key] = value
