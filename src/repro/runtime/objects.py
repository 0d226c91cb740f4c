"""Runtime object model: instances of CTS types.

A :class:`CtsInstance` is what a loaded type produces: a bag of fields plus a
link back to the runtime for method dispatch.  Instances implement the small
``_repro_invoke`` protocol shared with dynamic proxies, so IL code can call
methods on either without knowing which it holds.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..cts.types import TypeInfo
    from .loader import Runtime


class CtsError(Exception):
    """Base class for runtime object errors."""


class UnknownFieldError(CtsError, AttributeError):
    pass


class UnknownMethodError(CtsError, AttributeError):
    pass


class CtsInstance:
    """An instance of a CTS type, executed by a :class:`Runtime`.

    Fields live in a plain dict; methods dispatch through the owning runtime
    so that IL bodies, native Python bodies and inherited members all work.
    Python-level attribute syntax is supported for ergonomics: reading an
    attribute returns the field value, and calling ``instance.m(...)`` runs
    method ``m``.
    """

    __slots__ = ("type_info", "fields", "_runtime")

    def __init__(self, type_info: "TypeInfo", runtime: "Runtime", fields: Dict[str, Any]):
        object.__setattr__(self, "type_info", type_info)
        object.__setattr__(self, "_runtime", runtime)
        object.__setattr__(self, "fields", fields)

    # -- explicit protocol --------------------------------------------------

    def get_field(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise UnknownFieldError(
                "%s has no field %r" % (self.type_info.full_name, name)
            )

    def set_field(self, name: str, value: Any) -> None:
        if name not in self.fields:
            raise UnknownFieldError(
                "%s has no field %r" % (self.type_info.full_name, name)
            )
        self.fields[name] = value

    def invoke(self, method_name: str, *args: Any) -> Any:
        return self._runtime.invoke(self, method_name, list(args))

    def _repro_invoke(self, method_name: str, args: Sequence[Any]) -> Any:
        return self._runtime.invoke(self, method_name, args)

    def _repro_type(self) -> "TypeInfo":
        return self.type_info

    # -- pythonic sugar --------------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        fields = self.fields
        if name in fields:
            return fields[name]
        bound = self._runtime.bound_method(self, name)
        if bound is None:
            raise UnknownMethodError(
                "%s has no field or method %r" % (self.type_info.full_name, name)
            )
        return bound

    def __setattr__(self, name: str, value: Any) -> None:
        if name in CtsInstance.__slots__:
            object.__setattr__(self, name, value)
        else:
            self.set_field(name, value)

    def __repr__(self) -> str:
        inner = ", ".join("%s=%r" % kv for kv in sorted(self.fields.items()))
        return "<%s {%s}>" % (self.type_info.full_name, inner)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CtsInstance):
            return NotImplemented
        return (
            self.type_info.guid == other.type_info.guid
            and self.fields == other.fields
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)


def is_invokable(value: Any) -> bool:
    """True when ``value`` speaks the ``_repro_invoke`` protocol."""
    return hasattr(value, "_repro_invoke")
