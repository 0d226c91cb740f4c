"""Type model of the common type system (CTS).

This is the substrate the paper gets for free from .NET: a single type
system into which every supported language compiles.  :class:`TypeInfo` is
the reflective view of a type — exactly the information the implicit
structural conformance rules of Section 4 quantify over.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Sequence

from .identity import Guid, type_guid
from .members import (
    ConstructorInfo,
    FieldInfo,
    MethodInfo,
    Modifiers,
    TypeRef,
    Visibility,
)


class TypeKind(enum.Enum):
    CLASS = "class"
    INTERFACE = "interface"
    PRIMITIVE = "primitive"
    ARRAY = "array"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class TypeInfo:
    """The reflective description of a type.

    Structure means: "the type name, the name of its supertypes, the name and
    the type of its fields and the signature of its methods" (Section 4.1) —
    plus constructors, which rule (v) treats like return-less methods.
    """

    def __init__(
        self,
        full_name: str,
        kind: TypeKind = TypeKind.CLASS,
        superclass: Optional[TypeRef] = None,
        interfaces: Sequence[TypeRef] = (),
        fields: Sequence[FieldInfo] = (),
        methods: Sequence[MethodInfo] = (),
        constructors: Sequence[ConstructorInfo] = (),
        assembly_name: str = "default",
        language: str = "cts",
        download_path: Optional[str] = None,
        guid: Optional[Guid] = None,
        element: Optional[TypeRef] = None,
    ):
        self.full_name = full_name
        self.kind = kind
        self.superclass = superclass
        self.interfaces = list(interfaces)
        self.fields = list(fields)
        self.methods = list(methods)
        self.constructors = list(constructors)
        self.assembly_name = assembly_name
        self.language = language
        self.download_path = download_path
        self.element = element  # set for TypeKind.ARRAY only
        self._fingerprint: Optional[str] = None
        self.guid = guid if guid is not None else type_guid(
            assembly_name, full_name, self.fingerprint()
        )

    # -- naming ----------------------------------------------------------

    @property
    def namespace(self) -> str:
        head, _, __ = self.full_name.rpartition(".")
        return head

    @property
    def simple_name(self) -> str:
        return self.full_name.rpartition(".")[2]

    # -- structure -------------------------------------------------------

    @property
    def is_primitive(self) -> bool:
        return self.kind is TypeKind.PRIMITIVE

    @property
    def is_interface(self) -> bool:
        return self.kind is TypeKind.INTERFACE

    @property
    def is_array(self) -> bool:
        return self.kind is TypeKind.ARRAY

    def public_fields(self) -> List[FieldInfo]:
        return [f for f in self.fields if f.visibility is Visibility.PUBLIC]

    def public_methods(self) -> List[MethodInfo]:
        return [m for m in self.methods if m.visibility is Visibility.PUBLIC]

    def public_constructors(self) -> List[ConstructorInfo]:
        return [c for c in self.constructors if c.visibility is Visibility.PUBLIC]

    def find_field(self, name: str) -> Optional[FieldInfo]:
        for field in self.fields:
            if field.name == name:
                return field
        return None

    def find_method(self, name: str, arity: Optional[int] = None) -> Optional[MethodInfo]:
        for method in self.methods:
            if method.name == name and (arity is None or method.arity == arity):
                return method
        return None

    def find_constructor(self, arity: int) -> Optional[ConstructorInfo]:
        for ctor in self.constructors:
            if ctor.arity == arity:
                return ctor
        return None

    def referenced_type_names(self) -> List[str]:
        """Full names of every type this type's surface mentions.

        Used by type descriptions (which are non-recursive: referenced types
        are named, not embedded) and by the transport protocol to know which
        descriptions a receiver may need to fetch.
        """
        names: List[str] = []
        seen = set()

        def add(ref: Optional[TypeRef]) -> None:
            if ref is not None and ref.full_name not in seen:
                seen.add(ref.full_name)
                names.append(ref.full_name)

        add(self.superclass)
        for iface in self.interfaces:
            add(iface)
        for field in self.fields:
            add(field.type_ref)
        for method in self.methods:
            add(method.return_type)
            for param in method.parameters:
                add(param.type_ref)
        for ctor in self.constructors:
            for param in ctor.parameters:
                add(param.type_ref)
        return names

    def fingerprint(self) -> str:
        """A canonical structural summary used to derive the type identity.

        Case-sensitive and modifier-aware: two types are *equivalent*
        (definition 3) only when they are interchangeable without any
        translation — case-insensitive or renamed matches go through the
        full structural rules instead, producing a witness mapping.

        Memoised: the structure is final once the identity is derived, so
        the summary is computed at most once per type.
        """
        cached = self._fingerprint
        if cached is None:
            cached = self._compute_fingerprint()
            self._fingerprint = cached
        return cached

    def _compute_fingerprint(self) -> str:
        parts: List[str] = [self.kind.value, self.full_name]
        if self.element is not None:
            parts.append("element:%s" % self.element.full_name)
        if self.superclass is not None:
            parts.append("super:%s" % self.superclass.full_name)
        for iface in sorted(i.full_name for i in self.interfaces):
            parts.append("iface:%s" % iface)
        for field in sorted(self.fields, key=lambda f: f.name):
            parts.append(
                "field:%s:%s:%s:%s"
                % (
                    field.name,
                    field.type_ref.full_name,
                    field.visibility.value,
                    ",".join(field.modifiers.tokens()),
                )
            )
        for method in sorted(self.methods, key=lambda m: (m.name, m.arity)):
            parts.append(
                "method:%s:%s:%s:%s:%s"
                % (
                    method.name,
                    ",".join(method.parameter_type_names()),
                    method.return_type.full_name,
                    method.visibility.value,
                    ",".join(method.modifiers.tokens()),
                )
            )
        for ctor in sorted(self.constructors, key=lambda c: c.arity):
            parts.append(
                "ctor:%s:%s"
                % (",".join(ctor.parameter_type_names()), ctor.visibility.value)
            )
        return "|".join(parts)

    def __repr__(self) -> str:
        return "TypeInfo(%s %s)" % (self.kind, self.full_name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TypeInfo):
            return NotImplemented
        return self.guid == other.guid

    def __hash__(self) -> int:
        return hash(self.guid)


# ---------------------------------------------------------------------------
# Primitive and root types.  The CTS mirrors .NET's: a single root ``Object``
# plus a fixed set of primitives shared by every language frontend.
# ---------------------------------------------------------------------------


def _primitive(name: str) -> TypeInfo:
    return TypeInfo(name, kind=TypeKind.PRIMITIVE, assembly_name="system")


OBJECT = TypeInfo("System.Object", kind=TypeKind.CLASS, assembly_name="system")
VOID = _primitive("System.Void")
BOOL = _primitive("System.Boolean")
INT = _primitive("System.Int32")
LONG = _primitive("System.Int64")
FLOAT = _primitive("System.Single")
DOUBLE = _primitive("System.Double")
STRING = _primitive("System.String")
CHAR = _primitive("System.Char")

PRIMITIVES: Dict[str, TypeInfo] = {
    t.full_name: t
    for t in (VOID, BOOL, INT, LONG, FLOAT, DOUBLE, STRING, CHAR)
}

BUILTINS: Dict[str, TypeInfo] = dict(PRIMITIVES)
BUILTINS[OBJECT.full_name] = OBJECT

#: Short aliases accepted by language frontends and the type builder.
PRIMITIVE_ALIASES: Dict[str, TypeInfo] = {
    "void": VOID,
    "bool": BOOL,
    "boolean": BOOL,
    "int": INT,
    "integer": INT,
    "long": LONG,
    "float": FLOAT,
    "single": FLOAT,
    "double": DOUBLE,
    "string": STRING,
    "char": CHAR,
    "object": OBJECT,
}


#: Memoised array types keyed by element full name.
_ARRAY_CACHE: Dict[str, TypeInfo] = {}


def array_of(element) -> TypeInfo:
    """The array type over ``element`` (a :class:`TypeInfo` or resolved ref).

    Array types are structural: the same element type always yields the
    same array type object (and identity).  Conformance between arrays is
    covariant in the element (CTS semantics).
    """
    if isinstance(element, TypeRef):
        if element.resolved is None:
            raise ValueError("array_of requires a resolved element")
        element = element.resolved
    cached = _ARRAY_CACHE.get(element.full_name)
    if cached is not None:
        return cached
    info = TypeInfo(
        element.full_name + "[]",
        kind=TypeKind.ARRAY,
        superclass=TypeRef.to(OBJECT),
        assembly_name="system",
        element=TypeRef.to(element),
    )
    _ARRAY_CACHE[element.full_name] = info
    return info


def lookup_builtin(name: str) -> Optional[TypeInfo]:
    """Resolve a builtin by full name or by language-level alias.

    Array spellings (``int[]``, ``System.String[]``, nested ``int[][]``)
    resolve when their element resolves.
    """
    if name.endswith("[]"):
        element = lookup_builtin(name[:-2])
        if element is None:
            return None
        return array_of(element)
    if name in BUILTINS:
        return BUILTINS[name]
    return PRIMITIVE_ALIASES.get(name.lower())


def builtin_ref(name: str) -> TypeRef:
    """A resolved :class:`TypeRef` to a builtin; raises if unknown."""
    info = lookup_builtin(name)
    if info is None:
        raise KeyError("unknown builtin type: %r" % name)
    return TypeRef.to(info)


def python_value_type(value: object) -> TypeInfo:
    """Map a Python runtime value to its CTS primitive type."""
    if value is None:
        return OBJECT
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return INT
    if isinstance(value, float):
        return DOUBLE
    if isinstance(value, str):
        return STRING
    return OBJECT
