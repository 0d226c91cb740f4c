"""The runtime: loads assemblies and executes loaded types.

This plays the role of the CLR in the paper's stack.  "Downloading the code"
over the optimistic protocol ends with :meth:`Runtime.load_assembly`; from
then on the peer can deserialize and invoke instances of the new types.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from ..cts.assembly import Assembly
from ..cts.members import MethodInfo, TypeRef, Visibility
from ..cts.registry import BoundedMemo, TypeNotFoundError, TypeRegistry
from ..cts.types import BOOL, DOUBLE, FLOAT, INT, LONG, STRING, TypeInfo
from ..il.instructions import MethodBody
from ..il.interp import ExecutionEnvironment, Interpreter
from .objects import CtsInstance, UnknownFieldError, UnknownMethodError, is_invokable


class AbstractMethodError(Exception):
    """Raised when invoking a method that has a signature but no body."""


class ConstructorNotFoundError(Exception):
    pass


class _RuntimeEnvironment(ExecutionEnvironment):
    """Bridges the IL interpreter to the runtime's object model."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime

    def get_field(self, receiver: Any, name: str) -> Any:
        if isinstance(receiver, CtsInstance):
            try:
                return receiver.fields[name]
            except KeyError:
                return receiver.get_field(name)  # raises UnknownFieldError
        if receiver is None:
            raise UnknownFieldError("null reference: cannot read field %r" % name)
        if isinstance(receiver, (list, str, dict)) and name in ("Length", "Count"):
            return len(receiver)
        return getattr(receiver, name)

    def set_field(self, receiver: Any, name: str, value: Any) -> None:
        if isinstance(receiver, CtsInstance):
            receiver.set_field(name, value)
            return
        if receiver is None:
            raise UnknownFieldError("null reference: cannot write field %r" % name)
        setattr(receiver, name, value)

    def call_method(self, receiver: Any, name: str, args: Sequence[Any]) -> Any:
        if is_invokable(receiver):
            return receiver._repro_invoke(name, args)
        if receiver is None:
            raise UnknownMethodError("null reference: cannot call %r" % name)
        return getattr(receiver, name)(*args)

    def new_instance(self, type_name: str, args: Sequence[Any]) -> Any:
        return self.runtime.new_instance(type_name, list(args))


#: Default values of primitive-typed fields (CLR semantics: numeric fields
#: start at zero, booleans at false; reference fields at null).
_FIELD_DEFAULTS = {
    INT.full_name: 0,
    LONG.full_name: 0,
    FLOAT.full_name: 0.0,
    DOUBLE.full_name: 0.0,
    BOOL.full_name: False,
}


def default_field_value(type_ref: Optional[TypeRef]) -> Any:
    if type_ref is None:
        return None
    return _FIELD_DEFAULTS.get(type_ref.full_name)


#: A compiled member body: ``call(receiver, args)``.
_Call = Callable[[Any, Sequence[Any]], Any]

#: Bound on each per-type plan memo (types are few; unregistered TypeInfo
#: objects built per call must not grow it without limit).
_MAX_PLANS = 1024


class Runtime:
    """Owns a type registry and executes IL or native method bodies."""

    def __init__(self, registry: Optional[TypeRegistry] = None, max_steps: int = 1_000_000):
        self.registry = registry if registry is not None else TypeRegistry()
        self._interpreter = Interpreter(_RuntimeEnvironment(self), max_steps=max_steps)
        self._loaded_assemblies: Dict[str, Assembly] = {}
        #: Per-type runtime plans, keyed by TypeInfo identity (each entry
        #: holds its TypeInfo, so the id stays its own): invocation plans
        #: ``(id, name)``, each a dict from call arity to the compiled body
        #: to run (``None`` when the type has no method of that name);
        #: constructor calls ``(id, arity)``; field-defaults templates
        #: ``id``.  Superclass resolution depends on what is registered, so
        #: each lives for one type epoch.
        self._calls = BoundedMemo(_MAX_PLANS, self.registry)
        self._ctors = BoundedMemo(_MAX_PLANS, self.registry)
        self._defaults = BoundedMemo(_MAX_PLANS, self.registry)

    # -- loading ------------------------------------------------------------

    def load_type(self, info: TypeInfo, replace: bool = False,
                  shadow: bool = False) -> TypeInfo:
        return self.registry.register(info, replace=replace, shadow=shadow)

    def load_assembly(self, assembly: Assembly, replace: bool = False,
                      shadow: bool = False) -> None:
        for info in assembly.types:
            self.load_type(info, replace=replace, shadow=shadow)
        self._loaded_assemblies[assembly.name] = assembly

    def has_assembly(self, name: str) -> bool:
        return name in self._loaded_assemblies

    def loaded_assemblies(self) -> List[str]:
        return sorted(self._loaded_assemblies)

    # -- type walking ------------------------------------------------------------

    def _type_chain(self, info: TypeInfo) -> List[TypeInfo]:
        """The type followed by its resolvable superclass chain."""
        chain = [info]
        current = info
        seen = {info.full_name}
        while current.superclass is not None:
            parent = self.registry.try_resolve(current.superclass)
            if parent is None or parent.full_name in seen:
                break
            chain.append(parent)
            seen.add(parent.full_name)
            current = parent
        return chain

    def find_method(self, info: TypeInfo, name: str,
                    arity: Optional[int] = None) -> Optional[MethodInfo]:
        for holder in self._type_chain(info):
            method = holder.find_method(name, arity)
            if method is not None:
                return method
        return None

    def all_fields(self, info: TypeInfo):
        fields = []
        seen = set()
        for holder in self._type_chain(info):
            for field in holder.fields:
                if field.name not in seen:
                    seen.add(field.name)
                    fields.append(field)
        return fields

    def field_defaults(self, info: TypeInfo) -> Dict[str, Any]:
        """The per-type template every new instance's fields start from
        (callers copy it; valid for the current type epoch)."""
        hit = self._defaults.fresh().get(id(info))
        if hit is not None:
            return hit[1]
        template = {f.name: default_field_value(f.type_ref)
                    for f in self.all_fields(info)}
        self._defaults.put(id(info), (info, template))
        return template

    # -- compiled member bodies --------------------------------------------------

    def _body_call(self, body: Any, owner: TypeInfo, member: str) -> _Call:
        """The callable running ``body``; ``Type.member`` is formatted only
        when it raises."""
        if isinstance(body, MethodBody):
            return self._interpreter.compile(body)
        if body is not None and callable(body):
            def native(self_obj: Any, args: Sequence[Any]) -> Any:
                return body(self_obj, *args)
            return native

        def fail(self_obj: Any, args: Sequence[Any]) -> Any:
            what = "%s.%s" % (owner.full_name, member)
            if body is None:
                raise AbstractMethodError("%s has no body" % what)
            raise TypeError("unsupported body kind for %s: %r" % (what, type(body)))
        return fail

    def _method_plan(self, info: TypeInfo, name: str) -> Optional[Dict[int, _Call]]:
        """Arity -> compiled body for ``info.name`` (filled on demand), or
        ``None`` when the type has no method of that name."""
        key = (id(info), name)
        hit = self._calls.fresh().get(key)
        if hit is not None:
            return hit[1]
        plan = {} if self.find_method(info, name) is not None else None
        self._calls.put(key, (info, plan))
        return plan

    def _plan_call(self, info: TypeInfo, name: str, arity: int,
                   plan: Dict[int, _Call]) -> _Call:
        """Compile the body a call of ``arity`` arguments runs: the method
        of that arity, else the one by name alone."""
        method = self.find_method(info, name, arity=arity)
        if method is None:
            method = self.find_method(info, name)
        call = plan[arity] = self._body_call(method.body, info, name)
        return call

    def bound_method(self, receiver: CtsInstance, name: str) -> Optional[Callable[..., Any]]:
        """``receiver.name`` as a Python callable, resolved now (``None``
        when the type has no method of that name)."""
        info = receiver.type_info
        plan = self._method_plan(info, name)
        if plan is None:
            return None

        def bound(*args: Any) -> Any:
            call = plan.get(len(args))
            if call is None:
                call = self._plan_call(info, name, len(args), plan)
            return call(receiver, args)

        bound.__name__ = name
        return bound

    def _ctor_call(self, info: TypeInfo, arity: int) -> Optional[_Call]:
        key = (id(info), arity)
        hit = self._ctors.fresh().get(key)
        if hit is not None:
            return hit[1]
        ctor = None
        for holder in self._type_chain(info):
            ctor = holder.find_constructor(arity)
            if ctor is not None:
                break
        call = self._body_call(ctor.body, info, ".ctor") if ctor is not None else None
        self._ctors.put(key, (info, call))
        return call

    # -- instantiation ------------------------------------------------------------

    def new_instance(self, type_name: str, args: Optional[List[Any]] = None) -> CtsInstance:
        args = args if args is not None else []
        info = self.registry.require(type_name)
        return self.instantiate(info, args)

    def instantiate(self, info: TypeInfo, args: Optional[List[Any]] = None) -> CtsInstance:
        args = args if args is not None else []
        instance = CtsInstance(info, self, self.field_defaults(info).copy())
        ctor = self._ctor_call(info, len(args))
        if ctor is None:
            if args:
                raise ConstructorNotFoundError(
                    "%s has no constructor of arity %d" % (info.full_name, len(args))
                )
            return instance  # implicit default constructor
        ctor(instance, args)
        return instance

    def raw_instance(self, info: TypeInfo, fields: Dict[str, Any]) -> CtsInstance:
        """Create an instance without running a constructor (deserialization)."""
        base = self.field_defaults(info).copy()
        base.update(fields)
        return CtsInstance(info, self, base)

    # -- invocation ------------------------------------------------------------

    def invoke(self, receiver: CtsInstance, method_name: str, args: Optional[Sequence[Any]] = None) -> Any:
        if args is None:
            args = []
        info = receiver.type_info
        calls = self._calls
        if calls.epoch != self.registry.epoch:
            calls.fresh()
        hit = calls.get((id(info), method_name))
        plan = hit[1] if hit is not None else self._method_plan(info, method_name)
        if plan is None:
            raise UnknownMethodError(
                "%s has no method %r" % (info.full_name, method_name)
            )
        call = plan.get(len(args))
        if call is None:
            call = self._plan_call(info, method_name, len(args), plan)
        return call(receiver, args)
