"""Per-record code reads no enum member as a class attribute.

On CPython 3.11 reading ``Op.RETURN`` or ``Verdict.FAILED`` costs about as
much as a small function call, and an opcode switch pays it per branch.
Code that runs once per delivered object (decode, admission, conformance
verdicts, the IL executor, the view call) must use module constants or
values bound at compile time instead.  This walks the bytecode of each
named function, nested closures included, and fails on a load of an
``enum.Enum`` subclass followed by an attribute read.
"""

import builtins
import dis
import enum
import types

import pytest

from repro.core.result import ConformanceResult
from repro.il import interp
from repro.il.instructions import Op
from repro.remoting import dynamic
from repro.remoting.dynamic import DynamicProxy
from repro.runtime.loader import Runtime
from repro.runtime.objects import CtsInstance
from repro.serialization import binary
from repro.transport.protocol import InteropPeer

_LOADS = {"LOAD_GLOBAL", "LOAD_NAME", "LOAD_DEREF", "LOAD_CLASSDEREF"}
_ATTR_READS = {"LOAD_ATTR", "LOAD_METHOD"}


def _functions_of_module(module):
    for value in vars(module).values():
        if isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
            yield value
        elif isinstance(value, type) and value.__module__ == module.__name__:
            for member in vars(value).values():
                if isinstance(member, types.FunctionType):
                    yield member


#: name -> the functions (or class attributes) that run per record.
HOT_PATH = {
    "the IL executor (all of repro.il.interp)": list(_functions_of_module(interp)),
    "ConformanceResult.ok": [vars(ConformanceResult)["ok"]],
    "ConformanceResult.needs_proxy": [vars(ConformanceResult)["needs_proxy"]],
    "binary._value": [binary._value],
    "binary._object": [binary._object],
    "binary._string": [binary._string],
    "binary._varint": [binary._varint],
    "binary.BatchDecoder.decode_to": [binary.BatchDecoder.decode_to],
    "InteropPeer._admit": [InteropPeer._admit],
    "InteropPeer._admit_batch_lazy": [InteropPeer._admit_batch_lazy],
    "InteropPeer._admitted": [InteropPeer._admitted],
    "InteropPeer._accepted": [InteropPeer._accepted],
    "InteropPeer._deliver": [InteropPeer._deliver],
    "Runtime.invoke": [Runtime.invoke],
    "CtsInstance.__getattr__": [CtsInstance.__getattr__],
    "DynamicProxy._repro_invoke": [DynamicProxy._repro_invoke],
    "dynamic._proxy_method (each generated proxy method)":
        [dynamic._proxy_method],
}


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _resolve(function, instr):
    name = instr.argval
    if instr.opname in ("LOAD_DEREF", "LOAD_CLASSDEREF"):
        closure = dict(zip(function.__code__.co_freevars,
                           function.__closure__ or ()))
        cell = closure.get(name)
        try:
            return cell.cell_contents if cell is not None else None
        except ValueError:  # an empty cell
            return None
    if name in function.__globals__:
        return function.__globals__[name]
    return getattr(builtins, name, None)


def enum_attribute_reads(target):
    """``["Enum.attr", ...]`` read anywhere in ``target``'s bytecode."""
    if isinstance(target, property):
        target = target.fget
    if isinstance(target, types.MemberDescriptorType):
        return []  # a stored slot: reading it runs no code
    found = []
    for code in _code_objects(target.__code__):
        previous = None
        for instr in dis.get_instructions(code):
            if (previous is not None and instr.opname in _ATTR_READS
                    and previous.opname in _LOADS):
                loaded = _resolve(target, previous)
                if isinstance(loaded, type) and issubclass(loaded, enum.Enum):
                    found.append("%s.%s in %s" % (loaded.__name__, instr.argval,
                                                  code.co_qualname
                                                  if hasattr(code, "co_qualname")
                                                  else code.co_name))
            previous = instr
    return found


@pytest.mark.parametrize("name", sorted(HOT_PATH))
def test_hot_path_reads_no_enum_attribute(name):
    targets = HOT_PATH[name]
    assert targets
    for target in targets:
        assert enum_attribute_reads(target) == []


def test_the_guard_sees_an_enum_read():
    def switch(instr):
        if instr.op is Op.RETURN:
            return 1
        return 0

    assert enum_attribute_reads(switch) == ["Op.RETURN in " + (
        switch.__code__.co_qualname
        if hasattr(switch.__code__, "co_qualname") else "switch")]
