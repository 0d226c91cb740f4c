"""The compiled IL executor is invisible: reference-loop equivalence.

``Interpreter`` compiles each method body once into closures (one per
instruction, run by one closure per basic block).  That is an
optimisation, not a behaviour change: for generated bodies over all 21
opcodes -- well-formed stack code, loops, calls, ``NEW``, index ops, and
ill-formed programs (stack underflow, bad slots and argument indexes,
malformed call arguments, unknown operators) -- the compiled form must
agree with a test-local copy of the instruction-by-instruction loop it
replaced on the return value, the exception type and message, the
receiver's fields and the environment's call log.

Two sanctioned differences:

* the step budget is charged per basic block before the block runs, so
  the compiled form may raise ``IlLimitExceeded`` up to one block earlier.
  Runaway loops raise it on both;
* a body whose locals count is not an integer, or with a jump target that
  is not an int in ``[0, len(instructions)]`` (negative, past the end,
  ``None``, a float), is rejected: every call raises ``IlRuntimeError``
  before anything runs, where the old loop ran until it indexed the
  instruction list with the target.

Also here: the binary decoder's memo from a type literal (GUID + name) to
its type plan must never outlive what the registry says.
"""

from typing import Any, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cts.builder import TypeBuilder
from repro.il.instructions import BINARY_OPERATORS, Instr, MethodBody, Op
from repro.il.interp import (
    ExecutionEnvironment,
    IlLimitExceeded,
    IlRuntimeError,
    Interpreter,
)
from repro.runtime.loader import Runtime
from repro.serialization.binary import BinarySerializer
from repro.serialization.errors import UnknownTypeError

MAX_STEPS = 300


# -- the reference: the instruction-by-instruction loop --------------------

def _ref_binary(op, lhs, rhs):
    if op == "&":
        return _ref_stringify(lhs) + _ref_stringify(rhs)
    if op == "+":
        if isinstance(lhs, str) or isinstance(rhs, str):
            return _ref_stringify(lhs) + _ref_stringify(rhs)
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        if isinstance(lhs, int) and isinstance(rhs, int):
            if rhs == 0:
                raise IlRuntimeError("integer division by zero")
            quotient = abs(lhs) // abs(rhs)
            return quotient if (lhs >= 0) == (rhs >= 0) else -quotient
        return lhs / rhs
    if op == "%":
        if rhs == 0:
            raise IlRuntimeError("modulo by zero")
        remainder = abs(lhs) % abs(rhs)
        return remainder if lhs >= 0 else -remainder
    if op == "==":
        return lhs == rhs
    if op == "!=":
        return lhs != rhs
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    if op == "&&":
        return bool(lhs) and bool(rhs)
    if op == "||":
        return bool(lhs) or bool(rhs)
    raise IlRuntimeError("unknown binary operator %r" % op)


def _ref_stringify(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _ref_unary(op, operand):
    if op == "-":
        return -operand
    if op == "!":
        return not operand
    raise IlRuntimeError("unknown unary operator %r" % op)


def _ref_index_get(receiver, index):
    if isinstance(receiver, (list, str)):
        if not isinstance(index, int) or isinstance(index, bool):
            raise IlRuntimeError("index must be an integer, got %r" % (index,))
        if not 0 <= index < len(receiver):
            raise IlRuntimeError(
                "index %d out of range (length %d)" % (index, len(receiver)))
        return receiver[index]
    if isinstance(receiver, dict):
        if index not in receiver:
            raise IlRuntimeError("missing key %r" % (index,))
        return receiver[index]
    raise IlRuntimeError("cannot index %r" % type(receiver).__name__)


def _ref_index_set(receiver, index, value):
    if isinstance(receiver, list):
        if not isinstance(index, int) or isinstance(index, bool):
            raise IlRuntimeError("index must be an integer, got %r" % (index,))
        if not 0 <= index < len(receiver):
            raise IlRuntimeError(
                "index %d out of range (length %d)" % (index, len(receiver)))
        receiver[index] = value
        return
    if isinstance(receiver, dict):
        receiver[index] = value
        return
    raise IlRuntimeError("cannot index-assign %r" % type(receiver).__name__)


def _ref_pop_n(stack, count):
    if count == 0:
        return []
    values = stack[-count:]
    del stack[-count:]
    return values


class ReferenceLoop:
    """The executor before compilation, verbatim but for ``steps``, which
    it keeps after a run so a test can see how far it got."""

    def __init__(self, env, max_steps):
        self.env = env
        self.max_steps = max_steps
        self.steps = 0

    def execute(self, body, self_obj, args):
        stack: List[Any] = []
        locals_: List[Any] = [None] * max(body.n_locals, 0)
        instructions = body.instructions
        n = len(instructions)
        pc = 0
        self.steps = 0
        while pc < n:
            self.steps += 1
            if self.steps > self.max_steps:
                raise IlLimitExceeded(
                    "method exceeded %d instruction steps" % self.max_steps)
            instr = instructions[pc]
            op = instr.op
            pc += 1
            if op is Op.PUSH_CONST:
                stack.append(instr.arg)
            elif op is Op.LOAD_ARG:
                try:
                    stack.append(args[instr.arg])
                except IndexError:
                    raise IlRuntimeError(
                        "argument index %r out of range (got %d args)"
                        % (instr.arg, len(args)))
            elif op is Op.LOAD_LOCAL:
                stack.append(locals_[instr.arg])
            elif op is Op.STORE_LOCAL:
                locals_[instr.arg] = stack.pop()
            elif op is Op.LOAD_SELF:
                stack.append(self_obj)
            elif op is Op.GET_FIELD:
                receiver = stack.pop()
                stack.append(self.env.get_field(receiver, instr.arg))
            elif op is Op.SET_FIELD:
                value = stack.pop()
                receiver = stack.pop()
                self.env.set_field(receiver, instr.arg, value)
            elif op is Op.CALL_METHOD:
                name, argc = instr.arg
                call_args = _ref_pop_n(stack, argc)
                receiver = stack.pop()
                stack.append(self.env.call_method(receiver, name, call_args))
            elif op is Op.NEW:
                type_name, argc = instr.arg
                ctor_args = _ref_pop_n(stack, argc)
                stack.append(self.env.new_instance(type_name, ctor_args))
            elif op is Op.BIN_OP:
                rhs = stack.pop()
                lhs = stack.pop()
                stack.append(_ref_binary(instr.arg, lhs, rhs))
            elif op is Op.NEW_LIST:
                stack.append(_ref_pop_n(stack, instr.arg))
            elif op is Op.INDEX_GET:
                index = stack.pop()
                receiver = stack.pop()
                stack.append(_ref_index_get(receiver, index))
            elif op is Op.INDEX_SET:
                value = stack.pop()
                index = stack.pop()
                receiver = stack.pop()
                _ref_index_set(receiver, index, value)
            elif op is Op.LIST_LEN:
                receiver = stack.pop()
                if not isinstance(receiver, (list, str, dict)):
                    raise IlRuntimeError(
                        "length of non-collection %r" % type(receiver).__name__)
                stack.append(len(receiver))
            elif op is Op.UN_OP:
                stack.append(_ref_unary(instr.arg, stack.pop()))
            elif op is Op.JUMP:
                pc = instr.arg
            elif op is Op.JUMP_IF_FALSE:
                if not stack.pop():
                    pc = instr.arg
            elif op is Op.POP:
                stack.pop()
            elif op is Op.DUP:
                stack.append(stack[-1])
            elif op is Op.RETURN:
                return stack.pop()
            elif op is Op.RETURN_VOID:
                return None
            else:
                raise IlRuntimeError("unhandled opcode %s" % op)
        return None


# -- a logging environment ---------------------------------------------------

class Obj:
    """A receiver with fields; labelled by creation order so two runs
    compare by structure, not identity."""

    def __init__(self, label, fields):
        self.label = label
        self.fields = fields

    def __repr__(self):
        return "Obj#%d" % self.label


class LoggingEnv(ExecutionEnvironment):
    def __init__(self):
        self.log: List[Any] = []
        self.created = 0

    def make(self, fields):
        self.created += 1
        return Obj(self.created, fields)

    def get_field(self, receiver, name):
        self.log.append(("get", _norm(receiver), name))
        if isinstance(receiver, Obj) and name in receiver.fields:
            return receiver.fields[name]
        raise LookupError("no field %r on %r" % (name, receiver))

    def set_field(self, receiver, name, value):
        self.log.append(("set", _norm(receiver), name, _norm(value)))
        if not isinstance(receiver, Obj):
            raise TypeError("cannot set %r on %r" % (name, receiver))
        receiver.fields[name] = value

    def call_method(self, receiver, name, args):
        self.log.append(("call", _norm(receiver), name, _norm(list(args))))
        if name == "boom":
            raise ValueError("boom on %r" % (receiver,))
        if name == "bump" and isinstance(receiver, Obj):
            receiver.fields["x"] = receiver.fields.get("x", 0) + 1
            return receiver.fields["x"]
        if name == "items":
            return [len(args), "a", None]
        if name == "table":
            return {"k": len(args), 1: "one"}
        return len(args) + 1

    def new_instance(self, type_name, args):
        self.log.append(("new", type_name, _norm(list(args))))
        return self.make({"x": len(args), "args": list(args)})


def _norm(value):
    if isinstance(value, Obj):
        return ("obj", value.label)
    if isinstance(value, list):
        return ["list"] + [_norm(v) for v in value]
    if isinstance(value, dict):
        return ("dict", sorted((repr(k), _norm(v)) for k, v in value.items()))
    if isinstance(value, float):
        return ("float", repr(value))
    return (type(value).__name__, value)


def _outcome(run):
    try:
        return ("ok", _norm(run()))
    except Exception as exc:  # the property compares every failure
        return ("raise", type(exc).__name__, str(exc))


def _world():
    env = LoggingEnv()
    receiver = env.make({"x": 1, "y": "s", "items": [1, 2]})
    args = [5, env.make({"x": 7}), "t"]
    return env, receiver, args


def rejected(body):
    """Is ``body`` one the compiler refuses (see the module docstring)?"""
    n = len(body.instructions)
    return type(body.n_locals) is not int or any(
        i.op in (Op.JUMP, Op.JUMP_IF_FALSE)
        and (type(i.arg) is not int or not 0 <= i.arg <= n)
        for i in body.instructions)


def compare(body, max_steps=MAX_STEPS):
    if rejected(body):
        env_c, self_c, args_c = _world()
        compiled = Interpreter(env_c, max_steps=max_steps).compile(body)
        for _ in range(2):  # on every call, before anything runs
            got = _outcome(lambda: compiled(self_c, args_c))
            assert got[:2] == ("raise", "IlRuntimeError"), got
            assert env_c.log == []
        return got
    env_r, self_r, args_r = _world()
    reference = ReferenceLoop(env_r, max_steps)
    expected = _outcome(lambda: reference.execute(body, self_r, args_r))

    env_c, self_c, args_c = _world()
    compiled = Interpreter(env_c, max_steps=max_steps).compile(body)
    got = _outcome(lambda: compiled(self_c, args_c))

    limit = ("raise", "IlLimitExceeded",
             "method exceeded %d instruction steps" % max_steps)
    if got == limit:
        # Charged per block before it runs: the compiled form stops at or
        # before where the reference did, within one block of the budget.
        assert expected == limit or (
            reference.steps > max_steps - len(body.instructions)), (
            expected, reference.steps)
        assert env_c.log == env_r.log[:len(env_c.log)]
        return got
    assert expected != limit, got
    assert got == expected
    assert _norm(self_c.fields) == _norm(self_r.fields)
    assert env_c.log == env_r.log
    return got


# -- generated bodies --------------------------------------------------------

constants = (st.integers(-3, 5) | st.sampled_from(["", "a", "7"])
             | st.sampled_from([True, False, None, 1.5, -0.5]))
names = st.sampled_from(["x", "y", "items", "missing"])
methods = st.sampled_from(["f", "bump", "boom", "items", "table"])
binary_tokens = st.sampled_from(BINARY_OPERATORS + ("**",))
odd_targets = st.sampled_from([None, 1.5, "x", -100, True])


def _arg_for(draw, op, n):
    if op is Op.PUSH_CONST:
        return draw(constants)
    if op in (Op.LOAD_ARG, Op.LOAD_LOCAL, Op.STORE_LOCAL):
        return draw(st.integers(-2, 4) | st.just("0"))
    if op in (Op.GET_FIELD, Op.SET_FIELD):
        return draw(names)
    if op is Op.CALL_METHOD:
        return draw(st.tuples(methods, st.integers(0, 2))
                    | st.sampled_from([("f", -1), "f", ["f", 1], ("f", True)]))
    if op is Op.NEW:
        return draw(st.tuples(st.just("T"), st.integers(0, 2))
                    | st.sampled_from([("T", -1), None]))
    if op is Op.BIN_OP:
        return draw(binary_tokens)
    if op is Op.UN_OP:
        return draw(st.sampled_from(["-", "!", "~"]))
    if op is Op.NEW_LIST:
        return draw(st.integers(-1, 3))
    if op in (Op.JUMP, Op.JUMP_IF_FALSE):
        return draw(st.integers(0, n) | st.integers(-n - 1, n + 1) | odd_targets)
    return None


@st.composite
def arbitrary_bodies(draw):
    """Any instruction sequence: mostly ill-formed."""
    n = draw(st.integers(1, 14))
    ops = draw(st.lists(st.sampled_from(list(Op)), min_size=n, max_size=n))
    instrs = [Instr(op, _arg_for(draw, op, n)) for op in ops]
    return MethodBody(instrs, n_locals=draw(st.integers(-1, 3)))


#: (op, pops, pushes) for stack-aware generation of straight-line code.
_STACK_EFFECT = {
    Op.PUSH_CONST: (0, 1), Op.LOAD_ARG: (0, 1), Op.LOAD_LOCAL: (0, 1),
    Op.LOAD_SELF: (0, 1), Op.STORE_LOCAL: (1, 0), Op.GET_FIELD: (1, 1),
    Op.SET_FIELD: (2, 0), Op.BIN_OP: (2, 1), Op.UN_OP: (1, 1),
    Op.INDEX_GET: (2, 1), Op.INDEX_SET: (3, 0), Op.LIST_LEN: (1, 1),
    Op.POP: (1, 0), Op.DUP: (1, 2),
}


def _straight_line(draw, depth, length):
    """Stack-respecting code; returns (instructions, final depth)."""
    out = []
    for _ in range(length):
        choices = [op for op, (pops, _) in _STACK_EFFECT.items() if pops <= depth]
        choices += [Op.CALL_METHOD, Op.NEW_LIST, Op.NEW] if depth >= 1 else [Op.NEW]
        op = draw(st.sampled_from(choices))
        if op is Op.CALL_METHOD:
            argc = draw(st.integers(0, depth - 1))
            out.append(Instr(op, (draw(methods), argc)))
            depth -= argc
        elif op is Op.NEW:
            argc = draw(st.integers(0, depth))
            out.append(Instr(op, ("T", argc)))
            depth -= argc - 1
        elif op is Op.NEW_LIST:
            count = draw(st.integers(0, depth))
            out.append(Instr(op, count))
            depth -= count - 1
        else:
            pops, pushes = _STACK_EFFECT[op]
            if op in (Op.LOAD_ARG,):
                arg = draw(st.integers(0, 2))
            elif op in (Op.LOAD_LOCAL, Op.STORE_LOCAL):
                arg = draw(st.integers(0, 1))
            elif op is Op.GET_FIELD:
                arg = draw(st.sampled_from(["x", "y", "items"]))
            else:
                arg = _arg_for(draw, op, 0)
            out.append(Instr(op, arg))
            depth += pushes - pops
    return out, depth


@st.composite
def stack_bodies(draw):
    """Mostly well-formed bodies: straight-line code, an if/else that
    leaves values on the stack across blocks, and counted loops."""
    shape = draw(st.sampled_from(["line", "branch", "loop"]))
    code, depth = _straight_line(draw, 0, draw(st.integers(0, 10)))
    if shape == "branch":
        code.append(Instr(Op.LOAD_ARG, 0))
        code.append(Instr(Op.PUSH_CONST, draw(st.integers(0, 6))))
        code.append(Instr(Op.BIN_OP, "<"))
        jump_else = len(code)
        code.append(Instr(Op.JUMP_IF_FALSE, None))
        then, _ = _straight_line(draw, depth, draw(st.integers(0, 5)))
        code += then
        jump_end = len(code)
        code.append(Instr(Op.JUMP, None))
        code[jump_else] = Instr(Op.JUMP_IF_FALSE, len(code))
        other, _ = _straight_line(draw, depth, draw(st.integers(0, 5)))
        code += other
        code[jump_end] = Instr(Op.JUMP, len(code))
    elif shape == "loop":
        # local 1 counts from 0 to a bound (0..4, or runaway)
        bound = draw(st.integers(0, 4) | st.just(None))
        code += [Instr(Op.PUSH_CONST, 0), Instr(Op.STORE_LOCAL, 1)]
        head = len(code)
        if bound is None:
            code.append(Instr(Op.PUSH_CONST, True))
        else:
            code += [Instr(Op.LOAD_LOCAL, 1), Instr(Op.PUSH_CONST, bound),
                     Instr(Op.BIN_OP, "<")]
        exit_jump = len(code)
        code.append(Instr(Op.JUMP_IF_FALSE, None))
        inner, _ = _straight_line(draw, 0, draw(st.integers(0, 6)))
        code += inner
        code += [Instr(Op.LOAD_LOCAL, 1), Instr(Op.PUSH_CONST, 1),
                 Instr(Op.BIN_OP, "+"), Instr(Op.STORE_LOCAL, 1),
                 Instr(Op.JUMP, head)]
        code[exit_jump] = Instr(Op.JUMP_IF_FALSE, len(code))
    code.append(Instr(draw(st.sampled_from([Op.RETURN, Op.RETURN_VOID]))))
    return MethodBody(code, n_locals=2)


@settings(max_examples=400, deadline=None)
@given(arbitrary_bodies())
def test_arbitrary_bodies_match_reference(body):
    compare(body)


@settings(max_examples=400, deadline=None)
@given(stack_bodies())
def test_stack_bodies_match_reference(body):
    compare(body)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_runaway_loops_raise_on_both(data):
    inner, _ = _straight_line(data.draw, 0, data.draw(st.integers(0, 6)))
    inner = [i for i in inner if i.op is not Op.CALL_METHOD
             or i.arg[0] != "boom"]
    body = MethodBody(inner + [Instr(Op.JUMP, 0)], n_locals=2)
    got = compare(body, max_steps=200)
    if got[0] == "raise" and got[1] != "IlLimitExceeded":
        return  # the loop body itself fails on its first pass
    assert got == ("raise", "IlLimitExceeded",
                   "method exceeded 200 instruction steps")


@pytest.mark.parametrize("instrs", [
    # the getter, a setter, and a self call
    [Instr(Op.LOAD_SELF), Instr(Op.GET_FIELD, "y"), Instr(Op.RETURN)],
    [Instr(Op.LOAD_SELF), Instr(Op.LOAD_ARG, 0), Instr(Op.SET_FIELD, "x"),
     Instr(Op.RETURN_VOID)],
    [Instr(Op.LOAD_SELF), Instr(Op.LOAD_ARG, 0), Instr(Op.CALL_METHOD, ("f", 1)),
     Instr(Op.RETURN)],
    # a pending read, then a write to what it read
    [Instr(Op.LOAD_SELF), Instr(Op.GET_FIELD, "x"), Instr(Op.LOAD_SELF),
     Instr(Op.PUSH_CONST, 9), Instr(Op.SET_FIELD, "x"), Instr(Op.RETURN)],
    [Instr(Op.PUSH_CONST, 1), Instr(Op.STORE_LOCAL, 0), Instr(Op.LOAD_LOCAL, 0),
     Instr(Op.PUSH_CONST, 2), Instr(Op.STORE_LOCAL, 0), Instr(Op.RETURN)],
    # a value left on the stack across a join
    [Instr(Op.PUSH_CONST, 1), Instr(Op.LOAD_ARG, 0), Instr(Op.JUMP_IF_FALSE, 5),
     Instr(Op.PUSH_CONST, 2), Instr(Op.BIN_OP, "+"), Instr(Op.RETURN)],
    # a jump to the end returns
    [Instr(Op.PUSH_CONST, 1), Instr(Op.JUMP, 3), Instr(Op.RETURN)],
    # stack underflow in each stack form
    [Instr(Op.BIN_OP, "+")], [Instr(Op.RETURN)], [Instr(Op.DUP)],
    [Instr(Op.PUSH_CONST, 1), Instr(Op.CALL_METHOD, ("f", 2)), Instr(Op.RETURN)],
])
def test_pinned_examples_match_reference(instrs):
    compare(MethodBody(instrs, n_locals=1))


@pytest.mark.parametrize("instrs,n_locals,message", [
    ([Instr(Op.RETURN_VOID)], "2", "locals count must be an integer, got '2'"),
    ([Instr(Op.RETURN_VOID)], 1.5, "locals count must be an integer, got 1.5"),
    ([Instr(Op.RETURN_VOID)], None, "locals count must be an integer, got None"),
    # a negative target, a target past the end, None, a float, a bool
    ([Instr(Op.LOAD_SELF), Instr(Op.CALL_METHOD, ("bump", 0)), Instr(Op.JUMP, -2)],
     1, "jump target -2 at 2 outside 0..3"),
    ([Instr(Op.JUMP, 9), Instr(Op.PUSH_CONST, 1), Instr(Op.RETURN)],
     1, "jump target 9 at 0 outside 0..3"),
    ([Instr(Op.JUMP, None)], 1, "jump target None at 0 outside 0..1"),
    ([Instr(Op.PUSH_CONST, 1), Instr(Op.JUMP_IF_FALSE, 0.5), Instr(Op.RETURN)],
     1, "jump target 0.5 at 1 outside 0..3"),
    ([Instr(Op.JUMP, True), Instr(Op.RETURN_VOID)],
     1, "jump target True at 0 outside 0..2"),
])
def test_malformed_bodies_are_rejected_on_every_call(instrs, n_locals, message):
    body = MethodBody(instrs, n_locals=n_locals)
    assert rejected(body)
    assert compare(body) == ("raise", "IlRuntimeError", message)


# -- decode memo -------------------------------------------------------------

def _type(name, field="name"):
    """Types differ in GUID when their fields differ."""
    return TypeBuilder("memo." + name).field(field, "string").build()


def test_type_registered_after_memo_is_warm():
    sender, receiver = Runtime(), Runtime()
    a, b = _type("A"), _type("B")
    for info in (a, b):
        sender.load_type(info)
    receiver.load_type(a)
    out = BinarySerializer(sender)
    payload_a = out.serialize(sender.instantiate(a))
    payload_b = out.serialize(sender.instantiate(b))
    decoder = BinarySerializer(receiver)
    assert decoder.deserialize(payload_a).type_info is a
    with pytest.raises(UnknownTypeError):
        decoder.deserialize(payload_b)
    receiver.load_type(b)
    assert decoder.deserialize(payload_b).type_info is b
    assert decoder.deserialize(payload_a).type_info is a
    # Replaced in place (same name and GUID, a new object): the memo
    # entry for the literal must not outlive the registry version.
    replacement = _type("A")
    assert replacement.guid == a.guid and replacement is not a
    receiver.load_type(replacement, replace=True)
    assert decoder.deserialize(payload_a).type_info is replacement


def test_shadowed_version_decodes_as_its_own_type():
    v1 = _type("Person", field="name")
    v2 = _type("Person", field="fullName")
    assert v1.guid != v2.guid
    sender, receiver = Runtime(), Runtime()
    sender.load_type(v1)
    sender.load_type(v2, shadow=True)
    receiver.load_type(v1)
    out = BinarySerializer(sender)
    first = out.serialize(sender.instantiate(v1))
    second = out.serialize(sender.raw_instance(v2, {"fullName": "Ada"}))
    decoder = BinarySerializer(receiver)
    assert decoder.deserialize(first).type_info is v1  # the memo is warm
    with pytest.raises(UnknownTypeError):
        decoder.deserialize(second)  # same name, other GUID: never v1
    receiver.load_type(v2, shadow=True)
    for payload, info, fields in ((second, v2, {"fullName": "Ada"}),
                                  (first, v1, {"name": None})):
        value = decoder.deserialize(payload)
        assert value.type_info is info
        assert value.fields == fields
        assert decoder.last_schema_drift == []
