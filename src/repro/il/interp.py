"""Executor for the common intermediate language.

The executor is intentionally environment-parameterised: it never imports
the runtime object model.  Instead the caller supplies an
:class:`ExecutionEnvironment` that knows how to read/write fields, dispatch
method calls and construct objects.  ``repro.runtime.loader`` provides the
production environment; tests can supply minimal fakes.

Method bodies are compiled once into closures, so the opcode switch runs
at compile time and never per call.  Each instruction becomes one closure
over the operand stack with its argument bound; each basic block becomes
one closure that runs its instructions in order and returns the index of
the block to run next.  The getter shape (``load_self; get_field name;
return``) compiles to a single closure that reads the field.

No Python source is generated and nothing is passed to ``exec``: IL
arrives from remote peers in downloaded assemblies, so its field names,
method names, operators and constants reach the closures only as bound
values, never as code.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Sequence

from .instructions import Instr, MethodBody, Op


class IlError(Exception):
    """Base class for interpreter failures."""


class IlRuntimeError(IlError):
    """A well-formed program performed an illegal operation."""


class IlLimitExceeded(IlError):
    """The per-invocation instruction budget or the call-depth cap was
    exhausted (runaway loop or runaway recursion)."""


#: Deepest nesting of IL invocations (a body calling a method or
#: constructor whose body calls another, ...) before IlLimitExceeded,
#: counted across every runtime in the process.  A level costs about eight
#: Python frames through a proxy, so the cap stays well inside CPython's
#: default recursion limit of 1000.
MAX_CALL_DEPTH = 48


class ExecutionEnvironment:
    """Services the interpreter needs from the surrounding runtime."""

    def get_field(self, receiver: Any, name: str) -> Any:
        raise NotImplementedError

    def set_field(self, receiver: Any, name: str, value: Any) -> None:
        raise NotImplementedError

    def call_method(self, receiver: Any, name: str, args: Sequence[Any]) -> Any:
        raise NotImplementedError

    def new_instance(self, type_name: str, args: Sequence[Any]) -> Any:
        raise NotImplementedError


# -- operators ---------------------------------------------------------------


def _stringify(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _concat(lhs: Any, rhs: Any) -> str:
    return _stringify(lhs) + _stringify(rhs)


def _add(lhs: Any, rhs: Any) -> Any:
    if isinstance(lhs, str) or isinstance(rhs, str):
        return _stringify(lhs) + _stringify(rhs)
    return lhs + rhs


def _divide(lhs: Any, rhs: Any) -> Any:
    if isinstance(lhs, int) and isinstance(rhs, int):
        if rhs == 0:
            raise IlRuntimeError("integer division by zero")
        quotient = abs(lhs) // abs(rhs)
        return quotient if (lhs >= 0) == (rhs >= 0) else -quotient
    return lhs / rhs


def _modulo(lhs: Any, rhs: Any) -> Any:
    if rhs == 0:
        raise IlRuntimeError("modulo by zero")
    remainder = abs(lhs) % abs(rhs)
    return remainder if lhs >= 0 else -remainder


def _and(lhs: Any, rhs: Any) -> bool:
    return bool(lhs) and bool(rhs)


def _or(lhs: Any, rhs: Any) -> bool:
    return bool(lhs) or bool(rhs)


#: Binary operator token -> function of (lhs, rhs), resolved at compile time.
_BINARY: Dict[str, Callable[[Any, Any], Any]] = {
    "&": _concat, "+": _add, "-": operator.sub, "*": operator.mul,
    "/": _divide, "%": _modulo,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "&&": _and, "||": _or,
}

#: Unary operator token -> function of the operand.
_UNARY: Dict[str, Callable[[Any], Any]] = {"-": operator.neg, "!": operator.not_}


def _operator(table: Dict[str, Callable], token: Any, kind: str) -> Callable:
    """The function for ``token``, or one that raises the unknown-operator
    error when the instruction runs (never at compile time)."""
    if isinstance(token, str) and token in table:
        return table[token]

    def unknown(*operands: Any) -> Any:
        raise IlRuntimeError("unknown %s operator %r" % (kind, token))

    return unknown


def _index_get(receiver: Any, index: Any) -> Any:
    if isinstance(receiver, (list, str)):
        if not isinstance(index, int) or isinstance(index, bool):
            raise IlRuntimeError("index must be an integer, got %r" % (index,))
        if not 0 <= index < len(receiver):
            raise IlRuntimeError(
                "index %d out of range (length %d)" % (index, len(receiver))
            )
        return receiver[index]
    if isinstance(receiver, dict):
        if index not in receiver:
            raise IlRuntimeError("missing key %r" % (index,))
        return receiver[index]
    raise IlRuntimeError("cannot index %r" % type(receiver).__name__)


def _index_set(receiver: Any, index: Any, value: Any) -> None:
    if isinstance(receiver, list):
        if not isinstance(index, int) or isinstance(index, bool):
            raise IlRuntimeError("index must be an integer, got %r" % (index,))
        if not 0 <= index < len(receiver):
            raise IlRuntimeError(
                "index %d out of range (length %d)" % (index, len(receiver))
            )
        receiver[index] = value
        return
    if isinstance(receiver, dict):
        receiver[index] = value
        return
    raise IlRuntimeError("cannot index-assign %r" % type(receiver).__name__)


def _length(receiver: Any) -> int:
    if not isinstance(receiver, (list, str, dict)):
        raise IlRuntimeError(
            "length of non-collection %r" % type(receiver).__name__
        )
    return len(receiver)


def _pop_n(stack: List[Any], count: int) -> List[Any]:
    if count == 0:
        return []
    values = stack[-count:]
    del stack[-count:]
    return values


# -- instructions ------------------------------------------------------------
#
# Each compile step takes the environment and the instruction's argument
# and returns a closure ``step(st, s, a, l)`` over the operand stack, the
# receiver (``self``), the argument list and the locals list.  A step does
# what the instruction does, in the same order, so every environment call,
# every error and its message happen as the instruction sequence says.

Step = Callable[[List[Any], Any, Sequence[Any], List[Any]], None]


def _push_const(env: Any, value: Any) -> Step:
    def step(st, s, a, l):
        st.append(value)
    return step


def _load_arg(env: Any, index: Any) -> Step:
    def step(st, s, a, l):
        try:
            st.append(a[index])
        except IndexError:
            raise IlRuntimeError(
                "argument index %r out of range (got %d args)" % (index, len(a))
            )
    return step


def _load_local(env: Any, slot: Any) -> Step:
    def step(st, s, a, l):
        st.append(l[slot])
    return step


def _store_local(env: Any, slot: Any) -> Step:
    def step(st, s, a, l):
        l[slot] = st.pop()
    return step


def _load_self(env: Any, arg: Any) -> Step:
    def step(st, s, a, l):
        st.append(s)
    return step


def _get_field(env: Any, name: Any) -> Step:
    get_field = env.get_field

    def step(st, s, a, l):
        st.append(get_field(st.pop(), name))
    return step


def _set_field(env: Any, name: Any) -> Step:
    set_field = env.set_field

    def step(st, s, a, l):
        value = st.pop()
        set_field(st.pop(), name, value)
    return step


def _call_method(env: Any, arg: Any) -> Step:
    call_method = env.call_method

    def step(st, s, a, l):
        name, argc = arg
        call_args = _pop_n(st, argc)
        st.append(call_method(st.pop(), name, call_args))
    return step


def _new(env: Any, arg: Any) -> Step:
    new_instance = env.new_instance

    def step(st, s, a, l):
        type_name, argc = arg
        st.append(new_instance(type_name, _pop_n(st, argc)))
    return step


def _bin_op(env: Any, token: Any) -> Step:
    apply = _operator(_BINARY, token, "binary")

    def step(st, s, a, l):
        rhs = st.pop()
        st.append(apply(st.pop(), rhs))
    return step


def _un_op(env: Any, token: Any) -> Step:
    apply = _operator(_UNARY, token, "unary")

    def step(st, s, a, l):
        st.append(apply(st.pop()))
    return step


def _new_list(env: Any, count: Any) -> Step:
    def step(st, s, a, l):
        st.append(_pop_n(st, count))
    return step


def _index_get_step(env: Any, arg: Any) -> Step:
    def step(st, s, a, l):
        index = st.pop()
        st.append(_index_get(st.pop(), index))
    return step


def _index_set_step(env: Any, arg: Any) -> Step:
    def step(st, s, a, l):
        value = st.pop()
        index = st.pop()
        _index_set(st.pop(), index, value)
    return step


def _list_len(env: Any, arg: Any) -> Step:
    def step(st, s, a, l):
        st.append(_length(st.pop()))
    return step


def _pop(env: Any, arg: Any) -> Step:
    def step(st, s, a, l):
        st.pop()
    return step


def _dup(env: Any, arg: Any) -> Step:
    def step(st, s, a, l):
        st.append(st[-1])
    return step


#: Opcode -> compile step for every instruction that does not end a block.
#: Read at compile time only.
_STEPS: Dict[Op, Callable[[Any, Any], Step]] = {
    Op.PUSH_CONST: _push_const,
    Op.LOAD_ARG: _load_arg,
    Op.LOAD_LOCAL: _load_local,
    Op.STORE_LOCAL: _store_local,
    Op.LOAD_SELF: _load_self,
    Op.GET_FIELD: _get_field,
    Op.SET_FIELD: _set_field,
    Op.CALL_METHOD: _call_method,
    Op.NEW: _new,
    Op.BIN_OP: _bin_op,
    Op.UN_OP: _un_op,
    Op.NEW_LIST: _new_list,
    Op.INDEX_GET: _index_get_step,
    Op.INDEX_SET: _index_set_step,
    Op.LIST_LEN: _list_len,
    Op.POP: _pop,
    Op.DUP: _dup,
}


def _unhandled(op: Any) -> Step:
    def step(st, s, a, l):
        raise IlRuntimeError("unhandled opcode %s" % op)
    return step


# -- blocks ------------------------------------------------------------------
#
# A block closure ``block(st, s, a, l)`` runs its steps and returns the
# index of the next block, or one of these codes (after a return, the
# value is the stack's top).

_RETURNED = -1
_EXITED = -2

#: Opcodes the compiler itself reads (module constants, so no per-record
#: code ever reads an ``Op`` attribute).
_JUMP = Op.JUMP
_JUMP_IF_FALSE = Op.JUMP_IF_FALSE
_RETURN = Op.RETURN
_RETURN_VOID = Op.RETURN_VOID
_LOAD_SELF = Op.LOAD_SELF
_GET_FIELD = Op.GET_FIELD
_CALL_METHOD = Op.CALL_METHOD
_NEW = Op.NEW


def _raiser(exc: IlError) -> Callable[..., Any]:
    """Raise (a fresh copy of) ``exc`` when called, not now."""
    kind, args = type(exc), exc.args

    def fail(*ignored: Any) -> Any:
        raise kind(*args)

    return fail


def _return_none(s: Any, a: Any) -> None:
    return None


def _block(steps: List[Step], next_block: Callable[[List[Any]], int]) -> Callable:
    steps = tuple(steps)

    def block(st, s, a, l):
        for step in steps:
            step(st, s, a, l)
        return next_block(st)

    return block


def _goto(index: int) -> Callable[[List[Any]], int]:
    def next_block(st):
        return index
    return next_block


def _branch(taken: int, fallthrough: int) -> Callable[[List[Any]], int]:
    def next_block(st):
        return taken if not st.pop() else fallthrough
    return next_block


def _bad_program(body: MethodBody) -> Any:
    """Why ``body`` cannot run (its locals count, or a jump target that is
    not an instruction index or the end), or ``None``."""
    if type(body.n_locals) is not int:
        return "locals count must be an integer, got %r" % (body.n_locals,)
    n = len(body.instructions)
    for pc, instr in enumerate(body.instructions):
        if instr.op is _JUMP or instr.op is _JUMP_IF_FALSE:
            target = instr.arg
            if type(target) is not int or not 0 <= target <= n:
                return "jump target %r at %d outside 0..%d" % (target, pc, n)
    return None


def _compile(env: Any, body: MethodBody, max_steps: int) -> Callable:
    """``body`` as a ``run(self_obj, args)`` closure."""
    problem = _bad_program(body)
    if problem is not None:
        return _raiser(IlRuntimeError(problem))
    instructions: List[Instr] = body.instructions
    n = len(instructions)
    if n == 0:
        return _return_none
    if (n == 3 and max_steps >= 3 and instructions[0].op is _LOAD_SELF
            and instructions[1].op is _GET_FIELD and instructions[2].op is _RETURN):
        get_field, name = env.get_field, instructions[1].arg

        def getter(s, a):
            return get_field(s, name)
        return getter

    leaders = {0}
    for pc, instr in enumerate(instructions):
        op = instr.op
        if op is _JUMP or op is _JUMP_IF_FALSE:
            leaders.add(instr.arg)
            leaders.add(pc + 1)
        elif op is _RETURN or op is _RETURN_VOID:
            leaders.add(pc + 1)
    starts = sorted(pc for pc in leaders if pc < n)
    index_of = {start: i for i, start in enumerate(starts)}
    index_of[n] = _EXITED

    blocks = []
    for start, end in zip(starts, starts[1:] + [n]):
        steps = []
        next_block = _goto(index_of[end])
        for instr in instructions[start:end]:
            op = instr.op
            if op is _JUMP:
                next_block = _goto(index_of[instr.arg])
            elif op is _JUMP_IF_FALSE:
                next_block = _branch(index_of[instr.arg], index_of[end])
            elif op is _RETURN:
                next_block = _goto(_RETURNED)
            elif op is _RETURN_VOID:
                next_block = _goto(_EXITED)
            else:
                make_step = _STEPS.get(op) if isinstance(op, Op) else None
                steps.append(make_step(env, instr.arg) if make_step
                             else _unhandled(op))
        blocks.append((end - start, _block(steps, next_block)))
    blocks = tuple(blocks)
    n_locals = max(body.n_locals, 0)
    limit = "method exceeded %d instruction steps" % max_steps

    def run(s, a):
        st: List[Any] = []
        l = [None] * n_locals
        steps = 0
        i = 0
        while True:
            cost, block = blocks[i]
            steps += cost
            if steps > max_steps:
                raise IlLimitExceeded(limit)
            i = block(st, s, a, l)
            if i < 0:
                return st.pop() if i == _RETURNED else None

    if any(instr.op is _CALL_METHOD or instr.op is _NEW for instr in instructions):
        return _guard_depth(run)
    return run


#: IL invocations in progress (across every runtime: the runtime runs IL
#: on one thread).
_depth = 0


def _guard_depth(run: Callable) -> Callable:
    """Count IL invocation depth around a body that can call out."""
    def guarded(s, a):
        global _depth
        if _depth >= MAX_CALL_DEPTH:
            raise IlLimitExceeded(
                "IL call depth exceeded %d nested invocations" % MAX_CALL_DEPTH)
        _depth += 1
        try:
            return run(s, a)
        finally:
            _depth -= 1

    return guarded


class Interpreter:
    """Compiles :class:`MethodBody` objects against an environment and runs
    them.

    ``max_steps`` bounds the instructions one invocation may execute; it is
    charged per basic block, before the block runs, so a runaway loop
    raises :class:`IlLimitExceeded` (possibly up to one block earlier than
    an instruction-by-instruction count would).  Nested invocations are
    capped at :data:`MAX_CALL_DEPTH`.  A body whose locals count is not an
    integer, or with a jump target that is neither an instruction index
    nor the end, raises :class:`IlRuntimeError` on every call.
    """

    def __init__(self, env: ExecutionEnvironment, max_steps: int = 1_000_000):
        self.env = env
        self.max_steps = max_steps

    def compile(self, body: MethodBody) -> Callable[[Any, Sequence[Any]], Any]:
        """``body`` as a ``run(self_obj, args)`` closure.  Compile once and
        keep it: the environment's services and ``max_steps`` are bound
        now."""
        return _compile(self.env, body, self.max_steps)

    def execute(self, body: MethodBody, self_obj: Any, args: Sequence[Any]) -> Any:
        return self.compile(body)(self_obj, args)
