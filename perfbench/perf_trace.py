"""Span tracer that times calls into a program's layers from outside it.

The tracer replaces class (or module) attributes with timing wrappers
before the program's objects are built, and puts the originals back
afterwards, so the program's own source stays untouched and a later
untraced run executes exactly the original code.

Every span has an operation name and a *side*.  The side is inherited
from the innermost enclosing *handler* span (a peer's network-message
handler); a handler's side comes from the ``side_of`` callback applied
to the peer that owns it.  Spans outside every handler are ``pub``: the
driver code that runs them publishes.  A *context* wrapper sets the side for the calls inside
it without recording a span of its own.

Per (operation, side) the tracer keeps the call count, inclusive time
and self time, where self time is a span's duration minus the time its
child spans cover.  Spans marked ``cpu`` (and every span inside one)
also read the thread CPU clock, and a ``cpu`` span splits its self time
into busy time (its CPU time minus its children's) and waiting (the rest
of its self time).  Generator functions are timed per ``next()``: the consumer's work
between items is not part of the span.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["OpStats", "Tracer"]

_MISSING = object()


class OpStats:
    """Totals of one (operation, side) pair."""

    __slots__ = ("calls", "total_ns", "self_ns", "wait_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.wait_ns = 0

    @property
    def busy_ns(self) -> int:
        """Self time the thread spent running (``cpu`` spans only)."""
        return self.self_ns - self.wait_ns

    def __repr__(self) -> str:
        return "OpStats(calls=%d, self_ns=%d, total_ns=%d, wait_ns=%d)" % (
            self.calls, self.self_ns, self.total_ns, self.wait_ns)


class _Frame:
    __slots__ = ("op", "side", "start", "child_ns", "cpu", "cpu_start",
                 "child_cpu")

    def __init__(self, op: str, side: str, start: int, cpu: bool,
                 cpu_start: Optional[int]):
        self.op = op
        self.side = side
        self.start = start
        self.child_ns = 0
        self.cpu = cpu
        self.cpu_start = cpu_start
        self.child_cpu = 0


class Tracer:
    """Records spans around wrapped attributes while :attr:`enabled`.

    ``clock`` and ``cpu_clock`` return nanoseconds; tests pass fakes.
    """

    def __init__(self, side_of: Callable[[Any], str] = lambda owner: "pub",
                 clock: Callable[[], int] = time.perf_counter_ns,
                 cpu_clock: Callable[[], int] = time.thread_time_ns):
        self.side_of = side_of
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.enabled = False
        self.ops: Dict[Tuple[str, str], OpStats] = {}
        self._stack: List[_Frame] = []
        self._cpu_open = 0  # open ``cpu`` spans: their children read CPU too
        self._sides: List[str] = ["pub"]
        self._patches: List[Tuple[Any, str, Any]] = []
        self._wall_start: Optional[int] = None
        self.wall_ns = 0

    # -- recording ------------------------------------------------------

    def start(self) -> None:
        """Begin recording; :attr:`wall_ns` accumulates until :meth:`stop`."""
        self.enabled = True
        self._wall_start = self.clock()

    def stop(self) -> None:
        if self._wall_start is not None:
            self.wall_ns += self.clock() - self._wall_start
            self._wall_start = None
        self.enabled = False

    def _enter(self, op: str, cpu: bool) -> _Frame:
        measure_cpu = cpu or self._cpu_open > 0
        if cpu:
            self._cpu_open += 1
        frame = _Frame(op, self._sides[-1], self.clock(), cpu,
                       self.cpu_clock() if measure_cpu else None)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:  # pragma: no cover - wrappers nest strictly
            raise RuntimeError("span stack corrupted at %r" % frame.op)
        duration = end - frame.start
        self_ns = duration - frame.child_ns
        stats = self.ops.get((frame.op, frame.side))
        if stats is None:
            stats = self.ops[(frame.op, frame.side)] = OpStats()
        stats.calls += 1
        stats.total_ns += duration
        stats.self_ns += self_ns
        cpu = 0
        if frame.cpu_start is not None:
            cpu = self.cpu_clock() - frame.cpu_start
        if frame.cpu:
            self._cpu_open -= 1
            stats.wait_ns += max(0, self_ns - (cpu - frame.child_cpu))
        if self._stack:
            parent = self._stack[-1]
            parent.child_ns += duration
            parent.child_cpu += cpu

    # -- wrapping -------------------------------------------------------

    def _install(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, owner: Any, attr: str, op: str, cpu: bool = False) -> None:
        """Time every call of ``owner.attr`` as one ``op`` span."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(op, cpu)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        self._install(owner, attr, timed)

    def wrap_generator(self, owner: Any, attr: str, op: str) -> None:
        """Time each ``next()`` of the iterator ``owner.attr`` returns."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    if tracer.enabled:
                        frame = tracer._enter(op, False)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(frame)
                    else:
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                    yield item
            finally:
                close = getattr(inner, "close", None)
                if close is not None:
                    close()

        self._install(owner, attr, timed)

    def wrap_handler(self, owner: Any, attr: str,
                     op_for_side: Callable[[str], str]) -> None:
        """Wrap a peer's message handler ``owner.attr(self, ...)``: its
        side is ``side_of(self)`` and every span inside inherits it.
        Must be installed before peers bind the handler."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def timed(peer, *args, **kwargs):
            if not tracer.enabled:
                return fn(peer, *args, **kwargs)
            side = tracer.side_of(peer)
            tracer._sides.append(side)
            try:
                frame = tracer._enter(op_for_side(side), False)
                try:
                    return fn(peer, *args, **kwargs)
                finally:
                    tracer._exit(frame)
            finally:
                tracer._sides.pop()

        self._install(owner, attr, timed)

    def wrap_context(self, owner: Any, attr: str, side: str) -> None:
        """Calls inside ``owner.attr`` take ``side``; no span of its own."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def scoped(*args, **kwargs):
            tracer._sides.append(side)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._sides.pop()

        self._install(owner, attr, scoped)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading --------------------------------------------------------

    def self_total_ns(self) -> int:
        return sum(stats.self_ns for stats in self.ops.values())

    def residual_ns(self) -> int:
        """Traced wall time no span covers."""
        return self.wall_ns - self.self_total_ns()
