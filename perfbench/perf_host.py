"""Host speed reference: a fixed standard-library loop timed next to the work.

The shared host this benchmark is meant for runs every process on it
faster or slower by up to a third from one few-second stretch to the
next, and a whole run can land in a slow stretch.  So the benchmark
times this loop before every window it measures and reports closed-loop
times at the host's *nominal* speed: a time measured next to reference
samples whose local median is ``r`` is multiplied by ``NOMINAL_S / r``.

The loop uses only the standard library (an XML parse, small objects,
bytes packing and dict updates: the kinds of work the program does), so
no change to the program moves it, and a program that gets faster reads
faster by the same factor.
"""

from __future__ import annotations

import gc
import struct
import time
import xml.etree.ElementTree as ElementTree
from statistics import median
from typing import List, Sequence

__all__ = ["NOMINAL_S", "SPAN", "reference_s", "scale_factors"]

#: The reference loop's median time on the machine the committed results
#: in ``results/`` come from (2-vCPU x86-64 VM, CPython 3.11).
NOMINAL_S = 1.25e-3

#: Neighbours on each side whose median smooths one reference sample
#: (samples are taken once per window, every 0.2 s or so).
SPAN = 5

_DOC = ("<e k='v' a='1'>"
        + "".join("<f n='%d'>x%d</f>" % (i, i) for i in range(40))
        + "</e>").encode()


class _Item:
    __slots__ = ("name", "text", "extra")

    def __init__(self, name, text, extra):
        self.name = name
        self.text = text
        self.extra = extra


def reference_s() -> float:
    """One timing of the reference loop, in seconds.

    The cyclic collector is held off meanwhile, so the program's garbage
    is never collected on the loop's clock (the loop's own garbage has
    no cycles and is freed by reference counting)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        for _ in range(8):
            root = ElementTree.fromstring(_DOC)
            items = [_Item(el.get("n"), el.text, {"k": i})
                     for i, el in enumerate(root)]
            sum(len(item.text) for item in items)
            b"".join(struct.pack("<I", i) for i in range(200))
            table = {}
            for i in range(300):
                table[i % 50] = table.get(i % 50, 0) + i
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


def scale_factors(refs: Sequence[float], span: int = SPAN) -> List[float]:
    """For each reference sample, the factor that takes a time measured
    next to it to nominal host speed: ``NOMINAL_S`` over the median of
    the sample and up to ``span`` neighbours on each side (one sample
    alone is too noisy; the host's stretches last seconds)."""
    return [NOMINAL_S / median(refs[max(0, i - span):i + span + 1])
            for i in range(len(refs))]
