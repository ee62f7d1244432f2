"""Machine-speed reference: a fixed pure-Python workload timed next to each measurement.

On a small shared machine the speed of a core swings by up to 2x within
seconds as other tenants come and go, and wall times swing with it.  Dividing
an operation's wall time by the wall time of this reference workload, run just
before and just after it in the same process, cancels most of the swing.
Multiplying the ratio by ``NOMINAL_S`` gives seconds at a fixed reference
speed.  The workload (object allocation, recursive calls, dict updates, string
work) is part of the benchmark and never changes with the program.
"""

from __future__ import annotations

import gc
import statistics
import time

# Median wall time of one reference run on the machine the baseline was taken
# on (2 shared x86-64 cores, CPython 3.11); a fixed scale, not a measurement.
NOMINAL_S = 0.00375


class _Node:
    __slots__ = ("left", "right", "key")

    def __init__(self, left, right, key):
        self.left = left
        self.right = right
        self.key = key


def _build(depth: int, key: int):
    if depth == 0:
        return _Node(None, None, key)
    return _Node(_build(depth - 1, 2 * key), _build(depth - 1, 2 * key + 1), key)


def _walk(node, acc: dict) -> int:
    if node is None:
        return 0
    name = f"k{node.key % 97}"
    acc[name] = acc.get(name, 0) + 1
    return node.key + _walk(node.left, acc) + _walk(node.right, acc)


def reference_seconds() -> float:
    """Wall time of one run of the reference workload, with the collector
    paused so that the program's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict = {}
        _walk(_build(11, 1), acc)
        " ".join(sorted(acc))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference() -> float:
    """Median of three reference runs: the speed estimate taken at each boundary."""
    return statistics.median(reference_seconds() for _ in range(3))
