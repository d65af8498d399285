"""Reference loops that measure how fast the machine runs at the moment.

On a shared host the same code can run at half speed for tens of seconds
while neighbours are busy, which swamps run-to-run comparisons. The
benchmark therefore samples fixed reference loops between the parts of its
operations and scales each part's wall time by ``nominal / measured``
reference time, with the reference sampled just before and just after it. The loops use
only Python and numpy, never graphopt, so a change to graphopt cannot move
them. Each part names the loops that resemble its hot path; the scaled
numbers are milliseconds and seconds at the nominal speed.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_ITEMS = list(range(400))
_ARRAY = []  # the 12 MB array of the memory loop, made on first use


def _python() -> None:
    """Interpreter-bound: keyed min over a list, like elimination rounds."""
    for k in range(6):
        min(_ITEMS, key=lambda a: ((a * 7919 + k) % 401, -a))


def _scalar() -> None:
    """Per-call numpy overhead: scalar binomial draws, like oracle pulls."""
    rng = np.random.Generator(np.random.PCG64(12345))
    for _ in range(350):
        float(rng.binomial(30, 0.4))


def _memory() -> None:
    """Memory-bound: a pass over a 12 MB array, like the kNN distance scan."""
    if not _ARRAY:
        _ARRAY.append(np.arange(1_500_000, dtype=float).reshape(-1, 10))
    d = _ARRAY[0] - 1.0
    float(np.einsum("ij,ij->", d, d))


LOOPS = {"python": _python, "scalar": _scalar, "memory": _memory}

# Seconds per loop as measured on the machine the benchmark was written on
# (2-vCPU x86-64 VM, Python 3.11, numpy 2.4). They fix the scale of the
# reported numbers and nothing else.
NOMINAL = {"python": 0.00072, "scalar": 0.00049, "memory": 0.0051}

REF_EVERY_S = 0.1  # least time between two samples of the reference loops


def _time(loop) -> float:
    t0 = perf_counter()
    loop()
    return perf_counter() - t0


class Stopwatch:
    """Times the parts of an operation: a run_trials call, a query, a CLI
    command. ``loops`` names the reference loops a part resembles (default:
    all of the timer's)."""

    op = None

    def part(self, fn, *args, loops: tuple[str, ...] | None = None):
        t0 = perf_counter()
        out = fn(*args)
        return out, perf_counter() - t0


class ScaledTimer(Stopwatch):
    """Stopwatch that also scales each part to the nominal speed.

    The reference loops are sampled at most every REF_EVERY_S, between
    parts; every part is scaled by the mean of the samples just before and
    just after it. ``scaled[op]`` sums the scaled parts of each operation.
    """

    def __init__(self, loops: tuple[str, ...]):
        self.loops = {name: LOOPS[name] for name in loops}
        self.scaled: dict = {}
        self.samples = 0
        self._pending: list = []
        self._before = self._sample()

    def _sample(self) -> dict:
        self.samples += 1
        self._last = perf_counter()
        return {name: _time(loop) for name, loop in self.loops.items()}

    def part(self, fn, *args, loops=None):
        out, seconds = super().part(fn, *args)
        self._pending.append((self.op, loops or tuple(self.loops), seconds))
        if perf_counter() - self._last >= REF_EVERY_S:
            self.flush()
        return out, seconds

    def flush(self) -> None:
        if not self._pending:
            return
        after = self._sample()
        for op, loops, seconds in self._pending:
            measured = sum(self._before[n] + after[n] for n in loops) / 2
            nominal = sum(NOMINAL[n] for n in loops)
            self.scaled[op] = self.scaled.get(op, 0.0) + seconds * nominal / measured
        self._pending.clear()
        self._before = after
