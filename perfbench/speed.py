"""Machine-speed probe: times are reported at a fixed reference speed.

The machine the bounds were set on is shared, and it runs the same code at
speeds up to about 1.65x apart, in phases that last from seconds to
minutes.  CPU time slows down with wall time there (the host, not waiting,
is what is slow), so neither clock alone tells kida's cost from the
machine's mood.  Each timed request is therefore bracketed by probes: a
fixed pure-Python kernel timed on the same CPU just before the request and
just after it.  The request's time is scaled by ``REFERENCE_S`` over the
mean of the two probes, which reads the time the
work would take at the speed where the kernel takes ``REFERENCE_S`` (about
this machine's fast phase).  A change to kida moves the scaled time as much
as the raw time; a slow phase of the machine, which slows the probes too,
largely cancels.
"""

from __future__ import annotations

import gc
import time

REFERENCE_S = 0.0015


def kernel() -> int:
    """Integer arithmetic, dict and list traffic and calls, the mix that
    dominates kida's pure-Python layers."""
    acc, small, items = 1, {}, []
    for i in range(4000):
        acc = (acc * 48271 + i) % 2147483647
        small[acc & 511] = small.get(acc & 511, 0) + 1
        if i % 8 == 0:
            items.append(divmod(acc, 977))
    items.sort()
    return acc + len(small) + len(items)


def probe() -> float:
    """Seconds one run of ``kernel`` takes now: the best of three runs,
    with the garbage collector off, so that neither a collection of the
    caller's heap nor an interrupt is counted as slowness."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work at reference speed, given the probes around it."""
    return seconds * REFERENCE_S * 2 / (before + after)
