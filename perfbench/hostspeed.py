"""Host-speed correction for measured times.

On a shared host the same code runs up to ~1.6x slower for tens of
seconds at a time, because of other tenants, not of the program.  A fixed
pure-Python reference loop, timed right before and right after each
measured interval, tracks that drift.  ``corrected`` scales a measured time
by ``NOMINAL_S`` over the loop's mean time: the result is the time the
interval would have taken on a host where the loop takes ``NOMINAL_S``
(its quiet-host time on the machine of the first baseline).  The loop does
not touch qglnm, so a change to the library leaves it unchanged.
"""

from __future__ import annotations

from time import perf_counter

# Quiet-host time of ``loop_seconds`` (Python 3.11, 2-vCPU cloud VM).
NOMINAL_S = 0.0104


def loop_seconds() -> float:
    """Time the reference loop (integer and dict work, ~10 ms); the faster
    of two runs, so that a burst shorter than a run does not count."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        acc, table = 0, {}
        for i in range(100000):
            acc += i * i % 7
            table[i & 255] = acc
        best = min(best, perf_counter() - start)
    return best


def corrected(seconds: float, ref_before: float, ref_after: float) -> float:
    """A measured time scaled to the nominal host speed."""
    return seconds * NOMINAL_S / ((ref_before + ref_after) / 2)
