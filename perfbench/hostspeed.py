"""Host-speed probe: factors the shared host's speed out of timings.

On a small shared host the same pure-Python work can take 0.5x to 2.5x its
usual time, for seconds at a time, because of load outside the benchmark.
The benchmark therefore runs a fixed probe (stdlib Fraction arithmetic; it
calls no qharmonic code, so no change to the package can alter it) next to
every timed op, and rescales each op's time by how fast the probe ran around
it: a time t measured while the probe took k seconds is reported as
t * PROBE_REF_S / k, i.e. in seconds of a host on which the probe takes
PROBE_REF_S.  The probe's own time is excluded from every timing.
"""
from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Probe time on the reference host (roughly its uncontended time on a 2-core
# Xeon VM under CPython 3.11).  Only ratios between runs matter.
PROBE_REF_S = 0.0005
WINDOW = 4          # probes on each side of an op used for its local speed


def probe() -> float:
    """Seconds one run of the fixed probe took.  The cyclic garbage collector
    is paused, so that the probe's time does not depend on how many objects
    the program holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 120):
            acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def local_factors(probes: list[float]) -> list[float]:
    """PROBE_REF_S / (median probe time in a window around each position)."""
    out = []
    for i in range(len(probes)):
        window = probes[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(PROBE_REF_S / statistics.median(window))
    return out


def scale(times: list[float], probes: list[float]) -> list[float]:
    """Each time rescaled by the host speed measured around it."""
    return [t * f for t, f in zip(times, local_factors(probes))]


def factor(times: list[float], probes: list[float]) -> float:
    """Time-weighted host-speed factor over a sequence of timed ops."""
    return sum(scale(times, probes)) / sum(times)
