"""Layer microbenchmarks: CycloNumber mul/inverse and Series mul/invert.

Each figure is the median, over repeats, of the mean time of a batch of
calls, with the batch sized so that one repeat takes about 20 ms.
"""
from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

CYCLO_MUL_ORDERS = (7, 13, 16, 32)
CYCLO_INVERSE_ORDERS = (16, 32)
REPEATS = 9
BATCH_TARGET_S = 0.02


def _per_call(fn) -> float:
    """Median seconds per call of fn()."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    batch = max(1, int(BATCH_TARGET_S / max(once, 1e-9)))
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - start) / batch)
    return statistics.median(samples)


def _frac(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def run(seed: int) -> dict:
    from qharmonic.exact import CycloNumber, TPoly, euler_phi
    from qharmonic.genfun import u_ring

    rng = random.Random(f"micro:{seed}")

    def cyclo(order: int) -> CycloNumber:
        return CycloNumber(order, [_frac(rng) for _ in range(euler_phi(order))])

    out = {}
    for order in CYCLO_MUL_ORDERS:
        a, b = cyclo(order), cyclo(order)
        out[f"exact.cyclo_mul_us.o{order}"] = _per_call(lambda: a * b) * 1e6
    for order in CYCLO_INVERSE_ORDERS:
        a = cyclo(order)
        out[f"exact.cyclo_inverse_us.o{order}"] = _per_call(a.inverse) * 1e6

    # u-ring of r = 2 at cap 6: a unit plus every monomial of degree 1..3,
    # with linear-in-t coefficients, as in the Psi numerators.
    ring = u_ring(2, 6)
    low = [e for e in ring.exponents_up_to_cap() if 1 <= sum(e) <= 3]

    def series():
        s = ring.one()
        for e in low:
            s = s + ring.monomial(dict(zip(ring.variables, e)),
                                  TPoly({0: _frac(rng), 1: _frac(rng)}))
        return s

    a, b = series(), series()
    out["series.mul_ms.r2c6"] = _per_call(lambda: a * b) * 1e3
    out["series.invert_ms.r2c6"] = _per_call(a.invert) * 1e3
    return out
