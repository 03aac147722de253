"""Seeded batch workloads and the single op that each batch item runs.

Every batch is a fixed list of strata; a stratum fixes what drives an op's
cost (kind, n, depth, r, cap) and the seed only draws the remaining
parameters from a small pool of equally sized candidates, then shuffles the
order.  So the total work of a pass barely depends on the seed, and every op
any seed can draw has a stored reference (refs.json).
"""
from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction

import hostspeed

BATCH_WORKLOADS = ("sums-at-root", "genfun-rational")

ROOT_NS = (5, 7, 8, 9, 10, 11, 12)
# Indices of one weight per depth, so that draws inside a stratum cost alike.
ROOT_INDEX_POOL = {
    1: ((2,), (3,)),
    2: ((1, 2), (2, 1)),
    3: ((1, 1, 2), (1, 2, 1), (2, 1, 1)),
}
# (k, l, h) height profiles for g-sum, one index set size per depth.
ROOT_PROFILE_POOL = {
    1: ((2, 1, ()), (3, 1, ())),
    2: ((3, 2, ()), (3, 2, (1,))),
    3: ((4, 3, ()), (4, 3, (1,))),
}
ROOT_OPS_PER_DEPTH = {1: 2, 2: 1, 3: 1}
# Depth 3 is left out at n = 11 (phi = 10): one such op takes 1-4 s, over a
# third of a whole pass.  g-sum at depth 3 sums three depth-3 values, so it
# only runs at the two cheapest moduli.
ROOT_DEPTH3_NS = (5, 7, 8, 9, 10, 12)
GSUM_DEPTH3_NS = (5, 8)

PSI_RCAPS = ((1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3))
PSI_NS = (2, 3, 4, 5, 6, 7)
PSI_QS = ("1/2", "-3", "5/7", "2")
ROUNDTRIP_RCAPS = ((1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (2, 4), (2, 5),
                   (3, 2), (3, 3), (3, 4))
ROUNDTRIP_REPEATS = 2
RATIO_NS = (2, 3, 4, 5, 6, 7, 8)
RATIO_CAPS = (2, 3, 4, 5, 6)


def op_key(kind: str, params: dict) -> str:
    return kind + "|" + json.dumps(params, sort_keys=True, separators=(",", ":"))


def strata(workload: str) -> list[tuple[str, dict, list[dict]]]:
    """(kind, fixed params, candidate extra params) per op slot."""
    out = []
    if workload == "sums-at-root":
        for kind in ("zbar-t", "z-t", "L", "g-sum"):
            for n in ROOT_NS:
                for depth, count in ROOT_OPS_PER_DEPTH.items():
                    if depth == 3 and n not in (GSUM_DEPTH3_NS if kind == "g-sum"
                                                else ROOT_DEPTH3_NS):
                        continue
                    if kind == "g-sum":
                        pool = [{"k": k, "l": l, "h": list(h)}
                                for k, l, h in ROOT_PROFILE_POOL[depth]]
                    else:
                        pool = [{"index": list(ix)} for ix in ROOT_INDEX_POOL[depth]]
                    for _ in range(count):
                        out.append((kind, {"n": n}, pool))
    elif workload == "genfun-rational":
        for r, cap in PSI_RCAPS:
            for n in PSI_NS:
                out.append(("psi_product", {"n": n, "r": r, "cap": cap},
                            [{"q": q} for q in PSI_QS]))
        for r, cap in ROUNDTRIP_RCAPS:
            for _ in range(ROUNDTRIP_REPEATS):
                out.append(("roundtrip_u", {"r": r, "cap": cap}, [{}]))
        for n in RATIO_NS:
            for cap in RATIO_CAPS:
                out.append(("u_poly_ratio", {"n": n, "cap": cap}, [{}]))
    else:
        raise ValueError(f"not a batch workload: {workload!r}")
    return out


def generate(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The seeded op list: one draw per stratum slot, then a shuffle."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for kind, fixed, pool in strata(workload):
        ops.append((kind, dict(fixed, **rng.choice(pool))))
    rng.shuffle(ops)
    return ops


def all_candidates(workload: str) -> list[tuple[str, dict]]:
    """Every op some seed can draw (the reference table's domain)."""
    seen = {}
    for kind, fixed, pool in strata(workload):
        for extra in pool:
            params = dict(fixed, **extra)
            seen[op_key(kind, params)] = (kind, params)
    return list(seen.values())


def compute(kind: str, p: dict):
    """Run one op through the public API and return its JSON form, as the
    `compute` subcommand would print it."""
    from qharmonic import genfun, qseries
    from qharmonic.indices import HeightProfile

    if kind in ("zbar-t", "z-t", "L", "g-sum"):
        params = qseries.zeta_params(p["n"])
        if kind == "zbar-t":
            return qseries.zbar_t(tuple(p["index"]), params).to_json()
        if kind == "z-t":
            return qseries.z_t(tuple(p["index"]), params).to_json()
        if kind == "L":
            return qseries.L_poly(tuple(p["index"]), params, "interp").to_json()
        profile = HeightProfile(p["k"], p["l"], tuple(p["h"]))
        return qseries.g_sum(profile, params).to_json()
    if kind == "psi_product":
        return genfun.psi_product(p["n"], p["r"], Fraction(p["q"]), p["cap"]).to_json()
    if kind == "roundtrip_u":
        return [s.to_json() for s in genfun.roundtrip_u(p["r"], p["cap"])]
    if kind == "u_poly_ratio":
        return genfun.u_poly_ratio(p["n"], p["cap"]).to_json()
    raise ValueError(f"unknown op kind {kind!r}")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_op(op: tuple[str, dict], census) -> dict:
    """Probe the host speed, clear every cache, then time one op.  Errors are
    returned, not raised, so that each one is counted and reported."""
    kind, params = op
    res = {"key": op_key(kind, params), "probe_s": hostspeed.probe()}
    census.clear_all()
    start = time.perf_counter()
    try:
        out = compute(kind, params)
    except Exception as exc:  # any failure of the op is a reported result
        res["error"] = f"{type(exc).__name__}: {exc}"
        out = None
    res["s"] = time.perf_counter() - start
    if out is not None:
        res["digest"] = digest(out)
    return res


_POOL_CENSUS = None


def run_op_in_pool(op: tuple[str, dict]) -> dict:
    """run_op for a pool worker process, with that process's own caches."""
    global _POOL_CENSUS
    if _POOL_CENSUS is None:
        from tracer import CacheCensus, find_caches
        _POOL_CENSUS = CacheCensus(find_caches())
    return run_op(op, _POOL_CENSUS)
