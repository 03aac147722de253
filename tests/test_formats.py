"""The JSON output formats, pinned by the benchmark's reference digests.

perfbench/refs.json holds the sha256 of the JSON output of every batch op the
benchmark can draw.  The cheap ones are recomputed here through the public
API and hashed the same way (sorted keys, compact separators), so a change to
an output format fails these tests as well as the benchmark.  The file is
only read.
"""
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from qharmonic import genfun, qseries
from qharmonic.indices import HeightProfile

REFS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "refs.json").read_text())


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def compute(kind: str, p: dict):
    if kind in ("zbar-t", "z-t", "L"):
        parts, params = tuple(p["index"]), qseries.zeta_params(p["n"])
        if kind == "zbar-t":
            return qseries.zbar_t(parts, params).to_json()
        if kind == "z-t":
            return qseries.z_t(parts, params).to_json()
        return qseries.L_poly(parts, params, "interp").to_json()
    if kind == "g-sum":
        profile = HeightProfile(p["k"], p["l"], tuple(p["h"]))
        return qseries.g_sum(profile, qseries.zeta_params(p["n"])).to_json()
    if kind == "psi_product":
        return genfun.psi_product(p["n"], p["r"], Fraction(p["q"]), p["cap"]).to_json()
    if kind == "roundtrip_u":
        return [s.to_json() for s in genfun.roundtrip_u(p["r"], p["cap"])]
    return genfun.u_poly_ratio(p["n"], p["cap"]).to_json()


def is_cheap(kind: str, p: dict) -> bool:
    if kind == "g-sum":
        return p["n"] in (5, 7) and p["l"] <= 2
    if kind in ("zbar-t", "z-t"):
        return p["n"] in (5, 7) and len(p["index"]) <= 2
    if kind == "roundtrip_u":
        return p["r"] <= 2 and p["cap"] <= 3
    return kind in ("L", "u_poly_ratio", "psi_product")


def cheap_ops() -> dict[str, list]:
    """kind -> [(reference key, params, digest)] over both batch workloads."""
    out: dict[str, list] = {}
    for refs in REFS.values():
        for key, want in refs.items():
            kind, text = key.split("|", 1)
            params = json.loads(text)
            if is_cheap(kind, params):
                out.setdefault(kind, []).append((key, params, want))
    return out


CHEAP = cheap_ops()


def test_cheap_selection_covers_every_kind():
    assert sorted(CHEAP) == ["L", "g-sum", "psi_product", "roundtrip_u",
                             "u_poly_ratio", "z-t", "zbar-t"]
    assert sum(map(len, CHEAP.values())) == 300


@pytest.mark.parametrize("kind", sorted(CHEAP))
def test_outputs_match_reference_digests(kind):
    drift = [key for key, params, want in CHEAP[kind]
             if digest(compute(kind, params)) != want]
    assert drift == []
