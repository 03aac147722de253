"""Metric names, units and the per-layer figures derived from a traced run.

BENCHMARK.json lists the same names; test_perfbench.py keeps the two equal.
"""
from __future__ import annotations

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_jobs2_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# The 22 suites in registry order.
SUITES = (
    "thm1_1", "reflection", "half_t_self_dual", "thm1_3", "cor1_4_triple",
    "eq1_2_equiv", "cor1_5", "lemma2_1", "prop2_2", "cor2_3", "thm2_4", "c_i",
    "lemma3_1", "lemma3_2_roundtrip", "lemma4_1", "pt_special",
    "kpow_rationality", "k3_closed", "chu_vandermonde", "btt_3_13",
    "remark_qhs", "z_zbar_scaling",
)
QSERIES_CACHED = ("zbar", "zbar_t", "z", "z_t", "L_poly", "g_sum", "x_sum")
GENFUN_BUSY = (
    "psi_bruteforce", "psi_product", "x_from_u", "u_from_x", "u_from_x_matrix",
    "roundtrip_u", "phi_system_checks", "sum_formula", "kpow_generating",
    "u_poly_ratio",
)
UNBOUNDED_CACHES = (
    "exact._divisors", "exact.cyclotomic_polynomial", "exact.euler_phi",
    "indices.compositions", "indices._enumerate_indices_cached",
    "indices.enumerate_patterns", "genfun.zbar_depth1_rational",
)
# per-layer metric name -> (span label, field)
SPAN_FIELDS = {
    "exact.cyclo_mul": "exact.CycloNumber.__mul__",
    "exact.cyclo_inverse": "exact.CycloNumber.inverse",
    "exact.tpoly_mul": "exact.TPoly.__mul__",
    "exact.tpoly_add": "exact.TPoly.__add__",
    "series.mul": "series.Series.__mul__",
    "series.invert": "series.Series.invert",
    "series.substitute": "series.Series.substitute",
}


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if name.endswith(("_s", ".self_s", ".busy_s")):
        return "s"
    if ".cyclo_mul_us." in name or ".cyclo_inverse_us." in name:
        return "us"
    if "_ms." in name:
        return "ms"
    if last in ("hit_ratio", "kept_ratio", "overhead_frac"):
        return "ratio"
    if last == "report_bytes":
        return "bytes"
    return "count"


def per_layer_names() -> list[str]:
    names = []
    for metric in ("exact.cyclo_mul", "exact.cyclo_inverse", "exact.tpoly_mul",
                   "exact.tpoly_add"):
        names += [f"{metric}.calls", f"{metric}.self_s"]
    names.append("exact.self_s")
    names += [f"exact.cyclo_mul_us.o{o}" for o in (7, 13, 16, 32)]
    names += [f"exact.cyclo_inverse_us.o{o}" for o in (16, 32)]
    names += ["series.mul.calls", "series.mul.self_s", "series.mul.term_pairs",
              "series.mul.kept_ratio", "series.invert.calls", "series.invert.self_s",
              "series.substitute.calls", "series.substitute.self_s", "series.self_s",
              "series.mul_ms.r2c6", "series.invert_ms.r2c6"]
    names += ["indices.patterns_out", "indices.enumerate_patterns.hit_ratio",
              "indices.self_s"]
    for fn in QSERIES_CACHED:
        names += [f"qseries.{fn}.misses", f"qseries.{fn}.hit_ratio"]
    names += ["qseries.zbar.self_s", "qseries.L_poly.self_s", "qseries.self_s"]
    names += [f"genfun.{fn}.busy_s" for fn in GENFUN_BUSY] + ["genfun.self_s"]
    names += [f"identities.{s}.busy_s" for s in SUITES]
    names += ["identities._psi_brute.hit_ratio", "identities.self_s"]
    names += ["cli.report_bytes", "cli.self_s"]
    names += [f"cache.{c}.currsize" for c in UNBOUNDED_CACHES]
    names.append("trace.overhead_frac")
    return names


PER_LAYER = {name: _unit(name) for name in per_layer_names()}
# Higher is better for ratios of useful outcomes; lower for everything else.
HIGHER_IS_BETTER = frozenset(n for n in PER_LAYER if n.endswith(("hit_ratio", "kept_ratio")))


def _hit_ratio(entry: dict) -> float:
    total = entry["hits"] + entry["misses"]
    return entry["hits"] / total if total else 0.0


def layer_metrics(summary: dict, census: dict, micro: dict,
                  report_bytes: int, overhead_frac: float) -> dict:
    """Every per-layer metric from a span summary and a cache census."""
    labels = summary["labels"]
    counters = summary["counters"]
    empty = {"calls": 0, "self_s": 0.0, "busy_s": 0.0}

    def span(label: str) -> dict:
        return labels.get(label, empty)

    def layer_self(layer: str) -> float:
        return sum(v["self_s"] for k, v in labels.items() if k.startswith(layer + "."))

    out = {}
    for metric, label in SPAN_FIELDS.items():
        out[f"{metric}.calls"] = span(label)["calls"]
        out[f"{metric}.self_s"] = span(label)["self_s"]
    pairs = counters.get("series.mul.term_pairs", 0)
    out["series.mul.term_pairs"] = pairs
    out["series.mul.kept_ratio"] = counters.get("series.mul.kept_pairs", 0) / pairs if pairs else 0.0
    out["indices.patterns_out"] = counters.get("indices.patterns_out", 0)
    out["indices.enumerate_patterns.hit_ratio"] = _hit_ratio(census["indices.enumerate_patterns"])
    for fn in QSERIES_CACHED:
        out[f"qseries.{fn}.misses"] = census[f"qseries.{fn}"]["misses"]
        out[f"qseries.{fn}.hit_ratio"] = _hit_ratio(census[f"qseries.{fn}"])
    out["qseries.zbar.self_s"] = span("qseries.zbar")["self_s"]
    out["qseries.L_poly.self_s"] = span("qseries.L_poly")["self_s"]
    for fn in GENFUN_BUSY:
        out[f"genfun.{fn}.busy_s"] = span(f"genfun.{fn}")["busy_s"]
    for suite in SUITES:
        out[f"identities.{suite}.busy_s"] = summary["tags"].get(suite, 0.0)
    out["identities._psi_brute.hit_ratio"] = _hit_ratio(census["identities._psi_brute"])
    for layer in ("exact", "series", "indices", "qseries", "genfun", "identities", "cli"):
        out[f"{layer}.self_s"] = layer_self(layer)
    out["cli.report_bytes"] = report_bytes
    for cache in UNBOUNDED_CACHES:
        out[f"cache.{cache}.currsize"] = census[cache]["currsize"]
    out["trace.overhead_frac"] = overhead_frac
    out.update(micro)
    return {name: out[name] for name in PER_LAYER}
