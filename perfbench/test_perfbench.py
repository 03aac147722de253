"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import re
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEEDS = range(10)


def test_same_seed_same_ops():
    for wl in workloads.BATCH_WORKLOADS:
        for seed in SEEDS:
            assert workloads.generate(wl, seed) == workloads.generate(wl, seed)
        assert workloads.generate(wl, 1) != workloads.generate(wl, 2)


def test_stratum_counts_do_not_depend_on_seed():
    def fixed_part(op):
        kind, params = op
        return kind, params.get("n"), params.get("r"), params.get("cap"), \
            len(params.get("index", ())) or params.get("l")

    for wl in workloads.BATCH_WORKLOADS:
        first = Counter(map(fixed_part, workloads.generate(wl, 0)))
        assert sum(first.values()) >= 100, "need >= 10 ops beyond p90"
        for seed in SEEDS:
            assert Counter(map(fixed_part, workloads.generate(wl, seed))) == first


def test_every_drawable_op_has_a_reference():
    refs = json.loads((HERE / "refs.json").read_text())
    for wl in workloads.BATCH_WORKLOADS:
        keys = {workloads.op_key(*op) for op in workloads.all_candidates(wl)}
        assert keys == set(refs[wl])
        for seed in SEEDS:
            assert {workloads.op_key(*op) for op in workloads.generate(wl, seed)} <= keys


def test_metric_names_and_benchmark_json_agree():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layer == metrics.PER_LAYER
    assert len(metrics.PER_LAYER) == 91
    for m in bench["per_layer"]:
        expected = "higher" if m["name"] in metrics.HIGHER_IS_BETTER else "lower"
        assert m["better"] == expected, m["name"]
    for name in list(e2e) + list(layer) + [w["name"] for w in bench["workloads"]]:
        assert NAME.fullmatch(name), name


def test_suites_and_caches_match_the_package():
    from qharmonic.identities import list_identities

    assert metrics.SUITES == list_identities()
    caches = tracer.find_caches()
    assert len(caches) == 21
    assert sorted(tracer.unbounded(caches)) == sorted(metrics.UNBOUNDED_CACHES)


def _bindings() -> dict:
    out = {}
    for name, mod in tracer.layer_modules().items():
        for attr, obj in vars(mod).items():
            out[(name, attr)] = obj
            if isinstance(obj, type) and obj.__module__.startswith("qharmonic"):
                for mattr, meth in vars(obj).items():
                    out[(name, attr, mattr)] = meth
    return out


def test_wrappers_rebind_aliases_and_restore_everything():
    from qharmonic import cli, exact, genfun, identities

    before = _bindings()
    tr = tracer.Tracer()
    with tr:
        assert identities.psi_product is genfun.psi_product
        assert genfun.psi_product.__wrapped__ is before[("genfun", "psi_product")]
        assert cli.check_identity is identities.check_identity
        assert exact.CycloNumber.__rmul__ is exact.CycloNumber.__mul__
        assert exact.CycloNumber.__mul__.__wrapped__ is before[("exact", "CycloNumber", "__mul__")]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed


def _traced(op):
    census = tracer.CacheCensus(tracer.find_caches())
    tr = tracer.Tracer()
    with tr:
        res = workloads.run_op(op, census)
    return res, tr.summarize()["labels"]


def test_tracing_keeps_outputs_and_each_workload_bypasses_a_layer():
    root_op = ("zbar-t", {"n": 5, "index": [1, 2]})
    genfun_op = ("u_poly_ratio", {"n": 3, "cap": 3})
    refs = json.loads((HERE / "refs.json").read_text())
    for wl, op in (("sums-at-root", root_op), ("genfun-rational", genfun_op)):
        res, labels = _traced(op)
        assert res["digest"] == refs[wl][res["key"]]
    _, labels = _traced(root_op)
    assert labels["exact.CycloNumber.__mul__"]["calls"] > 0
    assert labels.get("series.Series.__mul__", {"calls": 0})["calls"] == 0
    _, labels = _traced(genfun_op)
    assert labels["series.Series.__mul__"]["calls"] > 0
    assert labels.get("exact.CycloNumber.__mul__", {"calls": 0})["calls"] == 0


def test_self_time_excludes_children():
    tr = tracer.Tracer()

    def leaf():
        return sum(range(20000))

    wrapped_leaf = tr.wrap(leaf, "t.leaf")
    outer = tr.wrap(lambda: [wrapped_leaf() for _ in range(3)], "t.outer")
    outer()
    labels = tr.summarize(busy_prefixes=("t.",))["labels"]
    assert labels["t.leaf"]["calls"] == 3
    total = tr.t1[0] - tr.t0[0]
    assert abs(labels["t.outer"]["self_s"] + labels["t.leaf"]["self_s"] - total) < 1e-9
    assert labels["t.outer"]["busy_s"] == total


def test_cache_census_clears_and_accumulates():
    from qharmonic.qseries import zbar, zeta_params

    census = tracer.CacheCensus(tracer.find_caches())
    zbar((2,), zeta_params(5))
    zbar((2,), zeta_params(5))
    census.clear_all()
    assert all(fn.cache_info().currsize == 0 for fn in census.caches.values())
    snap = census.snapshot()
    assert snap["qseries.zbar"]["hits"] == 1 and snap["qseries.zbar"]["misses"] == 1
    assert snap["qseries.zbar"]["currsize"] == 1
