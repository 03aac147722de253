import importlib.util
import json
from pathlib import Path

import qharmonic

ROOT = Path(__file__).resolve().parents[1]


def load_lines():
    spec = importlib.util.spec_from_file_location("lines", ROOT / "tools" / "lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_line_counts_add_up_to_each_module_length(capsys):
    lines = load_lines()
    package = Path(qharmonic.__file__).parent
    files = lines.modules([str(package)])
    assert files == sorted(package.glob("*.py"))
    for path in files:
        text = path.read_text(encoding="utf-8")
        counts = lines.count(text)
        assert set(counts) == {"code", "docstring", "comment", "blank"}
        assert sum(counts.values()) == len(text.splitlines()), path.name
        assert counts["code"] and counts["docstring"] and counts["blank"], path.name
    assert lines.main([str(package)]) == 0
    out = capsys.readouterr().out.splitlines()
    total = out[-2].split()
    assert total[0] == "total" and len(out) == len(files) + 3
    assert int(total[-1]) == sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files)


def test_line_kinds():
    source = '''"""Module
docstring."""
# a comment

x = """a string

over three lines"""  # trailing comment is code


def f():
    """Docstring."""
    y = (1 +
         2)  # code
    # comment
    return y \\
        + x


class C:
    """Class

    docstring."""
'''
    assert load_lines().count(source) == {"docstring": 6, "comment": 2, "blank": 5, "code": 9}


def load_benchpairs():
    spec = importlib.util.spec_from_file_location("benchpairs", ROOT / "tools" / "benchpairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned_run(wall: float, rss: float, passes: int, failed: int = 0) -> str:
    """The stdout of one `perfbench/run.py --workload all` run, cut to the
    lines the summary reads: each workload's header and passes line, a
    metric line it ignores, and the final JSON line."""
    metrics = {"w.wall_s": {"value": wall, "unit": "s"},
               "w.peak_rss_mb": {"value": rss, "unit": "MB"}}
    return "\n".join([
        "host: python 3, nproc 2, cpu test",
        "workload w seed 1 seconds 20 trace 0",
        f"  wall_s                                   {wall} s (n=3)",
        f"  passes_per_op_median: {passes}",
        json.dumps({"correct": not failed, "attempted": 100, "failed": failed,
                    "metrics": metrics}),
    ])


def test_benchpairs_summary_of_canned_runs():
    tool = load_benchpairs()
    bench = {"workloads": [{"name": "w"}],
             "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
                            {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
                             "bound": 0.1}]}
    parent_wall = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 1.00, 0.97, 1.01, 1.00]
    change_wall = [0.90, 0.91, 0.89, 0.92, 0.90, 1.05, 0.90, 0.88, 0.91, 0.90]
    pairs = [(seed, tool.parse_run(canned_run(p, 30.0, 10)),
              tool.parse_run(canned_run(c, 34.0 if seed == 3 else 30.5, 12, failed=seed == 4)))
             for seed, p, c in zip(range(1, 11), parent_wall, change_wall)]
    out = tool.summarize(pairs, bench, "w.wall_s")
    wall = out["end_to_end"]["w.wall_s"]
    assert wall["parent"] == {"median": 1.0, "q1": 0.9925, "q3": 1.01}
    assert wall["change"]["median"] == 0.9
    assert wall["parent_runs"] == parent_wall and wall["change_runs"] == change_wall
    assert wall["change_better_pairs"] == 9 and wall["delta_frac"] == -0.1
    assert wall["bound"] == 0.25 and wall["within_bound"]
    rss = out["end_to_end"]["w.peak_rss_mb"]
    assert rss["change_better_pairs"] == 0 and rss["delta_frac"] == 0.0167
    assert rss["within_bound"]
    assert out["claim"] == {"workload": "w", "metric": "wall_s", "parent_median": 1.0,
                            "parent_iqr": 0.0175, "change_median": 0.9,
                            "change_better_pairs": 9, "delta_frac": -0.1}
    assert out["claim_met"]
    assert out["correct"] == {"parent": {"all_correct": True, "failed": 0, "attempted": 1000},
                              "change": {"all_correct": False, "failed": 1, "attempted": 1000}}
    assert out["passes_per_op_median"] == {"w": {"parent": 10.0, "change": 12.0}}
    assert out["seeds"] == list(range(1, 11)) and out["pairs"] == 10
    # eight wins in ten do not meet a claim, nor do ten wins by less than the IQR
    assert not tool.summarize(pairs[:8] + pairs[5:7], bench, "w.wall_s")["claim_met"]
    close = [(seed, p, tool.parse_run(canned_run(p["metrics"]["w.wall_s"]["value"] - 0.001,
                                                 30.0, 10)))
             for seed, p, _ in pairs]
    near = tool.summarize(close, bench, "w.wall_s")
    assert near["claim"]["change_better_pairs"] == 10 and not near["claim_met"]
    assert tool.seed_range("3801-3803") == [3801, 3802, 3803]
