#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two trees and summarize them.

    python3 tools/benchpairs.py --parent DIR --change DIR --seeds 3801-3810
        --claim genfun-rational.wall_s --out BENCH_38.json
        [--describe TEXT] [--parent-commit SHA]

Each seed runs `python3 perfbench/run.py --workload all --seed S --seconds N
--trace 0`, N the run length BENCHMARK.json fixes, once in each tree, one run at a time: the parent first on odd
seeds, the change first on even ones.  Each tree needs its own
BENCHMARK.json, perfbench/ and src/.  The last JSON line of a run holds its
metrics, and the `passes_per_op_median` line under each workload its
passes.  The summary has, per end-to-end metric of BENCHMARK.json and per
workload: each side's median and quartiles (inclusive method) and runs,
the pairs the change won, the change of the median as a fraction of the
parent's, and the metric's bound; `correct`, `failed` and `attempted` per
side; and the claim block, whose claim is met when the change wins at
least nine pairs in ten and the medians differ by more than the parent's
interquartile range.  The tool only runs the benchmark; it writes nothing
but the summary.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = "python3 perfbench/run.py --workload all --seed {seed} --seconds {seconds} --trace 0"
ORDER = ("alternating: parent first on odd seeds, change first on even seeds; each side "
         "run from its own tree, one run at a time")


def parse_run(stdout: str) -> dict:
    """The last JSON line of one run, with {workload: passes per op}."""
    result, passes, workload = None, {}, None
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("workload "):
            workload = line.split()[1]
        elif line.startswith("passes_per_op_median:") and workload:
            passes[workload] = float(line.split(":", 1)[1])
        elif line.startswith("{"):
            try:
                result = json.loads(line)
            except ValueError:
                pass
    if result is None:
        raise ValueError("the run printed no JSON line")
    return dict(result, passes=passes)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def _r(x: float) -> float:
    return round(x, 4)


def summarize(pairs: list[tuple[int, dict, dict]], bench: dict, claim: str) -> dict:
    """The summary of (seed, parent run, change run) triples, each run as
    `parse_run` reads it; `claim` names the claimed "workload.metric"."""
    sides = ("parent", "change")
    end_to_end = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        for spec in bench["end_to_end"]:
            key = f"{workload}.{spec['name']}"
            both = [(p["metrics"][key]["value"], c["metrics"][key]["value"])
                    for _, p, c in pairs if key in p["metrics"] and key in c["metrics"]]
            if not both:
                continue
            runs = dict(zip(sides, map(list, zip(*both))))
            sign = 1 if spec["better"] == "lower" else -1
            stats = {side: quartiles(runs[side]) for side in sides}
            delta = (stats["change"][1] - stats["parent"][1]) / stats["parent"][1]
            end_to_end[key] = {
                "unit": spec["unit"],
                **{side: {"median": _r(stats[side][1]), "q1": _r(stats[side][0]),
                          "q3": _r(stats[side][2])} for side in sides},
                "parent_runs": [_r(v) for v in runs["parent"]],
                "change_runs": [_r(v) for v in runs["change"]],
                "change_better_pairs": sum(sign * (c - p) < 0
                                           for p, c in zip(runs["parent"], runs["change"])),
                "delta_frac": _r(delta),
                "bound": spec["bound"],
                "within_bound": sign * delta <= spec["bound"],
            }
    out = {
        "seeds": [seed for seed, _, _ in pairs],
        "pairs": len(pairs),
        "order": ORDER,
        "correct": {side: {"all_correct": all(run[i]["correct"] for run in pairs),
                           "failed": sum(run[i]["failed"] for run in pairs),
                           "attempted": sum(run[i]["attempted"] for run in pairs)}
                    for i, side in enumerate(sides, 1)},
        "passes_per_op_median": {},
        "passes_per_op_runs": {},
        "end_to_end": end_to_end,
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        got = {side: [run[i]["passes"][workload] for run in pairs if workload in run[i]["passes"]]
               for i, side in enumerate(sides, 1)}
        if all(got.values()):
            out["passes_per_op_runs"][workload] = got
            out["passes_per_op_median"][workload] = {side: statistics.median(v)
                                                     for side, v in got.items()}
    row = end_to_end[claim]
    workload, metric = claim.rsplit(".", 1)
    iqr = row["parent"]["q3"] - row["parent"]["q1"]
    gap = row["parent"]["median"] - row["change"]["median"]
    if next(s for s in bench["end_to_end"] if s["name"] == metric)["better"] != "lower":
        gap = -gap
    out["claim"] = {"workload": workload, "metric": metric,
                    "parent_median": row["parent"]["median"], "parent_iqr": _r(iqr),
                    "change_median": row["change"]["median"],
                    "change_better_pairs": row["change_better_pairs"],
                    "delta_frac": row["delta_frac"]}
    out["claim_met"] = (row["change_better_pairs"] >= math.ceil(0.9 * len(pairs))
                        and gap > iqr)
    return out


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(),
            "os": f"{platform.system()} {platform.machine()}",
            "python": platform.python_version()}


def run_once(tree: Path, seed: int, seconds: int) -> dict:
    cmd = COMMAND.format(seed=seed, seconds=seconds).split()
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if done.returncode:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return parse_run(done.stdout)


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, help="FIRST-LAST")
    ap.add_argument("--claim", required=True, help="the claimed workload.metric")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--describe", help="what the change does")
    ap.add_argument("--parent-commit")
    args = ap.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent, "change": args.change}
    pairs = []
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        runs = {}
        for side in order:
            runs[side] = run_once(trees[side], seed, bench["run_seconds"])
            print(f"seed {seed} {side}: correct {runs[side]['correct']}", file=sys.stderr)
        pairs.append((seed, runs["parent"], runs["change"]))
    head = {"change": args.describe, "parent_commit": args.parent_commit,
            "command": COMMAND.format(seed="S", seconds=bench["run_seconds"]),
            "machine": machine()}
    summary = {**{k: v for k, v in head.items() if v is not None},
               **summarize(pairs, bench, args.claim)}
    args.out.write_text(json.dumps(summary, indent=1, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
