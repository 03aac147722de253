#!/usr/bin/env python3
"""qharmonic benchmark.

    python3 perfbench/run.py --workload verify-all|sums-at-root|genfun-rational|all
                             --seed N --seconds S --trace 0|1

Run from the repository root (it only needs BENCHMARK.json, perfbench/ and
src/).  With --trace 0 it times the workload and prints every end-to-end
metric; with --trace 1 it makes one traced pass and prints the per-layer
metrics.  Either way it checks every output, prints each failure, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}.

All load comes from one closed-loop client issuing one op at a time, except
the --jobs 2 passes, which use two worker processes.  Times are rescaled to
a reference host speed; perfbench/README.md gives the method.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
REFS = HERE / "refs.json"

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import metrics  # noqa: E402
from workloads import BATCH_WORKLOADS  # noqa: E402

WORKLOADS = ("verify-all",) + BATCH_WORKLOADS

# The acceptance gate: `qharmonic verify --suite all` prints exactly this.
VERIFY_SHA256 = "175eedeb5545f9436f01b34860a0e0cb7a57362ae8aa08611857a3255425124b"
VERIFY_BYTES = 52069
VERIFY_SUMMARY = "281 passed / 0 failed / 0 skipped"

SETUP_LAUNCHES = 9
# Launch time of an interpreter that imports nothing on the reference host;
# setup_s is reported in units of it, like hostspeed.PROBE_REF_S.
SETUP_REF_S = 0.04
# Untraced verify-all runs make at least this many --jobs 1/--jobs 2 pairs.
MIN_VERIFY_PAIRS = 2
RUN_BUDGET_S = 170.0


class Run:
    """Checks attempted and failed, and the time left, in one workload run."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0

    def time_left(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.start)

    def fail(self, message: str, count: int = 1):
        self.failed += count
        print(f"FAILED: {message}")


def child_env() -> dict:
    """Environment of every child interpreter.  Bytecode is cached under
    .perfbench_out, so that import cost does not depend on whether the
    caller's environment lets Python write .pyc files."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(run: Run, argv: list[str]) -> tuple[dict | None, float]:
    """One worker process; returns its JSON result (None on failure) and its
    wall time from launch to exit."""
    start = time.perf_counter()
    # its own session, so that a timeout also ends the worker's pool processes
    proc = subprocess.Popen([sys.executable, str(WORKER)] + argv, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(run.time_left(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        run.fail(f"worker {' '.join(argv)} exceeded the run budget")
        return None, time.perf_counter() - start
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-5:]
        run.fail(f"worker {' '.join(argv)} exited {proc.returncode}: {' | '.join(tail)}")
        return None, wall
    return json.loads(stdout.strip().splitlines()[-1]), wall


class Samples:
    """A metric's samples, host-speed-normalized and as measured."""

    def __init__(self):
        self.norm: list[float] = []
        self.raw: list[float] = []

    def add(self, norm: float, raw: float):
        self.norm.append(norm)
        self.raw.append(raw)


def normalized_wall(wall: float, probes: list[float], times: list[float],
                    parallel: int = 1) -> float:
    """A pass's wall time without the probes' own time, rescaled to the
    reference host speed measured around each of its ops."""
    return (wall - sum(probes) / parallel) * hostspeed.factor(times, probes)


def measure_setup(run: Run) -> Samples:
    """Seconds from launching a fresh interpreter until `import qharmonic`
    returns, read on the shared monotonic clock.  Each launch is paired with
    a launch that imports nothing, and is reported as the ratio of the two
    times SETUP_REF_S: the host-speed probe of this metric is an interpreter
    launch, since launches do not slow down with the host the way Python
    arithmetic does."""
    launches = {
        "import": "import time, qharmonic; print(repr(time.monotonic()))",
        "bare": "import time; print(repr(time.monotonic()))",
    }

    def launch(kind: str) -> float | None:
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", launches[kind]], env=child_env(),
                              capture_output=True, text=True, cwd=ROOT, timeout=60)
        if proc.returncode != 0:
            run.fail(f"{kind} launch exited {proc.returncode}: {proc.stderr.strip()}")
            return None
        return float(proc.stdout.strip()) - start

    launch("import")  # unmeasured: fills the bytecode cache
    out = Samples()
    for _ in range(SETUP_LAUNCHES):
        bare, full = launch("bare"), launch("import")
        if bare and full:
            out.add(full / bare * SETUP_REF_S, full)
    return out


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def check_verify(run: Run, res: dict | None, label: str) -> bool:
    run.attempted += 1
    if res is None:
        return False
    problems = []
    if res["exit"] != 0:
        problems.append(f"exit {res['exit']}")
    if res["summary"] != VERIFY_SUMMARY:
        problems.append(f"summary {res['summary']!r}")
    if res["sha256"] != VERIFY_SHA256 or res["bytes"] != VERIFY_BYTES:
        problems.append(f"stdout sha256 {res['sha256']} ({res['bytes']} bytes)")
    if problems:
        run.fail(f"verify-all {label}: " + "; ".join(problems))
        return False
    return True


def check_batch(run: Run, results: list[dict], refs: dict, expected: int, label: str):
    run.attempted += expected
    if len(results) < expected:
        run.fail(f"{label}: {len(results)} results for {expected} ops",
                 expected - len(results))
    for r in results:
        if "error" in r:
            run.fail(f"{label}: {r['key']} raised {r['error']}")
        elif refs.get(r["key"]) != r["digest"]:
            run.fail(f"{label}: {r['key']} output sha256 {r['digest']} "
                     f"!= reference {refs.get(r['key'])}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def verify_all(run: Run, seed: int, trace: bool) -> tuple[dict, dict]:
    """Cold `verify --suite all` passes, each in a fresh process."""
    if not trace:
        figs = {name: Samples() for name in ("wall_s", "wall_jobs2_s", "peak_rss_mb")}
        figs["setup_s"] = measure_setup(run)
        op_passes = []
        while True:
            res, wall = run_worker(run, ["verify", "--jobs", "1"])
            if check_verify(run, res, "--jobs 1"):
                times, probes = res["lat_s"], res["probes"]
                figs["wall_s"].add(normalized_wall(wall, probes, times), wall)
                op_passes.append((hostspeed.scale(times, probes), times))
                figs["peak_rss_mb"].add(res["rss_mb"], res["rss_mb"])
            res, wall = run_worker(run, ["verify", "--jobs", "2"])
            if check_verify(run, res, "--jobs 2"):
                figs["wall_jobs2_s"].add(
                    normalized_wall(wall, res["probes"], res["lat_s"], parallel=2), wall)
            if run.time_left() < 60 or (time.perf_counter() - run.start >= run.seconds
                                        and len(figs["wall_s"].raw) >= MIN_VERIFY_PAIRS):
                break
        figs["op_ms"] = per_op_medians(op_passes)
        return end_to_end(figs), {"passes_per_op_median": len(op_passes)}
    untraced = []
    while True:
        res, _ = run_worker(run, ["verify", "--jobs", "1"])
        if check_verify(run, res, "--jobs 1"):
            untraced.append(normalized_wall(res["inproc_wall_s"], res["probes"], res["lat_s"]))
        if time.perf_counter() - run.start >= run.seconds / 2 or run.time_left() < 90:
            break
    spans = OUT / f"spans-verify-all-seed{seed}.tsv.gz"
    res, _ = run_worker(run, ["verify", "--jobs", "1", "--seed", str(seed),
                              "--trace", str(spans)])
    if not (check_verify(run, res, "traced") and untraced):
        return {}, {}
    traced = normalized_wall(res["inproc_wall_s"], res["probes"], res["lat_s"])
    overhead = traced / statistics.median(untraced) - 1
    return per_layer(res["trace"], res["bytes"], overhead, spans), {}


def _batch_pass_wall(p: dict, parallel: int = 1) -> float:
    times = [r["s"] for r in p["results"]]
    probes = [r["probe_s"] for r in p["results"]]
    return normalized_wall(p["wall_s"], probes, times, parallel)


def batch(run: Run, workload: str, seed: int, trace: bool) -> tuple[dict, dict]:
    refs = json.loads(REFS.read_text())[workload]
    argv = ["batch", "--workload", workload, "--seed", str(seed),
            "--seconds", str(run.seconds)]
    setup = None if trace else measure_setup(run)
    spans = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    res, _ = run_worker(run, argv + (["--trace", str(spans)] if trace else []))
    if res is None:
        return {}, {}
    extra = {"ops_per_pass": res["ops"]}
    for i, p in enumerate(res["passes"]):
        check_batch(run, p["results"], refs, res["ops"], f"pass {i + 1} --jobs 1")
    for i, p in enumerate(res["passes_jobs2"]):
        check_batch(run, p["results"], refs, res["ops"], f"pass {i + 1} --jobs 2")
    if trace:
        check_batch(run, res["traced_pass"]["results"], refs, res["ops"], "traced pass")
        untraced = statistics.median(_batch_pass_wall(p) for p in res["passes"])
        overhead = _batch_pass_wall(res["traced_pass"]) / untraced - 1
        return per_layer(res["trace"], 0, overhead, spans), extra
    figs = {"setup_s": setup, "wall_s": Samples(), "wall_jobs2_s": Samples(),
            "peak_rss_mb": Samples()}
    op_passes = []
    for p in res["passes"]:
        figs["wall_s"].add(_batch_pass_wall(p), p["wall_s"])
        times = [r["s"] for r in p["results"]]
        op_passes.append((hostspeed.scale(times, [r["probe_s"] for r in p["results"]]), times))
    figs["op_ms"] = per_op_medians(op_passes)
    extra["passes_per_op_median"] = len(op_passes)
    for p in res["passes_jobs2"]:
        figs["wall_jobs2_s"].add(_batch_pass_wall(p, parallel=2), p["wall_s"])
    figs["peak_rss_mb"].add(res["rss_mb"], res["rss_mb"])
    return end_to_end(figs), extra


def per_op_medians(op_passes: list[tuple[list[float], list[float]]]) -> Samples:
    """Each op's latency in ms: its median over the run's passes, which all
    run the same ops in the same order."""
    out = Samples()
    if op_passes:
        for i in range(len(op_passes[0][0])):
            out.add(statistics.median(p[0][i] for p in op_passes) * 1e3,
                    statistics.median(p[1][i] for p in op_passes) * 1e3)
    return out


def end_to_end(figs: dict) -> dict:
    """(value, sample count, value as measured) per end-to-end metric; the
    op latencies give both op_p50_ms and op_p90_ms."""
    out = {}
    for name, samples in figs.items():
        if not samples.norm:
            continue
        if name == "op_ms":
            out["op_p50_ms"] = (statistics.median(samples.norm), len(samples.norm),
                                statistics.median(samples.raw))
            out["op_p90_ms"] = (p90(samples.norm), len(samples.norm), p90(samples.raw))
        else:
            out[name] = (statistics.median(samples.norm), len(samples.norm),
                         statistics.median(samples.raw))
    return {name: out[name] for name in metrics.END_TO_END if name in out}


def per_layer(tr: dict, report_bytes: int, overhead: float, spans: Path) -> dict:
    figs = metrics.layer_metrics(tr["summary"], tr["census"], tr["micro"],
                                 report_bytes, overhead)
    print(f"  traced pass: {tr['spans']} spans written to {spans.relative_to(ROOT)}")
    print("  cache census (hits / misses / peak currsize / maxsize):")
    for name, c in tr["census"].items():
        print(f"    {name:40s} {c['hits']:>9d} {c['misses']:>9d} "
              f"{c['currsize']:>7d} {c['maxsize']}")
    return {name: (value, 1, None) for name, value in figs.items()}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def host_line() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"host: python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"cpu {cpu}")


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[Run, dict]:
    print(f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}")
    run = Run(seconds)
    if workload == "verify-all":
        figs, extra = verify_all(run, seed, trace)
    else:
        figs, extra = batch(run, workload, seed, trace)
    units = metrics.PER_LAYER if trace else metrics.END_TO_END
    for name in units:
        if name not in figs:
            run.fail(f"metric {name} was not measured")
    for name, (value, n, raw) in figs.items():
        shown = "" if raw is None else f"; as measured {raw:.6g}"
        print(f"  {name:40s} {value!r} {units[name]} (n={n}{shown})")
    if not trace:
        frac = run.failed / run.attempted if run.attempted else 1.0
        print(f"  {'failed_frac':40s} {frac!r} ratio ({run.failed}/{run.attempted})")
    for key, value in extra.items():
        print(f"  {key}: {value}")
    return run, {name: {"value": value, "unit": units[name]}
                 for name, (value, _, _) in figs.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qharmonic benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qharmonic" / "__init__.py").is_file():
        print(f"error: no qharmonic sources under {SRC}", file=sys.stderr)
        return 2
    print(host_line())
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    out_metrics = {}
    for workload in chosen:
        run, figs = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        attempted += run.attempted
        failed += run.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        out_metrics.update({prefix + k: v for k, v in figs.items()})
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
