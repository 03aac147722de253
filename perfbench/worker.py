"""Child process of the benchmark: one verify pass, or a batch run.

    python3 perfbench/worker.py verify --jobs J [--trace SPANS] [--seed N]
    python3 perfbench/worker.py batch --workload W --seed N --seconds S [--trace SPANS]

Prints one JSON object on stdout.  With --trace, the traced pass writes its
spans to SPANS (gzip TSV) and the object carries the span summary, the full
cache census and the microbenchmark figures.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import multiprocessing
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import micro  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

VERIFY_ARGV = ["verify", "--suite", "all"]
# Untraced batch runs make at least this many passes at each --jobs, so that
# each op's latency is a median of three.
MIN_PASSES = 3


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def verify_pass(jobs: int, tracer=None) -> dict:
    """`qharmonic verify --suite all --jobs J` in this process, with stdout
    captured.

    Every instance, in whichever process runs it, first runs a host-speed
    probe, then appends (start, probe, latency) to a file of its own process;
    the pool workers of --jobs 2 inherit this wrapper by fork.  Under the
    tracer this bookkeeping is excluded from every span."""
    from qharmonic import cli

    check = cli.check_identity
    log_dir = OUT / f"instances-{os.getpid()}"
    log_dir.mkdir(parents=True, exist_ok=True)

    def timed_check(ident, params):
        entered = time.perf_counter()
        probe_s = hostspeed.probe()
        start = time.perf_counter()
        if tracer is not None:
            tracer.op_id += 1
            tracer.excluded += start - entered
        try:
            return check(ident, params)
        finally:
            end = time.perf_counter()
            with open(log_dir / f"{os.getpid()}.tsv", "a") as fh:
                fh.write(f"{start!r}\t{probe_s!r}\t{end - start!r}\n")
            if tracer is not None:
                tracer.excluded += time.perf_counter() - end

    buf = io.StringIO()
    cli.check_identity = timed_check
    try:
        start = time.perf_counter()
        with redirect_stdout(buf):
            code = cli.main(VERIFY_ARGV + ["--jobs", str(jobs)])
        wall = time.perf_counter() - start
    finally:
        cli.check_identity = check
    records = []
    for path in sorted(log_dir.iterdir()):
        records += [tuple(map(float, line.split("\t"))) for line in path.read_text().splitlines()]
        path.unlink()
    log_dir.rmdir()
    records.sort()
    out = buf.getvalue().encode()
    lines = out.decode().rstrip("\n").split("\n")
    return {"exit": code, "sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out),
            "summary": lines[-1] if lines else "", "inproc_wall_s": wall,
            "lat_s": [r[2] for r in records], "probes": [r[1] for r in records]}


def cmd_verify(args) -> dict:
    if not args.trace:
        res = verify_pass(args.jobs)
        res["rss_mb"] = _rss_mb()
        return res
    micro_figs = micro.run(args.seed)
    census = tracing.CacheCensus(tracing.find_caches())
    tr = tracing.Tracer()
    with tr:
        res = verify_pass(1, tr)
    res["rss_mb"] = _rss_mb()
    res["trace"] = _trace_result(tr, census.snapshot(), micro_figs, args)
    return res


def _run_batch_pass(ops, census, tracer=None) -> dict:
    results = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i + 1
        results.append(workloads.run_op(op, census))
    return {"wall_s": time.perf_counter() - start, "results": results}


def _run_batch_pass_jobs2(ops) -> dict:
    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        results = list(pool.map(workloads.run_op_in_pool, ops, chunksize=1))
    return {"wall_s": time.perf_counter() - start, "results": results}


def cmd_batch(args) -> dict:
    ops = workloads.generate(args.workload, args.seed)
    census = tracing.CacheCensus(tracing.find_caches())
    passes, passes_jobs2 = [], []
    deadline = time.perf_counter() + (args.seconds / 2 if args.trace else args.seconds)
    while True:
        passes.append(_run_batch_pass(ops, census))
        if not args.trace:
            passes_jobs2.append(_run_batch_pass_jobs2(ops))
        if time.perf_counter() >= deadline and (args.trace or len(passes) >= MIN_PASSES):
            break
    res = {"ops": len(ops), "passes": passes, "passes_jobs2": passes_jobs2,
           "rss_mb": _rss_mb()}
    if args.trace:
        micro_figs = micro.run(args.seed)
        census = tracing.CacheCensus(census.caches)  # empties the caches
        tr = tracing.Tracer()
        with tr:
            traced = _run_batch_pass(ops, census, tr)
        census.clear_all()
        res["traced_pass"] = traced
        res["trace"] = _trace_result(tr, census.snapshot(), micro_figs, args)
    return res


def _trace_result(tr, census_snapshot, micro_figs, args) -> dict:
    summary = tr.summarize()
    Path(args.trace).parent.mkdir(parents=True, exist_ok=True)
    tr.write(args.trace)
    return {
        "spans": tr.span_count(),
        "summary": summary,
        "census": census_snapshot,
        "micro": micro_figs,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    pv = sub.add_parser("verify")
    pv.add_argument("--jobs", type=int, default=1)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--trace")
    pb = sub.add_parser("batch")
    pb.add_argument("--workload", choices=workloads.BATCH_WORKLOADS, required=True)
    pb.add_argument("--seed", type=int, required=True)
    pb.add_argument("--seconds", type=float, required=True)
    pb.add_argument("--trace")
    args = ap.parse_args(argv)
    res = cmd_verify(args) if args.cmd == "verify" else cmd_batch(args)
    res["pid"] = os.getpid()
    sys.stdout.write(json.dumps(res) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
