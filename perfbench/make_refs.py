"""Regenerate refs.json: the sha256 of the canonical JSON output of every op
that any seed of a batch workload can draw.

    python3 perfbench/make_refs.py

Run it only on a commit whose outputs are known to be right; the benchmark
checks later commits against this table.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    census = tracer.CacheCensus(tracer.find_caches())
    table = {}
    for workload in workloads.BATCH_WORKLOADS:
        refs = {}
        for op in workloads.all_candidates(workload):
            res = workloads.run_op(op, census)
            if "error" in res:
                print(f"{res['key']}: {res['error']}", file=sys.stderr)
                return 1
            refs[res["key"]] = res["digest"]
        table[workload] = dict(sorted(refs.items()))
        print(f"{workload}: {len(refs)} references", file=sys.stderr)
    (HERE / "refs.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
