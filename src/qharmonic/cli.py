"""Command-line front end.

Three exact subcommands (compute, verify, table) plus one deliberately
inexact one (xi-check, the floating-point convergence probe).  All exact
output renders fractions as strings; ordering is fixed by parameter tuples
so repeated runs are byte-identical at any parallelism degree.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import sys
import traceback
from fractions import Fraction
from itertools import chain
from operator import methodcaller
from typing import Callable, NamedTuple

from .exact import QHarmonicError, TPoly, parse_rational, render_rational, scalar_to_json
from .genfun import IdentityReport, eval_constant_index, u_poly, xi_ones_coeff
from .identities import (
    InvalidParams,
    UnknownIdentity,
    check_identity,
    default_instances,
    list_identities,
    sharing_key,
)
from .indices import HeightProfile
from .qseries import (
    L_poly,
    SeriesParams,
    g_sum,
    z_t,
    z_t_float,
    zbar,
    zbar_star,
    zbar_t,
    zeta_params,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CRASH = 4


class UsageError(Exception):
    pass


def _parse_int_list(text: str) -> list[range]:
    """INT, "a..b" inclusive range, or comma list, as its nonempty pieces in
    order, each a range, so that a wide range is never expanded."""
    out: list[range] = []
    try:
        for piece in text.split(","):
            piece = piece.strip()
            if not piece:
                continue
            lo_s, dots, hi_s = piece.partition("..")
            lo = int(lo_s)
            values = range(lo, int(hi_s) + 1 if dots else lo + 1)
            if values:
                out.append(values)
    except ValueError:
        raise UsageError(f"cannot parse integer list {text!r}")
    return out


def _int_values(text: str) -> list[int]:
    """The values of an integer list, expanded, for flags that read each."""
    return list(chain.from_iterable(_parse_int_list(text)))


def _parse_index(text: str | None) -> tuple[int, ...]:
    if not text or not text.strip():
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse index {text!r}")


def _json_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _series_json(s) -> dict:
    names = s.ring.variables
    out = {}
    for exps, tp in sorted(s.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        parts = [f"{v}^{e}" if e > 1 else v for v, e in zip(names, exps) if e]
        out["*".join(parts) if parts else "1"] = tp.to_json()
    return out


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out_path!r}: {exc.strerror}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# compute and table: one declaration per kind
# ---------------------------------------------------------------------------

class _Kind(NamedTuple):
    """Everything about one compute or table kind.

    `reads` maps each flag it reads besides --format and --out to its value
    when not given; any other flag given is a usage error.  `needs` lists
    (flag, least, most) in the order checked, most None for no upper bound;
    --n is read as a list of ranges and bounded by its least entry.
    `value(**flags)` gives the JSON value of a compute kind, the
    ((n, k, l), TPoly) rows of a table kind."""

    reads: dict
    needs: tuple[tuple[str, int, int | None], ...]
    value: Callable


# the entries of a parsed command line that are not flags of its kind
_NOT_FLAGS = ("command", "kind", "format", "out", "fn")


def _checked(args: argparse.Namespace) -> tuple[_Kind, dict]:
    """The declaration of args.kind and the flags it reads, defaults filled
    in and --n parsed, once every rule of the declaration holds."""
    kinds = _KINDS[args.command]
    name = args.kind.replace("-", "_")
    if name not in kinds:
        raise UsageError(f"unknown {args.command} kind {args.kind!r}")
    kind = kinds[name]
    given = {flag: value for flag, value in vars(args).items()
             if value is not None and flag not in _NOT_FLAGS}
    unread = [f"--{flag}" for flag in given if flag not in kind.reads]
    if unread:
        raise UsageError(f"{args.command} {args.kind} does not read {', '.join(unread)}")
    flags = {flag: given.get(flag, default) for flag, default in kind.reads.items()}
    if "n" in flags:
        flags["n"] = _parse_int_list(flags["n"] or "")
    # a table's messages name the command, a compute kind's only the kind
    who = f"table {name}" if args.command == "table" else name
    for flag, least, most in kind.needs:
        value = flags[flag]
        if flag == "n":
            # a selection without rows is a usage error, not a header-only table
            if not value:
                raise UsageError(f"{who} needs at least one --n")
            value = min(piece.start for piece in value)
        elif value is None:
            raise UsageError(f"{who} needs --{flag}")
        if value < least:
            raise UsageError(f"{who} needs --{flag} >= {least}, got {value}")
        if most is not None and value > most:
            raise UsageError(f"{who} needs --{flag} <= {most}, got {value}")
    return kind, flags


def _params(n: int, q: str) -> SeriesParams:
    """The point of a sum: ζ_n for "zeta", else the rational q."""
    if q == "zeta":
        return zeta_params(n)
    try:
        qv = parse_rational(q)
    except ValueError:
        raise UsageError(f"cannot parse q spec {q!r}")
    return SeriesParams(n, qv)


def _sum(fn: Callable, render: Callable) -> _Kind:
    """A sum over the multi-index --index at the point (--n, --q)."""
    def value(n: int, q: str, index: str | None):
        sp = _params(n, q)
        return render(fn(_parse_index(index), sp))
    return _Kind({"n": None, "q": "zeta", "index": None}, (("n", 1, None),), value)


def _g_sum(n: int, q: str, k: int, l: int, h: str, j: int) -> dict:
    sp = _params(n, q)
    return g_sum(HeightProfile(k, l, tuple(_int_values(h)), j), sp).to_json()


def _gsum_rows(n: list[range], k: int) -> list:
    return [((m, w, d), g_sum(HeightProfile(w, d), zeta_params(m)).rationalized())
            for m in chain.from_iterable(n) for w in range(k + 1) for d in range(w + 1)]


def _eval_rows(n: list[range], k: int, l: int) -> list:
    return [((m, w, d), eval_constant_index(w, d, m))
            for m in chain.from_iterable(n) for w in range(1, k + 1) for d in range(l + 1)]


_to_json = methodcaller("to_json")

_KINDS: dict[str, dict[str, _Kind]] = {
    "compute": {
        "zbar": _sum(zbar, scalar_to_json),
        "zbar_star": _sum(zbar_star, scalar_to_json),
        "zbar_t": _sum(zbar_t, _to_json),
        "z_t": _sum(z_t, _to_json),
        "L": _sum(L_poly, _to_json),
        "g_sum": _Kind({"n": None, "q": "zeta", "k": None, "l": None, "h": "", "j": -1},
                       (("n", 1, None), ("k", 0, None), ("l", 0, None)), _g_sum),
        "eval_const": _Kind({"n": None, "k": None, "l": None},
                            (("n", 2, None), ("k", 1, 3), ("l", 0, None)),
                            lambda n, k, l: eval_constant_index(k, l, n).to_json()),
        "u_poly": _Kind({"n": None}, (("n", 1, None),), lambda n: _series_json(u_poly(n))),
        "xi_coeff": _Kind({"l": None}, (("l", 0, None),),
                          lambda l: xi_ones_coeff(l).to_json()),
    },
    "table": {
        "gsum": _Kind({"n": None, "k": 3}, (("n", 1, None), ("k", 0, None)), _gsum_rows),
        "eval": _Kind({"n": None, "k": 3, "l": 4},
                      (("n", 2, None), ("k", 1, 3), ("l", 0, None)), _eval_rows),
    },
}


def _cmd_compute(args: argparse.Namespace) -> int:
    kind, flags = _checked(args)
    if "n" in flags:
        (first, *rest) = flags["n"]  # _checked refuses an empty --n
        if rest or first.stop != first.start + 1:
            raise UsageError("compute takes a single --n")
        flags["n"] = first.start
    value = kind.value(**flags)
    _emit((_compute_csv(value) if args.format == "csv" else _json_line(value)) + "\n",
          args.out)
    return EXIT_OK


def _compute_csv(value) -> str:
    """Flatten a JSON value into key,value CSV lines (exact strings)."""
    if isinstance(value, str):
        return value
    return "\n".join(f"{key},{cell if isinstance(cell, str) else _json_line(cell)}"
                     for key, cell in value.items())


def _cmd_table(args: argparse.Namespace) -> int:
    kind, flags = _checked(args)
    rows: list[tuple[tuple[int, ...], TPoly]] = kind.value(**flags)
    width = max((tp.degree() + 1 for _, tp in rows if not tp.is_zero()), default=0)
    columns = ["n", "k", "l"] + [f"t^{e}" for e in range(width)]
    cells = [[str(v) for v in key] + [render_rational(Fraction(tp.coeffs.get(e, 0)))
                                      for e in range(width)]
             for key, tp in rows]
    if args.format == "csv":
        lines = [",".join(columns)] + [",".join(row) for row in cells]
        body = "\n".join(lines) + "\n"
    else:
        body = _json_line({"columns": columns, "rows": cells}) + "\n"
    _emit(body, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_worker(item: tuple[str, dict]) -> tuple[dict, str | None]:
    """The report of one instance, and the traceback if it crashed.

    A package error or ValueError propagates and stops the run; any other
    exception is a defect of this instance alone, reported as "error"."""
    ident, params = item
    try:
        return check_identity(ident, params).to_json(), None
    except (QHarmonicError, ValueError):
        raise
    except Exception as exc:
        report = IdentityReport(ident, params, "error",
                                mismatch={"error": f"{type(exc).__name__}: {exc}"})
        return report.to_json(), traceback.format_exc()


def _verify_group(group: list[tuple[int, tuple[str, dict]]]) -> list:
    return [(i, _verify_worker(item)) for i, item in group]


def _run_instances(instances: list[tuple[str, dict]], jobs: int) -> list:
    """(report, traceback) per instance, in instance order.

    With several jobs, the instances of one sharing_key (one (n, q), or one
    suite without an n) go to one worker as one task, so each cached builder
    and the sums under it are built in one worker only; the largest groups
    go first, ties in first-seen order."""
    if jobs == 1:
        return [_verify_worker(item) for item in instances]
    # imported here, so that a one-job run does not load the pool's modules
    from concurrent.futures import ProcessPoolExecutor

    groups: dict = {}
    for i, item in enumerate(instances):
        groups.setdefault(sharing_key(*item), []).append((i, item))
    tasks = sorted(groups.values(), key=len, reverse=True)
    results: list = [None] * len(instances)
    # the pool forks all its workers at the first submit: no more than tasks
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(tasks)))
    futures = [pool.submit(_verify_group, task) for task in tasks]
    try:
        for future in futures:
            for i, result in future.result():
                results[i] = result
    except BaseException:
        # A package error stops the run, so no other report is read: stop the
        # running groups (no public call before Python 3.14) and let shutdown
        # drop the queued ones in the pool's thread.  A future cancelled here
        # would make that thread raise InvalidStateError if it saw a worker
        # die first, since it then fails every queued future.
        for proc in list(pool._processes.values()):
            proc.terminate()
        pool.shutdown(cancel_futures=True)
        raise
    pool.shutdown()
    return results


def _select_instances(args: argparse.Namespace) -> list[tuple[str, dict]]:
    if args.suite == "all":
        idents = list(list_identities())
    else:
        name = args.suite.replace("-", "_")
        if name not in list_identities():
            raise UnknownIdentity(
                f"unknown suite {args.suite!r}; known: all, "
                + ", ".join(list_identities()))
        idents = [name]
    ns = _parse_int_list(args.n) if args.n else None
    rs = _parse_int_list(args.r) if args.r else None
    out = []
    for ident in idents:
        for params in default_instances(ident):
            if ns is not None and "n" in params and not any(params["n"] in p for p in ns):
                continue
            if rs is not None and "r" in params and not any(params["r"] in p for p in rs):
                continue
            if args.q is not None and "q" in params and params["q"] != args.q:
                continue
            if "cap" in params:
                cap = args.cap if args.cap is not None else params["cap"]
                if args.max_cap is not None:
                    cap = min(cap, args.max_cap)
                params = dict(params, cap=cap)
            out.append((ident, params))
    return out


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    instances = _select_instances(args)
    if not instances:
        given = [f"--{flag} {value}" for flag, value
                 in (("n", args.n), ("r", args.r), ("q", args.q)) if value is not None]
        raise UsageError(f"no instances of {args.suite} match {' '.join(given)}")
    results = _run_instances(instances, args.jobs)
    reports = [rep for rep, _ in results]
    for _, trace in results:
        if trace is not None:
            sys.stderr.write(trace)

    counts = {"pass": 0, "fail": 0, "skip": 0, "error": 0}
    for rep in reports:
        counts[rep["status"]] += 1
    if args.format == "csv":
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["identity", "status", "params", "mismatch"])
        for rep in reports:
            writer.writerow([
                rep["identity"],
                rep["status"],
                _json_line(rep["params"]),
                _json_line(rep["mismatch"]) if rep["mismatch"] else "",
            ])
        body = buf.getvalue()
    else:
        body = "".join(_json_line(rep) + "\n" for rep in reports)
    _emit(body, args.out)
    errors = f" / {counts['error']} errors" if counts["error"] else ""
    print(f"{counts['pass']} passed / {counts['fail']} failed / "
          f"{counts['skip']} skipped{errors}")
    if counts["error"]:
        return EXIT_CRASH
    return EXIT_OK if counts["fail"] == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# xi-check
# ---------------------------------------------------------------------------

def _parse_t(text: str) -> float:
    """One --t sample: a float literal or a rational "p/q"."""
    try:
        t = float(Fraction(text)) if "/" in text else float(text)
    except ValueError:
        raise UsageError(f"cannot parse --t value {text!r}")
    except (ZeroDivisionError, OverflowError):
        t = math.inf
    if not math.isfinite(t):
        raise ValueError(f"--t value {text.strip()!r} is not a finite float")
    return t


def _cmd_xi_check(args: argparse.Namespace) -> int:
    ls = _int_values(args.l)
    ts = [_parse_t(p) for p in args.t.split(",")]
    ns = _int_values(args.n)
    if not ls:
        raise UsageError("--l needs at least one depth")
    if min(ls) < 0:
        raise UsageError(f"--l must be >= 0, got {min(ls)}")
    if not ns or ns[0] < 1 or any(a >= b for a, b in zip(ns, ns[1:])):
        raise UsageError(f"--n must be strictly increasing integers >= 1, got {args.n!r}")
    rows = []
    ok = True
    for l in ls:
        coeff = xi_ones_coeff(l)
        for t in ts:
            try:
                target = complex(float(coeff.eval(Fraction(t)))) * (-2j * cmath.pi) ** l
                errs = [abs(z_t_float((1,) * l, n, t) - target) for n in ns]
            except OverflowError:
                errs = [math.inf]
            if not all(map(math.isfinite, errs)):
                raise ValueError(f"t = {t!r} overflows a float at depth {l}")
            # relative error degenerates at a zero target; fall back to absolute
            rel = errs[-1] / abs(target) if target != 0 else errs[-1]
            # an exact match (error 0) counts as converged
            conv = all(a > b or b == 0 for a, b in zip(errs, errs[1:])) and rel < 0.1
            ok = ok and conv
            rows.append({
                "l": l, "t": t,
                "errors": [f"{e:.6e}" for e in errs],
                "final_rel_err": f"{rel:.6e}",
                "converging": conv,
            })
    if args.format == "csv":
        lines = ["l,t,errors,final_rel_err,converging"]
        for row in rows:
            lines.append(",".join([
                str(row["l"]), str(row["t"]),
                ";".join(row["errors"]), row["final_rel_err"],
                str(row["converging"]).lower(),
            ]))
        body = "\n".join(lines) + "\n"
    else:
        body = "".join(_json_line(row) + "\n" for row in rows)
    _emit(body, args.out)
    print("converged" if ok else "not converged")
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qharmonic",
        description="Exact finite multiple harmonic q-series calculator "
                    "and identity verifier.")
    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute one exact value")
    pc.add_argument("kind", help="zbar|zbar-star|zbar-t|z-t|g-sum|L|"
                                 "eval-const|u-poly|xi-coeff")
    pc.add_argument("--n", help="modulus (single integer)")
    pc.add_argument("--q", help='"zeta" (the default) or a rational "p/q"')
    pc.add_argument("--index", help="comma-separated multi-index")
    pc.add_argument("--k", type=int, help="weight")
    pc.add_argument("--l", type=int, help="depth")
    pc.add_argument("--h", help="comma-separated i-heights")
    pc.add_argument("--j", type=int, help="head bound (-1 or absent for none)")
    pc.add_argument("--format", choices=("json", "csv"), default="json")
    pc.add_argument("--out", help="write output to this path")
    pc.set_defaults(fn=_cmd_compute)

    pv = sub.add_parser("verify", help="run identity suites")
    pv.add_argument("--suite", default="all", help="identity id or 'all'")
    pv.add_argument("--n", help="restrict to these n (INT, a..b, or list)")
    pv.add_argument("--r", help="restrict to these r (comma list)")
    pv.add_argument("--q", help="restrict to this q spec")
    pv.add_argument("--cap", type=int, help="override truncation order")
    pv.add_argument("--max-cap", type=int, help="clamp truncation order")
    pv.add_argument("--jobs", type=int, default=1, help="worker processes")
    pv.add_argument("--format", choices=("json", "csv"), default="json")
    pv.add_argument("--out", help="write per-instance reports to this path")
    pv.set_defaults(fn=_cmd_verify)

    pt = sub.add_parser("table", help="emit a value table")
    pt.add_argument("kind", help="gsum|eval")
    pt.add_argument("--n", help="moduli (INT, a..b, or list)")
    pt.add_argument("--k", type=int, help="max weight (default 3)")
    pt.add_argument("--l", type=int, help="max depth (eval; default 4)")
    pt.add_argument("--format", choices=("json", "csv"), default="csv")
    pt.add_argument("--out", help="write table to this path")
    pt.set_defaults(fn=_cmd_table)

    px = sub.add_parser("xi-check", help="floating-point convergence probe")
    px.add_argument("--l", default="1,2,3", help="depths to probe")
    px.add_argument("--t", default="0,0.5,1", help="t samples (floats allowed)")
    px.add_argument("--n", default="50,400", help="moduli, increasing")
    px.add_argument("--format", choices=("json", "csv"), default="json")
    px.add_argument("--out", help="write rows to this path")
    px.set_defaults(fn=_cmd_xi_check)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_USAGE
    try:
        return args.fn(args)
    except (UsageError, UnknownIdentity) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidParams, QHarmonicError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception:
        # any other exception is a defect, not a failed check (EXIT_FAIL)
        traceback.print_exc()
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
