"""Named identity checks over bounded parameter grids.

Every check compares two (or more) independently computed exact objects and
reports the first mismatching coefficient on failure.  The registry declares
each check once: its parameters and their ranges, its default grid (sized
for desk-scale runs), the text of its report, the cached builder its
instances share, and the runner that computes its sides.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from typing import Callable

from .exact import (
    CycloNumber,
    QHarmonicError,
    Scalar,
    TPoly,
    binomial,
    parse_rational,
    scalar_pow,
)
from .genfun import (
    IdentityReport,
    PINNED_QHS_WITNESS,
    eval_constant_index,
    h_closed_k3,
    h_series,
    kpow_generating,
    kpow_ratio_closed,
    mat_mul,
    p_poly,
    pascal_T,
    phi_system_checks,
    poly_mismatch,
    psi_bruteforce,
    psi_product,
    qhs_phi_coefficients,
    reflect_companion,
    roundtrip_u,
    scalar_mismatch,
    search_qhs_witness,
    series_affine_t,
    series_eval_t,
    series_mismatch,
    sum_formula,
    sum_formulas,
    u_from_x,
    u_from_x_matrix,
    u_poly_ratio,
    u_variable_names,
    validate_qhs_witness,
    x_from_u,
    zbar_depth1_rational,
)
from .indices import HeightProfile, compositions
from .qseries import (
    L_poly,
    SeriesParams,
    g_sum,
    z,
    z_star,
    z_t,
    zbar,
    zbar_star,
    zbar_t,
    zeta_params,
)
from .series import Series, SeriesRing


class UnknownIdentity(QHarmonicError):
    """No registered check with that identifier."""


class InvalidParams(QHarmonicError):
    """Parameters outside the documented ranges for the check."""


class _NotExercised(Exception):
    """Raised by a runner whose prerequisites are absent; the report is a
    skip with the two arguments as its lhs and rhs."""


Q_SAMPLES = ("zeta", "1/2", "2", "-3", "5/7")


def q_value(spec: str, n: int) -> Scalar:
    """Resolve a q argument: "zeta" means the primitive n-th root, anything
    else parses as an exact rational."""
    if spec == "zeta":
        return CycloNumber.zeta(n)
    return parse_rational(spec)


@lru_cache(maxsize=64)
def _psi_brute(n: int, r: int, q: Scalar, cap: int) -> Series:
    return psi_bruteforce(n, r, q, cap)


# ---------------------------------------------------------------------------
# runners: each takes its parsed parameters as keywords and returns either
# one mismatch (None when its two sides agree) or (subcheck, mismatch) pairs
# ---------------------------------------------------------------------------

def _run_thm1_1(n: int, r: int, cap: int, q: Scalar) -> dict | None:
    return series_mismatch(_psi_brute(n, r, q, cap), psi_product(n, r, q, cap))


def _run_reflection(n: int, r: int, cap: int, q: Scalar) -> dict | None:
    a = _psi_brute(n, r, q, cap)
    return series_mismatch(a * reflect_companion(a), a.ring.one())


def _run_half_t(n: int, r: int, cap: int, q: Scalar) -> dict | None:
    half = series_eval_t(_psi_brute(n, r, q, cap), Fraction(1, 2))
    return series_mismatch(half * half.negate_vars(half.ring.variables[1:]), half.ring.one())


def _run_thm1_3(n: int, cap: int) -> dict | None:
    return series_mismatch(_psi_brute(n, 1, CycloNumber.zeta(n), cap), u_poly_ratio(n, cap))


def _run_cor1_4_triple(n: int, k: int) -> list:
    zp = zeta_params(n)
    checks = []
    for l, a, b in zip(range(k + 1), sum_formulas(n, k, "eq13"), sum_formulas(n, k, "eq14")):
        c = g_sum(HeightProfile(k, l), zp).rationalized()
        checks.append((f"double-sum=depth-one-sum[l={l}]", poly_mismatch(a, b)))
        checks.append((f"double-sum=brute[l={l}]", poly_mismatch(a, c)))
    return checks


def _run_eq1_2_equiv(n: int, k: int) -> list:
    checks = []
    for l in range(1, k + 1):
        a = sum_formula(n, k, l, "eq12")
        b = sum_formula(n, k, l, "btt314")
        checks.append((f"l={l}", poly_mismatch(a, b)))
    return checks


def _run_cor1_5(k: int, n: int, lmax: int) -> list:
    zp = zeta_params(n)
    gen = kpow_generating(k, n, lmax)
    checks = []
    for l in range(lmax + 1):
        ev = eval_constant_index(k, l, n)
        br = zbar_t((k,) * l, zp).rationalized()
        kc = gen.coefficient({"v": l})
        checks.append((f"closed=brute[l={l}]", poly_mismatch(ev, br)))
        checks.append((f"closed=product[l={l}]", poly_mismatch(ev, kc)))
    return checks


def _run_lemma3_1(n: int, wtmax: int, q: Scalar) -> list:
    sp = SeriesParams(n, q)
    checks = []
    for w in range(1, wtmax + 1):
        for l in range(1, w + 1):
            for parts in compositions(w, l):
                lhs = L_poly(parts, sp, "interp").eval_z_one()
                rhs = TPoly.zero()
                for sub in iproduct(*(range(1, kj + 1) for kj in parts)):
                    coeff = 1
                    for kj, aj in zip(parts, sub):
                        coeff *= binomial(kj - 1, aj - 1)
                    rhs = rhs + zbar_t(sub, sp) * coeff
                checks.append((f"k={parts}", poly_mismatch(lhs, rhs)))
    return checks


def _run_lemma3_2_roundtrip(r: int, cap: int) -> list:
    checks = []
    rt = roundtrip_u(r, cap)
    ring = rt[0].ring
    for i, s in enumerate(rt):
        checks.append((f"roundtrip[u{i + 1}]",
                       series_mismatch(s, ring.var(f"u{i + 1}"))))
    direct = u_from_x(r, cap)
    via_matrix = u_from_x_matrix(r, cap)
    for i, (a, b) in enumerate(zip(direct, via_matrix)):
        checks.append((f"matrix-form[u{i + 1}]", series_mismatch(a, b)))
    mat, inv = pascal_T(r)
    prod = mat_mul(mat, inv)
    ident = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    checks.append(("pascal-inverse",
                   None if prod == ident else {"product": [list(row) for row in prod]}))
    return checks


def _run_lemma4_1(r: int, cap: int) -> list:
    xs = x_from_u(r, cap)
    kept = u_variable_names(r)[:r + 1]
    last = xs[0].ring.var(f"u{r + 2}")
    checks = []
    for i in range(1, r + 3):
        s = xs[i - 1]
        for v in kept:
            s = s.set_var_zero(v)
        c = (-1) ** ((r - i) % 2) * binomial(r, r + 2 - i)
        checks.append((f"x{i}", series_mismatch(s, last * Fraction(c))))
    return checks


def _run_pt_special(r: int, cap: int) -> list:
    xs = x_from_u(r, cap)
    pp = p_poly(r, xs)
    ring = xs[0].ring
    kept = u_variable_names(r)[:r + 1]
    last = ring.var(f"u{r + 2}")
    checks = []
    for idx in range(r + 2):
        s = pp[idx]
        for v in kept:
            s = s.set_var_zero(v)
        if idx == r + 1:
            expected = ring.one()
        else:
            c = -((-1) ** (idx % 2)) * binomial(r, idx)
            expected = last * TPoly({1: Fraction(c)})
        checks.append((f"T^{idx}", series_mismatch(s, expected)))
    return checks


def _run_kpow_rationality(k: int, n: int, vcap: int) -> list:
    gen = kpow_generating(k, n, vcap)
    checks = [("rationalized", None)]
    for (e,), tp in sorted(gen.terms.items()):
        if tp.degree() > e:
            checks.append((f"t-degree[v^{e}]",
                           {"t_degree": tp.degree(), "bound": e}))
    return checks


def _run_k3_closed(n: int, vcap: int) -> list:
    zp = zeta_params(n)
    h_log = h_series(3, n, vcap)
    checks = [("log-extraction=closed",
               series_mismatch(h_log, h_closed_k3(n, vcap)))]
    gen = kpow_generating(3, n, vcap)
    checks.append(("finite-quotient=product",
                   series_mismatch(kpow_ratio_closed(3, n, vcap), gen)))
    h_shift = series_affine_t(h_log, 1, -1)
    checks.append(("t-weighted-ratio",
                   series_mismatch(gen * h_log * (TPoly.t() - 1),
                                   h_shift * TPoly.t())))
    for l in range(vcap + 1):
        br = zbar_t((3,) * l, zp).rationalized()
        checks.append((f"product=brute[l={l}]",
                       poly_mismatch(gen.coefficient({"v": l}), br)))
    return checks


def _run_chu(nmax: int) -> list:
    checks = []
    for n in range(1, nmax + 1):
        for i in range(n):
            for j in range(n):
                lhs = sum(binomial(b, i) * binomial(n - 1 - b, j)
                          for b in range(i, n - j))
                rhs = binomial(n, i + j + 1)
                checks.append((
                    f"n={n},i={i},j={j}",
                    None if lhs == rhs else {"lhs": lhs, "rhs": rhs},
                ))
    return checks


def _run_btt_3_13(n: int, cap: int) -> dict | None:
    ring = SeriesRing(("u1",), cap)
    den = Series(ring, {
        (j,): TPoly.const(Fraction(binomial(n, j + 1)))
        for j in range(min(n, cap + 1))
    })
    rhs = Series(ring, {
        (l,): TPoly.const(Fraction(-zbar_depth1_rational(n, l), n))
        for l in range(cap + 1)
    })
    return series_mismatch(den.invert(), rhs)


def _run_remark_qhs() -> list:
    w = PINNED_QHS_WITNESS
    if w is None:
        raise _NotExercised("no pinned rational witness at the documented search bounds",
                            "hypergeometric representation not exercised")
    checks = []
    checks.append(("witness-valid",
                   None if validate_qhs_witness(w) else {"witness": w.to_json()}))
    found = search_qhs_witness()
    checks.append(("search-reproduces-pin",
                   None if found == w else {
                       "found": None if found is None else found.to_json(),
                       "pinned": w.to_json()}))
    closed, hyper = qhs_phi_coefficients(w)
    for i, (a, b) in enumerate(zip(closed, hyper), start=1):
        checks.append((f"z^{i}", scalar_mismatch(a, b)))
    return checks


def _run_z_zbar_scaling(samples: int, seed: int) -> list:
    rng = random.Random(seed)
    checks = []
    for _ in range(samples):
        n = rng.randint(2, 6)
        spec = rng.choice(Q_SAMPLES)
        parts = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        sp = SeriesParams(n, q_value(spec, n))
        w = sum(parts)
        scale = scalar_pow(1 - sp.q, w)
        tag = f"n={n},q={spec},k={parts}"
        pairs = [
            ("plain", z(parts, sp), scale * zbar(parts, sp)),
            ("star", z_star(parts, sp), scale * zbar_star(parts, sp)),
            ("interp-t0", zbar_t(parts, sp).eval(Fraction(0)), zbar(parts, sp)),
            ("interp-t1", zbar_t(parts, sp).eval(Fraction(1)), zbar_star(parts, sp)),
            ("qint-t0", z_t(parts, sp).eval(Fraction(0)), z(parts, sp)),
            ("qint-t1", z_t(parts, sp).eval(Fraction(1)), z_star(parts, sp)),
        ]
        for name, a, b in pairs:
            checks.append((f"{name}[{tag}]", scalar_mismatch(a, b)))
    return checks


# ---------------------------------------------------------------------------
# registry and default grids
# ---------------------------------------------------------------------------

def _grid_psi(specs: tuple[str, ...] = Q_SAMPLES) -> list[dict]:
    return [{"n": n, "r": r, "q": spec, "cap": 4 if r == 1 else 3}
            for r in (1, 2) for n in range(2, 6) for spec in specs]


@dataclass(frozen=True)
class _Check:
    """Everything about one registered check.

    `ints` are its integer parameters as (key, lo, hi), validated in this
    order; with `takes_q` the q spec is parsed last, against n.  `lhs` and
    `rhs` are the text of its report.  `builder` names the cached builder its
    instances read: "psi" (_psi_brute) or "phi" (phi_system_checks).
    `fixed` holds parameters the check sets itself, added to its report
    unless it skips."""

    runner: Callable
    grid: Callable[[], list[dict]]
    lhs: str
    rhs: str
    ints: tuple[tuple[str, int, int], ...] = ()
    takes_q: bool = False
    builder: str | None = None
    fixed: dict | None = None


_PSI_INTS = (("n", 2, 16), ("r", 1, 4), ("cap", 1, 8))
_PHI_INTS = (("n", 2, 16), ("r", 1, 4), ("cap", 1, 6))


def _phi(statement: str, lhs: str) -> _Check:
    """One statement of the z-side system; phi_system_checks builds all five
    together and returns their subchecks by statement."""
    return _Check(lambda n, r, cap, q: phi_system_checks(n, r, q, cap)[statement],
                  lambda: [{"n": n, "r": r, "q": spec, "cap": 3} for r in (1, 2)
                           for n in range(2, 6) for spec in ("zeta", "1/2")],
                  lhs, "all equal", _PHI_INTS, takes_q=True, builder="phi")


_REGISTRY: dict[str, _Check] = {
    "thm1_1": _Check(
        _run_thm1_1, _grid_psi,
        "height generating function from profile sums",
        "two-sided product over the characteristic polynomial",
        _PSI_INTS, takes_q=True, builder="psi"),
    "reflection": _Check(
        _run_reflection, lambda: _grid_psi(("zeta",)),
        "psi(t) * psi(1-t; second block negated)", "1",
        _PSI_INTS, takes_q=True, builder="psi"),
    "half_t_self_dual": _Check(
        _run_half_t, lambda: _grid_psi(("zeta",)),
        "psi at t=1/2 times its negated-block twin", "1",
        _PSI_INTS, takes_q=True, builder="psi"),
    "thm1_3": _Check(
        _run_thm1_3, lambda: [{"n": n, "cap": 5} for n in range(2, 7)],
        "psi at the primitive root, rank one",
        "ratio of the closed counting polynomials",
        (("n", 2, 16), ("cap", 1, 8)), builder="psi"),
    "cor1_4_triple": _Check(
        _run_cor1_4_triple, lambda: [{"n": n, "k": k} for n in range(2, 7) for k in range(0, 7)],
        "both closed sum formulas vs direct summation", "all three agree",
        (("n", 2, 10), ("k", 0, 8))),
    "eq1_2_equiv": _Check(
        _run_eq1_2_equiv, lambda: [{"n": n, "k": k} for n in range(2, 8) for k in range(1, 8)],
        "tail-sum form vs head-sum rearrangement", "equal for every depth",
        (("n", 2, 10), ("k", 1, 10))),
    "cor1_5": _Check(
        _run_cor1_5, lambda: [{"k": k, "n": n, "lmax": 4} for k in (1, 2, 3) for n in range(2, 7)],
        "constant-index closed form vs brute vs v-series", "all three agree",
        (("k", 1, 3), ("n", 2, 10), ("lmax", 0, 6))),
    "lemma2_1": _phi("lemma2_1", "profile-sum recurrences on sampled profiles"),
    "prop2_2": _phi("prop2_2", "q-difference system of the generating functions"),
    "cor2_3": _phi("cor2_3", "single equation for the next-to-last generating function"),
    "thm2_4": _phi("thm2_4", "value at z=1 against the two-sided product"),
    "c_i": _phi("c_i", "closed product formula for the z-coefficients"),
    "lemma3_1": _Check(
        _run_lemma3_1,
        lambda: [{"n": n, "q": spec, "wtmax": 5} for n in range(2, 6) for spec in ("zeta", "1/2")],
        "polylog at z=1 vs binomial-weighted harmonic sums", "equal for every index",
        (("n", 2, 10), ("wtmax", 1, 6)), takes_q=True),
    "lemma3_2_roundtrip": _Check(
        _run_lemma3_2_roundtrip,
        lambda: [{"r": r, "cap": 5} for r in (1, 2, 3)] + [{"r": r, "cap": 2} for r in (4, 5)],
        "substitution inverse, matrix form, Pascal inverse", "identity recovered",
        (("r", 1, 6), ("cap", 1, 6))),
    "lemma4_1": _Check(
        _run_lemma4_1, lambda: [{"r": r, "cap": 2} for r in (1, 2, 3, 4)],
        "x-series with all but the last u set to zero",
        "signed binomial multiples of the last u",
        (("r", 1, 5), ("cap", 1, 4))),
    "pt_special": _Check(
        _run_pt_special, lambda: [{"r": r, "cap": 2} for r in (1, 2, 3, 4)],
        "characteristic polynomial under the specialization",
        "T^{r+1} - t(1-T)^r times the last u",
        (("r", 1, 5), ("cap", 1, 4))),
    "kpow_rationality": _Check(
        _run_kpow_rationality,
        lambda: [{"k": k, "n": n, "vcap": 4} for k in (1, 2, 3) for n in range(2, 7)],
        "v-series coefficients rational with bounded t-degree", "within bounds",
        (("k", 1, 6), ("n", 2, 10), ("vcap", 0, 8))),
    "k3_closed": _Check(
        _run_k3_closed, lambda: [{"n": n, "vcap": 4} for n in range(2, 6)],
        "repeated-threes family: log form, quotient, t-weighting", "all equal",
        (("n", 2, 10), ("vcap", 1, 8))),
    "chu_vandermonde": _Check(
        _run_chu, lambda: [{"nmax": 8}],
        "split binomial convolution", "collapses to one binomial",
        (("nmax", 1, 12),)),
    "btt_3_13": _Check(
        _run_btt_3_13, lambda: [{"n": n, "cap": 6} for n in range(2, 7)],
        "first u over the shifted binomial expansion",
        "depth-one values at the primitive root, weight zero read as -1",
        (("n", 2, 10), ("cap", 1, 10))),
    "remark_qhs": _Check(
        _run_remark_qhs, lambda: [{}],
        "closed coefficients vs truncated hypergeometric series",
        "representation exact at the witness",
        fixed=None if PINNED_QHS_WITNESS is None else {"witness": PINNED_QHS_WITNESS.to_json()}),
    "z_zbar_scaling": _Check(
        _run_z_zbar_scaling, lambda: [{"samples": 30, "seed": 20250817}],
        "q-integer vs one-minus-q normalizations, both interpolations",
        "consistent on the sampled grid",
        (("samples", 1, 500), ("seed", 0, 2**31))),
}


def _entry(ident: str) -> _Check:
    if ident not in _REGISTRY:
        raise UnknownIdentity(f"no identity registered as {ident!r}")
    return _REGISTRY[ident]


def _parse(check: _Check, params: dict) -> dict:
    """The runner's keyword arguments: each integer parameter range-checked
    in declaration order, then q."""
    values = {}
    for key, lo, hi in check.ints:
        value = params.get(key)
        # int() would truncate a float or a bool instead of refusing it
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidParams(f"missing or bad integer parameter {key!r}")
        if not (lo <= value <= hi):
            raise InvalidParams(f"{key}={value} outside [{lo}, {hi}]")
        values[key] = value
    if check.takes_q:
        spec = params.get("q", "zeta")
        if not isinstance(spec, str):
            raise InvalidParams("q must be a string spec")
        try:
            values["q"] = q_value(spec, values["n"])
        except QHarmonicError:
            raise
        except ValueError:
            raise InvalidParams(f"unparseable q spec {spec!r}")
    return values


def sharing_key(ident: str, params: dict) -> tuple | None:
    """The arguments of the cached builder an instance reads: ("phi", n, r,
    q, cap) for phi_system_checks and ("psi", n, r, q, cap) for _psi_brute,
    with r = 1 for a check that takes no r.  Instances with one key share the
    build when they run in one process; None for an instance that shares
    nothing."""
    check = _REGISTRY.get(ident)
    if check is None or check.builder is None:
        return None
    r = params.get("r") if any(key == "r" for key, _, _ in check.ints) else 1
    return (check.builder, params.get("n"), r, params.get("q", "zeta"), params.get("cap"))


def list_identities() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def check_identity(ident: str, params: dict) -> IdentityReport:
    """Run one registered check instance.

    A runner that returns one mismatch is reported with the check's lhs and
    rhs; one that returns (subcheck, mismatch) pairs is reported by count,
    with the first failing subcheck as the mismatch."""
    check = _entry(ident)
    values = _parse(check, params)
    try:
        result = check.runner(**values)
    except _NotExercised as skip:
        return IdentityReport(ident, dict(params), "skip", *skip.args)
    params = dict(params, **(check.fixed or {}))
    if result is None or isinstance(result, dict):
        return IdentityReport(ident, params, "pass" if result is None else "fail",
                              check.lhs, check.rhs, result)
    failures = [{"check": name, **mm} for name, mm in result if mm is not None]
    return IdentityReport(ident, params, "fail" if failures else "pass",
                          f"{len(result)} subchecks ({check.lhs})",
                          f"{len(failures)} mismatched" if failures else check.rhs,
                          failures[0] if failures else None)


def default_instances(ident: str) -> list[dict]:
    return _entry(ident).grid()
