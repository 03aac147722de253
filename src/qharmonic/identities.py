"""Named identity checks over bounded parameter grids.

Every check compares two (or more) independently computed exact objects and
reports the first mismatching coefficient on failure.  The registry maps
stable identifiers to runner functions plus default parameter grids sized
for desk-scale runs.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

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
    T_MINUS_ONE,
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


Q_SAMPLES = ("zeta", "1/2", "2", "-3", "5/7")


def q_value(spec: str, n: int) -> Scalar:
    """Resolve a q argument: "zeta" means the primitive n-th root, anything
    else parses as an exact rational."""
    if spec == "zeta":
        return CycloNumber.zeta(n)
    return parse_rational(spec)


def _int_param(params: dict, key: str, lo: int, hi: int) -> int:
    try:
        value = int(params[key])
    except (KeyError, TypeError, ValueError):
        raise InvalidParams(f"missing or bad integer parameter {key!r}")
    if not (lo <= value <= hi):
        raise InvalidParams(f"{key}={value} outside [{lo}, {hi}]")
    return value


def _q_param(params: dict, n: int) -> Scalar:
    spec = params.get("q", "zeta")
    if not isinstance(spec, str):
        raise InvalidParams("q must be a string spec")
    try:
        return q_value(spec, n)
    except QHarmonicError:
        raise
    except ValueError:
        raise InvalidParams(f"unparseable q spec {spec!r}")


def _aggregate(identity: str, params: dict, checks: list[tuple[str, dict | None]],
               lhs: str, rhs: str) -> IdentityReport:
    failures = [{"check": name, **mm} for name, mm in checks if mm is not None]
    return IdentityReport(
        identity=identity,
        params=params,
        status="pass" if not failures else "fail",
        lhs=f"{len(checks)} subchecks ({lhs})",
        rhs=rhs if not failures else f"{len(failures)} mismatched",
        mismatch=failures[0] if failures else None,
    )


def _compare(identity: str, params: dict, a: Series, b: Series,
             lhs: str, rhs: str) -> IdentityReport:
    """Report of a check that compares two series."""
    mm = series_mismatch(a, b)
    return IdentityReport(
        identity=identity, params=params,
        status="pass" if mm is None else "fail",
        lhs=lhs, rhs=rhs, mismatch=mm,
    )


@lru_cache(maxsize=64)
def _psi_brute(n: int, r: int, q: Scalar, cap: int) -> Series:
    return psi_bruteforce(n, r, q, cap)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _run_thm1_1(params: dict) -> IdentityReport:
    n = _int_param(params, "n", 2, 16)
    r = _int_param(params, "r", 1, 4)
    cap = _int_param(params, "cap", 1, 8)
    q = _q_param(params, n)
    return _compare("thm1_1", params,
                    _psi_brute(n, r, q, cap), psi_product(n, r, q, cap),
                    "height generating function from profile sums",
                    "two-sided product over the characteristic polynomial")


def _run_reflection(params: dict) -> IdentityReport:
    n = _int_param(params, "n", 2, 16)
    r = _int_param(params, "r", 1, 4)
    cap = _int_param(params, "cap", 1, 8)
    q = _q_param(params, n)
    a = _psi_brute(n, r, q, cap)
    return _compare("reflection", params, a * reflect_companion(a), a.ring.one(),
                    "psi(t) * psi(1-t; second block negated)", "1")


def _run_half_t(params: dict) -> IdentityReport:
    n = _int_param(params, "n", 2, 16)
    r = _int_param(params, "r", 1, 4)
    cap = _int_param(params, "cap", 1, 8)
    q = _q_param(params, n)
    half = series_eval_t(_psi_brute(n, r, q, cap), Fraction(1, 2))
    return _compare("half_t_self_dual", params,
                    half * half.negate_vars(half.ring.variables[1:]), half.ring.one(),
                    "psi at t=1/2 times its negated-block twin", "1")


def _run_thm1_3(params: dict) -> IdentityReport:
    n = _int_param(params, "n", 2, 16)
    cap = _int_param(params, "cap", 1, 8)
    return _compare("thm1_3", params,
                    _psi_brute(n, 1, CycloNumber.zeta(n), cap), u_poly_ratio(n, cap),
                    "psi at the primitive root, rank one",
                    "ratio of the closed counting polynomials")


def _run_cor1_4_triple(params: dict) -> IdentityReport:
    n = _int_param(params, "n", 2, 10)
    k = _int_param(params, "k", 0, 8)
    zp = zeta_params(n)
    checks = []
    for l, a, b in zip(range(k + 1), sum_formulas(n, k, "eq13"), sum_formulas(n, k, "eq14")):
        c = g_sum(HeightProfile(k, l), zp).rationalized()
        checks.append((f"double-sum=depth-one-sum[l={l}]", poly_mismatch(a, b)))
        checks.append((f"double-sum=brute[l={l}]", poly_mismatch(a, c)))
    return _aggregate("cor1_4_triple", params, checks,
                      "both closed sum formulas vs direct summation",
                      "all three agree")


def _run_eq1_2_equiv(params: dict) -> IdentityReport:
    n = _int_param(params, "n", 2, 10)
    k = _int_param(params, "k", 1, 10)
    checks = []
    for l in range(1, k + 1):
        a = sum_formula(n, k, l, "eq12")
        b = sum_formula(n, k, l, "btt314")
        checks.append((f"l={l}", poly_mismatch(a, b)))
    return _aggregate("eq1_2_equiv", params, checks,
                      "tail-sum form vs head-sum rearrangement",
                      "equal for every depth")


def _run_cor1_5(params: dict) -> IdentityReport:
    k = _int_param(params, "k", 1, 3)
    n = _int_param(params, "n", 2, 10)
    lmax = _int_param(params, "lmax", 0, 6)
    zp = zeta_params(n)
    gen = kpow_generating(k, n, lmax)
    checks = []
    for l in range(lmax + 1):
        ev = eval_constant_index(k, l, n)
        br = zbar_t((k,) * l, zp).rationalized()
        kc = gen.coefficient({"v": l})
        checks.append((f"closed=brute[l={l}]", poly_mismatch(ev, br)))
        checks.append((f"closed=product[l={l}]", poly_mismatch(ev, kc)))
    return _aggregate("cor1_5", params, checks,
                      "constant-index closed form vs brute vs v-series",
                      "all three agree")


_PHI_SLICES = {
    "lemma2_1": "profile-sum recurrences on sampled profiles",
    "prop2_2": "q-difference system of the generating functions",
    "cor2_3": "single equation for the next-to-last generating function",
    "thm2_4": "value at z=1 against the two-sided product",
    "c_i": "closed product formula for the z-coefficients",
}


def _run_phi_slice(ident: str, params: dict) -> IdentityReport:
    n = _int_param(params, "n", 2, 16)
    r = _int_param(params, "r", 1, 4)
    cap = _int_param(params, "cap", 1, 6)
    q = _q_param(params, n)
    mine = [(name, mm) for name, mm in phi_system_checks(n, r, q, cap)
            if name.startswith(ident)]
    if not mine:
        raise InvalidParams(f"{ident} has no instances at r={r}")
    return _aggregate(ident, params, mine, _PHI_SLICES[ident], "all equal")


def _run_lemma3_1(params: dict) -> IdentityReport:
    n = _int_param(params, "n", 2, 10)
    wtmax = _int_param(params, "wtmax", 1, 6)
    q = _q_param(params, n)
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
    return _aggregate("lemma3_1", params, checks,
                      "polylog at z=1 vs binomial-weighted harmonic sums",
                      "equal for every index")


def _run_lemma3_2_roundtrip(params: dict) -> IdentityReport:
    r = _int_param(params, "r", 1, 6)
    cap = _int_param(params, "cap", 1, 6)
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
    return _aggregate("lemma3_2_roundtrip", params, checks,
                      "substitution inverse, matrix form, Pascal inverse",
                      "identity recovered")


def _run_lemma4_1(params: dict) -> IdentityReport:
    r = _int_param(params, "r", 1, 5)
    cap = _int_param(params, "cap", 1, 4)
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
    return _aggregate("lemma4_1", params, checks,
                      "x-series with all but the last u set to zero",
                      "signed binomial multiples of the last u")


def _run_pt_special(params: dict) -> IdentityReport:
    r = _int_param(params, "r", 1, 5)
    cap = _int_param(params, "cap", 1, 4)
    xs = x_from_u(r, cap)
    pp = p_poly(r, 0, xs)
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
    return _aggregate("pt_special", params, checks,
                      "characteristic polynomial under the specialization",
                      "T^{r+1} - t(1-T)^r times the last u")


def _run_kpow_rationality(params: dict) -> IdentityReport:
    k = _int_param(params, "k", 1, 6)
    n = _int_param(params, "n", 2, 10)
    vcap = _int_param(params, "vcap", 0, 8)
    gen = kpow_generating(k, n, vcap)
    checks = [("rationalized", None)]
    for (e,), tp in sorted(gen.terms.items()):
        if tp.degree() > e:
            checks.append((f"t-degree[v^{e}]",
                           {"t_degree": tp.degree(), "bound": e}))
    return _aggregate("kpow_rationality", params, checks,
                      "v-series coefficients rational with bounded t-degree",
                      "within bounds")


def _run_k3_closed(params: dict) -> IdentityReport:
    n = _int_param(params, "n", 2, 10)
    vcap = _int_param(params, "vcap", 1, 8)
    zp = zeta_params(n)
    h_log = h_series(3, n, vcap)
    checks = [("log-extraction=closed",
               series_mismatch(h_log, h_closed_k3(n, vcap)))]
    gen = kpow_generating(3, n, vcap)
    checks.append(("finite-quotient=product",
                   series_mismatch(kpow_ratio_closed(3, n, vcap), gen)))
    h_shift = series_affine_t(h_log, 1, -1)
    checks.append(("t-weighted-ratio",
                   series_mismatch(gen * h_log * T_MINUS_ONE,
                                   h_shift * TPoly.t())))
    for l in range(vcap + 1):
        br = zbar_t((3,) * l, zp).rationalized()
        checks.append((f"product=brute[l={l}]",
                       poly_mismatch(gen.coefficient({"v": l}), br)))
    return _aggregate("k3_closed", params, checks,
                      "repeated-threes family: log form, quotient, t-weighting",
                      "all equal")


def _run_chu(params: dict) -> IdentityReport:
    nmax = _int_param(params, "nmax", 1, 12)
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
    return _aggregate("chu_vandermonde", params, checks,
                      "split binomial convolution", "collapses to one binomial")


def _run_btt_3_13(params: dict) -> IdentityReport:
    n = _int_param(params, "n", 2, 10)
    cap = _int_param(params, "cap", 1, 10)
    ring = SeriesRing(("u1",), cap)
    den = Series(ring, {
        (j,): TPoly.const(Fraction(binomial(n, j + 1)))
        for j in range(min(n, cap + 1))
    })
    lhs = den.invert()
    rhs = Series(ring, {
        (l,): TPoly.const(Fraction(-zbar_depth1_rational(n, l), n))
        for l in range(cap + 1)
    })
    return _compare("btt_3_13", params, lhs, rhs,
                    "first u over the shifted binomial expansion",
                    "depth-one values at the primitive root, weight zero read as -1")


def _run_remark_qhs(params: dict) -> IdentityReport:
    w = PINNED_QHS_WITNESS
    if w is None:
        return IdentityReport(
            identity="remark_qhs", params=params, status="skip",
            lhs="no pinned rational witness at the documented search bounds",
            rhs="hypergeometric representation not exercised",
            mismatch=None,
        )
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
    return _aggregate("remark_qhs", dict(params, witness=w.to_json()), checks,
                      "closed coefficients vs truncated hypergeometric series",
                      "representation exact at the witness")


def _run_z_zbar_scaling(params: dict) -> IdentityReport:
    samples = _int_param(params, "samples", 1, 500)
    seed = _int_param(params, "seed", 0, 2**31)
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
    return _aggregate("z_zbar_scaling", params, checks,
                      "q-integer vs one-minus-q normalizations, both interpolations",
                      "consistent on the sampled grid")


# ---------------------------------------------------------------------------
# registry and default grids
# ---------------------------------------------------------------------------

def _grid_psi() -> list[dict]:
    out = []
    for r in (1, 2):
        cap = 4 if r == 1 else 3
        for n in range(2, 6):
            for spec in Q_SAMPLES:
                out.append({"n": n, "r": r, "q": spec, "cap": cap})
    return out


def _grid_reflect() -> list[dict]:
    out = []
    for r in (1, 2):
        cap = 4 if r == 1 else 3
        for n in range(2, 6):
            out.append({"n": n, "r": r, "q": "zeta", "cap": cap})
    return out


def _grid_phi() -> list[dict]:
    return [
        {"n": n, "r": r, "q": spec, "cap": 3}
        for r in (1, 2)
        for n in range(2, 6)
        for spec in ("zeta", "1/2")
    ]


_REGISTRY: dict[str, tuple] = {
    "thm1_1": (_run_thm1_1, _grid_psi),
    "reflection": (_run_reflection, _grid_reflect),
    "half_t_self_dual": (_run_half_t, _grid_reflect),
    "thm1_3": (_run_thm1_3, lambda: [{"n": n, "cap": 5} for n in range(2, 7)]),
    "cor1_4_triple": (_run_cor1_4_triple, lambda: [
        {"n": n, "k": k} for n in range(2, 7) for k in range(0, 7)]),
    "eq1_2_equiv": (_run_eq1_2_equiv, lambda: [
        {"n": n, "k": k} for n in range(2, 8) for k in range(1, 8)]),
    "cor1_5": (_run_cor1_5, lambda: [
        {"k": k, "n": n, "lmax": 4} for k in (1, 2, 3) for n in range(2, 7)]),
    "lemma2_1": (lambda p: _run_phi_slice("lemma2_1", p), _grid_phi),
    "prop2_2": (lambda p: _run_phi_slice("prop2_2", p), _grid_phi),
    "cor2_3": (lambda p: _run_phi_slice("cor2_3", p), _grid_phi),
    "thm2_4": (lambda p: _run_phi_slice("thm2_4", p), _grid_phi),
    "c_i": (lambda p: _run_phi_slice("c_i", p), _grid_phi),
    "lemma3_1": (_run_lemma3_1, lambda: [
        {"n": n, "q": spec, "wtmax": 5}
        for n in range(2, 6) for spec in ("zeta", "1/2")]),
    "lemma3_2_roundtrip": (_run_lemma3_2_roundtrip, lambda: [
        {"r": r, "cap": 5} for r in (1, 2, 3)] + [
        {"r": r, "cap": 2} for r in (4, 5)]),
    "lemma4_1": (_run_lemma4_1, lambda: [
        {"r": r, "cap": 2} for r in (1, 2, 3, 4)]),
    "pt_special": (_run_pt_special, lambda: [
        {"r": r, "cap": 2} for r in (1, 2, 3, 4)]),
    "kpow_rationality": (_run_kpow_rationality, lambda: [
        {"k": k, "n": n, "vcap": 4} for k in (1, 2, 3) for n in range(2, 7)]),
    "k3_closed": (_run_k3_closed, lambda: [
        {"n": n, "vcap": 4} for n in range(2, 6)]),
    "chu_vandermonde": (_run_chu, lambda: [{"nmax": 8}]),
    "btt_3_13": (_run_btt_3_13, lambda: [
        {"n": n, "cap": 6} for n in range(2, 7)]),
    "remark_qhs": (_run_remark_qhs, lambda: [{}]),
    "z_zbar_scaling": (_run_z_zbar_scaling, lambda: [
        {"samples": 30, "seed": 20250817}]),
}


_PSI_SUITES = ("thm1_1", "reflection", "half_t_self_dual", "thm1_3")


def sharing_key(ident: str, params: dict) -> tuple | None:
    """The arguments of the cached builder an instance reads: ("phi", n, r,
    q, cap) for phi_system_checks and ("psi", n, r, q, cap) for _psi_brute.
    Instances with one key share the build when they run in one process;
    None for an instance that shares nothing."""
    if ident in _PHI_SLICES:
        builder = "phi"
    elif ident in _PSI_SUITES:
        builder = "psi"
    else:
        return None
    r = 1 if ident == "thm1_3" else params.get("r")
    return (builder, params.get("n"), r, params.get("q", "zeta"), params.get("cap"))


def list_identities() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def check_identity(ident: str, params: dict) -> IdentityReport:
    """Run one registered check instance."""
    if ident not in _REGISTRY:
        raise UnknownIdentity(f"no identity registered as {ident!r}")
    runner, _ = _REGISTRY[ident]
    return runner(dict(params))


def default_instances(ident: str) -> list[dict]:
    if ident not in _REGISTRY:
        raise UnknownIdentity(f"no identity registered as {ident!r}")
    return _REGISTRY[ident][1]()
