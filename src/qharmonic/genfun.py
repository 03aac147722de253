"""Generating functions and closed forms.

This module builds both sides of every verified statement:

* the change of variables between the u-parameters of the height generating
  function and the x-parameters of the polylogarithm generating functions,
  written out term by term in closed form, next to a Pascal-matrix assembly
  of u(x) that clears its poles by a power of x₁;
* the product representation of the height generating function (via
  `p_poly`, which gives P^t only: every t−1 side is its image under
  t -> t−1) next to its brute-force definition (via profile sums); P's
  coefficients and its values P(1 − q^j) (`eval_p`) are each one weighted
  sum of series (`Series.weighted_sum`), so the product side multiplies
  series only in x₁·x_j and in the chain of the n − 2 products;
* the z-side generating functions Φ_j, each a polynomial in z over
  x-series (`series.PhiPoly`, a z-form: see the `exact` docstring), their
  q-difference system, and the closed coefficient product;
* root-of-unity closed forms: the weight/depth sum formulas, the
  constant-index evaluations, the repeated-index generating functions with
  their symmetric-function assemblies, and the depth-one helper series;
* the truncated basic hypergeometric representation, checked at a pinned
  rational witness.

Everything here is exact.  The only randomness-free "sampling" is a graded
deterministic enumeration of profiles.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, repeat
from math import comb, factorial, isqrt, lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .exact import (
    IrrationalCoefficient,
    NumeratorRing,
    QHarmonicError,
    Scalar,
    SparsePoly,
    TPoly,
    _convolve,
    _numerators,
    binomial,
    is_rational,
    render_rational,
    scalar_eq,
    scalar_to_json,
)
from .indices import HeightProfile
from .qseries import (
    SeriesParams,
    ZPoly,
    _one_minus_qpow,
    _order,
    _qpow,
    g_sum,
    theta_q,
    x_sum,
    x_sum_or_zero,
    zbar,
    zeta_params,
)
from .series import PhiPoly, Series, SeriesRing, first_term_mismatch


class ZeroPochhammerDenominator(QHarmonicError):
    """A q-shifted factorial in a denominator vanished."""


class NonzeroConstantTerm(QHarmonicError):
    """A series that must vanish at the origin has a nonzero constant term."""


class SampleTooSmall(QHarmonicError):
    """The graded profile sample ran out before reaching the requested size."""


class UncancelledPole(QHarmonicError):
    """A negative power of x₁ survived the Pascal-matrix assembly of u(x)."""


T = TPoly.t()


# ---------------------------------------------------------------------------
# rings and the u <-> x change of variables
# ---------------------------------------------------------------------------

def u_variable_names(r: int) -> tuple[str, ...]:
    return tuple(f"u{i}" for i in range(1, r + 3))


def x_variable_names(r: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, r + 3))


def u_ring(r: int, cap: int) -> SeriesRing:
    return SeriesRing(u_variable_names(r), cap)


def _change_of_variables(names: tuple[str, ...], r: int, cap: int,
                         sign: int) -> tuple[Series, ...]:
    """w₁,…,w_{r+2} over the variables `names` = v₁,…,v_{r+2}, term by term;
    σ = sign = −1 gives x(u) and σ = +1 gives u(x).  With a = r+2−i,

        w₁ = Σ_{s≥1} σ^{s−1} v₁^s,
        w_i = Σ_{j=i}^{r+1} σ^{j−i} C(j−2, i−2) v_j
              + v_{r+2} Σ_{s≥0} σ^{s+a} C(s+a+i−2, i−2) v₁^s,

    because the subtracted Σ_j σ^{j−i} C(j−2, i−2) v_{r+2}/v₁^{r+2−j} is
    exactly the negative-power part of v_{r+2} v₁^{−a} (1−σv₁)^{−(i−1)}.
    The monomials are distinct, so each w_i is one integer term map handed
    to `Series.from_numerators`."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    ring = SeriesRing(names, cap)

    def mono(*powers: tuple[int, int]) -> tuple[int, ...]:
        """The exponent tuple with power p at each (position, p)."""
        e = [0] * (r + 2)
        for i, p in powers:
            e[i] = p
        return tuple(e)

    ws = [Series.from_numerators(ring, 1, {mono((0, s)): {0: sign ** (s - 1)}
                                           for s in range(1, cap + 1)})]
    for i in range(2, r + 3):
        a = r + 2 - i
        terms = {mono((j - 1, 1)): {0: sign ** (j - i) * binomial(j - 2, i - 2)}
                 for j in range(i, r + 2)}
        terms.update({mono((0, s), (r + 1, 1)): {0: sign ** (s + a) * binomial(s + a + i - 2, i - 2)}
                      for s in range(cap)})
        ws.append(Series.from_numerators(ring, 1, terms))
    return tuple(ws)


def x_from_u(r: int, cap: int) -> tuple[Series, ...]:
    """The x-parameters as power series in u₁,…,u_{r+2}.

    x₁ = u₁/(1+u₁) and, for i ≥ 2,

        x_i = Σ_{j=i}^{r+1} (−1)^{j−i} C(j−2, i−2) (u_j − u_{r+2}/u₁^{r+2−j})
              + u_{r+2} / (u₁^{r+2−i} (1+u₁)^{i−1}),

    written out term by term (see _change_of_variables).
    """
    return _change_of_variables(u_variable_names(r), r, cap, -1)


def u_from_x(r: int, cap: int) -> tuple[Series, ...]:
    """The inverse substitution: u₁ = x₁/(1−x₁) and, for i ≥ 2,

        u_i = Σ_{j=i}^{r+1} C(j−2, i−2) (x_j − x_{r+2}/x₁^{r+2−j})
              + x_{r+2} / (x₁^{r+2−i} (1−x₁)^{i−1}),

    written out term by term (see _change_of_variables).
    """
    return _change_of_variables(x_variable_names(r), r, cap, 1)


def u_from_x_matrix(r: int, cap: int) -> tuple[Series, ...]:
    """Same substitution as u_from_x, but with rows 2..r+1 assembled through
    the upper-triangular binomial matrix acting on the difference vector,
    plus the displayed correction column.

    Every row is multiplied by x₁^{r+1}, which clears the negative powers,
    and multiplied out with series products in an ordinary ring of
    cap + r + 1, where 1/(1−x₁) is the geometric series Σ x₁^s summed from
    monomials; x₁ is then shifted back down by r + 1.
    A term below x₁^{r+1} at that point is a pole that did not cancel."""
    names = x_variable_names(r)
    lift = r + 1
    work = SeriesRing(names, cap + lift)
    inv = sum((work.var("x1", s) for s in range(work.cap + 1)), work.zero())
    inv_pows = [work.one()]
    for _ in range(r + 1):
        inv_pows.append(inv_pows[-1] * inv)
    last = f"x{r + 2}"
    mat, _ = pascal_T(r)
    vec = [
        work.monomial({f"x{b + 2}": 1, "x1": lift}) - work.monomial({last: 1, "x1": b + 1})
        for b in range(r)
    ]
    rows = [work.var("x1", lift + 1) * inv]
    for a in range(r):
        acc = work.monomial({last: 1, "x1": a + 1}) * inv_pows[a + 1]
        for b in range(a, r):
            acc = acc + vec[b] * Fraction(mat[a][b])
        rows.append(acc)
    rows.append(work.monomial({last: 1, "x1": lift}) * inv_pows[r + 1])
    final = SeriesRing(names, cap)

    def shift_down(row: Series) -> Series:
        low = min((e[0] for e in row.terms), default=lift)
        if low < lift:
            raise UncancelledPole(f"x1^{low - lift} survived in u_from_x_matrix({r}, {cap})")
        return Series(final, {(e[0] - lift,) + e[1:]: tp for e, tp in row.terms.items()})

    return tuple(map(shift_down, rows))


def roundtrip_u(r: int, cap: int) -> tuple[Series, ...]:
    """u_i(x₁(u),…,x_{r+2}(u)) for every i; the identity map when the two
    substitutions invert each other."""
    xs = x_from_u(r, cap)
    bindings = {f"x{i + 1}": x for i, x in enumerate(xs)}
    return tuple(u.substitute(bindings, xs[0].ring) for u in u_from_x(r, cap))


# ---------------------------------------------------------------------------
# the characteristic polynomial P and the two Psi constructions
# ---------------------------------------------------------------------------

def p_poly(r: int, xs: Sequence[Series]) -> tuple[Series, ...]:
    """The coefficients, in ascending powers of T, of the monic
    P^t(T) = T^{r+1} − (x₁ + tx₂)T^r − t Σ_{i=0}^{r−1} (x_{r+2−i} − x₁x_{r+1−i})T^i.
    P^{t−1} is its image under t -> t−1 (see `_t_ratio`).  Each coefficient
    below the top is one weighted sum (`Series.weighted_sum`) whose weights
    are −1, −t and t, so the only products are the r products x₁·x_j."""
    if len(xs) != r + 2:
        raise ValueError("need r+2 x-series")
    ring = xs[0].ring
    cs = [Series.weighted_sum(ring, ((xs[r + 1 - i], -1, 1, 1), (xs[0] * xs[r - i], 1, 1, 1)))
          for i in range(r)]
    cs.append(Series.weighted_sum(ring, ((xs[0], -1, 1, 0), (xs[1], -1, 1, 1))))
    cs.append(ring.one())
    return tuple(cs)


def eval_p(coeffs: Sequence[Series], num, den: int, order: int | None = None) -> Series:
    """Σ_i coeffs[i]·v^i at the constant v = num/den of NumeratorRing(order),
    as one weighted sum (`Series.weighted_sum`): coeffs[i] is weighted by
    num^i over den^i, the powers of num ints at rational q and `_product`
    powers of its numerator list at a root, so no TPoly power and no series
    product is formed.  P's monic top term is its last coefficient, one,
    weighted by the top power of v."""
    powers = accumulate(repeat(num, len(coeffs) - 1), NumeratorRing(order).mul)
    terms = [(coeffs[0], 1, 1, 0),
             *((c, p, den ** i, 0) for i, (c, p) in enumerate(zip(coeffs[1:], powers), 1))]
    return Series.weighted_sum(coeffs[0].ring, terms, order)


def _p_products(coeffs: Sequence[Series], params: SeriesParams) -> list[Series]:
    """The prefix products Π_{j≤i} P(1−q^j), i = 0, …, n−1, of P's
    coefficients; the chain starts from P(1−q) itself, not from one."""
    order = _order(params)
    values = (eval_p(coeffs, *_one_minus_qpow(params, j), order) for j in range(1, params.n))
    return [coeffs[0].ring.one(), *accumulate(values, operator.mul)]


def _t_ratio(den: Series) -> Series:
    """den(t−1)/den(t), den(t−1) being t -> t−1 applied to every coefficient.
    Every caller builds den from t-free variables and scalars, so that map is
    a ring map: it sends a product of P^t(1−q^j), U^t or c + t·d·v factors to
    the product of their t−1 forms, the two-sided product's numerator."""
    return den.affine_t(1, -1) / den


def psi_product(n: int, r: int, q: Scalar, cap: int) -> Series:
    """Ψ as the two-sided product: Π_j P^{t−1}(1−q^j) / Π_j P^t(1−q^j),
    the P's evaluated over the composed x(u) series; only the denominator is
    multiplied out (see `_t_ratio`)."""
    params = SeriesParams(n, q)
    return _t_ratio(_p_products(p_poly(r, x_from_u(r, cap)), params)[-1])


def profile_from_exponents(r: int, exps: Sequence[int]) -> HeightProfile:
    """Invert the monomial map u₁^{k−l−Σh} u₂^{l−h₁} u₃^{h₁−h₂} … u_{r+2}^{h_r}."""
    h = [0] * (r + 1)
    h[r] = exps[r + 1]
    for i in range(r - 1, 0, -1):
        h[i] = h[i + 1] + exps[i + 1]
    l = h[1] + exps[1]
    k = exps[0] + l + sum(h[1:])
    return HeightProfile(k, l, tuple(h[1:]), -1)


def psi_bruteforce(n: int, r: int, q: Scalar, cap: int) -> Series:
    """Ψ from its definition: the profile sums attached to every u-monomial
    of total degree ≤ cap."""
    params = SeriesParams(n, q)
    ring = u_ring(r, cap)
    terms = {}
    for exps in ring.exponents_up_to_cap():
        tp = g_sum(profile_from_exponents(r, exps), params)
        if not tp.is_zero():
            terms[exps] = tp
    return Series(ring, terms)


def reflect_companion(s: Series) -> Series:
    """t -> 1−t combined with negating every variable except the first."""
    return s.affine_t(-1, 1).negate_vars(s.ring.variables[1:])


def series_irrational_term(s: Series):
    """First (graded-lex) coefficient outside Q, or None when all rational."""
    for exps, tp in s.sorted_terms():
        for key, value in tp.to_json().items():
            if isinstance(value, dict):  # the JSON of a value outside Q
                return {"exps": list(exps), "t_power": int(key[2:]), "value": value}
    return None


# ---------------------------------------------------------------------------
# identity reports and mismatch extraction
# ---------------------------------------------------------------------------

class IdentityReport:
    """Outcome of one identity check instance.

    A fail must always locate its first mismatching coefficient; skip is
    reserved for checks whose prerequisites are absent, and no registered
    check skips today; error marks an instance that crashed, with the
    exception as its mismatch.
    """

    __slots__ = ("identity", "params", "status", "lhs", "rhs", "mismatch")

    def __init__(self, identity: str, params: dict, status: str, lhs: object = None,
                 rhs: object = None, mismatch: dict | None = None) -> None:
        if status not in ("pass", "fail", "skip", "error"):
            raise ValueError(f"bad status {status!r}")
        if status == "fail" and mismatch is None:
            raise ValueError("failing report without a mismatch location")
        self.identity = identity
        self.params = params
        self.status = status
        self.lhs = lhs
        self.rhs = rhs
        self.mismatch = mismatch

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "params": self.params,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "mismatch": self.mismatch,
        }


def _term_report(names: Sequence[str], hit) -> dict | None:
    """A first_term_mismatch hit as a report: the term's nonzero exponents
    by variable name, and both TPolys in JSON."""
    if hit is None:
        return None
    exps, lt, rt = hit
    where = {v: e for v, e in zip(names, exps) if e}
    return {"term": where or {"1": 0}, "lhs": lt.to_json(), "rhs": rt.to_json()}


def series_mismatch(a: Series, b: Series) -> dict | None:
    return _term_report(a.ring.variables, a.first_mismatch(b))


def poly_mismatch(a: SparsePoly, b: SparsePoly) -> dict | None:
    """The lowest power where two TPolys (or two ZPolys) differ, keyed
    "t_power" (or "z_power"), with both coefficients in JSON."""
    hit = a.first_mismatch(b)
    if hit is None:
        return None
    e, lc, rc = hit
    return {f"{a.var}_power": e, "lhs": a._render(lc), "rhs": a._render(rc)}


def scalar_mismatch(a: Scalar, b: Scalar) -> dict | None:
    if scalar_eq(a, b):
        return None
    return {"lhs": scalar_to_json(a), "rhs": scalar_to_json(b)}


# ---------------------------------------------------------------------------
# the z-side generating functions
# ---------------------------------------------------------------------------

def phi_bruteforce(n: int, r: int, q: Scalar, j: int, cap: int) -> PhiPoly:
    """The generating function of profile sums of truncated interpolated
    polylogarithms: the x_sum of each x-monomial's profile, its z-powers
    grouped into one x-series per power.  The x_sums' numerator slots go
    over one denominator (`ZPoly.by_power`) and each power's series is made
    from them with one reduction, with no TPoly built."""
    params = SeriesParams(n, q)
    ring = SeriesRing(x_variable_names(r), cap)
    sums = {}
    for exps in ring.exponents_up_to_cap():
        base = profile_from_exponents(r, exps)
        sums[exps] = x_sum(HeightProfile(base.k, base.l, base.h, j), params)
    order, den, by_z = ZPoly.by_power(sums)
    return PhiPoly(ring, {ze: Series.from_numerators(ring, den, num, order)
                          for ze, num in by_z.items()})


def phi_mismatch(a: PhiPoly, b: PhiPoly, ring: SeriesRing) -> dict | None:
    """series_mismatch over the (x₁, …, x_{r+2}, z) terms of two PhiPolys
    whose coefficients lie in `ring`.  Equal ones compare by their series'
    numerators, so no coefficient is built."""
    if a == b:
        return None

    def flat(f: PhiPoly) -> dict:
        return {e + (z,): c for z, s in f.coeffs.items() for e, c in s.terms.items()}
    return _term_report(ring.variables + ("z",), first_term_mismatch(flat(a), flat(b)))


def _lemma21_cases(r: int) -> tuple[str, ...]:
    return ("i", "iii") if r == 1 else ("i", "ii", "iii")


def _h_tuples(l: int, budget: int, r: int) -> list[tuple[int, ...]]:
    """Weakly decreasing r-tuples with entries at most l and sum at most
    budget, in reverse lexicographic order (the order fixes the sample)."""
    return [h for h in combinations_with_replacement(range(min(l, budget), -1, -1), r)
            if sum(h) <= budget]


def _lemma21_instances(r: int, per_case: int) -> dict[str, list[tuple]]:
    """Graded-deterministic profile sample for the three recurrences."""
    want = {c: per_case for c in _lemma21_cases(r)}
    found: dict[str, list[tuple]] = {c: [] for c in want}
    k = 1
    while any(len(found[c]) < want[c] for c in want) and k <= 12:
        for l in range(0, k + 1):
            for h in _h_tuples(l, k - l, r):
                if h and h[-1] >= 1 and len(found["i"]) < want["i"]:
                    found["i"].append((k, l, h))
                if "ii" in want and len(found["ii"]) < want["ii"]:
                    for j in range(0, r - 1):
                        if h[j] >= 1:
                            found["ii"].append((k, l, h, j))
                            break
                if l >= 2 and len(found["iii"]) < want["iii"]:
                    found["iii"].append((k, l, h))
        k += 1
    return found


def _check_lemma21(case: str, inst: tuple, params: SeriesParams) -> dict | None:
    if case == "i":
        k, l, h = inst
        r = len(h)
        lhs = theta_q(x_sum_or_zero(k, l, h, r - 1, params), params)
        hd = h[:-1] + (h[-1] - 1,)
        rhs = (
            x_sum_or_zero(k - 1, l, h, r - 1, params)
            + x_sum_or_zero(k - 1, l, hd, r - 2, params)
            - x_sum_or_zero(k - 1, l, hd, r - 1, params)
        )
        return poly_mismatch(lhs, rhs)
    if case == "ii":
        k, l, h, j = inst
        lhs = theta_q(
            x_sum_or_zero(k, l, h, j, params) - x_sum_or_zero(k, l, h, j + 1, params),
            params,
        )
        hd = h[:j] + (h[j] - 1,) + h[j + 1:]
        rhs = (
            x_sum_or_zero(k - 1, l, hd, j - 1, params)
            - x_sum_or_zero(k - 1, l, hd, j, params)
        )
        return poly_mismatch(lhs, rhs)
    # case iii, multiplied through by (1 - z)
    k, l, h = inst
    diff = x_sum_or_zero(k, l, h, -1, params) - x_sum_or_zero(k, l, h, 0, params)
    th = theta_q(diff, params)
    lhs = th - th.shift(1)
    tail = x_sum_or_zero(k - 1, l - 1, h, -1, params)
    rhs = (
        tail * T
        - tail.shift(1) * T
        + tail.shift(1)
        - ZPoly({params.n: tail.eval_z_one()})
    )
    return poly_mismatch(lhs, rhs)


# profile-sum recurrence instances checked per (n, r, q, cap)
LEMMA_SAMPLES = 51


@lru_cache(maxsize=256)
def phi_system_checks(n: int, r: int, q: Scalar, cap: int) -> Mapping[str, tuple[tuple[str, dict | None], ...]]:
    """Every subcheck of the z-side machinery at one (n, r, q, cap):

    * the three profile-sum recurrences on a graded sample of profiles,
    * the four q-difference equations of the generating functions
      (multiplied through so no series division is needed),
    * the single equation satisfied by the next-to-last generating function,
    * the closed product formula for its z-coefficients,
    * the value at z=1 against the two-sided product.

    Returns the (check name, mismatch or None) pairs of each statement,
    keyed by the statement: lemma2_1, prop2_2, cor2_3, thm2_4 and c_i.  Check
    names start with their statement.
    """
    params = SeriesParams(n, q)
    checks: dict[str, list[tuple[str, dict | None]]] = {}

    def record(statement: str, detail: str, mm: dict | None):
        checks.setdefault(statement, []).append((statement + detail, mm))

    cases = _lemma21_cases(r)
    per_case = -(-LEMMA_SAMPLES // len(cases))
    sampled = _lemma21_instances(r, per_case)
    got = sum(len(v) for v in sampled.values())
    if got < LEMMA_SAMPLES:
        raise SampleTooSmall(f"only {got} of {LEMMA_SAMPLES} Lemma 2.1 instances at r = {r}")
    for case, insts in sampled.items():
        for inst in insts:
            record("lemma2_1", f"[{case}]{inst}", _check_lemma21(case, inst, params))

    phis = {j: phi_bruteforce(n, r, q, j, cap) for j in range(-1, r)}
    ring = SeriesRing(x_variable_names(r), cap)
    xv = {i: ring.var(f"x{i}") for i in range(1, r + 3)}
    one = ring.one()

    # (E1)  x_{r+1}·Θ(Φ_{r−1}) = x₁x_{r+1}Φ_{r−1} + x_{r+2}(Φ_{r−2} − Φ_{r−1} − δ_{r,1})
    lhs = xv[r + 1] * theta_q(phis[r - 1], params)
    inner = phis[r - 2] - phis[r - 1] if r >= 2 else phis[-1] - phis[0] - one
    rhs = xv[1] * xv[r + 1] * phis[r - 1] + xv[r + 2] * inner
    record("prop2_2", "[top]", phi_mismatch(lhs, rhs, ring))

    # (E2)  x_{j+2}·Θ(Φ_j − Φ_{j+1}) = x_{j+3}(Φ_{j−1} − Φ_j),  j = 1..r−2
    for j in range(1, r - 1):
        lhs = xv[j + 2] * theta_q(phis[j] - phis[j + 1], params)
        rhs = xv[j + 3] * (phis[j - 1] - phis[j])
        record("prop2_2", f"[mid j={j}]", phi_mismatch(lhs, rhs, ring))

    # (E3)  x₂·Θ(Φ₀ − Φ₁) = x₃(Φ − Φ₀ − 1),  only for r ≥ 2
    if r >= 2:
        lhs = xv[2] * theta_q(phis[0] - phis[1], params)
        rhs = xv[3] * (phis[-1] - phis[0] - one)
        record("prop2_2", "[join]", phi_mismatch(lhs, rhs, ring))

    # (E4)  (1−z)·Θ(Φ − Φ₀) = (t(1−z) + z)x₂Φ − t(1−z)x₂ − zⁿx₂Φ(1),
    #       whose right side is (t(1−z) + z)x₂(Φ − 1) + z·x₂ − zⁿx₂Φ(1)
    phi1 = phis[-1].eval_z_one()
    th = theta_q(phis[-1] - phis[0], params)
    lhs = th - th.shift(1)
    tv = ring.scalar(T)
    blend = PhiPoly(ring, {0: tv, 1: one - tv})
    rhs = (
        blend * xv[2] * (phis[-1] - one)
        + PhiPoly(ring, {1: xv[2]})
        - PhiPoly(ring, {params.n: xv[2] * phi1})
    )
    record("prop2_2", "[base]", phi_mismatch(lhs, rhs, ring))

    # Cor 2.3:  (P^t(Θ) − z·P^{t−1}(Θ)) Φ_{r−1} = z·x_{r+2} − zⁿ·x_{r+2}·Φ(1)
    pp = p_poly(r, tuple(xv[i] for i in range(1, r + 3)))
    pm = tuple(c.affine_t(1, -1) for c in pp)
    powers = [phis[r - 1]]
    for _ in range(r + 1):
        powers.append(theta_q(powers[-1], params))

    def apply_p(coeffs: tuple[Series, ...]) -> PhiPoly:
        # P is monic: its top term is Θ^{r+1}Φ itself
        return sum((coeffs[i] * powers[i] for i in range(r + 1)), powers[r + 1])

    lhs = apply_p(pp) - apply_p(pm).shift(1)
    rhs = PhiPoly(ring, {1: xv[r + 2]}) - PhiPoly(ring, {params.n: xv[r + 2] * phi1})
    record("cor2_3", "", phi_mismatch(lhs, rhs, ring))

    # thm2_4 multiplied through:  Φ(1)·Π P^t(1−q^j) = Π P^{t−1}(1−q^j)
    prod_t = _p_products(pp, params)
    prod_m = [p.affine_t(1, -1) for p in prod_t]
    record("thm2_4", "", series_mismatch(phi1 * prod_t[n - 1], prod_m[n - 1]))

    # closed coefficients:  c_i·Π_{j≤i} P^t(1−q^j) = x_{r+2}·Π_{j<i} P^{t−1}(1−q^j)
    c = phis[r - 1].coeffs
    record("c_i", "[z^0]", series_mismatch(c.get(0, ring.zero()), ring.zero()))
    for i in range(1, n):
        ci = c.get(i, ring.zero())
        rhs = xv[r + 2] * prod_m[i - 1] if i > 1 else xv[r + 2]  # prod_m[0] is one
        record("c_i", f"[{i}]", series_mismatch(ci * prod_t[i], rhs))

    return MappingProxyType({statement: tuple(pairs) for statement, pairs in checks.items()})


# ---------------------------------------------------------------------------
# the r = 1 polynomial family and the weight/depth closed forms
# ---------------------------------------------------------------------------

def u_poly(n: int, cap: int | None = None) -> Series:
    """The degree/height counting polynomial

        U_n^t = Σ_{a+b≤n−1} 1/(m+1) C(n−a−1, b) C(n−b−1, a)
                · t^m (1+u₁)^a (1−tu₂)^b (u₃−u₁u₂)^m,   m = n−a−b−1,

    an exact polynomial at the default cap 2n (which is never reached).

    It is built from its binomial expansion, with no series product: each
    (a, b, i, j, k) adds C(n−a−1, b) C(n−b−1, a) C(a, i) C(b, j) C(m, k)
    (−1)^{j+k}/(m+1) to the coefficient of t^{m+j} u₁^{i+k} u₂^{j+k} u₃^{m−k},
    as an int numerator over the one denominator lcm(1..n), handed to
    `Series.from_numerators`.

    With a cap, U_n^t truncated at that cap.  The term of (a, b, i, j, k) has
    degree i+j+k+m, so a term of degree above the cap is skipped, and so is
    every (a, b) with m > cap, whose terms all have degree at least m."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ring = SeriesRing(("u1", "u2", "u3"), 2 * n if cap is None else cap)
    den = lcm(*range(1, n + 1))
    num: dict[tuple[int, int, int], dict[int, int]] = {}
    for a in range(n):
        for b in range(n - a):
            m = n - a - b - 1
            room = ring.cap - m
            if room < 0:
                continue
            head = comb(n - a - 1, b) * comb(n - b - 1, a) * (den // (m + 1))
            for k in range(min(m, room) + 1):
                ck = (-1) ** k * comb(m, k) * head
                for i in range(min(a, room - k) + 1):
                    cik = comb(a, i) * ck
                    for j in range(min(b, room - k - i) + 1):
                        slot = num.setdefault((i + k, j + k, m - k), {})
                        slot[m + j] = slot.get(m + j, 0) + (-1) ** j * comb(b, j) * cik
    return Series.from_numerators(ring, den, num)


def u_poly_ratio(n: int, cap: int) -> Series:
    """U^{t−1}/U^t as a series in (u₁,u₂,u₃) truncated at cap; only U_n^t
    is built (see `_t_ratio`)."""
    return _t_ratio(u_poly(n, cap))


# Unbounded: keys (n, m) with m at most the weight of a sum formula asked for.
@lru_cache(maxsize=None)
def zbar_depth1_rational(n: int, m: int) -> Fraction:
    """Depth-one value at the primitive n-th root, with the weight-zero
    convention pinned to −1."""
    if m == 0:
        return Fraction(-1)
    flag, value = is_rational(zbar((m,), zeta_params(n)))
    if not flag:
        raise IrrationalCoefficient(f"depth-one value ({m},) at zeta_{n} is not rational")
    return value


def _y_add(acc: list, poly: Sequence, scale) -> list:
    """acc + scale·poly on y-coefficient lists."""
    out = list(acc) + [0] * (len(poly) - len(acc))
    for i, c in enumerate(poly):
        out[i] += scale * c
    return out


def _geometric_series(base: int, sign: int, P: Sequence[Sequence], k: int) -> list[list]:
    """Numerators of S = Σ_m sign^m·P^m / base^(m+1) = 1/(base − sign·P) up to
    x^k: S = Σ_x T_x·x^x / base^(x+1), each T_x a list of y-coefficients.

    P[j] is the y-coefficient list of the x^j term of P; P[0] is not read,
    since P has no constant term. T_0 = 1 and
    T_x = sign·Σ_{j≥1} base^(j−1)·P_j·T_(x−j), so integer P keeps every T_x
    integral."""
    out: list[list] = [[1]]
    for x in range(1, k + 1):
        acc: list = [0]
        for j in range(1, min(x, len(P) - 1) + 1):
            acc = _y_add(acc, _convolve(P[j], out[x - j]), sign * base ** (j - 1))
        out.append(acc)
    return out


def _t_blend(weights: dict[int, Fraction], l: int, style: str) -> TPoly:
    """Σ_{i₀} w(i₀)·A^{i₀}·B^{l−i₀} with (A,B) = (1−t, −t) or (t−1, t),
    expanded binomially over the weights' common denominator: the
    t^(l−i₀+a) coefficient of A^{i₀}·B^{l−i₀} is C(i₀, a)·(−1)^(l−i₀+a),
    resp. C(i₀, a)·(−1)^(i₀−a)."""
    _, den, nums = _numerators(weights.values())
    out = [0] * (l + 1)
    for i0, w in zip(weights, nums):
        for a in range(i0 + 1):
            e = l - i0 + a
            c = comb(i0, a) * w
            out[e] += -c if (e if style == "reflect" else i0 - a) & 1 else c
    return TPoly._from_numerators(None, den, dict(enumerate(out)))


def sum_formula(n: int, k: int, l: int, form: str) -> TPoly:
    """Closed forms for the weight/depth sums at the primitive n-th root.

    eq13:   alternating multiple-binomial double sum;
    eq14:   the variant carrying depth-one values (weight-zero read as −1);
    eq12:   its t=0 collapse  −(1/n) Σ_{j=l}^{k} C(n, j+1)·(depth-one value);
    btt314: the rearranged t=0 collapse over j < l (needs l ≥ 1).

    eq13 and eq14 are read off one generating series (see `sum_formulas`).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (k >= l >= 0):
        raise ValueError("need k >= l >= 0")
    if form == "eq12":
        js, sign = range(l, k + 1), -1
    elif form == "btt314":
        if l < 1:
            raise ValueError("btt314 needs l >= 1")
        js, sign = range(l), 1
    else:
        return sum_formulas(n, k, form)[l]
    total = sum((binomial(n, j + 1) * zbar_depth1_rational(n, k - j) for j in js), Fraction(0))
    return TPoly.const(sign * total / n)


def sum_formulas(n: int, k: int, form: str) -> tuple[TPoly, ...]:
    """`sum_formula(n, k, l, form)` for every depth l = 0, ..., k, for the
    forms eq13 and eq14, all read off one generating series S in x (the
    weight) and y (the depth).

    With B_j = C(n, j+1), which vanishes for j ≥ n:

    eq13:  S = Σ_m (−1)^m P^m / n^(m+1),  P = Σ_{j≥1} B_j·(1 + y + … + y^j)·x^j;
    eq14:  S = −D·Σ_m P^m / n^(m+1),  P = D·Σ_{j≥1} B_j·(y + … + y^j)·x^j,
           D = Σ_m (depth-one value of weight m)·x^m, weight zero read as −1.

    The head entry i₀ gets the weight
    w(i₀) = Σ_{j₀≥i₀} B_{j₀}·[x^(k−j₀) y^(l−i₀)] S, blended by `_t_blend`."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if k < 0:
        raise ValueError("need k >= 0")
    top = min(k, n - 1)
    heads = [binomial(n, j + 1) for j in range(top + 1)]
    if form == "eq13":
        base = n
        P = [[]] + [[heads[j]] * (j + 1) for j in range(1, top + 1)]
        num = _geometric_series(n, -1, P, k)
    elif form == "eq14":
        # clear the denominators of D: S = −D_int·Σ_m P_int^m / (n·den)^(m+1)
        depth1 = [zbar_depth1_rational(n, m) for m in range(k + 1)]
        _, den, d_int = _numerators(depth1)
        base = n * den
        ys = [[]] + [[0] + [heads[j]] * j for j in range(1, top + 1)]
        P = [[]]
        for x in range(1, k + 1):
            row: list[int] = []
            for j in range(1, min(x, top) + 1):
                row = _y_add(row, ys[j], d_int[x - j])
            P.append(row)
        series = _geometric_series(base, 1, P, k)
        num = []
        for x in range(k + 1):
            row = []
            for i in range(x + 1):
                row = _y_add(row, series[x - i], -d_int[i] * base ** i)
            num.append(row)
    else:
        raise ValueError(f"unknown form {form!r}")
    out = []
    for l in range(k + 1):
        weights = {}
        for i0 in range(min(l, top) + 1):
            total = 0
            for j0 in range(i0, top + 1):
                row = num[k - j0]
                if l - i0 < len(row):
                    total += heads[j0] * row[l - i0] * base ** j0
            weights[i0] = Fraction(total, base ** (k + 1))
        out.append(_t_blend(weights, l, "reflect"))
    return tuple(out)


def eval_constant_index(k: int, l: int, n: int) -> TPoly:
    """Closed forms for the constant-index values at the primitive n-th root,
    repeated entry k ∈ {1, 2, 3} taken l times.

    With the factors f_i = C(n, i+1) (k = 1) or `_eva_c(k, n, i)` (k = 2, 3)
    for i < n, N = n (k = 1, 2) or n² (k = 3) and
    F = Σ_{i≥1} f_i·x^i, the head entry i₀ gets the weight
    w(i₀) = f_{i₀}·[x^(l−i₀)] Σ_m (−1)^m F^m / N^(m+1), blended by `_t_blend`."""
    if k not in (1, 2, 3):
        raise ValueError("closed forms exist for k in {1, 2, 3}")
    if l < 0 or n < 2:
        raise ValueError("need l >= 0 and n >= 2")

    factors = [Fraction(binomial(n, i + 1)) if k == 1 else _eva_c(k, n, i)
               for i in range(min(l, n - 1) + 1)]
    # clear the denominators of F: the series is den·Σ_m (−1)^m F_int^m / (N·den)^(m+1)
    _, den, f_int = _numerators(factors)
    base = (n * n if k == 3 else n) * den
    num = _geometric_series(base, -1, [[]] + [[f] for f in f_int[1:]], l)
    weights = {i0: f * Fraction(den * num[l - i0][0], base ** (l - i0 + 1))
               for i0, f in enumerate(factors)}
    return _t_blend(weights, l, "reflect" if k == 1 else "direct")


# ---------------------------------------------------------------------------
# repeated-entry generating functions (the v-series family)
# ---------------------------------------------------------------------------

def kpow_generating(k: int, n: int, vcap: int) -> Series:
    """Σ_l (value of the repeated-entry k sum) v^l as the two-sided product
    over powers of the primitive root; a coefficient outside Q raises
    IrrationalCoefficient.  Only the denominator Π_j (c_j + t·d_j·v) is
    multiplied out (see `_t_ratio`)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if vcap < 0:
        raise ValueError("vcap must be >= 0")
    params = zeta_params(n)
    numerators = NumeratorRing(_order(params))
    ring = SeriesRing(("v",), vcap)

    den = ring.one()
    for j in range(1, n):
        # k = 1 needs no factor of its own: a t-free scalar cancels in _t_ratio
        const = numerators.const(*_one_minus_qpow(params, j)) ** k
        vcoef = TPoly({1: _qpow(params, j * (k - 1))}) * -1
        den = den * Series(ring, {(0,): const, (1,): vcoef})
    ratio = _t_ratio(den)
    bad = series_irrational_term(ratio)
    if bad is not None:
        raise IrrationalCoefficient(f"kpow_generating({k}, {n}, {vcap}) has the "
                                    f"irrational term {bad}")
    return ratio


def _eva_c(k: int, n: int, i: int) -> Fraction:
    if k == 2:
        return Fraction(binomial(n + i, 2 * i + 1), i + 1)
    if k == 3:
        return Fraction(
            binomial(n + i, 3 * i + 2) + (-1) ** i * binomial(n + 2 * i + 1, 3 * i + 2),
            i + 1,
        )
    raise ValueError("coefficient family defined for k in {2, 3}")


def kpow_ratio_closed(k: int, n: int, vcap: int) -> Series:
    """The same v-series from the closed polynomials Σ_i c_i((t−1)v)^i /
    Σ_i c_i(tv)^i; only the denominator is built (see `_t_ratio`)."""
    ring = SeriesRing(("v",), vcap)
    return _t_ratio(Series(ring, {(i,): TPoly({i: _eva_c(k, n, i)})
                                  for i in range(min(n, vcap + 1))}))


def ftilde_polys(k: int, ring: SeriesRing) -> list[Series]:
    """The subset-product polynomials F̃_0, …, F̃_k for k ∈ {2, 3}, assembled
    from the explicit symmetric functions e₁ = k + (−1)^k t v, e_j = C(k, j)."""
    u = ring.var("u")
    v = ring.var("v")
    one = ring.one()
    e1 = ring.scalar(Fraction(k)) + v * TPoly({1: Fraction((-1) ** k)})
    if k == 2:
        f1 = one - e1 * u + ring.var("u", 2)
        f2 = one - u
        return [one - u, f1, f2]
    if k == 3:
        f1 = one - e1 * u + ring.var("u", 2) * 3 - ring.var("u", 3)
        f2 = one - ring.var("u", 1) * 3 + e1 * ring.var("u", 2) - ring.var("u", 3)
        f3 = one - u
        return [one - u, f1, f2, f3]
    raise ValueError("subset assembly implemented for k in {2, 3}")


def _log_one_plus(w: Series) -> Series:
    if not w.constant_term().is_zero():
        raise NonzeroConstantTerm("log(1 + w) needs w without a constant term")
    out = w.ring.zero()
    power = w.ring.one()
    for m in range(1, w.ring.cap + 1):
        power = power * w
        if power.is_zero():
            break
        out = out + power * Fraction((-1) ** (m + 1), m)
    return out


def _project_to_v(s: Series, vcap: int) -> Series:
    # s lives in a ("u", "v") ring with the u-slot already zeroed
    ring = SeriesRing(("v",), vcap)
    terms = {}
    for exps, tp in s.terms.items():
        if exps[1] <= vcap:
            terms[(exps[1],)] = tp
    return Series(ring, terms)


def h_series(k: int, n: int, vcap: int) -> Series:
    """n times the uⁿ-coefficient of (−1)^{k−1} log Π_j F̃_j^{(−1)^j}."""
    ring = SeriesRing(("u", "v"), n + vcap)
    fs = ftilde_polys(k, ring)
    acc = ring.zero()
    for j, f in enumerate(fs):
        term = _log_one_plus(f - ring.one())
        acc = acc + (term if j % 2 == 0 else -term)
    acc = acc * Fraction((-1) ** (k - 1))
    return _project_to_v(acc.coefficient_of("u", n), vcap) * n


def h_closed_k3(n: int, vcap: int) -> Series:
    """−n Σ_{i<n} 1/(i+1) [C(n+i, 3i+2) + (−1)^i C(n+2i+1, 3i+2)] (t v)^{i+1}."""
    ring = SeriesRing(("v",), vcap)
    terms = {}
    for i in range(n):
        if i + 1 > vcap:
            break
        c = _eva_c(3, n, i) * (-n)
        terms[(i + 1,)] = TPoly({i + 1: c})
    return Series(ring, terms)


def pascal_T(r: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The unsigned upper-triangular binomial matrix and its signed inverse
    (both r x r, entries C(j−1, i−1) and (−1)^{i+j} C(j−1, i−1))."""
    if r < 1:
        raise ValueError("r must be >= 1")
    mat = tuple(tuple(binomial(j, i) for j in range(r)) for i in range(r))
    inv = tuple(tuple((-1) ** (i + j) * binomial(j, i) for j in range(r)) for i in range(r))
    return mat, inv


def mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    size = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size))
        for i in range(size)
    )


def xi_ones_coeff(l: int) -> TPoly:
    """Rational-polynomial factor of the all-ones limit value (the power of
    −2πi is carried separately by the caller).

    With E = Σ_{i≥1} x^i/(i+1)! = (eˣ − 1)/x − 1, the series
    Σ_m (−1)^m E^m = 1/(1 + E) = x/(eˣ − 1) = Σ_j B_j·x^j/j! (Bernoulli
    numbers, B_1 = −1/2), so the head entry i₀ gets the weight
    w(i₀) = B_(l−i₀) / ((i₀+1)!·(l−i₀)!), blended by `_t_blend`."""
    if l < 0:
        raise ValueError("l must be >= 0")
    E = [[]] + [[Fraction(1, factorial(i + 1))] for i in range(1, l + 1)]
    bern = _geometric_series(1, -1, E, l)
    weights = {i0: Fraction(bern[l - i0][0]) / factorial(i0 + 1) for i0 in range(l + 1)}
    return _t_blend(weights, l, "reflect")


# ---------------------------------------------------------------------------
# truncated basic hypergeometric series and the rational witness
# ---------------------------------------------------------------------------

def _qhs_terms(upper: Sequence[Fraction], lower: Sequence[Fraction], q: Fraction,
               arg: Fraction, trunc: int) -> list[Fraction]:
    """Summands of the truncated series; the denominator convention always
    includes the (q; q)_i factor in front of the listed lower parameters."""
    terms = [Fraction(1)]
    current = Fraction(1)
    for i in range(1, trunc + 1):
        qi = q ** (i - 1)
        num = Fraction(1)
        for a in upper:
            num = num * (1 - a * qi)
        den = 1 - q ** i
        for b in lower:
            den = den * (1 - b * qi)
        if den == 0:
            raise ZeroPochhammerDenominator(
                f"lower q-shifted factorial vanished at step {i}")
        current = current * num * arg / den
        terms.append(current)
    return terms


def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    a, b = x.numerator, x.denominator
    ra, rb = isqrt(a), isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb)
    return None


class QhsWitness(NamedTuple):
    """Rational data making both r=1 characteristic quadratics split over Q,
    so the hypergeometric representation can be checked in exact arithmetic."""

    x1: Fraction
    x2: Fraction
    x3: Fraction
    t: Fraction
    q: Fraction
    n: int
    s_t: Fraction          # square root of the t-discriminant
    s_tm1: Fraction        # square root of the (t-1)-discriminant

    def quad(self, shift: int) -> tuple[Fraction, Fraction]:
        """(B, C) with the quadratic T² − BT − C at t+shift."""
        tt = self.t + shift
        return self.x1 + tt * self.x2, tt * (self.x3 - self.x1 * self.x2)

    def quad_eval(self, shift: int, value: Fraction) -> Fraction:
        b, c = self.quad(shift)
        return value * value - b * value - c

    def alphas(self, shift: int) -> tuple[Fraction, Fraction]:
        b, _ = self.quad(shift)
        s = self.s_t if shift == 0 else self.s_tm1
        return (-b - s) / 2, (-b + s) / 2

    def to_json(self) -> dict:
        return {
            "x1": render_rational(self.x1), "x2": render_rational(self.x2),
            "x3": render_rational(self.x3), "t": render_rational(self.t),
            "q": render_rational(self.q), "n": self.n,
            "s_t": render_rational(self.s_t), "s_tm1": render_rational(self.s_tm1),
        }


def validate_qhs_witness(w: QhsWitness) -> bool:
    for shift in (0, -1):
        b, c = w.quad(shift)
        a1, a2 = w.alphas(shift)
        if a1 + a2 != -b or a1 * a2 != -c:
            return False
        if a1 == -1 or a2 == -1:
            return False
    for j in range(1, w.n):
        if w.quad_eval(0, 1 - w.q ** j) == 0:
            return False
    for a in w.alphas(0):
        at = w.q / (1 + a)
        for s in range(w.n - 1):
            if w.q * at * w.q ** s == 1:
                return False
    return True


def _ordered_rationals(bound: int) -> list[Fraction]:
    vals = sorted(
        {Fraction(p, d) for d in range(1, bound + 1) for p in range(-bound, bound + 1)},
        key=lambda f: (abs(f.numerator) + f.denominator, f.denominator, f.numerator),
    )
    return vals


def _ordered_s_values(den_bound: int, num_bound: int) -> list[Fraction]:
    return sorted(
        {Fraction(p, d) for d in range(1, den_bound + 1) for p in range(0, num_bound + 1)},
        key=lambda f: (f.denominator, f.numerator),
    )


# bounds of the witness search: x₁ and x₂ with |numerator| and denominator
# at most 8, these t, s = p/d with 0 ≤ p ≤ 24 and 1 ≤ d ≤ 12; q = 1/2, n = 5
QHS_COORD_BOUND = 8
QHS_T_VALUES = (Fraction(2), Fraction(3), Fraction(1, 2))
QHS_S_DEN_BOUND = 12
QHS_S_NUM_BOUND = 24
QHS_Q = Fraction(1, 2)
QHS_N = 5


def _qhs_witnesses(coords: Sequence[Fraction], svals: Sequence[Fraction]):
    """The witnesses of the bounded search, in search order: x₁ and x₂ run
    over coords, t over QHS_T_VALUES and s over svals; the t-discriminant
    is chosen to be s², x₃ solved from it, and a candidate is kept when the
    shifted discriminant is also a rational square and its derived data
    stays away from every forbidden zero.

    The tests run in cross-multiplied ints, and Fractions are built only for
    a candidate whose shifted discriminant is a square.  With x₁ = p₁/q₁,
    x₂ = p₂/q₂, t = a/c, s = u/w and D = q₁q₂c: b = x₁ + t·x₂ = B/D,
    x₁ + (t−1)x₂ = B'/D, s² − b² = E/(w²D²) with E = u²D² − B²w², so
    x₃ = x₁x₂ + (s² − b²)/(4t) equals x₁x₂ exactly when E = 0, and 0
    exactly when 4a·p₁p₂·w²D² + E·D = 0; the shifted discriminant
    (x₁ + (t−1)x₂)² + 4(t−1)(x₃ − x₁x₂) is N/(a·w²·D²) with
    N = a·w²·B'² + (a − c)·E, a rational square exactly when N·a is the
    square of an int."""
    spairs = [(s, s.numerator, s.denominator ** 2) for s in svals]
    for x1 in coords:
        p1, q1 = x1.numerator, x1.denominator
        for x2 in coords:
            p2, q2 = x2.numerator, x2.denominator
            for t in QHS_T_VALUES:
                a, c = t.numerator, t.denominator
                d = q1 * q2 * c
                b, bm = p1 * q2 * c + a * p2 * q1, p1 * q2 * c + (a - c) * p2 * q1
                x3_zero = 4 * a * p1 * p2 * d * d
                for s, u, w2 in spairs:
                    e = u * u * d * d - b * b * w2
                    if not e or x3_zero * w2 + e * d == 0:
                        continue
                    v = (a * w2 * bm * bm + (a - c) * e) * a
                    if v < 0 or isqrt(v) ** 2 != v:
                        continue
                    x3 = x1 * x2 + (s * s - Fraction(b, d) ** 2) / (4 * t)
                    sm = _rational_sqrt(Fraction(bm, d) ** 2 + 4 * (t - 1) * (x3 - x1 * x2))
                    found = QhsWitness(x1=x1, x2=x2, x3=x3, t=t, q=QHS_Q, n=QHS_N,
                                       s_t=s, s_tm1=sm)
                    if validate_qhs_witness(found):
                        yield found


def search_qhs_witness() -> QhsWitness | None:
    """The first witness of the deterministic bounded search
    (`_qhs_witnesses` at the bounds above), or None."""
    return next(_qhs_witnesses(_ordered_rationals(QHS_COORD_BOUND),
                               _ordered_s_values(QHS_S_DEN_BOUND, QHS_S_NUM_BOUND)), None)


# first hit of search_qhs_witness() at the bounds above; frozen so the
# check is reproducible without re-searching
PINNED_QHS_WITNESS: QhsWitness = QhsWitness(
    x1=Fraction(0),
    x2=Fraction(-1),
    x3=Fraction(12),
    t=Fraction(2),
    q=Fraction(1, 2),
    n=5,
    s_t=Fraction(10),
    s_tm1=Fraction(7),
)


def qhs_phi_coefficients(w: QhsWitness) -> tuple[list[Fraction], list[Fraction]]:
    """(closed-product coefficients, hypergeometric coefficients) of the
    z-powers 1..n−1 of the next-to-last generating function at the witness."""
    prod_t = [Fraction(1)]
    prod_m = [Fraction(1)]
    for j in range(1, w.n):
        tv = 1 - w.q ** j
        prod_t.append(prod_t[-1] * w.quad_eval(0, tv))
        prod_m.append(prod_m[-1] * w.quad_eval(-1, tv))
    closed = [w.x3 * prod_m[i - 1] / prod_t[i] for i in range(1, w.n)]

    a_t = [w.q / (1 + a) for a in w.alphas(0)]
    a_m = [w.q / (1 + a) for a in w.alphas(-1)]
    rho = (a_t[0] * a_t[1]) / (a_m[0] * a_m[1])
    upper = (w.q, a_m[0], a_m[1])
    lower = (w.q * a_t[0], w.q * a_t[1])
    terms = _qhs_terms(upper, lower, w.q, rho, w.n - 2)
    prefactor = w.x3 / w.quad_eval(0, 1 - w.q)
    hyper = [prefactor * terms[i - 1] for i in range(1, w.n)]
    return closed, hyper
