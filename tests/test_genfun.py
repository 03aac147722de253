import json
import random
from fractions import Fraction
from itertools import islice
from math import factorial

import pytest

from qharmonic.exact import CycloNumber, IrrationalCoefficient, TPoly, binomial
from qharmonic.genfun import (
    IdentityReport,
    LEMMA_SAMPLES,
    PINNED_QHS_WITNESS,
    NonzeroConstantTerm,
    SampleTooSmall,
    PhiPoly,
    UncancelledPole,
    ZeroPochhammerDenominator,
    _h_tuples,
    _log_one_plus,
    _p_products,
    _qhs_terms,
    eval_constant_index,
    eval_p,
    ftilde_polys,
    h_closed_k3,
    h_series,
    kpow_generating,
    kpow_ratio_closed,
    mat_mul,
    p_poly,
    pascal_T,
    phi_bruteforce,
    phi_mismatch,
    phi_system_checks,
    poly_mismatch,
    profile_from_exponents,
    psi_bruteforce,
    psi_product,
    qhs_phi_coefficients,
    reflect_companion,
    roundtrip_u,
    scalar_mismatch,
    search_qhs_witness,
    series_mismatch,
    sum_formula,
    sum_formulas,
    u_from_x,
    u_from_x_matrix,
    u_poly,
    u_poly_ratio,
    u_variable_names,
    validate_qhs_witness,
    x_from_u,
    x_variable_names,
    xi_ones_coeff,
    zbar_depth1_rational,
)
from qharmonic.indices import HeightProfile
from qharmonic import genfun, qseries
from qharmonic.qseries import SeriesParams, ZPoly, theta_q, zbar_t, zeta_params
from qharmonic.series import Series, SeriesRing

from cyclo_reference import Ref, lift, value

T = TPoly.t()


def test_x_from_u_r1_explicit():
    """At r=1 the composed series have a closed shape small enough to write out."""
    xs = x_from_u(1, 6)
    ring = xs[0].ring
    u1, u2, u3 = ring.var("u1"), ring.var("u2"), ring.var("u3")
    inv = (ring.one() + u1).invert()
    assert xs == (u1 * inv, u2 - u3 * inv, u3 * inv * inv)


def test_u_from_x_r1_explicit():
    us = u_from_x(1, 6)
    ring = us[0].ring
    x1, x2, x3 = ring.var("x1"), ring.var("x2"), ring.var("x3")
    inv = (ring.one() - x1).invert()
    assert us[0] == x1 * inv
    assert us[1] == x2 + x3 * inv
    assert us[2] == x3 * inv * inv


@pytest.mark.parametrize("r", [1, 2, 3])
def test_substitutions_invert_each_other(r):
    rt = roundtrip_u(r, 5)
    ring = rt[0].ring
    assert rt == tuple(ring.var(f"u{i}") for i in range(1, r + 3))


# The (r, cap) of the roundtrip_u ops in the genfun-rational benchmark.
ROUNDTRIP_CASES = ((1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3), (2, 4), (2, 5),
                   (3, 2), (3, 3), (3, 4))


def test_roundtrip_forms_no_product_with_one(monkeypatch):
    # each piece of a substitution starts from its first factor and each
    # image power is made from the one below it, so no product has the
    # operand one; repeated squaring from one made 779 products, 378 with one
    calls = []
    product = Series.__mul__

    def spy(self, other):
        calls.append((self, other))
        return product(self, other)

    monkeypatch.setattr(Series, "__mul__", spy)
    monkeypatch.setattr(Series, "__rmul__", spy)
    total = 0
    for r, cap in ROUNDTRIP_CASES:
        calls.clear()
        rt = roundtrip_u(r, cap)
        ring = rt[0].ring
        assert calls and all(ring.one() not in pair for pair in calls), (r, cap)
        assert rt == tuple(ring.var(f"u{i}") for i in range(1, r + 3))
        total += len(calls)
    assert total == 162


def test_p_products_form_no_product_with_one(monkeypatch):
    # eval_p is one weighted sum of P's coefficients (Series.weighted_sum),
    # so it forms no Series or TPoly product, and _p_products starts its
    # chain from P(1 - q): n - 2 chain products, none with one
    calls = []

    def spy(original):
        def wrapped(self, other):
            calls.append((self, other))
            return original(self, other)
        return wrapped

    cases = [(n, r, q) for n in (2, 4, 7) for r in (1, 2, 3)
             for q in (Fraction(1, 2), Fraction(-3), Fraction(5, 7), CycloNumber.zeta(9))]
    products = {}
    for n, r, q in cases:
        pp = p_poly(r, x_from_u(r, 3))
        ring = pp[0].ring
        params = SeriesParams(n, q)
        with monkeypatch.context() as patch:
            for cls in (Series, TPoly):
                patch.setattr(cls, "__mul__", spy(cls.__mul__))
                patch.setattr(cls, "__rmul__", spy(cls.__rmul__))
            calls.clear()
            for j in range(1, n):
                eval_p(pp, *qseries._one_minus_qpow(params, j), qseries._order(params))
            assert calls == [], (n, r, q)
            products[n, r, q] = _p_products(pp, params)
        assert len(calls) == max(n - 2, 0), (n, r, q)
        assert not [pair for pair in calls if ring.one() in pair or TPoly.one() in pair]
    ring = pp[0].ring
    params = SeriesParams(7, Fraction(5, 7))
    chain = [ring.one()]
    for j in range(1, 7):
        chain.append(chain[-1] * eval_by_horner(pp, value(1 - lift(params.q) ** j)))
    assert products[7, 3, Fraction(5, 7)] == chain


def test_phi_system_checks_form_no_product_with_one(monkeypatch):
    # Cor 2.3's apply_p adds P's monic top term Θ^{r+1}Φ itself, (E4) makes
    # t·1 as ring.scalar(T) and its z-blends term by term, and c_i at i = 1
    # takes x_{r+2} alone (prod_m[0] is one): no Series product has the
    # operand one (48 of 344 had over these three calls)
    calls = []
    original = Series.__mul__

    def spy(self, other):
        calls.append((self, other))
        return original(self, other)

    for n, r, q, cap in ((3, 1, Fraction(1, 2), 3), (4, 2, Fraction(1, 2), 3),
                         (5, 3, Fraction(-3), 2)):
        one = SeriesRing(x_variable_names(r), cap).one()
        with monkeypatch.context() as patch:
            patch.setattr(Series, "__mul__", spy)
            patch.setattr(Series, "__rmul__", spy)
            calls.clear()
            groups = phi_system_checks.__wrapped__(n, r, q, cap)
        assert calls and not [pair for pair in calls if one in pair], (n, r, q, cap)
        assert all(mm is None for pairs in groups.values() for _, mm in pairs)


def ref_phi_bruteforce(n: int, r: int, q, j: int, cap: int) -> PhiPoly:
    """Each x_sum's TPoly coefficients by z-power, made into one Series per
    power from its term map."""
    params = SeriesParams(n, q)
    ring = SeriesRing(x_variable_names(r), cap)
    by_z = {}
    for exps in ring.exponents_up_to_cap():
        base = profile_from_exponents(r, exps)
        zp = qseries.x_sum(HeightProfile(base.k, base.l, base.h, j), params)
        for ze, tp in zp.coeffs.items():
            by_z.setdefault(ze, {})[exps] = tp
    return PhiPoly(ring, {ze: Series(ring, terms) for ze, terms in by_z.items()})


def clear_qseries_caches():
    for name in dir(qseries):
        cache_clear = getattr(getattr(qseries, name), "cache_clear", None)
        if cache_clear is not None:
            cache_clear()


def test_phi_bruteforce_builds_no_tpoly(monkeypatch):
    # the x_sums' numerator slots go over one denominator (ZPoly.by_power)
    # and into each z-power's series (Series.from_numerators) with one
    # reduction: no TPoly is made, from cold caches, and the result is the
    # one made from the x_sums' TPoly coefficients
    def refuse(*args, **kwargs):
        raise AssertionError("a TPoly was built")

    cases = [(4, 2, Fraction(1, 2), j, 3) for j in (-1, 0, 1)] + [
        (5, 1, CycloNumber.zeta(5), 0, 3), (4, 1, CycloNumber.zeta(12), -1, 3),
        (3, 1, Fraction(-3), 0, 2)]
    for n, r, q, j, cap in cases:
        want = ref_phi_bruteforce(n, r, q, j, cap)
        clear_qseries_caches()
        with monkeypatch.context() as patch:
            patch.setattr(TPoly, "__init__", refuse)
            for name in ("_from_form", "_like", "_from_numerators", "const"):
                patch.setattr(TPoly, name, classmethod(refuse))
            got = phi_bruteforce(n, r, q, j, cap)
        assert got == want and got.to_json() == want.to_json(), (n, r, q, j)
        assert got.coeffs


def test_invariant_violations_raise_package_errors(monkeypatch):
    ring = SeriesRing(("w",), 3)
    with pytest.raises(NonzeroConstantTerm):
        _log_one_plus(ring.one() + ring.var("w"))
    monkeypatch.setattr("qharmonic.genfun.LEMMA_SAMPLES", 10**6)
    phi_system_checks.cache_clear()
    with pytest.raises(SampleTooSmall, match="only 377 of 1000000 "):
        phi_system_checks(3, 1, Fraction(1, 2), 2)


def test_phi_system_checks_group_subchecks_by_statement():
    groups = phi_system_checks(3, 2, Fraction(1, 2), 2)
    assert list(groups) == ["lemma2_1", "prop2_2", "cor2_3", "thm2_4", "c_i"]
    for statement, pairs in groups.items():
        assert pairs and all(name.startswith(statement) and mm is None for name, mm in pairs)
    assert len(groups["lemma2_1"]) >= LEMMA_SAMPLES
    assert [name for name, _ in groups["prop2_2"]] == ["prop2_2[top]", "prop2_2[join]", "prop2_2[base]"]
    # the result is cached, so callers must not be able to change it
    with pytest.raises(TypeError):
        groups["c_i"] = ()


@pytest.mark.parametrize("n, r, q, cap", [
    (3, 3, Fraction(1, 2), 2),
    (3, 3, CycloNumber.zeta(3), 2),
    (2, 4, Fraction(1, 2), 2),
], ids=["r3-half", "r3-zeta3", "r4-half"])
def test_prop2_2_middle_equations_hold(n, r, q, cap):
    # (E2) exists for j = 1..r-2 only, beyond the r in {1, 2} of the verify grid
    names = [name for name, mm in phi_system_checks(n, r, q, cap)["prop2_2"] if mm is None]
    assert names == ["prop2_2[top]"] + [f"prop2_2[mid j={j}]" for j in range(1, r - 1)] \
        + ["prop2_2[join]", "prop2_2[base]"]


def _ref_h_tuples(l, budget, r):
    """Weakly decreasing r-tuples, entries <= l, sum <= budget, largest first."""
    def rec(prefix, hi, left):
        if len(prefix) == r:
            yield prefix
            return
        for v in range(min(hi, left), -1, -1):
            yield from rec(prefix + (v,), v, left - v)
    return list(rec((), l, budget))


def test_h_tuples_match_the_recursive_enumeration():
    # the order fixes the lemma2_1 sample, so it is compared too
    for l in range(13):
        for budget in range(13):
            for r in range(5):
                assert _h_tuples(l, budget, r) == _ref_h_tuples(l, budget, r), (l, budget, r)


def test_matrix_form_raises_on_an_uncancelled_pole(monkeypatch):
    # a wrong last diagonal entry leaves x4 * x1^2 uncancelled in row u3,
    # which is x1^-1 after the shift by r + 1 = 3
    mat, inv = pascal_T(2)
    wrong = (mat[0], (mat[1][0], mat[1][1] + 1))
    monkeypatch.setattr("qharmonic.genfun.pascal_T", lambda r: (wrong, inv))
    with pytest.raises(UncancelledPole, match=r"x1\^-1 survived"):
        u_from_x_matrix(2, 3)


def test_x_from_u_rejects_bad_arguments():
    with pytest.raises(ValueError):
        x_from_u(0, 4)
    with pytest.raises(ValueError):
        u_from_x(1, 0)


def exponents_of_profile(profile: HeightProfile) -> tuple[int, ...]:
    """The monomial map u₁^{k−l−Σh} u₂^{l−h₁} u₃^{h₁−h₂} … u_{r+2}^{h_r}."""
    h = profile.h
    r = len(h)
    out = [profile.k - profile.l - sum(h), profile.l - (h[0] if h else 0)]
    for i in range(1, r):
        out.append(h[i - 1] - h[i])
    if r:
        out.append(h[r - 1])
    return tuple(out)


def test_profile_exponent_roundtrip():
    profiles = [
        HeightProfile(3, 2, (1,)),
        HeightProfile(5, 2, (2, 1)),
        HeightProfile(8, 3, (2, 2, 1)),
    ]
    for prof in profiles:
        r = len(prof.h)
        exps = exponents_of_profile(prof)
        assert len(exps) == r + 2
        assert profile_from_exponents(r, exps) == prof


def formal_xs(r, cap):
    ring = SeriesRing(x_variable_names(r), cap)
    return tuple(map(ring.var, ring.variables))


def hand_p_minus(r, xs):
    """P^{t-1} written out: the coefficients of P^t with t-1 in place of t."""
    ring = xs[0].ring
    sigma = T - TPoly.one()
    cs = [ring.zero()] * r + [-(xs[0] + xs[1] * sigma), ring.one()]
    for i in range(r):
        cs[i] = -((xs[r + 1 - i] - xs[0] * xs[r - i]) * sigma)
    return tuple(cs)


def test_p_poly_r1_coefficients():
    """T^2 - (x1 + s*x2) T - s (x3 - x1 x2), with s = t, and s = t-1 under
    the t -> t-1 image."""
    x1, x2, x3 = fx = formal_xs(1, 4)
    plain = p_poly(1, fx)
    assert plain == (-((x3 - x1 * x2) * T), -(x1 + x2 * T), x1.ring.one())
    shifted = tuple(c.affine_t(1, -1) for c in plain)
    assert shifted[2] == x1.ring.one()
    assert shifted[1] == -(x1 + x2 * (T - TPoly.one()))
    assert shifted[0] == -((x3 - x1 * x2) * (T - TPoly.one()))
    assert shifted == hand_p_minus(1, fx)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_p_poly_matches_series_products_and_sums(r):
    # p_poly's weighted sums against its coefficients formed by series
    # products and sums, over rational x-series and over x-series at zeta_5
    for xs in (x_from_u(r, 4), tuple(x * CycloNumber.zeta(5) for x in x_from_u(r, 3))):
        want = [-((xs[r + 1 - i] - xs[0] * xs[r - i]) * T) for i in range(r)]
        want += [-(xs[0] + xs[1] * T), xs[0].ring.one()]
        assert p_poly(r, xs) == tuple(want)


def test_p_poly_validation():
    fx = formal_xs(1, 4)
    with pytest.raises(ValueError):
        p_poly(2, fx)


@pytest.mark.parametrize("n,r,cap", [(3, 1, 3), (2, 2, 2), (4, 1, 2)])
def test_psi_product_matches_bruteforce(n, r, cap):
    q = Fraction(1, 2)
    assert psi_product(n, r, q, cap) == psi_bruteforce(n, r, q, cap)


def test_psi_coefficient_t_degree_bound():
    # each u-monomial's coefficient has t-degree below the depth it encodes
    psi = psi_bruteforce(3, 1, Fraction(1, 2), 3)
    for exps, tp in psi.terms.items():
        prof = profile_from_exponents(1, exps)
        assert tp.degree() <= max(prof.l - 1, 0)


def test_reflection_fixes_psi():
    psi = psi_bruteforce(3, 1, Fraction(1, 2), 3)
    assert psi * reflect_companion(psi) == psi.ring.one()


def test_series_t_helpers():
    ring = SeriesRing(("u1", "u2"), 2)
    s = ring.var("u1") * TPoly({0: Fraction(1), 1: Fraction(2)}) + ring.var("u2")
    assert s.affine_t(1, 0) == s
    evaluated = s.affine_t(0, Fraction(3))
    assert evaluated.coefficient({"u1": 1}) == TPoly.const(7)
    assert reflect_companion(reflect_companion(s)) == s
    # t -> 0*t + v is evaluation at v, on integer-form and zeta_7-form series
    rng = random.Random("affine-t-evaluates")
    zeta = CycloNumber.zeta(7)
    for cyclo in (False, True):
        for _ in range(4):
            terms = {e: TPoly({k: value(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                     + (lift(zeta) * rng.randint(-2, 2) if cyclo else 0))
                               for k in range(rng.randint(1, 4))})
                     for e in rng.sample(ring.exponents_up_to_cap(), 4)}
            s = Series(ring, terms) + (ring.var("u2") * zeta if cyclo else ring.zero())
            assert s.terms
            for v in (Fraction(1, 2), Fraction(-3), Fraction(2, 7), 0):
                want = Series(ring, {e: TPoly.const(tp.eval(v)) for e, tp in s.terms.items()})
                assert s.affine_t(0, v).to_json() == want.to_json()


def test_u_poly_smallest_cases():
    first = u_poly(1)
    assert first == first.ring.one()
    second = u_poly(2)
    assert second.coefficient({}) == TPoly.const(2)
    assert second.coefficient({"u1": 1}) == TPoly.one()
    assert second.coefficient({"u2": 1}) == TPoly({1: Fraction(-1)})
    assert second.coefficient({"u3": 1}) == TPoly({1: Fraction(1, 2)})
    assert second.coefficient({"u1": 1, "u2": 1}) == TPoly({1: Fraction(-1, 2)})
    assert len(second.sorted_terms()) == 5
    with pytest.raises(ValueError):
        u_poly(0)


def test_u_poly_ratio_has_unit_constant():
    ratio = u_poly_ratio(2, 3)
    assert ratio.constant_term() == TPoly.one()


def u_special(n: int) -> Series:
    """U_n^t(0, 0, u₃) = Σ_{i<n} 1/(i+1) C(n+i, 2i+1) (t u₃)^i."""
    ring = SeriesRing(("u3",), max(n - 1, 0))
    terms = {}
    for i in range(n):
        c = Fraction(binomial(n + i, 2 * i + 1), i + 1)
        if c:
            terms[(i,)] = TPoly({i: c})
    return Series(ring, terms)


def u_collapsed(n: int) -> Series:
    """The double sum Σ_{0≤i,j≤n−1} C(n, i+j+1) u₁^j (−t u₂)^i, which the
    Chu-Vandermonde identity equates with U_n^t at u₃ = u₁u₂."""
    ring = SeriesRing(("u1", "u2"), 2 * n)
    terms = {}
    for i in range(n):
        for j in range(n):
            c = binomial(n, i + j + 1)
            if c:
                terms[(j, i)] = TPoly({i: Fraction((-1) ** i * c)})
    return Series(ring, terms)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_u_special_slices_u_poly(n):
    special = u_special(n)
    assert special.constant_term() == TPoly.const(n)
    sliced = u_poly(n).set_var_zero("u1").set_var_zero("u2")
    assert len(sliced.sorted_terms()) == len(special.sorted_terms())
    for i in range(n):
        assert sliced.coefficient({"u3": i}) == special.coefficient({"u3": i})


@pytest.mark.parametrize("n", [2, 3])
def test_u_collapsed_is_u_poly_on_the_diagonal(n):
    target = SeriesRing(("u1", "u2"), 2 * n)
    diag = target.var("u1") * target.var("u2")
    assert u_poly(n).substitute({"u3": diag}, target) == u_collapsed(n)


def test_sum_formula_spot_values():
    assert sum_formula(3, 2, 1, "eq12") == TPoly.const(Fraction(-2, 3))
    assert sum_formula(3, 2, 2, "eq13") == TPoly({0: Fraction(1, 3), 1: Fraction(1, 3)})
    assert sum_formula(4, 3, 2, "eq13") == sum_formula(4, 3, 2, "eq14")
    # the rearranged truncation picks up the complementary binomial range
    assert sum_formula(7, 5, 2, "eq12") == sum_formula(7, 5, 2, "btt314")


def test_depth_one_forms_match_their_binomial_sums():
    # eq12 sums C(n, j+1) times the depth-one value over j = l..k, btt314 over j < l
    for n in range(2, 8):
        for k in range(7):
            for l in range(k + 1):
                terms = [binomial(n, j + 1) * zbar_depth1_rational(n, k - j) for j in range(k + 1)]
                assert sum_formula(n, k, l, "eq12") == TPoly.const(-sum(terms[l:], Fraction(0)) / n)
                if l >= 1:
                    assert sum_formula(n, k, l, "btt314") == TPoly.const(sum(terms[:l], Fraction(0)) / n)


def test_sum_formula_rejects_bad_shapes():
    with pytest.raises(ValueError):
        sum_formula(1, 2, 1, "eq13")
    with pytest.raises(ValueError):
        sum_formula(3, 1, 2, "eq13")
    with pytest.raises(ValueError):
        sum_formula(3, 2, 0, "btt314")
    with pytest.raises(ValueError):
        sum_formula(3, 2, 1, "nope")


def test_eval_constant_index_spots():
    assert eval_constant_index(1, 0, 5) == TPoly.one()
    assert eval_constant_index(2, 1, 3) == TPoly.const(Fraction(-2, 3))
    assert eval_constant_index(1, 2, 3) == TPoly({0: Fraction(1, 3), 1: Fraction(1, 3)})
    assert eval_constant_index(2, 2, 4) == zbar_t((2, 2), zeta_params(4)).rationalized()
    with pytest.raises(ValueError):
        eval_constant_index(4, 1, 3)
    with pytest.raises(ValueError):
        eval_constant_index(2, -1, 3)


def test_kpow_generating_structure():
    gen = kpow_generating(2, 4, 3)
    assert gen.coefficient({}) == TPoly.one()
    assert gen.coefficient({"v": 2}) == eval_constant_index(2, 2, 4)
    for exps, tp in gen.terms.items():
        assert tp.degree() <= exps[0]
    assert gen == kpow_ratio_closed(2, 4, 3)


def test_h_poly_k3_matches_closed_form():
    assert h_series(3, 3, 3) == h_closed_k3(3, 3)
    assert h_series(3, 4, 2) == h_closed_k3(4, 2)


def test_ftilde_explicit_k2():
    ring = SeriesRing(("u", "v"), 4)
    one, u, v = ring.one(), ring.var("u"), ring.var("v")
    f0, f1, f2 = ftilde_polys(2, ring)
    assert f0 == one - u
    assert f2 == one - u
    assert f1 == one - (ring.scalar(Fraction(2)) + v * T) * u + ring.var("u", 2)


def test_ftilde_explicit_k3():
    ring = SeriesRing(("u", "v"), 4)
    one, u, v = ring.one(), ring.var("u"), ring.var("v")
    e1 = ring.scalar(Fraction(3)) - v * T
    f0, f1, f2, f3 = ftilde_polys(3, ring)
    assert f0 == one - u
    assert f1 == one - e1 * u + ring.var("u", 2) * 3 - ring.var("u", 3)
    assert f2 == one - u * 3 + e1 * ring.var("u", 2) - ring.var("u", 3)
    assert f3 == one - u
    with pytest.raises(ValueError):
        ftilde_polys(4, ring)


def f_r1(choice: str, cap: int = 4) -> Series:
    """The explicit r=1 subset-product polynomials in (u, u₁, u₂, u₃):

        F11 = 1 − (2 + u₁ − t(u₂ + u₁u₂ − u₃))/(1+u₁) · u + (1 − tu₂)/(1+u₁) · u²
        F12 = 1 − (1 − tu₂)/(1+u₁) · u
    """
    ring = SeriesRing(("u", "u1", "u2", "u3"), cap)
    inv = (ring.one() + ring.var("u1")).invert()
    b2 = (ring.one() - ring.var("u2") * T) * inv
    if choice == "F12":
        return ring.one() - b2 * ring.var("u")
    if choice == "F11":
        num = (
            ring.scalar(Fraction(2))
            + ring.var("u1")
            - (
                ring.var("u2")
                + ring.var("u1") * ring.var("u2")
                - ring.var("u3")
            ) * T
        )
        return ring.one() - num * inv * ring.var("u") + b2 * ring.var("u", 2)
    raise ValueError(f"unknown choice {choice!r}")


def test_f_r1_shapes():
    f12 = f_r1("F12")
    ring = f12.ring
    inv = (ring.one() + ring.var("u1")).invert()
    expected = ring.one() - (ring.one() - ring.var("u2") * T) * inv * ring.var("u")
    assert f12 == expected
    f11 = f_r1("F11")
    # the two slices truncate at different total degrees, so compare low order
    low = SeriesRing(("u", "u1", "u2", "u3"), 2)
    assert Series(low, f11.coefficient_of("u", 2).terms) == Series(
        low, (f12.coefficient_of("u", 1) * Fraction(-1)).terms)
    with pytest.raises(ValueError):
        f_r1("F13")


def test_pascal_pair():
    mat, inv = pascal_T(2)
    assert mat == ((1, 1), (0, 1))
    assert inv == ((1, -1), (0, 1))
    for r in range(1, 7):
        mat, inv = pascal_T(r)
        identity = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
        assert mat_mul(mat, inv) == identity
    with pytest.raises(ValueError):
        pascal_T(0)


def test_xi_ones_coeff_first_values():
    assert xi_ones_coeff(0) == TPoly.one()
    assert xi_ones_coeff(1) == TPoly.const(Fraction(1, 2))
    assert xi_ones_coeff(2) == TPoly({0: Fraction(1, 6), 1: Fraction(-1, 12)})
    assert xi_ones_coeff(3) == TPoly({0: Fraction(1, 24), 1: Fraction(-1, 24)})
    # the depth-3 factor vanishes identically at t=1
    assert xi_ones_coeff(3).eval(Fraction(1)) == 0
    with pytest.raises(ValueError):
        xi_ones_coeff(-1)


def test_qhs_truncated_basics():
    q = Fraction(1, 2)
    assert _qhs_terms((q,), (q,), q, Fraction(3), 0) == [1]
    # (1 - 1/3) / (1 - 1/2) * 1/4
    assert _qhs_terms((Fraction(1, 3),), (), q, Fraction(1, 4), 1) == [1, Fraction(1, 3)]
    with pytest.raises(ZeroPochhammerDenominator):
        _qhs_terms((Fraction(1),), (Fraction(2),), q, Fraction(1), 2)


def test_pinned_witness_is_valid():
    w = PINNED_QHS_WITNESS
    assert w is not None
    assert validate_qhs_witness(w)
    for shift in (0, -1):
        b, c = w.quad(shift)
        s = w.s_t if shift == 0 else w.s_tm1
        assert s * s == b * b + 4 * c
        for alpha in w.alphas(shift):
            assert w.quad_eval(shift, -alpha) == 0


def test_pinned_witness_closed_matches_hypergeometric():
    closed, hyper = qhs_phi_coefficients(PINNED_QHS_WITNESS)
    assert len(closed) == PINNED_QHS_WITNESS.n - 1
    assert closed == hyper
    assert all(isinstance(c, Fraction) for c in closed)


def test_search_recovers_pinned_witness():
    found = search_qhs_witness()
    assert found is not None
    assert found.to_json() == PINNED_QHS_WITNESS.to_json()


def ref_qhs_witnesses(coords, svals):
    """The witness search in Fractions: for each candidate (x1, x2, t, s),
    solve x3 from the t-discriminant s², skip x3 = 0 and x3 = x1·x2, and
    keep it when the shifted discriminant is a rational square and the
    witness validates."""
    for x1 in coords:
        for x2 in coords:
            for t in genfun.QHS_T_VALUES:
                b = x1 + t * x2
                for s in svals:
                    x3 = x1 * x2 + (s * s - b * b) / (4 * t)
                    if x3 == 0 or x3 == x1 * x2:
                        continue
                    bm = x1 + (t - 1) * x2
                    sm = genfun._rational_sqrt(bm * bm + 4 * (t - 1) * (x3 - x1 * x2))
                    if sm is None:
                        continue
                    w = genfun.QhsWitness(x1=x1, x2=x2, x3=x3, t=t, q=genfun.QHS_Q,
                                          n=genfun.QHS_N, s_t=s, s_tm1=sm)
                    if validate_qhs_witness(w):
                        yield w


def test_qhs_search_matches_fraction_reference():
    # the int search keeps the Fraction loop's candidates, order and hits:
    # its first 40 witnesses at the real bounds (the candidates up to the
    # 40th hit), and every witness at small bounds
    coords = genfun._ordered_rationals(genfun.QHS_COORD_BOUND)
    svals = genfun._ordered_s_values(genfun.QHS_S_DEN_BOUND, genfun.QHS_S_NUM_BOUND)
    got = list(islice(genfun._qhs_witnesses(coords, svals), 40))
    assert got == list(islice(ref_qhs_witnesses(coords, svals), 40))
    assert got[0] == PINNED_QHS_WITNESS and len({w.x2 for w in got}) > 2
    coords, svals = genfun._ordered_rationals(2), genfun._ordered_s_values(3, 6)
    got = list(genfun._qhs_witnesses(coords, svals))
    assert got and got == list(ref_qhs_witnesses(coords, svals))


def test_identity_report_validation():
    report = IdentityReport(identity="x", params={}, status="pass")
    assert list(report.to_json()) == [
        "identity", "params", "status", "lhs", "rhs", "mismatch",
    ]
    with pytest.raises(ValueError):
        IdentityReport(identity="x", params={}, status="bogus")
    with pytest.raises(ValueError):
        IdentityReport(identity="x", params={}, status="fail")


def test_mismatch_helpers_locate_first_difference():
    ring = SeriesRing(("u1", "u2"), 2)
    a = ring.var("u1") + ring.var("u2")
    assert series_mismatch(a, a) is None
    hit = series_mismatch(a, ring.var("u1"))
    assert hit == {"term": {"u2": 1}, "lhs": {"t^0": "1"}, "rhs": {}}
    assert poly_mismatch(T, T) is None
    assert poly_mismatch(T, TPoly.one()) == {
        "t_power": 0, "lhs": "0", "rhs": "1",
    }
    assert poly_mismatch(ZPoly({2: T}), ZPoly({1: T, 2: T})) == {
        "z_power": 1, "lhs": {}, "rhs": {"t^1": "1"},
    }
    assert scalar_mismatch(Fraction(1), Fraction(1)) is None
    assert scalar_mismatch(Fraction(1), Fraction(2)) == {"lhs": "1", "rhs": "2"}


# -- the t -> t-1 numerators against the two-product formulas -----------------

T_MINUS_ONE = TPoly({0: Fraction(-1), 1: Fraction(1)})


def eval_by_horner(coeffs, value):
    out = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        out = out * value + c
    return out


def test_p_evaluation_matches_horner():
    # eval_p takes the value as numerators over a denominator: an int at
    # rational q, or the coefficient list of a Z[zeta_N] numerator
    for r in (1, 2, 3):
        xs = x_from_u(r, 3)
        for coeffs in (p_poly(r, xs), hand_p_minus(r, xs)):
            for v in (Fraction(0), Fraction(-3, 4), Fraction(7, 2)):
                got = eval_p(coeffs, v.numerator, v.denominator)
                assert got == eval_by_horner(coeffs, v), (r, v)
            for order, b, den in ((5, 2, 1), (9, 1, 1), (9, 4, 3), (12, 5, 2)):
                tval = (1 - Ref.zeta(order, b)) * Fraction(1, den)
                num = [int(c * den) for c in tval.coeffs]
                got = eval_p(coeffs, num, den, order)
                assert got == eval_by_horner(coeffs, tval.value), (r, order, b)


def ref_psi_product(n, r, q, cap):
    """Both products multiplied out, then num * den^-1."""
    params = SeriesParams(n, q)
    xs = x_from_u(r, cap)
    p_minus, p_plain = hand_p_minus(r, xs), p_poly(r, xs)
    num = den = xs[0].ring.one()
    for j in range(1, n):
        tval = value(1 - lift(params.q) ** j)
        num = num * eval_by_horner(p_minus, tval)
        den = den * eval_by_horner(p_plain, tval)
    return num * den.invert()


@pytest.mark.parametrize("n", range(2, 6))
def test_phi_t_minus_one_products_match_the_hand_built_chain(n):
    """The t-1 products of thm2_4 and c_i, read as the t -> t-1 image of the
    P^t prefix products, equal prod_j P^{t-1}(1-q^j) multiplied out."""
    for r in (1, 2):
        ring = SeriesRing(x_variable_names(r), 3)
        xs = tuple(ring.var(f"x{i}") for i in range(1, r + 3))
        pp, pm = p_poly(r, xs), hand_p_minus(r, xs)
        for q in (CycloNumber.zeta(n), Fraction(1, 2)):
            chain = [ring.one()]
            for j in range(1, n):
                chain.append(chain[-1] * eval_by_horner(pm, value(1 - lift(q) ** j)))
            got = [p.affine_t(1, -1) for p in _p_products(pp, SeriesParams(n, q))]
            assert [g.to_json() for g in got] == [c.to_json() for c in chain]


def flat_terms(f: PhiPoly) -> dict:
    """{(x-exponents, z-power): TPoly} of a z-polynomial over x-series."""
    return {(e, z): c for z, s in f.coeffs.items() for e, c in s.terms.items()}


@pytest.mark.parametrize("q", [Fraction(1, 2), CycloNumber.zeta(5)], ids=["half", "zeta5"])
def test_phi_poly_theta_shift_and_value_at_one_match_term_by_term(q):
    n, r, cap = 5, 1, 3
    params = SeriesParams(n, q)
    ring = SeriesRing(x_variable_names(r), cap)
    phi = phi_bruteforce(n, r, q, -1, cap)
    terms = flat_terms(phi)
    assert len({z for _, z in terms}) == n  # z^0 .. z^(n-1) all occur

    theta = theta_q(phi, params)
    assert type(theta) is PhiPoly
    assert flat_terms(theta) == {(e, z): c * value(1 - lift(q) ** z)
                                 for (e, z), c in terms.items() if z}
    assert flat_terms(phi.shift(2)) == {(e, z + 2): c for (e, z), c in terms.items()}

    at_one = {}
    for (e, _), c in terms.items():
        at_one[e] = at_one.get(e, TPoly.zero()) + c
    assert phi.eval_z_one().to_json() == Series(ring, at_one).to_json()


# The first failing subcheck of each phi statement, and its report, when
# x_sum gains t·z on the profile (2, 1, (0,)*r, j).
INJECTED_FAULT_REPORTS = {
    (3, 1, "1/2", -1): {
        "lemma2_1": ["lemma2_1[i](3, 1, (1,))",
                     {"z_power": 1, "lhs": {"t^0": "4"}, "rhs": {"t^0": "4", "t^1": "1"}}],
        "prop2_2": ["prop2_2[top]", {"term": {"x1": 1, "x2": 1, "x3": 1, "z": 1},
                                     "lhs": {"t^0": "4"}, "rhs": {"t^0": "4", "t^1": "1"}}],
        "cor2_3": ["cor2_3", {"term": {"x1": 1, "x2": 1, "x3": 1, "z": 3},
                              "lhs": {}, "rhs": {"t^1": "-1"}}],
        "thm2_4": ["thm2_4", {"term": {"x1": 1, "x2": 1},
                              "lhs": {"t^0": "-25/16", "t^1": "109/64"},
                              "rhs": {"t^0": "-25/16", "t^1": "25/16"}}],
        "c_i": None,
    },
    (3, 1, "1/2", 0): {
        "lemma2_1": ["lemma2_1[i](3, 1, (1,))",
                     {"z_power": 1, "lhs": {"t^0": "4"}, "rhs": {"t^0": "4", "t^1": "-1"}}],
        "prop2_2": ["prop2_2[top]", {"term": {"x1": 1, "x2": 1, "x3": 1, "z": 1},
                                     "lhs": {"t^0": "4"}, "rhs": {"t^0": "4", "t^1": "-1"}}],
        "cor2_3": ["cor2_3", {"term": {"x1": 1, "x2": 1, "z": 1},
                              "lhs": {"t^1": "1/4"}, "rhs": {}}],
        "thm2_4": None,
        "c_i": ["c_i[1]", {"term": {"x1": 1, "x2": 1}, "lhs": {"t^1": "1/4"}, "rhs": {}}],
    },
    (4, 2, "zeta", -1): {
        "lemma2_1": ["lemma2_1[ii](3, 1, (1, 0), 0)",
                     {"z_power": 1, "lhs": {}, "rhs": {"t^1": "1"}}],
        "prop2_2": ["prop2_2[join]", {"term": {"x1": 1, "x2": 1, "x3": 1, "z": 1},
                                      "lhs": {}, "rhs": {"t^1": "1"}}],
        "cor2_3": ["cor2_3", {"term": {"x1": 1, "x2": 1, "x4": 1, "z": 4},
                              "lhs": {}, "rhs": {"t^1": "-1"}}],
        "thm2_4": ["thm2_4", {"term": {"x1": 1, "x2": 1},
                              "lhs": {"t^0": "-144", "t^1": "208"},
                              "rhs": {"t^0": "-144", "t^1": "144"}}],
        "c_i": None,
    },
    (4, 2, "zeta", 1): {
        "lemma2_1": None,
        "prop2_2": ["prop2_2[top]", {"term": {"x1": 1, "x2": 1, "x4": 1, "z": 1},
                                     "lhs": {}, "rhs": {"t^1": "-1"}}],
        "cor2_3": ["cor2_3", {"term": {"x1": 1, "x2": 1, "z": 1},
                              "lhs": {"t^1": {"order": 4, "coeffs": ["-2", "-2"]}}, "rhs": {}}],
        "thm2_4": None,
        "c_i": ["c_i[1]", {"term": {"x1": 1, "x2": 1},
                           "lhs": {"t^1": {"order": 4, "coeffs": ["-2", "-2"]}}, "rhs": {}}],
    },
}


@pytest.mark.parametrize("key", sorted(INJECTED_FAULT_REPORTS, key=str),
                         ids=lambda key: "-".join(map(str, key)))
def test_phi_failure_reports_under_an_injected_fault_are_pinned(monkeypatch, key):
    n, r, spec, j = key
    q = CycloNumber.zeta(n) if spec == "zeta" else Fraction(spec)
    bad = HeightProfile(2, 1, (0,) * r, j)
    exact_x_sum = qseries.x_sum

    def faulty_x_sum(profile, params):
        out = exact_x_sum(profile, params)
        return out + ZPoly({1: T}) if profile == bad else out

    # lemma2_1 reads x_sum through qseries, the generating functions through genfun
    monkeypatch.setattr(qseries, "x_sum", faulty_x_sum)
    monkeypatch.setattr(genfun, "x_sum", faulty_x_sum)
    phi_system_checks.cache_clear()
    try:
        groups = phi_system_checks(n, r, q, 3)
    finally:
        phi_system_checks.cache_clear()
    first = {statement: next(([name, mm] for name, mm in pairs if mm is not None), None)
             for statement, pairs in groups.items()}
    # dumped, so that the key order of every report is pinned too
    assert json.dumps(first) == json.dumps(INJECTED_FAULT_REPORTS[key])


def ref_kpow_generating(k, n, vcap):
    zeta = lift(zeta_params(n).q)
    ring = SeriesRing(("v",), vcap)

    def product(sigma):
        out = ring.one()
        for j in range(1, n):
            tj = zeta ** j
            if k == 1:
                const, vcoef = (1 - tj) * (1 - tj), sigma * value(-(1 - tj))
            else:
                const, vcoef = (1 - tj) ** k, sigma * value(-(tj ** (k - 1)))
            out = out * Series(ring, {(0,): TPoly.const(value(const)), (1,): vcoef})
        return out

    ratio = product(T_MINUS_ONE) * product(T).invert()
    return Series(ring, {e: tp.rationalized() for e, tp in ratio.terms.items()})


def test_psi_product_matches_two_product_formula():
    rng = random.Random("psi-two-products")
    for kind in ("zeta", "zeta", "zeta", "1/2", "-3", "random", "random"):
        n, r, cap = rng.randint(3, 5), rng.randint(1, 2), rng.randint(1, 3)
        q = {"zeta": CycloNumber.zeta(n), "1/2": Fraction(1, 2), "-3": Fraction(-3),
             "random": Fraction(rng.randint(1, 9), rng.randint(2, 9))}[kind]
        assert psi_product(n, r, q, cap).to_json() == ref_psi_product(n, r, q, cap).to_json()


def test_kpow_generating_refuses_an_irrational_quotient(monkeypatch):
    ring = SeriesRing(("v",), 2)
    irrational = ring.one() + ring.var("v") * TPoly({1: CycloNumber.zeta(7)})
    monkeypatch.setattr(genfun, "_t_ratio", lambda den: irrational)
    with pytest.raises(IrrationalCoefficient, match=r"'exps': \[1\], 't_power': 1"):
        kpow_generating(2, 5, 2)


def test_kpow_generating_matches_two_product_formula():
    rng = random.Random("kpow-two-products")
    for k in (1, 1, 2, 2, 3, 3, 4):
        n, vcap = rng.randint(2, 8), rng.randint(1, 5)
        assert kpow_generating(k, n, vcap).to_json() == ref_kpow_generating(k, n, vcap).to_json()


# u_poly is written straight into integer form from its binomial expansion;
# the product of its three factor powers below is its reference.

def ref_u_poly(n: int, cap: int | None = None) -> Series:
    """U_n^t of genfun.u_poly as the sum over (a, b) of the products
    (1+u₁)^a (1−tu₂)^b (u₃−u₁u₂)^m, truncated at the cap."""
    ring = SeriesRing(("u1", "u2", "u3"), 2 * n if cap is None else cap)
    top_m = min(n - 1, ring.cap)
    base_a = ring.one() + ring.var("u1")
    base_b = ring.one() - ring.var("u2") * T
    base_c = ring.var("u3") - ring.var("u1") * ring.var("u2")
    pow_a = [ring.one()]
    pow_b = [ring.one()]
    pow_c = [ring.one()]
    for _ in range(n - 1):
        pow_a.append(pow_a[-1] * base_a)
        pow_b.append(pow_b[-1] * base_b)
    for _ in range(top_m):
        pow_c.append(pow_c[-1] * base_c)
    out = ring.zero()
    for a in range(n):
        for b in range(n - a):
            m = n - a - b - 1
            if m > top_m:
                continue
            c = Fraction(binomial(n - a - 1, b) * binomial(n - b - 1, a), m + 1)
            out = out + pow_a[a] * pow_b[b] * pow_c[m] * TPoly({m: c})
    return out


def test_u_poly_matches_the_product_form():
    for n in range(1, 10):
        for cap in (None, *range(2 * n + 2)):
            got, want = u_poly(n, cap), ref_u_poly(n, cap)
            assert got == want, (n, cap)
            assert got.to_json() == want.to_json(), (n, cap)


def test_u_poly_makes_no_series_product(monkeypatch):
    calls = []
    product = Series.__mul__

    def spy(self, other):
        calls.append(other)
        return product(self, other)

    monkeypatch.setattr(Series, "__mul__", spy)
    monkeypatch.setattr(Series, "__rmul__", spy)
    built = u_poly(6, 5)
    assert calls == []
    assert built == ref_u_poly(6, 5) and calls  # the spy does see the reference


def test_u_poly_at_a_cap_is_the_truncated_polynomial():
    for n in range(1, 9):
        full = ref_u_poly(n)
        for cap in range(0, 8):
            ring = SeriesRing(("u1", "u2", "u3"), cap)
            den = Series(ring, full.terms)  # the terms above the cap dropped
            assert u_poly(n, cap) == den
            assert u_poly_ratio(n, cap) == den.affine_t(1, -1) * den.invert()


# The change of variables is written straight into integer form; the sum of
# monomials below is its reference, compared byte for byte.

def ref_change_of_variables(names, r: int, cap: int, sign: int) -> tuple[Series, ...]:
    """w₁,…,w_{r+2} of genfun._change_of_variables, one monomial at a time."""
    ring = SeriesRing(names, cap)
    v1, last = names[0], names[-1]

    def total(terms) -> Series:
        return sum((ring.monomial(e, Fraction(c)) for c, e in terms), ring.zero())

    ws = [total((sign ** (s - 1), {v1: s}) for s in range(1, cap + 1))]
    for i in range(2, r + 3):
        a = r + 2 - i
        ws.append(total([(sign ** (j - i) * binomial(j - 2, i - 2), {names[j - 1]: 1})
                         for j in range(i, r + 2)]
                        + [(sign ** (s + a) * binomial(s + a + i - 2, i - 2), {last: 1, v1: s})
                           for s in range(cap)]))
    return tuple(ws)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_change_of_variables_matches_its_monomial_sum(r):
    for cap in range(1, 7):
        for sign, names in ((-1, u_variable_names(r)), (1, x_variable_names(r))):
            got = genfun._change_of_variables(names, r, cap, sign)
            want = ref_change_of_variables(names, r, cap, sign)
            assert [w.to_json() for w in got] == [w.to_json() for w in want]


def test_substitute_builds_no_fraction_before_its_terms_are_read(monkeypatch):
    # coefficients are built only in the coeffs view of a TPoly
    calls = []
    original = TPoly.__getattr__

    def spy(tp, name):
        calls.append(name)
        return original(tp, name)

    monkeypatch.setattr(TPoly, "__getattr__", spy)
    xs = x_from_u(2, 4)
    bindings = {f"x{i + 1}": x for i, x in enumerate(xs)}
    out = [u.substitute(bindings, xs[0].ring) for u in u_from_x(2, 4)]
    assert calls == []
    assert out == [xs[0].ring.var(f"u{i}") for i in range(1, 5)]


# ---------------------------------------------------------------------------
# the closed forms against their composition loops
#
# The package reads each closed form off a generating series. The loops
# below are the weighted sums over bounded compositions that the series
# sum up, with the blend taken as TPoly powers.
# ---------------------------------------------------------------------------

def ref_bounded_compositions(total, mins, maxs):
    """All integer tuples summing to `total` with mins[i] <= entry i <=
    maxs[i], in lexicographic order."""
    n = len(mins)
    tail_min, tail_max = [0] * n, [0] * n
    for i in range(n - 2, -1, -1):
        tail_min[i] = tail_min[i + 1] + mins[i + 1]
        tail_max[i] = tail_max[i + 1] + maxs[i + 1]
    out = []

    def rec(i, left, prefix):
        if i == n:
            if left == 0:
                out.append(prefix)
            return
        for v in range(max(mins[i], left - tail_max[i]), min(maxs[i], left - tail_min[i]) + 1):
            rec(i + 1, left - v, prefix + (v,))

    rec(0, total, ())
    return out


def ref_blend(weights, l, style):
    one_minus_t = TPoly({0: 1, 1: -1})
    first = one_minus_t if style == "reflect" else -one_minus_t
    second = -T if style == "reflect" else T
    out = TPoly.zero()
    for i0, w in weights.items():
        if w:
            out = out + (first ** i0) * (second ** (l - i0)) * w
    return out


def ref_sum_formulas(n, k, form):
    """eq13 or eq14 for every depth l <= k; the enumeration of the outer
    tuples is shared across depths, the inner one runs per depth."""
    weights = [{} for _ in range(k + 1)]

    def add(m, js, c):
        imins = (0,) * (m + 1) if form == "eq13" else (0,) + (1,) * m
        for l in range(k + 1):
            for is_ in ref_bounded_compositions(l, imins, js):
                weights[l][is_[0]] = weights[l].get(is_[0], Fraction(0)) + c

    for m in range(k + 1):
        jmins, jmaxs = (0,) + (1,) * m, (n - 1,) * (m + 1)
        if form == "eq13":
            for js in ref_bounded_compositions(k, jmins, jmaxs):
                coeff = Fraction((-1) ** m, n ** (m + 1))
                for j in js:
                    coeff *= binomial(n, j + 1)
                add(m, js, coeff)
            continue
        for sj in range(k + 1):
            for js in ref_bounded_compositions(sj, jmins, jmaxs):
                cj = Fraction(-1, n ** (m + 1))
                for j in js:
                    cj *= binomial(n, j + 1)
                for ls in ref_bounded_compositions(k - sj, (0,) * (m + 1), (k,) * (m + 1)):
                    cl = cj
                    for la in ls:
                        cl *= zbar_depth1_rational(n, la)
                    if cl:
                        add(m, js, cl)
    return [ref_blend(w, l, "reflect") for l, w in enumerate(weights)]


def ref_eval_constant_index(k, l, n):
    if k == 1:
        factor = lambda i: Fraction(binomial(n, i + 1))
    elif k == 2:
        factor = lambda i: Fraction(binomial(n + i, 2 * i + 1), i + 1)
    else:
        factor = lambda i: Fraction(
            binomial(n + i, 3 * i + 2) + (-1) ** i * binomial(n + 2 * i + 1, 3 * i + 2), i + 1)
    weights = {}
    for m in range(l + 1):
        c0 = Fraction((-1) ** m, n ** (2 * m + 2) if k == 3 else n ** (m + 1))
        for is_ in ref_bounded_compositions(l, (0,) + (1,) * m, (n - 1,) * (m + 1)):
            c = c0
            for i in is_:
                c *= factor(i)
            weights[is_[0]] = weights.get(is_[0], Fraction(0)) + c
    return ref_blend(weights, l, "reflect" if k == 1 else "direct")


def ref_xi_ones_coeff(l):
    weights = {}
    for m in range(l + 1):
        for is_ in ref_bounded_compositions(l, (0,) + (1,) * m, (l,) * (m + 1)):
            c = Fraction((-1) ** m)
            for i in is_:
                c /= factorial(i + 1)
            weights[is_[0]] = weights.get(is_[0], Fraction(0)) + c
    return ref_blend(weights, l, "reflect")


@pytest.mark.parametrize("n", range(2, 9))
def test_sum_formulas_match_composition_loops(n):
    for k in range(9):
        for form in ("eq13", "eq14"):
            want = ref_sum_formulas(n, k, form)
            assert list(sum_formulas(n, k, form)) == want, (n, k, form)
            assert [sum_formula(n, k, l, form) for l in range(k + 1)] == want, (n, k, form)


def test_sum_formulas_reject_bad_shapes():
    with pytest.raises(ValueError):
        sum_formulas(1, 2, "eq13")
    with pytest.raises(ValueError):
        sum_formulas(3, -1, "eq14")
    with pytest.raises(ValueError):
        sum_formulas(3, 2, "eq12")


def test_eval_constant_index_matches_composition_loops():
    for k in (1, 2, 3):
        for n in range(2, 9):
            for l in range(7):
                assert eval_constant_index(k, l, n) == ref_eval_constant_index(k, l, n), (k, n, l)


def test_xi_ones_coeff_matches_composition_loops():
    for l in range(13):
        assert xi_ones_coeff(l) == ref_xi_ones_coeff(l), l


def test_phi_mismatch_compares_by_value_and_reports_the_first_term():
    # equal PhiPolys compare through their series' numerators; unequal ones
    # report the graded-lex-first differing (x, z) term, read from the terms
    from qharmonic.genfun import PhiPoly, phi_bruteforce, phi_mismatch, x_variable_names
    from qharmonic.series import SeriesRing, first_term_mismatch

    ring = SeriesRing(x_variable_names(1), 3)
    brute = phi_bruteforce(4, 1, CycloNumber.zeta(4), 0, 3)
    twin = PhiPoly(ring, {z: s * 1 for z, s in brute.coeffs.items()})
    assert phi_mismatch(brute, twin, ring) is None
    assert phi_mismatch(twin, twin, ring) is None
    bumped = twin + PhiPoly(ring, {2: ring.var("x2") * CycloNumber.zeta(4)})

    def flat(f):
        return {e + (z,): c for z, s in f.coeffs.items() for e, c in s.terms.items()}

    exps, lhs, rhs = first_term_mismatch(flat(brute), flat(bumped))
    assert exps == (0, 1, 0, 2)
    assert phi_mismatch(brute, bumped, ring) == {
        "term": {"x2": 1, "z": 2}, "lhs": lhs.to_json(), "rhs": rhs.to_json()}


# -- differential check of the z-form on x-series ----------------------------
# A PhiPoly keeps one numerator form over all its z-powers, and its
# arithmetic is the z-form's (exact.ZForm), shared with ZPoly.  The
# reference below is the plain loop over {z-power: Series}, one series
# operation per z-power.

def rand_phi_terms(ring: SeriesRing, rng: random.Random, order) -> dict:
    """{z-power: Series} with random terms; at an order some scalars are
    rational, and with order None all are."""
    out = {}
    for z in rng.sample(range(5), rng.randint(0, 3)):
        terms = {}
        for exps in ring.exponents_up_to_cap():
            if rng.random() < 0.3:
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if order is not None and rng.random() < 0.7:
                    c = CycloNumber(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                            for _ in range(rng.randint(1, 3))])
                terms[exps] = TPoly({rng.randint(0, 2): c})
        out[z] = Series(ring, terms)
    return {z: s for z, s in out.items() if s}


def ref_phi_sum(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for z, s in b.items():
        out[z] = out[z] + s * sign if z in out else s * sign
    return {z: s for z, s in out.items() if s}


def ref_phi_product(a: dict, b: dict) -> dict:
    out = {}
    for z1, s1 in a.items():
        for z2, s2 in b.items():
            out[z1 + z2] = out[z1 + z2] + s1 * s2 if z1 + z2 in out else s1 * s2
    return {z: s for z, s in out.items() if s}


def ref_phi_mismatch(a: dict, b: dict, ring: SeriesRing) -> dict | None:
    """The graded-lex-first differing (x, z) term of two {z: Series} maps."""
    fa, fb = ({e + (z,): c for z, s in f.items() for e, c in s.terms.items()} for f in (a, b))
    for key in sorted(fa.keys() | fb.keys(), key=lambda k: (sum(k), k)):
        x, y = fa.get(key, TPoly.zero()), fb.get(key, TPoly.zero())
        if x != y:
            where = {v: e for v, e in zip(ring.variables + ("z",), key) if e}
            return {"term": where or {"1": 0}, "lhs": x.to_json(), "rhs": y.to_json()}
    return None


@pytest.mark.parametrize("q", [Fraction(1, 2), CycloNumber.zeta(5), CycloNumber.zeta(12)],
                         ids=["half", "zeta5", "zeta12"])
def test_phi_poly_matches_the_per_power_series_loop(q):
    order = None if isinstance(q, Fraction) else q.order
    rng = random.Random(4040 + (order or 0))
    ring = SeriesRing(x_variable_names(1), 3)
    params = SeriesParams(5, q)
    for _ in range(12):
        # an operand at q's order, one whose scalars are all rational (an int
        # form meeting a zeta form), and one more at the order
        refs = [rand_phi_terms(ring, rng, o) for o in (order, None, order)]
        phis = [PhiPoly(ring, r) for r in refs]
        s = rand_phi_terms(ring, rng, order).get(0, ring.one())
        for (a, ra), (b, rb) in [(x, y) for x in zip(phis, refs) for y in zip(phis, refs)]:
            assert (a + b).coeffs == ref_phi_sum(ra, rb, 1)
            assert (a - b).coeffs == ref_phi_sum(ra, rb, -1)
            assert (a * b).coeffs == ref_phi_product(ra, rb)
            assert (a == b) is (ra == rb) and (a == PhiPoly(ring, rb)) is (ra == rb)
            assert phi_mismatch(a, b, ring) == ref_phi_mismatch(ra, rb, ring)
        for a, ra in zip(phis, refs):
            # sums that cancel to zero, and a cancelled sum that leaves a
            zero = PhiPoly(ring, {})
            assert a - a == zero and a + (-a) == zero and (a - a).coeffs == {}
            assert ((a + phis[1]) - phis[1]).coeffs == ra
            assert (-a).coeffs == {z: -c for z, c in ra.items()}
            assert (a * s).coeffs == (s * a).coeffs == {z: c * s for z, c in ra.items() if c * s}
            assert (a - s).coeffs == ref_phi_sum(ra, {0: s}, -1)
            assert (s - a).coeffs == ref_phi_sum({0: s}, ra, -1)
            for k in range(3):
                assert a.shift(k).coeffs == {z + k: c for z, c in ra.items()}
            theta = theta_q(a, params)
            assert type(theta) is PhiPoly and theta.ring == ring
            assert theta.coeffs == {z: c * TPoly.const(value(1 - lift(q) ** z))
                                    for z, c in ra.items() if z}
            assert a.eval_z_one() == sum(ra.values(), ring.zero())


def test_z_forms_refuse_a_negative_z_power():
    ring = SeriesRing(x_variable_names(1), 2)
    for f in (ZPoly({1: TPoly.t()}), PhiPoly(ring, {1: ring.var("x1")})):
        assert f.shift(0) == f
        with pytest.raises(ValueError, match="negative z-exponent"):
            f.shift(-1)
    with pytest.raises(ValueError, match="negative z-exponent"):
        ZPoly({-1: 1})
    with pytest.raises(ValueError, match="negative z-exponent"):
        PhiPoly(ring, {-1: ring.one()})
    other = SeriesRing(x_variable_names(1), 3)
    with pytest.raises(ValueError, match="different rings"):
        PhiPoly(ring, {0: other.one()})
    with pytest.raises(ValueError, match="different rings"):
        PhiPoly(ring, {0: ring.one()}) + PhiPoly(other, {0: other.one()})
