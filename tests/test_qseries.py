import cmath
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import gcd

import pytest

from qharmonic import exact, genfun, indices, qseries
from qharmonic.exact import (
    CycloNumber,
    NumeratorRing,
    TPoly,
    is_rational,
    scalar_eq,
    scalar_to_json,
)
from qharmonic.genfun import psi_bruteforce
from qharmonic.indices import (
    COMMA,
    PLUS,
    HeightProfile,
    compositions,
    contract,
    enumerate_indices,
    enumerate_patterns,
)
from qharmonic.qseries import (
    InvalidQ,
    L_poly,
    SeriesParams,
    ZPoly,
    g_sum,
    theta_q,
    x_sum,
    x_sum_or_zero,
    z,
    z_star,
    z_t,
    z_t_float,
    zbar,
    zbar_star,
    zbar_t,
    zeta_params,
)

from cyclo_reference import Ref, lift, reduce_mod, value

HALF = SeriesParams(4, Fraction(1, 2))


def test_params_reject_unit_roots():
    with pytest.raises(InvalidQ):
        SeriesParams(2, Fraction(1))
    with pytest.raises(InvalidQ):
        SeriesParams(3, Fraction(-1))
    # q = -1 is fine when only m = 1 appears
    assert SeriesParams(2, Fraction(-1)).q == -1
    with pytest.raises(InvalidQ):
        SeriesParams(4, CycloNumber.zeta(2))


def test_rational_cyclotomic_q_is_stored_as_fraction():
    half = Fraction(1, 2)
    at5 = SeriesParams(4, CycloNumber.from_rational(5, half))
    assert type(at5.q) is Fraction and at5 == SeriesParams(4, half)
    zbar.cache_clear()
    assert type(zbar((2,), at5)) is Fraction
    # a value cached under an order-5 q must not reach a caller in Q(zeta_7)
    at7 = SeriesParams(4, CycloNumber.from_rational(7, half))
    got = zbar((2,), at7)
    assert type(got) is Fraction
    assert Ref.zeta(7) + got == CycloNumber(7, [Fraction(1150, 441), 1])


def test_root_of_unity_check_and_its_message():
    # q = zeta_N^b: q^m = 1 for some 1 <= m < n exactly when its period
    # N/gcd(N, b) is below n, and the message names that period
    with pytest.raises(InvalidQ, match="^q\\^3 = 1 with n = 4$"):
        SeriesParams(4, CycloNumber.zeta_power(9, 6))
    assert SeriesParams(3, CycloNumber.zeta_power(9, 6)).root == (9, 6)
    for q in (CycloNumber.zeta(5), CycloNumber.zeta_power(7, 3)):
        order = q.order
        with pytest.raises(InvalidQ, match=f"^q\\^{order} = 1 with n = 8$"):
            SeriesParams(8, q)
        assert SeriesParams(order, q).n == order
    with pytest.raises(InvalidQ, match="^truncation length must be a positive int, got 0$"):
        zeta_params(0)
    with pytest.raises(InvalidQ, match="^truncation length must be a positive int, got -1$"):
        zeta_params(-1)


def test_the_root_is_recognised_once_and_keys_the_params():
    # a CycloNumber q is a root zeta_N^b, read once into the key (n, (N, b))
    zp = zeta_params(9)
    assert zp.root == (9, 1) and zp._key == (9, (9, 1))
    squared = SeriesParams(9, CycloNumber.zeta_power(9, 2))
    assert squared.root == (9, 2) and squared != zp and hash(squared) != hash(zp)
    assert SeriesParams(9, CycloNumber.zeta_power(9, -7)) == squared
    assert SeriesParams(3, Fraction(1, 2)).root is None
    # q = zeta_2 = -1 is rational, stored as a Fraction
    assert zeta_params(2).root is None and zeta_params(2).q == -1
    # at an even order, -zeta_N^b is the root zeta_N^(b + N/2)
    assert SeriesParams(3, (-Ref.zeta(6)).value).root == (6, 4)
    same = SeriesParams(9, CycloNumber(9, [0, 1]))
    assert same == zp and hash(same) == hash(zp) and repr(same) == repr(zp)
    # any other cyclotomic q is refused, with one line: -zeta_N^b at odd N,
    # and non-roots such as 1 + zeta_5
    for q in ((-Ref.zeta(5)).value, (1 + Ref.zeta(5)).value, (Ref.zeta(5) / 2).value):
        with pytest.raises(InvalidQ, match=r"^q must be a rational or a power of zeta_5, "
                                           r"got CycloNumber\(5; [^\n]*\)$"):
            SeriesParams(2, q)


def test_root_recognition_reads_the_reduction_table(monkeypatch):
    # zeta_N^b is the unit vector e_b below phi(N) and a row of the order's
    # reduction table from phi(N) up, so recognising q reduces nothing and
    # sums no zeta-powers
    q = CycloNumber.zeta_power(1155, 1153)
    others = [CycloNumber(1155, [0] * 1153 + [c]) for c in (-1, 2, Fraction(1, 2))]
    others.append(CycloNumber(1155, [0] * 700 + [1, 1]))
    calls = []
    for name in ("_reduce", "_zeta_sum"):
        monkeypatch.setattr(exact, name, lambda *args, name=name: calls.append(name))
    assert SeriesParams(3, q).root == (1155, 1153)
    for x in others:
        with pytest.raises(InvalidQ, match=r"^q must be a rational or a power of zeta_1155"):
            SeriesParams(2, x)
    assert calls == []
    monkeypatch.undo()
    # every power of a small order is read back as itself
    for order in range(3, 31):
        for b in range(order):
            x = CycloNumber.zeta_power(order, b)
            if x.as_rational() is None:
                assert SeriesParams(1, x).root == (order, b)


def test_cyclotomic_polynomial_is_built_once_per_order_on_a_table_miss():
    # phi(N) is read off the primes of N, so a cold pass at zeta_12 builds
    # Phi_12 once, when the reduction table misses, and no other
    # cyclotomic polynomial
    for mod in (exact, qseries):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    exact._REDUCTION_TERMS.clear()
    params = zeta_params(12)
    zbar_t((1, 2, 1), params)
    z_t((2, 1), params)
    L_poly((1, 2), params, "interp")
    g_sum(HeightProfile(3, 2, ()), params)
    info = exact.cyclotomic_polynomial.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    assert list(exact._REDUCTION_TERMS) == [12]
    assert not hasattr(exact, "_poly_div_exact_int")


@lru_cache(maxsize=None)
def _reference_factor(params, kind, k, m):
    """The summand by its definition, with the reference's powers and
    inverses: a Fraction, or a cyclo_reference.Ref."""
    q = lift(params.q)
    inv = 1 / (1 - q ** m)
    if kind == "L":
        return inv ** k
    if kind == "z":
        inv = 1 / ((1 - q ** m) / (1 - q))
    return q ** ((k - 1) * m) * inv ** k


def _reference_literal_sum(parts, params, kind, strict):
    """The definition as a scalar loop: the product of the summands summed
    over decreasing tuples, one Fraction or reference element per term."""
    pool, l = range(1, params.n), len(parts)
    tuples = combinations(pool, l) if strict else combinations_with_replacement(pool, l)
    total = Fraction(0)
    for ascending in tuples:
        term = Fraction(1)
        for k, m in zip(parts, reversed(ascending)):
            term = term * _reference_factor(params, kind, k, m)
        total = total + term
    return value(total)


@pytest.mark.parametrize("params", [
    *(pytest.param(zeta_params(n), id=str(n)) for n in range(2, 17)),
    pytest.param(SeriesParams(9, Fraction(-5, 7)), id="rational"),
    pytest.param(SeriesParams(7, CycloNumber.zeta_power(7, 3)), id="zeta7-cubed"),
    pytest.param(SeriesParams(9, CycloNumber.zeta_power(9, 2)), id="zeta9-squared"),
    pytest.param(SeriesParams(12, CycloNumber.zeta_power(12, 5)), id="zeta12-fifth"),
    pytest.param(SeriesParams(10, CycloNumber.zeta_power(10, 3)), id="zeta10-cubed"),
    pytest.param(SeriesParams(15, CycloNumber.zeta_power(15, 4)), id="zeta15-fourth"),
    pytest.param(SeriesParams(6, CycloNumber.zeta_power(12, 2)), id="zeta12-squared-order6"),
])
def test_summand_table_matches_its_definition(params):
    # every entry column[m - 1] / d of the numerator table against the
    # summand by its definition, at q = zeta_n (closed forms, rotations,
    # Galois conjugates and units), at a rational q and at CycloNumber q that
    # are not the generator, including q = zeta_12^2 of order 6, where the
    # m prime to the order of q and the m prime to N differ
    _clear_caches()
    ring = NumeratorRing(qseries._order(params))
    for kind, ks in (("zbar", range(5)), ("z", range(1, 5)), ("L", range(1, 5))):
        for k in ks:
            den, column = qseries._factor(params, kind, k)
            assert len(column) == params.n - 1
            for m, v in enumerate(column, 1):
                assert ring.scalar(v, den) == _reference_factor(params, kind, k, m), (kind, k, m)
    # one cached column serves 1/(1 - q^m) to both tables
    assert qseries._factor(params, "L", 1) is qseries._factor(params, "zbar", 1)


def test_q_integer_inverses_at_roots_are_units():
    # at q = zeta_N^b of order P, the "z" part-1 entry at every m prime to P
    # is a unit: times [m]_q = 1 + q + ... + q^(m-1), in the reference, it
    # is 1 (the table test checks the same entries inside the column)
    for order in range(3, 41):
        for b in range(1, order):
            period = order // gcd(order, b)
            if period < 3:  # q = -1 is rational
                continue
            params = SeriesParams(period, CycloNumber.zeta_power(order, b))
            units = qseries._q_integer_units(params)
            assert sorted(units) == [m for m in range(1, period) if gcd(m, period) == 1]
            for m, unit in units.items():
                slots = [0] * order
                for i in range(m):
                    slots[b * i % order] += 1
                assert Ref(order, unit) * Ref(order, slots) == 1, (order, b, m)
    assert qseries._q_integer_units(SeriesParams(5, Fraction(1, 2))) == {}


@pytest.mark.parametrize("params", [zeta_params(7), SeriesParams(6, Fraction(2, 3)),
                                    SeriesParams(7, CycloNumber.zeta_power(7, 3))],
                         ids=["zeta7", "two-thirds", "zeta7-cubed"])
def test_literal_sums_match_the_scalar_loop(params):
    # the literal sums run on numerator columns; the reference multiplies
    # and adds one scalar per summand, as the definition reads
    _clear_caches()
    for parts in [(0,)] + [c for w in range(1, 6) for l in range(1, 4) for c in compositions(w, l)]:
        for fn, kind, strict in ((zbar, "zbar", True), (zbar_star, "zbar", False),
                                 (z, "z", True), (z_star, "z", False)):
            if parts == (0,) and kind == "z":
                continue
            assert fn(parts, params) == _reference_literal_sum(parts, params, kind, strict), \
                (fn.__name__, parts)
    for fn in (zbar, zbar_star, z, z_star):  # the empty product, rational at every q
        empty = fn((), params)
        assert empty == 1 and type(empty) is Fraction, fn.__name__


def _counting(monkeypatch, name):
    calls = []
    original = getattr(CycloNumber, name)

    def spy(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(CycloNumber, name, spy)
    return calls


def test_sums_at_the_root_read_the_closed_forms(monkeypatch):
    inverses = _counting(monkeypatch, "inverse")
    products = _counting(monkeypatch, "__mul__")
    norms = []
    original = exact._numerator_inverse

    def norm_spy(order, num, den):
        norms.append(order)
        return original(order, num, den)

    monkeypatch.setattr(exact, "_numerator_inverse", norm_spy)
    zeta_params(12)
    assert products == []
    params = zeta_params(11)
    # the summand columns are closed forms, rotations and Galois conjugates
    # of numerator lists, and both the recursion and the literal sum multiply
    # numerator lists, so zbar_t and zbar make no CycloNumber arithmetic and
    # no inverse at all
    for fn in (zbar_t, zbar):
        _clear_caches()
        fn((1, 2, 1), params)
        assert (inverses, products, norms) == ([], [], []), fn.__name__
    # at m prime to the order of q, 1/[m]_q is a unit, a sum of q-powers: z
    # makes no norm there and reads no zbar entry, so z = (1 - q)^w zbar
    # stays a check of two computations
    closed, quotients = [], []
    closed_form, quotient = exact._one_minus_zeta_power_inverse, qseries._one_minus_qpow
    monkeypatch.setattr(qseries, "_one_minus_zeta_power_inverse",
                        lambda *args: closed.append(args) or closed_form(*args))
    monkeypatch.setattr(qseries, "_one_minus_qpow",
                        lambda p, e: quotients.append(e) or quotient(p, e))
    _clear_caches()
    z_t((1, 2, 1), params)
    assert (norms, closed, quotients, inverses, products) == ([], [], [], [], [])
    # the other m keep the generic inverse of the quotient (1 - q^m)/(1 - q),
    # one Galois norm each: m = 2, 3, 4, 6, 8, 9, 10 at zeta_12
    _clear_caches()
    z_t((1, 2, 1), zeta_params(12))
    assert len(norms) == 7 and quotients == [2, 3, 4, 6, 8, 9, 10]
    assert (inverses, products) == ([], [])


def test_root_columns_build_no_scalar(monkeypatch):
    # at q = zeta_12 the part-0 column is one _zeta_sum slot per m, and the
    # "z" part-1 inverses at the m not prime to 12 stay numerators over
    # their norms, so the one CycloNumber built is the value zbar((0,))
    # returns, and z_t, a TPoly, builds none
    made = []
    original = exact._make
    monkeypatch.setattr(exact, "_make", lambda *args: made.append(args[0]) or original(*args))
    params = zeta_params(12)
    _clear_caches()
    zbar((0,), params)
    assert made == [12]
    made.clear()
    _clear_caches()
    z_t((1, 2, 1), params)
    assert made == []


def _times(order, x, y):
    """x * y for coefficient lists, by the reference's reduction."""
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, c in enumerate(y, i):
                out[j] += a * c
    return reduce_mod(order, out)


def test_summand_columns_at_every_root_satisfy_their_definition():
    # every column of the summand table at q = zeta_N^b, for N <= 30 and
    # every b, n the order P of q up to 7 (so m = 2, 3, 4, 6 are not prime
    # to a composite P), against its definition multiplied out with the
    # reference's reduction: f_0(m) = q^(-m), and f_k(m) * D^k =
    # q^((k-1)m) with D = 1 - q^m for "zbar", D = [m]_q for "z", and
    # f_k(m) * (1 - q^m)^k = 1 for "L".  The check multiplies only: a
    # reference inverse solves a phi x phi system over the Fractions, too
    # slow for this many entries, so `_reference_factor` serves the smaller
    # table test above.
    for order in range(3, 31):
        for b in range(1, order):
            period = order // gcd(order, b)
            if period < 3:  # q = -1 is rational
                continue
            params = SeriesParams(min(period, 7), CycloNumber.zeta_power(order, b))
            power = [reduce_mod(order, [0] * (b * e % order) + [1]) for e in range(order)]
            for m in range(1, params.n):
                one_minus = [int(i == 0) - c for i, c in enumerate(power[m])]
                q_integer = [sum(cs) for cs in zip(*power[:m])]
                for kind, base in (("zbar", one_minus), ("z", q_integer), ("L", one_minus)):
                    den, column = qseries._factor(params, kind, 0)
                    assert list(column[m - 1]) == [den * c for c in power[-m % order]]
                    lhs = [1]
                    for k in range(1, 5):
                        lhs = _times(order, lhs, base)
                        den, column = qseries._factor(params, kind, k)
                        want = power[0] if kind == "L" else power[(k - 1) * m % order]
                        assert _times(order, column[m - 1], lhs) == [den * c for c in want], \
                            (order, b, kind, k, m)


def test_depth_one_spots():
    assert zbar((1,), SeriesParams(2, Fraction(1, 2))) == 2
    # n=3, q=1/2: 1/(1-1/2) + 1/(1-1/4) = 2 + 4/3
    assert zbar((1,), SeriesParams(3, Fraction(1, 2))) == Fraction(10, 3)
    assert scalar_eq(zbar((1,), zeta_params(3)), Fraction(1))
    assert scalar_eq(zbar((2,), zeta_params(3)), Fraction(-2, 3))


def test_empty_index_is_one():
    assert zbar((), HALF) == 1
    assert zbar_star((), HALF) == 1
    assert zbar_t((), HALF) == TPoly.one()


def test_weight_zero_depth_one_convention():
    # the literal sum of q^(-m) collapses to -1 at a primitive root
    for n in (2, 3, 5):
        assert scalar_eq(zbar((0,), zeta_params(n)), Fraction(-1))


def test_depth_one_stuffle():
    # the diagonal splits into two depth-one terms, one a full merge and one
    # dropping a unit of weight: the same two letters the interpolation uses
    for a in (1, 2):
        for b in (1, 3):
            lhs = zbar((a,), HALF) * zbar((b,), HALF)
            rhs = (zbar((a, b), HALF) + zbar((b, a), HALF)
                   + zbar((a + b,), HALF) + zbar((a + b - 1,), HALF))
            assert scalar_eq(lhs, rhs)


def test_star_inclusion_exclusion():
    for parts in [(1, 1), (2, 1), (2, 2)]:
        a, b = parts
        lhs = zbar_star(parts, HALF)
        rhs = (zbar(parts, HALF) + zbar((a + b,), HALF)
               + zbar((a + b - 1,), HALF))
        assert scalar_eq(lhs, rhs)


def test_q_integer_scaling():
    rng = random.Random(2)
    for _ in range(10):
        parts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        w = sum(parts)
        scale = (1 - HALF.q) ** w
        assert scalar_eq(z(parts, HALF), scale * zbar(parts, HALF))
        assert scalar_eq(z_star(parts, HALF), scale * zbar_star(parts, HALF))


def test_interpolation_endpoints():
    rng = random.Random(4)
    for _ in range(8):
        parts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        tp = zbar_t(parts, HALF)
        assert scalar_eq(tp.eval(Fraction(0)), zbar(parts, HALF))
        assert scalar_eq(tp.eval(Fraction(1)), zbar_star(parts, HALF))
        tz = z_t(parts, HALF)
        assert scalar_eq(tz.eval(Fraction(0)), z(parts, HALF))
        assert scalar_eq(tz.eval(Fraction(1)), z_star(parts, HALF))


@lru_cache(maxsize=None)
def _literal_summand(q, k, m):
    """1/(1 - q^m)^k by the reference's powers and inverse, kept across calls."""
    return (1 - lift(q) ** m) ** -k


def _literal_L(parts, sp, strict):
    """Sum of z^(m_1) / prod (1 - q^(m_i))^(k_i) over decreasing tuples."""
    pool = range(1, sp.n)
    combos = combinations(pool, len(parts)) if strict else \
        combinations_with_replacement(pool, len(parts))
    acc = {}
    for combo in combos:
        ms = combo[::-1]
        term = Fraction(1)
        for k, m in zip(parts, ms):
            term = term * _literal_summand(sp.q, k, m)
        top = ms[0] if ms else 0
        acc[top] = acc.get(top, 0) + term
    return ZPoly({e: value(c) for e, c in acc.items()})


def _L_at(lp, t):
    """The z-polynomial with each t-polynomial coefficient evaluated at t."""
    return ZPoly({e: c.eval(Fraction(t)) for e, c in lp.coeffs.items()})


def _two_letter_patterns(parts):
    """The comma/plus box fillings of the index: (contraction, t-exponent)
    pairs, 2^(l-1) of them; the expansion of the L_poly interpolation."""
    if not parts:
        return [((), 0)]
    words = product((COMMA, PLUS), repeat=len(parts) - 1)
    return [(c, len(parts) - len(c)) for c in (contract(parts, boxes) for boxes in words)]


def test_prefix_sums_match_box_filling_expansion():
    # the interpolated sums against the 3^(l-1) / 2^(l-1) box-filling
    # expansion over the literal definitions, on a seeded grid of n, q, index
    rng = random.Random(20261017)
    rationals = (Fraction(1, 2), Fraction(-3), Fraction(5, 7), Fraction(2))
    t = TPoly.t()
    for i in range(40):
        n = rng.randint(2, 9)
        q = CycloNumber.zeta(n) if i % 5 == 0 else rationals[i % 5 - 1]
        sp = SeriesParams(n, q)
        parts = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        zbar_exp, z_exp, L_exp = TPoly.zero(), TPoly.zero(), ZPoly.zero()
        for c, e in enumerate_patterns(parts):
            zbar_exp = zbar_exp + t ** e * zbar(c, sp)
            scale = (1 - lift(q)) ** (sum(parts) - sum(c))
            z_exp = z_exp + t ** e * value(scale * lift(z(c, sp)))
        for c, e in _two_letter_patterns(parts):
            L_exp = L_exp + _literal_L(c, sp, strict=True) * t ** e
        tag = (n, sp.q, parts)
        assert zbar_t(parts, sp) == zbar_exp, tag
        assert z_t(parts, sp) == z_exp, tag
        lp = L_poly(parts, sp, "interp")
        assert lp == L_exp, tag
        # t = 0 is the strict sum and t = 1 the star sum
        assert _L_at(lp, 0) == _literal_L(parts, sp, strict=True), tag
        assert _L_at(lp, 1) == _literal_L(parts, sp, strict=False), tag


WEIGHT_5_DEPTH_4 = [parts for w in range(1, 6) for l in range(1, 5)
                   for parts in compositions(w, l)]


@pytest.mark.parametrize("n, q", [
    *((n, Fraction(q)) for q in ("1/2", "-3", "5/7") for n in (2, 3, 6, 9, 12)),
    *((N, CycloNumber.zeta(N)) for N in range(5, 13)),
    (7, CycloNumber.zeta_power(7, 3)),
], ids=str)
def test_interpolated_sums_match_the_literal_sums(n, q):
    # the integer t-layers at t = 0 and t = 1 against the literal nested
    # sums, on every index of weight <= 5 and depth <= 4; 5/7 gives
    # denominators of hundreds of digits, zeta_7^3 is a CycloNumber q that
    # is not the generator
    sp = SeriesParams(n, q)
    for parts in WEIGHT_5_DEPTH_4:
        tp, tz, lp = zbar_t(parts, sp), z_t(parts, sp), L_poly(parts, sp)
        assert tp.eval(Fraction(0)) == zbar(parts, sp), parts
        assert tp.eval(Fraction(1)) == zbar_star(parts, sp), parts
        assert tz.eval(Fraction(0)) == z(parts, sp), parts
        assert tz.eval(Fraction(1)) == z_star(parts, sp), parts
        assert _L_at(lp, 0) == _literal_L(parts, sp, strict=True), parts
        assert _L_at(lp, 1) == _literal_L(parts, sp, strict=False), parts


def test_interpolated_sums_reject_nonpositive_parts():
    for fn in (zbar_t, z_t):
        with pytest.raises(ValueError):
            fn((2, 0), HALF)
        with pytest.raises(ValueError):
            fn((0,), HALF)
    with pytest.raises(ValueError):
        z_t_float((3, -1), 5, 0.5)


def test_L_poly_has_only_the_interpolated_variant():
    assert L_poly((2, 1), HALF) == L_poly((2, 1), HALF, "interp")
    for variant in ("plain", "star", "t"):
        with pytest.raises(ValueError, match=f"unknown variant '{variant}'"):
            L_poly((2, 1), HALF, variant)


def test_interpolated_spot_value():
    got = zbar_t((1, 1), zeta_params(3))
    assert got.rationalized() == TPoly({0: Fraction(1, 3), 1: Fraction(1, 3)})


def test_g_sum_matches_enumeration():
    for profile in [HeightProfile(3, 2, (1,)), HeightProfile(5, 2, (2, 1)),
                    HeightProfile(2, 2), HeightProfile(0, 0)]:
        total = TPoly.zero()
        for parts in enumerate_indices(profile):
            total = total + zbar_t(parts, HALF)
        assert g_sum(profile, HALF) == total


def test_g_sum_respects_head_bound():
    profile = HeightProfile(5, 2, (2, 1), 1)
    total = TPoly.zero()
    for parts in enumerate_indices(profile):
        assert parts[0] >= 3
        total = total + zbar_t(parts, HALF)
    assert g_sum(profile, HALF) == total


def _random_scalar(rng, order):
    """A random element of Q (order None) or of Q(zeta_order), order prime;
    zero about one time in ten."""
    if rng.random() < 0.1:
        return Fraction(0) if order is None else CycloNumber(order, [0])
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
              for _ in range(1 if order is None else order - 1)]
    return coeffs[0] if order is None else CycloNumber(order, coeffs)


@pytest.mark.parametrize("order", [None, 5, 7], ids=["rational", "zeta5", "zeta7"])
def test_t_step_as_shift_matches_tpoly_product(order):
    # _layer_step weights an equality by t by reading the t-layer one power
    # lower; the reference multiplies by the TPoly t, starting from level-one
    # vectors of bare scalars and stepping up through t-polynomial vectors
    rng = random.Random(20261018 + (order or 0))
    t = TPoly.t()
    ring = NumeratorRing(order)
    for _ in range(25):
        n = rng.randint(2, 8)
        table = {(k, m): _random_scalar(rng, order) for k in (1, 2, 3) for m in range(1, n)}
        below = [_random_scalar(rng, order) for _ in range(1, n)]
        den, layer = ring.column(below)
        layers = (layer,)
        for _ in range(3):
            k = rng.randint(1, 3)
            column_den, column = ring.column([table[k, m] for m in range(1, n)])
            layers, den = qseries._layer_step(column, layers, ring), den * column_den
            got = [TPoly._from_numerators(order, den, dict(enumerate(coeffs)))
                   for coeffs in zip(*layers)]
            running, want = TPoly.zero(), []
            for m, value in enumerate(below, 1):
                want.append(table[k, m] * (running + t * value))
                running = running + value
            assert [p.to_json() for p in got] == [p.to_json() for p in want]
            below = want


def test_zpoly_arithmetic():
    a = ZPoly({1: TPoly.one(), 2: TPoly.t()})
    b = ZPoly({0: TPoly.const(Fraction(2))})
    assert (a * b).coeffs[1] == TPoly.const(Fraction(2))
    assert (a + a).coeffs[2] == TPoly.t() * 2
    assert a.eval_z_one() == TPoly.one() + TPoly.t()
    assert a.shift(2) == ZPoly({3: TPoly.one(), 4: TPoly.t()})


# -- ZPoly forms against the per-coefficient TPoly loop -----------------------
#
# The reference keeps a z-polynomial as {z-power: TPoly} and runs every
# operation one TPoly at a time, each TPoly in its own lowest terms; its
# eigenvalues 1 - q^e come from the Ref model of Q(zeta_N), not from
# qseries._one_minus_qpow.

def ref_zsum(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        c = out.get(e, TPoly.zero()) + (c if sign == 1 else -c)
        if c.is_zero():
            out.pop(e, None)
        else:
            out[e] = c
    return out


def ref_zmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = ref_zsum(out, {e1 + e2: c1 * c2})
    return out


def ref_theta(a, q):
    out = {e: c * TPoly.const(value(1 - lift(q) ** e)) for e, c in a.items()}
    return {e: c for e, c in out.items() if c}


def ref_first_mismatch(a, b):
    zero = TPoly.zero()
    differ = [e for e in a.keys() | b.keys() if a.get(e, zero) != b.get(e, zero)]
    if not differ:
        return None
    e = min(differ)
    return e, a.get(e, zero), b.get(e, zero)


def assert_zpoly_is(got, ref):
    """got has the reference's TPolys, their JSON and its form."""
    assert got.coeffs == ref
    assert got.to_json() == {f"z^{e}": c.to_json() for e, c in sorted(ref.items())}
    assert got == ZPoly(ref)


# field: (the order of the zeta-parts, None at Q; the q of theta_q, one
# rational and one root, so a form at Q meets a root and a form at an order
# meets a rational eigenvalue)
ZPOLY_FIELDS = {
    "Q": (None, (Fraction(-2, 3), CycloNumber.zeta_power(7, 3))),
    "zeta5": (5, (Fraction(3), CycloNumber.zeta_power(5, 2))),
    "zeta12": (12, (Fraction(1, 2), CycloNumber.zeta_power(12, 5))),
}
RATIONALS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6))


def random_zref(rng, order, span=13):
    """{z-power: TPoly} over z^0..z^12, so the powers where q^e = 1 occur:
    about half the slots rational and, at an order, the rest with a
    zeta-part."""
    out = {}
    for e in range(span):
        if rng.random() < 0.4:
            pool = RATIONALS
            if order is not None and rng.random() < 0.5:
                pool = RATIONALS + tuple(CycloNumber.zeta_power(order, b) for b in (1, 3, 7))
            c = TPoly({k: rng.choice(pool) for k in range(3) if rng.random() < 0.6})
            if c:
                out[e] = c
    return out


def is_rational_tpoly(c):
    return all(isinstance(v, Fraction) for v in c.coeffs.values())


@pytest.mark.parametrize("field", sorted(ZPOLY_FIELDS))
def test_zpoly_forms_match_the_per_coefficient_loop(field):
    order, qs = ZPOLY_FIELDS[field]
    rng = random.Random(f"zpoly-forms:{field}")
    cancelled = mixed = 0
    for _ in range(25):
        da, db = random_zref(rng, order), random_zref(rng, order)
        for e, c in da.items():  # a + b cancels at some z-powers
            if rng.random() < 0.4:
                db[e] = -c
        a, b = ZPoly(da), ZPoly(db)
        total = ref_zsum(da, db)
        cancelled += len(da.keys() & db.keys() - total.keys())
        mixed += {is_rational_tpoly(c) for c in da.values()} == {True, False}
        assert_zpoly_is(a + b, total)
        assert_zpoly_is(a - b, ref_zsum(da, db, -1))
        assert_zpoly_is(-a, {e: -c for e, c in da.items()})
        assert_zpoly_is(a + ZPoly({e: -c for e, c in da.items()}), {})
        assert (a - a).is_zero() and a + (-a) == ZPoly.zero()
        assert_zpoly_is(a * b, ref_zmul(da, db))
        # a sum of many forms, a rational one first, so the others meet it
        # at their order
        dr = {1: TPoly.const(Fraction(1, 3)), 4: TPoly.t()}
        assert_zpoly_is(ZPoly.sum_of([ZPoly(dr), a, b, -a]), ref_zsum(dr, db))
        assert ZPoly.sum_of([a]) is a and ZPoly.sum_of([]) == ZPoly.zero()
        power = {0: TPoly.one()}
        for k in range(3):
            assert_zpoly_is(a ** k, power)
            power = ref_zmul(power, da)
        tp = TPoly({0: Fraction(2, 3), 1: rng.choice(RATIONALS)})
        for s in (Fraction(-5, 2), 0, tp) + ((CycloNumber.zeta(order),) if order else ()):
            factor = {0: s if isinstance(s, TPoly) else TPoly.const(s)}
            assert_zpoly_is(a * s, ref_zmul(da, factor))
            assert_zpoly_is(s * a, ref_zmul(da, factor))
        assert_zpoly_is(a.shift(3), {e + 3: c for e, c in da.items()})
        assert a.eval_z_one() == sum(da.values(), TPoly.zero())
        for q in qs:
            assert_zpoly_is(theta_q(a, SeriesParams(2, q)), ref_theta(da, q))
        assert a.first_mismatch(b) == ref_first_mismatch(da, db)
        assert a.first_mismatch(ZPoly(dict(da))) is None
    assert cancelled > 10
    assert mixed > 5 if order else mixed == 0


@pytest.mark.parametrize("params", [SeriesParams(6, Fraction(-3, 5)), zeta_params(5),
                                    SeriesParams(12, CycloNumber.zeta_power(12, 5))],
                         ids=["-3/5", "zeta5", "zeta12^5"])
def test_x_sum_is_the_sum_of_its_polylogarithms(params):
    # the one-reduction sum of the index set's forms against the sum of
    # their coefficients one TPoly at a time; a one-index profile shares
    # the L_poly value itself
    x_sum.cache_clear()  # so each sum reads the L_poly values cached now
    profiles = [p for k in range(1, 6) for l in range(k + 1) for h in ((), (1,), (2, 1))
                for j in (-1, 0, len(h) - 1)
                if (p := HeightProfile.try_make(k, l, h, j)) is not None]
    sizes = set()
    for profile in profiles:
        indices = list(enumerate_indices(profile))
        sizes.add(min(len(indices), 2))
        ref = {}
        for parts in indices:
            ref = ref_zsum(ref, L_poly(parts, params).coeffs)
        got = x_sum(profile, params)
        assert_zpoly_is(got, ref)
        if len(indices) == 1:
            assert got is L_poly(indices[0], params)
    assert sizes == {0, 1, 2}


def test_z_side_builds_no_tpoly(monkeypatch):
    # L_poly builds its form from the level layers, x_sum sums forms and
    # theta_q scales them: none of them makes a TPoly
    made = []
    from_form, init = TPoly._from_form.__func__, TPoly.__init__

    def spy_from_form(cls, *args):
        made.append(args)
        return from_form(cls, *args)

    def spy_init(self, *args):
        made.append(args)
        init(self, *args)

    _clear_caches()
    monkeypatch.setattr(TPoly, "_from_form", classmethod(spy_from_form))
    monkeypatch.setattr(TPoly, "__init__", spy_init)
    for params in (SeriesParams(5, Fraction(2, 3)), zeta_params(7)):
        for profile in (HeightProfile(4, 2, (1,), 0), HeightProfile(5, 3), HeightProfile(3, 1)):
            theta_q(x_sum(profile, params), params)
        theta_q(L_poly((2, 1, 1), params, "interp"), params)
    monkeypatch.undo()
    assert made == []


def test_L_recovers_zbar_at_q_power():
    # the polylog numerator is z^(m1) alone, so substituting z = q^(k1-1)
    # recovers the harmonic sum whenever no inner part exceeds one; t = 0
    # keeps the strict sum
    for parts in [(2,), (3, 1), (3, 1, 1)]:
        lp = L_poly(parts, HALF, "interp")
        val = Fraction(0)
        qpow = HALF.q ** (parts[0] - 1)
        for e, c in lp.coeffs.items():
            val = val + c.eval(Fraction(0)) * qpow ** e
        assert scalar_eq(val, zbar(parts, HALF))


def test_L_star_diagonal_merge():
    # non-strict inner level (t = 1) = strict (t = 0) plus the merged diagonal
    lhs = _L_at(L_poly((1, 1), HALF, "interp"), 1)
    rhs = _L_at(L_poly((1, 1), HALF, "interp"), 0) + _L_at(L_poly((2,), HALF, "interp"), 0)
    assert lhs == rhs


def test_L_degree_bound():
    lp = L_poly((2, 1), HALF, "interp")
    assert all(1 <= e <= HALF.n - 1 for e in lp.coeffs)


def test_theta_is_diagonal():
    lp = L_poly((2, 1), HALF, "interp")
    assert any(c.degree() >= 1 for c in lp.coeffs.values())
    out = theta_q(lp, HALF)
    for e, c in lp.coeffs.items():
        expect = c * TPoly.const(1 - HALF.q ** e)
        assert out.coeffs.get(e, TPoly.zero()) == expect


def test_x_sum_conventions():
    # empty profile with head bound -1 contributes the constant 1
    assert x_sum_or_zero(0, 0, (), -1, HALF) == ZPoly({0: TPoly.one()})
    # shape violations read as the empty sum
    assert x_sum_or_zero(1, 2, (), -1, HALF).is_zero()
    # head-bounded x_sum only sees indices with k1 >= j+2
    got = x_sum(HeightProfile(5, 2, (2, 1), 0), HALF)
    assert not got.is_zero()


def test_float_matches_exact_embedding():
    for n in (3, 5, 8):
        for parts in [(1,), (2, 1)]:
            exact = z(parts, zeta_params(n))
            emb = complex(0)
            zeta_c = cmath.exp(2j * cmath.pi / n)
            coeffs = exact.coeffs if isinstance(exact, CycloNumber) else None
            if coeffs is None:
                emb = complex(Fraction(exact))
            else:
                for e, c in enumerate(coeffs):
                    emb += float(c) * zeta_c ** e
            assert abs(z_t_float(parts, n, 0.0) - emb) < 1e-9


def test_z_t_float_blends_linearly():
    # depth 2: one comma box, so the value is affine in t
    v0 = z_t_float((1, 1), 7, 0.0)
    v1 = z_t_float((1, 1), 7, 1.0)
    vh = z_t_float((1, 1), 7, 0.5)
    assert abs(vh - (v0 + v1) / 2) < 1e-12


def test_rationality_of_profile_sums_at_primitive_root():
    # individual indices may be irrational; full profile sums are not
    for n in (2, 3, 4, 5):
        zp = zeta_params(n)
        for k in (1, 2):
            flag, _ = is_rational(zbar((k,), zp))
            assert flag
        for profile in [HeightProfile(3, 2, (1,)), HeightProfile(4, 2),
                        HeightProfile(4, 2, (2,))]:
            g_sum(profile, zp).rationalized()


def _clear_caches():
    for mod in (indices, qseries, genfun):
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def _history_values(n, q, clear_each=False, partway=None, every=None):
    """Every cached evaluator on the indices of weight <= 4, the profile sums
    of weight <= 4 and brute Psi, in an order where later indices reuse the
    tails of earlier ones."""
    params = SeriesParams(n, q)
    calls = []
    for k in range(1, 5):
        for l in range(1, k + 1):
            for parts in compositions(k, l):
                calls += [(fn, parts, params) for fn in (zbar, z, zbar_t, z_t)]
                calls.append((L_poly, parts, params, "interp"))
    calls += [(g_sum, HeightProfile(k, l), params) for k in range(5) for l in range(k + 1)]
    calls.append((psi_bruteforce, n, 1, q, 3))
    out = []
    for i, (fn, *args) in enumerate(calls):
        if clear_each:
            _clear_caches()
        elif partway and i % every == 0:
            partway.cache_clear()
        value = fn(*args)
        out.append(value.to_json() if hasattr(value, "to_json") else scalar_to_json(value))
    return out


@pytest.mark.parametrize("n, q, other_q", [
    (7, CycloNumber.zeta(7), CycloNumber.zeta_power(7, 3)),
    (6, Fraction(2, 3), Fraction(-3)),
], ids=["zeta7", "two-thirds"])
def test_results_do_not_depend_on_cache_history(n, q, other_q):
    fresh = _history_values(n, q, clear_each=True)
    _clear_caches()
    levels_partway = _history_values(n, q, partway=qseries._levels, every=5)
    _clear_caches()
    factor_partway = _history_values(n, q, partway=qseries._factor, every=3)
    # fill every cache at another q of the same n first
    _clear_caches()
    _history_values(n, other_q)
    prefilled = _history_values(n, q)
    assert levels_partway == fresh
    assert factor_partway == fresh
    assert prefilled == fresh


def test_large_parts_and_deep_indices_do_not_recurse():
    # the summand parts and the level sums ask for the parts below a part
    # and an index's tails smallest first, so neither recurses once per
    # part or per level: parts past about 490 and 900 ones used to raise
    # RecursionError
    _clear_caches()
    k = 1500
    half = Fraction(1, 2)
    want = sum(half ** ((k - 1) * m) / (1 - half ** m) ** k for m in (1, 2))
    assert zbar_t((k,), SeriesParams(3, half)) == TPoly.const(want)
    root = sum((Ref.zeta(3, (k - 1) * m) / (1 - Ref.zeta(3, m)) ** k for m in (1, 2)),
               Ref(3))
    assert zbar_t((k,), zeta_params(3)) == TPoly.const(value(root))
    # n = 2 sums over m_1 = ... = m_1200 = 1 alone: 1199 equalities, f_1(1) = 2
    assert zbar_t((1,) * 1200, SeriesParams(2, half)) == TPoly({1199: Fraction(2 ** 1200)})


def test_layer_steps_make_no_product_with_zero(monkeypatch):
    # The t^0 layer has no equality terms and the top layer no running sum,
    # and every layer is zero below its first reachable m: the stepping
    # multiplies none of those zeros.
    products = []
    original = exact._product

    def spy(order, x, y):
        products.append((list(x), list(y)))
        return original(order, x, y)

    _clear_caches()
    monkeypatch.setattr(exact, "_product", spy)
    params = zeta_params(7)
    got = zbar_t((2, 1, 1), params)
    assert products
    assert [pair for pair in products if not any(pair[0]) or not any(pair[1])] == []
    monkeypatch.undo()
    t = TPoly.t()
    want = TPoly.zero()
    for c, e in enumerate_patterns((2, 1, 1)):
        want = want + t ** e * zbar(c, params)
    assert got == want
