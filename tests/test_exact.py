import cmath
import copy
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

from qharmonic import exact
from qharmonic.exact import (
    CycloNumber,
    DivisionByZero,
    IrrationalCoefficient,
    SparsePoly,
    TPoly,
    binomial,
    cyclotomic_polynomial,
    euler_phi,
    is_rational,
    parse_rational,
    render_rational,
    scalar_eq,
    scalar_from_json,
    scalar_to_json,
)
from qharmonic.genfun import poly_mismatch
from qharmonic.indices import HeightProfile
from qharmonic.qseries import SeriesParams, ZPoly, _qpow, zeta_params
from qharmonic.series import Series, SeriesRing

from cyclo_reference import Ref, lift, reduce_mod, value


def test_cyclotomic_polynomials():
    # coefficient tuples are low-to-high degree
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def _times(a, b):
    """The schoolbook product of two int coefficient lists, lowest power first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    # x^N - 1 is the product of Phi_d over the divisors d of N, and phi(N) is
    # the number of units mod N; both written here, apart from the package
    for n in range(1, 301):
        total = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                total = _times(total, cyclotomic_polynomial(d))
        assert total == [-1] + [0] * (n - 1) + [1]
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n) \
            == sum(gcd(k, n) == 1 for k in range(1, n + 1))
    # the first cyclotomic polynomial with a coefficient outside {-1, 0, 1}
    phi105 = cyclotomic_polynomial(105)
    assert phi105[7] == phi105[41] == -2
    assert sorted({c for c in phi105}) == [-2, -1, 0, 1]


@pytest.mark.parametrize("order", (0, -1, -12))
def test_orders_below_one_are_refused(order):
    with pytest.raises(ValueError):
        cyclotomic_polynomial(order)
    with pytest.raises(ValueError):
        euler_phi(order)
    with pytest.raises(ValueError):
        CycloNumber(order, [1])


def test_zeta_powers_cycle():
    for n in (2, 3, 4, 5, 6, 12):
        one = CycloNumber.from_rational(n, Fraction(1))
        assert CycloNumber.zeta_power(n, n) == one
        assert CycloNumber.zeta_power(n, n + 3) == CycloNumber.zeta_power(n, 3) \
            == Ref.zeta(n) ** 3
        # all proper powers differ from 1
        for m in range(1, n):
            assert CycloNumber.zeta_power(n, m) != one


def test_geometric_sum_vanishes():
    for n in (3, 4, 5, 7):
        total = Ref(n)
        for m in range(n):
            total = total + CycloNumber.zeta_power(n, m)
        flag, rational = is_rational(total.value)
        assert flag and rational == 0


def test_cyclo_inverse_random():
    rng = random.Random(7)
    for n in (3, 4, 5, 8):
        for _ in range(20):
            a = CycloNumber(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                               for _ in range(euler_phi(n))])
            if a == CycloNumber.from_rational(n, Fraction(0)):
                continue
            assert a * a.inverse() == CycloNumber.from_rational(n, Fraction(1))


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        CycloNumber.from_rational(5, Fraction(0)).inverse()


def test_one_minus_zeta_inverse():
    # 1/(1-zeta_3) = (2+zeta_3)/3
    one_minus = (1 - Ref.zeta(3)).value
    inv = one_minus.inverse()
    assert inv * one_minus == CycloNumber.from_rational(3, Fraction(1))
    assert inv == (2 + Ref.zeta(3)) * Fraction(1, 3)


def test_mixed_scalar_ops():
    # a CycloNumber multiplies only a CycloNumber of its order; sums and
    # scalar factors are the reference's (and the kernels') business
    zeta = CycloNumber.zeta(5)
    assert scalar_eq(zeta * CycloNumber.from_rational(5, 0), Fraction(0))
    assert scalar_eq((Fraction(2) + lift(zeta) - zeta).value, Fraction(2))
    assert scalar_eq(_qpow(SeriesParams(2, Fraction(2, 3)), -2), Fraction(9, 4))
    assert scalar_eq(CycloNumber.zeta_power(5, 0), Fraction(1))
    for other in (Fraction(2), 3, CycloNumber.zeta(7)):
        with pytest.raises(TypeError):
            zeta * other
        with pytest.raises(TypeError):
            other * zeta
    for name in ("__add__", "__sub__", "__neg__", "__truediv__", "__pow__"):
        assert not hasattr(CycloNumber, name)


def test_rational_round_trip():
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational("4") == Fraction(4)
    assert render_rational(Fraction(10, 4)) == "5/2"
    assert render_rational(Fraction(-2)) == "-2"


def test_long_rationals_pass_the_int_string_limit():
    # str(int) and int(str) refuse more than sys.get_int_max_str_digits()
    # digits (Python 3.10.7 on); rendering and parsing must not
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        for value in (Fraction(3 ** 20000, 7), Fraction(-(10 ** 5000) - 1),
                      Fraction(-1, 2 ** 20000), Fraction(10 ** 4299, 3)):
            text = render_rational(value)
            p, _, q = text.partition("/")
            assert p == str(Decimal(value.numerator))
            assert q == ("" if value.denominator == 1 else str(Decimal(value.denominator)))
            assert parse_rational(text) == value
            x = CycloNumber(5, [value, 1])
            assert scalar_from_json(scalar_to_json(x)) == x
        assert parse_rational(" -0012/0400 ") == Fraction(-3, 100)
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("1" * 5000 + "/000")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_scalar_json_round_trip():
    samples = [Fraction(3, 4), Fraction(-2),
               CycloNumber.zeta(5), (Ref.zeta(3) * Fraction(1, 6) + Fraction(2)).value]
    for s in samples:
        assert scalar_eq(scalar_from_json(scalar_to_json(s)), s)


def test_rational_valued_cyclo_collapses_in_json():
    zeta = CycloNumber.zeta(4)
    val = zeta * zeta  # equals -1
    assert scalar_to_json(val) == "-1"


def test_tpoly_arithmetic():
    t = TPoly.t()
    p = (t + 1) * (t - 1)
    assert p == TPoly({2: Fraction(1), 0: Fraction(-1)})
    assert p.eval(Fraction(3)) == 8
    assert p.degree() == 2
    assert (p - p).is_zero()


def test_tpoly_affine_substitution():
    # t -> a*t + b acts on a series' coefficients (Series.affine_t); here on
    # a constant series, whose constant term is the substituted TPoly
    ring = SeriesRing(("x",), 1)
    t = TPoly.t()
    p = t * t + t * 2 + 1
    # t -> 1 - t
    q = ring.scalar(p).affine_t(-1, 1)
    assert q.constant_term().eval(Fraction(1, 3)) == p.eval(Fraction(2, 3))
    # involution
    assert q.affine_t(-1, 1).constant_term() == p


def test_tpoly_rationalized_guards():
    zeta = CycloNumber.zeta(3)
    ok = TPoly({0: (lift(zeta) * Fraction(0) + Fraction(1, 2)).value})
    assert ok.rationalized() == TPoly({0: Fraction(1, 2)})
    bad = TPoly({1: zeta})
    with pytest.raises(IrrationalCoefficient):
        bad.rationalized()


def test_tpoly_json_key_order():
    p = TPoly({0: Fraction(1, 3), 1: Fraction(1, 3)})
    assert list(p.to_json()) == ["t^0", "t^1"]
    assert TPoly.from_json(p.to_json()) == p


def test_binomial_outside_triangle():
    assert binomial(5, 2) == 10
    assert binomial(5, -1) == 0
    assert binomial(3, 7) == 0
    assert binomial(0, 0) == 1


# -- the shared sparse core against plain dict loops --------------------------
#
# A TPoly is modelled as {t-exponent: scalar} and a ZPoly as
# {z-exponent: {t-exponent: scalar}}; the loops below know nothing of the
# package's kernels.

def is_zero_value(c):
    return not c


def scalar_add(a, b):
    return value(lift(a) + lift(b))


def scalar_mul(a, b):
    return value(lift(a) * lift(b))


def ref_add(a, b, cadd=scalar_add):
    out = dict(a)
    for e, c in b.items():
        s = cadd(out[e], c) if e in out else c
        if is_zero_value(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def ref_mul(a, b, cadd=scalar_add, cmul=scalar_mul):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = ref_add(out, {e1 + e2: cmul(c1, c2)}, cadd)
    return out


def ref_neg(a):
    return {e: value(-lift(c)) for e, c in a.items()}


def as_tdict(tp):
    return dict(tp.coeffs)


def zpoly(d):
    return ZPoly({e: TPoly(c) for e, c in d.items()})


def as_zdict(zp):
    return {e: dict(tp.coeffs) for e, tp in zp.coeffs.items()}


def ref_tjson(d):
    return {f"t^{e}": scalar_to_json(c) for e, c in sorted(d.items())}


def ref_zjson(d):
    return {f"z^{e}": ref_tjson(c) for e, c in sorted(d.items())}


Z5 = CycloNumber.zeta(5)
MINUS_Z5 = (-lift(Z5)).value
SCALAR_POOLS = {
    "Q": [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4)],
    "Q(zeta5)": [Fraction(1), Fraction(-1), Z5, MINUS_Z5, (lift(Z5) * Z5 + Fraction(1, 3)).value,
                 CycloNumber.from_rational(5, Fraction(1, 2))],
}


def random_tdict(rng, pool, span=4):
    return {e: rng.choice(pool) for e in range(span) if rng.random() < 0.7}


def random_zdict(rng, pool, span=4):
    out = {}
    for e in range(span):
        if rng.random() < 0.7:
            td = random_tdict(rng, pool, 3)
            if td:
                out[e] = td
    return out


def cancelling_partner(rng, d, neg, make):
    """A random value whose sum with d cancels at some exponents."""
    other = make()
    for e, c in d.items():
        if rng.random() < 0.5:
            other[e] = neg(c)
    return other


@pytest.mark.parametrize("field", sorted(SCALAR_POOLS))
def test_tpoly_core_matches_dict_loops(field):
    rng = random.Random(f"tpoly:{field}")
    pool = SCALAR_POOLS[field]
    cancelled = 0
    for _ in range(60):
        da = random_tdict(rng, pool)
        db = cancelling_partner(rng, da, lambda c: value(-lift(c)), lambda: random_tdict(rng, pool))
        a, b = TPoly(da), TPoly(db)
        total = ref_add(da, db)
        cancelled += len(set(da) & set(db)) - len(set(total) & set(da) & set(db))
        assert as_tdict(a + b) == total
        assert as_tdict(a - b) == ref_add(da, ref_neg(db))
        assert as_tdict(-a) == ref_neg(da)
        assert as_tdict(a * b) == ref_mul(da, db)
        power = {0: Fraction(1)}
        for k in range(4):
            assert as_tdict(a ** k) == power
            power = ref_mul(power, da)
        assert (a - a).is_zero() and a + (-a) == TPoly.zero()
        assert (a + b).to_json() == ref_tjson(total)
        assert (a == b) == (ref_add(da, ref_neg(db)) == {})
        for s in (2, Fraction(-3, 5), Z5, MINUS_Z5):
            ds = {0: Fraction(s) if isinstance(s, int) else s}
            assert as_tdict(a + s) == as_tdict(s + a) == ref_add(da, ds)
            assert as_tdict(a - s) == ref_add(da, ref_neg(ds))
            assert as_tdict(s - a) == ref_add(ds, ref_neg(da))
            assert as_tdict(a * s) == as_tdict(s * a) == ref_mul(da, ds)
        assert (a * 0).is_zero() and (0 * a).is_zero()
    assert cancelled > 20


@pytest.mark.parametrize("field", sorted(SCALAR_POOLS))
def test_zpoly_core_matches_dict_loops(field):
    rng = random.Random(f"zpoly:{field}")
    pool = SCALAR_POOLS[field]
    cancelled = 0
    for _ in range(40):
        da = random_zdict(rng, pool)
        db = cancelling_partner(rng, da, ref_neg, lambda: random_zdict(rng, pool))
        a, b = zpoly(da), zpoly(db)
        total = ref_add(da, db, ref_add)
        cancelled += len(set(da) & set(db)) - len(set(total) & set(da) & set(db))
        assert as_zdict(a + b) == total
        assert as_zdict(a - b) == ref_add(da, {e: ref_neg(c) for e, c in db.items()}, ref_add)
        assert as_zdict(a * b) == ref_mul(da, db, ref_add, ref_mul)
        assert as_zdict(a ** 2) == ref_mul(da, da, ref_add, ref_mul)
        assert (a - a).is_zero()
        assert (a + b).to_json() == ref_zjson(total)
        tp = TPoly(random_tdict(rng, pool))
        for s in (3, Fraction(1, 7), Z5, tp):
            ds = {0: as_tdict(TPoly.const(s) if not isinstance(s, TPoly) else s)}
            ds = {e: c for e, c in ds.items() if c}
            assert as_zdict(a + s) == as_zdict(s + a) == ref_add(da, ds, ref_add)
            assert as_zdict(s - a) == ref_add(ds, {e: ref_neg(c) for e, c in da.items()},
                                              ref_add)
            assert as_zdict(a * s) == as_zdict(s * a) == ref_mul(da, ds, ref_add, ref_mul)
    assert cancelled > 10


def test_core_keeps_errors_and_cross_order_equality():
    with pytest.raises(ValueError, match="negative t-exponent"):
        TPoly({-1: Fraction(1)})
    with pytest.raises(ValueError, match="negative z-exponent"):
        ZPoly({-1: TPoly.one()})
    with pytest.raises(ValueError, match="negative TPoly power"):
        TPoly.t() ** -1
    half = Fraction(1, 2)
    at5, at7 = (CycloNumber.from_rational(o, half) for o in (5, 7))
    t5 = TPoly({0: at5, 2: CycloNumber.from_rational(5, 3)})
    t7 = TPoly({0: at7, 2: CycloNumber.from_rational(7, 3)})
    tq = TPoly({0: half, 2: Fraction(3)})
    assert t5 == tq and tq == t5 and t5 == t7 and not t5 != t7
    assert TPoly.const(half) == at7 and at5 == TPoly.const(half)
    assert ZPoly({1: t5}) == ZPoly({1: tq}) and ZPoly({1: t7}) == ZPoly({1: t5})
    assert t5 != TPoly({0: Z5}) and ZPoly({1: t5}) != ZPoly({1: TPoly({0: Z5})})
    assert t5.to_json() == tq.to_json() == {"t^0": "1/2", "t^2": "3"}


def test_tpoly_refuses_two_orders_when_made():
    # as a Series made from the same value does, and as CycloNumber
    # arithmetic does
    with pytest.raises(TypeError, match="cannot mix cyclotomic orders 5 and 7"):
        TPoly({0: Z5, 1: CycloNumber.zeta(7)})
    with pytest.raises(TypeError, match="cannot mix cyclotomic orders 5 and 7"):
        TPoly({0: Z5}) + TPoly({1: CycloNumber.zeta(7)})
    with pytest.raises(TypeError, match="not an exact scalar: float"):
        TPoly({0: 0.5})


def t_form(tp: TPoly) -> tuple:
    return tp._t_form


def coeffs_built(tp: TPoly) -> bool:
    """Whether tp holds its coeffs view, read without building it."""
    try:
        SparsePoly.__dict__["coeffs"].__get__(tp, TPoly)
    except AttributeError:
        return False
    return True


def test_rational_valued_cyclo_tpoly_has_the_fraction_form():
    values = {0: Fraction(-3, 4), 2: Fraction(5, 6), 3: Fraction(0), 4: Fraction(7)}
    plain = TPoly(values)
    assert t_form(plain) == (None, 12, {0: -9, 2: 10, 4: 84})
    for order in (5, 7):
        at = TPoly({e: CycloNumber.from_rational(order, c) for e, c in values.items()})
        assert at == plain and plain == at
        assert t_form(at) == t_form(plain)
        assert at.to_json() == plain.to_json()
        assert all(type(c) is Fraction for c in at.coeffs.values())


def test_unread_tpoly_survives_pickle_and_copy_unbuilt():
    for tp in (TPoly({0: Fraction(1, 3), 2: Fraction(-5, 2)}),
               TPoly({0: Fraction(1, 3), 1: (lift(Z5) / 2).value}), TPoly.zero()):
        twins = [pickle.loads(pickle.dumps(tp)), copy.copy(tp), copy.deepcopy(tp)]
        assert not coeffs_built(tp)
        for twin in twins:
            assert not coeffs_built(twin)
            assert t_form(twin) == t_form(tp) and twin == tp
            assert twin.to_json() == tp.to_json() and not coeffs_built(twin)
            assert twin.coeffs == tp.coeffs and coeffs_built(twin)


# Reference first-mismatch loops, written out without the shared core.

def loop_tpoly_mismatch(a, b):
    if a == b:
        return None
    for e in sorted(set(a.coeffs) | set(b.coeffs)):
        ca = a.coeffs.get(e, Fraction(0))
        cb = b.coeffs.get(e, Fraction(0))
        if not scalar_eq(ca, cb):
            return {"t_power": e, "lhs": scalar_to_json(ca), "rhs": scalar_to_json(cb)}
    return None


def loop_zpoly_mismatch(a, b):
    for e in sorted(set(a.coeffs) | set(b.coeffs)):
        x = a.coeffs.get(e, TPoly.zero())
        y = b.coeffs.get(e, TPoly.zero())
        if x != y:
            return {"z_power": e, "lhs": x.to_json(), "rhs": y.to_json()}
    return None


def perturbed(rng, d, make):
    """d with up to three coefficients replaced, dropped or added."""
    out = dict(d)
    for _ in range(rng.randrange(4)):
        e = rng.randrange(5)
        if rng.random() < 0.3:
            out.pop(e, None)
        else:
            out[e] = make()
    return out


@pytest.mark.parametrize("field", sorted(SCALAR_POOLS))
def test_mismatch_formatters_match_the_old_loops(field):
    rng = random.Random(f"mismatch:{field}")
    pool = SCALAR_POOLS[field] + [CycloNumber.from_rational(7, Fraction(1, 2))]
    hits = 0
    for _ in range(80):
        da = random_tdict(rng, pool, 5)
        a, b = TPoly(da), TPoly(perturbed(rng, da, lambda: rng.choice(pool)))
        assert poly_mismatch(a, b) == loop_tpoly_mismatch(a, b)
        za = random_zdict(rng, pool, 5)
        zb = perturbed(rng, za, lambda: random_tdict(rng, pool, 3))
        x, y = zpoly(za), zpoly(zb)
        assert poly_mismatch(x, y) == loop_zpoly_mismatch(x, y)
        hits += (poly_mismatch(a, b) is not None) + (poly_mismatch(x, y) is not None)
    assert hits > 40


# -- CycloNumber against the dense Fraction reference -------------------------
#
# cyclo_reference.Ref keeps phi(n) Fractions, reduced by long division and
# inverted by a linear solve.  The package keeps integer numerators over one
# denominator and multiplies, adds and inverts them in its kernels: the
# product and inverse of CycloNumber, and the TPoly kernels (`tpoly_value`)
# for sums, scalar factors and powers.  Every result must be the same
# element, in normal form.

def ref_repr(ref):
    terms = [(render_rational(c) if e == 0 else f"{render_rational(c)}*w^{e}")
             for e, c in enumerate(ref.coeffs) if c]
    return f"CycloNumber({ref.order}; {' + '.join(terms) or '0'})"


def ref_json(ref):
    if not any(ref.coeffs[1:]):
        return render_rational(ref.coeffs[0])
    return {"order": ref.order, "coeffs": [render_rational(c) for c in ref.coeffs]}


def tpoly_value(tp, order):
    """The value of a constant TPoly as a CycloNumber of the order."""
    c = tp.coeffs.get(0, Fraction(0))
    return c if isinstance(c, CycloNumber) else CycloNumber.from_rational(order, c)


def assert_same(x, ref):
    """x is the element ref, in normal form, with every derived view equal."""
    assert isinstance(x, CycloNumber) and x.order == ref.order
    assert x.coeffs == ref.coeffs
    # normal form: positive denominator coprime to the numerators' content,
    # zero as (0, ..., 0)/1; so one value has one stored pair
    assert x._den > 0 and gcd(x._den, *x._num) == 1
    assert x == CycloNumber(ref.order, ref.coeffs) == ref
    assert hash(x) == hash(CycloNumber(ref.order, ref.coeffs))
    assert x.as_rational() == (None if any(ref.coeffs[1:]) else ref.coeffs[0])
    assert bool(x) == bool(ref)
    assert repr(x) == ref_repr(ref)
    assert scalar_to_json(x) == ref_json(ref)
    assert scalar_from_json(scalar_to_json(x)) == x


def random_pair(rng, order):
    """The same random element as a CycloNumber and a Ref: dense or
    sparse, small or large rationals, sometimes zero or rational, sometimes
    longer than phi(order) so that the constructor reduces it."""
    phi = euler_phi(order)
    style = rng.randrange(6)
    if style == 0:
        cs = [Fraction(0)] * phi
    elif style == 1:
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))]
    else:
        length = phi + rng.randrange(phi + 1) if style == 2 else phi
        big = 10 ** rng.randrange(2, 13) if style == 3 else 9
        cs = [Fraction(rng.randint(-big, big), rng.randint(1, big))
              if style != 4 or rng.random() < 0.3 else Fraction(0)
              for _ in range(length)]
    cs = [int(c) if c.denominator == 1 and rng.random() < 0.5 else c for c in cs]
    return CycloNumber(order, cs), Ref(order, cs)


ORDERS = range(1, 33)


@pytest.mark.parametrize("order", ORDERS)
def test_cyclo_matches_fraction_reference(order):
    rng = random.Random(f"cyclo-ref:{order}")
    pairs = [random_pair(rng, order) for _ in range(6)]
    # Division runs on the first three nonzero elements of height at most 9,
    # as it did when the reference inverse was an extended Euclid.
    small = [bool(x) and all(abs(c.numerator) <= 9 and c.denominator <= 9 for c in rx.coeffs)
             for x, rx in pairs]
    inverses = [rx.inverse() if ok and sum(small[:i]) < 3 else None
                for i, ((x, rx), ok) in enumerate(zip(pairs, small))]

    def t(tp):
        return tpoly_value(tp, order)

    for (x, rx), rinv in zip(pairs, inverses):
        assert_same(x, rx)
        assert_same(t(-TPoly.const(x)), -rx)
        for s in (0, 1, -3, Fraction(2, 7), Fraction(-5, 4)):
            rs = Ref(order, [s])
            assert_same(t(TPoly.const(x) + s), rx + s)
            assert_same(t(s + TPoly.const(x)), rx + s)
            assert_same(t(TPoly.const(x) - s), rx - s)
            assert_same(t(s - TPoly.const(x)), rs - rx)
            assert_same(x * CycloNumber.from_rational(order, s), rx * s)
            assert_same(CycloNumber.from_rational(order, s) * x, rx * s)
            assert_same(t(TPoly.const(x) * s), rx * s)
            if s:
                assert_same(t(TPoly.const(x) * (1 / Fraction(s))),
                            rx * Ref(order, [1 / Fraction(s)]))
        power = Ref(order, [1])
        for exp in range(4):
            assert_same(t(TPoly.const(x) ** exp), power)
            power = power * rx
        if rinv is not None:
            assert_same(x.inverse(), rinv)
            assert_same(x.inverse() * x.inverse(), rinv * rinv)
            assert_same(x.inverse() * CycloNumber.from_rational(order, Fraction(2, 7)),
                        rinv * Fraction(2, 7))
    for (x, rx), (y, ry), rinv in zip(pairs, pairs[1:] + pairs[:1], inverses[1:] + inverses[:1]):
        assert_same(t(TPoly.const(x) + y), rx + ry)
        assert_same(t(TPoly.const(x) - y), rx - ry)
        assert_same(x * y, rx * ry)
        assert_same(t(TPoly.const(x) * y), rx * ry)
        assert_same(t(TPoly.const(x) - x), rx - rx)
        if rinv is not None:
            assert_same(x * y.inverse(), rx * rinv)
        assert (x == y) == (rx.coeffs == ry.coeffs)


@pytest.mark.parametrize("order", ORDERS)
def test_products_do_not_depend_on_the_reduction_table(order):
    # _reduce reads phi(order) and the rows x^d mod Phi_order off a table
    # that builds an order's entry on first use; a product right after the
    # table is emptied fills it again with the same rows, and equals the
    # product made with the table filled and the reference
    rng = random.Random(f"reduction-table:{order}")
    pairs = [(random_pair(rng, order), random_pair(rng, order)) for _ in range(4)]
    for (x, rx), (y, ry) in pairs:
        warm = exact._REDUCTION_TERMS[order]
        exact._REDUCTION_TERMS.clear()
        cold = x * y
        assert order in exact._REDUCTION_TERMS
        assert exact._REDUCTION_TERMS[order] == warm
        assert cold == x * y
        assert_same(cold, rx * ry)
    # the rows are x^d by long division, phi <= d < order, nonzero terms only
    phi, rows = exact._REDUCTION_TERMS[order]
    assert phi == euler_phi(order)
    assert rows == tuple(tuple((i, c) for i, c in enumerate(reduce_mod(order, [0] * d + [1])) if c)
                         for d in range(phi, order))
    # a term (i, c) in several rows is one tuple, kept once
    terms = [t for row in rows for t in row]
    assert len({id(t) for t in terms}) == len(set(terms))


@pytest.mark.parametrize("order", [*range(1, 65), 105, 210, 1155])
def test_reduce_matches_long_division_at_every_length(order):
    # _reduce folds through x^order - 1 and then adds along the table; the
    # reference reduces by long division only.  rows[d] is x^d mod Phi, each
    # one step of reduce_mod from the row below.  Up to order 64 the lists
    # are the prefixes of one dense list; at the large orders each length
    # has its own list of at most five nonzero entries, the top one included.
    # _reduce cuts a list to phi entries and leaves a shorter one as it is.
    phi = euler_phi(order)
    rows = [reduce_mod(order, [0] * d + [1]) for d in range(phi)]
    while len(rows) < 3 * order:
        rows.append(reduce_mod(order, [0] + rows[-1]))
    rng = random.Random(f"reduce:{order}")
    dense = [rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(3 * order)]
    want = [0] * phi
    for length in range(1, 3 * order + 1):
        if order <= 64:
            cs = dense[:length]
            spots = (length - 1,)
        else:
            spots = {length - 1, *rng.sample(range(length), min(4, length))}
            cs = [0] * length
            for d in spots:
                cs[d] = rng.choice((-1, 1)) * rng.randint(1, 10**6)
            want = [0] * phi
        for d in spots:
            for i, r in enumerate(rows[d]):
                want[i] += cs[d] * r
        got = list(cs)
        exact._reduce(order, got)
        assert got + [0] * (phi - len(got)) == want, length


def test_reduce_folds_a_list_longer_than_twice_the_order():
    # a one-pass upward fold leaves degree 2 of [1, 2, 3] at degree 1
    assert CycloNumber(1, [1, 2, 3]) == CycloNumber(1, [6])
    assert CycloNumber(2, [1, 2, 3, 4, 5]) == CycloNumber(2, [3])


def embed(x, order):
    """x under zeta_n -> exp(2 pi i / n)."""
    w = cmath.exp(2j * cmath.pi / order)
    return sum(complex(float(c)) * w ** e for e, c in enumerate(x.coeffs))


@pytest.mark.parametrize("order", ORDERS)
def test_cyclo_matches_complex_embedding(order):
    rng = random.Random(f"cyclo-embed:{order}")

    def close(x, value):
        return abs(embed(x, order) - value) < 1e-9 * max(1.0, abs(value))

    w = cmath.exp(2j * cmath.pi / order)
    for e in range(-order, 2 * order + 1):
        assert close(CycloNumber.zeta_power(order, e), w ** e)
    for _ in range(5):
        x = CycloNumber(order, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                for _ in range(euler_phi(order) + 3)])
        y = CycloNumber(order, [rng.randint(-9, 9) for _ in range(euler_phi(order))])
        ex, ey = embed(x, order), embed(y, order)
        assert close(tpoly_value(TPoly.const(x) + y, order), ex + ey)
        assert close(tpoly_value(TPoly.const(x) - y, order), ex - ey)
        assert close(x * y, ex * ey)
        if y:
            assert close(x * y.inverse(), ex / ey) and close(y.inverse(), 1 / ey)


# -- the integer inverse --------------------------------------------------------
#
# inverse() multiplies the Galois conjugates of the numerator polynomial and
# divides by their product, the norm.  The reference comparison above divides
# only by small elements; these checks cover the dense, high ones too.

def embedded_inverse_close(x, inv, order):
    """embed(inv) is 1/embed(x), to within the rounding of both sums."""
    ex, einv = embed(x, order), embed(inv, order)
    scale = (sum(abs(float(c)) for c in inv.coeffs)
             + sum(abs(float(c)) for c in x.coeffs) / abs(ex) ** 2)
    return abs(einv - 1 / ex) <= 1e-9 * scale


@pytest.mark.parametrize("order", ORDERS)
def test_inverse_of_every_random_element(order):
    rng = random.Random(f"cyclo-inverse:{order}")
    phi = euler_phi(order)
    one = CycloNumber.from_rational(order, 1)
    elements = [random_pair(rng, order)[0] for _ in range(12)]
    # dense, with coefficients of height up to 10^12
    elements += [CycloNumber(order, [Fraction(rng.randint(-10 ** 12, 10 ** 12),
                                              rng.randint(1, 10 ** 12))
                                     for _ in range(phi)]) for _ in range(2)]
    inverted = 0
    for x in elements:
        if not x:
            continue
        inv = x.inverse()
        assert x * inv == one and inv * x == one
        assert inv._den > 0 and gcd(inv._den, *inv._num) == 1
        assert embedded_inverse_close(x, inv, order)
        inverted += 1
    assert inverted >= 2


def test_inverse_of_rational_values_and_negative_norms():
    # For n >= 3, Q(zeta_n) is a CM field and every nonzero norm is
    # positive; only at orders 1 and 2 (phi = 1) is the norm a_0 negative.
    for order, zeta in ((1, 1), (2, -1)):
        for x, r in ((CycloNumber.from_rational(order, -3), Fraction(-3)),
                     (CycloNumber(order, [Fraction(-5, 7)]), Fraction(-5, 7)),
                     (CycloNumber(order, [3, 5]), Fraction(3 + 5 * zeta)),
                     (CycloNumber(order, [Fraction(1, 2), Fraction(-4, 3)]),
                      Fraction(1, 2) + Fraction(-4, 3) * zeta)):
            inv = x.inverse()
            assert_same(inv, Ref(order, [1 / r]))
            assert_same(inv * inv * inv, Ref(order, [r ** -3]))
    # rational values at phi > 1, built directly and reached by arithmetic
    for order in (o for o in ORDERS if euler_phi(o) > 1):
        zeta = CycloNumber.zeta(order)
        for r in (Fraction(-3), Fraction(2, 9), Fraction(-7, 4)):
            at = CycloNumber.from_rational(order, r)
            for x in (at, CycloNumber.zeta_power(order, order) * at,
                      tpoly_value(TPoly.const(zeta) + r - zeta, order)):
                assert_same(x.inverse(), Ref(order, [1 / r]))
                assert_same(x.inverse() * at, Ref(order, [1]))


@pytest.mark.parametrize("n", range(2, 17))
def test_inverse_of_one_minus_root_closed_form(n):
    # w = zeta_n^m has order d = n / gcd(n, m), and sum_{k<d} k w^k = d/(w - 1);
    # the Galois-norm inverse and the reference's linear solve both give it
    for m in range(1, n):
        w = Ref.zeta(n, m)
        d = n // gcd(n, m)
        closed = sum((k * w ** k for k in range(1, d)), Ref(n)) * Fraction(-1, d)
        assert (1 - w).value.inverse() == closed
        assert 1 / (1 - w) == closed == (1 - w) ** -1


CLOSED_FORM_ORDERS = [*range(3, 65), 97, 105]


@pytest.mark.parametrize("order", CLOSED_FORM_ORDERS)
def test_zeta_closed_forms_match_generic_arithmetic(order):
    # zeta^e without products, and the numerator-list closed forms: the
    # rotation by zeta^e (_zeta_sum) and 1/(1 - zeta^e) over N, against
    # repeated squaring, the generic product and the Galois-norm inverse, for
    # e in -2N..2N; the generic inverse depends on e mod N only, so it is
    # taken once per residue, and where phi(N) > 24 only for 1, 2, 3, -1 and
    # the divisors of N (it costs up to 65 ms there); the product check
    # covers every e, and so does the rotation x * zeta^e, of x's reduced
    # numerators and of an unreduced convolution of 2 phi(N) - 1 of them
    one = CycloNumber.from_rational(order, 1)
    rng = random.Random(f"rotation:{order}")
    x, y = (CycloNumber(order, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                for _ in range(euler_phi(order))]) for _ in range(2))
    residues = range(1, order)
    if euler_phi(order) > 24:
        residues = {1, 2, 3, order - 1} | {d for d in residues if order % d == 0}
    generic = {r: (1 - Ref.zeta(order, r)).value.inverse() for r in residues}
    unreduced, xy = exact._convolve(x._num, y._num), x * y
    for e in range(-2 * order, 2 * order + 1):
        power = CycloNumber.zeta_power(order, e)
        assert power == Ref.zeta(order, e)
        rotated = exact._zeta_sum(order, enumerate(x._num, e))
        assert exact._make(order, rotated, x._den) == x * power
        assert exact._make(order, exact._zeta_sum(order, enumerate(unreduced, e)),
                           x._den * y._den) == xy * power
        assert exact._zeta_sum(order, [(e, 1)]) == list(power._num)
        if e % order == 0:
            assert power == one
            with pytest.raises(DivisionByZero):
                exact._one_minus_zeta_power_inverse(order, e)
            continue
        inv = exact._make(order, exact._one_minus_zeta_power_inverse(order, e), order)
        assert inv * (1 - lift(power)).value == one
        if e % order in generic:
            assert inv == generic[e % order]


def test_rational_values_equal_and_hash_across_orders():
    rng = random.Random("cyclo-rational")
    for _ in range(40):
        r = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        at = [CycloNumber.from_rational(o, r) for o in (1, 2, 5, 12, 32)]
        for x in at:
            assert x.as_rational() == r and x == r and r == x
            assert hash(x) == hash(r) == hash(x)
            assert all(x == y for y in at)
        if r.denominator == 1:
            assert at[2] == r.numerator and hash(at[2]) == hash(r.numerator)
    # rational values reached by arithmetic hash like the Fraction too
    for order in (3, 4, 7, 16):
        zeta = CycloNumber.zeta(order)
        x = CycloNumber(order, [Fraction(1, 3), 2, -5])
        for got, r in ((CycloNumber.zeta_power(order, order), Fraction(1)),
                       (x * x.inverse(), Fraction(1)), ((lift(x) - x).value, Fraction(0)),
                       (((lift(zeta) + 1 - zeta) * Fraction(3, 4)).value, Fraction(3, 4))):
            assert got == r and hash(got) == hash(r)
            assert {r: "found"}[got] == "found"
    # an irrational value equals nothing of another order, and hashes as
    # (order, coeffs)
    z5, z10 = CycloNumber.zeta(5), CycloNumber.zeta(10)
    assert z5 != z10 and (lift(z5) * Fraction(1, 2)).value != Fraction(1, 2)
    assert hash(z5) == hash((5, z5.coeffs)) == hash(z5)


def test_cyclo_constructor_refuses_floats():
    for coeffs in ([0.1, True], [Fraction(1), 0.5], [1.0], ["1/2"], [1j]):
        with pytest.raises(TypeError, match="int or Fraction"):
            CycloNumber(5, coeffs)
    with pytest.raises(TypeError, match="int or Fraction"):
        CycloNumber.from_rational(5, 0.1)
    with pytest.raises(TypeError):
        CycloNumber.zeta(5) + 0.5
    # a bool is an int, as in the arithmetic
    assert CycloNumber(5, [True, 2]) == CycloNumber(5, [1, 2])


def test_cyclo_coeffs_is_read_only():
    x = CycloNumber(7, [Fraction(1, 2), 3])
    assert x.coeffs == (Fraction(1, 2), Fraction(3)) + (Fraction(0),) * 4
    with pytest.raises(AttributeError):
        x.coeffs = (Fraction(1),)


_RING = SeriesRing(("u1", "u2"), 3)
IMMUTABLE_VALUES = {
    "CycloNumber": CycloNumber.zeta(5),
    "CycloNumber-with-denominator": CycloNumber(6, [Fraction(1, 2), Fraction(3, 4)]),
    "TPoly": TPoly.t(),
    "ZPoly": ZPoly.one(),
    "SeriesRing": _RING,
    "Series": Series(_RING, {(0, 0): TPoly.one(), (1, 2): TPoly({1: Fraction(-1, 3)})}),
    "SeriesParams-at-root": zeta_params(5),
    "SeriesParams-at-irrational-q": SeriesParams(4, CycloNumber.zeta_power(5, 2)),
    "HeightProfile": HeightProfile(6, 3, (2, 1), 1),
}


@pytest.mark.parametrize("name", list(IMMUTABLE_VALUES))
@pytest.mark.parametrize("how", ["pickle", "deepcopy", "copy"])
def test_immutable_values_survive_pickle_and_copy(name, how):
    value = IMMUTABLE_VALUES[name]
    twin = {"pickle": lambda v: pickle.loads(pickle.dumps(v)),
            "deepcopy": copy.deepcopy, "copy": copy.copy}[how](value)
    assert type(twin) is type(value)
    assert twin == value
    if type(value).__hash__ is not None:
        assert hash(twin) == hash(value)
    if isinstance(value, CycloNumber):
        # the stored pair stays canonical, so equality and hashing still
        # compare it field by field
        assert (twin.order, twin._num, twin._den) == (value.order, value._num, value._den)
    if isinstance(value, SeriesParams):
        # the key is rebuilt, not copied: the root is recognised again
        assert (twin.n, twin.q, twin.root, twin._key) == (value.n, value.q, value.root, value._key)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(twin.q if isinstance(twin, SeriesParams) else twin, "order", 1)


def test_value_records_read_and_compare_as_before():
    # the reprs, the stored h and the q coercion of the frozen records that
    # HeightProfile and SeriesParams replace
    assert repr(HeightProfile(k=4, l=2, h=(1,), j=0)) == "HeightProfile(k=4, l=2, h=(1,), j=0)"
    assert repr(SeriesParams(5, Fraction(1, 2))) == "SeriesParams(n=5, q=Fraction(1, 2))"
    assert HeightProfile(k=4, l=2, h=[1], j=0).h == (1,)
    assert HeightProfile(4, 2, [1], 0) == HeightProfile(k=4, l=2, h=(1,), j=0)
    assert HeightProfile(3, 2, (1,)) != HeightProfile(3, 2, (1,), 0) != (3, 2, (1,), 0)
    assert SeriesParams(5, 3) == SeriesParams(5, Fraction(3))
    assert hash(SeriesParams(5, 3)) == hash(SeriesParams(5, Fraction(3)))
    rational = CycloNumber(7, [Fraction(-2, 3)])
    assert SeriesParams(5, rational) == SeriesParams(5, Fraction(-2, 3))
    assert type(SeriesParams(5, rational).q) is Fraction
    assert hash(SeriesParams(5, rational)) == hash(SeriesParams(5, Fraction(-2, 3)))
    # the root is derived from q and kept out of the repr
    assert zeta_params(5).root == (5, 1) and SeriesParams(5, 3).root is None
    assert repr(zeta_params(5)) == f"SeriesParams(n=5, q={CycloNumber.zeta(5)!r})"
    for value, name in ((SeriesParams(5, 3), "n"), (HeightProfile(4, 2), "k")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, 1)
