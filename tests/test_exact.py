import random
from fractions import Fraction
from operator import add, mul

import pytest

from qharmonic.exact import (
    CycloNumber,
    DivisionByZero,
    IrrationalCoefficient,
    TPoly,
    binomial,
    cyclotomic_polynomial,
    euler_phi,
    is_rational,
    parse_rational,
    render_rational,
    scalar_eq,
    scalar_from_json,
    scalar_pow,
    scalar_to_json,
)
from qharmonic.genfun import poly_mismatch
from qharmonic.qseries import ZPoly


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


def test_zeta_powers_cycle():
    for n in (2, 3, 4, 5, 6, 12):
        zeta = CycloNumber.zeta(n)
        assert zeta ** n == CycloNumber.from_rational(n, Fraction(1))
        assert zeta ** (n + 3) == zeta ** 3
        # all proper powers differ from 1
        for m in range(1, n):
            assert zeta ** m != CycloNumber.from_rational(n, Fraction(1))


def test_geometric_sum_vanishes():
    for n in (3, 4, 5, 7):
        zeta = CycloNumber.zeta(n)
        total = CycloNumber.from_rational(n, Fraction(0))
        for m in range(n):
            total = total + zeta ** m
        flag, value = is_rational(total)
        assert flag and value == 0


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
    zeta = CycloNumber.zeta(3)
    inv = (CycloNumber.from_rational(3, Fraction(1)) - zeta).inverse()
    assert inv * (CycloNumber.from_rational(3, Fraction(1)) - zeta) == CycloNumber.from_rational(3, Fraction(1))
    assert inv == (CycloNumber.from_rational(3, Fraction(2)) + zeta) * Fraction(1, 3)


def test_mixed_scalar_ops():
    zeta = CycloNumber.zeta(5)
    assert scalar_eq(zeta * Fraction(0), Fraction(0))
    assert scalar_eq(Fraction(2) + zeta - zeta, Fraction(2))
    assert scalar_eq(scalar_pow(Fraction(2, 3), -2), Fraction(9, 4))
    assert scalar_eq(scalar_pow(zeta, 0), Fraction(1))


def test_rational_round_trip():
    assert parse_rational("-3/7") == Fraction(-3, 7)
    assert parse_rational("4") == Fraction(4)
    assert render_rational(Fraction(10, 4)) == "5/2"
    assert render_rational(Fraction(-2)) == "-2"


def test_scalar_json_round_trip():
    samples = [Fraction(3, 4), Fraction(-2),
               CycloNumber.zeta(5), CycloNumber.zeta(3) * Fraction(1, 6) + Fraction(2)]
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
    t = TPoly.t()
    p = t * t + t * 2 + 1
    # t -> 1 - t
    q = p.affine_t(-1, 1)
    assert q.eval(Fraction(1, 3)) == p.eval(Fraction(2, 3))
    # involution
    assert q.affine_t(-1, 1) == p


def test_tpoly_rationalized_guards():
    zeta = CycloNumber.zeta(3)
    ok = TPoly({0: zeta * Fraction(0) + Fraction(1, 2)})
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


def ref_add(a, b, cadd=add):
    out = dict(a)
    for e, c in b.items():
        s = cadd(out[e], c) if e in out else c
        if is_zero_value(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def ref_mul(a, b, cadd=add, cmul=mul):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = ref_add(out, {e1 + e2: cmul(c1, c2)}, cadd)
    return out


def ref_neg(a):
    return {e: -c for e, c in a.items()}


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
SCALAR_POOLS = {
    "Q": [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4)],
    "Q(zeta5)": [Fraction(1), Fraction(-1), Z5, -Z5, Z5 * Z5 + Fraction(1, 3),
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
        db = cancelling_partner(rng, da, lambda c: -c, lambda: random_tdict(rng, pool))
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
        for s in (2, Fraction(-3, 5), Z5, -Z5):
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
