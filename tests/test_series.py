import copy
import pickle
import random
from bisect import bisect_right
from itertools import chain
from fractions import Fraction
from math import comb, gcd, lcm
from operator import add

import pytest

from qharmonic import exact
from qharmonic import series as series_module
from qharmonic.exact import CycloNumber, TPoly
from qharmonic.series import NonUnitConstantTerm, Series, SeriesRing

from cyclo_reference import lift, value


def rand_series(ring: SeriesRing, rng: random.Random, unit: bool = False) -> Series:
    terms = {}
    for exps in ring.exponents_up_to_cap():
        if rng.random() < 0.4:
            terms[exps] = TPoly({rng.randint(0, 2): Fraction(rng.randint(-4, 4), rng.randint(1, 3))})
    s = Series(ring, terms)
    if unit:
        s = s + (ring.one() - ring.monomial({}, s.constant_term().eval(Fraction(0)) if False else Fraction(0)))
        # force constant term 1
        s = s - ring.scalar(s.constant_term()) + ring.one()
    return s


def test_monomial_and_var():
    ring = SeriesRing(("x", "y"), 3)
    s = ring.var("x") * ring.var("y", 2)
    assert s == ring.monomial({"x": 1, "y": 2})
    assert s.coefficient({"x": 1, "y": 2}) == TPoly.one()
    # int and Fraction coefficients, above the cap, zero, TPoly and CycloNumber
    for coeff in (Fraction(-3, 4), 5, Fraction(0), TPoly({1: Fraction(2, 9)}),
                  CycloNumber.zeta(5)):
        for exps in ({"x": 2}, {"x": 2, "y": 2}, {}):
            want = Series(ring, {(exps.get("x", 0), exps.get("y", 0)): TPoly({0: coeff})
                                 if not isinstance(coeff, TPoly) else coeff})
            got = ring.monomial(exps, coeff)
            assert got == want and got.to_json() == want.to_json()
        assert ring.scalar(coeff).to_json() == ring.monomial({}, coeff).to_json()


def test_monomial_is_the_series_of_its_coefficient():
    # monomial stores the coefficient's TPoly form directly; Series(ring,
    # terms) scans the TPoly, and the two must agree in form, not just value
    ring = SeriesRing(("x", "y"), 3)
    zeta = CycloNumber.zeta(7)
    for coeff in (-6, Fraction(5, 12), (Fraction(1, 3) + 2 * lift(zeta)).value,
                  CycloNumber.from_rational(7, 3),
                  TPoly({0: Fraction(1, 2), 2: zeta}), 0, Fraction(0), TPoly.zero()):
        for exps in ({}, {"x": 1}, {"x": 2, "y": 1}, {"y": 4}):
            e = (exps.get("x", 0), exps.get("y", 0))
            tp = coeff if isinstance(coeff, TPoly) else TPoly.const(coeff)
            got, want = ring.monomial(exps, coeff), Series(ring, {e: tp})
            assert got == want, (coeff, exps)
            assert (got._order, got._denom, got._numer) == \
                (want._order, want._denom, want._numer), (coeff, exps)
            assert got.to_json() == want.to_json()
            if sum(e) > ring.cap or not coeff:
                assert got.is_zero()
        with pytest.raises(ValueError, match="negative exponent"):
            ring.monomial({"x": -1}, coeff)


def test_cap_truncates_products():
    ring = SeriesRing(("x",), 2)
    x = ring.var("x")
    cube = x * x * x
    assert cube.is_zero()


def test_addition_cancels():
    ring = SeriesRing(("x", "y"), 4)
    rng = random.Random(3)
    s = rand_series(ring, rng)
    assert (s - s).is_zero()
    assert (s + ring.zero()) == s


def test_inversion_random():
    rng = random.Random(11)
    ring = SeriesRing(("x", "y"), 4)
    for _ in range(10):
        s = rand_series(ring, rng, unit=True)
        assert s.constant_term() == TPoly.one()
        assert s * s.invert() == ring.one()


def test_inversion_constant_term_rules():
    ring = SeriesRing(("x",), 3)
    # any nonzero t-free scalar constant works, not only 1
    s = ring.var("x") + ring.scalar(2)
    assert s * s.invert() == ring.one()
    with pytest.raises(NonUnitConstantTerm):
        ring.var("x").invert()
    with pytest.raises(NonUnitConstantTerm):
        (ring.one() * TPoly.t() + ring.one()).invert()


def test_geometric_inverse():
    ring = SeriesRing(("x",), 5)
    x = ring.var("x")
    inv = (ring.one() - x).invert()
    expect = Series(ring, {(e,): TPoly.one() for e in range(6)})
    assert inv == expect


def test_substitution_is_homomorphism():
    rng = random.Random(5)
    src = SeriesRing(("x", "y"), 3)
    dst = SeriesRing(("u", "v"), 3)
    bind = {
        "x": dst.var("u") + dst.var("v") * dst.var("v"),
        "y": dst.var("v") - dst.var("u") * 2,
    }
    for _ in range(6):
        a = rand_series(src, rng)
        b = rand_series(src, rng)
        left = (a * b).substitute(bind, dst)
        right = a.substitute(bind, dst) * b.substitute(bind, dst)
        assert left == right
        assert (a + b).substitute(bind, dst) == a.substitute(bind, dst) + b.substitute(bind, dst)


def test_substitution_polynomial_with_constant_image():
    # nonzero-constant images are exact when the source is polynomial
    src = SeriesRing(("x",), 3)
    dst = SeriesRing(("u",), 3)
    poly = src.one() + src.var("x") * 3 + src.var("x", 2)
    image = dst.one() + dst.var("u")
    out = poly.substitute({"x": image}, dst)
    assert out == dst.scalar(5) + dst.var("u") * 5 + dst.var("u", 2)


def test_negative_exponents_are_rejected():
    ring = SeriesRing(("x", "z"), 3)
    for exps in ((-1, 0), (0, -2), (4, -1)):
        with pytest.raises(ValueError, match="negative exponent"):
            Series(ring, {exps: TPoly.one()})
        with pytest.raises(ValueError, match="negative exponent"):
            Series.from_json(ring, [{"exps": list(exps), "coeff": TPoly.one().to_json()}])
    with pytest.raises(ValueError, match="negative exponent"):
        ring.monomial({"x": -1})
    with pytest.raises(ValueError, match="negative exponent"):
        ring.var("z", -3)


def test_exponent_tuples_of_the_wrong_width_are_rejected():
    # a short key would otherwise be kept and misread by the kernels, which
    # zip exponent tuples and stop at the shorter one
    ring = SeriesRing(("x", "z"), 3)
    for exps in ((1,), (0, 1, 0), ()):
        with pytest.raises(ValueError, match="2 exponents"):
            Series(ring, {exps: TPoly.one()})
        with pytest.raises(ValueError, match="2 exponents"):
            Series.from_json(ring, [{"exps": list(exps), "coeff": TPoly.one().to_json()}])
        with pytest.raises(ValueError, match="2 exponents"):
            Series.from_numerators(ring, 1, {exps: {0: 1}})


def test_in_ring_projection():
    # the constructor drops the terms above the cap, so it recasts a series
    # into a ring with the same variables and a lower cap
    big = SeriesRing(("x",), 6)
    small = SeriesRing(("x",), 2)
    s = Series(big, {(e,): TPoly.one() for e in range(7)})
    proj = Series(small, s.terms)
    assert proj.ring is small
    assert set(proj.terms) == {(0,), (1,), (2,)}


def test_ring_refuses_a_cap_that_is_not_a_nonnegative_int():
    # int(cap) used to cut 2.7 to 2 and keep -1, a ring with no admissible
    # exponent whose one() still held the constant term
    for cap in (2.7, -1, Fraction(2), "2", True, False, None):
        with pytest.raises(ValueError, match="cap must be a nonnegative int"):
            SeriesRing(("x",), cap)
    ring = SeriesRing(("x",), 0)
    assert ring.exponents_up_to_cap() == [(0,)]
    assert ring.one().terms == {(0,): TPoly.one()}
    assert ring.var("x").is_zero()


def test_negate_vars():
    ring = SeriesRing(("x", "y"), 3)
    s = ring.var("x") + ring.var("y") + ring.var("x") * ring.var("y")
    flipped = s.negate_vars(["y"])
    assert flipped == ring.var("x") - ring.var("y") - ring.var("x") * ring.var("y")
    assert flipped.negate_vars(["y"]) == s


def test_set_var_zero_and_one():
    ring = SeriesRing(("x", "y"), 3)
    s = ring.one() + ring.var("x") * 2 + ring.var("x") * ring.var("y")
    assert s.set_var_zero("x") == ring.one()


def test_sorted_terms_graded_lex():
    ring = SeriesRing(("x", "y"), 3)
    s = ring.var("y") + ring.var("x") + ring.var("x", 2) + ring.one()
    order = [e for e, _ in s.sorted_terms()]
    assert order == [(0, 0), (0, 1), (1, 0), (2, 0)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cap", [0, 1, 3, 4, 7, 8])
def test_keys_pack_every_admissible_exponent_tuple(cap, k):
    # a key is the degree above one field per exponent, each field
    # max(cap, 1).bit_length() bits wide: it unpacks, it sorts in graded lex
    # order, its degree is its top field, and the key of a product within
    # the cap is the sum of its factors' keys, also at caps 1, 3 and 7,
    # where (cap, 0, ...) fills a field
    ring = SeriesRing([f"v{i}" for i in range(k)], cap)
    exps = ring.exponents_up_to_cap()
    keys = [ring._pack(e) for e in exps]
    assert [ring._unpack(key) for key in keys] == exps
    assert [tuple(ring._exponent(key, i) for i in range(k)) for key in keys] == exps
    assert [key >> ring._shift for key in keys] == [sum(e) for e in exps]
    assert sorted(exps, key=ring._pack) == sorted(exps, key=series_module._term_sort_key)
    degrees = [sum(e) for e in exps]
    pairs = 0
    for a, ka in zip(exps, keys):
        fits = bisect_right(degrees, cap - sum(a))
        for b, kb in zip(exps[:fits], keys[:fits]):
            assert ka + kb == ring._pack(tuple(map(add, a, b))), (a, b)
            pairs += 1
    assert pairs == comb(cap + 2 * k, 2 * k)


def test_powers_form_no_product_with_one(monkeypatch):
    # ** squares up from the power of the lowest set bit: e costs
    # (bit length − 1) squarings and (set bits − 1) products, none with one
    calls = []
    for cls in (Series, TPoly):
        def spy(self, other, product=cls.__mul__):
            calls.append((self, other))
            return product(self, other)

        monkeypatch.setattr(cls, "__mul__", spy)
        monkeypatch.setattr(cls, "__rmul__", spy)
    ring = SeriesRing(("x", "y"), 9)
    for base, one in ((ring.one() + ring.var("x") - ring.var("y") * Fraction(1, 3), ring.one()),
                      (TPoly({0: 2, 1: Fraction(-1, 3), 3: ZETA7}), TPoly.one())):
        repeated = one
        for e in range(10):
            calls.clear()
            got = base ** e
            assert len(calls) == max(e.bit_length() + e.bit_count() - 2, 0), e
            assert all(one not in pair for pair in calls), e
            assert got == repeated
            repeated = repeated * base


def test_json_round_trip():
    ring = SeriesRing(("x", "y"), 2)
    rng = random.Random(9)
    s = rand_series(ring, rng)
    assert Series.from_json(ring, s.to_json()) == s


def test_first_mismatch_reports_location():
    ring = SeriesRing(("x",), 3)
    a = ring.one() + ring.var("x")
    b = ring.one() + ring.var("x") * 2
    loc = a.first_mismatch(b)
    assert loc is not None
    assert a.first_mismatch(a) is None


# -- differential check of the multiply and invert kernels -------------------
# The round trip and the matrix form in lemma3_2_roundtrip and the product
# form of Psi multiply and invert through these kernels, so the references
# below, written out here, are their independent check.

def ref_mul(a: Series, b: Series) -> Series:
    """Every term pair, checked against the ring one by one."""
    ring = a.ring
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            if not ring.check_exponents(exps):
                continue
            s = out.get(exps, TPoly.zero()) + c1 * c2
            if s.is_zero():
                out.pop(exps, None)
            else:
                out[exps] = s
    return Series(ring, out)


def ref_sum(a: Series, b: Series) -> Series:
    """Term by term, through TPoly addition."""
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, TPoly.zero()) + c
    return Series(a.ring, out)


def ref_map(s: Series, fn) -> Series:
    """fn applied to every TPoly coefficient."""
    return Series(s.ring, {e: fn(c) for e, c in s.terms.items()})


def map_coeffs(tp: TPoly, fn) -> TPoly:
    """fn applied to every scalar coefficient of tp."""
    return TPoly({e: fn(c) for e, c in tp.coeffs.items()})


def ref_invert(s: Series) -> Series:
    """The coefficient recurrence with TPoly accumulation."""
    ring = s.ring
    inv0 = value(1 / lift(s.constant_term().coeffs[0]))
    zero = (0,) * len(ring.variables)
    inv = {zero: TPoly.const(inv0)}
    for target in ring.exponents_up_to_cap():
        if target == zero:
            continue
        acc = TPoly.zero()
        for e, c in s.terms.items():
            if e != zero:
                known = inv.get(tuple(x - y for x, y in zip(target, e)))
                if known is not None:
                    acc = acc + c * known
        if not acc.is_zero():
            inv[target] = acc * value(-lift(inv0))
    return Series(ring, inv)


def rand_scalar(rng: random.Random, order):
    frac = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    if order is None or rng.random() < 0.2:
        return frac
    return CycloNumber(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                               for _ in range(rng.randint(1, 4))])


def rand_coeff(rng: random.Random, order) -> TPoly:
    return TPoly({rng.randint(0, 3): rand_scalar(rng, order)
                  for _ in range(rng.randint(1, 3))})


def rand_terms(ring: SeriesRing, rng: random.Random, order, size: int) -> Series:
    """Up to `size` terms of total degree at most the cap."""
    terms = {}
    for _ in range(size):
        room = rng.randint(0, ring.cap)
        exps = []
        for _v in ring.variables:
            e = rng.randint(0, room)
            room -= e
            exps.append(e)
        terms[tuple(exps)] = rand_coeff(rng, order)
    return Series(ring, terms)


@pytest.mark.parametrize("order", [None, 7])
def test_mul_matches_all_pairs_reference(order):
    rng = random.Random(f"series-mul:{order}")
    rings = [SeriesRing(("x", "y"), 5), SeriesRing(("x", "y", "z"), 3)]
    for ring in rings:
        for _ in range(10):
            a = rand_terms(ring, rng, order, rng.randint(0, 12))
            b = rand_terms(ring, rng, order, rng.randint(0, 12))
            assert a * b == ref_mul(a, b)
            assert (a * b).to_json() == ref_mul(a, b).to_json()


@pytest.mark.parametrize("order", [None, 5])
def test_invert_matches_recurrence_reference(order):
    rng = random.Random(f"series-invert:{order}")
    for ring in (SeriesRing(("x",), 7), SeriesRing(("x", "y"), 5),
                 SeriesRing(("x", "y", "w"), 3)):
        for _ in range(5):
            s = rand_terms(ring, rng, order, rng.randint(0, 8))
            unit = rand_scalar(rng, order) or Fraction(1)
            s = s - ring.scalar(s.constant_term()) + ring.scalar(unit)
            assert s.invert() == ref_invert(s)
            assert s.invert().to_json() == ref_invert(s).to_json()


# -- division, the t -> a*t + b map and the unchecked constructor ------------

def rand_unit(ring: SeriesRing, rng: random.Random, order, size: int) -> Series:
    """A random series whose constant term is a nonzero t-free scalar."""
    s = rand_terms(ring, rng, order, size)
    unit = rand_scalar(rng, order) or Fraction(1)
    return s - ring.scalar(s.constant_term()) + ring.scalar(unit)


@pytest.mark.parametrize("order", [None, 5, 7])
def test_division_matches_multiply_by_inverse(order):
    rng = random.Random(f"series-div:{order}")
    for ring in (SeriesRing(("x",), 6), SeriesRing(("x", "y"), 4),
                 SeriesRing(("x", "y", "w"), 3)):
        for _ in range(5):
            a = rand_terms(ring, rng, order, rng.randint(0, 8))
            b = rand_unit(ring, rng, order, rng.randint(0, 8))
            q = a / b
            assert q.to_json() == (a * b.invert()).to_json()
            assert q * b == a


def test_division_errors_match_inversion():
    ring = SeriesRing(("x", "y"), 3)
    a = ring.var("x") + ring.scalar(3)
    for bad in (ring.var("x"), ring.zero(), ring.one() * TPoly.t() + ring.one()):
        with pytest.raises(NonUnitConstantTerm):
            bad.invert()
        with pytest.raises(NonUnitConstantTerm):
            _ = a / bad
    with pytest.raises(ValueError, match="different rings"):
        _ = a / SeriesRing(("x", "y"), 4).one()
    with pytest.raises(TypeError):
        _ = a / 2


def rand_monomial(ring: SeriesRing, rng: random.Random, low: int = 1) -> tuple[int, ...]:
    """A random exponent tuple of degree between low and the cap."""
    room = rng.randint(low, ring.cap)
    exps = [0] * len(ring.variables)
    for _ in range(room):
        exps[rng.randrange(len(exps))] += 1
    return tuple(exps)


def sparse_unit(ring: SeriesRing, rng: random.Random, order, size: int) -> Series:
    """A unit with `size` nonconstant terms scattered over the ring, so that
    most (target, divisor term) pairs reach no solved coefficient."""
    terms = {rand_monomial(ring, rng): rand_coeff(rng, order) for _ in range(size)}
    terms[(0,) * len(ring.variables)] = TPoly.const(rand_scalar(rng, order) or Fraction(1))
    return Series(ring, terms)


def sparse_dividend(ring: SeriesRing, rng: random.Random, order, size: int) -> Series:
    return Series(ring, {rand_monomial(ring, rng, 0): rand_coeff(rng, order)
                         for _ in range(size)})


@pytest.mark.parametrize("order", [None, 5])
def test_division_by_sparse_divisors(order):
    rng = random.Random(f"series-sparse-div:{order}")
    for ring in (SeriesRing(("x", "y", "z"), 6), SeriesRing(("x", "y", "z", "w"), 5)):
        for _ in range(6):
            b = sparse_unit(ring, rng, order, rng.randint(1, 3))
            a = sparse_dividend(ring, rng, order, rng.randint(0, 4))
            assert b.invert().to_json() == ref_invert(b).to_json()
            q = a / b
            assert q.to_json() == ref_mul(a, ref_invert(b)).to_json()
            assert q * b == a


class CountingInt(int):
    """An int whose products with another CountingInt are counted in
    `products`; its sums and products stay CountingInts, so a numerator made
    from them is one too, and a scaling by a plain int is not counted."""

    products = 0

    def __mul__(self, other):
        CountingInt.products += isinstance(other, CountingInt)
        return CountingInt(int.__mul__(int(self), int(other)))

    __rmul__ = __mul__

    def __add__(self, other):
        return CountingInt(int.__add__(int(self), int(other)))

    __radd__ = __add__


def counting(s: Series) -> Series:
    """s with CountingInt numerators."""
    return Series._made(s.ring, None, s._denom, {k: CountingInt(v) for k, v in s._numer.items()})


def numerator_count(tp: TPoly) -> int:
    return len(tp.coeffs)


@pytest.mark.parametrize("order", [None, 7])
def test_division_forms_only_pairs_that_fit_the_cap(order, monkeypatch):
    # Push order: each solved quotient term Q[K] meets the divisor's
    # nonconstant terms e with deg(e) <= cap - deg(K), one product each,
    # and nothing else.  On Z[zeta_7] numerators each pair is one call of
    # _add_convolution; on int numerators (operands whose values are all
    # rational) it is one product inline of two numerators made from the
    # operands', counted on CountingInt numerators.
    rng = random.Random(f"series-div-pairs:{order}")
    calls = []
    original = series_module._add_convolution

    def spy(out, x, y):
        calls.append(1)
        original(out, x, y)

    for ring in (SeriesRing(("x", "y", "z"), 6), SeriesRing(("x", "y", "z", "w"), 4),
                 SeriesRing(("x", "y"), 5)):
        zero = (0,) * len(ring.variables)
        for _ in range(5):
            b = sparse_unit(ring, rng, order, rng.randint(1, 4))
            a = rand_terms(ring, rng, order, rng.randint(1, 6))
            want_q = ref_mul(a, ref_invert(b)).to_json()
            ints = a._order is None and b._order is None
            if ints:
                a, b = counting(fresh(a)), counting(fresh(b))
            monkeypatch.setattr(series_module, "_add_convolution", spy)
            calls.clear()
            CountingInt.products = 0
            q = a / b
            monkeypatch.undo()
            divisor = [(sum(e), numerator_count(tp)) for e, tp in b.terms.items() if e != zero]
            want = sum(numerator_count(tp) * n for t, tp in q.terms.items()
                       for d, n in divisor if d <= ring.cap - sum(t))
            if ints:
                assert calls == [] and CountingInt.products == want
            else:
                assert len(calls) == want
            assert q.to_json() == want_q


def ref_substitute(s: Series, bindings, target: SeriesRing) -> Series:
    """Term by term through the public product and sum, one image power at
    a time."""
    total = target.zero()
    for exps, tp in s.terms.items():
        piece = target.one()
        for name, e in zip(s.ring.variables, exps):
            image = bindings[name] if name in bindings else target.var(name)
            for _ in range(e):
                piece = piece * image
        total = total + piece * tp
    return total


@pytest.mark.parametrize("order", [None, 7])
def test_substitute_matches_term_by_term_reference(order):
    rng = random.Random(f"series-substitute:{order}")
    src = SeriesRing(("x", "y", "z"), 4)
    dst = SeriesRing(("u", "z"), 4)
    for _ in range(6):
        s = rand_terms(src, rng, order, rng.randint(0, 8))
        # images without constant term, one of them rational on both paths
        bindings = {name: image - dst.scalar(image.constant_term())
                    for name, image in (("x", rand_terms(dst, rng, order, 3)),
                                        ("y", rand_terms(dst, rng, None, 3)))}
        got = s.substitute(bindings, dst)
        assert got.to_json() == ref_substitute(s, bindings, dst).to_json()


def ref_weighted_sum(ring: SeriesRing, pairs) -> Series:
    """Σ w·s by repeated series-by-TPoly products and sums."""
    total = ring.zero()
    for s, w in pairs:
        total = total + s * w
    return total


def weighted_sum_of(ring: SeriesRing, pairs) -> Series:
    """Series.weighted_sum of (series, TPoly weight) pairs: each weight's
    terms (numerator, denominator, t-power) read from its form at the
    weights' one order, and a zero weight as the numerator 0."""
    forms = [(s, exact._t_slot(w)) for s, w in pairs]
    order = exact._joint_order(*(form[0] for _, form in forms))
    terms = [(s, c, den, j) for s, (_, den, slot) in forms
             for j, c in (slot.items() or [(0, 0)])]
    return Series.weighted_sum(ring, terms, order)


def rand_weight(rng: random.Random, order) -> TPoly:
    """An int, Fraction or zeta-valued constant, a t-monomial, a t-polynomial
    of two or more terms, or zero."""
    kind = rng.choice(("int", "fraction", "zeta", "monomial", "poly", "zero"))
    if kind == "int":
        return TPoly.const(rng.choice((-3, -1, 1, 2, 5)))
    if kind == "fraction":
        return TPoly.const(Fraction(rng.choice((-5, 1, 3)), rng.choice((2, 3, 4))))
    if kind == "zeta":
        return TPoly.const(CycloNumber.zeta_power(order or 5, rng.randint(1, 4)))
    if kind == "monomial":
        return TPoly({rng.randint(1, 3): rand_scalar(rng, order)})
    if kind == "poly":
        return TPoly({j: rand_scalar(rng, order) or Fraction(1) for j in rng.sample(range(4), 2)})
    return TPoly.zero()


@pytest.mark.parametrize("order", [None, 5, 12])
def test_weighted_sum_matches_products_and_sums(order):
    rng = random.Random(f"weighted-sum:{order}")
    ring = SeriesRing(("x", "y"), 4)
    for _ in range(12):
        pairs = [(rand_terms(ring, rng, rng.choice((order, None)), rng.randint(0, 6)),
                  rand_weight(rng, order))  # a zeta weight at Q lifts the sum to zeta_5
                 for _ in range(rng.randint(0, 5))]
        got = weighted_sum_of(ring, pairs)
        want = ref_weighted_sum(ring, pairs)
        assert got == want and got.to_json() == want.to_json()
    # a sum that cancels, and one at a root that drops back to ints
    a = rand_terms(ring, rng, None, 6)
    w = rand_weight(rng, order)
    assert weighted_sum_of(ring, [(a, w), (a, -w)]) == ring.zero()
    if order:
        z = TPoly.const(CycloNumber.zeta(order))
        pairs = [(a, z), (a, 1 - z), (a * z, -TPoly.one())]
        got = weighted_sum_of(ring, pairs)
        assert got == ref_weighted_sum(ring, pairs) == a * (1 - z)
        assert got.to_json() == (a * (1 - z)).to_json()
        assert weighted_sum_of(ring, [(a, z), (a * z, -TPoly.one())]) == ring.zero()
        drop = weighted_sum_of(ring, [(a, z), (a, 2 - z)])
        assert drop == a * 2 and drop.to_json() == (a * 2).to_json()
        # an int numerator at an order reads (c, 0, ..., 0)
        assert Series.weighted_sum(ring, [(a, 3, 2, 1)], order) == a * TPoly({1: Fraction(3, 2)})


def test_weighted_sum_refuses_two_orders_and_two_rings():
    ring = SeriesRing(("x", "y"), 3)
    x = ring.var("x")
    z5 = CycloNumber.zeta(5)
    with pytest.raises(TypeError):
        Series.weighted_sum(ring, [(x * z5, 1, 1, 0)], 7)
    with pytest.raises(TypeError):
        Series.weighted_sum(ring, [(x * z5, 1, 1, 0), (x * CycloNumber.zeta(7), 1, 1, 0)])
    with pytest.raises(ValueError):
        Series.weighted_sum(ring, [(SeriesRing(("x", "y"), 4).var("x"), 1, 1, 0)])
    assert Series.weighted_sum(ring, []) == ring.zero()


def ref_affine_t(tp: TPoly, a, b) -> TPoly:
    """Substitute t -> a*t + b one power of the image at a time."""
    img = TPoly({1: Fraction(a), 0: Fraction(b)})
    out = TPoly.zero()
    for e, c in tp.coeffs.items():
        out = out + (img ** e) * c
    return out


def affine_of(tp: TPoly, a, b) -> TPoly:
    """tp under t -> a*t + b through Series.affine_t, as the constant term
    of a constant series."""
    return SeriesRing(("x",), 2).scalar(tp).affine_t(a, b).constant_term()


@pytest.mark.parametrize("order", [None, 5])
def test_affine_t_matches_power_loop(order):
    rng = random.Random(f"affine-t:{order}")
    for _ in range(40):
        tp = TPoly({rng.randint(0, 6): rand_scalar(rng, order)
                    for _ in range(rng.randint(0, 5))})
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        b = rng.choice((Fraction(0), Fraction(-1), Fraction(1),
                        Fraction(rng.randint(-4, 4), rng.randint(1, 4))))
        got = affine_of(tp, a, b)
        assert got.to_json() == ref_affine_t(tp, a, b).to_json()
    assert affine_of(TPoly({2: Fraction(3)}), 1, -1) == TPoly({0: 3, 1: -6, 2: 3})


# -- the integer path of the rational kernels --------------------------------
# Over Fractions the product, the quotient and the t -> a*t + b map run on int
# numerators over one denominator, and each output Fraction is built in the
# coeffs view of a TPoly; at q = zeta_N the same kernels run on Z[zeta_N]
# numerators.
# The references above are checked byte for byte on both.

def assert_lowest_fractions(value):
    """Every coefficient of a Series or TPoly is a Fraction in lowest terms."""
    for tp in value.terms.values() if isinstance(value, Series) else (value,):
        for c in tp.coeffs.values():
            assert type(c) is Fraction
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


def spy_views(monkeypatch, check=None) -> list:
    """The (order, denominator) of every TPoly whose coeffs view is built
    from now on, the one place coefficients are made; `check` sees each
    first."""
    calls = []
    original = TPoly.__getattr__

    def spy(tp, name):
        if name == "coeffs":
            calls.append(tp._form[:2])
            if check is not None:
                check(*calls[-1])
        return original(tp, name)

    monkeypatch.setattr(TPoly, "__getattr__", spy)
    return calls


@pytest.fixture
def view_builds(monkeypatch):
    """The TPoly coeffs views built while a test runs."""
    return spy_views(monkeypatch)


def rand_rational(ring: SeriesRing, rng: random.Random, size: int) -> Series:
    """Fraction-only terms with multi-term TPoly coefficients and assorted
    denominators."""
    terms = {}
    for _ in range(size):
        room = rng.randint(0, ring.cap)
        exps = []
        for v in ring.variables:
            e = rng.randint(0, room)
            room -= e
            exps.append(e)
        terms[tuple(exps)] = TPoly({k: Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 7, 49, 12)))
                                    for k in rng.sample(range(5), rng.randint(1, 4))})
    return Series(ring, terms)


def p_constant(q: Fraction, n: int, r: int) -> Fraction:
    """Π_{j<n} (1 − q^j)^(r+1), the constant term of the product Ψ divides by."""
    out = Fraction(1)
    for j in range(1, n):
        out *= (1 - q ** j) ** (r + 1)
    return out


# Negative, non-unit and unit constant terms.
RATIONAL_CONSTANTS = [p_constant(Fraction(5, 7), 4, 1), -p_constant(Fraction(5, 7), 3, 2),
                      p_constant(Fraction(2), 4, 2), p_constant(Fraction(-3), 3, 1),
                      Fraction(-1), Fraction(1), Fraction(-12, 49)]


def test_integer_path_matches_references_on_rationals(view_builds):
    rng = random.Random("series-int-path")
    for ring in (SeriesRing(("x",), 7), SeriesRing(("x", "y"), 5),
                 SeriesRing(("x", "y", "w"), 3)):
        for c0 in RATIONAL_CONSTANTS:
            a = rand_rational(ring, rng, rng.randint(1, 10))
            b = rand_rational(ring, rng, rng.randint(1, 10))
            unit = b - ring.scalar(b.constant_term()) + ring.scalar(c0)
            for got, want in ((a * b, ref_mul(a, b)),
                              (unit.invert(), ref_invert(unit)),
                              (a / unit, ref_mul(a, ref_invert(unit)))):
                assert got.to_json() == want.to_json()
                assert_lowest_fractions(got)
    assert view_builds


def test_integer_path_products_that_cancel(view_builds):
    ring = SeriesRing(("x", "y"), 4)
    rng = random.Random("series-int-cancel")
    for _ in range(10):
        a = rand_rational(ring, rng, rng.randint(1, 8))
        # a(x, y)·a(x, −y) is even in y: every odd-y coefficient cancels
        prod = a * a.negate_vars(("y",))
        assert prod.to_json() == ref_mul(a, a.negate_vars(("y",))).to_json()
        assert all(e[1] % 2 == 0 for e in prod.terms)
        assert_lowest_fractions(prod)
        assert (a * (-a) + a * a).is_zero()
    t = ring.one() * TPoly.t()
    x = ring.var("x")
    assert ((t + x) * (t - x)).to_json() == (t * t - x * x).to_json()
    assert (ring.var("x", 3) * ring.var("y", 2) * Fraction(5, 3)).is_zero()
    unit = ring.scalar(Fraction(-5, 7)) + x * Fraction(2, 3)
    assert (ring.zero() / unit).is_zero()
    assert ((x * unit) / unit).to_json() == x.to_json()


def test_affine_t_integer_path_matches_power_loop(view_builds):
    rng = random.Random("affine-t-int")
    for _ in range(40):
        tp = TPoly({k: Fraction(rng.randint(-30, 30), rng.choice((1, 2, 7, 12)))
                    for k in rng.sample(range(7), rng.randint(0, 5))})
        for a, b in ((1, -1), (-1, 1), (2, 3), (rng.randint(-3, 3), rng.randint(-3, 3))):
            got = affine_of(tp, a, b)
            assert got.to_json() == ref_affine_t(tp, a, b).to_json()
            assert_lowest_fractions(got)
    assert view_builds
    # (t − 1)^2 at t -> t + 1 is t^2: the t and constant terms cancel
    assert affine_of(TPoly({2: Fraction(1), 1: Fraction(-2), 0: Fraction(1)}), 1, 1) == \
        TPoly({2: 1})


def test_mixed_operands_match_references_without_a_scalar_gcd(monkeypatch):
    # An operation with a CycloNumber operand lifts the rational one's int
    # numerators to Z[zeta_5] and runs the shared kernels on int tuples: every
    # gcd of the reduction to lowest terms sees ints only.
    gcd_args = []
    int_gcd = exact.gcd

    def spy(*args):
        if not all(type(v) is int for v in args):
            raise AssertionError(f"gcd of a non-int: {args!r}")
        gcd_args.append(args)
        return int_gcd(*args)

    monkeypatch.setattr(exact, "gcd", spy)
    rng = random.Random("series-mixed")
    ring = SeriesRing(("x", "y"), 4)
    zeta = CycloNumber.zeta(5)
    for c0 in RATIONAL_CONSTANTS[:3]:
        a = rand_rational(ring, rng, rng.randint(1, 8))
        b = rand_rational(ring, rng, rng.randint(1, 8)) + ring.var("y") * zeta
        unit = b - ring.scalar(b.constant_term()) + ring.scalar(c0)
        c = rand_rational(ring, rng, 4)
        cyclo_unit = c - ring.scalar(c.constant_term()) + ring.scalar((lift(zeta) + 2).value)
        rational_unit = c - ring.scalar(c.constant_term()) + ring.scalar(c0)
        for left, right in ((a, b), (b, a)):
            assert (left * right).to_json() == ref_mul(left, right).to_json()
            assert (left + right).to_json() == ref_sum(left, right).to_json()
            assert (left - right).to_json() == \
                ref_sum(left, ref_map(right, lambda tp: -tp)).to_json()
        assert unit.invert().to_json() == ref_invert(unit).to_json()
        assert (a / unit).to_json() == ref_mul(a, ref_invert(unit)).to_json()
        assert (a / cyclo_unit).to_json() == ref_mul(a, ref_invert(cyclo_unit)).to_json()
        assert (b / rational_unit).to_json() == ref_mul(b, ref_invert(rational_unit)).to_json()
        assert (a * zeta).to_json() == ref_map(a, lambda tp: tp * zeta).to_json()
        assert (a * TPoly({1: zeta})).to_json() == \
            ref_map(a, lambda tp: tp * TPoly({1: zeta})).to_json()
        for s in (b, -b, b * Fraction(-2, 3), b * TPoly({0: Fraction(1, 2), 1: Fraction(3)})):
            assert s.affine_t(1, -1).to_json() == \
                ref_map(s, lambda tp: ref_affine_t(tp, 1, -1)).to_json()
    # the rational operands went through gcd, on ints only
    assert gcd_args
    # t -> a*t + b on a CycloNumber coefficient runs on Z[zeta_5] numerators,
    # and its coefficients are built at order 5, never as Fractions; a
    # non-integer a or b on a rational series stays on int numerators
    def refuse(order, den):
        if order is None:
            raise AssertionError("a Fraction built for a CycloNumber coefficient")

    tp = TPoly({0: Fraction(1, 3), 2: zeta})
    want = ref_affine_t(tp, 1, -1)
    want_coeffs = want.coeffs
    monkeypatch.undo()
    built = spy_views(monkeypatch, refuse)
    got = affine_of(tp, 1, -1)
    assert got.to_json() == want.to_json() and built == []
    assert got.coeffs == want_coeffs and built == [(5, 3)]
    monkeypatch.undo()
    rational = TPoly({0: Fraction(1, 3), 2: Fraction(5)})
    assert affine_of(rational, Fraction(1, 2), -1).to_json() == \
        ref_affine_t(rational, Fraction(1, 2), -1).to_json()


# -- the integer form ---------------------------------------------------------
# A series whose coefficients are all Fractions is kept as int numerators over
# one denominator between operations, and its TPoly terms are built from them
# when first read.  Every kernel is checked here on operands in that form,
# against the TPoly references above, byte for byte.

def terms_built(s: Series) -> bool:
    """Whether s holds its TPoly terms, read without building them."""
    try:
        Series.__dict__["terms"].__get__(s, Series)
    except AttributeError:
        return False
    return True


def numerators(s: Series) -> dict:
    """s's numerators as {exponent tuple: {t-power: numerator}}: each key of
    its flat form is the packed key of its tuple (so its degree field holds
    the tuple's degree) below the t-power, which starts at bit `_toff`."""
    ring, out = s.ring, {}
    for key, v in s._numer.items():
        exps = ring._unpack(key)
        assert ring._pack(exps) == key & ring._mono == key % (1 << ring._toff), (key, exps)
        out.setdefault(exps, {})[key >> ring._toff] = v
    return out


def assert_integer_form(s: Series):
    """s is in integer form, in lowest terms, and its terms (read here)
    are those numerators over that denominator."""
    den, num = s._denom, numerators(s)
    assert type(den) is int and den > 0
    assert all(slot and all(type(v) is int and v for v in slot.values())
               for slot in num.values())
    values = [v for slot in num.values() for v in slot.values()]
    assert gcd(den, *values) == 1
    assert s.terms.keys() == num.keys()
    for e, slot in num.items():
        assert s.terms[e].coeffs == {k: Fraction(v, den) for k, v in slot.items()}
    assert den == lcm(*(c.denominator for tp in s.terms.values() for c in tp.coeffs.values()))
    assert_lowest_fractions(s)


def test_from_numerators_checks_and_reduces():
    ring = SeriesRing(("x", "y"), 3)
    s = Series.from_numerators(ring, 12, {(1, 0): {0: -4, 2: 0}, (0, 0): {1: 6},
                                          (2, 2): {0: 5}, (0, 1): {3: 0}})
    assert_integer_form(s)
    assert not terms_built(Series.from_numerators(ring, 3, {(1, 1): {0: 1}}))
    assert s.to_json() == Series(ring, {(1, 0): TPoly({0: Fraction(-1, 3)}),
                                        (0, 0): TPoly({1: Fraction(1, 2)})}).to_json()
    assert Series.from_numerators(ring, 5, {(3, 1): {0: 1}}) == ring.zero()
    with pytest.raises(ValueError, match="negative"):
        Series.from_numerators(ring, 1, {(-1, 2): {0: 1}})
    with pytest.raises(ValueError, match="2 exponents"):
        Series.from_numerators(ring, 1, {(1,): {0: 1}})
    with pytest.raises(ValueError, match="negative t-exponent"):
        Series.from_numerators(ring, 1, {(1, 0): {-1: 1}})
    with pytest.raises(ValueError, match="negative t-exponent"):
        Series(ring, {(1, 0): TPoly({-1: 1})})
    for den in (0, -2):
        with pytest.raises(ValueError, match="positive"):
            Series.from_numerators(ring, den, {(1, 0): {0: 1}})


def fresh(s: Series) -> Series:
    """s in integer form with no terms built: a copy through a kernel."""
    out = s * 1
    assert not terms_built(out)
    return out


INTEGER_FORM_OPS = {
    "add": (lambda a, b, u: a + b, lambda a, b, u: ref_sum(a, b)),
    "sub": (lambda a, b, u: a - b,
            lambda a, b, u: ref_sum(a, ref_map(b, lambda tp: -tp))),
    "neg": (lambda a, b, u: -a, lambda a, b, u: ref_map(a, lambda tp: -tp)),
    "int": (lambda a, b, u: a * -6, lambda a, b, u: ref_map(a, lambda tp: tp * -6)),
    "fraction": (lambda a, b, u: a * Fraction(-14, 9),
                 lambda a, b, u: ref_map(a, lambda tp: tp * Fraction(-14, 9))),
    "zero": (lambda a, b, u: a * 0, lambda a, b, u: ref_map(a, lambda tp: tp * 0)),
    "tpoly": (lambda a, b, u: a * TPoly({0: Fraction(3, 4), 2: Fraction(-6)}),
              lambda a, b, u: ref_map(a, lambda tp: tp * TPoly({0: Fraction(3, 4),
                                                                 2: Fraction(-6)}))),
    "mul": (lambda a, b, u: a * b, lambda a, b, u: ref_mul(a, b)),
    "square": (lambda a, b, u: a * a, lambda a, b, u: ref_mul(a, a)),
    "div": (lambda a, b, u: a / u, lambda a, b, u: ref_mul(a, ref_invert(u))),
    "invert": (lambda a, b, u: u.invert(), lambda a, b, u: ref_invert(u)),
    "shift": (lambda a, b, u: a.affine_t(1, -1),
              lambda a, b, u: ref_map(a, lambda tp: ref_affine_t(tp, 1, -1))),
    "reflect": (lambda a, b, u: a.affine_t(-1, 1),
                lambda a, b, u: ref_map(a, lambda tp: ref_affine_t(tp, -1, 1))),
    "scale-t": (lambda a, b, u: a.affine_t(2, 0),
                lambda a, b, u: ref_map(a, lambda tp: ref_affine_t(tp, 2, 0))),
    "constant-t": (lambda a, b, u: a.affine_t(0, 3),
                   lambda a, b, u: ref_map(a, lambda tp: ref_affine_t(tp, 0, 3))),
    "negate-var": (lambda a, b, u: a.negate_vars(a.ring.variables[:1]),
                   lambda a, b, u: Series(a.ring, {e: -tp if e[0] % 2 else tp
                                                   for e, tp in a.terms.items()})),
    "coefficient-of": (lambda a, b, u: a.coefficient_of(a.ring.variables[0], 1),
                       lambda a, b, u: Series(a.ring, {(0,) + e[1:]: tp for e, tp in a.terms.items()
                                                       if e[0] == 1})),
}


def integer_form_cases(seed: str):
    """Seeded (a, b, unit) triples over three rings, a and b with assorted
    denominators, unit with one of RATIONAL_CONSTANTS as constant term."""
    rng = random.Random(seed)
    for ring in (SeriesRing(("x",), 6), SeriesRing(("x", "y"), 4),
                 SeriesRing(("x", "y", "w"), 3)):
        for c0 in RATIONAL_CONSTANTS:
            a = rand_rational(ring, rng, rng.randint(0, 9))
            b = rand_rational(ring, rng, rng.randint(1, 9))
            unit = b - ring.scalar(b.constant_term()) + ring.scalar(c0)
            yield a, b, unit


@pytest.mark.parametrize("op", INTEGER_FORM_OPS)
def test_integer_form_matches_references(op):
    kernel, reference = INTEGER_FORM_OPS[op]
    for a, b, unit in integer_form_cases(f"integer-form:{op}"):
        want = reference(a, b, unit).to_json()
        got = kernel(fresh(a), fresh(b), fresh(unit))
        assert not terms_built(got)
        assert got.to_json() == want
        assert_integer_form(got)
        # operands made from TPolys, scanned when made, agree
        assert kernel(a, b, unit).to_json() == want


# -- the form at q = zeta_N ---------------------------------------------------
# A series with a coefficient that has a nonzero zeta-component (a CycloNumber
# at q = zeta_N) holds the Z[zeta_N] coefficients of its values, tuples of
# phi(N) ints, over one positive int, and runs the same kernels; an operation
# with one such operand reads an int numerator a of the other as
# (a, 0, ..., 0).  A result with no zeta-component drops to int numerators.
# Every kernel is checked here on zeta_7 and mixed operands against the TPoly
# references above, byte for byte.  SCALAR_FORM_OPS is INTEGER_FORM_OPS plus
# the ops that take a scalar, a rational t-shift or a substitution.

ZETA7 = CycloNumber.zeta(7)


def substitute_op(a, b, u):
    """a with its first variable sent to b less its constant term."""
    image = b - b.ring.scalar(b.constant_term())
    return a.substitute({a.ring.variables[0]: image}, a.ring)


def substitute_ref(a, b, u):
    image = b - b.ring.scalar(b.constant_term())
    return ref_substitute(a, {a.ring.variables[0]: image}, a.ring)


SCALAR_FORM_OPS = {
    **INTEGER_FORM_OPS,
    "cyclo": (lambda a, b, u: a * ZETA7, lambda a, b, u: ref_map(a, lambda tp: tp * ZETA7)),
    "cyclo-add": (lambda a, b, u: ZETA7 - a,
                  lambda a, b, u: ref_sum(a.ring.scalar(ZETA7), ref_map(a, lambda tp: -tp))),
    "cyclo-tpoly": (lambda a, b, u: a * TPoly({0: Fraction(1, 2), 1: ZETA7}),
                    lambda a, b, u: ref_map(a, lambda tp: tp * TPoly({0: Fraction(1, 2),
                                                                      1: ZETA7}))),
    "half-shift": (lambda a, b, u: a.affine_t(Fraction(1, 2), -1),
                   lambda a, b, u: ref_map(a, lambda tp: ref_affine_t(tp, Fraction(1, 2), -1))),
    "third-shift": (lambda a, b, u: a.affine_t(-2, Fraction(1, 3)),
                    lambda a, b, u: ref_map(a, lambda tp: ref_affine_t(tp, -2, Fraction(1, 3)))),
    "set-var-zero": (lambda a, b, u: a.set_var_zero(a.ring.variables[-1]),
                     lambda a, b, u: Series(a.ring, {e: tp for e, tp in a.terms.items()
                                                     if e[-1] == 0})),
    "substitute": (substitute_op, substitute_ref),
}


def rand_in_form(ring: SeriesRing, rng: random.Random, cyclo: bool, size: int) -> Series:
    """rand_rational, or with cyclo set random terms over Q(zeta_7) plus a
    zeta_7 term, so that the series is stored at order 7."""
    if not cyclo:
        return rand_rational(ring, rng, size)
    return rand_terms(ring, rng, 7, size) + ring.var(ring.variables[-1]) * ZETA7


def scalar_form_cases(seed: str):
    """Seeded (a, b, unit) triples over three rings: all three at order 7,
    or only a, or only b and unit."""
    rng = random.Random(seed)
    for ring in (SeriesRing(("x",), 6), SeriesRing(("x", "y"), 4),
                 SeriesRing(("x", "y", "w"), 3)):
        for cyclo in ("abu", "a", "bu"):
            a = rand_in_form(ring, rng, "a" in cyclo, rng.randint(0, 9))
            b = rand_in_form(ring, rng, "b" in cyclo, rng.randint(1, 9))
            u = rand_in_form(ring, rng, "u" in cyclo, rng.randint(0, 6))
            c0 = rng.choice(RATIONAL_CONSTANTS + ([(lift(ZETA7) + 3).value] if "u" in cyclo else []))
            yield a, b, u - ring.scalar(u.constant_term()) + ring.scalar(c0)


def assert_cyclo_form(s: Series, order: int = 7):
    """s is stored at the order: tuples of phi(order) ints, no zero
    numerator and no empty slot, some numerator with a zeta-component, over
    a positive int in lowest terms; its terms (read here) are those
    numerators over that denominator."""
    den, num = s._denom, numerators(s)
    assert s._order == order
    assert type(den) is int and den > 0
    phi = exact.euler_phi(order)
    values = []
    for slot in num.values():
        assert slot
        for v in slot.values():
            assert type(v) is tuple and len(v) == phi and all(type(a) is int for a in v)
            assert any(v)
            values += v
    assert any(any(v[1:]) for slot in num.values() for v in slot.values())
    assert gcd(den, *values) == 1
    assert s.terms.keys() == num.keys()
    for e, slot in num.items():
        assert s.terms[e].coeffs == {k: CycloNumber(order, [Fraction(a, den) for a in v])
                                     for k, v in slot.items()}


def assert_stored_form(s: Series):
    """s is in integer form or at order 7, as its values ask."""
    if s._order is None:
        assert_integer_form(s)
    else:
        assert_cyclo_form(s)


@pytest.mark.parametrize("op", SCALAR_FORM_OPS)
def test_scalar_form_matches_references(op):
    kernel, reference = SCALAR_FORM_OPS[op]
    for a, b, unit in scalar_form_cases(f"scalar-form:{op}"):
        want = reference(a, b, unit).to_json()
        got = kernel(fresh(a), fresh(b), fresh(unit))
        assert not terms_built(got)
        assert got.to_json() == want
        assert_stored_form(got)
        # operands made from TPolys, scanned when made, agree
        assert kernel(a, b, unit).to_json() == want


def test_one_cyclo_operand_puts_the_result_at_its_order():
    rng = random.Random("scalar-form-of-results")
    ring = SeriesRing(("x", "y"), 4)
    rational, unit = rand_rational(ring, rng, 6), rand_rational(ring, rng, 6)
    unit = unit - ring.scalar(unit.constant_term()) + ring.one()
    cyclo = rand_terms(ring, rng, 7, 6) + ring.var("x") * ZETA7
    assert cyclo._order == 7 and fresh(rational)._order is None
    for got in (rational + cyclo, cyclo - rational, rational * cyclo, cyclo / unit,
                rational / (cyclo - ring.scalar(cyclo.constant_term()) + ring.one()),
                rational * ZETA7, rational * TPoly({1: ZETA7}), -cyclo,
                rational.substitute({"x": cyclo - ring.scalar(cyclo.constant_term())}, ring),
                cyclo.negate_vars(["y"]), cyclo.coefficient_of("x", 1)):
        assert_cyclo_form(got)
    # a rational t-shift of a rational series stays in integer form, with
    # the numerators of the same values made from TPolys
    half = rational.affine_t(Fraction(1, 2), 0)
    assert_integer_form(half)
    twin = fresh(ref_map(rational, lambda tp: ref_affine_t(tp, Fraction(1, 2), 0)))
    assert (half._denom, half._numer) == (twin._denom, twin._numer)
    # a series made from TPolys is scanned into the form when made, and
    # keeps no terms
    made = Series(ring, {(1, 0): TPoly({0: (lift(ZETA7) / 2).value, 2: Fraction(3)})})
    assert not terms_built(made) and not made.is_zero()
    assert_cyclo_form(made + ring.zero())
    assert (made._order, made._denom, numerators(made)) == \
        (7, 2, {(1, 0): {0: (0, 1, 0, 0, 0, 0), 2: (6, 0, 0, 0, 0, 0)}})
    zero = cyclo - cyclo
    assert zero.is_zero() and (zero._order, zero._denom, zero._numer) == (None, 1, {})
    assert zero == ring.zero()


def test_operands_of_two_orders_are_refused():
    ring = SeriesRing(("x", "y"), 3)
    zeta5 = CycloNumber.zeta(5)
    at5 = ring.var("x") * zeta5 + ring.one()
    at7 = ring.var("y") * ZETA7 + ring.one()
    for op in (lambda: at5 + at7, lambda: at7 - at5, lambda: at5 * at7, lambda: at5 / at7,
               lambda: at7 * zeta5, lambda: at5 + ZETA7, lambda: at5 * TPoly({1: ZETA7}),
               lambda: at5.substitute({"x": at7 - ring.one()}, ring),
               lambda: Series(ring, {(1, 0): TPoly({0: zeta5}),
                                     (0, 1): TPoly({0: ZETA7})}) + ring.one()):
        with pytest.raises(TypeError, match="cannot mix cyclotomic orders 5 and 7"):
            op()
    # a rational value reads alike at every order
    assert at5 * CycloNumber.from_rational(7, 3) == at5 * 3
    assert (at5 - ring.var("x") * zeta5) + at7 == at7 + 1


def test_rational_values_drop_to_integer_form():
    rng = random.Random("scalar-form-equal")
    ring = SeriesRing(("x", "y"), 4)
    for _ in range(8):
        a = fresh(rand_rational(ring, rng, 6))
        # the same values reached at order 7: rational CycloNumbers, and a
        # zeta_7 term added and taken away again
        as_cyclo = fresh(ref_map(a, lambda tp: map_coeffs(
            tp, lambda c: CycloNumber.from_rational(7, c))))
        cancelled = (a + ring.var("y") * ZETA7) - ring.var("y") * ZETA7
        for twin in (as_cyclo, cancelled):
            assert not terms_built(twin)
            assert (twin._order, twin._denom, twin._numer) == (None, a._denom, a._numer)
            assert twin == a and a == twin
            assert twin.first_mismatch(a) is None
            assert twin.to_json() == a.to_json()
            assert_integer_form(twin)
        bumped = cancelled + ring.var("x", 2) * Fraction(1, 5)
        assert bumped != a and a != bumped
        assert bumped.first_mismatch(a)[0] == (2, 0)


def test_equal_values_have_equal_forms():
    # Series(ring, terms) stores the form that every other constructor and a
    # kernel store for the same values, and builds no terms
    rng = random.Random("equal-forms")
    ring = SeriesRing(("x", "y"), 4)
    for cyclo in (False, False, False, True, True, True):
        source = rand_in_form(ring, rng, cyclo, 6)
        terms = dict(source.terms)
        made = Series(ring, terms)
        assert not terms_built(made)
        twins = [pickle.loads(pickle.dumps(made)), Series.from_json(ring, source.to_json()),
                 (made + source) - source]
        if not cyclo:
            # rational-valued CycloNumbers of two orders, and int numerators
            twins += [Series(ring, {e: map_coeffs(tp, lambda c: CycloNumber.from_rational(n, c))
                                    for e, tp in terms.items()}) for n in (5, 7)]
            den = lcm(*(c.denominator for tp in terms.values() for c in tp.coeffs.values()))
            twins.append(Series.from_numerators(ring, den, {
                e: {k: int(c * den) for k, c in tp.coeffs.items()} for e, tp in terms.items()}))
        for twin in twins:
            assert not terms_built(twin)
            assert (twin._order, twin._denom, twin._numer) == \
                (made._order, made._denom, made._numer)
            assert twin == made
        assert made._order == (7 if cyclo else None)
        assert made.to_json() == source.to_json()
    # a term map that mixes two orders is refused when it is made
    with pytest.raises(TypeError, match="cannot mix cyclotomic orders 5 and 7"):
        Series(ring, {(1, 0): TPoly({0: CycloNumber.zeta(5)}), (0, 1): TPoly({0: ZETA7})})


def test_cyclo_form_round_trips_unread():
    ring = SeriesRing(("x", "y"), 4)
    rng = random.Random("scalar-pickle")
    for _ in range(6):
        s = fresh(rand_terms(ring, rng, 7, 6) + ring.var("x") * ZETA7) * \
            fresh(rand_rational(ring, rng, 6) + ring.one())
        twins = [pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)]
        assert not terms_built(s)
        for twin in twins:
            assert not terms_built(twin)
            assert (twin._order, twin._denom, twin._numer) == (7, s._denom, s._numer)
            assert twin == s
            assert twin.to_json() == s.to_json()
            assert_cyclo_form(twin)


def test_cyclo_quotient_makes_no_scalar_product_or_inverse(monkeypatch):
    # At q = zeta_7 both sides of a quotient are multiplied by the Galois
    # cofactor of the divisor's constant term, and the recurrence runs on
    # int-scaled Z[zeta_7] numerators: no CycloNumber is multiplied,
    # inverted or built.
    rng = random.Random("cyclo-quotient")
    orders = []
    shared = exact._galois_cofactor

    def cofactor(order, num):
        orders.append(order)
        return shared(order, num)

    def refuse(*args):
        raise AssertionError("a CycloNumber multiplied, inverted or built")

    for ring in (SeriesRing(("x",), 6), SeriesRing(("x", "y"), 4)):
        for _ in range(4):
            a = fresh(rand_in_form(ring, rng, True, 6))
            b = rand_in_form(ring, rng, True, 6)
            unit = fresh(b - ring.scalar(b.constant_term())
                         + ring.scalar((lift(ZETA7) + Fraction(rng.randint(1, 5), 3)).value))
            want, want_inverse = ref_mul(a, ref_invert(unit)).to_json(), ref_invert(unit).to_json()
            with monkeypatch.context() as m:
                for name in ("inverse", "__mul__", "__rmul__"):
                    m.setattr(CycloNumber, name, refuse)
                m.setattr(exact, "_make", refuse)
                m.setattr(exact, "_numerator_inverse", refuse)
                m.setattr(series_module, "_galois_cofactor", cofactor)
                orders.clear()
                got, inverse = a / unit, unit.invert()
                assert not terms_built(got) and not terms_built(inverse)
            assert orders == [7, 7]
            assert got.to_json() == want and inverse.to_json() == want_inverse


def test_the_galois_cofactor_has_one_helper(monkeypatch):
    # CycloNumber.inverse and the Series quotient at q = zeta_N share it
    orders = []
    shared = exact._galois_cofactor

    def spy(order, num):
        orders.append(order)
        return shared(order, num)

    monkeypatch.setattr(exact, "_galois_cofactor", spy)
    monkeypatch.setattr(series_module, "_galois_cofactor", spy)
    x = CycloNumber(7, [1, 2, 0, -1])
    assert x * x.inverse() == 1
    assert orders == [7]
    ring = SeriesRing(("x",), 3)
    unit = ring.var("x") + ring.scalar(x)
    assert unit * unit.invert() == ring.one()
    assert orders == [7, 7]


def test_integer_form_sums_that_cancel_reduce():
    # over the lcm of the denominators a sum can share a factor with it;
    # the result is put back in lowest terms
    ring = SeriesRing(("x", "y"), 4)
    x = ring.var("x")
    half = fresh(x * Fraction(1, 6) + x * Fraction(1, 3))
    assert (half._denom, numerators(half)) == (2, {(1, 0): {0: 1}})
    for a, b, _ in integer_form_cases("integer-cancel"):
        a, b = fresh(a), fresh(b)
        v = a.ring.var(a.ring.variables[-1])
        for got in ((a + b) - b, (b + a) + (-b), (a - b * v) + v * b):
            assert (got._denom, got._numer) == (a._denom, a._numer)
            assert_integer_form(got)
        assert (a - a).is_zero() and ((a - a)._denom, (a - a)._numer) == (1, {})


def views_built(tp: TPoly) -> bool:
    """Whether tp holds its coeffs view, read without building it."""
    try:
        exact.TPoly.__dict__["coeffs"].__get__(tp, TPoly)
    except AttributeError:
        return False
    return True


def t_form(tp: TPoly) -> tuple:
    return exact._t_slot(tp)


# The TPoly operations among SCALAR_FORM_OPS, on TPoly operands.
TPOLY_FORM_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "neg": lambda a, b: -a,
    "int": lambda a, b: a * -6,
    "fraction": lambda a, b: a * Fraction(-14, 9),
    "zero": lambda a, b: a * 0,
    "tpoly": lambda a, b: a * TPoly({0: Fraction(3, 4), 2: Fraction(-6)}),
    "mul": lambda a, b: a * b,
    "square": lambda a, b: a * a,
    "cyclo": lambda a, b: a * ZETA7,
    "cyclo-add": lambda a, b: ZETA7 - a,
    "cyclo-tpoly": lambda a, b: a * TPoly({0: Fraction(1, 2), 1: ZETA7}),
}


@pytest.mark.parametrize("op", SCALAR_FORM_OPS)
def test_integer_form_results_do_not_depend_on_reads(op):
    # on operands in integer form, at order 7 and mixed alike; the TPoly
    # operations on the operands' terms, with or without their coeffs read
    kernel, _ = SCALAR_FORM_OPS[op]
    t_kernel = TPOLY_FORM_OPS.get(op)
    for a, b, unit in chain(integer_form_cases(f"integer-reads:{op}"),
                            scalar_form_cases(f"scalar-reads:{op}")):
        unread = kernel(fresh(a), fresh(b), fresh(unit))
        read = [fresh(a), fresh(b), fresh(unit)]
        for s in read:
            _ = s.terms
        once_read = kernel(*read)
        assert (once_read._order, once_read._denom, once_read._numer) == \
            (unread._order, unread._denom, unread._numer)
        assert once_read.to_json() == unread.to_json()
        if t_kernel is None:
            continue
        for ta, tb in zip(fresh(a).terms.values(), fresh(b).terms.values()):
            unread = t_kernel(ta, tb)
            assert not views_built(ta) and not views_built(tb) and not views_built(unread)
            ra, rb = (TPoly._from_form(*tp._form) for tp in (ta, tb))
            _ = ra.coeffs, rb.coeffs
            once_read = t_kernel(ra, rb)
            assert t_form(once_read) == t_form(unread)
            assert once_read.to_json() == unread.to_json()


def test_integer_form_round_trips_unread():
    ring = SeriesRing(("x", "y"), 4)
    rng = random.Random("integer-pickle")
    for _ in range(6):
        s = fresh(rand_rational(ring, rng, 6)) * fresh(rand_rational(ring, rng, 6))
        twins = [pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)]
        assert not terms_built(s)
        for twin in twins:
            assert not terms_built(twin)
            assert (twin._denom, twin._numer) == (s._denom, s._numer)
            assert twin == s
            assert twin.to_json() == s.to_json()
    # a series made from TPolys pickles through its form
    zeta = Series(ring, {(1, 0): TPoly({0: CycloNumber.zeta(5)})})
    assert pickle.loads(pickle.dumps(zeta)).to_json() == zeta.to_json()


def test_integer_form_equals_the_series_from_tpolys():
    rng = random.Random("integer-equal")
    ring = SeriesRing(("x", "y"), 4)
    for _ in range(10):
        a, b = rand_rational(ring, rng, 6), rand_rational(ring, rng, 6)
        prod = fresh(a) * fresh(b)
        from_tpolys = ref_mul(a, b)
        assert prod == from_tpolys and from_tpolys == prod
        assert prod.first_mismatch(from_tpolys) is None
        # the same values as rational CycloNumbers are equal too
        as_cyclo = ref_map(from_tpolys, lambda tp: map_coeffs(
            tp, lambda c: CycloNumber.from_rational(7, c)))
        assert prod == as_cyclo and as_cyclo == prod
        bumped = prod + ring.var("y", 3) * Fraction(1, 5)
        assert bumped != from_tpolys and from_tpolys != bumped
        assert bumped.first_mismatch(from_tpolys)[0] == (0, 3)
    assert fresh(ring.zero()) == Series(ring, {}) and ring.zero().is_zero()


def assert_admissible(s: Series):
    """The result equals its own re-validation: no zero coefficient, no term
    above the cap."""
    assert all(tp.coeffs for tp in s.terms.values())
    assert s.terms == Series(s.ring, s.terms).terms


@pytest.mark.parametrize("order", [None, 7])
def test_unchecked_results_are_admissible(order):
    rng = random.Random(f"series-trusted:{order}")
    for ring in (SeriesRing(("x", "y"), 4), SeriesRing(("x", "y", "z"), 3)):
        for _ in range(8):
            a = rand_terms(ring, rng, order, rng.randint(0, 10))
            b = rand_terms(ring, rng, order, rng.randint(0, 10))
            c = rand_scalar(rng, order)
            results = [
                a + b, a - b, a + (-a), -a, a * c, a * 0, c * a,
                a * TPoly.t(), a - a,
                Series(ring, {e: tp if sum(e) % 2 else TPoly.zero()
                              for e, tp in a.terms.items()}),
                a * b,
            ]
            unit = rand_unit(ring, rng, order, rng.randint(0, 8))
            results += [a / unit, unit.invert()]
            for s in results:
                assert_admissible(s)


# -- the shared kernels: exponent enumeration and repeated squaring ----------

def ref_exponents_up_to_cap(ring: SeriesRing) -> list[tuple[int, ...]]:
    """The recursive enumerator, sorted into graded-lex order afterwards."""
    nv = len(ring.variables)
    out = []

    def rec(i, remaining, prefix):
        if i == nv:
            out.append(prefix)
            return
        for e in range(remaining + 1):
            rec(i + 1, remaining - e, prefix + (e,))

    rec(0, ring.cap, ())
    out.sort(key=lambda t: (sum(t), t))
    return out


@pytest.mark.parametrize("nv", range(1, 8))
def test_exponents_up_to_cap_match_recursive_reference(nv):
    names = tuple(f"x{i}" for i in range(nv))
    for cap in range(9):
        ring = SeriesRing(names, cap)
        assert ring.exponents_up_to_cap() == ref_exponents_up_to_cap(ring)


def repeated(x, exp, one):
    out = one
    for _ in range(exp):
        out = out * x
    return out


def test_cyclo_and_tpoly_powers_match_repeated_products():
    # CycloNumber keeps only the product and the inverse: their repeated
    # products against the reference's powers
    rng = random.Random("pow-scalars")
    for order in (1, 2, 5, 7, 12):
        for _ in range(3):
            x = rand_scalar(rng, order)
            x = x if isinstance(x, CycloNumber) else CycloNumber.from_rational(order, x)
            one = CycloNumber.from_rational(order, 1)
            for exp in range(10):
                assert lift(x) ** exp == repeated(x, exp, one)
            if x:
                inv = x.inverse()
                for exp in range(1, 10):
                    assert lift(x) ** -exp == repeated(inv, exp, one)
    for order in (None, 5):
        for _ in range(4):
            tp = rand_coeff(rng, order)
            for exp in range(10):
                assert (tp ** exp).to_json() == repeated(tp, exp, TPoly.one()).to_json()
            with pytest.raises(ValueError):
                tp ** -1


@pytest.mark.parametrize("order", [None, 5])
def test_series_powers_match_repeated_products(order):
    rng = random.Random(f"pow-series:{order}")
    for ring in (SeriesRing(("x",), 6), SeriesRing(("x", "y"), 4)):
        for _ in range(3):
            s = rand_terms(ring, rng, order, rng.randint(0, 6))
            for exp in range(10):
                assert (s ** exp).to_json() == repeated(s, exp, ring.one()).to_json()
            u = rand_unit(ring, rng, order, rng.randint(0, 6))
            inv = u.invert()
            for exp in range(1, 10):
                assert (u ** -exp).to_json() == repeated(inv, exp, ring.one()).to_json()


# -- the flat form against a dict-of-TPoly model ------------------------------
# The model keeps a series as {exponent tuple: TPoly} and writes every
# operation term by term in TPoly arithmetic, with the cap applied to each
# term; the kernels run on the flat (t-power, monomial) keys.  The two meet
# in to_json and in the form of Series(ring, model), which scans TPolys.

def m_trim(ring: SeriesRing, terms: dict) -> dict:
    return {e: tp for e, tp in terms.items() if tp and sum(e) <= ring.cap}


def m_add(ring: SeriesRing, a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, tp in b.items():
        out[e] = out.get(e, TPoly.zero()) + tp * sign
    return m_trim(ring, out)


def m_mul(ring: SeriesRing, a: dict, b: dict) -> dict:
    out = {}
    for e1, t1 in a.items():
        for e2, t2 in b.items():
            e = tuple(map(add, e1, e2))
            if sum(e) <= ring.cap:
                out[e] = out.get(e, TPoly.zero()) + t1 * t2
    return m_trim(ring, out)


def m_div(ring: SeriesRing, a: dict, b: dict) -> dict:
    """Q with b·Q = a up to the cap, target by target in graded order."""
    zero = (0,) * len(ring.variables)
    inverse = value(1 / lift(b[zero].coeffs[0]))
    q = {}
    for target in ring.exponents_up_to_cap():
        acc = a.get(target, TPoly.zero())
        for e, tp in b.items():
            rest = tuple(x - y for x, y in zip(target, e))
            if e != zero and rest in q:
                acc = acc - tp * q[rest]
        if acc:
            q[target] = acc * inverse
    return q


def m_substitute(source: SeriesRing, a: dict, images: dict, target: SeriesRing) -> dict:
    total = {}
    for exps, tp in a.items():
        piece = {(0,) * len(target.variables): tp}
        for name, e in zip(source.variables, exps):
            for _ in range(e):
                piece = m_mul(target, piece, images[name])
        total = m_add(target, total, piece)
    return total


def m_json(terms: dict) -> list:
    return [{"exps": list(e), "coeff": terms[e].to_json()}
            for e in sorted(terms, key=series_module._term_sort_key)]


def rand_model(ring: SeriesRing, rng: random.Random, order, size: int, tmax: int) -> dict:
    terms = {}
    for _ in range(size):
        terms[rand_monomial(ring, rng, 0)] = TPoly({rng.randint(0, tmax): rand_scalar(rng, order)
                                                    for _ in range(rng.randint(1, 3))})
    return m_trim(ring, terms)


def assert_matches(got: Series, want: dict):
    """got is the model's series in value, form and JSON, and pickles."""
    ring = got.ring
    assert got.to_json() == m_json(want)
    made = Series(ring, want)
    assert got == made
    assert (got._order, got._denom, got._numer) == (made._order, made._denom, made._numer)
    twin = pickle.loads(pickle.dumps(got))
    assert twin == got and twin.to_json() == got.to_json()


@pytest.mark.parametrize("order", [None, 5, 12])
def test_flat_form_matches_the_term_model(order):
    rng = random.Random(f"flat-form:{order}")
    for cap in range(1, 7):
        ring = SeriesRing(("x", "y", "w")[:1 + cap % 3], cap)
        names = ring.variables
        for _ in range(3):
            tmax = rng.choice((3, 70))
            a = rand_model(ring, rng, order, rng.randint(0, 7), tmax)
            b = rand_model(ring, rng, order, rng.randint(1, 7), tmax)
            sa, sb = Series(ring, a), Series(ring, b)
            assert_matches(sa + sb, m_add(ring, a, b))
            assert_matches(sa - sb, m_add(ring, a, b, -1))
            assert_matches(-sa, m_add(ring, {}, a, -1))
            assert_matches(sa * sb, m_mul(ring, a, b))
            # sums that cancel to zero
            assert_matches(sa - sa, {})
            assert_matches((sa + sb) - sb, a)
            for factor in (TPoly({0: rand_scalar(rng, order), rng.randint(0, 70): Fraction(2, 3)}),
                           rand_scalar(rng, order), Fraction(-5, 6), 3, 0):
                assert_matches(sa * factor, m_trim(ring, {e: tp * factor for e, tp in a.items()}))
            # a divisor whose constant term is a nonzero t-free scalar
            unit = {e: tp for e, tp in rand_model(ring, rng, order, rng.randint(0, 4), 3).items()
                    if sum(e)}
            unit[(0,) * len(names)] = TPoly.const(rand_scalar(rng, order) or Fraction(1))
            assert_matches(sa / Series(ring, unit), m_div(ring, a, unit))
            for p, r in ((1, -1), (Fraction(1, 2), 0), (0, Fraction(2, 3)), (0, 0),
                         (Fraction(-3, 4), Fraction(1, 5))):
                assert_matches(sa.affine_t(p, r),
                               m_trim(ring, {e: ref_affine_t(tp, p, r) for e, tp in a.items()}))
            picked = rng.sample(names, rng.randint(1, len(names)))
            assert_matches(sa.negate_vars(picked), {
                e: -tp if sum(e[names.index(v)] for v in picked) % 2 else tp
                for e, tp in a.items()})
            i, power = rng.randrange(len(names)), rng.randint(0, cap)
            assert_matches(sa.coefficient_of(names[i], power), {
                e[:i] + (0,) + e[i + 1:]: tp for e, tp in a.items() if e[i] == power})
            # substitute into a ring of two variables, the images without
            # constant term, one of them rational
            dst = SeriesRing(("u", "v"), cap)
            images = {v: {e: tp for e, tp in rand_model(dst, rng, order if k else None,
                                                      rng.randint(1, 3), 2).items() if sum(e)}
                      for k, v in enumerate(names)}
            assert_matches(sa.substitute({v: Series(dst, img) for v, img in images.items()}, dst),
                           m_substitute(ring, a, images, dst))


@pytest.mark.parametrize("order", [5, 12])
def test_flat_form_results_with_no_zeta_part_drop_to_ints(order):
    rng = random.Random(f"flat-form-ints:{order}")
    zeta = CycloNumber.zeta(order)
    for cap in range(1, 7):
        ring = SeriesRing(("x", "y")[:1 + cap % 2], cap)
        a = rand_model(ring, rng, None, rng.randint(1, 6), 70)
        sa = Series(ring, a)
        with_zeta = Series(ring, rand_model(ring, rng, order, 4, 70)) + ring.var("x") * zeta
        assert with_zeta._order == order
        # ζ·ζ^(order−1) = 1, and a ζ-part added and taken away
        last = CycloNumber.zeta_power(order, order - 1)
        for got in ((sa * zeta) * last, (sa + with_zeta) - with_zeta,
                    (sa * ring.scalar(zeta)).substitute({"x": ring.var("x")}, ring) * last,
                    (sa * TPoly({0: zeta})) / ring.scalar(zeta)):
            assert got._order is None and all(type(v) is int for v in got._numer.values())
            assert_matches(got, a)
