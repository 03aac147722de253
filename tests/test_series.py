import copy
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from qharmonic import exact
from qharmonic import series as series_module
from qharmonic.exact import CycloNumber, TPoly, scalar_inverse
from qharmonic.series import NonUnitConstantTerm, Series, SeriesRing


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


def ref_invert(s: Series) -> Series:
    """The coefficient recurrence with TPoly accumulation."""
    ring = s.ring
    inv0 = scalar_inverse(s.constant_term().coeffs[0])
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
            inv[target] = acc * (-inv0)
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


@pytest.mark.parametrize("order", [None, 7])
def test_division_forms_only_pairs_that_fit_the_cap(order, monkeypatch):
    # Push order: each solved Q[t] meets the divisor's nonconstant terms e
    # with deg(e) <= cap - deg(t), one product each, and nothing else.
    rng = random.Random(f"series-div-pairs:{order}")
    calls = []
    original = series_module._accumulate

    def counting(slot, left, right):
        calls.append(1)
        original(slot, left, right)

    for ring in (SeriesRing(("x", "y", "z"), 6), SeriesRing(("x", "y", "z", "w"), 4),
                 SeriesRing(("x", "y"), 5)):
        zero = (0,) * len(ring.variables)
        for _ in range(5):
            b = sparse_unit(ring, rng, order, rng.randint(1, 4))
            a = rand_terms(ring, rng, order, rng.randint(1, 6))
            monkeypatch.setattr(series_module, "_accumulate", counting)
            calls.clear()
            q = a / b
            monkeypatch.setattr(series_module, "_accumulate", original)
            degrees = [sum(e) for e in b.terms if e != zero]
            want = sum(1 for t in q.terms for d in degrees if d <= ring.cap - sum(t))
            assert len(calls) == want
            assert q.to_json() == ref_mul(a, ref_invert(b)).to_json()


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


def ref_affine_t(tp: TPoly, a, b) -> TPoly:
    """Substitute t -> a*t + b one power of the image at a time."""
    img = TPoly({1: Fraction(a), 0: Fraction(b)})
    out = TPoly.zero()
    for e, c in tp.coeffs.items():
        out = out + (img ** e) * c
    return out


@pytest.mark.parametrize("order", [None, 5])
def test_affine_t_matches_power_loop(order):
    rng = random.Random(f"affine-t:{order}")
    for _ in range(40):
        tp = TPoly({rng.randint(0, 6): rand_scalar(rng, order)
                    for _ in range(rng.randint(0, 5))})
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        b = rng.choice((Fraction(0), Fraction(-1), Fraction(1),
                        Fraction(rng.randint(-4, 4), rng.randint(1, 4))))
        got = tp.affine_t(a, b)
        assert got.to_json() == ref_affine_t(tp, a, b).to_json()
    assert TPoly({2: Fraction(3)}).affine_t(1, -1) == TPoly({0: 3, 1: -6, 2: 3})


# -- the integer path of the rational kernels --------------------------------
# Over Fractions the product, the quotient and the t -> a*t + b map run on int
# numerators over one denominator and build each output Fraction in
# exact._over; any other coefficient takes the generic path, which never
# reaches it.  The references above are checked byte for byte on both.

def assert_lowest_fractions(value):
    """Every coefficient of a Series or TPoly is a Fraction in lowest terms."""
    for tp in value.terms.values() if isinstance(value, Series) else (value,):
        for c in tp.coeffs.values():
            assert type(c) is Fraction
            assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


@pytest.fixture
def over_calls(monkeypatch):
    """The denominators of the output slots the integer path finishes."""
    calls = []
    original = exact._over

    def spy(raw, den):
        calls.append(den)
        return original(raw, den)

    monkeypatch.setattr(series_module, "_over", spy)
    monkeypatch.setattr(exact, "_over", spy)
    return calls


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


def test_integer_path_matches_references_on_rationals(over_calls):
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
    assert over_calls


def test_integer_path_products_that_cancel(over_calls):
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


def test_affine_t_integer_path_matches_power_loop(over_calls):
    rng = random.Random("affine-t-int")
    for _ in range(40):
        tp = TPoly({k: Fraction(rng.randint(-30, 30), rng.choice((1, 2, 7, 12)))
                    for k in rng.sample(range(7), rng.randint(0, 5))})
        for a, b in ((1, -1), (-1, 1), (2, 3), (rng.randint(-3, 3), rng.randint(-3, 3))):
            got = tp.affine_t(a, b)
            assert got.to_json() == ref_affine_t(tp, a, b).to_json()
            assert_lowest_fractions(got)
    assert over_calls
    # (t − 1)^2 at t -> t + 1 is t^2: the t and constant terms cancel
    assert TPoly({2: Fraction(1), 1: Fraction(-2), 0: Fraction(1)}).affine_t(1, 1) == TPoly({2: 1})


INTEGER_KERNELS = ("_int_sum", "_int_times", "_int_quotient", "_reduced")


def test_mixed_operands_take_the_generic_path(monkeypatch):
    # Reading a rational operand's .terms builds its Fractions in _over,
    # which is legitimate; what a CycloNumber operand must never reach is an
    # integer kernel.
    def refuse(*args):
        raise AssertionError("integer path taken with a CycloNumber operand")

    rng = random.Random("series-mixed")
    ring = SeriesRing(("x", "y"), 4)
    zeta = CycloNumber.zeta(5)
    cases = []
    for c0 in RATIONAL_CONSTANTS[:3]:
        a = rand_rational(ring, rng, rng.randint(1, 8))
        b = rand_rational(ring, rng, rng.randint(1, 8)) + ring.var("y") * zeta
        unit = b - ring.scalar(b.constant_term()) + ring.scalar(c0)
        c = rand_rational(ring, rng, 4)
        cyclo_unit = c - ring.scalar(c.constant_term()) + ring.scalar(zeta + 2)
        rational_unit = c - ring.scalar(c.constant_term()) + ring.scalar(c0)
        cases.append((a, b, unit, cyclo_unit, rational_unit))
    for name in INTEGER_KERNELS:
        monkeypatch.setattr(series_module, name, refuse)
    for a, b, unit, cyclo_unit, rational_unit in cases:
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
    # TPoly.affine_t: a CycloNumber coefficient, or a non-integer a or b,
    # takes the generic path, which builds no Fraction in _over
    monkeypatch.setattr(exact, "_over", refuse)
    tp = TPoly({0: Fraction(1, 3), 2: zeta})
    assert tp.affine_t(1, -1).to_json() == ref_affine_t(tp, 1, -1).to_json()
    rational = TPoly({0: Fraction(1, 3), 2: Fraction(5)})
    assert rational.affine_t(Fraction(1, 2), -1).to_json() == \
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


def assert_integer_form(s: Series):
    """s is in integer form, in lowest terms, and its terms (read here)
    are those numerators over that denominator."""
    den, num = s._denom, s._numer
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
        # operands made from TPolys, scanned on first use, agree
        assert kernel(a, b, unit).to_json() == want


def test_integer_form_sums_that_cancel_reduce():
    # over the lcm of the denominators a sum can share a factor with it;
    # the result is put back in lowest terms
    ring = SeriesRing(("x", "y"), 4)
    x = ring.var("x")
    half = fresh(x * Fraction(1, 6) + x * Fraction(1, 3))
    assert (half._denom, half._numer) == (2, {(1, 0): {0: 1}})
    for a, b, _ in integer_form_cases("integer-cancel"):
        a, b = fresh(a), fresh(b)
        v = a.ring.var(a.ring.variables[-1])
        for got in ((a + b) - b, (b + a) + (-b), (a - b * v) + v * b):
            assert (got._denom, got._numer) == (a._denom, a._numer)
            assert_integer_form(got)
        assert (a - a).is_zero() and ((a - a)._denom, (a - a)._numer) == (1, {})


@pytest.mark.parametrize("op", INTEGER_FORM_OPS)
def test_integer_form_results_do_not_depend_on_reads(op):
    kernel, _ = INTEGER_FORM_OPS[op]
    for a, b, unit in integer_form_cases(f"integer-reads:{op}"):
        unread = kernel(fresh(a), fresh(b), fresh(unit))
        read = [fresh(a), fresh(b), fresh(unit)]
        for s in read:
            _ = s.terms
        once_read = kernel(*read)
        assert (once_read._denom, once_read._numer) == (unread._denom, unread._numer)
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
    # a series that was never in integer form pickles through its terms
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
        as_cyclo = ref_map(from_tpolys, lambda tp: tp.map_coeffs(
            lambda c: CycloNumber.from_rational(7, c)))
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
                a.map_coeffs(lambda tp: tp * TPoly.t()),
                a.map_coeffs(lambda tp: tp - tp),
                a.map_terms(lambda e, tp: tp if sum(e) % 2 else TPoly.zero()),
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
    rng = random.Random("pow-scalars")
    for order in (1, 2, 5, 7, 12):
        for _ in range(3):
            x = rand_scalar(rng, order)
            x = x if isinstance(x, CycloNumber) else CycloNumber.from_rational(order, x)
            one = CycloNumber.from_rational(order, 1)
            for exp in range(10):
                assert x ** exp == repeated(x, exp, one)
            if x:
                inv = x.inverse()
                for exp in range(1, 10):
                    assert x ** -exp == repeated(inv, exp, one)
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
