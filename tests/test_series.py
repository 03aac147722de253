import random
from fractions import Fraction

import pytest

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
    ring = SeriesRing(("x", "z"), 3, uncapped=("z",))
    for exps in ((-1, 0), (0, -2), (4, -1)):
        with pytest.raises(ValueError, match="negative exponent"):
            Series(ring, {exps: TPoly.one()})
        with pytest.raises(ValueError, match="negative exponent"):
            Series.from_json(ring, [{"exps": list(exps), "coeff": TPoly.one().to_json()}])
    with pytest.raises(ValueError, match="negative exponent"):
        ring.monomial({"x": -1})
    with pytest.raises(ValueError, match="negative exponent"):
        ring.var("z", -3)


def test_in_ring_projection():
    # the constructor drops the terms above the cap, so it recasts a series
    # into a ring with the same variables and a lower cap
    big = SeriesRing(("x",), 6)
    small = SeriesRing(("x",), 2)
    s = Series(big, {(e,): TPoly.one() for e in range(7)})
    proj = Series(small, s.terms)
    assert proj.ring is small
    assert set(proj.terms) == {(0,), (1,), (2,)}


def test_uncapped_variable():
    ring = SeriesRing(("x", "z"), 2, uncapped=("z",))
    s = ring.monomial({"x": 1, "z": 9})
    assert not s.is_zero()
    assert ring.monomial({"x": 3}).is_zero()


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
    at_one = s.set_var_one("x")
    assert at_one.coefficient({}) == TPoly.const(Fraction(3))
    assert at_one.coefficient({"y": 1}) == TPoly.one()


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
    """Up to `size` terms of capped degree at most the cap."""
    terms = {}
    for _ in range(size):
        room = rng.randint(0, ring.cap)
        exps = []
        for v in ring.variables:
            if v in ring.uncapped:
                e = rng.randint(0, 3)
            else:
                e = rng.randint(0, room)
                room -= e
            exps.append(e)
        terms[tuple(exps)] = rand_coeff(rng, order)
    return Series(ring, terms)


@pytest.mark.parametrize("order", [None, 7])
def test_mul_matches_all_pairs_reference(order):
    rng = random.Random(f"series-mul:{order}")
    rings = [
        SeriesRing(("x", "y"), 5),
        SeriesRing(("x", "y", "z"), 3, uncapped=("z",)),
    ]
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
    uncapped = SeriesRing(("x", "z"), 3, uncapped=("z",))
    with pytest.raises(NonUnitConstantTerm):
        uncapped.one().invert()
    with pytest.raises(NonUnitConstantTerm):
        _ = uncapped.var("z") / uncapped.one()
    with pytest.raises(TypeError):
        _ = a / 2


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


def assert_admissible(s: Series):
    """The result equals its own re-validation: no zero coefficient, no term
    above the cap."""
    assert all(tp.coeffs for tp in s.terms.values())
    assert s.terms == Series(s.ring, s.terms).terms


@pytest.mark.parametrize("order", [None, 7])
def test_unchecked_results_are_admissible(order):
    rng = random.Random(f"series-trusted:{order}")
    rings = [
        SeriesRing(("x", "y"), 4),
        SeriesRing(("x", "y", "z"), 3, uncapped=("z",)),
    ]
    for ring in rings:
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
            if not ring.uncapped:
                unit = rand_unit(ring, rng, order, rng.randint(0, 8))
                results += [a / unit, unit.invert()]
            for s in results:
                assert_admissible(s)


# -- the shared kernels: exponent enumeration and repeated squaring ----------

def ref_exponents_up_to_cap(ring: SeriesRing) -> list[tuple[int, ...]]:
    """The recursive enumerator, sorted into graded-lex order afterwards."""
    nv = len(ring.variables)
    capped = [v not in ring.uncapped for v in ring.variables]
    out = []

    def rec(i, remaining, prefix):
        if i == nv:
            out.append(prefix)
            return
        if not capped[i]:
            rec(i + 1, remaining, prefix + (0,))
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
        rings = [SeriesRing(names, cap), SeriesRing(names + ("z",), cap, uncapped=("z",))]
        if nv >= 2:
            rings.append(SeriesRing(("z",) + names, cap, uncapped=("z",)))
            rings.append(SeriesRing(names, cap, uncapped=names[1:2]))
        for ring in rings:
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
    for ring in (SeriesRing(("x",), 6), SeriesRing(("x", "y"), 4),
                 SeriesRing(("x", "y", "z"), 3, uncapped=("z",))):
        for _ in range(3):
            s = rand_terms(ring, rng, order, rng.randint(0, 6))
            for exp in range(10):
                assert (s ** exp).to_json() == repeated(s, exp, ring.one()).to_json()
            if ring.uncapped:
                continue
            u = rand_unit(ring, rng, order, rng.randint(0, 6))
            inv = u.invert()
            for exp in range(1, 10):
                assert (u ** -exp).to_json() == repeated(inv, exp, ring.one()).to_json()
