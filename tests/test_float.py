"""Floating-point limit checks for the all-ones interpolated values.

The exact layer never touches floats; these tests pin down the numeric
boundary: the complex evaluation at exp(2*pi*i/n), against the literal
nested sum and the two-letter box-filling expansion, and its large-n limit
(-2*pi*i)^l times the rational-polynomial factor.
"""

import cmath
import random
from fractions import Fraction
from itertools import combinations, product

from qharmonic.genfun import xi_ones_coeff
from qharmonic.indices import COMMA, PLUS, contract, enumerate_patterns
from qharmonic.qseries import z_t_float

T_SAMPLES = (0.0, 0.5, 1.0, -1.25, 2.5)


def _literal_strict(parts, n):
    """The q-integer sum at q = exp(2*pi*i/n) from its definition: the
    summand product q^((k-1)m) / [m]^k over n > m_1 > ... > m_l > 0."""
    q = cmath.exp(2j * cmath.pi / n)
    total = 0j
    for ascending in combinations(range(1, n), len(parts)):
        term = 1 + 0j
        for k, m in zip(parts, reversed(ascending)):
            term *= q ** ((k - 1) * m) / ((1 - q ** m) / (1 - q)) ** k
        total += term
    return total


def _two_letter_terms(parts, n, t, strict):
    """The t-interpolation by its box fillings: t^(merges) times the strict
    sum of the contraction, one term per comma/plus word (2^(l-1) terms)."""
    if not parts:
        return [strict((), n)]
    words = product((COMMA, PLUS), repeat=len(parts) - 1)
    return [t ** (len(parts) - len(c)) * strict(c, n)
            for c in (contract(parts, boxes) for boxes in words)]


def _expansion_error(parts, n, t, strict) -> float:
    """|z_t_float - expansion| relative to the sum of the terms' sizes: the
    terms may cancel to 0, as at (1, 2, 1), n = 3, t = 1."""
    terms = _two_letter_terms(parts, n, t, strict)
    want = 0j
    for term in terms:
        want += term
    scale = sum(map(abs, terms))
    err = abs(z_t_float(parts, n, t) - want)
    return err / scale if scale else err


def test_z_t_float_matches_literal_expansion():
    # every t-weighted recursion against the expansion over the definition
    rng = random.Random(20261019)
    for _ in range(60):
        n = rng.randint(2, 12)
        parts = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 5)))
        t = rng.choice(T_SAMPLES)
        assert _expansion_error(parts, n, t, _literal_strict) < 1e-12, (parts, n, t)


def test_z_t_float_matches_two_letter_expansion_to_depth_8():
    # deeper and longer than the literal sum affords: the expansion reads the
    # strict sums (t = 0), which the test above pins to the definition, so
    # this checks the weight t q^m of each equality up to depth 8
    rng = random.Random(20261020)
    strict = lambda parts, n: z_t_float(parts, n, 0.0)
    for _ in range(200):
        n = rng.randint(2, 25)
        parts = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 8)))
        t = rng.choice(T_SAMPLES)
        assert _expansion_error(parts, n, t, strict) < 1e-12, (parts, n, t)


def test_z_t_float_does_not_expand_box_fillings():
    before = enumerate_patterns.cache_info()
    z_t_float((1, 2, 1, 3), 17, 0.5)
    z_t_float((1,) * 9, 40, -1.25)
    assert enumerate_patterns.cache_info() == before


def test_interpolation_endpoints_match_plain_merges():
    plain = _literal_strict((1, 2), 24)
    assert abs(z_t_float((1, 2), 24, 0.0) - plain) < 1e-12
    merged = _literal_strict((1, 1), 24) + _literal_strict((2,), 24)
    assert abs(z_t_float((1, 1), 24, 1.0) - merged) < 1e-12


def test_depth_two_value_is_affine_in_t():
    a = z_t_float((1, 1), 30, 0.0)
    b = z_t_float((1, 1), 30, 1.0)
    mid = z_t_float((1, 1), 30, 0.25)
    assert abs(mid - (0.75 * a + 0.25 * b)) < 1e-12


def test_all_ones_values_approach_limit():
    for l in (1, 2, 3):
        coeff = xi_ones_coeff(l)
        for t in (0.0, 0.5, 1.0):
            target = complex(float(coeff.eval(Fraction(t)))) * (-2j * cmath.pi) ** l
            errs = [abs(z_t_float((1,) * l, n, t) - target) for n in (50, 400)]
            assert errs[1] < errs[0], (l, t, errs)
            # absolute fallback: the depth-3 factor is exactly 0 at t=1
            rel = errs[1] / abs(target) if target != 0 else errs[1]
            assert rel < 0.1, (l, t, rel)


def test_error_shrinks_through_intermediate_n():
    coeff = xi_ones_coeff(2)
    target = complex(float(coeff.eval(Fraction(1, 2)))) * (-2j * cmath.pi) ** 2
    errs = [abs(z_t_float((1, 1), n, 0.5) - target) for n in (50, 150, 400)]
    assert errs[0] > errs[1] > errs[2]
