from itertools import product

import pytest

from qharmonic.indices import (
    COMMA,
    MINUSPLUS,
    PLUS,
    HeightProfile,
    compositions,
    contract,
    depth,
    enumerate_indices,
    enumerate_patterns,
    height,
    heights,
    weight,
)


def test_weight_depth_height():
    k = (3, 1, 2)
    assert weight(k) == 6
    assert depth(k) == 3
    assert height(k, 1) == 2   # parts >= 2
    assert height(k, 2) == 1   # parts >= 3
    with pytest.raises(ValueError):
        height(k, 0)
    assert heights(k, 2) == (2, 1)
    assert weight(()) == 0 and depth(()) == 0


def test_composition_counts():
    # positive compositions of k into any number of parts: 2^(k-1)
    for k in range(1, 9):
        total = sum(len(compositions(k, l)) for l in range(k + 1))
        assert total == 2 ** (k - 1)
    # fixed depth: C(k-1, l-1)
    from qharmonic.exact import binomial
    for k in range(1, 9):
        for l in range(1, k + 1):
            assert len(compositions(k, l)) == binomial(k - 1, l - 1)
    assert compositions(0, 0) == ((),)
    assert compositions(3, 0) == ()


def test_compositions_lex_order():
    got = compositions(4, 2)
    assert got == ((1, 3), (2, 2), (3, 1))
    for total in range(-1, 8):
        for parts in range(0, 5):
            want = tuple(c for c in product(range(1, total + 1), repeat=parts)
                         if sum(c) == total)
            assert compositions(total, parts) == want


def test_compositions_bounds_and_empty_ranges():
    got = compositions(6, 3)
    assert got == ((1, 1, 4), (1, 2, 3), (1, 3, 2), (1, 4, 1), (2, 1, 3),
                   (2, 2, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1), (4, 1, 1))
    assert all(1 <= v <= 4 for c in got for v in c)
    # no tuple fits: too few units, none to share, or a negative total
    assert compositions(2, 3) == ()
    assert compositions(0, 1) == ()
    assert compositions(-1, 0) == ()
    assert compositions(0, 0) == ((),)


def test_enumerate_indices_by_profile():
    found = enumerate_indices(HeightProfile(4, 2, (1,)))
    # weight 4, depth 2, exactly one part >= 2
    assert found == ((1, 3), (3, 1))
    # empty profile holds exactly the empty index
    assert enumerate_indices(HeightProfile(0, 0)) == ((),)


def test_enumerate_indices_head_bound():
    # head bound j forces the first part to be at least j+2
    all_of_them = enumerate_indices(HeightProfile(5, 2, (2, 1)))
    bounded = enumerate_indices(HeightProfile(5, 2, (2, 1), 1))
    assert all_of_them == ((2, 3), (3, 2))
    assert bounded == ((3, 2),)


def test_profile_shape_validation():
    with pytest.raises(ValueError):
        HeightProfile(1, 2)           # weight below depth
    with pytest.raises(ValueError):
        HeightProfile(3, 1, (2,))     # 1-height above depth
    with pytest.raises(ValueError):
        HeightProfile(4, 2, (2, 1), 2)  # head bound past the height list
    with pytest.raises(ValueError):
        HeightProfile(2, 1, (), 0)      # no heights: only j = -1 is in range
    assert HeightProfile.try_make(1, 2, (), -1) is None
    assert HeightProfile.try_make(3, 2, (1,), -1) is not None


def test_contract_examples():
    # "+" merges adjacent parts, "-1+" merges and drops one
    assert contract((2, 1), (COMMA,)) == (2, 1)
    assert contract((2, 1), (PLUS,)) == (3,)
    assert contract((2, 1), (MINUSPLUS,)) == (2,)
    # positive parts always survive: a merge drops at most one unit
    assert contract((1, 1), (MINUSPLUS,)) == (1,)


def test_pattern_counts():
    for parts in [(1, 1), (2, 1, 1), (1, 1, 1, 1)]:
        l = len(parts)
        three = list(enumerate_patterns(parts, minusplus=True))
        two = list(enumerate_patterns(parts, minusplus=False))
        assert len(three) == 3 ** (l - 1)
        assert len(two) == 2 ** (l - 1)


def test_pattern_t_exponents():
    # t-exponent counts the merged boxes: depth drop from the original
    for contracted, texp in enumerate_patterns((2, 1, 1), minusplus=False):
        assert texp == 3 - len(contracted)


def test_minusplus_weight_drop():
    for contracted, texp in enumerate_patterns((2, 2, 1), minusplus=True):
        assert weight(contracted) >= weight((2, 2, 1)) - texp
        assert weight(contracted) <= weight((2, 2, 1))

