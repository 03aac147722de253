"""Multi-index combinatorics: weights, depths, i-heights, constrained index
enumeration, and the box-filling patterns of the t-interpolation."""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

MultiIndex = tuple[int, ...]

# box letters between adjacent parts
COMMA = 0        # keep the split
PLUS = 1         # merge, adding the parts
MINUSPLUS = 2    # merge, adding the parts minus one

def weight(parts: MultiIndex) -> int:
    return sum(parts)


def depth(parts: MultiIndex) -> int:
    return len(parts)


def height(parts: MultiIndex, i: int) -> int:
    """The i-height: number of parts >= i + 1."""
    if i < 1:
        raise ValueError("height index starts at 1")
    return sum(1 for p in parts if p >= i + 1)


def heights(parts: MultiIndex, r: int) -> tuple[int, ...]:
    return tuple(height(parts, i) for i in range(1, r + 1))


class HeightProfile:
    """Shape constraints (weight k, depth l, i-heights h, head bound j) for an
    index set.  Construction validates the shape invariants and raises on
    violations; use try_make when an out-of-shape tuple should read as the
    empty index set instead."""

    __slots__ = ("k", "l", "h", "j")

    def __init__(self, k: int, l: int, h: tuple[int, ...] = (), j: int = -1) -> None:
        h = tuple(h)
        if k < 0 or l < 0:
            raise ValueError("negative weight or depth")
        if any(x < 0 for x in h):
            raise ValueError("negative height")
        if any(a < b for a, b in zip(h, h[1:])):
            raise ValueError("heights must be non-increasing")
        if h and l < h[0]:
            raise ValueError("depth below 1-height")
        if k < l + sum(h):
            raise ValueError("weight below depth plus height total")
        if not -1 <= j <= len(h) - 1:
            raise ValueError("head bound out of range")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "j", j)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("HeightProfile is immutable")

    def __reduce__(self):
        return HeightProfile, (self.k, self.l, self.h, self.j)

    def __eq__(self, other) -> bool:
        if type(other) is not HeightProfile:
            return NotImplemented
        return (self.k, self.l, self.h, self.j) == (other.k, other.l, other.h, other.j)

    def __hash__(self) -> int:
        return hash((self.k, self.l, self.h, self.j))

    def __repr__(self) -> str:
        return f"HeightProfile(k={self.k!r}, l={self.l!r}, h={self.h!r}, j={self.j!r})"

    @classmethod
    def try_make(cls, k: int, l: int, h=(), j: int = -1) -> "HeightProfile | None":
        try:
            return cls(k, l, tuple(h), j)
        except ValueError:
            return None


# Unbounded: keys (total, parts) stay below the weights and series caps a run asks for.
@lru_cache(maxsize=None)
def compositions(total: int, parts: int) -> tuple[MultiIndex, ...]:
    """All tuples of `parts` positive integers summing to `total`, lex order.

    The parts are the gaps between 0, parts − 1 increasing cut points in
    1, ..., total − 1, and total; `combinations` yields the cut points, and
    so the tuples, in lex order."""
    if parts == 0 or total < parts:
        return ((),) if total == parts == 0 else ()
    return tuple(tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
                 for cuts in combinations(range(1, total), parts - 1))


# Unbounded: one key per height profile of a u- or x-monomial up to the run's cap.
@lru_cache(maxsize=None)
def _enumerate_indices_cached(k, l, h, j):
    if l == 0:
        if k == 0 and all(x == 0 for x in h) and j == -1:
            return ((),)
        return ()
    out = []
    r = len(h)
    for cand in compositions(k, l):
        if j >= 0 and cand[0] < j + 2:
            continue
        if r and heights(cand, r) != h:
            continue
        out.append(cand)
    return tuple(out)


def enumerate_indices(profile: HeightProfile) -> tuple[MultiIndex, ...]:
    """All indices matching the profile, in lexicographic order.  The empty
    profile (k = l = 0, heights zero) yields the empty index only for
    j = -1; any head bound excludes it."""
    return _enumerate_indices_cached(profile.k, profile.l, profile.h, profile.j)


def contract(parts: MultiIndex, boxes: tuple[int, ...]) -> MultiIndex | None:
    """Apply a box filling between adjacent parts.  Returns None if a merged
    part comes out nonpositive."""
    out = []
    cur = parts[0]
    for box, nxt in zip(boxes, parts[1:]):
        if box == COMMA:
            out.append(cur)
            cur = nxt
        elif box == PLUS:
            cur += nxt
        else:
            cur += nxt - 1
    out.append(cur)
    if any(p <= 0 for p in out):
        return None
    return tuple(out)


# Unbounded: one key per index a caller expands, and no package code calls it.
# The cache stays because this is the exported, independent reference for the
# prefix-sum engine, and the profiler's trace census reads its hits by name.
@lru_cache(maxsize=None)
def enumerate_patterns(parts: MultiIndex):
    """All contractions of the index under the three-letter box fillings
    (comma / plus / minusplus), the expansion of zbar_t and z_t.

    Returns ((contracted_index, t_exponent), ...) where the t-exponent is
    depth(parts) minus depth(contracted); entries follow the box-word
    enumeration order, so 3^(l-1) entries."""
    l = len(parts)
    if l == 0:
        return (((), 0),)
    out = []
    for boxes in product((COMMA, PLUS, MINUSPLUS), repeat=l - 1):
        contracted = contract(parts, boxes)
        if contracted is None:
            continue
        out.append((contracted, l - len(contracted)))
    return tuple(out)
