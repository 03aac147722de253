"""Direct summation of finite multiple harmonic q-series and their truncated
polylogarithm companions, with exact scalar arithmetic.

zbar, zbar_star, z and z_star are defined by a literal nested sum over
decreasing tuples of summation indices.  The interpolated sums zbar_t, z_t
and z_t_float and the truncated polylogarithms L_poly run one prefix-sum
recursion over the summation levels instead, in O(depth * n) operations,
weighting each equality m_i = m_(i+1) = m by t (by t q^m for the float
z_t_float); t = 0 gives the strict sum and t = 1 the star sum.  The
generating-function module is checked against these evaluators, never the
other way around.

Two bounded caches share work between calls.  `_factor` is the single table
of summands f_k(m) (for zbar, for z over the q-integer, and for the
polylogarithms): one column per part of numerators over one int denominator
in exact.NumeratorRing, ints at rational q and Z[zeta] coefficient lists at
a CycloNumber q.  The literal sums multiply and add these numerators and
build one scalar at the end.  `_levels` holds the per-m level vectors of
zbar_t, z_t and L_poly as t-layers of them, one vector per power of t, so a
step never normalises; weighting an equality by t reads the layer one power
lower, and each output TPoly is put in lowest terms once.  The vector of
(k_1, ..., k_l) is one level step above the cached vector of its tail
(k_2, ..., k_l), so the indices of a profile sum (g_sum, x_sum and brute
Psi) that share a tail share its levels.  Both caches are keyed by the
parameters and hold exact values, so no result depends on what they hold.

The z-side works on numerator forms (exact.ZPoly, one t-slot per z-power
over one denominator): L_poly reads its form off the layers with one
reduction, x_sum sums its indices' forms on one lcm with one reduction, and
theta_q scales each z-slot by its eigenvalue 1 - q^e in one pass; none of
the three builds a TPoly.

q is a rational or a root zeta_N^b (SeriesParams.root = (N, b)), the only
points the paper's statements are sampled and evaluated at.  At a root every
scalar the sums form is index arithmetic on numerator lists
(exact._zeta_sum, with exponent b*e for q^e): 1/(1 - q^m) is the closed
form -(1/N) sum_j j zeta^(jbm mod N), a factor q^m is a rotation by b*m,
1 - q^e (`_one_minus_qpow`) has two nonzero slots, and at m prime to N a
higher-part summand of zbar or L is the Galois conjugate (zeta -> zeta^m)
of its m = 1 entry, so no sum makes CycloNumber arithmetic.  The inverse
q-integer of z is the unit sum_{i < m'} q^(mi), m m' = 1 mod the order of
q, at m prime to that order, and a generic inverse (the Galois norm of
exact._numerator_inverse) of the quotient itself at the other m.  The
closed form of zbar and the unit of z are two identities, neither read from
the other, so z = (1-q)^w zbar remains a check of two computations, not an
identity by construction.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import accumulate, combinations, combinations_with_replacement
from math import gcd

from .exact import (
    CycloNumber,
    DivisionByZero,
    NumeratorRing,
    QHarmonicError,
    Scalar,
    TPoly,
    ZPoly,
    _conjugate,
    _convolve,
    _one_minus_zeta_power_inverse,
    _zeta_exponent,
    _zeta_sum,
)
from .indices import (
    HeightProfile,
    MultiIndex,
    enumerate_indices,
)


class InvalidQ(QHarmonicError):
    """q is neither a rational nor a power of zeta_N, or a root of unity of
    order below the truncation length."""


class SeriesParams:
    """Truncation length n and base point q: a rational, or a root zeta_N^b.

    An int or a rational-valued CycloNumber q is stored as a Fraction.  A
    CycloNumber q must be a power zeta_N^b of the generator, recognised once
    here; `root` is then (N, b), and None at rational q.  Any other q raises
    InvalidQ, and so does a q with q^m = 1 for some 1 <= m < n, which would
    put a zero into a denominator.  Equality and the hash, computed once,
    read the key (n, the Fraction q or the root), not q itself."""

    __slots__ = ("n", "q", "root", "_key", "_key_hash")

    def __init__(self, n: int, q: Scalar) -> None:
        _check_length(n)
        if isinstance(q, CycloNumber) and q.as_rational() is not None:
            # It compares and hashes equal to the same value in every other
            # field, so the sum caches would hand one field's values to another.
            q = q.as_rational()
        if isinstance(q, int):
            q = Fraction(q)
        root = None
        if isinstance(q, Fraction):
            if q == 1 and n >= 2:
                raise InvalidQ("q = 1")
            if q == -1 and n >= 3:
                raise InvalidQ("q = -1 with n >= 3")
        elif isinstance(q, CycloNumber):
            b = _zeta_exponent(q)
            if b is None:
                raise InvalidQ(f"q must be a rational or a power of zeta_{q.order}, got {q!r}")
            # zeta_N^b has order N/gcd(N, b): q^m = 1 for some 1 <= m < n
            # exactly when that order is below n
            period = q.order // gcd(q.order, b)
            if period < n:
                raise InvalidQ(f"q^{period} = 1 with n = {n}")
            root = (q.order, b)
        else:
            raise InvalidQ(f"q must be an exact scalar, got {type(q).__name__}")
        key = (n, root or q)
        for name, value in (("n", n), ("q", q), ("root", root), ("_key", key),
                            ("_key_hash", hash(key))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("SeriesParams is immutable")

    def __reduce__(self):
        return SeriesParams, (self.n, self.q)

    def __eq__(self, other) -> bool:
        if type(other) is not SeriesParams:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._key_hash

    def __repr__(self) -> str:
        return f"SeriesParams(n={self.n!r}, q={self.q!r})"


def _check_length(n) -> None:
    if not isinstance(n, int) or n < 1:
        raise InvalidQ(f"truncation length must be a positive int, got {n!r}")


def zeta_params(n: int) -> SeriesParams:
    """Parameters at the fixed primitive n-th root of unity."""
    _check_length(n)  # before zeta_n exists, which needs n >= 1
    return SeriesParams(n, CycloNumber.zeta(n))


@lru_cache(maxsize=1 << 14)
def _qpow(params: SeriesParams, e: int) -> Scalar:
    if params.root:
        order, b = params.root
        return CycloNumber.zeta_power(order, b * e)
    if e < 0 and not params.q:
        raise DivisionByZero("inverse of zero")
    return params.q ** e


def _one_minus_qpow(params: SeriesParams, e: int) -> tuple:
    """1 - q^e as (numerator, denominator) in NumeratorRing(_order(params));
    at q = zeta_N^b, the two slots of 1 - zeta^(b*e) by index arithmetic."""
    if params.root:
        order, b = params.root
        return _zeta_sum(order, ((0, 1), (b * e, -1))), 1
    value = 1 - _qpow(params, e)
    return value.numerator, value.denominator


def _q_integer_units(params: SeriesParams) -> dict:
    """{m: the numerators of 1/[m]_q over 1} for the m < n prime to the
    order P of q = zeta_N^b, none at rational q.  With m m' = 1 mod P,
    (1 - q^(m m'))/(1 - q^m) = (1 - q)/(1 - q^m), so 1/[m]_q is the unit
    sum_{i < m'} q^(m i), slots b m i of one _zeta_sum."""
    if not params.root:
        return {}
    order, b = params.root
    period = order // gcd(order, b)
    return {m: _zeta_sum(order, ((b * m * i, 1) for i in range(pow(m, -1, period))))
            for m in range(1, params.n) if gcd(m, period) == 1}


@lru_cache(maxsize=1 << 12)
def _factor(params: SeriesParams, kind: str, k: int) -> tuple[int, list]:
    """The summands f_k(1), ..., f_k(n-1) of part k as one column (d, the
    numerators of f_k(m) * d) in NumeratorRing(_order(params)), one table for
    every evaluator: q^((k-1)m)/(1-q^m)^k for "zbar", the same over the
    q-integer [m]_q = (1-q^m)/(1-q) for "z", 1/(1-q^m)^k for the
    polylogarithms ("L"), and q^(-m) for part 0, which only the literal
    zbar((0,)) reads.  Part k > 1 multiplies the numerators of parts k - 1
    and 1 and of q^m; the "L" part 1 is the "zbar" column.  The inverses in
    the "z" part 1 and in part 1 at rational q are numerators over their
    own denominators (NumeratorRing.inverse), put over one (`over`); at
    rational q, part 0 and the q^m are scalars, scanned into a column once.
    Callers go through `_part`, so part k - 1 is always cached here.

    At q = zeta_N^b no column builds a CycloNumber: part 0 is one _zeta_sum
    slot per m, and the "zbar" part 1 is the closed form of 1/(1 - q^m)
    over N.  For m prime to N, sigma_m: zeta -> zeta^m fixes Q and sends q
    to q^m, so a "zbar" or "L" entry of part k > 1 is sigma_m(f_k(1)), with
    no product; the "z" parts k > 1 are no conjugates (their factor
    (1 - q)^k is fixed), so they multiply and rotate.  For m prime to the
    order of q the "z" part 1 is a unit (_q_integer_units), read from no
    "zbar" entry, and the other m invert the quotient itself; so
    z = (1-q)^w zbar still compares two computations."""
    ring, root, ms = NumeratorRing(_order(params)), params.root, range(1, params.n)
    if k > 1:
        (da, a), (db, b) = _factor(params, kind, k - 1), _factor(params, kind, 1)
        if not root:
            if kind == "L":
                return da * db, list(map(ring.mul, a, b))
            dq, powers = ring.column([_qpow(params, m) for m in ms])
            return da * db * dq, list(map(ring.mul, map(ring.mul, a, b), powers))
        order, step = root
        column = []
        for m, x, y in zip(ms, a, b):
            if m > 1 and kind != "z" and gcd(m, order) == 1:
                column.append(_conjugate(order, column[0], m))
            elif kind == "L":
                column.append(ring.mul(x, y))
            else:  # times zeta^(step*m): a rotation
                column.append(_zeta_sum(order, enumerate(_convolve(x, y), step * m)))
        return da * db, column
    if k == 0:
        if root:
            return 1, [_zeta_sum(root[0], [(-root[1] * m, 1)]) for m in ms]
        return ring.column([_qpow(params, -m) for m in ms])
    if kind == "L":
        return _factor(params, "zbar", 1)
    if kind == "z":
        units = _q_integer_units(params)
        rest, d, inverses = [m for m in ms if m not in units], 1, []
        if rest:  # the inverse of the quotient (1 - q^m)/(1 - q) itself
            den, inv = _factor(params, "zbar", 1)
            d, inverses = ring.over([ring.inverse(ring.mul(num, inv[0]), dm * den)
                                     for num, dm in (_one_minus_qpow(params, m)
                                                     for m in rest)])
        inverses = dict(zip(rest, inverses))
        return d, [inverses[m] if m in inverses else [d * c for c in units[m]] for m in ms]
    if root:
        return root[0], [_one_minus_zeta_power_inverse(root[0], root[1] * m) for m in ms]
    return ring.over([ring.inverse(*_one_minus_qpow(params, m)) for m in ms])


def _part(params: SeriesParams, kind: str, k: int) -> tuple[int, list]:
    """`_factor` of part k, parts 2, ..., k - 1 asked for first in one loop,
    the smallest first: each then finds the part below it cached, so no
    call recurses more than one level for a part of any size."""
    for j in range(2, k):
        _factor(params, kind, j)
    return _factor(params, kind, k)


def _check_parts(parts: MultiIndex):
    if any(p < 1 for p in parts):
        raise ValueError(f"index parts must be positive: {parts!r}")


def _literal_sum(parts: MultiIndex, params: SeriesParams, kind: str, strict: bool) -> Scalar:
    """The definition: the summand product summed over decreasing tuples."""
    if not parts:  # the empty product: the rational 1 at every q
        return NumeratorRing(None).scalar(1, 1)
    ring = NumeratorRing(_order(params))
    dens, columns = zip(*(_part(params, kind, k) for k in reversed(parts)))
    pool, l = range(params.n - 1), len(parts)
    tuples = combinations(pool, l) if strict else combinations_with_replacement(pool, l)
    total = ring.zero
    for ascending in tuples:
        total = ring.add(total, reduce(ring.mul, map(operator.getitem, columns, ascending)))
    return ring.scalar(total, reduce(operator.mul, dens))


def _level_step(column, below, equal, add=operator.add, mul=operator.mul, start=0) -> list:
    """One summation level of the prefix-sum recursion, in the ring given by
    `add` and `mul`.

    `below` is the level vector of a tail (k_2, ..., k_l): entry m - 1 sums
    over the tuples with m_2 = m.  `column` holds the summands f_k(m) of the
    new part and `equal` the weighted equality terms m_1 = m_2 = m.  Entry
    m - 1 of the result is f_k(m) times the sum of the entries of `below` at
    m_2 < m plus equal[m - 1], where `start` is the sum of any entries of
    `below` left out in front.  One running sum, so O(n) operations."""
    running, new = start, []
    for f, value, eq in zip(column, below, equal):
        new.append(mul(f, add(running, eq)))
        running = add(running, value)
    return new


def _layer_step(column, below: tuple, ring: NumeratorRing) -> tuple:
    """_level_step on t-layers: `below` holds the numerator vectors of the
    t^0, ..., t^(l-1) coefficients of a depth-l level vector, and weighting
    an equality by t reads the layer one power lower, so layer j of the
    result steps layer j of `below` with layer j - 1 as its equality terms.

    Layer j of a depth-l vector is zero at m < l - j, since its l - 1 - j
    strict steps need that many values below m; those entries are the ring's
    zero, and no step reads them.  New layer j starts at m = l + 1 - j, its
    running sum at the one nonzero entry of below[j] in front; the t^0 layer
    has no equality terms, so it multiplies the running sums alone, and the
    top layer t^l has no running sum, so it multiplies the equality terms."""
    add, mul, zero = ring.add, ring.mul, ring.zero
    size, depth = len(column), len(below)
    out = []
    for j in range(depth + 1):
        lead = depth - j
        if lead >= size:
            new = []
        elif j == 0:
            new = list(map(mul, column[lead:], accumulate(below[0][lead - 1:], add)))
        elif j == depth:
            new = list(map(mul, column, below[j - 1]))
        else:
            new = _level_step(column[lead:], below[j][lead:], below[j - 1][lead:],
                              add, mul, below[j][lead - 1])
        out.append([zero] * min(lead, size) + new)
    return tuple(out)


def _order(params: SeriesParams) -> int | None:
    """N at q = zeta_N^b, None at rational q."""
    return params.root[0] if params.root else None


@lru_cache(maxsize=128)
def _levels(parts: MultiIndex, params: SeriesParams, kind: str) -> tuple[int, tuple]:
    """The level sums of a nonempty index with the summands of `kind` (see
    _factor), each equality m_i = m_(i+1) weighted by t, as integer t-layers
    over one denominator: (d, layers), where layers[j][m - 1] / d is the t^j
    coefficient of the level sum at m, an int numerator at rational q and a
    Z[zeta] coefficient list at a CycloNumber q (see NumeratorRing).

    The layers of (k_1, ..., k_l) are one _layer_step above the layers of
    its tail (k_2, ..., k_l), read from this cache, so every index that
    shares a tail shares its levels; the enumerated index sets are closed
    under taking tails.  The step reads the column of f_(k_1) from _part,
    and the denominators multiply.  Callers go through `_tail_levels`, so
    the tail is always cached here."""
    den, column = _part(params, kind, parts[0])
    if len(parts) == 1:
        return den, (column,)
    below_den, below = _levels(parts[1:], params, kind)
    return below_den * den, _layer_step(column, below, NumeratorRing(_order(params)))


def _tail_levels(parts: MultiIndex, params: SeriesParams, kind: str) -> tuple[int, tuple]:
    """`_levels` of a nonempty index, its tails asked for first in one loop,
    the shortest first: each then finds its own tail cached, so no call
    recurses more than one level at any depth."""
    for i in range(len(parts) - 1, 0, -1):
        _levels(parts[i:], params, kind)
    return _levels(parts, params, kind)


def _interpolated(parts: MultiIndex, params: SeriesParams, kind: str) -> TPoly:
    _check_parts(parts)
    if not parts:
        return TPoly.one()
    ring = NumeratorRing(_order(params))
    den, layers = _tail_levels(parts, params, kind)
    return TPoly._from_numerators(ring.order, den, {j: reduce(ring.add, layer, ring.zero)
                                                    for j, layer in enumerate(layers)})


@lru_cache(maxsize=1 << 16)
def zbar(parts: MultiIndex, params: SeriesParams) -> Scalar:
    """Sum over n > m_1 > ... > m_l > 0 of q^((k_1-1)m_1 + ...) divided by
    (1-q^(m_1))^(k_1) * ... ; the depth-one index (0) is the literal sum of
    q^(-m) over the same range."""
    if parts != (0,):  # (0) passes: its summand is q^(-m)
        _check_parts(parts)
    return _literal_sum(parts, params, "zbar", strict=True)


@lru_cache(maxsize=1 << 16)
def zbar_star(parts: MultiIndex, params: SeriesParams) -> Scalar:
    """Non-strict variant (m_1 >= m_2 >= ... >= m_l)."""
    if parts != (0,):
        _check_parts(parts)
    return _literal_sum(parts, params, "zbar", strict=False)


@lru_cache(maxsize=1 << 16)
def z(parts: MultiIndex, params: SeriesParams) -> Scalar:
    """Variant with q-integer denominators ((1-q^m)/(1-q)) and the same
    numerator powers."""
    _check_parts(parts)
    return _literal_sum(parts, params, "z", strict=True)


@lru_cache(maxsize=1 << 16)
def z_star(parts: MultiIndex, params: SeriesParams) -> Scalar:
    _check_parts(parts)
    return _literal_sum(parts, params, "z", strict=False)


@lru_cache(maxsize=1 << 16)
def zbar_t(parts: MultiIndex, params: SeriesParams) -> TPoly:
    """t-interpolation: the weakly decreasing sum with each equality of
    summation indices weighted by t.  t = 0 recovers zbar, t = 1 the star
    sum.  It equals the sum over three-letter box fillings of t^(depth drop)
    times zbar of the contraction, because the summands f_k satisfy
    f_a(m) f_b(m) = f_(a+b)(m) + f_(a+b-1)(m)."""
    return _interpolated(parts, params, "zbar")


@lru_cache(maxsize=1 << 16)
def z_t(parts: MultiIndex, params: SeriesParams) -> TPoly:
    """t-interpolation of the q-integer variant.  In the box-filling form,
    merged letters change the weight, compensated by powers of (1 - q); the
    summands satisfy h_a(m) h_b(m) = h_(a+b)(m) + (1-q) h_(a+b-1)(m)."""
    return _interpolated(parts, params, "z")


@lru_cache(maxsize=1 << 14)
def g_sum(profile: HeightProfile, params: SeriesParams) -> TPoly:
    """Sum of zbar_t over every index matching the profile; the all-zero
    profile contributes 1, an empty index set contributes 0."""
    out = TPoly.zero()
    for parts in enumerate_indices(profile):
        out = out + zbar_t(parts, params)
    return out


# ---------------------------------------------------------------------------
# truncated polylogarithms: polynomials in z of degree < n
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 14)
def L_poly(parts: MultiIndex, params: SeriesParams, variant: str = "interp") -> ZPoly:
    """Truncated interpolated polylogarithm as a z-polynomial of degree < n:
    the sum over n > m_1 >= ... >= m_l > 0 of z^(m_1) over the usual
    denominator product, each equality of summation indices weighted by t.
    t = 0 gives the strict sum and t = 1 the star sum; the summands
    1/(1-q^m)^k multiply by adding exponents, so this is the two-letter
    (comma/plus) interpolation.  "interp" is the only variant."""
    _check_parts(parts)
    if variant != "interp":
        raise ValueError(f"unknown variant {variant!r}")
    if not parts:
        return ZPoly.one()
    den, layers = _tail_levels(parts, params, "L")
    return ZPoly._from_numerators(_order(params), den, {m: dict(enumerate(coeffs))
                                                       for m, coeffs in enumerate(zip(*layers), 1)})


def theta_q(f, params: SeriesParams):
    """The q-difference operator f(z) - f(qz): diagonal on z-powers with
    eigenvalue 1 - q^e, read once per z-power from `_one_minus_qpow`, for a
    z-form f (a ZPoly or a series.PhiPoly): exact.ZForm._scale_slots scales
    its numerator slots in one pass with one reduction and returns f's own
    class."""
    return f._scale_slots(_order(params), partial(_one_minus_qpow, params))


@lru_cache(maxsize=1 << 14)
def x_sum(profile: HeightProfile, params: SeriesParams) -> ZPoly:
    """Sum of interpolated truncated polylogarithms over the profile's index
    set, their forms summed on one lcm with one reduction (ZPoly.sum_of);
    the all-zero profile with j = -1 is the constant 1."""
    return ZPoly.sum_of([L_poly(parts, params) for parts in enumerate_indices(profile)])


def x_sum_or_zero(k: int, l: int, h, j: int, params: SeriesParams) -> ZPoly:
    """x_sum with out-of-shape profiles reading as the empty index set."""
    profile = HeightProfile.try_make(k, l, h, j)
    if profile is None:
        return ZPoly.zero()
    return x_sum(profile, params)


# ---------------------------------------------------------------------------
# floating point limit evaluation (quarantined from the exact paths)
# ---------------------------------------------------------------------------

def z_t_float(parts: MultiIndex, n: int, t: float) -> complex:
    """The q-integer variant at q = exp(2*pi*i/n), each equality of summation
    indices weighted by t (t = 0 is the strict sum).  Its summands
    f_k(m) = q^((k-1)m)/[m]^k satisfy f_a(m) f_b(m) q^m = f_(a+b)(m), so the
    weight t q^m on m_i = m_(i+1) = m gives the two-letter (comma/plus)
    box-filling expansion, with no (1-q) compensation."""
    import cmath

    _check_parts(parts)
    if not parts:
        return 1.0 + 0.0j
    roots = [cmath.exp(2j * cmath.pi * m / n) for m in range(n)]
    one_minus_q = 1 - roots[1 % n]

    def column(k: int) -> list[complex]:
        """The summands f_k(1..n-1), over the q-integers (1-q^m)/(1-q)."""
        return [roots[((k - 1) * m) % n] / ((1 - roots[m]) / one_minus_q) ** k
                for m in range(1, n)]

    vals = column(parts[-1])
    for k in reversed(parts[:-1]):
        vals = _level_step(column(k), vals, [t * roots[m] * v for m, v in enumerate(vals, 1)])
    total = 0j  # left to right: sum() may compensate rounding on newer Pythons
    for value in vals:
        total += value
    return total
