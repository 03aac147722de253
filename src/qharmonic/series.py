"""Truncated sparse multivariate power series with TPoly coefficients.

The truncation cap is a bound on the total degree of a term.  Every exponent
is nonnegative, so products are truncation-exact.

Storage.  A series keeps one form at every q: one flat map {key: numerator}
with no zero numerator, over one positive int denominator, in lowest terms,
the numerators as in a TPoly (see ``exact``): ints, or at q = zeta_N tuples
of phi(N) ints when some numerator has a zeta-component.  So two series are
equal exactly when their forms are, and a series whose terms mix two orders
raises TypeError.  Every constructor stores the form; ``Series.terms``, the
map from exponent tuples to TPolys, is a view of it, built when first read
and then kept.

A key holds one term c·t^j·v^exps.  Its low bits are the monomial key: with
k variables and fields of w = max(cap, 1).bit_length() bits, the monomial
key of (e_1, ..., e_k) of degree d is d << (k·w) | e_1 << ((k−1)·w) | ... |
e_k.  The t-power sits on top, j << T with T = (k + 1)·w.  Every exponent
of an admissible tuple, and its degree, is at most the cap, so fits its
w-bit field, and every admissible monomial key lies below 1 << T; hence
the monomial keys sort in graded lex order (the order of
``_term_sort_key``), the degree is (key & mask) >> (k·w) with mask =
(1 << T) − 1, and the key of a product of two terms whose degrees add to at
most the cap is the sum of their keys: no monomial field carries, the
monomial part stays below 1 << T, and the t-powers add above it with no
width limit.  The t-power goes on top for that reason; below, it would
need a width bound.  Only ``SeriesRing`` knows the layout (``_pack``,
``_unpack``, ``_exponent``, ``_by_degree``, ``_flat``, ``_grouped``, and the
``_shift``, ``_toff`` and ``_mono`` the kernels read); every public method
takes and returns exponent tuples.

Each operation has one kernel, which reads and writes the form directly and
never builds a Fraction or a CycloNumber: ``+``, ``-`` and negation, ``*``,
``/``, the t-shift t -> a*t + b (``Series.affine_t``) and ``substitute``.
Two operands are first put at one order (``Series._pair``), an int
numerator a reading (a, 0, ..., 0).  A sum puts both sides on the lcm of
their denominators, a product multiplies them, and each result is divided
by the gcd of its denominator and numerators.  Ints add and multiply
inline; Z[zeta_N] numerators add slot by slot, and a product convolves
every pair into one unreduced int list per output key
(``exact._add_convolution``), which is reduced modulo the N-th cyclotomic
polynomial once (``exact._settled``).  A scalar or TPoly factor is the
one-term series of its TPoly form, whose keys have no monomial bits.

Product.  Multiplication sorts the right operand's keys by their monomial
bits, so by degree, once; since degree is additive, each left key's inner
loop stops at the first partner whose monomial bits reach
(cap − deg + 1) << (k·w), which would exceed the cap, so dropped pairs are
never formed.  Each kept pair adds its two keys and its numerators'
product into one accumulator dict, in one inline loop.  ``**`` squares up
from the power of the exponent's lowest set bit (``exact._power``), so it
forms no product with one, and ``substitute`` makes one image piece per
source monomial, starting from its first factor and making each image
power from the one below it.

Division.  ``num / den`` solves ``den * Q = num`` target by target in graded
order (a triangular solve, since den's constant term c0 is a t-free unit:
the only key of den of degree 0 is 0).  ``invert()`` is
``one / den``, so one recurrence serves both.  Each target key starts from
its numerator, subtracts the products of den's other terms with the
quotient terms already solved, and divides by c0.  Those products are
pushed forward: a solved term Q[K] is multiplied by each term e of den that
fits the cap left above K and added into the pending sum of K + e, so no
pair is formed whose target is unreachable or over the cap.  The
recurrence runs on int-scaled numerators (see ``__truediv__``); at
q = zeta_N both sides are first multiplied by the Galois cofactor of c0
(``exact._galois_cofactor``), which turns c0 into its integer norm, so no
inverse is formed.

A Series has three constructors.  The public ``Series(ring, terms)`` and
``Series.from_numerators(ring, den, num)`` (numerators over one
denominator, for builders that know their coefficients in closed form)
validate every exponent tuple against the ring.  Kernel outputs whose keys
are admissible by construction (products pruned at the cap, sums and maps
over keys already in the ring, division targets pushed up to the cap) go
through the private ``Series._made``, which trusts a form in lowest terms
and only puts it at its order.
"""
from __future__ import annotations

from functools import reduce
from math import comb, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from .exact import (
    QHarmonicError,
    TPoly,
    _add_convolution,
    _galois_cofactor,
    _joint_form,
    _joint_order,
    _lifted,
    _new,
    _numerators,
    _order_settled,
    _paired,
    _power,
    _product,
    _reduce,
    _reduced,
    _render_numerator,
    _scaled,
    _set,
    _settled,
    _slot_add,
    _sum_form,
    as_tpoly,
    euler_phi,
)
from .indices import compositions


class NonUnitConstantTerm(QHarmonicError):
    """Series inversion needs a t-free invertible constant term."""


class SeriesRing:
    """Shared shape data for Series values: variable names and the cap on
    total degree."""

    __slots__ = ("variables", "cap", "_index", "_width", "_shift", "_offsets", "_toff", "_mono")

    def __init__(self, variables: Sequence[str], cap: int) -> None:
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        cap, k = int(cap), len(variables)
        width = max(cap, 1).bit_length()
        toff = (k + 1) * width
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(variables)})
        object.__setattr__(self, "_width", width)
        object.__setattr__(self, "_shift", k * width)
        object.__setattr__(self, "_offsets", tuple((k - 1 - i) * width for i in range(k)))
        object.__setattr__(self, "_toff", toff)
        object.__setattr__(self, "_mono", (1 << toff) - 1)

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("SeriesRing is immutable")

    def __reduce__(self):
        return SeriesRing, (self.variables, self.cap)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeriesRing)
            and self.variables == other.variables
            and self.cap == other.cap
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.cap))

    def __repr__(self) -> str:
        return f"SeriesRing({self.variables}, cap={self.cap})"

    # -- term helpers -------------------------------------------------------

    def check_exponents(self, exps: tuple[int, ...]) -> bool:
        """True when the term is admissible, False when it exceeds the cap
        (to be dropped); raises ValueError on a tuple of the wrong width or
        a negative exponent."""
        if len(exps) != len(self.variables):
            raise ValueError(f"{exps} does not have {len(self.variables)} exponents")
        if min(exps, default=0) < 0:
            raise ValueError(f"negative exponent in {exps}")
        return sum(exps) <= self.cap

    def _pack(self, exps: tuple[int, ...]) -> int:
        """The monomial key of an admissible exponent tuple (see the module
        docstring): its degree above one `_width`-bit field per exponent,
        the first variable's highest."""
        key = sum(exps)
        for e in exps:
            key = key << self._width | e
        return key

    def _unpack(self, key: int) -> tuple[int, ...]:
        """The exponent tuple of a key; its t-power is ignored."""
        mask = (1 << self._width) - 1
        return tuple(key >> off & mask for off in self._offsets)

    def _exponent(self, key: int, i: int) -> int:
        """The exponent of the i-th variable in a key."""
        return key >> self._offsets[i] & (1 << self._width) - 1

    def _by_degree(self, num: Mapping) -> list[list]:
        """The (key, numerator) items of a flat map by degree: entry d lists
        those of degree d, for d = 0, ..., cap."""
        shift, mono = self._shift, self._mono
        out: list[list] = [[] for _ in range(self.cap + 1)]
        for key, v in num.items():
            out[(key & mono) >> shift].append((key, v))
        return out

    def _flat(self, slots: Mapping[int, Mapping]) -> dict:
        """{monomial key: {t-power: numerator}} as one flat map."""
        toff = self._toff
        return {j << toff | m: v for m, slot in slots.items() for j, v in slot.items()}

    def _grouped(self, num: Mapping) -> dict:
        """A flat map as {monomial key: {t-power: numerator}}."""
        toff, mono, out = self._toff, self._mono, {}
        for key, v in num.items():
            out.setdefault(key & mono, {})[key >> toff] = v
        return out

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Series":
        return Series._made(self, None, 1, {})

    def one(self) -> "Series":
        return self.scalar(1)

    def scalar(self, value) -> "Series":
        order, den, slot = as_tpoly(value)._t_form
        return Series._made(self, order, den, self._flat({0: slot}))

    def var(self, name: str, power: int = 1) -> "Series":
        return self.monomial({name: power})

    def monomial(self, exps: Mapping[str, int], coeff=1) -> "Series":
        """coeff, a scalar or a TPoly, times the monomial."""
        e = [0] * len(self.variables)
        for name, p in exps.items():
            e[self._index[name]] = p
        if not self.check_exponents(e := tuple(e)):
            return self.zero()
        order, den, slot = as_tpoly(coeff)._t_form
        return Series._made(self, order, den, self._flat({self._pack(e): slot}))

    def exponents_up_to_cap(self) -> list[tuple[int, ...]]:
        """Exponent tuples of total degree <= cap in graded lex order: degree
        d's are the compositions of d + k into the k variables, less one per
        part, in the lex order of `compositions`."""
        k = len(self.variables)
        return [tuple(p - 1 for p in parts)
                for d in range(self.cap + 1) for parts in compositions(d + k, k)]


def _term_sort_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


def first_term_mismatch(a_terms: Mapping[tuple[int, ...], TPoly],
                        b_terms: Mapping[tuple[int, ...], TPoly]):
    """(exps, a's TPoly, b's TPoly) at the graded-lex-first exponent tuple
    where two term maps differ, a missing term reading as zero; None when
    they are equal."""
    for k in sorted(a_terms.keys() | b_terms.keys(), key=_term_sort_key):
        a = a_terms.get(k, TPoly.zero())
        b = b_terms.get(k, TPoly.zero())
        if a != b:
            return k, a, b
    return None


# ---------------------------------------------------------------------------
# the kernels of a series alone (those it shares with TPoly are in exact)
# ---------------------------------------------------------------------------

def _reduced_flat(den: int, num: dict, order: int | None) -> tuple[int, dict]:
    """(den, num), a flat map with no zero, divided by their common gcd."""
    den, num = _reduced(den, {0: num}, order)
    return den, num[0]


def _lowest(den: int, raw: dict, order: int | None) -> tuple[int, dict]:
    """(den, num) for a raw flat map: zero sums dropped, each unreduced list
    at an order reduced once, and the result put in lowest terms."""
    return _reduced_flat(den, _settled({0: raw}, order).get(0, {}), order)


def _products(ring: SeriesRing, a: Mapping, b: Mapping, order: int | None, acc: dict) -> dict:
    """The raw product of two flat maps up to the cap, added into `acc` and
    returned with zero sums kept (at an order, one unreduced int list per
    key).  b's keys are sorted by their monomial bits, so by degree, once:
    each key of a stops at the first partner whose degree would pass the
    cap, so dropped pairs are never formed, and the key of a pair that fits
    is the sum of its keys."""
    shift, mono, top = ring._shift, ring._mono, ring.cap + 1
    right = sorted([(k & mono, k, v) for k, v in b.items()])
    if order is None:
        for k1, x in a.items():
            stop = (top - ((k1 & mono) >> shift)) << shift
            for m2, k2, y in right:
                if m2 >= stop:
                    break
                k = k1 + k2
                acc[k] = acc[k] + x * y if k in acc else x * y
        return acc
    width = 2 * euler_phi(order) - 1
    for k1, x in a.items():
        stop = (top - ((k1 & mono) >> shift)) << shift
        for m2, k2, y in right:
            if m2 >= stop:
                break
            out = acc.get(k := k1 + k2)
            if out is None:
                out = acc[k] = [0] * width
            _add_convolution(out, x, y)
    return acc


# What a Series multiplies and adds as a one-term series.
_FACTORS = (*TPoly.scalars, TPoly)


def _store(s: "Series", ring: SeriesRing, order: int | None, den: int, num: dict) -> None:
    """Set the ring and the form of a Series being made."""
    _set(s, "ring", ring)
    _set(s, "_order", order)
    _set(s, "_denom", den)
    _set(s, "_numer", num)


class Series:
    """A truncated series: map from exponent tuples to TPoly coefficients.
    Binary operations require both operands in the same ring.

    The value is `_numer`, one numerator per (t-power, monomial) key of the
    ring, over `_denom` at `_order` (see the module docstring), which every
    constructor stores.  `terms` maps exponent tuples to TPolys; it is a
    view of the form, built when first read."""

    __slots__ = ("ring", "terms", "_order", "_denom", "_numer")

    def __init__(self, ring: SeriesRing, terms: Mapping[tuple[int, ...], TPoly]) -> None:
        """The series with the given TPoly coefficients (a term over the cap
        is dropped), their forms put over one denominator at one order."""
        order, den, slots = _joint_form({ring._pack(exps): tp._t_form
                                         for exps, tp in terms.items()
                                         if tp and ring.check_exponents(exps)})
        _store(self, ring, order, den, ring._flat(slots))

    @classmethod
    def _made(cls, ring: SeriesRing, order: int | None, den: int, num: dict) -> "Series":
        """A kernel's result (den, num) in lowest terms at `order`, over
        admissible keys with no zeros, stored with int numerators when none
        has a zeta-component."""
        if order is not None:
            order, num = _order_settled(order, {0: num})
            num = num[0]
        out = _new(cls)
        _store(out, ring, order, den, num)
        return out

    @classmethod
    def from_numerators(cls, ring: SeriesRing, den: int,
                        num: Mapping[tuple[int, ...], Mapping[int, object]],
                        order: int | None = None) -> "Series":
        """The series Σ num[exps][k]/den · t^k · v^exps for a positive int
        den and int numerators, or at `order` Z[zeta_order] numerators
        (tuples of phi(order) ints): every exponent tuple is checked against
        the ring (a term over the cap is dropped), a negative t-power is
        refused as TPoly refuses it, zero numerators are dropped and the
        result is put in lowest terms.  No Fraction is built."""
        if den <= 0:
            raise ValueError("denominator must be positive")
        if any(k < 0 for slot in num.values() for k in slot):
            raise ValueError("negative t-exponent")
        raw = ring._flat({ring._pack(e): slot if order is None
                          else {k: list(v) for k, v in slot.items()}
                          for e, slot in num.items() if ring.check_exponents(e)})
        return cls._made(ring, order, *_lowest(den, raw, order))

    def __getattr__(self, name):
        # Reached only when a slot is unset: `terms`, built once and kept.
        if name != "terms":
            raise AttributeError(name)
        den, order, ring = self._denom, self._order, self.ring
        terms = {ring._unpack(m): TPoly._from_numerators(order, den, slot)
                 for m, slot in ring._grouped(self._numer).items()}
        _set(self, "terms", terms)
        return terms

    def _pair(self, other: "Series") -> tuple[int | None, int, Mapping, int, Mapping]:
        """(order, da, a, db, b): the two operands as flat numerator maps
        over a denominator at one order."""
        if self.ring is not other.ring:
            self._check_same_ring(other)
        order, a, b = _paired(self._order, {0: self._numer}, other._order, {0: other._numer})
        return order, self._denom, a[0], other._denom, b[0]

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Series is immutable")

    def __reduce__(self):
        return Series._made, (self.ring, self._order, self._denom, self._numer)

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._numer

    def __bool__(self) -> bool:
        return not self.is_zero()

    def sorted_terms(self) -> list[tuple[tuple[int, ...], TPoly]]:
        return sorted(self.terms.items(), key=lambda kv: _term_sort_key(kv[0]))

    def coefficient(self, exps: Mapping[str, int]) -> TPoly:
        e = [0] * len(self.ring.variables)
        for name, p in exps.items():
            e[self.ring._index[name]] = p
        return self.terms.get(tuple(e), TPoly.zero())

    def constant_term(self) -> TPoly:
        return self.terms.get((0,) * len(self.ring.variables), TPoly.zero())

    # -- arithmetic ---------------------------------------------------------

    def _check_same_ring(self, other: "Series"):
        if self.ring != other.ring:
            raise ValueError("series from different rings")

    def _sum(self, other, sign: int):
        if isinstance(other, _FACTORS):
            other = self.ring.scalar(other)
        if not isinstance(other, Series):
            return NotImplemented
        order, da, a, db, b = self._pair(other)
        den, num = _sum_form(order, da, {0: a}, db, {0: b}, sign)
        return Series._made(self.ring, order, den, num.get(0, {}))

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        order = self._order
        return Series._made(self.ring, order, self._denom, _scaled(self._numer, -1, order))

    def __mul__(self, other):
        """The product with a series, a scalar or a TPoly (a one-term
        series whose keys have no monomial bits), by `_products`."""
        ring = self.ring
        if isinstance(other, _FACTORS):
            other = ring.scalar(other)
        if not isinstance(other, Series):
            return NotImplemented
        order, da, a, db, b = self._pair(other)
        return Series._made(ring, order, *_lowest(da * db, _products(ring, a, b, order, {}), order))

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            return self.invert() ** (-exp)
        return _power(self, exp, self.ring.one())

    def __truediv__(self, other):
        """Quotient up to the cap: solves other * Q = self target by target.

        The divisor's constant term c0 must be a t-free invertible scalar:
        0 is its only key of degree 0.  Each target key's numerator is
        (self[K] − Σ other[e] · Q[K − e]) / c0 over the divisor's other
        keys e.  The sums are formed in push order: the targets are walked
        by degree, and once Q[K] is solved, its products with the keys e of
        degree at most cap − deg(K) (the divisor's keys grouped by degree)
        are added into the pending sums of K + e.  So every pair formed
        lands on a target within the cap, and a target that no pair and no
        dividend term reaches is never visited.

        With self = Nn/Dn and other = Nd/Dd and n0 = Nd[0], the loop keeps
        Qint[K] = Q[K]·Dn·n0^(|K|+1), |K| the degree, which satisfies the
        recurrence Qint[K] = n0^|K|·Dd·Nn[K] − Σ Nd[e]·n0^(|e|−1)·Qint[K − e];
        every Qint[K] is then scaled by n0^(top − |K|) onto the one
        denominator Dn·n0^(top+1), top the highest degree solved.  n0 is an
        int: at q = zeta_N, when c0 has a zeta-component, Nn and Nd are first
        multiplied by its Galois cofactor C, so that n0 = c0·C is the
        integer norm of c0, and the recurrence scales Z[zeta_N] numerators
        by ints and convolves them, reducing each pending sum once."""
        if not isinstance(other, Series):
            return NotImplemented
        ring = self.ring
        cap = ring.cap
        order, dn, nn, dd, nd = self._pair(other)
        levels = ring._by_degree(nd)
        if [k for k, _ in levels[0]] != [0]:
            raise NonUnitConstantTerm(
                "constant term must be a nonzero t-free scalar")
        n0 = nd[0]
        if order is not None:
            if any(n0[1:]):
                cof = _galois_cofactor(order, n0)
                nn, nd = ({k: tuple(_product(order, v, cof)) for k, v in side.items()}
                          for side in (nn, nd))
                n0, levels = nd[0], ring._by_degree(nd)
            n0 = n0[0]
            pad = [0] * (euler_phi(order) - 1)
            width = 2 * len(pad) + 1
        powers = [n0 ** d for d in range(cap + 2)]
        # rows[d]: the divisor's terms e of degree d >= 1 as (key, −Nd[e]·n0^(d−1))
        rows = [list(_scaled(dict(level), -powers[d - 1], order).items()) if d else []
                for d, level in enumerate(levels)]
        # pending[d]: the sums so far of the targets of degree d, each scaled
        # dividend term first.  At an order a pending numerator is an
        # unreduced list of 2·phi − 1 ints.
        pending = ring._by_degree(nn)
        for d, level in enumerate(pending):
            s = dd * powers[d]
            pending[d] = {k: v * s for k, v in level} if order is None \
                else {k: [a * s for a in v] + pad for k, v in level}
        # quot[d]: the solved Qint terms of degree d
        quot: list[dict] = [{} for _ in range(cap + 1)]
        for deg, level in enumerate(pending):
            fits = [(pending[deg + d], rows[d]) for d in range(1, cap - deg + 1) if rows[d]]
            for target, v in level.items():
                if order is not None:
                    _reduce(order, v)
                    v = tuple(v) if any(v) else 0
                if not v:
                    continue
                quot[deg][target] = v
                for out, row in fits:
                    if order is None:
                        for e, c in row:
                            key = target + e
                            out[key] = out[key] + c * v if key in out else c * v
                        continue
                    for e, c in row:
                        got = out.get(key := target + e)
                        if got is None:
                            got = out[key] = [0] * width
                        _add_convolution(got, c, v)
        top = max((d for d, level in enumerate(quot) if level), default=0)
        den = dn * powers[top + 1]
        sign = -1 if den < 0 else 1
        num: dict = {}
        for d, level in enumerate(quot):
            num.update(_scaled(level, sign * powers[top - d], order))
        return Series._made(ring, order, *_reduced_flat(sign * den, num, order))

    def invert(self) -> "Series":
        """Multiplicative inverse up to the cap (see __truediv__)."""
        return self.ring.one() / self

    # -- structure maps -----------------------------------------------------

    def affine_t(self, a, b) -> "Series":
        """Substitute t -> a*t + b (a, b int or Fraction) in every
        coefficient, on the numerators: with s the lcm of the denominators
        of a and b, a = p/s, b = r/s and D the top t-power, c·t^e goes to
        c·s^(D−e)·(p·t + r)^e over s^D, one int binomial weight per
        (e, j).  With a = 0 it is evaluation at t = b."""
        order, den, num = self._order, self._denom, self._numer
        toff, mono = self.ring._toff, self.ring._mono
        _, s, (p, r) = _numerators((a, b))
        top = max(num, default=0) >> toff
        weights = {e: [(j << toff, w) for j in (range(e + 1) if r else (e,))
                       if (w := comb(e, j) * p ** j * r ** (e - j) * s ** (top - e))]
                   for e in range(top + 1)}
        raw: dict = {}
        for k, v in num.items():
            m = k & mono
            for j, w in weights[k >> toff]:
                key = j | m
                if order is None:
                    raw[key] = raw[key] + v * w if key in raw else v * w
                else:
                    vw = [x * w for x in v]
                    raw[key] = _slot_add(raw[key], vw) if key in raw else vw
        return Series._made(self.ring, order, *_lowest(den * s ** top, raw, order))

    def negate_vars(self, names: Iterable[str]) -> "Series":
        """Substitute v -> -v for the named variables."""
        ring = self.ring
        idx = [ring._index[n] for n in names]
        order, num = self._order, self._numer
        odd = {k: v for k, v in num.items() if sum(ring._exponent(k, i) for i in idx) & 1}
        return Series._made(ring, order, self._denom, {**num, **_scaled(odd, -1, order)})

    def coefficient_of(self, name: str, power: int) -> "Series":
        """Sub-series multiplying name^power, with that exponent zeroed."""
        ring = self.ring
        i = ring._index[name]
        drop = (power << ring._offsets[i]) + (power << ring._shift)
        picked = {k - drop: v for k, v in self._numer.items() if ring._exponent(k, i) == power}
        return Series._made(ring, self._order, *_reduced_flat(self._denom, picked, self._order))

    def set_var_zero(self, name: str) -> "Series":
        return self.coefficient_of(name, 0)

    def substitute(self, bindings: Mapping[str, "Series"], target: SeriesRing) -> "Series":
        """Ring-morphism substitution: replace each bound variable by its
        image series (all images in the target ring); unbound variables must
        exist in the target ring and map to themselves.

        Exact up to the target cap when every image has zero constant term
        or the source is an exact polynomial.

        Each source monomial is multiplied out of the images' powers once,
        as one piece, and the pieces are summed once: the piece of each
        source monomial, over the lcm of the pieces' denominators at the one
        order of the source and the pieces, is multiplied by its t-polynomial
        (`_products`) into one accumulator."""
        source = self.ring
        images: dict[int, Series] = {}
        for name, img in bindings.items():
            if img.ring != target:
                raise ValueError(f"image of {name} not in target ring")
            images[source._index[name]] = img
        for name in source.variables:
            i = source._index[name]
            if i not in images:
                if name not in target._index:
                    raise ValueError(f"unbound variable {name} missing from target")
                images[i] = target.var(name)
        # powers[i][e - 1] is images[i] ** e, each made from the one below
        powers = {i: [img] for i, img in images.items()}

        def image_power(i: int, e: int) -> Series:
            got = powers[i]
            while len(got) < e:
                got.append(got[-1] * got[0])
            return got[e - 1]

        def piece(m: int) -> Series:
            factors = [image_power(i, e) for i, e in enumerate(source._unpack(m)) if e]
            return reduce(mul, factors) if factors else target.one()

        own, dsrc = self._order, self._denom
        slots = source._grouped(self._numer)
        pieces = {m: piece(m) for m in slots}
        order = _joint_order(own, *(p._order for p in pieces.values()))
        den = lcm(*(p._denom for p in pieces.values()))
        acc: dict = {}
        for m, slot in slots.items():
            p = pieces[m]
            piece_num = _scaled(_lifted({0: p._numer}, p._order, order)[0], den // p._denom, order)
            tslot = _lifted({0: target._flat({0: slot})}, own, order)[0]
            _products(target, piece_num, tslot, order, acc)
        return Series._made(target, order, *_lowest(den * dsrc, acc, order))

    # -- comparison / serialization ----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        # each value has one form, at one order
        return (self.ring == other.ring and self._order == other._order
                and self._denom == other._denom and self._numer == other._numer)

    def first_mismatch(self, other: "Series"):
        """(exps, lhs TPoly, rhs TPoly) of the graded-lex-first differing
        term, or None when equal."""
        self._check_same_ring(other)
        if self == other:
            return None
        return first_term_mismatch(self.terms, other.terms)

    def to_json(self) -> list:
        """The JSON of the terms view, read off the form grouped by
        monomial, as TPoly.to_json reads it: no TPoly is built."""
        order, den, ring = self._order, self._denom, self.ring
        return [
            {"exps": list(ring._unpack(m)),
             "coeff": {f"t^{k}": _render_numerator(order, v, den) for k, v in sorted(slot.items())}}
            for m, slot in sorted(ring._grouped(self._numer).items())
        ]

    @classmethod
    def from_json(cls, ring: SeriesRing, obj: list) -> "Series":
        terms = {}
        for entry in obj:
            terms[tuple(int(e) for e in entry["exps"])] = TPoly.from_json(entry["coeff"])
        return cls(ring, terms)

    def __repr__(self) -> str:
        parts = []
        for exps, tp in self.sorted_terms()[:8]:
            mono = "*".join(
                f"{v}^{e}" for v, e in zip(self.ring.variables, exps) if e)
            parts.append(f"({tp.to_json()}){'*' + mono if mono else ''}")
        more = "" if len(self.terms) <= 8 else f" ... [{len(self.terms)} terms]"
        return f"Series({' + '.join(parts) or '0'}{more})"
