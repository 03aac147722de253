"""Truncated sparse multivariate power series with TPoly coefficients.

The truncation cap is a bound on the total degree of a term.  Every exponent
is nonnegative, so products are truncation-exact.

Storage.  A series keeps one form at every q: {key: slot}, with no empty
slot, over one positive int denominator, in lowest terms, each slot in the
numerator form of a TPoly (see ``exact``).  So two series are equal exactly
when their forms are, and a series whose terms mix two orders raises
TypeError.  Every constructor stores the form; ``Series.terms``, the map
from exponent tuples to TPolys made from the slots, is a view of it, built
when first read and then kept.

A key is an exponent tuple packed into one int by its ring: with k variables
and fields of w = max(cap, 1).bit_length() bits, the key of (e_1, ..., e_k)
of degree d is d << (k·w) | e_1 << ((k−1)·w) | ... | e_k.  Every exponent of
an admissible tuple is at most the cap, so fits its field; hence the keys
sort in graded lex order (the order of ``_term_sort_key``), the degree is
key >> (k·w), and the key of a product a·b with deg a + deg b <= cap is
key(a) + key(b), since no field carries.  Only the boundaries pack or unpack
(``SeriesRing._pack``, ``_unpack``, ``_exponent``): the constructors, after
checking the tuples, and the ``terms`` view, ``to_json`` and the maps that
read one exponent; every public method takes and returns exponent tuples.

Each operation has one kernel, which reads and writes the form directly and
never builds a Fraction or a CycloNumber: ``+``, ``-`` and negation, ``*`` by
a series, a scalar or a TPoly, ``/``, the t-shift t -> a*t + b
(``Series.affine_t``) and ``substitute``.  Two operands are first put at one
order (``Series._pair``), an int numerator a reading (a, 0, ..., 0).  A sum
puts both sides on the lcm of their denominators, a product multiplies them,
and each result is divided by the gcd of its denominator and numerators.
Ints add and multiply inline; Z[zeta_N] numerators add slot by slot, and a
product convolves every pair into one int list per output coefficient
(``exact._convolve_into``), which is reduced modulo the N-th cyclotomic
polynomial once (``exact._settled``).  A scalar or TPoly factor, and the
TPolys a series is made from, are read through their TPoly forms.

Product.  Multiplication sorts the right operand's terms by key, so by
degree, once; since degree is additive, each left term's inner loop stops
at the first partner key at or above (cap − deg + 1) << (k·w), which would
exceed the cap, so dropped pairs are never formed, and each pair's output
key is the sum of its keys: no tuple is built or hashed per pair.  Each
output key gets one raw {t-exponent: numerator} dict into which
``exact._accumulate`` (or ``_convolve_into``) adds the term pairs' products.
``**`` squares up from the power of the exponent's lowest set bit
(``exact._power``), so it forms no product with one, and ``substitute``
starts each piece from its first factor and makes each image power from the
one below it.

Division.  ``num / den`` solves ``den * Q = num`` target by target in graded
order (a triangular solve, since den's constant term c0 is a t-free unit);
``invert()`` is ``one / den``, so one recurrence serves both.  Each target
starts from its numerator coefficient, subtracts the products of den's other
terms with the quotient coefficients already solved, and divides by c0.
Those products are pushed forward: a solved coefficient Q[t] is multiplied
by each term e of den that fits the cap left above t and added into the
pending sum of t + e, so no pair is formed whose target is unreachable or
over the cap.  The recurrence runs on int-scaled numerators (see
``__truediv__``); at q = zeta_N both sides are first multiplied by the Galois
cofactor of c0 (``exact._galois_cofactor``), which turns c0 into its integer
norm, so no inverse is formed.

A Series has three constructors.  The public ``Series(ring, terms)`` and
``Series.from_numerators(ring, den, num)`` (integer numerators over one
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
from operator import itemgetter, mul
from typing import Callable, Iterable, Mapping, Sequence

from .exact import (
    QHarmonicError,
    TPoly,
    _accumulate,
    _convolve_into,
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
    _reduced,
    _reduced_slot,
    _render_numerator,
    _scaled,
    _set,
    _settled,
    _slot_add,
    _sum_form,
    _times_form,
    as_tpoly,
    euler_phi,
)
from .indices import compositions


class NonUnitConstantTerm(QHarmonicError):
    """Series inversion needs a t-free invertible constant term."""


class SeriesRing:
    """Shared shape data for Series values: variable names and the cap on
    total degree."""

    __slots__ = ("variables", "cap", "_index", "_width", "_shift", "_offsets")

    def __init__(self, variables: Sequence[str], cap: int) -> None:
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        cap, k = int(cap), len(variables)
        width = max(cap, 1).bit_length()
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(variables)})
        object.__setattr__(self, "_width", width)
        object.__setattr__(self, "_shift", k * width)
        object.__setattr__(self, "_offsets", tuple((k - 1 - i) * width for i in range(k)))

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
        """The key of an admissible exponent tuple (see the module
        docstring): its degree above one `_width`-bit field per exponent,
        the first variable's highest."""
        key = sum(exps)
        for e in exps:
            key = key << self._width | e
        return key

    def _unpack(self, key: int) -> tuple[int, ...]:
        """The exponent tuple of a key."""
        mask = (1 << self._width) - 1
        return tuple(key >> off & mask for off in self._offsets)

    def _exponent(self, key: int, i: int) -> int:
        """The exponent of the i-th variable in a key."""
        return key >> self._offsets[i] & (1 << self._width) - 1

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Series":
        return Series._made(self, None, 1, {})

    def one(self) -> "Series":
        return self.scalar(1)

    def scalar(self, value) -> "Series":
        return self.monomial({}, value)

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
        return Series._made(self, order, den, {self._pack(e): slot} if slot else {})

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

def _term_products(ring: SeriesRing, left, right, accumulate: Callable) -> dict:
    """The product of two series given as (key, (t-power, numerator) items)
    pairs, up to the cap, as {key: raw {t-power: numerator}} with zero sums
    kept.  The right terms are sorted by key, so by degree, once: each left
    term's inner loop stops at the first partner whose degree would exceed
    the cap, so dropped pairs are never formed, and the key of a pair that
    fits is the sum of its keys."""
    shift, top = ring._shift, ring.cap + 1
    ordered = sorted(right, key=itemgetter(0))
    acc: dict[int, dict] = {}
    for e1, t1 in left:
        stop = (top - (e1 >> shift)) << shift
        for e2, t2 in ordered:
            if e2 >= stop:
                break
            slot = acc.get(key := e1 + e2)
            if slot is None:
                slot = acc[key] = {}
            accumulate(slot, t1, t2)
    return acc


def _quotient_form(order: int | None, dn: int, powers: list,
                   quot: Mapping) -> tuple[int, dict]:
    """The quotient from the {key: (degree, Qint numerators)} that
    Series.__truediv__ solves, each Qint[t] over dn·n0^(|t|+1), put on the
    one denominator dn·|n0|^(top+1); powers[d] is n0^d."""
    top = max((deg for deg, _ in quot.values()), default=0)
    den = dn * powers[top + 1]
    sign = -1 if den < 0 else 1
    num = {e: _scaled(raw, sign * powers[top - deg], order) for e, (deg, raw) in quot.items()}
    return _reduced(sign * den, num, order)


def _affine_items(items, weights: Mapping, order: int | None) -> dict:
    """The image of the polynomial with (t-exponent, numerator) items under
    a map that sends t^e to Σ_j weights[e][j]·t^j, as a raw
    {t-exponent: numerator} dict whose zero sums stay until the caller drops
    them."""
    out: dict = {}
    if order is None:
        for e, c in items:
            for j, w in weights[e]:
                v = c * w
                out[j] = out[j] + v if j in out else v
        return out
    for e, c in items:
        for j, w in weights[e]:
            v = [a * w for a in c]
            out[j] = _slot_add(out[j], v) if j in out else v
    return out


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

    The value is `_numer`, keyed by the ring's packed keys, over `_denom`
    at `_order` (see the module docstring), which every constructor
    stores.  `terms` maps exponent
    tuples to TPolys; it is a view of the form, built when first read."""

    __slots__ = ("ring", "terms", "_order", "_denom", "_numer")

    def __init__(self, ring: SeriesRing, terms: Mapping[tuple[int, ...], TPoly]) -> None:
        """The series with the given TPoly coefficients (a term over the cap
        is dropped), their forms put over one denominator at one order."""
        _store(self, ring, *_joint_form({ring._pack(exps): tp._t_form
                                         for exps, tp in terms.items()
                                         if tp and ring.check_exponents(exps)}))

    @classmethod
    def _made(cls, ring: SeriesRing, order: int | None, den: int, num: dict) -> "Series":
        """A kernel's result (den, num) in lowest terms at `order`, over
        admissible keys with no zeros, stored with int numerators when none
        has a zeta-component."""
        if order is not None:
            order, num = _order_settled(order, num)
        out = _new(cls)
        _store(out, ring, order, den, num)
        return out

    @classmethod
    def from_numerators(cls, ring: SeriesRing, den: int,
                        num: Mapping[tuple[int, ...], Mapping[int, int]]) -> "Series":
        """The series Σ num[exps][k]/den · t^k · v^exps for a positive int
        den and int numerators: every exponent tuple is checked against the
        ring (a term over the cap is dropped), a negative t-power is refused
        as TPoly refuses it, zero numerators are dropped and the result is
        put in lowest terms.  No Fraction is built."""
        if den <= 0:
            raise ValueError("denominator must be positive")
        if any(k < 0 for slot in num.values() for k in slot):
            raise ValueError("negative t-exponent")
        return cls._made(ring, None, *_reduced(den, _settled(
            {ring._pack(e): dict(slot) for e, slot in num.items() if ring.check_exponents(e)},
            None)))

    def __getattr__(self, name):
        # Reached only when a slot is unset: `terms`, built once and kept.
        if name != "terms":
            raise AttributeError(name)
        den, order, unpack = self._denom, self._order, self.ring._unpack
        terms = {unpack(key): TPoly._from_numerators(order, den, slot)
                 for key, slot in self._numer.items()}
        _set(self, "terms", terms)
        return terms

    def _pair(self, other: "Series") -> tuple[int | None, int, Mapping, int, Mapping]:
        """(order, da, a, db, b): the two operands as numerators over a
        denominator at one order."""
        if self.ring is not other.ring:
            self._check_same_ring(other)
        order, a, b = _paired(self._order, self._numer, other._order, other._numer)
        return order, self._denom, a, other._denom, b

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
        return Series._made(self.ring, order, *_sum_form(order, da, a, db, b, sign))

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        order, den, num = self._order, self._denom, self._numer
        return Series._made(self.ring, order, den,
                            {e: _scaled(slot, -1, order) for e, slot in num.items()})

    def __mul__(self, other):
        """The product with a series, a scalar or a TPoly.  Two series
        multiply term pair by term pair (`_term_products`): each output
        exponent gets one raw {t-exponent: numerator} dict into which the
        pairs' products are added.  A scalar or a TPoly, as a one-term
        series, multiplies every slot by its one slot (`_times_form`)."""
        ring = self.ring
        if isinstance(other, Series):
            order, da, a, db, b = self._pair(other)
            acc = _term_products(ring, ((e, s.items()) for e, s in a.items()),
                                 ((e, s.items()) for e, s in b.items()),
                                 _accumulate if order is None else _convolve_into)
            return Series._made(ring, order, *_reduced(da * db, _settled(acc, order), order))
        if not isinstance(other, _FACTORS):
            return NotImplemented
        forder, fden, factor = as_tpoly(other)._t_form
        order, num, factor = _paired(self._order, self._numer, forder, {0: factor})
        return Series._made(ring, order,
                            *_times_form(order, self._denom, num, fden, factor))

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            return self.invert() ** (-exp)
        return _power(self, exp, self.ring.one())

    def __truediv__(self, other):
        """Quotient up to the cap: solves other * Q = self target by target.

        The divisor's constant term c0 must be a t-free invertible scalar.  Each target's
        coefficient is (self[target] − Σ other[e] · Q[target − e]) / c0 over
        the divisor's non-constant terms e.  The sums are formed in push
        order: the targets are walked by degree, and once Q[t] is solved,
        its products with the terms e (sorted by degree, stopping once
        deg(e) passes cap − deg(t)) are added into the pending sums of
        t + e.  So every pair formed lands on a target within the cap, and
        a target that no pair and no dividend term reaches is never visited.

        With self = Nn/Dn and other = Nd/Dd and n0 = Nd[0], the loop keeps
        Qint[t] = Q[t]·Dn·n0^(|t|+1), which satisfies the recurrence
        Qint[t] = n0^|t|·Dd·Nn[t] − Σ Nd[e]·n0^(|e|−1)·Qint[t − e];
        every Qint[t] is then scaled by n0^(top − |t|) onto the one
        denominator Dn·n0^(top+1), top the highest degree solved.  n0 is an
        int: at q = zeta_N, when c0 has a zeta-component, Nn and Nd are first
        multiplied by its Galois cofactor C, so that n0 = c0·C is the
        integer norm of c0, and the recurrence scales Z[zeta_N] numerators
        by ints and convolves them, reducing each pending sum once."""
        if not isinstance(other, Series):
            return NotImplemented
        ring = self.ring
        shift = ring._shift
        order, dn, nn, dd, nd = self._pair(other)
        c0 = nd.get(0, {})
        if len(c0) != 1 or 0 not in c0:
            raise NonUnitConstantTerm(
                "constant term must be a nonzero t-free scalar")
        n0 = c0[0]
        if order is not None:
            if any(n0[1:]):
                cof = _galois_cofactor(order, n0)
                nn, nd = [{e: {k: tuple(_product(order, v, cof)) for k, v in slot.items()}
                           for e, slot in side.items()} for side in (nn, nd)]
                n0 = nd[0][0]
            n0 = n0[0]
            pad = [0] * (euler_phi(order) - 1)
        accumulate = _accumulate if order is None else _convolve_into
        powers = [n0 ** d for d in range(ring.cap + 2)]
        nonconst = sorted(((e, _scaled(slot, -powers[(e >> shift) - 1], order).items())
                           for e, slot in nd.items() if e), key=itemgetter(0))
        # pending[t] is target t's sum so far; by_degree[d] lists the targets
        # of degree d that have one, in the order their slots were made.  At
        # an order a pending numerator is an unreduced list of 2·phi − 1 ints.
        pending: dict[int, dict] = {}
        by_degree: list[list] = [[] for _ in range(ring.cap + 1)]
        for e, slot in nn.items():
            deg = e >> shift
            slot = _scaled(slot, dd * powers[deg], order)
            pending[e] = dict(slot) if order is None else {k: [*v, *pad]
                                                           for k, v in slot.items()}
            by_degree[deg].append(e)
        quot: dict[int, tuple[int, dict]] = {}
        for deg, targets in enumerate(by_degree):
            stop = (ring.cap - deg + 1) << shift
            for target in targets:
                raw = pending.pop(target)
                raw = {k: v for k, v in raw.items() if v} if order is None \
                    else _reduced_slot(order, raw)
                if not raw:
                    continue
                quot[target] = deg, raw
                items = raw.items()
                for e, tc in nonconst:
                    if e >= stop:
                        break
                    slot = pending.get(key := target + e)
                    if slot is None:
                        slot = pending[key] = {}
                        by_degree[key >> shift].append(key)
                    accumulate(slot, tc, items)
        return Series._made(ring, order, *_quotient_form(order, dn, powers, quot))

    def invert(self) -> "Series":
        """Multiplicative inverse up to the cap (see __truediv__)."""
        return self.ring.one() / self

    # -- structure maps -----------------------------------------------------

    def affine_t(self, a, b) -> "Series":
        """Substitute t -> a*t + b (a, b int or Fraction) in every
        coefficient, on the numerators: with s the lcm of the denominators
        of a and b, a = p/s, b = r/s and D the top t-power, c·t^e goes to
        c·s^(D−e)·(p·t + r)^e over s^D, one int binomial weight per
        (e, j) (`_affine_items`).  With a = 0 it is evaluation at t = b."""
        order, den, num = self._order, self._denom, self._numer
        _, s, (p, r) = _numerators((a, b))
        top = max((k for slot in num.values() for k in slot), default=0)
        weights = {e: [(j, w) for j in (range(e + 1) if r else (e,))
                       if (w := comb(e, j) * p ** j * r ** (e - j) * s ** (top - e))]
                   for e in range(top + 1)}
        raw = {e: _affine_items(slot.items(), weights, order) for e, slot in num.items()}
        return Series._made(self.ring, order,
                            *_reduced(den * s ** top, _settled(raw, order), order))

    def negate_vars(self, names: Iterable[str]) -> "Series":
        """Substitute v -> -v for the named variables."""
        ring = self.ring
        idx = [ring._index[n] for n in names]
        order, den, num = self._order, self._denom, self._numer
        return Series._made(ring, order, den, {
            key: _scaled(slot, -1, order) if sum(ring._exponent(key, i) for i in idx) & 1
            else slot for key, slot in num.items()})

    def coefficient_of(self, name: str, power: int) -> "Series":
        """Sub-series multiplying name^power, with that exponent zeroed."""
        ring = self.ring
        i = ring._index[name]
        drop = (power << ring._offsets[i]) + (power << ring._shift)
        order, den, num = self._order, self._denom, self._numer
        picked = {key - drop: slot for key, slot in num.items() if ring._exponent(key, i) == power}
        return Series._made(ring, order, *_reduced(den, picked, order))

    def set_var_zero(self, name: str) -> "Series":
        return self.coefficient_of(name, 0)

    def substitute(self, bindings: Mapping[str, "Series"], target: SeriesRing) -> "Series":
        """Ring-morphism substitution: replace each bound variable by its
        image series (all images in the target ring); unbound variables must
        exist in the target ring and map to themselves.

        Exact up to the target cap when every image has zero constant term
        or the source is an exact polynomial.

        Each source term's monomial is multiplied out of the images' powers,
        and the pieces are summed once: each piece is scaled by its source
        term's numerators, over the lcm of the pieces' denominators, at the
        one order of the source and the pieces."""
        images: dict[int, Series] = {}
        for name, img in bindings.items():
            if img.ring != target:
                raise ValueError(f"image of {name} not in target ring")
            images[self.ring._index[name]] = img
        for name in self.ring.variables:
            i = self.ring._index[name]
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

        def piece(exps: tuple[int, ...]) -> Series:
            factors = [image_power(i, e) for i, e in enumerate(exps) if e]
            return reduce(mul, factors) if factors else target.one()

        own, dsrc, num = self._order, self._denom, self._numer
        pieces = {key: piece(self.ring._unpack(key)) for key in num}
        order = _joint_order(own, *(p._order for p in pieces.values()))
        den = lcm(*(p._denom for p in pieces.values()))
        num = _lifted(num, own, order)
        accumulate = _accumulate if order is None else _convolve_into
        acc: dict[int, dict] = {}
        for key, slot in num.items():
            p = pieces[key]
            scaled = _scaled(slot, den // p._denom, order).items()
            for e, pslot in _lifted(p._numer, p._order, order).items():
                accumulate(acc.setdefault(e, {}), pslot.items(), scaled)
        return Series._made(target, order, *_reduced(den * dsrc, _settled(acc, order), order))

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
        """The JSON of the terms view, read off the form as TPoly.to_json
        reads it: no TPoly is built."""
        order, den, unpack = self._order, self._denom, self.ring._unpack
        return [
            {"exps": list(unpack(key)),
             "coeff": {f"t^{k}": _render_numerator(order, v, den) for k, v in sorted(slot.items())}}
            for key, slot in sorted(self._numer.items())
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
