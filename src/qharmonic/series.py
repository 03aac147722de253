"""Truncated sparse multivariate power series with TPoly coefficients.

The truncation cap is a bound on the total degree of a term.  Every exponent
is nonnegative, so products are truncation-exact.

Storage.  A series whose coefficients are all Fractions is kept in integer
form: one positive int denominator, the lcm of its coefficients'
denominators, and {exps: {t-power: int numerator}} with no zero entry, so
the form is in lowest terms and unique.  The kernels read and write that
form directly and never build a Fraction: ``+``, ``-`` and negation, ``*``
by a series, an int, a Fraction or a rational TPoly, ``/`` and the t-shift
t -> a*t + b with integer a and b (``Series.affine_t``, through the binomial
expansion ``exact._affine_items`` that TPoly.affine_t shares).  A sum puts
both sides on the lcm of their denominators, a product multiplies them, and
each result is divided by the gcd of its denominator and numerators.

``Series.terms``, the map from exponent tuples to TPolys, is built from the
integer form by ``exact._over`` when first read and then kept; ``_over`` is
the only place the integer path builds a Fraction.  A series made from TPolys
(the public constructor, ``from_json``, the structure maps) holds its terms
and is scanned into integer form once, by the first kernel that reads it.

Product.  Multiplication sorts the right operand's terms by degree once;
since degree is additive, each left term's inner loop stops at the first
partner that would exceed the cap, so dropped pairs are never formed.  Each
output exponent gets one raw {t-exponent: value} dict into which
``exact._accumulate`` adds the term pairs' products.

Division.  ``num / den`` solves ``den * Q = num`` target by target in graded
order (a triangular solve, since den's constant term c0 is a t-free unit);
``invert()`` is ``one / den``, so one recurrence serves both.  Each target
starts from its numerator coefficient, subtracts the products of den's other
terms with the quotient coefficients already solved, and divides by c0.
Those products are pushed forward: a solved coefficient Q[t] is multiplied
by each term e of den that fits the cap left above t and added into the
pending sum of t + e, so no pair is formed whose target is unreachable or
over the cap.  In integer form the recurrence runs on scaled ints (see
``__truediv__``).

Generic path.  A series with any other coefficient (a CycloNumber at
q = ζ_n) keeps its TPoly terms, and each kernel runs the same loop over the
coefficients themselves: the product builds each TPoly from its raw dict,
the division multiplies by the inverse of c0, and ``+`` is the
add-with-cancellation loop that TPoly and ZPoly use; both live in
:mod:`qharmonic.exact`.  An operation with one such operand takes this path,
and so does everything made from its result.  Both paths give the same
values.

The public constructors ``Series(ring, terms)`` and
``Series.from_numerators(ring, den, num)`` (integer numerators over one
denominator, for builders that know their coefficients in closed form)
validate every exponent tuple against the ring.  Kernel outputs whose keys
are admissible by construction (products pruned at the cap, sums and maps
over keys already in the ring, division targets pushed up to the cap) go
through the private ``Series._trusted``, which only drops zero
coefficients, or, in integer form, ``Series._from_ints``; the TPoly
coefficients the generic kernels add up go through ``TPoly._from_raw``
alike.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter, neg
from typing import Callable, Iterable, Mapping, Sequence

from .exact import (
    CycloNumber,
    QHarmonicError,
    TPoly,
    _accumulate,
    _add_into,
    _affine_items,
    _denominator_lcm,
    _new,
    _numerators,
    _over,
    _power,
    _set,
    as_tpoly,
    scalar_inverse,
)
from .indices import compositions


class NonUnitConstantTerm(QHarmonicError):
    """Series inversion needs a t-free invertible constant term."""


class SeriesRing:
    """Shared shape data for Series values: variable names and the cap on
    total degree."""

    __slots__ = ("variables", "cap", "_index")

    def __init__(self, variables: Sequence[str], cap: int) -> None:
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "cap", int(cap))
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(variables)})

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

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Series":
        return Series._from_ints(self, 1, {})

    def one(self) -> "Series":
        return self.scalar(1)

    def scalar(self, value) -> "Series":
        return self.monomial({}, value)

    def var(self, name: str, power: int = 1) -> "Series":
        return self.monomial({name: power})

    def monomial(self, exps: Mapping[str, int], coeff=1) -> "Series":
        """coeff times the monomial; an int or Fraction coefficient gives
        the integer form directly."""
        e = [0] * len(self.variables)
        for name, p in exps.items():
            e[self._index[name]] = p
        t = tuple(e)
        if not self.check_exponents(t):
            return self.zero()
        if isinstance(coeff, (int, Fraction)):
            return Series._from_ints(self, coeff.denominator,
                                     {t: {0: coeff.numerator}} if coeff else {})
        return Series._trusted(self, {t: as_tpoly(coeff)})

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
# the integer kernels: int numerators {exps: {t-power: int}} over one positive
# int denominator, in lowest terms (the denominator is the lcm of the
# coefficients' denominators), with no zero numerator and no empty slot.
# Inner dicts are shared between series and never changed once built.
# ---------------------------------------------------------------------------

def _common(g: int, num: Mapping) -> int:
    """The gcd of g and every numerator of num, stopping once it is 1."""
    for slot in num.values():
        if g == 1:
            break
        g = gcd(g, *slot.values())
    return g


def _reduced(den: int, num: dict) -> tuple[int, dict]:
    """(den, num) divided by their common gcd; num has no zero numerator
    and no empty slot."""
    g = _common(den, num)
    if g != 1:
        den //= g
        num = {e: {k: v // g for k, v in slot.items()} for e, slot in num.items()}
    return den, num


def _nonzero(raw: Mapping) -> dict:
    """raw without its zero numerators and the slots they leave empty."""
    out = {}
    for e, slot in raw.items():
        slot = {k: v for k, v in slot.items() if v}
        if slot:
            out[e] = slot
    return out


def _int_sum(da: int, a: Mapping, db: int, b: Mapping, sign: int) -> tuple[int, dict]:
    """a/da + sign·b/db, on the lcm of the denominators."""
    den = lcm(da, db)
    sa, sb = den // da, sign * (den // db)
    out = dict(a) if sa == 1 else {e: {k: v * sa for k, v in slot.items()}
                                   for e, slot in a.items()}
    for e, slot in b.items():
        if sb != 1:
            slot = {k: v * sb for k, v in slot.items()}
        mine = out.get(e)
        if mine is None:
            out[e] = slot
        elif mine := _add_into(dict(mine), slot.items()):
            out[e] = mine
        else:
            del out[e]
    return _reduced(den, out)


def _int_times(den: int, num: Mapping, pden: int, pitems) -> tuple[int, dict]:
    """num/den times the t-polynomial with (t-power, int) items pitems over
    pden."""
    out = {}
    for e, slot in num.items():
        out[e] = raw = {}
        _accumulate(raw, slot.items(), pitems)
    return _reduced(den * pden, _nonzero(out))


def _term_products(cap: int, left, right) -> dict:
    """The product of two series given as (exps, (t-power, value) items)
    pairs, up to the cap, as {exps: raw {t-power: value}} with zero sums
    kept.  The right terms are sorted by degree once: since degree is
    additive, each left term's inner loop stops at the first partner that
    would exceed the cap, so dropped pairs are never formed."""
    ordered = sorted(((sum(e), e, t2) for e, t2 in right), key=itemgetter(0))
    acc: dict[tuple[int, ...], dict] = {}
    for e1, t1 in left:
        room = cap - sum(e1)
        for d2, e2, t2 in ordered:
            if d2 > room:
                break
            exps = tuple(map(add, e1, e2))
            slot = acc.get(exps)
            if slot is None:
                slot = acc[exps] = {}
            _accumulate(slot, t1, t2)
    return acc


def _int_quotient(dn: int, powers: list, quot: Mapping) -> tuple[int, dict]:
    """The quotient from the {exps: (degree, Qint numerators)} that
    Series.__truediv__ solves, each Qint[t] over dn·n0^(|t|+1), put on the
    one denominator dn·|n0|^(top+1); powers[d] is n0^d."""
    top = max((deg for deg, _ in quot.values()), default=0)
    den = dn * powers[top + 1]
    sign = -1 if den < 0 else 1
    num = {}
    for e, (deg, raw) in quot.items():
        scale = sign * powers[top - deg]
        num[e] = {k: v * scale for k, v in raw.items()}
    return _reduced(sign * den, num)


class Series:
    """A truncated series: map from exponent tuples to TPoly coefficients.
    Binary operations require both operands in the same ring.

    `terms` maps exponent tuples to TPolys.  A series whose coefficients are
    all Fractions also has its integer form: `_numer` over `_denom` (see the
    module docstring).  `_denom` is None until the form is looked for, and 0
    on the generic path: some coefficient is not a Fraction, or a generic
    kernel made the series."""

    __slots__ = ("ring", "terms", "_denom", "_numer")

    def __init__(self, ring: SeriesRing, terms: Mapping[tuple[int, ...], TPoly]) -> None:
        clean: dict[tuple[int, ...], TPoly] = {}
        for exps, tp in terms.items():
            if tp.is_zero():
                continue
            if ring.check_exponents(exps):
                clean[exps] = tp
        _set(self, "ring", ring)
        _set(self, "terms", clean)
        _set(self, "_denom", None)
        _set(self, "_numer", None)

    @classmethod
    def _trusted(cls, ring: SeriesRing, terms: Mapping[tuple[int, ...], TPoly],
                 denom: int | None = None) -> "Series":
        """A Series over terms whose exponent tuples are admissible in ring
        by construction: zero coefficients are dropped, exponents are not
        re-checked.  The generic kernels pass denom 0, so that their
        outputs stay on the generic path without a scan."""
        out = _new(cls)
        _set(out, "ring", ring)
        _set(out, "terms", {e: tp for e, tp in terms.items() if tp.coeffs})
        _set(out, "_denom", denom)
        _set(out, "_numer", None)
        return out

    @classmethod
    def _from_ints(cls, ring: SeriesRing, den: int, num: dict) -> "Series":
        """A Series in integer form (admissible keys, lowest terms, no
        zeros); its `terms` are built when first read."""
        out = _new(cls)
        _set(out, "ring", ring)
        _set(out, "_denom", den)
        _set(out, "_numer", num)
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
        return cls._from_ints(ring, *_reduced(den, _nonzero(
            {e: slot for e, slot in num.items() if ring.check_exponents(e)})))

    def __getattr__(self, name):
        # Reached only when a slot is unset: `terms` of a series made in
        # integer form, built once and kept.
        if name != "terms":
            raise AttributeError(name)
        den = self._denom
        terms = {e: _over(raw, den) for e, raw in self._numer.items()}
        _set(self, "terms", terms)
        return terms

    def _ints(self) -> dict | None:
        """The int numerators over `_denom`, or None when some coefficient is
        not a Fraction; a series made from TPolys is scanned once."""
        if self._denom is None:
            den = _denominator_lcm(self.terms.values())
            _set(self, "_denom", den or 0)
            if den is not None:
                _set(self, "_numer", {e: dict(_numerators(tp, den))
                                    for e, tp in self.terms.items()})
        return self._numer

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Series is immutable")

    def __reduce__(self):
        if self._denom:
            return Series._from_ints, (self.ring, self._denom, self._numer)
        return Series._trusted, (self.ring, self.terms)

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._numer if self._denom else self.terms)

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
        if isinstance(other, (int, Fraction, CycloNumber, TPoly)):
            other = self.ring.scalar(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_same_ring(other)
        a = self._ints()
        b = None if a is None else other._ints()
        if b is not None:
            return Series._from_ints(self.ring, *_int_sum(self._denom, a, other._denom, b, sign))
        items = other.terms.items()
        if sign < 0:
            items = ((e, -tp) for e, tp in items)
        return Series._trusted(self.ring, _add_into(dict(self.terms), items), 0)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        num = self._ints()
        if num is not None:
            return Series._from_ints(self.ring, *_int_times(self._denom, num, 1, ((0, -1),)))
        return Series._trusted(self.ring, {e: -tp for e, tp in self.terms.items()}, 0)

    def __mul__(self, other):
        """The product with a series, a scalar or a TPoly.  Two series
        multiply term pair by term pair (`_term_products`): each output
        exponent gets one raw {t-exponent: value} dict into which
        ``exact._accumulate`` adds the pairs' products."""
        ring = self.ring
        if isinstance(other, Series):
            self._check_same_ring(other)
            a = self._ints()
            b = None if a is None else other._ints()
            if b is not None:
                acc = _term_products(ring.cap, ((e, s.items()) for e, s in a.items()),
                                     ((e, s.items()) for e, s in b.items()))
                return Series._from_ints(ring, *_reduced(self._denom * other._denom,
                                                         _nonzero(acc)))
            acc = _term_products(ring.cap, ((e, c.coeffs.items()) for e, c in self.terms.items()),
                                 ((e, c.coeffs.items()) for e, c in other.terms.items()))
            return Series._trusted(ring, {e: TPoly._from_raw(slot) for e, slot in acc.items()}, 0)
        if isinstance(other, (int, Fraction)):
            num = self._ints()
            if num is not None:
                return Series._from_ints(ring, *_int_times(
                    self._denom, num, other.denominator, ((0, other.numerator),)))
        elif isinstance(other, TPoly):
            num = self._ints()
            pden = None if num is None else _denominator_lcm((other,))
            if pden is not None:
                return Series._from_ints(ring, *_int_times(
                    self._denom, num, pden, _numerators(other, pden)))
        elif not isinstance(other, CycloNumber):
            return NotImplemented
        return Series._trusted(ring, {e: c * other for e, c in self.terms.items()}, 0)

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

        In integer form, with self = Nn/Dn and other = Nd/Dd and
        n0 = Nd[0], the loop keeps Qint[t] = Q[t]·Dn·n0^(|t|+1), which
        satisfies the all-int recurrence
        Qint[t] = n0^|t|·Dd·Nn[t] − Σ Nd[e]·n0^(|e|−1)·Qint[t − e];
        every Qint[t] is then scaled by n0^(top − |t|) onto the one
        denominator Dn·n0^(top+1), top the highest degree solved."""
        if not isinstance(other, Series):
            return NotImplemented
        self._check_same_ring(other)
        ring = self.ring
        zero_t = (0,) * len(ring.variables)
        nn = self._ints()
        nd = None if nn is None else other._ints()
        if nd is None:
            c0 = other.constant_term().coeffs
            dividend, divisor = self.terms, other.terms
        else:
            c0 = nd.get(zero_t, {})
            dividend, divisor = nn, nd
        if len(c0) != 1 or 0 not in c0:
            raise NonUnitConstantTerm(
                "constant term must be a nonzero t-free scalar")
        # Each path gives the views of a numerator term and of a (negated)
        # divisor term, and `finish`, which turns a target's sum into what
        # later targets read (Q[t], or Qint[t] over ints) and the solved
        # coefficient.
        if nd is None:
            inv0 = scalar_inverse(c0[0])

            def num_view(tp, deg):
                return tp.coeffs.items()

            def div_view(tp, deg):
                return [(k, -v) for k, v in tp.coeffs.items()]

            def finish(acc, deg):
                tp = TPoly._from_raw({k: v * inv0 for k, v in acc.items()})
                return tp.coeffs.items(), tp
        else:
            dd = other._denom
            powers = [c0[0] ** d for d in range(ring.cap + 2)]

            def num_view(slot, deg):
                scale = dd * powers[deg]
                return [(k, v * scale) for k, v in slot.items()]

            def div_view(slot, deg):
                scale = -powers[deg - 1]
                return [(k, v * scale) for k, v in slot.items()]

            def finish(acc, deg):
                raw = {k: v for k, v in acc.items() if v}
                return raw.items(), (deg, raw)
        nonconst = sorted(((sum(e), e, div_view(c, sum(e)))
                           for e, c in divisor.items() if e != zero_t),
                          key=itemgetter(0))
        # pending[t] is target t's sum so far; by_degree[d] lists the targets
        # of degree d that have one, in the order their slots were made.
        pending: dict[tuple[int, ...], dict] = {}
        by_degree: list[list] = [[] for _ in range(ring.cap + 1)]
        for e, c in dividend.items():
            pending[e] = dict(num_view(c, sum(e)))
            by_degree[sum(e)].append(e)
        quot: dict[tuple[int, ...], object] = {}
        for deg, targets in enumerate(by_degree):
            room = ring.cap - deg
            for target in targets:
                items, value = finish(pending.pop(target), deg)
                if not items:
                    continue
                quot[target] = value
                for d, e, tc in nonconst:
                    if d > room:
                        break
                    exps = tuple(map(add, target, e))
                    slot = pending.get(exps)
                    if slot is None:
                        slot = pending[exps] = {}
                        by_degree[deg + d].append(exps)
                    _accumulate(slot, tc, items)
        if nd is None:
            return Series._trusted(ring, quot, 0)
        return Series._from_ints(ring, *_int_quotient(self._denom, powers, quot))

    def invert(self) -> "Series":
        """Multiplicative inverse up to the cap (see __truediv__)."""
        return self.ring.one() / self
    # -- structure maps -----------------------------------------------------

    def map_terms(self, fn: Callable[[tuple[int, ...], TPoly], TPoly]) -> "Series":
        return Series._trusted(self.ring, {e: fn(e, c) for e, c in self.terms.items()})

    def map_coeffs(self, fn: Callable[[TPoly], TPoly]) -> "Series":
        return Series._trusted(self.ring, {e: fn(c) for e, c in self.terms.items()})

    def affine_t(self, a, b) -> "Series":
        """Substitute t -> a*t + b (a, b rational) in every coefficient; in
        integer form when a and b are integers."""
        num = self._ints() if a.denominator == b.denominator == 1 else None
        if num is None:
            return self.map_coeffs(lambda tp: tp.affine_t(a, b))
        a, b = a.numerator, b.numerator
        return Series._from_ints(self.ring, *_reduced(self._denom, _nonzero(
            {e: _affine_items(slot.items(), a, b) for e, slot in num.items()})))

    def negate_vars(self, names: Iterable[str]) -> "Series":
        """Substitute v -> -v for the named variables."""
        idx = [self.ring._index[n] for n in names]

        def flip(terms: Mapping, neg) -> dict:
            return {e: neg(c) if sum(e[i] for i in idx) & 1 else c for e, c in terms.items()}

        num = self._ints()
        if num is None:
            return Series._trusted(self.ring, flip(self.terms, neg))
        return Series._from_ints(self.ring, self._denom,
                                 flip(num, lambda slot: {k: -v for k, v in slot.items()}))

    def coefficient_of(self, name: str, power: int) -> "Series":
        """Sub-series multiplying name^power, with that exponent zeroed."""
        i = self.ring._index[name]

        def pick(terms: Mapping) -> dict:
            return {exps[:i] + (0,) + exps[i + 1:]: c
                    for exps, c in terms.items() if exps[i] == power}

        num = self._ints()
        if num is None:
            return Series._trusted(self.ring, pick(self.terms))
        return Series._from_ints(self.ring, *_reduced(self._denom, pick(num)))

    def set_var_zero(self, name: str) -> "Series":
        return self.coefficient_of(name, 0)

    def substitute(self, bindings: Mapping[str, "Series"], target: SeriesRing) -> "Series":
        """Ring-morphism substitution: replace each bound variable by its
        image series (all images in the target ring); unbound variables must
        exist in the target ring and map to themselves.

        Exact up to the target cap when every image has zero constant term
        or the source is an exact polynomial.

        Each source term's monomial is multiplied out of the images' powers.
        A source and pieces in integer form are summed once on ints: each
        piece is scaled by its source term's numerators over the lcm of the
        pieces' denominators.  Otherwise each piece times its coefficient is
        added to a running total."""
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
        pow_cache: dict[tuple[int, int], Series] = {}

        def image_power(i: int, e: int) -> Series:
            got = pow_cache.get((i, e))
            if got is None:
                got = pow_cache[(i, e)] = images[i] ** e
            return got

        def piece(exps: tuple[int, ...]) -> Series:
            out = target.one()
            for i, e in enumerate(exps):
                if e:
                    out = out * image_power(i, e)
            return out

        num = self._ints()
        pieces = {exps: piece(exps) for exps in (self.terms if num is None else num)}
        if num is not None and all(p._ints() is not None for p in pieces.values()):
            den = lcm(*(p._denom for p in pieces.values()))
            acc: dict[tuple[int, ...], dict] = {}
            for exps, slot in num.items():
                p = pieces[exps]
                scale = den // p._denom
                scaled = [(k, v * scale) for k, v in slot.items()]
                for e, pslot in p._numer.items():
                    _accumulate(acc.setdefault(e, {}), pslot.items(), scaled)
            return Series._from_ints(target, *_reduced(den * self._denom, _nonzero(acc)))
        total = target.zero()
        for exps, tp in self.terms.items():
            total = total + pieces[exps] * tp
        return total

    # -- comparison / serialization ----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        if self.ring != other.ring:
            return False
        if self._denom and other._denom:
            return self._denom == other._denom and self._numer == other._numer
        # dict equality compares the TPolys with ==, under which a
        # rational-valued CycloNumber equals the same Fraction
        return self.terms == other.terms

    def first_mismatch(self, other: "Series"):
        """(exps, lhs TPoly, rhs TPoly) of the graded-lex-first differing
        term, or None when equal."""
        self._check_same_ring(other)
        if self == other:
            return None
        return first_term_mismatch(self.terms, other.terms)

    def to_json(self) -> list:
        return [
            {"exps": list(exps), "coeff": tp.to_json()}
            for exps, tp in self.sorted_terms()
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
