"""Truncated sparse multivariate power series with TPoly coefficients.

The truncation cap is a bound on the total degree of a term.  Every exponent
is nonnegative, so products are truncation-exact.

Storage.  A series keeps one form: numerators {exps: {t-power: value}}, with
no zero value and no empty slot, over a denominator.  When every coefficient
is a Fraction it is in integer form: int numerators over one positive int,
the lcm of the coefficients' denominators, so the form is in lowest terms
and unique.  Otherwise (a CycloNumber coefficient at q = ζ_n) it is in
scalar form: the coefficients themselves over 1, marked by denominator 0.

Each operation has one kernel, which reads and writes the form directly and
never builds a Fraction: ``+``, ``-`` and negation, ``*`` by a series, a
scalar or a TPoly, ``/``, the t-shift t -> a*t + b (``Series.affine_t``,
through the binomial expansion ``exact._affine_items``) and ``substitute``.
Two operands are first put in one form (``Series._pair``): both in integer
form, or, when either is in scalar form, both as their scalars over 1.  A
sum puts both sides on the lcm of their denominators, a product multiplies
them, and each result is divided by the gcd of its denominator and
numerators.  Over 1 that gcd stops at once, so no gcd sees a CycloNumber,
and a scaling by ±1 forms no product (``_scaled``): a CycloNumber times an
int is a full convolution.

``Series.terms``, the map from exponent tuples to TPolys, is built from the
form when first read and then kept: in integer form by ``exact._over``, the
only place the kernels build a Fraction, and in scalar form over the slots
themselves, which are never changed.  A series made from TPolys (the public
constructor, ``from_json``, the structure maps) holds its terms and is
scanned into its form once, by the first kernel that reads it.

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
over the cap.  The recurrence runs on scaled numerators (see
``__truediv__``).

The public constructors ``Series(ring, terms)`` and
``Series.from_numerators(ring, den, num)`` (integer numerators over one
denominator, for builders that know their coefficients in closed form)
validate every exponent tuple against the ring.  Kernel outputs whose keys
are admissible by construction (products pruned at the cap, sums and maps
over keys already in the ring, division targets pushed up to the cap) go
through the private ``Series._from_form``, which trusts its form as given,
or, over TPolys, ``Series._trusted``, which only drops zero coefficients.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter
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
        return Series._from_form(self, 1, {})

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
            return Series._from_form(self, coeff.denominator,
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
# the kernels: numerators {exps: {t-power: value}} over one positive int
# denominator, with no zero numerator and no empty slot; ints in lowest terms
# in integer form, the scalars themselves over 1 in scalar form.  Inner dicts
# are shared between series and never changed once built.
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


def _scaled(slot: Mapping, s: int) -> Mapping:
    """slot times the int s; 1 gives slot itself and -1 its negation, with
    no product."""
    if s == 1:
        return slot
    if s == -1:
        return {k: -v for k, v in slot.items()}
    return {k: v * s for k, v in slot.items()}


def _int_sum(da: int, a: Mapping, db: int, b: Mapping, sign: int) -> tuple[int, dict]:
    """a/da + sign·b/db, on the lcm of the denominators."""
    den = lcm(da, db)
    sa, sb = den // da, sign * (den // db)
    out = dict(a) if sa == 1 else {e: _scaled(slot, sa) for e, slot in a.items()}
    for e, slot in b.items():
        if sb != 1:
            slot = _scaled(slot, sb)
        mine = out.get(e)
        if mine is None:
            out[e] = slot
        elif mine := _add_into(dict(mine), slot.items()):
            out[e] = mine
        else:
            del out[e]
    return _reduced(den, out)


def _int_times(den: int, num: Mapping, pden: int, pitems) -> tuple[int, dict]:
    """num/den times the t-polynomial with (t-power, numerator) items
    pitems over pden."""
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
    num = {e: _scaled(raw, sign * powers[top - deg]) for e, (deg, raw) in quot.items()}
    return _reduced(sign * den, num)


def _held(slot: dict) -> TPoly:
    """The TPoly over a scalar-form slot, which holds no zero and is never
    changed, so it is not copied."""
    tp = _new(TPoly)
    _set(tp, "coeffs", slot)
    return tp


class Series:
    """A truncated series: map from exponent tuples to TPoly coefficients.
    Binary operations require both operands in the same ring.

    The value is `_numer` over `_denom` (see the module docstring): a
    positive int in integer form, 0 in scalar form, and None for a series
    made from TPolys until its first kernel scans it.  `terms` maps exponent
    tuples to TPolys; it is built from the form when first read."""

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
    def _trusted(cls, ring: SeriesRing, terms: Mapping[tuple[int, ...], TPoly]) -> "Series":
        """A Series over terms whose exponent tuples are admissible in ring
        by construction: zero coefficients are dropped, exponents are not
        re-checked."""
        out = _new(cls)
        _set(out, "ring", ring)
        _set(out, "terms", {e: tp for e, tp in terms.items() if tp.coeffs})
        _set(out, "_denom", None)
        _set(out, "_numer", None)
        return out

    @classmethod
    def _from_form(cls, ring: SeriesRing, den: int, num: dict) -> "Series":
        """A Series in integer form (den > 0, lowest terms) or scalar form
        (den 0), over admissible keys with no zeros; its `terms` are built
        when first read."""
        out = _new(cls)
        _set(out, "ring", ring)
        _set(out, "_denom", den)
        _set(out, "_numer", num)
        return out

    @classmethod
    def _made(cls, ring: SeriesRing, ints: bool, den: int, num: dict) -> "Series":
        """A kernel's result (den, num): in integer form when its operands
        were, else in scalar form (the kernel ran over 1)."""
        return cls._from_form(ring, den if ints else 0, num)

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
        return cls._from_form(ring, *_reduced(den, _nonzero(
            {e: slot for e, slot in num.items() if ring.check_exponents(e)})))

    def __getattr__(self, name):
        # Reached only when a slot is unset: `terms` of a series made by a
        # kernel, built once and kept.
        if name != "terms":
            raise AttributeError(name)
        den = self._denom
        if den:
            terms = {e: _over(raw, den) for e, raw in self._numer.items()}
        else:
            terms = {e: _held(slot) for e, slot in self._numer.items()}
        _set(self, "terms", terms)
        return terms

    def _form(self) -> tuple[int, dict]:
        """(`_denom`, `_numer`).  A series made from TPolys is scanned once:
        into integer form when every coefficient is a Fraction, else into
        scalar form over its TPolys' own coefficient dicts."""
        if self._denom is None:
            terms = self.terms
            den = _denominator_lcm(terms.values())
            if den is None:
                _set(self, "_numer", {e: tp.coeffs for e, tp in terms.items()})
            else:
                _set(self, "_numer", {e: dict(_numerators(tp, den))
                                      for e, tp in terms.items()})
            _set(self, "_denom", den or 0)
        return self._denom, self._numer

    def _scalars(self) -> dict:
        """The coefficients as {exps: {t-power: scalar}}: `_numer` in scalar
        form, read through `terms` in integer form."""
        den, num = self._form()
        return {e: tp.coeffs for e, tp in self.terms.items()} if den else num

    def _pair(self, other: "Series") -> tuple[bool, int, dict, int, dict]:
        """(ints, da, a, db, b): the two operands in one form, each as
        numerators over a denominator.  Both in integer form stay so (ints
        True); otherwise both are read as their scalars over 1."""
        if self.ring is not other.ring:
            self._check_same_ring(other)
        da, a = self._form()
        db, b = other._form()
        if da and db:
            return True, da, a, db, b
        return False, 1, self._scalars(), 1, other._scalars()

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Series is immutable")

    def __reduce__(self):
        return Series._from_form, (self.ring, *self._form())

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.terms if self._denom is None else self._numer)

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
        ints, da, a, db, b = self._pair(other)
        return Series._made(self.ring, ints, *_int_sum(da, a, db, b, sign))

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        den, num = self._form()
        return Series._from_form(self.ring, den, {e: _scaled(slot, -1)
                                                  for e, slot in num.items()})

    def __mul__(self, other):
        """The product with a series, a scalar or a TPoly.  Two series
        multiply term pair by term pair (`_term_products`): each output
        exponent gets one raw {t-exponent: value} dict into which
        ``exact._accumulate`` adds the pairs' products.  A scalar or a TPoly
        multiplies every slot (`_int_times`)."""
        ring = self.ring
        if isinstance(other, Series):
            ints, da, a, db, b = self._pair(other)
            acc = _term_products(ring.cap, ((e, s.items()) for e, s in a.items()),
                                 ((e, s.items()) for e, s in b.items()))
            return Series._made(ring, ints, *_reduced(da * db, _nonzero(acc)))
        if not isinstance(other, (int, Fraction, CycloNumber, TPoly)):
            return NotImplemented
        # the factor pairs as a one-term series would, without being one
        factor = as_tpoly(other)
        den, num = self._form()
        fden = _denominator_lcm((factor,)) if den else None
        if fden:
            return Series._from_form(ring, *_int_times(den, num, fden, _numerators(factor, fden)))
        return Series._made(ring, False, *_int_times(1, self._scalars(), 1, factor.coeffs.items()))

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
        denominator Dn·n0^(top+1), top the highest degree solved.  In
        integer form this is all-int.  In scalar form both sides are divided
        by c0 first, so n0 = 1 and every scale is ±1."""
        if not isinstance(other, Series):
            return NotImplemented
        ring = self.ring
        zero_t = (0,) * len(ring.variables)
        ints, dn, nn, dd, nd = self._pair(other)
        c0 = nd.get(zero_t, {})
        if len(c0) != 1 or 0 not in c0:
            raise NonUnitConstantTerm(
                "constant term must be a nonzero t-free scalar")
        n0 = c0[0]
        if not ints:
            inv0 = scalar_inverse(n0)
            nn, nd = [{e: {k: v * inv0 for k, v in slot.items()} for e, slot in side.items()}
                      for side in (nn, nd)]
            n0 = 1
        powers = [n0 ** d for d in range(ring.cap + 2)]
        nonconst = sorted(((sum(e), e, _scaled(slot, -powers[sum(e) - 1]).items())
                           for e, slot in nd.items() if e != zero_t),
                          key=itemgetter(0))
        # pending[t] is target t's sum so far; by_degree[d] lists the targets
        # of degree d that have one, in the order their slots were made.
        pending: dict[tuple[int, ...], dict] = {}
        by_degree: list[list] = [[] for _ in range(ring.cap + 1)]
        for e, slot in nn.items():
            deg = sum(e)
            pending[e] = dict(_scaled(slot, dd * powers[deg]))
            by_degree[deg].append(e)
        quot: dict[tuple[int, ...], tuple[int, dict]] = {}
        for deg, targets in enumerate(by_degree):
            room = ring.cap - deg
            for target in targets:
                raw = {k: v for k, v in pending.pop(target).items() if v}
                if not raw:
                    continue
                quot[target] = deg, raw
                items = raw.items()
                for d, e, tc in nonconst:
                    if d > room:
                        break
                    exps = tuple(map(add, target, e))
                    slot = pending.get(exps)
                    if slot is None:
                        slot = pending[exps] = {}
                        by_degree[deg + d].append(exps)
                    _accumulate(slot, tc, items)
        return Series._made(ring, ints, *_int_quotient(dn, powers, quot))

    def invert(self) -> "Series":
        """Multiplicative inverse up to the cap (see __truediv__)."""
        return self.ring.one() / self
    # -- structure maps -----------------------------------------------------

    def map_coeffs(self, fn: Callable[[TPoly], TPoly]) -> "Series":
        return Series._trusted(self.ring, {e: fn(c) for e, c in self.terms.items()})

    def affine_t(self, a, b) -> "Series":
        """Substitute t -> a*t + b (a, b int or Fraction) in every
        coefficient by `_affine_items`: on the int numerators in integer
        form when a and b are integers, else on the scalars."""
        den, num = self._form()
        ints = den != 0 and a.denominator == b.denominator == 1
        if ints:
            a, b = a.numerator, b.numerator
        else:
            den, num = 1, self._scalars()
        return Series._made(self.ring, ints, *_reduced(den, _nonzero(
            {e: _affine_items(slot.items(), a, b) for e, slot in num.items()})))

    def negate_vars(self, names: Iterable[str]) -> "Series":
        """Substitute v -> -v for the named variables."""
        idx = [self.ring._index[n] for n in names]
        den, num = self._form()
        return Series._from_form(self.ring, den, {
            e: _scaled(slot, -1) if sum(e[i] for i in idx) & 1 else slot
            for e, slot in num.items()})

    def coefficient_of(self, name: str, power: int) -> "Series":
        """Sub-series multiplying name^power, with that exponent zeroed."""
        i = self.ring._index[name]
        den, num = self._form()
        picked = {exps[:i] + (0,) + exps[i + 1:]: slot
                  for exps, slot in num.items() if exps[i] == power}
        return Series._made(self.ring, den != 0, *_reduced(den or 1, picked))

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
        term's numerators, over the lcm of the pieces' denominators in
        integer form, or over 1 as scalars when the source or any piece is
        in scalar form."""
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

        dsrc, num = self._form()
        pieces = {exps: piece(exps) for exps in num}
        ints = dsrc != 0 and all(p._form()[0] for p in pieces.values())
        if ints:
            den = lcm(*(p._denom for p in pieces.values()))
            views = {exps: (den // p._denom, p._numer) for exps, p in pieces.items()}
        else:
            dsrc, den, num = 1, 1, self._scalars()
            views = {exps: (1, p._scalars()) for exps, p in pieces.items()}
        acc: dict[tuple[int, ...], dict] = {}
        for exps, slot in num.items():
            scale, pnum = views[exps]
            scaled = _scaled(slot, scale).items()
            for e, pslot in pnum.items():
                _accumulate(acc.setdefault(e, {}), pslot.items(), scaled)
        return Series._made(target, ints, *_reduced(den * dsrc, _nonzero(acc)))

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
