"""Truncated sparse multivariate power series with TPoly coefficients.

The truncation cap is a bound on the total degree of a term.  Every exponent
is nonnegative, so products are truncation-exact.

Product.  Multiplication sorts the right operand's terms by degree once;
since degree is additive, each left term's inner loop stops at the first
partner that would exceed the cap, so dropped pairs are never formed.  Each
output exponent gets one raw {t-exponent: scalar} dict into which
``exact._accumulate`` adds the term pairs' products, and each dict becomes
one TPoly at the end, not one intermediate TPoly per term pair.

Division.  ``num / den`` solves ``den * Q = num`` target by target in graded
order (a triangular solve, since den's constant term c0 is a t-free unit);
``invert()`` is ``one / den``, so one recurrence serves both.  Each target
starts from its numerator coefficient, subtracts the products of den's other
terms with the quotient coefficients already solved, and divides by c0.

Integer scaling.  When every coefficient of both operands is a Fraction,
each operand is read as int numerators over the lcm of its denominators and
both kernels run the same loop over ints: the product finishes an output
slot with one Fraction(v, D1·D2) per coefficient, and the division keeps
Q[t]·Dn·n0^(|t|+1) (n0 the divisor's constant term on its denominator),
which satisfies an all-int recurrence (see ``__truediv__``).  ``exact._over``
builds those Fractions and is the only place the integer path does.

Generic fallback.  Any other coefficient (a CycloNumber at q = ζ_n) sends
the kernel down the same loop over the coefficients themselves, each slot
finished as it is: the product builds the TPoly from the raw dict, and the
division multiplies by the inverse of c0.  Both paths give the same values.
The add-with-cancellation loop of ``+`` and the product kernel are the ones
TPoly and ZPoly use; both live in :mod:`qharmonic.exact`.

The public constructor ``Series(ring, terms)`` validates every exponent
tuple against the ring.  Kernel outputs whose keys are admissible by
construction (products pruned at the cap, sums and maps over keys already
in the ring, division targets enumerated up to the cap) go through the
private ``Series._trusted``, which only drops zero coefficients; the TPoly
coefficients the two kernels add up go through ``TPoly._from_raw`` alike.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import add, itemgetter, sub
from typing import Callable, Iterable, Mapping, Sequence

from .exact import (
    CycloNumber,
    QHarmonicError,
    Scalar,
    TPoly,
    _accumulate,
    _add_into,
    _denominator_lcm,
    _numerators,
    _over,
    _power,
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
        (to be dropped); raises ValueError on a negative exponent."""
        if min(exps, default=0) < 0:
            raise ValueError(f"negative exponent in {exps}")
        return sum(exps) <= self.cap

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Series":
        return Series(self, {})

    def one(self) -> "Series":
        return self.scalar(Fraction(1))

    def scalar(self, value) -> "Series":
        tp = as_tpoly(value)
        z = (0,) * len(self.variables)
        return Series(self, {z: tp} if not tp.is_zero() else {})

    def var(self, name: str, power: int = 1) -> "Series":
        return self.monomial({name: power})

    def monomial(self, exps: Mapping[str, int], coeff=Fraction(1)) -> "Series":
        e = [0] * len(self.variables)
        for name, p in exps.items():
            e[self._index[name]] = p
        tp = as_tpoly(coeff)
        t = tuple(e)
        if not self.check_exponents(t):
            return self.zero()
        return Series(self, {t: tp} if not tp.is_zero() else {})

    def exponents_up_to_cap(self) -> list[tuple[int, ...]]:
        """Exponent tuples of total degree <= cap in graded lex order: degree
        d's are the compositions of d + k into the k variables, less one per
        part, in the lex order of `compositions`."""
        k = len(self.variables)
        return [tuple(p - 1 for p in parts)
                for d in range(self.cap + 1) for parts in compositions(d + k, k)]


def _items(tp: TPoly):
    return tp.coeffs.items()


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


class Series:
    """A truncated series: map from exponent tuples to TPoly coefficients.
    Binary operations require both operands in the same ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: SeriesRing, terms: Mapping[tuple[int, ...], TPoly]) -> None:
        clean: dict[tuple[int, ...], TPoly] = {}
        for exps, tp in terms.items():
            if tp.is_zero():
                continue
            if ring.check_exponents(exps):
                clean[exps] = tp
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, ring: SeriesRing,
                 terms: Mapping[tuple[int, ...], TPoly]) -> "Series":
        """A Series over terms whose exponent tuples are admissible in ring
        by construction: zero coefficients are dropped, exponents are not
        re-checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "ring", ring)
        object.__setattr__(out, "terms", {e: tp for e, tp in terms.items() if tp.coeffs})
        return out

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("Series is immutable")

    def __reduce__(self):
        return Series._trusted, (self.ring, self.terms)

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

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

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber, TPoly)):
            other = self.ring.scalar(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_same_ring(other)
        return Series._trusted(self.ring, _add_into(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Series._trusted(self.ring, {e: -tp for e, tp in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber, TPoly)):
            other = self.ring.scalar(other)
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber, TPoly)):
            return Series._trusted(self.ring, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Series):
            return NotImplemented
        self._check_same_ring(other)
        ring = self.ring
        den1 = _denominator_lcm(self.terms.values())
        den2 = None if den1 is None else _denominator_lcm(other.terms.values())
        if den2 is None:
            view1 = view2 = _items
            finish = TPoly._from_raw
        else:
            view1, view2 = partial(_numerators, scale=den1), partial(_numerators, scale=den2)
            finish = partial(_over, den=den1 * den2)
        right = sorted(((sum(e), e, view2(c)) for e, c in other.terms.items()),
                       key=itemgetter(0))
        acc: dict[tuple[int, ...], dict[int, Scalar]] = {}
        for e1, c1 in self.terms.items():
            room = ring.cap - sum(e1)
            t1 = view1(c1)
            for d2, e2, t2 in right:
                if d2 > room:
                    break
                exps = tuple(map(add, e1, e2))
                slot = acc.get(exps)
                if slot is None:
                    slot = acc[exps] = {}
                _accumulate(slot, t1, t2)
        return Series._trusted(ring, {e: finish(slot) for e, slot in acc.items()})

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            return self.invert() ** (-exp)
        return _power(self, exp, self.ring.one())

    def __truediv__(self, other):
        """Quotient up to the cap: solves other * Q = self target by target.

        The divisor's constant term c0 must be a t-free invertible scalar.  Each target's
        coefficient is (self[target] − Σ other[e] · Q[target − e]) / c0 over
        the divisor's non-constant terms e, which are sorted by degree so the
        sum stops at the target's degree.

        Over Fractions, with self = Nn/Dn and other = Nd/Dd on int numerators
        and n0 = Nd[0], the loop keeps Qint[t] = Q[t]·Dn·n0^(|t|+1), which
        satisfies the all-int recurrence
        Qint[t] = n0^|t|·Dd·Nn[t] − Σ Nd[e]·n0^(|e|−1)·Qint[t − e],
        and divides once per output coefficient."""
        if not isinstance(other, Series):
            return NotImplemented
        self._check_same_ring(other)
        ring = self.ring
        c0 = other.constant_term()
        if c0.is_zero() or c0.degree() != 0:
            raise NonUnitConstantTerm(
                "constant term must be a nonzero t-free scalar")
        c0 = c0.coeffs[0]
        # Each path gives the views of a numerator term and of a (negated)
        # divisor term, and `finish`, which turns a target's sum into what
        # later targets read (Q[t], or Qint[t] over ints) and its output TPoly.
        dn = _denominator_lcm(self.terms.values())
        dd = None if dn is None else _denominator_lcm(other.terms.values())
        if dd is None:
            inv0 = scalar_inverse(c0)

            def num_view(tp, deg):
                return tp.coeffs.items()

            def div_view(tp, deg):
                return [(k, -v) for k, v in tp.coeffs.items()]

            def finish(acc, deg):
                tp = TPoly._from_raw({k: v * inv0 for k, v in acc.items()})
                return tp.coeffs.items(), tp
        else:
            n0 = c0.numerator * (dd // c0.denominator)
            powers = [n0 ** d for d in range(ring.cap + 2)]

            def num_view(tp, deg):
                return _numerators(tp, dn * dd * powers[deg])

            def div_view(tp, deg):
                return _numerators(tp, -dd * powers[deg - 1])

            def finish(acc, deg):
                raw = {k: v for k, v in acc.items() if v}
                return raw.items(), _over(raw, dn * powers[deg + 1])
        zero_t = (0,) * len(ring.variables)
        nonconst = sorted(((sum(e), e, div_view(c, sum(e)))
                           for e, c in other.terms.items() if e != zero_t),
                          key=itemgetter(0))
        num = {e: num_view(c, sum(e)) for e, c in self.terms.items()}
        known: dict[tuple[int, ...], Iterable] = {}
        quot: dict[tuple[int, ...], TPoly] = {}
        for target in ring.exponents_up_to_cap():
            room = sum(target)
            acc: dict[int, Scalar] = dict(num.get(target, ()))
            for d, e, tc in nonconst:
                if d > room:
                    break
                prev = known.get(tuple(map(sub, target, e)))
                if prev is not None:
                    _accumulate(acc, tc, prev)
            if acc:
                known[target], quot[target] = finish(acc, room)
        return Series._trusted(ring, quot)

    def invert(self) -> "Series":
        """Multiplicative inverse up to the cap (see __truediv__)."""
        return self.ring.one() / self

    # -- structure maps -----------------------------------------------------

    def map_terms(self, fn: Callable[[tuple[int, ...], TPoly], TPoly]) -> "Series":
        return Series._trusted(self.ring, {e: fn(e, c) for e, c in self.terms.items()})

    def map_coeffs(self, fn: Callable[[TPoly], TPoly]) -> "Series":
        return Series._trusted(self.ring, {e: fn(c) for e, c in self.terms.items()})

    def negate_vars(self, names: Iterable[str]) -> "Series":
        """Substitute v -> -v for the named variables."""
        idx = [self.ring._index[n] for n in names]
        out = {}
        for exps, tp in self.terms.items():
            sign = sum(exps[i] for i in idx) & 1
            out[exps] = -tp if sign else tp
        return Series(self.ring, out)

    def coefficient_of(self, name: str, power: int) -> "Series":
        """Sub-series multiplying name^power, with that exponent zeroed."""
        i = self.ring._index[name]
        out = {}
        for exps, tp in self.terms.items():
            if exps[i] == power:
                out[exps[:i] + (0,) + exps[i + 1:]] = tp
        return Series(self.ring, out)

    def set_var_zero(self, name: str) -> "Series":
        return self.coefficient_of(name, 0)

    def substitute(self, bindings: Mapping[str, "Series"], target: SeriesRing) -> "Series":
        """Ring-morphism substitution: replace each bound variable by its
        image series (all images in the target ring); unbound variables must
        exist in the target ring and map to themselves.

        Exact up to the target cap when every image has zero constant term
        or the source is an exact polynomial."""
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

        total = target.zero()
        for exps, tp in self.terms.items():
            piece = target.one()
            for i, e in enumerate(exps):
                if e:
                    piece = piece * image_power(i, e)
            total = total + piece * tp
        return total

    # -- comparison / serialization ----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        if self.ring != other.ring:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(tp == other.terms[e] for e, tp in self.terms.items())

    def first_mismatch(self, other: "Series"):
        """(exps, lhs TPoly, rhs TPoly) of the graded-lex-first differing
        term, or None when equal."""
        self._check_same_ring(other)
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
