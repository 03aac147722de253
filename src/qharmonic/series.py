"""Truncated sparse multivariate power series with TPoly coefficients.

The truncation cap is a total-degree bound over the ring's *capped*
variables; designated variables (the polylogarithm variable z in practice)
are exempt and never truncated.  Every exponent is nonnegative, so products
are truncation-exact.

Multiplication sorts the right operand's terms by capped degree once; since
capped degree is additive, each left term's inner loop stops at the first
partner that would exceed the cap, so dropped pairs are never formed.

Division ``num / den`` solves ``den * Q = num`` target by target in graded
order (a triangular solve, since den's constant term is a t-free unit);
``invert()`` is ``one / den``, so one recurrence serves both.  The product
and the division add raw scalar products into one {t-exponent: scalar} dict
per output exponent and build each TPoly once at the end, not one
intermediate TPoly per term pair.  That product kernel and the
add-with-cancellation loop of ``+`` are the ones TPoly and ZPoly use; both
live in :mod:`qharmonic.exact`.

The public constructor ``Series(ring, terms)`` validates every exponent
tuple against the ring.  Kernel outputs whose keys are admissible by
construction (products pruned at the cap, sums and maps over keys already
in the ring, division targets enumerated up to the cap) go through the
private ``Series._trusted``, which only drops zero coefficients; the TPoly
coefficients the two kernels add up go through ``TPoly._from_raw`` alike.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add, itemgetter, sub
from typing import Callable, Iterable, Mapping, Sequence

from .exact import (
    CycloNumber,
    QHarmonicError,
    Scalar,
    TPoly,
    _accumulate,
    _add_into,
    _power,
    as_tpoly,
    scalar_inverse,
)
from .indices import compositions


class NonUnitConstantTerm(QHarmonicError):
    """Series inversion needs a t-free invertible constant term."""


class SeriesRing:
    """Shared shape data for Series values: variable names, truncation cap
    and the subset of capped variables."""

    __slots__ = ("variables", "cap", "uncapped", "_index", "_capped_idx")

    def __init__(self, variables: Sequence[str], cap: int,
                 uncapped: Iterable[str] = ()) -> None:
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        uncapped = frozenset(uncapped)
        if not uncapped <= set(variables):
            raise ValueError("uncapped names not among variables")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "cap", int(cap))
        object.__setattr__(self, "uncapped", uncapped)
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(variables)})
        object.__setattr__(
            self, "_capped_idx",
            tuple(i for i, v in enumerate(variables) if v not in uncapped))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("SeriesRing is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeriesRing)
            and self.variables == other.variables
            and self.cap == other.cap
            and self.uncapped == other.uncapped
        )

    def __hash__(self) -> int:
        return hash((self.variables, self.cap, self.uncapped))

    def __repr__(self) -> str:
        return (f"SeriesRing({self.variables}, cap={self.cap}"
                + (f", uncapped={sorted(self.uncapped)}" if self.uncapped else "")
                + ")")

    # -- term helpers -------------------------------------------------------

    def capped_degree(self, exps: tuple[int, ...]) -> int:
        if not self.uncapped:
            return sum(exps)
        return sum(exps[i] for i in self._capped_idx)

    def check_exponents(self, exps: tuple[int, ...]) -> bool:
        """True when the term is admissible, False when it exceeds the cap
        (to be dropped); raises ValueError on a negative exponent."""
        if min(exps, default=0) < 0:
            raise ValueError(f"negative exponent in {exps}")
        return self.capped_degree(exps) <= self.cap

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
        """Exponent tuples (zero on uncapped slots) of total degree <= cap in
        graded lex order: degree d's are the compositions of d + k into the k
        capped slots, less one per part, in the lex order of `compositions`."""
        slots = self._capped_idx
        k = len(slots)
        exps = [0] * len(self.variables)
        out: list[tuple[int, ...]] = []
        for d in range(self.cap + 1):
            for parts in compositions(d + k, k):
                for i, p in zip(slots, parts):
                    exps[i] = p - 1
                out.append(tuple(exps))
        return out


def _term_sort_key(exps: tuple[int, ...]):
    return (sum(exps), exps)


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
            tp = as_tpoly(other)
            if tp.is_zero():
                return self.ring.zero()
            return Series._trusted(self.ring, {e: c * tp for e, c in self.terms.items()})
        if not isinstance(other, Series):
            return NotImplemented
        self._check_same_ring(other)
        ring = self.ring
        degree = ring.capped_degree
        right = sorted(((degree(e), e, c.coeffs.items()) for e, c in other.terms.items()),
                       key=itemgetter(0))
        acc: dict[tuple[int, ...], dict[int, Scalar]] = {}
        for e1, c1 in self.terms.items():
            room = ring.cap - degree(e1)
            t1 = c1.coeffs.items()
            for d2, e2, t2 in right:
                if d2 > room:
                    break
                exps = tuple(map(add, e1, e2))
                slot = acc.get(exps)
                if slot is None:
                    slot = acc[exps] = {}
                _accumulate(slot, t1, t2)
        return Series._trusted(ring, {e: TPoly._from_raw(slot) for e, slot in acc.items()})

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            return self.invert() ** (-exp)
        return _power(self, exp, self.ring.one())

    def __truediv__(self, other):
        """Quotient up to the cap: solves other * Q = self target by target.

        Both operands must be series over capped variables only, and the
        divisor's constant term a t-free invertible scalar.  Each target's
        coefficient is inv0 · (self[target] − Σ other[e] · Q[target − e])
        over the divisor's non-constant terms e, which are sorted by degree
        so the sum stops at the target's degree."""
        if not isinstance(other, Series):
            return NotImplemented
        self._check_same_ring(other)
        ring = self.ring
        if ring.uncapped:
            raise NonUnitConstantTerm("division with uncapped variables is unsupported")
        c0 = other.constant_term()
        if c0.is_zero() or c0.degree() != 0:
            raise NonUnitConstantTerm(
                "constant term must be a nonzero t-free scalar")
        neg_inv0 = -scalar_inverse(c0.coeffs[0])
        zero_t = (0,) * len(ring.variables)
        nonconst = sorted(((sum(e), e, c.coeffs.items())
                           for e, c in other.terms.items() if e != zero_t),
                          key=itemgetter(0))
        num = self.terms
        quot: dict[tuple[int, ...], TPoly] = {}
        for target in ring.exponents_up_to_cap():
            room = sum(target)
            acc: dict[int, Scalar] = {}
            for d, e, tc in nonconst:
                if d > room:
                    break
                known = quot.get(tuple(map(sub, target, e)))
                if known is not None:
                    _accumulate(acc, tc, known.coeffs.items())
            given = num.get(target)
            if given is not None:
                for k, v in given.coeffs.items():
                    acc[k] = acc[k] - v if k in acc else -v
            tp = TPoly._from_raw({k: v * neg_inv0 for k, v in acc.items()})
            if tp.coeffs:
                quot[target] = tp
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

    def set_var_one(self, name: str) -> "Series":
        """Evaluate a polynomially-supported variable at 1 by merging
        exponents (exact; no truncation interplay for uncapped variables)."""
        i = self.ring._index[name]
        merged = ((exps[:i] + (0,) + exps[i + 1:], tp) for exps, tp in self.terms.items())
        return Series(self.ring, _add_into({}, merged))

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
        keys = sorted(set(self.terms) | set(other.terms), key=_term_sort_key)
        for k in keys:
            a = self.terms.get(k, TPoly.zero())
            b = other.terms.get(k, TPoly.zero())
            if a != b:
                return k, a, b
        return None

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
