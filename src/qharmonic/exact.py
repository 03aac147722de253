"""Exact scalar arithmetic.

Three scalar kinds are used throughout the package:

* ``fractions.Fraction``  -- plain rationals,
* ``CycloNumber``         -- elements of Q(zeta_n), reduced modulo the n-th
                             cyclotomic polynomial and stored as phi(n) int
                             numerators over one positive int denominator,
                             kept in lowest terms; at the generator
                             zeta_n, zeta^e and 1/(1 - zeta^e) have closed
                             forms built by index arithmetic, and a product
                             with zeta^e is a rotation of the numerators,
* ``complex``             -- floating point, quarantined to the numeric limit
                             check in :mod:`qharmonic.qseries`; it never mixes
                             with the exact kinds.

``SparsePoly`` is the one sparse univariate polynomial core: an immutable
{exponent: coefficient} map whose add-with-cancellation loop (``_add_into``)
and raw product kernel (``_accumulate``) the series module shares.
``TPoly`` is its instance in the interpolation variable t, with exact scalar
coefficients; ``qseries.ZPoly`` is its instance in z, with TPoly
coefficients.  Series coefficients everywhere in the package are TPoly
values, so t is never truncated.

The integer kernels work on numerators over one int denominator and divide
once at the end (``_over``): the numerators of a ``NumeratorRing``, ints over
Q and Z[zeta_n] coefficients over Q(zeta_n), in the form every Series keeps
between operations and in the cached t-layers of the qseries prefix-sum
recursion.
"""
from __future__ import annotations

import operator
import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, gcd, lcm
from typing import Iterable, Mapping, Union


class QHarmonicError(Exception):
    """Base class for package errors."""


class DivisionByZero(QHarmonicError, ZeroDivisionError):
    """Exact inverse of zero requested."""


class IrrationalCoefficient(QHarmonicError):
    """A coefficient expected to be rational has a nonzero zeta-component."""


Scalar = Union[Fraction, "CycloNumber"]


# str(int) and int(str) refuse more than sys.get_int_max_str_digits() digits
# (4300 by default); decimal converts exactly at any length, so an exact value
# is never refused for being long.
_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def _int_text(n: int) -> str:
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction; a zero denominator is a ValueError."""
    text = text.strip()
    match = _RATIONAL.fullmatch(text)
    if match is None:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    p, q = match.groups()
    den = int(Decimal(q or 1))
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(Decimal(p)), den)


def render_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return _int_text(value.numerator)
    return f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense, ascending coefficients)
# ---------------------------------------------------------------------------

def _poly_div_exact_int(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic; division over Z is exact for cyclotomic factors
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1]
        if c:
            quot[shift] = c
            for i, d in enumerate(den):
                num[shift + i] -= c * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return quot


# Unbounded: one key per cyclotomic order.  Only the cached cyclotomic_polynomial
# calls it, so it never hits; it stays a cache because perfbench reads it by name.
@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


# Unbounded: one key per cyclotomic order, the divisors of the n a run asks for.
@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the
    proper divisors of n.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        poly = _poly_div_exact_int(poly, cyclotomic_polynomial(d))
    return tuple(poly)


# What _reduce reads of the order-th cyclotomic polynomial: phi(order) and
# its nonzero terms (i, c_i) below the leading one.  A plain dict beside the
# cache above, one key per order like it, filled on first use; each entry is
# a function of the order alone, so no result depends on whether it is filled.
_REDUCTION_TERMS: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}


# Unbounded: one key per cyclotomic order, as for cyclotomic_polynomial.
@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


_NOT_RATIONAL = "CycloNumber coefficient must be an int or Fraction, not {}"


class CycloNumber:
    """An element of Q(zeta_n), immutable.

    Stored as integer numerators over one positive integer denominator: the
    element is (a_0 + a_1 zeta + ... + a_{phi-1} zeta^(phi-1)) / d, with
    `_num` = (a_0, ..., a_{phi-1}) a tuple of phi(n) ints after reduction
    modulo the monic integer n-th cyclotomic polynomial, and `_den` = d.  The
    pair is kept normalised: d is coprime to the content of the numerators,
    and zero is (0, ..., 0)/1, so two values of one order are equal exactly
    when their pairs are.  `coeffs` gives the same element as a tuple of
    phi(n) Fractions.

    The constructor and `from_rational` take ints and Fractions only.
    Arithmetic accepts ints and Fractions on either side (promoted to the
    same order) but refuses other orders and floats.
    """

    __slots__ = ("order", "_num", "_den", "_hash")

    def __init__(self, order: int, coeffs: Iterable) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        phi = euler_phi(order)
        cs = list(coeffs)
        den = 1
        for c in cs:
            if isinstance(c, Fraction):
                den = lcm(den, c.denominator)
            elif not isinstance(c, int):
                raise TypeError(_NOT_RATIONAL.format(type(c).__name__))
        num = [c.numerator * (den // c.denominator) for c in cs]
        if len(num) > phi:
            _reduce(order, num)
        num += [0] * (phi - len(num))
        _fill(self, order, num, den)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("CycloNumber is immutable")

    def __reduce__(self):
        # pickle and copy rebuild from the stored (canonical) pair; their
        # default slot restore would go through the guard above
        return _make, (self.order, list(self._num), self._den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients of 1, zeta, ..., zeta^(phi(n)-1)."""
        den = self._den
        return tuple(Fraction(a, den) for a in self._num)

    @classmethod
    def zeta(cls, order: int) -> "CycloNumber":
        """The fixed primitive order-th root of unity (the class of x)."""
        return cls(order, [0, 1])

    @classmethod
    def zeta_power(cls, order: int, e: int) -> "CycloNumber":
        """zeta^e, the basis vector x^(e mod order) reduced: no product, and
        a negative e needs no inverse."""
        num = [0] * order
        num[e % order] = 1
        _reduce(order, num)
        return _make(order, num, 1)

    @classmethod
    def one_minus_zeta_power_inverse(cls, order: int, e: int) -> "CycloNumber":
        """1/(1 - zeta^e) in closed form: every x != 1 with x^N = 1 has
        1/(1 - x) = -(1/N) * sum_{j=1}^{N-1} j x^j, with x^j = zeta^(e*j mod N)."""
        if e % order == 0:
            raise DivisionByZero("inverse of zero in Q(zeta)")
        num = [0] * order
        for j in range(1, order):
            num[e * j % order] -= j
        _reduce(order, num)
        return _make(order, num, order)

    @classmethod
    def from_rational(cls, order: int, value) -> "CycloNumber":
        if not isinstance(value, (int, Fraction)):
            raise TypeError(_NOT_RATIONAL.format(type(value).__name__))
        num = [0] * euler_phi(order)
        num[0] = value.numerator
        return _fill(_new(cls), order, num, value.denominator)

    # -- conversions --------------------------------------------------------

    def as_rational(self) -> Fraction | None:
        num = self._num
        if any(num[1:]):
            return None
        return Fraction(num[0], self._den)

    def __bool__(self) -> bool:
        return any(self._num)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            if other.order != self.order:
                raise TypeError(
                    f"cannot mix cyclotomic orders {self.order} and {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNumber.from_rational(self.order, other)
        return None

    def _combine(self, other, sign: int):
        """self + sign * other, over the lcm of the two denominators."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._den, o._den
        if d1 == d2:
            s, t, den = 1, sign, d1
        else:
            g = gcd(d1, d2)
            s, t, den = d2 // g, sign * (d1 // g), d1 // g * d2
        return _make(self.order, [a * s + b * t for a, b in zip(self._num, o._num)], den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, [-a for a in self._num], self._den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.order, _product(self.order, self._num, o._num),
                     self._den * o._den)

    __rmul__ = __mul__

    def times_zeta_power(self, e: int) -> "CycloNumber":
        """self * zeta^e as a rotation: numerator i moves to slot
        (i + e) mod order and one _reduce follows, with no product; zeta^e is
        a unit, so the denominator stays."""
        order = self.order
        num = [0] * order
        for i, a in enumerate(self._num):
            num[(i + e) % order] = a
        _reduce(order, num)
        return _make(order, num, self._den)

    def inverse(self) -> "CycloNumber":
        """Multiplicative inverse through the Galois norm, in integers.

        With self = P/d, 1/self = d * C / N(P), where the cofactor C is the
        product of the conjugates sigma_j(P) (zeta -> zeta^j) over the units
        j != 1 mod n, and N(P) = P * C is a nonzero integer."""
        if not self:
            raise DivisionByZero("inverse of zero in Q(zeta)")
        num, order = self._num, self.order
        cof = _galois_cofactor(order, num)
        norm = _product(order, num, cof)[0]
        den = self._den
        if norm < 0:
            norm, den = -norm, -den
        return _make(order, [den * c for c in cof], norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exp: int):
        if not isinstance(exp, int):
            return NotImplemented
        base = self.inverse() if exp < 0 else self
        return _power(base, abs(exp), CycloNumber.from_rational(self.order, 1))

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloNumber):
            if other.order == self.order:
                return self._num == other._num and self._den == other._den
            a, b = self.as_rational(), other.as_rational()
            return a is not None and a == b
        if isinstance(other, (int, Fraction)):
            return self.as_rational() == other
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        r = self.as_rational()
        h = hash(r) if r is not None else hash((self.order, self.coeffs))
        _set(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        terms = []
        for e, c in enumerate(self.coeffs):
            if c:
                cs = render_rational(c)
                terms.append(cs if e == 0 else f"{cs}*w^{e}")
        return f"CycloNumber({self.order}; {' + '.join(terms) or '0'})"


_new = object.__new__
_set = object.__setattr__


def _power(base, exp: int, one):
    """base**exp (exp >= 0) by repeated squaring from `one`, for every `**`."""
    out = one
    while exp:
        if exp & 1:
            out = out * base
        base = base * base
        exp >>= 1
    return out


def _convolve(x, y) -> list:
    """The product of two dense coefficient lists, lowest power first."""
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for k, b in enumerate(y, i):
                if b:
                    out[k] += a * b
    return out


def _product(order: int, x, y) -> list[int]:
    """The integer convolution of the coefficient lists x and y, reduced
    modulo the order-th cyclotomic polynomial."""
    prod = _convolve(x, y)
    _reduce(order, prod)
    return prod


def _galois_cofactor(order: int, num) -> list[int]:
    """The product C of the conjugates sigma_j(P) (zeta -> zeta^j) over the
    units j != 1 mod order, P the coefficient list num of a nonzero element
    of Z[zeta_order]: P * C is the integer norm N(P), so C turns a division
    by P into a division by an int."""
    cof = [1]
    for j in range(2, order):
        if gcd(j, order) == 1:
            conj = [0] * order
            for i, a in enumerate(num):
                if a:
                    conj[i * j % order] += a
            _reduce(order, conj)
            cof = _product(order, cof, conj)
    return cof


def _reduce(order: int, prod: list[int]) -> None:
    """Reduce the integer coefficient list `prod` modulo the monic order-th
    cyclotomic polynomial, in place, and cut it to phi(order) entries."""
    try:
        phi, low = _REDUCTION_TERMS[order]
    except KeyError:
        mod = cyclotomic_polynomial(order)
        phi = len(mod) - 1
        low = tuple((i, m) for i, m in enumerate(mod[:phi]) if m)
        _REDUCTION_TERMS[order] = phi, low
    for deg in range(len(prod) - 1, phi - 1, -1):
        c = prod[deg]
        if c:
            base = deg - phi
            for i, m in low:
                prod[base + i] -= c * m
    del prod[phi:]


def _fill(out: CycloNumber, order: int, num: list[int], den: int) -> CycloNumber:
    """Store num/den in `out`, divided by the gcd of den and the numerators'
    content; this also makes an all-zero numerator list read (0, ..., 0)/1."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [a // g for a in num]
            den //= g
    _set(out, "order", order)
    _set(out, "_num", tuple(num))
    _set(out, "_den", den)
    return out


def _make(order: int, num: list[int], den: int) -> CycloNumber:
    return _fill(_new(CycloNumber), order, num, den)


def is_rational(a: Scalar) -> tuple[bool, Fraction | None]:
    """Whether a scalar lies in Q; returns (flag, value-or-None)."""
    if isinstance(a, (int, Fraction)):
        return True, Fraction(a)
    if isinstance(a, CycloNumber):
        r = a.as_rational()
        return (r is not None), r
    raise TypeError(f"not an exact scalar: {type(a).__name__}")


def scalar_inverse(a: Scalar) -> Scalar:
    if isinstance(a, CycloNumber):
        return a.inverse()
    if not a:
        raise DivisionByZero("inverse of zero")
    return Fraction(1) / Fraction(a)


def scalar_pow(a: Scalar, exp: int) -> Scalar:
    if isinstance(a, CycloNumber):
        return a ** exp
    a = Fraction(a)
    if exp < 0:
        if not a:
            raise DivisionByZero("inverse of zero")
        return Fraction(1) / a ** (-exp)
    return a ** exp


def scalar_eq(a: Scalar, b: Scalar) -> bool:
    if isinstance(a, CycloNumber) or isinstance(b, CycloNumber):
        if not isinstance(a, CycloNumber):
            a, b = b, a
        return a == b
    return Fraction(a) == Fraction(b)


# ---------------------------------------------------------------------------
# scalar serialization
# ---------------------------------------------------------------------------

def scalar_to_json(a: Scalar):
    """Rationals render as "p/q" strings; cyclotomic values with a nonzero
    zeta-component render as {"order": n, "coeffs": [...]}.  Rational-valued
    CycloNumbers collapse to the plain string form."""
    flag, value = is_rational(a)
    if flag:
        return render_rational(value)
    return {"order": a.order, "coeffs": [render_rational(c) for c in a.coeffs]}


def scalar_from_json(obj) -> Scalar:
    if isinstance(obj, str):
        return parse_rational(obj)
    if isinstance(obj, Mapping):
        return CycloNumber(int(obj["order"]), [parse_rational(c) for c in obj["coeffs"]])
    raise ValueError(f"not a scalar encoding: {obj!r}")


# ---------------------------------------------------------------------------
# sparse univariate polynomials: the shared core
# ---------------------------------------------------------------------------

def _add_into(out: dict, items) -> dict:
    """Add (key, coefficient) items into `out`, deleting every key whose sum
    cancels to zero; returns `out`."""
    for k, c in items:
        if k in out:
            c = out[k] + c
            if not c:
                del out[k]
                continue
        out[k] = c
    return out


def _accumulate(slot: dict, left, right) -> None:
    """Add the polynomial product of two (exponent, coefficient) item views
    into the raw dict `slot`; zero sums stay until the caller drops them."""
    for a, x in left:
        for b, y in right:
            k = a + b
            v = x * y
            slot[k] = slot[k] + v if k in slot else v


class SparsePoly:
    """Immutable sparse polynomial in one variable, stored as
    {exponent: coefficient} with zero coefficients never stored.

    A subclass names its variable (`var`), the operand types promoted to
    constants (`scalars`), how a raw coefficient is lifted (`_lift`) and how
    a coefficient renders in JSON (`_render`)."""

    __slots__ = ("coeffs",)
    var: str
    scalars: tuple

    def __init__(self, coeffs: Mapping | None = None) -> None:
        clean = {}
        if coeffs:
            lift = self._lift
            for e, c in coeffs.items():
                if e < 0:
                    raise ValueError(f"negative {self.var}-exponent")
                c = lift(c)
                if c:
                    clean[e] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _from_raw(cls, raw: Mapping):
        """A value over raw coefficients that are already lifted and keyed
        by nonnegative exponents: only zeros are dropped."""
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", {e: c for e, c in raw.items() if c})
        return out

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self)._from_raw, (self.coeffs,)

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _promote(self, other):
        """`other` as a value of this class, or None for a foreign type."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, self.scalars):
            return type(self)({0: other})
        return None

    # -- kernels: private, so a tracer that wraps the arithmetic methods
    #    labels each call by the class whose method made it --------------

    def _add(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self._from_raw(_add_into(dict(self.coeffs), other.coeffs.items()))

    def _mul(self, other):
        if isinstance(other, self.scalars):
            return self._from_raw({e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, type(self)):
            return NotImplemented
        out: dict = {}
        _accumulate(out, self.coeffs.items(), other.coeffs.items())
        return self._from_raw(out)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        return self._add(other)

    __radd__ = __add__

    def __mul__(self, other):
        return self._mul(other)

    __rmul__ = __mul__

    def __neg__(self):
        return self._from_raw({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError(f"negative {type(self).__name__} power")
        return _power(self, exp, type(self)({0: 1}))

    # -- comparison / serialization -----------------------------------------

    def __eq__(self, other) -> bool:
        other = self._promote(other)
        if other is None:
            return NotImplemented
        # dict equality compares coefficients with ==, under which a
        # rational-valued CycloNumber equals the same Fraction
        return self.coeffs == other.coeffs

    def shift(self, s: int):
        """The product with var^s (s >= 0): every exponent moves up by s."""
        return self._from_raw({e + s: c for e, c in self.coeffs.items()})

    def first_mismatch(self, other):
        """(exponent, lhs coefficient, rhs coefficient) at the lowest
        exponent where the two differ, a missing one reading as zero; None
        when they are equal."""
        zero = self._lift(0)
        for e in sorted(self.coeffs.keys() | other.coeffs.keys()):
            a = self.coeffs.get(e, zero)
            b = other.coeffs.get(e, zero)
            if a != b:
                return e, a, b
        return None

    def to_json(self) -> dict:
        render = self._render
        return {f"{self.var}^{e}": render(c) for e, c in sorted(self.coeffs.items())}

    def __repr__(self) -> str:
        import json  # here, so that importing the package does not load json

        return f"{type(self).__name__}({json.dumps(self.to_json())})"


# ---------------------------------------------------------------------------
# polynomials in t
# ---------------------------------------------------------------------------

class TPoly(SparsePoly):
    """Sparse polynomial in the interpolation variable t with exact scalar
    coefficients; ints are stored as Fractions."""

    __slots__ = ()
    var = "t"
    scalars = (int, Fraction, CycloNumber)

    @staticmethod
    def _lift(c):
        return Fraction(c) if isinstance(c, int) else c

    _render = staticmethod(scalar_to_json)

    # Defined here, not inherited, so that TPoly arithmetic is its own
    # method (and its own span under a tracer).
    def __add__(self, other):
        return self._add(other)

    __radd__ = __add__

    def __mul__(self, other):
        return self._mul(other)

    __rmul__ = __mul__

    @classmethod
    def const(cls, c) -> "TPoly":
        return cls({0: c})

    @classmethod
    def t(cls) -> "TPoly":
        return cls({1: Fraction(1)})

    @classmethod
    def one(cls) -> "TPoly":
        return cls({0: Fraction(1)})

    def eval(self, value: Scalar) -> Scalar:
        """Value at t = value."""
        total: Scalar = Fraction(0)
        for e, c in self.coeffs.items():
            total = total + c * scalar_pow(value, e)
        return total

    def rationalized(self) -> "TPoly":
        """Copy with every coefficient forced into Q.

        Raises IrrationalCoefficient if any coefficient has a nonzero
        zeta-component."""
        out: dict[int, Scalar] = {}
        for e, c in self.coeffs.items():
            flag, value = is_rational(c)
            if not flag:
                raise IrrationalCoefficient(f"t^{e} coefficient {c!r} is not rational")
            out[e] = value
        return TPoly(out)

    @classmethod
    def from_json(cls, obj: Mapping) -> "TPoly":
        out = {}
        for key, val in obj.items():
            if not key.startswith("t^"):
                raise ValueError(f"bad TPoly key {key!r}")
            out[int(key[2:])] = scalar_from_json(val)
        return cls(out)


def as_tpoly(value) -> TPoly:
    """Promote a scalar (or pass through a TPoly)."""
    if isinstance(value, TPoly):
        return value
    if isinstance(value, (int, Fraction, CycloNumber)):
        return TPoly.const(value)
    raise TypeError(f"cannot promote {type(value).__name__} to TPoly")


# ---------------------------------------------------------------------------
# integer views of exact values
# ---------------------------------------------------------------------------
# A Series keeps its coefficients as numerators over one positive int, in
# lowest terms, and reads them out through _over only when its terms are
# read (see qharmonic.series); the prefix-sum recursion of qseries works on
# numerators too.  Both go through the numerators of a NumeratorRing: ints
# over Q, and over Q(zeta_N) the phi(N) int coefficients of an element of
# Z[zeta_N], as lists in qseries and as tuples in a Series.

def _numerator_form(maps: Iterable[Mapping]) -> tuple[int | None, int, list[dict]]:
    """(order, den, numerators) of {t-power: scalar} maps of ints, Fractions
    and CycloNumbers: den is the lcm of every scalar's denominator, and each
    map becomes {t-power: scalar * den} with its zeros dropped.  order is None
    when every scalar is rational, and the numerators are ints; otherwise it is
    the order N of the scalars with a nonzero zeta-component, and each
    numerator is a tuple of phi(N) ints, a rational one (a, 0, ..., 0).  Two
    such orders raise TypeError, as CycloNumber arithmetic does."""
    maps = list(maps)
    try:
        den = lcm(*{c.denominator for m in maps for c in m.values()})
    except AttributeError:  # a CycloNumber has no denominator
        pass
    else:
        return None, den, [{k: c.numerator * (den // c.denominator) for k, c in m.items() if c}
                           for m in maps]
    order, parts = None, []
    for m in maps:
        part = {}
        for k, c in m.items():
            if not isinstance(c, CycloNumber):
                if c:
                    part[k] = c.numerator, c.denominator
            elif any(c._num[1:]):
                if order not in (None, c.order):
                    raise TypeError(f"cannot mix cyclotomic orders {order} and {c.order}")
                order = c.order
                part[k] = c._num, c._den
            elif c:
                part[k] = c._num[0], c._den
        parts.append(part)
    den = lcm(*(d for part in parts for _, d in part.values()))
    if order is None:
        return None, den, [{k: a * (den // d) for k, (a, d) in part.items()} for part in parts]
    pad = (0,) * (euler_phi(order) - 1)
    return order, den, [{k: tuple(x * (den // d) for x in a) if isinstance(a, tuple)
                         else (a * (den // d), *pad) for k, (a, d) in part.items()}
                        for part in parts]


def _convolve_into(slot: dict, left, right) -> None:
    """`_accumulate` on Z[zeta] numerators: each pair's product is convolved
    into the int list at its t-power, unreduced, so the caller reduces each
    sum once (`_reduce`) rather than each product."""
    for a, x in left:
        for b, y in right:
            k = a + b
            out = slot.get(k)
            if out is None:
                out = slot[k] = [0] * (len(x) + len(y) - 1)
            for i, c in enumerate(x):
                if c:
                    for j, d in enumerate(y, i):
                        if d:
                            out[j] += c * d


def _over(raw: Mapping, den: int, order: int | None = None) -> TPoly:
    """The TPoly with coefficients raw[k]/den in lowest terms, each raw[k] an
    int, or with an order the int coefficient list of an element of
    Z[zeta_order]: the one place the integer kernels build Fractions and
    CycloNumbers."""
    if order is None:
        return TPoly._from_raw({k: Fraction(v, den) for k, v in raw.items() if v})
    return TPoly._from_raw({k: _make(order, v, den) for k, v in raw.items()})


def _slot_add(x, y) -> list[int]:
    """The sum of two coefficient lists of one length, slot by slot."""
    return [a + b for a, b in zip(x, y)]


class NumeratorRing:
    """The numerators of Q (order None) or of Q(zeta_order) over one shared
    positive int denominator: ints, or the phi(order) int coefficients of an
    element of Z[zeta_order], which add slot by slot (`_slot_add`) and
    multiply by `_product`.  `zero`, `add` and `mul` are the ring's operations
    on coefficient lists, as the qseries recursion runs them; a Series holds
    the same numerators as tuples, and its kernels add, convolve
    (`_convolve_into`) and reduce them in place.  `column` and
    `_numerator_form` turn values into numerators, and `_over` turns
    numerators back."""

    __slots__ = ("order", "zero", "add", "mul")

    def __init__(self, order: int | None) -> None:
        self.order = order
        if order is None:
            self.zero, self.add, self.mul = 0, operator.add, operator.mul
        else:
            self.zero = (0,) * euler_phi(order)
            self.add, self.mul = _slot_add, partial(_product, order)

    def column(self, values) -> tuple[int, list]:
        """(d, the numerators of v * d for each of `values`), d the lcm of
        their denominators; the values are Fractions, or CycloNumbers of the
        ring's order."""
        if self.order is None:
            den = lcm(*(v.denominator for v in values))
            return den, [v.numerator * (den // v.denominator) for v in values]
        den = lcm(*(v._den for v in values))
        return den, [[a * (den // v._den) for a in v._num] for v in values]


def binomial(n: int, k: int) -> int:
    """C(n, k), zero outside the triangle (n may be any nonnegative int)."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)
