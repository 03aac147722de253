"""Exact scalar arithmetic.

Three scalar kinds are used throughout the package:

* ``fractions.Fraction``  -- plain rationals,
* ``CycloNumber``         -- elements of Q(zeta_n), reduced modulo the n-th
                             cyclotomic polynomial and stored as phi(n) int
                             numerators over one positive int denominator,
                             kept in lowest terms,
* ``complex``             -- floating point, quarantined to the numeric limit
                             check in :mod:`qharmonic.qseries`; it never mixes
                             with the exact kinds.

A CycloNumber is a value, not a field API: it is built, compared, hashed,
pickled and rendered.  Arithmetic in Q(zeta_n) runs on numerator lists
(``_product``, ``_reduce``, the index arithmetic ``_zeta_sum`` at powers of
zeta and Galois conjugates ``_conjugate``, and the Galois-norm inverse
``_numerator_inverse``), through
``NumeratorRing`` and the TPoly and Series kernels.  ``__mul__`` (of one
order) and ``inverse`` remain as thin wrappers over those kernels.

``SparsePoly`` is the sparse univariate polynomial core: an immutable
{exponent: coefficient} map with an add-with-cancellation loop
(``_add_into``) and a raw product kernel (``_accumulate``).

``TPoly`` (in t) keeps a numerator form, and the kernels it shares with a
Series (sums, reductions, the order of two operands) live here; a Series
keeps the same form as one flat map keyed by (t-power, monomial), and its
coefficients are TPolys, so t is never truncated.  ``ZPoly`` (in z, over t)
keeps one TPoly slot per z-power over one denominator and runs on the same
kernels.
"""
from __future__ import annotations

import operator
import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import chain
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
    return _render_over(value.numerator, value.denominator)


def _render_over(a: int, den: int) -> str:
    """render_rational(Fraction(a, den)) for a positive den."""
    g = gcd(a, den)
    if g == den:
        return _int_text(a // g)
    return f"{_int_text(a // g)}/{_int_text(den // g)}"


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

    The constructor and `from_rational` take ints and Fractions only.  The
    only arithmetic is the product of two values of one order and `inverse`.
    """

    __slots__ = ("order", "_num", "_den", "_hash")

    def __init__(self, order: int, coeffs: Iterable) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        phi = euler_phi(order)
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(_NOT_RATIONAL.format(type(c).__name__))
        _, den, num = _numerators(cs)
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
        """zeta^e by index arithmetic: no product, and no inverse for e < 0."""
        return _make(order, _zeta_sum(order, [(e, 1)]), 1)

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

    # -- arithmetic: thin wrappers over the numerator kernels ---------------

    def __mul__(self, other):
        """The product of two values of one order."""
        if not isinstance(other, CycloNumber) or other.order != self.order:
            return NotImplemented
        return _make(self.order, _product(self.order, self._num, other._num),
                     self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        """Multiplicative inverse through the Galois norm (`_numerator_inverse`)."""
        return _make(self.order, *_numerator_inverse(self.order, self._num, self._den))

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloNumber) and other.order == self.order:
            return self._num == other._num and self._den == other._den
        if not isinstance(other, (int, Fraction, CycloNumber)):
            return NotImplemented
        return scalar_eq(self, other)

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
    """base**exp (exp >= 0) by repeated squaring, for every `**`: `one` when
    exp is 0, else the square chain starts from the lowest set bit's power
    of base, and the highest bit's needs no square above it, so exp costs
    (bit length − 1) squarings and (set bits − 1) products, none with `one`."""
    if not exp:
        return one
    while not exp & 1:
        base = base * base
        exp >>= 1
    out = base
    while exp := exp >> 1:
        base = base * base
        if exp & 1:
            out = out * base
    return out


def _add_convolution(out: list, x, y) -> None:
    """Add the product of two dense coefficient lists into `out`, a list at
    least len(x) + len(y) − 1 long, lowest power first."""
    for i, a in enumerate(x):
        if a:
            for k, b in enumerate(y, i):
                if b:
                    out[k] += a * b


def _convolve(x, y) -> list:
    """The product of two dense coefficient lists, lowest power first: the
    loop of `_add_convolution` inline, since the summand columns at a root
    make one such product per entry."""
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


def _zeta_sum(order: int, items) -> list[int]:
    """The reduced coefficients of the sum of a * zeta^e over the (e, a)
    items: a goes to slot e mod order (zeta^order = 1), then one _reduce; no
    product.  A list num times zeta^e is _zeta_sum(order, enumerate(num, e))."""
    out = [0] * order
    for e, a in items:
        out[e % order] += a
    _reduce(order, out)
    return out


def _one_minus_zeta_power_inverse(order: int, e: int) -> list[int]:
    """The numerators of 1/(1 - zeta^e) over the denominator `order`, in
    closed form: every x != 1 with x^N = 1 has 1/(1 - x) =
    -(1/N) * sum_{j=1}^{N-1} j x^j, with x^j = zeta^(e*j mod N)."""
    if e % order == 0:
        raise DivisionByZero("inverse of zero in Q(zeta)")
    return _zeta_sum(order, ((e * j, -j) for j in range(1, order)))


def _conjugate(order: int, num, j: int) -> list[int]:
    """The reduced coefficients of sigma_j(P), P the element with coefficient
    list num and sigma_j the automorphism zeta -> zeta^j (j prime to order):
    slot i moves to slot i*j, then one _reduce; no product."""
    return _zeta_sum(order, ((i * j, a) for i, a in enumerate(num) if a))


def _galois_cofactor(order: int, num) -> list[int]:
    """The product C of the conjugates sigma_j(P) (zeta -> zeta^j) over the
    units j != 1 mod order, P the coefficient list num of a nonzero element
    of Z[zeta_order]: P * C is the integer norm N(P), so C turns a division
    by P into a division by an int."""
    cof = [1]
    for j in range(2, order):
        if gcd(j, order) == 1:
            cof = _product(order, cof, _conjugate(order, num, j))
    return cof


def _numerator_inverse(order: int, num, den: int) -> tuple[list[int], int]:
    """The inverse of num/den in Q(zeta_order), num a reduced coefficient
    list: (numerators, positive int denominator), not in lowest terms.

    With the cofactor C of num (`_galois_cofactor`), num * C is the integer
    norm N, so den/num = den * C / N."""
    if not any(num):
        raise DivisionByZero("inverse of zero in Q(zeta)")
    cof = _galois_cofactor(order, num)
    norm = _product(order, num, cof)[0]
    if norm < 0:
        norm, den = -norm, -den
    return [den * c for c in cof], norm


def _zeta_exponent(x: CycloNumber) -> int | None:
    """b in range(order) with x = zeta^b, or None when x is no power of zeta."""
    num = list(x._num) if x._den == 1 else None
    return next((b for b in range(x.order) if _zeta_sum(x.order, [(b, 1)]) == num), None)


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
    order, den, (v,) = _numerators((a,))
    return (True, Fraction(v, den)) if order is None else (False, None)


def scalar_eq(a: Scalar, b: Scalar) -> bool:
    # each value has one numerator form, at one order
    return _numerators((a,)) == _numerators((b,))


# ---------------------------------------------------------------------------
# scalar serialization
# ---------------------------------------------------------------------------

def scalar_to_json(a: Scalar):
    """Rationals render as "p/q" strings; cyclotomic values with a nonzero
    zeta-component render as {"order": n, "coeffs": [...]}.  Rational-valued
    CycloNumbers collapse to the plain string form."""
    order, den, (v,) = _numerators((a,))
    return _render_numerator(order, v, den)


def _render_numerator(order: int | None, v, den: int):
    """scalar_to_json of the value v/den, v a numerator at `order`."""
    if order is not None and any(v[1:]):
        return {"order": order, "coeffs": [_render_over(a, den) for a in v]}
    return _render_over(v if order is None else v[0], den)


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
    constants (`scalars`) and how a coefficient renders in JSON (`_render`).
    `TPoly` and `ZPoly` keep numerator forms instead and override the
    arithmetic; `genfun.PhiPoly` runs on this generic path."""

    __slots__ = ("coeffs",)
    var: str
    scalars: tuple

    def __init__(self, coeffs: Mapping | None = None) -> None:
        clean = {}
        for e, c in (coeffs or {}).items():
            if e < 0:
                raise ValueError(f"negative {self.var}-exponent")
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

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _promote(self, other):
        """`other` as a value of this class, or None for a foreign type."""
        if isinstance(other, type(self)):
            return other
        if isinstance(other, self.scalars):
            return type(self)({0: other})
        return None

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self._from_raw(_add_into(dict(self.coeffs), other.coeffs.items()))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, self.scalars):
            return self._from_raw({e: c * other for e, c in self.coeffs.items()})
        if not isinstance(other, type(self)):
            return NotImplemented
        out: dict = {}
        _accumulate(out, self.coeffs.items(), other.coeffs.items())
        return self._from_raw(out)

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
        return self.coeffs == other.coeffs

    def first_mismatch(self, other):
        """(exponent, lhs coefficient, rhs coefficient) at the lowest
        exponent where the two differ, a missing one reading as the int 0;
        None when they are equal."""
        if self == other:
            return None
        mine, theirs = self.coeffs, other.coeffs
        e = min(e for e in mine.keys() | theirs.keys() if mine.get(e, 0) != theirs.get(e, 0))
        return e, mine.get(e, 0), theirs.get(e, 0)

    def to_json(self) -> dict:
        render = self._render
        return {f"{self.var}^{e}": render(c) for e, c in sorted(self.coeffs.items())}

    def __repr__(self) -> str:
        import json  # here, so that importing the package does not load json

        return f"{type(self).__name__}({json.dumps(self.to_json())})"


# ---------------------------------------------------------------------------
# numerator forms: a TPoly is {t-power: numerator}, and a Series one flat
# {key: numerator} map, with no zero numerator over one positive int, in
# lowest terms: ints, or at order N, when some numerator has a
# zeta-component, tuples of phi(N) ints (Z[zeta_N] coefficients).  An int a
# meets order N as (a, 0, ..., 0); two orders raise TypeError.  Kernels take
# slot maps {key: slot}, a TPoly or a Series being {0: slot} and a ZPoly
# keyed by z-power; inner dicts are never changed.
# ---------------------------------------------------------------------------

def _numerators(values, order: int | None = None) -> tuple[int | None, int, list]:
    """(order, den, [v * den for v in values]): the one scan of exact scalars
    into numerators, den the lcm of their denominators (order given or found)."""
    parts = []
    for v in values:
        if isinstance(v, CycloNumber):
            if not any(v._num[1:]):
                parts.append((v._num[0], v._den))
                continue
            if v.order != order:
                order = _joint_order(order, v.order)
            parts.append((v._num, v._den))
        elif isinstance(v, (int, Fraction)):
            parts.append((v.numerator, v.denominator))
        else:
            raise TypeError(f"not an exact scalar: {type(v).__name__}")
    den = lcm(*(d for _, d in parts))
    if order is None:
        return None, den, [a * (den // d) for a, d in parts]
    pad = (0,) * (euler_phi(order) - 1)
    return order, den, [tuple([x * (den // d) for x in a]) if isinstance(a, tuple)
                        else (a * (den // d), *pad) for a, d in parts]


def _joint_order(*orders: int | None) -> int | None:
    """The one order among `orders` that is not None, or None; two different
    ones raise TypeError, as CycloNumber arithmetic does."""
    found = {o for o in orders if o is not None}
    if len(found) > 1:
        raise TypeError("cannot mix cyclotomic orders {} and {}".format(*sorted(found)))
    return found.pop() if found else None


def _lifted(num: Mapping, own: int | None, order: int | None) -> Mapping:
    """num, at order `own`, as numerators at `order`: an int a reads
    (a, 0, ..., 0)."""
    if own == order:
        return num
    pad = (0,) * (euler_phi(order) - 1)
    return {e: {k: (v, *pad) for k, v in slot.items()} for e, slot in num.items()}


def _paired(oa: int | None, a: Mapping, ob: int | None, b: Mapping) -> tuple:
    """(order, a, b): the numerators a at order oa and b at ob, at one order."""
    if oa == ob:
        return oa, a, b
    order = _joint_order(oa, ob)
    return order, _lifted(a, oa, order), _lifted(b, ob, order)


def _joint_form(forms: Mapping) -> tuple[int | None, int, dict]:
    """(order, den, num): the nonzero TPoly forms {key: (order, den, slot)}
    put over the lcm of their denominators at one order.  Each form is in
    lowest terms, so the result is: a prime's full power in the lcm divides
    some den, whose slot has a numerator it does not divide."""
    order = _joint_order(*(o for o, _, _ in forms.values()))
    den = lcm(*(d for _, d, _ in forms.values()))
    return order, den, {e: _lifted({0: _scaled(slot, den // d, o)}, o, order)[0]
                        for e, (o, d, slot) in forms.items()}


def _order_settled(order: int | None, num: dict) -> tuple[int | None, dict]:
    """(order, num) for a slot map at an order, or (None, the int
    numerators) when no numerator has a zeta-component, so each value has
    one form."""
    if not any(any(v[1:]) for slot in num.values() for v in slot.values()):
        return None, {e: {k: v[0] for k, v in slot.items()} for e, slot in num.items()}
    return order, num


def _common(g: int, num: Mapping, order: int | None) -> int:
    """The gcd of g and every numerator of num, stopping once it is 1."""
    values = dict.values if order is None else lambda slot: chain.from_iterable(slot.values())
    for slot in num.values():
        if g == 1:
            break
        g = gcd(g, *values(slot))
    return g


def _reduced(den: int, num: dict, order: int | None = None) -> tuple[int, dict]:
    """(den, num) divided by their common gcd; num has no zero numerator
    and no empty slot."""
    g = _common(den, num, order)
    if g != 1:
        den //= g
        if order is None:
            num = {e: {k: v // g for k, v in slot.items()} for e, slot in num.items()}
        else:
            num = {e: {k: tuple(a // g for a in v) for k, v in slot.items()}
                   for e, slot in num.items()}
    return den, num


def _reduced_slot(order: int, raw: Mapping) -> dict:
    """A raw slot of unreduced int lists, each reduced modulo the order-th
    cyclotomic polynomial once and made a tuple, without the zeros."""
    kept = {}
    for k, v in raw.items():
        _reduce(order, v)
        if any(v):
            kept[k] = tuple(v)
    return kept


def _settled(raw: Mapping, order: int | None) -> dict:
    """raw without its zero numerators and the slots they leave empty; at an
    order each raw numerator is first reduced (`_reduced_slot`).  raw is the
    caller's own, so an int slot with no zero is kept, not copied."""
    out = {}
    for e, slot in raw.items():
        if order is not None:
            slot = _reduced_slot(order, slot)
        elif not all(slot.values()):
            slot = {k: v for k, v in slot.items() if v}
        if slot:
            out[e] = slot
    return out


def _scaled(slot: Mapping, s: int, order: int | None) -> Mapping:
    """slot times the int s; 1 gives slot itself."""
    if s == 1:
        return slot
    if order is None:
        return {k: v * s for k, v in slot.items()}
    return {k: tuple(a * s for a in v) for k, v in slot.items()}


def _add_tuples_into(out: dict, items) -> dict:
    """`_add_into` on Z[zeta] numerators, which add slot by slot."""
    for k, v in items:
        if k in out:
            v = tuple(map(operator.add, out[k], v))
            if not any(v):
                del out[k]
                continue
        out[k] = v
    return out


def _merge_into(out: dict, num: Mapping, s: int, order: int | None) -> dict:
    """Add s·num into the slot map `out` and return it; a slot whose sum
    cancels leaves, and a slot `out` shares with an operand is copied before
    it changes."""
    merge = _add_into if order is None else _add_tuples_into
    for e, slot in num.items():
        if s != 1:
            slot = _scaled(slot, s, order)
        mine = out.get(e)
        if mine is None:
            out[e] = slot
        elif mine := merge(dict(mine), slot.items()):
            out[e] = mine
        else:
            del out[e]
    return out


def _sum_form(order: int | None, da: int, a: Mapping, db: int, b: Mapping,
              sign: int) -> tuple[int, dict]:
    """a/da + sign·b/db, on the lcm of the denominators."""
    den = lcm(da, db)
    sa = den // da
    out = dict(a) if sa == 1 else {e: _scaled(slot, sa, order) for e, slot in a.items()}
    return _reduced(den, _merge_into(out, b, sign * (den // db), order), order)


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
            _add_convolution(out, x, y)


def _times_form(order: int | None, den: int, num: Mapping, pden: int,
                pnum: Mapping) -> tuple[int, dict]:
    """num/den times pnum/pden, whose keys add to num's: a TPoly factor is
    {0: slot}, a ZPoly one slot per z-power.  Each output key gets one raw
    dict, settled and reduced once."""
    accumulate = _accumulate if order is None else _convolve_into
    out = {}
    for f, pslot in pnum.items():
        pitems = pslot.items()
        shifted = ((e + f, slot) for e, slot in num.items()) if f else num.items()
        for e, slot in shifted:
            accumulate(out.setdefault(e, {}), slot.items(), pitems)
    return _reduced(den * pden, _settled(out, order), order)


# ---------------------------------------------------------------------------
# polynomials in t
# ---------------------------------------------------------------------------

class TPoly(SparsePoly):
    """Sparse polynomial in t over Q or Q(zeta_N), stored in the numerator
    form above as `_t_form` = (order, den, numerators); `coeffs`, its
    Fractions or CycloNumbers by t-power, is a view built when first read."""

    __slots__ = ("_t_form",)
    var = "t"
    scalars = (int, Fraction, CycloNumber)
    _render = staticmethod(scalar_to_json)

    def __init__(self, coeffs: Mapping | None = None) -> None:
        """The TPoly of {t-power: exact scalar}; two orders raise TypeError."""
        if not coeffs:
            _set(self, "_t_form", (None, 1, {}))
            return
        if min(coeffs) < 0:
            raise ValueError("negative t-exponent")
        order, den, nums = _numerators(coeffs.values())
        _set(self, "_t_form", (order, den, {e: v for e, v in zip(coeffs, nums)
                                            if (v if order is None else any(v))}))

    @classmethod
    def _from_form(cls, order: int | None, den: int, num: dict) -> "TPoly":
        """A kernel's result num/den (lowest terms); ints if none has a zeta-part."""
        if order is not None and not any(any(v[1:]) for v in num.values()):
            order, num = None, {k: v[0] for k, v in num.items()}
        out = _new(cls)
        _set(out, "_t_form", (order, den, num))
        return out

    @classmethod
    def _from_numerators(cls, order: int | None, den: int, raw: Mapping) -> "TPoly":
        """raw/den for numerators at `order`, zeros allowed, not in lowest terms."""
        if order is None:
            slot = {k: v for k, v in raw.items() if v}
        else:
            slot = {k: tuple(v) for k, v in raw.items() if any(v)}
        den, num = _reduced(den, {0: slot}, order)
        return cls._from_form(order, den, num[0])

    def __getattr__(self, name):
        # Reached only when a slot is unset: `coeffs`, built once and kept.
        if name != "coeffs":
            raise AttributeError(name)
        order, den, num = self._t_form
        if order is None:
            coeffs = {k: Fraction(v, den) for k, v in num.items()}
        else:
            coeffs = {k: _make(order, v, den) for k, v in num.items()}
        _set(self, "coeffs", coeffs)
        return coeffs

    def __reduce__(self):
        return TPoly._from_form, self._t_form

    def is_zero(self) -> bool:
        return not self._t_form[2]

    def degree(self) -> int:
        return max(self._t_form[2], default=-1)

    def _sum(self, other, sign: int):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        (oa, da, a), (ob, db, b) = self._t_form, other._t_form
        if not a or not b:
            return self if not b else other if sign == 1 else -other
        order, a, b = _paired(oa, {0: a}, ob, {0: b})
        den, num = _sum_form(order, da, a, db, b, sign)
        return TPoly._from_form(order, den, num.get(0, {}))

    # Defined here, not inherited, so that TPoly arithmetic is its own
    # method (and its own span under a tracer).
    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        order, den, num = self._t_form
        return TPoly._from_form(order, den, _scaled(num, -1, order))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            order, den, num = self._t_form
            return TPoly._from_numerators(order, den * other.denominator,
                                          _scaled(num, other.numerator, order))
        other = self._promote(other)
        if other is None:
            return NotImplemented
        (oa, da, a), (ob, db, b) = self._t_form, other._t_form
        order, a, b = _paired(oa, {0: a}, ob, {0: b})
        den, num = _times_form(order, da, a, db, b)
        return TPoly._from_form(order, den, num.get(0, {}))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self._t_form == other._t_form  # each value has one form

    def to_json(self) -> dict:
        """The JSON of the coeffs view, read off the form."""
        order, den, num = self._t_form
        return {f"t^{k}": _render_numerator(order, v, den) for k, v in sorted(num.items())}

    @classmethod
    def const(cls, c) -> "TPoly":
        if isinstance(c, (int, Fraction)):
            return cls._from_form(None, c.denominator, {0: c.numerator} if c else {})
        return cls({0: c})

    @classmethod
    def t(cls) -> "TPoly":
        return cls({1: 1})

    @classmethod
    def one(cls) -> "TPoly":
        return cls({0: 1})

    def eval(self, value) -> Scalar:
        """Value at the rational t = value = p/s, on the numerator form: the
        t^k numerator weighs p^k s^(top-k) over den * s^top."""
        order, den, num = self._t_form
        t, ring = Fraction(value), NumeratorRing(order)
        p, s, top = t.numerator, t.denominator, max(num, default=0)
        weighted = (_scaled({k: v}, p ** k * s ** (top - k), order)[k] for k, v in num.items())
        return ring.scalar(reduce(ring.add, weighted, ring.zero), den * s ** top)

    def rationalized(self) -> "TPoly":
        """self, or IrrationalCoefficient when it has a zeta-component."""
        order, _, num = self._t_form
        if order is not None:
            e = min(k for k, v in num.items() if any(v[1:]))
            raise IrrationalCoefficient(f"t^{e} coefficient {self.coeffs[e]!r} is not rational")
        return self

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
    return value if isinstance(value, TPoly) else TPoly.const(value)


# ---------------------------------------------------------------------------
# polynomials in z over t
# ---------------------------------------------------------------------------

class ZPoly(SparsePoly):
    """Polynomial in the polylogarithm variable z with TPoly coefficients,
    stored as `_z_form` = (order, den, {z-power: slot}): one TPoly numerator
    slot per z-power over one denominator, in lowest terms.  Each operation
    is one kernel call on the form.
    `coeffs`, the TPolys by z-power, is a view built on each read and never
    kept, so a cached value holds its form alone."""

    __slots__ = ("_z_form",)
    var = "z"
    scalars = (int, Fraction, CycloNumber, TPoly)
    _render = staticmethod(TPoly.to_json)

    def __init__(self, coeffs: Mapping | None = None) -> None:
        """The ZPoly of {z-power: TPoly or exact scalar}; two orders raise
        TypeError."""
        forms = {}
        for e, c in (coeffs or {}).items():
            if e < 0:
                raise ValueError("negative z-exponent")
            c = as_tpoly(c)
            if c:
                forms[e] = c._t_form
        _set(self, "_z_form", _joint_form(forms))

    @classmethod
    def _from_form(cls, order: int | None, den: int, num: dict) -> "ZPoly":
        """A kernel's result num/den (lowest terms); ints if none has a zeta-part."""
        if order is not None:
            order, num = _order_settled(order, num)
        out = _new(cls)
        _set(out, "_z_form", (order, den, num))
        return out

    @classmethod
    def _from_numerators(cls, order: int | None, den: int, raw: Mapping) -> "ZPoly":
        """raw/den for {z-power: {t-power: numerator}} at `order`, zeros
        allowed, not in lowest terms: one reduction."""
        if order is None:
            slots = ({k: v for k, v in slot.items() if v} for slot in raw.values())
        else:
            slots = ({k: tuple(v) for k, v in slot.items() if any(v)} for slot in raw.values())
        num = {e: slot for e, slot in zip(raw, slots) if slot}
        return cls._from_form(order, *_reduced(den, num, order))

    @classmethod
    def one(cls) -> "ZPoly":
        return cls._from_form(None, 1, {0: {0: 1}})

    @classmethod
    def sum_of(cls, values: list) -> "ZPoly":
        """The sum of a list of ZPolys on the lcm of their denominators, with
        one reduction (`_merge_into`, the merge of `_sum_form`); a list of one
        returns its value itself."""
        if len(values) == 1:
            return values[0]
        forms = [v._z_form for v in values if v._z_form[2]]
        if not forms:
            return cls()
        order = _joint_order(*(o for o, _, _ in forms))
        den, out = lcm(*(d for _, d, _ in forms)), {}
        for o, d, num in forms:
            _merge_into(out, _lifted(num, o, order), den // d, order)
        return cls._from_form(order, *_reduced(den, out, order))

    @staticmethod
    def by_power(values: Mapping) -> tuple[int | None, int, dict]:
        """(order, den, {z-power: {key: t-slot}}): the forms of the ZPolys
        {key: ZPoly} put over the lcm of their denominators at one order and
        grouped by z-power, with no TPoly built and nothing reduced."""
        forms = [(key, v._z_form) for key, v in values.items()]
        order = _joint_order(*(o for _, (o, _, _) in forms))
        den, out = lcm(*(d for _, (_, d, _) in forms)), {}
        for key, (o, d, num) in forms:
            for e, slot in _lifted(num, o, order).items():
                out.setdefault(e, {})[key] = _scaled(slot, den // d, order)
        return order, den, out

    @property
    def coeffs(self) -> dict:
        order, den, num = self._z_form
        return {e: TPoly._from_numerators(order, den, slot) for e, slot in num.items()}

    def __reduce__(self):
        return ZPoly._from_form, self._z_form

    def is_zero(self) -> bool:
        return not self._z_form[2]

    def _sum(self, other, sign: int):
        other = self._promote(other)
        if other is None:
            return NotImplemented
        (oa, da, a), (ob, db, b) = self._z_form, other._z_form
        if not a or not b:
            return self if not b else other if sign == 1 else -other
        order, a, b = _paired(oa, a, ob, b)
        return ZPoly._from_form(order, *_sum_form(order, da, a, db, b, sign))

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        order, den, num = self._z_form
        return ZPoly._from_form(order, den, {e: _scaled(slot, -1, order)
                                             for e, slot in num.items()})

    def __mul__(self, other):
        """The product with a scalar, a TPoly (a constant in z) or a ZPoly."""
        other = self._promote(other)
        if other is None:
            return NotImplemented
        (oa, da, a), (ob, db, b) = self._z_form, other._z_form
        order, a, b = _paired(oa, a, ob, b)
        return ZPoly._from_form(order, *_times_form(order, da, a, db, b))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = self._promote(other)
        if other is None:
            return NotImplemented
        return self._z_form == other._z_form  # each value has one form

    def first_mismatch(self, other: "ZPoly"):
        """(z-power, lhs TPoly, rhs TPoly) at the lowest z-power where the
        two differ, the lowest key of their difference; None when equal."""
        if self == other:
            return None
        (oa, da, a), (ob, db, b) = self._z_form, other._z_form
        order, pa, pb = _paired(oa, a, ob, b)
        e = min(_sum_form(order, da, pa, db, pb, -1)[1])
        return (e, TPoly._from_numerators(oa, da, a.get(e, {})),
                TPoly._from_numerators(ob, db, b.get(e, {})))

    def shift(self, s: int) -> "ZPoly":
        """The product with z^s (s >= 0): every z-power moves up by s."""
        order, den, num = self._z_form
        return ZPoly._from_form(order, den, {e + s: slot for e, slot in num.items()})

    def eval_z_one(self) -> TPoly:
        """The sum of the coefficients, the value at z = 1: the slots merged
        into one t-slot, with one reduction."""
        order, den, num = self._z_form
        total = {}
        for slot in num.values():
            _merge_into(total, {0: slot}, 1, order)
        den, total = _reduced(den, total, order)
        return TPoly._from_form(order, den, total.get(0, {}))

    def _scale_slots(self, order: int | None, factor) -> "ZPoly":
        """The z^e slot times factor(e), a (numerator, den) pair at `order`,
        read once per z-power, in one pass with one reduction: the factors go
        over the lcm of their dens, ints multiply, and a Z[zeta] product is
        index arithmetic (`_zeta_sum`) over the factor's nonzero slots.  The
        q-difference operator (qseries.theta_q) is its one caller."""
        own, den, num = self._z_form
        joint = _joint_order(own, order)
        factors = {e: factor(e) for e in num}
        scale = lcm(*(d for _, d in factors.values()))
        out = {}
        if joint is None:
            for e, slot in num.items():
                w, d = factors[e]
                if w:
                    w *= scale // d
                    out[e] = {k: v * w for k, v in slot.items()}
        else:
            for e, slot in _lifted(num, own, joint).items():
                w, d = factors[e]
                s = scale // d
                ws = [(j, c * s) for j, c in (((0, w),) if order is None else enumerate(w)) if c]
                if ws:
                    out[e] = {k: tuple(_zeta_sum(joint, ((i + j, a * c) for j, c in ws
                                                         for i, a in enumerate(v) if a)))
                              for k, v in slot.items()}
        return ZPoly._from_form(joint, *_reduced(den * scale, out, joint))

    def to_json(self) -> dict:
        """The JSON of the coeffs view, read off the form as TPoly.to_json
        reads it: no TPoly is built."""
        order, den, num = self._z_form
        return {f"z^{e}": {f"t^{k}": _render_numerator(order, v, den)
                           for k, v in sorted(slot.items())}
                for e, slot in sorted(num.items())}


# ---------------------------------------------------------------------------
# the numerators of Q and Q(zeta_N)
# ---------------------------------------------------------------------------

def _slot_add(x, y) -> list[int]:
    """The sum of two coefficient lists of one length, slot by slot."""
    return [a + b for a, b in zip(x, y)]


class NumeratorRing:
    """The numerators of Q (order None) or of Q(zeta_order) over one shared
    positive int denominator: ints, or the phi(order) int coefficients of an
    element of Z[zeta_order], with the ring's `zero`, `add` (slot by slot,
    `_slot_add`) and `mul` (`_product`) as the qseries sums run them;
    the numerator forms above hold them as tuples."""

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
        return _numerators(values, self.order)[1:]

    def scalar(self, num, den: int) -> Scalar:
        """The value num/den: a Fraction, or a CycloNumber of the ring's order."""
        return Fraction(num, den) if self.order is None else _make(self.order, num, den)

    def const(self, num, den: int) -> TPoly:
        """The value num/den as a constant TPoly, with no scalar built."""
        return TPoly._from_numerators(self.order, den, {0: num})

    def inverse(self, num, den: int) -> tuple:
        """The inverse den/num of num/den as (numerator, positive int
        denominator), divided by their gcd; DivisionByZero at 0.  No scalar
        is built."""
        if self.order is None:
            if not num:
                raise DivisionByZero("inverse of zero")
            g = gcd(den, num) if num > 0 else -gcd(den, num)
            return den // g, num // g
        inv, norm = _numerator_inverse(self.order, num, den)
        g = gcd(norm, *inv)
        return [a // g for a in inv], norm // g

    def over(self, pairs) -> tuple[int, list]:
        """(d, the numerators of each (num, den) of `pairs` put over d), d
        the lcm of the dens: `column` for values already in numerators."""
        d = lcm(*(den for _, den in pairs))
        if self.order is None:
            return d, [a * (d // den) for a, den in pairs]
        return d, [[x * (d // den) for x in a] for a, den in pairs]


def binomial(n: int, k: int) -> int:
    """C(n, k), zero outside the triangle (n may be any nonnegative int)."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)
