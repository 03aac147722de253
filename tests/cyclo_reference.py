"""A reference model of Q(zeta_N) for the tests.

An element is a dense tuple of phi(N) Fractions, the coefficients of
1, zeta, ..., zeta^(phi-1).  A longer list is reduced by long division
against exact.cyclotomic_polynomial, and an inverse solves the phi x phi
system whose columns are x * zeta^j, by Gauss-Jordan elimination over the
Fractions.  The model calls none of the package's numerator kernels
(_product, _reduce, _zeta_sum, _galois_cofactor), so a test that compares
against it checks those kernels rather than repeating them.

`Ref` has the field API that CycloNumber leaves to the kernels: + - * / and
** with ints, Fractions, CycloNumbers and Refs of its order.  `lift` turns a
package scalar into a Ref (a Fraction stays a Fraction, whose own arithmetic
is the reference at rational q), and `value` turns the result back.
"""
from fractions import Fraction
from math import lcm

from qharmonic.exact import CycloNumber, cyclotomic_polynomial


def reduce_mod(order: int, coeffs) -> list:
    """coeffs (ints or Fractions, lowest power first) modulo the order-th
    cyclotomic polynomial, by long division, padded to phi(order) entries."""
    mod = cyclotomic_polynomial(order)
    phi = len(mod) - 1
    cs = list(coeffs) + [0] * (phi - len(coeffs))
    for deg in range(len(cs) - 1, phi - 1, -1):
        c = cs[deg]
        if c:
            for i, m in enumerate(mod):
                cs[deg - phi + i] -= c * m
    return cs[:phi]


class Ref:
    """An element of Q(zeta_order) as dense Fraction coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()) -> None:
        self.order = order
        self.coeffs = tuple(map(Fraction, reduce_mod(order, list(coeffs))))

    @classmethod
    def zeta(cls, order: int, e: int = 1) -> "Ref":
        """zeta^e for any int e, read as x^(e mod order)."""
        return cls(order, [0] * (e % order) + [1])

    def _other(self, o):
        if isinstance(o, CycloNumber):
            r = o.as_rational()
            if r is None:
                if o.order != self.order:
                    raise TypeError(f"orders {self.order} and {o.order}")
                return Ref(o.order, o.coeffs)
            o = r
        if isinstance(o, (int, Fraction)):
            return Ref(self.order, [o])
        if isinstance(o, Ref) and o.order == self.order:
            return o
        return None

    def __add__(self, o):
        o = self._other(o)
        if o is None:
            return NotImplemented
        return Ref(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Ref(self.order, [-a for a in self.coeffs])

    def __sub__(self, o):
        o = self._other(o)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, o):
        o = self._other(o)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, o):
        o = self._other(o)
        if o is None:
            return NotImplemented
        # the schoolbook product over one common denominator, in ints
        den = lcm(*(c.denominator for c in self.coeffs + o.coeffs))
        a, b = ([c.numerator * (den // c.denominator) for c in x.coeffs] for x in (self, o))
        prod = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return Ref(self.order, [Fraction(c, den * den)
                                for c in reduce_mod(self.order, prod)])

    __rmul__ = __mul__

    def inverse(self) -> "Ref":
        """Solve self * y = 1: the columns of the system are self * zeta^j."""
        phi = len(self.coeffs)
        cols = [(self * Ref.zeta(self.order, j)).coeffs for j in range(phi)]
        rows = [[cols[j][i] for j in range(phi)] + [Fraction(int(i == 0))]
                for i in range(phi)]
        for c in range(phi):
            pivot = next((r for r in range(c, phi) if rows[r][c]), None)
            if pivot is None:
                raise ZeroDivisionError("inverse of zero")
            rows[c], rows[pivot] = rows[pivot], rows[c]
            lead = rows[c][c]
            rows[c] = [v / lead for v in rows[c]]
            for r in range(phi):
                if r != c and rows[r][c]:
                    f = rows[r][c]
                    rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
        return Ref(self.order, [row[phi] for row in rows])

    def __truediv__(self, o):
        o = self._other(o)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, o):
        o = self._other(o)
        return NotImplemented if o is None else o * self.inverse()

    def __pow__(self, e: int) -> "Ref":
        base, out = (self.inverse() if e < 0 else self), Ref(self.order, [1])
        for _ in range(abs(e)):
            out = out * base
        return out

    def __eq__(self, other) -> bool:
        try:
            o = self._other(other)
        except TypeError:
            return False
        return NotImplemented if o is None else self.coeffs == o.coeffs

    __hash__ = None

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        return f"Ref({self.order}, {list(map(str, self.coeffs))})"

    @property
    def value(self) -> CycloNumber:
        return CycloNumber(self.order, self.coeffs)


def lift(x):
    """A CycloNumber as a Ref; an int or Fraction as a Fraction."""
    return Ref(x.order, x.coeffs) if isinstance(x, CycloNumber) else Fraction(x)


def value(x):
    """A Ref as the CycloNumber it models; anything else unchanged."""
    return x.value if isinstance(x, Ref) else x
