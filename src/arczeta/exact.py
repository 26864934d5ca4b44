"""Exact scalar arithmetic: Gaussian rationals and Laurent polynomials in pi.

Two tiny rings cover every exact computation in the package:

* ``QQi``: complex numbers with rational real and imaginary parts, held as
  three machine integers (a + b*i)/d in lowest terms.
* ``PiLaurent``: finite sums ``sum_k c_k * pi**k`` with ``c_k`` in ``QQi``
  and integer ``k``.

Monomial norms in the holomorphic-polynomial model are ``alpha!/pi**|alpha|``,
so inner products of exact polynomials land in ``PiLaurent``.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .errors import InvalidParameterError

_new = object.__new__


def _ratio(x) -> tuple[int, int]:
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class QQi:
    """Gaussian rational (a + b*i)/d on integers a, b, d in the normal form
    d > 0, gcd(a, b, d) == 1, so that equal values have equal fields.

    ``QQi(re, im)`` takes ints or Fractions; ``re`` and ``im`` read back as
    Fractions.  A real QQi hashes like its Fraction.
    """

    __slots__ = ("_abd",)

    def __init__(self, re=0, im=0):
        (a, ad), (b, bd) = _ratio(re), _ratio(im)
        # over the lcm of two reduced denominators no prime of d divides
        # both a and b, so the fields are already in normal form
        d = ad * bd // math.gcd(ad, bd)
        _set(self, (a * (d // ad), b * (d // bd), d))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("QQi is immutable")

    @property
    def re(self) -> Fraction:
        a, _, d = self._abd
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._abd
        return Fraction(b, d)

    @classmethod
    def coerce(cls, x) -> "QQi":
        if type(x) is QQi:
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to QQi")

    # Each binary operator returns NotImplemented for an operand the ring
    # cannot take, so that Python tries the other operand's reflected method
    # (a PiLaurent's, say) and raises TypeError only when that fails too.

    def __add__(self, other):
        if type(other) is not QQi:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QQi(other)
        a1, b1, d1 = self._abd
        a2, b2, d2 = other._abd
        if d1 == d2:
            return _qqi(a1 + a2, b1 + b2, d1)
        return _qqi(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self._abd
        return _qqi(-a, -b, d)

    def __sub__(self, other):
        if not isinstance(other, (QQi, int, Fraction)):
            return NotImplemented
        return self + (-QQi.coerce(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return QQi(other) + (-self)

    def __mul__(self, other):
        if type(other) is not QQi:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QQi(other)
        a1, b1, d1 = self._abd
        a2, b2, d2 = other._abd
        return _qqi(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    __rmul__ = __mul__

    def conjugate(self) -> "QQi":
        a, b, d = self._abd
        return _qqi(a, -b, d)

    def norm2(self) -> Fraction:
        a, b, d = self._abd
        return Fraction(a * a + b * b, d * d)

    def inverse(self) -> "QQi":
        a, b, d = self._abd
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero QQi")
        return _qqi(a * d, -b * d, n)

    def __truediv__(self, other):
        if not isinstance(other, (QQi, int, Fraction)):
            return NotImplemented
        return self * QQi.coerce(other).inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return QQi(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("QQi exponent must be int")
        if not k:
            return QQI_ONE
        return power(self, k) if k > 0 else power(self.inverse(), -k)

    def __eq__(self, other):
        if type(other) is not QQi:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QQi(other)
        return self._abd == other._abd

    def __hash__(self):
        a, b, d = self._abd
        if b:
            return hash(self._abd)
        return hash(a) if d == 1 else hash(Fraction(a, d))

    def __bool__(self):
        return self._abd != (0, 0, 1)  # zero in normal form

    def __complex__(self):
        # int / int rounds correctly, as float(Fraction) does
        a, b, d = self._abd
        return complex(a / d, b / d)

    def __repr__(self):
        if self.im == 0:
            return f"QQi({self.re})"
        return f"QQi({self.re}, {self.im})"


_set = QQi._abd.__set__


def _qqi(a: int, b: int, d: int) -> QQi:
    """The QQi (a + b*i)/d for d > 0, brought to normal form."""
    if d != 1:
        g = math.gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    z = _new(QQi)
    _set(z, (a, b, d))
    return z


QQI_ZERO = QQi(0)
QQI_ONE = QQi(1)


def _pi_exp(k) -> int:
    """A power of pi, refused unless it is an integer."""
    try:
        return operator.index(k)
    except TypeError:
        raise InvalidParameterError(f"power of pi must be an integer, got {k!r}") from None


class PiLaurent:
    """Finite Laurent polynomial in pi with QQi coefficients.

    ``terms`` maps integer powers of pi to nonzero coefficients.  The
    constant polynomial c hashes like c.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, c in terms.items():
                k, c = _pi_exp(k), QQi.coerce(c)
                if c:
                    clean[k] = c
        _set_terms(self, clean)

    def __setattr__(self, *a):
        raise AttributeError("PiLaurent is immutable")

    @classmethod
    def coerce(cls, x) -> "PiLaurent":
        if type(x) is PiLaurent:
            return x
        return _laurent({0: c} if (c := QQi.coerce(x)) else {})

    @classmethod
    def single(cls, coeff, pi_exp: int = 0) -> "PiLaurent":
        pi_exp, coeff = _pi_exp(pi_exp), QQi.coerce(coeff)
        return _laurent({pi_exp: coeff} if coeff else {})

    # binary operators return NotImplemented on operands the ring cannot
    # take, as QQi's do

    def __add__(self, other):
        if type(other) is not PiLaurent:
            if not isinstance(other, (QQi, int, Fraction)):
                return NotImplemented
            other = PiLaurent.coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return _laurent({k: c for k, c in out.items() if c})

    def __radd__(self, other):
        # the left operand's power comes first, as in a sum of two PiLaurents,
        # so that complex() rounds a mixed-ring sum as it rounds that one
        if not isinstance(other, (QQi, int, Fraction)):
            return NotImplemented
        return PiLaurent.coerce(other) + self

    def __neg__(self):
        return _laurent({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (PiLaurent, QQi, int, Fraction)):
            return NotImplemented
        return self + (-PiLaurent.coerce(other))

    def __rsub__(self, other):
        if not isinstance(other, (QQi, int, Fraction)):
            return NotImplemented
        return PiLaurent.coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is not PiLaurent:
            if not isinstance(other, (QQi, int, Fraction)):
                return NotImplemented
            other = PiLaurent.coerce(other)
        t1, t2 = self.terms, other.terms
        if len(t1) == 1 and len(t2) == 1:  # a product of nonzero QQi is nonzero
            ((k1, c1),), ((k2, c2),) = t1.items(), t2.items()
            return _laurent({k1 + k2: c1 * c2})
        out = {}
        for k1, c1 in t1.items():
            for k2, c2 in t2.items():
                k = k1 + k2
                prod = c1 * c2
                if k in out:
                    out[k] = out[k] + prod
                else:
                    out[k] = prod
        return _laurent({k: c for k, c in out.items() if c})

    __rmul__ = __mul__

    def conjugate(self) -> "PiLaurent":
        return _laurent({k: c.conjugate() for k, c in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not PiLaurent:
            if not isinstance(other, (QQi, int, Fraction)):
                return NotImplemented
            other = PiLaurent.coerce(other)
        return self.terms == other.terms

    def __hash__(self):
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __complex__(self):
        return sum(complex(c) * math.pi**k for k, c in self.terms.items()) or 0j

    def __repr__(self):
        if not self.terms:
            return "PiLaurent(0)"
        bits = [f"({c!r})*pi**{k}" for k, c in sorted(self.terms.items())]
        return " + ".join(bits)


_set_terms = PiLaurent.terms.__set__


def _laurent(terms: dict) -> PiLaurent:
    """The PiLaurent of an already clean table: integer powers, nonzero QQi."""
    z = _new(PiLaurent)
    _set_terms(z, terms)
    return z


def exact_inverse(rows: list[list[QQi]]) -> list[list[QQi]]:
    """Invert a square QQi matrix by Gauss-Jordan elimination."""
    m = len(rows)
    aug = [[QQi.coerce(rows[i][j]) for j in range(m)] + [QQI_ONE if i == j else QQI_ZERO for j in range(m)]
           for i in range(m)]
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular exact matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(m):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


def leading_minors(rows) -> list:
    """Every leading principal minor D_1..D_m of a square matrix; the
    determinant is the last.

    Division-free Laplace expansion by rows: row r is expanded over every
    (r+1)-column minor of rows 0..r, each built from the r-column minors of
    the row before, so the m x m determinant costs m 2^(m-1) products
    instead of Leibniz's m! m.  It works over any commutative ring whose
    elements support ``+``, ``-`` and ``*``: numbers, :class:`QQi`,
    polynomials, and numpy arrays, where ``rows[r][c]`` of an (m, m, N) array
    is the batch of entries (r, c) and every product is elementwise.
    """
    m = len(rows)
    prev = {(c,): rows[0][c] for c in range(m)}
    out = [prev[(0,)]]
    for r in range(1, m):
        cur = {}
        for cols in itertools.combinations(range(m), r + 1):
            acc = None
            for idx, c in enumerate(cols):
                term = rows[r][c] * prev[cols[:idx] + cols[idx + 1:]]
                if acc is None:
                    acc = -term if (r + idx) % 2 else term
                else:
                    acc = acc - term if (r + idx) % 2 else acc + term
            cur[cols] = acc
        prev = cur
        out.append(cur[tuple(range(r + 1))])
    return out


def power(x, k: int):
    """``x`` to the integer power ``k`` by binary exponentiation, in the ring
    of ``x``: numbers, :class:`QQi`, polynomials, and numpy arrays, where
    every product is elementwise.

    For k < 0 the base is inverted first, as ``1 / x``, except that an int
    inverts as ``Fraction(1, x)``, so an exact base stays exact; k == 0 is
    ``x ** 0``.  Inverting first and then multiplying in a fixed order makes
    the power of -x that of x, sign flipped for odd k, bit for bit, so a value
    invariant under flipping both roots of a cover element is invariant in
    every bit.
    """
    if not k:
        return x**0
    if k < 0:
        x, k = (Fraction(1, x) if type(x) is int else 1 / x), -k
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return out
        x = x * x


def rational_hyperbolic(rho: Fraction) -> tuple[Fraction, Fraction]:
    """Exact (cosh t, sinh t) pair from a rational parameter in (-1, 1).

    cosh = (1+rho^2)/(1-rho^2), sinh = 2 rho/(1-rho^2); cosh^2 - sinh^2 = 1.
    """
    rho = Fraction(rho)
    if not -1 < rho < 1:
        raise ValueError("parameter must lie in (-1, 1)")
    d = 1 - rho * rho
    return (1 + rho * rho) / d, 2 * rho / d
