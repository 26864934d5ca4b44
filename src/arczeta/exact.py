"""Exact scalar arithmetic: Gaussian rationals and Laurent polynomials in pi.

Two tiny rings cover every exact computation in the package:

* ``QQi``: complex numbers with rational real and imaginary parts.
* ``PiLaurent``: finite sums ``sum_k c_k * pi**k`` with ``c_k`` in ``QQi``.

Monomial norms in the holomorphic-polynomial model are ``alpha!/pi**|alpha|``,
so inner products of exact polynomials land in ``PiLaurent``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class QQi:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("QQi is immutable")

    @classmethod
    def coerce(cls, x) -> "QQi":
        if isinstance(x, QQi):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to QQi")

    def __add__(self, other):
        other = QQi.coerce(other)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-QQi.coerce(other))

    def __rsub__(self, other):
        return QQi.coerce(other) + (-self)

    def __mul__(self, other):
        other = QQi.coerce(other)
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im)

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "QQi":
        n = self.norm2()
        if n == 0:
            raise ZeroDivisionError("division by zero QQi")
        return QQi(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * QQi.coerce(other).inverse()

    def __rtruediv__(self, other):
        return QQi.coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("QQi exponent must be int")
        base = self if k >= 0 else self.inverse()
        out = QQi(1)
        for _ in range(abs(k)):
            out = out * base
        return out

    def __eq__(self, other):
        try:
            other = QQi.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"QQi({self.re})"
        return f"QQi({self.re}, {self.im})"


QQI_ZERO = QQi(0)
QQI_ONE = QQi(1)


class PiLaurent:
    """Finite Laurent polynomial in pi with QQi coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, c in terms.items():
                c = QQi.coerce(c)
                if c:
                    clean[int(k)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("PiLaurent is immutable")

    @classmethod
    def coerce(cls, x) -> "PiLaurent":
        if isinstance(x, PiLaurent):
            return x
        return cls({0: QQi.coerce(x)})

    @classmethod
    def single(cls, coeff, pi_exp: int = 0) -> "PiLaurent":
        return cls({pi_exp: QQi.coerce(coeff)})

    def __add__(self, other):
        other = PiLaurent.coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, QQI_ZERO) + c
        return PiLaurent(out)

    __radd__ = __add__

    def __neg__(self):
        return PiLaurent({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-PiLaurent.coerce(other))

    def __rsub__(self, other):
        return PiLaurent.coerce(other) + (-self)

    def __mul__(self, other):
        other = PiLaurent.coerce(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                prod = c1 * c2
                if k in out:
                    out[k] = out[k] + prod
                else:
                    out[k] = prod
        return PiLaurent(out)

    __rmul__ = __mul__

    def conjugate(self) -> "PiLaurent":
        return PiLaurent({k: c.conjugate() for k, c in self.terms.items()})

    def __eq__(self, other):
        try:
            other = PiLaurent.coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
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


def rational_hyperbolic(rho: Fraction) -> tuple[Fraction, Fraction]:
    """Exact (cosh t, sinh t) pair from a rational parameter in (-1, 1).

    cosh = (1+rho^2)/(1-rho^2), sinh = 2 rho/(1-rho^2); cosh^2 - sinh^2 = 1.
    """
    rho = Fraction(rho)
    if not -1 < rho < 1:
        raise ValueError("parameter must lie in (-1, 1)")
    d = 1 - rho * rho
    return (1 + rho * rho) / d, 2 * rho / d
