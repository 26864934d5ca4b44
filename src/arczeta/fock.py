"""Holomorphic polynomial model of the oscillator representation.

Polynomials live in the (n+1)^2 variables z_ij arranged as an (n+1) x (n+1)
matrix; the top-left n x p block is A, top-right n x q block is B, bottom row
splits into C (first p columns) and D (last q columns).  The compact group
acts by the substitution

    f  ->  (det x)^{(p-q)/2} (det y)^{-(p-q)/2} f(tx A, x^{-1} B; y^{-1} C, ty D)

extended verbatim to invertible complex blocks, and the hyperbolic
one-parameter family acts by an explicit Gaussian integral transform in the
first row of variables.

Two coefficient modes share all code paths: complex floats, and exact
Gaussian rationals times integer powers of pi (:class:`~arczeta.exact.PiLaurent`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidParameterError
from .exact import PiLaurent, QQi, exact_inverse, leibniz_det
from .group import CoverElement, b_t_cover, cpow_int
from .weights import Case, ThetaDatum

__all__ = [
    "FockPoly",
    "ExactCover",
    "bargmann_inner",
    "minors",
    "harmonic_hwv",
    "hwv_norm2",
    "omega_k",
    "omega_kprime",
    "omega_at",
    "weil_transform_bruteforce",
    "AtTransform",
    "omega_matcoef",
    "omega_matcoef_transform_route",
    "highest_weight_check",
    "MatrixCoefficient",
]


def _var(n: int, i: int, j: int) -> int:
    """Flat index of z_ij (1-based matrix indices)."""
    if not (1 <= i <= n + 1 and 1 <= j <= n + 1):
        raise InvalidParameterError(f"variable index ({i},{j}) out of range for n={n}")
    return (i - 1) * (n + 1) + (j - 1)


def _exponents(n: int, *flat: int) -> tuple:
    """Exponent vector of the product of the variables with these flat indices."""
    e = [0] * ((n + 1) ** 2)
    for v in flat:
        e[v] += 1
    return tuple(e)


# -- the two coefficient modes -----------------------------------------------
# Scalars enter either ring through these helpers, and every sum of terms
# goes through one accumulator.


def _coerce(c, exact: bool):
    """``c`` as a polynomial coefficient: PiLaurent (exact) or complex (float)."""
    return PiLaurent.coerce(c) if exact else complex(c)


def _pi_scalar(value, k: int, exact: bool):
    """``value * pi**k`` in the mode's ring: a PiLaurent of one power of pi,
    or a float that divides by pi**-k when k < 0."""
    if exact:
        return PiLaurent.single(QQi.coerce(value), k)
    return value * math.pi**k if k >= 0 else value / math.pi**-k


def _collect(pairs) -> dict:
    """Sum ``(exponents, coefficient)`` pairs into a term table, in order,
    storing no zero coefficient."""
    out: dict[tuple, object] = {}
    for e, c in pairs:
        if not c:
            continue
        prev = out.get(e)
        if prev is not None:
            c = c + prev
            if not c:
                del out[e]
                continue
        out[e] = c
    return out


class FockPoly:
    """Sparse polynomial in the (n+1)^2 matrix variables.

    Terms map exponent tuples to nonzero coefficients; coefficients are all
    complex (float mode) or all :class:`PiLaurent` (exact mode).
    """

    __slots__ = ("n", "terms", "exact")

    def __init__(self, n: int, terms: Optional[dict] = None, exact: bool = True):
        self.n = int(n)
        self.exact = bool(exact)
        nvars = (n + 1) * (n + 1)
        pairs = []
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise InvalidParameterError(f"bad exponent vector {exps}")
            pairs.append((exps, _coerce(c, self.exact)))
        self.terms = _collect(pairs)

    def _with(self, terms: dict) -> "FockPoly":
        """A polynomial of this size and mode over an already clean term table."""
        res = FockPoly.__new__(FockPoly)
        res.n, res.exact, res.terms = self.n, self.exact, terms
        return res

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, n: int, exact: bool = True) -> "FockPoly":
        return cls(n, {}, exact)

    @classmethod
    def one(cls, n: int, exact: bool = True) -> "FockPoly":
        return cls(n, {_exponents(n): 1}, exact)

    @classmethod
    def variable(cls, n: int, i: int, j: int, exact: bool = True) -> "FockPoly":
        return cls(n, {_exponents(n, _var(n, i, j)): 1}, exact)

    # -- ring ops ------------------------------------------------------------
    def _check(self, other: "FockPoly"):
        if self.n != other.n or self.exact != other.exact:
            raise InvalidParameterError("polynomial mode/size mismatch")

    def __add__(self, other: "FockPoly") -> "FockPoly":
        self._check(other)
        return self._with(_collect(itertools.chain(self.terms.items(), other.terms.items())))

    def __neg__(self) -> "FockPoly":
        return self._with({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "FockPoly") -> "FockPoly":
        return self + (-other)

    def __mul__(self, other) -> "FockPoly":
        if not isinstance(other, FockPoly):
            return self.scale(other)
        self._check(other)
        out: dict[tuple, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                prev = out.get(e)
                s = c + prev if prev is not None else c
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return self._with(out)

    __rmul__ = __mul__

    def scale(self, scalar) -> "FockPoly":
        scalar = _coerce(scalar, self.exact)
        return self._with({e: c * scalar for e, c in self.terms.items()} if scalar else {})

    def __pow__(self, k: int) -> "FockPoly":
        if k < 0:
            raise InvalidParameterError("negative power of a polynomial")
        out = FockPoly.one(self.n, self.exact)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- queries -------------------------------------------------------------
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, FockPoly)
            and self.n == other.n
            and self.exact == other.exact
            and self.terms == other.terms
        )

    def __repr__(self):
        k = len(self.terms)
        return f"FockPoly(n={self.n}, terms={k}, deg={self.degree()}, exact={self.exact})"


# ---------------------------------------------------------------------------
# inner product and the basic Gaussian integral


def _monomial_norm2(exps, exact: bool):
    """Squared norm a!/pi^|a| of the monomial z^a.  The float route goes
    through log-gamma and cannot overflow."""
    if exact:
        return _pi_scalar(math.prod(math.factorial(k) for k in exps), -sum(exps), True)
    return math.exp(sum(math.lgamma(e + 1) for e in exps) - sum(exps) * math.log(math.pi))


def bargmann_inner(f: FockPoly, g: FockPoly):
    """Hermitian inner product; monomial z^a has squared norm a!/pi^|a|.

    Exact mode returns :class:`PiLaurent`, float mode a complex number.  The
    second argument is the conjugated one.
    """
    if f.n != g.n:
        raise InvalidParameterError("mismatched variable counts")
    if f.exact != g.exact:
        raise InvalidParameterError("mismatched coefficient modes")
    acc = _coerce(0, f.exact)
    for e, c in f.terms.items():
        d = g.terms.get(e)
        if d is not None:
            acc = acc + c * d.conjugate() * _monomial_norm2(e, f.exact)
    return acc


# ---------------------------------------------------------------------------
# minors and highest-weight vectors


def minors(n: int, i: int, exact: bool = True) -> tuple[FockPoly, FockPoly]:
    """The leading principal i x i minor and its anti-corner companion
    (rows n-i+1..n, columns n-i+2..n+1)."""
    if not 1 <= i <= n:
        raise InvalidParameterError(f"minor index {i} out of range for n={n}")

    def det(rows, cols):
        return leibniz_det([[FockPoly.variable(n, r, c, exact) for c in cols] for r in rows])

    delta = det(range(1, i + 1), range(1, i + 1))
    delta_p = det(range(n - i + 1, n + 1), range(n - i + 2, n + 2))
    return delta, delta_p


def harmonic_hwv(theta: ThetaDatum, exact: bool = True) -> FockPoly:
    """Joint highest-weight polynomial of the classified datum.

    Case I: product of anti-corner minors to the alpha-difference powers
    times z_{n+1,1}^gamma.  Case II: principal minors to the beta-difference
    powers, anti-corner minors to the alpha-difference powers, times
    z_{n+1,p+1}^gamma.  Normalized with leading coefficient one.
    """
    n = theta.n
    gamma = theta.gamma
    if gamma.denominator != 1 or any(a.denominator != 1 for a in theta.alphas) or any(
        b.denominator != 1 for b in theta.betas
    ):
        raise InvalidParameterError(
            "highest-weight vector needs integral classification data "
            "(parameter is in the flagged congruence class)"
        )
    out = FockPoly.one(n, exact)
    if theta.case is Case.I:
        alphas = [int(a) for a in theta.alphas] + [0]
        for i in range(1, n + 1):
            e = alphas[i - 1] - alphas[i]
            if e:
                out = out * minors(n, i, exact)[1] ** e
        out = out * FockPoly.variable(n, n + 1, 1, exact) ** int(gamma)
    else:
        betas = [int(b) for b in theta.betas] + [0]
        for i in range(1, theta.p + 1):
            e = betas[i - 1] - betas[i]
            if e:
                out = out * minors(n, i, exact)[0] ** e
        alphas = [int(a) for a in theta.alphas] + [0]
        for i in range(1, theta.q):
            e = alphas[i - 1] - alphas[i]
            if e:
                out = out * minors(n, i, exact)[1] ** e
        out = out * FockPoly.variable(n, n + 1, theta.p + 1, exact) ** int(gamma)
    return out


def hwv_norm2(theta: ThetaDatum) -> float:
    """Squared norm of the joint highest-weight vector, from its exact
    polynomial and the exact inner product."""
    phi = harmonic_hwv(theta, exact=True)
    return complex(bargmann_inner(phi, phi)).real


# ---------------------------------------------------------------------------
# exact cover elements (the float side lives in arczeta.group)


@dataclass(frozen=True)
class ExactCover:
    """Block-diagonal element with Gaussian-rational entries.

    Only the ratio of the two roots of the block determinants is carried:
    every genuine weight in scope has balanced opposite det twists, so the
    ratio is the only quantity that ever enters, and it stays rational even
    when the individual roots do not (e.g. the hyperbolic family, whose two
    block determinants are equal).
    """

    block_n: tuple[tuple[QQi, ...], ...]
    block_1: QQi
    zeta_ratio: QQi

    def __post_init__(self):
        bn = tuple(tuple(QQi.coerce(x) for x in row) for row in self.block_n)
        object.__setattr__(self, "block_n", bn)
        object.__setattr__(self, "block_1", QQi.coerce(self.block_1))
        object.__setattr__(self, "zeta_ratio", QQi.coerce(self.zeta_ratio))
        dn = leibniz_det(bn)
        if not dn or not self.block_1:
            raise InvalidParameterError("cover blocks must be invertible")
        if self.zeta_ratio * self.zeta_ratio * self.block_1 != dn:
            raise InvalidParameterError("zeta_ratio**2 != det(block_n)/block_1")

    @classmethod
    def identity(cls, n: int) -> "ExactCover":
        eye = tuple(tuple(QQi(1 if i == j else 0) for j in range(n)) for i in range(n))
        return cls(eye, QQi(1), QQi(1))

    @classmethod
    def diagonal(cls, diag: Sequence, block_1, zeta_ratio) -> "ExactCover":
        d = [QQi.coerce(x) for x in diag]
        bn = tuple(tuple(d[i] if i == j else QQi(0) for j in range(len(d))) for i in range(len(d)))
        return cls(bn, block_1, zeta_ratio)

    @classmethod
    def hyperbolic(cls, ch: Fraction, n: int, inverse: bool = False) -> "ExactCover":
        """Exact analogue of the diagonal family diag(ch, 1, .., 1, ch); both
        block determinants equal ch so the root ratio is exactly one."""
        c = Fraction(ch) if not inverse else 1 / Fraction(ch)
        diag = [c] + [Fraction(1)] * (n - 1)
        return cls.diagonal(diag, QQi.coerce(c), QQi(1))

    @property
    def n(self) -> int:
        return len(self.block_n)

    def compose(self, other: "ExactCover") -> "ExactCover":
        n = self.n
        prod = tuple(
            tuple(
                sum((self.block_n[i][k] * other.block_n[k][j] for k in range(n)), QQi(0))
                for j in range(n)
            )
            for i in range(n)
        )
        return ExactCover(prod, self.block_1 * other.block_1, self.zeta_ratio * other.zeta_ratio)

    def inverse(self) -> "ExactCover":
        inv = exact_inverse([list(r) for r in self.block_n])
        return ExactCover(
            tuple(tuple(row) for row in inv),
            self.block_1.inverse(),
            self.zeta_ratio.inverse(),
        )


def _cover_data(k, exact: bool):
    """(transpose-of-n-block rows, inverse-of-n-block rows, y, y_inv, ratio)."""
    if isinstance(k, ExactCover):
        if not exact:
            raise InvalidParameterError("exact cover supplied to a float computation")
        n = k.n
        xt = [[k.block_n[j][i] for j in range(n)] for i in range(n)]
        xi = exact_inverse([list(r) for r in k.block_n])
        return xt, xi, k.block_1, k.block_1.inverse(), k.zeta_ratio
    if isinstance(k, CoverElement):
        if exact:
            raise InvalidParameterError("float cover supplied to an exact computation")
        bn = k.block_n
        return bn.T, np.linalg.inv(bn), k.block_1, 1.0 / k.block_1, k.zeta_ratio
    raise InvalidParameterError(f"unsupported cover element {type(k).__name__}")


def _substitute(f: FockPoly, images: dict[int, list[tuple[int, object]]]) -> FockPoly:
    """Substitute each variable by a linear form (list of (var, coeff))."""
    cache: dict[tuple[int, int], FockPoly] = {}

    def image_power(v: int, e: int) -> FockPoly:
        if (v, e) not in cache:
            lin = f._with(_collect((_exponents(f.n, w), _coerce(c, f.exact)) for w, c in images[v]))
            cache[v, e] = lin**e
        return cache[v, e]

    pairs = []
    for exps, coeff in f.terms.items():
        term = FockPoly.one(f.n, f.exact)
        for v, e in enumerate(exps):
            if e:
                term = term * image_power(v, e)
        pairs.extend((e, c * coeff) for e, c in term.terms.items())
    return f._with(_collect(pairs))


def _twist(f: FockPoly, ratio, power: int) -> FockPoly:
    """Scale by the carried root ratio to the given det-twist power."""
    if not power:
        return f
    return f.scale(ratio**power if f.exact else cpow_int(complex(ratio), power))


def omega_k(k, f: FockPoly, theta: ThetaDatum) -> FockPoly:
    """Substitution action of a (complexified) block-diagonal element.

    Blocks are split by the datum's (p, q): the first p columns pair with the
    transpose action, the rest with the inverse action, and the genuine det
    twist enters through the cover's root ratio to the power p - q.
    """
    n, p = theta.n, theta.p
    xt, xi, y, yi, ratio = _cover_data(k, f.exact)
    images: dict[int, list[tuple[int, object]]] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 2):
            v = _var(n, i, j)
            rowmat = xt if j <= p else xi
            images[v] = [
                (_var(n, kk, j), rowmat[i - 1][kk - 1]) for kk in range(1, n + 1)
            ]
    for j in range(1, n + 2):
        v = _var(n, n + 1, j)
        images[v] = [(v, yi if j <= p else y)]
    return _twist(_substitute(f, images), ratio, p - theta.q)


def omega_kprime(kp, f: FockPoly, theta: ThetaDatum) -> FockPoly:
    """Column-side substitution action of the partner compact group.

    Left action mirroring the row side: the U(p) factor acts on the first p
    columns by A -> A xp and C -> C t(xp)^{-1}, the U(q) factor on the rest by
    B -> B t(yq)^{-1} and D -> D yq, with det twists (n-1)/2 and -(n-1)/2
    consumed through the root ratio.  ``kp`` is a (xp, yq, ratio) triple.
    """
    n, p, q = theta.n, theta.p, theta.q
    xp, yq_mat, ratio = kp
    if f.exact:
        xp = [[QQi.coerce(v) for v in row] for row in xp]
        yq_mat = [[QQi.coerce(v) for v in row] for row in yq_mat]
        xi_p = exact_inverse(xp) if p else []
        yi = exact_inverse(yq_mat)
    else:
        xp = np.asarray(xp, dtype=complex).reshape(p, p)
        yq_mat = np.asarray(yq_mat, dtype=complex).reshape(q, q)
        xi_p = np.linalg.inv(xp) if p else xp
        yi = np.linalg.inv(yq_mat)
    images: dict[int, list[tuple[int, object]]] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 2):
            v = _var(n, i, j)
            if j <= p:  # (A xp)_ij = sum_c z_ic xp[c][j]
                images[v] = [(_var(n, i, c), xp[c - 1][j - 1]) for c in range(1, p + 1)]
            else:  # (B t(yq)^{-1})_ij = sum_c z_i,p+c yqinv[j-p][c]
                images[v] = [
                    (_var(n, i, p + c), yi[j - p - 1][c - 1]) for c in range(1, q + 1)
                ]
    for j in range(1, n + 2):
        v = _var(n, n + 1, j)
        if j <= p:  # (C t(xp)^{-1})_j = sum_c z_(n+1)c xpinv[j][c]
            images[v] = [(_var(n, n + 1, c), xi_p[j - 1][c - 1]) for c in range(1, p + 1)]
        else:  # (D yq)_j = sum_c z_(n+1),p+c yq[c][j-p]
            images[v] = [
                (_var(n, n + 1, p + c), yq_mat[c - 1][j - p - 1]) for c in range(1, q + 1)
            ]
    return _twist(_substitute(f, images), ratio, n - 1)


# ---------------------------------------------------------------------------
# the hyperbolic transform


def _hyperbolic_scalars(t, exact: bool):
    """(cosh, tanh) in the right scalar ring; exact input is a (ch, sh) pair."""
    if exact:
        ch, sh = t
        ch, sh = Fraction(ch), Fraction(sh)
        if ch * ch - sh * sh != 1:
            raise InvalidParameterError("need cosh^2 - sinh^2 = 1 exactly")
        return ch, sh / ch
    return math.cosh(t), math.tanh(t)


@dataclass(frozen=True)
class AtTransform:
    """Result of the hyperbolic action: scalar prefactor, the coefficient of
    the corner bilinear form inside the exponential tag, and the transformed
    polynomial.  The full action is
    prefactor * exp(pi * tanh * sum_j z_1j z_(n+1)j) * poly."""

    n: int
    prefactor: object
    tanh: object
    poly: FockPoly

    def exp_factor(self, max_degree: int) -> FockPoly:
        """The exponential tag expanded through total degree ``max_degree``."""
        n, exact = self.n, self.poly.exact
        bil = FockPoly(n, {_exponents(n, _var(n, 1, j), _var(n, n + 1, j)): 1
                           for j in range(1, n + 2)}, exact)
        out = power = FockPoly.one(n, exact)
        for m in range(1, max_degree // 2 + 1):
            power = power * bil
            out = out + power.scale(_pi_scalar(self.tanh**m / math.factorial(m), m, exact))
        return out

    def pair_with(self, g: FockPoly):
        """Inner product of the full transformed vector against ``g``.

        The exponential tag is expanded only through deg(g); higher orders
        are orthogonal to ``g``.
        """
        full = self.exp_factor(g.degree()) * self.poly
        val = bargmann_inner(full, g)
        return self.prefactor * val


def omega_at(t, f: FockPoly) -> AtTransform:
    """Closed form of the hyperbolic action on a polynomial.

    ``t`` is a float in float mode, or an exact ``(cosh, sinh)`` pair of
    Fractions in exact mode.  Derivation: substitute the first variable row
    by the integration row and the last row by its shifted image, then kill
    each integral by the one-variable Gaussian pairing
    int w^i wbar^l e^{pi c wbar} = i!/(i-l)! c^(i-l) / pi^l (zero for l > i);
    the middle rows ride along.
    """
    n, exact = f.n, f.exact
    ch, th = _hyperbolic_scalars(t, exact)
    chinv = 1 / ch
    pairs = []
    for exps, coeff in f.terms.items():
        # column j moves the exponents of z_1j and z_(n+1)j together
        acc = [(exps, coeff)]
        for j in range(1, n + 2):
            v1, v2 = _var(n, 1, j), _var(n, n + 1, j)
            i_j, g_j = exps[v1], exps[v2]
            new_acc = []
            for cur_exps, cur_coeff in acc:
                for ell in range(min(i_j, g_j) + 1):
                    scal = _pi_scalar(math.comb(g_j, ell) * math.perm(i_j, ell) * (-th) ** ell
                                      * chinv ** (i_j + g_j - 2 * ell), -ell, exact)
                    e = list(cur_exps)
                    e[v1], e[v2] = i_j - ell, g_j - ell
                    new_acc.append((tuple(e), cur_coeff * scal))
            acc = new_acc
        pairs.extend(acc)
    return AtTransform(n=n, prefactor=_pi_scalar(chinv ** (n + 1), 0, exact), tanh=th,
                       poly=f._with(_collect(pairs)))


def weil_transform_bruteforce(t, f: FockPoly) -> AtTransform:
    """Independent evaluation of the hyperbolic action straight from the
    integral kernel: the exponential is expanded multinomially per variable
    (middle rows one source, corner rows two sources including the joint
    antiholomorphic term) and each variable is integrated by monomial
    orthogonality.  Used as the oracle against :func:`omega_at`."""
    n, exact = f.n, f.exact
    ch, th = _hyperbolic_scalars(t, exact)
    chinv = 1 / ch
    pairs = []
    for exps, coeff in f.terms.items():
        # middle rows: single kernel source pi * z_rj wbar_rj; the expansion
        # order is forced to the monomial exponent and the integral returns
        # the same monomial.
        # corner columns: sources pi/ch * z_1j wbar_1j, pi/ch * z_(n+1)j
        # wbar_(n+1)j, and -pi*th * wbar_1j wbar_(n+1)j.
        items = [(exps, coeff)]
        for j in range(1, n + 2):
            v1, v2 = _var(n, 1, j), _var(n, n + 1, j)
            i_j, g_j = exps[v1], exps[v2]
            expanded = []
            for e_cur, c_cur in items:
                for m in range(min(i_j, g_j) + 1):
                    a, b = i_j - m, g_j - m
                    # kernel coefficient: (pi/ch)^a/a! * (pi/ch)^b/b! *
                    # (-pi th)^m/m!, integrals give i!/pi^i * g!/pi^g
                    num = chinv ** (a + b) * (-th) ** m * Fraction(
                        math.factorial(i_j) * math.factorial(g_j),
                        math.factorial(a) * math.factorial(b) * math.factorial(m),
                    )
                    scal = _pi_scalar(num, (a + b + m) - i_j - g_j, exact)
                    e = list(e_cur)
                    e[v1], e[v2] = a, b
                    expanded.append((tuple(e), c_cur * scal))
            items = expanded
        pairs.extend(items)
    # (det P)^(-1/2) with P = diag(ch,1,...,1,ch) tensor identity, det P = ch^(2(n+1))
    return AtTransform(n=n, prefactor=_pi_scalar(1 / ch ** (n + 1), 0, exact), tanh=th,
                       poly=f._with(_collect(pairs)))


# ---------------------------------------------------------------------------
# matrix coefficients of the compact action


def omega_matcoef(kp, t, k, theta: ThetaDatum, phi: Optional[FockPoly] = None):
    """<omega(k' a_t k) phi, phi> by the substitution route.

    The hyperbolic element contributes the scalar (cosh t)^{-(n+1)} and the
    diagonal companion (or its inverse in Case II) sandwiched between the two
    unitaries; root ratios multiply along the composition.
    """
    n = theta.n
    exact = isinstance(k, ExactCover)
    if phi is None:
        phi = harmonic_hwv(theta, exact=exact)
    ch, _ = _hyperbolic_scalars(t, exact)
    inverse = theta.case is Case.II
    if exact:
        mid = ExactCover.hyperbolic(ch, n, inverse=inverse)
    else:
        mid = b_t_cover(t, n).inverse() if inverse else b_t_cover(t, n)
    el = kp.compose(mid).compose(k)
    return _pi_scalar(ch ** -(n + 1), 0, exact) * bargmann_inner(omega_k(el, phi, theta), phi)


def omega_matcoef_transform_route(kp, t, k, theta: ThetaDatum, phi: Optional[FockPoly] = None):
    """<omega(k' a_t k) phi, phi> through the hyperbolic integral transform.

    Independent of :func:`omega_matcoef`: uses unitarity to move k' to the
    right, applies the transform to omega(k) phi, and pairs with the
    exponential tag truncated at the relevant degree.
    """
    exact = isinstance(k, ExactCover)
    if phi is None:
        phi = harmonic_hwv(theta, exact=exact)
    f = omega_k(k, phi, theta)
    g = omega_k(kp.inverse(), phi, theta)
    return omega_at(t, f).pair_with(g)


# ---------------------------------------------------------------------------
# weight bookkeeping and the highest-weight report


def _variable_weights(theta: ThetaDatum):
    """Per-variable torus weights for both compact factors.

    Returns two dicts: var -> (axis index, +-1) for the row-side group
    (axis n is the scalar factor) and for the column-side group (axes 0..p-1
    for the first factor, p..n for the second)."""
    n, p = theta.n, theta.p
    row_w = {}
    col_w = {}
    for i in range(1, n + 2):
        for j in range(1, n + 2):
            v = _var(n, i, j)
            if i <= n:
                row_w[v] = (i - 1, +1) if j <= p else (i - 1, -1)
            else:
                row_w[v] = (n, -1) if j <= p else (n, +1)
            if j <= p:
                col_w[v] = (j - 1, +1) if i <= n else (j - 1, -1)
            else:
                col_w[v] = (p + (j - p - 1), -1) if i <= n else (p + (j - p - 1), +1)
    return row_w, col_w


def _monomial_weight(exps, wmap, axes: int):
    out = [0] * axes
    for v, e in enumerate(exps):
        if e:
            ax, s = wmap[v]
            out[ax] += s * e
    return tuple(out)


def _first_order(poly: FockPoly, moves: list[tuple[int, int, int]]) -> FockPoly:
    """Apply sum of sign * z_src d/d z_dst to the polynomial."""
    pairs = []
    for exps, coeff in poly.terms.items():
        for src, dst, sign in moves:
            e = exps[dst]
            if e:
                newe = list(exps)
                newe[dst] -= 1
                newe[src] += 1
                pairs.append((tuple(newe), coeff * (sign * e)))
    return poly._with(_collect(pairs))


@dataclass
class HighestWeightReport:
    row_weight: tuple
    col_weight: tuple
    row_expected: tuple
    col_expected: tuple
    row_matches: bool
    col_matches: bool
    failed_raising: list[str]

    @property
    def ok(self) -> bool:
        return self.row_matches and self.col_matches and not self.failed_raising


def highest_weight_check(phi: FockPoly, theta: ThetaDatum) -> HighestWeightReport:
    """Verify joint highest-weight structure of ``phi``.

    (a) every monomial carries the contragredient weight on the row side and
    the partner weight on the column side (det twists included); (b) each
    compact simple raising direction, computed by exact differentiation of
    the substitution action, annihilates ``phi``.
    """
    n, p, q = theta.n, theta.p, theta.q
    row_w, col_w = _variable_weights(theta)
    row_twist = (Fraction(theta.p - theta.q, 2),) * n + (-Fraction(theta.p - theta.q, 2),)
    col_twist = (Fraction(n - 1, 2),) * p + (-Fraction(n - 1, 2),) * q

    weights_row = set()
    weights_col = set()
    for exps in phi.terms:
        weights_row.add(_monomial_weight(exps, row_w, n + 1))
        weights_col.add(_monomial_weight(exps, col_w, n + 1))
    if len(weights_row) != 1 or len(weights_col) != 1:
        raise InvalidParameterError("polynomial is not a weight vector")
    rw = tuple(Fraction(x) + t for x, t in zip(weights_row.pop(), row_twist))
    cw = tuple(Fraction(x) + t for x, t in zip(weights_col.pop(), col_twist))

    row_expected = theta.LambdaDual.first + theta.LambdaDual.second
    col_expected = theta.LambdaPrime.first + theta.LambdaPrime.second

    failed = []
    # row-side simple raising: z_ib d/dz_(i+1)b on the first block, minus
    # z_(i+1)b d/dz_ib on the second
    for i in range(1, n):
        moves = [(_var(n, i, b), _var(n, i + 1, b), +1) for b in range(1, p + 1)]
        moves += [(_var(n, i + 1, b), _var(n, i, b), -1) for b in range(p + 1, n + 2)]
        if not _first_order(phi, moves).is_zero():
            failed.append(f"row raising {i}->{i + 1}")
    # column-side raising in the first factor
    for j in range(1, p):
        moves = [(_var(n, a, j), _var(n, a, j + 1), +1) for a in range(1, n + 1)]
        moves += [(_var(n, n + 1, j + 1), _var(n, n + 1, j), -1)]
        if not _first_order(phi, moves).is_zero():
            failed.append(f"first-factor column raising {j}->{j + 1}")
    # column-side raising in the second factor
    for c in range(1, q):
        moves = [(_var(n, a, p + c + 1), _var(n, a, p + c), -1) for a in range(1, n + 1)]
        moves += [(_var(n, n + 1, p + c), _var(n, n + 1, p + c + 1), +1)]
        if not _first_order(phi, moves).is_zero():
            failed.append(f"second-factor column raising {c}->{c + 1}")

    return HighestWeightReport(
        row_weight=rw,
        col_weight=cw,
        row_expected=row_expected,
        col_expected=col_expected,
        row_matches=rw == row_expected,
        col_matches=cw == col_expected,
        failed_raising=failed,
    )


# ---------------------------------------------------------------------------
# closed-form matrix coefficient for the integration hot path


class MatrixCoefficient:
    """Highest-weight matrix coefficient <omega(M) phi, phi> as a minor product.

    A highest-weight matrix coefficient is a product of generalized minors
    (Fomin-Zelevinsky).  omega(M) carries each minor factor of phi to the
    matching minor of its block: a leading i x i minor of A picks up that of
    x^T, which is D_i = det x[:i, :i]; a trailing i x i minor of B picks up
    that of x^{-1}, which is D_{n-i} / D_n by Jacobi's complementary-minor
    identity (D_0 = 1).  With r the carried root ratio:

        Case I:  |phi|^2 r^(p-q) y^-gamma prod_{i<=n} (D_{n-i}/D_n)^(alpha_i - alpha_{i+1})
        Case II: |phi|^2 r^(p-q) y^gamma  prod_{i<=p} D_i^(beta_i - beta_{i+1})
                                          prod_{i<q} (D_{n-i}/D_n)^(alpha_i - alpha_{i+1})

    Setup collects one exponent per D_k; evaluation costs one batched
    determinant per minor that occurs and forms no inverse.
    """

    def __init__(self, theta: ThetaDatum):
        n = theta.n
        self.phi_norm2 = complex(hwv_norm2(theta))
        self._ratio_exp = theta.p - theta.q
        exps = [0] * (n + 1)  # exponent of D_k, k = 0..n
        alphas = [int(a) for a in theta.alphas] + [0]
        if theta.case is Case.I:
            self._y_exp, trailing = -int(theta.gamma), n
        else:
            self._y_exp, trailing = int(theta.gamma), theta.q - 1
            betas = [int(b) for b in theta.betas] + [0]
            for i in range(1, theta.p + 1):
                exps[i] += betas[i - 1] - betas[i]
        for i in range(1, trailing + 1):
            exps[n - i] += alphas[i - 1] - alphas[i]
            exps[n] -= alphas[i - 1] - alphas[i]
        self._minor_exps = [(k, e) for k, e in enumerate(exps) if k and e]

    def evaluate(self, block_n: np.ndarray, block_1: np.ndarray, ratio: np.ndarray) -> np.ndarray:
        """Batched evaluation; block_n is (N, n, n), block_1 and ratio (N,)."""
        out = self.phi_norm2 * cpow_int(block_1, self._y_exp)
        for k, e in self._minor_exps:
            out = out * cpow_int(np.linalg.det(block_n[:, :k, :k]), e)
        if self._ratio_exp:
            out = out * cpow_int(ratio, self._ratio_exp)
        return out
