"""Holomorphic polynomial model of the oscillator representation.

Polynomials live in the (n+1)^2 variables z_ij arranged as an (n+1) x (n+1)
matrix; the top-left n x p block is A, top-right n x q block is B, bottom row
splits into C (first p columns) and D (last q columns).  The compact group
acts by the substitution

    f  ->  (det x)^{(p-q)/2} (det y)^{-(p-q)/2} f(tx A, x^{-1} B; y^{-1} C, ty D)

extended verbatim to invertible complex blocks, and the hyperbolic
one-parameter family acts by an explicit Gaussian integral transform in the
first row of variables.

Each monomial is one packed integer: the exponent of variable v in bits
[16v, 16v + 16), and above the (n+1)^2 variable fields one more field with
the total degree, so a monomial product is one integer add (Monagan & Pearce,
packed exponent vectors).  Degrees stop at 2^16 - 1; a product past that is
refused, never wrapped.

Each coefficient is exact, in the narrowest of ``int``, :class:`~arczeta.exact.QQi`
(Gaussian rationals) and :class:`~arczeta.exact.PiLaurent` (times integer powers
of pi) that holds it, or a float (complex).  Ints mix with either kind, so the
highest-weight vector, built on ints, serves both; a float meeting a QQi or a
PiLaurent raises ``TypeError``.  The scalars passed set the ring of a result:
the dtype of a :class:`~arczeta.group.CoverElement`'s blocks, and the hyperbolic
parameter as a float or an exact (cosh, sinh) pair.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import InvalidParameterError
from .exact import PiLaurent, QQi, leading_minors, power
from .group import b_t_cover, block_inverse, check_root_ratio
from .weights import Case, ThetaDatum, _as_fraction

__all__ = [
    "FockPoly",
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


# -- packed monomials ---------------------------------------------------------

_BITS = 16  # width of one exponent field: a 16-bit word, as _unpack reads it
_MASK = (1 << _BITS) - 1
_MAX_DEGREE = _MASK  # the degree field bounds every exponent field too


def _top(n: int) -> int:
    """Bit offset of the degree field, above the (n+1)^2 variable fields."""
    return _BITS * (n + 1) ** 2


def _exponents(n: int, *flat: int) -> int:
    """Packed key of the product of the variables with these flat indices."""
    unit = 1 << _top(n)
    return sum((1 << (_BITS * v)) + unit for v in flat)


def _pack(n: int, exps: tuple) -> int:
    """Packed key of an exponent tuple already checked against the field."""
    key = sum(exps) << _top(n)
    for v, e in enumerate(exps):
        key += e << (_BITS * v)
    return key


def _unpack(n: int, key: int) -> tuple:
    """Exponent tuple of a packed key, read as the key's 16-bit words."""
    nvars = (n + 1) ** 2
    return tuple(memoryview(key.to_bytes(2 * nvars + 2, sys.byteorder)).cast("H")[:nvars])


# -- coefficients --------------------------------------------------------------
# Scalars enter either ring through these helpers, and every sum of terms
# goes through one accumulator.

_EXACT = (int, QQi, PiLaurent)


def _coerce(c):
    """``c`` as a polynomial coefficient: an int, QQi or PiLaurent as given, a
    float as a Python complex, and any other rational as a QQi."""
    if type(c) in _EXACT:
        return c
    if isinstance(c, (float, complex)):
        return complex(c)
    return QQi.coerce(c)


def _pi_scalar(value, k: int):
    """``value * pi**k`` in the ring of ``value``: for a float, a float that
    divides by pi**-k when k < 0; for a rational, the narrow exact scalar for
    k == 0 and a PiLaurent of one power of pi otherwise."""
    if isinstance(value, (float, complex)):
        return value * math.pi**k if k >= 0 else value / math.pi**-k
    return PiLaurent.single(value, k) if k else _coerce(value)


def _collect(pairs) -> dict:
    """Sum ``(key, coefficient)`` pairs into a term table, in order,
    storing no zero coefficient."""
    out: dict[int, object] = {}
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


def _poly(n: int, terms: dict) -> "FockPoly":
    """A polynomial over an already clean table of packed keys."""
    res = FockPoly.__new__(FockPoly)
    res.n, res.terms = n, terms
    return res


class FockPoly:
    """Sparse polynomial in the (n+1)^2 matrix variables.

    ``terms`` maps packed monomial keys to nonzero coefficients, exact or float
    as the module docstring sets out.  The constructor takes exponent tuples;
    :meth:`items` reads them back.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[dict] = None):
        self.n = int(n)
        nvars = (n + 1) * (n + 1)
        pairs = []
        for exps, c in (terms or {}).items():
            try:
                exps = tuple(int(e) for e in exps)
            except TypeError:  # a packed key, say: only tuples come in
                raise InvalidParameterError(f"bad exponent vector {exps!r}") from None
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise InvalidParameterError(f"bad exponent vector {exps}")
            if sum(exps) > _MAX_DEGREE:
                raise InvalidParameterError(f"degree of {exps} is beyond the limit {_MAX_DEGREE}")
            pairs.append((_pack(self.n, exps), _coerce(c)))
        self.terms = _collect(pairs)

    def _with(self, terms: dict) -> "FockPoly":
        """A polynomial of this size over an already clean term table."""
        return _poly(self.n, terms)

    def items(self):
        """The (exponent tuple, coefficient) pairs, in term order."""
        return ((_unpack(self.n, e), c) for e, c in self.terms.items())

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "FockPoly":
        return _poly(int(n), {})

    @classmethod
    def one(cls, n: int) -> "FockPoly":
        return _poly(int(n), {0: 1})

    @classmethod
    def variable(cls, n: int, i: int, j: int) -> "FockPoly":
        return _poly(int(n), {_exponents(n, _var(n, i, j)): 1})

    # -- ring ops ------------------------------------------------------------
    def _check(self, other: "FockPoly"):
        if self.n != other.n:
            raise InvalidParameterError("polynomial size mismatch")

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
        degree = self.degree() + other.degree()
        if degree > _MAX_DEGREE:
            raise InvalidParameterError(f"product degree {degree} is beyond {_MAX_DEGREE}")
        out: dict[int, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
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
        scalar = _coerce(scalar)
        return self._with({e: c * scalar for e, c in self.terms.items()} if scalar else {})

    def __pow__(self, k: int) -> "FockPoly":
        if k < 0:
            raise InvalidParameterError("negative power of a polynomial")
        return power(self, k) if k else FockPoly.one(self.n)

    # -- queries -------------------------------------------------------------
    def degree(self) -> int:
        return max(self.terms) >> _top(self.n) if self.terms else 0

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, FockPoly) and self.n == other.n and self.terms == other.terms

    def __repr__(self):
        return f"FockPoly(n={self.n}, terms={len(self.terms)}, deg={self.degree()})"


class _Product(FockPoly):
    """A product of polynomial powers, multiplied out in order, that keeps
    its (factor, exponent) pairs, so that a substitution, a ring
    homomorphism, can act on the factors (:func:`_act`).  Equality and every
    operation read only the expanded terms."""

    __slots__ = ("factors",)

    def __init__(self, n: int, factors):
        self.n, self.factors = n, tuple(factors)
        self.terms = functools.reduce(operator.mul, (g**e for g, e in self.factors),
                                      FockPoly.one(n)).terms


# ---------------------------------------------------------------------------
# inner product and the basic Gaussian integral


def bargmann_inner(f: FockPoly, g: FockPoly):
    """Hermitian inner product; monomial z^a has squared norm a!/pi^|a|.

    The second argument is the conjugated one.  Each matching term is summed in
    the ring of c * conj(d): exact ones as c * conj(d) * a! per power of pi into
    one PiLaurent, its powers in the order a running sum would hold them; float
    ones into a complex number through log-gamma, which cannot overflow.  A
    float term makes the result complex, any exact part added as a complex, and
    so does a float coefficient when no term is nonzero.
    """
    if f.n != g.n:
        raise InvalidParameterError("mismatched variable counts")
    n, top = f.n, _top(f.n)
    acc = None  # the float sum, once a float term appears
    sums: dict[int, object] = {}  # power of pi -> exact coefficient
    for e, c in f.terms.items():
        d = g.terms.get(e)
        if d is None:
            continue
        x = c * d.conjugate()
        if type(x) not in _EXACT:
            log_fact = sum(math.lgamma(k + 1) for k in _unpack(n, e))
            acc = (acc or 0j) + x * math.exp(log_fact - (e >> top) * math.log(math.pi))
            continue
        x = x * math.prod(map(math.factorial, _unpack(n, e)))
        shift = -(e >> top)
        for k, v in x.terms.items() if type(x) is PiLaurent else ((0, x),):
            k += shift
            if k in sums:
                v = sums[k] + v
                if not v:  # a power that cancels and comes back moves to the end
                    del sums[k]
                    continue
            sums[k] = v
    if acc is not None:
        return acc + complex(PiLaurent(sums)) if sums else acc
    if not sums and any(type(c) not in _EXACT for c in (*f.terms.values(), *g.terms.values())):
        return 0j  # no float term matched, but the polynomials are floats
    return PiLaurent(sums)


# ---------------------------------------------------------------------------
# minors and highest-weight vectors


def minors(n: int, i: int) -> tuple[FockPoly, FockPoly]:
    """The leading principal i x i minor and its anti-corner companion
    (rows n-i+1..n, columns n-i+2..n+1)."""
    if not 1 <= i <= n:
        raise InvalidParameterError(f"minor index {i} out of range for n={n}")

    def det(rows, cols):
        return leading_minors([[FockPoly.variable(n, r, c) for c in cols] for r in rows])[-1]

    delta = det(range(1, i + 1), range(1, i + 1))
    delta_p = det(range(n - i + 1, n + 1), range(n - i + 2, n + 2))
    return delta, delta_p


def _minor_powers(theta: ThetaDatum) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The (i, e) powers of phi's leading i x i minors and of its anti-corner
    minors, zero powers left out: Case I raises the anti-corner minors to the
    alpha differences; Case II the leading minors to the beta differences and
    the anti-corner minors to the alpha differences."""
    data = (theta.gamma,) + theta.alphas + theta.betas
    if any(x.denominator != 1 for x in data):
        raise InvalidParameterError(
            "highest-weight vector needs integral classification data "
            "(parameter is in the flagged congruence class)"
        )

    def steps(parts):
        parts = [int(x) for x in parts] + [0]
        return [(i, parts[i - 1] - parts[i]) for i in range(1, len(parts))
                if parts[i - 1] != parts[i]]

    return steps(theta.betas), steps(theta.alphas)


def _hwv_factors(theta: ThetaDatum) -> list[tuple[FockPoly, int]]:
    """The (factor, exponent) pairs of phi: the minor powers of
    :func:`_minor_powers`, leading minors first, then z_{n+1,1}^gamma
    (Case I) or z_{n+1,p+1}^gamma (Case II) when gamma is nonzero."""
    n = theta.n
    leading, anti = _minor_powers(theta)
    factors = [(minors(n, i)[side], e)
               for side, powers in ((0, leading), (1, anti)) for i, e in powers]
    if theta.gamma:
        corner = 1 if theta.case is Case.I else theta.p + 1
        factors.append((FockPoly.variable(n, n + 1, corner), int(theta.gamma)))
    return factors


def harmonic_hwv(theta: ThetaDatum) -> FockPoly:
    """Joint highest-weight polynomial of the classified datum.

    The product of :func:`_hwv_factors`, multiplied out in their order and
    normalized with leading coefficient one; its int coefficients serve both
    rings.  The result keeps its factors, so :func:`omega_k` and
    :func:`omega_kprime` substitute the minors, not the expanded terms.
    """
    return _Product(theta.n, _hwv_factors(theta))


def hwv_norm2(theta: ThetaDatum) -> float:
    """Squared norm of the joint highest-weight vector, from its exact
    polynomial and the exact inner product."""
    phi = harmonic_hwv(theta)
    return complex(bargmann_inner(phi, phi)).real


def _substitute(f: FockPoly, images: dict[int, list[tuple[int, object]]]) -> FockPoly:
    """Substitute each variable by a linear form (list of (var, coeff))."""
    cache: dict[tuple[int, int], FockPoly] = {}

    def image_power(v: int, e: int) -> FockPoly:
        if (v, e) not in cache:
            lin = f._with(_collect((_exponents(f.n, w), _coerce(c)) for w, c in images[v]))
            cache[v, e] = lin**e
        return cache[v, e]

    one = FockPoly.one(f.n)
    pairs = []
    for exps, coeff in f.items():
        powers = [image_power(v, e) for v, e in enumerate(exps) if e]
        term = functools.reduce(operator.mul, powers) if powers else one
        pairs.extend((e, c * coeff) for e, c in term.terms.items())
    return f._with(_collect(pairs))


def _act(f: FockPoly, images: dict[int, list[tuple[int, object]]]) -> FockPoly:
    """:func:`_substitute` into ``f``, factor by factor when ``f`` keeps its
    factors: the substitution is a ring homomorphism, and a factor has far
    fewer terms than the product (a full-row minor maps to det times a
    minor, where its expanded powers leave rounding residues in floats)."""
    if not isinstance(f, _Product):
        return _substitute(f, images)
    return _Product(f.n, [(_substitute(g, images), e) for g, e in f.factors])


def _twist(f: FockPoly, ratio, k: int) -> FockPoly:
    """Scale by the carried root ratio to the det-twist power ``k``."""
    return f.scale(power(ratio, k)) if k else f


def omega_k(k, f: FockPoly, theta: ThetaDatum) -> FockPoly:
    """Substitution action of a (complexified) block-diagonal element.

    Blocks are split by the datum's (p, q): the first p columns pair with the
    transpose action, the rest with the inverse action, and the genuine det
    twist enters through the cover's root ratio to the power p - q.  On phi
    from :func:`harmonic_hwv` the substitution acts on its factors, each
    substituted once and raised to its power; any other polynomial is
    substituted term by term.
    """
    return _omega_k(k, k.inverse(), f, theta)


def _omega_k(k, inv, f: FockPoly, theta: ThetaDatum) -> FockPoly:
    """:func:`omega_k`, given ``inv``, the inverse of ``k``; the blocks are
    read as nested lists of Python scalars."""
    n, p = theta.n, theta.p
    xt, xi = k.block_n.T.tolist(), inv.block_n.tolist()
    y, yi, ratio = k.block_1, inv.block_1, k.zeta_ratio
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
    return _twist(_act(f, images), ratio, p - theta.q)


def omega_kprime(kp, f: FockPoly, theta: ThetaDatum) -> FockPoly:
    """Column-side substitution action of the partner compact group.

    Left action mirroring the row side: the U(p) factor acts on the first p
    columns by A -> A xp and C -> C t(xp)^{-1}, the U(q) factor on the rest by
    B -> B t(yq)^{-1} and D -> D yq, with det twists (n-1)/2 and -(n-1)/2
    consumed through the root ratio.  ``kp`` is a (xp, yq, ratio) triple with
    ratio**2 * det(yq) == det(xp), in the ring of the blocks' dtype as
    :class:`CoverElement` reads it; blocks in two rings are refused.
    """
    n, p, q = theta.n, theta.p, theta.q
    xp, yq_mat, ratio = kp
    xp, yq_mat = np.asarray(xp).reshape(p, p), np.asarray(yq_mat).reshape(q, q)
    if (xp.dtype == object) != (yq_mat.dtype == object):
        raise InvalidParameterError("partner blocks are in different rings")
    if xp.dtype != object:
        xp, yq_mat, ratio = xp.astype(complex), yq_mat.astype(complex), complex(ratio)
    check_root_ratio(ratio, leading_minors(yq_mat)[-1], leading_minors(xp)[-1])
    xi_p, yi = block_inverse(xp), block_inverse(yq_mat)
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
    return _twist(_act(f, images), ratio, n - 1)


# ---------------------------------------------------------------------------
# the hyperbolic transform


def _hyperbolic_scalars(t):
    """(cosh, tanh): floats of a float t, Fractions of an exact (ch, sh) tuple."""
    if not isinstance(t, tuple):
        return math.cosh(t), math.tanh(t)
    ch, sh = t
    ch, sh = _as_fraction(ch), _as_fraction(sh)
    if ch * ch - sh * sh != 1:
        raise InvalidParameterError("need cosh^2 - sinh^2 = 1 exactly")
    return ch, sh / ch


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
        n = self.n
        bil = _poly(n, {_exponents(n, _var(n, 1, j), _var(n, n + 1, j)): 1
                        for j in range(1, n + 2)})
        out = bil_m = FockPoly.one(n)
        for m in range(1, max_degree // 2 + 1):
            bil_m = bil_m * bil
            out = out + bil_m.scale(_pi_scalar(self.tanh**m / math.factorial(m), m))
        return out

    def pair_with(self, g: FockPoly):
        """Inner product of the full transformed vector against ``g``.

        The exponential tag is expanded only through deg(g); higher orders
        are orthogonal to ``g``.
        """
        full = self.exp_factor(g.degree()) * self.poly
        val = bargmann_inner(full, g)
        return self.prefactor * val


@functools.cache
def _corner_columns(n: int) -> tuple[tuple[int, int, int], ...]:
    """Per column j: the bit offsets of z_1j and z_(n+1)j, and the packed
    step that lowers both exponents (and the degree) by one; one table per n."""
    out = []
    for j in range(1, n + 2):
        v1, v2 = _var(n, 1, j), _var(n, n + 1, j)
        out.append((_BITS * v1, _BITS * v2, _exponents(n, v1, v2)))
    return tuple(out)


def omega_at(t, f: FockPoly) -> AtTransform:
    """Closed form of the hyperbolic action on a polynomial.

    ``t`` is a float, for float scalars, or an exact ``(cosh, sinh)`` tuple of
    rationals, for exact ones.  Derivation: substitute the first variable row
    by the integration row and the last row by its shifted image, then kill
    each integral by the one-variable Gaussian pairing
    int w^i wbar^l e^{pi c wbar} = i!/(i-l)! c^(i-l) / pi^l (zero for l > i);
    the middle rows ride along.
    """
    n = f.n
    ch, th = _hyperbolic_scalars(t)
    chinv = 1 / ch
    pairs = []
    for key, coeff in f.terms.items():
        # column j lowers the exponents of z_1j and z_(n+1)j together
        acc = [(key, coeff)]
        for s1, s2, step in _corner_columns(n):
            i_j, g_j = (key >> s1) & _MASK, (key >> s2) & _MASK
            scals = [_pi_scalar(math.comb(g_j, ell) * math.perm(i_j, ell) * (-th) ** ell
                                * chinv ** (i_j + g_j - 2 * ell), -ell)
                     for ell in range(min(i_j, g_j) + 1)]
            acc = [(cur - ell * step, cur_coeff * scal)
                   for cur, cur_coeff in acc for ell, scal in enumerate(scals)]
        pairs.extend(acc)
    return AtTransform(n=n, prefactor=_pi_scalar(chinv ** (n + 1), 0), tanh=th,
                       poly=f._with(_collect(pairs)))


def weil_transform_bruteforce(t, f: FockPoly) -> AtTransform:
    """Independent evaluation of the hyperbolic action straight from the
    integral kernel: the exponential is expanded multinomially per variable
    (middle rows one source, corner rows two sources including the joint
    antiholomorphic term) and each variable is integrated by monomial
    orthogonality.  Used as the oracle against :func:`omega_at`."""
    n = f.n
    ch, th = _hyperbolic_scalars(t)
    chinv = 1 / ch
    pairs = []
    for key, coeff in f.terms.items():
        # middle rows: single kernel source pi * z_rj wbar_rj; the expansion
        # order is forced to the monomial exponent and the integral returns
        # the same monomial.
        # corner columns: sources pi/ch * z_1j wbar_1j, pi/ch * z_(n+1)j
        # wbar_(n+1)j, and -pi*th * wbar_1j wbar_(n+1)j.
        items = [(key, coeff)]
        for s1, s2, step in _corner_columns(n):
            i_j, g_j = (key >> s1) & _MASK, (key >> s2) & _MASK
            scals = []
            for m in range(min(i_j, g_j) + 1):
                a, b = i_j - m, g_j - m
                # kernel coefficient: (pi/ch)^a/a! * (pi/ch)^b/b! *
                # (-pi th)^m/m!, integrals give i!/pi^i * g!/pi^g
                num = chinv ** (a + b) * (-th) ** m * Fraction(
                    math.factorial(i_j) * math.factorial(g_j),
                    math.factorial(a) * math.factorial(b) * math.factorial(m),
                )
                scals.append(_pi_scalar(num, (a + b + m) - i_j - g_j))
            items = [(e_cur - m * step, c_cur * scal)
                     for e_cur, c_cur in items for m, scal in enumerate(scals)]
        pairs.extend(items)
    # (det P)^(-1/2) with P = diag(ch,1,...,1,ch) tensor identity, det P = ch^(2(n+1))
    return AtTransform(n=n, prefactor=_pi_scalar(1 / ch ** (n + 1), 0), tanh=th,
                       poly=f._with(_collect(pairs)))


# ---------------------------------------------------------------------------
# matrix coefficients of the compact action


def omega_matcoef(kp, t, k, theta: ThetaDatum, phi: Optional[FockPoly] = None):
    """<omega(k' a_t k) phi, phi> by the substitution route.

    The hyperbolic element contributes the scalar (cosh t)^{-(n+1)} and the
    diagonal companion (or its inverse in Case II) sandwiched between the two
    unitaries; root ratios multiply along the composition.  The covers and
    ``t`` set the ring; the default ``phi``, on ints, serves both.
    """
    n = theta.n
    if phi is None:
        phi = harmonic_hwv(theta)
    ch, _ = _hyperbolic_scalars(t)
    mid = b_t_cover(ch, n)
    el = kp.compose(mid.inverse() if theta.case is Case.II else mid).compose(k)
    return _pi_scalar(ch ** -(n + 1), 0) * bargmann_inner(omega_k(el, phi, theta), phi)


def omega_matcoef_transform_route(kp, t, k, theta: ThetaDatum, phi: Optional[FockPoly] = None):
    """<omega(k' a_t k) phi, phi> through the hyperbolic integral transform.

    Independent of :func:`omega_matcoef`: uses unitarity to move k' to the
    right, applies the transform to omega(k) phi, and pairs with the
    exponential tag truncated at the relevant degree.
    """
    if phi is None:
        phi = harmonic_hwv(theta)
    f = omega_k(k, phi, theta)
    g = _omega_k(kp.inverse(), kp, phi, theta)  # k' is its inverse's inverse
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
    n = poly.n
    shifts = [(_BITS * dst, _exponents(n, src) - _exponents(n, dst), sign)
              for src, dst, sign in moves]
    pairs = []
    for key, coeff in poly.terms.items():
        for shift, move, sign in shifts:
            e = (key >> shift) & _MASK
            if e:
                pairs.append((key + move, coeff * (sign * e)))
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
    for exps, _ in phi.items():
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

    Setup collects one exponent per D_k; evaluation takes every D_k from one
    division-free expansion (:func:`~arczeta.exact.leading_minors`) of the
    batch-last leading block and forms no inverse.
    """

    def __init__(self, theta: ThetaDatum):
        n = theta.n
        self.phi_norm2 = complex(hwv_norm2(theta))
        self._ratio_exp = theta.p - theta.q
        self._y_exp = -int(theta.gamma) if theta.case is Case.I else int(theta.gamma)
        leading, anti = _minor_powers(theta)
        exps = [0] * (n + 1)  # exponent of D_k, k = 0..n
        for i, e in leading:
            exps[i] += e
        for i, e in anti:
            exps[n - i] += e
            exps[n] -= e
        self._minor_exps = [(k, e) for k, e in enumerate(exps) if k and e]

    def evaluate(self, block_n: np.ndarray, block_1: np.ndarray, ratio: np.ndarray) -> np.ndarray:
        """Batched evaluation; block_n is batch-last (n, n, N), block_1 and
        ratio (N,)."""
        out = self.phi_norm2 * power(block_1, self._y_exp)
        if self._minor_exps:
            kmax = self._minor_exps[-1][0]
            lead = leading_minors(block_n[:kmax, :kmax])
            for k, e in self._minor_exps:
                out = out * power(lead[k - 1], e)
        if self._ratio_exp:
            out = out * power(ratio, self._ratio_exp)
        return out
