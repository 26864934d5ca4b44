"""Matrix structure of the rank-one indefinite unitary group.

Conventions: the group preserves the form diag(1,...,1,-1); the bounded
realization is the complex unit ball (column vectors of length n); the
polar-type factorization writes every element as a positive-definite factor
parametrized by a ball point times a block-diagonal unitary.

The hyperbolic one-parameter family is built here as a full matrix; its
triangular-factor companions and the factors of a ball point are built by one
rank-one builder as block-diagonal cover elements carrying positive square
roots of the block determinants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BoundaryError, ConvergenceError, InvalidParameterError

__all__ = [
    "GroupElement",
    "DomainPoint",
    "CoverElement",
    "signature_form",
    "h_from_z",
    "cartan_decompose",
    "a_t",
    "theta_t_cover",
    "b_t_cover",
    "theta_z_cover",
    "b_z_cover",
    "haar_unitary",
    "unitary_completion",
    "sample_ball",
    "sample_domain",
    "weighted_ball_volume",
    "random_group_element",
    "cpow_int",
]

FORM_TOL = 1e-10
ZETA_TOL = 1e-12
BOUNDARY_CUTOFF = 1.0 - 1e-8


def cpow_int(z, k: int):
    """Integer power by binary exponentiation (exact sign behavior under
    negation of the base, needed for bit-level root-flip invariance)."""
    if k == 0:
        return np.ones_like(z) if isinstance(z, np.ndarray) else 1.0 + 0j
    base = z if k > 0 else 1.0 / z
    k = abs(k)
    result = None
    while k:
        if k & 1:
            result = base if result is None else result * base
        base = base * base
        k >>= 1
    return result


def signature_form(n: int) -> np.ndarray:
    j = np.eye(n + 1)
    j[n, n] = -1.0
    return j


@dataclass(frozen=True)
class GroupElement:
    """Matrix preserving the signature form, checked on construction."""

    matrix: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", g)
        m = g.shape[0]
        if g.shape != (m, m) or m < 2:
            raise InvalidParameterError(f"expected square matrix of size >= 2, got {g.shape}")
        j = signature_form(m - 1)
        err = np.max(np.abs(g.conj().T @ j @ g - j))
        if err > FORM_TOL:
            raise InvalidParameterError(f"matrix does not preserve the form (err={err:.2e})")

    @property
    def n(self) -> int:
        return self.matrix.shape[0] - 1


@dataclass(frozen=True)
class DomainPoint:
    """Point of the unit ball (column vector of length n)."""

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex).reshape(-1)
        object.__setattr__(self, "z", z)
        if np.linalg.norm(z) >= 1.0:
            raise InvalidParameterError("point must satisfy |z| < 1")

    @property
    def n(self) -> int:
        return self.z.shape[0]


def _principal_root(det: complex) -> complex:
    return np.sqrt(abs(det)) * np.exp(0.5j * np.angle(det))


@dataclass(frozen=True)
class CoverElement:
    """Block-diagonal complexified element with chosen roots of block dets.

    zeta_n**2 == det(block_n) and zeta_1**2 == block_1 to tolerance; the two
    roots can be flipped independently, and every genuine quantity in the
    package depends only on the ratio zeta_n/zeta_1.
    """

    block_n: np.ndarray
    block_1: complex
    zeta_n: complex
    zeta_1: complex

    def __post_init__(self):
        bn = np.asarray(self.block_n, dtype=complex)
        object.__setattr__(self, "block_n", bn)
        object.__setattr__(self, "block_1", complex(self.block_1))
        dn = np.linalg.det(bn)
        if abs(dn) == 0 or self.block_1 == 0:
            raise InvalidParameterError("cover blocks must be invertible")
        if abs(self.zeta_n**2 - dn) > ZETA_TOL * max(1.0, abs(dn)):
            raise InvalidParameterError("zeta_n**2 != det(block_n)")
        if abs(self.zeta_1**2 - self.block_1) > ZETA_TOL * max(1.0, abs(self.block_1)):
            raise InvalidParameterError("zeta_1**2 != block_1")

    @classmethod
    def from_blocks(cls, block_n, block_1) -> "CoverElement":
        """Principal-branch roots."""
        bn = np.asarray(block_n, dtype=complex)
        return cls(bn, complex(block_1), _principal_root(np.linalg.det(bn)),
                   _principal_root(complex(block_1)))

    @classmethod
    def identity(cls, n: int) -> "CoverElement":
        return cls(np.eye(n, dtype=complex), 1.0 + 0j, 1.0 + 0j, 1.0 + 0j)

    @property
    def n(self) -> int:
        return self.block_n.shape[0]

    @property
    def zeta_ratio(self) -> complex:
        return self.zeta_n / self.zeta_1

    def compose(self, other: "CoverElement") -> "CoverElement":
        """Product with multiplicative root threading."""
        return CoverElement(
            self.block_n @ other.block_n,
            self.block_1 * other.block_1,
            self.zeta_n * other.zeta_n,
            self.zeta_1 * other.zeta_1,
        )

    def inverse(self) -> "CoverElement":
        return CoverElement(
            np.linalg.inv(self.block_n),
            1.0 / self.block_1,
            1.0 / self.zeta_n,
            1.0 / self.zeta_1,
        )

    def embed(self) -> np.ndarray:
        """Full (n+1) x (n+1) block-diagonal matrix."""
        m = np.zeros((self.n + 1, self.n + 1), dtype=complex)
        m[: self.n, : self.n] = self.block_n
        m[self.n, self.n] = self.block_1
        return m


# ---------------------------------------------------------------------------
# distinguished elements


def a_t(t: float, n: int) -> np.ndarray:
    """Hyperbolic one-parameter element (cosh/sinh corners, identity middle)."""
    m = np.eye(n + 1, dtype=complex)
    m[0, 0] = m[n, n] = math.cosh(t)
    m[0, n] = m[n, 0] = math.sinh(t)
    return m


def _ball_cover(d: np.ndarray, gram: float, power: float) -> CoverElement:
    """The block-diagonal factor diag(I + (gram**power - 1) d d*, gram**(-1/2))
    of a ball point z = |z| d with gram = 1 - |z|**2, and its positive roots.

    The n-block is (1 - z z*)**power: z z* has the single eigenvalue |z|**2 on
    the unit direction d, so its determinant is gram**power.  Power 1/2 gives
    theta_z and power -1/2 gives b_z.
    """
    scale = gram**power
    block_n = np.eye(d.shape[0], dtype=complex) + (scale - 1.0) * np.outer(d, d.conj())
    return CoverElement(block_n, gram**-0.5, math.sqrt(scale), gram**-0.25)


def _hyperbolic_cover(t: float, n: int, power: float) -> CoverElement:
    """The ball block at d = e_1 with 1 - |z|**2 = sech(t)**2 taken from cosh t,
    not recomputed through tanh t."""
    return _ball_cover(np.eye(n, dtype=complex)[0], math.cosh(t) ** -2, power)


def theta_t_cover(t: float, n: int) -> CoverElement:
    """Diagonal factor diag(sech t, 1, ..., 1, cosh t) of the triangular
    decomposition of ``a_t``."""
    return _hyperbolic_cover(t, n, 0.5)


def b_t_cover(t: float, n: int) -> CoverElement:
    """Companion diagonal element diag(cosh t, 1, ..., 1, cosh t)."""
    return _hyperbolic_cover(t, n, -0.5)


def _ball_point(z) -> tuple[np.ndarray, float]:
    """Direction and 1 - |z|**2 of an interior ball point."""
    if isinstance(z, DomainPoint):
        z = z.z
    z = np.asarray(z, dtype=complex).reshape(-1)
    r = float(np.linalg.norm(z))
    if r > BOUNDARY_CUTOFF:
        raise BoundaryError(f"|z| = {r} too close to the boundary for stable evaluation")
    u2 = float(np.real(np.vdot(z, z)))
    return (z / math.sqrt(u2) if u2 else z), 1.0 - u2


def h_from_z(z) -> GroupElement:
    """Positive-definite group element attached to a ball point."""
    if isinstance(z, DomainPoint):
        z = z.z
    z = np.asarray(z, dtype=complex).reshape(-1)
    block_n = b_z_cover(z).block_n
    n, r = z.shape[0], float(np.linalg.norm(z))
    ch = 1.0 / math.sqrt(1.0 - r * r)
    m = np.zeros((n + 1, n + 1), dtype=complex)
    m[:n, :n] = block_n
    m[:n, n] = z * ch
    m[n, :n] = z.conj() * ch
    m[n, n] = ch
    return GroupElement(m)


def theta_z_cover(z) -> CoverElement:
    """diag((1 - z z*)**(1/2), (1 - z* z)**(-1/2))."""
    return _ball_cover(*_ball_point(z), 0.5)


def b_z_cover(z) -> CoverElement:
    """diag((1 - z z*)**(-1/2), (1 - z* z)**(-1/2))."""
    return _ball_cover(*_ball_point(z), -0.5)


def unitary_completion(u: np.ndarray) -> np.ndarray:
    """A unitary matrix whose first column is the given unit vector."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    n = u.shape[0]
    basis = np.eye(n, dtype=complex)
    basis[:, 0] = u
    q, r = np.linalg.qr(basis)
    q[:, 0] = u  # QR fixes the first column only up to phase
    for j in range(1, n):  # canonical phases: real positive diagonal
        d = q[j, j]
        if abs(d) > 1e-12:
            q[:, j] *= d.conjugate() / abs(d)
    return q


def cartan_decompose(g) -> tuple[DomainPoint, float, CoverElement, CoverElement]:
    """Factor g = h_z * k with h_z positive definite in the group and k
    block-diagonal unitary; also return t and a block rotation k_z with
    h_z = k_z a_t k_z^{-1}.

    Raises :class:`BoundaryError` when the recovered point is too close to
    the boundary for the inverse square roots to be trustworthy.
    """
    if isinstance(g, GroupElement):
        gm = g.matrix
    else:
        gm = GroupElement(np.asarray(g, dtype=complex)).matrix
    n = gm.shape[0] - 1
    gg = gm @ gm.conj().T
    w, v = np.linalg.eigh(gg)
    if w.min() <= 0:
        raise BoundaryError("positive part degenerate; element too close to the boundary")
    h = (v * np.sqrt(w)) @ v.conj().T
    k = np.linalg.solve(h, gm)
    z = h[:n, n] / h[n, n]
    r = float(np.linalg.norm(z))
    if r > BOUNDARY_CUTOFF:
        raise BoundaryError(f"recovered |z| = {r} beyond the interior cutoff")
    point = DomainPoint(z)
    t = math.atanh(r)
    if r > 0:
        x = unitary_completion(z / r)
    else:
        x = np.eye(n, dtype=complex)
    k_z = CoverElement.from_blocks(x, 1.0 + 0j)
    off = max(np.max(np.abs(k[:n, n])), np.max(np.abs(k[n, :n])))
    if off > FORM_TOL * 10:
        raise InvalidParameterError(f"unitary factor not block diagonal (off={off:.2e})")
    k_cov = CoverElement.from_blocks(k[:n, :n], k[n, n])
    return point, t, k_z, k_cov


def haar_unitary(m: int, rng: np.random.Generator, size: Optional[int] = None):
    """Haar-distributed unitaries: the Q factor of a complex Ginibre matrix
    A = QR whose R has a positive real diagonal.  ``size=None`` returns one
    matrix, otherwise shape (size, m, m).

    The Ginibre law is invariant under left multiplication by U(m), and so is
    the law of Q once the factorization is made unique by fixing the phases
    of R's diagonal; with positive diagonal entries Q is Haar distributed
    (Mezzadri, "How to generate random matrices from the classical compact
    groups", *Notices AMS* 54, 2007).  Classical Gram-Schmidt yields exactly
    that factor: each column, stripped of its projections on the earlier
    ones, is divided by its norm, the positive diagonal entry of R.  One pass
    loses orthogonality in proportion to cond(A)**2 times the unit roundoff;
    a second pass over the same column restores it to working precision
    ("twice is enough": Giraud, Langou & Rozloznik, *Comput. Math. Appl.* 50,
    2005).

    The Ginibre entries are drawn in one (size, m, m) order, real parts then
    imaginary parts, and orthonormalized on a (column, row, batch) copy, so
    every step is an elementwise operation over the batch.
    """
    if m < 1:
        raise InvalidParameterError("need m >= 1")
    shape = (1 if size is None else size, m, m)
    re, im = rng.standard_normal(shape), rng.standard_normal(shape)
    q = np.empty(shape[::-1], dtype=complex)  # q[column, row, batch]
    q.real, q.imag = re.T, im.T
    for j in range(m):
        col, done = q[j], q[:j]
        for _ in range(2 if j else 0):
            col -= (done * (done.conj() * col).sum(axis=1)[:, None]).sum(axis=0)
        col /= np.sqrt((col.real**2 + col.imag**2).sum(axis=0))
    return q.T[0] if size is None else q.T


def random_group_element(n: int, rng: np.random.Generator, rmax: float = 0.9) -> GroupElement:
    """Random element synthesized from the polar parametrization (exact
    membership by construction)."""
    direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    z = direction * rng.uniform(0.0, rmax)
    x = haar_unitary(n, rng)
    y = np.exp(2j * np.pi * rng.uniform())
    k = np.zeros((n + 1, n + 1), dtype=complex)
    k[:n, :n] = x
    k[n, n] = y
    return GroupElement(h_from_z(z).matrix @ k)


def weighted_ball_volume(m: int, e: float) -> float:
    """integral over the complex m-ball of (1 - |z|^2)**e (Lebesgue measure);
    also the reciprocal normalization of the matched radial density."""
    from scipy.special import betaln, gammaln

    return math.exp(m * math.log(math.pi) + betaln(m, e + 1.0) - gammaln(m))


def sample_ball(m: int, exponent: float, rng: np.random.Generator, size: int):
    """Squared radii u ~ Beta(m, exponent + 1) and unit complex directions
    (size, m): the complex m-ball drawn with density (1 - |z|^2)**exponent.
    Keep u where 1 - |z|^2 matters: recomputed from a point, it rounds near the
    boundary."""
    u = rng.beta(m, exponent + 1.0, size=size)
    directions = rng.standard_normal((size, m)) + 1j * rng.standard_normal((size, m))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return u, directions


def sample_domain(p: int, q: int, weight_exponent: float, rng: np.random.Generator, size: int):
    """Sample the (p, q) matrix ball with a constant importance weight.

    Contract: ``mean(w * f(z))`` estimates
    ``integral_D f(z) det(1 - z z*)**weight_exponent dz`` (Lebesgue measure),
    with ``w`` one float.

    Hua's polar reduction draws the ball as m = min(p, q) nested rank-one
    balls: splitting off the first column, Z = [z_1 | S_1 W] with
    S_1 = (1 - z_1 z_1*)**(1/2) turns det(1 - Z Z*)**e dZ into
    (1 - |z_1|^2)**(e + m - 1) dz_1 * det(1 - W W*)**e dW.  So column j of the
    max(p, q) x m matrix is S_1 ... S_(j-1) v_j with v_j drawn by
    :func:`sample_ball` at exponent e + m - j, and the weight is the product
    of the matched radial normalizations.  The matrix is transposed when
    p < q.  For m == 1 this is one :func:`sample_ball` call.
    """
    if weight_exponent <= -1.0:
        raise ConvergenceError(
            f"non-integrable determinant exponent {weight_exponent} (needs > -1)"
        )
    m, big = min(p, q), max(p, q)
    z = np.empty((size, big, m), dtype=complex)
    roots = []  # (1 - sqrt(1 - u_k), d_k) of each S_k drawn so far
    weight = 1.0
    for j in range(m):
        exponent = weight_exponent + m - 1 - j
        u, direction = sample_ball(big, exponent, rng, size)
        col = np.sqrt(u)[:, None] * direction
        for shrink, d in reversed(roots):  # S_(j-1) first, S_1 last
            col = col - (shrink * np.einsum("ni,ni->n", d.conj(), col))[:, None] * d
        z[:, :, j] = col
        roots.append((1.0 - np.sqrt(1.0 - u), direction))
        weight *= weighted_ball_volume(big, exponent)
    return (z if q <= p else z.transpose(0, 2, 1)), weight
