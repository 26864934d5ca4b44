"""Matrix structure of the rank-one indefinite unitary group.

Conventions: the group preserves the form diag(1,...,1,-1); the bounded
realization is the complex unit ball (column vectors of length n); the
polar-type factorization writes every element as a positive-definite factor
parametrized by a ball point times a block-diagonal unitary.

All distinguished elements (the hyperbolic one-parameter family and its
triangular-factor companions) are built here, both as full matrices and as
block-diagonal cover elements carrying chosen square roots of the block
determinants.
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
    "theta_t",
    "b_t",
    "theta_z",
    "b_z",
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

    @property
    def radius(self) -> float:
        return float(np.linalg.norm(self.z))


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

    def flip_n(self) -> "CoverElement":
        return CoverElement(self.block_n, self.block_1, -self.zeta_n, self.zeta_1)

    def flip_both(self) -> "CoverElement":
        return CoverElement(self.block_n, self.block_1, -self.zeta_n, -self.zeta_1)

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


def theta_t(t: float, n: int) -> np.ndarray:
    """Diagonal factor of the triangular decomposition of ``a_t``."""
    d = np.ones(n + 1, dtype=complex)
    d[0] = 1.0 / math.cosh(t)
    d[n] = math.cosh(t)
    return np.diag(d)


def b_t(t: float, n: int) -> np.ndarray:
    """Companion diagonal element diag(cosh t, 1, ..., 1, cosh t)."""
    d = np.ones(n + 1, dtype=complex)
    d[0] = d[n] = math.cosh(t)
    return np.diag(d)


def theta_t_cover(t: float, n: int) -> CoverElement:
    return CoverElement.from_blocks(theta_t(t, n)[:n, :n], math.cosh(t))


def b_t_cover(t: float, n: int) -> CoverElement:
    return CoverElement.from_blocks(b_t(t, n)[:n, :n], math.cosh(t))


def _check_interior(z: np.ndarray) -> tuple[np.ndarray, float]:
    z = np.asarray(z, dtype=complex).reshape(-1)
    r = float(np.linalg.norm(z))
    if r > BOUNDARY_CUTOFF:
        raise BoundaryError(f"|z| = {r} too close to the boundary for stable evaluation")
    return z, r


def _rank_one_power(z: np.ndarray, exponent: float) -> np.ndarray:
    """(1 - z z*)**exponent for a column z, via the rank-one eigenstructure."""
    n = z.shape[0]
    u2 = float(np.real(np.vdot(z, z)))
    if u2 == 0.0:
        return np.eye(n, dtype=complex)
    u = z / math.sqrt(u2)
    return np.eye(n, dtype=complex) + ((1.0 - u2) ** exponent - 1.0) * np.outer(u, u.conj())


def h_from_z(z) -> GroupElement:
    """Positive-definite group element attached to a ball point."""
    if isinstance(z, DomainPoint):
        z = z.z
    z, r = _check_interior(z)
    n = z.shape[0]
    ch = 1.0 / math.sqrt(1.0 - r * r)
    m = np.zeros((n + 1, n + 1), dtype=complex)
    m[:n, :n] = _rank_one_power(z, -0.5)
    m[:n, n] = z * ch
    m[n, :n] = z.conj() * ch
    m[n, n] = ch
    return GroupElement(m)


def theta_z(z) -> np.ndarray:
    """diag((1 - z z*)**(1/2), (1 - z* z)**(-1/2))."""
    if isinstance(z, DomainPoint):
        z = z.z
    z, r = _check_interior(z)
    n = z.shape[0]
    m = np.zeros((n + 1, n + 1), dtype=complex)
    m[:n, :n] = _rank_one_power(z, 0.5)
    m[n, n] = 1.0 / math.sqrt(1.0 - r * r)
    return m


def b_z(z) -> np.ndarray:
    """diag((1 - z z*)**(-1/2), (1 - z* z)**(-1/2))."""
    if isinstance(z, DomainPoint):
        z = z.z
    z, r = _check_interior(z)
    n = z.shape[0]
    m = np.zeros((n + 1, n + 1), dtype=complex)
    m[:n, :n] = _rank_one_power(z, -0.5)
    m[n, n] = 1.0 / math.sqrt(1.0 - r * r)
    return m


def theta_z_cover(z) -> CoverElement:
    m = theta_z(z)
    n = m.shape[0] - 1
    return CoverElement.from_blocks(m[:n, :n], m[n, n])


def b_z_cover(z, sign: int = +1) -> CoverElement:
    m = b_z(z)
    n = m.shape[0] - 1
    cov = CoverElement.from_blocks(m[:n, :n], m[n, n])
    return cov if sign == +1 else cov.inverse()


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
    """Haar-distributed unitaries via complex Gaussian + QR with the diagonal
    phase correction (so the law is exactly invariant, not QR-convention
    biased).  ``size=None`` returns one matrix, otherwise shape (size, m, m).
    """
    if m < 1:
        raise InvalidParameterError("need m >= 1")
    shape = (m, m) if size is None else (size, m, m)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[..., None, :]
    return q


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
