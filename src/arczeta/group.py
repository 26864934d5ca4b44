"""Matrix structure of the rank-one indefinite unitary group.

Conventions: the group preserves the form diag(1,...,1,-1); the bounded
realization is the complex unit ball (column vectors of length n); the
polar-type factorization writes every element as a positive-definite factor
parametrized by a ball point times a block-diagonal unitary.

The hyperbolic one-parameter family is built here as a full matrix; its
triangular factor theta_t and the factors of a ball point are built by one
rank-one builder as block-diagonal cover elements carrying the ratio of the
positive square roots of their block determinants.  One cover element holds
both rings: complex floats, and Gaussian rationals for the exact matrix
coefficients, where the companion b_t is built from an exact cosh.

Haar unitaries are drawn as batch-last matrices, or, where only a class
function is needed, as characteristic polynomials from their Verblunsky
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import BoundaryError, ConvergenceError, InvalidParameterError
from .exact import QQi, exact_inverse, leading_minors

__all__ = [
    "GroupElement",
    "CoverElement",
    "check_root_ratio",
    "block_inverse",
    "signature_form",
    "h_from_z",
    "cartan_decompose",
    "a_t",
    "theta_t_cover",
    "b_t_cover",
    "theta_z_cover",
    "b_z_cover",
    "haar_unitary",
    "haar_char_rows",
    "unitary_completion",
    "sample_ball",
    "sample_domain",
    "weighted_ball_volume",
    "random_group_element",
]

FORM_TOL = 1e-10
ZETA_TOL = 1e-12
BOUNDARY_CUTOFF = 1.0 - 1e-8
# batch block of the elementwise Monte Carlo passes: at m = 3 an (m, m) block
# of 8,192 complex matrices is 1.2 MB, inside the 2 MB per-core L2 of the
# 2-core Xeon it was measured on (4,096 and 16,384 were slower)
_BLOCK = 8_192


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


def _principal_root(det: complex) -> complex:
    return np.sqrt(abs(det)) * np.exp(0.5j * np.angle(det))


def block_inverse(block: np.ndarray) -> np.ndarray:
    """Inverse of a square block in its ring: Gauss-Jordan over Gaussian
    rationals for an object array, LAPACK for a complex one."""
    if block.dtype == object:
        return np.array(exact_inverse(block.tolist()), dtype=object).reshape(block.shape)
    return np.linalg.inv(block)


def check_root_ratio(ratio, det_second, det_first) -> None:
    """Refuse a root ratio unless ratio**2 * det_second == det_first: to
    ``ZETA_TOL`` relative when their difference is a float, exactly otherwise."""
    miss = ratio * ratio * det_second - det_first
    if (abs(miss) > ZETA_TOL * max(1.0, abs(det_first))
            if isinstance(miss, (float, complex, np.inexact)) else miss != 0):
        raise InvalidParameterError("root ratio**2 * det(second block) != det(first block)")


@dataclass(frozen=True)
class CoverElement:
    """Block-diagonal complexified element of the double cover.

    The lowest K-types are genuine characters of the cover with opposite
    half-integral det twists, so every value in the package depends on the
    chosen roots of det(block_n) and block_1 only through their ratio, and
    only the ratio is carried: zeta_ratio**2 * block_1 == det(block_n).  The
    ratio stays rational where the single roots do not (the hyperbolic
    companion has two equal block determinants).

    The ring is read from block_n: a complex array holds floats, an object
    array :class:`~arczeta.exact.QQi` entries; see :func:`check_root_ratio`.
    """

    block_n: np.ndarray
    block_1: complex | QQi
    zeta_ratio: complex | QQi

    def __post_init__(self):
        bn = np.asarray(self.block_n)
        exact = bn.dtype == object
        ring = QQi.coerce if exact else complex
        bn = np.vectorize(ring, otypes=[object])(bn) if exact else np.asarray(bn, dtype=complex)
        y, ratio = ring(self.block_1), ring(self.zeta_ratio)
        object.__setattr__(self, "block_n", bn)
        object.__setattr__(self, "block_1", y)
        object.__setattr__(self, "zeta_ratio", ratio)
        dn = leading_minors(bn)[-1]
        if not dn or not y:
            raise InvalidParameterError("cover blocks must be invertible")
        check_root_ratio(ratio, y, dn)

    @classmethod
    def from_blocks(cls, block_n, block_1) -> "CoverElement":
        """Float blocks with the ratio of the principal roots."""
        bn = np.asarray(block_n, dtype=complex)
        return cls(bn, block_1, _principal_root(np.linalg.det(bn))
                   / _principal_root(complex(block_1)))

    @property
    def n(self) -> int:
        return self.block_n.shape[0]

    def compose(self, other: "CoverElement") -> "CoverElement":
        """Product; the root ratios multiply."""
        return CoverElement(self.block_n @ other.block_n, self.block_1 * other.block_1,
                            self.zeta_ratio * other.zeta_ratio)

    def inverse(self) -> "CoverElement":
        return CoverElement(block_inverse(self.block_n), 1 / self.block_1, 1 / self.zeta_ratio)


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
    return CoverElement(block_n, gram**-0.5, math.sqrt(scale) / gram**-0.25)


def theta_t_cover(t: float, n: int) -> CoverElement:
    """Diagonal factor diag(sech t, 1, ..., 1, cosh t) of the triangular
    decomposition of ``a_t``: the ball block at d = e_1 with
    1 - |z|**2 = sech(t)**2 taken from cosh t, not recomputed through tanh t."""
    return _ball_cover(np.eye(n, dtype=complex)[0], math.cosh(t) ** -2, 0.5)


def b_t_cover(ch, n: int) -> CoverElement:
    """Companion diagonal element diag(ch, 1, ..., 1, ch) at ch = cosh t.  Its
    two block determinants are both ch, so the root ratio is one.  A Fraction
    ch gives the exact ring, a float the float ring."""
    block_n = np.eye(n, dtype=object if isinstance(ch, Fraction) else complex)
    block_n[0, 0] = ch
    return CoverElement(block_n, ch, 1)


def _ball_point(z) -> tuple[np.ndarray, float]:
    """Direction and 1 - |z|**2 of an interior ball point."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    r = float(np.linalg.norm(z))
    if r > BOUNDARY_CUTOFF:
        raise BoundaryError(f"|z| = {r} too close to the boundary for stable evaluation")
    u2 = float(np.real(np.vdot(z, z)))
    return (z / math.sqrt(u2) if u2 else z), 1.0 - u2


def h_from_z(z) -> GroupElement:
    """Positive-definite group element attached to a ball point."""
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


def cartan_decompose(g) -> tuple[np.ndarray, float, CoverElement, CoverElement]:
    """Factor g = h_z * k with h_z positive definite in the group and k
    block-diagonal unitary; also return t and a block rotation k_z with
    h_z = k_z a_t k_z^{-1}.

    Both factors are in closed form.  k = diag(x, y) maps the last basis
    vector to y times itself, so the last column of g is y times that of h_z,
    y cosh(t) (z, 1), and z = g[:n, n] / g[n, n].  h_z is Hermitian and
    preserves the form J, so h_z^{-1} = J h_z J and k = J h_z J g.

    Raises :class:`BoundaryError`, from :func:`h_from_z`, when the recovered
    point is too close to the boundary for stable evaluation.
    """
    gm = (g if isinstance(g, GroupElement) else GroupElement(g)).matrix
    n = gm.shape[0] - 1
    z = gm[:n, n] / gm[n, n]
    j = signature_form(n)
    k = j @ h_from_z(z).matrix @ j @ gm
    r = float(np.linalg.norm(z))
    t = math.atanh(r)
    x = unitary_completion(z / r) if r > 0 else np.eye(n, dtype=complex)
    k_z = CoverElement.from_blocks(x, 1.0 + 0j)
    off = max(np.max(np.abs(k[:n, n])), np.max(np.abs(k[n, :n])))
    if off > FORM_TOL * 10:
        raise InvalidParameterError(f"unitary factor not block diagonal (off={off:.2e})")
    k_cov = CoverElement.from_blocks(k[:n, :n], k[n, n])
    return z, t, k_z, k_cov


def _blocks(size: int):
    """Consecutive slices of ``_BLOCK`` samples that cover a batch, the last
    one holding the rest.  A rest of one sample joins the block before it:
    numpy reduces an (m, m, 1) block along its matrix axis, pairwise from
    m = 4 on, where a longer block adds the same terms in order."""
    start = 0
    while size - start > _BLOCK + 1:
        yield slice(start, start + _BLOCK)
        start += _BLOCK
    yield slice(start, size)


def haar_unitary(m: int, rng: np.random.Generator, size: Optional[int] = None):
    """Haar-distributed unitaries: the Q factor of a complex Ginibre matrix
    A = QR whose R has a positive real diagonal.  ``size=None`` returns one
    (m, m) matrix, otherwise a batch-last (row, col, size) array: entry
    (i, j) of the whole batch is the contiguous vector ``q[i, j]``, so the
    Monte Carlo chunks work on it with elementwise operations.

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
    every step is an elementwise operation over the batch; the batch-last
    result is a view of that copy.  The copy is filled and orthonormalized
    one block of ``_BLOCK`` matrices at a time, so each pass reads an
    L2-sized block instead of streaming the whole batch from memory; every
    step is elementwise over the batch, so the blocks change no bit.

    The callers that need the matrix itself, not only a class function of it,
    draw here: the zeta chunk (its psi block and matrix coefficient act on x),
    ``verify_prop61`` (its cover elements) and :func:`random_group_element`.
    A class function needs only the characteristic polynomial, which
    :func:`haar_char_rows` draws without the matrix.
    """
    if m < 1:
        raise InvalidParameterError("need m >= 1")
    shape = (1 if size is None else size, m, m)
    re, im = rng.standard_normal(shape), rng.standard_normal(shape)
    q = np.empty(shape[::-1], dtype=complex)  # q[column, row, batch]
    for b in _blocks(shape[0]):
        qb = q[:, :, b]
        qb.real, qb.imag = re[b].T, im[b].T
        for j in range(m):
            col = qb[j]
            if j:
                done = qb[:j]
                done_conj = done.conj()
                for _ in range(2):
                    col -= np.add.reduce(done * np.add.reduce(done_conj * col, 1)[:, None])
            # np.add.reduce skips .sum's Python wrapper, a microsecond per call on
            # one draw; numpy divides complex by real as a complex division whose
            # bits are those of this multiply by the reciprocal, at four times its cost
            col *= np.reciprocal(np.sqrt(np.add.reduce(col.real**2 + col.imag**2)))
    return q[:, :, 0].T if size is None else q.transpose(1, 0, 2)


def haar_char_rows(m: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """Characteristic polynomials of Haar unitaries without the matrices:
    rows (size, m+1) of e_0..e_m with det(t - U) = sum_k (-1)^k e_k t^(m-k),
    the rows :func:`~arczeta.characters.char_poly_batch` makes of
    ``haar_unitary(m, rng, size)``, in law.

    Under Haar measure on U(m) the Verblunsky coefficients alpha_0..alpha_(m-1)
    of the spectral measure of a fixed vector are independent, rotation
    invariant, with |alpha_k|**2 ~ Beta(1, m - k - 1) for k < m - 1 and
    alpha_(m-1) on the unit circle (Killip & Nenciu, *IMRN* 2004, no. 50).
    det(t - U) is the monic orthogonal polynomial Phi_m of that measure, built
    by the Szego recursion Phi_(k+1)(z) = z Phi_k(z) - conj(alpha_k) Phi_k*(z)
    with Phi_k*(z) = z**k conj(Phi_k(1/conj(z))).  On the signed coefficients
    e_i = (-1)**i [z**(k-i)] Phi_k a step reads
    e_i += (-1)**k conj(alpha_k) conj(e_(k+1-i)) for i = 1..k+1, elementwise
    over the batch-last rows.

    One uniform array of shape (2m - 1, size) is drawn: the m phases of
    alpha_0..alpha_(m-1), then the m - 1 squared radii by the inverse CDF
    |alpha_k|**2 = 1 - (1 - U)**(1 / (m - k - 1)).
    """
    if m < 1:
        raise InvalidParameterError("need m >= 1")
    u = rng.random((2 * m - 1, size))
    angle = (2.0 * np.pi) * u[:m]
    coef = np.empty((m, size), dtype=complex)  # (-1)**k conj(alpha_k)
    coef.real = np.cos(angle)
    coef.imag = -np.sin(angle)
    beta_b = np.arange(m - 1, 0, -1, dtype=float)[:, None]  # m - k - 1
    coef[:-1] *= np.sqrt(-np.expm1(np.log1p(-u[m:]) / beta_b))
    coef[1::2] *= -1.0
    e = np.zeros((m + 1, size), dtype=complex)
    e[0] = 1.0
    for k in range(m):
        step = e[k::-1].conj()
        step *= coef[k]
        e[1 : k + 2] += step
    return e.T


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
    """integral over the complex m-ball of (1 - |z|^2)**e (Lebesgue measure),
    Hua's closed product pi**m / prod_{k=1..m} (e + k); also the reciprocal
    normalization of the matched radial density.  Refuses e <= -1."""
    if e <= -1:
        raise ConvergenceError(f"non-integrable weight exponent {e} (needs > -1)")
    return math.pi**m / math.prod(e + k for k in range(1, m + 1))


def sample_ball(m: int, exponent: float, rng: np.random.Generator, size: int):
    """Squared radii u ~ Beta(m, exponent + 1) and unit complex directions
    (size, m): the complex m-ball drawn with density (1 - |z|^2)**exponent.
    Keep u where 1 - |z|^2 matters: recomputed from a point, it rounds near the
    boundary."""
    u = rng.beta(m, exponent + 1.0, size=size)
    directions = rng.standard_normal((size, m)) + 1j * rng.standard_normal((size, m))
    # the bits of a division by the norm (see haar_unitary), at a quarter of its cost
    directions *= np.reciprocal(np.linalg.norm(directions, axis=1, keepdims=True))
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
    m, big = min(p, q), max(p, q)
    exponents = [weight_exponent + m - 1 - j for j in range(m)]
    weight = math.prod(weighted_ball_volume(big, exponent) for exponent in exponents)
    z = np.empty((size, big, m), dtype=complex)
    roots = []  # (1 - sqrt(1 - u_k), d_k) of each S_k drawn so far
    for j, exponent in enumerate(exponents):
        u, direction = sample_ball(big, exponent, rng, size)
        col = np.sqrt(u)[:, None] * direction
        for shrink, d in reversed(roots):  # S_(j-1) first, S_1 last
            col = col - (shrink * np.einsum("ni,ni->n", d.conj(), col))[:, None] * d
        z[:, :, j] = col
        roots.append((1.0 - np.sqrt(1.0 - u), direction))
    return (z if q <= p else z.transpose(0, 2, 1)), weight
