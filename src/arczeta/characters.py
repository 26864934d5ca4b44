"""Characters of compact unitary groups and their complexifications.

Characters are evaluated as Schur polynomials via the Jacobi-Trudi
determinant in complete homogeneous symmetric functions, which are generated
from the elementary symmetric functions e_0..e_m of the eigenvalues.  The
determinant route is total: it has no 0/0 issue at repeated eigenvalues,
which occur structurally at the diagonal elements used everywhere here.

The batch evaluator :func:`schur_eval_batch` takes rows of e_k.  A class
function of a matrix needs only its characteristic polynomial, so no Monte
Carlo chunk computes an eigenvalue.  The Schur check draws the rows of Haar
unitaries directly, from Verblunsky coefficients
(:func:`~arczeta.group.haar_char_rows`), and builds no matrix; the chunks
that hold matrices, the zeta chunk's cover blocks and the grams of
``verify_S``, get their rows from traces (:func:`char_poly_batch`, Newton's
identities).  The chunks hold their matrices batch-last, (row, col, batch), as
:func:`~arczeta.group.haar_unitary` draws them, so every matrix product and
trace is elementwise over the batch.  Eigenvalues enter only as the nodes of
the quadrature rule, through :func:`elementary_batch`.  The exact scalar
:func:`schur_eval` is the oracle for both.

Both evaluators take the Jacobi-Trudi determinant from the one division-free
expansion of :func:`~arczeta.exact.leading_minors`, except that the batch
evaluator keeps LAPACK's pivoted LU for matrices of size 3 and more, where
the pivot-free expansion loses accuracy.

The canonical matrix coefficient of the lowest K-type (psi_pi) is evaluated
in one place, :func:`psi_batch`, from the e-rows of the block: the Monte Carlo
chunk of the group integral makes them once for a batch and also reads det x
off their last entry, :func:`psi_pi` makes them for a batch of one.  Genuine
(double-cover) weights carry half-integral determinant twists; the twist is
consumed as an integer power of the carried root ratio of the block
determinants.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError
from .exact import leading_minors, power
from .group import cartan_decompose, theta_t_cover, theta_z_cover
from .weights import ThetaDatum

__all__ = [
    "schur_eval",
    "schur_eval_batch",
    "elementary_batch",
    "char_poly_batch",
    "psi_batch",
    "psi_pi",
]


def _elementary(eigs):
    """Coefficients e_0..e_m of prod (1 + x_i t)."""
    e = [1]
    for x in eigs:
        e = [e[0]] + [e[k] + x * e[k - 1] for k in range(1, len(e))] + [x * e[-1]]
    return e


def _complete_homogeneous(eigs, kmax: int):
    """h_0..h_kmax from the elementary functions by the standard recurrence."""
    m = len(eigs)
    e = _elementary(eigs)
    h = [1]
    for k in range(1, kmax + 1):
        acc = 0
        for i in range(1, min(k, m) + 1):
            term = e[i] * h[k - i]
            acc = acc + term if i % 2 == 1 else acc - term
        h.append(acc)
    return h


def _normalize_parts(mu):
    mu = [int(x) for x in mu]
    if any(a < b for a, b in zip(mu, mu[1:])):
        raise InvalidParameterError(f"parts must be weakly decreasing: {mu}")
    return mu


def schur_eval(mu, eigs):
    """Schur polynomial s_mu at the given eigenvalues (exact for exact inputs).

    Negative parts are handled by factoring out the smallest part as a power
    of the determinant, which requires the eigenvalues to be invertible.
    """
    mu = _normalize_parts(mu)
    eigs = list(eigs)
    if len(eigs) != len(mu):
        raise InvalidParameterError(
            f"need as many eigenvalues as weight parts ({len(mu)}), got {len(eigs)}"
        )
    if not mu:
        return 1
    shift = mu[-1]
    if shift != 0:
        det = eigs[0]
        for x in eigs[1:]:
            det = det * x
        if shift < 0 and not det:
            raise InvalidParameterError("zero eigenvalue with negative determinant shift")
        return power(det, shift) * schur_eval([x - shift for x in mu], eigs)
    nu = [x for x in mu if x > 0]
    ell = len(nu)
    if ell == 0:
        return eigs[0] ** 0  # one, in the ring of the eigenvalues
    h = _complete_homogeneous(eigs, nu[0] + ell - 1)

    def h_at(k):
        return h[k] if 0 <= k < len(h) else 0

    rows = [[h_at(nu[i] - (i + 1) + (j + 1)) for j in range(ell)] for i in range(ell)]
    return leading_minors(rows)[-1]


def elementary_batch(eigs: np.ndarray) -> np.ndarray:
    """Elementary symmetric functions e_0..e_m of eigenvalue rows (N, m), as
    complex rows (N, m+1)."""
    eigs = np.asarray(eigs, dtype=complex)
    if eigs.ndim == 1:
        eigs = eigs[None, :]
    count, m = eigs.shape
    e = np.zeros((count, m + 1), dtype=complex)
    e[:, 0] = 1.0
    for idx in range(m):
        x = eigs[:, idx]
        e[:, 1 : idx + 2] = e[:, 1 : idx + 2] + x[:, None] * e[:, 0 : idx + 1]
    return e


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two batch-last arrays (m, m, N), one entry at a time
    and elementwise over the batch, so no (m, m, N) temporary is made."""
    m = a.shape[0]
    out = np.empty_like(a)
    for i in range(m):
        for j in range(m):
            acc = np.multiply(a[i, 0], b[0, j], out=out[i, j])
            for k in range(1, m):
                acc += a[i, k] * b[k, j]
    return out


def char_poly_batch(mats: np.ndarray) -> np.ndarray:
    """Elementary symmetric functions e_0..e_m of the eigenvalues of a
    batch-last array of matrices (m, m, N), as rows (N, m+1), computed without
    eigenvalues: det(t - A) is sum_k (-1)^k e_k t^(m-k).

    The power sums p_k = tr(A^ceil(k/2) A^floor(k/2)) need the powers up to
    A^ceil(m/2), that is ceil(m/2) - 1 matrix products; every product and
    trace is elementwise over the batch axis.  Newton's identities
    k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i turn them into e_k
    (Macdonald, *Symmetric Functions and Hall Polynomials*, I.2).
    """
    a = np.asarray(mats, dtype=complex)
    m, _, count = a.shape
    powers = [None, a]  # powers[j] = A^j
    for _ in range(2, (m + 1) // 2 + 1):
        powers.append(_product(powers[-1], a))
    p = [None, sum(a[i, i] for i in range(m))]
    for k in range(2, m + 1):
        left, right = powers[(k + 1) // 2], powers[k // 2]
        p.append(sum(left[i, j] * right[j, i] for i in range(m) for j in range(m)))
    e = np.empty((m + 1, count), dtype=complex)
    e[0] = 1.0
    for k in range(1, m + 1):
        acc = e[k - 1] * p[1]
        for i in range(2, k + 1):
            term = e[k - i] * p[i]
            acc = acc + term if i % 2 == 1 else acc - term
        np.divide(acc, k, out=e[k])
    return e.T


def schur_eval_batch(mu, e: np.ndarray) -> np.ndarray:
    """Vectorized Schur evaluation over a batch of elementary symmetric rows
    (N, m+1), as made by :func:`char_poly_batch` or :func:`elementary_batch`.
    A negative smallest part is a power of the determinant e_m."""
    mu = _normalize_parts(mu)
    e = np.asarray(e, dtype=complex)
    if e.ndim == 1:
        e = e[None, :]
    count, m = e.shape[0], e.shape[1] - 1
    if m != len(mu):
        raise InvalidParameterError("elementary rows must have one entry more than the weight")
    shift = mu[-1] if mu else 0
    pref = np.ones(count, dtype=complex)
    if shift != 0:
        pref = power(e[:, m], shift)
        mu = [x - shift for x in mu]
    nu = [x for x in mu if x > 0]
    ell = len(nu)
    if ell == 0:
        return pref
    kmax = nu[0] + ell - 1
    h = [np.ones(count, dtype=complex)]
    for k in range(1, kmax + 1):
        acc = e[:, 1] * h[k - 1]
        for i in range(2, min(k, m) + 1):
            term = e[:, i] * h[k - i]
            acc = acc + term if i % 2 == 1 else acc - term
        h.append(acc)
    mat = np.zeros((ell, ell, count), dtype=complex)
    for i in range(ell):
        for j in range(ell):
            k = nu[i] - (i + 1) + (j + 1)
            if 0 <= k <= kmax:
                mat[i, j] = h[k]
    if ell <= 2:
        return pref * leading_minors(mat)[-1]
    # pivot-free, the worst verify_T error of the n<=4 sweep rises from
    # 6.9e-14 to 1.3e-12 at length 3, so the longer matrices keep LAPACK's
    # partial pivoting
    return pref * np.linalg.det(mat.transpose(2, 0, 1))


def psi_batch(theta: ThetaDatum, e_rows: np.ndarray, block_1: np.ndarray,
              ratio: np.ndarray) -> np.ndarray:
    """The genuine character of the lowest K-type on a batch of block-diagonal
    cover elements, given as the e-rows of block_n (N, n+1), made by
    :func:`char_poly_batch`, block_1 (N,) and the ratio of the chosen roots
    of det(block_n) and block_1 (N,), as a cover element carries it.

    The two det twists of :meth:`~arczeta.weights.ThetaDatum.lambda_gl` are
    opposite, so together they are the integer power tw2n of the root ratio;
    flipping both roots leaves the ratio and the value unchanged.
    """
    (parts_n, tw2n), (parts_1, _) = theta.lambda_gl()
    psi = schur_eval_batch(list(parts_n), e_rows)
    if parts_1[0]:
        psi = psi * power(block_1, parts_1[0])
    if tw2n:
        psi = psi * power(ratio, tw2n)
    return psi


def psi_pi(g, theta: ThetaDatum, route: str = "direct") -> complex:
    """Canonical conjugation-invariant matrix coefficient at ``g``.

    With g = h_z k, the value is :func:`psi_batch` at the cover element
    theta_z k.  ``route="conjugated"`` evaluates at theta_t k_z^-1 k k_z
    instead, through the rotation k_z that carries z to the first axis (both
    routes agree to numerical precision, which is tested).
    """
    z, t, k_z, k = cartan_decompose(g)
    if route == "direct":
        el = theta_z_cover(z).compose(k)
    elif route == "conjugated":
        el = theta_t_cover(t, len(z)).compose(k_z.inverse().compose(k).compose(k_z))
    else:
        raise InvalidParameterError(f"unknown route {route!r}")
    return complex(psi_batch(theta, char_poly_batch(el.block_n[:, :, None]), np.array([el.block_1]),
                             np.array([el.zeta_ratio]))[0])
