import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arczeta.characters import (
    char_poly_batch,
    elementary_batch,
    psi_batch,
    psi_pi,
    schur_eval,
    schur_eval_batch,
)
from arczeta.errors import InvalidParameterError
from arczeta.group import (
    GroupElement,
    a_t,
    haar_unitary,
    random_group_element,
    sample_domain,
)
from arczeta.weights import classify_theta, gl_dim, weyl_dim

from conftest import embed, lam, random_cover


def bialternant(mu, eigs):
    """Ratio-of-alternants evaluation; breaks down at equal eigenvalues."""
    m = len(mu)
    num = np.array([[eigs[j] ** (mu[i] + m - 1 - i) for j in range(m)] for i in range(m)])
    den = np.array([[eigs[j] ** (m - 1 - i) for j in range(m)] for i in range(m)])
    return np.linalg.det(num) / np.linalg.det(den)


class TestSchur:
    def test_standard_rep(self):
        x, y = 2, 5
        assert schur_eval([1, 0], [x, y]) == x + y

    def test_tableau_count(self):
        # semistandard tableaux of shape (2,1) with entries <= 2
        assert schur_eval([2, 1], [1, 1]) == 2

    def test_dimension_specialization(self):
        for mu in ([3, 1], [2, 2], [4, 2, 1], [1, 1, 0]):
            ones = [1] * len(mu)
            assert schur_eval(mu, ones) == gl_dim(mu)

    def test_negative_parts_det_shift(self):
        x, y = Fraction(3), Fraction(7)
        assert schur_eval([1, -1], [x, y]) == schur_eval([2, 0], [x, y]) / (x * y)

    def test_exact_on_integer_eigenvalues(self):
        # an int determinant to a negative power inverts as a Fraction
        val = schur_eval([0, -1], [2, 3])
        assert val == Fraction(5, 6) and type(val) is Fraction

    def test_zero_eigenvalue_negative_shift(self):
        with pytest.raises(InvalidParameterError):
            schur_eval([0, -1], [1, 0])

    def test_matches_bialternant_generic(self, rng):
        for _ in range(10):
            eigs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            mu = [3, 1, 0]
            a = schur_eval(mu, list(eigs))
            b = bialternant(mu, eigs)
            assert abs(a - b) / abs(b) < 1e-10

    def test_repeated_eigenvalue_perturbation_limit(self):
        # the determinant route is exact where the alternant ratio is 0/0
        mu = [3, 1]
        a = 0.8 + 0.3j
        exact = schur_eval(mu, [a, a])
        eps = 1e-5
        perturbed = bialternant(mu, np.array([a, a + eps]))
        assert abs(exact - perturbed) / abs(exact) < 1e-4
        # the alternant error is first order in eps: one Richardson step
        richardson = 2 * bialternant(mu, np.array([a, a + eps / 2])) - perturbed
        assert abs(exact - richardson) / abs(exact) < 1e-6

    def test_batch_agrees_with_scalar(self, rng):
        mu = [2, 1, -1]
        eigs = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
        vals = schur_eval_batch(mu, elementary_batch(eigs))
        for row, v in zip(eigs, vals):
            assert abs(schur_eval(mu, list(row)) - v) < 1e-10 * max(1, abs(v))

    @pytest.mark.parametrize("mu", [[1, 0], [2, 2], [3, 1, 0], [1, 0, -2], [2, 1, 0, -1]])
    def test_batch_from_char_poly_agrees_with_scalar(self, rng, mu):
        # e-rows from traces of Haar unitaries against the exact scalar
        # evaluator at the eigenvalues; [1, 0, -2] and [2, 1, 0, -1] take
        # the determinant shift through e_m
        mats = haar_unitary(len(mu), rng, size=30)
        vals = schur_eval_batch(mu, char_poly_batch(mats))
        for mat, v in zip(mats.transpose(2, 0, 1), vals):
            exact = schur_eval(mu, list(np.linalg.eigvals(mat)))
            assert abs(exact - v) < 1e-10 * max(1, abs(v))

    def test_batch_rejects_row_length(self):
        with pytest.raises(InvalidParameterError):
            schur_eval_batch([1, 0], np.ones((4, 2)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.permutations(range(3)))
    def test_symmetric_under_permutation(self, perm):
        eigs = np.array([0.3 + 1j, -2.1 + 0.4j, 0.9 - 0.2j])
        mu = [2, 1, 0]
        base = schur_eval(mu, list(eigs))
        assert abs(schur_eval(mu, list(eigs[list(perm)])) - base) <= 1e-12 * abs(base)


class TestCharPoly:
    """Traces and Newton's identities against the eigenvalue route, on
    batch-last (m, m, N) arrays."""

    @staticmethod
    def _batches(m, rng, size=200):
        ginibre = (rng.standard_normal((size, m, m))
                   + 1j * rng.standard_normal((size, m, m))) / np.sqrt(2 * m)
        x = haar_unitary(m, rng, size=size).transpose(2, 0, 1)
        dirs = rng.standard_normal((size, m)) + 1j * rng.standard_normal((size, m))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        # the zeta chunk's contraction (1 - u)**(1/2) block times x at
        # 1 - u = 1e-8: I + (scale - 1) d d* with scale 1e-4
        outer = dirs[:, :, None] * dirs.conj()[:, None, :]
        boundary = (np.eye(m) + (1e-4 - 1.0) * outer) @ x
        return {"haar": haar_unitary(m, rng, size=size).transpose(2, 0, 1),
                "ginibre": ginibre, "boundary": boundary}

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_matches_eigenvalue_route(self, rng, m):
        for kind, mats in self._batches(m, rng).items():
            e = char_poly_batch(mats.transpose(1, 2, 0))
            assert e.shape == (len(mats), m + 1)
            ref = elementary_batch(np.linalg.eigvals(mats))
            assert np.abs(e - ref).max() <= 1e-13, (kind, m)

    @pytest.mark.parametrize("p,q", [(2, 2), (3, 2), (4, 4)])
    def test_matches_eigenvalue_route_on_domain_grams(self, p, q):
        # the verify_S chunk's smaller gram 1 - z z* (or 1 - z* z), Hermitian
        # positive definite, eigenvalues in (0, 1]
        z, _ = sample_domain(p, q, 0.0, np.random.default_rng(10 * p + q), size=2_000)
        zm = z if p <= q else z.conj().transpose(0, 2, 1)
        gram = np.eye(min(p, q)) - zm @ zm.conj().transpose(0, 2, 1)
        e = char_poly_batch(gram.transpose(1, 2, 0))
        ref = elementary_batch(np.linalg.eigvalsh(gram))
        assert np.abs(e - ref).max() <= 1e-13, (p, q)

    def test_exact_on_diagonal(self):
        eigs = np.array([[2.0, -1.0, 0.5j], [1.0, 1.0, 1.0]])
        mats = np.stack([np.diag(row) for row in eigs], axis=-1)
        assert np.allclose(char_poly_batch(mats), elementary_batch(eigs), rtol=0, atol=1e-15)

    def test_elementary_rows(self):
        e = elementary_batch(np.array([1.0, 2.0, 3.0]))
        assert e.shape == (1, 4) and np.array_equal(e[0], [1, 6, 11, 6])


class TestGenuineChar:
    """The genuine character :func:`psi_batch` on block-diagonal cover batches."""

    def test_half_twist_on_circle(self):
        # identity blocks: the value is dim times the root ratio to the
        # doubled twist, an odd power for a half-integral twist
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        (_, tw2n), _ = th.lambda_gl()
        assert tw2n % 2 == 1
        phase = np.exp(0.5j * np.array([0.77, -2.1]))
        val = psi_batch(th, char_poly_batch(np.stack([np.eye(2)] * 2, axis=-1)), np.ones(2),
                        phase)
        assert np.allclose(val, weyl_dim(th.lam) * phase**tw2n, rtol=1e-14, atol=0)

    def test_flip_sign(self, rng):
        # negating the root ratio multiplies the value by (-1)**tw2n
        for text in ("5/2,3/2,1/2", "3/2,1/2", "1/2,-3/2,-5/2", "7/2,3/2,1/2"):
            th = classify_theta(lam(*text.split(",")))
            (_, tw2n), _ = th.lambda_gl()
            els = [random_cover(th.n, rng) for _ in range(5)]
            e_rows = char_poly_batch(np.stack([el.block_n for el in els], axis=-1))
            b1 = np.array([el.block_1 for el in els])
            ratio = np.array([el.zeta_ratio for el in els])
            flipped = psi_batch(th, e_rows, b1, -ratio)
            assert np.array_equal(flipped, (-1) ** tw2n * psi_batch(th, e_rows, b1, ratio))

    def test_positive_on_positive_diagonal(self):
        for text in ("5/2,3/2,1/2", "1/2,-3/2,-5/2", "-1/2,-5/2"):
            th = classify_theta(lam(*text.split(",")))
            block = np.diag([1.7, 0.3][: th.n]).astype(complex)
            b1 = 0.6
            ratio = math.sqrt(np.linalg.det(block).real / b1)
            val = psi_batch(th, char_poly_batch(block[:, :, None]), np.array([b1 + 0j]),
                            np.array([ratio + 0j]))[0]
            assert abs(val.imag) < 1e-14 * abs(val) and val.real > 0, text


class TestPsiPi:
    def test_identity_gives_dimension(self):
        for lv in (lam("3/2", "1/2"), lam("7/2", "3/2", "1/2")):
            th = classify_theta(lv)
            val = psi_pi(GroupElement(np.eye(th.n + 2 - 1)), th)
            assert np.isclose(val, weyl_dim(lv))

    def test_hyperbolic_value_n1(self):
        th = classify_theta(lam("3/2", "1/2"))
        for t in (0.3, 1.1):
            val = psi_pi(GroupElement(a_t(t, 1)), th)
            assert np.isclose(val, math.cosh(t) ** -2)

    def test_conjugation_invariance(self, rng):
        th = classify_theta(lam("7/2", "3/2", "1/2"))
        for _ in range(25):
            g = random_group_element(2, rng)
            k = random_cover(2, rng)
            kg = embed(k) @ g.matrix @ np.linalg.inv(embed(k))
            a = psi_pi(GroupElement(kg), th)
            b = psi_pi(g, th)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

    def test_two_routes_agree(self, rng):
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        for _ in range(25):
            g = random_group_element(2, rng)
            a = psi_pi(g, th, route="direct")
            b = psi_pi(g, th, route="conjugated")
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_against_triangular_factorization(self, rng):
        # independent oracle: block-triangular factorization gives the
        # diagonal factor directly as (Schur complement, corner entry); the
        # square of the coefficient is branch-free, so compare squares
        for text in ("3/2,1/2", "5/2,3/2,1/2", "7/2,3/2,1/2", "-1/2,-5/2"):
            th = classify_theta(lam(*text.split(",")))
            n = th.n
            (parts_n, tw2n), (parts_1, _) = th.lambda_gl()
            for _ in range(10):
                g = random_group_element(n, rng).matrix
                a_blk, b_blk = g[:n, :n], g[:n, n]
                c_blk, d_blk = g[n, :n], g[n, n]
                theta_n = a_blk - np.outer(b_blk, c_blk) / d_blk
                eigs = np.linalg.eigvals(theta_n)
                chi_sq = schur_eval_batch(list(parts_n), elementary_batch(eigs))[0] ** 2
                chi_sq *= np.linalg.det(theta_n) ** tw2n
                chi_sq *= d_blk ** (2 * parts_1[0] - tw2n)
                val = psi_pi(GroupElement(g), th) ** 2
                assert abs(val - chi_sq) <= 1e-8 * max(1.0, abs(val)), text
