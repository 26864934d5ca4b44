import math
from fractions import Fraction

import numpy as np
import pytest

from arczeta.errors import BoundaryError, ConvergenceError, InvalidParameterError
from arczeta.group import (
    CoverElement,
    DomainPoint,
    GroupElement,
    a_t,
    b_t_cover,
    b_z_cover,
    cartan_decompose,
    cpow_int,
    h_from_z,
    haar_unitary,
    random_group_element,
    sample_ball,
    sample_domain,
    theta_t_cover,
    theta_z_cover,
    unitary_completion,
)
from arczeta.weights import closed_S


class TestDistinguishedElements:
    def test_t_zero_all_identity(self):
        assert np.allclose(a_t(0.0, 3), np.eye(4))
        for cover in (theta_t_cover, b_t_cover):
            el = cover(0.0, 3)
            assert np.allclose(el.embed(), np.eye(4))
            assert el.zeta_n == el.zeta_1 == 1.0

    def test_theta_b_product(self):
        t = 0.83
        prod = theta_t_cover(t, 2).embed() @ b_t_cover(t, 2).embed()
        expect = np.diag([1.0, 1.0, math.cosh(t) ** 2])
        assert np.allclose(prod, expect)
        ch = math.cosh(t)
        assert np.allclose(theta_t_cover(t, 2).embed(), np.diag([1 / ch, 1.0, ch]))
        assert np.allclose(b_t_cover(t, 2).embed(), np.diag([ch, 1.0, ch]))

    def test_a_t_in_group(self):
        GroupElement(a_t(1.1, 2))  # must not raise

    def test_theta_z_n1(self):
        r = 0.4
        m = theta_z_cover(np.array([r])).embed()
        assert np.allclose(m, np.diag([math.sqrt(1 - r * r), 1 / math.sqrt(1 - r * r)]))

    def test_triangular_ratio_identities(self):
        rng = np.random.default_rng(3)
        z = 0.7 * rng.standard_normal(3) / 3 + 0.1j * rng.standard_normal(3)
        tz, bz = theta_z_cover(z).embed(), b_z_cover(z).embed()
        n = 3
        gram = np.eye(n) - np.outer(z, z.conj())
        lhs = np.linalg.inv(tz) @ bz
        expect = np.zeros((4, 4), dtype=complex)
        expect[:n, :n] = np.linalg.inv(gram)
        expect[n, n] = 1.0
        assert np.allclose(lhs, expect)
        lhs2 = np.linalg.inv(tz) @ np.linalg.inv(bz)
        expect2 = np.eye(4, dtype=complex)
        expect2[n, n] = 1.0 - np.vdot(z, z)
        assert np.allclose(lhs2, expect2)
        assert np.allclose(b_z_cover(z).inverse().embed(), np.linalg.inv(bz))

    def test_hyperbolic_covers_are_ball_covers_on_first_axis(self):
        # theta_t and b_t are theta_z and b_z at z = tanh(t) e_1, roots included
        t, n = 0.91, 3
        z = np.zeros(n)
        z[0] = math.tanh(t)
        pairs = ((theta_t_cover(t, n), theta_z_cover(z)), (b_t_cover(t, n), b_z_cover(z)))
        for at_t, at_z in pairs:
            assert np.allclose(at_t.embed(), at_z.embed(), rtol=1e-14, atol=0)
            assert math.isclose(at_t.zeta_ratio.real, at_z.zeta_ratio.real, rel_tol=1e-14)
            assert at_t.zeta_ratio.imag == at_z.zeta_ratio.imag == 0.0

    def test_det_gram_equals_sech_squared(self):
        z = np.array([0.3 + 0.2j, -0.1j])
        t = math.atanh(np.linalg.norm(z))
        gram = np.eye(2) - np.outer(z, z.conj())
        assert math.isclose(np.linalg.det(gram).real, math.cosh(t) ** -2)


class TestHFromZ:
    def test_zero_is_identity(self):
        assert np.allclose(h_from_z(np.zeros(2)).matrix, np.eye(3))

    def test_n1_real_entries(self):
        r = 0.6
        m = h_from_z(np.array([r])).matrix
        c = 1 / math.sqrt(1 - r * r)
        assert np.allclose(m, [[c, r * c], [r * c, c]])

    def test_roundtrip_extraction(self, rng):
        for _ in range(20):
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z *= rng.uniform(0, 0.9) / np.linalg.norm(z)
            h = h_from_z(z).matrix
            back = h[:3, 3] / h[3, 3]
            assert np.allclose(back, z, atol=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(BoundaryError):
            h_from_z(np.array([1.0 - 1e-12]))
        with pytest.raises(InvalidParameterError):
            DomainPoint(np.array([1.0]))


class TestCartan:
    def test_identity(self):
        z, t, k_z, k = cartan_decompose(np.eye(3))
        assert np.linalg.norm(z.z) == 0 and t == 0
        assert np.allclose(k.embed(), np.eye(3))

    def test_hyperbolic_element(self):
        t0 = 0.9
        z, t, k_z, k = cartan_decompose(a_t(t0, 2))
        assert math.isclose(t, t0, rel_tol=1e-12)
        assert np.allclose(z.z, [math.tanh(t0), 0.0])
        assert np.allclose(k.embed(), np.eye(3), atol=1e-12)
        assert np.allclose(k_z.embed(), np.eye(3), atol=1e-12)

    def test_random_roundtrip(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            g = random_group_element(n, rng)
            z, t, k_z, k = cartan_decompose(g)
            reassembled = h_from_z(z.z).matrix @ k.embed()
            assert np.max(np.abs(reassembled - g.matrix)) <= 1e-10
            # the rotation diagonalizes the positive factor
            h2 = k_z.embed() @ a_t(t, n) @ np.linalg.inv(k_z.embed())
            assert np.max(np.abs(h2 - h_from_z(z.z).matrix)) <= 1e-9

    def test_form_violation_rejected(self):
        with pytest.raises(InvalidParameterError):
            GroupElement(np.diag([1.0, 2.0]))


class TestCover:
    def test_zeta_consistency_enforced(self):
        with pytest.raises(InvalidParameterError):
            CoverElement(np.eye(2), 1.0, 2.0, 1.0)

    def test_flips_and_ratio(self, rng):
        c = CoverElement.from_blocks(haar_unitary(2, rng), np.exp(0.3j))
        flipped = CoverElement(c.block_n, c.block_1, -c.zeta_n, c.zeta_1)
        assert np.isclose(flipped.zeta_ratio, -c.zeta_ratio)
        inv = c.inverse()
        assert np.isclose(inv.zeta_ratio * c.zeta_ratio, 1.0)

    def test_compose_threading(self, rng):
        a = CoverElement.from_blocks(haar_unitary(2, rng), np.exp(1j))
        b = CoverElement.from_blocks(haar_unitary(2, rng), np.exp(-0.4j))
        ab = a.compose(b)
        assert np.allclose(ab.block_n, a.block_n @ b.block_n)
        assert np.isclose(ab.zeta_n, a.zeta_n * b.zeta_n)


class TestHaar:
    def test_m1_uniform_phase(self, rng):
        u = haar_unitary(1, rng, size=40_000).reshape(-1)
        # circular mean of a uniform phase vanishes like 1/sqrt(N)
        assert abs(u.mean()) < 3.0 / math.sqrt(len(u))
        assert np.allclose(np.abs(u), 1.0)

    def test_columns_orthonormal(self, rng):
        q = haar_unitary(4, rng)
        assert np.max(np.abs(q.conj().T @ q - np.eye(4))) < 1e-12

    def test_standard_character_mean_zero(self, rng):
        for m in (2, 3):
            q = haar_unitary(m, rng, size=30_000)
            tr = np.trace(q, axis1=1, axis2=2)
            # Var(tr) = 1 for the invariant ensemble
            assert abs(tr.mean()) < 3.0 / math.sqrt(len(tr))

    @staticmethod
    def _qr_haar(m, rng, size=None):
        """The reference draw: LAPACK QR of the same Ginibre array, with R's
        diagonal phases moved into Q."""
        shape = (m, m) if size is None else (size, m, m)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        q, r = np.linalg.qr(a)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        return q * (d / np.abs(d))[..., None, :]

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("size", [None, 10_000])
    def test_matches_qr_oracle(self, m, size):
        q = haar_unitary(m, np.random.default_rng(m), size=size)
        ref = self._qr_haar(m, np.random.default_rng(m), size=size)
        assert q.shape == ref.shape
        assert np.abs(q - ref).max() <= 1e-12

    def test_orthonormal_at_scale(self):
        # the second Gram-Schmidt pass keeps every draw at a few ulps; a single
        # pass reads 8.7e-14 on this stream
        q = haar_unitary(4, np.random.default_rng(0), size=100_000)
        gram = np.einsum("nki,nkj->nij", q.conj(), q)
        assert np.abs(gram - np.eye(4)).max() <= 1e-14

    @pytest.mark.parametrize("size", [None, 1_000])
    def test_consumes_the_two_normal_arrays(self, size):
        # the draw takes exactly the real and the imaginary Ginibre parts, so
        # every later draw from the stream is unchanged
        used, ref = np.random.default_rng(2), np.random.default_rng(2)
        haar_unitary(3, used, size=size)
        shape = (3, 3) if size is None else (size, 3, 3)
        ref.standard_normal(shape)
        ref.standard_normal(shape)
        assert used.bit_generator.state == ref.bit_generator.state

    def test_unitary_completion(self, rng):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        q = unitary_completion(v)
        assert np.allclose(q[:, 0], v)
        assert np.max(np.abs(q.conj().T @ q - np.eye(3))) < 1e-12


class TestSampler:
    def test_weight_normalization_11(self, rng):
        # mean(w) -> vol = pi, mean with exponent 1 -> pi/2
        z0, w0 = sample_domain(1, 1, 0.0, rng, size=120_000)
        z1, w1 = sample_domain(1, 1, 1.0, rng, size=120_000)
        assert math.isclose(w0, math.pi, rel_tol=1e-12)  # constant weights
        assert math.isclose(w1, math.pi / 2, rel_tol=1e-12)

    def test_moment_ratio_matches_calculus(self, rng):
        # E[(1 - |z|^2)] under the flat weights = (pi/2) / pi
        z, w = sample_domain(1, 1, 0.0, rng, size=200_000)
        u = np.abs(z.reshape(-1)) ** 2
        vals = w * (1 - u)
        ratio = vals.mean() / w
        stderr = vals.std() / math.sqrt(len(vals)) / w
        assert abs(ratio - 0.5) <= 3 * stderr

    def test_points_inside_ball(self, rng):
        z, w = sample_domain(3, 1, 2.0, rng, size=5_000)
        assert np.all(np.linalg.norm(z.reshape(len(z), -1), axis=1) < 1)

    def test_estimator_matches_closed_integral(self, rng):
        # int (1-|z|^2)^(s-2) dz = closed value at kappa = iota = 0
        s = 3.0
        z, w = sample_domain(1, 1, s - 2.0, rng, size=50_000)
        est = w  # the exponent is fully absorbed by the sampler
        assert math.isclose(est, float(closed_S(1, 1, 0, 0, 3)), rel_tol=1e-10)

    def test_rejection_path_volume(self, rng):
        # at exponent 0 the constant weight is the (2,2) ball's volume, and
        # every drawn point lies inside
        z, w = sample_domain(2, 2, 0.0, rng, size=200_000)
        assert math.isclose(w, float(closed_S(2, 2, (0, 0), (0, 0), 4)), rel_tol=1e-12)
        gram = np.eye(2)[None] - z @ z.conj().transpose(0, 2, 1)
        assert np.linalg.eigvalsh(gram).min() > 0

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 3), (2, 2), (2, 3), (3, 4), (4, 4)])
    def test_constant_weight_is_the_closed_integral(self, p, q):
        # the product of the nested radial normalizations equals the closed
        # scalar at zero weights, s = p + q + e
        for e in (Fraction(0), Fraction(1, 2), Fraction(2)):
            _, w = sample_domain(p, q, float(e), np.random.default_rng(0), size=1)
            closed = float(closed_S(p, q, (0,) * p, (0,) * q, p + q + e))
            assert math.isclose(w, closed, rel_tol=1e-12), (p, q, e)

    @pytest.mark.parametrize("p,q", [(2, 2), (3, 4), (4, 4)])
    def test_nested_draw_moments(self, p, q):
        # E[w det(1 - zz*)^k] is the closed scalar at s + k, and every drawn
        # gram is positive definite; applying the square roots S_k in the
        # wrong order puts points outside the ball and biases the first
        # moment at (4,4)
        for e in (Fraction(0), Fraction(1, 2), Fraction(2)):
            z, w = sample_domain(p, q, float(e), np.random.default_rng(0), size=50_000)
            gram = np.eye(p)[None] - z @ z.conj().transpose(0, 2, 1)
            assert np.linalg.eigvalsh(gram).min() > 0, (p, q, e)
            det = np.linalg.det(gram).real
            for k in (1, 2):
                vals = w * det**k
                closed = float(closed_S(p, q, (0,) * p, (0,) * q, p + q + e + k))
                stderr = vals.std() / math.sqrt(len(vals))
                assert abs(vals.mean() - closed) <= 3 * stderr, (p, q, e, k)

    def test_nonintegrable_exponent_rejected(self, rng):
        with pytest.raises(ConvergenceError):
            sample_domain(1, 1, -1.0, rng, size=1)

    def test_rank_one_branch_is_the_ball_draw(self):
        # sample_domain on the (3, 1) ball places sample_ball's radii and
        # directions, consuming the stream in the same order
        z, w = sample_domain(3, 1, 0.5, np.random.default_rng(4), size=1_000)
        u, dirs = sample_ball(3, 0.5, np.random.default_rng(4), 1_000)
        assert np.array_equal(z[:, :, 0], np.sqrt(u)[:, None] * dirs)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)


class TestCpow:
    def test_sign_flip_bit_exact(self, rng):
        z = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        for k in (1, 2, 3, -2, 5):
            a = cpow_int(z, k) * cpow_int(z, -k)
            b = cpow_int(-z, k) * cpow_int(-z, -k)
            assert np.array_equal(a, b)
