import math
from fractions import Fraction

import numpy as np
import pytest

import arczeta.group
from arczeta.characters import char_poly_batch, schur_eval_batch
from arczeta.errors import BoundaryError, ConvergenceError, InvalidParameterError
from arczeta.exact import power
from arczeta.group import (
    CoverElement,
    GroupElement,
    a_t,
    b_t_cover,
    b_z_cover,
    cartan_decompose,
    h_from_z,
    haar_char_rows,
    haar_unitary,
    random_group_element,
    sample_ball,
    sample_domain,
    theta_t_cover,
    theta_z_cover,
    unitary_completion,
    weighted_ball_volume,
)
from arczeta.weights import closed_S

from conftest import embed


class TestDistinguishedElements:
    def test_t_zero_all_identity(self):
        assert np.allclose(a_t(0.0, 3), np.eye(4))
        for el in (theta_t_cover(0.0, 3), b_t_cover(1.0, 3)):
            assert np.allclose(embed(el), np.eye(4))
            assert el.zeta_ratio == 1.0

    def test_theta_b_product(self):
        t = 0.83
        prod = embed(theta_t_cover(t, 2)) @ embed(b_t_cover(math.cosh(t), 2))
        expect = np.diag([1.0, 1.0, math.cosh(t) ** 2])
        assert np.allclose(prod, expect)
        ch = math.cosh(t)
        assert np.allclose(embed(theta_t_cover(t, 2)), np.diag([1 / ch, 1.0, ch]))
        assert np.allclose(embed(b_t_cover(ch, 2)), np.diag([ch, 1.0, ch]))

    def test_a_t_in_group(self):
        GroupElement(a_t(1.1, 2))  # must not raise

    def test_theta_z_n1(self):
        r = 0.4
        m = embed(theta_z_cover(np.array([r])))
        assert np.allclose(m, np.diag([math.sqrt(1 - r * r), 1 / math.sqrt(1 - r * r)]))

    def test_triangular_ratio_identities(self):
        rng = np.random.default_rng(3)
        z = 0.7 * rng.standard_normal(3) / 3 + 0.1j * rng.standard_normal(3)
        tz, bz = embed(theta_z_cover(z)), embed(b_z_cover(z))
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
        assert np.allclose(embed(b_z_cover(z).inverse()), np.linalg.inv(bz))

    def test_hyperbolic_covers_are_ball_covers_on_first_axis(self):
        # theta_t and b_t are theta_z and b_z at z = tanh(t) e_1, roots included
        t, n = 0.91, 3
        z = np.zeros(n)
        z[0] = math.tanh(t)
        pairs = ((theta_t_cover(t, n), theta_z_cover(z)), (b_t_cover(math.cosh(t), n), b_z_cover(z)))
        for at_t, at_z in pairs:
            assert np.allclose(embed(at_t), embed(at_z), rtol=1e-14, atol=0)
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
        for on_sphere in (np.array([1.0]), np.array([0.6, 0.8j])):
            for build in (theta_z_cover, h_from_z):
                with pytest.raises(BoundaryError):
                    build(on_sphere)


class TestCartan:
    def test_identity(self):
        z, t, k_z, k = cartan_decompose(np.eye(3))
        assert np.linalg.norm(z) == 0 and t == 0
        assert np.allclose(embed(k), np.eye(3))

    def test_hyperbolic_element(self):
        t0 = 0.9
        z, t, k_z, k = cartan_decompose(a_t(t0, 2))
        assert math.isclose(t, t0, rel_tol=1e-12)
        assert np.allclose(z, [math.tanh(t0), 0.0])
        assert np.allclose(embed(k), np.eye(3), atol=1e-12)
        assert np.allclose(embed(k_z), np.eye(3), atol=1e-12)

    def test_random_roundtrip(self, rng):
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            g = random_group_element(n, rng)
            z, t, k_z, k = cartan_decompose(g)
            reassembled = h_from_z(z).matrix @ embed(k)
            assert np.max(np.abs(reassembled - g.matrix)) <= 1e-10
            # the rotation diagonalizes the positive factor
            h2 = embed(k_z) @ a_t(t, n) @ np.linalg.inv(embed(k_z))
            assert np.max(np.abs(h2 - h_from_z(z).matrix)) <= 1e-9

    def test_form_violation_rejected(self):
        with pytest.raises(InvalidParameterError):
            GroupElement(np.diag([1.0, 2.0]))


class TestCover:
    def test_zeta_consistency_enforced(self):
        with pytest.raises(InvalidParameterError):
            CoverElement(np.eye(2), 1.0, 2.0)

    def test_flips_and_ratio(self, rng):
        c = CoverElement.from_blocks(haar_unitary(2, rng), np.exp(0.3j))
        flipped = CoverElement(c.block_n, c.block_1, -c.zeta_ratio)
        assert np.isclose(flipped.zeta_ratio, -c.zeta_ratio)
        inv = c.inverse()
        assert np.isclose(inv.zeta_ratio * c.zeta_ratio, 1.0)

    def test_compose_threading(self, rng):
        a = CoverElement.from_blocks(haar_unitary(2, rng), np.exp(1j))
        b = CoverElement.from_blocks(haar_unitary(2, rng), np.exp(-0.4j))
        ab = a.compose(b)
        assert np.allclose(ab.block_n, a.block_n @ b.block_n)
        assert ab.zeta_ratio == a.zeta_ratio * b.zeta_ratio


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
            tr = np.trace(q)
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
        # a batch comes back batch-last, (row, col, batch)
        q = haar_unitary(m, np.random.default_rng(m), size=size)
        ref = self._qr_haar(m, np.random.default_rng(m), size=size)
        if size is not None:
            ref = ref.transpose(1, 2, 0)
        assert q.shape == ref.shape
        assert np.abs(q - ref).max() <= 1e-12

    def test_orthonormal_at_scale(self):
        # the second Gram-Schmidt pass keeps every draw at a few ulps; a single
        # pass reads 8.7e-14 on this stream
        q = haar_unitary(4, np.random.default_rng(0), size=100_000)
        gram = np.einsum("kin,kjn->nij", q.conj(), q)
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

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("rest", [5, 1])
    def test_blocks_change_no_bit(self, monkeypatch, m, rest):
        # the fill and both Gram-Schmidt passes are elementwise over the
        # batch, so a batch run block by block is the batch run as one block;
        # a rest of one matrix joins the block before it
        size = 2 * arczeta.group._BLOCK + rest
        blocked_rng, one_rng = np.random.default_rng(40 + m), np.random.default_rng(40 + m)
        blocked = haar_unitary(m, blocked_rng, size=size)
        monkeypatch.setattr(arczeta.group, "_BLOCK", size + 1)
        one = haar_unitary(m, one_rng, size=size)
        assert blocked.shape == (m, m, size)
        assert np.array_equal(blocked.view(float), one.view(float))
        assert blocked_rng.bit_generator.state == one_rng.bit_generator.state
        gram = np.einsum("kin,kjn->nij", blocked.conj(), blocked)
        assert np.abs(gram - np.eye(m)).max() <= 1e-13
        assert haar_unitary(m, blocked_rng).shape == (m, m)

    @staticmethod
    def _division_haar(m, rng, size=None):
        """The Gram-Schmidt draw as it divided each column by its norm."""
        shape = (1 if size is None else size, m, m)
        re, im = rng.standard_normal(shape), rng.standard_normal(shape)
        q = np.empty(shape[::-1], dtype=complex)
        for b in arczeta.group._blocks(shape[0]):
            qb = q[:, :, b]
            qb.real, qb.imag = re[b].T, im[b].T
            for j in range(m):
                col = qb[j]
                if j:
                    done = qb[:j]
                    done_conj = done.conj()
                    for _ in range(2):
                        col -= (done * (done_conj * col).sum(axis=1)[:, None]).sum(axis=0)
                col /= np.sqrt((col.real**2 + col.imag**2).sum(axis=0))
        return q[:, :, 0].T if size is None else q.transpose(1, 0, 2)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("size", [None, 2 * arczeta.group._BLOCK + 5])
    def test_reciprocal_scaling_matches_division(self, m, size):
        # numpy divides complex by real as complex division, whose bits are
        # those of a multiply by the reciprocal; so are the ball directions'
        got = haar_unitary(m, np.random.default_rng(60 + m), size=size)
        ref = self._division_haar(m, np.random.default_rng(60 + m), size=size)
        assert np.array_equal(got, ref)
        u, d = sample_ball(m, 1.5, np.random.default_rng(m), 2 * arczeta.group._BLOCK + 5)
        ref_rng = np.random.default_rng(m)
        ref_u = ref_rng.beta(m, 2.5, size=d.shape[0])
        ref_d = ref_rng.standard_normal(d.shape) + 1j * ref_rng.standard_normal(d.shape)
        ref_d /= np.linalg.norm(ref_d, axis=1, keepdims=True)
        assert np.array_equal(u, ref_u) and np.array_equal(d, ref_d)

    def test_unitary_completion(self, rng):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        q = unitary_completion(v)
        assert np.allclose(q[:, 0], v)
        assert np.max(np.abs(q.conj().T @ q - np.eye(3))) < 1e-12


def _power_sums(e, kmax):
    """p_1..p_kmax of the eigenvalues from rows e_0..e_m, by Newton's
    identities p_k = (-1)^(k-1) k e_k + sum_(i<k) (-1)^(i-1) e_i p_(k-i)."""
    m = e.shape[1] - 1
    p = [None]
    for k in range(1, kmax + 1):
        acc = (-1) ** (k - 1) * k * e[:, k] if k <= m else 0.0
        for i in range(1, min(k - 1, m) + 1):
            acc = acc + (-1) ** (i - 1) * e[:, i] * p[k - i]
        p.append(acc)
    return p


def _mean_stderr(x):
    mean = x.mean()
    return mean, math.sqrt(float(np.mean(np.abs(x - mean) ** 2)) / len(x))


# |x - target| within 3 stderr, above a rounding floor for the moments that
# are constant at m = 1
ROUNDING = 1e-12


class TestHaarCharRows:
    """The Verblunsky-coefficient draw of Haar characteristic polynomials,
    against the Haar matrix route and the Diaconis-Shahshahani moments."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_diaconis_shahshahani_moments(self, m):
        # E|tr U^k|^2 = min(k, m) for k <= 2m and E|tr U|^(2k) = k! for k <= m
        # (Diaconis & Shahshahani, J. Appl. Probab. 31A, 1994)
        e = haar_char_rows(m, np.random.default_rng(60 + m), 200_000)
        p = _power_sums(e, 2 * m)
        for k in range(1, 2 * m + 1):
            mean, se = _mean_stderr(np.abs(p[k]) ** 2)
            assert abs(mean - min(k, m)) <= 3 * se + ROUNDING, (k, mean, se)
        for k in range(1, m + 1):
            mean, se = _mean_stderr(np.abs(p[1]) ** (2 * k))
            assert abs(mean - math.factorial(k)) <= 3 * se + ROUNDING, (k, mean, se)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_schur_moments_agree_with_the_matrix_route(self, m):
        # the old Schur chunk, char_poly_batch of haar_unitary, is the oracle:
        # E|s_lam|^2, E|s_mu|^2 and the cross moment E[s_lam conj(s_mu)] agree
        # within 3 combined stderr, and the cross moment is zero
        lam, mu = [2] + [1] * (m - 1), [1] + [0] * (m - 1)
        size = 100_000
        routes = (haar_char_rows(m, np.random.default_rng(70 + m), size),
                  char_poly_batch(haar_unitary(m, np.random.default_rng(80 + m), size=size)))
        stats = []
        for e in routes:
            s_lam, s_mu = schur_eval_batch(lam, e), schur_eval_batch(mu, e)
            stats.append([_mean_stderr(x) for x in
                          (np.abs(s_lam) ** 2, np.abs(s_mu) ** 2, s_lam * s_mu.conj())])
        for (a, sa), (b, sb) in zip(*stats):
            assert abs(a - b) <= 3 * math.hypot(sa, sb) + ROUNDING, (a, b)
        cross, se = stats[0][2]
        assert abs(cross) <= 3 * se, cross

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_self_reciprocal_unimodular(self, m):
        # the characteristic polynomial of a unitary is self-reciprocal:
        # e_(m-k) = e_m conj(e_k), and |det U| = |e_m| = 1
        e = haar_char_rows(m, np.random.default_rng(m), 20_000)
        assert e.shape == (20_000, m + 1) and np.all(e[:, 0] == 1.0)
        assert np.abs(np.abs(e[:, m]) - 1.0).max() <= 1e-14
        for k in range(m + 1):
            assert np.abs(e[:, m - k] - e[:, m] * e[:, k].conj()).max() <= 1e-14, k

    @pytest.mark.parametrize("m", [1, 3])
    def test_consumes_one_uniform_array(self, m):
        # m phases and m - 1 radii in one (2m - 1, size) draw, and nothing else
        used, ref = np.random.default_rng(2), np.random.default_rng(2)
        haar_char_rows(m, used, 1_000)
        ref.random((2 * m - 1, 1_000))
        assert used.bit_generator.state == ref.bit_generator.state

    def test_empty_group_refused(self, rng):
        with pytest.raises(InvalidParameterError):
            haar_char_rows(0, rng, 10)


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

    def test_22_weight_is_ball_volume_and_draws_inside(self, rng):
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


class TestWeightedBallVolume:
    def test_matches_beta_form(self):
        # the exp-of-log-gamma route pi**m B(m, e + 1) / Gamma(m), a
        # test-only reference; it loses digits at large e
        from scipy.special import betaln, gammaln

        for m in range(1, 6):
            for e in (-0.9, -0.5, 0.0, 0.5, 3.0, 40.0):
                ref = math.exp(m * math.log(math.pi) + betaln(m, e + 1.0) - gammaln(m))
                assert math.isclose(weighted_ball_volume(m, e), ref, rel_tol=1e-13), (m, e)

    def test_unweighted_is_the_ball_volume(self):
        for m in range(1, 6):
            assert math.isclose(weighted_ball_volume(m, 0), math.pi**m / math.factorial(m),
                                rel_tol=1e-15)

    @pytest.mark.parametrize("e", [-1.0, -1.5])
    def test_divergent_exponent_refused(self, e):
        for m in (1, 3):
            with pytest.raises(ConvergenceError, match="non-integrable"):
                weighted_ball_volume(m, e)


class TestCpow:
    def test_sign_flip_bit_exact(self, rng):
        z = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        for k in (1, 2, 3, -2, 5):
            a = power(z, k) * power(z, -k)
            b = power(-z, k) * power(-z, -k)
            assert np.array_equal(a, b)
