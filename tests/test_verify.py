import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import arczeta.characters
import arczeta.verify
from arczeta.characters import psi_pi
from arczeta.errors import ConvergenceError, InvalidParameterError
from arczeta.fock import MatrixCoefficient
from arczeta.group import random_group_element
from arczeta.verify import (
    Estimate,
    _reduce_mean,
    verify_at_lemma,
    verify_formal_degree,
    verify_prop61,
    verify_S,
    verify_schur_orthogonality,
    verify_T,
    verify_zeta,
    zeta_integrand_samples,
)
from arczeta.weights import (
    ClosedValue,
    admissible_sweep,
    classify_theta,
    closed_T,
    closed_T_factors,
)

from conftest import lam

F = Fraction


class TestEstimate:
    def test_negative_stderr_rejected(self):
        with pytest.raises(Exception):
            Estimate(1.0, -1.0, 10, 0)


class TestVerifyS:
    def test_quadrature_basic(self):
        rep = verify_S(1, 1, 0, 0, 3)
        assert rep.passed and rep.rel_err <= 1e-8
        assert rep.closed == ClosedValue(F(1, 2), 1)

    def test_quadrature_nontrivial_weights(self):
        rep = verify_S(2, 1, (F(-1), F(-2)), (F(1),), F(5, 2))
        assert rep.passed and rep.rel_err <= 1e-8

    def test_mc_21(self):
        rep = verify_S(2, 1, (-1, -1), 2, 2, method="mc", samples=60_000, seed=5)
        assert rep.passed

    def test_mc_12(self):
        rep = verify_S(1, 2, -1, (2, 1), 3, method="mc", samples=60_000, seed=6)
        assert rep.passed

    def test_pole_adjacent_refused(self):
        # the factor iota - kappa - 1 + s sits within 1/2 of the pole
        with pytest.raises(ConvergenceError):
            verify_S(1, 1, 0, 0, F(7, 5))

    @pytest.mark.parametrize("args", [
        (2, 2, (0, 0), (2, 1), 6),
        (3, 2, (0, 0, 0), (2, 1), 9),
        (2, 3, (0, 0), (2, 1, 1), 8),
        (3, 3, (0, 0, 0), (2, 1, 0), 9),
        (4, 4, (0, 0, 0, 0), (2, 1, 1, 0), 12),
        (3, 2, (1, 0, -1), (2, 2), 9),
    ])
    def test_quadrature_on_matrix_balls(self, args):
        # two-sided weights: the integrand varies on the spectrum at
        # min(p,q) >= 2, where the rule still integrates it exactly
        rep = verify_S(*args)
        assert rep.details["method"] == "quad"
        assert rep.passed and rep.rel_err <= 1e-12, (args, rep.rel_err)

    def test_rejection_sampler_path(self):
        # every point of the (2,2) draw is inside, so no acceptance count is reported
        rep = verify_S(2, 2, (0, 0), 1, 3, method="mc", samples=60_000, seed=8)
        assert rep.passed
        assert set(rep.details) == {"method", "relstd", "degenerate"}
        assert rep.details["method"] == "mc"

    def test_33_ball_passes(self):
        # every drawn point lies inside the (3,3) ball; one-dimensional
        # weights make the integrand constant, so the estimate is the closed value
        rep = verify_S(3, 3, (-1, -1, -1), (1, 1, 1), 8, method="mc", samples=100_000)
        assert rep.passed and rep.estimate.samples == 100_000
        assert math.isclose(rep.estimate.value.real, 8.3822333e-4, rel_tol=1e-7)
        assert rep.details["degenerate"] is True

    @pytest.mark.parametrize("args", [
        (2, 2, (0, 0), (2, 1), 6),
        (3, 3, (0, 0, 0), (2, 1, 0), 9),
        (2, 3, (0, 0), (2, 1, 1), 8),
    ])
    def test_real_variance_gate(self, args):
        # two-sided weights leave real per-sample variance at min(p,q) >= 2,
        # so the 3-sigma rule is exercised, not its rounding floor
        rep = verify_S(*args, method="mc", samples=200_000, seed=1, workers=2)
        relstd = rep.estimate.stderr * math.sqrt(rep.estimate.samples) / abs(rep.estimate.value)
        assert rep.passed and relstd > 0.05, (args, relstd)
        assert rep.details["relstd"] == relstd and rep.details["degenerate"] is False

    @pytest.mark.parametrize("call", [
        lambda: verify_S(2, 1, (-1, -1), 2, 2, method="mc", samples=0),
        lambda: verify_zeta(lam("3/2", "1/2"), samples=-5),
        lambda: verify_schur_orthogonality([[1, 0]], samples=0),
    ], ids=["verify_S", "verify_zeta", "verify_schur"])
    def test_samples_below_one_refused(self, call):
        with pytest.raises(InvalidParameterError, match="sample"):
            call()

    @pytest.mark.parametrize("call, allowed", [
        (lambda: verify_S(2, 1, (-1, -1), 2, 2, method="bogus"), "quad, mc"),
        (lambda: verify_T(classify_theta(lam("3/2", "1/2")), 1, method="bogus"), "quad, mc"),
        (lambda: verify_zeta(lam("3/2", "1/2"), samples=1000, method="bogus"), "mc, radial"),
    ], ids=["verify_S", "verify_T", "verify_zeta"])
    def test_unknown_method_refused(self, call, allowed):
        with pytest.raises(InvalidParameterError, match=allowed):
            call()


class TestReduceMean:
    def test_constant_integrand_has_no_variance(self):
        # a one-pass E|x|^2 - |Ex|^2 reports about 4e-12 here
        mean, stderr, count = _reduce_mean(lambda rng, size: np.full(size, 0.2 + 0j),
                                           1_000_000, 2, 0)
        assert count == 1_000_000 and abs(mean - 0.2) < 1e-15
        assert stderr <= 1e-15

    def test_merge_matches_direct_variance(self):
        # chunks of unequal size and mean merge to the pooled sample variance
        rng = np.random.default_rng(3)
        data = rng.standard_normal(250_003) * 2.0 + 1j * rng.standard_normal(250_003) + 5.0
        pos = {}

        def chunk(_rng, size):
            start = pos.get("at", 0)
            pos["at"] = start + size
            return data[start:start + size]

        mean, stderr, count = _reduce_mean(chunk, data.size, 1, 0)
        direct = math.sqrt(np.mean(np.abs(data - data.mean()) ** 2) / data.size)
        assert count == data.size and math.isclose(stderr, direct, rel_tol=1e-12)


class TestVerifyT:
    def test_case1_examples(self):
        th = classify_theta(lam("3/2", "1/2"))
        rep = verify_T(th, 1)
        assert rep.passed and abs(rep.estimate.value - math.pi / 2) < 1e-8
        th2 = classify_theta(lam("5/2", "3/2", "1/2"))
        rep2 = verify_T(th2, F(3, 2))
        assert rep2.passed and abs(rep2.estimate.value - math.pi**2 / 6) < 1e-7

    def test_case2(self):
        th = classify_theta(lam("-1/2", "-5/2"))
        rep = verify_T(th, 2)
        assert rep.passed

    def test_large_s_decay(self):
        th = classify_theta(lam("3/2", "1/2"))
        rep = verify_T(th, 4000)
        assert rep.passed and abs(rep.estimate.value) < 1e-3
        assert rep.rel_err <= 1e-10

    def test_mc_path(self):
        th = classify_theta(lam("7/2", "3/2", "1/2"))
        rep = verify_T(th, 3, method="mc", samples=50_000, seed=2)
        assert rep.passed

    def test_reports_as_verify_T_against_closed_T(self):
        th = classify_theta(lam("-1/2", "-5/2"))
        rep = verify_T(th, 2)
        assert rep.name == "verify_T" and rep.closed == closed_T(th, 2)
        assert rep.details == {"method": "quad", "nodes": 1}

    def test_quadrature_exact_on_the_sweep(self):
        # every convergent (theta, s) of the n=1..4 sweep to 15/2: the
        # Gauss-Jacobi rule is exact, so only rounding separates it from
        # closed_T, and its N versus N+1 gap is rounding as well
        cases = 0
        for n in range(1, 5):
            for lv in admissible_sweep(n, F(15, 2)):
                th = classify_theta(lv)
                for s in (F(n + 1, 2), F(n + 1), n + F(7, 2)):
                    rep = verify_T(th, s)
                    assert rep.rel_err <= 1e-12, (str(lv), s, rep.rel_err)
                    assert rep.estimate.stderr <= 1e-12 * abs(rep.estimate.value), (str(lv), s)
                    cases += 1
        assert cases == 2142


class TestVerifyZeta:
    def test_n1_value(self):
        rep = verify_zeta(lam("3/2", "1/2"), samples=50_000, seed=7)
        assert rep.passed
        assert abs(rep.estimate.value - 1 / math.pi) < 1e-9

    def test_radial_route_matches_mc(self):
        th = classify_theta(lam("7/2", "3/2", "1/2"))
        mc = verify_zeta(th, samples=200_000, seed=3)
        radial = verify_zeta(th, method="radial")
        band = 3 * mc.estimate.stderr + 3 * radial.estimate.stderr + 1e-12
        assert abs(mc.estimate.value - radial.estimate.value) <= band

    def test_radial_high_degree_without_warnings(self):
        # a high-degree n=3 datum: the rule stays exact to rounding, with no
        # warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = verify_zeta(lam("15/2", "5/2", "3/2", "1/2"), method="radial")
        assert rep.passed and rep.rel_err <= 1e-12, rep.rel_err

    def test_bit_reproducible(self):
        th = classify_theta(lam("7/2", "3/2", "1/2"))
        a = verify_zeta(th, samples=30_000, seed=11, workers=3)
        b = verify_zeta(th, samples=30_000, seed=11, workers=3)
        assert a.estimate.value == b.estimate.value
        assert a.estimate.stderr == b.estimate.stderr

    def test_worker_partition_changes_stream(self):
        th = classify_theta(lam("7/2", "3/2", "1/2"))
        a = verify_zeta(th, samples=30_000, seed=11, workers=3)
        c = verify_zeta(th, samples=30_000, seed=11, workers=2)
        assert a.estimate.value != c.estimate.value

    def test_stderr_scaling(self):
        th = classify_theta(lam("7/2", "3/2", "1/2"))
        small = verify_zeta(th, samples=10_000, seed=4)
        large = verify_zeta(th, samples=100_000, seed=4)
        ratio = small.estimate.stderr / large.estimate.stderr
        assert math.sqrt(10) / 2 <= ratio <= math.sqrt(10) * 2

    def test_root_flip_bit_identical(self):
        th = classify_theta(lam("7/2", "3/2", "1/2"))
        mc = MatrixCoefficient(th)
        e = float(min(closed_T_factors(th, F(th.n + 1, 2)))) - 1.0
        a = zeta_integrand_samples(th, np.random.default_rng(5), 4_000, e, mc, flip_roots=False)
        b = zeta_integrand_samples(th, np.random.default_rng(5), 4_000, e, mc, flip_roots=True)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("text", ["3/2,1/2", "7/2,3/2,1/2", "1/2,-3/2,-5/2",
                                      "3/2,1/2,-5/2,-9/2"])
    def test_chunk_psi_is_psi_pi_at_sampled_point(self, text):
        # with a coefficient of one, a chunk sample is c_norm (1-u)^(-(n+1)/2-e)
        # times psi_pi(h_z diag(x, y)) at the replayed draw; odd twists fix
        # psi only up to the sign of the root ratio, so compare squares
        from arczeta.group import (GroupElement, h_from_z, haar_unitary, sample_ball,
                                   weighted_ball_volume)

        class Ones:
            def evaluate(self, block_n, block_1, ratio):
                return np.ones(len(block_1), dtype=complex)

        th = classify_theta(lam(*text.split(",")))
        n, size = th.n, 40
        e = float(min(closed_T_factors(th, F(n + 1, 2)))) - 1.0
        vals = zeta_integrand_samples(th, np.random.default_rng(8), size, e, Ones())
        rng = np.random.default_rng(8)
        u, dirs = sample_ball(n, e, rng, size)
        x = haar_unitary(n, rng, size=size)
        y = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=size))
        psi = vals / (weighted_ball_volume(n, e) * (1.0 - u) ** (-0.5 * (n + 1) - e))
        for i in range(size):
            k = np.zeros((n + 1, n + 1), dtype=complex)
            k[:n, :n], k[n, n] = x[i], y[i]
            g = GroupElement(h_from_z(math.sqrt(u[i]) * dirs[i]).matrix @ k)
            ref = psi_pi(g, th) ** 2
            assert abs(psi[i] ** 2 - ref) <= 1e-12 * abs(ref), (text, i)

    def test_estimator_health_in_details(self):
        # criterion 9's (3/2,1/2) integrand is constant: the estimate passes on
        # the rounding floor, and the report says so
        flat = verify_zeta(lam("3/2", "1/2"), samples=100_000, seed=101)
        assert flat.details["degenerate"] is True and flat.details["relstd"] < 1e-12
        real = verify_zeta(lam("7/2", "3/2", "1/2"), samples=100_000, seed=101)
        assert real.details["degenerate"] is False
        assert math.isclose(real.details["relstd"], 1.3, rel_tol=0.05)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("text", ["7/2,3/2,1/2", "1/2,-7/2,-9/2", "3/2,1/2,-5/2,-9/2"])
    def test_real_variance_gate(self, text, seed):
        # per-sample relstd 1.3-3.1, where criterion 9's parameters sit at
        # ~1e-15: these exercise the 3-sigma rule, not its rounding floor
        rep = verify_zeta(lam(*text.split(",")), samples=200_000, seed=seed, workers=2)
        assert rep.passed and rep.details["relstd"] > 1.0, (text, seed, rep.details)

    def test_case_two_both_routes(self):
        # in-domain second-shape parameters verify end to end as well
        for text in ("-1/2,-5/2", "1/2,-3/2,-5/2", "1/2,-3/2"):
            th = classify_theta(lam(*text.split(",")))
            radial = verify_zeta(th, method="radial")
            mc = verify_zeta(th, samples=120_000, seed=9)
            assert radial.passed and mc.passed, text
            band = 3 * mc.estimate.stderr + 1e-10
            assert abs(mc.estimate.value - radial.estimate.value) <= band

    def test_large_degree_case_one_mc(self):
        # n=3, degree-15 highest-weight vector: the closed-form coefficient
        # keeps the per-datum setup trivial at this size
        rep = verify_zeta(lam("15/2", "11/2", "7/2", "1/2"), samples=20_000, seed=0)
        assert rep.passed

    def test_radial_route_full_sweep(self):
        # the deterministic character-reduced integral confirms the closed
        # value for every admissible parameter at small rank
        for n, bound in ((1, 4), (2, F(9, 2)), (3, F(7, 2))):
            for lv in admissible_sweep(n, bound):
                rep = verify_zeta(lv, method="radial")
                assert rep.passed and rep.rel_err <= 1e-8, str(lv)
        for lv in admissible_sweep(4, F(11, 2))[:5]:
            rep = verify_zeta(lv, method="radial")
            assert rep.passed and rep.rel_err <= 1e-8, str(lv)

    def test_pointwise_integrand_matches_transform_oracle(self):
        # the sampled integrand factor <sigma(b_z^+- k) phi, phi> (cosh t)^-(n+1)
        # equals <omega(h_z k) phi, phi> computed through the hyperbolic
        # transform, at explicit (z, k) points
        import math

        from arczeta.fock import (
            harmonic_hwv,
            omega_k,
            omega_matcoef_transform_route,
            bargmann_inner,
        )
        from arczeta.group import CoverElement, b_z_cover, cartan_decompose, h_from_z, haar_unitary

        rng = np.random.default_rng(12)
        for text in ("3/2,1/2", "5/2,3/2,1/2", "1/2,-1/2,-5/2"):
            th = classify_theta(lam(*text.split(",")))
            n = th.n
            phi = harmonic_hwv(th, exact=False)
            sign = +1 if th.case.value == "I" else -1
            for _ in range(5):
                z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                z *= rng.uniform(0.1, 0.85) / np.linalg.norm(z)
                k = CoverElement.from_blocks(haar_unitary(n, rng),
                                             np.exp(2j * np.pi * rng.uniform()))
                bz = b_z_cover(z)
                el = (bz if sign == +1 else bz.inverse()).compose(k)
                ch = 1.0 / math.sqrt(1.0 - float(np.vdot(z, z).real))
                lhs = ch ** (-(n + 1)) * bargmann_inner(omega_k(el, phi, th), phi)
                # independent route through the polar factorization of h_z k
                g = h_from_z(z).matrix @ k.embed()
                zp, t, k_z, k_fac = cartan_decompose(g)
                rhs = omega_matcoef_transform_route(
                    k_z, t, k_z.inverse().compose(k_fac), th, phi
                )
                assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1e-12), text


class TestFormalDegree:
    def test_singleton_trivially_passes(self):
        rep = verify_formal_degree([lam("3/2", "1/2")])
        assert rep.passed
        assert rep.closed == ClosedValue(F(1), -1)

    def test_examples_share_ratio(self):
        rep = verify_formal_degree([lam("3/2", "1/2"), lam("5/2", "1/2")])
        assert rep.passed and rep.closed == ClosedValue(F(1), -1)

    def test_sweeps(self):
        for n, bound in ((1, 4), (2, F(9, 2)), (3, F(9, 2))):
            lams = admissible_sweep(n, bound)
            assert len(lams) >= 5
            assert verify_formal_degree(lams).passed


class TestSuites:
    def test_prop61_small(self):
        rep = verify_prop61(trials=4, seed=9)
        assert rep.passed and rep.rel_err <= 1e-9

    def test_at_lemma(self):
        rep = verify_at_lemma()
        assert rep.passed and rep.details["monomials"] == 70

    def test_schur_without_weights_refused(self):
        with pytest.raises(InvalidParameterError, match="weight"):
            verify_schur_orthogonality([])

    def test_schur_orthogonality_small(self):
        rep = verify_schur_orthogonality([[1, 0], [2, 1], [1, 1, 0]], samples=40_000, seed=3)
        assert rep.passed

    def test_schur_constant_modulus_weight(self):
        # |chi|^2 == 1 identically for (2,2), so the standard error is zero
        # and only the rounding floor of the verdict rule keeps it passing
        for seed in range(40):
            rep = verify_schur_orthogonality([[2, 2]], samples=20_000, seed=seed)
            assert rep.passed, seed
        assert rep.details["rows"][0]["pass"] is True
        assert rep.details["rows"][0]["degenerate"] is True
        real = verify_schur_orthogonality([[2, 1]], samples=20_000, seed=0)
        assert real.details["rows"][0]["degenerate"] is False
        assert real.details["rows"][0]["relstd"] > 0.5

    def test_monte_carlo_chunks_compute_no_eigenvalues(self, monkeypatch):
        # both class-function chunks take their characteristic polynomial
        # from traces and go through the one batch evaluator
        def refuse(*args, **kwargs):
            raise AssertionError("eigvals called on a Monte Carlo path")

        calls = []
        batch = arczeta.verify.schur_eval_batch

        def counted(mu, e):
            calls.append(len(mu))
            return batch(mu, e)

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        # the zeta chunk reaches the batch evaluator through psi_batch, which
        # looks it up in arczeta.characters; the Schur chunk calls it directly
        monkeypatch.setattr(arczeta.characters, "schur_eval_batch", counted)
        monkeypatch.setattr(arczeta.verify, "schur_eval_batch", counted)
        zeta = verify_zeta(lam("5/2", "3/2", "1/2"), samples=2000, seed=1)
        assert zeta.verdict in ("PASS", "FAIL") and calls == [2]
        schur = verify_schur_orthogonality([[2, 1, 0]], samples=2000, seed=1)
        assert schur.verdict in ("PASS", "FAIL") and calls == [2, 3]
        # the scalar coefficient is the same evaluator on a batch of one
        g = random_group_element(2, np.random.default_rng(1))
        psi_pi(g, classify_theta(lam("5/2", "3/2", "1/2")))
        assert calls == [2, 3, 2]
