import concurrent.futures
import functools
import itertools
import json
import math
import os
import pathlib
import signal
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import arczeta.characters
import arczeta.group
import arczeta.verify
from arczeta.characters import psi_pi
from arczeta.cli import build_report
from arczeta.errors import ConvergenceError, InvalidParameterError
from arczeta.fock import MatrixCoefficient
from arczeta.group import random_group_element
from arczeta.verify import (
    Estimate,
    _reduce_mean,
    _spread,
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
    Case,
    ClosedValue,
    admissible_sweep,
    c_squared,
    classify_theta,
    closed_S,
    closed_T,
    closed_T_factors,
    dual_S_arguments,
    weyl_dim,
    zeta_closed,
)

from conftest import embed, lam

F = Fraction
# (calling pid, CPU set) of each CPU pin that TestForkedSubstreams.pins
# recorded in this process
PINS = []


# work that _spread pickles to its workers: module-level functions


def constant_chunk(rng, size):
    return np.full(size, 0.2 + 0j)


def normal_chunk(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def fail_outside(parent, rng, size):
    """A chunk that raises in any process but ``parent``."""
    if os.getpid() != parent:
        raise ConvergenceError(f"substream of {size} failed")
    return normal_chunk(rng, size)


def fail_inside(parent, rng, size):
    """A chunk that raises in ``parent`` and outlasts any test elsewhere."""
    if os.getpid() == parent:
        raise InvalidParameterError("parent substream failed")
    time.sleep(60)  # ended by the parent's kill, long before this
    return normal_chunk(rng, size)


def last_pin(i):
    return i, PINS[-1]


def own_affinity(i):
    return os.sched_getaffinity(0)


def process_id(i):
    return os.getpid()


def alive(pid):
    """Whether process ``pid`` still runs: a zombie has ended."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


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
        # the factor s - kappa_1 + iota_1 - 1 sits within 1/2 of the pole
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

    def test_quadrature_where_both_weights_vary(self):
        # closed_S's product for two varying weights, against the rule that
        # is exact on these polynomial integrands: every pair of varying
        # dominant weights with entries in {1, 0, -1} on six balls, iota
        # half-integral on every other pair, the smallest factor 1, 5/2 or 3/2
        def varying(k):
            return [w for w in itertools.combinations_with_replacement((1, 0, -1), k)
                    if len(set(w)) > 1]

        count = 0
        for p, q in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)):
            for a, (kap, iot) in enumerate(itertools.product(varying(p), varying(q))):
                iot = tuple(x + F(a % 2, 2) for x in iot)
                s = p + q + kap[0] - iot[-1] + (0, F(3, 2), F(1, 2))[a % 3]
                rep = verify_S(p, q, kap, iot, s)
                assert rep.details["method"] == "quad"
                assert rep.passed and rep.rel_err <= 1e-12, (p, q, kap, iot, s, rep.rel_err)
                count += 1
        assert count == 172

    @staticmethod
    def _quad_general(p, q, exponent, degree):
        """The rule with the squared Vandermonde taken at every m, as quad
        took it before m = 1 skipped its product over no pairs."""
        m, big = min(p, q), max(p, q)
        n, a, b = degree // 2 + m, exponent, big - m
        k = np.arange(1, n, dtype=float)
        two_k = 2.0 * k + a + b
        diag = np.concatenate([[(a - b) / (a + b + 2.0)],
                               (a - b) * (a + b) / (two_k * (two_k + 2.0))])
        off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b)
                      / (two_k**2 * (two_k + 1.0) * (two_k - 1.0)))
        t, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        grid = np.indices((n,) * m).reshape(m, -1).T
        eig = 0.5 * (1.0 + t[grid])
        i, j = np.triu_indices(m, 1)
        w = (vecs[0, grid] ** 2).prod(axis=1) * ((eig[:, i] - eig[:, j]) ** 2).prod(axis=1)
        volume = math.prod(arczeta.group.weighted_ball_volume(big, exponent + m - 1 - r)
                           for r in range(m))
        return eig, w * (volume / w.sum())

    @pytest.mark.parametrize("p, q", [(1, 1), (4, 1), (1, 3), (2, 2), (3, 2)])
    def test_rule_bits_match_the_general_expression(self, p, q):
        for exponent in (0.0, 0.5, 1.5, 3.0, 7.25):
            for degree in range(13):
                eig, w = arczeta.verify.quad(p, q, exponent, degree)
                ref_eig, ref_w = self._quad_general(p, q, exponent, degree)
                assert np.array_equal(eig, ref_eig) and np.array_equal(w, ref_w), (
                    p, q, exponent, degree)

    def test_22_mc_reports_health_and_no_acceptance_count(self):
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
        (2, 2, (1, 0), (1, 0), 5),
    ])
    def test_real_variance_gate(self, args):
        # a varying weight leaves real per-sample variance at min(p,q) >= 2,
        # so the 3-sigma rule is exercised, not its rounding floor; the last
        # pair varies on both sides
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
        mean, stderr, count = _reduce_mean(constant_chunk, 1_000_000, 2, 0)
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
                    assert rep.rel_err <= 1e-13, (str(lv), s, rep.rel_err)
                    assert rep.estimate.stderr <= 1e-12 * abs(rep.estimate.value), (str(lv), s)
                    cases += 1
        assert cases == 2142


    def test_largest_sweep_error(self):
        # the sweep's worst case, 6.85e-14 with LU on its length-3
        # Jacobi-Trudi matrices; the pivot-free expansion there gives
        # 1.29e-12, which is why schur_eval_batch keeps LAPACK for lengths >= 3
        rep = verify_T(classify_theta(lam("15/2", "7/2", "5/2", "3/2", "1/2")), F(5, 2))
        assert rep.rel_err <= 1e-13, rep.rel_err


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

    # the benchmark's Monte Carlo zeta ops (seeds 1000.., 2 workers, 1e5
    # samples) before the chunk took det x from the psi block's e_n and its
    # minors from one expansion
    @pytest.mark.parametrize("seed, text, recorded", [
        (1000, "3/2,1/2", 0.3183098861837907 + 1.5147494217882703e-19j),
        (1001, "5/2,3/2,1/2", 0.2026423672846755 + 2.0533183757382487e-19j),
        (1002, "7/2,3/2,1/2", 0.048605771592571734 + 5.0776405483078364e-05j),
        (1003, "1/2,-7/2,-9/2", 0.006290370801956166 + 7.305645112741923e-05j),
        (1004, "3/2,1/2,-5/2,-9/2", 0.0019667226539469935 + 6.785749283004777e-06j),
    ])
    def test_benchmark_estimates_recorded(self, seed, text, recorded):
        rep = verify_zeta(lam(*text.split(",")), samples=100_000, seed=seed, workers=2)
        assert rep.passed
        assert abs(rep.estimate.value - recorded) <= 1e-14 * abs(recorded), rep.estimate.value

    def test_chunk_rng_consumption(self):
        # a chunk draws the ball point and the Haar factor and nothing else,
        # so the stream after it is unchanged
        from arczeta.group import haar_unitary, sample_ball

        th = classify_theta(lam("3/2", "1/2", "-5/2", "-9/2"))
        e = float(min(closed_T_factors(th, F(th.n + 1, 2)))) - 1.0
        rng = np.random.default_rng(12)
        zeta_integrand_samples(th, rng, 3_000, e, MatrixCoefficient(th))
        replay = np.random.default_rng(12)
        sample_ball(th.n, e, replay, 3_000)
        haar_unitary(th.n, replay, size=3_000)
        assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("text", ["3/2,1/2", "5/2,3/2,1/2", "9/2,5/2,3/2,1/2",
                                      "11/2,7/2,5/2,3/2,1/2", "1/2,-3/2", "1/2,-7/2,-9/2",
                                      "3/2,1/2,-5/2,-9/2", "5/2,3/2,1/2,-1/2,-5/2"])
    def test_blocked_chunk_matches_one_block(self, monkeypatch, text):
        # the draws are made for the whole chunk and the arithmetic runs block
        # by block; only the last bits may move, where numpy elides a
        # temporary of 256 KiB or more (it multiplies b * a for a * b), which
        # a block of _BLOCK samples never is
        th = classify_theta(lam(*text.split(",")))
        e = float(min(closed_T_factors(th, F(th.n + 1, 2)))) - 1.0
        mc = MatrixCoefficient(th)
        size = 2 * arczeta.group._BLOCK + 37
        blocked_rng, one_rng = np.random.default_rng(21), np.random.default_rng(21)
        blocked = zeta_integrand_samples(th, blocked_rng, size, e, mc)
        flipped = zeta_integrand_samples(th, np.random.default_rng(21), size, e, mc,
                                         flip_roots=True)
        monkeypatch.setattr(arczeta.group, "_BLOCK", size + 1)
        one = zeta_integrand_samples(th, one_rng, size, e, mc)
        assert blocked_rng.bit_generator.state == one_rng.bit_generator.state
        np.testing.assert_allclose(blocked, one, rtol=1e-13, atol=0)
        assert np.array_equal(flipped, blocked)

    def test_chunk_memory_peak(self):
        # the chunk holds its draws and one block of temporaries: one
        # 50,000-sample chunk at n = 3 peaks at 19 MB, against 40 MB when
        # every pass ran over the whole chunk
        import tracemalloc

        th = classify_theta(lam("3/2", "1/2", "-5/2", "-9/2"))
        e = float(min(closed_T_factors(th, F(th.n + 1, 2)))) - 1.0
        mc = MatrixCoefficient(th)
        tracemalloc.start()
        try:
            zeta_integrand_samples(th, np.random.default_rng(3), 50_000, e, mc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6, peak

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_det_x_is_e_n_over_sech(self, n):
        # the psi block (I + (sech - 1) d d*) x has determinant sech det x,
        # which is how the chunk gets det x without a determinant call
        from arczeta.characters import char_poly_batch
        from arczeta.group import haar_unitary, sample_ball

        rng = np.random.default_rng(30 + n)
        u, dirs = sample_ball(n, 0.0, rng, 20_000)
        x = haar_unitary(n, rng, size=20_000)
        sech = (1.0 - u) ** 0.5
        d = dirs.T
        block = x + (sech - 1.0) * (d[:, None] * np.einsum("in,ijn->jn", d.conj(), x)[None])
        det_x = char_poly_batch(block)[:, n] / sech
        assert np.max(np.abs(det_x - np.linalg.det(x.transpose(2, 0, 1)))) <= 1e-12

    def test_chunks_call_lapack_det_only_for_long_jacobi_trudi(self, monkeypatch):
        # the zeta chunk takes det x from e_n and the coefficient's minors
        # from one expansion; the batch Schur evaluator keeps LAPACK only for
        # Jacobi-Trudi matrices of size 3 and more
        shapes = []
        det = np.linalg.det

        def recorded(a):
            shapes.append(np.shape(a))
            return det(a)

        monkeypatch.setattr(np.linalg, "det", recorded)
        for text in ("3/2,1/2", "5/2,3/2,1/2", "1/2,-7/2,-9/2", "9/2,7/2,3/2,1/2"):
            verify_zeta(lam(*text.split(",")), samples=2000, seed=1)
        verify_schur_orthogonality([[2, 1], [2, 1, 0]], samples=2000, seed=1)
        assert shapes == []
        verify_schur_orthogonality([[3, 2, 1, 0]], samples=2000, seed=1)
        assert shapes and all(s[-1] >= 3 for s in shapes)

    @pytest.mark.parametrize("text", ["3/2,1/2", "7/2,3/2,1/2", "1/2,-3/2,-5/2",
                                      "3/2,1/2,-5/2,-9/2"])
    def test_chunk_psi_is_psi_pi_at_sampled_point(self, text):
        # with a coefficient of one, a chunk sample is c_norm (1-u)^(-(n+1)/2-e)
        # times psi_pi(h_z diag(x, 1)) at the replayed draw
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
        psi = vals / (weighted_ball_volume(n, e) * (1.0 - u) ** (-0.5 * (n + 1) - e))
        for i in range(size):
            k = np.zeros((n + 1, n + 1), dtype=complex)
            k[:n, :n], k[n, n] = x[:, :, i], 1.0
            g = GroupElement(h_from_z(math.sqrt(u[i]) * dirs[i]).matrix @ k)
            ref = psi_pi(g, th)
            assert abs(psi[i] - ref) <= 1e-12 * abs(ref), (text, i)

    @pytest.mark.parametrize("text", ["3/2,1/2", "7/2,3/2,1/2", "1/2,-7/2,-9/2",
                                      "3/2,1/2,-5/2,-9/2", "1/2,-3/2,-5/2",
                                      "15/2,11/2,7/2,1/2"])
    def test_centre_of_k_acts_trivially(self, text):
        # the reference samples (z, diag(x, y)) on the chunk's draws and an
        # independent uniform angle of y: y in block_1 of both factors, half
        # the angle off the root ratio.  The centre of K acts on the two
        # factors by inverse characters, so the chunk, which takes y = 1,
        # must give the same samples.  The ball blocks are full matrices here
        from arczeta.characters import char_poly_batch, psi_batch
        from arczeta.group import haar_unitary, sample_ball, weighted_ball_volume

        th = classify_theta(lam(*text.split(",")))
        n, size = th.n, 20_000
        e = float(min(closed_T_factors(th, F(n + 1, 2)))) - 1.0
        mc = MatrixCoefficient(th)
        vals = zeta_integrand_samples(th, np.random.default_rng(31), size, e, mc)
        rng = np.random.default_rng(31)
        u, dirs = sample_ball(n, e, rng, size)
        x = haar_unitary(n, rng, size=size)
        angle = np.random.default_rng(32).uniform(0.0, 2.0 * np.pi, size=size)
        y = np.exp(1j * angle)
        one_minus_u = 1.0 - u
        dd = dirs[:, :, None] * dirs[:, None, :].conj()

        def ball_block(scale):
            ball = np.eye(n) + (scale - 1.0)[:, None, None] * dd
            return np.einsum("bij,jkb->ikb", ball, x)

        sech = one_minus_u**0.5
        e_psi = char_poly_batch(ball_block(sech))
        ratio = np.exp(0.5j * np.angle(e_psi[:, n])) * np.exp(-0.5j * angle)
        psi = psi_batch(th, e_psi, one_minus_u ** (-0.5) * y, sech * ratio)
        bz_scale = one_minus_u ** (-0.5 if th.case is Case.I else 0.5)
        coeff = mc.evaluate(ball_block(bz_scale), bz_scale * y, ratio)
        ref = (weighted_ball_volume(n, e) * coeff * psi
               * one_minus_u ** (-0.5 * (n + 1) - e))
        gap = np.max(np.abs(vals - ref)) / np.max(np.abs(ref))
        assert gap <= 1e-13, (text, gap)

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
            phi = harmonic_hwv(th)
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
                g = h_from_z(z).matrix @ embed(k)
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


class TestRanksFiveAndSix:
    """Criteria 1, 2 and 11 and the radial route on n = 5, 6, where the
    paper's formulas hold as they do on the n = 1..4 sweeps of the
    acceptance suite."""

    @pytest.fixture(scope="class")
    def sweeps(self):
        return {n: admissible_sweep(n, F(15, 2)) for n in (5, 6)}

    def test_projection_identity_and_bound(self, sweeps):
        # criteria 1 and 2 at zero tolerance
        total = 0
        for n, lams in sweeps.items():
            for lv in lams:
                th = classify_theta(lv)
                c2 = c_squared(th)
                rhs = closed_T(th, F(n + 1, 2))
                assert closed_S(*dual_S_arguments(th), 0) * c2 == rhs, str(lv)
                assert zeta_closed(th) == rhs / weyl_dim(lv), str(lv)
                assert 0 < c2 <= 1 and (c2 == 1) == (th.p == 0 or th.q == 0), str(lv)
                total += 1
        assert total == 534

    def test_formal_degree_consistency(self, sweeps):
        # criterion 11
        for lams in sweeps.values():
            rep = verify_formal_degree(lams)
            assert rep.passed, rep.details["mismatches"]

    def test_radial_route(self):
        count = 0
        for n in (5, 6):
            for lv in admissible_sweep(n, F(11, 2)):
                rep = verify_zeta(lv, method="radial")
                assert rep.passed and rep.rel_err <= 1e-8, str(lv)
                count += 1
        assert count == 125


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

    # the benchmark's Schur ops (seeds 1010.., 2 workers, 5e4 samples) since the
    # chunk draws its characteristic polynomials from Verblunsky coefficients
    @pytest.mark.parametrize("seed, weight, mean, stderr", [
        (1010, (1, 0), 0.9996973902187731, 0.004480764299996145),
        (1011, (2, 1), 1.000761547331063, 0.004452179768818385),
        (1012, (2, 0), 0.991647309319208, 0.006244676299724883),
        (1013, (3, 1), 0.9904137770939546, 0.006259976966596217),
        (1014, (1, 0, 0), 0.9951923508059719, 0.004470435086874617),
        (1015, (1, 1, 0), 0.9988730519834048, 0.004434808252064109),
        (1016, (2, 1, 0), 1.004590417575302, 0.011857850761215843),
        (1017, (2, 2, 1), 1.0058575987472906, 0.004532987435584822),
        (1018, (3, 1, 0), 0.9839156073716421, 0.016005272208669912),
    ])
    def test_benchmark_schur_estimates_recorded(self, seed, weight, mean, stderr):
        rep = verify_schur_orthogonality([list(weight)], samples=50_000, seed=seed, workers=2)
        (row,) = rep.details["rows"]
        assert rep.passed
        assert abs(row["mean"] - mean) <= 1e-14 * mean, row["mean"]
        assert abs(row["stderr"] - stderr) <= 1e-14 * stderr, row["stderr"]

    def test_schur_chunk_draws_no_matrix(self, monkeypatch):
        # the Schur chunk takes its e-rows from haar_char_rows: no Haar matrix
        # and no characteristic polynomial from traces
        def refuse(*args, **kwargs):
            raise AssertionError("matrix route on the Schur chunk")

        monkeypatch.setattr(arczeta.verify, "haar_unitary", refuse)
        monkeypatch.setattr(arczeta.verify, "char_poly_batch", refuse)
        assert verify_schur_orthogonality([[2, 1], [2, 1, 0]], samples=2000, seed=1).passed

    def test_monte_carlo_chunks_compute_no_eigenvalues(self, monkeypatch):
        # the zeta and verify_S chunks take their characteristic polynomial
        # from traces, the Schur chunk from Verblunsky coefficients, and all go
        # through the one batch evaluator
        def refuse(*args, **kwargs):
            raise AssertionError("eigenvalues computed on a Monte Carlo path")

        calls = []
        batch = arczeta.verify.schur_eval_batch

        def counted(mu, e):
            calls.append(len(mu))
            return batch(mu, e)

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
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
        # the domain integrand: (0, 0) is a det power, (2, 1) one Schur batch
        dom = verify_S(2, 2, (0, 0), (2, 1), 6, method="mc", samples=2000, seed=1)
        assert dom.verdict in ("PASS", "FAIL") and calls == [2, 3, 2, 2]


class TestForkedSubstreams:
    """Worker substreams and Prop 6.1 trials in persistent worker processes:
    the same bits as in-process, a bounded process count forked once per
    pool, one pinned CPU per process, and no worker left behind."""

    @staticmethod
    def assert_no_children():
        """No child is left once the pool stops."""
        arczeta.verify._stop_pool()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def pins(self, monkeypatch):
        """Record each os.sched_setaffinity call in PINS instead of making it:
        the faked CPUs need not exist."""
        PINS.clear()
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda pid, cpus: PINS.append((os.getpid(), set(cpus))))
        yield PINS
        PINS.clear()

    @pytest.fixture
    def forks(self, monkeypatch, pins):
        """Two usable CPUs (pins recorded, not made); count the real forks."""
        pids = []
        fork = os.fork

        def counted():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", counted)
        return pids

    @staticmethod
    def in_process(monkeypatch):
        """One usable CPU from here on: every spread runs in the caller."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    @pytest.mark.parametrize("cpus, workers, children", [
        ({0, 1}, 2, 1), ({0, 1}, 3, 1), ({0, 1}, 64, 1), ({0, 1, 2}, 2, 1),
        ({0, 1, 2}, 3, 2), ({0}, 3, 0), ({0, 1}, 1, 0)])
    def test_process_count_bounded_by_cpus(self, forks, monkeypatch, cpus, workers, children):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        spread = _reduce_mean(normal_chunk, 10 * workers, workers, 4)
        assert len(forks) == children
        self.in_process(monkeypatch)
        assert spread == _reduce_mean(normal_chunk, 10 * workers, workers, 4)
        assert len(forks) == children
        self.assert_no_children()

    def test_second_spread_forks_nothing(self, forks):
        first = _reduce_mean(normal_chunk, 22, 2, 0)
        assert len(forks) == 1
        assert _reduce_mean(normal_chunk, 22, 2, 0) == first
        assert _spread(process_id, [0, 1, 2]) == [os.getpid(), forks[0], os.getpid()]
        assert len(forks) == 1
        self.assert_no_children()

    def test_threads_take_turns(self, forks):
        # four threads spread at once over the one worker; each must read
        # its own results back
        expected = [_reduce_mean(normal_chunk, 40, 2, seed) for seed in range(8)]
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(_reduce_mean, normal_chunk, 40, 2, seed) for seed in range(8)]
            assert [future.result(timeout=60) for future in futures] == expected
        assert len(forks) == 1
        self.assert_no_children()

    def test_workers_below_one_refused(self, forks):
        with pytest.raises(InvalidParameterError, match="^need at least one worker, got 0$"):
            _reduce_mean(normal_chunk, 100, 0, 0)
        assert forks == []

    def test_workers_above_samples_refused(self, monkeypatch):
        # one sample per worker at most; past that, refused before a budget or
        # a generator is built for each worker
        assert _reduce_mean(normal_chunk, 3, 3, 0)[2] == 3

        def unreachable(*args):
            raise AssertionError("per-worker lists built")

        monkeypatch.setattr(arczeta.verify, "_split_budget", unreachable)
        monkeypatch.setattr(arczeta.verify, "_substreams", unreachable)
        with pytest.raises(InvalidParameterError,
                           match="^need at most one worker per sample, got 101 workers for 100 samples$"):
            _reduce_mean(normal_chunk, 100, 101, 0)

    def test_child_exception_reraised(self, forks):
        chunk = functools.partial(fail_outside, os.getpid())
        with pytest.raises(ConvergenceError, match="^substream of 50 failed$"):
            _reduce_mean(chunk, 100, 2, 0)
        # the worker that raised is idle, not killed: the next spread reuses it
        assert _reduce_mean(normal_chunk, 100, 2, 0)[2] == 100
        assert len(forks) == 1
        self.assert_no_children()

    def test_parent_exception_kills_children(self, forks, pins):
        chunk = functools.partial(fail_inside, os.getpid())
        start = time.perf_counter()
        with pytest.raises(InvalidParameterError, match="^parent substream failed$"):
            _reduce_mean(chunk, 100, 2, 0)
        assert time.perf_counter() - start < 30
        assert len(forks) == 1
        assert pins[-1] == (os.getpid(), {0, 1})  # the caller's affinity restored
        # the busy worker is killed and reaped before the call raises
        assert arczeta.verify._workers == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(), reason="no /proc")
    def test_dead_worker_replaced_with_the_same_bits(self, forks):
        def report():
            rep = verify_zeta(lam("7/2", "3/2", "1/2"), samples=3000, seed=2, workers=2)
            doc = build_report("verify", report=rep)
            del doc["timestamp"], doc["wall_time"]
            return json.dumps(doc, sort_keys=True)

        first = report()
        os.kill(forks[0], signal.SIGKILL)
        deadline = time.monotonic() + 10
        while alive(forks[0]) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not alive(forks[0])
        assert report() == first
        assert len(forks) == 2
        self.assert_no_children()

    def test_forked_caller_starts_its_own_pool(self, forks):
        assert _spread(process_id, [0, 1]) == [os.getpid(), forks[0]]
        read_end, write_end = os.pipe()
        child = os.fork()
        if child == 0:
            try:
                os.close(read_end)
                arczeta.verify._stop_pool()  # as at the child's exit: the parent's pool stays
                with open(write_end, "w") as out:
                    out.write(json.dumps([os.getpid(), *_spread(process_id, [0, 1])]))
                arczeta.verify._stop_pool()
            finally:
                os._exit(0)
        os.close(write_end)
        with open(read_end) as src:
            me, *ran_on = json.loads(src.read())
        os.waitpid(child, 0)
        assert ran_on[0] == me and ran_on[1] not in (os.getpid(), me, forks[0])
        # the caller's pool is untouched: the same worker, no new fork
        assert _spread(process_id, [0, 1]) == [os.getpid(), forks[0]]
        assert forks == [forks[0], child]
        self.assert_no_children()

    def test_each_process_pins_its_own_cpu(self, forks, pins, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 0, 2})
        # in each process the last recorded pin is that process's own
        out = _spread(last_pin, list(range(7)))
        assert len(forks) == 2
        procs = [os.getpid(), *forks]
        assert out == [(i, (procs[i % 3], {(0, 2, 5)[i % 3]})) for i in range(7)]
        assert pins == [(os.getpid(), {0}), (os.getpid(), {0, 2, 5})]
        self.assert_no_children()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_real_pins_leave_affinity_unchanged(self):
        before = os.sched_getaffinity(0)
        cpus = sorted(before)
        procs = min(4, len(cpus))
        out = _spread(own_affinity, list(range(4)))
        assert out == [{cpus[i % procs]} if procs > 1 else before for i in range(4)]
        assert os.sched_getaffinity(0) == before
        self.assert_no_children()

    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_prop61_reports_identical_on_one_and_two_cpus(self, forks, monkeypatch, seed):
        def report():
            doc = build_report("verify", report=verify_prop61(trials=20, seed=seed))
            del doc["timestamp"], doc["wall_time"]
            return json.dumps(doc, sort_keys=True)

        spread = report()
        assert len(forks) == 1
        self.in_process(monkeypatch)
        assert report() == spread
        assert len(forks) == 1
        assert json.loads(spread)["verdict"] == "PASS"
        self.assert_no_children()

    def test_prop61_child_trial_error_reraised(self, forks, monkeypatch):
        parent = os.getpid()
        route = arczeta.verify.omega_matcoef

        def failing(kp, t, k, theta, phi):
            if os.getpid() != parent:
                raise ConvergenceError(f"trial at n = {theta.n} failed")
            return route(kp, t, k, theta, phi)

        # the worker forks at the first spread, so it sees this patch
        monkeypatch.setattr(arczeta.verify, "omega_matcoef", failing)
        with pytest.raises(ConvergenceError, match="^trial at n = 1 failed$"):
            verify_prop61(trials=2, seed=0)
        assert len(forks) == 1
        self.assert_no_children()

    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_reports_identical_to_in_process(self, forks, monkeypatch, workers, seed):
        # several chunks per substream, so the merge crosses chunks and workers
        monkeypatch.setattr(arczeta.verify, "DEFAULT_CHUNK", 700)
        zeta = [lam(*text.split(",")) for text in (
            "3/2,1/2", "7/2,3/2,1/2", "9/2,5/2,3/2,1/2",              # Case I, n = 1..3
            "1/2,-3/2", "1/2,-7/2,-9/2", "3/2,1/2,-5/2,-9/2")]        # Case II
        calls = [(lambda k, s=lv: verify_zeta(s, **k)) for lv in zeta] + [
            lambda k: verify_S(2, 2, (0, 0), (2, 1), 6, method="mc", **k),
            lambda k: verify_S(1, 2, -1, (2, 1), 3, method="mc", **k),
            lambda k: verify_T(classify_theta(lam("7/2", "3/2", "1/2")), 3, method="mc", **k),
            lambda k: verify_schur_orthogonality([[2, 1], [2, 1, 0]], **k),
        ]

        def report(call):
            doc = build_report("verify", report=call({"samples": 3000, "seed": seed,
                                                      "workers": workers}))
            del doc["timestamp"], doc["wall_time"]
            return json.dumps(doc, sort_keys=True)

        forked = [report(call) for call in calls]
        assert len(forks) == 1  # one worker for every call: the pool persists
        self.in_process(monkeypatch)
        assert forked == [report(call) for call in calls]
        assert len(forks) == 1
        self.assert_no_children()

    def test_cli_child_prints_nothing(self, tmp_path):
        # a child leaves through os._exit, so no output buffer is flushed twice
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        out = tmp_path / "z.json"
        proc = subprocess.run(
            [sys.executable, "-m", "arczeta.cli", "verify-zeta", "--lambda", "3/2,1/2",
             "--workers", "2", "--samples", "200000", "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [f"verify-zeta: PASS -> {out}"]
        assert json.loads(out.read_text())["estimate"]["samples"] == 200_000

    @pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(), reason="no /proc")
    def test_cli_leaves_no_worker_alive(self, tmp_path):
        # the verb's process logs each worker it forks, then starts a process
        # that holds the workers' task pipes, so EOF alone cannot end them;
        # none runs once the verb's process returns
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        probe = ("import os, subprocess, sys\n"
                 "import arczeta.cli, arczeta.verify\n"
                 "fork = os.fork\n"
                 "def logged():\n"
                 "    pid = fork()\n"
                 "    if pid:\n"
                 "        print('worker', pid, file=sys.stderr, flush=True)\n"
                 "    return pid\n"
                 "os.fork = logged\n"
                 "code = arczeta.cli.main(sys.argv[1:])\n"
                 "tasks = [worker.tasks for worker in arczeta.verify._workers]\n"
                 "holder = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'],\n"
                 "                          pass_fds=tasks)\n"
                 "print('holder', holder.pid, file=sys.stderr, flush=True)\n"
                 "sys.exit(code)\n")
        out, err = tmp_path / "stdout", tmp_path / "stderr"
        with open(out, "w") as stdout, open(err, "w") as stderr:
            proc = subprocess.run(
                [sys.executable, "-c", probe, "verify-zeta", "--lambda", "3/2,1/2",
                 "--workers", "2", "--samples", "200000", "--out", str(tmp_path / "z.json")],
                stdout=stdout, stderr=stderr, env={**os.environ, "PYTHONPATH": str(src)},
                timeout=120)
        pids = {}
        for line in err.read_text().splitlines():
            if line.startswith(("worker ", "holder ")):
                kind, pid = line.split()
                pids.setdefault(kind, []).append(int(pid))
        try:
            assert proc.returncode == 0, err.read_text()
            assert len(pids.get("worker", [])) == min(2, len(os.sched_getaffinity(0))) - 1
            assert not [pid for pid in pids.get("worker", []) if alive(pid)]
        finally:
            for pid in pids.get("worker", []) + pids.get("holder", []):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    @pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists()
                        or len(os.sched_getaffinity(0)) < 2, reason="no /proc or one CPU")
    def test_killed_caller_worker_exits_by_eof(self):
        # SIGKILL runs no exit handler: the worker ends on its task pipe's EOF
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        probe = ("import time\n"
                 "from arczeta.verify import _spread, _workers\n"
                 "assert _spread(abs, [-1, -2]) == [1, 2]\n"
                 "print(*(worker.pid for worker in _workers), flush=True)\n"
                 "time.sleep(60)\n")
        with subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}) as proc:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
            proc.kill()
        assert len(pids) == 1
        deadline = time.monotonic() + 10
        while alive(pids[0]) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not alive(pids[0])

    def test_cli_import_loads_no_pool(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        probe = ("import sys, arczeta.cli; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
