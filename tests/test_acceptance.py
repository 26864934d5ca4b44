"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single PASS line on success (visible with -s or in the
failure report otherwise); pytest -v shows one verdict line per criterion
either way.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from arczeta.characters import psi_pi, schur_eval
from arczeta.fock import (
    MatrixCoefficient,
    harmonic_hwv,
    highest_weight_check,
)
from arczeta.group import random_group_element
from arczeta.verify import (
    verify_at_lemma,
    verify_formal_degree,
    verify_prop61,
    verify_S,
    verify_schur_orthogonality,
    verify_zeta,
    zeta_integrand_samples,
)
from arczeta.weights import (
    Case,
    admissible_sweep,
    c_squared,
    classify_theta,
    closed_S,
    closed_S_factors,
    closed_T,
    closed_T_factors,
    dual_S_arguments,
    weyl_dim,
    zeta_closed,
)

from conftest import embed, lam, random_cover

F = Fraction
FULL_SWEEP_BOUND = F(15, 2)


def _report(num, text):
    print(f"CRITERION {num}: PASS - {text}")


@pytest.fixture(scope="module")
def full_sweep():
    return {n: admissible_sweep(n, FULL_SWEEP_BOUND) for n in (1, 2, 3, 4)}


@pytest.fixture(scope="module")
def prop61_cases():
    cases = [classify_theta(lv) for lv in admissible_sweep(1, 3)]
    cases += [
        classify_theta(lv)
        for lv in admissible_sweep(2, F(7, 2))
        if classify_theta(lv).case is Case.I
    ]
    return cases


def test_criterion_01_exact_projection_identity(full_sweep):
    total = 0
    for n, lams in full_sweep.items():
        for lv in lams:
            th = classify_theta(lv)
            lhs = closed_S(*dual_S_arguments(th), 0) * c_squared(th)
            rhs = closed_T(th, F(n + 1, 2))
            assert lhs == rhs, f"identity fails at {lv}"
            assert zeta_closed(th) == rhs / weyl_dim(lv), f"zeta != T/dim at {lv}"
            total += 1
    assert total > 500
    _report(1, f"c^2 * S(dual,0) == T((n+1)/2) exactly on {total} parameters, n=1..4")


def test_criterion_02_projection_norm_bound(full_sweep):
    total = 0
    for lams in full_sweep.values():
        for lv in lams:
            th = classify_theta(lv)
            c2 = c_squared(th)
            assert 0 < c2 <= 1, f"bound fails at {lv}"
            assert (c2 == 1) == (th.p == 0 or th.q == 0), f"equality case fails at {lv}"
            total += 1
    _report(2, f"0 < c^2 <= 1 with equality iff a factor is definite, {total} parameters")


def test_criterion_03_scalar_integral_quadrature_and_mc():
    # (1,1): deterministic quadrature on 20 convergent triples
    triples = []
    for kappa in (0, -1, -2, -3):
        for iota in (0, 1):
            for s in (2, 3, F(7, 2)):
                if min(closed_S_factors(1, 1, (kappa,), (iota,), s)) > F(1, 2):
                    triples.append((kappa, iota, s))
    triples = triples[:24]
    assert len(triples) >= 20
    for kappa, iota, s in triples:
        rep = verify_S(1, 1, kappa, iota, s)
        assert rep.passed and rep.rel_err <= 1e-8, (kappa, iota, s, rep.rel_err)

    # (2,1) and (1,2): Monte Carlo at one million samples
    for args in ((2, 1, (-1, -1), (2,), 2), (1, 2, (-1,), (2, 1), 3)):
        rep = verify_S(*args, method="mc", samples=1_000_000, seed=31)
        assert rep.passed, args
        assert rep.rel_err <= 0.02, (args, rep.rel_err)
    _report(3, f"closed scalar matches quadrature on {len(triples)} triples (rel<=1e-8) "
               "and Monte Carlo on (2,1)/(1,2) at 1e6 samples")


def test_criterion_04_hyperbolic_transform_exact():
    rep = verify_at_lemma(max_degree=4)
    assert rep.passed
    assert rep.details["monomials"] == 70 and not rep.details["mismatches"]
    _report(4, "closed hyperbolic transform equals kernel brute force on all 70 "
               "monomials of degree <= 4 (exact rational arithmetic)")


def test_criterion_05_two_route_matrix_coefficients(prop61_cases):
    rep = verify_prop61(trials=20, seed=17)
    assert rep.passed, rep.details["failures"]
    assert rep.details["cases"] == len(prop61_cases)
    _report(5, f"substitution and transform routes agree to {rep.rel_err:.2e} rel "
               f"over {rep.details['cases']} cases x 20 random (t,k,k')")


def test_criterion_06_highest_weight_vectors(prop61_cases):
    for th in prop61_cases:
        report = highest_weight_check(harmonic_hwv(th), th)
        assert report.row_matches, f"{th.lam}: {report.row_weight} != {report.row_expected}"
        assert report.col_matches, f"{th.lam}: {report.col_weight} != {report.col_expected}"
        assert not report.failed_raising, f"{th.lam}: {report.failed_raising}"
    _report(6, f"torus weights match both expected highest weights exactly and all "
               f"compact raising directions annihilate, {len(prop61_cases)} cases")


def test_criterion_07_canonical_coefficient_properties(full_sweep, rng):
    th = classify_theta(lam("7/2", "3/2", "1/2"))
    checked = 0
    for _ in range(500):
        g = random_group_element(2, rng)
        k = random_cover(2, rng)
        conj = embed(k) @ g.matrix @ np.linalg.inv(embed(k))
        a = psi_pi(g, th)
        from arczeta.group import GroupElement

        b = psi_pi(GroupElement(conj), th)
        c = psi_pi(g, th, route="conjugated")
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
        assert abs(a - c) <= 1e-9 * max(1.0, abs(a))
        checked += 2
    assert checked == 1000
    dims = 0
    for lams in full_sweep.values():
        for lv in lams:
            th2 = classify_theta(lv)
            (parts_n, _), _ = th2.lambda_gl()
            assert schur_eval(list(parts_n), [1] * th2.n) == weyl_dim(lv)
            dims += 1
    _report(7, f"conjugation invariance and route agreement at {checked} random "
               f"points (rel<=1e-9); character at identity equals the dimension "
               f"exactly on {dims} parameters")


def test_criterion_08_character_orthogonality():
    weights = {
        2: [[1, 0], [2, 1], [2, 0], [3, 1], [2, 2]],
        3: [[1, 0, 0], [1, 1, 0], [2, 1, 0], [2, 2, 1], [3, 1, 0]],
    }
    for m, wlist in weights.items():
        rep = verify_schur_orthogonality(wlist, samples=200_000, seed=29)
        assert rep.passed, (m, rep.details["rows"])
    _report(8, "MC character L2 norms equal 1 within 3 stderr at 2e5 Haar samples, "
               "5 weights each on ranks 2 and 3")


def test_criterion_09_end_to_end_zeta():
    rep1 = verify_zeta(lam("3/2", "1/2"), samples=1_000_000, seed=101)
    assert rep1.passed
    expect1 = 1 / math.pi
    assert abs(rep1.estimate.value - expect1) / expect1 <= 0.03
    rep2 = verify_zeta(lam("5/2", "3/2", "1/2"), samples=4_000_000, seed=103)
    assert rep2.passed
    expect2 = 2 / math.pi**2
    assert abs(rep2.estimate.value - expect2) / expect2 <= 0.03
    _report(9, f"group integral = {rep1.estimate.value.real:.6f} (target 1/pi) at 1e6 "
               f"samples and {rep2.estimate.value.real:.6f} (target 2/pi^2) at 4e6")


def test_criterion_10_root_flip_bit_invariance():
    for lv in (lam("7/2", "3/2", "1/2"), lam("3/2", "1/2")):
        th = classify_theta(lv)
        mc = MatrixCoefficient(th)
        e = float(min(closed_T_factors(th, F(th.n + 1, 2)))) - 1.0
        a = zeta_integrand_samples(th, np.random.default_rng(7), 20_000, e, mc, False)
        b = zeta_integrand_samples(th, np.random.default_rng(7), 20_000, e, mc, True)
        assert np.array_equal(a, b)
    ra = verify_zeta(lam("3/2", "1/2"), samples=50_000, seed=5)
    rb = verify_zeta(lam("3/2", "1/2"), samples=50_000, seed=5)
    assert ra.verdict == rb.verdict and ra.estimate.value == rb.estimate.value
    _report(10, "flipping every carried determinant root leaves integrand samples "
                "and verdicts bit-identical")


def test_criterion_11_formal_degree_consistency():
    counts = {}
    for n, bound in ((1, 4), (2, F(11, 2)), (3, F(11, 2))):
        lams = admissible_sweep(n, bound)
        assert len(lams) >= 5, f"n={n} sweep too small"
        rep = verify_formal_degree(lams)
        assert rep.passed, rep.details["mismatches"]
        counts[n] = len(lams)
    _report(11, "dimension/scalar ratio is proportional to the difference product "
                f"with a parameter-free constant; sweeps {counts}")
