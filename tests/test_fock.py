import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from arczeta.errors import InvalidParameterError
from arczeta.exact import PiLaurent, QQi, rational_hyperbolic
from arczeta.fock import (
    ExactCover,
    FockPoly,
    MatrixCoefficient,
    bargmann_inner,
    harmonic_hwv,
    highest_weight_check,
    hwv_norm2,
    minors,
    omega_at,
    omega_k,
    omega_kprime,
    omega_matcoef,
    omega_matcoef_transform_route,
    weil_transform_bruteforce,
)
from arczeta.group import CoverElement, b_t_cover, haar_unitary
from arczeta.weights import admissible_sweep, classify_theta

from conftest import exact_cover_2, lam, random_cover

F = Fraction


def var(n, i, j, exact=True):
    return FockPoly.variable(n, i, j, exact)


class TestFockPoly:
    def test_no_zero_coefficients_stored(self):
        f = var(1, 1, 1) - var(1, 1, 1)
        assert f.is_zero() and not f.terms

    def test_collect_drops_zeros_and_keeps_later_terms(self):
        from arczeta.fock import _collect

        f = var(1, 1, 1) * var(1, 2, 2).scale(QQi(2, -1)) + var(1, 1, 2)
        assert not (f + (-f)).terms
        e, c = (1, 0, 0, 0), PiLaurent.single(3, -1)
        assert _collect([(e, c), ((0, 1, 0, 0), c), (e, -c), (e, c + c)]) == {
            (0, 1, 0, 0): c, e: c + c}
        assert _collect([(e, 0.5j), (e, -0.5j), (e, 0j), (e, 2.0)]) == {e: 2.0}

    def test_ring_laws_random_small(self, rng):
        # associativity and distributivity on random small exact polynomials
        def random_poly():
            out = FockPoly.zero(1, exact=True)
            for _ in range(3):
                exps = tuple(int(rng.integers(0, 3)) for _ in range(4))
                coeff = QQi(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
                out = out + FockPoly(1, {exps: coeff}, exact=True)
            return out

        for _ in range(10):
            a, b, c = random_poly(), random_poly(), random_poly()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_ring_ops(self):
        f = var(1, 1, 1) + var(1, 1, 2)
        g = f * f
        assert g.degree() == 2 and len(g.terms) == 3
        assert (f**3).degree() == 3

    def test_mode_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            var(1, 1, 1, exact=True) + var(1, 1, 1, exact=False)

    def test_negative_exponent_rejected(self):
        with pytest.raises(InvalidParameterError):
            FockPoly(1, {(-1, 0, 0, 0): 1})


class TestBargmann:
    def test_square_norm(self):
        f = var(1, 1, 1) ** 2
        assert bargmann_inner(f, f) == PiLaurent.single(2, -2)

    def test_distinct_monomials_orthogonal(self):
        assert not bargmann_inner(var(1, 1, 1), var(1, 1, 2))

    def test_anticorner_minor_norm(self):
        # independent expansion: det of rows {1,2} columns {2,3} squared
        n = 2
        z = lambda i, j: var(n, i, j)
        delta = z(1, 2) * z(2, 3) - z(1, 3) * z(2, 2)
        sq = delta * delta
        byhand = PiLaurent.single(4 + 4 + 4, -4)
        assert bargmann_inner(sq, sq) == byhand
        assert bargmann_inner(sq, sq) == PiLaurent.single(12, -4)

    def test_float_mode_matches_exact(self):
        f = var(2, 1, 2) * var(2, 2, 3) + var(2, 1, 3).scale(QQi(0, 1))
        g = f
        exact = complex(bargmann_inner(f, g))
        approx = bargmann_inner(FockPoly(f.n, f.terms, exact=False),
                                FockPoly(g.n, g.terms, exact=False))
        assert np.isclose(exact, approx)

    def test_conjugation_side(self):
        f = var(1, 1, 1).scale(QQi(0, 1))  # i * z
        val = bargmann_inner(f, var(1, 1, 1))
        assert val == PiLaurent.single(QQi(0, 1), -1)


class TestMinors:
    def test_principal_first(self):
        d, _ = minors(2, 1)
        assert d == var(2, 1, 1)

    def test_anticorner_n1(self):
        _, dp = minors(1, 1)
        assert dp == var(1, 1, 2)

    def test_anticorner_n2(self):
        _, dp = minors(2, 2)
        expect = var(2, 1, 2) * var(2, 2, 3) - var(2, 1, 3) * var(2, 2, 2)
        assert dp == expect

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            minors(2, 3)


class TestHighestWeightVectors:
    def test_case1_n1(self):
        th = classify_theta(lam("3/2", "1/2"))
        assert harmonic_hwv(th) == var(1, 1, 2) ** 2

    def test_case1_n2_pure_minor_power(self):
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        assert harmonic_hwv(th) == minors(2, 2)[1] ** 2

    def test_case2_p0(self):
        th = classify_theta(lam("1/2", "-3/2"))
        assert harmonic_hwv(th) == var(1, 2, 1)

    def test_case2_with_betas(self):
        th = classify_theta(lam("-1/2", "-5/2", "-9/2"))
        # p=2, q=1: betas=(1,0) -> Delta_1^1, gamma=6 -> z_{3,3}^6
        assert th.betas == (F(1), F(0)) and th.gamma == 6
        expect = var(2, 1, 1) * var(2, 3, 3) ** 6
        assert harmonic_hwv(th) == expect

    def test_case2_with_second_minor(self):
        th = classify_theta(lam("-3/2", "-5/2", "-7/2"))
        # p=2, q=1: betas=(1,1) -> Delta_2^1, gamma=5
        assert th.betas == (F(1), F(1)) and th.gamma == 5
        expect = minors(2, 2)[0] * var(2, 3, 3) ** 5
        assert harmonic_hwv(th) == expect

    def test_norm2(self):
        # z_12^2 has squared norm 2!/pi^2 and z_21 has 1/pi
        assert math.isclose(hwv_norm2(classify_theta(lam("3/2", "1/2"))), 2 / math.pi**2,
                            rel_tol=1e-15)
        assert math.isclose(hwv_norm2(classify_theta(lam("1/2", "-3/2"))), 1 / math.pi,
                            rel_tol=1e-15)
        th = classify_theta(lam("7/2", "3/2", "1/2"))
        assert MatrixCoefficient(th).phi_norm2 == hwv_norm2(th)


class TestOmegaK:
    def test_identity_action(self, rng):
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        phi = harmonic_hwv(th)
        assert omega_k(ExactCover.identity(2), phi, th) == phi

    def test_diagonal_weight_n1(self):
        th = classify_theta(lam("3/2", "1/2"))
        phi = harmonic_hwv(th, exact=False)
        theta_ang = 0.9
        k = CoverElement.from_blocks(
            np.array([[np.exp(1j * theta_ang)]]), 1.0 + 0j
        )
        out = omega_k(k, phi, th)
        expect = phi.scale(np.exp(-2j * theta_ang))
        diff = out - expect
        assert max((abs(c) for c in diff.terms.values()), default=0.0) < 1e-14

    def test_degree_preserved(self, rng):
        th = classify_theta(lam("7/2", "3/2", "1/2"))
        phi = harmonic_hwv(th, exact=False)
        k = random_cover(2, rng)
        assert omega_k(k, phi, th).degree() == phi.degree()

    def test_unitary_invariance_of_inner_product(self, rng):
        th = classify_theta(lam("7/2", "3/2", "1/2"))
        f = harmonic_hwv(th, exact=False)
        g = minors(2, 1, exact=False)[1] ** f.degree()
        k = random_cover(2, rng)
        a = bargmann_inner(omega_k(k, f, th), omega_k(k, g, th))
        b = bargmann_inner(f, g)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_root_flip_covariance(self, rng):
        th = classify_theta(lam("5/2", "3/2", "1/2"))  # p - q = -1
        phi = harmonic_hwv(th, exact=False)
        k = random_cover(2, rng)
        out = omega_k(k, phi, th)
        flipped = omega_k(CoverElement(k.block_n, k.block_1, -k.zeta_n, k.zeta_1), phi, th)
        sign = (-1) ** (th.p - th.q)
        diff = flipped - out.scale(sign)
        assert max((abs(c) for c in diff.terms.values()), default=0.0) < 1e-12

    def test_exact_action_with_rational_unitary(self):
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        phi = harmonic_hwv(th)
        k = exact_cover_2()
        out = omega_k(k, phi, th)
        # unitary substitution preserves the exact norm
        assert bargmann_inner(out, out) == bargmann_inner(phi, phi)

    def test_diagonal_companion_scales_by_top_row_degree(self):
        # the diagonal family touches only the first variable row: the
        # first-shape vector rescales by cosh^-(top-row degree), twist-free
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        phi = harmonic_hwv(th)
        ch = F(5, 3)
        out = omega_k(ExactCover.hyperbolic(ch, 2), phi, th)
        assert out == phi.scale(QQi.coerce((1 / ch) ** 2))


class TestOmegaKPrime:
    def test_commutes_with_row_action(self, rng):
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        phi = harmonic_hwv(th, exact=False)
        k = random_cover(2, rng)
        xp = np.array([[np.exp(0.3j)]])
        yq = haar_unitary(2, rng)
        ratio = np.exp(0.15j) / np.exp(0.5j * np.angle(np.linalg.det(yq)))
        a = omega_kprime((xp, yq, ratio), omega_k(k, phi, th), th)
        b = omega_k(k, omega_kprime((xp, yq, ratio), phi, th), th)
        diff = a - b
        assert max((abs(c) for c in diff.terms.values()), default=0.0) < 1e-12

    def test_left_action_composition(self, rng):
        # non-commuting second-factor blocks discriminate the convention
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        f = harmonic_hwv(th, exact=False) + minors(2, 1, exact=False)[1] ** 4
        y1, y2 = haar_unitary(2, rng), haar_unitary(2, rng)
        xp = np.array([[1.0 + 0j]])
        k1 = (xp, y1, 1.0 + 0j)
        k2 = (xp, y2, 1.0 + 0j)
        k12 = (xp, y1 @ y2, 1.0 + 0j)
        lhs = omega_kprime(k1, omega_kprime(k2, f, th), th)
        rhs = omega_kprime(k12, f, th)
        diff = lhs - rhs
        assert max((abs(c) for c in diff.terms.values()), default=0.0) < 1e-12

    def test_first_order_matches_raising_operator(self):
        # p = 2 datum: differentiate the first-factor action along the simple
        # upper-triangular direction and compare with the exact raising
        # operator used by the highest-weight check
        from arczeta.fock import _first_order, _var

        th = classify_theta(lam("-1/2", "-5/2", "-9/2"))  # (p, q) = (2, 1)
        f = harmonic_hwv(th, exact=False) + FockPoly.variable(2, 3, 2, False) ** 2
        eps = 1e-6
        e12 = np.array([[1.0, eps], [0.0, 1.0]], dtype=complex)  # exp(eps E_{12})
        yq = np.array([[1.0 + 0j]])
        moved = omega_kprime((e12, yq, 1.0 + 0j), f, th)
        numeric = (moved - f).scale(1.0 / eps)
        n = 2
        moves = [(_var(n, a, 1), _var(n, a, 2), +1) for a in range(1, n + 1)]
        moves += [(_var(n, n + 1, 2), _var(n, n + 1, 1), -1)]
        analytic = _first_order(f, moves)
        diff = numeric - analytic
        assert max((abs(c) for c in diff.terms.values()), default=0.0) < 1e-5


class TestOmegaAt:
    def test_t_zero_is_identity(self):
        f = FockPoly(1, {(1, 2, 0, 3): 1}, exact=True)
        tr = omega_at((F(1), F(0)), f)
        assert tr.poly == f and complex(tr.prefactor) == 1.0

    def test_constant_input_n1(self):
        tr = omega_at(0.6, FockPoly.one(1, exact=False))
        assert list(tr.poly.terms.values()) == [1.0 + 0j]
        assert np.isclose(tr.prefactor, math.cosh(0.6) ** -2)
        assert np.isclose(tr.tanh, math.tanh(0.6))

    def test_matches_bruteforce_exact(self):
        ch, sh = rational_hyperbolic(F(2, 5))
        for exps in itertools.product(range(3), repeat=4):
            if sum(exps) > 4:
                continue
            f = FockPoly(1, {exps: 1}, exact=True)
            a = omega_at((ch, sh), f)
            b = weil_transform_bruteforce((ch, sh), f)
            assert a.poly == b.poly and a.prefactor == b.prefactor

    def test_float_matches_exact(self):
        ch, sh = rational_hyperbolic(F(1, 2))
        t = math.asinh(float(sh))
        f_ex = FockPoly(1, {(2, 1, 1, 0): 1}, exact=True)
        for transform in (omega_at, weil_transform_bruteforce):
            a = transform((ch, sh), f_ex)
            b = transform(t, FockPoly(f_ex.n, f_ex.terms, exact=False))
            assert a.poly.terms.keys() == b.poly.terms.keys()
            for exps, c in a.poly.terms.items():
                assert np.isclose(complex(c), b.poly.terms[exps])
            assert np.isclose(complex(a.prefactor), b.prefactor)
            assert np.isclose(float(a.tanh), b.tanh)

    def test_pairing_against_transform_degree_bound(self):
        # orders of the exponential tag beyond deg(g) cannot contribute
        ch, sh = rational_hyperbolic(F(1, 3))
        f = FockPoly(1, {(0, 2, 0, 0): 1}, exact=True)
        g = FockPoly(1, {(0, 1, 1, 0): 1}, exact=True)
        tr = omega_at((ch, sh), f)
        full = tr.exp_factor(6) * tr.poly
        trunc = tr.exp_factor(g.degree()) * tr.poly
        assert bargmann_inner(full, g) == bargmann_inner(trunc, g)


class TestMatrixCoefficientRoutes:
    def test_norm_at_identity(self):
        th = classify_theta(lam("3/2", "1/2"))
        kI = ExactCover.identity(1)
        val = omega_matcoef(kI, (F(1), F(0)), kI, th)
        assert val == bargmann_inner(harmonic_hwv(th), harmonic_hwv(th))

    def test_n1_analytic_value(self):
        # phi = z_12^2 scales by cosh^-2 under the diagonal companion
        th = classify_theta(lam("3/2", "1/2"))
        ch, sh = rational_hyperbolic(F(1, 2))
        kI = ExactCover.identity(1)
        val = omega_matcoef(kI, (ch, sh), kI, th)
        expect = PiLaurent.single(QQi.coerce((1 / ch) ** 4 * 2), -2)
        assert val == expect

    def test_routes_agree_exact_n2(self):
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        ch, sh = rational_hyperbolic(F(1, 2))
        k = exact_cover_2()
        kp = exact_cover_2().inverse()
        assert omega_matcoef(kp, (ch, sh), k, th) == omega_matcoef_transform_route(
            kp, (ch, sh), k, th
        )

    def test_routes_agree_exact_case_two(self):
        ch, sh = rational_hyperbolic(F(2, 5))
        # (p,q) = (1,1): rational circle point with its exact root
        th = classify_theta(lam("-1/2", "-5/2"))
        y = QQi(F(-7, 25), F(24, 25))  # ((3+4i)/5)^2
        k = ExactCover(((y,),), QQi(1), QQi(F(3, 5), F(4, 5)))
        kp = k.inverse()
        assert omega_matcoef(kp, (ch, sh), k, th) == omega_matcoef_transform_route(
            kp, (ch, sh), k, th
        )
        # (p,q) = (0,2): blocks x = -1, y = 1 carry the exact ratio i
        th0 = classify_theta(lam("1/2", "-3/2"))
        k0 = ExactCover(((QQi(-1),),), QQi(1), QQi(0, 1))
        assert omega_matcoef(k0.inverse(), (ch, sh), k0, th0) == (
            omega_matcoef_transform_route(k0.inverse(), (ch, sh), k0, th0)
        )

    def test_routes_agree_float_all_admissible_cases(self, rng):
        # both cases at n <= 2, including the mixed-block Case II shapes
        from arczeta.weights import admissible_sweep

        cases = admissible_sweep(1, 3) + admissible_sweep(2, F(7, 2))
        assert any(classify_theta(lv).case.value == "II" and classify_theta(lv).q > 1
                   for lv in cases)
        for lv in cases:
            th = classify_theta(lv)
            phi = harmonic_hwv(th, exact=False)
            for _ in range(3):
                t = float(rng.uniform(-1.2, 1.2))
                k = random_cover(th.n, rng)
                kp = random_cover(th.n, rng)
                a = omega_matcoef(kp, t, k, th, phi)
                b = omega_matcoef_transform_route(kp, t, k, th, phi)
                assert abs(a - b) <= 1e-9 * max(abs(a), 1e-12), str(lv)


class TestCaseTwoRestrictionEvidence:
    """Regression pinning the domain restriction of the Case II closed forms."""

    def test_routes_deviate_for_positive_alpha(self):
        th = classify_theta(lam("3/2", "-3/2"), enforce_closed_form_domain=False)
        phi = harmonic_hwv(th, exact=False)
        kI = CoverElement.identity(1)
        t = 0.8
        sub = omega_matcoef(kI, t, kI, th, phi)
        tra = omega_matcoef_transform_route(kI, t, kI, th, phi)
        ch = math.cosh(t)
        norm = 1 / math.pi**2
        assert np.isclose(sub, ch**-2 * norm)
        assert np.isclose(tra, ch**-4 * norm)
        assert abs(sub - tra) > 0.2 * abs(sub)  # genuinely different values

    def test_honest_group_integral_disagrees_with_product_formula(self):
        # radial reduction of the full group integral via the transform route;
        # the compact factors contribute pure phases at n=1 and cancel
        from scipy.integrate import quad

        from arczeta.characters import psi_pi
        from arczeta.group import h_from_z

        th = classify_theta(lam("3/2", "-3/2"), enforce_closed_form_domain=False)
        phi = harmonic_hwv(th, exact=False)
        kI = CoverElement.identity(1)

        def integrand(u):
            r = math.sqrt(u)
            t = math.atanh(r)
            val = omega_matcoef_transform_route(kI, t, kI, th, phi)
            psi = psi_pi(h_from_z(np.array([r])), th)
            return (val * psi).real * (1 - u) ** -2.0  # invariant measure

        total, _ = quad(integrand, 0.0, 1.0 - 1e-12, epsabs=1e-12, epsrel=1e-12)
        total *= math.pi  # ball volume factor of the radial reduction
        norm2 = bargmann_inner(phi, phi).real
        honest = total / norm2
        claimed = math.pi / (float(th.gamma) + 1 - th.p)  # the product formula
        assert math.isclose(honest, math.pi / 3, rel_tol=1e-8)
        assert abs(honest - claimed) > 0.4  # pi/2 vs pi/3


class TestHighestWeightCheck:
    def test_case1_n2_weights(self):
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        rep = highest_weight_check(harmonic_hwv(th), th)
        assert rep.ok
        assert rep.row_weight == (F(-5, 2), F(-5, 2), F(1, 2))

    def test_case1_n1_weights(self):
        th = classify_theta(lam("3/2", "1/2"))
        rep = highest_weight_check(harmonic_hwv(th), th)
        assert rep.ok and rep.row_weight == (F(-2), F(0))

    def test_raising_annihilates_minor_power(self):
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        rep = highest_weight_check(harmonic_hwv(th), th)
        assert not rep.failed_raising

    def test_non_highest_vector_reported(self):
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        bad = var(2, 2, 2) ** 4  # right weight space shape but wrong vector
        rep = highest_weight_check(bad, th)
        assert not rep.ok

    def test_all_admissible_small(self):
        from arczeta.weights import admissible_sweep

        for n, bound in ((1, 3), (2, F(7, 2))):
            for lv in admissible_sweep(n, bound):
                th = classify_theta(lv)
                rep = highest_weight_check(harmonic_hwv(th), th)
                assert rep.ok, f"{lv}: {rep}"


class TestExactCover:
    def test_ratio_validated(self):
        with pytest.raises(InvalidParameterError):
            ExactCover(((QQi(2),),), QQi(1), QQi(1))

    def test_hyperbolic_ratio_one(self):
        c = ExactCover.hyperbolic(F(5, 3), 2)
        assert c.zeta_ratio == QQi(1)
        assert c.inverse().zeta_ratio == QQi(1)

    def test_compose_inverse(self):
        k = exact_cover_2()
        prod = k.compose(k.inverse())
        assert prod.block_1 == QQi(1) and prod.zeta_ratio == QQi(1)


class TestCompiledMatrixCoefficient:
    def test_matches_direct_evaluation(self, rng):
        # the closed-form minor product against the substitution route over
        # the two-route sweep, one n=3 parameter of each shape, and one
        # second-shape parameter outside the closed-form domain
        thetas = [classify_theta(lv) for lv in admissible_sweep(1, 3)]
        thetas += [classify_theta(lv) for lv in admissible_sweep(2, F(7, 2))]
        thetas.append(classify_theta(lam("9/2", "7/2", "3/2", "1/2")))
        thetas.append(classify_theta(lam("1/2", "-3/2", "-7/2", "-9/2")))
        thetas.append(classify_theta(lam("5/2", "3/2", "-3/2", "-7/2"),
                                     enforce_closed_form_domain=False))
        for th in thetas:
            mc = MatrixCoefficient(th)
            phi = harmonic_hwv(th, exact=False)
            blocks = []
            for _ in range(8):
                k = random_cover(th.n, rng)
                b = b_t_cover(float(rng.uniform(0, 1)), th.n)
                el = b.compose(k)
                direct = bargmann_inner(omega_k(el, phi, th), phi)
                blocks.append((el, direct))
            bn = np.stack([el.block_n for el, _ in blocks])
            b1 = np.array([el.block_1 for el, _ in blocks])
            ratio = np.array([el.zeta_ratio for el, _ in blocks])
            vals = mc.evaluate(bn, b1, ratio)
            for v, (_, direct) in zip(vals, blocks):
                assert abs(v - direct) <= 1e-10 * abs(direct), str(th.lam)
