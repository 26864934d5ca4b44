import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arczeta.errors import InvalidParameterError
from arczeta.exact import PiLaurent, QQi, exact_inverse, leading_minors, rational_hyperbolic
from arczeta.fock import (
    FockPoly,
    MatrixCoefficient,
    _hwv_factors,
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
from arczeta.weights import Case, admissible_sweep, classify_theta, gl_dim

from conftest import (exact_cover_2, exact_identity, exact_phase_square, exact_unitary_2x2, lam,
                      random_cover)

F = Fraction


def var(n, i, j):
    return FockPoly.variable(n, i, j)


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
            out = FockPoly.zero(1)
            for _ in range(3):
                exps = tuple(int(rng.integers(0, 3)) for _ in range(4))
                coeff = QQi(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
                out = out + FockPoly(1, {exps: coeff})
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

    def test_negative_exponent_rejected(self):
        with pytest.raises(InvalidParameterError):
            FockPoly(1, {(-1, 0, 0, 0): 1})

    def test_constructor_refusals(self):
        # a negative entry, a wrong length, a degree beyond the 16-bit field,
        # and a packed key in place of a tuple
        for bad in ((0, -1, 2, 0), (1, 0, 0), (1, 0, 0, 0, 0), (65536, 0, 0, 0),
                    (40000, 0, 0, 30000), var(1, 1, 2).terms.popitem()[0]):
            with pytest.raises(InvalidParameterError):
                FockPoly(1, {bad: 1})
        assert FockPoly(1, {(0, 0, 65535, 0): 1}).degree() == 65535

    def test_degree_field_bound(self):
        # one term, so the repeated squaring stays cheap
        top = var(1, 1, 1) ** 65535
        assert list(top.items()) == [((65535, 0, 0, 0), 1)] and top.degree() == 65535
        with pytest.raises(InvalidParameterError):
            var(1, 1, 1) ** 65536
        with pytest.raises(InvalidParameterError):
            (var(1, 1, 1) ** 40000 + var(1, 1, 2)) * var(1, 2, 2) ** 30000

    def test_coefficients_in_the_narrowest_ring(self):
        f = var(1, 1, 1) + var(1, 1, 2).scale(F(1, 2))
        assert [type(c) for c in f.terms.values()] == [int, QQi]
        g = f * var(1, 2, 1).scale(PiLaurent.single(1, -1))
        assert [type(c) for c in g.terms.values()] == [PiLaurent, PiLaurent]
        assert dict(g.items()) == {(1, 0, 1, 0): PiLaurent.single(1, -1),
                                   (0, 1, 1, 0): PiLaurent.single(F(1, 2), -1)}


# -- the packed engine against arithmetic on exponent tuples -----------------

def _o_clean(terms):
    return {e: c for e, c in terms.items() if c}


def _o_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out[e] + c if e in out else c
    return _o_clean(out)


def _o_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return _o_clean(out)


def _o_first_order(a, moves):
    out = {}
    for exps, c in a.items():
        for src, dst, sign in moves:
            if exps[dst]:
                e = list(exps)
                e[dst] -= 1
                e[src] += 1
                out = _o_add(out, {tuple(e): c * (sign * exps[dst])})
    return out


def _o_omega_at(a, n, ch, sh):
    # per column j the exponents i, g of z_1j and z_(n+1)j drop together by
    # ell, with weight C(g, ell) i!/(i-ell)! (-tanh)^ell cosh^-(i+g-2ell) pi^-ell
    th = sh / ch
    out = {}
    for exps, c in a.items():
        partial = [(exps, c)]
        for j in range(n + 1):
            v1, v2 = j, n * (n + 1) + j
            i, g = exps[v1], exps[v2]
            nxt = []
            for e, cc in partial:
                for ell in range(min(i, g) + 1):
                    w = list(e)
                    w[v1] -= ell
                    w[v2] -= ell
                    weight = math.comb(g, ell) * math.perm(i, ell) * (-th) ** ell
                    nxt.append((tuple(w), cc * PiLaurent.single(weight / ch ** (i + g - 2 * ell),
                                                                -ell)))
            partial = nxt
        for e, cc in partial:
            out = _o_add(out, {e: cc})
    return out


_small_qqi = st.builds(QQi, st.fractions(-3, 3, max_denominator=4),
                       st.fractions(-3, 3, max_denominator=4))
_coeffs = _small_qqi | st.builds(PiLaurent, st.dictionaries(st.integers(-2, 2), _small_qqi,
                                                             min_size=1, max_size=3))


@st.composite
def _poly_case(draw):
    n = draw(st.sampled_from((1, 2)))
    nvars = (n + 1) ** 2
    table = st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars), _coeffs, max_size=4)
    moves = st.lists(st.tuples(st.integers(0, nvars - 1), st.integers(0, nvars - 1),
                               st.sampled_from((1, -1))), max_size=3)
    return n, draw(table), draw(table), draw(st.integers(0, 3)), draw(moves)


class TestPackedEngine:
    @settings(max_examples=40, deadline=None)
    @given(_poly_case())
    def test_matches_tuple_oracle(self, case):
        from arczeta.fock import _first_order

        n, ta, tb, k, moves = case
        a, b = FockPoly(n, ta), FockPoly(n, tb)
        oa, ob = _o_clean(ta), _o_clean(tb)
        assert dict(a.items()) == oa
        assert a.degree() == max((sum(e) for e in oa), default=0)
        assert dict((a * b).items()) == _o_mul(oa, ob)
        assert dict((a + b).items()) == _o_add(oa, ob)
        power = {(0,) * (n + 1) ** 2: 1}
        for _ in range(k):
            power = _o_mul(power, oa)
        assert dict((a**k).items()) == power
        assert a**k == FockPoly(n, power)
        assert (a**k).degree() == max((sum(e) for e in power), default=0)
        ch, sh = rational_hyperbolic(F(1, 3))
        for got, want in ((_first_order(a, moves), _o_first_order(oa, moves)),
                          (omega_at((ch, sh), a).poly, _o_omega_at(oa, n, ch, sh))):
            assert dict(got.items()) == want
            assert got == FockPoly(n, want)  # the same packed keys, degree field included


class TestBargmann:
    def test_square_norm(self):
        f = var(1, 1, 1) ** 2
        assert bargmann_inner(f, f) == PiLaurent.single(2, -2)

    def test_distinct_monomials_orthogonal(self):
        assert not bargmann_inner(var(1, 1, 1), var(1, 1, 2))

    def test_exact_inner_is_always_a_pilaurent(self):
        zero = bargmann_inner(var(1, 1, 1), var(1, 1, 2))
        assert type(zero) is PiLaurent and not zero
        assert type(bargmann_inner(var(1, 1, 1), var(1, 1, 1))) is PiLaurent

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
        approx = bargmann_inner(FockPoly(f.n, {e: complex(c) for e, c in f.items()}),
                                FockPoly(g.n, {e: complex(c) for e, c in g.items()}))
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


def faraut_koranyi_norm2(theta):
    """Closed squared norm of the joint highest-weight vector (Faraut &
    Koranyi, J. Funct. Anal. 88, 1990): gamma! pi^-gamma times one factor per
    minor chain, m = alphas in Case I and m = betas, alphas in Case II, with

        F(m) = pi^-|m| prod_{i<k} (m_i + k-1-i)! / (k-1-i)! / gl_dim(m),  k = len(m).
    """
    value, power = F(math.factorial(int(theta.gamma))), -int(theta.gamma)
    for m in (theta.alphas,) if theta.case is Case.I else (theta.betas, theta.alphas):
        m, k = [int(x) for x in m], len(m)
        value *= F(math.prod(math.factorial(m[i] + k - 1 - i) // math.factorial(k - 1 - i)
                             for i in range(k)), gl_dim(m))
        power -= sum(m)
    return PiLaurent.single(value, power)


class TestHighestWeightNorm:
    @pytest.mark.parametrize("n, bound", [(1, "15/2"), (2, "15/2"), (3, "15/2"), (4, "9/2")])
    def test_equals_faraut_koranyi(self, n, bound):
        for lv in admissible_sweep(n, bound):
            th = classify_theta(lv)
            phi = harmonic_hwv(th)
            assert bargmann_inner(phi, phi) == faraut_koranyi_norm2(th), str(lv)

    def test_builds_no_fraction(self, monkeypatch):
        # phi has integer coefficients, so its exact norm stays on machine
        # integers: a Fraction built here means a slow path in the ring
        th = classify_theta(lam("7/2", "5/2", "3/2", "1/2"))
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        phi = harmonic_hwv(th)
        norm = bargmann_inner(phi, phi)
        monkeypatch.undo()
        assert len(built) == 0
        assert norm == PiLaurent.single(144, -6)

    def test_builds_no_exact_ring_object(self, monkeypatch):
        # phi has integer coefficients, so it is built on ints alone, and its
        # norm sums integers per power of pi before building one PiLaurent
        import arczeta.exact as exact

        th = classify_theta(lam("15/2", "9/2", "7/2", "5/2", "3/2"))
        assert th.n == 4 and th.case is Case.I
        built = {QQi: 0, PiLaurent: 0}
        # every QQi and PiLaurent sets its one field through one of these
        for name in ("_set", "_set_terms"):
            def counting(obj, value, setter=getattr(exact, name)):
                built[type(obj)] += 1
                setter(obj, value)

            monkeypatch.setattr(exact, name, counting)
        phi = harmonic_hwv(th)
        assert built == {QQi: 0, PiLaurent: 0}
        norm = bargmann_inner(phi, phi)
        monkeypatch.undo()
        assert type(norm) is PiLaurent and built[PiLaurent] <= len(norm.terms) == 1
        assert norm == faraut_koranyi_norm2(th)


class TestOmegaK:
    def test_identity_action(self, rng):
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        phi = harmonic_hwv(th)
        assert omega_k(exact_identity(2), phi, th) == phi

    def test_diagonal_weight_n1(self):
        th = classify_theta(lam("3/2", "1/2"))
        phi = harmonic_hwv(th)
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
        phi = harmonic_hwv(th)
        k = random_cover(2, rng)
        assert omega_k(k, phi, th).degree() == phi.degree()

    def test_unitary_invariance_of_inner_product(self, rng):
        th = classify_theta(lam("7/2", "3/2", "1/2"))
        f = harmonic_hwv(th)
        g = minors(2, 1)[1] ** f.degree()
        k = random_cover(2, rng)
        a = bargmann_inner(omega_k(k, f, th), omega_k(k, g, th))
        b = complex(bargmann_inner(f, g))
        assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_root_flip_covariance(self, rng):
        th = classify_theta(lam("5/2", "3/2", "1/2"))  # p - q = -1
        phi = harmonic_hwv(th)
        k = random_cover(2, rng)
        out = omega_k(k, phi, th)
        flipped = omega_k(CoverElement(k.block_n, k.block_1, -k.zeta_ratio), phi, th)
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
        out = omega_k(b_t_cover(ch, 2), phi, th)
        assert out == phi.scale(QQi.coerce((1 / ch) ** 2))


def cayley_cover(n, seed):
    """An exact cover: U = (I - A)(I + A)^-1 for a seeded Gaussian-rational
    skew-Hermitian A, with block_1 = det U / r**2 for a Pythagorean unit r."""
    gen = np.random.default_rng(seed)
    a = [[None] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = QQi(0, F(int(gen.integers(-3, 4)), 3))
        for j in range(i + 1, n):
            a[i][j] = QQi(F(int(gen.integers(-3, 4)), 4), F(int(gen.integers(-3, 4)), 5))
            a[j][i] = -a[i][j].conjugate()
    eye = [[QQi(int(i == j)) for j in range(n)] for i in range(n)]
    inv = exact_inverse([[eye[i][j] + a[i][j] for j in range(n)] for i in range(n)])
    u = [[sum(((eye[i][k] - a[i][k]) * inv[k][j] for k in range(n)), QQi(0)) for j in range(n)]
         for i in range(n)]
    r = (QQi(F(3, 5), F(4, 5)), QQi(F(5, 13), F(-12, 13)), QQi(0, 1))[seed % 3]
    return CoverElement(np.array(u, dtype=object), leading_minors(u)[-1] / (r * r), r)


def _expanded(phi):
    """phi as a plain polynomial: the same terms, no factor list."""
    return FockPoly(phi.n, dict(phi.items()))


class TestFactoredSubstitution:
    """omega_k substitutes phi's factors; substituting the expanded terms is
    the oracle.  A substitution is a ring homomorphism, so the two are equal
    in the exact ring."""

    SWEEPS = [(1, F(9, 2), 24), (2, F(9, 2), 34), (3, F(7, 2), 15)]

    @pytest.mark.parametrize("n,bound,count", SWEEPS)
    def test_equals_expanded_substitution_exact(self, n, bound, count):
        lams = admissible_sweep(n, bound)
        assert len(lams) == count
        for i, lv in enumerate(lams):
            th = classify_theta(lv)
            phi = harmonic_hwv(th)
            k = cayley_cover(n, i)
            factored = omega_k(k, phi, th)
            assert factored == omega_k(k, _expanded(phi), th), str(lv)
            assert all(type(c) in (int, QQi) for c in factored.terms.values())

    def test_equals_expanded_substitution_float_n3(self, rng):
        lams = admissible_sweep(3, F(9, 2))
        assert len(lams) == 34
        for lv in lams:
            th = classify_theta(lv)
            phi = harmonic_hwv(th)
            k = random_cover(3, rng)
            a, b = omega_k(k, phi, th), omega_k(k, _expanded(phi), th)
            scale = max(abs(c) for c in b.terms.values())
            gap = max(abs(a.terms.get(e, 0) - b.terms.get(e, 0)) for e in {*a.terms, *b.terms})
            assert gap <= 1e-13 * scale, str(lv)

    @pytest.mark.parametrize("n,bound", [(1, F(9, 2)), (2, F(9, 2)), (3, F(9, 2))])
    def test_phi_is_the_product_of_its_factors(self, n, bound):
        # the factors multiplied out one by one, with no power taken
        for lv in admissible_sweep(n, bound):
            th = classify_theta(lv)
            phi = harmonic_hwv(th)
            factors = _hwv_factors(th)
            assert phi.factors == tuple(factors), str(lv)
            prod = FockPoly.one(n)
            for g, e in factors:
                for _ in range(e):
                    prod = prod * g
            assert prod == phi, str(lv)

    def test_routes_agree_exact_n3(self):
        th = classify_theta(lam("7/2", "5/2", "3/2", "1/2"))
        ch, sh = rational_hyperbolic(F(2, 7))
        k, kp = cayley_cover(3, 1), cayley_cover(3, 2)
        value = omega_matcoef(kp, (ch, sh), k, th)
        assert type(value) is PiLaurent and value
        assert value == omega_matcoef_transform_route(kp, (ch, sh), k, th)


class TestOmegaKPrime:
    def test_commutes_with_row_action(self, rng):
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        phi = harmonic_hwv(th)
        k = random_cover(2, rng)
        xp = np.array([[np.exp(0.3j)]])
        yq = haar_unitary(2, rng)
        ratio = np.exp(0.15j) / np.exp(0.5j * np.angle(np.linalg.det(yq)))
        a = omega_kprime((xp, yq, ratio), omega_k(k, phi, th), th)
        b = omega_k(k, omega_kprime((xp, yq, ratio), phi, th), th)
        diff = a - b
        assert max((abs(c) for c in diff.terms.values()), default=0.0) < 1e-12

    def test_exact_branch_commutes_and_composes(self):
        # rational unitaries, zero tolerance: the partner action commutes with
        # the row action and is a left action on non-commuting blocks
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        phi = harmonic_hwv(th)
        k = exact_cover_2()
        y1 = np.array(exact_unitary_2x2(), dtype=object)  # det 1
        y2 = np.array([[QQi(0, 1), QQi(0)], [QQi(0), QQi(0, -1)]], dtype=object)  # det 1
        x, ratio = exact_phase_square()  # ratio**2 * det(y1) == x
        kp = ([[x]], y1, ratio)
        a = omega_kprime(kp, omega_k(k, phi, th), th)
        assert a == omega_k(k, omega_kprime(kp, phi, th), th)
        assert a != omega_k(k, phi, th)
        f = phi + minors(2, 1)[1] ** 4  # phi alone sees only det(y)
        xp, i = [[QQi(-1)]], QQi(0, 1)  # i**2 * det(y) == -1 == det(xp)
        lhs = omega_kprime((xp, y1, i), omega_kprime((xp, y2, i), f, th), th)
        assert lhs == omega_kprime(([[QQi(1)]], y1 @ y2, i * i), f, th)
        assert lhs != omega_kprime(([[QQi(1)]], y2 @ y1, i * i), f, th)

    def test_blocks_in_two_rings_refused(self):
        # the ring is read from the blocks' dtype, so the two must agree
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        phi = harmonic_hwv(th)
        for kp in (([[QQi(0, 1)]], np.eye(2), 1),
                   (np.eye(1), np.array(exact_unitary_2x2(), dtype=object), 1)):
            with pytest.raises(InvalidParameterError, match="different rings"):
                omega_kprime(kp, phi, th)

    def test_float_blocks_on_gaussian_rationals_raise(self):
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        f = harmonic_hwv(th).scale(QQi(0, 1))
        with pytest.raises(TypeError):
            omega_kprime((np.eye(1), np.eye(2), 1.0), f, th)

    def test_root_relation_refused(self):
        # ratio**2 * det(yq) must equal det(xp): exactly among Gaussian
        # rationals, to ZETA_TOL in floats
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        exact_blocks = ([[QQi(0, 1)]], np.array(exact_unitary_2x2(), dtype=object), 1)
        float_blocks = (np.eye(1), np.eye(2), 1j)
        for kp, f in ((exact_blocks, harmonic_hwv(th)),
                      (float_blocks, harmonic_hwv(th))):
            with pytest.raises(InvalidParameterError, match="root ratio"):
                omega_kprime(kp, f, th)

    def test_left_action_composition(self, rng):
        # non-commuting second-factor blocks discriminate the convention
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        f = harmonic_hwv(th) + minors(2, 1)[1] ** 4
        y1, y2 = haar_unitary(2, rng), haar_unitary(2, rng)
        r1, r2 = (np.linalg.det(y) ** -0.5 for y in (y1, y2))  # ratio**2 * det(y) == 1
        xp = np.array([[1.0 + 0j]])
        k1 = (xp, y1, r1)
        k2 = (xp, y2, r2)
        k12 = (xp, y1 @ y2, r1 * r2)
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
        f = harmonic_hwv(th) + FockPoly.variable(2, 3, 2) ** 2
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
        f = FockPoly(1, {(1, 2, 0, 3): 1})
        tr = omega_at((F(1), F(0)), f)
        assert tr.poly == f and complex(tr.prefactor) == 1.0

    def test_constant_input_n1(self):
        tr = omega_at(0.6, FockPoly(1, {(0, 0, 0, 0): 1.0}))
        assert list(tr.poly.terms.values()) == [1.0 + 0j]
        assert np.isclose(tr.prefactor, math.cosh(0.6) ** -2)
        assert np.isclose(tr.tanh, math.tanh(0.6))

    def test_matches_bruteforce_exact(self):
        ch, sh = rational_hyperbolic(F(2, 5))
        for exps in itertools.product(range(3), repeat=4):
            if sum(exps) > 4:
                continue
            f = FockPoly(1, {exps: 1})
            a = omega_at((ch, sh), f)
            b = weil_transform_bruteforce((ch, sh), f)
            assert a.poly == b.poly and a.prefactor == b.prefactor

    def test_float_matches_exact(self):
        ch, sh = rational_hyperbolic(F(1, 2))
        t = math.asinh(float(sh))
        f_ex = FockPoly(1, {(2, 1, 1, 0): 1})
        for transform in (omega_at, weil_transform_bruteforce):
            a = transform((ch, sh), f_ex)
            b = transform(t, FockPoly(f_ex.n, {e: complex(c) for e, c in f_ex.items()}))
            assert a.poly.terms.keys() == b.poly.terms.keys()
            for exps, c in a.poly.terms.items():
                assert np.isclose(complex(c), b.poly.terms[exps])
            assert np.isclose(complex(a.prefactor), b.prefactor)
            assert np.isclose(float(a.tanh), b.tanh)

    def test_pairing_against_transform_degree_bound(self):
        # orders of the exponential tag beyond deg(g) cannot contribute
        ch, sh = rational_hyperbolic(F(1, 3))
        f = FockPoly(1, {(0, 2, 0, 0): 1})
        g = FockPoly(1, {(0, 1, 1, 0): 1})
        tr = omega_at((ch, sh), f)
        full = tr.exp_factor(6) * tr.poly
        trunc = tr.exp_factor(g.degree()) * tr.poly
        assert bargmann_inner(full, g) == bargmann_inner(trunc, g)


class TestMatrixCoefficientRoutes:
    def test_norm_at_identity(self):
        th = classify_theta(lam("3/2", "1/2"))
        kI = exact_identity(1)
        val = omega_matcoef(kI, (F(1), F(0)), kI, th)
        assert val == bargmann_inner(harmonic_hwv(th), harmonic_hwv(th))

    def test_n1_analytic_value(self):
        # phi = z_12^2 scales by cosh^-2 under the diagonal companion
        th = classify_theta(lam("3/2", "1/2"))
        ch, sh = rational_hyperbolic(F(1, 2))
        kI = exact_identity(1)
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
        k = CoverElement(np.array([[y]], dtype=object), 1, QQi(F(3, 5), F(4, 5)))
        kp = k.inverse()
        assert omega_matcoef(kp, (ch, sh), k, th) == omega_matcoef_transform_route(
            kp, (ch, sh), k, th
        )
        # (p,q) = (0,2): blocks x = -1, y = 1 carry the exact ratio i
        th0 = classify_theta(lam("1/2", "-3/2"))
        k0 = CoverElement(np.array([[QQi(-1)]], dtype=object), 1, QQi(0, 1))
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
            phi = harmonic_hwv(th)
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
        phi = harmonic_hwv(th)
        kI = CoverElement.from_blocks(np.eye(1), 1)
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
        phi = harmonic_hwv(th)
        kI = CoverElement.from_blocks(np.eye(1), 1)

        def integrand(u):
            r = math.sqrt(u)
            t = math.atanh(r)
            val = omega_matcoef_transform_route(kI, t, kI, th, phi)
            psi = psi_pi(h_from_z(np.array([r])), th)
            return (val * psi).real * (1 - u) ** -2.0  # invariant measure

        total, _ = quad(integrand, 0.0, 1.0 - 1e-12, epsabs=1e-12, epsrel=1e-12)
        total *= math.pi  # ball volume factor of the radial reduction
        norm2 = complex(bargmann_inner(phi, phi)).real
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
    """The cover element in the exact ring."""

    def test_ratio_validated(self):
        with pytest.raises(InvalidParameterError):
            CoverElement(np.array([[QQi(2)]], dtype=object), 1, 1)

    def test_hyperbolic_ratio_one(self):
        c = b_t_cover(F(5, 3), 2)
        assert c.block_n.dtype == object and c.zeta_ratio == QQi(1)
        assert c.inverse().zeta_ratio == QQi(1)
        assert c.inverse().block_n[0, 0] == c.inverse().block_1 == QQi(F(3, 5))

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
            phi = harmonic_hwv(th)
            blocks = []
            for _ in range(8):
                k = random_cover(th.n, rng)
                b = b_t_cover(math.cosh(rng.uniform(0, 1)), th.n)
                el = b.compose(k)
                direct = bargmann_inner(omega_k(el, phi, th), phi)
                blocks.append((el, direct))
            bn = np.stack([el.block_n for el, _ in blocks], axis=-1)
            b1 = np.array([el.block_1 for el, _ in blocks])
            ratio = np.array([el.zeta_ratio for el, _ in blocks])
            vals = mc.evaluate(bn, b1, ratio)
            for v, (_, direct) in zip(vals, blocks):
                assert abs(v - direct) <= 1e-10 * abs(direct), str(th.lam)


def _float_cover(k):
    """The same cover element with complex blocks: the float ring."""
    return CoverElement(np.array(k.block_n.tolist(), dtype=complex), complex(k.block_1),
                        complex(k.zeta_ratio))


class TestRingFromData:
    """The ring of a result is set by the scalars passed, not by a mode."""

    @pytest.mark.parametrize("text", [("5/2", "3/2", "1/2"), ("-1/2", "-5/2")])
    def test_one_phi_serves_both_rings(self, text):
        # Case I at n = 2 under a Gaussian-rational unitary; Case II at
        # (p, q) = (1, 1) under a rational circle point with its exact root
        th = classify_theta(lam(*text))
        phi = harmonic_hwv(th)
        if th.n == 2:
            k = exact_cover_2()
        else:
            y, root = exact_phase_square()
            k = CoverElement(np.array([[y]], dtype=object), 1, root)
        kp = k.inverse()
        ch, sh = rational_hyperbolic(F(1, 2))
        t = math.asinh(float(sh))
        for route in (omega_matcoef, omega_matcoef_transform_route):
            exact = route(kp, (ch, sh), k, th, phi)
            assert type(exact) is PiLaurent
            approx = route(_float_cover(kp), t, _float_cover(k), th, phi)
            assert type(approx) is complex
            assert abs(approx - complex(exact)) <= 1e-12 * abs(complex(exact)), route.__name__

    def test_inner_product_of_mixed_coefficients(self):
        # z_11 with an int coefficient, z_12 with a complex one: the int term
        # is summed exactly, the complex one through log-gamma
        f = FockPoly(1, {(1, 0, 0, 0): 2, (0, 1, 0, 0): 0.5j})
        got = bargmann_inner(f, f)
        assert type(got) is complex
        assert abs(got - 4.25 / math.pi) <= 1e-12
        floats = FockPoly(1, {e: complex(c) for e, c in f.items()})
        assert abs(got - bargmann_inner(floats, floats)) <= 1e-12
        # no matching term: a float coefficient still makes the zero complex
        zero = bargmann_inner(var(1, 1, 1), FockPoly(1, {(0, 1, 0, 0): 1.0}))
        assert type(zero) is complex and zero == 0

    def test_gaussian_rationals_refuse_floats(self, rng):
        th = classify_theta(lam("5/2", "3/2", "1/2"))
        f = harmonic_hwv(th).scale(QQi(1, 1))
        with pytest.raises(TypeError):
            f.scale(0.5)
        with pytest.raises(TypeError):
            omega_k(random_cover(2, rng), f, th)
        with pytest.raises(TypeError):
            omega_at(0.3, f)
        with pytest.raises(TypeError):
            bargmann_inner(f, FockPoly(2, {e: complex(c) for e, c in f.items()}))

    def test_no_exact_parameter(self):
        import inspect

        import arczeta.fock as fock
        from arczeta.group import check_root_ratio

        assert FockPoly.__slots__ == ("n", "terms")
        callables = [check_root_ratio]
        for obj in vars(fock).values():
            if inspect.isfunction(obj) and obj.__module__ == fock.__name__:
                callables.append(obj)
            elif inspect.isclass(obj) and obj.__module__ == fock.__name__:
                callables.extend(m.__func__ if isinstance(m, classmethod) else m
                                 for m in vars(obj).values()
                                 if inspect.isfunction(m) or isinstance(m, classmethod))
        assert len(callables) > 30
        for fn in callables:
            assert "exact" not in inspect.signature(fn).parameters, fn.__qualname__
