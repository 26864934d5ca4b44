import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arczeta.errors import InadmissibleParameterError, InvalidParameterError, PoleError
from arczeta.weights import (
    Case,
    ClosedValue,
    HCParameter,
    admissible_sweep,
    c_squared,
    classify_theta,
    closed_S,
    closed_S_factors,
    closed_T,
    dual_S_arguments,
    formal_degree_product,
    gl_dim,
    hc_to_blattner,
    weyl_dim,
    T_arguments,
    zeta_closed,
)

from conftest import lam


F = Fraction


class TestHCParameter:
    def test_parse_and_canonical(self):
        a = HCParameter.parse(" 3/2, 1/2 ,-6/4")
        assert a.entries == (F(3, 2), F(1, 2), F(-3, 2))
        assert all(type(e) is F for e in a.entries) and a.fractions == a.entries
        assert HCParameter.of(F(3, 2), "1/2", "-3/2") == a
        assert [str(e) for e in HCParameter.of(3, "4/2", F(-3))] == ["3", "2", "-3"]
        assert str(a) == "(3/2,1/2,-3/2)"

    def test_rejects_non_half_integer(self):
        with pytest.raises(InvalidParameterError, match="4/3 is not a half-integer"):
            HCParameter.of(F(4, 3), F(1, 3))
        with pytest.raises(InvalidParameterError, match="position 0: 4/3 is not"):
            HCParameter.parse("4/3,1/3")
        for bad in (1.5, None, (3, 2)):
            with pytest.raises(InvalidParameterError, match="cannot interpret"):
                HCParameter.of(bad, F(1, 2))

    def test_denominator_distinguishes_classes(self):
        assert classify_theta(HCParameter.of(2, 1)).nonstandard_congruence
        assert not classify_theta(lam("3/2", "1/2")).nonstandard_congruence

    def test_strictly_decreasing_required(self):
        with pytest.raises(InvalidParameterError):
            lam("1/2", "3/2")
        with pytest.raises(InvalidParameterError):
            lam("1/2", "1/2")

    def test_congruence_required(self):
        with pytest.raises(InvalidParameterError, match="congruent"):
            HCParameter.of(F(3, 2), F(0))

    def test_parse_error_positions(self):
        with pytest.raises(InvalidParameterError,
                           match="position 1: cannot parse half-integer 'x'"):
            HCParameter.parse("3/2,x")


class TestBlattner:
    def test_n1_example(self):
        assert hc_to_blattner(lam("3/2", "1/2")) == (F(2), F(0))

    def test_n2_example(self):
        assert hc_to_blattner(lam("5/2", "3/2", "1/2")) == (F(5, 2), F(5, 2), F(-1, 2))

    def test_shift_structure(self):
        # the map is translation by a fixed vector: differences are preserved
        a = lam("7/2", "3/2", "1/2")
        b = lam("9/2", "5/2", "3/2")
        sa = [x - e for x, e in zip(hc_to_blattner(a), a.entries)]
        sb = [x - e for x, e in zip(hc_to_blattner(b), b.entries)]
        assert sa == sb == [F(0), F(1), F(-1)]


class TestClassify:
    def test_case1_n1(self):
        th = classify_theta(lam("3/2", "1/2"))
        assert th.case is Case.I and (th.p, th.q) == (1, 1)
        assert th.gamma == 0 and th.alphas == (F(2),)

    def test_case2_p0(self):
        th = classify_theta(lam("1/2", "-3/2"))
        assert th.case is Case.II and (th.p, th.q) == (0, 2)
        assert th.gamma == 1 and th.alphas == (F(0),)

    def test_case1_forces_p1(self):
        # positive last entry always lands in (1, n)
        for lv in admissible_sweep(2, F(9, 2)):
            th = classify_theta(lv)
            if lv.fractions[-1] > 0:
                assert (th.p, th.q) == (1, 2)

    def test_dual_is_negated_reversed(self):
        for lv in admissible_sweep(2, F(7, 2)) + admissible_sweep(1, 3):
            th = classify_theta(lv)
            assert th.LambdaDual == th.Lambda.negated_reversed()

    def test_blattner_consistency(self):
        for lv in admissible_sweep(3, F(7, 2)):
            th = classify_theta(lv)
            assert th.Lambda.first + th.Lambda.second == hc_to_blattner(lv)

    def test_nonstandard_congruence_flagged_not_rejected(self):
        th = classify_theta(HCParameter.of(2, 1))
        assert th.nonstandard_congruence
        assert th.gamma == F(1, 2)

    def test_case2_alpha_positive_rejected(self):
        with pytest.raises(InadmissibleParameterError, match="alpha"):
            classify_theta(lam("3/2", "-3/2"))

    def test_case2_alpha_positive_unchecked_datum(self):
        th = classify_theta(lam("3/2", "-3/2"), enforce_closed_form_domain=False)
        assert not th.closed_form_valid
        with pytest.raises(InadmissibleParameterError):
            zeta_closed(th)
        with pytest.raises(InadmissibleParameterError):
            c_squared(th)

    def test_shape_constraints_automatic_for_proper_class(self):
        # for strictly decreasing congruent input the shape inequalities
        # follow from strict decrease, so every proper-half-integer parameter
        # either classifies or hits only the alpha-domain restriction
        th = classify_theta(lam("-1/2", "-3/2", "-5/2"))
        assert th.case is Case.II and th.betas == (F(0), F(0)) and th.gamma == 4

    def test_gamma_constraint_reachable_in_integer_class(self):
        # integer-class parameter with vanishing last entry violates gamma > 0
        with pytest.raises(InadmissibleParameterError, match="gamma"):
            classify_theta(HCParameter.of(1, 0))


class TestDimensions:
    def test_n1_always_one(self):
        assert weyl_dim(lam("3/2", "1/2")) == 1
        assert weyl_dim(lam("9/2", "-7/2")) == 1

    def test_examples(self):
        assert weyl_dim(lam("5/2", "3/2", "1/2")) == 1
        assert weyl_dim(lam("7/2", "3/2", "1/2")) == 2

    def test_blattner_input_agrees(self):
        # the classical dimension formula on the first n Blattner entries
        for lv in admissible_sweep(2, F(9, 2)) + admissible_sweep(3, F(7, 2)):
            assert weyl_dim(lv) == gl_dim(hc_to_blattner(lv)[:-1])

    def test_weight_pair_input(self):
        for lv in admissible_sweep(2, F(9, 2)):
            th = classify_theta(lv)
            assert gl_dim(th.Lambda.first) == weyl_dim(lv)

    def test_gl_dim_standard(self):
        assert gl_dim([1, 0, 0]) == 3
        assert gl_dim([2, 1]) == 2
        assert gl_dim([F(5, 2), F(5, 2)]) == 1


class TestFormalDegreeProduct:
    def test_examples(self):
        assert formal_degree_product(lam("3/2", "1/2")) == 1
        assert formal_degree_product(lam("5/2", "3/2", "1/2")) == 2

    def test_positive(self):
        assert formal_degree_product(lam("9/2", "-3/2")) == 6


def _brute_force_sweep(n, bound):
    """Reference sweep: every strictly decreasing tuple of proper half-integers
    in [-bound, bound] that classifies inside the closed-form domain."""
    grid = [F(t, 2) for t in range(1, int(2 * bound) + 1, 2)]
    grid = [-g for g in reversed(grid)] + grid
    out = []
    for combo in itertools.combinations(sorted(grid, reverse=True), n + 1):
        lamv = HCParameter(combo)
        try:
            classify_theta(lamv)
        except InadmissibleParameterError:
            continue
        out.append(lamv)
    return out


class TestAdmissibleSweep:
    def test_matches_brute_force(self):
        # the generated sweep equals the exhaustive search, in order, at every
        # bound up to 15/2; a smaller bound keeps the entries within it
        for n in range(1, 6):
            full = _brute_force_sweep(n, F(15, 2))
            for twice_bound in range(0, 16):
                ref = [lv for lv in full if all(abs(2 * e) <= twice_bound for e in lv)]
                assert admissible_sweep(n, F(twice_bound, 2)) == ref, (n, twice_bound)

    def test_str_round_trips_through_parse(self):
        for n in range(1, 5):
            for lv in admissible_sweep(n, F(15, 2)):
                assert HCParameter.parse(str(lv).strip("()")) == lv

    def test_rejects_empty_rank(self):
        for n in (0, -1):
            with pytest.raises(InvalidParameterError):
                admissible_sweep(n, F(15, 2))


class TestClosedS:
    def test_basic_value(self):
        assert closed_S(1, 1, 0, 0, 3) == ClosedValue(F(1, 2), 1)

    def test_shifted_weight(self):
        assert closed_S(1, 1, -2, 0, 0) == ClosedValue(F(1), 1)

    def test_quadrature_oracle(self):
        # independent one-dimensional integral: pi * int_0^1 (1-u)^(s-2) du
        from scipy.integrate import quad

        for s in (3, 4, F(7, 2)):
            val, _ = quad(lambda u: (1 - u) ** (float(s) - 2), 0, 1,
                          epsabs=1e-13, epsrel=1e-13)
            assert math.isclose(float(closed_S(1, 1, 0, 0, s)), math.pi * val, rel_tol=1e-10)

    def test_pole(self):
        with pytest.raises(PoleError):
            closed_S(1, 1, 0, 0, 1)

    def test_requires_one_dimensional_factor(self):
        with pytest.raises(InvalidParameterError):
            closed_S(2, 2, (1, 0), (1, 0), 5)

    def test_weight_lengths_must_match(self):
        # the value and its factor list refuse the same malformed input
        for fn in (closed_S, closed_S_factors):
            with pytest.raises(InvalidParameterError, match="must match"):
                fn(2, 1, (0,), (0,), 3)

    def test_both_factors_one_dimensional_consistent(self):
        # p=q=2, both weights constant: the two product shapes must agree
        val = closed_S(2, 2, (F(-1), F(-1)), (F(1), F(1)), 5)
        kappa, iota, s = F(-1), F(1), F(5)
        denom = F(1)
        for i in (1, 2):
            for d in range(i, i + 2):
                denom *= iota - kappa - d + s
        assert val == ClosedValue(1 / denom, 4)

    def test_degenerate_empty_side(self):
        assert closed_S(0, 2, (), (F(1), F(1)), 2) == ClosedValue(F(1), 0)

    def test_scalar_weight_is_the_constant_weight(self):
        # a scalar broadcasts to its side's length, as in verify_S
        assert closed_S(2, 1, -1, 2, 2) == closed_S(2, 1, (-1, -1), (2,), 2)
        assert closed_S_factors(2, 1, -1, 2, 2) == closed_S_factors(2, 1, (-1, -1), (2,), 2)


class TestClosedT:
    def test_examples(self):
        th1 = classify_theta(lam("3/2", "1/2"))
        assert closed_T(th1, 1) == ClosedValue(F(1, 2), 1)
        th2 = classify_theta(lam("5/2", "3/2", "1/2"))
        assert closed_T(th2, F(3, 2)) == ClosedValue(F(1, 6), 2)

    def test_pole(self):
        th1 = classify_theta(lam("3/2", "1/2"))
        with pytest.raises(PoleError):
            closed_T(th1, -1)  # alpha_1 - 1 + s = 0 at s = -1


    def test_is_S_on_the_rank_one_ball(self):
        # T(s) is the (n, 1) domain scalar at T_arguments, factor for factor;
        # at a pole both sides refuse
        for n in (1, 2, 3, 4):
            for lv in admissible_sweep(n, F(15, 2)):
                th = classify_theta(lv)
                for s in (F(-3, 2), F(-1), F(1, 2), F(n + 1, 2), F(n + 3)):
                    try:
                        t_val = closed_T(th, s)
                    except PoleError:
                        with pytest.raises(PoleError):
                            closed_S(*T_arguments(th), s)
                        continue
                    assert closed_S(*T_arguments(th), s) == t_val, (str(lv), s)


class TestZetaAndProjection:
    def test_zeta_examples(self):
        assert zeta_closed(lam("3/2", "1/2")) == ClosedValue(F(1, 2), 1)
        assert zeta_closed(lam("5/2", "3/2", "1/2")) == ClosedValue(F(1, 6), 2)

    def test_zeta_equals_T_over_dim(self):
        for lv in admissible_sweep(2, F(9, 2)) + admissible_sweep(1, 4):
            th = classify_theta(lv)
            lhs = zeta_closed(th) * weyl_dim(lv)
            assert lhs == closed_T(th, F(th.n + 1, 2))

    def test_c_squared_examples(self):
        assert c_squared(lam("3/2", "1/2")) == F(1, 2)
        assert c_squared(lam("5/2", "3/2", "1/2")) == F(1, 3)
        assert c_squared(lam("1/2", "-3/2")) == 1

    def test_projection_identity_small_sweep(self):
        # c^2 * S(dual, 0) == T((n+1)/2), exactly
        for n, bound in ((1, 4), (2, F(9, 2))):
            for lv in admissible_sweep(n, bound):
                th = classify_theta(lv)
                lhs = closed_S(*dual_S_arguments(th), 0) * c_squared(th)
                assert lhs == closed_T(th, F(n + 1, 2)), str(lv)

    def test_c_squared_cross_check_via_ratio(self):
        th = classify_theta(lam("3/2", "1/2"))
        ratio = closed_T(th, 1) / closed_S(*dual_S_arguments(th), 0)
        assert ratio == ClosedValue(F(1, 2), 0)
        assert ratio.rational == c_squared(th)

    def test_bounds_small_sweep(self):
        for n, bound in ((1, 5), (2, F(11, 2))):
            for lv in admissible_sweep(n, bound):
                th = classify_theta(lv)
                c2 = c_squared(th)
                assert 0 < c2 <= 1
                assert (c2 == 1) == (th.p == 0 or th.q == 0)

    def test_formal_degree_ratio_constant(self):
        for n, bound in ((1, 5), (2, F(11, 2)), (3, F(9, 2))):
            ratios = set()
            for lv in admissible_sweep(n, bound):
                th = classify_theta(lv)
                sval = closed_S(*dual_S_arguments(th), 0)
                r = ClosedValue(F(weyl_dim(lv)), 0) / sval / formal_degree_product(lv)
                ratios.add((r.rational, r.pi_exp))
            assert len(ratios) == 1, f"n={n}: {ratios}"


class TestClosedValue:
    def test_arithmetic(self):
        a = ClosedValue(F(1, 2), 1)
        b = ClosedValue(F(3), 2)
        assert a * b == ClosedValue(F(3, 2), 3)
        assert (a / b) == ClosedValue(F(1, 6), -1)
        assert math.isclose(float(a), math.pi / 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(
        st.integers(min_value=-9, max_value=9), min_size=2, max_size=4, unique=True
    )
)
def test_classify_total_on_decreasing_input(twices):
    # proper half-integer entries: classification either succeeds or raises
    # the admissibility error, never anything else; on success the projection
    # constant lies in (0, 1]
    ent = sorted((2 * t + 1 for t in twices), reverse=True)
    lamv = HCParameter(tuple(F(t, 2) for t in ent))
    try:
        th = classify_theta(lamv)
    except InadmissibleParameterError:
        return
    c2 = c_squared(th)
    assert 0 < c2 <= 1
    assert th.p + th.q == lamv.n + 1
