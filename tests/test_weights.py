import dataclasses
import itertools
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arczeta import weights
from arczeta.characters import schur_eval
from arczeta.errors import InadmissibleParameterError, InvalidParameterError, PoleError
from arczeta.weights import (
    Case,
    ClosedValue,
    HCParameter,
    T_arguments,
    ThetaDatum,
    WeightPair,
    admissible_sweep,
    c_squared,
    classify_theta,
    closed_S,
    closed_S_factors,
    closed_T,
    closed_T_factors,
    dual_S_arguments,
    formal_degree,
    formal_degree_product,
    gl_dim,
    hc_to_blattner,
    parse_fraction,
    weyl_dim,
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

    def test_each_entry_read_once(self, monkeypatch):
        # a half-integer Fraction is kept as it is; parse reads each text
        # entry once, plain entries as ints, and only other text through
        # _half_integer, once per such entry
        half = F(3, 2)
        assert HCParameter.of(half, F(1, 2)).entries[0] is half
        texts, general = [], []
        read_text, read = weights._doubled_text, weights._half_integer
        monkeypatch.setattr(weights, "_doubled_text",
                            lambda x: texts.append(x) or read_text(x))
        monkeypatch.setattr(weights, "_half_integer", lambda x: general.append(x) or read(x))
        assert HCParameter.parse("5/2,3/2,1/2") == HCParameter.of(F(5, 2), F(3, 2), F(1, 2))
        assert texts == ["5/2", "3/2", "1/2"] and general == []
        assert HCParameter.parse("+5/2, 3/2,2/4") == HCParameter.of(F(5, 2), F(3, 2), F(1, 2))
        assert texts[3:] == ["+5/2", " 3/2", "2/4"] and general == ["+5/2", "2/4"]

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

    # the form read as ints: an optional minus and ASCII digits, over ASCII digits
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True))
    def test_integer_form_reads_as_fraction_does(self, text):
        try:
            expected = F(text)
        except ZeroDivisionError as exc:
            with pytest.raises(ZeroDivisionError, match="^" + re.escape(str(exc)) + "$"):
                parse_fraction(text)
        else:
            value = parse_fraction(text)
            assert type(value) is F and value == expected

    @pytest.mark.parametrize("text", [
        " 3/2", "+1/2", "1.5", "3/02", "-2/4", "3/0", "-3/00", "x", "", "-", "3/", "/2",
        "--1/2", "1_1/2", "\u0663/2"])
    def test_other_text_reads_as_fraction_does(self, text):
        # every other form keeps Fraction's value or Fraction's error, in the
        # words HCParameter.parse has always used
        try:
            expected = F(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            message = f"bad entry at position 0: cannot parse half-integer {text!r}: {exc}"
            with pytest.raises(InvalidParameterError) as err:
                HCParameter.parse(text + ",-7/2")
            assert str(err.value) == message
            with pytest.raises(type(exc), match="^" + re.escape(str(exc)) + "$"):
                parse_fraction(text)
        else:
            assert parse_fraction(text) == expected
            assert HCParameter.parse(text + ",-7/2").entries[0] == expected


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
            first, second = th.Lambda
            assert th.LambdaDual == WeightPair(tuple(-x for x in reversed(first)),
                                               tuple(-x for x in reversed(second)))

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
        for refused in (zeta_closed, c_squared, lambda th: closed_T(th, 1),
                        lambda th: closed_T_factors(th, 1)):
            with pytest.raises(InadmissibleParameterError):
                refused(th)

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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.integers(min_value=-4, max_value=6), min_size=1, max_size=5))
    def test_gl_dim_is_the_schur_count(self, entries):
        # s_mu(1, ..., 1) counts semistandard tableaux, an independent
        # route to the dimension; a half-integral det twist changes nothing
        mu = sorted(entries, reverse=True)
        ones = [1] * len(mu)
        assert gl_dim(mu) == schur_eval(mu, ones)
        assert gl_dim([x + F(1, 2) for x in mu]) == schur_eval(mu, ones)

    @pytest.mark.parametrize("mu", [(0, 1), (F(1, 2), 0), (-2, 1, 1), (-1, -1, 2),
                                    (F(3, 2), 1), (1, F(1, 2))])
    def test_gl_dim_refuses_non_dominant(self, mu):
        # Weyl's product is 1 at (-2, 1, 1) and (-1, -1, 2), whose mu + rho
        # are even permutations of (2, 1, 0)
        with pytest.raises(InvalidParameterError, match="not a dominant weight"):
            gl_dim(mu)


class TestFormalDegreeProduct:
    def test_examples(self):
        assert formal_degree_product(lam("3/2", "1/2")) == 1
        assert formal_degree_product(lam("5/2", "3/2", "1/2")) == 2

    def test_positive(self):
        assert formal_degree_product(lam("9/2", "-3/2")) == 6

    def test_formal_degree_examples(self):
        # d(lambda) = pi**-n prod |lambda_i - lambda_j| / (0! 1! ... (n-1)!)
        assert formal_degree(lam("3/2", "1/2")) == ClosedValue(F(1), -1)
        assert formal_degree(lam("5/2", "3/2", "1/2")) == ClosedValue(F(2), -2)
        # n = 3: gaps 3*6*7 * 3*4 * 1 = 1512 over 0! 1! 2! = 2
        assert formal_degree(lam("7/2", "1/2", "-5/2", "-7/2")) == ClosedValue(F(756), -3)
        for lv in admissible_sweep(4, F(11, 2)):
            expected = formal_degree_product(lv) / math.prod(map(math.factorial, range(4)))
            assert formal_degree(lv) == ClosedValue(expected, -4)


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

    def test_rejects_bound_that_is_not_a_half_integer(self):
        # neither a third nor a float is rounded to a half-integer bound
        for bound in (F(1, 3), 2.5, "1/0"):
            with pytest.raises(InvalidParameterError):
                admissible_sweep(1, bound)


@st.composite
def ball_args(draw):
    """(p, q, kappas, iotas, s): two dominant weights, each integral or
    half-integral, on a ball of size at most (4, 4), and a half-integral s."""
    def weight(k):
        shift = draw(st.sampled_from((F(0), F(1, 2))))
        ents = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k))
        return tuple(sorted((e + shift for e in ents), reverse=True))

    p, q = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return p, q, weight(p), weight(q), F(draw(st.integers(-8, 30)), 2)


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

    def test_both_weights_varying_value(self):
        # factors s - kappa_i + iota_j - (p - i + j) at (i, j) = (1,1), (1,2),
        # (2,1), (2,2): 3, 1, 5 and 3
        assert closed_S(2, 2, (1, 0), (1, 0), 5) == ClosedValue(F(1, 45), 4)
        assert closed_S_factors(2, 2, (1, 0), (1, 0), 5) == [3, 1, 5, 3]

    def test_one_sided_products_on_every_shape(self):
        # the one-sided products, written out: iota constant, kappa constant
        def iota_constant(p, q, kap, iota, s):
            return math.prod((iota - kap[i - 1] - d + s for i in range(1, p + 1)
                              for d in range(p + 1 - i, p + q - i + 1)), start=F(1))

        def kappa_constant(p, q, kappa, iot, s):
            return math.prod((iot[j - 1] - kappa - d + s for j in range(1, q + 1)
                              for d in range(j, p + j)), start=F(1))

        def dominant(k):
            return itertools.combinations_with_replacement(range(2, -3, -1), k)

        cases = []
        for p, q in itertools.product(range(5), repeat=2):
            for c, s in itertools.product((F(0), F(3, 2)), (F(p + q + 2), F(13, 2))):
                cases += [((p, q, kap, (c,) * q, s), iota_constant(p, q, kap, c, s))
                          for kap in dominant(p)]
                cases += [((p, q, (c,) * p, iot, s), kappa_constant(p, q, c, iot, s))
                          for iot in dominant(q)]
        poles = 0
        for args, denom in cases:
            if denom == 0:
                poles += 1
                with pytest.raises(PoleError):
                    closed_S(*args)
            else:
                assert closed_S(*args) == ClosedValue(1 / denom, args[0] * args[1]), args
        assert len(cases) > 3000 and poles > 0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ball_args())
    def test_ball_transpose(self, args):
        # z -> z^T carries the (p, q) ball to the (q, p) ball and swaps the
        # two weights, each contragredient: S(p, q, kappa, iota, s) equals
        # S(q, p, -rev iota, -rev kappa, s), poles included
        def value(p, q, kap, iot, s):
            try:
                return closed_S(p, q, kap, iot, s)
            except PoleError:
                return "pole"

        p, q, kap, iot, s = args
        assert value(*args) == value(q, p, tuple(-x for x in reversed(iot)),
                                     tuple(-x for x in reversed(kap)), s)

    def test_weight_lengths_must_match(self):
        # the value and its factor list refuse the same malformed input
        for fn in (closed_S, closed_S_factors):
            with pytest.raises(InvalidParameterError, match="must match"):
                fn(2, 1, (0,), (0,), 3)

    def test_weights_must_be_dominant(self):
        # the value and its factor list refuse the weights verify_S refuses,
        # an increasing one and one whose entries are not mutually congruent
        for args in ((2, 1, (0, 1), (0,)), (2, 1, (F(1, 2), 0), (0,)),
                     (1, 2, (0,), (0, 1)), (1, 2, (0,), (F(1, 2), 0))):
            for fn in (closed_S, closed_S_factors):
                with pytest.raises(InvalidParameterError, match="not a dominant weight"):
                    fn(*args, 5)
        with pytest.raises(InvalidParameterError, match="not a dominant weight"):
            closed_S(2, 1, (F(1, 2), 0), (0,), 3)

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

    @staticmethod
    def paper_factors(th, s):
        """The paper's written-out linear factors of T(s)'s denominator."""
        n = th.n
        if th.case is Case.I:
            return [al - i + s - F(1 - n, 2) for i, al in enumerate(th.alphas, 1)]
        return [th.gamma - i + s - F(th.p - th.q, 2) for i in range(1, n + 1)]

    def test_is_S_on_the_rank_one_ball(self):
        # closed_T is closed_S at T_arguments; the paper writes it out as
        # pi^n / prod (alpha_i - i + s - (1-n)/2) (Case I) and
        # pi^n / prod (gamma - i + s - (p-q)/2) (Case II), the oracle here.
        # At a pole both sides refuse
        for n in (1, 2, 3, 4):
            for lv in admissible_sweep(n, F(15, 2)):
                th = classify_theta(lv)
                for s in (F(-3, 2), F(-1), F(1, 2), F(n + 1, 2), F(n + 3)):
                    factors = self.paper_factors(th, s)
                    assert sorted(closed_T_factors(th, s)) == sorted(factors), (str(lv), s)
                    if 0 in factors:
                        with pytest.raises(PoleError):
                            closed_T(th, s)
                        continue
                    t_val = ClosedValue(1 / math.prod(factors), n)
                    assert closed_T(th, s) == t_val, (str(lv), s)


class TestZetaAndProjection:
    def test_zeta_examples(self):
        assert zeta_closed(lam("3/2", "1/2")) == ClosedValue(F(1, 2), 1)
        assert zeta_closed(lam("5/2", "3/2", "1/2")) == ClosedValue(F(1, 6), 2)

    def test_zeta_equals_T_over_dim(self):
        for lv in admissible_sweep(2, F(9, 2)) + admissible_sweep(1, 4):
            th = classify_theta(lv)
            lhs = zeta_closed(th) * weyl_dim(lv)
            assert lhs == closed_T(th, F(th.n + 1, 2))

    def test_dim_sigma_fixed_at_classification(self):
        for lv in admissible_sweep(2, F(9, 2)) + admissible_sweep(1, 4):
            th = classify_theta(lv)
            assert th.dim_sigma == weyl_dim(lv) == gl_dim(th.Lambda.first)

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


def _random_admissible(count, seed):
    """``count`` admissible parameters with n <= 7 and entries up to 61/2,
    from a seeded stream of strictly decreasing congruent tuples in both
    classes with a uniform number of positive entries, kept when they
    classify.  Half of the half-integer draws with 0 < m <= n positive
    entries get the head (m - 1/2, ..., 1/2) that served Case II forces."""
    rng, found = random.Random(seed), []
    while len(found) < count:
        n = rng.randint(1, 7)
        odd = rng.random() < 0.5
        bound = rng.randint(n + 1, 30)
        m = rng.randint(0, n + 1)
        head = sorted(rng.sample(range(2 - odd, 2 * bound + 1, 2), m), reverse=True)
        if odd and 0 < m <= n and rng.random() < 0.5:
            head = range(2 * m - 1, 0, -2)
        tail = sorted(rng.sample(range(-odd, -2 * bound - 1, -2), n + 1 - m), reverse=True)
        try:
            found.append(classify_theta(HCParameter(tuple(F(t, 2) for t in [*head, *tail]))))
        except InadmissibleParameterError:
            pass
    return found


class TestLambdaForms:
    """The closed values as products over lambda, written out here from the
    entries alone: A(lambda) = (lambda_1, ..., lambda_n) when lambda_{n+1} > 0
    (Case I), else (|lambda_{n+1}| + k for k < n) (Case II).  The library
    reaches closed_T and closed_S through classification, the weight pairs
    and _S_factors, and zeta_closed and c_squared through its own product on
    the doubled entries; every value must agree at zero tolerance."""

    SWEEPS = ((1, F(15, 2)), (2, F(15, 2)), (3, F(15, 2)), (4, F(15, 2)),
              (5, F(13, 2)), (6, F(11, 2)))

    @staticmethod
    def check(th):
        ent, n = th.lam.entries, th.n
        last = ent[n]
        shifts = ent[:n] if last > 0 else [-last + k for k in range(n)]
        halves = [a + F(1, 2) for a in shifts]
        # D = prod (2a + 1) is an integer >= 1: no factor can vanish
        twice = math.prod(2 * h for h in halves)
        assert twice.denominator == 1 and twice >= 1, str(th.lam)
        s0 = F(n + 1, 2)
        zeta = zeta_closed(th)
        assert zeta == closed_T(th, s0) / th.dim_sigma, str(th.lam)
        assert zeta == ClosedValue(1 / (th.dim_sigma * math.prod(halves)), n), str(th.lam)
        assert c_squared(th) == math.prod(x - last for x in ent[:n]) / math.prod(halves)
        # Schur orthogonality: the projection constant is the formal degree
        # times the zeta integral per unit norm
        assert ClosedValue(c_squared(th), 0) == formal_degree(th.lam) * zeta, str(th.lam)
        for s in (F(n + 3, 2), F(2 * n + 7, 4)):
            t_val = ClosedValue(1 / math.prod(s - F(n, 2) + a for a in shifts), n)
            assert closed_T(th, s) == t_val, (str(th.lam), s)
            s_val = ClosedValue(1 / math.prod(s + x - last for x in ent[:n]), n)
            assert closed_S(*dual_S_arguments(th), s) == s_val, (str(th.lam), s)

    def test_sweeps(self):
        count = 0
        for n, bound in self.SWEEPS:
            for lv in admissible_sweep(n, bound):
                self.check(classify_theta(lv))
                count += 1
        assert count > 714

    def test_seeded_random_datums(self):
        thetas = _random_admissible(600, seed=41)
        for th in thetas:
            self.check(th)
        integer_class = sum(th.nonstandard_congruence for th in thetas)
        case_two = sum(th.case is Case.II for th in thetas)
        assert integer_class >= 100 and case_two >= 100

    def test_refused_case_two_stays_refused(self):
        # every strictly decreasing congruent tuple of n = 1..3 within 15/2
        # that classifies outside the closed-form domain; the lambda-products
        # would be the wrong product formula there
        refused = 0
        for n in (1, 2, 3):
            for twices in itertools.combinations(range(15, -16, -1), n + 1):
                if len({t & 1 for t in twices}) > 1:
                    continue
                lv = HCParameter(tuple(F(t, 2) for t in twices))
                try:
                    th = classify_theta(lv, enforce_closed_form_domain=False)
                except InadmissibleParameterError:
                    continue
                if th.closed_form_valid:
                    continue
                refused += 1
                assert th.case is Case.II
                for fn in (zeta_closed, c_squared):
                    with pytest.raises(InadmissibleParameterError, match="validity domain"):
                        fn(th)
        assert refused > 1000


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


def _classify_oracle(lv, enforce):
    """The classification written out in Fraction arithmetic, entry by entry
    as the paper states it; raises what classify_theta must raise."""
    fr, n, half = lv.fractions, lv.n, F(1, 2)
    b = 1 if fr[n] <= 0 else 0
    p = sum(1 for i in range(n) if fr[i] <= 0) - b + 1
    q = n + 1 - p
    if b == 0:
        if p != 1 or q != n:
            raise InadmissibleParameterError(f"Case I forces (p,q)=(1,{n}), got ({p},{q})")
        gamma = fr[n] - half
        alphas = tuple(fr[i - 1] + i - n + half for i in range(1, n + 1))
        betas = ()
        if gamma < 0:
            raise InadmissibleParameterError(f"Case I needs gamma >= 0, got {gamma}")
        if any(x < y for x, y in zip(alphas, alphas[1:])):
            raise InadmissibleParameterError(f"alphas must be weakly decreasing, got {alphas}")
        if alphas[-1] < gamma + 2:
            raise InadmissibleParameterError(
                f"violated constraint alpha_n >= gamma + 2 ({alphas[-1]} < {gamma + 2})")
        tw = F(n - 1, 2)
        Lambda = WeightPair(tuple(al + tw for al in alphas), (gamma - tw,))
        prime = WeightPair((-gamma + tw,), tuple(-al - tw for al in reversed(alphas)))
        closed_ok = True
    else:
        if not 0 <= p <= n:
            raise InadmissibleParameterError(f"Case II needs 0 <= p <= n, got p={p}")
        gamma = -fr[n] + p - half
        betas = tuple(-fr[n - i] + i - p - half for i in range(1, p + 1))
        alphas = tuple(fr[r - 1] + r - q + half for r in range(1, q))
        if gamma <= 0:
            raise InadmissibleParameterError(f"Case II needs gamma > 0, got {gamma}")
        for name, xs in (("betas", betas), ("alphas", alphas)):
            if any(x < 0 for x in xs) or any(x < y for x, y in zip(xs, xs[1:])):
                raise InadmissibleParameterError(
                    f"{name} must be weakly decreasing >= 0, got {xs}")
        if betas and betas[0] > gamma - 2 * p:
            raise InadmissibleParameterError(
                f"violated constraint beta_1 <= gamma - 2p ({betas[0]} > {gamma - 2 * p})")
        closed_ok = all(al == 0 for al in alphas)
        if not closed_ok and enforce:
            raise InadmissibleParameterError(
                "Case II requires every padded alpha to vanish for the closed forms "
                f"(got alphas={tuple(map(str, alphas))}); outside this domain the "
                "substitution route and the oscillator transform provably disagree")
        tw, twp = F(q - p, 2), F(n - 1, 2)
        mixed = alphas + tuple(-be for be in reversed(betas))
        Lambda = WeightPair(tuple(x + tw for x in mixed), (-gamma - tw,))
        prime = WeightPair(tuple(be + twp for be in betas),
                           tuple(x - twp for x in (gamma,) + tuple(-al for al in reversed(alphas))))
    return dict(lam=lv, n=n, case=Case.I if b == 0 else Case.II, p=p, q=q, gamma=gamma,
                alphas=alphas, betas=betas, Lambda=Lambda,
                LambdaDual=WeightPair(tuple(-x for x in reversed(Lambda.first)),
                                      (-Lambda.second[0],)),
                LambdaPrime=prime, nonstandard_congruence=fr[0].denominator == 1,
                closed_form_valid=closed_ok, dim_sigma=gl_dim(Lambda.first))


def _fraction_fields(th):
    return (th.gamma, *th.alphas, *th.betas, *th.Lambda.first, *th.Lambda.second,
            *th.LambdaDual.first, *th.LambdaDual.second,
            *th.LambdaPrime.first, *th.LambdaPrime.second)


@st.composite
def congruent_parameters(draw):
    """Strictly decreasing, mutually congruent entries with |entry| <= 19/2,
    n <= 6, all half-integral or all integral."""
    pool = range(-19, 20, 2) if draw(st.booleans()) else range(-18, 19, 2)
    twices = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=7, unique=True))
    return HCParameter(tuple(F(t, 2) for t in sorted(twices, reverse=True)))


class TestIntegerClassification:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(congruent_parameters())
    def test_matches_the_fraction_oracle(self, lv):
        for enforce in (True, False):
            try:
                expected = _classify_oracle(lv, enforce)
            except InadmissibleParameterError as exc:
                with pytest.raises(type(exc)) as info:
                    classify_theta(lv, enforce_closed_form_domain=enforce)
                assert str(info.value) == str(exc)
                continue
            th = classify_theta(lv, enforce_closed_form_domain=enforce)
            # every field but the private doubled pairs, and the three views
            names = {f.name for f in dataclasses.fields(ThetaDatum)} - {"_pairs"}
            assert names | {"Lambda", "LambdaDual", "LambdaPrime"} == set(expected)
            got = {name: getattr(th, name) for name in expected}
            assert got == expected
            assert all(type(x) is F for x in _fraction_fields(th))
            assert th._pairs == tuple(tuple(tuple(int(2 * x) for x in side) for side in pair)
                                      for pair in (th.Lambda, th.LambdaDual, th.LambdaPrime))

    @staticmethod
    def _built(monkeypatch, fn):
        """The number of Fractions ``fn`` builds, and its result."""
        built = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        try:
            result = fn()
        finally:
            monkeypatch.undo()
        return len(built), result

    @pytest.mark.parametrize("entries", [("7/2", "5/2", "3/2", "1/2"),
                                         ("3/2", "1/2", "-5/2", "-9/2")])
    def test_one_fraction_per_returned_entry(self, monkeypatch, entries):
        # the arithmetic runs on doubled integers: a cold classification and
        # the first read of every weight pair build one Fraction per distinct
        # value of the result, and a second round reuses them all
        lv = lam(*entries)

        def classify_and_read():
            th = classify_theta(lv)
            assert th.Lambda and th.LambdaDual and th.LambdaPrime
            return th

        weights._half.cache_clear()
        count, th = self._built(monkeypatch, classify_and_read)
        assert count == len(set(_fraction_fields(th))) <= len(_fraction_fields(th)) == 16
        assert self._built(monkeypatch, classify_and_read) == (0, th)
        assert self._built(monkeypatch, lambda: formal_degree_product(lv))[0] == 1
        s = F(th.n + 1, 2)
        for args in (dual_S_arguments(th) + (0,), T_arguments(th) + (s,)):
            assert self._built(monkeypatch, lambda: closed_S(*args))[0] <= 2

    def test_warm_sweep_builds_no_fraction(self, monkeypatch):
        # once every half-integer exists, classifying the n = 1..4 sweep to
        # 15/2 builds no Fraction at all
        sweep = [lv for n in (1, 2, 3, 4) for lv in admissible_sweep(n, F(15, 2))]
        first = [classify_theta(lv) for lv in sweep]
        count, again = self._built(monkeypatch, lambda: [classify_theta(lv) for lv in sweep])
        assert count == 0 and again == first and len(sweep) == 714


def _lambda_gl_oracle(th):
    """lambda_gl in Fraction arithmetic on the weight pair Lambda."""
    tw = F(th.n - 1, 2) if th.case is Case.I else F(th.q - th.p, 2)
    out = []
    for entries, t in zip(th.Lambda, (tw, -tw)):
        parts = [e - t for e in entries]
        if any(x.denominator != 1 for x in parts):
            raise InadmissibleParameterError(
                "weight has non-integral parts after removing the det twist; "
                "parameter is in the flagged congruence class")
        out.append((tuple(int(x) for x in parts), int(2 * t)))
    return tuple(out)


class TestLazyWeightPairs:
    SWEEP = [lv for n in (1, 2, 3, 4) for lv in admissible_sweep(n, F(15, 2))]

    @staticmethod
    def _count_pairs(monkeypatch):
        built = []
        pair = weights.WeightPair
        monkeypatch.setattr(weights, "WeightPair", lambda *a: built.append(a) or pair(*a))
        return built

    def test_classification_and_table_rows_build_no_weight_pair(self, monkeypatch):
        from arczeta import cli

        built = self._count_pairs(monkeypatch)
        thetas = [classify_theta(lv) for lv in self.SWEEP]
        rows = [cli._table_row(lv) for lv in self.SWEEP]
        assert built == [] and len(rows) == len(thetas) == 714

    def test_each_view_built_once(self, monkeypatch):
        th = classify_theta(lam("1/2", "-3/2", "-5/2", "-7/2"))
        built = self._count_pairs(monkeypatch)
        views = [(th.Lambda, th.LambdaDual, th.LambdaPrime) for _ in range(3)]
        assert len(built) == 3 and all(v == views[0] for v in views)
        assert all(type(v) is WeightPair for v in views[0])
        assert [vars(th)[name] for name in ("Lambda", "LambdaDual", "LambdaPrime")] == \
            list(views[0])

    @pytest.mark.parametrize("read", [False, True])
    def test_pickle_round_trip(self, read):
        datums = [classify_theta(lam("5/2", "3/2", "1/2")),
                  classify_theta(lam("1/2", "-3/2", "-5/2", "-7/2")),
                  classify_theta(HCParameter.of(2, 1)),
                  classify_theta(lam("7/2", "-3/2", "-5/2"), enforce_closed_form_domain=False)]
        for th in datums:
            views = (th.Lambda, th.LambdaDual, th.LambdaPrime) if read else None
            back = pickle.loads(pickle.dumps(th))
            assert back == th and back._pairs == th._pairs and str(back) == str(th)
            assert ("Lambda" in vars(back)) is read
            assert (back.Lambda, back.LambdaDual, back.LambdaPrime) == \
                (views or (th.Lambda, th.LambdaDual, th.LambdaPrime))

    def test_lambda_gl_matches_the_fraction_route_once(self):
        # the sweeps and the integer class, where some datums are refused
        params = self.SWEEP + [HCParameter(tuple(F(t) for t in tw))
                               for n in (1, 2, 3)
                               for tw in itertools.combinations(range(5, -6, -1), n + 1)]
        refused = 0
        for lv in params:
            try:
                th = classify_theta(lv)
            except InadmissibleParameterError:
                continue
            try:
                expected = _lambda_gl_oracle(th)
            except InadmissibleParameterError as exc:
                refused += 1
                with pytest.raises(InadmissibleParameterError, match=re.escape(str(exc))):
                    th.lambda_gl()
                continue
            assert th.lambda_gl() == expected
            assert th.lambda_gl() is th.lambda_gl()
        assert refused > 0


PARSE_REFUSALS = [
    ("1/3,-1/2", "bad entry at position 0: 1/3 is not a half-integer"),
    ("3/2,,1/2", "bad entry at position 1: cannot parse half-integer '': "
                 "Invalid literal for Fraction: ''"),
    ("1/2/1,-1/2", "bad entry at position 0: cannot parse half-integer '1/2/1': "
                   "Invalid literal for Fraction: '1/2/1'"),
    ("3/2,\u00b2/2", "bad entry at position 1: cannot parse half-integer '\u00b2/2': "
                     "Invalid literal for Fraction: '\u00b2/2'"),
    ("5/2,1/0", "bad entry at position 1: cannot parse half-integer '1/0': Fraction(1, 0)"),
]


class TestIntegerParse:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(congruent_parameters(), st.sampled_from(["{}", " {} ", "{}/1", "{}/2"]))
    def test_equals_the_fraction_path(self, lv, form):
        # each entry written as an integer over 1 or 2 (or bare, when integral)
        texts = []
        for t in lv._two:
            if form == "{}/2":
                texts.append(form.format(t))
            else:
                texts.append(form.format(t // 2) if t % 2 == 0 else f"{t}/2")
        got = HCParameter.parse(",".join(texts))
        assert got == HCParameter(tuple(F(x) for x in texts)) == lv
        assert got._two == lv._two and str(got) == str(lv)
        assert all(e is weights._half(t) for e, t in zip(got.entries, got._two))

    @pytest.mark.parametrize("text, message", PARSE_REFUSALS)
    def test_refusals_keep_their_text(self, text, message):
        with pytest.raises(InvalidParameterError) as info:
            HCParameter.parse(text)
        assert type(info.value) is InvalidParameterError and str(info.value) == message

    def test_other_text_takes_the_fraction_route(self):
        # non-ASCII decimal digits, and a plain entry past int's digit limit,
        # read as Fraction reads them
        assert HCParameter.parse("\u0663/2,-7/2") == HCParameter.of(F(3, 2), F(-7, 2))
        huge = "9" * 5000
        try:
            F(huge)
        except ValueError as exc:
            expected = f"bad entry at position 0: cannot parse half-integer {huge!r}: {exc}"
            with pytest.raises(InvalidParameterError) as info:
                HCParameter.parse(huge + ",1")
            assert str(info.value) == expected
        else:  # no digit limit in this interpreter
            assert HCParameter.parse(huge + ",1").entries[0] == F(huge)

    def test_checks_and_texts_of_the_integer_constructor(self):
        for two in [(3, 3), (1, 3), (3, 0), (1,)]:
            with pytest.raises(InvalidParameterError) as from_two:
                HCParameter._from_two(two)
            with pytest.raises(InvalidParameterError) as from_fractions:
                HCParameter(tuple(F(t, 2) for t in two))
            assert str(from_two.value) == str(from_fractions.value)
        lv = HCParameter._from_two((5, 1, -3))
        assert lv == lam("5/2", "1/2", "-3/2") and str(lv) == "(5/2,1/2,-3/2)"
        assert str(HCParameter._from_two((4, 0, -6))) == "(2,0,-3)"


# every refusal of HCParameter, with the exception text it has always had
REFUSALS = [
    pytest.param(lambda: HCParameter.of(F(3, 2), F(3, 2)),
                 "entries must be strictly decreasing, got (3/2,3/2)", id="equal"),
    pytest.param(lambda: HCParameter.of(F(1, 2), F(3, 2)),
                 "entries must be strictly decreasing, got (1/2,3/2)", id="increasing"),
    pytest.param(lambda: HCParameter.of(F(1, 2), 2),
                 "entries must be strictly decreasing, got (1/2,2)", id="increasing-mixed"),
    pytest.param(lambda: HCParameter.of(F(3, 2), 0),
                 "entries must be mutually congruent mod 1, got (3/2,0)", id="mixed"),
    pytest.param(lambda: HCParameter.of(F(1, 3), F(-1, 2)), "1/3 is not a half-integer",
                 id="one-third"),
    pytest.param(lambda: HCParameter.of(1.5, F(1, 2)), "cannot interpret 1.5 as a half-integer",
                 id="float"),
    pytest.param(lambda: HCParameter.of("5/0", "1/2"),
                 "cannot parse half-integer '5/0': Fraction(5, 0)", id="zero-denominator"),
    pytest.param(lambda: HCParameter.of("x", "1/2"),
                 "cannot parse half-integer 'x': Invalid literal for Fraction: 'x'", id="text"),
    pytest.param(lambda: HCParameter.of(F(1, 2)), "parameter needs at least two entries",
                 id="one-entry"),
    pytest.param(lambda: HCParameter.parse("3/2,,1/2"),
                 "bad entry at position 1: cannot parse half-integer '': "
                 "Invalid literal for Fraction: ''", id="parse-empty"),
]


class TestDoubledEntries:
    @pytest.mark.parametrize("build, text", REFUSALS)
    def test_refusals_keep_their_type_and_text(self, build, text):
        with pytest.raises(InvalidParameterError) as info:
            build()
        assert type(info.value) is InvalidParameterError and str(info.value) == text

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(congruent_parameters())
    def test_keeps_the_doubled_entries(self, lv):
        assert lv._two == tuple(int(2 * e) for e in lv.entries)
        assert all(type(t) is int for t in lv._two)

    def test_entries_stay_the_only_field(self):
        lv = lam("5/2", "1/2", "-3/2")
        assert [f.name for f in dataclasses.fields(HCParameter)] == ["entries"]
        assert repr(lv) == f"HCParameter(entries={lv.entries!r})"
        assert hash(lv) == hash(HCParameter(lv.entries)) and lv == HCParameter.parse("5/2,1/2,-3/2")
        back = pickle.loads(pickle.dumps(lv))
        assert back == lv and back._two == lv._two == (5, 1, -3)
        assert dataclasses.replace(lv, entries=(3, 1))._two == (6, 2)

    def test_the_sweep_compares_no_fraction(self, monkeypatch):
        # building, classifying, parsing back and the two products of the
        # n = 1..4 sweep to 15/2 order integers only
        calls = []
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            op = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name,
                                lambda a, b, op=op, name=name: calls.append(name) or op(a, b))
        sweep = [lv for n in (1, 2, 3, 4) for lv in admissible_sweep(n, F(15, 2))]
        for lv in sweep:
            classify_theta(lv)
            assert HCParameter.parse(str(lv)[1:-1]) == lv
            weyl_dim(lv)
            formal_degree_product(lv)
        assert len(sweep) == 714 and calls == []
        assert F(1, 2) < F(3, 2) and calls == ["__lt__"]  # the count sees a comparison


class TestHalf:
    def test_one_object_per_value(self):
        assert weights._half(7) is weights._half(7) == F(7, 2)
        assert weights._half(-6) is weights._half(-6) == -3
        assert type(weights._half(4)) is F

    def test_sweep_and_classification_share_the_halves(self):
        lv = admissible_sweep(2, F(7, 2))[0]
        th = classify_theta(lv)
        assert all(e is weights._half(int(2 * e)) for e in lv.entries + th.Lambda.first)
        assert th.gamma is weights._half(int(2 * th.gamma))

    @pytest.mark.parametrize("text, value", [("4/2", F(2)), ("-3", F(-3)), ("7/2", F(7, 2)),
                                             ("-4/1", F(-4)), ("-0", F(0))])
    def test_integer_form_with_denominator_one_or_two(self, text, value):
        got = parse_fraction(text)
        assert type(got) is F and got == value and got is weights._half(int(2 * value))

    def test_other_denominators_take_the_general_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(weights, "_half", lambda two: calls.append(two))
        assert parse_fraction("5/3") == F(5, 3) and parse_fraction("-6/4") == F(-3, 2)
        assert calls == []
