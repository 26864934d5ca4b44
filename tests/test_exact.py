import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arczeta.exact import (
    PiLaurent,
    QQi,
    exact_inverse,
    leading_minors,
    rational_hyperbolic,
)
from arczeta.fock import FockPoly, minors
from arczeta.group import haar_unitary, sample_ball

F = Fraction

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
gaussians = st.builds(QQi, rationals, rationals)


def leibniz(rows):
    """Reference determinant: the sum over all m! permutations."""
    m = len(rows)
    total = None
    for perm in itertools.permutations(range(m)):
        term = rows[0][perm[0]]
        for i in range(1, m):
            term = term * rows[i][perm[i]]
        if sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m)) % 2:
            term = -term
        total = term if total is None else total + term
    return total


@settings(max_examples=80, deadline=None, derandomize=True)
@given(gaussians, gaussians, gaussians)
def test_gaussian_rational_field_laws(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a - b) + b == a
    if b:
        assert (a / b) * b == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(gaussians, st.integers(min_value=0, max_value=6))
def test_gaussian_rational_powers(a, k):
    expect = QQi(1)
    for _ in range(k):
        expect = expect * a
    assert a**k == expect
    if a:
        assert a**-1 == a.inverse()


class TestQQi:
    def test_norm_and_inverse(self):
        a = QQi(F(3, 5), F(4, 5))
        assert a.norm2() == 1
        assert a.inverse() == a.conjugate()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QQi(1).inverse() * QQi(0).inverse()

    def test_complex_cast(self):
        assert complex(QQi(F(1, 2), -2)) == 0.5 - 2j


class TestPiLaurent:
    def test_single_and_mixed(self):
        a = PiLaurent.single(QQi(2), -1)
        b = PiLaurent.single(QQi(0, 1), 2)
        assert (a + b).terms == {-1: QQi(2), 2: QQi(0, 1)}
        assert a * b == PiLaurent.single(QQi(0, 2), 1)

    def test_zero_annihilates(self):
        a = PiLaurent.single(3, 4)
        assert not (a - a)
        assert (a - a) == PiLaurent()

    def test_complex_value(self):
        val = complex(PiLaurent({1: QQi(2), -1: QQi(1)}))
        assert math.isclose(val.real, 2 * math.pi + 1 / math.pi)

    def test_conjugate_distributes(self):
        a = PiLaurent({0: QQi(1, 2), 3: QQi(F(1, 3), -1)})
        b = PiLaurent({-2: QQi(0, 1)})
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


class TestExactLinearAlgebra:
    def test_inverse_roundtrip(self):
        m = [[QQi(2), QQi(0, 1)], [QQi(1, 1), QQi(3)]]
        inv = exact_inverse(m)
        prod = [
            [sum((m[i][k] * inv[k][j] for k in range(2)), QQi(0)) for j in range(2)]
            for i in range(2)
        ]
        assert prod == [[QQi(1), QQi(0)], [QQi(0), QQi(1)]]

    def test_det_triangular(self):
        m = [[QQi(2), QQi(5)], [QQi(0), QQi(F(1, 2))]]
        assert leading_minors(m) == [QQi(2), QQi(1)]

    def test_singular(self):
        with pytest.raises(ZeroDivisionError):
            exact_inverse([[QQi(1), QQi(1)], [QQi(1), QQi(1)]])
        assert leading_minors([[QQi(1), QQi(1)], [QQi(1), QQi(1)]])[-1] == QQi(0)


class TestLeadingMinors:
    """The one division-free determinant against the Leibniz sum and LAPACK."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(st.lists(gaussians, min_size=m, max_size=m), min_size=m, max_size=m)))
    def test_equals_leibniz_on_gaussian_rationals(self, rows):
        got = leading_minors(rows)
        assert got == [leibniz([row[:k] for row in rows[:k]]) for k in range(1, len(rows) + 1)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_leibniz_on_fock_minors(self, n):
        for i in range(1, n + 1):
            delta, delta_p = minors(n, i)
            for rows, cols, got in ((range(1, i + 1), range(1, i + 1), delta),
                                    (range(n - i + 1, n + 1), range(n - i + 2, n + 2), delta_p)):
                ref = leibniz([[FockPoly.variable(n, r, c, True) for c in cols] for r in rows])
                assert got.terms == ref.terms

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_float_batches_match_lapack(self, n, sign):
        # the zeta chunk's blocks: batch-last Haar x updated by
        # (scale - 1) d d* x, with scale = (1 - u)^(-+1/2) on a sampled ball point
        rng = np.random.default_rng(100 * n + sign)
        size = 50_000
        x = haar_unitary(n, rng, size=size)
        u, dirs = sample_ball(n, 0.0, rng, size)
        scale = (1.0 - u) ** (-0.5 * sign)
        d = dirs.T
        block = x + (scale - 1.0) * (d[:, None] * np.einsum("in,ijn->jn", d.conj(), x)[None])
        got = leading_minors(block)
        assert len(got) == n

        def worst_gap(minors):
            # the expansion's rounding scales with the product of the row
            # norms of the leading block (Hadamard's bound on |D_k|), not
            # with |D_k|, which can be near zero
            gaps = []
            for k, minor in enumerate(minors, start=1):
                lead = block[:k, :k]
                ref = np.linalg.det(lead.transpose(2, 0, 1))
                hadamard = np.prod(np.linalg.norm(lead, axis=1), axis=0)
                gaps.append(np.max(np.abs(minor - ref) / hadamard))
            return max(gaps)

        assert worst_gap(got) <= 1e-14
        # a wrong expansion fails the same bound: one minor with a flipped
        # sign, or every minor off by 1e-12 relative
        for k in range(n):
            assert worst_gap(got[:k] + [-got[k]] + got[k + 1:]) > 1e-14
        assert worst_gap([minor * (1 + 1e-12) for minor in got]) > 1e-14


class TestRationalHyperbolic:
    def test_identity(self):
        for rho in (F(1, 2), F(-2, 5), F(3, 7)):
            ch, sh = rational_hyperbolic(rho)
            assert ch * ch - sh * sh == 1 and ch > 0

    def test_range_check(self):
        with pytest.raises(ValueError):
            rational_hyperbolic(F(3, 2))
