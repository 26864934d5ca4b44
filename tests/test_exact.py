import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arczeta.exact import (
    PiLaurent,
    QQi,
    exact_inverse,
    leibniz_det,
    rational_hyperbolic,
)

F = Fraction

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
gaussians = st.builds(QQi, rationals, rationals)


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
        s = a + b
        with pytest.raises(ValueError):
            s.as_single()
        assert (a * b).as_single() == (QQi(0, 2), 1)

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
        assert leibniz_det(m) == QQi(1)

    def test_singular(self):
        with pytest.raises(ZeroDivisionError):
            exact_inverse([[QQi(1), QQi(1)], [QQi(1), QQi(1)]])
        assert leibniz_det([[QQi(1), QQi(1)], [QQi(1), QQi(1)]]) == QQi(0)


class TestRationalHyperbolic:
    def test_identity(self):
        for rho in (F(1, 2), F(-2, 5), F(3, 7)):
            ch, sh = rational_hyperbolic(rho)
            assert ch * ch - sh * sh == 1 and ch > 0

    def test_range_check(self):
        with pytest.raises(ValueError):
            rational_hyperbolic(F(3, 2))
