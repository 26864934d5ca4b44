import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arczeta.errors import InvalidParameterError
from arczeta.exact import (
    PiLaurent,
    QQi,
    exact_inverse,
    leading_minors,
    power,
    rational_hyperbolic,
)
from arczeta.fock import FockPoly, minors
from arczeta.group import haar_unitary, sample_ball

F = Fraction

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
gaussians = st.builds(QQi, rationals, rationals)
# wide denominators too, so that sums and products meet common factors to cancel
gaussian_parts = st.tuples(*[rationals | st.builds(F, st.integers(-10**9, 10**9),
                                                   st.integers(1, 10**6))] * 2)


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gaussians, st.integers(min_value=-6, max_value=6))
def test_gaussian_rational_powers(a, k):
    if a:
        assert a**-1 == a.inverse()
    elif k < 0:
        return
    base, expect = (a if k >= 0 else a.inverse()), QQi(1)
    for _ in range(abs(k)):
        expect = expect * base
    got = a**k
    assert type(got) is QQi and got == expect


class Pair:
    """Reference Gaussian rational: a plain (re, im) pair of Fractions."""

    def __init__(self, re, im=0):
        self.re, self.im = F(re), F(im)

    def __add__(self, o):
        return Pair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Pair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Pair(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def conjugate(self):
        return Pair(self.re, -self.im)

    def norm2(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.norm2()
        return Pair(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __pow__(self, k):
        base, out = self if k >= 0 else self.inverse(), Pair(1)
        for _ in range(abs(k)):
            out = out * base
        return out

    def __eq__(self, o):
        return (self.re, self.im) == (o.re, o.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def assert_matches(got, ref):
    """``got`` is in normal form and is ``ref``, its complex() bit for bit."""
    a, b, d = got._abd
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (got.re, got.im) == (ref.re, ref.im)
    c, r = complex(got), complex(ref)
    assert (c.real.hex(), c.imag.hex()) == (r.real.hex(), r.imag.hex())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(gaussian_parts, gaussian_parts, st.integers(min_value=-4, max_value=4))
def test_gaussian_rationals_match_pair_reference(pa, pb, k):
    (a, x), (b, y) = (QQi(*pa), Pair(*pa)), (QQi(*pb), Pair(*pb))
    assert_matches(a, x)
    assert_matches(QQi(a.re, a.im), x)
    assert_matches(a + b, x + y)
    assert_matches(a - b, x - y)
    assert_matches(a * b, x * y)
    assert_matches(-a, Pair(0) - x)
    assert_matches(a.conjugate(), x.conjugate())
    assert a.norm2() == x.norm2()
    assert (a == b) == (x == y) and a == QQi(a.re, a.im)
    if b:
        assert_matches(a / b, x / y)
        assert_matches(b.inverse(), y.inverse())
        assert_matches(b**k, y**k)
    if not x.im:  # mixed with the scalar it equals
        assert a == x.re and x.re == a
        assert_matches(b + x.re, y + x)
        assert_matches(x.re * b, x * y)
        assert_matches(x.re - b, x - y)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(gaussians, gaussians)
def test_equal_values_hash_equal(a, b):
    if a == b:
        assert hash(a) == hash(b)
    if not a.im:
        assert a == a.re and hash(a) == hash(a.re)
    if a.re.denominator == 1 and not a.im:
        assert a == int(a.re) and hash(a) == hash(int(a.re))
    # a constant Laurent polynomial hashes like its coefficient
    assert PiLaurent.single(a) == a and hash(PiLaurent.single(a)) == hash(a)


class TestQQi:
    def test_mixed_containers(self):
        assert len({3, QQi(3)}) == 1
        assert {3: "x"}.get(QQi(3)) == "x"
        assert {F(1, 2): "x"}.get(QQi(F(1, 2))) == "x"
        assert PiLaurent.coerce(0) == 0 and hash(PiLaurent.coerce(0)) == hash(0)
        assert {0: "x"}.get(PiLaurent()) == "x"
        assert len({QQi(2, 1), PiLaurent.single(QQi(2, 1))}) == 1


    def test_norm_and_inverse(self):
        a = QQi(F(3, 5), F(4, 5))
        assert a.norm2() == 1
        assert a.inverse() == a.conjugate()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QQi(1).inverse() * QQi(0).inverse()
        with pytest.raises(ZeroDivisionError):
            QQi(0) ** -1
        assert QQi(0) ** 0 == 1 and QQi(0) ** 3 == 0

    def test_complex_cast(self):
        assert complex(QQi(F(1, 2), -2)) == 0.5 - 2j

    def test_foreign_operand_reaches_the_reflected_method(self):
        # QQi cannot take a PiLaurent, so its operators step aside and the
        # PiLaurent's reflected ones run; both orders give one value
        x = PiLaurent({1: QQi(F(1, 3), 2), -2: QQi(5)})
        for a in (QQi(1), QQi(2), QQi(F(-3, 4), F(1, 2))):
            assert a + x == x + a == PiLaurent({0: a}) + x
            assert a * x == x * a == PiLaurent({0: a}) * x
            assert a - x == -(x - a) == PiLaurent({0: a}) - x

    @pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(0.5), 1j])
    def test_operand_outside_both_rings_raises(self, bad):
        ops = (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b)
        for ring_value in (QQi(1, 2), PiLaurent.single(QQi(3), 1)):
            for op in ops:
                with pytest.raises(TypeError):
                    op(ring_value, bad)
                with pytest.raises(TypeError):
                    op(bad, ring_value)


class TestPiLaurent:
    def test_single_and_mixed(self):
        a = PiLaurent.single(QQi(2), -1)
        b = PiLaurent.single(QQi(0, 1), 2)
        assert (a + b).terms == {-1: QQi(2), 2: QQi(0, 1)}
        assert a * b == PiLaurent.single(QQi(0, 2), 1)

    @pytest.mark.parametrize("k", [F(1, 2), 1.7, 2.0, "1"])
    def test_non_integral_pi_power_refused(self, k):
        with pytest.raises(InvalidParameterError):
            PiLaurent({k: 1})
        with pytest.raises(InvalidParameterError):
            PiLaurent.single(1, k)

    def test_integer_pi_powers_accepted(self):
        assert PiLaurent({np.int64(2): 1}) == PiLaurent.single(1, 2)
        assert PiLaurent.single(3, np.int32(-1)).terms == {-1: QQi(3)}

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

    @pytest.mark.parametrize("scalar", [QQi(1, -2), 3, F(-1, 3)])
    def test_equality_across_rings(self, scalar):
        # both orders, and neither side raises inside the other's coercion
        wrapped = PiLaurent.single(scalar)
        assert scalar == wrapped and wrapped == scalar
        assert not (scalar != wrapped or wrapped != scalar)
        assert QQi.coerce(scalar) != PiLaurent.single(scalar, -1)
        assert PiLaurent.single(scalar, 1) != QQi.coerce(scalar)
        assert QQi(1).__eq__(wrapped) is NotImplemented

    def test_float_compares_unequal_without_raising(self):
        for value in (QQi(1), PiLaurent.single(1), PiLaurent.single(2, -1)):
            assert value != 1.0 and not (value == 1.0)
            assert 1.0 != value and not (1.0 == value)
            assert value.__eq__(1.0) is NotImplemented

    def test_mixed_sum_keeps_the_left_power_first(self):
        # complex() sums the powers in order, so a scalar plus a PiLaurent
        # must order them as the sum of two PiLaurents does
        b = PiLaurent({-1: QQi(2), 3: QQi(1)})
        for scalar in (5, QQi(5), F(5)):
            assert list((scalar + b).terms) == [0, -1, 3]
            assert list((PiLaurent.single(scalar) + b).terms) == [0, -1, 3]
            assert list((b + scalar).terms) == [-1, 3, 0]


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
                ref = leibniz([[FockPoly.variable(n, r, c) for c in cols] for r in rows])
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


def squaring_reference(z, k):
    """Reference complex power by binary exponentiation, whose bits
    ``power`` must give: it inverts as 1.0 / z first and squares once more
    after the last bit."""
    if k == 0:
        return np.ones_like(z) if isinstance(z, np.ndarray) else 1.0 + 0j
    base = z if k > 0 else 1.0 / z
    k = abs(k)
    result = None
    while k:
        if k & 1:
            result = base if result is None else result * base
        base = base * base
        k >>= 1
    return result


class TestPower:
    def test_bit_identical_to_the_squaring_reference(self):
        rng = np.random.default_rng(33)
        size = 20_000
        z = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * np.exp(
            rng.uniform(-2.5, 2.5, size))
        for k in range(-12, 13):
            got, ref = power(z, k), squaring_reference(z, k)
            assert got.dtype == ref.dtype == complex
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), k
            for x in z[:200].tolist():
                a, b = power(x, k), squaring_reference(x, k)
                assert type(a) is type(b) is complex
                assert (a.real.hex(), a.imag.hex()) == (b.real.hex(), b.imag.hex()), (x, k)

    def test_exact_scalars_stay_exact(self):
        assert power(2, 3) == 8 and type(power(2, 3)) is int
        for x, k, want in ((2, -3, F(1, 8)), (-3, -1, F(-1, 3)), (F(2, 3), -2, F(9, 4))):
            got = power(x, k)
            assert got == want and type(got) is F

    def test_polynomial_powers(self):
        x = FockPoly.variable(1, 1, 1) + FockPoly.one(1)
        assert x**0 == FockPoly.one(1)
        assert x**5 == x * x * x * x * x
        with pytest.raises(InvalidParameterError):
            x ** -1


class TestRationalHyperbolic:
    def test_identity(self):
        for rho in (F(1, 2), F(-2, 5), F(3, 7)):
            ch, sh = rational_hyperbolic(rho)
            assert ch * ch - sh * sh == 1 and ch > 0

    def test_range_check(self):
        with pytest.raises(ValueError):
            rational_hyperbolic(F(3, 2))
