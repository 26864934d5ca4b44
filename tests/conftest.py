import os

import numpy as np
import pytest
from fractions import Fraction

from arczeta.exact import QQi
from arczeta.group import CoverElement, haar_unitary
from arczeta.verify import _stop_pool
from arczeta.weights import HCParameter


_getaffinity = getattr(os, "sched_getaffinity", None)
_setaffinity = getattr(os, "sched_setaffinity", None)


@pytest.fixture(autouse=True)
def affinity_unchanged():
    """Fail a test that leaves this process's CPU affinity changed, and undo
    the change: a leaked pin would run every later test on one CPU.  The
    functions are those read at import, so a test's stub does not hide a
    leak."""
    before = _getaffinity(0) if _getaffinity else None
    yield
    if _getaffinity and _getaffinity(0) != before:
        after = _getaffinity(0)
        _setaffinity(0, before)
        pytest.fail(f"the test left the CPU affinity at {sorted(after)}, not {sorted(before)}")


@pytest.fixture(autouse=True)
def fresh_workers():
    """Stop the spread's worker pool after each test, so that a test's first
    spread forks workers that see the test's own monkeypatches."""
    yield
    _stop_pool()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def lam(*vals):
    return HCParameter.of(*[Fraction(v) for v in vals])


def embed(k):
    """The full (n+1) x (n+1) block-diagonal matrix of a cover element."""
    m = np.zeros((k.n + 1, k.n + 1), dtype=complex)
    m[: k.n, : k.n] = k.block_n
    m[k.n, k.n] = k.block_1
    return m


def random_cover(n, rng):
    """Haar unitary block pair with principal roots."""
    return CoverElement.from_blocks(haar_unitary(n, rng), np.exp(2j * np.pi * rng.uniform()))


def exact_unitary_2x2():
    """(1/5) [[3, 4i], [4i, 3]]: Gaussian-rational unitary with det 1."""
    f = Fraction(1, 5)
    return (
        (QQi(3 * f), QQi(0, 4 * f)),
        (QQi(0, 4 * f), QQi(3 * f)),
    )


def exact_phase_square():
    """y = ((3+4i)/5)^2 with its exact root (3+4i)/5."""
    zeta = QQi(Fraction(3, 5), Fraction(4, 5))
    return zeta * zeta, zeta


def exact_identity(n):
    """The identity cover element in the exact ring (an object n-block)."""
    return CoverElement(np.eye(n, dtype=object), 1, 1)


def exact_cover_2(kind="mix"):
    if kind == "mix":
        y, zy = exact_phase_square()
        return CoverElement(np.array(exact_unitary_2x2(), dtype=object), y, QQi(1) / zy)
    return exact_identity(2)
