"""Exact weight combinatorics and closed-form evaluators.

Everything here is exact: parameter entries are half-integers held as
Fractions, closed forms rational multiples of integer powers of pi.
Floating point enters only when a caller converts a result for comparison
with quadrature.

The Fractions are inputs and outputs only.  A parameter keeps its doubled
entries 2*x as integers and is validated on them; parsed text and the
sweep build it from those integers directly.  Classification and the
closed forms read them (or an integer ratio, where a closed form takes any
rational), and all arithmetic runs on machine integers.  Each half-integer
is one shared Fraction per process, built by ``_half``; a datum's weight
pairs are built from their doubled entries on first read, and other results
(c squared, a closed value's rational) once per call, at the end.

The central object is :class:`ThetaDatum`, the complete classification of an
admissible strictly decreasing parameter into one of two shapes (Case I when
the last entry is positive, Case II otherwise) together with the three
highest weights (``Lambda``, its contragredient ``LambdaDual``, and the
partner weight ``LambdaPrime``) that drive every other module.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InadmissibleParameterError, InvalidParameterError, PoleError

__all__ = [
    "HCParameter",
    "WeightPair",
    "Case",
    "ThetaDatum",
    "ClosedValue",
    "hc_to_blattner",
    "classify_theta",
    "weyl_dim",
    "gl_dim",
    "formal_degree_product",
    "formal_degree",
    "closed_S",
    "closed_T",
    "zeta_closed",
    "c_squared",
    "admissible_sweep",
    "parse_fraction",
]


def _as_fraction(x) -> Fraction:
    """A Fraction as it is (no copy); anything else through ``Fraction()``."""
    return x if type(x) is Fraction else Fraction(x)


def _ratio(x) -> tuple[int, int]:
    """An int, a Fraction or anything ``Fraction()`` reads, as a reduced
    integer pair (numerator, denominator > 0)."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.as_integer_ratio()


@functools.cache
def _half(two: int) -> Fraction:
    """The half-integer two/2, one shared immutable Fraction per value."""
    return Fraction(two, 2)


def _halves(xs) -> tuple[Fraction, ...]:
    """Doubled integers back as Fractions, one per entry."""
    return tuple(map(_half, xs))


def parse_fraction(text: str) -> Fraction:
    """Text as a Fraction.  The common form ``[-]digits[/digits]`` in ASCII
    digits is read as ints, and a zero denominator raises as ``Fraction``
    does; any other text goes to ``Fraction``, which accepts more forms."""
    text = text.strip()
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if digits.isascii() and digits.isdigit():
        if not slash:
            return _half(2 * int(num))
        if den.isascii() and den.isdigit():
            num, den = int(num), int(den)
            return _half(2 * num // den) if den in (1, 2) else Fraction(num, den)
    return Fraction(text)


def _half_integer(x) -> Fraction:
    """An entry given as an int, a Fraction or text, checked to be a half-integer."""
    if isinstance(x, str):
        try:
            value = parse_fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidParameterError(f"cannot parse half-integer {x!r}: {exc}") from None
    elif isinstance(x, (int, Fraction)):
        value = _as_fraction(x)
    else:
        raise InvalidParameterError(f"cannot interpret {x!r} as a half-integer")
    if value.denominator not in (1, 2):
        raise InvalidParameterError(f"{value} is not a half-integer")
    return value


def _doubled(value: Fraction) -> int:
    """2x for a half-integer Fraction x."""
    num, den = value.as_integer_ratio()
    return num if den == 2 else 2 * num


# the doubling factor of a plain entry by its denominator text
_PLAIN_SCALE = {"": 2, "/1": 2, "/2": 1}


def _doubled_text(text: str) -> int:
    """2x for an entry x given as text.  The plain form ``[-]digits``,
    ``[-]digits/1`` or ``[-]digits/2`` in ASCII digits is read as ints; any
    other text takes :func:`_half_integer`, with its value and its errors."""
    num, slash, den = text.strip().partition("/")
    digits = num[1:] if num[:1] == "-" else num
    scale = _PLAIN_SCALE.get(slash + den)
    if scale and digits.isascii() and digits.isdigit():
        try:
            return scale * int(num)
        except ValueError:  # past int's digit limit: the general route words the error
            pass
    return _doubled(_half_integer(text))


def _text(two: Sequence[int]) -> str:
    """Doubled entries as the parameter's text, ``(3/2,1/2,-1/2)``."""
    return "(" + ",".join(f"{t}/2" if t & 1 else str(t >> 1) for t in two) + ")"


def _check_two(two: tuple[int, ...]) -> None:
    """A parameter's conditions on its doubled entries: at least two entries,
    strictly decreasing, mutually congruent (one parity)."""
    if len(two) < 2:
        raise InvalidParameterError("parameter needs at least two entries")
    if any(map(operator.le, two, two[1:])):
        raise InvalidParameterError(f"entries must be strictly decreasing, got {_text(two)}")
    if len({t & 1 for t in two}) > 1:
        raise InvalidParameterError(f"entries must be mutually congruent mod 1, got {_text(two)}")


@dataclass(frozen=True)
class HCParameter:
    """Strictly decreasing tuple of mutually congruent half-integers.

    Strict decrease over the full length is the holomorphy condition; mutual
    congruence mod 1 (one common denominator) keeps the determinant-twist
    class consistent.  Entries are given as ints, Fractions or text and kept
    as Fractions.  The doubled entries 2*x, on which both conditions are
    checked (congruence is one parity), are kept as the private integer
    tuple ``_two``; ``entries`` stays the only field, so equality, hashing
    and the repr read the Fractions alone.  :meth:`parse` and
    :func:`admissible_sweep` build a parameter from its doubled entries
    (``_from_two``), with the same checks and messages.
    """

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        ent, two = [], []
        for e in self.entries:
            if type(e) is not Fraction or e.denominator > 2:
                e = _half_integer(e)
            ent.append(e)
            two.append(_doubled(e))
        object.__setattr__(self, "entries", tuple(ent))
        object.__setattr__(self, "_two", tuple(two))
        _check_two(self._two)

    @classmethod
    def _from_two(cls, two: tuple[int, ...]) -> "HCParameter":
        """The parameter with doubled entries ``two``, checked as the
        constructor checks its entries."""
        _check_two(two)
        self = object.__new__(cls)
        object.__setattr__(self, "entries", _halves(two))
        object.__setattr__(self, "_two", two)
        return self

    @classmethod
    def of(cls, *values) -> "HCParameter":
        return cls(values)

    @classmethod
    def parse(cls, text: str) -> "HCParameter":
        """Parse a comma list of fractions, reporting the failing position."""
        two = []
        for pos, part in enumerate(text.split(",")):
            try:
                two.append(_doubled_text(part))
            except InvalidParameterError as exc:
                raise InvalidParameterError(
                    f"bad entry at position {pos}: {exc}"
                ) from None
        return cls._from_two(tuple(two))

    @property
    def n(self) -> int:
        return len(self.entries) - 1

    @property
    def fractions(self) -> tuple[Fraction, ...]:
        """The entries (they are Fractions already)."""
        return self.entries

    def __iter__(self):
        return iter(self.entries)

    def __str__(self):
        return _text(self._two)


class WeightPair(NamedTuple):
    """Highest weight of an outer tensor product, one entry tuple per factor."""

    first: tuple[Fraction, ...]
    second: tuple[Fraction, ...]


class Case(enum.Enum):
    I = "I"
    II = "II"


class _HalvedPair:
    """A weight pair of a :class:`ThetaDatum`, built from its doubled entries
    on first read and kept in the datum's ``__dict__``, where later reads
    find it first: ``functools.cached_property`` without the lock that
    Python 3.11 takes on every first read."""

    def __init__(self, index: int):
        self.index = index

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, datum, owner=None):
        if datum is None:
            return self
        first, second = datum._pairs[self.index]
        pair = datum.__dict__[self.name] = WeightPair(_halves(first), _halves(second))
        return pair


@dataclass(frozen=True)
class ThetaDatum:
    """Complete classification data for one admissible parameter.

    The three weight pairs are held doubled, as integer tuples, in the
    private field ``_pairs`` (``Lambda``, ``LambdaDual``, ``LambdaPrime`` in
    that order); each attribute builds its :class:`WeightPair` of Fractions
    on first read and keeps it on the datum, so a caller that reads none of
    them builds none.

    ``dim_sigma`` is the dimension of sigma, the lowest K-type, whose U(n)
    highest weight is ``Lambda.first``: :func:`classify_theta` takes Weyl's
    product once, on the drops of the doubled entries it already holds, and
    :func:`gl_dim` of ``Lambda.first`` is the same integer."""

    lam: HCParameter
    n: int
    case: Case
    p: int
    q: int
    gamma: Fraction
    alphas: tuple[Fraction, ...]
    betas: tuple[Fraction, ...]
    nonstandard_congruence: bool
    closed_form_valid: bool
    dim_sigma: int
    _pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    Lambda = _HalvedPair(0)
    LambdaDual = _HalvedPair(1)
    LambdaPrime = _HalvedPair(2)

    def lambda_gl(self):
        """Integer parts of Lambda per factor, with doubled twist exponents.

        The det twists of the two K factors (U(n) part, U(1) part) are t and -t.
        Taken once per datum, on the doubled entries of Lambda.
        """
        return self._gl

    @functools.cached_property
    def _gl(self):
        tw = self.n - 1 if self.case is Case.I else self.q - self.p  # 2t
        out = []
        for entries, sign in zip(self._pairs[0], (1, -1)):
            parts = [x - sign * tw for x in entries]
            if any(x & 1 for x in parts):
                raise InadmissibleParameterError(
                    "weight has non-integral parts after removing the det twist; "
                    "parameter is in the flagged congruence class"
                )
            out.append((tuple(x >> 1 for x in parts), sign * tw))
        return tuple(out)

    def __str__(self):
        return (
            f"ThetaDatum(lam={self.lam}, case={self.case.value}, p={self.p}, q={self.q}, "
            f"gamma={self.gamma}, alphas={tuple(map(str, self.alphas))}, "
            f"betas={tuple(map(str, self.betas))})"
        )


@functools.cache
def _rho_shift(n: int) -> tuple[int, ...]:
    # doubled (-n/2+1, -n/2+2, ..., n/2, -n/2), one tuple per n
    return tuple(range(2 - n, n + 1, 2)) + (-n,)


@functools.cache
def _dual_shift(n: int) -> tuple[int, ...]:
    # doubled (-n/2, -n/2+1, ..., n/2-1, n/2), one tuple per n
    return tuple(range(-n, n, 2)) + (n,)


def hc_to_blattner(lam: HCParameter) -> tuple[Fraction, ...]:
    """Lowest-K-type highest weight attached to a strictly decreasing parameter."""
    lam = lam if isinstance(lam, HCParameter) else HCParameter(tuple(lam))
    return _halves(e + s for e, s in zip(lam._two, _rho_shift(lam.n)))


def classify_theta(lam: HCParameter, *, enforce_closed_form_domain: bool = True) -> ThetaDatum:
    """Classify a parameter into Case I/II and assemble its weight pair data.

    Raises :class:`InadmissibleParameterError` when a shape constraint fails.
    Case II parameters with a positive padded alpha entry are outside the
    validity domain of the closed-form evaluators (the two evaluation routes
    provably disagree there); they are rejected unless
    ``enforce_closed_form_domain=False``, in which case the returned datum
    carries ``closed_form_valid=False`` and the closed forms refuse it later.

    Every quantity below is held doubled (2 gamma, 2 alpha_i, ...), so the
    classification runs on integers; the datum's Fractions are built last,
    and its weight pairs only when they are read.
    """
    lam = lam if isinstance(lam, HCParameter) else HCParameter(tuple(lam))
    n = lam.n
    two = lam._two
    nonstandard = two[0] % 2 == 0

    b = 1 if two[n] <= 0 else 0
    a = sum(1 for x in two[:n] if x <= 0)
    p = a - b + 1
    q = n + 1 - p
    if two[n - 1] <= two[n]:  # guaranteed by HCParameter, kept as a named diagnostic
        raise InadmissibleParameterError("requires lambda_n > lambda_{n+1}")

    if b == 0:
        case = Case.I
        if p != 1 or q != n:
            raise InadmissibleParameterError(f"Case I forces (p,q)=(1,{n}), got ({p},{q})")
        gamma = two[n] - 1
        alphas = [two[i - 1] + 2 * (i - n) + 1 for i in range(1, n + 1)]
        betas: list[int] = []
        if gamma < 0:
            raise InadmissibleParameterError(f"Case I needs gamma >= 0, got {_half(gamma)}")
        if any(x < y for x, y in zip(alphas, alphas[1:])):
            raise InadmissibleParameterError(
                f"alphas must be weakly decreasing, got {_halves(alphas)}")
        if alphas[-1] < gamma + 4:
            raise InadmissibleParameterError(
                "violated constraint alpha_n >= gamma + 2 "
                f"({_half(alphas[-1])} < {_half(gamma + 4)})"
            )
        tw = n - 1
        first, second = [al + tw for al in alphas], [gamma - tw]
        prime = ([tw - gamma], [-al - tw for al in reversed(alphas)])
        closed_ok = True
    else:
        case = Case.II
        if not 0 <= p <= n:
            raise InadmissibleParameterError(f"Case II needs 0 <= p <= n, got p={p}")
        gamma = 2 * p - 1 - two[n]
        betas = [2 * (i - p) - 1 - two[n - i] for i in range(1, p + 1)]
        alphas = [two[r - 1] + 2 * (r - q) + 1 for r in range(1, q)]
        if gamma <= 0:
            raise InadmissibleParameterError(f"Case II needs gamma > 0, got {_half(gamma)}")
        if any(x < 0 for x in betas) or any(x < y for x, y in zip(betas, betas[1:])):
            raise InadmissibleParameterError(
                f"betas must be weakly decreasing >= 0, got {_halves(betas)}")
        if any(x < 0 for x in alphas) or any(x < y for x, y in zip(alphas, alphas[1:])):
            raise InadmissibleParameterError(
                f"alphas must be weakly decreasing >= 0, got {_halves(alphas)}")
        if betas and betas[0] > gamma - 4 * p:
            raise InadmissibleParameterError(
                "violated constraint beta_1 <= gamma - 2p "
                f"({_half(betas[0])} > {_half(gamma - 4 * p)})"
            )
        closed_ok = not any(alphas)
        if not closed_ok and enforce_closed_form_domain:
            raise InadmissibleParameterError(
                "Case II requires every padded alpha to vanish for the closed forms "
                f"(got alphas={tuple(map(str, _halves(alphas)))}); outside this domain the "
                "substitution route and the oscillator transform provably disagree"
            )
        tw = q - p
        mixed = alphas + [-be for be in reversed(betas)]
        first, second = [x + tw for x in mixed], [-gamma - tw]
        twp = n - 1
        prime = ([be + twp for be in betas],
                 [gamma - twp] + [-al - twp for al in reversed(alphas)])

    dual = ([-x for x in reversed(first)], [-x for x in reversed(second)])
    # the assembled weights must agree with the additive-shift formulas
    assert first + second == [x + s for x, s in zip(two, _rho_shift(n))]
    lam_dual = [-x for x in reversed(two[:n])] + [-two[n]]
    assert dual[0] + dual[1] == [x + s for x, s in zip(lam_dual, _dual_shift(n))]

    return ThetaDatum(
        lam=lam, n=n, case=case, p=p, q=q, gamma=_half(gamma),
        alphas=_halves(alphas), betas=_halves(betas),
        nonstandard_congruence=nonstandard, closed_form_valid=closed_ok,
        dim_sigma=_weyl_count([(first[0] - x) // 2 for x in first]),
        _pairs=((tuple(first), tuple(second)), (tuple(dual[0]), tuple(dual[1])),
                (tuple(prime[0]), tuple(prime[1]))),
    )


def _drops(mu: Sequence[Fraction]) -> tuple[tuple[int, int], list[int]]:
    """The first entry of a dominant weight as an integer ratio and its drops
    mu_0 - mu_i, taken in integers; a weight is refused unless they are
    non-decreasing integers.  Entries whose gaps are integers share one
    reduced denominator b, so each entry is read over b alone."""
    a, b = _ratio(mu[0]) if len(mu) else (0, 1)
    drops = []
    for x in mu:
        num, den = _ratio(x)
        d, r = divmod(a - num, b)
        if den != b or r or (drops and d < drops[-1]):
            raise InvalidParameterError(f"not a dominant weight: {[Fraction(y) for y in mu]}")
        drops.append(d)
    return (a, b), drops


@functools.cache
def _weyl_table(m: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The index pairs i < j of Weyl's product on m entries and the product
    of their gaps j - i, one table per length."""
    pairs = tuple(itertools.combinations(range(m), 2))
    return pairs, math.prod(j - i for i, j in pairs)


def _weyl_count(d: list[int]) -> int:
    """Weyl's dimension product on the drops of a dominant weight."""
    pairs, den = _weyl_table(len(d))
    return math.prod(d[j] - d[i] + j - i for i, j in pairs) // den


def gl_dim(mu: Sequence[Fraction]) -> int:
    """Dimension of the U(m) irreducible with highest weight ``mu``: Weyl's
    product of (mu_i - mu_j + j - i) / (j - i) over i < j.

    A constant det twist does not change the dimension, so fractional
    (genuine) weights are fine as long as the entries are mutually congruent.
    A weight is refused unless it is non-increasing with integral gaps: the
    product alone is a positive integer at some others, e.g. 1 at (-2, 1, 1).
    """
    return _weyl_count(_drops(mu)[1])


def weyl_dim(lam: HCParameter) -> int:
    """Dimension of the lowest K-type: :func:`gl_dim` of the first n entries
    shifted by 0, 1, ..., n-1, which is the Blattner weight up to a det twist.
    Its drops come straight from the doubled entries; strict decrease of
    congruent entries makes them non-decreasing integers."""
    two = lam._two[:-1]
    return _weyl_count([(two[0] - x) // 2 - i for i, x in enumerate(two)])


def _gaps(two: tuple[int, ...]) -> tuple[int, int]:
    """prod_{i<j} |lambda_i - lambda_j| from the doubled entries, as an
    integer numerator and its denominator 2**(number of pairs)."""
    pairs = list(itertools.combinations(two, 2))
    return math.prod(abs(x - y) for x, y in pairs), 2 ** len(pairs)


def formal_degree_product(lam: HCParameter) -> Fraction:
    """Product of absolute entry differences over all pairs (the formal degree
    up to the constant of :func:`formal_degree`)."""
    return Fraction(*_gaps(lam._two))


def formal_degree(lam: HCParameter) -> ClosedValue:
    """The formal degree

        d(lambda) = pi**-n prod_{i<j<=n+1} |lambda_i - lambda_j| / prod_{k<n} k!,

    taken on the doubled entries: one integer product over one integer
    denominator.  The superfactorial prod_{k<n} k! is the product of the gaps
    j - i over i < j < n, Weyl's denominator on n entries.  Schur
    orthogonality of the discrete series reads c**2 = d(lambda) * zeta."""
    num, den = _gaps(lam._two)
    return ClosedValue(Fraction(num, den * _weyl_table(lam.n)[1]), -lam.n)


@dataclass(frozen=True)
class ClosedValue:
    """Exact value rational * pi**pi_exp."""

    rational: Fraction
    pi_exp: int

    def __mul__(self, other):
        if isinstance(other, ClosedValue):
            return ClosedValue(self.rational * other.rational, self.pi_exp + other.pi_exp)
        return ClosedValue(self.rational * _as_fraction(other), self.pi_exp)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ClosedValue):
            return ClosedValue(self.rational / other.rational, self.pi_exp - other.pi_exp)
        return ClosedValue(self.rational / _as_fraction(other), self.pi_exp)

    def __float__(self):
        return float(self.rational) * math.pi**self.pi_exp

    def __eq__(self, other):
        if isinstance(other, ClosedValue):
            if self.rational == 0 and other.rational == 0:
                return True
            return self.rational == other.rational and self.pi_exp == other.pi_exp
        return NotImplemented

    def __str__(self):
        return f"{self.rational} * pi^{self.pi_exp}"


def _as_tuple(x, length: int) -> tuple:
    """A weight as a tuple; a scalar is the constant weight of ``length``."""
    return (x,) * length if isinstance(x, (int, Fraction)) else tuple(x)


def _S_factors(p: int, q: int, kappas, iotas, s) -> tuple[int, int, list[int], list[int], list[int]]:
    """The linear denominator factors of :func:`closed_S`, in integers.

    Returns (a, b, offsets, kappa drops, iota drops): c = s - kappa_1 +
    iota_1 is a/b in lowest terms with b > 0, and factor (i, j) is c plus
    the integer offset at index (i - 1) q + (j - 1).  The drops are those
    :func:`gl_dim` reads, so a caller takes both dimensions from them.
    """
    kap = _as_tuple(kappas, p)
    iot = _as_tuple(iotas, q)
    if len(kap) != p or len(iot) != q:
        raise InvalidParameterError(
            f"weight lengths ({len(kap)},{len(iot)}) must match (p,q)=({p},{q})"
        )
    (kn, kd), dk = _drops(kap)
    (jn, jd), di = _drops(iot)
    sn, sd = _ratio(s)
    num, den = sn * kd * jd - kn * sd * jd + jn * sd * kd, sd * kd * jd
    g = math.gcd(num, den)
    # s - kappa_i + iota_j - (p - i + j) with kappa_i = kappa_1 - dk_i
    return (num // g, den // g, [dk[i] - di[j] - (p - i + j) for i in range(p) for j in range(q)],
            dk, di)


def _S_value(p: int, q: int, s, a: int, b: int, offsets: list[int]) -> ClosedValue:
    """:func:`closed_S` from the factors of :func:`_S_factors`; a vanishing
    factor raises :class:`PoleError` naming it."""
    if b == 1 and -a in offsets:
        i, j = divmod(offsets.index(-a), q)
        label = f"s - kappa_{i + 1} + iota_{j + 1} - {p - i + j}"
        raise PoleError(f"pole: factor {label} vanishes at s={Fraction(s)}", factor=label)
    # c = a/b, so the product of the factors c + k is prod(a + k b) / b**(p q)
    return ClosedValue(Fraction(b ** len(offsets), math.prod(a + k * b for k in offsets)), p * q)


def closed_S(p: int, q: int, kappas, iotas, s) -> ClosedValue:
    """Scalar of the twisted domain integral over the (p, q) matrix ball,

        S = pi**(p q) / prod_{i <= p, j <= q} (s - kappa_i + iota_j - (p - i + j)),

    for any two dominant weights.  With one weight constant it is the
    one-sided product the (n, 1) closed forms use; with both weights varying
    it is an identity checked against the Gauss–Jacobi rule
    :func:`arczeta.verify.quad`, which is exact on these polynomial
    integrands, and not a theorem of the paper.  A vanishing factor raises
    :class:`PoleError` naming it.
    """
    a, b, offsets, _, _ = _S_factors(p, q, kappas, iotas, s)
    return _S_value(p, q, s, a, b, offsets)


def closed_S_factors(p: int, q: int, kappas, iotas, s) -> list[Fraction]:
    """The linear denominator factors of :func:`closed_S` (pole diagnostics)."""
    a, b, offsets, _, _ = _S_factors(p, q, kappas, iotas, s)
    return [Fraction(a + k * b, b) for k in offsets]


def _require_closed_form(theta: ThetaDatum):
    if not theta.closed_form_valid:
        raise InadmissibleParameterError(
            "datum is outside the closed-form validity domain "
            "(Case II with positive alpha); refuse rather than return an unverified value"
        )


def closed_T(theta: ThetaDatum, s) -> ClosedValue:
    """Scalar of the endomorphism integral at parameter ``s``: :func:`closed_S`
    on the (n, 1) domain at :func:`T_arguments`."""
    _require_closed_form(theta)
    return closed_S(*T_arguments(theta), s)


def closed_T_factors(theta: ThetaDatum, s) -> list[Fraction]:
    """The linear denominator factors of :func:`closed_T` (pole diagnostics)."""
    _require_closed_form(theta)
    return closed_S_factors(*T_arguments(theta), s)


def _coerce_theta(lam_or_theta) -> ThetaDatum:
    if isinstance(lam_or_theta, ThetaDatum):
        return lam_or_theta
    return classify_theta(lam_or_theta)


def _shift_product(theta: ThetaDatum) -> int:
    """prod over a in A(lambda) of (2a + 1) (see :func:`zeta_closed`), on the
    doubled entries t: 2a is t_i (i < n) in Case I and -t_n + 2k (k < n) in
    Case II.  Every a is at least 0, so every factor is at least 1."""
    two, n = theta.lam._two, theta.n
    if theta.case is Case.I:
        return math.prod(t + 1 for t in two[:n])
    return math.prod(range(1 - two[n], 1 - two[n] + 2 * n, 2))


def zeta_closed(lam_or_theta) -> ClosedValue:
    """Exact value of the group integral per unit squared norm of the matched
    joint highest-weight vector, as one product in lambda:

        zeta = pi**n / (dim_sigma * prod_{a in A(lambda)} (a + 1/2)),

    with A(lambda) = (lambda_1, ..., lambda_n) in Case I and
    (|lambda_{n+1}|, |lambda_{n+1}| + 1, ..., |lambda_{n+1}| + n - 1) in
    Case II.  It is ``closed_T`` at s0 = (n+1)/2, whose factors
    s0 - n/2 + a are the a + 1/2, over ``dim_sigma``, the dimension of the
    lowest K-type that classification fixed.  Taken on the doubled entries
    as 2**n / (dim_sigma * prod (2a + 1)): one integer product, one Fraction.

    Z(s0) > 0 on the whole domain: every a is at least 0, so every factor
    a + 1/2 is positive and no factor can vanish.  Refused Case II datums
    stay refused: there the product is not the group integral."""
    theta = _coerce_theta(lam_or_theta)
    _require_closed_form(theta)
    n = theta.n
    return ClosedValue(Fraction(2 ** n, theta.dim_sigma * _shift_product(theta)), n)


def c_squared(lam_or_theta) -> Fraction:
    """Squared norm ratio of the discrete-spectrum projection (exact rational),
    as one product in lambda:

        c**2 = prod_{i <= n} (lambda_i - lambda_{n+1}) / prod_{a in A(lambda)} (a + 1/2),

    with A(lambda) as in :func:`zeta_closed`, taken on the doubled entries:
    one integer product on each side, one Fraction.  The denominator's
    factors are at least 1/2 on the admissible domain, so no pole can occur
    and none is checked for.

    0 < c**2 <= 1, with c**2 = 1 exactly when p = 0 or q = 0 (criterion 2;
    q >= 1 throughout).  The numerator's factors are positive by strict
    decrease.  In Case I (p = 1), lambda_{n+1} >= 1/2, so each factor
    (lambda_i - lambda_{n+1}) / (lambda_i + 1/2) lies in (0, 1).  In served
    Case II the vanishing alphas force lambda_i = q - i - 1/2 for i < q, and
    the other entries are at most 0.  With mu = |lambda_{n+1}|, pair the
    i-th numerator factor lambda_i + mu with mu + n - i + 1/2: the ratio is
    1 for i < q when q = n + 1, below 1 for i < q <= n (q - i - 1/2 <
    n - i + 1/2), and below 1 for i >= q (lambda_i <= 0).  So c**2 = 1
    exactly when q = n + 1, that is p = 0."""
    theta = _coerce_theta(lam_or_theta)
    _require_closed_form(theta)
    two, n = theta.lam._two, theta.n
    return Fraction(math.prod(t - two[n] for t in two[:n]), _shift_product(theta))


def dual_S_arguments(theta: ThetaDatum) -> tuple[int, int, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(p, q, kappas, iotas) feeding :func:`closed_S` with the contragredient
    lowest K-type viewed on the (n, 1) domain."""
    return theta.n, 1, theta.LambdaDual.first, theta.LambdaDual.second


_ZERO = Fraction(0)


def T_arguments(theta: ThetaDatum) -> tuple[int, int, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(p, q, kappas, iotas) at which :func:`closed_S` on the (n, 1) domain is
    :func:`closed_T`: the contragredient first factor against the trivial
    weight (Case I) or the trivial weight against the second (Case II)."""
    n = theta.n
    if theta.case is Case.I:
        return n, 1, theta.LambdaDual.first, (_ZERO,)
    return n, 1, (_ZERO,) * n, theta.LambdaDual.second


def admissible_sweep(n: int, max_entry) -> list[HCParameter]:
    """All admissible proper-half-integral parameters of length n+1 with
    entries bounded by ``max_entry`` in absolute value, in decreasing
    lexicographic order.  The bound is a half-integer, given as an int, a
    Fraction or text.

    The parameters are generated from the classification constraints rather
    than searched for:

    * Case I (lambda_{n+1} > 0) is every all-positive strictly decreasing
      tuple: gamma >= 0, weakly decreasing alphas and alpha_n >= gamma + 2
      all follow from strict decrease when lambda_{n+1} >= 1/2.
    * Case II with p negative entries among lambda_1..lambda_n lies in the
      closed-form domain only when every alpha vanishes, which fixes the
      positive head lambda_r = n - p - r + 1/2 (r <= n - p).  The p+1
      trailing entries are any strictly decreasing negative half-integers;
      the beta constraints follow from strict decrease, and gamma > 0
      requires lambda_{n+1} <= -3/2 when p = 0.
    """
    if n < 1:
        raise InvalidParameterError(f"admissible sweep needs n >= 1, got {n}")
    top = int(2 * _half_integer(max_entry))  # doubled bound
    positive = range(1, top + 1, 2)[::-1]  # doubled positive entries, decreasing
    found = list(itertools.combinations(positive, n + 1))
    for p in range(n + 1):
        head = tuple(range(2 * (n - p) - 1, 0, -2))
        if head and head[0] > top:
            continue
        for tail in itertools.combinations([-t for t in reversed(positive)], p + 1):
            if p > 0 or tail[0] <= -3:
                found.append(head + tail)
    found.sort(key=lambda twices: [-t for t in twices])
    return [HCParameter._from_two(twices) for twices in found]
