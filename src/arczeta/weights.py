"""Exact weight combinatorics and closed-form evaluators.

Everything here is exact: parameter entries are half-integers held as
Fractions, closed forms rational multiples of integer powers of pi.
Floating point enters only when a caller converts a result for comparison
with quadrature.

The Fractions are inputs and outputs only.  A parameter reads each entry
once, keeps its doubled entries 2*x as integers and is validated on them;
classification and the closed forms read those integers (or an integer
ratio, where a closed form takes any rational), and all arithmetic runs on
machine integers.  Each half-integer is one shared Fraction per process,
built by ``_half``; other results (c squared, a closed value's rational)
are built once per call, at the end.

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


def _twice(x) -> int:
    """A half-integer held as an int or a Fraction, doubled, in integers."""
    num, den = x.as_integer_ratio()
    return 2 * num // den


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


@dataclass(frozen=True)
class HCParameter:
    """Strictly decreasing tuple of mutually congruent half-integers.

    Strict decrease over the full length is the holomorphy condition; mutual
    congruence mod 1 (one common denominator) keeps the determinant-twist
    class consistent.  Entries are given as ints, Fractions or text and kept
    as Fractions.  The doubled entries 2*x, on which both conditions are
    checked (congruence is one parity), are kept as the private integer
    tuple ``_two``; ``entries`` stays the only field, so equality, hashing
    and the repr read the Fractions alone.
    """

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        ent, two = [], []
        for e in self.entries:
            if type(e) is Fraction:
                num, den = e.as_integer_ratio()
                if den > 2:  # not a half-integer: _half_integer refuses it
                    _half_integer(e)
            else:
                e = _half_integer(e)
                num, den = e.as_integer_ratio()
            ent.append(e)
            two.append(num if den == 2 else 2 * num)
        object.__setattr__(self, "entries", tuple(ent))
        object.__setattr__(self, "_two", tuple(two))
        if len(two) < 2:
            raise InvalidParameterError("parameter needs at least two entries")
        if any(a <= b for a, b in zip(two, two[1:])):
            raise InvalidParameterError(
                f"entries must be strictly decreasing, got {self}"
            )
        if len({t & 1 for t in two}) > 1:
            raise InvalidParameterError(
                f"entries must be mutually congruent mod 1, got {self}"
            )

    @classmethod
    def of(cls, *values) -> "HCParameter":
        return cls(values)

    @classmethod
    def parse(cls, text: str) -> "HCParameter":
        """Parse a comma list of fractions, reporting the failing position."""
        ents = []
        for pos, part in enumerate(text.split(",")):
            try:
                ents.append(_half_integer(part))
            except InvalidParameterError as exc:
                raise InvalidParameterError(
                    f"bad entry at position {pos}: {exc}"
                ) from None
        return cls(tuple(ents))

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
        return "(" + ",".join(str(e) for e in self.entries) + ")"


class WeightPair(NamedTuple):
    """Highest weight of an outer tensor product, one entry tuple per factor."""

    first: tuple[Fraction, ...]
    second: tuple[Fraction, ...]


class Case(enum.Enum):
    I = "I"
    II = "II"


@dataclass(frozen=True)
class ThetaDatum:
    """Complete classification data for one admissible parameter.

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
    Lambda: WeightPair
    LambdaDual: WeightPair
    LambdaPrime: WeightPair
    nonstandard_congruence: bool
    closed_form_valid: bool
    dim_sigma: int

    def lambda_gl(self):
        """Integer parts of Lambda per factor, with doubled twist exponents.

        The det twists of the two K factors (U(n) part, U(1) part) are t and -t.
        """
        if self.case is Case.I:
            t = _half(self.n - 1)
        else:
            t = _half(self.q - self.p)
        out = []
        for entries, tw in zip(self.Lambda, (t, -t)):
            parts = tuple(e - tw for e in entries)
            if any(p.denominator != 1 for p in parts):
                raise InadmissibleParameterError(
                    "weight has non-integral parts after removing the det twist; "
                    "parameter is in the flagged congruence class"
                )
            out.append((tuple(int(p) for p in parts), int(2 * tw)))
        return tuple(out)

    def __str__(self):
        return (
            f"ThetaDatum(lam={self.lam}, case={self.case.value}, p={self.p}, q={self.q}, "
            f"gamma={self.gamma}, alphas={tuple(map(str, self.alphas))}, "
            f"betas={tuple(map(str, self.betas))})"
        )


def _rho_shift(n: int) -> list[int]:
    # doubled (-n/2+1, -n/2+2, ..., n/2, -n/2)
    return [2 * i - n for i in range(1, n + 1)] + [-n]


def _dual_shift(n: int) -> list[int]:
    # doubled (-n/2, -n/2+1, ..., n/2-1, n/2)
    return [2 * i - n for i in range(n)] + [n]


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
    classification runs on integers; the datum's Fractions are built last.
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
        Lambda=WeightPair(_halves(first), _halves(second)),
        LambdaDual=WeightPair(_halves(dual[0]), _halves(dual[1])),
        LambdaPrime=WeightPair(_halves(prime[0]), _halves(prime[1])),
        nonstandard_congruence=nonstandard, closed_form_valid=closed_ok,
        dim_sigma=_weyl_count([(first[0] - x) // 2 for x in first]),
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


def _weyl_count(d: list[int]) -> int:
    """Weyl's dimension product on the drops of a dominant weight."""
    pairs = list(itertools.combinations(range(len(d)), 2))
    return (math.prod(d[j] - d[i] + j - i for i, j in pairs)
            // math.prod(j - i for i, j in pairs))


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


def formal_degree_product(lam: HCParameter) -> Fraction:
    """Product of absolute entry differences over all pairs (the formal degree
    up to a measure constant that is never computed here)."""
    pairs = list(itertools.combinations(lam._two, 2))
    return Fraction(math.prod(abs(x - y) for x, y in pairs), 2 ** len(pairs))


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


def _S_value(p: int, q: int, s, a: int, b: int, offsets: list[int], dim: int = 1) -> ClosedValue:
    """:func:`closed_S` from the factors of :func:`_S_factors`, divided by
    ``dim``; a vanishing factor raises :class:`PoleError` naming it."""
    if b == 1 and -a in offsets:
        i, j = divmod(offsets.index(-a), q)
        label = f"s - kappa_{i + 1} + iota_{j + 1} - {p - i + j}"
        raise PoleError(f"pole: factor {label} vanishes at s={Fraction(s)}", factor=label)
    # c = a/b, so the product of the factors c + k is prod(a + k b) / b**(p q)
    return ClosedValue(Fraction(b ** len(offsets), dim * math.prod(a + k * b for k in offsets)),
                       p * q)


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


def zeta_closed(lam_or_theta) -> ClosedValue:
    """Exact value of the group integral per unit squared norm of the matched
    joint highest-weight vector: ``closed_T`` at s = (n+1)/2 over
    ``dim_sigma``, the dimension of the lowest K-type that classification
    fixed, which joins the integer denominator."""
    theta = _coerce_theta(lam_or_theta)
    _require_closed_form(theta)
    s = _half(theta.n + 1)
    p, q, kappas, iotas = T_arguments(theta)
    a, b, offsets, _, _ = _S_factors(p, q, kappas, iotas, s)
    return _S_value(p, q, s, a, b, offsets, theta.dim_sigma)


def c_squared(lam_or_theta) -> Fraction:
    """Squared norm ratio of the discrete-spectrum projection (exact rational).

    Each factor is a ratio of two half-integers, taken as the ratio of their
    doubles: one integer product on each side, one Fraction."""
    theta = _coerce_theta(lam_or_theta)
    _require_closed_form(theta)
    n, p, gamma = theta.n, theta.p, _twice(theta.gamma)
    if theta.case is Case.I:
        pairs = [(al - 2 * (i - n + 1) - gamma, al - 2 * (i - n))
                 for i, al in enumerate(map(_twice, theta.alphas), 1)]
    else:
        # the mixed vector: the betas, then the negated reversed alphas
        delta = [_twice(be) for be in theta.betas] + [-_twice(al) for al in reversed(theta.alphas)]
        pairs = [(gamma + 2 * (i - 2 * p) - de, gamma + 2 * (i - p))
                 for i, de in enumerate(delta, 1)]
    if any(den == 0 for _, den in pairs):
        raise PoleError("pole in projection constant", factor="0")
    return Fraction(math.prod(num for num, _ in pairs), math.prod(den for _, den in pairs))


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
    return [HCParameter(_halves(twices)) for twices in found]
