"""Exact weight combinatorics and closed-form evaluators.

Everything here is exact: parameter entries are half-integers held as
Fractions, closed forms rational multiples of integer powers of pi.
Floating point enters only when a caller converts a result for comparison
with quadrature.

The central object is :class:`ThetaDatum`, the complete classification of an
admissible strictly decreasing parameter into one of two shapes (Case I when
the last entry is positive, Case II otherwise) together with the three
highest weights (``Lambda``, its contragredient ``LambdaDual``, and the
partner weight ``LambdaPrime``) that drive every other module.
"""

from __future__ import annotations

import enum
import itertools
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
]


def _half_integer(x) -> Fraction:
    """An entry given as an int, a Fraction or text, checked to be a half-integer."""
    if isinstance(x, str):
        try:
            value = Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidParameterError(f"cannot parse half-integer {x!r}: {exc}") from None
    elif isinstance(x, (int, Fraction)):
        value = Fraction(x)
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
    as Fractions.
    """

    entries: tuple[Fraction, ...]

    def __post_init__(self):
        ent = tuple(_half_integer(e) for e in self.entries)
        object.__setattr__(self, "entries", ent)
        if len(ent) < 2:
            raise InvalidParameterError("parameter needs at least two entries")
        if any(a <= b for a, b in zip(ent, ent[1:])):
            raise InvalidParameterError(
                f"entries must be strictly decreasing, got {self}"
            )
        if len({e.denominator for e in ent}) > 1:
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

    def negated_reversed(self) -> "WeightPair":
        return WeightPair(
            tuple(-x for x in reversed(self.first)),
            tuple(-x for x in reversed(self.second)),
        )


class Case(enum.Enum):
    I = "I"
    II = "II"


@dataclass(frozen=True)
class ThetaDatum:
    """Complete classification data for one admissible parameter."""

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

    def lambda_gl(self):
        """Integer parts of Lambda per factor, with doubled twist exponents.

        The det twists of the two K factors (U(n) part, U(1) part) are t and -t.
        """
        if self.case is Case.I:
            t = Fraction(self.n - 1, 2)
        else:
            t = Fraction(-(self.p - self.q), 2)
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

    def delta(self) -> tuple[Fraction, ...]:
        """Case II mixed vector (betas padded, then negated reversed alphas)."""
        if self.case is not Case.II:
            raise InvalidParameterError("delta is defined for Case II only")
        return tuple(self.betas) + tuple(-al for al in reversed(self.alphas))

    def dim_sigma(self) -> int:
        return weyl_dim(self.lam)

    def __str__(self):
        return (
            f"ThetaDatum(lam={self.lam}, case={self.case.value}, p={self.p}, q={self.q}, "
            f"gamma={self.gamma}, alphas={tuple(map(str, self.alphas))}, "
            f"betas={tuple(map(str, self.betas))})"
        )


def _rho_shift(n: int) -> tuple[Fraction, ...]:
    # (-n/2+1, -n/2+2, ..., n/2, -n/2)
    half_n = Fraction(n, 2)
    return tuple(-half_n + i for i in range(1, n + 1)) + (-half_n,)


def _dual_shift(n: int) -> tuple[Fraction, ...]:
    # (-n/2, -n/2+1, ..., n/2-1, n/2)
    half_n = Fraction(n, 2)
    return tuple(-half_n + i for i in range(n)) + (half_n,)


def hc_to_blattner(lam: HCParameter) -> tuple[Fraction, ...]:
    """Lowest-K-type highest weight attached to a strictly decreasing parameter."""
    lam = lam if isinstance(lam, HCParameter) else HCParameter(tuple(lam))
    shift = _rho_shift(lam.n)
    return tuple(e + s for e, s in zip(lam.entries, shift))


def classify_theta(lam: HCParameter, *, enforce_closed_form_domain: bool = True) -> ThetaDatum:
    """Classify a parameter into Case I/II and assemble its weight pair data.

    Raises :class:`InadmissibleParameterError` when a shape constraint fails.
    Case II parameters with a positive padded alpha entry are outside the
    validity domain of the closed-form evaluators (the two evaluation routes
    provably disagree there); they are rejected unless
    ``enforce_closed_form_domain=False``, in which case the returned datum
    carries ``closed_form_valid=False`` and the closed forms refuse it later.
    """
    lam = lam if isinstance(lam, HCParameter) else HCParameter(tuple(lam))
    n = lam.n
    fr = lam.fractions
    nonstandard = lam.entries[0].denominator == 1

    b = 1 if fr[n] <= 0 else 0
    a = sum(1 for i in range(n) if fr[i] <= 0)
    p = a - b + 1
    q = n + 1 - p
    if fr[n - 1] <= fr[n]:  # guaranteed by HCParameter, kept as a named diagnostic
        raise InadmissibleParameterError("requires lambda_n > lambda_{n+1}")

    lam_dual = tuple(-x for x in reversed(fr[:n])) + (-fr[n],)
    Lambda_entries = hc_to_blattner(lam)
    dual_shift = _dual_shift(n)
    LambdaDual_entries = tuple(x + s for x, s in zip(lam_dual, dual_shift))

    half = Fraction(1, 2)
    if b == 0:
        case = Case.I
        if p != 1 or q != n:
            raise InadmissibleParameterError(f"Case I forces (p,q)=(1,{n}), got ({p},{q})")
        gamma = fr[n] - half
        alphas = tuple(fr[i - 1] + i - n + half for i in range(1, n + 1))
        betas: tuple[Fraction, ...] = ()
        if gamma < 0:
            raise InadmissibleParameterError(f"Case I needs gamma >= 0, got {gamma}")
        if any(x < y for x, y in zip(alphas, alphas[1:])):
            raise InadmissibleParameterError(f"alphas must be weakly decreasing, got {alphas}")
        if alphas[-1] < gamma + 2:
            raise InadmissibleParameterError(
                f"violated constraint alpha_n >= gamma + 2 ({alphas[-1]} < {gamma + 2})"
            )
        tw = Fraction(n - 1, 2)
        Lambda = WeightPair(tuple(al + tw for al in alphas), (gamma - tw,))
        LambdaPrime = WeightPair(
            (-gamma + tw,), tuple(-al - tw for al in reversed(alphas))
        )
        closed_ok = True
    else:
        case = Case.II
        if not 0 <= p <= n:
            raise InadmissibleParameterError(f"Case II needs 0 <= p <= n, got p={p}")
        gamma = -fr[n] + p - half
        betas = tuple(-fr[n - i] + i - p - half for i in range(1, p + 1))
        alphas = tuple(fr[r - 1] + r - q + half for r in range(1, q))
        if gamma <= 0:
            raise InadmissibleParameterError(f"Case II needs gamma > 0, got {gamma}")
        if any(x < 0 for x in betas) or any(x < y for x, y in zip(betas, betas[1:])):
            raise InadmissibleParameterError(f"betas must be weakly decreasing >= 0, got {betas}")
        if any(x < 0 for x in alphas) or any(x < y for x, y in zip(alphas, alphas[1:])):
            raise InadmissibleParameterError(f"alphas must be weakly decreasing >= 0, got {alphas}")
        if betas and betas[0] > gamma - 2 * p:
            raise InadmissibleParameterError(
                f"violated constraint beta_1 <= gamma - 2p ({betas[0]} > {gamma - 2 * p})"
            )
        closed_ok = all(al == 0 for al in alphas)
        if not closed_ok and enforce_closed_form_domain:
            raise InadmissibleParameterError(
                "Case II requires every padded alpha to vanish for the closed forms "
                f"(got alphas={tuple(map(str, alphas))}); outside this domain the "
                "substitution route and the oscillator transform provably disagree"
            )
        tw = Fraction(-(p - q), 2)
        mixed = alphas + tuple(-be for be in reversed(betas))
        Lambda = WeightPair(tuple(x + tw for x in mixed), (-gamma - tw,))
        twp = Fraction(n - 1, 2)
        LambdaPrime = WeightPair(
            tuple(be + twp for be in betas),
            tuple(x - twp for x in (gamma,) + tuple(-al for al in reversed(alphas))),
        )

    LambdaDual = WeightPair(Lambda.first, Lambda.second).negated_reversed()
    # the assembled weights must agree with the additive-shift formulas
    assert Lambda.first + Lambda.second == Lambda_entries
    assert LambdaDual.first == tuple(LambdaDual_entries[:n])
    assert LambdaDual.second == (LambdaDual_entries[n],)

    return ThetaDatum(
        lam=lam, n=n, case=case, p=p, q=q, gamma=gamma, alphas=alphas, betas=betas,
        Lambda=Lambda, LambdaDual=LambdaDual, LambdaPrime=LambdaPrime,
        nonstandard_congruence=nonstandard, closed_form_valid=closed_ok,
    )


def gl_dim(mu: Sequence[Fraction]) -> int:
    """Dimension of the U(m) irreducible with highest weight ``mu``.

    A constant det twist does not change the dimension, so fractional
    (genuine) weights are fine as long as the entries are mutually congruent.
    """
    mu = [Fraction(x) for x in mu]
    num = Fraction(1)
    for i in range(len(mu)):
        for j in range(i + 1, len(mu)):
            num *= Fraction(mu[i] - mu[j] + (j - i), j - i)
    if num.denominator != 1 or num <= 0:
        raise InvalidParameterError(f"not a dominant weight: {mu}")
    return int(num)


def weyl_dim(lam: HCParameter) -> int:
    """Dimension of the lowest K-type: the product of entry differences over
    the compact positive roots."""
    fr = lam.fractions
    n = lam.n
    num = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            num *= Fraction(fr[i] - fr[j], j - i)
    if num.denominator != 1 or num <= 0:
        raise InvalidParameterError(f"not strictly dominant: {lam}")
    return int(num)


def formal_degree_product(lam: HCParameter) -> Fraction:
    """Product of absolute entry differences over all pairs (the formal degree
    up to a measure constant that is never computed here)."""
    fr = lam.fractions
    out = Fraction(1)
    for i in range(len(fr)):
        for j in range(i + 1, len(fr)):
            out *= abs(fr[i] - fr[j])
    return out


@dataclass(frozen=True)
class ClosedValue:
    """Exact value rational * pi**pi_exp."""

    rational: Fraction
    pi_exp: int

    def __mul__(self, other):
        if isinstance(other, ClosedValue):
            return ClosedValue(self.rational * other.rational, self.pi_exp + other.pi_exp)
        return ClosedValue(self.rational * Fraction(other), self.pi_exp)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ClosedValue):
            return ClosedValue(self.rational / other.rational, self.pi_exp - other.pi_exp)
        return ClosedValue(self.rational / Fraction(other), self.pi_exp)

    def __float__(self):
        import math

        return float(self.rational) * math.pi**self.pi_exp

    def __eq__(self, other):
        if isinstance(other, ClosedValue):
            if self.rational == 0 and other.rational == 0:
                return True
            return self.rational == other.rational and self.pi_exp == other.pi_exp
        return NotImplemented

    def __str__(self):
        return f"{self.rational} * pi^{self.pi_exp}"


def _as_tuple(x, length: int) -> tuple[Fraction, ...]:
    if isinstance(x, (int, Fraction)):
        return (Fraction(x),) * length
    return tuple(Fraction(v) for v in x)


def _S_factors(p: int, q: int, kappas, iotas, s) -> list[tuple[Fraction, str]]:
    """The linear denominator factors of :func:`closed_S`, each with its label."""
    kap = _as_tuple(kappas, p)
    iot = _as_tuple(iotas, q)
    s = Fraction(s)
    if len(kap) != p or len(iot) != q:
        raise InvalidParameterError(
            f"weight lengths ({len(kap)},{len(iot)}) must match (p,q)=({p},{q})"
        )
    if len(set(iot)) <= 1:
        iota = iot[0] if iot else Fraction(0)
        return [(iota - kap[i - 1] - d + s, f"iota - kappa_{i} - {d} + s")
                for i in range(1, p + 1) for d in range(p + 1 - i, p + q - i + 1)]
    if len(set(kap)) <= 1:
        kappa = kap[0] if kap else Fraction(0)
        return [(iot[i - 1] - kappa - d + s, f"iota_{i} - kappa - {d} + s")
                for i in range(1, q + 1) for d in range(i, p + i)]
    raise InvalidParameterError(
        "one of the two weights must be one-dimensional (all entries equal)"
    )


def _reciprocal(factors: list[tuple[Fraction, str]], s: Fraction, pi_exp: int) -> ClosedValue:
    """``pi**pi_exp`` over the product of the labelled factors; a vanishing
    factor raises :class:`PoleError` naming it."""
    denom = Fraction(1)
    for factor, label in factors:
        if factor == 0:
            raise PoleError(f"pole: factor {label} vanishes at s={s}", factor=label)
        denom *= factor
    return ClosedValue(1 / denom, pi_exp)


def closed_S(p: int, q: int, kappas, iotas, s) -> ClosedValue:
    """Scalar of the twisted domain integral over the (p, q) matrix ball.

    Exactly one of the two weights must be one-dimensional (all entries
    equal); a vanishing denominator factor raises :class:`PoleError` naming
    the factor.
    """
    return _reciprocal(_S_factors(p, q, kappas, iotas, s), Fraction(s), p * q)


def closed_S_factors(p: int, q: int, kappas, iotas, s) -> list[Fraction]:
    """The linear denominator factors of :func:`closed_S` (pole diagnostics)."""
    return [factor for factor, _ in _S_factors(p, q, kappas, iotas, s)]


def _require_closed_form(theta: ThetaDatum):
    if not theta.closed_form_valid:
        raise InadmissibleParameterError(
            "datum is outside the closed-form validity domain "
            "(Case II with positive alpha); refuse rather than return an unverified value"
        )


def _T_factors(theta: ThetaDatum, s: Fraction) -> list[tuple[Fraction, str]]:
    """The linear denominator factors of :func:`closed_T`, each with its label."""
    n = theta.n
    if theta.case is Case.I:
        return [(theta.alphas[i - 1] - i + s - Fraction(1 - n, 2),
                 f"alpha_{i} - {i} + s - (1-n)/2") for i in range(1, n + 1)]
    return [(theta.gamma - i + s - Fraction(theta.p - theta.q, 2),
             f"gamma - {i} + s - (p-q)/2") for i in range(1, n + 1)]


def closed_T(theta: ThetaDatum, s) -> ClosedValue:
    """Scalar of the endomorphism integral at parameter ``s``."""
    _require_closed_form(theta)
    s = Fraction(s)
    return _reciprocal(_T_factors(theta, s), s, theta.n)


def closed_T_factors(theta: ThetaDatum, s) -> list[Fraction]:
    """The linear denominator factors of :func:`closed_T` (pole diagnostics)."""
    return [factor for factor, _ in _T_factors(theta, Fraction(s))]


def _coerce_theta(lam_or_theta) -> ThetaDatum:
    if isinstance(lam_or_theta, ThetaDatum):
        return lam_or_theta
    return classify_theta(lam_or_theta)


def zeta_closed(lam_or_theta) -> ClosedValue:
    """Exact value of the group integral per unit squared norm of the matched
    joint highest-weight vector: ``closed_T`` at s = (n+1)/2 over the
    dimension of the lowest K-type."""
    theta = _coerce_theta(lam_or_theta)
    return closed_T(theta, Fraction(theta.n + 1, 2)) / theta.dim_sigma()


def c_squared(lam_or_theta) -> Fraction:
    """Squared norm ratio of the discrete-spectrum projection (exact rational)."""
    theta = _coerce_theta(lam_or_theta)
    _require_closed_form(theta)
    n, p, gamma = theta.n, theta.p, theta.gamma
    if theta.case is Case.I:
        pairs = [(al - i + n - 1 - gamma, al - i + n) for i, al in enumerate(theta.alphas, 1)]
    else:
        pairs = [(gamma + i - de - 2 * p, gamma + i - p) for i, de in enumerate(theta.delta(), 1)]
    out = Fraction(1)
    for num, den in pairs:
        if den == 0:
            raise PoleError("pole in projection constant", factor=str(den))
        out *= num / den
    return out


def dual_S_arguments(theta: ThetaDatum) -> tuple[int, int, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(p, q, kappas, iotas) feeding :func:`closed_S` with the contragredient
    lowest K-type viewed on the (n, 1) domain."""
    return theta.n, 1, theta.LambdaDual.first, theta.LambdaDual.second


def T_arguments(theta: ThetaDatum) -> tuple[int, int, tuple[Fraction, ...], tuple[Fraction, ...]]:
    """(p, q, kappas, iotas) at which :func:`closed_S` on the (n, 1) domain is
    :func:`closed_T`: the contragredient first factor against the trivial
    weight (Case I) or the trivial weight against the second (Case II)."""
    n = theta.n
    if theta.case is Case.I:
        return n, 1, theta.LambdaDual.first, (Fraction(0),)
    return n, 1, (Fraction(0),) * n, theta.LambdaDual.second


def admissible_sweep(n: int, max_entry) -> list[HCParameter]:
    """All admissible proper-half-integral parameters of length n+1 with
    entries bounded by ``max_entry`` in absolute value, in decreasing
    lexicographic order.

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
    top = int(2 * Fraction(max_entry))  # doubled bound
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
    return [HCParameter(tuple(Fraction(t, 2) for t in twices)) for twices in found]
