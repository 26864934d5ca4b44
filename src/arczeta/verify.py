"""Cross-verification harness: closed forms against independent integration.

Every ``verify_*`` entry point returns a report with an :class:`Estimate`
(value, standard error, sample count, seed), the exact closed value where one
exists, and a PASS/FAIL verdict at the three-standard-error band (or the
quadrature tolerance for the deterministic Gauss–Jacobi paths).  Every
Monte Carlo estimate also reports its per-sample relative standard deviation
(``relstd``) and whether that sits at the rounding floor (``degenerate``), in
which case the three-standard-error band tests nothing.

Estimates are reproducible bit for bit for a fixed (seed, workers) pair: the
sample budget is split into per-worker substreams with spawned seed
sequences, evaluated in vectorized chunks, and reduced in worker order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .characters import char_poly_batch, elementary_batch, psi_batch, schur_eval_batch
from .errors import ConvergenceError, InvalidParameterError
from .exact import rational_hyperbolic
from .fock import (
    FockPoly,
    MatrixCoefficient,
    harmonic_hwv,
    hwv_norm2,
    omega_at,
    omega_matcoef,
    omega_matcoef_transform_route,
    weil_transform_bruteforce,
)
from .group import (CoverElement, haar_unitary, sample_ball, sample_domain,
                    weighted_ball_volume)
from .weights import (
    Case,
    ClosedValue,
    HCParameter,
    ThetaDatum,
    _as_tuple,
    admissible_sweep,
    classify_theta,
    closed_S,
    closed_S_factors,
    closed_T,
    closed_T_factors,
    dual_S_arguments,
    formal_degree_product,
    gl_dim,
    weyl_dim,
    T_arguments,
    zeta_closed,
)

__all__ = [
    "Estimate",
    "VerifyReport",
    "quad",
    "verify_S",
    "verify_T",
    "verify_zeta",
    "verify_formal_degree",
    "verify_prop61",
    "verify_at_lemma",
    "verify_schur_orthogonality",
    "POLE_DISTANCE",
]

POLE_DISTANCE = Fraction(1, 2)
DEFAULT_CHUNK = 100_000
DEGENERATE_RELSTD = 1e-12
PROP61_TOL = 1e-9


@dataclass(frozen=True)
class Estimate:
    """Numerical integration result."""

    value: complex
    stderr: float
    samples: int
    seed: int
    wall_time: float = 0.0

    def __post_init__(self):
        if self.stderr < 0:
            raise InvalidParameterError("stderr must be non-negative")


@dataclass
class VerifyReport:
    name: str
    estimate: Estimate
    closed: Optional[ClosedValue]
    verdict: str
    rel_err: float
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def _substreams(seed: int, workers: int) -> list[np.random.Generator]:
    root = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(s)) for s in root.spawn(workers)]


def _split_budget(samples: int, workers: int) -> list[int]:
    base, extra = divmod(samples, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _reduce_mean(chunks_fn, samples: int, workers: int, seed: int):
    """Run the per-chunk evaluator across worker substreams, fixed order.

    Squared deviations are summed about each chunk's own mean and the chunks
    merged pairwise in worker order (Chan, Golub & LeVeque 1979)."""
    if workers < 1:
        raise InvalidParameterError(f"need at least one worker, got {workers}")
    if samples < 1:
        raise InvalidParameterError(f"need at least one sample, got {samples}")
    total = 0.0 + 0.0j
    sq_dev = 0.0
    count = 0
    rngs = _substreams(seed, workers)
    for rng, budget in zip(rngs, _split_budget(samples, workers)):
        remaining = budget
        while remaining > 0:
            m = min(DEFAULT_CHUNK, remaining)
            vals = chunks_fn(rng, m)
            chunk_sum = vals.sum()
            chunk_mean = chunk_sum / m
            sq_dev += float((np.abs(vals - chunk_mean) ** 2).sum())
            if count:
                sq_dev += abs(chunk_mean - total / count) ** 2 * count * m / (count + m)
            total += chunk_sum
            count += m
            remaining -= m
    mean = total / count
    stderr = math.sqrt(sq_dev / count / count)
    return mean, stderr, count


def _estimator_health(mean, stderr: float, count: int) -> dict:
    """Per-sample relative standard deviation stderr * sqrt(N) / |mean| of a
    Monte Carlo estimate, and whether it sits at the rounding floor: a
    degenerate (constant) integrand passes the 3-sigma rule without testing
    it."""
    relstd = float(stderr * math.sqrt(count) / abs(mean))
    return {"relstd": relstd, "degenerate": relstd < DEGENERATE_RELSTD}


def _check_method(method: str, allowed: tuple[str, ...], context: str):
    if method not in allowed:
        raise InvalidParameterError(
            f"{context}: method must be one of {', '.join(allowed)}, got {method!r}")


def _guard_poles(factors: Sequence[Fraction], context: str):
    worst = min(factors)
    if worst <= POLE_DISTANCE:
        raise ConvergenceError(
            f"{context}: denominator factor {worst} within {POLE_DISTANCE} of a pole; "
            "integral refused (divergent or too slowly convergent)"
        )


def _verdict(value, target: float, stderr: Optional[float] = None) -> tuple[str, float]:
    """PASS/FAIL and relative error of an estimate against its target.

    A deterministic estimate (``stderr`` None) passes at relative error
    1e-8.  A Monte Carlo estimate passes within three standard errors,
    floored at 1e-12 relative so that a zero-variance integrand is judged
    against rounding rather than against an empty band.
    """
    diff = float(abs(value - target))
    rel = diff / abs(target)
    if stderr is None:
        ok = rel <= 1e-8
    else:
        ok = diff <= max(3.0 * stderr, 1e-12 * abs(target))
    return ("PASS" if ok else "FAIL"), rel


def _fractional_char(kappas: Sequence[Fraction]):
    """Character with a possibly fractional common det twist, as a function
    of positive-real or complex eigenvalue batches (N, m); a one-dimensional
    weight (all entries equal) is the det power itself."""
    if len(set(kappas)) == 1:
        kappa = float(kappas[0])
        return lambda eigs: eigs.prod(axis=1) ** kappa if kappa else 1.0
    tau = kappas[-1] - int(kappas[-1])
    parts = [k - tau for k in kappas]
    if any(p.denominator != 1 for p in parts):
        raise InvalidParameterError(f"weight entries not mutually congruent: {kappas}")
    parts = [int(p) for p in parts]
    tau = float(tau)

    def char(eigs):
        out = schur_eval_batch(parts, elementary_batch(eigs))
        if tau:
            out = out * eigs.prod(axis=1) ** tau
        return out

    return char


# ---------------------------------------------------------------------------
# the scalar domain integral


def quad(p: int, q: int, exponent: float, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss–Jacobi rule, the deterministic twin of :func:`sample_domain`:
    ``(w * f(eig)).sum()`` equals ``integral_D f det(1 - z z*)**exponent dz``
    exactly when f is a polynomial of degree <= ``degree`` in each eigenvalue
    of the smaller gram (``eig`` rows, m = min(p, q) wide).

    In Hua's polar coordinates these eigenvalues x = 1 - lambda (lambda the
    squared singular values) carry the density prod x**exponent
    (1 - x)**|p - q| times the squared Vandermonde, so each axis takes
    N = degree // 2 + m Gauss nodes.  Nodes and weights are the eigenvalues
    and squared first eigenvector components of the Jacobi matrix (Golub &
    Welsch 1969; ``scipy.special.roots_jacobi`` overflows at large exponents);
    the weights are scaled to the constant weight of ``sample_domain``.
    """
    m, big = min(p, q), max(p, q)
    n, a, b = degree // 2 + m, exponent, big - m
    k = np.arange(1, n, dtype=float)
    two_k = 2.0 * k + a + b
    diag = np.concatenate([[(a - b) / (a + b + 2.0)],
                           (a - b) * (a + b) / (two_k * (two_k + 2.0))])
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b)
                  / (two_k**2 * (two_k + 1.0) * (two_k - 1.0)))
    t, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    grid = np.indices((n,) * m).reshape(m, -1).T
    eig = 0.5 * (1.0 + t[grid])
    i, j = np.triu_indices(m, 1)
    w = (vecs[0, grid] ** 2).prod(axis=1) * ((eig[:, i] - eig[:, j]) ** 2).prod(axis=1)
    volume = math.prod(weighted_ball_volume(big, exponent + m - 1 - r) for r in range(m))
    return eig, w * (volume / w.sum())


def verify_S(p: int, q: int, kappas, iotas, s, *, samples: int = 200_000,
             seed: int = 0, workers: int = 1, method: str = "quad") -> VerifyReport:
    """Check the closed scalar of the twisted domain integral numerically.

    ``method`` is ``"quad"`` (the exact rule :func:`quad`, standard error the
    gap to one more node per axis, i.e. rounding) or ``"mc"`` (Monte Carlo
    over :func:`~arczeta.group.sample_domain`).  Both weights carry
    det(1 - z z*)**(min(factor) - 1), and both evaluate one integrand, a
    polynomial in the spectrum of the smaller gram (1 - z z* or 1 - z* z).
    A scalar weight argument is the constant weight of its side.
    """
    _check_method(method, ("quad", "mc"), "verify_S")
    kap, iot = _as_tuple(kappas, p), _as_tuple(iotas, q)
    s = Fraction(s)
    closed = closed_S(p, q, kap, iot, s)
    t0 = time.perf_counter()
    if p == 0 or q == 0:  # zero-dimensional ball: the integral is the point mass
        est = Estimate(1.0 + 0j, 0.0, 0, seed, time.perf_counter() - t0)
        return VerifyReport("verify_S", est, closed, "PASS", 0.0, {"method": "degenerate"})
    factors = closed_S_factors(p, q, kap, iot, s)
    _guard_poles(factors, "verify_S")

    m, big = min(p, q), max(p, q)
    dim = gl_dim(kap) * gl_dim(iot)
    chi_p, chi_q = _fractional_char(kap), _fractional_char(iot)
    e_imp = float(min(factors)) - 1.0
    resid = float(s - (p + q)) - e_imp

    def integrand(eig):
        # the grams 1 - z z* (p x p) and 1 - z* z (q x q) share their
        # spectrum up to eigenvalues 1; ``eig`` is that of the smaller one
        padded = np.concatenate([eig, np.ones((len(eig), big - m))], axis=1)
        eig_p, eig_q = (eig, padded) if p == m else (padded, eig)
        return chi_p(1.0 / eig_p) * chi_q(eig_q) * eig.prod(axis=1) ** resid / dim

    if method == "quad":
        def rule(degree):
            eig, w = quad(p, q, e_imp, degree)
            return float(np.real((w * integrand(eig)).sum()))

        degree = int(max(kap) - min(kap) + max(iot) - min(iot))
        val = rule(degree)
        est = Estimate(val, abs(val - rule(degree + 2)), 0, seed, time.perf_counter() - t0)
        verdict, rel = _verdict(val, float(closed))
        return VerifyReport("verify_S", est, closed, verdict, rel,
                            {"method": "quad", "nodes": degree // 2 + m})

    def chunk(rng, size):
        z, w = sample_domain(p, q, e_imp, rng, size=size)
        zm = z if p == m else z.conj().transpose(0, 2, 1)
        eig = np.linalg.eigvalsh(np.eye(m) - zm @ zm.conj().transpose(0, 2, 1))
        # complex even when the integrand is real: the reduction's |v - mean|^2
        # rounds differently on real arrays
        return (w * integrand(eig)).astype(complex, copy=False)

    mean, stderr, count = _reduce_mean(chunk, samples, workers, seed)
    est = Estimate(mean, stderr, count, seed, time.perf_counter() - t0)
    verdict, rel = _verdict(mean, float(closed), stderr)
    return VerifyReport("verify_S", est, closed, verdict, rel,
                        {"method": "mc", **_estimator_health(mean, stderr, count)})


# ---------------------------------------------------------------------------
# the endomorphism scalar


def verify_T(theta: ThetaDatum, s, *, samples: int = 200_000, seed: int = 0,
             workers: int = 1, method: str = "quad") -> VerifyReport:
    """Check the endomorphism scalar at parameter ``s``.

    Its integrand is the domain integrand of :func:`verify_S` on the (n, 1)
    ball at :func:`~arczeta.weights.T_arguments`, so this is that check
    reported against :func:`~arczeta.weights.closed_T`.
    """
    closed = closed_T(theta, s)
    rep = verify_S(*T_arguments(theta), s, samples=samples, seed=seed, workers=workers,
                   method=method)
    return replace(rep, name="verify_T", closed=closed)


# ---------------------------------------------------------------------------
# the end-to-end group integral


def zeta_integrand_samples(theta: ThetaDatum, rng: np.random.Generator, size: int,
                           e_imp: float, coeff_eval: MatrixCoefficient,
                           flip_roots: bool = False) -> np.ndarray:
    """One chunk of importance-weighted samples of the group integrand.

    The sampled element is (z, k); one root ratio is drawn for k and threaded
    through both genuine factors, so flipping every carried root
    (``flip_roots``) must leave each sample bit-identical.
    """
    n = theta.n
    u, dirs = sample_ball(n, e_imp, rng, size)
    x = haar_unitary(n, rng, size=size)
    yang = rng.uniform(0.0, 2.0 * np.pi, size=size)
    y = np.exp(1j * yang)

    detx = np.linalg.det(x)
    ratio_k = np.exp(0.5j * np.angle(detx)) * np.exp(-0.5j * yang)
    if flip_roots:
        # flipping the carried root of the block determinant negates the
        # ratio; the two genuine factors consume opposite integer powers, so
        # every sample below must come out bit-identical
        ratio_k = -ratio_k

    one_minus_u = 1.0 - u
    sign = +1 if theta.case is Case.I else -1
    # both ball blocks are I + (scale - 1) d d* on the sampled direction d, so
    # each product with x is the rank-one update x + (scale - 1) d (d* x)
    d_dx = dirs[:, :, None] * np.einsum("ni,nij->nj", dirs.conj(), x)[:, None, :]
    # psi at theta_z k, whose positive roots have the ratio sqrt(1 - u); the
    # coefficient at b_z^(+-1) k
    sech = one_minus_u**0.5
    psi = psi_batch(theta, x + (sech - 1.0)[:, None, None] * d_dx, one_minus_u ** (-0.5) * y,
                    sech * ratio_k)
    bz_scale = one_minus_u ** (-0.5 * sign)
    coeff = coeff_eval.evaluate(x + (bz_scale - 1.0)[:, None, None] * d_dx, bz_scale * y, ratio_k)

    c_norm = weighted_ball_volume(n, e_imp)
    return c_norm * coeff * psi * one_minus_u ** (-0.5 * (n + 1) - e_imp)


def verify_zeta(lam_or_theta, *, samples: int = 1_000_000, seed: int = 0,
                workers: int = 1, method: str = "mc") -> VerifyReport:
    """End-to-end check of the group integral against its closed value.

    ``method="mc"`` samples the ball radially (importance-matched to the
    boundary behavior read off the closed-form factors) and the compact group
    by Haar; ``method="radial"`` uses the character-reduced one-dimensional
    integrand instead (deterministic).  The expected value is the closed form
    times the squared norm of the joint highest-weight vector.
    """
    _check_method(method, ("mc", "radial"), "verify_zeta")
    theta = lam_or_theta if isinstance(lam_or_theta, ThetaDatum) else classify_theta(lam_or_theta)
    n = theta.n
    s0 = Fraction(n + 1, 2)
    closed = zeta_closed(theta)
    factors = closed_T_factors(theta, s0)
    _guard_poles(factors, "verify_zeta")
    t0 = time.perf_counter()

    if method == "radial":
        norm2 = hwv_norm2(theta)
        target_float = float(closed) * norm2
        rep = verify_T(theta, s0, method="quad")
        val = rep.estimate.value * norm2 / theta.dim_sigma()
        est = Estimate(val, rep.estimate.stderr * norm2 / theta.dim_sigma(), 0, seed,
                       time.perf_counter() - t0)
        verdict, rel = _verdict(val, target_float)
        return VerifyReport("verify_zeta", est, closed, verdict, rel,
                            {"method": "radial", "phi_norm2": norm2, "nodes": rep.details["nodes"]})

    coeff_eval = MatrixCoefficient(theta)
    norm2 = coeff_eval.phi_norm2.real
    target_float = float(closed) * norm2
    e_imp = float(min(factors)) - 1.0

    def chunk(rng, size):
        return zeta_integrand_samples(theta, rng, size, e_imp, coeff_eval)

    mean, stderr, count = _reduce_mean(chunk, samples, workers, seed)
    est = Estimate(mean, stderr, count, seed, time.perf_counter() - t0)
    verdict, rel = _verdict(mean, target_float, stderr)
    return VerifyReport("verify_zeta", est, closed, verdict, rel,
                        {"method": "mc", "phi_norm2": norm2, "importance_exponent": e_imp,
                         **_estimator_health(mean, stderr, count)})


# ---------------------------------------------------------------------------
# formal degree consistency


def verify_formal_degree(lams: Sequence[HCParameter]) -> VerifyReport:
    """Exact rational test that dim/S(dual, 0) is proportional to the product
    of absolute parameter differences with a parameter-free constant."""
    t0 = time.perf_counter()
    if not lams:
        raise InvalidParameterError("need at least one parameter")
    ratios = []
    rows = []
    for lam in lams:
        theta = classify_theta(lam)
        sval = closed_S(*dual_S_arguments(theta), 0)
        dim = weyl_dim(lam)
        fd = formal_degree_product(lam)
        ratio = ClosedValue(Fraction(dim), 0) / sval / fd
        ratios.append(ratio)
        rows.append({"lambda": str(lam), "dim": dim, "S0": str(sval),
                     "fd_product": str(fd), "ratio": str(ratio)})
    ok = all(r == ratios[0] for r in ratios)
    mismatches = [rows[i]["lambda"] for i, r in enumerate(ratios) if r != ratios[0]]
    est = Estimate(complex(len(lams)), 0.0, len(lams), 0, time.perf_counter() - t0)
    return VerifyReport(
        "verify_formal_degree", est, ratios[0], "PASS" if ok else "FAIL",
        0.0 if ok else 1.0,
        {"rows": rows, "mismatches": mismatches},
    )


# ---------------------------------------------------------------------------
# identity suites


def verify_prop61(*, trials: int = 20, seed: int = 0) -> VerifyReport:
    """Substitution route versus transform route at random (t, k, k'); a
    trial fails above relative disagreement ``PROP61_TOL``.

    The cases are every admissible parameter at n=1 up to 3 and the Case I
    parameters at n=2 up to 7/2.
    """
    t0 = time.perf_counter()
    if trials < 1:
        raise InvalidParameterError(f"need at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    thetas = [classify_theta(lam) for lam in admissible_sweep(1, 3)]
    for lam in admissible_sweep(2, Fraction(7, 2)):
        th = classify_theta(lam)
        if th.case is Case.I:
            thetas.append(th)
    worst = 0.0
    failures = []
    for theta in thetas:
        phi = harmonic_hwv(theta, exact=False)
        for _ in range(trials):
            t = float(rng.uniform(-1.5, 1.5))
            k = CoverElement.from_blocks(haar_unitary(theta.n, rng),
                                         np.exp(2j * np.pi * rng.uniform()))
            kp = CoverElement.from_blocks(haar_unitary(theta.n, rng),
                                          np.exp(2j * np.pi * rng.uniform()))
            lhs = omega_matcoef_transform_route(kp, t, k, theta, phi)
            rhs = omega_matcoef(kp, t, k, theta, phi)
            rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
            worst = max(worst, rel)
            if not rel <= PROP61_TOL:
                failures.append({"lambda": str(theta.lam), "t": t, "rel": rel})
    est = Estimate(complex(worst), 0.0, trials * len(thetas), seed, time.perf_counter() - t0)
    return VerifyReport("verify_prop61", est, None,
                        "PASS" if not failures else "FAIL", worst,
                        {"cases": len(thetas), "failures": failures})


def verify_at_lemma(*, max_degree: int = 4) -> VerifyReport:
    """Closed hyperbolic transform versus brute-force kernel integration,
    exact arithmetic, every monomial of bounded degree in one ball variable,
    at the rational point tanh(t/2) = 1/3."""
    import itertools

    if max_degree < 0:
        raise InvalidParameterError(f"max_degree must be non-negative, got {max_degree}")
    t0 = time.perf_counter()
    ch, sh = rational_hyperbolic(Fraction(1, 3))
    bad = []
    total = 0
    for exps in itertools.product(range(max_degree + 1), repeat=4):
        if sum(exps) > max_degree:
            continue
        total += 1
        f = FockPoly(1, {exps: 1}, exact=True)
        a = omega_at((ch, sh), f)
        b = weil_transform_bruteforce((ch, sh), f)
        if not (a.poly == b.poly and a.prefactor == b.prefactor
                and Fraction(a.tanh) == Fraction(b.tanh)):
            bad.append(exps)
    est = Estimate(complex(total - len(bad)), 0.0, total, 0, time.perf_counter() - t0)
    return VerifyReport("verify_at", est, None, "PASS" if not bad else "FAIL",
                        0.0 if not bad else 1.0,
                        {"monomials": total, "mismatches": [list(b) for b in bad]})


def verify_schur_orthogonality(weights: Sequence[Sequence[int]], *, samples: int = 200_000,
                               seed: int = 0, workers: int = 1) -> VerifyReport:
    """Monte Carlo check that each irreducible character has unit L2 norm on
    the compact group under exactly invariant sampling."""
    if not weights:
        raise InvalidParameterError("verify_schur: need at least one weight")
    t0 = time.perf_counter()
    rows = []
    ok = True
    worst = 0.0
    for idx, mu in enumerate(weights):
        mu = list(mu)
        m = len(mu)

        def chunk(rng, size, mu=mu, m=m):
            k = haar_unitary(m, rng, size=size)
            chi = schur_eval_batch(mu, char_poly_batch(k))
            return (np.abs(chi) ** 2).astype(complex)

        mean, stderr, count = _reduce_mean(chunk, samples, workers, seed + idx)
        verdict, dev = _verdict(mean.real, 1.0, stderr)
        ok = ok and verdict == "PASS"
        worst = max(worst, dev)
        rows.append({"weight": mu, "mean": float(mean.real), "stderr": stderr,
                     "pass": verdict == "PASS", **_estimator_health(mean, stderr, count)})
    est = Estimate(complex(worst), 0.0, samples * len(weights), seed, time.perf_counter() - t0)
    return VerifyReport("verify_schur", est, None, "PASS" if ok else "FAIL", worst,
                        {"rows": rows})
