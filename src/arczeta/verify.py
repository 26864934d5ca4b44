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
Two or more substreams run in parallel, at most one process per usable CPU,
each pinned to its own: the caller and persistent workers, forked at the
first spread of a process and killed at its exit.  A worker runs the code
as it was imported at its fork.  Each process returns its chunk sums and
the caller merges them in worker order, so which process ran a substream
never changes a number.

A zeta chunk makes all its draws at once and evaluates them in blocks of a
fixed size (``group._BLOCK``), so its estimates are reproducible for a fixed
(seed, workers) pair at that block size.  Another block size draws the same
numbers but can move the last bit of a sample: numpy's complex ``a * b`` and
``b * a`` can differ in the last bit (FMA kernels, e.g. on AVX-512), and
numpy evaluates ``a * <temporary>`` as ``<temporary> * a`` in place when
the temporary holds 256 KiB or more, which no block does.
"""

from __future__ import annotations

import atexit
import functools
import itertools
import math
import os
import pickle
import signal
import struct
import threading
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

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
from .group import (CoverElement, _blocks, haar_char_rows, haar_unitary, sample_ball,
                    sample_domain, weighted_ball_volume)
from .weights import (
    Case,
    ClosedValue,
    HCParameter,
    ThetaDatum,
    _S_factors,
    _S_value,
    _as_fraction,
    _as_tuple,
    _require_closed_form,
    _weyl_count,
    admissible_sweep,
    classify_theta,
    closed_S,
    closed_T_factors,
    dual_S_arguments,
    formal_degree_product,
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


def _substream_chunks(chunks_fn, substream: tuple[np.random.Generator, int]) -> list[tuple]:
    """(size, sum, squared deviation about the chunk mean) of each chunk of one
    (generator, budget) substream, in draw order; each sum stays the numpy
    scalar that the merge has always read."""
    rng, budget = substream
    chunks = []
    while budget > 0:
        m = min(DEFAULT_CHUNK, budget)
        vals = chunks_fn(rng, m)
        chunk_sum = vals.sum()
        chunks.append((m, chunk_sum, float((np.abs(vals - chunk_sum / m) ** 2).sum())))
        budget -= m
    return chunks


# ---------------------------------------------------------------------------
# the process spread: persistent workers, forked at the first spread of a
# process and killed at its exit

_FRAME = struct.Struct("<Q")  # a frame is its byte length, then pickled data


class _Worker(NamedTuple):
    pid: int
    tasks: int  # the write end of its task pipe
    results: int  # the read end of its result pipe

    def close(self):
        os.close(self.tasks)
        os.close(self.results)


_workers: list[_Worker] = []  # this process's pool
_lock = threading.Lock()  # held by the one spread that uses the pool


def _send(fd: int, data: bytes):
    view = memoryview(_FRAME.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int) -> Optional[bytes]:
    """``size`` bytes from ``fd``, or None at the end of the file."""
    parts = []
    while size:
        part = os.read(fd, min(size, 1 << 20))
        if not part:
            return None
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _read_frame(fd: int) -> Optional[bytes]:
    head = _read(fd, _FRAME.size)
    return None if head is None else _read(fd, _FRAME.unpack(head)[0])


def _serve(tasks: int, results: int):
    """A worker's loop until its task pipe ends: each task is a pickled
    (function, items, CPU); pin to the CPU and send back (True, the function
    of each item, in order) or (False, the exception).  Ctrl-C reaches the
    caller, which ends its busy workers."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while (task := _read_frame(tasks)) is not None:
        try:
            work, items, cpu = pickle.loads(task)
            os.sched_setaffinity(0, {cpu})
            outcome = (True, [work(item) for item in items])
        except BaseException as exc:
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome)
            pickle.loads(data)  # an exception must also rebuild in the caller
        except Exception as exc:
            data = pickle.dumps((False, RuntimeError(f"worker result not picklable: {exc!r}")))
        _send(results, data)


def _fork() -> _Worker:
    """Fork one worker; return its pid and the caller's ends of its task and
    result pipes.  The worker holds no pool pipe end but its own (so the
    end of the caller ends its task pipe) and leaves only through
    ``os._exit``: no exit handler or output buffer of the caller runs twice."""
    task_read, task_write = os.pipe()
    result_read, result_write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        for fd in (task_read, task_write, result_read, result_write):
            os.close(fd)
        raise
    if pid == 0:
        try:
            os.close(task_write)
            os.close(result_read)
            _serve(task_read, result_write)
        finally:
            os._exit(0)
    os.close(task_read)
    os.close(result_write)
    return _Worker(pid, task_write, result_read)


def _receive(worker: _Worker) -> tuple[bool, object]:
    """What a worker sent back: (True, its results) or (False, its exception)."""
    data = _read_frame(worker.results)
    if data is None:
        raise RuntimeError("worker process ended without a result")
    return pickle.loads(data)


def _end(worker: _Worker):
    """Close the pipes to a worker, kill it and reap it."""
    worker.close()
    try:
        os.kill(worker.pid, signal.SIGKILL)
        os.waitpid(worker.pid, 0)
    except (ProcessLookupError, ChildProcessError):  # already reaped elsewhere
        pass


def _pool(count: int) -> list[_Worker]:
    """The first ``count`` workers of this process's pool, after replacing
    the dead and forking the missing."""
    for worker in list(_workers):
        try:
            alive = os.waitpid(worker.pid, os.WNOHANG) == (0, 0)
        except ChildProcessError:
            alive = False
        if not alive:
            _workers.remove(worker)
            worker.close()
    while len(_workers) < count:
        _workers.append(_fork())
    return _workers[:count]


def _stop_pool():
    """End every worker of this process's pool.  Runs at exit: a worker also
    ends when its task pipe does, but another forked process may hold an
    end of that pipe."""
    while _workers:
        _end(_workers.pop())


def _leave_pool():
    """In a forked child, a worker included: the pool is the parent's, so
    close the inherited pipe ends; a child that spreads forks its own."""
    global _lock
    while _workers:
        _workers.pop().close()
    _lock = threading.Lock()


atexit.register(_stop_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_leave_pool)


def _spread(work, items: Sequence) -> list:
    """``[work(item) for item in items]``, over P = min(len(items), usable
    CPUs) processes.

    Item i runs in process i mod P.  Process 0 is the caller; the others are
    persistent workers (:func:`_pool`), forked at the first spread of a
    process and ended at its exit, each sent one task per spread: ``work``,
    its items and its CPU.  A worker runs ``work`` as the modules were at its
    fork, so ``work`` must pickle: a module-level function, bound with
    :func:`functools.partial`.  Process i is pinned to the i-th usable CPU
    (a forked child tends to stay on its parent's CPU), and the caller's own
    affinity is restored on the way out.  A worker's exception is raised
    here once every worker has answered; when the caller raises, every
    worker still busy is killed and reaped, and the next spread forks its
    replacement.  Spreads from several threads take turns."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
    procs = min(len(items), len(cpus))
    if procs < 2:
        return [work(item) for item in items]
    tasks = [pickle.dumps((work, items[first::procs], cpus[first])) for first in range(1, procs)]
    with _lock:
        busy = []
        try:
            for worker, task in zip(_pool(procs - 1), tasks):
                busy.append(worker)
                _send(worker.tasks, task)
            os.sched_setaffinity(0, {cpus[0]})
            outcomes = [(True, [work(item) for item in items[::procs]])]
            while busy:
                outcomes.append(_receive(busy[0]))
                busy.pop(0)
        except BaseException:
            for worker in busy:
                _workers.remove(worker)
                _end(worker)
            raise
        finally:
            os.sched_setaffinity(0, cpus)
    for ok, value in outcomes:
        if not ok:  # a worker's exception, raised once every worker is idle
            raise value
    return [outcomes[i % procs][1][i // procs] for i in range(len(items))]


def _reduce_mean(chunks_fn, samples: int, workers: int, seed: int):
    """Run the per-chunk evaluator across worker substreams and merge the
    chunks in worker order.

    The substreams are spread over pinned processes (:func:`_spread`), so
    ``chunks_fn`` must pickle.  Squared deviations are summed about each
    chunk's own mean and the chunks merged pairwise in worker order (Chan,
    Golub & LeVeque 1979).  The merge reads only each chunk's (size, sum,
    squared deviation), so substreams evaluated in a worker give the same
    bits as evaluated here.  Fork is safe on this path and on
    :func:`verify_prop61`'s: a chunk is elementwise numpy plus small
    ``np.linalg.det`` calls, a Prop 6.1 trial is polynomial arithmetic plus
    small LAPACK inversions, and OpenBLAS re-creates its thread pool in the
    child through its ``pthread_atfork`` handlers.  Python 3.12 and later
    warn (``DeprecationWarning``) on a fork in a process that runs other
    threads; the warning is left visible."""
    if workers < 1:
        raise InvalidParameterError(f"need at least one worker, got {workers}")
    if samples < 1:
        raise InvalidParameterError(f"need at least one sample, got {samples}")
    if workers > samples:
        raise InvalidParameterError(
            f"need at most one worker per sample, got {workers} workers for {samples} samples")
    total = 0.0 + 0.0j
    sq_dev = 0.0
    count = 0
    substreams = list(zip(_substreams(seed, workers), _split_budget(samples, workers)))
    for chunks in _spread(functools.partial(_substream_chunks, chunks_fn), substreams):
        for m, chunk_sum, chunk_sq_dev in chunks:
            chunk_mean = chunk_sum / m
            sq_dev += chunk_sq_dev
            if count:
                sq_dev += abs(chunk_mean - total / count) ** 2 * count * m / (count + m)
            total += chunk_sum
            count += m
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


def _guard_poles(worst: Fraction, context: str):
    """Refuse an integral whose smallest denominator factor is near a pole."""
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


def _fractional_char(kappas: Sequence[Fraction]) -> tuple[Optional[list[int]], float]:
    """Character with a possibly fractional common det twist, as plain data
    for :func:`_char_values`: the integer Schur parts and the det exponent;
    a one-dimensional weight (all entries equal) has no parts, its character
    is the det power itself."""
    if len(set(kappas)) == 1:
        return None, float(kappas[0])
    tau = kappas[-1] - int(kappas[-1])
    parts = [k - tau for k in kappas]
    if any(p.denominator != 1 for p in parts):
        raise InvalidParameterError(f"weight entries not mutually congruent: {kappas}")
    return [int(p) for p in parts], float(tau)


def _char_values(char: tuple[Optional[list[int]], float], e: np.ndarray):
    """A :func:`_fractional_char` at the e-rows (N, m+1) of a positive
    spectrum (e_m is the determinant)."""
    parts, tau = char
    out = 1.0 if parts is None else schur_eval_batch(parts, e)
    if tau:
        out = out * e[:, -1] ** tau
    return out


def _pad_ones(e: np.ndarray, count: int) -> np.ndarray:
    """e-rows (N, m+1) of a spectrum extended by ``count`` eigenvalues 1: each
    multiplies the polynomial sum_k e_k t^k by (1 + t)."""
    for _ in range(count):
        e = np.concatenate([e, np.zeros((len(e), 1))], axis=1)
        e[:, 1:] = e[:, 1:] + e[:, :-1]
    return e


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
    w = (vecs[0, grid] ** 2).prod(axis=1)
    if m > 1:  # the squared Vandermonde; at m = 1 it is a product over no pairs
        i, j = np.triu_indices(m, 1)
        w = w * ((eig[:, i] - eig[:, j]) ** 2).prod(axis=1)
    volume = math.prod(weighted_ball_volume(big, exponent + m - 1 - r) for r in range(m))
    return eig, w * (volume / w.sum())


def _domain_integrand(p: int, q: int, chars: tuple, resid: float, dim: int,
                      e: np.ndarray) -> np.ndarray:
    """The domain integrand at the real e-rows ``e`` of the smaller gram,
    ``chars`` the two weights' :func:`_fractional_char`.  The grams
    1 - z z* (p x p) and 1 - z* z (q x q) share their spectrum up to
    eigenvalues 1.  The reciprocal spectrum has e_k = e_(m-k) / e_m, and
    each eigenvalue 1 multiplies the polynomial by (1 + t)."""
    m, big = min(p, q), max(p, q)
    det = e[:, m]
    recip = e[:, ::-1] / det[:, None]
    e_p, e_q = (recip, _pad_ones(e, big - m)) if p == m else (_pad_ones(recip, big - m), e)
    return _char_values(chars[0], e_p) * _char_values(chars[1], e_q) * det**resid / dim


def _domain_chunk(p: int, q: int, e_imp: float, integrand, rng: np.random.Generator,
                  size: int) -> np.ndarray:
    """One chunk of Monte Carlo samples of the domain integrand."""
    m, big = min(p, q), max(p, q)
    z, w = sample_domain(p, q, e_imp, rng, size=size)
    # the smaller gram, batch-last: entry (i, j) is delta_ij minus the
    # sum over k of zm[i, k] conj(zm[j, k]), zm = z or z*
    zm = z.transpose(1, 2, 0) if p == m else z.conj().transpose(2, 1, 0)
    gram = np.zeros((m, m, size), dtype=complex)
    gram[range(m), range(m)] = 1.0
    for k in range(big):
        gram -= zm[:, None, k] * zm[None, :, k].conj()
    # the gram is Hermitian, so its characteristic polynomial is real; the
    # sample is complex even when the integrand is real: the reduction's
    # |v - mean|^2 rounds differently on real arrays
    return (w * integrand(char_poly_batch(gram).real)).astype(complex, copy=False)


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
    s = _as_fraction(s)
    # one pass over both weights gives the closed value, the smallest
    # factor and both dimensions
    a, b, offsets, dk, di = _S_factors(p, q, kap, iot, s)
    closed = _S_value(p, q, s, a, b, offsets)
    t0 = time.perf_counter()
    if p == 0 or q == 0:  # zero-dimensional ball: the integral is the point mass
        est = Estimate(1.0 + 0j, 0.0, 0, seed, time.perf_counter() - t0)
        return VerifyReport("verify_S", est, closed, "PASS", 0.0, {"method": "degenerate"})
    worst = Fraction(a + min(offsets) * b, b)  # b > 0: the smallest factor
    _guard_poles(worst, "verify_S")

    m = min(p, q)
    e_imp = float(worst) - 1.0
    integrand = functools.partial(
        _domain_integrand, p, q, (_fractional_char(kap), _fractional_char(iot)),
        float(s - (p + q)) - e_imp, _weyl_count(dk) * _weyl_count(di))

    if method == "quad":
        def rule(degree):
            eig, w = quad(p, q, e_imp, degree)
            return float(np.real((w * integrand(elementary_batch(eig).real)).sum()))

        degree = int(max(kap) - min(kap) + max(iot) - min(iot))
        val = rule(degree)
        est = Estimate(val, abs(val - rule(degree + 2)), 0, seed, time.perf_counter() - t0)
        verdict, rel = _verdict(val, float(closed))
        return VerifyReport("verify_S", est, closed, verdict, rel,
                            {"method": "quad", "nodes": degree // 2 + m})

    chunk = functools.partial(_domain_chunk, p, q, e_imp, integrand)
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

    :func:`~arczeta.weights.closed_T` is :func:`~arczeta.weights.closed_S`
    on the (n, 1) ball at :func:`~arczeta.weights.T_arguments`, so this is
    :func:`verify_S` there, renamed.
    """
    _require_closed_form(theta)
    rep = verify_S(*T_arguments(theta), s, samples=samples, seed=seed, workers=workers,
                   method=method)
    return replace(rep, name="verify_T")


# ---------------------------------------------------------------------------
# the end-to-end group integral


def zeta_integrand_samples(theta: ThetaDatum, rng: np.random.Generator, size: int,
                           e_imp: float, coeff_eval: MatrixCoefficient,
                           flip_roots: bool = False) -> np.ndarray:
    """One chunk of importance-weighted samples of the group integrand.

    The sampled element is (z, diag(x, 1)); its root ratio, the principal
    root of det x as :func:`~arczeta.characters.psi_pi` takes it, is threaded
    through both genuine factors, so flipping every carried root
    (``flip_roots``) must leave each sample bit-identical.  No U(1) angle is
    drawn: the centre of K acts on the two factors by inverse characters.

    The chunk draws the ball point, then the Haar factor x, for the whole
    chunk; the arithmetic after them runs over blocks of ``group._BLOCK``
    samples, so each elementwise pass reads an L2-sized block.
    """
    n = theta.n
    u, dirs = sample_ball(n, e_imp, rng, size)
    x_all = haar_unitary(n, rng, size=size)  # (row, col, batch)
    sign = +1 if theta.case is Case.I else -1
    c_norm = weighted_ball_volume(n, e_imp)
    out = np.empty(size, dtype=complex)
    for b in _blocks(size):
        x = x_all[:, :, b]
        one_minus_u = 1.0 - u[b]
        # both ball blocks are I + (scale - 1) d d* on the sampled direction
        # d, so each product with x is the rank-one update
        # x + (scale - 1) d (d* x), built batch-last in one buffer that the
        # two blocks share
        d = np.ascontiguousarray(dirs[b].T)
        dx = d[0].conj() * x[0]
        for i in range(1, n):
            dx += d[i].conj() * x[i]
        block = np.empty_like(x)

        def rank_one_update(scale):
            np.multiply(d[:, None], dx[None], out=block)
            np.multiply(scale - 1.0, block, out=block)
            return np.add(block, x, out=block)

        # psi at theta_z k, whose positive roots have the ratio sqrt(1 - u);
        # the coefficient at b_z^(+-1) k
        sech = one_minus_u**0.5
        e_psi = char_poly_batch(rank_one_update(sech))
        # det of the psi block is e_n = sech det x with sech > 0, so det x has
        # the argument of e_n
        ratio_k = np.exp(0.5j * np.angle(e_psi[:, n]))
        if flip_roots:
            # flipping the carried root of the block determinant negates the
            # ratio; the two genuine factors consume opposite integer powers,
            # so every sample below must come out bit-identical
            ratio_k = -ratio_k
        psi = psi_batch(theta, e_psi, one_minus_u ** (-0.5), sech * ratio_k)
        bz_scale = one_minus_u ** (-0.5 * sign)
        coeff = coeff_eval.evaluate(rank_one_update(bz_scale), bz_scale, ratio_k)
        out[b] = c_norm * coeff * psi * one_minus_u ** (-0.5 * (n + 1) - e_imp)
    return out


def _zeta_chunk(theta: ThetaDatum, e_imp: float, coeff_eval: MatrixCoefficient,
                rng: np.random.Generator, size: int) -> np.ndarray:
    """:func:`zeta_integrand_samples` with the chunk's own arguments last, for
    :func:`functools.partial`."""
    return zeta_integrand_samples(theta, rng, size, e_imp, coeff_eval)


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
    worst = min(closed_T_factors(theta, s0))
    _guard_poles(worst, "verify_zeta")
    t0 = time.perf_counter()

    if method == "radial":
        norm2 = hwv_norm2(theta)
        target_float = float(closed) * norm2
        rep = verify_T(theta, s0, method="quad")
        dim = theta.dim_sigma
        val = rep.estimate.value * norm2 / dim
        est = Estimate(val, rep.estimate.stderr * norm2 / dim, 0, seed,
                       time.perf_counter() - t0)
        verdict, rel = _verdict(val, target_float)
        return VerifyReport("verify_zeta", est, closed, verdict, rel,
                            {"method": "radial", "phi_norm2": norm2, "nodes": rep.details["nodes"]})

    coeff_eval = MatrixCoefficient(theta)
    norm2 = coeff_eval.phi_norm2.real
    target_float = float(closed) * norm2
    e_imp = float(worst) - 1.0

    chunk = functools.partial(_zeta_chunk, theta, e_imp, coeff_eval)
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
        dim = theta.dim_sigma
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


def _prop61_trial(draw: tuple) -> float:
    """Relative disagreement of the two routes at one drawn trial."""
    theta, phi, t, x, y, xp, yp = draw
    k, kp = CoverElement.from_blocks(x, y), CoverElement.from_blocks(xp, yp)
    lhs = omega_matcoef_transform_route(kp, t, k, theta, phi)
    rhs = omega_matcoef(kp, t, k, theta, phi)
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


def verify_prop61(*, trials: int = 20, seed: int = 0) -> VerifyReport:
    """Substitution route versus transform route at random float (t, k, k'),
    so both run in complex floats on the one int-coefficient phi of each
    case; a trial fails above relative disagreement ``PROP61_TOL``.  phi is
    built once per case and keeps its minor factors, so both routes
    substitute the factors, not its expanded terms.

    The cases are every admissible parameter at n=1 up to 3 and the Case I
    parameters at n=2 up to 7/2.  Every draw is made first, case by case
    and trial by trial; the trials then run spread over pinned processes
    (:func:`_spread`) and are read back in order, so the report has the
    same bits whatever the process count.
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
    phis = [harmonic_hwv(theta) for theta in thetas]
    # per trial: the case, t, then the blocks and phase of k and of k'
    draws = [(theta, phi, float(rng.uniform(-1.5, 1.5)),
              haar_unitary(theta.n, rng), np.exp(2j * np.pi * rng.uniform()),
              haar_unitary(theta.n, rng), np.exp(2j * np.pi * rng.uniform()))
             for theta, phi in zip(thetas, phis) for _ in range(trials)]
    worst = 0.0
    failures = []
    for (theta, _, t, *_), rel in zip(draws, _spread(_prop61_trial, draws)):
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
        f = FockPoly(1, {exps: 1})
        a = omega_at((ch, sh), f)
        b = weil_transform_bruteforce((ch, sh), f)
        if not (a.poly == b.poly and a.prefactor == b.prefactor
                and a.tanh == b.tanh):
            bad.append(exps)
    est = Estimate(complex(total - len(bad)), 0.0, total, 0, time.perf_counter() - t0)
    return VerifyReport("verify_at", est, None, "PASS" if not bad else "FAIL",
                        0.0 if not bad else 1.0,
                        {"monomials": total, "mismatches": [list(b) for b in bad]})


def _schur_chunk(mu: list[int], rng: np.random.Generator, size: int) -> np.ndarray:
    """One chunk of |chi_mu|^2 at Haar-random unitaries."""
    chi = schur_eval_batch(mu, haar_char_rows(len(mu), rng, size))
    return (np.abs(chi) ** 2).astype(complex)


def verify_schur_orthogonality(weights: Sequence[Sequence[int]], *, samples: int = 200_000,
                               seed: int = 0, workers: int = 1) -> VerifyReport:
    """Monte Carlo check that each irreducible character has unit L2 norm on
    the compact group under exactly invariant sampling: each chunk draws the
    characteristic polynomials of Haar unitaries from their Verblunsky
    coefficients (:func:`~arczeta.group.haar_char_rows`), without a matrix."""
    if not weights:
        raise InvalidParameterError("verify_schur: need at least one weight")
    t0 = time.perf_counter()
    rows = []
    ok = True
    worst = 0.0
    for idx, mu in enumerate(weights):
        mu = list(mu)
        mean, stderr, count = _reduce_mean(functools.partial(_schur_chunk, mu), samples,
                                           workers, seed + idx)
        verdict, dev = _verdict(mean.real, 1.0, stderr)
        ok = ok and verdict == "PASS"
        worst = max(worst, dev)
        rows.append({"weight": mu, "mean": float(mean.real), "stderr": stderr,
                     "pass": verdict == "PASS", **_estimator_health(mean, stderr, count)})
    est = Estimate(complex(worst), 0.0, samples * len(weights), seed, time.perf_counter() - t0)
    return VerifyReport("verify_schur", est, None, "PASS" if ok else "FAIL", worst,
                        {"rows": rows})
