"""Span recorder for traced benchmark passes.

The recorder rebinds library functions from outside the library: every
module attribute (or class attribute) of ``arczeta`` that holds one of the
target functions is replaced by a wrapper for the duration of a traced pass
and restored afterwards.  Each call records a span ``[name, start_ns, end_ns,
parent, op]`` in memory; counts are taken at the same boundaries.  A layer's
time is the self time of its spans: the span's duration minus the union of
the intervals its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

MODULES = ("weights", "exact", "group", "characters", "fock", "verify", "cli")


def _haar_count(args, kwargs, result, ns):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    return {"group.haar_matrices": 1 if size is None else int(size)}


def _rows(metric):
    return lambda args, kwargs, result, ns: {metric: int(result.shape[0])}


def _coef_terms(args, kwargs, result, ns):
    # the compiled evaluator keeps its term table in ``_coeffs``; an evaluator
    # without one reports zero terms
    return {"fock.coef_terms": len(getattr(args[0], "_coeffs", ()))}


def _sweep_size(args, kwargs, result, ns):
    return {"weights.params_enumerated": len(result)}


def _mc_samples(args, kwargs, result, ns):
    """Samples and inclusive time of Monte Carlo verifications."""
    if result.details.get("method") == "mc" or result.name == "verify_schur":
        return {"verify.samples": result.estimate.samples, "verify.mc_ns": ns}
    return {}


@dataclass(frozen=True)
class Target:
    """One wrapped library function.

    ``home`` is the workload on which the function carries load, where the
    coverage check requires it to be called at least once.
    """

    module: str
    attr: str  # "func" or "Class.method"
    layer: str  # stem of the per-layer metrics it feeds
    home: str
    count: Optional[Callable] = None
    spans: bool = True  # False: count calls only (hot arithmetic operators)

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


_CLOSED_FORMS = ("zeta_closed", "closed_S", "closed_T", "c_squared", "closed_S_factors",
                 "closed_T_factors", "weyl_dim", "formal_degree_product")
_VERIFY = (("verify_S", "exact-quad", _mc_samples), ("verify_T", "exact-quad", _mc_samples),
           ("verify_zeta", "coef-setup", _mc_samples), ("verify_formal_degree", "exact-quad", None),
           ("verify_prop61", "mc-sampling", None), ("verify_at_lemma", "exact-quad", None),
           ("verify_schur_orthogonality", "mc-sampling", _mc_samples),
           ("zeta_integrand_samples", "mc-sampling", None))

TARGETS = (
    Target("weights", "admissible_sweep", "weights.admissible_sweep", "exact-quad", _sweep_size),
    Target("weights", "classify_theta", "weights.classify", "exact-quad"),
    *(Target("weights", f, "weights.closed_forms", "exact-quad") for f in _CLOSED_FORMS),
    Target("exact", "QQi.__mul__", "exact.qqi_mul", "exact-quad", spans=False),
    Target("exact", "PiLaurent.__mul__", "exact.pilaurent_mul", "exact-quad", spans=False),
    Target("fock", "harmonic_hwv", "fock.hwv", "exact-quad"),
    Target("fock", "bargmann_inner", "fock.inner", "exact-quad"),
    Target("fock", "MatrixCoefficient.__init__", "fock.coef_setup", "coef-setup", _coef_terms),
    Target("fock", "MatrixCoefficient.evaluate", "fock.coef_eval", "mc-sampling",
           _rows("fock.coef_eval_rows")),
    Target("fock", "omega_at", "fock.transform", "exact-quad"),
    Target("fock", "weil_transform_bruteforce", "fock.transform", "exact-quad"),
    Target("fock", "omega_matcoef", "fock.routes", "mc-sampling"),
    Target("fock", "omega_matcoef_transform_route", "fock.routes", "mc-sampling"),
    Target("group", "haar_unitary", "group.haar", "mc-sampling", _haar_count),
    Target("characters", "schur_eval_batch", "characters.schur_batch", "mc-sampling",
           _rows("characters.schur_rows")),
    *(Target("verify", f, "verify.self", home, count) for f, home, count in _VERIFY),
    Target("verify", "quad", "verify.quad", "exact-quad"),
    Target("cli", "main", "cli.report", "exact-quad"),
    Target("cli", "build_report", "cli.report", "exact-quad"),
    Target("cli", "table_rows", "cli.report", "exact-quad"),
)


class Tracer:
    """Collects spans and counts between :meth:`install` and :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def reset(self):
        """Drop recorded spans and counts (wrappers stay bound to this tracer)."""
        self.spans = []
        self.counts = defaultdict(int)
        self._stack.clear()

    @contextlib.contextmanager
    def op_span(self, name: str, op: int):
        """Root span of one benchmark op; library spans inside it nest under it."""
        self.op = op
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, -1, op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()
            self.op = None

    def _span_wrapper(self, target: Target, fn):
        name, count = target.name, target.count
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count is not None:
                ns = spans[idx][2] - spans[idx][1]
                for key, value in count(args, kwargs, result, ns).items():
                    self.counts[key] += value
            return result

        return traced

    def _count_wrapper(self, target: Target, fn):
        key = target.name

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Rebind every target wherever an ``arczeta`` module or class holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module(f"arczeta.{m}") for m in MODULES]
        for target in TARGETS:
            home = importlib.import_module(f"arczeta.{target.module}")
            owner_name, _, attr = target.attr.rpartition(".")
            make = self._span_wrapper if target.spans else self._count_wrapper
            if owner_name:
                owner = getattr(home, owner_name)
                original = owner.__dict__[attr]
                wrapper = make(target, original)
                # aliases such as ``__rmul__ = __mul__`` are rebound too
                places = [(owner, a) for a, v in vars(owner).items() if v is original]
            else:
                original = getattr(home, attr)
                wrapper = make(target, original)
                places = [(m, a) for m in mods for a, v in vars(m).items() if v is original]
            for place, a in places:
                self._saved.append((place, a, original))
                setattr(place, a, wrapper)

    def uninstall(self):
        for place, attr, original in reversed(self._saved):
            setattr(place, attr, original)
        self._saved = []


def self_times(spans: list[list]) -> list[int]:
    """Self time of every span: its duration minus the union of the
    intervals covered by its direct children (clipped to the span)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, op) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def layer_totals(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer self seconds (``<layer>_s``), span counts per layer
    (``<layer>.spans``) and per function (``<name>.calls``), and the counters."""
    layer_of = {t.name: t.layer for t in TARGETS}
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        layer = layer_of.get(span[0])
        if layer is None:
            continue
        out[f"{layer}_s"] += own / 1e9
        out[f"{layer}.spans"] += 1
        out[f"{span[0]}.calls"] += 1
    for key, value in counts.items():
        out[key] += value
        if key in layer_of:
            out[f"{key}.calls"] += value
    return dict(out)


def coverage_gaps(totals: dict[str, float], workload: str) -> list[str]:
    """Targets whose home is ``workload`` but that were never called."""
    return [t.name for t in TARGETS if t.home == workload and not totals.get(f"{t.name}.calls")]
