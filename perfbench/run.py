"""arczeta benchmark: one workload, measured for a fixed time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-sampling --seed 0 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout.  The run repeats
passes over the workload's ops while another pass fits in ``--seconds`` (at
least two passes, so that every Monte Carlo estimate is checked to repeat
bit for bit).  With ``--trace 0`` the last line of standard output reports the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it reports the per-layer metrics.  The line before it holds the run's
details: environment, per-op verdicts and estimator diagnostics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_CAP = 2
SETUP_PROBES = 3
MIN_PASSES = 2
PROBE_TIMEOUT_S = 60
READY = "perfbench-ready"


def _cap_threads() -> int:
    """Cap BLAS/OpenMP threads; must run before numpy is imported."""
    cap = min(BLAS_CAP, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def _import_library():
    if not (SRC / "arczeta" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no arczeta sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import arczeta

    if Path(arczeta.__file__).resolve().parent != SRC / "arczeta":
        raise SystemExit(f"perfbench: imported arczeta from {arczeta.__file__}, not {SRC}")


def _environment(cap: int) -> dict:
    import numpy
    import scipy

    import workloads

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_threads": cap,
        "workers": workloads.WORKERS,
    }


def _setup(workload_name: str, seed: int):
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.build(workload_name, seed, OUT_DIR)
    with contextlib.redirect_stdout(io.StringIO()):
        workloads.warm_up(wl, OUT_DIR)
    return wl


def _probe_setup(workload_name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
            "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            for line in proc.stdout:
                if line.strip() == READY:
                    elapsed = time.perf_counter() - start
                    break
            else:
                raise RuntimeError(f"set-up probe exited with {proc.wait()}")
        finally:
            proc.stdout.close()
            proc.wait(timeout=PROBE_TIMEOUT_S)
    return elapsed


@dataclass
class Record:
    op: object
    seconds: float
    ok: bool
    info: dict
    reference: float  # reference-kernel seconds around the op; 0 without a kernel


def _reference_kernel():
    """A fixed mix of interpreter, ``Fraction``, sparse-polynomial and
    small-batch LAPACK work, like the workloads' own mix.  ``wall_ref``
    divides each op's time by this kernel's time measured around it, which
    cancels most of the speed swings of a shared machine (they move both
    alike)."""
    import numpy as np

    rng = np.random.default_rng(0)
    blocks = rng.standard_normal((300, 3, 3)) + 1j * rng.standard_normal((300, 3, 3))
    poly = {(i, j): Fraction(i + 1, j + 2) for i in range(12) for j in range(12)}
    factor = list(poly.items())[:8]

    def run() -> float:
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 120):
            acc += Fraction(1, i)
        total = 0
        for i in range(15_000):
            total += i * i
        table = {}
        for i in range(3_000):
            table[i % 97, i % 13] = i
        product = {}
        for (a, b), c in poly.items():
            for (d, e), f in factor:
                key = (a + d, b + e)
                product[key] = product.get(key, 0) + c * f
        np.linalg.eigvals(blocks)
        np.linalg.qr(blocks)
        return time.perf_counter() - start

    return run


def _timed_run(op, idx: int, tracer):
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            with tracer.op_span(op.name, idx):
                result = op.run()
    except Exception as exc:  # one failed op must not end the run
        return None, time.perf_counter() - start, exc
    return result, time.perf_counter() - start, None


def _run_pass(wl, tracer=None, reference=None) -> list[Record]:
    """Run every op once.  With a ``reference`` kernel, each op's reference
    time is the mean of the kernel runs just before and just after it."""
    gc.collect()  # start every pass from the same heap state
    measure = reference or (lambda: 0.0)
    records = []
    with contextlib.redirect_stdout(io.StringIO()):
        ref_before = measure()
        for idx, op in enumerate(wl.ops):
            result, seconds, error = _timed_run(op, idx, tracer)
            ref_after = measure()
            if error is None:
                try:
                    ok, info = op.check(result)
                except Exception as exc:  # a gate that cannot read the result fails it
                    error = exc
            if error is not None:
                traceback.print_exception(error, file=sys.stderr)
                ok, info = False, {"error": repr(error)}
            records.append(Record(op, seconds, ok, info, (ref_before + ref_after) / 2))
            ref_before = ref_after
    return records


def _check_reproducible(passes: list[list[Record]]) -> None:
    """Every reproducible op must repeat its first pass's estimate exactly."""
    for records in passes[1:]:
        for first, rec in zip(passes[0], records):
            if rec.op.reproducible and rec.ok and first.ok:
                if rec.info.get("estimate") != first.info.get("estimate"):
                    rec.ok = False
                    rec.info["repro_mismatch"] = True


def _rate(records: list[Record], kind: str) -> float:
    """Work of the ops of one kind per second spent in them."""
    chosen = [r for r in records if r.op.kind == kind]
    seconds = sum(r.seconds for r in chosen)
    return sum(r.op.work for r in chosen) / seconds if seconds else 0.0


def _pass_wall(records: list[Record]) -> float:
    return sum(r.seconds for r in records)


def _pass_ref(records: list[Record]) -> float:
    """Pass time in reference-kernel units, each op against its own reference."""
    return sum(r.seconds / r.reference for r in records)


def _exact_rate(records: list[Record]) -> float:
    rows = sum(r.info.get("rows", 0) for r in records if r.op.kind == "table")
    seconds = sum(r.seconds for r in records if r.op.kind in ("table", "identity"))
    return rows / seconds if seconds else 0.0


def _measure(wl, seconds: float, tracer=None, reference=None):
    """Alternate untraced and (with a tracer) traced passes while another
    round still fits in ``seconds``, with at least MIN_PASSES of each."""
    untraced, traced, traces = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        untraced.append(_run_pass(wl, reference=reference))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(_run_pass(wl, tracer))
            finally:
                tracer.uninstall()
            traces.append((tracer.spans, dict(tracer.counts)))
        enough = min(len(untraced), len(traced) if tracer is not None else MIN_PASSES)
        now = time.perf_counter()
        if enough >= MIN_PASSES and now + (now - round_start) > deadline:
            return untraced, traced, traces


def _details(wl, env, passes: list[list[Record]]) -> dict:
    ops = []
    for idx, op in enumerate(wl.ops):
        recs = [p[idx] for p in passes]
        info = {k: v for k, v in recs[0].info.items() if k != "estimate"}
        ops.append({"op": op.name, "kind": op.kind, "ok": all(r.ok for r in recs),
                    "seconds": [round(r.seconds, 6) for r in recs],
                    "reference": [round(r.reference, 6) for r in recs], **info})
    return {"workload": wl.name, "environment": env, "inputs": wl.inputs,
            "passes": len(passes), "pass_seconds": [_pass_wall(p) for p in passes],
            "ops": ops}


# per-layer metric -> key of spans.layer_totals, where the two differ
_LAYER_SOURCES = {
    "weights.classify_calls": "weights.classify.spans",
    "exact.qqi_mul_calls": "exact.QQi.__mul__",
    "exact.pilaurent_mul_calls": "exact.PiLaurent.__mul__",
    "fock.hwv_calls": "fock.hwv.spans",
    "fock.coef_setup_calls": "fock.coef_setup.spans",
    "characters.schur_batch_calls": "characters.schur_batch.spans",
    "cli.calls": "cli.main.calls",
}


def _layer_metrics(untraced, traced, traces, workload_name, names) -> tuple[dict, list[str]]:
    import spans as tracing

    per_pass = [tracing.layer_totals(s, c) for s, c in traces]
    problems = []
    for totals in per_pass:
        problems += [f"not called: {name}" for name in tracing.coverage_gaps(totals, workload_name)]
    counts = [{k: v for k, v in t.items() if not k.endswith(("_s", "_ns"))} for t in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("counts differ between traced passes")

    def med(key):
        return median([t.get(key, 0.0) for t in per_pass])

    metrics = {name: med(_LAYER_SOURCES.get(name, name)) for name in names}
    samples = metrics["verify.samples"]
    metrics["verify.us_per_sample"] = med("verify.mc_ns") / 1e3 / samples if samples else 0.0
    metrics.update({
        "wall_s": median([_pass_wall(p) for p in untraced]),
        "trace.overhead_s": (median([_pass_wall(p) for p in traced])
                             - median([_pass_wall(p) for p in untraced])),
        "zeta_mc_samples_per_s": median([_rate(p, "zeta_mc") for p in untraced]),
        "schur_samples_per_s": median([_rate(p, "schur") for p in untraced]),
        "exact_params_per_s": median([_exact_rate(p) for p in untraced]),
        "radial_verdicts_per_s": median([_rate(p, "zeta_radial") for p in untraced]),
    })
    return metrics, problems


def _write_spans(workload_name, seed, traces) -> None:
    path = OUT_DIR / f"spans-{workload_name}-{seed}.json.gz"
    doc = {"fields": ["name", "start_ns", "end_ns", "parent", "op"],
           "passes": [{"spans": s, "counts": c} for s, c in traces]}
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["mc-sampling", "coef-setup", "exact-quad"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print a ready line and exit (used to time set-up)")
    args = parser.parse_args(argv)

    cap = _cap_threads()
    _import_library()
    if args.setup_probe:
        _setup(args.workload, args.seed)
        print(READY, flush=True)
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    setup_s = None
    if not args.trace:
        setup_s = median([_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)])
    wl = _setup(args.workload, args.seed)
    env = _environment(cap)

    tracer = reference = None
    if args.trace:
        import spans as tracing

        tracer = tracing.Tracer()
    else:
        reference = _reference_kernel()
    untraced, traced, traces = _measure(wl, args.seconds, tracer, reference)
    _check_reproducible(untraced + traced)
    passes = untraced + traced
    attempted = sum(len(p) for p in passes)
    failed = sum(not r.ok for p in passes for r in p)

    if args.trace:
        names = [m["name"] for m in declared["per_layer"]]
        metrics, problems = _layer_metrics(untraced, traced, traces, wl.name, names)
        for problem in problems:
            print(f"perfbench: trace check failed: {problem}", file=sys.stderr)
        attempted += 1
        failed += bool(problems)
        metrics["failed_ratio"] = failed / attempted
        _write_spans(wl.name, args.seed, traces)
    else:
        names = [m["name"] for m in declared["end_to_end"]]
        metrics = {
            "setup_s": setup_s,
            "wall_ref": median([_pass_ref(p) for p in untraced]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    if sorted(metrics) != sorted(names):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json")

    details = _details(wl, env, passes)
    details["failed_ratio"] = failed / attempted
    print(json.dumps(details))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in names},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
