"""Batch command-line front end.

Subcommands cover classification, closed-form tables, and the verification
suites; machine-readable reports are emitted as JSON (validating against the
shipped schema) or CSV for tables.  Exit codes: 0 pass, 1 numerical failure,
2 invalid input, 3 inadmissible parameter.

The default seed comes from ``ARCZETA_SEED`` when set.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction

from .errors import (
    ConvergenceError,
    InadmissibleParameterError,
    InvalidParameterError,
    PoleError,
)
from .verify import (
    VerifyReport,
    verify_at_lemma,
    verify_formal_degree,
    verify_prop61,
    verify_S,
    verify_schur_orthogonality,
    verify_T,
    verify_zeta,
)
from .weights import (
    ClosedValue,
    HCParameter,
    ThetaDatum,
    admissible_sweep,
    c_squared,
    classify_theta,
    formal_degree_product,
    weyl_dim,
    zeta_closed,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_INADMISSIBLE = 3

MIN_STATISTICAL_SAMPLES = 10_000

# an option value such as -1/2,-5/2 or -1 (not an option name)
NEGATIVE_VALUE = re.compile(r"^-\d[\d/,.\-]*$")

TABLE_FIELDS = [
    "lambda", "case", "p", "q", "c2", "zeta_rational", "zeta_pi_exp",
    "zeta_float", "dim", "formal_degree_product",
]


def _pair_dict(pair) -> dict:
    return {
        "first": [str(Fraction(v)) for v in pair.first],
        "second": [str(Fraction(v)) for v in pair.second],
    }


def _closed_dict(cv: ClosedValue) -> dict:
    return {"rational": str(cv.rational), "pi_exp": cv.pi_exp, "float": float(cv)}


def build_report(command: str, *, lam: HCParameter | None = None,
                 theta: ThetaDatum | None = None, closed: ClosedValue | None = None,
                 report: VerifyReport | None = None, verdict: str | None = None,
                 extra: dict | None = None, wall_time: float = 0.0) -> dict:
    out = {
        "command": command,
        "lambda": [str(e) for e in lam.entries] if lam is not None else None,
        "case": theta.case.value if theta is not None else None,
        "p": theta.p if theta is not None else None,
        "q": theta.q if theta is not None else None,
        "weights": None,
        "closed": _closed_dict(closed) if closed is not None else None,
        "estimate": None,
        "extra": extra or {},
        "verdict": verdict,
        "wall_time": wall_time,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if theta is not None:
        out["weights"] = {
            "Lambda": _pair_dict(theta.Lambda),
            "LambdaDual": _pair_dict(theta.LambdaDual),
            "LambdaPrime": _pair_dict(theta.LambdaPrime),
        }
    if report is not None:
        est = report.estimate
        out["estimate"] = {
            "value": [est.value.real, est.value.imag] if est.value is not None else None,
            "stderr": est.stderr,
            "samples": est.samples,
            "seed": est.seed,
        }
        out["verdict"] = report.verdict
        if report.closed is not None and closed is None:
            out["closed"] = _closed_dict(report.closed)
        out["extra"].update(report.details)
        out["extra"]["rel_err"] = report.rel_err
        out["wall_time"] = est.wall_time
    return out


@functools.cache
def _report_validator():
    """The shipped schema's validator, the schema itself checked once."""
    import importlib.resources as res

    import jsonschema

    schema = json.loads(res.files("arczeta").joinpath("report_schema.json").read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_report(doc: dict) -> None:
    """Validate a report against the shipped schema (needs jsonschema)."""
    from jsonschema.exceptions import best_match

    error = best_match(_report_validator().iter_errors(doc))
    if error is not None:
        raise error


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
        print(f"{doc['command']}: {doc.get('verdict')} -> {out_path}")
    else:
        print(text)


def table_rows(n: int, max_entry: Fraction) -> list[dict]:
    rows = []
    for lam in admissible_sweep(n, max_entry):
        theta = classify_theta(lam)
        zc = zeta_closed(theta)
        rows.append({
            "lambda": str(lam),
            "case": theta.case.value,
            "p": theta.p,
            "q": theta.q,
            "c2": str(c_squared(theta)),
            "zeta_rational": str(zc.rational),
            "zeta_pi_exp": zc.pi_exp,
            "zeta_float": float(zc),
            "dim": weyl_dim(lam),
            "formal_degree_product": str(formal_degree_product(lam)),
        })
    return rows


def table_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=TABLE_FIELDS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _add_common(sub):
    sub.add_argument("--out", default=None, help="write the JSON report here")
    sub.add_argument("--samples", type=int, default=1_000_000)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--workers", type=int, default=1)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arczeta",
        description="closed forms and cross-verified integrals for rank-one unitary groups",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sc = subs.add_parser("classify", help="classify a parameter and print its data")
    sc.add_argument("--lambda", dest="lam", required=True,
                    help="comma list of half-integers, e.g. 3/2,1/2")
    sc.add_argument("--out", default=None)

    st = subs.add_parser("table", help="closed-form table over an admissible sweep")
    st.add_argument("--n", type=int, required=True)
    st.add_argument("--max-entry", default="15/2")
    st.add_argument("--format", choices=["json", "csv"], default="json")
    st.add_argument("--out", default=None)

    ss = subs.add_parser("verify-s", help="scalar domain integral vs closed form")
    ss.add_argument("--p", type=int, required=True)
    ss.add_argument("--q", type=int, required=True)
    ss.add_argument("--kappa", required=True, help="comma list (length p)")
    ss.add_argument("--iota", required=True, help="comma list (length q)")
    ss.add_argument("--s", required=True)
    ss.add_argument("--method", choices=["quad", "mc"], default="quad")
    _add_common(ss)

    stt = subs.add_parser("verify-t", help="endomorphism scalar vs closed form")
    stt.add_argument("--lambda", dest="lam", required=True)
    stt.add_argument("--s", required=True)
    stt.add_argument("--method", choices=["quad", "mc"], default="quad")
    _add_common(stt)

    sz = subs.add_parser("verify-zeta", help="end-to-end group integral vs closed form")
    sz.add_argument("--lambda", dest="lam", required=True)
    sz.add_argument("--method", choices=["mc", "radial"], default="mc")
    _add_common(sz)

    sp = subs.add_parser("verify-prop61", help="two evaluation routes of the compact matrix coefficient")
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)

    sa = subs.add_parser("verify-at", help="hyperbolic transform vs brute-force kernel (exact)")
    sa.add_argument("--max-degree", type=int, default=4)
    sa.add_argument("--out", default=None)

    so = subs.add_parser("verify-schur", help="character orthogonality by Haar sampling")
    so.add_argument("--weights", default="1,0;2,1;2,2;1,0,0;2,1,0",
                    help="semicolon-separated weight lists")
    _add_common(so)

    sf = subs.add_parser("verify-fd", help="formal-degree proportionality (exact)")
    sf.add_argument("--n", type=int, required=True)
    sf.add_argument("--max-entry", default="9/2")
    sf.add_argument("--count", type=int, default=5)
    sf.add_argument("--out", default=None)
    return parser


def _parse_fraction_list(text: str) -> list[Fraction]:
    return [Fraction(part.strip()) for part in text.split(",")]


def _classify(args, seed, samples):
    t0 = time.perf_counter()
    lam = HCParameter.parse(args.lam)
    theta = classify_theta(lam)
    doc = build_report(
        "classify", lam=lam, theta=theta, closed=zeta_closed(theta), verdict="PASS",
        extra={
            "gamma": str(theta.gamma),
            "alphas": [str(a) for a in theta.alphas],
            "betas": [str(b) for b in theta.betas],
            "c2": str(c_squared(theta)),
            "dim": weyl_dim(lam),
            "nonstandard_congruence": theta.nonstandard_congruence,
        },
        wall_time=time.perf_counter() - t0,
    )
    return doc, True


def _table(args, seed, samples):
    rows = table_rows(args.n, Fraction(args.max_entry))
    if args.format == "json":
        return build_report("table", verdict="PASS", extra={"rows": rows}), True
    text = table_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"table: {len(rows)} rows -> {args.out}")
    else:
        print(text, end="")
    return None, True


def _verify_s(args, seed, samples):
    rep = verify_S(args.p, args.q, _parse_fraction_list(args.kappa),
                   _parse_fraction_list(args.iota), Fraction(args.s),
                   samples=samples, seed=seed, workers=args.workers,
                   method=args.method)
    return build_report("verify-s", report=rep), rep.passed


def _verify_t(args, seed, samples):
    lam = HCParameter.parse(args.lam)
    theta = classify_theta(lam)
    rep = verify_T(theta, Fraction(args.s), samples=samples, seed=seed,
                   workers=args.workers, method=args.method)
    return build_report("verify-t", lam=lam, theta=theta, report=rep), rep.passed


def _verify_zeta(args, seed, samples):
    lam = HCParameter.parse(args.lam)
    theta = classify_theta(lam)
    rep = verify_zeta(theta, samples=samples, seed=seed,
                      workers=args.workers, method=args.method)
    return build_report("verify-zeta", lam=lam, theta=theta, report=rep), rep.passed


def _verify_prop61(args, seed, samples):
    rep = verify_prop61(trials=args.trials, seed=seed)
    return build_report("verify-prop61", report=rep), rep.passed


def _verify_at(args, seed, samples):
    rep = verify_at_lemma(max_degree=args.max_degree)
    return build_report("verify-at", report=rep), rep.passed


def _verify_schur(args, seed, samples):
    weights = [[int(x) for x in w.split(",")] for w in args.weights.split(";")]
    rep = verify_schur_orthogonality(weights, samples=samples, seed=seed,
                                     workers=args.workers)
    return build_report("verify-schur", report=rep), rep.passed


def _verify_fd(args, seed, samples):
    if args.count < 1:
        raise InvalidParameterError(f"need --count >= 1, got {args.count}")
    lams = admissible_sweep(args.n, Fraction(args.max_entry))
    if len(lams) < args.count:
        raise InvalidParameterError(
            f"sweep produced {len(lams)} parameters; need {args.count} "
            "(increase --max-entry)"
        )
    rep = verify_formal_degree(lams[: args.count])
    return build_report("verify-fd", report=rep), rep.passed


# each handler returns (report, passed); the CSV table prints itself and returns no report
_COMMANDS = {
    "classify": _classify,
    "table": _table,
    "verify-s": _verify_s,
    "verify-t": _verify_t,
    "verify-zeta": _verify_zeta,
    "verify-prop61": _verify_prop61,
    "verify-at": _verify_at,
    "verify-schur": _verify_schur,
    "verify-fd": _verify_fd,
}


def _run(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = int(os.environ.get("ARCZETA_SEED", "0"))
    samples = getattr(args, "samples", None)
    if samples is not None and samples < MIN_STATISTICAL_SAMPLES:
        raise InvalidParameterError(
            f"statistical commands need samples >= {MIN_STATISTICAL_SAMPLES}"
        )
    doc, passed = _COMMANDS[args.command](args, seed, samples)
    if doc is not None:
        _emit(doc, args.out)
    return EXIT_PASS if passed else EXIT_FAIL


def _join_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--opt -1/2,-5/2`` as ``--opt=-1/2,-5/2``, so that a negative
    value is read as the option's argument rather than as an option."""
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and NEGATIVE_VALUE.match(tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = make_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(_join_negative_values(argv))
    try:
        return _run(args)
    except InadmissibleParameterError as exc:
        print(f"inadmissible parameter: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (InvalidParameterError, PoleError, ConvergenceError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
