"""Batch command-line front end.

Subcommands cover classification, closed-form tables, and the verification
suites; machine-readable reports are emitted as JSON (validating against the
shipped schema) or CSV for tables.  Exit codes: 0 pass, 1 numerical failure,
2 invalid input, 3 inadmissible parameter.

The default seed of a verb that takes ``--seed`` comes from ``ARCZETA_SEED``
when set; a seed below 0 or a variable that is not an integer is invalid
input.  Other verbs draw nothing and do not read the variable.

One parser reads every verb.  It is built on the first call and reused for
the rest of the process: argparse makes a help formatter for every argument
it adds, so building it costs far more than a parse, and a parser holds no
state between calls.
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib.resources
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
    parse_fraction,
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
        "first": [str(v) for v in pair.first],
        "second": [str(v) for v in pair.second],
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
    import jsonschema

    schema = json.loads(importlib.resources.files("arczeta").joinpath("report_schema.json").read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_report(doc: dict) -> None:
    """Validate a report against the shipped schema (needs jsonschema)."""
    from jsonschema.exceptions import best_match

    error = best_match(_report_validator().iter_errors(doc))
    if error is not None:
        raise error


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is invalid input."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        _write(out_path, text + "\n")
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
            "dim": theta.dim_sigma,
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


def _fraction(text: str) -> Fraction:
    """A fraction option value; a malformed one, or one with a zero
    denominator, is invalid input."""
    try:
        return parse_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"cannot parse {text!r} as a fraction: {exc}") from None


def _parse_fraction_list(text: str) -> list[Fraction]:
    return [_fraction(part) for part in text.split(",")]


# Each verb has a function that adds its arguments to its subparser and a
# handler that returns (report, passed); the CSV table prints itself and
# returns no report.

def _add_common(sub):
    sub.add_argument("--out", default=None, help="write the JSON report here")
    sub.add_argument("--samples", type=int, default=1_000_000)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--workers", type=int, default=1,
                     help="substreams the sample budget is split into; the estimate depends on (seed, workers) only; two or more substreams run in parallel, in this process and persistent worker processes, at most one per usable CPU")


def _classify_args(sub):
    sub.add_argument("--lambda", dest="lam", required=True,
                     help="comma list of half-integers, e.g. 3/2,1/2")
    sub.add_argument("--out", default=None)


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
            "dim": theta.dim_sigma,
            "nonstandard_congruence": theta.nonstandard_congruence,
        },
        wall_time=time.perf_counter() - t0,
    )
    return doc, True


def _table_args(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--max-entry", default="15/2")
    sub.add_argument("--format", choices=["json", "csv"], default="json")
    sub.add_argument("--out", default=None)


def _table(args, seed, samples):
    rows = table_rows(args.n, _fraction(args.max_entry))
    if not rows:
        raise InvalidParameterError(f"the sweep at --max-entry {args.max_entry} is empty")
    if args.format == "json":
        return build_report("table", verdict="PASS", extra={"rows": rows}), True
    text = table_to_csv(rows)
    if args.out:
        _write(args.out, text)
        print(f"table: {len(rows)} rows -> {args.out}")
    else:
        print(text, end="")
    return None, True


def _verify_s_args(sub):
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--q", type=int, required=True)
    sub.add_argument("--kappa", required=True, help="comma list (length p)")
    sub.add_argument("--iota", required=True, help="comma list (length q)")
    sub.add_argument("--s", required=True)
    sub.add_argument("--method", choices=["quad", "mc"], default="quad")
    _add_common(sub)


def _verify_s(args, seed, samples):
    rep = verify_S(args.p, args.q, _parse_fraction_list(args.kappa),
                   _parse_fraction_list(args.iota), _fraction(args.s),
                   samples=samples, seed=seed, workers=args.workers,
                   method=args.method)
    return build_report("verify-s", report=rep), rep.passed


def _verify_t_args(sub):
    sub.add_argument("--lambda", dest="lam", required=True)
    sub.add_argument("--s", required=True)
    sub.add_argument("--method", choices=["quad", "mc"], default="quad")
    _add_common(sub)


def _verify_t(args, seed, samples):
    lam = HCParameter.parse(args.lam)
    theta = classify_theta(lam)
    rep = verify_T(theta, _fraction(args.s), samples=samples, seed=seed,
                   workers=args.workers, method=args.method)
    return build_report("verify-t", lam=lam, theta=theta, report=rep), rep.passed


def _verify_zeta_args(sub):
    sub.add_argument("--lambda", dest="lam", required=True)
    sub.add_argument("--method", choices=["mc", "radial"], default="mc")
    _add_common(sub)


def _verify_zeta(args, seed, samples):
    lam = HCParameter.parse(args.lam)
    theta = classify_theta(lam)
    rep = verify_zeta(theta, samples=samples, seed=seed,
                      workers=args.workers, method=args.method)
    return build_report("verify-zeta", lam=lam, theta=theta, report=rep), rep.passed


def _verify_prop61_args(sub):
    sub.add_argument("--trials", type=int, default=20)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default=None)


def _verify_prop61(args, seed, samples):
    rep = verify_prop61(trials=args.trials, seed=seed)
    return build_report("verify-prop61", report=rep), rep.passed


def _verify_at_args(sub):
    sub.add_argument("--max-degree", type=int, default=4)
    sub.add_argument("--out", default=None)


def _verify_at(args, seed, samples):
    rep = verify_at_lemma(max_degree=args.max_degree)
    return build_report("verify-at", report=rep), rep.passed


def _verify_schur_args(sub):
    sub.add_argument("--weights", default="1,0;2,1;2,2;1,0,0;2,1,0",
                     help="semicolon-separated weight lists")
    _add_common(sub)


def _verify_schur(args, seed, samples):
    weights = [[int(x) for x in w.split(",")] for w in args.weights.split(";")]
    rep = verify_schur_orthogonality(weights, samples=samples, seed=seed,
                                     workers=args.workers)
    return build_report("verify-schur", report=rep), rep.passed


def _verify_fd_args(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--max-entry", default="9/2")
    sub.add_argument("--count", type=int, default=5)
    sub.add_argument("--out", default=None)


def _verify_fd(args, seed, samples):
    if args.count < 1:
        raise InvalidParameterError(f"need --count >= 1, got {args.count}")
    lams = admissible_sweep(args.n, _fraction(args.max_entry))
    if len(lams) < args.count:
        raise InvalidParameterError(
            f"sweep produced {len(lams)} parameters; need {args.count} "
            "(increase --max-entry)"
        )
    rep = verify_formal_degree(lams[: args.count])
    return build_report("verify-fd", report=rep), rep.passed


# verb -> (help line, its arguments, its handler), in the order --help lists them
_VERBS = {
    "classify": ("classify a parameter and print its data", _classify_args, _classify),
    "table": ("closed-form table over an admissible sweep", _table_args, _table),
    "verify-s": ("scalar domain integral vs closed form", _verify_s_args, _verify_s),
    "verify-t": ("endomorphism scalar vs closed form", _verify_t_args, _verify_t),
    "verify-zeta": ("end-to-end group integral vs closed form", _verify_zeta_args,
                    _verify_zeta),
    "verify-prop61": ("two evaluation routes of the compact matrix coefficient",
                      _verify_prop61_args, _verify_prop61),
    "verify-at": ("hyperbolic transform vs brute-force kernel (exact)", _verify_at_args,
                  _verify_at),
    "verify-schur": ("character L2 norms over Haar characteristic polynomials",
                     _verify_schur_args, _verify_schur),
    "verify-fd": ("formal-degree proportionality (exact)", _verify_fd_args, _verify_fd),
}


def make_parser() -> argparse.ArgumentParser:
    """The parser of every verb; its errors name the verb argument ``command``."""
    parser = argparse.ArgumentParser(
        prog="arczeta",
        description="closed forms and cross-verified integrals for rank-one unitary groups",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in _VERBS.items():
        add_arguments(subs.add_parser(name, help=help_line))
    return parser


_parser = functools.cache(make_parser)


def _seed(args) -> int | None:
    """The seed of a verb that takes ``--seed``: the option, else
    ``ARCZETA_SEED``, else 0; a seed that is not an integer >= 0 is invalid
    input, named by its source.  A verb without ``--seed`` draws nothing and
    reads no seed."""
    if not hasattr(args, "seed"):
        return None
    source, seed = "--seed", args.seed
    if seed is None:
        source, text = "ARCZETA_SEED", os.environ.get("ARCZETA_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise InvalidParameterError(
                f"{source} must be an integer >= 0, got {text!r}") from None
    if seed < 0:
        raise InvalidParameterError(f"{source} must be an integer >= 0, got {seed}")
    return seed


def _run(args) -> int:
    seed = _seed(args)
    samples = getattr(args, "samples", None)
    # the floor binds only where samples are drawn: Monte Carlo methods and
    # verify-schur, which has no method; quadrature and radial ignore samples
    statistical = samples is not None and getattr(args, "method", "mc") == "mc"
    if statistical and samples < MIN_STATISTICAL_SAMPLES:
        raise InvalidParameterError(
            f"statistical commands need samples >= {MIN_STATISTICAL_SAMPLES}"
        )
    _, _, handler = _VERBS[args.command]
    doc, passed = handler(args, seed, samples)
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
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(argv)
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
