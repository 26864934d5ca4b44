"""The benchmark workloads: their ops, inputs and correctness gates.

Every op calls the library through a public entry point: ``arczeta.cli.main``
for the command-line verbs, ``arczeta.weights`` and ``arczeta.verify``
functions for the exact identities and the Schur check.  An op's ``run`` is
the timed part; its ``check`` runs outside the timed span, reads the report
back from ``--out``, validates it against the shipped report schema and
applies the gate of the op's kind:

* Monte Carlo: the library's own verdict is PASS;
* radial and quadrature: PASS and ``rel_err <= 1e-8``;
* exact identities: equality with zero tolerance.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from arczeta import cli, verify, weights

WORKERS = 2
# Monte Carlo streams are fixed per op, as in the acceptance suite: a stream
# drawn from the workload seed would meet the 3-sigma rule's designed false
# alarm rate (0.27% per real-variance row, about 3% per mc-sampling pass).
# The workload seed orders the ops and seeds the prop61 draws and the radial
# subset instead.
MC_SEED = 1000
QUAD_REL_TOL = 1e-8
DEGENERATE_RELSTD = 1e-12
MAX_ENTRY = "15/2"

# mc-sampling: the zeta parameters of criterion 9 plus three with real
# per-sample variance (relstd 1.3-3.1), so the 3-sigma gate is exercised
MC_ZETA = ("3/2,1/2", "5/2,3/2,1/2", "7/2,3/2,1/2", "1/2,-7/2,-9/2", "3/2,1/2,-5/2,-9/2")
MC_ZETA_SAMPLES = 100_000
# the criterion-8 weights of ranks 2 and 3, one op each, except (2,2): its
# character is det^2, so |chi|^2 is identically 1 and the library's rule (no
# floor under 3 stderr) fails it on rounding noise at a seed-dependent rate
SCHUR_WEIGHTS = ((1, 0), (2, 1), (2, 0), (3, 1),
                 (1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 2, 1), (3, 1, 0))
SCHUR_SAMPLES = 50_000
# min(p, q) = 2 routes verify_S through the box rejection sampler
S_MC = ("2", "2", "-1,-1", "1,1", "4")
S_MC_SAMPLES = 100_000
PROP61_TRIALS = 20

# coef-setup: n = 3 Case I parameters of rising degree; setup of the matrix
# coefficient grows from about 0.1 s to 2.5 s across them
SETUP_ZETA = ("7/2,5/2,3/2,1/2", "9/2,5/2,3/2,1/2", "9/2,7/2,3/2,1/2", "11/2,7/2,3/2,1/2",
              "9/2,7/2,5/2,1/2")
SETUP_ZETA_SAMPLES = 10_000

# exact-quad: radial verdicts drawn by seed from bands of the cost proxy
# (lo, hi, picks), plus a fixed set from a costly band; a seeded pick from a
# costly band would swing the pass time by more than the metric bounds
RADIAL_BANDS = ((1, 10, 16), (10, 100, 8), (100, 300, 8))
RADIAL_FIXED = (1000, 3000, 4)
FD_SWEEPS = ((1, Fraction(4)), (2, Fraction(11, 2)), (3, Fraction(11, 2)))
AT_MAX_DEGREE = 6
AT_MONOMIALS = math.comb(AT_MAX_DEGREE + 4, 4)


@dataclass
class Op:
    """One timed call plus its untimed gate.

    ``kind`` groups ops for the throughput metrics; ``work`` is what the op
    contributes to its kind's rate (samples, rows or verdicts).  ``check``
    returns ``(ok, info)``; for ``reproducible`` ops ``info["estimate"]`` must
    repeat bit for bit in every pass.
    """

    name: str
    kind: str
    work: int
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, dict]]
    reproducible: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: dict = field(default_factory=dict)


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in text)


def _read_report(path: Path) -> dict:
    doc = json.loads(path.read_text())
    path.unlink()
    cli.validate_report(doc)
    return doc


def _cli_op(name, kind, work, argv, out_dir: Path, gate, reproducible=False) -> Op:
    path = out_dir / f"{_slug(name)}.json"

    def run():
        return cli.main([*argv, "--out", str(path)])

    def check(code):
        ok, info = gate(_read_report(path))
        return ok and code == cli.EXIT_PASS, info

    return Op(name, kind, work, run, check, reproducible)


def _mc_gate(doc: dict) -> tuple[bool, dict]:
    est = doc["estimate"]
    value = complex(*est["value"])
    stderr = est["stderr"]
    target = abs(doc["closed"]["float"]) * doc["extra"].get("phi_norm2", 1.0)
    diff = doc["extra"]["rel_err"] * target
    passed = doc["verdict"] == "PASS"
    info = {
        "estimate": [est["value"], stderr],
        "z": diff / stderr if stderr else math.inf,
        "degenerate": stderr == 0 or stderr / abs(value) < DEGENERATE_RELSTD,
        "floor_pass": passed and diff > 3.0 * stderr,
    }
    return passed, info


def _quad_gate(doc: dict) -> tuple[bool, dict]:
    rel = doc["extra"]["rel_err"]
    return doc["verdict"] == "PASS" and rel <= QUAD_REL_TOL, {"rel_err": rel}


def _at_gate(doc: dict) -> tuple[bool, dict]:
    monomials = doc["extra"]["monomials"]
    return doc["verdict"] == "PASS" and monomials == AT_MONOMIALS, {"monomials": monomials}


def _verdict_gate(doc: dict) -> tuple[bool, dict]:
    return doc["verdict"] == "PASS", {}


def _shuffled(ops: list[Op], seed: int) -> list[Op]:
    random.Random(f"perfbench-order-{seed}").shuffle(ops)
    return ops


def _zeta_mc_ops(params, samples, first_seed, out_dir) -> list[Op]:
    return [
        _cli_op(f"verify-zeta mc {lam}", "zeta_mc", samples,
                ["verify-zeta", "--lambda", lam, "--method", "mc", "--samples", str(samples),
                 "--seed", str(first_seed + i), "--workers", str(WORKERS)],
                out_dir, _mc_gate, reproducible=True)
        for i, lam in enumerate(params)
    ]


def _schur_op(weight, seed: int) -> Op:
    # called through arczeta.verify: ``arczeta verify-schur --out`` cannot
    # serialise the per-row numpy booleans of its report
    def run():
        return verify.verify_schur_orthogonality([list(weight)], samples=SCHUR_SAMPLES,
                                                 seed=seed, workers=WORKERS)

    def check(rep):
        (row,) = rep.details["rows"]
        return rep.passed, {"estimate": [row["mean"], row["stderr"]]}

    name = "verify-schur " + ",".join(map(str, weight))
    return Op(name, "schur", SCHUR_SAMPLES, run, check, reproducible=True)


def mc_sampling(seed: int, out_dir: Path) -> Workload:
    ops = _zeta_mc_ops(MC_ZETA, MC_ZETA_SAMPLES, MC_SEED, out_dir)
    ops += [_schur_op(w, MC_SEED + 10 + i) for i, w in enumerate(SCHUR_WEIGHTS)]
    p, q, kappa, iota, s = S_MC
    ops.append(_cli_op("verify-s mc 2,2", "s_mc", S_MC_SAMPLES,
                       ["verify-s", "--p", p, "--q", q, "--kappa", kappa, "--iota", iota,
                        "--s", s, "--method", "mc", "--samples", str(S_MC_SAMPLES),
                        "--seed", str(MC_SEED + 20), "--workers", str(WORKERS)],
                       out_dir, _mc_gate, reproducible=True))
    ops.append(_cli_op("verify-prop61", "prop61", PROP61_TRIALS,
                       ["verify-prop61", "--trials", str(PROP61_TRIALS), "--seed", str(seed)],
                       out_dir, _verdict_gate))
    ops = _shuffled(ops, seed)
    return Workload("mc-sampling", ops, {"order": [op.name for op in ops]})


def coef_setup(seed: int, out_dir: Path) -> Workload:
    ops = _shuffled(_zeta_mc_ops(SETUP_ZETA, SETUP_ZETA_SAMPLES, MC_SEED, out_dir), seed)
    return Workload("coef-setup", ops, {"order": [op.name for op in ops]})


def hwv_cost_proxy(theta) -> int:
    """Upper bound on the monomial count of the highest-weight vector: the
    product over its minor powers of the multiset count C(i! + e - 1, e)."""
    alphas = [int(a) for a in theta.alphas] + [0]
    if theta.case is weights.Case.I:
        powers = [(i, alphas[i - 1] - alphas[i]) for i in range(1, theta.n + 1)]
    else:
        betas = [int(b) for b in theta.betas] + [0]
        powers = [(i, betas[i - 1] - betas[i]) for i in range(1, theta.p + 1)]
        powers += [(i, alphas[i - 1] - alphas[i]) for i in range(1, theta.q)]
    out = 1
    for i, e in powers:
        out *= math.comb(math.factorial(i) + e - 1, e)
    return out


def radial_params(seed: int) -> list[str]:
    """The seed-drawn radial verdicts plus the fixed costly ones, in sweep order."""
    sweep = [lam for n in (1, 2, 3, 4)
             for lam in weights.admissible_sweep(n, Fraction(MAX_ENTRY))]
    proxy = [hwv_cost_proxy(weights.classify_theta(lam)) for lam in sweep]
    rng = random.Random(f"perfbench-radial-{seed}")
    chosen: set[int] = set()
    for lo, hi, picks in RADIAL_BANDS:
        band = [i for i, c in enumerate(proxy) if lo <= c < hi]
        chosen.update(rng.sample(band, picks))
    lo, hi, count = RADIAL_FIXED
    chosen.update([i for i, c in enumerate(proxy) if lo <= c < hi][:count])
    return [",".join(str(x) for x in sweep[i].fractions) for i in sorted(chosen)]


def s11_triples() -> list[tuple[int, int, Fraction]]:
    """The (1,1) quadrature triples of acceptance criterion 3."""
    return [(kappa, iota, s)
            for kappa in (0, -1, -2, -3) for iota in (0, 1) for s in (2, 3, Fraction(7, 2))
            if min(weights.closed_S_factors(1, 1, (kappa,), (iota,), s)) > Fraction(1, 2)]


def _identity_rows(rows: list[dict]) -> list[tuple]:
    """Criteria 1 and 2 plus the closed forms behind each table row."""
    out = []
    for row in rows:
        lam = weights.HCParameter.parse(row["lambda"].strip("()"))
        th = weights.classify_theta(lam)
        c2 = weights.c_squared(th)
        lhs = weights.closed_S(*weights.dual_S_arguments(th), 0) * c2
        rhs = weights.closed_T(th, Fraction(th.n + 1, 2))
        zc = weights.zeta_closed(th)
        out.append((row, c2, lhs == rhs, th.p == 0 or th.q == 0, zc,
                    weights.weyl_dim(lam), weights.formal_degree_product(lam)))
    return out


def _identity_gate(results: list[tuple]) -> tuple[bool, dict]:
    bad = []
    for row, c2, equal, definite, zc, dim, fd in results:
        ok = (equal and 0 < c2 <= 1 and (c2 == 1) == definite
              and row["c2"] == str(c2) and row["zeta_rational"] == str(zc.rational)
              and row["zeta_pi_exp"] == zc.pi_exp and row["dim"] == dim
              and row["formal_degree_product"] == str(fd))
        if not ok:
            bad.append(row["lambda"])
    return bool(results) and not bad, {"rows": len(results), "mismatches": bad}


def exact_quad(seed: int, out_dir: Path) -> Workload:
    tables: dict[int, list[dict]] = {}
    ops: list[Op] = []
    for n in (1, 2, 3, 4):
        path = out_dir / f"table_{n}.json"

        def run_table(n=n, path=path):
            return cli.main(["table", "--n", str(n), "--max-entry", MAX_ENTRY, "--out", str(path)])

        def check_table(code, n=n, path=path):
            doc = _read_report(path)
            tables[n] = doc["extra"]["rows"]
            return code == cli.EXIT_PASS and doc["verdict"] == "PASS", {"rows": len(tables[n])}

        def run_identities(n=n):
            return _identity_rows(tables[n])

        # work 0: exact_params_per_s counts the rows each table gate reads back
        ops.append(Op(f"table n={n}", "table", 0, run_table, check_table))
        ops.append(Op(f"identities n={n}", "identity", 0, run_identities, _identity_gate))

    def run_fd():
        out = []
        for n, bound in FD_SWEEPS:
            lams = [weights.HCParameter.parse(r["lambda"].strip("()")) for r in tables[n]]
            lams = [lam for lam in lams if max(abs(f) for f in lam.fractions) <= bound]
            out.append(verify.verify_formal_degree(lams))
        return out

    def check_fd(reps):
        sizes = [len(r.details["rows"]) for r in reps]
        return all(r.passed for r in reps) and min(sizes) >= 5, {"sizes": sizes}

    ops.append(Op("formal degree n=1..3", "identity", 0, run_fd, check_fd))
    radial = radial_params(seed)
    ops += [_cli_op(f"verify-zeta radial {lam}", "zeta_radial", 1,
                    ["verify-zeta", "--lambda", lam, "--method", "radial"], out_dir, _quad_gate)
            for lam in radial]
    ops.append(_cli_op(f"verify-at degree {AT_MAX_DEGREE}", "at", AT_MONOMIALS,
                       ["verify-at", "--max-degree", str(AT_MAX_DEGREE)], out_dir, _at_gate))
    ops += [_cli_op(f"verify-s quad 1,1 {k},{i},{s}", "s_quad", 1,
                    ["verify-s", "--p", "1", "--q", "1", "--kappa", str(k), "--iota", str(i),
                     "--s", str(s), "--method", "quad"], out_dir, _quad_gate)
            for k, i, s in s11_triples()]
    return Workload("exact-quad", ops, {"radial": radial})


WORKLOADS = {"mc-sampling": mc_sampling, "coef-setup": coef_setup, "exact-quad": exact_quad}


def build(name: str, seed: int, out_dir: Path) -> Workload:
    return WORKLOADS[name](seed, out_dir)


def warm_up(workload: Workload, out_dir: Path) -> None:
    """Exercise the numeric and report paths once, outside any timed span."""
    path = out_dir / "warm_up.json"
    if workload.name == "exact-quad":
        argv = ["verify-zeta", "--lambda", "3/2,1/2", "--method", "radial"]
    else:
        argv = ["verify-zeta", "--lambda", "3/2,1/2", "--samples", "10000",
                "--workers", str(WORKERS)]
    if cli.main([*argv, "--out", str(path)]) != cli.EXIT_PASS:
        raise RuntimeError("warm-up verdict failed")
    _read_report(path)
