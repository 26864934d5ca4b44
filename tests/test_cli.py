import argparse
import concurrent.futures
import csv
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
from fractions import Fraction

import pytest

import arczeta.verify
import arczeta.weights
from arczeta import cli
from arczeta.cli import (
    _join_negative_values,
    main,
    make_parser,
    table_rows,
    table_to_csv,
    validate_report,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_volatile(doc):
    doc = dict(doc)
    doc.pop("timestamp", None)
    doc.pop("wall_time", None)
    return doc


class TestClassify:
    def test_example(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--lambda", "3/2,1/2")
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "I" and doc["p"] == 1 and doc["q"] == 1
        assert doc["extra"]["gamma"] == "0"
        assert doc["extra"]["alphas"] == ["2"]
        assert doc["extra"]["c2"] == "1/2"
        assert doc["closed"] == {"rational": "1/2", "pi_exp": 1,
                                 "float": pytest.approx(math.pi / 2)}
        validate_report(doc)

    def test_not_decreasing_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--lambda", "1/2,3/2")
        assert code == 2 and "decreasing" in err

    def test_inadmissible_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--lambda", "3/2,-3/2")
        assert code == 3 and "alpha" in err

    def test_parse_error_position(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--lambda", "3/2,oops")
        assert code == 2 and "position 1" in err


class TestTable:
    def test_csv_roundtrip(self):
        rows = table_rows(1, 3)
        text = table_to_csv(rows)
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == len(rows)
        for a, b in zip(parsed, rows):
            assert a["lambda"] == b["lambda"]
            assert a["c2"] == b["c2"]
            assert a["zeta_pi_exp"] == str(b["zeta_pi_exp"])
            assert float(a["zeta_float"]) == pytest.approx(b["zeta_float"])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_weyl_product_per_row(self, monkeypatch, n):
        # classification fixes sigma's dimension; a row takes no second one.
        # One usable CPU, so every row runs here, where the calls are counted
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        calls = []
        count = arczeta.weights._weyl_count

        def counting(d):
            calls.append(d)
            return count(d)

        monkeypatch.setattr(arczeta.weights, "_weyl_count", counting)
        rows = table_rows(n, Fraction(15, 2))
        assert rows and len(calls) == len(rows)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rows_take_the_lambda_route(self, monkeypatch, n):
        # zeta and c^2 are products in lambda: a row builds no closed_S
        # factors and takes one Weyl product.  One usable CPU, so every row
        # runs here, where the calls are counted
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        calls = {"_S_factors": 0, "_weyl_count": 0}
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(arczeta.weights, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(arczeta.weights, name, counting)
        rows = table_rows(n, Fraction(15, 2))
        assert rows and calls == {"_S_factors": 0, "_weyl_count": len(rows)}

    def test_cli_csv(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "1", "--max-entry", "5/2",
                               "--format", "csv")
        assert code == 0
        parsed = csv.DictReader(io.StringIO(out))
        by_lambda = {row["lambda"]: row for row in parsed}
        assert by_lambda["(3/2,1/2)"]["c2"] == "1/2"
        # anisotropic partner: projection constant exactly one
        assert by_lambda["(1/2,-3/2)"]["c2"] == "1"

    def test_cli_json_validates(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n", "1", "--max-entry", "3/2")
        assert code == 0
        validate_report(json.loads(out))

    def test_empty_rank_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "table", "--n", "0")
        assert code == 2 and not out and "n >= 1" in err

    @pytest.mark.parametrize("bound,message", [
        ("0", "empty"), ("-3/2", "empty"), ("1/3", "half-integer")])
    def test_empty_or_non_half_integral_bound_exit_2(self, capsys, bound, message):
        # zero rows is no PASS, and a bound of 1/3 is not floored
        code, out, err = run_cli(capsys, "table", "--n", "1", "--max-entry", bound)
        assert code == 2 and not out and message in err


@pytest.mark.parametrize("argv", [
    ("verify-s", "--p", "1", "--q", "1", "--kappa", "0", "--iota", "0", "--s", "1/0"),
    ("verify-s", "--p", "1", "--q", "1", "--kappa", "1/0", "--iota", "0", "--s", "3"),
    ("verify-t", "--lambda", "3/2,1/2", "--s", "1/0"),
    ("table", "--n", "1", "--max-entry", "1/0"),
    ("verify-fd", "--n", "1", "--max-entry", "1/0"),
], ids=["verify-s-s", "verify-s-kappa", "verify-t-s", "table", "verify-fd"])
def test_zero_denominator_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out and "'1/0'" in err


@pytest.mark.parametrize("argv", [
    ("classify", "--lambda", "3/2,1/2"),
    ("table", "--n", "1", "--max-entry", "5/2", "--format", "csv"),
], ids=["json", "csv"])
def test_unwritable_out_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "report"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"invalid input: cannot write {path}: No such file or directory\n"


class TestVerifyCommands:
    def test_verify_zeta_pass(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "verify-zeta", "--lambda", "3/2,1/2",
                             "--samples", "20000", "--seed", "7",
                             "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        validate_report(doc)
        assert doc["verdict"] == "PASS"
        assert doc["estimate"]["value"][0] == pytest.approx(1 / math.pi, rel=1e-6)
        assert doc["estimate"]["seed"] == 7

    def test_report_deterministic_modulo_timestamps(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            code, _, _ = run_cli(capsys, "verify-zeta", "--lambda", "3/2,1/2",
                                 "--samples", "20000", "--seed", "3",
                                 "--out", str(p))
            assert code == 0
        a = strip_volatile(json.loads(p1.read_text()))
        b = strip_volatile(json.loads(p2.read_text()))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_verify_s_quad(self, capsys):
        code, out, _ = run_cli(capsys, "verify-s", "--p", "1", "--q", "1",
                               "--kappa", "0", "--iota", "0", "--s", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["closed"]["rational"] == "1/2" and doc["closed"]["pi_exp"] == 1
        validate_report(doc)

    def test_verify_t(self, capsys):
        code, out, _ = run_cli(capsys, "verify-t", "--lambda", "5/2,3/2,1/2",
                               "--s", "3/2")
        assert code == 0
        doc = json.loads(out)
        assert doc["closed"]["rational"] == "1/6" and doc["closed"]["pi_exp"] == 2

    def test_min_samples_enforced(self, capsys):
        code, _, err = run_cli(capsys, "verify-zeta", "--lambda", "3/2,1/2",
                               "--samples", "100")
        assert code == 2 and "samples" in err

    def test_min_samples_enforced_for_schur(self, capsys):
        code, _, err = run_cli(capsys, "verify-schur", "--weights", "1,0", "--samples", "100")
        assert code == 2 and "samples" in err

    @pytest.mark.parametrize("argv", [
        ("verify-s", "--p", "1", "--q", "1", "--kappa", "0", "--iota", "0", "--s", "3"),
        ("verify-zeta", "--lambda", "3/2,1/2", "--method", "radial"),
    ])
    def test_min_samples_not_applied_to_deterministic_methods(self, capsys, argv):
        # quadrature and radial draw no samples, so a small --samples is moot
        code, out, _ = run_cli(capsys, *argv, "--samples", "100")
        doc = json.loads(out)
        assert code == 0 and doc["verdict"] == "PASS" and doc["estimate"]["samples"] == 0

    def test_numerical_fail_exit_1(self, capsys, monkeypatch):
        # a substitution route off by 1e-6 relative must fail the 1e-9 check
        route = arczeta.verify.omega_matcoef
        monkeypatch.setattr(arczeta.verify, "omega_matcoef",
                            lambda *args: route(*args) * (1 + 1e-6))
        code, out, _ = run_cli(capsys, "verify-prop61", "--trials", "1")
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "FAIL"
        validate_report(doc)

    @pytest.mark.parametrize("tol", ["0", "nan", "inf"])
    def test_prop61_tolerance_is_not_an_option(self, capsys, tol):
        # the route check runs at the fixed 1e-9; a tolerance flag is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["verify-prop61", "--trials", "1", "--tol", tol])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_verify_at(self, capsys):
        code, out, _ = run_cli(capsys, "verify-at")
        assert code == 0
        assert json.loads(out)["extra"]["monomials"] == 70

    def test_verify_fd(self, capsys):
        code, out, _ = run_cli(capsys, "verify-fd", "--n", "1", "--count", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["closed"]["pi_exp"] == -1

    def test_pole_adjacent_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify-s", "--p", "1", "--q", "1",
                               "--kappa", "0", "--iota", "0", "--s", "7/5")
        assert code == 2 and "pole" in err

    def test_33_ball_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify-s", "--p", "3", "--q", "3",
                               "--kappa", "-1,-1,-1", "--iota", "1,1,1", "--s", "8",
                               "--method", "mc", "--samples", "100000")
        assert code == 0 and json.loads(out)["verdict"] == "PASS"

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ARCZETA_SEED", "42")
        code, out, _ = run_cli(capsys, "verify-zeta", "--lambda", "3/2,1/2",
                               "--samples", "20000")
        assert code == 0
        assert json.loads(out)["estimate"]["seed"] == 42

    def test_negative_option_values_without_equals(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--lambda", "-1/2,-5/2")
        assert code == 0 and json.loads(out)["case"] == "II"
        code, out, _ = run_cli(capsys, "verify-s", "--p", "2", "--q", "1",
                               "--kappa", "-1,-1", "--iota", "2", "--s", "2",
                               "--samples", "50000")
        assert code == 0

    def test_verify_schur_out(self, capsys, tmp_path):
        out_path = tmp_path / "schur.json"
        code, _, _ = run_cli(capsys, "verify-schur", "--weights", "1,0;2,2",
                             "--samples", "20000", "--seed", "1",
                             "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        validate_report(doc)
        assert [row["pass"] for row in doc["extra"]["rows"]] == [True, True]

    def test_verify_s_reports_sampler_diagnostics(self, capsys):
        code, out, _ = run_cli(capsys, "verify-s", "--p", "2", "--q", "2",
                               "--kappa", "-1,-1", "--iota", "1,1", "--s", "4",
                               "--method", "mc", "--samples", "20000")
        doc = json.loads(out)
        validate_report(doc)
        assert code == 0 and doc["extra"]["method"] == "mc"
        # one-dimensional weights: the integrand is constant on the nested draw
        assert doc["extra"]["degenerate"] is True and doc["extra"]["relstd"] < 1e-12

    def test_verify_zeta_reports_importance_exponent(self, capsys):
        code, out, _ = run_cli(capsys, "verify-zeta", "--lambda", "3/2,1/2",
                               "--samples", "20000")
        doc = json.loads(out)
        assert code == 0 and doc["extra"]["method"] == "mc"
        assert doc["extra"]["importance_exponent"] == 1.0
        assert doc["extra"]["phi_norm2"] > 0

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        code, out, err = run_cli(capsys, "verify-zeta", "--lambda", "3/2,1/2",
                                 "--samples", "20000", "--workers", workers)
        assert code == 2 and not out and "worker" in err

    def test_workers_above_samples_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify-zeta", "--lambda", "3/2,1/2",
                                 "--samples", "20000", "--workers", "20001")
        assert code == 2 and not out and "worker" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_prop61_without_trials_exit_2(self, capsys, trials):
        code, out, err = run_cli(capsys, "verify-prop61", "--trials", trials)
        assert code == 2 and not out and "trial" in err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_verify_fd_count_below_one_exit_2(self, capsys, count):
        code, out, err = run_cli(capsys, "verify-fd", "--n", "1", "--count", count)
        assert code == 2 and not out and "count" in err

    def test_verify_at_negative_degree_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify-at", "--max-degree", "-1")
        assert code == 2 and not out and "max_degree" in err

    def test_radial_zeta_method(self, capsys):
        code, out, _ = run_cli(capsys, "verify-zeta", "--lambda", "-1/2,-5/2",
                               "--method", "radial", "--samples", "10000")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"
        validate_report(doc)


def test_readme_examples_parse_and_quadrature_verify_s_passes(capsys):
    # every `arczeta ...` line of the README parses as the CLI reads it, and
    # the quadrature verify-s examples run to exit 0, so the examples cannot
    # drift from the parser or from the closed forms
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    lines = [shlex.split(line)[1:] for line in readme.read_text().splitlines()
             if line.startswith("arczeta ")]
    assert len(lines) >= 10
    parser = make_parser()
    quad = 0
    for argv in lines:
        args = parser.parse_args(_join_negative_values(argv))
        if args.command == "verify-s" and args.method == "quad":
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0 and json.loads(out)["verdict"] == "PASS", argv
            quad += 1
    assert quad >= 2


NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from arczeta.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""


def test_every_verb_runs_without_scipy():
    # the runtime needs numpy alone: scipy serves only the test oracles
    argvs = [
        ["classify", "--lambda", "5/2,3/2,1/2"],
        ["table", "--n", "1", "--max-entry", "5/2"],
        ["verify-s", "--p", "1", "--q", "1", "--kappa", "0", "--iota", "0", "--s", "3"],
        ["verify-s", "--p", "2", "--q", "2", "--kappa", "-1,-1", "--iota", "1,1", "--s", "4",
         "--method", "mc", "--samples", "20000"],
        ["verify-t", "--lambda", "5/2,3/2,1/2", "--s", "3/2"],
        ["verify-zeta", "--lambda", "3/2,1/2", "--samples", "20000", "--seed", "7"],
        ["verify-zeta", "--lambda", "-1/2,-5/2", "--method", "radial"],
        ["verify-prop61", "--trials", "1"],
        ["verify-at", "--max-degree", "2"],
        ["verify-schur", "--weights", "1,0", "--samples", "20000", "--seed", "1"],
        ["verify-fd", "--n", "1", "--count", "2"],
    ]
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(argvs)],
                          capture_output=True, text=True, cwd=src.parent,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(argvs)


VERBS = ["classify", "table", "verify-s", "verify-t", "verify-zeta", "verify-prop61",
         "verify-at", "verify-schur", "verify-fd"]

# usage and help cases: each exits from argparse before a verb runs
PARSER_EXITS = [
    [], ["--help"], ["bogus"],
    *([verb, "--help"] for verb in VERBS),
    ["classify"], ["table"], ["verify-s", "--p", "1", "--q", "1", "--kappa", "0", "--iota", "0"],
    ["verify-t", "--lambda", "3/2,1/2"], ["verify-zeta"], ["verify-fd", "--count", "2"],
    ["verify-zeta", "--lambda", "3/2,1/2", "extra"],
    ["table", "--n", "1", "--format", "xml"],
    ["classify", "--lambda", "3/2,1/2", "--bogus", "1"],
]


def full_parser_exit(capsys, argv):
    """Exit code, stdout and stderr of the parser of every verb on ``argv``."""
    with pytest.raises(SystemExit) as exc:
        make_parser().parse_args(_join_negative_values(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
def test_main_parser_exits_match_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    expected = full_parser_exit(capsys, argv)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == expected



@pytest.mark.parametrize("argv,message", [
    ([], "error: the following arguments are required: command\n"),
    (["bogus"], "error: argument command: invalid choice: 'bogus'"),
])
def test_full_parser_names_the_verb_argument_command(capsys, argv, message):
    # the full parser keeps argparse's default choices rendering, under which
    # these two errors name the verb argument "command"
    code, out, err = full_parser_exit(capsys, argv)
    assert code == 2 and not out and message in err

def test_process_parser_exits_match_full_parser(capsys, monkeypatch):
    # no verb, a verb's help and a usage error as a process sees them: its own
    # stdout, stderr and exit code
    monkeypatch.setenv("COLUMNS", "80")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "arczeta.cli", *argv],
                              capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout, proc.stderr

    argvs = [[], ["verify-zeta", "--help"], ["table", "--n", "1", "--format", "xml"]]
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(run, argvs))
    for argv, outcome in zip(argvs, got):
        assert outcome == full_parser_exit(capsys, argv), argv


# every option of every verb, negative values without "=" included
VERB_ARGVS = [
    ["classify", "--lambda", "-1/2,-5/2", "--out", "c.json"],
    ["table", "--n", "2", "--max-entry", "7/2", "--format", "csv", "--out", "t.csv"],
    ["verify-s", "--p", "2", "--q", "1", "--kappa", "-1,-1", "--iota", "2", "--s", "2",
     "--method", "mc", "--samples", "20000", "--seed", "3", "--workers", "2", "--out", "s.json"],
    ["verify-t", "--lambda", "5/2,3/2,1/2", "--s", "3/2", "--method", "mc",
     "--samples", "20000", "--seed", "-4", "--workers", "2", "--out", "t.json"],
    ["verify-zeta", "--lambda", "1/2,-7/2,-9/2", "--method", "radial", "--samples", "20000",
     "--seed", "5", "--workers", "2", "--out", "z.json"],
    ["verify-prop61", "--trials", "3", "--seed", "6", "--out", "p.json"],
    ["verify-at", "--max-degree", "3", "--out", "a.json"],
    ["verify-schur", "--weights", "1,0;2,1", "--samples", "20000", "--seed", "7",
     "--workers", "2", "--out", "o.json"],
    ["verify-fd", "--n", "2", "--max-entry", "11/2", "--count", "8", "--out", "f.json"],
]


def test_negative_seed_is_refused_before_any_draw(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "verify_T", lambda *a, **k: pytest.fail("verify_T was called"))
    argv = next(argv for argv in VERB_ARGVS if argv[0] == "verify-t")
    assert argv[argv.index("--seed") + 1] == "-4"
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "--seed" in err and "-4" in err and ">= 0" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["-1", "abc"])
def test_bad_env_seed_is_refused_only_where_a_seed_is_read(capsys, monkeypatch, value):
    monkeypatch.setenv("ARCZETA_SEED", value)
    monkeypatch.setattr(cli, "verify_S", lambda *a, **k: pytest.fail("verify_S was called"))
    code, _, err = run_cli(capsys, "verify-s", "--p", "1", "--q", "1", "--kappa", "0",
                           "--iota", "0", "--s", "3", "--method", "mc", "--samples", "20000")
    assert code == 2 and "ARCZETA_SEED" in err and value in err and ">= 0" in err
    # table draws nothing, so it does not read the variable
    code, out, err = run_cli(capsys, "table", "--n", "1", "--max-entry", "5/2", "--format", "csv")
    assert code == 0 and out.startswith("lambda,case") and err == ""


def test_verb_argvs_parse_as_their_verb():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    examples = [shlex.split(line)[1:] for line in readme.read_text().splitlines()
                if line.startswith("arczeta ")]
    defaults = [[verb] for verb in ("verify-prop61", "verify-at", "verify-schur")]
    assert sorted({argv[0] for argv in VERB_ARGVS}) == sorted(VERBS)
    parser = make_parser()
    for argv in VERB_ARGVS + examples + defaults:
        assert parser.parse_args(_join_negative_values(argv)).command == argv[0], argv


@pytest.fixture
def add_parser_calls(monkeypatch):
    """Names passed to argparse's subparser factory, which is counted, not
    replaced, from a process with no parser built yet."""
    calls = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    yield calls
    cli._parser.cache_clear()


def call_main(argv):
    """main's exit code, returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("verb", VERBS)
def test_named_verb_builds_every_parser_once(capsys, add_parser_calls, verb):
    assert call_main([verb, "--help"]) == 0 and add_parser_calls == VERBS


def test_named_verb_run_builds_every_parser_once(capsys, add_parser_calls):
    code, out, _ = run_cli(capsys, "classify", "--lambda", "3/2,1/2")
    assert code == 0 and json.loads(out)["case"] == "I"
    assert add_parser_calls == VERBS


@pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"]])
def test_no_verb_builds_every_parser(capsys, add_parser_calls, argv):
    call_main(argv)
    assert add_parser_calls == VERBS


def test_second_call_builds_no_parser(capsys, add_parser_calls):
    # one parser per process: after the first call of any kind, none is built
    for argv in [["classify", "--lambda", "3/2,1/2"], ["--help"], ["verify-fd", "--help"],
                 ["table", "--n", "two"], [], ["classify", "--lambda", "3/2,1/2"]]:
        call_main(argv)
    assert add_parser_calls == VERBS


@pytest.mark.parametrize("argv", [["--help"], ["table", "--help"], ["verify-fd", "--help"]])
def test_help_is_the_same_on_every_call(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and "usage: arczeta" in texts[0]


def test_usage_error_leaves_the_parser_as_a_fresh_process_has_it(capsys, tmp_path):
    # a parse that fails on the shared parser changes nothing the next call reads
    argv = ["table", "--n", "2", "--max-entry", "9/2", "--format", "csv"]
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    fresh = subprocess.run([sys.executable, "-m", "arczeta.cli", *argv], capture_output=True,
                           env={**os.environ, "PYTHONPATH": str(src)})
    assert fresh.returncode == 0 and not fresh.stderr and fresh.stdout.count(b"\n") > 10
    for bad in (["verify-zeta", "--samples", "x"], ["table", "--n", "two"],
                ["table", "--format", "xml", "--n", "2"], ["table"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run_cli(capsys, *argv)
    assert (code, out.encode(), err) == (0, fresh.stdout, "")
