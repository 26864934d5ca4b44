import csv
import io
import json
import math

import pytest

import arczeta.verify
from arczeta.cli import main, table_rows, table_to_csv, validate_report


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
