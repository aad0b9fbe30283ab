"""Command-line surface: flags, exit codes, CSV round trips."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matabound.coverage as coverage
from matabound import upper_bound
from matabound.bound import bound_curve
from matabound.cli import _parse_rho_grid, main, read_csv_matrix

from helpers import random_problem

SRC = Path(__file__).resolve().parents[1] / "src"


def write_problem_csv(path, prob, with_y=True, header=None):
    cols = prob.X if not with_y else np.column_stack([prob.X, prob.y])
    lines = []
    if header:
        lines.append(",".join(header))
    lines += [",".join(repr(float(v)) for v in row) for row in cols]
    path.write_text("\n".join(lines) + "\n")


class TestBoundCommand:
    def test_reproduces_library_value(self, capsys, tmp_path):
        out = tmp_path / "row.csv"
        code = main(["bound", "--rho-max", "0.8", "--n", "14", "--p", "4",
                     "--alpha", "0.05", "--d-rule", "aic", "--out", str(out)])
        assert code == 0
        header, row = out.read_text().strip().splitlines()
        assert header == "n,m,d,alpha,rho_max_abs,gamma_star,upper_bound"
        vals = row.split(",")
        direct = upper_bound(0.8, 10, 14, 2.0, 0.05)
        assert float(vals[-1]) == direct.upper_bound  # bit-identical round trip
        assert float(vals[-2]) == direct.gamma_star
        assert capsys.readouterr().out.startswith("upper bound")

    def test_fixed_d_rule(self, capsys):
        code = main(["bound", "--rho-max", "0.5", "--n", "12", "--p", "4",
                     "--d-rule", "fixed:3.0"])
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(row.split(",")[2]) == 3.0

    def test_unconverged_quadrature_exits_3(self, capsys, monkeypatch):
        # a tolerance below the rule's reach: every value is refused
        monkeypatch.setattr(coverage, "_TOL", 1e-13)
        code = main(["bound", "--rho-max", "0.99", "--n", "3", "--p", "2"])
        assert code == 3
        captured = capsys.readouterr()
        assert "error estimate" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--gamma-max", "--refine-tol"])
    def test_removed_search_flags_exit_2(self, flag, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--rho-max", "0.5", "--n", "12", "--p", "4", flag, "5"])
        assert exc.value.code == 2
        conf = tmp_path / "run.conf"
        conf.write_text(f"{flag[2:]}=5\n")
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(conf), "bound", "--rho-max", "0.5", "--n", "12", "--p", "4"])
        assert exc.value.code == 2

    def test_huge_finite_d_rule(self, capsys):
        code = main(["bound", "--rho-max", "0.5", "--n", "7", "--p", "2",
                     "--d-rule", "1000000"])
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(row.split(",")[-1]) == upper_bound(0.5, 5, 7, 1e6, 0.05).upper_bound

    def test_clamped_rho_is_the_one_reported(self, capsys):
        assert main(["bound", "--rho-max", "0.999999999999", "--n", "3", "--p", "2"]) == 0
        captured = capsys.readouterr()
        row = captured.out.strip().splitlines()[-1].split(",")
        assert float(row[4]) == 1.0 - 1e-9
        assert float(row[-1]) == upper_bound(1.0 - 1e-9, 1, 3, 2.0, 0.05).upper_bound
        assert "clamped to 0.999999999" in captured.err
        # a value below the clamp is printed as given, with no note
        assert main(["bound", "--rho-max", "0.5", "--n", "12", "--p", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip().splitlines()[-1].split(",")[4] == "0.5"
        assert captured.err == ""

    def test_validation_errors_exit_2(self, capsys):
        assert main(["bound", "--rho-max", "1.5", "--n", "12", "--p", "4"]) == 2
        assert main(["bound", "--rho-max", "0.5", "--n", "4", "--p", "4"]) == 2
        assert main(["bound", "--rho-max", "0.5", "--n", "12", "--p", "4",
                     "--d-rule", "nope"]) == 2
        assert "error" in capsys.readouterr().err


class TestCurveCommand:
    def test_round_trip_is_bit_identical(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(["curve", "--p", "4", "--n", "12,14", "--d-rule", "bic",
                     "--alpha", "0.05", "--rho-grid", "0.3,0.8",
                     "--out", str(out)])
        assert code == 0
        direct = bound_curve([0.3, 0.8], [(8, 12), (10, 14)], "bic", 0.05)
        lines = out.read_text().strip().splitlines()[1:]
        assert len(lines) == len(direct.rows)
        for line, row in zip(lines, direct.rows):
            cells = line.split(",")
            assert int(cells[0]) == row.cfg.n and int(cells[1]) == row.cfg.m
            assert float(cells[2]) == row.cfg.d
            assert float(cells[4]) == row.rho_max_abs
            assert float(cells[5]) == row.gamma_star
            assert float(cells[6]) == row.upper_bound

    def test_rho_grid_range_syntax(self, capsys):
        code = main(["curve", "--p", "4", "--n", "12", "--d-rule", "aic",
                     "--rho-grid", "0:0.4:0.2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 3  # header + rho in {0, 0.2, 0.4}

    def test_rho_grid_range_values_are_exact(self):
        assert _parse_rho_grid("0:0.95:0.05") == [i / 20 for i in range(20)]
        assert _parse_rho_grid("0:0.5:0.2") == [0.0, 0.2, 0.4]

    def test_bad_grid_rejected(self, capsys):
        assert main(["curve", "--p", "4", "--n", "12", "--rho-grid", "0:1:0"]) == 2
        assert main(["curve", "--p", "4", "--n", "12", "--rho-grid", "0.5,1.2"]) == 2

    @pytest.mark.parametrize("grid, message", [("0:1", "start:stop:step"),
                                               ("0:x:0.1", "cannot parse --rho-grid"),
                                               ("0.5,x", "cannot parse --rho-grid")])
    def test_malformed_grid_rejected(self, capsys, grid, message):
        assert main(["curve", "--p", "4", "--n", "12", "--rho-grid", grid]) == 2
        assert message in capsys.readouterr().err

    def test_n_must_exceed_p(self, capsys):
        assert main(["curve", "--p", "4", "--n", "12,4", "--rho-grid", "0.5"]) == 2
        assert "every --n must exceed --p" in capsys.readouterr().err

    def test_non_integer_n_rejected(self, capsys):
        assert main(["curve", "--p", "4", "--n", "12,7.9", "--rho-grid", "0.5"]) == 2
        assert "--n" in capsys.readouterr().err

    def test_repeated_n_rejected(self, capsys):
        assert main(["curve", "--p", "4", "--n", "12,12", "--rho-grid", "0.5"]) == 2
        assert "repeated (m, n) pair" in capsys.readouterr().err


class TestIntervalCommand:
    def test_endpoints_match_library(self, tmp_path, capsys):
        from matabound import MataRequest, WeightSpec, solve_interval

        prob = random_problem(601, n=20, p=4, q=2)
        data = tmp_path / "data.csv"
        write_problem_csv(data, prob)
        a_flag = ",".join(repr(float(v)) for v in prob.a)
        code = main(["interval", "--data", str(data), f"--a={a_flag}", "--q", "2",
                     "--alpha", "0.1", "--d-rule", "bic"])
        assert code == 0
        out = capsys.readouterr().out
        iv = solve_interval(MataRequest(prob, WeightSpec.bic(prob.n), alpha=0.1))
        lower = float(out.split("interval lower = ")[1].splitlines()[0])
        upper = float(out.split("interval upper = ")[1].splitlines()[0])
        assert lower == pytest.approx(iv.lower, rel=1e-5)
        assert upper == pytest.approx(iv.upper, rel=1e-5)
        assert f" models={len(iv.weights_used)} " in out.splitlines()[0]
        printed = out.split("top model weights (dropped 0-based columns : weight):\n")[1]
        top = sorted(iv.weights_used.items(), key=lambda kv: -kv[1])[:10]
        assert len(printed.splitlines()) == len(top) == 4
        for line, (K, wgt) in zip(printed.splitlines(), top):
            label, value = line.rsplit(None, 1)
            assert label.strip() == ("{" + ",".join(map(str, K.indices)) + "}"
                                     if K.mask else "{} (full)")
            assert float(value) == pytest.approx(wgt, rel=1e-5)

    def test_crossed_endpoints_exit_3(self, tmp_path, capsys, monkeypatch):
        from matabound import interval

        solve = interval._solve_tails

        def swapped(*args):
            roots, residuals = solve(*args)
            return roots[::-1], residuals

        monkeypatch.setattr(interval, "_solve_tails", swapped)
        prob = random_problem(605, n=20, p=4, q=2)
        data = tmp_path / "data.csv"
        write_problem_csv(data, prob)
        a_flag = ",".join(repr(float(v)) for v in prob.a)
        code = main(["interval", "--data", str(data), f"--a={a_flag}", "--q", "2"])
        assert code == 3
        captured = capsys.readouterr()
        assert "numerical failure: endpoints crossed" in captured.err
        assert captured.out == ""

    def test_refuses_oversized_family(self, tmp_path, capsys):
        rng = np.random.default_rng(603)
        X = rng.standard_normal((40, 33))
        y = rng.standard_normal(40)
        data = tmp_path / "big.csv"
        lines = [",".join(repr(float(v)) for v in row) for row in np.column_stack([X, y])]
        data.write_text("\n".join(lines) + "\n")
        a_flag = ",".join(["1.0"] + ["0.0"] * 32)
        code = main(["interval", "--data", str(data), f"--a={a_flag}", "--q", "1"])
        assert code == 2
        assert "cap" in capsys.readouterr().err

    def test_malformed_csv_reports_row_and_column(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("1.0,2.0\n3.0,oops\n")
        code = main(["interval", "--data", str(data), "--a", "1", "--q", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "column 2" in err

    @pytest.mark.parametrize("text, message", [("", "empty file"), ("\n,\n", "empty file"),
                                               ("x1,x2\n", "no data rows below the header")])
    def test_empty_csv_rejected(self, tmp_path, capsys, text, message):
        data = tmp_path / "empty.csv"
        data.write_text(text)
        assert main(["interval", "--data", str(data), "--a", "1", "--q", "1"]) == 2
        assert message in capsys.readouterr().err

    def test_unparsable_interest_vector(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_problem_csv(data, random_problem(609, n=12, p=3, q=1))
        assert main(["interval", "--data", str(data), "--a", "1,zero,0", "--q", "1"]) == 2
        assert "cannot parse --a" in capsys.readouterr().err

    def test_ragged_csv_rejected(self, tmp_path, capsys):
        data = tmp_path / "ragged.csv"
        data.write_text("1.0,2.0\n3.0\n")
        assert main(["interval", "--data", str(data), "--a", "1", "--q", "1"]) == 2

    @pytest.mark.parametrize("cell, a_flag, name", [
        (None, "nan,1,0,0", "a"), ((4, 2), "1,0.5,0,0", "X"), ((7, 4), "1,0.5,0,0", "y")])
    def test_nan_input_exits_2_naming_the_array(self, tmp_path, capsys, cell, a_flag, name):
        prob = random_problem(605, n=20, p=4, q=2)
        cols = np.column_stack([prob.X, prob.y])
        if cell:
            cols[cell] = np.nan
        data = tmp_path / "data.csv"
        data.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in cols) + "\n")
        code = main(["interval", "--data", str(data), f"--a={a_flag}", "--q", "2"])
        assert code == 2
        assert f"{name} contains NaN" in capsys.readouterr().err


class TestRhoMaxCommand:
    def test_profile_output(self, tmp_path, capsys):
        from matabound import correlation_profile

        prob = random_problem(605, n=25, p=5, q=2, with_y=False)
        data = tmp_path / "X.csv"
        write_problem_csv(data, prob, with_y=False)
        a_flag = ",".join(repr(float(v)) for v in prob.a)
        code = main(["rho-max", "--data", str(data), f"--a={a_flag}", "--q", "2"])
        assert code == 0
        out = capsys.readouterr().out
        _, rho_max, argmax = correlation_profile(prob)
        assert f"rho_max_abs = {rho_max:.6g} at column {argmax}" in out

    def test_response_flag_drops_last_column(self, tmp_path, capsys):
        from matabound import correlation_profile

        prob = random_problem(607, n=25, p=5, q=2)
        data = tmp_path / "Xy.csv"
        write_problem_csv(data, prob, with_y=True)
        a_flag = ",".join(repr(float(v)) for v in prob.a)
        code = main(["rho-max", "--data", str(data), f"--a={a_flag}", "--q", "2",
                     "--response"])
        assert code == 0
        _, rho_max, _ = correlation_profile(prob)
        assert f"{rho_max:.6g}" in capsys.readouterr().out


    def test_response_needs_a_design_column(self, tmp_path, capsys):
        data = tmp_path / "y.csv"
        data.write_text("1.0\n2.0\n3.0\n")
        assert main(["rho-max", "--data", str(data), "--a", "1", "--q", "1",
                     "--response"]) == 2
        assert "at least one design column" in capsys.readouterr().err


class TestCsvReader:
    def test_header_autodetect(self, tmp_path):
        f = tmp_path / "h.csv"
        f.write_text("alpha,beta\n1,2\n3,4\n")
        data, names = read_csv_matrix(str(f))
        assert names == ["alpha", "beta"]
        np.testing.assert_array_equal(data, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_forced_off(self, tmp_path):
        from matabound.cli import CliError

        f = tmp_path / "h.csv"
        f.write_text("alpha,beta\n1,2\n")
        with pytest.raises(CliError):
            read_csv_matrix(str(f), header="no")

    def test_headerless_numeric(self, tmp_path):
        f = tmp_path / "n.csv"
        f.write_text("1,2\n3,4\n")
        data, names = read_csv_matrix(str(f))
        assert names is None
        assert data.shape == (2, 2)

    def test_missing_file(self):
        from matabound.cli import CliError

        with pytest.raises(CliError):
            read_csv_matrix("/nonexistent/file.csv")


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("rho-max = 0.6\nn = 14\np = 4\n")
        code = main(["--config", str(conf), "bound", "--rho-max", "0.3"])
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(row.split(",")[4]) == 0.3  # explicit flag beat the config

    def test_config_vector_with_leading_minus(self, tmp_path, capsys):
        from matabound import correlation_profile

        prob = random_problem(605, n=25, p=5, q=2)
        assert prob.a[0] < 0
        data = tmp_path / "Xy.csv"
        write_problem_csv(data, prob)
        a_text = ",".join(repr(float(v)) for v in prob.a)
        conf = tmp_path / "run.conf"
        conf.write_text(f"data = {data}\na = {a_text}\nq = 2\n")
        assert main(["--config", str(conf), "rho-max", "--response"]) == 0
        _, rho_max, argmax = correlation_profile(prob)
        assert f"rho_max_abs = {rho_max:.6g} at column {argmax}" in capsys.readouterr().out
        assert main(["--config", str(conf), "interval"]) == 0

    def test_config_equals_form(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("rho-max = 0.6\nn = 14\np = 4\n")
        code = main([f"--config={conf}", "bound"])
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[-1]
        assert row.split(",")[:2] == ["14", "10"]
        assert float(row.split(",")[4]) == 0.6

    def test_config_path_and_placement_checked(self, tmp_path, capsys):
        assert main(["--config"]) == 2
        assert "--config needs a file path" in capsys.readouterr().err
        assert main(["--config", str(tmp_path / "missing.conf"), "bound"]) == 2
        assert "cannot read config" in capsys.readouterr().err
        conf = tmp_path / "run.conf"
        conf.write_text("n = 14\n")
        assert main(["bound", "--rho-max", "0.5", "--p", "4", "--config", str(conf)]) == 2
        assert "--config must precede a subcommand" in capsys.readouterr().err

    def test_bad_config_line(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("rho-max 0.6\n")
        assert main(["--config", str(conf), "bound"]) == 2


class TestVerifyCommand:
    def test_theorem4_suite_passes(self, capsys):
        code = main(["verify", "theorem4", "--reps", "30000", "--seed", "777"])
        assert code == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("suite", ["integral-vs-mc", "theorem2", "theorem4"])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_2(self, capsys, suite, seed):
        assert main(["verify", suite, "--seed", str(seed)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must fit in 64 unsigned bits\n"
        assert captured.out == ""

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "nonsense"])


class TestModuleEntryPoint:
    def run(self, *args):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run([sys.executable, "-m", "matabound", *args], env=env,
                              capture_output=True, text=True, timeout=300)

    def test_version(self):
        from matabound import __version__

        proc = self.run("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip().endswith(__version__)

    def test_bound_matches_library(self):
        proc = self.run("bound", "--rho-max", "0.5", "--n", "12", "--p", "4")
        assert proc.returncode == 0, proc.stderr
        row = proc.stdout.strip().splitlines()[-1].split(",")
        assert float(row[-1]) == upper_bound(0.5, 8, 12, 2.0, 0.05).upper_bound
