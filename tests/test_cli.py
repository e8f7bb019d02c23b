import csv
import json

import pytest

from timemg import cli
from timemg.checks import Result
from timemg.cli import main


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestAnalyze:
    def test_single_tau_closed_form(self, tmp_path):
        code = main(["analyze", "--pt", "0", "--tau", "1.0", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "analyze_pt0_nu1_1.csv")
        assert len(rows) == 1
        assert list(rows[0]) == ["tau", "rho_theory", "mu_s", "omega_star", "theta_star"]
        assert abs(float(rows[0]["rho_theory"]) - 0.2) < 1e-9
        assert abs(float(rows[0]["omega_star"]) - 0.8) < 1e-12

    def test_degree_one_dip_near_alpha_zero(self, tmp_path):
        # a grid sampling near tau = 3 (the zero of alpha) shows the dip
        code = main(["analyze", "--pt", "1", "--tau-min", "2.5", "--tau-max", "3.6",
                     "--tau-points", "7", "--steps", "256", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "analyze_pt1_nu1_1.csv")
        assert len(rows) == 7
        assert min(float(r["rho_theory"]) for r in rows) <= 1e-3

    def test_grid_row_count_and_json(self, tmp_path):
        code = main(["analyze", "--pt", "0", "--tau-min", "0.1", "--tau-max", "10",
                     "--tau-points", "5", "--steps", "64", "--format", "json",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = json.loads((tmp_path / "analyze_pt0_nu1_1.json").read_text())
        assert len(rows) == 5

    def test_empty_range_usage_error(self, tmp_path):
        code = main(["analyze", "--tau-min", "10", "--tau-max", "1",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_flag_usage_error(self):
        assert main(["analyze", "--does-not-exist", "1"]) == 2

    def test_repeat_run_is_deterministic(self, tmp_path):
        args = ["analyze", "--pt", "1", "--tau-min", "0.5", "--tau-max", "2",
                "--tau-points", "3", "--steps", "64"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "analyze_pt1_nu1_1.csv").read_bytes()
        b = (tmp_path / "b" / "analyze_pt1_nu1_1.csv").read_bytes()
        assert a == b


class TestVerify:
    def test_order_suite_passes(self, capsys):
        assert main(["verify", "order"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3

    def test_symbols_suite_passes(self):
        assert main(["verify", "symbols"]) == 0

    def test_rho_suite_passes(self):
        assert main(["verify", "rho"]) == 0

    def test_smoothing_suite_passes(self, capsys):
        assert main(["verify", "smoothing"]) == 0
        assert capsys.readouterr().out.count("PASS") == 10

    def test_failed_check_exit_code(self, monkeypatch, capsys):
        monkeypatch.setitem(cli._VERIFY_SUITES, "order", lambda: [
            Result("holds", 0.0, True), Result("broken", 1.0, False, "forced")])
        assert main(["verify", "order"]) == 1
        out = capsys.readouterr().out
        assert out == "PASS  holds\nFAIL  broken  [forced]\n1 check(s) failed\n"

    def test_unknown_suite_usage_error(self):
        assert main(["verify", "everything"]) == 2


class TestSolve:
    def test_zero_rhs_endpoint_decay(self, tmp_path, capsys):
        n = 32
        code = main(["solve", "--pt", "0", "--steps", str(n), "--T", "1.0",
                     "--u0", "1.0", "--f", "zero", "--eps", "1e-10",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "solve_solution.csv")
        assert len(rows) == n
        tau = 1.0 / n
        want = (1.0 + tau) ** -n
        assert abs(float(rows[-1]["u_end"]) - want) < 1e-8
        stats = json.loads((tmp_path / "solve_stats.json").read_text())
        assert stats["converged"] is True
        history = read_csv(tmp_path / "solve_residuals.csv")
        assert list(history[0]) == ["iteration", "residual_norm"]
        assert len(history) == stats["iterations"] + 1
        assert "measured convergence factor" in capsys.readouterr().out

    def test_compare_sequential_reports_deviation(self, tmp_path, capsys):
        code = main(["solve", "--pt", "1", "--steps", "16", "--f", "sin",
                     "--f-param", "2.0", "--eps", "1e-10",
                     "--compare-sequential", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if "deviation" in l][0]
        assert float(line.rsplit(" ", 1)[1]) < 1e-8

    def test_nonconvergence_exit_code_still_writes(self, tmp_path):
        code = main(["solve", "--pt", "0", "--steps", "64", "--tau", "1e-6",
                     "--eps", "1e-14", "--max-iters", "1", "--f", "const",
                     "--out", str(tmp_path)])
        assert code == 3
        assert (tmp_path / "solve_stats.json").exists()
        assert json.loads((tmp_path / "solve_stats.json").read_text())["converged"] is False

    @pytest.mark.filterwarnings("ignore:damping 1.99:UserWarning", "ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("flags, code, status, message", [
        (["--levels", "1"], 0, "converged", ""),
        (["--pt", "1", "--tau", "0.1", "--steps", "256", "--omega", "1.99"], 3, "diverged",
         "diverged after 2 iterations: residual above 1e+06 times its initial value"),
        (["--f", "const", "--f-param", "1e300"], 3, "non_finite",
         "stopped after 0 iterations: non-finite residual"),
    ], ids=["unmeasured-factor", "diverged", "overflow"])
    def test_stop_status_and_strict_stats_json(self, tmp_path, capsys, flags, code,
                                               status, message):
        assert main(["solve", *flags, "--out", str(tmp_path)]) == code
        assert capsys.readouterr().err.strip() == message
        text = (tmp_path / "solve_stats.json").read_text()
        assert json.loads(text, parse_constant=pytest.fail)["status"] == status

    def test_bad_flag_usage_error(self):
        assert main(["solve", "--pt", "zero"]) == 2

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    def test_non_finite_rhs_usage_error(self, tmp_path, capsys):
        # t**-1 is infinite at the first Radau node t = 0
        code = main(["solve", "--f", "poly", "--f-param", "-1", "--steps", "64",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "solve_stats.json").exists()


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pt": 0, "tau": 4.0, "steps": 64}))
        code = main(["analyze", "--config", str(cfg), "--tau", "1.0",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "analyze_pt0_nu1_1.csv")
        # flag overrides the file tau
        assert abs(float(rows[0]["tau"]) - 1.0) < 1e-15

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ptt": 1}))
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_missing_file_is_error(self, tmp_path):
        assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 2


class TestBench:
    def test_too_few_repetitions_usage_error(self, tmp_path):
        assert main(["bench", "--mode", "strong", "--workers", "1,2",
                     "--total-steps", "256", "--reps", "2",
                     "--out", str(tmp_path)]) == 2

    def test_strong_schema(self, tmp_path):
        code = main(["bench", "--mode", "strong", "--workers", "1,2",
                     "--total-steps", "256", "--tau", "0.01", "--eps", "1e-5",
                     "--reps", "3", "--pt", "0,1", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "bench_strong.csv")
        assert [r["workers"] for r in rows] == ["1", "2", "1", "2"]
        assert float(rows[0]["scaled"]) == 1.0
        table = read_csv(tmp_path / "bench_strong_table.csv")
        assert list(table[0]) == ["workers", "steps", "t_pt0", "t_pt1"]
        assert len(table) == 2

    def test_weak_ratio_column(self, tmp_path):
        code = main(["bench", "--mode", "weak", "--workers", "1,2",
                     "--steps-per-worker", "128", "--tau", "0.01",
                     "--eps", "1e-5", "--reps", "3", "--format", "json",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = json.loads((tmp_path / "bench_weak.json").read_text())
        assert rows[0]["scaled"] == 1.0
        assert rows[1]["steps"] == 256
