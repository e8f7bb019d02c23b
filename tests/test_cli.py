import contextlib
import csv
import io
import json
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timemg import cli
from timemg.checks import Result
from timemg.cli import main
from timemg.dg import BasisSpec, rhs_moments
from timemg.fourier import rho_profile
from timemg.multigrid import TimeHierarchy, solve


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def untimed(path):
    """A written file's bytes, or the JSON of one with measured times
    without them (solve's phase times, bench's times and speedups; a row
    keeps its count of samples)."""
    if not path.name.startswith(("solve_stats", "bench_")):
        return path.read_bytes()
    data = json.loads(path.read_text())

    def keep(row):
        row = {k: v for k, v in row.items()
               if k not in ("times", "median_time", "scaled") and k[:4] != "t_pt"}
        if "samples" in row:
            row["samples"] = len(row["samples"])
        return row

    return keep(data) if isinstance(data, dict) else [keep(row) for row in data]


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

    @pytest.mark.parametrize("pt, tau, fmt, clear", [
        (3, 1e-6, "json", False), (1, 1e-5, "json", False), (3, 1e-3, "csv", False),
        (0, 1e-6, "json", True), (3, 1.0, "csv", True)])
    def test_theta_star_only_where_the_peak_stands_clear(self, tmp_path, pt, tau, fmt, clear):
        # at small tau the p_t >= 1 radius profile is flat to rounding near its
        # peak, so its argmax names no frequency: theta_star is null there
        assert main(["analyze", "--pt", str(pt), "--tau", str(tau), "--format", fmt,
                     "--out", str(tmp_path)]) == 0
        path = tmp_path / f"analyze_pt{pt}_nu1_1.{fmt}"
        row = json.loads(path.read_text())[0] if fmt == "json" else read_csv(path)[0]
        low, radii = rho_profile(BasisSpec(pt), tau, 1024)
        k = int(np.argmax(radii))
        margin = radii[k] - radii[np.abs(low) != abs(low[k])].max()
        assert (margin >= cli.PEAK_MARGIN * radii[k]) == clear
        if not clear:
            assert row["theta_star"] in (None, "")
        else:
            assert float(row["theta_star"]) == low[k]

    def test_empty_range_usage_error(self, tmp_path):
        code = main(["analyze", "--tau-min", "10", "--tau-max", "1",
                     "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("flags, value", [
        (["--tau", "nan"], "nan"), (["--tau", "inf"], "inf"), (["--tau", "0"], "0.0"),
        (["--tau-min", "0"], "0.0"), (["--tau-max", "inf"], "inf"),
        (["--tau-min", "nan"], "nan"),
    ])
    def test_non_finite_or_non_positive_tau_usage_error(self, tmp_path, capsys, recwarn,
                                                        flags, value):
        assert main(["analyze", *flags, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: tau must be finite and positive, got {value}\n"
        assert [str(w.message) for w in recwarn] == []
        assert list(tmp_path.iterdir()) == []

    def test_unknown_flag_usage_error(self):
        assert main(["analyze", "--does-not-exist", "1"]) == 2

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_bad_tau_points_usage_error(self, tmp_path, capsys, points):
        # named, not reported as an empty range
        assert main(["analyze", "--tau-points", points, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            f"error: tau_points must be an integer >= 1, got {points}\n"

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

    def test_compare_sequential_reports_time_ratio(self, tmp_path, capsys):
        code = main(["solve", "--pt", "1", "--steps", "64", "--f", "sin",
                     "--compare-sequential", "--out", str(tmp_path)])
        assert code == 0
        line = [l for l in capsys.readouterr().out.splitlines() if "time ratio" in l][0]
        match = re.fullmatch(r"exact solve (\S+) s, multigrid solve (\S+) s: "
                             r"multigrid/exact time ratio (\S+)", line)
        exact_s, solve_s, ratio = (float(v) for v in match.groups())
        assert exact_s > 0.0 and solve_s > 0.0
        assert ratio == pytest.approx(solve_s / exact_s, rel=2e-3, abs=0.05)

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
        (["--pt", "1", "--tau", "0.1", "--steps", "256", "--omega", "1.99", "--levels", "max"],
         3, "diverged",
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

    @pytest.mark.parametrize("flags, n_levels", [([], 2), (["--levels", "max"], "max")])
    def test_levels_flag_sets_hierarchy_depth(self, tmp_path, flags, n_levels):
        # the written solution is bitwise the library solve on the hierarchy
        # built with the flag's depth, and the two depths give different bits
        basis, n, tau = BasisSpec(1), 256, 1.0 / 256
        assert main(["solve", "--pt", "1", "--steps", str(n), "--f", "sin", *flags,
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "solve_solution.csv")
        got = np.array([[float(r["c0"]), float(r["c1"])] for r in rows])
        rhs = rhs_moments(np.sin, basis, tau, n, u0=1.0)
        want = {depth: solve(TimeHierarchy.build(basis, tau, n, n_levels=depth), rhs)[0]
                for depth in (2, "max")}
        assert got.tobytes() == want[n_levels].tobytes()
        assert want[2].tobytes() != want["max"].tobytes()

    def test_bad_flag_usage_error(self):
        assert main(["solve", "--pt", "zero"]) == 2

    @pytest.mark.parametrize("value", ["2.5", "true", "0"])
    def test_bad_levels_usage_error(self, tmp_path, capsys, value):
        # argparse names the flag; the count is never truncated to an int
        assert main(["solve", "--levels", value, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --levels: levels must be 'max' or an integer >= 1, got '{value}'\n")
        assert not (tmp_path / "solve_stats.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tau_usage_error(self, tmp_path, capsys, recwarn, value):
        assert main(["solve", "--tau", value, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == \
            f"error: time step must be finite and positive, got {value}\n"
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("steps", ["0", "-4"])
    def test_too_few_steps_usage_error(self, tmp_path, capsys, steps):
        # rejected before the step size T / steps is formed, naming the flag
        assert main(["solve", "--steps", steps, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --steps must be at least 2, got {steps}\n"
        assert "Traceback" not in err
        assert not (tmp_path / "solve_stats.json").exists()

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

    @pytest.mark.parametrize("key", ["config", "help", "func", "parser", "command"])
    def test_non_flag_names_are_unknown_keys(self, tmp_path, capsys, key):
        # only the subcommand's own flags are keys: not --config or --help,
        # nor the names the parser sets besides the flags
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: None}))
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: unknown config keys: ['{key}']\n"
        assert not (tmp_path / "out").exists()

    def test_missing_file_is_error(self, tmp_path):
        assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command, text, message", [
        ("analyze", "5", "config file {cfg} must hold a JSON object"),
        ("solve", "[]", "config file {cfg} must hold a JSON object"),
        ("analyze", '{"steps": "x"}', "config key 'steps': invalid value \"x\""),
        ("analyze", '{"tau_points": "7"}', "config key 'tau_points': invalid value \"7\""),
        ("solve", '{"workers": 2.5}', "config key 'workers': invalid value 2.5"),
        ("solve", '{"nu1": true}', "config key 'nu1': invalid value true"),
        ("solve", '{"omega": "0.7"}', "config key 'omega': invalid value \"0.7\""),
        ("solve", '{"levels": 2.5}', "config key 'levels': invalid value 2.5"),
        ("solve", '{"levels": true}', "config key 'levels': invalid value true"),
        ("solve", '{"levels": 0}', "config key 'levels': invalid value 0"),
        ("solve", '{"compare_sequential": "no"}',
         "config key 'compare_sequential': invalid value \"no\""),
        ("solve", '{"format": "xml"}',
         "config key 'format': invalid value \"xml\" (choose from csv, json)"),
        ("bench", '{"mode": "fast"}',
         "config key 'mode': invalid value \"fast\" (choose from strong, weak)"),
    ], ids=["not-an-object", "list", "text-for-int", "quoted-int", "fractional-int",
            "bool-for-int", "quoted-float", "fractional-levels", "bool-for-levels", "zero-levels",
            "text-for-switch", "format-choice", "mode-choice"])
    def test_malformed_value_usage_error(self, tmp_path, capsys, command, text, message):
        # checked like the flag's own text, before any file is written
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: " + message.format(cfg=cfg) + "\n"
        assert not out.exists()

    def test_file_values_as_their_flags(self, tmp_path):
        # numbers, text, a switch and a null default read like the flags
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pt": 1, "steps": 64, "tau": None, "T": 2, "omega": 0.7,
                                   "levels": "max", "workers": 2,
                                   "compare_sequential": True, "format": "json"}))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
        assert main(["solve", "--pt", "1", "--steps", "64", "--T", "2", "--omega", "0.7",
                     "--levels", "max", "--workers", "2", "--compare-sequential",
                     "--format", "json", "--out", str(tmp_path / "flags")]) == 0
        name = "solve_solution.json"
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()

    @pytest.mark.parametrize("command, values", [
        ("analyze", {"pt": 1, "nu1": 2, "nu2": 3, "omega": 0.7, "steps": 64, "tau": None,
                     "tau_min": 0.5, "tau_max": 2, "tau_points": 3, "format": "json"}),
        ("solve", {"pt": 1, "steps": 128, "T": 2, "tau": 0.03, "u0": 0.5, "f": "sin",
                   "f_param": 3, "nu1": 1, "nu2": 3, "omega": 0.7, "levels": "max",
                   "eps": 1e-9, "seed": 3, "workers": 2, "max_iters": 40,
                   "compare_sequential": True, "format": "json"}),
        *(("bench", {"mode": mode, "workers": "1,2", "steps_per_worker": 64,
                     "total_steps": 128, "pt": "0,1", "tau": 0.01, "eps": 1e-5, "reps": 4,
                     "seed": 5, "format": "json"}) for mode in ("weak", "strong")),
    ], ids=["analyze", "solve", "bench-weak", "bench-strong"])
    def test_every_key_as_its_flag(self, tmp_path, command, values):
        # a file setting every flag's dest writes what the flags write.  The
        # values are not the defaults, so a key the file drops shows, except
        # bench's mode "strong", which the weak case covers; each mode reads
        # one of bench's step counts.  null is the default None, which no
        # flag spells.
        values = {**values, "out": str(tmp_path / "file")}
        keys = set(vars(cli.build_parser().parse_args([command])))
        assert set(values) == keys - {"command", "func", "parser", "config"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        flags = [command, "--out", str(tmp_path / "flags")]
        for key, value in values.items():
            flag = "--" + key.replace("_", "-")
            if value is True:
                flags.append(flag)
            elif value is not None and key != "out":
                flags += [flag, str(value)]
        assert main([command, "--config", str(cfg)]) == 0
        assert main(flags) == 0
        file, flags = (sorted((tmp_path / side).iterdir()) for side in ("file", "flags"))
        assert [p.name for p in file] == [p.name for p in flags]
        assert [untimed(p) for p in file] == [untimed(p) for p in flags]


class TestBench:
    def test_too_few_repetitions_usage_error(self, tmp_path):
        assert main(["bench", "--mode", "strong", "--workers", "1,2",
                     "--total-steps", "256", "--reps", "2",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("pt", ["", ","])
    def test_empty_degree_list_usage_error(self, tmp_path, capsys, pt):
        assert main(["bench", "--mode", "strong", "--workers", "1,2",
                     "--total-steps", "256", "--pt", pt, "--out", str(tmp_path)]) == 2
        assert "at least one polynomial degree" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize("flag, value", [("--workers", "1,x"), ("--pt", "0,x")])
    def test_bad_int_list_names_its_flag(self, tmp_path, capsys, flag, value):
        # refused where it is parsed, before any point runs
        assert main(["bench", flag, value, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected comma-separated integers, got '{value}'" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("key", ["workers", "pt"])
    def test_json_list_config_value_names_its_key(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: [1, 2]}))
        out = tmp_path / "out"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config key '{key}': invalid value [1, 2]\n"
        assert not out.exists()

    def test_number_config_values_for_int_lists(self, tmp_path):
        # a JSON number is one entry of the list, like the flag's "2"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 2, "pt": 1, "total_steps": 256, "tau": 0.01,
                                   "eps": 1e-5, "format": "json"}))
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "bench_strong.json").read_text())
        assert [(r["workers"], r["p_t"]) for r in rows] == [(2, 1)]


# small, fast commands; each draw overrides one of their flags (degree 1,
# where a tau below the analyzer's floor made a singular coarse symbol)
ARGV_BASE = {"analyze": ["analyze", "--pt", "1", "--tau", "1", "--steps", "16"],
             "solve": ["solve", "--steps", "16"],
             "bench": ["bench", "--workers", "1", "--total-steps", "64",
                       "--steps-per-worker", "32", "--reps", "3"]}
ARGV_FLAGS = {command: sorted(a.dest for a in cli.build_parser().parse_args(argv).parser._actions
                              if a.option_strings and a.nargs != 0
                              and a.dest not in ("config", "out", "format"))
              for command, argv in ARGV_BASE.items()}
# good or bad text: negative, float, bool-like, non-number, empty, the
# analyzer's tau floor; the only integers are 1-4, which as a worker count
# start at most 4 threads
ARGV_VALUES = ["-1", "-3", "0", "1", "2", "3", "4", "2.5", "true", "True", "abc", "", "nan",
               "inf", "1e-16"]
# names a message may give instead of the flag or key: the parameter the value feeds
ARGV_ALIASES = {"pt": ("p_t", "polynomial degree"), "omega": ("damping",),
                "reps": ("repetitions",), "steps": ("n_steps",), "workers": ("worker count",),
                "tau": ("time step",), "T": ("time step",)}


@st.composite
def argv_overrides(draw):
    command = draw(st.sampled_from(sorted(ARGV_BASE)))
    return (command, draw(st.sampled_from(ARGV_FLAGS[command])),
            draw(st.sampled_from(ARGV_VALUES)), draw(st.booleans()))


@pytest.mark.filterwarnings("ignore::UserWarning")  # oversubscribed teams, damping in (1, 2)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv_overrides())
@example(("analyze", "nu1", "-1", False))
@example(("bench", "total_steps", "1", False))
@example(("analyze", "tau", "1e-16", False))
def test_drawn_flag_value_is_used_or_refused_by_name(override):
    command, dest, text, as_key = override
    flag = "--" + dest.replace("_", "-")
    argv = list(ARGV_BASE[command])
    with tempfile.TemporaryDirectory() as tmp:
        if as_key:
            # an explicit flag wins over the file, so the base drops it
            if flag in argv:
                del argv[argv.index(flag):argv.index(flag) + 2]
            try:
                value = json.loads(text)
            except ValueError:
                value = text
            with open(f"{tmp}/cfg.json", "w") as fh:
                json.dump({dest: value}, fh)
            argv += ["--config", f"{tmp}/cfg.json"]
        else:
            argv += [flag, text]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--out", tmp])
    err = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err, (argv, err)
    if code == 2:
        # the last line is the error; argparse's usage line above it names every flag
        message = err.strip().splitlines()[-1]
        names = (flag, dest) + ARGV_ALIASES.get(dest, ())
        assert any(re.search(rf"(?<![\w-]){re.escape(n)}(?![\w-])", message)
                   for n in names), (argv, message)
