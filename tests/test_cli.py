import csv
import importlib
import io
import json
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import pdhg_lp as pl
from pdhg_lp.cli import build_parser, main, shifted_geomean
from pdhg_lp.restarts import RESTART_SCHEMES
from pdhg_lp.scaling import SCALING_MODES
from pdhg_lp.stepsize import STEP_MODES, WEIGHT_MODES


def run_cli(argv, stdin_text=None, monkeypatch=None):
    """Invoke the CLI in-process, capturing stdout/stderr and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        assert monkeypatch is not None
        # a text stream over bytes, like the real one: the CLI reads its .buffer
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin_text.encode())))
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def toy_mps(tmp_path):
    path = tmp_path / "toy.mps"
    path.write_text(pl.write_mps(pl.generate_bilinear_toy()))
    return str(path)


class TestGenerate:
    def test_toy_to_stdout_parses_back(self):
        code, out, _ = run_cli(["generate", "toy"])
        assert code == 0
        problem = pl.parse_mps(out)
        np.testing.assert_array_equal(problem.eq_rhs, [3.0])

    def test_pagerank_deterministic(self, tmp_path):
        a = tmp_path / "a.mps"
        b = tmp_path / "b.mps"
        assert main(["generate", "pagerank", "--nodes", "40", "--seed", "3", "--out", str(a)]) == 0
        assert main(["generate", "pagerank", "--nodes", "40", "--seed", "3", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        problem = pl.read_mps(a)
        assert problem.num_variables == 40
        assert problem.nnz == 8 * 40 - 18

    def test_pagerank_flags(self, tmp_path):
        path = tmp_path / "p.mps"
        code = main(
            ["generate", "pagerank", "--nodes", "12", "--degree", "2",
             "--damping", "0.7", "--seed", "5", "--out", str(path)]
        )
        assert code == 0
        problem = pl.read_mps(path)
        assert problem.name == "pagerank_n12_d2_seed5"
        np.testing.assert_allclose(problem.ineq_rhs, (1 - 0.7) / 12)

    def test_infeasible_toys(self):
        for kind in ("primal-infeasible-toy", "dual-infeasible-toy"):
            code, out, _ = run_cli(["generate", kind])
            assert code == 0
            pl.parse_mps(out)

    def test_bad_spec_exits_one(self):
        code, _, err = run_cli(["generate", "pagerank", "--nodes", "1"])
        assert code == 1
        assert "num_nodes" in err

    def test_negative_seed_exits_one(self):
        code, out, err = run_cli(["generate", "pagerank", "--nodes", "10", "--seed", "-1"])
        assert code == 1
        assert out == ""
        assert err.startswith("pdhg-lp: ") and "seed" in err


class TestSolve:
    def test_optimal_exit_zero_and_json_report(self, toy_mps):
        code, out, _ = run_cli(["solve", toy_mps])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "optimal"
        assert doc["objective"]["primal"] == pytest.approx(0.0, abs=1e-8)
        assert doc["config"]["restart"]["scheme"] == "adaptive"
        assert "period" not in doc["config"]["restart"]
        assert doc["config"]["step"]["mode"] == "halpern"
        assert doc["config"]["step"]["fixed_step"] is None

    def test_flags_echoed_in_config(self, toy_mps):
        code, out, _ = run_cli(
            ["solve", toy_mps, "--tolerance", "1e-4", "--scaling", "none",
             "--restart", "none", "--step-size", "fixed=0.5",
             "--primal-weight", "fixed", "--max-iters", "5000"]
        )
        assert code == 0
        config = json.loads(out)["config"]
        assert config["termination"]["tol_optimal"] == 1e-4
        assert config["scaling"] == "none"
        assert config["restart"]["scheme"] == "none"
        assert config["step"]["mode"] == "fixed" and config["step"]["fixed_step"] == 0.5
        assert config["weight"] == {"mode": "fixed"}
        assert config["termination"]["iteration_limit"] == 5000

    def test_flag_defaults_are_the_config_defaults(self, toy_mps):
        code, out, _ = run_cli(["solve", toy_mps])
        assert code == 0
        assert json.loads(out)["config"] == pl.config_flags(pl.SolverConfig())

    def test_every_solver_flag_reaches_the_config(self, toy_mps):
        code, out, _ = run_cli(
            ["solve", toy_mps, "--tolerance", "1e-5", "--max-iters", "4000", "--time-limit-sec", "30",
             "--scaling", "ruiz+pc", "--restart", "none",
             "--step-size", "fixed", "--primal-weight", "fixed", "--log-every", "1000"]
        )
        assert code == 0
        expected = pl.SolverConfig(
            termination=pl.TerminationCriteria(tol_optimal=1e-5, iteration_limit=4000, time_limit_sec=30.0),
            scaling="ruiz+pc",
            restart=pl.RestartConfig(scheme="none"),
            step=pl.StepPolicy(mode="fixed"),
            weight=pl.WeightPolicy(mode="fixed"),
            log_interval=1000,
        )
        assert pl.config_from_flags(json.loads(out)["config"]) == expected

    @pytest.mark.parametrize("mode", ["halpern", "adaptive", "fixed"])
    def test_every_step_mode_reaches_the_config(self, toy_mps, mode):
        code, out, _ = run_cli(["solve", toy_mps, "--step-size", mode])
        assert code == 0
        assert json.loads(out)["config"]["step"] == {"mode": mode, "fixed_step": None}

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--restart", "sometimes"], "argument --restart: invalid choice: 'sometimes'"),
            (["--restart", "fixed"], "argument --restart: invalid choice: 'fixed'"),
            (["--restart", "fixed=128"], "argument --restart: invalid choice: 'fixed=128'"),
            (["--step-size", "fixed=abc"], "bad step_size flag 'fixed=abc'"),
            (["--primal-weight", "fixed="], "argument --primal-weight: invalid choice: 'fixed='"),
            (["--step-size", "big"], "bad step_size flag 'big'"),
            (["--primal-weight", "none"], "argument --primal-weight: invalid choice: 'none'"),
            (["--time-limit-sec", "nan"], "config termination: time_limit_sec must be a number"),
            (["--primal-weight", "halpern"], "argument --primal-weight: invalid choice: 'halpern'"),
            # the fixed weight is 1, and the flag takes no value
            (["--primal-weight", "fixed=2.0"], "argument --primal-weight: invalid choice: 'fixed=2.0'"),
        ],
    )
    def test_bad_mode_flag_exits_one(self, toy_mps, flags, message):
        code, out, err = run_cli(["solve", toy_mps, *flags])
        assert code == 1
        assert out == ""
        assert message in err

    def test_include_solution_with_text_report_exits_one(self, tmp_path):
        # refused before the input is read, so a missing file is not what it names
        argv = ["solve", str(tmp_path / "missing.mps"), "--report-format", "text", "--include-solution"]
        code, out, err = run_cli(argv)
        assert code == 1
        assert out == ""
        assert err.startswith("pdhg-lp: ")
        assert "--include-solution" in err and "--report-format text" in err and "missing.mps" not in err

    @pytest.mark.parametrize(
        "flags",
        [["--check-interval", "32"], ["--infeasible-tolerance", "1e-9"], ["--no-infeasibility-detection"]],
    )
    def test_removed_flag_exits_one(self, toy_mps, flags):
        # the check interval, the infeasibility tolerance and detection are
        # now solver.CHECK_INTERVAL, solver.TOL_INFEASIBLE and always on
        code, out, err = run_cli(["solve", toy_mps, *flags])
        assert code == 1
        assert out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in err

    def test_usage_lists_every_mode(self):
        # each mode flag's {...} in the usage names its modes in order, plus
        # --step-size's "fixed=S" sugar, the one flag that sets a value too
        code, out, _ = run_cli(["solve", "--help"])
        assert code == 0
        usage = " ".join(out.split("\n\n")[0].split())
        modes = {
            "--restart": RESTART_SCHEMES,
            "--step-size": STEP_MODES,
            "--primal-weight": WEIGHT_MODES,
            "--scaling": SCALING_MODES,
        }
        for flag, names in modes.items():
            choices = re.search(re.escape(flag) + r" \{([^}]*)\}", usage).group(1).split(",")
            assert [c for c in choices if "=" not in c] == list(names), flag
            assert [c for c in choices if "=" in c] == ["fixed=S"] * (flag == "--step-size"), flag

    def test_readme_names_every_solve_flag(self):
        # every solve option is named somewhere in the README, and every
        # flag that the README's CLI paragraph names is a solve option
        code, out, _ = run_cli(["solve", "--help"])
        assert code == 0
        options = set(re.findall(r"--[a-z][a-z-]*", out)) - {"--help"}
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        assert sorted(flag for flag in options if f"`{flag}" not in readme) == []
        paragraph = re.search(r"\n`solve` writes a JSON report.*?\n\n", readme, re.S).group(0)
        assert sorted(set(re.findall(r"--[a-z][a-z-]*", paragraph)) - options) == []

    def test_stdin_input(self, monkeypatch):
        text = pl.write_mps(pl.generate_bilinear_toy())
        code, out, _ = run_cli(["solve", "-"], stdin_text=text, monkeypatch=monkeypatch)
        assert code == 0
        assert json.loads(out)["status"] == "optimal"

    def test_text_report(self, toy_mps):
        code, out, _ = run_cli(["solve", toy_mps, "--report-format", "text"])
        assert code == 0
        assert "status            optimal" in out

    def test_infeasible_exit_two(self, tmp_path):
        path = tmp_path / "inf.mps"
        path.write_text(pl.write_mps(pl.generate_primal_infeasible_toy()))
        code, out, _ = run_cli(["solve", str(path)])
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "primal_infeasible"
        assert doc["certificate"]["margin"] >= 1e-8

    def test_iteration_limit_exit_three(self, toy_mps):
        code, out, _ = run_cli(
            ["solve", toy_mps, "--max-iters", "2", "--tolerance", "1e-16"]
        )
        assert code == 3
        assert json.loads(out)["status"] == "iteration_limit"

    def test_numerical_error_exit_four(self, toy_mps):
        # an enormous fixed step overflows immediately
        code, out, _ = run_cli(
            ["solve", toy_mps, "--scaling", "none", "--step-size", "fixed=1e200",
             "--restart", "none", "--max-iters", "100000"]
        )
        assert code == 4
        assert json.loads(out)["status"] == "numerical_error"

    def test_missing_file_exits_one(self):
        code, _, err = run_cli(["solve", "/nonexistent/file.mps"])
        assert code == 1
        assert "file.mps" in err

    def test_bad_mps_exits_one(self, tmp_path):
        path = tmp_path / "bad.mps"
        path.write_text("NOT AN MPS FILE\n")
        code, _, err = run_cli(["solve", str(path)])
        assert code == 1
        assert "line" in err

    @pytest.mark.parametrize("value", ["1e400", "inf", "nan"])
    def test_non_finite_coefficient_exits_one(self, tmp_path, value):
        # the reader finds it as it builds the matrix, before any solve
        path = tmp_path / "nonfinite.mps"
        path.write_text(pl.write_mps(pl.generate_bilinear_toy()).replace("E0         1", f"E0         {value}"))
        code, out, err = run_cli(["solve", str(path)])
        assert code == 1
        assert out == ""
        assert err == "pdhg-lp: invalid problem: matrix contains non-finite entries\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            # the reader rejects a cost that validate rejects
            ("NAME C\nROWS\n N  OBJ\nCOLUMNS\n    X1  OBJ  inf\nENDATA\n", "c contains non-finite entries"),
            # crossed bounds read back, and solve names them with plain numbers
            (pl.write_mps(pl.LpProblem(c=[1.0], lower=[2.0], upper=[1.0])), "lower[0]=2.0 exceeds upper[0]=1.0"),
        ],
        ids=["infinite_cost", "crossed_bounds"],
    )
    def test_invalid_problem_exits_one(self, tmp_path, text, message):
        path = tmp_path / "invalid.mps"
        path.write_text(text)
        code, out, err = run_cli(["solve", str(path)])
        assert (code, out, err) == (1, "", f"pdhg-lp: invalid problem: {message}\n")

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_objective_offset_exits_one(self, tmp_path, value):
        path = tmp_path / "offset.mps"
        path.write_text(f"NAME C\nROWS\n N  OBJ\nCOLUMNS\n    X1  OBJ  1.0\nRHS\n    RHS  OBJ  {value}\nENDATA\n")
        code, out, err = run_cli(["solve", str(path)])
        assert (code, out, err) == (1, "", "pdhg-lp: invalid problem: objective_offset is not finite\n")

    def test_usage_error_exits_one(self):
        code, _, _ = run_cli([])
        assert code == 1
        code, _, _ = run_cli(["solve", "x.mps", "--no-such-flag"])
        assert code == 1
        code, _, _ = run_cli(["frobnicate"])
        assert code == 1

    def test_report_to_file_and_solution_npz(self, toy_mps, tmp_path):
        report_path = tmp_path / "report.json"
        npz_path = tmp_path / "solution.npz"
        code, out, _ = run_cli(
            ["solve", toy_mps, "--out", str(report_path), "--solution-out", str(npz_path)]
        )
        assert code == 0
        assert out == ""
        doc = json.loads(report_path.read_text())
        assert doc["status"] == "optimal"
        data = np.load(npz_path)
        np.testing.assert_allclose(data["x"], [3.0], atol=1e-6)
        assert set(data.files) >= {"x", "y", "reduced_costs"}

    def test_include_solution_inline(self, toy_mps):
        code, out, _ = run_cli(["solve", toy_mps, "--include-solution"])
        assert code == 0
        doc = json.loads(out)
        assert doc["solution"]["x"] == pytest.approx([3.0], abs=1e-6)


def test_readme_quick_start_runs():
    # the first Python block of the README, the library quick start, run as
    # written in a namespace of its own
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    assert readme.index("## Quick start (library)") < readme.index(code)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "readme_quick_start"})
    assert out.getvalue().split()[0] == pl.STATUS_OPTIMAL


def test_readme_cli_quick_start_parses():
    # every pdhg-lp command of the README's CLI quick start, pipes and line
    # continuations included, is one the parser takes
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Quick start \(CLI\)\n\n```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line for line in block.replace("\\\n", " ").splitlines() if not line.startswith("#")]
    commands = [shlex.split(part) for line in lines for part in line.split("|") if part.strip()]
    assert [argv[:2] for argv in commands] == [
        ["pdhg-lp", "generate"], ["pdhg-lp", "solve"], ["pdhg-lp", "generate"], ["pdhg-lp", "solve"], ["pdhg-lp", "bench"],
    ]
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_readme_constants_exist():
    # every `module.NAME` constant that the README names is an attribute of
    # that pdhg_lp module
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    named = set(re.findall(r"`([a-z_]+)\.([A-Z][A-Z0-9_]*)`", readme))
    assert {("solver", "CHECK_INTERVAL"), ("solver", "TOL_INFEASIBLE")} <= named
    missing = [f"{module}.{name}" for module, name in sorted(named)
               if not hasattr(importlib.import_module(f"pdhg_lp.{module}"), name)]
    assert missing == []


class TestBench:
    @pytest.fixture
    def instances(self, tmp_path):
        directory = tmp_path / "cases"
        directory.mkdir()
        for seed in (1, 2):
            spec = pl.PagerankSpec(num_nodes=30, seed=seed)
            (directory / f"pr{seed}.mps").write_text(pl.write_mps(pl.generate_pagerank(spec)))
        return directory

    def test_csv_schema_and_summary(self, instances, tmp_path):
        csv_path = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            ["bench", str(instances), "--configs", "vanilla,full",
             "--tolerance", "1e-6", "--out", str(csv_path)]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "instance,config,status,iterations,restarts,matvecs,wall_sec,rel_kkt_final"
        rows = list(csv.DictReader(lines))
        assert len(rows) == 4  # 2 instances x 2 configs
        assert set(rows[0]) == {
            "instance", "config", "status", "iterations", "restarts",
            "matvecs", "wall_sec", "rel_kkt_final",
        }
        for row in rows:
            assert row["status"] == "optimal"
            assert int(row["iterations"]) > 0
        assert "geo iters" in out
        assert "vanilla" in out and "full" in out

    def test_parallel_jobs_match_serial(self, instances, tmp_path):
        a = tmp_path / "serial.csv"
        b = tmp_path / "parallel.csv"
        base = ["bench", str(instances), "--configs", "full", "--tolerance", "1e-6"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b), "--jobs", "2"]) == 0

        def stable(path):
            rows = list(csv.DictReader(path.read_text().splitlines()))
            return sorted(
                (r["instance"], r["config"], r["status"], r["iterations"]) for r in rows
            )

        assert stable(a) == stable(b)

    @pytest.mark.parametrize("jobs, configs, workers", [(64, "full", 2), (3, "vanilla,full", 3)])
    def test_pool_starts_no_more_workers_than_tasks(self, instances, tmp_path, monkeypatch, jobs, configs, workers):
        # Under the fork start method the pool starts all its workers at the
        # first submit, so it asks for at most one per task (instance and
        # config).  A recording stand-in runs the tasks in-process.
        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        csv_path = tmp_path / "bench.csv"
        assert main(["bench", str(instances), "--configs", configs, "--jobs", str(jobs), "--out", str(csv_path)]) == 0
        assert asked == [workers]
        assert len(list(csv.DictReader(csv_path.read_text().splitlines()))) == 2 * len(configs.split(","))

    def test_repeated_config_runs_once(self, instances, tmp_path):
        # a name given twice runs once per instance, in the order first given
        csv_path = tmp_path / "bench.csv"
        code, out, _ = run_cli(
            ["bench", str(instances), "--configs", "full,vanilla, full", "--tolerance", "1e-6", "--out", str(csv_path)]
        )
        assert code == 0
        rows = list(csv.DictReader(csv_path.read_text().splitlines()))
        assert [r["config"] for r in rows] == ["full", "vanilla"] * 2
        solved = [line.split()[:2] for line in out.splitlines() if line.startswith(("full ", "vanilla "))]
        assert solved[:2] == [["full", "2"], ["vanilla", "2"]]

    def test_explicit_file_inputs(self, instances):
        files = sorted(str(p) for p in instances.iterdir())
        code, out, _ = run_cli(["bench", *files, "--configs", "scaled", "--tolerance", "1e-5"])
        assert code == 0
        assert "scaled" in out

    def test_shift_is_not_an_option(self, instances):
        # the geometric means' shift is the constant BENCH_SHIFT
        code, _, err = run_cli(["bench", str(instances), "--shift", "5"])
        assert code == 1
        assert "unrecognized arguments: --shift 5" in err

    def test_unknown_config_rejected(self, instances):
        code, _, err = run_cli(["bench", str(instances), "--configs", "warp"])
        assert code == 1
        assert "warp" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-iters", "-5", "iteration_limit must be an integer >= 0, got -5"),
            ("--tolerance", "nan", "tol_optimal must be >= 0, got nan"),
            ("--time-limit-sec", "nan", "time_limit_sec must be a number or an infinity, got nan"),
            ("--jobs", "0", "--jobs must be at least 1, got 0"),
        ],
    )
    def test_bad_number_flag_fails_the_command(self, instances, tmp_path, flag, value, message):
        # the configs are built before any instance is read, so a bad value
        # exits 1 with one message and writes no CSV of error rows
        csv_path = tmp_path / "bench.csv"
        code, out, err = run_cli(["bench", str(instances), "--configs", "full", flag, value, "--out", str(csv_path)])
        assert (code, out, err) == (1, "", f"pdhg-lp: {message}\n")
        assert not csv_path.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("configs", [",", " , ,", ""])
    def test_empty_config_list_is_a_usage_error(self, instances, tmp_path, jobs, configs):
        # refused before any work: no pool, no CSV of a header alone
        csv_path = tmp_path / "bench.csv"
        argv = ["bench", str(instances), "--configs", configs, "--jobs", jobs, "--out", str(csv_path)]
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err == f"pdhg-lp: --configs names no bench config: {configs!r}\n"
        assert not csv_path.exists()

    def test_empty_input_dir(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = run_cli(["bench", str(empty)])
        assert code == 1


class TestGeomean:
    def test_shifted_geomean_formula(self):
        # exp(mean(log(v + s))) - s, the standard benchmark aggregate
        vals = [10.0, 1000.0]
        want = np.exp(np.mean(np.log(np.array(vals) + 10.0))) - 10.0
        assert shifted_geomean(vals, 10.0) == pytest.approx(want)

    def test_empty_is_nan(self):
        assert np.isnan(shifted_geomean([], 10.0))
