"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest perfbench

The end-to-end tests start the benchmark as a child process, as the
benchmark's users do; they take about a minute on a 2-core box.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD = "small-lp-mix"

COUNT_METRICS = (
    "sparse.matvec.calls",
    "sparse.rmatvec.calls",
    "sparse.spectral_norm_estimate.matvecs",
    "stepsize.adaptive_step.calls",
    "stepsize.trials",
    "pdhg.pdhg_step.calls",
    "restarts.normalized_duality_gap.calls",
    "restarts.fired.gap_decay",
    "restarts.fired.artificial",
    "restarts.fired.fixed_period",
    "termination.kkt_error.calls",
    "termination.certificate.calls",
    "solver.iterations",
    "solver.restarts",
    "solver.gap_evaluations",
)


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_prints(proc, expected):
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}") for line in proc.stdout.splitlines())
    return result


@pytest.fixture(scope="module")
def traced_runs():
    return [_result(_run("--workload", WORKLOAD, "--seed", "3", "--seconds", "1", "--trace", "1")) for _ in range(2)]


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_untraced_run_prints_every_end_to_end_metric_with_its_unit():
    proc = _run("--workload", WORKLOAD, "--seed", "3", "--seconds", "1", "--trace", "0")
    result = _assert_prints(proc, run.END_TO_END)
    assert result["metrics"]["ok_share"]["value"] == pytest.approx(1 - result["failed"] / result["attempted"])
    assert proc.stdout.count("failed op ") == result["failed"]
    assert "note op_s.tail: " in proc.stdout


def test_traced_run_prints_every_per_layer_metric_with_its_unit(traced_runs):
    proc_metrics = traced_runs[0]["metrics"]
    assert set(proc_metrics) == set(run.PER_LAYER)
    assert all(proc_metrics[name]["unit"] == unit for name, unit in run.PER_LAYER.items())
    assert proc_metrics["solver.iterations"]["value"] > 0
    assert proc_metrics["stepsize.trials"]["value"] >= proc_metrics["stepsize.adaptive_step.calls"]["value"]


def test_count_metrics_repeat_across_runs_of_one_seed(traced_runs):
    first, second = (r["metrics"] for r in traced_runs)
    for name in COUNT_METRICS:
        assert first[name]["value"] == second[name]["value"], name


def test_checker_rejects_a_wrong_objective_and_a_wrong_status():
    tol = 1e-8
    assert oracles.check_lp("optimal", 12.0 + 1e-8, "optimal", 12.0, tol).ok
    wrong_objective = oracles.check_lp("optimal", 12.0 * (1 + 1e-4), "optimal", 12.0, tol)
    assert not wrong_objective.ok and wrong_objective.wrong
    wrong_status = oracles.check_lp("optimal", 0.0, "primal_infeasible", None, tol)
    assert not wrong_status.ok and wrong_status.wrong
    no_verdict = oracles.check_lp("iteration_limit", 0.0, "dual_infeasible", None, tol)
    assert not no_verdict.ok and not no_verdict.wrong


def test_pagerank_checker_rejects_a_perturbed_vector():
    import scipy.sparse as sp

    # a directed 3-cycle: S is a permutation matrix, so x* is uniform
    s = sp.csr_matrix(np.roll(np.eye(3), 1, axis=0))
    g = (sp.eye(3) - 0.85 * s).tocsr()
    x_ref = oracles.pagerank_reference(g, 0.85)
    np.testing.assert_allclose(x_ref, np.full(3, 1 / 3), rtol=1e-14)
    assert oracles.check_pagerank("optimal", x_ref, g, 0.85, x_ref, 1e-8).ok
    bad = oracles.check_pagerank("optimal", x_ref + [1e-3, -1e-3, 0.0], g, 0.85, x_ref, 1e-8)
    assert not bad.ok and bad.wrong
    assert not oracles.check_pagerank("primal_infeasible", x_ref, g, 0.85, x_ref, 1e-8).ok


def test_tracer_restores_every_wrapped_name():
    pl = run.import_package()
    owners = {path: getattr(pl, path) if path else pl for path, _, _ in tracer.WRAPPED_FUNCTIONS}
    before = {(path, attr): owners[path].__dict__[attr] for path, attr, _ in tracer.WRAPPED_FUNCTIONS}
    methods = {attr: pl.SparseMatrix.__dict__[attr] for attr, _ in tracer.WRAPPED_METHODS}
    t = tracer.Tracer()
    t.install(pl)
    try:
        assert all(owners[p].__dict__[a] is not fn for (p, a), fn in before.items())
        pl.solve(pl.generate_bilinear_toy())
    finally:
        t.uninstall()
    assert all(owners[p].__dict__[a] is fn for (p, a), fn in before.items())
    assert all(pl.SparseMatrix.__dict__[a] is fn for a, fn in methods.items())
    layers, top_level = t.layers()
    assert layers["solver.solve"]["calls"] == 1
    assert layers["solver.solve"]["total_s"] == pytest.approx(top_level)
    assert layers["sparse.matvec"]["self_s"] == pytest.approx(layers["sparse.matvec"]["total_s"])


def test_fails_without_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOAD, "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
