"""pdhg-lp benchmark: time to solution end to end, and per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
``--workload all`` runs every workload, one child process each.

With ``--trace 0`` the run builds the workload's inputs, computes the
references, warms up, then times a fixed number of passes over the
workload's operations (``--seconds`` divided by the workload's nominal pass
time) and reports the end-to-end metrics.  With ``--trace 1`` it times one
untraced pass and then one pass under the outside-in tracer, and reports
the per-layer metrics; a traced run never reports end-to-end numbers.
Every operation's output is checked against an independent reference.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of
the run (machine and input facts, every operation, every metric) goes to
``.perfbench_out/`` in the checkout, and a traced run also writes its spans
there.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3  # set-up is timed this many times (once here, the rest in fresh processes)
TAIL_BEYOND = 10  # the tail percentile has at least this many samples beyond it
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_s.p50": "s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}
# ok_share is 1 - failed_share, so that no bounded metric is 0 on a clean
# run; failed_share is printed as a note.  op_s.tail is printed as a note and
# recorded but has no bound: it is one order statistic of a few noisy
# samples of the costliest operations, and its spread over ten runs (0.33 on
# small-lp-mix) exceeds the largest bound a metric may have (0.25).
PER_LAYER = {
    "sparse.matvec.calls": "count",
    "sparse.rmatvec.calls": "count",
    "sparse.matvec.self_s": "s",
    "sparse.rmatvec.self_s": "s",
    "sparse.matvec.bytes_computed": "bytes",
    "stepsize.adaptive_step.calls": "count",
    "stepsize.adaptive_step.self_s": "s",
    "stepsize.trials": "count",
    "stepsize.trials_per_step": "ratio",
    "pdhg.pdhg_step.calls": "count",
    "pdhg.pdhg_step.self_s": "s",
    "sparse.spectral_norm_estimate.self_s": "s",
    "sparse.spectral_norm_estimate.matvecs": "count",
    "restarts.normalized_duality_gap.calls": "count",
    "restarts.normalized_duality_gap.self_s": "s",
    "restarts.fired.gap_decay": "count",
    "restarts.fired.artificial": "count",
    "restarts.fired.fixed_period": "count",
    "termination.kkt_error.calls": "count",
    "termination.kkt_error.self_s": "s",
    "termination.certificate.calls": "count",
    "termination.certificate.self_s": "s",
    "termination.kkt_rel_max": "ratio",
    "scaling.combined_rescale.self_s": "s",
    "scaling.apply_scaling.self_s": "s",
    "scaling.unscale_solution.calls": "count",
    "scaling.unscale_solution.self_s": "s",
    "problem.validate.self_s": "s",
    "problem.to_saddle.self_s": "s",
    "solver.iterations": "count",
    "solver.restarts": "count",
    "solver.gap_evaluations": "count",
    "solver.us_per_iter": "us",
    "solver.self_s": "s",
    "mps.parse_mps.self_s": "s",
    "mps.write_mps.self_s": "s",
    "mps.bytes": "bytes",
    "generators.generate_pagerank.self_s": "s",
    "reports.render_json.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_share": "ratio",
}
RECORDED_FIELDS = ("status", "iterations", "restarts", "gap_evaluations", "kkt_rel", "mps_bytes")
CERTIFICATE_SPANS = (
    "termination.extract_certificates",
    "termination.check_primal_infeasible",
    "termination.check_dual_infeasible",
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def import_package():
    """Import pdhg_lp from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "pdhg_lp" / "__init__.py").is_file():
        raise BenchmarkError(f"no package sources at {SRC / 'pdhg_lp'}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    pl = importlib.import_module("pdhg_lp")
    importlib.import_module("pdhg_lp.cli")
    if Path(pl.__file__).resolve().parent != (SRC / "pdhg_lp").resolve():
        raise BenchmarkError(f"pdhg_lp imported from {pl.__file__}, not from {SRC}")
    return pl


def timed_setup(workload_name, seed, tracer=None):
    """Import the package and build the workload's inputs, under ``tracer``
    if one is given; the set-up time is the sum of both.  Must run before
    anything else imports numpy."""
    t0 = time.perf_counter()
    pl = import_package()
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS

    if workload_name not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {workload_name!r}; choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[workload_name]
    if tracer is not None:
        tracer.install(pl)
    t0 = time.perf_counter()
    try:
        inputs = workload.build(pl, seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return pl, workload, inputs, import_s + time.perf_counter() - t0


def setup_probe(workload_name, seed):
    """One set-up sample in a fresh process, as this script's --setup-probe."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# -- facts ----------------------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts():
    import numpy as np
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = size
    model = None
    cpuinfo = _read("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
        "cache": caches,
    }


def _size_bytes(text):
    if not text:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def working_set_statement(facts, machine):
    """Say where the computed working set sits against the caches."""
    ws = facts.get("working_set_bytes_computed")
    if ws is None:
        return None
    l2 = _size_bytes(machine["cache"].get("L2"))
    l3 = _size_bytes(machine["cache"].get("L3"))
    where = []
    if l2:
        where.append(f"{'exceeds' if ws > l2 else 'fits in'} L2 ({l2 / 2**20:.0f} MiB)")
    if l3:
        where.append(f"{'exceeds' if ws > l3 else 'fits in'} the shared L3 ({l3 / 2**20:.0f} MiB)")
    return (
        f"computed working set {ws / 1e6:.1f} MB {' and '.join(where)}; no bandwidth was measured, "
        "so the benchmark reports computed bytes and no bandwidth ratio"
    )


# -- statistics -------------------------------------------------------------------


def tail(samples):
    """(value, percentile label) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n} (fewer than {TAIL_BEYOND + 1} samples)"
    k = n - TAIL_BEYOND - 1
    return ordered[k], f"p{100.0 * (k + 1) / n:.1f} of {n} ({TAIL_BEYOND} beyond)"


# -- the run ----------------------------------------------------------------------


def run_pass(pl, workload, inputs, workdir):
    """One pass over the workload's operations: (pass seconds, op seconds,
    results).  An exception ends only its own operation."""
    times, results = [], []
    t_pass = time.perf_counter()
    for i in range(workload.num_ops(inputs)):
        t0 = time.perf_counter()
        try:
            result = workload.run_op(pl, inputs, i, workdir)
        except Exception as err:  # counted as a failed operation, never fatal
            result = {"error": f"{type(err).__name__}: {err}"}
        times.append(time.perf_counter() - t0)
        results.append(result)
    return time.perf_counter() - t_pass, times, results


def check_pass(workload, inputs, refs, results):
    """Check every operation of a pass; returns a record per operation."""
    import oracles

    records = []
    for i, result in enumerate(results):
        if "error" in result:
            outcome = oracles.Outcome(False, True, result["error"])
        else:
            try:
                outcome = workload.check(inputs, refs, i, result)
            except Exception as err:  # an unreadable output is a failed operation
                outcome = oracles.Outcome(False, True, f"{type(err).__name__}: {err}")
        records.append({
            "op": workload.op_name(inputs, i),
            "ok": outcome.ok,
            "wrong": outcome.wrong,
            "reason": outcome.reason,
            "reference": workload.reference_status(refs, i),
            **{k: v for k, v in result.items() if k in RECORDED_FIELDS},
        })
    return records


def end_to_end_metrics(setup_samples, pass_times, op_times, records):
    tail_value, tail_label = tail(op_times)
    ok = sum(r["ok"] for r in records)
    values = {
        "setup_s": statistics.median(setup_samples),
        "pass_s": statistics.median(pass_times),
        "op_s.p50": statistics.median(op_times),
        "ok_share": ok / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "op_s.tail": f"{tail_value!r} s, {tail_label}",
        "failed_share": (len(records) - ok) / len(records),
        "setup_samples_s": setup_samples,
        "pass_times_s": pass_times,
    }
    return values, notes


def per_layer_metrics(tracer, pass_records, traced_pass_s, untraced_pass_s, pass_mark):
    layers, _ = tracer.layers()
    _, top_level_in_pass = tracer.layers(since=pass_mark)

    def get(span, field):
        return layers.get(span, {}).get(field, 0)

    counts = tracer.counts
    solver_total = get("solver.solve", "total_s")
    iterations = sum(r.get("iterations", 0) for r in pass_records)
    accepted = counts["stepsize.accepted"]
    optimal_kkt = [r["kkt_rel"] for r in pass_records if r["reference"] == "optimal" and "kkt_rel" in r]
    values = {
        "sparse.matvec.calls": get("sparse.matvec", "calls"),
        "sparse.rmatvec.calls": get("sparse.rmatvec", "calls"),
        "sparse.matvec.self_s": get("sparse.matvec", "self_s"),
        "sparse.rmatvec.self_s": get("sparse.rmatvec", "self_s"),
        "sparse.matvec.bytes_computed": tracer.bytes_computed,
        "stepsize.adaptive_step.calls": get("stepsize.adaptive_step", "calls"),
        "stepsize.adaptive_step.self_s": get("stepsize.adaptive_step", "self_s"),
        "stepsize.trials": counts["stepsize.trials"],
        "stepsize.trials_per_step": counts["stepsize.trials"] / accepted if accepted else 0.0,
        "pdhg.pdhg_step.calls": get("pdhg.pdhg_step", "calls"),
        "pdhg.pdhg_step.self_s": get("pdhg.pdhg_step", "self_s"),
        "sparse.spectral_norm_estimate.self_s": get("sparse.spectral_norm_estimate", "self_s"),
        "sparse.spectral_norm_estimate.matvecs": get("sparse.spectral_norm_estimate", "product_children"),
        "restarts.normalized_duality_gap.calls": get("restarts.normalized_duality_gap", "calls"),
        "restarts.normalized_duality_gap.self_s": get("restarts.normalized_duality_gap", "self_s"),
        "restarts.fired.gap_decay": counts["restarts.fired.gap_decay"],
        "restarts.fired.artificial": counts["restarts.fired.artificial"],
        "restarts.fired.fixed_period": counts["restarts.fired.fixed_period"],
        "termination.kkt_error.calls": get("termination.kkt_error", "calls"),
        "termination.kkt_error.self_s": get("termination.kkt_error", "self_s"),
        "termination.certificate.calls": sum(get(s, "calls") for s in CERTIFICATE_SPANS),
        "termination.certificate.self_s": sum(get(s, "self_s") for s in CERTIFICATE_SPANS),
        "termination.kkt_rel_max": max(optimal_kkt, default=0.0),
        "scaling.combined_rescale.self_s": get("scaling.combined_rescale", "self_s"),
        "scaling.apply_scaling.self_s": get("scaling.apply_scaling", "self_s"),
        "scaling.unscale_solution.calls": get("scaling.unscale_solution", "calls"),
        "scaling.unscale_solution.self_s": get("scaling.unscale_solution", "self_s"),
        "problem.validate.self_s": get("problem.validate", "self_s"),
        "problem.to_saddle.self_s": get("problem.to_saddle", "self_s"),
        "solver.iterations": iterations,
        "solver.restarts": sum(r.get("restarts", 0) for r in pass_records),
        "solver.gap_evaluations": sum(r.get("gap_evaluations", 0) for r in pass_records),
        "solver.us_per_iter": 1e6 * solver_total / iterations if iterations else 0.0,
        "solver.self_s": get("solver.solve", "self_s"),
        "mps.parse_mps.self_s": get("mps.parse_mps", "self_s"),
        "mps.write_mps.self_s": get("mps.write_mps", "self_s"),
        "mps.bytes": counts["mps.bytes"],
        "generators.generate_pagerank.self_s": get("generators.generate_pagerank", "self_s"),
        "reports.render_json.self_s": get("reports.render_json", "self_s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "trace.overhead_s": traced_pass_s - untraced_pass_s,
        "trace.uncovered_share": max(traced_pass_s - top_level_in_pass, 0.0) / traced_pass_s,
    }
    return values


def _metric_block(values, units):
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_workload(workload_name, seed, seconds, trace):
    tracer = None
    if trace:
        # imports numpy early, which is fine: a traced run reports no set-up time.
        # The build is traced too: generate_pagerank's share of set-up shows there.
        from tracer import Tracer

        tracer = Tracer()
    pl, workload, inputs, setup_first = timed_setup(workload_name, seed, tracer)
    setup_samples = [setup_first]
    if not trace:
        setup_samples += [setup_probe(workload_name, seed) for _ in range(SETUP_SAMPLES - 1)]

    refs = workload.references(inputs)
    machine = machine_facts()
    facts = workload.facts(inputs)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUT_DIR)
    try:
        workload.warm_up(pl, inputs, workdir)
        passes = []  # (seconds, op seconds, check records)
        if trace:
            untraced = run_pass(pl, workload, inputs, workdir)
            passes.append(untraced[:2] + (check_pass(workload, inputs, refs, untraced[2]),))
            pass_mark = tracer.mark()
            tracer.install(pl)
            try:
                traced = run_pass(pl, workload, inputs, workdir)
            finally:
                tracer.uninstall()
            passes.append(traced[:2] + (check_pass(workload, inputs, refs, traced[2]),))
        else:
            for _ in range(max(1, round(seconds / workload.nominal_pass_s))):
                pass_s, op_times, results = run_pass(pl, workload, inputs, workdir)
                passes.append((pass_s, op_times, check_pass(workload, inputs, refs, results)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for _, _, recs in passes for r in recs]
    if trace:
        values = per_layer_metrics(tracer, passes[1][2], passes[1][0], passes[0][0], pass_mark)
        metrics = _metric_block(values, PER_LAYER)
        notes = {"pass_times_s": [p[0] for p in passes], "op_times_s": [p[1] for p in passes],
                 "spans": len(tracer.start)}
    else:
        values, notes = end_to_end_metrics(
            setup_samples, [p[0] for p in passes], [t for p in passes for t in p[1]], records
        )
        notes["op_times_s"] = [p[1] for p in passes]
        metrics = _metric_block(values, END_TO_END)
    statement = working_set_statement(facts, machine)
    if statement:
        facts["working_set"] = statement
    mps_bytes = sorted({r["mps_bytes"] for r in records if "mps_bytes" in r})
    if mps_bytes:
        facts["mps_bytes"] = mps_bytes

    failed = sum(not r["ok"] for r in records)
    result = {
        "correct": not any(r["wrong"] for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": workload_name, "seed": seed, "trace": bool(trace),
        "passes": len(passes), "machine": machine, "inputs": facts, "notes": notes,
        "operations": records, "result": result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if trace:
        tracer.save(OUT_DIR / f"{stem}-spans.npz")

    print(f"workload {workload_name}  seed {seed}  trace {int(trace)}  passes {len(passes)}  "
          f"operations {len(records)}  failed {failed}")
    print("machine: " + json.dumps(machine))
    print("inputs: " + json.dumps(facts, default=str))
    for name, value in notes.items():
        print(f"note {name}: {value}")
    for r in records:
        if not r["ok"]:
            print(f"failed op {r['op']}: {r['reason']}{' (wrong result)' if r['wrong'] else ''}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(f"record: {OUT_DIR / (stem + '.json')}")
    return result


def run_all(seed, seconds, trace):
    """Every workload in its own child process; prints each child's report."""
    import_package()
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchmarkError(f"workload {name} exited with code {proc.returncode}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in child["metrics"].items()})
    return combined


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": timed_setup(args.workload, args.seed)[3]}))
            return 0
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # single process, no extra threads: pin the BLAS and OpenMP pools before
    # numpy loads; set-up probes and child runs inherit this environment
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.exit(main())
