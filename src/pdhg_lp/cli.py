"""Command-line interface: solve, generate, bench.

Exit codes: 0 optimal, 1 usage or I/O error, 2 infeasible or unbounded,
3 iteration/time limit, 4 numerical error.
"""

import argparse
import contextlib
import io
import logging
import math
import os
import sys
import time

import numpy as np

from .exceptions import MpsParseError, NonPositiveInput, SolverError, ValidationError
from .generators import (
    PagerankSpec,
    generate_bilinear_toy,
    generate_dual_infeasible_toy,
    generate_pagerank,
    generate_primal_infeasible_toy,
)
from .mps import MpsDialect, parse_mps, write_mps
from .reports import config_from_flags, render_json, render_text
from .restarts import RESTART_SCHEMES, RestartConfig
from .scaling import SCALING_MODES
from .solver import (
    STATUS_DUAL_INFEASIBLE,
    STATUS_ITERATION_LIMIT,
    STATUS_NUMERICAL_ERROR,
    STATUS_OPTIMAL,
    STATUS_PRIMAL_INFEASIBLE,
    STATUS_TIME_LIMIT,
    SolverConfig,
    solve,
)
from .stepsize import STEP_MODES, WEIGHT_MODES, StepPolicy, WeightPolicy
from .termination import TerminationCriteria

EXIT_BY_STATUS = {
    STATUS_OPTIMAL: 0,
    STATUS_PRIMAL_INFEASIBLE: 2,
    STATUS_DUAL_INFEASIBLE: 2,
    STATUS_ITERATION_LIMIT: 3,
    STATUS_TIME_LIMIT: 3,
    STATUS_NUMERICAL_ERROR: 4,
}

BENCH_CONFIGS = ("vanilla", "scaled", "restarts", "full")
BENCH_SHIFT = 10.0  # the shift of the bench summary's geometric means
# the bench CSV's columns, in order: a row of _bench_one's has these keys
BENCH_COLUMNS = ("instance", "config", "status", "iterations", "restarts", "matvecs", "wall_sec", "rel_kkt_final")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; we reserve 2 for
    infeasible problems, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _ArgumentParser(prog="pdhg-lp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", parents=[], help="solve an MPS instance")
    ps.add_argument("input", help="MPS file path, or - for stdin")
    ps.add_argument("--mps-fixed", action="store_true", help="parse strict fixed-column MPS")
    _add_solver_flags(ps)
    ps.add_argument("--out", default=None, help="report destination (default stdout)")
    ps.add_argument("--report-format", choices=("json", "text"), default="json")
    ps.add_argument("--solution-out", default=None, help="write x/y/reduced costs to an .npz file")
    ps.add_argument("--include-solution", action="store_true", help="embed x/y in the JSON report")

    pg = sub.add_parser("generate", help="generate an instance and write MPS")
    pg.add_argument("kind", choices=("pagerank", "toy", "primal-infeasible-toy", "dual-infeasible-toy"))
    pg.add_argument("--nodes", type=int, default=1000, help="pagerank: number of graph nodes")
    pg.add_argument("--degree", type=int, default=3, help="pagerank: attachment degree")
    pg.add_argument("--damping", type=float, default=0.85, help="pagerank: damping factor")
    pg.add_argument("--seed", type=int, default=0, help="pagerank: RNG seed")
    pg.add_argument("--out", default=None, help="MPS destination (default stdout)")

    pb = sub.add_parser("bench", help="run a config sweep over a set of instances")
    pb.add_argument("inputs", nargs="+", help="MPS files or directories containing them")
    pb.add_argument("--configs", default=",".join(BENCH_CONFIGS),
                    help=f"comma list from {{{','.join(BENCH_CONFIGS)}}}")
    pb.add_argument("--tolerance", type=float, default=1e-4)
    pb.add_argument("--max-iters", type=int, default=100_000)
    pb.add_argument("--time-limit-sec", type=float, default=None)
    pb.add_argument("--mps-fixed", action="store_true")
    pb.add_argument("--out", default=None, help="CSV destination (default stdout)")
    pb.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    return parser


def _add_solver_flags(p):
    """The solve flags.  Each is stored only when given, under "config."
    plus the dotted path of the SolverConfig field it sets, so every
    default is the dataclass's own."""

    def flag(name, field, **kwargs):
        if "choices" not in kwargs:
            kwargs.setdefault("metavar", name[2:].replace("-", "_").upper())
        p.add_argument(name, dest=f"config.{field}", default=argparse.SUPPRESS, **kwargs)

    flag("--tolerance", "termination.tol_optimal", type=float)
    flag("--max-iters", "termination.iteration_limit", type=int)
    flag("--time-limit-sec", "termination.time_limit_sec", type=float)
    flag("--scaling", "scaling", choices=SCALING_MODES)
    flag("--restart", "restart.scheme", choices=RESTART_SCHEMES)
    flag("--step-size", "step", type=_step_flag, metavar="{halpern,adaptive,fixed,fixed=S}")
    flag("--primal-weight", "weight.mode", choices=WEIGHT_MODES)
    flag("--log-every", "log_interval", type=int, metavar="N",
         help="log residuals to stderr every N iterations")


def _step_flag(value):
    """The step block that --step-size asks for: a bare mode, or "fixed=S"
    for the fixed mode with step S."""
    if value in STEP_MODES:
        return {"mode": value}
    if value.startswith("fixed="):
        with contextlib.suppress(ValueError):
            return {"mode": "fixed", "fixed_step": float(value[len("fixed="):])}
    raise argparse.ArgumentTypeError(f"bad step_size flag {value!r}")


def _config_from_args(args):
    """The SolverConfig that the solve flags in ``args`` ask for, built by
    config_from_flags from the flags given.  Raises ValueError for a bad
    value."""
    tree = {}
    for dest, value in vars(args).items():
        if not dest.startswith("config."):
            continue
        *parents, leaf = dest.split(".")[1:]
        node = tree
        for name in parents:
            node = node.setdefault(name, {})
        node[leaf] = value
    return config_from_flags(tree)


def _read_problem(path, fixed=False):
    """Parse the MPS file at path, or standard input for "-", as it is read."""
    with contextlib.nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as fh:
        return parse_mps(fh, MpsDialect(fixed_columns=fixed))


def _output(path):
    """The text file a command writes to: standard output for None or "-"."""
    return contextlib.nullcontext(sys.stdout) if path is None or path == "-" else open(path, "w")


def _cmd_solve(args):
    if args.include_solution and args.report_format != "json":
        print("pdhg-lp: --include-solution embeds the solution in a JSON report;"
              f" it does nothing with --report-format {args.report_format}", file=sys.stderr)
        return 1
    try:
        config = _config_from_args(args)
    except ValueError as err:
        print(f"pdhg-lp: {err}", file=sys.stderr)
        return 1
    if config.log_interval:
        logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        # the reader raises ValidationError for non-finite data, as solve does for crossed bounds
        report = solve(_read_problem(args.input, fixed=args.mps_fixed), config)
    except ValidationError as err:
        print(f"pdhg-lp: invalid problem: {err}", file=sys.stderr)
        return 1
    except (OSError, MpsParseError, NonPositiveInput) as err:
        print(f"pdhg-lp: {err}", file=sys.stderr)
        return 1
    if args.report_format == "json":
        text = render_json(report, include_solution=args.include_solution) + "\n"
    else:
        text = render_text(report)
    try:
        with _output(args.out) as fh:
            fh.write(text)
        if args.solution_out:
            np.savez(args.solution_out, x=report.x, y=report.y, reduced_costs=report.reduced_costs)
    except OSError as err:
        print(f"pdhg-lp: {err}", file=sys.stderr)
        return 1
    return EXIT_BY_STATUS.get(report.status, 4)


def _cmd_generate(args):
    try:
        if args.kind == "pagerank":
            problem = generate_pagerank(
                PagerankSpec(
                    num_nodes=args.nodes,
                    attach_degree=args.degree,
                    damping=args.damping,
                    seed=args.seed,
                )
            )
        elif args.kind == "toy":
            problem = generate_bilinear_toy()
        elif args.kind == "primal-infeasible-toy":
            problem = generate_primal_infeasible_toy()
        else:
            problem = generate_dual_infeasible_toy()
        with _output(args.out) as fh:
            write_mps(problem, out=fh)
    except (SolverError, OSError) as err:
        print(f"pdhg-lp: {err}", file=sys.stderr)
        return 1
    return 0


def bench_config(name, tolerance, max_iters, time_limit_sec):
    """The four ablation presets used by the bench subcommand."""
    term = TerminationCriteria(
        tol_optimal=tolerance,
        iteration_limit=max_iters,
        time_limit_sec=math.inf if time_limit_sec is None else time_limit_sec,
    )
    fixed_step = StepPolicy(mode="fixed")
    fixed_weight = WeightPolicy(mode="fixed")
    if name == "vanilla":
        return SolverConfig(termination=term, scaling="none",
                            restart=RestartConfig(scheme="none"),
                            step=fixed_step, weight=fixed_weight)
    if name == "scaled":
        return SolverConfig(termination=term, scaling="ruiz+pc",
                            restart=RestartConfig(scheme="none"),
                            step=fixed_step, weight=fixed_weight)
    if name == "restarts":
        return SolverConfig(termination=term, scaling="none",
                            restart=RestartConfig(scheme="adaptive"),
                            step=fixed_step, weight=fixed_weight)
    if name == "full":
        return SolverConfig(termination=term)
    raise ValueError(f"unknown bench config {name!r}")


def _bench_one(task):
    """Worker: solve one instance under one named, built config.  Takes and
    returns picklable values so it can cross a process boundary."""
    path, config_name, config, fixed = task
    row = dict.fromkeys(BENCH_COLUMNS, "")
    row.update(instance=os.path.basename(path), config=config_name, status="error")
    try:
        problem = _read_problem(path, fixed=fixed)
        t0 = time.perf_counter()
        report = solve(problem, config)
        wall = time.perf_counter() - t0
        kkt = report.kkt
        row.update(
            status=report.status,
            iterations=report.iterations,
            restarts=report.restarts,
            matvecs=report.matvecs,
            wall_sec=f"{wall:.6f}",
            rel_kkt_final=f"{max(kkt.rel_primal, kkt.rel_dual, kkt.rel_gap):.6e}",
        )
    except (OSError, SolverError, ValueError) as err:
        row["status"] = f"error: {err}"
    return row


def shifted_geomean(values, shift):
    """exp(mean(log(v + shift))) - shift; standard benchmark aggregate."""
    values = [float(v) for v in values]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v + shift) for v in values) / len(values)) - shift


def _expand_inputs(inputs):
    paths = []
    for item in inputs:
        if os.path.isdir(item):
            inner = sorted(
                os.path.join(item, f)
                for f in os.listdir(item)
                if f.lower().endswith((".mps", ".sif"))
            )
            paths.extend(inner)
        else:
            paths.append(item)
    return paths


def _cmd_bench(args):
    # imported here: only this command takes a process pool or writes CSV
    import concurrent.futures
    import csv

    if args.jobs < 1:
        print(f"pdhg-lp: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 1
    # a name given twice runs once, in the order first given
    config_names = list(dict.fromkeys(c.strip() for c in args.configs.split(",") if c.strip()))
    if not config_names:
        print(f"pdhg-lp: --configs names no bench config: {args.configs!r}", file=sys.stderr)
        return 1
    try:  # an unknown name or a bad number fails the command, not each row
        configs = {
            name: bench_config(name, args.tolerance, args.max_iters, args.time_limit_sec) for name in config_names
        }
    except (ValueError, NonPositiveInput) as err:
        print(f"pdhg-lp: {err}", file=sys.stderr)
        return 1
    paths = _expand_inputs(args.inputs)
    if not paths:
        print("pdhg-lp: no instances found", file=sys.stderr)
        return 1
    tasks = [(path, name, configs[name], args.mps_fixed) for path in paths for name in config_names]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            rows = list(pool.map(_bench_one, tasks))
    else:
        rows = [_bench_one(t) for t in tasks]

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    try:
        with _output(args.out) as fh:
            fh.write(buf.getvalue())
    except OSError as err:
        print(f"pdhg-lp: {err}", file=sys.stderr)
        return 1

    summary = render_bench_summary(rows, config_names, len(paths))
    stream = sys.stdout if args.out not in (None, "-") else sys.stderr
    stream.write(summary)
    return 0


def render_bench_summary(rows, config_names, num_instances):
    """Per-config aggregates plus a solved-within-time-budget table."""
    lines = ["", f"instances: {num_instances}   shift: {BENCH_SHIFT}", ""]
    lines.append(
        f"{'config':<12} {'solved':>6} {'geo iters':>12} {'geo matvecs':>12} {'geo sec':>10}"
    )
    budgets = [0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0]
    solved_times = {}
    for name in config_names:
        sub = [r for r in rows if r["config"] == name]
        done = [r for r in sub if r["status"] == "optimal"]
        iters = shifted_geomean([r["iterations"] for r in done], BENCH_SHIFT) if done else float("nan")
        mats = shifted_geomean([r["matvecs"] for r in done], BENCH_SHIFT) if done else float("nan")
        secs = shifted_geomean([float(r["wall_sec"]) for r in done], BENCH_SHIFT) if done else float("nan")
        solved_times[name] = sorted(float(r["wall_sec"]) for r in done)
        lines.append(
            f"{name:<12} {len(done):>6} {iters:>12.1f} {mats:>12.1f} {secs:>10.3f}"
        )
    lines.append("")
    lines.append("solved within time budget (s):")
    header = f"{'config':<12}" + "".join(f" {b:>8g}" for b in budgets)
    lines.append(header)
    for name in config_names:
        times = solved_times.get(name, [])
        counts = [sum(1 for t in times if t <= b) for b in budgets]
        lines.append(f"{name:<12}" + "".join(f" {c:>8d}" for c in counts))
    lines.append("")
    return "\n".join(lines)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_bench(args)
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
