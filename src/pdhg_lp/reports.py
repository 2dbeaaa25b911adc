"""Report serialization and the canonical config <-> flag mapping.

The flag dictionary is the single source of truth shared by the CLI and the
report writer: whatever combination of options a run used is echoed
verbatim in the report's "config" block, so a run can be reproduced from
its report alone.
"""

import json
import math
from dataclasses import replace

from . import __version__
from .restarts import RestartConfig
from .solver import SolverConfig
from .stepsize import StepPolicy, WeightPolicy
from .termination import TerminationCriteria


def config_flags(config):
    """Canonical flag dictionary for a SolverConfig."""
    rc = config.restart
    if rc.scheme == "fixed":
        restart = f"fixed={rc.period}" if rc.period is not None else "fixed"
    else:
        restart = rc.scheme
    if config.step.mode == "fixed":
        step = (
            f"fixed={config.step.fixed_step!r}" if config.step.fixed_step is not None else "fixed"
        )
    else:
        step = "adaptive"
    if config.weight.mode == "fixed":
        weight = (
            f"fixed={config.weight.fixed_weight!r}"
            if config.weight.fixed_weight is not None
            else "fixed"
        )
    else:
        weight = "adaptive"
    t = config.termination
    return {
        "tolerance": t.tol_optimal,
        "infeasible_tolerance": t.tol_infeasible,
        "max_iters": t.iteration_limit,
        "time_limit_sec": None if math.isinf(t.time_limit_sec) else t.time_limit_sec,
        "check_interval": config.check_interval,
        "scaling": config.scaling,
        "ruiz_iterations": config.ruiz_iterations,
        "pc_alpha": config.pc_alpha,
        "restart": restart,
        "restart_beta": rc.sufficient_decay,
        "candidate_rule": rc.candidate_rule,
        "step_size": step,
        "primal_weight": weight,
        "detect_infeasibility": config.detect_infeasibility,
    }


def config_from_flags(flags):
    """Inverse of config_flags; unknown keys are rejected to catch typos."""
    known = {
        "tolerance", "infeasible_tolerance", "max_iters", "time_limit_sec",
        "check_interval", "scaling", "ruiz_iterations", "pc_alpha", "restart",
        "restart_beta", "candidate_rule", "step_size", "primal_weight",
        "detect_infeasibility",
    }
    extra = set(flags) - known
    if extra:
        raise ValueError(f"unknown config flags: {sorted(extra)}")
    base = SolverConfig()
    restart = flags.get("restart", "adaptive")
    rc = RestartConfig()
    if restart == "none":
        rc = replace(rc, scheme="none")
    elif restart == "adaptive":
        rc = replace(rc, scheme="adaptive")
    elif restart == "fixed" or restart.startswith("fixed="):
        period = None
        if "=" in restart:
            period = int(restart.split("=", 1)[1])
        rc = replace(rc, scheme="fixed", period=period)
    else:
        raise ValueError(f"bad restart flag {restart!r}")
    if "restart_beta" in flags:
        rc = replace(rc, sufficient_decay=float(flags["restart_beta"]))
    if "candidate_rule" in flags:
        rc = replace(rc, candidate_rule=flags["candidate_rule"])

    step_flag = flags.get("step_size", "adaptive")
    if step_flag == "adaptive":
        step = StepPolicy(mode="adaptive")
    elif step_flag == "fixed" or step_flag.startswith("fixed="):
        fixed = float(step_flag.split("=", 1)[1]) if "=" in step_flag else None
        step = StepPolicy(mode="fixed", fixed_step=fixed)
    else:
        raise ValueError(f"bad step_size flag {step_flag!r}")

    weight_flag = flags.get("primal_weight", "adaptive")
    if weight_flag == "adaptive":
        weight = WeightPolicy(mode="adaptive")
    elif weight_flag == "fixed" or weight_flag.startswith("fixed="):
        fixed = float(weight_flag.split("=", 1)[1]) if "=" in weight_flag else None
        weight = WeightPolicy(mode="fixed", fixed_weight=fixed)
    else:
        raise ValueError(f"bad primal_weight flag {weight_flag!r}")

    tl = flags.get("time_limit_sec")
    termination = TerminationCriteria(
        tol_optimal=float(flags.get("tolerance", 1e-8)),
        tol_infeasible=float(flags.get("infeasible_tolerance", 1e-10)),
        iteration_limit=int(flags.get("max_iters", TerminationCriteria().iteration_limit)),
        time_limit_sec=math.inf if tl is None else float(tl),
    )
    return replace(
        base,
        termination=termination,
        check_interval=int(flags.get("check_interval", base.check_interval)),
        scaling=flags.get("scaling", base.scaling),
        ruiz_iterations=int(flags.get("ruiz_iterations", base.ruiz_iterations)),
        pc_alpha=float(flags.get("pc_alpha", base.pc_alpha)),
        restart=rc,
        step=step,
        weight=weight,
        detect_infeasibility=bool(flags.get("detect_infeasibility", True)),
    )


def report_to_dict(report, include_solution=False, include_history=True):
    """Stable dictionary form of a SolveReport (JSON-serializable)."""
    kkt = report.kkt
    out = {
        "solver": {"name": "pdhg-lp", "version": __version__},
        "problem": {
            "name": report.problem_name,
            "variables": report.dims[0] if report.dims else None,
            "inequalities": report.dims[1] if report.dims else None,
            "equalities": report.dims[2] if report.dims else None,
        },
        "status": report.status,
        "reason": report.reason,
        "objective": {
            "primal": report.objective_value,
            "dual": report.dual_objective_value,
        },
        "kkt": {
            "primal_residual": kkt.primal_residual,
            "dual_residual": kkt.dual_residual,
            "duality_gap": kkt.duality_gap,
            "rel_primal": kkt.rel_primal,
            "rel_dual": kkt.rel_dual,
            "rel_gap": kkt.rel_gap,
        },
        "counts": {
            "iterations": report.iterations,
            "restarts": report.restarts,
            "restarts_by_reason": dict(report.restarts_by_reason),
            "matvecs": report.matvecs,
            "gap_evaluations": report.gap_evaluations,
            "step_trials": report.step_trials,
        },
        "step": {
            "step_size": report.step_size,
            "primal_weight": report.primal_weight,
        },
        "timings": dict(report.timings),
        "notes": list(report.notes),
        "config": config_flags(report.config),
    }
    if report.certificate is not None:
        cert = dict(report.certificate)
        cert["ray"] = [float(v) for v in cert["ray"]]
        out["certificate"] = cert
    else:
        out["certificate"] = None
    if include_history:
        out["history"] = [list(map(float, row)) for row in report.residual_history]
    if include_solution:
        out["solution"] = {
            "x": [float(v) for v in report.x],
            "y": [float(v) for v in report.y],
            "reduced_costs": [float(v) for v in report.reduced_costs],
        }
    return out


def render_json(report, include_solution=False, include_history=True):
    return json.dumps(
        report_to_dict(report, include_solution=include_solution, include_history=include_history),
        indent=2,
    )


def render_text(report):
    """Short human-readable summary."""
    kkt = report.kkt
    lines = [
        f"status            {report.status}",
        f"reason            {report.reason}",
        f"objective         {report.objective_value:.12g}",
        f"dual objective    {report.dual_objective_value:.12g}",
        f"rel primal res    {kkt.rel_primal:.3e}",
        f"rel dual res      {kkt.rel_dual:.3e}",
        f"rel gap           {kkt.rel_gap:.3e}",
        f"iterations        {report.iterations}",
        f"restarts          {report.restarts}",
        f"matvecs           {report.matvecs}",
        f"time (s)          {report.timings.get('total_sec', 0.0):.3f}",
    ]
    if report.certificate is not None:
        lines.append(
            f"certificate       {report.certificate['kind']}"
            f" (margin {report.certificate['margin']:.3e},"
            f" source {report.certificate['source']})"
        )
    return "\n".join(lines) + "\n"
