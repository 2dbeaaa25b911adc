"""Report serialization and the config <-> dict round trip.

``config_flags`` writes every field of a SolverConfig as a nested dict of
plain JSON values, and ``config_from_flags`` reads it back, so the
report's "config" block reproduces a run whatever config it used.
"""

import json
import math
from collections.abc import Mapping
from dataclasses import fields, is_dataclass

from . import __version__
from .exceptions import SolverError
from .solver import SolverConfig


def config_flags(config):
    """Nested dict of every field of a config dataclass.  An infinite float
    equal to its field's default (the unlimited time limit) is written as
    None, which reads back as that default; any other infinity is kept, and
    json writes it as Infinity."""
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            value = config_flags(value)
        elif isinstance(value, float) and math.isinf(value) and value == f.default:
            value = None
        out[f.name] = value
    return out


def config_from_flags(flags):
    """Inverse of config_flags.  A missing key or a None takes the field's
    default.  The dict may come from outside the program, so an unknown key,
    a non-mapping in place of a sub-config, a value whose type does not
    match the field's annotation, or a mode the config rejects raises
    ValueError naming the dotted path."""
    return _from_dict(SolverConfig, flags, "")


def _from_dict(cls, flags, path):
    if not isinstance(flags, Mapping):
        raise ValueError(f"config {path.rstrip('.') or 'block'} must be a mapping, got {flags!r}")
    by_name = {f.name: f for f in fields(cls)}
    extra = sorted(f"{path}{key}" for key in flags if key not in by_name)
    if extra:
        raise ValueError(f"unknown config flags: {extra}")
    kwargs = {}
    for key, value in flags.items():
        if value is None:
            continue
        kind = by_name[key].type
        if is_dataclass(kind):
            kwargs[key] = _from_dict(kind, value, f"{path}{key}.")
            continue
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError(f"config flag {path}{key} must be {kind.__name__}, got {value!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except SolverError as err:
        raise ValueError(f"config {path.rstrip('.') or 'block'}: {err}") from err


def report_to_dict(report, include_solution=False):
    """Stable dictionary form of a SolveReport (JSON-serializable)."""
    kkt = report.kkt
    out = {
        "solver": {"name": "pdhg-lp", "version": __version__},
        "problem": {
            "name": report.problem_name,
            "variables": report.dims[0],
            "inequalities": report.dims[1],
            "equalities": report.dims[2],
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
    out["history"] = [list(map(float, row)) for row in report.residual_history]
    if include_solution:
        out["solution"] = {
            "x": [float(v) for v in report.x],
            "y": [float(v) for v in report.y],
            "reduced_costs": [float(v) for v in report.reduced_costs],
        }
    return out


def render_json(report, include_solution=False):
    return json.dumps(report_to_dict(report, include_solution=include_solution), indent=2)


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
