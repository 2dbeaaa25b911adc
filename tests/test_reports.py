import ast
import dataclasses
import inspect
import json
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdhg_lp as pl
from conftest import random_feasible_lp
from pdhg_lp import config_flags, config_from_flags, render_json, render_text, report_to_dict
from pdhg_lp.restarts import RESTART_SCHEMES
from pdhg_lp.scaling import SCALING_MODES
from pdhg_lp.stepsize import STEP_MODES, WEIGHT_MODES


# Fields the configs check against a closed set of values or a range.  A
# policy's fixed value is drawn with its mode (_policy_strategy).
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_CHECKED = {
    "scheme": st.sampled_from(RESTART_SCHEMES),
    "scaling": st.sampled_from(SCALING_MODES),
    "tol_optimal": st.floats(min_value=0.0),
    "iteration_limit": st.integers(min_value=0),
    "log_interval": st.integers(min_value=0),
}

# The modes each policy accepts, and the field that only mode "fixed" takes.
_MODES = {pl.StepPolicy: (STEP_MODES, "fixed_step"), pl.WeightPolicy: (WEIGHT_MODES, "fixed_weight")}

# A value each checked number rejects, by dotted path.
_BAD_VALUES = {
    "log_interval": -3,
    "step.fixed_step": -1.0,
    "weight.fixed_weight": 0.0,
    "termination.tol_optimal": -1.0,
    "termination.iteration_limit": -5,
    "termination.time_limit_sec": float("nan"),
}


def _policy_strategy(cls):
    """A step or weight policy: any mode without a fixed value, or mode
    "fixed" with a positive finite one."""
    modes, fixed = _MODES[cls]
    fixed_value = st.builds(cls, mode=st.just("fixed"), **{fixed: _POSITIVE})
    return st.sampled_from(modes).map(lambda mode: cls(mode=mode)) | fixed_value


def _config_strategy(cls):
    """Instances of the config dataclass ``cls`` with every leaf drawn from
    the values its constructor accepts, infinities of either sign included
    (NaN is not equal to itself)."""
    if cls in _MODES:
        return _policy_strategy(cls)
    leaves = {
        float: st.floats(allow_nan=False),
        int: st.integers(),
        str: st.text(),
    }
    kwargs = {}
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            kwargs[f.name] = _config_strategy(f.type)
        elif f.name in _CHECKED:
            kwargs[f.name] = _CHECKED[f.name]
        else:
            kwargs[f.name] = leaves[f.type]
    return st.fixed_dictionaries(kwargs).map(lambda values: cls(**values))


def _json_round_trip(config):
    return config_from_flags(json.loads(json.dumps(config_flags(config))))


class TestConfigFlags:
    def test_default_round_trip(self):
        config = pl.SolverConfig()
        assert config_from_flags(config_flags(config)) == config
        assert _json_round_trip(config) == config

    def test_custom_round_trip(self):
        config = pl.SolverConfig(
            termination=pl.TerminationCriteria(tol_optimal=1e-4, iteration_limit=777, time_limit_sec=12.5),
            scaling="ruiz+pc",
            restart=pl.RestartConfig(scheme="none"),
            step=pl.StepPolicy(mode="fixed", fixed_step=0.03),
            weight=pl.WeightPolicy(mode="fixed", fixed_weight=2.0),
            log_interval=16,
        )
        back = config_from_flags(config_flags(config))
        assert back.termination == config.termination
        assert back.scaling == config.scaling
        assert back.restart == config.restart
        assert back.step == config.step
        assert back.weight == config.weight
        assert back.log_interval == 16
        assert back == config

    @settings(max_examples=200, deadline=None)
    @given(_config_strategy(pl.SolverConfig))
    def test_every_field_round_trips_through_json(self, config):
        assert _json_round_trip(config) == config

    def test_fixed_step_value_survives_repr(self):
        # JSON writes the float via repr, which is exact for doubles
        config = pl.SolverConfig(step=pl.StepPolicy(mode="fixed", fixed_step=0.1 + 0.2))
        flags = config_flags(config)
        assert flags["step"]["fixed_step"] == 0.1 + 0.2
        assert repr(0.1 + 0.2) in json.dumps(flags)
        assert _json_round_trip(config).step.fixed_step == 0.1 + 0.2

    def test_flag_names_are_stable(self):
        # every settable leaf, by dotted path: a new knob edits this pin on purpose
        def leaves(cls, prefix=""):
            for f in dataclasses.fields(cls):
                if dataclasses.is_dataclass(f.type):
                    yield from leaves(f.type, f"{prefix}{f.name}.")
                else:
                    yield prefix + f.name

        def paths(flags, prefix=""):
            for key, value in flags.items():
                if isinstance(value, dict):
                    yield from paths(value, f"{prefix}{key}.")
                else:
                    yield prefix + key

        assert list(paths(config_flags(pl.SolverConfig()))) == list(leaves(pl.SolverConfig))
        assert sorted(leaves(pl.SolverConfig)) == [
            "log_interval",
            "restart.scheme",
            "scaling",
            "step.fixed_step",
            "step.mode",
            "termination.iteration_limit",
            "termination.time_limit_sec",
            "termination.tol_optimal",
            "weight.fixed_weight",
            "weight.mode",
        ]

    def test_public_signatures_are_stable(self):
        # every public function and dataclass: a new parameter edits this pin on purpose
        public = {
            name: str(inspect.signature(obj))
            for name, obj in vars(pl).items()
            if name in pl.__all__
            and (inspect.isfunction(obj) or inspect.isclass(obj) and dataclasses.is_dataclass(obj))
        }
        assert public == {
            "CertificateCandidate": "(kind: str, x: numpy.ndarray, y: numpy.ndarray) -> None",
            "CertificateVerdict": "(valid: bool, residual: float, gain: float, margin: float) -> None",
            "IterateState": "(x: numpy.ndarray, y: numpy.ndarray) -> None",
            "KktReport": (
                "(primal_residual: float, dual_residual: float, duality_gap: float, rel_primal: float, "
                "rel_dual: float, rel_gap: float, primal_objective: float, dual_objective: float, "
                "reduced_costs: numpy.ndarray) -> None"
            ),
            "LpProblem": (
                "(c: numpy.ndarray, ineq_matrix: pdhg_lp.sparse.SparseMatrix = None, "
                "ineq_rhs: numpy.ndarray = None, eq_matrix: pdhg_lp.sparse.SparseMatrix = None, "
                "eq_rhs: numpy.ndarray = None, lower: numpy.ndarray = None, upper: numpy.ndarray = None, "
                "objective_offset: float = 0.0, objective_sign: int = 1, name: str = '', "
                "variable_names: list = None, constraint_names: list = None) -> None"
            ),
            "MpsDialect": "(fixed_columns: bool = False) -> None",
            "PagerankSpec": "(num_nodes: int, attach_degree: int = 3, damping: float = 0.85, seed: int = 0) -> None",
            "RestartConfig": "(scheme: str = 'adaptive') -> None",
            "SaddleForm": (
                "(K: pdhg_lp.sparse.SparseMatrix, q: numpy.ndarray, m1: int, c: numpy.ndarray, l: numpy.ndarray, "
                "u: numpy.ndarray, objective_offset: float = 0.0, objective_sign: int = 1) -> None"
            ),
            "ScalingInfo": (
                "(row_scale: numpy.ndarray, col_scale: numpy.ndarray, row_order: numpy.ndarray = None) -> None"
            ),
            "SolveReport": (
                "(status: str, reason: str, x: numpy.ndarray, y: numpy.ndarray, reduced_costs: numpy.ndarray, "
                "objective_value: float, dual_objective_value: float, kkt: object, iterations: int, "
                "restarts: int, restarts_by_reason: dict, matvecs: int, gap_evaluations: int, step_trials: int, "
                "step_size: float, primal_weight: float, certificate: dict, residual_history: list, "
                "timings: dict, notes: list, config: pdhg_lp.solver.SolverConfig, problem_name: str, "
                "dims: tuple) -> None"
            ),
            "SolverConfig": (
                "(termination: pdhg_lp.termination.TerminationCriteria = <factory>, "
                "scaling: str = 'logmean+ruiz+pc', restart: pdhg_lp.restarts.RestartConfig = <factory>, "
                "step: pdhg_lp.stepsize.StepPolicy = <factory>, "
                "weight: pdhg_lp.stepsize.WeightPolicy = <factory>, log_interval: int = 0) -> None"
            ),
            "StepPolicy": "(mode: str = 'halpern', fixed_step: float = None) -> None",
            "StepState": "(step_size: float, primal_weight: float, initial_step_size: float = None) -> None",
            "TerminationCriteria": (
                "(tol_optimal: float = 1e-08, iteration_limit: int = 250000, time_limit_sec: float = inf) -> None"
            ),
            "WeightPolicy": "(mode: str = 'adaptive', fixed_weight: float = None) -> None",
            "adaptive_step": "(state, saddle, step, *, errstate=True)",
            "apply_restart": "(state, candidate)",
            "apply_scaling": "(saddle, scaling)",
            "barabasi_albert_edges": "(num_nodes, attach_degree, seed=0)",
            "bound_objective_term": "(lam, l, u)",
            "check_dual_infeasible": "(saddle, x_ray, tol, constants=None, *, norm=None)",
            "check_optimal": "(report, criteria)",
            "check_primal_infeasible": "(saddle, y_ray, tol, constants=None, *, norm=None)",
            "combined_rescale": "(matrix, mode='logmean+ruiz+pc', *, m1=None, deadline=inf)",
            "config_flags": "(config)",
            "config_from_flags": "(flags)",
            "extract_certificates": "(z_prev, z_cur, z_initial, iteration)",
            "generate_bilinear_toy": "()",
            "generate_dual_infeasible_toy": "()",
            "generate_pagerank": "(spec)",
            "generate_primal_infeasible_toy": "()",
            "initialize_step_state": "(saddle, norm_k, step_policy, weight_policy)",
            "kkt_error": "(saddle, x, y, constants=None)",
            "lagrangian": "(saddle, x, y)",
            "normalized_duality_gap": "(saddle, x, y, radius, *, stop_above=inf)",
            "parse_mps": "(source, dialect=None)",
            "pdhg_step": "(state, saddle, step, *, halpern=False, errstate=True, count=1, deadline=inf)",
            "project_dual": "(y, m1)",
            "project_primal": "(x, l, u)",
            "ps_norm": "(z1, z2, step, mode='omega', matrix=None)",
            "read_mps": "(path, dialect=None)",
            "render_json": "(report, include_solution=False)",
            "render_text": "(report)",
            "report_to_dict": "(report, include_solution=False)",
            "ruiz_rescale": "(matrix, num_iters=10)",
            "should_restart": "(state, candidate_gap=None, reference_gap=None, residuals=None)",
            "solve": "(problem, config=None)",
            "solve_vanilla": "(problem, step_size, max_iters, tol=1e-08)",
            "spectral_norm_estimate": "(matrix, tol=0.0001, max_iters=5000, seed=0, *, deadline=inf)",
            "to_saddle": "(problem)",
            "unscale_solution": "(x_scaled, y_scaled, scaling)",
            "update_primal_weight": "(current, dx_norm, dy_norm, policy)",
            "validate": "(problem)",
            "write_mps": "(problem, out=None)",
        }
        assert not hasattr(pl.IterateState, "average")
        assert not hasattr(pl.StepState, "eta") and not hasattr(pl.SolveReport, "solved")

    def test_every_public_name_has_a_caller(self):
        # A public name is read by the package's own code, or named where a
        # user meets it: the README, the acceptance tests or the benchmark.
        # Reads are Name and Attribute loads, so a docstring is no caller.
        package = pathlib.Path(pl.__file__).parent
        read = set()
        for path in package.glob("*.py"):
            if path.name != "__init__.py":
                for node in ast.walk(ast.parse(path.read_text(), str(path))):
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                        read.add(node.id)
                    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                        read.add(node.attr)
        root = package.parents[1]
        sources = [root / "README.md", root / "tests" / "test_acceptance.py", *sorted((root / "perfbench").glob("*.py"))]
        named = "\n".join(path.read_text() for path in sources)
        public = [name for name in pl.__all__ if not inspect.ismodule(getattr(pl, name))]
        assert [name for name in public if name not in read and not re.search(rf"\b{name}\b", named)] == []

    def test_unknown_flags_rejected(self):
        with pytest.raises(ValueError, match="unknown config flags"):
            config_from_flags({"tolerence": 1e-8})
        with pytest.raises(ValueError, match=r"unknown config flags: \['restart\.sharpnes'\]"):
            config_from_flags({"restart": {"sharpnes": 2.0}})
        # removed settings: a block written while they existed carries their keys, null or not
        with pytest.raises(ValueError, match=r"unknown config flags: \['restart\.sharpness'\]"):
            config_from_flags({"restart": {"sharpness": 2.0}})
        old = config_flags(pl.SolverConfig())
        old["restart"]["sharpness"] = None
        with pytest.raises(ValueError, match=r"unknown config flags: \['restart\.sharpness'\]"):
            config_from_flags(old)
        # the fixed restart scheme's period, a number with that scheme, null without it
        for period in (128, None):
            old = config_flags(pl.SolverConfig())
            old["restart"]["period"] = period
            with pytest.raises(ValueError, match=r"unknown config flags: \['restart\.period'\]"):
                config_from_flags(old)
        # the Ruiz sweeps, the Pock-Chambolle exponent, the gap decay bound,
        # the check interval, infeasibility detection and its tolerance, now
        # module constants or always on, at the defaults they had as settings
        old = config_flags(pl.SolverConfig())
        for path, block in [
            ("ruiz_iterations", {**old, "ruiz_iterations": 10}),
            ("pc_alpha", {**old, "pc_alpha": 1.0}),
            ("restart.sufficient_decay", {**old, "restart": {**old["restart"], "sufficient_decay": 0.5}}),
            ("check_interval", {**old, "check_interval": 64}),
            ("detect_infeasibility", {**old, "detect_infeasibility": True}),
            ("termination.tol_infeasible",
             {**old, "termination": {**old["termination"], "tol_infeasible": 1e-10}}),
        ]:
            with pytest.raises(ValueError, match=rf"unknown config flags: \['{path}'\]"):
                config_from_flags(block)

    def test_bad_flag_values_rejected(self):
        with pytest.raises(ValueError, match="config restart: unknown restart scheme 'sometimes'"):
            config_from_flags({"restart": {"scheme": "sometimes"}})
        with pytest.raises(ValueError, match="config step: unknown step mode 'big'"):
            config_from_flags({"step": {"mode": "big"}})
        with pytest.raises(ValueError, match="config weight: unknown weight mode 'bogus'"):
            config_from_flags({"weight": {"mode": "bogus"}})
        with pytest.raises(ValueError, match="config block: unknown scaling mode 'bogus'"):
            config_from_flags({"scaling": "bogus"})
        with pytest.raises(ValueError, match="restart must be a mapping"):
            config_from_flags({"restart": "sometimes"})
        with pytest.raises(ValueError, match="step.fixed_step must be float"):
            config_from_flags({"step": {"fixed_step": "big"}})
        with pytest.raises(ValueError, match="must be a mapping"):
            config_from_flags(["tolerance"])
        with pytest.raises(ValueError, match="termination.iteration_limit must be int"):
            config_from_flags({"termination": {"iteration_limit": True}})
        with pytest.raises(ValueError, match="termination.iteration_limit must be int"):
            config_from_flags({"termination": {"iteration_limit": 5.0}})
        with pytest.raises(ValueError, match="log_interval must be int"):
            config_from_flags({"log_interval": False})
        with pytest.raises(ValueError, match="termination.tol_optimal must be float"):
            config_from_flags({"termination": {"tol_optimal": False}})
        with pytest.raises(ValueError, match="config restart: unknown restart scheme 'fixed'"):
            config_from_flags({"restart": {"scheme": "fixed"}})

    def test_int_accepted_for_float(self):
        assert config_from_flags({"termination": {"tol_optimal": 2}}).termination.tol_optimal == 2.0

    def test_missing_or_null_takes_the_default(self):
        assert config_from_flags({}) == pl.SolverConfig()
        assert config_from_flags({"restart": None, "step": {"fixed_step": None}}) == pl.SolverConfig()

    def test_infinite_time_limit_serializes_as_null(self):
        flags = config_flags(pl.SolverConfig())
        assert flags["termination"]["time_limit_sec"] is None
        assert config_from_flags(flags).termination.time_limit_sec == float("inf")

    def test_other_infinities_kept(self):
        config = pl.SolverConfig(
            termination=pl.TerminationCriteria(time_limit_sec=-float("inf"), tol_optimal=float("inf")),
        )
        flags = config_flags(config)
        assert flags["termination"]["time_limit_sec"] == -float("inf")
        assert flags["termination"]["tol_optimal"] == float("inf")
        assert _json_round_trip(config) == config

    @pytest.mark.parametrize("path", sorted(_BAD_VALUES))
    def test_bad_number_named_by_its_path(self, path):
        # rejected when the config is built, not when solve first uses it
        *parents, leaf = path.split(".")
        flags = node = {}
        for name in parents:
            node = node.setdefault(name, {})
        node[leaf] = _BAD_VALUES[path]
        block = parents[0] if parents else "block"
        with pytest.raises(ValueError, match=f"^config {block}: {leaf}[: ]"):
            config_from_flags(flags)

    @pytest.mark.parametrize("value", [100.5, 2.5, 5.0, math.inf, True, False])
    def test_non_integer_counts_rejected(self, value):
        # rejected when the config is built, so every config that builds
        # writes a block that reads back
        with pytest.raises(pl.NonPositiveInput, match=rf"^iteration_limit must be an integer >= 0, got {value!r}$"):
            pl.TerminationCriteria(iteration_limit=value)
        with pytest.raises(pl.NonPositiveInput, match=rf"^log_interval must be an integer >= 0, got {value!r}$"):
            pl.SolverConfig(log_interval=value)

    @pytest.mark.parametrize("value", [True, False, "0.5", 0.5j])
    def test_non_real_numbers_rejected(self, value):
        # the same rule whichever way the value comes: a bool or a string is
        # no number here, as it is not in a config block
        builds = {
            "tol_optimal": lambda: pl.TerminationCriteria(tol_optimal=value),
            "time_limit_sec": lambda: pl.TerminationCriteria(time_limit_sec=value),
            "fixed_step": lambda: pl.StepPolicy(mode="fixed", fixed_step=value),
            "fixed_weight": lambda: pl.WeightPolicy(mode="fixed", fixed_weight=value),
        }
        for name, build in builds.items():
            with pytest.raises(pl.NonPositiveInput, match=rf"^{name} must be a real number, got {re.escape(repr(value))}$"):
                build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: pl.SolverConfig(
                termination=pl.TerminationCriteria(
                    tol_optimal=np.float32(1e-6), iteration_limit=np.int64(100), time_limit_sec=np.float64(30.0)
                ),
                log_interval=np.int32(5),
            ),
            lambda: pl.SolverConfig(
                step=pl.StepPolicy(mode="fixed", fixed_step=np.float32(0.25)),
                weight=pl.WeightPolicy(mode="fixed", fixed_weight=np.float16(2.0)),
                termination=pl.TerminationCriteria(iteration_limit=np.uint8(200)),
            ),
        ],
        ids=["termination", "fixed_values"],
    )
    def test_numpy_scalars_stored_as_python_numbers(self, build):
        # a config stores plain values, so its report renders and its block reads back
        def leaves(flags):
            for value in flags.values():
                yield from leaves(value) if isinstance(value, dict) else [value]

        config = build()
        assert {type(value) for value in leaves(config_flags(config))} <= {int, float, str, type(None)}
        report = json.loads(render_json(pl.solve(random_feasible_lp(2), config)))
        assert config_from_flags(report["config"]) == config

    def test_edge_values_accepted(self):
        term = pl.TerminationCriteria(tol_optimal=0.0, iteration_limit=0, time_limit_sec=0.0)
        config = pl.SolverConfig(termination=term, log_interval=0)
        assert _json_round_trip(config) == config


# Configs whose echo lost fields under the earlier hand-written mapping:
# fields it never wrote.
_LIMITS = pl.TerminationCriteria(tol_optimal=1e-6, iteration_limit=2000)
_ECHO_CONFIGS = {
    "unmapped_fields": pl.SolverConfig(
        termination=_LIMITS,
        log_interval=50,
    ),
}


@pytest.mark.parametrize("name", sorted(_ECHO_CONFIGS))
def test_config_echo_reproduces_any_run(name):
    config = _ECHO_CONFIGS[name]
    problem = random_feasible_lp(3, n=12, m_ineq=8, m_eq=2, spread=1.0)
    first = json.loads(render_json(pl.solve(problem, config), include_solution=True))
    echoed = config_from_flags(first["config"])
    assert echoed == config
    again = json.loads(render_json(pl.solve(problem, echoed), include_solution=True))
    del first["timings"], again["timings"]
    assert again == first


@pytest.fixture(scope="module")
def report():
    return pl.solve(pl.generate_bilinear_toy())


class TestReportSerialization:

    def test_top_level_keys(self, report):
        d = report_to_dict(report)
        assert sorted(d) == [
            "certificate",
            "config",
            "counts",
            "history",
            "kkt",
            "notes",
            "objective",
            "problem",
            "reason",
            "solver",
            "status",
            "step",
            "timings",
        ]
        assert d["status"] == "optimal"
        assert d["problem"]["name"] == "bilinear_toy"
        assert d["problem"]["variables"] == 1
        assert d["counts"]["iterations"] == report.iterations
        assert d["history"][0][0] == 0.0

    def test_json_serializable(self, report):
        parsed = json.loads(render_json(report))
        assert parsed["solver"]["name"] == "pdhg-lp"
        assert parsed["solver"]["version"] == pl.__version__

    def test_solution_block_optional(self, report):
        assert "solution" not in report_to_dict(report)
        d = report_to_dict(report, include_solution=True)
        assert d["solution"]["x"] == pytest.approx([3.0], abs=1e-6)
        assert len(d["solution"]["y"]) == 1
        assert len(d["solution"]["reduced_costs"]) == 1

    def test_config_echo_reproduces_run(self, report):
        echoed = config_from_flags(report_to_dict(report)["config"])
        again = pl.solve(pl.generate_bilinear_toy(), echoed)
        assert again.iterations == report.iterations
        assert again.status == report.status

    def test_certificate_block(self):
        report = pl.solve(pl.generate_primal_infeasible_toy())
        d = report_to_dict(report)
        assert d["certificate"]["kind"] == "primal_infeasibility"
        assert d["certificate"]["ray"] == pytest.approx([-1.0])
        json.dumps(d)  # numpy types fully converted

    def test_render_text(self, report):
        text = render_text(report)
        assert "status            optimal" in text
        assert "iterations" in text
        cert_text = render_text(pl.solve(pl.generate_primal_infeasible_toy()))
        assert "certificate       primal_infeasibility" in cert_text
