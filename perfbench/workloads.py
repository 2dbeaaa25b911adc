"""The four benchmark workloads.

Each workload builds its inputs with package code (timed as set-up),
computes its references (untimed), warms up, and then runs operations.  An
operation is one ``pl.solve`` call, or one ``cli.main`` round trip
(generate, then solve) on ``pagerank-mps-cli``.  ``run_op`` returns plain
values, so that checking happens after the timed pass.

``nominal_pass_s`` sizes a run: a run makes ``--seconds / nominal_pass_s``
passes (rounded, at least one), so both sides of a comparison time the same
operations.  At the parent commit, on a shared 2-core x86 VM (Python 3.11,
numpy 2.4, scipy 1.17), one pass took 16-20 s on pagerank-1e5 and 5-8.5 s
on the other three workloads, as the host's speed drifted by up to 30 %
over minutes.  A 20-second run thus makes one pass of pagerank-1e5 and
three of each other workload.
"""

import json
import os

import numpy as np
import scipy.sparse as sp

import instances
import oracles

DAMPING = 0.85


def _lp_arrays(problem):
    """Dense arrays of an LpProblem, for HiGHS."""
    return {
        "c": problem.c,
        "G": problem.ineq_matrix.toarray(),
        "h": problem.ineq_rhs,
        "A": problem.eq_matrix.toarray(),
        "b": problem.eq_rhs,
        "lower": problem.lower,
        "upper": problem.upper,
    }


def _lp_facts(name, problem):
    return {
        "name": name,
        "variables": problem.num_variables,
        "inequalities": problem.num_inequalities,
        "equalities": problem.num_equalities,
        "nnz": problem.nnz,
    }


def _kkt_rel(kkt):
    return max(kkt.rel_primal, kkt.rel_dual, kkt.rel_gap)


class SmallLpWorkload:
    """``pl.solve`` over the criterion-8 LPs, optionally with planted
    infeasible and unbounded variants and the three toys."""

    def __init__(self, name, nominal_pass_s, tol, iteration_limit, fixed_step, planted):
        self.name, self.nominal_pass_s = name, nominal_pass_s
        self.tol, self.iteration_limit = tol, iteration_limit
        self.fixed_step, self.planted = fixed_step, planted

    def build(self, pl, seed):
        term = pl.TerminationCriteria(tol_optimal=self.tol, iteration_limit=self.iteration_limit)
        if self.fixed_step:
            # criterion 8's "scaled_restarts": fixed step 0.9/||K||, fixed primal weight
            config = pl.SolverConfig(
                termination=term,
                scaling="ruiz+pc",
                restart=pl.RestartConfig(scheme="adaptive"),
                step=pl.StepPolicy(mode="fixed"),
                weight=pl.WeightPolicy(mode="fixed"),
            )
        else:
            config = pl.SolverConfig(termination=term)
        problems = []
        for name, a, planted_status in instances.small_lp_specs(seed, planted=self.planted):
            problem = pl.LpProblem(
                c=a["c"], ineq_matrix=a["G"], ineq_rhs=a["h"], lower=a["lower"], upper=a["upper"], name=name
            )
            problems.append((name, problem, planted_status))
        if self.planted:
            problems += [
                ("bilinear_toy", pl.generate_bilinear_toy(), "optimal"),
                ("primal_infeasible_toy", pl.generate_primal_infeasible_toy(), "primal_infeasible"),
                ("dual_infeasible_toy", pl.generate_dual_infeasible_toy(), "dual_infeasible"),
            ]
        return {"config": config, "problems": problems}

    def references(self, inputs):
        refs = []
        for name, problem, planted_status in inputs["problems"]:
            status, objective = oracles.highs_reference(_lp_arrays(problem))
            if status != planted_status:
                raise RuntimeError(f"{name}: HiGHS says {status}, the builder planted {planted_status}")
            refs.append((status, objective))
        return refs

    def facts(self, inputs):
        return {"instances": [_lp_facts(name, p) for name, p, _ in inputs["problems"]]}

    def warm_up(self, pl, inputs, workdir):
        pl.solve(inputs["problems"][0][1], inputs["config"])

    def num_ops(self, inputs):
        return len(inputs["problems"])

    def run_op(self, pl, inputs, i, workdir):
        report = pl.solve(inputs["problems"][i][1], inputs["config"])
        return {
            "status": report.status,
            "objective": report.objective_value,
            "iterations": report.iterations,
            "restarts": report.restarts,
            "gap_evaluations": report.gap_evaluations,
            "kkt_rel": _kkt_rel(report.kkt),
        }

    def check(self, inputs, refs, i, result):
        ref_status, ref_objective = refs[i]
        return oracles.check_lp(result["status"], result["objective"], ref_status, ref_objective, self.tol)

    def op_name(self, inputs, i):
        return inputs["problems"][i][0]

    def reference_status(self, refs, i):
        return refs[i][0]


def _pagerank_problem(pl, g_csr, name):
    n = g_csr.shape[0]
    return pl.LpProblem(
        c=np.zeros(n),
        ineq_matrix=pl.SparseMatrix(g_csr),
        ineq_rhs=np.full(n, (1.0 - DAMPING) / n),
        eq_matrix=pl.SparseMatrix(sp.csr_matrix(np.ones((1, n)))),
        eq_rhs=np.array([1.0]),
        lower=np.zeros(n),
        upper=np.full(n, np.inf),
        name=name,
    )


def _pagerank_facts(problems):
    """Instance facts plus the computed working set of one solve: K and its
    CSR transpose (8-byte value and 4-byte index per entry, plus row
    pointers) and about ten iterate-sized vectors in the step kernel."""
    p = problems[0]
    m, n = p.num_inequalities + p.num_equalities, p.num_variables
    return {
        "instances": [_lp_facts(q.name, q) for q in problems],
        "working_set_bytes_computed": 2 * (12 * p.nnz + 4 * (m + n + 2)) + 10 * 8 * (m + n),
    }


class PagerankWorkload:
    """``pl.solve`` at tol 1e-8, default config, on two relabelings of one
    n=1e5 PageRank graph (the package generator's, spec seed 0).

    The benchmark seed draws the two node permutations.  Any change to the
    input, even a relabeling, reorders floating-point sums and moves the
    iteration count between 768, 960 and 1024 (seeds 0-9), so a pass solves
    two relabelings to halve that spread.
    """

    name = "pagerank-1e5"
    nominal_pass_s = 19.0
    num_nodes = 100_000
    relabelings = 2
    tol = 1e-8

    def build(self, pl, seed):
        base = pl.generate_pagerank(pl.PagerankSpec(**instances.pagerank_spec_args(0, self.num_nodes)))
        g = base.ineq_matrix.tocsr()
        problems = []
        for k in range(self.relabelings):
            perm = np.random.default_rng([seed, k]).permutation(self.num_nodes)
            problems.append(_pagerank_problem(pl, g[perm][:, perm], f"{base.name}_perm{seed}.{k}"))
        config = pl.SolverConfig(termination=pl.TerminationCriteria(tol_optimal=self.tol))
        return {"problems": problems, "config": config}

    def references(self, inputs):
        refs = []
        for problem in inputs["problems"]:
            g = problem.ineq_matrix.tocsr()
            refs.append({"G": g, "x": oracles.pagerank_reference(g, DAMPING)})
        return refs

    def facts(self, inputs):
        return _pagerank_facts(inputs["problems"])

    def warm_up(self, pl, inputs, workdir):
        pl.solve(pl.generate_pagerank(pl.PagerankSpec(num_nodes=5000)), inputs["config"])

    def num_ops(self, inputs):
        return len(inputs["problems"])

    def run_op(self, pl, inputs, i, workdir):
        report = pl.solve(inputs["problems"][i], inputs["config"])
        return {
            "status": report.status,
            "x": report.x,
            "iterations": report.iterations,
            "restarts": report.restarts,
            "gap_evaluations": report.gap_evaluations,
            "kkt_rel": _kkt_rel(report.kkt),
        }

    def check(self, inputs, refs, i, result):
        ref = refs[i]
        return oracles.check_pagerank(result["status"], result["x"], ref["G"], DAMPING, ref["x"], self.tol)

    def op_name(self, inputs, i):
        return inputs["problems"][i].name

    def reference_status(self, refs, i):
        return "optimal"


class PagerankCliWorkload:
    """``pdhg-lp generate pagerank`` to an MPS file, then ``pdhg-lp solve``
    on it at tol 1e-4, through ``cli.main``.  The graph seed is the
    benchmark seed; the pass is dominated by MPS text, whose size depends on
    n and the degree only."""

    name = "pagerank-mps-cli"
    nominal_pass_s = 6.5
    num_nodes = 50_000
    tol = 1e-4

    def build(self, pl, seed):
        spec = instances.pagerank_spec_args(seed, self.num_nodes)
        return {"spec": spec, "problem": pl.generate_pagerank(pl.PagerankSpec(**spec))}

    def references(self, inputs):
        g = inputs["problem"].ineq_matrix.tocsr()
        return {"G": g, "x": oracles.pagerank_reference(g, DAMPING)}

    def facts(self, inputs):
        return _pagerank_facts([inputs["problem"]])

    def _round_trip(self, pl, spec, workdir, tag):
        mps = os.path.join(workdir, f"{tag}.mps")
        report = os.path.join(workdir, f"{tag}.json")
        solution = os.path.join(workdir, f"{tag}.npz")
        gen_rc = pl.cli.main([
            "generate", "pagerank", "--nodes", str(spec["num_nodes"]), "--degree", str(spec["attach_degree"]),
            "--damping", repr(spec["damping"]), "--seed", str(spec["seed"]), "--out", mps,
        ])
        solve_rc = pl.cli.main(["solve", mps, "--tolerance", repr(self.tol), "--out", report, "--solution-out", solution])
        return {"generate_rc": gen_rc, "solve_rc": solve_rc, "mps": mps, "report": report, "solution": solution}

    def warm_up(self, pl, inputs, workdir):
        spec = dict(inputs["spec"], num_nodes=2000)
        self._round_trip(pl, spec, workdir, "warm_up")

    def num_ops(self, inputs):
        return 1

    def run_op(self, pl, inputs, i, workdir):
        return self._round_trip(pl, inputs["spec"], workdir, f"op{i}")

    def check(self, inputs, refs, i, result):
        """Check exit codes, the report's status and the solution file; also
        copies the report's status and counts into ``result``, where the
        operation's record picks them up."""
        if result["generate_rc"] != 0 or result["solve_rc"] != 0:
            return oracles.Outcome(False, True, f"exit codes {result['generate_rc']}, {result['solve_rc']}")
        with open(result["report"]) as fh:
            report = json.load(fh)
        with np.load(result["solution"]) as sol:
            x = sol["x"]
        result.update(
            status=report["status"],
            iterations=report["counts"]["iterations"],
            restarts=report["counts"]["restarts"],
            gap_evaluations=report["counts"]["gap_evaluations"],
            kkt_rel=max(report["kkt"]["rel_primal"], report["kkt"]["rel_dual"], report["kkt"]["rel_gap"]),
            mps_bytes=os.path.getsize(result["mps"]),
        )
        return oracles.check_pagerank(report["status"], x, refs["G"], DAMPING, refs["x"], self.tol)

    def op_name(self, inputs, i):
        return "generate+solve"

    def reference_status(self, refs, i):
        return "optimal"


WORKLOADS = {
    w.name: w
    for w in (
        PagerankWorkload(),
        SmallLpWorkload(
            "small-lp-mix", nominal_pass_s=6.5, tol=1e-8, iteration_limit=10_000, fixed_step=False, planted=True,
        ),
        SmallLpWorkload(
            "small-lp-fixed-step", nominal_pass_s=6.5, tol=1e-4, iteration_limit=100_000, fixed_step=True,
            planted=False,
        ),
        PagerankCliWorkload(),
    )
}
