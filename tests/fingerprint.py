"""Print a fingerprint of many solves, to show that a change keeps every bit.

    python tests/fingerprint.py

imports the package from the ``src`` beside this file, so running the
script of two checkouts compares their solvers.  One line per solve gives
the status, reason, iterations, restarts by reason, gap evaluations, step
trials, matvecs, the final step size and primal weight as hex, and the md5
of x and of y.  Each config's lines end with a digest of them
(``digest <config> <md5>``), so a change meant to move some configs shows
which moved, and a digest of all solve lines comes last.  Two commits that
print the same lines run the same arithmetic on these inputs.  After each
config's digest a line ``sums <config> iterations=N <status>=k ...`` gives
its iteration sum and status counts, so a change that moves bits can state
what it moved; these lines enter no digest.

Configs: the default (reflected Halpern), the fixed step with a fixed
weight (``small-lp-fixed-step``'s step and weight in the benchmark, which
takes ``"ruiz+pc"`` scaling where this takes the default), the fixed step
with the adaptive weight, and the adaptive step.  Problems: the 20
criterion-8 LPs, the planted unbounded and infeasible LPs of seeds 0-3, the
three toys, and one PageRank with n = 30,000, whose 2.4e5 nonzeros take the
two-thread Halpern and fixed steps, the two-block products of the norm
estimate and the checks, and the row order of the working space.

The last bits may depend on the numpy and scipy builds and the CPU, but
not on the number of threads BLAS may use or on the CPU count: no sum in a
solve is split by either (every product runs scipy's own loops on row
blocks that depend only on the nonzero count, and the norm estimate's dots
run on the calling thread), so a run pinned to one CPU or with
``OPENBLAS_NUM_THREADS=1`` prints the same solve lines as one that is not.
The first line names the usable CPU count and ``OPENBLAS_NUM_THREADS`` and
enters no digest; compare the lines after it.
pytest does not collect this file.  It takes about 4 s on a 2-core x86 VM.
"""

import hashlib
import os
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import pdhg_lp as pl  # noqa: E402

from conftest import planted_infeasible_lp, planted_unbounded_lp, random_feasible_lp  # noqa: E402


def configs():
    fine = pl.TerminationCriteria(tol_optimal=1e-8, iteration_limit=10_000)
    coarse = pl.TerminationCriteria(tol_optimal=1e-4, iteration_limit=100_000)
    fixed = pl.StepPolicy(mode="fixed")
    return {
        "default": pl.SolverConfig(termination=fine),
        "fixed-step": pl.SolverConfig(termination=coarse, step=fixed, weight=pl.WeightPolicy(mode="fixed")),
        "fixed-step-adaptive-weight": pl.SolverConfig(termination=coarse, step=fixed),
        "adaptive-step": pl.SolverConfig(termination=fine, step=pl.StepPolicy(mode="adaptive")),
    }


def problems():
    for seed in range(20):
        yield random_feasible_lp(seed)
    for seed in range(4):
        yield planted_unbounded_lp(seed)
        yield planted_infeasible_lp(seed)
    yield pl.generate_bilinear_toy()
    yield pl.generate_primal_infeasible_toy()
    yield pl.generate_dual_infeasible_toy()
    yield pl.generate_pagerank(pl.PagerankSpec(num_nodes=30_000))


def md5(array):
    return hashlib.md5(array.tobytes()).hexdigest()


def fingerprint(report):
    restarts = ",".join(f"{why}={count}" for why, count in sorted(report.restarts_by_reason.items()))
    return " ".join(
        str(v)
        for v in (
            report.status,
            repr(report.reason),
            report.iterations,
            restarts,
            report.gap_evaluations,
            report.step_trials,
            report.matvecs,
            report.step_size.hex(),
            report.primal_weight.hex(),
            md5(report.x),
            md5(report.y),
        )
    )


def main():
    print(f"cpus {pl.sparse._cpus()} OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    digest = hashlib.md5()
    for config_name, config in configs().items():
        config_digest = hashlib.md5()
        iterations, statuses = 0, Counter()
        for problem in problems():
            report = pl.solve(problem, config)
            iterations += report.iterations
            statuses[report.status] += 1
            line = f"{config_name} {problem.name} {fingerprint(report)}"
            print(line, flush=True)
            for d in (digest, config_digest):
                d.update(line.encode() + b"\n")
        print(f"digest {config_name} {config_digest.hexdigest()}")
        counts = " ".join(f"{status}={k}" for status, k in sorted(statuses.items()))
        print(f"sums {config_name} iterations={iterations} {counts}")
    print(f"digest {digest.hexdigest()}")


if __name__ == "__main__":
    main()
