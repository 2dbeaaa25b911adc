"""Independent references and the per-operation correctness check.

References are computed in set-up, outside every timed region:

* small LPs: status and objective from HiGHS (``scipy.optimize.linprog``),
  which must also agree with the status the instance builder planted;
* PageRank: the stationary vector from the fixed-point iteration
  x <- lambda S x + (1 - lambda)/n, a contraction with factor lambda in the
  1-norm because S is column-stochastic.

An operation *fails* when its status differs from the reference, when its
result lies outside the reference bound, or when it raises.  A failure is
also *wrong* when the program asserted something false: a verdict
(optimal, primal or dual infeasible) that contradicts the reference, an
optimal result outside the bound, or an exception.  Stopping at an
iteration or time limit, or on a numerical error, is a failure to solve
without a false claim.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

STATUS_BY_HIGHS = {0: "optimal", 2: "primal_infeasible", 3: "dual_infeasible"}
VERDICTS = frozenset(STATUS_BY_HIGHS.values())

# An objective passes when |f - f*| <= OBJECTIVE_TOL_FACTOR * tol * (1 + |f*|).
# Relative KKT errors at tol bound the objective error only up to the LP's
# conditioning; on the criterion-8 LPs (data magnitudes 10^+-3) the measured
# ratio |f - f*| / (tol * (1 + |f*|)) reaches about 4.4, so a factor of 100
# leaves room for summation-order drift and still rejects an objective that
# is wrong at 100 * tol.
OBJECTIVE_TOL_FACTOR = 100.0


@dataclass(frozen=True)
class Outcome:
    ok: bool
    wrong: bool
    reason: str


PASSED = Outcome(True, False, "")


def highs_reference(arrays):
    """(status, objective) of {min c'x : Gx >= h, l <= x <= u} from HiGHS."""
    bounds = [
        (None if math.isinf(lo) else lo, None if math.isinf(hi) else hi)
        for lo, hi in zip(arrays["lower"], arrays["upper"])
    ]
    kwargs = {}
    if arrays["G"].shape[0]:
        kwargs = {"A_ub": -arrays["G"], "b_ub": -arrays["h"]}
    if arrays.get("A") is not None and arrays["A"].shape[0]:
        kwargs.update(A_eq=arrays["A"], b_eq=arrays["b"])
    res = linprog(arrays["c"], bounds=bounds, method="highs", **kwargs)
    if res.status not in STATUS_BY_HIGHS:
        raise RuntimeError(f"HiGHS gave no verdict (status {res.status}: {res.message})")
    status = STATUS_BY_HIGHS[res.status]
    return status, (float(res.fun) if status == "optimal" else None)


def check_lp(status, objective, ref_status, ref_objective, tol):
    """Compare one LP solve's status and objective with its reference."""
    if status != ref_status:
        wrong = status in VERDICTS
        return Outcome(False, wrong, f"status {status}, reference {ref_status}")
    if ref_status == "optimal":
        err = abs(objective - ref_objective)
        bound = OBJECTIVE_TOL_FACTOR * tol * (1.0 + abs(ref_objective))
        if not err <= bound:
            return Outcome(False, True, f"objective {objective!r} off reference {ref_objective!r} by {err:.3e} > {bound:.3e}")
    return PASSED


def pagerank_reference(ineq_csr, damping, max_iters=2000):
    """Stationary vector of the PageRank LP whose inequality block is
    G = I - damping * S, by fixed-point iteration to 1e-15 in the 1-norm."""
    n = ineq_csr.shape[0]
    lam_s = (sp.eye(n, format="csr") - ineq_csr).tocsr()
    col_sums = np.asarray(lam_s.sum(axis=0)).ravel()
    if lam_s.nnz and (lam_s.data.min() < 0 or np.abs(col_sums - damping).max() > 1e-12):
        raise RuntimeError("inequality block is not I - damping * (column-stochastic S)")
    b = np.full(n, (1.0 - damping) / n)
    x = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        x_next = lam_s @ x + b
        step = float(np.abs(x_next - x).sum())
        x = x_next
        # ||x - x*||_1 <= damping / (1 - damping) * step for a contraction
        if damping / (1.0 - damping) * step <= 1e-15:
            return x
    raise RuntimeError("PageRank reference iteration did not converge")


def check_pagerank(status, x, ineq_csr, damping, x_ref, tol):
    """Check a PageRank solve: optimal status, x >= 0, the relative primal
    residual recomputed here at most tol, and ||x - x*||_1 within the bound
    that residual implies.

    The bound: every row residual r = Gx - b sums to (1 - lambda)(sum x - 1),
    so ||r||_1 <= 2 sqrt(n) ||violation||_2 + |sum x - 1|, and
    ||G^{-1}||_1 <= 1 / (1 - lambda); 3 sqrt(n) tol (1 + ||q||) / (1 - lambda)
    covers both terms.
    """
    if status != "optimal":
        return Outcome(False, status in VERDICTS, f"status {status}, reference optimal")
    n = ineq_csr.shape[0]
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,) or not np.all(np.isfinite(x)) or x.min() < 0.0:
        return Outcome(False, True, "solution is not a finite nonnegative vector of the right length")
    b = (1.0 - damping) / n
    violation = np.maximum(b - ineq_csr @ x, 0.0)
    eq_resid = float(x.sum()) - 1.0
    norm_q = math.sqrt(n * b * b + 1.0)
    rel_primal = math.sqrt(float(violation @ violation) + eq_resid * eq_resid) / (1.0 + norm_q)
    if not rel_primal <= tol * (1.0 + 1e-9):
        return Outcome(False, True, f"recomputed relative primal residual {rel_primal:.3e} > tol {tol:.1e}")
    err = float(np.abs(x - x_ref).sum())
    bound = 3.0 * math.sqrt(n) * tol * (1.0 + norm_q) / (1.0 - damping)
    if not err <= bound:
        return Outcome(False, True, f"||x - x*||_1 = {err:.3e} > {bound:.3e}")
    return PASSED
