"""Termination tests: relative KKT errors and infeasibility certificates.

All quantities here are evaluated on the original (unscaled) problem data.
"""

from dataclasses import dataclass

import math

import numpy as np

from .exceptions import NonPositiveInput, NotACertificate


@dataclass(frozen=True)
class TerminationCriteria:
    tol_optimal: float = 1e-8
    tol_infeasible: float = 1e-10
    iteration_limit: int = 250_000
    time_limit_sec: float = math.inf


@dataclass(frozen=True)
class KktReport:
    """Absolute and relative KKT errors at a point (x, y).

    Objective values are in the internal minimization orientation and do not
    include the constant offset; the solve report applies sign and offset
    when presenting them.
    """

    primal_residual: float
    dual_residual: float
    duality_gap: float
    rel_primal: float
    rel_dual: float
    rel_gap: float
    primal_objective: float
    dual_objective: float
    reduced_costs: np.ndarray


def reduced_cost_projection(r, l, u):
    """Project r onto the cone of reduced costs compatible with the bounds.

    Coordinate i admits lambda_i >= 0 only when l_i is finite and
    lambda_i <= 0 only when u_i is finite; free variables force lambda_i = 0.
    """
    lam = np.zeros_like(r)
    lfin = np.isfinite(l)
    ufin = np.isfinite(u)
    pos = (r > 0) & lfin
    neg = (r < 0) & ufin
    lam[pos] = r[pos]
    lam[neg] = r[neg]
    return lam


def bound_objective_term(lam, l, u):
    """sum of l_i lambda_i over lambda_i > 0 plus u_i lambda_i over lambda_i < 0."""
    pos = lam > 0
    neg = lam < 0
    total = 0.0
    if np.any(pos):
        total += float(l[pos] @ lam[pos])
    if np.any(neg):
        total += float(u[neg] @ lam[neg])
    return total


def _norm(*parts):
    """Euclidean norm of the concatenated ``parts``.

    The plain square root of the summed squares (what np.linalg.norm
    computes) whenever that sum is finite; when it overflows, the parts are
    rescaled by their largest magnitude first, as LAPACK's dnrm2 does, so a
    huge vector gets a large (or infinite) norm without an overflow warning.
    """
    with np.errstate(over="ignore"):
        squares = sum(float(p.dot(p)) for p in parts)
    if math.isfinite(squares):
        return math.sqrt(squares)
    scale = max(float(np.max(np.abs(p))) for p in parts if p.size)
    if not math.isfinite(scale):
        return scale  # inf or nan entries
    return scale * math.sqrt(sum(float((p / scale).dot(p / scale)) for p in parts))


def kkt_error(saddle, x, y):
    """KKT residuals of (x, y) for the saddle-form problem."""
    kx = saddle.K.matvec(x)
    m1 = saddle.m1
    ineq_violation = np.maximum(saddle.q[:m1] - kx[:m1], 0.0)
    eq_violation = kx[m1:] - saddle.q[m1:]
    primal_residual = _norm(ineq_violation, eq_violation)

    r = saddle.c - saddle.K.rmatvec(y)
    lam = reduced_cost_projection(r, saddle.l, saddle.u)
    diff = r - lam
    dual_residual = _norm(diff)

    primal_objective = float(saddle.c @ x)
    dual_objective = float(saddle.q @ y) + bound_objective_term(lam, saddle.l, saddle.u)
    duality_gap = abs(primal_objective - dual_objective)

    norm_q = _norm(saddle.q)
    norm_c = _norm(saddle.c)
    return KktReport(
        primal_residual=primal_residual,
        dual_residual=dual_residual,
        duality_gap=duality_gap,
        rel_primal=primal_residual / (1.0 + norm_q),
        rel_dual=dual_residual / (1.0 + norm_c),
        rel_gap=duality_gap / (1.0 + abs(primal_objective) + abs(dual_objective)),
        primal_objective=primal_objective,
        dual_objective=dual_objective,
        reduced_costs=lam,
    )


def check_optimal(report, criteria):
    """All three relative errors at or below the optimality tolerance."""
    tol = criteria.tol_optimal
    return report.rel_primal <= tol and report.rel_dual <= tol and report.rel_gap <= tol


@dataclass(frozen=True)
class CertificateCandidate:
    """A direction extracted from the iterate sequence, to be tested as a ray."""

    kind: str  # "difference" or "normalized"
    x: np.ndarray
    y: np.ndarray
    iteration: int


def extract_certificates(z_prev, z_cur, z_initial, iteration):
    """Both candidate rays at iteration k: the last difference z_k - z_{k-1}
    and the normalized displacement (z_k - z_0)/k."""
    if iteration < 1:
        raise NonPositiveInput("certificate extraction needs iteration >= 1")
    xp, yp = z_prev
    xc, yc = z_cur
    x0, y0 = z_initial
    return [
        CertificateCandidate("difference", xc - xp, yc - yp, iteration),
        CertificateCandidate("normalized", (xc - x0) / iteration, (yc - y0) / iteration, iteration),
    ]


@dataclass(frozen=True)
class CertificateVerdict:
    valid: bool
    residual: float
    gain: float
    margin: float


def _unit(ray):
    ray = np.asarray(ray, dtype=np.float64)
    norm = float(np.linalg.norm(ray))
    if norm == 0.0 or not np.isfinite(norm):
        raise NotACertificate("certificate candidate has zero or non-finite norm")
    return ray / norm


def check_primal_infeasible(saddle, y_ray, tol):
    """Test a dual ray y as a certificate of primal infeasibility.

    After unit normalization the ray must lie in the dual cone up to tol,
    its reduced costs -K'y must be attainable up to tol, and the certified
    objective gain must clear tol relative to the data magnitude.
    """
    yhat = _unit(y_ray)
    m1 = saddle.m1
    cone_violation = float(max(0.0, -yhat[:m1].min())) if m1 else 0.0
    rhat = -saddle.K.rmatvec(yhat)
    lamhat = reduced_cost_projection(rhat, saddle.l, saddle.u)
    attain = float(np.max(np.abs(rhat - lamhat))) if rhat.size else 0.0
    residual = max(cone_violation, attain)
    gain = float(saddle.q @ yhat) + bound_objective_term(lamhat, saddle.l, saddle.u)
    scale = max(1.0, float(np.linalg.norm(saddle.q)), _finite_abs_max(saddle.l), _finite_abs_max(saddle.u))
    valid = residual <= tol and gain >= tol * scale
    return CertificateVerdict(valid=valid, residual=residual, gain=gain, margin=gain / scale - residual)


def check_dual_infeasible(saddle, x_ray, tol):
    """Test a primal ray d as a certificate of dual infeasibility
    (primal unboundedness direction)."""
    d = _unit(x_ray)
    kd = saddle.K.matvec(d)
    m1 = saddle.m1
    residual = 0.0
    if kd[m1:].size:
        residual = float(np.max(np.abs(kd[m1:])))
    if m1:
        residual = max(residual, float(max(0.0, -kd[:m1].min())))
    lfin = np.isfinite(saddle.l)
    ufin = np.isfinite(saddle.u)
    below = lfin & ~ufin
    above = ufin & ~lfin
    both = lfin & ufin
    if np.any(below):
        residual = max(residual, float(np.max(np.maximum(-d[below], 0.0))))
    if np.any(above):
        residual = max(residual, float(np.max(np.maximum(d[above], 0.0))))
    if np.any(both):
        residual = max(residual, float(np.max(np.abs(d[both]))))
    gain = -float(saddle.c @ d)
    scale = max(1.0, float(np.linalg.norm(saddle.c)))
    valid = residual <= tol and gain >= tol * scale
    return CertificateVerdict(valid=valid, residual=residual, gain=gain, margin=gain / scale - residual)


def _finite_abs_max(v):
    finite = v[np.isfinite(v)]
    return float(np.max(np.abs(finite))) if finite.size else 0.0
