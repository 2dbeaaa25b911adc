"""Termination tests: relative KKT errors and infeasibility certificates.

All quantities here are evaluated on the original (unscaled) problem data.
The checks' per-problem constants (the finite-bound masks, ||q||, ||c|| and
the certificate scales) depend on the data alone: ``check_constants``
computes them once, ``solve`` passes them to every check, and a direct call
without them computes them itself, with the same result.  ``solve`` also
passes each candidate ray's norm, which it has computed, to the certificate
checks.
Each rule is stated once: ``_reduced_costs`` (the admitted reduced costs
and their bound term), ``_cone_violation`` (sign-constrained entries below
zero, which ``solve``'s pre-test of a dual ray shares) and ``_verdict``.
"""

from dataclasses import dataclass

import math

import numpy as np

from .exceptions import NonPositiveInput, NotACertificate, _count, _real
from .sparse import dot


@dataclass(frozen=True)
class TerminationCriteria:
    tol_optimal: float = 1e-8
    iteration_limit: int = 250_000
    time_limit_sec: float = math.inf

    def __post_init__(self):
        # plain Python numbers, which the config block writes as JSON
        object.__setattr__(self, "tol_optimal", _real("tol_optimal", self.tol_optimal))
        object.__setattr__(self, "iteration_limit", _count("iteration_limit", self.iteration_limit))
        object.__setattr__(self, "time_limit_sec", _real("time_limit_sec", self.time_limit_sec))
        if not self.tol_optimal >= 0:
            raise NonPositiveInput(f"tol_optimal must be >= 0, got {self.tol_optimal}")
        # any other limit is valid: zero or below stops at the first check, inf never
        if math.isnan(self.time_limit_sec):
            raise NonPositiveInput(f"time_limit_sec must be a number or an infinity, got {self.time_limit_sec}")


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


@dataclass(frozen=True, eq=False)
class CheckConstants:
    """What the checks compute from the problem data alone.

    ``lfin``/``ufin`` mark the finite bounds, which decide both the reduced
    costs a variable admits and the directions a primal ray may take;
    ``norm_q``/``norm_c`` are the norms that relate the KKT residuals,
    ``primal_scale``/``dual_scale`` those that relate the certificates'
    gains.
    """

    lfin: np.ndarray
    ufin: np.ndarray
    norm_q: float
    norm_c: float
    primal_scale: float
    dual_scale: float


def check_constants(saddle):
    """The CheckConstants of a saddle problem."""
    l, u = saddle.l, saddle.u
    lfin = np.isfinite(l)
    ufin = np.isfinite(u)
    # The certificate scales take the plain square root of the summed
    # squares, which is inf where _norm rescales; they differ only on data
    # whose squares overflow.
    with np.errstate(over="ignore"):
        data_norm_q = math.sqrt(dot(saddle.q, saddle.q))
        data_norm_c = math.sqrt(dot(saddle.c, saddle.c))
        norm_q, norm_c = _norm(saddle.q), _norm(saddle.c)
    return CheckConstants(
        lfin=lfin,
        ufin=ufin,
        norm_q=norm_q,
        norm_c=norm_c,
        primal_scale=max(1.0, data_norm_q, _finite_abs_max(l), _finite_abs_max(u)),
        dual_scale=max(1.0, data_norm_c),
    )


def _reduced_costs(r, l, u, lfin, ufin):
    """The reduced costs lambda that the bounds admit, and their bound term:
    lambda_i = r_i where r_i > 0 and l_i is finite (``lfin``) or r_i < 0 and
    u_i is finite (``ufin``), else 0; the term sums l_i lambda_i over the
    first kind, then u_i lambda_i over the second."""
    pos = (r > 0) & lfin
    neg = (r < 0) & ufin
    lam = np.where(pos | neg, r, 0.0)
    term = 0.0
    if pos.any():
        term += dot(l[pos], r[pos])
    if neg.any():
        term += dot(u[neg], r[neg])
    return lam, term


def _cone_violation(head):
    """max(0, -min(head)): how far the sign-constrained entries ``head``
    fall below zero, 0 when there are none."""
    return float(max(0.0, -head.min())) if head.size else 0.0


def _norm(*parts):
    """Euclidean norm of the concatenated ``parts``.

    The plain square root of the summed squares whenever that sum is
    finite; when it overflows, the parts are rescaled by their largest
    magnitude first, as LAPACK's dnrm2 does, so a huge vector gets a large
    (or infinite) norm.  Run it under
    np.errstate(over="ignore"), as ``solve``'s loop is, for that to come
    without an overflow warning.
    """
    squares = sum(dot(p, p) for p in parts)
    if math.isfinite(squares):
        return math.sqrt(squares)
    scale = max(float(np.max(np.abs(p))) for p in parts if p.size)
    if not math.isfinite(scale):
        return scale  # inf or nan entries
    return scale * math.sqrt(sum(dot(v, v) for v in (p / scale for p in parts)))


def kkt_error(saddle, x, y, constants=None):
    """KKT residuals of (x, y) for the saddle-form problem; ``constants``
    are the problem's CheckConstants, computed here when not given."""
    if constants is None:
        constants = check_constants(saddle)
    kx = saddle.K.matvec(x)
    m1 = saddle.m1
    # an overflowing residual, norm or objective is inf, and infinities of
    # opposite sign (in q - Kx, r - lam or c'x) are NaN, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        ineq_violation = np.maximum(saddle.q[:m1] - kx[:m1], 0.0)
        eq_violation = kx[m1:] - saddle.q[m1:]
        r = saddle.K.rmatvec(y)
        np.subtract(saddle.c, r, out=r)
        lam, bound_term = _reduced_costs(r, saddle.l, saddle.u, constants.lfin, constants.ufin)
        primal_residual = _norm(ineq_violation, eq_violation)
        dual_residual = _norm(np.subtract(r, lam, out=r))
        primal_objective = dot(saddle.c, x)
        dual_objective = dot(saddle.q, y) + bound_term
    duality_gap = abs(primal_objective - dual_objective)

    return KktReport(
        primal_residual=primal_residual,
        dual_residual=dual_residual,
        duality_gap=duality_gap,
        rel_primal=primal_residual / (1.0 + constants.norm_q),
        rel_dual=dual_residual / (1.0 + constants.norm_c),
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


def extract_certificates(z_prev, z_cur, z_initial, iteration):
    """Both candidate rays at iteration k: the last difference z_k - z_{k-1}
    and the normalized displacement (z_k - z_0)/k."""
    if iteration < 1:
        raise NonPositiveInput("certificate extraction needs iteration >= 1")
    xp, yp = z_prev
    xc, yc = z_cur
    x0, y0 = z_initial
    return [
        CertificateCandidate("difference", xc - xp, yc - yp),
        CertificateCandidate("normalized", (xc - x0) / iteration, (yc - y0) / iteration),
    ]


@dataclass(frozen=True)
class CertificateVerdict:
    valid: bool
    residual: float
    gain: float
    margin: float


def _verdict(residual, gain, tol, scale):
    """A unit ray is valid with residual at most tol and gain at least tol * scale."""
    return CertificateVerdict(residual <= tol and gain >= tol * scale, residual, gain, gain / scale - residual)


def _unit(ray):
    ray = np.asarray(ray, dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = _norm(ray)
    if norm == 0.0 or not math.isfinite(norm):
        raise NotACertificate("certificate candidate has zero or non-finite norm")
    return ray / norm


def check_primal_infeasible(saddle, y_ray, tol, constants=None, *, norm=None):
    """Test a dual ray y as a certificate of primal infeasibility.

    After unit normalization the ray must lie in the dual cone up to tol,
    its reduced costs -K'y must be attainable up to tol, and the certified
    objective gain must clear tol relative to the data magnitude.
    ``constants`` as for ``kkt_error``; ``norm``, when given, is the ray's
    norm, finite and nonzero.
    """
    if constants is None:
        constants = check_constants(saddle)
    yhat = _unit(y_ray) if norm is None else y_ray / norm
    rhat = saddle.K.rmatvec(yhat)
    np.negative(rhat, out=rhat)
    lamhat, bound_term = _reduced_costs(rhat, saddle.l, saddle.u, constants.lfin, constants.ufin)
    gap = np.subtract(rhat, lamhat, out=lamhat)
    attain = float(np.max(np.abs(gap, out=gap), initial=0.0))
    residual = max(_cone_violation(yhat[:saddle.m1]), attain)
    return _verdict(residual, dot(saddle.q, yhat) + bound_term, tol, constants.primal_scale)


def check_dual_infeasible(saddle, x_ray, tol, constants=None, *, norm=None):
    """Test a primal ray d as a certificate of dual infeasibility
    (primal unboundedness direction); ``constants`` and ``norm`` as for
    ``check_primal_infeasible``."""
    if constants is None:
        constants = check_constants(saddle)
    d = _unit(x_ray) if norm is None else x_ray / norm
    kd = saddle.K.matvec(d)
    m1 = saddle.m1
    # the box's recession cone: d_i >= 0 where l_i is finite, d_i <= 0 where u_i is
    box_excess = np.maximum(np.where(constants.lfin, -d, 0.0), np.where(constants.ufin, d, 0.0))
    residual = max(float(np.max(np.abs(kd[m1:]), initial=0.0)), _cone_violation(kd[:m1]))
    residual = max(residual, float(np.max(box_excess, initial=0.0)))
    return _verdict(residual, -dot(saddle.c, d), tol, constants.dual_scale)


def _finite_abs_max(v):
    finite = v[np.isfinite(v)]
    return float(np.max(np.abs(finite))) if finite.size else 0.0
