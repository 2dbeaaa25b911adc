"""Termination tests: relative KKT errors and infeasibility certificates.

All quantities here are evaluated on the original (unscaled) problem data.
The checks' per-problem constants (the finite-bound masks, ||q||, ||c|| and
the certificate scales) depend on the data alone: ``check_constants``
computes them once, ``solve`` passes them to every check, and a direct call
without them computes them itself, with the same result.  ``solve`` also
passes each candidate ray's norm, which it has computed, to the certificate
checks.
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

    ``lfin``/``ufin`` mark the finite bounds, ``below``/``above``/``both``
    the variables bounded below only, above only and on both sides (None
    when there are none); ``norm_q``/``norm_c`` are the norms that relate
    the KKT residuals, ``primal_scale``/``dual_scale`` those that relate
    the certificates' gains.
    """

    lfin: np.ndarray
    ufin: np.ndarray
    below: np.ndarray
    above: np.ndarray
    both: np.ndarray
    norm_q: float
    norm_c: float
    primal_scale: float
    dual_scale: float


def check_constants(saddle):
    """The CheckConstants of a saddle problem."""
    l, u = saddle.l, saddle.u
    lfin = np.isfinite(l)
    ufin = np.isfinite(u)
    below = lfin & ~ufin
    above = ufin & ~lfin
    both = lfin & ufin
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
        below=below if below.any() else None,
        above=above if above.any() else None,
        both=both if both.any() else None,
        norm_q=norm_q,
        norm_c=norm_c,
        primal_scale=max(1.0, data_norm_q, _finite_abs_max(l), _finite_abs_max(u)),
        dual_scale=max(1.0, data_norm_c),
    )


def _project_reduced_costs(r, lfin, ufin):
    """Project r onto the cone of reduced costs compatible with the bounds,
    given their finite masks: coordinate i admits lambda_i >= 0 only when
    l_i is finite (``lfin``) and lambda_i <= 0 only when u_i is finite
    (``ufin``); free variables force lambda_i = 0.
    """
    lam = np.zeros_like(r)
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
        total += dot(l[pos], lam[pos])
    if np.any(neg):
        total += dot(u[neg], lam[neg])
    return total


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
        r = saddle.c - saddle.K.rmatvec(y)
        lam = _project_reduced_costs(r, constants.lfin, constants.ufin)
        diff = r - lam
        primal_residual = _norm(ineq_violation, eq_violation)
        dual_residual = _norm(diff)
        primal_objective = dot(saddle.c, x)
        dual_objective = dot(saddle.q, y) + bound_objective_term(lam, saddle.l, saddle.u)
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
    m1 = saddle.m1
    cone_violation = float(max(0.0, -yhat[:m1].min())) if m1 else 0.0
    rhat = -saddle.K.rmatvec(yhat)
    lamhat = _project_reduced_costs(rhat, constants.lfin, constants.ufin)
    attain = float(np.max(np.abs(rhat - lamhat))) if rhat.size else 0.0
    residual = max(cone_violation, attain)
    gain = dot(saddle.q, yhat) + bound_objective_term(lamhat, saddle.l, saddle.u)
    scale = constants.primal_scale
    valid = residual <= tol and gain >= tol * scale
    return CertificateVerdict(valid=valid, residual=residual, gain=gain, margin=gain / scale - residual)


def check_dual_infeasible(saddle, x_ray, tol, constants=None, *, norm=None):
    """Test a primal ray d as a certificate of dual infeasibility
    (primal unboundedness direction); ``constants`` and ``norm`` as for
    ``check_primal_infeasible``."""
    if constants is None:
        constants = check_constants(saddle)
    d = _unit(x_ray) if norm is None else x_ray / norm
    kd = saddle.K.matvec(d)
    m1 = saddle.m1
    residual = 0.0
    if kd[m1:].size:
        residual = float(np.max(np.abs(kd[m1:])))
    if m1:
        residual = max(residual, float(max(0.0, -kd[:m1].min())))
    below, above, both = constants.below, constants.above, constants.both
    if below is not None:
        residual = max(residual, float(np.max(np.maximum(-d[below], 0.0))))
    if above is not None:
        residual = max(residual, float(np.max(np.maximum(d[above], 0.0))))
    if both is not None:
        residual = max(residual, float(np.max(np.abs(d[both]))))
    gain = -dot(saddle.c, d)
    scale = constants.dual_scale
    valid = residual <= tol and gain >= tol * scale
    return CertificateVerdict(valid=valid, residual=residual, gain=gain, margin=gain / scale - residual)


def _finite_abs_max(v):
    finite = v[np.isfinite(v)]
    return float(np.max(np.abs(finite))) if finite.size else 0.0
