"""Restart machinery: the one restart test, its schedule, and the normalized duality gap.

The adaptive scheme restarts when a measure of the restart candidate has
decayed against the epoch's first: under PDHG the weighted KKT error of the
epoch's average, restarting to that average (cuPDLP.jl, Lu & Yang, arXiv
2311.12180), and under the Halpern step the fixed-point residual
||z - T(z)||, restarting to T(z) (Lu & Yang, arXiv 2407.16144).

The normalized duality gap of a point z = (x, y) at radius r is

    rho_r(z) = max { d'delta : ||delta||_2 <= r, z + delta in Z } / r

where d = (K'y - c, q - Kx) collects the two linearization directions and
Z is the feasible box-and-cone set.  The maximizer is found by bisection on
the ball multiplier, with closed-form shortcuts when only one of the two
constraints is active.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidRadius, NonPositiveInput
from .sparse import DOT_BLAS_MAX, _clip, dot

RESTART_SCHEMES = ("none", "adaptive")

# The adaptive scheme tests its measure, and the artificial cap with it,
# every KKT_EVAL_INTERVAL epoch iterations under PDHG and every
# RESIDUAL_EVAL_INTERVAL under the Halpern step, and at every check.  It
# restarts once the measure is at most a sufficient decay times the epoch's
# first (KKT_SUFFICIENT_DECAY, PDLP's beta_sufficient, Applegate et al.,
# arXiv 2106.04756, or RESIDUAL_SUFFICIENT_DECAY), or at most
# RESIDUAL_NECESSARY_DECAY times it and above the previous test's.  It caps
# an epoch at max(MIN_ARTIFICIAL, ARTIFICIAL_FRACTION * total iterations).
KKT_EVAL_INTERVAL = 40
KKT_SUFFICIENT_DECAY = 0.5
RESIDUAL_EVAL_INTERVAL = 8
RESIDUAL_SUFFICIENT_DECAY = 0.2
RESIDUAL_NECESSARY_DECAY = 0.8
ARTIFICIAL_FRACTION = 0.36
MIN_ARTIFICIAL = 10


@dataclass(frozen=True)
class RestartConfig:
    """Restart scheme parameters.  scheme: "none" or "adaptive", the decay
    test of ``should_restart`` and its artificial cap at the points of
    ``schedule`` and the checks: under PDHG of the weighted KKT error, restarting to the
    epoch's average, and under the Halpern step of the fixed-point residual,
    restarting to T(z)."""

    scheme: str = "adaptive"

    def __post_init__(self):
        if self.scheme not in RESTART_SCHEMES:
            raise NonPositiveInput(f"unknown restart scheme {self.scheme!r}")


def normalized_duality_gap(saddle, x, y, radius):
    """Evaluate rho_r(z) by bisection; deterministic and matrix-free apart
    from one matvec and one rmatvec."""
    if not (radius > 0.0 and np.isfinite(radius)):
        raise InvalidRadius(f"radius must be positive and finite, got {radius}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    # d, the box lo <= delta <= hi and the bisection's two buffers
    n, m1 = x.shape[0], saddle.m1
    d, lo, hi, delta, spare = (np.zeros(n + y.shape[0]) for _ in range(5))
    np.subtract(saddle.K.rmatvec(y), saddle.c, out=d[:n])
    np.subtract(saddle.q, saddle.K.matvec(x), out=d[n:])
    norm_d = math.sqrt(dot(d, d))
    if norm_d == 0.0:
        return 0.0

    np.subtract(saddle.l, x, out=lo[:n])
    np.subtract(0.0, y[:m1], out=lo[n : n + m1])
    np.subtract(-np.inf, y[m1:], out=lo[n + m1 :])
    np.subtract(saddle.u, x, out=hi[:n])
    hi[n:] = np.inf

    # Ball-only solution: valid if it respects the box.
    ball = np.multiply(radius / norm_d, d, out=delta)
    if np.all(ball >= lo) and np.all(ball <= hi):
        return norm_d

    # Box-only solution, in the zeroed spare buffer: valid if it fits in the ball.
    np.copyto(spare, lo, where=d < 0)
    np.copyto(spare, hi, where=d > 0)
    if np.all(np.isfinite(spare)) and math.sqrt(dot(spare, spare)) <= radius:
        return dot(d, spare) / radius

    # Both constraints interact: bisect on the ball multiplier.  delta(lam)
    # = clip(d / lam, lo, hi) has nonincreasing norm in lam; at the upper
    # bracket lam = ||d|| / r the clipped norm is already <= r because the
    # box contains the origin.  Each pass writes delta into one of two
    # buffers; the other holds the most recent delta that fit in the ball.
    # The bracket halves until its midpoint is one of its ends, so a
    # multiplier far below ||d|| / r is reached, however far.
    lam_lo = 0.0
    lam_hi = norm_d / radius
    best = None  # most recent delta that fits in the ball (after rescaling)
    # the pass's numpy calls take lam as a 0-d array and their outputs
    # positionally, and a short delta's norm from BLAS directly (pdhg.py)
    divide, multiplier, short = np.divide, np.empty(()), d.size <= DOT_BLAS_MAX
    with np.errstate(over="ignore"):
        while True:
            lam = 0.5 * (lam_lo + lam_hi)
            if not lam_lo < lam < lam_hi:
                break
            multiplier[()] = lam
            divide(d, multiplier, delta)
            _clip(delta, lo, hi, delta)
            norm = math.sqrt(delta.dot(delta) if short else dot(delta, delta))
            if norm > radius:
                if math.isfinite(norm) and norm - radius <= 1e-10 * radius:
                    # Shrinking toward the origin stays inside the box.
                    best = np.multiply(delta, radius / norm, out=delta)
                    break
                lam_lo = lam
            else:
                best = delta
                if radius - norm <= 1e-10 * radius:
                    break
                lam_hi = lam
                delta, spare = spare, delta
    if best is None:
        best = np.clip(d / lam_hi, lo, hi)
    return max(dot(d, best), 0.0) / radius


def should_restart(state, residuals=None, sufficient=RESIDUAL_SUFFICIENT_DECAY):
    """Decide whether the adaptive scheme restarts now: (restart, reason).

    ``solve`` does not ask under the scheme "none", which never restarts.
    ``residuals`` is (now, the epoch's first, the previous test's) value of
    the restart test's measure, the weighted KKT error under PDHG and the
    fixed-point residual under the Halpern step, or None at the epoch's
    first test under Halpern, whose value becomes the first.  It restarts
    when now is at most ``sufficient`` times the first, or at most
    RESIDUAL_NECESSARY_DECAY times it and above the previous.  An artificial
    cap, tested only here, bounds the epoch by max(MIN_ARTIFICIAL,
    ARTIFICIAL_FRACTION * total iterations).
    """
    if residuals is not None:
        now, first, previous = residuals
        if now <= sufficient * first or previous < now <= RESIDUAL_NECESSARY_DECAY * first:
            return True, "residual_decay"
    if state.inner_count >= max(MIN_ARTIFICIAL, ARTIFICIAL_FRACTION * state.total_count):
        return True, "artificial"
    return False, None


def schedule(state, halpern):
    """The epoch count of the adaptive scheme's next restart-test point after
    the state's, which ``solve`` runs a constant step's stretch up to: the
    multiples of KKT_EVAL_INTERVAL under PDHG, and under Halpern the epoch's
    first step, whose residual is the epoch's reference, and the multiples
    of RESIDUAL_EVAL_INTERVAL."""
    inner = state.inner_count
    every = RESIDUAL_EVAL_INTERVAL if halpern else KKT_EVAL_INTERVAL
    return 1 if halpern and inner == 0 else inner - inner % every + every


def apply_restart(state, candidate):
    """Reset the state to the candidate point and start a new epoch, in
    place: the candidate is copied into the state's own x and y, the parts
    of its ``z``, so it may be a view of the state's other vectors, as
    ``solve``'s candidates in ``t`` are; the next step copies it into
    ``anchor``.  The running sum, where the state has one, is zeroed and
    the K x cache dropped; the total iteration count is preserved.
    Allocates nothing.
    """
    np.copyto(state.x, candidate[0])
    np.copyto(state.y, candidate[1])
    if state.sums is not None:
        state.sums.fill(0.0)
    state.sum_weight = 0.0
    state.inner_count = 0
    state.kx = None
    return state
