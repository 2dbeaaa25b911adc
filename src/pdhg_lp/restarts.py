"""Restart machinery: the normalized duality gap and restart decisions.

Under PDHG the adaptive scheme restarts to the epoch's average when its
normalized duality gap has decayed; under the Halpern step it restarts to
T(z) when the fixed-point residual ||z - T(z)|| has decayed (Lu & Yang,
arXiv 2407.16144).

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
from .pdhg import _clip
from .sparse import DOT_BLAS_MAX, dot

RESTART_SCHEMES = ("none", "adaptive")

# The adaptive scheme tests the decay of the normalized gap every
# GAP_EVAL_INTERVAL epoch iterations, and restarts once it is at most
# GAP_SUFFICIENT_DECAY times the epoch's first (PDLP's beta_sufficient,
# Applegate et al., arXiv 2106.04756).  It caps an epoch at
# max(MIN_ARTIFICIAL, ARTIFICIAL_FRACTION * total iterations).
GAP_EVAL_INTERVAL = 40
GAP_SUFFICIENT_DECAY = 0.5
ARTIFICIAL_FRACTION = 0.36
MIN_ARTIFICIAL = 10
# Under the Halpern step the adaptive scheme tests the residual every
# RESIDUAL_EVAL_INTERVAL epoch iterations, and the artificial cap at every
# iteration.  It restarts once the residual is at most
# RESIDUAL_SUFFICIENT_DECAY times the epoch's first, or at most
# RESIDUAL_NECESSARY_DECAY times it and above the previous test's.
RESIDUAL_EVAL_INTERVAL = 8
RESIDUAL_SUFFICIENT_DECAY = 0.2
RESIDUAL_NECESSARY_DECAY = 0.8


@dataclass(frozen=True)
class RestartConfig:
    """Restart scheme parameters.

    scheme: "none" or "adaptive" (a decay test plus an artificial cap).
    Under PDHG the decay test is on the normalized gap, every
    ``GAP_EVAL_INTERVAL`` iterations, with ``GAP_SUFFICIENT_DECAY`` as its
    bound, and a restart goes to the running average of the epoch.  Under
    the Halpern step it is on the fixed-point residual, every
    ``RESIDUAL_EVAL_INTERVAL`` iterations, the cap is tested at every
    iteration, and a restart goes to T(z).
    """

    scheme: str = "adaptive"

    def __post_init__(self):
        if self.scheme not in RESTART_SCHEMES:
            raise NonPositiveInput(f"unknown restart scheme {self.scheme!r}")


def normalized_duality_gap(saddle, x, y, radius, *, stop_above=math.inf):
    """Evaluate rho_r(z) by bisection; deterministic and matrix-free apart
    from one matvec and one rmatvec.

    Every bisection pass whose delta lies in the ball bounds the gap from
    below by d'delta / r.  Once that bound clearly exceeds ``stop_above`` it
    is returned at once: a caller that only asks whether the gap is at most
    ``stop_above`` gets the same answer as from the full bisection.
    """
    if not (radius > 0.0 and np.isfinite(radius)):
        raise InvalidRadius(f"radius must be positive and finite, got {radius!r}")
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
    lam_lo = 0.0
    lam_hi = norm_d / radius
    best = None  # most recent delta that fits in the ball (after rescaling)
    # the pass's numpy calls take lam as a 0-d array and their outputs
    # positionally, and a short delta's norm from BLAS directly (pdhg.py)
    divide, multiplier, short = np.divide, np.empty(()), d.size <= DOT_BLAS_MAX
    with np.errstate(over="ignore"):
        for _ in range(100):
            lam = 0.5 * (lam_lo + lam_hi)
            if lam <= 0.0:
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
                if stop_above < math.inf:
                    # The full bisection's value can fall short of this bound
                    # by its 1e-10 shrink to the sphere and by rounding; the
                    # margin keeps it above stop_above too.
                    lower_bound = dot(d, delta) / radius
                    if (1.0 - 1e-8) * lower_bound > stop_above:
                        return lower_bound
                lam_hi = lam
                delta, spare = spare, delta
    if best is None:
        best = np.clip(d / lam_hi, lo, hi)
    return max(dot(d, best), 0.0) / radius


def should_restart(state, candidate_gap=None, reference_gap=None, residuals=None):
    """Decide whether the adaptive scheme restarts now: (restart, reason).

    ``solve`` does not ask under the scheme "none", which never restarts.
    Under PDHG ``candidate_gap`` is the normalized gap of the restart
    candidate at its distance from the epoch start, and the sufficient-decay
    test compares it against ``reference_gap``, measured when the epoch
    started.  Under the Halpern step ``residuals`` is (now, the epoch's
    first, the previous test's) fixed-point residual, tested as
    RESIDUAL_*_DECAY say.  An artificial cap bounds the epoch length by
    max(MIN_ARTIFICIAL, ARTIFICIAL_FRACTION * total iterations).
    """
    if residuals is not None:
        now, first, previous = residuals
        if now <= RESIDUAL_SUFFICIENT_DECAY * first or previous < now <= RESIDUAL_NECESSARY_DECAY * first:
            return True, "residual_decay"
    elif (
        candidate_gap is not None
        and reference_gap is not None
        and candidate_gap <= GAP_SUFFICIENT_DECAY * reference_gap
    ):
        return True, "gap_decay"
    if artificial_cap_reached(state):
        return True, "artificial"
    return False, None


def artificial_cap_reached(state):
    """The adaptive scheme's epoch has reached max(MIN_ARTIFICIAL,
    ARTIFICIAL_FRACTION * total iterations)."""
    return state.inner_count >= max(MIN_ARTIFICIAL, ARTIFICIAL_FRACTION * state.total_count)


def steps_to_next_test(state, halpern):
    """Steps from the state to the adaptive scheme's next restart test: the
    next multiple of GAP_EVAL_INTERVAL under PDHG; under Halpern 1 at an
    epoch's first step, else the next multiple of RESIDUAL_EVAL_INTERVAL or
    the step where the epoch reaches today's artificial cap, which only
    grows, so it is not reached sooner."""
    inner = state.inner_count
    if not halpern:
        return GAP_EVAL_INTERVAL - inner % GAP_EVAL_INTERVAL
    if inner == 0:
        return 1
    cap = max(MIN_ARTIFICIAL, ARTIFICIAL_FRACTION * state.total_count)
    return min(RESIDUAL_EVAL_INTERVAL - inner % RESIDUAL_EVAL_INTERVAL, max(1, math.ceil(cap - inner)))


def apply_restart(state, candidate):
    """Reset the state to the candidate point and start a new epoch, in
    place: the candidate is copied into the state's own x and y, the parts
    of ``buffers.z``, so it may be a view of the step's other buffers, as
    ``solve``'s candidates in ``buffers.t`` are; the next step copies it
    into ``buffers.anchor``.  The running sum is zeroed and the K x cache
    dropped; the total iteration count is preserved.  Allocates nothing.
    """
    np.copyto(state.x, candidate[0])
    np.copyto(state.y, candidate[1])
    state.buffers.sums.fill(0.0)
    state.sum_weight = 0.0
    state.inner_count = 0
    state.kx = None
    return state
