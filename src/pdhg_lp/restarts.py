"""Restart machinery: the normalized duality gap and restart decisions.

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


@dataclass(frozen=True)
class RestartConfig:
    """Restart scheme parameters.

    scheme: "none", "fixed" (restart every ``period`` iterations) or
    "adaptive" (normalized-gap decay test plus an artificial cap).
    ``candidate_rule`` picks what to restart to: the epoch average or the
    better of average/current by normalized gap.
    """

    scheme: str = "adaptive"
    period: int = None
    sufficient_decay: float = 0.5
    artificial_fraction: float = 0.36
    min_artificial: int = 10
    candidate_rule: str = "average"
    gap_eval_interval: int = 40
    sharpness: float = None


@dataclass
class EpochSnapshot:
    """What the driver remembers about the running epoch: its start point,
    the previous epoch's start, and the reference gap for the decay test."""

    x_start: np.ndarray
    y_start: np.ndarray
    gap_at_start: float = None
    radius_at_start: float = None


def normalized_duality_gap(saddle, x, y, radius):
    """Evaluate rho_r(z) by bisection; deterministic and matrix-free apart
    from one matvec and one rmatvec."""
    if not (radius > 0.0 and np.isfinite(radius)):
        raise InvalidRadius(f"radius must be positive and finite, got {radius!r}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d_x = saddle.K.rmatvec(y) - saddle.c
    d_y = saddle.q - saddle.K.matvec(x)
    d = np.concatenate([d_x, d_y])
    norm_d = float(np.linalg.norm(d))
    if norm_d == 0.0:
        return 0.0

    m1 = saddle.m1
    y_lower = np.full(y.shape[0], -np.inf)
    y_lower[:m1] = 0.0
    lo = np.concatenate([saddle.l - x, y_lower - y])
    hi = np.concatenate([saddle.u - x, np.full(y.shape[0], np.inf)])

    # Ball-only solution: valid if it respects the box.
    ball = (radius / norm_d) * d
    if np.all(ball >= lo) and np.all(ball <= hi):
        return norm_d

    # Box-only solution: valid if it fits inside the ball.
    box = np.where(d > 0, hi, np.where(d < 0, lo, 0.0))
    if np.all(np.isfinite(box)):
        if float(np.linalg.norm(box)) <= radius:
            return float(d @ box) / radius

    # Both constraints interact: bisect on the ball multiplier.  delta(lam)
    # = clip(d / lam, lo, hi) has nonincreasing norm in lam; at the upper
    # bracket lam = ||d|| / r the clipped norm is already <= r because the
    # box contains the origin.  Each pass writes delta into one of two
    # buffers; the other holds the most recent delta that fit in the ball.
    lam_lo = 0.0
    lam_hi = norm_d / radius
    best = None  # most recent delta that fits in the ball (after rescaling)
    delta = np.empty_like(d)
    spare = np.empty_like(d)
    with np.errstate(over="ignore"):
        for _ in range(100):
            lam = 0.5 * (lam_lo + lam_hi)
            if lam <= 0.0:
                break
            np.divide(d, lam, out=delta)
            delta.clip(lo, hi, out=delta)
            norm = math.sqrt(float(delta.dot(delta)))
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
    return max(float(d @ best), 0.0) / radius


def fixed_period_from_sharpness(norm_k, alpha):
    """Restart period ceil(4 e ||K|| / alpha) suggested by the linear
    convergence bound for sharp problems."""
    if alpha <= 0:
        raise NonPositiveInput(f"sharpness must be positive, got {alpha}")
    if norm_k <= 0:
        raise NonPositiveInput(f"matrix norm must be positive, got {norm_k}")
    return max(1, math.ceil(4.0 * math.e * norm_k / alpha))


def should_restart(state, snapshot, config, candidate_gap=None):
    """Decide whether to restart now.

    Returns (restart, reason).  For the adaptive scheme ``candidate_gap`` is
    the normalized gap of the restart candidate at its distance from the
    epoch start; the sufficient-decay test compares it against the epoch
    reference gap, and an artificial cap bounds the epoch length by
    max(min_artificial, artificial_fraction * total iterations).
    """
    if config.scheme == "none":
        return False, None
    if config.scheme == "fixed":
        if config.period is None:
            raise NonPositiveInput("fixed restart scheme needs a period")
        if state.inner_count >= config.period:
            return True, "fixed_period"
        return False, None
    if config.scheme == "adaptive":
        if (
            candidate_gap is not None
            and snapshot.gap_at_start is not None
            and candidate_gap <= config.sufficient_decay * snapshot.gap_at_start
        ):
            return True, "gap_decay"
        cap = max(config.min_artificial, config.artificial_fraction * state.total_count)
        if state.inner_count >= cap:
            return True, "artificial"
        return False, None
    raise NonPositiveInput(f"unknown restart scheme {config.scheme!r}")


def apply_restart(state, candidate):
    """Reset the state to the candidate point and start a new epoch.

    The running average is cleared, the K x cache dropped and the epoch
    counter advanced; the total iteration count is preserved.
    """
    cand_x, cand_y = candidate
    state.x = np.array(cand_x, dtype=np.float64, copy=True)
    state.y = np.array(cand_y, dtype=np.float64, copy=True)
    state.sum_x = np.zeros_like(state.x)
    state.sum_y = np.zeros_like(state.y)
    state.sum_weight = 0.0
    state.inner_count = 0
    state.epoch_index += 1
    state.invalidate_cache()
    return state
