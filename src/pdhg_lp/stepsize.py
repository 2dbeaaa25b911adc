"""Step-size and primal-weight policies.

The adaptive step rule takes a trial step at the current s, measures the
largest step the observed displacement would have allowed,

    s_hat = ||dz||_w^2 / (2 |dy' K dx|),

and accepts iff s <= s_hat.  Accepted or not, the next step size is

    s_next = min((1 - (t+1)^-0.3) * s_hat, (1 + (t+1)^-0.6) * s)

with t the 1-based global iteration count, so the step can grow slowly and
must shrink below a violated bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NonFiniteIterate, NonPositiveInput, StepSizeUnderflow
from .pdhg import StepState, accept_step, step_gradient, trial_step


@dataclass(frozen=True)
class StepPolicy:
    mode: str = "adaptive"  # "fixed" or "adaptive"
    fixed_step: float = None
    reduction_exponent: float = 0.3
    growth_exponent: float = 0.6
    max_retries: int = 60
    underflow_ratio: float = 1e-14


@dataclass(frozen=True)
class WeightPolicy:
    mode: str = "adaptive"  # "fixed" or "adaptive"
    fixed_weight: float = None
    smoothing: float = 0.5
    movement_floor: float = 1e-10


def initialize_step_state(saddle, norm_k, step_policy, weight_policy):
    """Initial (s, w) for a scaled saddle problem.

    Fixed mode defaults to s = 0.9 / ||K||, the one use of ``norm_k`` (it
    may be None otherwise); adaptive mode starts from s = 1 / max|K_ij| and
    lets the rule take over.  The primal weight starts at ||c|| / ||q||
    unless either norm is (near) zero.
    """
    if step_policy.mode == "fixed":
        if step_policy.fixed_step is not None:
            s = float(step_policy.fixed_step)
        elif norm_k > 0:
            s = 0.9 / norm_k
        else:
            s = 1.0
    elif step_policy.mode == "adaptive":
        amax = saddle.K.abs_max()
        s = 1.0 / amax if amax > 0 else 1.0
    else:
        raise NonPositiveInput(f"unknown step mode {step_policy.mode!r}")

    if weight_policy.mode == "fixed":
        w = float(weight_policy.fixed_weight) if weight_policy.fixed_weight is not None else 1.0
    else:
        if weight_policy.fixed_weight is not None:
            w = float(weight_policy.fixed_weight)
        else:
            norm_c = float(np.linalg.norm(saddle.c))
            norm_q = float(np.linalg.norm(saddle.q))
            w = norm_c / norm_q if norm_c > 1e-12 and norm_q > 1e-12 else 1.0
    return StepState(step_size=s, primal_weight=w)


def adaptive_step(state, saddle, step, policy):
    """One PDHG iteration under the adaptive step rule.

    Returns (state, next_step, accepted).  The state is only advanced when a
    trial is accepted; the accepted iterate joins the running average with
    weight equal to the step size that produced it.  Raises
    StepSizeUnderflow when s collapses below underflow_ratio times the
    initial step size, and NonFiniteIterate if a trial point is non-finite.
    """
    s = step.step_size
    w = step.primal_weight
    t = state.total_count + 1  # 1-based index of the iteration being attempted
    shrink = 1.0 - (t + 1.0) ** (-policy.reduction_exponent)
    grow = 1.0 + (t + 1.0) ** (-policy.growth_exponent)
    with np.errstate(over="ignore", invalid="ignore"):
        buf = step_gradient(state, saddle)
        for _ in range(policy.max_retries):
            trial = trial_step(state, saddle, buf, s, w)
            if trial is None:
                raise NonFiniteIterate(
                    f"trial iterate became non-finite at total iteration {t} (step {s!r})"
                )
            kx_new, movement, interaction = trial
            # The magnitude of the cross term bounds the admissible step; the
            # unsigned form keeps the rule stable when projections flip the
            # sign of the interaction (a signed rule lets s ratchet upward
            # and diverge on bound-clipped rotations).
            if interaction == 0.0 or movement == 0.0:
                s_hat = math.inf
            else:
                s_hat = movement / interaction
            accepted = s <= s_hat
            if math.isinf(s_hat):
                s_next = grow * s
            else:
                s_next = min(shrink * s_hat, grow * s)
            if accepted:
                accept_step(state, buf, kx_new, avg_weight=s)
                return state, StepState(s_next, w, step.initial_step_size), True
            s = s_next
            if s < policy.underflow_ratio * step.initial_step_size:
                raise StepSizeUnderflow(
                    f"step size {s!r} fell below {policy.underflow_ratio} of the initial"
                    f" {step.initial_step_size!r}"
                )
    return state, StepState(s, w, step.initial_step_size), False


def update_primal_weight(current, dx_norm, dy_norm, policy):
    """Log-space smoothed update toward the observed dual/primal movement
    ratio; leaves the weight alone when either movement is below the floor
    (or not finite)."""
    if policy.mode == "fixed":
        return current
    if not (math.isfinite(dx_norm) and math.isfinite(dy_norm)):
        return current
    if dx_norm <= policy.movement_floor or dy_norm <= policy.movement_floor:
        return current
    theta = policy.smoothing
    return math.exp(theta * math.log(dy_norm / dx_norm) + (1.0 - theta) * math.log(current))
