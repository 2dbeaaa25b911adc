"""Step-size and primal-weight policies.

The default, Halpern, step is constant: HALPERN_STEP_FRACTION / ||K||, for
the reflected Halpern iteration (``pdhg.pdhg_step`` with ``halpern=True``).
A fixed step is constant too, at FIXED_STEP_FRACTION / ||K||, for plain
PDHG (``pdhg.pdhg_step``).  ``solve`` runs both in stretches of steps.

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

from .exceptions import NonFiniteIterate, NonPositiveInput, StepSizeUnderflow, _real
from .pdhg import StepState, accept_step, step_gradient, trial_step
from .termination import _norm


STEP_MODES = ("halpern", "adaptive", "fixed")
WEIGHT_MODES = ("adaptive", "fixed")

# The constant steps as shares of 1 / ||K||.  Halpern's margin is the
# spectral estimate's: its tolerance tol on ||K||^2 (``solver.NORM_TOLERANCE``,
# 2e-3) leaves the estimate low by a relative error of at most about tol / 2,
# so 0.998 / estimate stays below 1 / ||K|| while tol / 2 < 2e-3, with 4e-3
# the edge.  This assumes the Lanczos Ritz value has found the top
# eigenvalue, which its seeded normal start makes likely but does not prove.
HALPERN_STEP_FRACTION = 0.998
FIXED_STEP_FRACTION = 0.9

# The adaptive step's shrink and growth exponents, its trials per iteration,
# and the share of the initial step below which it raises StepSizeUnderflow.
REDUCTION_EXPONENT = 0.3
GROWTH_EXPONENT = 0.6
MAX_RETRIES = 60
UNDERFLOW_RATIO = 1e-14
# The primal weight's log-space smoothing, and the movement below which it
# is left alone.
WEIGHT_SMOOTHING = 0.5
MOVEMENT_FLOOR = 1e-10


@dataclass(frozen=True)
class StepPolicy:
    """``mode`` is one of STEP_MODES; ``fixed_step``, when given, is the
    constant step of the fixed mode, a positive and finite real number
    stored as a Python float, and the other modes take none."""

    mode: str = "halpern"
    fixed_step: float = None

    def __post_init__(self):
        if self.mode not in STEP_MODES:
            raise NonPositiveInput(f"unknown step mode {self.mode!r}")
        if self.fixed_step is not None:
            s = _real("fixed_step", self.fixed_step)
            object.__setattr__(self, "fixed_step", s)
            if not 0.0 < s < math.inf:
                raise NonPositiveInput(f"fixed_step must be positive and finite, got {s}")
            if self.mode != "fixed":
                raise NonPositiveInput(f"fixed_step is for mode 'fixed' only, got {s} with mode {self.mode!r}")


@dataclass(frozen=True)
class WeightPolicy:
    """``mode`` is one of WEIGHT_MODES: "adaptive" balances the primal
    weight by the smoothed rule of ``update_primal_weight``, "fixed" keeps
    it at 1."""

    mode: str = "adaptive"

    def __post_init__(self):
        if self.mode not in WEIGHT_MODES:
            raise NonPositiveInput(f"unknown weight mode {self.mode!r}")


def initialize_step_state(saddle, norm_k, step_policy, weight_policy):
    """Initial (s, w) for a scaled saddle problem.

    s is the fixed mode's ``fixed_step`` when given, else
    HALPERN_STEP_FRACTION / ||K|| or FIXED_STEP_FRACTION / ||K||, the one
    use of ``norm_k`` (it may be None otherwise); adaptive mode starts from
    s = 1 / max|K_ij| and lets the rule take over.  w is 1 in the fixed
    weight mode; the adaptive weight starts at ||c|| / ||q||, with q (near)
    zero at ||c||, the start that measures x in the units of c, and with c
    (near) zero at 1.
    """
    if step_policy.fixed_step is not None:
        s = step_policy.fixed_step
    elif step_policy.mode == "adaptive":
        amax = saddle.K.abs_max()
        s = 1.0 / amax if amax > 0 else 1.0
    elif norm_k > 0:
        s = (HALPERN_STEP_FRACTION if step_policy.mode == "halpern" else FIXED_STEP_FRACTION) / norm_k
    else:
        s = 1.0

    if weight_policy.mode == "fixed":
        w = 1.0
    else:
        # _norm keeps a long vector off BLAS's threads (sparse.dot)
        with np.errstate(over="ignore"):
            norm_c, norm_q = _norm(saddle.c), _norm(saddle.q)
        if norm_c <= 1e-12:
            w = 1.0
        elif norm_q <= 1e-12:
            w = norm_c
        else:
            w = norm_c / norm_q
    return StepState(step_size=s, primal_weight=w)


def adaptive_step(state, saddle, step, *, errstate=True):
    """One PDHG iteration under the adaptive step rule.

    Returns (state, next_step, accepted).  The state is only advanced when a
    trial is accepted; the accepted iterate joins the running average with
    weight equal to the step size that produced it.  Raises
    StepSizeUnderflow when s collapses below UNDERFLOW_RATIO times the
    initial step size, and NonFiniteIterate if a trial point is non-finite.
    ``errstate`` as for ``pdhg.pdhg_step``.
    """
    if errstate:
        with np.errstate(over="ignore", invalid="ignore"):
            return adaptive_step(state, saddle, step, errstate=False)
    s = step.step_size
    w = step.primal_weight
    t = state.total_count + 1  # 1-based index of the iteration being attempted
    shrink = 1.0 - (t + 1.0) ** (-REDUCTION_EXPONENT)
    grow = 1.0 + (t + 1.0) ** (-GROWTH_EXPONENT)
    step_gradient(state, saddle)
    for _ in range(MAX_RETRIES):
        trial = trial_step(state, saddle, s, w)
        if trial is None:
            raise NonFiniteIterate(f"trial iterate became non-finite at total iteration {t} (step {s!r})")
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
            accept_step(state, kx_new, avg_weight=s)
            return state, StepState(s_next, w, step.initial_step_size), True
        s = s_next
        if s < UNDERFLOW_RATIO * step.initial_step_size:
            raise StepSizeUnderflow(
                f"step size {s!r} fell below {UNDERFLOW_RATIO} of the initial"
                f" {step.initial_step_size!r}"
            )
    return state, StepState(s, w, step.initial_step_size), False


def update_primal_weight(current, dx_norm, dy_norm, policy):
    """Log-space smoothed update toward the observed dual/primal movement
    ratio; leaves the weight alone under a fixed policy, or when either
    movement is below the floor (or not finite)."""
    if policy.mode == "fixed":
        return current
    if not (math.isfinite(dx_norm) and math.isfinite(dy_norm)):
        return current
    if dx_norm <= MOVEMENT_FLOOR or dy_norm <= MOVEMENT_FLOOR:
        return current
    theta = WEIGHT_SMOOTHING
    return math.exp(theta * math.log(dy_norm / dx_norm) + (1.0 - theta) * math.log(current))
