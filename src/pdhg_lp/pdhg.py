"""Core primal-dual hybrid gradient step and iterate bookkeeping.

One iteration from (x, y) with step size s and primal weight w:

    x+ = proj_[l,u](x - (s/w) (c - K'y))
    y+ = proj_Y  (y + (s w) (q - K (2 x+ - x)))

where Y clips the first m1 dual coordinates at zero.  K(2x+ - x) is formed
as 2 K x+ - K x with K x cached on the state, so a step costs exactly one
matvec and one rmatvec.

``trial_step`` computes one such point into work buffers held by the state
and ``accept_step`` installs it; ``pdhg_step`` (fixed step) and the adaptive
rule in ``stepsize.py`` are both built from these two, a fixed step being a
trial that is always accepted.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import NonFiniteIterate, NonPositiveInput, NonPositiveQuadraticForm


@dataclass(frozen=True)
class StepState:
    """Step size s and primal weight w; eta/sigma are the split step sizes."""

    step_size: float
    primal_weight: float
    initial_step_size: float = None

    def __post_init__(self):
        if not (self.step_size > 0 and math.isfinite(self.step_size)):
            raise NonPositiveInput(f"step_size must be positive, got {self.step_size}")
        if not (self.primal_weight > 0 and math.isfinite(self.primal_weight)):
            raise NonPositiveInput(f"primal_weight must be positive, got {self.primal_weight}")
        if self.initial_step_size is None:
            object.__setattr__(self, "initial_step_size", self.step_size)

    @property
    def eta(self):
        return self.step_size / self.primal_weight

    @property
    def sigma(self):
        return self.step_size * self.primal_weight


class StepBuffers:
    """Work vectors of the step kernel: the trial point, its displacement,
    K x+ - K x and the gradient c - K'y."""

    __slots__ = ("x", "y", "dx", "dy", "dkx", "grad")

    def __init__(self, n, m):
        self.x = np.empty(n)
        self.y = np.empty(m)
        self.dx = np.empty(n)
        self.dy = np.empty(m)
        self.dkx = np.empty(m)
        self.grad = np.empty(n)


@dataclass
class IterateState:
    """Mutable per-epoch iterate state.

    Running sums implement the weighted average used for restarts; ``kx``
    caches K @ x and must be dropped whenever x changes by any route other
    than the step kernel (restart, rescale).  ``trial_count`` counts the
    finite trial points computed, accepted or not.  The state owns ``x`` and
    ``y`` (they are copied in), because the step kernel recycles the
    replaced vectors as work buffers: hold a copy, not a reference, of an
    iterate that must outlive the next step.
    """

    x: np.ndarray
    y: np.ndarray
    sum_x: np.ndarray = None
    sum_y: np.ndarray = None
    sum_weight: float = 0.0
    inner_count: int = 0
    total_count: int = 0
    epoch_index: int = 0
    kx: np.ndarray = field(default=None, repr=False)
    trial_count: int = 0
    buffers: StepBuffers = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.x = np.array(self.x, dtype=np.float64)
        self.y = np.array(self.y, dtype=np.float64)
        if self.sum_x is None:
            self.sum_x = np.zeros_like(self.x)
        if self.sum_y is None:
            self.sum_y = np.zeros_like(self.y)

    @classmethod
    def initial(cls, saddle):
        """Start at the origin projected into the box, dual at zero."""
        x0 = np.clip(np.zeros(saddle.num_primal), saddle.l, saddle.u)
        return cls(x=x0, y=np.zeros(saddle.num_dual))

    def average(self):
        """Weighted average of the iterates seen this epoch.

        Falls back to the current point when the epoch has no completed
        iterations yet.
        """
        if self.sum_weight <= 0.0:
            return self.x.copy(), self.y.copy()
        return self.sum_x / self.sum_weight, self.sum_y / self.sum_weight

    def invalidate_cache(self):
        self.kx = None


def project_primal(x, l, u):
    return np.clip(x, l, u)


def project_dual(y, m1):
    out = y.copy()
    if m1:
        np.maximum(out[:m1], 0.0, out=out[:m1])
    return out


def step_gradient(state, saddle):
    """Fill the K x cache if it is empty and c - K'y into the gradient
    buffer; returns the state's work buffers, allocated on first use."""
    k = saddle.K
    if state.kx is None:
        state.kx = k.matvec(state.x)
    buf = state.buffers
    if buf is None:
        buf = state.buffers = StepBuffers(state.x.size, state.y.size)
    np.subtract(saddle.c, k.rmatvec(state.y), out=buf.grad)
    return buf


def trial_step(state, saddle, buf, s, w, measure_interaction=True):
    """Compute the PDHG point at step s and weight w into ``buf.x``/``buf.y``.

    Needs ``step_gradient`` first.  Returns (K x+, movement, interaction)
    with movement = w ||dx||^2 + ||dy||^2 / w and interaction =
    2 |dy'(K x+ - K x)| (0.0 unless measured), or None when the trial point
    is not finite.  A non-finite point always makes movement non-finite, so
    the full scan runs only when a scalar is.  The state is not touched
    apart from ``trial_count``.  Run under np.errstate(over="ignore",
    invalid="ignore").
    """
    x, y = state.x, state.y
    x_new, y_new, dx, dy = buf.x, buf.y, buf.dx, buf.dy
    np.multiply(buf.grad, s / w, out=dx)
    np.subtract(x, dx, out=dx)
    dx.clip(saddle.l, saddle.u, out=x_new)
    kx_new = saddle.K.matvec(x_new)
    np.multiply(kx_new, 2.0, out=dy)
    np.subtract(dy, state.kx, out=dy)
    np.subtract(saddle.q, dy, out=dy)
    np.multiply(dy, s * w, out=dy)
    np.add(y, dy, out=y_new)
    m1 = saddle.m1
    if m1:
        head = y_new[:m1]
        np.maximum(head, 0.0, out=head)
    np.subtract(x_new, x, out=dx)
    np.subtract(y_new, y, out=dy)
    movement = w * float(dx.dot(dx)) + float(dy.dot(dy)) / w
    interaction = 0.0
    if measure_interaction:
        np.subtract(kx_new, state.kx, out=buf.dkx)
        interaction = 2.0 * abs(float(dy.dot(buf.dkx)))
    if not (math.isfinite(movement) and math.isfinite(interaction)) and not (
        np.all(np.isfinite(x_new)) and np.all(np.isfinite(y_new))
    ):
        return None
    state.trial_count += 1
    return kx_new, movement, interaction


def accept_step(state, buf, kx_new, avg_weight):
    """Install the trial point in ``buf`` (by swapping vectors) and update
    the running average and counters."""
    state.x, buf.x = buf.x, state.x
    state.y, buf.y = buf.y, state.y
    state.kx = kx_new
    np.multiply(state.x, avg_weight, out=buf.dx)
    np.add(state.sum_x, buf.dx, out=state.sum_x)
    np.multiply(state.y, avg_weight, out=buf.dy)
    np.add(state.sum_y, buf.dy, out=state.sum_y)
    state.sum_weight += avg_weight
    state.inner_count += 1
    state.total_count += 1


def pdhg_step(state, saddle, step, avg_weight=1.0):
    """Advance the iterate by one PDHG step (in place).

    ``avg_weight`` is this iterate's weight in the running average; the
    commit is skipped and NonFiniteIterate raised if the new point is not
    finite, so the state always holds the last good iterate.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        buf = step_gradient(state, saddle)
        trial = trial_step(
            state, saddle, buf, step.step_size, step.primal_weight, measure_interaction=False
        )
        if trial is None:
            raise NonFiniteIterate(
                f"iterate became non-finite at total iteration {state.total_count + 1}"
            )
        accept_step(state, buf, trial[0], avg_weight)
    return state


def ps_norm(z1, z2, step, mode="omega", matrix=None):
    """Distance between points z = (x, y) in the step-dependent metric.

    mode="omega" returns sqrt((w ||dx||^2 + ||dy||^2 / w) / s), the norm
    induced by the diagonal part of the PPM preconditioner.  mode="full"
    returns the full quadratic form

        (w ||dx||^2 + ||dy||^2 / w) / s + 2 dy' K dx

    (no square root), which is what one PDHG step is nonexpansive in; it can
    go nonpositive when s ||K|| >= 1, which is reported as an error rather
    than clamped.
    """
    x1, y1 = z1
    x2, y2 = z2
    dx = np.asarray(x1, dtype=np.float64) - np.asarray(x2, dtype=np.float64)
    dy = np.asarray(y1, dtype=np.float64) - np.asarray(y2, dtype=np.float64)
    s = step.step_size
    w = step.primal_weight
    diag = (w * (dx @ dx) + (dy @ dy) / w) / s
    if mode == "omega":
        return float(np.sqrt(diag))
    if mode == "full":
        if matrix is None:
            raise NonPositiveInput("mode='full' needs the constraint matrix")
        value = diag + 2.0 * float(dy @ matrix.matvec(dx))
        if value < 0.0:
            raise NonPositiveQuadraticForm(
                f"P_s form is negative ({value!r}); step size too large for this matrix"
            )
        return float(value)
    raise NonPositiveInput(f"unknown ps_norm mode {mode!r}")
