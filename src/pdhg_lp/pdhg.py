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
trial that is always accepted.  A fixed step forms only the point: the
displacement, movement and interaction are the adaptive rule's, and it
alone computes them.

``halpern_step`` applies the same point, T(z), as an operator: reflected
Halpern iteration (Lu & Yang, arXiv 2407.16144) moves to

    z_{k+1} = (k+1)/(k+2) (2 T(z_k) - z_k) + z_0 / (k+2)

with z_0 the epoch's anchor, and mixes K x the same way from cached
products, so it too costs one matvec and one rmatvec.

The kernel runs under np.errstate(over="ignore", invalid="ignore"), so that
a diverging iterate is reported as NonFiniteIterate and not as a warning.
``pdhg_step`` and ``adaptive_step`` enter that state on every call unless
told with ``errstate=False`` that the caller holds it; ``solve`` enters it
once per solve.
"""

import math
from dataclasses import dataclass, field

import numpy as np

try:  # the clip ufunc itself, without ndarray.clip's Python wrapper
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

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
    iterate that must outlive the next step.  After a step, ``buffers.x`` and
    ``buffers.y`` hold the iterate it replaced until the next step starts;
    ``apply_restart`` leaves them alone.  ``anchor`` is the Halpern
    epoch's start (x, y, K x), copied at the epoch's first Halpern step.
    """

    x: np.ndarray
    y: np.ndarray
    sum_x: np.ndarray = None
    sum_y: np.ndarray = None
    sum_weight: float = 0.0
    inner_count: int = 0
    total_count: int = 0
    kx: np.ndarray = field(default=None, repr=False)
    trial_count: int = 0
    buffers: StepBuffers = field(default=None, init=False, repr=False, compare=False)
    anchor: tuple = field(default=None, init=False, repr=False, compare=False)

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


def trial_step(state, saddle, buf, s, w, measure=True):
    """Compute the PDHG point at step s and weight w into ``buf.x``/``buf.y``.

    Needs ``step_gradient`` first.  Returns (K x+, movement, interaction)
    with movement = w ||dx||^2 + ||dy||^2 / w and interaction =
    2 |dy'(K x+ - K x)|, or None when the trial point is not finite.  Only
    the adaptive rule reads movement and interaction: with ``measure=False``
    neither is formed and both are returned as 0.0.  A non-finite point
    always makes a scalar of it non-finite (the movement and interaction,
    or else x+'x+ + y+'y+), so the full scan runs only when that scalar is
    not finite.  The state is not touched apart from ``trial_count``.  Run
    under np.errstate(over="ignore", invalid="ignore").
    """
    x, y = state.x, state.y
    x_new, y_new, dx, dy = buf.x, buf.y, buf.dx, buf.dy
    np.multiply(buf.grad, s / w, out=dx)
    np.subtract(x, dx, out=dx)
    _clip(dx, saddle.l, saddle.u, out=x_new)
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
    if measure:
        np.subtract(x_new, x, out=dx)
        np.subtract(y_new, y, out=dy)
        movement = w * float(dx.dot(dx)) + float(dy.dot(dy)) / w
        np.subtract(kx_new, state.kx, out=buf.dkx)
        interaction = 2.0 * abs(float(dy.dot(buf.dkx)))
        finite = math.isfinite(movement) and math.isfinite(interaction)
    else:
        movement = interaction = 0.0
        finite = math.isfinite(float(x_new.dot(x_new)) + float(y_new.dot(y_new)))
    if not finite and not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(y_new))):
        return None
    state.trial_count += 1
    return kx_new, movement, interaction


def accept_step(state, buf, kx_new, avg_weight):
    """Install the trial point in ``buf`` (by swapping vectors) and update
    the running average and counters."""
    state.x, buf.x = buf.x, state.x
    state.y, buf.y = buf.y, state.y
    state.kx = kx_new
    if avg_weight == 1.0:  # 1.0 * v is v, bit for bit
        np.add(state.sum_x, state.x, out=state.sum_x)
        np.add(state.sum_y, state.y, out=state.sum_y)
    else:
        np.multiply(state.x, avg_weight, out=buf.dx)
        np.add(state.sum_x, buf.dx, out=state.sum_x)
        np.multiply(state.y, avg_weight, out=buf.dy)
        np.add(state.sum_y, buf.dy, out=state.sum_y)
    state.sum_weight += avg_weight
    state.inner_count += 1
    state.total_count += 1


def pdhg_step(state, saddle, step, avg_weight=1.0, *, errstate=True):
    """Advance the iterate by one PDHG step (in place).

    ``avg_weight`` is this iterate's weight in the running average; the
    commit is skipped and NonFiniteIterate raised if the new point is not
    finite, so the state always holds the last good iterate.  Pass
    ``errstate=False`` only under the kernel's np.errstate (module
    docstring).
    """
    if errstate:
        with np.errstate(over="ignore", invalid="ignore"):
            return pdhg_step(state, saddle, step, avg_weight, errstate=False)
    buf = step_gradient(state, saddle)
    trial = trial_step(state, saddle, buf, step.step_size, step.primal_weight, measure=False)
    if trial is None:
        raise NonFiniteIterate(f"iterate became non-finite at total iteration {state.total_count + 1}")
    accept_step(state, buf, trial[0], avg_weight)
    return state


def halpern_step(state, saddle, step, *, errstate=True):
    """Advance the iterate by one reflected Halpern step (in place).

    With T the PDHG operator at the state's step, k = ``state.inner_count``
    and z_0 the anchor, taken at the epoch's first step:

        z_{k+1} = (k+1)/(k+2) (2 T(z_k) - z_k) + z_0 / (k+2)

    in that order of operations, and K x_{k+1} the same mix of K x_T, K x_k
    and K x_0.  The mixes are written into the work buffers, which then
    change places with the iterate: afterwards ``buffers.x``/``buffers.y``
    hold T(z_k) and ``buffers.grad``/``buffers.dkx`` hold z_k, until the
    next step starts.  Returns K x_T.  Raises NonFiniteIterate, the iterate
    untouched, when T(z_k) is not finite.  ``errstate`` as for
    ``pdhg_step``.
    """
    if errstate:
        with np.errstate(over="ignore", invalid="ignore"):
            return halpern_step(state, saddle, step, errstate=False)
    buf = step_gradient(state, saddle)
    k = state.inner_count
    if k == 0:
        state.anchor = (state.x.copy(), state.y.copy(), state.kx.copy())
    trial = trial_step(state, saddle, buf, step.step_size, step.primal_weight, measure=False)
    if trial is None:
        raise NonFiniteIterate(f"iterate became non-finite at total iteration {state.total_count + 1}")
    kx_t = trial[0]
    x0, y0, kx0 = state.anchor
    share = (k + 1) / (k + 2)
    _halpern_mix(buf.x, state.x, x0, share, k + 2, out=buf.grad, spare=buf.dx)
    _halpern_mix(buf.y, state.y, y0, share, k + 2, out=buf.dkx, spare=buf.dy)
    _halpern_mix(kx_t, state.kx, kx0, share, k + 2, out=buf.dy, spare=state.kx)
    state.x, buf.grad = buf.grad, state.x
    state.y, buf.dkx = buf.dkx, state.y
    state.kx, buf.dy = buf.dy, state.kx
    state.inner_count += 1
    state.total_count += 1
    return kx_t


def _halpern_mix(t, z, z0, share, denominator, out, spare):
    """out = share (2 t - z) + z0 / denominator; ``spare`` may be z, which
    is read before spare is written."""
    np.multiply(t, 2.0, out=out)
    np.subtract(out, z, out=out)
    np.multiply(out, share, out=out)
    np.divide(z0, denominator, out=spare)
    np.add(out, spare, out=out)


def fixed_point_residual(state, step):
    """||T(z) - z|| in the weighted norm sqrt(w ||dx||^2 + ||dy||^2 / w),
    for the z and T(z) that the last ``halpern_step`` left in the buffers."""
    buf = state.buffers
    np.subtract(buf.x, buf.grad, out=buf.dx)
    np.subtract(buf.y, buf.dkx, out=buf.dy)
    w = step.primal_weight
    return math.sqrt(w * float(buf.dx.dot(buf.dx)) + float(buf.dy.dot(buf.dy)) / w)


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
