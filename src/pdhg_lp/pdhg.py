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

with z_0 the epoch's anchor.  It forms the reflection 2 x_T - x before the
product, as K (2 x_T - x), so it keeps no K x and also costs one matvec and
one rmatvec.  On a large K it runs on two threads (``halpern_step``).

The kernel runs under np.errstate(over="ignore", invalid="ignore"), so that
a diverging iterate is reported as NonFiniteIterate and not as a warning.
``pdhg_step`` and ``adaptive_step`` enter that state on every call unless
told with ``errstate=False`` that the caller holds it; ``solve`` enters it
once per solve.
"""

import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

try:  # the clip ufunc itself, without ndarray.clip's Python wrapper
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

from .exceptions import NonFiniteIterate, NonPositiveInput, NonPositiveQuadraticForm
from .sparse import dot


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
    K x+ - K x and the gradient c - K'y; the Halpern step also keeps the
    second row block's part of K'y in ``part``."""

    __slots__ = ("x", "y", "dx", "dy", "dkx", "grad", "part")

    def __init__(self, n, m):
        self.x = np.empty(n)
        self.y = np.empty(m)
        self.dx = np.empty(n)
        self.dy = np.empty(m)
        self.dkx = np.empty(m)
        self.grad = np.empty(n)
        self.part = np.empty(n)


@dataclass
class IterateState:
    """Mutable per-epoch iterate state.

    Running sums implement the weighted average used for restarts; ``kx``
    caches K @ x for the PDHG step and must be dropped whenever x changes by
    any route other than that step (restart, rescale).  ``trial_count``
    counts the finite trial points computed, accepted or not.  The state
    owns ``x`` and ``y`` (they are copied in), because the step kernel
    recycles the replaced vectors as work buffers: hold a copy, not a
    reference, of an iterate that must outlive the next step.  After a
    step, ``buffers.x`` and ``buffers.y`` hold the iterate it replaced until
    the next step starts; ``apply_restart`` leaves them alone.  ``anchor``
    is the Halpern epoch's start (x, y), copied at the epoch's first
    Halpern step.
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
        movement = w * dot(dx, dx) + dot(dy, dy) / w
        np.subtract(kx_new, state.kx, out=buf.dkx)
        interaction = 2.0 * abs(dot(dy, buf.dkx))
        finite = math.isfinite(movement) and math.isfinite(interaction)
    else:
        movement = interaction = 0.0
        finite = math.isfinite(dot(x_new, x_new) + dot(y_new, y_new))
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

        x_T = proj(x - (s/w) (c - K'y))
        r   = 2 x_T - x
        y_T = proj(y + (s w) (q - K r))
        z_{k+1} = (k+1)/(k+2) (2 T(z_k) - z_k) + z_0 / (k+2)

    in that order of operations: the reflection r is taken before the
    product, so no K x is kept.  The mixes are written into the work
    buffers, which then change places with the iterate: afterwards
    ``buffers.x``/``buffers.y`` hold T(z_k) and ``buffers.grad``/
    ``buffers.dkx`` hold z_k, until the next step starts.  Raises
    NonFiniteIterate, the iterate untouched, when T(z_k) is not finite.
    ``errstate`` as for ``pdhg_step``.

    The step runs in three phases over K's ``row_blocks``: the blocks' parts
    of K'y; the x side over as many column ranges; K r and the y side over
    the row blocks.  With two blocks the worker thread (``_worker``) runs
    the second half of each phase while the caller runs the first, or, with
    one CPU, the caller runs both in turn: the same arithmetic, the same
    bits.  The worker runs only scipy kernels and numpy ufuncs on disjoint
    slices, never a function a tracer could wrap.
    """
    if errstate:
        with np.errstate(over="ignore", invalid="ignore"):
            return halpern_step(state, saddle, step, errstate=False)
    k_mat = saddle.K
    m, n = k_mat.shape
    buf = state.buffers
    if buf is None:
        buf = state.buffers = StepBuffers(n, m)
    k = state.inner_count
    if k == 0:
        state.anchor = (state.x.copy(), state.y.copy())
    x0, y0 = state.anchor
    x, y = state.x, state.y
    blocks = k_mat.row_blocks()
    scale, sigma = step.step_size / step.primal_weight, step.sigma
    share, denominator = (k + 1) / (k + 2), k + 2
    primal = (saddle.c, saddle.l, saddle.u, x, x0, buf.grad, buf.part, buf.x, buf.dx)
    dual = (saddle.q, y, y0, buf.dy, buf.y, buf.dkx)
    if len(blocks) == 1:
        [block] = blocks
        _transpose_product(block, n, y, buf.grad)
        sums = (
            _primal_side(*primal, False, scale, share, denominator),
            _dual_side(block, n, saddle.m1, buf.dx, *dual, sigma, share, denominator),
        )
    else:
        pool = _worker()
        # K'y by block: the first block's part into grad, the second's into part
        _in_halves(pool, _transpose_product, [(b, n, y, out) for b, out in zip(blocks, (buf.grad, buf.part))])
        sums = _in_halves(
            pool,
            _primal_side,
            [
                tuple(a[cols] for a in primal) + (True, scale, share, denominator)
                for cols in (slice(0, n // 2), slice(n // 2, n))
            ],
        )
        sums += _in_halves(
            pool,
            _dual_side,
            [(b, n, saddle.m1, buf.dx) + tuple(a[b[0]] for a in dual) + (sigma, share, denominator) for b in blocks],
        )
    k_mat.matvec_calls += 1
    k_mat.rmatvec_calls += 1
    # a non-finite entry makes its half's sum non-finite, so the full scan
    # runs only when the sum of T(z)'s entries is not finite
    if not math.isfinite(sum(sums)) and not (np.all(np.isfinite(buf.x)) and np.all(np.isfinite(buf.y))):
        raise NonFiniteIterate(f"iterate became non-finite at total iteration {state.total_count + 1}")
    state.trial_count += 1
    state.x, buf.grad = buf.grad, state.x
    state.y, buf.dkx = buf.dkx, state.y
    state.inner_count += 1
    state.total_count += 1
    return state


# (the process that made it, halpern_step's worker thread), set as one
# value.  Two threads that both find it unset may each make a worker; the
# one not kept is collected, and its thread exits then.
_pool = None


def _cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker():
    """halpern_step's worker thread, or None on a single CPU.  Made on first
    use, and again in a forked child, which has no copy of the thread.  The
    worker ignores overflow and invalid results, as the kernel does."""
    global _pool
    if _cpus() < 2:
        return None
    pid = os.getpid()
    if _pool is None or _pool[0] != pid:
        # imported here: a solve that never splits K should not pay for it
        from concurrent.futures import ThreadPoolExecutor

        executor = ThreadPoolExecutor(max_workers=1, initializer=partial(np.seterr, over="ignore", invalid="ignore"))
        _pool = (pid, executor)
    return _pool[1]


def _in_halves(pool, task, halves):
    """[task(*args) for args in halves]; given the worker, it runs the
    second while the caller runs the first."""
    if pool is None:
        return [task(*args) for args in halves]
    first, second = halves
    future = pool.submit(task, *second)
    try:
        done = task(*first)
    finally:
        other = future.result()
    return [done, other]


def _transpose_product(block, n, y, out):
    """out = the block's rows of K, transposed, times y's entries in them."""
    rows, indptr, indices, data = block
    out.fill(0.0)
    csc_matvec(n, rows.stop - rows.start, indptr, indices, data, y[rows], out)


def _primal_side(c, l, u, x, x0, grad, part, x_t, r, two, scale, share, denominator):
    """Over a column range: grad = c - K'y (K'y in grad, plus part when
    ``two``), x_T = proj(x - scale grad) into x_t, the reflection r = 2 x_T
    - x, and the x mix share r + x0 / denominator into grad, with part as
    the spare.  Returns the sum of x_T's entries."""
    if two:
        np.add(grad, part, out=grad)
    np.subtract(c, grad, out=grad)
    np.multiply(grad, scale, out=r)
    np.subtract(x, r, out=r)
    _clip(r, l, u, out=x_t)
    np.multiply(x_t, 2.0, out=r)
    np.subtract(r, x, out=r)
    np.multiply(r, share, out=grad)
    np.divide(x0, denominator, out=part)
    np.add(grad, part, out=grad)
    return np.add.reduce(x_t)


def _dual_side(block, n, m1, r, q, y, y0, kr, y_t, out, sigma, share, denominator):
    """Over a row block, the rest of the arrays cut to its rows: kr = K r,
    y_T = proj(y + sigma (q - kr)) into y_t, and the y mix share (2 y_T -
    y) + y0 / denominator into out, with kr as the spare.  Returns the sum
    of y_T's entries."""
    rows, indptr, indices, data = block
    kr.fill(0.0)
    csr_matvec(rows.stop - rows.start, n, indptr, indices, data, r, kr)
    np.subtract(q, kr, out=kr)
    np.multiply(kr, sigma, out=kr)
    np.add(y, kr, out=y_t)
    if m1 > rows.start:
        head = y_t[: m1 - rows.start]
        np.maximum(head, 0.0, out=head)
    np.multiply(y_t, 2.0, out=kr)
    np.subtract(kr, y, out=kr)
    np.multiply(kr, share, out=out)
    np.divide(y0, denominator, out=kr)
    np.add(out, kr, out=out)
    return np.add.reduce(y_t)


def fixed_point_residual(state, step):
    """||T(z) - z|| in the weighted norm sqrt(w ||dx||^2 + ||dy||^2 / w),
    for the z and T(z) that the last ``halpern_step`` left in the buffers."""
    buf = state.buffers
    np.subtract(buf.x, buf.grad, out=buf.dx)
    np.subtract(buf.y, buf.dkx, out=buf.dy)
    w = step.primal_weight
    return math.sqrt(w * dot(buf.dx, buf.dx) + dot(buf.dy, buf.dy) / w)


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
    diag = (w * dot(dx, dx) + dot(dy, dy) / w) / s
    if mode == "omega":
        return float(np.sqrt(diag))
    if mode == "full":
        if matrix is None:
            raise NonPositiveInput("mode='full' needs the constraint matrix")
        value = diag + 2.0 * dot(dy, matrix.matvec(dx))
        if value < 0.0:
            raise NonPositiveQuadraticForm(
                f"P_s form is negative ({value!r}); step size too large for this matrix"
            )
        return float(value)
    raise NonPositiveInput(f"unknown ps_norm mode {mode!r}")
