"""Core primal-dual hybrid gradient step and iterate bookkeeping.

One iteration from (x, y) with step size s and primal weight w:

    x+ = proj_[l,u](x - (s/w) (c - K'y))
    y+ = proj_Y  (y + (s w) (q - K (2 x+ - x)))

where Y clips the first m1 dual coordinates at zero.  K(2x+ - x) is formed
as 2 K x+ - K x with K x cached on the state, so a step costs exactly one
matvec and one rmatvec.

``pdhg_step`` runs a stretch of fixed steps as one straight-line loop: it
looks every name up once per call, calls scipy's CSR kernels on K's arrays
directly and keeps K x in two vectors of the step buffers that change
places at every step, so a step allocates nothing.  The adaptive rule in
``stepsize.py`` takes one step per call, from ``step_gradient``,
``trial_step`` (the trial point, its movement and interaction) and
``accept_step`` (the commit, weighted by the step size).

``halpern_step`` applies the same point, T(z), as an operator: reflected
Halpern iteration (Lu & Yang, arXiv 2407.16144) moves to

    z_{k+1} = (k+1)/(k+2) (2 T(z_k) - z_k) + z_0 / (k+2)

with z_0 the epoch's anchor.  It forms the reflection 2 x_T - x before the
product, as K (2 x_T - x), so it keeps no K x and also costs one matvec and
one rmatvec.  On a large K it runs on two threads (``halpern_step``).

The kernels keep z, the iterate a step replaced and the epoch's anchor in
one layout (``StepBuffers``): stacked vectors of length n + m whose first n
entries are the x part and the rest the y part, so that Halpern's mix, the
fixed-point residual's difference and the finiteness test are one pass
each over all of z.  Each kernel writes its new point into ``prev``, which
then changes places with ``z`` (``_advance``, or ``pdhg_step`` itself at
each step of its stretch); the state's x and y are views of ``z``.

On a small problem a step costs numpy's dispatch more than arithmetic, so
``pdhg_step`` and ``halpern_step``'s one-block path call it the cheap way:
every ufunc takes its output positionally (``np.maximum`` keeps ``out=``,
as numpy 2.4 deprecates a positional output there), and every scalar
operand is a float64 0-d array, which a ufunc takes without converting a
Python number: 2 and 0 are module constants, s / w and s w are made once
per StepState, and Halpern's (k + 1) / (k + 2) and k + 2 are written into
arrays kept for them (``StepBuffers``).  The finiteness test sums the new
point's entries by a BLAS dot with a ones vector (``_entry_sum``: up to
DOT_BLAS_MAX entries, and by ``np.add.reduce`` above); a NaN or
infinite entry makes that sum non-finite, and only then are the entries
scanned, so finite entries whose sum overflows pass.  These are the same
float64 operations on the same operands in the same order as the plain
calls, so the iterates keep every bit.

The kernel runs under np.errstate(over="ignore", invalid="ignore"), so that
a diverging iterate is reported as NonFiniteIterate and not as a warning.
``pdhg_step`` and ``adaptive_step`` enter that state on every call unless
told with ``errstate=False`` that the caller holds it; ``solve`` enters it
once per solve.
"""

import math
import os
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

try:  # the clip ufunc itself, without ndarray.clip's Python wrapper
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

from .exceptions import NonFiniteIterate, NonPositiveInput, NonPositiveQuadraticForm
from .sparse import DOT_BLAS_MAX, ROW_WEIGHT, dot

# 2 and 0 as read-only float64 0-d arrays, which a ufunc takes without
# converting a Python float (module docstring)
_TWO, _ZERO = np.array(2.0), np.array(0.0)
_TWO.flags.writeable = _ZERO.flags.writeable = False


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
    """Work vectors of the step kernels: five stacked vectors of length
    n + m, each of whose x part (its first n entries) and y part (the rest)
    are views made once:

        t       the step's scratch point, parts ``x``/``y``.  A Halpern step
                leaves T(z_k) here, with ``head`` the first m1 entries of
                its y part (None when m1 is 0); a PDHG step keeps the
                gradient c - K'y in its x part, and the adaptive rule
                K x+ - K x in its y part
        r       the reflection 2 T(z_k) - z_k, or PDHG's displacement, parts
                ``dx``/``dy``; after the step, scratch (``fixed_point_residual``
                and ``solve`` write there)
        z       the iterate z_{k+1}: the state's x and y are ``z_parts``
        prev    z_k, the iterate the step replaced (``prev_parts``); the
                next step writes its new point here (PDHG's trial point,
                Halpern's mix), then ``z`` and ``prev`` change places
        anchor  the epoch's start z_0 (``anchor_parts``), copied from z at
                the epoch's first step

    ``part``, length n: the second row block's part of K'y when K is split
    in two (``halpern_step``); and ``products``, two vectors of length m
    that hold ``pdhg_step``'s K x and K x+ and change roles at every step.

    The scalar operands of ``pdhg_step`` and of ``halpern_step``'s one-block
    path, as float64 0-d arrays (module docstring):

        step            the StepState that ``scale`` and ``sigma`` were made
                        from, None before the first such step
        scale, sigma    its s / w and s w, made again when a step is given
                        another StepState (a restart's weight update
                        replaces it; ``_step_scalars``)
        share, denominator
                        Halpern's (k + 1) / (k + 2) and k + 2, written in
                        place at every step
        ones            n + m ones for the finiteness sum, made by the first
                        such step when n + m <= DOT_BLAS_MAX, else None
                        (``_entry_sum``)
    """

    __slots__ = (
        "x", "y", "dx", "dy", "part", "products",
        "t", "head", "r", "z", "z_parts", "prev", "prev_parts", "anchor", "anchor_parts",
        "step", "scale", "sigma", "share", "denominator", "ones",
    )

    def __init__(self, n, m, m1):
        self.part = np.empty(n)
        self.products = (np.empty(m), np.empty(m))
        self.step = self.scale = self.sigma = self.ones = None
        self.share, self.denominator = np.empty(()), np.empty(())
        self.t, self.r, self.z, self.prev, self.anchor = (np.empty(n + m) for _ in range(5))
        self.x, self.y = self.t[:n], self.t[n:]
        self.head = self.y[:m1] if m1 else None
        self.dx, self.dy = self.r[:n], self.r[n:]
        self.z_parts = (self.z[:n], self.z[n:])
        self.prev_parts = (self.prev[:n], self.prev[n:])
        self.anchor_parts = (self.anchor[:n], self.anchor[n:])


@dataclass
class IterateState:
    """Mutable per-epoch iterate state.

    Running sums implement the weighted average used for restarts; ``kx``
    caches K @ x for the PDHG step and must be dropped whenever x changes by
    any route other than that step (restart, rescale): after a fixed step it
    is one of ``buffers.products``, which the next fixed step overwrites,
    after an adaptive step a vector of its own, and after a Halpern step or
    a restart None.  ``trial_count`` counts the finite trial points
    computed, accepted or not.  The state owns ``x`` and ``y`` (they are
    copied in), because the step kernels recycle the replaced vectors as
    work buffers and ``apply_restart`` writes the restart point into them:
    hold a copy, not a reference, of an iterate (or of ``kx``) that must
    outlive the next step or restart.  After any step x
    and y are the parts of ``buffers.z``, ``buffers.prev_parts`` hold the
    iterate it replaced until the next step starts, and the epoch's start
    is ``buffers.anchor`` (``StepBuffers``); ``apply_restart`` writes into
    z and leaves the rest alone.
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


def project_primal(x, l, u):
    return np.clip(x, l, u)


def project_dual(y, m1):
    out = y.copy()
    if m1:
        np.maximum(out[:m1], 0.0, out=out[:m1])
    return out


def _buffers(state, saddle):
    """The state's ``StepBuffers``, made on first use, with the state's
    iterate in ``z``: one set from outside (the first step's, or one
    assigned to ``state.x``/``state.y``) is copied in.  At an epoch's first
    step, or the first step to make the buffers, z is copied into
    ``anchor``."""
    buf = state.buffers
    fresh = buf is None
    if fresh:
        m, n = saddle.K.shape
        buf = state.buffers = StepBuffers(n, m, saddle.m1)
    x, y = buf.z_parts
    if state.x is not x or state.y is not y:
        np.copyto(x, state.x)
        np.copyto(y, state.y)
    if fresh or state.inner_count == 0:
        np.copyto(buf.anchor, buf.z)
    return buf


def _advance(state, buf, kx=None):
    """Install the point the step wrote into ``prev``: ``z`` and ``prev``
    change places, the state's x and y become the parts of the new ``z``,
    ``kx`` (K x of the new point, or None) is cached and the step counted."""
    buf.z, buf.prev = buf.prev, buf.z
    buf.z_parts, buf.prev_parts = buf.prev_parts, buf.z_parts
    state.x, state.y = buf.z_parts
    state.kx = kx
    state.inner_count += 1
    state.total_count += 1


def _step_scalars(buf, step):
    """``step``'s s / w and s w as 0-d arrays, cached on the buffers for as
    long as the steps are given this StepState."""
    if buf.step is not step:
        buf.step = step
        buf.scale = np.array(step.step_size / step.primal_weight)
        buf.sigma = np.array(step.sigma)
    return buf.scale, buf.sigma


def _entry_sum(buf):
    """The finiteness test's sum of a stacked vector's entries, as a
    function: a BLAS dot with the ones vector (made here on first use) up
    to DOT_BLAS_MAX entries, where it costs about half of ``np.add.reduce``;
    the reduce above, which keeps off BLAS's threads (``sparse.dot``) and
    beats einsum with a ones vector."""
    size = buf.z.size
    if size > DOT_BLAS_MAX:
        return np.add.reduce
    if buf.ones is None:
        buf.ones = np.ones(size)
    return buf.ones.dot


def step_gradient(state, saddle):
    """Fill the K x cache if it is empty and c - K'y into the x part of
    ``buffers.t``; returns the state's buffers (``_buffers``)."""
    buf = _buffers(state, saddle)
    k = saddle.K
    if state.kx is None:
        state.kx = k.matvec(state.x)
    np.subtract(saddle.c, k.rmatvec(state.y), out=buf.x)
    return buf


def trial_step(state, saddle, buf, s, w):
    """Compute the adaptive rule's trial point at step s and weight w into
    ``buf.prev_parts``.

    Needs ``step_gradient`` first.  Returns (K x+, movement, interaction)
    with movement = w ||dx||^2 + ||dy||^2 / w and interaction =
    2 |dy'(K x+ - K x)|, or None when the trial point is not finite.  A
    non-finite point always makes the movement or the interaction
    non-finite, so the full scan runs only when one of them is not finite.
    The iterate z is not touched, so a rejected trial leaves the state as
    it was apart from ``trial_count``.  Run under
    np.errstate(over="ignore", invalid="ignore").
    """
    x, y = buf.z_parts
    x_new, y_new = buf.prev_parts
    grad, dkx, dx, dy = buf.x, buf.y, buf.dx, buf.dy
    np.multiply(grad, s / w, out=dx)
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
    np.subtract(x_new, x, out=dx)
    np.subtract(y_new, y, out=dy)
    movement = w * dot(dx, dx) + dot(dy, dy) / w
    np.subtract(kx_new, state.kx, out=dkx)
    interaction = 2.0 * abs(dot(dy, dkx))
    finite = math.isfinite(movement) and math.isfinite(interaction)
    if not finite and not (np.all(np.isfinite(x_new)) and np.all(np.isfinite(y_new))):
        return None
    state.trial_count += 1
    return kx_new, movement, interaction


def accept_step(state, buf, kx_new, avg_weight):
    """Install the trial point (``_advance``) and add it to the running
    average with weight ``avg_weight``."""
    _advance(state, buf, kx_new)
    np.multiply(state.x, avg_weight, out=buf.dx)
    np.add(state.sum_x, buf.dx, out=state.sum_x)
    np.multiply(state.y, avg_weight, out=buf.dy)
    np.add(state.sum_y, buf.dy, out=state.sum_y)
    state.sum_weight += avg_weight


def pdhg_step(state, saddle, step, *, errstate=True, count=1, t_start=0.0, time_limit=math.inf):
    """Advance the iterate by ``count`` PDHG steps (in place); returns the
    state.

    Each iterate joins the running average with weight 1.  Before each step
    after the first, the stretch ends early once ``time.perf_counter() -
    t_start >= time_limit``, the test ``solve`` makes between steps.  The
    step buffers (``StepBuffers``) are used as by a single step: after the
    call ``buffers.prev_parts`` hold the iterate the last step replaced, and
    K x is one of ``buffers.products``; an empty cache (after a restart) is
    filled by one ``K.matvec``, the one product not made by the CSR kernels
    here.  If step j's point is not finite, NonFiniteIterate is raised and
    the state holds step j - 1's iterate, counts and sums.  Pass
    ``errstate=False`` only under the kernel's np.errstate (module
    docstring).
    """
    if errstate:
        with np.errstate(over="ignore", invalid="ignore"):
            return pdhg_step(
                state, saddle, step, errstate=False, count=count, t_start=t_start, time_limit=time_limit
            )
    if count < 1:
        raise NonPositiveInput(f"count must be at least 1, got {count}")
    k_mat = saddle.K
    m, n = k_mat.shape
    buf = _buffers(state, saddle)
    if state.kx is None:
        state.kx = k_mat.matvec(state.x)
    blocks = k_mat.row_blocks()
    _, indptr, indices, data = blocks[0]
    if len(blocks) > 1:  # the two blocks share indices and data and split indptr
        indptr = np.concatenate((indptr[:-1], blocks[1][1]))
    c, q, lower, upper, m1 = saddle.c, saddle.q, saddle.l, saddle.u, saddle.m1
    scale, sigma = _step_scalars(buf, step)
    entry_sum = _entry_sum(buf)
    subtract, multiply, add, maximum, isfinite = np.subtract, np.multiply, np.add, np.maximum, math.isfinite
    grad, dx, dy, products = buf.x, buf.dx, buf.dy, buf.products
    sum_x, sum_y, weight = state.sum_x, state.sum_y, state.sum_weight
    timed = time_limit < math.inf
    clock = time.perf_counter
    # the iterate, the point being formed in the vector of the one before
    # it, their first m1 duals, and K x and K x+; they swap at every step
    z, prev, (x, y), (x_new, y_new) = buf.z, buf.prev, buf.z_parts, buf.prev_parts
    head, head_new = y[:m1], y_new[:m1]
    kx = state.kx
    kx_new = products[kx is products[0]]
    steps = 0
    try:
        for _ in range(count):
            if steps and timed and (clock() - t_start) >= time_limit:
                break
            # x+ = proj(x - scale (c - K'y))
            grad.fill(0.0)
            csc_matvec(n, m, indptr, indices, data, y, grad)
            subtract(c, grad, grad)
            multiply(grad, scale, dx)
            subtract(x, dx, dx)
            _clip(dx, lower, upper, x_new)
            # y+ = proj(y + sigma (q - (2 K x+ - K x)))
            kx_new.fill(0.0)
            csr_matvec(m, n, indptr, indices, data, x_new, kx_new)
            multiply(kx_new, _TWO, dy)
            subtract(dy, kx, dy)
            subtract(q, dy, dy)
            multiply(dy, sigma, dy)
            add(y, dy, y_new)
            if m1:
                maximum(head_new, _ZERO, out=head_new)
            # a non-finite entry makes the sum non-finite
            if not isfinite(entry_sum(prev)) and not np.all(np.isfinite(prev)):
                k_mat.matvec_calls += 1
                k_mat.rmatvec_calls += 1
                raise NonFiniteIterate(
                    f"iterate became non-finite at total iteration {state.total_count + steps + 1}"
                )
            add(sum_x, x_new, sum_x)
            add(sum_y, y_new, sum_y)
            weight += 1.0
            z, prev, x, y, x_new, y_new, head, head_new = prev, z, x_new, y_new, x, y, head_new, head
            kx, kx_new = kx_new, products[kx_new is products[0]]
            steps += 1
    finally:
        buf.z, buf.prev, buf.z_parts, buf.prev_parts = z, prev, (x, y), (x_new, y_new)
        state.x, state.y, state.kx, state.sum_weight = x, y, kx, weight
        state.inner_count += steps
        state.total_count += steps
        state.trial_count += steps
        k_mat.matvec_calls += steps
        k_mat.rmatvec_calls += steps
    return state


def halpern_step(state, saddle, step, *, errstate=True):
    """Advance the iterate by one reflected Halpern step (in place).

    With T the PDHG operator at the state's step, k = ``state.inner_count``
    and z_0 the anchor, copied from z at the epoch's first step (k = 0, or
    the first step to make the buffers):

        x_T = proj(x - (s/w) (c - K'y))
        r   = 2 x_T - x
        y_T = proj(y + (s w) (q - K r))
        z_{k+1} = (k+1)/(k+2) (2 T(z_k) - z_k) + z_0 / (k+2)

    in that order of operations: the reflection r is taken before the
    product, so no K x is kept.  The vectors are the stacked ones of the
    state's ``StepBuffers`` (its docstring): the mix goes into ``prev``,
    which then changes places with ``z`` (``_advance``), so that afterwards
    ``buffers.x``/``buffers.y`` hold T(z_k), ``buffers.prev_parts`` hold
    z_k and the state's x and y are the parts of ``buffers.z``.  The K x
    cache is dropped.  Raises NonFiniteIterate, the iterate untouched, when
    T(z_k) is not finite.  ``errstate`` as for ``pdhg_step``.

    With one row block the step runs inline as straight-line code: the x
    side, the y side, then the mix and the finiteness sum each as one pass
    over all n + m entries.  With two (K's ``row_blocks``) it runs in three
    phases: the blocks' parts of K'y; the x side over two column ranges;
    K r and the y side over the row blocks of ``row_blocks(ROW_WEIGHT)``.
    The worker thread (``_worker``) runs the second half of each phase
    while the caller runs the first, or, with one CPU, the caller runs both
    in turn: the same arithmetic, the same bits.  The worker runs only
    scipy kernels and numpy ufuncs on disjoint slices, never a function a
    tracer could wrap.
    """
    if errstate:
        with np.errstate(over="ignore", invalid="ignore"):
            return halpern_step(state, saddle, step, errstate=False)
    k_mat = saddle.K
    m, n = k_mat.shape
    buf = _buffers(state, saddle)
    k = state.inner_count
    x, y = buf.z_parts
    x_t, y_t, r_x, r_y, mix = buf.x, buf.y, buf.dx, buf.dy, buf.prev
    blocks = k_mat.row_blocks()
    if len(blocks) == 1:
        [(_, indptr, indices, data)] = blocks
        subtract, multiply, add = np.subtract, np.multiply, np.add
        scale, sigma = _step_scalars(buf, step)
        share, denominator = buf.share, buf.denominator
        share[()] = (k + 1) / (k + 2)
        denominator[()] = k + 2
        # x_T = proj(x - scale (c - K'y)) and r_x = 2 x_T - x, in r_x
        r_x.fill(0.0)
        csc_matvec(n, m, indptr, indices, data, y, r_x)
        subtract(saddle.c, r_x, r_x)
        multiply(r_x, scale, r_x)
        subtract(x, r_x, r_x)
        _clip(r_x, saddle.l, saddle.u, x_t)
        multiply(x_t, _TWO, r_x)
        subtract(r_x, x, r_x)
        # y_T = proj(y + sigma (q - K r_x)) and r_y = 2 y_T - y, in r_y
        r_y.fill(0.0)
        csr_matvec(m, n, indptr, indices, data, r_x, r_y)
        subtract(saddle.q, r_y, r_y)
        multiply(r_y, sigma, r_y)
        add(y, r_y, y_t)
        if buf.head is not None:
            np.maximum(buf.head, _ZERO, out=buf.head)
        multiply(y_t, _TWO, r_y)
        subtract(r_y, y, r_y)
        # the mix over all of z, with r as the spare
        multiply(buf.r, share, mix)
        np.divide(buf.anchor, denominator, buf.r)
        add(mix, buf.r, mix)
        # a non-finite entry makes the sum non-finite
        total = _entry_sum(buf)(buf.t)
    else:
        scale, sigma = step.step_size / step.primal_weight, step.sigma
        share, denominator = (k + 1) / (k + 2), k + 2
        pool = _worker()
        mix_x, mix_y = buf.prev_parts
        anchor_x, anchor_y = buf.anchor_parts
        # K'y by block: the first block's part into mix_x, the second's into part
        _in_halves(pool, _transpose_product, [(b, n, y, out) for b, out in zip(blocks, (mix_x, buf.part))])
        primal = (saddle.c, saddle.l, saddle.u, x, anchor_x, mix_x, buf.part, x_t, r_x)
        sums = _in_halves(
            pool,
            _primal_side,
            [
                tuple(a[cols] for a in primal) + (scale, share, denominator)
                for cols in (slice(0, n // 2), slice(n // 2, n))
            ],
        )
        dual = (saddle.q, y, anchor_y, r_y, y_t, mix_y)
        sums += _in_halves(
            pool,
            _dual_side,
            [
                (b, n, saddle.m1, r_x) + tuple(a[b[0]] for a in dual) + (sigma, share, denominator)
                for b in k_mat.row_blocks(ROW_WEIGHT)
            ],
        )
        total = sum(sums)
    k_mat.matvec_calls += 1
    k_mat.rmatvec_calls += 1
    # the full scan runs only when the sum of T(z)'s entries is not finite
    if not math.isfinite(total) and not np.all(np.isfinite(buf.t)):
        raise NonFiniteIterate(f"iterate became non-finite at total iteration {state.total_count + 1}")
    state.trial_count += 1
    _advance(state, buf)
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


def _primal_side(c, l, u, x, x0, grad, part, x_t, r, scale, share, denominator):
    """Over a column range: grad = c - K'y (K'y in grad plus part), x_T =
    proj(x - scale grad) into x_t, the reflection r = 2 x_T - x, and the x
    mix share r + x0 / denominator into grad, with part as the spare.
    Returns the sum of x_T's entries."""
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
    for the z and T(z) that the last ``halpern_step`` left in the buffers;
    T(z) - z is formed in one pass, into ``buffers.r``."""
    buf = state.buffers
    np.subtract(buf.t, buf.prev, buf.r)
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
