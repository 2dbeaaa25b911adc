"""Core primal-dual hybrid gradient step and iterate bookkeeping.

One iteration from (x, y) with step size s and primal weight w:

    x+ = proj_[l,u](x - (s/w) (c - K'y))
    y+ = proj_Y  (y + (s w) (q - K (2 x+ - x)))

where Y clips the first m1 dual coordinates at zero: the PDHG operator T at
z = (x, y).  ``pdhg_step`` moves to T(z), or with ``halpern=True`` to the
reflected Halpern mix (Lu & Yang, arXiv 2407.16144)

    z_{k+1} = (k+1)/(k+2) (2 T(z_k) - z_k) + z_0 / (k+2)

with z_0 the epoch's anchor.  Both form T in one loop (``_steps``), the
reflection 2 x+ - x before the product, so they keep no K x and a step
costs one matvec and one rmatvec; on a large K both run on two threads,
through the same side functions.  The adaptive rule in ``stepsize.py``
takes one step per call, from ``step_gradient``, ``trial_step`` (the trial
point, its movement and interaction) and ``accept_step`` (the commit,
weighted by the step size); its interaction needs K x+ - K x, so it alone
caches K x.

The kernels keep z, the iterate a step replaced, the epoch's anchor, its
running sum and the restart candidate in one layout (``StepBuffers``):
stacked vectors of length n + m whose first n entries are the x part and
the rest the y part, so that Halpern's mix, the running sum's update, the
fixed-point residual's difference and the finiteness test are one pass
each over all of z.  An ``IterateState`` makes its buffers when it is
built, so its x and y are views of ``z`` from the start.  Each kernel
writes its new point into ``prev``, which then changes places with ``z``
(``_advance``, or ``_steps`` itself at each step).

On a small problem a step costs numpy's dispatch more than arithmetic, so
``_steps`` calls it the cheap way: every ufunc takes its output
positionally (``np.maximum`` keeps ``out=``, as numpy 2.4 deprecates a
positional output there), and every scalar operand is a float64 0-d array,
which a ufunc takes without converting a Python number: 2 and 0 are module
constants, s / w and s w are made once per StepState, and Halpern's
(k + 1) / (k + 2) and k + 2 are written into arrays kept for them
(``StepBuffers``).  The finiteness test sums the new iterate's entries by a
BLAS dot with a ones vector (``StepBuffers.entry_sum``: up to DOT_BLAS_MAX
entries, and by ``np.add.reduce`` above; with two row blocks each half
reduces its own part, on its own thread); a NaN or infinite entry makes
that sum non-finite, and only then are the entries scanned, so finite
entries whose sum overflows pass.  Under Halpern the new iterate is the
mix, whose reflection can overflow where T(z) does not.  These are the same
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
_add, _subtract, _multiply, _divide, _maximum = np.add, np.subtract, np.multiply, np.divide, np.maximum


@dataclass(frozen=True)
class StepState:
    """Step size s and primal weight w: primal step s / w, dual step ``sigma`` = s w."""

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
    def sigma(self):
        return self.step_size * self.primal_weight


class StepBuffers:
    """Work vectors of the step kernels: six stacked vectors of length
    n + m, each of whose x part (its first n entries) and y part (the rest)
    are views made once:

        t       the restart candidate, parts ``x``/``y``.  A Halpern step
                leaves T(z_k) here and ``solve``'s gap test the epoch
                average; a PDHG step leaves it alone; the adaptive rule
                keeps the gradient c - K'y in its x part and K x+ - K x in
                its y part.  ``head``, the first m1 entries of its y part,
                is made at the first one-block Halpern step with m1 > 0,
                for that saddle's m1, and kept (None before)
        r       the reflection: its x part 2 x_T - x under every constant
                step, its y part 2 y_T - y under Halpern; the adaptive
                rule's displacement; parts ``dx``/``dy``.  After the step,
                scratch (``fixed_point_residual`` and ``solve`` write there)
        z       the iterate z_{k+1}: the state's x and y are ``z_parts``
        prev    z_k, the iterate the step replaced (``prev_parts``); the
                next step writes its new point here (T(z), the adaptive
                rule's trial point, Halpern's mix), then ``z`` and ``prev``
                change places
        anchor  the epoch's start z_0 (``anchor_parts``), copied from z at
                the epoch's first step
        sums    the epoch's running sum of weighted iterates, zeroed at a
                restart: a PDHG step adds z_{k+1} in one pass, the adaptive
                rule s z_{k+1}; the state's ``sum_x``/``sum_y`` are its parts

    ``IterateState`` makes the buffers, seeds t, z, prev and anchor with its
    first iterate, so that a check before the first step reads that point,
    and fills ``sums``.

    ``part``, length n: the second row block's part of K'y when K's rows
    come in two blocks, then the x mix's spare (``_steps``, under both
    constant steps).

    The scalar operands of ``_steps``, as float64 0-d arrays (module
    docstring), and its finiteness sum:

        step            the StepState that ``scale`` and ``sigma`` were made
                        from, None before the first such step
        scale, sigma    its s / w and s w, made again when a step is given
                        another StepState (a restart's weight update
                        replaces it; ``_step_scalars``)
        share, denominator
                        Halpern's (k + 1) / (k + 2) and k + 2, written in
                        place at every step
        entry_sum       the finiteness test's sum of a stacked vector's
                        entries: up to DOT_BLAS_MAX entries a BLAS dot with
                        n + m ones, where it costs about half of
                        ``np.add.reduce``; the reduce above, which keeps off
                        BLAS's threads (``sparse.dot``) and beats einsum
                        with a ones vector
    """

    __slots__ = (
        "x", "y", "dx", "dy", "part", "sums",
        "t", "head", "r", "z", "z_parts", "prev", "prev_parts", "anchor", "anchor_parts",
        "step", "scale", "sigma", "share", "denominator", "entry_sum",
    )

    def __init__(self, n, m):
        self.part = np.empty(n)
        self.head = self.step = self.scale = self.sigma = None
        self.share, self.denominator = np.empty(()), np.empty(())
        self.entry_sum = np.ones(n + m).dot if n + m <= DOT_BLAS_MAX else np.add.reduce
        self.t, self.r, self.z, self.prev, self.anchor, self.sums = (np.empty(n + m) for _ in range(6))
        self.x, self.y = self.t[:n], self.t[n:]
        self.dx, self.dy = self.r[:n], self.r[n:]
        self.z_parts = (self.z[:n], self.z[n:])
        self.prev_parts = (self.prev[:n], self.prev[n:])
        self.anchor_parts = (self.anchor[:n], self.anchor[n:])


@dataclass
class IterateState:
    """Mutable per-epoch iterate state, built from its first iterate (x, y).

    ``sum_x``, ``sum_y`` and ``sum_weight`` are the running sums of the
    epoch's weighted average (``solve`` forms it in ``buffers.t``), and
    ``inner_count``/``total_count`` count its steps and all steps; all start
    at zero.  ``kx`` caches K @ x for the adaptive rule and must be dropped
    whenever x changes by any route other than that rule's step (restart,
    rescale): after an adaptive step it is a vector of its own, and after a
    fixed or Halpern step or a restart None.  ``trial_count`` counts the
    finite trial points computed, accepted or not.

    The state makes its ``StepBuffers`` when it is built and copies x and y
    into them: from then on x and y are the parts of ``buffers.z``,
    ``sum_x`` and ``sum_y`` the parts of ``buffers.sums``, and t, prev and
    anchor start as copies of z.  A step swaps ``z`` with ``prev``, where
    it wrote its new point, so the arrays that ``state.x`` and ``state.y``
    name after one step hold the next step's new point after two, and
    ``apply_restart`` writes into z: hold a copy, not a reference, of an
    iterate (or of ``kx``) that must outlive the next step or restart.
    After a step ``buffers.prev_parts`` hold the iterate it replaced until
    the next step starts, and the epoch's start is ``buffers.anchor``.
    """

    x: np.ndarray
    y: np.ndarray
    sum_weight: float = field(default=0.0, init=False)
    inner_count: int = field(default=0, init=False)
    total_count: int = field(default=0, init=False)
    sum_x: np.ndarray = field(init=False)
    sum_y: np.ndarray = field(init=False)
    kx: np.ndarray = field(default=None, init=False, repr=False)
    trial_count: int = field(default=0, init=False)
    buffers: StepBuffers = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        x, y = (np.asarray(v, dtype=np.float64) for v in (self.x, self.y))
        n = x.shape[0]
        buf = self.buffers = StepBuffers(n, y.shape[0])
        np.concatenate((x, y), out=buf.z)
        for copy in (buf.t, buf.prev, buf.anchor):
            np.copyto(copy, buf.z)
        buf.sums.fill(0.0)
        self.x, self.y = buf.z_parts
        self.sum_x, self.sum_y = buf.sums[:n], buf.sums[n:]

    @classmethod
    def initial(cls, saddle):
        """Start at the origin projected into the box, dual at zero."""
        x0 = np.clip(np.zeros(saddle.num_primal), saddle.l, saddle.u)
        return cls(x=x0, y=np.zeros(saddle.num_dual))


def project_primal(x, l, u):
    return np.clip(x, l, u)


def project_dual(y, m1):
    out = y.copy()
    if m1:
        np.maximum(out[:m1], 0.0, out=out[:m1])
    return out


def _buffers(state):
    """The state's ``StepBuffers``, with z copied into ``anchor`` at an
    epoch's first step."""
    buf = state.buffers
    if state.inner_count == 0:
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


def step_gradient(state, saddle):
    """Fill the K x cache if it is empty and c - K'y into the x part of
    ``buffers.t``; returns the state's buffers (``_buffers``)."""
    buf = _buffers(state)
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
    np.multiply(buf.z, avg_weight, out=buf.r)
    np.add(buf.sums, buf.r, out=buf.sums)
    state.sum_weight += avg_weight


def pdhg_step(state, saddle, step, *, halpern=False, errstate=True, count=1, deadline=math.inf):
    """Advance the iterate by ``count`` PDHG steps, or with ``halpern`` by
    ``count`` reflected Halpern steps (in place); returns the state.

    With T the PDHG operator at the state's step, k = ``state.inner_count``
    and z_0 the anchor, copied from z at the epoch's first step (k = 0):

        x_T = proj(x - (s/w) (c - K'y))
        r   = 2 x_T - x
        y_T = proj(y + (s w) (q - K r))
        z_{k+1} = T(z_k), or (k+1)/(k+2) (2 T(z_k) - z_k) + z_0 / (k+2)

    in that order of operations.  A PDHG iterate joins the running average
    with weight 1; a Halpern step leaves T(z_k) in ``buffers.x``/``buffers.y``
    instead.  The new iterate goes into ``prev`` of the state's
    ``StepBuffers`` (its docstring), which then changes places with ``z``:
    afterwards ``buffers.prev_parts`` hold z_k and the state's x and y are
    the parts of ``buffers.z``.  The K x cache is None.  Before each step
    after the first the stretch ends once ``time.perf_counter() >=
    deadline``, ``solve``'s test between stretches.  With K's rows in two
    blocks the steps run on two threads (``_steps``).  If step j's point is
    not finite, NonFiniteIterate is raised and the state holds step j - 1's
    iterate, counts, sums and cache.  Pass ``errstate=False`` only under the
    kernel's np.errstate (module docstring).
    """
    if errstate:
        with np.errstate(over="ignore", invalid="ignore"):
            return pdhg_step(state, saddle, step, halpern=halpern, errstate=False, count=count, deadline=deadline)
    if count < 1:
        raise NonPositiveInput(f"count must be at least 1, got {count}")
    return _steps(state, saddle, step, count, halpern, deadline)


def _steps(state, saddle, step, count, halpern, deadline):
    """Up to ``count`` steps of ``pdhg_step``; returns the state.  A step
    forms T(z) as ``pdhg_step``'s docstring orders it, by ``_x_side`` and
    ``_y_side``.  PDHG writes T(z) into ``prev`` and adds it to the running
    sum in one pass; Halpern writes it into ``buffers.t`` and the mix
    (``_mix``) into ``prev``.  The new iterate in ``prev`` is tested, then changes places
    with ``z``; after a step the K x cache is None.

    With one row block (K's ``row_blocks``) the step runs inline on the
    whole vectors.  With two it runs in three phases: the blocks' parts of
    K'y; the x side over two column halves (``_x_half``); K r and the y
    side over the row blocks of ``row_blocks(ROW_WEIGHT)`` (``_y_half``).
    The worker thread (``_worker``) runs the second half of each phase
    while the caller runs the first, or, with one CPU, the caller runs both
    in turn: the same arithmetic, the same bits.  Each half returns the sum
    of its part of the new iterate for the finiteness test.  The worker
    runs only this module's phase functions, scipy kernels and numpy
    ufuncs on disjoint slices, never a function a tracer could wrap.
    """
    k_mat = saddle.K
    m, n = k_mat.shape
    blocks = k_mat.row_blocks()
    buf = _buffers(state)
    c, q, lower, upper, m1 = saddle.c, saddle.q, saddle.l, saddle.u, saddle.m1
    scale, sigma = _step_scalars(buf, step)
    entry_sum, isfinite = buf.entry_sum, math.isfinite
    r, r_x, r_y, part = buf.r, buf.dx, buf.dy, buf.part
    sums, weight, inner = buf.sums, state.sum_weight, state.inner_count
    anchor, share, denominator = buf.anchor, buf.share, buf.denominator
    timed = deadline < math.inf
    clock = time.perf_counter
    # the iterate and the vector of the one before it, where the new one is
    # formed; they swap at every step
    z, prev, (x, y), (x_new, y_new) = buf.z, buf.prev, buf.z_parts, buf.prev_parts
    if halpern:
        if buf.head is None and m1:
            buf.head = buf.y[:m1]
        x_t, y_t, head_t, spare = buf.x, buf.y, buf.head, None
    else:  # T(z) is the new iterate; spare is the first m1 duals of z
        x_t, y_t, head_t, spare = (x_new, y_new) + ((y_new[:m1], y[:m1]) if m1 else (None, None))
    split = len(blocks) > 1
    if split:
        pool, mix = _worker(), (share, denominator) if halpern else None
        columns, rows = (slice(0, n // 2), slice(n // 2, n)), k_mat.row_blocks(ROW_WEIGHT)
        anchor_x, anchor_y = buf.anchor_parts
    else:
        [(_, indptr, indices, data)] = blocks
    steps = 0
    try:
        for _ in range(count):
            if steps and timed and clock() >= deadline:
                break
            if halpern:
                k = inner + steps
                share[()] = (k + 1) / (k + 2)
                denominator[()] = k + 2
            if split:
                _in_halves(pool, _transpose_product, [(b, n, y, out) for b, out in zip(blocks, (r_x, part))])
                primal = (c, lower, upper, x, x_t, r_x, part, anchor_x, x_new)
                dual = (r_y, q, y, y_t, anchor_y, y_new)
                total = sum(_in_halves(pool, _x_half, [tuple(a[h] for a in primal) + (scale, mix) for h in columns]))
                dual_halves = [(b, n, m1, r_x) + tuple(a[b[0]] for a in dual) + (sigma, mix) for b in rows]
                total += sum(_in_halves(pool, _y_half, dual_halves))
            else:
                r_x.fill(0.0)
                csc_matvec(n, m, indptr, indices, data, y, r_x)
                _x_side(c, lower, upper, x, x_t, r_x, scale)
                r_y.fill(0.0)
                csr_matvec(m, n, indptr, indices, data, r_x, r_y)
                _y_side(r_y, q, y, y_t, head_t, sigma)
                if halpern:  # r_y = 2 y_T - y, and the mix over all of z
                    _multiply(y_t, _TWO, r_y)
                    _subtract(r_y, y, r_y)
                    _mix(r, prev, r, anchor, share, denominator)
                total = entry_sum(prev)
            # a non-finite entry makes the sum non-finite
            if not isfinite(total) and not np.all(np.isfinite(prev)):
                k_mat.matvec_calls += 1
                k_mat.rmatvec_calls += 1
                raise NonFiniteIterate(
                    f"iterate became non-finite at total iteration {state.total_count + steps + 1}"
                )
            # (pairwise swaps build no tuple)
            z, prev = prev, z
            x, x_new = x_new, x
            y, y_new = y_new, y
            if not halpern:
                _add(sums, z, sums)
                weight += 1.0
                x_t, y_t = x_new, y_new
                head_t, spare = spare, head_t
            steps += 1
    finally:
        if steps:
            if steps % 2:  # z and prev changed places an odd number of times
                buf.z, buf.prev = z, prev
                buf.z_parts, buf.prev_parts = buf.prev_parts, buf.z_parts
            state.x, state.y = x, y
            state.kx = None
            state.sum_weight = weight
            state.inner_count += steps
            state.total_count += steps
            state.trial_count += steps
            k_mat.matvec_calls += steps
            k_mat.rmatvec_calls += steps
    return state


# T's arithmetic, once for both layouts: each function runs on whole
# vectors with one row block and on a half of them with two.  Outputs are
# positional and scalars float64 0-d arrays (module docstring).


def _x_side(c, l, u, x, x_t, r, scale):
    """With K'y in r: x_T = proj(x - scale (c - K'y)) into x_t and the
    reflection r = 2 x_T - x."""
    _subtract(c, r, r)
    _multiply(r, scale, r)
    _subtract(x, r, r)
    _clip(r, l, u, x_t)
    _multiply(x_t, _TWO, r)
    _subtract(r, x, r)


def _y_side(kr, q, y, y_t, head, sigma):
    """With K r in kr: y_T = proj(y + sigma (q - K r)) into y_t, with kr as
    the spare; ``head`` is y_t's first m1 entries, or None when there are
    none."""
    _subtract(q, kr, kr)
    _multiply(kr, sigma, kr)
    _add(y, kr, y_t)
    if head is not None:
        _maximum(head, _ZERO, out=head)


def _mix(r, out, spare, anchor, share, denominator):
    """Halpern's mix of the reflection r and the anchor: share r + anchor /
    denominator into out, with spare (which may be r) as the spare."""
    _multiply(r, share, out)
    _divide(anchor, denominator, spare)
    _add(out, spare, out)


# (the process that made it, the step's worker thread), set as one value.
# Two threads that both find it unset may each make a worker; the one not
# kept is collected, and its thread exits then.
_pool = None


def _cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker():
    """The two-block step's worker thread, or None on a single CPU.  Made on
    first use, and again in a forked child, which has no copy of the
    thread.  The worker ignores overflow and invalid results, as the kernel
    does."""
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


def _x_half(c, l, u, x, x_t, r, part, anchor, out, scale, mix):
    """Over a column range, with the blocks' parts of K'y in r and part:
    their sum into r, ``_x_side``, and under Halpern (``mix``, its share
    and denominator) the x mix into out, with part as the spare.  Returns
    the sum of out's entries, the new iterate's."""
    _add(r, part, r)
    _x_side(c, l, u, x, x_t, r, scale)
    if mix is not None:
        _mix(r, out, part, anchor, *mix)
    return _add.reduce(out)


def _y_half(block, n, m1, r, kr, q, y, y_t, anchor, out, sigma, mix):
    """Over a row block, the vectors from kr on cut to its rows: kr = K r,
    ``_y_side``, and under Halpern the reflection 2 y_T - y into kr and the
    y mix into out, with kr as the spare.  Returns the sum of out's
    entries, the new iterate's."""
    rows, indptr, indices, data = block
    kr.fill(0.0)
    csr_matvec(rows.stop - rows.start, n, indptr, indices, data, r, kr)
    _y_side(kr, q, y, y_t, y_t[: m1 - rows.start] if m1 > rows.start else None, sigma)
    if mix is not None:
        _multiply(y_t, _TWO, kr)
        _subtract(kr, y, kr)
        _mix(kr, out, kr, anchor, *mix)
    return _add.reduce(out)


def fixed_point_residual(state, step):
    """||T(z) - z|| in the weighted norm sqrt(w ||dx||^2 + ||dy||^2 / w),
    for the z and T(z) that the last Halpern step left in the buffers;
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
