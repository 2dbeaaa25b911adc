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
through the same side functions and ``sparse.py``'s runner of K's row
blocks.  scipy's product kernels and numpy's clip ufunc come from
``sparse.py`` too, the one module that imports either library's private
modules.  The adaptive rule in ``stepsize.py``
takes one step per call, from ``step_gradient``, ``trial_step`` (the trial
point, its movement and interaction) and ``accept_step`` (the commit,
weighted by the step size); its interaction needs K x+ - K x, so it alone
caches K x.

An ``IterateState`` holds the iterate and every vector the kernels work
in: z, the iterate a step replaced, the epoch's anchor, its running sum and
the restart candidate are stacked vectors of length n + m whose first n
entries are the x part and the rest the y part, so that Halpern's mix, the
running sum's update, the fixed-point residual's difference and the
finiteness test are one pass each over all of z.  Each kernel writes its
new point into ``prev``, which then changes places with ``z``.

On a small problem a step costs numpy's dispatch more than arithmetic, so
``_steps`` calls it the cheap way: every ufunc takes its output
positionally (``np.maximum`` keeps ``out=``, as numpy 2.4 deprecates a
positional output there), and every scalar operand is a float64 0-d array,
which a ufunc takes without converting a Python number: 2 and 0 are module
constants, s / w and s w are a StepState's ``operands``, and Halpern's
(k + 1) / (k + 2) and k + 2 are written into arrays the state keeps for
them.  The finiteness test sums the new iterate's entries by a BLAS dot
with a ones vector (``IterateState.entry_sum``: up to DOT_BLAS_MAX
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
import time
from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np

from .exceptions import NonFiniteIterate, NonPositiveInput, NonPositiveQuadraticForm
from .sparse import DOT_BLAS_MAX, ROW_WEIGHT, _clip, _in_halves, _transpose_product, csc_matvec, csr_matvec, dot

# 2 and 0 as read-only float64 0-d arrays, which a ufunc takes without
# converting a Python float (module docstring)
_TWO, _ZERO = np.array(2.0), np.array(0.0)
_TWO.flags.writeable = _ZERO.flags.writeable = False
_add, _subtract, _multiply, _divide, _maximum = np.add, np.subtract, np.multiply, np.divide, np.maximum


@dataclass(frozen=True)
class StepState:
    """Step size s and primal weight w: primal step s / w, dual step
    ``sigma`` = s w.  ``operands`` holds s / w and s w as float64 0-d
    arrays for the constant steps (module docstring), made with the state,
    so ``dataclasses.replace`` makes new ones."""

    step_size: float
    primal_weight: float
    initial_step_size: float = None
    operands: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.step_size > 0 and math.isfinite(self.step_size)):
            raise NonPositiveInput(f"step_size must be positive, got {self.step_size}")
        if not (self.primal_weight > 0 and math.isfinite(self.primal_weight)):
            raise NonPositiveInput(f"primal_weight must be positive, got {self.primal_weight}")
        if self.initial_step_size is None:
            object.__setattr__(self, "initial_step_size", self.step_size)
        object.__setattr__(self, "operands", (np.array(self.step_size / self.primal_weight), np.array(self.sigma)))

    @property
    def sigma(self):
        return self.step_size * self.primal_weight


@dataclass
class IterateState:
    """The iterate z = (x, y) of a solve, its epoch's bookkeeping and the
    step kernels' work vectors, built from the first iterate (x, y).

    ``sum_weight`` and the running sums ``sum_x``/``sum_y`` form the epoch's
    weighted average, and ``inner_count``/``total_count`` count its steps
    and all steps; all start at zero.  With ``running_sum=False`` the
    state holds no running sum (``sums``, ``sum_x`` and ``sum_y`` are
    None) and takes only Halpern steps, which never add to it; a PDHG or
    adaptive step on it raises NonPositiveInput.  ``kx`` caches K @ x for
    the adaptive rule and must be dropped whenever x changes by any route
    other than that rule's step (restart, rescale): after an adaptive step
    it is a vector of its own, and after a fixed or Halpern step or a
    restart None.
    ``trial_count`` counts the finite trial points computed, accepted or
    not.

    Six stacked vectors of length n + m, each with its x part (the first n
    entries) and y part (the rest) as views made once:

        z       the iterate z_{k+1}: x and y are its parts
        prev    z_k, the iterate the step replaced (``prev_parts``); the
                next step writes its new point here (T(z), the adaptive
                rule's trial point, Halpern's mix), then ``z`` and ``prev``
                change places
        t       the restart candidate (``t_parts``).  A Halpern step
                leaves T(z_k) here and ``solve``'s KKT test the epoch
                average; a PDHG step leaves it alone; the adaptive rule
                keeps the gradient c - K'y in its x part and K x+ - K x in
                its y part
        r       the reflection (``r_parts``): its x part 2 x_T - x under
                every constant step, its y part 2 y_T - y under Halpern;
                the adaptive rule's displacement.  After the step, scratch
                (``fixed_point_residual`` and ``solve`` write there)
        anchor  the epoch's start z_0 (``anchor_parts``), copied from z at
                the epoch's first step
        sums    the epoch's running sum of weighted iterates, zeroed at a
                restart: a PDHG step adds z_{k+1} in one pass, the adaptive
                rule s z_{k+1}; ``sum_x``/``sum_y`` are its parts.  Made
                only for the steps that add to it: ``solve`` builds a
                Halpern state without it

    t, prev and anchor start as copies of z, so that a check before the
    first step reads the first iterate.  As the steps swap z and prev, the
    arrays that x and y name after one step hold the next step's new point
    after two, and ``apply_restart`` writes into z: hold a copy, not a
    reference, of an iterate (or of ``kx``) that must outlive the next step
    or restart.

    ``part``, length n: the second row block's part of K'y when K's rows
    come in two blocks, then the x mix's spare (``_steps``, under both
    constant steps).  ``share`` and ``denominator``: Halpern's (k + 1) /
    (k + 2) and k + 2 as 0-d arrays, written in place at every step.
    ``entry_sum``: the finiteness test's sum of a stacked vector's entries,
    up to DOT_BLAS_MAX entries a BLAS dot with n + m ones, where it costs
    about half of ``np.add.reduce``; the reduce above, which keeps off
    BLAS's threads (``sparse.dot``) and beats einsum with a ones vector.
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
    _: KW_ONLY
    running_sum: InitVar[bool] = True

    def __post_init__(self, running_sum):
        x, y = (np.asarray(v, dtype=np.float64) for v in (self.x, self.y))
        n, size = x.shape[0], x.shape[0] + y.shape[0]
        self.z = np.concatenate((x, y))
        self.t, self.prev, self.anchor = self.z.copy(), self.z.copy(), self.z.copy()
        self.r, self.part = np.empty(size), np.empty(n)
        (self.x, self.y), self.prev_parts, self.t_parts, self.r_parts, self.anchor_parts = (
            (v[:n], v[n:]) for v in (self.z, self.prev, self.t, self.r, self.anchor)
        )
        self.sums = self.sum_x = self.sum_y = None
        if running_sum:
            self.sums = np.zeros(size)
            self.sum_x, self.sum_y = self.sums[:n], self.sums[n:]
        self.share, self.denominator = np.empty(()), np.empty(())
        self.entry_sum = np.ones(size).dot if size <= DOT_BLAS_MAX else np.add.reduce

    @classmethod
    def initial(cls, saddle, *, running_sum=True):
        """Start at the origin projected into the box, dual at zero."""
        x0 = np.clip(np.zeros(saddle.num_primal), saddle.l, saddle.u)
        return cls(x=x0, y=np.zeros(saddle.num_dual), running_sum=running_sum)


def project_primal(x, l, u):
    return np.clip(x, l, u)


def project_dual(y, m1):
    out = y.copy()
    if m1:
        np.maximum(out[:m1], 0.0, out=out[:m1])
    return out


def step_gradient(state, saddle):
    """Fill the K x cache if it is empty and c - K'y into the x part of
    ``t``; at an epoch's first step z is copied into ``anchor`` first."""
    _needs_running_sum(state)
    if state.inner_count == 0:
        np.copyto(state.anchor, state.z)
    k = saddle.K
    if state.kx is None:
        state.kx = k.matvec(state.x)
    np.subtract(saddle.c, k.rmatvec(state.y), out=state.t_parts[0])


def trial_step(state, saddle, s, w):
    """Compute the adaptive rule's trial point at step s and weight w into
    ``prev``.

    Needs ``step_gradient`` first.  Returns (K x+, movement, interaction)
    with movement = w ||dx||^2 + ||dy||^2 / w and interaction =
    2 |dy'(K x+ - K x)|, or None when the trial point is not finite.  A
    non-finite point always makes the movement or the interaction
    non-finite, so the full scan runs only when one of them is not finite.
    The iterate z is not touched, so a rejected trial leaves the state as
    it was apart from ``trial_count``.  Run under
    np.errstate(over="ignore", invalid="ignore").
    """
    x, y = state.x, state.y
    x_new, y_new = state.prev_parts
    (grad, dkx), (dx, dy) = state.t_parts, state.r_parts
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


def accept_step(state, kx_new, avg_weight):
    """Install the trial point: ``z`` and ``prev`` change places, ``kx_new``
    is cached, the step counted and the point added to the running average
    with weight ``avg_weight``."""
    state.z, state.prev = state.prev, state.z
    (state.x, state.y), state.prev_parts = state.prev_parts, (state.x, state.y)
    state.kx = kx_new
    state.inner_count += 1
    state.total_count += 1
    np.multiply(state.z, avg_weight, out=state.r)
    np.add(state.sums, state.r, out=state.sums)
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
    with weight 1; a Halpern step leaves T(z_k) in the state's ``t``
    instead.  The new iterate goes into the state's ``prev`` (the
    ``IterateState`` docstring), which then changes places with ``z``:
    afterwards ``prev_parts`` hold z_k and x and y are the parts of ``z``.
    The K x cache is None.  Before each step after the first the stretch
    ends once ``time.perf_counter() >= deadline``, ``solve``'s test between
    stretches.  With K's rows in two blocks the steps run on two threads
    (``_steps``).  If step j's point is not finite, NonFiniteIterate is
    raised and the state holds step j - 1's iterate, counts, sums and
    cache.  Pass ``errstate=False`` only under the kernel's np.errstate
    (module docstring).
    """
    if errstate:
        with np.errstate(over="ignore", invalid="ignore"):
            return pdhg_step(state, saddle, step, halpern=halpern, errstate=False, count=count, deadline=deadline)
    if count < 1:
        raise NonPositiveInput(f"count must be at least 1, got {count}")
    if not halpern:
        _needs_running_sum(state)
    return _steps(state, saddle, step, count, halpern, deadline)


def _needs_running_sum(state):
    """Refuse a step that adds to the running sum on a state without one."""
    if state.sums is None:
        raise NonPositiveInput("this step adds to the running sum, and the state was built without one")


def _steps(state, saddle, step, count, halpern, deadline):
    """Up to ``count`` steps of ``pdhg_step``; returns the state.  A step
    forms T(z) as ``pdhg_step``'s docstring orders it, by ``_x_side`` and
    ``_y_side``.  PDHG writes T(z) into ``prev`` and adds it to the running
    sum in one pass; Halpern writes it into ``t`` and the mix (``_mix``)
    into ``prev``.  The new iterate in ``prev`` is tested, then changes
    places with ``z``; after a step the K x cache is None.

    With one row block (K's ``row_blocks``) the step runs inline on the
    whole vectors.  With two it runs in three phases: the blocks' parts of
    K'y; the x side over two column halves (``_x_half``); K r and the y
    side over the row blocks of ``row_blocks(ROW_WEIGHT)`` (``_y_half``).
    Each phase is one ``sparse._in_halves`` call: the products' worker
    thread runs its second half while the caller runs the first, or, with
    one CPU, the caller runs both in turn: the same arithmetic, the same
    bits.  Each half returns the sum of its part of the new iterate for the
    finiteness test.  The worker runs only this module's phase functions,
    scipy kernels and numpy ufuncs on disjoint slices, never a function a
    tracer could wrap.  The one-block step calls scipy's kernels itself:
    the runner's call would add about 0.4 us to a step of a few.
    """
    k_mat = saddle.K
    m, n = k_mat.shape
    blocks = k_mat.row_blocks()
    if state.inner_count == 0:  # the epoch's first step anchors it
        np.copyto(state.anchor, state.z)
    c, q, lower, upper, m1 = saddle.c, saddle.q, saddle.l, saddle.u, saddle.m1
    scale, sigma = step.operands
    entry_sum, isfinite = state.entry_sum, math.isfinite
    r, (r_x, r_y), part = state.r, state.r_parts, state.part
    sums, weight, inner = state.sums, state.sum_weight, state.inner_count
    anchor, share, denominator = state.anchor, state.share, state.denominator
    timed = deadline < math.inf
    clock = time.perf_counter
    # the iterate and the vector of the one before it, where the new one is
    # formed; they swap at every step
    z, prev, x, y, (x_new, y_new) = state.z, state.prev, state.x, state.y, state.prev_parts
    if halpern:
        x_t, y_t = state.t_parts
        head_t, spare = (y_t[:m1] if m1 else None), None
    else:  # T(z) is the new iterate; spare is the first m1 duals of z
        x_t, y_t, head_t, spare = (x_new, y_new) + ((y_new[:m1], y[:m1]) if m1 else (None, None))
    split = len(blocks) > 1
    if split:
        mix = (share, denominator) if halpern else None
        columns, rows = (slice(0, n // 2), slice(n // 2, n)), k_mat.row_blocks(ROW_WEIGHT)
        anchor_x, anchor_y = state.anchor_parts
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
                _in_halves(_transpose_product, [(b, n, y, out) for b, out in zip(blocks, (r_x, part))])
                primal = (c, lower, upper, x, x_t, r_x, part, anchor_x, x_new)
                dual = (r_y, q, y, y_t, anchor_y, y_new)
                total = sum(_in_halves(_x_half, [tuple(a[h] for a in primal) + (scale, mix) for h in columns]))
                dual_halves = [(b, n, m1, r_x) + tuple(a[b[0]] for a in dual) + (sigma, mix) for b in rows]
                total += sum(_in_halves(_y_half, dual_halves))
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
            state.z, state.prev, state.x, state.y, state.prev_parts = z, prev, x, y, (x_new, y_new)
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
    for the z and T(z) that the last Halpern step left in the state's
    ``prev`` and ``t``; T(z) - z is formed in one pass, into ``r``."""
    np.subtract(state.t, state.prev, state.r)
    dx, dy = state.r_parts
    w = step.primal_weight
    return math.sqrt(w * dot(dx, dx) + dot(dy, dy) / w)


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
