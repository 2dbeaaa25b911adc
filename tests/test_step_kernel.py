"""The PDHG step kernel against a plain reference, bit for bit.

The references below restate the update of ``pdhg.py``, its reflected
Halpern iteration and the adaptive rule of ``stepsize.py`` from their
docstrings in straightforward numpy: fresh arrays for every intermediate,
``csr @ v`` products, explicit loops, and the solver's inner product.  They
keep the kernel's order of operations (for instance K (2 x+ - x) for the
fixed and Halpern steps and 2 K x+ - K x for the adaptive rule), so any
difference, down to the last bit, is a kernel fault.
"""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest

import pdhg_lp as pl
from pdhg_lp import IterateState, StepPolicy, StepState, adaptive_step, apply_restart, pdhg_step, stepsize
from pdhg_lp.pdhg import fixed_point_residual
from pdhg_lp.sparse import dot

from conftest import planted_unbounded_lp, random_feasible_lp, random_small_saddle


def transpose_product(saddle):
    """y -> K'y summed as the constant steps sum it: over all rows in order,
    or with K's rows in two blocks (``SparseMatrix.row_blocks``) each
    block's part, then the first plus the second."""
    k = saddle.K.tocsr()
    blocks = saddle.K.row_blocks()
    if len(blocks) == 1:
        kt = k.T.tocsr()
        return lambda y: kt @ y
    a = blocks[0][0].stop
    return lambda y: k[:a].T @ y[:a] + k[a:].T @ y[a:]


class Reference:
    """Plain PDHG on one saddle problem, with its own running sums."""

    def __init__(self, saddle, x, y):
        self.k = saddle.K.tocsr()
        self.kt = self.k.T.tocsr()
        self.kty = transpose_product(saddle)
        self.saddle = saddle
        self.x = np.array(x, dtype=np.float64)
        self.y = np.array(y, dtype=np.float64)
        self.sum_x = np.zeros_like(self.x)
        self.sum_y = np.zeros_like(self.y)
        self.sum_weight = 0.0
        self.count = 0
        self.kx = None  # K x as the adaptive rule caches it, None after a fixed step

    def point(self, s, w):
        """The adaptive rule's trial point: x+ = proj(x - (s/w)(c - K'y)),
        y+ = proj(y + (s w)(q - (2 K x+ - K x)))."""
        p = self.saddle
        kx = self.k @ self.x
        x_new = np.clip(self.x - (s / w) * (p.c - self.kt @ self.y), p.l, p.u)
        kx_new = self.k @ x_new
        y_new = self.y + (s * w) * (p.q - (2.0 * kx_new - kx))
        y_new[: p.m1] = np.maximum(y_new[: p.m1], 0.0)
        return x_new, y_new, kx_new, kx

    def commit(self, x_new, y_new, weight):
        self.x, self.y = x_new, y_new
        self.sum_x = self.sum_x + weight * x_new
        self.sum_y = self.sum_y + weight * y_new
        self.sum_weight += weight
        self.count += 1

    def fixed(self, s, w):
        """x+ as in ``point`` (K'y by ``transpose_product``), y+ = proj(y +
        (s w)(q - K (2 x+ - x)))."""
        p = self.saddle
        x_new = np.clip(self.x - (s / w) * (p.c - self.kty(self.y)), p.l, p.u)
        y_new = self.y + (s * w) * (p.q - self.k @ (2.0 * x_new - self.x))
        y_new[: p.m1] = np.maximum(y_new[: p.m1], 0.0)
        self.commit(x_new, y_new, 1.0)
        self.kx = None

    def adaptive(self, s, w, s0):
        """One iteration of the adaptive rule; returns (next s, accepted)."""
        t = self.count + 1
        shrink = 1.0 - (t + 1.0) ** (-stepsize.REDUCTION_EXPONENT)
        grow = 1.0 + (t + 1.0) ** (-stepsize.GROWTH_EXPONENT)
        for _ in range(stepsize.MAX_RETRIES):
            x_new, y_new, kx_new, kx = self.point(s, w)
            dx = x_new - self.x
            dy = y_new - self.y
            movement = w * dot(dx, dx) + dot(dy, dy) / w
            interaction = 2.0 * abs(dot(dy, kx_new - kx))
            s_hat = math.inf if interaction == 0.0 or movement == 0.0 else movement / interaction
            s_next = grow * s if math.isinf(s_hat) else min(shrink * s_hat, grow * s)
            if s <= s_hat:
                self.commit(x_new, y_new, s)
                self.kx = kx_new
                return s_next, True
            s = s_next
            assert s >= stepsize.UNDERFLOW_RATIO * s0
        return s, False


def halpern_reference(saddle, x, y, s, w, steps, anchor=None, first=0):
    """Reflected Halpern PDHG from (x, y) over one epoch, as the docstring
    of ``pdhg.pdhg_step`` states it; yields (T x, T y, x, y) after each
    step.  The product is taken of the reflection, K (2 T x - x), and K'y
    by ``transpose_product``.  The epoch is anchored at (x, y) unless
    ``anchor`` names its start, and ``first`` is its number of steps taken
    before (x, y)."""
    k_csr = saddle.K.tocsr()
    kty = transpose_product(saddle)
    x0, y0 = anchor or (x, y)
    for k in range(first, first + steps):
        tx = np.clip(x - (s / w) * (saddle.c - kty(y)), saddle.l, saddle.u)
        ty = y + (s * w) * (saddle.q - k_csr @ (2.0 * tx - x))
        ty[: saddle.m1] = np.maximum(ty[: saddle.m1], 0.0)
        share = (k + 1) / (k + 2)
        x = share * (2.0 * tx - x) + x0 / (k + 2)
        y = share * (2.0 * ty - y) + y0 / (k + 2)
        yield tx, ty, x, y


def assert_same(state, ref):
    for name in ("x", "y", "sum_x", "sum_y"):
        a, b = getattr(state, name), getattr(ref, name)
        assert a.tobytes() == b.tobytes(), name
    if ref.kx is None:
        assert state.kx is None
    else:
        assert state.kx.tobytes() == ref.kx.tobytes()
    assert state.sum_weight == ref.sum_weight
    assert state.total_count == state.inner_count == ref.count


def scaled_saddle(seed):
    saddle = pl.to_saddle(random_feasible_lp(seed))
    return pl.apply_scaling(saddle, pl.combined_rescale(saddle.K))


def toy_and_criterion_8_saddles():
    """The toy, four criterion-8 LPs (m1 = m), one with equality rows too
    (0 < m1 < m) and one with equality rows only (m1 = 0), all scaled."""
    yield pl.to_saddle(pl.generate_bilinear_toy())
    for seed in range(4):
        yield scaled_saddle(seed)
    for problem in (random_feasible_lp(4, m_eq=5), random_feasible_lp(5, m_ineq=0, m_eq=5)):
        saddle = pl.to_saddle(problem)
        yield pl.apply_scaling(saddle, pl.combined_rescale(saddle.K, m1=saddle.m1))


SADDLES = len(list(toy_and_criterion_8_saddles()))


class TestAgainstReference:
    @pytest.mark.parametrize("index", range(SADDLES))
    def test_fixed_steps(self, index):
        saddle = list(toy_and_criterion_8_saddles())[index]
        norm_k = pl.spectral_norm_estimate(saddle.K).value
        step = StepState(0.9 / norm_k, 1.7)
        state = IterateState.initial(saddle)
        ref = Reference(saddle, state.x, state.y)
        for _ in range(60):
            pdhg_step(state, saddle, step)
            ref.fixed(step.step_size, step.primal_weight)
            assert_same(state, ref)
        assert state.trial_count == 60

    @pytest.mark.parametrize("index", range(SADDLES))
    def test_adaptive_steps(self, index):
        saddle = list(toy_and_criterion_8_saddles())[index]
        step = pl.initialize_step_state(saddle, None, StepPolicy(mode="adaptive"), pl.WeightPolicy())
        state = IterateState.initial(saddle)
        ref = Reference(saddle, state.x, state.y)
        s = step.step_size
        trials_before = 0
        for _ in range(60):
            state, step, accepted = adaptive_step(state, saddle, step)
            s, ref_accepted = ref.adaptive(s, step.primal_weight, step.initial_step_size)
            assert accepted and ref_accepted
            assert step.step_size == s
            assert_same(state, ref)
            assert state.trial_count > trials_before
            trials_before = state.trial_count

    def test_random_small_saddles_both_modes(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            saddle, x, y = random_small_saddle(rng)
            step = StepState(0.5 / max(saddle.K.abs_max(), 1e-3), float(rng.uniform(0.3, 3.0)))
            fixed = IterateState(x=x, y=y)
            ref = Reference(saddle, x, y)
            for _ in range(10):
                pdhg_step(fixed, saddle, step)
                ref.fixed(step.step_size, step.primal_weight)
            assert_same(fixed, ref)

            state = IterateState(x=x, y=y)
            ref = Reference(saddle, x, y)
            adaptive = step
            s = step.step_size
            for _ in range(10):
                state, adaptive, accepted = adaptive_step(state, saddle, adaptive)
                s, _ = ref.adaptive(s, step.primal_weight, step.initial_step_size)
                assert adaptive.step_size == s
            assert_same(state, ref)

    def test_caller_arrays_are_not_recycled(self, toy_saddle):
        # the kernel reuses replaced iterates as buffers, so the state copies
        # its inputs
        x, y = np.array([2.0]), np.array([2.0])
        state = IterateState(x=x, y=y)
        for _ in range(3):
            pdhg_step(state, toy_saddle, StepState(0.2, 1.0))
        np.testing.assert_array_equal(x, [2.0])
        np.testing.assert_array_equal(y, [2.0])


def stretch_inputs():
    """The toy (m1 = 0) and random small saddles with m1 > 0, each with a
    start point and a step."""
    toy = pl.to_saddle(pl.generate_bilinear_toy())
    yield toy, np.array([2.0]), np.array([2.0]), StepState(0.2, 1.0)
    rng = np.random.default_rng(13)
    found = 0
    while found < 4:
        saddle, x, y = random_small_saddle(rng)
        if saddle.m1:
            found += 1
            yield saddle, x, y, StepState(0.5 / max(saddle.K.abs_max(), 1e-3), float(rng.uniform(0.3, 3.0)))


STRETCH_INPUTS = list(stretch_inputs())


class TestStretchAgainstSingleSteps:
    """``pdhg_step(count=k)`` is k calls of ``pdhg_step``, bit for bit, for
    both steps: the iterate, the running sums, Halpern's T(z), the counts
    and the matvec counters."""

    @staticmethod
    def snapshot(state, saddle, base):
        return (
            state.x.tobytes(), state.y.tobytes(), state.buffers.t.tobytes(),
            state.sum_x.tobytes(), state.sum_y.tobytes(), state.sum_weight,
            state.inner_count, state.total_count, state.trial_count,
            saddle.K.matvec_calls - base[0], saddle.K.rmatvec_calls - base[1],
        )

    def run(self, saddle, x, y, step, stretches, single, halpern=False):
        """Snapshots after each stretch of ``stretches``, taken either in
        one call or one step per call; None restarts as ``solve`` does,
        under Halpern to T(z) and otherwise to the average."""
        base = (saddle.K.matvec_calls, saddle.K.rmatvec_calls)
        state = IterateState(x=x, y=y)
        shots = []
        for count in stretches:
            if count is None:
                if halpern:
                    apply_restart(state, (state.buffers.x, state.buffers.y))
                else:
                    apply_restart(state, (state.sum_x / state.sum_weight, state.sum_y / state.sum_weight))
                continue
            if single:
                for _ in range(count):
                    pdhg_step(state, saddle, step, halpern=halpern)
            else:
                pdhg_step(state, saddle, step, halpern=halpern, count=count)
            shots.append(self.snapshot(state, saddle, base))
        return shots

    @pytest.mark.parametrize("halpern", (False, True))
    @pytest.mark.parametrize("index", range(len(STRETCH_INPUTS)))
    def test_stretches_match_single_steps(self, index, halpern):
        saddle, x, y, step = STRETCH_INPUTS[index]
        stretches = (1, 7, 12, None, 9, 3)
        shots = self.run(saddle, x, y, step, stretches, single=False, halpern=halpern)
        assert shots == self.run(saddle, x, y, step, stretches, single=True, halpern=halpern)
        # one product with K and one with K' per step, none for a restart
        assert shots[-1][-2:] == (32, 32)

    @pytest.mark.parametrize("blocks", (1, 2))
    def test_non_finite_mid_stretch_keeps_the_step_before(self, blocks, monkeypatch):
        # a unit step on the unscaled planted unbounded LP overflows at step
        # 67 with one row block; two from SPLIT_MIN_NNZ = 1 on
        if blocks == 2:
            monkeypatch.setattr(pl.sparse, "SPLIT_MIN_NNZ", 1)
        saddle = pl.to_saddle(planted_unbounded_lp(0))
        assert len(saddle.K.row_blocks()) == blocks
        step = StepState(1.0, 1.0)
        start = IterateState.initial(saddle)
        single = IterateState(x=start.x, y=start.y)
        base = (saddle.K.matvec_calls, saddle.K.rmatvec_calls)
        with pytest.raises(pl.NonFiniteIterate) as single_err:
            for _ in range(1000):
                pdhg_step(single, saddle, step)
        want = self.snapshot(single, saddle, base)
        # the steps before the failed one, which made its two products too
        done = want[7]
        assert done > 0 and want[9:] == (done + 1, done + 1)
        if blocks == 1:
            assert done == 66
        stretch = IterateState(x=start.x, y=start.y)
        base = (saddle.K.matvec_calls, saddle.K.rmatvec_calls)
        with pytest.raises(pl.NonFiniteIterate) as stretch_err:
            pdhg_step(stretch, saddle, step, count=done + 30)
        assert str(stretch_err.value) == str(single_err.value)
        assert str(single_err.value) == f"iterate became non-finite at total iteration {done + 1}"
        assert self.snapshot(stretch, saddle, base) == want

    @pytest.mark.parametrize("halpern", (False, True))
    @pytest.mark.parametrize("blocks", (1, 2))
    def test_time_limit_ends_the_stretch_after_its_first_step(self, blocks, halpern, monkeypatch):
        # a deadline already past when the stretch starts
        if blocks == 2:
            monkeypatch.setattr(pl.sparse, "SPLIT_MIN_NNZ", 1)
        saddle = scaled_saddle(0)
        assert len(saddle.K.row_blocks()) == blocks
        state = IterateState.initial(saddle)
        step = StepState(0.1, 1.0)
        pdhg_step(state, saddle, step, halpern=halpern, count=50, deadline=time.perf_counter())
        assert (state.inner_count, state.total_count, state.trial_count) == (1, 1, 1)
        pdhg_step(state, saddle, step, halpern=halpern, count=50)
        assert state.total_count == 51

    def test_count_must_be_positive(self, toy_saddle):
        with pytest.raises(pl.NonPositiveInput, match="count"):
            pdhg_step(IterateState(x=[2.0], y=[2.0]), toy_saddle, StepState(0.2, 1.0), count=0)


class TestTwoRowBlocks:
    """From SPLIT_MIN_NNZ nonzeros on K's rows come in two blocks, and both
    constant steps run on two threads: K'y is then each block's part and
    their sum, as ``transpose_product`` forms it, bit for bit."""

    @pytest.mark.parametrize("index", range(1, SADDLES))
    def test_fixed_and_halpern_steps_match_the_block_reference(self, index, monkeypatch):
        monkeypatch.setattr(pl.sparse, "SPLIT_MIN_NNZ", 1)
        saddle = list(toy_and_criterion_8_saddles())[index]
        assert len(saddle.K.row_blocks()) == 2
        norm_k = pl.spectral_norm_estimate(saddle.K).value
        base = (saddle.K.matvec_calls, saddle.K.rmatvec_calls)
        step = StepState(0.9 / norm_k, 1.7)
        state = IterateState.initial(saddle)
        ref = Reference(saddle, state.x, state.y)
        pdhg_step(state, saddle, step, count=30)
        for _ in range(30):
            ref.fixed(step.step_size, step.primal_weight)
        assert_same(state, ref)
        step = StepState(0.998 / norm_k, 1.7)
        state = IterateState.initial(saddle)
        start = (state.x.copy(), state.y.copy())
        for k, (tx, ty, x, y) in enumerate(halpern_reference(saddle, *start, step.step_size, 1.7, 30)):
            pdhg_step(state, saddle, step, halpern=True)
            assert state.buffers.x.tobytes() == tx.tobytes() and state.buffers.y.tobytes() == ty.tobytes(), k
            assert state.x.tobytes() == x.tobytes() and state.y.tobytes() == y.tobytes(), k
        assert state.total_count == state.trial_count == 30
        # one product with K and one with K' per step, whatever the blocks
        assert (saddle.K.matvec_calls - base[0], saddle.K.rmatvec_calls - base[1]) == (60, 60)


class TestHalpernAgainstReference:
    @pytest.mark.parametrize("index", range(SADDLES))
    def test_epochs_match_reference(self, index):
        # two epochs of 40 steps, the second anchored at the first's last
        # T(z), as solve restarts
        saddle = list(toy_and_criterion_8_saddles())[index]
        norm_k = pl.spectral_norm_estimate(saddle.K).value
        step = StepState(0.998 / norm_k, 1.7)
        state = IterateState.initial(saddle)
        x, y = state.x.copy(), state.y.copy()
        for epoch in range(2):
            ref = halpern_reference(saddle, x, y, step.step_size, step.primal_weight, 40)
            for k, (tx, ty, rx, ry) in enumerate(ref):
                pdhg_step(state, saddle, step, halpern=True)
                assert state.buffers.x.tobytes() == tx.tobytes()
                assert state.buffers.y.tobytes() == ty.tobytes()
                for got, want in ((state.x, rx), (state.y, ry)):
                    assert got.tobytes() == want.tobytes(), (epoch, k)
                assert state.inner_count == k + 1
            x, y = tx, ty
            apply_restart(state, (state.buffers.x, state.buffers.y))
        assert state.total_count == state.trial_count == 80
        assert state.kx is None

    def test_restart_stays_in_the_stacked_iterate(self):
        # a restart to T(z) copies it into the state's own x and y, which
        # stay the parts of buffers.z, and zeroes the sums in place; the
        # next step anchors the epoch there
        saddle = scaled_saddle(2)
        step = StepState(0.998 / pl.spectral_norm_estimate(saddle.K).value, 1.3)
        state = IterateState.initial(saddle)
        for _ in range(7):
            pdhg_step(state, saddle, step, halpern=True)
        buf = state.buffers
        sums = (state.sum_x, state.sum_y)
        t = buf.t.copy()
        apply_restart(state, (buf.x, buf.y))
        assert state.x is buf.z_parts[0] and state.y is buf.z_parts[1]
        assert state.sum_x is sums[0] and state.sum_y is sums[1]
        assert not (state.sum_x.any() or state.sum_y.any())
        assert buf.z.tobytes() == t.tobytes()
        assert (state.inner_count, state.total_count) == (0, 7)
        pdhg_step(state, saddle, step, halpern=True)
        assert buf.anchor.tobytes() == t.tobytes()
        assert state.x is buf.z_parts[0] and state.y is buf.z_parts[1]

    def test_operator_is_the_pdhg_point(self):
        # T(z) is the point pdhg_step moves to from the same z, bit for bit
        rng = np.random.default_rng(21)
        for seed in range(4):
            saddle = scaled_saddle(seed)
            step = StepState(0.998 / pl.spectral_norm_estimate(saddle.K).value, float(rng.uniform(0.3, 3.0)))
            state = IterateState.initial(saddle)
            for _ in range(int(rng.integers(1, 30))):
                pdhg_step(state, saddle, step, halpern=True)
            plain = IterateState(x=state.x, y=state.y)
            z = (state.x.copy(), state.y.copy())
            pdhg_step(state, saddle, step, halpern=True)
            pdhg_step(plain, saddle, step)
            assert state.buffers.x.tobytes() == plain.x.tobytes()
            assert state.buffers.y.tobytes() == plain.y.tobytes()
            # and the buffers hold z too, stacked in ``prev`` beside T(z)
            # stacked in ``t``, where the residual and the checks read it;
            # the new iterate is the parts of ``z``
            buf = state.buffers
            for part, want in zip(buf.prev_parts, z):
                assert part.tobytes() == want.tobytes()
            assert buf.prev.tobytes() == np.concatenate(z).tobytes()
            assert buf.t.tobytes() == np.concatenate((buf.x, buf.y)).tobytes()
            assert state.x is buf.z_parts[0] and state.y is buf.z_parts[1]
            assert np.shares_memory(state.y, buf.z)
            w = step.primal_weight
            dx, dy = state.buffers.x - z[0], state.buffers.y - z[1]
            assert fixed_point_residual(state, step) == math.sqrt(w * dot(dx, dx) + dot(dy, dy) / w)

    def test_kinds_share_one_layout(self):
        # the kinds share one set of buffers: a PDHG step in mid-epoch moves
        # z, and the next Halpern step mixes from there toward the same
        # anchor, with the epoch's step count
        saddle = scaled_saddle(2)
        step = StepState(0.9 / pl.spectral_norm_estimate(saddle.K).value, 1.7)
        s, w = step.step_size, step.primal_weight
        state = IterateState.initial(saddle)
        start = (state.x.copy(), state.y.copy())
        for tx, ty, x, y in halpern_reference(saddle, *start, s, w, 5):
            pdhg_step(state, saddle, step, halpern=True)
            assert state.x.tobytes() == x.tobytes() and state.y.tobytes() == y.tobytes()
        buf = state.buffers
        ref = Reference(saddle, x, y)
        pdhg_step(state, saddle, step)
        ref.fixed(s, w)
        assert state.buffers is buf
        assert state.x.tobytes() == ref.x.tobytes() and state.y.tobytes() == ref.y.tobytes()
        for part, want in zip(buf.prev_parts + buf.anchor_parts, (x, y) + start):
            assert part.tobytes() == want.tobytes()
        for tx, ty, x, y in halpern_reference(saddle, ref.x, ref.y, s, w, 5, anchor=start, first=6):
            pdhg_step(state, saddle, step, halpern=True)
            assert state.buffers.x.tobytes() == tx.tobytes() and state.buffers.y.tobytes() == ty.tobytes()
            assert state.x.tobytes() == x.tobytes() and state.y.tobytes() == y.tobytes()
        assert state.buffers is buf
        assert (state.inner_count, state.kx) == (11, None)

    def test_non_finite_operator_leaves_state_intact(self, toy_saddle):
        state = IterateState(x=[1.7e308], y=[1.7e308])
        state.inner_count, state.total_count = 3, 5
        x, y = state.x, state.y
        with pytest.raises(pl.NonFiniteIterate, match="total iteration 6"):
            pdhg_step(state, toy_saddle, StepState(0.5, 1.0), halpern=True)
        assert state.x is x and state.y is y
        np.testing.assert_array_equal(state.x, [1.7e308])
        np.testing.assert_array_equal(state.y, [1.7e308])
        assert (state.inner_count, state.total_count, state.trial_count) == (3, 5, 0)


class TestBuffersHoldPreviousIterate:
    """Every step kernel keeps z, the iterate it replaced and the epoch's
    anchor in one stacked ``StepBuffers``: after a step the state's x and y
    are the parts of ``z`` and ``prev`` holds the replaced iterate until the
    next step; solve reads it as z_{k-1} at a check."""

    @staticmethod
    def assert_buffers_hold(state, before, start=None):
        buf = state.buffers
        assert state.x is buf.z_parts[0] and state.y is buf.z_parts[1]
        for parts, want in ((buf.prev_parts, before), (buf.anchor_parts, start)):
            for part, value in zip(parts, want or ()):
                assert part.tobytes() == np.asarray(value, dtype=np.float64).tobytes()

    def test_construction_seeds_every_copy(self):
        # a check before the first step reads buffers.t as Halpern's T(z),
        # so t, prev and anchor start as copies of z, even in memory that
        # NaN-filled arrays of the same size held just before
        saddle = scaled_saddle(1)
        size = saddle.num_primal + saddle.num_dual
        rng = np.random.default_rng(5)
        builds = (
            lambda: IterateState.initial(saddle),
            lambda: IterateState(x=rng.standard_normal(saddle.num_primal), y=rng.standard_normal(saddle.num_dual)),
        )
        for build in builds:
            freed = [np.full(size, np.nan) for _ in range(8)]
            del freed
            state = build()
            buf = state.buffers
            for copy in (buf.t, buf.prev, buf.anchor):
                assert copy.tobytes() == buf.z.tobytes()
            assert state.x is buf.z_parts[0] and state.y is buf.z_parts[1]
            assert not buf.sums.any()

    def test_after_fixed_steps(self):
        saddle = scaled_saddle(0)
        state = IterateState.initial(saddle)
        start = (state.x.copy(), state.y.copy())
        for _ in range(5):
            before = (state.x.copy(), state.y.copy())
            pdhg_step(state, saddle, StepState(0.1, 1.0))
            self.assert_buffers_hold(state, before, start)

    def test_after_a_rejected_trial(self, toy_saddle):
        # rejected trials are written into prev before one is accepted, and
        # z keeps the iterate
        state = IterateState(x=[2.0], y=[2.0])
        state, _, accepted = adaptive_step(state, toy_saddle, StepState(100.0, 1.0))
        assert accepted and state.trial_count > 1
        self.assert_buffers_hold(state, ([2.0], [2.0]), ([2.0], [2.0]))

    def test_restart_leaves_them_alone(self):
        # a restart writes into z only; the next step anchors the epoch there
        saddle = scaled_saddle(1)
        state = IterateState.initial(saddle)
        pdhg_step(state, saddle, StepState(0.1, 1.0))
        before = (state.x.copy(), state.y.copy())
        pdhg_step(state, saddle, StepState(0.1, 1.0))
        candidate = (state.sum_x / state.sum_weight, state.sum_y / state.sum_weight)
        apply_restart(state, candidate)
        self.assert_buffers_hold(state, before)
        pdhg_step(state, saddle, StepState(0.1, 1.0))
        self.assert_buffers_hold(state, candidate, candidate)


class TestNonFiniteTrial:
    def test_adaptive_trial_leaves_state_intact(self, toy_saddle):
        # grad = -y is hugely negative, so x - (s/w) grad overflows to +inf
        state = IterateState(x=[1.7e308], y=[1.7e308])
        state.sum_weight, state.inner_count, state.total_count = 2.0, 3, 5
        state.sum_x[:] = 1.0
        state.sum_y[:] = -1.0
        kx = toy_saddle.K.matvec(state.x)
        state.kx = kx
        x, y = state.x, state.y
        with pytest.raises(pl.NonFiniteIterate, match="total iteration 6"):
            adaptive_step(state, toy_saddle, StepState(0.5, 1.0))
        assert state.x is x and state.y is y and state.kx is kx
        np.testing.assert_array_equal(state.x, [1.7e308])
        np.testing.assert_array_equal(state.y, [1.7e308])
        np.testing.assert_array_equal(state.sum_x, [1.0])
        np.testing.assert_array_equal(state.sum_y, [-1.0])
        assert state.sum_weight == 2.0
        assert (state.inner_count, state.total_count, state.trial_count) == (3, 5, 0)

    def test_direct_calls_emit_no_warning(self, toy_saddle):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for step_fn in (
                lambda s: pdhg_step(s, toy_saddle, StepState(0.5, 1.0)),
                lambda s: adaptive_step(s, toy_saddle, StepState(0.5, 1.0)),
                lambda s: pdhg_step(s, toy_saddle, StepState(0.5, 1.0), halpern=True),
            ):
                with pytest.raises(pl.NonFiniteIterate):
                    step_fn(IterateState(x=[1.7e308], y=[1.7e308]))


def finiteness_saddle(n, rows=1):
    """x in R^n free, ``rows`` copies of the equality row x_0 - x_1 = 0,
    c = 0: from y = 0 the x part stays where it is, and K x = 0 when
    x_0 = x_1."""
    row = np.zeros(n)
    row[:2] = (1.0, -1.0)
    problem = pl.LpProblem(c=np.zeros(n), eq_matrix=[row] * rows, eq_rhs=[0.0] * rows, lower=-np.inf)
    return pl.to_saddle(problem)


class TestFinitenessSum:
    """The kernels test a new iterate by the sum of its entries and scan it
    only when that sum is not finite: a point with +inf and -inf entries
    (sum NaN) is caught, and finite entries whose sum overflows are not.
    The sum is a BLAS dot up to DOT_BLAS_MAX entries and a reduce above.
    A failed step leaves the iterate it tested in ``buffers.prev``."""

    KERNELS = {
        "halpern": lambda state, saddle, step: pdhg_step(state, saddle, step, halpern=True),
        "pdhg": lambda state, saddle, step: pdhg_step(state, saddle, step, count=3),
    }
    SIZES = (3, pl.sparse.DOT_BLAS_MAX)  # n + 1 entries in all

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_opposite_infinities_raise_and_leave_the_state(self, kernel, n):
        # y_0 = 1.7e308 and s = 10 send x_0 to +inf and x_1 to -inf
        saddle = finiteness_saddle(n)
        state = IterateState(x=np.zeros(n), y=[1.7e308])
        state.sum_weight, state.inner_count, state.total_count = 2.0, 3, 5
        state.sum_x[:] = 1.0
        state.kx = kx = saddle.K.matvec(state.x)
        with pytest.raises(pl.NonFiniteIterate, match="total iteration 6"):
            self.KERNELS[kernel](state, saddle, StepState(10.0, 1.0))
        tested = state.buffers.prev
        assert tested[:2].tolist() == [np.inf, -np.inf]
        with np.errstate(invalid="ignore"):
            assert np.isnan(np.add.reduce(tested))
        assert state.kx is kx
        np.testing.assert_array_equal(state.x, np.zeros(n))
        np.testing.assert_array_equal(state.y, [1.7e308])
        np.testing.assert_array_equal(state.sum_x, np.ones(n))
        np.testing.assert_array_equal(state.sum_y, [0.0])
        assert state.sum_weight == 2.0
        assert (state.inner_count, state.total_count, state.trial_count) == (3, 5, 0)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_finite_entries_whose_sum_overflows_pass(self, kernel, n):
        # from y = 0 the new point keeps x (with K x = 0) and y = 0; the
        # reflection 2 x - x must not overflow itself, so its x entries are
        # 6e307, three of which overflow in the sum too
        saddle = finiteness_saddle(n)
        start = np.zeros(n)
        start[:3] = (6e307,) * 3
        state = IterateState(x=start, y=[0.0])
        self.KERNELS[kernel](state, saddle, StepState(10.0, 1.0))
        with np.errstate(over="ignore"):
            assert np.add.reduce(state.buffers.z) == np.inf
        assert np.isfinite(state.buffers.z).all()
        np.testing.assert_array_equal(state.x, start)
        np.testing.assert_array_equal(state.y, [0.0])
        assert state.total_count == (1 if kernel == "halpern" else 3)

    @pytest.mark.parametrize("blocks", (1, 2))
    def test_halpern_mix_that_overflows_raises(self, blocks, monkeypatch):
        # T(z) = z = (0, 0, 1e308; 0) is finite, but the reflection 2 x_T - x
        # overflows in its last entry, and so does the mix, the new iterate;
        # two rows from SPLIT_MIN_NNZ = 1 on take the two-block path
        if blocks == 2:
            monkeypatch.setattr(pl.sparse, "SPLIT_MIN_NNZ", 1)
        saddle = finiteness_saddle(3, rows=blocks)
        assert len(saddle.K.row_blocks()) == blocks
        state = IterateState(x=[0.0, 0.0, 1e308], y=np.zeros(blocks))
        x, y = state.x, state.y
        with pytest.raises(pl.NonFiniteIterate, match="total iteration 1$"):
            pdhg_step(state, saddle, StepState(10.0, 1.0), halpern=True)
        assert state.buffers.x.tolist() == [0.0, 0.0, 1e308]
        assert state.x is x and state.y is y
        assert state.x.tolist() == [0.0, 0.0, 1e308] and state.y.tolist() == [0.0] * blocks
        assert (state.inner_count, state.total_count, state.trial_count) == (0, 0, 0)


class TestStepScalarsFollowTheStepState:
    """The kernels keep s / w and s w as arrays made once per StepState; a
    restart's weight update replaces the StepState, and the next step must
    run at the new weight."""

    def test_halpern_after_a_weight_update(self):
        saddle = scaled_saddle(1)
        step = StepState(0.998 / pl.spectral_norm_estimate(saddle.K).value, 1.7)
        state = IterateState.initial(saddle)
        for _ in range(6):
            pdhg_step(state, saddle, step, halpern=True)
        start = (state.buffers.x.copy(), state.buffers.y.copy())
        apply_restart(state, start)
        step = dataclasses.replace(step, primal_weight=0.6)
        for tx, ty, x, y in halpern_reference(saddle, *start, step.step_size, 0.6, 6):
            pdhg_step(state, saddle, step, halpern=True)
            assert state.buffers.x.tobytes() == tx.tobytes() and state.buffers.y.tobytes() == ty.tobytes()
            assert state.x.tobytes() == x.tobytes() and state.y.tobytes() == y.tobytes()

    def test_pdhg_after_a_weight_update(self):
        saddle = scaled_saddle(1)
        step = StepState(0.9 / pl.spectral_norm_estimate(saddle.K).value, 1.7)
        state = IterateState.initial(saddle)
        pdhg_step(state, saddle, step, count=6)
        apply_restart(state, (state.sum_x / state.sum_weight, state.sum_y / state.sum_weight))
        ref = Reference(saddle, state.x, state.y)
        step = dataclasses.replace(step, primal_weight=0.6)
        pdhg_step(state, saddle, step, count=6)
        for _ in range(6):
            ref.fixed(step.step_size, 0.6)
        state.inner_count = state.total_count = ref.count
        assert_same(state, ref)
