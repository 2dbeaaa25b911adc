"""The PDHG step kernel against a plain reference, bit for bit.

The references below restate the update of ``pdhg.py``, its reflected
Halpern iteration and the adaptive rule of ``stepsize.py`` from their
docstrings in straightforward numpy: fresh arrays for every intermediate,
``csr @ v`` products, explicit loops, and the solver's inner product.  They
keep the kernel's order of operations (for instance 2 K x+ - K x for PDHG
and K (2 x_T - x) for Halpern), so any difference, down to the last bit, is
a kernel fault.
"""

import math
import warnings

import numpy as np
import pytest

import pdhg_lp as pl
from pdhg_lp import IterateState, StepPolicy, StepState, adaptive_step, apply_restart, pdhg_step, stepsize
from pdhg_lp.pdhg import fixed_point_residual, halpern_step
from pdhg_lp.sparse import dot

from conftest import random_feasible_lp, random_small_saddle


class Reference:
    """Plain PDHG on one saddle problem, with its own running sums."""

    def __init__(self, saddle, x, y):
        self.k = saddle.K.tocsr()
        self.kt = self.k.T.tocsr()
        self.saddle = saddle
        self.x = np.array(x, dtype=np.float64)
        self.y = np.array(y, dtype=np.float64)
        self.sum_x = np.zeros_like(self.x)
        self.sum_y = np.zeros_like(self.y)
        self.sum_weight = 0.0
        self.count = 0

    def point(self, s, w):
        """x+ = proj(x - (s/w)(c - K'y)), y+ = proj(y + (s w)(q - (2 K x+ - K x)))."""
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

    def fixed(self, s, w, weight=1.0):
        x_new, y_new, _, _ = self.point(s, w)
        self.commit(x_new, y_new, weight)

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
                return s_next, True
            s = s_next
            assert s >= stepsize.UNDERFLOW_RATIO * s0
        return s, False


def halpern_reference(saddle, x, y, s, w, steps):
    """Reflected Halpern PDHG from (x, y) over one epoch, as the docstring
    of ``pdhg.halpern_step`` states it; yields (T x, T y, x, y) after each
    step.  The product is taken of the reflection, K (2 T x - x)."""
    k_csr = saddle.K.tocsr()
    kt = k_csr.T.tocsr()
    x0, y0 = x, y
    for k in range(steps):
        tx = np.clip(x - (s / w) * (saddle.c - kt @ y), saddle.l, saddle.u)
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
    assert state.kx.tobytes() == (ref.k @ ref.x).tobytes()
    assert state.sum_weight == ref.sum_weight
    assert state.total_count == state.inner_count == ref.count


def scaled_saddle(seed):
    saddle = pl.to_saddle(random_feasible_lp(seed))
    return pl.apply_scaling(saddle, pl.combined_rescale(saddle.K))


def toy_and_criterion_8_saddles():
    yield pl.to_saddle(pl.generate_bilinear_toy())
    for seed in range(4):
        yield scaled_saddle(seed)


class TestAgainstReference:
    @pytest.mark.parametrize("index", range(5))
    def test_fixed_steps(self, index):
        saddle = list(toy_and_criterion_8_saddles())[index]
        norm_k = pl.spectral_norm_estimate(saddle.K).value
        step = StepState(0.9 / norm_k, 1.7)
        state = IterateState.initial(saddle)
        ref = Reference(saddle, state.x, state.y)
        for k in range(60):
            weight = 1.0 + 0.5 * (k % 3)
            pdhg_step(state, saddle, step, avg_weight=weight)
            ref.fixed(step.step_size, step.primal_weight, weight)
            assert_same(state, ref)
        assert state.trial_count == 60

    @pytest.mark.parametrize("index", range(5))
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


class TestHalpernAgainstReference:
    @pytest.mark.parametrize("index", range(5))
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
                halpern_step(state, saddle, step)
                assert state.buffers.x.tobytes() == tx.tobytes()
                assert state.buffers.y.tobytes() == ty.tobytes()
                for got, want in ((state.x, rx), (state.y, ry)):
                    assert got.tobytes() == want.tobytes(), (epoch, k)
                assert state.inner_count == k + 1
            x, y = tx, ty
            apply_restart(state, (state.buffers.x, state.buffers.y))
        assert state.total_count == state.trial_count == 80
        assert state.kx is None

    def test_operator_is_the_pdhg_point(self):
        # T(z) is the point pdhg_step moves to from the same z: x_T bit for
        # bit, y_T up to the rounding of K (2 x_T - x) against 2 K x_T - K x
        rng = np.random.default_rng(21)
        for seed in range(4):
            saddle = scaled_saddle(seed)
            step = StepState(0.998 / pl.spectral_norm_estimate(saddle.K).value, float(rng.uniform(0.3, 3.0)))
            state = IterateState.initial(saddle)
            for _ in range(int(rng.integers(1, 30))):
                halpern_step(state, saddle, step)
            plain = IterateState(x=state.x, y=state.y)
            z = (state.x.copy(), state.y.copy())
            halpern_step(state, saddle, step)
            pdhg_step(plain, saddle, step)
            assert state.buffers.x.tobytes() == plain.x.tobytes()
            np.testing.assert_allclose(state.buffers.y, plain.y, rtol=1e-12, atol=1e-14)
            # and the buffers hold z too, which the residual and the checks read
            assert state.buffers.grad.tobytes() == z[0].tobytes()
            assert state.buffers.dkx.tobytes() == z[1].tobytes()
            w = step.primal_weight
            dx, dy = state.buffers.x - z[0], state.buffers.y - z[1]
            assert fixed_point_residual(state, step) == math.sqrt(w * dot(dx, dx) + dot(dy, dy) / w)

    def test_non_finite_operator_leaves_state_intact(self, toy_saddle):
        state = IterateState(x=[1.7e308], y=[1.7e308], inner_count=3, total_count=5)
        state.anchor = (state.x.copy(), state.y.copy())
        x, y = state.x, state.y
        with pytest.raises(pl.NonFiniteIterate, match="total iteration 6"):
            halpern_step(state, toy_saddle, StepState(0.5, 1.0))
        assert state.x is x and state.y is y
        np.testing.assert_array_equal(state.x, [1.7e308])
        np.testing.assert_array_equal(state.y, [1.7e308])
        assert (state.inner_count, state.total_count, state.trial_count) == (3, 5, 0)


class TestBuffersHoldPreviousIterate:
    """After a step the kernel's buffers hold the iterate it replaced, until
    the next step; solve reads them as z_{k-1} at a check."""

    @staticmethod
    def assert_buffers_hold(state, x, y):
        assert state.buffers.x.tobytes() == x.tobytes()
        assert state.buffers.y.tobytes() == y.tobytes()

    def test_after_fixed_steps(self):
        saddle = scaled_saddle(0)
        state = IterateState.initial(saddle)
        for _ in range(5):
            x, y = state.x.copy(), state.y.copy()
            pdhg_step(state, saddle, StepState(0.1, 1.0))
            self.assert_buffers_hold(state, x, y)

    def test_after_a_rejected_trial(self, toy_saddle):
        # rejected trials are written into the buffers before one is accepted
        state = IterateState(x=[2.0], y=[2.0])
        state, _, accepted = adaptive_step(state, toy_saddle, StepState(100.0, 1.0))
        assert accepted and state.trial_count > 1
        self.assert_buffers_hold(state, np.array([2.0]), np.array([2.0]))

    def test_restart_leaves_them_alone(self):
        saddle = scaled_saddle(1)
        state = IterateState.initial(saddle)
        pdhg_step(state, saddle, StepState(0.1, 1.0))
        x, y = state.x.copy(), state.y.copy()
        pdhg_step(state, saddle, StepState(0.1, 1.0))
        apply_restart(state, state.average())
        self.assert_buffers_hold(state, x, y)


class TestNonFiniteTrial:
    def test_adaptive_trial_leaves_state_intact(self, toy_saddle):
        # grad = -y is hugely negative, so x - (s/w) grad overflows to +inf
        state = IterateState(x=[1.7e308], y=[1.7e308], sum_weight=2.0, inner_count=3, total_count=5)
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
                lambda s: halpern_step(s, toy_saddle, StepState(0.5, 1.0)),
            ):
                with pytest.raises(pl.NonFiniteIterate):
                    step_fn(IterateState(x=[1.7e308], y=[1.7e308]))
