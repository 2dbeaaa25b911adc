"""The PDHG step kernel against a plain reference, bit for bit.

The reference below restates the update of ``pdhg.py`` and the adaptive rule
of ``stepsize.py`` from their docstrings in straightforward numpy: fresh
arrays for every intermediate, ``csr @ v`` products, explicit loops.  It
keeps the kernel's order of operations (for instance 2 K x+ - K x), so any
difference, down to the last bit, is a kernel fault.
"""

import math
import warnings

import numpy as np
import pytest

import pdhg_lp as pl
from pdhg_lp import IterateState, StepPolicy, StepState, adaptive_step, pdhg_step

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

    def adaptive(self, s, w, s0, policy):
        """One iteration of the adaptive rule; returns (next s, accepted)."""
        t = self.count + 1
        shrink = 1.0 - (t + 1.0) ** (-policy.reduction_exponent)
        grow = 1.0 + (t + 1.0) ** (-policy.growth_exponent)
        for _ in range(policy.max_retries):
            x_new, y_new, kx_new, kx = self.point(s, w)
            dx = x_new - self.x
            dy = y_new - self.y
            movement = w * float(dx @ dx) + float(dy @ dy) / w
            interaction = 2.0 * abs(float(dy @ (kx_new - kx)))
            s_hat = math.inf if interaction == 0.0 or movement == 0.0 else movement / interaction
            s_next = grow * s if math.isinf(s_hat) else min(shrink * s_hat, grow * s)
            if s <= s_hat:
                self.commit(x_new, y_new, s)
                return s_next, True
            s = s_next
            assert s >= policy.underflow_ratio * s0
        return s, False


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
        policy = StepPolicy()
        step = pl.initialize_step_state(saddle, None, policy, pl.WeightPolicy())
        state = IterateState.initial(saddle)
        ref = Reference(saddle, state.x, state.y)
        s = step.step_size
        trials_before = 0
        for _ in range(60):
            state, step, accepted = adaptive_step(state, saddle, step, policy)
            s, ref_accepted = ref.adaptive(s, step.primal_weight, step.initial_step_size, policy)
            assert accepted and ref_accepted
            assert step.step_size == s
            assert_same(state, ref)
            assert state.trial_count > trials_before
            trials_before = state.trial_count

    def test_random_small_saddles_both_modes(self):
        rng = np.random.default_rng(8)
        policy = StepPolicy()
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
                state, adaptive, accepted = adaptive_step(state, saddle, adaptive, policy)
                s, _ = ref.adaptive(s, step.primal_weight, step.initial_step_size, policy)
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
            adaptive_step(state, toy_saddle, StepState(0.5, 1.0), StepPolicy())
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
                lambda s: adaptive_step(s, toy_saddle, StepState(0.5, 1.0), StepPolicy()),
            ):
                with pytest.raises(pl.NonFiniteIterate):
                    step_fn(IterateState(x=[1.7e308], y=[1.7e308]))
