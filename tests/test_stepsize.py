import math

import numpy as np
import pytest

import pdhg_lp as pl
from pdhg_lp import (
    IterateState,
    StepPolicy,
    StepState,
    WeightPolicy,
    adaptive_step,
    initialize_step_state,
    stepsize,
    update_primal_weight,
)

from conftest import random_small_saddle


class TestInitialization:
    def test_fixed_step_from_norm(self, toy_saddle):
        step = initialize_step_state(
            toy_saddle, 2.0, StepPolicy(mode="fixed"), WeightPolicy(mode="fixed")
        )
        assert step.step_size == pytest.approx(0.45)
        assert step.primal_weight == 1.0

    def test_fixed_step_override(self, toy_saddle):
        step = initialize_step_state(
            toy_saddle,
            2.0,
            StepPolicy(mode="fixed", fixed_step=0.125),
            WeightPolicy(mode="fixed", fixed_weight=3.0),
        )
        assert step.step_size == 0.125
        assert step.primal_weight == 3.0

    def test_adaptive_step_from_max_entry(self):
        problem = pl.LpProblem(c=[0.0], eq_matrix=[[4.0]], eq_rhs=[1.0])
        step = initialize_step_state(
            pl.to_saddle(problem), 4.0, StepPolicy(mode="adaptive"), WeightPolicy()
        )
        assert step.step_size == pytest.approx(0.25)

    def test_weight_from_cost_and_rhs_norms(self):
        problem = pl.LpProblem(c=[2.0], ineq_matrix=[[1.0]], ineq_rhs=[1.0])
        step = initialize_step_state(pl.to_saddle(problem), 1.0, StepPolicy(), WeightPolicy())
        assert step.primal_weight == pytest.approx(2.0)

    def test_weight_guard_for_zero_cost(self, toy_saddle):
        # the toy has c = 0, so the ratio is undefined and the weight is 1
        step = initialize_step_state(toy_saddle, 1.0, StepPolicy(), WeightPolicy())
        assert step.primal_weight == 1.0

    def test_weight_from_cost_norm_for_zero_rhs(self):
        # q = 0: the weight starts at ||c||, not 1, whatever the scale of c
        problem = pl.LpProblem(c=[3.0, -4.0], ineq_matrix=[[1.0, 1.0]], ineq_rhs=[0.0])
        step = initialize_step_state(pl.to_saddle(problem), 1.0, StepPolicy(), WeightPolicy())
        assert step.primal_weight == 5.0
        fixed = initialize_step_state(pl.to_saddle(problem), 1.0, StepPolicy(), WeightPolicy(mode="fixed"))
        assert fixed.primal_weight == 1.0

    def test_unknown_mode(self, toy_saddle):
        with pytest.raises(pl.NonPositiveInput):
            initialize_step_state(toy_saddle, 1.0, StepPolicy(mode="huge"), WeightPolicy())
        with pytest.raises(pl.NonPositiveInput, match="unknown weight mode 'bogus'"):
            WeightPolicy(mode="bogus")


def measured_step_bound(saddle, x_before, y_before, x_after, y_after, weight):
    """Recompute s_hat = ||dz||_w^2 / (2 |dy' K dx|) from a committed step."""
    dx = x_after - x_before
    dy = y_after - y_before
    movement = weight * float(dx @ dx) + float(dy @ dy) / weight
    interaction = 2.0 * abs(float(dy @ saddle.K.matvec(dx)))
    return math.inf if interaction == 0.0 else movement / interaction


class TestAdaptiveStep:
    def test_zero_interaction_grows_step(self, toy_saddle):
        # from the origin the primal does not move, so the bound is infinite,
        # the trial is accepted and s grows by exactly 1 + 2^-0.6
        state = IterateState.initial(toy_saddle)
        step = StepState(1.0, 1.0)
        state, nxt, accepted = adaptive_step(state, toy_saddle, step)
        assert accepted
        np.testing.assert_allclose(state.y, [3.0])
        np.testing.assert_array_equal(state.x, [0.0])
        assert nxt.step_size == pytest.approx(1.0 + 2.0**-0.6, rel=1e-15)
        assert state.sum_weight == pytest.approx(1.0)  # average weight = accepted s

    def test_oversized_step_rejected_then_accepted(self, toy_saddle):
        # probe the admissible bound at a safe step, then ask for 20x more
        probe = IterateState(x=[2.0], y=[2.0])
        adaptive_step(probe, toy_saddle, StepState(0.01, 1.0))
        s_hat = measured_step_bound(
            toy_saddle, np.array([2.0]), np.array([2.0]), probe.x, probe.y, 1.0
        )
        assert math.isfinite(s_hat)

        state = IterateState(x=[2.0], y=[2.0])
        big = 20.0 * s_hat
        state, nxt, accepted = adaptive_step(state, toy_saddle, StepState(big, 1.0))
        assert accepted
        # the retry loop commits exactly one iterate, at a reduced step
        assert state.total_count == 1
        assert state.sum_weight < big
        assert nxt.step_size < big

    def test_accepted_step_respects_measured_bound(self):
        rng = np.random.default_rng(314)
        for _ in range(20):
            saddle, x, y = random_small_saddle(rng)
            state = IterateState(x=x.copy(), y=y.copy())
            step = initialize_step_state(saddle, 1.0, StepPolicy(mode="adaptive"), WeightPolicy())
            for _ in range(10):
                x_before, y_before = state.x.copy(), state.y.copy()
                weight_before = state.sum_weight
                state, step, accepted = adaptive_step(state, saddle, step)
                if not accepted:
                    break
                s_used = state.sum_weight - weight_before
                bound = measured_step_bound(
                    saddle, x_before, y_before, state.x, state.y, step.primal_weight
                )
                assert s_used <= bound * (1 + 1e-12)

    def test_growth_capped_per_iteration(self, toy_saddle):
        state = IterateState.initial(toy_saddle)
        step = StepState(0.5, 1.0)
        for _ in range(30):
            t = state.total_count + 1
            cap = (1.0 + (t + 1.0) ** -0.6) * step.step_size
            state, step, accepted = adaptive_step(state, toy_saddle, step)
            assert step.step_size <= cap * (1 + 1e-14)

    def test_retry_exhaustion_returns_unaccepted(self, toy_saddle, monkeypatch):
        probe = IterateState(x=[2.0], y=[2.0])
        adaptive_step(probe, toy_saddle, StepState(0.01, 1.0))
        s_hat = measured_step_bound(
            toy_saddle, np.array([2.0]), np.array([2.0]), probe.x, probe.y, 1.0
        )
        monkeypatch.setattr(stepsize, "MAX_RETRIES", 1)
        state = IterateState(x=[2.0], y=[2.0])
        state, nxt, accepted = adaptive_step(state, toy_saddle, StepState(20.0 * s_hat, 1.0))
        assert not accepted
        assert state.total_count == 0
        assert nxt.step_size < 20.0 * s_hat

    def test_underflow_raises(self, toy_saddle, monkeypatch):
        probe = IterateState(x=[2.0], y=[2.0])
        adaptive_step(probe, toy_saddle, StepState(0.01, 1.0))
        s_hat = measured_step_bound(
            toy_saddle, np.array([2.0]), np.array([2.0]), probe.x, probe.y, 1.0
        )
        monkeypatch.setattr(stepsize, "UNDERFLOW_RATIO", 0.99)
        state = IterateState(x=[2.0], y=[2.0])
        with pytest.raises(pl.StepSizeUnderflow):
            adaptive_step(state, toy_saddle, StepState(20.0 * s_hat, 1.0))

    def test_non_finite_trial_raises(self, toy_saddle):
        state = IterateState(x=[1.7e308], y=[1.7e308])
        with pytest.raises(pl.NonFiniteIterate):
            adaptive_step(state, toy_saddle, StepState(0.5, 1.0))


class TestPrimalWeight:
    def test_geometric_mean_update(self):
        # theta = 0.5: w+ = sqrt((dy/dx) * w) = sqrt(4 * 1) = 2
        assert update_primal_weight(1.0, 1.0, 4.0, WeightPolicy()) == pytest.approx(2.0)

    def test_scale_invariance(self):
        policy = WeightPolicy()
        a = update_primal_weight(1.5, 1.0, 4.0, policy)
        b = update_primal_weight(1.5, 2.0, 8.0, policy)
        assert a == pytest.approx(b, rel=1e-15)

    def test_fixed_mode_is_inert(self):
        assert update_primal_weight(2.5, 1.0, 100.0, WeightPolicy(mode="fixed")) == 2.5

    def test_movement_floor(self):
        policy = WeightPolicy()
        assert update_primal_weight(2.0, 0.0, 1.0, policy) == 2.0
        assert update_primal_weight(2.0, 1.0, 1e-11, policy) == 2.0

    def test_non_finite_movement_ignored(self):
        policy = WeightPolicy()
        assert update_primal_weight(2.0, np.inf, 1.0, policy) == 2.0
        assert update_primal_weight(2.0, 1.0, np.nan, policy) == 2.0
