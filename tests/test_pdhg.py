import numpy as np
import pytest

import pdhg_lp as pl
from pdhg_lp import IterateState, StepState, adaptive_step, pdhg_step, project_dual, project_primal, ps_norm

from conftest import dense_pdhg_step, random_small_saddle
from test_step_kernel import Reference


class TestProjections:
    def test_primal_idempotent(self):
        rng = np.random.default_rng(0)
        l = np.array([-1.0, 0.0, -np.inf, 2.0])
        u = np.array([1.0, np.inf, 5.0, 2.0])
        for _ in range(50):
            x = rng.standard_normal(4) * 10
            once = project_primal(x, l, u)
            twice = project_primal(once, l, u)
            np.testing.assert_array_equal(once, twice)
            assert np.all(once >= l) and np.all(once <= u)

    def test_dual_idempotent_and_partial(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            y = rng.standard_normal(5)
            once = project_dual(y, 3)
            np.testing.assert_array_equal(once, project_dual(once, 3))
            assert np.all(once[:3] >= 0)
            # equality-row duals pass through untouched
            np.testing.assert_array_equal(once[3:], y[3:])

    def test_dual_no_inequalities_is_identity(self):
        y = np.array([-1.0, 2.0])
        np.testing.assert_array_equal(project_dual(y, 0), y)


class TestStepState:
    def test_eta_sigma_split(self):
        step = StepState(step_size=0.4, primal_weight=4.0)
        assert step.step_size / step.primal_weight == pytest.approx(0.1)
        assert step.sigma == pytest.approx(1.6)
        assert step.initial_step_size == 0.4

    def test_positivity_enforced(self):
        with pytest.raises(pl.NonPositiveInput):
            StepState(step_size=0.0, primal_weight=1.0)
        with pytest.raises(pl.NonPositiveInput):
            StepState(step_size=0.1, primal_weight=-1.0)
        with pytest.raises(pl.NonPositiveInput):
            StepState(step_size=np.inf, primal_weight=1.0)


class TestPdhgStep:
    def test_first_step_on_toy(self, toy_saddle):
        # hand-computed: x+ = 2 - 0.2*(0 - 2) = 2.4,
        #                y+ = 2 + 0.2*(3 - (2*2.4 - 2)) = 2.04
        state = IterateState(x=[2.0], y=[2.0])
        pdhg_step(state, toy_saddle, StepState(0.2, 1.0))
        np.testing.assert_allclose(state.x, [2.4], rtol=1e-15)
        np.testing.assert_allclose(state.y, [2.04], rtol=1e-15)
        assert state.total_count == 1
        assert state.inner_count == 1

    def test_saddle_point_is_fixed(self, toy_saddle):
        state = IterateState(x=[3.0], y=[0.0])
        for _ in range(5):
            pdhg_step(state, toy_saddle, StepState(0.2, 1.0))
        np.testing.assert_array_equal(state.x, [3.0])
        np.testing.assert_array_equal(state.y, [0.0])

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            saddle, x, y = random_small_saddle(rng)
            step = StepState(0.9 / max(saddle.K.abs_max(), 1e-3), 1.7)
            state = IterateState(x=x.copy(), y=y.copy())
            k_dense = saddle.K.toarray()
            xr, yr = x.copy(), y.copy()
            for _ in range(4):
                pdhg_step(state, saddle, step)
                xr, yr = dense_pdhg_step(
                    saddle.c, k_dense, saddle.q, saddle.m1,
                    saddle.l, saddle.u, xr, yr, step.step_size / step.primal_weight, step.sigma,
                )
            np.testing.assert_allclose(state.x, xr, atol=1e-12)
            np.testing.assert_allclose(state.y, yr, atol=1e-12)

    def test_matvec_budget(self, toy_saddle):
        # no K x is kept: k steps cost k matvecs and k rmatvecs, also in the
        # first stretch after a restart
        state = IterateState.initial(toy_saddle)
        step = StepState(0.2, 1.0)
        base_mv = toy_saddle.K.matvec_calls
        base_rmv = toy_saddle.K.rmatvec_calls
        for _ in range(5):
            pdhg_step(state, toy_saddle, step)
        assert toy_saddle.K.matvec_calls - base_mv == 5
        assert toy_saddle.K.rmatvec_calls - base_rmv == 5
        pl.apply_restart(state, (state.sum_x / state.sum_weight, state.sum_y / state.sum_weight))
        pdhg_step(state, toy_saddle, step, count=4)
        assert toy_saddle.K.matvec_calls - base_mv == 9
        assert toy_saddle.K.rmatvec_calls - base_rmv == 9

    def test_cache_is_consistent(self, toy_saddle):
        # the fixed step keeps no K x; the adaptive step after it fills its
        # own cache and moves as the reference does
        state = IterateState(x=[1.5], y=[-2.0])
        pdhg_step(state, toy_saddle, StepState(0.3, 2.0))
        assert state.kx is None
        ref = Reference(toy_saddle, state.x, state.y)
        ref.count = state.total_count  # the rule's growth and shrink read it
        step = StepState(0.3, 2.0)
        state, step_next, accepted = adaptive_step(state, toy_saddle, step)
        s_next, ref_accepted = ref.adaptive(0.3, 2.0, step.initial_step_size)
        assert accepted and ref_accepted and step_next.step_size == s_next
        for got, want in ((state.x, ref.x), (state.y, ref.y), (state.kx, ref.kx)):
            assert got.tobytes() == want.tobytes()

    def test_non_finite_step_leaves_state_intact(self, toy_saddle):
        # grad = -y is hugely negative, so x - eta*grad overflows to +inf
        state = IterateState(x=[1.7e308], y=[1.7e308])
        with pytest.raises(pl.NonFiniteIterate):
            pdhg_step(state, toy_saddle, StepState(0.5, 1.0))
        np.testing.assert_array_equal(state.x, [1.7e308])
        assert state.total_count == 0

    def test_initial_point_respects_box(self):
        problem = pl.LpProblem(c=[1.0, 1.0], lower=[2.0, -np.inf], upper=[5.0, -1.0])
        state = IterateState.initial(pl.to_saddle(problem))
        np.testing.assert_array_equal(state.x, [2.0, -1.0])

    def test_average_weights(self, toy_saddle):
        # the adaptive rule weighs each iterate by the step that made it; on
        # the toy every trial is accepted (s_hat >= 1) and s grows
        state = IterateState(x=[2.0], y=[2.0])
        step = StepState(0.2, 1.0)
        xs, ys, ws = [], [], []
        for k in range(3):
            ws.append(step.step_size)
            state, step, accepted = adaptive_step(state, toy_saddle, step)
            assert accepted and state.trial_count == k + 1
            xs.append(state.x.copy())
            ys.append(state.y.copy())
        assert ws[0] < ws[1] < ws[2]
        assert state.sum_weight == pytest.approx(sum(ws), rel=1e-15)
        np.testing.assert_allclose(state.sum_x, sum(w * v for w, v in zip(ws, xs)), rtol=1e-15)
        np.testing.assert_allclose(state.sum_y, sum(w * v for w, v in zip(ws, ys)), rtol=1e-15)


class TestPsNorm:
    def test_omega_mode_value(self):
        # dx = dy = 1, s = 0.2, w = 1: sqrt((1 + 1)/0.2) = sqrt(10)
        step = StepState(0.2, 1.0)
        val = ps_norm((np.array([1.0]), np.array([2.0])),
                      (np.array([0.0]), np.array([1.0])), step)
        assert val == pytest.approx(np.sqrt(10.0), rel=1e-15)

    def test_full_mode_value(self, toy_saddle):
        # diagonal part 10 plus interaction 2*dy*K*dx = 2 gives 12
        step = StepState(0.2, 1.0)
        val = ps_norm(
            (np.array([1.0]), np.array([2.0])),
            (np.array([0.0]), np.array([1.0])),
            step,
            mode="full",
            matrix=toy_saddle.K,
        )
        assert val == pytest.approx(12.0, rel=1e-15)

    def test_order_invariance(self, toy_saddle):
        step = StepState(0.2, 1.0)
        z1 = (np.array([1.3]), np.array([-0.4]))
        z2 = (np.array([0.1]), np.array([2.2]))
        assert ps_norm(z1, z2, step, mode="full", matrix=toy_saddle.K) == (
            ps_norm(z2, z1, step, mode="full", matrix=toy_saddle.K)
        )

    def test_negative_form_raises(self, toy_saddle):
        # s ||K|| = 2 > 1: diag (1+1)/2 = 1, interaction 2*(-1)*1 = -2
        step = StepState(2.0, 1.0)
        with pytest.raises(pl.NonPositiveQuadraticForm):
            ps_norm(
                (np.array([1.0]), np.array([0.0])),
                (np.array([0.0]), np.array([1.0])),
                step,
                mode="full",
                matrix=toy_saddle.K,
            )

    def test_full_mode_requires_matrix(self):
        with pytest.raises(pl.NonPositiveInput):
            ps_norm((np.zeros(1), np.zeros(1)), (np.ones(1), np.ones(1)),
                    StepState(0.1, 1.0), mode="full")

    def test_one_step_is_nonexpansive_in_full_form(self):
        # contraction property of the update when s <= 0.9 / ||K||
        rng = np.random.default_rng(99)
        for _ in range(30):
            saddle, x1, y1 = random_small_saddle(rng)
            norm_k = pl.spectral_norm_estimate(saddle.K, tol=1e-8).value
            if norm_k == 0.0:
                continue
            step = StepState(0.9 / norm_k, float(rng.uniform(0.3, 3.0)))
            x2 = np.clip(rng.standard_normal(x1.shape[0]), saddle.l, saddle.u)
            y2 = rng.standard_normal(y1.shape[0])
            if saddle.m1:
                y2[: saddle.m1] = np.abs(y2[: saddle.m1])
            before = ps_norm((x1, y1), (x2, y2), step, mode="full", matrix=saddle.K)
            s1 = IterateState(x=x1.copy(), y=y1.copy())
            s2 = IterateState(x=x2.copy(), y=y2.copy())
            pdhg_step(s1, saddle, step)
            pdhg_step(s2, saddle, step)
            after = ps_norm((s1.x, s1.y), (s2.x, s2.y), step, mode="full", matrix=saddle.K)
            assert after <= before * (1.0 + 1e-10) + 1e-14
