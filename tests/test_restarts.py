import math

import numpy as np
import pytest

import pdhg_lp as pl
from pdhg_lp import (
    EpochSnapshot,
    IterateState,
    RestartConfig,
    apply_restart,
    fixed_period_from_sharpness,
    normalized_duality_gap,
    should_restart,
)

from conftest import gap_oracle, random_small_saddle


class TestNormalizedGap:
    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            saddle, x, y = random_small_saddle(rng)
            radius = float(rng.uniform(0.1, 5.0))
            got = normalized_duality_gap(saddle, x, y, radius)
            want = gap_oracle(saddle, x, y, radius)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_ball_only_shortcut(self):
        # bounds far away: the maximizer is the ball point and rho = ||d||
        problem = pl.LpProblem(
            c=[1.0, -1.0],
            eq_matrix=[[1.0, 2.0]],
            eq_rhs=[1.0],
            lower=[-1e6, -1e6],
            upper=[1e6, 1e6],
        )
        saddle = pl.to_saddle(problem)
        x = np.array([0.1, 0.2])
        y = np.array([0.3])
        d_x = saddle.K.rmatvec(y) - saddle.c
        d_y = saddle.q - saddle.K.matvec(x)
        norm_d = np.linalg.norm(np.concatenate([d_x, d_y]))
        assert normalized_duality_gap(saddle, x, y, 0.5) == pytest.approx(
            norm_d, rel=1e-12
        )

    def test_box_only_shortcut(self):
        # tiny box, huge radius: the maximizer saturates the box
        problem = pl.LpProblem(c=[-1.0], lower=[0.0], upper=[0.001])
        saddle = pl.to_saddle(problem)
        x = np.array([0.0])
        # d = (K'y - c, ...) = (1,): push x to its upper bound
        val = normalized_duality_gap(saddle, x, np.zeros(0), 100.0)
        assert val == pytest.approx(1.0 * 0.001 / 100.0, rel=1e-12)

    def test_zero_at_saddle_point(self, toy_saddle):
        assert normalized_duality_gap(toy_saddle, [3.0], [0.0], 1.0) == 0.0

    def test_nonincreasing_in_radius(self):
        rng = np.random.default_rng(404)
        for _ in range(10):
            saddle, x, y = random_small_saddle(rng)
            radii = [0.1, 0.5, 1.0, 4.0, 16.0]
            vals = [normalized_duality_gap(saddle, x, y, r) for r in radii]
            for small, large in zip(vals, vals[1:]):
                assert large <= small * (1 + 1e-9) + 1e-12

    def test_invalid_radius(self, toy_saddle):
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(pl.InvalidRadius):
                normalized_duality_gap(toy_saddle, [1.0], [1.0], bad)

    def test_bit_identical_to_plain_bisection(self):
        # the bisection as first written, allocating a vector per pass; the
        # buffered version must return the same bits
        def plain_gap(saddle, x, y, radius):
            d = np.concatenate([saddle.K.rmatvec(y) - saddle.c, saddle.q - saddle.K.matvec(x)])
            norm_d = float(np.linalg.norm(d))
            if norm_d == 0.0:
                return 0.0
            y_lower = np.full(y.shape[0], -np.inf)
            y_lower[: saddle.m1] = 0.0
            lo = np.concatenate([saddle.l - x, y_lower - y])
            hi = np.concatenate([saddle.u - x, np.full(y.shape[0], np.inf)])
            ball = (radius / norm_d) * d
            if np.all(ball >= lo) and np.all(ball <= hi):
                return norm_d
            box = np.where(d > 0, hi, np.where(d < 0, lo, 0.0))
            if np.all(np.isfinite(box)) and float(np.linalg.norm(box)) <= radius:
                return float(d @ box) / radius
            bisections.append(radius)
            lam_lo, lam_hi, best = 0.0, norm_d / radius, None
            for _ in range(100):
                lam = 0.5 * (lam_lo + lam_hi)
                if lam <= 0.0:
                    break
                delta = np.clip(d / lam, lo, hi)
                norm = float(np.linalg.norm(delta))
                if norm > radius:
                    if np.isfinite(norm) and norm - radius <= 1e-10 * radius:
                        best = delta * (radius / norm)
                        break
                    lam_lo = lam
                else:
                    best = delta
                    if radius - norm <= 1e-10 * radius:
                        break
                    lam_hi = lam
            if best is None:
                best = np.clip(d / lam_hi, lo, hi)
            return max(float(d @ best), 0.0) / radius

        bisections = []
        rng = np.random.default_rng(21)
        for _ in range(300):
            saddle, x, y = random_small_saddle(rng, max_total=8)
            radius = float(10.0 ** rng.uniform(-3, 2))
            got = normalized_duality_gap(saddle, x, y, radius)
            assert float(got).hex() == float(plain_gap(saddle, x, y, radius)).hex()
        assert len(bisections) > 50

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        saddle, x, y = random_small_saddle(rng)
        a = normalized_duality_gap(saddle, x, y, 2.0)
        b = normalized_duality_gap(saddle, x, y, 2.0)
        assert a == b


class TestFixedPeriod:
    def test_formula(self):
        # ceil(4 e * 1 / 1) = ceil(10.873...) = 11
        assert fixed_period_from_sharpness(1.0, 1.0) == 11
        assert fixed_period_from_sharpness(2.0, 1.0) == math.ceil(8 * math.e)
        # never below one iteration
        assert fixed_period_from_sharpness(1e-9, 1e9) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(pl.NonPositiveInput):
            fixed_period_from_sharpness(1.0, 0.0)
        with pytest.raises(pl.NonPositiveInput):
            fixed_period_from_sharpness(-1.0, 1.0)


class TestShouldRestart:
    def make_state(self, inner, total):
        state = IterateState(x=[0.0], y=[0.0])
        state.inner_count = inner
        state.total_count = total
        return state

    def test_none_scheme(self):
        state = self.make_state(1000, 1000)
        assert should_restart(state, None, RestartConfig(scheme="none")) == (False, None)

    def test_fixed_scheme(self):
        cfg = RestartConfig(scheme="fixed", period=4)
        snapshot = EpochSnapshot(np.zeros(1), np.zeros(1))
        assert should_restart(self.make_state(3, 7), snapshot, cfg) == (False, None)
        assert should_restart(self.make_state(4, 8), snapshot, cfg) == (
            True,
            "fixed_period",
        )

    def test_fixed_scheme_needs_period(self):
        with pytest.raises(pl.NonPositiveInput):
            should_restart(
                self.make_state(1, 1),
                EpochSnapshot(np.zeros(1), np.zeros(1)),
                RestartConfig(scheme="fixed"),
            )

    def test_adaptive_gap_decay(self):
        cfg = RestartConfig(scheme="adaptive", sufficient_decay=0.5)
        snapshot = EpochSnapshot(np.zeros(1), np.zeros(1), gap_at_start=2.0)
        state = self.make_state(3, 100)
        assert should_restart(state, snapshot, cfg, candidate_gap=1.0) == (
            True,
            "gap_decay",
        )
        assert should_restart(state, snapshot, cfg, candidate_gap=1.5) == (False, None)

    def test_adaptive_artificial_cap(self):
        cfg = RestartConfig(scheme="adaptive")
        snapshot = EpochSnapshot(np.zeros(1), np.zeros(1), gap_at_start=2.0)
        # cap = max(10, 0.36 * total)
        assert should_restart(self.make_state(10, 0), snapshot, cfg) == (
            True,
            "artificial",
        )
        assert should_restart(self.make_state(9, 0), snapshot, cfg) == (False, None)
        assert should_restart(self.make_state(36, 100), snapshot, cfg) == (
            True,
            "artificial",
        )
        assert should_restart(self.make_state(35, 100), snapshot, cfg) == (False, None)

    def test_unknown_scheme(self):
        with pytest.raises(pl.NonPositiveInput):
            should_restart(
                self.make_state(0, 0),
                EpochSnapshot(np.zeros(1), np.zeros(1)),
                RestartConfig(scheme="sometimes"),
            )


class TestApplyRestart:
    def test_resets_epoch_state(self, toy_saddle):
        state = IterateState(x=[2.0], y=[2.0])
        step = pl.StepState(0.2, 1.0)
        for _ in range(6):
            pl.pdhg_step(state, toy_saddle, step)
        assert state.inner_count == 6 and state.sum_weight > 0
        avg = state.average()
        apply_restart(state, avg)
        np.testing.assert_array_equal(state.x, avg[0])
        np.testing.assert_array_equal(state.y, avg[1])
        assert state.inner_count == 0
        assert state.total_count == 6
        assert state.epoch_index == 1
        assert state.sum_weight == 0.0
        assert state.kx is None
        np.testing.assert_array_equal(state.sum_x, [0.0])

    def test_candidate_copied_not_aliased(self):
        state = IterateState(x=[0.0], y=[0.0])
        cand_x = np.array([5.0])
        apply_restart(state, (cand_x, np.array([1.0])))
        cand_x[0] = -1.0
        np.testing.assert_array_equal(state.x, [5.0])
