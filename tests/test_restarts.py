import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import pdhg_lp as pl
from pdhg_lp import (
    IterateState,
    RestartConfig,
    apply_restart,
    normalized_duality_gap,
    restarts,
    should_restart,
)

from pdhg_lp.sparse import dot

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
        # the bisection as first written, allocating a vector per pass, with
        # the solver's inner product; the buffered version must return the
        # same bits
        def length(v):
            return math.sqrt(dot(v, v))

        def plain_gap(saddle, x, y, radius):
            d = np.concatenate([saddle.K.rmatvec(y) - saddle.c, saddle.q - saddle.K.matvec(x)])
            norm_d = length(d)
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
            if np.all(np.isfinite(box)) and length(box) <= radius:
                return dot(d, box) / radius
            bisections.append(radius)
            lam_lo, lam_hi, best = 0.0, norm_d / radius, None
            for _ in range(100):
                lam = 0.5 * (lam_lo + lam_hi)
                if lam <= 0.0:
                    break
                delta = np.clip(d / lam, lo, hi)
                norm = length(delta)
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
            return max(dot(d, best), 0.0) / radius

        def exit_taken(saddle, x, y, radius):
            # which branch the reference returned from
            before = len(bisections)
            value = plain_gap(saddle, x, y, radius)
            d = np.concatenate([saddle.K.rmatvec(y) - saddle.c, saddle.q - saddle.K.matvec(x)])
            if len(bisections) > before:
                branch = "bisection"
            elif value == length(d):
                branch = "ball"
            else:
                branch = "box"
            return value, branch

        def check(saddle, x, y, radius):
            want, branch = exit_taken(saddle, x, y, radius)
            got = normalized_duality_gap(saddle, x, y, radius)
            assert float(got).hex() == float(want).hex()
            # non-contiguous views of the same point give the same bits
            x_view, y_view = np.repeat(x, 2)[::2], np.repeat(y, 3)[1::3]
            got_view = normalized_duality_gap(saddle, x_view, y_view, radius)
            assert float(got_view).hex() == float(want).hex()
            return branch

        def saddle_of(rng, n, m1, m2, lower, upper):
            problem = pl.LpProblem(
                c=rng.standard_normal(n),
                ineq_matrix=rng.standard_normal((m1, n)),
                ineq_rhs=rng.standard_normal(m1),
                eq_matrix=rng.standard_normal((m2, n)),
                eq_rhs=rng.standard_normal(m2),
                lower=lower,
                upper=upper,
            )
            saddle = pl.to_saddle(problem)
            x = np.clip(rng.standard_normal(n), saddle.l, saddle.u)
            y = rng.standard_normal(m1 + m2)
            y[:m1] = np.abs(y[:m1])
            return saddle, x, y

        bisections = []
        rng = np.random.default_rng(21)
        for _ in range(300):
            saddle, x, y = random_small_saddle(rng, max_total=8)
            radius = float(10.0 ** rng.uniform(-3, 2))
            check(saddle, x, y, radius)
        assert len(bisections) > 50

        # each row shape and bound pattern of the set-up, on every exit
        branches = {}
        for family in ("no_inequalities", "only_inequalities", "free", "tight_box"):
            seen = branches.setdefault(family, set())
            for _ in range(120):
                n = int(rng.integers(1, 5))
                m = int(rng.integers(1, 5))
                lower, upper = rng.uniform(-2, 0, n), rng.uniform(0.5, 3, n)
                m1 = {"no_inequalities": 0, "only_inequalities": m}.get(family, int(rng.integers(0, m + 1)))
                if family == "free":
                    lower, upper = np.full(n, -np.inf), np.full(n, np.inf)
                if family == "tight_box":
                    m1, m = 0, 0
                    lower, upper = -(10.0 ** rng.uniform(-4, 0, n)), 10.0 ** rng.uniform(-4, 0, n)
                saddle, x, y = saddle_of(rng, n, m1, m - m1, lower, upper)
                assert saddle.m1 == m1 and saddle.num_dual == m
                seen.add(check(saddle, x, y, float(10.0 ** rng.uniform(-3, 2))))
        for family, seen in branches.items():
            assert {"ball", "bisection"} <= seen, family
        assert "box" in branches["tight_box"] and "box" in branches["only_inequalities"]

    def test_stop_above_keeps_every_comparison_with_the_bound(self):
        # a gap at or below the bound comes back bit for bit; a larger one
        # may stop early, at a lower bound that still exceeds it
        rng = np.random.default_rng(5)
        stopped = 0
        for _ in range(300):
            saddle, x, y = random_small_saddle(rng, max_total=8)
            radius = float(10.0 ** rng.uniform(-3, 2))
            full = normalized_duality_gap(saddle, x, y, radius)
            assert normalized_duality_gap(saddle, x, y, radius, stop_above=np.inf) == full
            for bound in (0.0, 0.25 * full, 0.9 * full, full, 2.0 * full):
                early = normalized_duality_gap(saddle, x, y, radius, stop_above=bound)
                if full <= bound:
                    assert float(early).hex() == float(full).hex()
                else:
                    # the last pass may shrink its point by up to 1e-10 to meet the sphere
                    assert bound < early <= full * (1.0 + 1e-9)
                    stopped += early < full
        assert stopped > 50

    def test_peak_memory(self):
        # at n + m = 2e4 a bisecting evaluation holds five vectors of that
        # length (d, lo, hi and the two bisection buffers) plus byte masks;
        # building d, lo, hi, the ball point and the box point as separate
        # concatenations held about 8.5
        saddle = pl.to_saddle(pl.generate_pagerank(pl.PagerankSpec(num_nodes=10_000)))
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, saddle.num_primal)
        y = rng.standard_normal(saddle.num_dual)
        y[: saddle.m1] = np.abs(y[: saddle.m1])
        radius = float(np.linalg.norm(x))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            gap = normalized_duality_gap(saddle, x, y, radius)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        d = np.concatenate([saddle.K.rmatvec(y) - saddle.c, saddle.q - saddle.K.matvec(x)])
        assert 0.0 < gap < np.linalg.norm(d)  # not the ball-only exit
        assert peak - before <= 6.5 * 8 * (saddle.num_primal + saddle.num_dual)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        saddle, x, y = random_small_saddle(rng)
        a = normalized_duality_gap(saddle, x, y, 2.0)
        b = normalized_duality_gap(saddle, x, y, 2.0)
        assert a == b


class TestShouldRestart:
    def make_state(self, inner, total):
        state = IterateState(x=[0.0], y=[0.0])
        state.inner_count = inner
        state.total_count = total
        return state

    def test_adaptive_gap_decay(self):
        # at most GAP_SUFFICIENT_DECAY = 0.5 of the epoch's first gap
        state = self.make_state(3, 100)
        assert should_restart(state, candidate_gap=1.0, reference_gap=2.0) == (
            True,
            "gap_decay",
        )
        assert should_restart(state, candidate_gap=1.5, reference_gap=2.0) == (False, None)

    def test_adaptive_artificial_cap(self):
        # cap = max(10, 0.36 * total)
        assert should_restart(self.make_state(10, 0), reference_gap=2.0) == (
            True,
            "artificial",
        )
        assert should_restart(self.make_state(9, 0), reference_gap=2.0) == (False, None)
        assert should_restart(self.make_state(36, 100), reference_gap=2.0) == (
            True,
            "artificial",
        )
        assert should_restart(self.make_state(35, 100), reference_gap=2.0) == (False, None)

    def test_residual_sufficient_decay(self):
        # (now, first, previous): at most 0.2 of the epoch's first residual
        # restarts whether or not it went up since the previous test
        state = self.make_state(3, 100)
        assert should_restart(state, residuals=(0.2, 1.0, 0.5)) == (True, "residual_decay")
        assert should_restart(state, residuals=(0.2, 1.0, 0.1)) == (True, "residual_decay")
        assert should_restart(state, residuals=(0.0, 1.0, 0.0)) == (True, "residual_decay")

    def test_residual_necessary_decay(self):
        # between 0.2 and 0.8 of the first, it restarts only once the
        # residual has gone up since the previous test
        state = self.make_state(3, 100)
        assert should_restart(state, residuals=(0.8, 1.0, 0.5)) == (True, "residual_decay")
        assert should_restart(state, residuals=(0.5, 1.0, 0.6)) == (False, None)
        assert should_restart(state, residuals=(0.5, 1.0, 0.5)) == (False, None)
        assert should_restart(state, residuals=(0.9, 1.0, 0.5)) == (False, None)

    def test_residuals_replace_the_gap_test(self):
        # under the Halpern step the gaps are not tested, the cap still is
        no_decay = (0.9, 1.0, 1.0)
        assert should_restart(
            self.make_state(3, 100), candidate_gap=0.0, reference_gap=2.0, residuals=no_decay
        ) == (False, None)
        assert should_restart(self.make_state(36, 100), residuals=no_decay) == (True, "artificial")
        assert should_restart(self.make_state(35, 100), residuals=no_decay) == (False, None)

    def test_unknown_scheme(self):
        with pytest.raises(pl.NonPositiveInput):
            RestartConfig(scheme="sometimes")


class TestStepsToNextTest:
    """``solve`` runs a constant step in stretches of ``steps_to_next_test``
    steps and makes the adaptive scheme's tests only after a stretch, so no
    step strictly inside one may be a step after which the loop tests."""

    @staticmethod
    def counts(inner, total):
        return SimpleNamespace(inner_count=inner, total_count=total)

    def test_no_halpern_test_falls_inside_a_stretch(self):
        # after a step the loop computes the residual at the epoch's first
        # step, tests it at multiples of RESIDUAL_EVAL_INTERVAL and tests
        # the artificial cap after every step
        for inner in range(201):
            for total in range(inner, 3 * inner + 100):
                k = restarts.steps_to_next_test(self.counts(inner, total), True)
                assert 1 <= k <= restarts.RESIDUAL_EVAL_INTERVAL, (inner, total)
                capped = restarts.artificial_cap_reached(self.counts(inner, total))
                for j in range(1, k):
                    after = self.counts(inner + j, total + j)
                    assert inner > 0 and after.inner_count % restarts.RESIDUAL_EVAL_INTERVAL, (inner, total, j)
                    assert restarts.artificial_cap_reached(after) == capped, (inner, total, j)

    def test_no_gap_test_falls_inside_a_stretch(self):
        for inner in range(201):
            k = restarts.steps_to_next_test(self.counts(inner, inner), False)
            assert 1 <= k <= restarts.GAP_EVAL_INTERVAL
            assert (inner + k) % restarts.GAP_EVAL_INTERVAL == 0


class TestApplyRestart:
    def test_resets_epoch_state(self, toy_saddle):
        state = IterateState(x=[2.0], y=[2.0])
        step = pl.StepState(0.2, 1.0)
        for _ in range(6):
            pl.pdhg_step(state, toy_saddle, step)
        assert state.inner_count == 6 and state.sum_weight > 0
        avg = (state.sum_x / state.sum_weight, state.sum_y / state.sum_weight)
        apply_restart(state, avg)
        np.testing.assert_array_equal(state.x, avg[0])
        np.testing.assert_array_equal(state.y, avg[1])
        assert state.inner_count == 0
        assert state.total_count == 6
        assert state.sum_weight == 0.0
        assert state.kx is None
        np.testing.assert_array_equal(state.sum_x, [0.0])

    def test_candidate_copied_not_aliased(self):
        state = IterateState(x=[0.0], y=[0.0])
        cand_x = np.array([5.0])
        apply_restart(state, (cand_x, np.array([1.0])))
        cand_x[0] = -1.0
        np.testing.assert_array_equal(state.x, [5.0])
