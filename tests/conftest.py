"""Shared test helpers: random instance builders and independent oracles.

The oracles here deliberately take different routes from the package code
(dense algebra, exhaustive enumeration) so the tests cross-check rather than
mirror the implementation.
"""

import itertools
import math

import numpy as np
import pytest

import pdhg_lp as pl


def random_feasible_lp(seed, n=50, m_ineq=30, m_eq=0, spread=1.5, density=0.5):
    """Random bounded-feasible LP with a known interior point.

    Rows and columns carry 10^±spread magnitudes so diagonal scaling has
    something to do.  The box is compact, so an optimum always exists.
    """
    rng = np.random.default_rng(seed)
    row_mag = 10.0 ** rng.uniform(-spread, spread, m_ineq)
    col_mag = 10.0 ** rng.uniform(-spread, spread, n)
    g = rng.standard_normal((m_ineq, n)) * (rng.random((m_ineq, n)) < density)
    g = g * row_mag[:, None] * col_mag[None, :]
    x_feas = rng.uniform(0.5, 1.5, n)
    slack = rng.uniform(0.1, 1.0, m_ineq) * row_mag
    h = g @ x_feas - slack
    a = None
    b = None
    if m_eq:
        a = rng.standard_normal((m_eq, n)) * col_mag[None, :]
        b = a @ x_feas
    lower = np.maximum(x_feas - rng.uniform(0.5, 2.0, n), 0.0)
    upper = x_feas + rng.uniform(0.5, 2.0, n)
    c = rng.standard_normal(n) * col_mag
    return pl.LpProblem(
        c=c,
        ineq_matrix=g,
        ineq_rhs=h,
        eq_matrix=a,
        eq_rhs=b,
        lower=lower,
        upper=upper,
        name=f"random_lp_seed{seed}",
    )


def assert_identical(a, b):
    """Two LpProblems are equal: vectors, CSR arrays, offset, sign and
    names."""
    for field in ("c", "ineq_rhs", "eq_rhs", "lower", "upper"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field), err_msg=field)
    for field in ("ineq_matrix", "eq_matrix"):
        x, y = getattr(a, field).tocsr(), getattr(b, field).tocsr()
        assert x.shape == y.shape, field
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(x, part), getattr(y, part), err_msg=f"{field}.{part}")
    assert a.objective_offset == b.objective_offset
    assert a.objective_sign == b.objective_sign
    assert a.name == b.name
    assert a.variable_names == b.variable_names
    assert a.constraint_names == b.constraint_names


def random_small_saddle(rng, max_total=6):
    """Tiny random saddle-form problem plus a feasible point, for gap tests."""
    n = int(rng.integers(1, 4))
    m1 = int(rng.integers(0, 3))
    m2 = int(rng.integers(0, 3))
    if n + m1 + m2 > max_total:
        m2 = max(0, max_total - n - m1)
    lower = np.where(rng.random(n) < 0.7, rng.uniform(-2, 0, n), -np.inf)
    upper = np.where(rng.random(n) < 0.7, rng.uniform(0.5, 3, n), np.inf)
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
    if m1:
        y[:m1] = np.abs(y[:m1])
    return saddle, x, y


def gap_oracle(saddle, x, y, radius):
    """Exhaustive normalized-gap oracle.

    Maximizes d'delta over the radius ball intersected with the feasible
    box by enumerating every clamp pattern (free / at lower / at upper per
    coordinate); the optimum's active set is one of the patterns, where the
    free block must be proportional to its gradient.  Exponential in the
    dimension, exact up to floating point.
    """
    d_x = saddle.K.rmatvec(y) - saddle.c
    d_y = saddle.q - saddle.K.matvec(x)
    d = np.concatenate([d_x, d_y])
    m1 = saddle.m1
    y_lo = np.full(y.shape[0], -np.inf)
    y_lo[:m1] = 0.0
    lo = np.concatenate([saddle.l - x, y_lo - y])
    hi = np.concatenate([saddle.u - x, np.full(y.shape[0], np.inf)])
    size = d.size
    best = 0.0
    for pattern in itertools.product((0, 1, 2), repeat=size):
        delta = np.zeros(size)
        clamped_sq = 0.0
        free = []
        feasible = True
        for i, p in enumerate(pattern):
            if p == 1:
                if not np.isfinite(lo[i]):
                    feasible = False
                    break
                delta[i] = lo[i]
                clamped_sq += lo[i] ** 2
            elif p == 2:
                if not np.isfinite(hi[i]):
                    feasible = False
                    break
                delta[i] = hi[i]
                clamped_sq += hi[i] ** 2
            else:
                free.append(i)
        if not feasible or clamped_sq > radius**2 * (1 + 1e-12):
            continue
        if free:
            df = d[free]
            norm_df = float(np.linalg.norm(df))
            if norm_df > 0:
                t = math.sqrt(max(radius**2 - clamped_sq, 0.0)) / norm_df
                delta[free] = t * df
        if np.all(delta >= lo - 1e-12) and np.all(delta <= hi + 1e-12):
            best = max(best, float(d @ delta))
    return best / radius


def dense_pdhg_step(c, k_dense, q, m1, lower, upper, x, y, eta, sigma):
    """Reference PDHG update in straight dense numpy, for trajectory checks."""
    x_new = np.clip(x - eta * (c - k_dense.T @ y), lower, upper)
    y_new = y + sigma * (q - k_dense @ (2.0 * x_new - x))
    if m1:
        y_new[:m1] = np.maximum(y_new[:m1], 0.0)
    return x_new, y_new


def toy_problem():
    return pl.generate_bilinear_toy()


@pytest.fixture
def toy_saddle():
    return pl.to_saddle(pl.generate_bilinear_toy())
