"""Differential test against HiGHS on random small LPs given as MPS text.

Each case is drawn as raw data (integer coefficients, mixed bounds, L, G,
E and ranged rows, MIN or MAX, an objective offset), written as MPS by the
test and parsed by ``parse_mps``.  The reference is
``scipy.optimize.linprog(method="highs")`` on the raw data, with the MPS
rules for RANGES, OBJSENSE and the objective's RHS restated here, so the
reader is checked along with the solver.  Per case:

- the verdict and objective of ``solve`` agree with HiGHS, under the
  default config and, for a share of the cases, under the fixed step with
  restarts (the PDHG restart to the epoch average);
- every certificate ray passes the re-checks below, written from the
  Farkas conditions and not from ``check_*_infeasible``;
- the problem after ``write_mps`` and ``parse_mps`` gets the same verdict.

Feasibility is planted in about two thirds of the cases: the right-hand
sides are built around an integer point in the box.  A second test takes
the same cases in other units: each row (coefficients, rhs, range) and the
cost multiplied by a power of two 2^e, e in [-12, 12], which changes
neither HiGHS's verdict nor, but for the factor, its objective.
"""

import numpy as np
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import pdhg_lp as pl

# slack on a certificate's residual and floor on its gain, for a unit ray of
# integer data
RAY_TOLERANCE = 1e-8
RAY_GAIN = 1e-6

FIXED_STEP = pl.SolverConfig(step=pl.StepPolicy(mode="fixed"))

@st.composite
def lp_cases(draw, columns=(1, 6), max_rows=6, coefficient=4):
    """Raw data of a small LP, (cost, rows, bounds, sense, offset), with
    rows as (kind, coefficients, rhs, range or None) and bounds as (lower,
    upper) with None for no bound; and whether to run the fixed step too.
    ``columns`` bounds the column count, and the coefficients are integers
    up to ``coefficient`` in magnitude."""
    coefficients = st.integers(-coefficient, coefficient)
    n = draw(st.integers(*columns))
    num_rows = draw(st.integers(0, max_rows))
    planted = draw(st.sampled_from((True, True, False)))
    bounds = []
    for _ in range(n):
        kind = draw(st.sampled_from(("default", "free", "boxed", "lower", "upper", "fixed")))
        a, b = sorted((draw(st.integers(-3, 3)), draw(st.integers(-3, 3))))
        bounds.append({
            "default": (0, None), "free": (None, None), "boxed": (a, b),
            "lower": (a, None), "upper": (None, b), "fixed": (a, a),
        }[kind])
    # the planted point: an integer in each column's box, within 3 of a
    # finite side
    point = []
    for lo, hi in bounds:
        lo = hi - 3 if lo is None and hi is not None else lo
        lo = -3 if lo is None else lo
        hi = lo + 3 if hi is None else hi
        point.append(draw(st.integers(lo, hi)))
    rows = []
    for _ in range(num_rows):
        coef = [draw(st.one_of(st.just(0), coefficients)) for _ in range(n)]
        kind = draw(st.sampled_from(("L", "G", "E", "GR", "LR", "ER")))
        span = draw(st.integers(-4, 4)) if kind.endswith("R") else None
        kind = kind[0]
        if planted:
            # rhs is the row's lower side (G, or E with R >= 0) or its upper
            # one, at most the range's width (3 unranged) from the point
            at = sum(a * x for a, x in zip(coef, point))
            room = abs(span) if span is not None else (0 if kind == "E" else 3)
            lower_side = kind == "G" or (kind == "E" and (span or 0) >= 0)
            rhs = at + (-1 if lower_side else 1) * draw(st.integers(0, room))
        else:
            rhs = draw(st.integers(-6, 6))
        rows.append((kind, coef, rhs, span))
    cost = [draw(coefficients) for _ in range(n)]
    sense = draw(st.sampled_from(("MIN", "MAX")))
    offset = draw(st.integers(-5, 5))
    also_fixed = draw(st.integers(0, 2)) == 0
    return cost, rows, bounds, sense, offset, also_fixed


def to_mps(cost, rows, bounds, sense, offset):
    """The case as free-format MPS text; every column has an objective
    entry, so none is lost."""
    lines = ["NAME case", "OBJSENSE", f"    {sense}", "ROWS", " N obj"]
    lines += [f" {kind} r{i}" for i, (kind, _, _, _) in enumerate(rows)]
    lines.append("COLUMNS")
    for j, c in enumerate(cost):
        lines.append(f"    x{j} obj {c}")
        lines += [f"    x{j} r{i} {coef[j]}" for i, (_, coef, _, _) in enumerate(rows) if coef[j]]
    # the objective's RHS is the negated offset
    lines += ["RHS", f"    rhs obj {-offset}"] + [f"    rhs r{i} {rhs}" for i, (_, _, rhs, _) in enumerate(rows)]
    lines += ["RANGES"] + [f"    rng r{i} {span}" for i, (_, _, _, span) in enumerate(rows) if span is not None]
    lines.append("BOUNDS")
    for j, (lo, hi) in enumerate(bounds):
        if lo is None and hi is None:
            lines.append(f" FR bnd x{j}")
        elif lo is not None and lo == hi:
            lines.append(f" FX bnd x{j} {lo}")
        else:
            lines.append(f" MI bnd x{j}" if lo is None else f" LO bnd x{j} {lo}")
            if hi is not None:
                lines.append(f" UP bnd x{j} {hi}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def row_sides(kind, rhs, span):
    """A row's (lower, upper) sides, None for no side, by the MPS rules: R
    widens a G row up to rhs + |R|, an L row down to rhs - |R|, and an E row
    to [rhs, rhs + R] or [rhs + R, rhs] by its sign."""
    if span is None:
        return {"L": (None, rhs), "G": (rhs, None), "E": (rhs, rhs)}[kind]
    if kind == "G":
        return rhs, rhs + abs(span)
    if kind == "L":
        return rhs - abs(span), rhs
    return (rhs, rhs + span) if span >= 0 else (rhs + span, rhs)


def highs_verdict(cost, rows, bounds, sense, offset):
    """("optimal", objective), ("infeasible", None) or ("unbounded", None)
    from HiGHS.  Feasibility is decided first, with a zero objective, so
    that HiGHS's "unbounded or infeasible" never stands as the answer.
    HiGHS runs without presolve, which calls some unbounded LPs infeasible
    (min x_3 over 0 <= x_3 + x_4 + x_5 <= 1, x_3 free and the rest >= 0)."""
    n = len(cost)
    a_ub, b_ub = [], []
    for kind, coef, rhs, span in rows:
        lo, hi = row_sides(kind, rhs, span)
        if hi is not None:
            a_ub.append(coef)
            b_ub.append(hi)
        if lo is not None:
            a_ub.append([-a for a in coef])
            b_ub.append(-lo)
    ub = {"A_ub": np.array(a_ub, dtype=float), "b_ub": np.array(b_ub, dtype=float)} if a_ub else {}
    sign = -1 if sense == "MAX" else 1
    highs = {"bounds": bounds, "method": "highs", "options": {"presolve": False}, **ub}
    feasible = scipy.optimize.linprog(np.zeros(n), **highs)
    assert feasible.status in (0, 2), feasible.message
    if feasible.status == 2:
        return "infeasible", None
    res = scipy.optimize.linprog(sign * np.array(cost, dtype=float), **highs)
    assert res.status in (0, 3), res.message
    if res.status == 0:
        return "optimal", sign * res.fun + offset
    return "unbounded", None  # a feasible LP that is not bounded


def scaled(case, row_exponents, cost_exponent):
    """The case with row i (coefficients, rhs, range) times 2^row_exponents[i]
    and the cost times 2^cost_exponent: the same LP in other units."""
    cost, rows, bounds, sense, offset, also_fixed = case
    rows = [
        (kind, [a * 2.0**e for a in coef], rhs * 2.0**e, None if span is None else span * 2.0**e)
        for (kind, coef, rhs, span), e in zip(rows, row_exponents)
    ]
    return [c * 2.0**cost_exponent for c in cost], rows, bounds, sense, offset, also_fixed


@st.composite
def scaled_lp_cases(draw):
    """A larger ``lp_cases`` draw, 4-20 columns, up to 20 rows and
    coefficients in [-6, 6], and an exponent in [-12, 12] for each of its
    rows and for its cost."""
    case = draw(lp_cases(columns=(4, 20), max_rows=20, coefficient=6))
    exponent = st.integers(-12, 12)
    return case, [draw(exponent) for _ in case[1]], draw(exponent)


def assert_farkas(problem, y, gain=RAY_GAIN):
    """The unit dual ray y proves {G x >= h, A x = b, l <= x <= u} empty:
    y's G part is nonnegative, and y'(h, b) exceeds the largest value of
    (K'y)'x over the box by ``gain``, where an entry of K'y is a free
    direction only up to the tolerance."""
    g, a = problem.ineq_matrix.toarray(), problem.eq_matrix.toarray()
    k, q, m1 = np.vstack((g, a)), np.concatenate((problem.ineq_rhs, problem.eq_rhs)), g.shape[0]
    assert abs(np.linalg.norm(y) - 1.0) <= 1e-12
    assert y[:m1].min(initial=0.0) >= -RAY_TOLERANCE
    r = k.T @ y
    top = 0.0
    for r_j, lo, hi in zip(r, problem.lower, problem.upper):
        side = hi if r_j > 0 else lo  # where r_j x_j is largest
        if np.isfinite(side):
            top += r_j * side
        else:
            assert abs(r_j) <= RAY_TOLERANCE
    assert q @ y - top >= gain


def assert_unbounded_ray(problem, d, gain=RAY_GAIN):
    """The unit primal ray d keeps every row and bound satisfied, G d >= 0,
    A d = 0 and d in the box's recession cone, and lowers the internal
    (minimized) objective c'x by ``gain``."""
    assert abs(np.linalg.norm(d) - 1.0) <= 1e-12
    assert (problem.ineq_matrix.toarray() @ d).min(initial=0.0) >= -RAY_TOLERANCE
    assert np.abs(problem.eq_matrix.toarray() @ d).max(initial=0.0) <= RAY_TOLERANCE
    assert d[np.isfinite(problem.lower)].min(initial=0.0) >= -RAY_TOLERANCE
    assert d[np.isfinite(problem.upper)].max(initial=0.0) <= RAY_TOLERANCE
    assert problem.c @ d <= -gain


def verdict(problem, config=None, gain=RAY_GAIN):
    """solve's (status, objective or None), after its certificate, if any,
    passes the re-check of its kind with ``gain``."""
    report = pl.solve(problem, config)
    if report.status == pl.STATUS_PRIMAL_INFEASIBLE:
        assert_farkas(problem, report.certificate["ray"], gain)
    elif report.status == pl.STATUS_DUAL_INFEASIBLE:
        assert_unbounded_ray(problem, report.certificate["ray"], gain)
    else:
        assert report.status == pl.STATUS_OPTIMAL, report.reason
        return report.status, report.objective_value
    return report.status, None


def assert_agrees(got, want):
    """solve's verdict is HiGHS's.  An infeasible LP whose dual is also
    infeasible may be reported either way; the ray was checked."""
    status, objective = got
    kind, value = want
    if kind == "optimal":
        assert status == pl.STATUS_OPTIMAL
        assert abs(objective - value) <= 1e-6 * (1.0 + abs(value))
    elif kind == "unbounded":
        assert status == pl.STATUS_DUAL_INFEASIBLE
    else:
        assert status in (pl.STATUS_PRIMAL_INFEASIBLE, pl.STATUS_DUAL_INFEASIBLE)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lp_cases())
def test_verdicts_agree_with_highs(case):
    cost, rows, bounds, sense, offset, also_fixed = case
    want = highs_verdict(cost, rows, bounds, sense, offset)
    problem = pl.parse_mps(to_mps(cost, rows, bounds, sense, offset))
    got = verdict(problem)
    assert_agrees(got, want)
    again = verdict(pl.parse_mps(pl.write_mps(problem)))
    assert again[0] == got[0]
    if got[1] is not None:
        assert abs(again[1] - got[1]) <= 1e-6 * (1.0 + abs(got[1]))
    if also_fixed:
        assert_agrees(verdict(problem, FIXED_STEP), want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scaled_lp_cases())
def test_verdicts_agree_with_highs_in_any_units(draw):
    # HiGHS solves the case as drawn; a ray's gain floor shrinks with the
    # smallest factor, since a unit ray of the scaled data is the scaled
    # image of a ray of the drawn data
    case, row_exponents, cost_exponent = draw
    cost, rows, bounds, sense, offset, also_fixed = scaled(case, row_exponents, cost_exponent)
    kind, value = highs_verdict(*case[:5])
    want = kind, None if value is None else 2.0**cost_exponent * (value - offset) + offset
    problem = pl.parse_mps(to_mps(cost, rows, bounds, sense, offset))
    gain = RAY_GAIN * 2.0 ** min(row_exponents + [cost_exponent])
    assert_agrees(verdict(problem, gain=gain), want)
    if also_fixed:
        assert_agrees(verdict(problem, FIXED_STEP, gain), want)
