"""Round-trip properties of the MPS writer and reader, error lines deep in
large sections, and the names the writer refuses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdhg_lp as pl
from pdhg_lp import mps, parse_mps, write_mps

# -- round trip -----------------------------------------------------------------

doubles = st.floats(allow_nan=False, allow_infinity=False)
coefficients = st.one_of(st.just(0.0), doubles)  # zero often, so columns go empty
# Half the name lists are unique and free of separators and control
# characters; the other half may hold anything, and mostly names the writer
# has to refuse.
clean_names = st.text(st.characters(exclude_categories=("Cs", "Z", "Cc")), min_size=1, max_size=6)
any_names = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)


def name_lists(k):
    return st.one_of(
        st.lists(clean_names, min_size=k, max_size=k, unique=True),
        st.lists(any_names, min_size=k, max_size=k),
    )


def bound_pair(draw):
    kind = draw(st.sampled_from(["default", "free", "boxed", "fixed", "lower", "upper", "default_lower_upper"]))
    if kind == "default":
        return 0.0, np.inf
    if kind == "free":
        return -np.inf, np.inf
    if kind == "boxed":
        lo, hi = sorted([draw(doubles), draw(doubles)])
        return lo, hi
    if kind == "fixed":
        v = draw(doubles)
        return v, v
    if kind == "lower":
        return draw(doubles), np.inf
    if kind == "upper":
        return -np.inf, draw(doubles)
    # any upper bound, negative ones included, on a column with the default lower bound
    return 0.0, draw(doubles)


@st.composite
def lp_problems(draw):
    n = draw(st.integers(1, 5))
    m1 = draw(st.integers(0, 4))
    m2 = draw(st.integers(0, 3))

    def matrix(rows):
        return np.array([[draw(coefficients) for _ in range(n)] for _ in range(rows)]).reshape(rows, n)

    bounds = [bound_pair(draw) for _ in range(n)]
    problem_name = draw(clean_names)
    return pl.LpProblem(
        c=[draw(coefficients) for _ in range(n)],
        ineq_matrix=matrix(m1),
        ineq_rhs=[draw(coefficients) for _ in range(m1)],
        eq_matrix=matrix(m2),
        eq_rhs=[draw(coefficients) for _ in range(m2)],
        lower=[lo for lo, _ in bounds],
        upper=[hi for _, hi in bounds],
        objective_offset=draw(coefficients),
        objective_sign=draw(st.sampled_from([1, -1])),
        name=problem_name,
        variable_names=draw(name_lists(n)),
        constraint_names=draw(name_lists(m1 + m2)),
    )


def writable(names, columns):
    """The writer's contract, restated: non-empty, no whitespace, unique; no
    'MARKER'; no column name starting with '*'."""
    return (
        len(set(names)) == len(names)
        and all(name and not any(ch.isspace() for ch in name) for name in names)
        and "'MARKER'" not in names
        and not (columns and any(name.startswith("*") for name in names))
    )


def assert_identical(a, b):
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


@settings(max_examples=300, deadline=None)
@given(lp_problems())
def test_write_then_parse_returns_the_same_problem(problem):
    if not (writable(problem.variable_names, True) and writable(problem.constraint_names, False)):
        with pytest.raises(pl.MpsNameError):
            write_mps(problem)
        return
    text = write_mps(problem)
    back = parse_mps(text)
    assert_identical(problem, back)
    assert write_mps(back) == text


# -- error lines deep inside a large COLUMNS section ------------------------------


@pytest.fixture(scope="module")
def pagerank_lines():
    problem = pl.generate_pagerank(pl.PagerankSpec(num_nodes=2000, seed=3))
    return write_mps(problem).split("\n")


def columns_span(lines):
    start = lines.index("COLUMNS") + 1
    return start, lines.index("RHS")


def plant(lines, index, field, token):
    fields = lines[index].split()
    fields[field] = token
    out = list(lines)
    out[index] = "    " + "   ".join(fields)
    return "\n".join(out)


@pytest.fixture(params=[None, 4096], ids=["one_chunk", "4k_chunks"])
def chunk_bytes(request, monkeypatch):
    # small chunks put the planted lines far from the start of their chunk
    if request.param is not None:
        monkeypatch.setattr(mps, "_CHUNK_BYTES", request.param)


class TestLargeBlockErrorLines:
    def test_bad_literal(self, pagerank_lines, chunk_bytes):
        start, stop = columns_span(pagerank_lines)
        k = start + (stop - start) * 3 // 4
        with pytest.raises(pl.MpsSyntaxError) as err:
            parse_mps(plant(pagerank_lines, k, 2, "1.5x"))
        assert err.value.line_no == k + 1
        assert "1.5x" in str(err.value)

    def test_unknown_row(self, pagerank_lines, chunk_bytes):
        start, stop = columns_span(pagerank_lines)
        k = start + (stop - start) * 2 // 3 + 1
        with pytest.raises(pl.UnknownRowReference) as err:
            parse_mps(plant(pagerank_lines, k, 1, "NOPE"))
        assert err.value.line_no == k + 1

    def test_duplicate_coefficient(self, pagerank_lines, chunk_bytes):
        # repeat the tenth coefficient line far below its first appearance
        start, stop = columns_span(pagerank_lines)
        k = stop - 17
        lines = list(pagerank_lines)
        lines[k] = lines[start + 9]
        with pytest.raises(pl.DuplicateColumn) as err:
            parse_mps("\n".join(lines))
        assert err.value.line_no == k + 1

    def test_first_fault_in_file_order_wins(self, pagerank_lines, chunk_bytes):
        start, stop = columns_span(pagerank_lines)
        dup, bad = stop - 300, stop - 20
        lines = list(pagerank_lines)
        lines[dup] = lines[start]
        text = plant(lines, bad, 1, "NOPE")
        with pytest.raises(pl.DuplicateColumn) as err:
            parse_mps(text)
        assert err.value.line_no == dup + 1


# -- names the writer cannot write ----------------------------------------------


def two_column_lp(**names):
    return pl.LpProblem(c=[1.0, 2.0], ineq_matrix=[[1.0, 1.0]], ineq_rhs=[1.0], **names)


class TestUnwritableNames:
    def test_whitespace_in_variable_name(self):
        with pytest.raises(pl.MpsNameError, match="'a b'"):
            write_mps(two_column_lp(variable_names=["a b", "c"]))

    def test_whitespace_in_constraint_name(self):
        with pytest.raises(pl.MpsNameError, match="'r 1'"):
            write_mps(two_column_lp(constraint_names=["r 1"]))

    def test_duplicate_variable_names(self):
        with pytest.raises(pl.MpsNameError, match="duplicate"):
            write_mps(two_column_lp(variable_names=["x", "x"]))

    def test_empty_name(self):
        with pytest.raises(pl.MpsNameError, match="empty"):
            write_mps(two_column_lp(variable_names=["x", ""]))

    def test_column_name_read_as_comment(self):
        with pytest.raises(pl.MpsNameError, match=r"'\*x'"):
            write_mps(two_column_lp(variable_names=["*x", "y"]))

    def test_is_a_solver_error(self):
        assert issubclass(pl.MpsNameError, pl.SolverError)
