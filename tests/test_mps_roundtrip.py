"""Round-trip properties of the MPS writer and reader, error lines deep in
large sections, and the names the writer refuses."""

import hashlib
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdhg_lp as pl
from pdhg_lp import mps, parse_mps, write_mps

from conftest import assert_identical

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
    problem_name = draw(st.one_of(clean_names, any_names))
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


@settings(max_examples=300, deadline=None)
@given(lp_problems())
def test_write_then_parse_returns_the_same_problem(problem):
    if not (
        writable(problem.variable_names, True)
        and writable(problem.constraint_names, False)
        and not any(ch.isspace() for ch in problem.name)
    ):
        with pytest.raises(pl.MpsNameError):
            write_mps(problem)
        return
    text = write_mps(problem)
    back = parse_mps(text)
    assert back.name == (problem.name or "LP")  # an empty name is written as LP
    back.name = problem.name
    assert_identical(problem, back)
    assert write_mps(back) == text
    with mock.patch.object(mps, "_CHUNK_BYTES", 64):  # lines cut across many blocks
        small_blocks = parse_mps(text)
    small_blocks.name = problem.name
    assert_identical(problem, small_blocks)
    out = io.StringIO()
    assert write_mps(problem, out=out) == len(text)
    assert out.getvalue() == text


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


# -- memory ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def pagerank_file(tmp_path_factory):
    """The n=5e4 PageRank problem and its MPS file, written a piece at a time."""
    problem = pl.generate_pagerank(pl.PagerankSpec(num_nodes=50_000, seed=0))
    path = tmp_path_factory.mktemp("mps") / "pagerank.mps"
    with open(path, "w") as fh:
        write_mps(problem, out=fh)
    return problem, path


def traced_peak(fn):
    """Peak bytes that Python allocations reach while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_streamed_file_is_the_pinned_text(self, pagerank_file):
        _, path = pagerank_file
        assert hashlib.md5(path.read_bytes()).hexdigest() == "b9b2c4ce77a971784af852adb358abf0"

    def test_reader_peak(self, pagerank_file):
        # read in 256 KB blocks, RHS and RANGES kept as arrays and the name
        # maps dropped before G is formed: about 1.3 times the 19.8 MB file;
        # 2 MB blocks, an RHS dict and the maps held to the end took 2.0
        # times, and holding the whole text and every entry's line number 4.9
        _, path = pagerank_file
        with open(path, "rb") as fh:
            peak = traced_peak(lambda: parse_mps(fh))
        assert peak <= 1.6 * path.stat().st_size

    def test_writer_peak(self, pagerank_file, tmp_path):
        # written a piece at a time, generated names and column fields formed
        # per chunk: about 0.75 times the file; lists of every name and
        # column field took 1.4 times, and joining the text and sorting every
        # entry's column 3.7 times
        problem, path = pagerank_file
        with open(tmp_path / "again.mps", "w") as fh:
            peak = traced_peak(lambda: write_mps(problem, out=fh))
        assert peak <= 1.0 * path.stat().st_size


# -- names the writer cannot write ----------------------------------------------


def two_column_lp(**names):
    return pl.LpProblem(c=[1.0, 2.0], ineq_matrix=[[1.0, 1.0]], ineq_rhs=[1.0], **names)


class TestGeneratedNames:
    def problem(self, **names):
        return pl.LpProblem(
            c=[1.0, 0.0, -2.0],
            ineq_matrix=[[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]],
            ineq_rhs=[1.0, -1.0],
            eq_matrix=[[1.0, 1.0, 1.0]],
            eq_rhs=[3.0],
            lower=[-1.0, 0.0, -np.inf],
            upper=[2.0, np.inf, 5.0],
            objective_offset=0.5,
            **names,
        )

    @pytest.mark.parametrize("chunk", [1, 2, 1 << 14])
    def test_same_text_as_the_generated_names_given(self, chunk, monkeypatch):
        monkeypatch.setattr(mps, "_WRITE_CHUNK", chunk)
        given = self.problem(variable_names=["X0", "X1", "X2"], constraint_names=["R0", "R1", "E0"])
        text = write_mps(self.problem())
        assert text == write_mps(given)
        assert parse_mps(text).constraint_names == ["R0", "R1", "E0"]

    @pytest.mark.parametrize("names, objective", [(["OBJ", "R1", "E0"], "_OBJ"), (["_OBJ", "x", "OBJ"], "__OBJ")])
    def test_constraint_named_obj_moves_the_objective_row(self, names, objective):
        text = write_mps(self.problem(constraint_names=names))
        assert f" N  {objective}\n" in text
        back = parse_mps(text)
        assert back.constraint_names == names
        assert back.objective_offset == 0.5
        assert_identical(parse_mps(write_mps(back)), back)

    def test_generated_objective_row_is_obj(self):
        assert " N  OBJ\n" in write_mps(self.problem())


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

    def test_whitespace_in_problem_name(self):
        with pytest.raises(pl.MpsNameError, match="'two words'"):
            write_mps(two_column_lp(name="two words"))
        with pytest.raises(pl.MpsNameError, match="problem name"):
            write_mps(two_column_lp(name="a\tb"))

    def test_empty_problem_name_reads_back_as_lp(self):
        assert parse_mps(write_mps(two_column_lp(name=""))).name == "LP"

    def test_column_name_read_as_comment(self):
        with pytest.raises(pl.MpsNameError, match=r"'\*x'"):
            write_mps(two_column_lp(variable_names=["*x", "y"]))

    def test_is_a_solver_error(self):
        assert issubclass(pl.MpsNameError, pl.SolverError)
