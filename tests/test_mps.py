import io
import re
import warnings

import numpy as np
import pytest

import pdhg_lp as pl
from pdhg_lp import MpsDialect, parse_mps, read_mps, write_mps

from conftest import assert_identical, random_feasible_lp

FIXTURE = """\
* exercise every supported section
NAME          TESTLP
ROWS
 N  COST
 G  GROW
 L  LROW
 E  EROW
COLUMNS
    X1        COST      1.0            GROW      2.0
    X1        LROW      1.0
    X2        COST      -1.0           EROW      1.0
    X2        GROW      1.0
    X3        EROW      2.0            LROW      -1.0
RHS
    RHS       GROW      4.0            LROW      6.0
    RHS       EROW      3.0            COST      5.0
BOUNDS
 UP BND       X1        10.0
 LO BND       X2        -2.0
 FR BND       X3
ENDATA
"""


class TestParseFixture:
    def test_full_fixture(self):
        p = parse_mps(FIXTURE)
        assert p.name == "TESTLP"
        assert p.variable_names == ["X1", "X2", "X3"]
        np.testing.assert_array_equal(p.c, [1.0, -1.0, 0.0])
        # objective-row RHS of 5 shifts the objective by -5
        assert p.objective_offset == -5.0
        assert p.objective_sign == 1
        # GROW stays a >= row; LROW (<=) is negated into >= form
        np.testing.assert_array_equal(
            p.ineq_matrix.toarray(), [[2.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]
        )
        np.testing.assert_array_equal(p.ineq_rhs, [4.0, -6.0])
        np.testing.assert_array_equal(p.eq_matrix.toarray(), [[0.0, 1.0, 2.0]])
        np.testing.assert_array_equal(p.eq_rhs, [3.0])
        np.testing.assert_array_equal(p.lower, [0.0, -2.0, -np.inf])
        np.testing.assert_array_equal(p.upper, [10.0, np.inf, np.inf])
        assert p.constraint_names == ["GROW", "LROW", "EROW"]

    def test_bytes_and_crlf_input(self):
        blob = FIXTURE.replace("\n", "\r\n").encode()
        p = parse_mps(blob)
        np.testing.assert_array_equal(p.c, [1.0, -1.0, 0.0])

    def test_fortran_exponents(self):
        text = FIXTURE.replace("GROW      2.0", "GROW      2.0D-01")
        p = parse_mps(text)
        assert p.ineq_matrix.toarray()[0, 0] == pytest.approx(0.2)

    def test_missing_endata_warns(self):
        with pytest.warns(UserWarning, match="ENDATA"):
            parse_mps(FIXTURE.replace("ENDATA\n", ""))


RANGED = """\
NAME RANGED
ROWS
 N  OBJ
 G  RG
 L  RL
 E  REPOS
 E  RENEG
COLUMNS
    X         OBJ       1.0
    X         RG        1.0        RL        1.0
    X         REPOS     1.0        RENEG     1.0
RHS
    RHS       RG        2.0        RL        2.0
    RHS       REPOS     1.0        RENEG     1.0
RANGES
    RNG       RG        3.0        RL        3.0
    RNG       REPOS     4.0        RENEG     -4.0
ENDATA
"""


class TestRanges:
    def test_ranged_rows_split_into_intervals(self):
        p = parse_mps(RANGED)
        assert p.num_equalities == 0  # every ranged row became two G rows
        rows = dict(zip(p.constraint_names, zip(p.ineq_matrix.toarray(), p.ineq_rhs)))
        # G row with rhs h and range R means h <= a'x <= h + |R|
        np.testing.assert_array_equal(rows["RG"][0], [1.0])
        assert rows["RG"][1] == 2.0
        np.testing.assert_array_equal(rows["RG__rng"][0], [-1.0])
        assert rows["RG__rng"][1] == -5.0
        # L row: h - |R| <= a'x <= h
        np.testing.assert_array_equal(rows["RL"][0], [-1.0])
        assert rows["RL"][1] == -2.0
        np.testing.assert_array_equal(rows["RL__rng"][0], [1.0])
        assert rows["RL__rng"][1] == -1.0
        # E row with positive range: [h, h + R]
        assert rows["REPOS"][1] == 1.0
        assert rows["REPOS__rng"][1] == -5.0
        # E row with negative range: [h + R, h]
        assert rows["RENEG"][1] == -3.0
        assert rows["RENEG__rng"][1] == -1.0

    def test_zero_range_on_equality_is_noop(self):
        text = RANGED.replace("REPOS     4.0", "REPOS     0.0")
        p = parse_mps(text)
        assert "REPOS" not in p.constraint_names[: p.num_inequalities] or (
            p.num_equalities == 1
        )
        assert p.num_equalities == 1

    def test_range_on_objective_rejected(self):
        text = RANGED.replace("RNG       RG        3.0", "RNG       OBJ       3.0")
        with pytest.raises(pl.MpsSyntaxError):
            parse_mps(text)


class TestErrors:
    def test_duplicate_row(self):
        text = FIXTURE.replace(" L  LROW", " L  GROW")
        with pytest.raises(pl.DuplicateRow) as err:
            parse_mps(text)
        assert err.value.line_no == 6

    def test_duplicate_coefficient(self):
        text = FIXTURE.replace("X1        LROW      1.0", "X1        GROW      1.0")
        with pytest.raises(pl.DuplicateColumn):
            parse_mps(text)

    def test_unknown_row_reference(self):
        text = FIXTURE.replace("X1        LROW      1.0", "X1        NOPE      1.0")
        with pytest.raises(pl.UnknownRowReference):
            parse_mps(text)

    def test_unknown_row_in_rhs(self):
        text = FIXTURE.replace("RHS       EROW", "RHS       NOPE")
        with pytest.raises(pl.UnknownRowReference):
            parse_mps(text)

    def test_bad_number_reports_line(self):
        text = FIXTURE.replace("GROW      4.0", "GROW      4.0x")
        with pytest.raises(pl.MpsSyntaxError) as err:
            parse_mps(text)
        assert err.value.line_no == 15  # the first RHS data line
        assert "4.0x" in str(err.value)

    def test_unknown_section(self):
        with pytest.raises(pl.MpsSyntaxError):
            parse_mps("GARBAGE\n")

    def test_data_before_section(self):
        with pytest.raises(pl.MpsSyntaxError):
            parse_mps("    X1 COST 1.0\n")

    def test_missing_objective_row(self):
        text = "NAME T\nROWS\n G  R1\nCOLUMNS\n    X R1 1.0\nENDATA\n"
        with pytest.raises(pl.MpsSyntaxError):
            parse_mps(text)

    def test_unknown_bound_code(self):
        text = FIXTURE.replace(" UP BND", " XX BND")
        with pytest.raises(pl.MpsSyntaxError):
            parse_mps(text)

    @pytest.mark.parametrize(
        "edits, error, message, line",
        [
            ({" G  GROW": " G  GROW  EXTRA"}, pl.MpsSyntaxError, "ROWS line needs 2 fields, got 3", 5),
            ({" E  EROW": " EROW"}, pl.MpsSyntaxError, "ROWS line needs 2 fields, got 1", 7),
            ({" L  LROW": " X  LROW"}, pl.MpsSyntaxError, "unknown row type 'X'", 6),
            ({" L  LROW": " L  COST"}, pl.DuplicateRow, "row 'COST' declared twice", 6),
            # of several faults, the first in file order, whatever its kind
            ({" G  GROW": " Q  GROW", " E  EROW": " E"}, pl.MpsSyntaxError, "unknown row type 'Q'", 5),
            ({" L  LROW": " L  COST", " E  EROW": " E  EROW  X"}, pl.DuplicateRow, "row 'COST' declared twice", 6),
            ({" G  GROW": " G", " L  LROW": " Z  LROW"}, pl.MpsSyntaxError, "ROWS line needs 2 fields, got 1", 5),
            ({" L  LROW": " LG  LROW", " E  EROW": " E  GROW"}, pl.MpsSyntaxError, "unknown row type 'LG'", 6),
        ],
    )
    def test_rows_faults(self, edits, error, message, line):
        text = FIXTURE
        for old, new in edits.items():
            text = text.replace(old + "\n", new + "\n")
        for block_bytes in (None, 16):
            (kind, text_of_error, line_no), _ = outcome(text, block_bytes=block_bytes)
            assert (kind, text_of_error, line_no) == (error, f"line {line}: {message}", line)

    def test_rows_types_in_lower_case_and_extra_objective_rows(self):
        text = FIXTURE.replace(" N  COST\n G  GROW\n", " n  COST\n g  GROW\n N  SPARE\n")
        p = parse_mps(text)
        reference = parse_mps(FIXTURE)
        assert p.constraint_names == reference.constraint_names
        np.testing.assert_array_equal(p.c, reference.c)

    def test_errors_are_parse_errors(self):
        assert issubclass(pl.DuplicateRow, pl.MpsParseError)
        assert issubclass(pl.MpsSyntaxError, pl.MpsParseError)


class TestBounds:
    def bound_fixture(self, bound_lines):
        cols = "\n".join(
            f"    X{j}        OBJ       1.0" for j in range(1, 4)
        )
        return (
            "NAME B\nROWS\n N  OBJ\nCOLUMNS\n"
            + cols
            + "\nBOUNDS\n"
            + bound_lines
            + "\nENDATA\n"
        )

    def test_negative_upper_frees_default_lower(self):
        # UP with a negative value on an untouched column drops the lower
        # bound to -inf; an explicit LO beforehand keeps it
        text = self.bound_fixture(
            " UP BND       X1        -5.0\n"
            " LO BND       X2        0.0\n"
            " UP BND       X2        -5.0"
        )
        p = parse_mps(text)
        assert p.lower[0] == -np.inf and p.upper[0] == -5.0
        assert p.lower[1] == 0.0 and p.upper[1] == -5.0

    def test_fx_mi_pl(self):
        text = self.bound_fixture(
            " FX BND       X1        2.5\n"
            " MI BND       X2\n"
            " PL BND       X3"
        )
        p = parse_mps(text)
        assert p.lower[0] == p.upper[0] == 2.5
        assert p.lower[1] == -np.inf and p.upper[1] == np.inf
        assert p.lower[2] == 0.0 and p.upper[2] == np.inf

    def test_bv_marks_binary_and_warns(self):
        text = self.bound_fixture(" BV BND       X1")
        with pytest.warns(UserWarning, match="integer"):
            p = parse_mps(text)
        assert p.lower[0] == 0.0 and p.upper[0] == 1.0

    def test_bound_on_unknown_column(self):
        text = self.bound_fixture(" UP BND       NOPE      1.0")
        with pytest.raises(pl.MpsSyntaxError):
            parse_mps(text)


# One column, one ranged L row; each case replaces one field of it.
FINITE = """\
NAME NF
ROWS
 N  OBJ
 L  LIM
COLUMNS
    X1  OBJ  1.0  LIM  1.0
RHS
    RHS  LIM  4.0
RANGES
    RNG  LIM  2.0
BOUNDS
 UP BND  X1  3.0
ENDATA
"""


class TestNonFiniteData:
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("OBJ  1.0", "OBJ  inf", "c contains non-finite entries"),
            ("OBJ  1.0", "OBJ  nan", "c contains non-finite entries"),
            ("LIM  4.0", "LIM  inf", "ineq_rhs contains non-finite entries"),
            ("LIM  4.0", "LIM  nan", "ineq_rhs contains non-finite entries"),
            ("LIM  2.0", "LIM  -inf", "ineq_rhs contains non-finite entries"),
            ("LIM  2.0", "LIM  nan", "ineq_rhs contains non-finite entries"),
            ("UP BND  X1  3.0", "LO BND  X1  nan", "lower contains NaN or +inf entries"),
            ("UP BND  X1  3.0", "LO BND  X1  inf", "lower contains NaN or +inf entries"),
            ("UP BND  X1  3.0", "UP BND  X1  -inf", "upper contains NaN or -inf entries"),
            ("UP BND  X1  3.0", "FX BND  X1  inf", "lower contains NaN or +inf entries"),
        ],
        ids=["inf_cost", "nan_cost", "inf_rhs", "nan_rhs", "inf_range", "nan_range",
             "nan_lower", "inf_lower", "minus_inf_upper", "inf_fixed"],
    )
    def test_rejected_as_validate_rejects_it(self, old, new, message):
        # the reader returns only problems that write_mps and solve take
        assert parse_mps(FINITE).upper.tolist() == [3.0]
        text = FINITE.replace(old, new)
        assert text != FINITE
        with pytest.raises(pl.NonFiniteData, match=f"^{re.escape(message)}$"):
            parse_mps(text)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_objective_offset_rejected(self, value):
        # the objective row's right-hand side is minus the offset; validate,
        # and with it the reader, the writer and solve, refuse it
        message = "^objective_offset is not finite$"
        with pytest.raises(pl.NonFiniteData, match=message):
            parse_mps(FINITE.replace("RHS  LIM  4.0", f"RHS  LIM  4.0\n    RHS  OBJ  {value}"))
        problem = pl.LpProblem(c=[1.0], objective_offset=float(value))
        for refuse in (pl.validate, write_mps, pl.solve):
            with pytest.raises(pl.NonFiniteData, match=message):
                refuse(problem)

    def test_crossed_bounds_still_parse(self):
        # an infeasible LP, which write_mps writes and the reader takes back
        problem = parse_mps(FINITE.replace(" UP BND  X1  3.0", " LO BND  X1  5.0\n UP BND  X1  3.0"))
        assert (problem.lower.tolist(), problem.upper.tolist()) == ([5.0], [3.0])
        with pytest.raises(pl.InconsistentBounds):
            pl.validate(problem)


INTEGER = """\
NAME INT
ROWS
 N  OBJ
 G  R1
COLUMNS
    XC        OBJ       1.0        R1        1.0
    MARKER                 'MARKER'                 'INTORG'
    XI        OBJ       1.0        R1        1.0
    MARKER                 'MARKER'                 'INTEND'
RHS
    RHS       R1        1.0
ENDATA
"""


class TestIntegerHandling:
    def test_relaxed_with_warning(self):
        with pytest.warns(UserWarning, match="relaxed"):
            p = parse_mps(INTEGER)
        assert p.num_variables == 2


class TestObjsense:
    def test_max_flips_objective(self):
        text = FIXTURE.replace("NAME          TESTLP", "NAME          TESTLP\nOBJSENSE\n    MAX")
        p = parse_mps(text)
        np.testing.assert_array_equal(p.c, [-1.0, 1.0, 0.0])
        assert p.objective_sign == -1
        assert p.objective_offset == 5.0

    def test_max_on_header_line(self):
        text = FIXTURE.replace("NAME          TESTLP", "NAME          TESTLP\nOBJSENSE MAXIMIZE")
        assert parse_mps(text).objective_sign == -1

    def test_reported_objective_uses_original_sense(self):
        # max x subject to x <= 3
        text = (
            "NAME M\nOBJSENSE\n    MAX\nROWS\n N  OBJ\n L  CAP\n"
            "COLUMNS\n    X         OBJ       1.0        CAP       1.0\n"
            "RHS\n    RHS       CAP       3.0\nENDATA\n"
        )
        report = pl.solve(parse_mps(text))
        assert report.status == pl.STATUS_OPTIMAL
        assert report.objective_value == pytest.approx(3.0, abs=1e-6)


def fixed_line(f1="", f2="", f3="", f4="", f5="", f6=""):
    line = [" "] * 61
    for text, (a, b) in zip((f1, f2, f3, f4, f5, f6), [(1, 3), (4, 12), (14, 22), (24, 36), (39, 47), (49, 61)]):
        line[a : a + len(text)] = list(text)
    return "".join(line).rstrip()


class TestFixedFormat:
    def test_names_with_spaces(self):
        # fixed columns allow blanks inside names, free format would split them
        text = "\n".join(
            [
                "NAME FIXED",
                "ROWS",
                fixed_line("N", "THE OBJ"),
                fixed_line("G", "ROW 1"),
                "COLUMNS",
                fixed_line("", "MY VAR", "THE OBJ", "1.5", "ROW 1", "2.0"),
                "RHS",
                fixed_line("", "RHS", "ROW 1", "4.0"),
                "ENDATA",
            ]
        )
        p = parse_mps(text, MpsDialect(fixed_columns=True))
        assert p.variable_names == ["MY VAR"]
        assert p.constraint_names == ["ROW 1"]
        np.testing.assert_array_equal(p.c, [1.5])
        np.testing.assert_array_equal(p.ineq_matrix.toarray(), [[2.0]])
        np.testing.assert_array_equal(p.ineq_rhs, [4.0])

    def test_free_and_fixed_agree_on_plain_file(self):
        a = parse_mps(FIXTURE)
        b = parse_mps(FIXTURE, MpsDialect(fixed_columns=True))
        np.testing.assert_array_equal(a.c, b.c)
        np.testing.assert_array_equal(a.ineq_matrix.toarray(), b.ineq_matrix.toarray())
        np.testing.assert_array_equal(a.lower, b.lower)


class TestWriter:
    def assert_problems_equal(self, a, b):
        np.testing.assert_array_equal(a.c, b.c)
        np.testing.assert_array_equal(a.ineq_matrix.toarray(), b.ineq_matrix.toarray())
        np.testing.assert_array_equal(a.ineq_rhs, b.ineq_rhs)
        np.testing.assert_array_equal(a.eq_matrix.toarray(), b.eq_matrix.toarray())
        np.testing.assert_array_equal(a.eq_rhs, b.eq_rhs)
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)
        assert a.objective_offset == b.objective_offset
        assert a.objective_sign == b.objective_sign

    def test_round_trip_random_problems(self):
        for seed in range(5):
            problem = random_feasible_lp(seed, n=7, m_ineq=4, m_eq=2, spread=1.0)
            back = parse_mps(write_mps(problem))
            self.assert_problems_equal(problem, back)

    def test_round_trip_fixture(self):
        problem = parse_mps(FIXTURE)
        back = parse_mps(write_mps(problem))
        self.assert_problems_equal(problem, back)
        assert back.variable_names == problem.variable_names

    def test_round_trip_bounds_and_offset(self):
        problem = pl.LpProblem(
            c=[1.0, 2.0, -0.5, 0.0],
            ineq_matrix=[[1.0, 0.0, 2.0, 0.0]],
            ineq_rhs=[1.0],
            lower=[0.0, -np.inf, 1.5, -2.0],
            upper=[np.inf, np.inf, 1.5, 3.0],
            objective_offset=2.5,
            name="bounds_case",
        )
        back = parse_mps(write_mps(problem))
        self.assert_problems_equal(problem, back)

    def test_round_trip_maximization(self):
        problem = pl.LpProblem(
            c=[-2.0],
            ineq_matrix=[[-1.0]],
            ineq_rhs=[-3.0],
            objective_offset=-1.0,
            objective_sign=-1,
            name="maxcase",
        )
        text = write_mps(problem)
        assert "OBJSENSE" in text
        back = parse_mps(text)
        self.assert_problems_equal(problem, back)
        assert pl.solve(back).objective_value == pytest.approx(7.0, abs=1e-6)

    def test_round_trip_exact_doubles(self):
        # %.17g preserves doubles bit for bit
        problem = pl.LpProblem(
            c=[1.0 / 3.0],
            eq_matrix=[[np.pi]],
            eq_rhs=[np.e],
            lower=[0.1 + 0.2],
        )
        back = parse_mps(write_mps(problem))
        assert back.c[0] == problem.c[0]
        assert back.eq_matrix.toarray()[0, 0] == np.pi
        assert back.eq_rhs[0] == np.e
        assert back.lower[0] == 0.1 + 0.2

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("distinct", [0, 400])
    def test_columns_match_a_per_value_reference(self, chunk, distinct, monkeypatch):
        # many repeated coefficients, plus doubles that differ only in the
        # last bits (0.1 + 0.2 against 0.3, 1.0 against the next double):
        # each must be written as its own %.17g text, also when the lines
        # are formatted a few at a time and when most values are distinct
        if chunk:
            monkeypatch.setattr(pl.mps, "_WRITE_CHUNK", chunk)
        rng = np.random.default_rng(0)
        pool = np.concatenate([[1.0, -1.0, 0.5, 0.3, -0.3, 2.0 / 3.0, 1e-300], rng.standard_normal(distinct)])
        n, m1, m2 = 40, 25, 5

        def matrix(rows):
            values = rng.choice(pool, size=(rows, n))
            return np.where(rng.random((rows, n)) < 0.3, values, 0.0)

        g, a, c = matrix(m1), matrix(m2), matrix(1)[0]
        g[1, 1:5] = [0.3, 0.1 + 0.2, 1.0, np.nextafter(1.0, 2.0)]
        g[:, 0] = a[:, 0] = c[0] = 0.0  # an empty column, written with a zero cost
        problem = pl.LpProblem(c=c, ineq_matrix=g, ineq_rhs=np.zeros(m1), eq_matrix=a, eq_rhs=np.zeros(m2))
        expected = []
        for j in range(n):
            entries = [("OBJ", c[j])] if c[j] != 0.0 or not (g[:, j].any() or a[:, j].any()) else []
            entries += [(f"R{i}", g[i, j]) for i in np.flatnonzero(g[:, j])]
            entries += [(f"E{i}", a[i, j]) for i in np.flatnonzero(a[:, j])]
            expected += [f"    {f'X{j}':<10} {row:<10} {float(v):.17g}" for row, v in entries]
        assert {"0.30000000000000004", "0.29999999999999999", "1.0000000000000002", "1"} <= {
            line.split()[-1] for line in expected
        }
        lines = write_mps(problem).split("\n")
        assert lines[lines.index("COLUMNS") + 1 : lines.index("RHS")] == expected

    @pytest.mark.parametrize(
        "field, count, expected",
        [("variable_names", 2, 3), ("variable_names", 4, 3), ("constraint_names", 1, 2), ("constraint_names", 3, 2)],
    )
    def test_name_lists_of_the_wrong_length_rejected(self, field, count, expected):
        # too few names would fail on a missing one, too many would drop
        # the rest, and wrong constraint names would be replaced by R0, E0
        problem = pl.LpProblem(c=[1.0, 2.0, 3.0], ineq_matrix=[[1.0, 1.0, 1.0]], ineq_rhs=[1.0],
                               eq_matrix=[[1.0, 0.0, 1.0]], eq_rhs=[0.5])
        setattr(problem, field, [f"n{k}" for k in range(count)])
        kind = field.split("_")[0]
        with pytest.raises(pl.MpsNameError, match=f"^{count} {kind} names given for {expected} {kind}s$"):
            write_mps(problem)
        # None means generated names
        setattr(problem, field, None)
        assert parse_mps(write_mps(problem)).constraint_names == ["R0", "E0"]

    @pytest.mark.parametrize("sign", [2, 0])
    def test_objective_sign_other_than_one_rejected_before_writing(self, sign):
        # the writer would scale c by the sign and write no OBJSENSE
        problem = pl.LpProblem(c=[1.0, 2.0], objective_sign=sign)
        with pytest.raises(pl.ValidationError) as expected:
            pl.validate(problem)
        out = io.StringIO()
        with pytest.raises(pl.ValidationError) as raised:
            write_mps(problem, out=out)
        assert str(raised.value) == str(expected.value) == f"objective_sign is {sign}, expected 1 or -1"
        assert out.getvalue() == ""
        with pytest.raises(pl.ValidationError, match=f"^objective_sign is {sign}, expected 1 or -1$"):
            write_mps(problem)

    @pytest.mark.parametrize(
        "problem",
        [pl.LpProblem(c=[np.inf, 1.0]), pl.LpProblem(c=[1.0], lower=[np.nan])],
        ids=["infinite_cost", "nan_lower_bound"],
    )
    def test_non_finite_data_rejected_before_writing(self, problem):
        # the text would hold "inf" or "nan", which the reader takes back
        # although validate rejects it
        out = io.StringIO()
        with pytest.raises(pl.NonFiniteData):
            write_mps(problem, out=out)
        assert out.getvalue() == ""
        with pytest.raises(pl.NonFiniteData):
            write_mps(problem)

    def test_crossed_bounds_written_unless_the_sign_is_wrong(self):
        # validate rejects lower > upper, but that LP is only infeasible, and
        # its file reads back
        crossed = pl.LpProblem(c=[1.0], upper=[-1.0])
        with pytest.raises(pl.InconsistentBounds):
            pl.validate(crossed)
        assert parse_mps(write_mps(crossed)).upper.tolist() == [-1.0]
        crossed.objective_sign = 2
        out = io.StringIO()
        with pytest.raises(pl.InconsistentBounds, match="objective_sign is 2"):
            write_mps(crossed, out=out)
        assert out.getvalue() == ""

    def test_write_parse_write_is_stable(self):
        problem = random_feasible_lp(11, n=5, m_ineq=3, m_eq=1, spread=0.5)
        once = write_mps(problem)
        twice = write_mps(parse_mps(once))
        assert once == twice

    def test_read_mps_from_file(self, tmp_path):
        path = tmp_path / "case.mps"
        path.write_text(FIXTURE)
        p = read_mps(path)
        assert p.name == "TESTLP"


# -- block boundaries ------------------------------------------------------------

ALL_BOUNDS = (
    "NAME B\nROWS\n N  OBJ\nCOLUMNS\n"
    + "".join(f"    X{j}        OBJ       1.0\n" for j in range(1, 8))
    + "BOUNDS\n"
    " UP BND       X1        -5.0\n"
    " LO BND       X2        0.0\n"
    " UP BND       X2        4.0\n"
    " FX BND       X3        2.5\n"
    " FR BND       X4\n"
    " MI BND       X5\n"
    " PL BND       X6\n"
    " BV BND       X7\n"
    "ENDATA\n"
)
FIXED = "\n".join(
    [
        "NAME FIXED",
        "* a comment line",
        "ROWS",
        fixed_line("N", "THE OBJ"),
        fixed_line("G", "ROW 1"),
        fixed_line("L", "ROW 2"),
        "COLUMNS",
        fixed_line("", "MY VAR", "THE OBJ", "1.5", "ROW 1", "2.0"),
        fixed_line("", "MY VAR", "ROW 2", "-1.0"),
        fixed_line("", "VAR 2", "ROW 2", "3.0"),
        "RHS",
        fixed_line("", "RHS", "ROW 1", "4.0", "ROW 2", "9.0"),
        "BOUNDS",
        fixed_line("UP", "BND", "VAR 2", "7.0"),
        "ENDATA",
    ]
)
MAX_ON_HEADER = FIXTURE.replace("NAME          TESTLP", "NAME          TESTLP\nOBJSENSE MAXIMIZE")
FREE = MpsDialect()
PARSED = {
    "fixture": (FIXTURE, FREE),
    "crlf": (FIXTURE.replace("\n", "\r\n"), FREE),
    "lone_cr": (FIXTURE.replace("\n", "\r"), FREE),
    "fortran": (FIXTURE.replace("GROW      2.0", "GROW      2.0D-01"), FREE),
    "no_endata": (FIXTURE.replace("ENDATA\n", ""), FREE),
    "max": (FIXTURE.replace("NAME          TESTLP", "NAME          TESTLP\nOBJSENSE\n    MAX"), FREE),
    "max_on_header": (MAX_ON_HEADER.replace("\n", "\r\n"), FREE),
    "ranged": (RANGED, FREE),
    "all_bounds": (ALL_BOUNDS, FREE),
    "integer": (INTEGER, FREE),
    "fixed": (FIXED, MpsDialect(fixed_columns=True)),
    "fixed_crlf": (FIXED.replace("\n", "\r\n"), MpsDialect(fixed_columns=True)),
    "fixture_as_fixed": (FIXTURE, MpsDialect(fixed_columns=True)),
}
FAULTY = {
    "duplicate_row": FIXTURE.replace(" L  LROW", " L  GROW"),
    "duplicate_coefficient": FIXTURE.replace("X1        LROW      1.0", "X1        GROW      1.0"),
    "duplicate_across_sections": FIXTURE.replace("RHS\n", "COLUMNS\n    X3        EROW      5.0\nRHS\n", 1),
    "unknown_row": FIXTURE.replace("X1        LROW      1.0", "X1        NOPE      1.0"),
    "unknown_row_in_rhs": FIXTURE.replace("RHS       EROW", "RHS       NOPE"),
    "bad_number": FIXTURE.replace("GROW      4.0", "GROW      4.0x"),
    "bad_number_crlf": FIXTURE.replace("GROW      4.0", "GROW      4.0x").replace("\n", "\r\n"),
    "odd_columns_line": FIXTURE.replace("X1        LROW      1.0", "X1        LROW"),
    "unknown_section": FIXTURE.replace("BOUNDS", "GARBAGE"),
    "data_before_section": "    X1 COST 1.0\n" + FIXTURE,
    "data_after_name": FIXTURE.replace("ROWS\n", "    X1 COST 1.0\nROWS\n"),
    "no_objective_row": "NAME T\nROWS\n G  R1\nCOLUMNS\n    X R1 1.0\nENDATA\n",
    "unknown_bound_code": FIXTURE.replace(" UP BND", " XX BND"),
    "bound_on_unknown_column": FIXTURE.replace("FR BND       X3", "FR BND       NOPE"),
    "range_on_objective": RANGED.replace("RNG       RG        3.0", "RNG       OBJ       3.0"),
    "bad_marker": INTEGER.replace("'INTEND'", "'INTSTOP'"),
    "bad_objsense": FIXTURE.replace("NAME          TESTLP", "NAME          TESTLP\nOBJSENSE\n    UP"),
    "unknown_row_then_duplicate": FIXTURE.replace("X1        LROW      1.0", "X1        NOPE      1.0").replace(
        "X2        GROW      1.0", "X1        GROW      1.0"
    ),
}


def outcome(text, dialect=None, block_bytes=None):
    """The problem parsed from text, or the raised parse error's type, message
    and line; and the messages of the warnings.  With block_bytes, the input
    is read that many bytes at a time."""
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
        if block_bytes is not None:
            patch.setattr(pl.mps, "_CHUNK_BYTES", block_bytes)
        warnings.simplefilter("always")
        try:
            result = parse_mps(text, dialect)
        except pl.MpsParseError as err:
            result = (type(err), str(err), err.line_no)
    return result, [str(w.message) for w in caught]


# Reads of 16, 37 and 64 bytes put block boundaries inside lines, inside
# CRLF pairs and between a header and its body; every fixture is one block
# at the default size.
@pytest.mark.parametrize("block_bytes", [16, 37, 64])
class TestBlockBoundaries:
    @pytest.mark.parametrize("case", PARSED)
    def test_same_problem_as_one_block(self, case, block_bytes):
        text, dialect = PARSED[case]
        whole, whole_warnings = outcome(text, dialect)
        assert isinstance(whole, pl.LpProblem)
        blocked, blocked_warnings = outcome(text, dialect, block_bytes)
        assert_identical(blocked, whole)
        assert blocked_warnings == whole_warnings

    @pytest.mark.parametrize("case", FAULTY)
    def test_same_error_as_one_block(self, case, block_bytes):
        whole = outcome(FAULTY[case])
        assert isinstance(whole[0], tuple)
        assert outcome(FAULTY[case], block_bytes=block_bytes) == whole

    def test_file_object_source(self, tmp_path, block_bytes):
        path = tmp_path / "case.mps"
        path.write_bytes(FIXTURE.replace("\n", "\r\n").encode())
        with open(path, "rb") as fh:
            blocked, _ = outcome(fh, block_bytes=block_bytes)
        assert_identical(blocked, parse_mps(FIXTURE))
