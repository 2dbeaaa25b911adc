"""MPS reader and writer.

The reader accepts free-format MPS by default (whitespace-delimited fields)
and strict fixed columns via the dialect flag.  Supported sections: NAME,
OBJSENSE, ROWS (N/L/G/E), COLUMNS (with INTORG/INTEND markers), RHS, RANGES,
BOUNDS (LO/UP/FX/FR/MI/PL/BV), ENDATA.

The reader takes a binary file object, or bytes or str, and reads it in
newline-aligned blocks of about two megabytes, so the text is never held
whole.  Each block is cut at its section headers, and each stretch between
them is split into fields at once; names are mapped to indices in one pass
and numbers converted with one array cast.  Only that first split differs
between the dialects; free format splits on ASCII whitespace, and the fixed
columns count bytes.  Every error still names its 1-based source line, and
when the input holds several faults the one reported is the first in file
order.

Everything is normalized into the internal form: L rows are negated into
>= rows, ranged rows are split into two one-sided inequalities, an RHS entry
on the objective row becomes a (negated) constant offset, and OBJSENSE MAX
flips the objective while recording the sign for reporting.  Integer
markers and BV bounds are relaxed to continuous columns with a warning.

The writer emits free format, one coefficient per line with every double
at 17 significant digits, so reading its output back returns the same
problem exactly.
"""

import contextlib
import io
import itertools
import re
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import (
    DuplicateColumn,
    DuplicateRow,
    InconsistentBounds,
    MpsNameError,
    MpsSyntaxError,
    UnknownRowReference,
)
from .problem import LpProblem, validate
from .sparse import SparseMatrix

_SECTIONS = {b"NAME", b"OBJSENSE", b"ROWS", b"COLUMNS", b"RHS", b"RANGES", b"BOUNDS", b"ENDATA"}
_BOUND_CODES = ("LO", "UP", "FX", "FR", "MI", "PL", "BV")
_LO, _UP, _FX, _FR, _MI, _PL, _BV = range(len(_BOUND_CODES))  # the first three take a value
_BOUND_CODE_IDS = {code.encode(): k for k, code in enumerate(_BOUND_CODES)}
_MARKER = b"'MARKER'"

# 0-based slices of the six fixed-format fields.
_FIXED_FIELDS = [(1, 3), (4, 12), (14, 22), (24, 36), (39, 47), (49, 61)]

# The bytes that bytes.split() splits on.
_IS_SPACE = np.zeros(256, dtype=bool)
_IS_SPACE[list(b" \t\n\r\x0b\x0c")] = True

_CHUNK_BYTES = 1 << 21  # MPS bytes read, and split into fields, at a time
_WRITE_CHUNK = 1 << 14  # coefficients formatted at a time


@dataclass(frozen=True)
class MpsDialect:
    fixed_columns: bool = False


def _text(token):
    return token.decode("utf-8", errors="replace")


def _value(token):
    try:
        return float(token)
    except ValueError:
        # Fortran-style exponents show up in old files.
        return float(token.upper().replace(b"D", b"E"))


def _floats(tokens):
    """Values of an object array of numeric fields, and the index of the
    first field that is not a number (None when all are)."""
    try:
        return tokens.astype(np.float64), None
    except ValueError:
        pass
    out = np.empty(tokens.size)
    for i, token in enumerate(tokens):
        try:
            out[i] = _value(token)
        except ValueError:
            return out, i
    return out, None


def _lookup(index, names):
    """Indices of an object array of names in a dict, -1 where absent."""
    return np.fromiter(map(index.get, names, itertools.repeat(-1)), dtype=np.int32, count=names.size)


def _first(mask):
    """Index of the first true entry, or None."""
    return int(mask.argmax()) if mask.any() else None


def _raise_first(errors):
    """Raise the error that comes first in the file.  Each entry is None or
    (position, stage, exception); at one position, lower stages are checked
    first."""
    errors = [e for e in errors if e is not None]
    if errors:
        raise min(errors, key=lambda e: e[:2])[2]


# -- splitting into fields ----------------------------------------------------


class _Lines:
    """The data lines of a stretch of one section: all their fields in one
    object array of bytes, the number of fields on each line, and each
    line's 1-based number."""

    __slots__ = ("tokens", "counts", "line_nos")

    def __init__(self, tokens, counts, line_nos):
        self.tokens = tokens
        self.counts = counts
        self.line_nos = line_nos

    @property
    def offsets(self):
        """Index of each line's first field."""
        return np.cumsum(self.counts) - self.counts

    def head(self, k):
        """The first k lines."""
        return _Lines(self.tokens[: int(self.counts[:k].sum())], self.counts[:k], self.line_nos[:k])

    def drop(self, mask):
        """The lines where mask is false."""
        keep = ~mask
        return _Lines(self.tokens[np.repeat(keep, self.counts)], self.counts[keep], self.line_nos[keep])


def _split_free(text, first_line):
    """Fields of free-format lines: the runs of non-blank bytes.  Blank and
    comment lines are dropped."""
    code = np.frombuffer(text, dtype=np.uint8)
    space = _IS_SPACE[code]
    starts = ~space
    starts[1:] &= space[:-1]
    starts = np.flatnonzero(starts)
    line = np.searchsorted(np.flatnonzero(code == ord("\n")), starts)
    new_line = np.ones(starts.size, dtype=bool)
    new_line[1:] = line[1:] != line[:-1]
    heads = np.flatnonzero(new_line)
    lines = _Lines(
        np.array(text.split(), dtype=object),
        np.diff(np.append(heads, starts.size)),
        first_line + line[heads],
    )
    comment = code[starts[heads]] == ord("*")
    return lines.drop(comment) if comment.any() else lines


def _split_fixed(text, first_line):
    """Fields of fixed-format lines, cut at the standard columns, so names may
    hold blanks.  Blank and comment lines are dropped; a line whose fields are
    all blank stays, with no fields."""
    tokens, counts, line_nos = [], [], []
    for k, line in enumerate(text.split(b"\n")):
        stripped = line.strip()
        if not stripped or stripped.startswith(b"*"):
            continue
        fields = [f for f in (line[a:b].strip() for a, b in _FIXED_FIELDS) if f]
        tokens.extend(fields)
        counts.append(len(fields))
        line_nos.append(first_line + k)
    return _Lines(np.array(tokens, dtype=object), np.array(counts, dtype=np.int64), np.array(line_nos, dtype=np.int64))


def _lf(data):
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


def _blocks(source):
    """The bytes of a binary file object in blocks of whole lines, about
    _CHUNK_BYTES each, with CRLF and lone CR line ends made LF.  A CR that
    ends a read waits for the next one, which may start with its LF."""
    pending = []
    while piece := source.read(_CHUNK_BYTES):
        cut = max(piece.rfind(b"\n"), piece.rfind(b"\r", 0, len(piece) - 1)) + 1
        if cut:
            pending.append(piece[:cut])
            yield _lf(b"".join(pending))
            pending = [piece[cut:]]
        else:
            pending.append(piece)
    tail = b"".join(pending)
    if tail:
        yield _lf(tail)


def _sections(source):
    """Yield (header fields, header line number, body, first body line
    number) for each stretch of the input in file order: a block's lines up
    to its next header.  A stretch that opens a block has None for its
    header; it continues the section of the block before, or in the first
    block precedes every header.  A header line starts in column 1 and is
    neither blank nor a comment."""
    first_line = 1
    for data in _blocks(source):
        code = np.frombuffer(data, dtype=np.uint8)
        line_start = np.concatenate(([0], np.flatnonzero(code[:-1] == ord("\n")) + 1))
        first = code[line_start]
        maybe = (first != ord(" ")) & (first != ord("\t")) & (first != ord("\n")) & (first != ord("*"))
        header, line_no, body_start, body_line = None, 0, 0, first_line
        for i in np.flatnonzero(maybe).tolist():
            start = int(line_start[i])
            end = data.find(b"\n", start)
            end = len(data) if end < 0 else end
            fields = data[start:end].split()
            if not fields or fields[0].startswith(b"*"):
                continue
            yield header, line_no, data[body_start:start], body_line
            header, line_no, body_start, body_line = fields, first_line + i, end + 1, first_line + i + 1
        yield header, line_no, data[body_start:], body_line
        first_line += data.count(b"\n")


def _pairs(lines, lead):
    """Row and value fields of the (row, value) pairs that follow `lead`
    leading fields on each line, and the line number of each pair."""
    npairs = (lines.counts - lead) // 2
    line = np.repeat(np.arange(npairs.size), npairs)
    rank = np.arange(line.size) - np.repeat(np.cumsum(npairs) - npairs, npairs)
    at = (lines.offsets + lead)[line] + 2 * rank
    return lines.tokens[at], lines.tokens[at + 1], lines.line_nos[line]


def _assign_last(out, index, mask, values):
    """out[index[k]] = values[k] for every k in mask; where an index repeats,
    the last such k wins."""
    index, values = index[mask][::-1], values[mask][::-1]
    targets, last = np.unique(index, return_index=True)
    out[targets] = values[last]


# -- section handlers ---------------------------------------------------------


class _Reader:
    def __init__(self):
        self.name = ""
        self.sense = 1
        self.obj_row = None  # row index of the objective
        self.row_index = {}  # name -> row index, in declaration order
        self.row_kind = []  # per row: N, L, G, E or F (an extra free row)
        self.col_index = {}  # name -> column index, in order of first use
        self.entries = []  # per COLUMNS chunk: int32 column, int32 row and value arrays
        self.entry_lines = []  # line numbers of the entries not yet checked for repeats
        self.rhs = {}  # row index -> value; the last entry wins
        self.ranges = {}
        self.bound_records = []  # per BOUNDS stretch: (code, column, value) arrays
        self.integer_cols = set()
        self.in_integer = False

    def set_sense(self, word, line_no):
        key = word.upper()
        if key in (b"MIN", b"MINIMIZE"):
            self.sense = 1
        elif key in (b"MAX", b"MAXIMIZE"):
            self.sense = -1
        else:
            raise MpsSyntaxError(f"unknown objective sense {_text(word)!r}", line_no)

    def read_objsense(self, lines):
        for at, count, line_no in zip(lines.offsets.tolist(), lines.counts.tolist(), lines.line_nos.tolist()):
            self.set_sense(lines.tokens[at + count - 1] if count else b"", line_no)

    def read_rows(self, lines):
        tokens = lines.tokens
        for at, count, line_no in zip(lines.offsets.tolist(), lines.counts.tolist(), lines.line_nos.tolist()):
            if count != 2:
                raise MpsSyntaxError(f"ROWS line needs 2 fields, got {count}", line_no)
            rtype, name = tokens[at].upper(), tokens[at + 1]
            if rtype not in (b"N", b"L", b"G", b"E"):
                raise MpsSyntaxError(f"unknown row type {_text(tokens[at])!r}", line_no)
            if name in self.row_index:
                raise DuplicateRow(f"row {_text(name)!r} declared twice", line_no)
            kind = rtype.decode()
            if kind == "N":
                if self.obj_row is None:
                    self.obj_row = len(self.row_kind)
                else:
                    kind = "F"  # extra free row: legal to reference, dropped at build
            self.row_index[name] = len(self.row_kind)
            self.row_kind.append(kind)

    def _markers(self, lines):
        """Take the INTORG/INTEND marker lines out of a COLUMNS stretch and
        note the columns between them as integer.  Returns the other lines
        and the first faulty marker line as (line number, exception), or
        None."""
        marker = np.zeros(lines.counts.size, dtype=bool)
        marker[np.repeat(np.arange(marker.size), lines.counts)[lines.tokens == _MARKER]] = True
        integer = np.zeros(marker.size, dtype=bool)
        error, done = None, 0
        for i in np.flatnonzero(marker).tolist():
            integer[done:i] = self.in_integer
            done = i + 1
            at = int(lines.offsets[i])
            fields = lines.tokens[at : at + lines.counts[i]].tolist()
            line_no = int(lines.line_nos[i])
            if b"'INTORG'" in fields:
                self.in_integer = True
            elif b"'INTEND'" in fields:
                self.in_integer = False
            else:
                error = (line_no, MpsSyntaxError("marker line without INTORG/INTEND", line_no))
                break
        else:
            integer[done:] = self.in_integer
        integer &= ~marker & (lines.counts > 0)
        self.integer_cols.update(lines.tokens[lines.offsets[integer]].tolist())
        return (lines.drop(marker) if marker.any() else lines), error

    def read_columns(self, lines):
        lines, line_error = self._markers(lines)
        bad = _first((lines.counts < 3) | (lines.counts % 2 == 0))
        if bad is not None:
            line_no = int(lines.line_nos[bad])
            if line_error is None or line_no < line_error[0]:
                line_error = (line_no, MpsSyntaxError("COLUMNS line needs a column plus (row, value) pairs", line_no))
        if line_error is not None:
            lines = lines.head(int(np.searchsorted(lines.line_nos, line_error[0])))

        names = lines.tokens[lines.offsets]
        for name in dict.fromkeys(names.tolist()):
            self.col_index.setdefault(name, len(self.col_index))
        col_of_line = np.fromiter(map(self.col_index.__getitem__, names), dtype=np.int32, count=names.size)
        cols = np.repeat(col_of_line, (lines.counts - 1) // 2)
        row_tokens, value_tokens, pair_lines = _pairs(lines, 1)
        rows = _lookup(self.row_index, row_tokens)
        values, bad_value = _floats(value_tokens)
        base = sum(e[0].size for e in self.entries)
        self.entries.append((cols, rows, values))
        self.entry_lines.append(pair_lines)

        errors = []
        unknown = _first(rows < 0)
        if unknown is not None:
            line_no = int(pair_lines[unknown])
            msg = f"COLUMNS references unknown row {_text(row_tokens[unknown])!r}"
            errors.append((base + unknown, 0, UnknownRowReference(msg, line_no)))
        if bad_value is not None:
            line_no = int(pair_lines[bad_value])
            msg = f"bad numeric literal {_text(value_tokens[bad_value])!r}"
            errors.append((base + bad_value, 2, MpsSyntaxError(msg, line_no)))
        if line_error is not None:
            errors.append((base + rows.size, -1, line_error[1]))
        if errors:
            errors.append(self._duplicate_error())
            _raise_first(errors)

    def _duplicate_error(self):
        """(entry index, stage, DuplicateColumn) for the first coefficient
        that repeats an earlier (column, row) pair, or None.  Entries on
        unknown rows are left out.  Merges the entries into one part."""
        if len(self.entries) > 1:
            self.entries = [tuple(np.concatenate(parts) for parts in zip(*self.entries))]
        cols, rows, _ = self.entries[0]
        key = cols.astype(np.int64)
        key *= len(self.row_kind)
        key += rows
        unknown = np.flatnonzero(rows < 0)
        key[unknown] = -1 - unknown  # distinct negative keys repeat nothing
        ordered = np.sort(key)
        if not (ordered[1:] == ordered[:-1]).any():
            return None
        order = np.argsort(key, kind="stable")
        k = int(order[1:][key[order[1:]] == key[order[:-1]]].min())
        col, row = list(self.col_index)[cols[k]], list(self.row_index)[rows[k]]
        msg = f"duplicate coefficient for ({_text(col)!r}, {_text(row)!r})"
        # The entries checked before repeat no pair among themselves, so the
        # first repeat is one of those that still have their line numbers.
        lines = np.concatenate(self.entry_lines)
        return (k, 1, DuplicateColumn(msg, int(lines[k - (cols.size - lines.size)])))

    def check_duplicates(self):
        """Raise DuplicateColumn for a repeat among the entries read so far,
        and drop the line numbers, which only a repeat needs."""
        if self.entry_lines:
            _raise_first([self._duplicate_error()])
            self.entry_lines = []

    def _row_values(self, lines, section):
        """Row indices, values, row fields and line numbers of the (row,
        value) pairs of an RHS or RANGES stretch, and the faults found in
        them so far, as _raise_first takes them."""
        bad = _first(lines.counts < 2)
        line_error = None
        if bad is not None:
            line_error = MpsSyntaxError(f"{section} line has no (row, value) pairs", int(lines.line_nos[bad]))
            lines = lines.head(bad)
        row_tokens, value_tokens, pair_lines = _pairs(lines, lines.counts % 2)  # odd: leading set name
        errors = [] if line_error is None else [(row_tokens.size, -1, line_error)]
        rows = _lookup(self.row_index, row_tokens)
        unknown = _first(rows < 0)
        if unknown is not None:
            msg = f"{section} references unknown row {_text(row_tokens[unknown])!r}"
            errors.append((unknown, 0, UnknownRowReference(msg, int(pair_lines[unknown]))))
        values, bad_value = _floats(value_tokens)
        if bad_value is not None:
            msg = f"bad numeric literal {_text(value_tokens[bad_value])!r}"
            errors.append((bad_value, 2, MpsSyntaxError(msg, int(pair_lines[bad_value]))))
        return rows, values, row_tokens, pair_lines, errors

    def read_rhs(self, lines):
        rows, values, _, _, errors = self._row_values(lines, "RHS")
        _raise_first(errors)
        self.rhs.update(zip(rows.tolist(), values.tolist()))

    def read_ranges(self, lines):
        rows, values, row_tokens, pair_lines, errors = self._row_values(lines, "RANGES")
        kind = np.array(self.row_kind + ["?"])  # "?" stands in for an unknown row
        free = _first(np.isin(kind[rows], ("N", "F")))
        if free is not None:
            msg = f"range on objective/free row {_text(row_tokens[free])!r}"
            errors.append((free, 1, MpsSyntaxError(msg, int(pair_lines[free]))))
        _raise_first(errors)
        self.ranges.update(zip(rows.tolist(), values.tolist()))

    def read_bounds(self, lines):
        errors = []
        empty = _first(lines.counts == 0)
        if empty is not None:
            line_no = int(lines.line_nos[empty])
            errors.append((empty, 0, MpsSyntaxError("empty BOUNDS line", line_no)))
            lines = lines.head(empty)
        at, counts, line_nos = lines.offsets, lines.counts, lines.line_nos
        heads = lines.tokens[at]
        code = np.fromiter((_BOUND_CODE_IDS.get(h.upper(), -1) for h in heads), dtype=np.int64, count=heads.size)
        valued = (code >= 0) & (code <= _FX)
        fits = np.where(valued, (counts == 3) | (counts == 4), (counts == 2) | (counts == 3))
        bad = _first((code < 0) | ~fits)
        if bad is not None:
            line_no = int(line_nos[bad])
            if code[bad] < 0:
                msg = f"unknown bound code {_text(heads[bad])!r}"
            elif valued[bad]:
                msg = f"bound code {_BOUND_CODES[code[bad]]} needs a column and a value"
            else:
                msg = f"bound code {_BOUND_CODES[code[bad]]} takes no value"
            errors.append((bad, 0, MpsSyntaxError(msg, line_no)))
            at, counts, line_nos, code, valued = (a[:bad] for a in (at, counts, line_nos, code, valued))

        # the column is the last field, or the one before the value
        col_tokens = lines.tokens[at + counts - 1 - valued]
        cols = _lookup(self.col_index, col_tokens)
        values = np.full(code.size, np.nan)
        with_value = np.flatnonzero(valued)
        parsed, bad_value = _floats(lines.tokens[(at + counts - 1)[with_value]])
        values[with_value] = parsed
        if bad_value is not None:
            k = int(with_value[bad_value])
            token = lines.tokens[at[k] + counts[k] - 1]
            errors.append((k, 1, MpsSyntaxError(f"bad numeric literal {_text(token)!r}", int(line_nos[k]))))
        unknown = _first(cols < 0)
        if unknown is not None:
            msg = f"BOUNDS references unknown column {_text(col_tokens[unknown])!r}"
            errors.append((unknown, 2, MpsSyntaxError(msg, int(line_nos[unknown]))))
        _raise_first(errors)
        self.integer_cols.update(col_tokens[code == _BV].tolist())
        self.bound_records.append((code, cols, values))

    # -- assembly ----------------------------------------------------------

    def _bounds(self, n):
        lower = np.zeros(n)
        upper = np.full(n, np.inf)
        if not self.bound_records:
            return lower, upper
        code, col, value = (np.concatenate(parts) for parts in zip(*self.bound_records))
        order = np.arange(code.size)
        touches = np.isin(code, (_LO, _FX, _FR, _MI, _BV))
        first_touch = np.full(n, code.size)
        np.minimum.at(first_touch, col[touches], order[touches])
        # Classic quirk: a negative upper bound on a column whose lower bound
        # no earlier record set frees the lower bound.
        frees = (code == _UP) & (value < 0) & (order < first_touch[col])
        low = np.select([code == _LO, code == _FX, code == _BV], [value, value, 0.0], -np.inf)
        _assign_last(lower, col, touches | frees, low)
        high = np.select([code == _UP, code == _FX, code == _BV], [value, value, 1.0], np.inf)
        _assign_last(upper, col, np.isin(code, (_UP, _FX, _FR, _PL, _BV)), high)
        return lower, upper

    def build(self):
        if self.obj_row is None:
            raise MpsSyntaxError("no objective (N) row declared")
        n = len(self.col_index)
        if self.entries:
            cols, rows, vals = self.entries.pop()  # check_duplicates merged them into one part
        else:
            cols = rows = np.zeros(0, dtype=np.int32)
            vals = np.zeros(0)
        c = np.zeros(n)
        on_obj = rows == self.obj_row
        c[cols[on_obj]] = vals[on_obj]

        kind = np.array(self.row_kind, dtype="U1")
        m = kind.size
        h = np.zeros(m)
        h[list(self.rhs)] = list(self.rhs.values())
        rng = np.zeros(m)
        rng[list(self.ranges)] = list(self.ranges.values())
        ranged = np.zeros(m, dtype=bool)
        ranged[list(self.ranges)] = True
        is_e, is_l = kind == "E", kind == "L"
        ranged &= ~(is_e & (rng == 0.0))  # a zero range on an equality changes nothing
        eq = is_e & ~ranged
        ineq = (is_e | is_l | (kind == "G")) & ~eq
        width = ineq.astype(np.int32) + ranged  # G rows a row becomes: 0, 1 or 2
        first = np.cumsum(width, dtype=np.int32) - width  # index of its first G row
        eq_at = np.cumsum(eq, dtype=np.int32) - 1

        # As rows of G x >= h: G rows keep their sign, L rows flip theirs, an
        # equality with range R spans [h, h + R] (R > 0) or [h + R, h]; the
        # second row of a ranged row is the flipped upper side.
        span = np.abs(rng)
        e_lo = np.where(rng > 0, h, h + rng)
        e_hi = np.where(rng > 0, h + rng, h)
        first_rhs = np.where(is_l, -h, np.where(is_e, e_lo, h))
        second_rhs = np.where(is_l, h - span, np.where(is_e, -e_hi, -(h + span)))
        h_vec = np.zeros(int(width.sum()))
        h_vec[first[ineq]] = first_rhs[ineq]
        h_vec[first[ranged] + 1] = second_rhs[ranged]

        in_a = eq[rows]
        a_mat = SparseMatrix(sp.coo_matrix((vals[in_a], (eq_at[rows[in_a]], cols[in_a])), shape=(int(eq.sum()), n)))
        in_g, twice = ineq[rows], ranged[rows]
        g_rows = np.concatenate([first[rows[in_g]], first[rows[twice]] + 1])
        g_cols = np.concatenate([cols[in_g], cols[twice]])
        g_vals = np.concatenate([vals[in_g], vals[twice]])
        flip = is_l[rows]
        np.negative(g_vals, out=g_vals, where=np.concatenate([flip[in_g], ~flip[twice]]))
        del cols, rows, vals, in_a, in_g, twice, flip  # the entries go before G's conversion, the parse's peak
        g_mat = SparseMatrix(sp.coo_matrix((g_vals, (g_rows, g_cols)), shape=(h_vec.size, n)))
        del g_rows, g_cols, g_vals

        row_names = [_text(name) for name in self.row_index]
        g_names = []
        for i in np.flatnonzero(ineq).tolist():
            g_names.append(row_names[i])
            if ranged[i]:
                g_names.append(row_names[i] + "__rng")
        a_names = [row_names[i] for i in np.flatnonzero(eq).tolist()]

        lower, upper = self._bounds(n)
        offset = -self.rhs[self.obj_row] if self.obj_row in self.rhs else 0.0
        sign = 1
        if self.sense == -1:
            c = -c
            offset = -offset
            sign = -1

        if self.integer_cols:
            warnings.warn(
                f"{len(self.integer_cols)} integer column(s) relaxed to continuous",
                stacklevel=3,
            )

        problem = LpProblem(
            c=c,
            ineq_matrix=g_mat,
            ineq_rhs=h_vec,
            eq_matrix=a_mat,
            eq_rhs=h[eq],
            lower=lower,
            upper=upper,
            objective_offset=offset,
            objective_sign=sign,
            name=self.name,
            variable_names=[_text(name) for name in self.col_index],
            constraint_names=g_names + a_names,
        )
        # crossed bounds alone make an infeasible LP, which write_mps writes too
        with contextlib.suppress(InconsistentBounds):
            validate(problem)
        return problem


def parse_mps(source, dialect=None):
    """Parse MPS into an LpProblem.  The source is a binary file object,
    read a block at a time, or the whole text as str or bytes.  The result
    passes ``validate``, but for crossed bounds, which make an infeasible
    LP: a non-finite cost, right-hand side or range, or a bound that is NaN
    or the wrong infinity, raises NonFiniteData."""
    if isinstance(source, str):
        source = source.encode()
    if isinstance(source, (bytes, bytearray)):
        source = io.BytesIO(source)
    reader = _Reader()
    split = _split_fixed if (dialect or MpsDialect()).fixed_columns else _split_free
    handlers = {
        b"OBJSENSE": reader.read_objsense,
        b"ROWS": reader.read_rows,
        b"COLUMNS": reader.read_columns,
        b"RHS": reader.read_rhs,
        b"RANGES": reader.read_ranges,
        b"BOUNDS": reader.read_bounds,
    }

    def read(lines):
        # an argument, so a stretch's fields are freed before the next is split
        if not lines.counts.size:
            return
        handler = handlers.get(section)
        if handler is None:
            what = "unexpected data line after NAME" if section == b"NAME" else "data line before any section header"
            raise MpsSyntaxError(what, int(lines.line_nos[0]))
        handler(lines)

    section = None
    for header, line_no, body, body_line in _sections(source):
        if header is not None:
            reader.check_duplicates()  # a COLUMNS section before this header is complete
            section = header[0].upper()
            if section not in _SECTIONS:
                raise MpsSyntaxError(f"unknown section {_text(header[0])!r}", line_no)
            if section == b"ENDATA":
                break
            if section == b"NAME":
                reader.name = _text(header[1]) if len(header) > 1 else ""
            elif section == b"OBJSENSE" and len(header) > 1:
                reader.set_sense(header[-1], line_no)
        read(split(body, body_line))
    else:
        reader.check_duplicates()
        warnings.warn("MPS input ended without ENDATA", stacklevel=2)
    return reader.build()


def read_mps(path, dialect=None):
    with open(path, "rb") as fh:
        return parse_mps(fh, dialect)


# -- writer -----------------------------------------------------------------

_WHITESPACE = re.compile(r"\s")


def _check_names(names, kind, columns=False):
    """Raise MpsNameError unless every name reads back as itself: non-empty,
    free of whitespace and unique.  A column name also may not start with
    "*" (its line would read as a comment), and no name may be 'MARKER'
    (its line would read as an integer marker)."""
    if (
        all(names)
        and not _WHITESPACE.search("".join(names))
        and len(set(names)) == len(names)
        and "'MARKER'" not in names
        and not (columns and any(name.startswith("*") for name in names))
    ):
        return
    seen = set()
    for k, name in enumerate(names):
        if not name or _WHITESPACE.search(name):
            problem = "is empty" if not name else "contains whitespace"
        elif name in seen:
            problem = "is a duplicate"
        elif name == "'MARKER'" or (columns and name.startswith("*")):
            problem = "would not read back as a name"
        else:
            seen.add(name)
            continue
        raise MpsNameError(f"{kind} name {k} ({name!r}) {problem}")


def _fmt(v):
    # 17 significant digits read back as the same double; the RHS and COLUMNS
    # writers below spell out the same format inline
    return f"{v:.17g}"


def _bound_lines(col, lo, hi):
    if lo == hi:
        return [f" FX BND       {col:<10} {_fmt(lo)}"]
    if lo == -np.inf and hi == np.inf:
        return [f" FR BND       {col}"]
    out = []
    if lo == -np.inf:
        out.append(f" MI BND       {col}")
    elif lo != 0.0 or hi < 0.0:
        # a bare negative UP would also free the lower bound of 0
        out.append(f" LO BND       {col:<10} {_fmt(lo)}")
    if hi != np.inf:
        out.append(f" UP BND       {col:<10} {_fmt(hi)}")
    return out


def _column_blocks(problem, c_out, col_field, row_field):
    """The COLUMNS lines, one coefficient each, as blocks of up to
    _WRITE_CHUNK lines that each end in a newline.  The lines follow the
    column-major order of [c; G; A]: each column lists its objective entry,
    then its G entries, then its A entries.  A column with no coefficients
    anywhere must still be declared (it may carry bounds), so it gets an
    explicit zero cost."""
    g, a = problem.ineq_matrix.tocsr(), problem.eq_matrix.tocsr()
    n = c_out.size
    has_cost = c_out != 0.0
    empty = np.ones(n, dtype=bool)
    empty[g.indices] = False
    empty[a.indices] = False
    first = np.flatnonzero(has_cost | empty)
    cost = sp.csr_matrix((np.where(has_cost, c_out, 0.0)[first], first, [0, first.size]), shape=(1, n))
    merged = sp.vstack([cost, g, a], format="csr")
    del g, a  # the copies go before the conversion, the writer's peak
    merged = merged.tocsc()  # int32 rows: 0 is the objective, G's follow, then A's
    rows, values = merged.indices, merged.data
    cols = np.repeat(np.arange(n, dtype=np.int32), np.diff(merged.indptr))
    for start in range(0, rows.size, _WRITE_CHUNK):
        # a chunk at a time, so only a chunk's worth of Python numbers and
        # line strings exists at once
        part = slice(start, start + _WRITE_CHUNK)
        # Format each distinct coefficient of the chunk once (PageRank has
        # 1.0 and one -lambda/deg per degree).  Uniquing bit patterns rather
        # than values keeps -0.0 apart from 0.0 and near-equal doubles apart.
        bits, which = np.unique(values[part].view(np.int64), return_inverse=True)
        text = [f"{v:.17g}" for v in bits.view(np.float64).tolist()]
        fields = zip(cols[part].tolist(), rows[part].tolist(), which.tolist())
        lines = [f"{col_field[j]}{row_field[i]}{text[k]}" for j, i, k in fields]
        lines.append("")  # the block's final newline
        yield "\n".join(lines)


class _Length(int):
    """The number of characters write_mps wrote to a file.  len() reads it
    too, as it reads the length of the text write_mps returns otherwise, so
    a caller that sizes the output with len(), as perfbench's tracer does,
    works with both."""

    __slots__ = ()

    def __len__(self):
        return int(self)


def write_mps(problem, out=None):
    """Serialize an LpProblem as free-format MPS text.

    Returns the text.  Given a text file `out`, writes the text to it
    instead, a piece at a time, and returns its length in characters.

    The written file reparses to the same problem: >= rows are emitted as G
    rows, equalities as E rows, maximization problems get an OBJSENSE
    section with the original (un-negated) objective.  Before anything is
    written, MpsNameError is raised for a list of variable or constraint
    names whose length is not the number of variables or constraints (None
    means generated names), then ``validate``'s error (crossed bounds alone
    are written), then MpsNameError for a problem name with whitespace (the
    reader keeps only the first word of the NAME line) and for a name that
    would not read back (see _check_names).  The NAME line holds
    the problem's own name (``dataclasses.replace(problem, name=...)``
    writes another); an empty one is written, and so reads back, as "LP".
    """
    pieces = _pieces(problem)
    if out is None:
        return "".join(pieces)
    size = 0
    for piece in pieces:
        out.write(piece)
        size += len(piece)
    return _Length(size)


def _pieces(problem):
    """The text of write_mps in pieces that each end in a newline."""
    n = problem.num_variables
    m1 = problem.num_inequalities
    m2 = problem.num_equalities
    var_names, con_names = problem.variable_names, problem.constraint_names
    for names, count, kind in ((var_names, n, "variable"), (con_names, m1 + m2, "constraint")):
        if names is not None and len(names) != count:
            raise MpsNameError(f"{len(names)} {kind} names given for {count} {kind}s")
    try:
        validate(problem)
    except InconsistentBounds:  # crossed bounds alone: an infeasible LP, which MPS holds
        if problem.objective_sign not in (1, -1):
            raise
    if var_names is None:
        var_names = [f"X{j}" for j in range(n)]
    if con_names is None:
        con_names = [f"R{i}" for i in range(m1)] + [f"E{i}" for i in range(m2)]
    g_names, a_names = con_names[:m1], con_names[m1:]
    title = problem.name or "LP"
    if _WHITESPACE.search(title):
        raise MpsNameError(f"problem name {title!r} contains whitespace")
    _check_names(var_names, "variable", columns=True)
    _check_names(list(g_names) + list(a_names), "constraint")
    obj_name = "OBJ"
    used = set(g_names) | set(a_names)
    while obj_name in used:
        obj_name = "_" + obj_name

    sign = problem.objective_sign
    c_out = sign * problem.c
    rhs_obj = -(sign * problem.objective_offset)

    head = [f"NAME          {title}"]
    if sign == -1:
        head += ["OBJSENSE", "    MAX"]
    head += ["ROWS", f" N  {obj_name}"]
    rows = itertools.chain((f" G  {nm}" for nm in g_names), (f" E  {nm}" for nm in a_names))
    yield "\n".join(itertools.chain(head, rows, ["COLUMNS", ""]))

    col_field = [f"    {nm:<10} " for nm in var_names]
    row_field = [f"{nm:<10} " for nm in itertools.chain([obj_name], g_names, a_names)]
    yield from _column_blocks(problem, c_out, col_field, row_field)

    lines = ["RHS"]
    if rhs_obj != 0.0:
        lines.append(f"    RHS       {obj_name:<10} {_fmt(rhs_obj)}")
    rhs = np.concatenate([problem.ineq_rhs, problem.eq_rhs])
    nonzero = np.flatnonzero(rhs != 0.0)
    lines.extend([f"    RHS       {row_field[i + 1]}{v:.17g}" for i, v in zip(nonzero.tolist(), rhs[nonzero].tolist())])

    lower, upper = problem.lower, problem.upper
    bounded = np.flatnonzero((lower != 0.0) | (upper != np.inf))
    if bounded.size:
        lines.append("BOUNDS")
        for j, lo, hi in zip(bounded.tolist(), lower[bounded].tolist(), upper[bounded].tolist()):
            lines.extend(_bound_lines(var_names[j], lo, hi))
    lines.extend(["ENDATA", ""])  # the final newline
    yield "\n".join(lines)
