"""File formats: JSON model and scheme configs, cohort CSV, truth CSV.

All floats are written with repr(), which round-trips bit-exactly in
Python 3, so write-then-read reproduces identical records and repeated
writes of the same objects are byte-identical. CSVs use comma delimiters,
period decimals, a mandatory header row, and "\n" line endings; labels are
quoted as csv.writer quotes them.

A cohort travels as StatusCodes, four (n, p) code arrays: write_dataset
takes them (or record objects, converted once), read_dataset returns them
in a Dataset, whose record objects are built only when asked for. Both
work on whole columns, the writers a block of subjects at a time.

read_dataset reads the file as one text. A text with no quote and no
carriage return, as the writers make for plain labels, is cut at its line
ends and commas, which is how csv.reader cuts such a text, and its columns
are stride slices of one split, with no list per row; a text with either
goes through csv.reader, the only reader of quoted fields (as does one
with a NUL before Python 3.11, whose csv.reader refuses it). Both feed the
same checks, and both refuse a field longer than csv.field_size_limit().

write_dataset_and_truth writes a cohort CSV and the truth CSV of its
subjects together; write_dataset and write_truth are it with one file.
Each distinct float of a block is formatted once, for both files: the
values are keyed on their bits, so -0.0 keeps its own text, and a death
time that is both a cohort t1 and a truth time is formatted once.
Generated subject ids ("0", "1", ...) are made once and need none of the
checks that ids passed in by a caller get.

A model config is JSON of the form

    {
      "name": "illness-death",
      "units": "years",
      "components": ["illness", "death"],
      "intensities": [
        {"component": "illness",
         "baseline": {"family": "constant", "rate": "a01"},
         "gates": ["death"]},
        {"component": "death",
         "baseline": {"family": "constant", "rate": "a02"},
         "modifiers": [{"when": ["illness"], "eta": "eta12"}]}
      ],
      "theta": {"a01": 0.1, "a02": 0.2, "eta12": 0.69}
    }

Scalar slots (rates, weibull a/b, eta, gamma, log_offset) take either a
number (fixed) or a string naming a free parameter; log_offset also takes
{"coef": name, "scale": z} for a covariate coefficient times a known
covariate value. Positive slots get a log search transform, the rest are
unconstrained. Piecewise grids are literal numbers, so every breakpoint is
independent of the parameters. A key the loader does not read is refused,
at every level of both configs, with its field path, as is a number that
is not finite (json reads NaN and Infinity). A config family's value map
gives the model values of many points, in IntensityModel.values order,
straight from the slots: a literal, theta[i] or scale * theta[i] each.

A scheme config is JSON of the form

    {"horizon": 10.0,
     "death_component": "death",
     "schedules": [
       {"component": "illness", "visits": [1.0, 2.0]},
       {"component": "death", "windows": [[0.0, 10.0]]}
     ]}
"""

from __future__ import annotations

import csv
import json
import math
import operator
import sys
from collections.abc import Callable
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property
from io import StringIO
from itertools import accumulate, compress, count, repeat
from typing import NamedTuple

import numpy as np

from .baselines import Constant, PiecewiseConstant, Weibull
from .errors import InvalidInputError
from .inference import ParametricFamily
from .models import IntensityModel, ModifierTerm, MultiplicativeComponent
from .observation import (
    ComponentSchedule,
    ObservationScheme,
    PseudoAtomRecord,
    StatusCodes,
)

_STATUSES = ("exact", "exact_censored", "interval", "survived_beyond")
_STATUS_INDEX = {s: i for i, s in enumerate(_STATUSES)}
_KIND_OF_STATUS = np.array([0, 0, 1, 2], dtype=np.uint8)
_BASE_COLUMNS = ("subject_id", "component", "status", "t1", "t2")
_BLOCK = 4096  # subjects formatted at a time, so a writer's text stays small
# a label holding none of these, and not empty, is written by csv.writer as it is
_CSV_SPECIAL = frozenset(',"\r\n\t ')


@dataclass(frozen=True, eq=False)
class Dataset:
    """A cohort of coarse records, as StatusCodes, plus their identifiers."""

    subject_ids: tuple[str, ...]
    component_names: tuple[str, ...]
    codes: StatusCodes
    covariates: dict[str, tuple[float, ...]]

    @property
    def n(self) -> int:
        return len(self.subject_ids)

    @cached_property
    def records(self) -> tuple[PseudoAtomRecord, ...]:
        """The records as objects, built from the codes on first use."""
        return self.codes.records()


def _labels(labels, n: int, prefix: str, what: str) -> tuple[list[str], list[str]]:
    """n distinct labels as strings, and as csv.writer writes them within a
    row. None numbers them from prefix0: distinct, plain, and made once."""
    if labels is None:
        labels = list(map(str, range(n)))
        labels = [prefix + x for x in labels] if prefix else labels
        return labels, labels
    labels = list(map(str, labels))
    if len(labels) != n or len(set(labels)) != n:
        raise InvalidInputError(f"need one distinct {what}")
    return labels, _csv_fields(_no_carriage_return(labels))


def _no_carriage_return(labels: list[str]) -> list[str]:
    """A label with a carriage return is refused, so that the files hold
    none: csv.writer with their "\n" line ends leaves one unquoted, and a
    reader takes it for a line end."""
    if "\r" in "".join(labels):
        bad = next(x for x in labels if "\r" in x)
        raise InvalidInputError(f"label {bad!r} holds a carriage return")
    return labels


def _csv_field(text: str) -> str:
    # "\r\n" ends the row so that a carriage return is quoted too: the
    # writers refuse one, but an id that CLI loglik reports, read from a
    # quoted field, can hold it
    buf = StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([text, "x"])
    return buf.getvalue()[:-4]


def _csv_fields(labels: list[str]) -> list[str]:
    """Labels as csv.writer writes them within a row, quoted where it must."""
    if all(labels) and not _CSV_SPECIAL.intersection("".join(labels)):
        return labels
    return list(map(_csv_field, labels))


def _reprs(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """repr() of every value of the float arrays, as object arrays of their
    shapes. Each distinct value is formatted once, keyed on its bits, so
    that -0.0 keeps its own text."""
    flat = np.concatenate([a.ravel() for a in arrays])
    bits, where = np.unique(flat.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)[where]
    ends = accumulate(a.size for a in arrays)
    return [texts[end - a.size:end].reshape(a.shape) for a, end in zip(arrays, ends)]


class _File(NamedTuple):
    """A CSV file of one row per subject, or per subject and component:
    floats(k) gives the float arrays of the subjects in slice k, and
    columns(k, texts) the rows' columns of CSV-ready text, given the texts
    of those arrays."""

    path: object
    header: list[str]
    floats: Callable[[slice], list[np.ndarray]]
    columns: Callable[[slice, list[np.ndarray]], list[list[str]]]


def _write_files(files: list[_File], n: int) -> None:
    """Write each file's header, then its rows, _BLOCK subjects at a time.
    The floats of a block are formatted in one pass for all files, so a
    value that two files share is formatted once."""
    with ExitStack() as stack:
        handles = [stack.enter_context(open(f.path, "w", encoding="utf-8", newline=""))
                   for f in files]
        for fh, f in zip(handles, files):
            fh.write(",".join(f.header) + "\n")
        for lo in range(0, n, _BLOCK):
            k = slice(lo, lo + _BLOCK)
            arrays = [f.floats(k) for f in files]
            texts = iter(_reprs([a for arrs in arrays for a in arrs]))
            for fh, f, arrs in zip(handles, files, arrays):
                rows = zip(*f.columns(k, [next(texts) for _ in arrs]))
                fh.write("\n".join(map(",".join, rows)) + "\n")


def _first(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) for i in np.argwhere(mask)[0])


def _refuse(bad: np.ndarray, subject_ids, component_names, what) -> None:
    """Refuse the first flagged (subject, component) cell; what(i, j) says why."""
    if bad.any():
        i, j = _first(bad)
        raise InvalidInputError(f"subject {subject_ids[i]!r}, component "
                                f"{component_names[j]!r}: {what(i, j)}")


def _cohort_file(path, codes: StatusCodes, subject_ids, component_names, cells,
                 covariates) -> _File:
    """The cohort CSV, after the checks that read_dataset would otherwise
    fail: times that are NaN, infinite or negative, covariates that are NaN
    or infinite, codes of no status."""
    kind, x1, x2, flag = codes
    n, p = kind.shape
    interval = kind == 1
    t = np.where(np.isfinite(x1) & interval, x2, x1)
    _refuse(~np.isfinite(x1) | (interval & ~np.isfinite(x2)), subject_ids, component_names,
            lambda i, j: f"time is {'NaN' if np.isnan(t[i, j]) else float(t[i, j])}")
    _refuse(~np.isin(kind, (0, 1, 2)) | (interval & ~((0 <= x1) & (x1 < x2))),
            subject_ids, component_names,
            lambda i, j: f"no status has the codes ({kind[i, j]}, {x1[i, j]}, {x2[i, j]})")
    _refuse(~interval & (x1 < 0), subject_ids, component_names,
            lambda i, j: f"time {x1[i, j]} is negative")
    covariates = {str(k): np.asarray(v, dtype=float) for k, v in (covariates or {}).items()}
    for name, vals in covariates.items():
        if vals.shape != (n,):
            raise InvalidInputError(f"covariate {name!r} has {vals.size} values for {n} subjects")
        if not np.isfinite(vals).all():
            i = _first(~np.isfinite(vals))[0]
            raise InvalidInputError(f"covariate {name!r}: {'NaN' if np.isnan(vals[i]) else vals[i]}"
                                    f" for subject {subject_ids[i]!r}")
    cov_names = _no_carriage_return(sorted(covariates))

    sid_cells, name_cells = np.array(cells[0], dtype=object), cells[1]
    # the component and status columns of a row, as one text
    name_status = np.array([[f"{name},{s}" for s in _STATUSES] for name in name_cells],
                           dtype=object)
    name_status = name_status[np.arange(p), np.where(kind == 0, np.where(flag, 0, 1), kind + 1)]

    def floats(k):
        return [x1[k], x2[k][interval[k]], *(covariates[c][k] for c in cov_names)]

    def columns(k, texts):
        t1, t2_some, *covs = texts
        t2 = np.full(t1.shape, "", dtype=object)
        t2[interval[k]] = t2_some
        return [np.repeat(sid_cells[k], p).tolist(), name_status[k].ravel().tolist(),
                t1.ravel().tolist(), t2.ravel().tolist(),
                *(np.repeat(c, p).tolist() for c in covs)]

    return _File(path, [*_BASE_COLUMNS, *_csv_fields(cov_names)], floats, columns)


def _truth_file(path, times: np.ndarray, subject_ids, component_names, cells) -> _File:
    """The truth CSV, blank for no jump (+inf). A NaN or -inf time would be
    written blank too, and read back as no jump: it is refused."""
    _refuse(np.isnan(times) | (times == -np.inf), subject_ids, component_names,
            lambda i, j: f"time is {'NaN' if np.isnan(times[i, j]) else '-inf'}")
    finite = np.isfinite(times)
    sid_cells, name_cells = cells

    def floats(k):
        return [times[k][finite[k]]]

    def columns(k, texts):
        t = np.full(times[k].shape, "", dtype=object)
        t[finite[k]] = texts[0]
        return [sid_cells[k], *t.T.tolist()]

    return _File(path, ["subject_id", *name_cells], floats, columns)


def write_dataset_and_truth(path, records, truth_path, times, *, subject_ids=None,
                            component_names=None, covariates=None) -> None:
    """Write a cohort CSV (`records` to `path`) and the truth CSV of the
    same subjects (`times` to `truth_path`) together; pass None as
    `records` or `times` to write only the other file.

    Every check of both files runs before either is opened. The floats of a
    block of subjects are formatted once for both files, so a death time
    that is both a cohort `t1` and a truth time is formatted once.
    """
    if records is None and times is None:
        raise InvalidInputError("neither records nor times to write")
    if records is not None:
        codes = StatusCodes.from_records(records)
        n, p = codes.kind.shape
        if not n:
            raise InvalidInputError("refusing to write an empty dataset")
        if not p:
            raise InvalidInputError("refusing to write records without components")
        what = "subject_id per record", "name per component"
    if times is not None:
        times = np.asarray(times, dtype=float)
        if times.ndim != 2:
            raise InvalidInputError("times must be an (n, p) matrix")
        if records is None:
            (n, p), what = times.shape, ("subject_id per row", "name per column")
        elif times.shape != (n, p):
            raise InvalidInputError(f"times for {times.shape[0]} subjects and "
                                    f"{times.shape[1]} components; the records have {n} and {p}")
    subject_ids, sid_cells = _labels(subject_ids, n, "", what[0])
    component_names, name_cells = _labels(component_names, p, "comp", what[1])
    labels = subject_ids, component_names, (sid_cells, name_cells)
    files = []
    if records is not None:
        files.append(_cohort_file(path, codes, *labels, covariates))
    if times is not None:
        files.append(_truth_file(truth_path, times, *labels))
    _write_files(files, n)


def write_dataset(path, records, *, subject_ids=None, component_names=None,
                  covariates=None) -> None:
    """Write a cohort as one CSV row per subject and component.

    `records` is a sequence of records or their StatusCodes. A cohort that
    read_dataset would refuse (no records, no components, covariates that
    are NaN or infinite, times that are NaN, infinite or negative) is
    refused before the file is opened.
    """
    write_dataset_and_truth(path, records, None, None, subject_ids=subject_ids,
                            component_names=component_names, covariates=covariates)


def write_truth(path, times, *, subject_ids=None, component_names=None) -> None:
    """Write ground-truth jump times, one row per subject, blank = no jump
    (+inf). A NaN or -inf time is refused."""
    write_dataset_and_truth(None, None, path, times, subject_ids=subject_ids,
                            component_names=component_names)


def _floats(texts) -> tuple[np.ndarray, int]:
    """A text column as floats, parsed as float() parses them, and the index
    of its first text that is not a number (len(texts) if none); the values
    from there on are NaN."""
    try:
        return np.array(texts, dtype=float), len(texts)
    except ValueError:
        pass
    vals: list[float] = []
    try:
        vals.extend(map(float, texts))
    except ValueError:
        pass
    bad = len(vals)
    return np.array(vals + [np.nan] * (len(texts) - bad)), bad


class _Rows(NamedTuple):
    """A cohort CSV cut into its header and body rows: the line number and
    field count of each body row that is not blank, and columns(width, m),
    the `width` columns of the first m of those rows."""

    header: list[str]
    line: np.ndarray
    lens: np.ndarray
    columns: Callable[[int, int], list]


def _csv_rows(text: str, path) -> _Rows:
    """The rows of a text as csv.reader reads them: the path of any text
    with a quoted field or a carriage return (or, before Python 3.11, a NUL)."""
    rows: list[list[str]] = []
    try:
        rows.extend(csv.reader(StringIO(text, newline="")))
    except csv.Error as err:    # a field over csv.field_size_limit(), or a NUL before 3.11
        raise InvalidInputError(f"{path}: line {len(rows) + 1}: {err}") from None
    header, rows = rows[0], rows[1:]    # a text that is not empty has a row
    lens = np.fromiter(map(len, rows), np.intp, len(rows))
    line = np.flatnonzero(lens) + 2
    rows = list(compress(rows, lens))
    return _Rows(header, line, lens[lens > 0],
                 lambda width, m: list(zip(*rows[:m])) or [()] * width)


def _split_rows(text: str, path) -> _Rows:
    """The rows of a text without a quote or a carriage return, which
    csv.reader reads as its lines split at commas: a blank line is no row,
    a last line without a newline is one."""
    head, _, body = text.partition("\n")
    lines = body.removesuffix("\n").split("\n")
    line = np.arange(2, len(lines) + 2)
    if "" in lines:     # cut the blank lines out
        line = line[np.fromiter(map(bool, lines), bool, len(lines))]
        lines = list(compress(lines, lines))
    lens = np.array([x.count(",") for x in lines], np.intp) + 1

    # csv.reader refuses a field over its limit: so does this path, at the
    # same line; only a line that long can hold such a field
    limit = csv.field_size_limit()
    over = np.flatnonzero(np.fromiter(map(len, lines), np.intp, len(lines)) > limit).tolist()
    for k, x in [(1, head), *((int(line[i]), lines[i]) for i in over)]:
        if max(map(len, x.split(","))) > limit:
            raise InvalidInputError(f"{path}: line {k}: field larger than field limit ({limit})")

    def columns(width: int, m: int) -> list:
        if not m:
            return [[] for _ in range(width)]
        flat = ",".join(lines[:m]).split(",")
        return [flat[k::width] for k in range(width)]

    return _Rows(head.split(",") if head else [], line, lens, columns)


def _read_text(path, newline=None) -> str:
    """A file's whole text, which must be UTF-8: a byte that is not is
    refused with its offset in the file. One leading byte-order mark (as
    spreadsheet programs write "CSV UTF-8") is dropped."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            return fh.read().removeprefix("\ufeff")
        except UnicodeDecodeError as err:
            raise InvalidInputError(f"{path}: byte {err.start}: not valid UTF-8 "
                                    f"({err.reason})") from None


def read_dataset(path, component_names=None) -> Dataset:
    """Read a cohort CSV into StatusCodes, subjects in order of first
    appearance; a subject's rows may come in any order, blank lines are
    skipped. A malformed file is refused at its first faulty line, an
    infinite or negative time, an infinite covariate and a field longer
    than csv.field_size_limit() among its faults.

    The file is read as one text. A text with a quote or a carriage return
    (or, before Python 3.11, whose csv.reader refuses it, a NUL) is cut
    into rows by csv.reader; any other is split at its line ends and
    commas, which cuts it as csv.reader would, into columns without a list
    per row. Both feed the same checks."""
    text = _read_text(path, newline="")
    if not text:
        raise InvalidInputError(f"{path}: empty file (header row is mandatory)")
    quoted = '"' in text or "\r" in text or (sys.version_info < (3, 11) and "\0" in text)
    rows = (_csv_rows if quoted else _split_rows)(text, path)
    del text
    header = rows.header
    if tuple(header[:5]) != _BASE_COLUMNS:
        raise InvalidInputError(
            f"{path}: line 1: header must start with {','.join(_BASE_COLUMNS)}, "
            f"got {','.join(header[:5])}"
        )
    cov_names = header[5:]
    if len(set(cov_names)) != len(cov_names):
        raise InvalidInputError(f"{path}: line 1: duplicate covariate columns")

    # every check notes its first failing row; the error raised is that of
    # the earliest row, and within a row that of the first check in this order
    errors: list[tuple[int, int, str]] = []
    line = rows.line

    def note(r, order: int, text: str) -> None:
        errors.append((r, order, f"{path}: line {line[r]}: {text}"))

    def check(order: int, bad: np.ndarray, message) -> None:
        hit = np.flatnonzero(bad)
        if hit.size:
            note(hit[0], order, message(hit[0]))

    def number(order: int, field: str, texts, where=None) -> np.ndarray:
        """Parse a text column, of rows `where` (default: all)."""
        vals, bad = _floats(texts)
        where = np.arange(len(texts)) if where is None else where
        if bad < len(texts):
            note(where[bad], order, f"field {field!r}: not a number: {texts[bad]!r}")
        nan = np.flatnonzero(np.isnan(vals[:bad]))
        if nan.size:
            note(where[nan[0]], order, f"field {field!r}: NaN")
        return vals

    width = 5 + len(cov_names)
    m = rows.lens.size
    wrong = np.flatnonzero(rows.lens != width)
    if wrong.size:
        m = int(wrong[0])
        note(m, 0, f"expected {width} fields, got {rows.lens[m]}")
    cols = rows.columns(width, m)
    del rows
    sid_col, comp_col, status_col, t1_col, t2_col = cols[:5]
    st = np.fromiter(map(_STATUS_INDEX.get, status_col, repeat(4)), np.intp, m)
    check(1, st == 4, lambda r: f"field 'status': unknown status {status_col[r]!r}")
    interval = st == 2
    check(2, ~interval & ~np.fromiter(map(operator.not_, t2_col), bool, m),
          lambda r: f"field 't2': must be blank for status {status_col[r]!r}")
    x1 = number(3, "t1", t1_col)
    check(3, np.isinf(x1), lambda r: f"field 't1': time is {float(x1[r])}")
    x2 = np.full(m, np.nan)
    x2[interval] = number(4, "t2", list(compress(t2_col, interval.tolist())),
                          np.flatnonzero(interval))
    check(4, np.isinf(x2), lambda r: f"field 't2': time is {float(x2[r])}")
    check(5, ~interval & (x1 < 0), lambda r: f"field 't1': time {float(x1[r])} is negative")
    check(5, interval & ~((0 <= x1) & (x1 < x2)),
          lambda r: f"interval ({float(x1[r])}, {float(x2[r])}] is empty or negative")

    # subjects and components, numbered in order of first appearance
    subjects = dict(zip(dict.fromkeys(sid_col), count()))
    si = np.fromiter(map(subjects.__getitem__, sid_col), np.intp, m)
    first = np.unique(si, return_index=True)[1]
    covs = []
    for k, name in enumerate(cov_names):
        vals = number(6 + 2 * k, name, cols[5 + k])
        check(6 + 2 * k, np.isinf(vals),
              lambda r, name=name, vals=vals: f"field {name!r}: covariate is {float(vals[r])}")
        check(7 + 2 * k, vals != vals[first][si],
              lambda r, name=name: f"field {name!r}: covariate changes within subject "
                                   f"{sid_col[r]!r}")
        covs.append(vals)
    seen = dict(zip(dict.fromkeys(comp_col), count()))
    ci = np.fromiter(map(seen.__getitem__, comp_col), np.intp, m)
    repeated = np.ones(m, dtype=bool)
    repeated[np.unique(si * len(seen) + ci, return_index=True)[1]] = False
    check(6 + 2 * len(cov_names), repeated,
          lambda r: f"field 'component': duplicate component {comp_col[r]!r} "
                    f"for subject {sid_col[r]!r}")
    if errors:
        raise InvalidInputError(min(errors)[2])

    if not m:
        raise InvalidInputError(f"{path}: no data rows")
    names = ([comp_col[r] for r in np.flatnonzero(si == 0)] if component_names is None
             else list(component_names))
    expected = set(names)
    if len(expected) != len(names):
        raise InvalidInputError("component names must be distinct")
    subject_ids = tuple(subjects)
    n, p = len(subject_ids), len(names)
    cj = np.fromiter(map(dict(zip(names, count())).get, comp_col, repeat(-1)), np.intp, m)
    mismatch = (np.bincount(si, minlength=n) != p) | (np.bincount(si[cj < 0], minlength=n) > 0)
    if mismatch.any():
        s = int(np.argmax(mismatch))
        have = {comp_col[r] for r in np.flatnonzero(si == s)}
        missing = sorted(expected - have) + sorted(have - expected)
        raise InvalidInputError(
            f"{path}: subject {subject_ids[s]!r}: component set mismatch (offending: {missing})"
        )
    codes = StatusCodes(np.empty((n, p), dtype=np.uint8), np.empty((n, p)), np.empty((n, p)),
                        np.empty((n, p), dtype=bool))
    for out, vals in zip(codes, (_KIND_OF_STATUS[st], x1, x2, st == 0)):
        out[si, cj] = vals
    covariates = {c: tuple(vals[first].tolist()) for c, vals in zip(cov_names, covs)}
    return Dataset(subject_ids, tuple(names), codes, covariates)


# ---------------------------------------------------------------------------
# model config


class _ParamRegistry:
    """Collects named parameters in order of first use, with their transform."""

    def __init__(self, path):
        self.path = path
        self.names: list[str] = []
        self.transforms: dict[str, str] = {}

    def slot(self, value, field: str, transform: str):
        """Return a resolver (theta -> value) for a number-or-name slot; it
        indexes theta, so the points (k, P) of the value map give a row."""
        if isinstance(value, bool):
            raise InvalidInputError(f"{self.path}: field {field!r}: booleans are not numbers")
        if isinstance(value, (int, float)):
            x = _number(value, self.path, field)
            return lambda theta: x
        if isinstance(value, str):
            if value not in self.transforms:
                self.names.append(value)
                self.transforms[value] = transform
            elif self.transforms[value] != transform:
                raise InvalidInputError(
                    f"{self.path}: field {field!r}: parameter {value!r} is used both "
                    f"as {self.transforms[value]}-transformed and {transform}-transformed"
                )
            idx = self.names.index(value)
            return lambda theta: theta[idx]
        raise InvalidInputError(f"{self.path}: field {field!r}: expected a number "
                                f"or parameter name, got {value!r}")

    def offset_slot(self, value, field: str):
        """log_offset slot; also accepts {"coef": name, "scale": z}."""
        if isinstance(value, dict):
            if set(value) != {"coef", "scale"}:
                raise InvalidInputError(f"{self.path}: field {field!r}: covariate form "
                                        "needs exactly the keys 'coef' and 'scale'")
            inner = self.slot(value["coef"], field + ".coef", "identity")
            scale = _number(value["scale"], self.path, field + ".scale")
            return lambda theta: scale * inner(theta)
        return self.slot(value, field, "identity")


def _known_keys(cfg: dict, known, path, field=None) -> None:
    """Refuse the keys of `cfg` outside `known`: a typo would otherwise be
    silently ignored. No field means the top level."""
    stray = sorted(set(cfg) - set(known))
    if stray:
        where = "unknown top-level keys" if field is None else f"field {field!r}: unknown keys"
        raise InvalidInputError(f"{path}: {where} {stray}")


def _build_baseline(cfg, reg: _ParamRegistry, field: str):
    """Return (its values -> baseline object, the resolvers of its values,
    literal breakpoints)."""
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise InvalidInputError(f"{reg.path}: field {field!r}: baseline needs a 'family' key")
    fam = cfg["family"]
    keys = {"constant": ("rate",), "weibull": ("a", "b"), "piecewise": ("grid", "rates")}
    if fam in keys:
        _known_keys(cfg, ("family", *keys[fam]), reg.path, field)
    if fam == "constant":
        return Constant, [reg.slot(cfg.get("rate"), field + ".rate", "log")], ()
    if fam == "weibull":
        return Weibull, [reg.slot(cfg.get(x), f"{field}.{x}", "log") for x in "ab"], ()
    if fam == "piecewise":
        grid = cfg.get("grid")
        if not isinstance(grid, list) or not all(isinstance(g, (int, float)) for g in grid):
            raise InvalidInputError(f"{reg.path}: field {field!r}.grid: "
                                    "must be a list of numbers (grids are never fitted)")
        grid = tuple(float(g) for g in grid)
        rates_cfg = cfg.get("rates")
        if not isinstance(rates_cfg, list) or len(rates_cfg) != len(grid) + 1:
            raise InvalidInputError(f"{reg.path}: field {field!r}.rates: "
                                    f"need {len(grid) + 1} entries for {len(grid)} cuts")
        rates = [reg.slot(r, f"{field}.rates[{i}]", "log") for i, r in enumerate(rates_cfg)]
        return (lambda *values: PiecewiseConstant(grid, values)), rates, grid
    raise InvalidInputError(f"{reg.path}: field {field!r}.family: unknown family {fam!r}")


@dataclass(frozen=True)
class ModelConfig:
    """A parsed model description: names, fitting family, default values."""

    name: str
    units: str
    component_names: tuple[str, ...]
    family: ParametricFamily
    default_theta: dict[str, float]

    def theta_from(self, override=None) -> np.ndarray:
        """Resolve a full natural-scale parameter vector.

        `override` may be a mapping name -> value or a positional sequence;
        missing entries fall back to the config's theta block.
        """
        vals = dict(self.default_theta)
        if override is not None and not isinstance(override, dict):
            seq = [float(x) for x in override]
            if len(seq) != self.family.k:
                raise InvalidInputError(f"expected {self.family.k} parameter values "
                                        f"({', '.join(self.family.param_names)}), got {len(seq)}")
            return np.asarray(seq)
        if isinstance(override, dict):
            unknown = sorted(set(override) - set(self.family.param_names))
            if unknown:
                raise InvalidInputError(f"unknown parameters {unknown}")
            vals.update({k: float(v) for k, v in override.items()})
        missing = [nm for nm in self.family.param_names if nm not in vals]
        if missing:
            raise InvalidInputError(f"no value for parameters {missing} "
                                    "(config theta block or --theta)")
        return np.asarray([vals[nm] for nm in self.family.param_names])

    def build(self, theta=None) -> IntensityModel:
        return self.family.build(self.theta_from(theta))


def _number(value, path, field) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{path}: field {field!r}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise InvalidInputError(f"{path}: field {field!r}: {value} is not finite")
    return float(value)


def _list(value, path, field) -> list:
    # a string would otherwise be iterated character by character
    if not isinstance(value, list):
        raise InvalidInputError(f"{path}: field {field!r}: need a list, got {value!r}")
    return value


def _numbers(value, path, field) -> tuple[float, ...]:
    return tuple(_number(v, path, f"{field}[{i}]") for i, v in enumerate(_list(value, path, field)))


def _component_index(names, value, path, field) -> int:
    if value not in names:
        raise InvalidInputError(f"{path}: field {field!r}: unknown component {value!r} "
                                f"(declared: {', '.join(names)})")
    return names.index(value)


def _load_json(path):
    """A JSON file's value; a file that is not UTF-8 JSON is refused."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as err:
        raise InvalidInputError(f"{path}: line {err.lineno}: invalid JSON: {err.msg}") from None


def load_model_config(path) -> ModelConfig:
    cfg = _load_json(path)
    if not isinstance(cfg, dict):
        raise InvalidInputError(f"{path}: top level must be a JSON object")
    names = cfg.get("components")
    if (not isinstance(names, list) or not names
            or len(set(names)) != len(names) or not all(isinstance(c, str) for c in names)):
        raise InvalidInputError(f"{path}: field 'components': need a list of distinct names")
    names = [str(c) for c in names]
    intens = cfg.get("intensities")
    if not isinstance(intens, list) or len(intens) != len(names):
        raise InvalidInputError(f"{path}: field 'intensities': need one entry per component")

    reg = _ParamRegistry(path)
    # each component's baseline family and number of values, gates, modifier
    # components, and value resolvers in IntensityModel.values order
    parts = [None] * len(names)
    all_bps: set[float] = set()
    for k, entry in enumerate(intens):
        field = f"intensities[{k}]"
        if not isinstance(entry, dict):
            raise InvalidInputError(f"{path}: field {field!r}: must be an object")
        _known_keys(entry, ("component", "baseline", "gates", "modifiers", "log_offset"),
                    path, field)
        own = _component_index(names, entry.get("component"), path, field + ".component")
        if parts[own] is not None:
            raise InvalidInputError(f"{path}: field {field!r}: duplicate intensity "
                                    f"for component {names[own]!r}")
        base, slots, bps = _build_baseline(entry.get("baseline"), reg, field + ".baseline")
        n_base = len(slots)
        all_bps.update(bps)
        gates = tuple(_component_index(names, g, path, field + ".gates")
                      for g in _list(entry.get("gates", []), path, field + ".gates"))
        whens = []
        for m, mod in enumerate(_list(entry.get("modifiers", []), path, field + ".modifiers")):
            mfield = f"{field}.modifiers[{m}]"
            if not isinstance(mod, dict) or "when" not in mod:
                raise InvalidInputError(f"{path}: field {mfield!r}: needs a 'when' list")
            _known_keys(mod, ("when", "eta", "gamma"), path, mfield)
            whens.append(tuple(_component_index(names, c, path, mfield + ".when")
                               for c in _list(mod["when"], path, mfield + ".when")))
            slots += [reg.slot(mod.get("eta", 0.0), mfield + ".eta", "identity"),
                      reg.slot(mod.get("gamma", 0.0), mfield + ".gamma", "identity")]
        slots.append(reg.offset_slot(entry.get("log_offset", 0.0), field + ".log_offset"))
        parts[own] = (base, n_base, gates, whens, slots)

    param_names = tuple(reg.names)
    transforms = tuple(reg.transforms[nm] for nm in param_names)
    resolvers = [slot for *_, slots in parts for slot in slots]

    def build(theta):
        comps = []
        for own, (base, n, gates, whens, slots) in enumerate(parts):
            v = [slot(theta) for slot in slots]
            comps.append(MultiplicativeComponent(own, base(*v[:n]), gates, tuple(
                map(ModifierTerm, whens, v[n:-1:2], v[n + 1:-1:2])), v[-1]))
        return IntensityModel(comps)

    def value_map(thetas):
        out, theta = np.empty((len(resolvers), len(thetas))), thetas.T
        for row, slot in zip(out, resolvers):
            row[:] = slot(theta)
        return out

    family = ParametricFamily(param_names, transforms, build, tuple(sorted(all_bps)), value_map)

    theta_block = cfg.get("theta", {})
    if not isinstance(theta_block, dict):
        raise InvalidInputError(f"{path}: field 'theta': must map names to numbers")
    unknown = sorted(set(theta_block) - set(param_names))
    if unknown:
        raise InvalidInputError(f"{path}: field 'theta': values for undeclared "
                                f"parameters {unknown}")
    defaults = {str(k): _number(v, path, f"theta.{k}") for k, v in theta_block.items()}

    _known_keys(cfg, ("name", "units", "components", "intensities", "theta"), path)

    return ModelConfig(
        name=str(cfg.get("name", "")),
        units=str(cfg.get("units", "")),
        component_names=tuple(names),
        family=family,
        default_theta=defaults,
    )


def load_scheme_config(path, component_names) -> ObservationScheme:
    component_names = list(component_names)
    cfg = _load_json(path)
    if not isinstance(cfg, dict) or "horizon" not in cfg:
        raise InvalidInputError(f"{path}: field 'horizon': required")
    _known_keys(cfg, ("horizon", "death_component", "schedules"), path)
    horizon = _number(cfg["horizon"], path, "horizon")
    entries = cfg.get("schedules")
    if not isinstance(entries, list) or len(entries) != len(component_names):
        raise InvalidInputError(f"{path}: field 'schedules': need one entry per component "
                                f"({', '.join(component_names)})")
    schedules: list[ComponentSchedule | None] = [None] * len(component_names)
    for k, entry in enumerate(entries):
        field = f"schedules[{k}]"
        if not isinstance(entry, dict):
            raise InvalidInputError(f"{path}: field {field!r}: must be an object")
        j = _component_index(component_names, entry.get("component"), path, field + ".component")
        if schedules[j] is not None:
            raise InvalidInputError(f"{path}: field {field!r}: duplicate schedule "
                                    f"for component {component_names[j]!r}")
        windows = _list(entry.get("windows", []), path, field + ".windows")
        windows = tuple(_numbers(w, path, f"{field}.windows[{i}]") for i, w in enumerate(windows))
        visits = _numbers(entry.get("visits", []), path, field + ".visits")
        try:
            schedules[j] = ComponentSchedule(windows=windows, visits=visits)
        except (InvalidInputError, ValueError) as err:
            raise InvalidInputError(f"{path}: field {field!r}: {err}") from None
        _known_keys(entry, ("component", "windows", "visits"), path, field)
    death = cfg.get("death_component")
    d = None if death is None else _component_index(component_names, death,
                                                    path, "death_component")
    try:
        return ObservationScheme(tuple(schedules), horizon, death_component=d)
    except InvalidInputError as err:
        raise InvalidInputError(f"{path}: {err}") from None
