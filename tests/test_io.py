"""CSV cohort files and JSON model/scheme configs."""

import csv
import io
import json
import math
import sys

import numpy as np
import pytest

from coarselik.errors import InvalidInputError
from coarselik.io import (
    load_model_config,
    load_scheme_config,
    read_dataset,
    write_dataset,
    write_dataset_and_truth,
    write_truth,
)
from coarselik.observation import (
    Exact,
    Interval,
    PseudoAtomRecord,
    StatusCodes,
    SurvivedBeyond,
)

INF = np.inf
# csv.reader refuses a NUL before Python 3.11, and read_dataset with it
NUL_REFUSED = sys.version_info < (3, 11)

RECORDS = [
    PseudoAtomRecord((Interval(0.0, 1.0), Exact(2.0, False))),
    PseudoAtomRecord((SurvivedBeyond(1.5), Exact(0.7331264357, True))),
    PseudoAtomRecord((Exact(0.25, True), Exact(2.0, False))),
]


def test_dataset_round_trip(tmp_path):
    path = tmp_path / "cohort.csv"
    write_dataset(path, RECORDS, subject_ids=["s1", "s2", "s3"],
                  component_names=["illness", "death"],
                  covariates={"age": [61.5, 70.25, 58.0]})
    ds = read_dataset(path)
    assert ds.subject_ids == ("s1", "s2", "s3")
    assert ds.component_names == ("illness", "death")
    assert ds.records == tuple(RECORDS)
    assert ds.covariates == {"age": (61.5, 70.25, 58.0)}
    # writing the parsed dataset again reproduces the file byte for byte
    again = tmp_path / "again.csv"
    write_dataset(again, ds.records, subject_ids=ds.subject_ids,
                  component_names=ds.component_names, covariates=ds.covariates)
    assert again.read_bytes() == path.read_bytes()


def test_dataset_column_order_override(tmp_path):
    path = tmp_path / "cohort.csv"
    write_dataset(path, RECORDS, component_names=["illness", "death"])
    ds = read_dataset(path, component_names=["death", "illness"])
    assert ds.records[0] == PseudoAtomRecord((Exact(2.0, False), Interval(0.0, 1.0)))


def test_dataset_diagnostics_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "subject_id,component,status,t1,t2\n"
        "a,x,exact,0.5,\n"
        "a,y,intervall,0.1,0.2\n")
    with pytest.raises(InvalidInputError, match=r"line 3.*status"):
        read_dataset(path)

    path.write_text(
        "subject_id,component,status,t1,t2\n"
        "a,x,exact,fast,\n")
    with pytest.raises(InvalidInputError, match=r"line 2.*'t1'.*fast"):
        read_dataset(path)

    path.write_text(
        "subject_id,component,status,t1,t2\n"
        "a,x,exact,0.5,\n"
        "b,x,exact,0.5,\n"
        "b,y,exact_censored,2.0,\n")
    with pytest.raises(InvalidInputError, match=r"subject 'a'.*component set"):
        read_dataset(path, component_names=["x", "y"])


def test_dataset_covariates_must_be_constant_within_subject(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "subject_id,component,status,t1,t2\n"
        "a,x,exact,0.5,\n"
        "a,x,exact,0.6,\n")
    with pytest.raises(InvalidInputError, match="duplicate component"):
        read_dataset(path)

    path.write_text(
        "subject_id,component,status,t1,t2,age\n"
        "a,x,exact,0.5,,60\n"
        "a,y,exact,0.7,,61\n")
    with pytest.raises(InvalidInputError, match="covariate changes within subject"):
        read_dataset(path)


def test_dataset_accepts_status_codes(tmp_path):
    a, b = tmp_path / "records.csv", tmp_path / "codes.csv"
    write_dataset(a, RECORDS)
    write_dataset(b, StatusCodes.from_records(RECORDS))
    assert a.read_bytes() == b.read_bytes()
    ds = read_dataset(b)
    assert ds.records == tuple(RECORDS)
    for got, want in zip(ds.codes, StatusCodes.from_records(RECORDS)):
        np.testing.assert_array_equal(got, want)


H = "subject_id,component,status,t1,t2\n"


ANY_ORDER = [
    (H + "b,death,exact,1.5,\na,illness,interval,0.0,1.0\n\n"
     "b,illness,survived_beyond,1.0,\na,death,exact_censored,2.0,\n", ["illness", "death"],
     {"b": (SurvivedBeyond(1.0), Exact(1.5, True)),
      "a": (Interval(0.0, 1.0), Exact(2.0, False))}),
    # without names, the first subject's rows set the component order
    (H + "b,death,exact,1.5,\na,illness,interval,0.0,1.0\n\n"
     "b,illness,survived_beyond,1.0,\na,death,exact_censored,2.0,\n", None,
     {"b": (Exact(1.5, True), SurvivedBeyond(1.0)),
      "a": (Exact(2.0, False), Interval(0.0, 1.0))}),
]


@pytest.mark.parametrize("text, names, expected", ANY_ORDER)
def test_dataset_rows_in_any_order(tmp_path, text, names, expected):
    # subjects interleaved, blank lines, components out of the config's order
    path = tmp_path / "cohort.csv"
    path.write_text(text)
    ds = read_dataset(path, names)
    assert ds.subject_ids == tuple(expected)
    assert ds.records == tuple(PseudoAtomRecord(v) for v in expected.values())


COV = "subject_id,component,status,t1,t2,age\n"


FIRST_FAULTS = [
    ("", None, "empty file (header row is mandatory)"),
    ("subject,component,status,t1,t2\n", None,
     "line 1: header must start with subject_id,component,status,t1,t2, "
     "got subject,component,status,t1,t2"),
    ("subject_id,component,status,t1,t2,age,age\n", None, "line 1: duplicate covariate columns"),
    (H, None, "no data rows"),
    (H + "\n\n", None, "no data rows"),
    (H + "a,x,exact,0.5,\na,y,intervall,0.1,0.2\n", None,
     "line 3: field 'status': unknown status 'intervall'"),
    (H + "a,x,exact,fast,\n", None, "line 2: field 't1': not a number: 'fast'"),
    (H + "a,x,exact,0.5,\nb,x,exact,0.5,\nb,y,exact_censored,2.0,\n", ["x", "y"],
     "subject 'a': component set mismatch (offending: ['y'])"),
    (H + "a,x,exact,0.5,\na,x,exact,0.6,\n", None,
     "line 3: field 'component': duplicate component 'x' for subject 'a'"),
    (COV + "a,x,exact,0.5,,60\na,y,exact,0.7,,61\n", None,
     "line 3: field 'age': covariate changes within subject 'a'"),
    (H + "a,x,exact,0.5\n", None, "line 2: expected 5 fields, got 4"),
    (H + "a,x,exact,0.5,\n\n\na,y,exact,0.5,,\n", None, "line 5: expected 5 fields, got 6"),
    (H + "a,x,exact,0.5,1.0\n", None, "line 2: field 't2': must be blank for status 'exact'"),
    (H + "a,x,exact,nan,\n", None, "line 2: field 't1': NaN"),
    (H + "a,x,interval,0.5,\n", None, "line 2: field 't2': not a number: ''"),
    (H + "a,x,interval,0.5,NaN\n", None, "line 2: field 't2': NaN"),
    (H + "a,x,interval,0.5,0.5\n", None, "line 2: interval (0.5, 0.5] is empty or negative"),
    (H + "a,x,interval,-1,0.5\n", None, "line 2: interval (-1.0, 0.5] is empty or negative"),
    (H + "a,x,survived_beyond,,\n", None, "line 2: field 't1': not a number: ''"),
    (COV + "a,x,exact,0.5,,old\n", None, "line 2: field 'age': not a number: 'old'"),
    (COV + "a,x,exact,0.5,,nan\n", None, "line 2: field 'age': NaN"),
    (COV + "a,x,exact,0.5,,inf\n", None, "line 2: field 'age': covariate is inf"),
    (COV + "a,x,exact,0.5,,60\nb,x,exact,0.5,,-Infinity\n", None,
     "line 3: field 'age': covariate is -inf"),
    ("subject_id,component,status,t1,t2,age,w\na,x,exact,0.5,,60,1\na,y,exact,0.5,,60,x\n",
     None, "line 3: field 'w': not a number: 'x'"),
    ("subject_id,component,status,t1,t2,age,w\na,x,exact,0.5,,60,1\na,y,exact,0.5,,61,x\n",
     None, "line 3: field 'age': covariate changes within subject 'a'"),
    (H + "a,x,exact,0.5,\nb,y,exact,0.5,\n", None,
     "subject 'b': component set mismatch (offending: ['x', 'y'])"),
    (H + "a,x,exact,0.5,\na,y,exact,0.5,\nb,x,exact,0.5,\nb,z,exact,0.5,\n", None,
     "subject 'b': component set mismatch (offending: ['y', 'z'])"),
    (H + "a,x,exact,0.5,\na,y,exact,0.5,\n", ["x", "x"], "component names must be distinct"),
    (H + "a,x,exact,0.5,\na,y,exact,0.5,\n", ["x", "y", "z"],
     "subject 'a': component set mismatch (offending: ['z'])"),
    # of two faults, the earlier line's is reported, and within a line the
    # first in the order fields are checked
    (H + "a,x,exact,0.5,\na,x,bogus,zz,\nb,x,exact,fast,\n", None,
     "line 3: field 'status': unknown status 'bogus'"),
    (H + "a,x,exact,zz,\nb,x,bogus,0.5,\n", None, "line 2: field 't1': not a number: 'zz'"),
    (H + "a,x,interval,zz,1\nb,x,interval,0.1,yy\n", None,
     "line 2: field 't1': not a number: 'zz'"),
    (H + "a,x,interval,0.5,yy\nb,x,interval,2,1\n", None,
     "line 2: field 't2': not a number: 'yy'"),
    (H + "a,x,exact,0.5,\nb,x,exact,0.5,\na,x,exact,0.5\n", None,
     "line 4: expected 5 fields, got 4"),
    (H + "a,x,exact,0.5,\nb,x,exact,0.5,\na,x,exact,0.5,\nb,y,exact,,\n", None,
     "line 4: field 'component': duplicate component 'x' for subject 'a'"),
    (COV + "a,x,exact,0.5,,60\na,x,exact,0.5,,61\n", None,
     "line 3: field 'age': covariate changes within subject 'a'"),
    (COV + "a,x,exact,0.5,,60\nb,x,exact,0.5,,zz\na,y,exact,0.5,,61\n", None,
     "line 3: field 'age': not a number: 'zz'"),
    # times that are never legal: infinite, or a negative time of a jump or
    # of a survival
    (H + "a,x,exact,-inf,\n", None, "line 2: field 't1': time is -inf"),
    (H + "a,x,exact,0.5,\na,y,survived_beyond,inf,\n", None, "line 3: field 't1': time is inf"),
    (H + "a,x,exact_censored,Infinity,\n", None, "line 2: field 't1': time is inf"),
    (H + "a,x,interval,-inf,1\n", None, "line 2: field 't1': time is -inf"),
    (H + "a,x,interval,0.5,inf\n", None, "line 2: field 't2': time is inf"),
    (H + "a,x,exact,-0.5,\n", None, "line 2: field 't1': time -0.5 is negative"),
    (H + "a,x,exact,0.5,\na,y,exact_censored,-1e-300,\n", None,
     "line 3: field 't1': time -1e-300 is negative"),
    (H + "a,x,exact,0.5,\na,y,survived_beyond,-2,\n", None,
     "line 3: field 't1': time -2.0 is negative"),
    (H + "a,x,survived_beyond,-2,\nb,x,exact,inf,\n", None,
     "line 2: field 't1': time -2.0 is negative"),
]


@pytest.mark.parametrize("text, names, message", FIRST_FAULTS)
def test_dataset_messages_name_the_first_fault(tmp_path, text, names, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(InvalidInputError) as exc:
        read_dataset(path, names)
    prefix = "" if message.startswith("component names") else f"{path}: "
    assert str(exc.value) == prefix + message


# A text with no quote and no carriage return is split at its line ends and
# commas; one with either goes through csv.reader. Each text is read three
# ways: as written (split), every field quoted and with CRLF line ends (both
# csv.reader).
RENDERS = ("as written", "quoted", "crlf")


def render(text: str, how: str) -> str:
    if how == "crlf":
        return text.replace("\n", "\r\n")
    if how == "quoted":     # line by line, so blank lines and the last line end stay
        return "\n".join(reference_csv([x.split(",")], quoting=csv.QUOTE_ALL)[:-1] if x else ""
                         for x in text.split("\n"))
    return text


def read_each_way(path, text, names) -> list:
    """The Dataset, or the message, of each render of text."""
    got = []
    for how in RENDERS:
        path.write_bytes(render(text, how).encode())
        try:
            ds = read_dataset(path, names)
        except InvalidInputError as err:
            got.append(str(err))
        else:
            got.append((ds.subject_ids, ds.component_names,
                        [(c.dtype.str, c.tobytes()) for c in ds.codes], ds.covariates))
    return got


# texts at the edges of the line splitting, with their Dataset's subject ids
# and records, or their message
SPLIT_EDGES = [
    # no final newline
    (H + "a,x,exact,0.5,\na,y,interval,0.0,1.0", None,
     {"a": (Exact(0.5, True), Interval(0.0, 1.0))}),
    (H[:-1], None, "no data rows"),
    # several trailing blank lines, and a blank line right after the header
    (H + "a,x,exact,0.5,\n\n\n\n", None, {"a": (Exact(0.5, True),)}),
    (H + "\na,x,exact,zz,\n", None, "line 3: field 't1': not a number: 'zz'"),
    # a header followed only by blank lines, and a blank line for a header
    (H + "\n\n\n", None, "no data rows"),
    ("\n" + H + "a,x,exact,0.5,\n", None,
     "line 1: header must start with subject_id,component,status,t1,t2, got "),
    # a NUL stays in its field (where csv.reader takes it)
    (H + "a\x00b,x,exact,0.5,\n", None,
     "line 2: line contains NUL" if NUL_REFUSED else {"a\x00b": (Exact(0.5, True),)}),
    (H + "a,x,exact,0.5\x00,\n", None,
     "line 2: line contains NUL" if NUL_REFUSED
     else "line 2: field 't1': not a number: '0.5\\x00'"),
    # a trailing comma is one more, empty, field
    (H + "a,x,exact,0.5,,\n", None, "line 2: expected 5 fields, got 6"),
    (COV + "a,x,exact,0.5,,\n", None, "line 2: field 'age': not a number: ''"),
    # labels outside ASCII: lines are found on the text's UTF-8 bytes
    (H + "é,x,exact,0.5,\né,ÿ,exact_censored,1.5,\nb,x,exact,0.5,\nb,ÿ,bogus,1,\n", None,
     "line 5: field 'status': unknown status 'bogus'"),
    (H + "é,x,exact,0.5,\né,ÿ,exact_censored,1.5,\n", ["ÿ", "x"],
     {"é": (Exact(1.5, False), Exact(0.5, True))}),
]


@pytest.mark.parametrize("text, names", [(t, n) for t, n, _ in ANY_ORDER + FIRST_FAULTS])
def test_split_and_csv_reader_read_alike(tmp_path, text, names):
    # the same Dataset or the same message, whichever way the text is cut
    got = read_each_way(tmp_path / "cohort.csv", text, names)
    assert got[0] == got[1] == got[2]


@pytest.mark.parametrize("text, names, expected", SPLIT_EDGES)
def test_split_edges_read_as_csv_reader_reads_them(tmp_path, text, names, expected):
    path = tmp_path / "cohort.csv"
    got = read_each_way(path, text, names)
    assert got[0] == got[1] == got[2]
    if isinstance(expected, str):
        assert got[0] == f"{path}: {expected}"
    else:
        ds = read_dataset(path, names)
        assert ds.subject_ids == tuple(expected)
        assert ds.records == tuple(PseudoAtomRecord(v) for v in expected.values())


@pytest.mark.parametrize("text, value", [
    ("1_0", 10.0), (" 1.5 ", 1.5), ("１.５", 1.5), ("1.5\t", 1.5), ("Infinity", INF),
    ("1.0\x00", None),  # numpy's string cast would take it for 1.0
])
def test_numbers_are_parsed_as_float_parses_them(tmp_path, text, value):
    if value is None:
        with pytest.raises(ValueError):
            float(text)
    else:
        assert float(text) == value
    path = tmp_path / "cohort.csv"
    got = read_each_way(path, COV + f"a,x,survived_beyond,{text},,{text}\n"
                                    f"a,y,interval,0.5,{text},{text}\n", None)
    assert got[0] == got[1] == got[2]
    if value is None and NUL_REFUSED:
        assert got[0] == f"{path}: line 2: line contains NUL"
    elif value is None:
        assert got[0] == f"{path}: line 2: field 't1': not a number: {text!r}"
    elif value == INF:
        assert got[0] == f"{path}: line 2: field 't1': time is inf"
    else:
        ds = read_dataset(path)
        assert ds.records == (PseudoAtomRecord((SurvivedBeyond(value), Interval(0.5, value))),)
        assert ds.covariates == {"age": (value,)}


def test_a_field_over_the_csv_limit_is_refused_at_its_line(tmp_path):
    # csv.reader refuses a field longer than csv.field_size_limit(): the
    # split path refuses the same fields, at the same line, before any other
    # fault of the file
    limit = csv.field_size_limit()
    path = tmp_path / "cohort.csv"
    too_long = f"{path}: line {{}}: field larger than field limit ({limit})"
    for text, line in [
        (H + "a,x,exact,0.5,\n" + "b" * 200_000 + ",x,exact,0.5,\n", 3),
        (H + "a,x\n\n" + "b" * (limit + 1) + ",x,exact,0.5,\n", 4),
        (H + "a,x,exact," + "1" * (limit + 1) + ",\n", 2),
        (H[:-1] + ",age" + "e" * limit + "\n", 1),
        (H + "é,x,exact,0.5,\n" + "é" * (limit + 1) + ",x,exact,0.5,\n", 3),
    ]:
        assert read_each_way(path, text, None) == [too_long.format(line)] * 3
    # a field of the limit is read, however many bytes its characters take
    for sid in ("b" * limit, "é" * limit):
        got = read_each_way(path, H + f"{sid},x,exact,0.5,\n", None)
        assert got[0] == got[1] == got[2]
        assert read_dataset(path).subject_ids == (sid,)


@pytest.mark.parametrize("records, covariates", [
    ([PseudoAtomRecord((Exact(np.nan, True), Exact(2.0, False)))], None),
    ([PseudoAtomRecord((SurvivedBeyond(np.nan), Exact(2.0, False)))], None),
    (StatusCodes(np.array([[1, 0]], dtype=np.uint8), np.array([[0.0, 2.0]]),
                 np.array([[np.nan, np.nan]]), np.array([[False, False]])), None),
    (RECORDS, {"age": [61.5, np.nan, 58.0]}),
    ([PseudoAtomRecord(())] * 2, None),
], ids=["nan_exact", "nan_survivor", "nan_codes", "nan_covariate", "no_components"])
def test_dataset_writer_refuses_what_the_reader_refuses(tmp_path, records, covariates):
    # NaN times or covariates, and records without components, read back as
    # errors ("NaN", "no data rows"): they are not written
    path = tmp_path / "cohort.csv"
    with pytest.raises(InvalidInputError):
        write_dataset(path, records, covariates=covariates)
    assert not path.exists()


@pytest.mark.parametrize("value", [INF, -INF])
def test_dataset_writer_refuses_infinite_covariates(tmp_path, value):
    # the reader refuses them at their line: the writer names the subject
    # and covariate, and opens no file
    path = tmp_path / "cohort.csv"
    with pytest.raises(InvalidInputError) as exc:
        write_dataset(path, RECORDS, subject_ids=["a", "b", "c"],
                      covariates={"age": [61.5, value, 58.0]})
    assert str(exc.value) == f"covariate 'age': {value} for subject 'b'"
    assert not path.exists()


@pytest.mark.parametrize("kind, x1, x2, message", [
    (0, -INF, np.nan, "time is -inf"),
    (0, INF, np.nan, "time is inf"),
    (2, INF, np.nan, "time is inf"),
    (1, 0.5, INF, "time is inf"),
    (1, -INF, 0.5, "time is -inf"),
    (0, -0.25, np.nan, "time -0.25 is negative"),
    (2, -1e-300, np.nan, "time -1e-300 is negative"),
])
def test_dataset_writer_refuses_times_that_are_never_legal(tmp_path, kind, x1, x2, message):
    # the reader refuses them at their line: the writer names the subject
    # and component, and opens no file
    codes = StatusCodes(np.array([[0, 0], [0, kind]], dtype=np.uint8),
                        np.array([[0.5, 2.0], [0.5, x1]]), np.array([[np.nan] * 2, [np.nan, x2]]),
                        np.array([[True, False], [True, False]]))
    path = tmp_path / "cohort.csv"
    with pytest.raises(InvalidInputError) as exc:
        write_dataset(path, codes, subject_ids=["a", "b"], component_names=["illness", "death"])
    assert str(exc.value) == f"subject 'b', component 'death': {message}"
    assert not path.exists()


def test_times_at_zero_stay_legal(tmp_path):
    # 0.0 and -0.0 are times, not negative ones
    codes = StatusCodes(np.array([[0, 2], [0, 1]], dtype=np.uint8),
                        np.array([[-0.0, 0.0], [0.0, -0.0]]),
                        np.array([[np.nan, np.nan], [np.nan, 1.0]]),
                        np.array([[True, False], [False, False]]))
    path = tmp_path / "cohort.csv"
    write_dataset(path, codes)
    for got, want in zip(read_dataset(path).codes, codes):
        assert got.tobytes() == want.tobytes()


def reference_csv(rows, quoting=csv.QUOTE_MINIMAL) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n", quoting=quoting).writerows(rows)
    return buf.getvalue()


def test_labels_are_quoted_as_csv_writer_quotes_them(tmp_path):
    ids = ["a,b", 'say "x"', "", "line\nbreak", " pad", "plain"]
    names = ["ill, early", 'death "d"']
    records = [PseudoAtomRecord((Exact(0.5, True), SurvivedBeyond(1.0)))] * len(ids)
    path = tmp_path / "cohort.csv"
    write_dataset(path, records, subject_ids=ids, component_names=names,
                  covariates={"x,y": [1.0] * len(ids)})
    assert path.read_bytes().decode() == reference_csv(
        [["subject_id", "component", "status", "t1", "t2", "x,y"]]
        + [[sid, name, status, t1, "", "1.0"] for sid in ids
           for name, status, t1 in zip(names, ("exact", "survived_beyond"), ("0.5", "1.0"))])
    assert read_dataset(path).subject_ids == tuple(ids)

    truth = tmp_path / "truth.csv"
    write_truth(truth, np.full((len(ids), 2), 0.25), subject_ids=ids, component_names=names)
    assert truth.read_bytes().decode() == reference_csv(
        [["subject_id", *names]] + [[sid, "0.25", "0.25"] for sid in ids])


@pytest.mark.parametrize("labels", [
    {"subject_ids": ["a", "b\rc"]},
    {"component_names": ["ill\r", "death"]},
    {"covariates": {"age\r": [1.0, 2.0]}},
])
def test_carriage_returns_in_labels_are_refused(tmp_path, labels):
    # csv.writer leaves a carriage return unquoted, and the reader takes it
    # for a line end, so the file would not read back
    path = tmp_path / "cohort.csv"
    with pytest.raises(InvalidInputError, match="carriage return"):
        write_dataset(path, RECORDS[:2], **labels)
    if "covariates" not in labels:
        with pytest.raises(InvalidInputError, match="carriage return"):
            write_truth(path, np.full((2, 2), 0.5), **labels)
    assert not path.exists()


def test_truth_file_refuses_nan(tmp_path):
    # a NaN would be written blank, which reads back as "no jump"
    path = tmp_path / "truth.csv"
    with pytest.raises(InvalidInputError, match="NaN"):
        write_truth(path, np.array([[0.5, INF], [np.nan, 1.25]]))
    assert not path.exists()


def test_truth_file_refuses_minus_infinity(tmp_path):
    # -inf would be written blank too, and a blank reads back as +inf
    path = tmp_path / "truth.csv"
    with pytest.raises(InvalidInputError, match="subject 'b', component 'death': time is -inf"):
        write_truth(path, np.array([[0.5, INF], [1.0, -INF]]), subject_ids=["a", "b"],
                    component_names=["illness", "death"])
    assert not path.exists()


def test_joint_writer_checks_both_files_before_writing_either(tmp_path):
    # the cohort is fine, the truth times are not: neither file is written
    cohort, truth = tmp_path / "cohort.csv", tmp_path / "truth.csv"
    for times, match in ((np.array([[0.5, INF]] * 3), "3 subjects"),
                         (np.array([[0.5, INF], [-INF, 1.5]]), "time is -inf")):
        with pytest.raises(InvalidInputError, match=match):
            write_dataset_and_truth(cohort, RECORDS[:2], truth, times)
    assert not cohort.exists() and not truth.exists()
    write_dataset_and_truth(cohort, RECORDS[:2], truth, np.array([[0.5, INF], [INF, 1.0]]))
    write_dataset(tmp_path / "alone.csv", RECORDS[:2])
    write_truth(tmp_path / "alone_truth.csv", np.array([[0.5, INF], [INF, 1.0]]))
    assert cohort.read_bytes() == (tmp_path / "alone.csv").read_bytes()
    assert truth.read_bytes() == (tmp_path / "alone_truth.csv").read_bytes()


def test_truth_file_blank_means_no_jump(tmp_path):
    path = tmp_path / "truth.csv"
    write_truth(path, np.array([[0.5, INF], [INF, 1.25]]),
                component_names=["illness", "death"])
    assert path.read_text() == (
        "subject_id,illness,death\n"
        "0,0.5,\n"
        "1,,1.25\n")


@pytest.mark.parametrize("labels", [
    {"subject_ids": ["a"]},
    {"subject_ids": ["a", "b", "c"]},
    {"subject_ids": ["a", "a"]},
    {"component_names": ["illness"]},
    {"component_names": ["illness", "illness"]},
])
def test_truth_file_checks_its_labels(tmp_path, labels):
    # one distinct id per row and one distinct name per column, as for cohorts
    path = tmp_path / "truth.csv"
    with pytest.raises(InvalidInputError, match="need one distinct"):
        write_truth(path, np.array([[0.5, INF], [INF, 1.25]]), **labels)
    assert not path.exists()


MODEL_JSON = {
    "name": "progressive pair",
    "units": "years",
    "components": ["illness", "death"],
    "intensities": [
        {"component": "illness",
         "baseline": {"family": "weibull", "a": "shape_a", "b": 1.4},
         "gates": ["death"]},
        {"component": "death",
         "baseline": {"family": "constant", "rate": "base_death"},
         "modifiers": [{"when": ["illness"], "eta": "eta_ill"}]},
    ],
    "theta": {"shape_a": 0.3, "base_death": 0.2, "eta_ill": 0.7},
}


def test_model_config_build_and_theta(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_JSON))
    cfg = load_model_config(path)
    assert cfg.name == "progressive pair"
    assert cfg.component_names == ("illness", "death")
    # parameters appear in first-use order with positivity transforms for
    # baseline magnitudes and free transforms for log-scale effects
    assert cfg.family.param_names == ("shape_a", "base_death", "eta_ill")
    assert cfg.family.transforms == ("log", "log", "identity")

    model = cfg.build()
    t = 0.8
    assert model.rate(0, t, [INF, INF]) == pytest.approx(0.3 * 1.4 * t ** 0.4, rel=1e-12)
    assert model.rate(0, t, [INF, 0.5]) == 0.0
    assert model.rate(1, t, [0.5, INF]) == pytest.approx(0.2 * math.exp(0.7), rel=1e-12)

    theta = cfg.theta_from({"eta_ill": -0.1})
    assert np.allclose(theta, [0.3, 0.2, -0.1])
    theta = cfg.theta_from([0.4, 0.1, 0.0])
    assert np.allclose(theta, [0.4, 0.1, 0.0])
    with pytest.raises(InvalidInputError, match="unknown parameters"):
        cfg.theta_from({"nope": 1.0})
    with pytest.raises(InvalidInputError, match="expected 3 parameter values"):
        cfg.theta_from([0.4, 0.1])


def test_model_config_piecewise_grid_becomes_fixed_breakpoints(tmp_path):
    cfg_json = {
        "components": ["x"],
        "intensities": [
            {"component": "x",
             "baseline": {"family": "piecewise", "grid": [1.0, 2.5],
                          "rates": ["r0", "r1", "r2"]}},
        ],
        "theta": {"r0": 0.1, "r1": 0.2, "r2": 0.05},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg_json))
    cfg = load_model_config(path)
    assert cfg.family.fixed_breakpoints == (1.0, 2.5)
    model = cfg.build()
    assert model.rate(0, 1.7, [INF]) == pytest.approx(0.2)


def test_model_config_rejects_mistakes(tmp_path):
    path = tmp_path / "model.json"

    bad = dict(MODEL_JSON, typo_key=1)
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match="unknown top-level keys"):
        load_model_config(path)

    bad = dict(MODEL_JSON, theta={"shape_a": 0.3, "ghost": 1.0})
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match="undeclared"):
        load_model_config(path)

    bad = dict(MODEL_JSON)
    bad["intensities"] = [MODEL_JSON["intensities"][0]] * 2
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match="duplicate intensity"):
        load_model_config(path)

    # a key the loader does not read is refused with its field path, at
    # every level: a misspelt "gates" would drop the gate silently
    for where, key, value, field in (
            ([0], "gate", ["death"], "intensities[0]"),
            ([1, "baseline"], "a", 0.3, "intensities[1].baseline"),
            ([0, "baseline"], "scale", 1.0, "intensities[0].baseline"),
            ([1, "modifiers", 0], "gama", 0.1, "intensities[1].modifiers[0]")):
        bad = json.loads(json.dumps(MODEL_JSON))
        entry = bad["intensities"]
        for k in where:
            entry = entry[k]
        entry[key] = value
        path.write_text(json.dumps(bad))
        with pytest.raises(InvalidInputError) as exc:
            load_model_config(path)
        assert str(exc.value) == f"{path}: field {field!r}: unknown keys [{key!r}]"

    # piecewise cuts are read from "grid"
    bad = json.loads(json.dumps(MODEL_JSON))
    bad["intensities"][1]["baseline"] = {"family": "piecewise", "breakpoints": [1.0],
                                         "grid": [1.0], "rates": [0.1, 0.2]}
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError) as exc:
        load_model_config(path)
    assert str(exc.value) == (f"{path}: field 'intensities[1].baseline': "
                              "unknown keys ['breakpoints']")

    # one name cannot be both a positive baseline magnitude and a free effect
    bad = json.loads(json.dumps(MODEL_JSON))
    bad["intensities"][1]["modifiers"][0]["eta"] = "base_death"
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match="base_death"):
        load_model_config(path)

    path.write_text("{not json")
    with pytest.raises(InvalidInputError, match="invalid JSON"):
        load_model_config(path)


@pytest.mark.parametrize("where, value, message", [
    ("theta", "abc", r"'theta\.eta_ill': expected a number"),
    ("theta", None, r"'theta\.eta_ill': expected a number"),
    ("theta", True, r"'theta\.eta_ill': expected a number"),
    ("gates", "death", r"'intensities\[0\]\.gates': need a list"),
    ("when", "illness", r"'intensities\[1\]\.modifiers\[0\]\.when': need a list"),
    ("modifiers", "x", r"'intensities\[1\]\.modifiers': need a list"),
    ("scale", "abc", r"'intensities\[1\]\.log_offset\.scale': expected a number"),
])
def test_model_config_refuses_malformed_values(tmp_path, where, value, message):
    bad = json.loads(json.dumps(MODEL_JSON))
    if where == "theta":
        bad["theta"]["eta_ill"] = value
    elif where == "gates":
        bad["intensities"][0]["gates"] = value
    elif where == "when":
        bad["intensities"][1]["modifiers"][0]["when"] = value
    elif where == "modifiers":
        bad["intensities"][1]["modifiers"] = value
    else:
        bad["intensities"][1]["log_offset"] = {"coef": "beta", "scale": value}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match=message):
        load_model_config(path)


@pytest.mark.parametrize("where, value, field", [
    (["intensities", 1, "baseline", "rate"], math.nan, "intensities[1].baseline.rate"),
    (["intensities", 0, "baseline", "b"], math.inf, "intensities[0].baseline.b"),
    (["intensities", 1, "modifiers", 0, "eta"], -math.inf, "intensities[1].modifiers[0].eta"),
    (["intensities", 1, "modifiers", 0, "gamma"], math.nan,
     "intensities[1].modifiers[0].gamma"),
    (["intensities", 1, "log_offset"], math.inf, "intensities[1].log_offset"),
    (["intensities", 1, "log_offset"], {"coef": "beta", "scale": math.nan},
     "intensities[1].log_offset.scale"),
    (["intensities", 1, "log_offset"], {"coef": math.inf, "scale": 0.5},
     "intensities[1].log_offset.coef"),
    (["theta", "eta_ill"], math.nan, "theta.eta_ill"),
    (["theta", "shape_a"], -math.inf, "theta.shape_a"),
])
def test_model_config_refuses_non_finite_numbers(tmp_path, where, value, field):
    # Python's json reads NaN and Infinity: they are refused at load, by
    # path and field, so the value map only ever reads finite numbers
    bad = json.loads(json.dumps(MODEL_JSON))
    entry = bad
    for k in where[:-1]:
        entry = entry[k]
    entry[where[-1]] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError) as exc:
        load_model_config(path)
    assert str(exc.value).startswith(f"{path}: field {field!r}: ")
    assert str(exc.value).endswith("is not finite")


VALUE_MAP_CONFIGS = {
    "progressive-pair": MODEL_JSON,
    # listed out of component order, every baseline family, gates, an
    # interaction modifier, gamma slots, literals among the slots, a name
    # in two slots and a covariate offset
    "mixed": {
        "components": ["a", "b", "c"],
        "intensities": [
            {"component": "c",
             "baseline": {"family": "weibull", "a": "wa", "b": 1.3},
             "gates": ["a"],
             "log_offset": -0.25},
            {"component": "b",
             "baseline": {"family": "piecewise", "grid": [1.0, 2.0],
                          "rates": ["r0", 0.05, "r2"]},
             "modifiers": [{"when": ["a", "c"], "eta": "eta_ac"},
                           {"when": ["a"], "eta": 0.2, "gamma": "g_a"}],
             "log_offset": {"coef": "beta", "scale": 0.7}},
            {"component": "a",
             "baseline": {"family": "constant", "rate": "r0"},
             "modifiers": [{"when": ["c"], "eta": "eta_ac", "gamma": "g_c"}],
             "log_offset": {"coef": "beta", "scale": -1.9}},
        ],
        "theta": {"wa": 0.3, "r0": 0.15, "r2": 0.4, "eta_ac": 0.6, "g_a": -0.2,
                  "beta": 0.35, "g_c": 0.1},
    },
    "piecewise-only": {
        "components": ["x"],
        "intensities": [{"component": "x", "baseline": {
            "family": "piecewise", "grid": [0.5], "rates": ["p0", "p1"]}}],
        "theta": {"p0": 0.2, "p1": 0.9},
    },
}


@pytest.mark.parametrize("case", sorted(VALUE_MAP_CONFIGS))
def test_value_map_is_the_values_of_the_built_models(tmp_path, case):
    # the evaluator reads a config family's stencil values from its value
    # map, in IntensityModel.values order, with no model built: they must be
    # those of the models, bit for bit
    path = tmp_path / "model.json"
    path.write_text(json.dumps(VALUE_MAP_CONFIGS[case]))
    cfg = load_model_config(path)
    fam = cfg.family
    theta = cfg.theta_from()
    rng = np.random.default_rng(5)
    thetas = theta * np.exp(rng.normal(0.0, 0.3, (7, fam.k)))
    thetas[1:] += 1e-5 * np.abs(theta) * rng.choice([-1.0, 1.0], (6, fam.k))
    values = fam.value_map(thetas)
    expected = np.column_stack([fam.build(point).values for point in thetas])
    assert values.shape == expected.shape == (len(fam.build(theta).values), len(thetas))
    assert values.tobytes() == expected.tobytes()


SCHEME_JSON = {
    "horizon": 2.0,
    "death_component": "death",
    "schedules": [
        {"component": "illness", "visits": [0.5, 1.0, 1.5]},
        {"component": "death", "windows": [[0.0, 2.0]]},
    ],
}


def test_scheme_config(tmp_path):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(SCHEME_JSON))
    scheme = load_scheme_config(path, ["illness", "death"])
    assert scheme.horizon == 2.0
    assert scheme.death_component == 1
    assert scheme.schedules[0].visits == (0.5, 1.0, 1.5)
    assert scheme.schedules[1].windows == ((0.0, 2.0),)


def test_scheme_config_rejects_mistakes(tmp_path):
    path = tmp_path / "scheme.json"

    bad = {k: v for k, v in SCHEME_JSON.items() if k != "horizon"}
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match="'horizon'"):
        load_scheme_config(path, ["illness", "death"])

    bad = dict(SCHEME_JSON, extra=1)
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match="unknown top-level keys"):
        load_scheme_config(path, ["illness", "death"])

    bad = json.loads(json.dumps(SCHEME_JSON))
    bad["schedules"][1]["component"] = "illness"
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match="duplicate schedule"):
        load_scheme_config(path, ["illness", "death"])

    bad = json.loads(json.dumps(SCHEME_JSON))
    bad["death_component"] = "ghost"
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match="unknown component 'ghost'"):
        load_scheme_config(path, ["illness", "death"])

    bad = json.loads(json.dumps(SCHEME_JSON))
    bad["schedules"][0]["visits"] = [1.0, 0.5]
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match=r"schedules\[0\]"):
        load_scheme_config(path, ["illness", "death"])


@pytest.mark.parametrize("where, value, message", [
    ("horizon", "abc", r"'horizon': expected a number"),
    ("horizon", None, r"'horizon': expected a number"),
    ("horizon", [1], r"'horizon': expected a number"),
    ("visits", "123", r"'schedules\[0\]\.visits': need a list"),
    ("windows", "0", r"'schedules\[1\]\.windows': need a list"),
    # scheme times are JSON numbers, as the horizon is
    ("visits", ["1", "2.5"], r"'schedules\[0\]\.visits\[0\]': expected a number, got '1'"),
    ("visits", [0.5, True], r"'schedules\[0\]\.visits\[1\]': expected a number, got True"),
    ("windows", [[0.0, "2"]], r"'schedules\[1\]\.windows\[0\]\[1\]': expected a number"),
    ("windows", [0.0, 2.0], r"'schedules\[1\]\.windows\[0\]': need a list"),
    ("windows", [[0.0, 1.0, 2.0]], r"'schedules\[1\]': too many values to unpack"),
    # a NaN visit fails every comparison of the schedule's checks
    ("visits", [0.5, 1.0, math.nan, 1.5], r"'schedules\[0\]\.visits\[2\]': nan is not finite"),
    ("horizon", math.inf, r"'horizon': inf is not finite"),
])
def test_scheme_config_refuses_malformed_values(tmp_path, where, value, message):
    bad = json.loads(json.dumps(SCHEME_JSON))
    if where == "horizon":
        bad["horizon"] = value
    else:
        bad["schedules"][0 if where == "visits" else 1][where] = value
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(InvalidInputError, match=message):
        load_scheme_config(path, ["illness", "death"])
