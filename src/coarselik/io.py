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
independent of the parameters.

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
import operator
from dataclasses import dataclass
from functools import cached_property
from io import StringIO
from itertools import compress, count, repeat

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


def _labels(labels, n: int, prefix: str, what: str) -> list[str]:
    """n distinct labels as strings; None numbers them from prefix0."""
    labels = list(map(f"{prefix}{{}}".format, range(n)) if labels is None else map(str, labels))
    if len(labels) != n or len(set(labels)) != n:
        raise InvalidInputError(f"need one distinct {what}")
    return _no_carriage_return(labels)


def _no_carriage_return(labels: list[str]) -> list[str]:
    """csv.writer may leave a carriage return unquoted, and a reader takes
    it for a line end: such a label is refused."""
    if "\r" in "".join(labels):
        bad = next(x for x in labels if "\r" in x)
        raise InvalidInputError(f"label {bad!r} holds a carriage return")
    return labels


def _csv_field(text: str) -> str:
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, "x"])
    return buf.getvalue()[:-3]


def _csv_fields(labels: list[str]) -> list[str]:
    """Labels as csv.writer writes them within a row, quoted where it must."""
    if all(labels) and not _CSV_SPECIAL.intersection("".join(labels)):
        return labels
    return list(map(_csv_field, labels))


def _reprs(values: np.ndarray) -> list[str]:
    return list(map(repr, values.tolist()))


def _write_rows(path, header: list[str], n: int, columns) -> None:
    """Write a header, then the rows of subjects lo:hi, a block at a time;
    columns(lo, hi) gives them as columns of CSV-ready text."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _BLOCK):
            fh.write("\n".join(map(",".join, zip(*columns(lo, lo + _BLOCK)))) + "\n")


def _first(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) for i in np.argwhere(mask)[0])


def _refuse_nan(nan: np.ndarray, subject_ids, component_names) -> None:
    """A NaN time reads back as an error, or as no jump in a truth file."""
    if nan.any():
        i, j = _first(nan)
        raise InvalidInputError(f"subject {subject_ids[i]!r}, component "
                                f"{component_names[j]!r}: time is NaN")


def write_dataset(path, records, *, subject_ids=None, component_names=None,
                  covariates=None) -> None:
    """Write a cohort as one CSV row per subject and component.

    `records` is a sequence of records or their StatusCodes. A cohort that
    read_dataset would refuse (no records, no components, NaN times or
    covariates) is refused before the file is opened.
    """
    kind, x1, x2, flag = StatusCodes.from_records(records)
    n, p = kind.shape
    if not n:
        raise InvalidInputError("refusing to write an empty dataset")
    if not p:
        raise InvalidInputError("refusing to write records without components")
    subject_ids = _labels(subject_ids, n, "", "subject_id per record")
    component_names = _labels(component_names, p, "comp", "name per component")
    interval = kind == 1
    _refuse_nan(np.isnan(x1) | (interval & np.isnan(x2)), subject_ids, component_names)
    bad = ~np.isin(kind, (0, 1, 2)) | (interval & ~((0 <= x1) & (x1 < x2)))
    if bad.any():
        i, j = _first(bad)
        raise InvalidInputError(f"subject {subject_ids[i]!r}, component {component_names[j]!r}: "
                                f"no status has the codes ({kind[i, j]}, {x1[i, j]}, {x2[i, j]})")
    covariates = {str(k): np.asarray(v, dtype=float) for k, v in (covariates or {}).items()}
    for name, vals in covariates.items():
        if vals.shape != (n,):
            raise InvalidInputError(f"covariate {name!r} has {vals.size} values for {n} subjects")
        if np.isnan(vals).any():
            raise InvalidInputError(f"covariate {name!r}: NaN for subject "
                                    f"{subject_ids[_first(np.isnan(vals))[0]]!r}")
    cov_names = _no_carriage_return(sorted(covariates))

    subject_ids, names = _csv_fields(subject_ids), _csv_fields(component_names)
    status = np.array(_STATUSES, dtype=object)[np.where(kind == 0, np.where(flag, 0, 1), kind + 1)]

    def columns(lo, hi):
        k = slice(lo, hi)
        t2 = np.full(interval[k].shape, "", dtype=object)
        t2[interval[k]] = _reprs(x2[k][interval[k]])
        per_subject = [subject_ids[k]] + [_reprs(covariates[c][k]) for c in cov_names]
        sid, *covs = (np.repeat(np.array(col, dtype=object), p).tolist() for col in per_subject)
        return [sid, names * len(per_subject[0]), status[k].ravel().tolist(),
                _reprs(x1[k].ravel()), t2.ravel().tolist(), *covs]

    _write_rows(path, [*_BASE_COLUMNS, *_csv_fields(cov_names)], n, columns)


def _floats(texts) -> tuple[np.ndarray, int]:
    """A text column as floats, and the index of its first text that is not
    a number (len(texts) if none); the values from there on are NaN."""
    vals: list[float] = []
    try:
        vals.extend(map(float, texts))
    except ValueError:
        pass
    bad = len(vals)
    return np.array(vals + [np.nan] * (len(texts) - bad)), bad


def read_dataset(path, component_names=None) -> Dataset:
    """Read a cohort CSV into StatusCodes, subjects in order of first
    appearance; a subject's rows may come in any order, blank lines are
    skipped. A malformed file is refused at its first faulty line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInputError(f"{path}: empty file (header row is mandatory)") from None
        if tuple(header[:5]) != _BASE_COLUMNS:
            raise InvalidInputError(
                f"{path}: line 1: header must start with {','.join(_BASE_COLUMNS)}, "
                f"got {','.join(header[:5])}"
            )
        cov_names = header[5:]
        if len(set(cov_names)) != len(cov_names):
            raise InvalidInputError(f"{path}: line 1: duplicate covariate columns")
        rows = list(reader)

    # every check notes its first failing row; the error raised is that of
    # the earliest row, and within a row that of the first check in this order
    errors: list[tuple[int, int, str]] = []
    lens = np.fromiter(map(len, rows), np.intp, len(rows))
    line = np.flatnonzero(lens) + 2
    rows, lens = list(compress(rows, lens)), lens[lens > 0]

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
    wrong = np.flatnonzero(lens != width)
    if wrong.size:
        r = wrong[0]
        note(r, 0, f"expected {width} fields, got {lens[r]}")
        rows = rows[:r]
    m = len(rows)
    cols = list(zip(*rows)) or [()] * width
    sid_col, comp_col, status_col, t1_col, t2_col = cols[:5]
    st = np.fromiter(map(_STATUS_INDEX.get, status_col, repeat(4)), np.intp, m)
    check(1, st == 4, lambda r: f"field 'status': unknown status {status_col[r]!r}")
    interval = st == 2
    check(2, ~interval & ~np.fromiter(map(operator.not_, t2_col), bool, m),
          lambda r: f"field 't2': must be blank for status {status_col[r]!r}")
    x1 = number(3, "t1", t1_col)
    x2 = np.full(m, np.nan)
    x2[interval] = number(4, "t2", list(compress(t2_col, interval.tolist())),
                          np.flatnonzero(interval))
    check(5, interval & ~((0 <= x1) & (x1 < x2)),
          lambda r: f"interval ({float(x1[r])}, {float(x2[r])}] is empty or negative")

    # subjects and components, numbered in order of first appearance
    subjects = dict(zip(dict.fromkeys(sid_col), count()))
    si = np.fromiter(map(subjects.__getitem__, sid_col), np.intp, m)
    first = np.unique(si, return_index=True)[1]
    covs = []
    for k, name in enumerate(cov_names):
        vals = number(6 + 2 * k, name, cols[5 + k])
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


def write_truth(path, times, *, subject_ids=None, component_names=None) -> None:
    """Write ground-truth jump times, one row per subject, blank = no jump."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 2:
        raise InvalidInputError("times must be an (n, p) matrix")
    n, p = times.shape
    subject_ids = _labels(subject_ids, n, "", "subject_id per row")
    component_names = _labels(component_names, p, "comp", "name per column")
    _refuse_nan(np.isnan(times), subject_ids, component_names)
    subject_ids, finite = _csv_fields(subject_ids), np.isfinite(times)

    def columns(lo, hi):
        k = slice(lo, hi)
        cells = np.full(times[k].shape, "", dtype=object)
        cells[finite[k]] = _reprs(times[k][finite[k]])
        return [subject_ids[k], *cells.T.tolist()]

    _write_rows(path, ["subject_id", *_csv_fields(component_names)], n, columns)


# ---------------------------------------------------------------------------
# model config


class _ParamRegistry:
    """Collects named parameters in order of first use, with their transform."""

    def __init__(self, path):
        self.path = path
        self.names: list[str] = []
        self.transforms: dict[str, str] = {}

    def slot(self, value, field: str, transform: str):
        """Return a resolver (theta -> float) for a number-or-name slot."""
        if isinstance(value, bool):
            raise InvalidInputError(f"{self.path}: field {field!r}: booleans are not numbers")
        if isinstance(value, (int, float)):
            x = float(value)
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
            return lambda theta: float(theta[idx])
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


def _build_baseline(cfg, reg: _ParamRegistry, field: str):
    """Return (resolver theta -> baseline object, literal breakpoints)."""
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise InvalidInputError(f"{reg.path}: field {field!r}: baseline needs a 'family' key")
    fam = cfg["family"]
    if fam == "constant":
        rate = reg.slot(cfg.get("rate"), field + ".rate", "log")
        return (lambda th: Constant(rate(th))), ()
    if fam == "weibull":
        a = reg.slot(cfg.get("a"), field + ".a", "log")
        b = reg.slot(cfg.get("b"), field + ".b", "log")
        return (lambda th: Weibull(a(th), b(th))), ()
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
        return (lambda th: PiecewiseConstant(grid, [r(th) for r in rates])), grid
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
    return float(value)


def _list(value, path, field) -> list:
    # a string would otherwise be iterated character by character
    if not isinstance(value, list):
        raise InvalidInputError(f"{path}: field {field!r}: need a list, got {value!r}")
    return value


def _component_index(names, value, path, field) -> int:
    if value not in names:
        raise InvalidInputError(f"{path}: field {field!r}: unknown component {value!r} "
                                f"(declared: {', '.join(names)})")
    return names.index(value)


def load_model_config(path) -> ModelConfig:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as err:
            raise InvalidInputError(f"{path}: line {err.lineno}: invalid JSON: {err.msg}") from None
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
    makers = [None] * len(names)
    all_bps: set[float] = set()
    for k, entry in enumerate(intens):
        field = f"intensities[{k}]"
        if not isinstance(entry, dict):
            raise InvalidInputError(f"{path}: field {field!r}: must be an object")
        own = _component_index(names, entry.get("component"), path, field + ".component")
        if makers[own] is not None:
            raise InvalidInputError(f"{path}: field {field!r}: duplicate intensity "
                                    f"for component {names[own]!r}")
        base_maker, bps = _build_baseline(entry.get("baseline"), reg, field + ".baseline")
        all_bps.update(bps)
        gates = tuple(_component_index(names, g, path, field + ".gates")
                      for g in _list(entry.get("gates", []), path, field + ".gates"))
        terms = []
        for m, mod in enumerate(_list(entry.get("modifiers", []), path, field + ".modifiers")):
            mfield = f"{field}.modifiers[{m}]"
            if not isinstance(mod, dict) or "when" not in mod:
                raise InvalidInputError(f"{path}: field {mfield!r}: needs a 'when' list")
            comps = tuple(_component_index(names, c, path, mfield + ".when")
                          for c in _list(mod["when"], path, mfield + ".when"))
            eta = reg.slot(mod.get("eta", 0.0), mfield + ".eta", "identity")
            gamma = reg.slot(mod.get("gamma", 0.0), mfield + ".gamma", "identity")
            terms.append((comps, eta, gamma))
        offset = reg.offset_slot(entry.get("log_offset", 0.0), field + ".log_offset")

        def make(th, own=own, base_maker=base_maker, gates=gates, terms=terms, offset=offset):
            built_terms = tuple(ModifierTerm(c, e(th), g(th)) for c, e, g in terms)
            return MultiplicativeComponent(own, base_maker(th), gates=gates,
                                           terms=built_terms, log_offset=offset(th))

        makers[own] = make

    param_names = tuple(reg.names)
    transforms = tuple(reg.transforms[nm] for nm in param_names)

    def build(theta):
        return IntensityModel([mk(theta) for mk in makers],
                              params=dict(zip(param_names, np.asarray(theta, dtype=float))))

    family = ParametricFamily(param_names, transforms, build,
                              fixed_breakpoints=tuple(sorted(all_bps)))

    theta_block = cfg.get("theta", {})
    if not isinstance(theta_block, dict):
        raise InvalidInputError(f"{path}: field 'theta': must map names to numbers")
    unknown = sorted(set(theta_block) - set(param_names))
    if unknown:
        raise InvalidInputError(f"{path}: field 'theta': values for undeclared "
                                f"parameters {unknown}")
    defaults = {str(k): _number(v, path, f"theta.{k}") for k, v in theta_block.items()}

    # reject silently ignored keys: typos should be loud
    known = {"name", "units", "components", "intensities", "theta"}
    stray = sorted(set(cfg) - known)
    if stray:
        raise InvalidInputError(f"{path}: unknown top-level keys {stray}")

    return ModelConfig(
        name=str(cfg.get("name", "")),
        units=str(cfg.get("units", "")),
        component_names=tuple(names),
        family=family,
        default_theta=defaults,
    )


def load_scheme_config(path, component_names) -> ObservationScheme:
    component_names = list(component_names)
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as err:
            raise InvalidInputError(f"{path}: line {err.lineno}: invalid JSON: {err.msg}") from None
    if not isinstance(cfg, dict) or "horizon" not in cfg:
        raise InvalidInputError(f"{path}: field 'horizon': required")
    known = {"horizon", "death_component", "schedules"}
    stray = sorted(set(cfg) - known)
    if stray:
        raise InvalidInputError(f"{path}: unknown top-level keys {stray}")
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
        visits = _list(entry.get("visits", []), path, field + ".visits")
        try:
            schedules[j] = ComponentSchedule(
                windows=tuple((float(a), float(b)) for a, b in windows),
                visits=tuple(float(v) for v in visits),
            )
        except (InvalidInputError, TypeError, ValueError) as err:
            raise InvalidInputError(f"{path}: field {field!r}: {err}") from None
        stray = sorted(set(entry) - {"component", "windows", "visits"})
        if stray:
            raise InvalidInputError(f"{path}: field {field!r}: unknown keys {stray}")
    death = cfg.get("death_component")
    d = None if death is None else _component_index(component_names, death,
                                                    path, "death_component")
    try:
        return ObservationScheme(tuple(schedules), horizon, death_component=d)
    except InvalidInputError as err:
        raise InvalidInputError(f"{path}: {err}") from None
