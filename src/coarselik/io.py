"""File formats: JSON model and scheme configs, cohort CSV, truth CSV.

All floats are written with repr(), which round-trips bit-exactly in
Python 3, so write-then-read reproduces identical records and repeated
writes of the same objects are byte-identical. CSVs use comma delimiters,
period decimals, a mandatory header row, and "\n" line endings.

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
from dataclasses import dataclass

import numpy as np

from .baselines import Constant, PiecewiseConstant, Weibull
from .errors import InvalidInputError
from .inference import ParametricFamily
from .models import IntensityModel, ModifierTerm, MultiplicativeComponent
from .observation import (
    ComponentSchedule,
    Exact,
    Interval,
    ObservationScheme,
    PseudoAtomRecord,
    SurvivedBeyond,
)

_STATUSES = ("exact", "exact_censored", "interval", "survived_beyond")
_BASE_COLUMNS = ("subject_id", "component", "status", "t1", "t2")


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class Dataset:
    """A cohort of coarse records plus their identifiers."""

    subject_ids: tuple[str, ...]
    component_names: tuple[str, ...]
    records: tuple[PseudoAtomRecord, ...]
    covariates: dict[str, tuple[float, ...]]

    @property
    def n(self) -> int:
        return len(self.records)


def _labels(labels, n: int, prefix: str, what: str) -> list[str]:
    """n distinct labels as strings; None numbers them from prefix0."""
    labels = [f"{prefix}{i}" for i in range(n)] if labels is None else [str(x) for x in labels]
    if len(labels) != n or len(set(labels)) != n:
        raise InvalidInputError(f"need one distinct {what}")
    return labels


def write_dataset(path, records, *, subject_ids=None, component_names=None,
                  covariates=None) -> None:
    """Write coarse records as one CSV row per subject and component."""
    records = list(records)
    if not records:
        raise InvalidInputError("refusing to write an empty dataset")
    p = records[0].p
    if any(r.p != p for r in records):
        raise InvalidInputError("records disagree on the number of components")
    subject_ids = _labels(subject_ids, len(records), "", "subject_id per record")
    component_names = _labels(component_names, p, "comp", "name per component")
    covariates = {str(k): [float(x) for x in v] for k, v in (covariates or {}).items()}
    for name, vals in covariates.items():
        if len(vals) != len(records):
            raise InvalidInputError(f"covariate {name!r} has {len(vals)} values "
                                    f"for {len(records)} subjects")
    cov_names = sorted(covariates)

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(list(_BASE_COLUMNS) + cov_names)
        for i, rec in enumerate(records):
            extra = [_fmt(covariates[c][i]) for c in cov_names]
            for j, st in enumerate(rec.statuses):
                if isinstance(st, Exact):
                    status = "exact" if st.observed_jump else "exact_censored"
                    t1, t2 = _fmt(st.time), ""
                elif isinstance(st, Interval):
                    status, t1, t2 = "interval", _fmt(st.lower), _fmt(st.upper)
                elif isinstance(st, SurvivedBeyond):
                    status, t1, t2 = "survived_beyond", _fmt(st.time), ""
                else:
                    raise InvalidInputError(f"unserializable status {st!r}")
                w.writerow([subject_ids[i], component_names[j], status, t1, t2] + extra)


def _parse_time(path, line_no, field, text) -> float:
    try:
        val = float(text)
    except ValueError:
        raise InvalidInputError(f"{path}: line {line_no}: field {field!r}: "
                                f"not a number: {text!r}") from None
    if np.isnan(val):
        raise InvalidInputError(f"{path}: line {line_no}: field {field!r}: NaN")
    return val


def read_dataset(path, component_names=None) -> Dataset:
    """Read a cohort CSV back into records, preserving subject order."""
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

        per_subject: dict[str, dict[str, object]] = {}
        cov_vals: dict[str, list[float]] = {}
        order: list[str] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5 + len(cov_names):
                raise InvalidInputError(f"{path}: line {line_no}: expected "
                                        f"{5 + len(cov_names)} fields, got {len(row)}")
            sid, comp, status, t1, t2 = row[:5]
            if status not in _STATUSES:
                raise InvalidInputError(f"{path}: line {line_no}: field 'status': "
                                        f"unknown status {status!r}")
            if status != "interval" and t2 != "":
                raise InvalidInputError(f"{path}: line {line_no}: field 't2': "
                                        f"must be blank for status {status!r}")
            try:
                if status == "exact":
                    st = Exact(_parse_time(path, line_no, "t1", t1), True)
                elif status == "exact_censored":
                    st = Exact(_parse_time(path, line_no, "t1", t1), False)
                elif status == "interval":
                    st = Interval(_parse_time(path, line_no, "t1", t1),
                                  _parse_time(path, line_no, "t2", t2))
                else:
                    st = SurvivedBeyond(_parse_time(path, line_no, "t1", t1))
            except InvalidInputError as err:
                if str(err).startswith(str(path)):
                    raise
                raise InvalidInputError(f"{path}: line {line_no}: {err}") from None
            if sid not in per_subject:
                per_subject[sid] = {}
                cov_vals[sid] = [float("nan")] * len(cov_names)
                order.append(sid)
                for k, text in enumerate(row[5:]):
                    cov_vals[sid][k] = _parse_time(path, line_no, cov_names[k], text)
            else:
                for k, text in enumerate(row[5:]):
                    v = _parse_time(path, line_no, cov_names[k], text)
                    if v != cov_vals[sid][k]:
                        raise InvalidInputError(
                            f"{path}: line {line_no}: field {cov_names[k]!r}: "
                            f"covariate changes within subject {sid!r}"
                        )
            if comp in per_subject[sid]:
                raise InvalidInputError(f"{path}: line {line_no}: field 'component': "
                                        f"duplicate component {comp!r} for subject {sid!r}")
            per_subject[sid][comp] = st

    if not order:
        raise InvalidInputError(f"{path}: no data rows")
    first = order[0]
    names = list(per_subject[first]) if component_names is None else list(component_names)
    expected = set(names)
    if len(expected) != len(names):
        raise InvalidInputError("component names must be distinct")
    records = []
    for sid in order:
        have = per_subject[sid]
        if set(have) != expected:
            missing = sorted(expected - set(have)) + sorted(set(have) - expected)
            raise InvalidInputError(
                f"{path}: subject {sid!r}: component set mismatch (offending: {missing})"
            )
        records.append(PseudoAtomRecord(tuple(have[c] for c in names)))
    covariates = {c: tuple(cov_vals[sid][k] for sid in order)
                  for k, c in enumerate(cov_names)}
    return Dataset(tuple(order), tuple(names), tuple(records), covariates)


def write_truth(path, times, *, subject_ids=None, component_names=None) -> None:
    """Write ground-truth jump times, one row per subject, blank = no jump."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 2:
        raise InvalidInputError("times must be an (n, p) matrix")
    n, p = times.shape
    subject_ids = _labels(subject_ids, n, "", "subject_id per row")
    component_names = _labels(component_names, p, "comp", "name per column")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["subject_id"] + component_names)
        for i in range(n):
            row = [subject_ids[i]]
            row += ["" if not np.isfinite(t) else _fmt(t) for t in times[i]]
            w.writerow(row)


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
            scale = float(value["scale"])
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
                      for g in entry.get("gates", []))
        terms = []
        for m, mod in enumerate(entry.get("modifiers", [])):
            mfield = f"{field}.modifiers[{m}]"
            if not isinstance(mod, dict) or "when" not in mod:
                raise InvalidInputError(f"{path}: field {mfield!r}: needs a 'when' list")
            comps = tuple(_component_index(names, c, path, mfield + ".when")
                          for c in mod["when"])
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
    defaults = {str(k): float(v) for k, v in theta_block.items()}

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
    horizon = float(cfg["horizon"])
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
        windows = entry.get("windows", [])
        visits = entry.get("visits", [])
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
