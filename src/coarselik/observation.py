"""Observation schemes and the coarse records they induce.

Each component of a process is watched through its own schedule: windows
[a, b) of continuous observation (jumps inside are timed exactly) and
discrete visits where only jumped/not-jumped status is read. Between
responses nothing is seen. A record therefore reduces, component by
component, to one of three statuses:

- Exact(t, observed_jump): the jump time is known to be t, or the component
  is known not to have jumped by t (observed_jump=False, t at the horizon).
- Interval(a, b): the jump happened in (a, b], its bracketing inspection gap.
- SurvivedBeyond(v): no jump by v, nothing observed after v.

When one component is a death that ends follow-up, the schedules of the
other components are truncated at the observed death time before
classification. That truncation is a deterministic function of the observed
death time, which is what makes it ignorable: likelihoods computed under the
truncated schedule equal those computed under the original one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InconsistentObservationError, InvalidInputError, InvalidRecordError


@dataclass(frozen=True)
class Exact:
    time: float
    observed_jump: bool = True


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float

    def __post_init__(self):
        if not (0 <= self.lower < self.upper):
            raise InvalidInputError(f"interval ({self.lower}, {self.upper}] is empty or negative")


@dataclass(frozen=True)
class SurvivedBeyond:
    time: float


Status = Exact | Interval | SurvivedBeyond


@dataclass(frozen=True)
class PseudoAtomRecord:
    """One subject's observed event, one status per component."""

    statuses: tuple[Status, ...]

    @property
    def p(self) -> int:
        return len(self.statuses)


def record_from_codes(kind, x1, x2, flag) -> PseudoAtomRecord:
    """One subject's coded row back into a record object."""
    statuses = []
    for k, a, b, f in zip(kind, x1, x2, flag):
        if k == 0:
            statuses.append(Exact(float(a), bool(f)))
        elif k == 1:
            statuses.append(Interval(float(a), float(b)))
        else:
            statuses.append(SurvivedBeyond(float(a)))
    return PseudoAtomRecord(tuple(statuses))


def _code(st, i: int, j: int) -> tuple:
    """The codes of status st, component j of record i."""
    if isinstance(st, Exact):
        return 0, st.time, np.nan, st.observed_jump
    if isinstance(st, Interval):
        return 1, st.lower, st.upper, False
    if isinstance(st, SurvivedBeyond):
        return 2, st.time, np.nan, False
    raise InvalidRecordError(i, f"unknown status {st!r}", component=j)


class StatusCodes(NamedTuple):
    """A cohort's records as four (n, p) arrays, one row per subject.

    kind is 0 for Exact (x1 the time, flag set for an observed jump), 1 for
    Interval (x1, x2] and 2 for SurvivedBeyond(x1); x2 is NaN and flag
    False where they have no meaning. The tuple unpacks as
    (kind, x1, x2, flag).
    """

    kind: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    flag: np.ndarray

    @classmethod
    def from_records(cls, records) -> "StatusCodes":
        """The codes of a sequence of records; codes pass through, as arrays
        of one (n, p) shape with float times and bool flags."""
        if isinstance(records, cls):
            codes = cls(np.asarray(records.kind), np.asarray(records.x1, dtype=float),
                        np.asarray(records.x2, dtype=float), np.asarray(records.flag, dtype=bool))
            if codes.kind.ndim != 2 or any(a.shape != codes.kind.shape for a in codes):
                raise InvalidInputError("status codes need four (n, p) arrays of one shape")
            return codes
        records = list(records)
        p = records[0].p if records else 0
        if any(r.p != p for r in records):
            raise InvalidInputError("records disagree on the number of components")
        cols = list(zip(*(_code(st, i, j) for i, r in enumerate(records)
                          for j, st in enumerate(r.statuses)))) or [()] * 4
        return cls(*(np.array(c, dtype=t).reshape(len(records), p)
                     for c, t in zip(cols, (np.uint8, float, float, bool))))

    def records(self) -> tuple[PseudoAtomRecord, ...]:
        return tuple(map(record_from_codes, *self))


@dataclass(frozen=True)
class ComponentSchedule:
    """Observation plan for one component.

    windows are half-open [a, b), pairwise disjoint and ascending; visits are
    strictly increasing inspection times. Adjacent windows (b == next a) are
    allowed and act as unbroken coverage.
    """

    windows: tuple[tuple[float, float], ...] = ()
    visits: tuple[float, ...] = ()

    def __post_init__(self):
        prev_end = 0.0
        for a, b in self.windows:
            if not (0 <= a < b) or a < prev_end:
                raise InvalidInputError(f"windows must be ordered and disjoint, got {self.windows}")
            prev_end = b
        v = np.asarray(self.visits, dtype=float)
        if v.size and (np.any(np.diff(v) <= 0) or v[0] <= 0 or not np.isfinite(v).all()):
            raise InvalidInputError(f"visits must be finite, strictly increasing and > 0, "
                                    f"got {self.visits}")

    def truncated(self, cut: float) -> "ComponentSchedule":
        """Schedule restricted to strictly before `cut`."""
        windows = tuple((a, min(b, cut)) for a, b in self.windows if a < cut)
        visits = tuple(v for v in self.visits if v < cut)
        return ComponentSchedule(windows, visits)

    def detection_epochs(self) -> list[float]:
        """Times at which a previously missed jump becomes visible."""
        return sorted(set(self.visits) | {a for a, _ in self.windows})

    def zero_epochs(self) -> list[float]:
        """Times up to which absence of a jump is established."""
        return sorted({0.0} | set(self.visits) | {b for _, b in self.windows})

    def covers_through(self, horizon: float) -> bool:
        """True when [0, horizon) is one unbroken stretch of windows."""
        reach = 0.0
        for a, b in self.windows:
            if a > reach:
                break
            reach = max(reach, b)
        return reach >= horizon

    def in_window(self, t: float) -> bool:
        for a, b in self.windows:
            if a <= t < b:
                return True
        return False


@dataclass(frozen=True)
class ObservationScheme:
    schedules: tuple[ComponentSchedule, ...]
    horizon: float
    death_component: int | None = None

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise InvalidInputError(f"horizon must be positive and finite, got {self.horizon}")
        for j, sched in enumerate(self.schedules):
            for a, b in sched.windows:
                if b > self.horizon:
                    raise InvalidInputError(f"component {j}: window [{a}, {b}) beyond horizon")
            if sched.visits and sched.visits[-1] > self.horizon:
                raise InvalidInputError(f"component {j}: visit beyond horizon")
        if self.death_component is not None:
            d = self.death_component
            if not (0 <= d < len(self.schedules)):
                raise InvalidInputError(f"death component {d} out of range")
            if not self.schedules[d].covers_through(self.horizon):
                raise InvalidInputError(
                    "the death component must be continuously observed through the horizon"
                )

    @property
    def p(self) -> int:
        return len(self.schedules)


def preprocess_death_censoring(scheme: ObservationScheme, death_status: Exact) -> ObservationScheme:
    """Truncate every other component's schedule at an observed death time.

    No-op when the death was not observed (the subject was alive at the
    horizon, so every scheduled response actually happened).
    """
    if scheme.death_component is None or not death_status.observed_jump:
        return scheme
    cut = death_status.time
    schedules = tuple(
        sched if j == scheme.death_component else sched.truncated(cut)
        for j, sched in enumerate(scheme.schedules)
    )
    return ObservationScheme(schedules, scheme.horizon, scheme.death_component)


def _classify_component(sched: ComponentSchedule, horizon: float, t: float) -> Status:
    """Status of one component with true jump time t (inf for none).

    The schedule must already be the effective (possibly truncated) one.
    """
    if t <= horizon and sched.in_window(t):
        return Exact(t, True)
    if sched.covers_through(horizon):
        # watched the whole time and no jump was caught above
        return Exact(horizon, False)
    detections = sched.detection_epochs()
    zeros = sched.zero_epochs()
    if np.isfinite(t) and t <= horizon:
        i = bisect_left(detections, t)
        if i < len(detections):
            # no response happens in [t, e), so the last status reading
            # known to precede the jump is the last zero epoch below t
            e = detections[i]
            z = zeros[max(bisect_left(zeros, t), 1) - 1]
            return Interval(z, e)
    return SurvivedBeyond(zeros[-1])


def coarsen(scheme: ObservationScheme, times) -> PseudoAtomRecord:
    """Record produced by a scheme applied to true jump times (inf = none)."""
    times = [float(t) for t in times]
    if len(times) != scheme.p:
        raise InvalidInputError(f"{len(times)} jump times for {scheme.p} components")
    C = scheme.horizon
    d = scheme.death_component
    statuses: list[Status | None] = [None] * scheme.p
    effective = scheme
    if d is not None:
        td = times[d]
        death = Exact(min(td, C), td <= C)
        statuses[d] = death
        effective = preprocess_death_censoring(scheme, death)
    for j in range(scheme.p):
        if statuses[j] is None:
            statuses[j] = _classify_component(effective.schedules[j], C, times[j])
    return PseudoAtomRecord(tuple(statuses))


def classify_observation(scheme: ObservationScheme, raw) -> PseudoAtomRecord:
    """Turn per-component raw findings into a checked record.

    raw entries are ("exact", t), ("first_positive", v) or ("none",). An
    exact time in a stretch nobody was watching, or a first-positive
    inspection that falls where continuous observation would have timed the
    jump, is rejected as inconsistent with the scheme.
    """
    if len(raw) != scheme.p:
        raise InvalidInputError(f"{len(raw)} raw entries for {scheme.p} components")
    C = scheme.horizon
    d = scheme.death_component
    effective = scheme
    death_status = None
    if d is not None:
        entry = raw[d]
        if entry[0] == "exact":
            death_status = Exact(float(entry[1]), True)
        elif entry[0] == "none":
            death_status = Exact(C, False)
        else:
            raise InconsistentObservationError(
                "the death component is watched continuously; only exact/none raw entries fit"
            )
        if death_status.observed_jump and not (0 < death_status.time <= C):
            raise InvalidInputError(f"death time {death_status.time} outside (0, {C}]")
        effective = preprocess_death_censoring(scheme, death_status)

    statuses: list[Status] = []
    for j, entry in enumerate(raw):
        if j == d:
            statuses.append(death_status)
            continue
        sched = effective.schedules[j]
        kind = entry[0]
        if kind == "exact":
            t = float(entry[1])
            if not (0 < t <= C):
                raise InvalidInputError(f"component {j}: exact time {t} outside (0, {C}]")
            if not sched.in_window(t) and not (sched.covers_through(C) and t == C):
                raise InconsistentObservationError(
                    f"component {j}: exact jump time {t} claimed while nothing was watching"
                )
            statuses.append(Exact(t, True))
        elif kind == "first_positive":
            v = float(entry[1])
            if not (0 < v <= C):
                raise InvalidInputError(f"component {j}: inspection time {v} outside (0, {C}]")
            if sched.in_window(v) and v not in sched.detection_epochs():
                raise InconsistentObservationError(
                    f"component {j}: first positive status at {v} inside a window, "
                    "where the jump time would have been recorded exactly"
                )
            zeros = [z for z in sched.zero_epochs() if z < v]
            statuses.append(Interval(zeros[-1] if zeros else 0.0, v))
        elif kind == "none":
            if sched.covers_through(C):
                statuses.append(Exact(C, False))
            else:
                statuses.append(SurvivedBeyond(sched.zero_epochs()[-1]))
        else:
            raise InvalidInputError(f"component {j}: unknown raw entry {entry!r}")
    return PseudoAtomRecord(tuple(statuses))
