"""Coarsening: what a visit/window schedule records about true jump times."""

import numpy as np
import pytest

from coarselik.catalog import hybrid_scheme, panel_death_scheme
from coarselik.errors import InconsistentObservationError, InvalidInputError, InvalidRecordError
from coarselik.observation import (
    ComponentSchedule,
    Exact,
    Interval,
    ObservationScheme,
    PseudoAtomRecord,
    StatusCodes,
    SurvivedBeyond,
    classify_observation,
    coarsen,
    preprocess_death_censoring,
)

INF = np.inf


def test_schedule_validation():
    with pytest.raises(InvalidInputError):
        ComponentSchedule(windows=((1.0, 0.5),))
    with pytest.raises(InvalidInputError):
        ComponentSchedule(windows=((0.0, 1.0), (0.5, 2.0)))
    with pytest.raises(InvalidInputError):
        ComponentSchedule(visits=(1.0, 1.0))
    with pytest.raises(InvalidInputError):
        ComponentSchedule(visits=(0.0, 1.0))
    # adjacent windows act as unbroken coverage
    s = ComponentSchedule(windows=((0.0, 1.0), (1.0, 2.0)))
    assert s.covers_through(2.0)


@pytest.mark.parametrize("visits", [(1.0, 2.0, np.nan, 4.0), (np.nan,), (1.0, INF)])
def test_schedule_refuses_non_finite_visits(visits):
    # NaN fails every comparison, so a NaN visit needs its own check
    with pytest.raises(InvalidInputError, match="finite"):
        ComponentSchedule(visits=visits)


def test_scheme_requires_watched_death():
    with pytest.raises(InvalidInputError):
        ObservationScheme((ComponentSchedule(visits=(1.0,)),
                           ComponentSchedule(windows=((0.0, 1.5),))),
                          2.0, death_component=1)


def test_panel_classification():
    scheme = panel_death_scheme([1.0, 2.0, 3.0], 4.0)
    # jump between visits: interval from the last clean visit
    rec = coarsen(scheme, [1.5, INF])
    assert rec.statuses == (Interval(1.0, 2.0), Exact(4.0, False))
    # jump before the first visit
    rec = coarsen(scheme, [0.2, INF])
    assert rec.statuses[0] == Interval(0.0, 1.0)
    # never jumped: survived beyond the last visit
    rec = coarsen(scheme, [INF, INF])
    assert rec.statuses[0] == SurvivedBeyond(3.0)
    # jump after the last visit looks the same
    assert coarsen(scheme, [3.7, INF]).statuses[0] == SurvivedBeyond(3.0)


def test_death_truncates_other_schedules():
    scheme = panel_death_scheme([1.0, 2.0, 3.0], 4.0)
    rec = coarsen(scheme, [2.5, 2.2])
    # the visit at 3.0 never happened, so the illness jump went unseen
    assert rec.statuses == (SurvivedBeyond(2.0), Exact(2.2, True))
    rec = coarsen(scheme, [1.5, 2.2])
    assert rec.statuses == (Interval(1.0, 2.0), Exact(2.2, True))


def test_window_gives_exact_times():
    scheme = hybrid_scheme(2.0, [3.0], 4.0)
    assert coarsen(scheme, [1.2, INF]).statuses[0] == Exact(1.2, True)
    # past the window, back to panel logic; window end is a zero epoch
    assert coarsen(scheme, [2.5, INF]).statuses[0] == Interval(2.0, 3.0)
    assert coarsen(scheme, [3.5, INF]).statuses[0] == SurvivedBeyond(3.0)


def test_full_coverage_censors_at_horizon():
    scheme = panel_death_scheme([1.0], 4.0)
    assert coarsen(scheme, [INF, INF]).statuses[1] == Exact(4.0, False)
    assert coarsen(scheme, [INF, 2.25]).statuses[1] == Exact(2.25, True)


def test_preprocess_death_censoring_noop_when_alive():
    scheme = panel_death_scheme([1.0, 2.0, 3.0], 4.0)
    assert preprocess_death_censoring(scheme, Exact(4.0, False)) is scheme
    cut = preprocess_death_censoring(scheme, Exact(2.2, True))
    assert cut.schedules[0].visits == (1.0, 2.0)
    # the death component's own schedule is untouched
    assert cut.schedules[1].windows == scheme.schedules[1].windows


def test_classify_observation_round_trip():
    scheme = hybrid_scheme(2.0, [3.0], 4.0)
    cases = [
        ([1.2, INF], (("exact", 1.2), ("none",))),
        ([2.5, INF], (("first_positive", 3.0), ("none",))),
        ([2.5, 3.5], (("first_positive", 3.0), ("exact", 3.5))),
        ([INF, 3.5], (("none",), ("exact", 3.5))),
    ]
    for times, raw in cases:
        assert classify_observation(scheme, raw) == coarsen(scheme, times)


def test_classify_rejects_exact_in_gap():
    scheme = hybrid_scheme(2.0, [3.0], 4.0)
    with pytest.raises(InconsistentObservationError):
        classify_observation(scheme, (("exact", 2.5), ("none",)))


def test_classify_rejects_first_positive_inside_window():
    scheme = hybrid_scheme(2.0, [3.0], 4.0)
    with pytest.raises(InconsistentObservationError):
        classify_observation(scheme, (("first_positive", 1.5), ("none",)))


def test_classify_rejects_interval_death():
    scheme = panel_death_scheme([1.0, 2.0], 4.0)
    with pytest.raises(InconsistentObservationError):
        classify_observation(scheme, (("none",), ("first_positive", 2.0)))


def test_status_validation():
    with pytest.raises(InvalidInputError):
        Interval(1.0, 1.0)
    with pytest.raises(InvalidInputError):
        Interval(-0.5, 1.0)


def test_status_codes_name_an_unknown_status():
    records = [PseudoAtomRecord((Exact(1.0, True), SurvivedBeyond(0.5))),
               PseudoAtomRecord((Interval(0.0, 1.0), "x"))]
    with pytest.raises(InvalidRecordError, match=r"^record 1: component 1: unknown status 'x'$") \
            as refused:
        StatusCodes.from_records(records)
    assert (refused.value.record_index, refused.value.component) == (1, 1)


def test_jump_at_window_end_not_exact():
    # windows are half-open: a jump exactly at the end was not watched.
    # The interval status means "jump in (lower, upper]", so the lower
    # bound must sit strictly below the true time: a jump at 1.0 cannot
    # be reported as (1.0, 2.0].  The classifier falls back to the
    # previous confirmed-zero epoch.
    scheme = ObservationScheme(
        (ComponentSchedule(windows=((0.0, 1.0),), visits=(2.0,)),
         ComponentSchedule(windows=((0.0, 3.0),))),
        3.0, death_component=1)
    rec = coarsen(scheme, [1.0, INF])
    st = rec.statuses[0]
    assert isinstance(st, Interval)
    assert st == Interval(0.0, 2.0)
    assert st.lower < 1.0 <= st.upper
    # strictly inside the gap the tighter bound is used
    rec2 = coarsen(scheme, [1.0 + 1e-9, INF])
    assert rec2.statuses[0] == Interval(1.0, 2.0)
