"""Tests for the cohort data model and classical competing-risks estimators.

Reference values are hand evaluations of the product-limit and cumulative
incidence formulas on tiny cohorts.
"""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from kernelaj import (
    Cohort,
    DegenerateRisk,
    EmptyCohort,
    EventTimeGrid,
    NoEvents,
    ShapeMismatch,
    StepCurve,
    aalen_johansen,
    breslow_preprocess,
    build_event_grid,
    discretize_times,
    kaplan_meier,
    risk_event_counts,
)
from kernelaj.core import count_tables


def make_cohort(times, events, m=2):
    times = np.asarray(times, dtype=float)
    feats = np.zeros((times.size, 1))
    return Cohort(feats, times, np.asarray(events), m)


# Three subjects: event 1 at t=1, censored at t=2, event 2 at t=3.
D0 = make_cohort([1.0, 2.0, 3.0], [1, 0, 2])


def random_cohort(rng, n_max=50, m_max=3):
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    times = rng.uniform(0.1, 10.0, size=n)
    events = rng.integers(0, m + 1, size=n)
    if (events != 0).sum() == 0:
        events[0] = 1
    return make_cohort(times, events, m)


class TestCohort:
    @pytest.mark.parametrize("features, time, event, m, error, message", [
        (np.zeros(2), [1.0, 2.0], [1, 0], 2, ShapeMismatch, "features must be 2-D"),
        (np.zeros((0, 1)), [], [], 2, EmptyCohort, "at least one record"),
        (np.zeros((2, 1)), [1.0], [1, 0], 2, ShapeMismatch, "time/event must have shape"),
        (np.zeros((2, 1)), [1.0, 2.0], [1, 0], 0, ValueError, "m must be >= 1"),
        ([[0.0], [np.inf]], [1.0, 2.0], [1, 0], 2, ValueError, "features must be finite"),
        (np.zeros((2, 1)), [1.0, -1.0], [1, 0], 2, ValueError, "times must be finite"),
        (np.zeros((2, 1)), [1.0, 2.0], [1, 3], 2, ValueError, "must lie in 0..2"),
    ], ids=["1-D features", "no rows", "short time", "m 0", "inf feature", "negative time",
            "event beyond m"])
    def test_each_check(self, features, time, event, m, error, message):
        with pytest.raises(error, match=re.escape(message)):
            Cohort(features, time, event, m)


class TestEventGrid:
    def test_unique_uncensored_times(self):
        # times/events {(1,1),(2,0),(3,2)} -> censoring excluded
        grid = build_event_grid(D0)
        assert_allclose(grid.times, [1.0, 3.0])

    def test_singleton(self):
        grid = build_event_grid(make_cohort([5.0], [1], m=1))
        assert_allclose(grid.times, [5.0])

    def test_all_censored_raises(self):
        with pytest.raises(NoEvents):
            build_event_grid(make_cohort([1.0, 2.0], [0, 0]))

    def test_duplicates_collapse(self):
        grid = build_event_grid(make_cohort([2.0, 2.0, 1.0], [1, 2, 1]))
        assert_allclose(grid.times, [1.0, 2.0])

    def test_event_at_time_zero_joins_the_first_bin(self):
        # the grid holds the positive event times; the time-0 event counts
        # at t_1 with the event there
        cohort = make_cohort([0.0, 1.0, 2.0, 3.0], [2, 1, 0, 2])
        grid = build_event_grid(cohort)
        assert_allclose(grid.times, [1.0, 3.0])
        pre, kappa = breslow_preprocess(cohort, grid)
        assert_array_equal(kappa, [1, 1, 1, 2])
        d, n = risk_event_counts(pre, grid)
        assert_allclose(d, [[1, 1], [0, 1]])
        assert_allclose(n, [4, 1])

    def test_events_only_at_time_zero_raise(self):
        with pytest.raises(NoEvents):
            build_event_grid(make_cohort([0.0, 0.0, 2.0], [1, 2, 0]))


class TestBreslowPreprocess:
    def test_censored_between_events(self):
        # censored Y=2 on grid [1,3] moves back to 1 with kappa=1
        grid = build_event_grid(D0)
        pre, kappa = breslow_preprocess(D0, grid)
        assert pre.time[1] == 1.0
        assert kappa[1] == 1

    def test_censored_before_first_event(self):
        cohort = make_cohort([1.0, 0.5, 3.0], [1, 0, 2])
        grid = build_event_grid(cohort)
        pre, kappa = breslow_preprocess(cohort, grid)
        assert pre.time[1] == 0.0
        assert kappa[1] == 0

    def test_uncensored_unchanged(self):
        grid = build_event_grid(D0)
        pre, kappa = breslow_preprocess(D0, grid)
        assert pre.time[2] == 3.0
        assert kappa[2] == 2

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            cohort = random_cohort(rng)
            grid = build_event_grid(cohort)
            once, k1 = breslow_preprocess(cohort, grid)
            twice, k2 = breslow_preprocess(once, grid)
            assert_allclose(once.time, twice.time)
            assert np.array_equal(k1, k2)


class TestCounts:
    def test_hand_counts_on_d0(self):
        grid = build_event_grid(D0)
        pre, _ = breslow_preprocess(D0, grid)
        d, n = risk_event_counts(pre, grid)
        assert_allclose(d, [[1, 0], [0, 1]])
        assert_allclose(n, [3, 1])

    def test_single_record(self):
        cohort = make_cohort([5.0], [1], m=1)
        grid = build_event_grid(cohort)
        pre, _ = breslow_preprocess(cohort, grid)
        d, n = risk_event_counts(pre, grid)
        assert_allclose(d, [[1.0]])
        assert_allclose(n, [1.0])

    def test_doubling_scales_counts(self):
        grid = build_event_grid(D0)
        doubled = make_cohort([1, 2, 3, 1, 2, 3], [1, 0, 2, 1, 0, 2])
        pre, _ = breslow_preprocess(doubled, grid)
        d2, n2 = risk_event_counts(pre, grid)
        pre1, _ = breslow_preprocess(D0, grid)
        d1, n1 = risk_event_counts(pre1, grid)
        assert_allclose(d2, 2 * d1)
        assert_allclose(n2, 2 * n1)

    def test_risk_counts_nonincreasing_and_dominate_events(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            cohort = random_cohort(rng)
            grid = build_event_grid(cohort)
            pre, _ = breslow_preprocess(cohort, grid)
            d, n = risk_event_counts(pre, grid)
            assert (np.diff(n) <= 0).all()
            assert (n >= d.sum(axis=1)).all()

    def test_raw_cohort_counts_as_preprocessed(self):
        # events before t_1 go in bin 1, as breslow_preprocess puts them
        cohort = make_cohort([0.5, 1.5, 2.5, 3.5, 5.5, 4.0], [1, 1, 1, 2, 1, 0])
        grid = EventTimeGrid([2.5, 5.5])
        pre, _ = breslow_preprocess(cohort, grid)
        for table in (cohort, pre):
            d, n = risk_event_counts(table, grid)
            assert_array_equal(d, [[3, 1], [1, 0]])
            assert_array_equal(n, [6, 1])

    def test_raw_and_preprocessed_tables_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            cohort = random_cohort(rng)
            grid = discretize_times(build_event_grid(cohort), int(rng.integers(1, 6)))
            pre, _ = breslow_preprocess(cohort, grid)
            raw, snapped = risk_event_counts(cohort, grid), risk_event_counts(pre, grid)
            for a, b in zip(raw, snapped):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("code", [1, 2, -1, 12])
    def test_bad_code_names_its_record(self, code):
        # tables of 3 bins and 2 event types hold codes 0 and 3..11: codes 1
        # and 2 are events at kappa 0, which no cell counts, -1 would index
        # the last cell, and 12, (L + 1)(m + 1), lies past it
        codes = np.array([0, 3, 4, 8, 11, 5])
        codes[[3, 5]] = code
        with pytest.raises(ValueError, match=r"^row 3: "):
            count_tables(codes, (3, 2), 0, 1)


class TestKaplanMeier:
    def test_d0_oracle(self):
        # S = 1 on [0,1), 1 - 1/3 = 2/3 on [1,3), then 2/3 * (1 - 1/1) = 0
        grid = build_event_grid(D0)
        pre, _ = breslow_preprocess(D0, grid)
        d, n = risk_event_counts(pre, grid)
        km = kaplan_meier(d, n, grid)
        assert km(0.0) == pytest.approx(1.0, abs=1e-12)
        assert km(1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert km(2.9) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert km(3.0) == pytest.approx(0.0, abs=1e-12)
        assert km(100.0) == pytest.approx(0.0, abs=1e-12)

    def test_no_events_before_t(self):
        grid = build_event_grid(D0)
        pre, _ = breslow_preprocess(D0, grid)
        d, n = risk_event_counts(pre, grid)
        km = kaplan_meier(d, n, grid)
        assert km(0.5) == 1.0

    def test_everyone_fails_at_first_time(self):
        cohort = make_cohort([2.0, 2.0, 2.0], [1, 2, 1])
        grid = build_event_grid(cohort)
        pre, _ = breslow_preprocess(cohort, grid)
        d, n = risk_event_counts(pre, grid)
        km = kaplan_meier(d, n, grid)
        assert km(2.0) == 0.0

    def test_zero_risk_raises(self):
        grid = build_event_grid(D0)
        with pytest.raises(DegenerateRisk):
            kaplan_meier(np.ones((2, 2)), np.array([2.0, 0.0]), grid)


class TestAalenJohansen:
    def test_d0_oracle(self):
        # F_1 jumps to (1/3) * S(0) = 1/3 at t=1
        # F_2 jumps to (1/1) * S(1) = 2/3 at t=3; total mass 1 from t=3 on
        grid = build_event_grid(D0)
        pre, _ = breslow_preprocess(D0, grid)
        d, n = risk_event_counts(pre, grid)
        cifs = aalen_johansen(d, n, grid)
        f1, f2 = cifs.cif(1), cifs.cif(2)
        assert f1(0.5) == pytest.approx(0.0, abs=1e-12)
        assert f1(1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert f1(10.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert f2(2.0) == pytest.approx(0.0, abs=1e-12)
        assert f2(3.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert f1(3.0) + f2(3.0) + cifs.survival(3.0) == pytest.approx(1.0, abs=1e-12)

    def test_single_event_type_matches_km(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            cohort = random_cohort(rng, m_max=1)
            grid = build_event_grid(cohort)
            pre, _ = breslow_preprocess(cohort, grid)
            d, n = risk_event_counts(pre, grid)
            cifs = aalen_johansen(d, n, grid)
            km = kaplan_meier(d, n, grid)
            assert_allclose(cifs.cif(1).values, 1.0 - km.values, atol=1e-12)

    def test_missing_event_type_gives_zero_cif(self):
        cohort = make_cohort([1.0, 2.0], [1, 1], m=2)
        grid = build_event_grid(cohort)
        pre, _ = breslow_preprocess(cohort, grid)
        d, n = risk_event_counts(pre, grid)
        cifs = aalen_johansen(d, n, grid)
        assert_allclose(cifs.cif(2).values, 0.0)

    def test_conservation_on_random_cohorts(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            cohort = random_cohort(rng)
            grid = build_event_grid(cohort)
            pre, _ = breslow_preprocess(cohort, grid)
            d, n = risk_event_counts(pre, grid)
            cifs = aalen_johansen(d, n, grid)
            total = cifs.survival.values + sum(c.values for c in cifs.cifs)
            assert np.abs(total - 1.0).max() < 1e-9
            assert (np.diff(cifs.survival.values) <= 1e-12).all()
            for c in cifs.cifs:
                assert (np.diff(c.values) >= -1e-12).all()
                assert ((c.values >= -1e-12) & (c.values <= 1 + 1e-12)).all()

    @pytest.mark.parametrize("d, n", [([[-1.0], [0.0]], [2.0, 1.0]),
                                      ([[np.nan], [0.0]], [2.0, 1.0]),
                                      ([[1.0], [0.0]], [np.inf, 1.0]),
                                      ([[0.0], [0.0]], [2.0, -1.0])])
    def test_impossible_counts_raise(self, d, n):
        # a negative count gave S 1.5 and F -0.5, NaN counts NaN curves, and
        # n = inf S 1 and F 0
        grid = EventTimeGrid([1.0, 2.0])
        with pytest.raises(ValueError, match="^counts must be finite and nonnegative$"):
            aalen_johansen(np.array(d), np.array(n), grid)


class TestStepCurve:
    def test_right_continuity_and_fill(self):
        curve = StepCurve(np.array([1.0, 3.0]), np.array([0.5, 0.2]), 1.0)
        assert_allclose(curve([0.0, 1.0, 2.0, 3.0, 4.0]), [1.0, 0.5, 0.5, 0.2, 0.2])

    def test_left_limit(self):
        curve = StepCurve(np.array([1.0, 3.0]), np.array([0.5, 0.2]), 1.0)
        assert curve.eval_left(1.0) == 1.0
        assert curve.eval_left(3.0) == 0.5
        assert curve.eval_left(2.0) == 0.5

    def test_empty_curve_is_constant(self):
        curve = StepCurve(np.empty(0), np.empty(0), 1.0)
        assert curve(5.0) == 1.0
        assert curve.eval_left(5.0) == 1.0
