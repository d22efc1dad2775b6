"""Tests for the evaluation grid, censoring weights, Brier scores, and the
time-dependent concordance index (with a brute-force pair oracle)."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kernelaj import (
    Cohort,
    DegenerateGrid,
    NoComparablePairs,
    ShapeMismatch,
    brier_score,
    build_eval_grid,
    censoring_survival,
    concordance_td,
    concordance_td_from_curves,
    integrated_brier,
    interpolate_curves,
    score_curves,
    scorer,
)
from kernelaj.metrics import EvalGrid
from dense_oracle import risk_matrix_from_curves


def make_cohort(times, events, m=2):
    times = np.asarray(times, dtype=float)
    return Cohort(np.zeros((times.size, 1)), times, np.asarray(events), m)


def brute_force_ctd(risk_matrix, cohort, delta):
    """Literal double loop over ordered pairs; integer counting."""
    concordant = ties = comparable = 0
    for i in range(cohort.n):
        if cohort.event[i] != delta:
            continue
        for j in range(cohort.n):
            if cohort.time[i] < cohort.time[j]:
                comparable += 1
                if risk_matrix[i, i] > risk_matrix[i, j]:
                    concordant += 1
                elif risk_matrix[i, i] == risk_matrix[i, j]:
                    ties += 1
    if comparable == 0:
        return None
    return (concordant + 0.5 * ties) / comparable


class TestEvalGrid:
    def test_range_respects_truncation(self):
        times = np.arange(1.0, 101.0)
        grid = build_eval_grid(times)
        assert grid.times[0] == 1.0
        assert grid.times[-1] <= np.quantile(times, 0.9) + 1e-12
        assert len(grid) <= 100

    def test_duplicate_heavy_times_dedupe(self):
        times = np.array([1.0] * 50 + [2.0] * 50)
        grid = build_eval_grid(times)
        assert len(grid) < 100


class TestCensoringSurvival:
    def test_no_censoring_is_constant_one(self):
        curve = censoring_survival(make_cohort([1, 2, 3], [1, 2, 1]))
        assert curve(0.5) == 1.0
        assert curve(10.0) == 1.0

    def test_all_censored_at_two(self):
        curve = censoring_survival(make_cohort([2, 2, 2], [0, 0, 0]))
        assert curve(1.9) == 1.0
        assert curve(2.0) == 0.0

    def test_d0_hand_value(self):
        # flipped labels: one censoring at t=2 with two subjects still under
        # observation, so the curve steps to 1/2 there
        curve = censoring_survival(make_cohort([1, 2, 3], [1, 0, 2]))
        assert curve(1.0) == 1.0
        assert curve(2.0) == pytest.approx(0.5)
        assert curve.eval_left(2.0) == 1.0
        assert curve(3.0) == pytest.approx(0.5)


class TestBrierScore:
    def test_perfect_predictions_score_zero(self):
        cohort = make_cohort([1, 2, 3, 4], [1, 2, 1, 1])
        censor = censoring_survival(cohort)
        t = 2.5
        truth = ((cohort.event == 1) & (cohort.time <= t)).astype(float)
        res = brier_score(truth, cohort, 1, t, censor)
        assert res.value == 0.0
        assert res.n_excluded == 0

    def test_single_subject_half_prediction(self):
        cohort = make_cohort([1.0], [1], m=1)
        censor = censoring_survival(cohort)
        res = brier_score(np.array([0.5]), cohort, 1, 2.0, censor)
        assert res.value == pytest.approx(0.25, abs=1e-15)

    def test_uncensored_equals_unweighted_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            cohort = make_cohort(rng.uniform(0.5, 5.0, n),
                                 rng.integers(1, 3, n))
            censor = censoring_survival(cohort)
            F = rng.uniform(0, 1, n)
            t = float(rng.uniform(0.5, 5.0))
            res = brier_score(F, cohort, 1, t, censor)
            outcome = ((cohort.event == 1) & (cohort.time <= t)).astype(float)
            direct = float(np.sum((outcome - F) ** 2) / n)
            assert res.value == pytest.approx(direct, abs=1e-12)

    def test_censored_subject_before_t_contributes_nothing(self):
        cohort = make_cohort([1.0, 5.0], [0, 1], m=1)
        censor = censoring_survival(cohort)
        res = brier_score(np.array([0.9, 0.2]), cohort, 1, 2.0, censor)
        # only the still-at-risk subject contributes: 0.2^2 / S_c(2) / 2
        assert res.value == pytest.approx((0.2 ** 2 / censor(2.0)) / 2)

    def test_zero_weight_subject_excluded_and_counted(self):
        # on self-consistent data the left limit keeps every weight positive
        # (a subject observed past t props up every censoring factor), so the
        # exclusion path needs a censor curve from other data
        cohort = make_cohort([2.0, 0.5], [1, 1], m=1)
        foreign = censoring_survival(make_cohort([1.0], [0], m=1))
        assert foreign.eval_left(2.0) == 0.0
        res = brier_score(np.array([0.3, 0.7]), cohort, 1, 3.0, foreign)
        assert res.n_excluded == 1
        # the remaining subject (event at 0.5, weight S_c(0.5^-) = 1) stays
        assert res.value == pytest.approx((1 - 0.7) ** 2 / 2)

    def test_left_limit_keeps_last_censored_subject(self):
        # the subject censored last would get weight 1/S_c(Y) = 1/0 with a
        # right-continuous evaluation; the left limit keeps it finite
        cohort = make_cohort([1.0, 2.0, 3.0], [1, 1, 0], m=1)
        censor = censoring_survival(cohort)
        assert censor(3.0) == 0.0
        res = brier_score(np.array([0.5, 0.5, 0.5]), cohort, 1, 2.5, censor)
        assert res.n_excluded == 0
        assert np.isfinite(res.value)

    @pytest.mark.parametrize("delta", [0, -1, 3])
    def test_event_type_outside_1_to_m_raises(self, delta):
        # event 0 is censoring and 3 is not a type of an m = 2 cohort; both
        # used to score as if the type existed
        cohort = make_cohort([1, 2, 3, 4], [1, 2, 0, 1])
        with pytest.raises(ValueError, match=rf"^event type {delta} is not one of 1\.\.2$"):
            brier_score(np.full(4, 0.5), cohort, delta, 2.5, censoring_survival(cohort))


class TestIntegratedBrier:
    def test_constant_curve(self):
        grid = EvalGrid(np.array([1.0, 2.0, 4.0]))
        assert integrated_brier(np.full(3, 0.3), grid) == pytest.approx(0.3)

    def test_linear_curve_halves(self):
        grid = EvalGrid(np.linspace(0, 1, 11))
        assert integrated_brier(np.linspace(0, 1, 11), grid) == pytest.approx(0.5)

    def test_three_point_hand_value(self):
        # trapezoids: (0.2+0.4)/2 * 1 + (0.4+0.1)/2 * 2 = 0.8 over span 3
        grid = EvalGrid(np.array([0.0, 1.0, 3.0]))
        bs = np.array([0.2, 0.4, 0.1])
        assert integrated_brier(bs, grid) == pytest.approx(0.8 / 3.0)

    def test_single_point_grid_raises(self):
        grid = EvalGrid(np.array([1.0]))
        with pytest.raises(DegenerateGrid):
            integrated_brier(np.array([0.2]), grid)


class TestConcordance:
    def test_single_correct_pair(self):
        cohort = make_cohort([1.0, 2.0], [1, 0], m=1)
        R = np.array([[0.9, 0.1], [0.0, 0.0]])
        assert concordance_td(R, cohort, 1) == 1.0

    def test_constant_predictor_scores_half(self):
        cohort = make_cohort([1, 2, 3, 4], [1, 1, 0, 1], m=1)
        R = np.full((4, 4), 0.37)
        assert concordance_td(R, cohort, 1) == 0.5

    def test_reversal_antisymmetry(self):
        rng = np.random.default_rng(1)
        cohort = make_cohort(rng.uniform(0, 5, 20), rng.integers(0, 2, 20), m=1)
        if (cohort.event == 1).sum() == 0:
            pytest.skip("no events drawn")
        R = rng.uniform(size=(20, 20))
        c = concordance_td(R, cohort, 1)
        assert concordance_td(-R, cohort, 1) == pytest.approx(1.0 - c)

    def test_no_comparable_pairs_raises(self):
        cohort = make_cohort([2.0, 2.0], [1, 1], m=1)
        with pytest.raises(NoComparablePairs):
            concordance_td(np.zeros((2, 2)), cohort, 1)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(4, 60))
            m = int(rng.integers(1, 4))
            cohort = make_cohort(rng.uniform(0, 10, n),
                                 rng.integers(0, m + 1, n), m)
            R = np.round(rng.uniform(size=(n, n)), 2)    # force some ties
            for delta in range(1, m + 1):
                expected = brute_force_ctd(R, cohort, delta)
                if expected is None:
                    with pytest.raises(NoComparablePairs):
                        concordance_td(R, cohort, delta)
                else:
                    assert concordance_td(R, cohort, delta) == expected

    def test_other_events_act_as_censoring(self):
        # subject with a competing event never anchors a pair for event 1
        cohort = make_cohort([1.0, 2.0, 3.0], [2, 1, 0], m=2)
        R = np.array([[0.9, 0.5, 0.1], [0.6, 0.8, 0.2], [0.3, 0.3, 0.3]])
        # only subject 1 (event 1 at t=2) anchors; single pair vs subject 2
        assert concordance_td(R, cohort, 1) == 1.0

    @pytest.mark.parametrize("delta", [0, 3])
    def test_event_type_outside_1_to_m_raises(self, delta):
        # at delta 0 the censored rows would anchor the pairs
        cohort = make_cohort([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 2], m=2)
        with pytest.raises(ValueError, match=rf"^event type {delta} is not one of 1\.\.2$"):
            concordance_td(np.zeros((4, 4)), cohort, delta)
        with pytest.raises(ValueError, match=rf"^event type {delta} is not one of 1\.\.2$"):
            concordance_td_from_curves(np.zeros((4, 2)), [1.0, 2.0], cohort, delta)

    @pytest.mark.parametrize("criterion", ["ctd", "ibs"])
    def test_score_curves_rejects_more_event_planes_than_types(self, criterion):
        cohort = make_cohort([1.0, 2.0, 3.0, 4.0], [1, 2, 0, 1], m=2)
        grid = build_eval_grid(cohort.time[cohort.event != 0])
        curves = np.full((3, 4, 2), 0.2)
        with pytest.raises(ValueError, match=r"^event type 3 is not one of 1\.\.2$"):
            score_curves(curves, [1.0, 4.0], scorer(cohort, grid), (criterion,))


class TestSanityDirection:
    def test_population_ibs_at_least_oracle_ibs(self):
        from kernelaj import (
            SynthConfig,
            generate_synthetic,
            population_aalen_johansen,
        )
        from kernelaj.metrics import evaluate_cif_predictions

        cfg = SynthConfig(n=2000, p=4, w1=(0.6, 0.6, 0.0, 0.0),
                          w2=(0.0, 0.0, 0.6, 0.6), censoring_rate=0.4, seed=17)
        cohort = generate_synthetic(cfg)
        grid = build_eval_grid(cohort.time[cohort.event != 0])

        lam1 = np.exp(cohort.features @ np.array(cfg.w1))
        lam2 = np.exp(cohort.features @ np.array(cfg.w2))
        lam = lam1 + lam2
        oracle = np.stack([
            (lam_d / lam)[:, None] * (1 - np.exp(-np.outer(lam, grid.times)))
            for lam_d in (lam1, lam2)
        ])
        oracle_scores = evaluate_cif_predictions(oracle, grid.times, cohort, grid)

        pop = population_aalen_johansen(cohort)
        pop_curves = np.stack([
            np.tile(c(grid.times), (cohort.n, 1)) for c in pop.cifs])
        pop_scores = evaluate_cif_predictions(pop_curves, grid.times, cohort, grid)
        for d in (0, 1):
            assert pop_scores["ibs"][d] >= oracle_scores["ibs"][d]


class TestInterpolation:
    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(3)
        knots = np.sort(rng.uniform(0.5, 6.0, 8))
        values = np.sort(rng.uniform(0, 1, (5, 8)), axis=1)
        eval_times = np.linspace(0, 8, 40)
        out = interpolate_curves(values, knots, eval_times)
        assert (np.diff(out, axis=1) >= -1e-12).all()
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_forward_fill_past_last_knot(self):
        out = interpolate_curves(np.array([[0.2, 0.6]]), np.array([1.0, 2.0]),
                                 np.array([3.0, 100.0]))
        assert_allclose(out[0], [0.6, 0.6])

    def test_interpolates_through_zero_anchor(self):
        out = interpolate_curves(np.array([[0.4]]), np.array([2.0]),
                                 np.array([0.0, 1.0, 2.0]))
        assert_allclose(out[0], [0.0, 0.2, 0.4])

    def test_risk_matrix_orientation(self):
        values = np.array([[0.1, 0.2], [0.3, 0.6]])
        R = risk_matrix_from_curves(values, np.array([1.0, 2.0]),
                                    np.array([1.0, 2.0]))
        # R[i, j] = curve of subject j at time of subject i
        assert_allclose(R, [[0.1, 0.3], [0.2, 0.6]])

    @pytest.mark.parametrize("knots", [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [1.0, np.inf],
                                       [1.0, np.nan]])
    def test_knots_must_be_an_event_time_grid(self, knots):
        # a knot at 0 divided by zero; repeated or descending knots gave numbers
        with pytest.raises(ValueError, match="^grid times must be"):
            interpolate_curves(np.array([[0.2, 0.6]]), knots, [0.5, 1.5])

    def test_curves_must_have_a_value_per_knot(self):
        with pytest.raises(ShapeMismatch, match="^curves have 5 values for 3 knots$"):
            interpolate_curves(np.zeros((2, 5)), [1.0, 2.0, 3.0], [0.5, 1.5])
