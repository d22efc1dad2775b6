"""Tests for summary-table fine-tuning: initialization consistency, the
recurrence, exact gradients, and validation backtracking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import dense_oracle as oracle
from conftest import relative_error

from kernelaj import (
    Cohort,
    TrainConfig,
    breslow_preprocess,
    build_cluster_model,
    build_event_grid,
    discretize_times,
    fine_tune_summaries,
    init_sft_params,
    predict_cif_grid,
    sft_counts,
    sft_loss_and_grad,
    sft_negative_log_likelihood,
)
from kernelaj.finetune import SftParams, frozen_subject_weights, sft_objective_from_tables
from kernelaj.model import KernelAJModel
from kernelaj.core import risk_event_counts
from kernelaj.embedding import MlpParams, embed_batch

FLOOR = 1e-12


def d0_single_cluster():
    """One cluster holding the three-subject cohort (events at 1 and 3)."""
    cohort = Cohort(np.zeros((3, 1)), [1.0, 2.0, 3.0], [1, 0, 2], m=2)
    grid = build_event_grid(cohort)
    pre, _ = breslow_preprocess(cohort, grid)
    params = MlpParams((1, 1), (np.zeros((1, 1)),), (np.zeros(1),))
    E = embed_batch(params, pre.features)
    clusters = build_cluster_model(E, pre, grid, epsilon=np.inf, tau=np.inf)
    return clusters, pre, grid, params


def toy_model(seed=0, epsilon=1.0, num_time_steps=0):
    """Separable two-group cohort with an identity embedding."""
    rng = np.random.default_rng(seed)
    n = 80
    half = n // 2
    X = np.vstack([rng.normal(-1.5, 0.25, size=(half, 2)),
                   rng.normal(1.5, 0.25, size=(half, 2))])
    t = np.concatenate([rng.exponential(1.0, half), rng.exponential(3.0, half)])
    delta = np.concatenate([np.ones(half), np.full(half, 2)]).astype(int)
    censor = rng.uniform(0.2, 6.0, size=n)
    y = np.minimum(t, censor)
    delta = np.where(t <= censor, delta, 0)
    cohort = Cohort(X, y, delta, m=2)
    idx = rng.permutation(n)
    train, valid = cohort.subset(idx[:60]), cohort.subset(idx[60:])

    grid = build_event_grid(train)
    dtm = discretize_times(grid, num_time_steps)
    train_pre, _ = dtm.apply(train)
    valid_pre, _ = dtm.apply(valid)
    params = MlpParams((2, 2), (np.eye(2),), (np.zeros(2),))
    E = embed_batch(params, train_pre.features)
    clusters = build_cluster_model(E, train_pre, dtm.grid, epsilon, tau=np.inf)
    pop_d, pop_n = risk_event_counts(train_pre, dtm.grid)
    model = KernelAJModel(params=params, clusters=clusters, dtm=dtm,
                          population_d=pop_d, population_n=pop_n,
                          d_tables=clusters.d_cluster.copy(),
                          n_tables=clusters.n_cluster.copy())
    return model, train_pre, valid_pre


class TestInit:
    def test_log_counts(self):
        clusters, _, _, _ = d0_single_cluster()
        params = init_sft_params(clusters)
        # count 3 would give gamma = log 3; here the nonzero counts are 1
        assert params.gamma[0, 0, 0] == pytest.approx(np.log(1.0))
        d_prime, _ = sft_counts(params)
        assert d_prime[0, 0, 0] == pytest.approx(1.0 + FLOOR, abs=1e-15)

    def test_explicit_count_three(self):
        clusters, _, _, _ = d0_single_cluster()
        boosted = clusters.d_cluster.copy()
        boosted[0, 0, 0] = 3.0
        from dataclasses import replace

        clusters3 = replace(clusters, d_cluster=boosted)
        params = init_sft_params(clusters3)
        assert params.gamma[0, 0, 0] == pytest.approx(np.log(3.0))
        d_prime, _ = sft_counts(params)
        assert d_prime[0, 0, 0] == pytest.approx(3.0 + FLOOR, abs=1e-12)

    def test_zero_count_floor(self):
        clusters, _, _, _ = d0_single_cluster()
        params = init_sft_params(clusters)
        assert params.gamma[0, 0, 1] == pytest.approx(np.log(FLOOR))
        d_prime, _ = sft_counts(params)
        assert d_prime[0, 0, 1] == pytest.approx(2.0 * FLOOR, rel=1e-9)

    def test_recurrence_reproduces_at_risk_counts(self):
        clusters, _, _, _ = d0_single_cluster()
        params = init_sft_params(clusters)
        _, n_prime = sft_counts(params)
        assert_allclose(n_prime[0], clusters.n_cluster[0], rtol=1e-6)

    def test_recurrence_on_random_clusters(self):
        rng = np.random.default_rng(3)
        model, train, _ = toy_model(seed=3, epsilon=0.8)
        params = init_sft_params(model.clusters)
        _, n_prime = sft_counts(params)
        assert_allclose(n_prime, model.clusters.n_cluster, rtol=1e-6, atol=1e-9)
        assert (n_prime > 0).all()
        assert (np.diff(n_prime, axis=1) <= 1e-12).all()

    def test_all_floor_params_degenerate(self):
        params = SftParams(np.full((1, 2, 1), np.log(FLOOR)),
                           np.full((2, 1), np.log(FLOOR)),
                           np.full((1, 2), np.log(FLOOR)),
                           np.full(2, np.log(FLOOR)))
        d_prime, n_prime = sft_counts(params)
        assert d_prime.max() == pytest.approx(2 * FLOOR, rel=1e-9)
        assert n_prime[0, 0] == pytest.approx(8 * FLOOR, rel=1e-9)


class TestLoss:
    def test_init_matches_raw_table_objective(self):
        model, train, valid = toy_model(seed=1, epsilon=0.8)
        W = frozen_subject_weights(model.params, model.clusters, train.features)
        _, kappa = model.dtm.apply(train)
        params = init_sft_params(model.clusters)
        tuned = sft_negative_log_likelihood(params, W, kappa, train.event)
        raw = sft_objective_from_tables(model.d_tables, model.n_tables, W,
                                        kappa, train.event)
        assert tuned == pytest.approx(raw, abs=1e-6)

    def test_single_subject_single_cluster_hand_case(self):
        # One cluster with tables d = [[1,0],[0,1]], n = [3,1]; one subject
        # with kappa=1, delta=1 at kernel weight w. The weight cancels:
        # loss = -(log(d'[0,0]/n'[0]) - (d'[0,0]+d'[0,1])/n'[0])
        clusters, pre, grid, mlp = d0_single_cluster()
        params = init_sft_params(clusters)
        d_prime, n_prime = sft_counts(params)
        w = 0.37
        W = np.array([[w]])
        value = sft_negative_log_likelihood(params, W, np.array([1]),
                                            np.array([1]))
        expected = -(np.log(d_prime[0, 0, 0] / n_prime[0, 0])
                     - (d_prime[0, 0, 0] + d_prime[0, 0, 1]) / n_prime[0, 0])
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(-(np.log(1.0 / 3.0) - 1.0 / 3.0), abs=1e-6)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_gradient_matches_finite_differences(self, alpha):
        model, train, _ = toy_model(seed=2, epsilon=0.8, num_time_steps=5)
        W = frozen_subject_weights(model.params, model.clusters, train.features)
        _, kappa = model.dtm.apply(train)
        params = init_sft_params(model.clusters)
        # move every parameter off the 1e-12 floor: down there the loss
        # changes by ~1e-17 per step and finite differences are pure noise
        rng = np.random.default_rng(0)
        params = SftParams(
            np.maximum(params.gamma, -2.0) + rng.normal(0, 0.1, params.gamma.shape),
            np.maximum(params.gamma_baseline, -2.5),
            np.maximum(params.omega, -2.0) + rng.normal(0, 0.1, params.omega.shape),
            np.maximum(params.omega_baseline, -2.5))

        loss, grads = sft_loss_and_grad(params, W, kappa, train.event,
                                        alpha=alpha, sigma=0.8)
        arrays = [params.gamma, params.gamma_baseline, params.omega,
                  params.omega_baseline]
        step = 1e-5
        for a_idx, (arr, grad) in enumerate(zip(arrays, grads)):
            fd = np.zeros_like(arr)
            it = np.ndindex(arr.shape)
            for idx in it:
                for sign in (+1, -1):
                    shifted = [p.copy() for p in arrays]
                    shifted[a_idx][idx] += sign * step
                    value = sft_negative_log_likelihood(
                        SftParams(*shifted), W, kappa, train.event,
                        alpha=alpha, sigma=0.8)
                    fd[idx] += sign * value / (2 * step)
            denom = max(np.linalg.norm(fd.ravel()), 1e-12)
            rel = np.linalg.norm((grad - fd).ravel()) / denom
            assert rel <= 1e-4, f"array {a_idx}: rel error {rel}"


@st.composite
def sft_problems(draw):
    """(params, weights, kappa, delta): random tables and frozen weights, with
    some all-zero weight rows and at least one subject kept."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, Q = draw(st.integers(2, 30)), draw(st.integers(1, 6))
    L, m = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    params = SftParams(rng.normal(0.0, 1.0, (Q, L, m)), rng.normal(-1.0, 1.0, (L, m)),
                       rng.normal(0.0, 1.0, (Q, L)), rng.normal(-1.0, 1.0, L))
    W = rng.uniform(0.0, 1.0, (n, Q)) * (rng.random((n, 1)) < 0.8)
    W[0] += 0.1
    kappa = rng.integers(0, L + 1, n)
    delta = np.where(kappa == 0, 0, rng.integers(0, m + 1, n))
    return params, W, kappa, delta


class TestOracle:
    """The fine-tuning loss and gradient, chained from the training step's
    objective, against the hand-derived objective they replaced."""

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(problem=sft_problems())
    def test_matches_hand_derived_objective(self, alpha, problem):
        params, W, kappa, delta = problem
        loss, grads = sft_loss_and_grad(params, W, kappa, delta, alpha, sigma=0.7)
        want_loss, want_grads = oracle._sft_objective(params, W, kappa, delta, alpha,
                                                      0.7, want_grad=True)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        for got, want in zip(grads, want_grads):
            assert relative_error(got, want) <= 1e-12

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @settings(derandomize=True, deadline=None, max_examples=20)
    @given(problem=sft_problems())
    def test_one_forward(self, alpha, problem):
        params, W, kappa, delta = problem
        value = sft_negative_log_likelihood(params, W, kappa, delta, alpha, sigma=0.7)
        assert value == sft_objective_from_tables(*sft_counts(params), W, kappa, delta,
                                                  alpha, sigma=0.7)
        assert value == sft_loss_and_grad(params, W, kappa, delta, alpha, sigma=0.7)[0]


class TestFineTune:
    def test_zero_learning_rate_backtracks(self):
        model, train, valid = toy_model(seed=4, epsilon=0.8)
        cfg = TrainConfig(learning_rate=0.0, batch_size=16, max_epochs=5,
                          patience=2, seed=0)
        tuned, result = fine_tune_summaries(model, train, valid, cfg)
        assert not result.accepted
        assert tuned.sft_rejected
        assert_allclose(tuned.d_tables, model.clusters.d_cluster)

    def test_improvement_accepted_on_toy(self):
        model, train, valid = toy_model(seed=5, epsilon=2.5)
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=60,
                          patience=10, seed=0)
        tuned, result = fine_tune_summaries(model, train, valid, cfg)
        assert result.accepted
        assert tuned.sft_applied
        assert result.best_criterion < result.baseline_criterion

    def test_backtracking_never_worsens_criterion(self):
        for seed in range(4):
            model, train, valid = toy_model(seed=seed, epsilon=1.0)
            cfg = TrainConfig(learning_rate=0.2, batch_size=16, max_epochs=8,
                              patience=3, seed=seed)
            tuned, result = fine_tune_summaries(model, train, valid, cfg)
            if result.accepted:
                assert result.best_criterion < result.baseline_criterion
            else:
                assert result.best_criterion == result.baseline_criterion

    def test_same_seed_identical_outcome(self):
        model, train, valid = toy_model(seed=6, epsilon=1.5)
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=10,
                          patience=4, seed=1)
        a, res_a = fine_tune_summaries(model, train, valid, cfg)
        b, res_b = fine_tune_summaries(model, train, valid, cfg)
        assert res_a.accepted == res_b.accepted
        assert np.array_equal(a.d_tables, b.d_tables)

    def test_init_predictions_match_pre_sft(self):
        model, train, valid = toy_model(seed=7, epsilon=1.0)
        params = init_sft_params(model.clusters)
        d_prime, n_prime = sft_counts(params)
        candidate = model.with_tables(d_prime, n_prime, sft_applied=True)
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1.5, size=(50, 2))
        cif_a, surv_a, _ = predict_cif_grid(model, X)
        cif_b, surv_b, _ = predict_cif_grid(candidate, X)
        assert np.abs(cif_a - cif_b).max() < 1e-6
        assert np.abs(surv_a - surv_b).max() < 1e-6
