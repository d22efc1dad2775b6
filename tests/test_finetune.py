"""Tests for summary-table fine-tuning: initialization consistency, the
recurrence, exact gradients, and validation backtracking."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import dense_oracle as oracle
from dense_oracle import sft_negative_log_likelihood
from conftest import clusters_from_tables, relative_error, traced_peak

from kernelaj import (
    Cohort,
    EmbeddingConfig,
    SynthConfig,
    TrainConfig,
    breslow_preprocess,
    build_cluster_model,
    build_event_grid,
    discretize_times,
    fine_tune_summaries,
    generate_synthetic,
    init_sft_params,
    predict_cif_grid,
    sft_counts,
    sft_loss_and_grad,
)
from kernelaj import cli, training
from kernelaj.core import BLOCK_ROWS, label_codes
from kernelaj.finetune import (
    SftParams,
    frozen_subject_weights,
    sft_objective_from_tables,
)
from kernelaj.model import KernelAJModel
from kernelaj.embedding import MlpParams, embed_batch

FLOOR = 1e-12


def d0_single_cluster():
    """One cluster holding the three-subject cohort (events at 1 and 3)."""
    cohort = Cohort(np.zeros((3, 1)), [1.0, 2.0, 3.0], [1, 0, 2], m=2)
    grid = build_event_grid(cohort)
    pre, _ = breslow_preprocess(cohort, grid)
    params = MlpParams((1, 1), (np.zeros((1, 1)),), (np.zeros(1),))
    E = embed_batch(params, pre.features)
    clusters = build_cluster_model(E, label_codes(pre, grid), (len(grid), pre.m),
                                   epsilon=np.inf, tau=np.inf)
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

    grid = discretize_times(build_event_grid(train), num_time_steps)
    train_pre, _ = breslow_preprocess(train, grid)
    valid_pre, _ = breslow_preprocess(valid, grid)
    params = MlpParams((2, 2), (np.eye(2),), (np.zeros(2),))
    E = embed_batch(params, train_pre.features)
    clusters = build_cluster_model(E, label_codes(train_pre, grid), (len(grid), train_pre.m),
                                   epsilon, tau=np.inf)
    model = KernelAJModel(params=params, clusters=clusters, grid=grid,
                          cluster_feature_means=np.zeros((clusters.num_clusters, 2)))
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
        boosted, at_risk = clusters.d_cluster.copy(), clusters.n_cluster.copy()
        boosted[0, 0, 0] = 3.0
        at_risk[0, 0] += 2.0        # the two added events are two more rows at risk
        clusters3 = clusters_from_tables(boosted, at_risk, clusters.exemplar_embeddings,
                                         tau=clusters.tau)
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
        _, kappa = breslow_preprocess(train, model.grid)
        params = init_sft_params(model.clusters)
        tuned = sft_negative_log_likelihood(params, W, kappa, train.event)
        raw = sft_objective_from_tables(*model.tables, W, kappa, train.event)
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
        _, kappa = breslow_preprocess(train, model.grid)
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
    some all-zero weight rows and at least one row with a positive weight."""
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
    @settings(max_examples=40)
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
    @settings(max_examples=20)
    @given(problem=sft_problems())
    def test_one_forward(self, alpha, problem):
        params, W, kappa, delta = problem
        value = sft_negative_log_likelihood(params, W, kappa, delta, alpha, sigma=0.7)
        d_prime, n_prime = sft_counts(params)
        assert (n_prime >= d_prime.sum(axis=2)).all()
        assert value == sft_objective_from_tables(d_prime, n_prime, W, kappa, delta,
                                                  alpha, sigma=0.7)
        assert value == sft_loss_and_grad(params, W, kappa, delta, alpha, sigma=0.7)[0]

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @settings(max_examples=8)
    @given(problem=sft_problems())
    def test_row_with_no_exemplar_is_fitted_on_pooled_tables(self, alpha, problem):
        # a training row with no exemplar within tau is fitted, not dropped:
        # the loss is the oracle's over every row and the gradient matches
        # the oracle's finite differences
        params, W, kappa, delta = problem
        W[-1] = 0.0
        loss, grads = sft_loss_and_grad(params, W, kappa, delta, alpha, sigma=0.7)

        def oracle_loss(*arrays):
            return oracle._sft_objective(SftParams(*arrays), W, kappa, delta, alpha, 0.7,
                                         want_grad=False)[0]

        arrays = [params.gamma, params.gamma_baseline, params.omega, params.omega_baseline]
        assert abs(loss - oracle_loss(*arrays)) <= 1e-12 * abs(loss)
        step = 1e-6
        for k, grad in enumerate(grads):
            fd = np.zeros_like(grad)
            for idx in np.ndindex(grad.shape):
                for sign in (1, -1):
                    shifted = [a.copy() for a in arrays]
                    shifted[k][idx] += sign * step
                    fd[idx] += sign * oracle_loss(*shifted) / (2 * step)
            assert relative_error(grad, fd) <= 1e-5, k


def random_sft_problem(n, Q=4, L=5, m=2, seed=0):
    """(params, weights, kappa, delta): random tables, and n rows of
    positive weights and valid labels."""
    rng = np.random.default_rng(seed)
    params = SftParams(rng.normal(0.0, 1.0, (Q, L, m)), rng.normal(-1.0, 1.0, (L, m)),
                       rng.normal(0.0, 1.0, (Q, L)), rng.normal(-1.0, 1.0, L))
    W = rng.uniform(0.0, 1.0, (n, Q))
    kappa = rng.integers(0, L + 1, n)
    return params, W, kappa, np.where(kappa == 0, 0, rng.integers(0, m + 1, n))


def blocked_problem(n):
    """:func:`random_sft_problem` of n rows in which row 0 has no exemplar
    within tau and the second block, rows 256-511, is all censored."""
    params, W, kappa, delta = random_sft_problem(n)
    W[0] = 0.0
    delta[BLOCK_ROWS:2 * BLOCK_ROWS] = 0
    return params, W, kappa, delta


class TestRowBlocks:
    """Fine-tuning in row blocks of ``core.BLOCK_ROWS`` against the
    whole-cohort oracle."""

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 529])
    def test_matches_whole_cohort_oracle(self, n):
        problem = blocked_problem(n)
        loss, grads = sft_loss_and_grad(*problem, 1.0, 0.7)
        want_loss, want_grads = oracle.sft_loss_and_grad(*problem, 1.0, 0.7)
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        for got, want in zip(grads, want_grads):
            assert relative_error(got, want) <= 1e-12

    @pytest.mark.parametrize("n", [2, 257, 529])
    def test_bit_equal_to_oracle_below_alpha_one(self, n):
        # the ranking term couples every pair of rows: one block, the cohort
        problem = blocked_problem(n)
        loss, grads = sft_loss_and_grad(*problem, 0.5, 0.7)
        want_loss, want_grads = oracle.sft_loss_and_grad(*problem, 0.5, 0.7)
        assert loss == want_loss
        for got, want in zip(grads, want_grads):
            assert_array_equal(got, want)


class TestLabels:
    """Labels that the objective cannot score are rejected, naming the row."""

    @pytest.mark.parametrize("kappa, delta", [(0, 1), (6, 0), (3, -1), (3, 3), (-1, 0)])
    def test_bad_label_names_its_row(self, kappa, delta):
        params, W, kap, dl = blocked_problem(6)
        kap[3], dl[3] = kappa, delta
        with pytest.raises(ValueError, match=r"^row 3: "):
            sft_loss_and_grad(params, W, kap, dl)

    def test_first_bad_row_in_a_later_block(self):
        params, W, kap, dl = blocked_problem(600)
        kap[[300, 520]], dl[[300, 520]] = 0, 2
        with pytest.raises(ValueError, match=r"^row 300: "):
            sft_loss_and_grad(params, W, kap, dl)

    def test_label_shapes_must_match_the_weights(self):
        params, W, kap, dl = blocked_problem(6)
        for bad in ((kap[:5], dl), (kap, dl[:, None])):
            with pytest.raises(ValueError, match=r"must have shape \(6,\)"):
                sft_loss_and_grad(params, W, *bad)

    def test_edge_labels_accepted(self):
        # kappa 0 censored, kappa L, delta 0 and delta m are all labels
        params, W, kap, dl = blocked_problem(6)
        kap[:4], dl[:4] = (0, 5, 5, 1), (0, 2, 0, 2)
        loss, _ = sft_loss_and_grad(params, W, kap, dl)
        assert np.isfinite(loss)


class TestBuffers:
    """The working planes of fine-tuning: fresh per call, none read stale,
    and none that grows with the rows at alpha = 1."""

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @settings(max_examples=40)
    @given(problem=sft_problems())
    def test_bit_equal_from_call_to_call(self, alpha, problem):
        # NaN-filled planes freed before each call show that no stale
        # element is read
        params, W, kappa, delta = problem
        Q, L, m = params.gamma.shape
        want_loss, want_grads = sft_loss_and_grad(params, W, kappa, delta, alpha, 0.7)
        for _ in range(2):
            np.full((2 * m + 1, kappa.size, L), np.nan)     # freed at once
            loss, grads = sft_loss_and_grad(params, W, kappa, delta, alpha, 0.7)
            assert loss == want_loss
            for got, want in zip(grads, want_grads):
                assert_array_equal(got, want)

    def test_epoch_allocates_less_than_one_table(self):
        n, Q, L, m = 4800, 38, 64, 2
        params, W, kappa, delta = random_sft_problem(n, Q, L, m, seed=3)

        def epoch():
            loss, grads = sft_loss_and_grad(params, W, kappa, delta, 1.0, 1.0)
            arrays = (params.gamma, params.gamma_baseline, params.omega, params.omega_baseline)
            sft_counts(SftParams(*(a - 0.01 * g for a, g in zip(arrays, grads))))
            return loss

        loss, peak = traced_peak(epoch)
        assert np.isfinite(loss)
        assert peak < m * n * L * 8

    def test_peak_does_not_grow_with_rows(self):
        # at alpha = 1 every array but the inputs has at most BLOCK_ROWS
        # rows; the whole-cohort planes grew by 9 MiB from 512 to 4,096 rows
        peaks = []
        for n in (512, 4096):
            problem = random_sft_problem(n, Q=40, L=64, m=2)
            peaks.append(traced_peak(lambda: sft_loss_and_grad(*problem, 1.0, 1.0))[1])
        assert peaks[1] - peaks[0] < 0.25 * 2**20


class TestFineTune:
    def test_baseline_is_the_training_criterion(self, monkeypatch):
        # training scores each epoch on the clustered model that fit ships,
        # with fine-tuning's criterion, so SFT starts from training's best value
        results = []

        def spy(*args):
            tuned, result = fine_tune_summaries(*args)
            results.append(result)
            return tuned, result

        monkeypatch.setattr(cli, "fine_tune_summaries", spy)
        cohort = generate_synthetic(SynthConfig(n=500, p=3, w1=(0.6, 0.0, 0.0),
                                                w2=(0.0, 0.6, 0.0), censoring_rate=0.3,
                                                seed=5))
        tcfg = TrainConfig(learning_rate=0.05, batch_size=64, max_epochs=4, patience=4,
                           num_time_steps=16, early_stop_criterion="ibs")
        _, logs = cli.fit_pipeline(
            cohort.subset(np.arange(400)), cohort.subset(np.arange(400, 500)),
            EmbeddingConfig(input_dim=3, num_layers=1, hidden_units=8, embed_dim=2), tcfg,
            epsilon=0.1, sft_config={"enabled": True, "max_epochs": 2})
        assert [result.baseline_criterion for result in results] == [logs["train"].best_value]

    def test_zero_learning_rate_backtracks(self):
        model, train, valid = toy_model(seed=4, epsilon=0.8)
        cfg = TrainConfig(learning_rate=0.0, batch_size=16, max_epochs=5,
                          patience=2, seed=0)
        tuned, result = fine_tune_summaries(model, train, valid, cfg)
        assert not result.accepted
        assert tuned is model and tuned.sft_tables is None

    def test_improvement_accepted_on_toy(self):
        model, train, valid = toy_model(seed=5, epsilon=2.5)
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=60,
                          patience=10, seed=0)
        tuned, result = fine_tune_summaries(model, train, valid, cfg)
        assert result.accepted
        assert tuned.sft_tables is not None
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

    @pytest.mark.parametrize("baseline, raw, flags", [
        (1.0, 0.5, [False, False, True]),        # 0.7 and 0.6 beat the baseline only
        (0.5, 1.0, [False, False, True]),        # ... the raw tables only
        (np.nan, 0.5, [False, False, True]),     # a NaN value is beaten by any value
        (0.5, np.nan, [False, False, True]),
        (1.0, 0.8, [True, True, True]),
    ])
    def test_candidate_must_beat_baseline_and_raw_tables(self, monkeypatch, baseline,
                                                         raw, flags):
        model, train, valid = toy_model(seed=4, epsilon=0.8)
        values = iter([baseline, raw, 0.7, 0.6, 0.4])
        monkeypatch.setattr(training, "sft_objective_from_tables",
                            lambda *args, **kwargs: next(values))
        cfg = TrainConfig(learning_rate=0.01, max_epochs=3, patience=3)
        tuned, result = fine_tune_summaries(model, train, valid, cfg)
        assert [row[3] for row in result.log.rows] == flags
        assert result.accepted and tuned.sft_tables is not None
        assert result.best_criterion == 0.4
        assert result.baseline_criterion == raw or np.isnan(raw)

    def test_candidate_beating_one_reference_is_rejected(self, monkeypatch):
        model, train, valid = toy_model(seed=4, epsilon=0.8)
        for baseline, raw in ((1.0, 0.5), (0.5, 1.0)):
            values = iter([baseline, raw, 0.7, 0.6])
            monkeypatch.setattr(training, "sft_objective_from_tables",
                                lambda *args, **kwargs: next(values))
            cfg = TrainConfig(learning_rate=0.01, max_epochs=2, patience=3)
            tuned, result = fine_tune_summaries(model, train, valid, cfg)
            assert not result.accepted and tuned is model
            assert result.best_criterion == raw

    def test_same_seed_identical_outcome(self):
        model, train, valid = toy_model(seed=6, epsilon=1.5)
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=10,
                          patience=4, seed=1)
        a, res_a = fine_tune_summaries(model, train, valid, cfg)
        b, res_b = fine_tune_summaries(model, train, valid, cfg)
        assert res_a.accepted == res_b.accepted
        assert all(map(np.array_equal, a.tables, b.tables))

    def test_init_predictions_match_pre_sft(self):
        model, train, valid = toy_model(seed=7, epsilon=1.0)
        params = init_sft_params(model.clusters)
        d_prime, n_prime = sft_counts(params)
        candidate = replace(model, sft_tables=(d_prime, n_prime))
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1.5, size=(50, 2))
        cif_a, surv_a, _ = predict_cif_grid(model, X)
        cif_b, surv_b, _ = predict_cif_grid(candidate, X)
        assert np.abs(cif_a - cif_b).max() < 1e-6
        assert np.abs(surv_a - surv_b).max() < 1e-6
