"""Tests for time discretization, the leave-one-out kernel losses, their
hand-derived gradients, and the training loop."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import finite_difference_grad, random_batch, relative_error
from dense_oracle import (
    _cif_from_psi,
    _label_matrices,
    _psi_from_weights,
    batch_loss_from_params,
    cif_pair_matrix,
    loo_hazards,
    loss_nll,
    loss_ranking,
)
from kernelaj import (
    Cohort,
    DegenerateGrid,
    EmbeddingConfig,
    EventTimeGrid,
    NoComparablePairs,
    SynthConfig,
    TrainConfig,
    breslow_preprocess,
    build_event_grid,
    discretize_times,
    generate_synthetic,
    init_mlp,
    total_loss,
    total_loss_and_grad,
    train_embedding,
)
from kernelaj import cli, training
from kernelaj.core import risk_event_counts
from kernelaj.cli import fit_pipeline
from kernelaj.embedding import flatten_grads, flatten_params

PSI_CLAMP = 1e-12


class TestDiscretizeTimes:
    def test_identity_when_k_zero(self):
        grid = EventTimeGrid(np.arange(1.0, 11.0))
        dtm = discretize_times(grid, 0)
        assert_allclose(dtm.grid.times, grid.times)

    def test_two_bins_at_median_and_max(self):
        # 50% and 100% lower quantiles of {1,2,3,4} are 2 and 4
        dtm = discretize_times(EventTimeGrid([1.0, 2.0, 3.0, 4.0]), 2)
        assert_allclose(dtm.grid.times, [2.0, 4.0])

    def test_requesting_more_bins_than_times_dedupes(self):
        grid = EventTimeGrid(np.linspace(0.5, 29.5, 30))
        dtm = discretize_times(grid, 64)
        assert len(dtm.grid) == 30

    def test_cap_at_512(self):
        grid = EventTimeGrid(np.arange(1.0, 1001.0))
        dtm = discretize_times(grid, 0)
        assert len(dtm.grid) == 512

    def test_event_maps_to_floor_representative(self):
        dtm = discretize_times(EventTimeGrid([1.0, 2.0, 3.0, 4.0]), 2)
        cohort = Cohort(np.zeros((3, 1)), [3.0, 1.0, 4.0], [1, 1, 2], m=2)
        pre, kappa = dtm.apply(cohort)
        # 3 -> floor rep 2 (bin 1); 1 -> below first rep, clamps to bin 1; 4 -> bin 2
        assert_allclose(pre.time, [2.0, 2.0, 4.0])
        assert list(kappa) == [1, 1, 2]

    def test_breslow_preprocess_is_the_snapping_rule(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = 60
            cohort = Cohort(np.zeros((n, 1)), rng.exponential(2.0, n),
                            rng.integers(0, 3, n), m=2)
            dtm = discretize_times(build_event_grid(cohort), 8)
            snapped, kappa = breslow_preprocess(cohort, dtm.grid)
            applied, kappa_applied = dtm.apply(cohort)
            assert_array_equal(kappa, kappa_applied)
            for a, b in zip(risk_event_counts(snapped, dtm.grid),
                            risk_event_counts(applied, dtm.grid)):
                assert_array_equal(a, b)

    def test_censored_mapping_idempotent(self):
        dtm = discretize_times(EventTimeGrid([1.0, 2.0, 3.0, 4.0]), 2)
        cohort = Cohort(np.zeros((3, 1)), [3.5, 1.5, 2.0], [0, 0, 0], m=1)
        once, k1 = dtm.apply(cohort)
        twice, k2 = dtm.apply(once)
        assert_allclose(once.time, [2.0, 0.0, 2.0])
        assert_allclose(once.time, twice.time)
        assert np.array_equal(k1, k2)


class TestLooHazards:
    def test_two_identical_embeddings_single_event(self):
        # subject 2 has (kappa=1, delta=1); for subject 1 the only neighbor
        # is subject 2, so psi_{1,1} = K / K = 1
        E = np.zeros((2, 2))
        psi, flagged = loo_hazards(E, kappa=[1, 1], delta=[0, 1],
                                   num_event_types=1, num_bins=2)
        assert psi[0, 0, 0] == pytest.approx(1.0)
        assert not flagged[0, 0]

    def test_constant_kernel_equals_count_ratios(self):
        rng = np.random.default_rng(0)
        n, m, L = 10, 2, 4
        _, kappa, delta = random_batch(rng, n=n, m=m, L=L)
        E = np.zeros((n, 2))          # all kernel weights equal 1
        psi, _ = loo_hazards(E, kappa, delta, m, L)
        # direct leave-one-out count ratios
        for i in range(n):
            others = np.delete(np.arange(n), i)
            for d in range(m):
                for l in range(L):
                    num = ((delta[others] == d + 1) & (kappa[others] == l + 1)).sum()
                    den = (kappa[others] >= l + 1).sum()
                    expect = num / den if den > 0 else 0.0
                    assert psi[i, d, l] == pytest.approx(expect, abs=1e-12)

    def test_zero_denominator_flagged(self):
        # neighbor censored before the first bin: nobody at risk at bin 1
        E = np.zeros((2, 2))
        psi, flagged = loo_hazards(E, kappa=[1, 0], delta=[1, 0],
                                   num_event_types=1, num_bins=1)
        assert flagged[0, 0]
        assert psi[0, 0, 0] == 0.0

    def test_kernel_rescaling_leaves_psi_unchanged(self):
        rng = np.random.default_rng(1)
        n, m, L = 8, 2, 3
        _, kappa, delta = random_batch(rng, n=n, m=m, L=L)
        W = rng.uniform(0.1, 1.0, size=(n, n))
        np.fill_diagonal(W, 0.0)
        evt, at_risk = _label_matrices(kappa, delta, m, L)
        psi1, *_ = _psi_from_weights(W, evt, at_risk)
        psi2, *_ = _psi_from_weights(3.7 * W, evt, at_risk)
        assert_allclose(psi1, psi2, atol=1e-12)


class TestLossNll:
    def test_all_zero_psi_hits_clamp(self):
        # far-apart bins: no other subject shares the event bin or is at risk
        psi = np.zeros((2, 1, 2))
        value = loss_nll(psi, kappa=[1, 2], delta=[1, 1])
        assert value == pytest.approx(-np.log(PSI_CLAMP))

    def test_two_subject_hand_case(self):
        # subjects (kappa=1, delta=1) and (kappa=2, delta=2), m=2, L=2:
        # psi^{-1}_{2,2} = 1 with no own-event mass -> clamped log for both
        # log terms; subject 2 also pays hazard psi^{-2}_{1,1} = 1.
        # loss = -(1/2) (2 log(1e-12) - 1), independent of the kernel value.
        for dist in (0.0, 1.3):
            E = np.array([[0.0], [dist]])
            psi, _ = loo_hazards(E, kappa=[1, 2], delta=[1, 2],
                                 num_event_types=2, num_bins=2)
            value = loss_nll(psi, kappa=[1, 2], delta=[1, 2])
            assert value == pytest.approx(-(2 * np.log(PSI_CLAMP) - 1.0) / 2.0)

    def test_matches_direct_formula_on_random_batch(self):
        rng = np.random.default_rng(2)
        n, m, L = 9, 2, 4
        X, kappa, delta = random_batch(rng, n=n, m=m, L=L)
        cfg = EmbeddingConfig(input_dim=3, num_layers=1, hidden_units=4,
                              embed_dim=2, activation="tanh")
        params = init_mlp(cfg, seed=2)
        from kernelaj.embedding import embed_batch

        psi, _ = loo_hazards(embed_batch(params, X), kappa, delta, m, L)
        total = 0.0
        for i in range(n):
            for d in range(m):
                if delta[i] == d + 1:
                    total += np.log(np.clip(psi[i, d, kappa[i] - 1], PSI_CLAMP, 1.0))
                total -= psi[i, d, :kappa[i]].sum()
        assert loss_nll(psi, kappa, delta) == pytest.approx(-total / n, abs=1e-12)


class TestLossRanking:
    def test_single_pair_equal_cifs(self):
        # one comparable pair with identical CIFs: exp(0) / n^2 = 1/4
        pairs = np.full((1, 2, 2), 0.3)
        value = loss_ranking(pairs, kappa=[1, 2], delta=[1, 0], sigma=1.0)
        assert value == pytest.approx(0.25)

    def test_all_tied_times_give_zero(self):
        pairs = np.random.default_rng(0).uniform(size=(2, 3, 3))
        value = loss_ranking(pairs, kappa=[2, 2, 2], delta=[1, 2, 1], sigma=0.5)
        assert value == 0.0

    def test_monotone_in_gap(self):
        kappa, delta = [1, 2], [1, 0]
        losses = []
        for gap in (0.0, 0.2, 0.6):
            pairs = np.zeros((1, 2, 2))
            pairs[0, 0, 0] = 0.5 + gap      # own CIF higher than the other's
            pairs[0, 0, 1] = 0.5 - gap
            losses.append(loss_ranking(pairs, kappa, delta, sigma=1.0))
        assert losses[0] > losses[1] > losses[2]

    def test_total_loss_combination(self):
        assert total_loss(2.0, 4.0, 1.0) == 2.0
        assert total_loss(2.0, 4.0, 0.0) == 4.0
        assert total_loss(2.0, 4.0, 0.5) == 3.0


class TestGradients:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_matches_finite_differences(self, alpha):
        rng = np.random.default_rng(17)
        for trial in range(4):
            n = int(rng.integers(6, 14))
            m = int(rng.integers(1, 3))
            L = int(rng.integers(2, 6))
            p = int(rng.integers(2, 4))
            X, kappa, delta = random_batch(rng, n=n, p=p, m=m, L=L)
            cfg = EmbeddingConfig(
                input_dim=p, num_layers=int(rng.integers(1, 3)),
                hidden_units=int(rng.integers(3, 8)), embed_dim=2,
                activation="tanh")
            params = init_mlp(cfg, seed=trial)
            sigma = float(rng.uniform(0.3, 1.5))

            loss, dw, db = total_loss_and_grad(params, X, kappa, delta, m, L,
                                               alpha, sigma)
            analytic = flatten_grads(dw, db)
            fd = finite_difference_grad(params, X, kappa, delta, m, L, alpha,
                                        sigma)
            assert relative_error(analytic, fd) <= 1e-4
            assert loss == pytest.approx(
                batch_loss_from_params(params, X, kappa, delta, m, L, alpha,
                                       sigma), abs=1e-12)

    def test_relu_network_gradient(self):
        rng = np.random.default_rng(23)
        X, kappa, delta = random_batch(rng, n=10, p=3, m=2, L=4)
        cfg = EmbeddingConfig(input_dim=3, num_layers=2, hidden_units=5,
                              embed_dim=2, activation="relu")
        params = init_mlp(cfg, seed=23)
        _, dw, db = total_loss_and_grad(params, X, kappa, delta, 2, 4, 0.5, 1.0)
        fd = finite_difference_grad(params, X, kappa, delta, 2, 4, 0.5, 1.0)
        assert relative_error(flatten_grads(dw, db), fd) <= 1e-4

    def test_gradient_with_saturated_survival(self):
        # batch engineered so the last bin's hazard is exactly 1 (survival 0),
        # exercising the zero-aware cumulative-product backward
        rng = np.random.default_rng(31)
        X = rng.normal(size=(6, 2))
        kappa = np.array([1, 1, 2, 3, 3, 3])
        delta = np.array([1, 1, 1, 1, 1, 1])
        cfg = EmbeddingConfig(input_dim=2, num_layers=1, hidden_units=4,
                              embed_dim=2, activation="tanh")
        params = init_mlp(cfg, seed=31)
        _, dw, db = total_loss_and_grad(params, X, kappa, delta, 1, 3, 0.25, 0.7)
        fd = finite_difference_grad(params, X, kappa, delta, 1, 3, 0.25, 0.7)
        assert relative_error(flatten_grads(dw, db), fd) <= 1e-4


def two_cluster_cohorts(n=60, seed=0):
    """Separable toy data: feature sign determines which event dominates."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack([rng.normal(-2.0, 0.3, size=(half, 2)),
                   rng.normal(2.0, 0.3, size=(half, 2))])
    t = np.concatenate([rng.exponential(1.0, half), rng.exponential(4.0, half)])
    delta = np.concatenate([np.ones(half), np.full(half, 2)]).astype(int)
    censor = rng.uniform(0, 8, size=n)
    y = np.minimum(t, censor)
    delta = np.where(t <= censor, delta, 0)
    cohort = Cohort(X, y, delta, m=2)
    idx = rng.permutation(n)
    return cohort.subset(idx[: int(0.8 * n)]), cohort.subset(idx[int(0.8 * n):])


class TestTrainingLoop:
    def setup_method(self):
        self.train, self.valid = two_cluster_cohorts()
        from kernelaj import build_event_grid

        grid = build_event_grid(self.train)
        self.dtm = discretize_times(grid, 8)
        self.train_pre, _ = self.dtm.apply(self.train)
        self.valid_pre, _ = self.dtm.apply(self.valid)
        self.ecfg = EmbeddingConfig(input_dim=2, num_layers=1, hidden_units=8,
                                    embed_dim=2, init_seed=0)

    def test_zero_learning_rate_returns_init(self):
        tcfg = TrainConfig(learning_rate=0.0, batch_size=16, max_epochs=3,
                           patience=2, seed=0)
        params, _ = train_embedding(self.train_pre, self.valid_pre, self.ecfg,
                                    tcfg, self.dtm)
        init = init_mlp(self.ecfg)
        assert np.array_equal(flatten_params(params), flatten_params(init))

    def test_training_reduces_nll(self):
        tcfg = TrainConfig(learning_rate=0.05, batch_size=48, max_epochs=30,
                           patience=30, seed=1)
        params, log = train_embedding(self.train_pre, self.valid_pre,
                                      self.ecfg, tcfg, self.dtm)
        _, kappa = self.dtm.apply(self.train_pre)
        m, L = 2, len(self.dtm.grid)
        init = init_mlp(self.ecfg)
        loss_init = batch_loss_from_params(init, self.train_pre.features,
                                           kappa, self.train_pre.event, m, L,
                                           1.0, 1.0)
        loss_trained = batch_loss_from_params(params, self.train_pre.features,
                                              kappa, self.train_pre.event, m,
                                              L, 1.0, 1.0)
        assert loss_trained < loss_init

    def test_same_seed_same_parameters(self):
        tcfg = TrainConfig(learning_rate=0.02, batch_size=32, max_epochs=5,
                           patience=5, seed=7)
        a, log_a = train_embedding(self.train_pre, self.valid_pre, self.ecfg,
                                   tcfg, self.dtm)
        b, log_b = train_embedding(self.train_pre, self.valid_pre, self.ecfg,
                                   tcfg, self.dtm)
        assert np.array_equal(flatten_params(a), flatten_params(b))
        assert log_a.rows == log_b.rows

    def test_log_replays_stopping_decision(self):
        tcfg = TrainConfig(learning_rate=0.02, batch_size=32, max_epochs=40,
                           patience=3, seed=3)
        _, log = train_embedding(self.train_pre, self.valid_pre, self.ecfg,
                                 tcfg, self.dtm)
        history = log.criterion_history()
        best = np.inf
        stall = 0
        stop_epoch = None
        for epoch, value in enumerate(history, start=1):
            if value < best:
                best, stall = value, 0
            else:
                stall += 1
            if stall >= tcfg.patience:
                stop_epoch = epoch
                break
        assert stop_epoch == len(history) or stop_epoch is None
        assert log.best_value == pytest.approx(min(history))

    def test_ibs_criterion_runs(self):
        tcfg = TrainConfig(learning_rate=0.02, batch_size=32, max_epochs=3,
                           patience=3, seed=0, early_stop_criterion="ibs")
        _, log = train_embedding(self.train_pre, self.valid_pre, self.ecfg,
                                 tcfg, self.dtm)
        assert len(log.rows) == 3

    def test_ctd_criterion_runs(self):
        tcfg = TrainConfig(learning_rate=0.02, batch_size=32, max_epochs=3,
                           patience=3, seed=0, early_stop_criterion="ctd")
        _, log = train_embedding(self.train_pre, self.valid_pre, self.ecfg,
                                 tcfg, self.dtm)
        assert all(0.0 <= row[2] <= 1.0 for row in log.rows)


class TestBatchCif:
    def test_cif_pairs_match_curves(self):
        rng = np.random.default_rng(6)
        n, m, L = 7, 2, 4
        _, kappa, delta = random_batch(rng, n=n, m=m, L=L)
        psi = rng.uniform(0, 0.2, size=(m, n, L))
        F, _, _, _ = _cif_from_psi(psi)
        pairs = cif_pair_matrix(F, kappa)
        for i in range(n):
            for j in range(n):
                if kappa[i] == 0:
                    assert pairs[0, i, j] == 0.0
                else:
                    assert pairs[0, i, j] == F[0, j, kappa[i] - 1]


class TestCriterionFeasibility:
    """An early-stopping criterion that cannot be computed on the validation
    cohort fails before the first training step."""

    @staticmethod
    def count_steps(monkeypatch):
        calls = []
        real = training.total_loss_and_grad
        monkeypatch.setattr(training, "total_loss_and_grad",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        return calls

    @staticmethod
    def no_event_two_pairs():
        """Train/valid cohorts whose validation set has no event-2 record, so
        ctd has no comparable event-2 pair while IBS is well defined."""
        cohort = generate_synthetic(SynthConfig(n=600, p=2, w1=(1.0, 0.0),
                                                w2=(0.0, 1.0), seed=4))
        train = cohort.subset(np.arange(400))
        valid = cohort.subset(np.arange(400, 600))
        valid = Cohort(valid.features, valid.time,
                       np.where(valid.event == 2, 0, valid.event), m=2)
        ecfg = EmbeddingConfig(input_dim=2, num_layers=1, hidden_units=4,
                               embed_dim=2)
        return train, valid, ecfg

    def test_ctd_without_event_two_in_valid(self, monkeypatch):
        train, valid, ecfg = self.no_event_two_pairs()
        tcfg = TrainConfig(batch_size=128, max_epochs=2, patience=2,
                           num_time_steps=8, early_stop_criterion="ctd")
        calls = self.count_steps(monkeypatch)
        with pytest.raises(NoComparablePairs, match="event 2"):
            fit_pipeline(train, valid, ecfg, tcfg, epsilon=0.5)
        assert calls == []

    def test_sft_ibs_without_event_two_pairs(self):
        train, valid, ecfg = self.no_event_two_pairs()
        tcfg = TrainConfig(batch_size=128, max_epochs=2, patience=2,
                           num_time_steps=8)
        _, logs = fit_pipeline(train, valid, ecfg, tcfg, epsilon=0.5,
                               sft_config={"enabled": True, "max_epochs": 2,
                                           "early_stop_criterion": "ibs"})
        assert len(logs["sft"].rows) > 0

    def test_sft_ctd_fails_before_training(self, monkeypatch):
        train, valid, ecfg = self.no_event_two_pairs()
        tcfg = TrainConfig(batch_size=128, max_epochs=2, patience=2,
                           num_time_steps=8)
        calls = []
        real = cli.train_embedding
        monkeypatch.setattr(cli, "train_embedding",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        with pytest.raises(NoComparablePairs, match="event 2"):
            fit_pipeline(train, valid, ecfg, tcfg, epsilon=0.5,
                         sft_config={"enabled": True, "early_stop_criterion": "ctd"})
        assert calls == []

    def test_ibs_with_a_single_evaluation_time(self, monkeypatch):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 2))
        times = np.where(np.arange(20) % 2 == 0, 1.0, rng.uniform(2.0, 5.0, 20))
        events = np.where(np.arange(20) % 2 == 0, 1, 0)
        cohort = Cohort(X, times, events, m=1)
        dtm = discretize_times(build_event_grid(cohort), 0)
        train, _ = dtm.apply(cohort.subset(np.arange(14)))
        valid, _ = dtm.apply(cohort.subset(np.arange(14, 20)))
        ecfg = EmbeddingConfig(input_dim=2, num_layers=1, hidden_units=4,
                               embed_dim=2)
        tcfg = TrainConfig(batch_size=8, max_epochs=2, patience=2,
                           early_stop_criterion="ibs")
        calls = self.count_steps(monkeypatch)
        with pytest.raises(DegenerateGrid):
            train_embedding(train, valid, ecfg, tcfg, dtm)
        assert calls == []
