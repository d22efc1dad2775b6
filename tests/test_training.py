"""Tests for time discretization, the leave-one-out kernel losses, their
hand-derived gradients, the training loop, its stopping rule and the
validation criterion's scorer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import finite_difference_grad, flatten_params, random_batch, relative_error
from dense_oracle import (
    _cif_from_psi,
    _label_matrices,
    _psi_from_weights,
    batch_loss_from_params,
    check_criterion,
    cif_pair_matrix,
    criterion_is_improvement,
    loo_hazards,
    loss_nll,
    loss_ranking,
)
from kernelaj import (
    Cohort,
    ConfigError,
    DegenerateGrid,
    Diverged,
    EmbeddingConfig,
    EventTimeGrid,
    KernelAJError,
    NoComparablePairs,
    SynthConfig,
    TrainConfig,
    TrainingLog,
    breslow_preprocess,
    build_event_grid,
    discretize_times,
    generate_synthetic,
    init_mlp,
    total_loss_and_grad,
    train_embedding,
)
from kernelaj import cli, clustering, core, metrics, training
from kernelaj.cli import fit_pipeline
from kernelaj.clustering import exemplar_weights
from kernelaj.embedding import embed_batch, flatten_grads
from kernelaj.model import _curves_from_weights

PSI_CLAMP = 1e-12


class TestDiscretizeTimes:
    def test_identity_when_k_zero(self):
        grid = EventTimeGrid(np.arange(1.0, 11.0))
        assert_allclose(discretize_times(grid, 0).times, grid.times)

    def test_two_bins_at_median_and_max(self):
        # 50% and 100% lower quantiles of {1,2,3,4} are 2 and 4
        grid = discretize_times(EventTimeGrid([1.0, 2.0, 3.0, 4.0]), 2)
        assert_allclose(grid.times, [2.0, 4.0])

    def test_requesting_more_bins_than_times_dedupes(self):
        grid = EventTimeGrid(np.linspace(0.5, 29.5, 30))
        assert len(discretize_times(grid, 64)) == 30

    def test_cap_at_512(self):
        grid = EventTimeGrid(np.arange(1.0, 1001.0))
        assert len(discretize_times(grid, 0)) == 512

    def test_event_maps_to_floor_representative(self):
        grid = discretize_times(EventTimeGrid([1.0, 2.0, 3.0, 4.0]), 2)
        cohort = Cohort(np.zeros((3, 1)), [3.0, 1.0, 4.0], [1, 1, 2], m=2)
        pre, kappa = breslow_preprocess(cohort, grid)
        # 3 -> floor rep 2 (bin 1); 1 -> below first rep, clamps to bin 1; 4 -> bin 2
        assert_allclose(pre.time, [2.0, 2.0, 4.0])
        assert list(kappa) == [1, 1, 2]

    def test_breslow_preprocess_is_the_snapping_rule(self):
        # on a coarsened grid every record takes the largest representative
        # <= its time; an event below the first one takes the first, a
        # censored record below it takes 0
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = 60
            cohort = Cohort(np.zeros((n, 1)), rng.exponential(2.0, n),
                            rng.integers(0, 3, n), m=2)
            grid = discretize_times(build_event_grid(cohort), 8)
            snapped, kappa = breslow_preprocess(cohort, grid)
            for t, e, got, k in zip(cohort.time, cohort.event, snapped.time, kappa):
                below = [r for r in grid.times if r <= t]
                want = below[-1] if below else (grid.times[0] if e else 0.0)
                assert got == want and k == max(len(below), int(e != 0))

    def test_censored_mapping_idempotent(self):
        grid = discretize_times(EventTimeGrid([1.0, 2.0, 3.0, 4.0]), 2)
        cohort = Cohort(np.zeros((3, 1)), [3.5, 1.5, 2.0], [0, 0, 0], m=1)
        once, k1 = breslow_preprocess(cohort, grid)
        twice, k2 = breslow_preprocess(once, grid)
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

    @pytest.mark.parametrize("kappa, delta", [(2, 3), (2, -1), (0, 1), (5, 1)])
    def test_bad_label_names_its_row(self, kappa, delta):
        # called directly, the ranking checks its labels: unchecked, delta 3
        # or -1 scored the row as censored, and an event at kappa 0 or L + 1
        # failed inside numpy
        psi = np.random.default_rng(9).uniform(0.01, 0.2, (2, 5, 4))   # m 2, n 5, L 4
        kap, dl = np.array([1, 2, 3, 4, 2]), np.array([1, 0, 2, 1, 0])
        kap[3], dl[3] = kappa, delta
        with pytest.raises(ValueError, match=r"^row 3: "):
            training.ranking_value_and_dpsi(psi, kap, dl, 1.0, 1.0)


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


class TestStepLabels:
    """The step rejects a label that the objective cannot score, naming the
    first bad row in the caller's order, as fine-tuning does."""

    @staticmethod
    def batch():
        X, kappa, delta = random_batch(np.random.default_rng(5))   # 12 rows, m 2, L 5
        params = init_mlp(EmbeddingConfig(input_dim=3, num_layers=1, hidden_units=4,
                                          embed_dim=2, activation="tanh"), seed=5)
        return params, X, kappa, delta

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("kappa, delta", [(0, 1), (8, 0), (3, -1), (3, 3), (-1, 0)])
    def test_bad_label_names_its_row(self, kappa, delta, alpha):
        params, X, kap, dl = self.batch()
        kap[[4, 9]], dl[[4, 9]] = kappa, delta
        with pytest.raises(ValueError, match=r"^row 4: "):
            total_loss_and_grad(params, X, kap, dl, 2, 5, alpha, 1.0)

    def test_label_shapes_must_match_the_batch(self):
        params, X, kap, dl = self.batch()
        for bad in ((kap[:11], dl), (kap, dl[:, None])):
            with pytest.raises(ValueError, match=r"must have shape \(12,\)"):
                total_loss_and_grad(params, X, *bad, 2, 5, 0.5, 1.0)

    def test_edge_labels_accepted(self):
        # kappa 0 censored, kappa L, delta 0 and delta m are all labels
        params, X, kap, dl = self.batch()
        kap[2:6], dl[2:6] = (0, 5, 5, 1), (0, 2, 0, 2)
        loss, _, _ = total_loss_and_grad(params, X, kap, dl, 2, 5, 0.5, 1.0)
        assert np.isfinite(loss)


class TestCriterionLabels:
    """The objective criterion rejects a label that it cannot score, naming
    the row, as the step and fine-tuning do."""

    @staticmethod
    def problem():
        rng = np.random.default_rng(8)                      # 6 rows, Q 4, L 5, m 2
        d = rng.integers(0, 4, (4, 5, 2)).astype(np.float64)
        n = core.reverse_cumsum(d.sum(axis=2) + rng.integers(0, 3, (4, 5)))
        W = rng.uniform(0.1, 1.0, (6, 4))
        return d, n, W, np.array([1, 2, 3, 4, 5, 2]), np.array([1, 2, 0, 1, 0, 2])

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("kappa, delta", [(2, -1), (0, 1), (6, 0), (-1, 0), (2, 3)])
    def test_bad_label_names_its_row(self, kappa, delta, alpha):
        d, n, W, kap, dl = self.problem()
        kap[5], dl[5] = kappa, delta
        with pytest.raises(ValueError, match=r"^row 5: "):
            training.sft_objective_from_tables(d, n, W, kap, dl, alpha)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("kappa, delta", [(2, -1), (0, 1), (6, 0), (-1, 0), (2, 3)])
    def test_objective_names_the_row(self, kappa, delta, alpha):
        # the objective checks the labels it scores: unchecked, an event at
        # kappa 0 would read its hazard at bin index -1, the last bin
        psi = np.random.default_rng(8).uniform(0.01, 0.2, (2, 6, 5))
        _, _, _, kap, dl = self.problem()
        kap[5], dl[5] = kappa, delta
        with pytest.raises(ValueError, match=r"^row 5: "):
            training.objective_and_dpsi(psi, kap, dl, alpha, 1.0)


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


class TestConfigIntegers:
    def test_numpy_integers_pass(self):
        tcfg = TrainConfig(batch_size=np.int64(16), max_epochs=np.int32(3), seed=np.uint8(1))
        ecfg = EmbeddingConfig(input_dim=np.int64(2), hidden_units=np.int16(4))
        assert (tcfg.batch_size, ecfg.hidden_units) == (16, 4)

    @pytest.mark.parametrize("value, error", [(True, TypeError), (3.0, TypeError),
                                              ("3", TypeError), (0, ValueError)])
    def test_bools_fractions_and_small_values_rejected(self, value, error):
        with pytest.raises(error, match="max_epochs"):
            TrainConfig(max_epochs=value)
        with pytest.raises(error, match="num_layers"):
            EmbeddingConfig(input_dim=2, num_layers=value)


class TestTrainingLoop:
    def setup_method(self):
        self.train, self.valid = two_cluster_cohorts()
        from kernelaj import build_event_grid

        grid = build_event_grid(self.train)
        self.grid = discretize_times(grid, 8)
        self.train_pre, _ = breslow_preprocess(self.train, self.grid)
        self.valid_pre, _ = breslow_preprocess(self.valid, self.grid)
        self.ecfg = EmbeddingConfig(input_dim=2, num_layers=1, hidden_units=8,
                                    embed_dim=2, init_seed=0)

    def test_zero_learning_rate_returns_init(self):
        tcfg = TrainConfig(learning_rate=0.0, batch_size=16, max_epochs=3,
                           patience=2, seed=0)
        (params, _), _ = train_embedding(self.train_pre, self.valid_pre, self.ecfg,
                                         tcfg, self.grid)
        init = init_mlp(self.ecfg)
        assert np.array_equal(flatten_params(params), flatten_params(init))

    def test_training_reduces_nll(self):
        tcfg = TrainConfig(learning_rate=0.05, batch_size=48, max_epochs=30,
                           patience=30, seed=1)
        (params, _), log = train_embedding(self.train_pre, self.valid_pre,
                                           self.ecfg, tcfg, self.grid)
        _, kappa = breslow_preprocess(self.train_pre, self.grid)
        m, L = 2, len(self.grid)
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
        (a, _), log_a = train_embedding(self.train_pre, self.valid_pre, self.ecfg,
                                        tcfg, self.grid)
        (b, _), log_b = train_embedding(self.train_pre, self.valid_pre, self.ecfg,
                                        tcfg, self.grid)
        assert np.array_equal(flatten_params(a), flatten_params(b))
        assert log_a.rows == log_b.rows

    def test_log_replays_stopping_decision(self):
        tcfg = TrainConfig(learning_rate=0.02, batch_size=32, max_epochs=40,
                           patience=3, seed=3)
        _, log = train_embedding(self.train_pre, self.valid_pre, self.ecfg,
                                 tcfg, self.grid)
        history = [row[2] for row in log.rows]
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
                                 tcfg, self.grid)
        assert len(log.rows) == 3

    def test_ctd_criterion_runs(self):
        tcfg = TrainConfig(learning_rate=0.02, batch_size=32, max_epochs=3,
                           patience=3, seed=0, early_stop_criterion="ctd")
        _, log = train_embedding(self.train_pre, self.valid_pre, self.ecfg,
                                 tcfg, self.grid)
        assert all(0.0 <= row[2] <= 1.0 for row in log.rows)

    @pytest.mark.parametrize("criterion", ["objective", "ibs", "ctd"])
    def test_collapsed_kernel_raises_diverged(self, criterion):
        # learning rate 1e6 keeps every step finite but spreads the
        # embeddings so far apart that every off-diagonal kernel weight
        # underflows to 0: the criterion would read a constant and the
        # ε-net would put each row in its own cluster
        cohort = generate_synthetic(SynthConfig(n=1000, p=3, w1=(0.6, 0.0, 0.0),
                                                w2=(0.0, 0.6, 0.0), censoring_rate=0.3,
                                                seed=3))
        grid = discretize_times(build_event_grid(cohort), 32)
        train, _ = breslow_preprocess(cohort.subset(np.arange(800)), grid)
        valid, _ = breslow_preprocess(cohort.subset(np.arange(800, 1000)), grid)
        ecfg = EmbeddingConfig(input_dim=3, num_layers=1, hidden_units=8, embed_dim=2)
        tcfg = TrainConfig(learning_rate=1e6, batch_size=64, max_epochs=5, patience=5,
                           early_stop_criterion=criterion)
        with pytest.raises(Diverged, match=r"^training epoch 1: .*kernel weights "
                                           r"collapsed \(learning_rate 1000000.0\)$"):
            train_embedding(train, valid, ecfg, tcfg, grid)


def counted(monkeypatch, name, *modules):
    """The list that gets one entry per call of ``name`` made through any of
    ``modules``, each of which holds the function under that name."""
    calls, real = [], getattr(modules[0], name)
    for module in modules:
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


class TestShippedClusters:
    """Training returns the clusters that its best epoch's criterion scored,
    and ``fit_pipeline`` ships them without clustering again."""

    def setup_method(self):
        self.train, self.valid = two_cluster_cohorts()
        self.ecfg = EmbeddingConfig(input_dim=2, num_layers=1, hidden_units=8,
                                    embed_dim=2, init_seed=0)
        self.tcfg = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=4,
                                patience=4, num_time_steps=8)

    def test_clusters_come_from_the_best_epoch(self, monkeypatch):
        # the criterion reads the objective plus 2000, 0, 1000 and 3000 (the
        # values 3, 1, 2, 4), so the second of four epochs is the best
        real_criterion, offsets = training.table_criterion, iter([2e3, 0.0, 1e3, 3e3])

        def scripted(*args):
            value = real_criterion(*args)
            return lambda *a: value(*a) + next(offsets)

        built, real_build = [], training.build_cluster_model
        monkeypatch.setattr(training, "table_criterion", scripted)
        monkeypatch.setattr(training, "build_cluster_model",
                            lambda *a, **k: built.append(real_build(*a, **k)) or built[-1])
        model, logs = fit_pipeline(self.train, self.valid, self.ecfg, self.tcfg, epsilon=0.05)
        log = logs["train"]
        assert (log.best_epoch, len(log.rows), len(built)) == (2, 4, 4)
        best = built[1]
        assert not np.array_equal(built[-1].exemplar_ids, best.exemplar_ids)   # 15 and 14
        assert_array_equal(model.clusters.exemplar_ids, best.exemplar_ids)
        assert_array_equal(model.clusters.assignments, best.assignments)
        # the shipped model, under the unscripted criterion, scores the best value
        valid, _ = breslow_preprocess(self.valid, model.grid)
        train, _ = breslow_preprocess(self.train, model.grid)
        value = real_criterion("objective", train, valid, model.grid, self.tcfg.alpha,
                               self.tcfg.sigma)
        W = exemplar_weights(model.clusters, embed_batch(model.params, valid.features))
        assert value(model.tables, W) == log.best_value

    def test_codes_counted_once_and_one_epsilon_net_per_epoch(self, monkeypatch):
        grid = discretize_times(build_event_grid(self.train), 8)
        train, _ = breslow_preprocess(self.train, grid)
        valid, _ = breslow_preprocess(self.valid, grid)
        codes = counted(monkeypatch, "label_codes", core, clustering, training)
        nets = counted(monkeypatch, "epsilon_net_cluster", clustering)
        _, log = train_embedding(train, valid, self.ecfg, self.tcfg, grid, epsilon=0.3)
        assert (len(codes), len(nets), len(log.rows)) == (1, 4, 4)


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


@st.composite
def criterion_cohorts(draw):
    """Preprocessed (train, valid, grid): few distinct times, so the pooled
    event times may give one evaluation time, and validation cohorts that
    may lack an event type or have it only at their last time."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3))
    lattice = draw(st.integers(1, 6))

    def cohort(n):
        events = rng.integers(0, m + 1, n)
        events[rng.uniform(size=n) < draw(st.floats(0.0, 0.8))] = 0
        return Cohort(np.zeros((n, 1)), rng.integers(1, lattice + 1, n) * 1.0, events, m)

    train, valid = cohort(draw(st.integers(1, 12))), cohort(draw(st.integers(1, 30)))
    train.event[0] = 1
    grid = build_event_grid(train)
    return breslow_preprocess(train, grid)[0], breslow_preprocess(valid, grid)[0], grid


class TestCriterionFeasibility:
    """An early-stopping criterion that cannot be computed on the validation
    cohort fails before the first training step."""

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
        calls = counted(monkeypatch, "total_loss_and_grad", training)
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

    @settings(max_examples=150)
    @given(case=criterion_cohorts())
    def test_raises_exactly_when_the_hand_written_checks_did(self, case):
        # table_criterion scores one all-zero prediction set, so it raises
        # exactly when the hand-written checks do; otherwise its value scores
        # the validation cohort, IBS on the grid of pooled event times
        train, valid, grid = case
        m, L = train.m, len(grid)
        tables = core.count_tables(core.label_codes(train, grid), (L, m),
                                  np.arange(train.n) % 2, 2)
        W = np.random.default_rng(valid.n).uniform(0.1, 1.0, (valid.n, 2))
        cif, _, _ = _curves_from_weights(tables, W)
        pooled = np.concatenate((train.time[train.event != 0], valid.time[valid.event != 0]))
        for criterion in ("objective", "ibs", "ctd"):
            try:
                check_criterion(criterion, train, valid)
            except KernelAJError as exc:
                with pytest.raises(type(exc)) as got:
                    training.table_criterion(criterion, train, valid, grid, 1.0, 1.0)
                if isinstance(exc, NoComparablePairs):
                    assert str(exc).split()[-2:] == str(got.value).split()[-2:]
                continue
            value = training.table_criterion(criterion, train, valid, grid, 1.0, 1.0)
            if criterion == "objective":
                want = training.sft_objective_from_tables(
                    *tables, W, breslow_preprocess(valid, grid)[1], valid.event)
            else:
                scorer = metrics.scorer(valid, metrics.build_eval_grid(pooled)
                                        if criterion == "ibs" else None)
                want = float(np.mean(metrics.score_curves(cif, grid.times, scorer,
                                                          (criterion,))[criterion]))
            assert value(tables, W) == want

    def test_both_checks_can_fire(self):
        # the strategy above reaches both failures, not only the happy path
        one_time = Cohort(np.zeros((3, 1)), [1.0, 1.0, 2.0], [1, 1, 0], 1)
        grid = build_event_grid(one_time)
        pre, _ = breslow_preprocess(one_time, grid)
        for criterion in ("ibs", "ctd"):
            with pytest.raises(KernelAJError):
                check_criterion(criterion, pre, pre)
            with pytest.raises(KernelAJError):
                training.table_criterion(criterion, pre, pre, grid, 1.0, 1.0)

    def test_ibs_with_a_single_evaluation_time(self, monkeypatch):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 2))
        times = np.where(np.arange(20) % 2 == 0, 1.0, rng.uniform(2.0, 5.0, 20))
        events = np.where(np.arange(20) % 2 == 0, 1, 0)
        cohort = Cohort(X, times, events, m=1)
        grid = discretize_times(build_event_grid(cohort), 0)
        train, _ = breslow_preprocess(cohort.subset(np.arange(14)), grid)
        valid, _ = breslow_preprocess(cohort.subset(np.arange(14, 20)), grid)
        ecfg = EmbeddingConfig(input_dim=2, num_layers=1, hidden_units=4,
                               embed_dim=2)
        tcfg = TrainConfig(batch_size=8, max_epochs=2, patience=2,
                           early_stop_criterion="ibs")
        calls = counted(monkeypatch, "total_loss_and_grad", training)
        with pytest.raises(DegenerateGrid):
            train_embedding(train, valid, ecfg, tcfg, grid)
        assert calls == []


class TestFitSettings:
    @pytest.mark.parametrize("setting", [
        {"epsilon": -1.0}, {"epsilon": float("nan")}, {"min_kernel_weight": 1.0},
    ], ids=lambda setting: f"{setting}")
    def test_bad_clustering_setting_raises_before_training(self, monkeypatch, setting):
        # fit_pipeline checks its clustering settings as kernelaj fit does,
        # before the embedding trains, not when the clustering rejects them
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train_embedding", no_training)
        train, valid, ecfg = TestCriterionFeasibility.no_event_two_pairs()
        tcfg = TrainConfig(batch_size=128, max_epochs=2, patience=2, num_time_steps=8)
        with pytest.raises(ConfigError, match="^invalid value in 'clustering': "):
            fit_pipeline(train, valid, ecfg, tcfg, **{"epsilon": 0.5, **setting})

class TestStoppingRule:
    @settings(max_examples=100)
    @given(criterion=st.sampled_from(["objective", "ibs", "ctd"]),
           values=st.lists(st.sampled_from([np.nan, 0.25, 0.5, 0.75]), min_size=1,
                           max_size=12),
           patience=st.integers(1, 4))
    def test_log_replays_the_per_loop_rule(self, criterion, values, patience):
        log = TrainingLog(criterion=criterion)
        best, stall, flags = np.nan, 0, []
        for epoch, value in enumerate(values, start=1):
            want = criterion_is_improvement(criterion, value, best)
            if want:
                best, stall = value, 0
            else:
                stall += 1
            flags.append(want)
            assert log.add(epoch, 0.0, value) == want
            assert log.stalled(epoch, patience) == (stall >= patience)
            assert log.best_value == best or np.isnan(log.best_value) and np.isnan(best)
        assert [row[3] for row in log.rows] == flags

    def test_direction_ties_and_nan_first(self):
        for criterion, better, worse in (("ctd", 0.7, 0.5), ("ibs", 0.5, 0.7)):
            log = TrainingLog(criterion=criterion)
            assert [log.add(1, 0.0, np.nan), log.add(2, 0.0, 0.6), log.add(3, 0.0, 0.6),
                    log.add(4, 0.0, worse), log.add(5, 0.0, better)] == [
                        True, True, False, False, True]
            assert (log.best_epoch, log.best_value) == (5, better)
            assert not log.stalled(6, 2) and log.stalled(7, 2)


class TestDescend:
    """``training.descend``, the epoch loop of training and fine-tuning, on
    scripted epochs: epoch n returns a fresh params object, and the value
    of epoch n is ``values[n - 1]``; None stands for a log of 0."""

    def run(self, values, patience=2, max_epochs=10, best_value=np.nan):
        made = []

        def epoch(params, step):
            made.append([len(made) + 1])
            return made[-1], 0.0

        def value(params):
            v = values[params[0] - 1]
            return (float(np.log(np.array(0.0))) if v is None else v), ("scored", params)

        log = TrainingLog(criterion="objective", best_value=best_value)
        tcfg = TrainConfig(max_epochs=max_epochs, patience=patience, learning_rate=0.5)
        return training.descend("stage", tcfg, log, [0], epoch, value), log, made

    def test_overflow_in_epoch_raises_diverged(self):
        # here in the update itself: a - 0.5 * g leaves the float range
        tcfg = TrainConfig(max_epochs=3, learning_rate=0.5)
        huge = (np.array([1.5e308]),)
        with pytest.raises(Diverged, match=r"^stage epoch 1: overflow .*\(learning_rate 0.5\)$"):
            training.descend("stage", tcfg, TrainingLog("objective"), huge,
                             lambda p, step: (step(p, (-p[0],)), 0.0), lambda p: (1.0, p))

    def test_overflow_in_value_raises_diverged(self):
        with pytest.raises(Diverged, match=r"^fine-tuning epoch 1: overflow"):
            training.descend("fine-tuning", TrainConfig(max_epochs=3),
                             TrainingLog("objective"), None, lambda p, step: (p, 0.0),
                             lambda p: float(np.exp(np.array(1e4))))

    def test_step_leaves_its_inputs_and_the_best_epoch(self):
        # descend keeps the best epoch's arrays without a copy, so its update
        # must build new arrays: neither the arrays nor the gradients it was
        # given change, and epoch 1's arrays survive three later steps
        stepped = []

        def epoch(params, step):
            grads = (np.ones(3), np.full(2, 2.0))
            before = [a.copy() for a in params + grads]
            stepped.append(step(params, grads))
            for a, b in zip(params + grads, before):
                assert_array_equal(a, b)
            return stepped[-1], 0.0

        values = iter([1.0, 2.0, 3.0, 4.0])
        tcfg = TrainConfig(max_epochs=4, patience=5, learning_rate=0.5)
        kept, _ = training.descend("stage", tcfg, TrainingLog("objective"),
                                   (np.zeros(3), np.zeros(2)), epoch,
                                   lambda p: (next(values), None))
        assert len(stepped) == 4 and kept is stepped[0]
        assert_array_equal(kept[0], np.full(3, -0.5))
        assert_array_equal(kept[1], np.full(2, -1.0))
        assert_array_equal(stepped[-1][0], np.full(3, -2.0))

    def test_diverged_names_the_failing_epoch(self):
        with pytest.raises(Diverged, match=r"^stage epoch 3: divide by zero"):
            self.run([1.0, 0.5, None, 0.1])

    def test_stops_after_patience_epochs_without_improvement(self):
        _, log, made = self.run([3.0, 2.0, 2.5, 2.0, 1.0, 0.5], patience=2)
        assert len(made) == 4 and [row[0] for row in log.rows] == [1, 2, 3, 4]
        assert log.best_epoch == 2

    def test_returns_the_best_epochs_params(self):
        best, log, made = self.run([3.0, 1.0, 2.0, 2.0], patience=5, max_epochs=4)
        assert len(made) == 4 and log.best_epoch == 2
        # with what its value scored, kept as that epoch returned it
        assert best[0] is made[1] and best[1] == ("scored", made[1])

    def test_none_when_the_start_value_is_never_beaten(self):
        best, log, _ = self.run([1.0, 2.0, 1.0], patience=5, max_epochs=3, best_value=1.0)
        assert best is None and len(log.rows) == 3
