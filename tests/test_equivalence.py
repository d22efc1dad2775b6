"""The segment-sum training step, validation hazards, per-bin ranking loss,
blocked interpolation and vectorised Brier score against the dense oracles
in ``dense_oracle``.

Random cohorts come from hypothesis with ``derandomize=True`` so every run
draws the same examples.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import dense_oracle as oracle
from conftest import relative_error
from kernelaj import (
    Cohort,
    EmbeddingConfig,
    StepCurve,
    SynthConfig,
    TrainConfig,
    build_event_grid,
    discretize_times,
    generate_synthetic,
    init_mlp,
)
from kernelaj import training
from kernelaj.embedding import (
    flatten_grads,
    kernel_matrix,
    pairwise_sq_dists,
)
from kernelaj.metrics import (
    INTERP_BLOCK_ROWS,
    brier_score,
    brier_scores,
    censoring_survival,
    interpolate_curves,
    ipcw_weights,
)
from kernelaj.training import (
    kernel_hazard_curves,
    ranking_value,
    ranking_value_and_dpsi,
    total_loss_and_grad,
)

REPRODUCIBLE = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def labelled_batches(draw, all_censored=False):
    """(X, kappa, delta, m, L, seed): kappa in 0..L, delta in 0..m, with
    censored rows allowed at kappa = 0 and events at kappa >= 1."""
    n = draw(st.integers(2, 24))
    m = draw(st.integers(1, 3))
    L = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    # few distinct bins -> tied kappa; bins above kmax -> zero denominators
    kmax = draw(st.integers(0, L))
    delta = np.zeros(n, np.int64) if all_censored else rng.integers(0, m + 1, n)
    kappa = np.where(delta == 0, rng.integers(0, kmax + 1, n),
                     rng.integers(1, max(kmax, 1) + 1, n))
    X = rng.normal(size=(n, 3))
    return X, kappa.astype(np.int64), delta.astype(np.int64), m, L, seed


def small_params(seed):
    cfg = EmbeddingConfig(input_dim=3, num_layers=2, hidden_units=5, embed_dim=2,
                          activation="tanh")
    return init_mlp(cfg, seed=seed % 1000)


def assert_step_matches_oracle(X, kappa, delta, m, L, alpha, seed, perm=None):
    params = small_params(seed)
    want_loss, want_dw, want_db = oracle.total_loss_and_grad(
        params, X, kappa, delta, m, L, alpha, 0.7)
    if perm is not None:
        X, kappa, delta = X[perm], kappa[perm], delta[perm]
    loss, dw, db = total_loss_and_grad(params, X, kappa, delta, m, L, alpha, 0.7)
    assert abs(loss - want_loss) <= 1e-12 * max(abs(want_loss), 1e-12)
    assert relative_error(flatten_grads(dw, db), flatten_grads(want_dw, want_db)) <= 1e-12


class TestTrainingStep:
    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @REPRODUCIBLE
    @given(batch=labelled_batches())
    def test_random_batches(self, alpha, batch):
        X, kappa, delta, m, L, seed = batch
        assert_step_matches_oracle(X, kappa, delta, m, L, alpha, seed)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @REPRODUCIBLE
    @given(batch=labelled_batches(), data=st.data())
    def test_permuted_rows(self, alpha, batch, data):
        X, kappa, delta, m, L, seed = batch
        perm = np.array(data.draw(st.permutations(range(X.shape[0]))))
        assert_step_matches_oracle(X, kappa, delta, m, L, alpha, seed, perm)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @REPRODUCIBLE
    @given(batch=labelled_batches(all_censored=True))
    def test_all_censored_batches(self, alpha, batch):
        X, kappa, delta, m, L, seed = batch
        assert_step_matches_oracle(X, kappa, delta, m, L, alpha, seed)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_fixed_edge_cases(self, alpha):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(9, 3))
        cases = [
            # every row tied in one bin, two event types
            (np.full(9, 2), np.array([1, 2, 0, 1, 2, 0, 1, 1, 2]), 2, 3),
            # kappa = 0 censored rows and empty top bins (zero denominators)
            (np.array([0, 0, 1, 1, 2, 0, 1, 2, 0]),
             np.array([0, 0, 1, 0, 1, 0, 1, 0, 0]), 1, 6),
            # all censored, some at kappa = 0
            (np.array([0, 3, 1, 0, 2, 3, 0, 1, 2]), np.zeros(9, np.int64), 2, 4),
        ]
        for kappa, delta, m, L in cases:
            assert_step_matches_oracle(X, kappa.astype(np.int64),
                                       delta.astype(np.int64), m, L, alpha, 11)


class TestValidationHazards:
    @REPRODUCIBLE
    @given(batch=labelled_batches(), q=st.integers(1, 9))
    def test_matches_dense_tables(self, batch, q):
        X, kappa, delta, m, L, seed = batch
        rng = np.random.default_rng(seed)
        E_ref = rng.normal(size=(X.shape[0], 2))
        E_query = rng.normal(size=(q, 2))
        got = kernel_hazard_curves(E_query, E_ref, kappa, delta, m, L)
        want = oracle.kernel_hazard_curves(E_query, E_ref, kappa, delta, m, L)
        for a, b in zip(got, want):
            assert_allclose(a, b, rtol=0, atol=1e-12)

    @REPRODUCIBLE
    @given(seed=st.integers(0, 2**32 - 1), n1=st.integers(1, 30), n2=st.integers(1, 30))
    def test_kernel_matches_dense_kernel(self, seed, n1, n2):
        rng = np.random.default_rng(seed)
        E1, E2 = rng.normal(size=(n1, 4)), rng.normal(size=(n2, 4))
        assert_allclose(pairwise_sq_dists(E1, E2), oracle.pairwise_sq_dists(E1, E2),
                        rtol=1e-12, atol=1e-12)
        assert_allclose(kernel_matrix(E1), oracle.kernel_matrix(E1), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("block", [1, 7, 256, 10**6])
    def test_block_size_does_not_change_bits(self, monkeypatch, block):
        rng = np.random.default_rng(4)
        q, n, m, L = 2 * 256 + 17, 200, 2, 16
        E_query, E_ref = rng.normal(size=(q, 8)), rng.normal(size=(n, 8))
        kappa = rng.integers(0, L + 1, n)
        delta = np.where(kappa == 0, 0, rng.integers(0, m + 1, n))
        monkeypatch.setattr(training, "CRITERION_BLOCK_ROWS", q)
        want = kernel_hazard_curves(E_query, E_ref, kappa, delta, m, L)
        monkeypatch.setattr(training, "CRITERION_BLOCK_ROWS", block)
        got = kernel_hazard_curves(E_query, E_ref, kappa, delta, m, L)
        for a, b in zip(got, want):
            assert_array_equal(a, b)

    def test_two_set_kernel_matches_self_kernel(self):
        rng = np.random.default_rng(6)
        E1, E2 = rng.normal(size=(13, 5)), rng.normal(size=(29, 5))
        K = kernel_matrix(np.vstack((E1, E2)))
        assert_allclose(kernel_matrix(E1, E2), K[:13, 13:], rtol=1e-13, atol=1e-15)


def _psi_batch(batch):
    _, kappa, delta, m, L, seed = batch
    psi = np.random.default_rng(seed).uniform(0, 0.3, (m, kappa.size, L))
    return psi, kappa, delta


class TestRankingForward:
    """The per-bin ranking loss and its hazard gradient against the dense
    pairwise oracles, on batches whose uncensored rows all have kappa >= 1
    (as every discretized cohort does)."""

    @REPRODUCIBLE
    @given(batch=labelled_batches(), sigma=st.sampled_from([0.05, 0.3, 1.0, 2.5]))
    def test_matches_dense_pair_matrix(self, batch, sigma):
        psi, kappa, delta = _psi_batch(batch)
        F, _, _, _ = oracle._cif_from_psi(psi)
        want = oracle.loss_ranking(oracle.cif_pair_matrix(F, kappa), kappa, delta, sigma)
        got = ranking_value(F, kappa, delta, sigma)
        assert abs(got - want) <= 1e-12 * abs(want)
        assert ranking_value_and_dpsi(psi, kappa, delta, sigma, scale=1.0)[0] == got

    @pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0, 2.5])
    @REPRODUCIBLE
    @given(batch=labelled_batches())
    def test_dpsi_matches_dense_backward(self, sigma, batch):
        psi, kappa, delta = _psi_batch(batch)
        value, dpsi = ranking_value_and_dpsi(psi, kappa, delta, sigma, scale=0.4)
        want_value, want_dpsi = oracle.ranking_value_and_dpsi(psi, kappa, delta, sigma,
                                                              scale=0.4)
        assert abs(value - want_value) <= 1e-12 * abs(want_value)
        assert relative_error(dpsi, want_dpsi) <= 1e-12

    @REPRODUCIBLE
    @given(batch=labelled_batches(), all_censored=st.booleans())
    def test_no_comparable_pair_gives_exact_zeros(self, batch, all_censored):
        psi, kappa, delta = _psi_batch(batch)
        if all_censored:
            delta = np.zeros_like(delta)
        else:                                   # every event in the last bin
            kappa = np.where(delta > 0, psi.shape[2], kappa)
        F, _, _, _ = oracle._cif_from_psi(psi)
        assert ranking_value(F, kappa, delta, 0.3) == 0.0
        value, dpsi = ranking_value_and_dpsi(psi, kappa, delta, 0.3, scale=1.0)
        assert value == 0.0
        assert not dpsi.any()

    def test_no_square_buffer(self):
        n, m, L = 4096, 2, 64
        rng = np.random.default_rng(8)
        psi = rng.uniform(0, 0.02, (m, n, L))
        kappa = rng.integers(0, L + 1, n)
        delta = np.where(kappa == 0, 0, rng.integers(0, m + 1, n))
        F, _, _, _ = oracle._cif_from_psi(psi)
        tracemalloc.start()
        try:
            ranking_value(F, kappa, delta, 0.5)
            ranking_value_and_dpsi(psi, kappa, delta, 0.5, scale=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_objective_criterion_has_no_square_buffer(self):
        n_train, q = 300, 4096
        cohort = generate_synthetic(SynthConfig(
            n=n_train + q, p=3, w1=(0.6, 0.0, 0.0), w2=(0.0, 0.6, 0.0),
            censoring_rate=0.3, seed=3))
        dtm = discretize_times(build_event_grid(cohort), 64)
        train, _ = dtm.apply(cohort.subset(np.arange(n_train)))
        valid, _ = dtm.apply(cohort.subset(np.arange(n_train, n_train + q)))
        tcfg = TrainConfig(alpha=0.5, sigma=0.5)
        params = small_params(0)
        inputs = training._criterion_inputs("objective", train, valid, dtm,
                                            dtm.apply(train)[1])
        tracemalloc.start()
        try:
            value = training._evaluate_criterion("objective", params, train, valid,
                                                 dtm, tcfg, inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(value)
        assert peak < q * q * 8


class TestInterpolation:
    def test_matches_per_row_interp(self):
        rng = np.random.default_rng(3)
        n, L = INTERP_BLOCK_ROWS * 2 + 17, 12
        knots = np.cumsum(rng.uniform(0.1, 1.0, L))
        curves = np.cumsum(rng.uniform(0, 0.05, (n, L)), axis=1)
        eval_times = np.concatenate((
            [-1.0, -1e-9, 0.0], knots, knots[-1] + [1e-9, 5.0],
            rng.uniform(0, knots[-1], 40)))
        want = np.vstack([np.interp(eval_times, np.r_[0.0, knots], np.r_[0.0, row])
                          for row in curves])
        assert_array_equal(interpolate_curves(curves, knots, eval_times), want)

    @REPRODUCIBLE
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), L=st.integers(1, 9))
    def test_random_curves(self, seed, n, L):
        rng = np.random.default_rng(seed)
        knots = np.unique(rng.uniform(0.1, 10.0, L))
        curves = rng.uniform(0, 1, (n, knots.size))
        eval_times = np.concatenate((rng.uniform(-1, 12, 15), knots))
        want = np.vstack([np.interp(eval_times, np.r_[0.0, knots], np.r_[0.0, row])
                          for row in curves])
        assert_array_equal(interpolate_curves(curves, knots, eval_times), want)


@st.composite
def brier_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 3))
    times = np.round(rng.uniform(0.5, 6.0, n), 1)        # ties in observed times
    events = rng.integers(0, m + 1, n)
    cohort = Cohort(np.zeros((n, 1)), times, events, m)
    if draw(st.booleans()):
        censor = censoring_survival(cohort)
    else:                                                 # reaches 0: exclusions
        knots = np.sort(rng.uniform(0.5, 6.0, 3))
        censor = StepCurve(knots, np.array([0.7, 0.3, 0.0]))
    horizons = np.unique(np.round(rng.uniform(0.3, 6.5, 12), 1))
    F = rng.uniform(0, 1, (n, horizons.size))
    return cohort, censor, horizons, F, int(rng.integers(1, m + 1))


class TestBrier:
    @REPRODUCIBLE
    @given(case=brier_cases())
    def test_grid_matches_scalar_oracle(self, case):
        cohort, censor, horizons, F, delta = case
        values, excluded = brier_scores(F, cohort, delta, horizons,
                                        ipcw_weights(cohort, horizons, censor))
        for k, t in enumerate(horizons):
            want = oracle.brier_score(F[:, k], cohort, delta, t, censor)
            assert values[k] == pytest.approx(want.value, rel=1e-12, abs=1e-15)
            assert excluded[k] == want.n_excluded
            one = brier_score(F[:, k], cohort, delta, t, censor)
            assert one.value == values[k]
            assert one.n_excluded == excluded[k]

    def test_excluded_subjects_counted_per_horizon(self):
        cohort = Cohort(np.zeros((3, 1)), [2.0, 0.5, 4.0], [1, 1, 0], 1)
        censor = StepCurve([1.0, 3.0], [0.5, 0.0])
        horizons = np.array([1.0, 2.5, 3.5])
        F = np.full((3, 3), 0.4)
        _, excluded = brier_scores(F, cohort, 1, horizons,
                                   ipcw_weights(cohort, horizons, censor))
        want = [oracle.brier_score(F[:, k], cohort, 1, t, censor).n_excluded
                for k, t in enumerate(horizons)]
        assert list(excluded) == want
        assert max(want) > 0
