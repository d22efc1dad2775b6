"""Tests for kernel-weighted prediction: special-case equivalences against
the population estimator, conservation, and interpretation quantities."""

from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

import dense_oracle as oracle
from kernelaj import (
    Cohort,
    EmbeddingConfig,
    KernelAJModel,
    aalen_johansen,
    breslow_preprocess,
    build_cluster_model,
    build_event_grid,
    cluster_weight_decomposition,
    curves_from_counts,
    discretize_times,
    explain_rows,
    explain_subject,
    init_mlp,
    kaplan_meier,
    population_aalen_johansen,
    predict_cif_grid,
    predict_curves,
    weighted_summaries,
)
from kernelaj import model as model_module
from conftest import FIT_TRAIN_ROWS, clusters_from_tables, fits, traced_peak
from kernelaj.core import EventTimeGrid, label_codes, risk_event_counts, safe_reciprocal
from kernelaj.embedding import MlpParams, embed_batch, pairwise_sq_dists
from kernelaj.finetune import SftParams, sft_counts
from kernelaj.model import Explanation, cluster_curves, exemplar_kernel_matrix


def random_cohort(rng, n=25, p=3, m=2):
    X = rng.normal(size=(n, p))
    times = rng.uniform(0.2, 8.0, size=n)
    events = rng.integers(0, m + 1, size=n)
    events[:2] = [1, m]
    return Cohort(X, times, events, m)


def build_model(cohort, params, epsilon, tau, num_time_steps=0):
    grid = discretize_times(build_event_grid(cohort), num_time_steps)
    pre, _ = breslow_preprocess(cohort, grid)
    E = embed_batch(params, pre.features)
    clusters = build_cluster_model(E, label_codes(pre, grid), (len(grid), pre.m), epsilon, tau)
    return KernelAJModel(params=params, clusters=clusters, grid=grid,
                         cluster_feature_means=np.zeros((clusters.num_clusters, cohort.p)))


BLOCKS = (1, 7, model_module.PREDICT_BLOCK_ROWS, 5000)


def joined_explanations(model, X):
    """The blocks of :func:`explain_rows` joined: (records, cif, survival)."""
    blocks = list(explain_rows(model, X))
    return ([r for records, _, _ in blocks for r in records],
            np.concatenate([cif for _, cif, _ in blocks], axis=1),
            np.concatenate([surv for _, _, surv in blocks]))


def assert_same_values(got, want):
    """Equal arrays, or equal lists of Explanation records field by field."""
    if isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for f in fields(Explanation):
                assert_array_equal(getattr(g, f.name), getattr(w, f.name))
    else:
        assert_array_equal(got, want)


def random_params(rng, p, seed):
    cfg = EmbeddingConfig(input_dim=p, num_layers=1, hidden_units=6,
                          embed_dim=2, activation="tanh", init_seed=seed)
    return init_mlp(cfg)


def constant_params(p, d=2):
    """Network mapping every input to the zero embedding."""
    return MlpParams((p, d), (np.zeros((d, p)),), (np.zeros(d),))


def training_rows(fit):
    """The training rows of a :func:`conftest.fits` fit, preprocessed on the
    model's grid and checked against the label codes the model stores, and
    all of the fit's rows as features."""
    model, schema, table, _ = fit
    X, rows = schema.transform(table), np.arange(FIT_TRAIN_ROWS)
    pre, _ = breslow_preprocess(
        Cohort(X[rows], table.time[rows], table.event[rows], model.m), model.grid)
    assert_array_equal(label_codes(pre, model.grid), model.clusters.codes)
    return pre, X


def reclustered(model, pre, epsilon, tau):
    """``model`` with its clusters rebuilt from the training rows ``pre`` at
    (epsilon, tau), and no fine-tuned tables."""
    clusters = build_cluster_model(embed_batch(model.params, pre.features),
                                   model.clusters.codes, model.clusters.table_shape, epsilon, tau)
    return replace(model, clusters=clusters, sft_tables=None,
                   cluster_feature_means=np.zeros((clusters.num_clusters, pre.p)))


def assert_pooled_curves(model, cif, surv):
    """A fallback row's CIFs (m, L) and survival (L,) are the Aalen-Johansen
    curves of the model's pooled tables: the population estimate to the bit
    when the tables are the raw counts, within 1e-12 when fine-tuned."""
    if model.sft_tables is None:
        want = model.population_curves()
        assert_array_equal(surv, want.survival.values)
        assert_array_equal(cif, np.stack([c.values for c in want.cifs]))
    else:
        d, n = model.sft_tables
        assert_curves(cif, surv, curves_from_counts(d.sum(axis=0), n.sum(axis=0),
                                                    model.grid))


def assert_curves(cif, surv, want):
    """Predicted CIFs (m, L) and survival (L,) of one row within 1e-12 of the
    CifSet ``want``."""
    assert_allclose(surv, want.survival.values, rtol=0, atol=1e-12)
    for d, curve in enumerate(want.cifs):
        assert_allclose(cif[d], curve.values, rtol=0, atol=1e-12)


class TestSpecialCases:
    @settings(max_examples=25)
    @given(fit=fits())
    def test_trained_fit_at_epsilon_infinity_is_the_population(self, fit):
        # one cluster holds every training row, so its kernel weight cancels
        # in every ratio: any row, near or far, gets the Aalen-Johansen
        # curves of the training rows
        model = fit[0]
        pre, X = training_rows(fit)
        one = reclustered(model, pre, np.inf, model.clusters.tau)
        far = 40.0 * X[np.argmax(np.linalg.norm(X, axis=1))]
        cif, surv, _ = predict_cif_grid(one, np.vstack((X, far, -far)))
        want = curves_from_counts(*risk_event_counts(pre, model.grid), model.grid)
        for i in range(surv.shape[0]):
            assert_curves(cif[:, i], surv[i], want)

    @settings(max_examples=25)
    @given(fit=fits(), epsilon=st.sampled_from([0.1, 1.0]))
    def test_trained_exemplar_with_tau_below_epsilon_is_its_cluster(self, fit, epsilon):
        # exemplars lie more than epsilon apart, so with tau below epsilon an
        # exemplar's own row weights its own cluster only and gets the
        # Aalen-Johansen curves of that cluster's member rows
        model = fit[0]
        pre, _ = training_rows(fit)
        net = reclustered(model, pre, epsilon, epsilon / 2)
        ids = net.clusters.exemplar_ids
        E = net.clusters.exemplar_embeddings
        diff = E[:, None, :] - E[None, :, :]
        gaps = np.einsum("qrd,qrd->qr", diff, diff) > net.clusters.tau ** 2
        assert_array_equal(gaps, ~np.eye(ids.size, dtype=bool))
        cif, surv, _ = predict_cif_grid(net, pre.features[ids])
        for q, i in enumerate(ids):
            members = pre.subset(np.flatnonzero(net.clusters.assignments == i))
            assert_curves(cif[:, q], surv[q], curves_from_counts(
                *risk_event_counts(members, model.grid), model.grid, allow_zero_risk=True))

    @settings(max_examples=25)
    @given(fit=fits(max_events=1))
    def test_trained_single_event_fit_is_the_kernel_kaplan_meier(self, fit):
        # with one event type the survival is the product-limit estimate of
        # the kernel-weighted tables, fine-tuned or not, with hazard 0 where
        # nobody is at risk, and the CIF is its complement
        model = fit[0]
        _, X = training_rows(fit)
        cif, surv, fallback = predict_cif_grid(model, X)
        assert_allclose(surv + cif[0], 1.0, rtol=0, atol=1e-12)
        diff = embed_batch(model.params, X)[:, None, :] - model.clusters.exemplar_embeddings
        sq = np.einsum("iqd,iqd->iq", diff, diff)
        W = np.where(sq <= model.clusters.tau ** 2, np.exp(-sq), 0.0)
        assert_array_equal(fallback, ~W.any(axis=1))
        d, n = model.tables
        for i in np.flatnonzero(~fallback):
            km = curves_from_counts(np.einsum("q,qlk->lk", W[i], d), W[i] @ n, model.grid,
                                    allow_zero_risk=True).survival
            assert_allclose(surv[i], km.values, rtol=0, atol=1e-12)

    def test_epsilon_infinity_equals_population(self):
        # single cluster holding everyone: kernel weight cancels in the
        # ratios, so every query reproduces the population estimate
        rng = np.random.default_rng(0)
        cohort = random_cohort(rng)
        params = random_params(rng, cohort.p, seed=0)
        model = build_model(cohort, params, epsilon=np.inf, tau=np.inf)
        assert model.clusters.num_clusters == 1
        pop = population_aalen_johansen(cohort)
        for _ in range(10):
            x = rng.normal(size=cohort.p)
            pred = predict_curves(model, x)
            assert_allclose(pred.survival.values, pop.survival.values, atol=1e-9)
            for d in range(1, 3):
                assert_allclose(pred.cif(d).values, pop.cif(d).values, atol=1e-9)

    def test_constant_embedding_eps_zero_tau_inf(self):
        # all embeddings coincide, so the greedy pass keeps one exemplar even
        # at eps=0 and predictions collapse to the population estimator
        rng = np.random.default_rng(1)
        cohort = random_cohort(rng)
        params = constant_params(cohort.p)
        model = build_model(cohort, params, epsilon=0.0, tau=np.inf)
        assert model.clusters.num_clusters == 1
        pop = population_aalen_johansen(cohort)
        x = rng.normal(size=cohort.p)
        pred = predict_curves(model, x)
        assert_allclose(pred.survival.values, pop.survival.values, atol=1e-9)

    def test_single_exemplar_in_range_is_cluster_restricted(self):
        rng = np.random.default_rng(2)
        cohort = random_cohort(rng, n=30)
        params = random_params(rng, cohort.p, seed=5)
        model = build_model(cohort, params, epsilon=0.3, tau=0.2)
        E = embed_batch(params, cohort.features)
        found = 0
        for i in range(cohort.n):
            from kernelaj import neighbors_within_tau

            hits = neighbors_within_tau(E[i], model.clusters)
            if hits.size != 1:
                continue
            found += 1
            qi = int(hits[0])
            pred = predict_curves(model, cohort.features[i])
            restricted = cluster_curves(model, qi)
            assert_allclose(pred.survival.values, restricted.survival.values,
                            atol=1e-9)
            for d in range(1, 3):
                assert_allclose(pred.cif(d).values, restricted.cif(d).values,
                                atol=1e-9)
        assert found > 0

    @pytest.mark.parametrize("num_time_steps", [0, 4])
    def test_population_curves_pool_the_cluster_tables(self, num_time_steps):
        # the fallback is the population estimate itself, to the bit
        rng = np.random.default_rng(6)
        cohort = random_cohort(rng, n=40)
        model = build_model(cohort, random_params(rng, cohort.p, seed=2),
                            epsilon=0.2, tau=1.0, num_time_steps=num_time_steps)
        assert model.clusters.num_clusters > 1
        pre, _ = breslow_preprocess(cohort, model.grid)
        want = aalen_johansen(*oracle.risk_event_counts(pre, model.grid), model.grid)
        got = model.population_curves()
        assert_array_equal(got.survival.values, want.survival.values)
        for d in range(1, cohort.m + 1):
            assert_array_equal(got.cif(d).values, want.cif(d).values)

    def test_fallback_to_population_when_no_neighbors(self):
        rng = np.random.default_rng(3)
        cohort = random_cohort(rng)
        params = random_params(rng, cohort.p, seed=1)
        model = build_model(cohort, params, epsilon=0.5, tau=1e-6)
        x = rng.normal(size=cohort.p) * 50.0
        d_w, n_w, hits = weighted_summaries(model, x)
        assert hits.size == 0
        # raw tables hold integer counts, so the pooled sums are exact
        assert_array_equal(d_w, model.tables[0].sum(axis=0))
        assert_array_equal(n_w, model.tables[1].sum(axis=0))
        pred = predict_curves(model, x)
        pop = model.population_curves()
        assert_allclose(pred.survival.values, pop.survival.values)


class TestPredictionProperties:
    def test_conservation_and_monotonicity(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            m = int(rng.integers(1, 4))
            cohort = random_cohort(rng, n=int(rng.integers(8, 40)), m=m)
            params = random_params(rng, cohort.p, seed=trial)
            model = build_model(cohort, params,
                                epsilon=float(rng.uniform(0.0, 2.0)),
                                tau=float(rng.uniform(0.5, 3.0)))
            X = rng.normal(size=(5, cohort.p))
            cif, surv, _ = predict_cif_grid(model, X)
            total = surv + cif.sum(axis=0)
            assert np.abs(total - 1.0).max() < 1e-9
            assert (np.diff(surv, axis=1) <= 1e-12).all()
            assert (np.diff(cif, axis=2) >= -1e-12).all()
            assert cif.min() >= -1e-12 and cif.max() <= 1 + 1e-12

    @settings(max_examples=25)
    @given(fit=fits())
    def test_trained_fits_conserve_and_fall_back(self, fit):
        # the invariants on real fits, fine-tuned tables included, over the
        # training rows and +-40 times the largest of them: a ReLU network
        # can map one sign of a direction onto its dead side, so only one of
        # the two far rows must fall back
        model, schema, table, _ = fit
        X = schema.transform(table)
        far = X[np.argmax(np.linalg.norm(X, axis=1))] * 40.0
        cif, surv, fallback = predict_cif_grid(model, np.vstack((X, far, -far)))
        assert np.abs(surv + cif.sum(axis=0) - 1.0).max() <= 1e-12
        assert (np.diff(surv, axis=1) <= 0).all() and (np.diff(cif, axis=2) >= 0).all()
        assert 0 <= min(cif.min(), surv.min()) and max(cif.max(), surv.max()) <= 1
        assert fallback[-2:].any()
        for i in np.flatnonzero(fallback):
            assert_pooled_curves(model, cif[:, i], surv[i])

    def test_single_event_type_reduces_to_kernel_km(self):
        rng = np.random.default_rng(5)
        cohort = random_cohort(rng, m=1)
        params = random_params(rng, cohort.p, seed=9)
        model = build_model(cohort, params, epsilon=0.5, tau=np.inf)
        X = rng.normal(size=(6, cohort.p))
        cif, surv, _ = predict_cif_grid(model, X)
        assert_allclose(cif[0], 1.0 - surv, atol=1e-9)

    def test_batch_matches_single_queries(self):
        rng = np.random.default_rng(6)
        cohort = random_cohort(rng)
        params = random_params(rng, cohort.p, seed=2)
        model = build_model(cohort, params, epsilon=0.7, tau=2.0)
        X = rng.normal(size=(8, cohort.p))
        cif, surv, _ = predict_cif_grid(model, X)
        for i in range(8):
            single = predict_curves(model, X[i])
            assert_allclose(surv[i], single.survival.values, atol=1e-14)
            for d in range(1, 3):
                assert_allclose(cif[d - 1, i], single.cif(d).values, atol=1e-14)

    def test_rows_do_not_depend_on_batch(self):
        rng = np.random.default_rng(9)
        cohort = random_cohort(rng, n=300, p=8)
        params = init_mlp(EmbeddingConfig(input_dim=8, num_layers=2, hidden_units=32,
                                          embed_dim=8, init_seed=3))
        model = build_model(cohort, params, epsilon=1.0, tau=3.0, num_time_steps=32)
        X = rng.normal(size=(64, 8))
        cif, surv, fallback = predict_cif_grid(model, X)
        for i in range(X.shape[0]):
            one_cif, one_surv, one_fallback = predict_cif_grid(model, X[i:i + 1])
            assert_array_equal(one_cif[:, 0], cif[:, i])
            assert_array_equal(one_surv[0], surv[i])
            assert one_fallback[0] == fallback[i]

    @pytest.mark.parametrize("entry, block", [
        *((predict_cif_grid, b) for b in BLOCKS), *((joined_explanations, b) for b in BLOCKS)],
        ids=[*map(str, BLOCKS), *(f"explain_rows-{b}" for b in BLOCKS)])
    def test_row_blocks_do_not_change_bits(self, monkeypatch, entry, block):
        rng = np.random.default_rng(10)
        cohort = random_cohort(rng, n=300, p=8)
        params = init_mlp(EmbeddingConfig(input_dim=8, num_layers=2, hidden_units=32,
                                          embed_dim=8, init_seed=3))
        model = build_model(cohort, params, epsilon=1.0, tau=3.0, num_time_steps=32)
        X = rng.normal(size=(2100, 8)) * 10.0    # some rows fall back
        monkeypatch.setattr(model_module, "PREDICT_BLOCK_ROWS", 1 << 20)
        whole = entry(model, X)
        monkeypatch.setattr(model_module, "PREDICT_BLOCK_ROWS", block)
        blocked = entry(model, X)
        fallback = predict_cif_grid(model, X)[2]
        assert fallback.any() and not fallback.all()
        for got, want in zip(blocked, whole):
            assert_same_values(got, want)

    def test_hand_weighted_summary_sums(self):
        # query embeds at the origin; exemplars sit at squared distances
        # log 2 and log 4, so kernel weights are exactly 0.5 and 0.25
        d1 = np.array([[2.0, 0.0], [1.0, 1.0]])
        d2 = np.array([[0.0, 3.0], [2.0, 0.0]])
        n1 = np.array([5.0, 2.0])
        n2 = np.array([6.0, 3.0])
        clusters = clusters_from_tables(
            np.stack([d1, d2]), np.stack([n1, n2]),
            np.array([[np.sqrt(np.log(2.0)), 0.0], [np.sqrt(np.log(4.0)), 0.0]]),
            tau=10.0)
        model = KernelAJModel(params=constant_params(3), clusters=clusters,
                              grid=EventTimeGrid([1.0, 2.0]),
                              cluster_feature_means=np.zeros((2, 3)))
        d_w, n_w, hits = weighted_summaries(model, np.zeros(3))
        assert list(hits) == [0, 1]
        assert_allclose(d_w, 0.5 * d1 + 0.25 * d2, atol=1e-12)
        assert_allclose(n_w, 0.5 * n1 + 0.25 * n2, atol=1e-12)

    def test_weight_rescaling_invariance(self):
        # scaling all contributing kernel weights cancels in the ratios
        rng = np.random.default_rng(7)
        cohort = random_cohort(rng)
        params = random_params(rng, cohort.p, seed=3)
        model = build_model(cohort, params, epsilon=0.6, tau=np.inf)
        x = rng.normal(size=cohort.p)
        d_w, n_w, hits = weighted_summaries(model, x)
        a = curves_from_counts(d_w, n_w, model.grid, allow_zero_risk=True)
        b = curves_from_counts(3.0 * d_w, 3.0 * n_w, model.grid,
                               allow_zero_risk=True)
        assert_allclose(a.survival.values, b.survival.values, atol=1e-12)


class TestWeightedHazards:
    """The one hazard rule psi = D * (1/N) writes psi and 1/N over the D and
    N it computes, so a call holds one set of hazard planes."""

    def test_bit_equal_to_the_products(self):
        rng = np.random.default_rng(11)
        Q, L, m, q = 5, 7, 2, 9
        d = rng.integers(0, 3, (Q, L, m)).astype(np.float64)
        n = d.sum(axis=2) + rng.integers(0, 3, (Q, L))
        n[:, 4], d[:, 4] = 0.0, 0.0                         # nobody at risk in bin 4
        W = rng.uniform(0.0, 1.0, (q, Q))
        W[2] = 0.0                                          # no weight on any exemplar
        D, N = model_module._weighted_tables((d, n), W)
        assert (N == 0).any() and (N > 0).any()
        psi, inv_N = model_module.weighted_hazards((d, n), W)
        want_inv = safe_reciprocal(N)
        assert_array_equal(inv_N, want_inv)
        assert_array_equal(psi, D * want_inv[None, :, :])

    def test_peak_is_one_set_of_planes(self):
        # psi (1 MiB) and 1/N (0.5 MiB) at q 1,024, L 64, m 2; separate D
        # and N planes beside them reach 3 MiB
        rng = np.random.default_rng(12)
        Q, L, m, q = 60, 64, 2, 1024
        d = rng.uniform(0.0, 2.0, (Q, L, m))
        n = d.sum(axis=2) + rng.uniform(0.0, 2.0, (Q, L))
        W = rng.uniform(0.0, 1.0, (q, Q))
        _, peak = traced_peak(lambda: model_module.weighted_hazards((d, n), W))
        assert peak < 2 << 20


def identity_model(d, n, centers, tau):
    """A model over the integer cluster tables d (Q, L, m) and n (Q, L) whose
    network is the identity, so a query's kernel weights are
    exp(-||x - e_q||^2) of its own features; grid times 1..L."""
    Q, p = centers.shape
    return KernelAJModel(params=MlpParams((p, p), (np.eye(p),), (np.zeros(p),)),
                         clusters=clusters_from_tables(d, n, centers, tau=tau),
                         grid=EventTimeGrid(np.arange(1.0, n.shape[1] + 1.0)),
                         cluster_feature_means=np.zeros((Q, p)))


@st.composite
def weighted_cluster_models(draw):
    """A model over random cluster tables plus query rows.

    The network is the identity, so a query's weights are exp(-||x - e_q||^2)
    of its own features. Every cluster that is still at risk in the final bin
    has only events there, so each query's weighted tables end in a bin whose
    hazards add to 1 in exact arithmetic and to 1 +- rounding in floating
    point. Cluster 0 reaches the final bin; the others may empty earlier. The
    last query row lies far from every exemplar.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q, L, m = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    last = rng.integers(0, L, Q)
    last[0] = L - 1
    live = np.arange(L)[None, :] <= last[:, None]
    d = rng.integers(0, 4, (Q, L, m)) * live[:, :, None] + 0.0
    d[np.arange(Q), last, 0] += 1.0
    censored = rng.integers(0, 3, (Q, L)) * live + 0.0
    censored[np.arange(Q), last] = 0.0
    n = np.flip(np.cumsum(np.flip(d.sum(axis=2) + censored, axis=1), axis=1), axis=1)
    centers = rng.normal(size=(Q, 2))
    model = identity_model(d, n, centers, tau=draw(st.sampled_from([0.8, 2.0, np.inf])))
    X = centers[rng.integers(0, Q, 8)] + rng.normal(scale=0.7, size=(8, 2))
    return model, np.vstack((X, [[1e3, -1e3]]))


def assert_valid_curves(surv, cif):
    """survival (n, L) and CIF (m, n, L) values of a competing-risks estimate."""
    assert (surv >= 0).all()
    assert (np.diff(surv, axis=-1) <= 0).all()
    assert (np.diff(cif, axis=-1) >= 0).all()
    assert cif.min() >= 0 and cif.max() <= 1 + 1e-12
    assert np.abs(surv + cif.sum(axis=0) - 1.0).max() <= 1e-12


def curve_values(curves):
    return curves.survival.values, np.stack([c.values for c in curves.cifs])


ONE_RULE = settings(max_examples=60)


class TestFallbackRule:
    """A row with no exemplar within tau weighs every cluster equally, so its
    curves are those of the pooled tables the model predicts with, and its
    record lists no exemplar."""

    @ONE_RULE
    @given(case=weighted_cluster_models(), tuned=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_fallback_rows_read_the_pooled_tables(self, case, tuned, seed):
        model, X = case
        if tuned:
            rng = np.random.default_rng(seed)
            Q, L, m = model.clusters.d_cluster.shape
            model = replace(model, sft_tables=sft_counts(SftParams(
                rng.normal(0.0, 1.0, (Q, L, m)), rng.normal(-1.0, 1.0, (L, m)),
                rng.normal(0.0, 1.0, (Q, L)), rng.normal(-1.0, 1.0, L))))
        cif, surv, fallback = predict_cif_grid(model, X)
        records, record_cif, record_surv = joined_explanations(model, X)
        assert fallback[-1]
        for i in np.flatnonzero(fallback):
            assert_pooled_curves(model, cif[:, i], surv[i])
            assert_pooled_curves(model, record_cif[:, i], record_surv[i])
            assert records[i].used_fallback
            assert records[i].exemplar_ids.size == records[i].weights.size == 0


class TestOneAalenJohansenRule:
    """Every entry point applies the same hazard and survival rule, so curves
    from weighted tables are valid and each per-row entry point is the
    one-row view of the batch path."""

    @ONE_RULE
    @given(case=weighted_cluster_models())
    def test_curves_are_valid(self, case):
        model, X = case
        cif, surv, _ = predict_cif_grid(model, X)
        assert_valid_curves(surv, cif)
        for x in X:
            assert_valid_curves(*curve_values(predict_curves(model, x)))
            d_w, n_w, _ = weighted_summaries(model, x)
            assert_valid_curves(*curve_values(
                curves_from_counts(d_w, n_w, model.grid, allow_zero_risk=True)))

    @ONE_RULE
    @given(case=weighted_cluster_models())
    def test_per_row_entry_points_are_batch_views(self, case):
        model, X = case
        records, *curves = joined_explanations(model, X)
        assert_same_values(records, [explain_subject(model, x) for x in X])
        for got, want in zip(curves, predict_cif_grid(model, X)):
            assert_array_equal(got, want)
        for x in X:
            cif, surv, fallback = predict_cif_grid(model, x[None])
            single = predict_curves(model, x)
            assert_array_equal(single.survival.values, surv[0])
            for d in range(1, model.m + 1):
                assert_array_equal(single.cif(d).values, cif[d - 1, 0])
            info = explain_subject(model, x)
            assert info.used_fallback == fallback[0]
            assert_array_equal(info.event_probabilities,
                               model_module._event_probabilities(cif)[0])
            assert info.conditional_medians == model_module._conditional_medians(
                cif, model.grid.times)[0]
            # a fallback row's tables are the pooled ones it is predicted from
            d_w, n_w, hits = weighted_summaries(model, x)
            assert (hits.size == 0) == fallback[0]
            from_tables = curves_from_counts(d_w, n_w, model.grid, allow_zero_risk=True)
            assert_array_equal(from_tables.survival.values, surv[0])
            for d in range(1, model.m + 1):
                assert_array_equal(from_tables.cif(d).values, cif[d - 1, 0])
            # a fallback row's decomposition is its record's two empty arrays
            ids, weights = cluster_weight_decomposition(model, x)
            assert_array_equal(ids, info.exemplar_ids)
            assert_array_equal(weights, info.weights)
            assert (ids.size == weights.size == 0) == fallback[0]


class TestWeightDecomposition:
    def setup_model(self, tau=np.inf):
        rng = np.random.default_rng(8)
        cohort = random_cohort(rng)
        params = random_params(rng, cohort.p, seed=4)
        return build_model(cohort, params, epsilon=0.8, tau=tau), cohort, rng

    def test_weights_sum_to_one(self):
        model, cohort, rng = self.setup_model()
        ids, w = cluster_weight_decomposition(model, rng.normal(size=cohort.p))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert (w > 0).all()

    def test_single_exemplar_weight_one(self):
        rng = np.random.default_rng(9)
        cohort = random_cohort(rng)
        model = build_model(cohort, constant_params(cohort.p), epsilon=0.0,
                            tau=np.inf)
        ids, w = cluster_weight_decomposition(model, rng.normal(size=cohort.p))
        assert_allclose(w, [1.0])

    def test_known_ratios(self):
        # the query sits at the origin and the exemplars at squared distances
        # -log 0.3 and -log 0.1: kernels 0.3 and 0.1 normalize to 0.75 / 0.25
        model = identity_model(np.ones((2, 1, 1)), np.full((2, 1), 2.0), np.array(
            [[np.sqrt(-np.log(0.3)), 0.0], [0.0, np.sqrt(-np.log(0.1))]]), tau=np.inf)
        ids, w = cluster_weight_decomposition(model, np.zeros(2))
        assert_array_equal(ids, [0, 1])
        assert_allclose(w, [0.75, 0.25], rtol=1e-14)

    def test_empty_neighborhood_returns_empty_arrays(self):
        model, cohort, rng = self.setup_model(tau=1e-9)
        x = rng.normal(size=cohort.p) * 40
        ids, w = cluster_weight_decomposition(model, x)
        assert ids.size == w.size == 0
        assert explain_subject(model, x).used_fallback


class TestInterpretationQuantities:
    """Earliest-event probabilities and conditional medians, read by
    :func:`explain_rows` from CIF values (m, n, L) through the batch
    helpers."""

    def cif_with_mass(self, *cifs):
        return np.asarray(cifs, dtype=np.float64)[:, None, :]

    def test_event_probability_renormalizes(self):
        # reported pair of horizon CIFs 0.0611 / 0.0808 renormalizes to about
        # 43.04% / 56.96%
        probs = model_module._event_probabilities(
            self.cif_with_mass([0.03, 0.0611], [0.05, 0.0808]))[0]
        assert probs[0] == pytest.approx(0.4304, abs=5e-4)
        assert probs[1] == pytest.approx(0.5696, abs=5e-4)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_event_type_probability_one(self):
        assert_allclose(model_module._event_probabilities(self.cif_with_mass([0.4])), [[1.0]])

    def test_equal_masses_uniform(self):
        assert_allclose(model_module._event_probabilities(
            self.cif_with_mass([0.1, 0.25], [0.2, 0.25])), [[0.5, 0.5]])

    def test_no_risk_row_is_none(self):
        cif = np.concatenate([self.cif_with_mass([0.1, 0.2], [0.0, 0.3]),
                              self.cif_with_mass([0.0, 0.0], [0.0, 0.0])], axis=1)
        probs = model_module._event_probabilities(cif)
        assert probs[1] is None
        assert_array_equal(probs[0], model_module._event_probabilities(cif[:, :1])[0])
        assert_allclose(probs[0], [0.4, 0.6])

    def median(self, cif, knots, delta):
        return model_module._conditional_medians(cif, np.asarray(knots))[0][delta - 1]

    def test_median_single_jump(self):
        assert self.median(self.cif_with_mass([0.0, 0.5], [0.0, 0.0]), (1.0, 5.0), 1) == 5.0

    def test_median_two_equal_jumps_crosses_at_first(self):
        # renormalized CIF reaches exactly 1/2 at the first jump
        assert self.median(self.cif_with_mass([0.25, 0.5], [0.0, 0.0]), (1.0, 3.0), 1) == 1.0

    def test_median_undefined_for_zero_mass(self):
        assert self.median(self.cif_with_mass([0.1, 0.2], [0.0, 0.0]), (1.0, 3.0), 2) is None

    def test_no_risk_in_a_later_block_named_by_global_index(self, monkeypatch):
        # the network is the identity and tau small, so a query at exemplar 1
        # weighs only its cluster, which has no events: zero CIFs at the
        # horizon, the Aalen-Johansen answer S = 1 and F = 0, not an error
        model = identity_model(
            np.array([[[1.0], [1.0]], [[0.0], [0.0]]]), np.array([[3.0, 1.0], [2.0, 1.0]]),
            np.array([[0.0, 0.0], [9.0, 0.0]]), tau=1.0)
        X = np.zeros((12, 2))
        X[9] = [9.0, 0.0]
        monkeypatch.setattr(model_module, "PREDICT_BLOCK_ROWS", 4)
        assert [len(block[0]) for block in explain_rows(model, X)] == [4, 4, 4]
        records, cif, surv = joined_explanations(model, X)
        assert [i for i, r in enumerate(records) if r.event_probabilities is None] == [9]
        assert records[9].conditional_medians == (None,)
        assert_array_equal(records[9].exemplar_ids, [1])
        assert_array_equal(records[9].weights, [1.0])
        assert not records[9].used_fallback
        assert_array_equal(surv[9], 1.0)
        assert_array_equal(cif[:, 9], 0.0)
        assert_same_values([explain_subject(model, X[9])], records[9:10])

    def test_explain_subject_record(self):
        rng = np.random.default_rng(10)
        cohort = random_cohort(rng)
        params = random_params(rng, cohort.p, seed=6)
        model = build_model(cohort, params, epsilon=0.8, tau=np.inf)
        info = explain_subject(model, cohort.features[0])
        assert info.weights.sum() == pytest.approx(1.0)
        assert info.event_probabilities.sum() == pytest.approx(1.0)
        assert len(info.conditional_medians) == 2
        assert not info.used_fallback

    def test_exemplar_kernel_matrix_symmetric(self):
        rng = np.random.default_rng(11)
        cohort = random_cohort(rng)
        params = random_params(rng, cohort.p, seed=7)
        model = build_model(cohort, params, epsilon=0.5, tau=2.0)
        K = exemplar_kernel_matrix(model)
        assert_allclose(K, K.T)
        assert_allclose(np.diag(K), 1.0)

    @given(E=st.integers(1, 12).flatmap(lambda q: arrays(
        np.float64, (q, 3),
        elements=st.floats(-30, 30) | st.sampled_from([0.0, -0.0, 1e-160]))))
    def test_exemplar_kernel_matrix_is_exp_of_minus_distances(self, E):
        # exp(min(N, 0)) of the GEMM product N is exp(-max(-N, 0)) to the bit
        model = SimpleNamespace(clusters=SimpleNamespace(exemplar_embeddings=E))
        assert_array_equal(exemplar_kernel_matrix(model), np.exp(-pairwise_sq_dists(E)))


class TestNonFiniteFeatures:
    """Rows whose features are not finite, or too large to embed, are
    rejected by name instead of falling back to the population curve. The
    network is ReLU, so a 1e300 feature overflows the embedding."""

    def setup_method(self):
        rng = np.random.default_rng(12)
        self.cohort = random_cohort(rng)
        params = init_mlp(EmbeddingConfig(input_dim=self.cohort.p, num_layers=2,
                                          hidden_units=6, embed_dim=2, init_seed=3))
        self.model = build_model(self.cohort, params, epsilon=0.5, tau=2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
    def test_predict_cif_grid_names_first_bad_row(self, bad):
        X = self.cohort.features[:5].copy()
        X[3, 1] = bad
        X[4, 0] = bad
        with pytest.raises(ValueError, match="row 3"):
            predict_cif_grid(self.model, X)

    def test_bad_row_in_a_later_block_named_by_global_index(self, monkeypatch):
        monkeypatch.setattr(model_module, "PREDICT_BLOCK_ROWS", 4)
        X = self.cohort.features[:12].copy()
        X[9, 0] = np.nan
        with pytest.raises(ValueError, match="row 9:"):
            predict_cif_grid(self.model, X)
        with pytest.raises(ValueError, match="row 9:"):
            next(explain_rows(self.model, X))

    @pytest.mark.parametrize("fn", [weighted_summaries, predict_curves,
                                    cluster_weight_decomposition, explain_subject])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e300])
    def test_single_row_entry_points(self, fn, bad):
        x = self.cohort.features[0].copy()
        x[2] = bad
        with pytest.raises(ValueError, match="row 0"):
            fn(self.model, x)
