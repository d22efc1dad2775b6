"""Tests for kernel-weighted prediction: special-case equivalences against
the population estimator, conservation, and interpretation quantities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from kernelaj import (
    Cohort,
    EmbeddingConfig,
    EmptyNeighborhood,
    KernelAJModel,
    NoRisk,
    aalen_johansen,
    breslow_preprocess,
    build_cluster_model,
    build_event_grid,
    cluster_weight_decomposition,
    conditional_median,
    curves_from_counts,
    discretize_times,
    event_probability,
    explain_subject,
    init_mlp,
    kaplan_meier,
    predict_cif_grid,
    predict_curves,
    risk_event_counts,
    weighted_summaries,
)
from kernelaj.clustering import ClusterModel
from kernelaj.core import EventTimeGrid
from kernelaj.embedding import MlpParams, embed_batch
from kernelaj.model import cluster_curves, exemplar_kernel_matrix
from kernelaj.training import DiscreteTimeMap


def random_cohort(rng, n=25, p=3, m=2):
    X = rng.normal(size=(n, p))
    times = rng.uniform(0.2, 8.0, size=n)
    events = rng.integers(0, m + 1, size=n)
    events[:2] = [1, m]
    return Cohort(X, times, events, m)


def build_model(cohort, params, epsilon, tau, num_time_steps=0):
    grid = build_event_grid(cohort)
    dtm = discretize_times(grid, num_time_steps)
    pre, _ = dtm.apply(cohort)
    E = embed_batch(params, pre.features)
    clusters = build_cluster_model(E, pre, dtm.grid, epsilon, tau)
    pop_d, pop_n = risk_event_counts(pre, dtm.grid)
    return KernelAJModel(
        params=params,
        clusters=clusters,
        dtm=dtm,
        population_d=pop_d,
        population_n=pop_n,
        d_tables=clusters.d_cluster.copy(),
        n_tables=clusters.n_cluster.copy(),
    )


def random_params(rng, p, seed):
    cfg = EmbeddingConfig(input_dim=p, num_layers=1, hidden_units=6,
                          embed_dim=2, activation="tanh", init_seed=seed)
    return init_mlp(cfg)


def constant_params(p, d=2):
    """Network mapping every input to the zero embedding."""
    return MlpParams((p, d), (np.zeros((d, p)),), (np.zeros(d),))


class TestSpecialCases:
    def test_epsilon_infinity_equals_population(self):
        # single cluster holding everyone: kernel weight cancels in the
        # ratios, so every query reproduces the population estimate
        rng = np.random.default_rng(0)
        cohort = random_cohort(rng)
        params = random_params(rng, cohort.p, seed=0)
        model = build_model(cohort, params, epsilon=np.inf, tau=np.inf)
        assert model.clusters.num_clusters == 1
        pop = model.population_curves()
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
        pop = model.population_curves()
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

    def test_fallback_to_population_when_no_neighbors(self):
        rng = np.random.default_rng(3)
        cohort = random_cohort(rng)
        params = random_params(rng, cohort.p, seed=1)
        model = build_model(cohort, params, epsilon=0.5, tau=1e-6)
        x = rng.normal(size=cohort.p) * 50.0
        d_w, n_w, hits = weighted_summaries(model, x)
        if hits.size == 0:
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

    def test_hand_weighted_summary_sums(self):
        # query embeds at the origin; exemplars sit at squared distances
        # log 2 and log 4, so kernel weights are exactly 0.5 and 0.25
        from kernelaj.clustering import ClusterModel
        from kernelaj.training import DiscreteTimeMap
        from kernelaj.core import EventTimeGrid

        d1 = np.array([[2.0, 0.0], [1.0, 1.0]])
        d2 = np.array([[0.0, 3.0], [2.0, 0.0]])
        n1 = np.array([5.0, 2.0])
        n2 = np.array([6.0, 3.0])
        clusters = ClusterModel(
            exemplar_ids=np.array([0, 1]),
            exemplar_embeddings=np.array([[np.sqrt(np.log(2.0)), 0.0],
                                          [np.sqrt(np.log(4.0)), 0.0]]),
            assignments=np.array([0, 1]),
            d_cluster=np.stack([d1, d2]),
            n_cluster=np.stack([n1, n2]),
            epsilon=1.0, tau=10.0)
        model = KernelAJModel(
            params=constant_params(3),
            clusters=clusters,
            dtm=DiscreteTimeMap(EventTimeGrid([1.0, 2.0]), 2),
            population_d=d1 + d2,
            population_n=n1 + n2,
            d_tables=np.stack([d1, d2]),
            n_tables=np.stack([n1, n2]))
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
    tau = draw(st.sampled_from([0.8, 2.0, np.inf]))
    clusters = ClusterModel(exemplar_ids=np.arange(Q), exemplar_embeddings=centers,
                            assignments=np.arange(Q), d_cluster=d, n_cluster=n,
                            epsilon=0.5, tau=tau)
    model = KernelAJModel(
        params=MlpParams((2, 2), (np.eye(2),), (np.zeros(2),)),
        clusters=clusters,
        dtm=DiscreteTimeMap(EventTimeGrid(np.arange(1.0, L + 1.0)), L),
        population_d=d.sum(axis=0), population_n=n.sum(axis=0),
        d_tables=d, n_tables=n)
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


ONE_RULE = settings(derandomize=True, deadline=None, max_examples=60)


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
        for x in X:
            cif, surv, fallback = predict_cif_grid(model, x[None])
            single = predict_curves(model, x)
            assert_array_equal(single.survival.values, surv[0])
            for d in range(1, model.m + 1):
                assert_array_equal(single.cif(d).values, cif[d - 1, 0])
            info = explain_subject(model, x)
            assert info.used_fallback == fallback[0]
            assert_array_equal(info.event_probabilities, event_probability(single))
            assert info.conditional_medians == tuple(
                conditional_median(single, d) for d in range(1, model.m + 1))
            if fallback[0]:
                with pytest.raises(EmptyNeighborhood):
                    cluster_weight_decomposition(model, x)
                continue
            ids, weights = cluster_weight_decomposition(model, x)
            assert_array_equal(ids, info.exemplar_ids)
            assert_array_equal(weights, info.weights)
            d_w, n_w, _ = weighted_summaries(model, x)
            from_tables = curves_from_counts(d_w, n_w, model.grid, allow_zero_risk=True)
            assert_array_equal(from_tables.survival.values, surv[0])
            for d in range(1, model.m + 1):
                assert_array_equal(from_tables.cif(d).values, cif[d - 1, 0])


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
        # kernels 0.3 and 0.1 normalize to 0.75 / 0.25
        w = np.array([0.3, 0.1])
        assert_allclose(w / w.sum(), [0.75, 0.25])

    def test_empty_neighborhood_raises(self):
        model, cohort, rng = self.setup_model(tau=1e-9)
        with pytest.raises(EmptyNeighborhood):
            cluster_weight_decomposition(model, rng.normal(size=cohort.p) * 40)


class TestInterpretationQuantities:
    def curves_with_mass(self, f1, f2, knots=(1.0, 3.0)):
        from kernelaj.core import CifSet, StepCurve

        knots = np.asarray(knots)
        surv = 1.0 - (np.asarray(f1) + np.asarray(f2))
        return CifSet(StepCurve(knots, surv, 1.0),
                      (StepCurve(knots, np.asarray(f1), 0.0),
                       StepCurve(knots, np.asarray(f2), 0.0)))

    def test_event_probability_renormalizes(self):
        # reported pair of horizon CIFs 0.0611 / 0.0808 renormalizes to about
        # 43.04% / 56.96%
        cifs = self.curves_with_mass([0.03, 0.0611], [0.05, 0.0808])
        probs = event_probability(cifs)
        assert probs[0] == pytest.approx(0.4304, abs=5e-4)
        assert probs[1] == pytest.approx(0.5696, abs=5e-4)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_event_type_probability_one(self):
        from kernelaj.core import CifSet, StepCurve

        knots = np.array([2.0])
        cifs = CifSet(StepCurve(knots, np.array([0.6]), 1.0),
                      (StepCurve(knots, np.array([0.4]), 0.0),))
        assert_allclose(event_probability(cifs), [1.0])

    def test_equal_masses_uniform(self):
        cifs = self.curves_with_mass([0.1, 0.25], [0.2, 0.25])
        assert_allclose(event_probability(cifs), [0.5, 0.5])

    def test_no_risk_raises(self):
        cifs = self.curves_with_mass([0.0, 0.0], [0.0, 0.0])
        with pytest.raises(NoRisk):
            event_probability(cifs)

    def test_median_single_jump(self):
        cifs = self.curves_with_mass([0.0, 0.5], [0.0, 0.0], knots=(1.0, 5.0))
        assert conditional_median(cifs, 1) == 5.0

    def test_median_two_equal_jumps_crosses_at_first(self):
        # renormalized CIF reaches exactly 1/2 at the first jump
        cifs = self.curves_with_mass([0.25, 0.5], [0.0, 0.0], knots=(1.0, 3.0))
        assert conditional_median(cifs, 1) == 1.0

    def test_median_undefined_for_zero_mass(self):
        cifs = self.curves_with_mass([0.1, 0.2], [0.0, 0.0])
        assert conditional_median(cifs, 2) is None

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

    @pytest.mark.parametrize("fn", [weighted_summaries, predict_curves,
                                    cluster_weight_decomposition, explain_subject])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e300])
    def test_single_row_entry_points(self, fn, bad):
        x = self.cohort.features[0].copy()
        x[2] = bad
        with pytest.raises(ValueError, match="row 0"):
            fn(self.model, x)
