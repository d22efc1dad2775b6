"""Tests for the greedy exemplar pass and cluster summary tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import dense_oracle as oracle
from kernelaj import (
    ClusterModel,
    Cohort,
    EmbeddingConfig,
    TrainConfig,
    breslow_preprocess,
    build_cluster_model,
    build_event_grid,
    epsilon_net_cluster,
    neighbors_within_tau,
    summarize_clusters,
    tau_from_min_kernel_weight,
)
from kernelaj import clustering
from kernelaj.clustering import cluster_positions, exemplar_weights
from kernelaj.cli import fit_pipeline
from kernelaj.core import label_codes
from kernelaj.errors import ShapeMismatch
from conftest import clusters_from_tables, traced_peak


def toy_cohort():
    return Cohort(np.zeros((3, 1)), [1.0, 2.0, 3.0], [1, 0, 2], m=2)


class TestEpsilonNet:
    def test_traced_example(self):
        # 1-D points 0.0, 0.5, 2.0 with eps=1: point 1 joins the first
        # exemplar, point 2 starts a new cluster
        E = np.array([[0.0], [0.5], [2.0]])
        exemplars, assignments = epsilon_net_cluster(E, epsilon=1.0)
        assert list(exemplars) == [0, 2]
        assert list(assignments) == [0, 0, 2]

    def test_epsilon_zero_all_singletons(self):
        E = np.arange(5.0)[:, None]
        exemplars, assignments = epsilon_net_cluster(E, epsilon=0.0)
        assert list(exemplars) == [0, 1, 2, 3, 4]
        assert list(assignments) == [0, 1, 2, 3, 4]

    def test_epsilon_infinity_single_cluster(self):
        E = np.random.default_rng(0).normal(size=(20, 3))
        exemplars, assignments = epsilon_net_cluster(E, epsilon=np.inf)
        assert list(exemplars) == [0]
        assert (assignments == 0).all()

    def test_exemplars_pairwise_separated(self):
        rng = np.random.default_rng(1)
        E = rng.normal(size=(200, 2))
        eps = 0.8
        exemplars, assignments = epsilon_net_cluster(E, epsilon=eps)
        ex = E[exemplars]
        for a in range(len(exemplars)):
            for b in range(a + 1, len(exemplars)):
                assert np.linalg.norm(ex[a] - ex[b]) > eps
        # every point within eps of its exemplar
        for i, q in enumerate(assignments):
            assert np.linalg.norm(E[i] - E[q]) <= eps

    def test_tie_breaks_to_lowest_index(self):
        # point 2 is equidistant from both exemplars
        E = np.array([[0.0], [2.0], [1.0]])
        exemplars, assignments = epsilon_net_cluster(E, epsilon=1.0)
        assert list(exemplars) == [0, 1]
        assert assignments[2] == 0

    def test_nan_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon must not be NaN"):
            epsilon_net_cluster(np.random.default_rng(0).normal(size=(50, 2)), np.nan)

    @pytest.mark.parametrize("setting", ["tau"])
    def test_cluster_model_rejects_nan(self, setting):
        d, n = np.zeros((1, 2, 1)), np.ones((1, 2))
        with pytest.raises(ValueError, match=f"{setting} must not be NaN"):
            clusters_from_tables(d, n, np.zeros((1, 2)), **{setting: float("nan")})
        assert getattr(clusters_from_tables(d, n, np.zeros((1, 2)), **{setting: np.inf}),
                       setting) == np.inf

    @pytest.mark.parametrize("array, cell, value", [
        ("emb", (0, 1), np.nan), ("emb", (0, 0), np.inf), ("codes", 0, -1),
        ("codes", 1, 6), ("codes", 2, 1), ("asg", 1, -1),
        ("ids", 0, -1), ("ids", 0, 2), ("ids", 1, 3), ("ids", 0, 1)])
    def test_cluster_model_rejects_bad_arrays(self, array, cell, value):
        # Tables of 2 bins and 1 event type have codes 0..5, and code 1 is an
        # event in bin 0: core.check_labels names the row of each bad code.
        # Points 1 and 2 join the second exemplar, so assignment -1 would
        # read the last exemplar, ids -1 and 2 name one row (it used to give
        # sizes [0, 3]), 2 and 2 repeat, 3 is past the rows, and 1 and 2
        # leave exemplar 1 assigned to exemplar 2.
        arrays = {"ids": np.array([0, 2]), "emb": np.zeros((2, 2)),
                  "codes": np.array([0, 3, 4]), "asg": np.array([0, 2, 2])}

        def build():
            asg = arrays["ids"][[0, 1, 1]] if array == "ids" else arrays["asg"]
            return ClusterModel(arrays["ids"], arrays["emb"], asg, arrays["codes"], (2, 1),
                                tau=1.0)

        assert build().cluster_sizes().tolist() == [1, 2]
        arrays[array][cell] = value
        message = {"ids": "exemplar ids must be distinct", "emb": "must be finite",
                   "codes": rf"^row {cell}: ",
                   "asg": "every assignment must reference an exemplar"}[array]
        with pytest.raises(ValueError, match=message):
            build()
        if array == "asg":      # the position map alone rejects it, too
            with pytest.raises(ValueError, match=message):
                cluster_positions(arrays["ids"], arrays["asg"])

    def test_cluster_model_rejects_codes_of_other_rows(self):
        with pytest.raises(ShapeMismatch, match="one code per assigned training row"):
            ClusterModel([0], np.zeros((1, 2)), [0, 0], [0], (2, 1), tau=1.0)


@st.composite
def embeddings(draw):
    """(E, epsilon, block): up to 600 rows of up to 8 dimensions, so a case
    crosses several blocks of the pass; Gaussian points, lattice points with
    repeated rows and equidistant exemplars, or a lattice spaced exactly
    epsilon apart. Some cases are offset by 1e3 to 1e6, where the product
    form of the distances cancels; a lattice jittered by 1e-7 is always
    offset by 1e6, so that form cannot order its near-ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(1, 600)), draw(st.integers(1, 8))
    epsilon = draw(st.sampled_from([0.0, 0.5, 1.0, 2.5, np.inf]))
    kind = draw(st.sampled_from(["gaussian", "lattice", "epsilon lattice", "jittered"]))
    if kind == "gaussian":
        E = rng.normal(size=(n, d))
    else:
        spacing = epsilon if kind == "epsilon lattice" and 0 < epsilon < np.inf else 0.5
        E = rng.integers(-3, 4, size=(n, d)) * spacing
        if kind == "jittered":
            E += rng.normal(scale=1e-7, size=(n, d))
    offset = 1e6 if kind == "jittered" else draw(st.sampled_from([0.0, 0.0, 1e3, 1e6]))
    block = draw(st.sampled_from([1, 7, 64, clustering.EPSNET_BLOCK_ROWS]))
    return E + offset, epsilon, block


class TestEpsilonNetOracle:
    @settings(max_examples=80)
    @given(case=embeddings())
    def test_equals_the_list_pass(self, case):
        E, epsilon, block = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering, "EPSNET_BLOCK_ROWS", block)
            ids, assignments = epsilon_net_cluster(E, epsilon)
        want_ids, want_assignments = oracle.epsilon_net_cluster(E, epsilon)
        assert ids.dtype == want_ids.dtype and assignments.dtype == want_assignments.dtype
        assert_array_equal(ids, want_ids)
        assert_array_equal(assignments, want_assignments)
        # exemplars more than epsilon apart, every point within epsilon of its own
        gaps = np.linalg.norm(E[ids][:, None] - E[ids][None], axis=2)
        assert (gaps[~np.eye(ids.size, dtype=bool)] > epsilon).all()
        assert (np.linalg.norm(E - E[assignments], axis=1) <= epsilon).all()

    @pytest.mark.parametrize("points, ids, assignments", [
        # row 2 opens block 1 as an exemplar, and row 3 joins it
        ([0.0, 0.1, 5.0, 5.1], [0, 2], [0, 0, 2, 2]),
        # exemplar 1 covers row 3 (0.8 away), but row 2, made in its block
        # before it, is nearer (0.3 away)
        ([0.0, 3.0, 1.9, 2.2], [0, 1, 2], [0, 1, 2, 2]),
        # row 3 is 0.75 from exemplar 1 and from row 2, made in its block:
        # the lower id wins
        ([0.0, 3.0, 1.5, 2.25], [0, 1, 2], [0, 1, 2, 1]),
    ])
    def test_block_edges(self, points, ids, assignments):
        E = np.array(points)[:, None]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering, "EPSNET_BLOCK_ROWS", 2)
            got = epsilon_net_cluster(E, 1.0)
        for result in (got, oracle.epsilon_net_cluster(E, 1.0)):
            assert result[0].tolist() == ids and result[1].tolist() == assignments


class TestSummaries:
    def test_single_cluster_equals_population(self):
        cohort = toy_cohort()
        grid = build_event_grid(cohort)
        pre, _ = breslow_preprocess(cohort, grid)
        assignments = np.zeros(3, dtype=np.int64)
        d_c, n_c = summarize_clusters(pre, grid, assignments, np.array([0]))
        d, n = oracle.risk_event_counts(pre, grid)
        assert_allclose(d_c[0], d)
        assert_allclose(n_c[0], n)

    def test_singleton_clusters_are_one_hot(self):
        cohort = toy_cohort()
        grid = build_event_grid(cohort)
        pre, _ = breslow_preprocess(cohort, grid)
        exemplars = np.array([0, 1, 2])
        d_c, n_c = summarize_clusters(pre, grid, np.arange(3), exemplars)
        # subject 0: event 1 at t=1 while at risk at bin 1 only
        assert_allclose(d_c[0], [[1, 0], [0, 0]])
        assert_allclose(n_c[0], [1, 0])
        # subject 1: censored, snapped to t=1
        assert_allclose(d_c[1], [[0, 0], [0, 0]])
        assert_allclose(n_c[1], [1, 0])
        # subject 2: event 2 at t=3, at risk through both bins
        assert_allclose(d_c[2], [[0, 0], [0, 1]])
        assert_allclose(n_c[2], [1, 1])

    def test_partition_identity(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        times = rng.uniform(0.5, 6.0, size=40)
        events = rng.integers(0, 3, size=40)
        events[:3] = [1, 2, 1]
        cohort = Cohort(X, times, events, m=2)
        grid = build_event_grid(cohort)
        pre, _ = breslow_preprocess(cohort, grid)
        E = rng.normal(size=(40, 2))
        exemplars, assignments = epsilon_net_cluster(E, epsilon=1.0)
        d_c, n_c = summarize_clusters(pre, grid, assignments, exemplars)
        d, n = oracle.risk_event_counts(pre, grid)
        assert_allclose(d_c.sum(axis=0), d)
        assert_allclose(n_c.sum(axis=0), n)



@st.composite
def clustered_cohorts(draw):
    """(preprocessed cohort, grid, assignments, exemplar_ids): exemplar ids
    in shuffled creation order, each exemplar assigned to itself, tied and
    censored times, and clusters with no event or no one at risk late."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 60)), draw(st.integers(1, 3))
    times = rng.integers(1, 9, n) * 0.5
    events = rng.integers(0, m + 1, n)
    events[0] = 1
    cohort = Cohort(np.zeros((n, 1)), times, events, m)
    grid = build_event_grid(cohort)
    pre, _ = breslow_preprocess(cohort, grid)
    exemplar_ids = rng.permutation(n)[:draw(st.integers(1, n))]
    assignments = exemplar_ids[rng.integers(0, exemplar_ids.size, n)]
    assignments[exemplar_ids] = exemplar_ids
    return pre, grid, assignments, exemplar_ids


class TestBookkeeping:
    """One counting pass per table against the per-cluster loops."""

    @settings(max_examples=60)
    @given(case=clustered_cohorts())
    def test_summaries_and_sizes_equal_the_loops(self, case):
        pre, grid, assignments, exemplar_ids = case
        d_c, n_c = summarize_clusters(pre, grid, assignments, exemplar_ids)
        want_d, want_n = oracle.summarize_clusters(pre, grid, assignments, exemplar_ids)
        assert_array_equal(d_c, want_d)
        assert_array_equal(n_c, want_n)
        model = ClusterModel(exemplar_ids, np.zeros((exemplar_ids.size, 1)), assignments,
                             label_codes(pre, grid), (len(grid), pre.m), tau=1.0)
        assert_array_equal(model.d_cluster, want_d)
        assert_array_equal(model.n_cluster, want_n)
        assert_array_equal(model.cluster_sizes(),
                           oracle.cluster_sizes(exemplar_ids, assignments))

    @pytest.mark.parametrize("p", [1, 3])
    def test_feature_means_keep_their_bits(self, p):
        # with one feature, .mean(axis=0) sums a contiguous column pairwise,
        # so a row-by-row accumulation would differ in the last bits
        rng = np.random.default_rng(p)
        n = 600
        X = rng.normal(size=(n, p))
        cohort = Cohort(X, rng.uniform(0.5, 5.0, n), rng.integers(0, 3, n), m=2)
        train, valid = cohort.subset(np.arange(500)), cohort.subset(np.arange(500, n))
        ecfg = EmbeddingConfig(input_dim=p, num_layers=1, hidden_units=4, embed_dim=2)
        tcfg = TrainConfig(batch_size=128, max_epochs=1, patience=1, num_time_steps=8)
        model, _ = fit_pipeline(train, valid, ecfg, tcfg, epsilon=0.3)
        assert (model.clusters.cluster_sizes() > 8).any()
        assert_array_equal(model.cluster_feature_means, oracle.cluster_feature_means(
            X[:500], model.clusters.exemplar_ids, model.clusters.assignments))


class TestNeighbors:
    def test_tau_from_min_weight(self):
        # sqrt(-log 0.01) ~= 2.14597
        assert tau_from_min_kernel_weight(0.01) == pytest.approx(2.1459660262893476)

    @pytest.mark.parametrize("weight", [0.0, 1.0, 1.5, -0.1])
    def test_tau_from_min_weight_outside_open_interval_rejected(self, weight):
        # a weight of 1 would give tau = -0.0, which no kernel weight passes
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            tau_from_min_kernel_weight(weight)

    def build(self, tau):
        cohort = toy_cohort()
        grid = build_event_grid(cohort)
        pre, _ = breslow_preprocess(cohort, grid)
        E = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        return build_cluster_model(E, label_codes(pre, grid), (len(grid), pre.m),
                                   epsilon=0.5, tau=tau)

    def test_tau_infinite_returns_all(self):
        model = self.build(np.inf)
        hits = neighbors_within_tau(np.array([100.0, 100.0]), model)
        assert list(hits) == [0, 1, 2]

    def test_query_on_exemplar_with_small_tau(self):
        model = self.build(0.5)
        hits = neighbors_within_tau(np.array([5.0, 0.0]), model)
        assert list(hits) == [1]

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_neighbors_are_the_weighted_exemplars(self, seed):
        # tau from a minimum weight of 0.01: no weight within tau underflows
        rng = np.random.default_rng(seed)
        cohort = Cohort(np.zeros((30, 1)), rng.uniform(0.5, 5.0, 30), rng.integers(0, 3, 30), 2)
        grid = build_event_grid(cohort)
        pre, _ = breslow_preprocess(cohort, grid)
        model = build_cluster_model(rng.normal(size=(30, 2)) * 2, label_codes(pre, grid),
                                    (len(grid), pre.m), epsilon=0.5,
                                    tau=tau_from_min_kernel_weight(0.01))
        for q in rng.normal(size=(10, 2)) * 3:
            weights = exemplar_weights(model, q[None, :])[0]
            assert_array_equal(neighbors_within_tau(q, model), np.flatnonzero(weights))

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), tau=st.sampled_from([0.5, 1.5, np.inf]))
    def test_weights_match_where_expression(self, seed, tau):
        # bit-equal to the np.where form, far rows and overflowing distances included
        rng = np.random.default_rng(seed)
        clusters = clusters_from_tables(np.zeros((20, 2, 1)), np.ones((20, 2)),
                                        rng.normal(size=(20, 3)), tau=tau)
        E = rng.normal(size=(15, 3)) * 3
        E[:5] = clusters.exemplar_embeddings[:5] + rng.normal(scale=0.1, size=(5, 3))
        E[-2:] = [[1e300] * 3, [np.inf] * 3]        # inf and NaN distances
        with np.errstate(all="ignore"):
            got, want = exemplar_weights(clusters, E), oracle.exemplar_weights(clusters, E)
        assert got.tobytes() == want.tobytes()
        assert (got[-2:] == 0).all() and (got[:5] > 0).any()

    def test_weights_in_one_buffer(self):
        rng = np.random.default_rng(0)
        clusters = clusters_from_tables(np.zeros((2048, 1, 1)), np.ones((2048, 1)),
                                        rng.normal(size=(2048, 8)), tau=1.5)
        E = rng.normal(size=(1024, 8))
        W, peak = traced_peak(lambda: exemplar_weights(clusters, E))
        assert peak < 1.5 * W.nbytes

    def test_empty_neighborhood(self):
        model = self.build(0.5)
        hits = neighbors_within_tau(np.array([50.0, 50.0]), model)
        assert hits.size == 0
