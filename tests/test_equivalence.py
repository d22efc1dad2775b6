"""The segment-sum training step, the code groups' tables, blocked kernel
backward, validation hazards, per-bin ranking loss, blocked interpolation,
blocked concordance and blocked Brier score against the dense oracles in
``dense_oracle``, the one scorer against the per-event composition it
replaced, plus the memory bounds of the step, the code groups' tables, the
kernel backward, the concordance and the scorer.

Random cohorts come from hypothesis under the suite's derandomized profile
(``conftest.py``), so every run draws the same examples.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import dense_oracle as oracle
from conftest import relative_error, traced_peak
from kernelaj import (
    Cohort,
    EmbeddingConfig,
    EvalGrid,
    StepCurve,
    SynthConfig,
    breslow_preprocess,
    build_event_grid,
    discretize_times,
    generate_synthetic,
    init_mlp,
)
from kernelaj import core, metrics, training
from kernelaj.clustering import build_cluster_model
from kernelaj.core import BLOCK_ROWS, label_codes
from kernelaj.embedding import (
    embed_batch,
    flatten_grads,
    kernel_matrix,
    pairwise_sq_dists,
)
from kernelaj.errors import NoComparablePairs, ShapeMismatch
from kernelaj.model import KernelAJModel, predict_cif_grid
from kernelaj.metrics import (
    BRIER_BLOCK_HORIZONS,
    brier_score,
    brier_scores,
    censoring_survival,
    concordance_td,
    concordance_td_from_curves,
    evaluate_cif_predictions,
    integrated_brier,
    interpolate_curves,
    ipcw_weights,
    score_curves,
    scorer,
)
from kernelaj.training import (
    code_groups,
    kernel_hazard_curves,
    ranking_value_and_dpsi,
    total_loss_and_grad,
)

REPRODUCIBLE = settings(max_examples=40)


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
            # the default grid's 512-bin cap: first and last bins, kappa = 0
            (np.array([512, 1, 0, 300, 512, 511, 2, 0, 300]),
             np.array([1, 2, 0, 1, 0, 2, 1, 0, 2]), 2, 512),
        ]
        for kappa, delta, m, L in cases:
            assert_step_matches_oracle(X, kappa.astype(np.int64),
                                       delta.astype(np.int64), m, L, alpha, 11)


class TestStepBuffers:
    """The step given the per-fit buffers of ``train_embedding``."""

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @REPRODUCIBLE
    @given(batch=labelled_batches(), extra=st.integers(0, 5))
    def test_bit_equal_without_buffers(self, alpha, batch, extra):
        # extra > 0 is a short last batch in buffers sized for a full one;
        # NaN-filled buffers show that no stale element is read
        X, kappa, delta, m, L, seed = batch
        params = small_params(seed)
        side = X.shape[0] + extra
        buffer = np.full(side * side, np.nan)
        want_loss, want_dw, want_db = total_loss_and_grad(
            params, X, kappa, delta, m, L, alpha, 0.7)
        for _ in range(2):
            loss, dw, db = total_loss_and_grad(params, X, kappa, delta, m, L, alpha,
                                               0.7, buffer)
            assert loss == want_loss
            assert_array_equal(flatten_grads(dw, db), flatten_grads(want_dw, want_db))

    def test_small_buffers_rejected(self):
        X = np.random.default_rng(0).normal(size=(5, 3))
        with pytest.raises(ShapeMismatch):
            total_loss_and_grad(small_params(0), X, np.ones(5, np.int64),
                                np.ones(5, np.int64), 1, 2, 1.0, 1.0,
                                np.empty(5 * 5 - 1))

    def test_step_allocates_less_than_one_square(self, monkeypatch):
        # at alpha = 1 the step holds one block's kernel rows; with a B x B
        # buffer, the step and its buffer peaked at 12.75 MiB
        params, X, kappa, delta = step_batch(1024)
        rows = [train_embedding_buffer_rows(monkeypatch, alpha) for alpha in (1.0, 0.5)]
        assert rows == [BLOCK_ROWS, 1024]
        _, peak = traced_peak(lambda: total_loss_and_grad(
            params, X, kappa, delta, 2, 64, 1.0, 1.0, np.empty(BLOCK_ROWS * 1024)))
        assert peak <= 7 * 2**20


def step_batch(B, m=2, L=64):
    """(params, X, kappa, delta) of a B-row batch on m event types and L bins."""
    rng = np.random.default_rng(7)
    params = init_mlp(EmbeddingConfig(input_dim=8, num_layers=2, hidden_units=32,
                                      embed_dim=8))
    kappa = rng.integers(0, L + 1, B)
    return params, rng.normal(size=(B, 8)), kappa, np.where(kappa == 0, 0,
                                                              rng.integers(0, m + 1, B))


class _FirstStep(Exception):
    pass


def train_embedding_buffer_rows(monkeypatch, alpha):
    """The rows of the buffer that ``train_embedding`` hands its first step
    (batch 1024 of 1100 training rows), at ``alpha``."""
    rng = np.random.default_rng(2)
    cohorts = []
    for n in (1100, 200):
        times = rng.integers(1, 9, n).astype(float)
        cohorts.append(Cohort(rng.normal(size=(n, 3)), times, rng.integers(0, 3, n), 2))
    grid = discretize_times(build_event_grid(cohorts[0]), 8)
    train, valid = (breslow_preprocess(c, grid)[0] for c in cohorts)
    sizes = []

    def first_step(*args):
        sizes.append(args[-1].size)
        raise _FirstStep

    monkeypatch.setattr(training, "total_loss_and_grad", first_step)
    with pytest.raises(_FirstStep):
        training.train_embedding(train, valid, EmbeddingConfig(input_dim=3),
                                 training.TrainConfig(batch_size=1024, alpha=alpha), grid)
    return sizes[0] // 1024


def label_batch(rng, n, m, L):
    """(kappa, delta) of n rows: kappa in 0..L, an event only at kappa >= 1."""
    kappa = rng.integers(0, L + 1, n)
    return kappa, np.where(kappa == 0, 0, rng.integers(0, m + 1, n))


class TestCodeTables:
    """The code groups' one-row tables, built from their labels, against the
    counted tables of their codes (``dense_oracle.code_tables``)."""

    @pytest.mark.parametrize("L", [1, 6, 64, 512])
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_bit_equal_to_counted_tables(self, m, L):
        rng = np.random.default_rng(L * 10 + m)
        every = np.arange((L + 1) * (m + 1))
        every = rng.permutation(every[(every > m) | (every == 0)])   # no event at kappa 0
        batches = [
            label_batch(rng, 40, m, L),                             # kappa 0 censored rows
            (rng.integers(0, L + 1, 40), np.zeros(40, np.int64)),   # no event row
            (every // (m + 1), every % (m + 1)),                    # every code
        ]
        for kappa, delta in batches:
            groups = code_groups(kappa, delta, m, L)
            got = groups.tables(m, L)
            want = oracle.code_tables(groups.kappa, groups.delta, m, L)
            for a, b in zip(got, want, strict=True):
                assert a.dtype == np.float64 and a.flags.c_contiguous
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()
        assert groups.kappa.size == every.size

    def test_event_at_kappa_0_names_its_row(self):
        # unchecked, the groups' tables, and so kernel_hazard_curves, would
        # put such an event at bin index -1, the last bin
        kappa, delta = np.array([1, 0, 2, 0, 0]), np.array([1, 0, 1, 2, 1])
        with pytest.raises(ValueError, match=r"^row 3: "):
            code_groups(kappa, delta, 2, 3)

    def test_hold_only_what_they_return(self):
        # a cache of every code's tables, counted once per grid, held 72 MiB
        # at L 512 and m 5 and peaked at 156 MiB while it was built; the
        # first call, at another grid, would evict a cache of one entry
        m, L = 5, 512
        groups = code_groups(*label_batch(np.random.default_rng(3), 1024, m, L), m, L)
        code_groups(np.ones(2, np.int64), np.ones(2, np.int64), 1, 1).tables(1, 1)
        tracemalloc.start()
        try:
            d, n = groups.tables(m, L)
            size, peak = d.nbytes + n.nbytes, tracemalloc.get_traced_memory()[1]
            del d, n
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * size
        assert left < 64 * 1024


# Growth, in KiB, of the peak RSS (VmHWM) of one alpha < 1 step on a batch of
# 1024, in a fresh process whose one large array is the step's resident
# B x B buffer. Linux carries a parent's peak into ru_maxrss across exec, so
# a child of the test process reads its own pages' peak, VmHWM, instead.
_STEP_RSS_PROBE = """
import numpy as np
from kernelaj import EmbeddingConfig, init_mlp
from kernelaj.training import total_loss_and_grad

def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

B, m, L = 1024, 2, 8
rng = np.random.default_rng(0)
params = init_mlp(EmbeddingConfig(input_dim=4, num_layers=1, hidden_units=8, embed_dim=8))
X = rng.normal(size=(B, 4))
kappa = rng.integers(0, L + 1, B)
delta = np.where(kappa == 0, 0, rng.integers(0, m + 1, B))
buffer = np.full(B * B, np.nan)        # resident, as after a fit's first step
args = m, L, 0.5, 1.0, buffer
total_loss_and_grad(params, X[:64], kappa[:64], delta[:64], *args)    # BLAS threads started
before = peak_kib()
total_loss_and_grad(params, X, kappa, delta, *args)
print(peak_kib() - before)
"""


def _numpy_blas():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


class TestKernelBackward:
    """The step's kernel backward, the sums P Ea and Ea^T P that it adds a
    row block at a time, against the two GEMMs over the whole of P of the
    dense step, and against the same step in one whole-batch block."""

    @pytest.mark.parametrize("n", [2, 15, 16, 17, 255, 256, 257, 1024])
    def test_matches_two_gemm_oracle(self, n):
        params, X, kappa, delta = step_batch(n, L=6)
        for alpha in (0.5, 1.0):
            loss, dw, db = total_loss_and_grad(params, X, kappa, delta, 2, 6, alpha, 0.7)
            want_loss, want_dw, want_db = oracle.total_loss_and_grad(
                params, X, kappa, delta, 2, 6, alpha, 0.7)
            assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
            got = flatten_grads(dw, db)
            assert relative_error(got, flatten_grads(want_dw, want_db)) < 1e-12
            again = total_loss_and_grad(params, X, kappa, delta, 2, 6, alpha, 0.7)
            assert_array_equal(flatten_grads(*again[1:]), got)

    @pytest.mark.parametrize("n", [2, 255, 256, 257, 704, 1000, 1024])
    def test_row_blocks_do_not_change_bits(self, monkeypatch, n):
        # at alpha < 1 the step runs one block of the whole batch: with the
        # objective held at alpha = 1 it is the alpha = 1 step in one block,
        # whose Ea^T P must sum the same 256-row blocks
        params, X, kappa, delta = step_batch(n)
        loss, dw, db = total_loss_and_grad(params, X, kappa, delta, 2, 64, 1.0, 1.0)
        objective = training.objective_and_dpsi
        monkeypatch.setattr(training, "objective_and_dpsi",
                            lambda psi, k, d, alpha, sigma, n: objective(psi, k, d, 1.0, sigma, n))
        whole_loss, whole_dw, whole_db = total_loss_and_grad(params, X, kappa, delta, 2, 64,
                                                             0.5, 1.0)
        assert abs(loss - whole_loss) <= 1e-15
        assert_array_equal(flatten_grads(dw, db), flatten_grads(whole_dw, whole_db))

    @pytest.mark.skipif("openblas" not in _numpy_blas() or sys.platform != "linux",
                        reason="needs numpy on OpenBLAS, and Linux's /proc")
    def test_leaves_no_packing_buffers_that_grow_with_p(self):
        # at alpha < 1 the block is the batch: two GEMMs over all of P raised
        # the peak by 4.5-4.7 MB, mostly OpenBLAS packing buffers (OpenBLAS
        # 0.3.31, 2 threads), where the products of 16 and 256 rows of P
        # raised it by 1.3-1.4 MB
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", _STEP_RSS_PROBE], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        assert int(out.stdout) < 2 * 1024


class TestValidationHazards:
    @REPRODUCIBLE
    @given(batch=labelled_batches(), q=st.integers(1, 9))
    def test_matches_dense_tables(self, batch, q):
        X, kappa, delta, m, L, seed = batch
        rng = np.random.default_rng(seed)
        E_ref = rng.normal(size=(X.shape[0], 2))
        E_query = rng.normal(size=(q, 2))
        got = kernel_hazard_curves(E_query, E_ref, code_groups(kappa, delta, m, L), m, L)
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

    def test_two_set_kernel_matches_self_kernel(self):
        rng = np.random.default_rng(6)
        E1, E2 = rng.normal(size=(13, 5)), rng.normal(size=(29, 5))
        K = kernel_matrix(np.vstack((E1, E2)))
        assert_allclose(kernel_matrix(E1, E2), K[:13, 13:], rtol=1e-13, atol=1e-15)

    def test_two_set_kernel_rejects_other_widths(self):
        rng = np.random.default_rng(7)
        E1, E2 = rng.normal(size=(13, 5)), rng.normal(size=(29, 5))
        for fn in (kernel_matrix, pairwise_sq_dists):
            with pytest.raises(ShapeMismatch):
                fn(E1[:, :4], E2)


def _psi_batch(batch, high=0.3):
    _, kappa, delta, m, L, seed = batch
    psi = np.random.default_rng(seed).uniform(0, high, (m, kappa.size, L))
    return psi, kappa, delta


class TestObjectiveInRankingPlanes:
    """At alpha < 1 the objective sums the NLL's gradient into the ranking's
    planes, and the ranking runs its recursion in row blocks and its
    exponentials in F's planes: bit for bit the separate NLL and whole-batch
    ranking planes of :func:`oracle.separate_planes_objective`."""

    @staticmethod
    def batch(n, m=3, L=16):
        """psi (m, n, L) and labels with censored rows at kappa 0, no row of
        event type m, and one own hazard below ``PSI_CLAMP``, at row n - 1."""
        rng = np.random.default_rng(n)
        psi = rng.uniform(0, 0.3, (m, n, L))
        kappa = rng.integers(0, L + 1, n)
        delta = np.where(kappa == 0, 0, rng.integers(0, m, n))
        kappa[0], delta[0] = 0, 0
        kappa[-1], delta[-1] = 3, 1
        psi[0, n - 1, 2] = training.PSI_CLAMP / 2
        return psi, kappa, delta

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.99, 1.0])
    @pytest.mark.parametrize("n", [2, 63, 64, 65, 1024])
    def test_bit_equal_to_separate_planes(self, alpha, n):
        psi, kappa, delta = self.batch(n)
        loss, dpsi = training.objective_and_dpsi(psi, kappa, delta, alpha, 0.3, n)
        want_loss, want_dpsi = oracle.separate_planes_objective(psi, kappa, delta, alpha, 0.3)
        assert_array_equal(loss, want_loss)
        assert_array_equal(dpsi, want_dpsi)
        # a sum -0.0 + 0.0 is +0.0 in either order
        assert_array_equal(np.signbit(dpsi), np.signbit(want_dpsi))

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 1024])
    def test_ranking_bit_equal_to_whole_batch_recursion(self, n):
        psi, kappa, delta = self.batch(n)
        value, dpsi = ranking_value_and_dpsi(psi, kappa, delta, 0.3, scale=0.7)
        want_value, want_dpsi = oracle.whole_batch_ranking(psi, kappa, delta, 0.3, scale=0.7)
        assert value == want_value
        assert_array_equal(dpsi, want_dpsi)

    def test_peak_below_two_and_a_half_hazard_tensors(self):
        # above its inputs the objective holds F, S_prev, u and one row
        # block's recursion: 2.28 hazard tensors at m = 2, where separate NLL
        # and ranking planes over the whole-batch recursion held 5.02
        psi, kappa, delta = TestRankingForward.large_batch(n=1024)
        _, peak = traced_peak(lambda: training.objective_and_dpsi(psi, kappa, delta, 0.5, 0.5,
                                                                 kappa.size))
        assert peak < 2.5 * psi.nbytes


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
        got, _ = ranking_value_and_dpsi(psi, kappa, delta, sigma, scale=1.0)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0, 2.5])
    @REPRODUCIBLE
    @given(batch=labelled_batches(), floored=st.booleans())
    def test_dpsi_matches_dense_backward(self, sigma, batch, floored):
        # floored batches: hazards up to 0.9 per event, and one row whose
        # hazards sum to exactly 1 at its first bin, so some factors
        # 1 - sum(h) are 0 or floored at 0
        psi, kappa, delta = _psi_batch(batch, 0.9 if floored else 0.3)
        if floored:
            psi[:, 0, 0] = 1.0 / psi.shape[0]
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
        value, dpsi = ranking_value_and_dpsi(psi, kappa, delta, 0.3, scale=1.0)
        assert value == 0.0
        assert not dpsi.any()

    @staticmethod
    def large_batch(n=4096, m=2, L=64):
        rng = np.random.default_rng(8)
        psi = rng.uniform(0, 0.02, (m, n, L))
        kappa = rng.integers(0, L + 1, n)
        return psi, kappa, np.where(kappa == 0, 0, rng.integers(0, m + 1, n))

    def test_backward_peak_below_six_hazard_tensors(self):
        # the reverse pass carries two (m, n) and (n,) values instead of
        # (m, n, L) cumulative sums and cumulative-product arrays; six hazard
        # tensors are also well below one n x n float64 array, so no
        # pairwise buffer is formed either
        psi, kappa, delta = self.large_batch()
        n = kappa.size
        _, peak = traced_peak(lambda: ranking_value_and_dpsi(psi, kappa, delta, 0.5,
                                                             scale=0.5))
        assert peak < 6 * psi.nbytes < n * n * 8

    def test_backward_peak_below_four_hazard_tensors(self):
        # dF and the exponentials take F's array, and the recursion runs in
        # row blocks, so the peak is F, S_prev and u: 2.26 hazard tensors at m = 2
        psi, kappa, delta = self.large_batch(n=1024)
        _, peak = traced_peak(lambda: ranking_value_and_dpsi(psi, kappa, delta, 0.5,
                                                             scale=0.5))
        assert peak < 4 * psi.nbytes

    @staticmethod
    def criterion_problem(criterion, n_train, q, alpha):
        """The arguments of ``criterion``'s ``_evaluate_criterion`` on a
        synthetic cohort of n_train training and q validation rows, 64 bins,
        sigma 0.5 and epsilon = tau = 0.05, at which a few validation rows
        have no exemplar within tau; the training rows' bins; and the grid."""
        cohort = generate_synthetic(SynthConfig(
            n=n_train + q, p=3, w1=(0.6, 0.0, 0.0), w2=(0.0, 0.6, 0.0),
            censoring_rate=0.3, seed=3))
        grid = discretize_times(build_event_grid(cohort), 64)
        train, kappa = breslow_preprocess(cohort.subset(np.arange(n_train)), grid)
        valid, _ = breslow_preprocess(cohort.subset(np.arange(n_train, n_train + q)), grid)
        value = training.table_criterion(criterion, train, valid, grid, alpha, 0.5)
        return (value, small_params(0), train, valid, label_codes(train, grid),
                (len(grid), train.m), 0.05, 0.05), kappa, grid

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_objective_criterion_matches_dense_oracle(self, alpha):
        args, kappa, grid = self.criterion_problem("objective", 300, 200, alpha)
        _, params, train, valid, _, _, epsilon, tau = args
        psi, F, fallback = oracle.clustered_hazard_curves(
            embed_batch(params, valid.features), embed_batch(params, train.features),
            kappa, train.event, train.m, len(grid), epsilon, tau)
        assert 0 < fallback.sum() < valid.n     # rows with no exemplar within tau are pooled
        _, kappa_valid = breslow_preprocess(valid, grid)
        nll = oracle.loss_nll(np.transpose(psi, (1, 0, 2)), kappa_valid, valid.event)
        rank = oracle.loss_ranking(oracle.cif_pair_matrix(F, kappa_valid), kappa_valid,
                                   valid.event, 0.5)
        want = alpha * nll + (1.0 - alpha) * rank
        got, _ = training._evaluate_criterion(*args)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @REPRODUCIBLE
    @given(batch=labelled_batches(), Q=st.integers(1, 5))
    def test_objective_criterion_scores_empty_rows_on_pooled_tables(self, alpha, batch, Q):
        # a row with no positive weight is scored, not dropped: on the hazards
        # of the pooled tables, as prediction scores it
        _, kappa, delta, m, L, seed = batch
        rng = np.random.default_rng(seed)
        d = rng.integers(0, 4, (Q, L, m)).astype(np.float64)
        shed = d.sum(axis=2) + rng.integers(0, 3, (Q, L))
        n = np.flip(np.cumsum(np.flip(shed, axis=1), axis=1), axis=1)
        W = rng.uniform(0.0, 1.0, (kappa.size, Q)) * (rng.random((kappa.size, 1)) < 0.6)
        W[0] = 0.0
        got = training.sft_objective_from_tables(d, n, W, kappa, delta, alpha, 0.7)
        want = oracle.table_objective(d, n, W, kappa, delta, alpha, 0.7)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-12)

    @pytest.mark.parametrize("criterion", ["ibs", "ctd"])
    def test_criterion_scores_the_shipped_model(self, criterion):
        # the clustered model that fit ships with these parameters, predicted
        # through predict_cif_grid (pooled-table fallback included); the clusters
        # the criterion returns are that model's
        args, _, grid = self.criterion_problem(criterion, 300, 200, 1.0)
        _, params, train, valid, codes, shape, epsilon, tau = args
        clusters = build_cluster_model(embed_batch(params, train.features), codes, shape,
                                       epsilon, tau)
        model = KernelAJModel(params, clusters, grid,
                              np.zeros((clusters.num_clusters, train.features.shape[1])))
        cif, _, fallback = predict_cif_grid(model, valid.features)
        assert fallback.any()
        pooled = np.concatenate((train.time[train.event != 0], valid.time[valid.event != 0]))
        eval_grid = metrics.build_eval_grid(pooled) if criterion == "ibs" else None
        want = score_curves(cif, grid.times, scorer(valid, eval_grid), (criterion,))[criterion]
        got, scored = training._evaluate_criterion(*args)
        assert got == float(np.mean(want))
        for name in ("exemplar_ids", "exemplar_embeddings", "assignments", "codes",
                     "d_cluster", "n_cluster"):
            assert_array_equal(getattr(scored, name), getattr(clusters, name))
        assert (scored.table_shape, scored.tau) == (clusters.table_shape, clusters.tau)

    def test_objective_criterion_has_no_square_buffer(self):
        q = 4096
        args, _, _ = self.criterion_problem("objective", 300, q, 0.5)
        (value, _), peak = traced_peak(lambda: training._evaluate_criterion(*args))
        assert np.isfinite(value)
        assert peak < q * q * 8


class TestInterpolation:
    def test_matches_per_row_interp(self):
        rng = np.random.default_rng(3)
        n, L = BLOCK_ROWS * 2 + 17, 12
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
def scored_cohorts(draw):
    """(cohort, curves, knots, block): tied observed times, competing events,
    censoring, and curve values on a coarse lattice, so that interpolated
    risks tie at knot times; block is the anchors' and subjects' block size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 50)), draw(st.integers(1, 3))
    times = rng.integers(1, 12, n) * 0.5
    events = rng.integers(0, m + 1, n)
    knots = np.unique(rng.integers(1, 12, draw(st.integers(1, 8))) * 0.5)
    curves = np.round(rng.uniform(0, 1, (n, knots.size)), 1)
    block = draw(st.sampled_from([1, 3, BLOCK_ROWS]))
    return Cohort(np.zeros((n, 1)), times, events, m), curves, knots, block


class TestBlockedConcordance:
    @REPRODUCIBLE
    @given(case=scored_cohorts())
    def test_equals_dense_risk_matrix(self, case):
        cohort, curves, knots, block = case
        R = oracle.risk_matrix_from_curves(curves, knots, cohort.time)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "BLOCK_ROWS", block)
            for delta in range(1, cohort.m + 1):
                try:
                    want = oracle.concordance_td(R, cohort, delta)
                except NoComparablePairs:
                    with pytest.raises(NoComparablePairs):
                        concordance_td_from_curves(curves, knots, cohort, delta)
                    with pytest.raises(NoComparablePairs):
                        concordance_td(R, cohort, delta)
                    continue
                assert concordance_td_from_curves(curves, knots, cohort, delta) == want
                assert concordance_td(R, cohort, delta) == want

    def test_default_blocks_with_partial_edges(self):
        # more anchors than one block and more subjects than two, neither a
        # multiple of the block
        n = 2 * BLOCK_ROWS + 5
        rng = np.random.default_rng(4)
        times = rng.integers(1, 40, n) * 0.25
        events = np.where(np.arange(n) < BLOCK_ROWS + 7, 1, rng.integers(0, 3, n))
        rng.shuffle(events)
        cohort = Cohort(np.zeros((n, 1)), times, events, 2)
        knots = np.unique(rng.integers(1, 40, 12) * 0.25)
        curves = np.round(np.cumsum(rng.uniform(0, 0.1, (n, knots.size)), axis=1), 1)
        R = oracle.risk_matrix_from_curves(curves, knots, cohort.time)
        for delta in (1, 2):
            want = oracle.concordance_td(R, cohort, delta)
            assert concordance_td_from_curves(curves, knots, cohort, delta) == want
            assert concordance_td(R, cohort, delta) == want

    def test_no_square_buffer(self):
        n, L = 4096, 64
        rng = np.random.default_rng(9)
        knots = np.cumsum(rng.uniform(0.1, 1.0, L))
        curves = np.cumsum(rng.uniform(0, 0.02, (n, L)), axis=1)
        cohort = Cohort(np.zeros((n, 1)), rng.uniform(0, knots[-1], n),
                        rng.integers(0, 3, n), 2)
        value, peak = traced_peak(
            lambda: concordance_td_from_curves(curves, knots, cohort, 1))
        assert 0.0 <= value <= 1.0
        assert peak < n * n * 8


@st.composite
def brier_cases(draw):
    """(cohort, censoring curve, horizons, F, delta, block): the horizon
    count is 1, block - 1, block, block + 1 or 100 for a Brier block of 1,
    3 or ``BRIER_BLOCK_HORIZONS`` horizons."""
    block = draw(st.sampled_from([1, 3, BRIER_BLOCK_HORIZONS]))
    k = draw(st.sampled_from(sorted({1, max(block - 1, 1), block, block + 1, 100})))
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
    horizons = np.round(rng.uniform(0.3, 6.5, k), 1)     # ties with observed times
    F = rng.uniform(0, 1, (n, k))
    return cohort, censor, horizons, F, int(rng.integers(1, m + 1)), block


class TestBrier:
    @REPRODUCIBLE
    @given(case=brier_cases())
    def test_grid_matches_scalar_oracle(self, case):
        # each horizon's value equals its one-horizon score bit for bit,
        # whatever block of horizons it was scored in
        cohort, censor, horizons, F, delta, block = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "BRIER_BLOCK_HORIZONS", block)
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


@st.composite
def scoring_cases(draw):
    """(curves (m, n, L), knots, cohort, eval grid): tied observed times,
    censoring, competing events and lattice curve values; every event type
    has a comparable pair."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m + 1, 40))
    times = rng.integers(1, 12, n) * 0.5
    events = rng.integers(0, m + 1, n)
    events[:m], times[:m], times[m] = np.arange(1, m + 1), 0.5, 6.0
    cohort = Cohort(np.zeros((n, 1)), times, events, m)
    knots = np.unique(rng.integers(1, 12, draw(st.integers(1, 8))) * 0.5)
    curves = np.round(rng.uniform(0, 1, (m, n, knots.size)), 1)
    grid_times = np.unique(rng.integers(1, 14, draw(st.integers(2, 12))) * 0.5)
    if grid_times.size < 2:
        grid_times = np.array([1.0, 5.5])
    return curves, knots, cohort, EvalGrid(grid_times)


class TestScoreCurves:
    """score_curves against interpolate_curves -> brier_scores ->
    integrated_brier and concordance_td_from_curves, event by event."""

    @REPRODUCIBLE
    @given(case=scoring_cases())
    def test_bit_equal_to_per_event_composition(self, case):
        curves, knots, cohort, grid = case
        weights = ipcw_weights(cohort, grid.times, censoring_survival(cohort))
        want = {"ctd": [], "ibs": []}
        for d in range(1, cohort.m + 1):
            pred = interpolate_curves(curves[d - 1], knots, grid.times)
            bs, _ = brier_scores(pred, cohort, d, grid.times, weights)
            want["ibs"].append(integrated_brier(bs, grid))
            want["ctd"].append(concordance_td_from_curves(curves[d - 1], knots, cohort, d))
        one = scorer(cohort, grid)
        assert score_curves(curves, knots, one) == want
        assert score_curves(curves, knots, one, ("ibs",)) == {"ibs": want["ibs"]}
        assert score_curves(curves, knots, one, ("ctd",)) == {"ctd": want["ctd"]}
        assert evaluate_cif_predictions(curves, knots, cohort, grid) == want

    def test_scores_only_the_requested_criteria(self, monkeypatch):
        cohort = Cohort(np.zeros((4, 1)), [1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0], 1)
        curves = np.linspace(0.1, 0.4, 4)[None, :, None] * np.ones((1, 4, 2))
        grid = EvalGrid(np.array([1.0, 3.0]))

        def fail(*args, **kwargs):
            raise AssertionError("not requested")

        monkeypatch.setattr(metrics, "concordance_td_from_curves", fail)
        assert list(score_curves(curves, [1.0, 3.0], scorer(cohort, grid), ("ibs",))) == ["ibs"]
        monkeypatch.setattr(metrics, "brier_scores", fail)
        assert list(score_curves(curves, [1.0, 3.0], scorer(cohort), ())) == []

    def test_unknown_criterion_rejected(self):
        cohort = Cohort(np.zeros((2, 1)), [1.0, 2.0], [1, 0], 1)
        with pytest.raises(ValueError, match="bogus"):
            score_curves(np.full((1, 2, 1), 0.5), [1.0], scorer(cohort), ("ctd", "bogus"))

    def test_ibs_without_a_grid_rejected(self):
        cohort = Cohort(np.zeros((2, 1)), [1.0, 2.0], [1, 0], 1)
        with pytest.raises(ValueError, match="evaluation grid"):
            score_curves(np.full((1, 2, 1), 0.5), [1.0], scorer(cohort), ("ibs",))

    @pytest.mark.parametrize("criterion", ["ibs", "ctd"])
    def test_peak_below_two_and_a_half_curve_sets(self, criterion):
        # Brier by horizon blocks and concordance by anchor and subject
        # blocks: the working memory is a few blocks beside the curves
        m, n, L = 2, 4000, 64
        rng = np.random.default_rng(11)
        knots = np.cumsum(rng.uniform(0.1, 1.0, L))
        curves = np.cumsum(rng.uniform(0, 0.01, (m, n, L)), axis=2)
        cohort = Cohort(np.zeros((n, 1)), rng.uniform(0, knots[-1], n),
                        rng.integers(0, m + 1, n), m)
        one = scorer(cohort, metrics.build_eval_grid(cohort.time[cohort.event != 0]))
        assert len(one.eval_grid) == 100
        scores, peak = traced_peak(lambda: score_curves(curves, knots, one, (criterion,)))
        assert np.isfinite(scores[criterion]).all()
        assert peak < 2.5 * curves.nbytes
