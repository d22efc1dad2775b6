"""Shared helpers: random labeled batches, cluster models of hand-made
tables, small fits through ``fit_pipeline``, the benchmark's cohort and its
acceptance fit, made once per session, the network's parameters as one flat
vector and the finite-difference oracles that perturb it, and the traced
memory peak of a call; the hypothesis profile of the suite."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from kernelaj import (ClusterModel, EmbeddingConfig, RawTable, TrainConfig,
                      fit_apply_preprocessor, generate_synthetic)
from kernelaj.cli import fit_pipeline
from kernelaj.embedding import MlpParams, flatten_grads
from dense_oracle import batch_loss_from_params

# every property test draws the same examples on every run, however long
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


def random_batch(rng, n=12, p=3, m=2, L=5, censor_frac=0.3):
    """Features plus discrete labels (kappa in 0..L, delta in 0..m).

    Censored subjects may sit at kappa = 0; uncensored ones occupy bins
    1..L. Guarantees at least two uncensored subjects in distinct bins so
    both loss terms are active.
    """
    X = rng.normal(size=(n, p))
    delta = rng.integers(0, m + 1, size=n)
    kappa = np.where(delta == 0, rng.integers(0, L + 1, size=n),
                     rng.integers(1, L + 1, size=n))
    delta[0], kappa[0] = 1, 1
    delta[1], kappa[1] = min(m, 2), min(2, L)
    return X, kappa.astype(np.int64), delta.astype(np.int64)


def clusters_from_tables(d, n, embeddings, tau=1.0) -> ClusterModel:
    """A ClusterModel whose cluster tables are the integer tables d (Q, L, m)
    and n (Q, L), built from training rows: row q is exemplar q, bin l holds
    n[l] - n[l + 1] - sum_k d[l, k] censored rows of a cluster, and a
    cluster with no row at risk holds one row censored before t_1."""
    tables = np.asarray(d), np.asarray(n)
    d, n = (t.astype(np.int64) for t in tables)
    Q, L, m = d.shape
    cells = np.zeros((Q, L + 1, m + 1), dtype=np.int64)
    cells[:, 1:, 1:] = d
    n_next = np.append(n[:, 1:], np.zeros((Q, 1), np.int64), axis=1)
    cells[:, 1:, 0] = n - n_next - d.sum(axis=2)
    cells[:, 0, 0] = cells.sum(axis=(1, 2)) == 0
    counts = cells.reshape(Q, -1)
    assert (counts >= 0).all(), "n must be a reverse cumulative count of d and the censored"
    cluster = np.repeat(np.arange(Q), counts.sum(axis=1))
    codes = np.concatenate([np.repeat(np.arange(counts.shape[1]), row) for row in counts])
    first = np.searchsorted(cluster, np.arange(Q))
    order = np.r_[first, np.setdiff1d(np.arange(cluster.size), first)]
    clusters = ClusterModel(np.arange(Q), embeddings, cluster[order], codes[order], (L, m),
                            tau=tau)
    assert all((got == want).all() for got, want in
               zip((clusters.d_cluster, clusters.n_cluster), tables))
    return clusters


# the benchmark's acceptance workload (benchmarks/session.py's _BASE)
BENCH_ECFG = EmbeddingConfig(input_dim=8, num_layers=2, hidden_units=32, embed_dim=8,
                             activation="relu", init_seed=0)
BENCH_TCFG = TrainConfig(learning_rate=0.1, batch_size=1024, max_epochs=16, patience=16,
                         alpha=1.0, sigma=1.0, num_time_steps=64, early_stop_criterion="ibs",
                         seed=0)
BENCH_CLUSTERING = {"epsilon": 0.3, "min_kernel_weight": 0.01}


@pytest.fixture(scope="session")
def bench_cohorts():
    """The benchmark's cohort at seed 1: (generator config, the raw train,
    valid and test parts, rows cut 4,800 / 1,200 / 2,000 in order, and the
    three cohorts with features standardized as ``kernelaj fit`` does)."""
    from test_acceptance import BENCH_CFG     # the generator the benchmark names

    cfg = replace(BENCH_CFG, seed=1)
    cohort = generate_synthetic(cfg)
    parts = [cohort.subset(np.arange(lo, hi))
             for lo, hi in ((0, 4800), (4800, 6000), (6000, 8000))]
    schema = {f"x{j + 1}": "continuous" for j in range(cfg.p)}
    cohorts = fit_apply_preprocessor(*(
        RawTable({name: part.features[:, j].tolist() for j, name in enumerate(schema)},
                 part.time, part.event) for part in parts), schema_spec=schema)[:3]
    return cfg, parts, cohorts


@pytest.fixture(scope="session")
def acceptance_fit(bench_cohorts):
    """(model, logs) of ``fit_pipeline`` on the benchmark's acceptance
    workload at seed 1, shared by the tests that read it."""
    train, valid, _ = bench_cohorts[2]
    return fit_pipeline(train, valid, BENCH_ECFG, BENCH_TCFG, **BENCH_CLUSTERING)


def flatten_params(params: MlpParams) -> np.ndarray:
    """All parameters as one flat vector (weights then bias per layer)."""
    return flatten_grads(params.weights, params.biases)


def unflatten_params(params: MlpParams, flat) -> MlpParams:
    """An MlpParams shaped like ``params`` from a flat vector in the order of
    :func:`flatten_params`."""
    arrays = [a for pair in zip(params.weights, params.biases) for a in pair]
    assert np.size(flat) == sum(a.size for a in arrays)
    cuts = np.cumsum([a.size for a in arrays])[:-1]
    arrays = [part.reshape(a.shape) for a, part in zip(arrays, np.split(flat, cuts))]
    return MlpParams(params.layer_sizes, tuple(arrays[0::2]), tuple(arrays[1::2]),
                     params.activation)


def finite_difference_grad(params, X, kappa, delta, m, L, alpha, sigma, step=1e-5):
    flat = flatten_params(params)
    grad = np.zeros_like(flat)
    for k in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[k] += step
        down[k] -= step
        lu = batch_loss_from_params(unflatten_params(params, up), X, kappa,
                                    delta, m, L, alpha, sigma)
        ld = batch_loss_from_params(unflatten_params(params, down), X, kappa,
                                    delta, m, L, alpha, sigma)
        grad[k] = (lu - ld) / (2 * step)
    return grad


def traced_peak(fn):
    """Run ``fn()``; returns (its result, the tracemalloc peak in bytes of
    what it allocated and numpy reports to tracemalloc)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def relative_error(analytic, reference):
    denom = max(np.linalg.norm(reference), 1e-12)
    return np.linalg.norm(analytic - reference) / denom


# column names and categorical levels that CSV quoting, the model file's
# JSON and the one-hot "name=level" feature names must all survive
NAMES = ["z", "a", "x,1", 'q"r', "k=v"]
LEVELS = ["lo", "b,c", 'd"e', "f=g", "="]


FIT_TRAIN_ROWS = 30


@st.composite
def fits(draw, max_events=2):
    """A small fit through ``fit_pipeline`` on a random schema: shuffled
    column order, continuous and categorical columns, one to ``max_events``
    event types, with or without summary fine-tuning. The table's first
    ``FIT_TRAIN_ROWS`` rows train the model and the rest validate it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = draw(st.permutations(NAMES))[:draw(st.integers(1, len(NAMES)))]
    kinds = {name: draw(st.sampled_from(["continuous", "categorical"])) for name in names}
    n, m = 40, draw(st.integers(1, max_events))
    columns = {}
    for name, kind in kinds.items():
        if kind == "continuous":
            columns[name] = list(rng.normal(size=n))
        else:
            levels = draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=3,
                                   unique=True))
            columns[name] = [levels[k] for k in rng.integers(0, len(levels), n)]
    event = rng.integers(0, m + 1, n)
    event[:m] = np.arange(1, m + 1)
    table = RawTable(columns, rng.exponential(2.0, n), event)
    cohort, schema = fit_apply_preprocessor(table, schema_spec=kinds)
    tcfg = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=2, patience=2,
                       num_time_steps=draw(st.sampled_from([0, 4])))
    sft = {"enabled": True, "max_epochs": 3, "learning_rate": 0.05} \
        if draw(st.booleans()) else {}
    model, logs = fit_pipeline(
        cohort.subset(np.arange(FIT_TRAIN_ROWS)), cohort.subset(np.arange(FIT_TRAIN_ROWS, n)),
        EmbeddingConfig(input_dim=cohort.p, num_layers=1, hidden_units=4, embed_dim=2),
        tcfg, epsilon=draw(st.sampled_from([0.1, 1.0])), sft_config=sft)
    accepted = "sft" in logs and any(row[3] for row in logs["sft"].rows)
    return model, schema, table, accepted
