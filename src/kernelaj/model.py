"""Test-time prediction for the kernel-weighted Aalen-Johansen model:
exemplar-weighted summary tables, survival/CIF curves with a pooled-table
fallback, and the individual-level interpretation records.

Every prediction goes through one path: exemplar weights,
:func:`weighted_hazards` and the Aalen-Johansen recursion in ``core``. All
its products are fixed-shape ``embedding.blocked_matmul`` calls, so a row's
prediction has the same bits whichever rows are passed with it. Both batch
functions, :func:`predict_cif_grid` and :func:`explain_rows`, loop over the
blocks of :func:`core.row_slices` and weigh each block's rows by
:func:`clustering.exemplar_weights`; the per-row entry points are one-row
views of these.

A trained model is immutable; prediction and explanation are pure functions
and safe for concurrent use.
"""

from dataclasses import dataclass

import numpy as np

from .clustering import ClusterModel, exemplar_weights
from .core import (CifSet, EventTimeGrid, cif_from_hazards, curves_from_counts, row_slices,
                   safe_reciprocal)
from .embedding import MlpParams, blocked_matmul, embed_batch, kernel_matrix
from .errors import NonFiniteFeatures, ShapeMismatch


@dataclass(frozen=True)
class KernelAJModel:
    """Frozen embedding parameters, the clusters with their event and
    at-risk tables, the time grid, and the clusters' mean features.

    ``sft_tables`` holds the (d (Q, L, m), n (Q, L)) tables that replace the
    cluster tables at prediction time when summary fine-tuning was accepted,
    and is None otherwise.
    """

    params: MlpParams
    clusters: ClusterModel
    grid: EventTimeGrid
    cluster_feature_means: np.ndarray
    sft_tables: tuple = None

    def __post_init__(self):
        Q, L = self.clusters.n_cluster.shape
        if len(self.grid) != L or np.shape(self.cluster_feature_means) != (
                Q, self.params.input_dim) or not np.isfinite(self.cluster_feature_means).all():
            raise ShapeMismatch("grid or cluster feature means disagree with the "
                                "clusters or the network input, or are not finite")
        if self.clusters.exemplar_embeddings.shape[1] != self.params.layer_sizes[-1]:
            raise ShapeMismatch("exemplar embeddings are not as wide as the network output")
        if self.sft_tables is not None:
            d, n = map(np.asarray, self.sft_tables)
            if (d.shape, n.shape) != ((Q, L, self.m), (Q, L)):
                raise ShapeMismatch("fine-tuned tables disagree with the cluster tables")
            # n >= sum_k d >= 0 and n < inf: every cell finite and nonnegative
            if not ((d >= 0).all() and (n >= d.sum(axis=2)).all() and (n < np.inf).all()):
                raise ValueError("fine-tuned tables must be finite and nonnegative, with "
                                 "no more events than at risk in a bin")

    @property
    def m(self) -> int:
        return int(self.clusters.d_cluster.shape[2])

    @property
    def tables(self):
        """The (d, n) tables used for prediction."""
        return self.sft_tables or (self.clusters.d_cluster, self.clusters.n_cluster)

    def population_curves(self) -> CifSet:
        """Aalen-Johansen curves of the pooled raw cluster tables: integer
        counts, so the sums equal the population's counts exactly."""
        return curves_from_counts(self.clusters.d_cluster.sum(axis=0),
                                  self.clusters.n_cluster.sum(axis=0), self.grid)


_NOT_FINITE = "features are not finite or too large to embed"


def _embed_rows(params: MlpParams, X: np.ndarray) -> np.ndarray:
    """Embeddings of a feature matrix (:func:`~kernelaj.embedding.embed_batch`).
    Rejects the first row whose features are not finite or whose embedding
    overflows, instead of letting it fall back silently to the population
    estimate."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatch("expected a feature matrix (n, p)")
    bad = ~np.isfinite(X).all(axis=1)
    if not bad.any():
        E = embed_batch(params, X)
        bad = ~np.isfinite(np.einsum("ij,ij->i", E, E))
    if bad.any():
        raise NonFiniteFeatures(f"row {int(np.argmax(bad))}: {_NOT_FINITE}")
    return E


def _row(x) -> np.ndarray:
    """One feature vector as a one-row feature matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeMismatch(f"expected a 1-D feature vector, got shape {x.shape}")
    return x[None, :]


def frozen_subject_weights(params_mlp: MlpParams, clusters: ClusterModel,
                           features: np.ndarray) -> np.ndarray:
    """Kernel weights exp(-||e_i - e_q||^2) of every feature row to every
    exemplar, zero beyond tau: the (n, Q) weights behind every prediction and
    every fine-tuning step. A row whose features are not finite, or too large
    to embed, raises ValueError naming the first such row."""
    return exemplar_weights(clusters, _embed_rows(params_mlp, features))


def _weighted_tables(tables, W):
    """Kernel-weighted tables D[k] = W d[:, :, k] (m, q, L) and N = W n (q, L) of
    tables (d (Q, L, m), n (Q, L)) under exemplar weights W (q, Q), by ``blocked_matmul``."""
    d, n = (np.asarray(t, np.float64) for t in tables)
    D = np.empty((d.shape[2], W.shape[0], n.shape[1]))
    for k in range(d.shape[2]):
        blocked_matmul(W, d[:, :, k], out=D[k])
    return D, blocked_matmul(W, n)


def weighted_hazards(tables, W):
    """Hazards psi = D * (1/N) (m, q, L), 0 where N == 0, and 1/N (q, L) of the
    tables of :func:`_weighted_tables`, written over D and N: the one hazard
    path of prediction, training and fine-tuning."""
    D, N = _weighted_tables(tables, W)
    inv_N = safe_reciprocal(N, out=N)
    return np.multiply(D, inv_N[None, :, :], out=D), inv_N


def fallback_weights(W):
    """The one rule for a row with no exemplar within tau: (W', fallback (n,)),
    W' a copy of the exemplar weights W (n, Q) in which each row with no
    positive weight weighs every exemplar 1, so it reads the pooled tables."""
    W = np.asarray(W, dtype=np.float64)
    fallback = ~W.any(axis=1)
    if fallback.any():
        W = W.copy()
        W[fallback] = 1.0
    return W, fallback


def _curves_from_weights(tables, W):
    """CIF (m, n, L), survival (n, L) and the fallback mask of count tables
    (d, n) under exemplar weights W (n, Q); a row with no positive weight
    gets the curves of the pooled tables (:func:`fallback_weights`)."""
    W, fallback = fallback_weights(W)
    cif, surv, _, _ = cif_from_hazards(weighted_hazards(tables, W)[0])
    return cif, surv, fallback


def predict_cif_grid(model: KernelAJModel, X: np.ndarray):
    """Batch prediction at the model's grid times.

    Returns (cif (m, n, L), survival (n, L), fallback (n,) bool mask of rows
    that used the pooled tables because no exemplar within tau has a
    positive kernel weight).
    A row whose features are not finite, or too large to embed, raises
    ValueError naming the first such row.
    The outputs are filled one :func:`core.row_slices` block at a time, so
    the (n, Q) weights and the weighted tables never exist whole.
    """
    E = _embed_rows(model.params, X)
    n, L = E.shape[0], len(model.grid)
    cif, surv = np.empty((model.m, n, L)), np.empty((n, L))
    fallback = np.empty(n, dtype=bool)
    for rows in row_slices(n):
        cif[:, rows], surv[rows], fallback[rows] = _curves_from_weights(
            model.tables, exemplar_weights(model.clusters, E[rows]))
    return cif, surv, fallback


def weighted_summaries(model: KernelAJModel, x: np.ndarray):
    """Kernel-weighted event and at-risk tables for one query point, the
    ones :func:`predict_curves` predicts from.

    Returns (d_w (L, m), n_w (L,), neighbor_positions). The neighbor set
    holds the exemplars within tau (those with positive kernel weight); when
    it is empty the tables are the pooled ones (:func:`fallback_weights`).
    """
    W = frozen_subject_weights(model.params, model.clusters, _row(x))
    D, N = _weighted_tables(model.tables, fallback_weights(W)[0])
    return D[:, 0].T, N[0], np.flatnonzero(W[0])


def predict_curves(model: KernelAJModel, x: np.ndarray) -> CifSet:
    """Survival and CIF step curves for one feature vector: the one-row view
    of :func:`predict_cif_grid`, pooled-table fallback included."""
    cif, surv, _ = predict_cif_grid(model, _row(x))
    return CifSet.from_values(model.grid.times, surv[0], cif[:, 0])


def _event_probabilities(cif):
    """Per row of CIF values (m, n, L), the earliest-event probabilities (m,):
    the horizon CIFs renormalized, or None for a row whose CIFs are all zero
    at the horizon (a row that weighs only clusters with no event)."""
    tail = cif[:, :, -1].T
    return [p / t if t > 0 else None for p, t in zip(tail, tail.sum(axis=1))]


def _conditional_medians(cif, knots):
    """Per row of CIF values (m, n, L), the tuple of conditional median times
    of the m event types (None for an event type with zero mass)."""
    total = cif[:, :, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        first = (cif / total[:, :, None] >= 0.5).argmax(axis=2)
    return [tuple(float(knots[f]) if t > 0 else None
                  for f, t in zip(first[:, i], total[:, i]))
            for i in range(cif.shape[1])]


@dataclass(frozen=True)
class Explanation:
    """Which exemplars drive a prediction, and the headline quantities."""

    exemplar_ids: np.ndarray
    weights: np.ndarray
    event_probabilities: np.ndarray  # None when every CIF is 0 at the horizon
    conditional_medians: tuple
    used_fallback: bool


def explain_rows(model: KernelAJModel, X: np.ndarray):
    """Interpretation records for the rows of a feature matrix, one
    :func:`core.row_slices` block at a time; a block's weights live only
    while its records are built.

    A generator: yields (explanations, cif (m, b, L), survival (b, L)) for
    each block of b rows, the records and the curves they were read from.
    Every row is embedded before the first block, so a row whose features
    are not finite raises before any record. Every other row gets its
    record: one whose CIFs are all zero at the horizon has survival 1 and
    ``event_probabilities`` None.
    """
    def explain(W):
        cif, surv, fallback = _curves_from_weights(model.tables, W)
        probs = _event_probabilities(cif)
        medians = _conditional_medians(cif, model.grid.times)
        hits = map(np.flatnonzero, W)   # a fallback row has none: empty ids and weights
        return [Explanation(model.clusters.exemplar_ids[h], w[h] / w[h].sum(), p, med, bool(f))
                for w, h, p, med, f in zip(W, hits, probs, medians, fallback)], cif, surv

    E = _embed_rows(model.params, X)
    for rows in row_slices(E.shape[0]):
        yield explain(exemplar_weights(model.clusters, E[rows]))


def explain_subject(model: KernelAJModel, x: np.ndarray) -> Explanation:
    """Per-subject interpretation record: the one-row view of
    :func:`explain_rows`."""
    records, _, _ = next(explain_rows(model, _row(x)))
    return records[0]


def cluster_weight_decomposition(model: KernelAJModel, x: np.ndarray):
    """Normalized kernel weights over the contributing exemplars: the
    (exemplar_ids, weights summing to 1) of :func:`explain_subject`'s record,
    both empty for a row with no exemplar within tau (``used_fallback``).
    Normalization cancels in the hazard ratios, so predictions from
    normalized and raw weights agree.
    """
    info = explain_subject(model, x)
    return info.exemplar_ids, info.weights


def cluster_curves(model: KernelAJModel, position: int) -> CifSet:
    """Classical Aalen-Johansen estimate restricted to one cluster."""
    return curves_from_counts(
        model.clusters.d_cluster[position], model.clusters.n_cluster[position],
        model.grid, allow_zero_risk=True)


def exemplar_kernel_matrix(model: KernelAJModel) -> np.ndarray:
    """Pairwise kernel weights between exemplar embeddings."""
    return kernel_matrix(model.clusters.exemplar_embeddings)

