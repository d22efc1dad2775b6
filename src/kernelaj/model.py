"""Test-time prediction for the kernel-weighted Aalen-Johansen model:
exemplar-weighted summary tables, survival/CIF curves with a population
fallback, and the individual-level interpretation quantities.

Every prediction goes through one path: frozen_subject_weights, the
weighted tables, and the Aalen-Johansen recursion in ``core``. Their matrix
products are taken row by row (``embedding.rowwise_matmul``), so a row's
prediction has the same bits whichever rows are passed with it, and the
per-row entry points are one-row views of the batch functions.

A trained model is immutable; prediction and explanation are pure functions
and safe for concurrent use.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import ClusterModel
from .core import CifSet, Cohort, cif_from_hazards, curves_from_counts, table_hazards
from .embedding import MlpParams, forward_cached, pairwise_sq_dists, rowwise_matmul
from .errors import EmptyNeighborhood, NoRisk, NonFiniteFeatures, ShapeMismatch
from .training import DiscreteTimeMap


@dataclass(frozen=True)
class KernelAJModel:
    """Frozen embedding parameters, cluster summaries, the time grid, and the
    population-level fallback estimate.

    ``d_tables``/``n_tables`` are the per-cluster count tables actually used
    at prediction time; they start as the raw cluster counts and are replaced
    when summary fine-tuning is accepted.
    """

    params: MlpParams
    clusters: ClusterModel
    dtm: DiscreteTimeMap
    population_d: np.ndarray
    population_n: np.ndarray
    d_tables: np.ndarray
    n_tables: np.ndarray
    config: dict = field(default_factory=dict)
    sft_applied: bool = False
    sft_rejected: bool = False
    cluster_feature_means: np.ndarray = None

    @property
    def grid(self):
        return self.dtm.grid

    @property
    def m(self) -> int:
        return int(self.population_d.shape[1])

    @property
    def t_max(self) -> float:
        return self.grid.t_max

    def population_curves(self) -> CifSet:
        return curves_from_counts(self.population_d, self.population_n, self.grid)

    def with_tables(self, d_tables, n_tables, sft_applied=False,
                    sft_rejected=False) -> "KernelAJModel":
        return replace(self, d_tables=np.asarray(d_tables, np.float64),
                       n_tables=np.asarray(n_tables, np.float64),
                       sft_applied=sft_applied, sft_rejected=sft_rejected)


_NOT_FINITE = "features are not finite or too large to embed"


def _embed_rows(params: MlpParams, X: np.ndarray) -> np.ndarray:
    """Embeddings of a feature matrix, each layer's product taken row by row
    so a row's embedding does not depend on the rows passed with it. Rejects
    the first row whose features are not finite or whose embedding
    overflows, instead of letting it fall back silently to the population
    estimate."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatch("expected a feature matrix (n, p)")
    bad = ~np.isfinite(X).all(axis=1)
    if not bad.any():
        E, _ = forward_cached(params, X, rowwise_matmul)
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
    E = _embed_rows(params_mlp, features)
    sq = pairwise_sq_dists(E, clusters.exemplar_embeddings)
    return np.where(sq <= clusters.tau ** 2, np.exp(-sq), 0.0)


def _weighted_tables(model: KernelAJModel, W):
    """Kernel-weighted event (n, L, m) and at-risk (n, L) tables, row by row."""
    Q, L, m = model.d_tables.shape
    d_w = rowwise_matmul(W, model.d_tables.reshape(Q, L * m)).reshape(-1, L, m)
    return d_w, rowwise_matmul(W, model.n_tables)


def _curves_from_weights(model: KernelAJModel, W):
    """CIF (m, n, L), survival (n, L) and the fallback mask for exemplar
    weights W (n, Q); a row with no positive weight gets the population
    estimate."""
    cif, surv, _, _ = cif_from_hazards(table_hazards(*_weighted_tables(model, W)))
    fallback = ~W.any(axis=1)
    if fallback.any():
        pop = model.population_curves()
        surv[fallback] = pop.survival.values
        cif[:, fallback] = np.stack([c.values for c in pop.cifs])[:, None, :]
    return cif, surv, fallback


def predict_cif_grid(model: KernelAJModel, X: np.ndarray):
    """Batch prediction at the model's grid times.

    Returns (cif (m, n, L), survival (n, L), fallback (n,) bool mask of rows
    that used the population estimate because no exemplar within tau has a
    positive kernel weight).
    A row whose features are not finite, or too large to embed, raises
    ValueError naming the first such row.
    """
    return _curves_from_weights(
        model, frozen_subject_weights(model.params, model.clusters, X))


def weighted_summaries(model: KernelAJModel, x: np.ndarray):
    """Kernel-weighted event and at-risk tables for one query point.

    Returns (d_w (L, m), n_w (L,), neighbor_positions). The neighbor set
    holds the exemplars within tau (those with positive kernel weight); when
    it is empty the tables are zero and the prediction falls back to the
    population estimate.
    """
    W = frozen_subject_weights(model.params, model.clusters, _row(x))
    d_w, n_w = _weighted_tables(model, W)
    return d_w[0], n_w[0], np.flatnonzero(W[0])


def predict_curves(model: KernelAJModel, x: np.ndarray) -> CifSet:
    """Survival and CIF step curves for one feature vector: the one-row view
    of :func:`predict_cif_grid`, population fallback included."""
    cif, surv, _ = predict_cif_grid(model, _row(x))
    return CifSet.from_values(model.grid.times, surv[0], cif[:, 0])


def _normalized_weights(model: KernelAJModel, w):
    """Ids and normalized weights of the exemplars with positive weight in w."""
    positions = np.flatnonzero(w)
    return model.clusters.exemplar_ids[positions], w[positions] / w[positions].sum()


def cluster_weight_decomposition(model: KernelAJModel, x: np.ndarray):
    """Normalized kernel weights over the contributing exemplars.

    Returns (exemplar_ids, weights summing to 1). Normalization cancels in
    the hazard ratios, so predictions from normalized and raw weights agree.
    """
    ids, weights = _normalized_weights(
        model, frozen_subject_weights(model.params, model.clusters, _row(x))[0])
    if ids.size == 0:
        raise EmptyNeighborhood("no exemplar within tau of the query")
    return ids, weights


def _event_probabilities(cif):
    """(n, m) earliest-event probabilities from CIF values (m, n, L)."""
    tail = cif[:, :, -1].T
    total = tail.sum(axis=1)
    if (total <= 0).any():
        raise NoRisk(f"row {int(np.argmax(total <= 0))}: all cumulative incidence "
                     "values are zero at the horizon")
    return tail / total[:, None]


def _conditional_medians(cif, knots):
    """Per row of CIF values (m, n, L), the tuple of conditional median times
    of the m event types (None for an event type with zero mass)."""
    total = cif[:, :, -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        first = (cif / total[:, :, None] >= 0.5).argmax(axis=2)
    return [tuple(float(knots[f]) if t > 0 else None
                  for f, t in zip(first[:, i], total[:, i]))
            for i in range(cif.shape[1])]


def event_probability(cifset: CifSet) -> np.ndarray:
    """Probability of each event type happening earliest.

    Approximates F_delta(infinity) by the CIF at the last grid time and
    renormalizes the values to sum to 1.
    """
    return _event_probabilities(np.stack([c.values for c in cifset.cifs])[:, None])[0]


def conditional_median(cifset: CifSet, delta: int):
    """Median time to event ``delta`` given it happens earliest.

    Smallest grid time where the renormalized CIF reaches one half; None when
    the event has zero mass at the horizon.
    """
    cif = np.stack([c.values for c in cifset.cifs])[:, None]
    return _conditional_medians(cif, cifset.survival.knots)[0][delta - 1]


@dataclass(frozen=True)
class Explanation:
    """Which exemplars drive a prediction, and the headline quantities."""

    exemplar_ids: np.ndarray
    weights: np.ndarray
    event_probabilities: np.ndarray
    conditional_medians: tuple
    used_fallback: bool


def explain_rows(model: KernelAJModel, X: np.ndarray):
    """Interpretation records for every row of a feature matrix.

    Returns (explanations, cif (m, n, L), survival (n, L)): the records and
    the curves they were read from. Each row is embedded once.
    """
    W = frozen_subject_weights(model.params, model.clusters, X)
    cif, surv, fallback = _curves_from_weights(model, W)
    probs = _event_probabilities(cif)
    medians = _conditional_medians(cif, model.grid.times)
    records = []
    for i in range(W.shape[0]):
        ids, weights = _normalized_weights(model, W[i])
        records.append(Explanation(ids, weights, probs[i], medians[i], bool(fallback[i])))
    return records, cif, surv


def explain_subject(model: KernelAJModel, x: np.ndarray) -> Explanation:
    """Per-subject interpretation record: the one-row view of
    :func:`explain_rows`."""
    records, _, _ = explain_rows(model, _row(x))
    return records[0]


def cluster_curves(model: KernelAJModel, position: int) -> CifSet:
    """Classical Aalen-Johansen estimate restricted to one cluster."""
    return curves_from_counts(
        model.clusters.d_cluster[position], model.clusters.n_cluster[position],
        model.grid, allow_zero_risk=True)


def exemplar_kernel_matrix(model: KernelAJModel) -> np.ndarray:
    """Pairwise kernel weights between exemplar embeddings."""
    sq = pairwise_sq_dists(model.clusters.exemplar_embeddings)
    return np.exp(-sq)


def cohort_cif_predictions(model: KernelAJModel, cohort: Cohort):
    """CIF curves at grid times for every cohort member: (m, n, L)."""
    cif, _, _ = predict_cif_grid(model, cohort.features)
    return cif
