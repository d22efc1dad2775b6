"""Test-time prediction for the kernel-weighted Aalen-Johansen model:
exemplar-weighted summary tables, survival/CIF curves with a population
fallback, and the individual-level interpretation quantities.

A trained model is immutable; prediction and explanation are pure functions
and safe for concurrent use.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .clustering import ClusterModel, neighbors_within_tau
from .core import CifSet, Cohort, StepCurve, curves_from_counts
from .embedding import MlpParams, embed, embed_batch, pairwise_sq_dists
from .errors import EmptyNeighborhood, NoRisk, ShapeMismatch
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
    """Embeddings of a feature matrix; rejects the first row whose features
    are not finite or whose embedding overflows, instead of letting it fall
    back silently to the population estimate."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatch("expected a feature matrix (n, p)")
    bad = ~np.isfinite(X).all(axis=1)
    if not bad.any():
        E = embed_batch(params, X)
        bad = ~np.isfinite(np.einsum("ij,ij->i", E, E))
    if bad.any():
        raise ValueError(f"row {int(np.argmax(bad))}: {_NOT_FINITE}")
    return E


def _embed_one(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Single-query form of :func:`_embed_rows`, kept cheap for per-row calls."""
    x = np.asarray(x, dtype=np.float64)
    e = embed(params, x) if np.isfinite(x).all() else None
    if e is None or not np.isfinite(np.einsum("i,i->", e, e)):
        raise ValueError(f"row 0: {_NOT_FINITE}")
    return e


def weighted_summaries(model: KernelAJModel, x: np.ndarray):
    """Kernel-weighted event and at-risk tables for one query point.

    Returns (d_w (L, m), n_w (L,), neighbor_positions). The neighbor set
    holds the exemplars within tau; when it is empty the tables are zero and
    the caller should fall back to the population estimate.
    """
    e = _embed_one(model.params, x)
    positions = neighbors_within_tau(e, model.clusters)
    L, m = model.population_d.shape
    if positions.size == 0:
        return np.zeros((L, m)), np.zeros(L), positions
    diff = model.clusters.exemplar_embeddings[positions] - e
    w = np.exp(-np.einsum("qd,qd->q", diff, diff))
    d_w = np.tensordot(w, model.d_tables[positions], axes=(0, 0))
    n_w = w @ model.n_tables[positions]
    return d_w, n_w, positions


def predict_curves(model: KernelAJModel, x: np.ndarray) -> CifSet:
    """Survival and CIF step curves for one feature vector.

    Falls back to the population-level estimate when no exemplar lies within
    tau of the query embedding.
    """
    d_w, n_w, positions = weighted_summaries(model, x)
    if positions.size == 0:
        return model.population_curves()
    return curves_from_counts(d_w, n_w, model.grid, allow_zero_risk=True)


def predict_cif_grid(model: KernelAJModel, X: np.ndarray):
    """Batch prediction at the model's grid times.

    Returns (cif (m, n, L), survival (n, L), fallback (n,) bool mask of rows
    that used the population estimate). A row whose features are not finite,
    or too large to embed, raises ValueError naming the first such row.
    """
    E = _embed_rows(model.params, X)
    sq = pairwise_sq_dists(E, model.clusters.exemplar_embeddings)
    tau_sq = model.clusters.tau ** 2
    W = np.where(sq <= tau_sq, np.exp(-sq), 0.0)
    fallback = ~(sq <= tau_sq).any(axis=1)

    L, m = model.population_d.shape
    n = E.shape[0]
    d_w = np.tensordot(W, model.d_tables, axes=(1, 0))     # (n, L, m)
    n_w = W @ model.n_tables                               # (n, L)
    pos = n_w > 0
    inv = np.where(pos, 1.0 / np.where(pos, n_w, 1.0), 0.0)
    hazards = d_w * inv[:, :, None]
    surv = np.cumprod(np.clip(1.0 - hazards.sum(axis=2), 0.0, 1.0), axis=1)
    surv_prev = np.concatenate((np.ones((n, 1)), surv[:, :-1]), axis=1)
    cif = np.cumsum(hazards * surv_prev[:, :, None], axis=1)

    if fallback.any():
        pop = model.population_curves()
        pop_surv = pop.survival.values
        pop_cif = np.stack([c.values for c in pop.cifs], axis=1)
        surv[fallback] = pop_surv
        cif[fallback] = pop_cif
    return np.transpose(cif, (2, 0, 1)), surv, fallback


def cluster_weight_decomposition(model: KernelAJModel, x: np.ndarray):
    """Normalized kernel weights over the contributing exemplars.

    Returns (exemplar_ids, weights summing to 1). Normalization cancels in
    the hazard ratios, so predictions from normalized and raw weights agree.
    """
    e = _embed_one(model.params, x)
    positions = neighbors_within_tau(e, model.clusters)
    if positions.size == 0:
        raise EmptyNeighborhood("no exemplar within tau of the query")
    diff = model.clusters.exemplar_embeddings[positions] - e
    w = np.exp(-np.einsum("qd,qd->q", diff, diff))
    return model.clusters.exemplar_ids[positions], w / w.sum()


def event_probability(cifset: CifSet) -> np.ndarray:
    """Probability of each event type happening earliest.

    Approximates F_delta(infinity) by the CIF at the last grid time and
    renormalizes the values to sum to 1.
    """
    tail = np.array([c.values[-1] for c in cifset.cifs], dtype=np.float64)
    total = tail.sum()
    if total <= 0:
        raise NoRisk("all cumulative incidence values are zero at the horizon")
    return tail / total


def conditional_median(cifset: CifSet, delta: int):
    """Median time to event ``delta`` given it happens earliest.

    Smallest grid time where the renormalized CIF reaches one half; None when
    the event has zero mass at the horizon.
    """
    curve = cifset.cif(delta)
    total = curve.values[-1]
    if total <= 0:
        return None
    crossing = np.flatnonzero(curve.values / total >= 0.5)
    return float(curve.knots[crossing[0]])


@dataclass(frozen=True)
class Explanation:
    """Which exemplars drive a prediction, and the headline quantities."""

    exemplar_ids: np.ndarray
    weights: np.ndarray
    event_probabilities: np.ndarray
    conditional_medians: tuple
    used_fallback: bool


def explain_subject(model: KernelAJModel, x: np.ndarray) -> Explanation:
    """Per-subject interpretation record."""
    curves = predict_curves(model, x)
    try:
        ids, weights = cluster_weight_decomposition(model, x)
        fallback = False
    except EmptyNeighborhood:
        ids = np.empty(0, dtype=np.int64)
        weights = np.empty(0, dtype=np.float64)
        fallback = True
    probs = event_probability(curves)
    medians = tuple(conditional_median(curves, d) for d in range(1, curves.m + 1))
    return Explanation(ids, weights, probs, medians, fallback)


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
