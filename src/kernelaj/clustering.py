"""Greedy exemplar clustering in embedding space and per-cluster summary
tables of event and at-risk counts.

The clustering is defined as a single sequential pass: the first point
becomes an exemplar; each later point joins its nearest exemplar when the
Euclidean distance is within epsilon, otherwise it becomes a new exemplar
itself. The pass is order-dependent: it visits the rows in input order, and
nearest-exemplar ties break toward the lowest exemplar index. It runs a
block of rows at a time, bounded by one product per block, with the same
bits. Only training clusters: every epoch, to score the model that it
ships, and it ships the best epoch's clusters.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import Cohort, EventTimeGrid, count_tables, label_codes, require_int, require_real
from .embedding import pairwise_sq_dists
from .errors import ShapeMismatch

EPSNET_BLOCK_ROWS = 512


def tau_from_min_kernel_weight(min_weight: float) -> float:
    """Neighborhood radius such that kernel weights below ``min_weight`` are
    dropped: tau = sqrt(-log(min_weight))."""
    if not 0.0 < min_weight < 1.0:
        raise ValueError("min_kernel_weight must lie in (0, 1)")
    return float(np.sqrt(-np.log(min_weight)))


def _sq_dists(A, B):
    """The pass's reference distances einsum("qd,qd->q", a - b, a - b)."""
    diff = A - B
    return np.einsum("qd,qd->q", diff, diff)


def epsilon_net_cluster(embeddings: np.ndarray, epsilon: float):
    """Greedy epsilon-net pass in input order: row i joins the earlier
    exemplar e with the least s = einsum("qd,qd->q", e - x, e - x), the
    lowest id on ties, when s <= epsilon^2, and becomes one otherwise.
    Returns (exemplar_ids in creation order, every row's exemplar id).
    epsilon = 0 gives every distinct point its own cluster, inf one cluster;
    a NaN epsilon or embeddings that are not finite raise ValueError.

    Per block of ``EPSNET_BLOCK_ROWS`` rows, one product of augmented rows
    (:func:`~kernelaj.embedding.pairwise_sq_dists`) gives distances a to the
    earlier exemplars, and s is computed where a is within 2 tol of the row's
    least a; then, in row order, a row that no exemplar covers becomes one and
    updates the later rows. tol bounds |a - s|: with gamma_k = k u / (1 - k u)
    (Higham, Accuracy and Stability of Numerical Algorithms, section 3.1) and
    r = (|x| + max|e|)^2 >= t, the exact squared distance, a is a dot product
    of d + 2 terms, two of them sums of d squares, so |a - t| <= gamma_{2d+2} r,
    and |s - t| <= gamma_{d+2} t. The nearest j then has a_j <= s_j + tol <=
    s_k + tol <= a_k + 2 tol for every k. tol = 4 gamma_{2d+2} r^ doubles the
    bound 2 gamma_{2d+2} r to cover the rounding of the computed r^ and of the
    window, so the result is the one-row pass's, bit for bit.
    """
    E = np.asarray(embeddings, dtype=np.float64)
    if E.ndim != 2 or E.shape[0] < 1:
        raise ShapeMismatch("embeddings must be a nonempty (n, d) array")
    if require_real("epsilon", epsilon) < 0:
        raise ValueError("epsilon must be nonnegative")
    if not np.isfinite(E).all():
        raise ValueError("embeddings must be finite")
    (n, d), eps_sq = E.shape, epsilon * epsilon
    k_u = (2 * d + 2) * np.finfo(np.float64).eps / 2
    norms = np.sqrt(np.einsum("ij,ij->i", E, E))
    reach = np.maximum.accumulate(norms)        # bounds |e| of every earlier row
    # rows 0..q-1 hold the exemplars in creation order
    exemplars, exemplar_ids = np.empty((n, d)), np.empty(n, dtype=np.int64)
    assignments = np.empty(n, dtype=np.int64)
    q = 0
    for start in range(0, n, EPSNET_BLOCK_ROWS):
        X = E[start:start + EPSNET_BLOCK_ROWS]
        b = X.shape[0]
        nearest, owner = np.full(b, np.inf), np.empty(b, dtype=np.int64)
        covered = np.zeros(b, dtype=bool)
        if q:
            tol = 4 * k_u / (1 - k_u) * (norms[start:start + b] + reach[start + b - 1]) ** 2
            approx = pairwise_sq_dists(X, exemplars[:q])
            rows, cols = np.arange(b), approx.argmin(axis=1)
            window = approx[rows, cols] + 2 * tol
            approx[rows, cols] = np.inf             # the other candidates, of few rows
            tied = np.flatnonzero(approx.min(axis=1) <= window)
            more_rows, more = np.nonzero(approx[tied] <= window[tied, None])
            rows, cols = np.r_[rows, tied[more_rows]], np.r_[cols, more]
            exact = _sq_dists(exemplars[cols], X[rows])
            order = np.lexsort((cols, exact, rows))  # least s per row, lowest id on ties
            first = order[np.diff(rows[order], prepend=-1) != 0]
            nearest, owner = exact[first], exemplar_ids[cols[first]]
            covered = nearest <= eps_sq
        r = -1
        while (rest := np.flatnonzero(~covered[r + 1:])).size:
            r += 1 + int(rest[0])
            exemplars[q], exemplar_ids[q], owner[r] = X[r], start + r, start + r
            q += 1
            sq = _sq_dists(X[r], X[r + 1:])
            nearer = sq < nearest[r + 1:]           # strict: the earlier exemplar wins ties
            nearest[r + 1:][nearer], owner[r + 1:][nearer] = sq[nearer], start + r
            covered[r + 1:] |= sq <= eps_sq
        assignments[start:start + b] = owner
    return exemplar_ids[:q].copy(), assignments


def cluster_positions(exemplar_ids, assignments) -> np.ndarray:
    """Position in ``exemplar_ids`` of every point's exemplar."""
    exemplar_ids = np.asarray(exemplar_ids, dtype=np.int64)
    assignments = np.asarray(assignments, dtype=np.int64)
    position = np.full(max(exemplar_ids.max(), assignments.max()) + 1, -1)
    position[exemplar_ids] = np.arange(exemplar_ids.size)
    if (assignments < 0).any() or ((pos := position[assignments]) < 0).any():
        raise ValueError("every assignment must reference an exemplar")
    return pos


def summarize_clusters(cohort_pre: Cohort, grid: EventTimeGrid,
                       assignments: np.ndarray, exemplar_ids: np.ndarray):
    """Per-cluster event counts (Q, L, m) and at-risk counts (Q, L): the
    :func:`~kernelaj.core.count_tables` of the clusters. Summing the tables
    over clusters reproduces the population counts exactly."""
    return count_tables(label_codes(cohort_pre, grid), (len(grid), cohort_pre.m),
                        cluster_positions(exemplar_ids, assignments), np.size(exemplar_ids))


@dataclass(frozen=True)
class ClusterModel:
    """Exemplar embeddings plus per-cluster summary tables.

    ``exemplar_ids`` are distinct training indices in creation order;
    ``assignments[i]`` is the exemplar id of training point i, and each
    exemplar is assigned to itself. ``codes[i]`` is point i's
    :func:`~kernelaj.core.label_codes` code on tables of ``table_shape`` (L, m),
    a label's by :func:`~kernelaj.core.check_labels`; the tables ``d_cluster``
    (Q, L, m) and ``n_cluster`` (Q, L) are counted from the codes here. ``tau`` is the
    prediction-time neighborhood radius in embedding space (not epsilon,
    which prediction never reads); NaN raises ValueError, inf is valid.
    """

    exemplar_ids: np.ndarray
    exemplar_embeddings: np.ndarray
    assignments: np.ndarray
    codes: np.ndarray
    table_shape: tuple
    tau: float
    d_cluster: np.ndarray = field(init=False, repr=False)
    n_cluster: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ids = np.asarray(self.exemplar_ids, dtype=np.int64)
        emb = np.asarray(self.exemplar_embeddings, dtype=np.float64)
        asg = np.asarray(self.assignments, dtype=np.int64)
        codes = np.asarray(self.codes, dtype=np.int64)
        L, m = int(self.table_shape[0]), int(require_int("m", self.table_shape[1], 1))
        Q = ids.size
        if emb.ndim != 2 or emb.shape[0] != Q:
            raise ShapeMismatch("per-exemplar arrays disagree on cluster count")
        if codes.shape != asg.shape:
            raise ShapeMismatch("codes must hold one code per assigned training row")
        if not np.isfinite(emb).all():
            raise ValueError("exemplar embeddings must be finite")
        if require_real("tau", self.tau) <= 0:
            raise ValueError("tau must be positive")
        if (ids.min(initial=0) < 0 or ids.max(initial=-1) >= asg.size
                or np.unique(ids).size != Q or (asg[ids] != ids).any()):
            raise ValueError("exemplar ids must be distinct training rows assigned to themselves")
        # cluster_positions rejects a stray assignment, count_tables a bad code
        d, n = count_tables(codes, (L, m), cluster_positions(ids, asg), Q)
        for name, value in (("exemplar_ids", ids), ("exemplar_embeddings", emb),
                            ("assignments", asg), ("codes", codes), ("table_shape", (L, m)),
                            ("d_cluster", d), ("n_cluster", n)):
            object.__setattr__(self, name, value)

    @property
    def num_clusters(self) -> int:
        return int(self.exemplar_ids.size)

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(cluster_positions(self.exemplar_ids, self.assignments),
                           minlength=self.num_clusters)


def build_cluster_model(embeddings, codes, table_shape, epsilon, tau) -> ClusterModel:
    """The ClusterModel of the epsilon-net of training embeddings whose rows
    carry :func:`~kernelaj.core.label_codes` ``codes`` on tables of
    ``table_shape`` (L, m)."""
    exemplar_ids, assignments = epsilon_net_cluster(embeddings, epsilon)
    E = np.asarray(embeddings, dtype=np.float64)
    return ClusterModel(exemplar_ids, E[exemplar_ids], assignments, codes, table_shape,
                        float(tau))


def exemplar_weights(clusters: ClusterModel, E: np.ndarray) -> np.ndarray:
    """Kernel weights exp(-||e - e_q||^2) of embeddings E (n, d) to every
    exemplar, zero beyond tau, built in place in the buffer of the distances,
    one fixed-block product (:func:`~kernelaj.embedding.pairwise_sq_dists`):
    a row's weights do not depend on the rows passed with it."""
    sq = pairwise_sq_dists(E, clusters.exemplar_embeddings)
    far = sq <= clusters.tau ** 2
    np.logical_not(far, out=far)            # a NaN distance is far, too
    np.exp(np.negative(sq, out=sq), out=sq)
    sq[far] = 0.0
    return sq


def neighbors_within_tau(query_embedding: np.ndarray, model: ClusterModel) -> np.ndarray:
    """Positions (into the exemplar list) of exemplars within tau of the query,
    in exemplar-index order: the exemplars :func:`exemplar_weights` weighs,
    read from the same distances (a far weight may still underflow to 0)."""
    q = np.asarray(query_embedding, dtype=np.float64)
    if q.shape != (model.exemplar_embeddings.shape[1],):
        raise ShapeMismatch("query embedding dimension mismatch")
    sq = pairwise_sq_dists(q[None, :], model.exemplar_embeddings)[0]
    return np.flatnonzero(sq <= model.tau ** 2)
