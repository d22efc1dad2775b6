"""The dense one-hot training step, two-GEMM kernel backward, validation
hazards, scalar Brier score, CIF recursion, NLL, pairwise ranking loss,
n x n concordance risk matrix, per-anchor concordance loop, hand-derived
fine-tuning objective, whole-cohort fine-tuning gradient, whole-batch
ranking recursion with its separate exponential plane, objective summed
from separate NLL and ranking planes, hand-written
criterion checks, stopping rule, list-stacking epsilon-net, sorted-time
counts, per-cluster loops, difference-based neighbor search, ``np.where``
exemplar weights, row-loop cumulative-product backward, counted code-group
tables and per-cell CSV reader and writer that ``kernelaj`` replaced, plus
the scalar kernel, the fine-tuning objective of parameters and the
synthetic generator's closed-form CIF (:func:`oracle_cif`), which only
tests use. The cumulative-product backward is the oracle's own route
through the survival product in its dense ranking backward
(``ranking_value_and_dpsi``): a reverse cumulative sum divided by the
factors, with a loop over the rows holding a zero factor, where
``kernelaj`` takes one reverse pass over the bins.

The functions below are kept verbatim as test oracles: the kernel comes
from E @ E.T, the hazard tables from weight-matrix products with (n, L)
one-hot label matrices, each Brier horizon is scored on its own, each
concordance anchor is counted on its own, the epsilon-net stacks its
exemplar list into an array for every point, event and at-risk counts come
from a scatter of events and a search of the sorted times, neighbors from
explicit embedding differences, the exemplar weights from one ``np.where``
over fresh arrays of the distances, their negation and their exp, the CIF
recursion leaves 1 - sum(h) unfloored, the NLL builds its own at-risk mask,
the ranking loss and its backward pass read dense n x n matrices of
pairwise CIF lookups, the kernel backward multiplies the whole n x n P by
the augmented embeddings in two GEMMs, the fine-tuning objective derives
its likelihood and gradient by hand, the fine-tuning gradient holds the
hazards of every training row at once, the whole-batch ranking runs the
recursion over every row at once and keeps its exponentials in a plane of
their own, the objective sums a separate NLL gradient plane and ranking
gradient plane, a code group's one-row tables are counted from its code,
the cumulative-product backward loops over the rows with a zero factor,
and the CSV reader and writer handle one cell at a time through
``csv.DictReader`` and ``csv.writer`` (the reader's event check also
rejects nan, infinite and out-of-int64 cells, as the package does). Only the shared building blocks that did not change (the
network, the floored CIF recursion, the reverse cumulative sum, the table
counter, the at-risk mask, the fixed-block distances, curve interpolation,
the fine-tuning table parameterization, and the objective, weighted
hazards and ratio backward that the whole-cohort fine-tuning gradient
chains) are imported from the package.
"""

import csv
import math

import numpy as np

from kernelaj.core import (Cohort, StepCurve, cif_from_hazards, count_tables,
                           reverse_cumsum)
from kernelaj.embedding import backward, forward_cached
from kernelaj.embedding import pairwise_sq_dists as blocked_sq_dists
from kernelaj.dataio import RawTable
from kernelaj.errors import (
    DegenerateGrid,
    MissingColumn,
    NoComparablePairs,
    ParseError,
    SchemaMismatch,
    ShapeMismatch,
)
from kernelaj.metrics import BrierResult, build_eval_grid, interpolate_curves
from kernelaj.finetune import sft_counts, sft_objective_from_tables
from kernelaj.model import fallback_weights, weighted_hazards
from kernelaj.training import PSI_CLAMP, _at_risk, _ratio_backward, objective_and_dpsi


def _cif_from_psi(psi):
    """Within-batch survival and CIF values at the grid bins.

    S[i, l] = prod_{a <= l} (1 - sum_d psi[d, i, a]); F[d, i, l] equals the
    cumulative sum of psi * S at the previous bin.
    """
    h_all = psi.sum(axis=0)
    u = 1.0 - h_all
    S = np.cumprod(u, axis=1)
    S_prev = np.concatenate((np.ones((S.shape[0], 1)), S[:, :-1]), axis=1)
    F = np.cumsum(psi * S_prev[None, :, :], axis=2)
    return F, S, S_prev, u


def cif_pair_matrix(cif_curves, kappa):
    """Pairwise CIF lookups C[d, i, j] = F_d(kappa_i | x_j).

    ``cif_curves`` has shape (m, n, L) of within-batch CIF values at the grid
    bins; rows with kappa_i = 0 evaluate to 0 (before the first bin).
    """
    F = np.asarray(cif_curves, dtype=np.float64)
    kappa = np.asarray(kappa, dtype=np.int64)
    m, n, L = F.shape
    kid = np.clip(kappa - 1, 0, L - 1)
    out = np.empty((m, n, n), dtype=np.float64)
    for d in range(m):
        cols = F[d][:, kid]          # (j, i): curve of j at subject i's bin
        out[d] = cols.T
    out[:, kappa == 0, :] = 0.0
    return out


def loss_ranking(cif_pairs, kappa, delta, sigma):
    """Pairwise exponential ranking penalty, normalized by batch size squared.

    ``cif_pairs[d, i, j]`` is the predicted CIF of event d+1 for subject j's
    features at subject i's (discretized) observed time. Pairs count when
    subject i has event d+1 strictly before subject j's time bin.
    """
    C = np.asarray(cif_pairs, dtype=np.float64)
    kappa = np.asarray(kappa, dtype=np.int64)
    delta = np.asarray(delta, dtype=np.int64)
    m, n, _ = C.shape
    total = 0.0
    earlier = kappa[:, None] < kappa[None, :]
    for d in range(m):
        comparable = earlier & (delta == d + 1)[:, None]
        if not comparable.any():
            continue
        own = np.diagonal(C[d])
        diffs = (C[d] - own[:, None]) / sigma
        total += np.exp(diffs[comparable]).sum()
    return float(total / (n * n))


def _ranking_terms(F, kappa, delta, sigma):
    """The ranking loss, one event type at a time.

    ``F`` (m, n, L) holds within-batch CIF values at the grid bins. For each
    event type d with a comparable pair, yields (d, expd) with
    expd[i, j] = exp((F_d(kappa_i | x_j) - F_d(kappa_i | x_i)) / sigma) on the
    pairs where delta_i = d + 1 and kappa_i < kappa_j, and 0 elsewhere.
    """
    m, n, L = F.shape
    kid = np.clip(kappa - 1, 0, L - 1)
    earlier = kappa[:, None] < kappa[None, :]
    for d in range(m):
        comparable = earlier & (delta == d + 1)[:, None]
        if not comparable.any():
            continue
        diff = F[d][:, kid].T                    # (i, j): F_d(kappa_i | x_j)
        diff -= np.diagonal(diff).copy()[:, None]
        diff /= sigma
        yield d, np.exp(diff, out=diff) * comparable


def ranking_value_and_dpsi(psi, kappa, delta, sigma, scale):
    """Ranking loss of a batch plus its gradient w.r.t. the hazard tensor.

    ``psi`` has shape (m, n, L). Returns (value, dpsi) where dpsi already
    carries the factor ``scale`` (the loss value does not). The backward pass
    runs through the CIF cumulative sums and the survival cumulative product.
    """
    m, n, L = psi.shape
    kappa = np.asarray(kappa, dtype=np.int64)
    delta = np.asarray(delta, dtype=np.int64)
    F, S, S_prev, u = cif_from_hazards(psi)
    kid = np.clip(kappa - 1, 0, L - 1)
    onehot = np.zeros((n, L), dtype=np.float64)
    rows = np.flatnonzero(kappa >= 1)
    onehot[rows, kid[rows]] = 1.0
    dF = np.zeros_like(F)
    rank = 0.0
    for d, Gp in _ranking_terms(F, kappa, delta, sigma):
        rank += Gp.sum() / (n * n)
        Gp *= scale / (n * n * sigma)
        dF[d] += Gp.T @ onehot
        dF[d] -= onehot * Gp.sum(axis=1)[:, None]
    dA = reverse_cumsum(dF)
    dpsi = dA * S_prev[None, :, :]
    dS_prev = (dA * psi).sum(axis=0)
    dS = np.concatenate((dS_prev[:, 1:], np.zeros((n, 1))), axis=1)
    du = cumprod_backward(u, S, dS)
    dpsi += (-du)[None, :, :]
    return float(rank), dpsi


def whole_batch_ranking(psi, kappa, delta, sigma, scale):
    """``training.ranking_value_and_dpsi`` with the whole-batch recursion:
    one ``cif_from_hazards`` call over every row, and a separate (n, L)
    plane A per event type, as the package ran it before its recursion went
    to row blocks and A to F's own plane. Bit for bit the package's."""
    m, n, L = psi.shape
    kappa = np.asarray(kappa, dtype=np.int64)
    delta = np.asarray(delta, dtype=np.int64)
    F, _, S_prev, u = cif_from_hazards(psi)
    dF = F
    rank = 0.0
    c = scale / (n * n * sigma)
    later = kappa[:, None] > np.arange(1, L + 1)[None, :]   # kappa_j > l + 1
    for d in range(m):
        rows = np.flatnonzero(delta == d + 1)
        if rows.size == 0:
            dF[d] = 0.0
            continue
        bins = kappa[rows] - 1
        A = np.where(later, F[d], -np.inf)
        shift = A.max(axis=0)
        shift[shift == -np.inf] = 0.0                      # bins nobody outlives
        A -= shift
        A /= sigma
        np.exp(A, out=A)
        B = np.exp((shift[bins] - F[d][rows, bins]) / sigma)
        BT = B * A.sum(axis=0)[bins]
        rank += BT.sum() / (n * n)
        np.multiply(A, c * np.bincount(bins, weights=B, minlength=L), out=dF[d])
        dF[d, rows, bins] -= c * BT
    dA, g = np.zeros((m, n)), np.zeros(n)
    for a in range(L - 1, -1, -1):
        dA += dF[:, :, a]
        dF[:, :, a] = S_prev[:, a] * (dA - g)
        g = (dA * psi[:, :, a]).sum(axis=0) + u[:, a] * g
    return float(rank), dF


def separate_planes_objective(psi, kappa, delta, alpha, sigma):
    """``training.objective_and_dpsi`` as two planes summed: the NLL's
    dLoss/dpsi in a plane of its own, plus :func:`whole_batch_ranking`'s,
    as the package composed them before the NLL gradient went into the
    ranking's plane. Bit for bit the package's."""
    m, n, L = psi.shape
    at_risk = _at_risk(kappa, L)
    unc = np.flatnonzero(delta != 0)
    own = psi[delta[unc] - 1, unc, kappa[unc] - 1]
    log_total = np.log(np.clip(own, PSI_CLAMP, 1.0)).sum()
    hazard_total = np.multiply(psi, at_risk[None, :, :]).sum()
    nll = float(-(log_total - hazard_total) / n)
    dpsi = np.divide(at_risk[None, :, :], n, out=np.empty_like(psi))
    live = own > PSI_CLAMP
    idx = unc[live]
    dpsi[delta[idx] - 1, idx, kappa[idx] - 1] -= 1.0 / (n * own[live])
    dpsi *= alpha

    rank = 0.0
    if alpha < 1.0:
        rank, dpsi_rank = whole_batch_ranking(psi, kappa, delta, sigma, scale=1.0 - alpha)
        dpsi += dpsi_rank
    return alpha * nll + (1.0 - alpha) * rank, dpsi


def risk_matrix_from_curves(curve_values, knot_times, eval_at_times) -> np.ndarray:
    """R[i, j] = linear-interpolated curve of subject j at subject i's time."""
    cols = interpolate_curves(curve_values, knot_times, eval_at_times)
    return cols.T


def pairwise_sq_dists(E1: np.ndarray, E2=None) -> np.ndarray:
    """Squared Euclidean distances between embedding rows, clipped at 0."""
    E1 = np.asarray(E1, dtype=np.float64)
    E2 = E1 if E2 is None else np.asarray(E2, dtype=np.float64)
    if E1.shape[1] != E2.shape[1]:
        raise ShapeMismatch("embedding dimensions differ")
    sq1 = (E1 * E1).sum(axis=1)[:, None]
    sq2 = (E2 * E2).sum(axis=1)[None, :]
    d2 = sq1 + sq2 - 2.0 * (E1 @ E2.T)
    return np.maximum(d2, 0.0)


def kernel_matrix(E1: np.ndarray, E2=None) -> np.ndarray:
    """exp(-||e_i - e_j||^2) for all row pairs."""
    return np.exp(-pairwise_sq_dists(E1, E2))


def _label_matrices(kappa, delta, m, L):
    """Event one-hots (m, n, L) and the at-risk mask (n, L).

    at_risk[i, l] = 1{kappa_i >= l + 1}, which is also the indicator of bins
    whose hazards enter subject i's likelihood term.
    """
    kappa = np.asarray(kappa, dtype=np.int64)
    delta = np.asarray(delta, dtype=np.int64)
    n = kappa.size
    evt = np.zeros((m, n, L), dtype=np.float64)
    unc = delta != 0
    if unc.any():
        idx = np.flatnonzero(unc)
        evt[delta[idx] - 1, idx, kappa[idx] - 1] = 1.0
    at_risk = (np.arange(1, L + 1)[None, :] <= kappa[:, None]).astype(np.float64)
    return evt, at_risk


def _psi_from_weights(weights, evt, at_risk):
    """Hazard ratios from a (q, n_ref) weight matrix against reference labels.

    Returns psi (m, q, L), the numerators and denominators, and the mask of
    bins with positive denominator (zero-denominator entries yield psi = 0).
    """
    m = evt.shape[0]
    den = weights @ at_risk
    pos = den > 0
    inv_den = np.where(pos, 1.0 / np.where(pos, den, 1.0), 0.0)
    num = np.stack([weights @ evt[d] for d in range(m)])
    psi = num * inv_den[None, :, :]
    return psi, num, den, pos, inv_den


def loss_nll(psi, kappa, delta):
    """Negative mean leave-one-out log likelihood of a batch.

    ``psi`` has shape (batch, m, L); hazards are clamped to [1e-12, 1]
    before the log so zero-hazard event bins stay finite.
    """
    psi_t = np.transpose(np.asarray(psi, dtype=np.float64), (1, 0, 2))
    kappa = np.asarray(kappa, dtype=np.int64)
    delta = np.asarray(delta, dtype=np.int64)
    m, n, L = psi_t.shape
    _, at_risk = _label_matrices(kappa, delta, m, L)
    log_total = 0.0
    unc = np.flatnonzero(delta != 0)
    if unc.size:
        own = psi_t[delta[unc] - 1, unc, kappa[unc] - 1]
        log_total = np.log(np.clip(own, PSI_CLAMP, 1.0)).sum()
    hazard_total = (psi_t * at_risk[None, :, :]).sum()
    return float(-(log_total - hazard_total) / n)


def loo_hazards(embeddings, kappa, delta, num_event_types, num_bins):
    """Leave-one-out kernel hazard tensor for a minibatch.

    Returns psi with shape (batch, m, L) and a boolean mask of (batch, L)
    entries whose at-risk denominator was zero (those psi entries are 0 and
    are clamped downstream before logs).
    """
    E = np.asarray(embeddings, dtype=np.float64)
    if E.shape[0] < 2:
        raise ShapeMismatch("leave-one-out hazards need a batch of size >= 2")
    K = kernel_matrix(E)
    W = K.copy()
    np.fill_diagonal(W, 0.0)
    evt, at_risk = _label_matrices(kappa, delta, num_event_types, num_bins)
    psi, _, _, pos, _ = _psi_from_weights(W, evt, at_risk)
    return np.transpose(psi, (1, 0, 2)), ~pos


def batch_loss_from_params(params, X, kappa, delta, m, L, alpha, sigma):
    """Forward-only total loss of a minibatch (used by finite differences)."""
    E, _ = forward_cached(params, X)
    K = kernel_matrix(E)
    W = K.copy()
    np.fill_diagonal(W, 0.0)
    evt, at_risk = _label_matrices(kappa, delta, m, L)
    psi, _, _, _, _ = _psi_from_weights(W, evt, at_risk)
    nll = loss_nll(np.transpose(psi, (1, 0, 2)), kappa, delta)
    rank = 0.0
    if alpha < 1.0:
        F, _, _, _ = _cif_from_psi(psi)
        rank = loss_ranking(cif_pair_matrix(F, kappa), kappa, delta, sigma)
    return alpha * nll + (1.0 - alpha) * rank


def total_loss_and_grad(params, X, kappa, delta, m, L, alpha, sigma):
    """Total loss of a minibatch and exact gradients for every parameter.

    Returns (loss, weight_grads, bias_grads). The backward pass runs through
    the leave-one-out hazard ratios, the survival cumulative product, the
    pairwise ranking comparisons, the kernel matrix, and the network.
    """
    X = np.asarray(X, dtype=np.float64)
    kappa = np.asarray(kappa, dtype=np.int64)
    delta = np.asarray(delta, dtype=np.int64)
    n = X.shape[0]
    if n < 2:
        raise ShapeMismatch("batch must contain at least 2 subjects")

    E, cache = forward_cached(params, X)
    K = kernel_matrix(E)
    W = K.copy()
    np.fill_diagonal(W, 0.0)
    evt, at_risk = _label_matrices(kappa, delta, m, L)
    psi, num, den, pos, inv_den = _psi_from_weights(W, evt, at_risk)

    unc = np.flatnonzero(delta != 0)
    own = psi[delta[unc] - 1, unc, kappa[unc] - 1] if unc.size else np.empty(0)
    log_total = np.log(np.clip(own, PSI_CLAMP, 1.0)).sum() if unc.size else 0.0
    hazard_total = (psi * at_risk[None, :, :]).sum()
    nll = float(-(log_total - hazard_total) / n)

    # dNLL / dpsi
    dpsi = np.tile((at_risk / n)[None, :, :], (m, 1, 1))
    if unc.size:
        live = own > PSI_CLAMP
        idx = unc[live]
        dpsi[delta[idx] - 1, idx, kappa[idx] - 1] -= 1.0 / (n * own[live])
    dpsi *= alpha

    rank = 0.0
    if alpha < 1.0:
        rank, dpsi_rank = ranking_value_and_dpsi(psi, kappa, delta, sigma,
                                                 scale=1.0 - alpha)
        dpsi += dpsi_rank

    # psi = num / den  (zero where den == 0, locally constant there)
    dnum = dpsi * inv_den[None, :, :]
    dden = -(dnum * psi).sum(axis=0)
    dW = dden @ at_risk.T
    for d in range(m):
        dW += dnum[d] @ evt[d].T
    np.fill_diagonal(dW, 0.0)

    M = (dW + dW.T) * K
    np.fill_diagonal(M, 0.0)
    dE = -2.0 * (M.sum(axis=1)[:, None] * E - M @ E)
    dw, db = backward(params, cache, dE)
    return alpha * nll + (1.0 - alpha) * rank, dw, db


def kernel_matrix_backward(E, P):
    """dLoss/dE given P = dLoss/dK * K, from two GEMMs over the whole of P:
    P [E, 1] and [E, 1]^T P. P's diagonal is set to 0 in place."""
    np.fill_diagonal(P, 0.0)
    Ea = np.hstack((E, np.ones((E.shape[0], 1))))
    S = P @ Ea
    S += (Ea.T @ P).T
    return -2.0 * (S[:, -1:] * E - S[:, :-1])


def kernel_hazard_curves(E_query, E_ref, kappa_ref, delta_ref, m, L):
    """Kernel-weighted hazards and CIF curves of query points vs a reference
    set (no leave-one-out; queries are assumed disjoint from the reference).

    Returns (psi (m, q, L), F (m, q, L), S (q, L)).
    """
    Kq = kernel_matrix(np.asarray(E_query, np.float64), np.asarray(E_ref, np.float64))
    evt, at_risk = _label_matrices(kappa_ref, delta_ref, m, L)
    psi, _, _, _, _ = _psi_from_weights(Kq, evt, at_risk)
    F, S, _, _ = _cif_from_psi(psi)
    return psi, F, S


def code_tables(kappa, delta, m, L):
    """One-row tables (d (U, L, m), n (U, L)) of code groups with labels
    (kappa, delta): ``core.count_tables`` of the group codes, one group per
    code, the counting that ``training`` once ran for every code of a grid."""
    codes = np.asarray(kappa, np.int64) * (m + 1) + np.asarray(delta, np.int64)
    return count_tables(codes, (L, m), np.arange(codes.size), codes.size)


def _pooled_fallback(weights):
    """A copy of ``weights`` in which every row with no positive weight weighs
    every column 1, so that it reads the pooled tables: the rule for a row
    with no exemplar within tau, stated here apart from the package's."""
    W = np.array(weights, dtype=np.float64)
    W[~(W > 0).any(axis=1)] = 1.0
    return W


def clustered_hazard_curves(E_query, E_train, kappa, delta, m, L, epsilon, tau):
    """Hazards and CIF curves of query points under the clustered model: each
    training row weighted by its exemplar's kernel weight, zero beyond tau,
    so that a cluster's weight multiplies its member rows' labels; a query
    row with no weight weighs every training row 1 (the pooled labels).

    Returns (psi (m, q, L), F (m, q, L), fallback (q,)), ``fallback`` marking
    the query rows with no weight.
    """
    _, assignments = epsilon_net_cluster(E_train, epsilon)
    E_owner = np.asarray(E_train, np.float64)[assignments]
    W = np.where(pairwise_sq_dists(E_query, E_owner) <= tau * tau,
                 kernel_matrix(E_query, E_owner), 0.0)
    evt, at_risk = _label_matrices(kappa, delta, m, L)
    psi, _, _, _, _ = _psi_from_weights(_pooled_fallback(W), evt, at_risk)
    F, _, _, _ = _cif_from_psi(psi)
    return psi, F, ~W.any(axis=1)


def table_objective(d, n, weights, kappa, delta, alpha, sigma):
    """alpha * NLL + (1 - alpha) * ranking of count tables d (Q, L, m) and
    n (Q, L) under exemplar weights (q, Q), over every row; a row with no
    positive weight takes the hazards of the summed tables."""
    W = np.asarray(weights, dtype=np.float64)
    D, N = np.tensordot(W, d, axes=(1, 0)), W @ n        # (q, L, m), (q, L)
    empty = ~(W > 0).any(axis=1)
    D[empty], N[empty] = d.sum(axis=0), n.sum(axis=0)
    pos = N > 0
    hazards = np.where(pos[:, :, None], D / np.where(pos, N, 1.0)[:, :, None], 0.0)
    F, _, _, _ = _cif_from_psi(np.transpose(hazards, (2, 0, 1)))
    return (alpha * loss_nll(np.transpose(hazards, (0, 2, 1)), kappa, delta)
            + (1.0 - alpha) * loss_ranking(cif_pair_matrix(F, kappa), kappa, delta, sigma))


def brier_score(cif_values, cohort: Cohort, delta: int, t: float,
                censor_curve: StepCurve) -> BrierResult:
    """Censoring-weighted Brier score for event ``delta`` at horizon ``t``.

    ``cif_values[i]`` is the predicted F_delta(t | X_i). Subjects whose
    required censoring-survival weight is zero are dropped from the sum (but
    not from the denominator n) and reported in ``n_excluded``.
    """
    F = np.asarray(cif_values, dtype=np.float64)
    n = cohort.n
    if F.shape != (n,):
        raise ShapeMismatch(f"expected {n} predictions, got shape {F.shape}")
    y, ev = cohort.time, cohort.event

    had_event = (ev == delta) & (y <= t)
    had_competing = (ev != delta) & (ev != 0) & (y <= t)
    at_risk = y > t

    w_past = censor_curve.eval_left(y)
    w_now = censor_curve(t)

    total = 0.0
    excluded = 0
    for mask, sq, w in (
        (had_event, (1.0 - F) ** 2, w_past),
        (had_competing, F ** 2, w_past),
        (at_risk, F ** 2, np.full(n, w_now)),
    ):
        w = np.broadcast_to(np.asarray(w, dtype=np.float64), (n,))
        usable = mask & (w > 0)
        excluded += int((mask & (w <= 0)).sum())
        total += (sq[usable] / w[usable]).sum()
    return BrierResult(value=float(total / n), n_excluded=excluded)


def _sft_objective(params, weights, kappa, delta, alpha, sigma, want_grad):
    W = _pooled_fallback(weights)
    kap, dl = np.asarray(kappa, dtype=np.int64), np.asarray(delta, dtype=np.int64)
    n = kap.size
    d_prime, n_prime = sft_counts(params)
    Q, L, m = d_prime.shape
    D = np.tensordot(W, d_prime, axes=(1, 0))        # (n, L, m)
    N = W @ n_prime                                  # (n, L)
    at_risk = _at_risk(kap, L)

    unc = np.flatnonzero(dl != 0)
    log_total = 0.0
    if unc.size:
        own_d = D[unc, kap[unc] - 1, dl[unc] - 1]
        own_n = N[unc, kap[unc] - 1]
        log_total = (np.log(own_d) - np.log(own_n)).sum()
    hazards = D / N[:, :, None]
    hazard_total = (hazards * at_risk[:, :, None]).sum()
    nll = float(-(log_total - hazard_total) / n)

    rank = 0.0
    psi = np.transpose(hazards, (2, 0, 1))           # (m, n, L)
    if alpha < 1.0:
        rank, dpsi_rank = ranking_value_and_dpsi(psi, kap, dl, sigma,
                                                 scale=1.0 - alpha)
    loss = alpha * nll + (1.0 - alpha) * rank
    if not want_grad:
        return loss, None

    # dLoss/dD and dLoss/dN, starting from the likelihood terms.
    G_D = np.tile(((alpha / n) * (at_risk / N))[:, :, None], (1, 1, m))
    G_N = -(alpha / n) * (at_risk * D.sum(axis=2) / (N * N))
    if unc.size:
        G_D[unc, kap[unc] - 1, dl[unc] - 1] -= (alpha / n) / own_d
        G_N[unc, kap[unc] - 1] += (alpha / n) / own_n
    if alpha < 1.0:
        dhaz = np.transpose(dpsi_rank, (1, 2, 0))    # (n, L, m)
        G_D += dhaz / N[:, :, None]
        G_N += -(dhaz * D).sum(axis=2) / (N * N)

    dd_prime = np.tensordot(W.T, G_D, axes=(1, 0))   # (Q, L, m)
    dn_prime = W.T @ G_N                             # (Q, L)
    shed_grad = np.cumsum(dn_prime, axis=1)          # n' is a reversed cumsum
    dd_prime = dd_prime + shed_grad[:, :, None]
    dc_prime = shed_grad

    grads = (
        dd_prime * np.exp(params.gamma),
        (dd_prime * np.exp(params.gamma_baseline)[None, :, :]).sum(axis=0),
        dc_prime * np.exp(params.omega),
        (dc_prime * np.exp(params.omega_baseline)[None, :]).sum(axis=0),
    )
    return loss, grads


def sft_loss_and_grad(params, weights, kappa, delta, alpha=1.0, sigma=1.0):
    """``finetune.sft_loss_and_grad`` over the whole cohort at once: psi,
    dLoss/dpsi and 1/N hold every row, and the loss and dLoss/dpsi are the
    objective's mean over all n rows."""
    W, _ = fallback_weights(weights)
    kap, dl = np.asarray(kappa, np.int64), np.asarray(delta, np.int64)
    d_prime, n_prime = sft_counts(params)
    psi, inv_N = weighted_hazards((d_prime, n_prime), W)
    loss, dpsi = objective_and_dpsi(psi, kap, dl, alpha, sigma)
    dD, dN = _ratio_backward(dpsi, psi, inv_N)
    dd_prime = (W.T @ dD).transpose(1, 2, 0)         # (Q, L, m)
    dc_prime = np.cumsum(W.T @ dN, axis=1)           # n' is a reversed cumsum
    dd_prime += dc_prime[:, :, None]
    return loss, (
        dd_prime * np.exp(params.gamma),
        (dd_prime * np.exp(params.gamma_baseline)[None, :, :]).sum(axis=0),
        dc_prime * np.exp(params.omega),
        (dc_prime * np.exp(params.omega_baseline)[None, :]).sum(axis=0),
    )


def kernel(e1, e2) -> float:
    """Similarity of two embeddings in (0, 1]; 1 iff the embeddings match."""
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    if e1.shape != e2.shape:
        raise ShapeMismatch(f"embedding shapes differ: {e1.shape} vs {e2.shape}")
    diff = e1 - e2
    return float(np.exp(-(diff @ diff)))


def sft_negative_log_likelihood(params, weights, kappa, delta, alpha=1.0, sigma=1.0):
    """``sft_objective_from_tables`` of the tables the parameters derive."""
    return sft_objective_from_tables(*sft_counts(params), weights, kappa, delta,
                                     alpha, sigma)


def check_criterion(criterion, train, valid):
    """The hand-written feasibility checks of the validation criterion: ctd
    needs, for every event type, a validation event before the last
    validation time; IBS needs at least 2 evaluation times on the pooled
    event times."""
    if criterion == "ctd":
        last = valid.time.max()
        for d in range(1, train.m + 1):
            if not (valid.time[valid.event == d] < last).any():
                raise NoComparablePairs(
                    f"validation cohort has no comparable pairs for event {d}")
    if criterion == "ibs":
        pooled = np.concatenate(
            (train.time[train.event != 0], valid.time[valid.event != 0]))
        if len(build_eval_grid(pooled)) < 2:
            raise DegenerateGrid("the IBS criterion needs at least 2 evaluation times")


def criterion_is_improvement(criterion, value, best):
    """The per-loop stopping rule: any value beats a NaN best; ctd is
    higher-better, every other criterion lower-better, both strict."""
    if np.isnan(best):
        return True
    if criterion == "ctd":
        return value > best
    return value < best


def risk_event_counts(cohort_pre, grid):
    """Event counts d (L, m) scattered by each event's grid time, and
    at-risk counts n (L,) from a search of the sorted observed times."""
    L, m = len(grid), cohort_pre.m
    d = np.zeros((L, m), dtype=np.float64)
    uncensored = cohort_pre.event != 0
    if uncensored.any():
        ell = np.searchsorted(grid.times, cohort_pre.time[uncensored])
        np.add.at(d, (ell, cohort_pre.event[uncensored] - 1), 1.0)
    sorted_times = np.sort(cohort_pre.time)
    n_at_risk = cohort_pre.n - np.searchsorted(sorted_times, grid.times, side="left")
    return d, n_at_risk.astype(np.float64)


def neighbors_within_tau(query_embedding, model):
    """Positions of the exemplars within tau of the query, from explicit
    differences to every exemplar."""
    diff = model.exemplar_embeddings - np.asarray(query_embedding, dtype=np.float64)
    sq = np.einsum("qd,qd->q", diff, diff)
    return np.flatnonzero(sq <= model.tau * model.tau)


def exemplar_weights(clusters, E):
    """Kernel weights of embeddings E to every exemplar, zero beyond tau."""
    sq = blocked_sq_dists(E, clusters.exemplar_embeddings)
    return np.where(sq <= clusters.tau ** 2, np.exp(-sq), 0.0)


def concordance_td(risk_matrix, cohort, delta):
    """Concordant fraction over comparable pairs, one anchor subject at a
    time: ``risk_matrix[i, j]`` holds F_delta(Y_i | X_j)."""
    R = np.asarray(risk_matrix, dtype=np.float64)
    concordant = 0
    ties = 0
    comparable = 0
    for i in np.flatnonzero(cohort.event == delta):
        later = cohort.time > cohort.time[i]
        if not later.any():
            continue
        r_i = R[i, i]
        r_j = R[i, later]
        concordant += int((r_i > r_j).sum())
        ties += int((r_i == r_j).sum())
        comparable += int(later.sum())
    if comparable == 0:
        raise NoComparablePairs(f"no comparable pairs for event {delta}")
    return (concordant + 0.5 * ties) / comparable


def epsilon_net_cluster(embeddings, epsilon):
    """The sequential greedy epsilon-net pass with its exemplars in a Python
    list, stacked into an array again for every point."""
    E = np.asarray(embeddings, dtype=np.float64)
    n = E.shape[0]
    eps_sq = epsilon * epsilon
    exemplar_ids = [0]
    exemplar_rows = [E[0]]
    assignments = np.empty(n, dtype=np.int64)
    assignments[0] = 0
    for i in range(1, n):
        ex = np.asarray(exemplar_rows)
        diff = ex - E[i]
        sq = np.einsum("qd,qd->q", diff, diff)
        nearest = int(np.argmin(sq))
        if sq[nearest] <= eps_sq:
            assignments[i] = exemplar_ids[nearest]
        else:
            exemplar_ids.append(i)
            exemplar_rows.append(E[i])
            assignments[i] = i
    return np.asarray(exemplar_ids, dtype=np.int64), assignments


def summarize_clusters(cohort_pre, grid, assignments, exemplar_ids):
    """Per-cluster (d, n) tables, one member cohort per cluster."""
    exemplar_ids = np.asarray(exemplar_ids, dtype=np.int64)
    assignments = np.asarray(assignments, dtype=np.int64)
    Q, L, m = exemplar_ids.size, len(grid), cohort_pre.m
    d_cluster = np.zeros((Q, L, m), dtype=np.float64)
    n_cluster = np.zeros((Q, L), dtype=np.float64)
    for qi, q in enumerate(exemplar_ids):
        members = np.flatnonzero(assignments == q)
        d, n = risk_event_counts(cohort_pre.subset(members), grid)
        d_cluster[qi] = d
        n_cluster[qi] = n
    return d_cluster, n_cluster


def cluster_sizes(exemplar_ids, assignments):
    return np.array([(assignments == q).sum() for q in exemplar_ids], dtype=np.int64)


def cluster_feature_means(features, exemplar_ids, assignments):
    return np.vstack([features[assignments == q].mean(axis=0) for q in exemplar_ids])


def cumprod_backward(u, P, dP):
    """Exact gradient of a row-wise cumulative product, one loop iteration
    per row with a zero factor: P = cumprod(u, axis=1), upstream dLoss/dP;
    returns dLoss/du."""
    rc = reverse_cumsum(dP * P)
    safe_u = np.where(u != 0.0, u, 1.0)
    du = rc / safe_u
    zero_rows = np.flatnonzero((u == 0.0).any(axis=1))
    for r in zero_rows:
        z = int(np.argmax(u[r] == 0.0))
        du[r, z + 1:] = 0.0
        prefix = P[r, z - 1] if z > 0 else 1.0
        tail = np.concatenate(([1.0], np.cumprod(u[r, z + 1:])))
        du[r, z] = float((dP[r, z:] * prefix * tail).sum())
    return du


def load_cohort(path, schema_spec: dict, time_column: str, event_column: str) -> RawTable:
    """The per-cell CSV reader: one ``csv.DictReader`` dict and one
    ``float`` call per cell."""
    for kind in schema_spec.values():
        if kind not in ("continuous", "categorical", "binary"):
            raise SchemaMismatch(f"unknown column kind '{kind}'")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for col in list(schema_spec) + [time_column, event_column]:
            if col not in header:
                raise MissingColumn(f"column '{col}' not found in {path}")
        columns = {name: [] for name in schema_spec}
        times, events = [], []
        for rownum, row in enumerate(reader, start=2):
            times.append(_parse_time(row[time_column], rownum, time_column))
            events.append(_parse_event(row[event_column], rownum, event_column))
            for name, kind in schema_spec.items():
                cell = row[name]
                if cell is None or cell.strip() in ("", "NA"):
                    columns[name].append(None)
                elif kind == "continuous":
                    columns[name].append(_parse_feature(cell, rownum, name))
                else:
                    columns[name].append(cell.strip())
    if not times:
        raise ParseError(f"no data rows in {path}")
    return RawTable(columns, np.array(times, dtype=np.float64),
                    np.array(events, dtype=np.int64))


def _parse_float(cell, rownum, colname) -> float:
    try:
        return float(cell)
    except (TypeError, ValueError):
        raise ParseError(f"cannot parse '{cell}' as a number "
                         f"(row {rownum}, column '{colname}')") from None


def _parse_time(cell, rownum, colname) -> float:
    value = _parse_float(cell, rownum, colname)
    if math.isnan(value) or math.isinf(value) or value < 0:
        raise ParseError(f"time must be a finite nonnegative number, got "
                         f"'{cell}' (row {rownum}, column '{colname}')")
    return value


def _parse_feature(cell, rownum, colname) -> float:
    value = _parse_float(cell, rownum, colname)
    if math.isnan(value) or math.isinf(value):
        raise ParseError(f"feature must be a finite number, got "
                         f"'{cell}' (row {rownum}, column '{colname}')")
    return value


def _parse_event(cell, rownum, colname) -> int:
    value = _parse_float(cell, rownum, colname)
    if not math.isfinite(value) or value != int(value) or value < 0 or value >= 2 ** 63:
        raise ParseError(f"event indicator must be a nonnegative integer, got "
                         f"'{cell}' (row {rownum}, column '{colname}')")
    return int(value)


def write_cohort_csv(cohort: Cohort, path):
    """The per-row CSV writer: ``repr(float(v))`` per cell and one
    ``csv.writer.writerow`` per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(cohort.p)] + ["time", "event"])
        for i in range(cohort.n):
            row = [repr(float(v)) for v in cohort.features[i]]
            writer.writerow(row + [repr(float(cohort.time[i])), int(cohort.event[i])])


def write_csv(path, header, columns, newline="\n"):
    """The per-cell table writer: the header through ``csv.writer``, then
    one ``write`` per row of its cells joined by commas, each cell
    ``repr(float(v))``, ``str(int(v))`` or ``str(v)`` by the column's type."""
    columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator=newline).writerow(header)
        for i in range(len(columns[0])):
            fh.write(",".join(_cell(v) for c in columns for v in c[i]) + newline)


def _cell(v) -> str:
    if isinstance(v, np.floating):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def oracle_cif(cfg, x, delta, t):
    """Closed-form CIF of ``dataio.generate_synthetic`` for its config cfg:
    F_delta(t | x) = (lam_delta / lam) * (1 - exp(-lam * t)), with
    lam_k = exp(w_k . x) and lam = lam_1 + lam_2. Rows x (n, p) at times
    t (T,) give an (n, T) array; one row (p,) at one time gives a float."""
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    lam1 = np.exp(X @ np.asarray(cfg.w1))[:, None]
    lam2 = np.exp(X @ np.asarray(cfg.w2))[:, None]
    lam = lam1 + lam2
    lam_d = lam1 if delta == 1 else lam2
    F = (lam_d / lam) * (1.0 - np.exp(-lam * np.atleast_1d(t)[None, :]))
    return float(F[0, 0]) if np.ndim(x) == 1 and np.ndim(t) == 0 else F
