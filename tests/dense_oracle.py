"""The dense one-hot training step, validation hazards, scalar Brier
score, CIF recursion, NLL, pairwise ranking loss and hand-derived fine-tuning
objective that ``kernelaj`` replaced.

The functions below are kept verbatim as test oracles: the kernel comes
from E @ E.T, the hazard tables from weight-matrix products with (n, L)
one-hot label matrices, each Brier horizon is scored on its own, the CIF
recursion leaves 1 - sum(h) unfloored, the NLL builds its own at-risk mask,
the ranking loss and its backward pass read dense n x n matrices of
pairwise CIF lookups, and the fine-tuning objective derives its likelihood
and gradient by hand. Only the shared building blocks that did not change
(the network, the floored CIF recursion, the cumulative-product backward,
the at-risk mask and the fine-tuning table parameterization) are imported
from the package.
"""

import numpy as np

from kernelaj.core import Cohort, StepCurve, cif_from_hazards
from kernelaj.embedding import backward, forward_cached
from kernelaj.errors import ShapeMismatch
from kernelaj.metrics import BrierResult
from kernelaj.finetune import _active_rows, sft_counts
from kernelaj.training import (
    PSI_CLAMP,
    _at_risk,
    _cumprod_backward,
    _reverse_cumsum,
    total_loss,
)


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
    dA = _reverse_cumsum(dF, axis=2)
    dpsi = dA * S_prev[None, :, :]
    dS_prev = (dA * psi).sum(axis=0)
    dS = np.concatenate((dS_prev[:, 1:], np.zeros((n, 1))), axis=1)
    du = _cumprod_backward(u, S, dS)
    dpsi += (-du)[None, :, :]
    return float(rank), dpsi


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
    return total_loss(nll, rank, alpha)


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
    loss = total_loss(nll, rank, alpha)
    return loss, dw, db


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
    W, kap, dl = _active_rows(weights, kappa, delta)
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
