"""Time discretization, kernel-weighted leave-one-out hazards, the training
losses, and the minibatch gradient-descent loop for the embedding network.

Loss layout
-----------
For a minibatch with embeddings e_1..e_n, kernel weights K_ij, time-bin
indices kappa_i in {0..L} (0 = censored before the first bin) and event
indicators delta_i in {0..m}:

    psi[i, d, l] = sum_{j != i} 1{delta_j = d, kappa_j = l} K_ij
                   / sum_{j != i} 1{kappa_j >= l} K_ij

The negative log likelihood averages, over the batch,

    - [ 1{delta_i = d} log psi[i, d, kappa_i] - sum_{l <= kappa_i} psi[i, d, l] ]

summed over event types d. The ranking loss compares, for every ordered pair
with delta_i = d and kappa_i < kappa_j, the within-batch CIF estimates at
subject i's bin via exp((F_d(kappa_i | x_j) - F_d(kappa_i | x_i)) / sigma),
normalized by n^2. The total loss is alpha * NLL + (1 - alpha) * ranking.
``objective_and_dpsi`` maps a hazard tensor psi to this loss and dLoss/dpsi;
the minibatch step and summary fine-tuning call it, and the objective
criterion and the fine-tuning criterion call its forward, ``objective_value``.

A pair's term depends on i only through its bin l = kappa_i - 1 and its own
value F_d(l | x_i), so the ranking loss factors per bin. With M_l the largest
F_d(l | x_j) over the rows at risk past bin l,

    A[j, l] = exp((F_d(l | x_j) - M_l) / sigma) 1{kappa_j > l + 1},
    T_l     = sum_j A[j, l],   B_i = exp((M_l - F_d(l | x_i)) / sigma),

and the loss of event d is sum_{i: delta_i = d} B_i T_{kappa_i - 1} / n^2.
Its gradient puts A[j, l] times the bin's sum of B on every cell and takes
B_i T_{kappa_i - 1} off row i's own cell, so the forward and backward cost
O(m n L) with no n x n array. The shift keeps A <= 1, and B_i equals row
i's largest pairwise term, so nothing overflows that the pairwise sum would
not.

Hazard tables
-------------
Both sums depend on j only through the pair (kappa_j, delta_j). The step
therefore stable-sorts the batch by code = kappa * (m + 1) + delta, so the
rows of each (bin, event) group are adjacent, and builds the zero-diagonal
kernel matrix W once in that order. One ``np.add.reduceat`` over W's columns
gives G[i, u], the weight of row i on group u. The numerators are the columns
of the event groups; the denominators add the groups of each bin and take a
reverse cumulative sum over bins. The validation criterion does the same
against the training set, with the training rows sorted before the kernel
is built.

In the backward pass dLoss/dW[i, j] is again a function of j's group: a
prefix sum over the at-risk bins plus j's own event cell. It is built as an
(n, groups) table and repeated by group size; with P = dW * W the embedding
gradient is -2 ((rowsum P + colsum P) e_i - (P E)_i - (P^T E)_i). Loss and
gradients are sums over rows, so the sort changes only rounding.

Leave-one-out sums run over the current minibatch only, so batch composition
affects the loss; shuffling is seeded and the loop is deterministic. All
gradients are exact hand-derived reverse-mode; finite differences are used
only as a test oracle.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    Cohort,
    EventTimeGrid,
    breslow_preprocess,
    cif_from_hazards,
    safe_reciprocal,
)
from .embedding import (
    EmbeddingConfig,
    MlpParams,
    backward,
    embed_batch,
    flatten_grads,
    flatten_params,
    forward_cached,
    init_mlp,
    kernel_matrix,
    kernel_matrix_backward,
    unflatten_params,
)
from .errors import DegenerateGrid, NoComparablePairs, NoEvents, ShapeMismatch
from .metrics import (
    EvalGrid,
    brier_scores,
    build_eval_grid,
    censoring_survival,
    concordance_td_from_curves,
    integrated_brier,
    interpolate_curves,
    ipcw_weights,
)

PSI_CLAMP = 1e-12
MAX_TIME_STEPS = 512
CRITERION_BLOCK_ROWS = 256

_CRITERIA = ("objective", "ibs", "ctd")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for embedding training and early stopping."""

    learning_rate: float = 0.01
    batch_size: int = 1024
    max_epochs: int = 1000
    patience: int = 10
    alpha: float = 1.0
    sigma: float = 1.0
    momentum: float = 0.0
    num_time_steps: int = 0
    early_stop_criterion: str = "objective"
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.max_epochs < 1 or self.patience < 1:
            raise ValueError("max_epochs and patience must be >= 1")
        if self.num_time_steps < 0:
            raise ValueError("num_time_steps must be >= 0")
        if self.early_stop_criterion not in _CRITERIA:
            raise ValueError(f"early_stop_criterion must be one of {_CRITERIA}")


@dataclass(frozen=True)
class DiscreteTimeMap:
    """Mapping from raw observed times to representative time bins.

    ``grid`` holds the representative times r_1 < ... < r_k. ``apply`` snaps
    a cohort with :func:`core.breslow_preprocess`: every time maps to the
    largest representative <= it, and an event below r_1 to the first bin.
    """

    grid: EventTimeGrid
    source_grid_size: int

    def apply(self, cohort: Cohort):
        """Snap a cohort's times onto the representative grid.

        Returns the preprocessed cohort (times become grid values, or 0 for
        censored records before r_1) and the kappa array.
        """
        return breslow_preprocess(cohort, self.grid)


def discretize_times(grid: EventTimeGrid, k: int) -> DiscreteTimeMap:
    """Coarsen an event grid to at most k bins by evenly spaced quantiles.

    k = 0 keeps all observed event times, still capped at 512 bins by
    quantile coarsening. Representative times are actual grid values
    (lower-quantile rule), deduplicated, so coincident event times can yield
    fewer bins than requested.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    L = len(grid)
    k_eff = min(k or L, MAX_TIME_STEPS)
    if k_eff >= L:
        return DiscreteTimeMap(grid, L)
    levels = np.arange(1, k_eff + 1, dtype=np.float64) / k_eff
    reps = np.quantile(grid.times, levels, method="lower")
    reps = np.unique(reps)
    return DiscreteTimeMap(EventTimeGrid(reps), L)


def _at_risk(kappa, L):
    """at_risk[i, l] = 1{kappa_i >= l + 1}: the bins whose hazards enter
    subject i's likelihood term, and the bins where i is at risk."""
    kappa = np.asarray(kappa, dtype=np.int64)
    return (np.arange(1, L + 1)[None, :] <= kappa[:, None]).astype(np.float64)


class _Groups(NamedTuple):
    """Rows grouped by (bin, event): ``order`` stable-sorts them by
    code = kappa * (m + 1) + delta; group u spans ``counts[u]`` sorted rows
    from ``starts[u]`` and carries labels ``kappa[u]``, ``delta[u]``."""

    order: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    kappa: np.ndarray
    delta: np.ndarray


def _code_groups(kappa, delta, m) -> _Groups:
    code = np.asarray(kappa, np.int64) * (m + 1) + np.asarray(delta, np.int64)
    order = np.argsort(code, kind="stable")
    code = code[order]
    starts = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
    counts = np.diff(np.r_[starts, code.size])
    return _Groups(order, starts, counts, code[starts] // (m + 1), code[starts] % (m + 1))


def _hazard_tables(W, groups: _Groups, m, L):
    """Kernel hazards of q rows against reference rows in group order.

    ``W[i, j]`` weighs reference row j for row i. Segment sums give
    G[i, u], row i's weight on group u; numerators are the event groups'
    columns of G, denominators add the groups of each bin and take a reverse
    cumulative sum over bins. Returns psi (m, q, L) and 1/den (q, L), zero
    where nobody is at risk (psi is 0 there).
    """
    q = W.shape[0]
    G = np.add.reduceat(W, groups.starts, axis=1)
    gk, gd = groups.kappa, groups.delta
    bins = np.flatnonzero(np.r_[True, gk[1:] != gk[:-1]])
    R = np.zeros((q, L + 1))
    R[:, gk[bins]] = np.add.reduceat(G, bins, axis=1)
    den = _reverse_cumsum(R[:, 1:], axis=1)
    num = np.zeros((m, q, L))
    ev = gd > 0
    num[gd[ev] - 1, :, gk[ev] - 1] = G[:, ev].T
    inv_den = safe_reciprocal(den)
    return num * inv_den[None, :, :], inv_den


def _nll(psi, kappa, delta, at_risk):
    """NLL of a hazard tensor psi (m, n, L), plus the uncensored rows and
    their own-event hazards, which the backward pass reuses."""
    unc = np.flatnonzero(delta != 0)
    own = psi[delta[unc] - 1, unc, kappa[unc] - 1]
    log_total = np.log(np.clip(own, PSI_CLAMP, 1.0)).sum()
    hazard_total = (psi * at_risk[None, :, :]).sum()
    return float(-(log_total - hazard_total) / kappa.size), unc, own


def _ranking_terms(F, kappa, delta, sigma):
    """The ranking loss, one event type at a time, factored per time bin.

    ``F`` (m, n, L) holds within-batch CIF values at the grid bins. For each
    event type d with an event in the batch, yields (d, rows, bins, B, A, T):
    the rows with delta = d + 1, their bins kappa - 1, B per row, and A
    (n, L) and T (L,) as in the module docstring. Event d contributes
    sum(B * T[bins]) / n^2.
    """
    m, n, L = F.shape
    later = kappa[:, None] > np.arange(1, L + 1)[None, :]   # kappa_j > l + 1
    for d in range(m):
        rows = np.flatnonzero(delta == d + 1)
        if rows.size == 0:
            continue
        bins = kappa[rows] - 1
        masked = np.where(later, F[d], -np.inf)
        shift = masked.max(axis=0)
        shift[shift == -np.inf] = 0.0                      # bins nobody outlives
        masked -= shift
        masked /= sigma
        A = np.exp(masked, out=masked)
        B = np.exp((shift[bins] - F[d][rows, bins]) / sigma)
        yield d, rows, bins, B, A, A.sum(axis=0)


def ranking_value(F, kappa, delta, sigma):
    """Pairwise exponential ranking penalty of CIF values F (m, n, L),
    normalized by n squared."""
    n = F.shape[1]
    return float(sum((B * T[bins]).sum() / (n * n)
                     for _, _, bins, B, _, T in _ranking_terms(F, kappa, delta, sigma)))


def total_loss(nll_value, ranking_value, alpha):
    """Convex combination alpha * NLL + (1 - alpha) * ranking."""
    return alpha * nll_value + (1.0 - alpha) * ranking_value


def objective_value(psi, kappa, delta, alpha, sigma):
    """The training objective alpha * NLL + (1 - alpha) * ranking of a
    hazard tensor psi (m, n, L); the forward of :func:`objective_and_dpsi`."""
    nll, _, _ = _nll(psi, kappa, delta, _at_risk(kappa, psi.shape[2]))
    rank = 0.0
    if alpha < 1.0:
        rank = ranking_value(cif_from_hazards(psi)[0], kappa, delta, sigma)
    return total_loss(nll, rank, alpha)


def objective_and_dpsi(psi, kappa, delta, alpha, sigma):
    """The training objective of a hazard tensor psi (m, n, L) and its
    gradient dLoss/dpsi. An own-event hazard at or below ``PSI_CLAMP`` enters
    the NLL clamped and gets no gradient from its log."""
    m, n, L = psi.shape
    at_risk = _at_risk(kappa, L)
    nll, unc, own = _nll(psi, kappa, delta, at_risk)
    dpsi = np.tile((at_risk / n)[None, :, :], (m, 1, 1))
    live = own > PSI_CLAMP
    idx = unc[live]
    dpsi[delta[idx] - 1, idx, kappa[idx] - 1] -= 1.0 / (n * own[live])
    dpsi *= alpha

    rank = 0.0
    if alpha < 1.0:
        rank, dpsi_rank = ranking_value_and_dpsi(psi, kappa, delta, sigma,
                                                 scale=1.0 - alpha)
        dpsi += dpsi_rank
    return total_loss(nll, rank, alpha), dpsi


def _ratio_backward(dpsi, psi, inv_den):
    """Gradients (dnum (m, n, L), dden (n, L)) of psi = num * inv_den, with
    inv_den = 1/den and 0 where den == 0 (psi is locally constant there)."""
    dnum = dpsi * inv_den[None, :, :]
    return dnum, -(dnum * psi).sum(axis=0)


def _reverse_cumsum(x, axis=1):
    return np.flip(np.cumsum(np.flip(x, axis=axis), axis=axis), axis=axis)


def _cumprod_backward(u, P, dP):
    """Exact gradient of a row-wise cumulative product.

    Given P = cumprod(u, axis=1) and upstream dLoss/dP, returns dLoss/du,
    handling rows that contain zero factors (at most the first zero position
    receives a nonzero gradient beyond the standard formula).
    """
    rc = _reverse_cumsum(dP * P, axis=1)
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
    dF = np.zeros_like(F)
    rank = 0.0
    c = scale / (n * n * sigma)
    for d, rows, bins, B, A, T in _ranking_terms(F, kappa, delta, sigma):
        BT = B * T[bins]
        rank += BT.sum() / (n * n)
        dF[d] = A * (c * np.bincount(bins, weights=B, minlength=L))
        dF[d, rows, bins] -= c * BT
    dA = _reverse_cumsum(dF, axis=2)
    dpsi = dA * S_prev[None, :, :]
    dS_prev = (dA * psi).sum(axis=0)
    dS = np.concatenate((dS_prev[:, 1:], np.zeros((n, 1))), axis=1)
    du = _cumprod_backward(u, S, dS)
    dpsi += (-du)[None, :, :]
    return float(rank), dpsi


def total_loss_and_grad(params, X, kappa, delta, m, L, alpha, sigma):
    """Total loss of a minibatch and exact gradients for every parameter.

    Returns (loss, weight_grads, bias_grads). The batch is processed in
    (bin, event) order; loss and gradients are sums over rows, so the order
    changes only rounding. The backward pass runs through the leave-one-out
    hazard ratios, the survival cumulative product, the per-bin ranking
    terms, the kernel matrix, and the network.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise ShapeMismatch("batch must contain at least 2 subjects")
    groups = _code_groups(kappa, delta, m)
    X = X[groups.order]
    kappa = np.asarray(kappa, dtype=np.int64)[groups.order]
    delta = np.asarray(delta, dtype=np.int64)[groups.order]

    E, cache = forward_cached(params, X)
    W = kernel_matrix(E)
    np.fill_diagonal(W, 0.0)
    psi, inv_den = _hazard_tables(W, groups, m, L)
    loss, dpsi = objective_and_dpsi(psi, kappa, delta, alpha, sigma)

    # dW[i, j] depends on j only through j's group: the at-risk bins
    # l < kappa_j (a prefix sum of dden) plus j's own event cell of dnum.
    dnum, dden = _ratio_backward(dpsi, psi, inv_den)
    prefix = np.zeros((n, L + 1))
    np.cumsum(dden, axis=1, out=prefix[:, 1:])
    table = prefix[:, groups.kappa]
    ev = groups.delta > 0
    table[:, ev] += dnum[groups.delta[ev] - 1, :, groups.kappa[ev] - 1].T
    dW = np.repeat(table, groups.counts, axis=1)

    dE = kernel_matrix_backward(E, W, dW)
    dw, db = backward(params, cache, dE)
    return loss, dw, db


def kernel_hazard_curves(E_query, E_ref, kappa_ref, delta_ref, m, L):
    """Kernel-weighted hazards and CIF curves of query points vs a reference
    set (no leave-one-out; queries are assumed disjoint from the reference).

    The query x reference kernel is built ``CRITERION_BLOCK_ROWS`` query rows
    at a time, so memory stays O(block * n_ref) whatever the query count.
    A two-set ``kernel_matrix`` computes each row on its own, so the result
    does not depend on the block size.

    Returns (psi (m, q, L), F (m, q, L), S (q, L)).
    """
    groups = _code_groups(kappa_ref, delta_ref, m)
    E_ref = np.asarray(E_ref, np.float64)[groups.order]
    E_query = np.asarray(E_query, np.float64)
    psi = np.empty((m, E_query.shape[0], L))
    for start in range(0, E_query.shape[0], CRITERION_BLOCK_ROWS):
        rows = slice(start, start + CRITERION_BLOCK_ROWS)
        psi[:, rows], _ = _hazard_tables(kernel_matrix(E_query[rows], E_ref), groups, m, L)
    F, S, _, _ = cif_from_hazards(psi)
    return psi, F, S


@dataclass
class TrainingLog:
    """Per-epoch record of the loss and the early-stopping criterion."""

    criterion: str
    rows: list = field(default_factory=list)
    best_epoch: int = 0
    best_value: float = np.nan

    def add(self, epoch, train_loss, valid_criterion, is_best):
        self.rows.append((epoch, float(train_loss), float(valid_criterion), bool(is_best)))

    def criterion_history(self):
        return [r[2] for r in self.rows]

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,valid_criterion,is_best"]
        for epoch, tl, vc, best in self.rows:
            lines.append(f"{epoch},{tl!r},{vc!r},{int(best)}")
        return "\n".join(lines) + "\n"


def _criterion_is_improvement(criterion, value, best):
    if np.isnan(best):
        return True
    if criterion == "ctd":
        return value > best
    return value < best


class _CriterionInputs(NamedTuple):
    """What the validation criterion needs that does not change during a fit:
    time bins of both cohorts and, for IBS, the evaluation grid plus the
    validation cohort's censoring weights on it."""

    kappa_train: np.ndarray
    kappa_valid: np.ndarray
    eval_grid: EvalGrid = None
    weights: tuple = None


def _criterion_inputs(criterion, train, valid, dtm, kappa_train) -> _CriterionInputs:
    """Precompute the criterion's fixed inputs and check that it can be
    computed at all, so an infeasible criterion fails before epoch 1."""
    _, kappa_valid = dtm.apply(valid)
    if criterion == "ctd":
        last = valid.time.max()
        for d in range(1, train.m + 1):
            if not (valid.time[valid.event == d] < last).any():
                raise NoComparablePairs(
                    f"validation cohort has no comparable pairs for event {d}")
    if criterion != "ibs":
        return _CriterionInputs(kappa_train, kappa_valid)
    pooled = np.concatenate(
        (train.time[train.event != 0], valid.time[valid.event != 0]))
    eval_grid = build_eval_grid(pooled)
    if len(eval_grid) < 2:
        raise DegenerateGrid("the IBS criterion needs at least 2 evaluation times")
    weights = ipcw_weights(valid, eval_grid.times, censoring_survival(valid))
    return _CriterionInputs(kappa_train, kappa_valid, eval_grid, weights)


def _evaluate_criterion(criterion, params, train, valid, dtm, tcfg,
                        inputs: _CriterionInputs):
    """Validation criterion with hazards against the full training set."""
    m, L = train.m, len(dtm.grid)
    E_train = embed_batch(params, train.features)
    E_valid = embed_batch(params, valid.features)
    psi, F, _ = kernel_hazard_curves(E_valid, E_train, inputs.kappa_train,
                                     train.event, m, L)

    if criterion == "objective":
        return objective_value(psi, inputs.kappa_valid, valid.event, tcfg.alpha,
                               tcfg.sigma)
    return _curve_criterion(criterion, F, dtm.grid.times, valid, inputs)


def _curve_criterion(criterion, F, knot_times, valid, inputs: _CriterionInputs):
    """The IBS or ctd criterion of CIF values F (m, q, L) at ``knot_times``
    for the validation cohort, averaged over event types."""
    values = []
    for d in range(1, F.shape[0] + 1):
        if criterion == "ibs":
            times = inputs.eval_grid.times
            pred = interpolate_curves(F[d - 1], knot_times, times)
            bs, _ = brier_scores(pred, valid, d, times, inputs.weights)
            values.append(integrated_brier(bs, inputs.eval_grid))
        else:
            values.append(concordance_td_from_curves(F[d - 1], knot_times, valid, d))
    return float(np.mean(values))


def train_embedding(train: Cohort, valid: Cohort, ecfg: EmbeddingConfig,
                    tcfg: TrainConfig, dtm: DiscreteTimeMap):
    """Minibatch gradient descent with patience-based early stopping.

    Both cohorts must already be preprocessed on the shared time map. A
    criterion that cannot be computed on them (ctd without a comparable pair
    for some event type, IBS with fewer than 2 evaluation times) raises
    before the first epoch. After every epoch the configured validation
    criterion is evaluated against the full training set embeddings; the
    best checkpoint is kept and training stops when no improvement is seen
    for ``patience`` epochs.

    Returns (best_params, TrainingLog).
    """
    if (train.event != 0).sum() == 0:
        raise NoEvents("training cohort has no uncensored records")
    m, L = train.m, len(dtm.grid)
    _, kappa = dtm.apply(train)
    inputs = _criterion_inputs(tcfg.early_stop_criterion, train, valid, dtm, kappa)

    params = init_mlp(ecfg)
    flat = flatten_params(params)
    velocity = np.zeros_like(flat)
    rng = np.random.default_rng(tcfg.seed)
    log = TrainingLog(criterion=tcfg.early_stop_criterion)
    best_params = params.copy()
    best_value = np.nan
    stall = 0

    for epoch in range(1, tcfg.max_epochs + 1):
        perm = rng.permutation(train.n)
        epoch_loss = 0.0
        seen = 0
        for start in range(0, train.n, tcfg.batch_size):
            batch = perm[start:start + tcfg.batch_size]
            if batch.size < 2:
                continue
            loss, dw, db = total_loss_and_grad(
                params, train.features[batch], kappa[batch], train.event[batch],
                m, L, tcfg.alpha, tcfg.sigma)
            grad = flatten_grads(dw, db)
            velocity = tcfg.momentum * velocity - tcfg.learning_rate * grad
            flat = flat + velocity
            params = unflatten_params(params, flat)
            epoch_loss += loss * batch.size
            seen += batch.size
        epoch_loss = epoch_loss / max(seen, 1)

        value = _evaluate_criterion(
            tcfg.early_stop_criterion, params, train, valid, dtm, tcfg, inputs)
        improved = _criterion_is_improvement(tcfg.early_stop_criterion, value, best_value)
        if improved:
            best_value = value
            best_params = params.copy()
            log.best_epoch = epoch
            log.best_value = float(value)
            stall = 0
        else:
            stall += 1
        log.add(epoch, epoch_loss, value, improved)
        if stall >= tcfg.patience:
            break

    return best_params, log
