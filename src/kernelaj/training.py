"""Time discretization, kernel-weighted leave-one-out hazards, the training
losses and their minibatch gradient, and ``descend``: one epoch loop and update.

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
``objective_and_dpsi`` maps a hazard tensor psi to this loss and dLoss/dpsi,
and is the package's only loss: the minibatch step and summary fine-tuning
use both, and the objective criterion and the fine-tuning criterion take its
value and discard the gradient.

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

F comes from the Aalen-Johansen recursion of ``core.cif_from_hazards``,
F[k, l] = sum_{a <= l} psi[k, a] S_prev[a] with S_prev[a] = prod_{b < a} u[b]
and u = max(1 - sum_k psi[k], 0). Its backward is one pass over the bins
a = L-1, ..., 0 carrying dA = sum_{l >= a} dF[:, l], shape (m, n), and
g = sum_{l > a} dS_prev[l] prod_{a < b < l} u[b], shape (n,):

    dpsi[:, a] = S_prev[a] (dA - g),   g <- sum_k dA[k] psi[k, a] + u[a] g.

A zero factor u[a] just resets g: there is no division by u.

Hazard tables
-------------
Both sums depend on j only through the pair (kappa_j, delta_j). The step
therefore stable-sorts the batch by code = kappa * (m + 1) + delta, so the
rows of each (bin, event) group are adjacent, and builds a row block's
zero-diagonal kernel rows W against the whole batch in that order. One
``np.add.reduceat`` over W's columns gives G[i, u], the weight of row i on
group u. A group is a one-row table: d_u is 1 at (kappa_u - 1, delta_u - 1)
for an event group and n_u is 1 on the bins l < kappa_u, so the hazards are
``model.weighted_hazards`` of these tables under G, the same products as
prediction and fine-tuning. The validation criterion scores the clustered
model (:func:`_evaluate_criterion`); training returns the best epoch's, so
``fit`` ships the model it scored.

In the backward pass dLoss/dW[i, j] is dG[i, u] for j in group u, and dG is
the transposed products, dG = dden n_u^T + sum_k dnum_k d_u[:, :, k]^T.
The at-risk part is a product; an event group's d_u holds a single 1, so
its event part is the column of dnum at its own cell. dG is formed and
spread over each group's columns a few rows at a time, into W itself: W
becomes P = dW * W, which the block adds to the sums P Ea and Ea^T P
(Ea = [E, 1]) of the embedding gradient
-2 ((rowsum P + colsum P) e_i - (P E)_i - (P^T E)_i). Loss and gradients
are sums over rows, so the sort changes only rounding, and the blocks only
the loss's.

Memory
------
Every blocked loop takes its rows from :func:`core.row_slices`. The step,
fine-tuning and prediction take ``core.BLOCK_ROWS`` (256) rows at alpha = 1,
where a row's hazards and gradient need only its own kernel row, and the
batch at alpha < 1, where the ranking couples every pair; only there is the
kernel n x n. A block's W, later P, lives in the one buffer (256 x B or B x B
float64) that ``train_embedding`` allocates per fit and only the step reads.
It is load-bearing: a step that allocated its B x B W itself raised the
benchmark's peak RSS from 58.00 to 63.37 MB on acceptance and 57.26 to
62.58 MB on ranking-sft (seed 1, 10 of 10 alternating pairs). At B = 1024
and alpha = 1 the step and its buffer peak at 4.4 MiB traced, against
12.8 MiB with a B x B buffer. No product takes a B x B W or P whole (the
kernel and P Ea are ``blocked_matmul`` calls, Ea^T P sums 256-row blocks):
OpenBLAS keeps the pages it packs an operand into resident, and a GEMM over
all of P raised the fit's peak RSS by 3 MB more at B = 1024. The backward's
sums come after the objective, whose ranking planes set the peak at
alpha < 1. The criterion's arrays grow with n_valid * Q, not n_valid * n_train.

At alpha < 1 the objective holds F (m, n, L), S_prev and u (n, L), filled
``SUB_BLOCK_ROWS`` rows at a time: 2.3 (m, n, L) planes above its inputs at
m = 2, where separate NLL, A and ranking planes over one recursion held 5.0.

Leave-one-out sums run over the current minibatch only, so batch composition
affects the loss; shuffling is seeded and the loop is deterministic. All
gradients are exact hand-derived reverse-mode; finite differences are used
only as a test oracle.
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .clustering import build_cluster_model, exemplar_weights
from .core import (
    Cohort,
    EventTimeGrid,
    breslow_preprocess,
    check_labels,
    cif_from_hazards,
    label_codes,
    require_int,
    require_real,
    row_slices,
)
from .embedding import (
    EmbeddingConfig,
    backward,
    blocked_matmul,
    embed_batch,
    forward_cached,
    init_mlp,
    kernel_matrix,
)
from .errors import Diverged, NoEvents, ShapeMismatch
from .metrics import build_eval_grid, score_curves, scorer
from .model import _curves_from_weights, fallback_weights, weighted_hazards

PSI_CLAMP = 1e-12
MAX_TIME_STEPS = 512
SUB_BLOCK_ROWS = 64

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
    num_time_steps: int = 0
    early_stop_criterion: str = "objective"
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("batch_size", 2), ("max_epochs", 1), ("patience", 1),
                              ("num_time_steps", 0), ("seed", 0)):
            require_int(name, getattr(self, name), minimum)
        for name in ("learning_rate", "alpha", "sigma"):
            require_real(name, getattr(self, name))
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and nonnegative")
        if self.early_stop_criterion not in _CRITERIA:
            raise ValueError(f"early_stop_criterion must be one of {_CRITERIA}")


def discretize_times(grid: EventTimeGrid, k: int) -> EventTimeGrid:
    """Coarsen an event grid to at most k bins by evenly spaced quantiles.

    k = 0 keeps all observed event times, still capped at 512 bins by
    quantile coarsening. Representative times are actual grid values
    (lower-quantile rule), deduplicated, so coincident event times can yield
    fewer bins than requested. :func:`core.breslow_preprocess` snaps a
    cohort onto the result.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    L = len(grid)
    k_eff = min(k or L, MAX_TIME_STEPS)
    if k_eff >= L:
        return grid
    levels = np.arange(1, k_eff + 1, dtype=np.float64) / k_eff
    return EventTimeGrid(np.unique(np.quantile(grid.times, levels, method="lower")))


def _at_risk(kappa, L):
    """at_risk[i, l] = 1{kappa_i >= l + 1}: the bins where row (or code group)
    i is at risk, and whose hazards enter its likelihood term."""
    kappa = np.asarray(kappa, dtype=np.int64)
    return (np.arange(1, L + 1)[None, :] <= kappa[:, None]).astype(np.float64)


class CodeGroups(NamedTuple):
    """Rows grouped by (bin, event): ``order`` stable-sorts them by
    code = kappa * (m + 1) + delta; group u starts at sorted row
    ``starts[u]`` and carries labels ``kappa[u]``, ``delta[u]``."""

    order: np.ndarray
    starts: np.ndarray
    kappa: np.ndarray
    delta: np.ndarray

    def tables(self, m, L):
        """The groups' one-row tables (d (U, L, m), n (U, L)) from their labels:
        d is 1 at (kappa - 1, delta - 1) of an event group, n is :func:`_at_risk`."""
        d = np.zeros((self.kappa.size, L, m))
        ev = np.flatnonzero(self.delta)
        d[ev, self.kappa[ev] - 1, self.delta[ev] - 1] = 1.0
        return d, _at_risk(self.kappa, L)


def code_groups(kappa, delta, m, L) -> CodeGroups:
    """The groups of labels on L bins and m event types (:func:`core.check_labels`)."""
    kappa, delta = check_labels(kappa, delta, np.size(kappa), m, L)
    code = kappa * (m + 1) + delta
    order = np.argsort(code, kind="stable")
    code = code[order]
    starts = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
    return CodeGroups(order, starts, code[starts] // (m + 1), code[starts] % (m + 1))


def objective_and_dpsi(psi, kappa, delta, alpha, sigma, n):
    """The training objective alpha * NLL + (1 - alpha) * ranking of a hazard tensor
    psi (m, b, L) and its gradient dLoss/dpsi, as the b rows' part of the mean over
    n (b = n at alpha < 1: the ranking couples all rows). An own-event hazard at or
    below ``PSI_CLAMP`` enters the NLL clamped and gets no gradient from its log. At
    alpha = 1 the plane of the NLL's hazard product receives dLoss/dpsi. At
    alpha < 1 the NLL's gradient is added into the ranking's, own-event cells last,
    so each cell is the sum nll + ranking of two separate planes (module
    docstring). A bad label raises (:func:`core.check_labels`)."""
    m, b, L = psi.shape
    kappa, delta = check_labels(kappa, delta, b, m, L)
    at_risk = _at_risk(kappa, L)
    unc = np.flatnonzero(delta != 0)
    own = psi[delta[unc] - 1, unc, kappa[unc] - 1]
    log_total = np.log(np.clip(own, PSI_CLAMP, 1.0)).sum()
    hazard = np.multiply(psi, at_risk[None, :, :])
    nll = float(-(log_total - hazard.sum()) / n)
    live = own > PSI_CLAMP
    idx = unc[live]
    cells = delta[idx] - 1, idx, kappa[idx] - 1

    rank = 0.0
    if alpha == 1.0:
        dpsi = np.divide(at_risk[None, :, :], n, out=hazard)
        dpsi[cells] -= 1.0 / (n * own[live])
    else:
        del at_risk, hazard             # at_risk is rebuilt below: the ranking sets the peak
        rank, dpsi = ranking_value_and_dpsi(psi, kappa, delta, sigma, scale=1.0 - alpha)
        saved = dpsi[cells]
        dpsi += _at_risk(kappa, L) / n * alpha
        dpsi[cells] = (1.0 / n - 1.0 / (n * own[live])) * alpha + saved
    return alpha * nll + (1.0 - alpha) * rank, dpsi


def _ratio_backward(dpsi, psi, inv_den):
    """Gradients (dnum (m, n, L), dden (n, L)) of psi = num * inv_den, with
    inv_den = 1/den and 0 where den == 0 (psi is locally constant there).
    dnum overwrites dpsi and dnum * psi overwrites psi."""
    dnum = np.multiply(dpsi, inv_den[None, :, :], out=dpsi)
    dden = np.multiply(dnum, psi, out=psi).sum(axis=0)
    return dnum, np.negative(dden, out=dden)


def ranking_value_and_dpsi(psi, kappa, delta, sigma, scale):
    """Ranking loss of a batch plus its gradient w.r.t. the hazard tensor.

    ``psi`` has shape (m, n, L); a bad label (kappa, delta) raises ValueError
    naming its row (:func:`core.check_labels`). Returns (value, dpsi) where dpsi
    already carries the factor ``scale`` (the loss value does not). Each event type
    with an event in the batch adds sum(B * T[bins]) / n^2, from A, B and T
    of the module docstring; the backward pass is one reverse pass over the
    bins. The recursion runs in ``SUB_BLOCK_ROWS``-row blocks. Event d's plane
    of F holds its A, then its dF (an event type with no rows zeroes its
    plane), and dpsi takes dF's array, a bin at a time, once the pass has read it.
    """
    m, n, L = psi.shape
    kappa, delta = check_labels(kappa, delta, n, m, L)
    F, S_prev, u = np.empty_like(psi), np.empty((n, L)), np.empty((n, L))
    for rows in row_slices(n, SUB_BLOCK_ROWS):
        F[:, rows], _, S_prev[rows], u[rows] = cif_from_hazards(psi[:, rows])
    dF = F
    rank = 0.0
    c = scale / (n * n * sigma)
    gone = kappa[:, None] <= np.arange(1, L + 1)[None, :]   # not kappa_j > l + 1
    for d in range(m):
        rows = np.flatnonzero(delta == d + 1)
        if rows.size == 0:
            dF[d] = 0.0
            continue
        bins = kappa[rows] - 1
        own = F[d][rows, bins]                             # B reads these; A masks them
        A = F[d]
        A[gone] = -np.inf
        shift = A.max(axis=0)
        shift[shift == -np.inf] = 0.0                      # bins nobody outlives
        A -= shift
        A /= sigma
        np.exp(A, out=A)
        B = np.exp((shift[bins] - own) / sigma)
        BT = B * A.sum(axis=0)[bins]
        rank += BT.sum() / (n * n)
        A *= c * np.bincount(bins, weights=B, minlength=L)
        dF[d, rows, bins] -= c * BT
    dA, g = np.zeros((m, n)), np.zeros(n)
    for a in range(L - 1, -1, -1):
        dA += dF[:, :, a]
        dF[:, :, a] = S_prev[:, a] * (dA - g)
        g = (dA * psi[:, :, a]).sum(axis=0) + u[:, a] * g
    return float(rank), dF


def _block(buf, rows, cols):
    """The leading rows * cols elements of a contiguous buffer as a
    (rows, cols) array."""
    if buf.size < rows * cols:
        raise ShapeMismatch(f"buffer holds fewer than {rows} x {cols} elements")
    return buf.reshape(-1)[:rows * cols].reshape(rows, cols)


def total_loss_and_grad(params, X, kappa, delta, m, L, alpha, sigma, buffer=None):
    """Total loss of a minibatch and exact gradients for every parameter.

    Returns (loss, weight_grads, bias_grads); a bad label raises ValueError
    (:func:`core.check_labels`). The batch is processed in (bin, event) order;
    loss and gradients are sums over rows, so the order changes only
    rounding. The backward pass runs through the leave-one-out hazard ratios,
    the survival product, the ranking terms, the kernel matrix, the network.

    The rows run in :func:`core.row_slices` blocks, ``core.BLOCK_ROWS`` at
    alpha = 1 and the batch at alpha < 1. The kernel rows W of a block of b
    rows live in ``buffer``, a C-contiguous float64 array of at least b * n
    elements (``train_embedding`` allocates one per fit), or in a new array.
    dLoss/dW is formed ``SUB_BLOCK_ROWS`` rows at a time and multiplied
    into W, which then holds P = dLoss/dW * W, added to the kernel backward's
    sums before the next block. The results do not depend on the buffer.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise ShapeMismatch("batch must contain at least 2 subjects")
    kappa, delta = check_labels(kappa, delta, n, m, L)
    groups = code_groups(kappa, delta, m, L)
    X = X[groups.order]
    kappa, delta = kappa[groups.order], delta[groups.order]

    E, cache = forward_cached(params, X)
    tables = groups.tables(m, L)
    loss = 0.0
    for rows in row_slices(n, n if alpha < 1.0 else None):
        b = rows.stop - rows.start
        W = kernel_matrix(E[rows], E, out=None if buffer is None else _block(buffer, b, n))
        np.fill_diagonal(W[:, rows.start:], 0.0)
        psi, inv_N = weighted_hazards(tables, np.add.reduceat(W, groups.starts, axis=1))
        value, dpsi = objective_and_dpsi(psi, kappa[rows], delta[rows], alpha, sigma, n)
        loss += value
        dnum, dden = _ratio_backward(dpsi, psi, inv_N)
        del psi, inv_N, dpsi
        if rows.start == 0:     # after the objective: at alpha < 1 its planes set the peak
            n_T, ev = np.ascontiguousarray(tables[1].T), np.flatnonzero(groups.delta)
            group = np.repeat(np.arange(groups.starts.size), np.diff(groups.starts, append=n))
            Ea = np.hstack((E, np.ones((n, 1))))
            S, col = np.empty((n, Ea.shape[1])), np.zeros((Ea.shape[1], n))

        # dG = dden n_u^T + sum_k dnum_k d_u[:, :, k]^T (module docstring); the
        # event part is read from dnum: d_u is one-hot, and its product made the
        # acceptance workload's step 17 % slower on a 2-vCPU VM
        scratch = np.empty((min(SUB_BLOCK_ROWS, b), n))
        for sub in row_slices(b, SUB_BLOCK_ROWS):
            dG = blocked_matmul(dden[sub], n_T)
            dG[:, ev] += dnum[groups.delta[ev] - 1, sub, groups.kappa[ev] - 1].T
            # mode="clip" lets take write straight into scratch ("raise" copies)
            W[sub] *= np.take(dG, group, axis=1, mode="clip", out=scratch[:dG.shape[0]])
        del dnum, dden, scratch         # else they add to the peak of the products below
        # the kernel backward's sums P Ea and Ea^T P; rows.start is a multiple
        # of BLOCK_ROWS, so Ea^T P sums the same row blocks at any alpha
        blocked_matmul(W, Ea, out=S[rows])
        for sub in row_slices(b):
            col += Ea[rows][sub].T @ W[sub]

    S += col.T                          # Ea's ones column gives P's row and column sums
    dw, db = backward(params, cache, -2.0 * (S[:, -1:] * E - S[:, :-1]))
    return loss, dw, db


def kernel_hazard_curves(E_query, E_ref, groups: CodeGroups, m, L):
    """Kernel-weighted hazards and CIF curves of query points vs a reference
    set (no leave-one-out; queries are assumed disjoint from the reference),
    through the step's ``weighted_hazards`` and ``cif_from_hazards``.
    ``groups`` is :func:`code_groups` of the reference labels, checked by
    :func:`core.check_labels`; E_ref is in the reference rows' own order.

    Returns (psi (m, q, L), F (m, q, L), S (q, L)).
    """
    W = kernel_matrix(E_query, np.asarray(E_ref, np.float64)[groups.order])
    psi = weighted_hazards(groups.tables(m, L), np.add.reduceat(W, groups.starts, axis=1))[0]
    return (psi, *cif_from_hazards(psi)[:2])


@dataclass
class TrainingLog:
    """Per-epoch record of the loss and the early-stopping criterion, and
    the stopping rule: an epoch is the best so far when its value strictly
    beats ``best_value`` (higher for ctd, lower otherwise). ``best_value``
    starts as NaN, which any first value beats."""

    criterion: str
    rows: list = field(default_factory=list)
    best_epoch: int = 0
    best_value: float = np.nan

    def improves(self, value) -> bool:
        if np.isnan(self.best_value):
            return True
        if self.criterion == "ctd":
            return value > self.best_value
        return value < self.best_value

    def add(self, epoch, train_loss, value) -> bool:
        """Record an epoch; returns whether it is the new best."""
        improved = self.improves(value)
        if improved:
            self.best_epoch, self.best_value = epoch, float(value)
        self.rows.append((epoch, float(train_loss), float(value), improved))
        return improved

    def stalled(self, epoch, patience) -> bool:
        """No improvement in the last ``patience`` epochs up to ``epoch``."""
        return epoch - self.best_epoch >= patience


def sft_objective_from_tables(d_tables, n_tables, weights, kappa, delta,
                              alpha: float = 1.0, sigma: float = 1.0) -> float:
    """The training objective of given count tables (no leave-one-out): the
    value of :func:`objective_and_dpsi` on their hazards, gradient discarded;
    the objective criterion of training and of summary fine-tuning. A bad
    label raises ValueError naming its row (:func:`core.check_labels`).

    ``weights[i, q]`` is the frozen kernel weight of subject i to exemplar q.
    The mean runs over every subject; one with an all-zero weight row is
    scored on the pooled tables (:func:`model.fallback_weights`), as
    prediction scores it. With alpha < 1 the ranking penalty is blended in.
    """
    W, _ = fallback_weights(weights)
    psi = weighted_hazards((d_tables, n_tables), W)[0]
    return objective_and_dpsi(psi, kappa, delta, alpha, sigma, W.shape[0])[0]


def table_criterion(criterion, train: Cohort, valid: Cohort, grid: EventTimeGrid,
                    alpha, sigma):
    """The validation criterion of training and fine-tuning as ``value(tables,
    W)``: tables (d, n) under the validation rows' exemplar weights W, by
    :func:`sft_objective_from_tables` for the objective, else on the
    prediction path, :func:`model._curves_from_weights`, scored by the
    validation cohort's :func:`metrics.scorer` (IBS on the grid of pooled
    training and validation event times); a row with no exemplar within tau
    is scored on the pooled tables. One prediction set (all zeros) is scored
    here, so a criterion that cannot be computed raises before training
    starts, with the scorer's own error: NoComparablePairs naming the event
    for ctd, DegenerateGrid for IBS with fewer than 2 evaluation times."""
    if criterion == "objective":
        _, kappa = breslow_preprocess(valid, grid)
        return lambda tables, W: sft_objective_from_tables(*tables, W, kappa, valid.event,
                                                           alpha, sigma)
    eval_grid = None
    if criterion == "ibs":
        eval_grid = build_eval_grid(np.concatenate(
            (train.time[train.event != 0], valid.time[valid.event != 0])))
    valid_scorer = scorer(valid, eval_grid)

    def score(cif):
        return float(np.mean(score_curves(cif, grid.times, valid_scorer,
                                          (criterion,))[criterion]))
    score(np.broadcast_to(0.0, (train.m, valid.n, len(grid))))
    return lambda tables, W: score(_curves_from_weights(tables, W)[0])


def _evaluate_criterion(value, params, train, valid, codes, table_shape, epsilon, tau):
    """(``value`` (:func:`table_criterion`), clusters) of the model ``fit`` ships
    with ``params``: the training embeddings, coded ``codes`` on tables of
    ``table_shape``, clustered with ``epsilon`` and weighed within ``tau``. No
    positive validation weight (every kernel weight underflowed) raises
    FloatingPointError, which :func:`descend` reports."""
    clusters = build_cluster_model(embed_batch(params, train.features), codes, table_shape,
                                   epsilon, tau)
    W = exemplar_weights(clusters, embed_batch(params, valid.features))
    if not W.any():
        raise FloatingPointError("underflow: no validation row has a positive weight, "
                                 "the kernel weights collapsed")
    return value((clusters.d_cluster, clusters.n_cluster), W), clusters


def descend(stage, tcfg: TrainConfig, log: TrainingLog, params, epoch, value):
    """The package's one epoch loop and one update, of embedding training
    and fine-tuning. Epoch n = 1..``tcfg.max_epochs`` runs ``params, loss =
    epoch(params, step)``, then ``current, scored = value(params)``: the
    criterion and what it scored; a floating-point overflow, invalid value or
    division by zero in them (a learning rate too large) raises Diverged
    naming ``stage`` and n. ``log.add`` records the epoch, and descent stops
    once the log has stalled for ``tcfg.patience`` epochs. Returns the best
    epoch's (params, scored), or None when no epoch beat the log's starting
    value. Both are kept, not copied: ``step(arrays, grads)``, the plain
    gradient step a - ``tcfg.learning_rate`` * g of each array, returns new
    arrays, and ``epoch`` moves the parameters only through it."""
    def step(arrays, grads):
        return tuple(a - tcfg.learning_rate * g for a, g in zip(arrays, grads, strict=True))

    best = None
    for n in range(1, tcfg.max_epochs + 1):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                params, loss = epoch(params, step)
                current, scored = value(params)
        except FloatingPointError as exc:
            raise Diverged(f"{stage} epoch {n}: {exc} "
                           f"(learning_rate {tcfg.learning_rate})") from None
        if log.add(n, loss, current):
            best = params, scored
        if log.stalled(n, tcfg.patience):
            break
    return best


def train_embedding(train: Cohort, valid: Cohort, ecfg: EmbeddingConfig,
                    tcfg: TrainConfig, grid: EventTimeGrid,
                    epsilon: float = 0.0, tau: float = np.inf):
    """Minibatch gradient descent with patience-based early stopping.

    Both cohorts must already be preprocessed on ``grid``. The criterion is
    built, and scored once on all-zero predictions, by :func:`table_criterion`
    before the first epoch, so one that cannot be computed raises before
    training starts. The epochs run through
    :func:`descend`: each is one pass over the shuffled training rows, a
    plain gradient step of every weight and bias per minibatch (``descend``'s
    update), then the validation criterion of the model clustered with
    ``epsilon`` and ``tau`` (:func:`_evaluate_criterion`); the defaults,
    epsilon 0 and tau inf, weigh every distinct training row.

    Returns ((best params, the ClusterModel their criterion scored), TrainingLog).
    """
    if (train.event != 0).sum() == 0:
        raise NoEvents("training cohort has no uncensored records")
    m, L = train.m, len(grid)
    codes = label_codes(train, grid)
    kappa = codes // (m + 1)                # a code is kappa * (m + 1) + delta
    criterion = table_criterion(tcfg.early_stop_criterion, train, valid, grid,
                                tcfg.alpha, tcfg.sigma)

    side = min(tcfg.batch_size, train.n)    # the step's W, a row block x side, in one buffer
    buffer = np.empty(row_slices(side, side if tcfg.alpha < 1.0 else None)[0].stop * side)
    rng = np.random.default_rng(tcfg.seed)

    def epoch(params, step):
        perm = rng.permutation(train.n)
        epoch_loss, seen = 0.0, 0
        for rows in row_slices(train.n, tcfg.batch_size):
            batch = perm[rows]
            if batch.size < 2:
                continue
            loss, dw, db = total_loss_and_grad(
                params, train.features[batch], kappa[batch], train.event[batch],
                m, L, tcfg.alpha, tcfg.sigma, buffer)
            arrays = step(params.weights + params.biases, (*dw, *db))
            params = replace(params, weights=arrays[:len(dw)], biases=arrays[len(dw):])
            epoch_loss += loss * batch.size
            seen += batch.size
        return params, epoch_loss / max(seen, 1)

    def value(params):
        return _evaluate_criterion(criterion, params, train, valid, codes, (L, m), epsilon, tau)

    log = TrainingLog(criterion=tcfg.early_stop_criterion)
    return descend("training", tcfg, log, init_mlp(ecfg), epoch, value), log
