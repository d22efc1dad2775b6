"""Optional fine-tuning of the per-cluster summary tables.

Summary fine-tuning (SFT) re-fits the count tables with the kernel and the
cluster assignments frozen. The tables are re-parameterized as strictly
positive quantities,

    d'[q, l, d] = exp(gamma[q, l, d]) + exp(gamma_baseline[l, d])
    c'[q, l]    = exp(omega[q, l])    + exp(omega_baseline[l])
    n'[q, l]    = sum_d d'[q, l, d] + c'[q, l] + n'[q, l + 1]   (n'[q, L] = 0)

and subject i's hazards are psi[d, i, l] = D[d, i, l] * (1/N)[i, l] with
D = W d' and N = W n', where W holds the frozen kernel weights of the
subjects to the exemplars: the weighted tables of prediction, from the same
:func:`model.weighted_hazards`. SFT minimizes the training step's objective
(:func:`training.objective_and_dpsi`) on these table hazards, without
leave-one-out, by plain gradient descent: dLoss/dpsi is chained through the
step's num/den rule to D and N, then through W and the parameterization.
Initialization reproduces the raw counts up to a 1e-12 floor that guards
log(0). The epochs run through training's loop and update,
:func:`training.descend`: each is one step on every training row's gradient
(in row blocks at alpha = 1, :func:`sft_loss_and_grad`), then training's
validation criterion (:func:`training.table_criterion`, so with the same
criterion and alpha the raw tables score training's best value; ``fit``
builds it before training, too), stopped by its
:class:`training.TrainingLog`. The tuned tables become the model's
``sft_tables`` only when the validation criterion strictly improves,
otherwise the original model is returned unchanged; the tables installed are
the ones the best epoch's criterion scored.
"""

from dataclasses import dataclass, replace

import numpy as np

from .clustering import ClusterModel
from .core import Cohort, breslow_preprocess, check_labels, reverse_cumsum
from .errors import ShapeMismatch
from .model import fallback_weights, frozen_subject_weights, weighted_hazards
from .training import (  # noqa: F401 (sft_objective_from_tables is named here too)
    TrainConfig,
    TrainingLog,
    _ratio_backward,
    descend,
    objective_and_dpsi,
    sft_objective_from_tables,
    table_criterion,
)

INIT_FLOOR = 1e-12
SFT_BLOCK_ROWS = 256


@dataclass(frozen=True)
class SftParams:
    """Unconstrained log-scale parameters of the summary tables."""

    gamma: np.ndarray            # (Q, L, m)
    gamma_baseline: np.ndarray   # (L, m)
    omega: np.ndarray            # (Q, L)
    omega_baseline: np.ndarray   # (L,)

    def __post_init__(self):
        names = ("gamma", "gamma_baseline", "omega", "omega_baseline")
        g, gb, o, ob = arrays = [np.asarray(getattr(self, k), np.float64) for k in names]
        if g.ndim != 3 or gb.shape != g.shape[1:] or o.shape != g.shape[:2] \
                or ob.shape != (g.shape[1],):
            raise ShapeMismatch("inconsistent fine-tuning parameter shapes")
        if not all(np.isfinite(arr).all() for arr in arrays):
            raise ValueError("fine-tuning parameters must be finite")
        for name, arr in zip(names, arrays):
            object.__setattr__(self, name, arr)


def init_sft_params(clusters: ClusterModel) -> SftParams:
    """Log-initialize the tables so the derived counts match the raw ones.

    Arguments of the logs are floored at ``INIT_FLOOR`` so zero counts stay
    defined; baselines start at log(INIT_FLOOR). The censoring pseudo-count per
    bin is n[l] - n[l+1] - sum_d d[l, d].
    """
    d = clusters.d_cluster
    n = clusters.n_cluster
    n_next = np.concatenate((n[:, 1:], np.zeros((n.shape[0], 1))), axis=1)
    censor = n - n_next - d.sum(axis=2)
    gamma = np.log(np.maximum(d, INIT_FLOOR))
    omega = np.log(np.maximum(censor, INIT_FLOOR))
    gamma_baseline = np.full(d.shape[1:], np.log(INIT_FLOOR))
    omega_baseline = np.full(n.shape[1], np.log(INIT_FLOOR))
    return SftParams(gamma, gamma_baseline, omega, omega_baseline)


def sft_counts(params: SftParams):
    """Derived tables (d' (Q, L, m), n' (Q, L)); positive by construction."""
    d_prime = np.exp(params.gamma) + np.exp(params.gamma_baseline)[None, :, :]
    c_prime = np.exp(params.omega) + np.exp(params.omega_baseline)[None, :]
    shed = d_prime.sum(axis=2) + c_prime
    return d_prime, reverse_cumsum(shed)


def sft_loss_and_grad(params: SftParams, weights, kappa, delta,
                      alpha: float = 1.0, sigma: float = 1.0):
    """Loss plus exact gradients w.r.t. every fine-tuning parameter.

    The loss and dLoss/dpsi come from the training step's objective; the
    gradient is chained through psi = D * (1/N), D = W d', N = W n' and the
    parameterization. Returns (loss, (dgamma, dgamma_baseline, domega,
    domega_baseline)).

    A subject with an all-zero weight row is fitted on the pooled tables
    (:func:`model.fallback_weights`). At alpha = 1, a mean over rows, the
    rows run in blocks of ``SFT_BLOCK_ROWS``, each weighted by its share of
    the rows, so each hazard plane holds SFT_BLOCK_ROWS rows; the ranking
    term couples every pair of rows, so at alpha < 1 the one block is the
    cohort. A bad label raises ValueError naming its row in the caller's
    order (:func:`core.check_labels`).
    """
    weights = np.asarray(weights, np.float64)
    d_prime, n_prime = sft_counts(params)
    _, L, m = d_prime.shape
    n = weights.shape[0]
    kap, dl = check_labels(kappa, delta, n, m, L)
    loss, dD_total, dN_total = 0.0, np.zeros((m, *n_prime.shape)), np.zeros(n_prime.shape)
    size = SFT_BLOCK_ROWS if alpha == 1.0 else n
    for start in range(0, n, size):
        rows = slice(start, start + size)
        k, d = kap[rows], dl[rows]
        W, _ = fallback_weights(weights[rows])
        psi, inv_N = weighted_hazards((d_prime, n_prime), W)
        value, dpsi = objective_and_dpsi(psi, k, d, alpha, sigma)
        loss += value * (W.shape[0] / n)
        dpsi *= W.shape[0] / n
        dD, dN = _ratio_backward(dpsi, psi, inv_N)
        dD_total += W.T @ dD
        dN_total += W.T @ dN

    dd_prime = dD_total.transpose(1, 2, 0)           # (Q, L, m)
    dc_prime = np.cumsum(dN_total, axis=1)           # n' is a reversed cumsum
    dd_prime += dc_prime[:, :, None]
    grads = (
        dd_prime * np.exp(params.gamma),
        (dd_prime * np.exp(params.gamma_baseline)[None, :, :]).sum(axis=0),
        dc_prime * np.exp(params.omega),
        (dc_prime * np.exp(params.omega_baseline)[None, :]).sum(axis=0),
    )
    return loss, grads


@dataclass
class SftResult:
    accepted: bool
    baseline_criterion: float
    best_criterion: float
    log: TrainingLog


def fine_tune_summaries(model, train: Cohort, valid: Cohort, config: TrainConfig):
    """Gradient descent on the summary tables with validation backtracking;
    each epoch is one step of :func:`training.descend`'s update on the
    gradient of :func:`sft_loss_and_grad`, in row blocks at alpha = 1.

    Returns (model', SftResult). The tuned tables are installed as
    ``sft_tables`` only when the validation criterion strictly improves over
    the model before fine-tuning; ties or regressions return ``model``
    itself. Every training and validation row counts, one with no exemplar
    within tau on the pooled tables (:func:`model.fallback_weights`).
    """
    criterion = config.early_stop_criterion
    W_train = frozen_subject_weights(model.params, model.clusters, train.features)
    W_valid = frozen_subject_weights(model.params, model.clusters, valid.features)
    _, kappa_tr = breslow_preprocess(train, model.grid)
    value = table_criterion(criterion, train, valid, model.grid, config.alpha, config.sigma)

    def evaluate(tables):
        return value(tables, W_valid), tables

    params = init_sft_params(model.clusters)
    # A candidate must beat both the init-parameter tables (a run that never
    # moves the parameters then ties exactly and backtracks) and the raw
    # tables (which differ by the <= 1e-6 relative floor): the log starts
    # from the better of the two.
    log = TrainingLog(criterion=criterion, best_value=evaluate(sft_counts(params))[0])
    raw_value, _ = evaluate(model.tables)
    if log.improves(raw_value):
        log.best_value = raw_value

    def epoch(params, step):
        loss, grads = sft_loss_and_grad(params, W_train, kappa_tr, train.event,
                                        config.alpha, config.sigma)
        arrays = (params.gamma, params.gamma_baseline, params.omega, params.omega_baseline)
        return SftParams(*step(arrays, grads)), loss

    best = descend("fine-tuning", config, log, params, epoch,
                   lambda params: evaluate(sft_counts(params)))
    accepted = best is not None
    result = SftResult(accepted=accepted, baseline_criterion=float(raw_value),
                       best_criterion=float(log.best_value if accepted else raw_value),
                       log=log)
    if not accepted:
        return model, result
    return replace(model, sft_tables=best[1]), result
