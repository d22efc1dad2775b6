"""Optional fine-tuning of the per-cluster summary tables.

The count tables are re-parameterized as strictly positive quantities,

    d'[q, l, d] = exp(gamma[q, l, d]) + exp(gamma_baseline[l, d])
    c'[q, l]    = exp(omega[q, l])    + exp(omega_baseline[l])
    n'[q, l]    = sum_d d'[q, l, d] + c'[q, l] + n'[q, l + 1]   (n'[q, L] = 0)

and optimized by gradient descent on the (non leave-one-out) negative log
likelihood with the kernel and cluster assignments frozen. Initialization
reproduces the raw counts up to a 1e-12 floor that guards log(0). The tuned
tables are kept only when the validation criterion strictly improves;
otherwise the original model is returned with ``sft_rejected`` set.
"""

from dataclasses import dataclass

import numpy as np

from .clustering import ClusterModel
from .core import Cohort, cif_from_hazards, table_hazards
from .errors import ShapeMismatch
from .model import frozen_subject_weights, predict_cif_grid
from .training import (
    TrainConfig,
    TrainingLog,
    _at_risk,
    _criterion_is_improvement,
    _nll,
    _reverse_cumsum,
    ranking_value,
    ranking_value_and_dpsi,
    total_loss,
)

INIT_FLOOR = 1e-12


@dataclass(frozen=True)
class SftParams:
    """Unconstrained log-scale parameters of the summary tables."""

    gamma: np.ndarray            # (Q, L, m)
    gamma_baseline: np.ndarray   # (L, m)
    omega: np.ndarray            # (Q, L)
    omega_baseline: np.ndarray   # (L,)

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=np.float64)
        gb = np.asarray(self.gamma_baseline, dtype=np.float64)
        o = np.asarray(self.omega, dtype=np.float64)
        ob = np.asarray(self.omega_baseline, dtype=np.float64)
        if g.ndim != 3 or gb.shape != g.shape[1:] or o.shape != g.shape[:2] \
                or ob.shape != (g.shape[1],):
            raise ShapeMismatch("inconsistent fine-tuning parameter shapes")
        for arr in (g, gb, o, ob):
            if not np.isfinite(arr).all():
                raise ValueError("fine-tuning parameters must be finite")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "gamma_baseline", gb)
        object.__setattr__(self, "omega", o)
        object.__setattr__(self, "omega_baseline", ob)

    def shifted(self, dg, dgb, do, dob, step) -> "SftParams":
        return SftParams(self.gamma - step * dg,
                         self.gamma_baseline - step * dgb,
                         self.omega - step * do,
                         self.omega_baseline - step * dob)


def init_sft_params(clusters: ClusterModel, floor: float = INIT_FLOOR) -> SftParams:
    """Log-initialize the tables so the derived counts match the raw ones.

    Arguments of the logs are floored at ``floor`` so zero counts stay
    defined; baselines start at log(floor). The censoring pseudo-count per
    bin is n[l] - n[l+1] - sum_d d[l, d].
    """
    d = clusters.d_cluster
    n = clusters.n_cluster
    n_next = np.concatenate((n[:, 1:], np.zeros((n.shape[0], 1))), axis=1)
    censor = n - n_next - d.sum(axis=2)
    gamma = np.log(np.maximum(d, floor))
    omega = np.log(np.maximum(censor, floor))
    gamma_baseline = np.full(d.shape[1:], np.log(floor))
    omega_baseline = np.full(n.shape[1], np.log(floor))
    return SftParams(gamma, gamma_baseline, omega, omega_baseline)


def sft_counts(params: SftParams):
    """Derived tables (d' (Q, L, m), n' (Q, L)); positive by construction."""
    d_prime = np.exp(params.gamma) + np.exp(params.gamma_baseline)[None, :, :]
    c_prime = np.exp(params.omega) + np.exp(params.omega_baseline)[None, :]
    shed = d_prime.sum(axis=2) + c_prime
    return d_prime, _reverse_cumsum(shed, axis=1)


def _active_rows(weights, kappa, delta):
    """Weights and labels of the subjects with a nonempty frozen neighborhood."""
    weights = np.asarray(weights, dtype=np.float64)
    active = np.flatnonzero(weights.sum(axis=1) > 0)
    if active.size == 0:
        raise ShapeMismatch("no subject has a nonempty frozen neighborhood")
    return (weights[active], np.asarray(kappa, dtype=np.int64)[active],
            np.asarray(delta, dtype=np.int64)[active])


def sft_negative_log_likelihood(params: SftParams, weights, kappa, delta,
                                alpha: float = 1.0, sigma: float = 1.0) -> float:
    """Negative mean log likelihood of the tuned tables (no leave-one-out).

    ``weights[i, q]`` is the frozen kernel weight of subject i to exemplar q.
    Subjects with an all-zero weight row are dropped; the mean runs over the
    retained subjects. With alpha < 1 the ranking penalty is blended in.
    """
    value, _ = _sft_objective(params, weights, kappa, delta, alpha, sigma,
                              want_grad=False)
    return value


def sft_objective_from_tables(d_tables, n_tables, weights, kappa, delta,
                              alpha: float = 1.0, sigma: float = 1.0) -> float:
    """Same objective evaluated directly on given count tables.

    Used to score the model before fine-tuning without the log-floor
    perturbation the parameterization introduces.
    """
    W, kap, dl = _active_rows(weights, kappa, delta)
    D = np.tensordot(W, np.asarray(d_tables, np.float64), axes=(1, 0))
    psi = table_hazards(D, W @ np.asarray(n_tables, np.float64))
    nll, _, _ = _nll(psi, kap, dl, _at_risk(kap, psi.shape[2]))
    rank = 0.0
    if alpha < 1.0:
        rank = ranking_value(cif_from_hazards(psi)[0], kap, dl, sigma)
    return total_loss(nll, rank, alpha)


def sft_loss_and_grad(params: SftParams, weights, kappa, delta,
                      alpha: float = 1.0, sigma: float = 1.0):
    """Loss plus exact gradients w.r.t. every fine-tuning parameter."""
    return _sft_objective(params, weights, kappa, delta, alpha, sigma,
                          want_grad=True)


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


@dataclass
class SftResult:
    accepted: bool
    baseline_criterion: float
    best_criterion: float
    log: TrainingLog


def fine_tune_summaries(model, train: Cohort, valid: Cohort, config: TrainConfig):
    """Gradient descent on the summary tables with validation backtracking.

    Returns (model', SftResult). The tuned tables are installed only when the
    validation criterion strictly improves over the model before fine-tuning;
    ties or regressions return the original tables with ``sft_rejected``.
    """
    # Frozen kernel weights and discretized labels.
    W_train = frozen_subject_weights(model.params, model.clusters, train.features)
    _, kappa_tr = model.dtm.apply(train)
    W_valid = frozen_subject_weights(model.params, model.clusters, valid.features)
    _, kappa_va = model.dtm.apply(valid)

    eval_grid = None
    if config.early_stop_criterion in ("ibs", "ctd"):
        from . import metrics as _metrics

        pooled = np.concatenate(
            (train.time[train.event != 0], valid.time[valid.event != 0]))
        eval_grid = _metrics.build_eval_grid(pooled)

    def evaluate(candidate_model):
        if config.early_stop_criterion == "objective":
            return sft_objective_from_tables(
                candidate_model.d_tables, candidate_model.n_tables,
                W_valid, kappa_va, valid.event, config.alpha, config.sigma)
        from . import metrics as _metrics

        cif, _, _ = predict_cif_grid(candidate_model, valid.features)
        scores = _metrics.evaluate_cif_predictions(
            cif, model.grid.times, valid, eval_grid)
        key = "ibs" if config.early_stop_criterion == "ibs" else "ctd"
        return float(np.mean(scores[key]))

    params = init_sft_params(model.clusters)
    # Baseline on the init-parameter tables: a run that never moves the
    # parameters then ties exactly and backtracks. The raw-table value guards
    # acceptance against the (<= 1e-6 relative) floor perturbation.
    d0, n0 = sft_counts(params)
    baseline = evaluate(model.with_tables(d0, n0))
    raw_value = evaluate(model)

    log = TrainingLog(criterion=config.early_stop_criterion)
    best_value = baseline
    best_params = None
    stall = 0
    for epoch in range(1, config.max_epochs + 1):
        loss, grads = sft_loss_and_grad(params, W_train, kappa_tr, train.event,
                                        config.alpha, config.sigma)
        params = params.shifted(*grads, step=config.learning_rate)
        d_prime, n_prime = sft_counts(params)
        candidate = model.with_tables(d_prime, n_prime, sft_applied=True)
        value = evaluate(candidate)
        improved = (
            _criterion_is_improvement(config.early_stop_criterion, value,
                                      best_value)
            and _criterion_is_improvement(config.early_stop_criterion, value,
                                          raw_value))
        if improved:
            best_value = value
            best_params = params
            log.best_epoch = epoch
            log.best_value = float(value)
            stall = 0
        else:
            stall += 1
        log.add(epoch, loss, value, improved)
        if stall >= config.patience:
            break

    result = SftResult(accepted=best_params is not None,
                       baseline_criterion=float(raw_value),
                       best_criterion=float(
                           best_value if best_params is not None else raw_value),
                       log=log)
    if best_params is None:
        return model.with_tables(model.clusters.d_cluster, model.clusters.n_cluster,
                                 sft_applied=False, sft_rejected=True), result
    d_prime, n_prime = sft_counts(best_params)
    return model.with_tables(d_prime, n_prime, sft_applied=True), result
