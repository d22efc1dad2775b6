"""Optional fine-tuning of the per-cluster summary tables.

Summary fine-tuning (SFT) re-fits the count tables with the kernel and the
cluster assignments frozen. The tables are re-parameterized as strictly
positive quantities,

    d'[q, l, d] = exp(gamma[q, l, d]) + exp(gamma_baseline[l, d])
    c'[q, l]    = exp(omega[q, l])    + exp(omega_baseline[l])
    n'[q, l]    = sum_d d'[q, l, d] + c'[q, l] + n'[q, l + 1]   (n'[q, L] = 0)

and subject i's hazards are psi[d, i, l] = D[d, i, l] * (1/N)[i, l] with
D = W d' and N = W n', where W holds the frozen kernel weights of the
subjects to the exemplars. SFT minimizes the training step's objective
(:func:`training.objective_and_dpsi`) on these table hazards, without
leave-one-out, by gradient descent: dLoss/dpsi is chained through the
step's num/den rule to D and N, then through W and the parameterization.
Initialization reproduces the raw counts up to a 1e-12 floor that guards
log(0). Candidates are scored with the training criterion's inputs and
scorer; the tuned tables are kept only when the validation criterion
strictly improves, otherwise the original model is returned with
``sft_rejected`` set.
"""

from dataclasses import dataclass

import numpy as np

from .clustering import ClusterModel
from .core import Cohort, safe_reciprocal
from .errors import ShapeMismatch
from .model import _curves_from_weights, frozen_subject_weights
from .training import (
    TrainConfig,
    TrainingLog,
    _criterion_inputs,
    _criterion_is_improvement,
    _curve_criterion,
    _ratio_backward,
    _reverse_cumsum,
    objective_and_dpsi,
    objective_value,
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


def _sft_hazards(d_tables, n_tables, W):
    """Hazards psi (m, n, L) = D * (1/N) of event tables (Q, L, m) and
    at-risk tables (Q, L) under weights W (n, Q), with D = W d built in
    (m, n, L) layout; also returns 1/N (n, L)."""
    D = W @ np.asarray(d_tables, np.float64).transpose(2, 0, 1)
    inv_N = safe_reciprocal(W @ np.asarray(n_tables, np.float64))
    return D * inv_N[None, :, :], inv_N


def sft_objective_from_tables(d_tables, n_tables, weights, kappa, delta,
                              alpha: float = 1.0, sigma: float = 1.0) -> float:
    """The training objective of given count tables (no leave-one-out).

    ``weights[i, q]`` is the frozen kernel weight of subject i to exemplar q.
    Subjects with an all-zero weight row are dropped; the mean runs over the
    retained subjects. With alpha < 1 the ranking penalty is blended in.
    """
    W, kap, dl = _active_rows(weights, kappa, delta)
    psi, _ = _sft_hazards(d_tables, n_tables, W)
    return objective_value(psi, kap, dl, alpha, sigma)


def sft_negative_log_likelihood(params: SftParams, weights, kappa, delta,
                                alpha: float = 1.0, sigma: float = 1.0) -> float:
    """:func:`sft_objective_from_tables` of the tables the parameters derive."""
    return sft_objective_from_tables(*sft_counts(params), weights, kappa, delta,
                                     alpha, sigma)


def sft_loss_and_grad(params: SftParams, weights, kappa, delta,
                      alpha: float = 1.0, sigma: float = 1.0):
    """Loss plus exact gradients w.r.t. every fine-tuning parameter.

    The loss and dLoss/dpsi come from the training step's objective; the
    gradient is chained through psi = D * (1/N), D = W d', N = W n' and the
    parameterization. Returns (loss, (dgamma, dgamma_baseline, domega,
    domega_baseline)).
    """
    W, kap, dl = _active_rows(weights, kappa, delta)
    d_prime, n_prime = sft_counts(params)
    psi, inv_N = _sft_hazards(d_prime, n_prime, W)
    loss, dpsi = objective_and_dpsi(psi, kap, dl, alpha, sigma)
    dD, dN = _ratio_backward(dpsi, psi, inv_N)

    dd_prime = (W.T @ dD).transpose(1, 2, 0)         # (Q, L, m)
    dc_prime = np.cumsum(W.T @ dN, axis=1)           # n' is a reversed cumsum
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
    """Gradient descent on the summary tables with validation backtracking.

    Returns (model', SftResult). The tuned tables are installed only when the
    validation criterion strictly improves over the model before fine-tuning;
    ties or regressions return the original tables with ``sft_rejected``.
    """
    criterion = config.early_stop_criterion
    W_train = frozen_subject_weights(model.params, model.clusters, train.features)
    W_valid = frozen_subject_weights(model.params, model.clusters, valid.features)
    _, kappa_tr = model.dtm.apply(train)
    inputs = _criterion_inputs(criterion, train, valid, model.dtm, kappa_tr)

    def evaluate(candidate_model):
        if criterion == "objective":
            return sft_objective_from_tables(
                candidate_model.d_tables, candidate_model.n_tables,
                W_valid, inputs.kappa_valid, valid.event, config.alpha, config.sigma)
        cif, _, _ = _curves_from_weights(candidate_model, W_valid)
        return _curve_criterion(criterion, cif, model.grid.times, valid, inputs)

    params = init_sft_params(model.clusters)
    # Baseline on the init-parameter tables: a run that never moves the
    # parameters then ties exactly and backtracks. The raw-table value guards
    # acceptance against the (<= 1e-6 relative) floor perturbation.
    d0, n0 = sft_counts(params)
    baseline = evaluate(model.with_tables(d0, n0))
    raw_value = evaluate(model)

    log = TrainingLog(criterion=criterion)
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
            _criterion_is_improvement(criterion, value, best_value)
            and _criterion_is_improvement(criterion, value, raw_value))
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
