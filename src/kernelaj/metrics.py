"""Competing-risks evaluation: censoring-weighted Brier score, integrated
Brier score, time-dependent concordance, and the shared evaluation grid.

The Brier score at horizon t for event delta averages three squared-error
terms over all n subjects: subjects with the event of interest by t
contribute (1 - F)^2, subjects with a competing event by t contribute F^2,
and subjects still under observation past t contribute F^2. The first two
terms are weighted by 1 / S_censor(Y_i^-) (left limit, so the last censored
subject keeps a positive weight) and the third by 1 / S_censor(t); subjects
whose required weight evaluates to zero are excluded and counted.

The concordance index follows the at-the-event-time convention: a pair is
comparable when subject i has the event of interest strictly before subject
j's observed time, and credited when F(Y_i | X_i) > F(Y_i | X_j), with ties
in predicted values worth half. Other event types act as censoring.
"""

from dataclasses import dataclass

import numpy as np

from .core import Cohort, EventTimeGrid, StepCurve, reverse_cumsum, row_slices
from .errors import DegenerateGrid, NoComparablePairs, NoEvents, ShapeMismatch

BRIER_BLOCK_HORIZONS = 16


@dataclass(frozen=True)
class EvalGrid:
    """Evaluation times: evenly spaced quantiles of observed event times,
    truncated at a percentile to avoid the unstable tail."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        if times.ndim != 1 or times.size == 0:
            raise ShapeMismatch("evaluation grid must be nonempty")
        if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
            raise ValueError("evaluation times must be finite and strictly increasing")
        object.__setattr__(self, "times", times)

    def __len__(self):
        return self.times.size


def build_eval_grid(event_times) -> EvalGrid:
    """100 evenly spaced quantiles of the uncensored times, from the minimum
    up to their 90th percentile, deduplicated."""
    times = np.asarray(event_times, dtype=np.float64)
    if times.size == 0:
        raise NoEvents("no uncensored times to build an evaluation grid from")
    return EvalGrid(np.unique(np.quantile(times, np.linspace(0.0, 0.9, 100))))


def censoring_survival(cohort: Cohort) -> StepCurve:
    """Kaplan-Meier estimate of the censoring distribution.

    The event indicator is flipped: censoring counts as the event and any
    critical event acts as censoring. Computed on raw observed times.
    """
    censored = cohort.event == 0
    if not censored.any():
        return StepCurve(np.empty(0), np.empty(0), initial_value=1.0)
    knots, d = np.unique(cohort.time[censored], return_counts=True)
    # a record is at risk at knots[:k], k its count of knots at or before its time
    k = np.searchsorted(knots, cohort.time, side="right")
    n = reverse_cumsum(np.bincount(k, minlength=knots.size + 1)[1:])
    surv = np.cumprod(1.0 - d.astype(np.float64) / n)
    return StepCurve(knots, surv, initial_value=1.0)


@dataclass(frozen=True)
class BrierResult:
    value: float
    n_excluded: int


def ipcw_weights(cohort: Cohort, times, censor_curve: StepCurve):
    """Censoring-survival weights of the Brier score: S_censor(Y_i^-) per
    subject and S_censor(t) per horizon. They do not depend on predictions."""
    return (np.asarray(censor_curve.eval_left(cohort.time), dtype=np.float64),
            np.atleast_1d(np.asarray(censor_curve(times), dtype=np.float64)))


def _check_event(cohort: Cohort, delta):
    """A ValueError unless ``delta`` is one of the cohort's event types 1..m."""
    if delta not in range(1, cohort.m + 1):
        raise ValueError(f"event type {delta} is not one of 1..{cohort.m}")


def brier_scores(cif_values, cohort: Cohort, delta: int, times, weights):
    """Censoring-weighted Brier scores for event ``delta`` at every horizon.

    ``cif_values[i, k]`` is the predicted F_delta(times[k] | X_i) and
    ``weights`` comes from :func:`ipcw_weights` for the same cohort and
    times. Returns (values (k,), n_excluded (k,)): subjects whose required
    weight is zero are dropped from the sum (not from the denominator n)
    and counted. Horizons are scored ``BRIER_BLOCK_HORIZONS`` at a time, so
    the working arrays are (block, n), not (k, n).
    """
    _check_event(cohort, delta)
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    F = np.asarray(cif_values, dtype=np.float64)
    n = cohort.n
    if F.shape != (n, times.size):
        raise ShapeMismatch(f"expected predictions of shape {(n, times.size)}, "
                            f"got {F.shape}")
    w_past, w_now = weights
    y, ev = cohort.time, cohort.event
    past_ok = w_past > 0
    hit = (ev == delta) & past_ok
    other = (ev != delta) & (ev != 0) & past_ok
    lost = (ev != 0) & ~past_ok
    values = np.empty(times.size)
    excluded = np.empty(times.size, dtype=np.int64)
    for h in row_slices(times.size, BRIER_BLOCK_HORIZONS):
        # subjects on the contiguous axis, so a horizon's sum is the same
        # pairwise sum whether it is scored alone (brier_score) or in a block
        Fh = np.ascontiguousarray(F[:, h].T)
        past = y[None, :] <= times[h, None]
        now_ok = w_now[h] > 0
        sq = np.square(Fh)
        terms = np.zeros_like(sq)
        # still at risk at t: F^2 / S_censor(t)
        np.divide(sq, w_now[h, None], out=terms, where=~past & now_ok[:, None])
        # event of interest by t: (1 - F)^2, competing event by t: F^2, over S_censor(Y^-)
        np.divide(np.square(1.0 - Fh), w_past, out=terms, where=past & hit)
        np.divide(sq, w_past, out=terms, where=past & other)
        values[h] = terms.sum(axis=1) / n
        excluded[h] = (past & lost).sum(axis=1) + np.where(now_ok, 0, (~past).sum(axis=1))
    return values, excluded


def brier_score(cif_values, cohort: Cohort, delta: int, t: float,
                censor_curve: StepCurve) -> BrierResult:
    """Censoring-weighted Brier score for event ``delta`` at horizon ``t``.

    ``cif_values[i]`` is the predicted F_delta(t | X_i); a one-horizon view
    of :func:`brier_scores`.
    """
    F = np.asarray(cif_values, dtype=np.float64)
    if F.shape != (cohort.n,):
        raise ShapeMismatch(f"expected {cohort.n} predictions, got shape {F.shape}")
    values, excluded = brier_scores(F[:, None], cohort, delta, [t],
                                    ipcw_weights(cohort, [t], censor_curve))
    return BrierResult(value=float(values[0]), n_excluded=int(excluded[0]))


def integrated_brier(bs_values, grid: EvalGrid) -> float:
    """Trapezoidal integral of a Brier-score curve, normalized by the span."""
    bs = np.asarray(bs_values, dtype=np.float64)
    if len(grid) < 2:
        raise DegenerateGrid("need at least 2 evaluation times to integrate")
    if bs.shape != grid.times.shape:
        raise ShapeMismatch("Brier values must align with the evaluation grid")
    span = grid.times[-1] - grid.times[0]
    return float(np.trapezoid(bs, grid.times) / span)


def concordance_td(risk_matrix, cohort: Cohort, delta: int) -> float:
    """Concordant fraction over comparable pairs.

    ``risk_matrix[i, j]`` holds F_delta(Y_i | X_j). Pairs (i, j) with
    ``event[i] == delta`` and ``Y_i < Y_j`` are comparable; concordance means
    the subject with the earlier event carries the higher predicted risk at
    that time. Ties in predictions count one half.
    """
    R = np.asarray(risk_matrix, dtype=np.float64)
    if R.shape != (cohort.n, cohort.n):
        raise ShapeMismatch(f"risk matrix must be ({cohort.n}, {cohort.n}), got {R.shape}")
    return _count_concordance(lambda subjects, rows: R.T[subjects][:, rows], cohort, delta)


def _count_concordance(risk_block, cohort: Cohort, delta: int) -> float:
    """The pair counter of both concordance forms. ``risk_block(subjects,
    rows)`` gives F_delta(Y_i | X_j), one row per subject j that
    ``subjects`` (a slice or index array) selects, at the times of anchor
    subjects i = ``rows`` (event ``delta``). Anchors and subjects come in
    :func:`core.row_slices` blocks; the pair counts are integers, so memory
    is O(block²), not n², and the result does not depend on the block size."""
    _check_event(cohort, delta)
    time = cohort.time
    anchors = np.flatnonzero(cohort.event == delta)
    concordant = ties = comparable = 0
    for block in row_slices(anchors.size):
        rows = anchors[block]
        own = risk_block(rows, rows).diagonal().copy()     # contiguous: faster compares
        for subjects in row_slices(cohort.n):
            risk = risk_block(subjects, rows)
            later = time[subjects, None] > time[rows]
            concordant += int(np.count_nonzero((own > risk) & later))
            ties += int(np.count_nonzero((own == risk) & later))
            comparable += int(np.count_nonzero(later))
    if comparable == 0:
        raise NoComparablePairs(f"no comparable pairs for event {delta}")
    return (concordant + 0.5 * ties) / comparable


def interpolate_curves(curve_values, knot_times, eval_times) -> np.ndarray:
    """Linear interpolation of per-subject CIF values onto new times.

    ``curve_values`` is (n, L) at the model's grid times; curves are anchored
    at (0, 0) and held flat beyond the last knot; ``knot_times`` must be an
    :class:`EventTimeGrid`'s times, L of them. Preserves monotonicity and
    [0, 1] bounds. Computes np.interp's slope * (t - knot) + value for all
    rows at once: one knot search shared by every row, then two gathers per
    :func:`core.row_slices` block of rows.
    """
    V = np.atleast_2d(np.asarray(curve_values, dtype=np.float64))
    knots = np.concatenate(([0.0], EventTimeGrid(knot_times).times))
    eval_times = np.asarray(eval_times, dtype=np.float64)
    n, k = V.shape[0], knots.size
    if V.shape[1] != k - 1:
        raise ShapeMismatch(f"curves have {V.shape[1]} values for {k - 1} knots")
    j = np.searchsorted(knots, eval_times, side="right") - 1
    offset = eval_times - knots[np.clip(j, 0, k - 1)]
    offset[(j < 0) | (j >= k - 1)] = 0.0        # flat before 0 and from the last knot
    j = np.clip(j, 0, k - 1)
    step = np.diff(knots)
    out = np.empty((n, eval_times.size), dtype=np.float64)
    for rows in row_slices(n):
        block = V[rows]
        values = np.zeros((block.shape[0], k))
        values[:, 1:] = block
        slopes = np.zeros((block.shape[0], k))
        np.divide(np.diff(values, axis=1), step, out=slopes[:, :-1])
        dst = out[rows]
        np.multiply(slopes[:, j], offset, out=dst)
        dst += values[:, j]
    return out


def concordance_td_from_curves(curve_values, knot_times, cohort: Cohort,
                               delta: int) -> float:
    """:func:`concordance_td` of linearly interpolated CIF curves, where
    F_delta(Y_i | X_j) is curve j at subject i's time.

    The curves are interpolated at the anchor subjects' times one block of
    curves and anchors at a time. Interpolation is elementwise in the rows
    and the evaluation times, so the counts, and the result, equal
    concordance_td's on the full risk matrix.
    """
    curves = np.atleast_2d(np.asarray(curve_values, dtype=np.float64))
    if curves.shape[0] != cohort.n:
        raise ShapeMismatch(f"expected {cohort.n} curves, got {curves.shape[0]}")
    return _count_concordance(
        lambda subjects, rows: interpolate_curves(curves[subjects], knot_times,
                                                  cohort.time[rows]),
        cohort, delta)


@dataclass(frozen=True)
class Scorer:
    """A cohort to score predictions on and, for IBS, its evaluation grid
    with the censoring weights on it (see :func:`scorer`)."""

    cohort: Cohort
    eval_grid: EvalGrid = None
    weights: tuple = None


def scorer(cohort: Cohort, eval_grid: EvalGrid = None) -> Scorer:
    """A :class:`Scorer` of ``cohort``. IBS needs ``eval_grid``; its IPCW
    weights come from the cohort's own censoring Kaplan-Meier curve
    (:func:`censoring_survival`) and are computed here, once."""
    if eval_grid is None:
        return Scorer(cohort)
    return Scorer(cohort, eval_grid,
                  ipcw_weights(cohort, eval_grid.times, censoring_survival(cohort)))


def score_curves(curves, knot_times, scorer: Scorer, criteria=("ctd", "ibs")) -> dict:
    """Per-event scores of CIF values ``curves`` (m, n, L) at ``knot_times``.

    Returns {criterion: [score of event 1, ..., event m]} for each of the
    requested ``criteria``, "ctd" (:func:`concordance_td_from_curves`)
    and "ibs" (the curves interpolated onto the scorer's grid, Brier-scored
    with its weights and integrated); nothing else is computed. An unknown
    criterion, or "ibs" from a scorer without an evaluation grid, raises
    ValueError before any work.
    """
    unknown = [c for c in criteria if c not in ("ctd", "ibs")]
    if unknown:
        raise ValueError(f"unknown scoring criteria {unknown}; expected 'ctd' or 'ibs'")
    cohort, grid = scorer.cohort, scorer.eval_grid
    if "ibs" in criteria and grid is None:
        raise ValueError("'ibs' needs a scorer built with an evaluation grid")
    curves = np.asarray(curves, dtype=np.float64)
    out = {criterion: [] for criterion in criteria}
    for d in range(1, curves.shape[0] + 1):
        if "ctd" in out:
            out["ctd"].append(concordance_td_from_curves(curves[d - 1], knot_times, cohort, d))
        if "ibs" in out:
            pred = interpolate_curves(curves[d - 1], knot_times, grid.times)
            bs, _ = brier_scores(pred, cohort, d, grid.times, scorer.weights)
            out["ibs"].append(integrated_brier(bs, grid))
    return out


def evaluate_cif_predictions(curves_per_event, knot_times, cohort: Cohort,
                             eval_grid: EvalGrid) -> dict:
    """Per-event concordance and integrated Brier score for a prediction set:
    {"ctd": [...], "ibs": [...]} from :func:`score_curves`."""
    return score_curves(curves_per_event, knot_times, scorer(cohort, eval_grid))
