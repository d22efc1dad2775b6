"""Data model for right-censored competing-risks cohorts and the classical
population-level estimators (Kaplan-Meier, Aalen-Johansen, piecewise-constant
hazard MLE).

Conventions used throughout the package:

- A cohort of n subjects carries a feature matrix (n, p), observed times
  (n,), and event indicators (n,) taking values in {0, 1, ..., m} where 0
  means censored and 1..m are the competing event types.
- The event time grid t_1 < t_2 < ... < t_L collects the unique times at
  which any critical event occurs; t_0 = 0 is implicit.
- Event counts d have shape (L, m); at-risk counts n have shape (L,). Counts
  are stored as float64 so the same code paths serve kernel-weighted
  (fractional) counts.
- Step curves are right-continuous with forward-fill beyond the last knot.

Callers must not perturb observed times after preprocessing: tie handling
relies on exact floating-point equality of times snapped to grid values.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateRisk, EmptyCohort, NoEvents, ShapeMismatch


class SubjectRecord(NamedTuple):
    """One observation: feature vector, observed time, event indicator."""

    features: np.ndarray
    time: float
    event: int


@dataclass(frozen=True)
class Cohort:
    """An i.i.d. competing-risks sample.

    Parameters
    ----------
    features : ndarray, shape (n, p)
    time : ndarray, shape (n,)
        Observed time of the earliest critical event or censoring; >= 0.
    event : ndarray, shape (n,)
        Integer in {0, ..., m}; 0 means censored.
    m : int
        Number of critical event types (>= 1).
    """

    features: np.ndarray
    time: np.ndarray
    event: np.ndarray
    m: int

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        time = np.asarray(self.time, dtype=np.float64)
        event = np.asarray(self.event, dtype=np.int64)
        if features.ndim != 2:
            raise ShapeMismatch(f"features must be 2-D, got shape {features.shape}")
        n = features.shape[0]
        if n == 0:
            raise EmptyCohort("cohort must contain at least one record")
        if time.shape != (n,) or event.shape != (n,):
            raise ShapeMismatch(
                f"time/event must have shape ({n},), got {time.shape} and {event.shape}"
            )
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
        if not np.isfinite(time).all() or (time < 0).any():
            raise ValueError("times must be finite and nonnegative")
        if (event < 0).any() or (event > self.m).any():
            raise ValueError(f"event indicators must lie in 0..{self.m}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "event", event)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    @classmethod
    def from_records(cls, records: Sequence[SubjectRecord], m: int) -> "Cohort":
        feats = np.vstack([np.atleast_1d(r.features) for r in records])
        times = np.array([r.time for r in records], dtype=np.float64)
        events = np.array([r.event for r in records], dtype=np.int64)
        return cls(feats, times, events, m)

    def record(self, i: int) -> SubjectRecord:
        return SubjectRecord(self.features[i], float(self.time[i]), int(self.event[i]))

    def subset(self, idx) -> "Cohort":
        idx = np.asarray(idx)
        return Cohort(self.features[idx], self.time[idx], self.event[idx], self.m)

    def replace_times(self, time: np.ndarray) -> "Cohort":
        return Cohort(self.features, time, self.event, self.m)


@dataclass(frozen=True)
class EventTimeGrid:
    """Strictly increasing positive event times t_1 < ... < t_L (t_0 = 0)."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        if times.ndim != 1 or times.size == 0:
            raise ShapeMismatch("grid must be a nonempty 1-D array")
        if (times <= 0).any():
            raise ValueError("grid times must be strictly positive")
        if (np.diff(times) <= 0).any():
            raise ValueError("grid times must be strictly increasing")
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return self.times.size

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def with_leading_zero(self) -> np.ndarray:
        """Times [t_0=0, t_1, ..., t_L]."""
        return np.concatenate(([0.0], self.times))


@dataclass(frozen=True)
class StepCurve:
    """Right-continuous step function with forward-fill interpolation.

    Evaluates to ``initial_value`` before the first knot, to the value of the
    last knot <= t otherwise, and holds the final value beyond the last knot.
    """

    knots: np.ndarray
    values: np.ndarray
    initial_value: float = 1.0

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if knots.ndim != 1 or values.shape != knots.shape:
            raise ShapeMismatch("knots and values must be matching 1-D arrays")
        if knots.size > 1 and (np.diff(knots) <= 0).any():
            raise ValueError("knots must be strictly increasing")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        """Evaluate at scalar or array t (right-continuous)."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.knots, t, side="right") - 1
        padded = np.concatenate(([self.initial_value], self.values))
        out = padded[idx + 1]
        return float(out) if out.ndim == 0 else out

    def eval_left(self, t):
        """Left limit: value just before t (sup over s < t)."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.knots, t, side="left") - 1
        padded = np.concatenate(([self.initial_value], self.values))
        out = padded[idx + 1]
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CifSet:
    """Survival curve plus one cumulative incidence curve per event type."""

    survival: StepCurve
    cifs: tuple

    @property
    def m(self) -> int:
        return len(self.cifs)

    def cif(self, delta: int) -> StepCurve:
        """CIF of event type delta in 1..m."""
        return self.cifs[delta - 1]

    @property
    def t_max(self) -> float:
        return float(self.survival.knots[-1])

    @classmethod
    def from_values(cls, knots, survival, cifs) -> "CifSet":
        """Step curves from survival (L,) and CIF (m, L) values at the knots."""
        return cls(StepCurve(knots, survival, initial_value=1.0),
                   tuple(StepCurve(knots, c, initial_value=0.0) for c in cifs))


@dataclass(frozen=True)
class PiecewiseHazard:
    """Event-specific hazard, constant on each interval (t_{l-1}, t_l].

    ``rates`` has shape (L, m); the hazard is zero outside (0, t_L].
    """

    grid: EventTimeGrid
    rates: np.ndarray

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=np.float64)
        if rates.ndim != 2 or rates.shape[0] != len(self.grid):
            raise ShapeMismatch("rates must have shape (L, m)")
        if (rates < 0).any():
            raise ValueError("hazard rates must be nonnegative")
        object.__setattr__(self, "rates", rates)

    def __call__(self, t, delta: int):
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.grid.times, t, side="left")
        inside = (t > 0) & (t <= self.grid.t_max)
        idx = np.clip(idx, 0, len(self.grid) - 1)
        out = np.where(inside, self.rates[idx, delta - 1], 0.0)
        return float(out) if out.ndim == 0 else out


def build_event_grid(cohort: Cohort) -> EventTimeGrid:
    """Unique times at which any critical event occurs, sorted ascending."""
    uncensored = cohort.time[cohort.event != 0]
    if uncensored.size == 0:
        raise NoEvents("every record is censored; no event grid exists")
    return EventTimeGrid(np.unique(uncensored))


def breslow_preprocess(cohort: Cohort, grid: EventTimeGrid):
    """Snap every record back to the preceding grid time.

    A record's time becomes the latest grid time <= its observed time, or 0
    if it was censored before the first grid time; an event before the first
    grid time is moved up to it, so every event occupies a bin. On the
    cohort's own event grid uncensored times are grid values and stay
    unchanged; on a coarser grid they move down with the censored ones. Also
    returns the time-bin index kappa in {0, ..., L} for every record (kappa =
    0 only for records censored before t_1).

    Using <= rather than a strict inequality makes the operation idempotent
    and keeps a record censored exactly at an event time inside that time's
    risk set, matching the classical at-risk convention.
    """
    kappa = np.searchsorted(grid.times, cohort.time, side="right").astype(np.int64)
    uncensored = cohort.event != 0
    kappa[uncensored] = np.maximum(kappa[uncensored], 1)
    return cohort.replace_times(grid.with_leading_zero()[kappa]), kappa


def risk_event_counts(cohort_pre: Cohort, grid: EventTimeGrid):
    """Event counts d (L, m) and at-risk counts n (L,) on the grid.

    d[l, delta-1] counts records with event type delta at exactly t_{l+1};
    n[l] counts records with observed time >= t_{l+1}. The cohort must
    already be Breslow-preprocessed on this grid.
    """
    L, m = len(grid), cohort_pre.m
    d = np.zeros((L, m), dtype=np.float64)
    uncensored = cohort_pre.event != 0
    if uncensored.any():
        ell = np.searchsorted(grid.times, cohort_pre.time[uncensored])
        np.add.at(d, (ell, cohort_pre.event[uncensored] - 1), 1.0)
    sorted_times = np.sort(cohort_pre.time)
    n_at_risk = cohort_pre.n - np.searchsorted(sorted_times, grid.times, side="left")
    return d, n_at_risk.astype(np.float64)


def safe_reciprocal(n):
    """1/n where n > 0 and 0 elsewhere. Every hazard is d * safe_reciprocal(n),
    so a bin where nobody is at risk has hazard 0."""
    pos = n > 0
    return np.where(pos, 1.0 / np.where(pos, n, 1.0), 0.0)


def table_hazards(d, n):
    """Hazards h[k, q, l] = d[q, l, k] / n[q, l] of event tables d (q, L, m)
    over at-risk tables n (q, L), laid out (m, q, L) for cif_from_hazards."""
    return np.transpose(d * safe_reciprocal(n)[:, :, None], (2, 0, 1))


def cif_from_hazards(h):
    """The Aalen-Johansen recursion for hazards h (m, q, L) of q subjects.

    u[q, l] = max(1 - sum_k h[k, q, l], 0)
    S[q, l] = prod_{a <= l} u[q, a]
    F[k, q, l] = sum_{a <= l} h[k, q, a] * S[q, a - 1]    (S[q, -1] = 1)

    The floor at 0 binds only where rounding takes the summed hazard past 1,
    which happens at a subject's last bin with anyone at risk; later hazards
    are 0 there, so F is the same with or without it. Returns
    (F, S, S_prev, u); the training backward pass reuses S_prev and u.
    """
    u = np.maximum(1.0 - h.sum(axis=0), 0.0)
    S = np.cumprod(u, axis=1)
    S_prev = np.concatenate((np.ones((S.shape[0], 1)), S[:, :-1]), axis=1)
    F = np.cumsum(h * S_prev[None, :, :], axis=2)
    return F, S, S_prev, u


def curves_from_counts(d: np.ndarray, n: np.ndarray, grid: EventTimeGrid,
                       allow_zero_risk: bool = False) -> CifSet:
    """Survival and CIF step curves from (possibly weighted) counts.

    S(t)     = prod_{l: t_l <= t} max(1 - sum_delta d[l, delta] / n[l], 0)
    F_d(t)   = sum_{l: t_l <= t} (d[l, delta] / n[l]) * S(t_{l-1})

    This is the one-subject view of :func:`cif_from_hazards`. Bins with
    n[l] == 0 contribute zero hazard; with ``allow_zero_risk`` False (the
    population case) such bins raise DegenerateRisk instead.
    """
    d = np.asarray(d, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != len(grid) or n.shape != (len(grid),):
        raise ShapeMismatch("counts must have shapes (L, m) and (L,)")
    if not allow_zero_risk and (n <= 0).any():
        raise DegenerateRisk("empty risk set at a grid time")
    F, S, _, _ = cif_from_hazards(table_hazards(d[None], n[None]))
    return CifSet.from_values(grid.times, S[0], F[:, 0])


def kaplan_meier(d: np.ndarray, n: np.ndarray, grid: EventTimeGrid) -> StepCurve:
    """Product-limit survival estimate with all event types pooled."""
    return curves_from_counts(d, n, grid).survival


def aalen_johansen(d: np.ndarray, n: np.ndarray, grid: EventTimeGrid) -> CifSet:
    """Cumulative incidence estimates for all event types, plus survival."""
    return curves_from_counts(d, n, grid)


def hazard_mle(d: np.ndarray, n: np.ndarray, grid: EventTimeGrid) -> PiecewiseHazard:
    """Maximum-likelihood piecewise-constant event-specific hazard.

    rate[l, delta] = d[l, delta] / ((t_l - t_{l-1}) * n[l])
    """
    d = np.asarray(d, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    if (n <= 0).any():
        raise DegenerateRisk("empty risk set at a grid time")
    widths = np.diff(grid.with_leading_zero())
    return PiecewiseHazard(grid, d / (widths[:, None] * n[:, None]))


def population_aalen_johansen(cohort: Cohort) -> CifSet:
    """Convenience wrapper: grid, preprocessing, counts, and curves."""
    grid = build_event_grid(cohort)
    pre, _ = breslow_preprocess(cohort, grid)
    d, n = risk_event_counts(pre, grid)
    return aalen_johansen(d, n, grid)
