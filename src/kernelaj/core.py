"""Data model for right-censored competing-risks cohorts and the classical
population-level estimators (Kaplan-Meier, Aalen-Johansen).

Conventions used throughout the package:

- A cohort of n subjects carries a feature matrix (n, p), observed times
  (n,), and event indicators (n,) taking values in {0, 1, ..., m} where 0
  means censored and 1..m are the competing event types.
- The event time grid t_1 < t_2 < ... < t_L holds the unique positive event
  times; t_0 = 0 is implicit, and an event at time 0 counts in bin 1.
- Event counts d have shape (L, m); at-risk counts n have shape (L,). Counts
  are stored as float64 so the same code paths serve kernel-weighted
  (fractional) counts.
- Step curves are right-continuous with forward-fill beyond the last knot.

Callers must not perturb observed times after preprocessing: tie handling
relies on exact floating-point equality of times snapped to grid values.
"""

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import DegenerateRisk, EmptyCohort, NoEvents, ShapeMismatch

BLOCK_ROWS = 256


def row_slices(n, size=None):
    """The one row-block rule: slices of ``size`` of n rows, the last one
    shorter; ``size`` None means ``BLOCK_ROWS``, read at call time, so a
    patched block size reaches every blocked loop."""
    size = BLOCK_ROWS if size is None else size
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


def require_int(name: str, value, minimum: int):
    """``value`` when it is an integer of at least ``minimum``; numpy
    integers pass. A bool or a non-integral number raises TypeError, a
    smaller integer ValueError, each naming the setting."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def require_real(name: str, value):
    """``value`` when it is a real number other than NaN; infinities and
    numpy floats pass. A bool or a non-real value raises TypeError, NaN
    ValueError, each naming the setting."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if value != value:
        raise ValueError(f"{name} must not be NaN")
    return value


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

    def subset(self, idx) -> "Cohort":
        idx = np.asarray(idx)
        return Cohort(self.features[idx], self.time[idx], self.event[idx], self.m)


@dataclass(frozen=True)
class EventTimeGrid:
    """Strictly increasing positive event times t_1 < ... < t_L (t_0 = 0)."""

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        if times.ndim != 1 or times.size == 0:
            raise ShapeMismatch("grid must be a nonempty 1-D array")
        if not (np.isfinite(times).all() and (times > 0).all()):
            raise ValueError("grid times must be finite and strictly positive")
        if (np.diff(times) <= 0).any():
            raise ValueError("grid times must be strictly increasing")
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return self.times.size


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

    def __call__(self, t, side="right"):
        """Evaluate at scalar or array t (right-continuous); side="left"
        gives the left limit."""
        idx = np.searchsorted(self.knots, np.asarray(t, dtype=np.float64), side=side)
        out = np.concatenate(([self.initial_value], self.values))[idx]
        return float(out) if out.ndim == 0 else out

    def eval_left(self, t):
        """Left limit: value just before t (sup over s < t)."""
        return self(t, side="left")


@dataclass(frozen=True)
class CifSet:
    """Survival curve plus one cumulative incidence curve per event type."""

    survival: StepCurve
    cifs: tuple

    def cif(self, delta: int) -> StepCurve:
        """CIF of event type delta in 1..m."""
        return self.cifs[delta - 1]

    @classmethod
    def from_values(cls, knots, survival, cifs) -> "CifSet":
        """Step curves from survival (L,) and CIF (m, L) values at the knots."""
        return cls(StepCurve(knots, survival, initial_value=1.0),
                   tuple(StepCurve(knots, c, initial_value=0.0) for c in cifs))


def build_event_grid(cohort: Cohort) -> EventTimeGrid:
    """Sorted unique positive event times; an event at time 0 joins bin 1."""
    times = cohort.time[(cohort.event != 0) & (cohort.time > 0)]
    if times.size == 0:
        raise NoEvents("no event at a positive time; no event grid exists")
    return EventTimeGrid(np.unique(times))


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
    time = np.concatenate(([0.0], grid.times))[kappa]
    return Cohort(cohort.features, time, cohort.event, cohort.m), kappa


def reverse_cumsum(x):
    """Sums from the right along the last axis (bins), out[..., l] =
    sum_{a >= l} x[..., a]: the at-risk count of per-bin counts."""
    return np.flip(np.cumsum(np.flip(x, axis=-1), axis=-1), axis=-1)


def label_codes(cohort: Cohort, grid: EventTimeGrid):
    """Each record's code kappa * (m + 1) + delta, kappa its
    :func:`breslow_preprocess` bin: its flat cell in an (L + 1, m + 1) table."""
    _, kappa = breslow_preprocess(cohort, grid)
    return kappa * (cohort.m + 1) + cohort.event


def check_labels(kappa, delta, n, m, L):
    """(kappa, delta) of n rows as int64 arrays; a label outside 0 <= delta <= m,
    0 <= kappa <= L, or an event at kappa 0, raises ValueError naming its row:
    the one label rule, of every function that counts or scores labels."""
    kappa, delta = np.asarray(kappa, np.int64), np.asarray(delta, np.int64)
    if kappa.shape != (n,) or delta.shape != (n,):
        raise ValueError(f"kappa and delta must have shape ({n},)")
    bad = np.flatnonzero((delta < 0) | (delta > m) | (kappa < (delta != 0)) | (kappa > L))
    if bad.size:
        raise ValueError(f"row {bad[0]}: kappa {kappa[bad[0]]} and delta {delta[bad[0]]} "
                         f"are not a label on {L} bins and {m} event types")
    return kappa, delta


def count_tables(codes, shape, group, groups: int):
    """Event counts (groups, L, m) and at-risk counts (groups, L) of the
    records in each group 0..groups-1 (``group``, one per record), from the
    records' :func:`label_codes` on tables of ``shape`` (L, m), checked by
    :func:`check_labels`. A code is its record's flat cell in the (L + 1,
    m + 1) table, so one count fills every (group, bin, event) cell. At-risk
    counts are reverse cumulative sums over bins. The counts are integers, so
    tables summed over groups equal the one-group tables exactly."""
    check_labels(codes // (shape[1] + 1), codes % (shape[1] + 1), codes.size, shape[1], shape[0])
    cells = np.zeros((groups, shape[0] + 1, shape[1] + 1))
    np.add.at(cells.reshape(groups, -1), (group, codes), 1.0)   # a view of cells
    n = reverse_cumsum(np.einsum("glk->gl", cells[:, 1:]))  # faster than .sum(axis=2)
    return np.ascontiguousarray(cells[:, 1:, 1:]), np.ascontiguousarray(n)


def risk_event_counts(cohort: Cohort, grid: EventTimeGrid):
    """Event counts d (L, m) of each event type in bin l + 1 and at-risk
    counts n (L,) of records in bin l + 1 or later: the one-group
    :func:`count_tables`."""
    d, n = count_tables(label_codes(cohort, grid), (len(grid), cohort.m), 0, 1)
    return d[0], n[0]


def safe_reciprocal(n, out=None):
    """1/n where n > 0 and 0 elsewhere. Every hazard is d * safe_reciprocal(n),
    so a bin where nobody is at risk has hazard 0. ``out`` may be n itself."""
    pos = n > 0
    out = np.divide(1.0, n, out=out, where=pos)
    out[~pos] = 0.0
    return out


def table_hazards(d, n):
    """Hazards h[k, q, l] = d[q, l, k] / n[q, l] of event tables d (q, L, m)
    over at-risk tables n (q, L), laid out (m, q, L) for cif_from_hazards."""
    return np.transpose(d * safe_reciprocal(n)[:, :, None], (2, 0, 1))


def cif_from_hazards(h):
    """The Aalen-Johansen recursion for hazards h (m, q, L) of q subjects.

    u[q, l] = max(1 - sum_k h[k, q, l], 0)
    S[q, l] = prod_{a <= l} u[q, a]
    F[k, q, l] = min(sum_{a <= l} h[k, q, a] * S[q, a - 1], 1)    (S[q, -1] = 1)

    The floor at 0 and the cap at 1 bind only where rounding takes the summed
    hazard or the sum of F past 1, which happens from a subject's last bin
    with anyone at risk. Returns (F, S, S_prev, u); the training backward
    pass reuses S_prev and u.
    """
    u = np.maximum(1.0 - h.sum(axis=0), 0.0)
    S = np.cumprod(u, axis=1)
    S_prev = np.concatenate((np.ones((S.shape[0], 1)), S[:, :-1]), axis=1)
    F = np.cumsum(h * S_prev[None, :, :], axis=2)
    return np.minimum(F, 1.0, out=F), S, S_prev, u


def curves_from_counts(d: np.ndarray, n: np.ndarray, grid: EventTimeGrid,
                       allow_zero_risk: bool = False) -> CifSet:
    """Survival and CIF step curves from (possibly weighted) counts.

    S(t)     = prod_{l: t_l <= t} max(1 - sum_delta d[l, delta] / n[l], 0)
    F_d(t)   = sum_{l: t_l <= t} (d[l, delta] / n[l]) * S(t_{l-1})

    This is the one-subject view of :func:`cif_from_hazards`. Bins with
    n[l] == 0 contribute zero hazard; with ``allow_zero_risk`` False (the
    population case) such bins raise DegenerateRisk instead. Counts that are
    not finite or are negative raise ValueError.
    """
    d = np.asarray(d, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != len(grid) or n.shape != (len(grid),):
        raise ShapeMismatch("counts must have shapes (L, m) and (L,)")
    if not all(np.isfinite(a).all() and (a >= 0).all() for a in (d, n)):
        raise ValueError("counts must be finite and nonnegative")
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


def population_aalen_johansen(cohort: Cohort) -> CifSet:
    """Convenience wrapper: grid, preprocessing, counts, and curves."""
    grid = build_event_grid(cohort)
    pre, _ = breslow_preprocess(cohort, grid)
    d, n = risk_event_counts(pre, grid)
    return aalen_johansen(d, n, grid)
