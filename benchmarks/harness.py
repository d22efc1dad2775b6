"""Op accounting, output checks and summary statistics for the session benchmark.

An op is one user-visible step of a session: a CLI command or one
``explain_subject`` query. It fails when it raises, when a command returns a
nonzero exit code, or when the check of its outputs fails. Every check here
reads only the files or objects the op produced.
"""

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

SUM_TOL = 1e-9      # survival + sum of CIFs, and weights, must sum to 1 within this
BOUND_TOL = 1e-12   # slack on the [0, 1] bounds of a CIF
TAIL_SAMPLES = 10   # a reported percentile needs this many samples beyond it
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class CheckFailed(Exception):
    """An op's output broke one of the benchmark's invariants."""


@dataclass
class Tally:
    """Attempted and failed op counts plus one message per failure."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_op(tally: Tally, name: str, fn, check=None, clock=time.perf_counter):
    """Run one op, time it and check its output.

    ``fn()`` returns an exit code (CLI commands) or a result object (queries);
    ``check(result)`` raises on bad output. Returns the elapsed seconds of
    ``fn`` alone, also when the check fails, or None when ``fn`` raised or
    returned a nonzero exit code.
    """
    tally.attempted += 1
    elapsed = None
    start = clock()
    try:
        result = fn()
        if isinstance(result, int) and result != 0:
            raise CheckFailed(f"exit code {result}")
        elapsed = clock() - start
        if check is not None:
            check(result)
    except Exception as exc:  # an op that raises is a counted failure, not a crash
        tally.failed += 1
        tally.errors.append(f"{name}: {type(exc).__name__}: {exc}")
    return elapsed


def fail_skipped(tally: Tally, name: str, count: int, reason: str):
    """Count ``count`` ops that could not start because an earlier op failed."""
    tally.attempted += count
    tally.failed += count
    tally.errors.append(f"{name}: {count} not run: {reason}")


# ---------------------------------------------------------------- statistics

def tail_percentile(n_samples: int) -> float:
    """Highest percentile of the ladder with at least 10 samples beyond it."""
    for p in PERCENTILE_LADDER:
        if n_samples * (100.0 - p) / 100.0 >= TAIL_SAMPLES - 1e-9:
            return p
    raise ValueError(f"{n_samples} samples are too few for any tail percentile")


def iqm(values) -> float:
    """Interquartile mean: the mean of the middle half of the sorted values
    (n // 4 dropped from each end).

    A shared machine can switch between a fast and a slow speed every second
    or so. Samples of a short op then fall in one mode or the other, and
    their median jumps between the modes from run to run; this mean moves
    smoothly with the share of slow samples and still ignores outliers.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    cut = v.size // 4
    return float(v[cut:v.size - cut].mean())


# ------------------------------------------------------------- output checks

def check_curve_set(survival, cifs, where: str):
    """One subject's curves: CIFs monotone and inside [0, 1], S + sum F = 1."""
    S = np.asarray(survival, dtype=np.float64)
    F = np.asarray(cifs, dtype=np.float64)          # (m, L)
    if F.ndim != 2 or F.shape[1] != S.size:
        raise CheckFailed(f"{where}: curve shapes {S.shape} and {F.shape} disagree")
    if not (np.isfinite(S).all() and np.isfinite(F).all()):
        raise CheckFailed(f"{where}: non-finite curve value")
    if (np.diff(F, axis=1) < 0).any():
        raise CheckFailed(f"{where}: a CIF decreases")
    if F.min() < -BOUND_TOL or F.max() > 1.0 + BOUND_TOL:
        raise CheckFailed(f"{where}: a CIF leaves [0, 1]")
    gap = np.abs(S + F.sum(axis=0) - 1.0).max()
    if gap > SUM_TOL:
        raise CheckFailed(f"{where}: survival + sum of CIFs is off 1 by {gap:.3g}")


def check_weights(weights, used_fallback: bool, where: str):
    """Exemplar weights sum to 1; a population fallback has no weights."""
    w = np.asarray(weights, dtype=np.float64)
    if used_fallback:
        if w.size:
            raise CheckFailed(f"{where}: fallback row carries exemplar weights")
        return
    if w.size == 0 or (w < 0).any() or abs(w.sum() - 1.0) > SUM_TOL:
        raise CheckFailed(f"{where}: weights do not form a distribution")


def check_event_probabilities(probs, where: str):
    p = np.asarray(probs, dtype=np.float64)
    if (p < 0).any() or (p > 1).any() or abs(p.sum() - 1.0) > SUM_TOL:
        raise CheckFailed(f"{where}: event probabilities do not form a distribution")


def check_explanation(info, where: str):
    """A single ``explain_subject`` result."""
    check_weights(info.weights, info.used_fallback, where)
    check_event_probabilities(info.event_probabilities, where)


def check_explanations_file(path, expected_rows: int, m: int):
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    if len(records) != expected_rows:
        raise CheckFailed(f"explanations.json has {len(records)} rows, "
                          f"expected {expected_rows}")
    for rec in records:
        where = f"explanations.json row {rec['row']}"
        cif = rec["cif"]
        check_curve_set(cif["survival"],
                        [cif[f"event_{d}"] for d in range(1, m + 1)], where)
        check_weights(rec["weights"], rec["used_fallback"], where)
        check_event_probabilities(rec["event_probabilities"], where)


def check_cluster_cifs_file(path, expected_clusters: int, m: int):
    """cluster_cifs.csv: one curve set per exemplar, checked like a subject's."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    ids = data[:, 0]
    bounds = np.flatnonzero(np.diff(ids)) + 1
    blocks = np.split(data, bounds)
    if len(blocks) != expected_clusters:
        raise CheckFailed(f"cluster_cifs.csv has {len(blocks)} clusters, "
                          f"expected {expected_clusters}")
    for block in blocks:
        check_curve_set(block[:, 2], block[:, 3:3 + m].T,
                        f"cluster_cifs.csv exemplar {int(block[0, 0])}")


def read_metrics_csv(path) -> dict:
    """metrics.csv as {metric: [value per event]}, events in order."""
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            out.setdefault(row["metric"], []).append(float(row["value"]))
    return out


def check_metrics(scores: dict, min_ctd=None):
    """Per event, the model beats the population estimate: ctd above and ibs
    below it. With ``min_ctd`` (acceptance criterion 6: 0.60), ctd must also
    reach that floor."""
    for d, (ctd, ctd_pop, ibs, ibs_pop) in enumerate(zip(
            scores["ctd"], scores["ctd_population"], scores["ibs"],
            scores["ibs_population"]), start=1):
        if not ctd > ctd_pop:
            raise CheckFailed(f"event {d}: ctd {ctd:.4f} not above population {ctd_pop:.4f}")
        if min_ctd is not None and not ctd >= min_ctd:
            raise CheckFailed(f"event {d}: ctd {ctd:.4f} < {min_ctd}")
        if not ibs < ibs_pop:
            raise CheckFailed(f"event {d}: ibs {ibs:.4f} not below population {ibs_pop:.4f}")
