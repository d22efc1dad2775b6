"""CSV cohort ingestion, train-fitted preprocessing, dataset splitting, and a
synthetic competing-risks generator (its closed-form CIF is a test oracle).

CSV dialect: comma-separated, header row required, UTF-8, '.' decimal point;
missing values are empty cells or the literal "NA". Rows are read as
``csv.DictReader`` reads them: blank lines are skipped, a short row's missing
cells are None, extra cells are ignored and a repeated header name takes its
last column. :func:`write_csv` writes every table, each float as its ``repr``
(the shortest text that reads back to the same bits), with CRLF line ends
for cohorts and LF for reports, ``IO_BLOCK_ROWS`` rows per write; the reader
takes one row at a time, with one ``float`` call per numeric cell.
Preprocessing statistics (means, standard deviations, category sets, modes)
are fitted on the training rows only and applied unchanged to held-out sets.
"""

import csv
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import Cohort, require_int, require_real
from .errors import MissingColumn, ParseError, SchemaMismatch, TooSmall

_KINDS = ("continuous", "categorical", "binary")
_MISSING = ("", "NA")
IO_BLOCK_ROWS = 256


@dataclass
class RawTable:
    """Parsed CSV contents: per-column raw values plus time/event arrays.

    Feature cells are floats (continuous) or strings (categorical/binary);
    missing cells are None.
    """

    columns: dict
    time: np.ndarray
    event: np.ndarray

    @property
    def n(self) -> int:
        return self.time.size

    def subset(self, idx) -> "RawTable":
        """The rows ``idx`` (an integer array), in that order."""
        return RawTable({name: [values[i] for i in idx] for name, values in self.columns.items()},
                        self.time[idx], self.event[idx])


def load_cohort(path, schema_spec: dict, time_column: str, event_column: str) -> RawTable:
    """Read and type-check a cohort CSV, one row at a time.

    ``schema_spec`` maps feature column names to their kind. Raises
    MissingColumn when a declared column (or the time/event column) is
    absent, and ParseError naming the row and column of the first bad cell in
    row-major order (time, event, then the schema's columns), a non-finite
    number or a negative time included.
    """
    for kind in schema_spec.values():
        if kind not in _KINDS:
            raise SchemaMismatch(f"unknown column kind '{kind}'")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        index = {name: j for j, name in enumerate(header)}
        for col in list(schema_spec) + [time_column, event_column]:
            if col not in index:
                raise MissingColumn(f"column '{col}' not found in {path}")
        columns = {name: [] for name in schema_spec}
        fields = [(name, index[name], kind == "continuous", columns[name].append)
                  for name, kind in schema_spec.items()]
        times, events = [], []
        t, e = index[time_column], index[event_column]
        for rownum, row in enumerate(filter(None, reader), start=2):
            row += [None] * (len(header) - len(row))
            times.append(_parse_float(row[t], rownum, time_column, "time"))
            events.append(_parse_event(row[e], rownum, event_column))
            for name, j, numeric, store in fields:
                cell = row[j]
                store(None if cell is None or cell.strip() in _MISSING else
                      _parse_float(cell, rownum, name, "feature") if numeric else cell.strip())
    if not times:
        raise ParseError(f"no data rows in {path}")
    return RawTable(columns, np.array(times, dtype=np.float64),
                    np.array(events, dtype=np.int64))


def _parse_float(cell, rownum, colname, kind=None) -> float:
    """``float(cell)``; a ``kind`` "time" must be finite and nonnegative, a "feature" finite."""
    try:
        value = float(cell)
    except (TypeError, ValueError):
        raise ParseError(f"cannot parse '{cell}' as a number "
                         f"(row {rownum}, column '{colname}')") from None
    if kind and not (math.isfinite(value) and (kind == "feature" or value >= 0)):
        need = "number" if kind == "feature" else "nonnegative number"
        raise ParseError(f"{kind} must be a finite {need}, got '{cell}' "
                         f"(row {rownum}, column '{colname}')")
    return value


def _parse_event(cell, rownum, colname) -> int:
    value = _parse_float(cell, rownum, colname)
    if not 0 <= value < 2.0 ** 63 or value != int(value):
        raise ParseError(f"event indicator must be a nonnegative integer, got "
                         f"'{cell}' (row {rownum}, column '{colname}')")
    return int(value)


@dataclass
class FeatureSchema:
    """Per-column preprocessing rules fitted on training rows only.

    Continuous columns: mean imputation then standardization (population
    std convention; a zero-variance column falls back to std 1 and adds a
    line to ``warnings``). Binary and categorical columns: mode imputation, a
    binary mode counting values ("1" and "1.0" agree; a tie gives 0); a
    present binary cell other than 0 or 1 raises ValueError. Categorical
    columns are one-hot encoded over the training category set, with unseen
    categories mapping to the all-zero vector.
    """

    kinds: dict
    stats: dict = field(default_factory=dict)
    feature_names: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def fit(self, table: RawTable) -> "FeatureSchema":
        for name, kind in self.kinds.items():
            values = table.columns[name]
            present = [v for v in values if v is not None]
            if kind == "continuous":
                arr = np.array(present, dtype=np.float64)
                mean = float(arr.mean()) if arr.size else 0.0
                std = float(arr.std()) if arr.size else 1.0
                if std == 0.0:
                    self.warnings.append(f"column '{name}' has zero variance")
                    std = 1.0
                self.stats[name] = {"mean": mean, "std": std}
            elif kind == "binary":
                ones = sum(_binary_value(name, v) for v in present)
                self.stats[name] = {"mode": "1" if 2 * ones > len(present) else "0"}
            else:
                counts = Counter(present)
                top = max(counts.values(), default=0)
                mode = min((v for v, c in counts.items() if c == top), default="0")
                self.stats[name] = {"mode": mode, "categories": sorted(counts) or [mode]}
        self.feature_names = [f for name in self.kinds for f in self._features(name)]
        return self

    def _features(self, name) -> list:
        """The feature names of input column ``name``."""
        if self.kinds[name] == "categorical":
            return [f"{name}={cat}" for cat in self.stats[name]["categories"]]
        return [name]

    def transform(self, table: RawTable) -> np.ndarray:
        if not self.stats:
            raise SchemaMismatch("schema has not been fitted")
        for name in self.kinds:
            if name not in table.columns:
                raise SchemaMismatch(f"column '{name}' missing from input table")
        blocks = []
        for name, kind in self.kinds.items():
            values = table.columns[name]
            if kind == "continuous":
                st = self.stats[name]
                col = np.array(
                    [st["mean"] if v is None else v for v in values], dtype=np.float64)
                blocks.append(((col - st["mean"]) / st["std"])[:, None])
            elif kind == "binary":
                mode = self.stats[name]["mode"]
                col = np.array([_binary_value(name, mode if v is None else v)
                                for v in values], dtype=np.float64)
                blocks.append(col[:, None])
            else:
                st = self.stats[name]
                cats = st["categories"]
                onehot = np.zeros((len(values), len(cats)), dtype=np.float64)
                index = {c: k for k, c in enumerate(cats)}
                for i, v in enumerate(values):
                    v = st["mode"] if v is None else v
                    k = index.get(v)
                    if k is not None:
                        onehot[i, k] = 1.0
                blocks.append(onehot)
        return np.hstack(blocks)

    def original_scale(self, means: np.ndarray) -> np.ndarray:
        """Rows of feature means with each continuous column mapped back to its
        input scale; binary and one-hot columns (frequencies) stay as they are."""
        out = np.array(means, dtype=np.float64)
        j = 0
        for name, kind in self.kinds.items():
            if kind == "continuous":
                st = self.stats[name]
                out[:, j] = out[:, j] * st["std"] + st["mean"]
            j += len(self._features(name))
        return out

    def to_dict(self) -> dict:
        """JSON values; ``kinds`` as [name, kind] pairs keeps the column order."""
        return {"kinds": [list(item) for item in self.kinds.items()], "stats": self.stats,
                "feature_names": list(self.feature_names)}

    @classmethod
    def from_dict(cls, payload: dict) -> "FeatureSchema":
        schema = cls(kinds=dict(payload["kinds"]), stats=payload["stats"],
                     feature_names=list(payload["feature_names"]))
        for name, kind in schema.kinds.items():
            st = schema.stats.get(name, {})
            modes = {"binary": ("0", "1"), "categorical": st.get("categories", ())}
            if not (st.get("mode") in modes.get(kind, ()) or (kind == "continuous" and
                    np.isfinite(st.get("mean", np.nan)) and 0 < st.get("std", 0) < np.inf)):
                raise ValueError(f"column '{name}' has no valid stats of kind '{kind}'")
        if schema.feature_names != [f for name in schema.kinds for f in schema._features(name)]:
            raise ValueError("feature_names disagree with the column stats")
        return schema


def _binary_value(name, cell) -> float:
    """A binary column's cell (digits with at most one '.') as 0.0 or 1.0;
    any other cell raises ValueError naming the column and the cell."""
    value = float(cell) if str(cell).replace(".", "", 1).isdecimal() else None
    if value not in (0.0, 1.0):
        raise ValueError(f"binary column '{name}' must hold 0 or 1, got '{cell}'")
    return value


def fit_apply_preprocessor(train_table: RawTable, *other_tables, schema_spec: dict):
    """Fit the schema on the training table and transform all tables.

    Returns (cohorts..., schema) where the first cohort corresponds to the
    training table. The number of event types is the largest indicator seen
    across the supplied tables.
    """
    schema = FeatureSchema(kinds=dict(schema_spec)).fit(train_table)
    tables = (train_table,) + other_tables
    m = max(1, *(int(t.event.max(initial=0)) for t in tables))
    cohorts = tuple(
        Cohort(schema.transform(t), t.time, t.event, m) for t in tables
    )
    return cohorts + (schema,)


def split(cohort: Cohort, seed: int, train_frac: float = 0.7,
          proper_frac: float = 0.8):
    """Seeded shuffle then contiguous cuts into (train, valid, test).

    ``train_frac`` of the cohort is kept for model building; of that,
    ``proper_frac`` becomes the proper training set and the rest validation.
    The three parts are disjoint and exhaustive.
    """
    if cohort.n < 5:
        raise TooSmall("need at least 5 records to split")
    perm = np.random.default_rng(seed).permutation(cohort.n)
    n_build = int(cohort.n * train_frac)
    n_proper = int(n_build * proper_frac)
    return tuple(cohort.subset(idx) for idx in np.split(perm, [n_proper, n_build]))


@dataclass(frozen=True)
class SynthConfig:
    """Two-event synthetic generator settings.

    Features are standard normal; each event time is exponential with rate
    exp(w_delta . x); censoring is exponential with its rate tuned so the
    expected censoring fraction matches ``censoring_rate``.
    """

    n: int
    p: int
    w1: tuple
    w2: tuple
    censoring_rate: float = 0.5
    seed: int = 0

    def __post_init__(self):
        require_int("n", self.n, 1)
        require_int("p", self.p, 1)
        require_int("seed", self.seed, 0)
        if not 0.0 <= require_real("censoring_rate", self.censoring_rate) < 1.0:
            raise ValueError("censoring rate must lie in [0, 1)")
        if len(self.w1) != self.p or len(self.w2) != self.p:
            raise ValueError("weight vectors must have length p")
        object.__setattr__(self, "censoring_rate", float(self.censoring_rate))
        object.__setattr__(self, "w1", tuple(float(v) for v in self.w1))
        object.__setattr__(self, "w2", tuple(float(v) for v in self.w2))


def _censoring_rate_given(c: float, lam_total: np.ndarray) -> float:
    """Expected fraction censored when C ~ Exp(c) independent of T."""
    if c == 0.0:
        return 0.0
    return float(np.mean(c / (c + lam_total)))


def _solve_censoring_rate(target: float, lam_total: np.ndarray) -> float:
    if target <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while _censoring_rate_given(hi, lam_total) < target:
        hi *= 2.0
        if hi > 1e12:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _censoring_rate_given(mid, lam_total) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate_synthetic(cfg: SynthConfig) -> Cohort:
    """Draw a cohort from the two-event exponential model (m = 2)."""
    rng = np.random.default_rng(cfg.seed)
    X = rng.standard_normal((cfg.n, cfg.p))
    lam1 = np.exp(X @ np.asarray(cfg.w1))
    lam2 = np.exp(X @ np.asarray(cfg.w2))
    t1 = rng.exponential(1.0 / lam1)
    t2 = rng.exponential(1.0 / lam2)
    t_event = np.minimum(t1, t2)
    event_type = np.where(t1 <= t2, 1, 2)
    c_rate = _solve_censoring_rate(cfg.censoring_rate, lam1 + lam2)
    c = rng.exponential(1.0 / c_rate, size=cfg.n) if c_rate > 0.0 else np.full(cfg.n, np.inf)
    y = np.minimum(t_event, c)
    delta = np.where(t_event <= c, event_type, 0)
    return Cohort(X, y, delta.astype(np.int64), m=2)


def write_csv(path, header, columns, newline="\n"):
    """Write a table: the header through ``csv.writer`` (a name is quoted when
    it needs to be), then ``IO_BLOCK_ROWS`` unquoted rows per ``write``, each
    cell a string as it is or the ``repr`` of a ``tolist()`` number (the same
    text as ``str``, but faster). A column is a 1-D array or a 2-D (n, k) block."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator=newline).writerow(header)
        for start in range(0, len(columns[0]), IO_BLOCK_ROWS):
            blocks = (col[start:start + IO_BLOCK_ROWS] for col in columns)
            cells = [map(str if block.dtype.kind == "U" else repr, values) for block in blocks
                     for values in (block.T.tolist() if block.ndim == 2 else [block.tolist()])]
            fh.write(newline.join(map(",".join, zip(*cells))) + newline)


def write_cohort_csv(cohort: Cohort, path):
    """Write a cohort (x1..xp, time, event) with CRLF line ends."""
    write_csv(path, [*(f"x{j + 1}" for j in range(cohort.p)), "time", "event"],
              [cohort.features, cohort.time, cohort.event], newline="\r\n")
