"""Tests for CSV ingestion, leakage-free preprocessing, splitting, and the
synthetic generator with its closed-form oracle. The whole-array CSV reader
and writer are checked against the per-cell ones in ``dense_oracle``."""

import csv
import io
import json
import struct
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

import dense_oracle as oracle
from conftest import traced_peak
from kernelaj import dataio
from kernelaj import (
    MissingColumn,
    ParseError,
    SynthConfig,
    TooSmall,
    fit_apply_preprocessor,
    generate_synthetic,
    load_cohort,
    population_aalen_johansen,
    split,
    write_cohort_csv,
)
from kernelaj.dataio import FeatureSchema, RawTable


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SCHEMA = {"age": "continuous", "stage": "categorical", "smoker": "binary"}


class TestLoadCohort:
    def test_well_formed(self, tmp_path):
        path = write_csv(tmp_path,
                         "age,stage,smoker,time,event\n"
                         "50,II,1,3.5,1\n"
                         "61,III,0,2.0,0\n"
                         "47,II,1,8.1,2\n")
        table = load_cohort(path, SCHEMA, "time", "event")
        assert table.n == 3
        assert table.columns["age"] == [50.0, 61.0, 47.0]
        assert list(table.event) == [1, 0, 2]

    def test_missing_event_column(self, tmp_path):
        path = write_csv(tmp_path, "age,stage,smoker,time\n50,II,1,3.5\n")
        with pytest.raises(MissingColumn):
            load_cohort(path, SCHEMA, "time", "event")

    def test_bad_time_cell_reports_location(self, tmp_path):
        path = write_csv(tmp_path,
                         "age,stage,smoker,time,event\n"
                         "50,II,1,abc,1\n")
        with pytest.raises(ParseError, match=r"\(row 2, column 'time'\)$"):
            load_cohort(path, SCHEMA, "time", "event")

    def test_missing_cells_marked(self, tmp_path):
        path = write_csv(tmp_path,
                         "age,stage,smoker,time,event\n"
                         ",II,NA,3.5,1\n"
                         "61,,0,2.0,0\n")
        table = load_cohort(path, SCHEMA, "time", "event")
        assert table.columns["age"][0] is None
        assert table.columns["smoker"][0] is None
        assert table.columns["stage"][1] is None

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e19", "-1", "1.5"])
    def test_event_cell_must_be_a_nonnegative_integer(self, tmp_path, cell):
        path = write_csv(tmp_path, "age,stage,smoker,time,event\n"
                                   "50,II,1,3.5,1\n"
                                   f"61,III,0,2.0,{cell}\n")
        with pytest.raises(ParseError) as err:
            load_cohort(path, SCHEMA, "time", "event")
        assert str(err.value) == (f"event indicator must be a nonnegative integer, "
                                  f"got '{cell}' (row 3, column 'event')")

    def test_first_bad_cell_in_row_major_order(self, tmp_path):
        # row 3's event comes before its age, and row 3 before row 4's time
        path = write_csv(tmp_path, "age,stage,smoker,time,event\n"
                                   "50,II,1,3.5,1\n"
                                   "x,II,1,3.5,y\n"
                                   "51,II,1,z,1\n")
        with pytest.raises(ParseError, match=r"\(row 3, column 'event'\)$"):
            load_cohort(path, SCHEMA, "time", "event")


def _float_bits(values):
    return [(type(v), struct.pack("<d", v) if isinstance(v, float) else v)
            for v in values]


def _read(load, path, schema, time_column, event_column):
    """The table ``load`` returns, or the exception it raises."""
    try:
        return load(path, schema, time_column, event_column)
    except Exception as exc:        # whatever it is, both readers must raise it alike
        return exc


def assert_same_outcome(got, want):
    """Identical RawTables (list cells and float bits included), or
    exceptions of one type with one message and location."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        assert getattr(got, "row", None) == getattr(want, "row", None)
        assert getattr(got, "column", None) == getattr(want, "column", None)
        return
    for a, b in ((got.time, want.time), (got.event, want.event)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert list(got.columns) == list(want.columns)
    for name in want.columns:
        assert _float_bits(got.columns[name]) == _float_bits(want.columns[name]), name


def numbers(floats):
    """Number cells: the repr of ``floats``, small integers and spellings
    that Python's float() reads."""
    return st.one_of(
        floats.map(repr),
        st.integers(0, 3).map(str),
        st.sampled_from([" 1.5 ", "1_000", "4.9e-324", "-0.0", "1e308", "\uff11\uff12", "2.0"]))


NUMBERS = numbers(st.floats(allow_nan=False, allow_infinity=False))
TIMES = numbers(st.floats(min_value=0.0, allow_infinity=False))   # ODD_CELLS holds bad times
EVENTS = st.sampled_from(["0", "1", "2", " 1 ", "2.0", "-0.0", "1e0"])
ODD_CELLS = st.one_of(
    st.sampled_from(["", "NA", " NA ", "nan", "inf", "-inf", "Infinity", "1e400", "1e19",
                     "-1", "1.5", "0x10", "abc", " y ", "a,b", '"', "\n"]),
    st.text(alphabet='01.-eE NA,"\n', max_size=5))
KINDS = st.sampled_from(["continuous", "categorical", "binary"])


@st.composite
def csv_files(draw):
    """(text, schema, time column, event column): a header that
    holds the needed columns (one may be missing, others repeat) and rows
    written by csv.writer: in some files short, long or blank rows, and
    missing or bad cells, and raw text after the header."""
    schema = draw(st.dictionaries(st.sampled_from(["a", "b", " a", "c,d", 'q"']), KINDS,
                                  max_size=3))
    time_column = draw(st.sampled_from(["time", "a"]))
    event_column = draw(st.sampled_from(["event", "event", "time"]))
    header = draw(st.permutations(list(schema) + [time_column, event_column] + draw(
        st.lists(st.sampled_from(["a", "b", "time", "event", "x"]), max_size=3))))
    if draw(st.integers(0, 9)) == 0:
        header = header[1:]
    out = io.StringIO()
    writer = csv.writer(out, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
                        lineterminator=draw(st.sampled_from(["\r\n", "\n"])))
    writer.writerow(header)
    if draw(st.integers(0, 4)) == 0:
        out.write(draw(st.text(alphabet='ab01.,"\r\n NA', max_size=40)))
    odd = draw(st.sampled_from([0, 0, 0.02, 0.2]))     # share of odd cells
    ragged = draw(st.sampled_from([[0], [0, 0, 0, -1, 1, -len(header)]]))
    for _ in range(draw(st.integers(0, 12))):
        width = len(header) + draw(st.sampled_from(ragged))
        writer.writerow([draw(ODD_CELLS if draw(st.floats(0, 1)) < odd else
                              EVENTS if name == event_column else
                              TIMES if name == time_column else NUMBERS)
                         for name in (header + ["x"])[:max(width, 0)]])
    return out.getvalue(), schema, time_column, event_column


class _Rows(NamedTuple):
    """A cohort without Cohort's finiteness checks."""

    features: np.ndarray
    time: np.ndarray
    event: np.ndarray

    @property
    def n(self):
        return self.time.size

    @property
    def p(self):
        return self.features.shape[1]


FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, np.nan, np.inf, -np.inf]))


@st.composite
def cohorts(draw):
    n, p = draw(st.integers(1, 12)), draw(st.integers(0, 4))
    return (_Rows(draw(arrays(np.float64, (n, p), elements=FLOATS)),
                  draw(arrays(np.float64, n, elements=FLOATS)),
                  draw(arrays(np.int64, n, elements=st.integers(-3, 2 ** 62)))),
            draw(st.sampled_from([1, 2, 5, 256])))


class TestWholeArrayIO:
    """The row reader and the block writer against the per-cell oracles."""

    @settings(max_examples=200)
    @given(case=csv_files())
    def test_reader_matches_per_cell_reader(self, tmp_path_factory, case):
        text, schema, time_column, event_column = case
        path = tmp_path_factory.getbasetemp() / "random.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        got = _read(load_cohort, path, schema, time_column, event_column)
        want = _read(oracle.load_cohort, path, schema, time_column, event_column)
        assert_same_outcome(got, want)

    @settings(max_examples=100)
    @given(case=cohorts())
    def test_writer_matches_per_row_writer(self, tmp_path_factory, case):
        cohort, block = case
        base = tmp_path_factory.getbasetemp()
        with mock.patch.object(dataio, "IO_BLOCK_ROWS", block):
            write_cohort_csv(cohort, base / "got.csv")
        oracle.write_cohort_csv(cohort, base / "want.csv")
        assert (base / "got.csv").read_bytes() == (base / "want.csv").read_bytes()

    @pytest.mark.parametrize("bad_cell", ["x", "1.0"])
    @pytest.mark.parametrize("tail", [
        b"1.0,1\n" * 2000 + b"\xff,1\n",           # undecodable, past the first read
        b'"' + b"1" * 140000 + b'",1\n',             # over csv's field size limit
    ], ids=["undecodable", "field_limit"])
    def test_read_error_after_a_bad_cell(self, tmp_path, bad_cell, tail):
        # the bad cell is reported first, as row-by-row reading does
        path = tmp_path / "broken.csv"
        path.write_bytes(b"time,event\n1.0,1\n" + bad_cell.encode() + b",1\n" + tail)
        want = _read(oracle.load_cohort, path, {}, "time", "event")
        assert isinstance(want, ParseError) == (bad_cell == "x")
        assert_same_outcome(_read(load_cohort, path, {}, "time", "event"), want)

    def test_memory(self, tmp_path):
        # the writer holds one block of rows, never the file's text; the
        # reader holds one row beside the table it returns
        cohort = generate_synthetic(SynthConfig(n=20000, p=8, w1=(0.5,) * 8,
                                                w2=(0.2,) * 8, seed=3))
        path = tmp_path / "cohort.csv"
        _, write_peak = traced_peak(lambda: write_cohort_csv(cohort, path))
        assert write_peak < path.stat().st_size / 2
        schema = {f"x{j + 1}": "continuous" for j in range(8)}
        table, peak = traced_peak(lambda: load_cohort(path, schema, "time", "event"))
        want, oracle_peak = traced_peak(
            lambda: oracle.load_cohort(path, schema, "time", "event"))
        assert_same_outcome(table, want)
        assert peak <= 1.1 * oracle_peak


@st.composite
def tables(draw):
    """(header, columns, newline, block size) for :func:`dataio.write_csv`: a
    1-D column first, then 1-D float, int or str columns and 2-D float
    blocks (some of them transposed views), under header names that may
    need quoting. Str cells hold no comma, quote or line break, because the
    body is written unquoted."""
    n = draw(st.integers(0, 12))
    ints = arrays(np.int64, n, elements=st.integers(-2 ** 63, 2 ** 63 - 1))
    strs = st.lists(st.text(alphabet="ab 1.-=\u00e9", max_size=4), min_size=n,
                    max_size=n).map(lambda cells: np.array(cells, dtype=str))
    one_d = st.one_of(arrays(np.float64, n, elements=FLOATS), ints, strs)
    block = st.integers(0, 3).flatmap(lambda k: st.one_of(
        arrays(np.float64, (n, k), elements=FLOATS),
        arrays(np.float64, (k, n), elements=FLOATS).map(np.transpose)))
    columns = [draw(one_d)] + draw(st.lists(st.one_of(one_d, block), max_size=3))
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    header = draw(st.lists(st.text(alphabet='x1 ,"\n=', max_size=3),
                           min_size=width, max_size=width))
    return header, columns, draw(st.sampled_from(["\n", "\r\n"])), draw(
        st.sampled_from([1, 2, 256]))


class TestWriteCsv:
    @settings(max_examples=200)
    @given(case=tables())
    def test_matches_per_cell_writer(self, tmp_path_factory, case):
        header, columns, newline, block = case
        base = tmp_path_factory.getbasetemp()
        with mock.patch.object(dataio, "IO_BLOCK_ROWS", block):
            dataio.write_csv(base / "got.csv", header, columns, newline)
        oracle.write_csv(base / "want.csv", header, columns, newline)
        assert (base / "got.csv").read_bytes() == (base / "want.csv").read_bytes()


class TestPreprocessor:
    def make_table(self, ages, stages, smokers, times, events):
        return RawTable({"age": ages, "stage": stages, "smoker": smokers},
                        np.asarray(times, float), np.asarray(events))

    def test_standardization_population_convention(self):
        train = self.make_table([1.0, 2.0, 3.0], ["a", "a", "b"], ["0", "1", "1"],
                                [1, 2, 3], [1, 0, 2])
        cohort, schema = fit_apply_preprocessor(train, schema_spec=SCHEMA)
        age = cohort.features[:, 0]
        assert age.mean() == pytest.approx(0.0, abs=1e-12)
        assert age.std() == pytest.approx(1.0, abs=1e-12)

    def test_missing_categorical_imputed_to_mode(self):
        train = self.make_table([1.0, 2.0, 3.0], ["a", "a", None],
                                ["1", "1", "0"], [1, 2, 3], [1, 0, 2])
        cohort, schema = fit_apply_preprocessor(train, schema_spec=SCHEMA)
        onehot = cohort.features[2, 1:1 + len(schema.stats["stage"]["categories"])]
        assert onehot.sum() == 1.0       # imputed to mode "a", not all-zero

    def test_unseen_category_maps_to_zeros(self):
        train = self.make_table([1.0, 2.0, 3.0], ["a", "b", "a"],
                                ["1", "0", "1"], [1, 2, 3], [1, 0, 2])
        test = self.make_table([2.0], ["zzz"], ["1"], [4], [1])
        _, test_cohort, schema = fit_apply_preprocessor(train, test,
                                                        schema_spec=SCHEMA)
        cats = len(schema.stats["stage"]["categories"])
        assert_allclose(test_cohort.features[0, 1:1 + cats], 0.0)

    def test_held_out_uses_training_statistics(self):
        train = self.make_table([0.0, 10.0], ["a", "a"], ["0", "1"],
                                [1, 2], [1, 1])
        test = self.make_table([20.0, None], ["a", "a"], ["1", "0"],
                               [3, 4], [0, 1])
        train_c, test_c, schema = fit_apply_preprocessor(train, test,
                                                         schema_spec=SCHEMA)
        # standardized with train mean 5, std 5
        assert test_c.features[0, 0] == pytest.approx(3.0)
        # missing continuous imputed to the training mean -> standardized 0
        assert test_c.features[1, 0] == pytest.approx(0.0)

    def test_zero_variance_column_warns_and_keeps_std_one(self):
        train = self.make_table([7.0, 7.0], ["a", "a"], ["0", "1"],
                                [1, 2], [1, 1])
        cohort, schema = fit_apply_preprocessor(train, schema_spec=SCHEMA)
        assert any("zero variance" in w for w in schema.warnings)
        assert_allclose(cohort.features[:, 0], 0.0)

    @pytest.mark.parametrize("cell", ["7", "2", "0.5", "-1", "nan", "1e0", "yes"])
    def test_binary_cell_other_than_0_or_1_rejected(self, cell):
        # fit rejects it in the training rows, transform in held-out rows
        train = self.make_table([1.0, 2.0], ["a", "a"], ["1", cell], [1, 2], [1, 1])
        message = f"binary column 'smoker' must hold 0 or 1, got '{cell}'"
        with pytest.raises(ValueError, match=message):
            FeatureSchema(SCHEMA).fit(train)
        schema = FeatureSchema(SCHEMA).fit(
            self.make_table([1.0, 2.0], ["a", "a"], ["1", "0"], [1, 2], [1, 1]))
        with pytest.raises(ValueError, match=message):
            schema.transform(train)

    def test_binary_cells_read_as_numbers(self):
        # the missing cell takes the mode of the values 1, 0, 1
        train = self.make_table([1.0, 2.0, 3.0, 4.0], ["a"] * 4, ["1", "0.0", "1.", None],
                                [1, 2, 3, 4], [1, 1, 0, 2])
        cohort, schema = fit_apply_preprocessor(train, schema_spec=SCHEMA)
        assert_array_equal(cohort.features[:, -1], [1.0, 0.0, 1.0, 1.0])

    @pytest.mark.parametrize("cells, mode", [
        (["1", "1.0", "0", None], "1"),       # "1" and "1.0" are one value
        (["0", "0.0", "1", None], "0"),
        (["1", "0.", None], "0"),             # a tie gives 0
        ([None, None], "0"),
    ])
    def test_binary_mode_counts_values(self, cells, mode):
        n = len(cells)
        train = self.make_table([1.0] * n, ["a"] * n, cells, list(range(1, n + 1)), [1] * n)
        cohort, schema = fit_apply_preprocessor(train, schema_spec=SCHEMA)
        assert schema.stats["smoker"] == {"mode": mode}
        assert cohort.features[-1, -1] == float(mode)

    def test_dict_round_trip_keeps_column_order(self):
        # a model file is written with sorted keys; transform must still
        # lay the columns out in the fitted order
        train = RawTable({"smoker": ["1", "0", "1"], "stage": ["b", "a", "a"],
                          "age": [1.0, 2.0, 4.0]},
                         np.array([1.0, 2.0, 3.0]), np.array([1, 0, 2]))
        schema = FeatureSchema({"smoker": "binary", "stage": "categorical",
                                "age": "continuous"}).fit(train)
        stored = json.dumps(schema.to_dict(), sort_keys=True)
        loaded = FeatureSchema.from_dict(json.loads(stored))
        assert list(loaded.kinds) == list(schema.kinds)
        assert_array_equal(loaded.transform(train), schema.transform(train))

    @pytest.mark.parametrize("edit", [
        lambda d: d["kinds"].append(["weight", "ordinal"]),
        lambda d: d["stats"].pop("age"),
        lambda d: d["stats"]["age"].update(mean=float("nan")),
        lambda d: d["stats"]["age"].update(std=0.0),
        lambda d: d["stats"]["age"].update(std=float("inf")),
        lambda d: d["stats"]["smoker"].update(mode="yes"),
        lambda d: d["stats"]["stage"].update(mode="c"),
        lambda d: d["stats"]["stage"].update(categories=[], mode="a"),
        lambda d: d["feature_names"].pop(),
    ], ids=["unknown kind", "no stats", "mean NaN", "std 0", "std inf", "binary mode",
            "mode not a category", "no categories", "feature names"])
    def test_from_dict_rejects_stats_that_do_not_cover_the_columns(self, edit):
        train = RawTable({"smoker": ["1", "0", "1"], "stage": ["b", "a", "a"],
                          "age": [1.0, 2.0, 4.0]},
                         np.array([1.0, 2.0, 3.0]), np.array([1, 0, 2]))
        payload = FeatureSchema({"smoker": "binary", "stage": "categorical",
                                 "age": "continuous"}).fit(train).to_dict()
        FeatureSchema.from_dict(payload)
        edit(payload)
        with pytest.raises(ValueError):
            FeatureSchema.from_dict(payload)


class TestSplit:
    def make_cohort(self, n):
        rng = np.random.default_rng(0)
        return __import__("kernelaj").Cohort(
            rng.normal(size=(n, 2)), rng.uniform(1, 5, n),
            rng.integers(0, 2, n), m=1)

    def test_fraction_arithmetic(self):
        train, valid, test = split(self.make_cohort(100), seed=0)
        assert (train.n, valid.n, test.n) == (56, 14, 30)

    def test_same_seed_same_split(self):
        cohort = self.make_cohort(50)
        a = split(cohort, seed=3)
        b = split(cohort, seed=3)
        for x, y in zip(a, b):
            assert_allclose(x.time, y.time)

    def test_partition(self):
        cohort = self.make_cohort(37)
        train, valid, test = split(cohort, seed=1)
        times = np.concatenate([train.time, valid.time, test.time])
        assert train.n + valid.n + test.n == 37
        assert_allclose(np.sort(times), np.sort(cohort.time))

    def test_too_small(self):
        with pytest.raises(TooSmall):
            split(self.make_cohort(4), seed=0)


class TestSyntheticGenerator:
    def test_zero_censoring(self):
        cfg = SynthConfig(n=500, p=3, w1=(0.5, 0, 0), w2=(0, 0.5, 0),
                          censoring_rate=0.0, seed=1)
        cohort = generate_synthetic(cfg)
        assert (cohort.event != 0).all()

    def test_symmetric_weights_balance_events(self):
        cfg = SynthConfig(n=4000, p=2, w1=(0.0, 0.0), w2=(0.0, 0.0),
                          censoring_rate=0.0, seed=2)
        cohort = generate_synthetic(cfg)
        frac1 = (cohort.event == 1).mean()
        # 3 sigma binomial bound around 1/2
        assert abs(frac1 - 0.5) < 3 * np.sqrt(0.25 / 4000)

    def test_censoring_rate_targeted(self):
        cfg = SynthConfig(n=6000, p=3, w1=(0.4, 0.2, 0.0), w2=(0.0, 0.2, 0.4),
                          censoring_rate=0.5, seed=3)
        cohort = generate_synthetic(cfg)
        frac = (cohort.event == 0).mean()
        assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / 6000) + 0.01

    def test_seed_determinism(self):
        cfg = SynthConfig(n=100, p=2, w1=(0.3, 0.0), w2=(0.0, 0.3), seed=7)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert_allclose(a.time, b.time)
        assert np.array_equal(a.event, b.event)


class TestOracleCif:
    CFG = SynthConfig(n=10, p=2, w1=(0.5, -0.2), w2=(-0.1, 0.4),
                      censoring_rate=0.0, seed=0)

    def test_zero_at_time_zero(self):
        assert oracle.oracle_cif(self.CFG, np.array([0.3, -0.8]), 1, 0.0) == 0.0

    def test_symmetric_rates_split_mass(self):
        cfg = SynthConfig(n=10, p=2, w1=(0.5, 0.0), w2=(0.5, 0.0),
                          censoring_rate=0.0, seed=0)
        x = np.array([1.0, 3.0])
        assert oracle.oracle_cif(cfg, x, 1, 1e9) == pytest.approx(0.5)

    def test_monte_carlo_agreement(self):
        # empirical frequency of {event 1 by t} over 10^6 draws vs formula
        rng = np.random.default_rng(11)
        x = np.array([0.4, -0.7])
        lam1 = np.exp(x @ np.array(self.CFG.w1))
        lam2 = np.exp(x @ np.array(self.CFG.w2))
        n = 1_000_000
        t1 = rng.exponential(1 / lam1, n)
        t2 = rng.exponential(1 / lam2, n)
        t = 1.3
        emp = float(((t1 <= t2) & (t1 <= t)).mean())
        expected = oracle.oracle_cif(self.CFG, x, 1, t)
        assert abs(emp - expected) < 3 * np.sqrt(expected * (1 - expected) / n)

    def test_population_aj_converges_to_oracle_marginal(self):
        # uncensored sample: the population estimate approaches the average
        # oracle CIF in sup norm
        cfg = SynthConfig(n=50_000, p=2, w1=(0.4, 0.0), w2=(0.0, 0.4),
                          censoring_rate=0.0, seed=5)
        cohort = generate_synthetic(cfg)
        cifs = population_aalen_johansen(cohort)
        grid = np.quantile(cohort.time, np.linspace(0.05, 0.9, 20))
        Xref = np.random.default_rng(0).standard_normal((4000, 2))
        for delta in (1, 2):
            marginal = oracle.oracle_cif(cfg, Xref, delta, grid).mean(axis=0)
            estimate = cifs.cif(delta)(grid)
            assert np.abs(estimate - marginal).max() <= 0.02


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        cfg = SynthConfig(n=20, p=3, w1=(0.2, 0, 0), w2=(0, 0.2, 0), seed=4)
        cohort = generate_synthetic(cfg)
        path = tmp_path / "cohort.csv"
        write_cohort_csv(cohort, path)
        schema = {f"x{j + 1}": "continuous" for j in range(3)}
        table = load_cohort(str(path), schema, "time", "event")
        assert table.n == 20
        assert_allclose(table.time, cohort.time)
        assert np.array_equal(table.event, cohort.event)
        assert_allclose(np.array([table.columns["x1"]]).ravel(),
                        cohort.features[:, 0])
