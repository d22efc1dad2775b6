"""End-to-end command-line tests: fit/evaluate/explain/simulate, model file
round-tripping, determinism, and error reporting."""

import csv
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import clusters_from_tables, traced_peak
from kernelaj import (
    Cohort,
    EventTimeGrid,
    FeatureSchema,
    KernelAJModel,
    MlpParams,
    SynthConfig,
    explain_rows,
    explain_subject,
    fit_apply_preprocessor,
    generate_synthetic,
    load_cohort,
    load_model,
    predict_curves,
    save_model,
    write_cohort_csv,
)
from kernelaj import cli, serialize
from kernelaj import metrics as metricsmod
from kernelaj import model as model_module
from kernelaj.cli import main
from kernelaj.core import reverse_cumsum
from kernelaj.model import cluster_curves, predict_cif_grid

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(tmp_path, train_csv, **overrides):
    cfg = {
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
        "data": {
            "train": str(train_csv),
            "time_column": "time",
            "event_column": "event",
            "schema": {"x1": "continuous", "x2": "continuous", "x3": "continuous"},
            "valid_fraction": 0.25,
        },
        "embedding": {"num_layers": 1, "hidden_units": 8, "embed_dim": 2,
                      "init_seed": 0},
        "training": {"learning_rate": 0.05, "batch_size": 32, "max_epochs": 4,
                     "patience": 4, "num_time_steps": 8, "seed": 0},
        "clustering": {"epsilon": 0.5, "min_kernel_weight": 0.01},
        "sft": {"enabled": False},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path, cfg


def cohort_csv(path, n, seed, edit=None):
    """A synthetic cohort CSV; ``edit(features, time, event)``, when given,
    first changes copies of the cohort's arrays in place."""
    cohort = generate_synthetic(SynthConfig(
        n=n, p=3, w1=(0.6, 0.0, 0.0), w2=(0.0, 0.6, 0.0),
        censoring_rate=0.3, seed=seed))
    if edit is not None:
        arrays = cohort.features.copy(), cohort.time.copy(), cohort.event.copy()
        edit(*arrays)
        cohort = Cohort(*arrays, cohort.m)
    write_cohort_csv(cohort, path)
    return path


def openblas_core():
    """The CPU kernel of numpy's OpenBLAS, read through ctypes, or None
    unless numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return None
    try:
        corename = ctypes.CDLL(np._core._multiarray_umath.__file__) \
            .scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def fit_in_subprocess(config_path, **env):
    """Run ``kernelaj fit --config config_path`` in a fresh interpreter, with
    ``env`` added to the environment, and require exit 0."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from kernelaj.cli import main; "
         "sys.exit(main(sys.argv[1:]))", "fit", "--config", str(config_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def compact_records(records):
    """The bytes explain --data writes for ``records``: a JSON array with one
    compact, key-sorted record per line."""
    return "[\n" + ",\n".join(json.dumps(record, separators=(",", ":"), sort_keys=True)
                               for record in records) + "\n]\n"


@pytest.fixture
def train_csv(tmp_path):
    return cohort_csv(tmp_path / "train.csv", 120, 1)


@pytest.fixture
def test_csv(tmp_path):
    return cohort_csv(tmp_path / "test.csv", 60, 2)


class TestFit:
    def test_fit_writes_model_and_log(self, tmp_path, train_csv):
        config_path, cfg = write_config(tmp_path, train_csv)
        assert main(["fit", "--config", str(config_path)]) == 0
        out = tmp_path / "out"
        assert (out / "model.json").exists()
        log = (out / "training_log.csv").read_text().strip().splitlines()
        assert log[0] == "epoch,train_loss,valid_criterion,is_best"
        assert len(log) >= 2

    def test_model_round_trip_identical_predictions(self, tmp_path, train_csv):
        config_path, cfg = write_config(tmp_path, train_csv)
        main(["fit", "--config", str(config_path)])
        model_path = tmp_path / "out" / "model.json"
        model, schema = load_model(model_path)

        # save again; a reloaded model must predict bit-identically
        from kernelaj import save_model

        second = tmp_path / "model2.json"
        save_model(model, second, schema)
        model2, _ = load_model(second)
        probe = np.random.default_rng(0).normal(size=(20, 3))
        cif_a, surv_a, _ = predict_cif_grid(model, probe)
        cif_b, surv_b, _ = predict_cif_grid(model2, probe)
        assert np.array_equal(cif_a, cif_b)
        assert np.array_equal(surv_a, surv_b)
        assert (tmp_path / "out" / "model.json").read_bytes() == second.read_bytes()

    def test_model_bytes_do_not_depend_on_paths(self, tmp_path, train_csv, monkeypatch):
        # the same fit from two working directories, into two output
        # directories: the model file records no config and no path
        models = []
        for name in ("a", "b"):
            work = tmp_path / name
            work.mkdir()
            (work / "train.csv").write_bytes(train_csv.read_bytes())
            write_config(work, "train.csv", output_dir=f"out_{name}")
            monkeypatch.chdir(work)
            assert main(["fit", "--config", "config.json"]) == 0
            models.append((work / f"out_{name}" / "model.json").read_bytes())
        assert models[0] == models[1]

    def test_fit_deterministic_bytes(self, tmp_path, train_csv):
        # identical config + seed, run twice; first artifact copied aside
        config_path, _ = write_config(tmp_path, train_csv)
        main(["fit", "--config", str(config_path)])
        first = (tmp_path / "out" / "model.json").read_bytes()
        main(["fit", "--config", str(config_path)])
        second = (tmp_path / "out" / "model.json").read_bytes()
        assert first == second

    def test_fit_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the step, the criterion and the clusters' tables run through BLAS
        # products whose bits must not depend on how many threads share
        # them; 512-row batches put the kernel backward's GEMMs past
        # OpenBLAS's single-thread size
        config_path, _ = write_config(
            tmp_path, cohort_csv(tmp_path / "train.csv", 900, 1),
            training={"batch_size": 512, "max_epochs": 2, "patience": 2,
                      "num_time_steps": 32})
        models = []
        for threads in ("1", "2"):
            fit_in_subprocess(config_path, OPENBLAS_NUM_THREADS=threads,
                              OMP_NUM_THREADS=threads)
            models.append((tmp_path / "out" / "model.json").read_bytes())
        assert models[0] == models[1]

    def test_fit_holds_on_another_blas_kernel(self, tmp_path):
        # OpenBLAS picks its CPU kernel at run time, and kernels round
        # differently: the bytes may differ, the clusters and predictions not
        core = openblas_core()
        if core in (None, "Haswell"):
            pytest.skip(f"needs a DYNAMIC_ARCH OpenBLAS not on Haswell (core: {core})")
        config_path, _ = write_config(
            tmp_path, cohort_csv(tmp_path / "train.csv", 400, 1),
            training={"batch_size": 128, "max_epochs": 2, "patience": 2,
                      "num_time_steps": 16})
        models = []
        for name, coretype in (("default", core), ("haswell", "Haswell")):
            fit_in_subprocess(config_path, OPENBLAS_CORETYPE=coretype)
            models.append(load_model((tmp_path / "out" / "model.json").rename(
                tmp_path / f"{name}.json"))[0])
        a, b = (model.clusters for model in models)
        assert a.num_clusters == b.num_clusters
        assert np.array_equal(a.exemplar_ids, b.exemplar_ids)
        assert np.array_equal(a.assignments, b.assignments)
        probe = np.random.default_rng(0).normal(size=(200, 3))
        for got, want in zip(predict_cif_grid(models[1], probe)[:2],
                             predict_cif_grid(models[0], probe)[:2]):
            assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_missing_train_path_exit_2(self, tmp_path, train_csv, capsys):
        config_path, _ = write_config(
            tmp_path, tmp_path / "does_not_exist.csv")
        assert main(["fit", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "data.train" in err
        assert "\n" not in err.strip()

    def test_unknown_key_rejected(self, tmp_path, train_csv, capsys):
        config_path, cfg = write_config(tmp_path, train_csv)
        doc = json.loads(config_path.read_text())
        doc["training"]["warp_speed"] = True
        config_path.write_text(json.dumps(doc))
        assert main(["fit", "--config", str(config_path)]) == 2
        assert "training.warp_speed" in capsys.readouterr().err

    def test_sft_seed_rejected(self, tmp_path, train_csv, capsys):
        # full-batch fine-tuning draws no random numbers, so it takes no seed
        config_path, _ = write_config(tmp_path, train_csv,
                                      sft={"enabled": True, "seed": 3})
        assert main(["fit", "--config", str(config_path)]) == 2
        assert "unknown config key 'sft.seed'" in capsys.readouterr().err

    def test_out_of_range_training_value_exit_2(self, tmp_path, train_csv, capsys):
        config_path, _ = write_config(tmp_path, train_csv, training={"alpha": 2})
        assert main(["fit", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'training'" in err
        assert "alpha must lie in [0, 1]" in err

    def test_bad_sft_value_exit_2_before_training(self, tmp_path, train_csv, capsys,
                                                   monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train_embedding", no_training)
        config_path, _ = write_config(tmp_path, train_csv,
                                      sft={"enabled": True, "max_epochs": 0})
        assert main(["fit", "--config", str(config_path)]) == 2
        assert "'sft'" in capsys.readouterr().err

    def test_bug_inside_fit_pipeline_propagates(self, tmp_path, train_csv, monkeypatch):
        # a TypeError raised by the program, not by a config value, is a bug:
        # it must surface with its traceback instead of exiting 2
        def broken(*args, **kwargs):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli, "train_embedding", broken)
        config_path, _ = write_config(tmp_path, train_csv)
        with pytest.raises(TypeError, match="unsupported operand"):
            main(["fit", "--config", str(config_path)])

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_event_cell_exit_2(self, tmp_path, train_csv, capsys, cell):
        lines = train_csv.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + cell
        train_csv.write_text("\n".join(lines) + "\n")
        config_path, _ = write_config(tmp_path, train_csv)
        assert main(["fit", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read data file 'data.train' ({train_csv}): event indicator "
            f"must be a nonnegative integer, got '{cell}' (row 6, column 'event')\n")

    def test_sft_flag_recorded(self, tmp_path, train_csv):
        config_path, _ = write_config(
            tmp_path, train_csv,
            sft={"enabled": True, "learning_rate": 0.0, "max_epochs": 2,
                 "patience": 2})
        main(["fit", "--config", str(config_path)])
        model, _ = load_model(tmp_path / "out" / "model.json")
        # zero learning rate cannot improve validation: backtracked, so the
        # model keeps its cluster tables and the log marks no epoch best
        assert model.sft_tables is None
        with open(tmp_path / "out" / "sft_log.csv", newline="") as fh:
            assert [row["is_best"] for row in csv.DictReader(fh)] == ["0", "0"]

    @pytest.mark.parametrize("overrides", [
        {"training": {"max_epochs": 2.5}},
        {"training": {"batch_size": 256.5}},
        {"training": {"patience": True}},
        {"embedding": {"hidden_units": 8.5}},
        {"clustering": {"shuffle_seed": 0}},
        {"sft": {"enabled": "false"}},
        {"sft": {"enabled": True, "max_epochs": 2.5}},
        {"seed": 1.5},
        {"training": {"learning_rate": True}},
        {"training": {"alpha": True}},
        {"training": {"sigma": True}},
        {"training": {"learning_rate": float("nan")}},
        {"training": {"sigma": float("nan")}},
        {"clustering": {"epsilon": True}},
        {"clustering": {"epsilon": "0.3"}},
        {"clustering": {"min_kernel_weight": True}},
        {"clustering": {"min_kernel_weight": 1.0}},
        {"data": {"valid_fraction": False}},
        {"data": {"valid_fraction": "0.5"}},
        {"sft": {"enabled": True, "learning_rate": True}},
        {"training": {"learning_rate": float("inf")}},
        {"sft": {"enabled": True, "learning_rate": float("inf")}},
        {"sft": {"enabled": False, "learning_rate": True}},
        {"sft": {"max_epochs": 2.5}},
        {"embedding": {"activation": "gelu"}},
        {"training": {"early_stop_criterion": "auc"}},
        {"training": {"sigma": 0}},
    ], ids=lambda overrides: json.dumps(overrides))
    def test_integers_and_booleans_checked_before_data(self, tmp_path, train_csv,
                                                        capsys, monkeypatch, overrides):
        def no_data(*args, **kwargs):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli, "load_cohort", no_data)
        config_path, _ = write_config(tmp_path, train_csv, **overrides)
        assert main(["fit", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        (section, value), = overrides.items()
        key = section if not isinstance(value, dict) else list(value)[-1]
        assert err.startswith("error:") and err.count("\n") == 1 and key in err

    @pytest.mark.parametrize("overrides, key, kind", [
        ({"output_dir": 7}, "output_dir", "a string"),
        ({"data": {"schema": "x1"}}, "data.schema", "an object"),
        ({"data": {"schema": ["x1"]}}, "data.schema", "an object"),
        ({"data": {"train": 3}}, "data.train", "a string"),
        ({"data": {"train": 0}}, "data.train", "a string"),
        ({"data": {"valid": 3}}, "data.valid", "a string"),
        ({"data": {"time_column": 1}}, "data.time_column", "a string"),
        ({"data": {"event_column": ["event"]}}, "data.event_column", "a string"),
    ], ids=lambda value: json.dumps(value) if isinstance(value, dict) else None)
    def test_paths_columns_and_schema_of_another_type_exit_2(self, tmp_path, train_csv,
                                                             capsys, monkeypatch, overrides,
                                                             key, kind):
        def no_data(*args, **kwargs):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli, "load_cohort", no_data)
        config_path, _ = write_config(tmp_path, train_csv, **overrides)
        assert main(["fit", "--config", str(config_path)]) == 2
        (section, value), = overrides.items()
        value = value if key == section else value[key.split(".")[1]]
        assert capsys.readouterr().err == (
            f"error: invalid value in '{key}': must be {kind}, got {value!r}\n")

    def test_empty_schema_exits_2_before_reading_data(self, tmp_path, train_csv, capsys,
                                                      monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli, "load_cohort", no_data)
        config_path, _ = write_config(tmp_path, train_csv, data={"schema": {}})
        assert main(["fit", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == ("error: invalid value in 'data.schema': must "
                                           "name at least one feature column\n")

    def test_null_output_dir_and_valid_are_absent(self, tmp_path, train_csv, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config_path, _ = write_config(tmp_path, train_csv, output_dir=None,
                                      data={"valid": None})
        assert main(["fit", "--config", str(config_path)]) == 0
        assert (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("section, rate", [
        ("training", 1e308), ("sft", 1e308), ("training", 1e6),
    ], ids=["training", "sft", "collapsed-kernel"])
    def test_diverging_step_exits_2_naming_the_epoch(self, tmp_path, train_csv, capsys,
                                                     section, rate):
        # a finite learning rate whose first step overflows the parameters
        # (1e308), or whose steps stay finite but spread the embeddings until
        # every validation kernel weight underflows to 0 (1e6)
        overrides = {"training": {"learning_rate": rate}} if section == "training" \
            else {"sft": {"enabled": True, "learning_rate": rate}}
        config_path, _ = write_config(tmp_path, train_csv, **overrides)
        assert main(["fit", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        stage = "training" if section == "training" else "fine-tuning"
        assert err.startswith(f"error: {stage} epoch 1: ") and err.count("\n") == 1
        assert f"(learning_rate {rate})" in err

    def test_event_at_time_zero_joins_the_first_bin(self, tmp_path, test_csv):
        # the grid is built from the positive event times, so a training row
        # with an event at time 0 trains and is counted in bin 1
        def at_time_zero(features, time, event):
            time[0], event[0] = 0.0, 1
        train = cohort_csv(tmp_path / "train.csv", 120, 1, at_time_zero)
        config_path, _ = write_config(tmp_path, train, data={"valid": str(test_csv)})
        assert main(["fit", "--config", str(config_path)]) == 0
        model, _ = load_model(tmp_path / "out" / "model.json")
        assert model.clusters.codes[0] == 1 * (model.m + 1) + 1     # bin 1, event 1

    def test_zero_variance_column_warns(self, tmp_path, capsys):
        def constant_x3(features, time, event):
            features[:, 2] = 1.5
        train = cohort_csv(tmp_path / "train.csv", 120, 1, constant_x3)
        assert main(["fit", "--config", str(write_config(tmp_path, train)[0])]) == 0
        assert capsys.readouterr().err == "warning: column 'x3' has zero variance\n"

    def test_valid_file_fixes_the_split(self, tmp_path, train_csv, test_csv):
        # with data.valid the validation cohort is that file, whatever
        # valid_fraction says, and the schema is fitted on the train file
        logs = []
        for frac in (0.1, 0.5):
            config_path, cfg = write_config(tmp_path, train_csv, data={
                "valid": str(test_csv), "valid_fraction": frac})
            assert main(["fit", "--config", str(config_path)]) == 0
            logs.append((tmp_path / "out" / "training_log.csv").read_bytes())
        assert logs[0] == logs[1]
        schema_of = lambda path: json.loads(json.dumps(fit_apply_preprocessor(
            load_cohort(path, cfg["data"]["schema"], "time", "event"),
            schema_spec=cfg["data"]["schema"])[-1].to_dict()))
        doc = json.loads((tmp_path / "out" / "model.json").read_text())
        assert doc["schema"] == schema_of(train_csv) != schema_of(test_csv)

    def test_valid_fraction_fits_the_schema_on_the_training_rows(self, tmp_path, train_csv):
        # without data.valid the rows are split, by a permutation seeded with
        # seed, before the schema is fitted: the validation rows never reach it
        config_path, cfg = write_config(tmp_path, train_csv)
        assert main(["fit", "--config", str(config_path)]) == 0
        lines = train_csv.read_text(encoding="utf-8").splitlines(keepends=True)
        perm = np.random.default_rng(cfg["seed"]).permutation(len(lines) - 1)
        part = tmp_path / "train_part.csv"
        n_valid = int(perm.size * cfg["data"]["valid_fraction"])
        part.write_text("".join([lines[0], *(lines[1 + i] for i in perm[n_valid:])]),
                        encoding="utf-8")
        schema_of = lambda path: json.loads(json.dumps(fit_apply_preprocessor(
            load_cohort(path, cfg["data"]["schema"], "time", "event"),
            schema_spec=cfg["data"]["schema"])[-1].to_dict()))
        doc = json.loads((tmp_path / "out" / "model.json").read_text())
        assert doc["schema"] == schema_of(part) != schema_of(train_csv)


def _events_beyond_m(tmp_path):
    cohort = generate_synthetic(SynthConfig(n=30, p=3, w1=(0.6, 0.0, 0.0),
                                            w2=(0.0, 0.6, 0.0), seed=4))
    event = cohort.event.copy()
    event[0] = 3
    path = tmp_path / "three_events.csv"
    write_cohort_csv(Cohort(cohort.features, cohort.time, event, 3), path)
    return path


def _events_at_time_zero(features, time, event):
    time[event != 0] = 0.0


def _no_event_two(features, time, event):
    event[event == 2] = 0


def _fit_argv(**overrides):
    def argv(tmp_path, train_csv, model_path):
        return ["fit", "--config", str(write_config(tmp_path, train_csv, **overrides)[0])]
    return argv


def _config_file(command, text, out="s.csv"):
    def argv(tmp_path, train_csv, model_path):
        (tmp_path / "config.json").write_bytes(text.encode() if isinstance(text, str) else text)
        out_args = ["--out", str(tmp_path / out)] if command == "simulate" else []
        return [command, "--config", str(tmp_path / "config.json"), *out_args]
    return argv


def _csv_with_cell(cell: bytes):
    """A copy of the train CSV whose first data cell is ``cell``."""
    def path(tmp_path, train_csv):
        lines = train_csv.read_bytes().split(b"\n")
        lines[1] = cell + lines[1][lines[1].index(b","):]
        (tmp_path / "cell.csv").write_bytes(b"\n".join(lines))
        return tmp_path / "cell.csv"
    return path


def _data_argv(command, data):
    """``command`` (evaluate or explain) of the fitted model on the CSV that
    ``data(tmp_path, train_csv)`` names."""
    def argv(tmp_path, train_csv, model_path):
        return [command, "--model", str(model_path), "--data",
                str(data(tmp_path, train_csv)), "--out", str(tmp_path / "o")]
    return argv


_ERROR_PATHS = {
    "explain without --data or --clusters": lambda tmp_path, train_csv, model_path: [
        "explain", "--model", str(model_path), "--out", str(tmp_path / "o")],
    "explain with both --data and --clusters": lambda tmp_path, train_csv, model_path: [
        "explain", "--model", str(model_path), "--clusters", "--data", str(train_csv),
        "--out", str(tmp_path / "o")],
    "every event at time 0": lambda tmp_path, train_csv, model_path: _fit_argv()(
        tmp_path, cohort_csv(tmp_path / "zero.csv", 120, 1, _events_at_time_zero),
        model_path),
    "evaluate events beyond m": lambda tmp_path, train_csv, model_path: [
        "evaluate", "--model", str(model_path), "--data",
        str(_events_beyond_m(tmp_path)), "--out", str(tmp_path / "o")],
    "missing config file": lambda tmp_path, train_csv, model_path: [
        "fit", "--config", str(tmp_path / "nope.json")],
    "config not JSON": _config_file("fit", "{not json"),
    "training a list": _fit_argv(training=[]),
    "no data.train": _fit_argv(data={"train": None}),
    "negative epsilon": _fit_argv(clustering={"epsilon": -0.1}),
    "valid_fraction 1": _fit_argv(data={"valid_fraction": 1.0}),
    "censoring_rate false": _config_file("simulate", json.dumps(
        {"n": 10, "p": 1, "w1": [0.1], "w2": [0.1], "censoring_rate": False})),
    "fit a missing data file": lambda tmp_path, train_csv, model_path: _fit_argv()(
        tmp_path, tmp_path / "missing.csv", model_path),
    "evaluate a missing data file": _data_argv(
        "evaluate", lambda tmp_path, train_csv: tmp_path / "missing.csv"),
    "explain a missing data file": _data_argv(
        "explain", lambda tmp_path, train_csv: tmp_path / "missing.csv"),
    "fit a non-UTF-8 cell": lambda tmp_path, train_csv, model_path: _fit_argv()(
        tmp_path, _csv_with_cell(b"\xff")(tmp_path, train_csv), model_path),
    "evaluate a non-UTF-8 cell": _data_argv("evaluate", _csv_with_cell(b"\xff")),
    "explain a non-UTF-8 cell": _data_argv("explain", _csv_with_cell(b"\xff")),
    "evaluate a cell over the csv field limit": _data_argv(
        "evaluate", _csv_with_cell(b"1" * 131_073)),
    "evaluate no event-2 rows": _data_argv("evaluate", lambda tmp_path, train_csv: cohort_csv(
        tmp_path / "no_event_two.csv", 60, 2, _no_event_two)),
    "a directory as fit config": lambda tmp_path, train_csv, model_path: [
        "fit", "--config", str(tmp_path)],
    "config not UTF-8": _config_file("fit", b'{"seed": "\xff"}'),
    "simulate into a missing directory": _config_file("simulate", json.dumps(
        {"n": 10, "p": 1, "w1": [0.1], "w2": [0.1]}), "nodir/c.csv"),
}


def _csv_with(column, cell):
    """A copy of the train CSV whose row 3 (the second data row) holds
    ``cell`` in ``column``."""
    def path(tmp_path, train_csv):
        header, *lines = train_csv.read_text().splitlines()
        cells = lines[1].split(",")
        cells[header.split(",").index(column)] = cell
        lines[1] = ",".join(cells)
        (tmp_path / "cell.csv").write_text("\n".join([header, *lines]) + "\n")
        return tmp_path / "cell.csv"
    return path


def _model_text(text):
    """``evaluate`` of a model file at tmp_path/edited.json holding
    ``text(model_path)``."""
    def argv(tmp_path, train_csv, model_path):
        (tmp_path / "edited.json").write_text(text(model_path))
        return ["evaluate", "--model", str(tmp_path / "edited.json"), "--data",
                str(train_csv), "--out", str(tmp_path / "o")]
    return argv


# case -> (argv, the error line, with {tmp} for tmp_path)
_ERROR_LINES = {
    "a model file holding a JSON array": (
        _model_text(lambda model_path: "[1, 2]"),
        "model file is not valid: {tmp}/edited.json: model file must hold a JSON object"),
    "evaluate a model whose schema is null": (
        _model_text(lambda model_path: json.dumps(
            dict(json.loads(model_path.read_text()), schema=None))),
        "model file carries no feature schema"),
    "a schema kind ordinal": (
        _fit_argv(data={"schema": {"x1": "ordinal"}}), "unknown column kind 'ordinal'"),
    "simulate censoring_rate 1.5": (
        _config_file("simulate", json.dumps(
            {"n": 10, "p": 1, "w1": [0.1], "w2": [0.1], "censoring_rate": 1.5})),
        "invalid value in '{tmp}/config.json': censoring rate must lie in [0, 1)"),
    "simulate a w1 of the wrong length": (
        _config_file("simulate", json.dumps({"n": 10, "p": 2, "w1": [0.1], "w2": [0.1, 0.2]})),
        "invalid value in '{tmp}/config.json': weight vectors must have length p"),
}


class TestErrorPaths:
    @pytest.fixture(scope="class")
    def model_path(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fitted")
        config_path, _ = write_config(root, cohort_csv(root / "train.csv", 120, 1))
        assert main(["fit", "--config", str(config_path)]) == 0
        return root / "out" / "model.json"

    @pytest.mark.parametrize("case", list(_ERROR_PATHS))
    def test_exit_2_with_one_error_line(self, tmp_path, train_csv, model_path, capsys,
                                        case):
        assert main(_ERROR_PATHS[case](tmp_path, train_csv, model_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("case", list(_ERROR_LINES))
    def test_the_error_line(self, tmp_path, train_csv, model_path, capsys, case):
        argv, line = _ERROR_LINES[case]
        assert main(argv(tmp_path, train_csv, model_path)) == 2
        assert capsys.readouterr().err == f"error: {line.format(tmp=tmp_path)}\n"

    @pytest.mark.parametrize("column, cell", [("x2", "inf"), ("x2", "nan"), ("time", "-1")])
    @pytest.mark.parametrize("command", ["fit", "evaluate", "explain"])
    def test_non_finite_or_negative_number_names_row_and_column(
            self, tmp_path, train_csv, model_path, capsys, command, column, cell):
        rule = ("time must be a finite nonnegative number" if column == "time"
                else "feature must be a finite number")
        data = _csv_with(column, cell)(tmp_path, train_csv)
        if command == "fit":
            argv, where = _fit_argv()(tmp_path, data, model_path), f"'data.train' ({data})"
        else:
            argv = _data_argv(command, lambda *_: data)(tmp_path, train_csv, model_path)
            where = str(data)
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: cannot read data file {where}: {rule}, "
                                           f"got '{cell}' (row 3, column '{column}')\n")

    @pytest.mark.parametrize("case, out", [
        ("fit a missing data file", "out"), ("explain a missing data file", "o"),
        ("explain with both --data and --clusters", "o"), ("every event at time 0", "out"),
        ("evaluate no event-2 rows", "o"),
    ])
    def test_a_failed_command_makes_no_output_directory(self, tmp_path, train_csv,
                                                         model_path, case, out):
        # the output directory is made only once every input is read, and a
        # command that fails removes the empty directory it made
        assert main(_ERROR_PATHS[case](tmp_path, train_csv, model_path)) == 2
        assert not (tmp_path / out).exists()

    def test_explain_mode_checked_before_the_model_is_read(self, tmp_path, capsys):
        assert main(["explain", "--model", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: explain takes exactly one of --data <csv> or --clusters\n")

    @pytest.mark.parametrize("key", ["train", "valid"])
    def test_bad_cell_names_the_data_key(self, tmp_path, train_csv, capsys, key):
        bad = _csv_with_cell(b"abc")(tmp_path, train_csv)
        data = {"valid": str(bad if key == "valid" else train_csv), key: str(bad)}
        assert main(["fit", "--config", str(write_config(tmp_path, train_csv,
                                                         data=data)[0])]) == 2
        err = capsys.readouterr().err
        assert f"'data.{key}' ({bad}): cannot parse 'abc' as a number (row 2" in err

    def test_a_write_error_leaves_no_explanations(self, tmp_path, train_csv, model_path,
                                                  monkeypatch, capsys):
        def full_disk(model, X):
            raise OSError(28, "No space left on device")
            yield
        monkeypatch.setattr(cli, "explain_rows", full_disk)
        assert main(["explain", "--model", str(model_path), "--data", str(train_csv),
                     "--out", str(tmp_path / "rep")]) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert not (tmp_path / "rep" / "explanations.json").exists()


class TestEvaluate:
    def test_metrics_csv(self, tmp_path, train_csv, test_csv):
        config_path, _ = write_config(tmp_path, train_csv)
        main(["fit", "--config", str(config_path)])
        model_path = str(tmp_path / "out" / "model.json")
        rc = main(["evaluate", "--model", model_path, "--data", str(test_csv),
                   "--out", str(tmp_path / "eval")])
        assert rc == 0
        lines = (tmp_path / "eval" / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "event,metric,value"
        metrics = {(r.split(",")[0], r.split(",")[1]): float(r.split(",")[2])
                   for r in lines[1:]}
        assert ("1", "ctd") in metrics and ("2", "ibs_population") in metrics
        for (event, name), value in metrics.items():
            if name.startswith("ctd"):
                assert 0.0 <= value <= 1.0
        # a constant-risk predictor ties every comparable pair
        assert metrics[("1", "ctd_population")] == 0.5
        assert metrics[("2", "ctd_population")] == 0.5

    def test_population_pairs_are_not_counted(self, tmp_path, train_csv, test_csv,
                                              monkeypatch):
        # every pair of population curves ties, so their concordance is
        # written as 0.5 and pairs are counted for the model's curves only
        config_path, _ = write_config(tmp_path, train_csv)
        main(["fit", "--config", str(config_path)])
        calls, count = [], metricsmod.concordance_td_from_curves
        monkeypatch.setattr(metricsmod, "concordance_td_from_curves",
                            lambda *args: calls.append(args) or count(*args))
        assert main(["evaluate", "--model", str(tmp_path / "out" / "model.json"), "--data",
                     str(test_csv), "--out", str(tmp_path / "eval")]) == 0
        m = load_model(tmp_path / "out" / "model.json")[0].m
        assert len(calls) == m

    def test_evaluate_deterministic(self, tmp_path, train_csv, test_csv):
        config_path, _ = write_config(tmp_path, train_csv)
        main(["fit", "--config", str(config_path)])
        model_path = str(tmp_path / "out" / "model.json")
        main(["evaluate", "--model", model_path, "--data", str(test_csv),
              "--out", str(tmp_path / "e1")])
        main(["evaluate", "--model", model_path, "--data", str(test_csv),
              "--out", str(tmp_path / "e2")])
        assert (tmp_path / "e1" / "metrics.csv").read_bytes() == \
            (tmp_path / "e2" / "metrics.csv").read_bytes()

    def test_features_too_large_to_embed_exit_2(self, tmp_path, train_csv, test_csv,
                                                capsys):
        config_path, _ = write_config(tmp_path, train_csv)
        main(["fit", "--config", str(config_path)])
        lines = test_csv.read_text().splitlines()
        cells = lines[3].split(",")
        cells[0] = "1e300"
        lines[3] = ",".join(cells)
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--model", str(tmp_path / "out" / "model.json"),
                   "--data", str(bad_csv), "--out", str(tmp_path / "e")])
        assert rc == 2
        assert "row 2" in capsys.readouterr().err

    def test_missing_model_exit_2(self, tmp_path, test_csv, capsys):
        rc = main(["evaluate", "--model", str(tmp_path / "nope.json"),
                   "--data", str(test_csv), "--out", str(tmp_path / "x")])
        assert rc == 2


def _edit_array(*path, value=None, narrow=False):
    """An edit of the packed array at ``path`` in a model document: its
    first cell set to ``value``, or its last column dropped (``narrow``)."""
    def edit(doc):
        *parents, key = path
        for k in parents:
            doc = doc[k]
        a = serialize._unpack(doc[key])
        if narrow:
            a = a[:, :-1]
        else:
            a.flat[0] = value
        doc[key] = serialize._pack(a)
    return edit


def _with_sft_tables(change):
    """An edit that stores fine-tuned tables of the model's shape, d 0 and
    n 1 in every cell, after ``change`` has edited the dict {"d": d, "n": n}."""
    def edit(doc):
        Q, L = doc["clusters"]["exemplar_ids"]["shape"][0], doc["grid"]["shape"][0]
        tables = {"d": np.zeros((Q, L, doc["clusters"]["m"])), "n": np.ones((Q, L))}
        change(tables)
        doc["sft_tables"] = {key: serialize._pack(a) for key, a in tables.items()}
    return edit


def _schema_one_column_short(doc):
    """An edit that drops the last input column from the schema, its kind,
    stats and feature names together, so the schema alone still loads."""
    schema = doc["schema"]
    name, _ = schema["kinds"].pop()
    del schema["stats"][name]
    schema["feature_names"] = [f for f in schema["feature_names"]
                               if f != name and not f.startswith(f"{name}=")]


def _duplicate_exemplar_id(doc):
    """An edit that gives the second exemplar, and the points assigned to
    it, the first exemplar's id: every assignment still names an exemplar."""
    clusters = doc["clusters"]
    ids, assignments = (serialize._unpack(clusters[key])
                        for key in ("exemplar_ids", "assignments"))
    assignments[assignments == ids[1]] = ids[0]
    ids[1] = ids[0]
    clusters["exemplar_ids"] = serialize._pack(ids)
    clusters["assignments"] = serialize._pack(assignments)


def save_identity_model(path, centers, d, n, tau):
    """Save a hand-built model whose network and feature schema are the
    identity, so a query row's embedding is its own features x1..xp."""
    (Q, p), L = centers.shape, n.shape[1]
    names = [f"x{j + 1}" for j in range(p)]
    save_model(KernelAJModel(
        params=MlpParams((p, p), (np.eye(p),), (np.zeros(p),)),
        clusters=clusters_from_tables(d, n, centers, tau=tau),
        grid=EventTimeGrid(np.arange(1.0, L + 1.0)),
        cluster_feature_means=np.zeros((Q, p))), path, FeatureSchema(
            kinds=dict.fromkeys(names, "continuous"), feature_names=names,
            stats={name: {"mean": 0.0, "std": 1.0} for name in names}))


_MODEL_EDITS = {
    "version 1": lambda doc: doc.update(format_version=1),
    "version 2": lambda doc: doc.update(format_version=2),
    "version 3": lambda doc: doc.update(format_version=3),
    "version 4": lambda doc: doc.update(format_version=4),
    "no clusters": lambda doc: doc.pop("clusters"),
    "no grid": lambda doc: doc.pop("grid"),
    "no sft_tables": lambda doc: doc.pop("sft_tables"),
    "no cluster table": _with_sft_tables(lambda tables: tables.pop("n")),
    "no m": lambda doc: doc["clusters"].pop("m"),
    "clusters not an object": lambda doc: doc.update(clusters=[1, 2]),
    "embedding a string": lambda doc: doc.update(embedding="weights"),
    "object array": lambda doc: doc["grid"].update(dtype="|O"),
    "sft tables of another shape": _with_sft_tables(
        lambda tables: tables.update(n=tables["d"])),
    "tau NaN": lambda doc: doc["clusters"].update(tau=float("nan")),
    "tau -1": lambda doc: doc["clusters"].update(tau=-1.0),
    "feature means too narrow": _edit_array("cluster_feature_means", narrow=True),
    "exemplar embedding NaN": _edit_array("clusters", "exemplar_embeddings", value=np.nan),
    "negative sft_tables cell": _with_sft_tables(
        lambda tables: tables.update(d=tables["d"] - 1.0)),
    "fewer at risk than events": _with_sft_tables(
        lambda tables: tables.update(d=tables["d"] + 1.0)),
    "code out of range": _edit_array("clusters", "codes", value=1 << 40),
    "codes not as long as assignments": lambda doc: doc["clusters"].update(
        codes=serialize._pack(serialize._unpack(doc["clusters"]["codes"])[:-1])),
    "unknown activation": lambda doc: doc["embedding"].update(activation="gelu"),
    "duplicate exemplar id": _duplicate_exemplar_id,
    "exemplar embeddings too narrow": _edit_array("clusters", "exemplar_embeddings",
                                                  narrow=True),
    "grid time NaN": _edit_array("grid", value=np.nan),
    "feature mean NaN": _edit_array("cluster_feature_means", value=np.nan),
    "no stats for a column": lambda doc: doc["schema"]["stats"].popitem(),
    "std 0": lambda doc: next(iter(doc["schema"]["stats"].values())).update(std=0.0),
    "schema one column short": _schema_one_column_short,
}


_BINARY_SCHEMA = {"x1": "continuous", "x2": "continuous", "b": "binary"}


def _with_cell_in_row_3(source, path, cell, rows=None):
    """The first ``rows`` data rows of CSV ``source``, written to ``path``
    with the last cell of row 3 (the second data row) replaced by ``cell``."""
    header, *lines = source.read_text().splitlines()
    lines = lines[:rows]
    lines[1] = f"{lines[1].rsplit(',', 1)[0]},{cell}"
    path.write_text("\n".join([header, *lines]) + "\n")
    return path


@pytest.fixture(scope="module")
def binary_fit(tmp_path_factory):
    """A model fitted with a binary column b, and its 300-row training CSV."""
    root = tmp_path_factory.mktemp("binary")
    header, *rows = cohort_csv(root / "base.csv", 300, 1).read_text().splitlines()
    (root / "train.csv").write_text("\n".join(
        [header + ",b"] + [f"{row},{i % 2}" for i, row in enumerate(rows)]) + "\n")
    config_path, _ = write_config(root, root / "train.csv", data={"schema": _BINARY_SCHEMA})
    assert main(["fit", "--config", str(config_path)]) == 0
    return root / "out" / "model.json", root / "train.csv"


class TestNonNumericBinaryCell:
    @pytest.fixture(scope="class")
    def fitted(self, binary_fit):
        """The fitted model, and a CSV whose b cell in row 3 reads "yes"."""
        model_path, train = binary_fit
        return model_path, _with_cell_in_row_3(train, train.with_name("test.csv"), "yes", 60)

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    def test_exit_2_with_one_error_line(self, fitted, tmp_path, capsys, command):
        model_path, data = fitted
        assert main([command, "--model", str(model_path), "--data", str(data),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid value in '{data}': ")
        assert err.count("\n") == 1


class TestBinaryCellOtherThan0Or1:
    @pytest.mark.parametrize("command, cell", [("fit", "7"), ("evaluate", "2"),
                                               ("explain", "0.5")])
    def test_exit_2_naming_file_column_and_cell(self, binary_fit, tmp_path, capsys,
                                                command, cell):
        # a number in a binary column was read as that number; the training
        # file (fit) or the scored file (evaluate, explain) is now rejected
        model_path, train = binary_fit
        data = _with_cell_in_row_3(train, tmp_path / "data.csv", cell)
        if command == "fit":
            argv = ["fit", "--config", str(write_config(
                tmp_path, data, data={"schema": _BINARY_SCHEMA})[0])]
        else:
            argv = [command, "--model", str(model_path), "--data", str(data),
                    "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err == (f"error: invalid value in '{data}': binary "
                                           f"column 'b' must hold 0 or 1, got '{cell}'\n")


class TestModelFile:
    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        """A fitted model document and a CSV to evaluate it on."""
        root = tmp_path_factory.mktemp("fitted")
        config_path, _ = write_config(root, cohort_csv(root / "train.csv", 120, 1))
        assert main(["fit", "--config", str(config_path)]) == 0
        doc = json.loads((root / "out" / "model.json").read_text())
        return doc, cohort_csv(root / "test.csv", 60, 2)

    def test_model_file_stores_each_array_once(self, fitted):
        doc, _ = fitted
        assert doc["format_version"] == 5
        assert set(doc) == {"format_version", "schema", "embedding", "grid", "clusters",
                            "cluster_feature_means", "sft_tables"}
        assert set(doc["clusters"]) == {"exemplar_ids", "exemplar_embeddings", "assignments",
                                        "codes", "m", "tau"}
        assert doc["sft_tables"] is None

    def test_sft_tables_edit_alone_loads(self, fitted, tmp_path):
        # the sft_tables edits fail on their one change, not on the tables they start from
        doc, data = fitted
        doc = json.loads(json.dumps(doc))
        _with_sft_tables(lambda tables: None)(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["evaluate", "--data", str(data), "--model", str(path),
                     "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("edit", list(_MODEL_EDITS))
    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    def test_malformed_model_file_exit_2(self, fitted, tmp_path, capsys, command, edit):
        doc, data = fitted
        doc = json.loads(json.dumps(doc))
        _MODEL_EDITS[edit](doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        argv = {"evaluate": ["evaluate", "--data", str(data)],
                "explain": ["explain", "--clusters"]}[command]
        assert main(argv + ["--model", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        if edit.startswith("version"):
            assert err == f"error: unsupported model format version {edit[-1]}\n"
        else:
            assert err.startswith(f"error: model file is not valid: {path}: ")


class TestExplain:
    def test_cluster_reports(self, tmp_path, train_csv):
        config_path, _ = write_config(tmp_path, train_csv)
        main(["fit", "--config", str(config_path)])
        model_path = str(tmp_path / "out" / "model.json")
        rc = main(["explain", "--model", model_path, "--clusters",
                   "--out", str(tmp_path / "rep")])
        assert rc == 0
        summary = (tmp_path / "rep" / "cluster_summary.csv").read_text()
        lines = summary.strip().splitlines()
        assert lines[0].startswith("exemplar_id,size,risk_event_1")
        risks = [float(line.split(",")[2]) for line in lines[1:]]
        assert risks == sorted(risks, reverse=True)
        assert (tmp_path / "rep" / "cluster_cifs.csv").exists()
        assert (tmp_path / "rep" / "cluster_features.csv").exists()
        assert not (tmp_path / "rep" / "kernel_matrix.csv").exists()

    @pytest.fixture(scope="class")
    def feature_report(self, tmp_path_factory):
        """cluster_features.csv, read by csv.reader, of a cohort whose column
        names and category values collide with the report's own syntax."""
        base = tmp_path_factory.mktemp("features")
        rng = np.random.default_rng(5)
        n = 300
        with open(base / "train.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["exemplar_id", "dose=mg", "grp", "time", "event"])
            writer.writerows(zip(rng.normal(50, 5, n).tolist(),
                                 rng.normal(100, 10, n).tolist(),
                                 rng.choice(["a,b", 'c"d', "e"], n).tolist(),
                                 rng.exponential(1.0, n).tolist(),
                                 rng.choice([0, 1, 2], n).tolist()))
        schema = {"exemplar_id": "continuous", "dose=mg": "continuous", "grp": "categorical"}
        config_path, _ = write_config(base, base / "train.csv",
                                      data={"schema": schema}, clustering={"epsilon": 0.3})
        assert main(["fit", "--config", str(config_path)]) == 0
        assert main(["explain", "--model", str(base / "out" / "model.json"), "--clusters",
                     "--out", str(base / "rep")]) == 0
        with open(base / "rep" / "cluster_features.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        return rows, *load_model(base / "out" / "model.json")

    def test_cluster_features_keep_the_ids(self, feature_report):
        rows, model, _ = feature_report
        assert rows[0][0] == "exemplar_id"
        assert [int(row[0]) for row in rows[1:]] == model.clusters.exemplar_ids.tolist()

    def test_cluster_features_rows_match_header(self, feature_report):
        rows, _, _ = feature_report
        assert rows[0] == ["exemplar_id", "exemplar_id", "dose=mg", "grp=a,b", 'grp=c"d',
                           "grp=e"]
        assert {len(row) for row in rows} == {6}

    def test_cluster_features_on_input_scale(self, feature_report):
        rows, model, schema = feature_report
        for j, name in ((1, "exemplar_id"), (2, "dose=mg")):
            stats = schema.stats[name]
            want = model.cluster_feature_means[:, j - 1] * stats["std"] + stats["mean"]
            assert [float(row[j]) for row in rows[1:]] == want.tolist()
        assert all(float(row[2]) > 50 for row in rows[1:])

    def test_subject_records(self, tmp_path, train_csv, test_csv):
        config_path, _ = write_config(tmp_path, train_csv)
        main(["fit", "--config", str(config_path)])
        model_path = str(tmp_path / "out" / "model.json")
        rc = main(["explain", "--model", model_path, "--data", str(test_csv),
                   "--out", str(tmp_path / "rep")])
        assert rc == 0
        text = (tmp_path / "rep" / "explanations.json").read_text()
        records = json.loads(text)
        assert text == compact_records(records)
        assert len(records) == 60
        rec = records[0]
        assert set(rec) >= {"exemplar_ids", "weights", "event_probabilities",
                            "conditional_medians", "cif"}
        if rec["weights"]:
            assert sum(rec["weights"]) == pytest.approx(1.0)
        assert sum(rec["event_probabilities"]) == pytest.approx(1.0)

    def test_cluster_cifs_match_cluster_curves(self, tmp_path, train_csv):
        # one batched recursion over all clusters gives each cluster's curves
        # bit for bit: the recursion is elementwise along the time bins
        config_path, _ = write_config(tmp_path, train_csv)
        main(["fit", "--config", str(config_path)])
        model_path = tmp_path / "out" / "model.json"
        assert main(["explain", "--model", str(model_path), "--clusters",
                     "--out", str(tmp_path / "rep")]) == 0
        model, _ = load_model(model_path)
        position = {int(ex): qi for qi, ex in enumerate(model.clusters.exemplar_ids)}
        lines = (tmp_path / "rep" / "cluster_cifs.csv").read_text().splitlines()[1:]
        assert len(lines) == model.clusters.num_clusters * len(model.grid)
        for line in lines:
            ex, t, *values = line.split(",")
            curves = cluster_curves(model, position[int(ex)])
            k = int(np.searchsorted(model.grid.times, float(t)))
            assert model.grid.times[k] == float(t)
            want = [curves.survival.values[k]] + [c.values[k] for c in curves.cifs]
            assert [float(v) for v in values] == want

    def test_subject_records_match_per_row_entry_points(self, tmp_path, train_csv,
                                                        test_csv):
        config_path, _ = write_config(tmp_path, train_csv)
        main(["fit", "--config", str(config_path)])
        model_path = tmp_path / "out" / "model.json"
        assert main(["explain", "--model", str(model_path), "--data", str(test_csv),
                     "--out", str(tmp_path / "rep")]) == 0
        records = json.loads((tmp_path / "rep" / "explanations.json").read_text())
        model, schema = load_model(model_path)
        table = load_cohort(test_csv, schema.kinds, "time", "event")
        X = schema.transform(table)
        assert len(records) == X.shape[0]
        for rec, x in zip(records, X):
            info = explain_subject(model, x)
            curves = predict_curves(model, x)
            assert rec["exemplar_ids"] == [int(v) for v in info.exemplar_ids]
            assert rec["used_fallback"] == info.used_fallback
            assert_allclose(rec["weights"], info.weights, rtol=0, atol=1e-14)
            assert_allclose(rec["event_probabilities"], info.event_probabilities,
                            rtol=0, atol=1e-14)
            assert_allclose(rec["cif"]["survival"], curves.survival.values,
                            rtol=0, atol=1e-14)
            for d in range(1, model.m + 1):
                assert_allclose(rec["cif"][f"event_{d}"], curves.cif(d).values,
                                rtol=0, atol=1e-14)

    def test_subject_records_bytes_match_per_element_conversion(self, tmp_path,
                                                                 train_csv, test_csv):
        # explanations.json is built from .tolist(); it must carry the same
        # bytes as records whose numbers are converted one by one
        config_path, _ = write_config(tmp_path, train_csv)
        main(["fit", "--config", str(config_path)])
        model_path = tmp_path / "out" / "model.json"
        assert main(["explain", "--model", str(model_path), "--data", str(test_csv),
                     "--out", str(tmp_path / "rep")]) == 0
        model, schema = load_model(model_path)
        X = schema.transform(load_cohort(test_csv, schema.kinds, "time", "event"))
        blocks = [(info, cif[:, i], surv[i]) for infos, cif, surv in explain_rows(model, X)
                  for i, info in enumerate(infos)]
        records = [{
            "row": i,
            "exemplar_ids": [int(v) for v in info.exemplar_ids],
            "weights": [float(v) for v in info.weights],
            "event_probabilities": [float(v) for v in info.event_probabilities],
            "conditional_medians": [
                None if v is None else float(v) for v in info.conditional_medians],
            "used_fallback": bool(info.used_fallback),
            "cif": {
                "times": [float(t) for t in model.grid.times],
                "survival": [float(v) for v in surv],
                **{f"event_{d}": [float(v) for v in cif[d - 1]]
                   for d in range(1, model.m + 1)},
            },
        } for i, (info, cif, surv) in enumerate(blocks)]
        want = compact_records(records)
        assert (tmp_path / "rep" / "explanations.json").read_bytes() == want.encode()

    def test_records_written_one_at_a_time(self, tmp_path, train_csv):
        # writing adds less than one float64 copy of a block's curves to the
        # peak of the explain loop itself; records held as Python floats take
        # 4x that
        config_path, _ = write_config(tmp_path, train_csv, training={"num_time_steps": 64})
        main(["fit", "--config", str(config_path)])
        model_path = tmp_path / "out" / "model.json"
        query = tmp_path / "query.csv"
        write_cohort_csv(generate_synthetic(SynthConfig(
            n=3000, p=3, w1=(0.6, 0.0, 0.0), w2=(0.0, 0.6, 0.0),
            censoring_rate=0.3, seed=3)), query)
        model, schema = load_model(model_path)
        X = schema.transform(load_cohort(query, schema.kinds, "time", "event"))
        _, cif, surv = next(explain_rows(model, X))

        def explain_loop():
            for block in explain_rows(model, X):
                del block

        _, loop_peak = traced_peak(explain_loop)
        rc, peak = traced_peak(lambda: main([
            "explain", "--model", str(model_path), "--data", str(query),
            "--out", str(tmp_path / "rep")]))
        assert rc == 0
        assert peak - loop_peak < cif.nbytes + surv.nbytes

    def test_explain_peak_does_not_grow_with_blocks(self, tmp_path):
        # a hand-built model with Q = 2048 exemplars: one block's (1024, Q)
        # weights are 16 MiB, so a loop that kept the weights or records of
        # more than one block would grow with the rows
        rng = np.random.default_rng(0)
        Q, L = 2048, 8
        centers = rng.uniform(-100.0, 100.0, (Q, 2))
        d = rng.integers(1, 3, (Q, L, 2)).astype(np.float64)
        save_identity_model(tmp_path / "model.json", centers, d,
                            reverse_cumsum(d.sum(axis=2) + 1.0), tau=1.0)
        peaks = []
        for blocks in (2, 4):
            rows = blocks * model_module.PREDICT_BLOCK_ROWS
            X = centers[rng.integers(0, Q, rows)] + rng.normal(scale=0.3, size=(rows, 2))
            write_cohort_csv(Cohort(X, np.ones(rows), np.zeros(rows, dtype=np.int64), 2),
                             tmp_path / "query.csv")
            rc, peak = traced_peak(lambda: main([
                "explain", "--model", str(tmp_path / "model.json"),
                "--data", str(tmp_path / "query.csv"), "--out", str(tmp_path / "rep")]))
            assert rc == 0
            peaks.append(peak)
        assert peaks[1] <= 1.1 * peaks[0]

    def test_cluster_reports_grow_linearly_in_q(self, tmp_path):
        # each cluster adds its curves, size, risks and feature means: the
        # bytes per cluster do not grow with Q, as a Q x Q matrix's would
        rng = np.random.default_rng(0)
        L = 8
        per_cluster = {}
        for Q in (64, 512):
            d = rng.integers(1, 3, (Q, L, 2)).astype(np.float64)
            save_identity_model(tmp_path / "model.json", rng.normal(size=(Q, 2)), d,
                                reverse_cumsum(d.sum(axis=2) + 1.0), tau=1.0)
            out = tmp_path / f"rep{Q}"
            assert main(["explain", "--model", str(tmp_path / "model.json"), "--clusters",
                         "--out", str(out)]) == 0
            per_cluster[Q] = sum(path.stat().st_size for path in out.iterdir()) / Q
        assert per_cluster[512] <= 1.5 * per_cluster[64]

    def save_no_risk_model(self, tmp_path, row_9):
        # query row 9 is row_9; a row at exemplar 1 weighs only its cluster,
        # which has no events, as tau keeps exemplar 0 away
        save_identity_model(tmp_path / "model.json", np.array([[0.0, 0.0], [9.0, 0.0]]),
                            np.array([[[1.0], [1.0]], [[0.0], [0.0]]]),
                            np.array([[3.0, 1.0], [2.0, 1.0]]), tau=1.0)
        X = np.zeros((12, 2))
        X[9] = row_9
        write_cohort_csv(Cohort(X, np.ones(12), np.zeros(12, dtype=np.int64), 1),
                         tmp_path / "query.csv")
        return ["explain", "--model", str(tmp_path / "model.json"),
                "--data", str(tmp_path / "query.csv"), "--out", str(tmp_path / "rep")]

    def test_no_risk_in_a_later_block_gets_its_record(self, tmp_path, monkeypatch):
        # its CIFs are zero at the horizon: S = 1 and F = 0, with null
        # probabilities and medians, not an error
        argv = self.save_no_risk_model(tmp_path, [9.0, 0.0])
        monkeypatch.setattr(model_module, "PREDICT_BLOCK_ROWS", 4)
        assert main(argv) == 0
        records = json.loads((tmp_path / "rep" / "explanations.json").read_text())
        assert [r["row"] for r in records] == list(range(12))
        assert [r["row"] for r in records if r["event_probabilities"] is None] == [9]
        assert records[9]["conditional_medians"] == [None]
        assert records[9]["cif"]["survival"] == [1.0, 1.0]
        assert records[9]["cif"]["event_1"] == [0.0, 0.0]

    def test_features_too_large_to_embed_in_a_later_block_leave_no_file(
            self, tmp_path, monkeypatch, capsys):
        # row 9's finite 1e300 overflows the embedding after explanations.json
        # was opened, so the command's cleanup removes the file
        argv = self.save_no_risk_model(tmp_path, [1e300, 0.0])
        monkeypatch.setattr(model_module, "PREDICT_BLOCK_ROWS", 4)
        assert main(argv) == 2
        assert "row 9:" in capsys.readouterr().err
        assert not (tmp_path / "rep" / "explanations.json").exists()

    def test_single_cluster_model_reproduces_population(self, tmp_path,
                                                        train_csv):
        config_path, _ = write_config(tmp_path, train_csv,
                                      clustering={"epsilon": 1e9,
                                                  "min_kernel_weight": 0.01})
        main(["fit", "--config", str(config_path)])
        model, _ = load_model(tmp_path / "out" / "model.json")
        assert model.clusters.num_clusters == 1
        pop = model.population_curves()
        single = cluster_curves(model, 0)
        assert_allclose(single.survival.values, pop.survival.values, atol=1e-12)


class TestSimulate:
    def test_simulate_round_trip(self, tmp_path):
        cfg = {"n": 50, "p": 2, "w1": [0.5, 0.0], "w2": [0.0, 0.5],
               "censoring_rate": 0.4, "seed": 9}
        config_path = tmp_path / "sim.json"
        config_path.write_text(json.dumps(cfg))
        out_path = tmp_path / "sim.csv"
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(out_path)]) == 0
        assert out_path.exists()
        sidecar = json.loads((tmp_path / "sim.csv.config.json").read_text())
        assert sidecar["seed"] == 9
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,time,event"
        assert len(lines) == 51

    def test_bad_sim_key_exit_2(self, tmp_path, capsys):
        config_path = tmp_path / "sim.json"
        config_path.write_text(json.dumps({"n": 10, "p": 1, "w1": [0.1],
                                           "w2": [0.1], "extra": 1}))
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert "extra" in capsys.readouterr().err
