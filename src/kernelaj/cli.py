"""Command-line pipeline: fit, evaluate, explain, simulate.

Configuration files are JSON with strictly validated keys and values; an
unknown key or a rejected value is reported before work starts. Commands exit
0 on success and 2 with a single-line ``error: ...`` message on stderr for
configuration or data problems, and for a file that cannot be read or
written (an OSError). Any other exception is a bug and propagates with its
traceback.
"""

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields, replace

import numpy as np

from . import metrics as metricsmod
from .clustering import cluster_positions, tau_from_min_kernel_weight
from .core import (
    Cohort,
    breslow_preprocess,
    build_event_grid,
    cif_from_hazards,
    require_int,
    require_real,
    table_hazards,
)
from .dataio import (
    FeatureSchema,
    SynthConfig,
    fit_apply_preprocessor,
    generate_synthetic,
    load_cohort,
    write_cohort_csv,
    write_csv,
)
from .embedding import EmbeddingConfig
from .errors import ConfigError, KernelAJError, ParseError, SchemaMismatch
from .finetune import fine_tune_summaries
from .model import KernelAJModel, explain_rows, predict_cif_grid
from .serialize import load_model, save_model
from .training import TrainConfig, discretize_times, table_criterion, train_embedding

_TOP_KEYS = {"seed", "output_dir", "data", "embedding", "training",
             "clustering", "sft"}
_DATA_KEYS = {"train", "valid", "time_column", "event_column", "schema",
              "valid_fraction"}
_EMBED_KEYS = {f.name for f in fields(EmbeddingConfig)} - {"input_dim"}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)}
_CLUSTER_KEYS = {"epsilon", "min_kernel_weight"}
_SFT_KEYS = {"enabled", "learning_rate", "max_epochs", "patience",
             "early_stop_criterion"}
_SIM_KEYS = {f.name for f in fields(SynthConfig)}


def _check_keys(section: dict, allowed: set, path: str):
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{path}' must be an object")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{path}.{key}'")


def _require(section: dict, key: str, path: str):
    if key not in section or section[key] is None:
        raise ConfigError(f"missing required config key '{path}.{key}'")
    return section[key]


def _checked(path: str, build):
    """Call ``build``; a ValueError or TypeError it raises (a value the
    config class or parser rejects) becomes a ConfigError naming ``path``."""
    try:
        return build()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value in '{path}': {exc}") from None


def _read_cohort(path, kinds, time_column, event_column, key=None):
    """``load_cohort`` of a data file; a file, an encoding or a cell it cannot
    read becomes a ConfigError naming the file (and ``key``, its config key)."""
    try:
        return load_cohort(path, kinds, time_column, event_column)
    except (OSError, UnicodeDecodeError, csv.Error, ParseError) as exc:
        where = f"'{key}' ({path})" if key else str(path)
        raise ConfigError(f"cannot read data file {where}: {exc}") from None


@contextmanager
def _output_dir(path):
    """Make ``path`` for a command's outputs; if the command fails, remove it
    again when it was made here and is still empty."""
    made = not os.path.isdir(path)
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    except BaseException:
        if made and not os.listdir(path):
            os.rmdir(path)
        raise


# explanations.json: one compact record per line, from json's C encoder
_RECORD_JSON = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:           # bad JSON, or bytes that are not UTF-8
        raise ConfigError(f"config file is not valid JSON: {path}: {exc}") from None


def _parse_fit_config(doc: dict):
    _check_keys(doc, _TOP_KEYS, "")
    data = _require(doc, "data", "")
    _check_keys(data, _DATA_KEYS, "data")
    for key in ("train", "time_column", "event_column", "schema"):
        _require(data, key, "data")
    # an integer path would open that file descriptor (0 reads stdin); data.valid
    # and output_dir may be absent or null
    typed = [(f"data.{key}", data.get(key), str)
             for key in ("train", "valid", "time_column", "event_column")]
    for name, value, kind in typed + [("data.schema", data["schema"], dict),
                                      ("output_dir", doc.get("output_dir"), str)]:
        if value is not None and not isinstance(value, kind):
            raise ConfigError(f"invalid value in '{name}': must be "
                              f"{'a string' if kind is str else 'an object'}, got {value!r}")
    if not data["schema"]:
        raise ConfigError("invalid value in 'data.schema': must name at least one "
                          "feature column")
    _check_keys(doc.get("embedding", {}), _EMBED_KEYS, "embedding")
    _check_keys(doc.get("training", {}), _TRAIN_KEYS, "training")
    _check_keys(doc.get("clustering", {}), _CLUSTER_KEYS, "clustering")
    _require(doc.get("clustering", {}), "epsilon", "clustering")
    _check_keys(doc.get("sft", {}), _SFT_KEYS, "sft")
    return doc


def _fit_settings(tcfg: TrainConfig, epsilon, min_kernel_weight=0.01, sft=None):
    """(tau, the fine-tuning TrainConfig or None) of a fit's clustering
    settings and ``sft`` config section, checked before any data is read or
    any training runs (the ``sft`` section even when fine-tuning is
    disabled); a rejected value raises ConfigError naming its section.
    Alpha is 1 whatever ``training.alpha`` is: ``fit`` fine-tunes the NLL
    alone, alpha < 1 only the library."""
    def clustering():
        if require_real("epsilon", epsilon) < 0:
            raise ValueError("epsilon must be nonnegative")
        return tau_from_min_kernel_weight(require_real("min_kernel_weight", min_kernel_weight))
    tau = _checked("clustering", clustering)
    sft = sft or {}
    enabled = sft.get("enabled", False)
    if not isinstance(enabled, bool):
        raise ConfigError(f"invalid value in 'sft.enabled': must be true or false, "
                          f"got {enabled!r}")
    sft_tcfg = _checked("sft", lambda: TrainConfig(
        learning_rate=sft.get("learning_rate", 0.001),
        max_epochs=sft.get("max_epochs", 100),
        patience=sft.get("patience", tcfg.patience),
        alpha=1.0,
        early_stop_criterion=sft.get("early_stop_criterion", tcfg.early_stop_criterion),
    ))
    return tau, sft_tcfg if enabled else None


def cmd_fit(config_path: str) -> int:
    doc = _parse_fit_config(_load_json(config_path))
    data_cfg = doc["data"]
    # every setting is checked before the data is read; the embedding's
    # input_dim is the feature count, filled in once the data is read
    seed = _checked("seed", lambda: require_int("seed", doc.get("seed", 0), 0))
    frac = _checked("data.valid_fraction", lambda: float(
        require_real("valid_fraction", data_cfg.get("valid_fraction", 0.2))))
    if not 0.0 <= frac < 1.0:
        raise ConfigError("invalid value in 'data.valid_fraction': must lie in [0, 1)")
    ecfg = _checked("embedding", lambda: EmbeddingConfig(
        input_dim=1, **doc.get("embedding", {})))
    tcfg = _checked("training", lambda: TrainConfig(**doc.get("training", {})))
    _fit_settings(tcfg, **doc["clustering"], sft=doc.get("sft"))

    schema_spec = data_cfg["schema"]
    columns = schema_spec, data_cfg["time_column"], data_cfg["event_column"]
    train_table = _read_cohort(data_cfg["train"], *columns, "data.train")
    files = data_cfg["train"]
    if data_cfg.get("valid"):
        valid_table = _read_cohort(data_cfg["valid"], *columns, "data.valid")
        files += f", {data_cfg['valid']}"
    else:
        # split the rows before preprocessing, so the schema sees training rows only
        perm = np.random.default_rng(seed).permutation(train_table.n)
        n_valid = max(int(train_table.n * frac), 1)
        valid_table = train_table.subset(perm[:n_valid])
        train_table = train_table.subset(perm[n_valid:])
    train_cohort, valid_cohort, schema = _checked(files, lambda: fit_apply_preprocessor(
        train_table, valid_table, schema_spec=schema_spec))

    for warning in schema.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    ecfg = replace(ecfg, input_dim=train_cohort.p)
    with _output_dir(doc.get("output_dir") or ".") as out_dir:
        model, logs = fit_pipeline(train_cohort, valid_cohort, ecfg, tcfg, **doc["clustering"],
                                   sft_config=doc.get("sft"))
        save_model(model, os.path.join(out_dir, "model.json"), schema)
        for key, log in logs.items():
            epoch, loss, value, best = map(np.array, zip(*log.rows))
            path = os.path.join(out_dir, "training_log.csv" if key == "train" else "sft_log.csv")
            write_csv(path, ["epoch", "train_loss", "valid_criterion", "is_best"],
                      [epoch, loss, value, best.astype(np.int64)])
    print(f"model written to {os.path.join(out_dir, 'model.json')}")
    return 0


def fit_pipeline(train_cohort: Cohort, valid_cohort: Cohort,
                 ecfg: EmbeddingConfig, tcfg: TrainConfig, epsilon: float,
                 min_kernel_weight: float = 0.01, sft_config=None):
    """Full training pipeline shared by the CLI and library callers.

    Preprocess and discretize times, train the embedding, take the clusters
    of its best epoch (the model its criterion scored), average each
    cluster's features, and optionally fine-tune the summary tables. Returns
    (model, logs dict). A rejected clustering setting (``epsilon``,
    ``min_kernel_weight``) or ``sft_config`` value raises ConfigError, and a
    criterion that cannot be computed on the validation cohort raises, before
    training starts (fine-tuning's :func:`training.table_criterion` is built
    here once more, its value function discarded).
    """
    tau, sft_tcfg = _fit_settings(tcfg, epsilon, min_kernel_weight, sft_config)
    grid = discretize_times(build_event_grid(train_cohort), tcfg.num_time_steps)
    train_pre, _ = breslow_preprocess(train_cohort, grid)
    valid_pre, _ = breslow_preprocess(valid_cohort, grid)
    if sft_tcfg is not None:        # fine-tuning's criterion, checked before training
        table_criterion(sft_tcfg.early_stop_criterion, train_pre, valid_pre, grid,
                        sft_tcfg.alpha, sft_tcfg.sigma)

    (params, clusters), train_log = train_embedding(
        train_pre, valid_pre, ecfg, tcfg, grid, epsilon, tau)

    # each cluster's rows in input order, so every mean keeps its bits
    order = np.argsort(cluster_positions(clusters.exemplar_ids, clusters.assignments),
                       kind="stable")
    feature_means = np.vstack([rows.mean(axis=0) for rows in np.split(
        train_pre.features[order], np.cumsum(clusters.cluster_sizes())[:-1])])
    model = KernelAJModel(params=params, clusters=clusters, grid=grid,
                          cluster_feature_means=feature_means)
    logs = {"train": train_log}

    if sft_tcfg is not None:
        model, sft_result = fine_tune_summaries(model, train_pre, valid_pre, sft_tcfg)
        logs["sft"] = sft_result.log
    return model, logs


def _load_compatible_cohort(path, schema: FeatureSchema, model: KernelAJModel,
                            time_column: str, event_column: str) -> Cohort:
    if schema is None:
        raise SchemaMismatch("model file carries no feature schema")
    table = _read_cohort(path, schema.kinds, time_column, event_column)
    features = _checked(str(path), lambda: schema.transform(table))
    if int(table.event.max(initial=0)) > model.m:
        raise SchemaMismatch(
            f"event indicator exceeds model's {model.m} event types")
    return _checked(str(path), lambda: Cohort(features, table.time, table.event, model.m))


def cmd_evaluate(model_path: str, data_path: str, out_dir: str,
                 time_column: str, event_column: str) -> int:
    model, schema = _load_model_checked(model_path)
    cohort = _load_compatible_cohort(data_path, schema, model, time_column, event_column)
    with _output_dir(out_dir):
        cif, _, _ = predict_cif_grid(model, cohort.features)
        scorer = metricsmod.scorer(
            cohort, metricsmod.build_eval_grid(cohort.time[cohort.event != 0]))
        scores = metricsmod.score_curves(cif, model.grid.times, scorer)
        pop = np.stack([c.values for c in model.population_curves().cifs])
        pop_cif = np.broadcast_to(pop[:, None, :], (model.m, cohort.n, pop.shape[1]))
        # every pair of population curves ties, so their concordance is 0.5
        pop_ibs = metricsmod.score_curves(pop_cif, model.grid.times, scorer, ("ibs",))["ibs"]

        values = np.stack([scores["ctd"], scores["ibs"], [0.5] * model.m, pop_ibs], 1)
        out_path = os.path.join(out_dir, "metrics.csv")
        write_csv(out_path, ["event", "metric", "value"],
                  [np.repeat(np.arange(1, model.m + 1), 4),
                   np.tile(["ctd", "ibs", "ctd_population", "ibs_population"], model.m),
                   values.ravel()])
    print(f"metrics written to {out_path}")
    return 0


def cmd_explain(model_path: str, out_dir: str, data_path, clusters_mode,
                time_column: str, event_column: str) -> int:
    if clusters_mode == (data_path is not None):
        raise ConfigError("explain takes exactly one of --data <csv> or --clusters")
    model, schema = _load_model_checked(model_path)
    if not clusters_mode:
        cohort = _load_compatible_cohort(data_path, schema, model, time_column, event_column)
    with _output_dir(out_dir):
        if clusters_mode:
            ids = model.clusters.exemplar_ids
            cif, surv, _, _ = cif_from_hazards(
                table_hazards(model.clusters.d_cluster, model.clusters.n_cluster))
            order = np.argsort(-cif[0, :, -1], kind="stable")
            events = range(1, model.m + 1)
            write_csv(os.path.join(out_dir, "cluster_summary.csv"),
                      ["exemplar_id", "size", *(f"risk_event_{d}" for d in events)],
                      [ids[order], model.clusters.cluster_sizes()[order], cif[:, order, -1].T])
            write_csv(os.path.join(out_dir, "cluster_cifs.csv"),
                      ["exemplar_id", "time", "survival", *(f"cif_{d}" for d in events)],
                      [np.repeat(ids[order], len(model.grid)), np.tile(model.grid.times, ids.size),
                       surv[order].ravel(), cif[:, order].reshape(model.m, -1).T])
            means = model.cluster_feature_means
            names = [f"f{j}" for j in range(means.shape[1])]
            if schema is not None:
                names, means = schema.feature_names, schema.original_scale(means)
            write_csv(os.path.join(out_dir, "cluster_features.csv"),
                      ["exemplar_id", *names], [ids, means])
            print(f"cluster reports written to {out_dir}")
            return 0

        times = model.grid.times.tolist()
        out_path = os.path.join(out_dir, "explanations.json")
        # one block of records at a time, one record per line of a JSON array (never
        # empty: a Cohort has at least one row); a block that fails leaves no
        # explanations.json behind
        fh = open(out_path, "w", encoding="utf-8")
        try:
            with fh:
                fh.write("[")
                row = 0
                for infos, cif, surv in explain_rows(model, cohort.features):
                    for i, info in enumerate(infos):
                        record = {
                            "row": row,
                            "exemplar_ids": info.exemplar_ids.tolist(),
                            "weights": info.weights.tolist(),
                            "event_probabilities": None if info.event_probabilities is None
                            else info.event_probabilities.tolist(),
                            "conditional_medians": list(info.conditional_medians),
                            "used_fallback": bool(info.used_fallback),
                            "cif": {
                                "times": times,
                                "survival": surv[i].tolist(),
                                **{f"event_{d}": cif[d - 1, i].tolist()
                                   for d in range(1, model.m + 1)},
                            },
                        }
                        fh.write(",\n" if row else "\n")
                        fh.write(_RECORD_JSON.encode(record))
                        row += 1
                    del infos, cif, surv     # free the block before the next is formed
                fh.write("\n]\n")
        except (KernelAJError, OSError):
            os.remove(out_path)
            raise
        print(f"explanations written to {out_path}")
        return 0


def cmd_simulate(config_path: str, out_path: str) -> int:
    doc = _load_json(config_path)
    _check_keys(doc, _SIM_KEYS, "")
    for key in ("n", "p", "w1", "w2"):
        _require(doc, key, "")
    cfg = _checked(config_path, lambda: SynthConfig(**doc))
    cohort = generate_synthetic(cfg)
    write_cohort_csv(cohort, out_path)
    sidecar = out_path + ".config.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(asdict(cfg), sort_keys=True, indent=2) + "\n")
    print(f"cohort written to {out_path} (config sidecar {sidecar})")
    return 0


def _load_model_checked(path):
    try:
        return load_model(path)
    except ValueError as exc:
        raise ConfigError(f"model file is not valid: {path}: {exc}") from None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kernelaj",
        description="Competing-risks survival modeling with kernel-weighted "
                    "Aalen-Johansen estimates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="train a model from a JSON config")
    p_fit.add_argument("--config", required=True)

    p_eval = sub.add_parser("evaluate", help="score a model on a CSV cohort")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--time-column", default="time")
    p_eval.add_argument("--event-column", default="event")

    p_exp = sub.add_parser("explain", help="cluster- or subject-level reports")
    p_exp.add_argument("--model", required=True)
    p_exp.add_argument("--data")
    p_exp.add_argument("--clusters", action="store_true")
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--time-column", default="time")
    p_exp.add_argument("--event-column", default="event")

    p_sim = sub.add_parser("simulate", help="draw a synthetic cohort CSV")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return cmd_fit(args.config)
        if args.command == "evaluate":
            return cmd_evaluate(args.model, args.data, args.out,
                                args.time_column, args.event_column)
        if args.command == "explain":
            return cmd_explain(args.model, args.out, data_path=args.data,
                               clusters_mode=args.clusters,
                               time_column=args.time_column,
                               event_column=args.event_column)
        return cmd_simulate(args.config, args.out)     # argparse admits no other command
    except (KernelAJError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
