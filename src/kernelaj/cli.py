"""Command-line pipeline: fit, evaluate, explain, simulate.

Configuration files are JSON with strictly validated keys and values; an
unknown key or a rejected value is reported before work starts. Commands exit
0 on success and 2 with a single-line ``error: ...`` message on stderr for
configuration or data problems. Any other exception is a bug and propagates
with its traceback.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import metrics as metricsmod
from .clustering import build_cluster_model, tau_from_min_kernel_weight
from .core import (
    Cohort,
    build_event_grid,
    cif_from_hazards,
    risk_event_counts,
    table_hazards,
)
from .dataio import (
    FeatureSchema,
    SynthConfig,
    fit_apply_preprocessor,
    generate_synthetic,
    load_cohort,
    write_cohort_csv,
)
from .embedding import EmbeddingConfig, embed_batch
from .errors import ConfigError, KernelAJError, SchemaMismatch
from .finetune import fine_tune_summaries
from .model import KernelAJModel, exemplar_kernel_matrix, explain_rows, predict_cif_grid
from .serialize import load_model, save_model
from .training import TrainConfig, _criterion_inputs, discretize_times, train_embedding

_TOP_KEYS = {"seed", "output_dir", "data", "embedding", "training",
             "clustering", "sft"}
_DATA_KEYS = {"train", "valid", "time_column", "event_column", "schema",
              "valid_fraction"}
_EMBED_KEYS = {"num_layers", "hidden_units", "embed_dim", "activation",
               "init_seed"}
_TRAIN_KEYS = {"learning_rate", "batch_size", "max_epochs", "patience",
               "alpha", "sigma", "momentum", "num_time_steps",
               "early_stop_criterion", "seed"}
_CLUSTER_KEYS = {"epsilon", "squared_radius", "min_kernel_weight",
                 "shuffle_seed"}
_SFT_KEYS = {"enabled", "learning_rate", "max_epochs", "patience",
             "early_stop_criterion"}
_SIM_KEYS = {"n", "p", "w1", "w2", "censoring_rate", "seed"}


def _check_keys(section: dict, allowed: set, path: str):
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{path}' must be an object", key=path)
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{path}.{key}'", key=f"{path}.{key}")


def _require(section: dict, key: str, path: str):
    if key not in section or section[key] is None:
        raise ConfigError(f"missing required config key '{path}.{key}'",
                          key=f"{path}.{key}")
    return section[key]


def _checked(path: str, build):
    """Call ``build``; a ValueError or TypeError it raises (a value the
    config class or parser rejects) becomes a ConfigError naming ``path``."""
    try:
        return build()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value in '{path}': {exc}", key=path) from None


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {path}: {exc}") from None


def _parse_fit_config(doc: dict):
    _check_keys(doc, _TOP_KEYS, "")
    data = _require(doc, "data", "")
    _check_keys(data, _DATA_KEYS, "data")
    _require(data, "train", "data")
    _require(data, "time_column", "data")
    _require(data, "event_column", "data")
    _require(data, "schema", "data")
    _check_keys(doc.get("embedding", {}), _EMBED_KEYS, "embedding")
    _check_keys(doc.get("training", {}), _TRAIN_KEYS, "training")
    cluster_cfg = doc.get("clustering", {})
    _check_keys(cluster_cfg, _CLUSTER_KEYS, "clustering")
    if cluster_cfg.get("epsilon") is None and cluster_cfg.get("squared_radius") is None:
        raise ConfigError("missing required config key 'clustering.epsilon' "
                          "(or 'clustering.squared_radius')",
                          key="clustering.epsilon")
    _check_keys(doc.get("sft", {}), _SFT_KEYS, "sft")
    return doc


def _clustering_from_config(cluster_cfg: dict):
    """(epsilon, min_kernel_weight, shuffle_seed), checked before training."""
    def build():
        if cluster_cfg.get("epsilon") is not None:
            epsilon = float(cluster_cfg["epsilon"])
        else:
            epsilon = float(np.sqrt(float(cluster_cfg["squared_radius"])))
        if not epsilon >= 0:
            raise ValueError("epsilon must be nonnegative")
        min_weight = float(cluster_cfg.get("min_kernel_weight", 0.01))
        tau_from_min_kernel_weight(min_weight)
        return epsilon, min_weight, cluster_cfg.get("shuffle_seed")
    return _checked("clustering", build)


def _sft_train_config(sft_config: dict, tcfg: TrainConfig) -> TrainConfig:
    """The fine-tuning TrainConfig of an ``sft`` config section."""
    return _checked("sft", lambda: TrainConfig(
        learning_rate=float(sft_config.get("learning_rate", 0.001)),
        max_epochs=int(sft_config.get("max_epochs", 100)),
        patience=int(sft_config.get("patience", tcfg.patience)),
        alpha=1.0,
        sigma=tcfg.sigma,
        num_time_steps=tcfg.num_time_steps,
        early_stop_criterion=sft_config.get("early_stop_criterion",
                                            tcfg.early_stop_criterion),
    ))


def cmd_fit(config_path: str) -> int:
    doc = _parse_fit_config(_load_json(config_path))
    seed = _checked("seed", lambda: int(doc.get("seed", 0)))
    out_dir = doc.get("output_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    data_cfg = doc["data"]

    schema_spec = data_cfg["schema"]
    try:
        train_table = load_cohort(data_cfg["train"], schema_spec,
                                  data_cfg["time_column"], data_cfg["event_column"])
    except FileNotFoundError:
        raise ConfigError(f"missing data path 'data.train': {data_cfg['train']}",
                          key="data.train") from None

    if data_cfg.get("valid"):
        try:
            valid_table = load_cohort(data_cfg["valid"], schema_spec,
                                      data_cfg["time_column"],
                                      data_cfg["event_column"])
        except FileNotFoundError:
            raise ConfigError(f"missing data path 'data.valid': {data_cfg['valid']}",
                              key="data.valid") from None
        train_cohort, valid_cohort, schema = _checked(
            f"{data_cfg['train']}, {data_cfg['valid']}",
            lambda: fit_apply_preprocessor(train_table, valid_table,
                                           schema_spec=schema_spec))
    else:
        full_cohort, schema = _checked(
            data_cfg["train"],
            lambda: fit_apply_preprocessor(train_table, schema_spec=schema_spec))
        frac = _checked("data.valid_fraction",
                        lambda: float(data_cfg.get("valid_fraction", 0.2)))
        if not 0.0 <= frac < 1.0:
            raise ConfigError("invalid value in 'data.valid_fraction': "
                              "must lie in [0, 1)", key="data.valid_fraction")
        perm = np.random.default_rng(seed).permutation(full_cohort.n)
        n_valid = max(int(full_cohort.n * frac), 1)
        valid_cohort = full_cohort.subset(perm[:n_valid])
        train_cohort = full_cohort.subset(perm[n_valid:])

    ecfg = _checked("embedding", lambda: EmbeddingConfig(
        input_dim=train_cohort.p, **doc.get("embedding", {})))
    tcfg = _checked("training", lambda: TrainConfig(**doc.get("training", {})))
    epsilon, min_weight, shuffle_seed = _clustering_from_config(doc.get("clustering", {}))

    model, logs = fit_pipeline(train_cohort, valid_cohort, ecfg, tcfg,
                               epsilon=epsilon, min_kernel_weight=min_weight,
                               shuffle_seed=shuffle_seed,
                               sft_config=doc.get("sft", {}),
                               config_snapshot=doc)
    save_model(model, os.path.join(out_dir, "model.json"), schema)
    with open(os.path.join(out_dir, "training_log.csv"), "w", encoding="utf-8") as fh:
        fh.write(logs["train"].to_csv())
    if "sft" in logs:
        with open(os.path.join(out_dir, "sft_log.csv"), "w", encoding="utf-8") as fh:
            fh.write(logs["sft"].to_csv())
    print(f"model written to {os.path.join(out_dir, 'model.json')}")
    return 0


def fit_pipeline(train_cohort: Cohort, valid_cohort: Cohort,
                 ecfg: EmbeddingConfig, tcfg: TrainConfig, epsilon: float,
                 min_kernel_weight: float = 0.01, shuffle_seed=None,
                 sft_config=None, config_snapshot=None):
    """Full training pipeline shared by the CLI and library callers.

    Preprocess and discretize times, train the embedding, cluster, summarize,
    and optionally fine-tune the summary tables. Returns (model, logs dict).
    An invalid ``sft_config``, or an SFT criterion that cannot be computed
    on the validation cohort, raises before training starts.
    """
    sft_config = sft_config or {}
    sft_tcfg = _sft_train_config(sft_config, tcfg) if sft_config.get("enabled") else None
    grid = build_event_grid(train_cohort)
    dtm = discretize_times(grid, tcfg.num_time_steps)
    train_pre, kappa = dtm.apply(train_cohort)
    valid_pre, _ = dtm.apply(valid_cohort)
    if sft_tcfg is not None:
        _criterion_inputs(sft_tcfg.early_stop_criterion, train_pre, valid_pre, dtm, kappa)

    params, train_log = train_embedding(train_pre, valid_pre, ecfg, tcfg, dtm)

    embeddings = embed_batch(params, train_pre.features)
    tau = tau_from_min_kernel_weight(min_kernel_weight)
    clusters = build_cluster_model(embeddings, train_pre, dtm.grid, epsilon,
                                   tau, shuffle_seed)
    pop_d, pop_n = risk_event_counts(train_pre, dtm.grid)

    feature_means = np.vstack([
        train_pre.features[clusters.assignments == q].mean(axis=0)
        for q in clusters.exemplar_ids
    ])
    model = KernelAJModel(
        params=params,
        clusters=clusters,
        dtm=dtm,
        population_d=pop_d,
        population_n=pop_n,
        d_tables=clusters.d_cluster.copy(),
        n_tables=clusters.n_cluster.copy(),
        config=config_snapshot or {},
        cluster_feature_means=feature_means,
    )
    logs = {"train": train_log}

    if sft_tcfg is not None:
        model, sft_result = fine_tune_summaries(model, train_pre, valid_pre,
                                                sft_tcfg)
        logs["sft"] = sft_result.log
    return model, logs


def _load_compatible_cohort(path, schema: FeatureSchema, model: KernelAJModel,
                            time_column: str, event_column: str) -> Cohort:
    if schema is None:
        raise SchemaMismatch("model file carries no feature schema")
    table = load_cohort(path, schema.kinds, time_column, event_column)
    features = schema.transform(table)
    if int(table.event.max(initial=0)) > model.m:
        raise SchemaMismatch(
            f"event indicator exceeds model's {model.m} event types")
    return _checked(str(path), lambda: Cohort(features, table.time, table.event, model.m))


def cmd_evaluate(model_path: str, data_path: str, out_dir: str,
                 time_column: str = "time", event_column: str = "event") -> int:
    model, schema = _load_model_checked(model_path)
    cohort = _load_compatible_cohort(data_path, schema, model,
                                     time_column, event_column)
    os.makedirs(out_dir, exist_ok=True)

    cif, _, _ = predict_cif_grid(model, cohort.features)
    event_times = cohort.time[cohort.event != 0]
    eval_grid = metricsmod.build_eval_grid(event_times)
    censor = metricsmod.censoring_survival(cohort)
    scores = metricsmod.evaluate_cif_predictions(
        cif, model.grid.times, cohort, eval_grid, censor)

    pop = model.population_curves()
    pop_cif = np.stack([
        np.tile(c.values, (cohort.n, 1)) for c in pop.cifs
    ])
    pop_scores = metricsmod.evaluate_cif_predictions(
        pop_cif, model.grid.times, cohort, eval_grid, censor)

    lines = ["event,metric,value"]
    for d in range(1, model.m + 1):
        lines.append(f"{d},ctd,{scores['ctd'][d - 1]!r}")
        lines.append(f"{d},ibs,{scores['ibs'][d - 1]!r}")
        lines.append(f"{d},ctd_population,{pop_scores['ctd'][d - 1]!r}")
        lines.append(f"{d},ibs_population,{pop_scores['ibs'][d - 1]!r}")
    out_path = os.path.join(out_dir, "metrics.csv")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"metrics written to {out_path}")
    return 0


def _original_scale_summary(model: KernelAJModel, schema) -> list:
    """Per-cluster feature summaries: means for continuous columns (mapped
    back to the original scale), frequencies for binary/one-hot columns."""
    means = model.cluster_feature_means
    if means is None:
        return []
    names = (schema.feature_names if schema is not None
             else [f"f{j}" for j in range(means.shape[1])])
    rows = []
    for qi, ex in enumerate(model.clusters.exemplar_ids):
        row = {"exemplar_id": int(ex)}
        for j, name in enumerate(names):
            value = float(means[qi, j])
            base = name.split("=")[0]
            if schema is not None and schema.kinds.get(base) == "continuous":
                st = schema.stats[base]
                value = value * st["std"] + st["mean"]
            row[name] = value
        rows.append(row)
    return rows


def cmd_explain(model_path: str, out_dir: str, data_path=None,
                clusters_mode=False, time_column: str = "time",
                event_column: str = "event") -> int:
    model, schema = _load_model_checked(model_path)
    os.makedirs(out_dir, exist_ok=True)

    if clusters_mode:
        sizes = model.clusters.cluster_sizes()
        ids = model.clusters.exemplar_ids
        cif, surv, _, _ = cif_from_hazards(
            table_hazards(model.clusters.d_cluster, model.clusters.n_cluster))
        order = sorted(range(ids.size), key=lambda qi: -cif[0, qi, -1])

        lines = ["exemplar_id,size," +
                 ",".join(f"risk_event_{d}" for d in range(1, model.m + 1))]
        for qi in order:
            lines.append(f"{int(ids[qi])},{int(sizes[qi])}," +
                         ",".join(repr(float(r)) for r in cif[:, qi, -1]))
        with open(os.path.join(out_dir, "cluster_summary.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

        lines = ["exemplar_id,time,survival," +
                 ",".join(f"cif_{d}" for d in range(1, model.m + 1))]
        for qi in order:
            for k, t in enumerate(model.grid.times):
                vals = [surv[qi, k], *cif[:, qi, k]]
                lines.append(f"{int(ids[qi])},{float(t)!r}," +
                             ",".join(repr(float(v)) for v in vals))
        with open(os.path.join(out_dir, "cluster_cifs.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

        feat_rows = _original_scale_summary(model, schema)
        if feat_rows:
            cols = list(feat_rows[0].keys())
            lines = [",".join(cols)]
            for row in feat_rows:
                lines.append(",".join(
                    str(row[c]) if c == "exemplar_id" else repr(row[c])
                    for c in cols))
            with open(os.path.join(out_dir, "cluster_features.csv"), "w",
                      encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")

        K = exemplar_kernel_matrix(model)
        lines = ["exemplar_id," + ",".join(str(int(i)) for i in ids)]
        for qi, ex in enumerate(ids):
            lines.append(f"{int(ex)}," + ",".join(repr(float(v)) for v in K[qi]))
        with open(os.path.join(out_dir, "kernel_matrix.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"cluster reports written to {out_dir}")
        return 0

    if data_path is None:
        raise ConfigError("explain needs --data <csv> or --clusters")
    cohort = _load_compatible_cohort(data_path, schema, model,
                                     time_column, event_column)
    infos, cif, surv = explain_rows(model, cohort.features)
    times = [float(t) for t in model.grid.times]
    records = []
    for i, info in enumerate(infos):
        records.append({
            "row": i,
            "exemplar_ids": [int(v) for v in info.exemplar_ids],
            "weights": [float(v) for v in info.weights],
            "event_probabilities": [float(v) for v in info.event_probabilities],
            "conditional_medians": [
                None if v is None else float(v) for v in info.conditional_medians],
            "used_fallback": bool(info.used_fallback),
            "cif": {
                "times": times,
                "survival": [float(v) for v in surv[i]],
                **{f"event_{d}": [float(v) for v in cif[d - 1, i]]
                   for d in range(1, model.m + 1)},
            },
        })
    out_path = os.path.join(out_dir, "explanations.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"explanations written to {out_path}")
    return 0


def cmd_simulate(config_path: str, out_path: str) -> int:
    doc = _load_json(config_path)
    _check_keys(doc, _SIM_KEYS, "")
    cfg = _checked(config_path, lambda: SynthConfig(
        n=int(_require(doc, "n", "")),
        p=int(_require(doc, "p", "")),
        w1=tuple(_require(doc, "w1", "")),
        w2=tuple(_require(doc, "w2", "")),
        censoring_rate=float(doc.get("censoring_rate", 0.5)),
        seed=int(doc.get("seed", 0)),
    ))
    cohort = generate_synthetic(cfg)
    write_cohort_csv(cohort, out_path)
    sidecar = out_path + ".config.json"
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump({"n": cfg.n, "p": cfg.p, "w1": list(cfg.w1), "w2": list(cfg.w2),
                   "censoring_rate": cfg.censoring_rate, "seed": cfg.seed},
                  fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"cohort written to {out_path} (config sidecar {sidecar})")
    return 0


def _load_model_checked(path):
    try:
        return load_model(path)
    except FileNotFoundError:
        raise ConfigError(f"model file not found: {path}") from None
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
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out)
        raise ConfigError(f"unknown command {args.command}")
    except KernelAJError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
