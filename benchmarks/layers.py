"""Which kernelaj functions the traced pass wraps, and the per-layer metrics
computed from their spans.

A layer is a ``kernelaj`` module; span names are ``<module>.<function>``.
The benchmark's own op spans are named ``op.<op>``.
"""

import os

import numpy as np

from kernelaj import (cli, clustering, core, dataio, embedding, finetune, metrics,
                      model, serialize, training)

LAYERS = ("training", "embedding", "metrics", "clustering", "finetune", "model",
          "core", "serialize", "dataio", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _epochs(args, kwargs, result):
    return {"epochs": len(result[1].rows)}


def _brier(args, kwargs, result):
    return {"excluded": result.n_excluded}


def _rows_of_first(args, kwargs, result):
    return {"rows": np.atleast_2d(_arg(args, kwargs, 0, "curve_values")).shape[0]}


def _clusters(args, kwargs, result):
    return {"clusters": result.num_clusters, "points": result.assignments.size}


def _sft(args, kwargs, result):
    return {"epochs": len(result[1].log.rows), "accepted": int(result[1].accepted)}


def _predict_grid(args, kwargs, result):
    return {"rows": result[2].size, "fallback": int(result[2].sum())}


def _explain_subject(args, kwargs, result):
    return {"rows": 1, "fallback": int(result.used_fallback)}


def _neighbors(args, kwargs, result):
    return {"neighbors": result.size}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _rows_loaded(args, kwargs, result):
    return {"rows": result.n}


# span name -> (owner, attribute, count)
TARGETS = {
    "training.train_embedding": (training, "train_embedding", _epochs),
    "training.total_loss_and_grad": (training, "total_loss_and_grad", None),
    "training.ranking_value_and_dpsi": (training, "ranking_value_and_dpsi", None),
    "training._evaluate_criterion": (training, "_evaluate_criterion", None),
    "training.kernel_hazard_curves": (training, "kernel_hazard_curves", None),
    "embedding.forward_cached": (embedding, "forward_cached", None),
    "embedding.backward": (embedding, "backward", None),
    "embedding.kernel_matrix": (embedding, "kernel_matrix", None),
    "embedding.pairwise_sq_dists": (embedding, "pairwise_sq_dists", None),
    "embedding.embed_batch": (embedding, "embed_batch", None),
    "embedding.embed": (embedding, "embed", None),
    "metrics.brier_score": (metrics, "brier_score", _brier),
    "metrics.integrated_brier": (metrics, "integrated_brier", None),
    "metrics.interpolate_curves": (metrics, "interpolate_curves", _rows_of_first),
    "metrics.concordance_td": (metrics, "concordance_td", None),
    "metrics.censoring_survival": (metrics, "censoring_survival", None),
    "metrics.evaluate_cif_predictions": (metrics, "evaluate_cif_predictions", None),
    "clustering.build_cluster_model": (clustering, "build_cluster_model", _clusters),
    "clustering.epsilon_net_cluster": (clustering, "epsilon_net_cluster", None),
    "clustering.summarize_clusters": (clustering, "summarize_clusters", None),
    "clustering.neighbors_within_tau": (clustering, "neighbors_within_tau", _neighbors),
    "finetune.fine_tune_summaries": (finetune, "fine_tune_summaries", _sft),
    "finetune.sft_loss_and_grad": (finetune, "sft_loss_and_grad", None),
    "finetune.sft_objective_from_tables": (finetune, "sft_objective_from_tables", None),
    "finetune.frozen_subject_weights": (finetune, "frozen_subject_weights", None),
    "model.predict_cif_grid": (model, "predict_cif_grid", _predict_grid),
    "model.explain_subject": (model, "explain_subject", _explain_subject),
    "model.predict_curves": (model, "predict_curves", None),
    "model.weighted_summaries": (model, "weighted_summaries", None),
    "model.cluster_weight_decomposition": (model, "cluster_weight_decomposition", None),
    "model.cluster_curves": (model, "cluster_curves", None),
    "model.exemplar_kernel_matrix": (model, "exemplar_kernel_matrix", None),
    "core.curves_from_counts": (core, "curves_from_counts", None),
    "core.risk_event_counts": (core, "risk_event_counts", None),
    "serialize.save_model": (serialize, "save_model", _saved_bytes),
    "serialize.load_model": (serialize, "load_model", None),
    "dataio.load_cohort": (dataio, "load_cohort", _rows_loaded),
    "dataio.fit_apply_preprocessor": (dataio, "fit_apply_preprocessor", None),
    "dataio.FeatureSchema.transform": (dataio.FeatureSchema, "transform", None),
    "cli.main": (cli, "main", None),
    "cli.cmd_fit": (cli, "cmd_fit", None),
    "cli.fit_pipeline": (cli, "fit_pipeline", None),
    "cli.cmd_evaluate": (cli, "cmd_evaluate", None),
    "cli.cmd_explain": (cli, "cmd_explain", None),
}


def _ratio(num, den):
    return num / den if den else 0.0


def _step_ms_p50(ix):
    steps = ix.named("training.total_loss_and_grad")
    return float(np.median([s.duration for s in steps])) * 1e3 if steps else 0.0


def _fallback_fraction(ix):
    names = ("model.predict_cif_grid", "model.explain_subject")
    return _ratio(sum(ix.count(n, "fallback") for n in names),
                  sum(ix.count(n, "rows") for n in names))


def _last_fit(ix, key):
    fits = ix.named("clustering.build_cluster_model")
    return (fits[-1].counts or {}).get(key, 0) if fits else 0


# (name, unit, value from a SpanIndex of one traced session)
PER_LAYER = [
    ("training.step_s", "s", lambda ix: ix.inclusive("training.total_loss_and_grad")),
    ("training.steps", "count", lambda ix: ix.calls("training.total_loss_and_grad")),
    ("training.step_ms_p50", "ms", _step_ms_p50),
    ("training.ranking_s", "s", lambda ix: ix.inclusive("training.ranking_value_and_dpsi")),
    ("training.criterion_s", "s", lambda ix: ix.inclusive("training._evaluate_criterion")),
    ("training.criterion_calls", "count", lambda ix: ix.calls("training._evaluate_criterion")),
    ("training.epochs", "count", lambda ix: ix.count("training.train_embedding", "epochs")),
    ("embedding.forward_s", "s", lambda ix: ix.inclusive("embedding.forward_cached")),
    ("embedding.backward_s", "s", lambda ix: ix.inclusive("embedding.backward")),
    ("embedding.kernel_matrix_s", "s", lambda ix: ix.inclusive("embedding.kernel_matrix")),
    ("embedding.calls", "count", lambda ix: ix.calls("embedding.forward_cached")),
    ("metrics.brier_s", "s", lambda ix: ix.inclusive("metrics.brier_score")),
    ("metrics.brier_calls", "count", lambda ix: ix.calls("metrics.brier_score")),
    ("metrics.brier_excluded", "count", lambda ix: ix.count("metrics.brier_score", "excluded")),
    ("metrics.interpolate_s", "s", lambda ix: ix.inclusive("metrics.interpolate_curves")),
    ("metrics.interpolate_rows", "count",
     lambda ix: ix.count("metrics.interpolate_curves", "rows")),
    ("metrics.concordance_s", "s", lambda ix: ix.inclusive("metrics.concordance_td")),
    ("clustering.epsnet_s", "s", lambda ix: ix.inclusive("clustering.epsilon_net_cluster")),
    ("clustering.summarize_s", "s", lambda ix: ix.inclusive("clustering.summarize_clusters")),
    ("clustering.clusters", "count", lambda ix: _last_fit(ix, "clusters")),
    ("clustering.points_per_cluster", "count",
     lambda ix: _ratio(_last_fit(ix, "points"), _last_fit(ix, "clusters"))),
    ("finetune.sft_s", "s", lambda ix: ix.inclusive("finetune.fine_tune_summaries")),
    ("finetune.loss_grad_s", "s", lambda ix: ix.inclusive("finetune.sft_loss_and_grad")),
    ("finetune.epochs", "count", lambda ix: ix.count("finetune.fine_tune_summaries", "epochs")),
    ("finetune.accepted", "count",
     lambda ix: ix.count("finetune.fine_tune_summaries", "accepted")),
    ("model.predict_grid_s", "s", lambda ix: ix.inclusive("model.predict_cif_grid")),
    ("model.predict_rows", "count", lambda ix: ix.count("model.predict_cif_grid", "rows")),
    ("model.explain_subject_s", "s", lambda ix: ix.inclusive("model.explain_subject")),
    ("model.predict_curves_s", "s", lambda ix: ix.inclusive("model.predict_curves")),
    ("model.neighbors_mean", "count",
     lambda ix: _ratio(ix.count("clustering.neighbors_within_tau", "neighbors"),
                       ix.calls("clustering.neighbors_within_tau"))),
    ("model.fallback_fraction", "fraction", _fallback_fraction),
    ("core.curves_from_counts_s", "s", lambda ix: ix.inclusive("core.curves_from_counts")),
    ("core.curves_from_counts_calls", "count", lambda ix: ix.calls("core.curves_from_counts")),
    ("serialize.save_s", "s", lambda ix: ix.inclusive("serialize.save_model")),
    ("serialize.load_s", "s", lambda ix: ix.inclusive("serialize.load_model")),
    ("serialize.model_bytes", "bytes", lambda ix: ix.count("serialize.save_model", "bytes")),
    ("dataio.load_s", "s", lambda ix: ix.inclusive("dataio.load_cohort")),
    ("dataio.rows_loaded", "count", lambda ix: ix.count("dataio.load_cohort", "rows")),
    ("dataio.preprocess_s", "s",
     lambda ix: ix.inclusive("dataio.fit_apply_preprocessor", "dataio.FeatureSchema.transform")),
    ("cli.fit.self_s", "s", lambda ix: ix.layer_self("cli", root="op.fit")),
    ("cli.evaluate.self_s", "s", lambda ix: ix.layer_self("cli", root="op.evaluate")),
    ("cli.explain_clusters.self_s", "s",
     lambda ix: ix.layer_self("cli", root="op.explain_clusters")),
    ("cli.explain_data.self_s", "s", lambda ix: ix.layer_self("cli", root="op.explain_data")),
] + [(f"{layer}.self_s", "s", lambda ix, layer=layer: ix.layer_self(layer))
     for layer in LAYERS if layer != "cli"]


def per_layer_metrics(ix) -> dict:
    return {name: (float(fn(ix)), unit) for name, unit, fn in PER_LAYER}
