"""Versioned single-file model serialization.

The model file is human-inspectable JSON with numeric arrays packed as
base64-encoded little-endian bytes plus dtype/shape metadata. Serialization
is deterministic (sorted keys, fixed separators), so identical models produce
byte-identical files; loading restores bit-identical arrays.
"""

import base64
import json

import numpy as np

from .clustering import ClusterModel
from .core import EventTimeGrid
from .dataio import FeatureSchema
from .embedding import MlpParams
from .errors import SchemaMismatch
from .model import KernelAJModel
from .training import DiscreteTimeMap

FORMAT_VERSION = 1


def _pack(arr) -> dict:
    arr = np.ascontiguousarray(arr)
    if arr.dtype == np.int64:
        dtype = "<i8"
    else:
        arr = arr.astype(np.float64)
        dtype = "<f8"
    data = arr.astype(np.dtype(dtype)).tobytes()
    return {"dtype": dtype, "shape": list(arr.shape),
            "data": base64.b64encode(data).decode("ascii")}


def _unpack(payload) -> np.ndarray:
    raw = base64.b64decode(payload["data"])
    arr = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    return arr.reshape(payload["shape"]).copy()


def model_to_dict(model: KernelAJModel, schema=None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "schema": schema.to_dict() if schema is not None else None,
        "embedding": {
            "layer_sizes": list(model.params.layer_sizes),
            "activation": model.params.activation,
            "weights": [_pack(w) for w in model.params.weights],
            "biases": [_pack(b) for b in model.params.biases],
        },
        "time_map": {
            "grid": _pack(model.dtm.grid.times),
            "source_grid_size": model.dtm.source_grid_size,
        },
        "clusters": {
            "exemplar_ids": _pack(model.clusters.exemplar_ids),
            "exemplar_embeddings": _pack(model.clusters.exemplar_embeddings),
            "assignments": _pack(model.clusters.assignments),
            "d_cluster": _pack(model.clusters.d_cluster),
            "n_cluster": _pack(model.clusters.n_cluster),
            "epsilon": model.clusters.epsilon,
            "tau": model.clusters.tau,
        },
        "tables": {
            "d": _pack(model.d_tables),
            "n": _pack(model.n_tables),
        },
        "population": {
            "d": _pack(model.population_d),
            "n": _pack(model.population_n),
        },
        "flags": {
            "sft_applied": model.sft_applied,
            "sft_rejected": model.sft_rejected,
        },
        "cluster_feature_means": (
            _pack(model.cluster_feature_means)
            if model.cluster_feature_means is not None else None),
        "config": model.config,
    }
    return doc


def save_model(model: KernelAJModel, path, schema=None):
    doc = model_to_dict(model, schema)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path):
    """Returns (model, schema_or_None)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != FORMAT_VERSION:
        raise SchemaMismatch(
            f"unsupported model format version {doc.get('format_version')}")
    emb = doc["embedding"]
    params = MlpParams(
        layer_sizes=tuple(emb["layer_sizes"]),
        weights=tuple(_unpack(w) for w in emb["weights"]),
        biases=tuple(_unpack(b) for b in emb["biases"]),
        activation=emb["activation"],
    )
    dtm = DiscreteTimeMap(
        grid=EventTimeGrid(_unpack(doc["time_map"]["grid"])),
        source_grid_size=int(doc["time_map"]["source_grid_size"]),
    )
    cl = doc["clusters"]
    clusters = ClusterModel(
        exemplar_ids=_unpack(cl["exemplar_ids"]),
        exemplar_embeddings=_unpack(cl["exemplar_embeddings"]),
        assignments=_unpack(cl["assignments"]),
        d_cluster=_unpack(cl["d_cluster"]),
        n_cluster=_unpack(cl["n_cluster"]),
        epsilon=float(cl["epsilon"]),
        tau=float(cl["tau"]),
    )
    feature_means = doc.get("cluster_feature_means")
    model = KernelAJModel(
        params=params,
        clusters=clusters,
        dtm=dtm,
        population_d=_unpack(doc["population"]["d"]),
        population_n=_unpack(doc["population"]["n"]),
        d_tables=_unpack(doc["tables"]["d"]),
        n_tables=_unpack(doc["tables"]["n"]),
        config=doc.get("config", {}),
        sft_applied=bool(doc["flags"]["sft_applied"]),
        sft_rejected=bool(doc["flags"]["sft_rejected"]),
        cluster_feature_means=_unpack(feature_means) if feature_means else None,
    )
    schema = doc.get("schema")
    return model, None if schema is None else FeatureSchema.from_dict(schema)
