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
from .errors import SchemaMismatch, ShapeMismatch
from .model import KernelAJModel

FORMAT_VERSION = 5
_DTYPES = ("<i8", "<f8")


def _pack(arr) -> dict:
    arr = np.asarray(arr)
    dtype = "<i8" if arr.dtype == np.int64 else "<f8"
    data = arr.astype(dtype).tobytes()
    return {"dtype": dtype, "shape": list(arr.shape),
            "data": base64.b64encode(data).decode("ascii")}


def _unpack(payload) -> np.ndarray:
    if payload["dtype"] not in _DTYPES:
        raise TypeError(f"unsupported array dtype {payload['dtype']!r}")
    raw = base64.b64decode(payload["data"])
    arr = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    return arr.reshape(payload["shape"]).copy()


def model_to_dict(model: KernelAJModel, schema) -> dict:
    """The format-5 document: each array of the model once (the training rows'
    (bin, event) codes and m, not the cluster tables counted from them), the
    fine-tuned tables only if accepted (else null), and no fit config, path
    or epsilon (prediction reads tau alone)."""
    return {
        "format_version": FORMAT_VERSION,
        "schema": schema.to_dict() if schema is not None else None,
        "embedding": {
            "layer_sizes": list(model.params.layer_sizes),
            "activation": model.params.activation,
            "weights": [_pack(w) for w in model.params.weights],
            "biases": [_pack(b) for b in model.params.biases],
        },
        "grid": _pack(model.grid.times),
        "clusters": {
            "exemplar_ids": _pack(model.clusters.exemplar_ids),
            "exemplar_embeddings": _pack(model.clusters.exemplar_embeddings),
            "assignments": _pack(model.clusters.assignments),
            "codes": _pack(model.clusters.codes),
            "m": model.clusters.table_shape[1],
            "tau": model.clusters.tau,
        },
        "cluster_feature_means": _pack(model.cluster_feature_means),
        "sft_tables": None if model.sft_tables is None else {
            "d": _pack(model.sft_tables[0]), "n": _pack(model.sft_tables[1])},
    }


def save_model(model: KernelAJModel, path, schema):
    doc = model_to_dict(model, schema)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _model_from_dict(doc):
    """(model, schema_or_None) of a format-5 document."""
    emb, cl, sft = doc["embedding"], doc["clusters"], doc["sft_tables"]
    grid = EventTimeGrid(_unpack(doc["grid"]))
    model = KernelAJModel(
        params=MlpParams(
            layer_sizes=tuple(emb["layer_sizes"]),
            weights=tuple(_unpack(w) for w in emb["weights"]),
            biases=tuple(_unpack(b) for b in emb["biases"]),
            activation=emb["activation"],
        ),
        clusters=ClusterModel(
            exemplar_ids=_unpack(cl["exemplar_ids"]),
            exemplar_embeddings=_unpack(cl["exemplar_embeddings"]),
            assignments=_unpack(cl["assignments"]),
            codes=_unpack(cl["codes"]),
            table_shape=(len(grid), cl["m"]),
            tau=float(cl["tau"]),
        ),
        grid=grid,
        cluster_feature_means=_unpack(doc["cluster_feature_means"]),
        sft_tables=None if sft is None else (_unpack(sft["d"]), _unpack(sft["n"])),
    )
    schema = None if doc["schema"] is None else FeatureSchema.from_dict(doc["schema"])
    if schema is not None and len(schema.feature_names) != model.params.input_dim:
        raise ValueError(f"schema has {len(schema.feature_names)} features, the network "
                         f"takes {model.params.input_dim}")
    return model, schema


def load_model(path):
    """Returns (model, schema_or_None). A file of another format version
    raises SchemaMismatch; a missing key, a wrongly typed section, arrays
    of inconsistent shapes or a schema whose feature count is not the
    network's input width raise ValueError."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("model file must hold a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise SchemaMismatch(
            f"unsupported model format version {doc.get('format_version')}")
    try:
        return _model_from_dict(doc)
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from None
    except (TypeError, AttributeError, ShapeMismatch) as exc:
        raise ValueError(str(exc)) from None
