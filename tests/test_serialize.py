"""Round-trip properties of the model file: a model fitted on a random
schema and cohort, saved and loaded, predicts with the same bits, and saving
it again writes the same bytes."""

import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings

from conftest import fits
from kernelaj import (
    TrainConfig,
    fine_tune_summaries,
    load_model,
    predict_cif_grid,
    save_model,
)
from test_finetune import toy_model


def round_trip(model, schema, X):
    """Save, load and save again; returns (model.json document, the loaded
    model's predictions on X transformed by the loaded schema, whether the
    second save wrote the same bytes)."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        save_model(model, first, schema)
        loaded, loaded_schema = load_model(first)
        save_model(loaded, second, loaded_schema)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            a, b = fa.read(), fb.read()
    return json.loads(a), predict_cif_grid(loaded, X(loaded_schema)), a == b


class TestRoundTrip:
    @settings(max_examples=25)
    @given(fit=fits())
    def test_fitted_model_round_trips(self, fit):
        model, schema, table, accepted = fit
        doc, got, same_bytes = round_trip(model, schema, lambda s: s.transform(table))
        want = predict_cif_grid(model, schema.transform(table))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert same_bytes
        assert (doc["sft_tables"] is not None) == accepted

    def test_fine_tuned_tables_round_trip(self):
        model, train, valid = toy_model(seed=5, epsilon=2.5)
        tuned, result = fine_tune_summaries(model, train, valid, TrainConfig(
            learning_rate=0.05, batch_size=16, max_epochs=60, patience=10, seed=0))
        assert result.accepted
        X = np.vstack((valid.features, [[40.0, -40.0]]))
        doc, got, same_bytes = round_trip(tuned, None, lambda s: X)
        want = predict_cif_grid(tuned, X)
        assert want[2][-1] and not want[2][:-1].any()
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert same_bytes
        assert doc["sft_tables"]["d"]["shape"] == list(model.clusters.d_cluster.shape)
