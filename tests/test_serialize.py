"""Round-trip properties of the model file: a model fitted on a random
schema and cohort, saved and loaded, predicts with the same bits, and saving
it again writes the same bytes."""

import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelaj import (
    EmbeddingConfig,
    RawTable,
    TrainConfig,
    fine_tune_summaries,
    fit_apply_preprocessor,
    load_model,
    predict_cif_grid,
    save_model,
)
from kernelaj.cli import fit_pipeline
from test_finetune import toy_model

# column names and categorical levels that CSV quoting, the model file's
# JSON and the one-hot "name=level" feature names must all survive
NAMES = ["z", "a", "x,1", 'q"r', "k=v"]
LEVELS = ["lo", "b,c", 'd"e', "f=g", "="]


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


@st.composite
def fits(draw):
    """A small fit through ``fit_pipeline`` on a random schema: shuffled
    column order, continuous and categorical columns, one or two event
    types, with or without summary fine-tuning."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = draw(st.permutations(NAMES))[:draw(st.integers(1, len(NAMES)))]
    kinds = {name: draw(st.sampled_from(["continuous", "categorical"])) for name in names}
    n, m = 40, draw(st.integers(1, 2))
    columns = {}
    for name, kind in kinds.items():
        if kind == "continuous":
            columns[name] = list(rng.normal(size=n))
        else:
            levels = draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=3,
                                   unique=True))
            columns[name] = [levels[k] for k in rng.integers(0, len(levels), n)]
    event = rng.integers(0, m + 1, n)
    event[:m] = np.arange(1, m + 1)
    table = RawTable(columns, rng.exponential(2.0, n), event)
    cohort, schema = fit_apply_preprocessor(table, schema_spec=kinds)
    tcfg = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=2, patience=2,
                       num_time_steps=draw(st.sampled_from([0, 4])))
    sft = {"enabled": True, "max_epochs": 3, "learning_rate": 0.05} \
        if draw(st.booleans()) else {}
    model, logs = fit_pipeline(
        cohort.subset(np.arange(30)), cohort.subset(np.arange(30, n)),
        EmbeddingConfig(input_dim=cohort.p, num_layers=1, hidden_units=4, embed_dim=2),
        tcfg, epsilon=draw(st.sampled_from([0.1, 1.0])), sft_config=sft,
        config_snapshot={"names": names})
    accepted = "sft" in logs and any(row[3] for row in logs["sft"].rows)
    return model, schema, table, accepted


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
