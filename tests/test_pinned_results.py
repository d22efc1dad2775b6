"""The results of the benchmark's gated workloads, acceptance and
ranking-sft, at seed 1, pinned as values.

Each workload is fitted through ``fit_pipeline`` with its config
(``benchmarks/session.py``'s ``_BASE`` and ``WORKLOADS``) on the cohort of
``conftest.bench_cohorts``, and its test rows are scored as ``kernelaj
evaluate`` scores them. A change that moves any of these values fails here,
however little it moves ctd or IBS. A change meant to move them updates the
constants below, and CHANGES.md states the old value, the new one and why.

The model file's bytes depend on the BLAS kernel, so the pins are values:
floats within 1e-9, which covers the kernels (across OpenBLAS's SkylakeX,
Haswell, Sandybridge and Prescott kernels the metrics differed by at most
2.8e-17).
"""

from dataclasses import replace

import pytest
from numpy.testing import assert_allclose

from conftest import BENCH_CLUSTERING, BENCH_ECFG, BENCH_TCFG
from kernelaj import metrics
from kernelaj.cli import fit_pipeline
from kernelaj.model import predict_cif_grid

TOL = 1e-9

# ranking-sft's overrides of the acceptance config
RANKING_TRAINING = {"alpha": 0.5, "early_stop_criterion": "objective", "max_epochs": 8,
                    "patience": 8}
RANKING_SFT = {"enabled": True, "early_stop_criterion": "objective", "learning_rate": 0.01,
               "max_epochs": 30, "patience": 30}

# clusters: (Q, first exemplar id, last exemplar id); ctd and ibs: test
# scores per event; train: (best epoch, best validation criterion); sft:
# (accepted, the log's best value, the last epoch's value); a rejected SFT
# ships the raw tables, so only its log shows what it computed
PINS = {
    "acceptance": {
        "clusters": (57, 0, 4519),
        "ctd": (0.6961839384863016, 0.6469712430250775),
        "ibs": (0.1440368712763552, 0.15041806369404864),
        "train": (16, 0.1495960422283926),
        "sft": None,
    },
    "ranking-sft": {
        "clusters": (38, 0, 4350),
        "ctd": (0.666259641249383, 0.596753697515012),
        "ibs": (0.14566479107185043, 0.15076647176342386),
        "train": (8, 1.50880529058372),
        "sft": (False, 2.7657604809448646, 2.765760522920501),
    },
}


@pytest.fixture(scope="module", params=list(PINS))
def workload(request, bench_cohorts):
    """(pins, model, logs, test cohort) of one workload's fit."""
    train, valid, test = bench_cohorts[2]
    if request.param == "acceptance":
        model, logs = request.getfixturevalue("acceptance_fit")
    else:
        model, logs = fit_pipeline(train, valid, BENCH_ECFG,
                                   replace(BENCH_TCFG, **RANKING_TRAINING),
                                   sft_config=RANKING_SFT, **BENCH_CLUSTERING)
    return PINS[request.param], model, logs, test


def test_clusters(workload):
    pins, model, _, _ = workload
    ids = model.clusters.exemplar_ids
    assert (ids.size, ids[0], ids[-1]) == pins["clusters"]


def test_test_scores(workload):
    pins, model, _, test = workload
    cif, _, _ = predict_cif_grid(model, test.features)
    scorer = metrics.scorer(test, metrics.build_eval_grid(test.time[test.event != 0]))
    scores = metrics.score_curves(cif, model.grid.times, scorer)
    for name in ("ctd", "ibs"):
        assert_allclose(scores[name], pins[name], rtol=0, atol=TOL, err_msg=name)


def test_best_epoch(workload):
    pins, _, logs, _ = workload
    epoch, value = pins["train"]
    assert logs["train"].best_epoch == epoch
    assert abs(logs["train"].best_value - value) <= TOL


def test_fine_tuning(workload):
    pins, model, logs, _ = workload
    if pins["sft"] is None:
        assert "sft" not in logs and model.sft_tables is None
        return
    accepted, best, last = pins["sft"]
    assert (model.sft_tables is not None) == accepted
    assert abs(logs["sft"].best_value - best) <= TOL
    assert abs(logs["sft"].rows[-1][2] - last) <= TOL
