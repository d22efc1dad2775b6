"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The scaled synthetic
benchmark (criterion 6) trains a full model and dominates the runtime; the
external-data benchmark (criterion 7) is skipped unless the environment
variable DKAJ_EXTERNAL_SYNTH points to a local copy of the published
competing-risks synthetic dataset.
"""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from conftest import finite_difference_grad, random_batch, relative_error
from dense_oracle import oracle_cif, sft_negative_log_likelihood
from kernelaj import (
    Cohort,
    EmbeddingConfig,
    SynthConfig,
    TrainConfig,
    aalen_johansen,
    breslow_preprocess,
    build_event_grid,
    censoring_survival,
    brier_score,
    concordance_td,
    fine_tune_summaries,
    generate_synthetic,
    init_mlp,
    init_sft_params,
    kaplan_meier,
    population_aalen_johansen,
    predict_cif_grid,
    risk_event_counts,
    sft_counts,
    split,
    total_loss_and_grad,
)
from kernelaj import metrics as metricsmod
from kernelaj.cli import fit_pipeline, main
from kernelaj.dataio import write_cohort_csv
from kernelaj.embedding import flatten_grads
from kernelaj.finetune import (
    SftParams,
    frozen_subject_weights,
    sft_loss_and_grad,
    sft_objective_from_tables,
)
from kernelaj.metrics import evaluate_cif_predictions
from test_metrics import brute_force_ctd
from test_model import build_model, constant_params, random_cohort, random_params


def report(criterion, message):
    print(f"PASS criterion {criterion}: {message}")


class TestCriterion1ClassicalOracle:
    def test_d0_exact(self):
        cohort = Cohort(np.zeros((3, 1)), [1.0, 2.0, 3.0], [1, 0, 2], m=2)
        grid = build_event_grid(cohort)
        pre, _ = breslow_preprocess(cohort, grid)
        d, n = risk_event_counts(pre, grid)
        km = kaplan_meier(d, n, grid)
        assert abs(km(0.0) - 1.0) <= 1e-12
        assert abs(km(1.0) - 2.0 / 3.0) <= 1e-12
        assert abs(km(3.0) - 0.0) <= 1e-12
        cifs = aalen_johansen(d, n, grid)
        assert abs(cifs.cif(1)(1.0) - 1.0 / 3.0) <= 1e-12
        assert abs(cifs.cif(1)(0.99)) <= 1e-12
        assert abs(cifs.cif(2)(3.0) - 2.0 / 3.0) <= 1e-12
        assert abs(cifs.cif(2)(2.99)) <= 1e-12
        report(1, "KM [1, 2/3, 0] and AJ jumps 1/3 and 2/3 exact to 1e-12")


class TestCriterion2Conservation:
    def test_population_and_kernel_predictions(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(200):
            m = int(rng.integers(1, 4))
            cohort = random_cohort(rng, n=int(rng.integers(5, 51)), m=m)
            grid = build_event_grid(cohort)
            pre, _ = breslow_preprocess(cohort, grid)
            d, n = risk_event_counts(pre, grid)
            cifs = aalen_johansen(d, n, grid)
            total = cifs.survival.values + sum(c.values for c in cifs.cifs)
            worst = max(worst, float(np.abs(total - 1.0).max()))

            params = random_params(rng, cohort.p, seed=trial)
            model = build_model(cohort, params,
                                epsilon=float(rng.uniform(0.0, 1.5)),
                                tau=float(rng.uniform(0.5, 3.0)))
            X = rng.normal(size=(3, cohort.p))
            cif, surv, _ = predict_cif_grid(model, X)
            total = surv + cif.sum(axis=0)
            worst = max(worst, float(np.abs(total - 1.0).max()))
        assert worst <= 1e-9
        report(2, f"survival + sum(CIF) = 1 on 200 cohorts, worst |err| = {worst:.2e}")


class TestCriterion3SpecialCases:
    def test_epsilon_infinite(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for trial in range(50):
            cohort = random_cohort(rng, n=int(rng.integers(8, 30)))
            params = random_params(rng, cohort.p, seed=trial)
            model = build_model(cohort, params, epsilon=np.inf, tau=np.inf)
            pop = population_aalen_johansen(cohort)
            x = rng.normal(size=cohort.p)
            cif, surv, _ = predict_cif_grid(model, x[None, :])
            worst = max(worst, float(np.abs(surv[0] - pop.survival.values).max()))
            for d in range(1, cohort.m + 1):
                worst = max(worst, float(
                    np.abs(cif[d - 1, 0] - pop.cif(d).values).max()))
        assert worst <= 1e-9
        report(3, f"(a) single-cluster prediction = population AJ, worst {worst:.2e}")

    def test_constant_embedding(self):
        rng = np.random.default_rng(32)
        worst = 0.0
        for trial in range(50):
            cohort = random_cohort(rng, n=int(rng.integers(8, 30)))
            model = build_model(cohort, constant_params(cohort.p),
                                epsilon=0.0, tau=np.inf)
            pop = population_aalen_johansen(cohort)
            x = rng.normal(size=cohort.p)
            cif, surv, _ = predict_cif_grid(model, x[None, :])
            worst = max(worst, float(np.abs(surv[0] - pop.survival.values).max()))
        assert worst <= 1e-9
        report(3, f"(b) constant embedding, eps=0, tau=inf = population AJ, "
                  f"worst {worst:.2e}")

    def test_single_exemplar_in_range(self):
        from kernelaj import neighbors_within_tau
        from kernelaj.embedding import embed_batch
        from kernelaj.model import cluster_curves

        rng = np.random.default_rng(33)
        worst = 0.0
        checked = 0
        while checked < 50:
            cohort = random_cohort(rng, n=int(rng.integers(10, 40)))
            params = random_params(rng, cohort.p, seed=checked)
            model = build_model(cohort, params, epsilon=0.3,
                                tau=float(rng.uniform(0.05, 0.3)))
            E = embed_batch(params, cohort.features)
            for i in range(cohort.n):
                hits = neighbors_within_tau(E[i], model.clusters)
                if hits.size != 1:
                    continue
                restricted = cluster_curves(model, int(hits[0]))
                cif, surv, _ = predict_cif_grid(model, cohort.features[i][None, :])
                worst = max(worst, float(
                    np.abs(surv[0] - restricted.survival.values).max()))
                for d in range(1, cohort.m + 1):
                    worst = max(worst, float(
                        np.abs(cif[d - 1, 0] - restricted.cif(d).values).max()))
                checked += 1
                if checked >= 50:
                    break
        assert worst <= 1e-9
        report(3, f"(c) singleton neighborhood = cluster-restricted AJ on "
                  f"{checked} queries, worst {worst:.2e}")


class TestCriterion4Gradients:
    def test_total_loss_gradients(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for trial in range(12):
            alpha = (0.0, 0.5, 1.0)[trial % 3]
            n = int(rng.integers(6, 16))
            m = int(rng.integers(1, 3))
            L = int(rng.integers(2, 6))
            p = int(rng.integers(2, 4))
            X, kappa, delta = random_batch(rng, n=n, p=p, m=m, L=L)
            cfg = EmbeddingConfig(
                input_dim=p, num_layers=int(rng.integers(1, 3)),
                hidden_units=int(rng.integers(3, 9)), embed_dim=2,
                activation="tanh")
            params = init_mlp(cfg, seed=trial)
            sigma = float(rng.uniform(0.3, 1.5))
            _, dw, db = total_loss_and_grad(params, X, kappa, delta, m, L,
                                            alpha, sigma)
            fd = finite_difference_grad(params, X, kappa, delta, m, L, alpha,
                                        sigma)
            rel = relative_error(flatten_grads(dw, db), fd)
            worst = max(worst, rel)
        assert worst <= 1e-4
        report(4, f"total-loss gradients on 12 configs, worst rel err {worst:.2e}")

    def test_sft_gradients(self):
        rng = np.random.default_rng(44)
        worst = 0.0
        for trial in range(8):
            n = int(rng.integers(6, 20))
            Q = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            L = int(rng.integers(2, 5))
            alpha = 1.0 if trial % 2 == 0 else 0.5
            params = SftParams(rng.normal(0.0, 0.5, (Q, L, m)),
                               rng.normal(-1.5, 0.3, (L, m)),
                               rng.normal(0.0, 0.5, (Q, L)),
                               rng.normal(-1.5, 0.3, L))
            W = rng.uniform(0.05, 1.0, size=(n, Q))
            _, kappa, delta = random_batch(rng, n=n, m=m, L=L)
            _, grads = sft_loss_and_grad(params, W, kappa, delta, alpha, 0.8)

            arrays = [params.gamma, params.gamma_baseline, params.omega,
                      params.omega_baseline]
            step = 1e-5
            flat_fd = []
            for a_idx, arr in enumerate(arrays):
                fd = np.zeros_like(arr)
                for idx in np.ndindex(arr.shape):
                    for sign in (+1, -1):
                        shifted = [p.copy() for p in arrays]
                        shifted[a_idx][idx] += sign * step
                        value = sft_negative_log_likelihood(
                            SftParams(*shifted), W, kappa, delta, alpha, 0.8)
                        fd[idx] += sign * value / (2 * step)
                flat_fd.append(fd.ravel())
            analytic = np.concatenate([g.ravel() for g in grads])
            rel = relative_error(analytic, np.concatenate(flat_fd))
            worst = max(worst, rel)
        assert worst <= 1e-4
        report(4, f"fine-tuning gradients on 8 configs, worst rel err {worst:.2e}")


class TestCriterion5MetricOracles:
    def test_concordance_matches_enumeration(self):
        rng = np.random.default_rng(5)
        checked = 0
        for trial in range(50):
            n = int(rng.integers(5, 201))
            m = int(rng.integers(1, 3))
            times = rng.uniform(0.1, 10.0, n)
            events = rng.integers(0, m + 1, n)
            events[0] = 1
            cohort = Cohort(np.zeros((n, 1)), times, events, m)
            R = np.round(rng.uniform(size=(n, n)), 2)
            for delta in range(1, m + 1):
                expected = brute_force_ctd(R, cohort, delta)
                if expected is None:
                    continue
                assert concordance_td(R, cohort, delta) == expected
                checked += 1
        assert checked >= 50
        report(5, f"concordance equals brute-force enumeration on {checked} "
                  f"cohort/event pairs (exact)")

    def test_uncensored_brier_equals_unweighted(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(3, 120))
            cohort = Cohort(np.zeros((n, 1)), rng.uniform(0.5, 5.0, n),
                            rng.integers(1, 3, n), m=2)
            censor = censoring_survival(cohort)
            F = rng.uniform(0, 1, n)
            t = float(rng.uniform(0.5, 5.0))
            delta = int(rng.integers(1, 3))
            res = brier_score(F, cohort, delta, t, censor)
            outcome = ((cohort.event == delta) & (cohort.time <= t)).astype(float)
            direct = float(np.sum((outcome - F) ** 2) / n)
            worst = max(worst, abs(res.value - direct))
        assert worst <= 1e-12
        report(5, f"uncensored Brier equals unweighted formula, worst "
                  f"|diff| = {worst:.2e}")


BENCH_CFG = SynthConfig(
    n=8000, p=8,
    w1=(0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0),
    w2=(0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 0.5),
    censoring_rate=0.5, seed=20250101)


class TestCriterion6SyntheticRecovery:
    def test_trained_model_beats_baselines(self):
        cohort = generate_synthetic(BENCH_CFG)
        train, valid, test = split(cohort, seed=1, train_frac=0.75,
                                   proper_frac=0.8)
        assert train.n + valid.n == 6000 and test.n == 2000

        ecfg = EmbeddingConfig(input_dim=8, num_layers=2, hidden_units=32,
                               embed_dim=8, activation="relu", init_seed=0)
        tcfg = TrainConfig(learning_rate=0.1, batch_size=1024, max_epochs=100,
                           patience=10, alpha=1.0, sigma=1.0,
                           num_time_steps=64, early_stop_criterion="ibs",
                           seed=0)
        model, _ = fit_pipeline(train, valid, ecfg, tcfg, epsilon=0.3,
                                min_kernel_weight=0.01)

        eval_grid = metricsmod.build_eval_grid(test.time[test.event != 0])
        cif, _, _ = predict_cif_grid(model, test.features)
        scores = evaluate_cif_predictions(cif, model.grid.times, test, eval_grid)
        pop = model.population_curves()
        pop_cif = np.stack([np.tile(c.values, (test.n, 1)) for c in pop.cifs])
        pop_scores = evaluate_cif_predictions(pop_cif, model.grid.times, test,
                                              eval_grid)
        for d in (1, 2):
            assert scores["ctd"][d - 1] >= 0.60, f"event {d} ctd too low"
            assert scores["ibs"][d - 1] < pop_scores["ibs"][d - 1], \
                f"event {d} ibs does not beat the population estimate"
        report(6, "synthetic recovery: "
                  f"ctd = {scores['ctd'][0]:.4f}/{scores['ctd'][1]:.4f} "
                  f"(>= 0.60), ibs = {scores['ibs'][0]:.4f}/{scores['ibs'][1]:.4f} "
                  f"< population {pop_scores['ibs'][0]:.4f}/{pop_scores['ibs'][1]:.4f}")

    def test_closer_to_the_truth_than_the_population(self, bench_cohorts, acceptance_fit):
        # the benchmark's acceptance workload (conftest.bench_cohorts and
        # acceptance_fit). Error: the mean absolute difference from the
        # generator's closed-form CIFs over the test rows and both events, at
        # the model's grid times up to their 90th percentile
        cfg, parts, (_, _, test) = bench_cohorts
        model, _ = acceptance_fit
        times = model.grid.times
        upto = times <= np.percentile(times, 90)
        truth = np.stack([oracle_cif(cfg, parts[2].features, d, times[upto])
                          for d in (1, 2)])
        cif, _, _ = predict_cif_grid(model, test.features)
        pop = np.stack([c.values for c in model.population_curves().cifs])
        model_error = np.abs(cif[:, :, upto] - truth).mean()
        pop_error = np.abs(pop[:, None, upto] - truth).mean()
        assert model_error < pop_error
        report(6, f"CIF error against the truth {model_error:.4f} < population "
                  f"{pop_error:.4f} (ratio {model_error / pop_error:.3f})")


@pytest.mark.skipif("DKAJ_EXTERNAL_SYNTH" not in os.environ,
                    reason="set DKAJ_EXTERNAL_SYNTH to a local CSV of the "
                           "published synthetic competing-risks dataset")
class TestCriterion7ExternalBenchmark:
    def test_published_synthetic_subsample(self):
        import csv as csvmod

        path = os.environ["DKAJ_EXTERNAL_SYNTH"]
        time_col = os.environ.get("DKAJ_EXTERNAL_TIME", "time")
        event_col = os.environ.get("DKAJ_EXTERNAL_EVENT", "label")
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csvmod.DictReader(fh)
            rows = list(reader)
        feature_cols = [c for c in rows[0] if c not in (time_col, event_col)]
        X = np.array([[float(r[c]) for c in feature_cols] for r in rows])
        times = np.array([float(r[time_col]) for r in rows])
        events = np.array([int(float(r[event_col])) for r in rows])
        cohort = Cohort(X, times, events, m=int(events.max()))

        rng = np.random.default_rng(0)
        perm = rng.permutation(cohort.n)
        test = cohort.subset(perm[:3000])
        pool = perm[3000:3000 + 6250]
        train = cohort.subset(pool[:5000])
        valid = cohort.subset(pool[5000:])

        mu = train.features.mean(axis=0)
        sd = np.where(train.features.std(axis=0) > 0,
                      train.features.std(axis=0), 1.0)
        standardize = lambda c: Cohort((c.features - mu) / sd, c.time, c.event,
                                       c.m)
        train, valid, test = map(standardize, (train, valid, test))

        ecfg = EmbeddingConfig(input_dim=train.p, num_layers=2,
                               hidden_units=64, embed_dim=8,
                               activation="relu", init_seed=0)
        tcfg = TrainConfig(learning_rate=0.05, batch_size=1024,
                           max_epochs=300, patience=10, alpha=1.0,
                           num_time_steps=64, early_stop_criterion="ctd",
                           seed=0)
        model, _ = fit_pipeline(train, valid, ecfg, tcfg, epsilon=0.3,
                                min_kernel_weight=0.01)
        eval_grid = metricsmod.build_eval_grid(test.time[test.event != 0])
        cif, _, _ = predict_cif_grid(model, test.features)
        scores = evaluate_cif_predictions(cif, model.grid.times, test,
                                          eval_grid)
        for d in range(1, cohort.m + 1):
            assert scores["ctd"][d - 1] >= 0.68
        report(7, f"external synthetic subsample ctd = {scores['ctd']}")


class TestCriterion8FineTuning:
    def test_init_consistency_and_backtracking(self):
        from test_finetune import toy_model

        rng = np.random.default_rng(8)
        model, train, valid = toy_model(seed=8, epsilon=1.0)
        params = init_sft_params(model.clusters)
        d_prime, n_prime = sft_counts(params)
        candidate = replace(model, sft_tables=(d_prime, n_prime))
        X = rng.normal(0, 1.5, size=(50, 2))
        cif_a, surv_a, _ = predict_cif_grid(model, X)
        cif_b, surv_b, _ = predict_cif_grid(candidate, X)
        scale = max(1.0, float(np.abs(cif_a).max()))
        worst = max(float(np.abs(cif_a - cif_b).max()),
                    float(np.abs(surv_a - surv_b).max())) / scale
        assert worst <= 1e-6

        # backtracking: the validation objective of the returned model is
        # never worse than the pre-tuning model's
        worsenings = 0
        for seed in range(5):
            model, train, valid = toy_model(seed=seed, epsilon=1.2)
            cfg = TrainConfig(learning_rate=(0.0, 0.05, 0.2, 0.5, 0.05)[seed],
                              batch_size=16, max_epochs=10, patience=3,
                              seed=seed)
            tuned, result = fine_tune_summaries(model, train, valid, cfg)
            W_valid = frozen_subject_weights(model.params, model.clusters,
                                             valid.features)
            _, kappa_va = breslow_preprocess(valid, model.grid)
            before = sft_objective_from_tables(*model.tables, W_valid, kappa_va,
                                               valid.event)
            after = sft_objective_from_tables(*tuned.tables, W_valid, kappa_va,
                                              valid.event)
            if after > before + 1e-12:
                worsenings += 1
        assert worsenings == 0
        report(8, f"init-consistent predictions (worst rel diff {worst:.2e}); "
                  f"backtracking never worsened validation across 5 runs")


class TestCriterion9Determinism:
    def test_fit_twice_byte_identical(self, tmp_path):
        cohort = generate_synthetic(SynthConfig(
            n=150, p=3, w1=(0.5, 0.0, 0.0), w2=(0.0, 0.5, 0.0),
            censoring_rate=0.3, seed=3))
        train_csv = tmp_path / "train.csv"
        write_cohort_csv(cohort, train_csv)
        config = {
            "seed": 11,
            "output_dir": str(tmp_path / "out"),
            "data": {"train": str(train_csv), "time_column": "time",
                     "event_column": "event",
                     "schema": {f"x{j}": "continuous" for j in (1, 2, 3)},
                     "valid_fraction": 0.25},
            "embedding": {"num_layers": 1, "hidden_units": 8, "embed_dim": 2,
                          "init_seed": 1},
            "training": {"learning_rate": 0.05, "batch_size": 32,
                         "max_epochs": 5, "patience": 5,
                         "num_time_steps": 8, "seed": 11},
            "clustering": {"epsilon": 0.4},
            "sft": {"enabled": True, "learning_rate": 0.01, "max_epochs": 3,
                    "patience": 2},
        }
        config_path = tmp_path / "fit.json"
        config_path.write_text(json.dumps(config))
        assert main(["fit", "--config", str(config_path)]) == 0
        first = (tmp_path / "out" / "model.json").read_bytes()
        assert main(["fit", "--config", str(config_path)]) == 0
        second = (tmp_path / "out" / "model.json").read_bytes()
        assert first == second
        report(9, f"two fit runs produced byte-identical model files "
                  f"({len(first)} bytes)")
