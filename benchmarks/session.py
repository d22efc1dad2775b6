"""Workloads and the user session the benchmark plays against kernelaj.

One session, one caller, closed loop and sequential: ``kernelaj fit`` on
the train/valid CSVs and ``fit.json``, then rounds of ``kernelaj evaluate``
on the test CSV, ``kernelaj explain --clusters`` and ``kernelaj explain
--data`` on the query CSV, each followed by a block of single-row
``explain_subject`` queries on the loaded model.

The CLI commands run in this process through ``kernelaj.cli.main``. Every
function is looked up on its module at call time, so the traced pass sees
the wrapped versions. Set-up (cohort generation plus CSV and config writing)
is timed on its own as ``setup_s``.
"""

import contextlib
import copy
import csv
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time

import numpy as np

import harness
from harness import CheckFailed, Tally, run_op, fail_skipped
from kernelaj import cli, dataio, model, serialize

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# Set-up runs SETUP_UPFRONT times, then again before every session, so its
# samples spread over the run like those of the commands; setup_s is their
# interquartile mean.
SETUP_UPFRONT = 2
MAX_SESSIONS = 4     # keeps pooled query samples under 10^4, so p99 is the highest tail

# Acceptance-suite generator (BENCH_CFG in tests/test_acceptance.py): p = 8,
# event 1 driven by x1..x4, event 2 by x5..x8, half of the rows censored.
P = 8
W1 = (0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0)
W2 = (0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 0.5)
CENSORING = 0.5

_BASE = {
    "embedding": {"num_layers": 2, "hidden_units": 32, "embed_dim": 8,
                  "activation": "relu", "init_seed": 0},
    "training": {"learning_rate": 0.1, "batch_size": 1024, "max_epochs": 16,
                 "patience": 16, "alpha": 1.0, "sigma": 1.0, "num_time_steps": 64,
                 "early_stop_criterion": "ibs", "seed": 0},
    "clustering": {"epsilon": 0.3, "min_kernel_weight": 0.01},
    "sft": {"enabled": False},
}


def _workload(split, query_rows, rounds, queries, min_ctd, **sections):
    doc = copy.deepcopy(_BASE)
    for key, overrides in sections.items():
        doc[key].update(overrides)
    return {"split": split, "query_rows": query_rows, "rounds": rounds,
            "queries": queries, "min_ctd": min_ctd, "fit": doc}


# patience == max_epochs fixes the epoch count, so run length does not
# depend on early stopping. README.md gives the reason for each workload.
# min_ctd is the acceptance-criterion-6 floor on each event's ctd. Eight
# epochs at alpha = 0.5 leave ranking-sft's event-2 ctd at 0.60-0.65 over
# seeds (0.597 on seed 1), so there the check is only "beats the population
# estimate" (see README.md).
WORKLOADS = {
    "acceptance": _workload((4800, 1200, 2000), query_rows=500, rounds=2,
                            queries=2400, min_ctd=0.60),
    "ranking-sft": _workload(
        (4800, 1200, 2000), query_rows=500, rounds=2, queries=2400, min_ctd=None,
        training={"alpha": 0.5, "early_stop_criterion": "objective",
                  "max_epochs": 8, "patience": 8},
        sft={"enabled": True, "early_stop_criterion": "objective",
             "learning_rate": 0.01, "max_epochs": 30, "patience": 30}),
    "scale": _workload(
        (20000, 1000, 4000), query_rows=250, rounds=1, queries=1200, min_ctd=0.60,
        training={"early_stop_criterion": "objective", "max_epochs": 2,
                  "patience": 2},
        clustering={"epsilon": 0.1}),
}

# (name, unit) of the end-to-end metrics that BENCHMARK.json gates
END_TO_END = [
    ("setup_s", "s"), ("fit_s", "s"), ("peak_rss_mb", "MB"),
    ("ctd_mean", "score"), ("ibs_mean", "score"),
]
# Printed and recorded, not gated: on a shared 2-vCPU VM their run-to-run
# spread comes too close to, or exceeds, the largest allowed bound
# (README.md, "Noise").
UNGATED = [
    ("evaluate_s", "s"), ("explain_clusters_s", "s"), ("explain_rows_per_s", "rows/s"),
    ("query_ms_p50", "ms"), ("query_ms_p99", "ms"),
]


# ------------------------------------------------------------------- set-up

def setup(wl, seed, work) -> dict:
    """Draw the cohort for ``seed`` and write the CSVs and ``fit.json``."""
    os.makedirs(work, exist_ok=True)
    n_train, n_valid, n_test = wl["split"]
    cohort = dataio.generate_synthetic(dataio.SynthConfig(
        n=n_train + n_valid + n_test, p=P, w1=W1, w2=W2,
        censoring_rate=CENSORING, seed=seed))
    cuts = np.cumsum([0, n_train, n_valid, n_test])
    files = {name: os.path.join(work, f"{name}.csv")
             for name in ("train", "valid", "test", "query")}
    for name, lo, hi in zip(("train", "valid", "test"), cuts[:-1], cuts[1:]):
        dataio.write_cohort_csv(cohort.subset(np.arange(lo, hi)), files[name])
    query = np.arange(cuts[2], cuts[2] + wl["query_rows"])
    dataio.write_cohort_csv(cohort.subset(query), files["query"])

    session_dir = os.path.join(work, "session")
    files.update(session=session_dir,
                 model=os.path.join(session_dir, "model", "model.json"),
                 evaluate=os.path.join(session_dir, "evaluate"),
                 clusters=os.path.join(session_dir, "clusters"),
                 explain=os.path.join(session_dir, "explain"),
                 config=os.path.join(work, "fit.json"))
    doc = copy.deepcopy(wl["fit"])
    doc.update(seed=0, output_dir=os.path.dirname(files["model"]))
    doc["data"] = {"train": files["train"], "valid": files["valid"],
                   "time_column": "time", "event_column": "event",
                   "schema": {f"x{j + 1}": "continuous" for j in range(P)}}
    with open(files["config"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return files


# ------------------------------------------------------------------ session

def _cli(argv):
    """``kernelaj <argv>`` in-process; a nonzero exit raises with its message."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse rejects bad arguments this way
            code = exc.code
    if code != 0:
        raise CheckFailed(f"exit code {code}: {err.getvalue().strip()}")
    return code


def _traced(tracer, name, fn):
    if tracer is None:
        return fn

    def call():
        with tracer.span(name):
            return fn()
    return call


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _csv_rows(path) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def run_session(wl, files, tally: Tally, tracer=None, expect_model_sha=None) -> dict:
    """Play one session; returns the times of the ops that ran (a list per op)
    and facts read from the outputs. Output files are removed before returning.

    After the fit, the session plays ``rounds`` rounds of evaluate, explain
    --clusters and explain --data, with a block of queries after each
    command. Spreading the cheap ops over the session makes their
    interquartile means cover the whole run rather than one moment of it. The collector runs
    before each command, as each would start with a fresh heap in its own
    process.
    """
    fit_cfg = wl["fit"]
    m = 2
    out = {"times": {}, "query_s": [], "info": {}}
    shutil.rmtree(files["session"], ignore_errors=True)

    def cli_op(key, argv, check):
        gc.collect()
        elapsed = run_op(tally, key, _traced(tracer, f"op.{key}", lambda: _cli(argv)), check)
        if elapsed is not None:
            out["times"].setdefault(key, []).append(elapsed)

    def check_fit(_):
        epochs = _csv_rows(os.path.join(os.path.dirname(files["model"]), "training_log.csv"))
        if epochs != fit_cfg["training"]["max_epochs"]:
            raise CheckFailed(f"trained {epochs} epochs, expected "
                              f"{fit_cfg['training']['max_epochs']}")
        sha = _sha256(files["model"])
        out["info"].update(epochs=epochs, model_json_sha256=sha)
        if expect_model_sha is not None and sha != expect_model_sha:
            raise CheckFailed("model.json differs from an earlier fit of the same inputs")

    def check_evaluate(_):
        path = os.path.join(files["evaluate"], "metrics.csv")
        scores = harness.read_metrics_csv(path)
        out["info"].update(ctd=scores["ctd"], ibs=scores["ibs"],
                           metrics_csv_sha256=_sha256(path))
        harness.check_metrics(scores, wl["min_ctd"])

    def check_clusters(_):
        clusters = _csv_rows(os.path.join(files["clusters"], "cluster_summary.csv"))
        harness.check_cluster_cifs_file(
            os.path.join(files["clusters"], "cluster_cifs.csv"), clusters, m)
        out["info"]["clusters"] = clusters

    def check_explain(_):
        harness.check_explanations_file(
            os.path.join(files["explain"], "explanations.json"), wl["query_rows"], m)

    commands = [
        ("evaluate", ["evaluate", "--model", files["model"], "--data", files["test"],
                      "--out", files["evaluate"]], check_evaluate),
        ("explain_clusters", ["explain", "--model", files["model"], "--clusters",
                              "--out", files["clusters"]], check_clusters),
        ("explain_data", ["explain", "--model", files["model"], "--data", files["query"],
                          "--out", files["explain"]], check_explain),
    ]
    per_block = wl["queries"] // (wl["rounds"] * len(commands))

    cli_op("fit", ["fit", "--config", files["config"]], check_fit)
    try:
        loaded, schema = serialize.load_model(files["model"])
        table = dataio.load_cohort(files["test"], schema.kinds, "time", "event")
        X = schema.transform(table)
    except Exception as exc:  # no usable model: every query is a failed op
        loaded = None
        fail_skipped(tally, "query", wl["queries"], f"{type(exc).__name__}: {exc}")

    block = 0
    for _ in range(wl["rounds"]):
        for key, argv, check in commands:
            cli_op(key, argv, check)
            if loaded is not None:
                gc.collect()
                for k in range(block * per_block, (block + 1) * per_block):
                    x = X[k % X.shape[0]]
                    elapsed = run_op(
                        tally, f"query {k}",
                        _traced(tracer, "op.query", lambda: model.explain_subject(loaded, x)),
                        lambda info: harness.check_explanation(info, f"query {k}"))
                    if elapsed is not None:
                        out["query_s"].append(elapsed)
            block += 1
    shutil.rmtree(files["session"], ignore_errors=True)
    return out


# -------------------------------------------------------------- environment

def _blas_runtime():
    """OpenBLAS config string and thread count, read from the loaded library."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            try:
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, threads.argtypes = ctypes.c_int, []
            config.restype, config.argtypes = ctypes.c_char_p, []
            return {"config": config().decode(), "threads": threads()}
    return {"config": None, "threads": None}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(nproc: int, wl: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    blas.update(_blas_runtime())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "DKAJ_THREADS")},
        "workload": wl,
    }


# ------------------------------------------------------------------- report

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _iqm_or_none(values):
    return harness.iqm(values) if values else None


def end_to_end(wl, setup_times, sessions, peak_rss_mb) -> tuple:
    """(metrics {name: value}, info) from the untraced sessions of one run.

    Peak RSS is the high-water mark when the first session ends, so it does
    not depend on how many sessions fit in the run."""
    op = {key: _iqm_or_none([t for s in sessions for t in s["times"].get(key, [])])
          for key in ("fit", "evaluate", "explain_clusters", "explain_data")}
    latencies_ms = np.array([t for s in sessions for t in s["query_s"]]) * 1e3
    info = next((s["info"] for s in sessions if "ctd" in s["info"]), sessions[0]["info"])
    values = {
        "setup_s": harness.iqm(setup_times),
        "fit_s": op["fit"],
        "evaluate_s": op["evaluate"],
        "explain_clusters_s": op["explain_clusters"],
        "explain_rows_per_s": (wl["query_rows"] / op["explain_data"]
                               if op["explain_data"] else None),
        "query_ms_p50": None, "query_ms_p99": None,
        "peak_rss_mb": peak_rss_mb,
        "ctd_mean": float(np.mean(info["ctd"])) if "ctd" in info else None,
        "ibs_mean": float(np.mean(info["ibs"])) if "ibs" in info else None,
    }
    extra = {"sessions": len(sessions), "query_samples": int(latencies_ms.size),
             "op_seconds": [s["times"] for s in sessions],
             "query_seconds": [s["query_s"] for s in sessions],
             "setup_seconds": setup_times}
    if latencies_ms.size:
        values["query_ms_p50"] = float(np.percentile(latencies_ms, 50))
        values["query_ms_p99"] = float(np.percentile(latencies_ms, 99))
        tail = harness.tail_percentile(latencies_ms.size)
        extra["query_tail"] = {"percentile": tail,
                               "ms": float(np.percentile(latencies_ms, tail))}
    return values, extra


def deterministic_counts(wl, info) -> dict:
    """Counts that a speed-only change must leave as they are."""
    n_train, batch = wl["split"][0], wl["fit"]["training"]["batch_size"]
    per_epoch = sum(1 for lo in range(0, n_train, batch) if min(batch, n_train - lo) >= 2)
    epochs = info.get("epochs")
    return {"training.epochs": epochs,
            "training.steps": epochs * per_epoch if epochs is not None else None,
            "clustering.clusters": info.get("clusters")}


def declared_metrics(trace: bool) -> list:
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return [(e["name"], e["unit"]) for e in doc["per_layer" if trace else "end_to_end"]]


# per-layer metrics a traced run adds to those of layers.PER_LAYER
TRACE_OVERHEAD = [
    ("trace.untraced_session_s", "s"), ("trace.traced_session_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_fraction", "fraction"),
    ("trace.spans", "count"),
]


def run(args, nproc: int) -> int:
    wl = WORKLOADS[args.workload]
    if args.trace:
        import layers
        from spans import SpanIndex, Tracer
        emitted = [(name, unit) for name, unit, _ in layers.PER_LAYER] + TRACE_OVERHEAD
    else:
        emitted = END_TO_END
    if declared_metrics(args.trace) != emitted:
        print("error: BENCHMARK.json does not declare the metrics this run reports",
              file=sys.stderr)
        return 2

    # Paths in fit.json are relative to the checkout root, so model.json (which
    # keeps the config) has the same bytes in every checkout.
    os.chdir(ROOT)
    work = os.path.join(os.path.relpath(BENCH_DIR, ROOT), ".work",
                        f"{args.workload}-seed{args.seed}")
    tally = Tally()
    sessions, spans = [], None
    try:
        setup_times = []

        def timed_setup():
            start = time.perf_counter()
            files = setup(wl, args.seed, work)
            setup_times.append(time.perf_counter() - start)
            return files

        for _ in range(SETUP_UPFRONT):
            timed_setup()
        if args.trace:
            sessions.append(run_session(wl, timed_setup(), tally))
            peak_rss_mb = _peak_rss_mb()
            tracer = Tracer()
            tracer.session = 1
            files = timed_setup()
            with tracer.installed(layers.TARGETS):
                sessions.append(run_session(wl, files, tally, tracer,
                                            sessions[0]["info"].get("model_json_sha256")))
            spans = tracer.spans()
        else:
            start = time.perf_counter()
            while not sessions or (time.perf_counter() - start < args.seconds
                                   and len(sessions) < MAX_SESSIONS):
                sessions.append(run_session(
                    wl, timed_setup(), tally,
                    expect_model_sha=sessions[0]["info"].get("model_json_sha256")
                    if sessions else None))
                if len(sessions) == 1:
                    peak_rss_mb = _peak_rss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = sessions[:1] if args.trace else sessions
    values, extra = end_to_end(wl, setup_times, untraced, peak_rss_mb)
    if args.trace:
        op_total = [sum(map(sum, s["times"].values())) + sum(s["query_s"]) for s in sessions]
        metrics = {name: value for name, (value, _) in
                   layers.per_layer_metrics(SpanIndex(spans)).items()}
        metrics.update({"trace.untraced_session_s": op_total[0],
                        "trace.traced_session_s": op_total[1],
                        "trace.overhead_s": op_total[1] - op_total[0],
                        "trace.overhead_fraction": (op_total[1] - op_total[0]) / op_total[0],
                        "trace.spans": float(len(spans))})
    else:
        metrics = values

    info = sessions[0]["info"]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
        "seconds": args.seconds,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in emitted},
        "untraced_end_to_end": values,
        "error_rate": tally.error_rate,
        "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors[:50],
        "fingerprints": {k: info.get(k) for k in ("model_json_sha256", "metrics_csv_sha256")},
        "counts": deterministic_counts(wl, info),
        "per_event": {"ctd": info.get("ctd"), "ibs": info.get("ibs")},
        **extra,
        "environment": environment(nproc, wl),
    }
    results = os.path.join(BENCH_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{int(args.trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if spans is not None:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.session,
                                     s.counts]) + "\n")

    _print_report(record, values, emitted)
    correct = tally.failed == 0 and all(metrics[name] is not None for name, _ in emitted)
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": record["metrics"]}))
    return 0


def _print_report(record, values, emitted):
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}  sessions {record['sessions']}")
    rows = [(name, values[name], unit) for name, unit in END_TO_END + UNGATED]
    rows.append(("error_rate", record["error_rate"], "fraction"))
    if record["trace"]:
        rows += [(name, record["metrics"][name]["value"], unit) for name, unit in emitted]
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {unit}")
    print(f"  query samples {record['query_samples']}, highest tail percentile "
          f"{record.get('query_tail', {}).get('percentile')}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}")
    for err in record["errors"][:5]:
        print(f"  failure: {err}")
    print(f"  counts {json.dumps(record['counts'])}")
    print(f"  fingerprints {json.dumps(record['fingerprints'])}")
