"""Session benchmark for kernelaj: fit, evaluate, explain and single-row
queries, timed end to end (``--trace 0``) or per module (``--trace 1``).

    python3 benchmarks/bench.py --workload acceptance --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; kernelaj is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the environment, fingerprints and counts, is written under
``benchmarks/results/``. See README.md next to this file.
"""

import argparse
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    # No more threads than CPUs, BLAS included; the CLI's row pool stays at
    # one thread. Both must be fixed before numpy is first imported.
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    os.environ["DKAJ_THREADS"] = "1"

    sys.path.insert(0, SRC)
    try:
        import kernelaj
    except ImportError as exc:
        print(f"error: cannot import kernelaj from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(kernelaj.__file__).startswith(SRC + os.sep):
        print(f"error: kernelaj was imported from {kernelaj.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import session
    return session.run(_parse(argv, sorted(session.WORKLOADS)), nproc)


if __name__ == "__main__":
    sys.exit(main())
