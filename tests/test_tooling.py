"""The traced benchmark pass (``benchmarks/bench.py --trace 1``) wraps
kernelaj functions by name and fails on a name that is gone; a change that
deletes or renames one must fail here first."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"


def test_traced_targets_exist():
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    missing = [name for name, (owner, attribute, _) in layers.TARGETS.items()
               if not callable(getattr(owner, attribute, None))]
    assert missing == []
