"""Shared helpers: random labeled batches, finite-difference oracles and
the traced memory peak of a call; the hypothesis profile of the suite."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from kernelaj import EmbeddingConfig, init_mlp
from kernelaj.embedding import embed_batch, flatten_params, unflatten_params
from dense_oracle import batch_loss_from_params

# every property test draws the same examples on every run, however long
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


def random_batch(rng, n=12, p=3, m=2, L=5, censor_frac=0.3):
    """Features plus discrete labels (kappa in 0..L, delta in 0..m).

    Censored subjects may sit at kappa = 0; uncensored ones occupy bins
    1..L. Guarantees at least two uncensored subjects in distinct bins so
    both loss terms are active.
    """
    X = rng.normal(size=(n, p))
    delta = rng.integers(0, m + 1, size=n)
    kappa = np.where(delta == 0, rng.integers(0, L + 1, size=n),
                     rng.integers(1, L + 1, size=n))
    delta[0], kappa[0] = 1, 1
    delta[1], kappa[1] = min(m, 2), min(2, L)
    return X, kappa.astype(np.int64), delta.astype(np.int64)


def finite_difference_grad(params, X, kappa, delta, m, L, alpha, sigma, step=1e-5):
    flat = flatten_params(params)
    grad = np.zeros_like(flat)
    for k in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[k] += step
        down[k] -= step
        lu = batch_loss_from_params(unflatten_params(params, up), X, kappa,
                                    delta, m, L, alpha, sigma)
        ld = batch_loss_from_params(unflatten_params(params, down), X, kappa,
                                    delta, m, L, alpha, sigma)
        grad[k] = (lu - ld) / (2 * step)
    return grad


def traced_peak(fn):
    """Run ``fn()``; returns (its result, the tracemalloc peak in bytes of
    what it allocated and numpy reports to tracemalloc)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def relative_error(analytic, reference):
    denom = max(np.linalg.norm(reference), 1e-12)
    return np.linalg.norm(analytic - reference) / denom


@pytest.fixture
def small_net():
    cfg = EmbeddingConfig(input_dim=3, num_layers=1, hidden_units=6,
                          embed_dim=2, activation="tanh")
    return init_mlp(cfg, seed=0)
