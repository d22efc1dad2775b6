"""Feed-forward embedding network and the Gaussian-type similarity kernel.

The network maps feature vectors to an embedding space; the kernel scores
two points by exp(-squared Euclidean distance) of their embeddings, so it
lies in (0, 1] and equals 1 exactly when the embeddings coincide.

All arithmetic is float64. The forward pass is pure; gradients come from a
hand-derived backward pass (reverse mode), with finite differences reserved
for testing.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ShapeMismatch

_ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class EmbeddingConfig:
    """Architecture of the embedding network.

    ``num_layers`` counts hidden layers; the output layer is linear with
    ``embed_dim`` units. ``input_dim`` is the feature dimension p.
    """

    input_dim: int
    num_layers: int = 2
    hidden_units: int = 64
    embed_dim: int = 16
    activation: str = "relu"
    init_seed: int = 0

    def __post_init__(self):
        if min(self.input_dim, self.num_layers, self.hidden_units, self.embed_dim) < 1:
            raise ValueError("all architecture sizes must be positive")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")

    @property
    def layer_sizes(self) -> tuple:
        return (self.input_dim,) + (self.hidden_units,) * self.num_layers + (self.embed_dim,)


@dataclass(frozen=True)
class MlpParams:
    """Weight matrices (out, in) and bias vectors per layer, plus activation."""

    layer_sizes: tuple
    weights: tuple
    biases: tuple
    activation: str = "relu"

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        ws = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        bs = tuple(np.asarray(b, dtype=np.float64) for b in self.biases)
        if len(ws) != len(sizes) - 1 or len(bs) != len(ws):
            raise ShapeMismatch("one weight matrix and bias per layer transition")
        for k, (w, b) in enumerate(zip(ws, bs)):
            if w.shape != (sizes[k + 1], sizes[k]) or b.shape != (sizes[k + 1],):
                raise ShapeMismatch(
                    f"layer {k}: expected weight {(sizes[k + 1], sizes[k])}, got {w.shape}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("parameters must be finite")
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def embed_dim(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "MlpParams":
        return replace(
            self,
            weights=tuple(w.copy() for w in self.weights),
            biases=tuple(b.copy() for b in self.biases),
        )


def init_mlp(config: EmbeddingConfig, seed=None) -> MlpParams:
    """Initialize parameters: weights uniform in +-sqrt(1/fan_in), biases 0.

    Deterministic for a given seed; ``seed`` overrides ``config.init_seed``.
    """
    rng = np.random.default_rng(config.init_seed if seed is None else seed)
    sizes = config.layer_sizes
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(1.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(sizes, tuple(weights), tuple(biases), config.activation)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0).astype(np.float64)
    return 1.0 - a * a


def rowwise_matmul(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """A @ M with every row from its own vector-matrix product.

    A GEMM's rounding depends on its shape, so a row of ``A @ M`` changes in
    the last bits with the rows passed alongside it. Here every row is the
    same product (a matmul stacked over the rows of A), so a caller may split
    A into blocks of any size, single rows included, and get the same bits.
    """
    A = np.ascontiguousarray(A, dtype=np.float64)
    return (A[:, None, :] @ np.ascontiguousarray(M, dtype=np.float64))[:, 0, :]


def forward_cached(params: MlpParams, X: np.ndarray, product=np.matmul):
    """Batch forward pass returning embeddings and layer caches.

    The cache holds per-layer pre-activations and activations, consumed by
    :func:`backward` to produce exact parameter gradients. ``product(a, w.T)``
    is each layer's matrix product.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ShapeMismatch(
            f"expected input of shape (n, {params.input_dim}), got {X.shape}"
        )
    a = X
    zs, activations = [], [X]
    n_layers = len(params.weights)
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = product(a, w.T) + b
        zs.append(z)
        a = z if k == n_layers - 1 else _activate(z, params.activation)
        activations.append(a)
    return a, (zs, activations)


def backward(params: MlpParams, cache, dE: np.ndarray):
    """Gradients of a scalar loss w.r.t. all parameters given dLoss/dE.

    Returns (weight_grads, bias_grads) matching the parameter layout.
    """
    zs, activations = cache
    n_layers = len(params.weights)
    dw = [None] * n_layers
    db = [None] * n_layers
    delta = np.asarray(dE, dtype=np.float64)
    for k in range(n_layers - 1, -1, -1):
        if k != n_layers - 1:
            delta = delta * _activate_grad(zs[k], activations[k + 1], params.activation)
        dw[k] = delta.T @ activations[k]
        db[k] = delta.sum(axis=0)
        if k > 0:
            delta = delta @ params.weights[k]
    return dw, db


def embed_batch(params: MlpParams, X: np.ndarray) -> np.ndarray:
    """Embeddings for a batch of feature vectors, shape (n, d)."""
    E, _ = forward_cached(params, X)
    return E


def embed(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Embedding of a single feature vector, shape (d,)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeMismatch(f"expected a 1-D feature vector, got shape {x.shape}")
    return embed_batch(params, x[None, :])[0]


def _augmented_rows(E1, E2):
    """Rows [e1, |e1|^2, 1] and [-2 e2, 1, |e2|^2]: the product of a row of
    the first with a row of the second is |e1|^2 + |e2|^2 - 2 e1.e2."""
    if E1.shape[1] != E2.shape[1]:
        raise ShapeMismatch("embedding dimensions differ")
    d = E1.shape[1]
    A = np.empty((E1.shape[0], d + 2))
    A[:, :d] = E1
    A[:, d] = np.einsum("ij,ij->i", E1, E1)
    A[:, d + 1] = 1.0
    B = np.empty((E2.shape[0], d + 2))
    np.multiply(E2, -2.0, out=B[:, :d])
    B[:, d] = 1.0
    B[:, d + 1] = np.einsum("ij,ij->i", E2, E2)
    return A, B


def pairwise_sq_dists(E1: np.ndarray, E2=None) -> np.ndarray:
    """Squared Euclidean distances between embedding rows, clipped at 0.

    Products of augmented rows, [e1, |e1|^2, 1] . [-2 e2, 1, |e2|^2], write
    |e1|^2 + |e2|^2 - 2 e1.e2 into a single buffer that is clipped in place.
    The self form ``pairwise_sq_dists(E)`` is one GEMM with an exact 0
    diagonal. The two-set form is a :func:`rowwise_matmul`, so a row's
    distances do not depend on the rows of E1 passed with it.
    """
    E1 = np.asarray(E1, dtype=np.float64)
    if E2 is None:
        A, B = _augmented_rows(E1, E1)
        D2 = A @ B.T
        np.fill_diagonal(D2, 0.0)       # rounding leaves ~1e-14 on the diagonal
    else:
        A, B = _augmented_rows(E1, np.asarray(E2, dtype=np.float64))
        D2 = rowwise_matmul(A, B.T)
    return np.maximum(D2, 0.0, out=D2)


def kernel_matrix(E1: np.ndarray, E2=None) -> np.ndarray:
    """exp(-||e_i - e_j||^2) for all row pairs, computed in one buffer."""
    D2 = pairwise_sq_dists(E1, E2)
    np.negative(D2, out=D2)
    return np.exp(D2, out=D2)


def kernel(e1: np.ndarray, e2: np.ndarray) -> float:
    """Similarity of two embeddings in (0, 1]; 1 iff the embeddings match."""
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    if e1.shape != e2.shape:
        raise ShapeMismatch(f"embedding shapes differ: {e1.shape} vs {e2.shape}")
    diff = e1 - e2
    return float(np.exp(-(diff @ diff)))


def kernel_matrix_backward(E: np.ndarray, K: np.ndarray, dK: np.ndarray) -> np.ndarray:
    """dLoss/dE given dLoss/dK for K = exp(-pairwise_sq_dists(E)).

    With P = dK * K (diagonal dropped) and d K_ij / d e_i = -2 K_ij (e_i - e_j),
    dE_i = -2 (sum_j (P_ij + P_ji) e_i - sum_j (P_ij + P_ji) e_j). A column of
    ones appended to E makes the row and column sums of P come out of the
    same two GEMMs as P E and P^T E; no transposed copy of P is formed.
    """
    P = np.multiply(dK, K)
    np.fill_diagonal(P, 0.0)
    Ea = np.hstack((E, np.ones((E.shape[0], 1))))
    S = P @ Ea
    S += (Ea.T @ P).T
    return -2.0 * (S[:, -1:] * E - S[:, :-1])


def flatten_params(params: MlpParams) -> np.ndarray:
    """All parameters as one flat vector (weights then bias per layer)."""
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


def unflatten_params(params: MlpParams, flat: np.ndarray) -> MlpParams:
    """Rebuild an MlpParams with the same shapes from a flat vector."""
    flat = np.asarray(flat, dtype=np.float64)
    weights, biases = [], []
    pos = 0
    for w, b in zip(params.weights, params.biases):
        weights.append(flat[pos:pos + w.size].reshape(w.shape))
        pos += w.size
        biases.append(flat[pos:pos + b.size].reshape(b.shape))
        pos += b.size
    if pos != flat.size:
        raise ShapeMismatch("flat vector length does not match parameter count")
    return MlpParams(params.layer_sizes, tuple(weights), tuple(biases), params.activation)


def flatten_grads(weight_grads, bias_grads) -> np.ndarray:
    parts = []
    for dw, db in zip(weight_grads, bias_grads):
        parts.append(np.asarray(dw).ravel())
        parts.append(np.asarray(db).ravel())
    return np.concatenate(parts)
