"""Feed-forward embedding network and the Gaussian-type similarity kernel.

The network maps feature vectors to an embedding space; the kernel scores
two points by exp(-squared Euclidean distance) of their embeddings, so it
lies in (0, 1] and equals 1 exactly when the embeddings coincide.

All arithmetic is float64. The forward pass is pure; gradients come from a
hand-derived backward pass (reverse mode), with finite differences reserved
for testing.
"""

from dataclasses import dataclass

import numpy as np

from .core import require_int
from .errors import ShapeMismatch

_ACTIVATIONS = ("relu", "tanh")
PRODUCT_BLOCK_ROWS = 16


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
        for name in ("input_dim", "num_layers", "hidden_units", "embed_dim"):
            require_int(name, getattr(self, name), 1)
        require_int("init_seed", self.init_seed, 0)
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
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")
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


def _activate_grad(a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (a > 0).astype(np.float64)
    return 1.0 - a * a


def blocked_matmul(A: np.ndarray, M: np.ndarray, out=None) -> np.ndarray:
    """A @ M as GEMMs of a fixed ``PRODUCT_BLOCK_ROWS`` rows of A (one
    stacked matmul over views of A), the last block zero-padded. BLAS picks
    its kernel, and so its rounding, by shape; with one shape a row has the
    same bits whichever rows are passed with it. The product is written into
    ``out``, a C-contiguous (n, k) array, when given."""
    A = np.ascontiguousarray(A, dtype=np.float64)
    M = np.ascontiguousarray(M, dtype=np.float64)
    (n, p), b = A.shape, PRODUCT_BLOCK_ROWS
    out = np.empty((n, M.shape[1])) if out is None else out
    full = n - n % b
    np.matmul(A[:full].reshape(-1, b, p), M,
              out=np.reshape(out[:full], (-1, b, M.shape[1]), copy=False))
    if full < n:
        last = np.zeros((b, p))
        last[:n - full] = A[full:]
        out[full:] = np.matmul(last, M)[:n - full]
    return out


def forward_cached(params: MlpParams, X: np.ndarray):
    """Batch forward pass returning embeddings and the layer cache.

    The cache is the list of per-layer activations, the input first, which
    :func:`backward` reads for exact parameter gradients; no pre-activation
    is kept. Each layer's product is a :func:`blocked_matmul`, so training
    and prediction embed a row alike.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ShapeMismatch(
            f"expected input of shape (n, {params.input_dim}), got {X.shape}"
        )
    activations = [X]
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = blocked_matmul(activations[-1], w.T)
        a += b
        if k < len(params.weights) - 1:
            a = _activate(a, params.activation)
        activations.append(a)
    return a, activations


def backward(params: MlpParams, activations, dE: np.ndarray):
    """Gradients of a scalar loss w.r.t. all parameters given dLoss/dE and the
    activations a of :func:`forward_cached`, whose derivatives are read off a:
    ReLU's is a > 0 (exactly where z > 0), tanh's 1 - a^2.

    Returns (weight_grads, bias_grads) matching the parameter layout.
    """
    n_layers = len(params.weights)
    dw = [None] * n_layers
    db = [None] * n_layers
    delta = np.asarray(dE, dtype=np.float64)
    for k in range(n_layers - 1, -1, -1):
        if k != n_layers - 1:
            delta = delta * _activate_grad(activations[k + 1], params.activation)
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


def _neg_sq_dists(E1, E2, out):
    """-(squared distances) before clipping, from one product of augmented
    rows [e1, |e1|^2, 1] . [2 e2, -1, -|e2|^2] = 2 e1.e2 - |e1|^2 - |e2|^2.
    Negating every input of a product negates its result exactly, so this is
    -(|e1|^2 + |e2|^2 - 2 e1.e2) to the bit. E2 None is E1 itself, with the
    diagonal set to exactly 0."""
    E1 = np.asarray(E1, dtype=np.float64)
    R = E1 if E2 is None else np.asarray(E2, dtype=np.float64)
    if R.shape[1] != E1.shape[1]:
        raise ShapeMismatch("embedding dimensions differ")
    A = np.column_stack((E1, np.einsum("ij,ij->i", E1, E1), np.ones(E1.shape[0])))
    B = np.vstack((2.0 * R.T, -np.ones(R.shape[0]), -np.einsum("ij,ij->i", R, R)))
    N = blocked_matmul(A, B, out)
    if E2 is None:
        np.fill_diagonal(N, 0.0)        # rounding leaves ~1e-14 on the diagonal
    return N


def pairwise_sq_dists(E1: np.ndarray, E2=None) -> np.ndarray:
    """Squared Euclidean distances between embedding rows, clipped at 0.

    One :func:`blocked_matmul` of augmented rows writes |e1|^2 + |e2|^2 -
    2 e1.e2, negated, into a single (n1, n2) buffer that is negated back and
    clipped in place. A row's distances do not depend on the rows of E1
    passed with it. The self form ``pairwise_sq_dists(E)`` is the two-set
    form against E itself with an exact 0 diagonal.
    """
    D2 = _neg_sq_dists(E1, E2, None)
    np.negative(D2, out=D2)
    return np.maximum(D2, 0.0, out=D2)


def kernel_matrix(E1: np.ndarray, E2=None, out=None) -> np.ndarray:
    """exp(-||e_i - e_j||^2) for all row pairs, computed in one (n1, n2)
    buffer (``out`` when given): the product of :func:`pairwise_sq_dists`
    yields -D^2 directly, so one clip and one exp finish it."""
    N = _neg_sq_dists(E1, E2, out)
    np.minimum(N, 0.0, out=N)
    return np.exp(N, out=N)


def flatten_grads(weight_grads, bias_grads) -> np.ndarray:
    """Per-layer arrays as one flat vector, weights then bias per layer."""
    return np.concatenate([np.ravel(a) for pair in zip(weight_grads, bias_grads)
                           for a in pair])
