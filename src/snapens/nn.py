"""Dense feed-forward classifier with explicit forward and backward passes.

Parameters live in a single flat float64 vector ("theta"), ordered layer by
layer: weight matrix (n_in x n_out, row-major) then bias (n_out). The
functions here are pure, with one exception: given a `Workspace`,
`loss_and_grad` writes the gradient into `workspace.grad`. Dropout
randomness comes from an explicit seed, so repeated calls are bit-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Flat parameter / gradient vectors are plain float64 ndarrays.
ParamVector = np.ndarray
GradVector = np.ndarray

MODES = ("train", "eval")

# Rows per block of the eval forward pass; see `forward`.
EVAL_BLOCK_ROWS = 512


@dataclass(frozen=True)
class ModelSpec:
    """Architecture descriptor: layer sizes, activation, dropout rate."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"
    dropout_rate: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(n) for n in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise InputError("layer_sizes needs at least an input and an output size")
        if any(n < 1 for n in self.layer_sizes):
            raise InputError("every layer size must be >= 1")
        if self.activation != "relu":
            raise InputError(f"unsupported activation {self.activation!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise InputError("dropout_rate must lie in [0, 1)")

    @property
    def class_count(self) -> int:
        return self.layer_sizes[-1]


@dataclass
class Batch:
    """A mini-batch: inputs (n x d) and integer class labels (n)."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise InputError("batch inputs must be a 2-d matrix")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.inputs.shape[0]:
            raise InputError("batch labels length must equal the number of input rows")
        if not np.all(np.isfinite(self.inputs)):
            raise InputError("batch inputs must be finite")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def param_count(spec: ModelSpec) -> int:
    sizes = spec.layer_sizes
    return sum(n_in * n_out + n_out for n_in, n_out in zip(sizes, sizes[1:]))


def layer_views(spec: ModelSpec, params: ParamVector) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat vector into (W, b) views per layer, without copying."""
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (param_count(spec),):
        raise InputError(
            f"parameter vector has length {params.size}, spec needs {param_count(spec)}"
        )
    views = []
    offset = 0
    sizes = spec.layer_sizes
    for n_in, n_out in zip(sizes, sizes[1:]):
        w = params[offset : offset + n_in * n_out].reshape(n_in, n_out)
        offset += n_in * n_out
        b = params[offset : offset + n_out]
        offset += n_out
        views.append((w, b))
    return views


def init_params(spec: ModelSpec, seed: int) -> ParamVector:
    """Seeded He-style uniform init: weights in +-sqrt(6/n_in), biases zero."""
    rng = np.random.default_rng(seed)
    values = np.zeros(param_count(spec), dtype=np.float64)
    offset = 0
    sizes = spec.layer_sizes
    for n_in, n_out in zip(sizes, sizes[1:]):
        bound = math.sqrt(6.0 / n_in)
        values[offset : offset + n_in * n_out] = rng.uniform(-bound, bound, n_in * n_out)
        offset += n_in * n_out + n_out  # biases stay zero
    return values


class Workspace:
    """Flat param and grad vectors with their per-layer (W, b) views, built once.

    A training run owns one workspace: it updates `params` in place and passes
    the workspace to `loss_and_grad`, which then writes the gradient into
    `grad` through the prebuilt views instead of allocating and re-slicing
    two vectors on every step.
    """

    def __init__(self, spec: ModelSpec):
        self.params = np.zeros(param_count(spec), dtype=np.float64)
        self.grad = np.zeros_like(self.params)
        self.layers = layer_views(spec, self.params)
        self.grad_layers = layer_views(spec, self.grad)


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")


def _check_features(layers, inputs) -> None:
    n_in = layers[0][0].shape[0]
    if inputs.shape[1] != n_in:
        raise InputError(f"inputs have {inputs.shape[1]} features, spec expects {n_in}")


def _layer_loop(layers, inputs, drop, dropout_seed, block):
    """Logits and the hidden-layer buffers of one pass over `inputs`.

    Rows go through in blocks of `block`, the last one shorter. Each hidden
    layer writes into one block-sized buffer, allocated once per call and
    reused by every block; after a single-block pass the buffers hold every
    row's activations, relu(z) * mask / keep. With dropout, callers pass a
    block that covers the whole batch, so the masks for a seed are the same
    in training and in `forward`.
    """
    _check_features(layers, inputs)
    n = inputs.shape[0]
    rng = np.random.default_rng(dropout_seed) if drop > 0.0 else None
    keep = 1.0 - drop
    hidden = [np.empty((min(n, block), w.shape[1])) for w, _ in layers[:-1]]
    logits = np.empty((n, layers[-1][0].shape[1]))
    for start in range(0, n, block):
        stop = min(start + block, n)
        a = inputs[start:stop]
        for i, (w, b) in enumerate(layers):
            z = hidden[i][: stop - start] if i < len(hidden) else logits[start:stop]
            np.matmul(a, w, out=z)
            z += b
            if i < len(hidden):
                np.maximum(z, 0.0, out=z)
                if drop > 0.0:
                    z *= rng.random(z.shape) < keep
                    z /= keep
            a = z
    return logits, hidden


def forward(
    spec: ModelSpec,
    params: ParamVector,
    batch: Batch,
    mode: str = "eval",
    dropout_seed: int = 0,
) -> np.ndarray:
    """Logits matrix (batch_size x K). Eval mode is deterministic and dropout-free.

    Rows go through in blocks of EVAL_BLOCK_ROWS, so a large batch does not
    fault in fresh full-batch activation arrays on every call. The layer loop
    is `loss_and_grad`'s. Train mode with dropout runs the whole batch as one
    block, so its masks are those `loss_and_grad` draws for the same seed.
    """
    _check_mode(mode)
    drop = spec.dropout_rate if mode == "train" else 0.0
    block = max(len(batch), 1) if drop > 0.0 else EVAL_BLOCK_ROWS
    return _layer_loop(layer_views(spec, params), batch.inputs, drop, dropout_seed, block)[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for stability."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def loss_and_grad(
    spec: ModelSpec,
    params: ParamVector,
    batch: Batch,
    mode: str = "train",
    dropout_seed: int = 0,
    workspace: Workspace | None = None,
) -> tuple[float, GradVector]:
    """Mean softmax cross-entropy and its exact gradient w.r.t. the flat params.

    The backward pass reuses the dropout masks drawn in the forward pass, so
    (mode, dropout_seed) fully determine the result. Without a workspace the
    gradient is a new vector. With one, `params` must be `workspace.params`;
    the gradient is written into `workspace.grad`, which is returned and is
    overwritten by the next call.
    """
    _check_mode(mode)
    if workspace is None:
        layers = layer_views(spec, params)
        grad = np.zeros(param_count(spec), dtype=np.float64)
        grad_layers = layer_views(spec, grad)
    elif params is workspace.params:
        layers, grad, grad_layers = workspace.layers, workspace.grad, workspace.grad_layers
    else:
        raise InputError("with a workspace, params must be the workspace's own vector")
    drop = spec.dropout_rate if mode == "train" else 0.0
    n = len(batch)
    logits, hidden = _layer_loop(layers, batch.inputs, drop, dropout_seed, max(n, 1))
    activations = [batch.inputs, *hidden]
    rows = np.arange(n)
    labels = batch.labels
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    expsum = exp.sum(axis=1, keepdims=True)
    loss = float(np.add.reduce(np.log(expsum[:, 0]) - logits[rows, labels]) / n)

    delta = exp
    delta /= expsum
    delta[rows, labels] -= 1.0
    delta /= n

    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        np.matmul(activations[i].T, delta, out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        if i > 0:
            delta = delta @ layers[i][0].T
            delta *= activations[i] > 0.0  # a unit that is off or dropped passes none
            if drop > 0.0:
                delta /= 1.0 - drop
    return loss, grad


def check_labels(spec: ModelSpec, labels) -> np.ndarray:
    """Labels as int64, raising InputError unless each lies in [0, class_count)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= spec.class_count):
        raise InputError(
            f"labels must lie in [0, {spec.class_count}) for a {spec.class_count}-class model"
        )
    return labels


def error_rate(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax class differs from the label; ties go to the lowest class."""
    return float(np.mean(np.argmax(probabilities, axis=1) != labels))


def evaluate_error(spec: ModelSpec, params: ParamVector, dataset) -> float:
    """`error_rate` of the eval-mode softmax outputs on `dataset`.

    `dataset` is anything with `inputs` and `labels` attributes (Dataset or Batch).
    """
    batch = Batch(dataset.inputs, dataset.labels)
    if len(batch) == 0:
        raise InputError("evaluate_error needs a nonempty dataset")
    labels = check_labels(spec, batch.labels)
    return error_rate(softmax(forward(spec, params, batch)), labels)
