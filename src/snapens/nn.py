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

# float64s per block of a whole-vector update (`trainer.sgd_step`,
# `analysis.interpolate`'s mix): 256 KB of each vector, so the blocks of the
# update's vectors stay in L2 cache across its ops
SGD_BLOCK = 32768


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
    """A mini-batch: inputs (n x d) and integer class labels (n).

    A stack of K batches of one size, one per run of a stacked
    `loss_and_grad`, has inputs (K x n x d) and labels (K x n).
    """

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim not in (2, 3):
            raise InputError("batch inputs must be a 2-d matrix or a stack of them")
        if self.labels.shape != self.inputs.shape[:-1]:
            raise InputError("batch labels length must equal the number of input rows")
        if not np.all(np.isfinite(self.inputs)):
            raise InputError("batch inputs must be finite")

    def __len__(self) -> int:
        return self.inputs.shape[-2]


def param_count(spec: ModelSpec) -> int:
    sizes = spec.layer_sizes
    return sum(n_in * n_out + n_out for n_in, n_out in zip(sizes, sizes[1:]))


def _check_length(spec: ModelSpec, length: int) -> None:
    if length != param_count(spec):
        raise InputError(f"parameter vector has length {length}, spec needs {param_count(spec)}")


def layer_views(spec: ModelSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a flat vector, or a (K, P) stack of K of them, into (W, b) views
    per layer, without copying: W is (n_in, n_out) and b (n_out,), each with
    a leading K axis for a stack."""
    params = np.asarray(params, dtype=np.float64)
    if params.ndim not in (1, 2):
        raise InputError("parameters must be a flat vector or a (K, P) stack of them")
    _check_length(spec, params.shape[-1])
    runs = params.shape[:-1]
    views = []
    offset = 0
    sizes = spec.layer_sizes
    for n_in, n_out in zip(sizes, sizes[1:]):
        w = params[..., offset : offset + n_in * n_out].reshape(*runs, n_in, n_out, copy=False)
        offset += n_in * n_out
        b = params[..., offset : offset + n_out]
        offset += n_out
        views.append((w, b))
    return views


def init_params(spec: ModelSpec, seed: int, out=None) -> ParamVector:
    """Seeded He-style uniform init: weights in +-sqrt(6/n_in), biases zero,
    written into `out` (a P vector) when given, with no temporary array."""
    rng = np.random.default_rng(seed)
    values = np.zeros(param_count(spec), dtype=np.float64) if out is None else out
    offset = 0
    sizes = spec.layer_sizes
    for n_in, n_out in zip(sizes, sizes[1:]):
        bound = math.sqrt(6.0 / n_in)
        weights = values[offset : offset + n_in * n_out]
        rng.random(out=weights)  # then -bound + 2 bound u, as rng.uniform(-bound, bound) draws
        weights *= 2.0 * bound
        weights += -bound
        offset += n_in * n_out
        values[offset : offset + n_out] = 0.0
        offset += n_out
    return values


class Workspace:
    """Param and grad arrays with their per-layer (W, b) views, built once.

    A training run owns one workspace: it updates `params` in place and passes
    the workspace to `loss_and_grad`, which then writes the gradient into
    `grad` through the prebuilt views instead of allocating and re-slicing
    two arrays on every step. With `runs` = None the arrays are flat vectors,
    viewed as a stack of one; with runs = K they are (K, P) stacks, one row
    per run of a stacked step.
    """

    def __init__(self, spec: ModelSpec, runs: int | None = None):
        shape = (param_count(spec),) if runs is None else (runs, param_count(spec))
        self.params, self.grad = np.zeros(shape), np.zeros(shape)
        self.layers = layer_views(spec, self.params.reshape(-1, shape[-1]))
        self.grad_layers = layer_views(spec, self.grad.reshape(-1, shape[-1]))


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")


def _check_features(layers, inputs) -> None:
    n_in = layers[0][0].shape[-2]
    if inputs.shape[-1] != n_in:
        raise InputError(f"inputs have {inputs.shape[-1]} features, spec expects {n_in}")


def _layer_loop(layers, inputs, dropped, block):
    """Logits and the hidden-layer buffers of one pass over `inputs`.

    `layers` are the `layer_views` of one flat vector, with `inputs` (n x d),
    or of a stack of K runs, with `inputs` (K x n x d). Each layer is one
    `np.matmul`, which makes one BLAS call per run at that run's shapes, so
    a stacked run gets the bytes it gets alone. `dropped` lists (index, seed,
    keep) for each run that drops units: its index in the stack (`...` for
    a flat vector), the seed of its masks and its keep rate. Rows go through
    in blocks of `block`, the last one shorter. Each hidden layer writes into
    one block-sized buffer, allocated once per call and reused by every
    block; after a single-block pass the buffers hold every row's
    activations, relu(z) * mask / keep. With dropout, callers pass a block
    that covers the whole batch, so the masks for a seed are the same in
    training and in `forward`.
    """
    _check_features(layers, inputs)
    n = inputs.shape[-2]
    masks = [(k, np.random.default_rng(seed), keep) for k, seed, keep in dropped]
    runs = inputs.shape[:-2]
    hidden = [np.empty((*runs, min(n, block), w.shape[-1])) for w, _ in layers[:-1]]
    logits = np.empty((*runs, n, layers[-1][0].shape[-1]))
    for start in range(0, n, block):
        stop = min(start + block, n)
        whole = stop - start == n  # one block: the buffers themselves, unsliced
        a = inputs if whole else inputs[..., start:stop, :]
        for i, (w, b) in enumerate(layers):
            if i < len(hidden):
                z = hidden[i] if whole else hidden[i][..., : stop - start, :]
            else:
                z = logits if whole else logits[..., start:stop, :]
            np.matmul(a, w, out=z)
            z += b[..., None, :]
            if i < len(hidden):
                np.maximum(z, 0.0, out=z)
                for k, rng, keep in masks:
                    z[k] *= rng.random(z[k].shape) < keep
                    z[k] /= keep
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

    Rows go through in blocks of EVAL_BLOCK_ROWS. The blocks fix the bytes,
    since a product's rounding can depend on its row count, and they keep a
    large batch from faulting in fresh full-batch activation arrays on every
    call where malloc maps large arrays afresh, as glibc does outside the
    `snapens` entry's malloc policy. The layer loop is `loss_and_grad`'s. Train mode with dropout runs the whole batch as one
    block, so its masks are those `loss_and_grad` draws for the same seed.
    """
    _check_mode(mode)
    drop = spec.dropout_rate if mode == "train" else 0.0
    block = max(len(batch), 1) if drop > 0.0 else EVAL_BLOCK_ROWS
    dropped = [(..., dropout_seed, 1.0 - drop)] if drop > 0.0 else []
    return _layer_loop(layer_views(spec, params), batch.inputs, dropped, block)[0]


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

    Stacked form, for K runs of one layer shape stepped at once: `spec` is a
    sequence of K ModelSpecs (dropout rates may differ), `params` a (K, P)
    array (with a workspace, that of `Workspace(spec, K)`), `batch` a stack
    of K batches and `dropout_seed` a sequence of K seeds. It returns the K
    losses as a list of floats and the (K, P) gradient. A lone call runs as
    a stack of one, so each run's loss and gradient have the same bytes in
    either form.
    """
    _check_mode(mode)
    lone = isinstance(spec, ModelSpec)
    specs, seeds = ((spec,), (dropout_seed,)) if lone else (spec, dropout_seed)
    if workspace is None:
        params = np.asarray(params, dtype=np.float64)
        grad = np.zeros_like(params)
        layers, grad_layers = (layer_views(specs[0], p[None] if lone else p) for p in (params, grad))
    elif params is workspace.params:
        layers, grad, grad_layers = workspace.layers, workspace.grad, workspace.grad_layers
    else:
        raise InputError("with a workspace, params must be the workspace's own vector")
    inputs, labels = (batch.inputs[None], batch.labels[None]) if lone else (batch.inputs, batch.labels)
    runs, w = len(specs), layers[0][0]
    if not (w.ndim == inputs.ndim == 3 and runs == len(seeds) == len(w) == len(inputs)) or any(
        s.layer_sizes != specs[0].layer_sizes for s in specs
    ):
        raise InputError("a stacked call needs one spec of one layer shape, one dropout seed, "
                         "one parameter row and one batch per run")
    dropped = [
        (k, seed, 1.0 - s.dropout_rate)
        for k, (s, seed) in enumerate(zip(specs, seeds))
        if s.dropout_rate > 0.0
    ] if mode == "train" else []
    n = inputs.shape[-2]
    logits, hidden = _layer_loop(layers, inputs, dropped, max(n, 1))
    activations = [inputs, *hidden]
    # each row's logit of its label, as (run, row, label) triples
    picked = (np.arange(runs)[:, None], np.arange(n), labels)
    logits -= logits.max(axis=-1, keepdims=True)
    exp = np.exp(logits)
    expsum = exp.sum(axis=-1, keepdims=True)
    losses = np.add.reduce(np.log(expsum[..., 0]) - logits[picked], axis=-1) / n

    delta = exp
    delta /= expsum
    delta[picked] -= 1.0
    delta /= n

    for i in range(len(layers) - 1, -1, -1):
        gw, gb = grad_layers[i]
        np.matmul(activations[i].mT, delta, out=gw)
        np.add.reduce(delta, axis=-2, out=gb)
        if i > 0:
            delta = delta @ layers[i][0].mT
            delta *= activations[i] > 0.0  # a unit that is off or dropped passes none
            for k, _, keep in dropped:
                delta[k] /= keep
    return (float(losses[0]) if lone else losses.tolist()), grad


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
