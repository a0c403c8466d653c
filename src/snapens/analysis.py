"""Diversity diagnostics: parameter-space interpolation, softmax correlation."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cmdline import POINTS
from .errors import InputError, UndefinedCorrelationError
from .ensemble import PredictionMatrix
from .nn import SGD_BLOCK, ModelSpec, ParamVector, evaluate_error


@dataclass
class InterpolationCurve:
    """Test error along the line lam*theta1 + (1-lam)*theta2.

    lam=1 is entirely theta1, lam=0 entirely theta2.
    """

    lambdas: np.ndarray
    errors: np.ndarray


def default_lambda_grid(points: int = POINTS) -> np.ndarray:
    if points < 1:
        raise InputError(f"a lambda grid needs at least 1 point, got {points}")
    return np.linspace(0.0, 1.0, points)


def interpolate(
    spec: ModelSpec,
    theta1: ParamVector,
    theta2: ParamVector,
    dataset,
    lambda_grid: np.ndarray | None = None,
    theta1_error: float | None = None,
) -> InterpolationCurve:
    """Evaluate test error at every convex combination on the lambda grid.

    A caller that already knows the test error of theta1 on `dataset`
    passes it in, and the lam=1 point takes it instead of a forward pass.
    Each interior point is mixed into one vector made once per curve,
    `SGD_BLOCK` elements at a time through one block-sized temporary, with
    the float operations of `lam*theta1 + (1-lam)*theta2`.
    """
    theta1 = np.asarray(theta1, dtype=np.float64)
    theta2 = np.asarray(theta2, dtype=np.float64)
    if theta1.shape != theta2.shape:
        raise InputError("theta1 and theta2 must have the same length")
    grid = default_lambda_grid() if lambda_grid is None else np.asarray(lambda_grid, np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise InputError("lambda_grid must be a nonempty 1-d sequence")
    if grid.min() < 0.0 or grid.max() > 1.0:
        raise InputError("lambda_grid values must lie in [0, 1]")
    if np.any(np.diff(grid) <= 0.0):
        raise InputError("lambda_grid must be strictly increasing")

    errors = np.empty_like(grid)
    mixed, other = np.empty_like(theta1), np.empty(min(SGD_BLOCK, len(theta1)))
    for i, lam in enumerate(grid):
        if lam == 0.0:
            point, known = theta2, None
        elif lam == 1.0:
            point, known = theta1, theta1_error
        else:
            for start in range(0, len(mixed), SGD_BLOCK):
                block = slice(start, start + SGD_BLOCK)
                out = np.multiply(theta1[block], lam, out=mixed[block])
                np.add(out, np.multiply(theta2[block], 1.0 - lam, out=other[: len(out)]), out=out)
            point, known = mixed, None
        errors[i] = evaluate_error(spec, point, dataset) if known is None else known
    return InterpolationCurve(grid, errors)


@dataclass
class CorrelationMatrix:
    """Symmetric Pearson matrix between snapshot prediction vectors."""

    values: np.ndarray  # (M, M), unit diagonal


def softmax_correlation(predictions: Sequence[PredictionMatrix]) -> CorrelationMatrix:
    """Pearson correlation between prediction matrices flattened over (example, class)."""
    if len(predictions) < 2:
        raise InputError("softmax_correlation needs at least two prediction matrices")
    shape = predictions[0].probabilities.shape
    if any(p.probabilities.shape != shape for p in predictions):
        raise InputError("prediction matrices must all have the same shape")

    centered = []
    norms = []
    for p in predictions:
        flat = p.probabilities.ravel().astype(np.float64)
        dev = flat - flat.mean()
        ss = float(dev @ dev)
        if ss == 0.0:
            raise UndefinedCorrelationError(
                f"zero-variance softmax outputs for snapshot {p.source!r}"
            )
        centered.append(dev)
        norms.append(math.sqrt(ss))

    count = len(predictions)
    values = np.eye(count)
    for i in range(count):
        for j in range(i + 1, count):
            r = float(centered[i] @ centered[j]) / (norms[i] * norms[j])
            values[i, j] = r
            values[j, i] = r
    return CorrelationMatrix(values)


def mean_offdiagonal(matrix: CorrelationMatrix) -> float:
    """Mean of the strictly off-diagonal correlation entries."""
    values = matrix.values
    count = values.shape[0]
    mask = ~np.eye(count, dtype=bool)
    return float(values[mask].mean())
