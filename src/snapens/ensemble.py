"""Test-time ensembling: softmax averaging, size sweeps, error-over-time."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .nn import Batch, ModelSpec, ParamVector, check_labels, forward, softmax
from .store import SnapshotRecord

ORDERS = ("latest", "earliest")


@dataclass
class PredictionMatrix:
    """Per-example softmax outputs of one model over one dataset."""

    probabilities: np.ndarray  # (n_examples, K), rows on the simplex
    source: str


@dataclass
class EnsembleResult:
    m: int
    member_errors: list[float]
    ensemble_error: float
    order: str


def predict(spec: ModelSpec, params: ParamVector, dataset, source: str = "") -> PredictionMatrix:
    """Eval-mode forward pass followed by softmax, one row per example."""
    logits = forward(spec, params, Batch(dataset.inputs, dataset.labels), "eval")
    return PredictionMatrix(softmax(logits), source)


def ensemble_average(members: Sequence[PredictionMatrix]) -> PredictionMatrix:
    """Elementwise arithmetic mean of member probabilities."""
    if len(members) == 0:
        raise InputError("ensemble_average needs at least one member")
    shape = members[0].probabilities.shape
    if any(m.probabilities.shape != shape for m in members):
        raise InputError("ensemble members must all have the same shape")
    stacked = np.stack([m.probabilities for m in members])
    source = "average(" + ",".join(m.source for m in members) + ")"
    return PredictionMatrix(stacked.mean(axis=0), source)


def _error_from_probs(probabilities: np.ndarray, labels: np.ndarray) -> float:
    predicted = np.argmax(probabilities, axis=1)  # ties -> lowest class index
    return float(np.mean(predicted != labels))


def _check_order(order: str) -> None:
    if order not in ORDERS:
        raise InputError(f"order must be one of {ORDERS}, got {order!r}")


def _take(members: Sequence, m: int, order: str) -> Sequence:
    """The m members at the chosen end of a chronological sequence."""
    return members[-m:] if order == "latest" else members[:m]


def _predict_all(records: Sequence[SnapshotRecord], dataset) -> list[PredictionMatrix]:
    return [
        predict(r.spec, r.params, dataset, source=f"snapshot_{r.cycle_index}") for r in records
    ]


def ensemble_eval(
    records: Sequence[SnapshotRecord],
    dataset,
    m: int,
    order: str = "latest",
) -> EnsembleResult:
    """Average m snapshots from the chosen end and score the argmax error.

    `records` must be in chronological order; `latest` takes the last m,
    `earliest` the first m.
    """
    _check_order(order)
    if not 1 <= m <= len(records):
        raise InputError(f"m={m} outside valid range [1, {len(records)}]")
    chosen = _take(records, m, order)
    labels = check_labels(chosen[0].spec, dataset.labels)
    predictions = _predict_all(chosen, dataset)
    member_errors = [_error_from_probs(p.probabilities, labels) for p in predictions]
    averaged = ensemble_average(predictions)
    return EnsembleResult(m, member_errors, _error_from_probs(averaged.probabilities, labels), order)


def _growing_errors(predictions: Sequence[PredictionMatrix], labels, order: str) -> list[float]:
    """Ensemble error of the m predictions at the chosen end, for m = 1..M."""
    return [
        _error_from_probs(ensemble_average(_take(predictions, m, order)).probabilities, labels)
        for m in range(1, len(predictions) + 1)
    ]


def ensemble_sweep(
    records: Sequence[SnapshotRecord], dataset, order: str = "latest"
) -> list[float]:
    """Ensemble error for every m = 1..M, predicting each snapshot once.

    Entry m - 1 equals `ensemble_eval(records, dataset, m, order).ensemble_error`
    bit for bit: it averages the same prediction arrays in the same order.
    """
    _check_order(order)
    if len(records) == 0:
        raise InputError("ensemble_sweep needs at least one snapshot")
    labels = check_labels(records[0].spec, dataset.labels)
    return _growing_errors(_predict_all(records, dataset), labels, order)


def error_over_time(
    records: Sequence[SnapshotRecord], dataset
) -> list[tuple[int, float, float]]:
    """Rows (k, standalone error of snapshot k, error of the earliest-k ensemble)."""
    if len(records) == 0:
        raise InputError("error_over_time needs at least one snapshot")
    labels = check_labels(records[0].spec, dataset.labels)
    predictions = _predict_all(records, dataset)
    singles = [_error_from_probs(p.probabilities, labels) for p in predictions]
    ensembled = _growing_errors(predictions, labels, "earliest")  # same path as ensemble_eval
    return list(zip(range(1, len(predictions) + 1), singles, ensembled))
