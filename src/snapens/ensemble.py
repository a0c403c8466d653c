"""Test-time ensembling: softmax averaging, size sweeps, error-over-time."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .nn import Batch, ModelSpec, ParamVector, check_labels, error_rate, forward, softmax
from .store import SnapshotRecord

ORDERS = ("latest", "earliest")


@dataclass
class PredictionMatrix:
    """Per-example softmax outputs of one model over one dataset."""

    probabilities: np.ndarray  # (n_examples, K), rows on the simplex
    source: str = ""


@dataclass
class EnsembleResult:
    m: int
    member_errors: list[float]
    ensemble_error: float


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
    return PredictionMatrix(np.stack([m.probabilities for m in members]).mean(axis=0))


def _take(members: Sequence, m: int, order: str) -> Sequence:
    """The m members at the chosen end of a chronological sequence."""
    return members[-m:] if order == "latest" else members[:m]


def _score(
    records: Sequence[SnapshotRecord], dataset, order: str
) -> tuple[list[float], list[float]]:
    """Member errors, and growing-ensemble errors for m = 1..M at the chosen end.

    Checks the labels once and predicts each record once, reading its
    parameters, which a `StoredSnapshot` reads from its file, only for that
    predict; entry m - 1 of the second list scores the mean of the m
    predictions `_take` picks.
    """
    if order not in ORDERS:
        raise InputError(f"order must be one of {ORDERS}, got {order!r}")
    if len(records) == 0:
        raise InputError("an ensemble needs at least one snapshot")
    labels = check_labels(records[0].spec, dataset.labels)
    predictions = [predict(r.spec, r.params, dataset) for r in records]
    ensembled = [
        error_rate(ensemble_average(_take(predictions, m, order)).probabilities, labels)
        for m in range(1, len(predictions) + 1)
    ]
    return [error_rate(p.probabilities, labels) for p in predictions], ensembled


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
    if not 1 <= m <= len(records):
        raise InputError(f"m={m} outside valid range [1, {len(records)}]")
    member_errors, ensembled = _score(_take(records, m, order), dataset, order)
    return EnsembleResult(m, member_errors, ensembled[-1])


def ensemble_sweep(
    records: Sequence[SnapshotRecord], dataset, order: str = "latest"
) -> list[float]:
    """Ensemble error for every m = 1..M, predicting each snapshot once.

    Entry m - 1 equals `ensemble_eval(records, dataset, m, order).ensemble_error`
    bit for bit: it averages the same prediction arrays in the same order.
    """
    return _score(records, dataset, order)[1]


def error_over_time(
    records: Sequence[SnapshotRecord], dataset
) -> list[tuple[int, float, float]]:
    """Rows (k, standalone error of snapshot k, error of the earliest-k ensemble)."""
    singles, ensembled = _score(records, dataset, "earliest")
    return list(zip(range(1, len(singles) + 1), singles, ensembled))
