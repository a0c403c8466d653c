"""Desk-scale dataset supply: synthetic generators, CSV/IDX ingestion, splits.

Generators are pure functions of (parameters, seed). CSV is the interchange
format for all analysis outputs: header row `f0,...,f{d-1},label`, features
written as shortest round-trippable decimals, labels as integers.
"""
from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

from .errors import FormatError, InputError
from .store import write_atomically

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# Cells per block in save_csv/load_csv: each block converts its distinct values
# once. A block's cell texts stay alive until it is converted, about 1 MB of
# strings at 16,384 cells.
CSV_BLOCK_CELLS = 16_384
# load_csv converts a block cell by cell when over half of its first cells differ.
_DISTINCT_SAMPLE_CELLS = 1_024


@dataclass
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise InputError("dataset needs a nonempty 2-d input matrix")
        if self.labels.shape != (self.inputs.shape[0],):
            raise InputError("labels length must match the number of input rows")
        if not np.all(np.isfinite(self.inputs)):
            raise InputError("dataset inputs must be finite")
        if self.class_count < 1:
            raise InputError("class_count must be >= 1")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise InputError("labels must lie in [0, class_count)")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _rng(seed: int, name: str) -> np.random.Generator:
    """numpy's generator for a seed, which must be a non-negative integer."""
    if seed < 0:
        raise InputError(f"{name} must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def gen_two_moons(n: int, noise_sigma: float, seed: int) -> Dataset:
    """Two interleaved unit semicircles, n/2 points each, plus Gaussian noise.

    Class 0 sits on the upper unit semicircle (cos phi, sin phi); class 1 on
    (1 - cos phi, 0.5 - sin phi), phi uniform in [0, pi].
    """
    if n < 2 or n % 2 != 0:
        raise InputError("two_moons needs an even n >= 2")
    if noise_sigma < 0:
        raise InputError("noise_sigma must be >= 0")
    half = n // 2
    rng = _rng(seed, "seed")
    phi_upper = rng.uniform(0.0, math.pi, half)
    phi_lower = rng.uniform(0.0, math.pi, half)
    upper = np.column_stack([np.cos(phi_upper), np.sin(phi_upper)])
    lower = np.column_stack([1.0 - np.cos(phi_lower), 0.5 - np.sin(phi_lower)])
    inputs = np.vstack([upper, lower]) + noise_sigma * rng.standard_normal((n, 2))
    labels = np.concatenate([np.zeros(half, np.int64), np.ones(half, np.int64)])
    return Dataset(inputs, labels, 2)


def gen_spirals(n: int, turns: float, noise_sigma: float, seed: int) -> Dataset:
    """Two-arm Archimedean spiral, radius proportional to angle (r = theta/3pi).

    Angles span `turns` revolutions starting at 10% of the sweep, so radii
    stay strictly positive and the noise-free arms never coincide; arm 1 is
    arm 0 reflected through the origin, leaving a radial gap of 1/3 between
    the classes.
    """
    if n < 2 or n % 2 != 0:
        raise InputError("spirals needs an even n >= 2")
    if turns <= 0:
        raise InputError("turns must be > 0")
    if noise_sigma < 0:
        raise InputError("noise_sigma must be >= 0")
    half = n // 2
    rng = _rng(seed, "seed")
    sweep = 2.0 * math.pi * turns

    def arm(count):
        theta = (0.1 + 0.9 * rng.random(count)) * sweep
        radius = theta / (3.0 * math.pi)
        return np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])

    arm0 = arm(half)
    arm1 = -arm(half)
    inputs = np.vstack([arm0, arm1]) + noise_sigma * rng.standard_normal((n, 2))
    labels = np.concatenate([np.zeros(half, np.int64), np.ones(half, np.int64)])
    return Dataset(inputs, labels, 2)


def gen_blobs(n: int, class_count: int, spread: float, seed: int) -> Dataset:
    """K isotropic Gaussian clusters at seeded random centers in [-4, 4]^2."""
    if n < 1:
        raise InputError("blobs needs n >= 1")
    if class_count < 1:
        raise InputError("blobs needs class_count >= 1")
    if spread < 0:
        raise InputError("spread must be >= 0")
    rng = _rng(seed, "seed")
    centers = rng.uniform(-4.0, 4.0, (class_count, 2))
    base, extra = divmod(n, class_count)
    counts = [base + (1 if k < extra else 0) for k in range(class_count)]
    chunks = []
    labels = []
    for k, count in enumerate(counts):
        if count == 0:
            continue
        chunks.append(centers[k] + spread * rng.standard_normal((count, 2)))
        labels.extend([k] * count)
    return Dataset(np.vstack(chunks), np.array(labels, np.int64), class_count)


# Synthetic source -> (generator, ((param, config default), ...)): the generator's
# positional arguments in order, named as `data.params` keys and `gen-data` flags.
GENERATORS = {
    "two_moons": (gen_two_moons, (("n", 1000), ("noise", 0.1), ("seed", 0))),
    "spirals": (gen_spirals, (("n", 2000), ("turns", 2.0), ("noise", 0.08), ("seed", 0))),
    "blobs": (gen_blobs, (("n", 900), ("classes", 3), ("spread", 0.5), ("seed", 0))),
}


def save_csv(dataset: Dataset, path) -> None:
    """Write `f0,...,f{d-1},label` rows; floats round-trip exactly via repr.

    The bytes equal `csv.writer`'s (CRLF line ends; no cell needs quoting).
    Rows go out in blocks of about `CSV_BLOCK_CELLS` cells, so memory stays
    flat, and each distinct float64 bit pattern in a block is formatted
    once (bit patterns, not values, so -0.0 and 0.0 keep their own text).
    The file is written atomically: a failed write leaves the old file.
    """
    inputs = dataset.inputs
    n, d = inputs.shape
    step = max(1, CSV_BLOCK_CELLS // d)
    labels = dataset.labels.tolist()

    def chunks():
        yield (",".join([f"f{j}" for j in range(d)] + ["label"]) + "\r\n").encode()
        for start in range(0, n, step):
            bits = inputs[start : start + step].view(np.uint64)
            distinct, codes = np.unique(bits, return_inverse=True)
            texts = list(map(repr, distinct.view(np.float64).tolist()))
            cells = list(map(texts.__getitem__, codes.ravel().tolist()))
            yield "".join(
                f"{','.join(cells[k : k + d])},{label}\r\n"
                for k, label in zip(range(0, len(cells), d), labels[start : start + step])
            ).encode()

    write_atomically(path, chunks(), "CSV")


def load_csv(path, label_column: str = "label") -> Dataset:
    """Read a numeric CSV with a header; `label_column` holds integer classes.

    Rows convert in blocks of about `CSV_BLOCK_CELLS` cells, each distinct
    cell text through `float()` once (or, in a block whose texts are mostly
    distinct, each cell). Faults are reported as a row-by-row read would
    meet them: the first faulty row wins, and within a row the cell count
    comes first, then the label, then the first non-numeric or non-finite
    feature.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv_rows(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file, expected a header row") from None
        if label_column not in header:
            raise FormatError(f"{path}: missing column {label_column!r}")
        label_idx = header.index(label_column)
        step = max(1, CSV_BLOCK_CELLS // len(header))
        blocks = []
        labels = []
        block = []
        try:
            for row in reader:
                block.append(row)
                if len(block) == step:
                    blocks.append(_parse_rows(block, len(labels) + 2, header, label_idx, labels, path))
                    block = []
        except FormatError:
            # a fault in a row read before the bad CSV syntax is reported first
            _parse_rows(block, len(labels) + 2, header, label_idx, labels, path)
            raise
    if block:
        blocks.append(_parse_rows(block, len(labels) + 2, header, label_idx, labels, path))
    if not labels:
        raise FormatError(f"{path}: no data rows")
    labels = np.array(labels, np.int64)
    return Dataset(np.concatenate(blocks), labels, int(labels.max()) + 1)


def _parse_rows(rows, first_row, header, label_idx, labels, path) -> np.ndarray:
    """Feature matrix of `rows` (file rows from `first_row` on); appends their
    labels to `labels`. The label cells go through `float()` with the rest
    (a text `int()` accepts, `float()` accepts) and are dropped after."""
    width = len(header)
    if set(map(len, rows)) - {width}:
        _raise_first_fault(rows, first_row, header, label_idx, path)
    try:
        block_labels = _labels(map(itemgetter(label_idx), rows))
        cells = list(chain.from_iterable(rows))
        sample = cells[:_DISTINCT_SAMPLE_CELLS]
        if 2 * len(set(sample)) > len(sample):
            # mostly distinct texts: a table would cost more than it saves
            values = np.fromiter(map(float, cells), np.float64, len(cells))
        else:
            table = dict.fromkeys(cells)
            table = dict(zip(table, map(float, table)))
            values = np.fromiter(map(table.__getitem__, cells), np.float64, len(cells))
    except ValueError:
        _raise_first_fault(rows, first_row, header, label_idx, path)
        raise
    if not np.isfinite(values).all():
        _raise_first_fault(rows, first_row, header, label_idx, path)
    labels += block_labels
    return np.delete(values.reshape(len(rows), width), label_idx, axis=1)


def _raise_first_fault(rows, first_row, header, label_idx, path) -> None:
    """Check `rows` one by one as a row-by-row reader would and raise the
    FormatError of the first fault."""
    for i, row in enumerate(rows, start=first_row):
        if len(row) != len(header):
            raise FormatError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
        try:
            _labels((row[label_idx],))
        except ValueError:
            raise FormatError(
                f"{path}: row {i}, column {header[label_idx]!r}: not an integer label in [0, 2**63)"
            ) from None
        for j, cell in enumerate(row):
            if j != label_idx and (fault := _feature_fault(cell)):
                raise FormatError(f"{path}: row {i}, column {header[j]!r}: {fault}")


def _labels(texts) -> list[int]:
    """`int()` of each label text; ValueError unless every one lies in
    [0, 2**63), the label rule, so the labels fit int64 and index classes."""
    values = list(map(int, texts))
    if values and (min(values) < 0 or max(values) >= 2**63):
        raise ValueError("label out of range")
    return values


def _csv_rows(fh, path):
    """`csv.reader` rows, raising FormatError on bytes that are not UTF-8 or bad CSV."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None


def _feature_fault(cell: str) -> str | None:
    """Why `cell` is no feature value, or None when it is one."""
    try:
        return None if math.isfinite(float(cell)) else "not finite"
    except ValueError:
        return "not numeric"


def load_idx(images_path, labels_path) -> Dataset:
    """Read an IDX image/label pair; pixels scale to [0, 1] as value / 255."""
    with open(images_path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise FormatError(f"{images_path}: truncated IDX image header")
    magic, count, rows, cols = struct.unpack(">IIII", blob[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise FormatError(f"{images_path}: bad images magic 0x{magic:08x}")
    if count == 0:
        raise FormatError(f"{images_path}: no images")
    payload = blob[16:]
    if len(payload) != count * rows * cols:
        raise FormatError(f"{images_path}: images payload length mismatch")
    inputs = np.frombuffer(payload, np.uint8).astype(np.float64).reshape(count, rows * cols)
    inputs /= 255.0  # in place: one N x D float64 array

    with open(labels_path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise FormatError(f"{labels_path}: truncated IDX label header")
    magic, label_count = struct.unpack(">II", blob[:8])
    if magic != IDX_LABELS_MAGIC:
        raise FormatError(f"{labels_path}: bad labels magic 0x{magic:08x}")
    if len(blob) - 8 != label_count:
        raise FormatError(f"{labels_path}: labels payload length mismatch")
    if label_count != count:
        raise FormatError("image/label count mismatch")
    labels = np.frombuffer(blob[8:], np.uint8).astype(np.int64)
    return Dataset(inputs, labels, int(labels.max()) + 1)


def split(dataset: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded permutation split into (train, test); both sides nonempty."""
    if not 0.0 < train_fraction < 1.0:
        raise InputError("train_fraction must lie strictly between 0 and 1")
    n = len(dataset)
    n_train = math.floor(train_fraction * n)
    if n_train < 1 or n_train >= n:
        raise InputError(f"split of {n} examples at {train_fraction} leaves one side empty")
    order = _rng(seed, "split_seed").permutation(n)
    train_idx, test_idx = order[:n_train], order[n_train:]
    k = dataset.class_count
    return (
        Dataset(dataset.inputs[train_idx], dataset.labels[train_idx], k),
        Dataset(dataset.inputs[test_idx], dataset.labels[test_idx], k),
    )


@dataclass
class NormStats:
    mean: np.ndarray
    std: np.ndarray


def normalize(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset, NormStats]:
    """Standardize both sides with per-feature mean/std computed on train only.

    Features with zero std on the training side map to all-zero columns.
    """
    mean = train.inputs.mean(axis=0)
    std = train.inputs.std(axis=0)
    safe = np.where(std == 0.0, 1.0, std)

    def apply(ds: Dataset) -> Dataset:
        scaled = (ds.inputs - mean) / safe
        scaled[:, std == 0.0] = 0.0
        return Dataset(scaled, ds.labels, ds.class_count)

    return apply(train), apply(test), NormStats(mean, std)
