"""Desk-scale dataset supply: synthetic generators, CSV/IDX ingestion, splits.

Generators are pure functions of (parameters, seed). CSV is the interchange
format for all analysis outputs: header row `f0,...,f{d-1},label`, features
written as shortest round-trippable decimals, labels as integers.
"""
from __future__ import annotations

import csv
import math
import struct
from array import array
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .cmdline import SOURCES
from .errors import FormatError, InputError
from .store import write_atomically

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# Cells per block of save_csv: each block formats its distinct float64 bit
# patterns once. A block's texts stay alive until it is joined, about 1 MB of
# strings at 16,384 distinct cells.
CSV_BLOCK_CELLS = 16_384
# Bytes per chunk of load_csv's byte reader, which holds about 100 bytes per
# cell of a chunk. At 64 KB, 784-column pixel rows make chunks of about 4,700
# cells, and each bytes object and array of a chunk stays under 128 KB, where
# glibc's default malloc maps fresh pages: reading a 2.7 MB split in a new
# process took 2,348 page faults and 30 ms against 5,026 and 42 ms with 128 KB
# chunks. Under the `snapens` entry's malloc policy 64, 128 and 256 KB chunks
# took 483, 772 and 1,250 faults and 31, 27 and 25 ms (medians of 15
# processes, quartiles 10-17 ms apart, 2 vCPUs): no gain beyond the spread,
# so the chunk stays where in-process callers read fastest.
CSV_CHUNK_BYTES = 1 << 16
# Longest cell the byte reader keys: every float64 repr fits in 24 bytes.
_KEY_BYTES = 24
# _KEY_MASKS[w][n]: the bits of key word w that hold bytes of an n-byte cell.
_KEY_MASKS = np.array(
    [[(1 << 8 * min(max(n - 8 * w, 0), 8)) - 1 for n in range(_KEY_BYTES + 1)] for w in range(3)],
    np.uint64,
)
_HASH_MULTIPLIERS = tuple(map(np.uint64, (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9)))
_NEWLINE, _RETURN, _COMMA = ord("\n"), ord("\r"), ord(",")


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


def can_allocate(size: int) -> bool:
    """Whether this process can allocate `size` bytes. The request writes no
    memory, and one the kernel cannot grant fails at once, so a command can
    check a size before it makes anything."""
    try:
        np.empty(size, dtype=np.uint8)
    except (MemoryError, ValueError):  # ValueError: more bytes than an array can index
        return False
    return True


def _check_rows_fit(n: int) -> None:
    """Raise InputError, naming n, when this process cannot allocate the
    inputs and labels of n generated rows: two float64 features and an
    int64 label each."""
    size = 24 * n
    if not can_allocate(size):
        raise InputError(f"n={n} needs {size} bytes, more than this process can allocate")


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
    _check_rows_fit(n)
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
    _check_rows_fit(n)
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
    _check_rows_fit(n)
    size = 16 * class_count  # the centers
    if not can_allocate(size):
        raise InputError(f"classes={class_count} needs {size} bytes, more than this process can allocate")
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
# The sources are named in `cmdline.SOURCES`, which `gen-data --help` reads without numpy.
GENERATORS = dict(zip(SOURCES, (
    (gen_two_moons, (("n", 1000), ("noise", 0.1), ("seed", 0))),
    (gen_spirals, (("n", 2000), ("turns", 2.0), ("noise", 0.08), ("seed", 0))),
    (gen_blobs, (("n", 900), ("classes", 3), ("spread", 0.5), ("seed", 0))),
), strict=True))


def csv_chunks(dataset: Dataset):
    """The bytes of `save_csv`'s file, as a sequence of blocks.

    Rows go out in blocks of about `CSV_BLOCK_CELLS` cells, so memory stays
    flat, and each distinct float64 bit pattern in a block is formatted
    once (bit patterns, not values, so -0.0 and 0.0 keep their own text).
    """
    inputs = dataset.inputs
    n, d = inputs.shape
    step = max(1, CSV_BLOCK_CELLS // d)
    labels = dataset.labels.tolist()
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


def save_csv(dataset: Dataset, path) -> None:
    """Write `f0,...,f{d-1},label` rows; floats round-trip exactly via repr.

    The bytes equal `csv.writer`'s (CRLF line ends; no cell needs quoting);
    `csv_chunks` renders them. The file is written atomically: a failed
    write leaves the old file.
    """
    write_atomically(path, csv_chunks(dataset), "CSV")


def load_csv(path, label_column: str = "label") -> Dataset:
    """Read a numeric CSV with a header; `label_column` holds integer classes.

    A plain file (ASCII; no `"` or NUL; every `\\r` before a `\\n`; data
    cells of 1 to 24 bytes, which every `save_csv` file is) is read from its
    bytes in chunks of about `CSV_CHUNK_BYTES`: each distinct cell text of
    a chunk goes through `float()` once, and each distinct label text
    through `int()`. Any other file, and any plain file with a fault, is
    read row by row through `csv.reader` by `_load_csv_rows`, which gives
    the same values and words every fault.
    """
    try:
        return _load_plain_csv(path, label_column)
    except _NotPlain:
        pass  # read again outside the handler, so a fault does not chain to _NotPlain
    return _load_csv_rows(path, label_column)


class _NotPlain(Exception):
    """The file is not plain, or has a fault: `_load_csv_rows` must read it."""


def _load_plain_csv(path, label_column) -> Dataset:
    """The dataset of a plain, faultless CSV file; _NotPlain for any other.

    A first pass counts the lines, so each chunk's rows go straight into
    the dataset's arrays."""
    with open(path, "rb") as fh:
        rows = _line_count(fh) - 1
        fh.seek(0)
        chunks = _plain_chunks(fh)
        head = next(chunks, b"\n")
        cut = head.index(b"\n")
        header = head[:cut].decode("ascii").split(",") if cut else []
        # csv.reader rejects a cell past its field size limit
        if rows < 1 or label_column not in header or max(map(len, header)) > csv.field_size_limit():
            raise _NotPlain
        label_idx = header.index(label_column)
        inputs = np.empty((rows, len(header) - 1))
        labels = np.empty(rows, np.int64)
        done = 0
        for chunk in chain((head[cut + 1 :],), chunks):
            if chunk:
                done = _plain_block(chunk, label_idx, inputs, labels, done)
    if done != rows:
        raise _NotPlain
    return Dataset(inputs, labels, int(labels.max()) + 1)


def _line_count(fh) -> int:
    """Lines in `fh` from its position on, a last one without a newline included."""
    count, last = 0, b"\n"
    while block := fh.read(CSV_CHUNK_BYTES):
        count += np.count_nonzero(np.frombuffer(block, np.uint8) == _NEWLINE)
        last = block[-1:]
    return count + (last != b"\n")


def _plain_chunks(fh):
    """The bytes of `fh` in chunks of whole lines of about `CSV_CHUNK_BYTES`,
    with `\\r\\n` line ends made `\\n` and a `\\n` after the last line;
    _NotPlain at the first chunk that is not plain."""
    rest = b""
    while block := fh.read(CSV_CHUNK_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut:
            yield _plain_text(rest + block[:cut])
            rest = block[cut:]
        else:
            rest += block
    if rest:
        yield _plain_text(rest) + b"\n"


def _plain_text(chunk: bytes) -> bytes:
    """`chunk` with its `\\r\\n` made `\\n`; _NotPlain unless it is plain."""
    # bytes methods and numpy: a memoryview or a Python loop would scan byte
    # by byte, and replace(b"\r\n", b"\n") takes about 40 times replace(b"\r", b"")
    if not chunk.isascii() or b'"' in chunk or b"\0" in chunk:
        raise _NotPlain
    if b"\r" in chunk:
        codes = np.frombuffer(chunk, np.uint8)
        after = np.flatnonzero(codes == _RETURN) + 1
        if after[-1] == len(codes) or (codes[after] != _NEWLINE).any():
            raise _NotPlain
        chunk = chunk.replace(b"\r", b"")
    return chunk


def _plain_block(chunk: bytes, label_idx: int, inputs, labels, done: int) -> int:
    """Read `chunk`, whole `\\n`-ended lines of one cell per column of
    `inputs` plus the label, into `inputs` and `labels` from row `done` on;
    return the rows done after it. Each distinct feature text goes through
    `float()` once, and each distinct label text through `_labels`."""
    width = inputs.shape[1] + 1
    lines = np.frombuffer(chunk, np.uint8)
    rows = np.count_nonzero(lines == _NEWLINE)
    if done + rows > len(labels):
        raise _NotPlain
    flat = chunk.replace(b"\n", b",") + bytes(_KEY_BYTES)
    ends = np.flatnonzero(np.frombuffer(flat, np.uint8) == _COMMA)
    if ends.size != rows * width or not (lines[ends[width - 1 :: width]] == _NEWLINE).all():
        raise _NotPlain
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    if lengths.min() < 1 or lengths.max() > _KEY_BYTES:
        raise _NotPlain
    group, heads = _group_cells(flat, starts, lengths)
    text = chunk.decode("ascii")
    texts = list(map(text.__getitem__, map(slice, starts[heads].tolist(), ends[heads].tolist())))
    group = group.reshape(rows, width)
    label_group = group[:, label_idx]
    is_label = np.zeros(len(texts), bool)
    is_label[label_group] = True
    label_groups = np.flatnonzero(is_label)
    try:
        label_values = _labels(map(texts.__getitem__, label_groups.tolist()))
        values = np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:
        raise _NotPlain from None
    if not np.isfinite(values).all():
        raise _NotPlain
    label_table = np.zeros(len(texts), np.int64)
    label_table[label_groups] = label_values
    labels[done : done + rows] = label_table[label_group]
    row_values = values[group]
    inputs[done : done + rows, :label_idx] = row_values[:, :label_idx]
    inputs[done : done + rows, label_idx:] = row_values[:, label_idx + 1 :]
    return done + rows


def _group_cells(flat: bytes, starts, lengths) -> tuple[np.ndarray, np.ndarray]:
    """(group of each cell, first cell of each group) for the cells of `flat`
    at `starts`: cells share a group only if their bytes are equal.

    A cell's key is its bytes, zero-padded to `_KEY_BYTES`, as three
    little-endian uint64 words. One sort of (hash | cell index) puts equal
    keys side by side, and a group is a run of equal keys: a hash collision
    can split a group, costing one more `float()`, but never join two texts.
    """
    n = starts.size
    # the _KEY_BYTES bytes from each byte of `flat` on, one field per byte
    windows = np.ndarray((len(flat) - _KEY_BYTES + 1,), f"V{_KEY_BYTES}", flat, 0, (1,))
    keys = windows[starts]
    words = keys.view("<u8").reshape(n, 3)
    for w in range(3):
        words[:, w] &= _KEY_MASKS[w][lengths]
    bits = max(1, (n - 1).bit_length())
    order = _key_hash(words)
    order >>= np.uint64(bits)
    order <<= np.uint64(bits)
    order |= np.arange(n, dtype=np.uint64)
    order.sort()
    order &= np.uint64((1 << bits) - 1)
    order = order.view(np.intp)
    ordered = keys[order].view("<u8").reshape(n, 3)
    first = np.empty(n, bool)
    first[0] = True
    np.not_equal(ordered[1:, 0], ordered[:-1, 0], out=first[1:])
    first[1:] |= ordered[1:, 1] != ordered[:-1, 1]
    first[1:] |= ordered[1:, 2] != ordered[:-1, 2]
    group = np.empty(n, np.intp)
    group[order] = np.cumsum(first) - 1
    return group, order[first]


def _key_hash(words: np.ndarray) -> np.ndarray:
    """A uint64 hash of each row of three key words; its high bits order the sort."""
    h = words[:, 0] * _HASH_MULTIPLIERS[0]
    h ^= words[:, 1] * _HASH_MULTIPLIERS[1]
    h ^= words[:, 2] * _HASH_MULTIPLIERS[2]
    return h


def _load_csv_rows(path, label_column: str = "label") -> Dataset:
    """`load_csv` through `csv.reader`, for any file: the path that words faults.

    Rows are read one at a time, and the first fault raises: a line that is
    not UTF-8 or not CSV, and within a row the cell count, then the label,
    then the first non-numeric or non-finite feature. Features collect in one
    flat `array("d")`, 8 bytes a cell.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise FormatError(f"{path}: empty file, expected a header row")
            if label_column not in header:
                raise FormatError(f"{path}: missing column {label_column!r}")
            label_idx = header.index(label_column)
            columns = header[:label_idx] + header[label_idx + 1 :]
            features, labels = array("d"), array("q")
            for i, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise FormatError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
                try:
                    labels.extend(_labels((row.pop(label_idx),)))
                except ValueError:
                    raise FormatError(
                        f"{path}: row {i}, column {label_column!r}: not an integer label in [0, 2**63)"
                    ) from None
                try:
                    values = array("d", map(float, row))
                    # a nan or inf makes the sum one; an overflowing sum only costs the look below
                    finite = math.isfinite(sum(values))
                except ValueError:
                    finite = False
                if not finite:
                    for name, cell in zip(columns, row):
                        try:
                            fault = None if math.isfinite(float(cell)) else "not finite"
                        except ValueError:
                            fault = "not numeric"
                        if fault:
                            raise FormatError(f"{path}: row {i}, column {name!r}: {fault}")
                features += values
        except UnicodeDecodeError:
            raise FormatError(f"{path}: not UTF-8 text") from None
        except csv.Error as exc:
            raise FormatError(f"{path}: line {reader.line_num}: {exc}") from None
    if not labels:
        raise FormatError(f"{path}: no data rows")
    labels = np.frombuffer(labels, np.int64)
    return Dataset(np.frombuffer(features).reshape(len(labels), len(columns)), labels, int(labels.max()) + 1)


def _labels(texts) -> list[int]:
    """`int()` of each label text; ValueError unless every one lies in
    [0, 2**63), the label rule, so the labels fit int64 and index classes."""
    values = list(map(int, texts))
    if values and (min(values) < 0 or max(values) >= 2**63):
        raise ValueError("label out of range")
    return values


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
