"""Truncated or one-byte-corrupted inputs: every reader returns or raises a SnapensError.

Each test starts from a valid `.snap`, `.manifest`, CSV or IDX file, cuts it
short or replaces one byte, and reads it back. Any other exception (a raw
UnicodeDecodeError, numpy ValueError, KeyError, ...) fails the test.
"""
import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_reads_as_csv_reader
from oracles import write_idx_pair
from snapens.data import Dataset, gen_two_moons, load_csv, load_idx, save_csv
from snapens.errors import SnapensError
from snapens.nn import ModelSpec, param_count
from snapens.store import ManifestFile, SnapshotRecord, load_run, read_snapshot, write_manifest, write_snapshot

FUZZ = settings(max_examples=120, deadline=None)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory of small valid files, and their bytes by name."""
    base = tmp_path_factory.mktemp("valid")
    spec = ModelSpec((2, 3, 2))
    for i in (1, 2):
        params = np.random.default_rng(i).normal(size=param_count(spec))
        write_snapshot(SnapshotRecord(spec, params, i, 10 * i, 0.25, bytes(range(16))),
                       base / f"snap_00{i}.snap")
    write_manifest(ManifestFile(bytes(range(16)), ("snap_001.snap", "snap_002.snap")),
                   base / "run.manifest")
    save_csv(gen_two_moons(6, 0.1, seed=0), base / "data.csv")
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, (3, 784)) * (rng.random((3, 784)) < 0.4) / 255.0
    save_csv(Dataset(pixels, np.array([0, 2, 1]), 3), base / "pixels.csv")
    images = np.arange(3 * 2 * 2, dtype=np.uint8).reshape(3, 2, 2)
    write_idx_pair(base / "im.idx", base / "lb.idx", images, np.array([0, 1, 2], np.uint8))
    return base, {p.name: p.read_bytes() for p in base.iterdir()}


def corrupt(blob: bytes, data) -> bytes:
    """`blob` cut at a drawn length, or with one drawn byte replaced by another value."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[at]), label="byte")
    return blob[:at] + bytes([byte]) + blob[at + 1 :]


def read_corrupted(read, path, blob) -> None:
    path.write_bytes(blob)
    with contextlib.suppress(SnapensError):
        read(path)


@FUZZ
@given(data=st.data())
def test_corrupted_snapshot(valid, data):
    base, files = valid
    read_corrupted(read_snapshot, base / "fuzz.snap", corrupt(files["snap_001.snap"], data))


@FUZZ
@given(data=st.data())
def test_corrupted_manifest(valid, data):
    base, files = valid
    read_corrupted(load_run, base / "fuzz.manifest", corrupt(files["run.manifest"], data))


@FUZZ
@given(data=st.data())
def test_corrupted_csv(valid, data):
    base, files = valid
    read_corrupted(load_csv, base / "fuzz.csv", corrupt(files["data.csv"], data))


@FUZZ
@given(data=st.data())
def test_corrupted_pixel_csv_reads_as_csv_reader(valid, data):
    # 784 columns, mostly repeated texts: the byte reader's case
    base, files = valid
    path = base / "fuzz.csv"
    path.write_bytes(corrupt(files["pixels.csv"], data))
    assert_reads_as_csv_reader(path)


@FUZZ
@given(data=st.data(), labels_side=st.booleans())
def test_corrupted_idx(valid, data, labels_side):
    base, files = valid
    if labels_side:
        read_corrupted(lambda p: load_idx(base / "im.idx", p), base / "fuzz.idx",
                       corrupt(files["lb.idx"], data))
    else:
        read_corrupted(lambda p: load_idx(p, base / "lb.idx"), base / "fuzz.idx",
                       corrupt(files["im.idx"], data))
