import csv
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_reads_as_csv_reader
from oracles import write_idx_pair
from snapens import data
from snapens.data import (
    GENERATORS,
    Dataset,
    gen_blobs,
    gen_spirals,
    gen_two_moons,
    load_csv,
    load_idx,
    normalize,
    save_csv,
    split,
)
from snapens.errors import FormatError, InputError, StorageError
from snapens.nn import ModelSpec, evaluate_error
from snapens.schedule import ScheduleSpec
from snapens.trainer import TrainConfig, iterations_for, train


def test_two_moons_points_lie_on_their_circles_without_noise():
    ds = gen_two_moons(400, 0.0, seed=5)
    upper = ds.inputs[ds.labels == 0]
    lower = ds.inputs[ds.labels == 1]
    np.testing.assert_allclose(np.sum(upper**2, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(
        (lower[:, 0] - 1.0) ** 2 + (lower[:, 1] - 0.5) ** 2, 1.0, atol=1e-12
    )
    assert np.all(upper[:, 1] >= 0)


def test_two_moons_deterministic_per_seed():
    a = gen_two_moons(100, 0.2, seed=9)
    b = gen_two_moons(100, 0.2, seed=9)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_two_moons_odd_n_rejected():
    with pytest.raises(InputError):
        gen_two_moons(101, 0.1, seed=0)


def test_two_moons_is_learnable_to_under_ten_percent():
    # separability oracle: train a small net and check the test error
    full = gen_two_moons(1000, 0.1, seed=0)
    train_set, test_set = split(full, 0.5, seed=0)
    model = ModelSpec((2, 32, 32, 2))
    total = iterations_for(len(train_set), 32, 60)
    schedule = ScheduleSpec("cyclic_cosine", 0.2, total, 6)
    manifest = train(TrainConfig(model, schedule, "snapshot", 60, 32, seed=1), train_set)
    err = evaluate_error(model, manifest.snapshots[-1].params, test_set)
    assert err < 0.10


def test_spiral_arms_never_coincide_without_noise():
    ds = gen_spirals(400, 2.0, 0.0, seed=2)
    class0 = {tuple(p) for p in ds.inputs[ds.labels == 0]}
    class1 = {tuple(p) for p in ds.inputs[ds.labels == 1]}
    assert not class0 & class1
    radii = np.linalg.norm(ds.inputs, axis=1)
    assert radii.min() > 0.0


def test_spirals_validation():
    with pytest.raises(InputError):
        gen_spirals(3, 2.0, 0.1, 0)
    with pytest.raises(InputError):
        gen_spirals(10, 0.0, 0.1, 0)
    with pytest.raises(InputError):
        gen_spirals(10, 2.0, -0.1, 0)


def test_spirals_round_trip_through_csv_exactly(tmp_path):
    ds = gen_spirals(2000, 2.0, 0.08, seed=7)
    path = tmp_path / "spirals.csv"
    save_csv(ds, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.inputs, ds.inputs)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.class_count == ds.class_count


def _csv_writer_bytes(ds: Dataset, path) -> bytes:
    """Reference `save_csv` bytes: one `repr` per cell through `csv.writer`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(ds.inputs.shape[1])] + ["label"])
        for row, label in zip(ds.inputs, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])
    return path.read_bytes()


def test_save_csv_bytes_match_csv_writer(tmp_path):
    spirals = gen_spirals(200, 2.0, 0.08, seed=7)
    extremes = np.array([[-0.0, 5e-324], [1e22, -1.5e-07], [0.1, 1.0], [-1e-300, 123456789.0]])
    ds = Dataset(np.vstack([spirals.inputs, extremes]), np.append(spirals.labels, [1, 0, 1, 0]), 2)
    path = tmp_path / "saved.csv"
    save_csv(ds, path)
    assert path.read_bytes() == _csv_writer_bytes(ds, tmp_path / "reference.csv")
    assert load_csv(path).inputs.tobytes() == ds.inputs.tobytes()


def test_failed_save_csv_keeps_the_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "split.csv"
    save_csv(gen_two_moons(20, 0.1, seed=1), path)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError(28, "No space left on device", str(dst))

    monkeypatch.setattr("os.replace", refuse)
    with pytest.raises(StorageError, match="split.csv"):
        save_csv(gen_two_moons(40, 0.1, seed=2), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["split.csv"]


def _signed_zeros_and_extremes() -> Dataset:
    """One column: -0.0 before 0.0 in the first rows, 0.0 before -0.0 at the
    end, and 140,000 rows: several blocks of any block size up to 65,536
    cells, and several byte chunks."""
    column = np.tile([0.25, 5e-324, 1e22, 0.5], 35_000)
    column[:4] = (-0.0, 0.0, 5e-324, 1e22)
    column[-3:] = (0.0, -0.0, 0.0)
    return Dataset(column[:, None], np.arange(column.size) % 3, 3)


def _pixels(rows: int, seed: int) -> Dataset:
    """`rows` 784-column rows of pixel values k / 255, mostly 0.0: a few
    hundred distinct texts, like a CSV split of 28x28 images."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, (rows, 784)) * (rng.random((rows, 784)) < 0.4) / 255.0
    return Dataset(pixels, rng.integers(0, 10, rows), 10)


def test_save_csv_keeps_signed_zeros_and_extremes_apart_across_blocks(tmp_path):
    ds = _signed_zeros_and_extremes()
    path = tmp_path / "saved.csv"
    save_csv(ds, path)
    assert path.read_bytes() == _csv_writer_bytes(ds, tmp_path / "reference.csv")
    cells = [line.split(b",")[0] for line in path.read_bytes().split(b"\r\n")]
    assert cells[1:5] == [b"-0.0", b"0.0", b"5e-324", b"1e+22"]
    assert cells[-4:-1] == [b"0.0", b"-0.0", b"0.0"]
    back = load_csv(path)
    assert back.inputs.tobytes() == ds.inputs.tobytes()
    assert np.signbit(back.inputs[[0, -2], 0]).all()


def test_load_csv_duplicate_heavy_file_round_trips_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 256, (400, 300)).astype(np.float64) / 255.0
    pixels[::7, ::5] = -0.0
    ds = Dataset(pixels, rng.integers(0, 10, 400), 10)  # 120,000 cells, 121 distinct
    path = tmp_path / "pixels.csv"
    save_csv(ds, path)
    assert path.read_bytes() == _csv_writer_bytes(ds, tmp_path / "reference.csv")
    back = load_csv(path)
    assert back.inputs.tobytes() == ds.inputs.tobytes()
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.class_count == int(ds.labels.max()) + 1


def _faulty_csv(path, width, faults, distinct):
    """`width` feature columns and 300 good rows, then `faults` maps a
    1-based file row (the header is row 1) to the row's replacement cells.
    Good rows repeat one row, or with `distinct` hold no value twice."""
    rows = [[f"f{j}" for j in range(width)] + ["label"]]
    rows += [
        [repr(i * width + j + 0.5 if distinct else j / 8) for j in range(width)] + [str(i % 2)]
        for i in range(300)
    ]
    for row, cells in faults.items():
        rows[row - 1] = cells
    path.write_text("".join(",".join(cells) + "\n" for cells in rows))
    return path


def _with(width, **cells):
    row = [repr(j / 8) for j in range(width)] + ["1"]
    for key, text in cells.items():
        row[width if key == "label" else int(key[1:])] = text
    return row


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("width", [2, 784])
@pytest.mark.parametrize(
    "faults, message",
    [
        # a bad feature in an early row wins over a bad label in a later one,
        # in the same block and blocks apart
        (lambda w: {3: _with(w, f1="oops"), 5: _with(w, label="x")}, r"row 3, column 'f1': not numeric"),
        (lambda w: {3: _with(w, f1="oops"), 250: _with(w, label="x")}, r"row 3, column 'f1'"),
        (lambda w: {5: _with(w, f1="oops"), 3: _with(w, label="x")}, r"row 3, column 'label'"),
        # within one row: the label is checked before the features
        (lambda w: {4: _with(w, f0="nan?", label="1.5")}, r"row 4, column 'label': not an integer"),
        # the first non-numeric column of a row is named
        (lambda w: {4: _with(w, f1="b", f0="a")}, r"row 4, column 'f0'"),
        # a short row and a bad cell: whichever row comes first
        (lambda w: {3: _with(w, f1="oops"), 4: ["1.0", "0"]}, r"row 3, column 'f1'"),
        (lambda w: {3: ["1.0", "0"], 4: _with(w, f1="oops")}, r"row 3 has 2 cells"),
        # within one row: the cell count is checked before the label
        (lambda w: {6: ["oops", "x"]}, r"row 6 has 2 cells"),
        # a bad cell and a line the CSV reader rejects: whichever comes first
        (lambda w: {3: _with(w, f1="oops"), 5: _with(w, f0="9" * 140_000)}, r"row 3, column 'f1'"),
        (lambda w: {5: _with(w, f1="oops"), 3: _with(w, f0="9" * 140_000)}, r"line 3: field larger"),
        # a label past int64, and an all-negative label column: the label rule
        # 0 <= label < 2**63 is checked row by row like any other label fault
        (lambda w: {5: _with(w, f1="oops"), 4: _with(w, label="9" * 20)},
         r"row 4, column 'label': not an integer label in \[0, 2\*\*63\)"),
        (lambda w: {r: _with(w, label="-1") for r in range(2, 302)}, r"row 2, column 'label': not an integer label"),
        # a feature float() reads but that is not finite is reported like a
        # non-numeric one, in the same order
        (lambda w: {4: _with(w, f1="inf")}, r"row 4, column 'f1': not finite"),
        (lambda w: {3: _with(w, f0="nan"), 5: _with(w, label="x")}, r"row 3, column 'f0': not finite"),
    ],
)
def test_load_csv_reports_the_first_fault(tmp_path, width, distinct, faults, message):
    path = _faulty_csv(tmp_path / "faulty.csv", width, faults(width), distinct)
    with pytest.raises(FormatError, match=message):
        load_csv(path)


# Feature cells of the differential test: reprs of any finite float64 (signed
# zeros, subnormals and extremes among them), a few texts that repeat, and
# texts float() reads that repr never writes. Each drawn file is valid, or has
# one change from _CHANGES.
_FEATURE_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "0.0", "5e-324", "-2.2250738585072014e-308", "1.7976931348623157e+308"]),
    st.sampled_from(["0.5", "0.25", "1.0", "0.5019607843137255"]),
    st.sampled_from(["+1", " 1.5", "1_0", "1e5", "1.5 ", "\t2"]),
)
_LABEL_TEXTS = st.one_of(st.integers(0, 4).map(str), st.sampled_from(["+1", " 2", "1_0", "007", "9" * 18]))
_CHANGES = {
    # a valid file the byte reader leaves to csv.reader
    "long cell": st.sampled_from(["0.1000000000000000000000001", "1" + "0" * 30, " " * 24 + "1"]),
    "quoted cell": st.just(None),
    # a fault in a cell, a line or the header
    "bad feature": st.sampled_from(["nan", "inf", "-inf", "oops", "", "1,5"]),
    "bad label": st.sampled_from(["-1", "1.5", "x", "", "9" * 20, "1e2"]),
    "cell count": st.sampled_from(["one more", "one less", "one moved to the next line"]),
    "blank line": st.sampled_from(["\n", "\r\n"]),
    "lone CR": st.just("\r"),
    "missing label": st.just("y"),
    # one byte sequence anywhere
    "stray bytes": st.sampled_from([b"\r", b'"', b"\0", b"\xe9", "é".encode(), "١".encode()]),
}


@st.composite
def _csv_files(draw):
    """Bytes of a CSV file whose label column is `label`, in any place."""
    width = draw(st.integers(1, 5))
    label_at = draw(st.integers(0, width))
    pool = draw(st.lists(_FEATURE_TEXTS, min_size=1, max_size=6))
    lines = [[f"f{j}" for j in range(width)]]
    for _ in range(draw(st.integers(0, 12))):
        lines.append([draw(st.sampled_from(pool) | _FEATURE_TEXTS) for _ in range(width)])
    for line in lines:
        line.insert(label_at, draw(_LABEL_TEXTS) if line is not lines[0] else "label")
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    change = draw(st.sampled_from([None] * 6 + list(_CHANGES)))
    detail = draw(_CHANGES[change]) if change else None
    row = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
    col = draw(st.sampled_from([j for j in range(width + 1) if j != label_at]))
    if change == "long cell" or change == "bad feature":
        lines[row][col] = detail
    elif change == "bad label":
        lines[row][label_at] = detail
    elif change == "cell count" and detail == "one more":
        lines[row].append("0")
    elif change == "cell count":
        moved = lines[row].pop()
        if detail != "one less" and row + 1 < len(lines):
            lines[row + 1].insert(0, moved)
    elif change == "quoted cell":
        lines[row][col] = f'"{lines[row][col]}"'
    elif change in ("blank line", "lone CR"):
        ends[row] = ends[row] + detail if change == "blank line" else detail
    elif change == "missing label":
        lines[0][label_at] = detail
    text = "".join(",".join(line) + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    blob = text.encode()
    if change == "stray bytes":
        at = draw(st.integers(0, len(blob)))
        blob = blob[:at] + detail + blob[at:]
    return blob


@settings(max_examples=300, deadline=None)
@given(blob=_csv_files(), chunk_bytes=st.sampled_from([1, 5, 64, data.CSV_CHUNK_BYTES]))
def test_load_csv_reads_any_file_as_csv_reader_does(tmp_path_factory, blob, chunk_bytes):
    path = tmp_path_factory.mktemp("differential") / "drawn.csv"
    path.write_bytes(blob)
    with mock.patch.object(data, "CSV_CHUNK_BYTES", chunk_bytes):
        assert_reads_as_csv_reader(path)


def _without_csv_reader(*args):
    raise AssertionError("the csv.reader path read a file save_csv wrote")


def _generated(source: str) -> Dataset:
    generator, defaults = GENERATORS[source]
    return generator(*(default for _, default in defaults))


@pytest.mark.parametrize(
    "make",
    [*(partial(_generated, source) for source in GENERATORS), partial(_pixels, 250, 5), _signed_zeros_and_extremes],
    ids=[*GENERATORS, "pixels", "signed_zeros_and_extremes"],
)
def test_every_saved_csv_is_read_from_its_bytes(tmp_path, monkeypatch, make):
    ds = make()
    path = tmp_path / "saved.csv"
    save_csv(ds, path)
    monkeypatch.setattr(data, "_load_csv_rows", _without_csv_reader)
    back = load_csv(path)
    assert back.inputs.tobytes() == ds.inputs.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()
    assert back.class_count == int(ds.labels.max()) + 1


def _neighbours() -> Dataset:
    """Rows of 12 close float64s, each row twice. Side by side are texts that
    differ only in bytes 8-15 (1234567.25, 1234567.5) or from byte 16 on
    (0.10000000000000002, 0.10000000000000003)."""
    rows = [1234567.0 + 0.25 * np.arange(12)]
    for start in (0.1, 0.5019607843137255, -2.2250738585072014e-308, 1e-300, 5e-324):
        row = [start]
        for _ in range(11):
            row.append(np.nextafter(row[-1], np.inf))
        rows.append(row)
    inputs = np.repeat(np.array(rows), 2, axis=0)
    return Dataset(inputs, np.arange(len(inputs)) % 2, 2)


@pytest.mark.parametrize("make", [partial(_pixels, 250, 7), _neighbours], ids=["pixels", "neighbours"])
def test_key_hash_collisions_cannot_change_a_value(tmp_path, monkeypatch, make):
    # every cell of every chunk gets one hash: only the exact key comparison
    # keeps different texts apart
    ds = make()
    path = tmp_path / "saved.csv"
    save_csv(ds, path)
    monkeypatch.setattr(data, "_key_hash", lambda words: np.zeros(len(words), np.uint64))
    monkeypatch.setattr(data, "_load_csv_rows", _without_csv_reader)
    back = load_csv(path)
    assert back.inputs.tobytes() == ds.inputs.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


def test_load_csv_peak_memory_is_bounded_by_a_chunk(tmp_path):
    """Bound: twice the feature matrix plus 4 MiB, 27.9 MiB here. Measured on
    this 14.9 MiB file: 13.6 MiB for load_csv, 14.2 MiB for the csv.reader
    path (one flat array of features, read row by row), and 229 MiB for the
    byte reader given the whole file as one chunk."""
    ds = _pixels(2000, seed=11)
    path = tmp_path / "pixels.csv"
    save_csv(ds, path)
    tracemalloc.start()
    try:
        back = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.inputs.tobytes() == ds.inputs.tobytes()
    assert peak < 2 * ds.inputs.nbytes + 4 * 2**20, peak


def _normals(rows: int, seed: int) -> Dataset:
    """`rows` 784-column rows of standard normal float64s: no text repeats."""
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal((rows, 784)), rng.integers(0, 10, rows), 10)


def _quoted(make, path) -> Dataset:
    """`make()`, saved to `path` with cell i % width of line i quoted, labels
    among them: a file only the csv.reader path reads."""
    ds = make()
    save_csv(ds, path)
    lines = path.read_bytes().splitlines()
    width = lines[0].count(b",") + 1
    for i in range(1, len(lines)):
        cells = lines[i].split(b",")
        cells[i % width] = b'"' + cells[i % width] + b'"'
        lines[i] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines) + b"\r\n")
    with pytest.raises(data._NotPlain):
        data._load_plain_csv(path, "label")
    return ds


@pytest.mark.parametrize("make", [partial(_pixels, 250, 5), partial(_normals, 250, 5)], ids=["pixels", "normals"])
def test_csv_reader_path_reads_the_saved_values(tmp_path, make):
    # the reference of every differential test, against the values save_csv wrote
    ds = _quoted(make, tmp_path / "quoted.csv")
    back = load_csv(tmp_path / "quoted.csv")
    assert back.inputs.tobytes() == ds.inputs.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()
    assert back.class_count == int(ds.labels.max()) + 1


def test_csv_reader_path_peak_memory_is_the_matrix_and_a_quarter(tmp_path):
    """Bound: 1.25 times the feature matrix plus 4 MiB, 19 MiB here, for one
    flat array of features and a row's temporaries. Measured on this quoted
    2,000 x 784 file: 14.2 MiB; the block reader this path replaced peaked
    at 25.6 MiB."""
    ds = _quoted(partial(_pixels, 2000, 11), tmp_path / "quoted.csv")
    tracemalloc.start()
    try:
        back = load_csv(tmp_path / "quoted.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.inputs.tobytes() == ds.inputs.tobytes()
    assert peak < 1.25 * ds.inputs.nbytes + 4 * 2**20, peak


@pytest.mark.parametrize(
    "text, label_column",
    [
        ("f" * 131_073 + ",label\n1.0,0\n", "label"),  # a header cell past csv's field limit
        ("\n1\n", ""),  # an empty header line has no cells, not one empty one
    ],
)
def test_load_csv_reads_plain_header_edge_cases_as_csv_reader_does(tmp_path, text, label_column):
    path = tmp_path / "edge.csv"
    path.write_text(text)
    assert_reads_as_csv_reader(path, label_column)


def test_blobs_with_zero_spread_are_nearest_centroid_separable():
    ds = gen_blobs(90, 3, 0.0, seed=4)
    centroids = np.stack([ds.inputs[ds.labels == k].mean(axis=0) for k in range(3)])
    distances = np.linalg.norm(ds.inputs[:, None, :] - centroids[None], axis=2)
    assert np.array_equal(np.argmin(distances, axis=1), ds.labels)


def test_blobs_validation():
    with pytest.raises(InputError):
        gen_blobs(0, 3, 0.1, 0)
    with pytest.raises(InputError):
        gen_blobs(10, 0, 0.1, 0)


def test_load_csv_reports_bad_cell_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(FormatError, match=r"row 3.*f1"):
        load_csv(path)


def test_load_csv_takes_the_label_from_any_column(tmp_path):
    path = tmp_path / "middle.csv"
    path.write_text("a,y,b\n0.5,1,-0.0\n2,0,3e-5\n")
    ds = load_csv(path, label_column="y")
    assert ds.inputs.tobytes() == np.array([[0.5, -0.0], [2.0, 3e-5]]).tobytes()
    np.testing.assert_array_equal(ds.labels, [1, 0])


def test_load_csv_missing_label_column(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("f0,f1\n1.0,2.0\n")
    with pytest.raises(FormatError, match="label"):
        load_csv(path)


def test_load_csv_non_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"f0,f1,label\n1.0,2.0,0\n1.0,2\xe9,1\n")
    with pytest.raises(FormatError, match="latin1.csv.*not UTF-8"):
        load_csv(path)


def test_load_idx_reads_known_bytes(tmp_path):
    images = np.array(
        [[[0, 51], [102, 255]], [[255, 0], [17, 34]]], dtype=np.uint8
    )
    labels = np.array([1, 0], dtype=np.uint8)
    write_idx_pair(tmp_path / "im.idx", tmp_path / "lb.idx", images, labels)
    ds = load_idx(tmp_path / "im.idx", tmp_path / "lb.idx")
    np.testing.assert_array_equal(ds.inputs[0], np.array([0, 51, 102, 255]) / 255.0)
    np.testing.assert_array_equal(ds.inputs[1], np.array([255, 0, 17, 34]) / 255.0)
    np.testing.assert_array_equal(ds.labels, [1, 0])


def test_load_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (5, 3, 4), dtype=np.uint8)
    labels = rng.integers(0, 3, 5, dtype=np.uint8)
    write_idx_pair(tmp_path / "im.idx", tmp_path / "lb.idx", images, labels)
    ds = load_idx(tmp_path / "im.idx", tmp_path / "lb.idx")
    np.testing.assert_array_equal(ds.inputs, images.reshape(5, 12) / 255.0)
    np.testing.assert_array_equal(ds.labels, labels)


def test_load_idx_reads_the_pixels_without_a_second_copy_of_the_file(tmp_path):
    """`load_idx` holds the file's bytes and the float64 array at once, but
    no copy of the pixel payload: its peak stays under those two by 64 KiB,
    where slicing the payload out of the file's bytes would add 392 KB."""
    rng = np.random.default_rng(0)
    n = 500
    images, labels = rng.integers(0, 256, (n, 28, 28), dtype=np.uint8), rng.integers(0, 10, n, dtype=np.uint8)
    paths = tmp_path / "im.idx", tmp_path / "lb.idx"
    write_idx_pair(*paths, images, labels)
    load_idx(*paths)  # first-use costs, untraced
    tracemalloc.start()
    try:
        ds = load_idx(*paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * images.size + paths[0].stat().st_size + 64 * 1024
    assert peak < bound, (peak, bound)
    np.testing.assert_array_equal(ds.inputs, images.reshape(n, 784) / 255.0)
    np.testing.assert_array_equal(ds.labels, labels)


def test_load_idx_count_mismatch(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    write_idx_pair(tmp_path / "im.idx", tmp_path / "lb.idx", images, labels)
    with pytest.raises(FormatError, match="count mismatch"):
        load_idx(tmp_path / "im.idx", tmp_path / "lb.idx")


def test_load_idx_bad_magic(tmp_path):
    (tmp_path / "im.idx").write_bytes(b"\x00\x00\x08\x99" + b"\x00" * 12)
    (tmp_path / "lb.idx").write_bytes(b"\x00\x00\x08\x01\x00\x00\x00\x00")
    with pytest.raises(FormatError, match="magic"):
        load_idx(tmp_path / "im.idx", tmp_path / "lb.idx")


def test_load_idx_with_no_images_is_a_format_error(tmp_path):
    images = np.zeros((0, 2, 2), dtype=np.uint8)
    labels = np.zeros(0, dtype=np.uint8)
    write_idx_pair(tmp_path / "im.idx", tmp_path / "lb.idx", images, labels)
    with pytest.raises(FormatError, match="im.idx.*no images"):
        load_idx(tmp_path / "im.idx", tmp_path / "lb.idx")


def test_split_is_a_disjoint_cover():
    ds = gen_two_moons(10, 0.1, seed=1)
    train_set, test_set = split(ds, 0.5, seed=3)
    assert len(train_set) == 5 and len(test_set) == 5
    combined = sorted(map(tuple, np.vstack([train_set.inputs, test_set.inputs]).tolist()))
    original = sorted(map(tuple, ds.inputs.tolist()))
    assert combined == original


def test_split_rejects_empty_sides():
    ds = gen_two_moons(4, 0.1, seed=1)
    with pytest.raises(InputError):
        split(ds, 0.1, seed=0)  # floor(0.4) = 0 training examples
    with pytest.raises(InputError):
        split(ds, 1.0, seed=0)
    with pytest.raises(InputError):
        split(ds, 0.0, seed=0)


@given(st.integers(4, 60), st.floats(0.3, 0.7), st.integers(0, 1000))
@settings(max_examples=40)
def test_split_cover_property(n, fraction, seed):
    n += n % 2
    ds = gen_two_moons(n, 0.05, seed=0)
    train_set, test_set = split(ds, fraction, seed)
    assert len(train_set) + len(test_set) == n
    combined = sorted(map(tuple, np.vstack([train_set.inputs, test_set.inputs]).tolist()))
    assert combined == sorted(map(tuple, ds.inputs.tolist()))


def test_normalize_standardizes_train_side_only():
    rng = np.random.default_rng(8)
    train_set = Dataset(rng.normal(3.0, 2.0, (50, 3)), rng.integers(0, 2, 50), 2)
    test_set = Dataset(rng.normal(1.0, 1.0, (20, 3)), rng.integers(0, 2, 20), 2)
    train_n, test_n, stats = normalize(train_set, test_set)
    np.testing.assert_allclose(train_n.inputs.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(train_n.inputs.std(axis=0), 1.0, atol=1e-9)
    # stats come from the train side only
    np.testing.assert_array_equal(stats.mean, train_set.inputs.mean(axis=0))
    np.testing.assert_array_equal(stats.std, train_set.inputs.std(axis=0))
    # test side transformed with the same stats
    np.testing.assert_allclose(
        test_n.inputs, (test_set.inputs - stats.mean) / stats.std, atol=0
    )


def test_normalize_maps_constant_features_to_zero():
    train_set = Dataset(np.column_stack([np.full(10, 7.0), np.arange(10.0)]), np.zeros(10, int), 1)
    test_set = Dataset(np.column_stack([np.full(4, 9.0), np.arange(4.0)]), np.zeros(4, int), 1)
    train_n, test_n, _ = normalize(train_set, test_set)
    assert np.all(train_n.inputs[:, 0] == 0.0)
    assert np.all(test_n.inputs[:, 0] == 0.0)


def test_dataset_validation():
    with pytest.raises(InputError):
        Dataset(np.zeros((0, 2)), np.zeros(0, int), 2)
    with pytest.raises(InputError):
        Dataset(np.array([[np.inf, 0.0]]), np.array([0]), 2)
    with pytest.raises(InputError):
        Dataset(np.zeros((2, 2)), np.array([0, 2]), 2)
