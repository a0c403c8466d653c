import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import write_idx_pair
from snapens.data import (
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


def test_save_csv_keeps_signed_zeros_and_extremes_apart_across_blocks(tmp_path):
    # one column: -0.0 before 0.0 in the first rows, 0.0 before -0.0 at the
    # end, and 140,000 rows: several blocks of any block size up to 65,536 cells
    column = np.tile([0.25, 5e-324, 1e22, 0.5], 35_000)
    column[:4] = (-0.0, 0.0, 5e-324, 1e22)
    column[-3:] = (0.0, -0.0, 0.0)
    ds = Dataset(column[:, None], np.arange(column.size) % 3, 3)
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
