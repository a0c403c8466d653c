import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import snapens.store as store_mod
from snapens.data import gen_two_moons
from snapens.errors import ConsistencyError, FormatError, StorageError
from snapens.nn import ModelSpec, param_count
from snapens.schedule import ScheduleSpec
from snapens.store import (
    ManifestFile,
    SnapshotRecord,
    load_run,
    read_manifest,
    read_snapshot,
    write_atomically,
    write_manifest,
    write_snapshot,
)
from snapens.trainer import TrainConfig, save_run, train

DIGEST = bytes(range(16))


def make_record(layer_sizes=(2, 3, 2), seed=0, **kwargs):
    spec = ModelSpec(layer_sizes, dropout_rate=kwargs.pop("dropout_rate", 0.0))
    params = np.random.default_rng(seed).normal(size=param_count(spec))
    defaults = dict(cycle_index=3, iteration=300, train_loss=0.4531, config_digest=DIGEST)
    defaults.update(kwargs)
    return SnapshotRecord(spec, params, **defaults)


def test_snapshot_round_trip_is_bit_exact(tmp_path):
    record = make_record(train_loss=1 / 3)
    path = tmp_path / "a.snap"
    write_snapshot(record, path)
    back = read_snapshot(path)
    assert back.spec == record.spec
    np.testing.assert_array_equal(back.params, record.params)
    assert (back.cycle_index, back.iteration) == (3, 300)
    assert back.train_loss == record.train_loss
    assert back.config_digest == DIGEST


def test_snapshot_round_trip_preserves_extreme_floats(tmp_path):
    record = make_record(train_loss=1e-300)
    record.params[0] = 1e-308
    record.params[1] = -0.0
    record.params[2] = 1.7976931348623157e308
    path = tmp_path / "x.snap"
    write_snapshot(record, path)
    back = read_snapshot(path)
    assert back.params.tobytes() == record.params.tobytes()
    assert back.train_loss == 1e-300


def test_truncated_payload_reports_length(tmp_path):
    record = make_record()
    path = tmp_path / "t.snap"
    write_snapshot(record, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FormatError, match="payload length"):
        read_snapshot(path)


def test_missing_header_field_is_named(tmp_path):
    record = make_record()
    path = tmp_path / "m.snap"
    write_snapshot(record, path)
    head, _, payload = path.read_bytes().partition(b"\n\n")
    lines = [ln for ln in head.split(b"\n") if not ln.startswith(b"layer_sizes=")]
    path.write_bytes(b"\n".join(lines) + b"\n\n" + payload)
    with pytest.raises(FormatError, match="layer_sizes"):
        read_snapshot(path)


def test_version_mismatch_rejected(tmp_path):
    record = make_record()
    path = tmp_path / "v.snap"
    write_snapshot(record, path)
    blob = path.read_bytes().replace(b"format_version=1", b"format_version=9")
    path.write_bytes(blob)
    with pytest.raises(FormatError, match="format_version"):
        read_snapshot(path)


def test_written_files_are_byte_identical_across_calls(tmp_path):
    record = make_record(train_loss=0.123456789012345)
    write_snapshot(record, tmp_path / "one.snap")
    write_snapshot(record, tmp_path / "two.snap")
    assert (tmp_path / "one.snap").read_bytes() == (tmp_path / "two.snap").read_bytes()


def test_failed_snapshot_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "snap_001.snap"
    old = make_record(seed=1)
    write_snapshot(old, path)
    old_bytes = path.read_bytes()
    new = make_record(layer_sizes=(2, 16, 2), seed=2, train_loss=9.0)
    failed = []

    class FailsMidPayload(io.FileIO):
        def write(self, chunk):
            if len(chunk) == new.params.nbytes:  # the header and blank line went through
                super().write(chunk[: len(chunk) // 2])
                failed.append(True)
                raise OSError(28, "No space left on device")
            return super().write(chunk)

    monkeypatch.setattr(store_mod, "open", lambda p, mode: FailsMidPayload(p, "w"), raising=False)
    with pytest.raises(StorageError, match="snap_001.snap"):
        write_snapshot(new, path)
    monkeypatch.undo()
    assert failed
    assert path.read_bytes() == old_bytes
    back = read_snapshot(path)
    assert back.params.tobytes() == old.params.tobytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snap_001.snap"]


def test_manifest_round_trip(tmp_path):
    names = tuple(f"snap_{i:03d}.snap" for i in range(1, 7))
    for i, name in enumerate(names, start=1):
        write_snapshot(make_record(cycle_index=i, iteration=i * 100), tmp_path / name)
    path = tmp_path / "run.manifest"
    write_manifest(ManifestFile(DIGEST, names), path)
    back = read_manifest(path)
    assert back == ManifestFile(DIGEST, names)


def test_manifest_missing_snapshot_named(tmp_path):
    names = ("snap_001.snap", "snap_002.snap")
    write_snapshot(make_record(), tmp_path / names[0])
    write_snapshot(make_record(), tmp_path / names[1])
    path = tmp_path / "run.manifest"
    write_manifest(ManifestFile(DIGEST, names), path)
    (tmp_path / "snap_002.snap").unlink()
    with pytest.raises(ConsistencyError, match="snap_002.snap"):
        read_manifest(path)


def test_manifest_requires_at_least_one_snapshot(tmp_path):
    with pytest.raises(FormatError):
        write_manifest(ManifestFile(DIGEST, ()), tmp_path / "empty.manifest")
    (tmp_path / "bad.manifest").write_text(f"format_version=1\nconfig_digest={DIGEST.hex()}\n")
    with pytest.raises(FormatError):
        read_manifest(tmp_path / "bad.manifest")


def test_non_utf8_snapshot_header_is_a_format_error(tmp_path):
    path = tmp_path / "snap_001.snap"
    write_snapshot(make_record(), path)
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b"activation=relu", b"activation=rel\xff", 1))
    with pytest.raises(FormatError, match="snap_001.snap.*not UTF-8"):
        read_snapshot(path)


def test_non_utf8_manifest_is_a_format_error(tmp_path):
    write_snapshot(make_record(), tmp_path / "snap_001.snap")
    path = tmp_path / "run.manifest"
    write_manifest(ManifestFile(DIGEST, ("snap_001.snap",)), path)
    path.write_bytes(path.read_bytes() + b"snapshot=snap_\xe9.snap\n")
    with pytest.raises(FormatError, match="run.manifest.*not UTF-8"):
        read_manifest(path)


@pytest.mark.parametrize("line", ["format_version=1", f"config_digest={bytes(16).hex()}"])
def test_repeated_manifest_field_is_a_format_error(tmp_path, line):
    write_snapshot(make_record(), tmp_path / "snap_001.snap")
    path = tmp_path / "run.manifest"
    write_manifest(ManifestFile(DIGEST, ("snap_001.snap",)), path)
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(FormatError, match="run.manifest.*duplicate manifest field"):
        read_manifest(path)


def test_load_run_reads_records_in_order(tmp_path):
    names = ("snap_001.snap", "snap_002.snap")
    for i, name in enumerate(names, start=1):
        write_snapshot(make_record(cycle_index=i, iteration=i * 10, seed=i), tmp_path / name)
    write_manifest(ManifestFile(DIGEST, names), tmp_path / "run.manifest")
    records = load_run(tmp_path / "run.manifest")
    assert [r.cycle_index for r in records] == [1, 2]


def test_load_run_reads_a_payload_only_when_its_params_are_used(tmp_path, monkeypatch):
    names = ("snap_001.snap", "snap_002.snap")
    written = [make_record(cycle_index=i, seed=i) for i in (1, 2)]
    for record, name in zip(written, names):
        write_snapshot(record, tmp_path / name)
    write_manifest(ManifestFile(DIGEST, names), tmp_path / "run.manifest")
    reads = []
    real_read = store_mod.read_snapshot
    monkeypatch.setattr(store_mod, "read_snapshot", lambda path: reads.append(path) or real_read(path))
    records = load_run(tmp_path / "run.manifest")
    assert reads == []
    assert [(r.spec, r.iteration, r.train_loss) for r in records] == [
        (r.spec, r.iteration, r.train_loss) for r in written
    ]
    assert records[1].params.tobytes() == written[1].params.tobytes()
    assert records[1].params.tobytes() == written[1].params.tobytes()
    assert reads == [str(tmp_path / "snap_002.snap")] * 2  # nothing is kept on the record


def test_load_run_checks_every_payload_length_first(tmp_path):
    names = ("snap_001.snap", "snap_002.snap")
    for name in names:
        write_snapshot(make_record(), tmp_path / name)
    write_manifest(ManifestFile(DIGEST, names), tmp_path / "run.manifest")
    blob = (tmp_path / "snap_002.snap").read_bytes()
    (tmp_path / "snap_002.snap").write_bytes(blob[:-1])
    with pytest.raises(FormatError, match=r"snap_002.snap: payload length \d+ != expected"):
        load_run(tmp_path / "run.manifest")


def test_chunk_source_error_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old")

    def chunks():
        yield b"new rows"
        raise ValueError("bad row")

    with pytest.raises(ValueError, match="bad row"):
        write_atomically(path, chunks(), "CSV")
    assert path.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


layer_sizes_strategy = st.lists(st.integers(1, 5), min_size=2, max_size=4).map(tuple)
finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(
    layer_sizes=layer_sizes_strategy,
    seed=st.integers(0, 2**32),
    dropout=st.floats(0.0, 0.9),
    cycle=st.integers(1, 99),
    iteration=st.integers(1, 10**6),
    loss=finite_floats,
    digest=st.binary(min_size=16, max_size=16),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_property(tmp_path_factory, layer_sizes, seed, dropout, cycle, iteration, loss, digest):
    spec = ModelSpec(layer_sizes, dropout_rate=dropout)
    params = np.random.default_rng(seed).normal(size=param_count(spec))
    record = SnapshotRecord(spec, params, cycle, iteration, loss, digest)
    path = tmp_path_factory.mktemp("snaps") / "r.snap"
    write_snapshot(record, path)
    back = read_snapshot(path)
    assert back.spec == spec
    assert back.params.tobytes() == record.params.tobytes()
    assert back.train_loss == loss or (np.isnan(back.train_loss) and np.isnan(loss))
    assert back.config_digest == digest


def _snapshot_with_header(tmp_path, edit):
    path = tmp_path / "snap_001.snap"
    write_snapshot(make_record(), path)
    head, _, payload = path.read_bytes().partition(b"\n\n")
    path.write_bytes("\n".join(edit(head.decode().split("\n"))).encode() + b"\n\n" + payload)
    return path


def _manifest_with_lines(tmp_path, edit):
    write_snapshot(make_record(), tmp_path / "snap_001.snap")
    path = tmp_path / "run.manifest"
    write_manifest(ManifestFile(DIGEST, ("snap_001.snap",)), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    return path


def _replace_field(key, value):
    return lambda lines: [f"{key}={value}" if ln.startswith(f"{key}=") else ln for ln in lines]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines + ["no equals sign"], r"malformed {what} line 'no equals sign'"),
        (lambda lines: lines + ["colour=blue"], r"unknown {what} field 'colour'"),
        (lambda lines: lines + [lines[1]], r"duplicate {what} field"),
        (lambda lines: [ln for ln in lines if not ln.startswith("config_digest=")],
         r"missing {what} field 'config_digest'"),
        (_replace_field("format_version", "2"), r"unsupported format_version '2'"),
        (_replace_field("config_digest", "zz" * 16), r"bad config_digest 'zz"),
        (_replace_field("config_digest", DIGEST[:15].hex()), r"config_digest must be 16 bytes"),
    ],
    ids=["malformed", "unknown", "duplicate", "missing", "version_2", "non_hex_digest", "digest_15_bytes"],
)
@pytest.mark.parametrize("what", ["header", "manifest"])
def test_bad_field_lines_are_format_errors_naming_the_file(tmp_path, what, edit, message):
    if what == "header":
        path, read = _snapshot_with_header(tmp_path, edit), read_snapshot
    else:
        path, read = _manifest_with_lines(tmp_path, edit), read_manifest
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: " + message.format(what=what)):
        read(path)


def test_failed_loss_csv_write_is_a_storage_error_and_leaves_no_temp_file(tmp_path, monkeypatch):
    config = TrainConfig(
        ModelSpec((2, 3, 2)), ScheduleSpec("cyclic_cosine", 0.1, 4, 2), "snapshot", epochs=2, batch_size=5
    )
    run = train(config, gen_two_moons(10, 0.1, seed=0))

    class NoSpace(io.FileIO):
        def write(self, chunk):
            raise OSError(28, "No space left on device")

    def no_space_for_loss_csv(path, mode):
        return (NoSpace if str(path).endswith("loss.csv.tmp") else io.FileIO)(path, "w")

    monkeypatch.setattr(store_mod, "open", no_space_for_loss_csv, raising=False)
    with pytest.raises(StorageError, match="loss.csv"):
        save_run(run, tmp_path / "run")
    monkeypatch.undo()
    assert not (tmp_path / "run" / "loss.csv.tmp").exists()
    assert not (tmp_path / "run" / "loss.csv").exists()
    assert not (tmp_path / "run" / "run.manifest").exists()
