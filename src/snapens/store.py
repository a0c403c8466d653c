"""Bit-exact persistence of snapshots and run manifests.

Snapshot file (`.snap`): a UTF-8 header of `key=value` lines, one blank line,
then the raw IEEE-754 little-endian float64 parameter array. Floats in the
header use shortest round-trippable decimals; the config digest is 16 bytes
hex-encoded. Manifest file (`.manifest`): `key=value` lines listing snapshot
filenames in chronological order plus the config digest. Both are written to
`<path>.tmp` and renamed into place, so a reader sees the old file or the new
one, never a half-written one.

Run directory: this module names, places and cleans every file a run writes.
While it trains, a run writes each snapshot and data split to its staged name
(`snap_NNN.snap.staged`, `train.csv.staged`, `test.csv.staged`). `save_run`
then removes the old `run.manifest`, places the snapshots, writes `loss.csv`,
places the splits and writes the new `run.manifest` last, so a save that
fails partway leaves no manifest over a mix of old and new files. Then it
removes the snapshots that manifest does not list and every staged or `.tmp`
name of a run file. A run that fails removes its staged files instead, and
one writer at a time holds a run directory (see `staging`).
"""
from __future__ import annotations

import contextlib
import errno
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, FormatError, StorageError
from .nn import ModelSpec, ParamVector, param_count

FORMAT_VERSION = 1
TMP_SUFFIX = ".tmp"  # what write_atomically writes before it renames into place

_HEADER_FIELDS = (
    "format_version",
    "layer_sizes",
    "activation",
    "dropout_rate",
    "cycle_index",
    "iteration",
    "train_loss",
    "config_digest",
)
_MANIFEST_FIELDS = ("format_version", "config_digest", "snapshot")


@dataclass
class SnapshotRecord:
    """One saved parameter vector with its training provenance."""

    spec: ModelSpec
    params: ParamVector
    cycle_index: int
    iteration: int
    train_loss: float
    config_digest: bytes

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=np.float64)
        if self.params.shape != (param_count(self.spec),):
            raise FormatError("params length does not match spec")
        if len(self.config_digest) != 16:
            raise FormatError("config_digest must be 16 bytes")


@dataclass
class StoredSnapshot:
    """A snapshot file whose header and payload length have been checked.

    It holds the header's fields only. Each use of `params` reads the payload
    through `read_snapshot` and keeps nothing, so a caller that uses one
    snapshot at a time holds one parameter vector at a time.
    """

    path: str
    spec: ModelSpec
    cycle_index: int
    iteration: int
    train_loss: float
    config_digest: bytes

    @property
    def params(self) -> ParamVector:
        return read_snapshot(self.path).params


def write_atomically(path, chunks, what: str) -> None:
    """Write byte chunks to `<path>.tmp`, then rename it over `path`.

    On any exception, from the file system or from `chunks`, the temp file is
    removed, `path` keeps its old bytes and the exception goes on; an OSError
    becomes a StorageError naming `what` and the path.
    """
    tmp_path = os.fspath(path) + TMP_SUFFIX
    try:
        with open(tmp_path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp_path, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp_path)
        if isinstance(exc, OSError):
            raise StorageError(f"cannot write {what} {path}: {exc}") from exc
        raise


def _field_bytes(fields) -> bytes:
    """`format_version=1`, then one `key=value` line per (key, value) pair,
    newline-separated UTF-8 with no trailing newline."""
    lines = [f"format_version={FORMAT_VERSION}"] + [f"{key}={value}" for key, value in fields]
    return "\n".join(lines).encode("utf-8")


def _fields(lines, known, path, what: str, repeated=()) -> dict:
    """The `key=value` lines of a `what` ("header" or "manifest") by key.

    Every `known` field must appear, each once except the `repeated` ones,
    whose values collect into a list. format_version must be this module's,
    and config_digest, which this returns as bytes, must be 16 hex-encoded bytes.
    """
    fields = {}
    for line in lines:
        key, sep, value = line.partition("=")
        if not sep:
            raise FormatError(f"{path}: malformed {what} line {line!r}")
        if key not in known:
            raise FormatError(f"{path}: unknown {what} field {key!r}")
        if key in repeated:
            fields.setdefault(key, []).append(value)
        elif key in fields:
            raise FormatError(f"{path}: duplicate {what} field {key!r}")
        else:
            fields[key] = value
    for key in known:
        if key not in fields:
            raise FormatError(f"{path}: missing {what} field {key!r}")
    if fields["format_version"] != str(FORMAT_VERSION):
        raise FormatError(f"{path}: unsupported format_version {fields['format_version']!r}")
    try:
        fields["config_digest"] = bytes.fromhex(fields["config_digest"])
    except ValueError:
        raise FormatError(f"{path}: bad config_digest {fields['config_digest']!r}") from None
    if len(fields["config_digest"]) != 16:
        raise FormatError(f"{path}: config_digest must be 16 bytes")
    return fields


def write_snapshot(record: SnapshotRecord, path) -> StoredSnapshot:
    """Write `record` to `path` and return the header of that file."""
    header = _field_bytes(
        [
            ("layer_sizes", ",".join(str(n) for n in record.spec.layer_sizes)),
            ("activation", record.spec.activation),
            ("dropout_rate", repr(record.spec.dropout_rate)),
            ("cycle_index", record.cycle_index),
            ("iteration", record.iteration),
            ("train_loss", repr(record.train_loss)),
            ("config_digest", record.config_digest.hex()),
        ]
    )
    payload = np.ascontiguousarray(record.params, dtype="<f8")  # no copy of a float64 vector
    write_atomically(path, (header, b"\n\n", memoryview(payload).cast("B")), "snapshot")
    return StoredSnapshot(
        os.fspath(path), record.spec, record.cycle_index, record.iteration, record.train_loss,
        record.config_digest
    )


def read_snapshot(path) -> SnapshotRecord:
    """Inverse of write_snapshot; validates payload length against the header."""
    try:
        with open(path, "rb") as fh:
            header, start = _read_header(fh, path)
            # read the payload once, with readinto, straight into the parameter array
            expected = 8 * param_count(header.spec)
            params = np.empty(expected // 8, dtype="<f8")
            payload = memoryview(params).cast("B")
            start = start[:expected]
            payload[: len(start)] = start
            length = len(start) + fh.readinto(payload[len(start) :]) + len(fh.read())
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {path}: {exc}") from exc
    _check_payload_length(path, length, expected)
    return SnapshotRecord(
        header.spec, params.astype(np.float64, copy=False), header.cycle_index, header.iteration,
        header.train_loss, header.config_digest
    )


def read_header(path) -> StoredSnapshot:
    """The header of the snapshot file at `path`, once the file's size gives
    the payload length the header asks for; the payload is not read."""
    try:
        with open(path, "rb") as fh:
            return _read_header(fh, path)[0]
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {path}: {exc}") from exc


def _check_payload_length(path, length: int, expected: int) -> None:
    if length != expected:
        raise FormatError(
            f"{path}: payload length {length} != expected {expected} bytes"
        )


def _read_header(fh, path) -> tuple[StoredSnapshot, bytes]:
    """Read the header in 4 KB steps up to its blank line and check it and the
    payload length the file's size gives. Returns the header and the payload
    bytes read along with it."""
    head = fh.read(4096)
    while (sep := head.find(b"\n\n")) < 0:
        more = fh.read(max(len(head), 4096))
        if not more:
            raise FormatError(f"{path}: missing blank line after header")
        head += more
    try:
        header = head[:sep].decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: header is not UTF-8 text") from None
    fields = _fields(header.split("\n"), _HEADER_FIELDS, path, "header")
    try:
        layer_sizes = tuple(int(s) for s in fields["layer_sizes"].split(","))
    except ValueError:
        raise FormatError(f"{path}: bad layer_sizes {fields['layer_sizes']!r}") from None
    try:
        spec = ModelSpec(layer_sizes, fields["activation"], float(fields["dropout_rate"]))
    except Exception as exc:
        raise FormatError(f"{path}: invalid model header: {exc}") from exc
    try:
        cycle_index = int(fields["cycle_index"])
        iteration = int(fields["iteration"])
        train_loss = float(fields["train_loss"])
    except ValueError as exc:
        raise FormatError(f"{path}: bad numeric header field: {exc}") from None
    # checked before anyone allocates what the header asks for
    length = os.fstat(fh.fileno()).st_size - (sep + 2)
    _check_payload_length(path, length, 8 * param_count(spec))
    stored = StoredSnapshot(
        os.fspath(path), spec, cycle_index, iteration, train_loss, fields["config_digest"]
    )
    return stored, head[sep + 2 :]


@dataclass
class ManifestFile:
    """On-disk run manifest: the config digest plus snapshot files in order."""

    config_digest: bytes
    snapshot_files: tuple[str, ...]


def write_manifest(manifest: ManifestFile, path) -> None:
    if not manifest.snapshot_files:
        raise FormatError("a run manifest needs at least one snapshot")
    fields = [("config_digest", manifest.config_digest.hex())]
    fields += [("snapshot", name) for name in manifest.snapshot_files]
    write_atomically(path, (_field_bytes(fields), b"\n"), "manifest")


def read_manifest(path) -> ManifestFile:
    """Parse a manifest and verify every referenced snapshot file exists."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StorageError(f"cannot read manifest {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise FormatError(f"{path}: manifest is not UTF-8 text") from None
    lines = (line for line in text.splitlines() if line.strip())
    fields = _fields(lines, _MANIFEST_FIELDS, path, "manifest", repeated=("snapshot",))
    files = tuple(fields["snapshot"])
    base = os.path.dirname(os.fspath(path))
    for name in files:
        if not os.path.exists(os.path.join(base, name)):
            raise ConsistencyError(f"{path}: missing snapshot file {name!r}")
    return ManifestFile(fields["config_digest"], files)


def load_run(manifest_path) -> list[StoredSnapshot]:
    """Read a manifest and check the header and payload length of every
    snapshot it references. Returns them in chronological order; each reads
    its payload when a caller uses its `params`."""
    manifest = read_manifest(manifest_path)
    base = os.path.dirname(os.fspath(manifest_path))
    return [read_header(os.path.join(base, name)) for name in manifest.snapshot_files]


MANIFEST_NAME = "run.manifest"
LOSS_CSV_NAME = "loss.csv"
SPLIT_NAMES = ("train.csv", "test.csv")  # the data split the CLI saves beside a run
STAGED_SUFFIX = ".staged"  # a snapshot or split that save_run has not placed yet


def snapshot_name(index: int) -> str:
    return f"snap_{index:03d}.snap"


def staged_path(out_dir, name: str) -> str:
    """Where a run writes the snapshot or split `name` of out_dir until `save_run` places it."""
    return os.path.join(out_dir, name + STAGED_SUFFIX)


def _is_run_file(name: str) -> bool:
    """Whether `name` is one this module writes in a run directory: a placed
    name, the staged name of a snapshot or split, or the temp name of either."""
    stem = name.removesuffix(TMP_SUFFIX)
    placed = stem.removesuffix(STAGED_SUFFIX)
    if match := re.fullmatch(r"snap_(\d+)\.snap", placed):
        return placed == snapshot_name(int(match[1]))
    return placed in SPLIT_NAMES or stem in (MANIFEST_NAME, LOSS_CSV_NAME)


def _prepare(out_dir, *names) -> None:
    """Make the run directory out_dir and remove the files `names` from it."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name in names:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))
    except OSError as exc:
        raise StorageError(f"cannot prepare run directory {out_dir}: {exc}") from exc


def _lock(out_dir):
    """An O_RDONLY descriptor of the run directory out_dir that holds an
    exclusive flock on it, or None where the file system has no flock."""
    import fcntl

    try:
        fd = os.open(out_dir, os.O_RDONLY | os.O_DIRECTORY)
    except OSError as exc:
        raise StorageError(f"cannot lock run directory {out_dir}: {exc}") from exc
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return fd
    except OSError as exc:
        os.close(fd)
        if exc.errno in (errno.ENOLCK, errno.EOPNOTSUPP):
            return None
        if exc.errno == errno.EWOULDBLOCK:
            raise StorageError(f"run directory {out_dir} is in use by another snapens process") from None
        raise StorageError(f"cannot lock run directory {out_dir}: {exc}") from exc


@contextlib.contextmanager
def staging(out_dirs):
    """Make the run directories `out_dirs` and hold each one's writer lock,
    an exclusive flock on the directory itself, until the body ends: a
    directory another process holds is a StorageError before anything is
    staged. Where the file system has no flock, the directory is not locked.
    A command holds one staging over every directory it writes, in the
    calling process, so it ends after every forked worker has: a worker's
    copy of a lock does not release it when the worker exits. If the body
    raises, remove every staged file in the directories, then re-raise: a run
    that fails, or whose worker was killed, leaves every file that was there
    as it was. A directory made here stays."""
    with contextlib.ExitStack() as locks:
        for out in out_dirs:
            _prepare(out)
            if (fd := _lock(out)) is not None:
                locks.callback(os.close, fd)
        try:
            yield
        except BaseException:
            for out in out_dirs:
                with contextlib.suppress(OSError):
                    for name in os.listdir(out):
                        if name.endswith(STAGED_SUFFIX) and _is_run_file(name):
                            with contextlib.suppress(OSError):
                                os.remove(os.path.join(out, name))
            raise


def save_run(manifest, out_dir, splits=()) -> str:
    """Save the `trainer.RunManifest` `manifest` in out_dir in the order the
    module docstring gives; return the new manifest's path. A staged snapshot
    is renamed into place and its record then names the placed file; any
    other record is written. `splits` holds, for each of SPLIT_NAMES, None
    once its writer has staged it, or the error the writer met, which is
    raised in its place."""
    _prepare(out_dir, MANIFEST_NAME)
    names = [snapshot_name(i) for i in range(1, len(manifest.snapshots) + 1)]
    for name, record in zip(names, manifest.snapshots):
        path = os.path.join(out_dir, name)
        if isinstance(record, StoredSnapshot) and record.path.endswith(STAGED_SUFFIX):
            try:
                os.replace(record.path, path)
            except OSError as exc:
                raise StorageError(f"cannot write snapshot {path}: {exc}") from exc
            record.path = path
        else:
            write_snapshot(record, path)
    # loss.csv keeps csv.writer's bytes: CRLF line ends, no cell needs quoting
    rows = zip(manifest.epoch_losses, manifest.epoch_end_lrs)
    lines = [f"{epoch},{loss!r},{lr!r}\r\n" for epoch, (loss, lr) in enumerate(rows, start=1)]
    text = "epoch,mean_train_loss,lr_at_epoch_end\r\n" + "".join(lines)
    write_atomically(os.path.join(out_dir, LOSS_CSV_NAME), (text.encode(),), "loss CSV")
    for name, outcome in zip(SPLIT_NAMES, splits):
        if isinstance(outcome, BaseException):
            raise outcome
        path = os.path.join(out_dir, name)
        try:
            os.replace(staged_path(out_dir, name), path)
        except OSError as exc:
            raise StorageError(f"cannot write CSV {path}: {exc}") from exc
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    write_manifest(ManifestFile(manifest.config_digest, tuple(names)), manifest_path)
    kept = {MANIFEST_NAME, LOSS_CSV_NAME, *SPLIT_NAMES, *names}
    try:
        for name in sorted(os.listdir(out_dir)):
            if _is_run_file(name) and name not in kept:
                os.remove(os.path.join(out_dir, name))
    except OSError as exc:
        raise StorageError(f"cannot remove stale file in {out_dir}: {exc}") from exc
    return manifest_path
