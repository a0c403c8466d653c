"""Bit-exact persistence of snapshots and run manifests.

Snapshot file (`.snap`): a UTF-8 header of `key=value` lines, one blank line,
then the raw IEEE-754 little-endian float64 parameter array. Floats in the
header use shortest round-trippable decimals; the config digest is 16 bytes
hex-encoded. Manifest file (`.manifest`): `key=value` lines listing snapshot
filenames in chronological order plus the config digest. Both are written to
`<path>.tmp` and renamed into place, so a reader sees the old file or the new
one, never a half-written one.
"""
from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, FormatError, StorageError
from .nn import ModelSpec, ParamVector, param_count

FORMAT_VERSION = 1

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
    tmp_path = f"{os.fspath(path)}.tmp"
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


def write_snapshot(record: SnapshotRecord, path) -> None:
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
