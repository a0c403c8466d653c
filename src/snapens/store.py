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


def write_atomically(path, chunks, what: str) -> None:
    """Write byte chunks to `<path>.tmp`, then rename it over `path`.

    On failure the temp file is removed and `path` keeps its old bytes; the
    OSError becomes a StorageError naming `what` and the path.
    """
    tmp_path = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp_path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp_path, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp_path)
        raise StorageError(f"cannot write {what} {path}: {exc}") from exc


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
    payload = record.params.astype("<f8", copy=False).tobytes()
    write_atomically(path, (header, b"\n\n", payload), "snapshot")


def read_snapshot(path) -> SnapshotRecord:
    """Inverse of write_snapshot; validates payload length against the header."""
    try:
        with open(path, "rb") as fh:
            return _read_snapshot(fh, path)
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {path}: {exc}") from exc


def _read_snapshot(fh, path) -> SnapshotRecord:
    """Read the header in 4 KB steps up to its blank line and check it, then
    read the payload once, with readinto, straight into the parameter array."""
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

    expected = 8 * param_count(spec)
    length = os.fstat(fh.fileno()).st_size - (sep + 2)
    if length == expected:  # checked before allocating what the header asks for
        params = np.empty(expected // 8, dtype="<f8")
        payload = memoryview(params).cast("B")
        start = head[sep + 2 : sep + 2 + expected]
        payload[: len(start)] = start
        length = len(start) + fh.readinto(payload[len(start) :]) + len(fh.read())
    if length != expected:
        raise FormatError(
            f"{path}: payload length {length} != expected {expected} bytes"
        )
    return SnapshotRecord(
        spec, params.astype(np.float64, copy=False), cycle_index, iteration, train_loss,
        fields["config_digest"]
    )


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


def load_run(manifest_path) -> list[SnapshotRecord]:
    """Read a manifest and all snapshots it references, in chronological order."""
    manifest = read_manifest(manifest_path)
    base = os.path.dirname(os.fspath(manifest_path))
    return [read_snapshot(os.path.join(base, name)) for name in manifest.snapshot_files]
