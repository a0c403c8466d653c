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


def write_snapshot(record: SnapshotRecord, path) -> None:
    header = "\n".join(
        [
            f"format_version={FORMAT_VERSION}",
            "layer_sizes=" + ",".join(str(n) for n in record.spec.layer_sizes),
            f"activation={record.spec.activation}",
            f"dropout_rate={record.spec.dropout_rate!r}",
            f"cycle_index={record.cycle_index}",
            f"iteration={record.iteration}",
            f"train_loss={record.train_loss!r}",
            f"config_digest={record.config_digest.hex()}",
        ]
    )
    payload = record.params.astype("<f8", copy=False).tobytes()
    write_atomically(path, (header.encode("utf-8"), b"\n\n", payload), "snapshot")


def _parse_header(text: str, path) -> dict[str, str]:
    fields = {}
    for line in text.split("\n"):
        if "=" not in line:
            raise FormatError(f"{path}: malformed header line {line!r}")
        key, value = line.split("=", 1)
        if key not in _HEADER_FIELDS:
            raise FormatError(f"{path}: unknown header field {key!r}")
        if key in fields:
            raise FormatError(f"{path}: duplicate header field {key!r}")
        fields[key] = value
    for key in _HEADER_FIELDS:
        if key not in fields:
            raise FormatError(f"{path}: missing header field {key!r}")
    return fields


def read_snapshot(path) -> SnapshotRecord:
    """Inverse of write_snapshot; validates payload length against the header."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {path}: {exc}") from exc
    sep = blob.find(b"\n\n")
    if sep < 0:
        raise FormatError(f"{path}: missing blank line after header")
    try:
        header = blob[:sep].decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: header is not UTF-8 text") from None
    fields = _parse_header(header, path)
    if fields["format_version"] != str(FORMAT_VERSION):
        raise FormatError(f"{path}: unsupported format_version {fields['format_version']!r}")
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
    digest_hex = fields["config_digest"]
    try:
        digest = bytes.fromhex(digest_hex)
    except ValueError:
        raise FormatError(f"{path}: bad config_digest {digest_hex!r}") from None
    if len(digest) != 16:
        raise FormatError(f"{path}: config_digest must be 16 bytes")

    payload = blob[sep + 2 :]
    expected = 8 * param_count(spec)
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload length {len(payload)} != expected {expected} bytes"
        )
    params = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return SnapshotRecord(spec, params, cycle_index, iteration, train_loss, digest)


@dataclass
class ManifestFile:
    """On-disk run manifest: the config digest plus snapshot files in order."""

    config_digest: bytes
    snapshot_files: tuple[str, ...]


def write_manifest(manifest: ManifestFile, path) -> None:
    if not manifest.snapshot_files:
        raise FormatError("a run manifest needs at least one snapshot")
    lines = [f"format_version={FORMAT_VERSION}", f"config_digest={manifest.config_digest.hex()}"]
    lines += [f"snapshot={name}" for name in manifest.snapshot_files]
    write_atomically(path, (("\n".join(lines) + "\n").encode("utf-8"),), "manifest")


def read_manifest(path) -> ManifestFile:
    """Parse a manifest and verify every referenced snapshot file exists."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StorageError(f"cannot read manifest {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise FormatError(f"{path}: manifest is not UTF-8 text") from None
    version = None
    digest = None
    files = []
    seen = set()
    for line in text.splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise FormatError(f"{path}: malformed manifest line {line!r}")
        key, value = line.split("=", 1)
        if key in seen:
            raise FormatError(f"{path}: duplicate manifest field {key!r}")
        if key != "snapshot":
            seen.add(key)
        if key == "format_version":
            version = value
        elif key == "config_digest":
            try:
                digest = bytes.fromhex(value)
            except ValueError:
                raise FormatError(f"{path}: bad config_digest {value!r}") from None
            if len(digest) != 16:
                raise FormatError(f"{path}: config_digest must be 16 bytes")
        elif key == "snapshot":
            files.append(value)
        else:
            raise FormatError(f"{path}: unknown manifest field {key!r}")
    if version != str(FORMAT_VERSION):
        raise FormatError(f"{path}: unsupported format_version {version!r}")
    if digest is None:
        raise FormatError(f"{path}: missing config_digest")
    if not files:
        raise FormatError(f"{path}: a run manifest needs at least one snapshot")
    base = os.path.dirname(os.fspath(path))
    for name in files:
        if not os.path.exists(os.path.join(base, name)):
            raise ConsistencyError(f"{path}: missing snapshot file {name!r}")
    return ManifestFile(digest, tuple(files))


def load_run(manifest_path) -> list[SnapshotRecord]:
    """Read a manifest and all snapshots it references, in chronological order."""
    manifest = read_manifest(manifest_path)
    base = os.path.dirname(os.fspath(manifest_path))
    return [read_snapshot(os.path.join(base, name)) for name in manifest.snapshot_files]
