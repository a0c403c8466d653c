"""SGD training loop: per-iteration LR updates, seeded shuffling, snapshots.

Four modes:
  snapshot     cyclic cosine schedule, snapshot at every cycle end
  single       step schedule, one snapshot at the final iteration
  nocycle      step schedule, snapshots equally spaced through the run
  singlecycle  cyclic cosine schedule, parameters re-initialized at the start
               of every cycle after the first, snapshot at every cycle end

All randomness (init, epoch shuffles, dropout masks, re-init seeds) derives
from the config seed through tagged streams, so identical config + data give
bit-identical results.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, DivergenceError, InputError, StorageError
from .nn import Batch, GradVector, ModelSpec, ParamVector, Workspace, check_labels, init_params, loss_and_grad
from .schedule import ScheduleSpec, cycle_end_iterations, lr_at
from .store import ManifestFile, SnapshotRecord, write_manifest, write_snapshot

# Each mode fixes its learning-rate schedule kind.
MODE_SCHEDULE = {
    "snapshot": "cyclic_cosine",
    "single": "step",
    "nocycle": "step",
    "singlecycle": "cyclic_cosine",
}
MODES = tuple(MODE_SCHEDULE)

MANIFEST_NAME = "run.manifest"
LOSS_CSV_NAME = "loss.csv"


@dataclass(frozen=True)
class TrainConfig:
    model: ModelSpec
    schedule: ScheduleSpec
    mode: str
    epochs: int
    batch_size: int
    momentum: float = 0.9
    seed: int = 0
    snapshot_count: int | None = None  # nocycle only
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"train.mode must be one of {MODES}, got {self.mode!r}")
        kind = MODE_SCHEDULE[self.mode]
        if self.schedule.kind != kind:
            raise ConfigError(f"schedule.kind: mode {self.mode!r} requires {kind}")
        if self.epochs < 1:
            raise ConfigError("train.epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("train.batch_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("train.momentum must lie in [0, 1)")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ConfigError("train.weight_decay must be finite and >= 0")
        if self.seed < 0:
            raise ConfigError("train.seed must be >= 0")
        if self.mode == "nocycle":
            if self.snapshot_count is None or self.snapshot_count < 1:
                raise ConfigError("schedule.cycles: nocycle mode needs a snapshot count >= 1")
        elif self.snapshot_count is not None:
            raise ConfigError("snapshot_count is only valid in nocycle mode")


@dataclass
class RunManifest:
    """In-memory result of one training run."""

    config_digest: bytes
    snapshots: list[SnapshotRecord]
    epoch_losses: list[float]
    epoch_end_lrs: list[float]


def config_digest(config: TrainConfig) -> bytes:
    """16-byte stable hash over a canonical (sorted-key) config serialization."""
    canonical = {
        "model": {
            "layer_sizes": list(config.model.layer_sizes),
            "activation": config.model.activation,
            "dropout_rate": config.model.dropout_rate,
        },
        "schedule": {
            "kind": config.schedule.kind,
            "alpha0": config.schedule.alpha0,
            "total_iterations": config.schedule.total_iterations,
            "cycles": config.schedule.cycles,
            "step_fractions": [list(p) for p in config.schedule.step_fractions],
        },
        "mode": config.mode,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "momentum": config.momentum,
        "seed": config.seed,
        "snapshot_count": config.snapshot_count,
        "weight_decay": config.weight_decay,
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=16).digest()


def derive_seed(base: int, *parts) -> int:
    """Stable 64-bit seed derived from a base seed and stream tags."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(base)).encode("ascii"))
    for part in parts:
        h.update(b"\x1f" + str(part).encode("ascii"))
    return int.from_bytes(h.digest(), "little")


def iterations_for(n_examples: int, batch_size: int, epochs: int) -> int:
    """Total SGD iterations: epochs x ceil(n / batch_size), partial batch kept."""
    if n_examples < 1 or batch_size < 1 or epochs < 1:
        raise InputError("n_examples, batch_size and epochs must all be >= 1")
    return epochs * math.ceil(n_examples / batch_size)


def sgd_step(
    params: ParamVector,
    grad: GradVector,
    velocity: np.ndarray,
    lr: float,
    momentum: float,
) -> tuple[ParamVector, np.ndarray]:
    """Heavy-ball update: v' = momentum*v - lr*grad; params' = params + v'.

    Updates `velocity` and then `params` in place (`v *= momentum;
    v -= lr*grad; params += v`) and returns those same two arrays. Both must
    be float64 vectors of the gradient's length.
    """
    if grad.shape != params.shape or velocity.shape != params.shape:
        raise InputError("params, grad and velocity must have matching lengths")
    velocity *= momentum
    velocity -= lr * grad
    params += velocity
    return params, velocity


def _snapshot_iterations(config: TrainConfig, total: int) -> tuple[int, ...]:
    if config.schedule.kind == "cyclic_cosine":
        ends = cycle_end_iterations(config.schedule)
        if len(ends) != config.schedule.cycles:
            raise ConfigError(
                f"schedule.cycles: {config.schedule.cycles} cycles cannot fit "
                f"{total} iterations (would yield {len(ends)} snapshots)"
            )
        return ends
    if config.mode == "nocycle":
        count = config.snapshot_count
        if count > total:
            raise ConfigError("schedule.cycles: snapshot count exceeds total iterations")
        return tuple(math.floor(k * total / count) for k in range(1, count + 1))
    return (total,)


def train(config: TrainConfig, train_data: Dataset) -> RunManifest:
    """Run SGD per the config and return the snapshots and loss history."""
    n = len(train_data)
    total = iterations_for(n, config.batch_size, config.epochs)
    if total != config.schedule.total_iterations:
        raise ConfigError(
            f"schedule.total_iterations is {config.schedule.total_iterations} but "
            f"epochs x ceil(n/batch_size) = {total}"
        )
    check_labels(config.model, train_data.labels)
    snapshot_at = set(_snapshot_iterations(config, total))
    digest = config_digest(config)
    cycle_len = config.schedule.cycle_length if config.schedule.kind == "cyclic_cosine" else None
    lrs = [lr_at(config.schedule, t) for t in range(1, total + 1)]
    dropout = config.model.dropout_rate > 0.0

    # One workspace per run: the step below only writes into these buffers.
    # Rows are gathered into a preallocated batch of the full size and one of
    # the final batch's size; the dataset was validated when it was built.
    workspace = Workspace(config.model)
    params = workspace.params
    params[...] = init_params(config.model, config.seed)
    velocity = np.zeros_like(params)
    dim = train_data.inputs.shape[1]
    sizes = {min(config.batch_size, n), n % config.batch_size or config.batch_size}
    batches = {b: Batch(np.zeros((b, dim)), np.zeros(b, dtype=np.int64)) for b in sizes}
    records: list[SnapshotRecord] = []
    epoch_losses: list[float] = []
    epoch_end_lrs: list[float] = []

    t = 0
    for epoch in range(1, config.epochs + 1):
        order = np.random.default_rng(derive_seed(config.seed, "shuffle", epoch)).permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            t += 1
            if config.mode == "singlecycle" and t > 1 and (t - 1) % cycle_len == 0:
                cycle = (t - 1) // cycle_len + 1
                params[...] = init_params(config.model, derive_seed(config.seed, "reinit", cycle))
                velocity[...] = 0.0
            idx = order[start : start + config.batch_size]
            batch = batches[idx.shape[0]]
            # mode="clip" lets take write straight into `out`; every index is valid.
            train_data.inputs.take(idx, axis=0, out=batch.inputs, mode="clip")
            train_data.labels.take(idx, out=batch.labels, mode="clip")
            dropout_seed = derive_seed(config.seed, "dropout", t) if dropout else 0
            loss, grad = loss_and_grad(
                config.model, params, batch, "train", dropout_seed, workspace=workspace
            )
            if not math.isfinite(loss):
                raise DivergenceError(t)
            if config.weight_decay > 0.0:
                grad += config.weight_decay * params
            sgd_step(params, grad, velocity, lrs[t - 1], config.momentum)
            batch_losses.append(loss)
            if t in snapshot_at:
                records.append(
                    SnapshotRecord(
                        spec=config.model,
                        params=params.copy(),
                        cycle_index=len(records) + 1,
                        iteration=t,
                        train_loss=loss,
                        config_digest=digest,
                    )
                )
        epoch_losses.append(float(np.mean(batch_losses)))
        epoch_end_lrs.append(lrs[t - 1])

    return RunManifest(digest, records, epoch_losses, epoch_end_lrs)


def _snapshot_name(index: int) -> str:
    return f"snap_{index:03d}.snap"


def save_run(manifest: RunManifest, out_dir, write_data=None) -> str:
    """Persist a run: drop any old run.manifest, write snap_XXX.snap files,
    loss.csv, call `write_data()` when given, then write the new run.manifest.

    Dropping the old manifest first means a save that fails partway leaves no
    manifest over a mix of old and new snapshots, or over data files that
    `write_data` did not finish. Once the new manifest is in
    place, snapshot files an earlier run in the same directory left behind
    under names this function writes, and that the new manifest does not
    list, are deleted. Returns the manifest path.
    """
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            os.remove(manifest_path)
    except OSError as exc:
        raise StorageError(f"cannot prepare run directory {out_dir}: {exc}") from exc
    names = []
    for i, record in enumerate(manifest.snapshots, start=1):
        name = _snapshot_name(i)
        write_snapshot(record, os.path.join(out_dir, name))
        names.append(name)
    try:
        with open(os.path.join(out_dir, LOSS_CSV_NAME), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "mean_train_loss", "lr_at_epoch_end"])
            for epoch, (loss, lr) in enumerate(
                zip(manifest.epoch_losses, manifest.epoch_end_lrs), start=1
            ):
                writer.writerow([epoch, repr(loss), repr(lr)])
    except OSError as exc:
        raise StorageError(f"cannot write loss CSV in {out_dir}: {exc}") from exc
    if write_data is not None:
        write_data()
    write_manifest(ManifestFile(manifest.config_digest, tuple(names)), manifest_path)
    try:
        for name in os.listdir(out_dir):
            match = re.fullmatch(r"snap_(\d+)\.snap", name)
            if match and name == _snapshot_name(int(match[1])) and name not in names:
                os.remove(os.path.join(out_dir, name))
    except OSError as exc:
        raise StorageError(f"cannot remove stale snapshot in {out_dir}: {exc}") from exc
    return manifest_path
