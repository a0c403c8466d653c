"""SGD training loop: per-iteration LR updates, seeded shuffling, snapshots.

Four modes:
  snapshot     cyclic cosine schedule, snapshot at every cycle end
  single       step schedule, one snapshot at the final iteration
  nocycle      step schedule, snapshots equally spaced through the run
  singlecycle  cyclic cosine schedule, parameters re-initialized at the start
               of every cycle after the first, snapshot at every cycle end

All randomness (init, epoch shuffles, dropout masks, re-init seeds) derives
from the config seed through tagged streams, so identical config + data give
bit-identical results. Configs that differ only in where they snapshot (one
`trajectory_key`, e.g. single and nocycle) take the same steps, so
`train_group` runs them in one loop.

Given run directories, the loop writes each snapshot from the live parameter
vector to a staging name (`snap_NNN.snap.staged`) as it captures it, and
`save_run` moves the staged files into place, so a run holds one parameter
vector however many snapshots it takes.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import re
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, DivergenceError, InputError, StorageError
from .nn import Batch, GradVector, ModelSpec, ParamVector, Workspace, check_labels, init_params, loss_and_grad
from .schedule import ScheduleSpec, cycle_end_iterations, lr_at
from .store import ManifestFile, SnapshotRecord, StoredSnapshot, write_atomically, write_manifest, write_snapshot

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
SPLIT_NAMES = ("train.csv", "test.csv")  # the data split the CLI saves beside a run
STAGED_SUFFIX = ".staged"  # a snapshot or split that save_run has not moved into place
# sgd_step's block of float64s: 256 KB of each vector, so the blocks of the
# step's vectors stay in L2 cache across its three ops
SGD_BLOCK = 32768


def _schedule_kind(mode: str) -> str:
    """The schedule kind `mode` fixes; the one check that the mode exists."""
    if mode not in MODE_SCHEDULE:
        raise ConfigError(f"train.mode must be one of {MODES}, got {mode!r}")
    return MODE_SCHEDULE[mode]


def _check_budget(epochs: int, batch_size: int) -> None:
    """The epochs and batch-size rules of `TrainConfig` and `iterations_for`."""
    if epochs < 1:
        raise ConfigError("train.epochs must be >= 1")
    if batch_size < 1:
        raise ConfigError("train.batch_size must be >= 1")


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
        kind = _schedule_kind(self.mode)
        if self.schedule.kind != kind:
            raise ConfigError(f"schedule.kind: mode {self.mode!r} requires {kind}")
        _check_budget(self.epochs, self.batch_size)
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
    snapshots: list[SnapshotRecord | StoredSnapshot]
    epoch_losses: list[float]
    epoch_end_lrs: list[float]


def config_digest(config: TrainConfig) -> bytes:
    """16-byte stable hash of every config field, nested specs included, as
    sorted-key compact JSON."""
    blob = json.dumps(asdict(config), sort_keys=True, separators=(",", ":")).encode("utf-8")
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
    _check_budget(epochs, batch_size)
    if n_examples < 1:
        raise InputError("n_examples must be >= 1")
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
    be float64 vectors of the gradient's length. The three ops run on one
    block of `SGD_BLOCK` elements at a time, so the block stays in cache
    between them; each element gets the same float ops as over whole vectors.
    """
    if grad.shape != params.shape or velocity.shape != params.shape:
        raise InputError("params, grad and velocity must have matching lengths")
    for start in range(0, params.shape[0], SGD_BLOCK):
        block = slice(start, start + SGD_BLOCK)
        v = velocity[block]
        v *= momentum
        v -= lr * grad[block]
        params[block] += v
    return params, velocity


def trajectory_key(config: TrainConfig) -> str:
    """What steers the SGD steps of `config`: every field but `snapshot_count`,
    with `mode` reduced to whether each cycle re-initialises the parameters.
    On one training split, configs with equal keys take the same steps float
    for float and differ at most in where they snapshot (single and nocycle)."""
    fields = asdict(config)
    del fields["snapshot_count"]
    fields["mode"] = config.mode == "singlecycle"
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def snapshot_iterations(config: TrainConfig) -> tuple[int, ...]:
    """The iterations `config` snapshots after; a ConfigError when they do not fit T."""
    total = config.schedule.total_iterations
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
    return train_group([config], train_data)[0]


def train_group(
    configs: list[TrainConfig], train_data: Dataset, out_dirs=None
) -> list[RunManifest]:
    """Run the SGD steps of configs that share one `trajectory_key` once, and
    return each config's run, in order.

    The loop captures the parameters at the union of the configs' snapshot
    iterations. Each run gets its own records, numbered from 1, with its own
    config digest, and the one loss history, so each equals the run `train`
    returns for its config alone. Without `out_dirs` a record holds a copy of
    the parameters, shared by the runs that capture at that iteration. With
    `out_dirs`, one existing directory per config (see `staging`), each
    capture writes the live parameters to the staging name of that snapshot
    in the config's directory and the run holds `StoredSnapshot`s of those
    files, for `save_run` to move into place.
    """
    config = configs[0]
    key = trajectory_key(config)
    if any(trajectory_key(other) != key for other in configs[1:]):
        raise InputError("configs trained in one loop must share one trajectory_key")
    n = len(train_data)
    total = iterations_for(n, config.batch_size, config.epochs)
    if total != config.schedule.total_iterations:
        raise ConfigError(
            f"schedule.total_iterations is {config.schedule.total_iterations} but "
            f"epochs x ceil(n/batch_size) = {total}"
        )
    check_labels(config.model, train_data.labels)
    # per config: its digest, its snapshot iterations and its records
    runs = [(config_digest(c), set(snapshot_iterations(c)), []) for c in configs]
    snapshot_at = set().union(*(at for _, at, _ in runs))
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
                captured = params if out_dirs else params.copy()  # written out now, or kept
                for (digest, at, records), out in zip(runs, out_dirs or [None] * len(runs)):
                    if t in at:
                        record = SnapshotRecord(config.model, captured, len(records) + 1, t, loss, digest)
                        records.append(record if out is None else _stage(record, out))
        epoch_losses.append(float(np.mean(batch_losses)))
        epoch_end_lrs.append(lrs[t - 1])

    return [
        RunManifest(digest, records, list(epoch_losses), list(epoch_end_lrs))
        for digest, _, records in runs
    ]


def _snapshot_name(index: int) -> str:
    return f"snap_{index:03d}.snap"


def _is_snapshot_file(name: str) -> bool:
    """Whether `name` is one this module writes: a snapshot name or its staging name."""
    match = re.fullmatch(r"snap_(\d+)\.snap(?:\.staged)?", name)
    return bool(match) and name.removesuffix(STAGED_SUFFIX) == _snapshot_name(int(match[1]))


def _is_staged(name: str) -> bool:
    """Whether `name` is a staging name: of a snapshot this module writes or of a split."""
    return name.endswith(STAGED_SUFFIX) and (
        _is_snapshot_file(name) or name.removesuffix(STAGED_SUFFIX) in SPLIT_NAMES
    )


def _stage(record: SnapshotRecord, out_dir) -> StoredSnapshot:
    """Write `record` to its staging name in out_dir: the header of that file."""
    path = os.path.join(out_dir, _snapshot_name(record.cycle_index) + STAGED_SUFFIX)
    write_snapshot(record, path)
    return StoredSnapshot(
        path, record.spec, record.cycle_index, record.iteration, record.train_loss, record.config_digest
    )


@contextlib.contextmanager
def staging(out_dirs):
    """Make the run directories `out_dirs` for `train_group` to stage
    snapshots, and the CLI splits, in. If the body raises, remove every
    staged file in them, then re-raise: a run that fails leaves every file
    that was there as it was. A directory made here stays, so that workers
    of a sweep never race over a parent directory they share."""
    for out in out_dirs:
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot prepare run directory {out}: {exc}") from exc
    try:
        yield
    except BaseException:
        for out in out_dirs:
            with contextlib.suppress(OSError):
                for name in os.listdir(out):
                    if _is_staged(name):
                        with contextlib.suppress(OSError):
                            os.remove(os.path.join(out, name))
        raise


def save_run(manifest: RunManifest, out_dir, write_data=None) -> str:
    """Persist a run: drop any old run.manifest, put the snap_XXX.snap files
    in place, write loss.csv, call `write_data()` when given, then write the
    new run.manifest.

    A snapshot that `train_group` staged is renamed into place, and its
    record then names the placed file; any other record is written.
    Dropping the old manifest first means a save that fails partway leaves no
    manifest over a mix of old and new snapshots, or over data files that
    `write_data` did not finish. Once the new manifest is in
    place, snapshot and staged files an earlier run in the same directory left
    behind under names this module writes, and that the new manifest does not
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
        path = os.path.join(out_dir, name)
        if isinstance(record, StoredSnapshot) and record.path.endswith(STAGED_SUFFIX):
            try:
                os.replace(record.path, path)
            except OSError as exc:
                raise StorageError(f"cannot write snapshot {path}: {exc}") from exc
            record.path = path
        else:
            write_snapshot(record, path)
        names.append(name)
    # loss.csv keeps csv.writer's bytes: CRLF line ends, no cell needs quoting
    rows = zip(manifest.epoch_losses, manifest.epoch_end_lrs)
    lines = [f"{epoch},{loss!r},{lr!r}\r\n" for epoch, (loss, lr) in enumerate(rows, start=1)]
    text = "epoch,mean_train_loss,lr_at_epoch_end\r\n" + "".join(lines)
    write_atomically(os.path.join(out_dir, LOSS_CSV_NAME), (text.encode(),), "loss CSV")
    if write_data is not None:
        write_data()
    write_manifest(ManifestFile(manifest.config_digest, tuple(names)), manifest_path)
    try:
        for name in os.listdir(out_dir):
            if _is_snapshot_file(name) and name not in names:
                os.remove(os.path.join(out_dir, name))
    except OSError as exc:
        raise StorageError(f"cannot remove stale snapshot in {out_dir}: {exc}") from exc
    return manifest_path
