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
`train_group` runs them in one loop. `train_stack` runs several such
trajectories of one layer shape and budget in one loop, each step one
stacked `loss_and_grad` and one `sgd_step` over (K, P) arrays, and gives each
run the bytes it gets alone; `train` is a stack of one.

Given run directories, the loop writes each snapshot from the live parameter
vector to the staged path `store.staged_path` names as it captures it, so a
run holds one parameter vector however many snapshots it takes;
`store.save_run` places the staged files.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError, DivergenceError, InputError, SnapensError
from .nn import (
    Batch,
    GradVector,
    ModelSpec,
    ParamVector,
    Workspace,
    check_labels,
    init_params,
    loss_and_grad,
    param_count,
)
from .schedule import ScheduleSpec, cycle_end_iterations, lr_at
from .store import SnapshotRecord, StoredSnapshot, snapshot_name, staged_path, write_snapshot

# Each mode fixes its learning-rate schedule kind.
MODE_SCHEDULE = {
    "snapshot": "cyclic_cosine",
    "single": "step",
    "nocycle": "step",
    "singlecycle": "cyclic_cosine",
}
MODES = tuple(MODE_SCHEDULE)

# sgd_step's block of float64s: 256 KB of each vector, so the blocks of the
# step's vectors stay in L2 cache across its three ops
SGD_BLOCK = 32768

# The most `step_bytes` that the runs of one `train_stack` loop may hold
# together. On a 2-vCPU Xeon (2 MB of L2 per core) with one BLAS thread,
# K stacked 2-64-64-2 runs at batch 64 (174,128 bytes each) stepped in
# 0.67-0.80x the time of K lone runs at K = 2-3, 0.74-0.91x at K = 4 and
# 0.96-1.03x at K = 5-6, where each step page-faults 90-160 times on its
# fresh activation arrays (under 3 at K <= 3). Three 2-128-128-2 runs
# (543,792 bytes each) took 1.15-1.26x; eight 2-32-32-2 runs took 0.57x.
STACK_BYTES = 512 * 1024


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
            if self.snapshot_count > self.schedule.total_iterations:
                raise ConfigError("schedule.cycles: snapshot count exceeds total iterations")
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
    lr,
    momentum,
) -> tuple[ParamVector, np.ndarray]:
    """Heavy-ball update: v' = momentum*v - lr*grad; params' = params + v'.

    Updates `velocity` and then `params` in place (`v *= momentum;
    v -= lr*grad; params += v`) and returns those same two arrays. Both must
    be float64 arrays of the gradient's shape: vectors with a float `lr` and
    `momentum`, or (K, P) stacks of K runs with a sequence of K floats of
    each, which update each row as its own vector. The three ops run on one
    block of `SGD_BLOCK` elements at a time, so the block stays in cache
    between them; each element gets the same float ops as over whole vectors.
    """
    if grad.shape != params.shape or velocity.shape != params.shape:
        raise InputError("params, grad and velocity must have matching lengths")
    rows = zip(range(len(params)), lr, momentum) if params.ndim == 2 else [(..., lr, momentum)]
    for row, rate, mass in rows:
        for start in range(0, params.shape[-1], SGD_BLOCK):
            block = (row, slice(start, start + SGD_BLOCK))
            v = velocity[block]
            v *= mass
            v -= rate * grad[block]
            params[block] += v
    return params, velocity


def loop_shape(config: TrainConfig, n_examples: int) -> tuple:
    """What the runs of one `train_stack` loop must share: layer sizes,
    batch size, training-set size and epochs."""
    return (config.model.layer_sizes, config.batch_size, n_examples, config.epochs)


def step_bytes(config: TrainConfig) -> int:
    """The bytes a step of `config` holds: its parameter, velocity and
    gradient vectors and one full batch of each layer's activations."""
    return 8 * (3 * param_count(config.model) + config.batch_size * sum(config.model.layer_sizes[1:]))


def check_step_fits(config: TrainConfig) -> None:
    """Raise ConfigError, naming model.layers, when this process cannot
    allocate the `step_bytes` of `config`. The request writes no memory, and
    one the kernel cannot grant fails at once, so a command can check this
    before it locks or stages anything."""
    size = step_bytes(config)
    try:
        np.empty(size, dtype=np.uint8)
    except (MemoryError, ValueError):  # ValueError: more bytes than an array can index
        sizes = ",".join(map(str, config.model.layer_sizes))
        raise ConfigError(
            f"model.layers: {sizes} needs {size} bytes per training step, more than this process can allocate"
        ) from None


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
    """The iterations `config` snapshots after."""
    total = config.schedule.total_iterations
    if config.schedule.kind == "cyclic_cosine":
        return cycle_end_iterations(config.schedule)
    if config.mode == "nocycle":
        count = config.snapshot_count
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
    `out_dirs`, one existing directory per config (see `store.staging`),
    each capture writes the live parameters to the staged path of that
    snapshot in the config's directory and the run holds `StoredSnapshot`s
    of those files, for `store.save_run` to place.
    """
    (result,) = train_stack([(configs, train_data, out_dirs)])
    if isinstance(result, BaseException):
        raise result
    return result


class _Trajectory:
    """One row of a stacked loop: a group of configs that share one
    `trajectory_key`, the split they train on, their run directories (or
    None) and what the loop has recorded for them."""

    def __init__(self, configs, data, out_dirs):
        config = self.config = configs[0]
        key = trajectory_key(config)
        if any(trajectory_key(other) != key for other in configs[1:]):
            raise InputError("configs trained in one loop must share one trajectory_key")
        total = iterations_for(len(data), config.batch_size, config.epochs)
        if total != config.schedule.total_iterations:
            raise ConfigError(
                f"schedule.total_iterations is {config.schedule.total_iterations} but "
                f"epochs x ceil(n/batch_size) = {total}"
            )
        check_labels(config.model, data.labels)
        self.data = data
        # per config: its digest, its snapshot iterations, its records and its directory
        self.runs = [
            (config_digest(c), set(snapshot_iterations(c)), [], out)
            for c, out in zip(configs, out_dirs or [None] * len(configs))
        ]
        self.snapshot_at = set().union(*(at for _, at, _, _ in self.runs))
        self.lrs = [lr_at(config.schedule, t) for t in range(1, total + 1)]
        self.epoch_losses: list[float] = []
        self.epoch_end_lrs: list[float] = []

    def reinits(self) -> list[tuple[int, int]]:
        """(iteration, cycle) of each cycle after the first of a singlecycle
        run, which starts that iteration from fresh parameters."""
        if self.config.mode != "singlecycle":
            return []
        cycle_len = self.config.schedule.cycle_length
        starts = range(cycle_len + 1, self.config.schedule.total_iterations + 1, cycle_len)
        return [(t, (t - 1) // cycle_len + 1) for t in starts]

    def capture(self, t: int, params: ParamVector, loss: float) -> None:
        """Record the parameters after iteration t for each config that snapshots there."""
        captured = params if self.runs[0][3] is not None else params.copy()  # written out now, or kept
        for digest, at, records, out in self.runs:
            if t in at:
                record = SnapshotRecord(self.config.model, captured, len(records) + 1, t, loss, digest)
                if out is not None:  # the live params go to disk now; keep the file's header
                    record = write_snapshot(record, staged_path(out, snapshot_name(record.cycle_index)))
                records.append(record)

    def manifests(self) -> list[RunManifest]:
        return [
            RunManifest(digest, records, list(self.epoch_losses), list(self.epoch_end_lrs))
            for digest, _, records, _ in self.runs
        ]


def train_stack(groups) -> list:
    """Run several SGD trajectories in one loop, one step of each per pass.

    `groups` lists (configs, train_data, out_dirs) triples, each the
    arguments of one `train_group` call. Every group must have the same
    layer sizes, batch size, split length and epochs. Parameters, velocity
    and gradient are (K, P) arrays, one row per group, and each step makes
    one stacked `loss_and_grad` call and one `sgd_step` call; each row keeps
    its own shuffles, learning rates, momentum, weight decay, dropout masks,
    re-initialisations and captures, so each run has the bytes
    `train_group` gives it alone.

    A group whose loss turns non-finite, or whose snapshot cannot be
    written, ends with that error, and so do the groups after it, while the
    groups before it run to the end. So the result matches training the
    groups one after another up to the first that fails: each group's runs,
    in order, up to that group, whose entry is its error.
    """
    stack = [_Trajectory(*group) for group in groups]
    first = stack[0].config
    n, batch_size, epochs = len(stack[0].data), first.batch_size, first.epochs
    if any(loop_shape(r.config, len(r.data)) != loop_shape(first, n) for r in stack):
        raise InputError("the groups of one loop must share layer sizes, batch size, split length and epochs")
    specs = tuple(r.config.model for r in stack)
    lrs = list(zip(*(r.lrs for r in stack)))  # per iteration, each row's learning rate
    momentum = [r.config.momentum for r in stack]
    # decay only the rows that set one: adding 0 * params would flip a -0.0 gradient
    decayed = [(k, r.config.weight_decay) for k, r in enumerate(stack) if r.config.weight_decay > 0.0]
    dropout_seeds = [r.config.seed if r.config.model.dropout_rate > 0.0 else None for r in stack]
    reinits, captures = {}, {}  # iteration -> the rows that re-initialise or capture there
    for k, run in enumerate(stack):
        for t, cycle in run.reinits():
            reinits.setdefault(t, []).append((k, cycle))
        for t in run.snapshot_at:
            captures.setdefault(t, []).append(k)
    shared_data = stack[0].data if all(r.data is stack[0].data for r in stack) else None

    # The step only writes into these buffers. Rows are gathered into
    # preallocated batches of the full size and of the final batch's size;
    # each dataset was validated when it was built. When a row ends, the
    # loop goes on over views of the rows before it.
    full = Workspace(first.model, len(stack))
    for k, run in enumerate(stack):
        full.params[k] = init_params(run.config.model, run.config.seed)
    velocity = np.zeros_like(full.params)  # after the init vectors, so it reuses their freed memory
    dim = stack[0].data.inputs.shape[1]
    sizes = {min(batch_size, n), n % batch_size or batch_size}
    buffers = {b: (np.zeros((len(stack), b, dim)), np.zeros((len(stack), b), dtype=np.int64)) for b in sizes}
    errors = {}  # row -> the error that ended it

    def bind(rows):
        """The step's views of the first `rows` rows."""
        return rows, full.head(rows), {b: Batch(x[:rows], y[:rows]) for b, (x, y) in buffers.items()}

    live, workspace, batches = bind(len(stack))
    t = 0
    for epoch in range(1, epochs + 1):
        orders = np.array([
            np.random.default_rng(derive_seed(r.config.seed, "shuffle", epoch)).permutation(n)
            for r in stack[:live]
        ])
        epoch_losses = []  # each step's losses of the rows live at that step
        for start in range(0, n, batch_size):
            t += 1
            params = workspace.params
            for k, cycle in reinits.get(t, ()):
                if k < live:
                    params[k] = init_params(specs[k], derive_seed(stack[k].config.seed, "reinit", cycle))
                    velocity[k] = 0.0
            idx = orders[:live, start : start + batch_size]
            batch = batches[idx.shape[1]]
            # mode="clip" lets take write straight into `out`; every index is valid.
            if shared_data is not None:
                shared_data.inputs.take(idx, axis=0, out=batch.inputs, mode="clip")
                shared_data.labels.take(idx, out=batch.labels, mode="clip")
            else:
                for k in range(live):
                    stack[k].data.inputs.take(idx[k], axis=0, out=batch.inputs[k], mode="clip")
                    stack[k].data.labels.take(idx[k], out=batch.labels[k], mode="clip")
            seeds = [0 if seed is None else derive_seed(seed, "dropout", t) for seed in dropout_seeds[:live]]
            losses, grad = loss_and_grad(specs[:live], params, batch, "train", seeds, workspace=workspace)
            if not all(map(math.isfinite, losses)):
                diverged = next(k for k, loss in enumerate(losses) if not math.isfinite(loss))
                errors[diverged] = DivergenceError(t)
                live, workspace, batches = bind(diverged)
                params, grad = workspace.params, grad[:live]
            for k, decay in decayed:
                if k < live:
                    grad[k] += decay * params[k]
            sgd_step(params, grad, velocity[:live], lrs[t - 1][:live], momentum[:live])
            epoch_losses.append(losses)
            for k in captures.get(t, ()):
                if k < live:
                    try:
                        stack[k].capture(t, params[k], losses[k])
                    except (SnapensError, OSError) as exc:
                        errors[k] = exc
                        live, workspace, batches = bind(k)
            if not live:
                break
        if not live:
            break
        for k in range(live):
            stack[k].epoch_losses.append(float(np.mean([step[k] for step in epoch_losses])))
            stack[k].epoch_end_lrs.append(stack[k].lrs[t - 1])

    results = [run.manifests() for run in stack[:live]]
    if errors:
        results.append(errors[live])  # the first row that ended
    return results
