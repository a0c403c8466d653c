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
`train_stack` runs them as one trajectory. It runs several trajectories of
one layer shape and budget in one loop, each step one stacked
`loss_and_grad` and one `sgd_step` over (K, P) arrays, one row per
trajectory, and gives each run the bytes it gets alone. Every run goes
through it: `train` is a stack of one. It reads the schedule at each step
and tabulates nothing per iteration. A run whose loss turns non-finite, or
whose parameters are not all finite at a snapshot, ends with DivergenceError.

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

from .data import Dataset, can_allocate
from .errors import ConfigError, DivergenceError, InputError, SnapensError
from .nn import (
    SGD_BLOCK,
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
from .schedule import ScheduleSpec, lr_at
from .store import SnapshotRecord, StoredSnapshot, snapshot_name, staged_path, write_snapshot

# Each mode fixes its learning-rate schedule kind.
MODE_SCHEDULE = {
    "snapshot": "cyclic_cosine",
    "single": "step",
    "nocycle": "step",
    "singlecycle": "cyclic_cosine",
}
MODES = tuple(MODE_SCHEDULE)

# The most `step_bytes` that the runs of one `train_stack` loop may hold
# together. On a 2-vCPU Xeon (2 MB of L2 per core) with one BLAS thread,
# K stacked 2-64-64-2 runs at batch 64 (174,128 bytes each) stepped in
# 0.67-0.80x the time of K lone runs at K = 2-3, 0.74-0.91x at K = 4 and
# 0.96-1.03x at K = 5-6, where each step page-faults 90-160 times on its
# fresh activation arrays (under 3 at K <= 3). Three 2-128-128-2 runs
# (543,792 bytes each) took 1.15-1.26x; eight 2-32-32-2 runs took 0.57x.
# Under the `snapens` entry's malloc policy, K = 4-8 stacks fault 1-3 times
# a step and took 0.45-0.81x (0.64-0.73x at K = 3), but in-process callers
# without it still fault 83-221 times and take 1.0-1.4x, and a 2-CPU sweep
# of the benchmark stacks at most three runs per worker, so the bound stays.
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


def step_bytes(config: TrainConfig, n_examples: int) -> int:
    """The bytes a step of `config` on a split of `n_examples` rows holds:
    its parameter, velocity and gradient vectors and each layer's
    activations for the rows of its largest batch, min(batch_size, n)."""
    rows = min(config.batch_size, n_examples)
    return 8 * (3 * param_count(config.model) + rows * sum(config.model.layer_sizes[1:]))


def check_step_fits(config: TrainConfig, n_examples: int) -> None:
    """Raise ConfigError when this process cannot allocate the `step_bytes`
    of `config` on a split of `n_examples` rows (see `data.can_allocate`),
    so a command can check this before it locks or stages anything. It
    names train.batch_size when the parameter, velocity and gradient vectors
    alone fit, else model.layers."""
    size = step_bytes(config, n_examples)
    if can_allocate(size):
        return
    if can_allocate(24 * param_count(config.model)):
        key, value = "train.batch_size", config.batch_size
    else:
        key, value = "model.layers", ",".join(map(str, config.model.layer_sizes))
    raise ConfigError(f"{key}: {value} needs {size} bytes per training step, more than this process can allocate")


def trajectory_key(config: TrainConfig) -> str:
    """What steers the SGD steps of `config`: every field but `snapshot_count`,
    with `mode` reduced to whether each cycle re-initialises the parameters.
    On one training split, configs with equal keys take the same steps float
    for float and differ at most in where they snapshot (single and nocycle)."""
    fields = asdict(config)
    del fields["snapshot_count"]
    fields["mode"] = config.mode == "singlecycle"
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def snapshot_due(config: TrainConfig, t: int) -> bool:
    """Whether `config` snapshots after iteration t: at each cycle end of a
    cyclic schedule, a final partial cycle included; at floor(k * T / count)
    for k = 1..count in nocycle mode; else at T. The test is arithmetic on
    t, so a budget of 10**12 cycles lists nothing before the first step."""
    total = config.schedule.total_iterations
    if config.schedule.kind == "cyclic_cosine":
        return t % config.schedule.cycle_length == 0 or t == total
    if config.mode == "nocycle":
        count = config.snapshot_count
        return t == -(-t * count // total) * total // count  # k = ceil(t * count / T)
    return t == total


def train(config: TrainConfig, train_data: Dataset) -> RunManifest:
    """Run SGD per the config and return the snapshots and loss history."""
    (result,) = train_stack([([config], train_data, None)])
    if isinstance(result, BaseException):
        raise result
    return result[0]


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
        # per config: its digest, the config, its records and its directory
        self.runs = [
            (config_digest(c), c, [], out)
            for c, out in zip(configs, out_dirs or [None] * len(configs))
        ]
        self.epoch_losses: list[float] = []
        self.epoch_end_lrs: list[float] = []

    def reinit_cycle(self, t: int) -> int | None:
        """The cycle that iteration t starts from fresh parameters: each
        cycle after the first of a singlecycle run, at its first iteration."""
        if self.config.mode == "singlecycle":
            cycle_len = self.config.schedule.cycle_length
            if t > cycle_len and (t - 1) % cycle_len == 0:
                return (t - 1) // cycle_len + 1
        return None

    def capture(self, t: int, params: ParamVector, loss: float) -> None:
        """Record the parameters after iteration t for each config that
        snapshots there; parameters that are not all finite diverged at t."""
        if not np.isfinite(params).all():
            raise DivergenceError(t)
        captured = params if self.runs[0][3] is not None else params.copy()  # written out now, or kept
        for digest, config, records, out in self.runs:
            if snapshot_due(config, t):
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

    `groups` lists (configs, train_data, out_dirs) triples. The configs of a
    group share one `trajectory_key`, so they take one trajectory's steps,
    and each gets its own run: the records of its own snapshot iterations,
    numbered from 1, and the group's loss history. Without `out_dirs` a
    record holds a copy of the parameters; with one existing directory per
    config (see `store.staging`), each capture writes them to the staged
    path of that snapshot, for `store.save_run` to place.

    Every group must have the same layer sizes, batch size, split length and
    epochs. Parameters, velocity and gradient are (K, P) arrays, one row per
    group, and each step makes one stacked `loss_and_grad` call and one
    `sgd_step` call; each row gathers its batch from its own split and keeps
    its own shuffles, learning rates, momentum, weight decay, dropout masks,
    re-initialisations and captures, so each run has the bytes it gets in a
    stack of one.

    A group ends when its loss turns non-finite, when its parameters are not
    all finite at a snapshot, or when its snapshot cannot be written. Every
    row still steps, but it and the groups after it record nothing more,
    while the groups before it run to the end; the loop stops once no group
    records. So the result matches training the groups one after another up
    to the first that fails: each group's runs, in order, up to that group,
    whose entry is its error.
    """
    stack = [_Trajectory(*group) for group in groups]
    first = stack[0].config
    n, batch_size, epochs = len(stack[0].data), first.batch_size, first.epochs
    if any(loop_shape(r.config, len(r.data)) != loop_shape(first, n) for r in stack):
        raise InputError("the groups of one loop must share layer sizes, batch size, split length and epochs")
    specs = tuple(r.config.model for r in stack)
    momentum = [r.config.momentum for r in stack]
    # decay only the rows that set one: adding 0 * params would flip a -0.0 gradient
    decayed = [(k, r.config.weight_decay) for k, r in enumerate(stack) if r.config.weight_decay > 0.0]
    dropout_seeds = [r.config.seed if r.config.model.dropout_rate > 0.0 else None for r in stack]

    # The step only writes into these buffers. Rows are gathered into
    # preallocated batches of the full size and of the final batch's size;
    # each dataset was validated when it was built.
    workspace = Workspace(first.model, len(stack))
    params = workspace.params
    for k, run in enumerate(stack):
        init_params(run.config.model, run.config.seed, out=params[k])
    velocity = np.zeros_like(params)
    dim = stack[0].data.inputs.shape[1]
    sizes = {min(batch_size, n), n % batch_size or batch_size}
    batches = {b: Batch(np.zeros((len(stack), b, dim)), np.zeros((len(stack), b), dtype=np.int64)) for b in sizes}
    live, error = len(stack), None  # the rows before `live` record; `error` ended row `live`

    steps = ((epoch, start) for epoch in range(1, epochs + 1) for start in range(0, n, batch_size))
    # Overflows stay silent: each one that matters ends its row through a
    # non-finite loss at the next step or non-finite parameters at a capture,
    # both checked below, and a singlecycle re-init always follows a capture.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, (epoch, start) in enumerate(steps, 1):
            if start == 0:
                orders = np.array([
                    np.random.default_rng(derive_seed(r.config.seed, "shuffle", epoch)).permutation(n)
                    for r in stack
                ])
                epoch_losses = []  # each step's losses
            for k, run in enumerate(stack):
                cycle = run.reinit_cycle(t)
                if cycle is not None:
                    init_params(specs[k], derive_seed(run.config.seed, "reinit", cycle), out=params[k])
                    velocity[k] = 0.0
            idx = orders[:, start : start + batch_size]
            batch = batches[idx.shape[1]]
            # mode="clip" lets take write straight into `out`; every index is valid.
            for k, run in enumerate(stack):
                run.data.inputs.take(idx[k], axis=0, out=batch.inputs[k], mode="clip")
                run.data.labels.take(idx[k], out=batch.labels[k], mode="clip")
            seeds = [0 if seed is None else derive_seed(seed, "dropout", t) for seed in dropout_seeds]
            losses, grad = loss_and_grad(specs, params, batch, "train", seeds, workspace=workspace)
            for k, decay in decayed:
                grad[k] += decay * params[k]
            lrs = [lr_at(r.config.schedule, t) for r in stack]
            sgd_step(params, grad, velocity, lrs, momentum)
            epoch_losses.append(losses)
            for k, run in enumerate(stack[:live]):
                try:
                    if not math.isfinite(losses[k]):
                        raise DivergenceError(t)
                    if any(snapshot_due(c, t) for _, c, _, _ in run.runs):
                        run.capture(t, params[k], losses[k])
                except (SnapensError, OSError) as exc:
                    live, error = k, exc
                    break
            if not live:
                break
            if start + batch_size >= n:
                for k, run in enumerate(stack[:live]):
                    run.epoch_losses.append(float(np.mean([step[k] for step in epoch_losses])))
                    run.epoch_end_lrs.append(lrs[k])

    results = [run.manifests() for run in stack[:live]]
    return results if error is None else results + [error]
