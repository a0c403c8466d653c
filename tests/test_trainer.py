import copy
from dataclasses import fields, replace

import numpy as np
import pytest

from snapens.config import ExperimentConfig, resolve_train_config
from snapens.data import gen_blobs, gen_two_moons
from snapens.errors import ConfigError, DivergenceError, InputError, StorageError
from snapens.nn import Batch, ModelSpec, init_params, loss_and_grad, param_count
from snapens.schedule import ScheduleSpec, lr_at
from snapens.store import save_run
from snapens.trainer import (
    SGD_BLOCK,
    TrainConfig,
    config_digest,
    derive_seed,
    iterations_for,
    sgd_step,
    train,
    train_stack,
    trajectory_key,
)

MODEL = ModelSpec((2, 8, 2))


def cyclic_config(data_n, batch_size, epochs, cycles, **kwargs):
    total = iterations_for(data_n, batch_size, epochs)
    schedule = ScheduleSpec("cyclic_cosine", kwargs.pop("alpha0", 0.2), total, cycles)
    return TrainConfig(MODEL, schedule, "snapshot", epochs, batch_size, **kwargs)


def step_config(data_n, batch_size, epochs, mode, **kwargs):
    total = iterations_for(data_n, batch_size, epochs)
    schedule = ScheduleSpec("step", kwargs.pop("alpha0", 0.1), total)
    return TrainConfig(MODEL, schedule, mode, epochs, batch_size, **kwargs)


def with_field(obj, path, value):
    """A copy of obj with the (nested) field at path set to value. It bypasses
    validation: only a hash's coverage is under test."""
    name, *rest = path
    out = copy.copy(obj)
    inner = with_field(getattr(obj, name), rest, value) if rest else value
    object.__setattr__(out, name, inner)
    return out


def field_paths():
    """Every field of a TrainConfig and of its nested specs."""
    paths = [(f.name,) for f in fields(TrainConfig) if f.name not in ("model", "schedule")]
    paths += [("model", f.name) for f in fields(ModelSpec)]
    paths += [("schedule", f.name) for f in fields(ScheduleSpec)]
    return paths


def test_config_digest_covers_every_field():
    """Changing any one field of a TrainConfig or of its nested specs changes
    the digest, so a field added later cannot escape it."""
    config = cyclic_config(100, 10, 4, 2, momentum=0.5, seed=3)
    paths = field_paths()
    assert len(paths) == 15
    for path in paths:
        assert config_digest(with_field(config, path, "changed")) != config_digest(config), path


def test_trajectory_key_covers_every_field_that_steers_a_step():
    """Every field but the snapshot count and the mode steers the steps, so
    changing it changes the key; of the mode, only re-initialising counts."""
    config = cyclic_config(100, 10, 4, 2, momentum=0.5, seed=3)
    paths = [path for path in field_paths() if path not in (("snapshot_count",), ("mode",))]
    assert len(paths) == 13
    for path in paths:
        assert trajectory_key(with_field(config, path, "changed")) != trajectory_key(config), path
    assert trajectory_key(replace(config, mode="singlecycle")) != trajectory_key(config)
    single = step_config(100, 10, 4, "single", seed=3)
    assert trajectory_key(single) == trajectory_key(replace(single, mode="nocycle", snapshot_count=5))
    cfg = ExperimentConfig(replace(single, mode="nocycle", snapshot_count=3), "two_moons", {}, "runs/a")
    assert trajectory_key(resolve_train_config(cfg, 100)) == trajectory_key(
        resolve_train_config(replace(cfg, output_dir="runs/b"), 100)
    )


def test_group_gives_each_config_the_run_it_gets_alone():
    data = gen_two_moons(106, 0.1, seed=0)
    single = step_config(106, 10, 3, "single", seed=4)
    nocycle = replace(single, mode="nocycle", snapshot_count=3)
    (runs,) = train_stack([([nocycle, single], data, None)])
    for config, grouped in zip([nocycle, single], runs):
        alone = train(config, data)
        assert grouped.config_digest == alone.config_digest
        assert (grouped.epoch_losses, grouped.epoch_end_lrs) == (alone.epoch_losses, alone.epoch_end_lrs)
        assert [(r.cycle_index, r.iteration, r.train_loss, r.config_digest, r.params.tobytes())
                for r in grouped.snapshots] == [
            (r.cycle_index, r.iteration, r.train_loss, r.config_digest, r.params.tobytes())
            for r in alone.snapshots
        ]


def test_group_with_two_trajectories_is_refused():
    data = gen_two_moons(106, 0.1, seed=0)
    single = step_config(106, 10, 3, "single", seed=4)
    with pytest.raises(InputError, match="trajectory_key"):
        train_stack([([single, replace(single, seed=5)], data, None)])


def test_sgd_step_vanilla():
    params = np.array([1.0, 2.0])
    grad = np.array([0.5, -1.0])
    new_params, new_velocity = sgd_step(params, grad, np.zeros(2), lr=0.1, momentum=0.0)
    np.testing.assert_allclose(new_params, [0.95, 2.1], atol=0)
    np.testing.assert_allclose(new_velocity, [-0.05, 0.1], atol=0)


def test_sgd_step_identity_on_zero_grad():
    params = np.array([1.0, -3.0])
    new_params, new_velocity = sgd_step(params, np.zeros(2), np.zeros(2), 0.5, 0.9)
    np.testing.assert_array_equal(new_params, [1.0, -3.0])
    np.testing.assert_array_equal(new_velocity, np.zeros(2))


def test_sgd_two_steps_match_hand_expansion():
    # constant grad g: v2 = -(1 + m) lr g, p2 = p0 - (2 + m) lr g
    p0 = np.array([0.5])
    g = np.array([2.0])
    lr, m = 0.1, 0.9
    p1, v1 = sgd_step(p0, g, np.zeros(1), lr, m)
    p2, v2 = sgd_step(p1, g, v1, lr, m)
    np.testing.assert_allclose(v2, -(1 + m) * lr * g, rtol=1e-15)
    np.testing.assert_allclose(p2, 0.5 - (2 + m) * lr * g, rtol=1e-15)


def test_sgd_step_in_place_returns_its_arguments_with_the_same_bits():
    rng = np.random.default_rng(5)
    params, grad, velocity = rng.normal(size=(3, 50))
    expected_velocity = 0.9 * velocity - 0.07 * grad
    expected_params = params + expected_velocity
    out_params, out_velocity = sgd_step(params, grad, velocity, 0.07, 0.9)
    assert out_params is params and out_velocity is velocity
    assert params.tobytes() == expected_params.tobytes()
    assert velocity.tobytes() == expected_velocity.tobytes()


@pytest.mark.parametrize("length", [1, SGD_BLOCK, 2 * SGD_BLOCK + 3], ids=["1", "block", "short_last_block"])
def test_blocked_sgd_step_matches_the_whole_vector_update_bit_for_bit(length):
    rng = np.random.default_rng(length)
    params, grad, velocity = rng.normal(size=(3, length))
    expected_params, expected_velocity = params.copy(), velocity.copy()
    for _ in range(2):
        expected_velocity *= 0.9
        expected_velocity -= 0.013 * grad
        expected_params += expected_velocity
        out_params, out_velocity = sgd_step(params, grad, velocity, 0.013, 0.9)
        assert out_params is params and out_velocity is velocity
    assert params.tobytes() == expected_params.tobytes()
    assert velocity.tobytes() == expected_velocity.tobytes()


def test_sgd_step_length_mismatch():
    with pytest.raises(InputError):
        sgd_step(np.zeros(3), np.zeros(2), np.zeros(3), 0.1, 0.0)


def test_snapshot_mode_captures_every_cycle_end():
    data = gen_two_moons(100, 0.1, seed=0)
    config = cyclic_config(100, 10, 12, 6, seed=5)  # T = 120, L = 20
    manifest = train(config, data)
    assert [r.iteration for r in manifest.snapshots] == [20, 40, 60, 80, 100, 120]
    assert [r.cycle_index for r in manifest.snapshots] == [1, 2, 3, 4, 5, 6]
    assert len(manifest.epoch_losses) == 12
    assert all(len(r.params) == param_count(MODEL) for r in manifest.snapshots)


def test_six_hundred_iteration_run_snapshots_every_hundred():
    data = gen_two_moons(100, 0.1, seed=0)
    config = cyclic_config(100, 10, 60, 6, seed=1)  # T = 600, L = 100
    manifest = train(config, data)
    assert [r.iteration for r in manifest.snapshots] == [100, 200, 300, 400, 500, 600]


def test_single_mode_takes_one_final_snapshot():
    data = gen_two_moons(100, 0.1, seed=0)
    manifest = train(step_config(100, 10, 5, "single", seed=5), data)
    assert [r.iteration for r in manifest.snapshots] == [50]


def test_nocycle_mode_snapshots_equally_spaced():
    data = gen_two_moons(100, 0.1, seed=0)
    manifest = train(step_config(100, 10, 12, "nocycle", seed=5, snapshot_count=5), data)
    assert [r.iteration for r in manifest.snapshots] == [24, 48, 72, 96, 120]


def test_snapshot_lr_is_cycle_minimum():
    data = gen_two_moons(100, 0.1, seed=0)
    config = cyclic_config(100, 10, 12, 6, seed=5)
    manifest = train(config, data)
    for record in manifest.snapshots:
        end = record.iteration
        cycle_lrs = [lr_at(config.schedule, t) for t in range(end - 19, end + 1)]
        assert lr_at(config.schedule, end) == min(cycle_lrs)


def test_training_is_bit_deterministic():
    data = gen_two_moons(120, 0.15, seed=2)
    config = cyclic_config(120, 16, 8, 4, seed=9)  # bpe=8, T=64
    a = train(config, data)
    b = train(config, data)
    assert a.config_digest == b.config_digest
    assert a.epoch_losses == b.epoch_losses
    for ra, rb in zip(a.snapshots, b.snapshots):
        assert ra.params.tobytes() == rb.params.tobytes()


def test_saved_runs_are_byte_identical(tmp_path):
    data = gen_two_moons(120, 0.15, seed=2)
    config = cyclic_config(120, 16, 8, 4, seed=9)
    save_run(train(config, data), tmp_path / "one")
    save_run(train(config, data), tmp_path / "two")
    for name in sorted(p.name for p in (tmp_path / "one").iterdir()):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_singlecycle_one_cycle_equals_snapshot_run():
    data = gen_two_moons(100, 0.1, seed=0)
    total = iterations_for(100, 10, 4)
    schedule = ScheduleSpec("cyclic_cosine", 0.2, total, 1)
    snap = train(TrainConfig(MODEL, schedule, "snapshot", 4, 10, seed=3), data)
    single_cycle = train(TrainConfig(MODEL, schedule, "singlecycle", 4, 10, seed=3), data)
    assert snap.snapshots[-1].params.tobytes() == single_cycle.snapshots[-1].params.tobytes()


def test_singlecycle_reinitializes_between_cycles():
    data = gen_two_moons(100, 0.1, seed=0)
    total = iterations_for(100, 10, 12)
    schedule = ScheduleSpec("cyclic_cosine", 0.2, total, 6)
    snap = train(TrainConfig(MODEL, schedule, "snapshot", 12, 10, seed=3), data)
    sc = train(TrainConfig(MODEL, schedule, "singlecycle", 12, 10, seed=3), data)
    assert len(sc.snapshots) == 6
    # first cycle identical (same init, same batches), later cycles diverge
    assert snap.snapshots[0].params.tobytes() == sc.snapshots[0].params.tobytes()
    assert snap.snapshots[1].params.tobytes() != sc.snapshots[1].params.tobytes()


def test_training_loss_decreases_on_two_moons():
    data = gen_two_moons(400, 0.1, seed=1)
    model = ModelSpec((2, 32, 32, 2))
    total = iterations_for(400, 40, 30)
    schedule = ScheduleSpec("cyclic_cosine", 0.2, total, 6)
    manifest = train(TrainConfig(model, schedule, "snapshot", 30, 40, seed=1), data)
    assert manifest.epoch_losses[-1] < manifest.epoch_losses[0]


def test_final_partial_batch_is_kept():
    data = gen_two_moons(106, 0.1, seed=0)  # 11 batches of <=10 per epoch
    config = cyclic_config(106, 10, 2, 2, seed=0)
    assert config.schedule.total_iterations == 22
    manifest = train(config, data)
    assert manifest.snapshots[-1].iteration == 22


def test_schedule_total_mismatch_is_config_error():
    data = gen_two_moons(100, 0.1, seed=0)
    schedule = ScheduleSpec("cyclic_cosine", 0.2, 999, 3)
    config = TrainConfig(MODEL, schedule, "snapshot", 10, 10, seed=0)
    with pytest.raises(ConfigError, match="total_iterations"):
        train(config, data)


def test_mode_schedule_kind_pairing_enforced():
    cyclic = ScheduleSpec("cyclic_cosine", 0.2, 100, 2)
    step = ScheduleSpec("step", 0.1, 100)
    with pytest.raises(ConfigError, match="schedule.kind"):
        TrainConfig(MODEL, step, "snapshot", 10, 10)
    with pytest.raises(ConfigError, match="schedule.kind"):
        TrainConfig(MODEL, cyclic, "single", 10, 10)
    with pytest.raises(ConfigError, match="cycles"):
        TrainConfig(MODEL, step, "nocycle", 10, 10)  # snapshot count missing
    with pytest.raises(ConfigError):
        TrainConfig(MODEL, cyclic, "snapshot", 10, 10, snapshot_count=4)
    with pytest.raises(ConfigError):
        TrainConfig(MODEL, cyclic, "snapshot", 10, 10, momentum=1.0)


def test_unfittable_cycle_count_is_config_error():
    # T = 10, M = 7 -> L = 2 -> only 5 cycle ends
    with pytest.raises(InputError, match=r"7 cycles cannot fit 10 iterations \(would yield 5 snapshots\)"):
        ScheduleSpec("cyclic_cosine", 0.2, 10, 7)


def test_nocycle_snapshot_count_above_t_is_config_error():
    step = ScheduleSpec("step", 0.1, 10)
    assert TrainConfig(MODEL, step, "nocycle", 1, 1, snapshot_count=10).snapshot_count == 10
    with pytest.raises(ConfigError, match="snapshot count exceeds total iterations"):
        TrainConfig(MODEL, step, "nocycle", 1, 1, snapshot_count=11)


def test_divergence_raises_with_iteration():
    data = gen_blobs(60, 3, 0.5, seed=0)
    model = ModelSpec((2, 8, 3))
    total = iterations_for(60, 10, 4)
    schedule = ScheduleSpec("cyclic_cosine", 1e18, total, 2)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError, match="diverged at iteration"):
            train(TrainConfig(model, schedule, "snapshot", 4, 10, seed=0), data)


def test_weight_decay_changes_the_result():
    data = gen_two_moons(100, 0.1, seed=0)
    base = train(cyclic_config(100, 10, 4, 2, seed=1), data)
    decayed = train(cyclic_config(100, 10, 4, 2, seed=1, weight_decay=0.01), data)
    assert base.snapshots[-1].params.tobytes() != decayed.snapshots[-1].params.tobytes()


def test_config_digest_is_stable_and_sensitive():
    config = cyclic_config(100, 10, 4, 2, seed=1)
    assert config_digest(config) == config_digest(config)
    assert len(config_digest(config)) == 16
    other = cyclic_config(100, 10, 4, 2, seed=2)
    assert config_digest(config) != config_digest(other)


def test_derive_seed_streams_are_distinct():
    assert derive_seed(1, "shuffle", 1) != derive_seed(1, "shuffle", 2)
    assert derive_seed(1, "shuffle", 1) != derive_seed(1, "dropout", 1)
    assert derive_seed(1, "shuffle", 1) == derive_seed(1, "shuffle", 1)
    assert 0 <= derive_seed(123, "x") < 2**64


def test_save_run_layout(tmp_path):
    data = gen_two_moons(100, 0.1, seed=0)
    manifest = train(cyclic_config(100, 10, 4, 2, seed=1), data)
    out = tmp_path / "run"
    manifest_path = save_run(manifest, out)
    assert sorted(p.name for p in out.iterdir()) == [
        "loss.csv",
        "run.manifest",
        "snap_001.snap",
        "snap_002.snap",
    ]
    text = (out / "loss.csv").read_text().splitlines()
    assert text[0] == "epoch,mean_train_loss,lr_at_epoch_end"
    assert len(text) == 1 + 4
    assert manifest_path.endswith("run.manifest")


def reference_train(config, data):
    """The training loop with per-step copies, allocating calls and the update spelled out."""
    n = len(data)
    total = config.schedule.total_iterations
    cycle_len = config.schedule.cycle_length if config.mode == "singlecycle" else None
    params = init_params(config.model, config.seed)
    velocity = np.zeros_like(params)
    t = 0
    for epoch in range(1, config.epochs + 1):
        order = np.random.default_rng(derive_seed(config.seed, "shuffle", epoch)).permutation(n)
        for start in range(0, n, config.batch_size):
            t += 1
            if cycle_len and t > 1 and (t - 1) % cycle_len == 0:
                params = init_params(
                    config.model, derive_seed(config.seed, "reinit", (t - 1) // cycle_len + 1)
                )
                velocity = np.zeros_like(params)
            idx = order[start : start + config.batch_size]
            batch = Batch(data.inputs[idx], data.labels[idx])
            _, grad = loss_and_grad(
                config.model, params, batch, "train", derive_seed(config.seed, "dropout", t)
            )
            grad = grad + config.weight_decay * params if config.weight_decay > 0.0 else grad
            velocity = config.momentum * velocity - lr_at(config.schedule, t) * grad
            params = params + velocity
    assert t == total
    return params


@pytest.mark.parametrize(
    "config",
    [
        cyclic_config(106, 10, 3, 2, seed=4, weight_decay=0.01),
        step_config(106, 10, 3, "single", seed=4),
        TrainConfig(
            ModelSpec((2, 8, 8, 2), dropout_rate=0.25),
            ScheduleSpec("step", 0.1, iterations_for(106, 10, 3)),
            "single", 3, 10, seed=4,
        ),
        TrainConfig(
            MODEL,
            ScheduleSpec("cyclic_cosine", 0.2, iterations_for(106, 10, 3), 3),
            "singlecycle", 3, 10, seed=4,
        ),
    ],
    ids=["snapshot-weight-decay", "single", "dropout", "singlecycle"],
)
def test_train_matches_allocating_reference_loop_bit_for_bit(config):
    data = gen_two_moons(106, 0.1, seed=0)  # 11 batches per epoch, the last one partial
    final = train(config, data).snapshots[-1].params
    assert final.tobytes() == reference_train(config, data).tobytes()


def run_key(run):
    """Everything a run holds, with each snapshot's parameter bytes."""
    return (
        run.config_digest, run.epoch_losses, run.epoch_end_lrs,
        [(r.cycle_index, r.iteration, r.train_loss, r.config_digest, r.params.tobytes()) for r in run.snapshots],
    )


def each_alone(configs, data):
    """Each config's run, trained by `train` on its own."""
    return [train(config, data) for config in configs]


def stack_groups_of(n, batch_size, epochs):
    """Five groups of one layer shape: snapshot; singlecycle with weight
    decay; single with dropout and a second momentum; a nocycle/single pair
    on one trajectory; snapshot with weight decay and the second momentum."""
    total = iterations_for(n, batch_size, epochs)
    cyclic = ScheduleSpec("cyclic_cosine", 0.2, total, 3)
    step = ScheduleSpec("step", 0.1, total)
    model = ModelSpec((2, 8, 8, 2))
    return [
        [TrainConfig(model, cyclic, "snapshot", epochs, batch_size, seed=1)],
        [TrainConfig(model, cyclic, "singlecycle", epochs, batch_size, seed=2, weight_decay=1e-3)],
        [TrainConfig(ModelSpec((2, 8, 8, 2), dropout_rate=0.3), step, "single", epochs, batch_size,
                     momentum=0.5, seed=3)],
        [TrainConfig(model, step, "nocycle", epochs, batch_size, seed=4, snapshot_count=4),
         TrainConfig(model, step, "single", epochs, batch_size, seed=4)],
        [TrainConfig(model, cyclic, "snapshot", epochs, batch_size, momentum=0.5, seed=5, weight_decay=5e-4)],
    ]


@pytest.mark.parametrize("size", [1, 2, 3])
def test_stacked_runs_match_their_lone_runs_byte_for_byte(size):
    data = gen_two_moons(106, 0.1, seed=0)  # 11 batches per epoch, the last one of 6 rows
    groups = stack_groups_of(106, 10, 4)
    alone = [[run_key(run) for run in each_alone(configs, data)] for configs in groups]
    for first in range(len(groups) - size + 1):
        window = groups[first : first + size]
        stacked = train_stack([(configs, data, None) for configs in window])
        assert [[run_key(run) for run in runs] for runs in stacked] == alone[first : first + size]


def test_stacked_groups_may_train_on_different_splits_of_one_size():
    moons, blobs = gen_two_moons(106, 0.1, seed=0), gen_blobs(106, 2, 0.5, seed=1)
    first, second = stack_groups_of(106, 10, 2)[:2]
    stacked = train_stack([(first, moons, None), (second, blobs, None)])
    assert [run_key(run) for run in stacked[0]] == [run_key(run) for run in each_alone(first, moons)]
    assert [run_key(run) for run in stacked[1]] == [run_key(run) for run in each_alone(second, blobs)]


def test_stack_of_different_shapes_is_refused():
    data = gen_two_moons(106, 0.1, seed=0)
    short, long = stack_groups_of(106, 10, 2)[0], stack_groups_of(106, 10, 3)[0]
    with pytest.raises(InputError, match="share layer sizes"):
        train_stack([(short, data, None), (long, data, None)])


def diverging(configs, alpha0=1e18):
    """The group with a learning rate and a weight decay that overflow its
    loss within a few steps (1e18: at iteration 5 for each group here)."""
    return [replace(c, schedule=replace(c.schedule, alpha0=alpha0), weight_decay=1e-3) for c in configs]


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_a_diverging_row_ends_itself_and_the_rows_after_it(failing):
    data = gen_two_moons(106, 0.1, seed=0)
    groups = stack_groups_of(106, 10, 4)[:3]
    groups[failing] = diverging(groups[failing])
    with np.errstate(all="ignore"):
        stacked = train_stack([(configs, data, None) for configs in groups])
        with pytest.raises(DivergenceError) as alone:
            each_alone(groups[failing], data)
    assert len(stacked) == failing + 1
    for configs, runs in zip(groups, stacked[:failing]):
        assert [run_key(run) for run in runs] == [run_key(run) for run in each_alone(configs, data)]
    assert isinstance(stacked[-1], DivergenceError)
    assert stacked[-1].iteration == alone.value.iteration


def test_a_later_failure_of_an_earlier_row_is_the_one_reported():
    data = gen_two_moons(106, 0.1, seed=0)
    groups = stack_groups_of(106, 10, 4)[:3]
    groups[2] = diverging(groups[2])
    groups[0] = diverging(groups[0], alpha0=1e3)  # later: at iteration 18
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError) as first:
            each_alone(groups[0], data)
        with pytest.raises(DivergenceError) as third:
            each_alone(groups[2], data)
        stacked = train_stack([(configs, data, None) for configs in groups])
    assert third.value.iteration < first.value.iteration
    assert len(stacked) == 1 and stacked[0].iteration == first.value.iteration


@pytest.mark.parametrize("failing", [0, 1])
def test_a_row_whose_snapshot_cannot_be_written_ends_like_a_diverging_one(tmp_path, monkeypatch, failing):
    import snapens.trainer as trainer_mod

    data = gen_two_moons(106, 0.1, seed=0)
    groups = stack_groups_of(106, 10, 4)[:3]
    dirs = []
    for k, configs in enumerate(groups):
        dirs.append([tmp_path / f"g{k}_{i}" for i in range(len(configs))])
        for out in dirs[-1]:
            out.mkdir()
    real_write = trainer_mod.write_snapshot

    def refuse(record, path):
        if f"g{failing}_" in str(path):
            raise StorageError(f"cannot write snapshot {path}: disk full")
        return real_write(record, path)

    monkeypatch.setattr(trainer_mod, "write_snapshot", refuse)
    stacked = train_stack([(configs, data, out) for configs, out in zip(groups, dirs)])
    assert len(stacked) == failing + 1 and isinstance(stacked[-1], StorageError)
    for configs, runs in zip(groups, stacked[:failing]):
        assert [run_key(run) for run in runs] == [run_key(run) for run in each_alone(configs, data)]


def test_stacked_sgd_step_updates_each_row_as_its_own_vector():
    rng = np.random.default_rng(9)
    params, grad, velocity = rng.normal(size=(3, 2, 40))
    expected = [sgd_step(p.copy(), g, v.copy(), lr, m) for p, g, v, lr, m in
                zip(params, grad, velocity, (0.1, 0.02), (0.9, 0.5))]
    out_params, out_velocity = sgd_step(params, grad, velocity, (0.1, 0.02), (0.9, 0.5))
    assert out_params is params and out_velocity is velocity
    assert params.tobytes() == np.stack([p for p, _ in expected]).tobytes()
    assert velocity.tobytes() == np.stack([v for _, v in expected]).tobytes()
