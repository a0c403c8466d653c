"""`snapens sweep`: whole-sweep validation, parallel workers, errors across the fork."""
import contextlib
import hashlib
import io
import os
import pickle
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import snapens.cli as cli_mod
import snapens.errors as errors_mod
import snapens.sweep as sweep_mod
from conftest import cpus, subprocess_env, writer_lock
from snapens.cli import main
from snapens.store import read_manifest

CFG = """\
model.layers = 2,16,2
schedule.alpha0 = {alpha0}
train.mode = {mode}
train.epochs = 8
train.batch_size = 25
train.seed = {seed}
data.source = {source}
data.params = {params}
output.dir = {out}
"""
MODES = {"snapshot": "schedule.cycles = 4\n", "nocycle": "schedule.cycles = 2\n", "single": ""}


def write_config(config_dir, name, out, mode="snapshot", seed=11, alpha0=0.2,
                 source="two_moons", params="n=200,noise=0.1,seed=3"):
    text = CFG.format(alpha0=alpha0, mode=mode, seed=seed, source=source, params=params, out=out)
    (config_dir / f"{name}.cfg").write_text(text + MODES[mode])


def tree_digests(root):
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture
def moons_sweep(tmp_path):
    """A directory of four small two-moons configs with relative output dirs."""
    config_dir = tmp_path / "cfgs"
    config_dir.mkdir()
    write_config(config_dir, "a_snapshot", "runs/a_snapshot")
    write_config(config_dir, "b_nocycle", "runs/b_nocycle", mode="nocycle", alpha0=0.1)
    write_config(config_dir, "c_single", "runs/c_single", mode="single", alpha0=0.1)
    write_config(config_dir, "d_snapshot", "runs/d_snapshot", seed=12)
    return config_dir


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test whose sweep still waits on its workers after a minute.
    An alarm starts no thread, and a forked child does not inherit it."""

    def expire(signum, frame):
        raise TimeoutError("sweep still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def count_train_calls(monkeypatch):
    """The modes of each group of each `cli.train` call from now on, one list per call."""
    trained = []
    real_train = cli_mod.train

    def counting_train(config, train_set, others=(), out_dirs=None, stack=()):
        groups = [[config, *others], *(configs for configs, _, _ in stack)]
        trained.append([[c.mode for c in configs] for configs in groups])
        return real_train(config, train_set, others, out_dirs, stack)

    monkeypatch.setattr(cli_mod, "train", counting_train)
    return trained


def sweep_in(workdir, config_dir, monkeypatch, capsys):
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code = main(["sweep", str(config_dir), "--summary", "summary.csv"])
    return code, capsys.readouterr()


@pytest.mark.parametrize("workers", [2, 4])
def test_serial_and_parallel_sweeps_write_identical_bytes(
    moons_sweep, tmp_path, monkeypatch, capsys, deadline, workers
):
    forks = []
    real_fork = os.fork

    def no_fork():
        raise AssertionError("a sweep on one usable CPU forked")

    cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", no_fork)
    serial_code, serial_out = sweep_in(tmp_path / "serial", moons_sweep, monkeypatch, capsys)

    def counting_fork():
        forks.append(1)
        return real_fork()

    cpus(monkeypatch, workers)
    monkeypatch.setattr(os, "fork", counting_fork)
    parallel_code, parallel_out = sweep_in(tmp_path / "parallel", moons_sweep, monkeypatch, capsys)

    assert serial_code == parallel_code == 0
    # one fork per group beyond the first: b_nocycle and c_single share one, so 3 groups
    assert len(forks) == min(workers, 3) - 1
    serial_files = tree_digests(tmp_path / "serial")
    assert "summary.csv" in serial_files and "runs/d_snapshot/run.manifest" in serial_files
    assert serial_files == tree_digests(tmp_path / "parallel")
    assert serial_out.out == parallel_out.out
    assert serial_out.out.splitlines()[0].startswith("a_snapshot: mode=snapshot snapshots=4 ")


@pytest.mark.parametrize(
    "count, shared", [(1, False), (2, False), (1, True), (2, True)], ids=["1", "2", "1-shared", "2-shared"]
)
def test_divergence_in_the_middle_exits_3_after_the_configs_before_it(
    moons_sweep, tmp_path, monkeypatch, capsys, deadline, count, shared
):
    write_config(moons_sweep, "b_nocycle", "runs/b_nocycle", mode="nocycle", alpha0=1e18)
    if shared:  # c_single then takes b_nocycle's steps, so the pair diverges as one
        write_config(moons_sweep, "c_single", "runs/c_single", mode="single", alpha0=1e18)
    cpus(monkeypatch, count)
    with np.errstate(all="ignore"):
        code, out = sweep_in(tmp_path / "work", moons_sweep, monkeypatch, capsys)
    assert code == 3
    lines = out.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("a_snapshot: ")
    assert re.fullmatch(r"error: diverged at iteration \d+\n", out.err)
    assert not (tmp_path / "work" / "summary.csv").exists()


def test_shared_trajectory_trains_once_and_matches_lone_runs_byte_for_byte(
    moons_sweep, tmp_path, monkeypatch, capsys
):
    cpus(monkeypatch, 1)
    trained = count_train_calls(monkeypatch)
    code, _ = sweep_in(tmp_path / "sweep", moons_sweep, monkeypatch, capsys)
    assert code == 0
    # one loop trains the three distinct trajectories once each; b_nocycle and c_single share one
    assert trained == [[["snapshot"], ["nocycle", "single"], ["snapshot"]]]
    lone = tmp_path / "lone"
    lone.mkdir()
    monkeypatch.chdir(lone)
    for name in ("b_nocycle", "c_single"):
        assert main(["train", str(moons_sweep / f"{name}.cfg")]) == 0
        assert tree_digests(lone / "runs" / name) == tree_digests(tmp_path / "sweep" / "runs" / name)


def test_configs_that_differ_only_in_written_defaults_share_one_split(tmp_path, monkeypatch, capsys):
    """Writing a `data.params` default keeps a config's data: one split is
    built, and the three configs train as one group of one loop, into the
    run directories `train` writes for each alone."""
    config_dir = tmp_path / "cfgs"
    config_dir.mkdir()
    params = "n=20,noise=0.1,seed=3"
    for name, written in (("a", ""), ("b", ",train_fraction=0.5"), ("c", ",split_seed=0,normalize=no")):
        write_config(config_dir, name, f"runs/{name}", params=params + written)
    built = []
    real_build = cli_mod.build_datasets
    monkeypatch.setattr(cli_mod, "build_datasets", lambda cfg: built.append(cfg) or real_build(cfg))
    cpus(monkeypatch, 1)
    trained = count_train_calls(monkeypatch)
    code, _ = sweep_in(tmp_path / "sweep", config_dir, monkeypatch, capsys)
    assert code == 0
    assert len(built) == 1
    assert trained == [[["snapshot", "snapshot", "snapshot"]]]
    lone = tmp_path / "lone"
    lone.mkdir()
    monkeypatch.chdir(lone)
    for name in ("a", "b", "c"):
        assert main(["train", str(config_dir / f"{name}.cfg")]) == 0
        assert tree_digests(lone / "runs" / name) == tree_digests(tmp_path / "sweep" / "runs" / name)


def test_a_sweep_share_renders_each_distinct_split_once(moons_sweep, tmp_path, monkeypatch, capsys):
    import snapens.data as data_mod

    write_config(moons_sweep, "e_blobs", "runs/e_blobs", source="blobs", params="n=200,classes=2,seed=4")
    rendered = []
    real_chunks = data_mod.csv_chunks
    monkeypatch.setattr(data_mod, "csv_chunks", lambda split: rendered.append(split) or real_chunks(split))
    cpus(monkeypatch, 1)
    code, out = sweep_in(tmp_path / "sweep", moons_sweep, monkeypatch, capsys)
    assert code == 0, out.err
    # each split rendered, as (shape, first label), for a failure to show
    splits = [(split.inputs.shape, int(split.labels[0])) for split in rendered]
    assert len(rendered) == 4, splits  # the train and test split of two datasets, for five configs
    runs = tmp_path / "sweep" / "runs"
    for name in ("train.csv", "test.csv"):
        moons = {(runs / run / name).read_bytes() for run in ("a_snapshot", "b_nocycle", "d_snapshot")}
        assert len(moons) == 1, splits
    assert (runs / "e_blobs" / "train.csv").read_bytes() != (runs / "a_snapshot" / "train.csv").read_bytes(), splits


def test_a_wide_config_between_tiny_ones_trains_alone(moons_sweep, tmp_path, monkeypatch, capsys):
    (moons_sweep / "b_nocycle.cfg").unlink()
    (moons_sweep / "d_snapshot.cfg").unlink()
    write_config(moons_sweep, "b_wide", "runs/b_wide", seed=13)
    wide = moons_sweep / "b_wide.cfg"
    wide.write_text(wide.read_text().replace("2,16,2", "2,256,256,2"))
    cpus(monkeypatch, 1)
    trained = count_train_calls(monkeypatch)
    code, out = sweep_in(tmp_path / "sweep", moons_sweep, monkeypatch, capsys)
    assert code == 0 and len(out.out.splitlines()) == 4
    # a_snapshot and c_single share a shape, but only consecutive groups share a loop
    assert trained == [[["snapshot"]], [["snapshot"]], [["single"]]]


def shaped_group(layers, batch_size, n, epochs, seed=0):
    """A one-config group for `stack_groups`: an Experiment with a resolved config and a split of n rows."""
    from snapens.cli import Experiment
    from snapens.data import gen_two_moons
    from snapens.nn import ModelSpec
    from snapens.schedule import ScheduleSpec
    from snapens.trainer import TrainConfig, iterations_for

    total = iterations_for(n, batch_size, epochs)
    config = TrainConfig(ModelSpec(layers), ScheduleSpec("cyclic_cosine", 0.2, total, 2), "snapshot",
                         epochs, batch_size, seed=seed)
    return [Experiment(f"{seed}.cfg", None, config, gen_two_moons(n, 0.1, seed=0), None)]


def test_three_spirals_runs_share_a_loop_and_a_wide_run_never_does():
    spirals = [shaped_group((2, 64, 64, 2), 64, 1000, 30, seed) for seed in range(5)]
    assert [len(stack) for stack in sweep_mod.stack_groups(spirals)] == [3, 2]
    other = [shaped_group((2, 64, 64, 2), 64, 1000, 29), shaped_group((2, 64, 64, 2), 32, 1000, 30),
             shaped_group((2, 64, 64, 2), 64, 998, 30), shaped_group((2, 32, 64, 2), 64, 1000, 30)]
    mixed = [spirals[0], other[0], spirals[1], other[1], other[2], spirals[2], other[3]]
    assert [len(stack) for stack in sweep_mod.stack_groups(mixed)] == [1] * 7
    wide = [shaped_group((784, 256, 256, 10), 64, 250, 2, seed) for seed in range(2)]
    assert [len(stack) for stack in sweep_mod.stack_groups(wide)] == [1, 1]


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("failing", ["a", "c", "e", "f"])
def test_divergence_in_a_stack_matches_the_unstacked_sweep(tmp_path, monkeypatch, capsys, deadline, count, failing):
    """Six groups: one stack of six at 1 CPU, stacks (a, c, e) and (b, d, f)
    at 2, so a, c, e and f fail first, in the middle or last of a stack."""
    config_dir = tmp_path / "cfgs"
    config_dir.mkdir()
    for seed, name in enumerate("abcdef", start=21):
        alpha0 = 1e18 if name == failing else 0.2
        write_config(config_dir, name, f"runs/{name}", seed=seed, alpha0=alpha0)
        if name == failing:  # weight decay makes the overflowing parameters overflow the loss
            (config_dir / f"{name}.cfg").write_text((config_dir / f"{name}.cfg").read_text()
                                                    + "train.weight_decay = 0.001\n")
    cpus(monkeypatch, count)
    results = {}
    for label, cap in (("unstacked", 0), ("stacked", sweep_mod.STACK_BYTES)):
        monkeypatch.setattr(sweep_mod, "STACK_BYTES", cap)
        trained = count_train_calls(monkeypatch)
        with np.errstate(all="ignore"):
            code, out = sweep_in(tmp_path / label, config_dir, monkeypatch, capsys)
        results[label] = code, out.out, out.err, tree_digests(tmp_path / label)
        assert [p.name for p in (tmp_path / label).rglob("*.staged*")] == []
    assert max(len(groups) for groups in trained) == 6 // count  # the stacked sweep stacked
    assert results["stacked"] == results["unstacked"]
    code, stdout, stderr, _ = results["stacked"]
    assert code == 3 and re.fullmatch(r"error: diverged at iteration \d+\n", stderr)
    assert [line.split(":")[0] for line in stdout.splitlines()] == list("abcdef"[: "abcdef".index(failing)])


def test_worker_crash_exits_nonzero_naming_its_config(moons_sweep, tmp_path, monkeypatch, capfd, deadline):
    real_row = cli_mod._sweep_row

    def crash_on_b(experiment, *rest):
        if os.path.basename(experiment.path) == "b_nocycle.cfg":
            raise RuntimeError("boom")
        return real_row(experiment, *rest)

    cpus(monkeypatch, 2)
    monkeypatch.setattr(cli_mod, "_sweep_row", crash_on_b)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exited:
        main(["sweep", str(moons_sweep), "--summary", "summary.csv"])
    assert "b_nocycle.cfg: sweep worker exited with code 1" in str(exited.value.code)
    out = capfd.readouterr()  # the child's traceback reaches only the file descriptor
    assert out.out.startswith("a_snapshot: ") and len(out.out.splitlines()) == 1
    assert "RuntimeError: boom" in out.err
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize("count", [1, 2])
def test_failed_row_leaves_no_staged_file_of_its_group(tmp_path, monkeypatch, capsys, deadline, count):
    config_dir = tmp_path / "cfgs"
    config_dir.mkdir()
    write_config(config_dir, "a", "runs/a", mode="single", seed=1)
    write_config(config_dir, "b1", "runs/b1", mode="nocycle", seed=2)  # b1 and b2 train as one group
    write_config(config_dir, "b2", "runs/b2", mode="single", seed=2)
    real_row = cli_mod._sweep_row

    def fail_after_saving_b1(experiment, *rest):
        row = real_row(experiment, *rest)
        if os.path.basename(experiment.path) == "b1.cfg":  # b1 is saved; b2's snapshot and splits are still staged
            raise errors_mod.StorageError("b1: no space left")
        return row

    cpus(monkeypatch, count)
    monkeypatch.setattr(cli_mod, "_sweep_row", fail_after_saving_b1)
    code, out = sweep_in(tmp_path / "work", config_dir, monkeypatch, capsys)
    assert code == 4 and "b1: no space left" in out.err
    assert (tmp_path / "work" / "runs" / "b1" / "run.manifest").exists()
    assert [p.name for p in (tmp_path / "work").rglob("*.staged*")] == []


def test_killed_worker_leaves_no_staged_file(tmp_path, monkeypatch, deadline):
    import snapens.trainer as trainer_mod

    config_dir = tmp_path / "cfgs"
    config_dir.mkdir()
    write_config(config_dir, "a", "runs/a", seed=1)  # two groups: a trains here, b in a forked worker
    write_config(config_dir, "b", "runs/b", seed=2)
    parent = os.getpid()
    real_write = trainer_mod.write_snapshot
    staged = []

    def killed_after_two(record, path):
        stored = real_write(record, path)
        staged.append(path)
        if os.getpid() != parent and len(staged) == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return stored

    cpus(monkeypatch, 2)
    monkeypatch.setattr(trainer_mod, "write_snapshot", killed_after_two)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    with pytest.raises(SystemExit) as exited:
        main(["sweep", str(config_dir), "--summary", "summary.csv"])
    assert "b.cfg: sweep worker exited with code -9" in str(exited.value.code)
    assert [p.name for p in work.rglob("*.staged*")] == []
    assert (work / "runs" / "a" / "run.manifest").exists()
    assert list((work / "runs" / "b").iterdir()) == []


def test_sweep_with_a_directory_another_writer_holds_exits_4_before_anything_trains(
    tmp_path, monkeypatch, capsys
):
    config_dir = tmp_path / "cfgs"
    config_dir.mkdir()
    write_config(config_dir, "a", "runs/a", seed=1)
    write_config(config_dir, "b", "runs/b", seed=2)
    work = tmp_path / "work"
    (work / "runs" / "b").mkdir(parents=True)
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or pytest.fail("a worker forked"))
    trained = count_train_calls(monkeypatch)
    cpus(monkeypatch, 2)
    monkeypatch.chdir(work)
    with writer_lock(work / "runs" / "b"):
        assert main(["sweep", str(config_dir), "--summary", "summary.csv"]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "i/o error: run directory runs/b is in use by another snapens process\n"
    assert trained == [] and forks == []
    assert [p for p in work.rglob("*") if p.is_file()] == []


# 4 rows whose label 5, past a 2-class model's range, falls in the test split
TEST_SPLIT_LABEL_CSV = "f0,f1,label\n0.1,0.2,0\n0.3,0.1,1\n0.5,0.5,0\n0.2,0.9,5\n"


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("c_single", lambda text: "model.layers = 2,16,2\n", "missing required key"),
        ("d_snapshot", lambda text: text.replace("epochs = 8", "epochs = 0"), "train.epochs must be >= 1"),
        ("d_snapshot", lambda text: text + "train.momentum = 1.0\n", "train.momentum must lie in [0, 1)"),
        ("d_snapshot", lambda text: text.replace("alpha0 = 0.2", "alpha0 = 0"), "schedule.alpha0 must be"),
        ("d_snapshot", lambda text: text.replace("seed=3", "seed=-1"), "data.params: seed must be >= 0"),
        ("d_snapshot", lambda text: text.replace("source = two_moons", "source = csv").replace(
            "n=200,noise=0.1,seed=3", "path=labels.csv"), "labels.csv: labels must lie in [0, 2)"),
        ("d_snapshot", lambda text: text.replace("source = two_moons", "source = csv").replace(
            "n=200,noise=0.1,seed=3", "path=test_label.csv"), "test_label.csv: labels must lie in [0, 2)"),
        ("b_nocycle", lambda text: text.replace("cycles = 2", "cycles = 1000"),
         "snapshot count exceeds total iterations"),  # T is 8 epochs of 4 batches
    ],
    ids=["missing_key", "epochs_0", "momentum_1", "alpha0_0", "data_seed", "csv_label_5",
         "csv_test_split_label_5", "nocycle_1000"],
)
def test_bad_config_exits_2_before_anything_trains(
    moons_sweep, tmp_path, monkeypatch, capsys, name, edit, message
):
    path = moons_sweep / f"{name}.cfg"
    path.write_text(edit(path.read_text()))
    (tmp_path / "labels.csv").write_text("f0,f1,label\n" + "0.5,1.5,5\n" * 100)
    (tmp_path / "test_label.csv").write_text(TEST_SPLIT_LABEL_CSV)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", str(moons_sweep)]) == 2
    err = capsys.readouterr().err
    assert message in err and f"{name}.cfg" in err
    assert not (tmp_path / "runs").exists()


def test_two_configs_with_one_output_dir_exit_2_naming_both(moons_sweep, tmp_path, monkeypatch, capsys):
    write_config(moons_sweep, "d_snapshot", "runs/./b_nocycle", seed=12)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", str(moons_sweep)]) == 2
    err = capsys.readouterr().err
    assert "b_nocycle.cfg" in err and "d_snapshot.cfg" in err and "output.dir" in err
    assert not (tmp_path / "runs").exists()


def test_input_under_another_configs_output_dir_exits_2_naming_both(
    moons_sweep, tmp_path, monkeypatch, capsys
):
    write_config(moons_sweep, "d_snapshot", "runs/d_snapshot", source="csv",
                 params="path=runs/a_snapshot/train.csv")
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", str(moons_sweep)]) == 2
    err = capsys.readouterr().err
    assert "a_snapshot.cfg" in err and "d_snapshot.cfg" in err and "runs/a_snapshot/train.csv" in err
    assert not (tmp_path / "runs").exists()


def error_classes(cls=errors_mod.SnapensError):
    return [cls] + [sub for child in cls.__subclasses__() for sub in error_classes(child)]


@pytest.mark.parametrize("cls", error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_round_trips_through_pickle(cls):
    exc = cls(5) if cls is errors_mod.DivergenceError else cls("runs/x: bad value")
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert vars(copy) == vars(exc)


def test_importing_the_cli_leaves_the_worker_modules_out():
    code = (
        "import sys, snapens.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', 'snapens.sweep') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_true_ensemble_manifest_script_combines_each_runs_final_snapshot(tmp_path, monkeypatch, capsys):
    """scripts/make_true_ensemble_manifest.py, as the true_ensemble recipes
    use it: a manifest of each run's last snapshot that `ensemble` reads."""
    monkeypatch.chdir(tmp_path)
    config_dir = tmp_path / "cfgs"
    config_dir.mkdir()
    for seed in (101, 102):
        write_config(config_dir, f"seed{seed}", f"runs/seed{seed}", seed=seed)
    assert main(["sweep", str(config_dir)]) == 0
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "make_true_ensemble_manifest.py")
    subprocess.run(
        [sys.executable, script, "runs/seed101", "runs/seed102", "--out", "true.manifest"],
        check=True, env=subprocess_env(), capture_output=True, timeout=60,
    )
    finals = [read_manifest(f"runs/seed{seed}/run.manifest").snapshot_files[-1] for seed in (101, 102)]
    assert finals == ["snap_004.snap", "snap_004.snap"]
    members = read_manifest("true.manifest").snapshot_files
    assert members == ("runs/seed101/snap_004.snap", "runs/seed102/snap_004.snap")
    capsys.readouterr()
    assert main(["ensemble", "--manifest", "true.manifest", "--data", "runs/seed101/test.csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "m,ensemble_error"
    assert [row.split(",")[0] for row in rows[1:]] == ["1", "2"]


# 20-row sources, each split into 10 training rows; the two moons sets differ.
DRAWN_SOURCES = [
    ("two_moons", "n=20,noise=0.1,seed=3"),
    ("two_moons", "n=20,noise=0.2,seed=4"),
    ("blobs", "n=20,classes=2,spread=0.5,seed=3"),
]
DRAWN_CFG = """\
model.layers = 2,8,2
schedule.alpha0 = {alpha0}
train.mode = {mode}
train.epochs = {epochs}
train.batch_size = 5
train.seed = {seed}
data.source = {source}
data.params = {params}
output.dir = runs/{name}
"""


@st.composite
def drawn_sweeps(draw):
    """2-5 config texts of one loop shape (a 2-8-2 net on 10 training rows,
    batch 5, 2 or 3 epochs), by name. Each draws its mode, and its
    trajectory (seed, learning rate and cycle count) and data source from
    pools of 1-2 and 1-3, so configs often share a trajectory key, a split,
    or one of them only."""
    epochs = draw(st.integers(2, 3))  # T = 2 x epochs, which 1 or 2 cycles fit
    trajectories = draw(st.lists(st.tuples(st.integers(1, 3), st.sampled_from([0.1, 0.5]), st.integers(1, 2)),
                                 min_size=1, max_size=2))
    sources = draw(st.lists(st.sampled_from(DRAWN_SOURCES), min_size=1, max_size=3, unique=True))
    texts = {}
    for k in range(draw(st.integers(2, 5))):
        mode = draw(st.sampled_from(["snapshot", "single", "nocycle", "singlecycle"]))
        seed, alpha0, cycles = draw(st.sampled_from(trajectories))
        source, params = draw(st.sampled_from(sources))
        text = DRAWN_CFG.format(alpha0=alpha0, mode=mode, epochs=epochs, seed=seed, source=source,
                                params=params, name=f"c{k}")
        texts[f"c{k}"] = text + ("" if mode == "single" else f"schedule.cycles = {cycles}\n")
    return texts


def command_in(workdir, argv, monkeypatch):
    """Exit code and stdout of `main(argv)` run in `workdir`, made if missing."""
    workdir.mkdir(exist_ok=True)
    monkeypatch.chdir(workdir)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        return main(argv), out.getvalue()


# ROADMAP item 14 (b): the groups, stacks, shares and split writers of a
# sweep give every config the run directory `train` gives it, and the
# sweep's summary row scores that run.
@given(drawn_sweeps())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_drawn_sweep_at_one_and_two_cpus_writes_what_train_writes(deadline, texts):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        root = Path(tmp)
        (root / "cfgs").mkdir()
        for name, text in texts.items():
            (root / "cfgs" / f"{name}.cfg").write_text(text)
        sweeps = []
        for count in (1, 2):
            cpus(monkeypatch, count)
            sweeps.append(command_in(root / f"sweep{count}", ["sweep", str(root / "cfgs")], monkeypatch))
        assert sweeps[0] == sweeps[1] and sweeps[0][0] == 0
        assert (root / "sweep1" / "summary.csv").read_bytes() == (root / "sweep2" / "summary.csv").read_bytes()
        lone = root / "train"
        for name in texts:
            assert command_in(lone, ["train", str(root / "cfgs" / f"{name}.cfg")], monkeypatch)[0] == 0
        runs = [tree_digests(root / workdir / "runs") for workdir in ("sweep1", "sweep2", "train")]
        assert runs[0] == runs[1] == runs[2]
        rows = (root / "sweep1" / "summary.csv").read_text().splitlines()[1:]
        for row in rows:
            name, _, _, m, error = row.split(",")
            run = lone / "runs" / name
            argv = ["ensemble", "--manifest", str(run / "run.manifest"), "--data", str(run / "test.csv"), "--m", m]
            assert command_in(lone, argv, monkeypatch)[1].splitlines()[1].split(",")[:2] == [m, error]
        assert len(rows) == len(texts)
