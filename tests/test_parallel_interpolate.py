"""`snapens interpolate` on forked workers: the serial bytes, errors and when it stays serial."""
import contextlib
import hashlib
import io
import os
import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import snapens.analysis as analysis_mod
import snapens.cli as cli_mod
from snapens import ModelSpec, ScheduleSpec, TrainConfig, iterations_for, train
from snapens.cli import main
from snapens.data import gen_blobs, gen_two_moons, save_csv
from snapens.errors import InputError
from snapens.store import save_run

# (argv tail, files written): 3 curves against the last of 4 snapshots, and one pair at 51 points.
RUNS = {
    "against_final": (["--against-final", "--points", "5"], 3),
    "pair_1_4": (["--pair", "1", "4"], 1),
}


@pytest.fixture
def eval_inputs(tiny_run, moons200, tmp_path):
    """`--manifest` and `--data` arguments for the 4-snapshot tiny run."""
    manifest_path = save_run(tiny_run[1], tmp_path / "run")
    data = tmp_path / "data.csv"
    save_csv(moons200, data)
    return ["--manifest", str(manifest_path), "--data", str(data)]


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test still waiting on its workers after a minute."""

    def expire(signum, frame):
        raise TimeoutError("interpolate still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


REAL_FORK = os.fork


def cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def no_fork(monkeypatch):
    def fork():
        raise AssertionError("interpolate forked a run it should keep serial")

    monkeypatch.setattr(os, "fork", fork)


def counted_forks(monkeypatch):
    forks = []

    def fork():
        forks.append(1)
        return REAL_FORK()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.fixture
def any_work_splits(monkeypatch):
    monkeypatch.setattr(cli_mod, "FORK_MIN_WORK", 0)


def interpolate_into(out, eval_inputs, tail, capsys):
    code = main(["interpolate", *eval_inputs, *tail, "--out", str(out)])
    captured = capsys.readouterr()
    files = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())
    }
    return code, files, captured.out.replace(str(out), "OUT"), captured.err.replace(str(out), "OUT")


@pytest.mark.parametrize("run", RUNS, ids=list(RUNS))
def test_two_workers_write_the_serial_bytes(
    eval_inputs, tmp_path, monkeypatch, capsys, deadline, any_work_splits, run
):
    tail, curves = RUNS[run]
    cpus(monkeypatch, 1)
    no_fork(monkeypatch)
    serial = interpolate_into(tmp_path / "serial", eval_inputs, tail, capsys)
    cpus(monkeypatch, 2)
    forks = counted_forks(monkeypatch)
    split = interpolate_into(tmp_path / "split", eval_inputs, tail, capsys)
    assert serial[0] == 0 and len(serial[1]) == curves
    assert split == serial
    assert len(forks) == 1


def test_each_snapshot_is_still_scored_once(
    eval_inputs, tmp_path, monkeypatch, capsys, deadline, any_work_splits
):
    """Share 0 holds the lambda = 0 and 1 points, so the two workers run the
    serial 4 + 3 x 3 forward passes between them, 7 and 6."""
    log = tmp_path / "forwards.log"
    real_error = analysis_mod.evaluate_error

    def logged_error(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_error(*args)

    monkeypatch.setattr(analysis_mod, "evaluate_error", logged_error)
    cpus(monkeypatch, 2)
    interpolate_into(tmp_path / "split", eval_inputs, RUNS["against_final"][0], capsys)
    pids = log.read_text().split()
    assert sorted(pids.count(pid) for pid in set(pids)) == [6, 7]


def fail_on_second_curve(monkeypatch, tiny_run, exc):
    """Make cli.interpolate raise exc on the curve to snapshot 2, on the grid
    share that holds lambda = 0.25: the child's, when two workers split 5 points."""
    real_interpolate = cli_mod.interpolate
    second = tiny_run[1].snapshots[1].params

    def interpolate(spec, theta1, theta2, dataset, grid, *known):
        if 0.25 in grid and np.array_equal(theta2, second):
            raise exc
        return real_interpolate(spec, theta1, theta2, dataset, grid, *known)

    monkeypatch.setattr(cli_mod, "interpolate", interpolate)


def test_an_error_in_a_worker_gives_the_serial_exit_code_and_message(
    eval_inputs, tiny_run, tmp_path, monkeypatch, capsys, deadline, any_work_splits
):
    fail_on_second_curve(monkeypatch, tiny_run, InputError("lambda grid rejected"))
    tail = RUNS["against_final"][0]
    cpus(monkeypatch, 1)
    no_fork(monkeypatch)
    serial = interpolate_into(tmp_path / "serial", eval_inputs, tail, capsys)
    cpus(monkeypatch, 2)
    forks = counted_forks(monkeypatch)
    split = interpolate_into(tmp_path / "split", eval_inputs, tail, capsys)
    assert serial[0] == 2 and serial[3] == "config error: lambda grid rejected\n"
    assert list(serial[1]) == ["interp_004_001.csv"]  # the curves before the failed one
    assert split == serial
    assert len(forks) == 1


def test_a_crashed_worker_exits_nonzero_naming_its_curve(
    eval_inputs, tiny_run, tmp_path, monkeypatch, capfd, deadline, any_work_splits
):
    fail_on_second_curve(monkeypatch, tiny_run, RuntimeError("boom"))
    cpus(monkeypatch, 2)
    out = tmp_path / "split"
    with pytest.raises(SystemExit) as exited:
        main(["interpolate", *eval_inputs, *RUNS["against_final"][0], "--out", str(out)])
    assert str(exited.value.code) == f"{out / 'interp_004_002.csv'}: interpolate worker exited with code 1"
    assert "RuntimeError: boom" in capfd.readouterr().err  # the child's traceback
    assert sorted(path.name for path in out.iterdir()) == ["interp_004_001.csv"]


@pytest.mark.parametrize("run", RUNS, ids=list(RUNS))
def test_one_usable_cpu_stays_serial(eval_inputs, tmp_path, monkeypatch, capsys, any_work_splits, run):
    cpus(monkeypatch, 1)
    no_fork(monkeypatch)
    assert interpolate_into(tmp_path / "out", eval_inputs, RUNS[run][0], capsys)[0] == 0


@pytest.mark.parametrize("run", RUNS, ids=list(RUNS))
def test_work_below_the_constant_stays_serial(eval_inputs, tmp_path, monkeypatch, capsys, run):
    """200 rows x 82 parameters x at most 51 passes is far below FORK_MIN_WORK."""
    cpus(monkeypatch, 2)
    no_fork(monkeypatch)
    assert interpolate_into(tmp_path / "out", eval_inputs, RUNS[run][0], capsys)[0] == 0


@st.composite
def drawn_commands(draw):
    """A small run, as (layers, even rows, source, snapshots), and an
    `interpolate` argv tail: `--against-final` or a pair, I = J allowed, at
    1-9 points."""
    run = (draw(st.sampled_from([(2, 8, 2), (2, 6, 3)])), 2 * draw(st.integers(10, 30)),
           draw(st.sampled_from(["moons", "blobs"])), draw(st.integers(2, 5)))
    pair = ["--pair", *(str(draw(st.integers(1, run[3]))) for _ in "IJ")]
    tail = ["--against-final"] if draw(st.booleans()) else pair
    return run, [*tail, "--points", str(draw(st.integers(1, 9)))]


def save_drawn_run(root, layers, rows, source, snapshots):
    """`--manifest` and `--data` arguments for a run of `snapshots` cycles
    of one epoch each on `rows` rows, which are also its eval data."""
    data = gen_two_moons(rows, 0.1, seed=3) if source == "moons" else gen_blobs(rows, layers[-1], 0.5, seed=3)
    total = iterations_for(rows, 10, snapshots)
    config = TrainConfig(ModelSpec(layers), ScheduleSpec("cyclic_cosine", 0.2, total, snapshots),
                         "snapshot", epochs=snapshots, batch_size=10, seed=rows)
    manifest_path = save_run(train(config, data), root / "run")
    save_csv(data, root / "data.csv")
    return ["--manifest", str(manifest_path), "--data", str(root / "data.csv")]


def scored_interpolate(out, argv, monkeypatch):
    """What `interpolate_into` returns, with the `evaluate_error` calls the
    command's processes made between them."""
    log = out.with_suffix(".log")
    real_error = analysis_mod.evaluate_error

    def logged_error(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real_error(*args)

    monkeypatch.setattr(analysis_mod, "evaluate_error", logged_error)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["interpolate", *argv, "--out", str(out)])
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    calls = len(log.read_text().split()) if log.exists() else 0
    return (code, files, stdout.getvalue().replace(str(out), "OUT"), stderr.getvalue()), calls


# ROADMAP item 14 (c). The tasks hold the shared first snapshot's lambda = 1
# error, so --against-final at P >= 2 points over M snapshots makes
# M + (M - 1)(P - 2) forward passes (M - 1 at P = 1), and one pair P.
@given(drawn_commands())
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_drawn_interpolate_splits_into_the_serial_bytes_and_forward_passes(deadline, command):
    (layers, rows, source, snapshots), tail = command
    points = int(tail[-1])
    if tail[0] == "--against-final":
        expected = snapshots - 1 if points == 1 else snapshots + (snapshots - 1) * (points - 2)
    else:
        expected = points
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as monkeypatch:
        root = Path(tmp)
        argv = [*save_drawn_run(root, layers, rows, source, snapshots), *tail]
        monkeypatch.setattr(cli_mod, "FORK_MIN_WORK", 0)
        cpus(monkeypatch, 1)
        no_fork(monkeypatch)
        serial, serial_calls = scored_interpolate(root / "serial", argv, monkeypatch)
        cpus(monkeypatch, 2)
        forks = counted_forks(monkeypatch)
        split, split_calls = scored_interpolate(root / "split", argv, monkeypatch)
    assert serial[0] == 0 and serial[1]
    assert split == serial
    assert split_calls == serial_calls == expected
    assert len(forks) == (points > 1)
