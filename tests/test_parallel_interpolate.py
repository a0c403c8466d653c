"""`snapens interpolate` on forked workers: the serial bytes, errors and when it stays serial."""
import hashlib
import os
import signal

import numpy as np
import pytest

import snapens.analysis as analysis_mod
import snapens.cli as cli_mod
from snapens.cli import main
from snapens.data import save_csv
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
