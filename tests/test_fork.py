"""A fork that fails: the share it would have run runs in the calling process,
in its turn, so the command exits 0 with the bytes of a run on one CPU, and
no forked child outlives the command."""
import errno
import hashlib
import os

import pytest

import snapens.cli as cli_mod
from conftest import cpus
from snapens.cli import main
from snapens.data import save_csv
from snapens.pool import run_shares
from snapens.store import save_run

REAL_FORK = os.fork

CFG = """\
model.layers = 2,16,2
schedule.alpha0 = 0.2
schedule.cycles = 2
train.mode = snapshot
train.epochs = 4
train.batch_size = 25
train.seed = {seed}
data.source = two_moons
data.params = n=200,noise=0.1,seed=3
output.dir = {out}
"""


def fail_fork(monkeypatch, failing):
    """Make the `failing`-th os.fork call from now on raise EAGAIN, as a
    process at its limit of processes sees."""
    calls = []

    def fork():
        calls.append(1)
        if len(calls) == failing:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return REAL_FORK()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tree(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def run_in(workdir, monkeypatch, capsys, argv):
    """Exit code, stdout, stderr and the files of `main(argv)` run in a new `workdir`."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, tree(workdir)


def one_cpu_run(tmp_path, monkeypatch, capsys, argv, count, failing):
    """The outcome of `argv` run on one CPU (`run_in`), once a run on `count`
    CPUs whose `failing`-th fork fails has given the same and left no child."""
    cpus(monkeypatch, 1)
    serial = run_in(tmp_path / "serial", monkeypatch, capsys, argv)
    cpus(monkeypatch, count)
    forks = fail_fork(monkeypatch, failing)
    assert run_in(tmp_path / "failed", monkeypatch, capsys, argv) == serial
    assert len(forks) == failing
    assert_no_child_left()
    return serial


def test_a_sweep_whose_second_fork_fails_writes_the_one_cpu_bytes(tmp_path, monkeypatch, capsys):
    configs = tmp_path / "cfgs"  # three seeds, so three groups: one share per CPU
    configs.mkdir()
    for seed in (11, 12, 13):
        (configs / f"s{seed}.cfg").write_text(CFG.format(seed=seed, out=f"runs/s{seed}"))
    argv = ["sweep", str(configs), "--summary", "summary.csv"]
    code, _, _, files = one_cpu_run(tmp_path, monkeypatch, capsys, argv, 3, 2)
    assert code == 0 and "summary.csv" in files and "runs/s13/run.manifest" in files


def test_a_train_whose_writer_fork_fails_writes_the_one_cpu_bytes(tmp_path, monkeypatch, capsys):
    (tmp_path / "moons.cfg").write_text(CFG.format(seed=11, out="run"))
    argv = ["train", str(tmp_path / "moons.cfg")]
    code, _, _, files = one_cpu_run(tmp_path, monkeypatch, capsys, argv, 2, 1)
    assert code == 0 and "run/test.csv" in files


def test_a_split_interpolate_whose_fork_fails_writes_the_one_cpu_bytes(
    tiny_run, moons200, tmp_path, monkeypatch, capsys
):
    save_csv(moons200, tmp_path / "data.csv")
    inputs = ["--manifest", str(save_run(tiny_run[1], tmp_path / "run")), "--data", str(tmp_path / "data.csv")]
    argv = ["interpolate", *inputs, "--against-final", "--points", "5", "--out", "interp"]
    monkeypatch.setattr(cli_mod, "FORK_MIN_WORK", 0)  # any grid splits
    code, _, _, files = one_cpu_run(tmp_path, monkeypatch, capsys, argv, 2, 1)
    assert code == 0 and len(files) == 3


def test_every_child_is_reaped_when_a_report_raises(monkeypatch):
    cpus(monkeypatch, 3)
    shares = [[(w, lambda w=w: w)] for w in range(3)]

    def report(key, outcome):
        raise KeyError(key)

    with pytest.raises(KeyError):
        run_shares(shares, report, "test")
    assert_no_child_left()
