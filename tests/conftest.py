import contextlib
import fcntl
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

# No bytecode under src/, set before the first snapens import: a cached .pyc
# makes later snapens processes start faster than a fresh checkout's, so
# timings of two trees would not compare.
sys.dont_write_bytecode = True

from snapens import ModelSpec, ScheduleSpec, TrainConfig, gen_two_moons, iterations_for, train
from snapens.data import _load_csv_rows, load_csv
from snapens.errors import SnapensError
from snapens.process import set_blas_threads

SRC = Path(__file__).resolve().parents[1] / "src"

# (number, name, passed, detail) tuples filled in by test_acceptance.py
ACCEPTANCE_RESULTS = []


def subprocess_env(**overrides) -> dict:
    """Environment for a child Python that imports snapens from any cwd.

    Puts the absolute `src` path first on PYTHONPATH, so a relative entry
    such as `PYTHONPATH=src` cannot break children started elsewhere, and
    keeps the child from writing bytecode.
    """
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(overrides)
    return env


# Runs `python -m snapens ARGS` in at most 2 GiB of address space, so an
# allocation sized by a huge input fails there as MemoryError instead of
# filling the machine.
LIMITED_SNAPENS = """
import resource, runpy, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
sys.argv = ["snapens"] + sys.argv[1:]
runpy.run_module("snapens", run_name="__main__", alter_sys=True)
"""


def snapens_limited(argv, cwd, timeout):
    """The finished `python -m snapens ARGV` process, run in `cwd` under
    `LIMITED_SNAPENS` with one BLAS thread, whose buffers then fit the limit."""
    return subprocess.run([sys.executable, "-c", LIMITED_SNAPENS, *argv], cwd=cwd,
                          env=subprocess_env(OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=timeout)


def cpus(monkeypatch, count):
    """Make the commands see `count` usable CPUs until the test ends."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@contextlib.contextmanager
def writer_lock(path):
    """Hold the writer lock of the run directory `path` from a descriptor of
    this process's own, as another `snapens` process writing it would."""
    fd = os.open(path, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield
    finally:
        os.close(fd)


def is_locked(path) -> bool:
    """Whether some descriptor holds the writer lock of the run directory `path`."""
    try:
        with writer_lock(path):
            return False
    except BlockingIOError:
        return True


def assert_reads_as_csv_reader(path, label_column="label"):
    """`load_csv` gives what the `csv.reader` path gives for `path`: the same
    inputs bit for bit, labels and class count, or the same error message."""
    try:
        expected = _load_csv_rows(path, label_column)
    except SnapensError as exc:
        with pytest.raises(type(exc)) as raised:
            load_csv(path, label_column)
        assert str(raised.value) == str(exc)
        return
    got = load_csv(path, label_column)
    assert got.inputs.tobytes() == expected.inputs.tobytes()
    assert got.inputs.shape == expected.inputs.shape
    assert got.labels.tobytes() == expected.labels.tobytes()
    assert got.class_count == expected.class_count


def pytest_configure(config):
    # One BLAS thread, as the `snapens` command runs: the in-process tests then
    # give the same bytes whatever OPENBLAS_NUM_THREADS says.
    set_blas_threads(1)


def record_criterion(number: int, name: str, passed: bool, detail: str = "") -> bool:
    ACCEPTANCE_RESULTS.append((number, name, passed, detail))
    return passed


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number} [{status}] {name}"
        if detail:
            line += f" -- {detail}"
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def moons200():
    return gen_two_moons(200, 0.1, seed=3)


@pytest.fixture(scope="session")
def tiny_run(moons200):
    """A small completed snapshot-mode run: 4 cycles on two moons."""
    model = ModelSpec((2, 16, 2))
    total = iterations_for(len(moons200), 25, 16)  # 8 batches/epoch x 16 epochs
    schedule = ScheduleSpec("cyclic_cosine", 0.2, total, 4)
    config = TrainConfig(model, schedule, "snapshot", epochs=16, batch_size=25, seed=11)
    return config, train(config, moons200)
