import contextlib
import fcntl
import os
from pathlib import Path

import numpy as np
import pytest

from snapens import ModelSpec, ScheduleSpec, TrainConfig, gen_two_moons, iterations_for, train
from snapens.process import set_blas_threads

SRC = Path(__file__).resolve().parents[1] / "src"

# (number, name, passed, detail) tuples filled in by test_acceptance.py
ACCEPTANCE_RESULTS = []


def subprocess_env(**overrides) -> dict:
    """Environment for a child Python that imports snapens from any cwd.

    Puts the absolute `src` path first on PYTHONPATH, so a relative entry
    such as `PYTHONPATH=src` cannot break children started elsewhere.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update(overrides)
    return env


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
