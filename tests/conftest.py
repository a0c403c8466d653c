import ctypes
import os
from pathlib import Path

import numpy as np
import pytest

from snapens import ModelSpec, ScheduleSpec, TrainConfig, gen_two_moons, iterations_for, train

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


def blas_core_type() -> str:
    """The core type numpy's bundled OpenBLAS runs its kernels for (`SkylakeX`,
    `Haswell`, ...), or "unknown" without such a library or its symbol.

    Golden digests hold per core type, so their failure messages name it.
    """
    for lib in sorted((Path(np.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


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
