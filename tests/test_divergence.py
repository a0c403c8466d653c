"""A run that diverges ends with DivergenceError: in the library, as exit 3
with one stderr line from the CLI, and without a saved run directory."""
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import snapens_limited, subprocess_env
from snapens.cli import main
from snapens.data import Dataset, save_csv
from snapens.errors import DivergenceError
from snapens.nn import ModelSpec
from snapens.schedule import ScheduleSpec
from snapens.trainer import TrainConfig, train

# Features N(0, 1) x 1e6 and a learning rate near the float64 maximum: the
# first loss is finite, but the first update overflows the parameters.
HUGE_FEATURES = 1e6
HUGE_ALPHA0 = 1.7e308


def huge_dataset(rows):
    inputs = np.random.default_rng(0).normal(size=(rows, 2)) * HUGE_FEATURES
    return Dataset(inputs, np.arange(rows) % 2, 2)


def test_parameters_that_overflow_at_a_capture_diverge_there():
    schedule = ScheduleSpec("step", HUGE_ALPHA0, 1)
    config = TrainConfig(ModelSpec((2, 8, 2)), schedule, "single", 1, 64)
    with pytest.raises(DivergenceError) as diverged:
        train(config, huge_dataset(32))
    assert diverged.value.iteration == 1


OVERFLOW_CFG = f"""\
model.layers = 2,8,2
schedule.alpha0 = {HUGE_ALPHA0!r}
train.mode = single
train.epochs = 1
train.batch_size = 64
train.seed = 0
data.source = csv
data.params = path={{data}}
output.dir = {{out}}
"""


def test_train_saves_no_snapshot_with_non_finite_parameters(tmp_path, capsys):
    save_csv(huge_dataset(64), tmp_path / "huge.csv")  # 32 training rows: T = 1
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(OVERFLOW_CFG.format(data=tmp_path / "huge.csv", out=tmp_path / "run"))
    assert main(["train", str(cfg)]) == 3
    assert capsys.readouterr().err == "error: diverged at iteration 1\n"
    assert not (tmp_path / "run" / "run.manifest").exists()


MOONS_CFG = """\
model.layers = 2,16,2
schedule.alpha0 = {alpha0}
schedule.cycles = {cycles}
train.mode = {mode}
train.epochs = {epochs}
train.batch_size = 25
train.seed = 11
train.weight_decay = {decay}
data.source = two_moons
data.params = n=400,noise=0.1,seed=3
output.dir = runs/{name}
"""
DIVERGED = r"error: diverged at iteration \d+\n"


def snapens(argv, cwd, timeout=120):
    return subprocess.run([sys.executable, "-m", "snapens", *argv], cwd=cwd, env=subprocess_env(),
                          capture_output=True, text=True, timeout=timeout)


def write_moons(path, name, alpha0, epochs=8, decay=0.0, cycles=4, mode="snapshot"):
    path.write_text(MOONS_CFG.format(name=name, alpha0=alpha0, epochs=epochs, decay=decay, cycles=cycles, mode=mode))


def test_a_diverging_train_prints_only_its_error(tmp_path):
    write_moons(tmp_path / "b.cfg", "b", 1e18)
    proc = snapens(["train", "b.cfg"], tmp_path)
    assert proc.returncode == 3
    assert re.fullmatch(DIVERGED, proc.stderr)
    assert not (tmp_path / "runs" / "b" / "run.manifest").exists()


def test_a_diverging_sweep_prints_only_its_error(tmp_path):
    configs = tmp_path / "cfgs"
    configs.mkdir()
    for name, alpha0 in (("a", 0.2), ("b", 1e18), ("c", 0.2)):
        write_moons(configs / f"{name}.cfg", name, alpha0)
    proc = snapens(["sweep", "cfgs"], tmp_path)
    assert proc.returncode == 3
    assert re.fullmatch(DIVERGED, proc.stderr)
    assert [line.split(":")[0] for line in proc.stdout.splitlines()] == ["a"]


def test_a_huge_budget_is_not_tabulated_before_the_first_step(tmp_path):
    # 10**12 epochs is a time budget: the run diverges within a few steps and
    # must get there without first building anything per iteration.
    write_moons(tmp_path / "huge.cfg", "huge", 1e18, epochs=10**12, decay=0.001)
    proc = snapens(["train", "huge.cfg"], tmp_path, timeout=10)
    assert proc.returncode == 3
    assert re.fullmatch(DIVERGED, proc.stderr)


@pytest.mark.parametrize("mode", ["snapshot", "nocycle"])
def test_a_huge_snapshot_count_is_not_tabulated_before_the_first_step(tmp_path, mode):
    # 10**12 cycle ends (or nocycle snapshots) are tested step by step, never
    # listed: under the child's address-space limit a list of them would end
    # in a MemoryError traceback, exit 1, instead of the divergence.
    write_moons(tmp_path / "huge.cfg", "huge", 1e18, epochs=10**12, decay=0.001, cycles=10**12, mode=mode)
    proc = snapens_limited(["train", "huge.cfg"], tmp_path, timeout=10)
    assert proc.returncode == 3, proc.stderr
    assert re.fullmatch(DIVERGED, proc.stderr)
