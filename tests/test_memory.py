"""A command's peak memory does not grow with its run's snapshot count.

numpy reports its buffers to tracemalloc, so the peak traced memory of one
command counts every parameter vector it holds at once. `train` and each eval
command may peak higher on an 8-snapshot run than on a 2-snapshot run of the
same net by less than one snapshot's parameters.
"""
import tracemalloc

import pytest

from snapens.cli import main
from snapens.nn import ModelSpec, param_count

SNAPSHOT_BYTES = 8 * param_count(ModelSpec((2, 256, 256, 2)))  # 535 KB

CFG = """\
model.layers = 2,256,256,2
schedule.alpha0 = 0.05
schedule.cycles = {cycles}
train.mode = snapshot
train.epochs = 8
train.batch_size = 25
train.seed = 5
data.source = two_moons
data.params = n=200,noise=0.1,seed=3
output.dir = {out}
"""

EVAL_COMMANDS = {
    "ensemble": ["ensemble", "--out", "{out}/e.csv"],
    "ensemble_m": ["ensemble", "--m", "2", "--out", "{out}/m.csv"],
    "curve": ["curve", "--out", "{out}/c.csv"],
    "interpolate": ["interpolate", "--against-final", "--points", "3", "--out", "{out}/interp"],
    "correlate": ["correlate", "--out", "{out}/corr"],
}


def peak_bytes(argv):
    """Peak traced memory of one CLI command, run once untraced first so that
    first-use costs count in neither run compared."""
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The config and run directory of a 2- and an 8-snapshot run, by count."""
    base = tmp_path_factory.mktemp("memory")
    runs = {}
    for m in (2, 8):
        cfg = base / f"m{m}.cfg"
        cfg.write_text(CFG.format(cycles=m, out=base / f"run{m}"))
        assert main(["train", str(cfg)]) == 0
        runs[m] = cfg, base / f"run{m}"
    return runs


def test_train_peak_does_not_grow_with_the_snapshot_count(runs, capsys):
    peaks = {m: peak_bytes(["train", str(cfg)]) for m, (cfg, _) in runs.items()}
    assert peaks[8] - peaks[2] < SNAPSHOT_BYTES, peaks


@pytest.mark.parametrize("command", EVAL_COMMANDS.values(), ids=EVAL_COMMANDS)
def test_eval_peak_does_not_grow_with_the_snapshot_count(runs, tmp_path, capsys, command):
    peaks = {}
    for m, (_, run) in runs.items():
        argv = [command[0], "--manifest", str(run / "run.manifest"), "--data", str(run / "test.csv")]
        out = tmp_path / f"out{m}"
        out.mkdir()
        peaks[m] = peak_bytes(argv + [arg.format(out=out) for arg in command[1:]])
    assert peaks[8] - peaks[2] < SNAPSHOT_BYTES, peaks
