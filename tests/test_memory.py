"""A command's peak memory does not grow with its run's snapshot count,
`interpolate` holds one mixing vector beside its pair, and a net's init
allocates no temporary.

numpy reports its buffers to tracemalloc, so the peak traced memory of one
command counts every parameter vector it holds at once. `train` and each eval
command may peak higher on an 8-snapshot run than on a 2-snapshot run of the
same net by less than one snapshot's parameters.
"""
import math
import tracemalloc

import numpy as np
import pytest

from conftest import cpus
from snapens.cli import main
from snapens.nn import ModelSpec, init_params, param_count

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


WIDE_BYTES = 8 * param_count(ModelSpec((2, 1024, 1024, 2)))  # 8.4 MB


def test_interpolate_holds_its_pair_one_mixing_vector_and_one_block(tmp_path, monkeypatch, capsys):
    """`interpolate` mixes each point into one vector, a block at a time, so
    on a net whose parameters dwarf its 20-row activations it peaks less
    than 1.25 parameter vectors above the pair it holds (1.08, against 2.05
    with a second full vector)."""
    cfg = tmp_path / "wide.cfg"
    text = CFG.format(cycles=2, out=tmp_path / "run")
    cfg.write_text(text.replace("2,256,256,2", "2,1024,1024,2").replace("n=200,", "n=40,"))
    assert main(["train", str(cfg)]) == 0
    cpus(monkeypatch, 1)  # the grid's points stay in this process
    run = tmp_path / "run"
    peak = peak_bytes(["interpolate", "--manifest", str(run / "run.manifest"), "--data", str(run / "test.csv"),
                       "--pair", "1", "2", "--points", "5", "--out", str(tmp_path / "interp")])
    assert peak - 2 * WIDE_BYTES < 1.25 * WIDE_BYTES, peak / WIDE_BYTES


def test_init_params_fills_its_vector_in_place_with_the_uniform_draws():
    """A wide net's init writes straight into the training vector: no
    temporary the size of its weights, which a wide-idx `train` used to
    allocate and free at once, and the values `rng.uniform` draws."""
    spec = ModelSpec((784, 256, 256, 10))
    out = np.full(param_count(spec), np.nan)
    init_params(ModelSpec((2, 2)), 0)  # first-use costs, untraced
    tracemalloc.start()
    try:
        assert init_params(spec, 3, out=out) is out
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    rng, offset, expected = np.random.default_rng(3), 0, []
    for n_in, n_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
        bound = math.sqrt(6.0 / n_in)
        expected += [rng.uniform(-bound, bound, n_in * n_out), np.zeros(n_out)]
    assert out.tobytes() == np.concatenate(expected).tobytes() == init_params(spec, 3).tobytes()
