"""The benchmark's tracer patches snapens functions by (module, attribute) name.

A rename or a moved call would otherwise make `perfbench/run.py --trace 1`
fail at install time; this test names the target that went missing.
"""
import importlib
import importlib.util
import pathlib

import snapens.cli
from conftest import cpus
from snapens.data import save_csv
from snapens.store import save_run

INPROC = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "inproc.py"

MOONS_CFG = """\
model.layers = 2,16,2
schedule.alpha0 = 0.2
schedule.cycles = 4
train.mode = snapshot
train.epochs = 8
train.batch_size = 25
train.seed = 11
data.source = two_moons
data.params = n=400,noise=0.1,seed=3
output.dir = {out}
"""
# Spans one `train` of MOONS_CFG records, with their call counts: both splits
# saved, one snapshot per cycle.
TRAIN_SPANS = {
    "config.parse_config": 1,
    "config.build_datasets": 1,
    "trainer.train": 1,
    "data.save_csv": 2,
    "store.write_snapshot": 4,
}


def load_inproc():
    spec = importlib.util.spec_from_file_location("perfbench_inproc", INPROC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    inproc = load_inproc()
    targets = [(m, attr) for m, attr, *_ in inproc.SPANS] + [(m, attr) for m, attr, _ in inproc.COUNTS]
    assert targets
    missing = [
        f"snapens.{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(f"snapens.{module}"), attr, None))
    ]
    assert missing == []


def install_tracer(monkeypatch):
    """A benchmark tracer patched into the snapens modules until the test ends."""
    inproc = load_inproc()
    modules = {
        name: importlib.import_module(f"snapens.{name}")
        for name in ("cli", "config", "trainer", "store", "ensemble", "analysis")
    }
    for module, attr, *_ in inproc.SPANS + inproc.COUNTS:
        monkeypatch.setattr(modules[module], attr, getattr(modules[module], attr))  # undone at teardown
    tracer = inproc.Tracer()
    tracer.install(modules)
    return tracer


def test_train_routes_every_traced_call_through_the_patched_names(tmp_path, monkeypatch):
    cfg = tmp_path / "moons.cfg"
    cfg.write_text(MOONS_CFG.format(out=tmp_path / "run"))
    cpus(monkeypatch, 1)  # the splits are written here, not in a forked writer
    tracer = install_tracer(monkeypatch)
    assert tracer.run_command("train", lambda: snapens.cli.main(["train", str(cfg)])) == 0
    calls = tracer.command_calls["train"]
    assert {name: calls.get(name) for name in TRAIN_SPANS} == TRAIN_SPANS
    assert calls["nn.loss_and_grad"] == calls["trainer.sgd_step"] == 8 * 8  # 8 epochs of 8 batches


# A 4-config sweep on 200 two-moons rows, (mode, schedule.cycles, seed,
# alpha0) each: the nocycle and single runs share one trajectory, so one CPU
# trains three trajectories in one loop of 8 epochs of 4 batches and takes
# 4 + 2 + 1 + 4 snapshots.
SWEEP_CFG = """\
model.layers = 2,16,2
schedule.alpha0 = {alpha0}
train.mode = {mode}
train.epochs = 8
train.batch_size = 25
train.seed = {seed}
data.source = two_moons
data.params = n=200,noise=0.1,seed=3
output.dir = {out}
"""
SWEEP_CONFIGS = {
    "a_snapshot": ("snapshot", 4, 11, 0.2),
    "b_nocycle": ("nocycle", 2, 11, 0.1),
    "c_single": ("single", None, 11, 0.1),
    "d_snapshot": ("snapshot", 4, 12, 0.2),
}
# Spans that sweep records. `data.save_csv` is left out: a sweep renders its
# splits through `data.csv_chunks`, not `cli.save_csv`.
SWEEP_SPANS = {
    "config.parse_config": 4,
    "config.build_datasets": 1,
    "trainer.train": 1,
    "store.write_snapshot": 11,
    "nn.loss_and_grad": 32,
}


def test_sweep_routes_every_traced_call_through_the_patched_names(tmp_path, monkeypatch):
    config_dir = tmp_path / "cfgs"
    config_dir.mkdir()
    for name, (mode, cycles, seed, alpha0) in SWEEP_CONFIGS.items():
        text = SWEEP_CFG.format(alpha0=alpha0, mode=mode, seed=seed, out=tmp_path / "runs" / name)
        (config_dir / f"{name}.cfg").write_text(text + (f"schedule.cycles = {cycles}\n" if cycles else ""))
    cpus(monkeypatch, 1)  # every config in this process, which the tracer sees
    tracer = install_tracer(monkeypatch)
    argv = ["sweep", str(config_dir), "--summary", str(tmp_path / "summary.csv")]
    assert tracer.run_command("sweep", lambda: snapens.cli.main(argv)) == 0
    calls = tracer.command_calls["sweep"]
    assert {name: calls.get(name) for name in SWEEP_SPANS} == SWEEP_SPANS


def test_eval_commands_predict_each_snapshot_once_under_the_tracer(tiny_run, moons200, tmp_path, monkeypatch):
    _, manifest = tiny_run
    assert len(manifest.snapshots) == 4
    manifest_path = save_run(manifest, tmp_path / "run")
    data = tmp_path / "data.csv"
    save_csv(moons200, data)

    tracer = install_tracer(monkeypatch)

    inputs = ["--manifest", manifest_path, "--data", str(data)]
    commands = {
        "ensemble": ["ensemble", *inputs, "--out", str(tmp_path / "sweep.csv")],
        "ensemble_m2": ["ensemble", *inputs, "--m", "2", "--out", str(tmp_path / "m2.csv")],
        "curve": ["curve", *inputs, "--out", str(tmp_path / "curve.csv")],
        "correlate": ["correlate", *inputs, "--out", str(tmp_path / "corr")],
    }
    points = 5
    commands["interpolate"] = [
        "interpolate", *inputs, "--against-final", "--points", str(points), "--out", str(tmp_path / "interp")
    ]
    for label, argv in commands.items():
        assert tracer.run_command(label, lambda: snapens.cli.main(argv)) == 0
    calls = tracer.command_calls
    predicts = {label: calls[label]["ensemble.predict"] for label in commands if label != "interpolate"}
    assert predicts == {"ensemble": 4, "ensemble_m2": 2, "curve": 4, "correlate": 4}
    assert {label: calls[label]["nn.forward"] for label in predicts} == predicts
    # Three curves against snapshot 4: each snapshot scored once at an end,
    # plus the interior points of every curve.
    assert calls["interpolate"]["analysis.interpolate"] == 3
    assert calls["interpolate"]["nn.evaluate_error"] == 4 + 3 * (points - 2)
    # Each command reads the payload of each snapshot it uses once, at most M = 4.
    reads = {label: calls[label].get("store.read_snapshot", 0) for label in commands}
    assert reads == {"ensemble": 4, "ensemble_m2": 2, "curve": 4, "correlate": 4, "interpolate": 4}
