"""Start-up: `import snapens` is lazy, and each subcommand loads only what it runs."""
import importlib
import pathlib
import re
import subprocess
import sys

import snapens
from conftest import subprocess_env
from snapens.data import save_csv
from snapens.store import save_run

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TRAINING_MODULES = {"snapens.config", "snapens.schedule", "snapens.trainer"}

# Runs `python -m snapens ARGS` as the benchmark does and, at exit, writes the
# names of the loaded snapens modules to the file named first.
PROBE = """
import atexit, runpy, sys
def report(path=sys.argv[1]):
    with open(path, "w") as fh:
        fh.write(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "snapens")))
atexit.register(report)
sys.argv = ["snapens"] + sys.argv[2:]
runpy.run_module("snapens", run_name="__main__", alter_sys=True)
"""

MOONS_CFG = """\
model.layers = 2,16,2
schedule.alpha0 = 0.2
schedule.cycles = 2
train.mode = snapshot
train.epochs = 2
train.batch_size = 25
train.seed = 11
data.source = two_moons
data.params = n=100,noise=0.1,seed=3
output.dir = {out}
"""


def loaded_modules(tmp_path, argv):
    report = tmp_path / "modules.txt"
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(report), *argv],
        cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(report.read_text().split())


def test_every_public_name_resolves_to_its_home_module():
    for name in snapens.__all__:
        value = getattr(snapens, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("snapens."), name
        assert getattr(home, name) is value, name
    assert set(snapens.__all__) <= set(dir(snapens))
    assert not hasattr(snapens, "no_such_name")  # an AttributeError, as without the lazy lookup


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from snapens import *", namespace)
    assert {name: namespace[name] for name in snapens.__all__} == {
        name: getattr(snapens, name) for name in snapens.__all__
    }


def test_readme_library_snippet_runs_as_written(tmp_path):
    snippet = re.search(r"## Library\n\n```python\n(.*?)\n```", README.read_text(), re.S)[1]
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    error, members = proc.stdout.split(" ", 1)
    assert 0.0 <= float(error) < 0.5
    assert members.count(",") == 5  # six member errors


def test_eval_commands_leave_the_training_modules_out(tiny_run, moons200, tmp_path):
    manifest_path = save_run(tiny_run[1], tmp_path / "run")
    data = tmp_path / "data.csv"
    save_csv(moons200, data)
    inputs = ["--manifest", manifest_path, "--data", str(data)]
    commands = {
        "ensemble": ["ensemble", *inputs, "--out", "sweep.csv"],
        "curve": ["curve", *inputs, "--out", "curve.csv"],
        "correlate": ["correlate", *inputs, "--out", "corr"],
        "interpolate": ["interpolate", *inputs, "--pair", "1", "4", "--points", "3", "--out", "interp"],
    }
    for label, argv in commands.items():
        loaded = loaded_modules(tmp_path, argv)
        assert "snapens.cli" in loaded, label
        assert loaded & (TRAINING_MODULES | {"snapens.sweep", "snapens.pool"}) == set(), label


def test_train_loads_the_training_modules(tmp_path):
    cfg = tmp_path / "moons.cfg"
    cfg.write_text(MOONS_CFG.format(out=tmp_path / "run"))
    loaded = loaded_modules(tmp_path, ["train", str(cfg)])
    assert TRAINING_MODULES <= loaded
    assert "snapens.sweep" not in loaded
    assert (tmp_path / "run" / "run.manifest").exists()


def test_importing_the_package_loads_no_submodule():
    code = "import sys, snapens; print(sorted(m for m in sys.modules if m.split('.')[0] == 'snapens'))"
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "['snapens']"
