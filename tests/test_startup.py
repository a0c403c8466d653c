"""Start-up: `import snapens` is lazy, and each subcommand loads only what it runs."""
import hashlib
import importlib
import pathlib
import re
import subprocess
import sys

import pytest

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
# A second probe, run before PROBE: at exit, it writes which of numpy,
# ctypes, hashlib and OpenSSL's `_hashlib` were loaded as modules to the file
# named first, with `.numpy` appended. The entry keeps `_hashlib` out with a
# None entry in `sys.modules`, so the probe tests for a module, not a name.
NUMPY_PROBE = """
import atexit, sys, types
def report_numpy(path=sys.argv[1] + ".numpy"):
    with open(path, "w") as fh:
        names = ("numpy", "ctypes", "hashlib", "_hashlib")
        fh.write(" ".join(m for m in names if isinstance(sys.modules.get(m), types.ModuleType)))
atexit.register(report_numpy)
"""
# What `snapens --help` and a usage error may load: no `snapens.cli`.
# `snapens.__main__` runs as `__main__`.
PARSE_ONLY = {"snapens", "snapens.__main__", "snapens.process", "snapens.cmdline"}

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


# Exit code and blake2b-8 digests of stdout and stderr of `python -m snapens
# ARGS` at COLUMNS=80: the `--help` texts and usage errors, which come from
# parsing argv alone. argparse's layout changes between Python versions, so
# the digests hold for the one they were recorded on (3.11).
GOLDEN_USAGE = {
    "--help": (0, "657b36f7b1ee2f09", "e4a6a0577479b2b4"),
    "gen-data --help": (0, "fcf8d635da0ffaa1", "e4a6a0577479b2b4"),
    "train --help": (0, "57d953c2830ad933", "e4a6a0577479b2b4"),
    "ensemble --help": (0, "c06709ec5c14a277", "e4a6a0577479b2b4"),
    "curve --help": (0, "39e59bd7a81b6752", "e4a6a0577479b2b4"),
    "interpolate --help": (0, "7ce3dcfa246cd0ea", "e4a6a0577479b2b4"),
    "correlate --help": (0, "70502491c6389365", "e4a6a0577479b2b4"),
    "sweep --help": (0, "dd1794df9b794be1", "e4a6a0577479b2b4"),
    "": (2, "e4a6a0577479b2b4", "20f02f6e03e124d7"),
    "bogus": (2, "e4a6a0577479b2b4", "e1c0f03257bec849"),
    "ensemble --no-such-option": (2, "e4a6a0577479b2b4", "8404c700df4b4f16"),
    "ensemble --manifest m --data d --order bogus": (2, "e4a6a0577479b2b4", "a808d1b3f407b46b"),
    "gen-data --source bogus --out x": (2, "e4a6a0577479b2b4", "1ddc922e002626ff"),
    # the required --pair / --against-final group is missing
    "interpolate --manifest m --data d --out o": (2, "e4a6a0577479b2b4", "5f2b90c666519837"),
}


def probe(tmp_path, argv, code=0):
    """The snapens modules `python -m snapens ARGV` loaded, which must exit
    with `code`, and which of numpy, ctypes, hashlib and `_hashlib` it loaded."""
    report = tmp_path / "modules.txt"
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE + PROBE, str(report), *argv],
        cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    return set(report.read_text().split()), set((tmp_path / "modules.txt.numpy").read_text().split())


def loaded_modules(tmp_path, argv):
    return probe(tmp_path, argv)[0]


def test_every_public_name_resolves_to_its_home_module():
    for name in snapens.__all__:
        value = getattr(snapens, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("snapens."), name
        assert getattr(home, name) is value, name
    assert set(snapens.__all__) <= set(dir(snapens))
    assert not hasattr(snapens, "no_such_name")  # an AttributeError, as without the lazy lookup


def test_every_cli_name_resolves_to_its_home_module():
    import snapens.cli as cli

    for name, module in cli._HOME.items():
        assert getattr(cli, name) is getattr(importlib.import_module(f"snapens.{module}"), name), name
        assert name in dir(cli), name
    assert not hasattr(cli, "no_such_name")


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
        loaded, heavy = probe(tmp_path, argv)
        assert "_hashlib" not in heavy, label
        assert "snapens.cli" in loaded, label
        assert loaded & (TRAINING_MODULES | {"snapens.sweep", "snapens.pool"}) == set(), label
        if label in ("ensemble", "curve"):
            assert "snapens.analysis" not in loaded, label


def test_train_loads_the_training_modules(tmp_path):
    cfg = tmp_path / "moons.cfg"
    cfg.write_text(MOONS_CFG.format(out=tmp_path / "run"))
    loaded = loaded_modules(tmp_path, ["train", str(cfg)])
    assert TRAINING_MODULES <= loaded
    assert "snapens.sweep" not in loaded
    assert loaded & {"snapens.ensemble", "snapens.analysis"} == set()
    assert (tmp_path / "run" / "run.manifest").exists()


@pytest.mark.parametrize("command", ["train", "sweep", "gen-data"])
def test_the_commands_that_load_hashlib_never_load_openssls_hash_module(tmp_path, command):
    (tmp_path / "cfgs").mkdir()
    cfg = tmp_path / "cfgs" / "moons.cfg"
    cfg.write_text(MOONS_CFG.format(out=tmp_path / "run"))
    argv = {
        "train": ["train", str(cfg)],
        "sweep": ["sweep", str(tmp_path / "cfgs")],
        "gen-data": ["gen-data", "--source", "spirals", "--out", "s.csv"],
    }[command]
    heavy = probe(tmp_path, argv)[1]
    assert {"numpy", "hashlib"} <= heavy
    assert "_hashlib" not in heavy


@pytest.mark.parametrize("args", sorted(GOLDEN_USAGE))
def test_help_and_usage_errors_load_neither_numpy_nor_ctypes(tmp_path, args):
    loaded, heavy = probe(tmp_path, args.split(), GOLDEN_USAGE[args][0])
    assert heavy == set()
    assert loaded <= PARSE_ONLY


def test_importing_the_cli_loads_no_numpy():
    code = "import sys, snapens.cli; print('numpy' in sys.modules, 'snapens.errors' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.split() == ["False", "True"]


def test_importing_the_package_loads_no_submodule():
    code = "import sys, snapens; print(sorted(m for m in sys.modules if m.split('.')[0] == 'snapens'))"
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "['snapens']"


@pytest.mark.parametrize("args", sorted(GOLDEN_USAGE))
def test_help_and_usage_bytes_match_golden(tmp_path, args):
    proc = subprocess.run([sys.executable, "-m", "snapens", *args.split()], cwd=tmp_path,
                          env=subprocess_env(COLUMNS="80"), capture_output=True, timeout=60)
    digests = [hashlib.blake2b(out, digest_size=8).hexdigest() for out in (proc.stdout, proc.stderr)]
    assert (proc.returncode, *digests) == GOLDEN_USAGE[args], proc.stdout + proc.stderr
