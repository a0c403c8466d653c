"""The process entry's precompile: with two usable CPUs and bytecode neither
written nor cached, a forked child compiles the command's snapens modules
while the entry imports numpy, and the entry imports them from the child's
code objects; anywhere else, and on every failure, the imports stay as they
were, with the same bytes."""
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from conftest import SRC, subprocess_env
from snapens.data import save_csv
from snapens.store import save_run

pytestmark = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")

# Runs `python -m snapens ARGS` after SETUP and, at exit, writes to the file
# named first what the entry did in this process: the sources of snapens
# modules it compiled, the loader class of each snapens module, how many
# times it forked, and whether any child of it is left, running or unreaped.
PROBE = """
import atexit, json, os, runpy, sys
import importlib._bootstrap_external as bootstrap
parent, compiled, forks = os.getpid(), [], []
real_source_to_code, real_fork = bootstrap.SourceLoader.source_to_code, os.fork
def source_to_code(self, data, path, *args, **kwargs):
    if os.path.basename(os.path.dirname(path)) == "snapens":
        compiled.append(os.path.basename(path))
    return real_source_to_code(self, data, path, *args, **kwargs)
def fork():
    if os.getpid() == parent:
        forks.append(1)
    return real_fork()
bootstrap.SourceLoader.source_to_code = source_to_code
os.fork = fork
{setup}
def report(path=sys.argv[1]):
    try:
        left = os.waitpid(-1, os.WNOHANG) is not None
    except ChildProcessError:
        left = False
    loaders = {{name: type(module.__spec__.loader).__name__
               for name, module in sys.modules.items() if name.split(".")[0] == "snapens"}}
    with open(path, "w") as fh:
        json.dump({{"compiled": compiled, "loaders": loaders, "forks": len(forks), "left": left}}, fh)
atexit.register(report)
sys.argv = ["snapens"] + sys.argv[2:]
runpy.run_module("snapens", run_name="__main__", alter_sys=True)
"""
# The entry's own modules: those it imports for the parse, and the one that
# forks the child, which it imports after the parse. It precompiles none.
ENTRY = {"snapens", "snapens.process", "snapens.cmdline", "snapens.precompile"}

ONE_CPU = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})"
# Each way the precompile can fail, injected into the child (which alone
# calls `marshal.dumps`) or into the entry's first fork.
FORK_FAILS = """
def fork(fork=os.fork):
    os.fork = fork
    raise OSError(11, "Resource temporarily unavailable")
os.fork = fork
"""
CHILD_EXITS_1 = "import marshal; marshal.dumps = lambda *args: os._exit(1)"
TRUNCATED = "import marshal; real_dumps = marshal.dumps; marshal.dumps = lambda *args: real_dumps(*args)[:-100]"
# The child changes `nn.py` after reading it: a later mtime, or one more
# line at the same mtime.
NN_TOUCHED = """
import marshal; real_dumps = marshal.dumps
def dumps(*args, nn={nn!r}):
    stat = os.stat(nn)
    if {grow}:
        with open(nn, "a") as fh:
            fh.write("# changed after the child read it\\n")
    os.utime(nn, ns=(stat.st_atime_ns, stat.st_mtime_ns + {later}))
    return real_dumps(*args)
marshal.dumps = dumps
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


def probe(tmp_path, src, argv, setup="", code=0, writes_bytecode=False):
    """The finished `python -m snapens ARGV` process, run in `tmp_path` with
    `src` first on its path after `setup`, and the entry's report."""
    report = tmp_path / "report.json"
    report.unlink(missing_ok=True)
    env = subprocess_env(PYTHONPATH=str(src))
    if writes_bytecode:
        del env["PYTHONDONTWRITEBYTECODE"]
    proc = subprocess.run([sys.executable, "-c", PROBE.format(setup=setup), str(report), *argv], cwd=tmp_path,
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    return proc, json.loads(report.read_text())


def served(report):
    return {name for name, loader in report["loaders"].items() if loader == "_Precompiled"}


@pytest.fixture
def src(tmp_path):
    """A copy of the package with no `__pycache__`, where the entry forks
    whether or not this test run wrote bytecode beside `SRC`, and where a
    test may change a source."""
    shutil.copytree(SRC / "snapens", tmp_path / "src" / "snapens", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "src"


@pytest.fixture
def inputs(tiny_run, moons200, tmp_path):
    """The inputs of an eval command on a 4-snapshot run and of `train` and `sweep` on MOONS_CFG."""
    save_csv(moons200, tmp_path / "data.csv")
    (tmp_path / "cfgs").mkdir()
    (tmp_path / "cfgs" / "moons.cfg").write_text(MOONS_CFG.format(out="runs/moons"))
    return ["--manifest", save_run(tiny_run[1], tmp_path / "run"), "--data", "data.csv"]


def commands(inputs):
    return {
        "ensemble": ["ensemble", *inputs],
        "interpolate": ["interpolate", *inputs, "--against-final", "--points", "3", "--out", "interp"],
        "train": ["train", "cfgs/moons.cfg"],
        "sweep": ["sweep", "cfgs", "--summary", "summary.csv"],
    }


def two_cpus():
    return len(os.sched_getaffinity(0)) >= 2


@pytest.mark.skipif(not two_cpus(), reason="the entry forks only with two usable CPUs")
@pytest.mark.parametrize("command", ["ensemble", "interpolate", "train", "sweep"])
def test_every_module_imported_after_the_parse_comes_from_the_child(tmp_path, src, inputs, command):
    _, report = probe(tmp_path, src, commands(inputs)[command])
    assert report["forks"] >= 1
    imported = set(report["loaders"]) - ENTRY
    assert {"snapens.cli", "snapens.errors", "snapens.data", "snapens.nn"} <= imported
    assert served(report) == imported
    assert sorted(report["compiled"]) == ["__init__.py", "__main__.py", "cmdline.py", "precompile.py", "process.py"]
    assert not report["left"]
    assert not list(src.rglob("__pycache__"))


def tree(path: pathlib.Path) -> dict:
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def outputs(tmp_path, src, argv, setup, writes_bytecode=False):
    """stdout and the files `argv` wrote, then the entry's report."""
    for name in ("runs", "interp"):
        shutil.rmtree(tmp_path / name, ignore_errors=True)
    (tmp_path / "summary.csv").unlink(missing_ok=True)
    proc, report = probe(tmp_path, src, argv, setup, writes_bytecode=writes_bytecode)
    written = {name: tree(tmp_path / name) for name in ("runs", "interp") if (tmp_path / name).exists()}
    if (tmp_path / "summary.csv").exists():
        written["summary.csv"] = (tmp_path / "summary.csv").read_bytes()
    return (proc.stdout, proc.stderr, written), report


@pytest.mark.skipif(not two_cpus(), reason="the entry forks only with two usable CPUs")
@pytest.mark.parametrize("setup", [FORK_FAILS, CHILD_EXITS_1, TRUNCATED],
                         ids=["fork_fails", "child_exits_1", "truncated_payload"])
def test_a_failed_precompile_compiles_from_source_with_the_same_bytes(tmp_path, src, inputs, setup):
    for argv in commands(inputs).values():
        expected, alone = outputs(tmp_path, src, argv, ONE_CPU)
        got, report = outputs(tmp_path, src, argv, setup)
        assert got == expected
        assert served(report) == served(alone) == set()
        assert "cli.py" in report["compiled"]
        assert not report["left"]


@pytest.mark.skipif(not two_cpus(), reason="the entry forks only with two usable CPUs")
@pytest.mark.parametrize("grow, later", [(False, 10**9), (True, 0)], ids=["mtime", "size"])
def test_a_source_changed_after_the_child_read_it_compiles_from_source(tmp_path, src, inputs, grow, later):
    argv = commands(inputs)["ensemble"]
    expected, _ = outputs(tmp_path, src, argv, ONE_CPU)
    touched = NN_TOUCHED.format(grow=grow, later=later, nn=str(src / "snapens" / "nn.py"))
    got, report = outputs(tmp_path, src, argv, touched)
    assert got == expected
    assert report["loaders"]["snapens.nn"] == "SourceFileLoader"
    assert "nn.py" in report["compiled"] and "data.py" not in report["compiled"]
    assert served(report) == set(report["loaders"]) - ENTRY - {"snapens.nn"}
    assert not list(src.rglob("__pycache__"))


@pytest.mark.parametrize("argv, setup, code", [
    ("--help", "", 0),
    ("ensemble --no-such-option", "", 2),
    ("interpolate --manifest m --data d --out o", "", 2),
    ("ensemble", ONE_CPU, 0),
    ("train", ONE_CPU, 0),
], ids=["help", "usage_error", "missing_group", "ensemble_one_cpu", "train_one_cpu"])
def test_the_entry_forks_nothing_at_one_cpu_or_before_a_command_runs(tmp_path, src, inputs, argv, setup, code):
    argv = commands(inputs).get(argv, argv.split())
    _, report = probe(tmp_path, src, argv, setup, code=code)
    assert report["forks"] == 0
    assert served(report) == set()
    assert "snapens.precompile" not in report["loaders"]
    assert not report["left"]


@pytest.mark.skipif(not two_cpus(), reason="the entry forks only with two usable CPUs")
def test_the_entry_forks_nothing_where_bytecode_is_written_or_cached(tmp_path, src, inputs):
    argv = commands(inputs)["ensemble"]
    expected, _ = outputs(tmp_path, src, argv, ONE_CPU)
    written, report = outputs(tmp_path, src, argv, "", writes_bytecode=True)
    assert written == expected
    assert report["forks"] == 0 and "cli.py" in report["compiled"]
    assert (src / "snapens" / "__pycache__").is_dir()
    cached, report = outputs(tmp_path, src, argv, "")
    assert cached == expected
    assert report["forks"] == 0 and report["compiled"] == []
    assert served(report) == set() and "snapens.precompile" not in report["loaders"]
