"""The process entry: `python -m snapens` runs without OpenSSL's `_hashlib`,
at one BLAS thread, with the malloc policy of `set_malloc_policy` and its
imported heap frozen, and only the entry does any of these."""
import ctypes
import gc
import pathlib
import platform
import re
import subprocess
import sys
import types

import numpy as np
import pytest

from conftest import SRC, subprocess_env
from oracles import write_idx_pair
from snapens import cli, cmdline, precompile, process
from snapens.cli import main
from snapens.config import parse_config
from snapens.data import save_csv
from snapens.process import _openblas_function, set_blas_threads, set_malloc_policy
from snapens.store import save_run
from snapens.trainer import config_digest

# Runs `python -m snapens ARGS` as the benchmark does and, at exit, writes the
# freeze count to the file named first, so the hooks are seen to run.
LAUNCHER = """
import atexit, gc, runpy, sys
def report(path=sys.argv[1]):
    with open(path, "w") as fh:
        fh.write(str(gc.get_freeze_count()))
atexit.register(report)
sys.argv = ["snapens"] + sys.argv[2:]
runpy.run_module("snapens", run_name="__main__", alter_sys=True)
"""

BAD_CFG = "model.layers = 2,x,2\n"


def snapens(argv, cwd, **env):
    return subprocess.run([sys.executable, "-m", "snapens", *argv], cwd=cwd,
                          env=subprocess_env(**env), capture_output=True, timeout=120)


@pytest.fixture
def eval_inputs(tiny_run, moons200, tmp_path):
    manifest_path = save_run(tiny_run[1], tmp_path / "run")
    save_csv(moons200, tmp_path / "data.csv")
    return ["--manifest", manifest_path, "--data", str(tmp_path / "data.csv")]


def test_in_process_main_freezes_nothing(tmp_path):
    frozen = gc.get_freeze_count()
    assert main(["gen-data", "--source", "two_moons", "--n", "20", "--out", str(tmp_path / "m.csv")]) == 0
    with pytest.raises(SystemExit):
        main(["--help"])
    assert gc.get_freeze_count() == frozen


BLAS_THREADS = _openblas_function("scipy_openblas_get_num_threads64_", ctypes.c_int)


@pytest.mark.skipif(BLAS_THREADS is None, reason="numpy has no bundled OpenBLAS")
def test_in_process_main_leaves_the_blas_threads(tmp_path, eval_inputs):
    set_blas_threads(2)
    try:
        assert main(["ensemble", *eval_inputs, "--out", str(tmp_path / "e.csv")]) == 0
        assert BLAS_THREADS() == 2
    finally:
        set_blas_threads(1)


def test_only_the_process_entry_freezes_or_sets_blas_threads():
    pattern = re.compile(r"gc\.freeze|set_blas_threads\(|set_num_threads|mallopt|set_malloc_policy\(|_hashlib")
    users = {path.name for path in (SRC / "snapens").glob("*.py") if pattern.search(path.read_text())}
    assert users == {"process.py"}


def test_only_the_process_module_forks_or_reads_the_usable_cpus():
    pattern = re.compile(r"\bos\.(fork|pipe|waitpid|sched_getaffinity)\b")
    users = {path.name for path in (SRC / "snapens").glob("*.py") if pattern.search(path.read_text())}
    assert users == {"process.py"}


def test_the_entry_sets_the_malloc_policy_once_between_the_parse_and_the_run(monkeypatch):
    calls = []

    def record(name, function=lambda *args: 0):
        def call(*args):
            calls.append(name)
            return function(*args)
        return call

    monkeypatch.setattr(process, "gc", types.SimpleNamespace(freeze=record("freeze")))
    monkeypatch.setattr(cmdline, "parse", record("parse", cmdline.parse))
    monkeypatch.setattr(cli, "load", record("load", cli.load))
    monkeypatch.setattr(cli, "run", record("run"))
    monkeypatch.setattr(process, "block_openssl_hashes", record("hashes"))
    monkeypatch.setattr(process, "precompile_pays", lambda: True)  # whatever the host's CPUs and bytecode
    monkeypatch.setattr(precompile, "install", record("precompile"))
    monkeypatch.setattr(process, "set_blas_threads", record("blas"))
    monkeypatch.setattr(process, "set_malloc_policy", record("malloc"))
    assert process.entry(["gen-data", "--source", "two_moons", "--out", "x.csv"]) == 0
    assert calls == ["freeze", "parse", "hashes", "precompile", "load", "blas", "malloc", "freeze", "run"]


# Runs the entry on `gen-data` (which imports `hashlib` through
# `numpy.random`) after `setup`, then prints the type of what `sys.modules`
# holds for `_hashlib` and the config digest of the recipe named first.
ENTRY_HASHES = """
import sys
{setup}
from snapens import process
process.entry(["gen-data", "--source", "spirals", "--n", "20", "--out", "s.csv"])
from snapens.config import parse_config
from snapens.trainer import config_digest
print(type(sys.modules.get("_hashlib", "absent")).__name__, config_digest(parse_config(sys.argv[1]).train).hex())
"""
HIDE_BLAKE2 = """
import importlib.util
real_find_spec = importlib.util.find_spec
importlib.util.find_spec = lambda name, *rest: None if name == "_blake2" else real_find_spec(name, *rest)
"""


@pytest.mark.parametrize("setup, held", [
    ("", "NoneType"),
    (HIDE_BLAKE2, "module"),  # a build without the built-in BLAKE2 keeps OpenSSL's
    ("import _hashlib", "module"),  # what is loaded stays
], ids=["blocked", "without_blake2", "loaded_before"])
def test_the_entry_keeps_openssls_hashes_out_only_where_it_can(tmp_path, setup, held):
    recipe = SRC.parent / "recipes" / "error_curve.cfg"
    proc = subprocess.run([sys.executable, "-c", ENTRY_HASHES.format(setup=setup), str(recipe)], cwd=tmp_path,
                          env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    kind, digest = proc.stdout.splitlines()[-1].split()
    assert kind == held
    assert digest == config_digest(parse_config(recipe).train).hex()


def test_in_process_main_keeps_openssls_hashes(monkeypatch, tmp_path):
    def refuse():
        raise AssertionError("cli.main blocked _hashlib")

    monkeypatch.setattr(process, "block_openssl_hashes", refuse)
    before = sys.modules.get("_hashlib", "absent")
    assert main(["gen-data", "--source", "two_moons", "--n", "20", "--out", str(tmp_path / "m.csv")]) == 0
    assert sys.modules.get("_hashlib", "absent") is before is not None


def test_in_process_main_keeps_the_allocator(monkeypatch, tmp_path):
    def refuse():
        raise AssertionError("cli.main set the malloc policy")

    monkeypatch.setattr(process, "set_malloc_policy", refuse)
    assert main(["gen-data", "--source", "two_moons", "--n", "20", "--out", str(tmp_path / "m.csv")]) == 0


def test_without_mallopt_the_malloc_policy_is_not_set(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert set_malloc_policy() is False


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_glibc_takes_the_malloc_policy():
    code = "from snapens.process import set_malloc_policy; print(set_malloc_policy())"
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout == "True\n"


@pytest.mark.parametrize("command", ["--help", "ensemble"])
def test_the_entry_freezes_and_runs_the_atexit_hooks(tmp_path, eval_inputs, command):
    report = tmp_path / "frozen.txt"
    argv = ["--help"] if command == "--help" else ["ensemble", *eval_inputs, "--out", str(tmp_path / "e.csv")]
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, str(report), *argv], cwd=tmp_path,
                          env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(report.read_text()) > 0


def test_ensemble_to_a_pipe_prints_the_bytes_of_its_out_file(tmp_path, eval_inputs):
    out = tmp_path / "e.csv"
    assert snapens(["ensemble", *eval_inputs, "--out", str(out)], tmp_path).returncode == 0
    proc = snapens(["ensemble", *eval_inputs], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_bytes()


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["ensemble", "--no-such-option"], 2),
    (["train", "bad.cfg"], 2),
    (["ensemble", "--manifest", "missing.manifest", "--data", "missing.csv"], 4),
])
def test_exit_codes(tmp_path, argv, code):
    (tmp_path / "bad.cfg").write_text(BAD_CFG)
    proc = snapens(argv, tmp_path)
    assert proc.returncode == code, proc.stderr


# 784-64-10 on 64 training images, one batch of 64 per epoch: its gemms take
# two OpenBLAS threads when they may, and two threads round them differently.
WIDE_CFG = """\
model.layers = 784,64,10
schedule.alpha0 = 0.05
schedule.cycles = 2
train.mode = snapshot
train.epochs = 2
train.batch_size = 64
train.seed = {seed}
data.source = idx
data.params = images={images},labels={labels},train_fraction=0.5,split_seed=1,normalize=true
output.dir = runs/{name}
"""


def tree(path: pathlib.Path) -> dict:
    return {p.relative_to(path).as_posix(): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """Two 784-input configs (seeds 5 and 6) in `cfgs/`, and their run
    directories as `train` writes them at one BLAS thread."""
    root = tmp_path_factory.mktemp("wide")
    rng = np.random.default_rng(20170402)
    images, labels = root / "images.idx", root / "labels.idx"
    write_idx_pair(images, labels, rng.integers(0, 256, (128, 28, 28)), rng.integers(0, 10, 128))
    (root / "cfgs").mkdir()
    for name, seed in (("a", 5), ("b", 6)):
        cfg = WIDE_CFG.format(seed=seed, images=images, labels=labels, name=name)
        (root / "cfgs" / f"{name}.cfg").write_text(cfg)
    (root / "one").mkdir()
    for name in ("a", "b"):
        proc = snapens(["train", str(root / "cfgs" / f"{name}.cfg")], root / "one", OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 0, proc.stderr
    return root


def test_train_bytes_do_not_depend_on_blas_threads(wide):
    (wide / "two").mkdir()
    proc = snapens(["train", str(wide / "cfgs" / "a.cfg")], wide / "two", OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert tree(wide / "two" / "runs" / "a") == tree(wide / "one" / "runs" / "a")


def test_sweep_at_two_cpus_writes_the_bytes_of_train(wide):
    """With two usable CPUs the second config trains in a forked worker."""
    (wide / "sweep").mkdir()
    proc = snapens(["sweep", str(wide / "cfgs")], wide / "sweep", OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert tree(wide / "sweep" / "runs") == tree(wide / "one" / "runs")
