import argparse
import errno
import hashlib
import os
import re
import time

import numpy as np
import pytest

from conftest import cpus, snapens_limited, writer_lock
from snapens.cli import main
from snapens.cmdline import COMMANDS, _add_arguments
from snapens.data import load_csv
from snapens.errors import StorageError
from snapens.store import load_run, read_snapshot, write_snapshot

MOONS_CFG = """\
model.layers = 2,16,2
schedule.kind = cyclic_cosine
schedule.alpha0 = 0.2
schedule.cycles = 4
train.mode = snapshot
train.epochs = 8
train.batch_size = 25
train.seed = 11
data.source = two_moons
data.params = n=200,noise=0.1,seed=3
output.dir = {out}
"""


@pytest.fixture
def run_dir(tmp_path):
    cfg = tmp_path / "exp.cfg"
    out = tmp_path / "run"
    cfg.write_text(MOONS_CFG.format(out=out))
    assert main(["train", str(cfg)]) == 0
    return out


def test_gen_data_writes_loadable_csv(tmp_path):
    out = tmp_path / "moons.csv"
    assert main(["gen-data", "--source", "two_moons", "--n", "50", "--out", str(out)]) == 0
    ds = load_csv(out)
    assert len(ds) == 50 and ds.class_count == 2


def test_gen_data_spirals_and_blobs(tmp_path):
    assert main(["gen-data", "--source", "spirals", "--n", "40", "--turns", "1.5",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert main(["gen-data", "--source", "blobs", "--n", "30", "--classes", "3",
                 "--out", str(tmp_path / "b.csv")]) == 0
    assert load_csv(tmp_path / "b.csv").class_count == 3


def test_gen_data_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen-data", "--out", "x.csv"])  # --source missing
    assert excinfo.value.code == 2


def test_gen_data_bad_value_exits_2(tmp_path):
    assert main(["gen-data", "--source", "two_moons", "--n", "7",
                 "--out", str(tmp_path / "x.csv")]) == 2  # odd n


def test_train_produces_spec_layout(run_dir):
    names = sorted(p.name for p in run_dir.iterdir())
    assert names == [
        "loss.csv",
        "run.manifest",
        "snap_001.snap",
        "snap_002.snap",
        "snap_003.snap",
        "snap_004.snap",
        "test.csv",
        "train.csv",
    ]
    loss = load_csv(run_dir / "loss.csv", label_column="epoch")
    assert len(loss) == 8
    assert len(load_run(run_dir / "run.manifest")) == 4


def test_train_missing_key_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MOONS_CFG.format(out=tmp_path / "r").replace("schedule.cycles = 4\n", ""))
    assert main(["train", str(cfg)]) == 2
    assert "schedule.cycles" in capsys.readouterr().err


def test_train_non_utf8_config_exits_2_naming_it(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"# caf\xe9\n" + MOONS_CFG.format(out=tmp_path / "r").encode())
    assert main(["train", str(cfg)]) == 2
    assert "latin1.cfg: not UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_train_label_the_model_cannot_score_exits_2(tmp_path, capsys):
    cfg = tmp_path / "blobs.cfg"
    text = MOONS_CFG.format(out=tmp_path / "r").replace("data.source = two_moons", "data.source = blobs")
    cfg.write_text(text.replace("data.params = n=200,noise=0.1,seed=3", "data.params = n=90,classes=3"))
    assert main(["train", str(cfg)]) == 2
    assert "labels must lie in [0, 2)" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_train_csv_label_past_int64_exits_4_naming_the_file(tmp_path, capsys):
    data = tmp_path / "big_label.csv"
    data.write_text("f0,f1,label\n" + "0.5,1.5,0\n" * 9 + "0.5,1.5,99999999999999999999\n")
    cfg = tmp_path / "csv.cfg"
    text = MOONS_CFG.format(out=tmp_path / "r").replace("data.source = two_moons", "data.source = csv")
    cfg.write_text(text.replace("data.params = n=200,noise=0.1,seed=3", f"data.params = path={data}"))
    assert main(["train", str(cfg)]) == 4
    assert f"{data}: row 11, column 'label': not an integer label" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


# 4 rows, the third in the training split, with a label past a 2-class model's range
BIG_LABEL_CSV = "f0,f1,label\n0.5,1.5,0\n-0.5,0.5,1\n0.25,-1.0,9223372036854775807\n1.0,0.0,1\n"
# 4 rows whose label 5, past a 2-class model's range, falls in the test split
TEST_SPLIT_LABEL_CSV = "f0,f1,label\n0.1,0.2,0\n0.3,0.1,1\n0.5,0.5,0\n0.2,0.9,5\n"
LABEL_ERROR = "labels must lie in [0, 2) for a 2-class model"


@pytest.mark.parametrize("rows", [BIG_LABEL_CSV, TEST_SPLIT_LABEL_CSV], ids=["train_split", "test_split"])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_label_error_names_the_config_and_the_data_file(tmp_path, monkeypatch, capsys, command, rows):
    data = tmp_path / "big_label.csv"
    data.write_text(rows)
    config_dir = tmp_path / "cfgs"
    config_dir.mkdir()
    cfg = config_dir / "csv.cfg"
    text = MOONS_CFG.format(out="r").replace("2,16,2", "2,4,2").replace("two_moons", "csv")
    cfg.write_text(text.replace("n=200,noise=0.1,seed=3", f"path={data}"))
    monkeypatch.chdir(tmp_path)
    assert main([command, str(cfg if command == "train" else config_dir)]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}: {data}: {LABEL_ERROR}\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "command",
    [["ensemble"], ["curve"], ["correlate", "--out", "corr"], ["interpolate", "--pair", "1", "2", "--out", "i"]],
    ids=lambda command: command[0],
)
def test_eval_label_error_names_the_data_file(tmp_path, monkeypatch, capsys, command):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(MOONS_CFG.format(out=tmp_path / "run").replace("2,16,2", "2,4,2"))
    assert main(["train", str(cfg)]) == 0
    data = tmp_path / "big_label.csv"
    data.write_text(BIG_LABEL_CSV)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    argv = [command[0], "--manifest", str(tmp_path / "run" / "run.manifest"), "--data", str(data)]
    assert main(argv + command[1:]) == 2
    assert capsys.readouterr().err == f"config error: {data}: {LABEL_ERROR}\n"


@pytest.mark.parametrize("command", ["gen-data", "ensemble"])
def test_a_stray_memory_error_exits_2_naming_the_command(monkeypatch, capsys, command):
    """A MemoryError that no size check caught ends the command with one
    stderr line and exit 2, the code of the sizes checked up front."""
    import snapens.cli as cli

    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, f"cmd_{command.replace('-', '_')}", out_of_memory)
    argv = {"gen-data": ["--source", "spirals", "--out", "s.csv"], "ensemble": ["--manifest", "m", "--data", "d"]}
    assert main([command, *argv[command]]) == 2
    assert capsys.readouterr() == ("", f"config error: {command}: out of memory\n")


def test_train_divergence_exits_3(tmp_path, capsys):
    cfg = tmp_path / "div.cfg"
    cfg.write_text(
        MOONS_CFG.format(out=tmp_path / "r").replace(
            "schedule.alpha0 = 0.2", "schedule.alpha0 = 1e18"
        )
    )
    with np.errstate(all="ignore"):
        assert main(["train", str(cfg)]) == 3
    assert "diverged at iteration" in capsys.readouterr().err


# MOONS_CFG's schedule lines, and the same run in single mode with one LR drop.
SNAPSHOT_LINES = (
    "schedule.kind = cyclic_cosine\nschedule.alpha0 = 0.2\nschedule.cycles = 4\ntrain.mode = snapshot"
)
SINGLE_LINES = "schedule.alpha0 = 0.2\ntrain.mode = single\nschedule.step_fractions = 0.5:{}"


@pytest.mark.parametrize(
    "line, replacement, message",
    [
        ("train.seed = 11", "train.seed = -5", "train.seed must be >= 0"),
        ("seed=3", "seed=-1", "data.params: seed must be >= 0, got -1"),
        ("seed=3", "seed=3,split_seed=-1", "data.params: split_seed must be >= 0, got -1"),
        ("n=200", "n=201", "data.params: two_moons needs an even n >= 2"),
        ("seed=3", "seed=3,train_fraction=1.5", "data.params: train_fraction must lie strictly"),
        ("noise=0.1", "noise=x", "data.params: bad value for 'noise'"),
        ("seed=3", "seed=3,normalize=ture", "data.params: bad value for 'normalize': 'ture'"),
        ("train.seed = 11", "train.seed = 11\ntrain.weight_decay = nan", "train.weight_decay must be finite"),
        ("train.seed = 11", "train.seed = 11\ntrain.weight_decay = inf", "train.weight_decay must be finite"),
        ("schedule.alpha0 = 0.2", "schedule.alpha0 = inf", "alpha0 must be finite"),
        (SNAPSHOT_LINES, SINGLE_LINES.format("-1"), "schedule.step_fractions: multipliers must be"),
        (SNAPSHOT_LINES, SINGLE_LINES.format("inf"), "schedule.step_fractions: multipliers must be"),
        (SNAPSHOT_LINES, SINGLE_LINES.format("nan"), "schedule.step_fractions: multipliers must be"),
        ("train.epochs = 8", "train.epochs = 0", "train.epochs must be >= 1"),
        ("train.batch_size = 25", "train.batch_size = 0", "train.batch_size must be >= 1"),
        ("schedule.cycles = 4", "schedule.cycles = 0", "schedule.cycles: cyclic_cosine needs"),
        ("schedule.alpha0 = 0.2", "schedule.alpha0 = 0", "schedule.alpha0 must be finite and > 0"),
    ],
    ids=[
        "train_seed", "data_seed", "split_seed", "data_odd_n", "data_train_fraction", "data_noise_text",
        "data_normalize_typo",
        "weight_decay_nan", "weight_decay_inf", "alpha0_inf",
        "multiplier_negative", "multiplier_inf", "multiplier_nan",
        "epochs_0", "batch_size_0", "cycles_0", "alpha0_0",
    ],
)
def test_train_out_of_domain_number_exits_2_naming_the_key(tmp_path, capsys, line, replacement, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MOONS_CFG.format(out=tmp_path / "r").replace(line, replacement, 1))
    assert main(["train", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: ") and message in err
    assert not (tmp_path / "r").exists()


def test_sweep_bad_data_params_value_exits_2_naming_the_file_and_the_key(tmp_path, monkeypatch, capsys):
    config_dir = tmp_path / "cfgs"
    config_dir.mkdir()
    cfg = config_dir / "bad.cfg"
    cfg.write_text(MOONS_CFG.format(out="r").replace("seed=3", "seed=-1"))
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", str(config_dir)]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}: data.params: seed must be >= 0, got -1\n"
    assert not (tmp_path / "r").exists()


def test_gen_data_negative_seed_exits_2_naming_it(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["gen-data", "--source", "spirals", "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_rerun_is_byte_identical(tmp_path):
    cfg_a = tmp_path / "a.cfg"
    cfg_b = tmp_path / "b.cfg"
    cfg_a.write_text(MOONS_CFG.format(out=tmp_path / "ra"))
    cfg_b.write_text(MOONS_CFG.format(out=tmp_path / "rb"))
    assert main(["train", str(cfg_a)]) == 0
    assert main(["train", str(cfg_b)]) == 0
    for i in range(1, 5):
        name = f"snap_{i:03d}.snap"
        assert (tmp_path / "ra" / name).read_bytes() == (tmp_path / "rb" / name).read_bytes()


def test_ensemble_sweep_schema(run_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["ensemble", "--manifest", str(run_dir / "run.manifest"),
                 "--data", str(run_dir / "test.csv"), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "m,ensemble_error"
    assert len(rows) == 1 + 4
    parsed = load_csv(out, label_column="m")
    assert len(parsed) == 4


def test_ensemble_single_m_lists_members(run_dir, tmp_path, capsys):
    assert main(["ensemble", "--manifest", str(run_dir / "run.manifest"),
                 "--data", str(run_dir / "test.csv"), "--m", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "m,ensemble_error,member_error_1,member_error_2,member_error_3"
    assert rows[1].startswith("3,")


def test_ensemble_m_too_large_exits_2(run_dir):
    assert main(["ensemble", "--manifest", str(run_dir / "run.manifest"),
                 "--data", str(run_dir / "test.csv"), "--m", "9"]) == 2


def test_ensemble_missing_manifest_exits_4(run_dir):
    assert main(["ensemble", "--manifest", str(run_dir / "nope.manifest"),
                 "--data", str(run_dir / "test.csv")]) == 4


def test_ensemble_corrupt_snapshot_exits_4(run_dir):
    snap = run_dir / "snap_002.snap"
    snap.write_bytes(snap.read_bytes()[:-8])
    assert main(["ensemble", "--manifest", str(run_dir / "run.manifest"),
                 "--data", str(run_dir / "test.csv")]) == 4


def test_curve_schema_and_first_row(run_dir, tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--manifest", str(run_dir / "run.manifest"),
                 "--data", str(run_dir / "test.csv"), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "k,single_error,ensemble_error"
    assert len(rows) == 1 + 4
    first = rows[1].split(",")
    assert first[1] == first[2]  # k=1: single equals ensemble


def test_interpolate_self_pair_is_constant(run_dir, tmp_path):
    out = tmp_path / "interp"
    assert main(["interpolate", "--manifest", str(run_dir / "run.manifest"),
                 "--data", str(run_dir / "test.csv"), "--pair", "2", "2",
                 "--points", "11", "--out", str(out)]) == 0
    rows = (out / "interp_002_002.csv").read_text().splitlines()
    assert rows[0] == "lambda,test_error"
    errors = {r.split(",")[1] for r in rows[1:]}
    assert len(rows) == 1 + 11 and len(errors) == 1


def test_interpolate_against_final_writes_all_curves(run_dir, tmp_path):
    out = tmp_path / "interp_all"
    assert main(["interpolate", "--manifest", str(run_dir / "run.manifest"),
                 "--data", str(run_dir / "test.csv"), "--against-final",
                 "--points", "5", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "interp_004_001.csv",
        "interp_004_002.csv",
        "interp_004_003.csv",
    ]


def test_interpolate_bad_pair_exits_2(run_dir, tmp_path):
    assert main(["interpolate", "--manifest", str(run_dir / "run.manifest"),
                 "--data", str(run_dir / "test.csv"), "--pair", "1", "9",
                 "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("points", ["0", "-1"])
def test_interpolate_fewer_than_one_point_exits_2(run_dir, tmp_path, capsys, points):
    assert main(["interpolate", "--manifest", str(run_dir / "run.manifest"),
                 "--data", str(run_dir / "test.csv"), "--against-final",
                 "--points", points, "--out", str(tmp_path / "x")]) == 2
    assert f"needs at least 1 point, got {points}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# 10**12 points need 16 TB for the lambda grid and a curve's errors, and
# 10**20 more bytes than an array can index: the kernel refuses each at once.
@pytest.mark.parametrize("points", [10**12, 10**20])
def test_interpolate_unallocatable_points_exits_2_naming_it(run_dir, tmp_path, capsys, points):
    assert main(["interpolate", "--manifest", str(run_dir / "run.manifest"),
                 "--data", str(run_dir / "test.csv"), "--against-final",
                 "--points", str(points), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (
        f"config error: --points {points} needs {16 * points} bytes, more than this process can allocate\n"
    )
    assert not (tmp_path / "x").exists()


def integer_options():
    """(command, option, nargs) of every integer option, read from the parser."""
    for command in COMMANDS:
        parser = argparse.ArgumentParser()
        _add_arguments(parser, command)
        for action in parser._actions:
            if action.type is int:
                yield command, action.option_strings[0], action.nargs or 1


# A command line each command with an integer option runs under test; the
# option under test follows it, so it overrides any value given here.
BASE_ARGV = {
    "gen-data": ["--source", "blobs", "--n", "10", "--out", "out.csv"],
    "ensemble": ["--manifest", "{manifest}", "--data", "{data}"],
    "interpolate": ["--manifest", "{manifest}", "--data", "{data}", "--pair", "1", "2", "--points", "3",
                    "--out", "interp"],
}


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("int_options") / "run"
    cfg = out.parent / "exp.cfg"
    cfg.write_text(MOONS_CFG.format(out=out))
    assert main(["train", str(cfg)]) == 0
    return out


@pytest.mark.parametrize("value", [10**12, 10**20], ids=["1e12", "1e20"])
@pytest.mark.parametrize("command, option, nargs", list(integer_options()),
                         ids=[f"{c} {o}" for c, o, _ in integer_options()])
def test_every_integer_option_at_a_huge_value_ends_without_a_traceback(saved_run, tmp_path, command, option,
                                                                       nargs, value):
    files = {"manifest": saved_run / "run.manifest", "data": saved_run / "test.csv"}
    argv = [command, *(arg.format(**files) for arg in BASE_ARGV[command]), option, *[str(value)] * nargs]
    proc = snapens_limited(argv, tmp_path, timeout=60)
    assert proc.returncode in (0, 2, 3), proc.stderr
    assert "Traceback" not in proc.stderr


def test_correlate_outputs_matrix_and_triples(run_dir, tmp_path):
    out = tmp_path / "corr"
    assert main(["correlate", "--manifest", str(run_dir / "run.manifest"),
                 "--data", str(run_dir / "test.csv"), "--out", str(out)]) == 0
    matrix_rows = (out / "corr_matrix.csv").read_text().splitlines()
    assert matrix_rows[0] == "s1,s2,s3,s4"
    assert len(matrix_rows) == 1 + 4
    triple_rows = (out / "corr_triples.csv").read_text().splitlines()
    assert triple_rows[0] == "i,j,corr"
    assert len(triple_rows) == 1 + 16
    diag = [r for r in triple_rows[1:] if r.split(",")[0] == r.split(",")[1]]
    assert all(r.split(",")[2] == "1.0" for r in diag)


def test_correlate_of_flat_snapshots_exits_2_naming_one(run_dir, capsys):
    for k in range(1, 5):
        path = run_dir / f"snap_{k:03d}.snap"
        record = read_snapshot(path)
        record.params = np.zeros_like(record.params)  # every row scores 0.5, 0.5
        write_snapshot(record, path)
    assert main(["correlate", "--manifest", str(run_dir / "run.manifest"),
                 "--data", str(run_dir / "test.csv"), "--out", str(run_dir / "corr")]) == 2
    assert capsys.readouterr().err == (
        "config error: zero-variance softmax outputs for snapshot 'snapshot_1'\n"
    )


@pytest.mark.parametrize(
    "command, target",
    [
        (["ensemble", "--out", "{tmp}/out.csv"], "out.csv"),
        (["curve", "--out", "{tmp}/out.csv"], "out.csv"),
        (["interpolate", "--pair", "1", "2", "--points", "3", "--out", "{tmp}/i"], "i/interp_001_002.csv"),
        (["correlate", "--out", "{tmp}/corr"], "corr/corr_matrix.csv"),
        (["sweep", "{tmp}/cfgs", "--summary", "{tmp}/summary.csv"], "summary.csv"),
    ],
    ids=["ensemble", "curve", "interpolate", "correlate", "sweep"],
)
def test_failed_output_write_keeps_the_old_file_and_exits_4_naming_it(
    run_dir, tmp_path, monkeypatch, capsys, command, target
):
    (tmp_path / "cfgs").mkdir()
    (tmp_path / "cfgs" / "exp.cfg").write_text(MOONS_CFG.format(out=tmp_path / "swept"))
    target = tmp_path / target
    target.parent.mkdir(exist_ok=True)
    target.write_text("old\n")
    real_open = open

    class FullDisk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

    def full_disk_open(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if "w" in mode and os.fspath(path).startswith(str(target)):
            return FullDisk(fh)
        return fh

    monkeypatch.setattr("builtins.open", full_disk_open)
    argv = [arg.format(tmp=tmp_path) for arg in command]
    if command[0] != "sweep":
        argv += ["--manifest", str(run_dir / "run.manifest"), "--data", str(run_dir / "test.csv")]
    assert main(argv) == 4
    assert target.read_text() == "old\n"
    assert not list(target.parent.glob("*.tmp"))
    assert f"i/o error: cannot write CSV {target}: " in capsys.readouterr().err


def test_sweep_runs_all_configs_and_joins(tmp_path):
    sweep_dir = tmp_path / "cfgs"
    sweep_dir.mkdir()
    for i, cycles in enumerate((2, 4), start=1):
        text = MOONS_CFG.format(out=tmp_path / f"run{i}").replace(
            "schedule.cycles = 4", f"schedule.cycles = {cycles}"
        )
        (sweep_dir / f"m{cycles:02d}.cfg").write_text(text)
    summary = tmp_path / "summary.csv"
    assert main(["sweep", str(sweep_dir), "--summary", str(summary)]) == 0
    rows = summary.read_text().splitlines()
    assert rows[0] == "config,mode,epochs,m,ensemble_error"
    assert len(rows) == 3
    assert rows[1].startswith("m02,snapshot,8,2,")
    assert rows[2].startswith("m04,snapshot,8,4,")


def test_sweep_empty_dir_exits_2(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    assert main(["sweep", str(empty)]) == 2


def train_cycles(tmp_path, out, cycles):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        MOONS_CFG.format(out=out)
        .replace("schedule.cycles = 4", f"schedule.cycles = {cycles}")
        .replace("train.epochs = 8", "train.epochs = 10")  # T = 40 fits 10 cycles
    )
    return main(["train", str(cfg)])


def test_retrain_with_fewer_snapshots_removes_stale_files(tmp_path):
    out = tmp_path / "run"
    assert train_cycles(tmp_path, out, 10) == 0
    (out / "snap_best.snap").write_bytes((out / "snap_010.snap").read_bytes())
    assert train_cycles(tmp_path, out, 2) == 0
    assert sorted(p.name for p in out.glob("*.snap")) == [
        "snap_001.snap", "snap_002.snap", "snap_best.snap"
    ]
    assert not list(out.glob("*.tmp"))
    assert len(load_run(out / "run.manifest")) == 2


def test_failed_stale_removal_leaves_a_complete_manifest(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert train_cycles(tmp_path, out, 10) == 0

    real_remove = os.remove

    def refuse(path):
        if str(path).endswith(".snap"):  # the stale snapshots, not the old manifest
            raise PermissionError(path)
        real_remove(path)

    monkeypatch.setattr("os.remove", refuse)
    assert train_cycles(tmp_path, out, 2) == 4
    # The new manifest went in before any deletion and names only files present.
    assert len(load_run(out / "run.manifest")) == 2
    assert len(list(out.glob("snap_*.snap"))) == 10


def other_config(tmp_path, out):
    """A config other than train_cycles' 3-cycle one, writing into `out`."""
    cfg = tmp_path / "other.cfg"
    cfg.write_text(MOONS_CFG.format(out=out).replace("schedule.cycles = 4", "schedule.cycles = 3")
                   .replace("train.seed = 11", "train.seed = 12"))
    return cfg


def test_interrupted_save_leaves_no_manifest_over_mixed_snapshots(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert train_cycles(tmp_path, out, 3) == 0
    real_replace = os.replace
    placed = []

    def fail_second(src, dst):
        if str(dst).endswith(".snap"):  # a staged snapshot moving into place
            placed.append(dst)
            if len(placed) == 2:
                raise OSError(errno.ENOSPC, "No space left on device", str(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_second)
    assert main(["train", str(other_config(tmp_path, out))]) == 4
    monkeypatch.undo()
    assert len(placed) == 2
    assert not list(out.glob("*.staged*"))
    with pytest.raises(StorageError):
        load_run(out / "run.manifest")
    assert main(["ensemble", "--manifest", str(out / "run.manifest"),
                 "--data", str(out / "test.csv")]) == 4


def test_failed_snapshot_write_in_training_leaves_the_old_run_as_it_was(tmp_path, monkeypatch):
    import snapens.trainer as trainer_mod

    out = tmp_path / "run"
    assert train_cycles(tmp_path, out, 3) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real_write = trainer_mod.write_snapshot
    written = []

    def fail_second(record, path):
        written.append(path)
        if len(written) == 2:
            raise StorageError(f"cannot write snapshot {path}: disk full")
        real_write(record, path)

    monkeypatch.setattr(trainer_mod, "write_snapshot", fail_second)
    assert main(["train", str(other_config(tmp_path, out))]) == 4
    assert len(written) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# MOONS_CFG in nocycle mode whose LR blows up halfway, after 2 of its 4 snapshots.
LATE_DIVERGENCE_LINES = (
    "schedule.alpha0 = 0.2\nschedule.cycles = 4\ntrain.mode = nocycle\nschedule.step_fractions = 0.5:1e30"
)


@pytest.mark.parametrize(
    "existing, count",
    [(True, 1), (False, 1), (True, 2), (False, 2)],
    ids=["existing_dir", "new_dir", "existing_dir-2cpus", "new_dir-2cpus"],
)
def test_divergence_after_a_capture_leaves_the_tree_as_it_was(tmp_path, monkeypatch, capsys, existing, count):
    import snapens.cli as cli_mod
    import snapens.trainer as trainer_mod

    out = tmp_path / "runs" / "run"
    if existing:
        assert train_cycles(tmp_path, out, 3) == 0
    before = {p.relative_to(tmp_path): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    real_write = trainer_mod.write_snapshot
    staged = []
    monkeypatch.setattr(trainer_mod, "write_snapshot", lambda r, p: staged.append(p) or real_write(r, p))
    real_save_csv = cli_mod.save_csv

    def slow_save_csv(dataset, path):  # at 2 CPUs the forked writer is still busy when the run diverges
        time.sleep(0.3)
        real_save_csv(dataset, path)

    cpus(monkeypatch, count)
    monkeypatch.setattr(cli_mod, "save_csv", slow_save_csv)
    cfg = tmp_path / "late.cfg"
    cfg.write_text(MOONS_CFG.format(out=out).replace(SNAPSHOT_LINES, LATE_DIVERGENCE_LINES))
    with np.errstate(all="ignore"):
        assert main(["train", str(cfg)]) == 3
    assert "diverged at iteration" in capsys.readouterr().err
    assert [os.path.basename(p) for p in staged] == ["snap_001.snap.staged", "snap_002.snap.staged"]
    after = {p.relative_to(tmp_path): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert after == {**before, cfg.relative_to(tmp_path): cfg.read_bytes()}


EVAL_COMMANDS = {
    "ensemble": ["ensemble", "--out", "{out}/e.csv"],
    "ensemble_m": ["ensemble", "--m", "2", "--out", "{out}/m.csv"],
    "curve": ["curve", "--out", "{out}/c.csv"],
    "interpolate": ["interpolate", "--against-final", "--points", "3", "--out", "{out}/interp"],
    "correlate": ["correlate", "--out", "{out}/corr"],
}


@pytest.mark.parametrize("command", EVAL_COMMANDS.values(), ids=EVAL_COMMANDS)
def test_truncated_last_snapshot_exits_4_before_any_output(run_dir, tmp_path, capsys, command):
    last = run_dir / "snap_004.snap"
    last.write_bytes(last.read_bytes()[:-8])
    out = tmp_path / "out"
    out.mkdir()
    argv = [command[0], "--manifest", str(run_dir / "run.manifest"), "--data", str(run_dir / "test.csv")]
    assert main(argv + [arg.format(out=out) for arg in command[1:]]) == 4
    assert re.fullmatch(r"i/o error: .*snap_004\.snap: payload length \d+ != expected \d+ bytes\n",
                        capsys.readouterr().err)
    assert list(out.iterdir()) == []


def test_save_that_cannot_remove_the_old_manifest_writes_nothing(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert train_cycles(tmp_path, out, 3) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real_remove = os.remove

    def refuse(path):
        if str(path).endswith("run.manifest"):
            raise PermissionError(path)
        real_remove(path)

    monkeypatch.setattr("os.remove", refuse)
    assert train_cycles(tmp_path, out, 2) == 4
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("command", [["ensemble", "--m", "2"], ["ensemble"], ["curve"]])
def test_eval_label_out_of_range_exits_2(run_dir, tmp_path, capsys, command):
    lines = (run_dir / "test.csv").read_text().splitlines()
    cells = lines[1].split(",")
    lines[1] = ",".join(cells[:-1] + ["7"])  # the net has 2 classes
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    argv = [command[0], "--manifest", str(run_dir / "run.manifest"), "--data", str(bad)]
    assert main(argv + command[1:]) == 2
    assert "labels must lie in [0, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["latest", "earliest"])
def test_ensemble_sweep_predicts_once_and_matches_per_m_output(run_dir, tmp_path, monkeypatch, order):
    import snapens.ensemble as ensemble_mod

    manifest = str(run_dir / "run.manifest")
    data = str(run_dir / "test.csv")
    expected = ["m,ensemble_error"]
    for m in range(1, 5):
        out = tmp_path / f"m{m}.csv"
        assert main(["ensemble", "--manifest", manifest, "--data", data,
                     "--m", str(m), "--order", order, "--out", str(out)]) == 0
        expected.append(",".join(out.read_text().splitlines()[1].split(",")[:2]))

    calls = []
    real_predict = ensemble_mod.predict
    monkeypatch.setattr(
        ensemble_mod, "predict", lambda *a, **k: calls.append(1) or real_predict(*a, **k)
    )
    out = tmp_path / "sweep.csv"
    assert main(["ensemble", "--manifest", manifest, "--data", data,
                 "--order", order, "--out", str(out)]) == 0
    assert out.read_text().splitlines() == expected
    assert len(calls) == 4  # M predicts, not M(M+1)/2


def test_eval_data_with_another_feature_count_exits_2_naming_it(run_dir, tmp_path, capsys):
    wide = tmp_path / "wide.csv"
    wide.write_text("f0,f1,f2,label\n0.5,0.25,1.0,0\n-0.5,0.75,2.0,1\n")
    assert main(["ensemble", "--manifest", str(run_dir / "run.manifest"), "--data", str(wide)]) == 2
    assert f"{wide}: 3 feature columns" in capsys.readouterr().err


def test_retrain_that_cannot_write_test_csv_leaves_no_manifest_over_the_old_split(
    tmp_path, monkeypatch
):
    import errno

    import snapens.cli as cli_mod

    out = tmp_path / "run"
    assert train_cycles(tmp_path, out, 3) == 0
    old_test = (out / "test.csv").read_bytes()
    real_save_csv = cli_mod.save_csv

    def no_space_for_test_csv(dataset, path):
        if str(path).endswith("test.csv.staged"):  # the writer stages each split
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        real_save_csv(dataset, path)

    cpus(monkeypatch, 2)  # the error crosses from the forked writer
    monkeypatch.setattr(cli_mod, "save_csv", no_space_for_test_csv)
    cfg = tmp_path / "other.cfg"  # another split of other data into the same directory
    cfg.write_text(MOONS_CFG.format(out=out).replace("seed=3", "seed=4"))
    assert main(["train", str(cfg)]) == 4
    assert (out / "test.csv").read_bytes() == old_test
    assert not list(out.glob("*.staged*"))
    assert main(["ensemble", "--manifest", str(out / "run.manifest"),
                 "--data", str(out / "test.csv")]) != 0


def test_train_writes_the_same_bytes_at_one_and_two_cpus_and_forks_only_at_two(tmp_path, monkeypatch):
    real_fork = os.fork
    forks = []

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    trees = {}
    for count in (1, 2):
        cpus(monkeypatch, count)
        out = tmp_path / f"run{count}"
        cfg = tmp_path / f"cpus{count}.cfg"
        cfg.write_text(MOONS_CFG.format(out=out))
        assert main(["train", str(cfg)]) == 0
        assert len(forks) == count - 1  # at 2 CPUs one writer for the splits
        trees[count] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert sorted(trees[2]) == ["loss.csv", "run.manifest", "snap_001.snap", "snap_002.snap",
                                "snap_003.snap", "snap_004.snap", "test.csv", "train.csv"]
    assert trees[1] == trees[2]


@pytest.mark.parametrize("count", [1, 2])
def test_next_train_removes_the_staged_files_a_killed_run_left(run_dir, tmp_path, monkeypatch, count):
    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    for name in ("train.csv.staged", "test.csv.staged", "snap_007.snap.staged",
                 "snap_009.snap.staged.tmp", "snap_009.snap.tmp"):
        (run_dir / name).write_bytes(b"left by a killed run")
    cpus(monkeypatch, count)
    assert main(["train", str(tmp_path / "exp.cfg")]) == 0
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before


@pytest.mark.parametrize("count", [1, 2])
def test_retrain_places_and_removes_the_run_files_in_order(run_dir, tmp_path, monkeypatch, count):
    steps = []  # in the calling process: each os.replace destination and os.remove target
    real_replace, real_remove = os.replace, os.remove

    def replace(src, dst):
        steps.append(os.path.basename(dst))
        real_replace(src, dst)

    def remove(path):
        steps.append(f"remove {os.path.basename(path)}")
        real_remove(path)

    cfg = tmp_path / "two.cfg"  # 2 cycles into the 4-cycle run
    cfg.write_text(MOONS_CFG.format(out=run_dir).replace("schedule.cycles = 4", "schedule.cycles = 2"))
    cpus(monkeypatch, count)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "remove", remove)
    assert main(["train", str(cfg)]) == 0
    assert [step for step in steps if not step.endswith((".staged", ".tmp"))] == [
        "remove run.manifest", "snap_001.snap", "snap_002.snap", "loss.csv", "train.csv", "test.csv",
        "run.manifest", "remove snap_003.snap", "remove snap_004.snap",
    ]


def test_train_into_a_run_another_writer_holds_exits_4_naming_it_and_trains_nothing(
    run_dir, tmp_path, monkeypatch, capsys
):
    import snapens.cli as cli_mod

    before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    trained = []
    monkeypatch.setattr(cli_mod, "train", lambda *args: trained.append(args))
    capsys.readouterr()
    with writer_lock(run_dir):
        assert main(["train", str(tmp_path / "exp.cfg")]) == 4
        # readers take no lock
        assert main(["ensemble", "--manifest", str(run_dir / "run.manifest"), "--data",
                     str(run_dir / "test.csv"), "--m", "2", "--out", str(tmp_path / "m2.csv")]) == 0
    assert capsys.readouterr().err == f"i/o error: run directory {run_dir} is in use by another snapens process\n"
    assert trained == []
    assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

