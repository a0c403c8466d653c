"""The full stderr of each config fault that `train` and `sweep` report before
anything trains: the mode/schedule pairing, whether the cycles or snapshots
fit T, each key's value, the feature count and an unreadable data file.
Every message names the config file once."""
import os
import subprocess

import pytest

from conftest import snapens_limited
from snapens.cli import main
from snapens.config import KNOWN_KEYS, _experiment_config
from snapens.data import GENERATORS
from snapens.errors import SnapensError

# 20 two-moons rows split into 10 training rows: 2 batches of 5 per epoch, T = 10
BASE = """\
model.layers = {layers}
schedule.alpha0 = 0.2
train.mode = {mode}
train.epochs = 5
train.batch_size = 5
train.seed = 1
data.source = {source}
data.params = {params}
output.dir = {out}
"""
MOONS = "n=20,noise=0.1,seed=3"
MODES = ("snapshot", "single", "nocycle", "singlecycle")


def config_text(out, mode="snapshot", extra="schedule.cycles = 2\n", layers="2,8,2",
                source="two_moons", params=MOONS):
    return BASE.format(layers=layers, mode=mode, source=source, params=params, out=out) + extra


def run(command, tmp_path, monkeypatch, capsys, text):
    """Exit code and stderr of `train` or `sweep` over a config of `text`;
    `sweep` runs it after a good config, which must not train either. The
    stderr has each `{cfg}` replaced by the bad config's path."""
    monkeypatch.chdir(tmp_path)
    config_dir = "cfgs"
    os.mkdir(config_dir)
    bad = os.path.join(config_dir, "b_bad.cfg")
    with open(bad, "w") as fh:
        fh.write(text)
    if command == "train":
        code = main(["train", bad])
    else:
        with open(os.path.join(config_dir, "a_good.cfg"), "w") as fh:
            fh.write(config_text("runs/a_good"))
        code = main(["sweep", config_dir])
    err = capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    return code, err.replace(bad, "{cfg}")


FAULTS = {
    "cyclic_7_of_10": (config_text("runs/b", extra="schedule.cycles = 7\n"),
                       "{cfg}: schedule.cycles: 7 cycles cannot fit 10 iterations (would yield 5 snapshots)"),
    # M > T: the same rule as any other M that does not fit
    "cyclic_12_of_10": (config_text("runs/b", extra="schedule.cycles = 12\n"),
                        "{cfg}: schedule.cycles: 12 cycles cannot fit 10 iterations (would yield 10 snapshots)"),
    "singlecycle_7_of_10": (config_text("runs/b", "singlecycle", "schedule.cycles = 7\n"),
                            "{cfg}: schedule.cycles: 7 cycles cannot fit 10 iterations (would yield 5 snapshots)"),
    "nocycle_11_of_10": (config_text("runs/b", "nocycle", "schedule.cycles = 11\n"),
                         "{cfg}: schedule.cycles: snapshot count exceeds total iterations"),
    "nocycle_no_count": (config_text("runs/b", "nocycle", ""),
                         "{cfg}: schedule.cycles: nocycle mode needs a snapshot count >= 1"),
    "snapshot_no_cycles": (config_text("runs/b", "snapshot", ""),
                           "{cfg}: schedule.cycles: cyclic_cosine needs a cycle count >= 1"),
    "kind_step_for_snapshot": (config_text("runs/b", extra="schedule.kind = step\nschedule.cycles = 2\n"),
                               "{cfg}: schedule.kind: mode 'snapshot' requires cyclic_cosine"),
    "kind_cyclic_for_single": (config_text("runs/b", "single", "schedule.kind = cyclic_cosine\nschedule.cycles = 2\n"),
                               "{cfg}: schedule.kind: mode 'single' requires step"),
    "kind_empty": (config_text("runs/b", extra="schedule.kind =\nschedule.cycles = 2\n"),
                   "{cfg}: schedule.kind must be one of ('cyclic_cosine', 'step'), got ''"),
    "mode_unknown": (config_text("runs/b", "adamw"),
                     f"{{cfg}}: train.mode must be one of {MODES}, got 'adamw'"),
    "step_fractions_for_snapshot": (
        config_text("runs/b", extra="schedule.cycles = 2\nschedule.step_fractions = 0.5:0.1\n"),
        "{cfg}: schedule.step_fractions: not applicable to mode 'snapshot'"),
    "cycles_for_single": (config_text("runs/b", "single", "schedule.cycles = 2\n"),
                          "{cfg}: schedule.cycles: not applicable to mode 'single'"),
}

VALUE_FAULTS = {
    "missing_key": (config_text("runs/b").replace("train.seed = 1\n", ""),
                    "missing required key 'train.seed'"),
    "epochs_not_integer": (config_text("runs/b").replace("train.epochs = 5", "train.epochs = five"),
                           "train.epochs: not an integer: 'five'"),
    "alpha0_not_number": (config_text("runs/b").replace("schedule.alpha0 = 0.2", "schedule.alpha0 = fast"),
                          "schedule.alpha0: not a number: 'fast'"),
    "step_fractions_not_pairs": (config_text("runs/b", "single", "schedule.step_fractions = 0.5\n"),
                                 "schedule.step_fractions: expected fraction:multiplier, got '0.5'"),
    "layers_not_integers": (config_text("runs/b", layers="2,x,2"),
                            "model.layers: not a comma list of integers: '2,x,2'"),
    "layers_too_few": (config_text("runs/b", layers="2"),
                       "model.layers/model.dropout: layer_sizes needs at least an input and an output size"),
    "dropout_out_of_range": (config_text("runs/b", extra="schedule.cycles = 2\nmodel.dropout = 1.5\n"),
                             "model.layers/model.dropout: dropout_rate must lie in [0, 1)"),
    "source_unknown": (config_text("runs/b", source="nope"), "data.source: unknown source 'nope'"),
    "params_not_pairs": (config_text("runs/b", params="n20"), "data.params: expected key=value, got 'n20'"),
    "params_unknown_key": (config_text("runs/b", params="n=20,bogus=1"),
                           "data.params: unknown key 'bogus' for source 'two_moons'"),
    "params_duplicate_key": (config_text("runs/b", params="n=20,n=30"), "data.params: duplicate key 'n'"),
    "params_bad_value": (config_text("runs/b", params="n=abc"), "data.params: bad value for 'n': 'abc'"),
    "params_missing_path": (config_text("runs/b", source="csv", params="label=label"),
                            "data.params: missing required key 'path'"),
    "params_rejected_by_split": (config_text("runs/b", params=MOONS + ",train_fraction=2"),
                                 "data.params: train_fraction must lie strictly between 0 and 1"),
}


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("fault", list(FAULTS))
def test_mode_and_fit_faults_print_their_pinned_stderr(tmp_path, monkeypatch, capsys, command, fault):
    text, message = FAULTS[fault]
    assert run(command, tmp_path, monkeypatch, capsys, text) == (2, f"config error: {message}\n")


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("fault", list(VALUE_FAULTS))
def test_value_faults_name_the_config_once(tmp_path, monkeypatch, capsys, command, fault):
    text, message = VALUE_FAULTS[fault]
    assert run(command, tmp_path, monkeypatch, capsys, text) == (2, f"config error: {{cfg}}: {message}\n")


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("source, params, data_file", [
    ("csv", "path=moons.csv", "moons.csv"),
    ("two_moons", MOONS, None),
])
def test_feature_count_mismatch_exits_2_before_anything_trains(
    tmp_path, monkeypatch, capsys, command, source, params, data_file
):
    (tmp_path / "moons.csv").write_text("f0,f1,label\n" + "0.5,1.5,1\n0.1,0.2,0\n" * 10)
    text = config_text("runs/b", layers="3,8,2", source=source, params=params)
    named = f"{data_file}: " if data_file else ""
    assert run(command, tmp_path, monkeypatch, capsys, text) == (
        2, f"config error: {{cfg}}: {named}the data has 2 features, but model.layers takes 3 inputs\n"
    )


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("params, message", [
    ("path=missing.csv", "[Errno 2] No such file or directory: 'missing.csv'"),
    ("path=hdr.csv", "hdr.csv: no data rows"),
])
def test_unreadable_data_file_exits_4_naming_the_config(
    tmp_path, monkeypatch, capsys, command, params, message
):
    (tmp_path / "hdr.csv").write_text("f0,f1,label\n")
    text = config_text("runs/b", source="csv", params=params)
    assert run(command, tmp_path, monkeypatch, capsys, text) == (4, f"i/o error: {{cfg}}: {message}\n")


# Nets whose training step no process can allocate: the step of the first
# needs 24 EB, and that of the second more bytes than an array can index.
# The kernel refuses each request at once, so nothing is touched.
@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("layers, size", [
    ("2,1000000000,1000000000,2", 24000000224000000128),
    ("2,4000000000,4000000000,2", 384000000896000000128),
])
def test_unallocatable_model_layers_exits_2_before_anything_is_staged(
    tmp_path, monkeypatch, capsys, command, layers, size
):
    text = config_text("runs/b", layers=layers)
    assert run(command, tmp_path, monkeypatch, capsys, text) == (
        2,
        f"config error: {{cfg}}: model.layers: {layers} needs {size} bytes per training step, "
        "more than this process can allocate\n",
    )


# A batch whose activations cannot be allocated in `snapens_limited`'s 2 GiB
# on a net whose three parameter-sized vectors (120 MB) fit there: a step of
# 2,1000000,2 holds 8,000,016 bytes a row, and a batch holds at most the
# 10,000 rows of a 20,000-row two-moons split.
WIDE_LAYERS, WIDE_PARAMS = "2,1000000,2", 5_000_002
WIDE_STEP_BYTES = 8 * (3 * WIDE_PARAMS + 10_000 * 1_000_002)


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("batch_size", [10**12, 10**20])
def test_unallocatable_batch_size_exits_2_naming_it(tmp_path, command, batch_size):
    (tmp_path / "cfgs").mkdir()
    text = config_text("runs/b", layers=WIDE_LAYERS, params="n=20000,noise=0.1,seed=3")
    (tmp_path / "cfgs" / "b_bad.cfg").write_text(text.replace("train.batch_size = 5", f"train.batch_size = {batch_size}"))
    if command == "sweep":
        (tmp_path / "cfgs" / "a_good.cfg").write_text(config_text("runs/a_good"))
    bad = os.path.join("cfgs", "b_bad.cfg")
    proc = snapens_limited([command, bad if command == "train" else "cfgs"], tmp_path, timeout=60)
    assert (proc.returncode, proc.stderr) == (
        2,
        f"config error: {bad}: train.batch_size: {batch_size} needs "
        f"{WIDE_STEP_BYTES} bytes per training step, more than this process can allocate\n",
    )
    assert not (tmp_path / "runs").exists()


# A step holds at most the split's rows, so a batch size past the 10-row
# training split trains it as one batch of 10: the same snapshots as
# batch_size = 10, whose config digest alone differs.
def test_a_batch_larger_than_the_split_trains_the_snapshots_of_the_whole_split(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = {}
    for name, batch_size in (("huge", 10**12), ("whole", 10)):
        (tmp_path / f"{name}.cfg").write_text(
            config_text(f"runs/{name}").replace("train.batch_size = 5", f"train.batch_size = {batch_size}")
        )
        assert main(["train", f"{name}.cfg"]) == 0
        runs[name] = sorted((tmp_path / "runs" / name).glob("snap_*.snap"))
    assert [path.name for path in runs["huge"]] == [path.name for path in runs["whole"]] != []
    for huge, whole in zip(runs["huge"], runs["whole"]):
        (huge_header, huge_payload), (whole_header, whole_payload) = (
            path.read_bytes().split(b"\n\n", 1) for path in (huge, whole)
        )
        assert huge_payload == whole_payload
        changed = set(huge_header.split(b"\n")) ^ set(whole_header.split(b"\n"))
        assert {line.split(b"=")[0] for line in changed} == {b"config_digest"}


# Generated data that no process can allocate: 10**12 rows need 24 TB, and
# 10**20 rows more bytes than an array can index. The kernel refuses each
# request at once, so nothing is touched.
UNALLOCATABLE_ROWS = [(10**12, 24 * 10**12), (10**20, 24 * 10**20)]


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("source", ["two_moons", "spirals"])
@pytest.mark.parametrize("n, size", UNALLOCATABLE_ROWS)
def test_unallocatable_generated_data_exits_2_before_anything_is_staged(
    tmp_path, monkeypatch, capsys, command, source, n, size
):
    text = config_text("runs/b", source=source, params=f"n={n},noise=0.1,seed=3")
    assert run(command, tmp_path, monkeypatch, capsys, text) == (
        2, f"config error: {{cfg}}: data.params: n={n} needs {size} bytes, more than this process can allocate\n"
    )


# Blob centers no process can allocate: 16 bytes a class.
UNALLOCATABLE_CLASSES = [(10**12, 16 * 10**12), (10**20, 16 * 10**20)]


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("classes, size", UNALLOCATABLE_CLASSES)
def test_unallocatable_blob_classes_exit_2_before_anything_is_staged(
    tmp_path, monkeypatch, capsys, command, classes, size
):
    text = config_text("runs/b", source="blobs", params=f"n=20,classes={classes},spread=0.5,seed=3")
    assert run(command, tmp_path, monkeypatch, capsys, text) == (
        2,
        f"config error: {{cfg}}: data.params: classes={classes} needs {size} bytes, "
        "more than this process can allocate\n",
    )


@pytest.mark.parametrize("classes, size", UNALLOCATABLE_CLASSES)
def test_unallocatable_gen_data_exits_2_naming_classes(tmp_path, capsys, classes, size):
    out = tmp_path / "x.csv"
    assert main(["gen-data", "--source", "blobs", "--n", "10", "--classes", str(classes), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: classes={classes} needs {size} bytes, more than this process can allocate\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("source", ["two_moons", "spirals", "blobs"])
@pytest.mark.parametrize("n, size", UNALLOCATABLE_ROWS)
def test_unallocatable_gen_data_exits_2_naming_n(tmp_path, capsys, source, n, size):
    out = tmp_path / "x.csv"
    assert main(["gen-data", "--source", source, "--n", str(n), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: n={n} needs {size} bytes, more than this process can allocate\n"
    assert not out.exists()


BASE_VALUES = dict(line.split(" = ", 1) for line in config_text("runs/b").splitlines())


def integer_keys():
    """Every config key that takes integers: those whose parser rejects 0.5 as not one."""
    for key in sorted(KNOWN_KEYS):
        try:
            _experiment_config({**BASE_VALUES, key: "0.5"})
        except SnapensError as exc:
            if "integer" in str(exc):
                yield key


# Each integer key or generator parameter is a size, a seed, a time budget
# or a batch. A size too large exits 2 naming it; a seed is a valid value; a
# budget runs; a batch is capped by the 10-row split, so the run trains.
INTEGER_KINDS = {
    "model.layers": "size", "schedule.cycles": "size", "train.batch_size": "batch",
    "train.epochs": "budget", "train.seed": "seed", "n": "size", "classes": "size", "seed": "seed",
}
INTEGER_CASES = [
    *((key, None) for key in integer_keys()),
    *((name, source) for source, (_, params) in GENERATORS.items() for name, default in params if type(default) is int),
]


def test_every_integer_key_has_a_kind():
    assert {name for name, _ in INTEGER_CASES} == set(INTEGER_KINDS)


def huge_config(name, source, value):
    """The base config with the key `name` (a `data.params` key of `source`
    if given) set to `value`, and the token its error must name."""
    values = dict(BASE_VALUES)
    if source is None:
        values[name] = f"2,{value},2" if name == "model.layers" else str(value)
        return values, f"{name}: "
    params = {key: default for key, default in GENERATORS[source][1]} | {"n": 20, "classes": 2, name: value}
    values["data.source"] = source
    values["data.params"] = ",".join(f"{key}={params[key]}" for key, _ in GENERATORS[source][1])
    return values, f"data.params: {name}={value} "


# Each case runs `train` in a child under a 2 GiB address-space limit, where
# an allocation sized by the value fails as MemoryError instead of filling
# the machine; a budget is still running when its timeout kills it.
@pytest.mark.parametrize("value", [10**12, 10**20], ids=["1e12", "1e20"])
@pytest.mark.parametrize("name, source", INTEGER_CASES, ids=[f"{s or 'config'} {n}" for n, s in INTEGER_CASES])
def test_every_integer_key_at_a_huge_value(tmp_path, name, source, value):
    values, named = huge_config(name, source, value)
    (tmp_path / "exp.cfg").write_text("".join(f"{key} = {text}\n" for key, text in values.items()))
    kind = INTEGER_KINDS[name]
    if kind == "budget":
        with pytest.raises(subprocess.TimeoutExpired) as running:
            snapens_limited(["train", "exp.cfg"], tmp_path, timeout=3)
        assert b"Traceback" not in (running.value.stderr or b"")
        return
    proc = snapens_limited(["train", "exp.cfg"], tmp_path, timeout=60)
    assert "Traceback" not in proc.stderr
    if kind in ("seed", "batch"):
        assert proc.returncode == 0, proc.stderr
    else:
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"config error: exp.cfg: {named}"), proc.stderr
        assert not (tmp_path / "runs").exists()
