import pathlib
import re
from dataclasses import replace

import pytest

from snapens.config import (
    _COMMON_PARAMS,
    _SOURCES,
    KNOWN_KEYS,
    REQUIRED,
    build_datasets,
    parse_config,
    resolve_train_config,
)
from snapens.data import gen_two_moons, save_csv
from snapens.errors import ConfigError
from snapens.trainer import config_digest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

GOOD = """\
# spiral snapshot run
model.layers = 2,16,2
model.dropout = 0.0
schedule.kind = cyclic_cosine
schedule.alpha0 = 0.2
schedule.cycles = 4
train.mode = snapshot
train.epochs = 8
train.batch_size = 25
train.momentum = 0.9
train.seed = 11
data.source = two_moons
data.params = n=200,noise=0.1,seed=3,train_fraction=0.5
output.dir = runs/demo
"""


def write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def test_parse_full_config(tmp_path):
    cfg = parse_config(write(tmp_path, GOOD))
    assert cfg.train.model.layer_sizes == (2, 16, 2)
    assert resolve_train_config(cfg, n_train=100).schedule.kind == "cyclic_cosine"
    assert cfg.train.schedule.alpha0 == 0.2
    assert cfg.train.schedule.cycles == 4
    assert cfg.train.mode == "snapshot"
    assert cfg.train.epochs == 8
    assert cfg.train.batch_size == 25
    assert cfg.train.seed == 11
    assert cfg.data_source == "two_moons"
    assert cfg.data_params["n"] == "200"
    assert cfg.output_dir == "runs/demo"


def test_inline_comments_and_blank_lines(tmp_path):
    text = GOOD.replace("train.seed = 11", "train.seed = 11   # reproducibility\n\n")
    assert parse_config(write(tmp_path, text)).train.seed == 11


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="train.optimizer"):
        parse_config(write(tmp_path, GOOD + "train.optimizer = adam\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(write(tmp_path, GOOD + "train.seed = 12\n"))


def test_missing_required_key(tmp_path):
    text = GOOD.replace("train.epochs = 8\n", "")
    with pytest.raises(ConfigError, match="train.epochs"):
        parse_config(write(tmp_path, text))


def test_missing_cycles_for_snapshot_mode(tmp_path):
    text = GOOD.replace("schedule.cycles = 4\n", "")
    with pytest.raises(ConfigError, match="schedule.cycles"):
        parse_config(write(tmp_path, text))


def test_cycles_rejected_for_single_mode(tmp_path):
    text = GOOD.replace("schedule.kind = cyclic_cosine", "schedule.kind = step")
    text = text.replace("train.mode = snapshot", "train.mode = single")
    with pytest.raises(ConfigError, match="schedule.cycles"):
        parse_config(write(tmp_path, text))


def test_unknown_mode_and_kind(tmp_path):
    with pytest.raises(ConfigError, match="train.mode"):
        parse_config(write(tmp_path, GOOD.replace("mode = snapshot", "mode = adamw")))
    for kind in ("linear", "constant"):
        with pytest.raises(ConfigError, match="schedule.kind"):
            parse_config(write(tmp_path, GOOD.replace("kind = cyclic_cosine", f"kind = {kind}")))


def test_bad_data_param_key(tmp_path):
    text = GOOD.replace("n=200,", "count=200,")
    with pytest.raises(ConfigError, match="count"):
        parse_config(write(tmp_path, text))


def test_step_fractions_parsing(tmp_path):
    text = GOOD.replace("schedule.kind = cyclic_cosine", "schedule.kind = step")
    text = text.replace("train.mode = snapshot", "train.mode = nocycle")
    text += "schedule.step_fractions = 0.4:0.5,0.8:0.2\n"
    cfg = parse_config(write(tmp_path, text))
    assert cfg.train.schedule.step_fractions == ((0.4, 0.5), (0.8, 0.2))


@pytest.mark.parametrize("mode", ["snapshot", "singlecycle"])
def test_step_fractions_rejected_for_cyclic_modes(tmp_path, mode):
    text = GOOD.replace("train.mode = snapshot", f"train.mode = {mode}")
    text += "schedule.step_fractions = 0.3:0.5\n"
    with pytest.raises(ConfigError, match="schedule.step_fractions"):
        parse_config(write(tmp_path, text))


def test_mode_kind_mismatch_rejected_at_parse(tmp_path):
    text = GOOD.replace("schedule.kind = cyclic_cosine", "schedule.kind = step")
    with pytest.raises(ConfigError, match="schedule.kind"):
        parse_config(write(tmp_path, text))


@pytest.mark.parametrize(
    "mode, kind",
    [("snapshot", "cyclic_cosine"), ("singlecycle", "cyclic_cosine"), ("single", "step"), ("nocycle", "step")],
)
def test_schedule_kind_is_derived_from_mode(tmp_path, mode, kind):
    text = GOOD.replace("schedule.kind = cyclic_cosine\n", "")
    text = text.replace("train.mode = snapshot", f"train.mode = {mode}")
    if mode == "single":
        text = text.replace("schedule.cycles = 4\n", "")
    config = resolve_train_config(parse_config(write(tmp_path, text)), n_train=100)
    assert config.schedule.kind == kind


def test_resolve_computes_total_iterations(tmp_path):
    cfg = parse_config(write(tmp_path, GOOD))
    config = resolve_train_config(cfg, n_train=100)
    assert config.schedule.total_iterations == 8 * 4  # ceil(100/25) = 4 batches
    assert config.mode == "snapshot"
    assert config.snapshot_count is None


def test_resolve_nocycle_uses_cycles_as_snapshot_count(tmp_path):
    text = GOOD.replace("schedule.kind = cyclic_cosine", "schedule.kind = step")
    text = text.replace("train.mode = snapshot", "train.mode = nocycle")
    cfg = parse_config(write(tmp_path, text))
    config = resolve_train_config(cfg, n_train=100)
    assert config.snapshot_count == 4
    assert config.schedule.kind == "step"


def test_build_datasets_split_sizes(tmp_path):
    cfg = parse_config(write(tmp_path, GOOD))
    train_set, test_set = build_datasets(cfg)
    assert len(train_set) == 100 and len(test_set) == 100
    assert train_set.class_count == 2


def test_build_datasets_normalize_flag(tmp_path):
    text = GOOD.replace(
        "data.params = n=200,noise=0.1,seed=3,train_fraction=0.5",
        "data.params = n=200,noise=0.1,seed=3,train_fraction=0.5,normalize=true",
    )
    cfg = parse_config(write(tmp_path, text))
    train_set, _ = build_datasets(cfg)
    assert abs(train_set.inputs.mean()) < 1e-9


@pytest.mark.parametrize("value, normalized", [
    ("TRUE", True), ("Yes", True), ("1", True), ("False", False), ("no", False), ("0", False),
])
def test_build_datasets_normalize_accepts_each_switch_word_in_any_case(tmp_path, value, normalized):
    text = GOOD.replace("train_fraction=0.5", f"train_fraction=0.5,normalize={value}")
    train_set, _ = build_datasets(parse_config(write(tmp_path, text)))
    assert (abs(train_set.inputs.mean()) < 1e-9) == normalized


@pytest.mark.parametrize("value", ["ture", "on", ""])
def test_build_datasets_rejects_an_unknown_normalize_value(tmp_path, value):
    text = GOOD.replace("train_fraction=0.5", f"train_fraction=0.5,normalize={value}")
    with pytest.raises(ConfigError, match=f"bad value for 'normalize': '{value}'"):
        build_datasets(parse_config(write(tmp_path, text)))


def test_csv_source_requires_path(tmp_path):
    text = GOOD.replace("data.source = two_moons", "data.source = csv")
    text = text.replace("data.params = n=200,noise=0.1,seed=3,train_fraction=0.5\n", "")
    cfg = parse_config(write(tmp_path, text))
    with pytest.raises(ConfigError, match="path"):
        build_datasets(cfg)


def test_malformed_line_rejected(tmp_path):
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(write(tmp_path, GOOD + "just some words\n"))


def test_non_utf8_config_is_a_config_error(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"# r\xe9sum\xe9 of the spiral run\n" + GOOD.encode())
    with pytest.raises(ConfigError, match=r"latin1.cfg.*not UTF-8"):
        parse_config(path)


SMALL = """\
model.layers = 2,8,2
schedule.alpha0 = 0.2
train.mode = {mode}
train.epochs = 2
train.batch_size = 5
train.seed = 1
data.source = {source}
data.params = {params}
output.dir = runs/x
"""

# Each optional key: (mode, source, the line or `data.params` pair that
# writes its default). The csv source reads a 20-row two-moons file.
DEFAULT_WRITTEN = {
    "model.dropout": ("single", "two_moons", "model.dropout = 0"),
    "schedule.kind step": ("single", "two_moons", "schedule.kind = step"),
    "schedule.kind cyclic": ("snapshot", "two_moons", "schedule.kind = cyclic_cosine"),
    "schedule.step_fractions": ("nocycle", "two_moons", "schedule.step_fractions = 0.5:0.1,0.75:0.1"),
    "train.momentum": ("single", "two_moons", "train.momentum = 0.9"),
    "train.weight_decay": ("single", "two_moons", "train.weight_decay = 0"),
    "train_fraction": ("single", "two_moons", "train_fraction=0.5"),
    "split_seed": ("single", "two_moons", "split_seed=0"),
    "normalize": ("single", "two_moons", "normalize=false"),
    "csv label": ("single", "csv", "label=label"),
}


@pytest.mark.parametrize("key", DEFAULT_WRITTEN)
def test_a_config_that_writes_a_default_runs_as_one_that_omits_it(tmp_path, key):
    """The ExperimentConfigs are equal but for `data_params`, which keeps
    the pairs as written; the resolved configs hash alike and the splits
    are equal."""
    mode, source, written = DEFAULT_WRITTEN[key]
    save_csv(gen_two_moons(20, 0.1, seed=3), tmp_path / "moons.csv")
    params = f"path={tmp_path / 'moons.csv'}" if source == "csv" else "n=20,noise=0.1,seed=3"
    text = SMALL.format(mode=mode, source=source, params=params)
    if mode != "single":
        text += "schedule.cycles = 2\n"
    if " = " in written:
        texts = (text, text + written + "\n")
    else:
        texts = (text, text.replace(params, f"{params},{written}"))
    omitted, given = (parse_config(write(tmp_path, each)) for each in texts)
    assert replace(given, data_params=omitted.data_params) == omitted
    splits = [build_datasets(cfg) for cfg in (omitted, given)]
    assert config_digest(resolve_train_config(omitted, 10)) == config_digest(resolve_train_config(given, 10))
    for first, second in zip(*splits):
        assert first.inputs.tobytes() == second.inputs.tobytes()
        assert first.labels.tobytes() == second.labels.tobytes()


def config_files_section():
    text = README.read_text()
    start = text.index("## Config files\n")
    return text[start : text.index("\n## ", start)]


def test_the_readme_key_table_lists_every_config_key_once():
    keys = re.findall(r"^\| `([a-z0-9_.]+)` \|", config_files_section(), re.M)
    assert sorted(keys) == sorted(KNOWN_KEYS)


def test_the_readme_names_every_data_params_key_with_its_default():
    section = " ".join(config_files_section().split())
    for key, default in _COMMON_PARAMS:
        assert f"`{key}` (default {str(default).lower()}" in section
    for source, (_, params) in _SOURCES.items():
        named = ", ".join(
            f"`{key}`" if default is REQUIRED else f"`{key}`={default if type(default) is str else f'{default:g}'}"
            for key, default in params
        )
        assert f"{named} ({source})" in section
