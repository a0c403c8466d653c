"""Experiment config files: UTF-8 `key = value` lines with `#` comments.

One config file describes one experiment: the model, the schedule, the
training mode and budget, the data source and the output directory. Unknown
keys are rejected. `train.mode` fixes the schedule kind, so `schedule.kind`
is optional and, when given, must match it. In nocycle mode `schedule.cycles`
gives the snapshot count, mirroring the cycle count of the cyclic runs it is
compared against. Each key is declared once, with its default, in
`_DEFAULTS`, and each data source's `data.params` keys in `_SOURCES`. Value
rules live in the spec constructors: `parse_config` builds and keeps the
`TrainConfig` on a stand-in split of one batch per cycle, and
`resolve_train_config` gives it the real iteration count, on which the
constructors check the rules that need it (the cycles or snapshots fit T).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .data import GENERATORS, Dataset, load_csv, load_idx, normalize, split
from .errors import ConfigError, InputError
from .nn import ModelSpec
from .schedule import ScheduleSpec
from .trainer import TrainConfig, _schedule_kind, iterations_for

REQUIRED = object()  # the default of a key, or of a `data.params` key, that must be given

# Every config key with its default, in the order a missing key is reported.
# The optional defaults are those of the spec fields; `train.mode` sets
# `schedule.kind`, and `schedule.cycles` has no default.
_DEFAULTS = {
    "model.layers": REQUIRED,
    "model.dropout": ModelSpec.dropout_rate,
    "schedule.kind": None,
    "schedule.alpha0": REQUIRED,
    "schedule.cycles": None,
    "schedule.step_fractions": ScheduleSpec.step_fractions,
    "train.mode": REQUIRED,
    "train.epochs": REQUIRED,
    "train.batch_size": REQUIRED,
    "train.momentum": TrainConfig.momentum,
    "train.weight_decay": TrainConfig.weight_decay,
    "train.seed": REQUIRED,
    "data.source": REQUIRED,
    "data.params": "",
    "output.dir": REQUIRED,
}
KNOWN_KEYS = frozenset(_DEFAULTS)

# Each data source -> (loader, ((param, default or REQUIRED), ...)): the
# loader's positional arguments in order, named as `data.params` keys. The
# file sources call `load_csv` and `load_idx` by their names in this module.
_SOURCES = {
    **GENERATORS,
    "csv": (lambda *args: load_csv(*args), (("path", REQUIRED), ("label", "label"))),
    "idx": (lambda *args: load_idx(*args), (("images", REQUIRED), ("labels", REQUIRED))),
}
# The `data.params` keys of every source: the split's, then the normalize switch.
_COMMON_PARAMS = (("train_fraction", 0.5), ("split_seed", 0), ("normalize", False))


@dataclass(frozen=True)
class ExperimentConfig:
    train: TrainConfig  # checked on a stand-in split; see resolve_train_config
    data_source: str
    data_params: dict[str, str]
    output_dir: str


def _parse_kv_lines(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not UTF-8 text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _parse(values, key, convert):
    """`convert(values[key])`, or the key's default when the file omits it."""
    if key not in values:
        return _DEFAULTS[key]
    try:
        return convert(values[key])
    except ValueError:
        noun = "an integer" if convert is int else "a number"
        raise ConfigError(f"{key}: not {noun}: {values[key]!r}") from None


def _parse_step_fractions(text: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for chunk in text.split(","):
        if ":" not in chunk:
            raise ConfigError(f"schedule.step_fractions: expected fraction:multiplier, got {chunk!r}")
        frac, mult = chunk.split(":", 1)
        try:
            pairs.append((float(frac), float(mult)))
        except ValueError:
            raise ConfigError(f"schedule.step_fractions: not numeric: {chunk!r}") from None
    return tuple(pairs)


def _parse_data_params(text: str, source: str) -> dict[str, str]:
    params: dict[str, str] = {}
    if not text.strip():
        return params
    allowed = {key for key, _ in (*_SOURCES[source][1], *_COMMON_PARAMS)}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ConfigError(f"data.params: expected key=value, got {chunk.strip()!r}")
        key, value = (part.strip() for part in chunk.split("=", 1))
        if key not in allowed:
            raise ConfigError(f"data.params: unknown key {key!r} for source {source!r}")
        if key in params:
            raise ConfigError(f"data.params: duplicate key {key!r}")
        params[key] = value
    return params


def parse_config(path) -> ExperimentConfig:
    """Read and validate a config file; raises ConfigError naming the file and any bad key."""
    values = _parse_kv_lines(path)
    try:
        return _experiment_config(values)
    except (ConfigError, InputError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _experiment_config(values: dict[str, str]) -> ExperimentConfig:
    for key, default in _DEFAULTS.items():
        if default is REQUIRED and key not in values:
            raise ConfigError(f"missing required key {key!r}")

    try:
        layers = tuple(int(s) for s in values["model.layers"].split(","))
    except ValueError:
        raise ConfigError(f"model.layers: not a comma list of integers: {values['model.layers']!r}") from None
    dropout = _parse(values, "model.dropout", float)
    try:
        model = ModelSpec(layers, "relu", dropout)
    except Exception as exc:
        raise ConfigError(f"model.layers/model.dropout: {exc}") from exc

    source = values["data.source"]
    if source not in _SOURCES:
        raise ConfigError(f"data.source: unknown source {source!r}")

    alpha0 = _parse(values, "schedule.alpha0", float)
    cycles = _parse(values, "schedule.cycles", int)
    step_fractions = _parse(values, "schedule.step_fractions", _parse_step_fractions)
    mode = values["train.mode"]
    epochs = _parse(values, "train.epochs", int)
    batch_size = _parse(values, "train.batch_size", int)
    momentum = _parse(values, "train.momentum", float)
    weight_decay = _parse(values, "train.weight_decay", float)
    seed = _parse(values, "train.seed", int)
    data_params = _parse_data_params(_parse(values, "data.params", str), source)
    # Build once on batch_size rows per cycle: T = epochs x cycles, so no rule
    # on total_iterations can fire and every value rule runs here.
    kind = values["schedule.kind"] if "schedule.kind" in values else _schedule_kind(mode)
    n_train = batch_size * max(cycles or 1, 1)
    train = TrainConfig(
        model=model,
        schedule=ScheduleSpec(
            kind=kind,
            alpha0=alpha0,
            total_iterations=iterations_for(n_train, batch_size, epochs),
            cycles=cycles if kind == "cyclic_cosine" else None,
            step_fractions=step_fractions,
        ),
        mode=mode,
        epochs=epochs,
        batch_size=batch_size,
        momentum=momentum,
        seed=seed,
        snapshot_count=cycles if mode == "nocycle" else None,
        weight_decay=weight_decay,
    )

    if mode == "single" and cycles is not None:
        raise ConfigError(f"schedule.cycles: not applicable to mode {mode!r}")
    if kind != "step" and "schedule.step_fractions" in values:
        raise ConfigError(f"schedule.step_fractions: not applicable to mode {mode!r}")
    return ExperimentConfig(train, source, data_params, values["output.dir"])


def _param(params: dict[str, str], key: str, default):
    """The `data.params` value of `key` as the type of its default (text
    where REQUIRED), or the default when `params` omits the key."""
    if key not in params:
        if default is REQUIRED:
            raise ConfigError(f"data.params: missing required key {key!r}")
        return default
    convert = str if default is REQUIRED else _flag if type(default) is bool else type(default)
    try:
        return convert(params[key])
    except (ValueError, KeyError):
        raise ConfigError(f"data.params: bad value for {key!r}: {params[key]!r}") from None


def _flag(text: str) -> bool:
    """A `data.params` switch: true/false, 1/0 or yes/no, in any case."""
    return {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}[text.lower()]


def build_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Construct the (train, test) pair a config describes. A `data.params`
    value the generator or the split rejects is a ConfigError naming the key."""
    try:
        return _build_datasets(cfg)
    except InputError as exc:
        raise ConfigError(f"data.params: {exc}") from exc


def _build_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    p = cfg.data_params
    loader, params = _SOURCES[cfg.data_source]
    full = loader(*(_param(p, *row) for row in params))
    fraction, seed, scale = _COMMON_PARAMS
    train_set, test_set = split(full, _param(p, *fraction), _param(p, *seed))
    if _param(p, *scale):
        train_set, test_set, _ = normalize(train_set, test_set)
    return train_set, test_set


def input_files(cfg: ExperimentConfig) -> list[str]:
    """The files `build_datasets` reads for this config: its source's
    REQUIRED params; generated data reads none."""
    params = _SOURCES[cfg.data_source][1]
    return [cfg.data_params[key] for key, default in params if default is REQUIRED and key in cfg.data_params]


def resolve_train_config(cfg: ExperimentConfig, n_train: int) -> TrainConfig:
    """The config's TrainConfig for a training set of `n_train` rows: epochs
    convert to iterations here, and the spec constructors check the rules
    that need T."""
    train = cfg.train
    total = iterations_for(n_train, train.batch_size, train.epochs)
    return replace(train, schedule=replace(train.schedule, total_iterations=total))
