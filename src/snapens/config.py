"""Experiment config files: UTF-8 `key = value` lines with `#` comments.

One config file describes one experiment: the model, the schedule, the
training mode and budget, the data source and the output directory. Unknown
keys are rejected. `train.mode` fixes the schedule kind, so `schedule.kind`
is optional and, when given, must match it. In nocycle mode `schedule.cycles`
gives the snapshot count, mirroring the cycle count of the cyclic runs it is
compared against.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .data import GENERATORS, Dataset, load_csv, load_idx, normalize, split
from .errors import ConfigError
from .nn import ModelSpec
from .schedule import DEFAULT_STEP_FRACTIONS, ScheduleSpec
from .trainer import MODE_SCHEDULE, TrainConfig, iterations_for

KNOWN_KEYS = frozenset(
    {
        "model.layers",
        "model.dropout",
        "schedule.kind",
        "schedule.alpha0",
        "schedule.cycles",
        "schedule.step_fractions",
        "train.mode",
        "train.epochs",
        "train.batch_size",
        "train.momentum",
        "train.weight_decay",
        "train.seed",
        "data.source",
        "data.params",
        "output.dir",
    }
)

_REQUIRED_KEYS = (
    "model.layers",
    "schedule.alpha0",
    "train.mode",
    "train.epochs",
    "train.batch_size",
    "train.seed",
    "data.source",
    "output.dir",
)

_SOURCE_PARAMS = {
    **{source: {name for name, _ in params} for source, (_, params) in GENERATORS.items()},
    "csv": {"path", "label"},
    "idx": {"images", "labels"},
}
_COMMON_PARAMS = {"train_fraction", "split_seed", "normalize"}
_INPUT_FILE_PARAMS = {"csv": ("path",), "idx": ("images", "labels")}


@dataclass
class ExperimentConfig:
    model: ModelSpec
    alpha0: float
    cycles: int | None
    step_fractions: tuple[tuple[float, float], ...]
    mode: str
    epochs: int
    batch_size: int
    momentum: float
    weight_decay: float
    seed: int
    data_source: str
    data_params: dict[str, str] = field(default_factory=dict)
    output_dir: str = "run"


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


def _parse_int(values, key) -> int:
    try:
        return int(values[key])
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {values[key]!r}") from None


def _parse_float(values, key) -> float:
    try:
        return float(values[key])
    except ValueError:
        raise ConfigError(f"{key}: not a number: {values[key]!r}") from None


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
    allowed = _SOURCE_PARAMS[source] | _COMMON_PARAMS
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
    """Read and validate a config file; raises ConfigError naming any bad key."""
    values = _parse_kv_lines(path)
    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"{path}: missing required key {key!r}")

    try:
        layers = tuple(int(s) for s in values["model.layers"].split(","))
    except ValueError:
        raise ConfigError(f"model.layers: not a comma list of integers: {values['model.layers']!r}") from None
    dropout = _parse_float(values, "model.dropout") if "model.dropout" in values else 0.0
    try:
        model = ModelSpec(layers, "relu", dropout)
    except Exception as exc:
        raise ConfigError(f"model.layers/model.dropout: {exc}") from exc

    mode = values["train.mode"]
    if mode not in MODE_SCHEDULE:
        raise ConfigError(f"train.mode: unknown mode {mode!r}")
    kind = MODE_SCHEDULE[mode]
    if values.get("schedule.kind", kind) != kind:
        raise ConfigError(
            f"schedule.kind: mode {mode!r} requires {kind}, got {values['schedule.kind']!r}"
        )

    cycles = None
    if mode != "single":
        if "schedule.cycles" not in values:
            raise ConfigError(f"{path}: missing required key 'schedule.cycles' for mode {mode!r}")
        cycles = _parse_int(values, "schedule.cycles")
    elif "schedule.cycles" in values:
        raise ConfigError(f"schedule.cycles: not applicable to mode {mode!r}")

    fractions = DEFAULT_STEP_FRACTIONS
    if "schedule.step_fractions" in values:
        if kind != "step":
            raise ConfigError(f"schedule.step_fractions: not applicable to mode {mode!r}")
        fractions = _parse_step_fractions(values["schedule.step_fractions"])

    source = values["data.source"]
    if source not in _SOURCE_PARAMS:
        raise ConfigError(f"data.source: unknown source {source!r}")

    return ExperimentConfig(
        model=model,
        alpha0=_parse_float(values, "schedule.alpha0"),
        cycles=cycles,
        step_fractions=fractions,
        mode=mode,
        epochs=_parse_int(values, "train.epochs"),
        batch_size=_parse_int(values, "train.batch_size"),
        momentum=_parse_float(values, "train.momentum") if "train.momentum" in values else 0.9,
        weight_decay=(
            _parse_float(values, "train.weight_decay") if "train.weight_decay" in values else 0.0
        ),
        seed=_parse_int(values, "train.seed"),
        data_source=source,
        data_params=_parse_data_params(values.get("data.params", ""), source),
        output_dir=values["output.dir"],
    )


def _param(params: dict[str, str], key: str, default, convert):
    if key not in params:
        if default is None:
            raise ConfigError(f"data.params: missing required key {key!r}")
        return default
    try:
        return convert(params[key])
    except ValueError:
        raise ConfigError(f"data.params: bad value for {key!r}: {params[key]!r}") from None


def build_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Construct the (train, test) pair a config describes."""
    p = cfg.data_params
    source = cfg.data_source
    if source in GENERATORS:
        generator, defaults = GENERATORS[source]
        full = generator(*(_param(p, key, default, type(default)) for key, default in defaults))
    elif source == "csv":
        full = load_csv(_param(p, "path", None, str), _param(p, "label", "label", str))
    else:
        full = load_idx(_param(p, "images", None, str), _param(p, "labels", None, str))

    train_set, test_set = split(
        full, _param(p, "train_fraction", 0.5, float), _param(p, "split_seed", 0, int)
    )
    if _param(p, "normalize", "false", str).lower() in ("true", "1", "yes"):
        train_set, test_set, _ = normalize(train_set, test_set)
    return train_set, test_set


def input_files(cfg: ExperimentConfig) -> list[str]:
    """The files `build_datasets` reads for this config; generated data reads none."""
    return [
        cfg.data_params[key]
        for key in _INPUT_FILE_PARAMS.get(cfg.data_source, ())
        if key in cfg.data_params
    ]


def resolve_train_config(cfg: ExperimentConfig, n_train: int) -> TrainConfig:
    """Turn a parsed config plus the training-set size into a TrainConfig.

    Epochs convert to iterations here; the schedule is built with the exact T
    the trainer will execute.
    """
    kind = MODE_SCHEDULE[cfg.mode]
    schedule = ScheduleSpec(
        kind=kind,
        alpha0=cfg.alpha0,
        total_iterations=iterations_for(n_train, cfg.batch_size, cfg.epochs),
        cycles=cfg.cycles if kind == "cyclic_cosine" else None,
        step_fractions=cfg.step_fractions,
    )
    return TrainConfig(
        model=cfg.model,
        schedule=schedule,
        mode=cfg.mode,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        momentum=cfg.momentum,
        seed=cfg.seed,
        snapshot_count=cfg.cycles if cfg.mode == "nocycle" else None,
        weight_decay=cfg.weight_decay,
    )
