"""Cyclic-cosine SGD training with cycle-end snapshots and softmax-average ensembles."""

from .analysis import (
    CorrelationMatrix,
    InterpolationCurve,
    interpolate,
    mean_offdiagonal,
    softmax_correlation,
)
from .data import Dataset, gen_blobs, gen_spirals, gen_two_moons, load_csv, load_idx, normalize, save_csv, split
from .ensemble import (
    EnsembleResult,
    PredictionMatrix,
    ensemble_average,
    ensemble_eval,
    ensemble_sweep,
    error_over_time,
    predict,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    DivergenceError,
    FormatError,
    InputError,
    SnapensError,
    StorageError,
    UndefinedCorrelationError,
)
from .nn import Batch, ModelSpec, evaluate_error, forward, init_params, loss_and_grad, param_count, softmax
from .schedule import ScheduleSpec, cycle_end_iterations, lr_at
from .store import ManifestFile, SnapshotRecord, load_run, read_manifest, read_snapshot, write_manifest, write_snapshot
from .trainer import RunManifest, TrainConfig, config_digest, iterations_for, save_run, sgd_step, train

__all__ = [
    "Batch",
    "ConfigError",
    "ConsistencyError",
    "CorrelationMatrix",
    "Dataset",
    "DivergenceError",
    "EnsembleResult",
    "FormatError",
    "InputError",
    "InterpolationCurve",
    "ManifestFile",
    "ModelSpec",
    "PredictionMatrix",
    "RunManifest",
    "ScheduleSpec",
    "SnapensError",
    "SnapshotRecord",
    "StorageError",
    "TrainConfig",
    "UndefinedCorrelationError",
    "config_digest",
    "cycle_end_iterations",
    "ensemble_average",
    "ensemble_eval",
    "ensemble_sweep",
    "error_over_time",
    "evaluate_error",
    "forward",
    "gen_blobs",
    "gen_spirals",
    "gen_two_moons",
    "init_params",
    "interpolate",
    "iterations_for",
    "load_csv",
    "load_idx",
    "load_run",
    "loss_and_grad",
    "lr_at",
    "mean_offdiagonal",
    "normalize",
    "param_count",
    "predict",
    "read_manifest",
    "read_snapshot",
    "save_csv",
    "save_run",
    "sgd_step",
    "softmax",
    "softmax_correlation",
    "split",
    "train",
    "write_manifest",
    "write_snapshot",
]

__version__ = "0.1.0"
