"""Cyclic-cosine SGD training with cycle-end snapshots and softmax-average ensembles.

The package imports lazily (PEP 562): `import snapens` loads no submodule, and
each public name, or one of the modules below, is imported on first access.
So `python -m snapens` loads only what its subcommand runs, since every module
a process imports costs it start-up time.
"""
import importlib

# Public names by the module that defines them.
_EXPORTS = {
    "analysis": (
        "CorrelationMatrix",
        "InterpolationCurve",
        "interpolate",
        "mean_offdiagonal",
        "softmax_correlation",
    ),
    "data": (
        "Dataset",
        "gen_blobs",
        "gen_spirals",
        "gen_two_moons",
        "load_csv",
        "load_idx",
        "normalize",
        "save_csv",
        "split",
    ),
    "ensemble": (
        "EnsembleResult",
        "PredictionMatrix",
        "ensemble_average",
        "ensemble_eval",
        "ensemble_sweep",
        "error_over_time",
        "predict",
    ),
    "errors": (
        "ConfigError",
        "ConsistencyError",
        "DivergenceError",
        "FormatError",
        "InputError",
        "SnapensError",
        "StorageError",
        "UndefinedCorrelationError",
    ),
    "nn": (
        "Batch",
        "ModelSpec",
        "evaluate_error",
        "forward",
        "init_params",
        "loss_and_grad",
        "param_count",
        "softmax",
    ),
    "schedule": ("ScheduleSpec", "cycle_end_iterations", "lr_at"),
    "store": (
        "ManifestFile",
        "SnapshotRecord",
        "StoredSnapshot",
        "load_run",
        "read_header",
        "read_manifest",
        "read_snapshot",
        "write_manifest",
        "write_snapshot",
    ),
    "trainer": (
        "RunManifest",
        "TrainConfig",
        "config_digest",
        "iterations_for",
        "save_run",
        "sgd_step",
        "train",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    """Import a public name from its module, or one of those modules, on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
