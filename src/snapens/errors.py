"""Exception hierarchy shared by all snapens modules."""


class SnapensError(Exception):
    """Base class for every error raised by this package."""


class InputError(SnapensError):
    """Invalid argument: bad dimensions, out-of-range value, empty input."""


class ConfigError(SnapensError):
    """Invalid training configuration or config file; message names the key."""


class FormatError(SnapensError):
    """Malformed snapshot, manifest, CSV or IDX file; message names the field."""


class ConsistencyError(SnapensError):
    """A manifest references a snapshot file that does not exist."""


class StorageError(SnapensError):
    """I/O failure while reading or writing an artifact; message carries the path."""


class DivergenceError(SnapensError):
    """Training loss, or the parameters at a snapshot, became non-finite."""

    def __init__(self, iteration: int):
        super().__init__(f"diverged at iteration {iteration}")
        self.iteration = iteration

    def __reduce__(self):
        return type(self), (self.iteration,)


class UndefinedCorrelationError(SnapensError):
    """Pearson correlation undefined: a flattened prediction vector has zero variance."""
