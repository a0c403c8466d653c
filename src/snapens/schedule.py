"""Per-iteration learning-rate schedules: cyclic shifted cosine and step.

Iterations are 1-based. The cyclic schedule anneals from alpha0 to ~0 over
each cycle of L = ceil(T / M) iterations and restarts abruptly at alpha0:

    lr(t) = alpha0 / 2 * (cos(pi * mod(t - 1, L) / L) + 1)

The step schedule multiplies alpha0 by each configured factor once the
corresponding fraction of the run has strictly passed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError

KINDS = ("cyclic_cosine", "step")

DEFAULT_STEP_FRACTIONS = ((0.5, 0.1), (0.75, 0.1))


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str
    alpha0: float
    total_iterations: int
    cycles: int | None = None
    step_fractions: tuple[tuple[float, float], ...] = DEFAULT_STEP_FRACTIONS

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"schedule kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 < self.alpha0 < math.inf:
            raise InputError("alpha0 must be finite and > 0")
        if self.total_iterations < 1:
            raise InputError("total_iterations must be >= 1")
        if self.kind == "cyclic_cosine":
            if self.cycles is None or self.cycles < 1:
                raise InputError("cyclic_cosine needs cycles >= 1")
            if self.cycles > self.total_iterations:
                raise InputError("cycles must not exceed total_iterations")
        if self.kind == "step":
            fracs = tuple((float(f), float(m)) for f, m in self.step_fractions)
            object.__setattr__(self, "step_fractions", fracs)
            boundaries = [f for f, _ in fracs]
            if any(not 0.0 < f <= 1.0 for f in boundaries):
                raise InputError("step fractions must lie in (0, 1]")
            if any(b >= a for b, a in zip(boundaries, boundaries[1:])):
                raise InputError("step fractions must be strictly increasing")

    @property
    def cycle_length(self) -> int:
        if self.kind != "cyclic_cosine":
            raise InputError("cycle_length is defined only for cyclic_cosine schedules")
        return math.ceil(self.total_iterations / self.cycles)


def _check_iteration(spec: ScheduleSpec, t: int) -> None:
    if not 1 <= t <= spec.total_iterations:
        raise InputError(
            f"iteration {t} outside valid range [1, {spec.total_iterations}]"
        )


def lr_at(spec: ScheduleSpec, t: int) -> float:
    """Learning rate at iteration t (1-based)."""
    _check_iteration(spec, t)
    if spec.kind == "cyclic_cosine":
        cycle_len = spec.cycle_length
        return spec.alpha0 / 2.0 * (math.cos(math.pi * ((t - 1) % cycle_len) / cycle_len) + 1.0)
    lr = spec.alpha0
    for fraction, multiplier in spec.step_fractions:
        if t > math.floor(fraction * spec.total_iterations):
            lr *= multiplier
    return lr


def cycle_end_iterations(spec: ScheduleSpec) -> tuple[int, ...]:
    """All iterations in [1, T] at which a cycle ends, in order; a final partial cycle counts."""
    if spec.kind != "cyclic_cosine":
        raise InputError("cycle_end_iterations requires a cyclic_cosine schedule")
    cycle_len = spec.cycle_length
    total = spec.total_iterations
    ends = list(range(cycle_len, total + 1, cycle_len))
    if total % cycle_len != 0:
        ends.append(total)
    return tuple(ends)
