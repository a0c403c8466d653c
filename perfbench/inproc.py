"""Run snapens CLI commands in one process, optionally tracing its layers.

Usage: python perfbench/inproc.py SPEC.json

SPEC names the source directory, the working directory, the commands (each a
label and an argv for `snapens.cli.main`), whether to trace and where to
write the spans. The last stdout line is a JSON object with each command's
exit code and wall time and, when traced, per-function and per-command
counters. The benchmark starts this file in a child process, so the BLAS
thread count set in that child's environment governs the in-process run.

Tracing replaces public functions in the modules that call them with
wrappers. A span wrapper records (name, start, end, parent) and adds its
duration, minus that of the wrapped calls inside it, to the function's self
time. A count wrapper only counts: lr_at and derive_seed take less time than
a span wrapper adds, so the benchmark times them in a loop instead.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

# (module that calls the function, attribute, span name, size of one call)
# The size is what per-unit metrics divide by: rows, bytes, points or
# iterations. A size of None means the call only counts as 1.
SPANS = [
    ("cli", "parse_config", "config.parse_config", None),
    ("cli", "build_datasets", "config.build_datasets", None),
    ("cli", "train", "trainer.train", lambda a, r: a[0].schedule.total_iterations),
    ("cli", "save_csv", "data.save_csv", lambda a, r: a[0].inputs.shape[0]),
    ("cli", "load_csv", "data.load_csv", lambda a, r: r.inputs.shape[0]),
    ("cli", "ensemble_eval", "ensemble.ensemble_eval", None),
    ("cli", "error_over_time", "ensemble.error_over_time", None),
    ("cli", "predict", "ensemble.predict", None),
    ("cli", "interpolate", "analysis.interpolate", lambda a, r: len(r.lambdas)),
    ("cli", "softmax_correlation", "analysis.softmax_correlation", None),
    ("config", "load_csv", "data.load_csv", lambda a, r: r.inputs.shape[0]),
    ("config", "load_idx", "data.load_idx", None),
    ("trainer", "init_params", "trainer.init_params", None),
    ("trainer", "loss_and_grad", "nn.loss_and_grad", None),
    ("trainer", "sgd_step", "trainer.sgd_step", None),
    ("trainer", "write_snapshot", "store.write_snapshot", lambda a, r: os.path.getsize(a[1])),
    ("store", "read_snapshot", "store.read_snapshot", lambda a, r: os.path.getsize(a[0])),
    ("ensemble", "predict", "ensemble.predict", None),
    ("ensemble", "forward", "nn.forward", lambda a, r: r.shape[0]),
    ("analysis", "evaluate_error", "nn.evaluate_error", None),
]
COUNTS = [
    ("trainer", "lr_at", "schedule.lr_at"),
    ("trainer", "derive_seed", "trainer.derive_seed"),
]


class Tracer:
    """In-memory spans and per-name counters for one run of commands."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.stats = {}  # name -> [calls, self seconds, size]
        self.command_calls = {}  # command label -> {name: calls}
        self._stack = []  # [span index, seconds spent in wrapped callees]
        self._command = None

    def _count(self, name, size):
        entry = self.stats.setdefault(name, [0, 0.0, 0])
        entry[0] += 1
        entry[2] += size
        per_command = self.command_calls.setdefault(self._command, {})
        per_command[name] = per_command.get(name, 0) + 1
        return entry

    def span(self, name, fn, size_of):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[frame[0]] = (name, start, end, parent)
                if self._stack:
                    self._stack[-1][1] += end - start
            entry = self._count(name, 1 if size_of is None else size_of(args, result))
            entry[1] += end - start - frame[1]
            return result

        return wrapper

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self._count(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, modules):
        for module, attr, name, size_of in SPANS:
            setattr(modules[module], attr, self.span(name, getattr(modules[module], attr), size_of))
        for module, attr, name in COUNTS:
            setattr(modules[module], attr, self.counter(name, getattr(modules[module], attr)))

    def run_command(self, label, run):
        self._command = label
        try:
            return run()
        finally:
            self._command = None


def _run_one(cli, argv):
    """Exit code of one CLI command, with its stdout kept apart from ours."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed command, not a failed benchmark
        traceback.print_exc()
        return 1


def _per_call_us(fn, args_list, repeats=5):
    """Median over repeats of the mean time of fn(*args) over args_list, in µs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        times.append((time.perf_counter() - start) / len(args_list) * 1e6)
    return sorted(times)[len(times) // 2]


def time_loops(snapens, idx_pair):
    """Per-call times of functions too short to trace, on fixed inputs."""
    schedule = snapens.schedule.ScheduleSpec("cyclic_cosine", 0.2, 1920, 6)
    loops = {
        "schedule.lr_at": _per_call_us(
            snapens.schedule.lr_at, [(schedule, t) for t in range(1, 1921)]
        ),
        "trainer.derive_seed": _per_call_us(
            snapens.trainer.derive_seed, [(1, "dropout", t) for t in range(1, 1921)]
        ),
    }
    if idx_pair:
        loops["data.load_idx"] = _per_call_us(snapens.data.load_idx, [tuple(idx_pair)]) / 1e3
    return loops


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import snapens.analysis
    import snapens.cli
    import snapens.config
    import snapens.ensemble
    import snapens.store
    import snapens.trainer

    modules = {
        "cli": snapens.cli,
        "config": snapens.config,
        "trainer": snapens.trainer,
        "store": snapens.store,
        "ensemble": snapens.ensemble,
        "analysis": snapens.analysis,
    }
    tracer = Tracer()
    loops = time_loops(snapens, spec["idx_probe"])  # in both passes, so they differ only in tracing
    if spec["traced"]:
        tracer.install(modules)
    os.chdir(spec["cwd"])
    codes, walls = [], []
    for label, argv in spec["commands"]:
        start = time.perf_counter()
        codes.append(tracer.run_command(label, lambda: _run_one(snapens.cli, argv)))
        walls.append(time.perf_counter() - start)
    if spec["spans_out"]:
        with open(spec["spans_out"], "w", encoding="utf-8") as fh:
            for name, start, end, parent in tracer.spans:
                fh.write(f'{{"name":"{name}","start":{start!r},"end":{end!r},"parent":{parent}}}\n')
    print(
        json.dumps(
            {
                "codes": codes,
                "wall_s": walls,
                "stats": tracer.stats,
                "command_calls": tracer.command_calls,
                "loops": loops,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
