"""Command-line front end.

Subcommands: gen-data, train, ensemble, curve, interpolate, correlate, sweep.
Exit codes: 0 success, 2 usage/config/input errors, 3 numerical divergence,
4 I/O and file-format errors. Every emitted CSV carries a header row.
"""
from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from collections import namedtuple
from functools import partial

import numpy as np

from .analysis import default_lambda_grid, interpolate, softmax_correlation
from .data import GENERATORS, load_csv, save_csv
from .ensemble import ORDERS, ensemble_eval, ensemble_sweep, error_over_time, predict
from .errors import (
    ConfigError,
    ConsistencyError,
    DivergenceError,
    FormatError,
    InputError,
    StorageError,
    UndefinedCorrelationError,
)
from .nn import check_labels, param_count
from .store import load_run, write_atomically


# `config` and `trainer` load on first use, so only `train` and `sweep` import
# them. The benchmark tracer patches these three names on this module, so the
# commands call them through it.
def parse_config(path):
    from .config import parse_config

    return parse_config(path)


def build_datasets(cfg):
    from .config import build_datasets

    return build_datasets(cfg)


def train(config, train_set, others=(), out_dirs=None, stack=()):
    """Train `config` and the configs in `others`, which share its trajectory,
    in one SGD loop with the groups in `stack`, each a (configs, train set,
    out_dirs) triple: `trainer.train_stack`'s result, `config`'s group first.
    With `out_dirs`, one per config, each run stages its snapshots in its
    directory as it takes them."""
    from .trainer import train_stack

    return train_stack([([config, *others], train_set, out_dirs), *stack])


def _write_rows(out, header, rows):
    """Write CSV rows to stdout when out is None, else atomically to the file out."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    if out is None:
        sys.stdout.write(text.getvalue())
    else:
        write_atomically(out, (text.getvalue().encode(),), "CSV")


def _fmt(value) -> str:
    return repr(float(value))


def cmd_gen_data(args) -> int:
    generator, params = GENERATORS[args.source]
    dataset = generator(*(getattr(args, name) for name, _ in params))
    save_csv(dataset, args.out)
    print(f"wrote {len(dataset)} examples to {args.out}")
    return 0


# One config to run: its file, its output directory, its resolved TrainConfig and its split.
Experiment = namedtuple("Experiment", "path out_dir config train_set test_set")


def load_experiment(path, cfg, built):
    """The Experiment of the parsed config `cfg` read from `path`.

    Its split comes from `built`, keyed by data.source and data.params, and
    is built into it when missing, so configs with the same data share one
    split. Every check a run makes before its first step runs here, and each
    failure names the config file: the data.params values, whether the data
    files can be read (exit 4), whether the cycles or snapshots fit T, and
    the feature count and the labels of both splits against the model
    (naming the data file too).
    """
    from .config import input_files, resolve_train_config

    key = (cfg.data_source, tuple(sorted(cfg.data_params.items())))
    try:
        if key not in built:
            built[key] = build_datasets(cfg)
        train_set, test_set = built[key]
        config = resolve_train_config(cfg, len(train_set))
        files = input_files(cfg)
        features, inputs = train_set.inputs.shape[1], config.model.layer_sizes[0]
        if features != inputs:
            message = f"the data has {features} features, but model.layers takes {inputs} inputs"
            raise ConfigError(": ".join([*files[:1], message]))
        try:
            for split in (train_set, test_set):
                check_labels(config.model, split.labels)
        except InputError as exc:
            raise ConfigError(": ".join([*files[-1:], str(exc)])) from None
    except (ConfigError, InputError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except (FormatError, OSError) as exc:
        raise StorageError(f"{path}: {exc}") from exc
    return Experiment(path, cfg.output_dir, config, train_set, test_set)


def run_experiment(stack, workers=1, write_split=None):
    """Train a stack of groups of Experiments in one SGD loop
    (`trainer.train_stack`), then save each experiment's run directory with
    its split, in config order (by path, as `sweep` orders its configs).
    The experiments of a group share one training split and one
    `trainer.trajectory_key`, and all groups share the layer sizes, batch
    size, split length and epochs.

    A generator: it trains on the first `next` and yields each
    (experiment, run manifest, path of the saved `run.manifest`) once that
    directory is saved, so an error while saving stops at that experiment.
    A group that failed raises its error at its first experiment, and so do
    the groups the loop ended after it. Training stages each snapshot as it
    is taken, and a writer stages each split with `write_split` (default
    `save_csv`): with `workers` > 1 on a second share of
    `pool.run_shares`, in a child on another CPU, while this process trains;
    else here after training. `store.save_run` places the splits, or raises
    the error the writer met. An error, or a close before every directory is
    saved, removes the staged files (see `store.staging`).
    """
    from .pool import run_shares
    from .store import SPLIT_NAMES, save_run, staged_path, staging

    write_split = write_split or save_csv
    members = sorted((e for group in stack for e in group), key=lambda e: e.path)
    dirs = {e.path: e.out_dir for e in members}
    groups = [
        ([e.config for e in group], group[0].train_set, [dirs[e.path] for e in group]) for group in stack
    ]
    (configs, train_set, out_dirs), *later = groups
    run = partial(train, configs[0], train_set, configs[1:], out_dirs, later)
    staged = {e.path: [staged_path(dirs[e.path], name) for name in SPLIT_NAMES] for e in members}
    writes = [
        (path, partial(write_split, split, path))
        for e in members
        for path, split in zip(staged[e.path], (e.train_set, e.test_set))
    ]
    outcomes = {}  # None -> the groups' runs; staged split path -> None once written, or the error met
    with staging(list(dirs.values())):
        shares = [[(None, run)], writes] if workers > 1 else [[(None, run), *writes]]
        run_shares(shares, outcomes.__setitem__, "train")
        if isinstance(outcomes[None], BaseException):
            raise outcomes[None]
        # each group's runs, up to the first group that failed, whose entry is its error
        results = outcomes[None]
        runs = {e.path: run for group, result in zip(stack, results) if isinstance(result, list)
                for e, run in zip(group, result)}
        for experiment in members:
            if experiment.path not in runs:
                raise results[-1]
            manifest = runs[experiment.path]
            splits = [outcomes.get(path) for path in staged[experiment.path]]
            manifest_path = save_run(manifest, dirs[experiment.path], splits)
            yield experiment, manifest, manifest_path


def _split_writer(experiments):
    """A `write_split` for `run_experiment`s that write the splits of
    `experiments` in one process: each distinct split (one built object) is
    rendered once, and its bytes are dropped after its last write."""
    from collections import Counter

    from .data import csv_chunks

    left = Counter(id(split) for e in experiments for split in (e.train_set, e.test_set))
    rendered = {}

    def write(split, path):
        key = id(split)
        if key not in rendered:
            rendered[key] = b"".join(csv_chunks(split))
        left[key] -= 1
        write_atomically(path, (rendered[key] if left[key] else rendered.pop(key),), "CSV")

    return write


def cmd_train(args) -> int:
    from .pool import worker_count

    experiment = load_experiment(args.config, parse_config(args.config), {})
    _, manifest, manifest_path = next(run_experiment([[experiment]], worker_count(2)))
    print(f"run complete: {len(manifest.snapshots)} snapshots in {experiment.out_dir}")
    print(f"manifest: {manifest_path}")
    return 0


def _load_eval_inputs(args):
    """The snapshots `--manifest` names, each header and payload length
    checked but no payload read, and the dataset in `--data`, whose feature
    count must be the snapshots' input size."""
    records, dataset = load_run(args.manifest), load_csv(args.data)
    expected = records[0].spec.layer_sizes[0]
    if dataset.inputs.shape[1] != expected:
        raise InputError(
            f"{args.data}: {dataset.inputs.shape[1]} feature columns, "
            f"but the snapshots take {expected} inputs"
        )
    try:
        check_labels(records[0].spec, dataset.labels)
    except InputError as exc:
        raise InputError(f"{args.data}: {exc}") from None
    return records, dataset


def cmd_ensemble(args) -> int:
    records, dataset = _load_eval_inputs(args)
    if args.m is not None:
        result = ensemble_eval(records, dataset, args.m, args.order)
        header = ["m", "ensemble_error"] + [
            f"member_error_{i}" for i in range(1, result.m + 1)
        ]
        rows = [[result.m, _fmt(result.ensemble_error)] + [_fmt(e) for e in result.member_errors]]
    else:
        header = ["m", "ensemble_error"]
        errors = ensemble_sweep(records, dataset, args.order)
        rows = [[m, _fmt(error)] for m, error in enumerate(errors, start=1)]
    _write_rows(args.out, header, rows)
    return 0


def cmd_curve(args) -> int:
    records, dataset = _load_eval_inputs(args)
    rows = [
        [k, _fmt(single), _fmt(ensembled)]
        for k, single, ensembled in error_over_time(records, dataset)
    ]
    _write_rows(args.out, ["k", "single_error", "ensemble_error"], rows)
    return 0


def _check_snapshot_index(i: int, count: int) -> None:
    if not 1 <= i <= count:
        raise InputError(f"snapshot index {i} outside valid range [1, {count}]")


# `interpolate` splits its grid over forked workers only when its serial
# forward work, (pairs x points) passes x rows x parameters, is above this.
# On a 2-vCPU host a fork, the pinned child's first 6,000-row 2-64-64-2
# forward pass (1.8 ms warm), its exit and the collect took 4.4 ms. Whole
# `--against-final` commands on a 1,000-row, 6-snapshot run of that net ran
# as fast split as serial at 5 points (1.1e8) and 3.5 % faster at 9 (2.0e8).
FORK_MIN_WORK = 2e8


def _curve_tasks(records, dataset, pairs, grid):
    """One task per pair that returns its InterpolationCurve on `grid`. The
    tasks share one memo of each snapshot's error, so run in order they
    score each snapshot at most once. A task reads the parameters of its
    pair's second snapshot, and of its first unless the task before it had
    the same first one, as every `--against-final` pair does: so each
    snapshot is read once and at most one pair is held."""
    scored = {}  # snapshot index -> its test error
    held = {}  # index -> parameters of the last task's first snapshot

    def curve_of(i, j):
        if i not in held:
            held.clear()
            held[i] = records[i - 1].params
        curve = interpolate(
            records[i - 1].spec,
            held[i],
            held[i] if j == i else records[j - 1].params,
            dataset,
            grid,
            scored.get(i),
            scored.get(j),
        )
        if grid[-1] == 1.0:
            scored[i] = curve.errors[-1]
        if grid[0] == 0.0:
            scored[j] = curve.errors[0]
        return curve

    return [partial(curve_of, i, j) for i, j in pairs]


def _split_curves(records, dataset, pairs, grid, paths, workers):
    """Each pair's errors on `grid`, in pair order, computed by `workers`
    processes: worker w runs every pair on grid[w::workers]. Share 0 holds
    every lambda = 0 point and share (len(grid) - 1) % workers every
    lambda = 1 point, so each snapshot is still scored once. An error stops
    the curves at the first pair it hit, as in a serial run."""
    from .pool import run_shares

    parts = {path: [] for path in paths}
    shares = [
        list(zip(paths, _curve_tasks(records, dataset, pairs, grid[w::workers])))
        for w in range(workers)
    ]
    run_shares(shares, lambda path, outcome: parts[path].append(outcome), "interpolate")
    for path in paths:
        errors = np.empty_like(grid)
        for part in parts[path]:  # share order, so share 0's error comes first
            if isinstance(part, BaseException):
                raise part
            errors[np.searchsorted(grid, part.lambdas)] = part.errors
        yield errors


def cmd_interpolate(args) -> int:
    records, dataset = _load_eval_inputs(args)
    count = len(records)
    if args.pair is not None:
        pairs = [(args.pair[0], args.pair[1])]
    else:
        pairs = [(count, k) for k in range(1, count)]
        if not pairs:
            raise InputError("--against-final needs a run with at least two snapshots")
    grid = default_lambda_grid(args.points)
    for i, j in pairs:
        _check_snapshot_index(i, count)
        _check_snapshot_index(j, count)
    os.makedirs(args.out, exist_ok=True)
    paths = [os.path.join(args.out, f"interp_{i:03d}_{j:03d}.csv") for i, j in pairs]
    workers = 1
    if len(pairs) * len(grid) * len(dataset) * param_count(records[0].spec) > FORK_MIN_WORK:
        from .pool import worker_count

        workers = worker_count(len(grid))
    if workers > 1:
        curves = _split_curves(records, dataset, pairs, grid, paths, workers)
    else:
        curves = (task().errors for task in _curve_tasks(records, dataset, pairs, grid))
    for path, errors in zip(paths, curves):
        _write_rows(
            path,
            ["lambda", "test_error"],
            [[_fmt(lam), _fmt(err)] for lam, err in zip(grid, errors)],
        )
    print(f"wrote {len(pairs)} interpolation curve(s) to {args.out}")
    return 0


def cmd_correlate(args) -> int:
    records, dataset = _load_eval_inputs(args)
    predictions = [
        predict(r.spec, r.params, dataset, source=f"snapshot_{r.cycle_index}") for r in records
    ]
    matrix = softmax_correlation(predictions)
    count = matrix.values.shape[0]
    os.makedirs(args.out, exist_ok=True)
    _write_rows(
        os.path.join(args.out, "corr_triples.csv"),
        ["i", "j", "corr"],
        [
            [i + 1, j + 1, _fmt(matrix.values[i, j])]
            for i in range(count)
            for j in range(count)
        ],
    )
    _write_rows(
        os.path.join(args.out, "corr_matrix.csv"),
        [f"s{j + 1}" for j in range(count)],
        [[_fmt(v) for v in row] for row in matrix.values],
    )
    print(f"wrote correlation files to {args.out}")
    return 0


def _sweep_row(path, saved):
    """Finish one sweep config: take its saved run from `saved`, its group's
    `run_experiment`, and score its whole snapshot ensemble as read back from
    disk: its summary row."""
    experiment, _, manifest_path = next(saved)
    records = load_run(manifest_path)
    m = len(records)
    result = ensemble_eval(records, experiment.test_set, m, "latest")
    name = os.path.splitext(os.path.basename(path))[0]
    return [name, experiment.config.mode, experiment.config.epochs, m, result.ensemble_error]


def _closing_on_error(task, runs):
    """task(), but if it raises, first close every `run_experiment` in `runs`,
    which removes the staged files of their configs not yet saved. A share
    stops at its first error, and a forked worker then ends through os._exit,
    which would leave the rest of its share's generators open."""
    try:
        return task()
    except BaseException:
        for run in runs:
            run.close()
        raise


def cmd_sweep(args) -> int:
    # only this command, `train` and a large `interpolate` compile the worker code
    from .pool import run_shares, worker_count
    from .sweep import group_experiments, stack_groups, sweep_configs

    configs = sweep_configs(args.config_dir, parse_config)
    built = {}  # each distinct split, held for the whole sweep
    experiments = [load_experiment(path, cfg, built) for path, cfg in configs]
    paths = [e.path for e in experiments]
    groups = group_experiments(experiments)
    outcomes, rows = {}, []

    def report(path, outcome):
        """Keep an outcome (a row list or an exception) and print every row
        that is now complete in config order."""
        outcomes[path] = outcome
        while len(rows) < len(paths) and isinstance(outcomes.get(paths[len(rows)]), list):
            name, mode, epochs, m, error = outcomes[paths[len(rows)]]
            print(f"{name}: mode={mode} snapshots={m} ensemble_error={error:.4f}")
            rows.append([name, mode, epochs, m, _fmt(error)])

    # With n workers, worker w trains groups w, w + n, w + 2n, ..., stacked
    # into as few SGD loops as `stack_groups` allows, and finishes their
    # configs in config order, so a share that stops at an error leaves only
    # configs after it.
    workers = worker_count(len(groups))
    shares = []
    for w in range(workers):
        mine = groups[w::workers]
        write_split = _split_writer([e for group in mine for e in group])
        tasks, runs = {}, []
        for stack in stack_groups(mine):
            runs.append(run_experiment(stack, write_split=write_split))
            tasks.update((e.path, partial(_sweep_row, e.path, runs[-1])) for group in stack for e in group)
        shares.append([(path, partial(_closing_on_error, tasks[path], runs)) for path in paths if path in tasks])
    run_shares(shares, report, "sweep")
    if len(rows) < len(paths):
        raise outcomes[paths[len(rows)]]
    _write_rows(args.summary, ["config", "mode", "epochs", "m", "ensemble_error"], rows)
    print(f"summary: {args.summary}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snapens",
        description="Train small dense nets with cyclic cosine restarts and ensemble the cycle-end snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    p.add_argument("--source", required=True, choices=tuple(GENERATORS))
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--turns", type=float, default=2.0, help="spiral revolutions")
    p.add_argument("--classes", type=int, default=3, help="blob cluster count")
    p.add_argument("--spread", type=float, default=0.5, help="blob cluster sigma")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run one training config into its output directory")
    p.add_argument("config")
    p.set_defaults(func=cmd_train)

    eval_inputs = argparse.ArgumentParser(add_help=False)
    eval_inputs.add_argument("--manifest", required=True)
    eval_inputs.add_argument("--data", required=True, help="evaluation dataset CSV")

    p = sub.add_parser(
        "ensemble", parents=[eval_inputs], help="ensemble error for one m or a sweep over m"
    )
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--order", choices=ORDERS, default="latest")
    p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser(
        "curve", parents=[eval_inputs], help="single vs growing-ensemble error over snapshots"
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser(
        "interpolate", parents=[eval_inputs], help="test error along lines between snapshots"
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pair", nargs=2, type=int, metavar=("I", "J"))
    group.add_argument("--against-final", action="store_true")
    p.add_argument("--points", type=int, default=51)
    p.add_argument("--out", required=True, help="output directory for curve CSVs")
    p.set_defaults(func=cmd_interpolate)

    p = sub.add_parser(
        "correlate", parents=[eval_inputs], help="pairwise softmax correlation between snapshots"
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("sweep", help="run every .cfg in a directory and join the results")
    p.add_argument("config_dir")
    p.add_argument("--summary", default="summary.csv")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InputError, UndefinedCorrelationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FormatError, ConsistencyError, StorageError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
