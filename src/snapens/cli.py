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


def train(config, train_set, others=(), out_dirs=None):
    """Train `config` and the configs in `others`, which share its trajectory,
    in one SGD loop: their runs, `config`'s first. With `out_dirs`, one per
    config, each run stages its snapshots in its directory as it takes them."""
    from .trainer import train_group

    return train_group([config, *others], train_set, out_dirs)


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


# One config to run: its file, its parsed and resolved configs and its split.
Experiment = namedtuple("Experiment", "path cfg config train_set test_set")


def load_experiment(path, cfg, built):
    """The Experiment of the parsed config `cfg` read from `path`.

    Its split comes from `built`, keyed by data.source and data.params, and
    is built into it when missing, so configs with the same data share one
    split. Every check a run makes before its first step runs here, and each
    failure names the config file: the data.params values, the labels of
    both splits against the model's class count (naming the data file too)
    and whether the snapshots fit T.
    """
    from .config import input_files, resolve_train_config
    from .trainer import snapshot_iterations

    key = (cfg.data_source, tuple(sorted(cfg.data_params.items())))
    try:
        if key not in built:
            built[key] = build_datasets(cfg)
        train_set, test_set = built[key]
        config = resolve_train_config(cfg, len(train_set))
        try:
            for split in (train_set, test_set):
                check_labels(config.model, split.labels)
        except InputError as exc:
            raise ConfigError(": ".join([*input_files(cfg)[-1:], str(exc)])) from None
        snapshot_iterations(config)
    except (ConfigError, InputError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return Experiment(path, cfg, config, train_set, test_set)


def _place_splits(paths, outcomes):
    """Rename each split in `paths` from its staged name into place, in
    order, or raise the error its writer met instead."""
    from .trainer import STAGED_SUFFIX

    for path in paths:
        if isinstance(outcomes.get(path), BaseException):
            raise outcomes[path]
        try:
            os.replace(path + STAGED_SUFFIX, path)
        except OSError as exc:
            raise StorageError(f"cannot write CSV {path}: {exc}") from exc


def run_experiment(group, workers=1):
    """Train a group of Experiments that share one training split and one
    `trainer.trajectory_key` in one SGD loop, then save each one's run
    directory with its split, in group order.

    A generator: it trains on the first `next` and yields each experiment's
    (cfg, run manifest, test set, path of the saved `run.manifest`) once that
    directory is saved, so an error while saving stops at that experiment.
    Training stages each snapshot in its run directory as it is taken, and
    a writer stages each split there (`save_csv` to `train.csv.staged` and
    `test.csv.staged`). With `workers` > 1 the writer runs on a second share
    of `pool.run_shares`, in a child on another CPU, while this process
    trains; else it runs here after training. `save_run` renames the staged
    splits into place after `loss.csv`, and raises there the first error the
    writer met. An error, or a close before every directory is saved,
    removes the staged files (see `trainer.staging`).
    """
    from .pool import run_shares
    from .trainer import SPLIT_NAMES, STAGED_SUFFIX, save_run, staging

    first, *rest = group
    out_dirs = [e.cfg.output_dir for e in group]
    paths = [[os.path.join(out, name) for name in SPLIT_NAMES] for out in out_dirs]
    training = [(None, partial(train, first.config, first.train_set, [e.config for e in rest], out_dirs))]
    writes = [
        (path, partial(save_csv, split, path + STAGED_SUFFIX))
        for e, split_paths in zip(group, paths)
        for path, split in zip(split_paths, (e.train_set, e.test_set))
    ]
    outcomes = {}  # None -> the runs; split path -> None once staged; or the error met
    with staging(out_dirs):
        shares = [training, writes] if workers > 1 else [training + writes]
        run_shares(shares, outcomes.__setitem__, "train")
        if isinstance(outcomes[None], BaseException):
            raise outcomes[None]
        for experiment, manifest, split_paths in zip(group, outcomes[None], paths):
            place = partial(_place_splits, split_paths, outcomes)
            manifest_path = save_run(manifest, experiment.cfg.output_dir, place)
            yield experiment.cfg, manifest, experiment.test_set, manifest_path


def cmd_train(args) -> int:
    from .pool import worker_count

    experiment = load_experiment(args.config, parse_config(args.config), {})
    cfg, manifest, _, manifest_path = next(run_experiment([experiment], worker_count(2)))
    print(f"run complete: {len(manifest.snapshots)} snapshots in {cfg.output_dir}")
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
    cfg, _, test_set, manifest_path = next(saved)
    records = load_run(manifest_path)
    m = len(records)
    result = ensemble_eval(records, test_set, m, "latest")
    name = os.path.splitext(os.path.basename(path))[0]
    return [name, cfg.mode, cfg.epochs, m, result.ensemble_error]


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
    from .sweep import group_experiments, sweep_configs

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

    # With n workers, worker w trains groups w, w + n, w + 2n, ... and
    # finishes their configs in config order, so a share that stops at an
    # error leaves only configs after it.
    workers = worker_count(len(groups))
    shares = []
    for w in range(workers):
        tasks, runs = {}, []
        for group in groups[w::workers]:
            runs.append(run_experiment(group))
            tasks.update((e.path, partial(_sweep_row, e.path, runs[-1])) for e in group)
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
