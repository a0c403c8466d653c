"""Command-line front end.

Subcommands: gen-data, train, ensemble, curve, interpolate, correlate, sweep.
Exit codes: 0 success, 2 usage/config/input errors, 3 numerical divergence,
4 I/O and file-format errors. Every emitted CSV carries a header row.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys

from .analysis import default_lambda_grid, interpolate, softmax_correlation
from .config import build_datasets, parse_config, resolve_train_config
from .data import GENERATORS, load_csv, save_csv
from .ensemble import ORDERS, ensemble_eval, ensemble_sweep, error_over_time, predict
from .errors import (
    ConfigError,
    ConsistencyError,
    DivergenceError,
    FormatError,
    InputError,
    StorageError,
)
from .store import load_run
from .trainer import save_run, train

TRAIN_CSV_NAME = "train.csv"
TEST_CSV_NAME = "test.csv"


def _write_rows(out, header, rows):
    """Write CSV rows to a file path, or stdout when out is None."""

    def emit(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)

    if out is None:
        emit(sys.stdout)
    else:
        with open(out, "w", newline="") as fh:
            emit(fh)


def _fmt(value) -> str:
    return repr(float(value))


def cmd_gen_data(args) -> int:
    generator, params = GENERATORS[args.source]
    dataset = generator(*(getattr(args, name) for name, _ in params))
    save_csv(dataset, args.out)
    print(f"wrote {len(dataset)} examples to {args.out}")
    return 0


def run_experiment(config_path):
    """Train one config file and save its run directory plus the split it used.

    Returns the parsed config, the run manifest, the test set and the path of
    the saved `run.manifest`.
    """
    cfg = parse_config(config_path)
    train_set, test_set = build_datasets(cfg)
    manifest = train(resolve_train_config(cfg, len(train_set)), train_set)

    def write_splits():
        save_csv(train_set, os.path.join(cfg.output_dir, TRAIN_CSV_NAME))
        save_csv(test_set, os.path.join(cfg.output_dir, TEST_CSV_NAME))

    manifest_path = save_run(manifest, cfg.output_dir, write_splits)
    return cfg, manifest, test_set, manifest_path


def cmd_train(args) -> int:
    cfg, manifest, _, manifest_path = run_experiment(args.config)
    print(f"run complete: {len(manifest.snapshots)} snapshots in {cfg.output_dir}")
    print(f"manifest: {manifest_path}")
    return 0


def _load_eval_inputs(args):
    """The snapshots `--manifest` names and the dataset in `--data`, whose
    feature count must be the snapshots' input size."""
    records, dataset = load_run(args.manifest), load_csv(args.data)
    expected = records[0].spec.layer_sizes[0]
    if dataset.inputs.shape[1] != expected:
        raise InputError(
            f"{args.data}: {dataset.inputs.shape[1]} feature columns, "
            f"but the snapshots take {expected} inputs"
        )
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
    os.makedirs(args.out, exist_ok=True)
    scored = {}  # snapshot index -> its test error, so each endpoint is scored once
    for i, j in pairs:
        _check_snapshot_index(i, count)
        _check_snapshot_index(j, count)
        curve = interpolate(
            records[i - 1].spec,
            records[i - 1].params,
            records[j - 1].params,
            dataset,
            grid,
            scored.get(i),
            scored.get(j),
        )
        if grid[-1] == 1.0:
            scored[i] = curve.errors[-1]
        if grid[0] == 0.0:
            scored[j] = curve.errors[0]
        out = os.path.join(args.out, f"interp_{i:03d}_{j:03d}.csv")
        _write_rows(
            out,
            ["lambda", "test_error"],
            [[_fmt(lam), _fmt(err)] for lam, err in zip(curve.lambdas, curve.errors)],
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


def _sweep_row(path):
    """Train one sweep config and score its whole snapshot ensemble: its summary row."""
    cfg, manifest, test_set, _ = run_experiment(path)
    m = len(manifest.snapshots)
    result = ensemble_eval(manifest.snapshots, test_set, m, "latest")
    name = os.path.splitext(os.path.basename(path))[0]
    return [name, cfg.mode, cfg.epochs, m, result.ensemble_error]


def cmd_sweep(args) -> int:
    from .sweep import run_sweep, sweep_configs  # only this command compiles the worker code

    paths = sweep_configs(args.config_dir)
    outcomes, rows = {}, []

    def report(i, outcome):
        """Keep an outcome (a row list or an exception) and print every row
        that is now complete in config order."""
        outcomes[i] = outcome
        while isinstance(outcomes.get(len(rows)), list):
            name, mode, epochs, m, error = outcomes[len(rows)]
            print(f"{name}: mode={mode} snapshots={m} ensemble_error={error:.4f}")
            rows.append([name, mode, epochs, m, _fmt(error)])

    run_sweep(paths, _sweep_row, report)
    if len(rows) < len(paths):
        raise outcomes[len(rows)]
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
    except (ConfigError, InputError) as exc:
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
