"""Command-line front end.

Subcommands: gen-data, train, ensemble, curve, interpolate, correlate, sweep.
Exit codes: 0 success, 2 usage/config/input errors, 3 numerical divergence,
4 I/O and file-format errors. Every emitted CSV carries a header row.

A command line runs in three steps: `parse` (from `cmdline`, which holds
the command table and the parser), `load` and `run`. Importing this module
loads no other snapens module but `cmdline` and `errors`, and no numpy;
`load` then imports only the modules of the one command that runs.
"""
from __future__ import annotations

import csv
import importlib
import io
import os
import sys
from collections import Counter, namedtuple
from functools import partial

from .cmdline import COMMANDS, parse
from .errors import (
    ConfigError,
    ConsistencyError,
    DivergenceError,
    FormatError,
    InputError,
    StorageError,
    UndefinedCorrelationError,
)

# The names the commands call from other snapens modules, by home module. A
# name is bound into this module when first needed: by `load`, for the
# modules of the command that runs, or by `__getattr__`, for a caller's
# `cli.NAME`. Neither rebinds a name this module has, so a name a caller has
# set here (the benchmark tracer patches ten of them) stays the one the
# commands call.
_IMPORTS = {
    "analysis": ("default_lambda_grid", "interpolate", "softmax_correlation"),
    "config": ("build_datasets", "data_key", "input_files", "parse_config", "resolve_train_config"),
    "data": ("GENERATORS", "can_allocate", "load_csv", "save_csv"),
    "ensemble": ("ensemble_eval", "ensemble_sweep", "error_over_time", "predict"),
    "nn": ("check_labels", "param_count"),
    "pool": ("run_shares", "worker_count"),
    "store": ("SPLIT_NAMES", "load_run", "save_run", "staged_path", "staging", "write_atomically"),
    "sweep": ("group_experiments", "stack_groups", "sweep_configs"),
    "trainer": ("check_step_fits", "train_stack"),
}
_HOME = {name: module for module, names in _IMPORTS.items() for name in names}


def _bind(*modules):
    """Import `modules` and bind each of their `_IMPORTS` names that this module lacks."""
    namespace = globals()
    for module in modules:
        home = importlib.import_module(f"{__package__}.{module}")
        for name in _IMPORTS[module]:
            namespace.setdefault(name, getattr(home, name))


def __getattr__(name):
    """`cli.NAME` for a name of `_IMPORTS` not bound yet: bind it, with its module's other names."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_HOME[name])
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_HOME))


def train(config, train_set, others=(), out_dirs=None, stack=()):
    """Train `config` and the configs in `others`, which share its trajectory,
    in one SGD loop with the groups in `stack`, each a (configs, train set,
    out_dirs) triple: `trainer.train_stack`'s result, `config`'s group first.
    With `out_dirs`, one per config, each run stages its snapshots in its
    directory as it takes them."""
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

    Its split comes from `built`, keyed by `config.data_key`, and is built
    into it when missing, so configs with the same data share one split,
    whether or not they write a default. Every check a run makes before its
    first step runs here, and each failure names the config file: the
    data.params values, whether the data files can be read (exit 4),
    whether the cycles or snapshots fit T, and the feature count and the
    labels of both splits against the model (naming the data file too), and
    whether this process can allocate a training step of the model.
    """
    try:
        key = data_key(cfg)
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
        check_step_fits(config, len(train_set))
    except (ConfigError, InputError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except (FormatError, OSError) as exc:
        raise StorageError(f"{path}: {exc}") from exc
    return Experiment(path, cfg.output_dir, config, train_set, test_set)


def _run_stack(stack, write_split, workers=1):
    """Train a stack of groups of Experiments in one SGD loop
    (`trainer.train_stack`) and stage each experiment's split with
    `write_split`. The experiments of a group share one training split and
    one `trainer.trajectory_key`, and all groups share the layer sizes, batch
    size, split length and epochs. The caller holds their directories in a
    `store.staging`: training stages each snapshot there as it is taken, and
    the writer stages each split, with `workers` > 1 on a second share of
    `pool.run_shares`, in a child on another CPU, while this process trains;
    else, or where that fork fails, here after training.

    It empties `stack` and keeps only each experiment's path, so the
    training share holds the training splits and the writer's tasks the
    splits they write. Once the writer is forked, a split that only it
    reads (`train`'s test split) is then freed here before training, unless
    the caller holds it too (`sweep` scores its runs on its test splits).

    Returns each experiment's outcome by config path, for `_save`: its run
    manifest and, for each of `store.SPLIT_NAMES`, None once staged or the
    error its writer met. A group that failed has its error as the outcome
    of each of its experiments, and so do the groups the loop ended after it.
    """
    members = sorted((e for group in stack for e in group), key=lambda e: e.path)
    paths = [[e.path for e in group] for group in stack]
    groups = [([e.config for e in group], group[0].train_set, [e.out_dir for e in group]) for group in stack]
    (configs, train_set, out_dirs), *later = groups
    run = partial(train, configs[0], train_set, configs[1:], out_dirs, later)
    staged = {e.path: [staged_path(e.out_dir, name) for name in SPLIT_NAMES] for e in members}
    writes = [
        (path, partial(write_split, split, path))
        for e in members
        for path, split in zip(staged[e.path], (e.train_set, e.test_set))
    ]
    shares = [[(None, run)], writes] if workers > 1 else [[(None, run), *writes]]
    del stack[:], members, writes  # the shares alone hold the splits now
    outcomes = {}  # None -> the groups' runs; staged split path -> None once written, or the error met
    run_shares(shares, outcomes.__setitem__, "train")
    # each group's runs, up to the first group that failed, whose entry is its
    # error; or the one error that stopped the loop
    results = outcomes[None] if isinstance(outcomes[None], list) else [outcomes[None]]
    results = results + results[-1:] * (len(paths) - len(results))
    done = {}
    for group, result in zip(paths, results):
        for k, path in enumerate(group):
            splits = [outcomes.get(split) for split in staged[path]]
            done[path] = result if isinstance(result, BaseException) else (result[k], splits)
    return done


def _save(out_dir, outcome):
    """Save the run directory `out_dir` from its experiment's `_run_stack`
    outcome, or raise the error that outcome holds; return the saved
    manifest's path."""
    if isinstance(outcome, BaseException):
        raise outcome
    manifest, splits = outcome
    return save_run(manifest, out_dir, splits)


def _split_writer(experiments):
    """A `write_split` for `_run_stack` calls that write the splits of
    `experiments` in one process: each distinct split (one built object) is
    rendered once, and its bytes are dropped after its last write.
    It reads `data.csv_chunks` from its module at each call, not from this one."""
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
    # the experiment is held by the stack alone, which `_run_stack` empties
    stack = [[load_experiment(args.config, parse_config(args.config), {})]]
    path, out_dir = stack[0][0].path, stack[0][0].out_dir
    with staging([out_dir]):
        outcome = _run_stack(stack, save_csv, worker_count(2))[path]
        manifest_path = _save(out_dir, outcome)
    manifest, _ = outcome
    print(f"run complete: {len(manifest.snapshots)} snapshots in {out_dir}")
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


# `interpolate` splits its grid over forked workers only when its serial
# forward work, (pairs x points) passes x rows x parameters, is above this.
# On a 2-vCPU host a fork, the pinned child's first 6,000-row 2-64-64-2
# forward pass (1.8 ms warm), its exit and the collect took 4.4 ms. Whole
# `--against-final` commands on a 1,000-row, 6-snapshot run of that net ran
# as fast split as serial at 5 points (1.1e8) and 3.5 % faster at 9 (2.0e8).
FORK_MIN_WORK = 2e8


def _curve_tasks(records, dataset, pairs, grid):
    """One task per pair that returns its InterpolationCurve on `grid`. Run
    in order, the tasks hold the last task's first snapshot: its parameters
    and, once scored, its lambda = 1 error. Every `--against-final` pair
    shares its first snapshot, so that one is read and scored once, each
    pair's second snapshot is read once, and at most one pair is held."""
    held = [None, None, None]  # the last task's first snapshot: its index, parameters and lambda = 1 error

    def curve_of(i, j):
        if held[0] != i:
            held[:] = [i, records[i - 1].params, None]
        _, theta1, error1 = held
        theta2 = theta1 if j == i else records[j - 1].params
        curve = interpolate(records[i - 1].spec, theta1, theta2, dataset, grid, error1)
        if grid[-1] == 1.0:
            held[2] = curve.errors[-1]
        return curve

    return [partial(curve_of, i, j) for i, j in pairs]


def _write_curve(path, grid, errors):
    _write_rows(path, ["lambda", "test_error"], [[_fmt(lam), _fmt(err)] for lam, err in zip(grid, errors)])


def _split_curves(records, dataset, pairs, grid, paths, workers):
    """Compute each pair's errors on `grid` on `workers` processes, then
    write each pair's curve to its path, in pair order: worker w runs every
    pair on grid[w::workers]. Share (len(grid) - 1) % workers holds every
    lambda = 1 point, the shared first snapshot's, so that snapshot is still
    scored once; each lambda = 0 point is its own pair's second snapshot,
    scored once in share 0. An error stops the curves at the first pair it hit,
    as in a serial run."""
    import numpy as np

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
        _write_curve(path, grid, errors)


def cmd_interpolate(args) -> int:
    records, dataset = _load_eval_inputs(args)
    count = len(records)
    if args.pair is not None:
        pairs = [(args.pair[0], args.pair[1])]
    else:
        pairs = [(count, k) for k in range(1, count)]
        if not pairs:
            raise InputError("--against-final needs a run with at least two snapshots")
    size = 16 * args.points  # the lambda grid and a curve's error at each point
    if args.points >= 1 and not can_allocate(size):
        raise InputError(f"--points {args.points} needs {size} bytes, more than this process can allocate")
    grid = default_lambda_grid(args.points)
    for index in (index for pair in pairs for index in pair):
        if not 1 <= index <= count:
            raise InputError(f"snapshot index {index} outside valid range [1, {count}]")
    os.makedirs(args.out, exist_ok=True)
    paths = [os.path.join(args.out, f"interp_{i:03d}_{j:03d}.csv") for i, j in pairs]
    workers = 1
    if len(pairs) * len(grid) * len(dataset) * param_count(records[0].spec) > FORK_MIN_WORK:
        _bind("pool")  # only a split grid forks
        workers = worker_count(len(grid))
    if workers > 1:
        _split_curves(records, dataset, pairs, grid, paths, workers)
    else:
        for path, task in zip(paths, _curve_tasks(records, dataset, pairs, grid)):
            _write_curve(path, grid, task().errors)
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


def _sweep_row(experiment, run_stack, trained):
    """Finish one sweep config: train its stack with `run_stack` unless an
    earlier config of that stack did (`trained` holds the outcomes of the
    share's trained stacks by path), save its run and score its whole
    snapshot ensemble as read back from disk: its summary row."""
    if experiment.path not in trained:
        trained.update(run_stack())
    records = load_run(_save(experiment.out_dir, trained.pop(experiment.path)))
    m = len(records)
    result = ensemble_eval(records, experiment.test_set, m, "latest")
    name = os.path.splitext(os.path.basename(experiment.path))[0]
    return [name, experiment.config.mode, experiment.config.epochs, m, result.ensemble_error]


def cmd_sweep(args) -> int:
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
    # into as few SGD loops as `stack_groups` allows, each when its first
    # config comes up, and finishes their configs in config order, so a
    # share that stops at an error leaves only configs after it.
    workers = worker_count(len(groups))
    shares = []
    for w in range(workers):
        mine = groups[w::workers]
        write_split = _split_writer([e for group in mine for e in group])
        trained, tasks = {}, {}
        for stack in stack_groups(mine):
            run_stack = partial(_run_stack, stack, write_split)
            tasks.update((e.path, partial(_sweep_row, e, run_stack, trained)) for group in stack for e in group)
        shares.append([(path, tasks[path]) for path in paths if path in tasks])
    with staging([e.out_dir for e in experiments]):
        run_shares(shares, report, "sweep")
        if len(rows) < len(paths):
            raise outcomes[paths[len(rows)]]
    _write_rows(args.summary, ["config", "mode", "epochs", "m", "ensemble_error"], rows)
    print(f"summary: {args.summary}")
    return 0


def load(command):
    """Bind the names `command` calls from other snapens modules."""
    _bind(*COMMANDS[command][1])


def run(args) -> int:
    """Run the parsed command `args` with its function (command `NAME` runs
    `cmd_NAME`, `-` read as `_`) and return its exit code: each error this
    package raises maps to 2, 3 or 4 with its message on stderr, and so does
    a MemoryError no size check caught, to 2, naming the command."""
    try:
        return globals()[f"cmd_{args.command.replace('-', '_')}"](args)
    except (ConfigError, InputError, UndefinedCorrelationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"config error: {args.command}: out of memory", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FormatError, ConsistencyError, StorageError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def main(argv=None) -> int:
    """Run the command line `argv` (default `sys.argv[1:]`): `parse`, `load`
    and `run`. It changes no process-wide setting; `snapens.process.entry`
    runs the same steps with the process's settings between them."""
    args = parse(argv)
    load(args.command)
    return run(args)
