"""Parallel training for `snapens sweep`: whole-sweep checks and forked workers.

Only `cli.cmd_sweep` imports this module, so the other commands do not
compile it at start-up. A sweep runs one worker per usable CPU
(`os.sched_getaffinity`), at most one per config. With n workers the calling
process trains configs 0, n, 2n, ... and a child forked from it trains each
other stride. Each child pickles each config's outcome (its summary row, or
the error that stopped it) into a pipe, and the calling process reports every
outcome as it collects it. With one worker nothing forks.
"""
from __future__ import annotations

import os
import pickle
import sys

from .config import input_files, parse_config
from .errors import ConfigError, InputError, SnapensError


def sweep_configs(config_dir):
    """The sorted `.cfg` paths in config_dir, once every one parses and no two
    touch the same files: each output.dir belongs to one config, and no config
    reads its data from under another's output.dir."""
    paths = sorted(
        os.path.join(config_dir, name) for name in os.listdir(config_dir) if name.endswith(".cfg")
    )
    if not paths:
        raise InputError(f"no .cfg files in {config_dir}")
    configs = [(path, parse_config(path)) for path in paths]
    owners = {}  # resolved output.dir -> the config that writes it
    for path, cfg in configs:
        out = os.path.realpath(cfg.output_dir)
        if out in owners:
            raise ConfigError(f"{owners[out]} and {path} both write output.dir {cfg.output_dir}")
        owners[out] = path
    for path, cfg in configs:
        for name in input_files(cfg):
            source = os.path.realpath(name)
            for out, owner in owners.items():
                if owner != path and os.path.commonpath([source, out]) == out:
                    raise ConfigError(f"{path} reads {name}, which lies under the output.dir of {owner}")
    return paths


def _worker_count(count):
    """Processes that train `count` configs: one per usable CPU, at most one
    per config, and only the calling one where fork is not safe."""
    if sys.platform != "linux":
        return 1
    return min(count, len(os.sched_getaffinity(0)))


def _train_share(paths, share, train_one, report):
    """Report (i, train_one(paths[i])) for each i in share, in order. The
    first error the CLI maps to an exit code is reported in place of its row
    and ends the share: the configs after it would not be summarised anyway."""
    for i in share:
        try:
            row = train_one(paths[i])
        except (SnapensError, OSError) as exc:
            report(i, exc)
            return
        report(i, row)


def _fork_worker(paths, share, train_one):
    """Train a share in a forked child that pickles each outcome into a pipe.

    Returns the child's pid and the pipe's read end. Forking reuses the
    imported modules, where a spawned worker would import numpy again (about
    180 ms). The CLI starts no threads of its own, and OpenBLAS stops its
    threads around a fork. The child ends with os._exit, so the parent's
    atexit hooks and buffers never run twice; an unexpected exception prints
    its traceback and exits 1.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:

            def send(i, outcome):
                pipe.write(pickle.dumps((i, outcome)))
                pipe.flush()

            _train_share(paths, share, train_one, send)
        status = 0
    except Exception:
        import traceback

        traceback.print_exc()
    finally:  # never return into the parent's stack, whatever was raised
        try:
            sys.stderr.flush()
        finally:
            os._exit(status)


def _collect(pid, read_fd):
    """The outcomes a forked worker sent, by config index, and its exit code."""
    outcomes = {}
    with open(read_fd, "rb") as pipe:
        while True:
            try:
                i, outcome = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                break
            outcomes[i] = outcome
    _, status = os.waitpid(pid, 0)
    return outcomes, os.waitstatus_to_exitcode(status)


def run_sweep(paths, train_one, report):
    """Call train_one(path) for every path on `_worker_count` processes, and
    report each outcome here as (index, row or error).

    The calling process reports its own outcomes as they come and a child's
    once the child ends. A child that exits nonzero before reporting all its
    configs reports a SystemExit for the first config it left.
    """
    workers = _worker_count(len(paths))
    shares = [range(w, len(paths), workers) for w in range(workers)]
    children = [(_fork_worker(paths, share, train_one), share) for share in shares[1:]]
    try:
        _train_share(paths, shares[0], train_one, report)
    finally:
        for (pid, read_fd), share in children:
            outcomes, code = _collect(pid, read_fd)
            for i in sorted(outcomes):
                report(i, outcomes[i])
            left = [i for i in share if i not in outcomes]
            if code and left:
                report(left[0], SystemExit(f"{paths[left[0]]}: sweep worker exited with code {code}"))
