"""Forked workers for the commands that split their work: `sweep`,
`interpolate` and `train`.

A command splits its work into shares, at most one per usable CPU
(`worker_count`), each a list of (key, task) pairs. The calling process runs
share 0 and a child forked from it runs each other share, each child pinned
to a CPU of its own. A child pickles each task's outcome (its result, or the
error that stopped it) into a pipe, and the calling process reports every
outcome as it collects it. With one share nothing forks. `sweep` splits its
groups of configs, an `interpolate` large enough to split its grid, and
`train` runs the SGD loop in share 0 while a writer in share 1 stages the
run's data split (`cli.run_experiment`). Only these commands import this
module.
"""
from __future__ import annotations

import os
import pickle
import sys

from .errors import SnapensError


def worker_count(limit):
    """Processes to split `limit` independent pieces of work over: one per
    usable CPU, at most `limit`, and only the calling one where fork is not safe."""
    if sys.platform != "linux":
        return 1
    return min(limit, len(os.sched_getaffinity(0)))


def _run_share(share, report):
    """Report (key, task()) for each task of a share, in order. The first
    error the CLI maps to an exit code is reported in place of its outcome and
    ends the share: the tasks after it would not be used anyway."""
    for key, task in share:
        try:
            outcome = task()
        except (SnapensError, OSError) as exc:
            report(key, exc)
            return
        report(key, outcome)


def _run_on(cpus):
    """Let this process run only on `cpus`. A forked child starts on its
    parent's CPU, and on a 2-vCPU host the scheduler left both there for the
    whole of a 70 ms share, so each child is pinned to a CPU of its own. The
    calling process is not pinned: the BLAS threads it starts after a fork
    would inherit the pin, and with a multi-threaded BLAS they then share one
    CPU, which made a `train` step several times slower. Pinning is only
    placement: where the kernel refuses it, the process runs where the
    scheduler puts it."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _fork_worker(share, cpu):
    """Run a share on `cpu` in a forked child that pickles each outcome into a pipe.

    Returns the child's pid and the pipe's read end. Forking reuses the
    imported modules and the loaded inputs, where a spawned worker would
    import numpy again (about 180 ms). The CLI starts no threads of its own,
    and OpenBLAS stops its threads around a fork. The child ends with
    os._exit, so the parent's atexit hooks and buffers never run twice; an
    unexpected exception prints its traceback and exits 1.
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
        _run_on({cpu})
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:

            def send(key, outcome):
                pipe.write(pickle.dumps((key, outcome)))
                pipe.flush()

            _run_share(share, send)
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
    """The (key, outcome) pairs a forked worker sent, in order, and its exit code."""
    outcomes = []
    with open(read_fd, "rb") as pipe:
        while True:
            try:
                outcomes.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                break
    _, status = os.waitpid(pid, 0)
    return outcomes, os.waitstatus_to_exitcode(status)


def run_shares(shares, report, name):
    """Run every share and call report(key, outcome) here for each of its tasks.

    shares[0] runs in the calling process, which reports its outcomes as they
    come, and each other share w in a child pinned to the w-th usable CPU,
    which reports once it ends, in share order. A child that exits nonzero
    before it reports its whole share reports
    SystemExit("KEY: NAME worker exited with code N") for the first key it
    left.
    """
    if len(shares) == 1:
        _run_share(shares[0], report)
        return
    cpus = sorted(os.sched_getaffinity(0))
    children = [(_fork_worker(share, cpus[w]), share) for w, share in enumerate(shares) if w]
    try:
        _run_share(shares[0], report)
    finally:
        for (pid, read_fd), share in children:
            outcomes, code = _collect(pid, read_fd)
            for key, outcome in outcomes:
                report(key, outcome)
            left = [key for key, _ in share[len(outcomes):]]
            if code and left:
                report(left[0], SystemExit(f"{left[0]}: {name} worker exited with code {code}"))
