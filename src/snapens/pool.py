"""The share plan of the commands that split their work over forked workers:
`sweep`, `interpolate` and `train`.

A command splits its work into shares, at most one per usable CPU
(`worker_count`), each a list of (key, task) pairs. The calling process runs
share 0 and a child forked from it (`process.fork`) runs each other share,
pinned to a CPU of its own and sending back each task's outcome (its
result, or the error that stopped it); the calling process reports every
outcome in share order. A share whose fork fails runs in the calling
process in its turn, so the outcomes are those of a run on one CPU. With one
share nothing forks. `sweep` splits its groups of configs, an `interpolate`
large enough to split its grid, and `train` runs the SGD loop in share 0
while a writer in share 1 stages the run's data split (`cli._run_stack`).
Once a share's child is forked, the calling process keeps only its keys,
so what its tasks alone hold (`train`'s test split) is freed there.
Only these commands import this module.
"""
from __future__ import annotations

from functools import partial

from .errors import SnapensError
from .process import fork, usable_cpus


def worker_count(limit):
    """Processes to split `limit` independent pieces of work over: one per
    usable CPU (`process.usable_cpus`), at most `limit`, and at least one."""
    return min(limit, len(usable_cpus())) or 1


def _outcomes(share):
    """(key, task()) for each task of a share, in order. The first error the
    CLI maps to an exit code comes in place of its outcome and ends the
    share: the tasks after it would not be used anyway."""
    for key, task in share:
        try:
            outcome = task()
        except (SnapensError, OSError) as exc:
            yield key, exc
            return
        yield key, outcome


def run_shares(shares, report, name):
    """Run every share and call report(key, outcome) here for each of its
    tasks, share by share.

    shares[0] runs in the calling process, which reports its outcomes as they
    come, and each other share w in a child pinned to the w-th usable CPU,
    reported once the shares before it are. Once that child is forked, this
    sets shares[w] to None: the calling process keeps only the share's keys,
    so what its tasks hold lives on in the child alone. A share whose fork
    fails keeps its tasks and runs here in its turn. A child that exits
    nonzero before it reports its whole share reports
    SystemExit("KEY: NAME worker exited with code N") for the first key it
    left. Every child is reaped before this returns or raises.
    """
    keys = [[key for key, _ in share] for share in shares]
    cpus, joins = usable_cpus(), [None]
    try:
        for w in range(1, len(shares)):
            joins.append(fork(partial(_outcomes, shares[w]), cpus[w]))
            if joins[w]:
                shares[w] = None
        for w in range(len(shares)):
            join, joins[w] = joins[w], None
            sent, code = join() if join else (_outcomes(shares[w]), 0)
            done = 0
            for done, (key, outcome) in enumerate(sent, 1):
                report(key, outcome)
            if code and done < len(keys[w]):
                key = keys[w][done]
                report(key, SystemExit(f"{key}: {name} worker exited with code {code}"))
    finally:
        for join in filter(None, joins):
            join()
