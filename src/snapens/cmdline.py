"""The `snapens` command line: its commands, their arguments and its parser.

This module imports only `argparse` and `sys`, so `--help` and a usage
error, which exit in `parse`, load no other snapens module and no numpy.
It also holds the choices the parser offers that name library values:
`data.GENERATORS`, `ensemble.ORDERS` and the lambda grid take theirs here.
"""
from __future__ import annotations

import argparse
import sys

# The synthetic data sources (`gen-data --source`, `data.source`), in
# `data.GENERATORS` order, the member orders of `ensemble --order`, and the
# default of `interpolate --points`, which `analysis.default_lambda_grid` takes.
SOURCES = ("two_moons", "spirals", "blobs")
ORDERS = ("latest", "earliest")
POINTS = 51

# Each command: its help line and the home modules of the names it calls.
# Only `sweep`, `train` and a split `interpolate` load the worker code in
# `pool`, and only `sweep` and `train` the training modules.
COMMANDS = {
    "gen-data": ("generate a synthetic dataset CSV", ("data",)),
    "train": ("run one training config into its output directory",
              ("config", "data", "nn", "pool", "store", "trainer")),
    "ensemble": ("ensemble error for one m or a sweep over m", ("data", "ensemble", "nn", "store")),
    "curve": ("single vs growing-ensemble error over snapshots", ("data", "ensemble", "nn", "store")),
    "interpolate": ("test error along lines between snapshots", ("analysis", "data", "nn", "store")),
    "correlate": ("pairwise softmax correlation between snapshots",
                  ("analysis", "data", "ensemble", "nn", "store")),
    "sweep": ("run every .cfg in a directory and join the results",
              ("config", "data", "ensemble", "nn", "pool", "store", "sweep", "trainer")),
}


def _add_arguments(p, command):
    """Add the arguments of `command` to its parser `p`."""
    if command in ("ensemble", "curve", "interpolate", "correlate"):
        p.add_argument("--manifest", required=True)
        p.add_argument("--data", required=True, help="evaluation dataset CSV")
    if command == "gen-data":
        p.add_argument("--source", required=True, choices=SOURCES)
        p.add_argument("--out", required=True)
        p.add_argument("--n", type=int, default=1000)
        p.add_argument("--noise", type=float, default=0.1)
        p.add_argument("--turns", type=float, default=2.0, help="spiral revolutions")
        p.add_argument("--classes", type=int, default=3, help="blob cluster count")
        p.add_argument("--spread", type=float, default=0.5, help="blob cluster sigma")
        p.add_argument("--seed", type=int, default=0)
    elif command == "train":
        p.add_argument("config")
    elif command == "ensemble":
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--order", choices=ORDERS, default="latest")
        p.add_argument("--out", default=None, help="output CSV (default: stdout)")
    elif command == "curve":
        p.add_argument("--out", default=None)
    elif command == "interpolate":
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--pair", nargs=2, type=int, metavar=("I", "J"))
        group.add_argument("--against-final", action="store_true")
        p.add_argument("--points", type=int, default=POINTS)
        p.add_argument("--out", required=True, help="output directory for curve CSVs")
    elif command == "correlate":
        p.add_argument("--out", required=True, help="output directory")
    elif command == "sweep":
        p.add_argument("config_dir")
        p.add_argument("--summary", default="summary.csv")


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of the command line `argv`. The top-level parser names
    every command, but only the command `argv` names gets its arguments:
    parsing `argv` reads no other command's parser, so `--help` and every
    usage error read as they would with all of them built."""
    parser = argparse.ArgumentParser(
        prog="snapens",
        description="Train small dense nets with cyclic cosine restarts and ensemble the cycle-end snapshots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chosen = next((arg for arg in argv if arg in COMMANDS), None)
    for command, (help_line, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        if command == chosen:
            _add_arguments(p, command)
    return parser


def parse(argv=None) -> argparse.Namespace:
    """The parsed command line `argv` (default `sys.argv[1:]`). `--help` and
    a usage error exit here, through SystemExit."""
    argv = sys.argv[1:] if argv is None else argv
    return build_parser(argv).parse_args(argv)
