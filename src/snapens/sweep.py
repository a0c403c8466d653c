"""Whole-sweep checks for `snapens sweep`, made before anything trains.

Only `cli.cmd_sweep` imports this module, so the other commands do not
compile it at start-up. The sweep trains its configs on `snapens.pool`'s
forked workers.
"""
from __future__ import annotations

import os

from .config import input_files, parse_config
from .errors import ConfigError, InputError


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
