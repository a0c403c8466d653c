"""Whole-sweep checks for `snapens sweep`, made before anything trains.

Only `cli.cmd_sweep` imports this module, so the other commands do not
compile it at start-up. The sweep trains its groups of configs on
`snapens.pool`'s forked workers, each worker's consecutive groups of one
shape stacked into one SGD loop (`stack_groups`).
"""
from __future__ import annotations

import os

from .config import input_files
from .errors import ConfigError, InputError
from .trainer import STACK_BYTES, loop_shape, step_bytes, trajectory_key


def sweep_configs(config_dir, parse_config):
    """(path, parse_config(path)) for each `.cfg` in config_dir, sorted by
    path, once every one parses and no two touch the same files: each
    output.dir belongs to one config, and no config reads its data from under
    another's output.dir."""
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
    return configs


def group_experiments(experiments):
    """`cli.Experiment`s, in config order, split into groups that take the
    same SGD steps: one training split (the same built object) and one
    `trajectory_key`. Groups come in the order of their first member, and
    each lists its members in config order."""
    groups = {}
    for experiment in experiments:
        key = (id(experiment.train_set), trajectory_key(experiment.config))
        groups.setdefault(key, []).append(experiment)
    return list(groups.values())


def stack_groups(groups):
    """Groups, in order, split into stacks that `trainer.train_stack` runs
    in one loop each: runs of consecutive groups with one
    `trainer.loop_shape` whose `trainer.step_bytes` sum to at most
    `trainer.STACK_BYTES`. A group too large to share a loop trains alone."""
    stacks, shape, held = [], None, 0
    for group in groups:
        config = group[0].config
        this = loop_shape(config, len(group[0].train_set))
        size = step_bytes(config)
        if stacks and this == shape and held + size <= STACK_BYTES:
            stacks[-1].append(group)
            held += size
        else:
            stacks.append([group])
            shape, held = this, size
    return stacks
