"""The benchmark's workloads: seeded inputs, snapens commands and checks.

A workload writes its inputs into a fresh directory, names the snapens
commands one timed round runs (argv lists for `snapens`, run with that
directory as the working directory), and lists the checks of everything
those commands left behind. Every round runs the same commands and the same
checks, so each round attempts the same operations.
"""
from __future__ import annotations

import math
import os
import struct

import numpy as np

import checks

ANALYSIS_DIR = "analysis"


def _seeds(seed, count):
    """Independent 31-bit seeds for the program, drawn from the benchmark seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, count)]


def _config(path, meta, seed, source, params, out):
    """Write one snapens config; meta holds the model and training settings."""
    kind = "cyclic_cosine" if meta["mode"] in ("snapshot", "singlecycle") else "step"
    lines = [
        "model.layers = " + ",".join(str(n) for n in meta["layers"]),
        f"schedule.kind = {kind}",
        f"schedule.alpha0 = {meta['alpha0']!r}",
        f"train.mode = {meta['mode']}",
        f"train.epochs = {meta['epochs']}",
        f"train.batch_size = {meta['batch_size']}",
        f"train.seed = {seed}",
        f"data.source = {source}",
        f"data.params = {params}",
        f"output.dir = {out}",
    ]
    if meta["mode"] != "single":
        lines.append(f"schedule.cycles = {meta['cycles']}")
    if meta.get("dropout"):
        lines.append(f"model.dropout = {meta['dropout']!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _analysis_commands(run_dir, m):
    """The eval-path commands on one run, writing under ANALYSIS_DIR."""
    base = ["--manifest", f"{run_dir}/run.manifest", "--data", f"{run_dir}/test.csv"]
    out = ANALYSIS_DIR
    return [
        ("ensemble_sweep", ["ensemble", *base, "--out", f"{out}/ensemble_sweep.csv"]),
        ("ensemble_m", ["ensemble", *base, "--m", str(m), "--out", f"{out}/ensemble_m.csv"]),
        ("curve", ["curve", *base, "--out", f"{out}/curve.csv"]),
        ("correlate", ["correlate", *base, "--out", f"{out}/corr"]),
        ("interpolate", ["interpolate", *base, "--against-final", "--points", "5", "--out", f"{out}/interp"]),
    ]


class Workload:
    """Fields every workload sets; see the module docstring."""

    name = ""
    round_commands: list = []
    train_label = "train"  # the command whose wall time is train_s
    train_iterations = 0  # SGD iterations that command runs
    m = 0  # snapshots in the analysed run
    output_dirs = ("runs", ANALYSIS_DIR)  # emptied before each round
    reads_idx = False  # if not, the trace times load_idx on a fixed IDX pair

    def make_inputs(self, workdir):
        raise NotImplementedError

    def checks(self, orc, workdir):
        raise NotImplementedError


def _total_iterations(meta):
    return meta["epochs"] * math.ceil(meta["n_train"] / meta["batch_size"])


class SweepSpirals(Workload):
    """One `sweep` over same-shape 2-64-64-2 spirals configs, then the eval path on one run."""

    name = "sweep-spirals"
    train_label = "sweep"
    m = 6

    def __init__(self, seed):
        data_seed, split_seed, seed_a, seed_b = _seeds(seed, 4)
        self.params = f"n=2000,turns=2,noise=0.08,seed={data_seed},train_fraction=0.5,split_seed={split_seed}"
        base = {"layers": (2, 64, 64, 2), "epochs": 30, "batch_size": 64, "n_train": 1000, "cycles": 6}
        cyclic = dict(base, alpha0=0.2)
        step = dict(base, alpha0=0.1)
        self.runs = [
            ("a_dropout", seed_a, dict(step, mode="single", dropout=0.2)),
            ("a_nocycle", seed_a, dict(step, mode="nocycle")),
            ("a_single", seed_a, dict(step, mode="single")),
            ("a_singlecycle", seed_a, dict(cyclic, mode="singlecycle")),
            ("a_snapshot", seed_a, dict(cyclic, mode="snapshot")),
            ("b_single", seed_b, dict(step, mode="single")),
            ("b_snapshot", seed_b, dict(cyclic, mode="snapshot")),
        ]
        self.train_iterations = sum(_total_iterations(meta) for _, _, meta in self.runs)
        self.round_commands = [
            ("sweep", ["sweep", "configs", "--summary", f"{ANALYSIS_DIR}/summary.csv"]),
            *_analysis_commands("runs/a_snapshot", self.m),
        ]

    def make_inputs(self, workdir):
        os.makedirs(os.path.join(workdir, "configs"))
        for name, seed, meta in self.runs:
            _config(os.path.join(workdir, "configs", f"{name}.cfg"), meta, seed, "spirals", self.params, f"runs/{name}")

    def checks(self, orc, workdir):
        results = checks.oracle_self_check()
        located = [(name, os.path.join(workdir, "runs", name), meta) for name, _, meta in self.runs]
        for _, run_dir, meta in located:
            results += checks.run_dir_checks(orc, run_dir, meta)
        results += checks.sweep_summary_checks(orc, os.path.join(workdir, ANALYSIS_DIR, "summary.csv"), located)
        results += checks.analysis_checks(
            orc, os.path.join(workdir, "runs", "a_snapshot"), os.path.join(workdir, ANALYSIS_DIR), self.m
        )
        return results


class AnalyzeSpirals(Workload):
    """`train` of a 10-snapshot spirals run, then the eval path on its 6 000 test rows."""

    name = "analyze-spirals"
    m = 10

    def __init__(self, seed):
        data_seed, split_seed, train_seed = _seeds(seed, 3)
        self.meta = {
            "layers": (2, 64, 64, 2), "mode": "snapshot", "alpha0": 0.2, "cycles": self.m,
            "epochs": 40, "batch_size": 64, "n_train": 1500,
        }  # fmt: skip
        self.train_seed = train_seed
        self.params = f"n=7500,turns=2,noise=0.08,seed={data_seed},train_fraction=0.2,split_seed={split_seed}"
        self.train_iterations = _total_iterations(self.meta)
        self.round_commands = [("train", ["train", "analyze.cfg"]), *_analysis_commands("runs/analyze", self.m)]

    def make_inputs(self, workdir):
        _config(os.path.join(workdir, "analyze.cfg"), self.meta, self.train_seed, "spirals", self.params, "runs/analyze")

    def checks(self, orc, workdir):
        run_dir = os.path.join(workdir, "runs", "analyze")
        return (
            checks.oracle_self_check()
            + checks.run_dir_checks(orc, run_dir, self.meta)
            + checks.analysis_checks(orc, run_dir, os.path.join(workdir, ANALYSIS_DIR), self.m)
        )


def synthetic_digits(seed, count):
    """Seeded 28x28 uint8 images of 10 classes and their labels.

    Each class has a prototype made of four Gaussian bumps. An image is its
    class prototype, shifted by up to 3 pixels and scaled in contrast, blended
    with a shifted prototype of another class (weight up to 0.45), plus pixel
    noise of sigma 0.25. The blending and noise keep test error above 0.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:28, 0:28]
    protos = np.zeros((10, 28, 28))
    for k in range(10):
        for _ in range(4):
            cy, cx = rng.uniform(6, 22, 2)
            s = rng.uniform(1.5, 4.0)
            protos[k] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s))
        protos[k] /= protos[k].max()
    labels = rng.integers(0, 10, count)
    others = (labels + rng.integers(1, 10, count)) % 10
    shifts = rng.integers(-3, 4, (count, 4))
    weights = rng.uniform(0.0, 0.45, count)
    contrast = rng.uniform(0.6, 1.0, count)
    noise = 0.25 * rng.standard_normal((count, 28, 28))
    images = np.empty((count, 28, 28))
    for i in range(count):
        own = np.roll(protos[labels[i]], tuple(shifts[i, :2]), (0, 1))
        other = np.roll(protos[others[i]], tuple(shifts[i, 2:]), (0, 1))
        images[i] = contrast[i] * ((1 - weights[i]) * own + weights[i] * other) + noise[i]
    pixels = np.clip(np.rint(images * 255), 0, 255).astype(np.uint8)
    return pixels, labels.astype(np.uint8)


def write_idx(images_path, labels_path, pixels, labels):
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, *pixels.shape))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(labels.tobytes())


def write_idx_probe(workdir):
    """Write the fixed IDX pair that load_idx is timed on where a workload reads no IDX."""
    paths = [os.path.join(workdir, "probe-images.idx"), os.path.join(workdir, "probe-labels.idx")]
    write_idx(*paths, *synthetic_digits(0, 1000))
    return paths


class WideIdx(Workload):
    """`train` of a 784-256-256-10 net on a synthetic IDX pair, then the eval path."""

    name = "wide-idx"
    m = 8
    reads_idx = True
    count = 500

    def __init__(self, seed):
        self.image_seed, split_seed, train_seed = _seeds(seed, 3)
        self.meta = {
            "layers": (784, 256, 256, 10), "mode": "snapshot", "alpha0": 0.1, "cycles": self.m,
            "epochs": 32, "batch_size": 64, "n_train": self.count // 2,
        }  # fmt: skip
        self.train_seed = train_seed
        self.params = f"images=images.idx,labels=labels.idx,train_fraction=0.5,split_seed={split_seed}"
        self.train_iterations = _total_iterations(self.meta)
        self.round_commands = [("train", ["train", "wide.cfg"]), *_analysis_commands("runs/wide", self.m)]

    def make_inputs(self, workdir):
        pixels, labels = synthetic_digits(self.image_seed, self.count)
        write_idx(os.path.join(workdir, "images.idx"), os.path.join(workdir, "labels.idx"), pixels, labels)
        _config(os.path.join(workdir, "wide.cfg"), self.meta, self.train_seed, "idx", self.params, "runs/wide")

    def checks(self, orc, workdir):
        run_dir = os.path.join(workdir, "runs", "wide")
        images, labels = checks.read_idx(os.path.join(workdir, "images.idx"), os.path.join(workdir, "labels.idx"))
        return (
            checks.oracle_self_check()
            + checks.run_dir_checks(orc, run_dir, self.meta)
            + checks.split_checks(orc, run_dir, images, labels, self.meta["n_train"])
            + checks.analysis_checks(orc, run_dir, os.path.join(workdir, ANALYSIS_DIR), self.m)
        )


WORKLOADS = {w.name: w for w in (SweepSpirals, AnalyzeSpirals, WideIdx)}
