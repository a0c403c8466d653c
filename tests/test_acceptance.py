"""Acceptance suite: one test per criterion, reported in the terminal summary.

Criteria 3-7 share a single deterministic battery of runs: the spiral task
(n=2000, noise 0.08, 50/50 split, data seed 0), a [2,64,64,2] network, 120
epochs at batch 64, and training seeds 1..7 for each of the three compared
modes (cyclic snapshot with alpha0=0.2 and M=6, single-model step baseline,
nocycle step baseline with 6 snapshots).
"""
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import record_criterion, subprocess_env
from oracles import fd_relative_error
from snapens.analysis import default_lambda_grid, interpolate, mean_offdiagonal, softmax_correlation
from snapens.data import gen_spirals, split
from snapens.ensemble import ensemble_eval, predict
from snapens.nn import Batch, ModelSpec, param_count
from snapens.schedule import ScheduleSpec, lr_at
from snapens.store import SnapshotRecord, read_snapshot, write_snapshot
from snapens.store import ManifestFile, read_manifest, write_manifest
from snapens.trainer import TrainConfig, iterations_for, train

REPO = Path(__file__).resolve().parent.parent
SEEDS = range(1, 8)
MODEL = ModelSpec((2, 64, 64, 2))


def median(values):
    return statistics.median(values)


@pytest.fixture(scope="module")
def battery():
    full = gen_spirals(2000, 2.0, 0.08, seed=0)
    train_set, test_set = split(full, 0.5, seed=0)
    total = iterations_for(len(train_set), 64, 120)
    cyclic = ScheduleSpec("cyclic_cosine", 0.2, total, 6)
    step = ScheduleSpec("step", 0.1, total)
    runs = {}
    for seed in SEEDS:
        snapshot = train(TrainConfig(MODEL, cyclic, "snapshot", 120, 64, seed=seed), train_set)
        single = train(TrainConfig(MODEL, step, "single", 120, 64, seed=seed), train_set)
        nocycle = train(
            TrainConfig(MODEL, step, "nocycle", 120, 64, seed=seed, snapshot_count=6), train_set
        )
        runs[seed] = SimpleNamespace(snapshot=snapshot, single=single, nocycle=nocycle)
    return SimpleNamespace(runs=runs, train_set=train_set, test_set=test_set)


def test_criterion_1_schedule_exactness():
    started = time.perf_counter()
    cyclic = ScheduleSpec("cyclic_cosine", 0.2, 600, 6)
    checks = [
        abs(lr_at(cyclic, 1) - 0.2) < 1e-12,
        abs(lr_at(cyclic, 51) - 0.1) < 1e-12,
        abs(lr_at(cyclic, 101) - 0.2) < 1e-12,
        abs(lr_at(cyclic, 100) - 4.9343963426844300e-05) < 1e-12,
    ]
    step = ScheduleSpec("step", 0.1, 300)
    checks += [
        abs(lr_at(step, 150) - 0.1) < 1e-12,
        abs(lr_at(step, 151) - 0.01) < 1e-12,
        abs(lr_at(step, 225) - 0.01) < 1e-12,
        abs(lr_at(step, 226) - 0.001) < 1e-12,
    ]
    elapsed = time.perf_counter() - started
    ok = all(checks) and elapsed < 1.0
    assert record_criterion(
        1, "schedule exactness", ok, f"{sum(checks)}/{len(checks)} values, {elapsed:.3f}s"
    )


def test_criterion_2_gradient_oracle():
    started = time.perf_counter()
    spec = ModelSpec((2, 4, 3))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        params = rng.normal(scale=0.7, size=param_count(spec))
        batch = Batch(rng.normal(size=(8, 2)), rng.integers(0, 3, 8))
        worst = max(worst, fd_relative_error(spec, params, batch, step=1e-5))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and elapsed < 10.0
    assert record_criterion(
        2, "gradient matches finite differences", ok,
        f"max rel err {worst:.2e} over 20 cases, {elapsed:.2f}s",
    )


def test_criterion_3_snapshot_ensemble_beats_single_baseline(battery):
    ens = [
        ensemble_eval(run.snapshot.snapshots, battery.test_set, 6, "latest").ensemble_error
        for run in battery.runs.values()
    ]
    single = [
        ensemble_eval(run.single.snapshots, battery.test_set, 1, "latest").ensemble_error
        for run in battery.runs.values()
    ]
    ok = median(ens) <= median(single)
    assert record_criterion(
        3, "snapshot ensemble <= single baseline (median over 7 seeds)", ok,
        f"ensemble {median(ens):.4f} vs single {median(single):.4f}",
    )


def test_criterion_4_ensemble_tracks_best_member(battery):
    ens, best = [], []
    for run in battery.runs.values():
        result = ensemble_eval(run.snapshot.snapshots, battery.test_set, 6, "latest")
        ens.append(result.ensemble_error)
        best.append(min(result.member_errors))
    ok = median(ens) <= median(best) + 0.01
    assert record_criterion(
        4, "ensemble <= best member + 0.01 (median)", ok,
        f"ensemble {median(ens):.4f} vs best member {median(best):.4f}",
    )


def test_criterion_5_cyclic_beats_nocycle(battery):
    ens, nocycle = [], []
    for run in battery.runs.values():
        ens.append(ensemble_eval(run.snapshot.snapshots, battery.test_set, 6).ensemble_error)
        nocycle.append(ensemble_eval(run.nocycle.snapshots, battery.test_set, 6).ensemble_error)
    ok = median(ens) <= median(nocycle)
    assert record_criterion(
        5, "cyclic ensemble <= nocycle ensemble (median)", ok,
        f"cyclic {median(ens):.4f} vs nocycle {median(nocycle):.4f}",
    )


def test_criterion_6_cyclic_snapshots_less_correlated(battery):
    def last3_corr(manifest):
        preds = [
            predict(MODEL, r.params, battery.test_set, source=f"snapshot_{r.cycle_index}")
            for r in manifest.snapshots[-3:]
        ]
        return mean_offdiagonal(softmax_correlation(preds))

    cyclic = [last3_corr(run.snapshot) for run in battery.runs.values()]
    nocycle = [last3_corr(run.nocycle) for run in battery.runs.values()]
    ok = median(cyclic) < median(nocycle)
    assert record_criterion(
        6, "cyclic last-3 correlation < nocycle last-3 (median)", ok,
        f"cyclic {median(cyclic):.5f} vs nocycle {median(nocycle):.5f}",
    )


def test_criterion_7_interpolation_endpoints_and_spike(battery):
    from snapens.nn import evaluate_error

    endpoint_grid = np.array([0.0, 1.0])
    full_grid = default_lambda_grid()
    endpoints_exact = True
    spikes = []
    for run in battery.runs.values():
        records = run.snapshot.snapshots
        standalone = [evaluate_error(MODEL, r.params, battery.test_set) for r in records]
        for i in range(len(records)):
            for j in range(i + 1, len(records)):
                curve = interpolate(
                    MODEL, records[i].params, records[j].params, battery.test_set, endpoint_grid
                )
                endpoints_exact &= curve.errors[1] == standalone[i]
                endpoints_exact &= curve.errors[0] == standalone[j]
        seed_has_spike = False
        for k in range(len(records) - 1):
            curve = interpolate(
                MODEL, records[-1].params, records[k].params, battery.test_set, full_grid
            )
            interior = curve.errors[1:-1].max()
            if interior > max(curve.errors[0], curve.errors[-1]):
                seed_has_spike = True
                break
        spikes.append(1.0 if seed_has_spike else 0.0)
    spike_ok = median(spikes) >= 1.0
    ok = endpoints_exact and spike_ok
    assert record_criterion(
        7, "interpolation endpoints bit-exact and interior spike present", ok,
        f"endpoints exact: {endpoints_exact}, spike in {int(sum(spikes))}/7 seeds",
    )


def test_criterion_8_determinism_and_persistence(tmp_path):
    started = time.perf_counter()

    # rerun a checked-in recipe twice; snapshots must be byte-identical
    recipe = REPO / "recipes" / "correlation" / "cyclic.cfg"
    workdirs = []
    for name in ("first", "second"):
        wd = tmp_path / name
        wd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "snapens", "train", str(recipe)],
            cwd=wd, env=subprocess_env(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        workdirs.append(wd / "runs" / "correlation_cyclic")
    snap_names = sorted(p.name for p in workdirs[0].glob("*.snap"))
    rerun_identical = len(snap_names) == 6 and all(
        (workdirs[0] / n).read_bytes() == (workdirs[1] / n).read_bytes() for n in snap_names
    )

    # round-trip >= 100 random records and manifests bit-exactly
    rng = np.random.default_rng(88)
    round_trips_ok = True
    for case in range(110):
        depth = int(rng.integers(2, 5))
        sizes = tuple(int(rng.integers(1, 7)) for _ in range(depth))
        spec = ModelSpec(sizes, dropout_rate=float(rng.uniform(0.0, 0.9)))
        record = SnapshotRecord(
            spec,
            rng.normal(scale=float(rng.uniform(0.1, 10)), size=param_count(spec)),
            int(rng.integers(1, 50)),
            int(rng.integers(1, 10**6)),
            float(rng.normal()),
            rng.bytes(16),
        )
        path = tmp_path / f"case_{case}.snap"
        write_snapshot(record, path)
        back = read_snapshot(path)
        round_trips_ok &= back.spec == record.spec
        round_trips_ok &= back.params.tobytes() == record.params.tobytes()
        round_trips_ok &= back.train_loss == record.train_loss
        round_trips_ok &= back.config_digest == record.config_digest
        manifest = ManifestFile(record.config_digest, (path.name,))
        manifest_path = tmp_path / f"case_{case}.manifest"
        write_manifest(manifest, manifest_path)
        round_trips_ok &= read_manifest(manifest_path) == manifest

    elapsed = time.perf_counter() - started
    ok = rerun_identical and round_trips_ok and elapsed < 10.0
    assert record_criterion(
        8, "recipe reruns byte-identical; round-trips bit-exact", ok,
        f"rerun identical: {rerun_identical}, 110 round-trips ok: {round_trips_ok}, {elapsed:.1f}s",
    )


def test_criterion_9_vary_cycle_sweep(tmp_path):
    summary = tmp_path / "summary.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "snapens", "sweep",
            str(REPO / "recipes" / "vary_cycles"), "--summary", str(summary),
        ],
        cwd=tmp_path, env=subprocess_env(), capture_output=True, text=True,
    )
    rows = summary.read_text().splitlines() if summary.exists() else []
    header_ok = bool(rows) and rows[0] == "config,mode,epochs,m,ensemble_error"
    cells = [r.split(",") for r in rows[1:]]
    m_values = sorted(int(c[3]) for c in cells) if cells else []
    errors = {int(c[3]): float(c[4]) for c in cells} if cells else {}
    ok = proc.returncode == 0 and header_ok and m_values == [2, 4, 6, 8, 10]
    spread = (max(errors.values()) - min(errors.values())) if errors else float("nan")
    assert record_criterion(
        9, "varying-M sweep emits one row per M", ok,
        f"errors {', '.join(f'M={m}: {errors[m]:.4f}' for m in sorted(errors))}; "
        f"best-worst spread {spread:.4f}",
    )
