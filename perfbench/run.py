#!/usr/bin/env python3
"""snapens benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from `src/` beside this directory
and every file the run writes goes under `.bench_work/` (removed when the run
ends) and, for traced runs, `.bench_traces/`. Set-up writes the seeded
inputs and starts the CLI, nine times over; rounds of the workload's
commands then repeat until another round would overrun S seconds, and at
least one round runs. Each snapens command and each output check is one
operation.

--trace 0 runs every command as its own `python -m snapens` process and
reports the end-to-end metrics: each command's wall time, from spawn to
exit, over the wall time of a fixed reference program run in the same
round, median over rounds, times REFERENCE_S. --trace 1 runs the same commands in one child process
through `snapens.cli.main`, alternating an untraced pass with a traced one,
and reports the per-layer metrics. BLAS is fixed to one thread in every
child's environment. The last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_traces"
SETUP_REPEATS = 9
IMPORT_PROBES = 3
RUN_LIMIT_S = 170  # a run must end within 180 s, whatever the program does
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# A fixed Python and numpy program, independent of snapens, run once in every
# round: small-matrix steps like a spirals step, then 256x784 matmuls like a
# wide-idx step. Its wall time tracks how fast the shared host runs right
# now, and each command's time is divided by it (see README.md).
REFERENCE = """
import numpy as np
rng = np.random.default_rng(0)
x, w1, w2 = rng.standard_normal((64, 2)), rng.standard_normal((2, 64)), rng.standard_normal((64, 64))
big, wide = rng.standard_normal((256, 784)), rng.standard_normal((784, 256))
total = 0.0
for _ in range(1000):
    a = np.maximum(x @ w1, 0.0)
    total += float((a.T @ np.maximum(a @ w2, 0.0)).sum())
for _ in range(10):
    total += float((big @ wide).sum())
"""
REFERENCE_S = 0.2  # times are stated at the host speed where REFERENCE takes this long

# Runs `python -m snapens ARGS` and, at exit, writes the process's VmHWM to
# the file named first. The kernel's ru_maxrss would also count the memory of
# the benchmark process that spawned it, which grows with the oracle's caches.
LAUNCH = """
import atexit, runpy, sys
def report(path=sys.argv[1]):
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w") as fh:
        fh.write(kb)
atexit.register(report)
sys.argv = ["snapens"] + sys.argv[2:]
runpy.run_module("snapens", run_name="__main__", alter_sys=True)
"""

class Runner:
    """Starts snapens processes in one working directory and tallies operations."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, **BLAS_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0

    def spawn(self, argv, stdout_path=None):
        """(exit code, wall seconds) of one child process."""
        log = self.workdir / "commands.log"
        with open(log, "ab") as err, open(stdout_path or log, "ab") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            watchdog.start()
            try:
                _, status = os.waitpid(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall

    def snapens(self, label, argv):
        """Run one snapens command as one operation; returns (ok, wall seconds)."""
        rss_path = self.workdir / "vmhwm.kb"
        rss_path.unlink(missing_ok=True)
        code, wall = self.spawn([sys.executable, "-c", LAUNCH, str(rss_path), *argv])
        if rss_path.exists():
            self.peak_rss_mb = max(self.peak_rss_mb, int(rss_path.read_text()) / 1024.0)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"FAILED command {label}: exit code {code} (see {self.workdir / 'commands.log'})")
        return code == 0, wall

    def tally(self, results):
        for name, ok, detail in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"FAILED check {name}: {detail}")
        return sum(ok for _, ok, _ in results)


def clear(workdir, names):
    for name in names:
        shutil.rmtree(workdir / name, ignore_errors=True)
        (workdir / name).mkdir()


def tree_mb(workdir, names):
    return sum(p.stat().st_size for name in names for p in (workdir / name).rglob("*") if p.is_file()) / 1e6


def reference_time(runner):
    """Wall time of one run of REFERENCE."""
    code, wall = runner.spawn([sys.executable, "-c", REFERENCE])
    if code != 0:
        raise SystemExit(f"the reference program exited with {code}")
    return wall


def setup(wl, runner):
    """Write the inputs and start the CLI once; returns the seconds taken."""
    start = time.perf_counter()
    shutil.rmtree(runner.workdir, ignore_errors=True)
    runner.workdir.mkdir()
    wl.make_inputs(runner.workdir)
    code, _ = runner.spawn([sys.executable, "-m", "snapens", "--help"])
    if code != 0:
        raise SystemExit(f"set-up failed: `snapens --help` exited with {code}")
    return time.perf_counter() - start


def scale(times, references):
    """Median of each time over the reference time measured beside it, in REFERENCE_S units."""
    return statistics.median(t / r for t, r in zip(times, references)) * REFERENCE_S


def rounds(seconds, body):
    """Call body() until another call, as long as the last, would end after `seconds`."""
    start = time.perf_counter()
    last = 0.0
    count = 0
    while count == 0 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        body()
        last = time.perf_counter() - began
        count += 1
    return count


def run_untraced(wl, base, seconds, deadline):
    orc = checks.Oracle()
    runner = Runner(base / "ws", deadline)
    setup_times, setup_references = [], []
    for _ in range(SETUP_REPEATS):
        setup_times.append(setup(wl, runner))
        setup_references.append(reference_time(runner))
    walls = {label: [] for label, _ in wl.round_commands}
    walls["reference"] = []
    dir_mb = []

    def one_round():
        clear(runner.workdir, wl.output_dirs)
        walls["reference"].append(reference_time(runner))
        for label, argv in wl.round_commands:
            walls[label].append(runner.snapens(label, argv)[1])
        began = time.perf_counter()
        passed = runner.tally(wl.checks(orc, runner.workdir))
        dir_mb.append(tree_mb(runner.workdir, wl.output_dirs))
        line = " ".join(f"{label}={values[-1]:.4f}s" for label, values in walls.items())
        print(f"round {len(dir_mb)}: {line} checks_passed={passed} ({time.perf_counter() - began:.3f}s)")

    count = rounds(seconds, one_round)
    scaled = {label: scale(values, walls["reference"]) for label, values in walls.items()}
    for label, values in walls.items():
        print(f"{label}: scaled={scaled[label]:.4f}s median={statistics.median(values):.4f}s of {len(values)}")
    metrics = {
        "setup_s": scale(setup_times, setup_references),
        "train_s": scaled[wl.train_label],
        "train_iters_per_s": wl.train_iterations / scaled[wl.train_label],
        "ensemble_sweep_s": scaled["ensemble_sweep"],
        "ensemble_m_s": scaled["ensemble_m"],
        "curve_s": scaled["curve"],
        "correlate_s": scaled["correlate"],
        "interpolate_s": scaled["interpolate"],
        "peak_rss_mb": runner.peak_rss_mb,
        "run_dir_mb": statistics.median(dir_mb),
    }
    print(f"rounds={count} set-up times={[round(t, 3) for t in setup_times]} references={[round(t, 3) for t in setup_references]}")
    return runner, metrics


def layer_metrics(result):
    """Per-layer metrics of one traced pass, from the child's counters."""
    stats = result["stats"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0])[0]

    def self_per(name, scale):
        """Self seconds per unit of size (rows, points, iterations) times scale."""
        _, self_s, size = stats.get(name, [0, 0.0, 0])
        return self_s / size * scale if size else 0.0

    def per_call(name, scale):
        count, self_s, _ = stats.get(name, [0, 0.0, 0])
        return self_s / count * scale if count else 0.0

    loops = result["loops"]
    msweep = result["command_calls"].get("ensemble_sweep", {})
    return {
        "config.parse_config.us_per_call": per_call("config.parse_config", 1e6),
        "data.build_datasets.ms": per_call("config.build_datasets", 1e3),
        "data.save_csv.us_per_row": self_per("data.save_csv", 1e6),
        "data.load_csv.us_per_row": self_per("data.load_csv", 1e6),
        "data.load_idx.ms": per_call("data.load_idx", 1e3) if calls("data.load_idx") else loops["data.load_idx"],
        "nn.loss_and_grad.calls": calls("nn.loss_and_grad"),
        "nn.loss_and_grad.us_per_call": per_call("nn.loss_and_grad", 1e6),
        "nn.forward.calls": calls("nn.forward"),
        "nn.forward.us_per_krow": self_per("nn.forward", 1e9),
        "nn.evaluate_error.calls": calls("nn.evaluate_error"),
        "schedule.lr_at.calls": calls("schedule.lr_at"),
        "schedule.lr_at.us_per_call": loops["schedule.lr_at"],
        "trainer.sgd_step.calls": calls("trainer.sgd_step"),
        "trainer.sgd_step.us_per_call": per_call("trainer.sgd_step", 1e6),
        "trainer.derive_seed.calls": calls("trainer.derive_seed"),
        "trainer.derive_seed.us_per_call": loops["trainer.derive_seed"],
        "trainer.init_params.calls": calls("trainer.init_params"),
        "trainer.train.self_us_per_iter": self_per("trainer.train", 1e6),
        "store.write_snapshot.us_per_call": per_call("store.write_snapshot", 1e6),
        "store.write_snapshot.mb": stats.get("store.write_snapshot", [0, 0.0, 0])[2] / 1e6,
        "store.read_snapshot.us_per_call": per_call("store.read_snapshot", 1e6),
        "store.read_snapshot.mb": stats.get("store.read_snapshot", [0, 0.0, 0])[2] / 1e6,
        "ensemble.predict.calls": calls("ensemble.predict"),
        "ensemble.predict.msweep_calls": msweep.get("ensemble.predict", 0),
        "ensemble.ensemble_eval.ms": per_call("ensemble.ensemble_eval", 1e3),
        "ensemble.error_over_time.ms": per_call("ensemble.error_over_time", 1e3),
        "analysis.interpolate.ms_per_point": self_per("analysis.interpolate", 1e3),
        "analysis.softmax_correlation.ms": per_call("analysis.softmax_correlation", 1e3),
    }


def run_traced(wl, base, seconds, deadline):
    orc = checks.Oracle()
    runner = Runner(base / "ws", deadline)
    setup(wl, runner)
    idx_probe = None if wl.reads_idx else workloads.write_idx_probe(runner.workdir)
    commands = wl.round_commands
    TRACES.mkdir(exist_ok=True)
    walls = {False: [], True: []}
    passes = []
    import_ms = []
    probe = "import time; t = time.perf_counter(); import snapens.cli; print((time.perf_counter() - t) * 1e3)"

    def one_pass(traced):
        clear(runner.workdir, wl.output_dirs)
        spec = {
            "src": str(SRC),
            "cwd": str(runner.workdir),
            "commands": commands,
            "traced": traced,
            "spans_out": str(TRACES / f"{wl.name}.jsonl") if traced else None,
            "idx_probe": idx_probe,
        }
        spec_path = runner.workdir / "inproc.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out_path = runner.workdir / "inproc.out"
        out_path.unlink(missing_ok=True)
        code, _ = runner.spawn([sys.executable, str(Path(__file__).with_name("inproc.py")), str(spec_path)], out_path)
        lines = out_path.read_text(encoding="utf-8").splitlines()
        if code != 0 or not lines:
            raise SystemExit(f"in-process runner exited with {code}")
        result = json.loads(lines[-1])
        for (label, _), rc in zip(commands, result["codes"]):
            runner.attempted += 1
            if rc != 0:
                runner.failed += 1
                print(f"FAILED command {label}: exit code {rc}")
        passed = runner.tally(wl.checks(orc, runner.workdir))
        walls[traced].append(sum(result["wall_s"]))
        if traced:
            passes.append(result)
        print(f"{'traced' if traced else 'untraced'} pass: {sum(result['wall_s']):.3f}s checks_passed={passed}")

    def one_round():
        one_pass(False)
        one_pass(True)
        for _ in range(IMPORT_PROBES):
            code, _ = runner.spawn([sys.executable, "-c", probe], runner.workdir / "import.out")
            if code != 0:
                raise SystemExit(f"importing snapens.cli failed with {code}")
        import_ms.extend(float(x) for x in (runner.workdir / "import.out").read_text().split()[-IMPORT_PROBES:])

    count = rounds(seconds, one_round)
    per_pass = [layer_metrics(result) for result in passes]
    metrics = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if name.endswith("calls"):
            if len(set(values)) != 1:
                print(f"note: {name} differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["cli.import_ms"] = statistics.median(import_ms)
    metrics["trace.overhead_ratio"] = statistics.median(walls[True]) / statistics.median(walls[False])
    print(
        f"rounds={count} untraced pass={statistics.median(walls[False]):.3f}s "
        f"traced pass={statistics.median(walls[True]):.3f}s spans in {TRACES / (wl.name + '.jsonl')}"
    )
    m = wl.m
    print(f"m-sweep predict calls: {metrics['ensemble.predict.msweep_calls']} (M(M+1)/2 = {m * (m + 1) // 2})")
    return runner, metrics


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "child_blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "snapens" / "__init__.py").is_file():
        print(f"error: no snapens package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    wl = workloads.WORKLOADS[args.workload](args.seed)
    print("env: " + json.dumps(environment()))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{wl.name}-") as tmp:
        run = run_traced if args.trace else run_untraced
        runner, values = run(wl, Path(tmp), args.seconds, deadline)
    if set(values) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"{wl.name}: attempted={runner.attempted} failed={runner.failed}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
