"""Checks of the program's outputs against the oracle and the method's properties.

Every check returns (name, ok, detail) and never raises: a missing or
malformed output is a failed check. Parsed files and oracle predictions are
kept per content digest, so a round that reproduces the bytes of an earlier
round is checked without parsing them again.
"""
from __future__ import annotations

import csv
import math
import os
import struct
from collections import Counter

import numpy as np

import oracle

STEP_FRACTIONS = ((0.5, 0.1), (0.75, 0.1))  # snapens' default step schedule


class Oracle:
    """Oracle results for files, memoised by the digest of their bytes."""

    def __init__(self):
        self._tables = {}
        self._snaps = {}
        self._probs = {}
        self._stamps = {}  # (path, inode, mtime, size) -> digest
        self.snapshot_digests = {}  # run directory name -> snapshot digests seen

    def record(self, run_dir):
        """Note the snapshot bytes of a run, to compare them across repetitions."""
        digests = tuple(key for key, _ in self.run(run_dir))
        self.snapshot_digests.setdefault(os.path.basename(run_dir), set()).add(digests)

    def _digest(self, path):
        """(digest, bytes or None) of a file; bytes are read only for a new version.

        A file rewritten since it was last read has a new mtime, so checks made
        after a round of commands always see that round's bytes.
        """
        st = os.stat(path)
        stamp = (os.fspath(path), st.st_ino, st.st_mtime_ns, st.st_size)
        if stamp in self._stamps:
            return self._stamps[stamp], None
        with open(path, "rb") as fh:
            blob = fh.read()
        self._stamps[stamp] = oracle.digest(blob)
        return self._stamps[stamp], blob

    def table(self, path):
        """(digest, header, inputs, labels) of a dataset CSV written by snapens."""
        key, blob = self._digest(path)
        if key not in self._tables:
            if blob is None:
                with open(path, "rb") as fh:
                    blob = fh.read()
            header, values = oracle.parse_table(blob)
            label = header.index("label")
            inputs = np.delete(values, label, axis=1)
            self._tables[key] = (key, header, inputs, values[:, label].astype(np.int64))
        return self._tables[key]

    def run(self, run_dir):
        """[(digest, parsed snapshot)] in manifest order."""
        with open(os.path.join(run_dir, "run.manifest"), encoding="utf-8") as fh:
            names = oracle.parse_manifest(fh.read())
        out = []
        for name in names:
            path = os.path.join(run_dir, name)
            key, blob = self._digest(path)
            if key not in self._snaps:
                if blob is None:
                    with open(path, "rb") as fh:
                        blob = fh.read()
                self._snaps[key] = oracle.parse_snapshot(blob)
            out.append((key, self._snaps[key]))
        return out

    def probs(self, snap, data, lam=1.0, other=None):
        """Softmax outputs of snap, or of lam * snap + (1 - lam) * other."""
        key = (snap[0], data[0]) if other is None else (snap[0], other[0], lam, data[0])
        if key not in self._probs:
            params = snap[1]["params"]
            if other is not None:
                params = lam * params + (1.0 - lam) * other[1]["params"]
            self._probs[key] = oracle.probabilities(snap[1]["layer_sizes"], params, data[2])
        return self._probs[key]


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def guarded(name, fn):
    """Run one check; an exception is a failure with its message as detail."""
    try:
        problem = fn()
    except Exception as exc:  # any error while checking means the output is wrong
        problem = f"{type(exc).__name__}: {exc}"
    return (name, problem is None, problem)


def run_dir_checks(orc, run_dir, meta):
    """Snapshot schedule, loss history and repeatability of one training run.

    meta: mode, cycles (M), epochs, batch_size, alpha0, n_train, layers.
    """
    name = os.path.basename(run_dir)
    batches = math.ceil(meta["n_train"] / meta["batch_size"])
    total = meta["epochs"] * batches

    def snapshots():
        snaps = orc.run(run_dir)
        count = 1 if meta["mode"] == "single" else meta["cycles"]
        if len(snaps) != count:
            return f"{len(snaps)} snapshots, mode {meta['mode']} needs {count}"
        expected = oracle.snapshot_iterations(meta["mode"], total, count)
        got = [s["iteration"] for _, s in snaps]
        if got != expected:
            return f"snapshot iterations {got}, T={total} gives {expected}"
        if [s["cycle_index"] for _, s in snaps] != list(range(1, count + 1)):
            return "cycle indices are not 1..M"
        if any(s["layer_sizes"] != meta["layers"] for _, s in snaps):
            return "layer sizes differ from the config"
        orc.record(run_dir)
        return None

    def loss_history():
        rows = _rows(os.path.join(run_dir, "loss.csv"))
        if rows[0] != ["epoch", "mean_train_loss", "lr_at_epoch_end"] or len(rows) != meta["epochs"] + 1:
            return f"loss.csv has header {rows[0]} and {len(rows) - 1} epochs"
        for epoch, _, lr in rows[1:]:
            t = int(epoch) * batches
            if meta["mode"] in ("snapshot", "singlecycle"):
                want = oracle.cosine_lr(meta["alpha0"], total, meta["cycles"], t)
            else:
                want = oracle.step_lr(meta["alpha0"], total, STEP_FRACTIONS, t)
            if not math.isclose(float(lr), want, rel_tol=1e-12, abs_tol=1e-300):
                return f"epoch {epoch}: lr {lr}, closed form gives {want!r}"
        if not float(rows[-1][1]) < float(rows[1][1]):
            return f"final-epoch loss {rows[-1][1]} is not below the first epoch's {rows[1][1]}"
        return None

    def repeatable():
        seen = orc.snapshot_digests.get(name, set())
        return None if len(seen) == 1 else f"{len(seen)} distinct snapshot byte sets across repetitions"

    return [
        guarded(f"{name}: snapshot count and iterations", snapshots),
        guarded(f"{name}: loss.csv learning rates and loss drop", loss_history),
        guarded(f"{name}: snapshot bytes repeat", repeatable),
    ]


def ensemble_probs(orc, run_dir, data):
    return [orc.probs(snap, data) for snap in orc.run(run_dir)]


def analysis_checks(orc, run_dir, out_dir, m):
    """Outputs of `ensemble` (sweep and --m), `curve`, `correlate`, `interpolate`."""
    test_csv = os.path.join(run_dir, "test.csv")

    def m_sweep():
        data = orc.table(test_csv)
        probs = ensemble_probs(orc, run_dir, data)
        rows = _rows(os.path.join(out_dir, "ensemble_sweep.csv"))
        if rows[0] != ["m", "ensemble_error"] or [int(r[0]) for r in rows[1:]] != list(range(1, len(probs) + 1)):
            return f"unexpected m-sweep layout {rows[:2]}..."
        for k, err in rows[1:]:
            if not oracle.error_matches(float(err), oracle.average(probs[-int(k):]), data[3]):
                return f"m={k}: ensemble error {err} disagrees with the oracle"
        return None

    def m_fixed():
        data = orc.table(test_csv)
        probs = ensemble_probs(orc, run_dir, data)[-m:]
        header, row = _rows(os.path.join(out_dir, "ensemble_m.csv"))
        if header[:2] != ["m", "ensemble_error"] or int(row[0]) != m or len(row) != m + 2:
            return f"unexpected --m layout {header} / {row[:2]}"
        if not oracle.error_matches(float(row[1]), oracle.average(probs), data[3]):
            return f"ensemble error {row[1]} disagrees with the oracle"
        for i, err in enumerate(row[2:]):
            if not oracle.error_matches(float(err), probs[i], data[3]):
                return f"member {i + 1} error {err} disagrees with the oracle"
        return None

    def curve():
        data = orc.table(test_csv)
        probs = ensemble_probs(orc, run_dir, data)
        rows = _rows(os.path.join(out_dir, "curve.csv"))
        if rows[0] != ["k", "single_error", "ensemble_error"] or len(rows) != len(probs) + 1:
            return f"unexpected curve layout {rows[0]} with {len(rows) - 1} rows"
        for k, single, ensembled in rows[1:]:
            k = int(k)
            if not oracle.error_matches(float(single), probs[k - 1], data[3]):
                return f"k={k}: single error {single} disagrees with the oracle"
            if not oracle.error_matches(float(ensembled), oracle.average(probs[:k]), data[3]):
                return f"k={k}: ensemble error {ensembled} disagrees with the oracle"
        return None

    def correlation():
        data = orc.table(test_csv)
        probs = ensemble_probs(orc, run_dir, data)
        want = np.corrcoef(np.stack([p.ravel() for p in probs]))
        matrix = _rows(os.path.join(out_dir, "corr", "corr_matrix.csv"))
        got = np.array(matrix[1:], dtype=np.float64)
        triples = _rows(os.path.join(out_dir, "corr", "corr_triples.csv"))[1:]
        by_triple = np.zeros_like(want)
        for i, j, r in triples:
            by_triple[int(i) - 1, int(j) - 1] = float(r)
        if got.shape != want.shape or len(triples) != want.size:
            return f"correlation shapes {got.shape}, {len(triples)} triples; oracle {want.shape}"
        worst = max(np.abs(got - want).max(), np.abs(by_triple - want).max())
        return None if worst <= 1e-9 else f"correlation differs from np.corrcoef by {worst:.3g}"

    def interpolation():
        data = orc.table(test_csv)
        snaps = orc.run(run_dir)
        count = len(snaps)
        for k in range(1, count):
            rows = _rows(os.path.join(out_dir, "interp", f"interp_{count:03d}_{k:03d}.csv"))[1:]
            lambdas = [float(r[0]) for r in rows]
            if lambdas[0] != 0.0 or lambdas[-1] != 1.0:
                return f"pair ({count}, {k}): lambda grid {lambdas}"
            for pick in sorted({0, 1, len(rows) // 2, len(rows) - 1}):
                lam, err = float(rows[pick][0]), float(rows[pick][1])
                if not oracle.error_matches(err, orc.probs(snaps[-1], data, lam, snaps[k - 1]), data[3]):
                    return f"pair ({count}, {k}), lambda {lam}: error {err} disagrees with the oracle"
        return None

    return [
        guarded("ensemble m-sweep errors", m_sweep),
        guarded(f"ensemble --m {m} errors", m_fixed),
        guarded("curve rows", curve),
        guarded("correlation matrix", correlation),
        guarded("interpolation errors", interpolation),
    ]


def sweep_summary_checks(orc, summary, runs):
    """One check per config: its summary row against the run's oracle error.

    runs: [(config name, run directory, meta)] in sorted config order.
    """
    def row_check(index, name, run_dir, meta):
        def check():
            rows = _rows(summary)
            if rows[0] != ["config", "mode", "epochs", "m", "ensemble_error"] or len(rows) != len(runs) + 1:
                return f"summary header {rows[0]} with {len(rows) - 1} rows"
            config, mode, epochs, m, err = rows[index + 1]
            want_m = 1 if meta["mode"] == "single" else meta["cycles"]
            if (config, mode, int(epochs), int(m)) != (name, meta["mode"], meta["epochs"], want_m):
                return f"row {rows[index + 1]} does not describe {name}"
            data = orc.table(os.path.join(run_dir, "test.csv"))
            probs = ensemble_probs(orc, run_dir, data)
            if not oracle.error_matches(float(err), oracle.average(probs), data[3]):
                return f"ensemble error {err} disagrees with the oracle"
            return None

        return check

    return [
        guarded(f"summary row {name}", row_check(i, name, run_dir, meta))
        for i, (name, run_dir, meta) in enumerate(runs)
    ]


def read_idx(images_path, labels_path):
    """(pixels / 255, labels) of an IDX pair, parsed by the IDX layout."""
    with open(images_path, "rb") as fh:
        blob = fh.read()
    _, count, rows, cols = struct.unpack(">IIII", blob[:16])
    pixels = np.frombuffer(blob[16:], np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as fh:
        labels = np.frombuffer(fh.read()[8:], np.uint8)
    return pixels.astype(np.float64) / 255.0, labels.astype(np.int64)


def split_checks(orc, run_dir, images, labels, n_train):
    """The train and test CSVs together hold every generated example once."""

    def check():
        train = orc.table(os.path.join(run_dir, "train.csv"))
        test = orc.table(os.path.join(run_dir, "test.csv"))
        if (len(train[3]), len(test[3])) != (n_train, len(labels) - n_train):
            return f"split sizes {len(train[3])}/{len(test[3])}, expected {n_train}/{len(labels) - n_train}"

        def keyed(inputs, labs):
            return Counter(row.tobytes() + bytes([lab]) for row, lab in zip(inputs, labs))

        want = keyed(images, labels)
        got = keyed(train[2], train[3]) + keyed(test[2], test[3])
        return None if got == want else "split CSVs do not hold each generated example exactly once"

    return [guarded("split CSVs hold every image once", check)]


def oracle_self_check():
    problems = oracle.self_check()
    return [("oracle hand-worked case", not problems, "; ".join(problems) or None)]
