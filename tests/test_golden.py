"""Golden bytes: every checked-in recipe trains to pinned snapshot bytes.

Each entry maps a recipe under `recipes/` to two blake2b-8 digests: one of
the concatenated float64 bytes of its snapshot parameters, one of the repr
of its per-epoch losses and epoch-end learning rates (what `loss.csv`
holds). `GOLDEN_CSV` pins the `save_csv` bytes of each recipe's train and
test split (what `train.csv` and `test.csv` hold). A change that moves any
digest changes what `train` writes; if that is intended, record it and
re-pin the table.
"""
import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import subprocess_env
from snapens.config import build_datasets, parse_config, resolve_train_config
from snapens.data import Dataset, save_csv
from snapens.trainer import config_digest, train

RECIPES = Path(__file__).resolve().parents[1] / "recipes"

GOLDEN = {
    "baselines/dropout.cfg": ("942c9e92b448d363", "3006d43718dbb563"),
    "baselines/nocycle.cfg": ("0b83d4d0a7b1ee7b", "eb3830ad3d927546"),
    "baselines/single.cfg": ("124eff429be10578", "eb3830ad3d927546"),
    "baselines/singlecycle.cfg": ("814a1eaf07cc4bbc", "2b32e340d5266ab9"),
    "baselines/snapshot.cfg": ("81b0eedc8f60ff45", "c12c46421bc383a2"),
    "budget_sweep/b030_singlecycle.cfg": ("449fd6be61fd1370", "f0e3e3ee819a3d2c"),
    "budget_sweep/b030_snapshot.cfg": ("e383b31353160b8e", "13ac419a7ffa1d4b"),
    "budget_sweep/b060_singlecycle.cfg": ("4f744a138d60f8a2", "2e9e26f19731a8fd"),
    "budget_sweep/b060_snapshot.cfg": ("dce69844c3914714", "6017167162293ae8"),
    "budget_sweep/b120_singlecycle.cfg": ("814a1eaf07cc4bbc", "2b32e340d5266ab9"),
    "budget_sweep/b120_snapshot.cfg": ("81b0eedc8f60ff45", "c12c46421bc383a2"),
    "correlation/cyclic.cfg": ("81b0eedc8f60ff45", "c12c46421bc383a2"),
    "correlation/nocycle.cfg": ("0b83d4d0a7b1ee7b", "eb3830ad3d927546"),
    "error_curve.cfg": ("81b0eedc8f60ff45", "c12c46421bc383a2"),
    "interpolation.cfg": ("81b0eedc8f60ff45", "c12c46421bc383a2"),
    "size_sweep.cfg": ("81b0eedc8f60ff45", "c12c46421bc383a2"),
    "true_ensemble/seed101.cfg": ("c93d0c6cc09dcc3c", "f0bace3173361d6e"),
    "true_ensemble/seed102.cfg": ("26ba8a345ca42d03", "3ef34fe26d7e8a46"),
    "true_ensemble/seed103.cfg": ("979e417111c7b4f8", "f11020ec0f7cfb25"),
    "vary_cycles/m02.cfg": ("8531f59a8afde6cf", "d63fe9ee7d7126e8"),
    "vary_cycles/m04.cfg": ("a58a172905416e09", "5ad7886a6c427b7b"),
    "vary_cycles/m06.cfg": ("dce69844c3914714", "6017167162293ae8"),
    "vary_cycles/m08.cfg": ("84db721679846d16", "a22b63b5b68f1e17"),
    "vary_cycles/m10.cfg": ("1becacca06863f38", "72ede99fdcf13dd7"),
}

# Every recipe reads the same spirals source (n=2000, seed 0, half for
# training, split seed 0), so all of them share one (train.csv, test.csv) pair.
SPIRALS_CSV = ("9bd769b4f10a8d64", "69b4c8141a3842f9")
GOLDEN_CSV = dict.fromkeys(GOLDEN, SPIRALS_CSV)
GOLDEN_IDX_CSV = "48505977a5bd6f95"

DIGEST_SCRIPT = """
import hashlib, sys
from snapens.config import build_datasets, parse_config, resolve_train_config
from snapens.trainer import train
cfg = parse_config(sys.argv[1])
train_set, _ = build_datasets(cfg)
manifest = train(resolve_train_config(cfg, len(train_set)), train_set)
blob = b"".join(r.params.tobytes() for r in manifest.snapshots)
print(hashlib.blake2b(blob, digest_size=8).hexdigest())
"""


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


_TRAINED = {}  # (config digest, training-data digest) -> run digests


def run_digests(recipe: Path) -> tuple[str, str]:
    """Digests of one recipe's run; recipes that differ only in output.dir
    resolve to the same config and data, so each distinct run trains once."""
    cfg = parse_config(recipe)
    train_set, _ = build_datasets(cfg)
    config = resolve_train_config(cfg, len(train_set))
    key = (
        config_digest(config),
        _digest(train_set.inputs.tobytes() + train_set.labels.tobytes()),
    )
    if key not in _TRAINED:
        manifest = train(config, train_set)
        params = _digest(b"".join(r.params.tobytes() for r in manifest.snapshots))
        history = _digest(repr((manifest.epoch_losses, manifest.epoch_end_lrs)).encode())
        _TRAINED[key] = (params, history)
    return _TRAINED[key]


def csv_digest(dataset: Dataset) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "split.csv"
        save_csv(dataset, path)
        return _digest(path.read_bytes())


def idx_style_dataset() -> Dataset:
    """Seeded 300-image, 784-pixel set scaled as `load_idx` scales it
    (uint8 / 255), holding both 0.0 and 1.0; its CSV spans several blocks."""
    rng = np.random.default_rng(20170401)
    pixels = rng.integers(0, 256, (300, 784), dtype=np.uint8)
    pixels[0, :2] = (0, 255)
    labels = rng.integers(0, 10, 300)
    labels[0] = 9
    return Dataset(pixels.astype(np.float64) / 255.0, labels, 10)


def test_golden_table_covers_every_recipe():
    found = sorted(p.relative_to(RECIPES).as_posix() for p in RECIPES.rglob("*.cfg"))
    assert found == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_recipe_bytes_match_golden(name):
    assert run_digests(RECIPES / name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_recipe_csv_bytes_match_golden(name):
    train_set, test_set = build_datasets(parse_config(RECIPES / name))
    assert (csv_digest(train_set), csv_digest(test_set)) == GOLDEN_CSV[name]


def test_idx_style_csv_bytes_match_golden():
    assert csv_digest(idx_style_dataset()) == GOLDEN_IDX_CSV


def test_snapshot_bytes_do_not_depend_on_blas_threads():
    recipe = RECIPES / "baselines" / "snapshot.cfg"
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", DIGEST_SCRIPT, str(recipe)],
            env=subprocess_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests == [GOLDEN["baselines/snapshot.cfg"][0]] * 2
