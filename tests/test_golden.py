"""Golden bytes: every checked-in recipe trains to pinned snapshot bytes.

Each entry maps a recipe under `recipes/` to two blake2b-8 digests: one of
the concatenated float64 bytes of its snapshot parameters, one of the repr
of its per-epoch losses and epoch-end learning rates (what `loss.csv`
holds). `GOLDEN_CSV` pins the `save_csv` bytes of each recipe's train and
test split (what `train.csv` and `test.csv` hold), and `GOLDEN_CONFIG_DIGEST`
the `config_digest` each recipe's snapshot headers and manifest carry. A
change that moves any digest changes what `train` writes; if that is
intended, record it and re-pin the table. `GOLDEN_EVAL` pins the bytes the eval commands write on
two trained runs, so it guards the eval path the same way.
"""
import hashlib
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from conftest import subprocess_env
from oracles import write_idx_pair
from snapens.cli import main
from snapens.config import build_datasets, parse_config, resolve_train_config
from snapens.data import Dataset, save_csv
from snapens.process import blas_core_type
from snapens.store import load_run
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

# blake2b-16 `config_digest` of each recipe's resolved training config.
GOLDEN_CONFIG_DIGEST = {
    "baselines/dropout.cfg": "a499157572a5b03a5dc0a101bc752464",
    "baselines/nocycle.cfg": "7e37b84511e9039013a09328a4e5dbe3",
    "baselines/single.cfg": "15c01b5eb2dc7cd08c3a77baae2b7793",
    "baselines/singlecycle.cfg": "aa0b84b22bfcfc452bd63733979374a5",
    "baselines/snapshot.cfg": "5588cb2945051b00338e2b051c9f2f03",
    "budget_sweep/b030_singlecycle.cfg": "80ca19b4fbb9d835fb93327d4970121e",
    "budget_sweep/b030_snapshot.cfg": "33822e3243554089db6665910f1b4b23",
    "budget_sweep/b060_singlecycle.cfg": "656e9fba4e480848ee5821bdf3349541",
    "budget_sweep/b060_snapshot.cfg": "020ed20f0b17ed47c714353e9b0db3c9",
    "budget_sweep/b120_singlecycle.cfg": "aa0b84b22bfcfc452bd63733979374a5",
    "budget_sweep/b120_snapshot.cfg": "5588cb2945051b00338e2b051c9f2f03",
    "correlation/cyclic.cfg": "5588cb2945051b00338e2b051c9f2f03",
    "correlation/nocycle.cfg": "7e37b84511e9039013a09328a4e5dbe3",
    "error_curve.cfg": "5588cb2945051b00338e2b051c9f2f03",
    "interpolation.cfg": "5588cb2945051b00338e2b051c9f2f03",
    "size_sweep.cfg": "5588cb2945051b00338e2b051c9f2f03",
    "true_ensemble/seed101.cfg": "97d2b8470f70ba9873b284e8c957c719",
    "true_ensemble/seed102.cfg": "357fc7a5962d5cc4817a6b33aa3aba6e",
    "true_ensemble/seed103.cfg": "a40851c8981b187d0308f7089b8fd761",
    "vary_cycles/m02.cfg": "c133d3577f7f93df32dc8ebed92de269",
    "vary_cycles/m04.cfg": "65af7f66a303fa0941cd18f760a49bc4",
    "vary_cycles/m06.cfg": "020ed20f0b17ed47c714353e9b0db3c9",
    "vary_cycles/m08.cfg": "85d0b09d99a3820ead6c8fc64eb2fbdd",
    "vary_cycles/m10.cfg": "165d1c2db915afd1296918baf37883a9",
}

DIGEST_SCRIPT = """
import hashlib, sys
from snapens.cli import main
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
    assert run_digests(RECIPES / name) == GOLDEN[name], f"BLAS core type {blas_core_type()}"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_recipe_csv_bytes_match_golden(name):
    train_set, test_set = build_datasets(parse_config(RECIPES / name))
    assert (csv_digest(train_set), csv_digest(test_set)) == GOLDEN_CSV[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_recipe_config_digest_matches_golden(name):
    cfg = parse_config(RECIPES / name)
    train_set, _ = build_datasets(cfg)
    assert config_digest(resolve_train_config(cfg, len(train_set))).hex() == GOLDEN_CONFIG_DIGEST[name]


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
    assert digests == [GOLDEN["baselines/snapshot.cfg"][0]] * 2, f"BLAS core type {blas_core_type()}"


# blake2b-8 of what each eval command writes (a file, or a directory's files
# in name order). `error_curve` is recipes/error_curve.cfg: 2-64-64-2 on
# 1 000 test rows. `idx_style` trains 784-32-32-10 on a seeded IDX pair of
# 1 200 images, half of them test rows. The digests are those of one BLAS
# thread, as the tests and the `snapens` command run: OpenBLAS rounds the
# eval pass's 512x784 @ 784x32 product differently at two threads, which
# `correlate` prints at full precision.
GOLDEN_EVAL = {
    "error_curve": {
        "ensemble": "73049d24e4cca142",
        "ensemble_m": "56413e0e85bdf224",
        "curve": "f18521770fc027e3",
        "correlate": "be13bef03f6a7ecb",
        "interpolate": "c2aa619a25ce7936",
    },
    "idx_style": {
        "ensemble": "5d6a1c947eb7b282",
        "ensemble_m": "d6f180f6cd3c3e13",
        "curve": "2840b5be8f888352",
        "correlate": "b0e760d259d900c3",
        "interpolate": "6213628347c4c1ea",
    },
}


def tree_digest(path: Path) -> str:
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    return _digest(b"".join(f.name.encode() + b"\0" + f.read_bytes() for f in files))


def eval_output_digests(run_dir: Path, out: Path, run=main) -> dict[str, str]:
    inputs = ["--manifest", str(run_dir / "run.manifest"), "--data", str(run_dir / "test.csv")]
    commands = {
        "ensemble": ["ensemble"],
        "ensemble_m": ["ensemble", "--m", "3"],
        "curve": ["curve"],
        "correlate": ["correlate"],
        "interpolate": ["interpolate", "--against-final", "--points", "11"],
    }
    digests = {}
    for name, (command, *options) in commands.items():
        assert run([command, *inputs, *options, "--out", str(out / name)]) == 0
        digests[name] = tree_digest(out / name)
    return digests


def write_idx_style_pair(directory: Path) -> tuple[Path, Path]:
    """Seeded 1 200 noisy 28x28 uint8 images of 10 classes; each class
    brightens its own 7x7 tile."""
    rng = np.random.default_rng(20170402)
    pixels = rng.integers(0, 150, (1200, 28, 28), dtype=np.uint8)
    labels = rng.integers(0, 10, 1200).astype(np.uint8)
    for k in range(10):
        rows = labels == k
        pixels[rows, (k // 4) * 7 : (k // 4) * 7 + 7, (k % 4) * 7 : (k % 4) * 7 + 7] += 105
    paths = directory / "images.idx", directory / "labels.idx"
    write_idx_pair(*paths, pixels, labels)
    return paths


IDX_STYLE_CFG = """\
model.layers = 784,32,32,10
schedule.kind = cyclic_cosine
schedule.alpha0 = 0.1
schedule.cycles = 4
train.mode = snapshot
train.epochs = 8
train.batch_size = 64
train.seed = 7
data.source = idx
data.params = images={images},labels={labels},train_fraction=0.5,split_seed=3
output.dir = {out}
"""


@pytest.mark.parametrize("name", sorted(GOLDEN_EVAL))
def test_eval_output_bytes_match_golden(name, tmp_path):
    cfg = tmp_path / "run.cfg"
    run_dir = tmp_path / "run"
    if name == "error_curve":
        text = (RECIPES / "error_curve.cfg").read_text()
        cfg.write_text(text.replace("output.dir = runs/error_curve", f"output.dir = {run_dir}"))
    else:
        images, labels = write_idx_style_pair(tmp_path)
        cfg.write_text(IDX_STYLE_CFG.format(images=images, labels=labels, out=run_dir))
    assert main(["train", str(cfg)]) == 0
    out = tmp_path / "out"
    out.mkdir()
    assert eval_output_digests(run_dir, out) == GOLDEN_EVAL[name], f"BLAS core type {blas_core_type()}"


def snapens_exit_code(argv, cwd) -> int:
    return subprocess.run([sys.executable, "-m", "snapens", *argv], cwd=cwd, env=subprocess_env(),
                          capture_output=True, timeout=120).returncode


def test_the_process_entry_writes_the_golden_bytes(tmp_path):
    """`python -m snapens` runs with the process settings of its entry, which
    the in-process `main` calls above never make; its `train` of one recipe
    and the eval commands on that run write the bytes pinned above."""
    name = "error_curve.cfg"
    run_dir = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text((RECIPES / name).read_text().replace("output.dir = runs/error_curve", f"output.dir = {run_dir}"))
    run = partial(snapens_exit_code, cwd=tmp_path)
    assert run(["train", str(cfg)]) == 0
    params = _digest(b"".join(record.params.tobytes() for record in load_run(run_dir / "run.manifest")))
    rows = [line.split(",") for line in (run_dir / "loss.csv").read_text().splitlines()[1:]]
    history = _digest(repr(([float(row[1]) for row in rows], [float(row[2]) for row in rows])).encode())
    assert (params, history) == GOLDEN[name], f"BLAS core type {blas_core_type()}"
    splits = tuple(_digest((run_dir / split).read_bytes()) for split in ("train.csv", "test.csv"))
    assert splits == GOLDEN_CSV[name]
    out = tmp_path / "out"
    out.mkdir()
    assert eval_output_digests(run_dir, out, run) == GOLDEN_EVAL["error_curve"], f"BLAS core type {blas_core_type()}"
