"""Independent oracle for the benchmark's output checks.

Nothing here imports snapens. Snapshot and manifest files are parsed from
the byte format documented in snapens/store.py, the forward pass and the
softmax average are plain numpy, and learning rates and snapshot iterations
come from the closed forms stated in the paper and in snapens/schedule.py.
"""
from __future__ import annotations

import hashlib
import io
import math

import numpy as np

# Examples whose top two oracle probabilities lie within this distance may be
# scored either way: the program's float arithmetic can break such ties
# differently from the oracle's.
TIE_TOLERANCE = 1e-12


def digest(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def parse_snapshot(blob: bytes) -> dict:
    """Header fields plus `params` (float64) from the bytes of a .snap file."""
    sep = blob.index(b"\n\n")
    fields = dict(line.split("=", 1) for line in blob[:sep].decode("utf-8").split("\n"))
    sizes = tuple(int(s) for s in fields["layer_sizes"].split(","))
    count = sum(a * b + b for a, b in zip(sizes, sizes[1:]))
    payload = blob[sep + 2 :]
    if len(payload) != 8 * count:
        raise ValueError(f"payload holds {len(payload)} bytes, layer sizes need {8 * count}")
    return {
        "layer_sizes": sizes,
        "cycle_index": int(fields["cycle_index"]),
        "iteration": int(fields["iteration"]),
        "config_digest": fields["config_digest"],
        "params": np.frombuffer(payload, dtype="<f8").astype(np.float64),
    }


def parse_manifest(text: str) -> list[str]:
    """Snapshot file names listed by a .manifest, in order."""
    return [line.split("=", 1)[1] for line in text.splitlines() if line.startswith("snapshot=")]


def parse_table(blob: bytes) -> tuple[list[str], np.ndarray]:
    """Header and float matrix of a numeric CSV file with one header row."""
    first, rest = blob.decode("utf-8").split("\n", 1)
    values = np.loadtxt(io.StringIO(rest), delimiter=",", ndmin=2, dtype=np.float64)
    return first.strip().split(","), values


def probabilities(sizes, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Eval-mode softmax outputs of a dense ReLU net stored as one flat vector."""
    a = inputs
    offset = 0
    layers = list(zip(sizes, sizes[1:]))
    for i, (n_in, n_out) in enumerate(layers):
        w = params[offset : offset + n_in * n_out].reshape(n_in, n_out)
        offset += n_in * n_out
        b = params[offset : offset + n_out]
        offset += n_out
        a = a @ w + b
        if i < len(layers) - 1:
            a = np.maximum(a, 0.0)
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def average(members) -> np.ndarray:
    return sum(members) / len(members)


def error_range(probs: np.ndarray, labels: np.ndarray) -> tuple[int, int]:
    """Fewest and most misclassified examples the argmax rule allows.

    An example is surely wrong when its label is not among the classes within
    TIE_TOLERANCE of the top probability, surely right when it is the only
    one, and may go either way otherwise.
    """
    top = probs.max(axis=1, keepdims=True)
    near = probs >= top - TIE_TOLERANCE
    label_near = near[np.arange(len(labels)), labels]
    either = label_near & (near.sum(axis=1) > 1)
    wrong = ~label_near
    return int(wrong.sum()), int(wrong.sum() + either.sum())


def error_matches(reported: float, probs: np.ndarray, labels: np.ndarray) -> bool:
    """True when a reported error rate is count/n for an allowed count."""
    n = len(labels)
    count = round(reported * n)
    if count / n != reported:
        return False
    low, high = error_range(probs, labels)
    return low <= count <= high


def cycle_ends(total: int, cycles: int) -> list[int]:
    """Cycle-end iterations of a cyclic schedule, cycle length ceil(T/M)."""
    length = -(-total // cycles)
    return [min(k * length, total) for k in range(1, cycles + 1)]


def snapshot_iterations(mode: str, total: int, count: int) -> list[int]:
    if mode in ("snapshot", "singlecycle"):
        return cycle_ends(total, count)
    if mode == "nocycle":
        return [k * total // count for k in range(1, count + 1)]
    return [total]


def cosine_lr(alpha0: float, total: int, cycles: int, t: int) -> float:
    """Shifted cosine of Huang et al. eq. 2, restarting every ceil(T/M) steps."""
    length = -(-total // cycles)
    return alpha0 / 2.0 * (math.cos(math.pi * ((t - 1) % length) / length) + 1.0)


def step_lr(alpha0: float, total: int, fractions, t: int) -> float:
    lr = alpha0
    for fraction, multiplier in fractions:
        if t > math.floor(fraction * total):
            lr *= multiplier
    return lr


def self_check() -> list[str]:
    """Run the oracle on a hand-worked case; returns the mismatches found.

    Net 2-2-2, W1 = [[1, -1], [0, 2]], b1 = [0, 1], W2 = I, b2 = [0, 0] (net A)
    or [3, 0] (net B). Inputs (1, 0), (0, 1), (-1, 0) give hidden layers
    (1, 0), (0, 3), (0, 2), so net A's logits are (1, 0), (0, 3), (0, 2) and
    its softmax rows are (e, 1)/(e+1), (1, e^3)/(1+e^3), (1, e^2)/(1+e^2).
    With labels (0, 0, 1), A gets example 2 wrong: error 1/3. Net B's logits
    are (4, 0), (3, 3), (3, 2); example 2 is an exact tie, which the oracle
    must leave open, and example 3 goes to class 0: error 1/3 to 2/3. The A+B
    average gives class 0 on example 3 the probability (1/(1+e^2) + e/(1+e))/2
    = 0.42513075..., so the ensemble gets example 3 right and example 2 wrong.
    """
    problems = []
    sizes = (2, 2, 2)
    net_a = np.array([1.0, -1.0, 0.0, 2.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    net_b = net_a.copy()
    net_b[-2] = 3.0
    header = "\n".join(
        [
            "format_version=1",
            "layer_sizes=2,2,2",
            "activation=relu",
            "dropout_rate=0.0",
            "cycle_index=1",
            "iteration=7",
            "train_loss=0.5",
            "config_digest=" + "00" * 16,
        ]
    )
    parsed = parse_snapshot(header.encode() + b"\n\n" + net_a.astype("<f8").tobytes())
    if parsed["iteration"] != 7 or not np.array_equal(parsed["params"], net_a):
        problems.append("snapshot bytes did not parse back to the hand-made vector")
    inputs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    labels = np.array([0, 0, 1])
    probs_a = probabilities(sizes, net_a, inputs)
    expected_a = np.array(
        [
            [0.7310585786300049, 0.2689414213699951],
            [0.04742587317756678, 0.9525741268224334],
            [0.11920292202211755, 0.8807970779778823],
        ]
    )
    if not np.allclose(probs_a, expected_a, rtol=0.0, atol=1e-15):
        problems.append(f"softmax of net A is {probs_a.tolist()}")
    if error_range(probs_a, labels) != (1, 1) or not error_matches(1 / 3, probs_a, labels):
        problems.append("net A error is not exactly 1/3")
    probs_b = probabilities(sizes, net_b, inputs)
    if error_range(probs_b, labels) != (1, 2):
        problems.append(f"net B error range is {error_range(probs_b, labels)}, expected (1, 2)")
    mean = average([probs_a, probs_b])
    if abs(mean[2, 0] - 0.4251307503260612) > 1e-15 or error_range(mean, labels) != (1, 1):
        problems.append(f"A+B average is {mean.tolist()}")
    if cycle_ends(10, 3) != [4, 8, 10] or snapshot_iterations("nocycle", 10, 3) != [3, 6, 10]:
        problems.append("snapshot iterations of T=10, M=3 are wrong")
    if cosine_lr(0.2, 10, 3, 5) != 0.2 or abs(cosine_lr(0.2, 10, 3, 3) - 0.1) > 1e-17:
        problems.append("cosine learning rate at a restart or mid-cycle is wrong")
    if step_lr(0.1, 100, ((0.5, 0.1), (0.75, 0.1)), 51) != 0.1 * 0.1:
        problems.append("step learning rate just after the first boundary is wrong")
    return problems
