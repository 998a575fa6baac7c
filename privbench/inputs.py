"""Seeded inputs for the benchmark, written as the CSV files the CLI reads.

Op k of a run draws its inputs from a generator seeded with
mix64(workload seed, k). This module keeps its own splitmix64 copy so the
inputs do not change when the library's seeding helpers do.
"""

from __future__ import annotations

import math
import os

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
CORPUS_SEED = 0x5EED

# Ball radius splitting [-1, 1]^4 into halves of equal volume:
# pi^2 r^4 / 2 = 2^4 / 2.
BALL_DIM = 4
BALL_RADIUS = (16.0 / math.pi**2) ** 0.25
BALL_N = 1000
FLIP_FRACTION = 0.1

UTILITY_N = 200
UTILITY_DIM = 2
PAIR_N = 10
PAIR_DIM = 1


def mix64(seed: int, k: int) -> int:
    """splitmix64 output for state seed + k * golden ratio (mod 2^64)."""
    z = (seed + k * GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def corpus_entry(seed: int, k: int, corpus: int | None) -> tuple[int, int]:
    """The (seed, index) op k's inputs are generated from.

    Without a corpus that is (seed, k). With a corpus of M datasets it is
    entry (offset + k) mod M of a fixed corpus, the offset taken from seed,
    so every run measures the same datasets and the seed sets their order.
    """
    if corpus is None:
        return seed, k
    return CORPUS_SEED, (mix64(seed, 0) + k) % corpus


def write_csv(path: str, points: np.ndarray, labels: np.ndarray) -> None:
    """Rows of features then a +1/-1 label; floats round-trip through repr."""
    lines = [
        ",".join(repr(float(v)) for v in row) + ("," + ("+1" if y > 0 else "-1"))
        for row, y in zip(points, labels)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def ball_points(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n uniform points in [-1, 1]^4 labelled +1 inside the ball, exactly
    FLIP_FRACTION of the labels flipped."""
    points = rng.uniform(-1.0, 1.0, (n, BALL_DIM))
    labels = np.where(np.linalg.norm(points, axis=1) < BALL_RADIUS, 1.0, -1.0)
    flip = rng.choice(n, size=round(FLIP_FRACTION * n), replace=False)
    labels[flip] *= -1.0
    return points, labels


def uniform_points(rng, n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """n uniform points in [-1, 1]^dim with uniform random labels, both
    classes present."""
    points = rng.uniform(-1.0, 1.0, (n, dim))
    labels = rng.permutation(np.resize([1.0, -1.0], n))
    return points, labels


def ball_inputs(workdir: str, seed: int, k: int, corpus: int | None = None) -> dict:
    """Training and held-out CSVs for one train or release op."""
    seed, k = corpus_entry(seed, k, corpus)
    rng = np.random.default_rng(mix64(seed, k))
    train = ball_points(rng, BALL_N)
    heldout = ball_points(rng, BALL_N)
    paths = {
        "train": os.path.join(workdir, f"train-{k}.csv"),
        "heldout": os.path.join(workdir, f"heldout-{k}.csv"),
        "model": os.path.join(workdir, f"model-{k}.json"),
    }
    write_csv(paths["train"], *train)
    write_csv(paths["heldout"], *heldout)
    return {"paths": paths, "train": train, "heldout": heldout,
            "seed": mix64(mix64(seed, k), 0)}


def audit_inputs(workdir: str, seed: int, k: int) -> dict:
    """The utility dataset and a neighbouring pair for one audit-suite op.

    The pair shares its first PAIR_N - 1 entries; the second database replaces
    the last entry with a fresh point carrying the opposite label.
    """
    op_seed = mix64(seed, k)
    rng = np.random.default_rng(op_seed)
    utility = uniform_points(rng, UTILITY_N, UTILITY_DIM)
    pair_points, pair_labels = uniform_points(rng, PAIR_N, PAIR_DIM)
    points2 = pair_points.copy()
    points2[-1] = rng.uniform(-1.0, 1.0, PAIR_DIM)
    labels2 = pair_labels.copy()
    labels2[-1] = -labels2[-1]
    paths = {
        "utility": os.path.join(workdir, f"utility-{k}.csv"),
        "pair1": os.path.join(workdir, f"pair1-{k}.csv"),
        "pair2": os.path.join(workdir, f"pair2-{k}.csv"),
    }
    write_csv(paths["utility"], *utility)
    write_csv(paths["pair1"], pair_points, pair_labels)
    write_csv(paths["pair2"], points2, labels2)
    return {"paths": paths, "seeds": [mix64(op_seed, j) for j in range(1, 6)]}
