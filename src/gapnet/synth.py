"""Madelon-style synthetic binary classification data with block missingness.

Informative features are Gaussian clusters centered on vertices of a
hypercube, each cluster assigned to one of two classes; redundant features
are random linear combinations of the informative block; the rest is noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import GappedDataset

# 1-based column positions of each feature kind in the 40-feature benchmark
DEFAULT_INFORMATIVE = (1, 3, 4, 5, 8, 10, 11, 13, 14, 15, 18, 20, 22, 25,
                       26, 27, 28, 29, 31, 33, 34, 35, 36, 39, 40)
DEFAULT_REDUNDANT = (2, 6, 7, 9, 12, 17, 19, 24, 30, 37)
DEFAULT_NOISE = (16, 21, 23, 32, 38)


class SynthError(ValueError):
    pass


@dataclass
class MadelonConfig:
    n_samples: int = 1000
    n_features: int = 40
    informative_indices: tuple = DEFAULT_INFORMATIVE  # 1-based
    redundant_indices: tuple = DEFAULT_REDUNDANT
    noise_indices: tuple = DEFAULT_NOISE
    # calibrated so a baseline trained on the 100 complete samples lands in
    # the AUC ~0.7 regime while the cluster subsets remain learnable
    class_separation: float = 0.5
    clusters_per_class: int = 4
    seed: int = 0

    def validate(self):
        if self.n_samples < 2:
            raise SynthError("n_samples must be >= 2")  # standardising needs a spread
        info = set(self.informative_indices)
        red = set(self.redundant_indices)
        noise = set(self.noise_indices)
        union = info | red | noise
        if (
            len(info) + len(red) + len(noise) != self.n_features
            or union != set(range(1, self.n_features + 1))
        ):
            raise SynthError(
                "informative/redundant/noise indices must partition 1..n_features"
            )
        if not 0 < self.class_separation < np.inf:  # nan too
            raise SynthError("class_separation must be positive and finite")
        if self.clusters_per_class < 1:
            raise SynthError("clusters_per_class must be >= 1")


@dataclass
class GapPattern:
    """Blocks of cells to mark missing; ranges are 1-based and inclusive."""

    blocks: list = field(default_factory=list)  # of ((row_lo, row_hi), (col_lo, col_hi))


def paper_gap_pattern(n_samples=1000):
    """The paper's two blocks scaled by row fraction: the first 45% of rows
    lose features 1-25 and the last 45% lose features 26-40 (rows 1-450 and
    551-1000 of 1000). Each block holds at least one row."""
    rows = max(1, n_samples * 9 // 20)
    return GapPattern(blocks=[((1, rows), (1, 25)), ((n_samples - rows + 1, n_samples), (26, 40))])


def generate_madelon(cfg):
    """Build the complete (fully present) synthetic dataset."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_samples
    n_info = len(cfg.informative_indices)
    n_red = len(cfg.redundant_indices)
    n_noise = len(cfg.noise_indices)
    n_clusters = 2 * cfg.clusters_per_class

    # one hypercube vertex per cluster, alternating class assignment
    vertices = cfg.class_separation * np.where(
        rng.random((n_clusters, n_info)) < 0.5, -1.0, 1.0
    )
    cluster_class = np.arange(n_clusters) % 2

    # balanced cluster sizes (extras go to the first clusters, alternating
    # classes, so the class counts stay within one of each other)
    sizes = np.full(n_clusters, n // n_clusters)
    sizes[: n % n_clusters] += 1
    assignment = np.repeat(np.arange(n_clusters), sizes)

    # anisotropic clusters: each cluster's unit Gaussian is sheared by its own
    # random matrix, so the classes overlap and the boundary is sample-hungry
    raw = rng.standard_normal((n, n_info))
    informative = np.empty((n, n_info))
    start = 0
    for k, size in enumerate(sizes):
        shear = rng.uniform(-1.0, 1.0, size=(n_info, n_info))
        informative[start : start + size] = raw[start : start + size] @ shear + vertices[k]
        start += size
    labels = cluster_class[assignment]

    coeffs = rng.uniform(-1.0, 1.0, size=(n_info, n_red))
    redundant = informative @ coeffs
    redundant = (redundant - redundant.mean(axis=0)) / redundant.std(axis=0)

    noise = rng.standard_normal((n, n_noise))

    values = np.empty((n, cfg.n_features))
    for indices, block in ((cfg.informative_indices, informative),
                           (cfg.redundant_indices, redundant), (cfg.noise_indices, noise)):
        values[:, np.subtract(indices, 1)] = block

    order = rng.permutation(n)
    return GappedDataset(
        feature_names=[f"x{j}" for j in range(1, cfg.n_features + 1)],
        values=values[order],
        present=np.ones((n, cfg.n_features), dtype=bool),
        labels=labels[order].astype(np.int64),
    )


def inject_gaps(ds, pattern):
    """Mark the pattern's blocks absent; everything else is untouched."""
    if not ds.present.all():
        raise SynthError("inject_gaps expects a fully present dataset")
    present = ds.present.copy()
    for (row_lo, row_hi), (col_lo, col_hi) in pattern.blocks:
        if not (1 <= row_lo <= row_hi <= ds.n_samples):
            raise SynthError(f"row range ({row_lo}, {row_hi}) out of bounds")
        if not (1 <= col_lo <= col_hi <= ds.n_features):
            raise SynthError(f"feature range ({col_lo}, {col_hi}) out of bounds")
        present[row_lo - 1 : row_hi, col_lo - 1 : col_hi] = False
    values = np.where(present, ds.values, np.nan)
    return GappedDataset(
        feature_names=list(ds.feature_names),
        values=values,
        present=present,
        labels=ds.labels.copy(),
    )
