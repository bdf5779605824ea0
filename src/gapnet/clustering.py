"""Feature clustering from missingness signatures.

Features whose presence column (which rows have them) is identical form a
natural cluster; a greedy merge step can coarsen the partition while keeping
enough jointly-complete rows per cluster.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import read_json


# the models every benchmark run reports, in report order; the DeLong test
# compares the first with the second. A plan may not name a cluster after one.
MODELS = ("gapnet", "vanilla")


class ClusteringError(ValueError):
    pass


@dataclass
class FeatureCluster:
    name: str
    features: list  # ordered, unique 0-based feature indices

    def __post_init__(self):
        self.features = list(self.features)
        if not all(isinstance(j, (int, np.integer)) and j >= 0 for j in self.features):
            raise ClusteringError(
                f"cluster {self.name!r} has a feature index that is not an integer >= 0"
            )
        if not self.features:
            raise ClusteringError(f"cluster {self.name!r} is empty")
        if len(set(self.features)) != len(self.features):
            raise ClusteringError(f"cluster {self.name!r} repeats a feature")


@dataclass
class ClusterPlan:
    clusters: list  # of FeatureCluster
    sha256: str | None = field(default=None, compare=False)  # of the file load_plan read


@dataclass
class PlanReport:
    valid: bool
    overlaps: list  # (feature index, [cluster names])
    empty_support: list  # cluster names with zero complete rows
    uncovered_features: list
    counts: dict  # cluster name -> complete-row count


def signature_clusters(ds):
    """Group features whose presence signatures (mask columns) are identical.

    Clusters are ordered and named by their lowest feature index.
    """
    signatures = {}
    for j in range(ds.n_features):
        key = ds.present[:, j].tobytes()
        signatures.setdefault(key, []).append(j)
    return _named_plan(signatures.values())


def _named_plan(groups):
    """The groups of feature indices as a plan, ordered by their first
    feature and named cluster_1, cluster_2, ... in that order."""
    groups = sorted(groups, key=lambda g: g[0])
    return ClusterPlan([FeatureCluster(f"cluster_{i + 1}", g) for i, g in enumerate(groups)])


def merge_clusters(plan, ds, min_support):
    """Greedily merge cluster pairs, keeping every cluster's support >= min_support.

    At each step the pair whose union retains the most complete rows is merged,
    provided that union still has at least min_support complete rows. Ties break
    on the lowest feature index involved.
    """
    if min_support < 1:
        raise ClusteringError("min_support must be >= 1")
    too_small = [
        c.name for c in plan.clusters if ds.complete_rows_for(c.features).size < min_support
    ]
    if too_small:
        raise ClusteringError(
            f"min_support {min_support} exceeds the complete-row count of "
            f"cluster(s): {', '.join(too_small)}"
        )
    groups = [list(c.features) for c in plan.clusters]
    while len(groups) > 1:
        best = None
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                union = groups[a] + groups[b]
                count = int(ds.complete_rows_for(union).size)
                if count < min_support:
                    continue
                key = (-count, min(union))
                if best is None or key < best[0]:
                    best = (key, a, b, count)
        if best is None:
            break
        _, a, b, _ = best
        groups[a] = sorted(groups[a] + groups[b])
        del groups[b]
    return _named_plan(groups)


def validate_plan(plan, ds):
    """Check disjointness, support, and coverage of a plan against a dataset."""
    owners = {}
    overlaps = []
    for cluster in plan.clusters:
        for j in cluster.features:
            owners.setdefault(j, []).append(cluster.name)
    for j, names in sorted(owners.items()):
        if len(names) > 1:
            overlaps.append((j, names))
    uncovered = sorted(set(range(ds.n_features)) - set(owners))
    counts, empty = {}, []
    for cluster in plan.clusters:
        counts[cluster.name] = int(ds.complete_rows_for(cluster.features).size)
        if counts[cluster.name] == 0:
            empty.append(cluster.name)
    return PlanReport(
        valid=not overlaps and not empty,
        overlaps=overlaps,
        empty_support=empty,
        uncovered_features=uncovered,
        counts=counts,
    )


def load_plan(path, feature_names):
    """Read a plan file: JSON object mapping cluster name -> feature name list.

    A cluster name may appear once, and may not be one of `MODELS`, the
    names of the benchmark's other models. The file is read by `read_json`,
    and the plan carries the sha256 of the bytes it parsed.
    """
    raw, digest = read_json(path, ClusteringError)
    if not isinstance(raw, dict) or not raw:
        raise ClusteringError(f"{path}: expected a non-empty cluster mapping")
    name_to_idx = {n: i for i, n in enumerate(feature_names)}
    clusters = []
    for name, feats in raw.items():
        if name in MODELS:
            raise ClusteringError(f"{path}: cluster name {name!r} is reserved for a model")
        if not isinstance(feats, list) or not all(isinstance(f, str) for f in feats):
            raise ClusteringError(f"{path}: {name!r} must map to a list of feature names")
        indices = []
        for f in feats:
            if f not in name_to_idx:
                raise ClusteringError(f"{path}: unknown feature {f!r} in {name!r}")
            indices.append(name_to_idx[f])
        clusters.append(FeatureCluster(name=name, features=indices))
    return ClusterPlan(clusters=clusters, sha256=digest)


def save_plan(plan, path, feature_names):
    raw = {c.name: [feature_names[j] for j in c.features] for c in plan.clusters}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2)
        fh.write("\n")

