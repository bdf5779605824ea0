import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapnet.clustering import (
    ClusteringError,
    FeatureCluster,
    ClusterPlan,
    load_plan,
    merge_clusters,
    save_plan,
    signature_clusters,
    validate_plan,
)
from gapnet.dataset import GappedDataset
from conftest import make_dataset, random_gapped


def test_signature_clusters_on_paper_madelon(paper_madelon):
    plan = signature_clusters(paper_madelon)
    assert len(plan.clusters) == 2
    assert plan.clusters[0].features == list(range(25))
    assert plan.clusters[1].features == list(range(25, 40))
    assert list(validate_plan(plan, paper_madelon).counts.values()) == [550, 550]


def test_signature_clusters_fully_complete(complete_madelon):
    plan = signature_clusters(complete_madelon)
    assert len(plan.clusters) == 1
    assert plan.clusters[0].features == list(range(40))


def brute_force_groups(present):
    """Group columns by exact equality, pairwise comparison."""
    f = present.shape[1]
    groups = []
    for j in range(f):
        for g in groups:
            if np.array_equal(present[:, g[0]], present[:, j]):
                g.append(j)
                break
        else:
            groups.append([j])
    return sorted(groups)


def test_signature_clusters_match_brute_force_on_toy():
    present = np.array(
        [[1, 1, 0], [1, 1, 1], [0, 0, 1], [1, 1, 0]], dtype=bool
    )
    ds = make_dataset(np.ones((4, 3)), present=present, labels=[0, 1, 0, 1])
    plan = signature_clusters(ds)
    assert [c.features for c in plan.clusters] == brute_force_groups(present)


@pytest.mark.parametrize("seed", range(20))
def test_signature_clusters_are_a_partition(seed):
    ds = random_gapped(np.random.default_rng(seed))
    plan = signature_clusters(ds)
    seen = sorted(j for c in plan.clusters for j in c.features)
    assert seen == list(range(ds.n_features))


def test_signature_clusters_idempotent_on_restriction(paper_madelon):
    plan = signature_clusters(paper_madelon)
    first = plan.clusters[0]
    sub = GappedDataset(
        feature_names=[paper_madelon.feature_names[j] for j in first.features],
        values=paper_madelon.values[:, first.features],
        present=paper_madelon.present[:, first.features],
        labels=paper_madelon.labels,
    )
    again = signature_clusters(sub)
    assert len(again.clusters) == 1
    assert again.clusters[0].features == list(range(len(first.features)))


def test_merge_fully_overlapping_clusters():
    present = np.ones((6, 4), dtype=bool)
    present[0, :2] = False
    present[0, 2:] = False  # same rows missing for both signature groups
    present[1, 2:] = False
    ds = make_dataset(np.ones((6, 4)), present=present, labels=[0, 1, 0, 1, 0, 1])
    plan = signature_clusters(ds)
    merged = merge_clusters(plan, ds, min_support=4)
    assert len(merged.clusters) == 1
    assert list(validate_plan(merged, ds).counts.values()) == [4]


def test_merge_never_joins_disjoint_row_clusters():
    present = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=bool)
    ds = make_dataset(np.ones((4, 2)), present=present, labels=[0, 1, 0, 1])
    plan = signature_clusters(ds)
    merged = merge_clusters(plan, ds, min_support=1)
    assert len(merged.clusters) == 2


def test_merge_min_support_too_large():
    present = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=bool)
    ds = make_dataset(np.ones((4, 2)), present=present, labels=[0, 1, 0, 1])
    plan = signature_clusters(ds)
    with pytest.raises(ClusteringError, match="cluster"):
        merge_clusters(plan, ds, min_support=3)


def test_merge_min_support_below_one():
    ds = make_dataset(np.ones((4, 2)), present=[[1, 0], [1, 0], [0, 1], [0, 1]])
    with pytest.raises(ClusteringError, match="min_support must be >= 1"):
        merge_clusters(signature_clusters(ds), ds, min_support=0)


def test_merge_checks_support_of_a_loaded_plan(tmp_path, paper_madelon):
    # a plan file carries no complete-row counts; the check counts them itself
    path = tmp_path / "plan.json"
    save_plan(signature_clusters(paper_madelon), path, paper_madelon.feature_names)
    loaded = load_plan(path, paper_madelon.feature_names)
    with pytest.raises(ClusteringError, match="cluster_1, cluster_2"):
        merge_clusters(loaded, paper_madelon, min_support=600)


def greedy_merge_reference(groups, ds, min_support):
    """Plain reimplementation of the greedy rule with explicit loops."""
    groups = [sorted(g) for g in groups]
    while True:
        candidates = []
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                union = sorted(groups[a] + groups[b])
                count = ds.complete_rows_for(union).size
                if count >= min_support:
                    candidates.append((-count, min(union), a, b))
        if not candidates:
            return sorted(groups)
        _, _, a, b = min(candidates)
        groups[a] = sorted(groups[a] + groups[b])
        del groups[b]


@pytest.mark.parametrize("seed", range(10))
def test_merge_matches_reference_on_random_four_cluster_toys(seed):
    rng = np.random.default_rng(seed)
    n = 20
    present = np.zeros((n, 4), dtype=bool)
    for j in range(4):
        present[rng.random(n) > 0.4, j] = True
    present[:2] = True
    ds = make_dataset(np.ones((n, 4)), present=present,
                      labels=np.arange(n) % 2)
    plan = signature_clusters(ds)
    merged = merge_clusters(plan, ds, min_support=2)
    expected = greedy_merge_reference(
        [c.features for c in plan.clusters], ds, min_support=2
    )
    assert [c.features for c in merged.clusters] == expected


@pytest.mark.parametrize("seed", range(10))
def test_merge_respects_min_support(seed):
    ds = random_gapped(np.random.default_rng(100 + seed))
    plan = signature_clusters(ds)
    support = min(validate_plan(plan, ds).counts.values())
    merged = merge_clusters(plan, ds, min_support=support)
    assert min(validate_plan(merged, ds).counts.values()) >= support


def test_validate_plan_paper_madelon(paper_madelon):
    plan = signature_clusters(paper_madelon)
    report = validate_plan(plan, paper_madelon)
    assert report.valid
    assert report.counts == {"cluster_1": 550, "cluster_2": 550}


def test_validate_plan_flags_overlap(paper_madelon):
    plan = ClusterPlan(
        clusters=[
            FeatureCluster("a", list(range(25))),
            FeatureCluster("b", list(range(24, 40))),
        ],
    )
    report = validate_plan(plan, paper_madelon)
    assert not report.valid
    assert report.overlaps == [(24, ["a", "b"])]


def test_validate_plan_reports_uncovered_feature(paper_madelon):
    plan = ClusterPlan(
        clusters=[
            FeatureCluster("a", list(range(25))),
            FeatureCluster("b", list(range(25, 39))),
        ],
    )
    report = validate_plan(plan, paper_madelon)
    assert report.uncovered_features == [39]


def test_plan_file_round_trip(tmp_path, paper_madelon):
    plan = signature_clusters(paper_madelon)
    path = tmp_path / "plan.json"
    save_plan(plan, path, paper_madelon.feature_names)
    loaded = load_plan(path, paper_madelon.feature_names)
    counts = validate_plan(loaded, paper_madelon).counts
    assert [c.features for c in loaded.clusters] == [c.features for c in plan.clusters]
    assert [counts[c.name] for c in loaded.clusters] == [550, 550]


def test_plan_file_unknown_feature(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('{"a": ["nope"]}', encoding="utf-8")
    with pytest.raises(ClusteringError, match="nope"):
        load_plan(path, ["x1", "x2"])


@given(
    names=st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=8, unique=True),
    owners=st.lists(st.integers(0, 3), min_size=8, max_size=8),
    cluster_names=st.lists(st.text(max_size=4), min_size=4, max_size=4, unique=True),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_plan_file_round_trip_any_names(tmp_path_factory, names, owners, cluster_names, data):
    order = data.draw(st.permutations(range(len(names))))  # features in any order
    groups = {}
    for j in order:
        groups.setdefault(owners[j], []).append(j)
    plan = ClusterPlan([FeatureCluster(cluster_names[k], g) for k, g in groups.items()])
    path = tmp_path_factory.mktemp("plan") / "plan.json"
    save_plan(plan, path, names)
    loaded = load_plan(path, names)
    assert [(c.name, c.features) for c in loaded.clusters] == [
        (c.name, c.features) for c in plan.clusters
    ]


KNOWN = ["x1", "x2", "x3"]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=3) | st.sampled_from(KNOWN),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _names_of(value):
    """The feature indices a plan entry names, or None if it is malformed."""
    if not (isinstance(value, list) and value and all(v in KNOWN for v in value)):
        return None
    return [KNOWN.index(v) for v in value] if len(set(value)) == len(value) else None


@given(raw=st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=3) | JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_load_plan_rejects_malformed_values(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("plan") / "plan.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    wanted = {k: _names_of(v) for k, v in raw.items()} if isinstance(raw, dict) else {}
    if wanted and None not in wanted.values():
        loaded = load_plan(path, KNOWN)
        assert {c.name: c.features for c in loaded.clusters} == wanted
    else:
        with pytest.raises(ClusteringError):
            load_plan(path, KNOWN)


@pytest.mark.parametrize("value", [5, [["x1"]], "x1", {"x1": 1}, None])
def test_plan_file_cluster_must_list_names(tmp_path, value):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"a": value}), encoding="utf-8")
    with pytest.raises(ClusteringError, match="'a' must map to a list of feature names"):
        load_plan(path, ["x1", "x2"])


def test_plan_file_rejects_a_repeated_cluster_name(tmp_path):
    # json.load would keep only the last "a", and drop x1 and x2 unseen
    path = tmp_path / "plan.json"
    path.write_text('{"a": ["x1", "x2"], "a": ["x3"], "b": ["x4"]}', encoding="utf-8")
    with pytest.raises(ClusteringError, match="name 'a' appears twice"):
        load_plan(path, ["x1", "x2", "x3", "x4"])


@pytest.mark.parametrize("name", ["vanilla", "gapnet"])
def test_plan_file_rejects_a_model_name(tmp_path, name):
    # the benchmark reports each cluster's model under its name
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"a": ["x1"], name: ["x2"]}), encoding="utf-8")
    with pytest.raises(ClusteringError, match=f"cluster name '{name}' is reserved"):
        load_plan(path, ["x1", "x2"])


def test_plan_file_with_a_byte_order_mark_loads_as_without(tmp_path):
    text = json.dumps({"a": ["x2", "x1"], "b": ["x3"]})
    names = ["x1", "x2", "x3"]
    (tmp_path / "plain.json").write_text(text, encoding="utf-8")
    (tmp_path / "bom.json").write_text(text, encoding="utf-8-sig")
    assert (tmp_path / "bom.json").read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_plan(tmp_path / "bom.json", names) == load_plan(tmp_path / "plain.json", names)
