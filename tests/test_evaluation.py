import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapnet.benchmark import BenchmarkConfig, aggregate_benchmark
from gapnet.clustering import ClusterPlan, FeatureCluster
from gapnet.evaluation import (
    DelongResult,
    EvaluationError,
    RocCurve,
    _midranks,
    aggregate_runs,
    auc,
    confusion_at,
    delong_test,
    five_number_summary,
    importance_report,
    interpolate_tpr,
    metrics,
    permutation_importance,
    roc_curve,
    structural_components,
    trapezoid_area,
)


def brute_force_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_auc_perfect_separation():
    assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_auc_frozen_example():
    # 4 pos-neg pairs, 3 ordered correctly
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auc_all_ties():
    assert auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(EvaluationError):
        auc([0.1, 0.2], [1, 1])


@pytest.mark.parametrize("seed", range(50))
def test_auc_matches_exhaustive_counting(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(3, 13)
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    scores = np.round(rng.random(n), 2)  # coarse grid to provoke ties
    assert auc(scores, labels) == brute_force_auc(scores, labels)


def test_roc_two_samples_through_corner():
    curve = roc_curve([0.9, 0.1], [1, 0])
    assert (0.0, 1.0) in set(zip(curve.fpr, curve.tpr))


@pytest.mark.parametrize("seed", range(20))
def test_trapezoid_area_equals_auc_without_ties(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    scores = rng.random(n)
    curve = roc_curve(scores, labels)
    assert trapezoid_area(curve) == pytest.approx(auc(scores, labels), abs=1e-12)


def test_reversed_scores_mirror_the_curve():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 30)
    labels[:2] = [0, 1]
    scores = rng.random(30)
    a = trapezoid_area(roc_curve(scores, labels))
    b = trapezoid_area(roc_curve(-scores, labels))
    assert b == pytest.approx(1.0 - a, abs=1e-12)


def test_roc_endpoints_and_monotonicity(paper_madelon):
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, 50)
    labels[:2] = [0, 1]
    curve = roc_curve(rng.random(50), labels)
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
    assert np.all(np.diff(curve.fpr) >= 0)
    assert np.all(np.diff(curve.tpr) >= 0)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_auc_label_swap_symmetry(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 20))
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    scores = rng.random(n)
    assert auc(scores, 1 - labels) == pytest.approx(1.0 - auc(scores, labels), abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_auc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 20))
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    scores = rng.random(n)
    assert auc(np.exp(3 * scores), labels) == pytest.approx(
        auc(scores, labels), abs=1e-12
    )


TIED_SCORE = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@given(st.lists(st.tuples(TIED_SCORE, st.integers(0, 1)), max_size=40), TIED_SCORE, TIED_SCORE)
@settings(max_examples=200, deadline=None)
def test_interpolate_tpr_is_the_upper_envelope(pairs, negative, positive):
    scores, labels = zip(*pairs, (negative, 0), (positive, 1))
    curve = roc_curve(np.array(scores), np.array(labels))
    best = {}  # the highest TPR at each FPR of the curve
    for f, t in zip(curve.fpr.tolist(), curve.tpr.tolist()):
        best[f] = max(best.get(f, 0.0), t)
    xs = sorted(best)
    grid = np.r_[np.linspace(0.0, 1.0, 101), curve.fpr]
    expected = np.interp(grid, xs, [best[x] for x in xs])
    assert np.array_equal(interpolate_tpr(curve, grid), expected)


def test_confusion_frozen_example():
    # TP=8, FN=2, TN=9, FP=1
    scores = [0.9] * 8 + [0.1] * 2 + [0.2] * 9 + [0.7]
    labels = [1] * 10 + [0] * 10
    counts = confusion_at(scores, labels)
    assert (counts.tp, counts.fn, counts.tn, counts.fp) == (8, 2, 9, 1)
    rep = metrics(counts)
    assert rep.sensitivity == pytest.approx(0.8)
    assert rep.specificity == pytest.approx(0.9)
    assert rep.accuracy == pytest.approx(0.85)
    assert rep.precision == pytest.approx(8 / 9)


def test_confusion_all_correct():
    rep = metrics(confusion_at([0.9, 0.1], [1, 0]))
    assert (rep.sensitivity, rep.specificity, rep.accuracy, rep.precision) == (
        1.0, 1.0, 1.0, 1.0,
    )


def test_confusion_no_predicted_positives():
    rep = metrics(confusion_at([0.1, 0.2], [1, 0]))
    assert rep.precision is None
    assert rep.specificity == 1.0


def test_confusion_threshold_is_inclusive():
    counts = confusion_at([0.5], [1])
    assert counts.tp == 1


def test_confusion_of_no_rows_is_refused():
    with pytest.raises(EvaluationError, match="empty input"):
        confusion_at([], [])


def test_delong_identical_scores():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 20)
    labels[:2] = [0, 1]
    s = rng.random(20)
    result = delong_test(s, s, labels)
    assert result.z == 0.0
    assert result.p == 1.0


def test_delong_auc_consistency():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, 30)
    labels[:2] = [0, 1]
    a, b = rng.random(30), rng.random(30)
    result = delong_test(a, b, labels)
    assert result.auc_a == pytest.approx(auc(a, labels), abs=1e-12)
    assert result.auc_b == pytest.approx(auc(b, labels), abs=1e-12)


@pytest.mark.parametrize("short", ["a", "b"])
def test_delong_needs_one_score_per_label(short):
    labels = np.array([0, 1, 0, 1])
    scores = {"a": np.linspace(0, 1, 4), "b": np.linspace(1, 0, 4)}
    scores[short] = scores[short][:3]
    with pytest.raises(EvaluationError, match="score vectors must match the label vector"):
        delong_test(scores["a"], scores["b"], labels)


def brute_force_components(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]

    def psi(x, y):
        return 1.0 if x > y else (0.5 if x == y else 0.0)

    v10 = [sum(psi(p, q) for q in neg) / len(neg) for p in pos]
    v01 = [sum(psi(p, q) for p in pos) / len(pos) for q in neg]
    return np.array(v10), np.array(v01)


@pytest.mark.parametrize("seed", range(30))
def test_structural_components_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12)) if seed < 10 else int(rng.integers(12, 201))
    labels = rng.integers(0, 2, n)
    labels[:2] = [0, 1]
    scores = np.round(rng.random(n), 1 + seed % 3)  # ties at every size
    v10, v01 = structural_components(scores, labels)
    b10, b01 = brute_force_components(scores, labels)
    # each component is an exact pair count divided once, either way
    assert np.array_equal(v10, b10)
    assert np.array_equal(v01, b01)


def reference_midranks(x):
    """The plain loop: walk the sorted values, one run of ties at a time."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(x.size)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


@given(st.lists(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.25, 0.5, np.inf])
                | st.floats(allow_nan=False), max_size=60))
@settings(max_examples=200, deadline=None)
def test_midranks_match_reference_loop(values):
    assert np.array_equal(_midranks(values), reference_midranks(values))


def test_delong_p_matches_normal_tail():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 2, 40)
    labels[:2] = [0, 1]
    result = delong_test(rng.random(40), rng.random(40), labels)
    expected = 2.0 * (1.0 - 0.5 * math.erfc(-abs(result.z) / math.sqrt(2)))
    assert result.p == pytest.approx(expected, abs=1e-12)


def test_delong_degenerate_unequal_aucs():
    # paired vectors with differing AUCs but zero component variance: no z
    labels = [1, 0]
    assert delong_test([0.9, 0.1], [0.1, 0.9], labels) == DelongResult(1.0, 0.0, 0.0, None, None)


def test_benchmark_records_a_degenerate_comparison_as_null():
    # gapnet ranks every test pair wrongly and the baseline every pair
    # rightly, in each run and pooled: unequal AUCs with zero variance
    labels = [0, 1, 0, 1]
    results = [
        {"run": i, "seed": i, "test_rows": [0, 1, 2, 3], "labels": labels,
         "scores": {"gapnet": [0.9, 0.1, 0.8, 0.2], "vanilla": [0.1, 0.9, 0.2, 0.8],
                    "a": [0.5, 0.6, 0.4, 0.7]}}
        for i in range(2)
    ]
    plan = ClusterPlan([FeatureCluster("a", [0])])
    delong = aggregate_benchmark(results, plan, BenchmarkConfig())["delong"]
    assert delong["per_run"] == [{"run": i, "z": None, "p": None} for i in range(2)]
    assert delong["pooled"] == {
        "auc_gapnet": 0.0, "auc_vanilla": 1.0, "variance": 0.0, "z": None, "p": None,
    }
    json.dumps(delong, allow_nan=False)


def test_permutation_identity_is_zero_drop():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 3))
    labels = rng.integers(0, 2, 10)
    labels[:2] = [0, 1]
    res = permutation_importance(
        lambda M: M[:, 0], X, labels, feature=1, permutations=[np.arange(10)]
    )
    assert res["mean_drop"] == 0.0


def test_permutation_dead_feature_zero_drop():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((12, 3))
    labels = rng.integers(0, 2, 12)
    labels[:2] = [0, 1]
    # the model reads only column 0; column 2 is dead
    res = permutation_importance(
        lambda M: M[:, 0], X, labels, feature=2, repeats=5,
        rng=np.random.default_rng(2),
    )
    assert res["mean_drop"] == 0.0


def test_permutation_threshold_toy_matches_exhaustive():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((8, 2))
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    X[:, 0] = np.where(labels == 1, 1.0, -1.0) + 0.1 * rng.standard_normal(8)
    perms = [np.array(p) for p in itertools.permutations(range(8))]
    res = permutation_importance(
        lambda M: M[:, 0], X, labels, feature=0, permutations=perms
    )
    baseline = auc(X[:, 0], labels)
    total = 0.0
    for p in perms:
        Xp = X.copy()
        Xp[:, 0] = X[list(p), 0]
        total += auc(Xp[:, 0], labels)
    assert res["mean_drop"] == pytest.approx(baseline - total / len(perms), abs=1e-10)
    # shuffling the only informative feature lands near chance
    assert baseline - res["mean_drop"] == pytest.approx(0.5, abs=0.05)


def test_importance_report_ranks_are_a_permutation():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((20, 4))
    labels = rng.integers(0, 2, 20)
    labels[:2] = [0, 1]
    report = importance_report(
        lambda M: M[:, 0] + 0.5 * M[:, 1], X, labels,
        [f"f{j}" for j in range(4)], repeats=3, rng=np.random.default_rng(5),
    )
    assert sorted(report.ranks.tolist()) == [1, 2, 3, 4]


def test_importance_flags_constant_feature():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((10, 2))
    X[:, 1] = 7.0
    labels = rng.integers(0, 2, 10)
    labels[:2] = [0, 1]
    report = importance_report(
        lambda M: M[:, 0], X, labels, ["a", "b"], repeats=2,
        rng=np.random.default_rng(7),
    )
    assert any("constant" in w for w in report.warnings)


def test_aggregate_identical_runs():
    curve = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    agg = aggregate_runs([curve, curve, curve], [0.8, 0.8, 0.8])
    assert np.all(agg.std_tpr == 0.0)
    assert agg.auc_std == pytest.approx(0.0, abs=1e-15)


def test_aggregate_mean_and_population_std():
    curve = roc_curve([0.9, 0.1], [1, 0])
    agg = aggregate_runs([curve, curve], [0.6, 0.8])
    assert agg.auc_mean == pytest.approx(0.7)
    assert agg.auc_std == pytest.approx(0.1)  # population convention


def test_aggregate_grid_endpoints():
    rng = np.random.default_rng(8)
    curves, aucs = [], []
    for _ in range(4):
        labels = rng.integers(0, 2, 20)
        labels[:2] = [0, 1]
        scores = rng.random(20)
        curves.append(roc_curve(scores, labels))
        aucs.append(auc(scores, labels))
    agg = aggregate_runs(curves, aucs)
    assert agg.fpr_grid[0] == 0.0 and agg.fpr_grid[-1] == 1.0
    assert agg.mean_tpr[-1] == 1.0
    assert agg.histogram_counts.sum() == 4


def test_aggregate_needs_two_runs():
    curve = roc_curve([0.9, 0.1], [1, 0])
    with pytest.raises(EvaluationError):
        aggregate_runs([curve], [0.5])


def test_five_number_summary():
    summary = five_number_summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert summary == {"min": 1.0, "q1": 2.0, "median": 3.0, "q3": 4.0, "max": 5.0}


def numpy_summary(values):
    values = np.asarray(values, dtype=np.float64)
    return [values.min(), np.percentile(values, 25), np.median(values),
            np.percentile(values, 75), values.max()]


SUMMARY_VALUES = st.one_of(*(
    st.lists(element.map(lambda x: x + 0.0), min_size=1, max_size=201)  # no -0.0
    for element in (st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),  # ties
                    st.floats(0.0, 1.0),
                    st.floats(-1e300, 1e300))
))


@given(SUMMARY_VALUES)
@settings(max_examples=500, deadline=None)
def test_five_number_summary_is_numpys(values):
    summary = five_number_summary(values)
    assert list(summary) == ["min", "q1", "median", "q3", "max"]
    got = np.array(list(summary.values()), dtype=np.float64)
    assert got.tobytes() == np.array(numpy_summary(values), dtype=np.float64).tobytes()


def test_five_number_summary_of_a_nan_is_nan():
    values = [0.3, 0.1, np.nan, 0.2, 0.4]
    summary = five_number_summary(values)
    assert all(math.isnan(x) for x in summary.values())
    assert all(np.isnan(numpy_summary(values)))
