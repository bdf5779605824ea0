"""ROC/AUC statistics, DeLong test, threshold metrics, run aggregation,
and permutation feature importance."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class EvaluationError(ValueError):
    pass


def _check_classes(labels):
    labels = np.asarray(labels)
    if not ((labels == 0).any() and (labels == 1).any()):
        raise EvaluationError("need both classes present")
    return labels


def _midranks(x):
    """Mid-ranks (1-based) with ties sharing the average rank."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    # each run of equal sorted values spans positions first..last
    starts = np.ones(x.size, dtype=bool)
    np.not_equal(sx[1:], sx[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    last = np.r_[first[1:], x.size] - 1
    ranks = np.empty(x.size)
    ranks[order] = (0.5 * (first + last) + 1.0)[np.cumsum(starts) - 1]
    return ranks


def auc(scores, labels):
    """Mann-Whitney AUC: fraction of correctly ordered positive-negative
    pairs, ties counted as half."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = _check_classes(np.asarray(labels).reshape(-1))
    pos = labels == 1
    m = int(pos.sum())
    n = labels.size - m
    ranks = _midranks(scores)
    # rank-sum identity: sum of positive mid-ranks minus m(m+1)/2 equals
    # wins + 0.5 * ties over all pos-neg pairs, exactly in floating point
    return (ranks[pos].sum() - m * (m + 1) / 2.0) / (m * n)


@dataclass
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray


def roc_curve(scores, labels):
    """Operating points at every distinct score, endpoints included."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = _check_classes(np.asarray(labels).reshape(-1))
    m = int((labels == 1).sum())
    n = labels.size - m
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    y = labels[order]
    distinct = np.r_[np.flatnonzero(np.diff(s)), s.size - 1]
    tp = np.cumsum(y == 1)[distinct]
    fp = np.cumsum(y == 0)[distinct]
    tpr = np.r_[0.0, tp / m]
    fpr = np.r_[0.0, fp / n]
    return RocCurve(fpr=fpr, tpr=tpr)


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def trapezoid_area(curve):
    return float(_trapezoid(curve.tpr, curve.fpr))


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass
class MetricReport:
    sensitivity: float | None
    specificity: float | None
    accuracy: float | None
    precision: float | None


def confusion_at(scores, labels):
    """Counts of the rows scored at least 0.5 (predicted positive) and
    below it, against their labels."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.size == 0:
        raise EvaluationError("empty input")
    predicted = scores >= 0.5
    actual = labels == 1
    return ConfusionCounts(
        tp=int((predicted & actual).sum()),
        fp=int((predicted & ~actual).sum()),
        tn=int((~predicted & ~actual).sum()),
        fn=int((~predicted & actual).sum()),
    )


def metrics(counts):
    """Ratios from the stated definitions; zero denominators report None."""

    def ratio(num, den):
        return num / den if den > 0 else None

    total = counts.tp + counts.fp + counts.tn + counts.fn
    return MetricReport(
        sensitivity=ratio(counts.tp, counts.tp + counts.fn),
        specificity=ratio(counts.tn, counts.tn + counts.fp),
        accuracy=ratio(counts.tp + counts.tn, total),
        precision=ratio(counts.tp, counts.tp + counts.fp),
    )


@dataclass
class DelongResult:
    auc_a: float
    auc_b: float
    variance: float  # of the AUC difference
    z: float | None
    p: float | None


def structural_components(scores, labels):
    """DeLong V10 (one per positive) and V01 (one per negative), from
    midranks (Sun & Xu 2014). Midrank differences are exact pair counts
    (ties as half), so each component is one division, as by definition."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    m, n = pos.size, neg.size
    combined = _midranks(np.r_[pos, neg])
    below_pos = combined[:m] - _midranks(pos)  # negatives below each positive
    below_neg = combined[m:] - _midranks(neg)  # positives below each negative
    return below_pos / n, (m - below_neg) / m


def delong_test(scores_a, scores_b, labels):
    """Paired DeLong test for the difference of two correlated AUCs. AUCs
    that differ with zero variance, as when one model ranks every
    positive-negative pair rightly and the other every pair wrongly, have no
    z: z and p are None."""
    labels = _check_classes(np.asarray(labels).reshape(-1))
    scores_a = np.asarray(scores_a, dtype=np.float64).reshape(-1)
    scores_b = np.asarray(scores_b, dtype=np.float64).reshape(-1)
    if scores_a.shape != labels.shape or scores_b.shape != labels.shape:
        raise EvaluationError("score vectors must match the label vector")
    v10_a, v01_a = structural_components(scores_a, labels)
    v10_b, v01_b = structural_components(scores_b, labels)
    auc_a = float(v10_a.mean())
    auc_b = float(v10_b.mean())
    m = v10_a.size
    n = v01_a.size

    def cov(u, v):
        if u.size < 2:
            return 0.0
        return float(((u - u.mean()) * (v - v.mean())).sum() / (u.size - 1))

    var = (
        cov(v10_a, v10_a) + cov(v10_b, v10_b) - 2 * cov(v10_a, v10_b)
    ) / m + (cov(v01_a, v01_a) + cov(v01_b, v01_b) - 2 * cov(v01_a, v01_b)) / n
    if var <= 0:
        if auc_a == auc_b:
            return DelongResult(auc_a, auc_b, 0.0, 0.0, 1.0)
        return DelongResult(auc_a, auc_b, 0.0, None, None)
    z = (auc_a - auc_b) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))  # 2 * (1 - Phi(|z|))
    return DelongResult(auc_a, auc_b, var, z, p)


def column_scorer(predict_rows, X):
    """A function `score(j, values)`: the scores `predict_rows` gives X with
    its column j replaced by `values`.

    When `predict_rows` is the bound `predict` of a model with its own
    `column_scorer` (a `GapNetModel`), that one is used: it re-runs only
    the part of the model that reads column j.
    """
    model = getattr(predict_rows, "__self__", None)
    if hasattr(model, "column_scorer"):
        return model.column_scorer(X)
    Xp = X.copy()

    def score(j, values):
        Xp[:, j] = values
        scores = np.array(predict_rows(Xp), dtype=np.float64)  # not a view of Xp
        Xp[:, j] = X[:, j]
        return scores

    return score


def permutation_importance(
    predict_rows, X, labels, feature, repeats=10, rng=None, permutations=None,
    baseline=None, score=None,
):
    """Mean AUC drop when one feature column is shuffled across rows.

    `predict_rows` maps a (rows x features) matrix to scores. Explicit
    `permutations` override the random draws (used by exhaustive checks).
    `baseline`, the AUC of the unpermuted X, and `score`, a `column_scorer`
    over X, are computed here unless given; `importance_report` computes
    them once for all features.
    """
    X = np.asarray(X, dtype=np.float64)
    if baseline is None:
        baseline = auc(predict_rows(X), labels)
    if score is None:
        score = column_scorer(predict_rows, X)
    constant = bool(np.all(X[:, feature] == X[0, feature]))
    if permutations is None:
        if repeats < 1:
            raise EvaluationError("repeats must be >= 1")
        if rng is None:
            rng = np.random.default_rng(0)
        permutations = [rng.permutation(X.shape[0]) for _ in range(repeats)]
    drops = []
    for perm in permutations:
        values = X[np.asarray(perm, dtype=int), feature]
        drops.append(baseline - auc(score(feature, values), labels))
    drops = np.asarray(drops)
    return {
        "feature": int(feature),
        "baseline_auc": baseline,
        "mean_drop": float(drops.mean()),
        "std_drop": float(drops.std()),
        "constant_feature": constant,
    }


@dataclass
class ImportanceReport:
    feature_names: list
    mean_drop: np.ndarray
    std_drop: np.ndarray
    ranks: np.ndarray  # 1 = largest drop
    warnings: list = field(default_factory=list)


def importance_report(predict_rows, X, labels, feature_names, repeats=10, rng=None):
    """Permutation importance for every feature, ranked by mean AUC drop.

    The unpermuted AUC and the `column_scorer` are computed once for all
    features.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    X = np.asarray(X, dtype=np.float64)
    baseline = auc(predict_rows(X), labels)
    score = column_scorer(predict_rows, X)
    results = [
        permutation_importance(
            predict_rows, X, labels, j, repeats=repeats, rng=rng,
            baseline=baseline, score=score,
        )
        for j in range(X.shape[1])
    ]
    mean_drop = np.array([r["mean_drop"] for r in results])
    std_drop = np.array([r["std_drop"] for r in results])
    order = np.argsort(-mean_drop, kind="mergesort")
    ranks = np.empty(mean_drop.size, dtype=int)
    ranks[order] = np.arange(1, mean_drop.size + 1)
    warnings = [
        f"feature {feature_names[r['feature']]!r} is constant; drop is 0 by construction"
        for r in results
        if r["constant_feature"]
    ]
    return ImportanceReport(
        feature_names=list(feature_names),
        mean_drop=mean_drop,
        std_drop=std_drop,
        ranks=ranks,
        warnings=warnings,
    )


@dataclass
class RunAggregate:
    fpr_grid: np.ndarray
    mean_tpr: np.ndarray
    std_tpr: np.ndarray
    aucs: np.ndarray
    auc_mean: float
    auc_std: float  # population convention
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray


def interpolate_tpr(curve, grid):
    """TPR at each grid FPR, taking the upper envelope at duplicate FPRs.

    The curve's FPR and TPR must both be non-decreasing, as along a
    `roc_curve`, so the last point of each run of equal FPRs has the
    highest TPR.
    """
    last = np.r_[curve.fpr[1:] != curve.fpr[:-1], True]
    return np.interp(grid, curve.fpr[last], curve.tpr[last])


def aggregate_runs(curves, aucs):
    """Mean/std TPR at 101 evenly spaced FPRs from 0 to 1, plus a histogram
    of the AUCs in 50 bins of width 0.02 over [0, 1]."""
    if len(curves) < 2:
        raise EvaluationError("need at least two runs to aggregate")
    grid = np.linspace(0.0, 1.0, 101)
    tprs = np.vstack([interpolate_tpr(c, grid) for c in curves])
    aucs = np.asarray(aucs, dtype=np.float64)
    edges = np.linspace(0.0, 1.0, 51)
    counts, _ = np.histogram(aucs, bins=edges)
    return RunAggregate(
        fpr_grid=grid,
        mean_tpr=tprs.mean(axis=0),
        std_tpr=tprs.std(axis=0),
        aucs=aucs,
        auc_mean=float(aucs.mean()),
        auc_std=float(aucs.std()),
        histogram_edges=edges,
        histogram_counts=counts,
    )


def _sorted_quantile(s, q):
    """numpy's default `linear` percentile of sorted `s`, with its `_lerp`
    arithmetic, so the bits match `np.percentile`."""
    index = (s.size - 1) * q
    lo = math.floor(index)
    t = index - lo
    a, b = s[lo], s[min(lo + 1, s.size - 1)]
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def five_number_summary(values):
    """Boxplot of `values`, bit for bit what `np.percentile` and `np.median`
    give, from one sort: `np.median` would import numpy.ma."""
    values = np.asarray(values, dtype=np.float64)
    low, high = float(values.min()), float(values.max())
    s = np.sort(values, axis=None)
    h = s.size // 2
    if math.isnan(s[-1]):  # NaN sorts last; numpy returns it for all three
        q1 = median = q3 = s[-1]
    else:
        q1, q3 = _sorted_quantile(s, 0.25), _sorted_quantile(s, 0.75)
        median = s[h] if s.size % 2 else (s[h - 1] + s[h]) / 2
    return {"min": low, "q1": float(q1), "median": float(median), "q3": float(q3), "max": high}
