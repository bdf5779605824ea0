"""Output checks for the gapnet benchmark, computed apart from the program.

Nothing here imports gapnet. Every expected value is recomputed from the CSV
the workload generated, or is a property the method must have: AUCs by
counting pairs, DeLong statistics by the midrank formulation (a different
algorithm from the program's pair matrix), scores by a plain-NumPy forward
pass over the saved model JSON. Each check returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

REL_TOL = 1e-9


class CsvData:
    """The CSV as the benchmark reads it: values, presence mask, labels."""

    def __init__(self, path, missing_token=""):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        label_pos = header.index("label")
        keep = [i for i in range(len(header)) if i != label_pos]
        self.names = [header[i] for i in keep]
        cells = [[row[i] for i in keep] for row in rows[1:]]
        self.present = np.array([[c != missing_token for c in r] for r in cells])
        self.values = np.array(
            [[float(c) if c != missing_token else np.nan for c in r] for r in cells]
        )
        self.labels = np.array([int(row[label_pos]) for row in rows[1:]])

    @property
    def complete(self):
        return np.flatnonzero(self.present.all(axis=1))

    def complete_for(self, features):
        return np.flatnonzero(self.present[:, list(features)].all(axis=1))


def signature_groups(present):
    """Feature groups with identical presence columns, by lowest index."""
    groups = {}
    for j in range(present.shape[1]):
        groups.setdefault(present[:, j].tobytes(), []).append(j)
    return sorted(groups.values(), key=lambda g: g[0])


def test_size(n_complete, test_fraction):
    return int(math.floor(test_fraction * n_complete))


def row_epochs(data, groups, test_fraction, epochs):
    """Training rows x epochs of one resample: baseline, each stage-I
    sub-network and stage II. Test rows are complete rows, so every model
    loses exactly the test-set size."""
    n_complete = data.complete.size
    n_test = test_size(n_complete, test_fraction)
    rows = 2 * (n_complete - n_test)
    rows += sum(data.complete_for(g).size - n_test for g in groups)
    return rows * epochs


def auc_pairs(scores, labels):
    """AUC as the share of positive-negative pairs ordered right, ties half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(wins) / (pos.size * neg.size)


def _midranks(x):
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2.0)[inverse]


def delong(scores_a, scores_b, labels):
    """Paired DeLong z and two-sided p, via midranks (Sun & Xu 2014)."""
    labels = np.asarray(labels)
    v10, v01 = [], []
    for s in (scores_a, scores_b):
        s = np.asarray(s, dtype=np.float64)
        x, y = s[labels == 1], s[labels == 0]
        m, n = x.size, y.size
        tz = _midranks(np.concatenate([x, y]))
        v10.append((tz[:m] - _midranks(x)) / n)
        v01.append(1.0 - (tz[m:] - _midranks(y)) / m)
    m, n = v10[0].size, v01[0].size
    s10 = np.cov(np.vstack(v10)) if m > 1 else np.zeros((2, 2))
    s01 = np.cov(np.vstack(v01)) if n > 1 else np.zeros((2, 2))
    var = (s10[0, 0] + s10[1, 1] - 2 * s10[0, 1]) / m
    var += (s01[0, 0] + s01[1, 1] - 2 * s01[0, 1]) / n
    diff = v10[0].mean() - v10[1].mean()
    if var <= 0:
        return (0.0, 1.0) if diff == 0 else (math.nan, math.nan)
    z = diff / math.sqrt(var)
    return z, math.erfc(abs(z) / math.sqrt(2.0))


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _result(name, problems):
    return (name, not problems, "; ".join(problems[:3]))


# --- madelon-serial / madelon-jobs: report.json from `gapnet benchmark` -----

def check_benchmark(report, data, groups, runs, test_fraction):
    per_run = report["per_run"]
    complete = set(data.complete.tolist())
    n_test = test_size(len(complete), test_fraction)
    names = ["gapnet", "vanilla"] + [f"cluster_{k + 1}" for k in range(len(groups))]
    out = []

    p = []
    if sorted(r["run"] for r in per_run) != list(range(runs)):
        p.append(f"runs {[r['run'] for r in per_run]} != 0..{runs - 1}")
    for r in per_run:
        bad = [t for t in r["test_rows"] if t not in complete]
        if bad:
            p.append(f"run {r['run']}: test rows {bad[:3]} are not complete")
    out.append(_result("test rows are complete rows", p))

    p = []
    class_counts = [int((data.labels[sorted(complete)] == c).sum()) for c in (0, 1)]
    for r in per_run:
        rows = r["test_rows"]
        if len(rows) != n_test or len(set(rows)) != n_test:
            p.append(f"run {r['run']}: {len(rows)} test rows, want {n_test} distinct")
            continue
        for c, total in enumerate(class_counts):
            quota = n_test * total / len(complete)
            got = int((data.labels[rows] == c).sum())
            if not math.floor(quota) <= got <= math.ceil(quota):
                p.append(f"run {r['run']}: class {c} has {got}, quota {quota:.2f}")
    out.append(_result("test size and class strata", p))

    p = [
        f"run {r['run']}: labels differ from the CSV"
        for r in per_run
        if list(r["labels"]) != data.labels[r["test_rows"]].tolist()
    ]
    out.append(_result("test labels match the CSV", p))

    p = []
    if sorted(report["models"]) != sorted(names):
        p.append(f"models {sorted(report['models'])} != {sorted(names)}")
    for r in per_run:
        for name in names:
            s = np.asarray(r["scores"].get(name, []), dtype=np.float64)
            if s.size != len(r["test_rows"]):
                p.append(f"run {r['run']} {name}: {s.size} scores")
            elif not (np.isfinite(s).all() and (s >= 0).all() and (s <= 1).all()):
                p.append(f"run {r['run']} {name}: score outside [0, 1]")
    out.append(_result("one finite score in [0, 1] per test row", p))

    p = []
    for name in names:
        entry = report["models"].get(name)
        if entry is None:
            p.append(f"{name}: missing")
            continue
        want = [auc_pairs(r["scores"][name], r["labels"]) for r in per_run]
        if len(entry["aucs"]) != len(want) or not all(
            _close(a, b) for a, b in zip(entry["aucs"], want)
        ):
            p.append(f"{name}: aucs {entry['aucs']} != {want}")
        if not _close(entry["auc_mean"], float(np.mean(want))):
            p.append(f"{name}: auc_mean {entry['auc_mean']} != {np.mean(want)}")
        if not _close(entry["auc_std"], float(np.std(want))):
            p.append(f"{name}: auc_std {entry['auc_std']} != {np.std(want)}")
    out.append(_result("per-run AUCs, mean and std equal pair counts", p))

    p = []
    pooled_labels = [y for r in per_run for y in r["labels"]]
    pooled = {
        m: [s for r in per_run for s in r["scores"][m]] for m in ("gapnet", "vanilla")
    }
    z, pv = delong(pooled["gapnet"], pooled["vanilla"], pooled_labels)
    got = report["delong"]["pooled"]
    if not (_close(got["z"], z) and _close(got["p"], pv)):
        p.append(f"pooled z, p = {got['z']}, {got['p']}; recomputed {z}, {pv}")
    for r, d in zip(per_run, report["delong"]["per_run"]):
        z, pv = delong(r["scores"]["gapnet"], r["scores"]["vanilla"], r["labels"])
        if d["run"] != r["run"] or not (_close(d["z"], z) and _close(d["p"], pv)):
            p.append(f"run {r['run']}: z, p = {d['z']}, {d['p']}; recomputed {z}, {pv}")
    out.append(_result("DeLong z and p equal a midrank recomputation", p))
    return out


def paper_claim(report):
    """Does gapnet's mean AUC beat the baseline's, with pooled z > 0?

    Recorded, not checked: over 2 resamples of 20 test rows the claim fails
    on some inputs (seed 27 of the paper-madelon generator, at any epoch
    count), so it is a figure of the data, not a property of every output.
    """
    g = report["models"]["gapnet"]["auc_mean"]
    v = report["models"]["vanilla"]["auc_mean"]
    z = report["delong"]["pooled"]["z"]
    return {"gapnet_auc_mean": g, "baseline_auc_mean": v, "pooled_z": z,
            "holds": bool(g > v and z > 0)}


# --- wide-gaps: clusters, train and importance outputs -----------------------

def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_ACT = {"relu": lambda z: np.maximum(z, 0.0), "sigmoid": _sigmoid, "identity": lambda z: z}


def _mlp(net, x):
    for layer in net["layers"]:
        w = np.array(layer["weights"], dtype=np.float64)
        b = np.array(layer["biases"], dtype=np.float64)
        x = _ACT[layer["activation"]](x @ w + b)
    return x


def model_scores(model, data, rows):
    """Inference-mode scores of a saved model JSON, with its normalization."""
    norm = model["normalization"]
    x = (data.values[rows] - np.array(norm["mean"])) / np.array(norm["std"])
    if model["kind"] == "mlp":
        return _mlp(model["network"], x).reshape(-1)
    hidden = np.hstack(
        [_mlp(b, x[:, c["features"]]) for b, c in zip(model["bodies"], model["clusters"])]
    )
    fusion = model["fusion"]
    z = hidden @ np.array(fusion["weights"]) + np.array(fusion["biases"])
    return _ACT[fusion["activation"]](z).reshape(-1)


def model_features(model):
    if model["kind"] == "mlp":
        return list(range(len(model["network"]["layers"][0]["weights"])))
    return [j for c in model["clusters"] for j in c["features"]]


def check_wide(clusters, train_report, models, importance, data, blocks):
    """`blocks` is the feature partition the generator's gap blocks imply."""
    out = []

    want = [
        ([data.names[j] for j in g], int(data.complete_for(g).size)) for g in blocks
    ]
    got = [(c["features"], c["complete_rows"]) for c in clusters["clusters"]]
    p = [] if got == want and clusters["valid"] else [f"clusters {got} != {want}"]
    out.append(_result("clusters match the generator's gap blocks", p))

    p = []
    rows = train_report["test_rows"]
    for name, model in models.items():
        entry = train_report["models"][name]
        want_auc = auc_pairs(model_scores(model, data, rows), data.labels[rows])
        if not _close(entry["test_auc"], want_auc):
            p.append(f"{name}: test_auc {entry['test_auc']} != forward pass {want_auc}")
    out.append(_result("test AUCs equal a NumPy forward pass of the saved models", p))

    feats = model_features(models["gapnet"])
    names = [f["name"] for f in importance["features"]]
    drops = [f["mean_auc_drop"] for f in importance["features"]]
    stds = [f["std_auc_drop"] for f in importance["features"]]
    p = []
    if sorted(names) != sorted(data.names[j] for j in feats) or len(set(names)) != len(names):
        p.append("features are not the model's features, each once")
    if [f["rank"] for f in importance["features"]] != list(range(1, len(names) + 1)):
        p.append("ranks are not 1..F in listed order")
    if any(a < b for a, b in zip(drops, drops[1:])):
        p.append("listed order is not descending mean drop")
    if not np.isfinite(drops + stds).all():
        p.append("non-finite drop")
    out.append(_result("importance ranks each feature once by mean drop", p))

    n_rows = int(data.complete_for(feats).size)
    p = [] if importance["n_rows"] == n_rows else [f"n_rows {importance['n_rows']} != {n_rows}"]
    out.append(_result("importance rows are the rows complete for the model", p))
    return out


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
