"""Repeated-resampling benchmark: train vanilla, gap-aware, and per-cluster
models on fresh splits, then aggregate ROC/AUC statistics across runs."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import dataset as ds_mod
from .clustering import MODELS, signature_clusters
from .evaluation import (
    aggregate_runs,
    auc,
    confusion_at,
    delong_test,
    five_number_summary,
    metrics,
    roc_curve,
)
from .models import TrainConfig, predict, predict_subnet, train_gapnet, train_vanilla
from .numerics import forked_map, usable_cpus


class BenchmarkError(RuntimeError):
    pass


@dataclass
class BenchmarkConfig(TrainConfig):
    """Training settings plus the number of resamples and `jobs`, the most
    processes the resamples run on (never more than the runs or the usable
    CPUs)."""

    runs: int = 100
    jobs: int = 1

    def _rules(self):
        return super()._rules() + [
            (self.runs >= 2, "need at least 2 runs"),
            (self.jobs >= 1, "jobs must be >= 1"),
        ]


def run_seed(cfg, run_index):
    """The seed that run `run_index` trains with."""
    return cfg.seed ^ run_index


def train_run(ds, plan, cfg, run_index, models=MODELS):
    """Run i: split, normalize, train the named models (the baseline first)
    and score them on the test rows. Returns the split, the normalization
    stats (None when off), cfg with the run's seed, the trained models by
    name, and the test-row scores of each model and sub-network by name.
    `gapnet train --seed s` is run 0."""
    seed = run_seed(cfg, run_index)
    split_rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
    split = ds_mod.split(ds, cfg.test_fraction, split_rng, stratified=cfg.stratified)
    test = split.test_rows
    # not np.unique, whose first call raises the process's peak RSS by ~0.4 MB
    if ds.labels[test].min() == ds.labels[test].max():
        raise ds_mod.DatasetError(f"the {test.size} test row(s) hold one class only; "
                                  "a run needs both classes among its test rows")
    stats = ds_mod.compute_stats(ds, split.train_rows) if cfg.normalize else None
    work = ds_mod.normalize(ds, stats) if cfg.normalize else ds
    cfg = replace(cfg, seed=seed)
    trained, scores = {}, {}
    if "vanilla" in models:
        trained["vanilla"] = train_vanilla(work, split, cfg)
        scores["vanilla"] = predict(trained["vanilla"], work, test)
    if "gapnet" in models:
        trained["gapnet"], subnets = train_gapnet(work, plan, split, cfg)
        scores["gapnet"] = predict(trained["gapnet"], work, test)
        for net, cluster in zip(subnets, plan.clusters):
            scores[cluster.name] = predict_subnet(net, cluster, work, test)
    return split, stats, cfg, trained, scores


def run_single(ds, plan, cfg, run_index):
    """One resampled split: train every model, score the shared test rows."""
    split, _, tcfg, _, scores = train_run(ds, plan, cfg, run_index)
    test = split.test_rows
    return {
        "run": run_index,
        "seed": tcfg.seed,
        "test_rows": test.tolist(),
        "labels": ds.labels[test].tolist(),
        "scores": {name: s.tolist() for name, s in scores.items()},
    }


def _worker(ds, plan, cfg, run_index):
    try:
        return run_single(ds, plan, cfg, run_index)
    except Exception as exc:
        # an input error stays a ValueError, so the CLI reports it as one
        kind = ValueError if isinstance(exc, ValueError) else BenchmarkError
        raise kind(f"run {run_index} (seed {run_seed(cfg, run_index)}) failed: {exc}") from exc


def run_benchmark(ds, plan=None, cfg=None):
    """All runs plus aggregation; identical output regardless of job count.

    The runs are cut into min(jobs, runs, usable CPUs) contiguous ranges.
    The first range runs in this process and each other one on a forked
    child (`forked_map`), so the results come back in run order and the
    first failing run is the one whose error is raised.
    """
    cfg = cfg or BenchmarkConfig()
    if plan is None:
        plan = signature_clusters(ds)
    parts = min(cfg.jobs, cfg.runs, usable_cpus())
    cuts = [cfg.runs * i // parts for i in range(parts + 1)]
    ranges = forked_map(lambda b: [_worker(ds, plan, cfg, i) for i in range(*b)],
                        zip(cuts, cuts[1:]))
    return aggregate_benchmark([res for runs in ranges for res in runs], plan, cfg)


def _delong(scores, labels):
    """delong_test of the first model of MODELS against the second."""
    return delong_test(*(scores[name] for name in MODELS), labels)


def aggregate_benchmark(results, plan, cfg):
    clusters = [c.name for c in plan.clusters]
    report = {"models": {}, "per_run": results}
    labels = [np.asarray(res["labels"]) for res in results]
    pooled_labels = np.concatenate(labels)
    pooled = {}
    for name in [*MODELS, *clusters]:
        scores = [np.asarray(res["scores"][name]) for res in results]
        agg = aggregate_runs(
            [roc_curve(s, y) for s, y in zip(scores, labels)],
            [auc(s, y) for s, y in zip(scores, labels)],
        )
        pooled[name] = np.concatenate(scores)
        counts = confusion_at(pooled[name], pooled_labels)
        report["models"][name] = {
            "auc_mean": agg.auc_mean,
            "auc_std": agg.auc_std,
            "aucs": agg.aucs.tolist(),
            "boxplot": five_number_summary(agg.aucs),
            "roc": {
                "fpr": agg.fpr_grid.tolist(),
                "mean_tpr": agg.mean_tpr.tolist(),
                "std_tpr": agg.std_tpr.tolist(),
            },
            "histogram": {
                "edges": agg.histogram_edges.tolist(),
                "counts": agg.histogram_counts.tolist(),
            },
            "confusion": asdict(counts),
            "metrics": asdict(metrics(counts)),
        }
    per_run_delong = []
    for res, y in zip(results, labels):
        d = _delong(res["scores"], y)
        per_run_delong.append({"run": res["run"], "z": d.z, "p": d.p})
    pooled_d = _delong(pooled, pooled_labels)
    report["delong"] = {
        "pooled": {
            **{f"auc_{name}": a for name, a in zip(MODELS, (pooled_d.auc_a, pooled_d.auc_b))},
            "variance": pooled_d.variance,
            "z": pooled_d.z,
            "p": pooled_d.p,
        },
        "per_run": per_run_delong,
    }
    # single-cluster models listed in descending order of median AUC
    report["cluster_order"] = sorted(
        clusters, key=lambda n: -report["models"][n]["boxplot"]["median"]
    )
    return report
