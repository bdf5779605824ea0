"""Command-line front end: synth, clusters, train, benchmark, importance.

Exit codes: 0 success, 2 invalid input (a ValueError), 3 failed run (a
RuntimeError or OSError). Errors go to stderr as one JSON object per failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import dataset as ds_mod
from .benchmark import BenchmarkConfig, run_benchmark, run_seed, train_run
from .clustering import MODELS, ClusteringError, load_plan, signature_clusters, validate_plan
from .dataset import DatasetError
from .evaluation import auc, importance_report
# train_run calls train_vanilla, train_gapnet, predict and predict_subnet; they
# stay imported here because perfbench/tracer.py looks them up on this module
from .models import (
    GapNetModel,
    TrainConfig,
    input_features,
    load_model,
    predict,
    predict_subnet,
    save_model,
    train_gapnet,
    train_vanilla,
)
from .numerics import blas_build, pin_blas_threads
from .synth import (
    MadelonConfig,
    SynthError,
    generate_madelon,
    inject_gaps,
    paper_gap_pattern,
)


def _fail(kind, message):
    print(json.dumps({"error": kind, "message": str(message)}), file=sys.stderr)


def _write_json(obj, path):
    """Writes obj with sorted keys, indent 1 and a trailing newline, when path
    is given; returns the text without the newline."""
    text = json.dumps(obj, sort_keys=True, indent=1)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    return text


def _input_hashes(ds, plan):
    """The sha256 of the dataset's bytes as load_csv parsed them (None when
    it cannot vouch for them) and of the plan file's bytes as load_plan
    parsed them (None without a plan file)."""
    return {"dataset_sha256": ds.sha256, "plan_sha256": plan.sha256}


def _out_dir(arg):
    base = arg or os.environ.get("GAPNET_OUT", ".")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_dataset(args):
    ds = ds_mod.load_csv(
        args.dataset, missing_token=args.missing_token, label_column=args.label_column
    )
    bad = ds.present & ~np.isfinite(ds.values)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        # the cached cells keep no line map: read the file again up to the
        # record (the header is record 0), as load_csv reads it
        with open(args.dataset, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            for _ in range(row + 2):
                next(reader, None)
        raise DatasetError(
            f"{args.dataset}:{reader.line_num}: non-finite value {float(ds.values[row, col])!r} "
            f"in column {ds.feature_names[col]!r}"
        )
    return ds


def _resolve_plan(args, ds):
    if args.plan:
        plan = load_plan(args.plan, ds.feature_names)
        report = validate_plan(plan, ds)
        if not report.valid:
            overlaps = [(ds.feature_names[j], names) for j, names in report.overlaps]
            raise ClusteringError(
                f"plan validation failed: overlaps={overlaps} "
                f"empty_support={report.empty_support}"
            )
        return plan
    return signature_clusters(ds)


def _add_dataset_args(p):
    p.add_argument("dataset", help="CSV file with a header row and a label column")
    p.add_argument("--missing-token", default="NA")
    p.add_argument("--label-column", default="label")


def _add_train_args(p):
    p.add_argument("--plan", help="JSON plan file: cluster name -> feature names")
    p.add_argument("--epochs", type=int, default=2000)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--hidden-multiplier", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--no-stratify", action="store_true")
    p.add_argument(
        "--unfreeze-bodies",
        action="store_true",
        help="fine-tune sub-network bodies during stage II instead of freezing them",
    )


def cmd_synth(args):
    if args.paper_madelon:
        paper = MadelonConfig()
        conflicts = [flag for flag, differs in (
            ("--n-samples", args.n_samples != paper.n_samples),
            ("--class-separation", args.class_separation != paper.class_separation),
            ("--clusters-per-class", args.clusters_per_class != paper.clusters_per_class),
            ("--no-gaps", args.no_gaps),
        ) if differs]
        if conflicts:
            raise SynthError(
                f"--paper-madelon fixes the published configuration; "
                f"it conflicts with {', '.join(conflicts)}"
            )
    cfg = MadelonConfig(
        n_samples=args.n_samples,
        class_separation=args.class_separation,
        clusters_per_class=args.clusters_per_class,
        seed=args.seed,
    )
    ds = generate_madelon(cfg)
    if not args.no_gaps:
        ds = inject_gaps(ds, paper_gap_pattern(args.n_samples))
    ds_mod.save_csv(ds, args.out)
    complete = ds.complete_rows()
    print(
        json.dumps(
            {
                "path": str(args.out),
                "n_samples": ds.n_samples,
                "n_features": ds.n_features,
                "complete_rows": int(complete.size),
                "missing_cells": int((~ds.present).sum()),
                "class_counts": [int((ds.labels == c).sum()) for c in (0, 1)],
            }
        )
    )
    return 0


def cmd_clusters(args):
    ds = _load_dataset(args)
    plan = load_plan(args.plan, ds.feature_names) if args.plan else signature_clusters(ds)
    if args.out:  # its directory made, as train's and benchmark's --out
        _out_dir(Path(args.out).parent)
    report = validate_plan(plan, ds)
    out = {
        "clusters": [
            {
                "name": c.name,
                "features": [ds.feature_names[j] for j in c.features],
                "complete_rows": report.counts[c.name],
            }
            for c in plan.clusters
        ],
        "uncovered_features": [ds.feature_names[j] for j in report.uncovered_features],
        "overlaps": [
            {"feature": ds.feature_names[j], "clusters": names}
            for j, names in report.overlaps
        ],
        "empty_support": report.empty_support,
        "valid": report.valid,
    }
    print(_write_json(out, args.out))
    if args.plan and not report.valid:
        _fail("validation", "supplied plan is invalid for this dataset")
        return 2
    return 0


def _train_config(args):
    return TrainConfig(
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        batch_size=args.batch_size,
        dropout_rate=args.dropout,
        hidden_multiplier=args.hidden_multiplier,
        seed=args.seed,
        freeze_bodies=not args.unfreeze_bodies,
        test_fraction=args.test_fraction,
        normalize=not args.no_normalize,
        stratified=not args.no_stratify,
    )


def cmd_train(args):
    cfg = _train_config(args)
    ds = _load_dataset(args)
    plan = _resolve_plan(args, ds)
    out = _out_dir(args.out)
    models = MODELS if args.model == "both" else (args.model,)
    split, stats, _, trained, scores = train_run(ds, plan, cfg, 0, models)
    # inputs by content and no output path, as in report.json's config_hash:
    # one run gives the same report from any directory
    config = {k: v for k, v in vars(args).items() if k not in ("func", "dataset", "plan", "out")}
    report = {
        "config": {**config, **_input_hashes(ds, plan)},
        "version": __version__,
        "test_rows": split.test_rows.tolist(),
        "models": {},
    }
    labels = ds.labels[split.test_rows]
    # saved once every model has trained, so a failed run leaves no model file
    for name, model in trained.items():
        path = out / f"{name}.model.json"
        save_model(model, path, feature_names=ds.feature_names, normalization=stats)
        report["models"][name] = {"path": path.name, "test_auc": auc(scores[name], labels)}
    if "gapnet" in trained:
        report["models"]["gapnet"]["stage1_test_auc"] = {
            c.name: auc(scores[c.name], labels) for c in plan.clusters
        }
    report_path = out / "train_report.json"
    _write_json(report, report_path)
    print(json.dumps({"report": str(report_path), **report["models"]}))
    return 0


def cmd_benchmark(args):
    cfg = BenchmarkConfig(**vars(_train_config(args)), runs=args.runs, jobs=args.jobs)
    ds = _load_dataset(args)
    plan = _resolve_plan(args, ds)
    out = _out_dir(args.out)  # a bad --out fails before any run trains
    report = run_benchmark(ds, plan, cfg)
    config_snapshot = {
        "command": "benchmark",
        "dataset": str(args.dataset),
        **_input_hashes(ds, plan),
        "plan_file": args.plan,
        "benchmark": vars(cfg).copy(),
        "version": __version__,
    }
    # inputs hashed by content, not path, and jobs (parallelism only) left out:
    # one run hashes alike from any directory and with any worker count
    hashed = {k: v for k, v in config_snapshot.items() if k not in ("dataset", "plan_file")}
    hashed["benchmark"] = {k: v for k, v in vars(cfg).items() if k != "jobs"}
    report["config_hash"] = hashlib.sha256(json.dumps(hashed, sort_keys=True).encode()).hexdigest()
    report["version"] = __version__
    manifest = {
        **config_snapshot,
        "per_run_seeds": [run_seed(cfg, i) for i in range(cfg.runs)],
        **blas_build(),
        "artifacts": {
            "report": str(out / "report.json"),
            "roc_csv": str(out / "roc.csv"),
            "histogram_csv": str(out / "histogram.csv"),
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    _write_json(manifest, out / "manifest.json")
    _write_json(report, out / "report.json")
    for filename, columns, table in (
        ("roc.csv", ("fpr", "mean_tpr", "std_tpr"),
         lambda roc, hist: (roc["fpr"], roc["mean_tpr"], roc["std_tpr"])),
        ("histogram.csv", ("bin_lo", "bin_hi", "count"),
         lambda roc, hist: (hist["edges"], hist["edges"][1:], hist["counts"])),
    ):
        with open(out / filename, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", *columns])
            for name, entry in sorted(report["models"].items()):
                for row in zip(*table(entry["roc"], entry["histogram"])):
                    writer.writerow([name, *map(repr, row)])
    summary = {
        "report": str(out / "report.json"),
        **{f"{name}_auc": "{auc_mean:.3f}±{auc_std:.3f}".format(**report["models"][name])
           for name in MODELS},
        "delong_z": report["delong"]["pooled"]["z"],
        "delong_p": report["delong"]["pooled"]["p"],
    }
    print(json.dumps(summary))
    return 0


def cmd_importance(args):
    if args.top_k < 0:
        raise ValueError("--top-k must be >= 0")
    model, feature_names, stats = load_model(args.model)
    ds = _load_dataset(args)
    if feature_names is not None and feature_names != ds.feature_names:
        raise DatasetError("model feature names do not match the dataset header")
    n = ds.n_features
    if not isinstance(model, GapNetModel) and model.input_width != n:
        raise DatasetError(f"model reads {model.input_width} features, the dataset has {n}")
    if stats is not None and stats.mean.size != n:
        raise DatasetError(f"model normalizes {stats.mean.size} features, the dataset has {n}")
    work = ds_mod.normalize(ds, stats) if stats is not None else ds
    feats = input_features(model)
    rows = work.complete_rows_for(feats)
    if rows.size == 0:
        raise DatasetError("no rows are complete for the model's features")
    Xc = work.dense_block(rows, feats)
    labels = work.labels[rows]
    if args.out:  # its directory made before any column is scored
        _out_dir(Path(args.out).parent)
    rng = np.random.default_rng(args.seed)
    report = importance_report(
        model.predict,
        Xc,
        labels,
        [ds.feature_names[j] for j in feats],
        repeats=args.repeats,
        rng=rng,
    )
    order = np.argsort(report.ranks)
    out = {
        "repeats": args.repeats,
        "n_rows": int(rows.size),
        "warnings": report.warnings,
        "features": [
            {
                "name": report.feature_names[i],
                "mean_auc_drop": float(report.mean_drop[i]),
                "std_auc_drop": float(report.std_drop[i]),
                "rank": int(report.ranks[i]),
            }
            for i in order
        ],
        "top": [report.feature_names[i] for i in order[: args.top_k]],
    }
    print(_write_json(out, args.out))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gapnet",
        description="Two-stage neural network training for incomplete tabular data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic benchmark dataset")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-samples", type=int, default=1000)
    p.add_argument(
        "--class-separation", type=float, default=MadelonConfig.class_separation
    )
    p.add_argument(
        "--clusters-per-class", type=int, default=MadelonConfig.clusters_per_class
    )
    p.add_argument("--no-gaps", action="store_true", help="skip the gap pattern")
    p.add_argument(
        "--paper-madelon",
        action="store_true",
        help="the published benchmark configuration (the defaults); "
        "an error with a flag that changes it",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("clusters", help="detect or validate feature clusters")
    _add_dataset_args(p)
    p.add_argument("--plan", help="JSON plan file to validate instead of detecting")
    p.add_argument("--out", help="write the report here as well")
    p.set_defaults(func=cmd_clusters)

    p = sub.add_parser("train", help="train models on one split")
    _add_dataset_args(p)
    _add_train_args(p)
    p.add_argument("--model", choices=(*MODELS, "both"), default="both")
    p.add_argument("--out", help="output directory (default $GAPNET_OUT or .)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("benchmark", help="repeated-resampling comparison")
    _add_dataset_args(p)
    _add_train_args(p)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="output directory (default $GAPNET_OUT or .)")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("importance", help="permutation feature importance")
    p.add_argument("model", help="serialized model file")
    _add_dataset_args(p)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--top-k", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report here as well")
    p.set_defaults(func=cmd_importance)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # before any child is forked, so every process computes alike
    pin_blas_threads()
    try:
        return args.func(args)
    except ValueError as exc:
        _fail("validation", exc)
        return 2
    except (RuntimeError, OSError) as exc:
        _fail("runtime", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
