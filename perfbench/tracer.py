"""Traced in-process run of one benchmark step.

Installs timing wrappers on gapnet's public functions where their callers
look them up (module globals such as ``gapnet.benchmark.train_vanilla``,
class attributes such as ``MlpNetwork.forward``), then runs the step in this
interpreter: ``gapnet.cli.main(argv)`` or ``widegaps.main(argv)``. Spans
(id, name, start, end, parent id, pid, meta) stay in memory and are written
as JSON when the step ends. Only this script loads the wrappers; untraced
benchmark runs never import it.

Pool workers are forked from this process and inherit the wrappers. Their
spans ride back to the parent inside each run's result dict and are taken
out again before the program aggregates the results.

    PYTHONPATH=src python3 perfbench/tracer.py --spans s.json gapnet -- synth ...
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pickle
import sys
import time

SPANS = []
STACK = []
MAIN_PID = os.getpid()
SHIP_KEY = "_trace_spans"


def traced(name, meta=None, post=None, cpu=False):
    """Wrap fn so each call records a span; `meta(args, kwargs)` and
    `post(result)` add call facts to it before and after the call."""

    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            rec = [f"{pid}:{len(SPANS)}", name, 0.0, 0.0,
                   STACK[-1] if STACK else None, pid,
                   meta(args, kwargs) if meta else {}]
            SPANS.append(rec)
            STACK.append(rec[0])
            c0 = time.process_time() if cpu else 0.0
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                STACK.pop()
            if cpu:
                rec[6]["cpu"] = time.process_time() - c0
            if post:
                rec[6].update(post(result))
            return result

        return wrapper

    return wrap


def ship(fn):
    """Attach a forked worker's spans to the result it returns."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() == MAIN_PID:
            return fn(*args, **kwargs)
        mark = len(SPANS)
        result = fn(*args, **kwargs)
        result[SHIP_KEY] = SPANS[mark:]
        del SPANS[mark:]
        return result

    return wrapper


def collect(fn):
    """Take shipped worker spans out of the results before aggregation."""

    @functools.wraps(fn)
    def wrapper(results, *args, **kwargs):
        for res in results:
            SPANS.extend(res.pop(SHIP_KEY, []))
        return fn(results, *args, **kwargs)

    return wrapper


def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _gemm_size(layers):
    return sum(l.fan_in * l.fan_out for l in layers)


def _forward_meta(args, kwargs):
    net, batch = args[0], args[1]
    mode = _arg(args, kwargs, 2, "mode", "infer")
    rows = len(batch)
    flop = 2 * rows * _gemm_size(net.layers) if mode == "train" else 0
    return {"mode": mode, "rows": rows, "flop": flop}


def _backprop_meta(args, kwargs):
    net, cache = args[0], args[1]
    rows = len(cache.inputs[0])
    # every layer computes delta @ W.T; trainable ones also inputs.T @ delta
    size = _gemm_size(net.layers) + _gemm_size([l for l in net.layers if l.trainable])
    return {"flop": 2 * rows * size}


def _fit_meta(args, kwargs):
    net, X, cfg = args[0], args[1], args[3]
    meta = {"rows": len(X), "epochs": cfg.epochs}
    if hasattr(net, "layers"):
        meta["params"] = sum(l.weights.size + l.biases.size for l in net.layers)
    return meta


def _run_benchmark_meta(args, kwargs):
    ds, plan, cfg = args[0], args[1], args[2]
    return {"jobs": cfg.jobs, "task_bytes": len(pickle.dumps((ds, plan, cfg, 0)))}


def _importance_meta(args, kwargs):
    return {"features": args[1].shape[1], "repeats": _arg(args, kwargs, 4, "repeats", 10)}


def install():
    """Wrap every traced function where its callers look it up."""
    from gapnet import benchmark, cli, dataset, evaluation, models, numerics, synth

    targets = [
        # span name, [(owner, attribute)], wrapper options
        ("cli.synth", [(cli, "cmd_synth")], {}),
        ("cli.clusters", [(cli, "cmd_clusters")], {}),
        ("cli.train", [(cli, "cmd_train")], {}),
        ("cli.benchmark", [(cli, "cmd_benchmark")], {}),
        ("cli.importance", [(cli, "cmd_importance")], {}),
        ("synth.generate_madelon", [(cli, "generate_madelon"), (synth, "generate_madelon")], {}),
        ("synth.inject_gaps", [(cli, "inject_gaps"), (synth, "inject_gaps")], {}),
        ("dataset.load_csv", [(dataset, "load_csv")],
         {"post": lambda ds: {"cells": ds.n_samples * ds.n_features}}),
        ("dataset.save_csv", [(dataset, "save_csv")], {}),
        ("dataset.split", [(dataset, "split")], {}),
        ("dataset.compute_stats", [(dataset, "compute_stats")], {}),
        ("dataset.normalize", [(dataset, "normalize")], {}),
        ("clustering.signature_clusters",
         [(cli, "signature_clusters"), (benchmark, "signature_clusters")], {}),
        ("clustering.validate_plan", [(cli, "validate_plan")], {}),
        ("benchmark.run_benchmark", [(cli, "run_benchmark")], {"meta": _run_benchmark_meta}),
        ("benchmark.run_single", [(benchmark, "run_single")], {"cpu": True}),
        ("benchmark.aggregate_benchmark", [(benchmark, "aggregate_benchmark")], {}),
        ("models.train_vanilla", [(cli, "train_vanilla"), (benchmark, "train_vanilla")], {}),
        ("models.train_gapnet", [(cli, "train_gapnet"), (benchmark, "train_gapnet")], {}),
        ("models.train_stage1", [(models, "train_stage1")], {}),
        ("models.train_stage2", [(models, "train_stage2")], {}),
        ("models.fit_network", [(models, "fit_network")], {"meta": _fit_meta}),
        ("models.fit_gapnet", [(models, "fit_gapnet")], {"meta": _fit_meta}),
        ("models.fuse", [(models, "fuse")], {}),
        ("models.gapnet_gradients", [(models, "gapnet_gradients")], {}),
        ("models.predict", [(cli, "predict"), (benchmark, "predict")], {}),
        ("models.predict_subnet", [(cli, "predict_subnet"), (benchmark, "predict_subnet")], {}),
        ("models.GapNetModel.predict", [(models.GapNetModel, "predict")], {}),
        ("models.save_model", [(cli, "save_model")], {}),
        ("models.load_model", [(cli, "load_model")], {}),
        ("numerics.forward", [(numerics.MlpNetwork, "forward")], {"meta": _forward_meta}),
        ("numerics.backprop", [(numerics.MlpNetwork, "backprop")], {"meta": _backprop_meta}),
        ("numerics.adam_step", [(models, "adam_step")], {}),
        ("evaluation.auc", [(cli, "auc"), (benchmark, "auc"), (evaluation, "auc")], {}),
        ("evaluation.roc_curve", [(benchmark, "roc_curve")], {}),
        ("evaluation.aggregate_runs", [(benchmark, "aggregate_runs")], {}),
        ("evaluation.delong_test", [(benchmark, "delong_test")], {}),
        ("evaluation.confusion_at", [(benchmark, "confusion_at")], {}),
        ("evaluation.five_number_summary", [(benchmark, "five_number_summary")], {}),
        ("evaluation.importance_report", [(cli, "importance_report")],
         {"meta": _importance_meta}),
        ("evaluation.permutation_importance", [(evaluation, "permutation_importance")], {}),
    ]
    for name, owners, opts in targets:
        for owner, attr in owners:
            setattr(owner, attr, traced(name, **opts)(getattr(owner, attr)))
    benchmark._worker = ship(benchmark._worker)
    benchmark.aggregate_benchmark = collect(benchmark.aggregate_benchmark)


def main():
    parser = argparse.ArgumentParser(description="traced run of one benchmark step")
    parser.add_argument("--spans", required=True, help="write spans here as JSON")
    parser.add_argument("kind", choices=("gapnet", "widegaps"))
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    install()
    if args.kind == "gapnet":
        from gapnet.cli import main as step
    else:
        from widegaps import main as step
    code = traced(f"{'cli' if args.kind == 'gapnet' else 'synth'}.main")(step)(argv)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(SPANS, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
