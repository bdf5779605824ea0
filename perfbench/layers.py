"""Per-layer metrics from the spans of a traced run.

A span is ``[id, name, start, end, parent id, pid, meta]``; its layer is the
module prefix of its name (``numerics.forward`` belongs to ``numerics``).
Durations of functions that nest under themselves (``models.predict`` calls
``GapNetModel.predict``) are counted once, at the outermost call. Spans from
pool workers run in parallel with their parent, so a span's self time
subtracts only the children recorded in its own process.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load_spans(paths):
    """Merge span files of several processes, keeping ids unique."""
    spans = []
    for k, path in enumerate(paths):
        with open(path, encoding="utf-8") as fh:
            for sid, name, start, end, parent, pid, meta in json.load(fh):
                parent = None if parent is None else f"{k}/{parent}"
                spans.append([f"{k}/{sid}", name, start, end, parent, pid, meta])
    return spans


def _dur(span):
    return span[3] - span[2]


class Trace:
    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.kids = defaultdict(list)
        for s in spans:
            if s[4] is not None:
                self.kids[s[4]].append(s)

    def named(self, *names):
        return [s for s in self.spans if s[1] in names]

    def ancestors(self, span):
        parent = self.by_id.get(span[4])
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent[4])

    def under(self, span, *names):
        return any(a[1] in names for a in self.ancestors(span))

    def total(self, *names):
        """Summed time in these functions, outermost calls only."""
        return sum(_dur(s) for s in self.named(*names) if not self.under(s, *names))

    def self_time(self, span):
        own = [k for k in self.kids[span[0]] if k[5] == span[5]]
        return _dur(span) - sum(_dur(k) for k in own)

    def module_self_times(self):
        out = defaultdict(float)
        for s in self.spans:
            out[s[1].split(".")[0]] += self.self_time(s)
        return out


def _step_us(trace):
    """Median forward + backprop + Adam step of the largest stage-I network."""
    fits = [
        s for s in trace.named("models.fit_network")
        if trace.by_id.get(s[4], [None, None])[1] == "models.train_stage1"
    ]
    if not fits:
        return None
    size = max((s[6]["params"], s[6]["rows"]) for s in fits)
    steps = []
    for fit in fits:
        if (fit[6]["params"], fit[6]["rows"]) != size:
            continue
        acc = 0.0
        for kid in trace.kids[fit[0]]:
            acc += _dur(kid)
            if kid[1] == "numerics.adam_step":
                steps.append(acc)
                acc = 0.0
    return statistics.median(steps) * 1e6


def layer_metrics(spans):
    """Every metric the trace exercised, as name -> (value, unit)."""
    t = Trace(spans)
    forwards = t.named("numerics.forward")
    fwd_train = [s for s in forwards if s[6]["mode"] == "train"]
    backprops = t.named("numerics.backprop")
    fits = t.named("models.fit_network", "models.fit_gapnet")
    loads = t.named("dataset.load_csv")
    selfs = t.module_self_times()

    forward_train_s = sum(_dur(s) for s in fwd_train)
    backprop_s = sum(_dur(s) for s in backprops)
    gflop = sum(s[6]["flop"] for s in fwd_train + backprops) / 1e9
    load_s = sum(_dur(s) for s in loads)
    m = {
        "cli.self_s": (selfs["cli"], "s"),
        "synth.generate_s": (t.total("synth.generate_madelon", "synth.inject_gaps"), "s"),
        "dataset.save_csv_s": (t.total("dataset.save_csv"), "s"),
        "dataset.load_csv_s": (load_s, "s"),
        "dataset.load_csv_cells_per_s": (
            sum(s[6]["cells"] for s in loads) / load_s if load_s else 0.0, "cells/s"),
        "dataset.prepare_s": (
            t.total("dataset.split", "dataset.compute_stats", "dataset.normalize"), "s"),
        "clustering.signature_clusters_s": (t.total("clustering.signature_clusters"), "s"),
        "models.vanilla_s": (t.total("models.train_vanilla"), "s"),
        "models.stage1_s": (t.total("models.train_stage1"), "s"),
        "models.stage2_s": (t.total("models.train_stage2"), "s"),
        "models.row_epochs": (sum(s[6]["rows"] * s[6]["epochs"] for s in fits), "count"),
        "models.stage2_body_forwards": (
            sum(1 for s in fwd_train if t.under(s, "models.fit_gapnet")), "count"),
        "models.predict_s": (t.total(
            "models.predict", "models.predict_subnet", "models.GapNetModel.predict"), "s"),
        "models.self_s": (selfs["models"], "s"),
        "numerics.forward_train_s": (forward_train_s, "s"),
        "numerics.forward_infer_s": (
            sum(_dur(s) for s in forwards if s[6]["mode"] != "train"), "s"),
        "numerics.backprop_s": (backprop_s, "s"),
        "numerics.adam_step_s": (t.total("numerics.adam_step"), "s"),
        "numerics.train_steps": (len(t.named("numerics.adam_step")), "count"),
        "numerics.train_gflop": (gflop, "Gflop"),
        "numerics.train_gflops_per_s": (
            gflop / (forward_train_s + backprop_s) if fwd_train else 0.0, "Gflop/s"),
        "evaluation.auc_s": (t.total("evaluation.auc"), "s"),
        "evaluation.auc_calls": (len(t.named("evaluation.auc")), "count"),
        "evaluation.self_s": (selfs["evaluation"], "s"),
        "trace.spans": (len(spans), "count"),
    }
    step = _step_us(t)
    if step is not None:
        m["numerics.step_us"] = (step, "us")
    for module in ("synth", "dataset", "clustering", "numerics", "benchmark"):
        if module in selfs:
            m[f"{module}.self_s"] = (selfs[module], "s")

    reports = t.named("evaluation.importance_report")
    if reports:
        predictions = sum(
            1 for s in t.spans
            if (s[1] == "models.GapNetModel.predict"
                or (s[1] == "numerics.forward" and s[6]["mode"] == "infer"
                    and not t.under(s, "models.GapNetModel.predict")))
            and t.under(s, "evaluation.importance_report")
        )
        useful = sum(r[6]["features"] * r[6]["repeats"] + 1 for r in reports)
        m["evaluation.importance_useful_ratio"] = (useful / predictions, "ratio")

    runs = t.named("benchmark.run_single")
    if runs:
        bench = t.named("benchmark.run_benchmark")
        aggregate_s = t.total("benchmark.aggregate_benchmark")
        m.update({
            "cli.write_artifacts_s": (
                sum(t.self_time(s) for s in t.named("cli.benchmark")), "s"),
            "evaluation.delong_s": (t.total("evaluation.delong_test"), "s"),
            "evaluation.roc_aggregate_s": (
                t.total("evaluation.roc_curve", "evaluation.aggregate_runs"), "s"),
            "benchmark.run_s": (statistics.median(_dur(s) for s in runs), "s"),
            "benchmark.cpu_per_run_s": (statistics.median(s[6]["cpu"] for s in runs), "s"),
            "benchmark.aggregate_s": (aggregate_s, "s"),
            "benchmark.task_bytes": (bench[0][6]["task_bytes"], "bytes"),
            "benchmark.pool_overhead_s": (
                sum(_dur(s) for s in bench) - aggregate_s
                - sum(_dur(s) for s in runs) / bench[0][6]["jobs"], "s"),
        })
    return m
