#!/usr/bin/env python3
"""gapnet benchmark: drive the CLI the way a user does, time it, check it.

One run of one workload, from the root of a checkout:

    python3 perfbench/run.py --workload madelon-serial --seed 1 --seconds 30 --trace 0

Each program command is a fresh `python -m gapnet.cli` process with
PYTHONPATH=src and one BLAS/OpenMP thread (see ONE_THREAD), started from
this single process one at a time. The workload's input is generated from
--seed. With --trace 0 the run times whole rounds of the workload's commands
from outside and prints the end-to-end metrics. With --trace 1 it runs one
plain round, then the same steps again under perfbench/tracer.py, and
prints the per-layer metrics. Either way every
output is checked by perfbench/checks.py, and the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

Two more modes of the same command:

    python3 perfbench/run.py --steadiness 5   # two sets of 5 seeds per workload
    python3 perfbench/run.py --self-test      # corrupt outputs, see checks fail

See perfbench/README.md for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import layers
import widegaps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
RESULTS = HERE / "results"

WORKLOADS = ("madelon-serial", "madelon-jobs", "wide-gaps")
PROGRAM_SEED = 0  # the program's own seed; only the input varies with --seed
TEST_FRACTION = 0.2  # gapnet's default
MADELON_RESAMPLES = 2
MADELON_EPOCHS = 500
WIDE_EPOCHS = 50
IMPORTANCE_REPEATS = 5
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170  # a child still running then is killed
THREAD_VAR_PREFIXES = ("OMP_", "OPENBLAS_", "MKL_", "GOTO_", "BLIS_", "NUMEXPR_", "VECLIB_")
# The program runs with one BLAS/OpenMP thread. Its default, one thread per
# core, spin-waits on these workloads' small matrices: on a shared 2-core host
# that doubled the CPU time, bought no wall time, and made the same round vary
# by a quarter between runs. madelon-jobs keeps the default, because its point
# is the oversubscription that default causes under --jobs.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(workload):
    env = {k: v for k, v in os.environ.items() if not k.startswith(THREAD_VAR_PREFIXES)}
    if workload != "madelon-jobs":
        env.update(ONE_THREAD)
    env.pop("GAPNET_OUT", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class Step:
    kind: str  # "gapnet" (the CLI) or "widegaps" (the input generator)
    argv: list
    role: str  # setup, clusters, train, importance

    def command(self, spans=None):
        if spans is not None:
            return [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans),
                    self.kind, "--", *self.argv]
        if self.kind == "gapnet":
            return [sys.executable, "-m", "gapnet.cli", *self.argv]
        return [sys.executable, str(HERE / "widegaps.py"), *self.argv]


@dataclass
class Done:
    start: float
    end: float
    cpu_s: float
    rss_mb: float
    code: int

    @property
    def seconds(self):
        return self.end - self.start


def setup_step(workload, seed, csv):
    if workload == "wide-gaps":
        return Step("widegaps", ["--seed", str(seed), "--out", str(csv)], "setup")
    return Step("gapnet", ["synth", "--paper-madelon", "--seed", str(seed),
                           "--out", str(csv)], "setup")


def round_steps(workload, csv, out):
    data = [str(csv), "--missing-token", ""]
    seed = ["--seed", str(PROGRAM_SEED)]
    if workload == "wide-gaps":
        return [
            Step("gapnet", ["clusters", *data, "--out", str(out / "clusters.json")],
                 "clusters"),
            Step("gapnet", ["train", *data, "--model", "both", "--epochs",
                            str(WIDE_EPOCHS), *seed, "--out", str(out)], "train"),
            Step("gapnet", ["importance", str(out / "gapnet.model.json"), *data,
                            "--repeats", str(IMPORTANCE_REPEATS), *seed,
                            "--out", str(out / "importance.json")], "importance"),
        ]
    jobs = nproc() if workload == "madelon-jobs" else 1
    return [Step("gapnet", ["benchmark", *data, "--runs", str(MADELON_RESAMPLES),
                            "--jobs", str(jobs), "--epochs", str(MADELON_EPOCHS), *seed,
                            "--out", str(out)], "train")]


def round_row_epochs(workload, data):
    """Training rows x epochs of one round, counted from the CSV."""
    groups = checks.signature_groups(data.present)
    if workload == "wide-gaps":
        return checks.row_epochs(data, groups, TEST_FRACTION, WIDE_EPOCHS)
    return MADELON_RESAMPLES * checks.row_epochs(data, groups, TEST_FRACTION, MADELON_EPOCHS)


def _kill_group(pid):
    """Kill a child and the pool workers in its process group."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_command(argv, workload, log, deadline):
    """Run one child to its end; wall span, CPU and peak RSS of it and of
    the processes it waited for (pool workers)."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(workload), stdout=fh,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(max(1.0, deadline - start), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Done(start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode)


class Ledger:
    """Every command and every check is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.commands = []

    def command(self, step, done):
        self.attempted += 1
        self.failed += done.code != 0
        self.commands.append({"role": step.role, "argv": step.argv, "code": done.code,
                              "seconds": done.seconds})

    def check(self, results):
        for name, ok, detail in results:
            self.attempted += 1
            self.failed += not ok
            self.checks.append({"check": name, "ok": ok, "detail": detail})

    @property
    def correct(self):
        return all(c["ok"] for c in self.checks)


# checks per kind of output, so that unreadable outputs fail as many operations
N_CHECKS = {"benchmark": 6, "wide": 4}


def load_outputs(workload, out):
    if workload == "wide-gaps":
        return {
            "clusters": checks.load_json(out / "clusters.json"),
            "train_report": checks.load_json(out / "train_report.json"),
            "models": {n: checks.load_json(out / f"{n}.model.json")
                       for n in ("vanilla", "gapnet")},
            "importance": checks.load_json(out / "importance.json"),
        }
    return {"report": checks.load_json(out / "report.json")}


def check_outputs(workload, outputs, data):
    if workload == "wide-gaps":
        return checks.check_wide(outputs["clusters"], outputs["train_report"],
                                 outputs["models"], outputs["importance"], data,
                                 widegaps.blocks())
    return checks.check_benchmark(outputs["report"], data,
                                  checks.signature_groups(data.present),
                                  MADELON_RESAMPLES, TEST_FRACTION)


def check_round(workload, out, data):
    try:
        return check_outputs(workload, load_outputs(workload, out), data)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        n = N_CHECKS["wide" if workload == "wide-gaps" else "benchmark"]
        return [(f"outputs of {workload} readable", False, repr(exc))] * n


def run_round(workload, csv, out, ledger, deadline, tracer_dir=None):
    """All commands of one round, in order; returns per-round figures."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    steps = round_steps(workload, csv, out)
    done = []
    for k, step in enumerate(steps):
        spans = None if tracer_dir is None else tracer_dir / f"spans-{k}.json"
        done.append(run_command(step.command(spans), workload, out / "commands.log",
                                deadline))
        ledger.command(step, done[-1])
    train_s = sum(d.seconds for s, d in zip(steps, done) if s.role == "train")
    figures = {
        "wall_s": done[-1].end - done[0].start,
        "train_s": train_s,
        "cpu_s": sum(d.cpu_s for d in done),
        "peak_rss_mb": max(d.rss_mb for d in done),
    }
    for s, d in zip(steps, done):
        if s.role == "importance":
            figures["importance_s"] = d.seconds
    return figures


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_hashes(out):
    """sha256 of every report and model file (manifest.json holds a timestamp)."""
    return {
        p.name: sha256(p) for p in sorted(out.iterdir())
        if p.suffix in (".json", ".csv") and p.name != "manifest.json"
    }


ENV_PROBE = r"""
import ctypes, glob, json, os, platform
import numpy
blas = getattr(numpy, "__config__", None)
blas = getattr(blas, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
threads = None
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*blas*")
for lib in glob.glob(libs):
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None and threads is None:
            fn.restype = ctypes.c_int
            threads = fn()
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    "blas_threads": threads,
    "thread_env": {k: v for k, v in os.environ.items() if "THREAD" in k or k.startswith("OMP_")},
}))
"""


def environment(workload):
    """What the program saw: versions, BLAS build and thread settings."""
    out = subprocess.run([sys.executable, "-c", ENV_PROBE], cwd=ROOT, env=child_env(workload),
                         capture_output=True, text=True, timeout=60, check=True)
    return {"nproc": nproc(), **json.loads(out.stdout)}


IMPORT_PROBE = ("import time; t = time.perf_counter(); import gapnet.cli; "
                "print(time.perf_counter() - t)")


def import_seconds(workload):
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(workload),
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metric_block(names_units, values):
    return {name: {"value": values[name], "unit": unit} for name, unit in names_units}


def measure(workload, seed, seconds, ledger, work, deadline):
    """Untraced run: set up several times, then whole rounds until --seconds."""
    csv = work / "input.csv"
    setup = setup_step(workload, seed, csv)
    setups = []
    for _ in range(SETUP_REPEATS):
        done = run_command(setup.command(), workload, work / "setup.log", deadline)
        ledger.command(setup, done)
        setups.append(done.seconds)
    data = checks.CsvData(csv)
    row_epochs = round_row_epochs(workload, data)
    rounds = []
    start = time.perf_counter()
    while True:
        fig = run_round(workload, csv, work / "out", ledger, deadline)
        ledger.check(check_round(workload, work / "out", data))
        rounds.append(fig)
        elapsed = time.perf_counter() - start
        if ledger.failed or elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    med = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": med["wall_s"],
        "train_rows_per_s": statistics.median(row_epochs / r["train_s"] for r in rounds),
        "cpu_s": med["cpu_s"],
        "peak_rss_mb": med["peak_rss_mb"],
    }
    extras = {"rounds": len(rounds), "row_epochs_per_round": row_epochs,
              "per_round": rounds, "setup_runs_s": setups}
    if "importance_s" in med:
        extras["importance_s"] = med["importance_s"]
    return values, extras, work / "out"


def trace(workload, seed, ledger, work, deadline):
    """One untraced round, then the same steps under the tracer."""
    csv = work / "input.csv"
    setup = setup_step(workload, seed, csv)
    done = run_command(setup.command(), workload, work / "setup.log", deadline)
    ledger.command(setup, done)
    data = checks.CsvData(csv)
    row_epochs = round_row_epochs(workload, data)
    plain = run_round(workload, csv, work / "plain", ledger, deadline)
    ledger.check(check_round(workload, work / "plain", data))
    imports = [import_seconds(workload) for _ in range(3)]

    spans = work / "spans"
    shutil.rmtree(spans, ignore_errors=True)
    spans.mkdir()
    traced_csv = work / "traced-input.csv"
    tsetup = setup_step(workload, seed, traced_csv)
    done = run_command(tsetup.command(spans / "setup.json"), workload, work / "setup.log",
                       deadline)
    ledger.command(tsetup, done)
    same = done.code == 0 and sha256(traced_csv) == sha256(csv)
    ledger.check([("traced set-up writes the same input", same, "")])
    traced = run_round(workload, csv, work / "out", ledger, deadline, tracer_dir=spans)
    ledger.check(check_round(workload, work / "out", data))

    values = layers.layer_metrics(layers.load_spans(sorted(spans.glob("*.json"))))
    counted = values["models.row_epochs"][0]
    ledger.check([("traced row-epochs equal the CSV count", counted == row_epochs,
                   f"traced {counted}, counted {row_epochs}")])
    values["cli.import_s"] = (statistics.median(imports), "s")
    values["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    extras = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"]}
    return values, extras, work / "out"


def run_one(args):
    if not (ROOT / "src" / "gapnet" / "cli.py").is_file():
        print(f"no gapnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    deadline = time.perf_counter() + RUN_DEADLINE_S
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    env = environment(args.workload)
    if args.trace:
        values, extras, out = trace(args.workload, args.seed, ledger, work, deadline)
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        metrics = metric_block(wanted, {k: v for k, (v, _) in values.items()})
        extras["other_layers"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()
                                  if k not in metrics}
    else:
        values, extras, out = measure(args.workload, args.seed, seconds, ledger, work,
                                      deadline)
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        metrics = metric_block(wanted, values)
    hashes = output_hashes(out) if out.is_dir() else {}
    if (out / "report.json").is_file():
        extras["paper_claim"] = checks.paper_claim(checks.load_json(out / "report.json"))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"attempted {ledger.attempted}, failed {ledger.failed}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for name, m in extras.get("other_layers", {}).items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}  (not in BENCHMARK.json)")
    if "importance_s" in extras:
        print(f"  {'importance_s':36s} {extras['importance_s']:.6g} s  (wide-gaps only)")
    if "paper_claim" in extras:
        print(f"  paper claim (recorded, not checked): {extras['paper_claim']}")
    for c in ledger.checks:
        if not c["ok"]:
            print(f"  CHECK FAILED: {c['check']}: {c['detail']}")
    for c in ledger.commands:
        if c["code"]:
            print(f"  COMMAND FAILED ({c['code']}): {' '.join(c['argv'])}")

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "trace": args.trace, "environment": env, "metrics": metrics, "extras": extras,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "commands": ledger.commands, "checks": ledger.checks, "output_sha256": hashes,
    }
    with open(RESULTS / f"{work.name}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    ok = ledger.correct and not ledger.failed
    if ok:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if ok else 1


# --- steadiness mode -----------------------------------------------------------

def _spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def steadiness(per_set):
    """Two sets of runs of every workload; do their medians agree within the
    bounds in BENCHMARK.json, and is each metric's spread within its bound?"""
    spec = load_spec()
    sets = [range(1, per_set + 1), range(per_set + 1, 2 * per_set + 1)]
    rows, steady = [], True
    for w in spec["workloads"]:
        runs = ([], [])
        for i in range(per_set):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for k in order:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                       "--seed", str(sets[k][i]), "--seconds", str(spec["run_seconds"]),
                       "--trace", "0"]
                out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                try:
                    line = json.loads(out.stdout.strip().splitlines()[-1])
                except (IndexError, json.JSONDecodeError):
                    print(f"{w['name']} seed {sets[k][i]}: no result, exit "
                          f"{out.returncode}\n{out.stderr[-2000:]}")
                    return 1
                runs[k].append(line)
                print(f"{w['name']} seed {sets[k][i]}: " + ", ".join(
                    f"{n}={m['value']:.4g}" for n, m in line["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs[0] + runs[1]}
        steady &= len(shares) == 1 and all(r["correct"] for r in runs[0] + runs[1])
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in runs[0]]
            b = [r["metrics"][m["name"]]["value"] for r in runs[1]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spread = _spread(a + b)
            ok = worse <= m["bound"] and (m["name"] == "setup_s" or spread <= m["bound"])
            steady &= ok
            rows.append({"workload": w["name"], "metric": m["name"], "median_1": ma,
                         "median_2": mb, "second_worse_by": worse, "spread": spread,
                         "bound": m["bound"], "ok": ok})
    print(f"{'workload':15s} {'metric':17s} {'median 1':>10s} {'median 2':>10s} "
          f"{'worse by':>9s} {'spread':>8s} {'bound':>6s}")
    for r in rows:
        print(f"{r['workload']:15s} {r['metric']:17s} {r['median_1']:10.4g} "
              f"{r['median_2']:10.4g} {r['second_worse_by']:9.3%} {r['spread']:8.3%} "
              f"{r['bound']:6.2f} {'ok' if r['ok'] else 'NOT STEADY'}")
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "steadiness.json", "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
    print(json.dumps({"steady": steady}))
    return 0 if steady else 1


# --- self-test of the checks -----------------------------------------------------

def _swap_score(o, data):
    run = o["report"]["per_run"][0]
    s, y = run["scores"]["gapnet"], run["labels"]
    i = max((k for k in range(len(y)) if y[k] == 1), key=lambda k: s[k])
    j = min((k for k in range(len(y)) if y[k] == 0), key=lambda k: s[k])
    s[i], s[j] = s[j], s[i]


def _incomplete_test_row(o, data):
    run = o["report"]["per_run"][0]
    incomplete = np.flatnonzero(~data.present.all(axis=1))
    label = run["labels"][0]
    run["test_rows"][0] = int(next(r for r in incomplete if data.labels[r] == label))


def _flip_label(o, data):
    o["report"]["per_run"][0]["labels"][0] ^= 1


def _drop_test_row(o, data):
    o["report"]["per_run"][0]["test_rows"].pop()


def _score_out_of_range(o, data):
    o["report"]["per_run"][0]["scores"]["vanilla"][0] = 1.5


def _nudge_delong(o, data):
    o["report"]["delong"]["pooled"]["z"] *= 1.001


def _baseline_wins(o, data):
    models = o["report"]["models"]
    models["gapnet"]["auc_mean"], models["vanilla"]["auc_mean"] = (
        models["vanilla"]["auc_mean"], models["gapnet"]["auc_mean"])


def _perturb_weight(o, data):
    w = o["models"]["gapnet"]["fusion"]["weights"]
    k = max(range(len(w)), key=lambda i: abs(w[i][0]))
    w[k][0] *= -10.0


def _merge_clusters(o, data):
    cl = o["clusters"]["clusters"]
    cl[0]["features"] += cl[1]["features"]
    del cl[1]


def _repeat_feature(o, data):
    feats = o["importance"]["features"]
    feats[1]["name"] = feats[0]["name"]


def _shift_rows(o, data):
    o["importance"]["n_rows"] += 1


CORRUPTIONS = [
    # workload, what is corrupted, the check that must catch it, how
    ("madelon-serial", "a swapped score", "per-run AUCs", _swap_score),
    ("madelon-serial", "a test row moved onto an incomplete row", "test rows are complete",
     _incomplete_test_row),
    ("madelon-serial", "a dropped test row", "test size", _drop_test_row),
    ("madelon-serial", "a flipped label", "test labels", _flip_label),
    ("madelon-serial", "a score above 1", "one finite score", _score_out_of_range),
    ("madelon-serial", "a nudged DeLong z", "DeLong", _nudge_delong),
    ("madelon-serial", "baseline and gapnet AUCs swapped", "per-run AUCs", _baseline_wins),
    ("wide-gaps", "a perturbed saved weight", "test AUCs equal", _perturb_weight),
    ("wide-gaps", "a merged cluster", "clusters match", _merge_clusters),
    ("wide-gaps", "a feature listed twice", "importance ranks", _repeat_feature),
    ("wide-gaps", "n_rows off by one", "importance rows", _shift_rows),
]


def self_test():
    caught_all = True
    for workload in ("madelon-serial", "wide-gaps"):
        work = WORK / f"self-test-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        deadline = time.perf_counter() + RUN_DEADLINE_S
        csv = work / "input.csv"
        ledger = Ledger()
        done = run_command(setup_step(workload, 1, csv).command(), workload,
                           work / "setup.log", deadline)
        data = checks.CsvData(csv)
        run_round(workload, csv, work / "out", ledger, deadline)
        outputs = load_outputs(workload, work / "out")
        clean = check_outputs(workload, outputs, data)
        clean_ok = done.code == 0 and not ledger.failed and all(ok for _, ok, _ in clean)
        caught_all &= clean_ok
        print(f"{workload}: uncorrupted outputs pass every check: {clean_ok}")
        for wl, what, target, corrupt in CORRUPTIONS:
            if wl != workload:
                continue
            bad = copy.deepcopy(outputs)
            corrupt(bad, data)
            hits = [name for name, ok, _ in check_outputs(workload, bad, data) if not ok]
            caught = any(name.startswith(target) for name in hits)
            caught_all &= caught
            print(f"  {what:40s} -> {'caught by ' + repr(hits) if caught else 'NOT CAUGHT'}")
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"self_test_passed": caught_all}))
    return 0 if caught_all else 1


def main():
    parser = argparse.ArgumentParser(description="gapnet benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS_PER_SET",
                        help="run two sets of every workload and compare them")
    parser.add_argument("--self-test", action="store_true",
                        help="show that each output check fails on a corrupted output")
    args = parser.parse_args()
    if args.steadiness:
        return steadiness(args.steadiness)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
