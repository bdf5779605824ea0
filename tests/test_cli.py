import errno
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import gapnet
from gapnet import dataset as ds_mod
from gapnet.benchmark import BenchmarkConfig
from gapnet.cli import main
from gapnet.clustering import signature_clusters
from gapnet.dataset import load_csv, save_csv
from gapnet.models import TrainConfig, build_subnet, tile_rows
from gapnet.synth import MadelonConfig
from conftest import assert_no_child_left, make_dataset


@pytest.fixture
def tiny_csv(tmp_path):
    """Small gapped dataset: two signature clusters, learnable labels."""
    rng = np.random.default_rng(0)
    n = 60
    labels = np.arange(n) % 2
    values = rng.standard_normal((n, 4))
    values[:, 0] += np.where(labels == 1, 1.5, -1.5)
    values[:, 2] += np.where(labels == 1, 1.0, -1.0)
    present = np.ones((n, 4), dtype=bool)
    present[:10, :2] = False  # rows 1-10 lack the first cluster
    present[50:, 2:] = False  # rows 51-60 lack the second cluster
    ds = make_dataset(values, present=present, labels=labels)
    path = tmp_path / "tiny.csv"
    save_csv(ds, path)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def python(args, **env):
    """Run this interpreter on args in a new process that imports this
    gapnet, with env added to its environment; the finished process."""
    src = os.path.dirname(os.path.dirname(gapnet.__file__))
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True)


def test_synth_paper_madelon(tmp_path, capsys):
    out_csv = tmp_path / "m.csv"
    code, out, _ = run(capsys, "synth", "--paper-madelon", "--out", out_csv, "--seed", 3)
    assert code == 0
    summary = json.loads(out)
    assert summary["n_samples"] == 1000
    assert summary["n_features"] == 40
    assert summary["complete_rows"] == 100
    ds = load_csv(out_csv, missing_token="")
    assert ds.complete_rows().size == 100


def test_synth_no_gaps(tmp_path, capsys):
    out_csv = tmp_path / "c.csv"
    code, out, _ = run(capsys, "synth", "--no-gaps", "--out", out_csv)
    assert code == 0
    assert json.loads(out)["complete_rows"] == 1000


def test_synth_scales_the_gaps_to_any_size(tmp_path, capsys):
    out_csv = tmp_path / "half.csv"
    code, out, _ = run(capsys, "synth", "--n-samples", 500, "--out", out_csv)
    assert code == 0
    assert json.loads(out)["complete_rows"] == 50
    ds = load_csv(out_csv, missing_token="")
    assert ds.complete_rows().tolist() == list(range(225, 275))


def test_synth_same_seed_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "synth", "--out", a, "--seed", 5)
    run(capsys, "synth", "--out", b, "--seed", 5)
    assert a.read_bytes() == b.read_bytes()


def test_synth_paper_madelon_golden_bytes(tmp_path, capsys):
    # every recorded paper-Madelon output hash starts from this file
    import hashlib

    out_csv = tmp_path / "m.csv"
    run(capsys, "synth", "--paper-madelon", "--seed", 1, "--out", out_csv)
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
        "790f599f05292598844e7224eff50510238b9ffafbad6e4af22facaf403fc438"
    )


def test_synth_invalid_config_exit_code(tmp_path, capsys):
    code, _, err = run(
        capsys, "synth", "--out", tmp_path / "x.csv", "--class-separation", "-1"
    )
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"] == "validation"


@pytest.mark.parametrize("separation", ["nan", "inf"])
def test_synth_rejects_a_non_finite_class_separation(tmp_path, capsys, separation):
    out_csv = tmp_path / "x.csv"
    code, _, err = run(capsys, "synth", "--out", out_csv, "--class-separation", separation)
    assert code == 2
    assert json.loads(err.splitlines()[-1])["message"] == (
        "class_separation must be positive and finite")
    assert not out_csv.exists()


def test_clusters_on_paper_csv(tmp_path, capsys):
    csv_path = tmp_path / "m.csv"
    run(capsys, "synth", "--out", csv_path)
    code, out, _ = run(capsys, "clusters", csv_path, "--missing-token", "")
    assert code == 0
    report = json.loads(out)
    assert [c["complete_rows"] for c in report["clusters"]] == [550, 550]
    assert [len(c["features"]) for c in report["clusters"]] == [25, 15]


def test_clusters_single_for_complete_csv(tmp_path, capsys):
    csv_path = tmp_path / "c.csv"
    run(capsys, "synth", "--no-gaps", "--out", csv_path)
    code, out, _ = run(capsys, "clusters", csv_path, "--missing-token", "")
    assert json.loads(out)["clusters"].__len__() == 1


def test_clusters_rejects_overlapping_plan(tiny_csv, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"a": ["f1", "f2"], "b": ["f2", "f3", "f4"]}))
    code, out, err = run(capsys, "clusters", tiny_csv, "--plan", plan)
    assert code == 2
    assert json.loads(out)["overlaps"]


def test_train_vanilla_only(tiny_csv, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys, "train", tiny_csv, "--model", "vanilla", "--epochs", 20,
        "--out", out_dir,
    )
    assert code == 0
    payload = json.loads(out)
    assert "vanilla" in payload and "gapnet" not in payload
    assert (out_dir / "vanilla.model.json").exists()


def test_train_gapnet_reports_both_stages(tiny_csv, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run(
        capsys, "train", tiny_csv, "--model", "gapnet", "--epochs", 20,
        "--out", out_dir,
    )
    assert code == 0
    report = json.loads((out_dir / "train_report.json").read_text())
    entry = report["models"]["gapnet"]
    assert 0 < entry["test_auc"] <= 1
    assert len(entry["stage1_test_auc"]) == 2


def test_saved_model_reproduces_report_auc(tiny_csv, tmp_path, capsys):
    from gapnet.dataset import normalize
    from gapnet.evaluation import auc
    from gapnet.models import load_model, predict

    out_dir = tmp_path / "out"
    run(capsys, "train", tiny_csv, "--model", "both", "--epochs", 20, "--out", out_dir)
    report = json.loads((out_dir / "train_report.json").read_text())
    ds = load_csv(tiny_csv, missing_token="")
    test_rows = np.array(report["test_rows"])
    for name in ("vanilla", "gapnet"):
        model, _, stats = load_model(out_dir / f"{name}.model.json")
        work = normalize(ds, stats)
        again = auc(predict(model, work, test_rows), ds.labels[test_rows])
        assert again == report["models"][name]["test_auc"]


def test_benchmark_smoke_and_sections(tiny_csv, tmp_path, capsys):
    out_dir = tmp_path / "bench"
    code, out, _ = run(
        capsys, "benchmark", tiny_csv, "--runs", 2, "--epochs", 10, "--out", out_dir,
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    for name in ("gapnet", "vanilla", "cluster_1", "cluster_2"):
        entry = report["models"][name]
        for key in ("auc_mean", "auc_std", "roc", "histogram", "boxplot", "metrics"):
            assert key in entry
    assert "pooled" in report["delong"]
    assert len(report["delong"]["per_run"]) == 2
    assert set(report["cluster_order"]) == {"cluster_1", "cluster_2"}
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["per_run_seeds"] == [0, 1]
    assert (out_dir / "roc.csv").exists()
    assert (out_dir / "histogram.csv").exists()


def test_summary_lines_keep_their_keys_in_order(tiny_csv, tmp_path, capsys):
    # json.loads keeps the order in which the keys were printed
    _, out, _ = run(capsys, "train", tiny_csv, "--epochs", 5, "--out", tmp_path / "t")
    summary = json.loads(out)
    assert list(summary) == ["report", "vanilla", "gapnet"]
    assert list(summary["vanilla"]) == ["path", "test_auc"]
    assert list(summary["gapnet"]) == ["path", "test_auc", "stage1_test_auc"]
    report = json.loads((tmp_path / "t" / "train_report.json").read_text())
    assert {k: summary[k] for k in ("vanilla", "gapnet")} == report["models"]

    _, out, _ = run(capsys, "benchmark", tiny_csv, "--runs", 2, "--epochs", 5,
                    "--out", tmp_path / "b")
    summary = json.loads(out)
    assert list(summary) == ["report", "gapnet_auc", "vanilla_auc", "delong_z", "delong_p"]
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    for name in ("gapnet", "vanilla"):
        entry = report["models"][name]
        assert summary[f"{name}_auc"] == f"{entry['auc_mean']:.3f}±{entry['auc_std']:.3f}"
    pooled = report["delong"]["pooled"]
    assert (summary["delong_z"], summary["delong_p"]) == (pooled["z"], pooled["p"])


def test_manifest_records_what_sets_the_output_bits(tiny_csv, tmp_path):
    from gapnet import numerics

    done = python(["-m", "gapnet.cli", "benchmark", tiny_csv, "--missing-token", "",
                   "--runs", 2, "--epochs", 1, "--out", tmp_path / "b"],
                  OPENBLAS_NUM_THREADS="2")
    assert done.returncode == 0, done.stderr
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["numpy_version"] == np.__version__
    if numerics._openblas() is None:
        assert manifest["blas_config"] is manifest["blas_threads"] is None
    else:
        # the config string names the GEMM kernel; the count is the pinned one
        assert manifest["blas_config"].startswith("OpenBLAS ")
        assert manifest["blas_threads"] == 1
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    assert {"numpy_version", "blas_config", "blas_threads"}.isdisjoint(report)


def test_manifest_blas_fields_are_none_without_a_bundled_openblas(
    tiny_csv, tmp_path, capsys, monkeypatch
):
    from gapnet import numerics

    monkeypatch.setattr(numerics, "_openblas", lambda: None)
    code, _, _ = run(capsys, "benchmark", tiny_csv, "--runs", 2, "--epochs", 1,
                     "--out", tmp_path / "b")
    assert code == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["numpy_version"] == np.__version__
    assert manifest["blas_config"] is None and manifest["blas_threads"] is None


def test_report_bytes_do_not_depend_on_input_paths(tiny_csv, tmp_path, capsys):
    plan = {"a": ["f1", "f2"], "b": ["f3", "f4"]}
    reports = []
    for where in ("one", "two/deeper"):
        d = tmp_path / where
        d.mkdir(parents=True)
        (d / "copy.csv").write_bytes(tiny_csv.read_bytes())
        (d / "plan.json").write_text(json.dumps(plan))
        code, _, _ = run(capsys, "benchmark", d / "copy.csv", "--plan", d / "plan.json",
                         "--runs", 2, "--epochs", 3, "--out", d / "out")
        assert code == 0
        manifest = json.loads((d / "out" / "manifest.json").read_text())
        assert manifest["dataset"] == str(d / "copy.csv")
        assert manifest["plan_file"] == str(d / "plan.json")
        reports.append((d / "out" / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_train_report_bytes_do_not_depend_on_paths(tiny_csv, tmp_path, capsys):
    plan = {"a": ["f1", "f2"], "b": ["f3", "f4"]}
    reports = []
    for where in ("one", "two/deeper"):
        d = tmp_path / where
        d.mkdir(parents=True)
        (d / "copy.csv").write_bytes(tiny_csv.read_bytes())
        (d / "plan.json").write_text(json.dumps(plan))
        code, out, _ = run(capsys, "train", d / "copy.csv", "--plan", d / "plan.json",
                           "--epochs", 3, "--out", d / "out")
        assert code == 0
        assert json.loads(out)["report"] == str(d / "out" / "train_report.json")
        reports.append((d / "out" / "train_report.json").read_bytes())
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert report["config"]["dataset_sha256"] == hashlib.sha256(tiny_csv.read_bytes()).hexdigest()
    assert {"dataset", "plan", "out"}.isdisjoint(report["config"])
    assert {name: m["path"] for name, m in report["models"].items()} == {
        "vanilla": "vanilla.model.json", "gapnet": "gapnet.model.json"}


# field -> (the flags that set it, the value they give, not the default)
CONFIG_FLAGS = {
    "epochs": (["--epochs", 3], 3),
    "learning_rate": (["--learning-rate", 0.01], 0.01),
    "batch_size": (["--batch-size", 8], 8),
    "dropout_rate": (["--dropout", 0.25], 0.25),
    "hidden_multiplier": (["--hidden-multiplier", 3], 3),
    "seed": (["--seed", 9], 9),
    "freeze_bodies": (["--unfreeze-bodies"], False),
    "test_fraction": (["--test-fraction", 0.3], 0.3),
    "normalize": (["--no-normalize"], False),
    "stratified": (["--no-stratify"], False),
    "runs": (["--runs", 5], 5),
    "jobs": (["--jobs", 2], 2),
}


def built_configs(monkeypatch, name, cls):
    """Replace cli's `name` with a function that records each cls among its
    arguments, then fails the run; the list it records them in."""
    built = []

    def stop(*args):
        built.extend(a for a in args if isinstance(a, cls))
        raise RuntimeError("stopped")

    monkeypatch.setattr(gapnet.cli, name, stop)
    return built


@pytest.mark.parametrize("command, cls, stop", [
    ("train", TrainConfig, "train_run"),
    ("benchmark", BenchmarkConfig, "run_benchmark"),
    ("synth", MadelonConfig, "generate_madelon"),
])
def test_a_command_without_flags_builds_the_default_config(tiny_csv, tmp_path, capsys,
                                                           monkeypatch, command, cls, stop):
    built = built_configs(monkeypatch, stop, cls)
    argv = [] if command == "synth" else [tiny_csv]
    code, _, _ = run(capsys, command, *argv, "--out", tmp_path / "out")
    assert code == 3 and built == [cls()]


def test_every_config_field_is_set_by_its_flag(tiny_csv, tmp_path, capsys, monkeypatch):
    assert list(CONFIG_FLAGS) == [f.name for f in fields(BenchmarkConfig)]
    expected = BenchmarkConfig(**{name: value for name, (_, value) in CONFIG_FLAGS.items()})
    assert all(getattr(expected, f.name) != f.default for f in fields(BenchmarkConfig))
    built = built_configs(monkeypatch, "run_benchmark", BenchmarkConfig)
    flags = [flag for argv, _ in CONFIG_FLAGS.values() for flag in argv]
    code, _, _ = run(capsys, "benchmark", tiny_csv, *flags, "--out", tmp_path / "out")
    assert code == 3 and built == [expected]


def test_the_train_report_records_the_config_fields(tiny_csv, tmp_path, capsys):
    train = {f.name: CONFIG_FLAGS[f.name] for f in fields(TrainConfig)}
    flags = [flag for argv, _ in train.values() for flag in argv]
    code, _, _ = run(capsys, "train", tiny_csv, *flags, "--out", tmp_path / "out")
    assert code == 0
    config = json.loads((tmp_path / "out" / "train_report.json").read_text())["config"]
    own = {"command", "model", "missing_token", "label_column", "dataset_sha256", "plan_sha256"}
    assert set(config) == set(train) | own
    assert {name: config[name] for name in train} == {
        name: value for name, (_, value) in train.items()}


@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_the_dataset_is_hashed_only_by_its_read(tmp_path, capsys, monkeypatch, tiny_csv, command):
    hashed, file_sha256 = [], ds_mod.file_sha256

    def counted(path):
        hashed.append(str(path))
        return file_sha256(path)

    monkeypatch.setattr(ds_mod, "file_sha256", counted)
    extra = ["--runs", 2] if command == "benchmark" else []
    code, _, _ = run(capsys, command, tiny_csv, "--epochs", 2, *extra, "--out", tmp_path / "out")
    assert code == 0
    # before and after the parse, to key the cache and check the file held still
    assert hashed.count(str(tiny_csv)) == 2
    written = tmp_path / "out" / ("train_report.json" if command == "train" else "manifest.json")
    recorded = json.loads(written.read_text())
    recorded = recorded["config"] if command == "train" else recorded
    assert recorded["dataset_sha256"] == hashlib.sha256(tiny_csv.read_bytes()).hexdigest()


def test_a_dataset_edited_during_its_parse_records_no_sha256(tmp_path, capsys, monkeypatch,
                                                             tiny_csv):
    # the model trains on the bytes parsed, which no later hash of the file
    # can name
    parse, original = ds_mod._parse_rows, tiny_csv.read_bytes()

    def editing(*args, **kwargs):
        cells = parse(*args, **kwargs)
        tiny_csv.write_bytes(original.rsplit(b"\n", 2)[0] + b"\n")  # drop the last row
        return cells

    monkeypatch.setattr(ds_mod, "_parse_rows", editing)
    code, _, _ = run(capsys, "train", tiny_csv, "--epochs", 2, "--out", tmp_path / "out")
    assert code == 0 and tiny_csv.read_bytes() != original
    report = json.loads((tmp_path / "out" / "train_report.json").read_text())
    assert report["config"]["dataset_sha256"] is None


def test_the_plan_sha256_names_the_plan_the_models_trained_on(tmp_path, capsys, monkeypatch,
                                                              tiny_csv):
    # a plan file rewritten once the run has read it keeps the hash of the
    # bytes that were read
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"a": ["f1", "f2"], "b": ["f3", "f4"]}))
    read = hashlib.sha256(plan.read_bytes()).hexdigest()
    train_run = gapnet.cli.train_run

    def rewriting(*args, **kwargs):
        result = train_run(*args, **kwargs)
        plan.write_text(json.dumps({"b": ["f3", "f4"], "a": ["f1", "f2"]}))
        return result

    monkeypatch.setattr(gapnet.cli, "train_run", rewriting)
    code, _, _ = run(capsys, "train", tiny_csv, "--plan", plan, "--epochs", 2,
                     "--out", tmp_path / "out")
    assert code == 0 and hashlib.sha256(plan.read_bytes()).hexdigest() != read
    report = json.loads((tmp_path / "out" / "train_report.json").read_text())
    assert report["config"]["plan_sha256"] == read


@pytest.mark.parametrize(
    "setup", [[], ["--no-normalize", "--no-stratify", "--test-fraction", 0.3]],
    ids=["defaults", "no-normalize-no-stratify-0.3"],
)
def test_train_is_benchmark_run_zero(tiny_csv, tmp_path, capsys, setup):
    # run i of `benchmark --seed s` trains with seed s ^ i, so run 0 is `train --seed s`
    flags = ["--epochs", 10, "--seed", 3, *setup]
    run(capsys, "benchmark", tiny_csv, "--runs", 2, *flags, "--out", tmp_path / "b")
    run(capsys, "train", tiny_csv, *flags, "--out", tmp_path / "t")
    bench = json.loads((tmp_path / "b" / "report.json").read_text())
    train = json.loads((tmp_path / "t" / "train_report.json").read_text())
    assert train["test_rows"] == bench["per_run"][0]["test_rows"]
    aucs = {name: train["models"][name]["test_auc"] for name in ("gapnet", "vanilla")}
    aucs.update(train["models"]["gapnet"]["stage1_test_auc"])
    assert aucs == {name: entry["aucs"][0] for name, entry in bench["models"].items()}


@pytest.mark.parametrize("command,flags,fits,message", [
    # run 0 of seed 0 draws 2 test rows of one class
    ("train", ["--seed", 0], 0, "the 2 test row(s) hold one class only"),
    # run 0 of seed 1 draws both classes, run 1 (seed 1 ^ 1 = 0) draws one
    ("benchmark", ["--seed", 1, "--runs", 2], 3,
     "run 1 (seed 0) failed: the 2 test row(s) hold one class only"),
], ids=["train", "benchmark"])
def test_one_class_test_rows_fail_before_the_run_trains(
    tiny_csv, tmp_path, capsys, monkeypatch, command, flags, fits, message
):
    from gapnet import models

    calls, fit_network = [], models.fit_network

    def counted(*args):
        calls.append(1)
        return fit_network(*args)

    monkeypatch.setattr(models, "fit_network", counted)
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, command, tiny_csv, "--no-stratify", "--test-fraction", 0.05,
                       "--epochs", 2, *flags, "--out", out_dir)
    assert code == 2
    assert json.loads(err.splitlines()[-1])["message"].startswith(message)
    # a finished run 0 trains a baseline and one sub-network per cluster
    assert len(calls) == fits
    assert not list(tmp_path.rglob("*.model.json"))


@pytest.mark.parametrize("command,flags", [
    ("train", []), ("benchmark", ["--runs", 2]),
], ids=["train", "benchmark"])
def test_unwritable_out_fails_before_the_run_trains(
    tiny_csv, tmp_path, capsys, monkeypatch, command, flags
):
    from gapnet import models

    calls, fit_network = [], models.fit_network

    def counted(*args):
        calls.append(1)
        return fit_network(*args)

    monkeypatch.setattr(models, "fit_network", counted)
    (tmp_path / "notadir").write_text("a file, not a directory\n")
    out_dir = tmp_path / "notadir" / "sub"
    code, _, err = run(capsys, command, tiny_csv, "--epochs", 2, *flags, "--out", out_dir)
    assert code == 3
    message = json.loads(err.splitlines()[-1])["message"]
    assert message == f"[Errno {errno.ENOTDIR}] Not a directory: '{out_dir}'"
    assert not calls


def test_train_writes_no_model_unless_every_model_trained(
    tiny_csv, tmp_path, capsys, monkeypatch
):
    from gapnet import models

    def diverged(*args):
        raise models.TrainingError("training diverged: stage II")

    monkeypatch.setattr(models, "fit_gapnet", diverged)
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "train", tiny_csv, "--epochs", 2, "--out", out_dir)
    assert code == 3
    assert json.loads(err.splitlines()[-1])["message"] == "training diverged: stage II"
    assert not list(out_dir.glob("*.model.json"))
    assert not (out_dir / "train_report.json").exists()


def test_each_model_trains_alone_as_in_both(tiny_csv, tmp_path, capsys):
    # each model draws from its own stream, so training one leaves the other's bits alone
    for model in ("both", "vanilla", "gapnet"):
        code, _, _ = run(capsys, "train", tiny_csv, "--model", model, "--epochs", 5,
                         "--out", tmp_path / model)
        assert code == 0
    both = json.loads((tmp_path / "both" / "train_report.json").read_text())
    for model in ("vanilla", "gapnet"):
        alone = json.loads((tmp_path / model / "train_report.json").read_text())
        assert alone["models"] == {model: both["models"][model]}
        assert alone["test_rows"] == both["test_rows"]
        name = f"{model}.model.json"
        assert (tmp_path / model / name).read_bytes() == (tmp_path / "both" / name).read_bytes()


def test_train_run_trains_and_scores_only_the_named_models(tiny_csv):
    from gapnet.benchmark import BenchmarkConfig, train_run

    ds = load_csv(tiny_csv, missing_token="")
    split, stats, cfg, trained, scores = train_run(
        ds, signature_clusters(ds), BenchmarkConfig(epochs=2, seed=4), 1, models=("vanilla",))
    assert list(trained) == list(scores) == ["vanilla"]
    assert cfg.seed == 4 ^ 1 and stats is not None
    assert scores["vanilla"].shape == split.test_rows.shape


def test_benchmark_cluster_order_descends(tiny_csv, tmp_path, capsys):
    out_dir = tmp_path / "bench"
    run(capsys, "benchmark", tiny_csv, "--runs", 3, "--epochs", 30, "--out", out_dir)
    report = json.loads((out_dir / "report.json").read_text())
    medians = [
        report["models"][n]["boxplot"]["median"] for n in report["cluster_order"]
    ]
    assert medians == sorted(medians, reverse=True)


def test_benchmark_needs_two_runs(tiny_csv, tmp_path, capsys):
    code, _, err = run(
        capsys, "benchmark", tiny_csv, "--runs", 1, "--out", tmp_path / "b"
    )
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"] == "validation"


@pytest.mark.parametrize("flags", [
    ["--learning-rate", "-1"], ["--jobs", "0"], ["--epochs", "0"], ["--runs", "1"],
    ["--batch-size", "0"], ["--batch-size", "-5"], ["--hidden-multiplier", "0"],
    ["--dropout", "1.0"], ["--test-fraction", "1.5"], ["--seed", "-1"],
])
def test_invalid_benchmark_config_is_rejected_before_training(
    tiny_csv, tmp_path, capsys, monkeypatch, flags
):
    import gapnet.cli

    def no_training(*args):
        raise AssertionError("an invalid config reached training")

    monkeypatch.setattr(gapnet.cli, "run_benchmark", no_training)
    code, _, err = run(capsys, "benchmark", tiny_csv, *flags, "--out", tmp_path / "b")
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"] == "validation"


def test_benchmark_config_keys():
    from gapnet.benchmark import BenchmarkConfig

    # the flat keys of report.json's config hash and of manifest.json
    assert set(vars(BenchmarkConfig())) == {
        "epochs", "learning_rate", "batch_size", "dropout_rate", "hidden_multiplier",
        "seed", "freeze_bodies", "runs", "test_fraction", "normalize", "stratified",
        "jobs",
    }


@pytest.mark.parametrize("runs,jobs,n_cpus,forks", [
    (2, 4, 8, 1), (3, 2, 8, 1), (5, 8, 3, 2), (4, 1, 8, 0), (4, 4, 1, 0),
])
def test_one_process_per_range_of_runs(tiny_csv, cpus, runs, jobs, n_cpus, forks):
    from gapnet.benchmark import BenchmarkConfig, run_benchmark

    # never more processes than runs, jobs or usable CPUs; the calling process
    # runs the first range, so it forks one child fewer
    forked = cpus(n_cpus)
    ds = load_csv(tiny_csv, missing_token="")
    report = run_benchmark(ds, cfg=BenchmarkConfig(runs=runs, jobs=jobs, epochs=1))
    assert len(forked) == forks
    assert [r["run"] for r in report["per_run"]] == list(range(runs))
    assert_no_child_left()


@pytest.mark.parametrize("failing,named", [({1, 2}, 1), ({2, 3}, 2), ({3}, 3)])
def test_the_first_failing_run_is_raised(tiny_csv, cpus, monkeypatch, failing, named):
    from gapnet import benchmark
    from gapnet.benchmark import BenchmarkConfig, BenchmarkError, run_benchmark

    run_single = benchmark.run_single

    def fail_some(ds, plan, cfg, run_index):
        if run_index in failing:
            raise RuntimeError(f"boom in {run_index}")
        return run_single(ds, plan, cfg, run_index)

    # runs 0-1 train in this process, runs 2-3 on one forked child
    forked = cpus(2)
    monkeypatch.setattr(benchmark, "run_single", fail_some)
    ds = load_csv(tiny_csv, missing_token="")
    with pytest.raises(BenchmarkError, match=f"^run {named} .*boom in {named}$"):
        run_benchmark(ds, cfg=BenchmarkConfig(runs=4, jobs=2, epochs=1))
    assert len(forked) == 1
    assert_no_child_left()


def test_benchmark_jobs_imports_no_process_pool(tiny_csv, tmp_path):
    argv = ["benchmark", str(tiny_csv), "--missing-token", "", "--runs", "2", "--epochs", "1",
            "--jobs", "2", "--out", str(tmp_path / "b")]
    done = python(["-c", "import sys; from gapnet.cli import main; "
                   f"assert main({argv!r}) == 0; print('concurrent.futures' in sys.modules)"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_benchmark_imports_no_numpy_ma(tiny_csv, tmp_path):
    # np.median imports numpy.ma, which set the benchmark's peak memory
    argv = ["benchmark", str(tiny_csv), "--missing-token", "", "--runs", "2", "--epochs", "1",
            "--jobs", "1", "--out", str(tmp_path / "b")]
    done = python(["-c", "import sys; from gapnet.cli import main; "
                   f"assert main({argv!r}) == 0; print('numpy.ma' in sys.modules)"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("model", [[1], {"kind": "gapnet"}, {"kind": "forest"}])
def test_importance_rejects_invalid_model_file(tiny_csv, tmp_path, capsys, model):
    path = tmp_path / "bad.model.json"
    path.write_text(json.dumps(model))
    code, _, err = run(capsys, "importance", path, tiny_csv)
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"] == "validation"


def trace(argv, spans):
    """Run one gapnet command under the benchmark's tracer; its spans."""
    root = Path(__file__).resolve().parent.parent
    done = python([root / "perfbench" / "tracer.py", "--spans", spans, "gapnet", "--", *argv])
    assert done.returncode == 0, done.stderr
    return json.loads(spans.read_text())


def test_tracer_wraps_every_function_it_names(tiny_csv, tmp_path):
    # the benchmark's tracer looks gapnet's functions up by name
    data = [str(tiny_csv), "--missing-token", ""]
    out = tmp_path / "out"
    commands = [
        ["clusters", *data],
        ["train", *data, "--epochs", "2", "--out", str(out)],
        ["importance", str(out / "gapnet.model.json"), *data, "--repeats", "1"],
        ["benchmark", *data, "--runs", "2", "--epochs", "2", "--out", str(tmp_path / "b")],
    ]
    names = set()
    for k, argv in enumerate(commands):
        spans = trace(argv, tmp_path / f"spans{k}.json")
        names |= {span[1] for span in spans}
    assert {
        "cli.clusters", "models.fit_network", "models.fit_gapnet",
        "numerics.adam_step", "evaluation.importance_report",
    } <= names
    # the benchmark finds stage-I fits by their parent span, and counts the
    # rows of every fit once: 2 runs of a baseline and 2 sub-networks
    name_of = {span[0]: span[1] for span in spans}
    parents = [name_of[span[4]] for span in spans if span[1] == "models.fit_network"]
    assert sorted(parents) == ["models.train_stage1"] * 4 + ["models.train_vanilla"] * 2


def test_tracer_counts_the_rows_of_tiled_fits(tmp_path):
    """Two clusters of 30 features and 630 training rows each, more than
    their 544-row tiles: each stage-I fit runs several tiles a step."""
    rng = np.random.default_rng(3)
    present = np.ones((900, 60), dtype=bool)
    present[:150, :30] = False
    present[750:, 30:] = False
    ds = make_dataset(rng.standard_normal((900, 60)), present=present)
    path = tmp_path / "wide.csv"
    save_csv(ds, path)
    plan = signature_clusters(ds)
    assert len(plan.clusters) == 2
    n_test = int(0.2 * ds.complete_rows().size)
    for cluster in plan.clusters:
        assert ds.complete_rows_for(cluster.features).size - n_test > tile_rows(
            build_subnet(cluster))
    # the benchmark's count from the CSV: a baseline, each cluster and
    # stage II train on their complete rows minus the test rows
    rows = 2 * (ds.complete_rows().size - n_test)
    rows += sum(ds.complete_rows_for(c.features).size - n_test for c in plan.clusters)
    spans = trace(["train", path, "--missing-token", "", "--epochs", 2,
                   "--out", tmp_path / "out"], tmp_path / "spans.json")
    fits = [s for s in spans if s[1] in ("models.fit_network", "models.fit_gapnet")]
    assert sum(s[6]["rows"] * s[6]["epochs"] for s in fits) == 2 * rows
    assert [s[1] for s in fits].count("models.fit_network") == 3  # baseline, 2 clusters
    ids = {s[0] for s in spans}
    assert all(s[4] is None or s[4] in ids for s in spans)
    name_of = {s[0]: s[1] for s in spans}
    parents = [name_of[s[4]] for s in fits if s[1] == "models.fit_network"]
    assert sorted(parents) == ["models.train_stage1"] * 2 + ["models.train_vanilla"]


def test_tracer_counts_the_rows_of_forked_runs(tiny_csv, tmp_path):
    from gapnet.numerics import usable_cpus

    ds = load_csv(tiny_csv, missing_token="")
    plan = signature_clusters(ds)
    n_test = int(0.2 * ds.complete_rows().size)
    # each run: a baseline, each cluster and stage II on their complete rows
    # minus the test rows
    rows = 2 * (ds.complete_rows().size - n_test)
    rows += sum(ds.complete_rows_for(c.features).size - n_test for c in plan.clusters)
    spans = trace(["benchmark", tiny_csv, "--missing-token", "", "--runs", 3, "--jobs", 2,
                   "--epochs", 2, "--out", tmp_path / "b"], tmp_path / "spans.json")
    fits = [s for s in spans if s[1] in ("models.fit_network", "models.fit_gapnet")]
    assert sum(s[6]["rows"] * s[6]["epochs"] for s in fits) == 3 * 2 * rows
    assert len(fits) == 3 * (2 + len(plan.clusters))
    # run 0 trains in the traced process, runs 1-2 on one forked child
    assert len({s[5] for s in fits}) == min(2, usable_cpus())
    ids = {s[0] for s in spans}
    assert all(s[4] is None or s[4] in ids for s in spans)


def test_importance_command(tiny_csv, tmp_path, capsys):
    out_dir = tmp_path / "out"
    run(capsys, "train", tiny_csv, "--model", "gapnet", "--epochs", 30, "--out", out_dir)
    code, out, _ = run(
        capsys, "importance", out_dir / "gapnet.model.json", tiny_csv,
        "--repeats", 2, "--seed", 1,
    )
    assert code == 0
    report = json.loads(out)
    f = len(report["features"])
    assert sum(e["rank"] for e in report["features"]) == f * (f + 1) // 2
    assert len(report["top"]) == min(20, f)


def test_importance_and_clusters_make_the_directory_of_their_out_file(tiny_csv, tmp_path,
                                                                      capsys):
    run(capsys, "train", tiny_csv, "--model", "vanilla", "--epochs", 2, "--out", tmp_path)
    for argv in (["importance", tmp_path / "vanilla.model.json", tiny_csv, "--repeats", 1],
                 ["clusters", tiny_csv]):
        out_path = tmp_path / argv[0] / "new" / "dir" / "out.json"
        code, out, _ = run(capsys, *argv, "--out", out_path)
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == out


def test_importance_deterministic(tiny_csv, tmp_path, capsys):
    out_dir = tmp_path / "out"
    run(capsys, "train", tiny_csv, "--model", "vanilla", "--epochs", 30, "--out", out_dir)
    results = []
    for _ in range(2):
        _, out, _ = run(
            capsys, "importance", out_dir / "vanilla.model.json", tiny_csv,
            "--repeats", 1, "--seed", 7,
        )
        results.append(out)
    assert results[0] == results[1]


def test_missing_dataset_file_is_runtime_error(tmp_path, capsys):
    code, _, err = run(capsys, "clusters", tmp_path / "nope.csv")
    assert code == 3


def test_divergence_is_a_runtime_error(tiny_csv, tmp_path, capsys, monkeypatch):
    from gapnet.numerics import MlpNetwork

    backprop = MlpNetwork.backprop

    def poisoned(self, *args, **kwargs):
        grads = backprop(self, *args, **kwargs)
        grads[0][0][0, 0] = np.inf
        return grads

    monkeypatch.setattr(MlpNetwork, "backprop", poisoned)
    code, _, err = run(
        capsys, "train", tiny_csv, "--model", "vanilla", "--epochs", 3,
        "--out", tmp_path / "out",
    )
    assert code == 3
    failure = json.loads(err.splitlines()[-1])
    assert failure["error"] == "runtime"
    assert "non-finite gradient for layer 0 weights" in failure["message"]


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path, capsys):
    # the paper dataset's GEMMs are large enough for OpenBLAS to split
    csv_path = tmp_path / "m.csv"
    run(capsys, "synth", "--paper-madelon", "--seed", 0, "--out", csv_path)
    reports = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads{threads}"
        done = python(["-m", "gapnet.cli", "benchmark", csv_path, "--missing-token", "",
                       "--runs", 2, "--epochs", 3, "--seed", 0, "--out", out_dir],
                      OPENBLAS_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr
        reports.append((out_dir / "report.json").read_bytes())
    assert reports[0] == reports[1]
