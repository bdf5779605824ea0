"""The CLI's error contract, checked on the real process: each bad input
exits 2 (invalid input) or 3 (failed run) and writes exactly one JSON object,
and nothing else, to stderr."""

import json
import os
import subprocess
import sys

import pytest

import gapnet

SRC = os.path.dirname(os.path.dirname(gapnet.__file__))

# 12 rows, 3 of them complete: too few for a 0.2 test fraction
FEW_COMPLETE = "f1,f2,label\n" + "".join(
    f"{i * 0.1},{'' if i >= 3 else i},{i % 2}\n" for i in range(12)
)

# 12 rows, the 6 complete ones all of class 0
ONE_CLASS_COMPLETE = "f1,f2,label\n" + "".join(
    f"{i * 0.1},{'' if i >= 6 else i},{0 if i < 6 else i % 2}\n" for i in range(12)
)


# 12 rows in which column f1 is never present
NO_F1 = "f1,f2,label\n" + "".join(f",{i},{i % 2}\n" for i in range(12))


def one_bad_cell(cell):
    """12 complete rows; line 5 (the fourth record) holds `cell` in column f2."""
    return "f1,f2,label\n" + "".join(
        f"{i * 0.1},{cell if i == 3 else i},{i % 2}\n" for i in range(12)
    )


def gapnet_model(fusion_units=1, activation="sigmoid", weight=1.0, feature=0):
    """A one-feature gapnet model file with the given fusion node, its one
    cluster on the given feature index."""
    body = {"weights": [[1.0]], "biases": [0.0], "activation": "relu", "trainable": False}
    return {
        "kind": "gapnet",
        "bodies": [{"layers": [body], "dropout": []}],
        "clusters": [{"name": "a", "features": [feature]}],
        "fusion": {"weights": [[weight] * fusion_units], "biases": [0.0] * fusion_units,
                   "activation": activation, "trainable": True},
        "freeze_bodies": True,
    }


def baseline_model(inputs, normalization_width=None, units=1):
    """A one-layer baseline model file with no feature names."""
    layer = {"weights": [[1.0] * units] * inputs, "biases": [0.0] * units,
             "activation": "sigmoid", "trainable": True}
    model = {"kind": "mlp", "network": {"layers": [layer], "dropout": []}}
    if normalization_width is not None:
        model["normalization"] = {"mean": [0.0] * normalization_width,
                                  "std": [1.0] * normalization_width}
    return model


# name -> (argv with {dir} for the scratch directory, exit code, message part)
CASES = {
    "train, too few complete rows": (
        ["train", "{dir}/few.csv", "--missing-token", "", "--epochs", "1",
         "--out", "{dir}/out"], 2, "too few complete rows (3)"),
    "benchmark, too few complete rows": (
        ["benchmark", "{dir}/few.csv", "--missing-token", "", "--runs", "2",
         "--epochs", "1", "--out", "{dir}/out"],
        2, "run 0 (seed 0) failed: too few complete rows (3)"),
    "plan cluster maps to a number": (
        ["clusters", "{dir}/few.csv", "--missing-token", "", "--plan",
         "{dir}/number.plan.json"], 2, "must map to a list of feature names"),
    "plan cluster maps to nested lists": (
        ["clusters", "{dir}/few.csv", "--missing-token", "", "--plan",
         "{dir}/nested.plan.json"], 2, "must map to a list of feature names"),
    "two-unit fusion": (
        ["importance", "{dir}/wide.model.json", "{dir}/few.csv"], 2, "one sigmoid unit"),
    "relu fusion": (
        ["importance", "{dir}/relu.model.json", "{dir}/few.csv"], 2, "one sigmoid unit"),
    "nan fusion weight": (
        ["importance", "{dir}/nan.model.json", "{dir}/few.csv"], 2, "non-finite weight or bias"),
    "fusion weight beyond float64": (
        ["importance", "{dir}/huge.model.json", "{dir}/few.csv"],
        2, "huge.model.json: int too large to convert to float"),
    "feature index beyond int64": (
        ["importance", "{dir}/far.model.json", "{dir}/few.csv", "--missing-token", ""],
        2, "feature index out of range"),
    "two-unit baseline output": (
        ["importance", "{dir}/wide-baseline.model.json", "{dir}/few.csv", "--missing-token", ""],
        2, "one sigmoid unit"),
    "baseline narrower than the dataset": (
        ["importance", "{dir}/narrow.model.json", "{dir}/few.csv", "--missing-token", ""],
        2, "model reads 1 features, the dataset has 2"),
    "normalization narrower than the dataset": (
        ["importance", "{dir}/narrow-stats.model.json", "{dir}/few.csv", "--missing-token", ""],
        2, "model normalizes 1 features, the dataset has 2"),
    "train, test fraction checked before reading": (
        ["train", "{dir}/nope.csv", "--test-fraction", "1.5", "--out", "{dir}/out"],
        2, "test_fraction must be in (0, 1)"),
    "synth of one sample": (
        ["synth", "--n-samples", "1", "--out", "{dir}/s.csv"], 2, "n_samples must be >= 2"),
    "synth of no samples": (
        ["synth", "--n-samples", "0", "--out", "{dir}/s.csv"], 2, "n_samples must be >= 2"),
    "negative top-k": (
        ["importance", "{dir}/ok.model.json", "{dir}/few.csv", "--missing-token", "",
         "--top-k", "-1"], 2, "--top-k must be >= 0"),
    "synth --paper-madelon with another sample count": (
        ["synth", "--paper-madelon", "--n-samples", "500", "--out", "{dir}/s.csv"],
        2, "--paper-madelon fixes the published configuration; it conflicts with --n-samples"),
    "synth --paper-madelon without gaps": (
        ["synth", "--paper-madelon", "--no-gaps", "--out", "{dir}/s.csv"],
        2, "it conflicts with --no-gaps"),
    "synth --paper-madelon with another class separation": (
        ["synth", "--paper-madelon", "--class-separation", "1.0", "--out", "{dir}/s.csv"],
        2, "it conflicts with --class-separation"),
    "synth --paper-madelon with other clusters per class": (
        ["synth", "--paper-madelon", "--clusters-per-class", "2", "--no-gaps",
         "--out", "{dir}/s.csv"], 2, "it conflicts with --clusters-per-class, --no-gaps"),
    "missing dataset file": (["clusters", "{dir}/nope.csv"], 3, "No such file"),
    "label column named twice": (
        ["clusters", "{dir}/two-labels.csv", "--missing-token", ""],
        2, "names the 'label' column more than once"),
    "nan cell": (
        ["train", "{dir}/nan.csv", "--epochs", "1", "--out", "{dir}/out"],
        2, "nan.csv:5: non-finite value nan in column 'f2'"),
    "inf cell": (
        ["benchmark", "{dir}/inf.csv", "--runs", "2", "--epochs", "1", "--out", "{dir}/out"],
        2, "inf.csv:5: non-finite value inf in column 'f2'"),
    "inf cell after a quoted field that spans lines": (
        ["clusters", "{dir}/multiline.csv"],
        2, "multiline.csv:5: non-finite value inf in column 'b'"),
    "a label column and no feature": (
        ["clusters", "{dir}/label-only.csv"],
        2, "dataset needs at least one row and one feature"),
    "cell longer than the csv field limit": (
        ["clusters", "{dir}/long.csv"], 2, "long.csv:5: field larger than field limit"),
    "train, complete rows of one class": (
        ["train", "{dir}/one-class.csv", "--missing-token", "", "--epochs", "1",
         "--out", "{dir}/out"], 2, "stratified split needs both classes among complete rows"),
    "plan cluster repeats a feature": (
        ["clusters", "{dir}/few.csv", "--missing-token", "", "--plan",
         "{dir}/repeat.plan.json"], 2, "cluster 'a' repeats a feature"),
    "importance of no repeats": (
        ["importance", "{dir}/ok.model.json", "{dir}/few.csv", "--missing-token", "",
         "--repeats", "0"], 2, "repeats must be >= 1"),
    "synth of a negative seed": (
        ["synth", "--seed", "-1", "--out", "{dir}/s.csv"], 2, "seed must be >= 0"),
    "importance of a negative seed": (
        ["importance", "{dir}/ok.model.json", "{dir}/few.csv", "--missing-token", "",
         "--seed", "-3"], 2, "--seed must be >= 0"),
    "synth of no clusters per class": (
        ["synth", "--clusters-per-class", "0", "--out", "{dir}/s.csv"],
        2, "clusters_per_class must be >= 1"),
    "train, plan clusters share a feature": (
        ["train", "{dir}/few.csv", "--missing-token", "", "--plan", "{dir}/overlap.plan.json",
         "--epochs", "1", "--out", "{dir}/out"],
        2, "plan validation failed: overlaps=[('f2', ['a', 'b'])]"),
    "clusters, plan clusters share a feature": (
        ["clusters", "{dir}/few.csv", "--missing-token", "", "--plan",
         "{dir}/overlap.plan.json"], 2, "supplied plan is invalid for this dataset"),
    "model feature names differ from the header": (
        ["importance", "{dir}/renamed.model.json", "{dir}/few.csv", "--missing-token", ""],
        2, "model feature names do not match the dataset header"),
    "no row complete for the model's features": (
        ["importance", "{dir}/ok.model.json", "{dir}/no-f1.csv", "--missing-token", ""],
        2, "no rows are complete for the model's features"),
    "model file nested too deeply": (
        ["importance", "{dir}/deep.model.json", "{dir}/few.csv"],
        2, "deep.model.json: maximum recursion depth exceeded"),
    "plan file nested too deeply": (
        ["clusters", "{dir}/few.csv", "--missing-token", "", "--plan", "{dir}/deep.plan.json"],
        2, "deep.plan.json: maximum recursion depth exceeded"),
    "model file that is not JSON": (
        ["importance", "{dir}/text.model.json", "{dir}/few.csv"],
        2, "text.model.json: Expecting value: line 1 column 1 (char 0)"),
    "model file names a key twice": (
        ["importance", "{dir}/twice.model.json", "{dir}/few.csv", "--missing-token", ""],
        2, "twice.model.json: name 'kind' appears twice"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    (d / "few.csv").write_text(FEW_COMPLETE)
    (d / "nan.csv").write_text(one_bad_cell("nan"))
    (d / "inf.csv").write_text(one_bad_cell("inf"))
    (d / "long.csv").write_text(one_bad_cell("1" * 200_000))
    # record 1's first field spans lines 2-3, so the inf sits on line 5
    (d / "multiline.csv").write_text('a,b,label\n"1\n",2,0\n3,4,1\n5,inf,0\n6,7,1\n')
    (d / "label-only.csv").write_text("label\n0\n1\n")
    (d / "one-class.csv").write_text(ONE_CLASS_COMPLETE)
    (d / "no-f1.csv").write_text(NO_F1)
    (d / "two-labels.csv").write_text(
        "x1,label,label\n" + "".join(f"{i * 0.1},{i % 2},{i % 2}\n" for i in range(12)))
    (d / "number.plan.json").write_text(json.dumps({"a": 5}))
    (d / "nested.plan.json").write_text(json.dumps({"a": [["f1"]]}))
    (d / "repeat.plan.json").write_text(json.dumps({"a": ["f1", "f1"]}))
    (d / "overlap.plan.json").write_text(json.dumps({"a": ["f1", "f2"], "b": ["f2"]}))
    for name, model in (("ok", gapnet_model()), ("wide", gapnet_model(fusion_units=2)),
                        ("relu", gapnet_model(activation="relu")),
                        ("nan", gapnet_model(weight=float("nan"))),
                        ("huge", gapnet_model(weight=10**400)),
                        ("far", gapnet_model(feature=10**30)),
                        ("narrow", baseline_model(1)),
                        ("wide-baseline", baseline_model(2, units=2)),
                        ("narrow-stats", baseline_model(2, normalization_width=1)),
                        ("renamed", {**baseline_model(2), "feature_names": ["g1", "g2"]})):
        (d / f"{name}.model.json").write_text(json.dumps(model))
    (d / "deep.model.json").write_text("[" * 100_000)
    (d / "deep.plan.json").write_text("[" * 100_000)
    (d / "text.model.json").write_text("not a model\n")
    # a loadable baseline after a first kind and format_version it repeats
    twice = json.dumps({**baseline_model(2), "format_version": 1})
    (d / "twice.model.json").write_text('{"kind": "forest", "format_version": 7, ' + twice[1:])
    return d


@pytest.mark.parametrize("name", list(CASES))
def test_bad_input_exit_code_and_one_json_error(inputs, name):
    argv, code, message = CASES[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "gapnet.cli", *(a.format(dir=inputs) for a in argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == code, done.stderr
    error = json.loads(done.stderr)  # fails on anything besides one JSON value
    assert set(error) == {"error", "message"}
    assert error["error"] == {2: "validation", 3: "runtime"}[code]
    assert message in error["message"]
