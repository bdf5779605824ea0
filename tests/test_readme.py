"""The README's library example runs as written."""

from pathlib import Path

from gapnet import predict
from gapnet.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The first python block under the README's "Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_the_library_example_runs_as_written(tmp_path, monkeypatch, capsys):
    assert main(["synth", "--n-samples", "400", "--out", str(tmp_path / "madelon.csv")]) == 0
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    names = {}
    exec(compile(library_example(), str(README), "exec"), names)
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0  # the printed AUC
    expected = predict(names["model"], names["ds"], names["s"].test_rows)
    scores = names["scores"]
    assert scores.shape == expected.shape and scores.tobytes() == expected.tobytes()
