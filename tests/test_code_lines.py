"""tools/code_lines.py counts what it says it counts."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts

# a comment line does not


def f(a,
      b):
    """One-line docstring."""
    "a string statement is a docstring too"
    return [a,

            b]
x = """a string
in an assignment"""
'''


def test_code_lines_skips_blank_comment_and_docstring_lines():
    # code: import, def (2 lines), return (2 of 3 lines), x = (2 lines)
    assert code_lines.code_lines(SNIPPET) == 7


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("y = 1\n")
    (tmp_path / "notes.txt").write_text("z = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["7", "1", "8"]
    assert out[-1].split()[1] == "total"
