"""``tools/code_lines.py``: the code-line count ROADMAP quotes."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """Function docstring."""
    text = """a string
over two lines"""
    return (x +
            len(text))


class C:
    \'\'\'Class docstring.\'\'\'

    y = 1
'''


def test_counts_token_lines_without_comments_or_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import; def; the two-line string; the two-line return; class; y = 1
    assert code_lines.code_lines(path) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text(SOURCE)
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "1", "b.py", "8", "total", "9"]
