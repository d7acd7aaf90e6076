"""`tools/code_lines.py`, the code-line count of the package's sources."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""A module docstring
of two lines."""

import math  # a comment after code


# a comment alone
def f(x):
    """A function docstring."""
    total = math.fsum([
        x,
        2 * x,
    ])
    text = """a string
    that is no docstring"""
    return total, text
'''


def test_blank_lines_comments_and_docstrings_are_left_out():
    # counted: the import, the def, the four lines of the call, both lines
    # of the string assigned to `text`, and the return
    assert code_lines.code_lines(SNIPPET) == 9


def test_the_command_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        f"     9  {tmp_path / 'a.py'}", f"     1  {tmp_path / 'b.py'}", "    10  total", ""]
