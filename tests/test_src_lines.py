"""tools/src_lines.py, the line counter behind the tracked size of src/."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

FIXTURE = '''\
"""Module docstring,
over two lines."""
import os  # a trailing comment

# a whole-line comment
class Thing:
    """Class docstring."""

    def method(self, a,
               b):
        """Method
        docstring."""
        text = """a multi-line
string that is
not a docstring"""
        total = a + \\
            b
        "a later string is an expression, not a docstring"
        return (text,
                total)
'''
# Docstrings (1-2, 7, 11-12), comment-only lines (5) and blank lines (4, 8)
# are not code; every line of a string that is not a docstring, or of a
# statement continued over lines, is.
CODE_LINES = {3, 6, 9, 10, 13, 14, 15, 16, 17, 18, 19, 20}


def test_counts_lines_and_code_lines(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert FIXTURE.splitlines()[15].endswith("\\")
    assert src_lines.count(path) == (20, len(CODE_LINES))


@pytest.mark.parametrize(
    "text, counts",
    [
        ('"""Module\ndocstring."""\n', (2, 0)),
        ('class C:\n    "doc"\n', (2, 1)),
        ('async def f():\n    """a\n    b"""\n    return 1\n', (4, 2)),
        ('x = """a\nb"""\n', (2, 2)),
        ('f(1)\n"not a docstring"\n', (2, 2)),
        ("# comment\n\n   \n", (3, 0)),
        ("y = (1 +\n     2)  # comment\n", (2, 2)),
    ],
)
def test_each_rule(tmp_path, text, counts):
    path = tmp_path / "snippet.py"
    path.write_text(text, encoding="utf-8")
    assert src_lines.count(path) == counts


def test_directory_is_searched_recursively_and_totalled(tmp_path, capsys):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "pkg" / "sub" / "b.py").write_text("x = 1\n\n# note\n", encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert src_lines.main([str(tmp_path / "pkg")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == " lines   code  file"
    assert out[1].split() == ["20", "12", str(tmp_path / "pkg" / "a.py")]
    assert out[2].split() == ["3", "1", str(tmp_path / "pkg" / "sub" / "b.py")]
    assert out[3].split() == ["23", "13", "total"]
    assert len(out) == 4


def test_no_paths_exits_1_with_usage(capsys):
    assert src_lines.main([]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")


def test_script_without_paths_exits_1():
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("usage:")
