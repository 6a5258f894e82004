"""tools/code_lines.py on a synthetic package."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# 8 code lines: the import, the assignment of three lines, the class and
# def lines, the string statement that is no docstring, and the return
_MODULE = '''"""A module docstring
of two lines."""

import math  # a trailing comment counts its line

TABLE = {
    "a": 1,
}


# a comment line
class Shape:
    """A class docstring."""

    def area(self):
        """A function
        docstring."""

        "a string statement after the docstring"
        return math.pi
'''


def _code_lines():
    """tools/code_lines.py loaded by path, without adding it to
    sys.modules."""
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    tool = _code_lines()
    assert tool.docstring_lines(_MODULE) == {1, 2, 13, 16, 17}
    assert tool.code_lines(_MODULE) == 8
    assert tool.code_lines("") == 0


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    tool = _code_lines()
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text(_MODULE, encoding="utf-8")
    (tmp_path / "pkg" / "sub" / "b.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "pkg/a.py: 8\npkg/sub/b.py: 2\ntotal: 10\n"
    assert tool.main([str(tmp_path / "missing")]) == 2
    assert "code_lines.py SRC" in capsys.readouterr().err
