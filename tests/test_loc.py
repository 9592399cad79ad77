"""``tools/loc.py`` counts code lines, leaving out docstrings, comments and blank lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "loc.py"

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Box:
    """One-line class docstring."""

    size = 2

    def area(self):
        """Method docstring
        over two lines.
        """
        text = """a string that is
no docstring"""
        return (self.size
                * math.pi), text
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # import, class, size, def, the two lines of the string, the two of the return
    assert load_tool().code_lines(SOURCE) == 8


def test_counts_each_module_and_the_total(tmp_path, capsys):
    tool = load_tool()
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert tool.count(tmp_path) == {"a.py": 1, "b.py": 8}
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     1  a.py", "     8  b.py",
                                                   "     9  total", ""]
