import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class Thing:
    """Class docstring."""

    x = 1

    def method(self):
        """Function docstring."""
        return (self.x +
                2)


def helper():
    text = """a string
that is not a docstring"""
    "an expression after the first statement"
    return text


async def later():
    \'\'\'Async docstring.\'\'\'
'''

# import, class, x =, def method, return (2 lines), def helper, text = (2 lines),
# the late string expression, return text, async def
FIXTURE_LINES = 12


def test_counts_code_lines_only():
    assert code_lines.code_lines(FIXTURE) == FIXTURE_LINES


def test_prints_each_file_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        f"{FIXTURE_LINES:6d}  a.py", "     1  b.py", f"{FIXTURE_LINES + 1:6d}  total", ""]
