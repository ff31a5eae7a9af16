"""tools/sloc.py: blank, comment and docstring lines are not code."""

import importlib.util
from pathlib import Path


def sloc_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "sloc.py"
    spec = importlib.util.spec_from_file_location("sloc", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_only_code_lines_count():
    tool = sloc_tool()
    source = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return """a string
that is not a docstring"""
'''
    # import, class, def, and the two lines of the returned string
    assert tool.code_lines(source) == 5


def test_the_package_total_is_the_sum_of_its_modules(capsys):
    tool = sloc_tool()
    assert tool.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = dict(line.split() for line in lines)
    total = int(counts.pop("total"))
    assert "engine.py" in counts and lines[-1].startswith("total ")
    assert total == sum(map(int, counts.values())) > 0
