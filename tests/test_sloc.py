"""tools/sloc.py: blank, comment and docstring lines are not code."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "sloc.py"


def sloc_tool():
    spec = importlib.util.spec_from_file_location("sloc", TOOL)
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


def test_stops_quietly_when_stdout_closes():
    # `sloc.py | head -1` once head has exited: the first line meets a closed pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "wb") as stdout:
        run = subprocess.run([sys.executable, str(TOOL)], stdout=stdout,
                             stderr=subprocess.PIPE, timeout=60)
    assert (run.returncode, run.stderr) == (1, b"")
