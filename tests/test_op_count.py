"""tools/op_count.py: bytecode counts repeat exactly."""

import gc
import importlib.util
import sys
from pathlib import Path


def op_count_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "op_count.py"
    spec = importlib.util.spec_from_file_location("op_count", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_two_counts_of_one_input_are_equal():
    tool = op_count_tool()
    text = "elements: a b c d e f\na < b\nc < d\ne < f\nb < f\n"

    def draw():
        tool.measure.draw("order", text, "sat")

    draw()  # warm-up, as the tool makes before it counts
    previous = sys.gettrace()
    first, second = tool.count_opcodes(draw), tool.count_opcodes(draw)
    assert sys.gettrace() is previous and gc.isenabled()
    assert first == second
    names = {code.co_name for code in first}
    assert {"draw", "parse_order_text", "_force_classes", "emit_svg"} <= names
