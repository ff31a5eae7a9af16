"""The benchmark's `orders.closure` span covers the closure of every input.

The per-layer `orders.closure_s` of a traced bench run sums the spans that
`perfbench/tracing.py` records around `orddraw.orders.transitive_closure`.
If the closing sweep left that function, the figure would read 0 on working
code, so a drawing of each input format must record at least one span.
"""

import sys
from pathlib import Path

import pytest

from orddraw.cli import main

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402

INPUTS = {
    "order": "bot < a\nbot < b\na < top\nb < top\nbot < c\n",
    "cxt": "B\n\n3\n3\n\ng1\ng2\ng3\nm1\nm2\nm3\nXX.\n.XX\nX.X\n",
}


@pytest.mark.parametrize("fmt", sorted(INPUTS))
def test_a_traced_draw_records_a_closure_span(fmt, tmp_path):
    path = tmp_path / f"input.{fmt}"
    path.write_text(INPUTS[fmt])
    out = tmp_path / "drawing.svg"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = tracer.run(0, lambda: main(["draw", "-i", str(path), "-o", str(out)]))
    finally:
        tracer.uninstall()
    assert code == 0 and b"<svg" in out.read_bytes()
    closures = [s for s in tracer.spans if s.name == "orders.closure"]
    assert closures
    assert all(s.attempt == 0 and s.end > s.start for s in closures)
    assert tracing.layer_metrics(tracer.spans, 1)["orders.closure_s"] > 0
