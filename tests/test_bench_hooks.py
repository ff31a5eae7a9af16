"""The benchmark's tracer finds every call site it hooks, and puts it back.

`perfbench/tracing.py` wraps module attributes by name (for example the
`solve_cnf` re-export in `orddraw.bipartization`), so renaming or dropping
one of them breaks only a traced bench run unless a test installs the hooks.
The other way round, a `src/` import marked as kept for the tracer must name
a hook, or it is a dead re-export.
"""

import importlib
import re
import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402


def test_every_hook_installs_and_uninstalls():
    originals = {(module, attr): getattr(importlib.import_module(module), attr)
                 for module, attr, _ in tracing.HOOKS}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (module, attr), original in originals.items():
            assert getattr(importlib.import_module(module), attr) is not original, (module, attr)
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original, (module, attr)


def test_every_marked_re_export_is_hooked():
    # a re-export kept only for the tracer is dead once its hook is gone
    hooked = {(module, attr) for module, attr, _ in tracing.HOOKS}
    src = Path(__file__).resolve().parent.parent / "src" / "orddraw"
    marked = []
    for path in sorted(src.glob("*.py")):
        for line in path.read_text().splitlines():
            if "perfbench/tracing.py hooks it here" in line:
                match = re.match(r"from \.\w+ import (\w+)  #", line)
                assert match, line
                marked.append((f"orddraw.{path.stem}", match.group(1)))
    assert marked
    assert [pair for pair in marked if pair not in hooked] == []
