"""The benchmark's tracer finds every call site it hooks, and puts it back.

`perfbench/tracing.py` wraps module attributes by name (for example the
`solve_cnf` re-export in `orddraw.bipartization`), so renaming or dropping
one of them breaks only a traced bench run unless a test installs the hooks.
"""

import importlib
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
