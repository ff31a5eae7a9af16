"""The package's public surface: `orddraw.__all__` against what `__init__`
imports, so a stale export or a forgotten one fails here, the modules'
imports against their use, and the README's library example against the
package."""

import ast
import re
from pathlib import Path

import orddraw


def init_imports() -> set[str]:
    tree = ast.parse(Path(orddraw.__file__).read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_every_exported_name_resolves_once():
    assert len(orddraw.__all__) == len(set(orddraw.__all__))
    for name in orddraw.__all__:
        assert hasattr(orddraw, name), name


def test_every_public_import_is_exported():
    public = {name for name in init_imports() if not name.startswith("_")}
    assert public - set(orddraw.__all__) == set()


def test_retired_names_are_gone():
    for name in ("oct_genetic", "GeneticParams", "brute_force_oct",
                 "Bipartition", "bipartite_check",
                 "AnnealParams", "CanvasSpec", "EdgeMismatch", "NotIncomparable",
                 "all_linear_extensions", "cocomparability_graph",
                 "comparability_graph", "enforces", "incompatible",
                 "transitive_orientation", "verify_orientation",
                 "ExternalSolver", "parse_dimacs", "oct_greedy",
                 "weak_dominance_stats", "DominanceReport",
                 "two_coloring", "incomparable_pairs"):
        assert not hasattr(orddraw, name), name
    from orddraw import bipartization, cli, engine, graphs, orders, sat, tig
    for owner, name in ((sat, "ExternalSolver"), (sat, "parse_dimacs"),
                        (graphs, "bridges"), (graphs, "two_coloring_mask"),
                        (cli, "cmd_cnf"), (engine, "_insert_checked"),
                        (engine, "_insert_one_by_one"), (engine, "_greater"),
                        (engine, "weak_dominance_stats"), (engine, "DominanceReport"),
                        (engine, "with_plane"), (cli, "_load_order"),
                        (sat.CnfInstance(0, ()), "var_map"),
                        (sat.CnfInstance(0, ()), "to_dimacs"),
                        (bipartization, "decode_removed"),
                        (bipartization, "decode_partition"), (cli, "RunConfig"),
                        (orders.OrderRelation, "le_ids"),
                        (orders.LinearExtension, "position_of"),
                        (tig.TigGraph, "index"), (graphs, "_colour_conflicts"),
                        (graphs, "two_coloring"), (orders, "incomparable_pairs"),
                        (graphs.SimpleGraph, "from_masks"),
                        (graphs.SimpleGraph, "neighbors"), (graphs.SimpleGraph, "_set"),
                        (orders.OrderRelation, "le"),
                        (orders.OrderRelation, "incomparable"), (tig, "IncPair"),
                        (orders.OrderRelation, "validate")):
        assert not hasattr(owner, name), name
    for name in ("oct_greedy", "_repair", "_cold_steps", "_OTHER_LABELS",
                 "_T0", "_ALPHA", "_STEPS", "_HOT", "_QUIET"):
        assert not hasattr(bipartization, name), name


def test_no_unused_import_in_the_package():
    """Every name a module of `src/orddraw` imports at module level is used
    in that module.  `__init__` is left out, since its imports are its
    exports (checked above), and so are the lines marked as kept for
    `perfbench/tracing.py`, whose hooks `test_bench_hooks` checks."""
    unused = []
    for path in sorted(Path(orddraw.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "perfbench/tracing.py hooks it here" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}: {name}")
    assert unused == []


def test_no_unread_private_name_in_the_package():
    """Every module-level function, class or assignment of `src/orddraw`
    whose name starts with a single `_` is read by some other top-level
    statement of the package, so a private helper cannot outlive its last
    caller."""
    statements = [node for path in sorted(Path(orddraw.__file__).parent.glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    reads = [{node.id for node in ast.walk(statement)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
             for statement in statements]
    private, unread = [], []
    for k, statement in enumerate(statements):
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            names = [statement.name]
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            names = [node.id for node in ast.walk(statement)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                private.append(name)
                if not any(name in read for i, read in enumerate(reads) if i != k):
                    unread.append(name)
    assert private and unread == []


def test_readme_quick_tour_runs(tmp_path, monkeypatch):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    tour = re.search(r"## Library quick tour\n\n```python\n(.*?)```",
                     readme.read_text(encoding="utf-8"), re.S)
    assert tour, "README has no library quick tour block"
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(tour.group(1), "README quick tour", "exec"), scope)
    assert (tmp_path / "diamond.svg").read_bytes().startswith(b"<?xml")
    # the comment on the trace line
    assert scope["trace"].passes == 1 and len(scope["trace"].inserted) == 1
