"""The package's public surface: `orddraw.__all__` against what `__init__`
imports, so a stale export or a forgotten one fails here."""

import ast
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
                 "Bipartition", "bipartite_check"):
        assert not hasattr(orddraw, name), name
