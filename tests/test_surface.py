"""The library ships what its CLI and solvers run: every public top-level def
or class in src/minent is used by some other library code. Code that only
the tests call (oracles, graph families) lives in tests/oracles.py."""

import ast
from pathlib import Path

import minent

SRC = Path(minent.__file__).parent

def unreferenced_public_names() -> set[str]:
    """module.name of each public top-level def or class that no Name or
    Attribute node of src/minent outside its own definition mentions.
    Imports and strings (docstrings, __all__) are not uses."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    uses = [node for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    found = set()
    for mod, tree in trees.items():
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.ClassDef)) or d.name.startswith("_"):
                continue
            own = set(map(id, ast.walk(d)))
            if not any((n.id if isinstance(n, ast.Name) else n.attr) == d.name
                       for n in uses if id(n) not in own):
                found.add(f"{mod}.{d.name}")
    return found


def test_every_public_library_name_is_used_by_the_library():
    assert unreferenced_public_names() == set()
