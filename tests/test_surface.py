"""The library ships what its CLI and solvers run: every public top-level def
or class in src/minent, and every public method of its classes, is used by
some other library code. Code that only the tests call (oracles, graph
families) lives in tests/oracles.py."""

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


# bench/tracing.py::METHODS wraps these two methods by name, and its getattr
# raises once either leaves the library; ROADMAP item 1 drops them there
# first, and then from the library and this list.
UNCALLED_METHODS_KEPT = {"core.Graph.is_independent_set", "core.SetSystem.sets_containing"}


def uncalled_public_methods() -> set[str]:
    """module.Class.method of each public method of a top-level library
    class whose name no Attribute node of src/minent outside the method's
    own body mentions. A method is only reached through an attribute."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    attrs = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)]
    found = set()
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for d in cls.body:
                if not isinstance(d, ast.FunctionDef) or d.name.startswith("_"):
                    continue
                own = set(map(id, ast.walk(d)))
                if not any(n.attr == d.name for n in attrs if id(n) not in own):
                    found.add(f"{mod}.{cls.name}.{d.name}")
    return found


def test_every_public_library_method_is_called_by_the_library():
    assert uncalled_public_methods() == UNCALLED_METHODS_KEPT
