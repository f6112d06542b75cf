"""The library ships what its CLI and solvers run: every public top-level def
or class in src/minent, every public method of its classes, and every public
UPPER_CASE constant, is used by some other library code. Code that only the
tests call (oracles, graph families) lives in tests/oracles.py."""

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


def unread_public_constants() -> set[str]:
    """module.NAME of each public UPPER_CASE name assigned at the top level
    of a library module that no loaded Name or Attribute node of src/minent
    outside its own assignment reads, so a cap that loses its last reader
    cannot linger."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    reads = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    found = set()
    for mod, tree in trees.items():
        for d in tree.body:
            targets = (d.targets if isinstance(d, ast.Assign)
                       else [d.target] if isinstance(d, ast.AnnAssign) else [])
            own = set(map(id, ast.walk(d)))
            for t in targets:
                if not isinstance(t, ast.Name) or t.id.startswith("_") or not t.id.isupper():
                    continue
                if not any((n.id if isinstance(n, ast.Name) else n.attr) == t.id
                           for n in reads if id(n) not in own):
                    found.add(f"{mod}.{t.id}")
    return found


def test_every_public_library_constant_is_read_by_the_library():
    assert unread_public_constants() == set()


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
