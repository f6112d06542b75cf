"""Minimum entropy combinatorial optimization: set cover, graph orientation,
graph coloring, and graph entropy, with exact desk-scale oracles that verify
each additive approximation guarantee."""

import importlib

from .core import (BudgetError, FeasibilityError, Graph, IntervalSet, SetSystem,
                   ValidationError, interval_graph)

__all__ = [
    "BudgetError", "FeasibilityError", "Graph", "IntervalSet", "SetSystem",
    "ValidationError", "interval_graph",
]

__version__ = "0.1.0"

_SUBMODULES = {"apps", "cli", "coloring", "graphent", "io", "orientation", "setcover"}


def __getattr__(name: str):
    """`minent.<submodule>` imports it on first access (PEP 562)."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
