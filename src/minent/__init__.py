"""Minimum entropy combinatorial optimization: set cover, graph orientation,
graph coloring, and graph entropy, with exact desk-scale oracles that verify
each additive approximation guarantee."""

from .core import (BudgetError, FeasibilityError, Graph, IntervalSet, SetSystem,
                   ValidationError, interval_graph)

__all__ = [
    "BudgetError", "FeasibilityError", "Graph", "IntervalSet", "SetSystem",
    "ValidationError", "interval_graph",
]

__version__ = "0.1.0"
