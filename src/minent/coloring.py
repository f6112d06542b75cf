"""Minimum entropy coloring: greedy via (approximate) maximum independent
sets, the exact partition-search oracle, the +1-bit interval algorithm with
its layer lower bound, and the J_k interval gadget."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (MAX_GRAPH_VERTICES, BudgetError, FeasibilityError, Graph,
                   IntervalSet, ValidationError, _left_sweep, _xlog2x,
                   entropy_of_counts)

COLORING_CAP = 15  # most vertices exact_coloring searches; J_5 has 15
MIS_CAP = 40  # most vertices exact_mis searches


@dataclass(frozen=True)
class Coloring:
    """Proper coloring as a per-vertex color vector (positive integers)."""

    colors: tuple[int, ...]

    def __init__(self, colors):
        colors = tuple(int(c) for c in colors)
        if any(c < 1 for c in colors):
            raise ValidationError("colors must be positive integers")
        object.__setattr__(self, "colors", colors)

    def canonical(self) -> "Coloring":
        """Relabel colors to 1..t in order of first appearance."""
        relabel: dict[int, int] = {}
        out = []
        for c in self.colors:
            if c not in relabel:
                relabel[c] = len(relabel) + 1
            out.append(relabel[c])
        return Coloring(out)

    def classes(self) -> list[list[int]]:
        by_color: dict[int, list[int]] = {}
        for v, c in enumerate(self.colors):
            by_color.setdefault(c, []).append(v)
        return [by_color[c] for c in sorted(by_color)]


@dataclass(frozen=True)
class LayerDecomposition:
    """Layers S_1..S_k of the interval algorithm; the prefix S_1..S_i induces
    a maximum i-colorable subgraph, and lower_bound_H = H({|S_i|/n})."""

    layers: tuple[tuple[int, ...], ...]
    lower_bound_H: float


def coloring_entropy(g: Graph, c: Coloring) -> float:
    """Entropy (bits) of the color-class masses: each vertex weighs 1, or
    its vertex weight when the graph is weighted, and the masses are
    normalized by their total."""
    if g.n == 0:
        raise ValidationError("empty graph has no coloring")
    if len(c.colors) != g.n:
        raise FeasibilityError("coloring length mismatch")
    if not g.is_proper_coloring(c.colors):
        raise FeasibilityError("coloring is not proper")
    masses = dict.fromkeys(c.colors, 0)
    for col, w in zip(c.colors, g.weights or (1,) * g.n):
        masses[col] += w
    return entropy_of_counts(masses.values())


def exact_mis(g: Graph, vertices: Optional[Sequence[int]] = None) -> tuple[int, ...]:
    """Maximum-cardinality (or, on a weighted graph, maximum-weight)
    independent set of the subgraph induced by `vertices` (default: all of
    g) by branch and bound; returns the lexicographically smallest optimum."""
    vs = range(g.n) if vertices is None else sorted(vertices)
    n = len(vs)
    if n > MIS_CAP:
        raise BudgetError(f"exact MIS oracle limited to {MIS_CAP} vertices")
    if n == 0:
        return ()
    w = [1.0] * n if g.weights is None else [g.weights[v] for v in vs]
    pos = {v: i for i, v in enumerate(vs)}
    adj = [sum(1 << pos[u] for u in g.adjacency[v] if u in pos) for v in vs]
    suffix = [0.0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix[v] = suffix[v + 1] + w[v]

    best_w = -1.0
    best_set: tuple[int, ...] = ()

    def recurse(v: int, chosen_mask: int, chosen: list[int], cur: float) -> None:
        nonlocal best_w, best_set
        if cur + suffix[v] <= best_w + 1e-12:
            return
        if v == n:
            best_w = cur
            best_set = tuple(chosen)
            return
        if not (adj[v] & chosen_mask):
            chosen.append(v)
            recurse(v + 1, chosen_mask | (1 << v), chosen, cur + w[v])
            chosen.pop()
        recurse(v + 1, chosen_mask, chosen, cur)

    recurse(0, 0, [], 0.0)
    del recurse  # its closure holds it: a cycle that reference counting cannot free
    return tuple(vs[i] for i in best_set)


def greedy_coloring(g: Graph, oracle: str = "exact") -> Coloring:
    """Iteratively remove a maximum (or approximate-maximum) independent set
    of the uncolored vertices, assigning a new color to each removed set.
    The exact oracle is exact_mis, weighted when the graph is.

    The approximate oracle is the min-degree greedy, (Delta+2)/3-approximate:
    repeatedly take a vertex of least residual degree (ties to the smallest
    index) and delete its closed neighborhood. Uncolored-neighbor counts are
    kept over all classes in O(n + m), lowered as each class's vertices are
    picked. Within a class a lazy heap of (residual degree, vertex) entries
    serves the picks in O((n + m) log n) (Matula & Beck's degree queue):
    degrees only fall, so a live vertex's newest entry, at its current
    degree, pops before its older ones, and only entries of deleted vertices
    are skipped. A deletion that leaves no vertex ends the class without
    lowering any residual degree."""
    if oracle not in ("exact", "approx"):
        raise ValidationError(f"unknown oracle {oracle!r}")
    adjacency = g.adjacency
    degree = list(map(len, adjacency)) if oracle == "approx" else None
    remaining = list(range(g.n))
    colors = [0] * g.n
    color = 0
    while remaining:
        color += 1
        if degree is None:
            chosen = exact_mis(g, remaining)
        else:
            alive = [False] * g.n
            for v in remaining:
                alive[v] = True
            residual = list(degree)
            heap = [(residual[v], v) for v in remaining]
            heapq.heapify(heap)
            left = len(heap)
            chosen = []
            while left:
                _, v = heapq.heappop(heap)
                if not alive[v]:
                    continue
                chosen.append(v)
                for w in adjacency[v]:  # v's neighbors lose an uncolored neighbor
                    degree[w] -= 1
                removed = [v] + [u for u in adjacency[v] if alive[u]]
                for u in removed:
                    alive[u] = False
                left -= len(removed)
                if left:
                    for u in removed:
                        for w in adjacency[u]:
                            if alive[w]:
                                residual[w] -= 1
                                heapq.heappush(heap, (residual[w], w))
        for v in chosen:
            colors[v] = color
        remaining = [v for v in remaining if not colors[v]]
    return Coloring(colors)


def exact_coloring(g: Graph) -> Coloring:
    """Minimum-entropy proper coloring by canonical set-partition search with
    dominance-envelope pruning; returns the lexicographically smallest
    optimal canonical color vector. The objective is coloring_entropy's: a
    class weighs its vertices' weights on a weighted graph, 1 per vertex
    otherwise.

    The search carries S = sum of f(m), f(x) = x log2 x, over the class
    masses m, as setcover.exact_cover does: H = log2(total) - S/total.
    Every completion is dominated by pouring all remaining mass into the
    largest class, so that completion's entropy bounds the subtree."""
    n = g.n
    if n > COLORING_CAP:
        raise BudgetError(f"exact coloring oracle limited to {COLORING_CAP} vertices")
    # Seed the incumbent entropy from the greedy coloring (whose entropy
    # refuses the empty graph); the +1e-9 slack keeps the search obliged to
    # rediscover an actual optimum, preserving the lexicographic tie-break.
    best_h = coloring_entropy(g, greedy_coloring(g)) + 1e-9
    adj = g.adjacency_masks()

    mass = g.weights or [1] * n
    rest = [0] * (n + 1)  # rest[v]: the mass of vertices v..n-1
    for v in range(n - 1, -1, -1):
        rest[v] = rest[v + 1] + mass[v]
    # With total = 1, weights summing to 1 only within WEIGHT_TOL would put
    # every coloring above the seed's 1e-9 slack; so divide by the total.
    total = rest[0]
    log2_total = math.log2(total)

    best_colors: Optional[tuple[int, ...]] = None

    class_masks: list[int] = []
    masses: list[float] = []
    colors = [0] * n

    def recurse(v: int, acc: float) -> None:
        # acc is S over the current class masses; v..n-1 are still uncolored.
        nonlocal best_h, best_colors
        if v == n:
            h = log2_total - acc / total
            if h < best_h - 1e-12:
                best_h = h
                best_colors = tuple(colors)
            return
        cmax = max(masses, default=0)
        gain = _xlog2x(cmax + rest[v]) - _xlog2x(cmax)
        if log2_total - (acc + gain) / total >= best_h - 1e-12:
            return
        m = mass[v]
        for i in range(len(class_masks)):
            if not (class_masks[i] & adj[v]):
                before = masses[i]
                class_masks[i] |= 1 << v
                masses[i] = before + m
                colors[v] = i + 1
                recurse(v + 1, acc + _xlog2x(before + m) - _xlog2x(before))
                class_masks[i] &= ~(1 << v)
                masses[i] = before
        class_masks.append(1 << v)
        masses.append(m)
        colors[v] = len(class_masks)
        recurse(v + 1, acc + _xlog2x(m))
        class_masks.pop()
        masses.pop()

    recurse(0, 0.0)
    del recurse  # its closure holds it: a cycle that reference counting cannot free
    assert best_colors is not None
    return Coloring(best_colors)


def gen_jk(k: int) -> IntervalSet:
    """The J_k gadget: open intervals ((j-1)/i, j/i) for 1 <= j <= i <= k,
    listed row by row; row i is an independent set of size i."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k * (k + 1) // 2 > MAX_GRAPH_VERTICES:  # an intervals file is a graph input
        raise ValidationError(f"J_{k} has more than {MAX_GRAPH_VERTICES} intervals")
    intervals = []
    for i in range(1, k + 1):
        for j in range(1, i + 1):
            intervals.append((Fraction(j - 1, i), Fraction(j, i)))
    return IntervalSet(intervals)


def _two_color_layer(iv: IntervalSet, layer: list[int], even: int, odd: int,
                     colors: list[int]) -> None:
    """2-color the interval graph induced by a layer, per connected component;
    the larger side takes the even (lower) color, ties going to the side of
    the component's first interval in `layer` (interval_mec's sorted order).

    One _left_sweep: no open earlier neighbor starts a component, one is on
    the other side, two make a triangle."""
    side: dict[int, int] = {}
    tally: dict[int, list[int]] = {}  # v -> its component's side sizes
    for v, open_ in _left_sweep(iv.intervals, layer):
        if len(open_) > 1:
            raise FeasibilityError("layer induces an odd cycle")
        if open_:
            side[v], tally[v] = 1 - side[open_[0]], tally[open_[0]]
        else:
            side[v], tally[v] = 0, [0, 0]
        tally[v][side[v]] += 1
    for v in layer:
        t = tally[v]
        if len(t) == 2:  # v is its component's first interval: settle the even side
            t.append(side[v] if t[0] == t[1] else int(t[1] > t[0]))
        colors[v] = even if side[v] == t[2] else odd


def interval_mec(iv: IntervalSet) -> tuple[Coloring, LayerDecomposition]:
    """+1-bit minimum entropy coloring of an interval graph.

    Intervals are scanned in increasing right-endpoint order and inserted
    into the first layer i whose prefix union S_1..S_i stays i-colorable,
    tested by one _left_sweep; layer 1 gets color 1 and each later layer i
    is 2-colored with 2i-2 and 2i-1.
    Returns the coloring and the layer decomposition, whose size distribution
    entropy is a lower bound on the chromatic entropy."""
    ivs = iv.intervals
    n = len(ivs)
    if n == 0:
        raise ValidationError("empty interval set")
    order = sorted(range(n), key=lambda v: (ivs[v][1], ivs[v][0], v))
    layers: list[list[int]] = []
    for v in order:
        prefix = [v]
        for i, layer in enumerate(layers, 1):
            prefix += layer
            if all(len(open_) < i for _, open_ in _left_sweep(ivs, prefix)):
                layer.append(v)
                break
        else:
            layers.append([v])

    colors = [0] * n
    for u in layers[0]:
        colors[u] = 1
    for i, layer in enumerate(layers[1:], start=2):
        _two_color_layer(iv, layer, 2 * i - 2, 2 * i - 1, colors)
    lower = entropy_of_counts([len(s) for s in layers])
    return (Coloring(colors),
            LayerDecomposition(tuple(tuple(sorted(s)) for s in layers), lower))
