"""Minimum entropy coloring: greedy via (approximate) maximum independent
sets, the exact partition-search oracle, the +1-bit interval algorithm with
its layer lower bound, and the J_k interval gadget."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (BudgetError, FeasibilityError, Graph, IntervalSet,
                   ValidationError, entropy_of_counts, intervals_intersect,
                   max_point_depth, xlog2x_table)

LOG2_E = math.log2(math.e)
DEFAULT_COLORING_CAP = 12


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

    def class_counts(self) -> list[int]:
        return [len(cls) for cls in self.classes()]


@dataclass(frozen=True)
class LayerDecomposition:
    """Layers S_1..S_k of the interval algorithm; the prefix S_1..S_i induces
    a maximum i-colorable subgraph, and lower_bound_H = H({|S_i|/n})."""

    layers: tuple[tuple[int, ...], ...]
    lower_bound_H: float


def coloring_entropy(g: Graph, c: Coloring) -> float:
    """Entropy (bits) of the color-class mass distribution: uniform 1/n per
    vertex, or the vertex weights when the graph is weighted."""
    if len(c.colors) != g.n:
        raise FeasibilityError("coloring length mismatch")
    if not g.is_proper_coloring(c.colors):
        raise FeasibilityError("coloring is not proper")
    if g.weights is None:
        return entropy_of_counts(c.class_counts())
    masses: dict[int, float] = {}
    for v, col in enumerate(c.colors):
        masses[col] = masses.get(col, 0.0) + g.weights[v]
    return -math.fsum(p * math.log2(p) for p in masses.values() if p > 0)


def exact_mis(g: Graph, weights: Optional[Sequence[float]] = None) -> tuple[int, ...]:
    """Maximum-cardinality (or maximum-weight) independent set by branch and
    bound; returns the lexicographically smallest optimum."""
    n = g.n
    if n > 40:
        raise BudgetError("exact MIS oracle limited to 40 vertices")
    if n == 0:
        return ()
    w = [1.0] * n if weights is None else [float(x) for x in weights]
    adj = g.adjacency_masks()
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
    return best_set


def approx_mis(g: Graph) -> tuple[int, ...]:
    """Minimum-degree greedy independent set: repeatedly take a minimum-degree
    vertex of the residual graph (ties to the smallest index) and delete its
    closed neighborhood. (Delta+2)/3-approximate on max-degree-Delta graphs.

    A lazy heap of (residual degree, vertex) entries serves the picks, in
    O((n + m) log n) (Matula & Beck's degree queue): degrees only fall, so an
    entry whose degree is above the vertex's current one is stale and
    skipped, and the first live entry popped is the minimum over the
    residual graph."""
    alive = [True] * g.n
    degree = [g.degree(v) for v in range(g.n)]
    heap = [(d, v) for v, d in enumerate(degree)]
    heapq.heapify(heap)
    chosen = []
    while heap:
        d, v = heapq.heappop(heap)
        if not alive[v] or d != degree[v]:
            continue
        chosen.append(v)
        removed = [v] + [u for u in g.neighbors(v) if alive[u]]
        for u in removed:
            alive[u] = False
        for u in removed:
            for w in g.neighbors(u):
                if alive[w]:
                    degree[w] -= 1
                    heapq.heappush(heap, (degree[w], w))
    return tuple(sorted(chosen))


def _induced(g: Graph, vertices: Sequence[int]) -> tuple[Graph, list[int]]:
    vertices = sorted(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    edges = [(index[u], index[v]) for (u, v) in g.edges
             if u in index and v in index]
    return Graph(len(vertices), edges), vertices


def greedy_coloring(g: Graph, oracle: str = "exact") -> Coloring:
    """Iteratively remove a maximum (or approximate-maximum) independent set,
    assigning a new color to each removed set. The exact oracle uses vertex
    weights when the graph is weighted."""
    if oracle not in ("exact", "approx"):
        raise ValidationError(f"unknown oracle {oracle!r}")
    remaining = list(range(g.n))
    colors = [0] * g.n
    color = 0
    while remaining:
        sub, back = _induced(g, remaining)
        if oracle == "exact":
            w = [g.weights[v] for v in back] if g.weights is not None else None
            picked = exact_mis(sub, w)
        else:
            picked = approx_mis(sub)
        color += 1
        taken = {back[i] for i in picked}
        for v in taken:
            colors[v] = color
        remaining = [v for v in remaining if v not in taken]
    return Coloring(colors)


def exact_coloring(g: Graph, limit: int = DEFAULT_COLORING_CAP) -> Coloring:
    """Minimum-entropy proper coloring by canonical set-partition search with
    dominance-envelope pruning; returns the lexicographically smallest
    optimal canonical color vector."""
    n = g.n
    if n > limit:
        raise BudgetError(f"exact coloring oracle limited to {limit} vertices")
    if n == 0:
        raise ValidationError("empty graph has no coloring")
    adj = g.adjacency_masks()

    xlog = xlog2x_table(n)
    log2n = math.log2(n)

    # Seed the incumbent entropy from an unweighted greedy coloring; the
    # +1e-9 slack keeps the search obliged to rediscover an actual optimum,
    # preserving the lexicographic tie-break.
    seed_graph = g if g.weights is None else Graph(g.n, g.edges)
    best_h = coloring_entropy(seed_graph, greedy_coloring(seed_graph)) + 1e-9
    best_colors: Optional[tuple[int, ...]] = None

    class_masks: list[int] = []
    class_counts: list[int] = []
    colors = [0] * n

    def envelope(remaining: int) -> float:
        # Every completion is dominated by "pour all remaining vertices into
        # the largest class", so its entropy is a valid lower bound.
        if not class_counts:
            return 0.0
        cmax = max(class_counts)
        acc = xlog[cmax + remaining] - xlog[cmax]
        acc += sum(xlog[c] for c in class_counts)
        return log2n - acc / n

    def recurse(v: int) -> None:
        nonlocal best_h, best_colors
        if v == n:
            h = log2n - sum(xlog[c] for c in class_counts) / n
            if h < best_h - 1e-12:
                best_h = h
                best_colors = tuple(colors)
            return
        if envelope(n - v) >= best_h - 1e-12:
            return
        for i in range(len(class_masks)):
            if not (class_masks[i] & adj[v]):
                class_masks[i] |= 1 << v
                class_counts[i] += 1
                colors[v] = i + 1
                recurse(v + 1)
                class_masks[i] &= ~(1 << v)
                class_counts[i] -= 1
        class_masks.append(1 << v)
        class_counts.append(1)
        colors[v] = len(class_masks)
        recurse(v + 1)
        class_masks.pop()
        class_counts.pop()

    recurse(0)
    assert best_colors is not None
    return Coloring(best_colors)


def gen_jk(k: int) -> IntervalSet:
    """The J_k gadget: open intervals ((j-1)/i, j/i) for 1 <= j <= i <= k.
    Row i (an independent set of size i) occupies positions given by
    jk_rows(k)."""
    if k < 1:
        raise ValidationError("k must be >= 1")
    intervals = []
    for i in range(1, k + 1):
        for j in range(1, i + 1):
            intervals.append((Fraction(j - 1, i), Fraction(j, i)))
    return IntervalSet(intervals)


def jk_rows(k: int) -> list[list[int]]:
    """Vertex indices of each row of gen_jk(k), in row order 1..k."""
    rows = []
    idx = 0
    for i in range(1, k + 1):
        rows.append(list(range(idx, idx + i)))
        idx += i
    return rows


def _two_color_layer(iv: IntervalSet, layer: list[int], sorted_pos: dict[int, int],
                     even: int, odd: int, colors: list[int]) -> None:
    """2-color the interval graph induced by a layer, per connected component;
    the larger side takes the even (lower) color, ties going to the side
    containing the earliest interval in sorted order."""
    ivs = iv.intervals
    adj = {v: [] for v in layer}
    for a in range(len(layer)):
        for b in range(a + 1, len(layer)):
            u, v = layer[a], layer[b]
            if intervals_intersect(ivs[u], ivs[v]):
                adj[u].append(v)
                adj[v].append(u)
    side: dict[int, int] = {}
    seen = set()
    for root in layer:
        if root in seen:
            continue
        comp = [root]
        side[root] = 0
        seen.add(root)
        queue = [root]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w in seen:
                    if side[w] == side[u]:
                        raise FeasibilityError("layer induces an odd cycle")
                    continue
                seen.add(w)
                side[w] = 1 - side[u]
                comp.append(w)
                queue.append(w)
        zero = [v for v in comp if side[v] == 0]
        one = [v for v in comp if side[v] == 1]
        if len(zero) > len(one):
            big, small = zero, one
        elif len(one) > len(zero):
            big, small = one, zero
        else:
            first = min(comp, key=lambda v: sorted_pos[v])
            big, small = (zero, one) if side[first] == 0 else (one, zero)
        for v in big:
            colors[v] = even
        for v in small:
            colors[v] = odd


def interval_mec(iv: IntervalSet) -> tuple[Coloring, LayerDecomposition]:
    """+1-bit minimum entropy coloring of an interval graph.

    Intervals are scanned in increasing right-endpoint order and inserted
    into the first layer whose prefix union stays (i)-clique-free; layer 1
    gets color 1 and each later layer i is 2-colored with 2i-2 and 2i-1.
    Returns the coloring and the layer decomposition, whose size distribution
    entropy is a lower bound on the chromatic entropy."""
    ivs = iv.intervals
    n = len(ivs)
    if n == 0:
        raise ValidationError("empty interval set")
    order = sorted(range(n), key=lambda v: (ivs[v][1], ivs[v][0], v))
    sorted_pos = {v: i for i, v in enumerate(order)}
    layers: list[list[int]] = []
    for v in order:
        placed = False
        for i in range(len(layers)):
            candidate = [ivs[u] for lay in layers[:i + 1] for u in lay] + [ivs[v]]
            if max_point_depth(candidate) <= i + 1:
                layers[i].append(v)
                placed = True
                break
        if not placed:
            layers.append([v])

    colors = [0] * n
    for u in layers[0]:
        colors[u] = 1
    for i, layer in enumerate(layers[1:], start=2):
        _two_color_layer(iv, layer, sorted_pos, 2 * i - 2, 2 * i - 1, colors)
    lower = entropy_of_counts([len(s) for s in layers])
    return (Coloring(colors),
            LayerDecomposition(tuple(tuple(sorted(s)) for s in layers), lower))
