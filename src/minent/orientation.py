"""Minimum entropy orientation: biased orientations (additive +1 bit), the
exact oracle as set cover over vertex stars, and the constant-time sampling
estimator."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import (WORK_BUDGET, BudgetError, FeasibilityError, Graph, SetSystem,
                   ValidationError, _xlog2x, entropy_of_counts)


@dataclass(frozen=True)
class Orientation:
    """Per-edge (tail, head) pairs, aligned with graph.edges, plus indegrees,
    checked against the graph when built; a graph with no edges is refused."""

    direction: tuple[tuple[int, int], ...]
    indegrees: tuple[int, ...]

    def __init__(self, g: Graph, direction):
        if g.m == 0:
            raise ValidationError("graph has no edges to orient")
        direction = tuple(map(tuple, direction))
        if len(direction) != g.m:
            raise FeasibilityError("one direction per edge required")
        indeg = [0] * g.n
        for (u, v), (tail, head) in zip(g.edges, direction):
            if not (tail == u and head == v or tail == v and head == u):
                raise FeasibilityError(f"direction ({tail},{head}) does not match edge ({u},{v})")
            indeg[head] += 1
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "indegrees", tuple(indeg))


def orientation_entropy(o: Orientation) -> float:
    """Entropy (bits) of {indegree(v)/m} over vertices of positive indegree."""
    return entropy_of_counts(o.indegrees)


def biased_orientation(g: Graph) -> Orientation:
    """Orient every edge toward its higher-degree endpoint; degree ties go to
    the higher-numbered endpoint."""
    n = g.n
    # rank[v] = degree * n + v orders the vertices by (degree, index): each
    # edge's head is its endpoint of higher rank. An edge (u, v) whose head
    # is v is its own (tail, head) pair.
    rank = [len(a) * n + v for v, a in enumerate(g.adjacency)]
    direction = []
    for e in g.edges:
        u, v = e
        direction.append((v, u) if rank[u] > rank[v] else e)
    return Orientation(g, direction)


def exact_orientation(g: Graph) -> Orientation:
    """Minimum-entropy orientation as minimum entropy set cover: each edge
    is an element lying in the stars of its two endpoints, and the set it is
    assigned to names its head (Cardinal, Fiorini & Joret, Oper. Res. Lett.
    2008). Set n-1-w is vertex w's star, so `setcover.exact_cover`, trying
    each element's sets in ascending index, tries edge (u, v), u < v, as
    u->v before v->u: direction vectors are met in lexicographic order and
    ties go to the lexicographically smallest optimum. The search, its
    secant bound and its greedy-seeded incumbent are exact_cover's; more
    than `WORK_BUDGET` orientations, 2^m, are refused before it starts."""
    if g.m == 0:
        raise ValidationError("graph has no edges to orient")
    n = g.n
    stars: list[list[int]] = [[] for _ in range(n)]
    for j, (u, v) in enumerate(g.edges):
        stars[n - 1 - u].append(j)
        stars[n - 1 - v].append(j)
    from .setcover import exact_cover  # only this exact path loads set cover
    cover = exact_cover(SetSystem(g.m, stars))
    return Orientation(g, [(u, v) if i == n - 1 - v else (v, u)
                           for (u, v), i in zip(g.edges, cover.assignment)])


def sample_count(epsilon: float, delta: float, max_degree: int) -> int:
    """Samples needed so Hoeffding's bound 2 exp(-2 s eps^2 / B^2) <= delta,
    with B = max(Delta log2 Delta, 1) the range of rho*log rho; at least 1.
    A count above `WORK_BUDGET` (an infinite one included) is refused."""
    if not 0 < epsilon < math.inf or not 0 < delta < 1:
        raise ValidationError("need finite epsilon > 0 and delta in (0,1)")
    if max_degree < 1:
        raise ValidationError("max degree must be >= 1")
    b = max(_xlog2x(max_degree), 1.0)
    denom = 2 * epsilon * epsilon
    count = b * b / denom * math.log(2 / delta) if denom else math.inf
    if not count <= WORK_BUDGET:
        raise BudgetError(f"epsilon {epsilon} needs {count:.3g} samples, "
                          f"more than the budget {WORK_BUDGET}")
    return max(1, math.ceil(count))


def local_indegree(g: Graph, v: int) -> int:
    """Indegree of v in the biased orientation, computed from v's
    neighborhood only: neighbor w points to v when its rank, degree * n +
    index as in `biased_orientation`, is below v's."""
    adj, n = g.adjacency, g.n
    rank = len(adj[v]) * n + v
    indeg = 0
    for w in adj[v]:
        if len(adj[w]) * n + w < rank:
            indeg += 1
    return indeg


def estimate_entropy(g: Graph, epsilon: float, delta: float, seed: int = 0,
                     one_sided: bool = False, full_sweep: bool = False) -> tuple[float, int]:
    """Sampling estimate (H, s) of the entropy of the preferred biased
    orientation: H = log2 m - (n/(s m)) * sum_i rho(v_i) log2 rho(v_i), over
    s = `sample_count` vertices sampled uniformly with replacement.
    `full_sweep` visits every vertex exactly once instead (s = n), making
    the estimate exact. Either way `sample_count` checks epsilon, delta and
    Delta first, then m >= n is checked. The one-sided variant adds epsilon
    to H. Each distinct sampled vertex's rho is read off its neighbors'
    degrees once, so the estimate costs O(s + min(s, n) Delta)."""
    n, m = g.n, g.m
    s = sample_count(epsilon, delta, g.max_degree())
    if m < n:
        raise ValidationError("estimator requires at least as many edges as vertices")
    if full_sweep:
        s, samples = n, range(n)
    else:
        # randrange(n)'s rejection draw (CPython's _randbelow_with_getrandbits),
        # without its per-call overhead: the same stream, in under half the time
        getrandbits, k = random.Random(seed).getrandbits, n.bit_length()
        samples = []
        for _ in range(s):
            v = getrandbits(k)
            while v >= n:
                v = getrandbits(k)
            samples.append(v)
    terms = {}  # rho log2 rho of each sampled vertex, computed once
    for v in samples:
        if v not in terms:
            rho = local_indegree(g, v)
            terms[v] = _xlog2x(rho)
    acc = math.fsum(map(terms.__getitem__, samples))
    h = math.log2(m) - (n / (s * m)) * acc
    return (h + epsilon if one_sided else h), s
