"""Test oracles: the survey's proof tools, which the tests check the solvers
against and which no CLI path or solver runs.

- Distributions with exact (Fraction) or float-with-tolerance arithmetic,
  their entropy, and the dominance order of the survey's dominance lemma.
- Criterion 2's and criterion 7a's graph families: random connected graphs
  and random bipartite graphs.
- The rows of the J_k interval gadget, the class sizes of a colouring, and
  the clique number of an interval set by an event sweep, independent of
  the left-endpoint sweep that interval_mec's layers use.
- The haplotype-explains-genotype relation that haplotype_instance's sets
  stand for.
- graph_entropy's pairwise Frank-Wolfe loop with a dense numpy line search
  over all n vertices, so the solver can be held to it bit for bit.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from minent import graphent
from minent.coloring import Coloring
from minent.core import WEIGHT_TOL, ConvergenceError, Graph, ValidationError, _xlog2x
from minent.io import _pair


@dataclass(frozen=True)
class Distribution:
    """Finite nonnegative vector summing to 1. Entries may be Fractions,
    in which case comparisons (dominance) are exact."""

    probs: tuple

    def __init__(self, probs):
        probs = tuple(probs)
        if not probs:
            raise ValidationError("empty distribution")
        for p in probs:
            if p < 0:
                raise ValidationError(f"negative probability {p}")
        total = sum(probs)
        if isinstance(total, Fraction) or isinstance(total, int):
            if total != 1:
                raise ValidationError(f"probabilities sum to {total}, not 1")
        elif abs(total - 1.0) > WEIGHT_TOL:
            raise ValidationError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probs", probs)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(p, (Fraction, int)) for p in self.probs)

    def __len__(self):
        return len(self.probs)


def entropy(d: Distribution) -> float:
    """Shannon entropy in bits; 0*log 0 := 0."""
    return -math.fsum(_xlog2x(float(p)) for p in d.probs)


def counts_to_distribution(counts: Sequence[int]) -> Distribution:
    """Normalize integer counts into an exact-rational distribution.

    Zero counts are retained as zero entries."""
    counts = list(counts)
    if any(c < 0 for c in counts):
        raise ValidationError("negative count")
    total = sum(counts)
    if total == 0:
        raise ValidationError("all counts are zero")
    return Distribution(Fraction(c, total) for c in counts)


def dominates(r: Distribution, q: Distribution) -> bool:
    """True iff q is dominated by r: every prefix sum of q is <= the
    corresponding prefix sum of r. Exact when both sides are rational."""
    exact = r.is_exact and q.is_exact
    slack = 0 if exact else 1e-12
    rp = list(r.probs) + [0] * max(0, len(q) - len(r))
    qp = list(q.probs) + [0] * max(0, len(r) - len(q))
    r_acc = q_acc = 0
    for rv, qv in zip(rp, qp):
        r_acc += rv
        q_acc += qv
        if q_acc > r_acc + slack:
            return False
    return True


def random_connected_graph(n: int, m: int, seed: int = 0) -> Graph:
    """Random tree plus m - (n-1) uniform pairs off it; m >= n-1 required.
    The extra edges are drawn as ranks among the non-tree pairs in
    lexicographic order, so they are the ones sampling that list would draw:
    with t_0 < t_1 < ... the tree's pair indices, rank j is pair index
    j + #{i : t_i - i <= j}."""
    if m < n - 1 or m > n * (n - 1) // 2:
        raise ValidationError("edge count incompatible with connectivity")
    rng = random.Random(seed)
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    ids = sorted(u * (2 * n - u - 1) // 2 + v - u - 1 for u, v in tree)
    skip = [t - i for i, t in enumerate(ids)]
    ranks = rng.sample(range(n * (n - 1) // 2 - len(tree)), m - len(tree))
    return Graph(n, sorted(tree + [_pair(n, j + bisect_right(skip, j)) for j in ranks]))


def random_bipartite_graph(n: int, seed: int = 0) -> Graph:
    """Two random sides, each cross pair an edge with probability 1/2."""
    rng = random.Random(seed)
    split = rng.randrange(1, n) if n > 1 else 1
    edges = [(u, v) for u in range(split) for v in range(split, n)
             if rng.random() < 0.5]
    return Graph(n, edges)


def jk_rows(k: int) -> list[list[int]]:
    """Vertex indices of each row of gen_jk(k), in row order 1..k."""
    rows = []
    idx = 0
    for i in range(1, k + 1):
        rows.append(list(range(idx, idx + i)))
        idx += i
    return rows


def class_counts(c: Coloring) -> list[int]:
    """The sizes of c's colour classes, in the order of their first vertex."""
    return [len(cls) for cls in c.classes()]


def max_point_depth(intervals: Sequence[tuple[Fraction, Fraction]]) -> int:
    """Maximum number of open intervals sharing a common point.

    Equals the clique number of the corresponding interval graph. Closing
    events are processed before opening events at equal coordinates so that
    touching intervals do not count as overlapping."""
    events = []
    for (lo, hi) in intervals:
        events.append((lo, 1, 1))   # open after closes at same coord
        events.append((hi, 0, -1))
    events.sort(key=lambda e: (e[0], e[1]))
    depth = best = 0
    for _, _, delta in events:
        depth += delta
        best = max(best, depth)
    return best


def explains(haplotype: str, genotype: str) -> bool:
    """Whether the haplotype agrees with the genotype at every non-? site."""
    return len(haplotype) == len(genotype) and all(
        g == "?" or h == g for h, g in zip(haplotype, genotype))


def dense_graph_entropy(g: Graph, tol: float = 1e-6):
    """(H, q, p, the number of steps that bisected) of graph_entropy's
    pairwise Frank-Wolfe loop with its line search evaluated over all n
    vertices in numpy, the arithmetic it ran before the line search was
    restricted to the two sets' difference; raises the ConvergenceError
    graph_entropy raises, with the same message, value and gap. Reads
    graphent.MAX_FW_STEPS at the call, so a patched cap holds here too."""
    import numpy as np
    n = g.n
    sets = graphent.enumerate_maximal_independent_sets(g)
    k = len(sets)
    inc = np.zeros((k, n))
    for i, s in enumerate(sets):
        inc[i, [v for v in range(n) if s >> v & 1]] = 1.0
    q = np.full(k, 1.0 / k)
    p = inc.T @ q

    def value(pv):
        return float(-np.log2(pv).sum() / n)

    def line_search(d_p, gamma_max):
        def deriv(gma):
            pv = p + gma * d_p
            if pv.min() <= 0:
                return math.inf
            return -float(np.add.reduce(d_p / pv))

        if deriv(gamma_max) <= 0:
            return gamma_max
        lo, hi = 0.0, gamma_max  # deriv(hi) > 0 throughout
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:  # later halvings move neither end
                break
            if deriv(mid) <= 0:
                lo = mid
            else:
                hi = mid
        return lo

    gap, bisecting = math.inf, 0
    for _ in range(graphent.MAX_FW_STEPS):
        grad = -(inc @ (1.0 / p)) / (n * graphent.LN2)
        fw = int(np.argmin(grad))
        gap = float(grad @ q - grad[fw])
        if gap <= tol or gap <= k * sys.float_info.epsilon * -grad[fw]:
            break
        support = np.where(q > 1e-15)[0]
        away = int(support[np.argmax(grad[support])])
        if away == fw:
            break
        gamma_max = float(q[away])
        gamma = line_search(inc[fw] - inc[away], gamma_max)
        bisecting += gamma < gamma_max
        if gamma <= 0:
            break
        q[fw] += gamma
        q[away] -= gamma
        if q[away] < 1e-15:
            q[away] = 0.0
        p = inc.T @ q
    else:
        raise ConvergenceError("graph entropy solver did not converge", value(p), gap)
    if gap > tol:
        raise ConvergenceError("graph entropy solver stalled", value(p), gap)
    return value(p), tuple(q.tolist()), tuple(p.tolist()), bisecting
