"""Graph entropy over the stable set polytope, the perfect-graph entropy
splitting identity, and the greedy-coloring-vs-entropy comparison."""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .core import WORK_BUDGET, BudgetError, ConvergenceError, Graph, ValidationError
from .coloring import coloring_entropy, exact_coloring, greedy_coloring

LN2 = math.log(2.0)
MIS_LIMIT = 10 ** 5  # most maximal independent sets graph_entropy enumerates
MAX_FW_STEPS = 200_000  # Frank-Wolfe steps before ConvergenceError


@dataclass(frozen=True)
class EntropyWitness:
    """Convex combination q over maximal independent sets and its per-vertex
    marginals p, a point of the stable set polytope; graph_entropy's H is
    -(1/n) sum log2 p_v in bits."""

    sets: tuple[tuple[int, ...], ...]
    q: tuple[float, ...]
    p: tuple[float, ...]


def _bits(mask: int):
    """The indices of mask's set bits, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def enumerate_maximal_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """All maximal independent sets (Bron-Kerbosch with pivoting on the
    non-adjacency relation), in canonical sorted order. More than MIS_LIMIT
    sets, or sets times n above WORK_BUDGET incidence cells, raise
    BudgetError as the first set past the cap is found, before any is
    decoded."""
    n = g.n
    if n == 0:
        return []
    cap = min(MIS_LIMIT, WORK_BUDGET // n)
    adj = g.adjacency_masks()
    # maximal independent sets of G = maximal cliques of the complement
    full = (1 << n) - 1
    co_adj = [full & ~adj[v] & ~(1 << v) for v in range(n)]
    out: list[int] = []
    # An explicit stack of (r, p, x) calls, so depth is not bounded by
    # Python's recursion limit; the output is sorted, so visit order is free.
    stack = [(0, full, 0)]
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            out.append(r)
            if len(out) > cap:
                if cap == MIS_LIMIT:
                    raise BudgetError(f"more than {MIS_LIMIT} maximal independent sets")
                raise BudgetError(f"more than {cap} maximal independent sets on {n} vertices, "
                                  f"above the budget {WORK_BUDGET} incidence cells")
            continue
        # pivot: vertex of p|x maximizing coverage of p (the lowest on ties)
        pivot, best = 0, -1
        for v in _bits(p | x):
            cover = (p & co_adj[v]).bit_count()
            if cover > best:
                pivot, best = v, cover
        for v in _bits(p & ~co_adj[pivot]):
            bit = 1 << v
            stack.append((r | bit, p & co_adj[v], x & co_adj[v]))
            p &= ~bit
            x |= bit

    # through a list: tuples built straight from the generator held about
    # 0.8 MB more peak RSS for 5,654 sets
    sets = sorted(tuple(list(_bits(mask))) for mask in out)
    return sets


def _pairwise_sum(terms: list[tuple[int, float, float]], lo: int, hi: int,
                  gma: float) -> float:
    """Sum of a[lo:hi] for the array a that holds s/(x + s*gma) at index v for
    each (v, x, s) in `terms` (sorted by v, lo <= v < hi) and 0.0 elsewhere,
    added in numpy's float64 pairwise order: below 8 entries one by one; up
    to 128 in 8 accumulators over v - lo mod 8, then the last (hi - lo) mod 8
    entries one by one; above that, as two halves split at a multiple of 8.
    Adding 0.0 changes no partial sum, so this equals a.sum() bit for bit
    at the cost of the terms alone."""
    n = hi - lo
    if n > 128:
        mid = lo + n // 2 - n // 2 % 8
        cut = bisect.bisect_left(terms, (mid,))
        return (_pairwise_sum(terms[:cut], lo, mid, gma)
                + _pairwise_sum(terms[cut:], mid, hi, gma))
    acc, rest = [0.0] * 8, []
    tail = hi - n % 8 if n >= 8 else lo  # entries from here on: one by one
    for v, x, s in terms:
        if v < tail:
            acc[(v - lo) % 8] += s / (x + s * gma)
        else:
            rest.append(s / (x + s * gma))
    res = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for t in rest:
        res += t
    return res


def _line_search(terms: list[tuple[int, float, float]], n: int, gamma_max: float) -> float:
    """The step g in [0, gamma_max] minimizing f(p + g*d_p) for the direction
    d_p that is s at vertex v for each (v, p_v, s) in `terms` and 0 at the
    other n - len(terms) vertices. f is convex, so this bisects on its
    derivative, -(1/(n ln 2)) sum d_p/(p + g*d_p), summed as numpy sums it
    over all n vertices, so the steps match a dense evaluation bit for bit."""
    floor = min(x for _, x, s in terms if s < 0)

    def deriv(gma: float) -> float:
        if floor - gma <= 0:
            return math.inf
        return -_pairwise_sum(terms, 0, n, gma)

    if deriv(gamma_max) <= 0:
        return gamma_max
    lo, hi = 0.0, gamma_max  # deriv(hi) > 0 throughout
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats: no halving moves them
            break
        if deriv(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


def graph_entropy(g: Graph, tol: float = 1e-6) -> tuple[float, EntropyWitness]:
    """H(G) = min over p in STAB(G) of -(1/n) sum_v log2 p_v, solved by
    pairwise Frank-Wolfe over the simplex of maximal independent sets with a
    line search that bisects the step to float precision; stops when the
    conditional-gradient duality gap drops below tol (bits). A step over k
    sets costs the two dense products inc @ (1/p) and inc.T @ q, a few O(k)
    in-place passes into buffers allocated once per solve, and line-search
    terms built in O(|S Δ S'|) from the two swapped sets' bitmasks."""
    import numpy as np  # here: at module level every minent command would load it
    if not 0 < tol < math.inf:
        raise ValidationError("tol must be positive and finite")
    n = g.n
    if n == 0:
        raise ValidationError("empty graph")
    sets = enumerate_maximal_independent_sets(g)
    k = len(sets)
    inc = np.zeros((k, n))
    inc[np.repeat(np.arange(k), [len(s) for s in sets]),
        np.fromiter(itertools.chain.from_iterable(sets), dtype=np.intp)] = 1.0
    masks: list[int] = []  # the rows of inc as bitmasks, built at the first line search

    q = np.full(k, 1.0 / k)
    p = inc.T @ q  # every vertex is in some maximal IS, so p > 0
    # 0 on the support q > 1e-15 and -inf off it: argmax(grad + off) is the
    # support's first maximum of grad
    off = np.zeros(k)
    # each step writes into these, allocated once
    inv_p, grad, shifted = np.empty(n), np.empty(k), np.empty(k)

    def value(pv: np.ndarray) -> float:
        return float(-np.log2(pv).sum() / n)

    gap = math.inf
    for _ in range(MAX_FW_STEPS):
        np.divide(1.0, p, out=inv_p)
        np.matmul(inc, inv_p, out=grad)
        np.divide(grad, -(n * LN2), out=grad)  # d value / d q_S, in bits
        fw = int(grad.argmin())
        grad_fw = grad.item(fw)
        gap = float(grad.dot(q)) - grad_fw
        # grad @ q sums k terms of magnitude at most |grad[fw]| (every entry
        # is negative), so a gap below k·eps·|grad[fw]| is rounding: stalled
        if gap <= tol or gap <= k * sys.float_info.epsilon * -grad_fw:
            break
        np.add(grad, off, out=shifted)
        away = int(shifted.argmax())
        if away == fw:
            break
        if not masks:  # a solve that stops at its first gap test never reads them
            masks = [sum(1 << v for v in s) for s in sets]
        # d_p = inc[fw] - inc[away] is +1 on fw ∖ away, -1 on away ∖ fw and
        # 0 elsewhere; both parts are nonempty, since distinct maximal
        # independent sets are incomparable. The set bits of the masks' xor,
        # lowest first, are those vertices in order, so no sort is needed.
        pl, fw_mask = p.tolist(), masks[fw]
        terms = [(v, pl[v], 1.0 if fw_mask >> v & 1 else -1.0)
                 for v in _bits(fw_mask ^ masks[away])]
        q_away = q.item(away)
        gamma = _line_search(terms, n, q_away)
        if gamma <= 0:
            break
        q_fw, q_away = q.item(fw) + gamma, q_away - gamma
        if q_away < 1e-15:
            q_away = 0.0
        q[fw], q[away] = q_fw, q_away
        off[fw] = 0.0 if q_fw > 1e-15 else -math.inf
        off[away] = 0.0 if q_away > 1e-15 else -math.inf
        np.matmul(inc.T, q, out=p)
    else:
        raise ConvergenceError("graph entropy solver did not converge",
                               value(p), gap)
    if gap > tol:
        raise ConvergenceError("graph entropy solver stalled", value(p), gap)
    witness = EntropyWitness(tuple(sets), tuple(float(x) for x in q),
                             tuple(float(x) for x in p))
    return value(p), witness


def splitting_gap(g: Graph, tol: float = 1e-6) -> float:
    """H(G) + H(complement of G) - log2 n; zero (within solver tolerance)
    exactly on perfect graphs. The true gap is never negative, and each
    Frank-Wolfe value is an upper bound on its entropy within tol, so a
    result of at most 2*tol (the CLI's `splits_entropy`) certifies a true
    gap of at most 2*tol. Every perfect graph passes; a graph shows perfect
    only when 2*tol is below its gap (C5, gap 0.32 bits, passes at tol 1)."""
    co = g.complement()  # a complement over budget is refused before either solve
    h1, _ = graph_entropy(g, tol)
    h2, _ = graph_entropy(co, tol)
    return h1 + h2 - math.log2(g.n)


@dataclass(frozen=True)
class GreedyEntropyReport:
    g_bits: float
    H_bits: float
    bound_rhs: float
    bound_holds: bool
    chromatic_entropy: Optional[float]
    chain_ok: Optional[bool]


def greedy_vs_entropy(g: Graph, constant: float = 4.0, tol: float = 1e-6) -> GreedyEntropyReport:
    """Compare the greedy-coloring entropy g against the graph entropy H and
    the bound g <= H + log2(H + 1) + constant; when exact_coloring does not
    refuse the graph as too large, also check the relaxation chain
    H <= chromatic entropy <= g. All three are taken under the uniform
    distribution, the one graph_entropy uses: vertex weights are ignored."""
    if not math.isfinite(constant):
        raise ValidationError("constant must be finite")
    if g.weights is not None:
        g = Graph(g.n, g.edges)
    greedy = greedy_coloring(g, oracle="exact")
    g_bits = coloring_entropy(g, greedy)
    h_bits, _ = graph_entropy(g, tol)
    rhs = h_bits + math.log2(h_bits + 1.0) + constant
    try:
        exact = exact_coloring(g)
    except BudgetError:  # refused before any search: the chain goes unchecked
        chrom = chain = None
    else:
        chrom = coloring_entropy(g, exact)
        chain = (h_bits <= chrom + tol) and (chrom <= g_bits + 1e-9)
    return GreedyEntropyReport(g_bits, h_bits, rhs, g_bits <= rhs + 1e-9,
                               chrom, chain)
