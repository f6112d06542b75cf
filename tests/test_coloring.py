import math
import random
from fractions import Fraction

import pytest

from minent.coloring import (LOG2_E, Coloring, approx_mis, coloring_entropy,
                             exact_coloring, exact_mis, gen_jk,
                             greedy_coloring, interval_mec, jk_rows)
from minent.core import (BudgetError, FeasibilityError, Graph, IntervalSet,
                         counts_to_distribution, dominates, interval_graph,
                         max_point_depth)
from minent.io import random_bipartite_graph, random_intervals

P3 = Graph(3, [(0, 1), (1, 2)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K3 = Graph(3, [(0, 1), (0, 2), (1, 2)])


def all_proper_partitions(g):
    """Sorted class-count tuples of every proper coloring (canonical search)."""
    adj = g.adjacency_masks()
    masks, counts, out = [], [], []

    def rec(v):
        if v == g.n:
            out.append(tuple(sorted(counts, reverse=True)))
            return
        for i in range(len(masks)):
            if not masks[i] & adj[v]:
                masks[i] |= 1 << v
                counts[i] += 1
                rec(v + 1)
                masks[i] &= ~(1 << v)
                counts[i] -= 1
        masks.append(1 << v)
        counts.append(1)
        rec(v + 1)
        masks.pop()
        counts.pop()

    rec(0)
    return out


def test_coloring_entropy_p3():
    c = Coloring([1, 2, 1])
    assert coloring_entropy(P3, c) == pytest.approx(0.9183, abs=1e-3)


def test_coloring_entropy_rainbow():
    g = Graph(5, [])
    assert coloring_entropy(g, Coloring([1, 2, 3, 4, 5])) == pytest.approx(
        math.log2(5), abs=1e-12)


def test_coloring_entropy_weighted_k2():
    g = Graph(2, [(0, 1)], weights=[0.9, 0.1])
    assert coloring_entropy(g, Coloring([1, 2])) == pytest.approx(0.469, abs=1e-3)


def test_coloring_entropy_rejects_improper():
    with pytest.raises(FeasibilityError):
        coloring_entropy(P3, Coloring([1, 1, 1]))


def test_coloring_canonical():
    c = Coloring([3, 7, 3, 1]).canonical()
    assert c.colors == (1, 2, 1, 3)
    assert c.classes() == [[0, 2], [1], [3]]


def test_exact_mis():
    assert exact_mis(P3) == (0, 2)
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert exact_mis(k4) == (0,)
    assert exact_mis(C5) == (0, 2)


def test_exact_mis_weighted():
    assert exact_mis(P3, weights=[0.1, 0.8, 0.1]) == (1,)


def test_exact_mis_budget():
    with pytest.raises(BudgetError):
        exact_mis(Graph(41, []))


def test_approx_mis():
    assert approx_mis(P3) == (0, 2)
    assert approx_mis(Graph(4, [])) == (0, 1, 2, 3)
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert len(approx_mis(k4)) == 1


def test_approx_mis_ratio_bound():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randrange(2, 11)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        from minent.io import random_graph
        g = random_graph(n, m, seed=seed)
        ratio_cap = max(1.0, (g.max_degree() + 2) / 3)
        assert len(exact_mis(g)) <= ratio_cap * len(approx_mis(g)) + 1e-9


def _min_degree_greedy(g):
    """The min-degree greedy recounting every live vertex's residual degree
    for each pick, ties to the smallest index."""
    alive = set(range(g.n))
    chosen = []
    while alive:
        v = min(alive, key=lambda u: (sum(1 for x in g.neighbors(u) if x in alive), u))
        chosen.append(v)
        alive.discard(v)
        alive -= set(g.neighbors(v))
    return tuple(sorted(chosen))


def _tied_graphs():
    """Graphs with many equal residual degrees: the empty graph, edgeless
    graphs, cycles, disjoint equal cliques, stars and 6-regular circulants
    (v joined to v +- 1, 2, 3) in seeded vertex orders."""
    yield Graph(0, [])
    for n in (1, 5):
        yield Graph(n, [])
    for n in range(3, 25):
        yield Graph(n, [(v, (v + 1) % n) for v in range(n)])
    for count, size in [(2, 2), (2, 3), (3, 3), (4, 2), (3, 4), (2, 5), (5, 3)]:
        yield Graph(count * size, [(b * size + u, b * size + v) for b in range(count)
                                   for u in range(size) for v in range(u + 1, size)])
    for n in range(2, 12):
        yield Graph(n, [(0, v) for v in range(1, n)])
        yield Graph(n, [(v, n - 1) for v in range(n - 1)])
    for n in (7, 8, 10, 13, 20, 41, 64):
        for seed in range(3):
            label = list(range(n))
            random.Random(seed).shuffle(label)
            yield Graph(n, [(label[v], label[(v + d) % n]) for v in range(n) for d in (1, 2, 3)])


def test_approx_mis_matches_recounting_greedy_tie_for_tie():
    from minent.io import random_graph
    graphs = list(_tied_graphs())
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randrange(1, 31)
        graphs.append(random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), seed=seed))
    for g in graphs:
        assert approx_mis(g) == _min_degree_greedy(g), g.edges


def test_greedy_coloring_p3_is_optimal():
    c = greedy_coloring(P3)
    assert coloring_entropy(P3, c) == pytest.approx(0.9183, abs=1e-3)
    assert c.canonical().classes() == [[0, 2], [1]]


def test_greedy_coloring_edgeless():
    g = Graph(4, [])
    assert coloring_entropy(g, greedy_coloring(g)) == 0.0


def test_greedy_exact_within_log2e_on_bipartite():
    for seed in range(40):
        rng = random.Random(seed)
        g = random_bipartite_graph(rng.randrange(2, 11), seed=seed)
        gap = (coloring_entropy(g, greedy_coloring(g))
               - coloring_entropy(g, exact_coloring(g)))
        assert -1e-9 <= gap <= LOG2_E + 1e-9


def test_greedy_approx_bound():
    for seed in range(30):
        rng = random.Random(100 + seed)
        from minent.io import random_graph
        n = rng.randrange(2, 11)
        g = random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), seed=seed)
        beta = (g.max_degree() + 2) / 3
        gap = (coloring_entropy(g, greedy_coloring(g, oracle="approx"))
               - coloring_entropy(g, exact_coloring(g)))
        assert -1e-9 <= gap <= math.log2(beta) + LOG2_E + 1e-9


def test_exact_coloring_small():
    assert coloring_entropy(P3, exact_coloring(P3)) == pytest.approx(0.9183, abs=1e-3)
    assert coloring_entropy(K3, exact_coloring(K3)) == pytest.approx(
        math.log2(3), abs=1e-12)
    c5 = exact_coloring(C5)
    assert sorted(c5.class_counts(), reverse=True) == [2, 2, 1]
    assert coloring_entropy(C5, c5) == pytest.approx(1.522, abs=1e-3)


def test_exact_coloring_matches_partition_enumeration():
    from minent.core import entropy_of_counts
    for seed in range(25):
        rng = random.Random(seed)
        from minent.io import random_graph
        n = rng.randrange(1, 8)
        g = random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), seed=seed)
        got = coloring_entropy(g, exact_coloring(g))
        best = min(entropy_of_counts(p) for p in all_proper_partitions(g))
        assert got == pytest.approx(best, abs=1e-12)


def test_exact_coloring_budget():
    with pytest.raises(BudgetError):
        exact_coloring(Graph(13, []))


def test_gen_jk():
    assert gen_jk(1).intervals == ((Fraction(0), Fraction(1)),)
    j5 = gen_jk(5)
    assert len(j5) == 15
    rows = jk_rows(5)
    assert [len(r) for r in rows] == [1, 2, 3, 4, 5]
    g = interval_graph(j5)
    for row in rows:
        assert g.is_independent_set(row)


def test_jk_row_intervals_match_definition():
    j3 = gen_jk(3)
    assert j3.intervals[1] == (Fraction(0), Fraction(1, 2))
    assert j3.intervals[2] == (Fraction(1, 2), Fraction(1))
    assert j3.intervals[5] == (Fraction(2, 3), Fraction(1))


def test_j3_rowwise_distribution_dominates_all_colorings():
    g = interval_graph(gen_jk(3))
    rowwise = counts_to_distribution([3, 2, 1])
    for counts in set(all_proper_partitions(g)):
        assert dominates(rowwise, counts_to_distribution(counts))


def test_jk_exact_coloring_is_rowwise():
    for k in range(1, 5):
        g = interval_graph(gen_jk(k))
        c = exact_coloring(g)
        assert sorted(c.class_counts(), reverse=True) == list(range(k, 0, -1))
        for row in jk_rows(k):
            assert len({c.colors[v] for v in row}) == 1


def test_interval_mec_worked_example():
    iv = IntervalSet([(0, 2), (1, 3), (2, 4)])
    col, layers = interval_mec(iv)
    assert layers.layers == ((0, 2), (1,))
    assert layers.lower_bound_H == pytest.approx(0.9183, abs=1e-3)
    g = interval_graph(iv)
    assert coloring_entropy(g, col) == pytest.approx(0.9183, abs=1e-3)


def test_interval_mec_disjoint_intervals():
    iv = IntervalSet([(i, i + Fraction(1, 2)) for i in range(5)])
    col, layers = interval_mec(iv)
    assert len(layers.layers) == 1
    assert coloring_entropy(interval_graph(iv), col) == 0.0


def _max_i_colorable_sizes(iv, n):
    """Brute force: for each i, the largest subset whose interval graph has
    clique number (max point depth) at most i."""
    best = [0] * (n + 1)
    ivs = iv.intervals
    for mask in range(1 << n):
        subset = [ivs[v] for v in range(n) if mask >> v & 1]
        d = max_point_depth(subset)
        size = len(subset)
        for i in range(d, n + 1):
            if size > best[i]:
                best[i] = size
    return best


def test_interval_mec_properties_random():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randrange(2, 11)
        iv = random_intervals(n, seed=seed)
        g = interval_graph(iv)
        col, layers = interval_mec(iv)
        alg = coloring_entropy(g, col)
        opt = coloring_entropy(g, exact_coloring(g))
        hp = layers.lower_bound_H
        # Thm bound chain
        assert hp <= opt + 1e-9
        assert opt <= alg + 1e-9
        assert alg <= hp + 1.0 + 1e-9
        # layer prefix maximality
        best = _max_i_colorable_sizes(iv, n)
        acc = 0
        for i, layer in enumerate(layers.layers, start=1):
            acc += len(layer)
            assert acc == best[i]
        # layer bipartiteness: each layer uses at most 2 colors
        for layer in layers.layers:
            assert len({col.colors[v] for v in layer}) <= 2
        # layer distribution dominates every proper coloring's distribution
        if n <= 9:
            layer_dist = counts_to_distribution(
                sorted((len(s) for s in layers.layers), reverse=True))
            for counts in set(all_proper_partitions(g)):
                assert dominates(layer_dist, counts_to_distribution(counts))
