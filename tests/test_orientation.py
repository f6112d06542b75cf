import itertools
import math
import random

import pytest

from minent.core import (BudgetError, FeasibilityError, Graph, ValidationError,
                         entropy_of_counts)
from minent.io import random_graph, random_regular_graph
from oracles import random_connected_graph
from minent.orientation import (Orientation, biased_orientation, estimate_entropy,
                                exact_orientation, local_indegree,
                                orientation_entropy, sample_count)

TRIANGLE = Graph(3, [(0, 1), (0, 2), (1, 2)])


def test_orientation_entropy_triangle():
    o = Orientation(TRIANGLE, [(0, 1), (0, 2), (1, 2)])
    assert o.indegrees == (0, 1, 2)
    assert orientation_entropy(o) == pytest.approx(0.9183, abs=1e-3)


def test_orientation_entropy_star_single_sink():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    o = Orientation(star, [(1, 0), (2, 0), (3, 0)])
    assert orientation_entropy(o) == 0.0


def test_orientation_entropy_matching_is_uniform():
    t = 4
    g = Graph(2 * t, [(2 * i, 2 * i + 1) for i in range(t)])
    o = biased_orientation(g)
    assert orientation_entropy(o) == pytest.approx(math.log2(t), abs=1e-12)


def test_orientation_validation():
    with pytest.raises(FeasibilityError):
        Orientation(TRIANGLE, [(0, 1), (0, 2)])
    with pytest.raises(FeasibilityError):
        Orientation(TRIANGLE, [(0, 1), (0, 2), (0, 2)])
    with pytest.raises(ValidationError, match="graph has no edges to orient"):
        Orientation(Graph(2, []), [])


def test_orientation_accepts_only_the_edge_or_its_reverse():
    g = Graph(3, [(0, 1), (1, 2)])
    for tail, head in itertools.product(range(3), repeat=2):
        direction = [(1, 0), (tail, head)]
        if {tail, head} == {1, 2}:
            assert Orientation(g, direction).indegrees[head] == 1
        else:
            with pytest.raises(FeasibilityError, match=rf"direction \({tail},{head}\) "
                               r"does not match edge \(1,2\)"):
                Orientation(g, direction)


def test_biased_orientation_path():
    path = Graph(3, [(0, 1), (1, 2)])
    o = biased_orientation(path)
    assert o.indegrees == (0, 2, 0)
    assert orientation_entropy(o) == 0.0


def test_biased_orientation_triangle_tie_rule():
    o = biased_orientation(TRIANGLE)  # all ties: toward later vertex
    assert o.indegrees == (0, 1, 2)
    assert orientation_entropy(o) == pytest.approx(0.9183, abs=1e-3)


def test_biased_orientation_is_local():
    # each edge's direction is recomputable from the two endpoint degrees
    # and indices alone
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randrange(3, 10)
        g = random_connected_graph(n, min(n + 2, n * (n - 1) // 2), seed=seed)
        o = biased_orientation(g)
        for (u, v), (tail, head) in zip(g.edges, o.direction):
            du, dv = len(g.adjacency[u]), len(g.adjacency[v])
            if du > dv:
                shadow = u
            elif dv > du:
                shadow = v
            else:
                shadow = max(u, v)
            assert head == shadow


def test_exact_orientation_small_graphs():
    single = Graph(2, [(0, 1)])
    assert orientation_entropy(exact_orientation(single)) == 0.0
    o = exact_orientation(TRIANGLE)
    assert sorted(o.indegrees) == [0, 1, 2]
    assert orientation_entropy(o) == pytest.approx(0.9183, abs=1e-3)
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert orientation_entropy(exact_orientation(c4)) == pytest.approx(1.0, abs=1e-9)


def test_exact_orientation_budget():
    # K_8: 2^28 orientations, above WORK_BUDGET = 10^7
    g = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
    with pytest.raises(BudgetError):
        exact_orientation(g)


def test_exact_orientation_reaches_the_budget():
    # 23 edges, 2^23 <= WORK_BUDGET < 2^24: the largest edge count accepted
    for seed in range(3):
        g = random_connected_graph(9, 23, seed=seed)
        gap = (orientation_entropy(biased_orientation(g))
               - orientation_entropy(exact_orientation(g)))
        assert -1e-9 <= gap <= 1.0 + 1e-9


def test_biased_within_one_bit_of_optimum():
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randrange(3, 8)
        m = rng.randrange(n - 1, min(12, n * (n - 1) // 2) + 1)
        g = random_connected_graph(n, m, seed=seed)
        gap = (orientation_entropy(biased_orientation(g))
               - orientation_entropy(exact_orientation(g)))
        assert -1e-9 <= gap <= 1.0 + 1e-9


def test_sample_count_worked_example():
    assert sample_count(0.5, 0.05, 4) == 473


def test_sample_count_scaling():
    base = sample_count(0.25, 0.1, 5)
    quartered = sample_count(0.5, 0.1, 5)
    # doubling epsilon quarters s, up to ceiling
    assert abs(quartered - base / 4) <= 1
    # delta -> 1 approaches the ln 2 floor
    b = max(5 * math.log2(5), 1.0)
    assert sample_count(0.5, 0.999999, 5) == math.ceil(b * b * math.log(2 / 0.999999) / 0.5)


def test_sample_count_is_positive_and_needs_finite_epsilon():
    assert sample_count(1e300, 0.05, 4) == 1
    for eps in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            sample_count(eps, 0.05, 4)
    g = random_regular_graph(8, 4, seed=3)
    h, s = estimate_entropy(g, 1e300, 0.05)
    assert math.isfinite(h) and s == 1


def test_sample_count_budget():
    # about 4e10 samples at epsilon 1e-4 on a 6-regular graph; 2 eps^2
    # underflows to 0 at 1e-300, an infinite count
    for eps in (1e-4, 1e-300):
        with pytest.raises(BudgetError):
            sample_count(eps, 0.05, 6)


def test_sample_count_degree_guard():
    assert sample_count(1.0, 0.5, 1) == math.ceil(0.5 * math.log(4))
    with pytest.raises(ValidationError):
        sample_count(-1, 0.5, 3)
    with pytest.raises(ValidationError):
        sample_count(0.5, 1.5, 3)


def test_estimator_checks_epsilon_and_delta_on_both_branches():
    for full_sweep in (False, True):
        for eps, delta in [(math.nan, 0.05), (math.inf, 0.05), (0.0, 0.05), (-1.0, 0.05),
                           (0.5, 0.0), (0.5, 1.0), (0.5, math.nan)]:
            with pytest.raises(ValidationError, match=r"need finite epsilon > 0 and delta"):
                estimate_entropy(TRIANGLE, eps, delta, full_sweep=full_sweep)
        # the sweep ignores the count, but an over-budget epsilon is still refused
        with pytest.raises(BudgetError):
            estimate_entropy(TRIANGLE, 1e-4, 0.05, full_sweep=full_sweep)


def test_estimator_requires_m_at_least_n():
    path = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValidationError):
        estimate_entropy(path, 0.5, 0.05)


def test_estimator_full_sweep_matches_biased_entropy():
    for seed in range(10):
        g = random_regular_graph(10, 3, seed=seed)
        h, s = estimate_entropy(g, 0.5, 0.05, full_sweep=True)
        ref = orientation_entropy(biased_orientation(g))
        assert h == pytest.approx(ref, abs=1e-9)
        assert s == g.n


def test_estimator_deterministic_per_seed():
    g = random_regular_graph(10, 3, seed=1)
    h, s = estimate_entropy(g, 0.5, 0.05, seed=42)
    assert estimate_entropy(g, 0.5, 0.05, seed=42) == (h, s)
    h1, s1 = estimate_entropy(g, 0.5, 0.05, seed=42, one_sided=True)
    assert h1 == pytest.approx(h + 0.5, abs=1e-12)
    assert s1 == s == sample_count(0.5, 0.05, g.max_degree())


def test_local_indegree_matches_global():
    g = random_regular_graph(10, 3, seed=2)
    o = biased_orientation(g)
    for v in range(g.n):
        assert local_indegree(g, v) == o.indegrees[v]


def test_estimator_inner_sum_unbiased():
    # E[sum rho(v_i) log rho(v_i)] == (s/n) * sum_v rho(v) log rho(v),
    # checked by averaging over many seeds, tolerance 3 standard errors
    g = random_regular_graph(8, 3, seed=5)
    n, m, s = g.n, g.m, 6
    eps, delta = 2.75, 0.05
    assert sample_count(eps, delta, g.max_degree()) == s
    pop = [local_indegree(g, v) for v in range(n)]
    pop_sum = math.fsum(r * math.log2(r) for r in pop if r)
    seeds = 10_000
    draws = []
    for seed in range(seeds):
        h, _ = estimate_entropy(g, eps, delta, seed=seed)
        draws.append((math.log2(m) - h) * s * m / n)  # recover the inner sum
    mean = math.fsum(draws) / seeds
    var = math.fsum((x - mean) ** 2 for x in draws) / (seeds - 1)
    se = math.sqrt(var / seeds)
    assert abs(mean - (s / n) * pop_sum) <= 3 * se + 1e-12


def _first_optimal_orientation(g):
    """Enumerate every direction vector in lexicographic order (u->v before
    v->u for edge (u, v), u < v) and return the first whose entropy is within
    1e-12 of the minimum."""
    scored = []
    for bits in itertools.product((0, 1), repeat=g.m):
        indeg = [0] * g.n
        for (u, v), b in zip(g.edges, bits):
            indeg[u if b else v] += 1
        scored.append((entropy_of_counts(indeg), bits))
    h_min = min(h for h, _ in scored)
    bits = next(b for h, b in scored if h <= h_min + 1e-12)
    return tuple((v, u) if b else (u, v) for (u, v), b in zip(g.edges, bits))


def _tied_graphs():
    """Graphs with many optimal orientations: disjoint equal cliques, cycles,
    matchings and stars."""
    def cliques(count, size):
        return Graph(count * size, [(c * size + a, c * size + b) for c in range(count)
                                    for a in range(size) for b in range(a + 1, size)])
    yield from (cliques(count, size) for count, size in
                [(1, 2), (1, 3), (2, 3), (3, 3), (4, 3), (1, 4), (2, 4), (1, 5)])
    yield from (Graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 15))
    yield from (Graph(2 * t, [(2 * i, 2 * i + 1) for i in range(t)]) for t in range(1, 8))
    yield from (Graph(n, [(0, i) for i in range(1, n)]) for n in range(2, 9))


def test_exact_orientation_matches_enumeration_tie_for_tie():
    graphs = list(_tied_graphs())
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randrange(2, 9)
        graphs.append(random_graph(n, rng.randrange(1, min(14, n * (n - 1) // 2) + 1),
                                   seed=seed))
    for g in graphs:
        o = exact_orientation(g)
        assert o.direction == _first_optimal_orientation(g), g.edges
        assert o == Orientation(g, o.direction)


def _reference_head(g, u, v):
    """Head of edge uv as the per-edge loop computed it: the strictly
    higher-degree endpoint, a tie to the higher-numbered one."""
    du, dv = len(g.adjacency[u]), len(g.adjacency[v])
    if du != dv:
        return u if du > dv else v
    return max(u, v)


def _reference_estimate(g, epsilon, delta, seed=0, one_sided=False, full_sweep=False):
    """(H, s) as estimate_entropy returns them, s the number of samples."""
    n, m = g.n, g.m
    if full_sweep:
        samples = list(range(n))
    else:
        s = sample_count(epsilon, delta, g.max_degree())
        rng = random.Random(seed)
        samples = [rng.randrange(n) for _ in range(s)]
    rhos = [sum(1 for w in g.adjacency[v] if _reference_head(g, v, w) == v)
            for v in samples]
    acc = math.fsum(r * math.log2(r) for r in rhos if r)
    h = math.log2(m) - (n / (len(samples) * m)) * acc
    return (h + epsilon if one_sided else h), len(samples)


def _degree_tied_graphs():
    """Regular graphs, cliques, cycles, stars, complete bipartite graphs and
    a few random ones: most edges join endpoints of equal degree."""
    for seed, (n, d) in enumerate([(6, 3), (10, 3), (12, 4), (20, 6), (16, 5), (9, 2), (30, 3)]):
        yield random_regular_graph(n, d, seed=seed)
    for k in range(2, 8):
        yield Graph(k, list(itertools.combinations(range(k), 2)))
    for n in range(3, 12):
        yield Graph(n, [(i, (i + 1) % n) for i in range(n)])
    for n in range(2, 9):
        yield Graph(n, [(n // 2, i) for i in range(n) if i != n // 2])
    for a, b in [(2, 2), (2, 3), (3, 3), (3, 5)]:
        yield Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])
    for seed in range(20):
        yield random_graph(10, 15, seed=seed)


def test_biased_orientation_matches_edge_head_loop_tie_for_tie():
    for g in _degree_tied_graphs():
        want = []
        for (u, v) in g.edges:
            head = _reference_head(g, u, v)
            want.append((v if head == u else u, head))
        o = biased_orientation(g)
        assert o.direction == tuple(want), g.edges
        assert o == Orientation(g, want)
        assert [local_indegree(g, v) for v in range(g.n)] == list(o.indegrees)


def _epsilon_for(s, g, delta=0.05):
    """An epsilon whose Hoeffding sample count on g is s - 1/2 before it is
    rounded up to s."""
    d = g.max_degree()
    eps = max(d * math.log2(d), 1.0) * math.sqrt(math.log(2 / delta) / (2 * s - 1))
    assert sample_count(eps, delta, d) == s
    return eps


def test_estimator_matches_edge_head_loop_tie_for_tie():
    for g in _degree_tied_graphs():
        if g.m < g.n:
            continue
        for seed, eps in enumerate([2.0, 0.5, _epsilon_for(7, g), _epsilon_for(1, g)]):
            for kw in ({}, {"one_sided": True}, {"full_sweep": True}):
                assert (estimate_entropy(g, eps, 0.05, seed, **kw)
                        == _reference_estimate(g, eps, 0.05, seed, **kw)), g.edges


@pytest.mark.parametrize("n", [31, 32, 33, 63, 64, 65, 127, 128, 129])
def test_estimator_draws_the_randrange_stream(n):
    """The estimator's draws are `randrange(n)`'s: at and around powers of
    two, where the rejection rule's bit count changes, and at up to 1,800
    samples. Degrees spread from about 1 to 10, so a stream that differed
    in any draw would change the fsum of rho log2 rho."""
    g = random_graph(n, 3 * n, seed=n)
    for seed in range(3):
        for s in (1, 2, 111, 600, 1_800):
            eps = _epsilon_for(s, g)
            assert (estimate_entropy(g, eps, 0.05, seed)
                    == _reference_estimate(g, eps, 0.05, seed)), (seed, s)
