import json
import math
import random
import sys

import pytest

from minent import graphent
from minent.coloring import coloring_entropy, exact_coloring, gen_jk, greedy_coloring
from minent.cli import main
from minent.core import BudgetError, Graph, ValidationError, entropy_of_counts, interval_graph
from minent.graphent import (ConvergenceError, enumerate_maximal_independent_sets,
                             graph_entropy, greedy_vs_entropy, splitting_gap)
from minent.io import random_graph, random_intervals
from oracles import dense_graph_entropy, random_bipartite_graph

C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
C5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def matching(pairs):
    return Graph(2 * pairs, [(2 * i, 2 * i + 1) for i in range(pairs)])


def complete_multipartite(sizes, seed):
    """The complete multipartite graph with parts of the given sizes over
    shuffled labels, and its parts, its maximal independent sets, as sorted
    tuples in sorted order."""
    labels = list(range(sum(sizes)))
    random.Random(seed).shuffle(labels)
    parts = [tuple(sorted(labels[sum(sizes[:i]):sum(sizes[:i + 1])])) for i in range(len(sizes))]
    part_of = {v: i for i, part in enumerate(parts) for v in part}
    n = len(labels)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if part_of[u] != part_of[v]]), sorted(parts)


def mis_tuples(g):
    """enumerate_maximal_independent_sets's masks decoded, in its order."""
    return [tuple(v for v in range(g.n) if s >> v & 1)
            for s in enumerate_maximal_independent_sets(g)]


def test_enumerate_mis():
    assert enumerate_maximal_independent_sets(complete(3)) == [0b001, 0b010, 0b100]
    assert enumerate_maximal_independent_sets(Graph(3, [(0, 1), (1, 2)])) == [0b101, 0b010]
    assert mis_tuples(Graph(3, [(0, 1), (1, 2)])) == [(0, 2), (1,)]
    c5_sets = mis_tuples(C5)
    assert len(c5_sets) == 5
    assert all(len(s) == 2 for s in c5_sets)


def test_enumerate_mis_depth_is_not_bounded_by_recursion_limit():
    # With one edge, Bron-Kerbosch goes one level deeper per vertex; a
    # recursion limit below n fails any search that recurses per level.
    n = 400
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        sets = mis_tuples(Graph(n, [(0, 1)]))
    finally:
        sys.setrecursionlimit(old)
    assert sets == [(0,) + tuple(range(2, n)), tuple(range(1, n))]


def test_enumerate_mis_budget(monkeypatch):
    monkeypatch.setattr(graphent, "MIS_LIMIT", 3)
    with pytest.raises(BudgetError):
        enumerate_maximal_independent_sets(complete(8))
    # refused past the same count: a perfect matching on 12 vertices has
    # 2^6 = 64 maximal independent sets
    monkeypatch.setattr(graphent, "MIS_LIMIT", 64)
    assert len(enumerate_maximal_independent_sets(matching(6))) == 64
    monkeypatch.setattr(graphent, "MIS_LIMIT", 63)
    with pytest.raises(BudgetError, match="more than 63 maximal independent sets"):
        enumerate_maximal_independent_sets(matching(6))


def test_enumerate_mis_refuses_sets_times_n_past_the_work_budget(monkeypatch):
    # the 64 maximal independent sets of a perfect matching on 12 vertices
    # fill 768 incidence cells
    monkeypatch.setattr(graphent, "WORK_BUDGET", 768)
    assert len(enumerate_maximal_independent_sets(matching(6))) == 64
    monkeypatch.setattr(graphent, "WORK_BUDGET", 767)
    with pytest.raises(BudgetError, match=r"^more than 63 maximal independent sets on 12 "
                       r"vertices, above the budget 767 incidence cells$"):
        enumerate_maximal_independent_sets(matching(6))


def _brute_force_mis(g):
    """Every maximal independent set, by testing all 2^n vertex subsets."""
    adj = g.adjacency_masks()
    out = []
    for mask in range(1 << g.n):
        members = [v for v in range(g.n) if mask >> v & 1]
        if any(adj[v] & mask for v in members):
            continue
        if all(adj[v] & mask for v in range(g.n) if not mask >> v & 1):
            out.append(tuple(members))
    return sorted(out)


def test_enumerate_mis_matches_brute_force():
    graphs = [Graph(n, []) for n in (1, 5, 12)] + [complete(n) for n in (1, 2, 7, 12)]
    graphs += [matching(pairs) for pairs in (1, 3, 6)]
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randrange(1, 13)
        graphs.append(random_graph(n, rng.randrange(n * (n - 1) // 2 + 1), seed=seed))
    for g in graphs:
        assert mis_tuples(g) == _brute_force_mis(g)


def test_enumerate_mis_order_with_masks_wider_than_a_word():
    # sorted vertex tuples are the masks' binary strings read from bit 0,
    # descending; past 64 vertices a mask spans several machine words
    assert mis_tuples(Graph(1, [])) == [(0,)]
    for seed in range(20):
        rng = random.Random(seed)
        sizes = [rng.randrange(1, 40)]
        while sum(sizes) < 65:
            sizes.append(rng.randrange(1, 40))
        g, parts = complete_multipartite(sizes, seed)
        assert mis_tuples(g) == parts, sizes
    for seed in range(3):
        g = random_graph(70, 2000, seed=seed)
        sets = mis_tuples(g)
        assert len(sets) > 100 and sets == sorted(sets)


# The path 0-1-2: its uniform start over the maximal sets {0, 2} and {1} is
# not optimal, so one Frank-Wolfe step cannot close the gap. (C5's uniform
# start is already optimal.)
P3 = Graph(3, [(0, 1), (1, 2)])


def test_graph_entropy_step_cap_raises_with_value_and_gap(monkeypatch):
    monkeypatch.setattr(graphent, "MAX_FW_STEPS", 1)
    with pytest.raises(ConvergenceError, match="graph entropy solver did not converge") as err:
        graph_entropy(P3, tol=1e-6)
    assert math.isfinite(err.value.value)
    assert err.value.gap > 1e-6


def test_cli_graphent_step_cap_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(graphent, "MAX_FW_STEPS", 1)
    f = tmp_path / "p3.g"
    f.write_text("graph 3 2\n0 1\n1 2\n")
    assert main(["graphent", "compute", "--input", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: graph entropy solver did not converge")
    assert "Traceback" not in err


def test_graph_entropy_stall_raises_with_value_and_gap():
    # the line search finds no improving step while the gap is 2.2e-16, long
    # before the step cap
    g = random_graph(4, 4, seed=0)
    assert g.edges == ((1, 2), (2, 3), (0, 1), (0, 2))
    with pytest.raises(ConvergenceError, match="graph entropy solver stalled") as err:
        graph_entropy(g, tol=1e-300)
    assert math.isfinite(err.value.value)
    assert err.value.gap > 1e-300


def test_graph_entropy_stalls_at_the_gap_rounding_floor(monkeypatch):
    # the gap stops falling at about 2e-15, under its rounding floor
    # k·eps·|grad[fw]|; without the floor this ran all 200,000 steps (178 s)
    monkeypatch.setattr(graphent, "MAX_FW_STEPS", 2000)
    with pytest.raises(ConvergenceError, match="graph entropy solver stalled"):
        graph_entropy(random_graph(9, 12, seed=2), tol=1e-300)


def test_cli_graphent_stall_exits_2(tmp_path, capsys):
    f = tmp_path / "g.g"
    f.write_text("graph 4 4\n1 2\n2 3\n0 1\n0 2\n")
    assert main(["graphent", "compute", "--tol", "1e-300", "--input", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: graph entropy solver stalled")
    assert "Traceback" not in err


def test_graph_entropy_matches_the_dense_line_search(monkeypatch):
    """graph_entropy gives the dense evaluation's H, q and p bit for bit, or
    its ConvergenceError message, value and gap. The first graphs run to
    convergence; the second cases run under a 150-step cap, which keeps the
    odd cycles and larger graphs fast: about half of them reach it, and the
    two tol=1e-300 cases stall before it."""
    uncapped = [(random_graph(n, 3 * n // 2, seed=seed), 1e-6)
                 for n in range(8, 25) for seed in range(3)]
    uncapped += [(Graph(n, [(i, (i + 1) % n) for i in range(n)]), 1e-6) for n in range(5, 13)]
    capped = [(random_graph(n, 3 * n // 2), 1e-6) for n in range(5, 25)]
    capped += [(Graph(n, [(i, (i + 1) % n) for i in range(n)]), 1e-6) for n in range(5, 31)]
    capped += [(random_graph(n, 3 * n // 2).complement(), 1e-6) for n in (8, 12, 16, 20)]
    capped += [(random_graph(4, 4, seed=0), 1e-300), (random_graph(9, 12, seed=2), 1e-300)]
    bisecting, ends = 0, set()
    for cap, cases in ((graphent.MAX_FW_STEPS, uncapped), (150, capped)):
        monkeypatch.setattr(graphent, "MAX_FW_STEPS", cap)
        for g, tol in cases:
            try:
                h, w = graph_entropy(g, tol)
            except ConvergenceError as exc:
                with pytest.raises(ConvergenceError) as ref:
                    dense_graph_entropy(g, tol)
                assert (str(exc), exc.value, exc.gap) == \
                    (str(ref.value), ref.value.value, ref.value.gap)
                ends.add(str(exc))
                continue
            h_ref, q_ref, p_ref, steps = dense_graph_entropy(g, tol)
            assert (h, w.q, w.p) == (h_ref, q_ref, p_ref)
            bisecting += steps
            ends.add("converged")
    assert bisecting > 0
    assert sorted(ends) == ["converged", "graph entropy solver did not converge",
                            "graph entropy solver stalled"]


def test_pairwise_sum_adds_as_numpy_sums():
    import numpy as np
    rng = random.Random(5)
    for n in list(range(1, 40)) + [127, 128, 129, 136, 300, 1000, 5000]:
        for _ in range(3):
            vs = sorted(rng.sample(range(n), rng.randint(1, min(n, 12))))
            terms = [(v, rng.uniform(1e-3, 1.0), rng.choice((1.0, -1.0))) for v in vs]
            gma = rng.uniform(0.0, 1e-3)
            d_p, p = np.zeros(n), np.ones(n)
            for v, x, s in terms:
                d_p[v], p[v] = s, x
            assert graphent._pairwise_sum(terms, 0, n, gma) == float((d_p / (p + gma * d_p)).sum())


def test_graph_entropy_complete():
    for n in (2, 5, 9):
        h, w = graph_entropy(complete(n))
        assert h == pytest.approx(math.log2(n), abs=1e-6)
        assert all(p == pytest.approx(1 / n, abs=1e-5) for p in w.p)


def test_graph_entropy_edgeless():
    h, w = graph_entropy(Graph(6, []))
    assert h == pytest.approx(0.0, abs=1e-9)
    assert all(p == pytest.approx(1.0, abs=1e-9) for p in w.p)


def test_graph_entropy_c4():
    h, w = graph_entropy(C4)
    assert h == pytest.approx(1.0, abs=1e-5)
    assert all(p == pytest.approx(0.5, abs=1e-4) for p in w.p)


def test_witness_feasibility():
    for g in (C4, C5, complete(4), random_bipartite_graph(8, seed=3)):
        h, w = graph_entropy(g)
        assert math.fsum(w.q) == pytest.approx(1.0, abs=1e-9)
        assert all(q >= -1e-12 for q in w.q)
        for s, q in zip(w.sets, w.q):
            if q > 1e-12:
                assert g.is_independent_set([v for v in range(g.n) if s >> v & 1])
        # marginals are the stated convex combination
        for v in range(g.n):
            pv = math.fsum(q for s, q in zip(w.sets, w.q) if s >> v & 1)
            assert pv == pytest.approx(w.p[v], abs=1e-9)
        assert h == pytest.approx(
            -math.fsum(math.log2(p) for p in w.p) / g.n, abs=1e-9)


def test_graph_entropy_of_complete_multipartite_graphs(tmp_path, capsys):
    # H is the entropy of the part sizes, and every part is in the support;
    # the masks span more than one machine word
    g, sides = complete_multipartite([35, 35], seed=1)
    f = tmp_path / "k35_35.g"
    f.write_text(f"graph {g.n} {len(g.edges)}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
    assert main(["graphent", "compute", "--input", str(f), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["H_bits"] == 1.0
    assert report["support"] == [list(s) for s in sides]
    g, parts = complete_multipartite([33, 33, 33], seed=2)
    h, w = graph_entropy(g)
    assert h == pytest.approx(math.log2(3), abs=1e-12)
    assert [tuple(v for v in range(g.n) if s >> v & 1) for s in w.sets] == parts


def test_graph_entropy_validation():
    with pytest.raises(ValidationError):
        graph_entropy(C4, tol=0)
    with pytest.raises(ValidationError):
        graph_entropy(Graph(0, []))


def test_splitting_gap_perfect():
    assert abs(splitting_gap(C4)) <= 2e-6
    for n in (2, 4, 7):
        assert abs(splitting_gap(complete(n))) <= 2e-6


def test_splitting_gap_c5_strictly_positive():
    gap = splitting_gap(C5)
    assert gap >= -2e-6
    assert gap > 0.1  # C5 is imperfect; the identity fails by a wide margin


def test_splitting_gap_random_perfect_families():
    fixtures = []
    for seed in range(6):
        rng = random.Random(seed)
        fixtures.append(random_bipartite_graph(rng.randrange(3, 13), seed=seed))
        fixtures.append(interval_graph(random_intervals(rng.randrange(2, 9), seed=seed)))
    for g in fixtures:
        assert abs(splitting_gap(g)) <= 2e-6
        assert abs(splitting_gap(g.complement())) <= 2e-6


def test_lower_bound_chain():
    for seed in range(12):
        rng = random.Random(seed)
        g = random_bipartite_graph(rng.randrange(2, 11), seed=100 + seed)
        h, _ = graph_entropy(g)
        chrom = coloring_entropy(g, exact_coloring(g))
        greedy = coloring_entropy(g, greedy_coloring(g))
        assert h <= chrom + 1e-6
        assert chrom <= greedy + 1e-9


def test_greedy_vs_entropy_reports():
    rep = greedy_vs_entropy(Graph(5, []))
    assert rep.g_bits == 0.0 and rep.H_bits == pytest.approx(0.0, abs=1e-9)
    assert rep.bound_holds

    rep = greedy_vs_entropy(complete(6))
    assert rep.g_bits == pytest.approx(math.log2(6), abs=1e-9)
    assert rep.H_bits == pytest.approx(math.log2(6), abs=1e-6)
    assert rep.bound_rhs - rep.g_bits >= 4.0 - 1e-6  # margin at least the constant
    assert rep.bound_holds and rep.chain_ok


def test_greedy_vs_entropy_perfect_family():
    for seed in range(10):
        rng = random.Random(seed)
        g = random_bipartite_graph(rng.randrange(2, 11), seed=200 + seed)
        rep = greedy_vs_entropy(g)
        assert rep.bound_holds
        assert rep.chain_ok


def test_greedy_vs_entropy_checks_the_chain_up_to_the_coloring_cap():
    j5 = interval_graph(gen_jk(5))
    rep = greedy_vs_entropy(j5)  # 15 vertices: exact_coloring takes it
    assert rep.chromatic_entropy == pytest.approx(
        entropy_of_counts([5, 4, 3, 2, 1]), abs=1e-12)
    assert rep.chain_ok
    rep = greedy_vs_entropy(Graph(16, j5.edges))  # one vertex more: refused
    assert rep.chromatic_entropy is None and rep.chain_ok is None
    assert rep.bound_holds
