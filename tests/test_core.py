import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from minent import core
from minent.core import (BudgetError, Graph, IntervalSet, SetSystem, ValidationError,
                         _edge_count, entropy_of_counts, interval_graph)
from oracles import Distribution, counts_to_distribution, dominates, entropy, max_point_depth


def test_entropy_worked_distribution():
    d = counts_to_distribution([5, 4, 2])
    assert entropy(d) == pytest.approx(1.4949, abs=1e-3)


def test_entropy_point_mass_and_uniform():
    assert entropy(Distribution([1.0])) == 0.0
    assert entropy(Distribution([0.25] * 4)) == pytest.approx(2.0, abs=1e-12)


def test_entropy_range():
    rng = random.Random(3)
    for _ in range(50):
        k = rng.randrange(1, 8)
        raw = [rng.random() for _ in range(k)]
        total = sum(raw)
        d = Distribution([x / total for x in raw])
        assert -1e-12 <= entropy(d) <= math.log2(k) + 1e-9


def test_invalid_distributions():
    with pytest.raises(ValidationError):
        Distribution([0.5, 0.6])
    with pytest.raises(ValidationError):
        Distribution([-0.1, 1.1])
    with pytest.raises(ValidationError):
        Distribution([])


def test_counts_to_distribution():
    assert counts_to_distribution([5, 4, 2]).probs == (
        Fraction(5, 11), Fraction(4, 11), Fraction(2, 11))
    assert counts_to_distribution([7]).probs == (Fraction(1),)
    assert counts_to_distribution([0, 3, 3]).probs == (
        Fraction(0), Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValidationError):
        counts_to_distribution([0, 0])


def test_entropy_invariant_under_zero_removal_and_reorder():
    rng = random.Random(9)
    for _ in range(30):
        counts = [rng.randrange(0, 5) for _ in range(6)]
        if not any(counts):
            counts[0] = 1
        base = entropy(counts_to_distribution(counts))
        nonzero = [c for c in counts if c]
        rng.shuffle(nonzero)
        assert entropy(counts_to_distribution(nonzero)) == pytest.approx(base, abs=1e-12)


def test_merging_two_parts_never_increases_entropy():
    rng = random.Random(11)
    for _ in range(40):
        k = rng.randrange(2, 7)
        raw = [rng.random() for _ in range(k)]
        total = sum(raw)
        probs = [x / total for x in raw]
        h = entropy(Distribution(probs))
        i, j = rng.sample(range(k), 2)
        merged = [p for t, p in enumerate(probs) if t not in (i, j)]
        merged.append(probs[i] + probs[j])
        assert entropy(Distribution(merged)) <= h + 1e-12


def test_dominates_examples():
    r = counts_to_distribution([1, 1])
    q = counts_to_distribution([1, 1, 1])
    assert dominates(r, q)
    assert dominates(r, r)
    assert not dominates(q, r)


def test_dominates_exact_on_rationals():
    # prefix sums tie exactly; exact arithmetic must not be fooled
    r = counts_to_distribution([2, 1])
    q = counts_to_distribution([4, 2])
    assert dominates(r, q) and dominates(q, r)


def test_graph_validation():
    with pytest.raises(ValidationError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValidationError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValidationError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValidationError):
        Graph(2, [(0, 1)], weights=[0.5, 0.6])


def test_graph_names_the_first_bad_edge():
    cases = [([(0, 1), (1, 0), (0, 5)], r"duplicate edge \(0, 1\)"),
             ([(0, 1), (2, 5), (1, 0)], r"edge \(2,5\) out of range \[0,3\)"),
             ([(2, -1), (1, 1)], r"edge \(2,-1\) out of range"),
             ([(0, 2), (1, 1), (2, 0)], "self-loop at vertex 1"),
             ([(2, 1), (0, 2), (1, 2)], r"duplicate edge \(1, 2\)")]
    for edges, message in cases:
        with pytest.raises(ValidationError, match=message):
            Graph(3, edges)


def test_graph_plumbing():
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    assert g.adjacency == ((1,), (0, 2, 3), (1,), (1,))
    assert g.max_degree() == 3
    assert g.is_independent_set([0, 2, 3])
    assert not g.is_independent_set([0, 1])
    assert g.is_proper_coloring([1, 2, 1, 1])
    assert not g.is_proper_coloring([1, 1, 2, 2])
    comp = g.complement()
    assert set(comp.edges) == {(0, 2), (0, 3), (2, 3)}


def test_setsystem_requires_coverage():
    with pytest.raises(ValidationError):
        SetSystem(3, [[0, 1]])
    with pytest.raises(ValidationError):
        SetSystem(2, [[0, 0, 1]])


def test_setsystem_names_the_first_out_of_range_element():
    with pytest.raises(ValidationError, match=r"set 1: element 4 out of range"):
        SetSystem(4, [[0, 1, 2, 3], [6, 0, 4, 9]])
    with pytest.raises(ValidationError, match=r"set 0: element -2 out of range"):
        SetSystem(3, [[1, -1, 0, -2, 2, 7]])
    assert SetSystem(3, [[2, 0], [], [1]]).sets == ((0, 2), (), (1,))


def test_setsystem_reports_a_duplicate_before_a_range_error():
    # A duplicate outranks an out-of-range id in the same set, on either
    # side of the range, and an earlier set's error outranks a later one's.
    for sets, message in [([[0, 1], [3, 1, 3]], "set 1 has duplicate members"),
                          ([[2, -1, 0, -1]], "set 0 has duplicate members"),
                          ([[1, 5, 0, 5, -3]], "set 0 has duplicate members"),
                          ([[0, 1, 2], [2, 0, 1, 0]], "set 1 has duplicate members"),
                          ([[2, 1, 0, 2, 1]], "set 0 has duplicate members"),
                          ([[0, 7], [1, 1, 2]], "set 0: element 7 out of range"),
                          ([[-1], [0, 0]], "set 0: element -1 out of range"),
                          ([[0, 0]], "set 0 has duplicate members"),
                          ([[1, 2], [0, 1]], None), ([[1]], r"elements \[0, 2\] are not")]:
        if message is None:
            SetSystem(3, sets)
        else:
            with pytest.raises(ValidationError, match=message):
                SetSystem(3, sets)


def _hash_set_check(n, sets):
    """The set system's error message by a hash set per set: duplicates,
    then the range, set by set, then coverage (None when valid)."""
    covered = set()
    for idx, s in enumerate(sets):
        members = sorted(s)
        if len(set(members)) != len(members):
            return f"set {idx} has duplicate members"
        bad = [x for x in members if not 0 <= x < n]
        if bad:
            return f"set {idx}: element {bad[0]} out of range"
        covered.update(members)
    if covered != set(range(n)):
        return f"elements {sorted(set(range(n)) - covered)} are not covered by any set"
    return None


def test_setsystem_errors_match_a_hash_set_check():
    # n < 12 keeps most sets within 8 elements per member, which the row
    # checks; n up to 200 makes most sets wider, which a hash set checks.
    for seed in range(3000):
        rng = random.Random(seed)
        n = rng.randrange(1, 12) if seed < 2000 else rng.randrange(1, 200)
        sets = [[rng.randrange(-3, n + 3) if rng.random() < 0.1 else rng.randrange(n)
                 for _ in range(rng.randrange(0, 6))] for _ in range(rng.randrange(0, 5))]
        for t in sets:
            if t and rng.random() < 0.2:
                t.insert(rng.randrange(len(t) + 1), rng.choice(t))
        try:
            SetSystem(n, sets)
            message = None
        except ValidationError as exc:
            message = str(exc)
        assert message == _hash_set_check(n, sets), (n, sets)


def test_setsystem_masks_are_the_shifted_bit_sums():
    # masks[i] << shifts[i] puts element x at bit n-1-x; the mask spans the
    # first to the last member, so its lowest bit is the last member. Sets
    # spanning at most 8 elements per member get their masks from the
    # check, wider ones from bitmasks(): {0, 15} and {0, 16} are either side.
    systems = [SetSystem(1, [[0]]), SetSystem(5, [[], [4, 0], [], [1, 2, 3]]),
               SetSystem(40, [[0, 15], [16, 0], [39, 0], list(range(40)), [3, 38]])]
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randrange(1, 300)
        p = rng.choice((0.02, 0.5, 0.95))  # sparse, half and dense sets
        sets = [[x for x in range(n) if rng.random() < p] for _ in range(rng.randrange(0, 12))]
        sets += [[x] for x in range(n) if rng.random() < 0.3]  # singletons
        covered = set().union(*sets)
        sets += [[x] for x in range(n) if x not in covered]
        for t in sets:
            rng.shuffle(t)
        rng.shuffle(sets)
        systems.append(SetSystem(n, sets))
    for s in systems:
        n = s.universe_size
        masks, shifts = s.bitmasks()
        assert len(masks) == len(shifts) == s.k
        for t, mask, shift in zip(s.sets, masks, shifts):
            assert mask << shift == sum(1 << (n - 1 - x) for x in t), t
            if t:
                assert (shift, mask & 1, mask.bit_length()) == (n - 1 - t[-1], 1, t[-1] - t[0] + 1)
            else:
                assert (mask, shift) == (0, 0)


def test_interval_graph_open_convention():
    iv = IntervalSet([(0, 2), (1, 3), (2, 4)])
    g = interval_graph(iv)
    assert set(g.edges) == {(0, 1), (1, 2)}  # 0 and 2 touch at 2: no edge
    assert interval_graph(IntervalSet([(0, 1)])).m == 0


def _all_pairs_interval_graph(iv):
    """The intersection graph by testing every pair of open intervals."""
    ivs = iv.intervals
    return Graph(len(ivs), [(i, j) for i in range(len(ivs)) for j in range(i + 1, len(ivs))
                            if max(ivs[i][0], ivs[j][0]) < min(ivs[i][1], ivs[j][1])])


def test_interval_graph_sweep_matches_all_pairs():
    from minent.coloring import gen_jk
    from minent.io import random_intervals
    sets = [gen_jk(k) for k in range(1, 13)]
    sets += [random_intervals(n, seed) for n in range(40) for seed in range(3)]
    rng = random.Random(5)
    for _ in range(60):  # a 4-step grid: many touching and equal endpoints
        ends = [sorted(rng.sample(range(5), 2)) for _ in range(rng.randrange(1, 15))]
        sets.append(IntervalSet(ends))
    for iv in sets:
        g = interval_graph(iv)
        assert g == _all_pairs_interval_graph(iv), iv.intervals
        assert list(g.edges) == sorted(g.edges)


def test_interval_edge_count_matches_interval_graph():
    from minent.coloring import gen_jk
    from minent.io import random_intervals
    sets = [gen_jk(k) for k in (1, 5, 10, 12)]
    sets += [random_intervals(n, seed) for n in (0, 1, 6, 100, 300) for seed in range(3)]
    sets.append(IntervalSet([(0, 1)] * 50))
    for iv in sets:
        assert _edge_count(iv.intervals) == interval_graph(iv).m, iv.intervals


def test_interval_set_validation():
    with pytest.raises(ValidationError):
        IntervalSet([(1, 1)])
    with pytest.raises(ValidationError):
        IntervalSet([(2, 1)])


def test_disjoint_intervals_are_independent():
    iv = IntervalSet([(Fraction(i), Fraction(i) + Fraction(1, 2)) for i in range(5)])
    g = interval_graph(iv)
    assert g.is_independent_set(range(5))


def test_max_point_depth():
    assert max_point_depth([(Fraction(0), Fraction(2)), (Fraction(1), Fraction(3)),
                            (Fraction(2), Fraction(4))]) == 2
    assert max_point_depth([(Fraction(0), Fraction(1)), (Fraction(1), Fraction(2))]) == 1


def test_entropy_of_counts_matches_distribution():
    rng = random.Random(5)
    for _ in range(25):
        counts = [rng.randrange(1, 9) for _ in range(rng.randrange(1, 6))]
        assert entropy_of_counts(counts) == pytest.approx(
            entropy(counts_to_distribution(counts)), abs=1e-12)


def test_complement_refuses_past_the_work_budget(monkeypatch):
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])  # 5 non-edges
    monkeypatch.setattr(core, "WORK_BUDGET", 5)
    assert c5.complement().edges == ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4))
    monkeypatch.setattr(core, "WORK_BUDGET", 4)
    with pytest.raises(BudgetError, match=r"^the complement of a graph on 5 vertices has 5 "
                       r"edges, above the budget 4$"):
        c5.complement()


def test_complement_of_two_large_stars_is_refused_before_listing_a_pair():
    # 4,474 vertices: 10,006,101 pairs less 4,472 edges. One vertex fewer
    # leaves 9,997,157 non-edges, within the budget.
    edges = [(0, v) for v in range(1, 2237)] + [(2237, v) for v in range(2238, 4474)]
    g = Graph(4474, edges)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match=r"has 10001629 edges, above the budget 10000000$"):
            g.complement()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
