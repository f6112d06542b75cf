import itertools
import math
import random
import time
from heapq import heapify, heappop, heapreplace

import pytest

from conftest import traced
from minent.core import LOG2_E, BudgetError, FeasibilityError, SetSystem, entropy_of_counts
from minent.io import random_setcover
from minent.setcover import (CoverAssignment, _greedy_rounds, cover_entropy, dual_certificate,
                             exact_cover, greedy_cover, likelihood, verify_dual_feasibility)

WORKED = SetSystem(4, [[0, 1, 2], [2, 3], [3]])


def test_greedy_on_worked_instance():
    cover, trace = greedy_cover(WORKED)
    assert [r[0] for r in trace.rounds] == [0, 1]
    assert cover.induced_counts == (3, 1, 0)
    assert cover_entropy(cover) == pytest.approx(0.8113, abs=1e-3)


def test_greedy_single_covering_set():
    s = SetSystem(3, [[0, 1, 2], [1]])
    cover, trace = greedy_cover(s)
    assert len(trace.rounds) == 1
    assert cover_entropy(cover) == 0.0


def test_greedy_deterministic_tie_break():
    s = SetSystem(4, [[2, 3], [0, 1]])
    _, trace = greedy_cover(s)
    assert trace.rounds[0][0] == 0  # lowest set index wins ties


def test_cover_entropy_examples():
    s = SetSystem(11, [list(range(5)), list(range(5, 9)), [9, 10]])
    a = CoverAssignment(s, [0] * 5 + [1] * 4 + [2] * 2)
    assert cover_entropy(a) == pytest.approx(1.4949, abs=1e-3)


def test_cover_entropy_rejects_infeasible():
    with pytest.raises(FeasibilityError):
        CoverAssignment(WORKED, [0, 0, 0, 0])  # 3 not in set 0
    # the counts are the assignment's own tally, so they cannot disagree
    # with it, and the entropy is theirs
    a = CoverAssignment(WORKED, [0, 0, 0, 1])
    assert a.induced_counts == (3, 1, 0)
    assert cover_entropy(a) == entropy_of_counts([3, 1])


def test_exact_on_worked_instance():
    cover = exact_cover(WORKED)
    assert cover_entropy(cover) == pytest.approx(0.8113, abs=1e-3)


def test_exact_on_partition_instance():
    s = SetSystem(5, [[0, 1, 2], [3, 4]])
    cover = exact_cover(s)
    assert cover.induced_counts == (3, 2)


def test_exact_matches_independent_enumeration():
    for seed in range(20):
        s = random_setcover(6, 3, seed=seed)
        got = cover_entropy(exact_cover(s))
        best = min(
            cover_entropy(CoverAssignment(s, a))
            for a in itertools.product(*[s.sets_containing(x) for x in range(6)]))
        assert got == pytest.approx(best, abs=1e-12)


def test_exact_is_lexicographically_smallest():
    s = SetSystem(2, [[0, 1], [0, 1]])
    assert exact_cover(s).assignment == (0, 0)


def test_exact_budget_guard():
    # 2^24 assignment combinations, above WORK_BUDGET = 10^7
    s = SetSystem(24, [range(24), range(24)])
    with pytest.raises(BudgetError):
        exact_cover(s)


def test_greedy_within_log2e_of_optimum():
    for seed in range(150):
        rng = random.Random(seed)
        s = random_setcover(rng.randrange(1, 9), rng.randrange(1, 6), seed=seed)
        gap = cover_entropy(greedy_cover(s)[0]) - cover_entropy(exact_cover(s))
        assert -1e-9 <= gap <= LOG2_E + 1e-9


def test_dual_certificate_values():
    cover, _ = greedy_cover(WORKED)
    y = dual_certificate(cover)
    # round of size 3 on n=4: y_v = -(1/4) log2(3e/4)
    expect = -(1 / 4) * math.log2(3 * math.e / 4)
    assert y[0] == pytest.approx(expect, abs=1e-9)
    assert expect == pytest.approx(-0.2569, abs=1e-3)
    assert math.fsum(y) == pytest.approx(cover_entropy(cover) - LOG2_E, abs=1e-9)


def test_dual_certificate_single_round():
    s = SetSystem(3, [[0, 1, 2]])
    cover, _ = greedy_cover(s)
    y = dual_certificate(cover)
    assert cover_entropy(cover) == pytest.approx(0.0, abs=1e-12)
    assert all(yv == pytest.approx(-LOG2_E / 3, abs=1e-12) for yv in y)
    assert math.fsum(y) == pytest.approx(-LOG2_E, abs=1e-9)


def _round_duals(s):
    """The dual values as computed from the greedy trace: y_v from the size
    of the round that covered v."""
    n = s.universe_size
    y = [0.0] * n
    for _, new in greedy_cover(s)[1].rounds:
        for v in new:
            y[v] = -(1.0 / n) * math.log2(len(new) * math.e / n)
    return tuple(y)


def test_dual_certificate_matches_the_round_sizes_bit_for_bit():
    for seed in range(300):
        rng = random.Random(seed)
        s = random_setcover(rng.randrange(1, 13), rng.randrange(1, 6), seed=seed)
        assert dual_certificate(greedy_cover(s)[0]) == _round_duals(s)


def test_dual_identity_on_random_instances():
    for seed in range(100):
        rng = random.Random(1000 + seed)
        s = random_setcover(rng.randrange(1, 9), rng.randrange(1, 6), seed=seed)
        cover = greedy_cover(s)[0]
        assert math.fsum(dual_certificate(cover)) == \
            pytest.approx(cover_entropy(cover) - LOG2_E, abs=1e-9)


def test_dual_identity_holds_for_any_assignment():
    # sum y = H(a) - log2 e is an identity of the assignment, not of greedy
    for seed in range(100):
        rng = random.Random(2000 + seed)
        s = random_setcover(rng.randrange(1, 9), rng.randrange(1, 6), seed=seed)
        cover = exact_cover(s)
        assert math.fsum(dual_certificate(cover)) == \
            pytest.approx(cover_entropy(cover) - LOG2_E, abs=1e-9)


def test_dual_feasibility_exhaustive_on_worked_instance():
    report = verify_dual_feasibility(WORKED, dual_certificate(greedy_cover(WORKED)[0]))
    assert report.checked == 3 + 2 + 1
    assert report.violations == ()


def test_dual_feasibility_empty_subset_never_violates():
    s = SetSystem(1, [[0]])
    assert verify_dual_feasibility(s, dual_certificate(greedy_cover(s)[0])).violations == ()


def test_dual_feasibility_property():
    for seed in range(200):
        rng = random.Random(seed)
        s = random_setcover(rng.randrange(1, 11), rng.randrange(1, 6), seed=seed)
        y = dual_certificate(greedy_cover(s)[0])
        assert verify_dual_feasibility(s, y).violations == ()


def test_dual_feasibility_finds_violation_only_at_full_size():
    # y is far below every right-hand side except at |T| = 24 = n, where the
    # right-hand side is 0 and the sum of y is positive.
    s = SetSystem(24, [list(range(24))])
    report = verify_dual_feasibility(s, (1e-9,) * 24)
    assert report.checked == 24
    assert [v["subset"] for v in report.violations] == [tuple(range(24))]
    assert report.violations[0]["rhs"] == 0.0
    assert report.min_slack == pytest.approx(-24e-9)


def _brute_force_violations(s, y):
    """(size, largest y-sum) of each violated (set, size) pair, in set then
    size order, by enumerating every subset."""
    n = s.universe_size
    found = []
    for members in s.sets:
        for t in range(1, len(members) + 1):
            rhs = -(t / n) * math.log2(t / n)
            lhs = max(math.fsum(y[v] for v in sub)
                      for sub in itertools.combinations(members, t))
            if lhs > rhs + 1e-9:
                found.append((t, lhs))
    return found


def test_dual_feasibility_matches_brute_force():
    # Odd seeds shift y by up to 3/n, which violates about half of them.
    violated = 0
    for seed in range(300):
        rng = random.Random(seed)
        s = random_setcover(rng.randrange(1, 13), rng.randrange(1, 6), seed=seed)
        n = s.universe_size
        y = [v + rng.uniform(-1, 3) / n * (seed % 2)
             for v in dual_certificate(greedy_cover(s)[0])]
        report = verify_dual_feasibility(s, y)
        expected = _brute_force_violations(s, y)
        assert [len(v["subset"]) for v in report.violations] == [t for t, _ in expected]
        for v, (_, lhs) in zip(report.violations, expected):
            assert v["lhs"] == pytest.approx(lhs, abs=1e-12)
            assert math.fsum(y[u] for u in v["subset"]) == pytest.approx(lhs, abs=1e-12)
        assert report.checked == sum(map(len, s.sets))
        assert (report.min_slack < -1e-9) == bool(expected)
        violated += bool(expected)
    assert violated >= 50


def test_likelihood_identity():
    cover, _ = greedy_cover(WORKED)
    h = cover_entropy(cover)
    assert likelihood(cover) == pytest.approx(-4 * h, abs=1e-9)
    assert likelihood(cover) == pytest.approx(-3.2451, abs=1e-3)


def test_likelihood_single_class_is_zero():
    s = SetSystem(3, [[0, 1, 2]])
    cover, _ = greedy_cover(s)
    assert likelihood(cover) == 0.0


def test_likelihood_argmax_equals_entropy_argmin():
    for seed in range(25):
        s = random_setcover(6, 3, seed=40 + seed)
        assignments = [
            CoverAssignment(s, a)
            for a in itertools.product(*[s.sets_containing(x) for x in range(6)])]
        by_lik = max(assignments, key=likelihood)
        by_ent = min(assignments, key=cover_entropy)
        assert likelihood(by_lik) == pytest.approx(likelihood(by_ent), abs=1e-9)


def _first_optimal_cover(s):
    """Walk every assignment in lexicographic order and keep the first one
    whose entropy is more than 1e-12 below the best so far."""
    best_h, best = math.inf, None
    for a in itertools.product(*[s.sets_containing(x) for x in range(s.universe_size)]):
        counts = [0] * s.k
        for i in a:
            counts[i] += 1
        h = entropy_of_counts(counts)
        if h < best_h - 1e-12:
            best_h, best = h, a
    return best


def _tied_systems():
    """Set systems with many optimal assignments: duplicated equal blocks and
    cyclic windows."""
    for blocks, size, copies in [(1, 4, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 3, 2),
                                 (2, 2, 3), (4, 2, 2)]:
        yield SetSystem(blocks * size, [list(range(b * size, (b + 1) * size))
                                        for b in range(blocks) for _ in range(copies)])
    for n in range(2, 10):
        for w in (2, 3):
            yield SetSystem(n, [sorted({(x + d) % n for d in range(w)}) for x in range(n)])


def test_exact_cover_matches_enumeration_tie_for_tie():
    systems = list(_tied_systems())
    for seed in range(300):
        rng = random.Random(seed)
        systems.append(random_setcover(rng.randrange(1, 10), rng.randrange(1, 6), seed=seed))
    for s in systems:
        cover = exact_cover(s)
        assert cover.assignment == _first_optimal_cover(s), s.sets
        assert cover == CoverAssignment(s, cover.assignment)


def test_exact_cover_depth_does_not_grow_with_forced_elements():
    # 1,200 elements in exactly one set each, more than Python's default
    # recursion limit, and two elements that may share the extra set.
    n = 1200
    s = SetSystem(n, [[x] for x in range(n)] + [[0, 1]])
    assert exact_cover(s).assignment == (n, n) + tuple(range(2, n))


def _intersecting_greedy(s):
    """Greedy set cover intersecting every set with the uncovered elements
    each round, ties to the lowest set index: (assignment, rounds)."""
    uncovered = set(range(s.universe_size))
    assignment = [-1] * s.universe_size
    rounds = []
    members = [set(t) for t in s.sets]
    while uncovered:
        best_i, best_new = -1, None
        for i, mem in enumerate(members):
            new = mem & uncovered
            if best_new is None or len(new) > len(best_new):
                best_i, best_new = i, new
        for x in best_new:
            assignment[x] = best_i
        uncovered -= best_new
        rounds.append((best_i, tuple(sorted(best_new))))
    return tuple(assignment), tuple(rounds)


def test_greedy_cover_matches_intersecting_loop_tie_for_tie():
    systems = list(_tied_systems())
    for n in range(1, 9):
        # nested prefixes, listed both ways, and the same chain duplicated
        chain = [list(range(j)) for j in range(1, n + 1)]
        systems += [SetSystem(n, chain), SetSystem(n, chain[::-1]), SetSystem(n, chain * 2)]
    for seed in range(300):
        rng = random.Random(seed)
        k = rng.randrange(1, 12)
        base = random_setcover(rng.randrange(1, min(30, 2 ** k + 1)), k, seed=seed)
        sets = list(base.sets)
        for _ in range(rng.randrange(0, 4)):
            # duplicated sets and subsets of existing sets
            t = list(rng.choice(sets))
            sets.insert(rng.randrange(len(sets) + 1), t[:rng.randrange(1, len(t) + 1)])
        systems.append(SetSystem(base.universe_size, sets))
    for s in systems:
        cover, trace = greedy_cover(s)
        assignment, rounds = _intersecting_greedy(s)
        assert trace.rounds == rounds, s.sets
        assert trace.rounds == tuple((i, tuple(new)) for i, new in _greedy_rounds(s))
        assert cover.assignment == assignment
        assert cover == CoverAssignment(s, assignment)


def test_greedy_cover_on_many_small_rounds_is_fast():
    # One round per singleton. Scanning all k sets every round is O(k n):
    # 5,000 singletons took 2.6 s that way, and the time grows with the
    # square of the count.
    n = 20_000
    s = SetSystem(n, [[x] for x in range(n)])
    start = time.perf_counter()
    cover, trace = greedy_cover(s)
    assert time.perf_counter() - start < 2.0
    assert cover.assignment == tuple(range(n))
    assert [i for i, _ in trace.rounds] == list(range(n))


def test_greedy_rounds_memory_on_singletons():
    # A mask shifted into place takes about n - x bits for the set {x}, so
    # n singletons held about n^2/16 bytes: a 31 MB peak at n = 20,000. The
    # set system builds the masks, so it is built inside the window.
    n = 20_000
    sets = [[x] for x in range(n)]
    rounds, peak, _ = traced(lambda: _greedy_rounds(SetSystem(n, sets)))
    assert [i for i, _ in rounds] == list(range(n))
    assert peak < 10 * 2 ** 20


def _shifted_mask_rounds(s):
    """The lazy greedy with every mask shifted into place (element x is bit
    n-1-x): (set index, elements newly covered) per round."""
    n = s.universe_size
    masks = [sum(1 << (n - 1 - x) for x in t) for t in s.sets]
    heap = [(-len(t), i) for i, t in enumerate(s.sets) if t]
    heapify(heap)
    uncovered = (1 << n) - 1
    rounds = []
    while uncovered:
        stale, i = heap[0]
        size = (masks[i] & uncovered).bit_count()
        if size == -stale:
            heappop(heap)
            rounds.append((i, [x for x in s.sets[i] if uncovered >> (n - 1 - x) & 1]))
            uncovered &= ~masks[i]
        elif size:
            heapreplace(heap, (-size, i))
        else:
            heappop(heap)
    return rounds


def test_greedy_rounds_match_shifted_mask_loop_tie_for_tie():
    systems = list(_tied_systems())
    for seed in range(1500):
        rng = random.Random(seed)
        n = rng.randrange(1, 80)
        # sparse sets far apart and wide ones, plus singletons to cover the rest
        sets = [sorted(rng.sample(range(n), rng.randrange(1, min(n, 6) + 1)))
                for _ in range(rng.randrange(0, 8))]
        sets += [[x for x in range(n) if rng.random() < 0.5] or [0]
                 for _ in range(rng.randrange(0, 4))]
        sets += [[x] for x in range(n) if rng.random() < 0.5]
        covered = set().union(*sets)
        sets += [[x] for x in range(n) if x not in covered]
        rng.shuffle(sets)
        systems.append(SetSystem(n, sets))
    for s in systems:
        assert _greedy_rounds(s) == _shifted_mask_rounds(s), s.sets


def test_assignment_to_a_set_not_containing_the_element_is_infeasible():
    s = SetSystem(5, [[0, 2, 4], [1, 3]])
    assert CoverAssignment(s, [0, 1, 0, 1, 0]).induced_counts == (3, 2)
    for bad in ([1, 1, 0, 1, 0], [0, 1, 0, 0, 0], [0, 1, 0, 1, 1], [0, 1, 0, 1, 2],
                [0, 1, 0, 1, -1]):
        with pytest.raises(FeasibilityError):
            CoverAssignment(s, bad)
