"""Minimum entropy set cover: greedy algorithm, exact oracle, and the
closed-form dual-fitting certificate behind the log2(e) additive guarantee."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace
from typing import Sequence

from .core import (WORK_BUDGET, BudgetError, FeasibilityError, SetSystem,
                   ValidationError, _xlog2x, entropy_of_counts)


@dataclass(frozen=True)
class CoverAssignment:
    """Per-element set choice phi(x) with the induced per-set cover counts,
    checked against the set system when built."""

    assignment: tuple[int, ...]
    induced_counts: tuple[int, ...]

    def __init__(self, s: SetSystem, assignment):
        assignment = tuple(assignment)
        if len(assignment) != s.universe_size:
            raise FeasibilityError("assignment must cover every element")
        counts = [0] * s.k
        for x, i in enumerate(assignment):
            if not (0 <= i < s.k) or not _contains(s.sets[i], x):
                raise FeasibilityError(f"element {x} assigned to set {i} not containing it")
            counts[i] += 1
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "induced_counts", tuple(counts))


def _contains(members: tuple[int, ...], x: int) -> bool:
    """Membership in a sorted tuple by binary search."""
    j = bisect_left(members, x)
    return j < len(members) and members[j] == x


@dataclass(frozen=True)
class GreedyTrace:
    """Greedy rounds: (chosen set index, elements newly covered that round,
    ascending)."""

    rounds: tuple[tuple[int, tuple[int, ...]], ...]


def cover_entropy(a: CoverAssignment) -> float:
    """Entropy (bits) of the part-size distribution induced by an assignment."""
    return entropy_of_counts(a.induced_counts)


def likelihood(a: CoverAssignment) -> float:
    """log2 of prod_i p_i^{count_i}, p_i = count_i / n: -n times the entropy."""
    return 0.0 - len(a.assignment) * cover_entropy(a)  # 0.0, not -0.0, at H = 0


def _greedy_rounds(s: SetSystem) -> list[tuple[int, list[int]]]:
    """The greedy rounds, (set index, elements newly covered, ascending):
    each round takes the set covering the most uncovered elements, ties to
    the lowest set index.

    Each set is its `SetSystem.bitmasks` mask and so are the uncovered
    elements, so a remainder's size is one AND and a bit count. Sizes are
    re-evaluated lazily (Minoux's accelerated greedy): a heap holds (-size
    when last evaluated, index), sizes only shrink, so an entry whose size
    is still current when it reaches the top is the first largest."""
    n = s.universe_size
    masks, shifts = s.bitmasks()
    heap = [(-len(t), i) for i, t in enumerate(s.sets) if t]
    heapify(heap)
    uncovered = (1 << n) - 1
    free = bytearray(b"\1") * n
    rounds = []
    while uncovered:
        if not heap:
            raise ValidationError("instance is not coverable")
        stale, i = heap[0]
        size = (masks[i] & (uncovered >> shifts[i])).bit_count()
        if size == -stale:
            heappop(heap)
            uncovered &= ~(masks[i] << shifts[i])
            new = [x for x in s.sets[i] if free[x]]
            for x in new:
                free[x] = 0
            rounds.append((i, new))
        elif size:
            heapreplace(heap, (-size, i))
        else:
            heappop(heap)
    return rounds


def greedy_cover(s: SetSystem) -> tuple[CoverAssignment, GreedyTrace]:
    """Repeatedly pick the set covering the most uncovered elements (ties to
    the lowest set index) and assign the newly covered elements to it."""
    assignment = [-1] * s.universe_size
    rounds = _greedy_rounds(s)
    for i, new in rounds:
        for x in new:
            assignment[x] = i
    cover = CoverAssignment(s, assignment)
    return cover, GreedyTrace(tuple((i, tuple(new)) for i, new in rounds))


def exact_cover(s: SetSystem) -> CoverAssignment:
    """Minimum-entropy assignment by depth-first branch and bound over the
    per-element set choices: elements in index order, each element's sets in
    ascending index order, so complete assignments are met in lexicographic
    order. `orientation.exact_orientation` is this search over vertex stars.

    The search maximises S = sum_i f(c_i), f(x) = x log2 x, over the set
    counts c, since H = log2 n - S/n. A subtree's bound on S is a fractional
    knapsack over its undecided elements: set i, holding rest_i of them,
    takes up to rest_i at the secant slope (f(c_i + rest_i) - f(c_i)) /
    rest_i, which bounds its gain because f is convex. The incumbent starts
    1e-9 above the greedy cover's entropy, so the search must still reach an
    optimum itself. A subtree is pruned when its bound is no more than 1e-12
    below the incumbent's entropy, which is replaced only by one more than
    1e-12 lower: ties go to the lexicographically smallest optimum. Elements
    in exactly one set are assigned up front and the search branches over
    the rest only, so its depth is at most log2(WORK_BUDGET) + 1: more
    assignment combinations than WORK_BUDGET are refused before it starts."""
    n = s.universe_size
    # choices[x] = sets_containing(x), for every x in one pass over the sets
    choices: list[list[int]] = [[] for _ in range(n)]
    for i, members in enumerate(s.sets):
        for x in members:
            choices[x].append(i)
    space = 1
    for c in choices:
        space *= len(c)
        if space > WORK_BUDGET:
            raise BudgetError(
                f"instance too large for oracle: >{WORK_BUDGET} assignment combinations")

    xlog = [_xlog2x(c) for c in range(n + 1)]
    log2n = math.log2(n)
    counts = [0] * s.k
    for c in choices:
        if len(c) == 1:
            counts[c[0]] += 1
    free = [x for x, c in enumerate(choices) if len(c) > 1]
    options = [choices[x] for x in free]
    m = len(free)
    rest = [len(t) - c for t, c in zip(s.sets, counts)]  # undecided members
    live = [i for i, r in enumerate(rest) if r]
    picks = [0] * m
    best_h = entropy_of_counts([len(new) for _, new in _greedy_rounds(s)]) + 1e-9
    best = None

    def recurse(j: int, acc: float) -> None:
        # acc is S over the current counts; free[j:] are still undecided.
        nonlocal best_h, best
        if j == m:
            h = log2n - acc / n
            if h < best_h - 1e-12:
                best_h, best = h, tuple(picks)
            return
        left = m - j
        if left > 1:  # a last element's leaves cost less to visit than to bound
            slopes = []  # a plain loop: cheaper than a comprehension on few sets
            for i in live:
                r = rest[i]
                if r:
                    c = counts[i]
                    slopes.append(((xlog[c + r] - xlog[c]) / r, r))
            slopes.sort(reverse=True)
            gain = 0.0
            for slope, r in slopes:
                if r >= left:
                    gain += slope * left
                    break
                gain += slope * r
                left -= r
            if log2n - (acc + gain) / n >= best_h - 1e-12:
                return
        opts = options[j]
        for i in opts:
            rest[i] -= 1
        for i in opts:
            c = counts[i]
            counts[i] = c + 1
            picks[j] = i
            recurse(j + 1, acc + xlog[c + 1] - xlog[c])
            counts[i] = c
        for i in opts:
            rest[i] += 1

    recurse(0, sum(xlog[c] for c in counts))
    del recurse  # its closure holds it: a cycle that reference counting cannot free
    assignment = [c[0] for c in choices]
    for x, i in zip(free, best):
        assignment[x] = i
    return CoverAssignment(s, assignment)


def dual_certificate(a: CoverAssignment) -> tuple[float, ...]:
    """Closed-form dual values y_v = -(1/n) log2(c e / n), c the count of the
    set v is assigned to: on the greedy cover, the size of the round that
    covered v. sum(y) = H(a) - log2(e) for any assignment."""
    n = len(a.assignment)
    counts = a.induced_counts
    return tuple(-(1.0 / n) * math.log2(counts[i] * math.e / n) for i in a.assignment)


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the dual check. `checked` counts the (set, size)
    constraints, sum_i |S_i|; `violations` holds one entry per violated
    constraint; `min_slack` is the least rhs - lhs over all of them (inf when
    there are none)."""

    checked: int
    violations: tuple
    min_slack: float


def verify_dual_feasibility(s: SetSystem, y: Sequence[float]) -> FeasibilityReport:
    """Exact check of the dual constraint sum_{v in T} y_v <= -(t/n) log2(t/n),
    t = |T|, for every nonempty subset T of every input set S.

    The right-hand side depends only on t, so the worst T of each size is the
    t largest y-values of S: sorting S by (-y_v, v) and checking its prefix
    sums settles all 2^|S| subsets in O(|S| log |S|), with no budget or
    sampling. Each violated (S, t) yields one violation
    {"subset": the t worst members in ascending order, "lhs": their y-sum,
    "rhs": the right-hand side}."""
    n = s.universe_size
    min_slack = math.inf
    violations = []
    for members in s.sets:
        worst = sorted(members, key=lambda v: (-y[v], v))
        lhs = 0.0
        for t, v in enumerate(worst, 1):
            lhs += y[v]
            rhs = -(t / n) * math.log2(t / n)
            min_slack = min(min_slack, rhs - lhs)
            if lhs > rhs + 1e-9:
                violations.append({"subset": tuple(sorted(worst[:t])), "lhs": lhs, "rhs": rhs})
    return FeasibilityReport(sum(map(len, s.sets)), tuple(violations), min_slack)
