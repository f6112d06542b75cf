"""Shared substrate: graphs, set systems, interval sets, entropy of counts."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

WEIGHT_TOL = 1e-9
WORK_BUDGET = 10 ** 7  # most exact-oracle assignments, estimator samples or built items
LOG2_E = math.log2(math.e)  # the greedy guarantees' additive constant
# Largest vertex count a graph header may declare: Graph allocates from it.
MAX_GRAPH_VERTICES = 10 ** 6


class ValidationError(ValueError):
    """Raised when a domain object violates its invariants."""


class FeasibilityError(ValueError):
    """Raised when a purported solution is infeasible for its instance."""


class BudgetError(RuntimeError):
    """Raised when an exact oracle or estimator would exceed its work budget."""


class ConvergenceError(RuntimeError):
    """Raised when graph entropy stops short of its tolerance, with the value
    and gap it reached."""

    def __init__(self, msg: str, value: float, gap: float):
        super().__init__(msg)
        self.value = value
        self.gap = gap


def _xlog2x(x: float) -> float:
    return 0.0 if x == 0 else x * math.log2(x)


def _edge_error(n: int, edges: Sequence[tuple[int, int]]) -> ValidationError:
    """The error naming the first bad edge: an endpoint out of range, a
    self-loop, or a repeat of an earlier edge."""
    seen = set()
    for (u, v) in edges:
        if not (0 <= u < n and 0 <= v < n):
            return ValidationError(f"edge ({u},{v}) out of range [0,{n})")
        if u == v:
            return ValidationError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            return ValidationError(f"duplicate edge {e}")
        seen.add(e)


class Graph:
    """Immutable undirected simple graph with optional vertex weights.

    Edges are stored as sorted (u, v) pairs with u < v; adjacency lists are
    precomputed and sorted so solvers get O(deg) neighborhood scans.
    """

    __slots__ = ("n", "edges", "weights", "_adj")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]],
                 weights: Optional[Sequence[float]] = None):
        if n < 0:
            raise ValidationError("vertex count must be nonnegative")
        norm = []
        adj = [[] for _ in range(n)]
        for e in edges:
            u, v = e
            if u > v:
                u, v = v, u
                e = (u, v)
            elif type(e) is not tuple:
                e = (u, v)
            if not 0 <= u < v < n:
                raise _edge_error(n, edges)
            norm.append(e)  # an ordered input pair is kept, not copied
            adj[u].append(v)
            adj[v].append(u)
        if len(set(norm)) != len(norm):
            raise _edge_error(n, edges)
        self.n = n
        self.edges = tuple(norm)
        if weights is not None:
            weights = tuple(float(w) for w in weights)
            if len(weights) != n:
                raise ValidationError("need one weight per vertex")
            if not all(map(math.isfinite, weights)):
                raise ValidationError("non-finite vertex weight")
            if any(w < 0 for w in weights):
                raise ValidationError("negative vertex weight")
            if abs(sum(weights) - 1.0) > WEIGHT_TOL:
                raise ValidationError("vertex weights must sum to 1")
        self.weights = weights
        for a in adj:
            a.sort()
        self._adj = tuple(map(tuple, adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Every vertex's sorted neighbor tuple; len(adjacency[v]) is v's degree."""
        return self._adj

    def max_degree(self) -> int:
        return max(map(len, self._adj), default=0)

    def complement(self) -> "Graph":
        """The graph on the same vertices and weights whose edges are the
        non-edges; more than WORK_BUDGET of them raise BudgetError before
        any is listed."""
        n = self.n
        if (c := n * (n - 1) // 2 - self.m) > WORK_BUDGET:
            raise BudgetError(f"the complement of a graph on {n} vertices has {c} edges, "
                              f"above the budget {WORK_BUDGET}")
        present = set(self.edges)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in present]
        return Graph(n, edges, self.weights)

    def is_independent_set(self, vertices) -> bool:
        s = set(vertices)
        return all(not (u in s and v in s) for (u, v) in self.edges)

    def is_proper_coloring(self, colors: Sequence[int]) -> bool:
        if len(colors) != self.n:
            return False
        return all(colors[u] != colors[v] for (u, v) in self.edges)

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor bitmasks (bit i set iff i adjacent)."""
        masks = [0] * self.n
        for (u, v) in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and self.edges == other.edges and self.weights == other.weights)

    def __hash__(self):
        return hash((self.n, self.edges, self.weights))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


# A set whose members span at most this many elements per member has its
# greedy bitmask built while it is checked; a wider one, when it is read.
_SPAN_PER_MEMBER = 8


class SetSystem:
    """A ground set {0..universe_size-1} plus a collection of subsets.

    Checking a set walks its sorted members once, writing each into a row
    of n bytes (b"1" for the set being read, b"c" once covered). When the
    members span at most _SPAN_PER_MEMBER elements each, that span of the
    row parses to the set's bitmask, and a mask with fewer bits than
    members means a duplicate; a wider set is checked with a hash set and
    gets its mask from bitmasks(), so the checks cost O(sum of set sizes)
    whatever the spans."""

    __slots__ = ("universe_size", "sets", "_masks")

    def __init__(self, universe_size: int, sets: Sequence[Sequence[int]]):
        if universe_size < 1:
            raise ValidationError("universe must be nonempty")
        n = universe_size
        row = bytearray(b"0") * n
        to_digits = bytes.maketrans(b"c", b"0")
        to_covered = bytes.maketrans(b"1", b"c")
        norm, masks = [], []
        for idx, s in enumerate(sets):
            members = tuple(sorted(s))
            norm.append(members)
            if not members:
                masks.append(0)
                continue
            lo, hi = members[0], members[-1]
            # in range before row[x] is written: row[-1] is its last byte
            if 0 <= lo and hi < n and hi - lo < _SPAN_PER_MEMBER * len(members):
                for x in members:
                    row[x] = 49  # ord("1")
                span = row[lo:hi + 1]
                mask = int(span.translate(to_digits), 2)
                if mask.bit_count() != len(members):
                    raise ValidationError(f"set {idx} has duplicate members")
                row[lo:hi + 1] = span.translate(to_covered)
            else:
                if len(set(members)) != len(members):
                    raise ValidationError(f"set {idx} has duplicate members")
                if not (0 <= lo and hi < n):
                    x = lo if lo < 0 else members[bisect_left(members, n)]
                    raise ValidationError(f"set {idx}: element {x} out of range")
                for x in members:
                    row[x] = 99  # ord("c")
                mask = None
            masks.append(mask)
        if b"0" in row:
            missing = [x for x, c in enumerate(row) if c == 48]  # ord("0")
            raise ValidationError(f"elements {missing} are not covered by any set")
        self.universe_size = universe_size
        self.sets = tuple(norm)
        self._masks = tuple(masks)

    def bitmasks(self) -> tuple[Sequence[int], tuple[int, ...]]:
        """Each set as the greedy's bitmask, masks[i] << shifts[i], in which
        element x is bit n-1-x. masks[i] spans only set i's first to last
        member and shifts[i] = n-1-last places it, so a few members far
        from element n-1 cost a few bits, not n; an empty set has mask and
        shift 0. Masks the check did not build cost O(span) each here."""
        n = self.universe_size
        shifts = tuple(n - 1 - t[-1] if t else 0 for t in self.sets)
        masks = self._masks
        if None in masks:
            masks = list(masks)
            for i, members in enumerate(self.sets):
                if masks[i] is None:
                    lo = members[0]
                    digits = bytearray(b"0") * (members[-1] - lo + 1)
                    for x in members:
                        digits[x - lo] = 49  # ord("1")
                    masks[i] = int(digits, 2)
        return masks, shifts

    @property
    def k(self) -> int:
        return len(self.sets)

    def sets_containing(self, x: int) -> list[int]:
        return [i for i, s in enumerate(self.sets) if x in s]

    def __eq__(self, other):
        return (isinstance(other, SetSystem)
                and self.universe_size == other.universe_size
                and self.sets == other.sets)

    def __repr__(self):
        return f"SetSystem(n={self.universe_size}, k={self.k})"


def entropy_of_counts(counts: Sequence[int]) -> float:
    """Entropy of the normalized count vector, computed as
    log2(total) - (1/total) * sum c*log2(c)."""
    total = sum(counts)
    if total <= 0:
        raise ValidationError("counts must have positive total")
    return math.log2(total) - math.fsum(_xlog2x(c) for c in counts if c) / total


@dataclass(frozen=True)
class IntervalSet:
    """Open intervals with exact rational endpoints."""

    intervals: tuple

    def __init__(self, intervals):
        norm = []
        for (lo, hi) in intervals:
            lo = Fraction(lo)
            hi = Fraction(hi)
            if not lo < hi:
                raise ValidationError(f"interval ({lo},{hi}) is empty")
            norm.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(norm))

    def __len__(self):
        return len(self.intervals)


def _left_sweep(ivs: Sequence[tuple[Fraction, Fraction]], vertices: Sequence[int]):
    """Yield (v, open) over `vertices` in left-endpoint order, ties in given
    order: open lists the earlier-starting intervals still open at v's start
    (touching endpoints do not overlap). v joins open after the yield.

    open is kept in right-endpoint order, so the intervals that end by v's
    start are a prefix found by one bisection, not a test of each one."""
    his: list[Fraction] = []  # right endpoints of open_, ascending
    open_: list[int] = []
    for v in sorted(vertices, key=lambda u: ivs[u][0]):
        lo, hi = ivs[v]
        k = bisect_right(his, lo)
        del his[:k], open_[:k]
        yield v, open_
        k = bisect_left(his, hi)
        his.insert(k, hi)
        open_.insert(k, v)


def _edge_count(ivs: Sequence[tuple[Fraction, Fraction]]) -> int:
    """Edge count of the intervals' intersection graph: all pairs but those
    with hi_u <= lo_v, which at most one order of a pair meets."""
    his = sorted(hi for _, hi in ivs)
    return len(ivs) * (len(ivs) - 1) // 2 - sum(bisect_right(his, lo) for lo, _ in ivs)


def interval_graph(iv: IntervalSet) -> Graph:
    """Intersection graph of an interval set (open-interval convention) from
    one _left_sweep; the edges are sorted, as an all-pairs loop lists them.
    When n(n-1)/2 exceeds WORK_BUDGET the edges are counted first, and more
    than WORK_BUDGET of them raise BudgetError before any is listed."""
    ivs = iv.intervals
    n = len(ivs)
    if n * (n - 1) // 2 > WORK_BUDGET and (m := _edge_count(ivs)) > WORK_BUDGET:
        raise BudgetError(f"{n} intervals overlap in {m} pairs, above the budget {WORK_BUDGET}")
    edges = [(u, v) if u < v else (v, u)
             for v, open_ in _left_sweep(ivs, range(n)) for u in open_]
    return Graph(n, sorted(edges))

