"""Application-layer instance builders: haplotype phasing as minimum entropy
set cover, and side-information coding via confusability graphs."""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

from .core import WEIGHT_TOL, WORK_BUDGET, BudgetError, Graph, SetSystem, ValidationError

HAPLOTYPE_CAP = 10 ** 5  # most distinct haplotypes haplotype_instance builds
_DELETE_ALPHABET = str.maketrans("", "", "01?")  # a genotype translates to ""


def _bad_character(genotype: str) -> ValidationError:
    """The refusal of a genotype outside {0, 1, ?}, quoting at most its first
    40 characters."""
    quote = repr(genotype[:40]) + ("..." if len(genotype) > 40 else "")
    return ValidationError(f"invalid genotype character in {quote}")


@dataclass(frozen=True)
class GenotypePanel:
    """Equal-length genotype strings over the alphabet {0, 1, ?}."""

    genotypes: tuple[str, ...]

    def __init__(self, genotypes):
        genotypes = tuple(genotypes)
        if not genotypes:
            raise ValidationError("empty genotype panel")
        length = len(genotypes[0])
        for s in genotypes:
            if len(s) != length:
                raise ValidationError("genotypes must have uniform length")
            if s.translate(_DELETE_ALPHABET):
                raise _bad_character(s)
        object.__setattr__(self, "genotypes", genotypes)


@dataclass(frozen=True)
class JointTable:
    """Joint probability table P(X=x, Y=y) with labeled rows and columns."""

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    probs: tuple[tuple[float, ...], ...]

    def __init__(self, x_labels, y_labels, probs):
        x_labels = tuple(x_labels)
        y_labels = tuple(y_labels)
        probs = tuple(tuple(float(p) for p in row) for row in probs)
        if len(probs) != len(x_labels) or any(len(r) != len(y_labels) for r in probs):
            raise ValidationError("probability matrix shape mismatch")
        if not all(math.isfinite(p) for row in probs for p in row):
            raise ValidationError("non-finite probability entry")
        if any(p < 0 for row in probs for p in row):
            raise ValidationError("negative probability entry")
        try:
            total = math.fsum(p for row in probs for p in row)
        except OverflowError:  # finite entries whose sum exceeds the float range
            total = math.inf
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValidationError(f"table entries sum to {total}, not 1")
        object.__setattr__(self, "x_labels", x_labels)
        object.__setattr__(self, "y_labels", y_labels)
        object.__setattr__(self, "probs", probs)

    def marginal_x(self) -> tuple[float, ...]:
        return tuple(math.fsum(row) for row in self.probs)


def _over_haplotype_cap() -> BudgetError:
    return BudgetError(f"more than {HAPLOTYPE_CAP} distinct haplotypes (apps.HAPLOTYPE_CAP); "
                       "lower the per-genotype wildcard count")


def compatible_haplotypes(genotype: str) -> list[str]:
    """All binary strings matching the genotype on every non-? position, in
    lexicographic order (the first ? is the most significant bit).

    The alphabet is checked first, so no `%` reaches the template; then a
    genotype whose 2^wildcards alone exceeds HAPLOTYPE_CAP is refused before
    any string is built."""
    if genotype.translate(_DELETE_ALPHABET):
        raise _bad_character(genotype)
    holes = genotype.count("?")
    if 1 << holes > HAPLOTYPE_CAP:
        raise _over_haplotype_cap()
    template = genotype.replace("?", "%s")
    return [template % bits for bits in itertools.product("01", repeat=holes)]


def haplotype_instance(panel: GenotypePanel) -> tuple[SetSystem, list[str]]:
    """Build the set-cover instance of haplotype phasing: the universe is the
    genotypes (duplicates kept distinct) and each distinct compatible
    haplotype contributes the set of genotypes it explains. Greedy set cover
    on the result is the maximum-likelihood-style phasing.

    h explains g exactly when h is one of g's compatible haplotypes, so each
    genotype is expanded once and its index appended to the set of every
    haplotype in its list: O(sum 2^wildcards) rather than a test of every
    (haplotype, genotype) pair. Sets come out in genotype order. Once the
    characters expanded so far, sum 2^wildcards * length, exceed WORK_BUDGET,
    BudgetError is raised before that genotype's haplotypes are filed."""
    members: defaultdict[str, list[int]] = defaultdict(list)
    length, chars = len(panel.genotypes[0]), 0
    for i, g in enumerate(panel.genotypes):
        haplotypes = compatible_haplotypes(g)
        chars += len(haplotypes) * length
        if chars > WORK_BUDGET:
            raise BudgetError(f"genotypes 1-{i + 1} expand to {chars} haplotype characters, "
                              f"above the budget {WORK_BUDGET}")
        for h in haplotypes:
            members[h].append(i)
        if len(members) > HAPLOTYPE_CAP:
            raise _over_haplotype_cap()
    labels = sorted(members)
    return SetSystem(len(panel.genotypes), [members[h] for h in labels]), labels


def confusability_graph(t: JointTable) -> Graph:
    """Vertices are the X values, weighted by their marginals; x and x' are
    adjacent when some y has P(x,y) > 0 and P(x',y) > 0. Depends only on the
    zero pattern of the table. More than WORK_BUDGET pair checks,
    nx(nx-1)/2 * ny, raise BudgetError before the first."""
    marg = t.marginal_x()
    for x, p in zip(t.x_labels, marg):
        if p <= 0:
            raise ValidationError(f"symbol {x!r} has zero marginal probability")
    nx, ny = len(t.x_labels), len(t.y_labels)
    if (checks := nx * (nx - 1) // 2 * ny) > WORK_BUDGET:
        raise BudgetError(f"{nx} symbols over {ny} outcomes need {checks} pair checks, "
                          f"above the budget {WORK_BUDGET}")
    edges = []
    for a in range(nx):
        for b in range(a + 1, nx):
            if any(t.probs[a][y] > 0 and t.probs[b][y] > 0
                   for y in range(ny)):
                edges.append((a, b))
    return Graph(nx, edges, marg)
