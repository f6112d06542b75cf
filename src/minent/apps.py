"""Application-layer instance builders: haplotype phasing as minimum entropy
set cover, and side-information coding via confusability graphs."""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

from .core import WEIGHT_TOL, WORK_BUDGET, BudgetError, Graph, SetSystem, ValidationError

_DELETE_ALPHABET = str.maketrans("", "", "01?")  # a genotype translates to ""


@dataclass(frozen=True)
class GenotypePanel:
    """Equal-length genotype strings over the alphabet {0, 1, ?}. A refused
    character is quoted with at most the first 40 characters of its genotype."""

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
                quote = repr(s[:40]) + ("..." if len(s) > 40 else "")
                raise ValidationError(f"invalid genotype character in {quote}")
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


def haplotype_instance(panel: GenotypePanel) -> tuple[SetSystem, list[str]]:
    """Build the set-cover instance of haplotype phasing: the universe is the
    genotypes (duplicates kept distinct) and each distinct compatible
    haplotype contributes the set of genotypes it explains. Greedy set cover
    on the result is the maximum-likelihood-style phasing.

    h explains g exactly when h matches g on every non-? position, so each
    genotype is expanded once, filling a %s template per ? with every bit
    pattern, and its index appended to the set of every haplotype it yields:
    O(sum 2^wildcards) rather than a test of every (haplotype, genotype)
    pair. Sets come out in genotype order. Once the characters to expand,
    sum 2^wildcards * length over the genotypes so far, exceed WORK_BUDGET,
    BudgetError is raised before that genotype is expanded. The panel's
    alphabet check keeps any % out of the template."""
    members: defaultdict[str, list[int]] = defaultdict(list)
    length, chars = len(panel.genotypes[0]), 0
    for i, g in enumerate(panel.genotypes):
        holes = g.count("?")
        chars += (1 << holes) * length
        if chars > WORK_BUDGET:
            raise BudgetError(f"genotypes 1-{i + 1} expand to {chars} haplotype characters, "
                              f"above the budget {WORK_BUDGET}")
        template = g.replace("?", "%s")
        for bits in itertools.product("01", repeat=holes):
            members[template % bits].append(i)
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
