import math
import random

import pytest

from minent import apps
from minent.apps import (GenotypePanel, JointTable, compatible_haplotypes, confusability_graph,
                         haplotype_instance)
from minent.coloring import Coloring, coloring_entropy, greedy_coloring
from minent.core import BudgetError, SetSystem, ValidationError
from minent.setcover import cover_entropy, exact_cover, greedy_cover, likelihood
from oracles import explains

CHANNEL3X2 = JointTable(["a", "b", "c"], ["0", "1"],
                   [[0.25, 0.25], [0.25, 0.0], [0.0, 0.25]])


def test_compatible_haplotypes():
    assert compatible_haplotypes("0?") == ["00", "01"]
    assert compatible_haplotypes("10") == ["10"]
    assert compatible_haplotypes("??") == ["00", "01", "10", "11"]


def test_compatible_haplotypes_errors():
    with pytest.raises(ValidationError):
        compatible_haplotypes("0x1")
    assert len(compatible_haplotypes("?" * 16)) == 2 ** 16 <= apps.HAPLOTYPE_CAP
    for holes in (17, 25):
        with pytest.raises(BudgetError):
            compatible_haplotypes("?" * holes)


def _loop_compatible_haplotypes(genotype):
    """Compatible haplotypes built one character at a time, first ? most
    significant, with the same checks in the same order."""
    if any(ch not in "01?" for ch in genotype):
        raise ValidationError(f"invalid genotype character in {genotype!r}")
    holes = [i for i, ch in enumerate(genotype) if ch == "?"]
    if 2 ** len(holes) > apps.HAPLOTYPE_CAP:
        raise BudgetError(f"more than {apps.HAPLOTYPE_CAP} distinct haplotypes "
                          "(apps.HAPLOTYPE_CAP); lower the per-genotype wildcard count")
    out = []
    for bits in range(1 << len(holes)):
        chars = list(genotype)
        for j, pos in enumerate(holes):
            chars[pos] = "1" if bits >> (len(holes) - 1 - j) & 1 else "0"
        out.append("".join(chars))
    return out


def test_compatible_haplotypes_matches_character_loop():
    genotypes = ["", "?", "?" * 12, "0", "1"]
    for seed in range(120):
        rng = random.Random(seed)
        holes = seed % 13
        chars = ["?"] * holes + [rng.choice("01") for _ in range(rng.randrange(0, 10))]
        rng.shuffle(chars)
        genotypes.append("".join(chars))
    for g in genotypes:
        assert compatible_haplotypes(g) == _loop_compatible_haplotypes(g), g


@pytest.mark.parametrize("genotype", ["0%?", "0\u0661?", "01?2", "?" * 17 + "01", "?" * 21,
                                     "%" + "?" * 21],
                         ids=["percent", "arabic-indic-one", "digit-2", "17-wildcards",
                              "21-wildcards", "percent-21-wildcards"])
def test_compatible_haplotypes_errors_match_character_loop(genotype):
    with pytest.raises((ValidationError, BudgetError)) as old:
        _loop_compatible_haplotypes(genotype)
    with pytest.raises((ValidationError, BudgetError)) as new:
        compatible_haplotypes(genotype)
    assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))


def test_haplotype_instance_over_cap(monkeypatch):
    monkeypatch.setattr(apps, "HAPLOTYPE_CAP", 3)
    _, labels = haplotype_instance(GenotypePanel(["0?", "?0"]))
    assert labels == ["00", "01", "10"]  # at the cap is allowed
    with pytest.raises(BudgetError, match=r"^more than 3 distinct haplotypes "
                       r"\(apps\.HAPLOTYPE_CAP\)"):
        haplotype_instance(GenotypePanel(["0?", "??"]))
    # each genotype has 2 haplotypes, the panel 4: refused by the panel's count
    with pytest.raises(BudgetError, match=r"^more than 3 distinct haplotypes "
                       r"\(apps\.HAPLOTYPE_CAP\)"):
        haplotype_instance(GenotypePanel(["0?", "1?"]))


def test_haplotype_instance_refuses_expanded_characters_past_the_work_budget(monkeypatch):
    panel = GenotypePanel(["0?", "1?"])  # 2 + 2 haplotypes of 2 characters
    monkeypatch.setattr(apps, "WORK_BUDGET", 8)
    assert haplotype_instance(panel)[1] == ["00", "01", "10", "11"]
    monkeypatch.setattr(apps, "WORK_BUDGET", 7)
    with pytest.raises(BudgetError, match=r"^genotypes 1-2 expand to 8 haplotype characters, "
                       r"above the budget 7$"):
        haplotype_instance(panel)
    # a genotype over the distinct-haplotype cap keeps that refusal
    monkeypatch.setattr(apps, "HAPLOTYPE_CAP", 3)
    monkeypatch.setattr(apps, "WORK_BUDGET", 1)
    with pytest.raises(BudgetError, match=r"^more than 3 distinct haplotypes"):
        haplotype_instance(GenotypePanel(["??"]))


def test_confusability_graph_refuses_pair_checks_past_the_work_budget(monkeypatch):
    # 3 symbols over 2 outcomes: 3 pairs of 2 checks each
    monkeypatch.setattr(apps, "WORK_BUDGET", 6)
    assert confusability_graph(CHANNEL3X2).edges == ((0, 1), (0, 2))
    monkeypatch.setattr(apps, "WORK_BUDGET", 5)
    with pytest.raises(BudgetError, match=r"^3 symbols over 2 outcomes need 6 pair checks, "
                       r"above the budget 5$"):
        confusability_graph(CHANNEL3X2)


def test_genotype_panel_validation():
    with pytest.raises(ValidationError):
        GenotypePanel([])
    with pytest.raises(ValidationError):
        GenotypePanel(["01", "0"])
    with pytest.raises(ValidationError):
        GenotypePanel(["02"])


def test_haplotype_instance_worked_panel():
    panel = GenotypePanel(["0?", "?1"])
    system, labels = haplotype_instance(panel)
    assert labels == ["00", "01", "11"]
    assert system.sets == ((0,), (0, 1), (1,))
    cover, _ = greedy_cover(system)
    assert cover.assignment == (1, 1)  # both genotypes phased to haplotype 01
    assert cover_entropy(cover) == 0.0


def test_haplotype_instance_no_wildcards():
    panel = GenotypePanel(["01", "01", "11"])
    system, labels = haplotype_instance(panel)
    assert labels == ["01", "11"]
    cover, _ = greedy_cover(system)
    # duplicates stay distinct universe elements
    assert system.universe_size == 3
    assert cover.induced_counts == (2, 1)


def test_haplotype_sets_roundtrip():
    panel = GenotypePanel(["0??", "?10", "1?1"])
    system, labels = haplotype_instance(panel)
    for h, members in zip(labels, system.sets):
        for i, g in enumerate(panel.genotypes):
            assert (i in members) == explains(h, g)


def _pairwise_instance(panel):
    """The haplotype instance built by testing every (haplotype, genotype)
    pair with `explains`."""
    labels = sorted({h for g in panel.genotypes for h in compatible_haplotypes(g)})
    sets = [[i for i, g in enumerate(panel.genotypes) if explains(h, g)] for h in labels]
    return SetSystem(len(panel.genotypes), sets), labels


def test_haplotype_instance_matches_pairwise_construction():
    panels = [GenotypePanel(["0"]), GenotypePanel(["?"]), GenotypePanel(["01", "01", "10"]),
              GenotypePanel(["??", "??", "0?"])]
    for seed in range(200):
        rng = random.Random(seed)
        length = rng.randrange(1, 8)
        wild = rng.choice([0.0, 0.2, 0.5])
        pool = ["".join("?" if rng.random() < wild else rng.choice("01")
                        for _ in range(length)) for _ in range(rng.randrange(1, 6))]
        # drawn from a small pool, so genotypes repeat
        panels.append(GenotypePanel(rng.choice(pool) for _ in range(rng.randrange(1, 16))))
    for panel in panels:
        assert haplotype_instance(panel) == _pairwise_instance(panel), panel.genotypes


def test_phasing_likelihood_bound():
    panel = GenotypePanel(["0?", "?1", "1?", "11"])
    system, _ = haplotype_instance(panel)
    n = system.universe_size
    greedy, _ = greedy_cover(system)
    best = exact_cover(system)
    assert likelihood(greedy) >= likelihood(best) - n * math.log2(math.e) - 1e-9


def test_joint_table_validation():
    with pytest.raises(ValidationError):
        JointTable(["a"], ["0"], [[0.5]])
    with pytest.raises(ValidationError):
        JointTable(["a"], ["0", "1"], [[1.2, -0.2]])


def test_confusability_graph_worked_table():
    g = confusability_graph(CHANNEL3X2)
    assert set(g.edges) == {(0, 1), (0, 2)}  # {a,b} and {a,c}, never {b,c}
    assert g.weights == pytest.approx((0.5, 0.25, 0.25))


def test_confusability_graph_all_positive_is_complete():
    t = JointTable(["a", "b", "c"], ["0", "1"], [[1 / 6] * 2] * 3)
    assert confusability_graph(t).m == 3


def test_confusability_graph_diagonal_is_edgeless():
    t = JointTable(["a", "b"], ["0", "1"], [[0.5, 0.0], [0.0, 0.5]])
    g = confusability_graph(t)
    assert g.m == 0
    assert coloring_entropy(g, Coloring([1, 1])) == 0.0


def test_confusability_zero_marginal_rejected():
    with pytest.raises(ValidationError):
        confusability_graph(JointTable(["a", "b"], ["0"], [[1.0], [0.0]]))


def test_confusability_invariant_under_positive_rescaling():
    scaled = [[4 * p for p in row] for row in CHANNEL3X2.probs]
    total = sum(p for row in scaled for p in row)
    t2 = JointTable(CHANNEL3X2.x_labels, CHANNEL3X2.y_labels,
                    [[p / total for p in row] for row in scaled])
    assert confusability_graph(t2).edges == confusability_graph(CHANNEL3X2).edges


def test_code_rate_examples():
    # the code rate is the coloring entropy under the marginal weights
    uniform = JointTable(["a", "b", "c"], ["0", "1"],
                         [[1 / 6, 1 / 6], [1 / 3, 0.0], [0.0, 1 / 3]])
    g = confusability_graph(uniform)
    rate = coloring_entropy(g, Coloring([2, 1, 1]))  # {b,c} share a codeword
    assert rate == pytest.approx(0.9183, abs=1e-3)
    # rainbow coloring rate is exactly H(P(X))
    rainbow = coloring_entropy(g, Coloring([1, 2, 3]))
    hx = -math.fsum(p * math.log2(p) for p in g.weights)
    assert rainbow == pytest.approx(hx, abs=1e-12)


def test_greedy_coloring_on_confusability_graph():
    g = confusability_graph(CHANNEL3X2)
    col = greedy_coloring(g)
    assert coloring_entropy(g, col) <= 1.0 + 1e-9
