import math
import random

import pytest

from conftest import traced
from minent import apps
from minent.apps import GenotypePanel, JointTable, confusability_graph, haplotype_instance
from minent.coloring import Coloring, coloring_entropy, greedy_coloring
from minent.core import BudgetError, SetSystem, ValidationError
from minent.setcover import cover_entropy, exact_cover, greedy_cover, likelihood
from oracles import explains

CHANNEL3X2 = JointTable(["a", "b", "c"], ["0", "1"],
                   [[0.25, 0.25], [0.25, 0.0], [0.0, 0.25]])


def _loop_compatible_haplotypes(genotype):
    """Compatible haplotypes built one character at a time, first ? most
    significant, after the same alphabet check."""
    if any(ch not in "01?" for ch in genotype):
        raise ValidationError(f"invalid genotype character in {genotype!r}")
    holes = [i for i, ch in enumerate(genotype) if ch == "?"]
    out = []
    for bits in range(1 << len(holes)):
        chars = list(genotype)
        for j, pos in enumerate(holes):
            chars[pos] = "1" if bits >> (len(holes) - 1 - j) & 1 else "0"
        out.append("".join(chars))
    return out


def _labels(genotype):
    return haplotype_instance(GenotypePanel([genotype]))[1]


def test_compatible_haplotypes():
    assert _labels("0?") == ["00", "01"]
    assert _labels("10") == ["10"]
    assert _labels("??") == ["00", "01", "10", "11"]


def test_compatible_haplotypes_matches_character_loop():
    """A one-genotype panel's labels are its compatible haplotypes, each
    explaining the one genotype."""
    genotypes = ["", "?", "?" * 12, "0", "1"]
    for seed in range(120):
        rng = random.Random(seed)
        holes = seed % 13
        chars = ["?"] * holes + [rng.choice("01") for _ in range(rng.randrange(0, 10))]
        rng.shuffle(chars)
        genotypes.append("".join(chars))
    for g in genotypes:
        expected = _loop_compatible_haplotypes(g)
        system, labels = haplotype_instance(GenotypePanel([g]))
        assert labels == expected, g
        assert system.sets == ((0,),) * len(expected), g


@pytest.mark.parametrize("genotype", ["0%?", "0\u0661?", "01?2", "%" + "?" * 21],
                         ids=["percent", "arabic-indic-one", "digit-2", "percent-21-wildcards"])
def test_compatible_haplotypes_errors_match_character_loop(genotype):
    """The panel is the one genotype validator: it refuses what the loop
    refuses, with the same message, before any haplotype is built."""
    with pytest.raises(ValidationError) as old:
        _loop_compatible_haplotypes(genotype)
    with pytest.raises(ValidationError) as new:
        GenotypePanel([genotype])
    assert str(new.value) == str(old.value)


def test_haplotype_instance_refuses_expanded_characters_past_the_work_budget(monkeypatch):
    panel = GenotypePanel(["0?", "1?"])  # 2 + 2 haplotypes of 2 characters
    monkeypatch.setattr(apps, "WORK_BUDGET", 8)
    assert haplotype_instance(panel)[1] == ["00", "01", "10", "11"]
    monkeypatch.setattr(apps, "WORK_BUDGET", 7)
    with pytest.raises(BudgetError, match=r"^genotypes 1-2 expand to 8 haplotype characters, "
                       r"above the budget 7$"):
        haplotype_instance(panel)
    # one genotype whose own expansion is the whole count: 4 haplotypes of 2
    monkeypatch.setattr(apps, "WORK_BUDGET", 8)
    assert haplotype_instance(GenotypePanel(["??"]))[1] == ["00", "01", "10", "11"]
    monkeypatch.setattr(apps, "WORK_BUDGET", 7)
    with pytest.raises(BudgetError, match=r"^genotypes 1-1 expand to 8 haplotype characters, "
                       r"above the budget 7$"):
        haplotype_instance(GenotypePanel(["??"]))


def test_haplotype_instance_holds_each_member_list_once():
    # All 256 haplotypes explain all 200 genotypes. The member lists were
    # all held while the set system built its tuples: a peak 1.9 times
    # what the instance keeps.
    (s, labels), peak, held = traced(haplotype_instance, GenotypePanel(["?" * 8] * 200))
    assert s.k == len(labels) == 256 and s.sets[0] == tuple(range(200))
    assert peak < 1.5 * held


def test_haplotype_instance_refuses_a_64_wildcard_genotype_before_expanding_it():
    panel = GenotypePanel(["?" * 64])
    refusal, peak, _ = traced(pytest.raises, BudgetError, haplotype_instance, panel)
    refusal.match(f"^genotypes 1-1 expand to {2 ** 64 * 64} haplotype characters, "
                  r"above the budget 10000000$")
    assert peak < 2_000_000


def test_haplotype_instance_accepts_17_wildcards():
    # 2^17 haplotypes of 17 characters: 2,228,224, inside the budget
    system, labels = haplotype_instance(GenotypePanel(["?" * 17]))
    assert len(labels) == system.k == 131_072
    assert labels[0] == "0" * 17 and labels[-1] == "1" * 17
    assert labels == sorted(set(labels))


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
    labels = sorted({h for g in panel.genotypes for h in _loop_compatible_haplotypes(g)})
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
