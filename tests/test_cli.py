import gc
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import minent
from minent import apps, graphent
from minent import io as mio
from minent.cli import _GEN_KINDS, main
from minent.core import BudgetError, Graph, IntervalSet, SetSystem, ValidationError
from minent.io import (MAX_GRAPH_VERTICES, ParseError, parse_graph,
                       parse_intervals, parse_joint_table, parse_setcover,
                       random_graph, random_intervals,
                       random_regular_graph, random_setcover, serialize_graph,
                       serialize_intervals, serialize_setcover)
from oracles import random_connected_graph

WORKED_SC = "setcover 4 3\n0 1 2\n2 3\n3\n"


def test_parse_graph():
    g = parse_graph("graph 3 2\n0 1\n1 2\n")
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))


def test_parse_graph_weights():
    g = parse_graph("graph 2 1\n0 1\nweights 0.25 0.75\n")
    assert g.weights == (0.25, 0.75)


def test_parse_graph_errors():
    with pytest.raises(ParseError):
        parse_graph("graph 3 2\n0 1\n0 1\n")  # duplicate edge
    with pytest.raises(ParseError):
        parse_graph("graph 3\n")
    with pytest.raises(ParseError):
        parse_graph("graph 2 1\n0 5\n")
    with pytest.raises(ParseError) as err:
        parse_graph("graph 3 2\n0 1\nx y\n")
    assert "line 3" in str(err.value)


def test_parse_setcover():
    s = parse_setcover(WORKED_SC)
    assert s.universe_size == 4
    assert s.sets == ((0, 1, 2), (2, 3), (3,))


def test_parse_intervals():
    iv = parse_intervals("intervals 2\n0/1 2/1\n1/2 3/2\n")
    assert iv.intervals == ((Fraction(0), Fraction(2)), (Fraction(1, 2), Fraction(3, 2)))
    with pytest.raises(ParseError):
        parse_intervals("intervals 1\n1/1 1/1\n")


def test_parse_intervals_refuses_more_intervals_than_graph_vertices(monkeypatch):
    monkeypatch.setattr(mio, "MAX_GRAPH_VERTICES", 2)
    assert len(parse_intervals("intervals 2\n0/1 1/1\n0/1 1/1\n")) == 2
    with pytest.raises(ParseError, match=r"^line 1: more than 2 intervals$"):
        parse_intervals("intervals 3\n0/1 1/1\n0/1 1/1\n0/1 1/1\n")


def test_roundtrip_graph():
    g = Graph(4, [(0, 1), (2, 3)], weights=[0.1, 0.2, 0.3, 0.4])
    assert parse_graph(serialize_graph(g)) == g
    g2 = Graph(5, [(0, 4), (1, 3)])
    assert parse_graph(serialize_graph(g2)) == g2


def test_roundtrip_setcover():
    s = SetSystem(4, [[0, 1, 2], [2, 3], [3]])
    assert parse_setcover(serialize_setcover(s)) == s


def test_roundtrip_intervals():
    iv = IntervalSet([(Fraction(1, 3), Fraction(2, 3)), (0, 5)])
    assert parse_intervals(serialize_intervals(iv)) == iv


def test_parse_joint_table():
    t = parse_joint_table("x,0,1\na,0.25,0.25\nb,0.25,0\nc,0,0.25\n")
    assert t.x_labels == ("a", "b", "c")
    assert t.probs[1] == (0.25, 0.0)


def test_generators_deterministic():
    assert random_graph(8, 9, seed=5) == random_graph(8, 9, seed=5)
    assert random_setcover(6, 3, seed=2).sets == random_setcover(6, 3, seed=2).sets
    assert random_intervals(5, seed=4) == random_intervals(5, seed=4)


def test_regular_generator():
    g = random_regular_graph(10, 3, seed=0)
    assert g.m == 15
    assert all(len(a) == 3 for a in g.adjacency)


def test_regular_generator_refuses_hopeless_degree_before_shuffling():
    # a pairing of degree 8 is simple with probability about 1.4e-7: the
    # MAX_TRIES shuffles of 8,000 stubs took 39 s before failing
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        random_regular_graph(1000, 8)
    assert time.perf_counter() - start < 1.0


def test_cli_gen_regular_hopeless_degree_exits_2(capsys):
    argv = ["gen", "random", "--kind", "regular", "--n", "1000", "--delta", "8"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_regular_generator_refuses_negative_degree():
    with pytest.raises(ValidationError):
        random_regular_graph(10, -1)


def test_setcover_generator_refuses_hopeless_sizes_before_drawing():
    # a draw covers 3000 elements with 5 sets with probability about
    # (1 - 2^-5)^3000 = 6e-42: the MAX_TRIES redraws took about 20 s
    start = time.perf_counter()
    with pytest.raises(BudgetError):
        random_setcover(3000, 5)
    # covering is near certain here, but a draw would flip n·k = 10,001,000
    # coins, above WORK_BUDGET = 10^7
    with pytest.raises(BudgetError, match="budget"):
        random_setcover(10_001, 1000)
    assert time.perf_counter() - start < 1.0
    for k in (0, -1):
        with pytest.raises(ValidationError):
            random_setcover(5, k)


@pytest.mark.parametrize("argv, err", [
    (["random", "--kind", "regular", "--n", "10", "--delta", "-1"],
     "need n*d even and 0 <= d < n"),
    (["random", "--kind", "setcover", "--n", "3000", "--k", "5"],
     "covering 3000 elements with k = 5 random sets succeeds with probability about "
     "(1-2^-k)^n, below 1/10000"),
    (["random", "--kind", "setcover", "--n", "5", "--k", "0"], "need at least one set"),
    (["random", "--kind", "setcover", "--n", "1000000", "--k", "10000"],
     "n*k = 10000000000 membership draws exceed the budget 10000000"),
    (["jk", "--k", "1414"], "J_1414 has more than 1000000 intervals"),
    (["jk", "--k", "0"], "k must be >= 1"),
    (["random", "--kind", "interval", "--n", "-3"], "interval count must be in [0, 1000000]"),
    (["random", "--kind", "interval", "--n", "2000000"],
     "interval count must be in [0, 1000000]"),
], ids=["regular-negative-degree", "setcover-hopeless", "setcover-no-sets",
        "setcover-over-budget", "jk-above-cap", "jk-zero", "interval-negative-count",
        "interval-above-cap"])
def test_cli_gen_refusal_exits_2_at_once(capsys, argv, err):
    start = time.perf_counter()
    assert _exit_and_streams(capsys, ["gen"] + argv) == (2, "", f"error: {err}\n")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("action", [["orient", "biased"], ["color", "interval"]])
def test_cli_intervals_over_edge_budget_exit_2_at_once(tmp_path, capsys, action):
    # 5,000 copies of one interval: 12,497,500 overlapping pairs in a 40 KB file
    f = tmp_path / "same.iv"
    f.write_text("intervals 5000\n" + "0/1 1/1\n" * 5000)
    start = time.perf_counter()
    assert main(action + ["--input", str(f)]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "budget" in err
    assert "Traceback" not in err


def _tree_plus_pair_list_graph(n, m, seed):
    """The connected graph drawn by listing every pair off the random tree."""
    rng = random.Random(seed)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges.update(rng.sample(rest, m - len(edges)))
    return Graph(n, sorted(edges))


def test_random_connected_graph_matches_pair_list_sampler():
    for n in range(30):
        total = n * (n - 1) // 2
        for m in sorted({n - 1, n, total // 2, total}):
            if not max(n - 1, 0) <= m <= total:
                continue
            for seed in range(4):
                assert random_connected_graph(n, m, seed) == \
                    _tree_plus_pair_list_graph(n, m, seed), (n, m, seed)


def test_random_connected_graph_lists_no_pairs():
    # listing the 4.5 million pairs peaked at about 415 MB
    tracemalloc.start()
    try:
        g = random_connected_graph(3000, 3000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == 3000
    assert peak < 10_000_000


def test_interval_generator_feeds_pipeline():
    from minent.coloring import exact_coloring, interval_mec
    from minent.core import interval_graph
    iv = random_intervals(8, seed=1)
    interval_mec(iv)
    exact_coloring(interval_graph(iv))


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_cli_setcover_greedy(tmp_path, capsys):
    f = tmp_path / "ex.sc"
    f.write_text(WORKED_SC)
    code, out = _run(capsys, ["setcover", "greedy", "--input", str(f), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["entropy_bits"] == pytest.approx(0.8113, abs=1e-3)
    assert report["counts"] == [3, 1, 0]


def test_cli_setcover_certify(tmp_path, capsys):
    f = tmp_path / "ex.sc"
    f.write_text(WORKED_SC)
    code, out = _run(capsys, ["setcover", "certify", "--input", str(f),
                              "--json", "--assert-bound"])
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == []
    assert report["checks"]["dual_feasible"] is True


def test_cli_orient_estimate(tmp_path, capsys):
    g = random_regular_graph(8, 4, seed=3)
    f = tmp_path / "reg.g"
    f.write_text(serialize_graph(g))
    code, out = _run(capsys, ["orient", "estimate", "--input", str(f),
                              "--epsilon", "0.5", "--delta", "0.05",
                              "--seed", "7", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["s"] == 473  # Delta = 4
    assert "H" in report


def test_cli_color_interval(tmp_path, capsys):
    f = tmp_path / "iv.txt"
    f.write_text(serialize_intervals(random_intervals(6, seed=2)))
    code, out = _run(capsys, ["color", "interval", "--input", str(f), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["entropy_bits"] <= report["lower_bound_H"] + 1.0 + 1e-9


def test_cli_graphent_split(tmp_path, capsys):
    f = tmp_path / "c4.g"
    f.write_text("graph 4 4\n0 1\n1 2\n2 3\n0 3\n")
    code, out = _run(capsys, ["graphent", "split", "--input", str(f),
                              "--json", "--assert-bound"])
    assert code == 0
    assert abs(json.loads(out)["gap_bits"]) <= 2e-6


def test_cli_gen_jk(capsys):
    code = main(["gen", "jk", "--k", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(parse_intervals(out)) == 6


def test_cli_app_confusability(tmp_path, capsys):
    f = tmp_path / "t.csv"
    f.write_text("x,0,1\na,0.25,0.25\nb,0.25,0\nc,0,0.25\n")
    code, out = _run(capsys, ["app", "confusability", "--input", str(f), "--json"])
    assert code == 0
    report = json.loads(out)
    assert sorted(map(tuple, report["edges"])) == [("a", "b"), ("a", "c")]


def test_cli_app_haplotype(tmp_path, capsys):
    f = tmp_path / "panel.txt"
    f.write_text("0?\n?1\n")
    code, out = _run(capsys, ["app", "haplotype", "--input", str(f), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["entropy_bits"] == 0.0
    assert report["assignment"] == ["01", "01"]


def test_cli_app_haplotype_refuses_a_wide_genotype_before_expanding_it(tmp_path, capsys):
    # 2^20 compatible haplotypes of 24 characters: expanded, they peak at
    # about 208 MB
    f = tmp_path / "panel.txt"
    f.write_text("?" * 20 + "0101\n")
    tracemalloc.start()
    try:
        code = main(["app", "haplotype", "--input", str(f)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == ("error: genotypes 1-1 expand to 25165824 haplotype "
                                       "characters, above the budget 10000000\n")
    assert peak < 10_000_000


ORIENT_GRAPH = "graph 5 6\n0 1\n1 2\n2 3\n0 3\n3 4\n1 4\n"
ORIENT_DIRECTION = "[[0, 1], [2, 1], [2, 3], [0, 3], [4, 3], [4, 1]]"


def _timed_outputs(capsys, argv):
    """The JSON and the text report of one call, with the timing masked."""
    outs = []
    for extra in (["--json"], []):
        code, out = _run(capsys, argv + extra)
        assert code == 0
        outs.append(re.sub(r'timing_ms("?): [0-9.e+-]+', r"timing_ms\1: T", out))
    return outs


def _stars(k, leaves):
    """A graph file of k disjoint stars with `leaves` leaves each."""
    edges = [(s * (leaves + 1), s * (leaves + 1) + i) for s in range(k)
             for i in range(1, leaves + 1)]
    return f"graph {k * (leaves + 1)} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


# 3,163 symbols over 2 outcomes: 10,001,406 pair checks
WIDE_TABLE = "x,0,1\n" + "".join(f"a{i},{0.5 / 3163!r},{0.5 / 3163!r}\n" for i in range(3163))


@pytest.mark.parametrize("patch, argv, text, err, peak_bytes", [
    # 256 maximal independent sets on 88 vertices: 22,528 incidence cells
    ((graphent, 15_000), ["graphent", "compute", "--tol", "1"], _stars(8, 10),
     "more than 170 maximal independent sets on 88 vertices, "
     "above the budget 15000 incidence cells", 100_000),
    (None, ["graphent", "split"], _stars(2, 2236),
     "the complement of a graph on 4474 vertices has 10001629 edges, "
     "above the budget 10000000", 4_000_000),
    # past the pair budget too, but the colouring oracle's cap is checked
    # before the graph is built
    (None, ["app", "confusability"], WIDE_TABLE,
     "exact MIS oracle limited to 40 vertices", 4_000_000),
    (None, ["app", "confusability", "--color", "exact"], WIDE_TABLE,
     "exact coloring oracle limited to 15 vertices", 4_000_000),
    # every genotype has 4,096 haplotypes; the 21st brings the panel past 10^6
    # characters
    ((apps, 1_000_000), ["app", "haplotype"], ("?" * 12 + "\n") * 300,
     "genotypes 1-21 expand to 1032192 haplotype characters, above the budget 1000000",
     4_000_000),
], ids=["star-forest-sets", "two-stars-complement", "table-pair-checks",
        "table-over-coloring-cap", "panel-characters"])
def test_cli_refuses_past_the_work_budget_before_building(tmp_path, capsys, monkeypatch,
                                                          patch, argv, text, err, peak_bytes):
    """Scaled-down forms of inputs whose output grows faster than the input
    exit 2 with the budget's message, or with the cap of the oracle that
    would run next, before the output is built."""
    if patch is not None:
        monkeypatch.setattr(patch[0], "WORK_BUDGET", patch[1])
    f = tmp_path / "input.txt"
    f.write_text(text)
    argv = argv + ["--input", str(f)]
    main(argv)  # the traced call below then allocates no module it imports
    capsys.readouterr()
    tracemalloc.start()
    try:
        streams = _exit_and_streams(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert streams == (2, "", f"error: {err}\n")
    assert peak < peak_bytes


@pytest.mark.parametrize("action", ["biased", "exact"])
def test_cli_orient_output_bytes(tmp_path, capsys, monkeypatch, action):
    """Both report modes, byte for byte apart from the timing: JSON writes the
    direction tuples as lists, text prints the lists' repr. The command is
    the argv given to main, not the host process's."""
    (tmp_path / "g.txt").write_text(ORIENT_GRAPH)
    monkeypatch.chdir(tmp_path)
    outs = _timed_outputs(capsys, ["orient", action, "--input", "g.txt"])
    assert outs[0] == (
        f'{{"checks": {{}}, "command": "orient {action} --input g.txt --json", '
        f'"direction": {ORIENT_DIRECTION}, "entropy_bits": 1.0, '
        '"indegrees": [0, 3, 0, 3, 0], "input_digest": '
        '"cd8483cd418403820cd2de67341b94452604fd68585777748d68efe97ecbb920", '
        '"seed": 0, "timing_ms": T}\n')
    assert outs[1] == (f"checks: {{}}\ndirection: {ORIENT_DIRECTION}\nentropy_bits: 1.0\n"
                       "indegrees: [0, 3, 0, 3, 0]\nseed: 0\ntiming_ms: T\n")


@pytest.mark.parametrize("extra, fields", [
    ([], {"H": "1.2799784058160126", "delta": "0.05", "epsilon": "0.5", "s": "167",
          "seed": "0"}),
    (["--seed", "3", "--one-sided", "--epsilon", "0.25", "--delta", "0.1"],
     {"H": "1.3874413976640116", "delta": "0.1", "epsilon": "0.25", "s": "542",
      "seed": "3"}),
], ids=["default", "one-sided"])
def test_cli_orient_estimate_output_bytes(tmp_path, capsys, monkeypatch, extra, fields):
    """The estimate and its Hoeffding sample count s, in both report modes."""
    (tmp_path / "g.txt").write_text(ORIENT_GRAPH)
    monkeypatch.chdir(tmp_path)
    argv = ["orient", "estimate", "--input", "g.txt"] + extra
    outs = _timed_outputs(capsys, argv)
    f = fields
    assert outs[0] == (
        f'{{"H": {f["H"]}, "checks": {{}}, "command": "{" ".join(argv)} --json", '
        f'"delta": {f["delta"]}, "epsilon": {f["epsilon"]}, "input_digest": '
        '"cd8483cd418403820cd2de67341b94452604fd68585777748d68efe97ecbb920", '
        f'"s": {f["s"]}, "seed": {f["seed"]}, "timing_ms": T}}\n')
    assert outs[1] == (f"H: {f['H']}\nchecks: {{}}\ndelta: {f['delta']}\n"
                       f"epsilon: {f['epsilon']}\ns: {f['s']}\nseed: {f['seed']}\n"
                       "timing_ms: T\n")


# The solvers colour these inputs so that colour numbers do not follow the
# first vertex of each class: the greedy colourings give vertex 0 colour 2,
# and interval_mec colours the intervals (2, 3, 1, 1) from layer 2's odd
# colour down. The reports list classes by their first vertex all the same.
# exact_coloring's vector is canonical, so its colours already follow it.
COLOR_GRAPH = "graph 5 5\n0 1\n0 2\n0 3\n0 4\n1 2\n"
COLOR_INTERVALS = "intervals 4\n5/1 9/1\n1/1 6/1\n2/1 5/1\n6/1 7/1\n"
COLOR_TABLE = "x,0,1\na,0.1,0.1\nb,0.4,0\nc,0,0.4\n"


@pytest.mark.parametrize("action", ["greedy", "greedy-approx", "exact"])
def test_cli_color_output_bytes(tmp_path, capsys, monkeypatch, action):
    (tmp_path / "g.txt").write_text(COLOR_GRAPH)
    monkeypatch.chdir(tmp_path)
    outs = _timed_outputs(capsys, ["color", action, "--input", "g.txt"])
    assert outs[0] == (
        '{"checks": {}, "classes": [[0], [1, 3, 4], [2]], '
        f'"command": "color {action} --input g.txt --json", '
        '"entropy_bits": 1.3709505944546685, "input_digest": '
        '"0f8c7349482452451c1daec45527a75e6741b88a1c50d92079319ce29de908aa", '
        '"seed": 0, "timing_ms": T}\n')
    assert outs[1] == ("checks: {}\nclasses: [[0], [1, 3, 4], [2]]\n"
                       "entropy_bits: 1.3709505944546685\nseed: 0\ntiming_ms: T\n")


def test_cli_color_interval_output_bytes(tmp_path, capsys, monkeypatch):
    (tmp_path / "iv.txt").write_text(COLOR_INTERVALS)
    monkeypatch.chdir(tmp_path)
    outs = _timed_outputs(capsys, ["color", "interval", "--input", "iv.txt"])
    assert outs[0] == (
        '{"checks": {"within_one_bit": true}, "classes": [[0], [1], [2, 3]], '
        '"command": "color interval --input iv.txt --json", "entropy_bits": 1.5, '
        '"input_digest": "16e549729f32e65848c8a337b6cbd1eeeba61a87203fe6160f3c772c980f9657", '
        '"layers": [[2, 3], [0, 1]], "lower_bound_H": 1.0, "seed": 0, "timing_ms": T}\n')
    assert outs[1] == ("checks: {'within_one_bit': True}\nclasses: [[0], [1], [2, 3]]\n"
                       "entropy_bits: 1.5\nlayers: [[2, 3], [0, 1]]\nlower_bound_H: 1.0\n"
                       "seed: 0\ntiming_ms: T\n")


def test_cli_crlf_graph_reads_as_its_lf_twin(tmp_path, capsys, monkeypatch):
    """The text-mode read turns "\r\n" into "\n", and the parsers strip a
    bare "\r" line end, so both give COLOR_GRAPH's report byte for byte."""
    (tmp_path / "g.txt").write_bytes(COLOR_GRAPH.replace("\n", "\r\n").encode())
    assert parse_graph(COLOR_GRAPH.replace("\n", "\r\n")) == parse_graph(COLOR_GRAPH)
    monkeypatch.chdir(tmp_path)
    outs = _timed_outputs(capsys, ["color", "greedy", "--input", "g.txt"])
    assert outs[0] == (
        '{"checks": {}, "classes": [[0], [1, 3, 4], [2]], '
        '"command": "color greedy --input g.txt --json", '
        '"entropy_bits": 1.3709505944546685, "input_digest": '
        '"0f8c7349482452451c1daec45527a75e6741b88a1c50d92079319ce29de908aa", '
        '"seed": 0, "timing_ms": T}\n')


@pytest.mark.parametrize("extra", [[], ["--color", "exact"]], ids=["greedy", "exact"])
def test_cli_app_confusability_output_bytes(tmp_path, capsys, monkeypatch, extra):
    # greedy colours {b, c} first (mass 0.8 against a's 0.2)
    (tmp_path / "t.csv").write_text(COLOR_TABLE)
    monkeypatch.chdir(tmp_path)
    argv = ["app", "confusability", "--input", "t.csv"] + extra
    outs = _timed_outputs(capsys, argv)
    assert outs[0] == (
        '{"checks": {}, "classes": [["a"], ["b", "c"]], '
        f'"command": "{" ".join(argv)} --json", '
        '"edges": [["a", "b"], ["a", "c"]], "input_digest": '
        '"58cf040247146d091f62f73990e84086a9e1acc0dca44884cf5d473d27135925", '
        '"marginals": [0.2, 0.4, 0.4], "rate_bits": 0.7219280948873623, '
        '"seed": 0, "timing_ms": T}\n')
    assert outs[1] == ("checks: {}\nclasses: [['a'], ['b', 'c']]\n"
                       "edges: [['a', 'b'], ['a', 'c']]\nmarginals: [0.2, 0.4, 0.4]\n"
                       "rate_bits: 0.7219280948873623\nseed: 0\ntiming_ms: T\n")


@pytest.mark.parametrize("argv, text, err", [
    (["orient", "estimate"], "graph 3 0\n", "max degree must be >= 1"),
    (["orient", "estimate"], "graph 0 0\n", "max degree must be >= 1"),
    (["orient", "estimate"], "graph 3 2\n0 1\n1 2\n",
     "estimator requires at least as many edges as vertices"),
    (["orient", "estimate", "--epsilon", "1e-4"], "graph 3 2\n0 1\n1 2\n",
     "epsilon 0.0001 needs 7.38e+08 samples, more than the budget 10000000"),
    (["orient", "estimate", "--epsilon", "nan"], "graph 3 2\n0 1\n1 2\n",
     "need finite epsilon > 0 and delta in (0,1)"),
    (["orient", "exact"], "graph 3 0\n", "graph has no edges to orient"),
], ids=["estimate-edgeless", "estimate-empty", "estimate-path", "estimate-path-over-budget",
        "estimate-path-nan-epsilon", "exact-edgeless"])
def test_cli_orient_refusal_bytes(tmp_path, capsys, argv, text, err):
    """The estimator checks epsilon, delta and the degree before m >= n."""
    f = tmp_path / "g.txt"
    f.write_text(text)
    assert _exit_and_streams(capsys, argv + ["--input", str(f)]) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("argv, text, err", [
    (["app", "confusability"], "x,0,1\na," + "1" * 200_000 + ",0.5\n",
     "line 2: field larger than field limit (131072)"),
    (["app", "confusability"], "x,0\na,1e308\nb,1e308\n",
     "line 1: table entries sum to inf, not 1"),
    (["app", "confusability"], "x,0,1\n\n\na,0.5\n", "line 4: row width mismatch"),
    (["app", "confusability"], "x,0,1\n \na,0.5,0.5\n\nb,0.5,z\n",
     "line 5: non-numeric probability"),
    (["app", "confusability"], "x,0,1\n\n",
     "line 1: joint table needs a header row and one data row"),
    (["app", "haplotype"], "", "line 1: empty genotype file"),
    (["app", "haplotype"], "01?\n0?1\n0x1\n", "line 3: invalid genotype character in '0x1'"),
    (["app", "haplotype"], "01\n0?\n\n011\n", "line 4: genotypes must have uniform length"),
    (["app", "haplotype"], "0" * 140_000 + "\n" + "0" * 139_999 + "2\n",
     "line 2: invalid genotype character in '" + "0" * 40 + "'..."),
    (["color", "interval"], "intervals 1\n0/1 1/2 3\n", "line 2: expected '<lo> <hi>'"),
    (["color", "interval"], "intervals 1000001\n", "line 1: more than 1000000 intervals"),
    (["color", "interval"], "intervals 0\n", "empty interval set"),
    (["color", "greedy"], "graph 3 2\n0 1\x0c1 2\n", "line 1: expected 2 edge lines"),
    (["color", "greedy"], "graph 2 1\n0 1\nweights -0.5 1.5\n", "line 1: negative vertex weight"),
], ids=["table-long-field", "table-sum-overflows", "table-row-after-blank-lines",
        "table-cell-after-blank-lines", "table-header-only", "genotypes-empty",
        "genotypes-bad-character-line-3", "genotypes-wrong-length-line-4",
        "genotypes-long-quoted-in-part", "intervals-three-tokens", "intervals-above-cap",
        "intervals-empty", "graph-form-feed-ends-no-line", "graph-negative-weight"])
def test_cli_input_refusal_bytes(tmp_path, capsys, argv, text, err):
    """Each outside-input refusal exits 2 with its message, naming the line
    at fault when a line is."""
    f = tmp_path / "input.txt"
    f.write_text(text)
    assert _exit_and_streams(capsys, argv + ["--input", str(f)]) == (2, "", f"error: {err}\n")


SETCOVER_ROUNDS = "[[4, [0, 1, 2, 4, 5, 6, 7, 9]], [0, [3]], [3, [8]]]"


def test_cli_setcover_greedy_output_bytes(tmp_path, capsys, monkeypatch):
    """The rounds print ascending, as lists, in both report modes."""
    (tmp_path / "s.txt").write_text(serialize_setcover(random_setcover(10, 5, seed=4)))
    monkeypatch.chdir(tmp_path)
    outs = _timed_outputs(capsys, ["setcover", "greedy", "--input", "s.txt"])
    assignment, counts = "[4, 4, 4, 0, 4, 4, 4, 4, 3, 4]", "[1, 0, 0, 1, 8]"
    assert outs[0] == (
        f'{{"assignment": {assignment}, "checks": {{}}, '
        '"command": "setcover greedy --input s.txt --json", '
        f'"counts": {counts}, "entropy_bits": 0.9219280948873623, "input_digest": '
        '"1677f980c7b4f433638c18add22594e9d4b2440c420814127a64b67fde5aa6f7", '
        f'"rounds": {SETCOVER_ROUNDS}, "seed": 0, "timing_ms": T}}\n')
    assert outs[1] == (f"assignment: {assignment}\nchecks: {{}}\ncounts: {counts}\n"
                       f"entropy_bits: 0.9219280948873623\nrounds: {SETCOVER_ROUNDS}\n"
                       "seed: 0\ntiming_ms: T\n")


def test_cli_setcover_certify_output_bytes(tmp_path, capsys, monkeypatch):
    """The certificate keeps its key order (y, sum_y, g) in the text report;
    g is the greedy cover's entropy, bit for bit."""
    (tmp_path / "s.txt").write_text(serialize_setcover(random_setcover(10, 5, seed=4)))
    monkeypatch.chdir(tmp_path)
    outs = _timed_outputs(capsys, ["setcover", "certify", "--input", "s.txt"])
    lo, hi = "-0.11207669460016008", "0.18792330539983992"
    y = f"[{lo}, {lo}, {lo}, {hi}, {lo}, {lo}, {lo}, {lo}, {hi}, {lo}]"
    h, sum_y, counts = "0.9219280948873623", "-0.5207669460016008", "[1, 0, 0, 1, 8]"
    assert outs[0] == (
        f'{{"certificate": {{"g": {h}, "sum_y": {sum_y}, "y": {y}}}, "checked": 30, '
        '"checks": {"dual_feasible": true, "dual_identity": true}, '
        '"command": "setcover certify --input s.txt --json", '
        f'"counts": {counts}, "entropy_bits": {h}, "input_digest": '
        '"1677f980c7b4f433638c18add22594e9d4b2440c420814127a64b67fde5aa6f7", '
        '"seed": 0, "timing_ms": T, "violations": []}\n')
    assert outs[1] == (f"certificate: {{'y': {y}, 'sum_y': {sum_y}, 'g': {h}}}\n"
                       "checked: 30\nchecks: {'dual_feasible': True, 'dual_identity': True}\n"
                       f"counts: {counts}\nentropy_bits: {h}\nseed: 0\ntiming_ms: T\n"
                       "violations: []\n")


def _exit_and_streams(capsys, argv):
    """Exit code, stdout and stderr of one call; argparse exits by SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    streams = capsys.readouterr()
    return code, streams.out, streams.err


def _keeps_collector_state(capsys, argv) -> bool:
    """Whether main leaves the cyclic garbage collector on, and off, as its
    caller had it, on whatever exit argv takes; the output is dropped."""
    was_enabled = gc.isenabled()
    kept = []
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            try:
                main(argv)
            except SystemExit:
                pass
            kept.append(gc.isenabled() == enabled)
    finally:
        (gc.enable if was_enabled else gc.disable)()
        capsys.readouterr()
    return kept == [True, True]


TOP_USAGE = "usage: minent [-h] {setcover,orient,color,graphent,gen,app} ...\n"
ORIENT_USAGE = ("usage: minent orient [-h] --input INPUT [--json] [--seed SEED]\n"
                "                     [--assert-bound] [--epsilon EPSILON] [--delta DELTA]\n"
                "                     [--one-sided]\n"
                "                     {biased,exact,estimate}\n")
TOP_HELP = (TOP_USAGE + "\nMinimum entropy combinatorial optimization solvers\n\n"
            "positional arguments:\n  {setcover,orient,color,graphent,gen,app}\n\n"
            "options:\n  -h, --help            show this help message and exit\n")
ORIENT_HELP = (ORIENT_USAGE + "\npositional arguments:\n  {biased,exact,estimate}\n\n"
               "options:\n  -h, --help            show this help message and exit\n"
               "  --input INPUT\n  --json\n  --seed SEED\n  --assert-bound\n"
               "  --epsilon EPSILON\n  --delta DELTA\n  --one-sided\n")
ARGV_CASES = [
    ([], 2, "", TOP_USAGE + "minent: error: the following arguments are required: group\n"),
    (["--help"], 0, TOP_HELP, ""),
    (["bogus"], 2, "", TOP_USAGE + "minent: error: argument group: invalid choice: 'bogus' "
     "(choose from 'setcover', 'orient', 'color', 'graphent', 'gen', 'app')\n"),
    (["orient"], 2, "", ORIENT_USAGE +
     "minent orient: error: the following arguments are required: action, --input\n"),
    (["orient", "--help"], 0, ORIENT_HELP, ""),
    (["orient", "sideways", "--input", "g.txt"], 2, "", ORIENT_USAGE +
     "minent orient: error: argument action: invalid choice: 'sideways' "
     "(choose from 'biased', 'exact', 'estimate')\n"),
    (["orient", "biased", "--input", "g.txt", "--input"], 2, "", ORIENT_USAGE +
     "minent orient: error: argument --input: expected one argument\n"),
    (["orient", "biased", "extra", "--input", "g.txt"], 2, "",
     TOP_USAGE + "minent: error: unrecognized arguments: extra\n"),
    (["gen", "jk", "--k", "2", "x", "--nope"], 2, "",
     TOP_USAGE + "minent: error: unrecognized arguments: x --nope\n"),
]


@pytest.mark.parametrize("argv, code, out, err", ARGV_CASES,
                         ids=[" ".join(c[0]) or "no-args" for c in ARGV_CASES])
def test_cli_argument_errors_and_help_bytes(tmp_path, capsys, monkeypatch, argv, code, out, err):
    """Usage errors and help keep argparse's messages and exit codes byte for
    byte: errors inside a command group name the group's usage, and leftover
    arguments are the top-level parser's error."""
    (tmp_path / "g.txt").write_text(ORIENT_GRAPH)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_and_streams(capsys, argv) == (code, out, err)
    assert _keeps_collector_state(capsys, argv)


def test_cli_accepts_an_abbreviated_option(tmp_path, capsys, monkeypatch):
    (tmp_path / "g.txt").write_text(ORIENT_GRAPH)
    monkeypatch.chdir(tmp_path)
    full = _timed_outputs(capsys, ["orient", "biased", "--input", "g.txt"])
    short = _timed_outputs(capsys, ["orient", "biased", "--inp", "g.txt"])
    assert short[0] == full[0].replace("--input", "--inp")
    assert short[1] == full[1]


def test_cli_main_reads_sys_argv(tmp_path, capsys, monkeypatch):
    """The console script calls main() with no arguments: it parses and
    reports the process's own arguments."""
    (tmp_path / "g.txt").write_text(ORIENT_GRAPH)
    monkeypatch.chdir(tmp_path)
    argv = ["orient", "biased", "--input", "g.txt", "--json"]
    monkeypatch.setattr(sys, "argv", ["minent"] + argv)
    code, out = _run(capsys, None)
    assert code == 0
    assert json.loads(out)["command"] == " ".join(argv)
    assert _timed_outputs(capsys, argv[:-1])[0] == re.sub(
        r'timing_ms": [0-9.e+-]+', 'timing_ms": T', out)


def test_cli_module_run_matches_in_process_report(tmp_path, capsys, monkeypatch):
    (tmp_path / "g.txt").write_text(ORIENT_GRAPH)
    monkeypatch.chdir(tmp_path)
    argv = ["orient", "biased", "--input", "g.txt", "--json"]
    src = os.path.dirname(os.path.dirname(minent.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "minent.cli"] + argv,
                          env=env, capture_output=True, text=True, check=True)
    code, out = _run(capsys, argv)
    assert code == 0 and proc.stderr == ""
    spawned, in_process = json.loads(proc.stdout), json.loads(out)
    spawned.pop("timing_ms"), in_process.pop("timing_ms")
    assert spawned == in_process


def _modules_loaded_by(code: str) -> list[str]:
    """The minent modules, and numpy, that a fresh interpreter has loaded
    after running `code` against this checkout's minent."""
    src = os.path.dirname(os.path.dirname(minent.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
             " if m == 'numpy' or m.split('.')[0] == 'minent')))")
    out = subprocess.run([sys.executable, "-c", code + probe],
                         env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_cli_import_leaves_numpy_unloaded():
    # The CLI loads each solver module in the handler that runs it, and numpy
    # only with graph entropy, so importing it compiles just these.
    assert _modules_loaded_by("import minent.cli") == [
        "minent", "minent.cli", "minent.core", "minent.io"]


@pytest.mark.parametrize("argv, text, solvers", [
    (["color", "interval"], "intervals 3\n0/1 2/1\n1/1 3/1\n5/1 6/1\n", ["coloring"]),
    (["orient", "biased"], "graph 3 2\n0 1\n1 2\n", ["orientation"]),
    (["app", "haplotype"], "0?1\n011\n", ["apps", "setcover"]),
], ids=["color-interval", "orient-biased", "app-haplotype"])
def test_cli_command_loads_only_its_solvers(tmp_path, argv, text, solvers):
    f = tmp_path / "in.txt"
    f.write_text(text)
    call = argv + ["--input", str(f)]
    loaded = _modules_loaded_by(f"import minent.cli\nassert minent.cli.main({call!r}) == 0")
    assert loaded == sorted(["minent", "minent.cli", "minent.core", "minent.io"] +
                            [f"minent.{s}" for s in solvers])


def test_package_attribute_imports_its_submodule():
    code = ("import minent\n"
            "assert callable(minent.graphent.graph_entropy)\n"
            "assert minent.graphent.ConvergenceError is minent.core.ConvergenceError\n"
            "assert not hasattr(minent, 'nope')")
    assert "minent.graphent" in _modules_loaded_by(code)


def test_cli_input_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.g"
    f.write_text("graph 3 2\n0 1\n0 1\n")
    assert main(["orient", "biased", "--input", str(f)]) == 2
    assert main(["setcover", "greedy", "--input", str(tmp_path / "missing")]) == 2
    assert _keeps_collector_state(capsys, ["orient", "biased", "--input", str(f)])


@pytest.mark.parametrize("argv, text", [
    (["setcover", "greedy"], "setcover x 1\n0\n"),
    (["color", "interval"], "intervals z\n0 1\n"),
    (["orient", "biased"], "graph 2 1\n0 1\nweights a b\n"),
    (["orient", "biased"], "graph 2 -1\n"),
    (["setcover", "greedy"], "setcover 1000000000 1\n0\n"),
    (["orient", "biased"], "graph 100000000 0\n"),
], ids=["setcover-header", "intervals-header", "graph-weights", "graph-negative-size",
        "setcover-size-above-ids", "graph-size-above-cap"])
def test_cli_malformed_header_exits_2(tmp_path, capsys, argv, text):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    assert main(argv + ["--input", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line ")
    assert "Traceback" not in err


def test_cli_graph_over_vertex_cap_exits_2(tmp_path, capsys):
    f = tmp_path / "big.g"
    f.write_text("graph 1000001 1\n0 1\n")
    assert main(["orient", "biased", "--input", str(f)]) == 2
    assert capsys.readouterr().err == "error: line 1: more than 1000000 vertices\n"


@pytest.mark.parametrize("argv", [
    ["color", "greedy"], ["color", "greedy-approx"], ["color", "exact"],
    ["graphent", "greedy-bound"],
], ids=["greedy", "greedy-approx", "exact", "greedy-bound"])
def test_cli_empty_graph_has_no_coloring(tmp_path, capsys, argv):
    # coloring_entropy refuses the empty graph for every colouring command
    f = tmp_path / "empty.g"
    f.write_text("graph 0 0\n")
    assert main(argv + ["--input", str(f)]) == 2
    assert capsys.readouterr().err == "error: empty graph has no coloring\n"


@pytest.mark.parametrize("argv, data", [
    (["orient", "biased"], b"graph 2 1\n0 1\nweights nan nan\n"),
    (["color", "greedy"], b"graph 2 1\n0 1\nweights nan nan\n"),
    (["app", "confusability"], b"x,0,1\na,nan,0.5\nb,0.5,0\n"),
    (["orient", "estimate", "--epsilon", "nan"], b"graph 3 3\n0 1\n1 2\n0 2\n"),
    (["graphent", "compute", "--tol", "nan"], b"graph 3 1\n0 1\n"),
    (["orient", "biased"], b"\xff\xfe graph"),
    (["orient", "estimate", "--epsilon", "1e-300"], b"graph 3 3\n0 1\n1 2\n0 2\n"),
    (["orient", "estimate", "--epsilon", "1e-160"], b"graph 3 3\n0 1\n1 2\n0 2\n"),
    (["graphent", "greedy-bound", "--constant=nan"], b"graph 3 1\n0 1\n"),
    (["graphent", "greedy-bound", "--constant=inf"], b"graph 3 1\n0 1\n"),
    (["graphent", "greedy-bound", "--constant=-inf"], b"graph 3 1\n0 1\n"),
    (["graphent", "compute", "--tol", "inf"], b"graph 3 1\n0 1\n"),
    (["graphent", "split", "--tol", "inf", "--assert-bound"],
     b"graph 5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"),
], ids=["nan-weights", "nan-weights-greedy-coloring", "nan-joint-cell",
        "nan-epsilon", "nan-tol", "not-utf8", "underflow-epsilon", "overflow-epsilon",
        "nan-constant", "inf-constant", "minus-inf-constant", "inf-tol-compute",
        "inf-tol-split"])
def test_cli_bad_value_exits_2(tmp_path, capsys, argv, data):
    f = tmp_path / "bad.txt"
    f.write_bytes(data)
    assert main(argv + ["--input", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


# Valid app inputs, to be mutated as text and then as bytes.
APP_INPUTS = [
    ("confusability", "x,0,1\na,0.25,0.25\nb,0.25,0\nc,0,0.25\n"),
    ("confusability", "x,y0,y1,y2\na,0.1,0.2,0\nb,0,0.3,0.1\nc,0.1,0,0.2\n"),
    ("haplotype", "01?\n0?1\n110\n"),
    ("haplotype", "0?1?\n1?0?\n??11\n"),
]


def _mutate(rng, text):
    """Up to three text mutations (a field past the csv field limit, two
    cells set to 1e308, blank lines, a dropped comma, a stray quote), then
    up to two bit flips in the encoded bytes."""
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        if kind == 0:
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice("01a") * 140_000 + text[at:]
        elif kind == 1:
            spans = [m.span() for m in re.finditer(r"[0-9.?]+", text)]
            for lo, hi in sorted(rng.sample(spans, min(2, len(spans))), reverse=True):
                text = text[:lo] + "1e308" + text[hi:]
        elif kind == 2:
            starts = [0] + [m.end() for m in re.finditer("\n", text)]
            at = rng.choice(starts)
            text = text[:at] + rng.choice(["\n", "\n\n", " \n"]) + text[at:]
        elif kind == 3 and "," in text:
            at = rng.choice([m.start() for m in re.finditer(",", text)])
            text = text[:at] + text[at + 1:]
        else:
            at = rng.randrange(len(text) + 1)
            text = text[:at] + '"' + text[at:]
    data = bytearray(text.encode())
    for _ in range(rng.randint(0, 2)):
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return bytes(data)


def test_mutated_app_inputs_exit_0_or_2(tmp_path, capsys):
    rng = random.Random(0)
    f = tmp_path / "input.txt"
    for case in range(200):
        action, text = APP_INPUTS[case % len(APP_INPUTS)]
        data = _mutate(rng, text)
        f.write_bytes(data)
        code, _, err = _exit_and_streams(capsys, ["app", action, "--input", str(f)])
        assert code in (0, 2), (action, data[:200])
        assert code == 0 or err.startswith("error: "), (action, data[:200], err)


@pytest.mark.parametrize("argv", [
    ["--kind", "setcover", "--n", "0"],
    ["--kind", "graph", "--m", "-1"],
], ids=["setcover-empty-universe", "graph-negative-edges"])
def test_cli_gen_bad_size_exits_2(capsys, argv):
    assert main(["gen", "random"] + argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def _all_pairs_graph(n, m, seed):
    """The random graph drawn from the list of all n(n-1)/2 pairs."""
    rng = random.Random(seed)
    return Graph(n, rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], m))


def test_random_graph_matches_all_pairs_sampler():
    for n in range(40):
        total = n * (n - 1) // 2
        for m in sorted({0, 1, n, total // 2, total}):
            if m > total:
                continue
            for seed in range(5):
                assert random_graph(n, m, seed) == _all_pairs_graph(n, m, seed), (n, m, seed)


def test_cli_gen_sparse_graph_on_many_vertices(capsys):
    assert main(["gen", "random", "--kind", "graph", "--n", "20000", "--m", "5"]) == 0
    g = parse_graph(capsys.readouterr().out)
    assert g.n == 20000 and g.m == 5


@pytest.mark.parametrize("kind", ["graph", "regular"])
def test_cli_gen_graph_above_parse_cap_exits_2(capsys, kind):
    n = str(2 * MAX_GRAPH_VERTICES)
    assert main(["gen", "random", "--kind", kind, "--n", n]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_cli_orient_exact_over_budget_exits_2(tmp_path, capsys):
    k8 = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
    f = tmp_path / "k8.g"
    f.write_text(serialize_graph(k8))
    assert main(["orient", "exact", "--input", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _sparse_shuffled_graph_text(n, m, seed):
    """A random graph with m edges in shuffled order, so most vertex stars
    span edge ids from near the first to near the last."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    rng.shuffle(edges)
    return f"graph {n} {m}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def _wide_sparse_input(action):
    if action == "orient":
        # 2^60000 orientations; each vertex's star spans about 3/4 of the edge ids
        return _sparse_shuffled_graph_text(20_000, 60_000, seed=1)
    # 4,000 sets {0, n-1}: 4000^2 choices for elements 0 and n-1
    return ("setcover 200000 4001\n" + "0 199999\n" * 4000
            + " ".join(map(str, range(1, 199_999))) + "\n")


@pytest.mark.parametrize("action", ["orient", "setcover"])
def test_cli_exact_over_budget_on_wide_sparse_sets_exits_2_at_once(tmp_path, capsys, action):
    # The set system's check costs O(sum of set sizes), not O(sum of the
    # spans from each set's first to last member): building every set's
    # bitmask there took about 4 s and 100 MB on either file.
    f = tmp_path / "wide.in"
    f.write_text(_wide_sparse_input(action))
    start = time.perf_counter()
    assert main([action, "exact", "--input", str(f)]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "assignment combinations" in err
    assert "Traceback" not in err


def test_cli_estimate_over_budget_exits_2_at_once(tmp_path, capsys):
    # the circulant C_12(1, 2, 3) is 6-regular; epsilon 1e-4 needs ~4e10 samples
    reg6 = Graph(12, sorted({tuple(sorted((v, (v + d) % 12))) for v in range(12)
                             for d in (1, 2, 3)}))
    f = tmp_path / "reg6.g"
    f.write_text(serialize_graph(reg6))
    start = time.perf_counter()
    assert main(["orient", "estimate", "--epsilon", "1e-4", "--input", str(f)]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


SETCOVER_USAGE = ("usage: minent setcover [-h] --input INPUT [--json] [--seed SEED]\n"
                  "                       [--assert-bound]\n"
                  "                       {greedy,exact,certify}\n")


def test_cli_unknown_flag_exits_2(tmp_path, capsys, monkeypatch):
    # Without --input the missing option is the group's error; with it, the
    # unknown flag is left over and the top-level parser reports it.
    (tmp_path / "s.txt").write_text(WORKED_SC)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_and_streams(capsys, ["setcover", "greedy", "--nope"]) == (
        2, "", SETCOVER_USAGE +
        "minent setcover: error: the following arguments are required: --input\n")
    assert _exit_and_streams(capsys, ["setcover", "greedy", "--nope", "--input", "s.txt"]) == (
        2, "", TOP_USAGE + "minent: error: unrecognized arguments: --nope\n")


def test_cli_report_deterministic(tmp_path, capsys):
    f = tmp_path / "ex.sc"
    f.write_text(WORKED_SC)
    argv = ["setcover", "certify", "--input", str(f), "--json", "--seed", "3"]
    _, out1 = _run(capsys, argv)
    _, out2 = _run(capsys, argv)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timing_ms"), r2.pop("timing_ms")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_report_numbers_roundtrip(tmp_path, capsys):
    f = tmp_path / "ex.sc"
    f.write_text(WORKED_SC)
    _, out = _run(capsys, ["setcover", "greedy", "--input", str(f), "--json"])
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report


TINY_GRAPH = "graph 4 4\n0 1\n1 2\n2 3\n0 3\n"

SUCCESS_CASES = [
    (["setcover", "greedy"], WORKED_SC, {"entropy_bits", "counts", "assignment", "rounds"}),
    (["setcover", "exact"], WORKED_SC, {"entropy_bits", "counts", "assignment"}),
    (["setcover", "certify"], WORKED_SC, {"entropy_bits", "certificate", "violations"}),
    (["orient", "biased"], TINY_GRAPH, {"entropy_bits", "indegrees", "direction"}),
    (["orient", "exact"], TINY_GRAPH, {"entropy_bits", "indegrees", "direction"}),
    (["orient", "estimate"], TINY_GRAPH, {"H", "s", "epsilon", "delta"}),
    (["color", "greedy"], TINY_GRAPH, {"entropy_bits", "classes"}),
    (["color", "greedy-approx"], TINY_GRAPH, {"entropy_bits", "classes"}),
    (["color", "exact"], TINY_GRAPH, {"entropy_bits", "classes"}),
    (["color", "interval"], "intervals 3\n0/1 2/1\n1/1 3/1\n2/1 4/1\n",
     {"entropy_bits", "classes", "layers", "lower_bound_H"}),
    (["graphent", "compute"], TINY_GRAPH, {"H_bits", "marginals", "support"}),
    (["graphent", "split"], TINY_GRAPH, {"gap_bits"}),
    (["graphent", "greedy-bound"], TINY_GRAPH,
     {"g_bits", "H_bits", "bound_rhs", "chromatic_entropy"}),
    (["app", "haplotype"], "0?\n?1\n", {"entropy_bits", "haplotypes", "assignment"}),
    (["app", "confusability"], "x,0,1\na,0.25,0.25\nb,0.25,0\nc,0,0.25\n",
     {"edges", "marginals", "classes", "rate_bits"}),
]


@pytest.mark.parametrize("argv, text, keys", SUCCESS_CASES,
                         ids=["-".join(argv) for argv, _, _ in SUCCESS_CASES])
@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_cli_subcommand_succeeds(tmp_path, capsys, argv, text, keys, as_json):
    f = tmp_path / "in.txt"
    f.write_text(text)
    code, out = _run(capsys, argv + ["--input", str(f), "--assert-bound"]
                     + ["--json"] * as_json)
    assert code == 0
    if as_json:
        report = json.loads(out)
    else:
        report = dict(line.split(": ", 1) for line in out.splitlines())
    assert keys | {"checks", "seed", "timing_ms"} <= set(report)


def test_cli_failed_bound_exits_1(tmp_path, capsys):
    f = tmp_path / "c4.g"
    f.write_text(TINY_GRAPH)
    code, out = _run(capsys, ["graphent", "greedy-bound", "--input", str(f), "--json",
                              "--constant", "-100", "--assert-bound"])
    assert code == 1
    assert json.loads(out)["checks"]["greedy_bound"] is False
    assert _keeps_collector_state(capsys, ["graphent", "greedy-bound", "--input", str(f),
                                           "--constant", "-100", "--assert-bound"])


# argv, input text (None: the call reads no file), exit code
GARBAGE_CASES = ([(argv, text, 0) for argv, text, _ in SUCCESS_CASES]
                 + [(["gen", "random", "--kind", kind, "--n", "8", "--m", "10", "--k", "4"],
                     None, 0) for kind in _GEN_KINDS]
                 + [(["gen", "jk", "--k", "3"], None, 0),
                    (["graphent", "greedy-bound", "--constant", "-100", "--assert-bound"],
                     TINY_GRAPH, 1),
                    (["orient", "biased"], "graph 3 2\n0 1\n0 1\n", 2),
                    (["setcover", "greedy"], "setcover x 1\n0\n", 2),
                    (["color", "interval"], "intervals 1\n2/1 1/1\n", 2)])


@pytest.mark.parametrize("argv, text, code", GARBAGE_CASES,
                         ids=[f"{' '.join(argv)} exit {code}" for argv, _, code in GARBAGE_CASES])
def test_cli_call_leaves_no_cyclic_garbage(tmp_path, capsys, argv, text, code):
    """main pauses the cyclic collector for a call. That is safe because a
    call builds no reference cycles: reference counting frees all it drops,
    so a collection right after it finds nothing unreachable. The first call
    also imports the command's solver modules; only the second is counted."""
    if text is not None:
        f = tmp_path / "in.txt"
        f.write_text(text)
        argv = argv + ["--input", str(f)]
    assert main(argv) == code
    gc.collect()
    assert main(argv) == code
    assert gc.collect() == 0


GEN_PARSERS = {"graph": parse_graph, "interval": parse_intervals,
               "setcover": parse_setcover, "regular": parse_graph}


# over the CLI's own kind table: a kind with no parser here fails
@pytest.mark.parametrize("kind, parse", [(k, GEN_PARSERS.get(k)) for k in _GEN_KINDS])
def test_cli_gen_random_parses_back(capsys, kind, parse):
    argv = ["--kind", kind, "--n", "8", "--m", "10", "--k", "4", "--delta", "3", "--seed", "2"]
    assert main(["gen", "random"] + argv) == 0
    out = capsys.readouterr().out
    draws = {"graph": random_graph(8, 10, seed=2), "interval": random_intervals(8, seed=2),
             "setcover": random_setcover(8, 4, seed=2),
             "regular": random_regular_graph(8, 3, seed=2)}
    assert parse(out) == draws[kind]


def test_cli_weighted_coloring_objective(tmp_path, capsys):
    # On a weighted graph `color exact` minimizes the same class-mass
    # entropy `color greedy` reports, and `greedy-bound` compares the
    # uniform-distribution values it documents.
    from minent.io import random_graph
    f = tmp_path / "w.g"
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randrange(4, 9)
        g = random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), seed=seed)
        raw = [rng.random() for _ in range(n)]
        f.write_text(serialize_graph(Graph(n, g.edges, [x / sum(raw) for x in raw])))
        bits = {}
        for action in ("exact", "greedy"):
            code, out = _run(capsys, ["color", action, "--input", str(f), "--json"])
            assert code == 0
            bits[action] = json.loads(out)["entropy_bits"]
        assert bits["exact"] <= bits["greedy"] + 1e-12, seed
        code, out = _run(capsys, ["graphent", "greedy-bound", "--input", str(f), "--json",
                                  "--assert-bound"])
        assert code == 0, out
