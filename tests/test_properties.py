"""Property tests of the text formats: serializing and parsing round-trips,
and mutated or truncated files make the CLI exit 0 or 2, never raise."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from minent.cli import main  # noqa: E402
from minent.core import Graph, IntervalSet, SetSystem  # noqa: E402
from minent.io import (parse_graph, parse_intervals, parse_setcover,  # noqa: E402
                       serialize_graph, serialize_intervals, serialize_setcover)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    weights = None
    if n and draw(st.booleans()):
        raw = draw(st.lists(st.integers(1, 100), min_size=n, max_size=n))
        weights = [c / sum(raw) for c in raw]
    return Graph(n, edges, weights)


@st.composite
def set_systems(draw):
    n = draw(st.integers(1, 8))
    # An empty set would serialize as a blank line, which the format skips.
    sets = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, unique=True),
                         max_size=6))
    missing = sorted(set(range(n)) - {x for s in sets for x in s})
    if missing:
        sets.append(draw(st.permutations(missing)))
    return SetSystem(n, sets)


@st.composite
def interval_sets(draw):
    ivs = []
    for _ in range(draw(st.integers(0, 6))):
        lo = Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 12)))
        ivs.append((lo, lo + Fraction(draw(st.integers(1, 60)), draw(st.integers(1, 12)))))
    return IntervalSet(ivs)


@given(graphs())
def test_graph_roundtrip(g):
    assert parse_graph(serialize_graph(g)) == g


@given(set_systems())
def test_setcover_roundtrip(s):
    assert parse_setcover(serialize_setcover(s)) == s


@given(interval_sets())
def test_intervals_roundtrip(iv):
    assert parse_intervals(serialize_intervals(iv)) == iv


# Small valid inputs of the cheap commands, to be mutated token by token.
VALID = [
    (["orient", "biased"], "graph 3 2\n0 1\n1 2\nweights 0.25 0.5 0.25\n"),
    (["orient", "biased"], "intervals 2\n0/1 1/2\n1/3 2/3\n"),
    (["setcover", "greedy"], "setcover 3 2\n0 1\n1 2\n"),
    (["color", "interval"], "intervals 3\n0/1 1/2\n1/3 2/3\n1/2 1/1\n"),
]

# Ints in -3..50, the small ones drawn more often, since they are the sizes
# and ids at the edges of these files.
junk = st.one_of(st.integers(-3, 3), st.integers(-3, 50),
                 st.sampled_from(["nan", "inf", "-inf"])).map(str)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(VALID), data=st.data())
def test_mutated_input_exits_0_or_2(tmp_path, capsys, case, data):
    argv, text = case
    lines = [ln.split() for ln in text.splitlines()]
    slots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
    for i, j in data.draw(st.lists(st.sampled_from(slots), max_size=3)):
        lines[i][j] = data.draw(junk)
    lines = lines[:len(lines) - data.draw(st.integers(0, len(lines)))]
    mutated = "".join(" ".join(toks) + "\n" for toks in lines)
    mutated = mutated[:len(mutated) - data.draw(st.integers(0, 2))]
    f = tmp_path / "input.txt"
    f.write_text(mutated)
    assert main(argv + ["--input", str(f)]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err
