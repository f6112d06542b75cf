"""Property tests of the text formats: serializing and parsing round-trips,
mutated or truncated files make the CLI exit 0 or 2, never raise, and the
id parsers agree with a plain int() parse on every input."""

import itertools
import tracemalloc
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from minent import io as mio  # noqa: E402
from minent.cli import main  # noqa: E402
from minent.core import Graph, IntervalSet, SetSystem  # noqa: E402
from minent.io import (MAX_GRAPH_VERTICES, ParseError, parse_graph,  # noqa: E402
                       parse_intervals, parse_setcover, serialize_graph,
                       serialize_intervals, serialize_setcover)


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


# Reference parsers: every id through int(), one line at a time.


def _reference_records(text, word, fields):
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.split("\n")) if ln.strip()]
    ln, header = lines[0] if lines else (1, "")
    parts = header.split()
    if parts[:1] != [word] or len(parts) != len(fields) + 1:
        usage = " ".join([word] + [f"<{f}>" for f in fields])
        raise ParseError(f"expected header '{usage}'", ln)
    try:
        sizes = [int(p) for p in parts[1:]]
    except ValueError:
        raise ParseError(f"non-integer {word} header", ln)
    if min(sizes) < 0:
        raise ParseError(f"negative size in {word} header", ln)
    return ln, sizes, lines[1:]


def _reference_parse_graph(text):
    ln, (n, m), body = _reference_records(text, "graph", ("n", "m"))
    if n > MAX_GRAPH_VERTICES:
        raise ParseError(f"more than {MAX_GRAPH_VERTICES} vertices", ln)
    if len(body) not in (m, m + 1):
        raise ParseError(f"expected {m} edge lines", ln)
    edges = []
    for eln, raw in body[:m]:
        toks = raw.split()
        if len(toks) != 2:
            raise ParseError("expected '<u> <v>'", eln)
        try:
            edges.append((int(toks[0]), int(toks[1])))
        except ValueError:
            raise ParseError("non-integer vertex id", eln)
    weights = None
    if len(body) == m + 1:
        wln, raw = body[m]
        toks = raw.split()
        if toks[0] != "weights" or len(toks) != n + 1:
            raise ParseError(f"expected 'weights' line with {n} reals", wln)
        try:
            weights = [float(t) for t in toks[1:]]
        except ValueError:
            raise ParseError("non-real vertex weight", wln)
    return mio._build(ln, Graph, n, edges, weights)


def _reference_parse_setcover(text):
    ln, (n, k), body = _reference_records(text, "setcover", ("n", "k"))
    if len(body) != k:
        raise ParseError(f"expected {k} set lines", ln)
    sets = []
    for sln, raw in body:
        try:
            sets.append([int(t) for t in raw.split()])
        except ValueError:
            raise ParseError("non-integer element id", sln)
    ids = sum(map(len, sets))
    if n > ids:
        raise ParseError(f"{n} elements cannot be covered by {ids} element ids", ln)
    return mio._build(ln, SetSystem, n, sets)


def _outcome(parse, text):
    """The parsed object, or the exception's type, message and line."""
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 - any difference must show
        return type(exc), str(exc), getattr(exc, "line", None)


def _assert_parsers_agree(text):
    assert _outcome(parse_graph, text) == _outcome(_reference_parse_graph, text), text
    assert _outcome(parse_setcover, text) == _outcome(_reference_parse_setcover, text), text


# Spellings int() accepts besides the canonical one, ids out of range, and
# tokens int() rejects.
ODD_TOKENS = ["0", "1", "2", "3", "5", "-1", "-0", "007", "+3", "+0", "1_0", "\u0663",
              "\uff13", "\u0661\u0662", "1.0", "0x1", "1e0", "x", "_1", "", "9" * 30]


# Graph files at or next to the canonical form that parse_graph reads as one
# block: each must be read, or refused with the message and line, that the
# per-line reference gives.
NEAR_CANONICAL = [
    # line ends, spaces and blank lines
    "graph 4 2\n0 1\n2 3\n", "graph 4 2\n0 1\n2 3", "graph 4 2\r\n0 1\r\n2 3\r\n",
    "graph 4 2\n0 1\r\n2 3\n", "graph 4 2\n0 1\n2 3 \n", "graph 4 2 \n0 1\n2 3\n",
    "\ngraph 4 2\n0 1\n2 3\n", "graph 4 2\n\n0 1\n2 3\n", "graph  4 2\n0 1\n2 3\n",
    "graph 4 2\n0  1\n2 3\n", "graph 4 2\n0 1\n 3\n", "graph 4 2\n0 1\n2 \n",
    "graph 4 2\n0 1\n2 3\n1\n", "graph 4 2\n0 1 2\n3\n", "graph 4 2\n0 1\n2 3\n\n",
    "graph 4 2\n0 1\x0c2 3\n", "graph 4 2\n0 1\n", "graph 4 1\n0 1\n2 3\n",
    "graph 04 2\n0 1\n007 3\n",
    # m = 0 and weights lines
    "graph 4 0\n", "graph 4 0", "graph 0 0\n", "graph 4 0\n\n", "graph 4 0\n0 1\n",
    "graph 3 0\nweights 0.25 0.5 0.25\n", "graph 3 1\n0 1\nweights 0.25 0.5 0.25\n",
    "graph 3 1\n0 1\nweights 0.25 0.5 0.25", "graph 3 1\n0 1\nweights 0.25 0.5\n",
    "graph 3 1\n0 1\nweights 0.25 0.5 x\n", "graph 3 1\n0 1\nweights 0.5 0.5 0.5\n",
    "graph 3 1\n0 1\nweights 0.25 0.5 0.25\n\n", "graph 3 1\n0 1\nweights 0.25 0.5\r0.25\n",
    "graph 3 1\n0 1\nweights 0.25 0.5 0.25\n1 2\n", "graph 3 1\n0 1\nwx\n",
    "graph 3 1\n0 w\nweights 0.25 0.5 0.25\n", "graph 3 0\n1weights 0.25 0.5 0.25\n",
    # ids >= n, self-loops, duplicate edges, and sizes past the caps
    "graph 4 2\n0 1\n2 4\n", "graph 4 2\n0 1\n9 2\n", "graph 4 2\n0 1\n1 0\n",
    "graph 4 2\n0 1\n0 1\n", "graph 4 2\n3 3\n0 1\n", "graph 3 1000000000000\n0 1\n",
    f"graph {MAX_GRAPH_VERTICES + 1} 1\n0 1\n",
    f"graph {MAX_GRAPH_VERTICES} 1\n0 {MAX_GRAPH_VERTICES}\n",
    # digits int() reads besides ASCII, one it rejects, and its digit limit
    "graph 4 2\n0 1\n\u0663 2\n", "graph 4 2\n0 1\n2 \uff13\n", "graph \u0664 2\n0 1\n2 3\n",
    "graph 4 \uff12\n0 1\n2 3\n", "graph \u00b2 1\n0 1\n",
    f"graph 4 2\n0 1\n2 {'9' * 5000}\n", f"graph {'9' * 5000} 0\n",
]


def test_parsers_match_int_parse_on_odd_tokens():
    for a, b in itertools.product(ODD_TOKENS, repeat=2):
        _assert_parsers_agree(f"graph 4 2\n0 1\n{a} {b}\n")
        _assert_parsers_agree(f"graph 4 2\n{a} {b}\n2 x\n")
        _assert_parsers_agree(f"graph 4 2\n{a} 3\n1 2 3\n")
        _assert_parsers_agree(f"graph 4 2\n0\t1\n{a}  {b}\n")
        _assert_parsers_agree(f"setcover 4 2\n0 {a} 1\n{b} 2 3\n")
        _assert_parsers_agree(f"setcover 4 2\n0 1 2 3\n{a} {b}\n")
        _assert_parsers_agree(f"setcover 2 2\n{a} 1\nx {b}\n")
    # Separators other than one space, and 2m tokens spread unevenly.
    for edges in ("0\t1\t2\n5", "0 1 2\n5", "0\t1\n2\u00a05"):
        _assert_parsers_agree(f"graph 6 2\n{edges}\n")
    for text in NEAR_CANONICAL:
        _assert_parsers_agree(text)


# Tokens a mutation may write: small ints in all their spellings, the odd
# tokens above, and reals.
odd = st.one_of(st.integers(-3, 12).map(str), st.sampled_from(ODD_TOKENS),
                st.integers(0, 12).map(lambda i: f"{i:03d}"),
                st.sampled_from(["nan", "0.5", "weights"]))

FILES = ["graph 4 3\n0 1\n1 2\n3 1\n", "graph 3 2\n0 1\n1 2\nweights 0.25 0.5 0.25\n",
         "graph 4 3\n0 1\n1 2\n3 1", "graph 3 2\r\n0 1\r\n1 2\r\nweights 0.25 0.5 0.25\r\n",
         "setcover 4 3\n0 1 2\n2 3\n3 0\n", "setcover 3 2\n0 1\n1 2\n"]


@settings(max_examples=400)
@given(text=st.sampled_from(FILES), data=st.data())
def test_parsers_match_int_parse_on_mutated_files(text, data):
    lines = [ln.split() for ln in text.splitlines()]
    slots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
    for i, j in data.draw(st.lists(st.sampled_from(slots), max_size=4)):
        lines[i][j] = data.draw(odd)
    if data.draw(st.booleans()):
        i = data.draw(st.integers(1, len(lines) - 1))
        lines[i].insert(data.draw(st.integers(0, len(lines[i]))), data.draw(odd))
    eol = "\r\n" if "\r\n" in text else "\n"  # keep the file's line ends
    mutated = eol.join(" ".join(toks) for toks in lines)
    _assert_parsers_agree(mutated + eol if text.endswith("\n") else mutated)


def test_written_graph_files_take_the_whole_block_reader(monkeypatch, capsys):
    # Whatever serialize_graph and `gen random` write is canonical, so the
    # per-line reader, which starts with io._lines, must never run on it.
    samples = [Graph(0, []), Graph(3, []), Graph(4, [(3, 0), (1, 2)]),
               Graph(3, [(0, 1), (1, 2)], [0.25, 0.5, 0.25]), Graph(2, [], [1.0, 0.0])]
    written = [serialize_graph(g) for g in samples]
    for kind in ("graph", "regular"):
        argv = ["--kind", kind, "--n", "30", "--m", "70", "--delta", "4", "--seed", "3"]
        assert main(["gen", "random"] + argv) == 0
        written.append(capsys.readouterr().out)
    expected = [_reference_parse_graph(text) for text in written]

    def per_line(text):
        raise AssertionError("the per-line reader ran on a canonical file")

    monkeypatch.setattr(mio, "_lines", per_line)
    assert [parse_graph(text) for text in written] == expected
    assert [g.m for g in expected[-2:]] == [70, 60]


def test_id_table_is_bounded_by_the_input(monkeypatch):
    # A 10^6-vertex header with one edge, and a header declaring 10^12
    # edges: the parser's own allocations stay small (Graph itself, which
    # allocates per vertex, is stubbed out here).
    monkeypatch.setattr(mio, "Graph", lambda n, edges, weights: (n, edges, weights))
    tracemalloc.start()
    try:
        parsed = parse_graph(f"graph {MAX_GRAPH_VERTICES} 1\n0 {MAX_GRAPH_VERTICES - 1}\n")
        with pytest.raises(ParseError, match="line 1: expected 1000000000000 edge lines"):
            parse_graph("graph 3 1000000000000\n0 1\n")  # nothing sized by m
        with pytest.raises(ParseError, match="cannot be covered"):
            parse_setcover(f"setcover {MAX_GRAPH_VERTICES} 1\n0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == (MAX_GRAPH_VERTICES, [(0, MAX_GRAPH_VERTICES - 1)], None)
    assert peak < 100_000
