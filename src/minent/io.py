"""Text formats for graphs, set systems, and interval sets, plus seeded
random instance generators used by the test suites and the CLI."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import compress, count
from typing import TYPE_CHECKING

from .core import (MAX_GRAPH_VERTICES, WORK_BUDGET, BudgetError, Graph, IntervalSet,
                   SetSystem, ValidationError)

if TYPE_CHECKING:  # apps and csv load only with the parsers that use them
    from .apps import GenotypePanel, JointTable

MAX_TRIES = 10_000  # draws a rejection-sampling generator makes before giving up


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _lines(text: str) -> tuple[list[int], list[str]]:
    """(line numbers, stripped texts) of the nonblank lines. A line ends at
    "\n" only, as the joint-table reader counts lines; the strip drops the
    "\r" of a "\r\n" ending."""
    texts = list(map(str.strip, text.split("\n")))
    return list(compress(count(1), texts)), list(filter(None, texts))


def _records(text: str, word: str, fields: tuple[str, ...]):
    """Read a `<word> <size>...` header with one non-negative integer per
    name in `fields`; return (header line number, sizes, body line numbers,
    body line texts)."""
    nums, texts = _lines(text)
    ln, header = (nums[0], texts[0]) if texts else (1, "")
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
    return ln, sizes, nums[1:], texts[1:]


def _id_reader(n: int, text: str):
    """Token list -> id list for a file of ids in [0, n). Each token is looked
    up in a table of the canonical spellings str(i); a miss ("007", "+3", an
    id out of range) falls back to int(), so a token that int() rejects still
    raises ValueError. A text of c characters holds at most (c + 1) // 2
    tokens, which bounds the table; every id it yields is one of its ints."""
    ids = range(min(n, (len(text) + 1) // 2))
    table = dict(zip(map(str, ids), ids))
    lookup = table.__getitem__

    def read(toks: list[str]) -> list[int]:
        try:
            return list(map(lookup, toks))
        except KeyError:
            return [table[t] if t in table else int(t) for t in toks]

    return read


def _drain(items: list):
    """Yield the items of a list in order, dropping each from the list as it
    is yielded, so a reader that builds one form of its input from another
    holds little more than one of them at a time."""
    items.reverse()
    while items:
        yield items.pop()


def _build(ln: int, cls, *args):
    """cls(*args), with a ValidationError reported as a ParseError at line ln."""
    try:
        return cls(*args)
    except ValidationError as exc:
        raise ParseError(str(exc), ln)


def _edge_pairs(nums: list[int], lines: list[str], read) -> list[tuple[int, int]]:
    """The (u, v) pairs of the edge lines, or a ParseError naming the first
    bad line."""
    edges = []
    for eln, raw in zip(nums, lines):
        toks = raw.split()
        if len(toks) != 2:
            raise ParseError("expected '<u> <v>'", eln)
        try:
            edges.append(tuple(read(toks)))
        except ValueError:
            raise ParseError("non-integer vertex id", eln)
    return edges


def _weights(ln: int, raw: str, n: int) -> list[float]:
    """The n reals of the `weights` line raw, at line ln."""
    toks = raw.split()
    if toks[0] != "weights" or len(toks) != n + 1:
        raise ParseError(f"expected 'weights' line with {n} reals", ln)
    try:
        return [float(t) for t in toks[1:]]
    except ValueError:
        raise ParseError("non-real vertex weight", ln)


def _canonical_graph(text: str):
    r"""parse_graph's result for a canonical file, read as one block: a first
    line `graph <n> <m>` with single spaces, m lines `<digits> <digits>\n`,
    then at most one `weights` line. None for any other file, whose faults
    only the per-line reader names. Deleting the ASCII digits must leave the
    edge block exactly " \n" m times, and its split 2m tokens: so every line
    holds two digit runs, and a huge m is refused by a length before
    anything is sized by it."""
    head, _, body = text.partition("\n")
    parts = head.split(" ")
    # (a header under 40 characters keeps int() below its digit limit)
    if not (len(parts) == 3 and parts[0] == "graph" and len(head) < 40
            and parts[1].isdecimal() and parts[2].isdecimal()):
        return None
    n, m = int(parts[1]), int(parts[2])
    cut = body.find("w")
    block, rest = body, []
    if cut >= 0:  # the tail's lines end at "\n" only, as in _lines
        block, rest = body[:cut], body[cut:].removesuffix("\n").split("\n")
    seps = block.encode().translate(None, b"0123456789")
    if n > MAX_GRAPH_VERTICES or len(seps) != 2 * m or seps != b" \n" * m or len(rest) > 1:
        return None
    try:  # the 2m token strings are dropped once read
        ids = _id_reader(n, text)(block.split())
    except ValueError:  # past int()'s digit limit: the per-line reader names the line
        return None
    if len(ids) != 2 * m:
        return None
    weights = _weights(m + 2, rest[0], n) if rest else None
    del body, block  # Graph is built beside text and the pairs alone
    ids = iter(ids)  # zip drops the id list once it has paired it
    return _build(1, Graph, n, list(zip(ids, ids)), weights)


def parse_graph(text: str) -> Graph:
    """Format: `graph <n> <m>`, m lines `<u> <v>`, optional trailing line
    `weights <w0> ... <w_{n-1}>`."""
    g = _canonical_graph(text)
    if g is not None:
        return g
    ln, (n, m), nums, body = _records(text, "graph", ("n", "m"))
    if n > MAX_GRAPH_VERTICES:
        raise ParseError(f"more than {MAX_GRAPH_VERTICES} vertices", ln)
    if len(body) not in (m, m + 1):
        raise ParseError(f"expected {m} edge lines", ln)
    edges = _edge_pairs(nums, body[:m], _id_reader(n, text))
    weights = _weights(nums[m], body[m], n) if len(body) == m + 1 else None
    return _build(ln, Graph, n, edges, weights)


def serialize_graph(g: Graph) -> str:
    out = [f"graph {g.n} {g.m}"]
    out += [f"{u} {v}" for (u, v) in g.edges]
    if g.weights is not None:
        out.append("weights " + " ".join(repr(w) for w in g.weights))
    return "\n".join(out) + "\n"


def parse_setcover(text: str) -> SetSystem:
    """Format: `setcover <n> <k>`, then k lines of space-separated element ids."""
    ln, (n, k), nums, body = _records(text, "setcover", ("n", "k"))
    if len(body) != k:
        raise ParseError(f"expected {k} set lines", ln)
    read = _id_reader(n, text)
    sets = []
    for sln, raw in zip(nums, _drain(body)):
        try:
            sets.append(read(raw.split()))
        except ValueError:
            raise ParseError("non-integer element id", sln)
    ids = sum(map(len, sets))
    if n > ids:
        raise ParseError(f"{n} elements cannot be covered by {ids} element ids", ln)
    return _build(ln, SetSystem, n, _drain(sets))


def serialize_setcover(s: SetSystem) -> str:
    out = [f"setcover {s.universe_size} {s.k}"]
    out += [" ".join(str(x) for x in members) for members in s.sets]
    return "\n".join(out) + "\n"


def _parse_rational(tok: str, ln: int) -> Fraction:
    try:
        if "/" in tok:
            num, den = tok.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {tok!r}", ln)


def parse_intervals(text: str) -> IntervalSet:
    """Format: `intervals <n>`, then n lines `<lo_num>/<lo_den> <hi_num>/<hi_den>`."""
    ln, (n,), nums, body = _records(text, "intervals", ("n",))
    if n > MAX_GRAPH_VERTICES:  # an intervals file is a graph input
        raise ParseError(f"more than {MAX_GRAPH_VERTICES} intervals", ln)
    if len(body) != n:
        raise ParseError(f"expected {n} interval lines", ln)
    ivs = []
    for iln, raw in zip(nums, _drain(body)):
        toks = raw.split()
        if len(toks) != 2:
            raise ParseError("expected '<lo> <hi>'", iln)
        ivs.append((_parse_rational(toks[0], iln), _parse_rational(toks[1], iln)))
    return _build(ln, IntervalSet, _drain(ivs))


def serialize_intervals(iv: IntervalSet) -> str:
    out = [f"intervals {len(iv)}"]
    for (lo, hi) in iv.intervals:
        out.append(f"{lo.numerator}/{lo.denominator} {hi.numerator}/{hi.denominator}")
    return "\n".join(out) + "\n"


def parse_genotypes(text: str) -> GenotypePanel:
    from .apps import GenotypePanel
    nums, texts = _lines(text)
    if not texts:
        raise ParseError("empty genotype file", 1)
    try:
        return GenotypePanel(texts)
    except ValidationError:
        # the panel checks in order, so the first genotype refused beside the
        # first one is the one it refused: name that genotype's line
        for ln, s in zip(nums, texts):
            _build(ln, GenotypePanel, [texts[0], s])
        raise


def parse_joint_table(text: str) -> JointTable:
    """CSV with a header row of y labels; each further row starts with the
    x label followed by the joint probabilities. Blank rows are skipped, and
    a row error names the line the row ends on."""
    import csv
    from io import StringIO
    from .apps import JointTable
    reader = csv.reader(StringIO(text))
    try:  # line_num is read after each row: the line that row ends on
        rows = [(reader.line_num, r) for r in reader if any(c.strip() for c in r)]
    except csv.Error as exc:
        raise ParseError(str(exc), reader.line_num)
    if len(rows) < 2:
        raise ParseError("joint table needs a header row and one data row", 1)
    (_, header), *body = rows
    y_labels = [c.strip() for c in header[1:]]
    probs = []
    for i, row in body:
        if len(row) != len(y_labels) + 1:
            raise ParseError("row width mismatch", i)
        try:
            probs.append([float(c) for c in row[1:]])
        except ValueError:
            raise ParseError("non-numeric probability", i)
    return _build(1, JointTable, [row[0].strip() for _, row in body], y_labels, probs)


# ---------------------------------------------------------------------------
# seeded random generators


def _pair(n: int, k: int) -> tuple[int, int]:
    """The k-th pair (u, v), u < v, of range(n) in lexicographic order."""
    r = n * (n - 1) // 2 - 1 - k  # index counted from the last pair, (n-2, n-1)
    j = (math.isqrt(8 * r + 1) - 1) // 2  # rows from the last: u = n-2-j
    return n - 2 - j, n - 1 - r + j * (j + 1) // 2


def random_graph(n: int, m: int, seed: int = 0) -> Graph:
    """m of the n(n-1)/2 pairs, uniformly. random.sample picks positions from
    the population's length alone, so sampling the pairs' lexicographic
    indices draws the edges that sampling the list of all pairs would."""
    if n > MAX_GRAPH_VERTICES:  # gen must not write what parse_graph refuses
        raise ValidationError(f"more than {MAX_GRAPH_VERTICES} vertices")
    total = n * (n - 1) // 2
    if not 0 <= m <= total:
        raise ValidationError("edge count must be in [0, n(n-1)/2]")
    rng = random.Random(seed)
    return Graph(n, [_pair(n, k) for k in rng.sample(range(total), m)])


def random_regular_graph(n: int, d: int, seed: int = 0) -> Graph:
    """Pairing-model d-regular graph, rejecting pairings with loops or
    repeated edges. A pairing is simple with probability about
    exp(-(d^2-1)/4) (Bender & Canfield 1978), so a degree whose expected
    number of tries exceeds MAX_TRIES (d >= 7) is refused before any."""
    if n > MAX_GRAPH_VERTICES:
        raise ValidationError(f"more than {MAX_GRAPH_VERTICES} vertices")
    if n * d % 2 != 0 or not 0 <= d < n:
        raise ValidationError("need n*d even and 0 <= d < n")
    if d > 0 and (d * d - 1) / 4 > math.log(MAX_TRIES):
        raise BudgetError(f"a random {d}-regular pairing is simple with probability "
                          f"about exp(-(d^2-1)/4), below 1/{MAX_TRIES}")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(MAX_TRIES):
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if ok:
            return Graph(n, sorted(edges))
    raise ValidationError("pairing model failed to produce a simple graph")


def random_intervals(n: int, seed: int = 0) -> IntervalSet:
    """Intervals with endpoints on the uniform grid of max(2n, 8) steps over [0, 1]."""
    if not 0 <= n <= MAX_GRAPH_VERTICES:  # an intervals file is a graph input
        raise ValidationError(f"interval count must be in [0, {MAX_GRAPH_VERTICES}]")
    rng = random.Random(seed)
    denom = max(2 * n, 8)
    ivs = []
    for _ in range(n):
        a, b = rng.sample(range(denom + 1), 2)
        lo, hi = min(a, b), max(a, b)
        ivs.append((Fraction(lo, denom), Fraction(hi, denom)))
    return IntervalSet(ivs)


def random_setcover(n: int, k: int, seed: int = 0) -> SetSystem:
    """k uniformly random nonempty subsets of [0, n); resampled until every
    element is covered. An element misses all k sets with probability about
    2^-k, so a draw covers with probability about (1 - 2^-k)^n, and sizes
    whose expected number of draws exceeds MAX_TRIES are refused before any.
    A draw flips n·k coins, so n·k above WORK_BUDGET is refused too."""
    if n < 1:
        raise ValidationError("universe must be nonempty")
    if k < 1:
        raise ValidationError("need at least one set")
    if n * k > WORK_BUDGET:
        raise BudgetError(f"n*k = {n * k} membership draws exceed the budget {WORK_BUDGET}")
    if n * -math.log1p(-2.0 ** -k) > math.log(MAX_TRIES):
        raise BudgetError(f"covering {n} elements with k = {k} random sets succeeds "
                          f"with probability about (1-2^-k)^n, below 1/{MAX_TRIES}")
    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        sets = []
        for _ in range(k):
            members = [x for x in range(n) if rng.random() < 0.5]
            if not members:
                members = [rng.randrange(n)]
            sets.append(members)
        if set().union(*map(set, sets)) == set(range(n)):
            return SetSystem(n, sets)
    raise ValidationError("failed to generate a covering instance")

