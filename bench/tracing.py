"""Per-layer tracing of `minent` from outside the package.

`Tracer.install` wraps every public function of each `minent` module, in every
module namespace that binds it (so `coloring.max_point_depth`, imported from
`core`, is the same span as `core.max_point_depth`), plus the constructors of
the public classes and a few heavier methods. Nothing under `src/` changes.

A span has a name, start, end, parent span and the id of the CLI call it
belongs to. Self time is a span's duration minus its direct children's. Call
counts and times are aggregated for every span; full span records are kept
for the first `SPAN_CAP` spans of each name in each CLI call, which bounds
memory when a leaf such as `apps.explains` runs a million times.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import time

LAYERS = ("cli", "io", "core", "setcover", "orientation", "coloring", "graphent", "apps")

# Methods wrapped besides constructors. O(1) accessors (neighbors, degree,
# max_degree, m) are left out: a span costs more than the call itself, and
# approx_mis alone calls neighbors millions of times.
METHODS = {
    "Graph": ("complement", "is_independent_set", "is_proper_coloring", "adjacency_masks"),
    "SetSystem": ("sets_containing",),
}

SPAN_CAP = 64


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.stack: list = []
        self.agg: dict = {}           # name -> [calls, total_s, self_s, kept this call]
        self.spans: list = []         # (id, parent id, call id, name, start, end)
        self.counters: dict = {}
        self.call_id = None
        self._ids = itertools.count(1)
        self._undo: list = []

    # ---------------------------------------------------------------- spans

    def begin_call(self, call_id: str) -> None:
        self.call_id = call_id
        for acc in self.agg.values():
            acc[3] = 0

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, fn, name: str, observe=None):
        stack, spans, ids = self.stack, self.spans, self._ids
        acc = self.agg.setdefault(name, [0, 0.0, 0.0, 0])
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[0]
                if acc[3] < SPAN_CAP:
                    acc[3] += 1
                    spans.append((frame[1], parent, tracer.call_id, name, start, end))
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    # -------------------------------------------------------------- install

    def install(self, package) -> None:
        """Wrap `package`'s modules in place; `uninstall` restores them."""
        modules = [getattr(package, layer) for layer in LAYERS]
        namespaces = [package] + modules
        wrapped: dict = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                span = f"{_layer(mod.__name__)}.{name}"
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(obj, span, OBSERVERS.get(span)))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._patch(obj, "__init__", self._wrap(obj.__init__, span))
                    for meth in METHODS.get(name, ()):
                        self._patch(obj, meth, self._wrap(getattr(obj, meth), f"{span}.{meth}"))
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patch(ns, name, wrapped[id(obj)][1])

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name] if name in vars(owner) else None))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._undo):
            if old is None:
                delattr(owner, name)
            else:
                setattr(owner, name, old)
        self._undo.clear()

    # -------------------------------------------------------------- results

    def self_s(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return self.agg.get(name, [0])[0]

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, acc in self.agg.items():
            out[name.split(".", 1)[0]] += acc[2]
        return out


# Counters recorded where the work happens: (tracer, args, result) -> None.


def _leaves(tracer, args, result):
    system = args[0]
    tracer.count("setcover.exact_cover.leaves", math.prod(
        sum(1 for s in system.sets if x in s) for x in range(system.universe_size)))


def _support(tracer, args, result):
    tracer.count("graphent.support_size", sum(1 for q in result[1].q if q > 1e-12))


def _interval_mec(tracer, args, result):
    tracer.count("coloring.interval_mec.layers", len(result[1].layers))
    tracer.count("coloring.interval_mec.intervals", len(args[0]))


def _parsed(tracer, args, result):
    tracer.count("io.parse.bytes", len(args[0]))


OBSERVERS = {
    "io.parse_graph": _parsed,
    "io.parse_setcover": _parsed,
    "io.parse_intervals": _parsed,
    "io.parse_genotypes": _parsed,
    "io.parse_joint_table": _parsed,
    "core.interval_graph": lambda t, a, r: t.count("core.interval_graph.edges", r.m),
    "coloring.interval_mec": _interval_mec,
    "graphent.enumerate_maximal_independent_sets":
        lambda t, a, r: t.count("graphent.mis_sets", len(r)),
    "graphent.graph_entropy": _support,
    "setcover.verify_dual_feasibility":
        lambda t, a, r: t.count("setcover.verify.checked", r.checked),
    "setcover.exact_cover": _leaves,
    "setcover.greedy_cover":
        lambda t, a, r: t.count("setcover.greedy_cover.rounds", len(r[1].rounds)),
    "orientation.exact_orientation":
        lambda t, a, r: t.count("orientation.exact_orientation.rows", 2 ** len(a[0].edges)),
    "apps.haplotype_instance": lambda t, a, r: t.count("apps.haplotype.sets", r[0].k),
}
