"""Tracing of the nilcomm layers from outside the package.

The layers are the package modules.  ``Tracer.install`` replaces every
module-level binding of every public function defined in one of those
modules -- including re-imported names such as ``uprocess.materialize`` --
with a wrapper that records a span (function, parent span, start, end).
No file of the package changes; ``Tracer.uninstall`` restores the
originals.

Spans stay in memory with their parent links until ``Tracer.summary``
folds them into per-function and per-layer self times.  A span's self
time is its duration minus the time covered by its child spans.  The
time between a wrapper's entry and the wrapped call, i.e. the tracing
overhead, lands in the caller's self time; the benchmark reports the
whole overhead separately as ``trace.overhead_ratio``.
"""
from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter

PACKAGE = "nilcomm"
LAYERS = ("partitions", "poset", "greene", "uchains", "uprocess", "matrixlab", "cli")

# Functions whose argument keys are collected, for distinct_ratio: the
# number of distinct keys over the number of calls, i.e. how much of the
# work a memo table could skip.
DISTINCT = ("uchains.materialize", "uchains.max_u_chain_cardinality",
            "uprocess.remove_simple_chain")


def _max_order(counters: dict, n: int) -> None:
    counters["matrixlab.max_order"] = max(counters.get("matrixlab.max_order", 0), n)


def _add(counters: dict, name: str, amount: int) -> None:
    counters[name] = counters.get(name, 0) + amount


def _rank_mod(counters: dict, args: tuple, kwargs: dict, result: int) -> None:
    rows = (args[0] if args else kwargs["A"]).shape[0]
    _add(counters, "matrixlab.rank_mod.computed_row_ops", rows * result)
    _max_order(counters, rows)


def _sample(counters: dict, args: tuple, kwargs: dict, result) -> None:
    _max_order(counters, (args[0] if args else kwargs["P"]).n)


def _poset(counters: dict, args: tuple, kwargs: dict, result) -> None:
    _add(counters, "poset.vertices", len(result.vertices))
    _add(counters, "poset.covers", len(result.covers))


# Counters read off a call's arguments and result, keyed by span name.
OBSERVERS = {
    "greene.chain_union_profile":
        lambda c, a, k, r: _add(c, "greene.chains", len(r.cumulative) - 1),
    "poset.build_poset": _poset,
    "uprocess.enumerate_full_processes": lambda c, a, k, r: _add(c, "uprocess.traces", len(r)),
    "uprocess.canonical_process": lambda c, a, k, r: _add(c, "uprocess.traces", 1),
    "matrixlab.rank_mod": _rank_mod,
    "matrixlab.sample_nilpotent_commutant": _sample,
}


class Tracer:
    """Span recorder for one process; install around a job, summarize after."""

    def __init__(self):
        self.modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        self.names: list[str] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        wrappers: dict[int, object] = {}
        defining = {f"{PACKAGE}.{m}" for m in LAYERS}
        for module in self.modules:
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ not in defining:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj)
                self._bindings.append((module, attr, obj, wrappers[id(obj)]))
        self.reset()

    def reset(self) -> None:
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.calls = [0] * len(self.names)
        self.keys: dict[int, set] = {i: set() for i, name in enumerate(self.names)
                                     if name in DISTINCT}
        self.counters: dict[str, int] = {}

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _open(self, idx: int) -> int:
        span = len(self.fn)
        self.fn.append(idx)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(span)
        return span

    def _wrap(self, func):
        idx = len(self.names)
        name = f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}"
        self.names.append(name)
        observe = OBSERVERS.get(name)
        track = name in DISTINCT

        if inspect.isgeneratorfunction(func):
            # One call; one span per resumption, so the consumer's work
            # between items is not charged to the generator.
            def resume(gen):
                while True:
                    span = self._open(idx)
                    t0 = perf_counter()
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.end[span] = perf_counter()
                        self.start[span] = t0
                        self.stack.pop()
                    yield value

            def gen_wrapper(*args, **kwargs):
                self.calls[idx] += 1
                return resume(func(*args, **kwargs))

            gen_wrapper.__wrapped__ = func
            return gen_wrapper

        def wrapper(*args, **kwargs):
            self.calls[idx] += 1
            if track:
                self.keys[idx].add((args, tuple(sorted(kwargs.items()))))
            span = self._open(idx)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                self.end[span] = perf_counter()
                self.start[span] = t0
                self.stack.pop()
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def summary(self) -> dict:
        """Per-function calls, total and self seconds, distinct keys; per-layer self seconds."""
        count = len(self.fn)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(count):
            f = self.fn[i]
            dur = self.end[i] - self.start[i]
            total[f] += dur
            own[f] += dur - child[i]
        functions = {}
        for i, name in enumerate(self.names):
            if not self.calls[i] and not total[i]:
                continue
            entry = {"calls": self.calls[i], "total_s": total[i], "self_s": own[i]}
            if i in self.keys:
                entry["distinct"] = len(self.keys[i])
            functions[name] = entry
        layers = {layer: 0.0 for layer in LAYERS}
        for name, entry in functions.items():
            layers[name.split(".", 1)[0]] += entry["self_s"]
        return {"spans": count, "functions": functions, "layers": layers,
                "counters": dict(self.counters)}


def _calls(summary: dict, name: str) -> int:
    return summary["functions"].get(name, {}).get("calls", 0)


def _self(summary: dict, name: str) -> float:
    return summary["functions"].get(name, {}).get("self_s", 0.0)


def _distinct_ratio(summary: dict, name: str) -> float:
    entry = summary["functions"].get(name)
    return entry["distinct"] / entry["calls"] if entry and entry["calls"] else 0.0


# Per-layer metrics of one traced job: (name, unit, better, value).  Times
# are per job; counts are exact and repeat from job to job.
PER_LAYER = (
    ("uchains.self_s", "s", "lower", lambda s: s["layers"]["uchains"]),
    ("uchains.specs_checked", "count", "lower",
     lambda s: _calls(s, "uchains.cardinality_closed_form")),
    ("uchains.materialize.calls", "count", "lower", lambda s: _calls(s, "uchains.materialize")),
    ("uchains.materialize.distinct_ratio", "ratio", "higher",
     lambda s: _distinct_ratio(s, "uchains.materialize")),
    ("uchains.max_u_chain_cardinality.calls", "count", "lower",
     lambda s: _calls(s, "uchains.max_u_chain_cardinality")),
    ("uchains.max_u_chain_cardinality.distinct_ratio", "ratio", "higher",
     lambda s: _distinct_ratio(s, "uchains.max_u_chain_cardinality")),
    ("greene.self_s", "s", "lower", lambda s: s["layers"]["greene"]),
    ("greene.chain_union_profile.calls", "count", "lower",
     lambda s: _calls(s, "greene.chain_union_profile")),
    ("greene.chains", "count", "lower", lambda s: s["counters"].get("greene.chains", 0)),
    ("poset.self_s", "s", "lower", lambda s: s["layers"]["poset"]),
    ("poset.vertices", "count", "lower", lambda s: s["counters"].get("poset.vertices", 0)),
    ("poset.covers", "count", "lower", lambda s: s["counters"].get("poset.covers", 0)),
    ("uprocess.self_s", "s", "lower", lambda s: s["layers"]["uprocess"]),
    ("uprocess.traces", "count", "lower", lambda s: s["counters"].get("uprocess.traces", 0)),
    ("uprocess.remove_simple_chain.calls", "count", "lower",
     lambda s: _calls(s, "uprocess.remove_simple_chain")),
    ("uprocess.remove_simple_chain.distinct_ratio", "ratio", "higher",
     lambda s: _distinct_ratio(s, "uprocess.remove_simple_chain")),
    ("uprocess.union_as_uchain.calls", "count", "lower",
     lambda s: _calls(s, "uprocess.union_as_uchain")),
    ("matrixlab.self_s", "s", "lower", lambda s: s["layers"]["matrixlab"]),
    ("matrixlab.sample_nilpotent_commutant.self_s", "s", "lower",
     lambda s: _self(s, "matrixlab.sample_nilpotent_commutant")),
    ("matrixlab.jordan_type_from_ranks.self_s", "s", "lower",
     lambda s: _self(s, "matrixlab.jordan_type_from_ranks")),
    ("matrixlab.rank_mod.calls", "count", "lower", lambda s: _calls(s, "matrixlab.rank_mod")),
    ("matrixlab.rank_mod.computed_row_ops", "count", "lower",
     lambda s: s["counters"].get("matrixlab.rank_mod.computed_row_ops", 0)),
    ("matrixlab.max_order", "count", "higher",
     lambda s: s["counters"].get("matrixlab.max_order", 0)),
    ("cli.self_s", "s", "lower", lambda s: s["layers"]["cli"]),
    ("partitions.self_s", "s", "lower", lambda s: s["layers"]["partitions"]),
)
