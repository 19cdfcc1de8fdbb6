"""Recursive removal of maximum simple chains, with relabeling.

One step picks a maximum simple chain, deletes its vertices, and reads
off the partition of what is left: levels a and a+1 disappear entirely
and every higher level loses its two rail positions, dropping its length
by two.  The surviving vertices of the new poset embed back into the old
one by the relabeling (u, p, k) -> (u, p, k) for p < a and
(u+1, p+2, k) for p >= a.

A *trace* records the anchors chosen step by step, the intermediate
partitions, and the removed vertex sets pulled back to the original
poset.  A trace is full when the removals exhaust the poset; the removal
sizes of a full trace form a partition of n.

The traces are the root-to-leaf paths of a DAG whose nodes are the
intermediate partitions: what a step can do depends only on the current
partition, not on how it was reached.  ``_solve`` solves each state once
(its maximizing anchors and the states they lead to) and counts the
paths from it, removing no vertex; ``count_full_processes`` reads the
count off it.  ``_steps`` refuses more than ``TRACE_CAP`` traces before
removing anything, then realizes each (state, anchor) removal once, with
the next state ``_solve`` built for it.  The search walks its paths
depth-first; a removal pulled back to the start depends on the path only
through the lifts of the levels it touches, so paths that take it at the
same lifts share one frozenset, from a table local to the call.
``prefix_families`` walks the states children first and checks each
distinct prefix union of a state once, so the sweep checks prefix
families, not traces.  The solved DAG lives for one call only: a later
call for another partition never reuses it.

A vertex set is pulled back to the start poset in closed form.  Each
relabeling moves whole levels, so the composite of the relabelings along
the anchor history lifts a level p to some level q >= p, and its
positions by (q - p) // 2.  ``_lift`` computes q, latest anchor first:
it is the only statement of the relabeling rule, and ``_pull_back`` is
the only map of vertices.  The collision check of a removal, the
pull-back of removed sets and the anchor transport of
``union_as_uchain`` and ``prefix_families`` all go through them.
``_as_spec`` is the only statement of how lifted anchor values pair up
into a specification.  It realizes each specification's family once per
start partition: ``_realized`` keeps only the latest start partition's
entry, like ``strand_table``, with the families, two tables and the
prefixes of the latest trace ``union_as_uchain`` was called for.  The
first call for a trace forms the lifted values and the union of each of
its prefixes in one pass.  The union table maps (prefix union, removed
set) to the next union and each union to itself, so equal unions are one
object; the spec table maps (values, union) to the checked
specification, so each distinct pair is compared with its family once,
however many traces reach it.  The tables share nothing with
``prefix_families``, so ``union_as_uchain`` stays an independent check
of it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .errors import (
    EmptyChainRemoval,
    EmptyPartition,
    EnumerationCapExceeded,
    InvalidParameter,
    NoMatchingSpec,
    NonMonotoneSizes,
    NotFullProcess,
    RelabelCollision,
    RemovalSizeMismatch,
    is_integer,
)
from .partitions import Partition, checked_partition
from .poset import Vertex, sort_key, vertex_list
from .uchains import UChainSpec, materialize, max_simple_u_chains, strand

# Full traces refused past this count.  Below it with room to spare: over
# every partition of n <= 28, ``count_full_processes`` is at most 120,
# first reached by (9,7,5,3,1) at n = 25 (found by scanning them all).
TRACE_CAP = 10 ** 6


def _lift(p: int, history: Sequence[int]) -> int:
    """The level at the start of level p of a later state.

    The state is the one that the removals at the anchors ``history``, in
    order, lead to.  Each removal at anchor a embeds a level q >= a of
    what is left as level q + 2 of its parent; q < a stays.
    """
    for a in reversed(history):
        if p >= a:
            p += 2
    return p


def _pull_back(vertices: frozenset[Vertex], history: Sequence[int]) -> frozenset[Vertex]:
    """Relabel ``vertices`` into the start poset.

    ``vertices`` is in the labels of the state that the removals at the
    anchors ``history``, in order, lead to.  A level lifted from p to q
    gains (q - p) // 2 positions: its vertex (u, p, k) becomes
    (u + (q - p) // 2, q, k).
    """
    lifted = {p: _lift(p, history) for p in {p for _, p, _ in vertices}}
    return frozenset([(u + (lifted[p] - p) // 2, lifted[p], k) for u, p, k in vertices])


def _shrink(P: Partition, a: int) -> Partition:
    """The partition left after removing the simple chain at anchor a."""
    return Partition([p if p < a else p - 2 for p in P.parts if not a <= p <= a + 1])


def remove_simple_chain(P: Partition, a: int,
                        P_next: Partition | None = None) -> tuple[Partition, frozenset[Vertex]]:
    """Remove the simple chain at anchor ``a`` from the poset of P.

    Returns the surviving partition and the removed vertex set (in P's
    labels).  The surviving poset embeds back into P's by the relabeling
    described in the module docstring.  The anchor must be a positive
    integer (``strand`` refuses others).  The removed set must be
    nonempty, hold exactly the vertices the step loses, and miss every
    relabeled survivor.  The search passes the surviving partition as
    ``P_next`` when it has built it already; the checks are the same.
    """
    removed = strand(P, a, 1)
    if not removed:
        raise EmptyChainRemoval(f"anchor {a} selects nothing in {P}")
    if P_next is None:
        P_next = _shrink(P, a)
    if len(removed) != P.n - P_next.n:
        raise RemovalSizeMismatch(f"anchor {a} removes {len(removed)} vertices, but {P} -> {P_next} "
                                  f"loses {P.n - P_next.n}")
    clash = removed & _pull_back(frozenset(vertex_list(P_next)), (a,))
    if clash:
        raise RelabelCollision(f"relabeled vertex {min(clash)} collides with the chain at anchor {a} of {P}")
    return P_next, removed


@dataclass(frozen=True)
class ProcessTrace:
    """One run of the recursive removal.

    ``partitions`` lists the intermediate partitions starting at ``start``
    and ending with the terminal one (empty iff the trace is full);
    ``removed[i]`` is the i-th removed set pulled back to the original
    poset; ``anchors[i]`` is the anchor chosen at step i, in the
    coordinates of ``partitions[i]``.  A trace with other than one more
    partition than anchors, one removed set per anchor, and ``start``
    first is refused with InvalidParameter.
    """

    start: Partition
    anchors: tuple[int, ...]
    partitions: tuple[Partition, ...]
    removed: tuple[frozenset[Vertex], ...]

    def __post_init__(self) -> None:
        steps = len(self.anchors)
        if not (len(self.partitions) == steps + 1 == len(self.removed) + 1 and self.partitions[0] == self.start):
            raise InvalidParameter(f"a trace of {steps} anchors needs {steps} removed sets and "
                                   f"{steps + 1} partitions from {self.start}")

    @property
    def full(self) -> bool:
        return not self.partitions[-1]

    @property
    def steps(self) -> int:
        return len(self.anchors)


def q_of_trace(t: ProcessTrace) -> Partition:
    """The removal-size partition (|C_1|, ..., |C_r|) of a full trace."""
    if not t.full:
        raise NotFullProcess("trace does not exhaust the poset")
    return checked_partition([len(c) for c in t.removed], NonMonotoneSizes, "removal sizes")


def _solve(P: Partition, pick_all: bool) -> tuple[dict, dict[Partition, int]]:
    """The process DAG from P, each state solved once; no vertex is removed.

    ``moves[s]`` pairs each chosen maximizing anchor of state s (all, or
    the largest) with the state it leads to; ``paths[s]`` counts the full
    traces from s, and ``paths`` holds every state after the states it
    leads to.
    """
    if P.n < 1:
        raise EmptyPartition("needs a nonempty partition")
    moves: dict[Partition, list[tuple[int, Partition]]] = {}
    paths = {Partition(): 1}

    def solve(cur: Partition) -> int:
        if cur not in paths:
            _, winners = max_simple_u_chains(cur)
            moves[cur] = [(a, _shrink(cur, a)) for a in (winners if pick_all else (max(winners),))]
            paths[cur] = sum(solve(nxt) for _, nxt in moves[cur])
        return paths[cur]

    solve(P)
    return moves, paths


def _steps(P: Partition, pick_all: bool) -> tuple[dict, dict[Partition, int]]:
    """The solved process DAG from P with each (state, anchor) removal realized.

    ``steps[s]`` lists (anchor, next state, removed set in s's labels) for
    every chosen move of state s; ``paths`` is ``_solve``'s, children first.
    Refuses more than ``TRACE_CAP`` full traces before removing anything.
    """
    moves, paths = _solve(P, pick_all)
    if paths[P] > TRACE_CAP:
        raise EnumerationCapExceeded(f"more than {TRACE_CAP} full traces for {P}: {paths[P]}")
    steps = {cur: [(a, nxt, remove_simple_chain(cur, a, nxt)[1]) for a, nxt in ms]
             for cur, ms in moves.items()}
    return steps, paths


def _search(P: Partition, pick_all: bool) -> list[ProcessTrace]:
    """The full traces from P, depth-first over the solved DAG.

    A removed set pulled back to P depends on the anchor history only
    through the lifts of the levels it touches, so paths that take the
    same removal at the same lifts share one pulled-back set.  The table
    of shared sets lives for this call only.
    """
    steps, _ = _steps(P, pick_all)
    walk = {cur: [(a, nxt, rem, sorted({p for _, p, _ in rem})) for a, nxt, rem in ms]
            for cur, ms in steps.items()}
    shared: dict[tuple, frozenset[Vertex]] = {}
    results: list[ProcessTrace] = []

    def rec(cur: Partition, anchors: list[int], parts: list[Partition],
            removed: list[frozenset[Vertex]]) -> None:
        if cur.n == 0:
            results.append(ProcessTrace(P, tuple(anchors), tuple(parts) + (cur,), tuple(removed)))
            return
        for a, nxt, rem, levels in walk[cur]:
            key = (rem, tuple([_lift(p, anchors) for p in levels]))
            pulled = shared.get(key)
            if pulled is None:
                pulled = shared[key] = _pull_back(rem, anchors)
            removed.append(pulled)
            anchors.append(a)
            parts.append(cur)
            rec(nxt, anchors, parts, removed)
            anchors.pop()
            parts.pop()
            removed.pop()

    rec(P, [], [], [])
    return results


def prefix_families(P: Partition) -> tuple[int, dict[UChainSpec, frozenset[Vertex]]]:
    """The number of full traces of P and the chain family of every prefix.

    Maps the specification of each distinct prefix union C_1 ∪ ... ∪ C_r of
    a full trace to that union, listing no trace.  A prefix from state s
    starting at anchor a is ``strand(s, a, 1)`` plus a prefix from the state
    it leads to, lifted one step; visited children first, each state builds
    each of its prefixes once, keyed by its sorted lifted anchor values.
    Equal keys must cover equal sets, each removal must miss the lifted
    rest, and at P each family must realize its union (``_as_spec``); a
    failure raises a ``CheckFailed``.  ``_steps`` refuses above the cap.
    """
    steps, paths = _steps(P, True)
    prefixes: dict[Partition, dict[tuple[int, ...], frozenset[Vertex]]] = {}
    for cur in paths:  # children first, from the empty state
        found: dict[tuple[int, ...], frozenset[Vertex]] = {}
        for a, nxt, removed in steps.get(cur, ()):
            own = [((a, a + 1), removed)]
            for values, rest in prefixes[nxt].items():
                lifted = _pull_back(rest, (a,))
                union = removed | lifted
                if len(union) != len(removed) + len(lifted):
                    raise RelabelCollision(f"anchor {a} of {cur} removes a vertex of a later step")
                key = tuple(sorted((a, a + 1) + tuple(_lift(v, (a,)) for v in values)))
                own.append((key, union))
            for key, union in own:
                if found.setdefault(key, union) != union:
                    raise NoMatchingSpec(f"prefixes of {cur} with lifted anchors {key} differ")
        prefixes[cur] = found
    families = {_as_spec(P, values, union): union for values, union in prefixes[P].items()}
    return paths[P], families


def count_full_processes(P: Partition) -> int:
    """The number of full traces of P, without listing them.

    Read off the solved process DAG; equals ``len(enumerate_full_processes(P))``,
    with no cap.
    """
    return _solve(P, True)[1][P]


def enumerate_full_processes(P: Partition) -> list[ProcessTrace]:
    """All full traces of P, branching over every maximum simple chain.

    Branches are deduplicated per step by the removed vertex set (anchors
    selecting the same set are one choice).  Raises, before listing any,
    when the number of traces exceeds ``TRACE_CAP`` rather than
    truncating silently.
    """
    return _search(P, pick_all=True)


def canonical_process(P: Partition) -> ProcessTrace:
    """The deterministic trace that prefers the largest maximizing anchor.

    The preferred chain runs through the highest levels of the diagram;
    by the agreement of all full traces the resulting partition does not
    depend on this tie-break.
    """
    return _search(P, pick_all=False)[0]


def union_as_uchain(t: ProcessTrace, r: int) -> UChainSpec:
    """An anchor set whose chain family equals C_1 ∪ ... ∪ C_r as vertices.

    Built by lifting the anchor pair of every step into the start poset
    with ``_lift``; the collected values always regroup into adjacent
    pairs.  The family, realized by ``materialize`` once per start
    partition, is compared with the actual union; a mismatch raises
    NoMatchingSpec.  The first call for ``t`` forms the values and the
    union of every prefix of ``t``, each union taken from the union table,
    and publishes them with ``t`` as one new tuple, so a call made
    meanwhile, in this thread or another, never sees them half formed;
    the calls for ``t`` that follow read them there.  A prefix is looked
    up in the spec table and compared with its family only on a miss;
    only a pair whose check passed enters the table.
    """
    if not is_integer(r) or not 1 <= r <= t.steps:
        raise InvalidParameter(f"prefix length {r!r} is not an integer in 1..{t.steps}")
    entry = _realized(t.start)
    seen, prefixes = entry.path
    if seen is not t:
        unions, values, union, prefixes = entry.unions, (), frozenset(), ()
        for j in range(t.steps):
            a, history = t.anchors[j], t.anchors[:j]
            values = tuple(sorted((*values, _lift(a, history), _lift(a + 1, history))))
            step = (union, frozenset(t.removed[j]))
            union = unions.get(step)
            if union is None:
                union = step[0] | step[1]
                union = unions.setdefault(step, unions.setdefault(union, union))
            prefixes += ((values, union),)
        entry.path = (t, prefixes)
    key = prefixes[r - 1]
    spec = entry.specs.get(key)
    if spec is None:
        spec = entry.specs.setdefault(key, _as_spec(t.start, *key))
    return spec


def _as_spec(P: Partition, values: Sequence[int], union: frozenset[Vertex]) -> UChainSpec:
    """The specification whose expanded anchor values are ``values``, ascending.

    The values must pair up as a, a+1 with gaps of at least 2 between the
    pairs, and the family must realize ``union`` in P; otherwise no family
    matches, and NoMatchingSpec is raised.  The family is looked up in
    ``_realized`` and realized only when P's entry lacks it.
    """
    anchors = list(values[::2])
    if list(values[1::2]) != [a + 1 for a in anchors]:
        raise NoMatchingSpec(f"transported values {list(values)} do not pair up")
    families = _realized(P).families
    key = tuple(anchors)
    known = families.get(key)
    if known is None:
        try:
            spec = UChainSpec(key)
        except ValueError as exc:
            raise NoMatchingSpec(f"transported anchors invalid: {anchors} ({exc})") from None
        known = families[key] = (spec, materialize(P, spec).union)
    spec, realized = known
    if realized != union:
        raise NoMatchingSpec(
            f"anchors {anchors} realize {len(realized)} vertices, prefix union has {len(union)}"
        )
    return spec


@dataclass(slots=True)
class _Entry:
    """One start partition's families, union and spec tables, and latest prefixes (see ``_realized``)."""

    families: dict[tuple[int, ...], tuple[UChainSpec, frozenset[Vertex]]] = field(default_factory=dict)
    unions: dict[tuple[frozenset[Vertex], frozenset[Vertex]] | frozenset[Vertex], frozenset[Vertex]] = field(
        default_factory=dict)
    specs: dict[tuple[tuple[int, ...], frozenset[Vertex]], UChainSpec] = field(default_factory=dict)
    path: tuple[ProcessTrace | None, tuple[tuple[tuple[int, ...], frozenset[Vertex]], ...]] = (None, ())


@lru_cache(maxsize=1)
def _realized(P: Partition) -> _Entry:
    """The families ``_as_spec`` has met in P, and ``union_as_uchain``'s tables and latest prefixes.

    The families are keyed by the anchors, each entry holding the
    validated specification and its family's union.  The union table maps
    (prefix union, removed set) to the next prefix union, and each union
    to itself; the spec table maps (values, union) to the specification
    ``_as_spec`` returned, for the pairs whose check passed.  An entry of
    any of the three is a pure function of its key and, once stored, never
    changes.  ``path`` is the latest trace and its prefixes, O(steps · n)
    vertices, replaced whole.  Only the latest start partition's entry is
    kept, like ``strand_table``'s strands, so the memory stays at one
    partition's families however many partitions are seen.
    """
    return _Entry()


def trace_to_json(t: ProcessTrace) -> str:
    """Serialize a trace deterministically for export."""
    steps = []
    for i in range(t.steps):
        steps.append({
            "a": t.anchors[i],
            "P_next": list(t.partitions[i + 1].parts),
            "removed": [list(v) for v in sorted(t.removed[i], key=sort_key)],
        })
    payload = {
        "P": list(t.start.parts),
        "steps": steps,
        "Q": list(q_of_trace(t).parts) if t.full else None,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
