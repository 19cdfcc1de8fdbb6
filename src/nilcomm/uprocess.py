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
removing anything, then realizes each (state, anchor) removal once.  The
search walks its paths depth-first; ``prefix_families`` walks its states
children first and checks each distinct prefix union of a state once, so
the sweep checks prefix families, not traces.  The solved DAG lives for
one call only: a later call for another partition never reuses it.

A removed set is pulled back to the start poset in closed form.  Each
relabeling moves whole levels, so the composite of the relabelings along
the anchor history shifts a level p by some t >= 0 to
(u, p, k) -> (u+t, p+2t, k).  ``_lift`` computes t, latest anchor first;
it is the only statement of the relabeling rule: ``_relabel_vertex``,
the pull-back of removed sets and the anchor transport of
``union_as_uchain`` and ``prefix_families`` all call it.  ``_as_spec``
is the only statement of how lifted anchor values pair up into a
specification.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
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
)
from .partitions import Partition
from .poset import Vertex, sort_key, vertex_list
from .uchains import UChainSpec, materialize, max_simple_u_chains, strand

TRACE_CAP = 10 ** 6  # no partition of n <= 28 has more than 48 full traces


def _lift(p: int, history: Sequence[int]) -> int:
    """The shift t that embeds level p of a later state into the start.

    The state is the one that the removals at the anchors ``history``, in
    order, lead to; its vertex (u, p, k) is (u+t, p+2t, k) at the start.
    Each removal at anchor a embeds a level q >= a of what is left as
    level q + 2 of its parent, and its positions one higher; q < a stays.
    """
    q = p
    for a in reversed(history):
        if q >= a:
            q += 2
    return (q - p) // 2


def _relabel_vertex(v: Vertex, a: int) -> Vertex:
    """Embed vertex v of the poset left by removal at anchor a into its parent."""
    u, p, k = v
    t = _lift(p, (a,))
    return (u + t, p + 2 * t, k)


def _pull_back(removed: frozenset[Vertex], history: Sequence[int]) -> frozenset[Vertex]:
    """Relabel ``removed`` into the start poset.

    ``removed`` is in the labels of the state that the removals at the
    anchors ``history``, in order, lead to.
    """
    shift = {p: _lift(p, history) for p in {p for _, p, _ in removed}}
    return frozenset([(u + shift[p], p + 2 * shift[p], k) for u, p, k in removed])


def _shrink(P: Partition, a: int) -> Partition:
    """The partition left after removing the simple chain at anchor a."""
    return Partition([p if p < a else p - 2 for p in P.parts if not a <= p <= a + 1])


def remove_simple_chain(P: Partition, a: int) -> tuple[Partition, frozenset[Vertex]]:
    """Remove the simple chain at anchor ``a`` from the poset of P.

    Returns the surviving partition and the removed vertex set (in P's
    labels).  The surviving poset embeds back into P's by the relabeling
    described in the module docstring.  The removed set must be nonempty,
    hold exactly the vertices the step loses, and miss every relabeled
    survivor.
    """
    if a < 1:
        raise InvalidParameter(f"anchors must be positive integers: {a}")
    removed = strand(P, a, 1)
    if not removed:
        raise EmptyChainRemoval(f"anchor {a} selects nothing in {P}")
    P_next = _shrink(P, a)
    if len(removed) != P.n - P_next.n:
        raise RemovalSizeMismatch(f"anchor {a} removes {len(removed)} vertices, but {P} -> {P_next} "
                                  f"loses {P.n - P_next.n}")
    for v in vertex_list(P_next):
        w = _relabel_vertex(v, a)
        if w in removed:
            raise RelabelCollision(f"relabeled vertex {v} -> {w} collides with the removed chain")
    return P_next, removed


@dataclass(frozen=True)
class ProcessTrace:
    """One run of the recursive removal.

    ``partitions`` lists the intermediate partitions starting at ``start``
    and ending with the terminal one (empty iff the trace is full);
    ``removed[i]`` is the i-th removed set pulled back to the original
    poset; ``anchors[i]`` is the anchor chosen at step i, in the
    coordinates of ``partitions[i]``.
    """

    start: Partition
    anchors: tuple[int, ...]
    partitions: tuple[Partition, ...]
    removed: tuple[frozenset[Vertex], ...]

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
    sizes = [len(c) for c in t.removed]
    for i in range(1, len(sizes)):
        if sizes[i] > sizes[i - 1]:
            raise NonMonotoneSizes(f"removal sizes increase: {sizes}")
    return Partition(sizes)


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
    steps = {cur: [(a, nxt, remove_simple_chain(cur, a)[1]) for a, nxt in ms]
             for cur, ms in moves.items()}
    return steps, paths


def _search(P: Partition, pick_all: bool) -> list[ProcessTrace]:
    steps, _ = _steps(P, pick_all)
    results: list[ProcessTrace] = []

    def rec(cur: Partition, anchors: list[int], parts: list[Partition],
            removed: list[frozenset[Vertex]]) -> None:
        if cur.n == 0:
            results.append(ProcessTrace(P, tuple(anchors), tuple(parts) + (cur,), tuple(removed)))
            return
        for a, nxt, rem in steps[cur]:
            removed.append(_pull_back(rem, anchors))
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
                key = tuple(sorted((a, a + 1) + tuple(v + 2 * _lift(v, (a,)) for v in values)))
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
    pairs.  The family is realized by ``materialize`` and compared with
    the actual union; a mismatch raises NoMatchingSpec.
    """
    if not 1 <= r <= t.steps:
        raise InvalidParameter(f"prefix length {r} out of range 1..{t.steps}")
    values = []
    for i, a in enumerate(t.anchors[:r]):
        history = t.anchors[:i]
        values += (a + 2 * _lift(a, history), a + 1 + 2 * _lift(a + 1, history))
    return _as_spec(t.start, sorted(values), frozenset().union(*t.removed[:r]))


def _as_spec(P: Partition, values: Sequence[int], union: frozenset[Vertex]) -> UChainSpec:
    """The specification whose expanded anchor values are ``values``, ascending.

    The values must pair up as a, a+1 with gaps of at least 2 between the
    pairs, and the family must realize ``union`` in P; otherwise no family
    matches, and NoMatchingSpec is raised.
    """
    anchors = list(values[::2])
    if list(values[1::2]) != [a + 1 for a in anchors]:
        raise NoMatchingSpec(f"transported values {list(values)} do not pair up")
    try:
        spec = UChainSpec(tuple(anchors))
    except ValueError as exc:
        raise NoMatchingSpec(f"transported anchors invalid: {anchors} ({exc})") from None
    realized = materialize(P, spec).union
    if realized != union:
        raise NoMatchingSpec(
            f"anchors {anchors} realize {len(realized)} vertices, prefix union has {len(union)}"
        )
    return spec


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
