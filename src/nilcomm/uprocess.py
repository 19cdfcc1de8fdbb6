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
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    EmptyChainRemoval,
    EnumerationCapExceeded,
    NoMatchingSpec,
    NonMonotoneSizes,
    NotFullProcess,
)
from .partitions import Partition
from .poset import Vertex, sort_key, vertex_list
from .uchains import UChainSpec, materialize, max_simple_u_chains


@dataclass
class RelabelMap:
    """Embedding of the post-removal poset into its parent, for anchor a."""

    anchor: int
    forward: dict[Vertex, Vertex]

    def apply(self, v: Vertex) -> Vertex:
        return self.forward[v]


def _relabel_vertex(v: Vertex, a: int) -> Vertex:
    u, p, k = v
    if p < a:
        return v
    return (u + 1, p + 2, k)


def remove_simple_chain(P: Partition, a: int) -> tuple[Partition, RelabelMap, frozenset[Vertex]]:
    """Remove the simple chain at anchor ``a`` from the poset of P.

    Returns the surviving partition, the relabeling into P's poset, and
    the removed vertex set (in P's labels).
    """
    removed = materialize(P, UChainSpec((a,))).union
    if not removed:
        raise EmptyChainRemoval(f"anchor {a} selects nothing in {P}")
    next_parts: list[int] = []
    for p in P.parts:
        if p < a:
            next_parts.append(p)
        elif p > a + 1:
            next_parts.append(p - 2)
    P_next = Partition(next_parts)
    forward = {v: _relabel_vertex(v, a) for v in vertex_list(P_next)}
    for v, w in forward.items():
        if w in removed:
            raise AssertionError(f"relabeled vertex {v} -> {w} collides with the removed chain")
    return P_next, RelabelMap(a, forward), removed


@dataclass
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
    full: bool

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


def _search(P: Partition, pick_all: bool, cap: int) -> list[ProcessTrace]:
    results: list[ProcessTrace] = []
    identity = {v: v for v in vertex_list(P)}

    def rec(cur: Partition, comp: dict[Vertex, Vertex],
            anchors: list[int], parts: list[Partition],
            removed: list[frozenset[Vertex]]) -> None:
        if cur.n == 0:
            if len(results) >= cap:
                raise EnumerationCapExceeded(f"more than {cap} full traces for {P}")
            results.append(ProcessTrace(P, tuple(anchors), tuple(parts) + (cur,),
                                        tuple(removed), True))
            return
        _, winners = max_simple_u_chains(cur)
        choices = winners if pick_all else (max(winners),)
        for a in choices:
            nxt, iota, rem = remove_simple_chain(cur, a)
            pulled = frozenset(comp[v] for v in rem)
            comp_next = {v: comp[iota.apply(v)] for v in vertex_list(nxt)}
            anchors.append(a)
            parts.append(cur)
            removed.append(pulled)
            rec(nxt, comp_next, anchors, parts, removed)
            anchors.pop()
            parts.pop()
            removed.pop()

    rec(P, identity, [], [], [])
    return results


def enumerate_full_processes(P: Partition, cap: int = 10 ** 6) -> list[ProcessTrace]:
    """All full traces of P, branching over every maximum simple chain.

    Branches are deduplicated per step by the removed vertex set (anchors
    selecting the same set are one choice).  Raises when the number of
    traces exceeds ``cap`` rather than truncating silently.
    """
    if P.n < 1:
        raise ValueError("needs a nonempty partition")
    return _search(P, pick_all=True, cap=cap)


def canonical_process(P: Partition) -> ProcessTrace:
    """The deterministic trace that prefers the largest maximizing anchor.

    The preferred chain runs through the highest levels of the diagram;
    by the agreement of all full traces the resulting partition does not
    depend on this tie-break.
    """
    if P.n < 1:
        raise ValueError("needs a nonempty partition")
    return _search(P, pick_all=False, cap=2)[0]


def union_as_uchain(t: ProcessTrace, r: int) -> UChainSpec:
    """An anchor set whose chain family equals C_1 ∪ ... ∪ C_r as vertices.

    Built by transporting the anchor pairs of later steps through the
    relabelings of earlier ones: a level from step i+1 keeps its value
    below the step-i anchor and moves up by two otherwise.  The collected
    values always regroup into adjacent pairs; the result is verified
    against the actual union and a mismatch raises NoMatchingSpec.
    """
    if not 1 <= r <= t.steps:
        raise ValueError(f"prefix length {r} out of range 1..{t.steps}")
    expanded: set[int] = set()
    for i in range(r - 1, -1, -1):
        a = t.anchors[i]
        expanded = {lv if lv < a else lv + 2 for lv in expanded}
        expanded |= {a, a + 1}
    values = sorted(expanded)
    anchors: list[int] = []
    pos = 0
    while pos < len(values):
        if pos + 1 >= len(values) or values[pos + 1] != values[pos] + 1:
            raise NoMatchingSpec(f"transported values {values} do not pair up")
        anchors.append(values[pos])
        pos += 2
    try:
        spec = UChainSpec(tuple(anchors))
    except ValueError as exc:
        raise NoMatchingSpec(f"transported anchors invalid: {anchors} ({exc})") from None
    realized = materialize(t.start, spec).union
    actual = frozenset().union(*t.removed[:r])
    if realized != actual:
        raise NoMatchingSpec(
            f"anchors {anchors} realize {len(realized)} vertices, prefix union has {len(actual)}"
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
