"""The covering-edge poset on the standard Jordan basis of a partition.

Vertices are triples ``(u, p, k)``: position ``u`` within a row of length
``p`` (the *level*), in the ``k``-th row of that level.  The covering
edges come in four families:

* ``e``     -- within a level, from row k to row k+1 at the same position;
* ``beta``  -- from the top row of a level to the bottom row of the next
               smaller level, at the same position;
* ``alpha`` -- from the top row of a level to the bottom row of the next
               larger level, shifted right by the length difference;
* ``omega`` -- within an *isolated* level (both neighboring levels, where
               present, differ by more than one), stepping one position to
               the right from the top row to the bottom row.

The partial order is the reflexive-transitive closure of the covers; a
``Poset`` stores the covers once, as successor lists, and computes the
closure only when an order query needs it.
"""
from __future__ import annotations

import json
from collections import Counter
from functools import cached_property
from itertools import chain
from typing import Iterable

from .errors import CyclicCovers, VertexNotInPoset
from .partitions import Partition

Vertex = tuple[int, int, int]


def sort_key(v: Vertex) -> tuple[int, int, int]:
    """Deterministic vertex order: by level, then row, then position."""
    u, p, k = v
    return (p, k, u)


def vertex_list(P: Partition) -> list[Vertex]:
    """All basis triples of P in the canonical order."""
    out: list[Vertex] = []
    for p in P.distinct_parts():
        for k in range(1, P.mult(p) + 1):
            for u in range(1, p + 1):
                out.append((u, p, k))
    return out


def _is_isolated(levels: tuple[int, ...], i: int) -> bool:
    """Whether levels[i] has no neighboring level within distance one.

    Missing neighbors (extremal levels) count as infinitely far away, so a
    single-level partition is isolated.
    """
    p = levels[i]
    below_ok = i == 0 or p - levels[i - 1] > 1
    above_ok = i == len(levels) - 1 or levels[i + 1] - p > 1
    return below_ok and above_ok


class Poset:
    """Covering digraph of a partition's basis poset.

    The order is held once, by position in ``vertices`` (``index``):
    ``succ[i]`` lists the vertices that cover vertex i, ascending; it is
    the one copy of the covers, which ``covers`` lists as vertex pairs.
    ``topo`` is one topological order; both take O(m + covers) to build,
    and a cyclic cover list is refused there.  ``less`` and ``is_chain``
    read an int-bitset closure computed on the first such query, in one
    pass over the reverse topological order; the flow and its certificate
    read only ``succ``, so they never build it.

    Immutable after construction; all queries are pure.
    """

    def __init__(self, vertices: Iterable[Vertex], covers: Iterable[tuple[Vertex, Vertex]]):
        self.vertices: tuple[Vertex, ...] = tuple(sorted(set(vertices), key=sort_key))
        self.index: dict[Vertex, int] = {v: i for i, v in enumerate(self.vertices)}
        m = len(self.vertices)
        succ: list[list[int]] = [[] for _ in range(m)]
        for a, b in covers:
            if a not in self.index or b not in self.index:
                raise VertexNotInPoset(f"cover ({a}, {b}) uses unknown vertices")
            succ[self.index[a]].append(self.index[b])
        self.succ: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(set(js))) for js in succ)
        indeg = Counter(chain.from_iterable(self.succ))
        # Kahn's algorithm; ``sort_key`` order is not topological, since
        # ``beta`` covers go to lower levels.
        topo = [i for i in range(m) if not indeg[i]]
        for i in topo:
            for j in self.succ[i]:
                indeg[j] -= 1
                if not indeg[j]:
                    topo.append(j)
        if len(topo) < m:
            raise CyclicCovers(f"covering digraph has a cycle: {m - len(topo)} vertices "
                               "lie on or above one")
        self.topo: tuple[int, ...] = tuple(topo)

    @property
    def covers(self) -> tuple[tuple[Vertex, Vertex], ...]:
        """Every cover (v, w), w covering v, ascending by (sort_key(v), sort_key(w))."""
        vs = self.vertices
        return tuple([(vs[i], vs[j]) for i, js in enumerate(self.succ) for j in js])

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def _up(self) -> list[int]:
        """Bit j of ``_up[i]`` is set iff vertex j is strictly above vertex i."""
        up = [0] * len(self.vertices)
        for i in reversed(self.topo):
            mask = 0
            for j in self.succ[i]:
                mask |= up[j] | 1 << j
            up[i] = mask
        return up

    def less(self, v: Vertex, w: Vertex) -> bool:
        """Strict order: v < w."""
        return bool(self._up[self._index(v)] >> self._index(w) & 1)

    def is_chain(self, S: Iterable[Vertex]) -> bool:
        """True iff every pair of S is comparable (empty sets vacuously so)."""
        elems = list(set(S))
        for v in elems:
            self._index(v)
        for i, v in enumerate(elems):
            for w in elems[i + 1:]:
                if not (self.less(v, w) or self.less(w, v)):
                    return False
        return True

    def _index(self, v: Vertex) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise VertexNotInPoset(f"{v} is not a vertex of this poset") from None


def build_poset(P: Partition) -> Poset:
    """Construct the basis poset of P with its four covering-edge families."""
    levels = P.distinct_parts()
    covers: list[tuple[Vertex, Vertex]] = []

    for p in levels:
        m = P.mult(p)
        for k in range(1, m):
            for u in range(1, p + 1):
                covers.append(((u, p, k), (u, p, k + 1)))

    for i in range(1, len(levels)):
        hi, lo = levels[i], levels[i - 1]
        for u in range(1, lo + 1):
            covers.append(((u, hi, P.mult(hi)), (u, lo, 1)))

    for i in range(len(levels) - 1):
        lo, hi = levels[i], levels[i + 1]
        for u in range(1, lo + 1):
            covers.append(((u, lo, P.mult(lo)), (u + hi - lo, hi, 1)))

    for i, p in enumerate(levels):
        if _is_isolated(levels, i):
            for u in range(1, p):
                covers.append(((u, p, P.mult(p)), (u + 1, p, 1)))

    return Poset(vertex_list(P), covers)


def export_dot(D: Poset) -> str:
    """Render the covering digraph in DOT format.

    Output is deterministic: vertices in canonical order, one rank group
    per row of each level.
    """
    def name(v: Vertex) -> str:
        return f'"({v[0]},{v[1]},{v[2]})"'

    lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for v in D.vertices:
        lines.append(f"  {name(v)};")
    rows = sorted({(p, k) for (_, p, k) in D.vertices})
    for p, k in rows:
        members = [v for v in D.vertices if v[1] == p and v[2] == k]
        lines.append("  { rank=same; " + " ".join(name(v) + ";" for v in members) + " }")
    for a, b in D.covers:
        lines.append(f"  {name(a)} -> {name(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(D: Poset) -> str:
    """Serialize vertices and covering edges as deterministic JSON."""
    payload = {
        "vertices": [list(v) for v in D.vertices],
        "covers": [[list(a), list(b)] for a, b in D.covers],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
