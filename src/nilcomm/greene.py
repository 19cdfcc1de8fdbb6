"""Maximum chain unions and the chain invariant of a finite poset.

For a poset of cardinality m, let ``c_k`` be the maximum number of
vertices covered by a union of k chains (k disjoint chains, without loss
of generality).  The successive differences ``c_k - c_{k-1}`` form a
partition of m (Greene, JCTA 20, 1976); this module computes the profile
as a minimum-cost flow on the covering digraph, certifies every ``c_k``
with explicit chains, and keeps an exhaustive routine for small posets.

Network.  Every vertex v splits into in(v) and out(v), joined by two
arcs: a *counted* arc (capacity 1, cost -1) and a *pass-through* arc
(unbounded, cost 0).  Every cover v < w gives an unbounded arc
out(v) -> in(w) of cost 0, and the source reaches every in(v) and every
out(v) reaches the sink by unbounded arcs.  That is O(m + covers) arcs,
not one per comparable pair.  A unit of flow follows a path of covers,
so the vertices it counts form a chain; the counted arcs keep those
chains disjoint, so k units cost at least -c_k.  Conversely k
disjoint chains extend to k cover paths that count exactly their own
vertices, passing through the vertices in between, which other chains
may count: the pass-through arcs make that possible.  The minimum cost
of k units is therefore exactly -c_k.

Search.  Successive shortest paths: the initial potentials are the
shortest distances from the source, one pass over the poset's
topological order ``Poset.topo``.  Each augmentation
is then one Dijkstra search on reduced costs, which the potentials keep
nonnegative, followed by a potential update.  The path costs increase
weakly, which makes the profile concave; that is checked, not assumed.

Certificate.  After augmentation k the flow is broken into its k unit
source-sink paths, each with every vertex it visits, counted or passed
through.  Each consecutive pair on a path must be a cover of the poset,
looked up in the successor lists ``Poset.succ`` and not in the flow's
own arcs, so the counted vertices of a path form a chain; the chains
must be pairwise disjoint and cover exactly ``c_k`` vertices.  No order
query, and so no closure, is needed.  A failure raises
``ChainCertificateFailed``.  This certifies that each
``c_k`` is attained; its optimality rests on the flow and, for small
posets, on the exhaustive oracle.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import ChainCertificateFailed, NonMonotoneProfile, PosetTooLarge
from .partitions import Partition
from .poset import Poset

_INF = 10 ** 18


class _CoverFlow:
    """Successive shortest paths on the split cover network of a poset.

    Node 2i is in(v_i), 2i+1 is out(v_i), 2m the source, 2m+1 the sink.
    Arc 2f is the f-th forward arc and 2f+1 its residual twin.  Forward
    arcs f < m are the counted arcs of v_f; then come the pass-through,
    source and sink arcs, then one arc per cover.
    """

    def __init__(self, D: Poset):
        m = len(D)
        self.source, self.sink = 2 * m, 2 * m + 1
        unbounded = m + 1  # no arc ever carries more than m units
        ins, outs = range(0, 2 * m, 2), range(1, 2 * m, 2)
        tails = [*ins, *ins, *[self.source] * m, *outs,
                 *(2 * i + 1 for i, js in enumerate(D.succ) for _ in js)]
        heads = [*outs, *outs, *ins, *[self.sink] * m, *(2 * j for js in D.succ for j in js)]
        num_arcs = 2 * len(tails)
        self.to = [0] * num_arcs
        self.to[0::2], self.to[1::2] = heads, tails
        self.cap = [0] * num_arcs
        self.cap[0::2] = [1] * m + [unbounded] * (len(tails) - m)
        self.cost = [0] * num_arcs
        self.cost[0:2 * m:2] = [-1] * m
        self.cost[1:2 * m:2] = [1] * m
        self.adj: list[list[int]] = [[] for _ in range(2 * m + 2)]
        for f, (u, v) in enumerate(zip(tails, heads)):
            self.adj[u].append(2 * f)
            self.adj[v].append(2 * f + 1)
        self.potential = self._initial_potentials(D)

    def _initial_potentials(self, D: Poset) -> list[int]:
        """Shortest distances from the source in the empty-flow network.

        in(v) is at minus the longest chain strictly below v, out(v) one
        lower; the covers are relaxed in the topological order of D.
        """
        m = len(D)
        dist = [0] * (2 * m + 2)
        for i in D.topo:
            out = dist[2 * i] - 1
            dist[2 * i + 1] = out
            for j in D.succ[i]:
                if out < dist[2 * j]:
                    dist[2 * j] = out
        dist[self.sink] = min(dist[1:2 * m:2], default=0)
        return dist

    def augment(self) -> int:
        """Push one cheapest unit from source to sink; return its cost."""
        to, cap, cost, adj, pot = self.to, self.cap, self.cost, self.adj, self.potential
        num = len(adj)
        dist = [_INF] * num
        parent = [-1] * num
        s, t = self.source, self.sink
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if u == t:
                break
            if d > dist[u]:
                continue
            base = d + pot[u]
            for eid in adj[u]:
                if cap[eid]:
                    v = to[eid]
                    nd = base + cost[eid] - pot[v]
                    if nd < dist[v]:
                        if nd < d:
                            raise NonMonotoneProfile(
                                f"negative reduced cost on arc {eid}: the potentials are not feasible")
                        dist[v] = nd
                        parent[v] = eid
                        heapq.heappush(heap, (nd, v))
        # Nodes not settled before t are at least dist[t] away; capping them
        # there keeps every reduced cost nonnegative.
        dt = dist[t]
        pot = self.potential = [p + (d if d < dt else dt) for p, d in zip(pot, dist)]
        v = t
        while v != s:
            eid = parent[v]
            cap[eid] -= 1
            cap[eid ^ 1] += 1
            v = to[eid ^ 1]
        return pot[t] - pot[s]

    def paths(self) -> list[list[int]]:
        """Break the flow into unit source-sink paths.

        Each path lists the in-out arcs it takes, in path order: i where
        it counts vertex v_i and m + i where it passes through v_i.
        """
        to, adj, split = self.to, self.adj, self.source  # arcs f < 2m join in(v) to out(v)
        flow = self.cap[1::2]  # flow on arc 2f is the residual capacity of its twin
        nxt = [0] * len(adj)  # per node, the first arc that may still carry flow
        out: list[list[int]] = []
        while True:
            u = self.source
            path: list[int] = []
            while u != self.sink:
                eids = adj[u]
                i = nxt[u]
                while i < len(eids) and (eids[i] & 1 or not flow[eids[i] >> 1]):
                    i += 1
                nxt[u] = i
                if i == len(eids):
                    if u == self.source:
                        return out
                    raise ChainCertificateFailed(f"flow is not conserved at node {u}")
                f = eids[i] >> 1
                flow[f] -= 1
                if f < split:
                    path.append(f)
                u = to[2 * f]
            out.append(path)


@dataclass(frozen=True)
class ChainUnionProfile:
    """Cumulative maxima c_0..c_m (c_m = n) and their differences."""

    cumulative: tuple[int, ...]
    lam: Partition


def _certify(D: Poset, paths: list[list[int]], k: int, c_k: int) -> None:
    """Check that ``paths``, as from ``_CoverFlow.paths``, are k cover
    paths of D whose counted vertices are disjoint and number c_k."""
    if len(paths) != k:
        raise ChainCertificateFailed(f"flow of value {k} splits into {len(paths)} paths")
    m = len(D)
    counted: list[int] = []
    for path in paths:
        for f, g in zip(path, path[1:]):
            if g % m not in D.succ[f % m]:
                raise ChainCertificateFailed(f"path steps from {D.vertices[f % m]} to "
                                             f"{D.vertices[g % m]}, which is not a cover")
        counted.extend(f for f in path if f < m)
    size = len(counted)
    if len(set(counted)) != size:
        raise ChainCertificateFailed(f"the {k} chains of the flow overlap")
    if size != c_k:
        raise ChainCertificateFailed(f"the {k} chains of the flow cover {size} vertices, "
                                     f"its cost claims c_{k} = {c_k}")


def chain_union_profile(D: Poset) -> ChainUnionProfile:
    """Compute the full profile of maximum k-chain-union sizes."""
    m = len(D)
    if m == 0:
        return ChainUnionProfile((0,), Partition())
    flow = _CoverFlow(D)
    cumulative = [0]
    total = 0
    while cumulative[-1] < m:
        cost = flow.augment()
        if cost >= 0:
            raise NonMonotoneProfile("flow stalled before covering the poset")
        total += cost
        cumulative.append(-total)
        _certify(D, flow.paths(), len(cumulative) - 1, cumulative[-1])

    parts = [cumulative[k] - cumulative[k - 1] for k in range(1, len(cumulative))]
    for i in range(1, len(parts)):
        if parts[i] > parts[i - 1]:
            raise NonMonotoneProfile(f"profile differences increase: {parts}")
    return ChainUnionProfile(tuple(cumulative), Partition(parts))


def greene_lambda(D: Poset) -> Partition:
    """The chain invariant: differences of the chain-union profile."""
    return chain_union_profile(D).lam


def oracle_max_k_chain_union(D: Poset, k: int) -> int:
    """Exhaustive c_k for posets of at most 12 vertices.

    Independent of the flow path: a vertex set is coverable by k chains
    exactly when its induced width (largest antichain) is at most k, so
    scan all subsets and maximize cardinality under that width bound.
    """
    m = len(D)
    if m > 12:
        raise PosetTooLarge(f"{m} vertices is beyond the exhaustive oracle")
    if k <= 0 or m == 0:
        return 0
    comp = [0] * m
    for i, v in enumerate(D.vertices):
        for j, w in enumerate(D.vertices):
            if i != j and (D.less(v, w) or D.less(w, v)):
                comp[i] |= 1 << j

    width_memo: dict[int, int] = {0: 0}

    def width(mask: int) -> int:
        if mask in width_memo:
            return width_memo[mask]
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        result = max(width(rest), 1 + width(rest & ~comp[low]))
        width_memo[mask] = result
        return result

    best = 0
    for mask in range(1 << m):
        size = mask.bit_count()
        if size > best and width(mask) <= k:
            best = size
    return best
