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

Search.  Successive shortest paths.  One pass over the poset's
topological order ``Poset.topo`` gives the shortest distances from the
source, which become the potentials, and the arc into each node on one
shortest path.  The first augmentation walks those arcs back from the
sink, so no search runs for it, and it leaves the potentials as they
are: every node is at reduced distance 0.  Each later augmentation is
one search on reduced costs, which the potentials keep nonnegative,
followed by a potential update.  The costs are integers.  After k - 1
augmentations the sink's potential is the last path's cost,
-lambda_{k-1}, so the sink lies at reduced distance
lambda_{k-1} - lambda_k.  While a vertex is uncounted it alone is one
more chain, so lambda_k >= 1 and that distance lies in
0..lambda_{k-1} - 1, below m.  A bucket per distance therefore replaces
a heap (Dial, CACM 12, 1969).  A relaxation past the last bucket is dropped,
since the update caps every node not settled before the sink at the
sink's distance; a sink past it raises ``NonMonotoneProfile``.  The path
costs increase weakly, which makes the profile concave; that is checked,
not assumed.

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

from dataclasses import dataclass
from itertools import accumulate, chain, pairwise

from .errors import ChainCertificateFailed, InvalidParameter, NonMonotoneProfile, PosetTooLarge, is_integer
from .partitions import Partition, checked_partition
from .poset import Poset


class _CoverFlow:
    """Successive shortest paths on the split cover network of a poset.

    Node i is in(v_i), m + i is out(v_i), 2m the source, 2m+1 the sink.
    Arc 2f is the f-th forward arc and 2f+1 its residual twin.  Forward
    arc i is the counted arc of v_i, m + i its pass-through arc and 2m + i
    its source arc; from 3m on, each out(v_i) has a block of arcs, its
    sink arc and then its covers in the order of ``Poset.succ``.  A node
    lists its forward arcs first; a twin joins its tail's list when it
    first gets capacity.
    """

    def __init__(self, D: Poset):
        m = len(D)
        self.source, self.sink = s, t = 2 * m, 2 * m + 1
        unbounded = m + 1  # no arc ever carries more than m units
        ins, outs = range(m), range(m, 2 * m)
        blocks = [(t, *js) for js in D.succ]  # the heads of out(v_i)'s arcs
        heads = [*outs, *outs, *ins, *chain.from_iterable(blocks)]
        tails = [*ins, *ins, *[s] * m, *(o for o, b in zip(outs, blocks) for _ in b)]
        self.to = [0] * (2 * len(heads))
        self.to[0::2], self.to[1::2] = heads, tails
        self.cap = [0] * len(self.to)
        self.cap[0::2] = [1] * m + [unbounded] * (len(heads) - m)
        self.cost = [0] * len(self.to)
        self.cost[0:2 * m] = [-1, 1] * m  # a counted arc and its twin
        forward = list(range(0, len(self.to), 2))
        ends = accumulate(map(len, blocks), initial=3 * m)
        self.adj: list[list[int]] = [[2 * i, 2 * (m + i)] for i in ins]
        self.adj += [forward[a:b] for a, b in pairwise(ends)]
        self.adj += [forward[2 * m:3 * m], []]
        self.potential, self._first = self._initial_potentials(D)

    def _initial_potentials(self, D: Poset) -> tuple[list[int], list[int]]:
        """Shortest distances from the source in the empty-flow network,
        and the arc into each node on one shortest path, which the first
        augmentation takes.

        in(v) is at minus the longest chain strictly below v, out(v) one
        lower; the covers and sink arcs are relaxed in the topological
        order of D.
        """
        m, to, adj = len(D), self.to, self.adj
        dist = [0] * (2 * m + 2)
        # in(v) is reached by its source arc, out(v) by its counted arc
        parent = [*range(4 * m, 6 * m, 2), *range(0, 2 * m, 2), 0, 0]
        for i in D.topo:
            out = dist[m + i] = dist[i] - 1
            for eid in adj[m + i]:
                v = to[eid]
                if out < dist[v]:
                    dist[v] = out
                    parent[v] = eid
        return dist, parent

    def _search(self) -> list[int]:
        """Dial's search on reduced costs from the source, with buckets
        0..lambda_{k-1} - 1 (see the module docstring); return the arc into
        each node on a shortest path, and update the potentials."""
        to, cap, cost, adj, pot = self.to, self.cap, self.cost, self.adj, self.potential
        s, t = self.source, self.sink
        bound = pot[s] - pot[t] - 1
        dist = [bound + 1] * len(adj)  # beyond the buckets
        parent = [-1] * len(adj)
        dist[s] = 0
        buckets: list[list[int]] = [[] for _ in range(bound + 1)]
        if buckets:
            buckets[0].append(s)
        for d, bucket in enumerate(buckets):
            for u in bucket:
                if u == t:
                    break
                if dist[u] != d:
                    continue  # a later, longer entry of a settled node
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
                            buckets[nd].append(v)
            else:
                continue
            break  # the sink is settled
        else:
            raise NonMonotoneProfile(f"no augmenting path within reduced distance {bound}: "
                                     f"the next path would not count a vertex")
        # Nodes not settled before t are at least dist[t] away; capping them
        # there keeps every reduced cost nonnegative.
        dt = dist[t]
        self.potential = [p + (d if d < dt else dt) for p, d in zip(pot, dist)]
        return parent

    def augment(self) -> int:
        """Push one cheapest unit from source to sink; return its cost."""
        parent = self._first or self._search()
        self._first = []
        to, cap, adj = self.to, self.cap, self.adj
        v = self.sink
        while v != self.source:
            eid = parent[v]
            cap[eid] -= 1
            twin = eid ^ 1
            cap[twin] += 1
            if cap[twin] == 1 and twin not in adj[v]:
                adj[v].append(twin)
            v = to[twin]
        return self.potential[self.sink] - self.potential[self.source]

    def paths(self) -> list[list[int]]:
        """Break the flow into unit source-sink paths.

        Each path lists the in-out arcs it takes, in path order: i where
        it counts vertex v_i and m + i where it passes through v_i.  Only
        forward arcs carry flow; an out-node's list of them ends at its
        first twin, which it holds once a unit has passed the vertex.
        """
        to, adj, m, t = self.to, self.adj, self.source // 2, self.sink
        flow = [-1] * len(to)  # flow on each forward arc; -1 marks a twin
        flow[0::2] = self.cap[1::2]  # flow on arc 2f is the residual capacity of its twin
        nxt = [0] * len(adj)  # per node, the first arc that may still carry flow
        out: list[list[int]] = []
        for eid in adj[self.source]:
            for _ in range(flow[eid]):
                path: list[int] = []
                i = to[eid]
                while i != t:  # i is in(v_i), whose counted arc is arc 2i
                    if flow[2 * i]:
                        flow[2 * i] -= 1
                        path.append(i)
                        i += m
                    elif flow[2 * (m + i)]:
                        i += m
                        flow[2 * i] -= 1
                        path.append(i)
                    else:
                        raise ChainCertificateFailed(f"flow is not conserved at node {i}")
                    eids = adj[i]  # i is out(v) now
                    k = nxt[i]
                    while not flow[eids[k]]:
                        k += 1
                    nxt[i] = k
                    e = eids[k]
                    if e & 1:
                        raise ChainCertificateFailed(f"flow is not conserved at node {i}")
                    flow[e] -= 1
                    i = to[e]
                out.append(path)
        return out


@dataclass(frozen=True)
class ChainUnionProfile:
    """The differences of the maxima c_k, and the maxima c_0..c_w
    (c_w = n at the width w) as their prefix sums."""

    lam: Partition

    @property
    def cumulative(self) -> tuple[int, ...]:
        return tuple(accumulate(self.lam.parts, initial=0))


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
    """Compute the full profile of maximum k-chain-union sizes.

    Path k costs -lambda_k, so the parts are the path costs negated, and
    the running total c_k is certified after each augmentation.
    """
    flow = _CoverFlow(D)
    parts: list[int] = []
    total = 0
    while total < len(D):
        cost = flow.augment()
        if cost >= 0:
            raise NonMonotoneProfile("flow stalled before covering the poset")
        parts.append(-cost)
        total -= cost
        _certify(D, flow.paths(), len(parts), total)
    return ChainUnionProfile(checked_partition(parts, NonMonotoneProfile, "profile differences"))


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
    if not is_integer(k):
        raise InvalidParameter(f"a chain count must be an integer, not {k!r}")
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
