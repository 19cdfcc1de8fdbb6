import networkx as nx
import pytest
from hypothesis import given, settings

from nilcomm import greene
from nilcomm.errors import ChainCertificateFailed, NonMonotoneProfile, PosetTooLarge
from nilcomm.greene import chain_union_profile, greene_lambda, oracle_max_k_chain_union
from nilcomm.partitions import all_partitions, from_parts
from nilcomm.poset import build_poset

from strategies import partitions


def networkx_profile(D):
    """c_0, c_1, ... from networkx min-cost flows on the closure network.

    One arc out(v) -> in(w) per comparable pair v < w, every arc of
    capacity 1, and exactly k units from source to sink: k disjoint
    nonempty chains, which for k <= m cover c_k vertices.  Shares nothing
    with the cover network but ``Poset.less``.
    """
    G = nx.DiGraph()
    for v in D.vertices:
        G.add_edge("s", ("in", v), capacity=1, weight=0)
        G.add_edge(("in", v), ("out", v), capacity=1, weight=-1)
        G.add_edge(("out", v), "t", capacity=1, weight=0)
        for w in D.vertices:
            if D.less(v, w):
                G.add_edge(("out", v), ("in", w), capacity=1, weight=0)
    cumulative = [0]
    while cumulative[-1] < len(D):
        k = len(cumulative)
        G.nodes["s"]["demand"], G.nodes["t"]["demand"] = -k, k
        cumulative.append(-nx.min_cost_flow_cost(G))
    return tuple(cumulative)


def test_zero_chains_cover_nothing():
    D = build_poset(from_parts([3, 2]))
    assert chain_union_profile(D).cumulative[0] == 0
    assert oracle_max_k_chain_union(D, 0) == 0


def test_three_vertex_poset_is_a_chain():
    D = build_poset(from_parts([2, 1]))
    assert oracle_max_k_chain_union(D, 1) == 3
    assert chain_union_profile(D).cumulative[1] == 3
    assert greene_lambda(D).parts == (3,)


def test_single_row_and_single_column():
    for m in (1, 2, 5, 9):
        assert greene_lambda(build_poset(from_parts([1] * m))).parts == (m,)
        assert greene_lambda(build_poset(from_parts([m]))).parts == (m,)
    # one chain already covers all six vertices, so c_k = 6 for every k >= 1
    assert chain_union_profile(build_poset(from_parts([6]))).cumulative == (0, 6)


def test_ten_vertex_example_profile():
    # frozen from the exhaustive oracle: one chain of 8, two chains cover all 10
    D = build_poset(from_parts([4, 2, 2, 1, 1]))
    assert oracle_max_k_chain_union(D, 1) == 8
    assert oracle_max_k_chain_union(D, 2) == 10
    assert greene_lambda(D).parts == (8, 2)


def test_flow_agrees_with_oracle_everywhere_small():
    for n in range(1, 8):
        for P in all_partitions(n):
            D = build_poset(P)
            profile = chain_union_profile(D).cumulative
            for k in range(n + 1):
                got = profile[k] if k < len(profile) else profile[-1]
                assert got == oracle_max_k_chain_union(D, k), (P, k)


def test_profile_is_concave_and_exhaustive():
    for n in range(1, 9):
        for P in all_partitions(n):
            prof = chain_union_profile(build_poset(P))
            c = prof.cumulative
            assert c[0] == 0
            assert c[-1] == P.n
            assert all(c[i] > c[i - 1] for i in range(1, len(c)))
            lam = prof.lam.parts
            assert sum(lam) == P.n
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def test_k_beyond_width_saturates():
    D = build_poset(from_parts([3, 2, 2]))
    n = len(D)
    c = chain_union_profile(D).cumulative
    # the profile stops at the width, where c reaches n; beyond it c_k = n
    assert len(c) - 1 < n and c[-1] == n
    assert oracle_max_k_chain_union(D, n) == oracle_max_k_chain_union(D, n + 5) == n


def test_oracle_guards_size():
    with pytest.raises(PosetTooLarge):
        oracle_max_k_chain_union(build_poset(from_parts([13])), 1)


@settings(max_examples=100)
@given(P=partitions(40))
def test_flow_matches_networkx_closure_flow(P):
    D = build_poset(P)
    assert chain_union_profile(D).cumulative == networkx_profile(D)


@pytest.mark.parametrize("parts", [
    *(list(range(k, 0, -1)) for k in range(1, 9)),
    [4] * 3, [3] * 5, [2] * 9, [6] * 6, [9] * 4, [12] * 2,
])
def test_staircases_and_rectangles_match_networkx(parts):
    D = build_poset(from_parts(parts))
    assert chain_union_profile(D).cumulative == networkx_profile(D)


def test_certificate_catches_a_wrong_path_cost(monkeypatch):
    augment = greene._CoverFlow.augment

    def one_too_cheap(flow):
        return augment(flow) - 1

    monkeypatch.setattr(greene._CoverFlow, "augment", one_too_cheap)
    with pytest.raises(ChainCertificateFailed, match=r"cover 5 vertices, its cost claims c_1 = 6"):
        chain_union_profile(build_poset(from_parts([3, 2, 1])))


def test_certificate_refuses_bad_chains():
    D = build_poset(from_parts([2, 1]))
    m = len(D)
    # the covers low < mid < top; a path entry i counts vertex i, m + i passes through it
    low, mid, top = (D.index[v] for v in [(1, 2, 1), (1, 1, 1), (2, 2, 1)])

    def certify(paths, k, c_k):
        greene._certify(D, paths, k, c_k)

    certify([[low, mid, top]], 1, 3)
    certify([[low, mid], [m + mid, top]], 2, 3)  # passing through a counted vertex is fine
    with pytest.raises(ChainCertificateFailed, match="splits into"):
        certify([[low, mid, top]], 2, 3)
    with pytest.raises(ChainCertificateFailed, match="not a cover"):
        certify([[mid, low, top]], 1, 3)
    with pytest.raises(ChainCertificateFailed, match="not a cover"):
        certify([[low, top]], 1, 2)  # low < top, but top does not cover low
    with pytest.raises(ChainCertificateFailed, match="overlap"):
        certify([[low, mid], [mid, top]], 2, 4)
    with pytest.raises(ChainCertificateFailed, match="claims"):
        certify([[low, m + mid, top]], 1, 3)


def test_certificate_catches_a_dropped_pass_through(monkeypatch):
    # in (4,3,2) a flow path passes through a vertex that another path counts;
    # leaving it out joins two vertices that are comparable but not a cover
    paths = greene._CoverFlow.paths

    def counted_only(flow):
        m = flow.source // 2
        return [[f for f in path if f < m] for path in paths(flow)]

    D = build_poset(from_parts([4, 3, 2]))
    assert chain_union_profile(D).cumulative == networkx_profile(D)
    monkeypatch.setattr(greene._CoverFlow, "paths", counted_only)
    with pytest.raises(ChainCertificateFailed, match="not a cover"):
        chain_union_profile(D)


def test_profile_differences_that_increase_are_refused(monkeypatch):
    # costs -1, -2 claim c = (0, 1, 3) for the 3 vertices of (2,1): differences 1, 2
    costs = iter([-1, -2])
    monkeypatch.setattr(greene._CoverFlow, "augment", lambda flow: next(costs))
    monkeypatch.setattr(greene, "_certify", lambda *args: None)
    with pytest.raises(NonMonotoneProfile, match=r"profile differences \[1, 2\]"):
        chain_union_profile(build_poset(from_parts([2, 1])))


def test_first_path_is_a_longest_chain_from_the_topological_pass(monkeypatch):
    # c_1 is the longest chain, found by networkx on the covers alone; the
    # first augmentation must take it from the topological pass, with no search.
    searches = []
    search = greene._CoverFlow._search
    monkeypatch.setattr(greene._CoverFlow, "_search", lambda flow: searches.append(1) or search(flow))
    posets = [build_poset(P) for n in range(1, 15) for P in all_partitions(n)]
    posets += [build_poset(from_parts(range(k, 0, -1))) for k in range(1, 23)]
    for D in posets:
        G = nx.DiGraph(D.covers)
        G.add_nodes_from(D.vertices)
        longest = nx.dag_longest_path_length(G) + 1
        assert -greene._CoverFlow(D).augment() == longest, D.vertices
        assert not searches
        c = chain_union_profile(D).cumulative
        assert c[1] == longest
        assert len(searches) == len(c) - 2  # one search per augmentation after the first
        searches.clear()


def test_a_sink_past_the_bucket_bound_raises():
    D = build_poset(from_parts([3, 2, 1]))
    flow = greene._CoverFlow(D)
    flow.augment()
    # a planted sink potential claiming the last path cost 0 leaves no bucket
    flow.potential[flow.sink] = flow.potential[flow.source]
    with pytest.raises(NonMonotoneProfile, match="no augmenting path"):
        flow.augment()
    # past the width no path counts a vertex, so the sink lies beyond the bound
    flow = greene._CoverFlow(D)
    for _ in chain_union_profile(D).lam.parts:
        flow.augment()
    with pytest.raises(NonMonotoneProfile, match="no augmenting path"):
        flow.augment()
