import json

import networkx as nx
import pytest
from hypothesis import given

from nilcomm.cli import main, run_sweep
from nilcomm.errors import CyclicCovers, NilcommError, VertexNotInPoset
from nilcomm.greene import chain_union_profile
from nilcomm.partitions import all_partitions, from_parts
from nilcomm.poset import Poset, build_poset, export_dot, export_json, sort_key, vertex_list

from strategies import partitions

# Cover edges of the ten-vertex poset of (4,2,2,1,1), derived by hand from
# the four families: three within-level steps, three drops to the next
# smaller level, three shifted climbs to the next larger level, and the
# three steps along the isolated top level.
FIGURE_COVERS = {
    ((1, 1, 1), (1, 1, 2)),
    ((1, 2, 1), (1, 2, 2)),
    ((2, 2, 1), (2, 2, 2)),
    ((1, 2, 2), (1, 1, 1)),
    ((1, 4, 1), (1, 2, 1)),
    ((2, 4, 1), (2, 2, 1)),
    ((1, 1, 2), (2, 2, 1)),
    ((1, 2, 2), (3, 4, 1)),
    ((2, 2, 2), (4, 4, 1)),
    ((1, 4, 1), (2, 4, 1)),
    ((2, 4, 1), (3, 4, 1)),
    ((3, 4, 1), (4, 4, 1)),
}


def test_ten_vertex_example_matches_hand_construction():
    D = build_poset(from_parts([4, 2, 2, 1, 1]))
    assert len(D) == 10
    assert set(D.covers) == FIGURE_COVERS


def test_isolated_top_level_is_a_chain():
    D = build_poset(from_parts([7, 5, 4, 3, 2, 1]))
    row = [(u, 7, 1) for u in range(1, 8)]
    assert D.is_chain(row)


def test_single_vertex():
    D = build_poset(from_parts([1]))
    assert D.vertices == ((1, 1, 1),)
    assert D.covers == ()


def test_single_column_is_a_chain():
    D = build_poset(from_parts([1] * 6))
    assert D.is_chain(D.vertices)


def test_vertex_count_equals_weight():
    for n in range(1, 10):
        for P in all_partitions(n):
            assert len(build_poset(P)) == P.n
            assert len(vertex_list(P)) == P.n


def test_covers_are_exactly_the_covering_relation():
    # the four edge families must never contain a transitively implied edge
    for n in range(1, 13):
        for P in all_partitions(n):
            D = build_poset(P)
            recomputed = set()
            for v in D.vertices:
                above = {w for w in D.vertices if D.less(v, w)}
                for w in above:
                    if not any(D.less(z, w) for z in above if z != w):
                        recomputed.add((v, w))
            assert recomputed == set(D.covers), P


def assert_covers_ascend(D):
    # the successor lists are the one copy of the covers; ``covers`` lists them in order
    keys = [(sort_key(v), sort_key(w)) for v, w in D.covers]
    assert all(x < y for x, y in zip(keys, keys[1:])), D.vertices
    for js in D.succ:
        assert all(i < j for i, j in zip(js, js[1:])), js


def test_covers_and_successor_lists_ascend():
    for n in range(1, 11):
        for P in all_partitions(n):
            assert_covers_ascend(build_poset(P))


@given(P=partitions(40))
def test_covers_and_successor_lists_ascend_random(P):
    assert_covers_ascend(build_poset(P))


def assert_closure_matches_networkx(D):
    G = nx.DiGraph(D.covers)
    G.add_nodes_from(D.vertices)
    for v in D.vertices:
        above = nx.descendants(G, v)
        for w in D.vertices:
            assert D.less(v, w) == (w in above), (v, w)
            assert (D.less(v, w) or v == w) == (w in above or v == w), (v, w)


def test_closure_matches_networkx_descendants():
    for n in range(1, 11):
        for P in all_partitions(n):
            assert_closure_matches_networkx(build_poset(P))


@given(P=partitions(40))
def test_closure_matches_networkx_descendants_random(P):
    assert_closure_matches_networkx(build_poset(P))


def test_sweep_and_export_build_no_closure(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the order closure was computed")

    monkeypatch.setattr(Poset, "_up", property(refuse))
    D = build_poset(from_parts([5, 4, 3, 3, 2, 1]))
    chain_union_profile(D)
    # the oracles still run on small posets, so only sweeps above n = 8 are closure-free
    assert run_sweep(9, 10).ok
    assert main(["export", "-p", "5,4,3,3,2,1", "--format", "json"]) == 0
    assert main(["invariants", "-p", "5,4,3,3,2,1"]) == 0
    monkeypatch.undo()
    assert D.less((1, 1, 1), (2, 2, 1))
    assert "_up" in vars(D)


@pytest.mark.parametrize("covers", [
    [((1, 1, 1), (1, 1, 2)), ((1, 1, 2), (1, 1, 1))],
    [((1, 1, 1), (1, 1, 2)), ((1, 1, 2), (1, 1, 2))],
])
def test_cyclic_covers_are_refused(covers):
    with pytest.raises(CyclicCovers) as info:
        Poset([(1, 1, 1), (1, 1, 2)], covers)
    assert isinstance(info.value, NilcommError) and isinstance(info.value, ValueError)


def test_is_chain_cases():
    D = build_poset(from_parts([5, 4, 3, 3, 2, 1]))
    assert D.is_chain([])
    assert not D.is_chain([(2, 5, 1), (1, 2, 1)])
    assert D.is_chain([(1, 3, 1), (1, 3, 2)])
    with pytest.raises(VertexNotInPoset):
        D.is_chain([(9, 9, 9)])


def test_order_queries_validate_vertices():
    D = build_poset(from_parts([2, 1]))
    with pytest.raises(VertexNotInPoset):
        D.less((1, 1, 1), (4, 4, 4))
    assert not D.less((1, 1, 1), (1, 1, 1))  # a known vertex; strict, so irreflexive
    assert D.less((1, 2, 1), (2, 2, 1))  # via the middle vertex
    assert not D.less((2, 2, 1), (1, 2, 1))


def test_dot_export():
    D1 = build_poset(from_parts([1]))
    dot = export_dot(D1)
    assert dot.count("->") == 0
    assert '"(1,1,1)"' in dot

    D = build_poset(from_parts([4, 2, 2, 1, 1]))
    dot = export_dot(D)
    assert dot.count("->") == len(FIGURE_COVERS) == 12
    nodes = [line for line in dot.splitlines()
             if line.strip().startswith('"') and "->" not in line]
    assert len(nodes) == 10
    assert export_dot(D) == export_dot(build_poset(from_parts([4, 2, 2, 1, 1])))


def test_json_export_roundtrip_and_determinism():
    P = from_parts([4, 2, 2, 1, 1])
    D = build_poset(P)
    blob = export_json(D)
    assert blob == export_json(build_poset(P))
    data = json.loads(blob)
    assert len(data["vertices"]) == 10
    assert {tuple(map(tuple, e)) for e in data["covers"]} == FIGURE_COVERS
    assert data["vertices"] == sorted(data["vertices"], key=lambda v: (v[1], v[2], v[0]))
