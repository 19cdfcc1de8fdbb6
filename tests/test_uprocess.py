import dataclasses
import json

import pytest
from hypothesis import given

from nilcomm import uprocess
from nilcomm.errors import (
    EmptyChainRemoval,
    EnumerationCapExceeded,
    NilcommError,
    NotFullProcess,
    RelabelCollision,
)
from nilcomm.partitions import Partition, all_partitions, from_parts, is_almost_rectangular
from nilcomm.poset import build_poset, vertex_list
from nilcomm.uchains import (
    UChainSpec,
    lambda_u,
    materialize,
    max_simple_u_chains,
    max_u_chain_cardinality,
    strand,
    strand_table,
)
from nilcomm.uprocess import (
    ProcessTrace,
    canonical_process,
    count_full_processes,
    enumerate_full_processes,
    prefix_families,
    _relabel_vertex,
    q_of_trace,
    remove_simple_chain,
    trace_to_json,
    union_as_uchain,
)

from strategies import partitions


def staircase(k):
    return Partition(range(k, 0, -1))


ORACLE_RANGE = [P for n in range(1, 13) for P in all_partitions(n)] + [staircase(k) for k in range(5, 11)]


def per_node_search(P, pick_all):
    """The search as a tree: every node solves its state again and carries
    the pull-back to P as a vertex dict composed step by step."""
    results = []

    def rec(cur, comp, anchors, parts, removed):
        if cur.n == 0:
            results.append(ProcessTrace(P, tuple(anchors), tuple(parts) + (cur,), tuple(removed)))
            return
        _, winners = max_simple_u_chains(cur)
        for a in (winners if pick_all else (max(winners),)):
            nxt, rem = remove_simple_chain(cur, a)
            comp_next = {v: comp[_relabel_vertex(v, a)] for v in vertex_list(nxt)}
            rec(nxt, comp_next, anchors + [a], parts + [cur],
                removed + [frozenset(comp[v] for v in rem)])

    rec(P, {v: v for v in vertex_list(P)}, [], [], [])
    return results


def test_removal_complement_matches_hand_computation():
    P = from_parts([5, 4, 3, 3, 2, 1])
    P_next, removed = remove_simple_chain(P, 3)
    assert P_next.parts == (3, 2, 1)
    complement = set(vertex_list(P)) - removed
    assert complement == {(2, 5, 1), (3, 5, 1), (4, 5, 1), (1, 2, 1), (2, 2, 1), (1, 1, 1)}
    image = [_relabel_vertex(v, 3) for v in vertex_list(P_next)]
    assert set(image) == complement
    assert len(set(image)) == len(image)


def test_removal_of_whole_row():
    P = from_parts([6])
    P_next, removed = remove_simple_chain(P, 6)
    assert P_next.n == 0
    assert removed == frozenset((u, 6, 1) for u in range(1, 7))


def test_removal_low_anchor():
    P = from_parts([4, 2, 2, 1, 1])
    P_next, removed = remove_simple_chain(P, 1)
    assert len(removed) == 8
    assert P_next.parts == (2,)


def test_removal_of_empty_chain_rejected():
    with pytest.raises(EmptyChainRemoval):
        remove_simple_chain(from_parts([2, 1]), 5)


def test_relabeling_preserves_surviving_order():
    # comparabilities among surviving vertices persist after removal
    # (the smaller poset may gain new ones)
    for n in range(1, 10):
        for P in all_partitions(n):
            D = build_poset(P)
            for a in range(1, P.max_part + 1):
                nxt, removed = remove_simple_chain(P, a)
                if nxt.n == 0:
                    continue
                Dn = build_poset(nxt)
                inverse = {_relabel_vertex(v, a): v for v in vertex_list(nxt)}
                for x in D.vertices:
                    if x in removed:
                        continue
                    for y in D.vertices:
                        if D.less(x, y) and y not in removed:
                            assert Dn.less(inverse[x], inverse[y]), (P, a, x, y)


def test_enumeration_of_branching_example():
    P = from_parts([5, 4, 3, 3, 2, 1])
    traces = enumerate_full_processes(P)
    assert len(traces) == 4
    assert sorted(t.anchors for t in traces) == [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1)]
    for t in traces:
        assert q_of_trace(t).parts == (12, 5, 1)

    branch = next(t for t in traces if t.anchors[:2] == (3, 2))
    assert branch.removed[1] == frozenset(
        {(2, 5, 1), (1, 2, 1), (3, 5, 1), (2, 2, 1), (4, 5, 1)}
    )
    other = next(t for t in traces if t.anchors[:2] == (3, 1))
    assert other.removed[1] == frozenset(
        {(2, 5, 1), (1, 2, 1), (1, 1, 1), (2, 2, 1), (4, 5, 1)}
    )
    assert branch.removed[2] == frozenset({(1, 1, 1)})
    assert other.removed[2] == frozenset({(3, 5, 1)})


def test_single_row_has_one_process():
    traces = enumerate_full_processes(from_parts([7]))
    assert len(traces) == 1
    assert q_of_trace(traces[0]).parts == (7,)


def test_all_traces_agree():
    for parts in ([2, 1, 1], [3, 2, 2], [4, 4, 1]):
        P = from_parts(parts)
        expected = lambda_u(P)
        for t in enumerate_full_processes(P):
            assert q_of_trace(t) == expected


def test_trace_structure_invariants():
    for n in range(1, 10):
        for P in all_partitions(n):
            verts = set(vertex_list(P))
            for t in enumerate_full_processes(P):
                assert t.full
                covered = set()
                for c in t.removed:
                    assert not (covered & c)
                    covered |= c
                assert covered == verts
                sizes = [len(c) for c in t.removed]
                assert sizes == sorted(sizes, reverse=True)
                # the last surviving partition collapses in one removal
                assert is_almost_rectangular(t.partitions[-2])
                # every chosen chain removes at least two vertices except a final singleton
                for i, a in enumerate(t.anchors):
                    cur = t.partitions[i]
                    if cur.n > 1:
                        assert sizes[i] >= 2
                    assert cur.mult(a) + cur.mult(a + 1) > 0, (P, t.anchors, i)


def test_q_requires_full_trace():
    P = from_parts([3, 1])
    stub = ProcessTrace(P, (), (P,), ())
    with pytest.raises(NotFullProcess):
        q_of_trace(stub)


def test_union_of_prefix_is_a_chain_family():
    P = from_parts([5, 4, 3, 3, 2, 1])
    traces = enumerate_full_processes(P)
    branch = next(t for t in traces if t.anchors[:2] == (3, 2))
    spec = union_as_uchain(branch, 2)
    assert spec.anchors == (2, 4)
    assert materialize(P, spec).union == branch.removed[0] | branch.removed[1]
    assert union_as_uchain(branch, 1).anchors == (branch.anchors[0],)
    with pytest.raises(ValueError):
        union_as_uchain(branch, 4)


def test_union_spec_exists_for_every_prefix():
    for n in range(1, 10):
        for P in all_partitions(n):
            for t in enumerate_full_processes(P):
                for r in range(1, t.steps + 1):
                    spec = union_as_uchain(t, r)
                    assert len(materialize(P, spec).union) == max_u_chain_cardinality(P, r)


def test_canonical_process():
    t = canonical_process(from_parts([5, 4, 3, 3, 2, 1]))
    assert t.anchors[0] == 3
    assert q_of_trace(t).parts == (12, 5, 1)
    assert canonical_process(from_parts([9])).anchors == (9,)
    for n in range(1, 10):
        for P in all_partitions(n):
            assert q_of_trace(canonical_process(P)) == lambda_u(P)


def test_enumeration_cap(monkeypatch):
    # the search counts its paths and refuses before it builds any trace
    built = []

    def counted(*args):
        built.append(args)
        return ProcessTrace(*args)

    monkeypatch.setattr(uprocess, "TRACE_CAP", 100)
    monkeypatch.setattr(uprocess, "ProcessTrace", counted)
    with pytest.raises(EnumerationCapExceeded, match=r"more than 100 full traces for .*: 945"):
        enumerate_full_processes(staircase(10))
    assert built == []


def test_trace_is_immutable():
    t = canonical_process(from_parts([3, 1]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.anchors = ()


def test_trace_json():
    t = canonical_process(from_parts([5, 4, 3, 3, 2, 1]))
    blob = trace_to_json(t)
    assert blob == trace_to_json(canonical_process(from_parts([5, 4, 3, 3, 2, 1])))
    data = json.loads(blob)
    assert data["P"] == [5, 4, 3, 3, 2, 1]
    assert data["Q"] == [12, 5, 1]
    assert data["steps"][0]["a"] == 3
    assert data["steps"][0]["P_next"] == [3, 2, 1]
    assert len(data["steps"][0]["removed"]) == 12


def test_state_dag_search_matches_per_node_search():
    for P in ORACLE_RANGE:
        assert enumerate_full_processes(P) == per_node_search(P, pick_all=True), P
        assert [canonical_process(P)] == per_node_search(P, pick_all=False), P


def test_search_solves_each_state_once(monkeypatch):
    calls = []

    def counted(P, a):
        calls.append((P, a))
        return remove_simple_chain(P, a)

    monkeypatch.setattr(uprocess, "remove_simple_chain", counted)
    traces = enumerate_full_processes(staircase(10))
    assert len(traces) == 945
    assert len(calls) == len(set(calls))
    assert {(t.partitions[i], a) for t in traces for i, a in enumerate(t.anchors)} == set(calls)


def test_cap_is_checked_before_any_removal(monkeypatch):
    calls = []

    def counted(P, a):
        calls.append((P, a))
        return remove_simple_chain(P, a)

    monkeypatch.setattr(uprocess, "remove_simple_chain", counted)
    monkeypatch.setattr(uprocess, "TRACE_CAP", 100)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_full_processes(staircase(10))
    assert calls == []


def test_count_and_search_solve_each_state_once(monkeypatch):
    # staircase 10 reaches (10,...,1), (8,...,1), ..., (2,1) and the empty state
    calls = []

    def counted(P):
        calls.append(P)
        return max_simple_u_chains(P)

    monkeypatch.setattr(uprocess, "max_simple_u_chains", counted)
    for run in (enumerate_full_processes, count_full_processes):
        calls.clear()
        run(staircase(10))
        assert calls == [staircase(k) for k in (10, 8, 6, 4, 2)], run


def test_prefix_families_match_the_trace_listing():
    for P in ORACLE_RANGE:
        traces = enumerate_full_processes(P)
        listed = {union_as_uchain(t, r): frozenset().union(*t.removed[:r])
                  for t in traces for r in range(1, t.steps + 1)}
        assert prefix_families(P) == (len(traces), listed), P


@given(partitions(40))
def test_prefix_families_are_maximum_families(P):
    count, families = prefix_families(P)
    assert count == count_full_processes(P)
    for spec, union in families.items():
        assert len(union) == max_u_chain_cardinality(P, spec.r), (P, spec)


def test_prefix_families_refuse_a_removal_that_meets_a_later_step(monkeypatch):
    # unlifted, the later steps of (3,1) land on the first removed chain
    monkeypatch.setattr(uprocess, "_pull_back", lambda removed, history: removed)
    with pytest.raises(RelabelCollision, match="removes a vertex of a later step"):
        prefix_families(from_parts([3, 1]))


def test_strand_table_matches_strand():
    for P in ORACLE_RANGE:
        table = strand_table(P)
        M = P.max_part
        assert set(table) == {(i, a) for i in range(1, (M + 1) // 2 + 1) for a in range(2 * i - 1, M + 1)}
        for (i, a), s in table.items():
            assert s == strand(P, a, i), (P, i, a)
    assert strand_table.cache_info().currsize == 1


def test_count_full_processes_matches_enumeration():
    for n in range(1, 13):
        for P in all_partitions(n):
            assert count_full_processes(P) == len(enumerate_full_processes(P)), P
    counts = [count_full_processes(staircase(k)) for k in (10, 11, 14, 18)]
    assert counts == [945, 3840, 135_135, 34_459_425]  # 34,459,425 = 17!!
    with pytest.raises(ValueError):
        count_full_processes(Partition())


@pytest.mark.parametrize("call", [
    lambda: lambda_u(Partition()),
    lambda: max_simple_u_chains(Partition()),
    lambda: count_full_processes(Partition()),
    lambda: enumerate_full_processes(Partition()),
    lambda: canonical_process(Partition()),
    lambda: union_as_uchain(canonical_process(from_parts([3, 1])), 0),
    lambda: UChainSpec((2, 3)),
    lambda: remove_simple_chain(from_parts([3, 1]), 0),
    lambda: remove_simple_chain(from_parts([3, 1]), -1),
], ids=["lambda_u", "max_simple_u_chains", "count_full_processes", "enumerate_full_processes",
        "canonical_process", "union_as_uchain", "UChainSpec", "remove_simple_chain anchor 0",
        "remove_simple_chain anchor -1"])
def test_refused_input_raises_a_nilcomm_error(call):
    with pytest.raises(NilcommError):
        call()
