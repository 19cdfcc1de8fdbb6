import dataclasses
import json
import random
import sys
import threading
import tracemalloc
from itertools import zip_longest

import pytest
from hypothesis import given

from nilcomm import uprocess
from nilcomm.errors import (
    EmptyChainRemoval,
    EnumerationCapExceeded,
    InvalidParameter,
    NilcommError,
    NoMatchingSpec,
    NonMonotoneSizes,
    NotFullProcess,
    RelabelCollision,
)
from nilcomm.greene import oracle_max_k_chain_union
from nilcomm.partitions import Partition, all_partitions, from_parts, is_almost_rectangular
from nilcomm.poset import build_poset, sort_key, vertex_list
from nilcomm.uchains import (
    UChainSpec,
    check_replacement,
    iter_specs,
    lambda_u,
    materialize,
    max_simple_u_chains,
    max_u_chain_cardinality,
    simple_cardinality,
    strand,
    strand_table,
)
from nilcomm.uprocess import (
    ProcessTrace,
    canonical_process,
    count_full_processes,
    enumerate_full_processes,
    prefix_families,
    _pull_back,
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
    the pull-back to P as a vertex dict composed step by step from its own
    one-step relabeling."""
    results = []

    def relabel(v, a):
        u, p, k = v
        return (u + 1, p + 2, k) if p >= a else v

    def rec(cur, comp, anchors, parts, removed):
        if cur.n == 0:
            results.append(ProcessTrace(P, tuple(anchors), tuple(parts) + (cur,), tuple(removed)))
            return
        _, winners = max_simple_u_chains(cur)
        for a in (winners if pick_all else (max(winners),)):
            nxt, rem = remove_simple_chain(cur, a)
            comp_next = {v: comp[relabel(v, a)] for v in vertex_list(nxt)}
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
    survivors = frozenset(vertex_list(P_next))
    assert _pull_back(survivors, (3,)) == complement
    assert len(_pull_back(survivors, (3,))) == len(survivors)


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
                inverse = {w: v for v in vertex_list(nxt) for w in _pull_back(frozenset([v]), (a,))}
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


@pytest.mark.parametrize("malformed", [
    lambda t: dict(removed=t.removed[:1]),
    lambda t: dict(anchors=t.anchors[:-1]),
    lambda t: dict(partitions=(from_parts([5, 4, 3, 3, 2]),) + t.partitions[1:]),
], ids=["short removed", "short anchors", "wrong first partition"])
def test_a_trace_whose_steps_do_not_line_up_is_refused(malformed):
    t = canonical_process(from_parts([5, 4, 3, 3, 2, 1]))
    with pytest.raises(InvalidParameter, match="trace of"):
        dataclasses.replace(t, **malformed(t))


def test_q_refuses_removal_sizes_that_increase():
    P = from_parts([2, 1])
    low, mid, top = sorted(vertex_list(P), key=sort_key)
    trace = ProcessTrace(P, (1, 1), (P, from_parts([1]), Partition()),
                         (frozenset([low]), frozenset([mid, top])))
    with pytest.raises(NonMonotoneSizes, match=r"removal sizes \[1, 2\]"):
        q_of_trace(trace)


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


def test_the_family_cache_cannot_hide_a_fault():
    P = from_parts([5, 4, 3, 3, 2, 1])
    t = enumerate_full_processes(P)[0]
    spec = union_as_uchain(t, 2)  # realizes the family, which stays cached
    family = materialize(P, spec).union
    inside = min(t.removed[0], key=sort_key)
    outside = min(set(vertex_list(P)) - family, key=sort_key)
    swapped = dataclasses.replace(t, removed=((t.removed[0] - {inside}) | {outside},) + t.removed[1:])
    # same size, same lifted anchors: only the comparison with the family sees it
    with pytest.raises(NoMatchingSpec, match="realize"):
        union_as_uchain(swapped, 2)
    assert union_as_uchain(t, 2) == spec


def test_a_second_start_partition_realizes_its_own_families(monkeypatch):
    # (3,1) and (3,1,1) both have the prefix family of anchors (1, 3), on
    # different vertices: served the other partition's, the check would fail
    realized = []
    real = uprocess.materialize
    monkeypatch.setattr(uprocess, "materialize", lambda P, spec: realized.append((P, spec)) or real(P, spec))
    first, second = from_parts([3, 1]), from_parts([3, 1, 1])
    expected = []
    for P in (first, second, first):
        specs = [union_as_uchain(t, r) for t in enumerate_full_processes(P) for r in range(1, t.steps + 1)]
        expected += [(P, spec) for spec in dict.fromkeys(specs)]  # once per visit, in order
    assert realized == expected
    assert (second, UChainSpec((1, 3))) in realized
    assert uprocess._realized.cache_info().currsize == 1


def test_the_checked_path_cannot_hide_a_fault():
    # the latest prefixes are all three of t; a trace that differs from it
    # only in the removed set of step 2 must not be served them
    P = from_parts([5, 4, 3, 3, 2, 1])
    t = enumerate_full_processes(P)[0]
    specs = [union_as_uchain(t, r) for r in (3, 2, 1)]
    family = materialize(P, specs[1]).union
    inside = min(t.removed[1], key=sort_key)
    outside = min(set(vertex_list(P)) - family, key=sort_key)
    swapped = dataclasses.replace(t, removed=(t.removed[0], (t.removed[1] - {inside}) | {outside}, t.removed[2]))
    for r in (2, 3):
        with pytest.raises(NoMatchingSpec, match="realize"):
            union_as_uchain(swapped, r)
    assert [union_as_uchain(t, r) for r in (3, 2, 1)] == specs


def swapped_in_step_2(t):
    """``t`` with one vertex of step 2's removed set swapped for one outside
    the family of prefix 2: same sizes, same anchors, no family for r >= 2."""
    family = materialize(t.start, union_as_uchain(t, 2)).union
    inside = min(t.removed[1], key=sort_key)
    outside = min(set(vertex_list(t.start)) - family, key=sort_key)
    return dataclasses.replace(t, removed=(t.removed[0], (t.removed[1] - {inside}) | {outside}, *t.removed[2:]))


def test_the_union_and_spec_tables_cannot_hide_a_fault():
    # Walked in order first, every clean prefix of staircase 7 is in both
    # tables; a trace faulty from step 2 on is still refused at every r >= 2.
    traces = enumerate_full_processes(staircase(7))
    uprocess._realized.cache_clear()
    expected = {(t, r): union_as_uchain(t, r) for t in traces for r in range(1, t.steps + 1)}
    for t in traces:
        swapped = swapped_in_step_2(t)
        assert union_as_uchain(swapped, 1) == expected[t, 1]
        for r in range(2, t.steps + 1):
            with pytest.raises(NoMatchingSpec, match="realize"):
                union_as_uchain(swapped, r)
    assert all(union_as_uchain(t, r) == spec for (t, r), spec in expected.items())


def test_a_prefix_whose_check_raised_enters_no_table():
    # The spec table holds checked prefixes only; the union table, a pure
    # function of its key, may keep the unions of refused ones.
    P = staircase(7)
    t = enumerate_full_processes(P)[0]
    uprocess._realized.cache_clear()
    swapped = swapped_in_step_2(t)  # checks prefixes 1 and 2 of t
    entry = uprocess._realized(P)
    before = dict(entry.specs)
    assert before
    for r in range(2, t.steps + 1):
        with pytest.raises(NoMatchingSpec, match="realize"):
            union_as_uchain(swapped, r)
    assert uprocess._realized(P) is entry
    assert entry.specs == before
    steps = {key: union for key, union in entry.unions.items() if isinstance(key, tuple)}
    assert len(steps) > t.steps
    assert all(union == key[0] | key[1] for key, union in steps.items())


def test_removed_sets_that_are_plain_sets_get_their_specs():
    # The union table keys a removed set as a frozenset, so a plain set reaches the same unions.
    t = enumerate_full_processes(from_parts([5, 4, 3, 3, 2, 1]))[0]
    plain = dataclasses.replace(t, removed=tuple(set(c) for c in t.removed))
    uprocess._realized.cache_clear()
    for trace in (plain, t, plain):
        assert [union_as_uchain(trace, r).anchors for r in range(1, 4)] == [(2,), (1, 3), (1, 3, 5)]


def test_equal_removed_sets_share_their_checks(monkeypatch):
    # Copies whose removed sets are equal but new objects reach the same
    # unions, so the spec table serves them with no further check.
    checked = []
    as_spec = uprocess._as_spec
    monkeypatch.setattr(uprocess, "_as_spec", lambda *args: checked.append(args) or as_spec(*args))
    traces = enumerate_full_processes(staircase(8))
    uprocess._realized.cache_clear()
    expected = [union_as_uchain(t, r) for t in traces for r in range(1, t.steps + 1)]
    copies = [dataclasses.replace(t, removed=tuple(frozenset(set(c)) for c in t.removed)) for t in traces]
    assert all(copy.removed[0] is not t.removed[0] for copy, t in zip(copies, traces))
    first = len(checked)
    assert [union_as_uchain(t, r) for t in copies for r in range(1, t.steps + 1)] == expected
    assert len(checked) == first


def test_any_call_order_gets_the_in_order_specs():
    # every (trace, r) pair of each P with n <= 9 and of the next partition,
    # asked shuffled, in descending r per trace, and alternating between the
    # two, gets the spec that an in-order walk from a cleared cache gets
    rng = random.Random(0)
    starts = [P for n in range(1, 10) for P in all_partitions(n)]
    for P, other in zip(starts, starts[1:] + starts[:1]):
        walks, expected = [], {}
        for start in (P, other):
            uprocess._realized.cache_clear()
            traces = enumerate_full_processes(start)
            expected.update({(t, r): union_as_uchain(t, r) for t in traces for r in range(1, t.steps + 1)})
            walks.append([(t, r) for t in traces for r in range(t.steps, 0, -1)])
        uprocess._realized.cache_clear()
        shuffled = rng.sample(list(expected), len(expected))
        alternating = [pair for pairs in zip_longest(*walks) for pair in pairs if pair]
        for order in (shuffled, walks[0] + walks[1], alternating):
            assert [union_as_uchain(t, r) for t, r in order] == [expected[pair] for pair in order], P


def test_an_in_order_walk_checks_each_prefix_once(monkeypatch):
    # each distinct (lifted anchor values, union) pair is compared with its
    # family once, however many traces and anchor prefixes share it
    checked = []
    as_spec = uprocess._as_spec
    monkeypatch.setattr(uprocess, "_as_spec",
                        lambda P, values, union: checked.append((tuple(values), union)) or as_spec(P, values, union))
    uprocess._realized.cache_clear()
    traces = enumerate_full_processes(staircase(8))
    calls = [(t, r) for t in traces for r in range(1, t.steps + 1)]
    pairs = set()
    for t, r in calls:
        spec = union_as_uchain(t, r)
        pairs.add((tuple(v for a in spec.anchors for v in (a, a + 1)), frozenset().union(*t.removed[:r])))
    prefixes = {t.anchors[:r] for t, r in calls}
    assert len(checked) == len(set(checked)) and set(checked) == pairs
    assert len(checked) < len(prefixes) < len(calls)


@pytest.mark.parametrize("name", ["_as_spec", "_lift"])
def test_a_call_made_in_the_middle_of_another_gets_the_in_order_specs(monkeypatch, name):
    # Each call makes another, for the opposite trace of the in-order walk,
    # from inside ``name``: while a trace's prefixes are formed (``_lift``,
    # once per trace) or while a prefix is checked (``_as_spec``, once per
    # distinct prefix), where a thread switch could start a call too.
    traces = enumerate_full_processes(staircase(7))
    uprocess._realized.cache_clear()
    expected = {(t, r): union_as_uchain(t, r) for t in traces for r in range(1, t.steps + 1)}
    checked = len(uprocess._realized(staircase(7)).specs)
    calls, pending, inner = list(expected), [], []
    real = getattr(uprocess, name)

    def reenter(*args):
        if pending:
            t, r = pending.pop()
            inner.append(union_as_uchain(t, r) == expected[t, r])
        return real(*args)

    monkeypatch.setattr(uprocess, name, reenter)
    uprocess._realized.cache_clear()
    for k, (t, r) in enumerate(calls):
        pending[:] = [calls[-1 - k]]
        assert union_as_uchain(t, r) == expected[t, r], (t.anchors, r)
    assert len(inner) >= (len(traces) if name == "_lift" else checked // 2) and all(inner)


def test_threads_walking_one_start_partition_get_the_in_order_specs():
    # Four threads, each in its own order, share the tables and latest prefixes of staircase 8.
    traces = enumerate_full_processes(staircase(8))
    uprocess._realized.cache_clear()
    expected = {(t, r): union_as_uchain(t, r) for t in traces for r in range(1, t.steps + 1)}
    rng = random.Random(1)
    walks = [list(expected), list(reversed(expected)), *(rng.sample(list(expected), len(expected)) for _ in range(2))]
    wrong, errors = [], []

    def walk(order):
        try:
            for _ in range(3):
                wrong.extend((t.anchors, r) for t, r in order if union_as_uchain(t, r) != expected[t, r])
        except Exception as exc:  # reported below, with the wrong specs
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        uprocess._realized.cache_clear()
        threads = [threading.Thread(target=walk, args=(order,)) for order in walks]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and errors == []


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


def counting(monkeypatch, name):
    """Record the (state, anchor) of every call of ``uprocess.<name>``."""
    calls = []
    real = getattr(uprocess, name)

    def counted(P, a, *rest):
        calls.append((P, a))
        return real(P, a, *rest)

    monkeypatch.setattr(uprocess, name, counted)
    return calls


def test_search_solves_each_state_once(monkeypatch):
    # each (state, anchor) removal is realized once, and each next state built once
    removals, shrinks = counting(monkeypatch, "remove_simple_chain"), counting(monkeypatch, "_shrink")
    traces = enumerate_full_processes(staircase(10))
    assert len(traces) == 945
    moves = {(t.partitions[i], a) for t in traces for i, a in enumerate(t.anchors)}
    for calls in (removals, shrinks):
        assert len(calls) == len(set(calls))
        assert moves == set(calls)


def test_cap_is_checked_before_any_removal(monkeypatch):
    calls = counting(monkeypatch, "remove_simple_chain")
    monkeypatch.setattr(uprocess, "TRACE_CAP", 100)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_full_processes(staircase(10))
    assert calls == []


def test_traces_share_their_pulled_back_removals():
    traces = enumerate_full_processes(staircase(10))
    first = {}
    for t in traces:
        first.setdefault(t.anchors[0], t)
    assert all(t.removed[0] is first[t.anchors[0]].removed[0] for t in traces)
    # later steps, reached by different paths, share too: equal sets are one object
    held = {id(c): c for t in traces for c in t.removed}
    assert len(held) == len(set(held.values())) == 211


def test_enumeration_holds_little_memory():
    # staircase 12: 10,395 traces of six removals; unshared, they held 25.8 MiB
    tracemalloc.start()
    try:
        traces = enumerate_full_processes(staircase(12))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traces) == 10_395
    assert held < 8 * 2 ** 20


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
    # The last step of (3,1) is made to remove (2,1,1); anchor 1 lifts it
    # onto (3,3,1) of the first removed chain.
    steps = uprocess._steps

    def crafted(P, pick_all):
        table, paths = steps(P, pick_all)
        table[from_parts([1])] = [(1, Partition(), frozenset({(2, 1, 1)}))]
        return table, paths

    monkeypatch.setattr(uprocess, "_steps", crafted)
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
    lambda: remove_simple_chain(from_parts([3, 2]), 1.5),  # would act as anchor 2
    lambda: strand(from_parts([3, 1]), 1, 0),
    lambda: strand(from_parts([3, 1]), 0, 1),
    lambda: union_as_uchain(canonical_process(from_parts([3, 1])), 1.5),
    lambda: union_as_uchain(canonical_process(from_parts([3, 1])), True),
    lambda: max_u_chain_cardinality(from_parts([3, 1]), 1.5),
    lambda: max_u_chain_cardinality(from_parts([3, 1]), True),
    lambda: simple_cardinality(from_parts([3, 1]), 1.5),
    lambda: simple_cardinality(from_parts([3, 1]), True),
    lambda: check_replacement(from_parts([3, 1]), UChainSpec((1,)), 2.0),
    lambda: list(iter_specs(2.5)),
    lambda: oracle_max_k_chain_union(build_poset(from_parts([3, 1])), 1.5),  # would return 3
    lambda: oracle_max_k_chain_union(build_poset(from_parts([3, 1])), True),
    lambda: strand(from_parts([3, 1]), True, True),
    lambda: remove_simple_chain(from_parts([3, 1]), True),
], ids=["lambda_u", "max_simple_u_chains", "count_full_processes", "enumerate_full_processes",
        "canonical_process", "union_as_uchain", "UChainSpec", "remove_simple_chain anchor 0",
        "remove_simple_chain anchor -1", "remove_simple_chain anchor 1.5", "strand slot 0",
        "strand anchor 0", "union_as_uchain float", "union_as_uchain bool",
        "max_u_chain_cardinality float", "max_u_chain_cardinality bool", "simple_cardinality float",
        "simple_cardinality bool", "check_replacement float", "iter_specs float",
        "oracle_max_k_chain_union float", "oracle_max_k_chain_union bool", "strand bool",
        "remove_simple_chain bool"])
def test_refused_input_raises_a_nilcomm_error(call):
    with pytest.raises(NilcommError):
        call()
