import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given

from nilcomm import uchains
from nilcomm.errors import InvalidParameter, NonMonotoneProfile, NotMaximumSimpleChain
from nilcomm.partitions import Partition, all_partitions, dominance_leq, from_parts, r_of
from nilcomm.poset import build_poset
from nilcomm.greene import greene_lambda
from nilcomm.uchains import (
    UChainSpec,
    cardinality_closed_form,
    check_replacement,
    iter_specs,
    lambda_u,
    materialize,
    max_simple_u_chains,
    max_u_chain_cardinality,
    simple_cardinality,
    strand_failures,
    u_table,
)

from strategies import partitions


def test_spec_validation():
    assert UChainSpec((2, 4)).expanded() == (2, 3, 4, 5)
    assert UChainSpec((1,)).r == 1
    with pytest.raises(ValueError):
        UChainSpec(())
    with pytest.raises(ValueError):
        UChainSpec((2, 3))
    with pytest.raises(ValueError):
        UChainSpec((0, 2))
    with pytest.raises(ValueError):
        UChainSpec((4, 2))
    with pytest.raises(InvalidParameter):
        UChainSpec((True,))


def test_materialize_top_row():
    P = from_parts([7, 5, 4, 3, 2, 1])
    inst = materialize(P, UChainSpec((6,)))
    assert inst.union == frozenset((u, 7, 1) for u in range(1, 8))
    # anchor 7 selects the same row
    assert materialize(P, UChainSpec((7,))).union == inst.union


def test_materialize_two_strands():
    P = from_parts([7, 5, 4, 3, 2, 1])
    D = build_poset(P)
    inst = materialize(P, UChainSpec((2, 4)))
    assert len(inst.strands[0]) == 11
    assert len(inst.strands[1]) == 7
    assert not inst.strands[0] & inst.strands[1]
    for s in inst.strands:
        assert D.is_chain(s)
    assert len(inst.union) == cardinality_closed_form(P, UChainSpec((2, 4))) == 18


def test_materialize_empty():
    P = from_parts([4, 2, 2, 1, 1])
    assert materialize(P, UChainSpec((6,))).union == frozenset()


def test_strands_are_disjoint_chains_everywhere_small():
    for n in range(1, 9):
        for P in all_partitions(n):
            D = build_poset(P)
            for spec in iter_specs(P.max_part):
                inst = materialize(P, spec)
                assert sum(len(s) for s in inst.strands) == len(inst.union)
                for s in inst.strands:
                    assert D.is_chain(s), (P, spec)


def test_closed_form_known_values():
    P = from_parts([6, 6, 5, 4, 3, 2, 2, 1, 1])
    assert simple_cardinality(P, 5) == 17
    assert cardinality_closed_form(P, UChainSpec((1, 5))) == 27
    assert cardinality_closed_form(P, UChainSpec((1, 3))) == 25
    assert cardinality_closed_form(P, UChainSpec((3, 5))) == 24

    P2 = from_parts([5, 4, 3, 3, 2, 1])
    assert simple_cardinality(P2, 3) == 12
    assert simple_cardinality(P2, 2) == 12


def _summed_simple_cardinality(P, a):
    """Size of the one-anchor family at a, summed part by part: a full
    level a, a full level a+1, and two rail vertices per row of every
    higher level."""
    return (
        a * P.mult(a)
        + (a + 1) * P.mult(a + 1)
        + 2 * sum(P.mult(p) for p in P.distinct_parts() if p > a + 1)
    )


def _assert_slot_weights_match_summed_oracle(P):
    M = P.max_part
    want = {(i, a): _summed_simple_cardinality(P, a) - 2 * (i - 1) * (P.mult(a) + P.mult(a + 1))
            for i in range(1, (M + 1) // 2 + 1) for a in range(2 * i - 1, M + 1)}
    simple, mass = uchains._anchor_sizes(P)
    assert {(i, a): uchains._weights_in_slot(simple, mass, i)[a] for i, a in want} == want, P
    anchors = range(1, M + 2)
    assert ([simple_cardinality(P, a) for a in anchors]
            == [_summed_simple_cardinality(P, a) for a in anchors]), P


def test_slot_weights_match_summed_oracle():
    for n in range(1, 15):
        for P in all_partitions(n):
            _assert_slot_weights_match_summed_oracle(P)


@given(P=partitions(40))
def test_slot_weights_match_summed_oracle_random(P):
    _assert_slot_weights_match_summed_oracle(P)


def test_simple_cardinality_is_zero_off_the_anchors():
    for P in (from_parts([1]), from_parts([5, 4, 3, 3, 2, 1]), Partition()):
        for a in (-3, -1, 0, P.max_part + 1, P.max_part + 5):
            assert simple_cardinality(P, a) == 0, (P, a)


def test_lambda_u_of_a_long_row_allocates_little():
    # the per-anchor arrays are O(M); a table over (slot, anchor) pairs
    # for M = 300 peaks above 3 MB
    tracemalloc.start()
    try:
        assert lambda_u(Partition([300])).parts == (300,)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20, peak


def _peeled_cardinality(P, spec):
    """Size of the family by repeatedly peeling the lowest anchor: it costs
    the simple size of that anchor minus twice the multiplicity mass of
    every remaining anchor pair."""
    anchors = list(spec.anchors)
    total = 0
    while anchors:
        a = anchors.pop(0)
        total += simple_cardinality(P, a)
        total -= 2 * sum(P.mult(b) + P.mult(b + 1) for b in anchors)
    return total


def test_closed_form_equals_enumeration():
    # one anchor beyond the largest part exercises the empty-strand boundary
    for n in range(1, 11):
        for P in all_partitions(n):
            for spec in iter_specs(P.max_part + 1):
                closed = cardinality_closed_form(P, spec)
                assert closed == _peeled_cardinality(P, spec), (P, spec)
                assert closed == len(materialize(P, spec).union), (P, spec)


def _per_spec_failures(P):
    """The specifications whose closed form differs from their realization,
    one realization each; strands that overlap count as a failure."""
    failed = []
    for spec in iter_specs(P.max_part):
        try:
            realized = len(materialize(P, spec).union)
        except AssertionError:
            failed.append(spec)
            continue
        if cardinality_closed_form(P, spec) != realized:
            failed.append(spec)
    return failed


def _failing_partitions(n_max):
    """Partitions of n <= n_max flagged by the strand check and by the
    per-specification loop."""
    by_strand, by_spec = [], []
    for n in range(1, n_max + 1):
        for P in all_partitions(n):
            if strand_failures(P):
                by_strand.append(P)
            if _per_spec_failures(P):
                by_spec.append(P)
    return by_strand, by_spec


def test_strand_check_agrees_with_per_spec_loop():
    assert _failing_partitions(12) == ([], [])


def test_strand_check_catches_a_wrong_slot_weight(monkeypatch):
    weights_in_slot = uchains._weights_in_slot

    def off_by_one(simple, mass, i):
        weights = weights_in_slot(simple, mass, i)
        if i == 2:
            weights[-1] += 1  # anchor M
        return weights

    monkeypatch.setattr(uchains, "_weights_in_slot", off_by_one)
    by_strand, by_spec = _failing_partitions(9)
    # anchor M fits slot 2 only when M >= 3
    assert by_strand == by_spec == [P for n in range(1, 10) for P in all_partitions(n)
                                    if P.max_part >= 3]


@pytest.fixture
def fresh_strand_table():
    """A strand table cached before or during the test must not outlive a
    patched ``strand``."""
    uchains.strand_table.cache_clear()
    yield
    uchains.strand_table.cache_clear()


def test_strand_check_catches_overlapping_strands(monkeypatch, fresh_strand_table):
    # Strand 1 of anchor 1 also takes the rail vertex (2, M, 1) of every
    # slot-2 strand; its weight grows to match, so only disjointness sees it.
    strand, weights_in_slot = uchains.strand, uchains._weights_in_slot

    def grabs_rail(P, a, i):
        s = strand(P, a, i)
        return s | {(2, P.max_part, 1)} if (a, i) == (1, 1) and P.max_part > 4 else s

    def matching_weights(simple, mass, i):
        weights = weights_in_slot(simple, mass, i)
        if i == 1 and len(weights) > 5:  # M > 4
            weights[1] += 1
        return weights

    monkeypatch.setattr(uchains, "strand", grabs_rail)
    monkeypatch.setattr(uchains, "_weights_in_slot", matching_weights)
    by_strand, by_spec = _failing_partitions(9)
    assert by_strand == by_spec == [P for n in range(1, 10) for P in all_partitions(n)
                                    if P.max_part > 4]


def test_max_simple_examples():
    assert max_simple_u_chains(from_parts([6, 6, 5, 4, 3, 2, 2, 1, 1])) == (17, (5,))
    assert max_simple_u_chains(from_parts([5, 4, 3, 3, 2, 1])) == (12, (2, 3))
    assert max_simple_u_chains(from_parts([1, 1])) == (2, (1,))
    # anchors 6 and 7 select the same row; the larger represents the pair
    assert max_simple_u_chains(from_parts([7])) == (7, (7,))


def _materialized_max_simple(P):
    """Maximizing anchors deduplicated by comparing realized vertex sets,
    each class represented by its largest anchor."""
    best = -1
    classes = []
    for a in range(1, P.max_part + 1):
        card = simple_cardinality(P, a)
        if card > best:
            best = card
            classes = [(materialize(P, UChainSpec((a,))).union, a)]
        elif card == best:
            vs = materialize(P, UChainSpec((a,))).union
            for i, (seen, _) in enumerate(classes):
                if seen == vs:
                    classes[i] = (seen, a)
                    break
            else:
                classes.append((vs, a))
    return best, tuple(rep for _, rep in classes)


def test_arithmetic_dedup_matches_materialized_sets():
    for n in range(1, 15):
        for P in all_partitions(n):
            assert max_simple_u_chains(P) == _materialized_max_simple(P), P


@given(P=partitions(40))
def test_max_simple_is_the_maximizing_parts_random(P):
    assert max_simple_u_chains(P) == _materialized_max_simple(P)


def test_lambda_u_examples():
    assert lambda_u(from_parts([5, 4, 3, 3, 2, 1])).parts == (12, 5, 1)
    for n in (1, 2, 5, 9):
        assert lambda_u(from_parts([n])).parts == (n,)
    # frozen from spec-free enumeration: u_1 = 8, u_2 = 10
    assert lambda_u(from_parts([4, 2, 2, 1, 1])).parts == (8, 2)


def test_lambda_u_refuses_differences_that_increase(monkeypatch):
    monkeypatch.setattr(uchains, "u_table", lambda P: [0, 1, 3])
    with pytest.raises(NonMonotoneProfile, match=r"profile differences \[1, 2\]"):
        lambda_u(from_parts([2, 1]))


def _enumerated_u(P, k):
    """Best k-strand size by materializing every specification (padding
    with empty strands lets shorter specifications count)."""
    best = 0
    for spec in iter_specs(P.max_part):
        if spec.r <= k:
            best = max(best, len(materialize(P, spec).union))
    return best


def test_solver_matches_enumeration():
    for n in range(1, 10):
        for P in all_partitions(n):
            for k in range(1, (P.max_part + 1) // 2 + 2):
                assert max_u_chain_cardinality(P, k) == _enumerated_u(P, k), (P, k)


def test_u_table_matches_slot_weight_maxima():
    # The profile solver against the best closed form of every specification.
    for n in range(1, 13):
        for P in all_partitions(n):
            table = u_table(P)
            best = [0] * len(table)
            for spec in iter_specs(P.max_part):
                best[spec.r] = max(best[spec.r], cardinality_closed_form(P, spec))
            assert table == list(accumulate(best, max)), P


def test_lambda_u_is_a_partition_with_spaced_parts():
    for n in range(1, 11):
        for P in all_partitions(n):
            lam = lambda_u(P).parts
            assert sum(lam) == P.n
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
            assert all(lam[i] - lam[i + 1] >= 2 for i in range(len(lam) - 1)), (P, lam)


def test_lambda_u_dominated_by_chain_invariant():
    for n in range(1, 11):
        for P in all_partitions(n):
            assert dominance_leq(lambda_u(P), greene_lambda(build_poset(P))), P


@given(P=partitions(40))
def test_lambda_u_properties_random(P):
    lam = lambda_u(P)
    assert dominance_leq(lam, greene_lambda(build_poset(P)))
    assert all(a - b >= 2 for a, b in zip(lam.parts, lam.parts[1:]))
    assert len(lam) == r_of(P)


def test_iter_specs_census():
    # anchors within 1..5, gap >= 2: five singles, six pairs, one triple
    specs = list(iter_specs(5))
    assert len(specs) == 12
    assert len({s.anchors for s in specs}) == 12
    assert UChainSpec((1, 3, 5)) in specs


def test_replacement_example():
    P = from_parts([6, 6, 5, 4, 3, 2, 2, 1, 1])
    res = check_replacement(P, UChainSpec((1, 3)), 5)
    assert res.ok and not res.identity
    assert res.position == 2
    assert res.replaced.anchors == (1, 5)
    assert (res.original_size, res.new_size) == (25, 27)
    # the other slot would shrink the family, which is why it is not chosen
    assert cardinality_closed_form(P, UChainSpec((3, 5))) == 24 < 25


def test_replacement_identity_cases():
    P = from_parts([6, 6, 5, 4, 3, 2, 2, 1, 1])
    res = check_replacement(P, UChainSpec((1, 5)), 5)
    assert res.ok and res.identity and res.replaced.anchors == (1, 5)

    # pair {2,3} straddles the anchor pairs of (1,3): nothing to change
    P2 = from_parts([2, 2])
    res2 = check_replacement(P2, UChainSpec((1, 3)), 2)
    assert res2.ok and res2.identity


def test_numpy_integer_counts_give_the_int_answers():
    P = from_parts([6, 6, 5, 4, 3, 2, 2, 1, 1])
    assert check_replacement(P, UChainSpec((1, 3)), np.int64(5)) == check_replacement(P, UChainSpec((1, 3)), 5)
    assert simple_cardinality(P, np.int64(5)) == simple_cardinality(P, 5)
    assert max_u_chain_cardinality(P, np.int64(2)) == max_u_chain_cardinality(P, 2)
    assert list(iter_specs(np.int64(5))) == list(iter_specs(5))


def test_replacement_requires_maximum_anchor():
    P = from_parts([6, 6, 5, 4, 3, 2, 2, 1, 1])
    with pytest.raises(NotMaximumSimpleChain):
        check_replacement(P, UChainSpec((1, 3)), 1)


def test_replacement_holds_exhaustively():
    for n in range(1, 11):
        for P in all_partitions(n):
            _, winners = max_simple_u_chains(P)
            for spec in (s for s in iter_specs(P.max_part) if s.r <= 3):
                for a in winners:
                    res = check_replacement(P, spec, a)
                    assert res.ok, (P, spec, a)
                    assert res.new_size >= res.original_size
