import itertools
import re

import pytest
from hypothesis import given, strategies as st

from nilcomm.errors import EmptyPartition, InvalidParameter, NonMonotoneSizes, NonPositivePart, UnequalWeight
from nilcomm.partitions import (
    Partition,
    all_partitions,
    checked_partition,
    conjugate,
    dominance_join,
    dominance_leq,
    format_partition,
    from_parts,
    is_almost_rectangular,
    parse_partition,
    partition_count,
    r_of,
)


def test_from_parts_normalizes():
    assert from_parts([3, 1, 2]).parts == (3, 2, 1)
    assert from_parts([5, 4, 3, 3, 2, 1]).parts == (5, 4, 3, 3, 2, 1)
    assert from_parts([1]).parts == (1,)


def test_a_partition_hashes_as_its_parts():
    P = Partition([3, 1, 2])
    assert hash(P) == hash(P.parts) == hash(from_parts([1, 2, 3]))
    assert len({P, Partition((3, 2, 1)), Partition([3, 2])}) == 2


def test_from_parts_rejects_bad_input():
    with pytest.raises(EmptyPartition):
        from_parts([])
    with pytest.raises(NonPositivePart):
        from_parts([3, 0])
    with pytest.raises(NonPositivePart):
        from_parts([-1])
    with pytest.raises(NonPositivePart):
        Partition([True, 2])


@given(st.one_of(st.lists(st.integers(-2, 6), max_size=6),
                 st.lists(st.integers(1, 9), max_size=8).map(lambda ps: sorted(ps, reverse=True))))
def test_checked_partition_keeps_exactly_the_partitions(parts):
    if all(p >= 1 for p in parts) and all(a >= b for a, b in itertools.pairwise(parts)):
        assert checked_partition(parts, NonMonotoneSizes, "sizes").parts == tuple(parts)
    else:
        with pytest.raises(NonMonotoneSizes, match=re.escape(f"sizes {parts} are not")):
            checked_partition(parts, NonMonotoneSizes, "sizes")


def test_from_parts_idempotent():
    for n in range(1, 9):
        for P in all_partitions(n):
            assert from_parts(P.parts) == P


def test_multiplicities():
    P = from_parts([5, 4, 3, 3, 2, 1])
    assert P.n == 18
    assert P.mult(3) == 2
    assert P.mult(5) == 1
    assert P.mult(7) == 0
    assert P.mult(6) == 0
    assert P.distinct_parts() == (1, 2, 3, 4, 5)


def test_dominance_examples():
    assert dominance_leq(from_parts([1, 1, 1, 1]), from_parts([4]))
    assert not dominance_leq(from_parts([4]), from_parts([1, 1, 1, 1]))
    P = from_parts([12, 5, 1])
    assert dominance_leq(P, P)


def test_dominance_requires_equal_weight():
    with pytest.raises(UnequalWeight):
        dominance_leq(from_parts([2]), from_parts([2, 1]))


def test_the_join_is_the_least_upper_bound():
    # By brute force over dominance_leq: the join dominates both, and every
    # partition that dominates both dominates the join.
    for n in range(1, 11):
        ps = list(all_partitions(n))
        above = {a: {b for b in ps if dominance_leq(a, b)} for a in ps}
        for a, b in itertools.product(ps, repeat=2):
            upper, join = above[a] & above[b], dominance_join(a, b)
            assert join in upper and upper <= above[join], (a, b)


def test_the_join_of_comparable_partitions_is_the_larger():
    for n in range(1, 11):
        for a, b in itertools.product(all_partitions(n), repeat=2):
            if dominance_leq(a, b):
                assert dominance_join(a, b) == dominance_join(b, a) == b, (a, b)
    # incomparable: neither is the join
    assert dominance_join(from_parts([3, 1, 1, 1]), from_parts([2, 2, 2])) == from_parts([3, 2, 1])


def test_the_join_requires_equal_weight():
    with pytest.raises(UnequalWeight):
        dominance_join(from_parts([2]), from_parts([2, 1]))
    with pytest.raises(UnequalWeight):
        dominance_join(from_parts([1, 1, 1]), from_parts([2]))


def test_dominance_is_a_partial_order():
    for n in range(1, 13):
        ps = list(all_partitions(n))
        rel = [[dominance_leq(a, b) for b in ps] for a in ps]
        m = len(ps)
        for i in range(m):
            assert rel[i][i]
            for j in range(m):
                if i != j and rel[i][j] and rel[j][i]:
                    pytest.fail(f"antisymmetry fails: {ps[i]} {ps[j]}")
        for i in range(m):
            for j in range(m):
                if not rel[i][j]:
                    continue
                for k in range(m):
                    if rel[j][k] and not rel[i][k]:
                        pytest.fail(f"transitivity fails: {ps[i]} {ps[j]} {ps[k]}")


def test_almost_rectangular():
    assert is_almost_rectangular(from_parts([3, 3, 2, 2, 2]))
    assert not is_almost_rectangular(from_parts([7, 2, 2, 1]))
    assert is_almost_rectangular(from_parts([5]))


def _exhaustive_min_blocks(parts):
    """Fewest almost-rectangular blocks, by backtracking over block assignments."""
    best = [len(parts)]

    def rec(remaining, blocks):
        if len(blocks) >= best[0]:
            return
        if not remaining:
            best[0] = len(blocks)
            return
        x, rest = remaining[0], remaining[1:]
        for b in blocks:
            if all(abs(x - y) <= 1 for y in b):
                b.append(x)
                rec(rest, blocks)
                b.pop()
        blocks.append([x])
        rec(rest, blocks)
        blocks.pop()

    rec(list(parts), [])
    return best[0]


def test_r_examples():
    assert r_of(from_parts([3, 3, 2, 2, 2])) == 1
    assert r_of(from_parts([7, 2, 2, 1])) == 2
    assert r_of(from_parts([5, 3, 1])) == 3
    assert _exhaustive_min_blocks([5, 3, 1]) == 3


def test_r_greedy_matches_exhaustive_search():
    for n in range(1, 11):
        for P in all_partitions(n):
            assert r_of(P) == _exhaustive_min_blocks(P.parts), P


def test_r_one_iff_almost_rectangular():
    for n in range(1, 11):
        for P in all_partitions(n):
            assert (r_of(P) == 1) == is_almost_rectangular(P)


def _column_counts(P):
    cols = {}
    for p in P.parts:
        for j in range(p):
            cols[j] = cols.get(j, 0) + 1
    return tuple(sorted(cols.values(), reverse=True))


def test_conjugate_examples():
    assert conjugate(from_parts([4, 2, 2, 1, 1])).parts == (5, 3, 1, 1)
    assert conjugate(from_parts([7])).parts == (1,) * 7
    for n in range(1, 11):
        for P in all_partitions(n):
            assert conjugate(P).parts == _column_counts(P)
            assert conjugate(conjugate(P)) == P


def test_conjugate_reverses_dominance():
    for n in range(1, 9):
        ps = list(all_partitions(n))
        for a, b in itertools.product(ps, ps):
            assert dominance_leq(a, b) == dominance_leq(conjugate(b), conjugate(a))


@pytest.mark.parametrize("n", [2.5, True, False, "3"])
def test_a_size_that_is_not_an_integer_is_refused(n):
    with pytest.raises(InvalidParameter):
        list(all_partitions(n))
    with pytest.raises(InvalidParameter):
        partition_count(n)


def test_partition_counts():
    assert partition_count(10) == 42
    assert partition_count(12) == 77
    for n in range(0, 13):
        assert sum(1 for _ in all_partitions(n)) == partition_count(n)


def test_all_partitions_are_valid_and_distinct():
    for n in range(1, 11):
        seen = set()
        for P in all_partitions(n):
            assert P.n == n
            assert P.parts == tuple(sorted(P.parts, reverse=True))
            assert P not in seen
            seen.add(P)


def test_text_roundtrip():
    P = parse_partition("5,4,3,3,2,1")
    assert P.parts == (5, 4, 3, 3, 2, 1)
    assert parse_partition("1, 3, 2") == from_parts([3, 2, 1])
    assert format_partition(P) == "5,4,3,3,2,1"
    assert parse_partition(format_partition(P)) == P
    with pytest.raises(EmptyPartition):
        parse_partition("  ")
    with pytest.raises(NonPositivePart):
        parse_partition("3,x")
    with pytest.raises(NonPositivePart):
        parse_partition("3,0")


def test_empty_partition_properties():
    E = Partition()
    assert E.n == 0
    assert not E
    assert E.max_part == 0
    assert conjugate(E) == E
