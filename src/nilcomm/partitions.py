"""Integer partitions: normalization, dominance order, conjugation and
almost-rectangular structure.

A partition is stored as a weakly decreasing tuple of positive parts.
Multiplicity lookup is backed by a map so that ``mult(p)`` is 0 for any
value that does not occur, which is the convention the chain-cardinality
formulas rely on.
"""
from __future__ import annotations

import sys
from itertools import accumulate, pairwise, zip_longest
from typing import Iterable, Iterator

from .errors import (CheckFailed, EmptyPartition, InvalidParameter, NonMonotoneProfile, NonPositivePart,
                     UnequalWeight, is_integer)


class Partition:
    """A partition of ``n``: positive parts in weakly decreasing order.

    Immutable and hashable.  The empty partition (of 0) is allowed so that
    recursive chain removal has a terminal state; user-facing constructors
    reject it.  A size ``n`` past ``sys.maxsize``, too large to index a
    list, is refused with ``InvalidParameter``.
    """

    __slots__ = ("_parts", "_n", "_mult", "_hash")

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(sorted(parts, reverse=True))
        mult: dict[int, int] = {}
        for p in ps:
            if type(p) is not int or p < 1:  # a bool is no part
                raise NonPositivePart(f"partition parts must be positive integers, got {p!r}")
            mult[p] = mult.get(p, 0) + 1
        n = sum(ps)
        if n > sys.maxsize:
            raise InvalidParameter(f"partition size {n} is past sys.maxsize, too large to index")
        self._parts = ps
        self._n = n
        self._mult = mult
        self._hash = hash(ps)  # read by every cache keyed by a partition

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def n(self) -> int:
        return self._n

    def mult(self, p: int) -> int:
        """Multiplicity of the part value ``p``; 0 if absent."""
        return self._mult.get(p, 0)

    @property
    def max_part(self) -> int:
        return self._parts[0] if self._parts else 0

    @property
    def min_part(self) -> int:
        return self._parts[-1] if self._parts else 0

    def distinct_parts(self) -> tuple[int, ...]:
        """The distinct part values, ascending."""
        return tuple(sorted(self._mult))

    def __len__(self) -> int:
        return len(self._parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __bool__(self) -> bool:
        return bool(self._parts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)!r})"

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self._parts) + ")"


def from_parts(raw: Iterable[int]) -> Partition:
    """Normalize ``raw`` (any order) into a Partition.

    Raises EmptyPartition for no parts and NonPositivePart for entries < 1.
    """
    raw = list(raw)
    if not raw:
        raise EmptyPartition("a partition needs at least one part")
    return Partition(raw)


def checked_partition(parts: list[int], error: type[CheckFailed], what: str) -> Partition:
    """The computed sequence ``parts`` as a partition, never sorted into
    one: unless it is positive and weakly decreasing, raise ``error``."""
    if any(b > a for a, b in pairwise(parts)) or parts and parts[-1] < 1:
        raise error(f"{what} {parts} are not positive and weakly decreasing")
    return Partition(parts)


def dominance_leq(P: Partition, Q: Partition) -> bool:
    """True iff P <= Q in dominance order.

    Prefix sums of P never exceed those of Q; the shorter partition is
    padded with zeros.  Both must partition the same total.
    """
    if P.n != Q.n:
        raise UnequalWeight(f"cannot compare partitions of {P.n} and {Q.n}")
    sp = sq = 0
    for i in range(max(len(P), len(Q))):
        sp += P.parts[i] if i < len(P) else 0
        sq += Q.parts[i] if i < len(Q) else 0
        if sp > sq:
            return False
    return True


def dominance_join(P: Partition, Q: Partition) -> Partition:
    """The least partition that dominates both P and Q.

    Dominance is a lattice (Brylawski, Discrete Math. 6, 1973), and
    conjugation reverses it, so the join is the conjugate of the meet of
    the conjugates.  The meet's prefix sums are the pointwise minimum of
    theirs, a shorter sequence padded with the total; a minimum of concave
    sequences is concave, so their differences form a partition, and
    ``checked_partition`` refuses them otherwise.  Both must partition the
    same total.
    """
    if P.n != Q.n:
        raise UnequalWeight(f"cannot join partitions of {P.n} and {Q.n}")
    sums = zip_longest(*(accumulate(conjugate(R).parts) for R in (P, Q)), fillvalue=P.n)
    meet = [t - s for s, t in pairwise([0, *map(min, sums)])]
    return conjugate(checked_partition(meet, NonMonotoneProfile, "meet differences"))


def is_almost_rectangular(P: Partition) -> bool:
    """True iff the biggest and smallest parts differ by at most one."""
    if not P:
        return True
    return P.max_part - P.min_part <= 1


def r_of(P: Partition) -> int:
    """Minimum number of almost rectangular subpartitions whose union is P.

    Only parts with equal or adjacent values can share a block, so the
    question reduces to covering the distinct part values by singletons
    {v} and adjacent pairs {v, v+1}.  Scanning the distinct values in
    increasing order and pairing each value with its successor whenever
    they differ by exactly one is optimal (pairing never blocks a later,
    better pairing on a path of consecutive values).
    """
    vals = P.distinct_parts()
    r = 0
    i = 0
    while i < len(vals):
        r += 1
        if i + 1 < len(vals) and vals[i + 1] == vals[i] + 1:
            i += 2
        else:
            i += 1
    return r


def conjugate(P: Partition) -> Partition:
    """Transpose of the Young diagram (column lengths)."""
    if not P:
        return Partition()
    cols = [0] * P.max_part
    for p in P.parts:
        for j in range(p):
            cols[j] += 1
    return Partition(cols)


def _check_order(n: int) -> None:
    if not is_integer(n):
        raise InvalidParameter(f"a partition's size must be an integer, not {n!r}")


def all_partitions(n: int) -> Iterator[Partition]:
    """Generate every partition of n, parts weakly decreasing; a float or
    a bool n raises ``InvalidParameter`` when the first is asked for."""
    _check_order(n)
    if n < 0:
        return
    if n == 0:
        yield Partition()
        return

    def rec(remaining: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(prefix)
            return
        for x in range(min(remaining, cap), 0, -1):
            prefix.append(x)
            yield from rec(remaining - x, x, prefix)
            prefix.pop()

    yield from rec(n, n, [])


def partition_count(n: int) -> int:
    """Number of partitions of n, by the bounded-largest-part recurrence.

    Independent of all_partitions; used to cross-check sweep coverage.
    """
    _check_order(n)
    if n < 0:
        return 0
    # table[m][k] = number of partitions of m with parts <= k
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            table[m][k] = table[m][k - 1] + (table[m - k][k] if m >= k else 0)
    return table[n][n]


def parse_partition(text: str) -> Partition:
    """Parse the comma-separated CLI/JSON syntax, e.g. ``"5,4,3,3,2,1"``.

    Parts may appear in any order; the result is normalized.
    """
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise EmptyPartition(f"no parts in partition text {text!r}")
    try:
        parts = [int(s) for s in items]
    except ValueError as exc:
        raise NonPositivePart(f"bad partition text {text!r}: {exc}") from None
    return from_parts(parts)


def format_partition(P: Partition) -> str:
    """Render a partition in the comma-separated syntax, parts descending."""
    return ",".join(str(p) for p in P.parts)
