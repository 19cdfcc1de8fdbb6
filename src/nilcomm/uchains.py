"""Anchored chain families ("U-chains") in the basis poset.

An r-anchor specification is a list a_1 < ... < a_r of positive integers
with consecutive anchors at least 2 apart, so the pairs {a_i, a_i+1} are
disjoint.  Strand i of the family consists of the middle band
i <= u <= p-i+1 of the levels p in {a_i, a_i+1} together with the two
rail positions u in {i, p-i+1} of every higher level; it depends only on
(a_i, i) and is realized once, by ``strand``.  Each strand is a chain and
distinct strands are disjoint.  ``strand_table`` realizes all O(M^2)
strands (i, a) of one partition (M its largest part) at once;
``materialize``, the sweep's strand check and, through ``materialize``,
the process layer's prefix-union check read it.  It keeps only the most
recent partition's table: a sweep and the process checks within it visit
one partition at a time, so one entry serves every repeat, and memory
stays at one table however many partitions are seen.

The closed-form size of a family is additive: anchor a in slot i
contributes its simple size minus 2*(i-1)*(mult(a)+mult(a+1)).  It is the
expansion of a peeling recurrence (removing the lowest anchor a costs the
simple-chain size of a minus twice the multiplicity mass of every
remaining anchor pair), which the tests keep as an oracle.
``_anchor_sizes`` gives the simple size and the mass of every anchor, two
arrays from one suffix sum of multiplicities; ``_weights_in_slot`` states
the slot weight once, for the closed form, the profile solver and the
strand check.  The maximum simple chains are the parts of largest simple
size.  ``strand_failures`` verifies the closed form against the realized
vertex sets for all specifications at once, strand by strand; the
per-specification comparison is the tests' oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import (EmptyPartition, InvalidParameter, NonMonotoneProfile, NotMaximumSimpleChain,
                     StrandsOverlap, is_integer)
from .partitions import Partition, checked_partition
from .poset import Vertex


@dataclass(frozen=True)
class UChainSpec:
    """Anchors a_1 < ... < a_r with gaps of at least 2."""

    anchors: tuple[int, ...]

    def __post_init__(self):
        a = self.anchors
        if not a:
            raise InvalidParameter("a specification needs at least one anchor")
        if any(type(x) is not int or x < 1 for x in a):  # a bool is no anchor
            raise InvalidParameter(f"anchors must be positive integers: {a}")
        for i in range(1, len(a)):
            if a[i] < a[i - 1] + 2:
                raise InvalidParameter(f"anchors must increase by at least 2: {a}")

    @property
    def r(self) -> int:
        return len(self.anchors)

    def expanded(self) -> tuple[int, ...]:
        """The 2r distinct values {a_i, a_i+1}, ascending."""
        out: list[int] = []
        for a in self.anchors:
            out.extend((a, a + 1))
        return tuple(out)


@dataclass(frozen=True)
class UChainInstance:
    """A materialized chain family: per-strand vertex sets and their union."""

    spec: UChainSpec
    strands: tuple[frozenset[Vertex], ...]
    union: frozenset[Vertex]


def strand(P: Partition, a: int, i: int) -> frozenset[Vertex]:
    """Strand i (1-based slot) of anchor a inside the basis poset of P.

    The middle band i <= u <= p-i+1 of the levels p in {a, a+1} and the
    rail positions u in {i, p-i+1} of every higher level.  Empty when a
    lies above the largest part.  Anchors and slots are ints >= 1, as
    ``UChainSpec`` anchors are: a bool or a numpy integer is refused.
    """
    if not (type(a) is int and type(i) is int and a >= 1 and i >= 1):
        raise InvalidParameter(f"anchors and slots must be positive integers, not anchor {a!r}, slot {i!r}")
    out: set[Vertex] = set()
    for p in P.distinct_parts():
        if p < a:
            continue
        if p <= a + 1:
            positions = range(i, p - i + 2)
        elif i <= p:  # both rails lie in 1..p exactly when i <= p
            positions = {i, p - i + 1}
        else:
            continue
        for k in range(1, P.mult(p) + 1):
            for u in positions:
                out.add((u, p, k))
    return frozenset(out)


@lru_cache(maxsize=1)
def strand_table(P: Partition) -> Mapping[tuple[int, int], frozenset[Vertex]]:
    """All strands of P that a specification of ``iter_specs(M)`` can use.

    Keyed by (slot i, anchor a) for 1 <= i <= (M+1)//2 and 2i-1 <= a <= M,
    M the largest part; the value is ``strand(P, a, i)``.  Only the latest
    partition's table is cached; it is shared by every caller, hence
    read-only.
    """
    M = P.max_part
    return MappingProxyType({(i, a): strand(P, a, i)
                             for i in range(1, (M + 1) // 2 + 1) for a in range(2 * i - 1, M + 1)})


def materialize(P: Partition, spec: UChainSpec) -> UChainInstance:
    """Realize the strands of ``spec`` inside the basis poset of P.

    Strands may be empty (anchors above the largest part select nothing).
    """
    # Anchors of a specification satisfy a >= 2i-1 in slot i, so a strand
    # missing from the table has its anchor above the largest part: empty.
    table = strand_table(P)
    strands = tuple([table.get((i, a), frozenset()) for i, a in enumerate(spec.anchors, start=1)])
    union = frozenset().union(*strands)
    if len(union) != sum(map(len, strands)):
        raise StrandsOverlap(f"strands of {spec} overlap in {P}")
    return UChainInstance(spec, strands, union)


def _anchor_sizes(P: Partition) -> tuple[list[int], list[int]]:
    """The two facts of every anchor a in 1..M (M the largest part).

    ``simple[a]`` counts a full level a, a full level a+1 and two rail
    vertices per row longer than a+1 (one suffix sum of multiplicities);
    ``mass[a]`` is mult(a) + mult(a+1).  Index 0 holds 0 in both.
    """
    M = P.max_part
    simple, mass = [0] * (M + 1), [0] * (M + 1)
    above = 0
    for a in range(M, 0, -1):
        simple[a] = a * P.mult(a) + (a + 1) * P.mult(a + 1) + 2 * above
        mass[a] = P.mult(a) + P.mult(a + 1)
        above += P.mult(a + 1)
    return simple, mass


def _weights_in_slot(simple: list[int], mass: list[int], i: int) -> list[int]:
    """The closed-form size of strand (i, a) at index a (a >= 2i-1 has one)."""
    return [s - 2 * (i - 1) * m for s, m in zip(simple, mass)]


def simple_cardinality(P: Partition, a: int) -> int:
    """Size of the one-anchor family at a; 0 off the anchors 1..M."""
    if not is_integer(a):
        raise InvalidParameter(f"an anchor must be an integer, not {a!r}")
    simple, _ = _anchor_sizes(P)
    return simple[a] if 1 <= a < len(simple) else 0


def cardinality_closed_form(P: Partition, spec: UChainSpec) -> int:
    """Size of the family: the sum of its anchors' slot weights."""
    simple, mass = _anchor_sizes(P)
    return sum(_weights_in_slot(simple, mass, i)[a]
               for i, a in enumerate(spec.anchors, start=1) if a < len(simple))


def strand_failures(P: Partition) -> list[str]:
    """Check ``cardinality_closed_form(P, s) == |materialize(P, s).union|``
    for every specification s of ``iter_specs(P.max_part)`` at once.

    Slot i of such a specification holds an anchor 2i-1 <= a <= M (M the
    largest part), and its strand is ``strand(P, a, i)``.  Two checks:

    * size: ``|strand(P, a, i)|`` equals the slot weight of (i, a) for
      every such slot and anchor;
    * disjointness: ``strand(P, a, i)`` and ``strand(P, b, j)`` share no
      vertex for i < j and a + 2(j-i) <= b <= M.  Anchors of a
      specification increase by at least 2, so a_j >= a_i + 2(j-i): these
      are exactly the strand pairs that occur together in some
      specification.

    Together they imply the identity for every specification: its strands
    are pairwise disjoint, so the union has sum |strand| = sum of slot
    weights = the closed form.  The work is O(M^2) strands and O(M^4)
    disjointness tests instead of one realization per specification, of
    which there are Fibonacci(M)-many.  Returns one message per failure.
    """
    M = P.max_part
    slots = range(1, (M + 1) // 2 + 1)
    strands = strand_table(P)
    simple, mass = _anchor_sizes(P)
    weights = {i: _weights_in_slot(simple, mass, i) for i in slots}
    failures = []
    for (i, a), s in strands.items():
        weight = weights[i][a]
        if len(s) != weight:
            failures.append(f"strand {i} of anchor {a} has {len(s)} vertices != slot weight {weight}")
    for (i, a), s in strands.items():
        for j in range(i + 1, slots.stop):
            for b in range(a + 2 * (j - i), M + 1):
                if not s.isdisjoint(strands[j, b]):
                    failures.append(f"strand {i} of anchor {a} meets strand {j} of anchor {b}")
    return failures


def max_simple_u_chains(P: Partition) -> tuple[int, tuple[int, ...]]:
    """Largest simple-chain size and the part values that attain it.

    The maximizing parts are the maximizing vertex sets, one each.  The
    simple sizes of consecutive anchors differ by
    size(a+1) - size(a) = a*(mult(a+2) - mult(a)), so a maximizing anchor
    a that is no part has mult(a+2) = 0, and anchors a and a+1 then select
    the same set (level a+1 in full, rails on the levels above).  Going
    up, every maximizing set is the set of a maximizing part.  Distinct
    parts select distinct sets, since anchor a takes all of level a and
    nothing below.  No vertex set is realized.
    """
    if P.n < 1:
        raise EmptyPartition("needs a nonempty partition")
    simple, _ = _anchor_sizes(P)
    best = max(simple)
    return best, tuple(a for a in P.distinct_parts() if simple[a] == best)


def max_u_chain_cardinality(P: Partition, k: int) -> int:
    """Maximum size of a k-strand family (strands may be empty).

    Effective anchors live in 1..max part; anchors beyond contribute empty
    strands, so the k-value is the best over at most k effective anchors.
    Solved by dynamic programming over (slot, last anchor) with the
    additive slot weights.
    """
    if not is_integer(k):
        raise InvalidParameter(f"a chain count must be an integer, not {k!r}")
    if k <= 0 or P.n == 0:
        return 0
    table = u_table(P)
    return table[min(k, len(table) - 1)]


def u_table(P: Partition) -> list[int]:
    """Running maxima u_0, u_1, ..., one slot count per feasible length.

    u_k for k past the end equals the last entry.  Slot i extends the best
    family of i-1 slots whose last anchor lies at least 2 below its own.
    """
    M = P.max_part
    simple, mass = _anchor_sizes(P)
    table = [0]
    lead = [0] * (M + 1)  # lead[a]: the largest family of i-1 slots that anchor a can follow
    for i in range(1, (M + 1) // 2 + 1):
        first = 2 * i - 1
        weights = _weights_in_slot(simple, mass, i)
        exact = [lead[a] + weights[a] for a in range(first, M + 1)]
        table.append(max(table[-1], max(exact)))
        lead = [0] * (first + 2) + list(accumulate(exact, max))
    return table


def lambda_u(P: Partition) -> Partition:
    """Partition of successive differences of the k-strand maxima, up to
    the first maximum that covers all of P."""
    if P.n < 1:
        raise EmptyPartition("needs a nonempty partition")
    table = u_table(P)
    if P.n not in table:
        raise NonMonotoneProfile(f"profile never reaches {P.n}: {table}")
    diffs = [table[k] - table[k - 1] for k in range(1, table.index(P.n) + 1)]
    return checked_partition(diffs, NonMonotoneProfile, "profile differences")


def iter_specs(max_anchor: int) -> Iterator[UChainSpec]:
    """All specifications with anchors in 1..max_anchor, depth-first by prefix."""
    if not is_integer(max_anchor):
        raise InvalidParameter(f"the largest anchor must be an integer, not {max_anchor!r}")

    def rec(start: int, chosen: list[int]) -> Iterator[UChainSpec]:
        for a in range(start, max_anchor + 1):
            chosen.append(a)
            yield UChainSpec(tuple(chosen))
            yield from rec(a + 2, chosen)
            chosen.pop()

    yield from rec(1, [])


@dataclass(frozen=True)
class ReplacementResult:
    """Outcome of substituting a maximum anchor into a specification."""

    ok: bool
    position: int | None
    replaced: UChainSpec | None
    original_size: int
    new_size: int | None
    identity: bool


def check_replacement(P: Partition, spec: UChainSpec, a: int) -> ReplacementResult:
    """Find a slot where the maximum simple anchor ``a`` can replace one
    anchor of ``spec`` without shrinking the family.

    The witness slot u is one where substituting a yields a valid
    specification, by ``UChainSpec``'s gap rule, that is no smaller.  When
    the pair {a, a+1} already lies inside the expanded anchor set the
    family needs no change and the identity substitution is reported.  A
    failed search returns ok=False; it would falsify the replacement
    property.  A numpy integer anchor is taken as the int it equals.
    """
    best, _ = max_simple_u_chains(P)
    if simple_cardinality(P, a) != best:
        raise NotMaximumSimpleChain(f"anchor {a} has size {simple_cardinality(P, a)} < {best}")
    a = int(a)  # a candidate's anchors are ints

    b = spec.anchors
    r = len(b)
    original = cardinality_closed_form(P, spec)

    if set((a, a + 1)) <= set(spec.expanded()):
        position = next(u for u in range(1, r + 1) if b[u - 1] >= a - 1)
        return ReplacementResult(True, position, spec, original, original, True)

    for u in range(1, r + 1):
        try:
            candidate = UChainSpec(b[: u - 1] + (a,) + b[u:])
        except InvalidParameter:
            continue
        size = cardinality_closed_form(P, candidate)
        if size >= original:
            return ReplacementResult(True, u, candidate, original, size, False)
    return ReplacementResult(False, None, None, original, None, False)
