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
``_slot_weights`` gives the weight of every strand (i, a) of one
partition from one suffix sum of multiplicities and, like
``strand_table``, keeps the latest partition's; the simple sizes (slot
1), the closed form, the maximum simple chains, the profile solver and
the strand check all read it.  ``strand_failures`` verifies the closed
form against the realized vertex sets for all specifications at once,
strand by strand; the per-specification comparison is the tests' oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import EmptyPartition, NonMonotoneProfile, NotMaximumSimpleChain
from .partitions import Partition
from .poset import Vertex


@dataclass(frozen=True)
class UChainSpec:
    """Anchors a_1 < ... < a_r with gaps of at least 2."""

    anchors: tuple[int, ...]

    def __post_init__(self):
        a = self.anchors
        if not a:
            raise ValueError("a specification needs at least one anchor")
        if any(not isinstance(x, int) or x < 1 for x in a):
            raise ValueError(f"anchors must be positive integers: {a}")
        for i in range(1, len(a)):
            if a[i] < a[i - 1] + 2:
                raise ValueError(f"anchors must increase by at least 2: {a}")

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
    lies above the largest part.
    """
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
        raise AssertionError(f"strands of {spec} overlap in {P}")
    return UChainInstance(spec, strands, union)


@lru_cache(maxsize=1)
def _slot_weights(P: Partition) -> Mapping[tuple[int, int], int]:
    """The closed-form size of every strand of ``strand_table(P)``, same keys.

    Anchor a in slot i weighs its simple size -- a full level a, a full
    level a+1 and two rail vertices per row of every higher level -- minus
    2*(i-1)*(mult(a)+mult(a+1)).  ``above`` counts the rows longer than
    a+1, one suffix sum of multiplicities.  Only the latest partition's
    weights are cached; they are shared by every caller, hence read-only.
    """
    weights = {}
    above = 0
    for a in range(P.max_part, 0, -1):
        simple = a * P.mult(a) + (a + 1) * P.mult(a + 1) + 2 * above
        mass = P.mult(a) + P.mult(a + 1)
        for i in range(1, (a + 1) // 2 + 1):
            weights[i, a] = simple - 2 * (i - 1) * mass
        above += P.mult(a + 1)
    return MappingProxyType(weights)


def simple_cardinality(P: Partition, a: int) -> int:
    """Size of the one-anchor family at a: its weight in slot 1."""
    return _slot_weights(P).get((1, a), 0)


def cardinality_closed_form(P: Partition, spec: UChainSpec) -> int:
    """Size of the family: the sum of its anchors' slot weights."""
    weights = _slot_weights(P)
    return sum(weights.get((i, a), 0) for i, a in enumerate(spec.anchors, start=1))


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
    weights = _slot_weights(P)
    failures = []
    for (i, a), s in strands.items():
        weight = weights[i, a]
        if len(s) != weight:
            failures.append(f"strand {i} of anchor {a} has {len(s)} vertices != slot weight {weight}")
    for (i, a), s in strands.items():
        for j in range(i + 1, slots.stop):
            for b in range(a + 2 * (j - i), M + 1):
                if not s.isdisjoint(strands[j, b]):
                    failures.append(f"strand {i} of anchor {a} meets strand {j} of anchor {b}")
    return failures


def max_simple_u_chains(P: Partition) -> tuple[int, tuple[int, ...]]:
    """Largest simple-chain size and all maximizing anchors.

    Anchors run over 1..max part (larger anchors select nothing); anchors
    realizing the same vertex set count once, represented by the largest,
    which is always a part value.

    Anchor a selects nothing below level a, full levels a and a+1, and
    the two rails of every higher level.  Anchors a-1 and a therefore
    select the same set exactly when neither a-1 nor a+1 is a part: a
    part a-1 is taken only by a-1, and a part a+1 >= 3 is full under a
    but only railed under a-1.  Their sizes differ by
    (a-1)(mult(a-1) - mult(a+1)), so for a tied pair a-1 is a part
    exactly when a+1 is, and testing a-1 suffices.  Equal sets come in
    runs of consecutive anchors, so a tied anchor joins the previous
    class when it directly follows that class's representative and a-1
    is not a part.  No vertex set is realized.
    """
    if P.n < 1:
        raise EmptyPartition("needs a nonempty partition")
    weights = _slot_weights(P)
    best = -1
    reps: list[int] = []
    for a in range(1, P.max_part + 1):
        card = weights[1, a]
        if card > best:
            best = card
            reps = [a]
        elif card == best:
            if reps[-1] == a - 1 and not P.mult(a - 1):
                reps[-1] = a
            else:
                reps.append(a)
    return best, tuple(reps)


def max_u_chain_cardinality(P: Partition, k: int) -> int:
    """Maximum size of a k-strand family (strands may be empty).

    Effective anchors live in 1..max part; anchors beyond contribute empty
    strands, so the k-value is the best over at most k effective anchors.
    Solved by dynamic programming over (slot, last anchor) with the
    additive slot weights.
    """
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
    weights = _slot_weights(P)
    table = [0]
    lead = [0] * (M + 1)  # lead[a]: the largest family of i-1 slots that anchor a can follow
    for i in range(1, (M + 1) // 2 + 1):
        first = 2 * i - 1
        exact = [lead[a] + weights[i, a] for a in range(first, M + 1)]
        table.append(max(table[-1], max(exact)))
        lead = [0] * (first + 2) + list(accumulate(exact, max))
    return table


def lambda_u(P: Partition) -> Partition:
    """Partition of successive differences of the k-strand maxima.

    The differences run up to the first maximum that covers all of P; a
    non-monotone difference sequence would signal a solver bug and is
    raised, not sorted away.
    """
    if P.n < 1:
        raise EmptyPartition("needs a nonempty partition")
    table = u_table(P)
    if P.n not in table:
        raise NonMonotoneProfile(f"profile never reaches {P.n}: {table}")
    diffs = [table[k] - table[k - 1] for k in range(1, table.index(P.n) + 1)]
    for i in range(1, len(diffs)):
        if diffs[i] > diffs[i - 1]:
            raise NonMonotoneProfile(f"differences increase: {diffs}")
    return Partition(diffs)


def iter_specs(max_anchor: int, max_r: int | None = None) -> Iterator[UChainSpec]:
    """All specifications with anchors in 1..max_anchor, depth-first by prefix."""
    if max_anchor < 1:
        return
    if max_r is None:
        max_r = (max_anchor + 1) // 2

    def rec(start: int, chosen: list[int]) -> Iterator[UChainSpec]:
        for a in range(start, max_anchor + 1):
            chosen.append(a)
            yield UChainSpec(tuple(chosen))
            if len(chosen) < max_r:
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

    The witness slot u satisfies b_{u-1} < a < b_{u+1} - 1 (with b_0 = 0
    and b_{r+1} unbounded) and yields a valid specification.  When the
    pair {a, a+1} already lies inside the expanded anchor set the family
    needs no change and the identity substitution is reported.  A failed
    search returns ok=False; it would falsify the replacement property.
    """
    best, _ = max_simple_u_chains(P)
    if simple_cardinality(P, a) != best:
        raise NotMaximumSimpleChain(f"anchor {a} has size {simple_cardinality(P, a)} < {best}")

    b = spec.anchors
    r = len(b)
    original = cardinality_closed_form(P, spec)

    if set((a, a + 1)) <= set(spec.expanded()):
        position = next(u for u in range(1, r + 1) if b[u - 1] >= a - 1)
        return ReplacementResult(True, position, spec, original, original, True)

    for u in range(1, r + 1):
        left = b[u - 2] if u >= 2 else 0
        right = b[u] if u < r else None
        if not (left < a and (right is None or a < right - 1)):
            continue
        if u >= 2 and a - left < 2:
            continue
        candidate = UChainSpec(b[: u - 1] + (a,) + b[u:])
        size = cardinality_closed_form(P, candidate)
        if size >= original:
            return ReplacementResult(True, u, candidate, original, size, False)
    return ReplacementResult(False, None, None, original, None, False)
