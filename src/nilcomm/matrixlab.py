"""Finite-field sampling from the triangular part of a Jordan centralizer.

Basis index i is the triple ``vertex_list(P)[i]``: rows ascend by length
p, then by row k, and u runs along each row.  The Jordan matrix of a
partition acts on the basis triples (u, p, k) by stepping u forward
within each row.  A matrix commuting with it is
determined, block pair by block pair, by one coefficient per diagonal of
a shifted Toeplitz band; couplings between rows of equal length at shift
zero form, per level, a matrix that we force to be strictly triangular in
the row index.  Every matrix sampled under that constraint commutes with
the Jordan matrix and is nilpotent, and its generic Jordan type is the
object of interest.

The infinite ground field is replaced by a prime field; a random
specialization preserves generic ranks except with probability on the
order of 1/p per minor, so taking the dominance maximum over a handful of
samples recovers the generic type with overwhelming probability.

A sample's Jordan type is read from the ranks of its powers, which come
from one block-Krylov elimination instead of from the powers themselves:
the unit vectors that complement im A are read off the pivots of one
elimination of A^T, and the stack [A^(m-1) V | ... | A V | V]
(A^m V = 0) is reduced once; the pivots among the blocks of power >= j
count rank(A^j) (Keller-Gehrig, TCS 36, 1985).  Any V with
V + im A = F^n serves, so the samples of one partition are profiled as
one batch sharing one V, the union of their complements, which in the
generic case is each sample's complement.  For a nilpotent A these
vectors always generate the whole space, so the stack has rank n; a
stack short of rank n means A is not nilpotent.  One exact elimination
kernel, ``_pivots``, serves this and ``rank_mod``: it eliminates a batch
of matrices forward, one pivot search per column for the whole batch,
and returns each matrix's pivot columns, which are all that either reads.

All arithmetic is in int64 on entries reduced to [0, p).  A product of
inner dimension n is exact only while n*(p-1)^2 < 2^63; every product
checks this where it is formed and raises ``Int64BoundExceeded`` past it,
so no result is ever computed from a wrapped sum.  The Krylov blocks
A^i V are such products, of inner dimension n, formed by ``_matmul``.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CommutationCheckFailed,
    IncomparableSamples,
    Int64BoundExceeded,
    InvalidParameter,
    NotNilpotent,
    PosetTooLarge,
)
from .partitions import Partition, conjugate, dominance_leq
from .poset import Vertex, build_poset, vertex_list

DEFAULT_PRIME = 1_000_003
INT64_LIMIT = 1 << 63
INTEGER_TYPES = (int, np.integer)  # what moduli, seeds, counts and entries may be


@lru_cache
def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """A prime modulus; arithmetic is field arithmetic mod p."""

    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if not isinstance(self.p, INTEGER_TYPES) or not _is_prime(self.p):
            raise InvalidParameter(f"{self.p} is not prime")
        if self.p >= 1 << 28:
            raise InvalidParameter(
                f"modulus {self.p} is not below 2^28; even below it, an int64 product "
                "of inner dimension n is exact only while n*(p-1)^2 < 2^63, "
                "which is checked where each product is formed"
            )


def _check_int64(inner: int, p: int) -> None:
    """Refuse a product mod p whose int64 accumulation could overflow.

    With factors reduced to [0, p), a dot product of length ``inner`` is at
    most inner*(p-1)^2 in absolute value.
    """
    if inner * (int(p) - 1) ** 2 >= INT64_LIMIT:
        raise Int64BoundExceeded(
            f"int64 products mod {p} are exact only while inner_dim*(p-1)^2 < 2^63; "
            f"inner dimension {inner} exceeds that"
        )


def _matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    _check_int64(A.shape[-1], p)
    return (A @ B) % p


def jordan_matrix(P: Partition) -> np.ndarray:
    """Block-diagonal nilpotent matrix stepping u -> u+1 within each row."""
    index = {v: i for i, v in enumerate(vertex_list(P))}
    B = np.zeros((P.n, P.n), dtype=np.int64)
    for (u, p, k), i in index.items():
        if u < p:
            B[index[u + 1, p, k], i] = 1
    return B


@dataclass(frozen=True)
class CommutantSample:
    """A sampled matrix commuting with the Jordan matrix of a partition (read-only)."""

    partition: Partition
    field: PrimeField
    seed: int
    matrix: np.ndarray


def sample_nilpotent_commutant(P: Partition, field: PrimeField, seed: int) -> CommutantSample:
    """Draw a uniform element of the triangular part of the centralizer.

    All free coefficients are uniform in the field; ``seed`` must be >= 0.
    Commutation with the Jordan matrix (``_commutes_with_jordan``) and
    nilpotency (``_check_key_triangular``) are checked in O(n^2) before
    returning; a failure of either signals a parametrization bug.
    """
    _check_seed(seed)
    n = P.n
    # Forming the sample takes no product, but its rank profile takes
    # products of inner dimension up to n: refuse what it could not use.
    _check_int64(n, field.p)
    layout = _sample_layout(P)
    # One array draw yields the same stream as one scalar draw per coefficient.
    draws = np.random.default_rng(seed).integers(0, field.p, size=layout.count)
    A = np.zeros((n, n), dtype=np.int64)
    A[layout.targets, layout.sources] = draws[layout.entry_coefficient]

    if not _commutes_with_jordan(layout, A):
        raise CommutationCheckFailed(f"sampled matrix does not commute for {P} (seed {seed})")
    _check_key_triangular(layout, A)
    A.flags.writeable = False
    return CommutantSample(P, field, seed, A)


def _check_seed(seed: int) -> None:
    if not isinstance(seed, INTEGER_TYPES) or seed < 0:
        raise InvalidParameter(f"seed {seed} is negative or not an integer; seeds must be integers >= 0")


def _seeds(seed: int, samples: int) -> tuple[int, ...]:
    """The consecutive seeds of ``samples`` samples from ``seed`` on, as
    Python integers, so that no numpy integer wraps past 2^63 - 1."""
    if not isinstance(samples, INTEGER_TYPES) or samples < 1:
        raise InvalidParameter(f"need at least one sample, counted by an integer: {samples!r}")
    _check_seed(seed)
    return tuple(int(seed) + i for i in range(samples))


@dataclass(frozen=True)
class _SampleLayout:
    """The basis and the free coefficients of one partition's samples.

    Basis index i is ``vertices[i]``, taken from ``vertex_list``.
    Coefficient c is the c-th draw.  Matrix entry (targets[e], sources[e])
    holds coefficient entry_coefficient[e], and no entry is listed twice,
    so an entry can be nonzero exactly when it is listed.  For the two
    certificates, which run on every sample, ``first`` and ``last`` mark
    the indices that start and end a row (u == 1, u == p), and
    ``position[i]`` is the rank of index i in the key order (2u - p, p, k).
    """

    vertices: tuple[Vertex, ...]
    count: int
    targets: np.ndarray
    sources: np.ndarray
    entry_coefficient: np.ndarray
    first: np.ndarray
    last: np.ndarray
    position: np.ndarray


@lru_cache(maxsize=1)
def _sample_layout(P: Partition) -> _SampleLayout:
    """The coefficient layout of P's samples, built once and shared by
    consecutive samples of one partition (only the latest is cached)."""
    vertices = tuple(vertex_list(P))
    rows = [(p, k, start) for start, (u, p, k) in enumerate(vertices) if u == 1]
    targets, sources, entry_coefficient = [], [], []
    count = 0
    for p, k, start in rows:
        for p2, k2, start2 in rows:
            for j in range(max(1, p2 - p + 1), p2 + 1):
                if j == 1 and p == p2 and k >= k2:
                    continue
                # Shift j carries basis index u of row (p, k) to u + j - 1 of
                # row (p2, k2), for the p2 - j + 1 values of u that stay in it.
                band = range(p2 - j + 1)
                targets.extend(start2 + j - 1 + u for u in band)
                sources.extend(start + u for u in band)
                entry_coefficient.extend([count] * len(band))
                count += 1
    keys = [(2 * u - p, p, k) for u, p, k in vertices]
    position = np.empty(len(vertices), dtype=np.int64)
    position[sorted(range(len(vertices)), key=keys.__getitem__)] = np.arange(len(vertices))
    arrays = [np.array(a, dtype=np.int64) for a in (targets, sources, entry_coefficient)]
    arrays += [np.array([u == 1 for u, _, _ in vertices], dtype=bool),
               np.array([u == p for u, p, _ in vertices], dtype=bool), position]
    for a in arrays:
        a.flags.writeable = False
    return _SampleLayout(vertices, count, *arrays)


def _commutes_with_jordan(layout: _SampleLayout, A: np.ndarray) -> bool:
    """Whether A commutes with the Jordan matrix B of the layout's rows, in
    O(n^2) and without forming a product.

    B[i+1, i] = 1 exactly when i and i+1 lie in one row, so (A B)[:, i]
    is A[:, i+1] for i not last in its row and zero otherwise, and
    (B A)[i, :] is A[i-1, :] for i not first in its row and zero
    otherwise: a column shift and a row shift of A inside the rows.
    """
    AB = np.zeros_like(A)
    AB[:, :-1] = A[:, 1:]
    AB[:, layout.last] = 0
    BA = np.zeros_like(A)
    BA[1:] = A[:-1]
    BA[layout.first] = 0
    return np.array_equal(AB, BA)


def _check_key_triangular(layout: _SampleLayout, A: np.ndarray) -> None:
    """Certify that A is nilpotent: strictly lower triangular once rows and
    columns are ordered by the key (2u - p, p, k) of their basis triples.

    The key strictly increases along every sampled coefficient.  Shift j
    carries (u, p, k) to (u + j - 1, p2, k2) with j >= max(1, p2 - p + 1),
    so 2u - p changes by 2(j - 1) - (p2 - p).  If p2 >= p this is at least
    2(p2 - p) - (p2 - p) >= 0; if p2 < p it is at least p - p2 > 0.
    Equality forces p2 = p and j = 1, where the triangular constraint
    samples only k < k2, so the key still increases.  A strictly triangular
    matrix is nilpotent; the check costs O(n^2) instead of forming powers.
    """
    position = layout.position
    targets, sources = A.nonzero()
    bad = (position[targets] <= position[sources]).nonzero()[0]
    if bad.size:
        dst, src = targets[bad[0]], sources[bad[0]]
        raise NotNilpotent(f"sampled matrix moves {layout.vertices[src]} (basis index {src}) "
                           f"to {layout.vertices[dst]} (basis index {dst}), against the key "
                           "order (2u - p, p, k): nilpotency is not certified")


def structural_action_pairs(P: Partition) -> frozenset[tuple[Vertex, Vertex]]:
    """Ordered pairs (v, w) where some sampled matrix can move v onto w.

    Every matrix entry is carried by a single free coefficient, so the
    pairs are exactly the layout's (source, target) entries.
    """
    layout = _sample_layout(P)
    vertices = layout.vertices
    return frozenset((vertices[src], vertices[dst])
                     for src, dst in zip(layout.sources.tolist(), layout.targets.tolist()))


def _pivots(R: np.ndarray, p: int) -> list[list[int]]:
    """Pivot columns of each matrix of the batch R, shape (S, rows, cols),
    over the field with p elements.

    R holds int64 residues in [0, p), as ``_residues`` returns them, and
    the elimination overwrites it.  Forward elimination only, on the batch
    stacked as one (S*rows) x cols array.  At each column every matrix
    takes its first row nonzero there as its pivot row q, and one update
    over the rows nonzero there clears the column: each such row r of a
    matrix becomes q[c]*r - r[c]*q with that matrix's q.  Scaling r by
    q[c] != 0 keeps the row space and needs no inverse; both products stay
    below (p-1)^2 < 2^63.  The pivot row is among the rows cleared, so it
    leaves as a zero row, with no swap and no mask.  Every row is then
    zero left of the next column, so the update touches only the column
    and those right of it.  The pivots are those of each matrix's reduced
    row echelon form, the columns independent of the columns left of
    them, which no choice of pivot row changes.
    """
    p = int(p)
    S, rows, cols = R.shape
    R = R.reshape(S * rows, cols)
    offsets = np.arange(S) * rows
    pivots: list[list[int]] = [[] for _ in range(S)]
    left = S * rows  # rows not yet used as pivots
    for c in range(cols):
        if not left:
            break
        grid = (R[:, c] != 0).reshape(S, rows)
        hits = grid.ravel().nonzero()[0]
        if not hits.size:
            continue
        # A matrix with no row nonzero here gets a zero row, which no hit reads.
        prow = R[grid.argmax(1) + offsets, c:]
        q = prow[hits // rows]
        block = R[hits, c:]
        R[hits, c:] = (block * q[:, :1] - block[:, :1] * q) % p
        for s, lead in enumerate(prow[:, 0].tolist()):
            if lead:
                pivots[s].append(c)
                left -= 1
    return pivots


def _residues(M: np.ndarray, p: int) -> np.ndarray:
    """The entries of M mod p in a new int64 array, after the input checks.

    p must be a prime integer (numpy integers pass) within the int64
    bound, and M must hold integers: its dtype is bool, signed or unsigned
    integer, or object with every entry an integer.
    """
    if not isinstance(p, INTEGER_TYPES):
        raise InvalidParameter(f"modulus {p!r} is not an integer")
    _check_int64(1, p)
    if not _is_prime(p):
        raise InvalidParameter(f"{p} is not prime")
    kind = M.dtype.kind
    if kind not in "biuO" or kind == "O" and not all(isinstance(x, INTEGER_TYPES) for x in M.flat):
        raise InvalidParameter(f"entries must be integers, not of dtype {M.dtype}")
    if kind != "O" and M.itemsize < 8:  # a narrow integer type cannot hold p
        M = M.astype(np.int64)
    return (M % int(p)).astype(np.int64, copy=False)


def rank_mod(A: np.ndarray, p: int) -> int:
    """Rank over the prime field by Gaussian elimination."""
    A = np.asarray(A)
    if A.ndim != 2:
        raise InvalidParameter(f"rank_mod needs a 2-D array, not shape {A.shape}")
    return len(_pivots(_residues(A[None], p), p)[0])


def jordan_type_from_ranks(A: np.ndarray, p: int) -> Partition:
    """Jordan partition of a nilpotent matrix from its power-rank profile.

    rank(A^(k-1)) - rank(A^k) blocks have size >= k; the conjugate of
    these counts is the type.  ``_jordan_types`` computes it for a batch of
    matrices; this is a batch of one.

    No power of A is formed; one elimination gives every rank.  The pivots
    of A^T are a maximal independent set J of rows of A, so projecting
    im A onto the coordinates J is injective and the unit vectors e_j,
    j not in J, complement im A.  A batch shares one block V: the unit
    vectors outside J for some matrix, the union of the complements.
    Form A V, A^2 V, ... until A^m V = 0 for every matrix, and reduce each
    stack [A^(m-1) V | ... | A V | V] once.  Its pivot columns are the
    leftmost independent ones, so the pivots among the blocks of power
    >= j number dim span{A^i V : i >= j}.

    Certificate: any V with V + im A = F^n serves, and a superset of a
    complement is one.  W = span{A^i V} is A-invariant and W + im A = F^n,
    so F^n = W + A^k F^n for every k; for a nilpotent A this gives W = F^n.
    Then im A^j = A^j W = span{A^i V : i >= j} and the count above is
    rank(A^j).  A matrix whose powers vanish before the m-th has zero
    blocks on the left, whose rank differences are zero and are dropped.
    A stack short of rank n (a full-rank A gives an empty one), or powers
    of V that have not vanished after n steps, mean A is not nilpotent.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidParameter(f"the rank profile needs a square matrix, not shape {A.shape}")
    return _jordan_types(A[None], p)[0]


def _jordan_types(As: np.ndarray, p: int) -> list[Partition]:
    """Jordan partitions of a batch of nilpotent n x n matrices, shape
    (S, n, n), by the profile that ``jordan_type_from_ranks`` describes."""
    As = _residues(As, p)
    S, n, _ = As.shape
    independent = _pivots(As.transpose(0, 2, 1).copy(), p)
    V = np.delete(np.eye(n, dtype=np.int64), sorted(set.intersection(*map(set, independent))), axis=1)
    powers = [np.broadcast_to(V, (S, *V.shape))]
    while powers[-1].any():
        if len(powers) > n:
            raise NotNilpotent(f"matrix of size {n} has no vanishing power")
        powers.append(_matmul(As, powers[-1], p))
    m = len(powers) - 1
    width = V.shape[1]
    # Fill the stack block by block and drop each power once it is copied,
    # so that no power is held twice; the elimination then overwrites it.
    stack = np.empty((S, n, m * width), dtype=np.int64)
    powers.pop()  # A^m V = 0
    for i in range(m):
        stack[:, :, i * width:(i + 1) * width] = powers.pop()
    types = []
    for piv in _pivots(stack, p):
        if len(piv) < n:
            raise NotNilpotent(f"the Krylov stack of a matrix of size {n} has rank {len(piv)}, "
                               "so the matrix is not nilpotent")
        ranks = [bisect_left(piv, (m - j) * width) for j in range(m + 1)]
        drops = (ranks[k - 1] - ranks[k] for k in range(1, m + 1))
        types.append(conjugate(Partition(d for d in drops if d)))
    return types


@dataclass(frozen=True)
class GenericTypeEstimate:
    """Dominance-maximum Jordan type over several samples."""

    q: Partition
    types: tuple[Partition, ...]
    seeds: tuple[int, ...]
    prime: int
    agree_count: int


def generic_jordan_type(P: Partition, field: PrimeField, samples: int, seed: int) -> GenericTypeEstimate:
    """Estimate the generic Jordan type of the sampled family.

    The generic type dominates every special one, so the estimate is the
    dominance maximum of the sampled types.  If no sampled type dominates
    all others the samples are reported as incomparable instead of
    guessing.
    """
    seeds = _seeds(seed, samples)
    types = tuple(_jordan_types(np.stack([sample_nilpotent_commutant(P, field, s).matrix
                                          for s in seeds]), field.p))
    best = None
    for t in types:
        if all(dominance_leq(other, t) for other in types):
            best = t
            break
    if best is None:
        raise IncomparableSamples(
            f"no dominance maximum among sampled types {[str(t) for t in types]} (seed {seed})"
        )
    agree = sum(1 for t in types if t == best)
    return GenericTypeEstimate(best, types, seeds, field.p, agree)


@dataclass(frozen=True)
class OrderCheckReport:
    """Comparison of the poset order against the sampled matrix action.

    ``hard_mismatches`` are ordered pairs where strict comparability and
    the existence of a free coefficient disagree (a structural failure);
    ``never_nonzero`` are comparable pairs whose coefficient exists but
    happened to vanish in every sample (expected with probability ~1/p
    per sample).
    """

    partition: Partition
    prime: int
    seeds: tuple[int, ...]
    pairs_checked: int
    hard_mismatches: tuple[tuple[Vertex, Vertex, str], ...]
    never_nonzero: tuple[tuple[Vertex, Vertex], ...]

    @property
    def ok(self) -> bool:
        return not self.hard_mismatches


def order_criterion_check(P: Partition, field: PrimeField, samples: int, seed: int) -> OrderCheckReport:
    """Check that strict poset order matches reachability under the action.

    Restricted to ordered pairs v != w; the reflexive case is excluded.
    Desk-scale only (n <= 8).
    """
    seeds = _seeds(seed, samples)
    if P.n > 8:
        raise PosetTooLarge(f"order check is exhaustive over pairs; n={P.n} > 8")
    D = build_poset(P)
    structural = structural_action_pairs(P)
    mats = [sample_nilpotent_commutant(P, field, s).matrix for s in seeds]

    hard: list[tuple[Vertex, Vertex, str]] = []
    soft: list[tuple[Vertex, Vertex]] = []
    checked = 0
    for v in D.vertices:
        for w in D.vertices:
            if v == w:
                continue
            checked += 1
            ordered = D.less(v, w)
            has_coeff = (v, w) in structural
            if ordered != has_coeff:
                kind = "order-without-coefficient" if ordered else "coefficient-without-order"
                hard.append((v, w, kind))
                continue
            if ordered and not any(m[D.index[w], D.index[v]] for m in mats):
                soft.append((v, w))
    return OrderCheckReport(P, field.p, seeds, checked, tuple(hard), tuple(soft))

