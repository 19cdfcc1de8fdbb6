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
order of 1/p per minor, so the dominance join of a handful of sampled
types recovers the generic type with overwhelming probability.  Every
sampled type lies below the generic one, so at any prime their join is a
lower bound on it.

A sample's Jordan type is read from the ranks of its powers, which come
from one block-Krylov elimination instead of from the powers themselves:
the unit vectors that complement im A, its own Krylov block V, are read
off the pivots of one elimination of A^T, and the stack
[A^(m-1) V | ... | A V | V] (A^m V = 0) is reduced once; the pivots
among the blocks of power >= j count rank(A^j) (Keller-Gehrig, TCS 36,
1985).  For a nilpotent A these vectors always generate the whole space,
so the stack has rank n; a stack short of rank n means A is not
nilpotent.  Samples are profiled in batches, each with its own V padded
with zero columns to the widest of the batch, which changes no rank.  A
batch holds the samples of consecutive partitions of one order
(``generic_jordan_types``: one sweep level, or one partition for
``generic_jordan_type``), up to a fixed count of matrices and of
entries, so that the per-column loop runs once for many small matrices
and the memory held stays bounded for large ones.  Every partition of a
call is sampled from the same seeds, and each seed's stream is seeded
once, extended as far as asked and read by prefix.  One exact
elimination kernel, ``_pivots``, gives every rank: it eliminates a batch
of matrices forward, one pivot search per column for the whole batch,
and returns each matrix's pivot columns, which are all that the profile
reads.  A matrix wider than a panel is eliminated a panel of columns at
a time, and each panel's transformation reaches the columns right of it
as one product.  This is the FFLAS/FFPACK approach (Dumas, Giorgi and
Pernet, ACM TOMS 35, 2008): word-size residues, products in float64
through BLAS, and an exact reduction mod p after each product.

Entries are int64 residues in [0, p), and every elimination update, a
product of two residues, is exact in int64.  That is the layer's one
numeric rule, stated by ``PrimeField`` for sampling and for
``jordan_type_from_ranks`` alike: a prime p with (p-1)^2 < 2^63, handed
to every kernel as a Python int.  Every longer product, the Krylov
blocks A^i V (inner dimension n) and a wide elimination's panel updates,
is formed by ``_matmul``, in float64, which is exact while no sum passes
2^53: a factor is split into as many limbs as that bound asks for, so
every accepted modulus stays exact at every order.

The coefficients are defined by the package, not by numpy: ``_Stream``
states PCG64 with SeedSequence seeding and Lemire's bounded draws, which
are the draws of ``numpy.random.default_rng(seed).integers(0, p, size=N)``
bit for bit.  numpy's ``Generator`` is only the tests' oracle of that
stream, so a sample does not depend on the installed numpy version.

numpy is imported by the functions that use it, so only sampling or a
rank profile loads it, and no function loads ``numpy.random``.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import reduce

from .errors import (
    CheckFailed,
    CommutationCheckFailed,
    EmptyPartition,
    Int64BoundExceeded,
    InvalidParameter,
    NotNilpotent,
    PosetTooLarge,
    is_integer,
)
from .partitions import Partition, checked_partition, conjugate, dominance_join
from .poset import Vertex, build_poset, vertex_list

DEFAULT_PRIME = 1_000_003
INT64_LIMIT = 1 << 63
FLOAT64_EXACT = 1 << 53  # every integer up to it is a float64


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
    """A prime modulus; arithmetic is field arithmetic mod p.

    The one modulus rule of the sampler and of ``jordan_type_from_ranks``,
    checked in this order: p is an integer (numpy integers pass and are
    stored as a Python int, a bool does not); the product of two residues,
    the elimination's update, is exact in int64, (p-1)^2 < 2^63, or
    ``Int64BoundExceeded`` is raised; and p is prime.  The largest such
    prime is 3,037,000,493.  No order is refused: ``_matmul`` keeps every
    longer product exact.
    """

    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if not is_integer(self.p):
            raise InvalidParameter(f"modulus {self.p!r} is not an integer")
        object.__setattr__(self, "p", int(self.p))
        if (self.p - 1) ** 2 >= INT64_LIMIT:
            raise Int64BoundExceeded(f"modulus {self.p}: a product of two residues, up to (p-1)^2, "
                                     "is exact in int64 only while (p-1)^2 < 2^63")
        if not _is_prime(self.p):
            raise InvalidParameter(f"{self.p} is not prime")


def _matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p as int64 residues, for factors (or stacks of factors)
    of residues in [0, p); A may be int64 or float64, B is int64.

    The product runs in float64, through BLAS.  A dot product of length
    ``inner`` whose right factor is at most b has only nonnegative integer
    partial sums, of at most inner*(p-1)*b, so it is exact while that is
    at most 2^53.  Past inner*(p-1)^2 <= 2^53, B is split into the limbs
    of its entries in base 2^bits, with bits the largest for which
    b = 2^bits - 1 keeps the bound; the limbs are multiplied side by side
    in one product, and the exact sums are reduced mod p in int64 and
    recombined.  The default prime takes one limb up to inner dimension
    9,007.

    p is a ``PrimeField`` modulus, so p - 1 < 2^31.5, and the one
    precondition is inner*(p-1) <= 2^53, which a one-bit limb needs.
    Every caller meets it: a panel product has inner dimension at most
    ``PANEL_COLUMNS``, and a Krylov product has inner dimension n, which
    would have to pass 2.9 million, an n x n matrix that cannot be
    allocated.
    """
    import numpy as np
    inner = A.shape[-1]
    limbs, width = 1, B.shape[-1]
    if inner * (p - 1) ** 2 > FLOAT64_EXACT:
        bits = (FLOAT64_EXACT // (inner * (p - 1)) + 1).bit_length() - 1
        limbs = -(-(p - 1).bit_length() // bits)
        B = np.concatenate([B >> (bits * i) & (1 << bits) - 1 for i in range(limbs)], axis=-1)
    C = (A.astype(np.float64, copy=False) @ B.astype(np.float64)).astype(np.int64)
    C %= p
    product = C[..., :width]
    for i in range(1, limbs):
        product = (product + C[..., i * width:(i + 1) * width] * pow(2, bits * i, p) % p) % p
    return product


def _sample_stack(P: Partition, field: PrimeField, seeds: tuple[int, ...],
                  streams: dict[int, _Stream]) -> np.ndarray:
    """P's samples for ``seeds``, as one (len(seeds), n, n) stack.

    Sample s takes its coefficients from the stream of seed ``seeds[s]``,
    read from the caller's table of streams (see ``_draws``; an empty table
    seeds every stream afresh).
    Commutation with the Jordan matrix (``_commutes_with_jordan``) and
    nilpotency (``_check_key_triangular``) are checked once on the stack,
    in O(n^2) per sample, and a failure names the seed of the sample that
    fails.
    """
    import numpy as np
    n = P.n
    layout = _sample_layout(P)
    draws = _draws(streams, seeds, layout.count, field.p)
    A = np.zeros((len(seeds), n, n), dtype=np.int64)
    A[:, layout.targets, layout.sources] = draws[:, layout.entry_coefficient]
    commutes = _commutes_with_jordan(layout, A)
    if not commutes.all():
        raise CommutationCheckFailed(f"sampled matrix does not commute for {P} "
                                     f"(seed {seeds[commutes.argmin()]})")
    _check_key_triangular(layout, A, seeds)
    return A


# The constants of numpy's SeedSequence (its hashmix and mix) and PCG64's
# 128-bit default multiplier.
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(constant: int, multiplier: int) -> Callable[[int], int]:
    """SeedSequence's hashmix, whose hash constant runs on from call to call:
    each call hashes one 32-bit word."""
    def hashmix(value: int) -> int:
        nonlocal constant
        value ^= constant
        constant = constant * multiplier & _MASK32
        value = value * constant & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of two 32-bit words."""
    mixed = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return mixed ^ mixed >> 16


class _Stream:
    """The coefficient stream of one seed over the field with p elements:
    ``take(N)`` is ``numpy.random.default_rng(seed).integers(0, p, size=N)``
    bit for bit, as an int64 array, for every N.

    Seeding follows ``SeedSequence(seed)``: the seed's 32-bit words,
    little-endian (0 is one word), are hashed into a pool of four words and
    mixed, any words past the fourth are mixed in after, and
    ``generate_state(4, uint64)`` hashes the pool out to four 64-bit words
    of two 32-bit words each, low first.  They seed PCG64 (O'Neill,
    HMC-CS-2014-0905, 2014), a 128-bit LCG with the default multiplier:
    the first two are the initial state and the last two the sequence, set
    up as ``pcg_setseq_128_srandom_r`` sets them.  Each step outputs the
    XSL-RR of the new state, 64 bits that give two 32-bit words, low half
    first.  A word w gives the draw w*p >> 32 unless the low 32 bits of
    w*p fall below 2^32 mod p, when it is rejected (Lemire, ACM TOMACS 29,
    2019).

    numpy bounds a draw by this 32-bit method whenever p - 1 < 2^32 - 1,
    and ``PrimeField`` admits no other modulus: (p-1)^2 < 2^63 gives
    p - 1 < 2^31.5.  numpy's other paths, for p - 1 = 2^32 - 1 and for
    p - 1 >= 2^32, are never needed.  The stream draws whole steps, so it
    may hold one draw past N, and it resumes from the saved state with no
    pending word.
    """

    def __init__(self, seed: int, p: int):
        import numpy as np
        words = [seed >> 32 * i & _MASK32 for i in range(max(1, -(-seed.bit_length() // 32)))]
        hashmix = _hashmix(_INIT_A, _MULT_A)
        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for source in range(4):
            for target in range(4):
                if source != target:
                    pool[target] = _mix(pool[target], hashmix(pool[source]))
        for word in words[4:]:
            for target in range(4):
                pool[target] = _mix(pool[target], hashmix(word))
        hashmix = _hashmix(_INIT_B, _MULT_B)
        seeded = [hashmix(pool[i % 4]) | hashmix(pool[(i + 1) % 4]) << 32 for i in range(0, 8, 2)]
        self._increment = ((seeded[2] << 64 | seeded[3]) << 1 | 1) & _MASK128
        self._state = ((self._increment + (seeded[0] << 64 | seeded[1])) * _PCG_MULTIPLIER
                       + self._increment) & _MASK128
        self.p, self.draws = p, np.zeros(0, dtype=np.int64)

    def take(self, count: int) -> np.ndarray:
        """The stream's first ``count`` draws, drawing on from the saved
        state as far as they need."""
        import numpy as np
        drawn, p, increment, state = [], self.p, self._increment, self._state
        append, rejected_below, missing = drawn.append, (1 << 32) % p, count - len(self.draws)
        while len(drawn) < missing:
            for _ in range((missing - len(drawn) + 1) // 2):  # a step gives at most two draws
                state = (state * _PCG_MULTIPLIER + increment) & _MASK128
                rotation, word = state >> 122, ((state >> 64) ^ state) & _MASK64
                word = (word >> rotation | word << (64 - rotation)) & _MASK64
                scaled = (word & _MASK32) * p
                if scaled & _MASK32 >= rejected_below:
                    append(scaled >> 32)
                scaled = (word >> 32) * p
                if scaled & _MASK32 >= rejected_below:
                    append(scaled >> 32)
        if drawn:
            self.draws = np.concatenate([self.draws, np.array(drawn, dtype=np.int64)])
            self._state = state
        return self.draws[:count]


def _draws(streams: dict[int, _Stream], seeds: tuple[int, ...], count: int, p: int) -> np.ndarray:
    """The first ``count`` draws of each seed's stream (``_Stream``), as an
    int64 array of shape (len(seeds), count), empty for a layout with no
    coefficients.

    ``streams`` is a table local to one call that keeps each seed's stream,
    seeded once and extended from its saved state when a longer prefix is
    asked for, so every prefix is the stream a sample of ``count``
    coefficients draws alone.
    """
    import numpy as np
    for s in seeds:
        if s not in streams:
            streams[s] = _Stream(s, p)
    return np.stack([streams[s].take(count) for s in seeds])


def _seeds(field: PrimeField, seed: int, samples: int) -> tuple[int, ...]:
    """The consecutive seeds of ``samples`` samples from ``seed`` on, as
    Python integers, so that no numpy integer wraps past 2^63 - 1, once the
    sampling parameters are checked: the field is a ``PrimeField`` (a bare
    modulus is refused, not read as one), and the counts are integers."""
    if not isinstance(field, PrimeField):
        raise InvalidParameter(f"the field must be a PrimeField, not {field!r}")
    if not is_integer(samples) or samples < 1:
        raise InvalidParameter(f"need at least one sample, counted by an integer: {samples!r}")
    if not is_integer(seed) or seed < 0:
        raise InvalidParameter(f"seed {seed} is negative or not an integer; seeds must be integers >= 0")
    return tuple(int(seed) + i for i in range(samples))


@dataclass(frozen=True)
class _SampleLayout:
    """The basis and the free coefficients of one partition's samples.

    ``_sample_layout`` builds one afresh for each stack of samples and
    each order check, and no call shares it with another.  Basis index i
    is ``vertices[i]``, taken from ``vertex_list``.  Coefficient c is the
    c-th draw.  Matrix entry (targets[e], sources[e]) holds coefficient
    entry_coefficient[e], and no entry is listed twice, so an entry can
    be nonzero exactly when it is listed.  For the two
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


def _segment_arange(lengths: np.ndarray) -> np.ndarray:
    """0, 1, ..., lengths[0] - 1, then 0, ..., lengths[1] - 1, and so on."""
    import numpy as np
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) - np.repeat(ends - lengths, lengths)


def _sample_layout(P: Partition) -> _SampleLayout:
    """The coefficient layout of P's samples, built once per stack of
    samples (a partition whose samples span batches builds it per batch).

    A coefficient couples a source row (p, k) to a target row (p2, k2) at a
    shift j in [max(1, p2 - p + 1), p2], except at j = 1 from a row of
    equal length that is not lower (k >= k2).  Shift j carries basis index
    u of the source row to u + j - 1 of the target row, for the p2 - j + 1
    values of u that stay in it.  Coefficients are numbered by source row,
    then target row (rows in the basis order), then shift ascending: the
    order in which a sample draws them.
    """
    import numpy as np
    vertices = tuple(vertex_list(P))
    u, p, k = np.array(vertices, dtype=np.int64).reshape(-1, 3).T
    first, last = u == 1, u == p
    start = first.nonzero()[0]
    # Row pairs, the source row outer; then each pair's shifts; then each
    # shift's band of entries, which all carry that (pair, shift)'s coefficient.
    src, dst = np.repeat(start, len(start)), np.tile(start, len(start))
    lowest = np.maximum(1, p[dst] - p[src] + 1) + ((p[src] == p[dst]) & (k[src] >= k[dst]))
    shifts = p[dst] - lowest + 1
    pair = np.repeat(np.arange(len(shifts)), shifts)
    shift = lowest[pair] + _segment_arange(shifts)
    band = p[dst[pair]] - shift + 1
    entry_coefficient = np.repeat(np.arange(len(shift)), band)
    offset = _segment_arange(band)
    targets = (dst[pair] + shift - 1)[entry_coefficient] + offset
    sources = src[pair][entry_coefficient] + offset
    position = np.empty(len(vertices), dtype=np.int64)
    position[np.lexsort((k, p, 2 * u - p))] = np.arange(len(vertices))
    return _SampleLayout(vertices, len(shift), targets, sources, entry_coefficient, first, last, position)


def _commutes_with_jordan(layout: _SampleLayout, A: np.ndarray) -> np.ndarray:
    """Whether A commutes with the Jordan matrix B of the layout's rows, in
    O(n^2) and without forming a product; for a stack A of shape
    (..., n, n), whether each of its matrices does.

    B[i+1, i] = 1 exactly when i and i+1 lie in one row, so (A B)[:, i]
    is A[:, i+1] for i not last in its row and zero otherwise, and
    (B A)[i, :] is A[i-1, :] for i not first in its row and zero
    otherwise: a column shift and a row shift of A inside the rows.
    """
    import numpy as np
    AB = np.zeros_like(A)
    AB[..., :-1] = A[..., 1:]
    AB[..., layout.last] = 0
    BA = np.zeros_like(A)
    BA[..., 1:, :] = A[..., :-1, :]
    BA[..., layout.first, :] = 0
    return (AB == BA).all(axis=(-2, -1))


def _check_key_triangular(layout: _SampleLayout, A: np.ndarray, seeds: tuple[int, ...]) -> None:
    """Certify that each sample of the stack A, shape (len(seeds), n, n),
    is nilpotent: strictly lower triangular once rows and columns are
    ordered by the key (2u - p, p, k) of their basis triples.  The error
    names the seed of the sample that fails.

    The key strictly increases along every sampled coefficient.  Shift j
    carries (u, p, k) to (u + j - 1, p2, k2) with j >= max(1, p2 - p + 1),
    so 2u - p changes by 2(j - 1) - (p2 - p).  If p2 >= p this is at least
    2(p2 - p) - (p2 - p) >= 0; if p2 < p it is at least p - p2 > 0.
    Equality forces p2 = p and j = 1, where the triangular constraint
    samples only k < k2, so the key still increases.  A strictly triangular
    matrix is nilpotent; the check costs O(n^2) instead of forming powers.
    """
    position = layout.position
    sample, targets, sources = A.nonzero()
    bad = (position[targets] <= position[sources]).nonzero()[0]
    if bad.size:
        dst, src = targets[bad[0]], sources[bad[0]]
        raise NotNilpotent(f"sampled matrix (seed {seeds[sample[bad[0]]]}) moves "
                           f"{layout.vertices[src]} (basis index {src}) "
                           f"to {layout.vertices[dst]} (basis index {dst}), against the key "
                           "order (2u - p, p, k): nilpotency is not certified")


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

    The columns are taken ``PANEL_COLUMNS`` at a time, at every modulus,
    and a panel that is not the last one updates only its own columns.  Its
    pivot rows are normalised, q[c] = 1 by the inverse pow(q[c], p-2, p),
    so that each row ends as r + sum_k g[r, k] Q_k, where Q_k is the panel's
    k-th pivot row of the matrix as it entered the panel.  The coefficients
    g ride along as tag columns, which the same update keeps: the pivot
    row's copy carries a 1 in its own tag column, and the pivot row itself
    ends with tag -1 there, which zeroes it right of the panel too.  The
    update r - r[c]*q reads r[c] and q reduced and leaves r unreduced: an
    entry falls by at most (p-1)^2 per column, so the panel is reduced
    before every ``period`` = (2^63 - 1) // (p-1)^2 columns, which keeps it
    above -2^63 (delayed reduction, as in FFLAS; at the default prime the
    period is 9.2 million columns, so a panel is never reduced before its
    end).  The columns right of the panel then take the whole
    transformation as one product.  A matrix no wider than a panel is
    eliminated by the loop alone.
    """
    import numpy as np
    S, rows, cols = R.shape
    R = R.reshape(S * rows, cols)
    offsets = np.arange(S) * rows
    pivots: list[list[int]] = [[] for _ in range(S)]
    left = S * rows  # rows not yet used as pivots
    period = (INT64_LIMIT - 1) // (p - 1) ** 2
    for start in range(0, cols, PANEL_COLUMNS):
        stop = min(start + PANEL_COLUMNS, cols)
        panel, tagging = stop - start, stop < cols
        W, end = R[:, start:], cols - start
        if tagging:  # tag columns follow the panel's own
            W, end = np.concatenate([R[:, start:stop], np.zeros((S * rows, min(panel, rows)), np.int64)],
                                    axis=1), panel
            before = [len(piv) for piv in pivots]
            tagged: list[tuple[int, int, int]] = []  # (matrix, tag, row) of each pivot row
        for c in range(panel):
            if not left:
                break
            if tagging and c and c % period == 0:
                W[:, c:end] %= p
            column = W[:, c] % p if tagging else W[:, c]
            grid = (column != 0).reshape(S, rows)
            hits = grid.ravel().nonzero()[0]
            if not hits.size:
                continue
            # A matrix with no row nonzero here gets a zero row, which no hit reads.
            first = grid.argmax(1) + offsets
            leads = column[first].tolist()
            live = [s for s, lead in enumerate(leads) if lead]
            if tagging:
                tags = [len(pivots[s]) - before[s] for s in live]
                end = max(end, panel + max(tags) + 1)
                tagged += zip(live, tags, first[live].tolist())
            prow = W[first, c:end]
            block = W[hits, c:end]
            if tagging:
                prow[live, [panel - c + k for k in tags]] = 1
                prow = prow % p * np.array([[pow(lead, p - 2, p)] for lead in leads]) % p
                W[hits, c:end] = block - column[hits, None] * prow[hits // rows]
            else:
                q = prow[hits // rows]
                W[hits, c:end] = (block * q[:, :1] - block[:, :1] * q) % p
            for s in live:
                pivots[s].append(start + c)
            left -= len(live)
        if tagging and tagged:
            matrix, tag, row = map(list, zip(*tagged))
            top = np.zeros((S, end - panel, cols - stop), np.int64)  # the pivot rows Q_k
            top[matrix, tag] = R[row, stop:]
            g = W[:, panel:end].reshape(S, rows, end - panel) % p
            R[:, stop:] += _matmul(g, top, p).reshape(S * rows, cols - stop)
            R[:, stop:] %= p
    return pivots


# Columns per panel of ``_pivots``.  A matrix no wider than a panel is
# eliminated by the per-column loop alone, as every batch of the sweeps to
# n = 28 is (at most 112 columns), and so are the order-136 samples of
# staircase 16, whose Krylov stack is 136 x 248.  The two eliminations of one
# staircase sample took, at n = 496, 0.12, 0.12, 0.14, 0.15 and 0.24 s in
# panels of 128, 192, 256 and 384 columns and in one panel; at n = 990,
# 0.64, 0.62, 0.64, 0.77 and 2.07 s; two samples of staircase 16 took
# 0.015 s in panels of 64, 128 or 256.  (Medians of interleaved runs in one
# process, one BLAS thread, on a 2-vCPU x86-64 host.)
PANEL_COLUMNS = 256


def _residues(M: np.ndarray, field: PrimeField) -> np.ndarray:
    """The entries of M mod ``field.p`` in a new int64 array, after the
    entry check: M must hold integers, its dtype bool, signed or unsigned
    integer, or object with every entry an integer, of any width.
    """
    import numpy as np
    kind = M.dtype.kind
    # A bool entry is an integer here: a 0/1 matrix is a matrix.
    if kind not in "biuO" or kind == "O" and not all(isinstance(x, (int, np.integer)) for x in M.flat):
        raise InvalidParameter(f"entries must be integers, not of dtype {M.dtype}")
    if kind == "O":  # as Python ints, since a narrow numpy integer cannot hold p
        M = np.frompyfunc(int, 1, 1)(M)
    elif M.itemsize < 8:  # nor can a narrow integer type
        M = M.astype(np.int64)
    return (M % field.p).astype(np.int64, copy=False)


def jordan_type_from_ranks(A: np.ndarray, p: int) -> Partition:
    """Jordan partition of a nilpotent matrix from its power-rank profile.

    rank(A^(k-1)) - rank(A^k) blocks have size >= k; the conjugate of
    these counts is the type.  ``_jordan_types`` computes it for a batch of
    matrices; this is a batch of one.

    No power of A is formed; one elimination gives every rank.  The pivots
    of A^T are a maximal independent set J of rows of A, so projecting
    im A onto the coordinates J is injective and the unit vectors e_j,
    j not in J, complement im A: they are the columns of A's Krylov block
    V.  Form A V, A^2 V, ... until A^m V = 0, and reduce the stack
    [A^(m-1) V | ... | A V | V] once.  Its pivot columns are the leftmost
    independent ones, so the pivots among the blocks of power >= j number
    dim span{A^i V : i >= j}.

    Certificate: W = span{A^i V} is A-invariant and V + im A = F^n, so
    F^n = W + A^k F^n for every k; for a nilpotent A this gives W = F^n.
    Then im A^j = A^j W = span{A^i V : i >= j} and the count above is
    rank(A^j).  In a batch, each matrix has its own V, padded with zero
    columns to the widest V of the batch, and the batch runs to the
    largest m.  Zero columns stay zero in every block and take no pivot,
    and a matrix whose powers vanish before the m-th has zero blocks on
    the left, so its drops are read up to the first zero rank.  A stack
    short of rank n (a full-rank A gives an empty one), powers of V that
    have not vanished after n steps, or drops that are no partition mean
    A is not nilpotent.
    """
    import numpy as np
    try:
        A = np.asarray(A)
    except ValueError as exc:  # a ragged list
        raise InvalidParameter(f"the rank profile needs a matrix: {exc}") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidParameter(f"the rank profile needs a square matrix, not shape {A.shape}")
    field = PrimeField(p)
    found = _jordan_types(_residues(A[None], field), field.p)[0]
    if isinstance(found, NotNilpotent):
        raise found
    return found


def _jordan_types(As: np.ndarray, p: int) -> list[Partition | NotNilpotent]:
    """Jordan partitions of a batch of n x n matrices of residues mod p,
    shape (S, n, n), by the profile that ``jordan_type_from_ranks``
    describes.  A matrix found not nilpotent gets a ``NotNilpotent`` in
    place of its type, and the other matrices of the batch keep theirs."""
    import numpy as np
    S, n, _ = As.shape
    outside = np.ones((S, n), dtype=bool)  # the rows of each A outside J
    transposes = As.transpose(0, 2, 1).copy()
    for s, rows in enumerate(_pivots(transposes, p)):
        outside[s, rows] = False
    # The eliminated transposes are spent: their buffer takes the float64
    # batch that every Krylov product reads, so no second copy is held.
    floats = transposes.view(np.float64)
    floats[...] = As
    width = int(outside.sum(axis=1).max(initial=0))
    V = np.zeros((S, n, width), dtype=np.int64)
    s, j = outside.nonzero()
    V[s, j, outside.cumsum(axis=1)[s, j] - 1] = 1
    powers = [V]
    while len(powers) <= n and powers[-1].any():
        powers.append(_matmul(floats, powers[-1], p))
    del transposes, floats  # not held through the stack's elimination
    m = len(powers) - 1
    vanished = ~powers.pop().any(axis=(1, 2))  # A^m V = 0 for each nilpotent A
    # Fill the stack block by block and drop each power once it is copied,
    # so that no power is held twice; the elimination then overwrites it.
    stack = np.empty((S, n, m * width), dtype=np.int64)
    for i in range(m):
        stack[:, :, i * width:(i + 1) * width] = powers.pop()
    types: list[Partition | NotNilpotent] = []
    read: dict[tuple[int, ...], Partition | NotNilpotent] = {}  # samples of one partition share their pivots
    for piv, nilpotent in zip(_pivots(stack, p), vanished):
        if not nilpotent:
            types.append(NotNilpotent(f"matrix of size {n} has no vanishing power"))
        elif len(piv) < n:
            types.append(NotNilpotent(f"the Krylov stack of a matrix of size {n} has rank "
                                      f"{len(piv)}, so the matrix is not nilpotent"))
        else:
            if (key := tuple(piv)) not in read:
                ranks = [bisect_left(piv, (m - j) * width) for j in range(m + 1)]
                drops = [ranks[k - 1] - ranks[k] for k in range(1, ranks.index(0) + 1)]
                what = f"ranks {ranks} are not those of a nilpotent matrix: their drops"
                try:
                    read[key] = conjugate(checked_partition(drops, NotNilpotent, what))
                except NotNilpotent as exc:
                    read[key] = exc
            types.append(read[key])
    return types


# A profile batch holds at most BATCH_MATRICES matrices of order n and at
# most BATCH_ELEMENTS entries of them, but always one matrix.  ``_pivots``
# runs one Python loop step per column for the whole batch, so small
# orders gain from many matrices per batch, until the padding of the
# widest V and the largest index costs more than the loop steps saved.
# The samples of the n=14 level (675 samples, 5 per partition) took
# 0.19 s in batches of 5 matrices, 0.081 s of 30, 0.069 s of 60, 0.063 s
# of 125 and 0.076 s in one batch, with 0.13, 0.43, 0.84, 1.7 and 9.0 MiB
# peak under tracemalloc; at n = 20, 0.90, 0.42, 0.35, 0.33 and 0.35 s for
# 5, 30, 60, 125 and 1,000, with 0.4 to 11 MiB.  (Medians of interleaved
# runs in one process, one BLAS thread, on a 2-vCPU x86-64 host.)  64
# matrices pass 2^17 entries from n = 46 on, where the entry bound takes
# over: it keeps up to 7 samples of order 136 in one batch (two samples at
# n = 96 and 136 ran about a third slower split in two, with the former
# int64 products) and gives each sample of order 496 a batch of its own
# (5 samples of staircase 31 peak at 16.6 MiB under tracemalloc one at a
# time, and at 57 MiB four to a batch).
BATCH_MATRICES = 64
BATCH_ELEMENTS = 1 << 17


def _batch_size(n: int) -> int:
    """How many matrices of order n one profile batch holds."""
    return max(1, min(BATCH_MATRICES, BATCH_ELEMENTS // (n * n)))


@dataclass(frozen=True)
class GenericTypeEstimate:
    """The dominance join ``q`` of several sampled Jordan types, with the
    samples' ``types`` and ``seeds``.  ``agree_count`` samples have type
    ``q``: 0 where no sampled type dominates all the others."""

    q: Partition
    types: tuple[Partition, ...]
    seeds: tuple[int, ...]
    prime: int
    agree_count: int


def _estimate(types: list[Partition | NotNilpotent], seeds: tuple[int, ...], p: int) -> GenericTypeEstimate:
    """The dominance join of one partition's sampled types.

    The generic type dominates every special one, so it dominates their
    join, the least type that dominates them all: where one sampled type
    dominates the others, the join is that type.  A sample found not
    nilpotent is refused by its seed.
    """
    for t, s in zip(types, seeds):
        if isinstance(t, NotNilpotent):
            raise NotNilpotent(f"{t} (seed {s})")
    q = reduce(dominance_join, dict.fromkeys(types))  # samples mostly agree: join each type once
    return GenericTypeEstimate(q, tuple(types), seeds, p, types.count(q))


def generic_jordan_type(P: Partition, field: PrimeField, samples: int, seed: int) -> GenericTypeEstimate:
    """Estimate the generic Jordan type of the sampled family, as the
    dominance join of ``samples`` sampled types (see ``_estimate``).

    This is ``generic_jordan_types`` for P alone: the samples are drawn
    and profiled ``_batch_size(P.n)`` at a time, so that the memory held
    stays bounded however many samples are asked for, and a failed check
    raises its ``CheckFailed``.
    """
    [(_, estimate)] = generic_jordan_types([P], field, samples, seed)
    if isinstance(estimate, CheckFailed):
        raise estimate
    return estimate


def _batches(partitions: Iterable[Partition], samples: int) -> Iterator[list[tuple[int, Partition, slice]]]:
    """The samples of ``partitions``, ``samples`` each, in batches of at
    most ``_batch_size(n)`` matrices of one order n, as (position,
    partition, seed slice) pieces.

    A batch is filled with whole consecutive partitions of one order; a
    partition is cut into pieces only when its samples alone exceed a batch.
    """
    batch: list[tuple[int, Partition, slice]] = []
    filled = 0
    for i, P in enumerate(partitions):
        if not P:
            raise EmptyPartition("a generic type needs a nonempty partition")
        size = _batch_size(P.n)
        for start in range(0, samples, size):
            piece = slice(start, min(start + size, samples))
            if batch and (P.n != batch[0][1].n or filled + piece.stop - start > size):
                yield batch
                batch, filled = [], 0
            batch.append((i, P, piece))
            filled += piece.stop - start
    if batch:
        yield batch


def generic_jordan_types(partitions: Iterable[Partition], field: PrimeField, samples: int,
                         seed: int) -> Iterator[tuple[Partition, GenericTypeEstimate | CheckFailed]]:
    """The estimated generic Jordan type of each partition, in order
    (see ``_estimate``), with the samples of consecutive partitions of one
    order n profiled in shared batches of ``_batch_size(n)`` matrices.

    Each partition is yielded with its estimate once the batch that holds
    its last samples is profiled, so no more than one batch of samples is
    held at a time.  Every partition is sampled from the same seeds, each
    seed's stream extended from its saved state and read by prefix
    (``_draws``), and a Jordan type does not depend on the batch, so the
    estimate does not depend on the partition's neighbours.  The streams
    are dropped once they hold more draws than a batch holds entries, so
    that they stay bounded too.
    A partition whose check fails is yielded with the ``CheckFailed`` it
    raised in place of its estimate, and the other partitions of its batch
    keep theirs.  A refused parameter raises when the first partition is
    asked for, and an empty partition, ``EmptyPartition``, when it is
    reached.
    """
    import numpy as np
    seeds = _seeds(field, seed, samples)
    found: dict[int, list[Partition | NotNilpotent] | CheckFailed] = {}
    streams: dict[int, _Stream] = {}  # see _draws
    for batch in _batches(partitions, len(seeds)):
        stacks, owners = [], []
        for i, P, piece in batch:
            if isinstance(found.setdefault(i, []), CheckFailed):
                continue
            try:
                stacks.append(_sample_stack(P, field, seeds[piece], streams))
            except CheckFailed as exc:
                found[i] = exc
                continue
            owners += [i] * len(stacks[-1])
        if stacks:
            As = np.concatenate(stacks)
            stacks.clear()  # so that the batch is held once while it is profiled
            for i, t in zip(owners, _jordan_types(As, field.p)):
                found[i].append(t)
        if sum(len(stream.draws) for stream in streams.values()) > BATCH_ELEMENTS:
            streams.clear()
        for i, P, piece in batch:
            if piece.stop == len(seeds):  # P's last samples
                result = found.pop(i)
                if not isinstance(result, CheckFailed):
                    try:
                        result = _estimate(result, seeds, field.p)
                    except CheckFailed as exc:
                        result = exc
                yield P, result


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
    Desk-scale only (n <= 8).  The samples are one ``_sample_stack``, read
    through the layout: entry e moves basis vector sources[e] onto
    targets[e], and the layout's basis order is the only one used.
    """
    seeds = _seeds(field, seed, samples)
    if P.n > 8:
        raise PosetTooLarge(f"order check is exhaustive over pairs; n={P.n} > 8")
    D = build_poset(P)
    layout = _sample_layout(P)
    A = _sample_stack(P, field, seeds, {})
    # (source, target) -> whether some sample moves source onto target
    moved = dict(zip(zip(layout.sources.tolist(), layout.targets.tolist()),
                     A[:, layout.targets, layout.sources].any(axis=0).tolist()))
    hard: list[tuple[Vertex, Vertex, str]] = []
    soft: list[tuple[Vertex, Vertex]] = []
    # A pair v == w needs no skip: neither the order nor the layout holds it.
    for i, v in enumerate(layout.vertices):
        for j, w in enumerate(layout.vertices):
            ordered = D.less(v, w)
            if ordered != ((i, j) in moved):
                hard.append((v, w, "order-without-coefficient" if ordered else "coefficient-without-order"))
            elif ordered and not moved[i, j]:
                soft.append((v, w))
    return OrderCheckReport(P, field.p, seeds, P.n * (P.n - 1), tuple(hard), tuple(soft))

