import tracemalloc
from functools import reduce

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from nilcomm import matrixlab
from nilcomm.cli import run_sweep
from nilcomm.errors import (
    CommutationCheckFailed,
    EmptyPartition,
    Int64BoundExceeded,
    InvalidParameter,
    NotNilpotent,
    PosetTooLarge,
)
from nilcomm.matrixlab import (
    PrimeField,
    generic_jordan_type,
    generic_jordan_types,
    jordan_type_from_ranks,
    order_criterion_check,
)
from nilcomm.partitions import Partition, all_partitions, conjugate, dominance_join, dominance_leq, from_parts
from nilcomm.poset import build_poset, vertex_list
from nilcomm.uchains import lambda_u

from strategies import partitions

FIELD = PrimeField()
BIG_PRIME = 268_435_399  # the largest prime below 2^28
LARGEST_PRIME = 3_037_000_493  # the largest prime with (p-1)^2 < 2^63
SEEDS = st.integers(0, 2**32 - 1)


def jordan_matrix(P):
    """Block-diagonal nilpotent matrix stepping u -> u+1 within each row."""
    index = {v: i for i, v in enumerate(vertex_list(P))}
    B = np.zeros((P.n, P.n), dtype=np.int64)
    for (u, p, k), i in index.items():
        if u < p:
            B[index[u + 1, p, k], i] = 1
    return B


def structural_action_pairs(P):
    """Ordered pairs (v, w) where some sampled matrix can move v onto w.

    Every matrix entry is carried by a single free coefficient, so the
    pairs are exactly the layout's (source, target) entries.
    """
    layout = matrixlab._sample_layout(P)
    vertices = layout.vertices
    return frozenset((vertices[src], vertices[dst])
                     for src, dst in zip(layout.sources.tolist(), layout.targets.tolist()))


def rank_mod(A, p):
    """Rank over the prime field: the pivot count of the elimination kernel."""
    field = PrimeField(p)
    return len(matrixlab._pivots(matrixlab._residues(np.asarray(A)[None], field), field.p)[0])


def sample(P, field, seed):
    """The sample of one seed, certified: ``_sample_stack``'s batch of one."""
    return matrixlab._sample_stack(P, field, (seed,), {})[0]


def sympy_matrix(A, p):
    K = GF(p)
    return DomainMatrix([[K(int(x)) for x in row] for row in A], A.shape, K).to_sparse()


def reference_sample(P, field, seed):
    """The sampler's per-coefficient loop, one matrix entry at a time."""
    rng = np.random.default_rng(seed)
    A = np.zeros((P.n, P.n), dtype=np.int64)
    rows, start = [], 0
    for p in sorted(set(P.parts)):
        for k in range(1, P.parts.count(p) + 1):
            rows.append((p, k, start))
            start += p
    for p, k, start in rows:
        for p2, k2, start2 in rows:
            for j in range(max(1, p2 - p + 1), p2 + 1):
                if j == 1 and p == p2 and k >= k2:
                    continue
                t = int(rng.integers(0, field.p))
                if t:
                    for u in range(1, p + 1):
                        u2 = u + j - 1
                        if u2 <= p2:
                            A[start2 + u2 - 1, start + u - 1] = t
    return A


def rref_mod(M, p):
    """Gauss-Jordan over GF(p), one row operation at a time: the nonzero
    rows R of the reduced form and its pivot columns."""
    R = np.array(M, dtype=np.int64) % p
    pivots = []
    for c in range(R.shape[1]):
        r = len(pivots)
        nonzero = [i for i in range(r, len(R)) if R[i, c]]
        if not nonzero:
            continue
        R[[r, nonzero[0]]] = R[[nonzero[0], r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, p) % p
        for i in range(len(R)):
            if i != r:
                R[i] = (R[i] - R[i, c] * R[r]) % p
        pivots.append(c)
    return R[:len(pivots)], pivots


def restriction_profile(A, p):
    """The former rank profile: restrict A to its image, level by level.

    The rows of the RREF R of X^T are a basis of im X with R[i, piv_j] =
    [i == j], so X restricted to im X is X[piv] R^T, whose image is im X^2;
    the levels record rank(A), rank(A^2), ... down to 0.
    """
    X = A % p
    ranks = [len(A)]
    while ranks[-1]:
        R, piv = rref_mod(X.T, p)
        if len(piv) == ranks[-1]:
            raise NotNilpotent("full-rank level")
        ranks.append(len(piv))
        X = matrixlab._matmul(X[piv], R.T, p)
    return conjugate(Partition(ranks[k - 1] - ranks[k] for k in range(1, len(ranks))))


def sympy_jordan_type(A, p):
    """Jordan type from sympy ranks of successive powers over GF(p)."""
    M = sympy_matrix(A, p)
    ranks = [len(A)]
    power = M
    while ranks[-1]:
        assert len(ranks) <= len(A)
        ranks.append(power.rank())
        power = power * M
    ranks.append(0)
    # rank(A^(k-1)) - 2 rank(A^k) + rank(A^(k+1)) blocks have size exactly k
    return Partition(k for k in range(1, len(ranks) - 1)
                     for _ in range(ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]))


def conjugated_jordan_matrix(P, p, seed):
    """S J_P S^-1 mod p for a random invertible S = L U (L unit lower,
    U upper triangular with nonzero diagonal)."""
    rng = np.random.default_rng(seed)
    n = P.n
    L = np.tril(rng.integers(0, p, (n, n)), -1) + np.eye(n, dtype=np.int64)
    U = np.triu(rng.integers(0, p, (n, n)), 1) + np.diag(rng.integers(1, p, n))
    S = sympy_matrix((L.astype(object).dot(U.astype(object)) % p).astype(np.int64), p)
    conj = S * sympy_matrix(jordan_matrix(P), p) * S.inv()
    return np.array([[int(x) for x in row] for row in conj.to_Matrix().tolist()],
                    dtype=np.int64) % p


def squaring_is_nilpotent(A, p):
    """The sampler's former certificate: A^(2^ceil(log2 n)) vanishes."""
    power, size = A % p, 1
    while size < len(A):
        power = (power @ power) % p
        size *= 2
    return not power.any()


def test_prime_field_validation():
    assert PrimeField(7).p == 7
    with pytest.raises(ValueError):
        PrimeField(1_000_000)  # even
    with pytest.raises(ValueError):
        PrimeField(91)  # 7 * 13
    with pytest.raises(Int64BoundExceeded):
        PrimeField(3_037_000_507)  # prime, but a product of two residues leaves int64


def test_jordan_matrix_shapes():
    assert not jordan_matrix(from_parts([1, 1, 1])).any()
    B = jordan_matrix(from_parts([6]))
    assert rank_mod(B, FIELD.p) == 5
    B2 = jordan_matrix(from_parts([2, 1]))
    assert rank_mod(B2, FIELD.p) == 1
    assert not ((B2 @ B2) % FIELD.p).any()


def test_jordan_matrix_steps_along_each_row():
    for n in range(1, 11):
        for P in all_partitions(n):
            # one shift block per row, rows by ascending length
            shifts = [np.eye(p, k=-1, dtype=np.int64) for p in sorted(P.parts)]
            B = jordan_matrix(P)
            assert np.array_equal(B, scipy.linalg.block_diag(*shifts)), P
            assert jordan_type_from_ranks(B, FIELD.p) == P


def test_rank_mod_basics():
    A = np.array([[1, 2], [2, 4]], dtype=np.int64)
    assert rank_mod(A, 7) == 1
    assert rank_mod(np.zeros((3, 3), dtype=np.int64), 7) == 0
    assert rank_mod(np.eye(4, dtype=np.int64), 7) == 4


def test_jordan_type_from_ranks():
    assert jordan_type_from_ranks(np.zeros((5, 5), dtype=np.int64), FIELD.p).parts == (1,) * 5
    assert jordan_type_from_ranks(jordan_matrix(from_parts([6])), FIELD.p).parts == (6,)
    P = from_parts([4, 2, 2, 1, 1])
    assert jordan_type_from_ranks(jordan_matrix(P), FIELD.p) == P
    with pytest.raises(NotNilpotent):
        jordan_type_from_ranks(np.eye(3, dtype=np.int64), FIELD.p)


def test_samples_commute_and_are_nilpotent():
    for parts in ([1, 1], [3], [4, 2, 2, 1, 1], [5, 4, 3, 3, 2, 1]):
        P = from_parts(parts)
        B = jordan_matrix(P)
        A = sample(P, FIELD, 11)
        assert np.array_equal((A @ B) % FIELD.p, (B @ A) % FIELD.p)
        power = A % FIELD.p
        for _ in range(P.n):
            power = (power @ A) % FIELD.p
        assert not power.any()


def test_key_order_certificate_agrees_with_squaring():
    for n in range(1, 11):
        for P in all_partitions(n):
            for seed in range(2):
                A = sample(P, FIELD, seed)  # key order certified
                assert squaring_is_nilpotent(A, FIELD.p), (P, seed)


def test_planted_entry_against_key_order_raises():
    P = from_parts([3, 2, 2, 1])
    A = sample(P, FIELD, 0)
    layout = matrixlab._sample_layout(P)
    matrixlab._check_key_triangular(layout, A[None], (0,))
    dst, src = np.argwhere(A)[0]  # a sampled coefficient carries src to dst
    reversed_entry = A.copy()
    reversed_entry[src, dst] = 1
    with pytest.raises(NotNilpotent, match="key order"):
        matrixlab._check_key_triangular(layout, reversed_entry[None], (0,))
    diagonal = A.copy()
    diagonal[src, src] = 1
    assert not squaring_is_nilpotent(diagonal, FIELD.p)
    with pytest.raises(NotNilpotent, match="key order"):
        matrixlab._check_key_triangular(layout, diagonal[None], (0,))


def commutes_by_products(P, A, p):
    """The sampler's former commutation check: both products with the Jordan matrix."""
    B = jordan_matrix(P)
    return np.array_equal(matrixlab._matmul(A, B, p), matrixlab._matmul(B, A, p))


def test_shift_commutation_agrees_with_products():
    for n in range(1, 11):
        for P in all_partitions(n):
            for seed in range(2):
                A = sample(P, FIELD, seed)  # shift check passed
                assert commutes_by_products(P, A, FIELD.p), (P, seed)


def test_shift_commutation_agrees_with_products_on_every_planted_entry():
    broken = 0
    for n in range(1, 7):
        for P in all_partitions(n):
            A = sample(P, FIELD, 1)
            layout = matrixlab._sample_layout(P)
            for i in range(n):
                for j in range(n):
                    planted = A.copy()
                    planted[i, j] = (planted[i, j] + 1) % FIELD.p
                    verdict = matrixlab._commutes_with_jordan(layout, planted)
                    assert verdict == commutes_by_products(P, planted, FIELD.p), (P, i, j)
                    broken += not verdict
    assert broken


def test_planted_off_band_entry_raises(monkeypatch):
    # Basis order: (1,2,1), (2,2,1), then (1,4,1) .. (4,4,1).  Entry [0, 4]
    # would carry (3,4,1) to (1,2,1), down from position 3 to 1, which no
    # shift j >= 1 does.
    P = from_parts([4, 2])
    check = matrixlab._commutes_with_jordan

    def planted(layout, A):
        A[0, 4] = 1
        return check(layout, A)

    monkeypatch.setattr(matrixlab, "_commutes_with_jordan", planted)
    with pytest.raises(CommutationCheckFailed):
        sample(P, FIELD, 0)


def test_two_singletons_couple_one_way():
    # rows (1,1,1) -> (1,1,2) may couple, never the reverse, never the diagonal
    A = sample(from_parts([1, 1]), FIELD, 3)
    assert A[0, 1] == 0 and A[0, 0] == 0 and A[1, 1] == 0
    assert A[1, 0] != 0
    assert generic_jordan_type(from_parts([1, 1]), FIELD, 3, seed=3).q.parts == (2,)


def test_single_block_elements_are_polynomials_in_it():
    for n in range(1, 5):
        P = from_parts([n])
        # entries are constant along subdiagonals and zero on/above the diagonal
        A = sample(P, FIELD, 5)
        for i in range(n):
            for j in range(n):
                if i <= j:
                    assert A[i, j] == 0
                else:
                    assert A[i, j] == A[i - j, 0]
        assert generic_jordan_type(P, FIELD, 3, seed=5).q.parts == (n,)


def test_generic_type_examples():
    assert generic_jordan_type(from_parts([2, 1]), FIELD, 5, 42).q.parts == (3,)
    assert generic_jordan_type(from_parts([3, 3, 2, 2, 2]), FIELD, 5, 42).q.parts == (12,)
    est = generic_jordan_type(from_parts([5, 4, 3, 3, 2, 1]), FIELD, 5, 42)
    assert est.q == lambda_u(from_parts([5, 4, 3, 3, 2, 1]))
    assert est.agree_count == 5
    assert est.seeds == (42, 43, 44, 45, 46)


def test_incomparable_samples_give_their_join(monkeypatch):
    # Neither planted type dominates the other, and no sample reaches their join.
    fake_types = {0: Partition([3, 1, 1, 1]), 1: Partition([2, 2, 2])}
    monkeypatch.setattr(
        matrixlab, "_sample_stack",
        lambda P, field, seeds, streams: np.array(seeds),
    )
    monkeypatch.setattr(
        matrixlab, "_jordan_types",
        lambda matrices, p: [fake_types[matrix % 2] for matrix in matrices],
    )
    est = matrixlab.generic_jordan_type(from_parts([3, 1, 1, 1]), FIELD, 2, seed=0)
    assert est.q == from_parts([3, 2, 1]) and est.agree_count == 0
    assert est.types == (fake_types[0], fake_types[1])


def test_structural_pairs_match_poset_order():
    for n in range(1, 7):
        for P in all_partitions(n):
            report = order_criterion_check(P, FIELD, samples=5, seed=7)
            assert report.ok, (P, report.hard_mismatches[:3])
            assert not report.never_nonzero, (P, report.never_nonzero[:3])
            assert report.pairs_checked == P.n * (P.n - 1)


def test_structural_pairs_are_the_strict_order_to_14():
    # order_criterion_check stops at n <= 8; the support alone is checked further
    checked = 0
    for n in range(1, 15):
        for P in all_partitions(n):
            D = build_poset(P)
            order = {(v, w) for v in D.vertices for w in D.vertices if D.less(v, w)}
            assert structural_action_pairs(P) == order, P
            checked += 1
    assert checked == 507


def test_order_check_guards_size():
    with pytest.raises(PosetTooLarge):
        order_criterion_check(from_parts([9]), FIELD, 1, 0)
    for samples in (0, -1):
        with pytest.raises(InvalidParameter):
            order_criterion_check(from_parts([2, 1]), FIELD, samples, 0)


def predicate_pairs(P):
    """Pairs (v, w) that a commuting matrix can carry, from the shift rule:
    w = (u2, p2, k2) lies at least 0 and at least p2 - p positions right of
    v = (u, p, k), and a shift of 0 within one level only raises the row."""
    verts = vertex_list(P)
    return frozenset(
        (v, w) for v in verts for w in verts
        if w[0] >= v[0] and w[0] - v[0] >= w[1] - v[1]
        and not (v[1] == w[1] and v[0] == w[0] and v[2] >= w[2]))


def test_layout_entries_match_pair_predicate():
    checked = 0
    for n in range(1, 11):
        for P in all_partitions(n):
            layout = matrixlab._sample_layout(P)
            entries = list(zip(layout.sources.tolist(), layout.targets.tolist()))
            assert len(set(entries)) == len(entries), P  # one coefficient per entry
            assert structural_action_pairs(P) == predicate_pairs(P), P
            # the sampler's basis order is the poset's vertex order
            assert build_poset(P).vertices == tuple(vertex_list(P)), P
            checked += 1
    assert checked == 138


def test_negative_seed_is_refused():
    P = from_parts([2, 1])
    with pytest.raises(InvalidParameter, match="seed -5 is negative"):
        generic_jordan_type(P, PrimeField(), 2, -5)


def test_seeds_past_int64_do_not_wrap():
    # The last seed is 2^63, past int64; numpy's generator takes it as a Python int.
    P = from_parts([2, 1])
    est = generic_jordan_type(P, FIELD, 2, np.int64(2**63 - 1))
    assert est.seeds == (2**63 - 1, 2**63)
    assert est.types == tuple(jordan_type_from_ranks(sample(P, FIELD, s), FIELD.p) for s in est.seeds)
    assert order_criterion_check(P, FIELD, 2, np.int64(2**63 - 1)).seeds == (2**63 - 1, 2**63)
    with pytest.raises(InvalidParameter, match="seed -1 is negative"):
        order_criterion_check(P, FIELD, 2, -1)


def test_structural_pairs_exclude_reflexive():
    pairs = structural_action_pairs(from_parts([2, 1]))
    assert all(v != w for v, w in pairs)


@given(rows=st.integers(0, 12), cols=st.integers(0, 12), rank=st.integers(0, 12),
       p=st.sampled_from([2, 3, 7, 1_000_003, BIG_PRIME]), seed=SEEDS)
def test_rank_mod_matches_sympy(rows, cols, rank, p, seed):
    # A product through an inner dimension of `rank`: full, deficient, or zero.
    rng = np.random.default_rng(seed)
    left = rng.integers(0, p, (rows, rank)).astype(object)
    right = rng.integers(0, p, (rank, cols)).astype(object)
    A = (left.dot(right) % p).astype(np.int64)
    assert rank_mod(A, p) == sympy_matrix(A, p).rank()


@settings(max_examples=40)
@given(P=partitions(30), seed=SEEDS)
def test_jordan_type_matches_sympy_power_ranks(P, seed):
    A = sample(P, FIELD, seed)
    assert jordan_type_from_ranks(A, FIELD.p) == sympy_jordan_type(A, FIELD.p)


@settings(max_examples=60)
@given(P=partitions(12), p=st.sampled_from([2, 3, 7, 1_000_003]), seed=SEEDS)
def test_krylov_profile_matches_oracles_on_conjugated_jordan_matrices(P, p, seed):
    # At p = 2 and 3 a random Krylov start would often fall short of rank
    # n; the complement of im A never does.
    A = conjugated_jordan_matrix(P, p, seed)
    assert sympy_jordan_type(A, p) == P
    assert restriction_profile(A, p) == P
    assert jordan_type_from_ranks(A, p) == P


def spy_on_pivots(monkeypatch):
    shapes = []
    pivots = matrixlab._pivots

    def spy(M, p):
        shapes.append(M.shape)
        return pivots(M, p)

    monkeypatch.setattr(matrixlab, "_pivots", spy)
    return shapes


def test_krylov_start_complements_the_image(monkeypatch):
    # The profile eliminates A^T, then the stack, whose last block is V;
    # the elimination overwrites its input, so the spy keeps a copy.
    eliminated = []
    pivots = matrixlab._pivots

    def spy(M, p):
        eliminated.append(M.copy())
        return pivots(M, p)

    monkeypatch.setattr(matrixlab, "_pivots", spy)
    checked = 0
    for n in range(1, 11):
        for P in all_partitions(n):
            for seed in range(2):
                A = sample(P, FIELD, seed)
                eliminated.clear()
                Q = jordan_type_from_ranks(A, FIELD.p)
                width = n - rank_mod(A, FIELD.p)
                stack = eliminated[1][0]
                assert stack.shape == (n, Q.max_part * width), (P, seed)
                V = stack[:, stack.shape[1] - width:]
                assert ((V == 0) | (V == 1)).all() and (V.sum(axis=0) == 1).all(), (P, seed)
                assert rank_mod(np.hstack([V, A]), FIELD.p) == n, (P, seed)
                checked += 1
    assert checked == 2 * 138


def test_extra_independent_row_is_refused(monkeypatch):
    # One row too many leaves the start one vector short of a complement of
    # im A, so the stack cannot reach rank n.
    P = from_parts([4, 2, 2, 1])
    pivots = matrixlab._pivots
    for seed in range(3):
        calls = []

        def planted(M, p):
            found = pivots(M, p)
            calls.append(found)
            if len(calls) == 1:  # the rows of A, in a batch of one
                rows = found[0]
                found = [sorted(rows + [min(set(range(M.shape[2])) - set(rows))])]
            return found

        monkeypatch.setattr(matrixlab, "_pivots", planted)
        with pytest.raises(NotNilpotent, match="Krylov stack"):
            jordan_type_from_ranks(conjugated_jordan_matrix(P, 7, seed), 7)


def test_generic_krylov_start_needs_no_retry(monkeypatch):
    P = from_parts([4, 2, 2, 1])
    A = conjugated_jordan_matrix(P, FIELD.p, seed=3)
    shapes = spy_on_pivots(monkeypatch)
    assert jordan_type_from_ranks(A, FIELD.p) == P
    assert shapes == [(1, P.n, P.n), (1, P.n, 4 * 4)]


@settings(max_examples=60)
@given(ranks=st.lists(st.integers(0, 9), min_size=1, max_size=5), rows=st.integers(0, 9),
       cols=st.integers(0, 9), p=st.sampled_from([2, 3, 7, 1_000_003]), seed=SEEDS)
def test_batched_pivots_equal_each_matrix_alone(ranks, rows, cols, p, seed):
    # One batch mixes matrices of different ranks: full, deficient and zero.
    rng = np.random.default_rng(seed)
    batch = np.array([(rng.integers(0, p, (rows, r)).astype(object)
                       .dot(rng.integers(0, p, (r, cols)).astype(object)) % p)
                      for r in ranks], dtype=np.int64).reshape(len(ranks), rows, cols)
    pivots = matrixlab._pivots(batch.copy(), p)  # the elimination overwrites its input
    assert pivots == [matrixlab._pivots(A[None].copy(), p)[0] for A in batch]
    for A, piv in zip(batch, pivots):
        M = sympy_matrix(A, p)
        assert len(piv) == M.rank()
        if rows and cols:
            assert tuple(piv) == M.to_dense().rref()[1]


def batch_of_ranks(ranks, rows, cols, p, seed):
    rng = np.random.default_rng(seed)
    return np.array([(rng.integers(0, p, (rows, r)).astype(object)
                      .dot(rng.integers(0, p, (r, cols)).astype(object)) % p)
                     for r in ranks], dtype=np.int64).reshape(len(ranks), rows, cols)


@settings(max_examples=60)
@given(ranks=st.lists(st.integers(0, 11), min_size=1, max_size=4), rows=st.integers(2, 12),
       cols=st.integers(9, 30), panel=st.integers(1, 4),
       p=st.sampled_from([3, 1_000_003, BIG_PRIME, 2_147_483_647, LARGEST_PRIME]), seed=SEEDS)
def test_blocked_pivots_equal_the_column_loop_and_sympy(ranks, rows, cols, panel, p, seed):
    # Panels of at most 4 columns: every batch crosses at least 3 of them.
    # At 2^31 - 1 and LARGEST_PRIME the loop reduces its panel before every
    # second column and before every column, and sympy is the oracle.
    batch = batch_of_ranks([min(r, rows - 1) for r in ranks], rows, cols, p, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrixlab, "PANEL_COLUMNS", cols)
        loop = matrixlab._pivots(batch.copy(), p)
        mp.setattr(matrixlab, "PANEL_COLUMNS", panel)
        assert -(-cols // panel) >= 3
        assert matrixlab._pivots(batch.copy(), p) == loop
    for A, piv in zip(batch, loop):
        M = sympy_matrix(A, p)
        assert len(piv) == M.rank() < rows
        assert tuple(piv) == M.to_dense().rref()[1]


def batch_of_pivots(pivots, rows, cols, p, seed):
    """A batch whose matrix s has the pivot columns ``pivots[s]``: B E mod p,
    with E random in reduced row echelon form on those pivots and B the
    first columns of an invertible L U (L unit lower, U upper triangular
    with a nonzero diagonal)."""
    rng = np.random.default_rng(seed)
    batch = []
    for piv in pivots:
        E = np.zeros((len(piv), cols), dtype=object)
        for k, c in enumerate(piv):
            E[k, c:] = rng.integers(0, p, cols - c).tolist()
            E[:, c] = 0
            E[k, c] = 1
        L = np.tril(rng.integers(0, p, (rows, rows)), -1) + np.eye(rows, dtype=np.int64)
        U = np.triu(rng.integers(0, p, (rows, rows)), 1) + np.diag(rng.integers(1, p, rows))
        batch.append(L.astype(object).dot(U.astype(object))[:, :len(piv)].dot(E) % p)
    return np.array(batch, dtype=np.int64).reshape(len(pivots), rows, cols)


@pytest.mark.parametrize("p", [3, 1_000_003, BIG_PRIME, 2_147_483_647, LARGEST_PRIME])
def test_blocked_pivots_at_the_module_panel_width(p, monkeypatch):
    # 600 columns cross 3 panels of 256 at every prime.  Each of the first
    # two panels holds 3 to 6 pivots of every nonzero matrix, so each updates
    # the columns right of it by one product, and at 2^31 - 1 and
    # LARGEST_PRIME its rows take more updates than int64 holds unreduced.
    pivots = [[3, 60, 200, 255, 256, 400, 511], [], [0, 1, 2, 300, 301, 302, 512, 513, 599],
              [10, 20, 30, 40, 50, 60, 260, 270, 280, 520, 530, 540]]
    batch = batch_of_pivots(pivots, 12, 600, p, 5)
    products = []
    matmul = matrixlab._matmul
    monkeypatch.setattr(matrixlab, "_matmul", lambda A, B, p: products.append(A.shape) or matmul(A, B, p))
    assert matrixlab._pivots(batch.copy(), p) == pivots
    assert matrixlab.PANEL_COLUMNS == 256 and len(products) == 2
    for A, piv in zip(batch, pivots):
        assert piv == rref_mod(A, p)[1]
        assert len(piv) == sympy_matrix(A, p).rank()
    monkeypatch.setattr(matrixlab, "PANEL_COLUMNS", 600)
    assert matrixlab._pivots(batch.copy(), p) == pivots


def test_one_batch_mixes_widths_and_nilpotency_indices():
    # Order 9: types (4,2,2,1), (1^9), (9) and (5,4) have 4, 9, 1 and 2
    # Jordan blocks, and their powers vanish after 4, 1, 9 and 5 steps.
    for p in (7, FIELD.p):
        types = [from_parts([4, 2, 2, 1]), Partition([1] * 9), from_parts([9]), from_parts([5, 4])]
        batch = np.stack([conjugated_jordan_matrix(types[0], p, 3), np.zeros((9, 9), dtype=np.int64),
                          jordan_matrix(types[2]), conjugated_jordan_matrix(types[3], p, 4)])
        assert matrixlab._jordan_types(batch, p) == types
        # Without the zero matrix, V is narrower than the whole space.
        assert matrixlab._jordan_types(batch[[3, 2, 0]], p) == [types[3], types[2], types[0]]


def test_generic_types_equal_each_sample_alone_at_p_3():
    # At p = 3 the samples of one partition often differ in rank and index.
    field, checked = PrimeField(3), 0
    for n in range(1, 11):
        for P in all_partitions(n):
            alone = tuple(jordan_type_from_ranks(sample(P, field, s), 3) for s in range(4))
            est = generic_jordan_type(P, field, 4, 0)
            assert est.types == alone and est.q == reduce(dominance_join, alone), P
            if any(all(dominance_leq(t, best) for t in alone) for best in alone):
                assert est.q in alone, P  # the maximum, as before the join
                checked += 1
            else:
                assert est.agree_count == 0, P
    assert checked > 130


def test_not_nilpotent_when_part_of_the_matrix_is_invertible():
    # blockdiag(J_(3), [1]): rank 3 of 4, and the complement of im A is e_1,
    # inside the nilpotent block, which vanishes after three steps: the
    # stack has rank 3.
    A = np.zeros((4, 4), dtype=np.int64)
    A[1, 0] = A[2, 1] = A[3, 3] = 1
    with pytest.raises(NotNilpotent):
        jordan_type_from_ranks(A, FIELD.p)
    # The complement of im [[1, 1], [0, 0]] is e_2, whose powers never vanish.
    with pytest.raises(NotNilpotent):
        jordan_type_from_ranks(np.array([[1, 1], [0, 0]], dtype=np.int64), FIELD.p)
    # A full-rank matrix: the complement is empty and so is the stack.
    with pytest.raises(NotNilpotent):
        jordan_type_from_ranks(np.eye(4, dtype=np.int64), FIELD.p)


@pytest.mark.parametrize("p", [0, 1, 4])
def test_modulus_that_is_not_prime_is_refused(p):
    with pytest.raises(InvalidParameter, match="not prime"):
        rank_mod(np.eye(2, dtype=np.int64), p)
    with pytest.raises(InvalidParameter, match="not prime"):
        jordan_type_from_ranks(np.array([[0, 1], [0, 0]], dtype=np.int64), p)


# ``rank_mod`` is this file's helper: the elimination kernel's pivot count
# of ``_residues``, which also forms the residues of ``jordan_type_from_ranks``.
@pytest.mark.parametrize("call", [
    lambda: rank_mod(np.array([[0.5, 1], [1, 2]]), 7),  # 0.5 is 4 in GF(7): rank 1, not 2
    lambda: jordan_type_from_ranks(np.array([[0, 0.5], [0, 0]]), 7),
    lambda: rank_mod(np.array([[1j, 0], [0, 1]]), 7),
    lambda: jordan_type_from_ranks(np.array([[0, 1j], [0, 0]]), 7),
    lambda: jordan_type_from_ranks(np.array([[0, 0.5], [0, 0]], dtype=object), 7),
    lambda: PrimeField(1_000_003.0),
    lambda: rank_mod(np.eye(2, dtype=np.int64), 7.0),
    lambda: jordan_type_from_ranks(np.array([[0, 1], [0, 0]], dtype=np.int64), 7.0),
    lambda: run_sweep(1, 4, with_matrix=True, samples=2.0),
    lambda: run_sweep(1, 4, with_matrix=True, seed=0.5),
    lambda: order_criterion_check(from_parts([2, 1]), PrimeField(), 1.5, 0),
    lambda: jordan_type_from_ranks(np.zeros((2, 2, 2), dtype=np.int64), 7),
    lambda: jordan_type_from_ranks(5, 7),
    lambda: jordan_type_from_ranks([[0, 1], [0]], 7),
    lambda: PrimeField(True),
    lambda: rank_mod(np.eye(2, dtype=np.int64), True),
    lambda: generic_jordan_type(from_parts([2, 1]), PrimeField(), True, 0),
    lambda: generic_jordan_type(from_parts([2, 1]), PrimeField(), 1, True),
    lambda: order_criterion_check(from_parts([2, 1]), PrimeField(), 1, True),
    lambda: order_criterion_check(from_parts([2, 1]), PrimeField(), True, 0),
    lambda: generic_jordan_type(from_parts([2, 1]), 1_000_003, 2, 0),
    lambda: order_criterion_check(from_parts([2, 1]), 1_000_003, 2, 0),
], ids=["rank_mod float", "jordan_type_from_ranks float", "rank_mod complex",
        "jordan_type_from_ranks complex", "jordan_type_from_ranks object float", "PrimeField float",
        "rank_mod float modulus", "jordan_type_from_ranks float modulus", "run_sweep float samples",
        "run_sweep float seed", "order_criterion_check float samples", "jordan_type_from_ranks 3-D",
        "jordan_type_from_ranks scalar", "jordan_type_from_ranks ragged", "PrimeField bool",
        "rank_mod bool modulus", "generic_jordan_type bool samples", "generic_jordan_type bool seed",
        "order_criterion_check bool seed", "order_criterion_check bool samples",
        "generic_jordan_type int field", "order_criterion_check int field"])
def test_refused_matrix_input_raises_invalid_parameter(call):
    with pytest.raises(InvalidParameter):
        call()


def test_integer_input_of_any_type_gives_the_int64_results():
    for P in (from_parts([3, 2, 1]), from_parts([4, 2, 2, 1])):
        for seed in range(3):
            A = conjugated_jordan_matrix(P, 7, seed)
            for same in (A.tolist(), A.astype(object) + 7 * 2**70, A - 7, A.astype(np.uint8),
                         A.astype(np.uint64)):
                assert rank_mod(same, 7) == rank_mod(A, 7), (P, seed, same)
                assert jordan_type_from_ranks(same, 7) == P, (P, seed, same)
            assert jordan_type_from_ranks(A, np.int64(7)) == P
        J = jordan_matrix(P)
        for same in (J.astype(bool), J.astype(np.int8), J.tolist()):
            assert rank_mod(same, FIELD.p) == rank_mod(J, FIELD.p), (P, same)
            assert jordan_type_from_ranks(same, FIELD.p) == P, (P, same)
    assert jordan_type_from_ranks(np.array([[0, 2**70], [0, 0]], dtype=object), 7) == from_parts([2])
    narrow = np.array([[np.int8(0), np.int8(1)], [np.int8(0), np.int8(0)]], dtype=object)
    assert jordan_type_from_ranks(narrow, FIELD.p) == from_parts([2])
    assert generic_jordan_type(from_parts([3, 2, 1]), PrimeField(np.int64(7)), np.int64(2),
                               np.int64(0)).q == generic_jordan_type(from_parts([3, 2, 1]), PrimeField(7), 2, 0).q


@pytest.mark.parametrize("p, refused", [
    (2, None), (7, None), (1_000_003, None), (BIG_PRIME, None), (2_147_483_647, None),
    (np.int64(7), None), (LARGEST_PRIME, None),
    (3_037_000_507, Int64BoundExceeded), (4_294_967_311, Int64BoundExceeded),
    (0, InvalidParameter), (1, InvalidParameter), (4, InvalidParameter), (91, InvalidParameter),
    (7.0, InvalidParameter), (True, InvalidParameter),
])
def test_every_matrix_entry_point_takes_the_same_moduli(p, refused):
    # Order 1 keeps the rank profile's products exact at every accepted modulus.
    calls = [(lambda: PrimeField(p).p, p),
             (lambda: jordan_type_from_ranks(np.zeros((1, 1), dtype=np.int64), p), from_parts([1]))]
    for call, expected in calls:
        if refused is None:
            assert call() == expected
        else:
            with pytest.raises(refused):
                call()


def test_the_largest_modulus_is_exact_past_order_1():
    # n (p-1)^2 passes 2^63 from order 2 on, which the former int64 bound
    # refused: each sample is the reference loop's, its type sympy's, and
    # each estimate the default prime's from the same seed.
    field = PrimeField(LARGEST_PRIME)
    for P in map(from_parts, ([1], [2], [1, 1], [3, 2, 1], [4, 2, 2, 1])):
        A = sample(P, field, 0)
        assert np.array_equal(A, reference_sample(P, field, 0)), P
        assert jordan_type_from_ranks(A, field.p) == sympy_jordan_type(A, field.p), P
        assert generic_jordan_type(P, field, 3, 0).q == generic_jordan_type(P, FIELD, 3, 0).q, P
    assert jordan_type_from_ranks(np.array([[0, 1], [0, 0]], dtype=np.int64), field.p) == from_parts([2])


@pytest.mark.parametrize("shape", [(2, 3), (3,)])
def test_rank_profile_refuses_a_matrix_that_is_not_square(shape):
    with pytest.raises(InvalidParameter, match="square"):
        jordan_type_from_ranks(np.zeros(shape, dtype=np.int64), FIELD.p)


def test_sampler_matches_reference_loop():
    for n in range(1, 11):
        for P in all_partitions(n):
            for seed in range(5):
                A = reference_sample(P, FIELD, seed)
                assert np.array_equal(sample(P, FIELD, seed), A), (P, seed)


@pytest.mark.parametrize("p", [2, 3, 7, 1_000_003, BIG_PRIME])
def test_array_draw_matches_scalar_draws(p):
    scalar = np.random.default_rng(5)
    assert (np.random.default_rng(5).integers(0, p, size=500).tolist()
            == [int(scalar.integers(0, p)) for _ in range(500)])


@pytest.mark.parametrize("p", [2, 3, 1_000_003, BIG_PRIME, LARGEST_PRIME])
def test_a_shorter_draw_is_a_prefix_of_a_longer_one(p):
    # A call reads every partition's coefficients off one stream per seed.
    for seed in (0, 1, 2**63):
        longest = np.random.default_rng(seed).integers(0, p, size=3000)
        for length in (0, 1, 2, 3, 17, 256, 1001, 2999):
            assert np.array_equal(np.random.default_rng(seed).integers(0, p, size=length),
                                  longest[:length]), (seed, length)


STREAM_SEEDS = [0, 1, 7, 2**31 - 1, 2**32, 2**32 + 5, 2**63, 2**64 + 1, 10**30]
STREAM_LENGTHS = [0, 1, 2, 3, 17, 256, 1001, 3000]


@pytest.mark.parametrize("p", [2, 3, 7, 101, 1_000_003, BIG_PRIME, LARGEST_PRIME])
def test_the_stream_is_numpys_bounded_pcg64_draw(p):
    # numpy's Generator is the oracle of the package's stream.  At the
    # largest prime, 2^32 mod p rejects about 29 % of the 32-bit words.
    for seed in STREAM_SEEDS:
        for length in STREAM_LENGTHS:
            assert np.array_equal(matrixlab._Stream(seed, p).take(length),
                                  np.random.default_rng(seed).integers(0, p, size=length)), (seed, length)


@pytest.mark.parametrize("p", [2, 1_000_003, LARGEST_PRIME])
def test_a_resumed_stream_is_a_fresh_stream_of_the_full_length(p):
    for seed in STREAM_SEEDS:
        resumed = matrixlab._Stream(seed, p)
        taken = [resumed.take(length) for length in STREAM_LENGTHS]
        assert all(np.array_equal(prefix, taken[-1][:length]) for prefix, length in zip(taken, STREAM_LENGTHS)), seed
        assert np.array_equal(taken[-1], matrixlab._Stream(seed, p).take(STREAM_LENGTHS[-1])), seed


def test_draws_are_int64_without_coefficients():
    # P = (1) has no coefficient, and its draws are still an int64 array.
    draws = matrixlab._draws({}, (0, 1), matrixlab._sample_layout(from_parts([1])).count, FIELD.p)
    assert draws.dtype == np.int64 and draws.shape == (2, 0)


def test_a_level_draws_each_seed_once_per_longer_stream(monkeypatch):
    drawn = []
    stream = matrixlab._Stream
    monkeypatch.setattr(matrixlab, "_Stream", lambda seed, p: drawn.append(seed) or stream(seed, p))
    level = list(all_partitions(10))
    counts = [matrixlab._sample_layout(P).count for P in level]
    longer = sum(1 for i, count in enumerate(counts) if count > max(counts[:i], default=-1))
    for _ in range(2):  # the streams belong to one call, not to the module
        drawn.clear()
        estimates = list(generic_jordan_types(level, FIELD, 5, 3))
        times = drawn.count(3)  # a stream resumes, so a longer one seeds no second stream
        assert times == 1 < longer < len(level)
        assert sorted(drawn) == sorted(list(range(3, 8)) * times)
    drawn.clear()
    assert estimates == [(P, generic_jordan_type(P, FIELD, 5, 3)) for P in level]
    assert len(drawn) == 5 * len(level)  # one partition per call: each seed seeded once


def test_the_generic_type_of_the_empty_partition_is_refused():
    with pytest.raises(EmptyPartition):
        generic_jordan_type(Partition(), PrimeField(), 2, 0)
    with pytest.raises(EmptyPartition):
        list(generic_jordan_types([from_parts([2, 1]), Partition()], FIELD, 2, 0))


@pytest.mark.parametrize("p", [2, 3, 7, BIG_PRIME])
def test_sampler_matches_reference_loop_for_other_primes(p):
    field = PrimeField(p)
    for n in range(1, 9):
        for P in all_partitions(n):
            for seed in range(2):
                A = reference_sample(P, field, seed)
                assert np.array_equal(sample(P, field, seed), A), (P, p, seed)


def test_sample_layout_is_built_once_per_partition(monkeypatch):
    # A partition's samples in one batch are one stack and one layout; a
    # partition whose samples span batches builds its layout once per batch.
    P = from_parts([4, 2, 2, 1])
    built, build = [], matrixlab._sample_layout
    monkeypatch.setattr(matrixlab, "_sample_layout", lambda P: built.append(P) or build(P))
    clean = generic_jordan_type(P, FIELD, 5, seed=0)
    assert built == [P]  # one stack holds all five samples
    built.clear()
    monkeypatch.setattr(matrixlab, "BATCH_ELEMENTS", 2 * P.n ** 2)  # two samples of order 9 a batch
    assert generic_jordan_type(P, FIELD, 5, seed=0) == clean
    assert built == [P] * 3  # batches of 2, 2 and 1 samples


def test_sampling_is_exact_past_the_former_int64_bound():
    # n (p-1)^2 >= 2^63, which the former int64 bound refused, for
    # staircase 16 (n = 136) at each of these primes and for [12]*8
    # (n = 96) past BIG_PRIME.  The generic type does not depend on the
    # prime: each estimate is the default prime's from the same seed.
    for P in (from_parts(range(16, 0, -1)), from_parts([12] * 8)):
        expected = generic_jordan_type(P, FIELD, 2, 0).q
        for p in (BIG_PRIME, 2_147_483_647, LARGEST_PRIME):
            assert generic_jordan_type(P, PrimeField(p), 2, 0).q == expected, (P, p)


def test_int64_bound_is_exact_up_to_its_edge():
    # 128 (p-1)^2 < 2^63 <= 129 (p-1)^2 for the largest prime below 2^28,
    # the former bound of a product: both sides of it are exact.
    for inner in (128, 129):
        worst = np.full((2, inner), BIG_PRIME - 1, dtype=np.int64)
        exact = worst.astype(object).dot(worst.T.astype(object)) % BIG_PRIME
        assert np.array_equal(matrixlab._matmul(worst, worst.T, BIG_PRIME), exact)
        # A batched product contracts its last axis, not its rows.
        batch = np.stack([worst] * 3)
        assert np.array_equal(matrixlab._matmul(batch, batch.transpose(0, 2, 1), BIG_PRIME),
                              np.stack([exact] * 3))
    # The elimination update multiplies two residues: (p-1)^2 >= 2^63 past p = 2^32.
    with pytest.raises(Int64BoundExceeded):
        rank_mod(np.eye(2, dtype=np.int64), 4_294_967_311)


@pytest.mark.parametrize("p, inner", [(1_000_003, 9_007), (1_000_003, 9_008), (1_000_003, 30_000),
                                      (BIG_PRIME, 1), (BIG_PRIME, 128), (BIG_PRIME, 129),
                                      (LARGEST_PRIME, 2), (LARGEST_PRIME, 3_000)])
def test_float64_products_are_exact_at_the_limb_edges(p, inner):
    # The default prime takes one limb while inner (p-1)^2 <= 2^53, up to 9,007;
    # at BIG_PRIME and LARGEST_PRIME one product of two residues passes 2^53,
    # so every inner dimension splits a factor into limbs, on both sides of
    # the former int64 edge (128 at BIG_PRIME, 1 at LARGEST_PRIME).
    assert (inner * (p - 1) ** 2 <= matrixlab.FLOAT64_EXACT) == (inner <= 9_007 and p == 1_000_003)
    worst = np.full((2, inner), p - 1, dtype=np.int64)
    exact = worst.astype(object).dot(worst.T.astype(object)) % p
    assert np.array_equal(matrixlab._matmul(worst, worst.T, p), exact)
    # Entries near p - 1 of both parities, whose partial sums past 2^53 a
    # single float64 product would round.
    rng = np.random.default_rng(inner)
    A = p - 1 - rng.integers(0, 1000, (3, inner))
    B = p - 1 - rng.integers(0, 1000, (inner, 4))
    got = matrixlab._matmul(A, B, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, A.astype(object).dot(B.astype(object)) % p)


def test_int64_bound_is_exact_for_a_numpy_modulus():
    # (p-1)^2 wraps in int64 arithmetic past the bound; the rule must not.
    for p in (3_037_000_507, 4_294_967_311):
        with pytest.raises(Int64BoundExceeded):
            PrimeField(np.int64(p))
        with pytest.raises(Int64BoundExceeded):
            jordan_type_from_ranks(np.zeros((2, 2), dtype=np.int64), np.int64(p))
    field = PrimeField(np.int64(LARGEST_PRIME))
    assert type(field.p) is int and field == PrimeField(LARGEST_PRIME)
    # A uint64 matrix mod a numpy int64 modulus would promote to float64.
    P = from_parts([3, 2, 1])
    A = conjugated_jordan_matrix(P, LARGEST_PRIME, 0)
    assert jordan_type_from_ranks(A.astype(np.uint64), np.int64(LARGEST_PRIME)) == P


def loop_layout(P):
    """The layout's coefficient arrays, built one entry at a time by the
    loops over source row, target row and shift that a sample draws in."""
    vertices = vertex_list(P)
    rows = [(p, k, start) for start, (u, p, k) in enumerate(vertices) if u == 1]
    targets, sources, entry_coefficient = [], [], []
    count = 0
    for p, k, start in rows:
        for p2, k2, start2 in rows:
            for j in range(max(1, p2 - p + 1), p2 + 1):
                if j == 1 and p == p2 and k >= k2:
                    continue
                band = range(p2 - j + 1)
                targets.extend(start2 + j - 1 + u for u in band)
                sources.extend(start + u for u in band)
                entry_coefficient.extend([count] * len(band))
                count += 1
    keys = [(2 * u - p, p, k) for u, p, k in vertices]
    position = np.empty(len(vertices), dtype=np.int64)
    position[sorted(range(len(vertices)), key=keys.__getitem__)] = np.arange(len(vertices))
    return {"count": count, "targets": targets, "sources": sources,
            "entry_coefficient": entry_coefficient, "position": position.tolist(),
            "first": [u == 1 for u, _, _ in vertices], "last": [u == p for u, p, _ in vertices]}


def test_vectorized_layout_matches_the_loop_array_for_array():
    checked = 0
    for n in range(1, 15):
        for P in all_partitions(n):
            layout = matrixlab._sample_layout(P)
            assert layout.vertices == tuple(vertex_list(P)), P
            for name, want in loop_layout(P).items():
                got = getattr(layout, name)
                if name != "count":
                    assert got.dtype == (bool if name in ("first", "last") else np.int64), (P, name)
                    got = got.tolist()
                assert got == want, (P, name)
            checked += 1
    assert checked == 507


def test_sample_stack_is_the_samples_one_by_one():
    for P in (from_parts([1]), from_parts([3, 1]), from_parts([4, 2, 2, 1, 1])):
        seeds = (3, 0, 2**63, 7)
        stack = matrixlab._sample_stack(P, FIELD, seeds, {})
        assert stack.shape == (4, P.n, P.n)
        for A, seed in zip(stack, seeds):
            assert np.array_equal(A, sample(P, FIELD, seed)), (P, seed)


def test_sample_stack_names_the_seed_that_fails_a_certificate(monkeypatch):
    P = from_parts([3, 2, 2, 1])
    commutes = matrixlab._commutes_with_jordan

    def planted(layout, A):
        A[2, 0] = 1  # the third sample, seed 12, gets a row of ones
        return commutes(layout, A)

    monkeypatch.setattr(matrixlab, "_commutes_with_jordan", planted)
    with pytest.raises(CommutationCheckFailed, match=r"\(seed 12\)"):
        matrixlab._sample_stack(P, FIELD, (10, 11, 12, 13), {})
    # With the commutation check passing the planted row, the key order refuses it.
    monkeypatch.setattr(matrixlab, "_commutes_with_jordan",
                        lambda layout, A: planted(layout, A) | True)
    with pytest.raises(NotNilpotent, match=r"sampled matrix \(seed 12\) moves .* key order"):
        matrixlab._sample_stack(P, FIELD, (10, 11, 12, 13), {})


def test_generic_type_of_a_large_partition_holds_one_batch_at_a_time():
    # Staircase 31 (n = 496), 5 samples: each sample is profiled alone.
    P = Partition(range(31, 0, -1))
    tracemalloc.start()
    try:
        est = generic_jordan_type(P, PrimeField(), 5, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.q == Partition(range(61, 0, -4)) == lambda_u(P)
    assert est.agree_count == 5
    assert peak < 24 * 2**20


def test_batches_fill_with_whole_partitions_of_one_order(monkeypatch):
    def pieces(parts_list, samples, batch_matrices):
        monkeypatch.setattr(matrixlab, "BATCH_MATRICES", batch_matrices)
        return [[(i, list(P.parts), (piece.start, piece.stop)) for i, P, piece in batch]
                for batch in matrixlab._batches(map(from_parts, parts_list), samples)]

    assert pieces([[2, 1], [1, 1, 1], [3]], 5, 7) == [[(0, [2, 1], (0, 5))], [(1, [1, 1, 1], (0, 5))],
                                                      [(2, [3], (0, 5))]]
    assert pieces([[2, 1], [1, 1, 1], [3], [2, 1]], 2, 5) == [
        [(0, [2, 1], (0, 2)), (1, [1, 1, 1], (0, 2))], [(2, [3], (0, 2)), (3, [2, 1], (0, 2))]]
    # A partition is cut only when its samples alone pass the batch size.
    assert pieces([[2, 1], [3]], 5, 3) == [[(0, [2, 1], (0, 3))], [(0, [2, 1], (3, 5))],
                                           [(1, [3], (0, 3))], [(1, [3], (3, 5))]]
    # A batch holds matrices of one order only.
    assert pieces([[2, 1], [2], [1, 1], [4]], 1, 64) == [[(0, [2, 1], (0, 1))],
                                                        [(1, [2], (0, 1)), (2, [1, 1], (0, 1))],
                                                        [(3, [4], (0, 1))]]
    assert pieces([], 5, 64) == []
    # Past 2^17 entries a batch holds fewer matrices: 7 of order 136, 1 of order 496.
    assert [matrixlab._batch_size(n) for n in (14, 45, 46, 136, 496)] == [64, 64, 61, 7, 1]


@pytest.mark.parametrize("batch_matrices", [matrixlab.BATCH_MATRICES, 3])
def test_level_estimates_equal_each_partition_alone(monkeypatch, batch_matrices):
    # With 3 matrices per batch, every partition's 5 samples are cut in two.
    monkeypatch.setattr(matrixlab, "BATCH_MATRICES", batch_matrices)
    checked = 0
    for n in range(1, 13):
        level = list(all_partitions(n))
        estimates = list(matrixlab.generic_jordan_types(iter(level), FIELD, 5, 0))
        assert [P for P, _ in estimates] == level
        for P, est in estimates:
            assert est == generic_jordan_type(P, FIELD, 5, 0), P
            checked += 1
    assert checked == 271


def plant_commutation_failure(monkeypatch, P, sample):
    """Make sample ``sample`` of every stack of P fail the commutation check."""
    real, vertices = matrixlab._commutes_with_jordan, tuple(vertex_list(P))

    def planted(layout, A):
        commutes = real(layout, A)
        if layout.vertices == vertices:
            commutes[sample] = False
        return commutes

    monkeypatch.setattr(matrixlab, "_commutes_with_jordan", planted)


@pytest.mark.parametrize("batch_matrices", [matrixlab.BATCH_MATRICES, 2])
def test_a_sample_that_does_not_commute_fails_its_partition_only(monkeypatch, batch_matrices):
    # The level n = 6 is 11 partitions of 5 samples: one shared batch of 55
    # matrices, or, 2 matrices to a batch, each partition in pieces of 2, 2
    # and 1.  The failure is planted in the first piece of (3,2,1), whose
    # later pieces are then never sampled.
    level, planted = list(all_partitions(6)), from_parts([3, 2, 1])
    clean = list(generic_jordan_types(level, FIELD, 5, 0))
    monkeypatch.setattr(matrixlab, "BATCH_MATRICES", batch_matrices)
    plant_commutation_failure(monkeypatch, planted, 1)
    sampled, sample_stack = [], matrixlab._sample_stack
    monkeypatch.setattr(matrixlab, "_sample_stack", lambda P, field, seeds, streams:
                        sampled.append((P, seeds)) or sample_stack(P, field, seeds, streams))
    found = list(generic_jordan_types(level, FIELD, 5, 0))
    assert [P for P, _ in found] == level
    for (P, got), (_, want) in zip(found, clean):
        if P == planted:
            assert isinstance(got, CommutationCheckFailed)
            assert str(got) == "sampled matrix does not commute for (3,2,1) (seed 1)"
        else:
            assert got == want, P
    assert [seeds for P, seeds in sampled if P == planted] == [tuple(range(min(batch_matrices, 5)))]
    assert len(sampled) == 1 + 10 * -(-5 // min(batch_matrices, 5))


def test_the_stream_table_is_dropped_past_a_batch_of_entries(monkeypatch):
    # The table a call keeps is cleared once it holds more draws than a batch
    # holds entries; the seeds are drawn again, and no estimate changes.
    def estimates():
        sizes.clear()
        return list(generic_jordan_types(all_partitions(8), FIELD, 5, 0))

    sizes, draws = [], matrixlab._draws
    monkeypatch.setattr(matrixlab, "_draws", lambda streams, seeds, count, p:
                        sizes.append(len(streams)) or draws(streams, seeds, count, p))
    clean = estimates()
    assert sizes[0] == 0 and 0 not in sizes[1:]
    monkeypatch.setattr(matrixlab, "BATCH_ELEMENTS", 100)
    assert estimates() == clean
    assert sizes[0] == 0 and 0 in sizes[1:]


def test_level_estimates_build_each_layout_once(monkeypatch):
    level = list(all_partitions(6))
    built, build = [], matrixlab._sample_layout
    monkeypatch.setattr(matrixlab, "_sample_layout", lambda P: built.append(P) or build(P))
    list(matrixlab.generic_jordan_types(level, FIELD, 5, 0))
    assert built == level  # one stack, and one layout, per partition of the level


def test_level_estimates_of_mixed_orders_and_repeats():
    mixed = [from_parts([2, 1]), from_parts([2]), from_parts([2, 1]), from_parts([3, 1]), from_parts([1])]
    estimates = list(matrixlab.generic_jordan_types(mixed, FIELD, 2, 4))
    assert estimates == [(P, generic_jordan_type(P, FIELD, 2, 4)) for P in mixed]
    assert list(matrixlab.generic_jordan_types([], FIELD, 2, 0)) == []
    with pytest.raises(InvalidParameter, match="at least one sample"):
        next(matrixlab.generic_jordan_types(mixed, FIELD, 0, 0))


def same_order_partitions():
    return st.integers(1, 9).flatmap(
        lambda n: st.lists(st.sampled_from(list(all_partitions(n))), min_size=1, max_size=5))


@settings(max_examples=40)
@given(types=same_order_partitions(), p=st.sampled_from([2, 3, 1_000_003]), seed=SEEDS)
def test_mixed_batch_equals_each_matrix_alone_and_sympy(types, p, seed):
    # Each matrix has its own complement of im A, of width len(type); the
    # zero matrix's powers vanish after one step.
    n = types[0].n
    matrices = [conjugated_jordan_matrix(P, p, seed + i) for i, P in enumerate(types)]
    matrices.append(np.zeros((n, n), dtype=np.int64))
    types = [*types, Partition([1] * n)]
    batch = matrixlab._jordan_types(np.stack(matrices), p)
    assert batch == types
    assert batch == [jordan_type_from_ranks(A, p) for A in matrices]
    assert batch == [sympy_jordan_type(A, p) for A in matrices]


def test_a_batch_of_the_zero_matrix_of_order_1():
    zero = np.zeros((1, 1), dtype=np.int64)
    for p in (2, 3, FIELD.p):
        assert matrixlab._jordan_types(np.stack([zero, zero]), p) == [Partition([1])] * 2


def test_a_matrix_that_is_not_nilpotent_fails_alone_in_its_batch():
    # Order 2: J_(2), an idempotent whose complement e_2 never vanishes, the
    # identity (an empty complement, so a stack of rank 0), and 0.
    batch = np.stack([jordan_matrix(from_parts([2])), np.array([[1, 1], [0, 0]]),
                      np.eye(2, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)])
    types = matrixlab._jordan_types(batch, FIELD.p)
    assert types[0] == from_parts([2]) and types[3] == from_parts([1, 1])
    assert isinstance(types[1], NotNilpotent) and "no vanishing power" in str(types[1])
    assert isinstance(types[2], NotNilpotent) and "Krylov stack" in str(types[2])


def plant_pivots(monkeypatch, sample, pivots):
    """Make ``sample`` of each profiled batch read ``pivots`` off its Krylov stack."""
    real, calls = matrixlab._pivots, []

    def planted(R, p):
        found = real(R, p)
        calls.append(R.shape)
        if len(calls) % 2 == 0:  # a batch reduces the transposes first, then the stack
            found[sample] = pivots
        return found

    monkeypatch.setattr(matrixlab, "_pivots", planted)


def test_impossible_ranks_are_refused_not_sorted(monkeypatch):
    # The stack [A V | V] of J_(2,1) has columns 0-1 and 2-3; the pivots
    # 0, 1, 2 read ranks (3, 2, 0), impossible as rank(A^2) >= 2 rank(A) - 3.
    J = jordan_matrix(from_parts([2, 1]))
    assert matrixlab._jordan_types(np.stack([J, J]), FIELD.p) == [from_parts([2, 1])] * 2
    plant_pivots(monkeypatch, 0, [0, 1, 2])
    refused, kept = matrixlab._jordan_types(np.stack([J, J]), FIELD.p)
    assert isinstance(refused, NotNilpotent)
    assert str(refused).startswith("ranks [3, 2, 0] are not those of a nilpotent matrix")
    assert kept == from_parts([2, 1])
    with pytest.raises(NotNilpotent, match=r"drops \[1, 2\] are not"):
        jordan_type_from_ranks(J, FIELD.p)


def test_impossible_ranks_fail_only_their_partition(monkeypatch):
    # Each partition's one sample is its Jordan matrix.  The batch's stack
    # [A V | V] has width 3 (from J_(1,1,1) = 0), so the pivots 0, 1, 3 read
    # ranks (3, 2, 0) for J_(2,1).
    monkeypatch.setattr(matrixlab, "_sample_stack",
                        lambda P, field, seeds, streams: np.stack([jordan_matrix(P)] * len(seeds)))
    plant_pivots(monkeypatch, 0, [0, 1, 3])
    (first, refused), (second, kept) = generic_jordan_types(
        [from_parts([2, 1]), from_parts([1, 1, 1])], FIELD, 1, 0)
    assert first == from_parts([2, 1]) and second == from_parts([1, 1, 1])
    assert isinstance(refused, NotNilpotent) and str(refused).endswith("(seed 0)")
    assert "ranks [3, 2, 0] are not those of a nilpotent matrix" in str(refused)
    assert kept.q == from_parts([1, 1, 1])
