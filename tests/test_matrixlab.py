import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from nilcomm import matrixlab
from nilcomm.errors import (
    CommutationCheckFailed,
    IncomparableSamples,
    Int64BoundExceeded,
    InvalidParameter,
    NotNilpotent,
    PosetTooLarge,
)
from nilcomm.matrixlab import (
    PrimeField,
    generic_jordan_type,
    jordan_matrix,
    jordan_type_from_ranks,
    order_criterion_check,
    rank_mod,
    sample_nilpotent_commutant,
    structural_action_pairs,
)
from nilcomm.partitions import Partition, all_partitions, conjugate, from_parts
from nilcomm.poset import build_poset, vertex_list
from nilcomm.uchains import lambda_u

from strategies import partitions

FIELD = PrimeField()
BIG_PRIME = 268_435_399  # the largest prime below 2^28
SEEDS = st.integers(0, 2**32 - 1)




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
    with pytest.raises(ValueError):
        PrimeField((1 << 31) - 1)  # prime but too large for int64 accumulation


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
        s = sample_nilpotent_commutant(P, FIELD, seed=11)
        A = s.matrix
        assert np.array_equal((A @ B) % FIELD.p, (B @ A) % FIELD.p)
        power = A % FIELD.p
        for _ in range(P.n):
            power = (power @ A) % FIELD.p
        assert not power.any()


def test_key_order_certificate_agrees_with_squaring():
    for n in range(1, 11):
        for P in all_partitions(n):
            for seed in range(2):
                A = sample_nilpotent_commutant(P, FIELD, seed).matrix  # key order certified
                assert squaring_is_nilpotent(A, FIELD.p), (P, seed)


def test_planted_entry_against_key_order_raises():
    P = from_parts([3, 2, 2, 1])
    A = sample_nilpotent_commutant(P, FIELD, seed=0).matrix
    layout = matrixlab._sample_layout(P)
    matrixlab._check_key_triangular(layout, A)
    dst, src = np.argwhere(A)[0]  # a sampled coefficient carries src to dst
    reversed_entry = A.copy()
    reversed_entry[src, dst] = 1
    with pytest.raises(NotNilpotent, match="key order"):
        matrixlab._check_key_triangular(layout, reversed_entry)
    diagonal = A.copy()
    diagonal[src, src] = 1
    assert not squaring_is_nilpotent(diagonal, FIELD.p)
    with pytest.raises(NotNilpotent, match="key order"):
        matrixlab._check_key_triangular(layout, diagonal)


def commutes_by_products(P, A, p):
    """The sampler's former commutation check: both products with the Jordan matrix."""
    B = jordan_matrix(P)
    return np.array_equal(matrixlab._matmul(A, B, p), matrixlab._matmul(B, A, p))


def test_shift_commutation_agrees_with_products():
    for n in range(1, 11):
        for P in all_partitions(n):
            for seed in range(2):
                A = sample_nilpotent_commutant(P, FIELD, seed).matrix  # shift check passed
                assert commutes_by_products(P, A, FIELD.p), (P, seed)


def test_shift_commutation_agrees_with_products_on_every_planted_entry():
    broken = 0
    for n in range(1, 7):
        for P in all_partitions(n):
            A = sample_nilpotent_commutant(P, FIELD, seed=1).matrix
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
        sample_nilpotent_commutant(P, FIELD, seed=0)


def test_two_singletons_couple_one_way():
    # rows (1,1,1) -> (1,1,2) may couple, never the reverse, never the diagonal
    s = sample_nilpotent_commutant(from_parts([1, 1]), FIELD, seed=3)
    A = s.matrix
    assert A[0, 1] == 0 and A[0, 0] == 0 and A[1, 1] == 0
    assert A[1, 0] != 0
    assert generic_jordan_type(from_parts([1, 1]), FIELD, 3, seed=3).q.parts == (2,)


def test_single_block_elements_are_polynomials_in_it():
    for n in range(1, 5):
        P = from_parts([n])
        s = sample_nilpotent_commutant(P, FIELD, seed=5)
        B = jordan_matrix(P)
        # entries are constant along subdiagonals and zero on/above the diagonal
        A = s.matrix
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


def test_incomparable_samples_are_refused(monkeypatch):
    fake_types = {0: Partition([3, 1, 1, 1]), 1: Partition([2, 2, 2])}
    monkeypatch.setattr(
        matrixlab, "sample_nilpotent_commutant",
        lambda P, field, seed: SimpleNamespace(matrix=seed),
    )
    monkeypatch.setattr(
        matrixlab, "jordan_type_from_ranks",
        lambda matrix, p: fake_types[matrix % 2],
    )
    with pytest.raises(IncomparableSamples):
        matrixlab.generic_jordan_type(from_parts([3, 1, 1, 1]), FIELD, 2, seed=0)


def test_structural_pairs_match_poset_order():
    for n in range(1, 7):
        for P in all_partitions(n):
            report = order_criterion_check(P, FIELD, samples=5, seed=7)
            assert report.ok, (P, report.hard_mismatches[:3])
            assert not report.never_nonzero, (P, report.never_nonzero[:3])
            assert report.pairs_checked == P.n * (P.n - 1)


def test_order_check_guards_size():
    with pytest.raises(PosetTooLarge):
        order_criterion_check(from_parts([9]), FIELD, 1, 0)
    for samples in (0, -1):
        with pytest.raises(InvalidParameter):
            order_criterion_check(from_parts([2, 1]), FIELD, samples, 0)


def test_sample_is_immutable():
    s = sample_nilpotent_commutant(from_parts([2, 1]), FIELD, seed=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.seed = 1
    with pytest.raises(ValueError):
        s.matrix[0, 0] = 1


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
            # order_criterion_check reads sample entries through the poset's index
            assert build_poset(P).vertices == tuple(vertex_list(P)), P
            checked += 1
    assert checked == 138


def test_negative_seed_is_refused():
    P = from_parts([2, 1])
    with pytest.raises(InvalidParameter, match="seed -1 is negative"):
        sample_nilpotent_commutant(P, FIELD, -1)
    with pytest.raises(InvalidParameter, match="seed -5 is negative"):
        generic_jordan_type(P, PrimeField(), 2, -5)


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
    A = sample_nilpotent_commutant(P, FIELD, seed).matrix
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
    # The profile eliminates A^T, then the stack, whose last block is V.
    eliminated = []
    pivots = matrixlab._pivots

    def spy(M, p):
        eliminated.append(M)
        return pivots(M, p)

    monkeypatch.setattr(matrixlab, "_pivots", spy)
    checked = 0
    for n in range(1, 11):
        for P in all_partitions(n):
            for seed in range(2):
                A = sample_nilpotent_commutant(P, FIELD, seed).matrix
                eliminated.clear()
                Q = jordan_type_from_ranks(A, FIELD.p)
                width = n - rank_mod(A, FIELD.p)
                stack = eliminated[1]
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
            if len(calls) == 1:  # the rows of A
                found = sorted(found + [min(set(range(M.shape[1])) - set(found))])
            return found

        monkeypatch.setattr(matrixlab, "_pivots", planted)
        with pytest.raises(NotNilpotent, match="Krylov stack"):
            jordan_type_from_ranks(conjugated_jordan_matrix(P, 7, seed), 7)


def test_generic_krylov_start_needs_no_retry(monkeypatch):
    P = from_parts([4, 2, 2, 1])
    A = conjugated_jordan_matrix(P, FIELD.p, seed=3)
    shapes = spy_on_pivots(monkeypatch)
    assert jordan_type_from_ranks(A, FIELD.p) == P
    assert shapes == [(P.n, P.n), (P.n, 4 * 4)]


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


@pytest.mark.parametrize("shape", [(2, 3), (3,)])
def test_rank_profile_refuses_a_matrix_that_is_not_square(shape):
    with pytest.raises(InvalidParameter, match="square"):
        jordan_type_from_ranks(np.zeros(shape, dtype=np.int64), FIELD.p)


def test_sampler_matches_reference_loop():
    for n in range(1, 11):
        for P in all_partitions(n):
            for seed in range(5):
                s = sample_nilpotent_commutant(P, FIELD, seed)
                A = reference_sample(P, FIELD, seed)
                assert np.array_equal(s.matrix, A), (P, seed)


@pytest.mark.parametrize("p", [2, 3, 7, 1_000_003, BIG_PRIME])
def test_array_draw_matches_scalar_draws(p):
    scalar = np.random.default_rng(5)
    assert (np.random.default_rng(5).integers(0, p, size=500).tolist()
            == [int(scalar.integers(0, p)) for _ in range(500)])


@pytest.mark.parametrize("p", [2, 3, 7, BIG_PRIME])
def test_sampler_matches_reference_loop_for_other_primes(p):
    field = PrimeField(p)
    for n in range(1, 9):
        for P in all_partitions(n):
            for seed in range(2):
                s = sample_nilpotent_commutant(P, field, seed)
                A = reference_sample(P, field, seed)
                assert np.array_equal(s.matrix, A), (P, p, seed)


def test_sample_layout_is_built_once_per_partition():
    matrixlab._sample_layout.cache_clear()
    generic_jordan_type(from_parts([4, 2, 2, 1]), FIELD, 5, seed=0)
    info = matrixlab._sample_layout.cache_info()
    assert (info.misses, info.hits) == (1, 4)


def test_sampling_refuses_int64_overflow():
    # n = 800 at p just below 2^28: 800 (p-1)^2 > 2^63, so int64 products would wrap.
    with pytest.raises(Int64BoundExceeded, match=r"2\^63"):
        sample_nilpotent_commutant(from_parts([80] * 10), PrimeField(BIG_PRIME), seed=0)


def test_int64_bound_is_exact_up_to_its_edge():
    # 128 (p-1)^2 < 2^63 <= 129 (p-1)^2 for the largest prime below 2^28.
    worst = np.full((2, 128), BIG_PRIME - 1, dtype=np.int64)
    exact = worst.astype(object).dot(worst.T.astype(object)) % BIG_PRIME
    assert np.array_equal(matrixlab._matmul(worst, worst.T, BIG_PRIME), exact)
    wider = np.full((2, 129), BIG_PRIME - 1, dtype=np.int64)
    with pytest.raises(Int64BoundExceeded):
        matrixlab._matmul(wider, wider.T, BIG_PRIME)
    # The elimination update multiplies two residues: (p-1)^2 >= 2^63 past p = 2^32.
    with pytest.raises(Int64BoundExceeded):
        rank_mod(np.eye(2, dtype=np.int64), 4_294_967_311)
