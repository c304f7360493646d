import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cxlab.errors import InputError
from cxlab import exactla
from cxlab.exactla import Field, Mat, kernel_rref, pivot_inverse, rref
from oracles import kernel_basis, solve, solve_matrix

F5 = Field(5)


def test_field_validation():
    Field(2)
    Field(2**31 - 1)  # Mersenne prime
    with pytest.raises(InputError):
        Field(1)
    with pytest.raises(InputError):
        Field(6)
    with pytest.raises(InputError):
        Field(2**31)


def test_primality_tested_once_per_prime():
    exactla._is_prime.cache_clear()
    assert Field(2**31 - 1) == Field(2**31 - 1)
    info = exactla._is_prime.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_is_prime_matches_sieve():
    n = 10**5
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(n**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    assert [exactla._is_prime(m) for m in range(n)] == sieve.tolist()


def test_rref_identity():
    R, pivots, rank = rref(Mat.identity(F5, 3))
    assert rank == 3 and pivots == (0, 1, 2)
    assert R == Mat.identity(F5, 3)


def test_rref_zero():
    R, pivots, rank = rref(Mat.zeros(F5, 2, 4))
    assert rank == 0 and pivots == ()


def test_rref_dependent_rows():
    # row 1 = 2 x row 2 over F_5
    _, _, rank = rref(Mat(F5, [[2, 4], [1, 2]]))
    assert rank == 1


def test_kernel_identity_and_zero():
    assert kernel_basis(Mat.identity(F5, 4)).cols == 0
    K = kernel_basis(Mat.zeros(F5, 3, 5))
    assert K.cols == 5 and K.rank() == 5


def test_kernel_single_row():
    K = kernel_basis(Mat(F5, [[1, 2]]))
    assert K.cols == 1
    # proportional to (-2, 1) = (3, 1)
    v = K.a[:, 0]
    assert (1 * v[0] + 2 * v[1]) % 5 == 0 and v.any()


def test_solve_examples():
    b = np.array([3, 1, 4])
    assert np.array_equal(solve(Mat.identity(F5, 3), b), b)
    assert solve(Mat.zeros(F5, 2, 2), [1, 0]) is None
    assert solve(Mat(F5, [[2]]), [3]).tolist() == [4]  # 2*4 = 8 = 3 mod 5


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        solve(Mat.identity(F5, 3), [1, 2])


def test_oracle_asserts_run_under_optimize():
    # conftest registers the oracles for assert rewriting, so their checks
    # hold under python -O too: (0, 1) is not in the span of (1, 0)
    with pytest.raises(AssertionError, match="target not in span"):
        oracles._solve_in_span([[1, 0]], [0, 1], 5)


def test_solve_matrix_multi_rhs():
    m = Mat(F5, [[1, 2], [0, 1]])
    B = Mat(F5, [[1, 0], [0, 1]])
    X = solve_matrix(m, B)
    assert m @ X == B


def test_matmul_overflow_safe():
    # large prime: each product is near 2^62 and their sum overflows int64 and
    # float64, so only the 16-bit limb split keeps it exact
    p = Field(2147483647)
    a = Mat(p, [[p.p - 1] * 3])
    b = Mat(p, [[p.p - 1]] * 3)
    expected = (3 * (p.p - 1) * (p.p - 1)) % p.p
    assert (a @ b).a[0, 0] == expected


def test_mat_immutable():
    m = Mat.identity(F5, 2)
    with pytest.raises(ValueError):
        m.a[0, 0] = 3


def test_public_constructor_and_arithmetic_reduce():
    # only Mat(...) sees arbitrary integers; it reduces them into [0, p)
    assert Mat(F5, [[-1, 5, 7], [-10, 4, 12]]).a.tolist() == [[4, 0, 2], [0, 4, 2]]
    big = Field(2**31 - 1)
    assert Mat(big, [[-(2**40), 2**31 - 1, 2**62]]).a.tolist() == [
        [-(2**40) % big.p, 0, 2**62 % big.p]]
    a, b = Mat(F5, [[4, 1]]), Mat(F5, [[3, 4]])
    assert (a + b).a.tolist() == [[2, 0]]
    assert (b - a).a.tolist() == [[4, 3]]
    assert (-a).a.tolist() == [[1, 4]]
    assert a.scale(-1).a.tolist() == [[1, 4]]
    assert a.scale(7).a.tolist() == [[3, 2]]


_matrix = st.integers(1, 7).flatmap(
    lambda r: st.integers(1, 7).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, 4), min_size=c, max_size=c),
            min_size=r, max_size=r,
        )
    )
)


@settings(max_examples=120, deadline=None)
@given(_matrix)
def test_rank_equals_transpose_rank(rows):
    m = Mat(F5, rows)
    assert m.rank() == m.transpose().rank()


@settings(max_examples=120, deadline=None)
@given(_matrix)
def test_rank_nullity(rows):
    m = Mat(F5, rows)
    K = kernel_basis(m)
    assert m.rank() + K.cols == m.cols
    if K.cols:
        assert (m @ K).is_zero()
        assert K.rank() == K.cols  # columns independent


@settings(max_examples=120, deadline=None)
@given(_matrix, st.lists(st.integers(0, 4), min_size=1, max_size=7))
def test_solve_iff_rank_unchanged(rows, bvals):
    m = Mat(F5, rows)
    b = np.array((bvals * 7)[: m.rows], dtype=np.int64)
    x = solve(m, b)
    augmented = m.hstack(Mat(F5, b.reshape(-1, 1)))
    if x is not None:
        assert np.array_equal((m.a @ x) % 5, b % 5)
        assert augmented.rank() == m.rank()
    else:
        assert augmented.rank() == m.rank() + 1


def test_rref_deterministic():
    m = Mat(F5, [[1, 2, 3], [4, 0, 1], [2, 2, 2]])
    r1 = rref(m)
    r2 = rref(Mat(F5, [[1, 2, 3], [4, 0, 1], [2, 2, 2]]))
    assert r1[0] == r2[0] and r1[1] == r2[1]


# -- differential tests against the pure-Python oracle ------------------------

PRIMES = [2, 3, 5, 65521, 2**31 - 1]


def _pair(rng, p, shape):
    """A random pair of operands and the all-(p-1) pair, which maximizes every sum."""
    m, k, n = shape
    yield rng.integers(0, p, (m, k)), rng.integers(0, p, (k, n))
    yield np.full((m, k), p - 1), np.full((k, n), p - 1)


@pytest.mark.parametrize("p", PRIMES)
def test_entrywise_ops_match_oracle(p):
    F = Field(p)
    rng = np.random.default_rng(p)
    for a, b in _pair(rng, p, (4, 5, 4)):
        A, B = Mat(F, a), Mat(F, b.T)
        assert (A + B).a.tolist() == [[(x + y) % p for x, y in zip(r, s)] for r, s in zip(a.tolist(), b.T.tolist())]
        assert (A - B).a.tolist() == [[(x - y) % p for x, y in zip(r, s)] for r, s in zip(a.tolist(), b.T.tolist())]
        assert (-A).a.tolist() == [[-x % p for x in r] for r in a.tolist()]
        for c in (0, 1, -1, p - 1, -(2**40) + 3):
            assert A.scale(c).a.tolist() == [[x * c % p for x in r] for r in a.tolist()]


# m*k*n on both sides of the int64 cut-off (4096), empty shapes, and k = 1,
# where (p-1)^2 alone passes 2^53 for the largest primes
@pytest.mark.parametrize("shape", [(0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1), (3, 3, 3),
                                   (15, 16, 17), (16, 16, 16), (17, 16, 16), (40, 50, 30),
                                   (70, 1, 70)])
@pytest.mark.parametrize("p", PRIMES)
def test_product_matches_oracle(p, shape):
    F = Field(p)
    for a, b in _pair(np.random.default_rng(shape), p, shape):
        expected = oracles.matmul_mod(a.tolist(), b.T.tolist(), p)
        assert (Mat(F, a) @ Mat(F, b)).a.tolist() == expected


def test_product_beyond_limb_chunk():
    # more than 2^21 inner terms whose low 16-bit limbs are odd and near 2^16:
    # the sum of the low-limb products is odd and above 2^53, so float64
    # cannot hold it, and the product is exact only if it is cut into chunks
    p = 2**31 - 1
    F = Field(p)
    rng = np.random.default_rng(21)
    k = 2**21 + 2**19 + 3

    def operand(shape):
        low = 2 * rng.integers(2**15 - 8, 2**15, shape) + 1
        return rng.integers(0, 2**15 - 1, shape) * 2**16 + low

    a, b = operand((1, k)), operand((k, 1))
    # the oracle runs on slices, whose products sum to the whole one
    parts = [oracles.matmul_mod(a[:, s : s + 2**16].tolist(), b[s : s + 2**16].T.tolist(), p)
             for s in range(0, k, 2**16)]
    assert (Mat(F, a) @ Mat(F, b)).a.tolist() == [[sum(x[0][0] for x in parts) % p]]


def _counting_limbs(monkeypatch):
    calls = []
    limbs = exactla._limb_product
    monkeypatch.setattr(exactla, "_limb_product", lambda a, b, p: (calls.append(a.shape), limbs(a, b, p))[1])
    return calls


@pytest.mark.parametrize("shape", [(3, 4, 5), (40, 50, 30)])
def test_small_balanced_operands_skip_the_limbs(monkeypatch, shape):
    # at p = 2^31 - 1 the worst case k(p-1)^2 needs limbs, but entries in
    # {0, 1, p-1} are balanced residues of size 1; on both sides of the int64
    # cut-off the product takes one product, and full-range operands still
    # take the limbs
    p = 2**31 - 1
    F = Field(p)
    calls = _counting_limbs(monkeypatch)
    rng = np.random.default_rng(shape)
    m, k, n = shape
    signs = np.array([0, 1, p - 1])
    a, b = signs[rng.integers(0, 3, (m, k))], signs[rng.integers(0, 3, (k, n))]
    assert (Mat(F, a) @ Mat(F, b)).a.tolist() == oracles.matmul_mod(a.tolist(), b.T.tolist(), p)
    assert calls == []
    a, b = rng.integers(0, p, (m, k)), rng.integers(0, p, (k, n))
    assert (Mat(F, a) @ Mat(F, b)).a.tolist() == oracles.matmul_mod(a.tolist(), b.T.tolist(), p)
    assert calls


def test_balanced_bound_is_strict(monkeypatch):
    # k max|a| max|b| = 8 * 2^25 * 2^25 = 2^53 exactly: a sum may reach 2^53,
    # so the product takes the limbs; one less in max|b| takes one product
    p = 2**31 - 1
    F = Field(p)
    rng = np.random.default_rng(53)
    calls = _counting_limbs(monkeypatch)
    for mb, limbs in ((2**25, True), (2**25 - 1, False)):
        calls.clear()
        a = np.where(rng.integers(0, 2, (6, 8)), 2**25, p - 2**25)
        b = rng.integers(-mb, mb + 1, (8, 7))
        b[0, 0] = -mb
        assert (Mat(F, a) @ Mat(F, b)).a.tolist() == oracles.matmul_mod(a.tolist(), (b % p).T.tolist(), p)
        assert bool(calls) == limbs


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_mod_matches_field_inverse(p):
    # the sparse kernel normalizes each pivot row by the inverse of its
    # pivot entry: the row (v, 1) reduces to (1, 1/v)
    F = Field(p)
    rng = np.random.default_rng(p)
    x = np.concatenate([rng.integers(1, p, 50), [1, p - 1, p - 1, 1], np.arange(1, min(p, 40))])
    for v in x.tolist():
        assert exactla._sparse_rref([{0: v, 1: 1}], p) == {0: {0: 1, 1: F.inv(v)}}
    assert exactla._sparse_rref([], p) == {}


def _block_diagonal(rng, p, blocks, zero_rows, zero_cols):
    """Random blocks of the given shapes down the diagonal, some rank-deficient,
    padded by zero rows and columns, then rows and columns permuted."""
    rows = sum(r for r, _ in blocks) + zero_rows
    cols = sum(c for _, c in blocks) + zero_cols
    a = np.zeros((rows, cols), dtype=np.int64)
    r0 = c0 = 0
    for i, (r, c) in enumerate(blocks):
        blk = rng.integers(0, p, (r, c)) * (rng.random((r, c)) < 0.7)
        if i % 2 and r > 1:
            blk[-1] = blk[0] * 3 % p
        a[r0 : r0 + r, c0 : c0 + c] = blk
        r0, c0 = r0 + r, c0 + c
    return a[rng.permutation(rows)][:, rng.permutation(cols)]


# dense matrices on both sides of the block-detection cut-off (4096 cells),
# empty and zero ones, permuted block-diagonal ones (blocks, zero rows, zero
# columns), dense ones with zero columns among the others, and ones of full
# column rank (a trivial kernel)
_MATRICES = [
    ("dense", (5, 7)), ("dense", (63, 65)), ("dense", (64, 64)), ("dense", (50, 90)),
    ("dense", (0, 5)), ("dense", (5, 0)), ("zero", (40, 120)),
    ("blocks", ([(12, 18), (20, 8), (1, 1), (24, 24), (6, 16)], 2, 3)),
    ("blocks", ([(40, 50), (30, 60)], 0, 0)),
    ("blocks", ([(6, 6)] * 12, 5, 1)),
    ("blocks", ([(3, 5), (2, 2)], 1, 1)),
    ("zero_columns", (9, 14)), ("zero_columns", (70, 90)),
    ("full_column_rank", (12, 7)), ("full_column_rank", (100, 60)),
]


def _matrix(kind, spec, p, seed):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return rng.integers(0, p, spec)
    if kind == "zero":
        return np.zeros(spec, dtype=np.int64)
    if kind == "zero_columns":
        a = rng.integers(0, p, spec)
        a[:, rng.permutation(spec[1])[: spec[1] // 3]] = 0
        return a
    if kind == "full_column_rank":
        # an identity on top of random rows keeps the rank, rows permuted
        rows, cols = spec
        a = np.vstack([np.eye(cols, dtype=np.int64), rng.integers(0, p, (rows - cols, cols))])
        return a[rng.permutation(rows)]
    return _block_diagonal(rng, p, *spec)


@pytest.mark.parametrize("case", range(len(_MATRICES)))
@pytest.mark.parametrize("p", PRIMES)
def test_rref_kernel_solve_match_oracle(p, case):
    F = Field(p)
    a = _matrix(*_MATRICES[case], p, seed=case)
    rows, cols = a.shape
    m = Mat(F, a)

    R, pivots, rank = rref(m)
    expected_rows, expected_pivots = oracles.gauss_rref(a.tolist(), p, cols)
    assert R.a.tolist() == expected_rows and list(pivots) == expected_pivots
    assert rank == len(expected_pivots)

    null = oracles.gauss_nullspace(a.tolist(), p, cols)
    assert kernel_basis(m).a.T.tolist() == null

    k_rank, K, k_pivots = kernel_rref(m)
    expected_rows, expected_pivots = oracles.gauss_rref(null, p, cols)
    assert K.shape == (len(null), cols) and K.a.tolist() == expected_rows
    assert list(k_pivots) == expected_pivots
    assert k_rank == oracles.gauss_rank(a.tolist(), p)

    rng = np.random.default_rng(100 + case)
    x = rng.integers(0, p, (cols, 3))
    solvable = oracles.matmul_mod(a.tolist(), x.T.tolist(), p)  # rows of a @ x
    for B in (np.array(solvable, dtype=np.int64).reshape(rows, 3), rng.integers(0, p, (rows, 2))):
        expected = oracles.gauss_solve(a.tolist(), B.T.tolist(), p, cols)
        X = solve_matrix(m, Mat(F, B))
        assert (X is None) == (expected is None)
        if X is not None:
            assert X.a.tolist() == expected


@pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
def test_pivot_inverse_solves_like_solve_matrix(p):
    F = Field(p)
    rng = np.random.default_rng(p % 997)
    for rows in (0, 1, 4):
        # full row rank, with pivots after a dense lead-in
        m = Mat(F, np.hstack([rng.integers(0, p, (rows, 2)), np.eye(rows, dtype=np.int64),
                              rng.integers(0, p, (rows, 3))]))
        B = m @ Mat(F, rng.integers(0, p, (m.cols, 3)))
        Q, E = pivot_inverse(m)
        X = np.zeros((m.cols, 3), dtype=np.int64)
        X[Q] = (E @ Mat(F, B.a)).a
        assert np.array_equal(X, solve_matrix(m, B).a)
    with pytest.raises(InputError, match="full row rank"):
        pivot_inverse(Mat(F, [[1, 2, 3], [2, 4, 6]]))


@pytest.mark.parametrize("p", [2, 5, 65521, 2**31 - 1])
def test_sparse_rref_matches_oracle(monkeypatch, p):
    # matrices at four densities: the two sparsest hold at most 2(rows +
    # cols) nonzeros and take the sparse rows, the densest takes the dense
    # kernel.  Every one is also reduced by the dense kernel, whose two
    # updates are checked: a pivot column nonzero in a few rows updates only
    # those rows, in many one update covers every row.  The row-restricted
    # update multiplies only nonzero coefficients; the full one also the
    # zero it puts at the pivot row
    F = Field(p)
    rng = np.random.default_rng(p % 1009)
    restricted = []
    outer = np.outer

    def recording(f, row):
        restricted.append(bool(np.all(f != 0)))
        return outer(f, row)

    sparse = []
    for density in (0.005, 0.02, 0.08, 0.3):
        rows, cols = int(rng.integers(32, 161)), int(rng.integers(8, 49))
        a = rng.integers(1, p, (rows, cols)) * (rng.random((rows, cols)) < density)
        R, pivots, rank = rref(Mat(F, a))
        expected_rows, expected_pivots = oracles.gauss_rref(a.tolist(), p, cols)
        assert R.a.tolist() == expected_rows and list(pivots) == expected_pivots, (density, rows, cols)
        sparse.append(exactla._sparse_pivots(a, p, reduced=True) is not None)
        with monkeypatch.context() as patched:
            patched.setattr(np, "outer", recording)
            D, dense_pivots = exactla._eliminate(a.copy(), p)
        assert D.tolist() == expected_rows and list(dense_pivots) == expected_pivots
    assert True in restricted and False in restricted
    assert sparse[:2] == [True, True] and not sparse[3]


def _block(rng, p, shape, kind):
    """One connected block with entries in 1..p-1 where not zeroed: generic;
    rank-deficient (its last row a multiple of its first); "swap", whose
    first row is zero in the first column; or "triangular", an upper
    triangular block with its rows reversed (full row rank for rows <=
    columns, and a swap in the first column too)."""
    r, c = shape
    blk = rng.integers(1, p, (r, c))
    if kind == "deficient" and r > 1:
        blk[-1] = blk[0] * max(1, p - 2) % p
    elif kind == "swap":
        blk[0, 0] = 0
    elif kind == "triangular":
        blk = np.triu(blk)[::-1]
    return blk


def _interleaved_blocks(rng, p, blocks, zero_rows, zero_cols):
    """The blocks, each a (shape, kind) pair, placed block-diagonally with
    zero rows and columns, then interleaved: rows and columns are permuted,
    but each block keeps the order of its own rows and columns, so the
    blocks found in the matrix are the ones built here."""
    built = [_block(rng, p, shape, kind) for shape, kind in blocks]
    rows = sum(b.shape[0] for b in built) + zero_rows
    cols = sum(b.shape[1] for b in built) + zero_cols
    row_at, col_at = rng.permutation(rows), rng.permutation(cols)
    a = np.zeros((rows, cols), dtype=np.int64)
    r0 = c0 = 0
    for b in built:
        r, c = b.shape
        a[np.ix_(np.sort(row_at[r0 : r0 + r]), np.sort(col_at[c0 : c0 + c]))] = b
        r0, c0 = r0 + r, c0 + c
    return a


_KINDS = ("generic", "deficient", "swap")
# many blocks of a few shapes, two shapes that occur once, zero rows and
# columns; the second list has full row rank (for pivot_inverse)
_BATCHED = {
    "mixed": ([((2, 3), _KINDS[i % 3]) for i in range(30)] + [((3, 2), _KINDS[i % 3]) for i in range(24)]
              + [((1, 1), "generic")] * 20 + [((1, 3), "generic")] * 12 + [((2, 1), "generic")] * 10
              + [((5, 4), "swap"), ((4, 7), "deficient")], 4, 3),
    "full_row_rank": ([((2, 3), "triangular")] * 40 + [((1, 2), "generic")] * 30
                      + [((3, 3), "triangular")] * 8 + [((4, 6), "triangular")], 0, 2),
}


@pytest.fixture
def eliminations(monkeypatch):
    """Records every elimination: ("_sparse_rref", finished) for each sparse
    pass (finished is False when its fill passed the work bound) and
    ("_eliminate", shape) for each matrix the dense kernel reduces."""
    calls = []
    eliminate, sparse = exactla._eliminate, exactla._sparse_rref

    def dense_recording(A, p):
        calls.append(("_eliminate", A.shape))
        return eliminate(A, p)

    def sparse_recording(rows, p, *args):
        out = sparse(rows, p, *args)
        calls.append(("_sparse_rref", out is not None))
        return out

    monkeypatch.setattr(exactla, "_eliminate", dense_recording)
    monkeypatch.setattr(exactla, "_sparse_rref", sparse_recording)
    return calls


@pytest.mark.parametrize("p", [2, 5, 65521, 2**31 - 1])
def test_batched_rref_matches_oracle(eliminations, p):
    # many small blocks of a few shapes, with zero rows and columns: rref,
    # kernel_rref, pivot_columns and pivot_inverse all run on sparse rows,
    # and none reaches the dense kernel
    F = Field(p)
    rng = np.random.default_rng(p % 7919)
    a = _interleaved_blocks(rng, p, *_BATCHED["mixed"])
    rows, cols = a.shape
    m = Mat(F, a)

    R, pivots, rank = rref(m)
    expected_rows, expected_pivots = oracles.gauss_rref(a.tolist(), p, cols)
    assert R.a.tolist() == expected_rows and list(pivots) == expected_pivots
    assert rank < rows  # zero rows and rank-deficient blocks
    assert exactla.pivot_columns(m) == pivots and m.rank() == rank

    null = oracles.gauss_nullspace(a.tolist(), p, cols)
    k_rank, K, k_pivots = kernel_rref(m)
    expected_null, expected_null_pivots = oracles.gauss_rref(null, p, cols)
    assert k_rank == rank and K.a.tolist() == expected_null and list(k_pivots) == expected_null_pivots

    b = _interleaved_blocks(rng, p, *_BATCHED["full_row_rank"])
    m = Mat(F, b)
    Q, E = pivot_inverse(m)
    assert eliminations == [("_sparse_rref", True)] * 5
    B = m @ Mat(F, rng.integers(0, p, (m.cols, 3)))
    X = np.zeros((m.cols, 3), dtype=np.int64)
    X[Q] = (E @ Mat(F, B.a[: m.rows])).a
    assert np.array_equal(X, solve_matrix(m, B).a)


def test_equal_blocks_take_one_batched_elimination(eliminations):
    # 64 dense 4 x 6 blocks hold more than 2(rows + cols) nonzeros: the
    # matrix goes whole to one dense elimination, with no sparse pass
    rng = np.random.default_rng(64)
    a = _interleaved_blocks(rng, 5, [((4, 6), _KINDS[i % 3]) for i in range(64)], 0, 0)
    assert np.count_nonzero(a) > 2 * sum(a.shape)
    R, pivots, rank = rref(Mat(F5, a))
    assert eliminations == [("_eliminate", (256, 384))]
    expected_rows, expected_pivots = oracles.gauss_rref(a.tolist(), 5, a.shape[1])
    assert R.a.tolist() == expected_rows and list(pivots) == expected_pivots


def _peelable(kind, p, seed):
    """Matrices with unit rows for the sparse kernel: "planted", a random
    sparse matrix with unit rows (some repeated, some sharing a column with
    a denser row) and zero rows and columns; "chain", a bidiagonal matrix
    with its rows and columns permuted; "dense", with no unit row (it takes
    the dense kernel); "units", unit rows only."""
    rng = np.random.default_rng(seed)
    if kind == "planted":
        rows, cols = 36, 28
        a = rng.integers(1, p, (rows, cols)) * (rng.random((rows, cols)) < 0.12)
        at = rng.permutation(rows)
        units = rng.integers(0, cols, 10)
        units[5:8] = units[:3]  # repeated unit rows
        a[at[:10]] = 0
        a[at[:10], units] = rng.integers(1, p, 10)
        a[at[10:14]] = 0
        a[:, rng.permutation(cols)[:3]] = 0
        return a
    if kind == "chain":
        n = 24
        a = np.diag(rng.integers(1, p, n)) + np.diag(rng.integers(1, p, n - 1), 1)
        return a[rng.permutation(n)][:, rng.permutation(n)]
    if kind == "dense":
        return rng.integers(1, p, (10, 12))
    a = np.zeros((20, 24), dtype=np.int64)
    a[np.arange(20), rng.permutation(24)[:20]] = rng.integers(1, p, 20)
    return a


_PEELABLE = ("planted", "chain", "dense", "units")


@pytest.mark.parametrize("kind", _PEELABLE)
@pytest.mark.parametrize("p", [2, 5, 65521, 2**31 - 1])
def test_peeled_rref_matches_oracle(p, kind):
    F = Field(p)
    a = _peelable(kind, p, seed=p % 101)
    # all but the dense one hold at most 2(rows + cols) nonzeros: sparse rows
    assert (np.count_nonzero(a) > 2 * sum(a.shape)) == (kind == "dense")
    rows, cols = a.shape
    m = Mat(F, a)

    R, pivots, rank = rref(m)
    expected_rows, expected_pivots = oracles.gauss_rref(a.tolist(), p, cols)
    assert R.a.tolist() == expected_rows and list(pivots) == expected_pivots
    assert m.rank() == rank == len(expected_pivots) and exactla.pivot_columns(m) == pivots

    null = oracles.gauss_nullspace(a.tolist(), p, cols)
    k_rank, K, k_pivots = kernel_rref(m)
    expected_null, expected_null_pivots = oracles.gauss_rref(null, p, cols)
    assert k_rank == rank and K.a.tolist() == expected_null and list(k_pivots) == expected_null_pivots

    # pivot_inverse factors the rows that start the oracle's echelon form
    # when those have full row rank, and refuses a rank-deficient input
    if rank < rows:
        with pytest.raises(InputError, match="full row rank"):
            pivot_inverse(m)
        return
    Q, E = pivot_inverse(m)
    assert Q.tolist() == expected_pivots
    inverse, _ = oracles.gauss_rref(np.hstack([a[:, Q], np.eye(rows, dtype=np.int64)]).tolist(), p, 2 * rows)
    assert E.a.tolist() == [row[rows:] for row in inverse]


def test_peeling_leaves_the_residual_to_the_dense_kernel(monkeypatch, eliminations):
    # a dense 4 x 5 block, next to unit rows, a row on their columns and a
    # chain, with zero rows and columns.  Rows are taken fewest entries
    # first, so the unit rows become pivot rows before any arithmetic and
    # clear the row on their columns by one-entry subtractions; nothing
    # reaches the dense kernel
    rng = np.random.default_rng(18)
    a = np.zeros((16, 14), dtype=np.int64)
    a[:4, :5] = rng.integers(1, 5, (4, 5))
    a[4:7, 5:8] = np.diag([1, 2, 3])
    a[7, 5:8] = [4, 1, 1]
    a[8:11, 8:11] = np.diag([2, 3, 4]) + np.diag([1, 1], 1)
    a[11, 8:12] = [1, 0, 2, 3]
    a = a[rng.permutation(16)][:, rng.permutation(14)]
    subtracted = []
    subtract = exactla._subtract

    def recording(row, f, other, p):
        subtracted.append(sorted(other))
        return subtract(row, f, other, p)

    monkeypatch.setattr(exactla, "_subtract", recording)
    R, pivots, rank = rref(Mat(F5, a))
    expected_rows, expected_pivots = oracles.gauss_rref(a.tolist(), 5, a.shape[1])
    assert R.a.tolist() == expected_rows and list(pivots) == expected_pivots
    assert eliminations == [("_sparse_rref", True)]
    unit_columns = [[c] for c in np.flatnonzero(np.count_nonzero(a, axis=0) == 2)
                    if any(np.count_nonzero(a[a[:, c] != 0], axis=1) == 1)]
    assert unit_columns and all(c in subtracted for c in unit_columns)
    # a row listed before the unit rows on its columns is still reduced by
    # them, one entry at a time: rows are taken fewest entries first
    subtracted.clear()
    assert exactla._sparse_rref([{0: 1, 1: 2, 2: 3}, {0: 4}, {1: 1}, {2: 2}], 5) == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}
    assert subtracted == [[0], [1], [2]]
    # unit rows alone: each is a pivot row as it stands, with no arithmetic
    subtracted.clear()
    assert rref(Mat(F5, _peelable("units", 5, seed=18)))[2] == 20 and subtracted == []
    # a dense matrix takes no sparse pass: it goes whole to the dense kernel
    eliminations.clear()
    rref(Mat(F5, rng.integers(1, 5, (8, 8))))
    assert eliminations == [("_eliminate", (8, 8))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 2**31 - 1]), st.integers(1, 6), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_eliminate_batch_matches_eliminate(p, n, rows, cols, seed):
    # each of n small matrices reduced on sparse rows (_sparse_rref, no work
    # bound) and by the dense kernel gives the same rows and pivots,
    # including zero matrices, sparse ones that need row swaps and ones that
    # are full early
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, p, (n, rows, cols)) * (rng.random((n, rows, cols)) < rng.random((n, 1, 1)))
    for k in range(n):
        A, piv = exactla._eliminate(stack[k].copy(), p)
        pivot = exactla._sparse_rref([{j: v for j, v in enumerate(row) if v} for row in stack[k].tolist()], p)
        assert sorted(pivot) == piv
        assert [[pivot[c].get(j, 0) for j in range(cols)] for c in piv] == A[: len(piv)].tolist()


def _kernel_input(kind, p):
    """Inputs for the two paths of the kernel: "fill", sparse rows of two
    entries whose row operations fill in, with repeated and zero rows; empty
    and zero shapes; "dense", all entries nonzero; "arrow", a dense first
    row and column on a diagonal, sparse, but each row reduced in turn
    walks the whole chain of earlier pivots, so its fill passes the work
    bound.  The nonzero pattern does not depend on p."""
    pattern, values = np.random.default_rng(0), np.random.default_rng(p)
    if kind == "fill":
        a = np.zeros((30, 40), dtype=np.int64)
        for i in range(26):
            a[i, pattern.choice(40, 2, replace=False)] = values.integers(1, p, 2)
        a[26:29] = a[:3]
        return a
    if kind == "dense":
        return values.integers(1, p, (12, 15))
    if kind == "arrow":
        a = np.diag(values.integers(1, p, 40))
        a[0], a[:, 0] = values.integers(1, p, 40), values.integers(1, p, 40)
        return a
    return np.zeros({"zero": (6, 9), "no_rows": (0, 7), "no_columns": (7, 0)}[kind], dtype=np.int64)


# the eliminations rref makes of each input
_KERNEL_PATHS = {
    "fill": [("_sparse_rref", True)],
    "zero": [], "no_rows": [], "no_columns": [],
    "dense": [("_eliminate", (12, 15))],
    "arrow": [("_sparse_rref", False), ("_eliminate", (40, 40))],
}


@pytest.mark.parametrize("kind", sorted(_KERNEL_PATHS))
@pytest.mark.parametrize("p", [2, 5, 65521, 2**31 - 1])
def test_sparse_kernel_paths_match_oracle(monkeypatch, eliminations, p, kind):
    F = Field(p)
    a = _kernel_input(kind, p)
    rows, cols = a.shape
    m = Mat(F, a)
    subtracted = []
    subtract = exactla._subtract

    def recording(row, f, other, p):
        subtracted.append(len(other))
        return subtract(row, f, other, p)

    monkeypatch.setattr(exactla, "_subtract", recording)
    R, pivots, rank = rref(m)
    assert eliminations == _KERNEL_PATHS[kind]
    assert bool(subtracted) == (kind in ("fill", "arrow"))
    # a pass stops at the first row operation that takes it over the bound
    assert sum(subtracted[:-1]) <= a.size // 16 + 64
    expected_rows, expected_pivots = oracles.gauss_rref(a.tolist(), p, cols)
    assert R.shape == a.shape and R.a.tolist() == expected_rows and list(pivots) == expected_pivots
    assert exactla.pivot_columns(m) == pivots and m.rank() == rank == len(expected_pivots)

    null = oracles.gauss_nullspace(a.tolist(), p, cols)
    k_rank, K, k_pivots = kernel_rref(m)
    expected_null, expected_null_pivots = oracles.gauss_rref(null, p, cols)
    assert k_rank == rank and K.shape == (len(null), cols)
    assert K.a.tolist() == expected_null and list(k_pivots) == expected_null_pivots
