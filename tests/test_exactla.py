import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cxlab.errors import InputError
from cxlab import exactla
from cxlab.exactla import Field, Mat, kernel_basis, kernel_rref, pivot_inverse, rref
from oracles import solve, solve_matrix

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
    F = Field(p)
    rng = np.random.default_rng(p)
    x = np.concatenate([rng.integers(1, p, 50), [1, p - 1, p - 1, 1], np.arange(1, min(p, 40))])
    assert exactla._inverse_mod(x, p).tolist() == [F.inv(int(v)) for v in x]
    assert exactla._inverse_mod(np.zeros(0, dtype=np.int64), p).shape == (0,)


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
    # sparse matrices, where a pivot column is nonzero in a few rows (only
    # those rows are updated) or in many (one update covers every row).  The
    # row-restricted update multiplies only nonzero coefficients; the full
    # one also the zero it puts at the pivot row.  rref peels the singleton
    # rows first, so the dense kernel's two paths are checked on _rref_dense
    F = Field(p)
    rng = np.random.default_rng(p % 1009)
    restricted = []
    outer = np.outer

    def recording(f, row):
        restricted.append(bool(np.all(f != 0)))
        return outer(f, row)

    for density in (0.005, 0.02, 0.08, 0.3):
        rows, cols = int(rng.integers(32, 161)), int(rng.integers(8, 49))
        a = rng.integers(1, p, (rows, cols)) * (rng.random((rows, cols)) < density)
        R, pivots, rank = rref(Mat(F, a))
        expected_rows, expected_pivots = oracles.gauss_rref(a.tolist(), p, cols)
        assert R.a.tolist() == expected_rows and list(pivots) == expected_pivots, (density, rows, cols)
        with monkeypatch.context() as patched:
            patched.setattr(np, "outer", recording)
            D, dense_pivots = exactla._rref_dense(a, p)
        assert D.tolist() == expected_rows and list(dense_pivots) == expected_pivots
    assert True in restricted and False in restricted


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
    """Records the shape of every stack the batched kernel reduces and of
    every matrix _eliminate reduces."""
    calls = []
    for name in ("_eliminate", "_eliminate_batch"):
        kernel = getattr(exactla, name)

        def recording(A, p, kernel=kernel, name=name):
            calls.append((name, A.shape))
            return kernel(A, p)

        monkeypatch.setattr(exactla, name, recording)
    return calls


@pytest.mark.parametrize("p", [2, 5, 65521, 2**31 - 1])
def test_batched_rref_matches_oracle(eliminations, p):
    F = Field(p)
    rng = np.random.default_rng(p % 7919)
    a = _interleaved_blocks(rng, p, *_BATCHED["mixed"])
    assert a.size >= exactla._BLOCK_MIN_CELLS
    rows, cols = a.shape
    m = Mat(F, a)

    R, pivots, rank = rref(m)
    expected_rows, expected_pivots = oracles.gauss_rref(a.tolist(), p, cols)
    assert R.a.tolist() == expected_rows and list(pivots) == expected_pivots
    assert rank < rows  # zero rows and rank-deficient blocks

    null = oracles.gauss_nullspace(a.tolist(), p, cols)
    k_rank, K, k_pivots = kernel_rref(m)
    expected_null, expected_null_pivots = oracles.gauss_rref(null, p, cols)
    assert k_rank == rank and K.a.tolist() == expected_null and list(k_pivots) == expected_null_pivots

    # rref peels the singleton rows (of the (1, 1) and (2, 1) blocks) before
    # the dense kernel; on the whole matrix, and on it with its columns
    # reversed (as kernel_rref reduces it), every repeated shape goes
    # through the batched kernel and only the shapes that occur once reach
    # _eliminate
    eliminations.clear()
    D, dense_pivots = exactla._rref_dense(a, p)
    assert D.tolist() == expected_rows and list(dense_pivots) == expected_pivots
    exactla._rref_dense(a[:, ::-1], p)
    batched = [shape for name, shape in eliminations if name == "_eliminate_batch"]
    single = sorted(shape for name, shape in eliminations if name == "_eliminate")
    assert sorted(shape[1:] for shape in batched) == sorted(2 * [(2, 3), (3, 2), (1, 1), (1, 3), (2, 1)])
    assert sum(shape[0] for shape in batched) == 2 * (30 + 24 + 20 + 12 + 10)
    assert single == [(4, 7), (4, 7), (5, 4), (5, 4)]  # m, and m with its columns reversed

    eliminations.clear()
    b = _interleaved_blocks(rng, p, *_BATCHED["full_row_rank"])
    m = Mat(F, b)
    Q, E = pivot_inverse(m)
    assert any(name == "_eliminate_batch" for name, _ in eliminations)
    B = m @ Mat(F, rng.integers(0, p, (m.cols, 3)))
    X = np.zeros((m.cols, 3), dtype=np.int64)
    X[Q] = (E @ Mat(F, B.a[: m.rows])).a
    assert np.array_equal(X, solve_matrix(m, B).a)


def test_equal_blocks_take_one_batched_elimination(eliminations):
    # 64 blocks of one shape: one call of the batched kernel, none of _eliminate
    rng = np.random.default_rng(64)
    a = _interleaved_blocks(rng, 5, [((4, 6), _KINDS[i % 3]) for i in range(64)], 0, 0)
    R, pivots, rank = rref(Mat(F5, a))
    assert eliminations == [("_eliminate_batch", (64, 4, 6))]
    expected_rows, expected_pivots = oracles.gauss_rref(a.tolist(), 5, a.shape[1])
    assert R.a.tolist() == expected_rows and list(pivots) == expected_pivots


def _peelable(kind, p, seed):
    """Matrices for the singleton-row peeling of rref: "planted", a random
    sparse matrix with unit rows (some repeated, some sharing a column with
    a denser row) and zero rows and columns; "chain", a bidiagonal matrix
    with its rows and columns permuted, where each pass peels one row;
    "dense", with no singleton row; "units", unit rows only."""
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
    assert a.size >= exactla._PEEL_MIN_CELLS
    rows, cols = a.shape
    m = Mat(F, a)

    R, pivots, rank = rref(m)
    expected_rows, expected_pivots = oracles.gauss_rref(a.tolist(), p, cols)
    assert R.a.tolist() == expected_rows and list(pivots) == expected_pivots
    assert m.rank() == rank == len(expected_pivots)

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


def test_peeling_leaves_the_residual_to_the_dense_kernel(monkeypatch):
    # a dense 4 x 5 block, next to unit rows, a row on their columns and a
    # chain that peels one row per pass, with zero rows and columns:
    # _rref_dense sees only the block
    rng = np.random.default_rng(18)
    a = np.zeros((16, 14), dtype=np.int64)
    a[:4, :5] = rng.integers(1, 5, (4, 5))
    a[4:7, 5:8] = np.diag([1, 2, 3])
    a[7, 5:8] = [4, 1, 1]
    a[8:11, 8:11] = np.diag([2, 3, 4]) + np.diag([1, 1], 1)
    a[11, 8:12] = [1, 0, 2, 3]
    a = a[rng.permutation(16)][:, rng.permutation(14)]
    shapes = []
    dense = exactla._rref_dense

    def recording(b, p):
        shapes.append(b.shape)
        return dense(b, p)

    monkeypatch.setattr(exactla, "_rref_dense", recording)
    R, pivots, rank = rref(Mat(F5, a))
    expected_rows, expected_pivots = oracles.gauss_rref(a.tolist(), 5, a.shape[1])
    assert R.a.tolist() == expected_rows and list(pivots) == expected_pivots
    assert shapes == [(4, 5)]
    # nothing to peel: the whole matrix goes to the dense kernel
    rref(Mat(F5, rng.integers(1, 5, (8, 8))))
    assert shapes == [(4, 5), (8, 8)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 2**31 - 1]), st.integers(1, 6), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_eliminate_batch_matches_eliminate(p, n, rows, cols, seed):
    # each matrix of the stack reduced on its own, including zero matrices,
    # sparse ones that need row swaps and ones that are full early
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, p, (n, rows, cols)) * (rng.random((n, rows, cols)) < rng.random((n, 1, 1)))
    B, P = exactla._eliminate_batch(stack.copy(), p)
    for k in range(n):
        A, piv = exactla._eliminate(stack[k].copy(), p)
        assert B[k].tolist() == A.tolist()
        assert P[k].tolist() == piv + [-1] * (rows - len(piv))
