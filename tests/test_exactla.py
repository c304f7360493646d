import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cxlab.errors import InputError, InvariantError
from cxlab import exactla
from cxlab.exactla import Field, Mat, _dict_rows, _sparse_factor, kernel_rref, rref
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
    assert Mat(F5, np.array([[True, False]])).a.tolist() == [[1, 0]]
    assert Mat(F5, np.array([[-1, 127]], dtype=np.int8)).a.tolist() == [[4, 2]]
    big = Field(2**31 - 1)
    assert Mat(big, [[-(2**40), 2**31 - 1, 2**62]]).a.tolist() == [
        [-(2**40) % big.p, 0, 2**62 % big.p]]
    a, b = Mat(F5, [[4, 1]]), Mat(F5, [[3, 4]])
    assert (a + b).a.tolist() == [[2, 0]]
    assert (b - a).a.tolist() == [[4, 3]]
    assert (-a).a.tolist() == [[1, 4]]
    assert a.scale(-1).a.tolist() == [[1, 4]]
    assert a.scale(7).a.tolist() == [[3, 2]]


# entries Mat(...) refuses: an array that is not of integers or booleans,
# whose int64 cast would truncate, parse, overflow or wrap
_NOT_INTEGERS = {
    "fractions": [[0.5, 2.7]],
    "large_float": [[1e20]],
    "nan": [[float("nan")]],
    "integral_floats": np.array([[1.0, 2.0]]),
    "strings": [["1", "2"]],
    "beyond_int64": [[2**70]],
    "object_array": np.array([[1, 2]], dtype=object),
}


@pytest.mark.parametrize("case", sorted(_NOT_INTEGERS))
def test_public_constructor_refuses_non_integer_dtypes(case):
    with pytest.raises(InputError, match="must be integers"):
        Mat(F5, _NOT_INTEGERS[case])


@pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64])
def test_public_constructor_reduces_unsigned_before_the_cast(dtype):
    # 2^64 - 1 = 0 mod 5 and 2^64 - 2 = 4; the int64 cast of either is
    # negative, so an unsigned array is reduced first
    top = np.iinfo(dtype).max
    got = Mat(F5, np.array([[top, top - 1, 7]], dtype=dtype)).a
    assert got.dtype == np.int64
    assert got.tolist() == [[int(top) % 5, (int(top) - 1) % 5, 2]]


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


def _factor(m):
    """_sparse_factor of m, a Mat, given as its rows: (Q, E)."""
    return _sparse_factor(_dict_rows(m.a), m.cols, m.field.p)


def _factored_solve(E, m, B):
    """The solution of m X = B from the factor E of m: column j of X is the
    sum of B[q, j] E[q], in Python integers."""
    p = m.field.p
    return np.array([[sum(int(B[q, j]) * E[q].get(c, 0) for q in range(m.rows)) % p for j in range(B.shape[1])]
                     for c in range(m.cols)], dtype=np.int64).reshape(m.cols, B.shape[1])


def _inverse_rows(Q, E):
    """The factor's columns E[q], dicts keyed by Q, as the rows of the
    inverse of m[:, Q]: entry (k, q) at key Q[k] of E[q]."""
    return [[E[q].get(c, 0) for q in range(len(Q))] for c in Q]


@pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
def test_sparse_factor_solves_like_solve_matrix(p):
    F = Field(p)
    rng = np.random.default_rng(p % 997)
    for rows in (0, 1, 4):
        # full row rank, with pivots after a dense lead-in
        m = Mat(F, np.hstack([rng.integers(0, p, (rows, 2)), np.eye(rows, dtype=np.int64),
                              rng.integers(0, p, (rows, 3))]))
        B = m @ Mat(F, rng.integers(0, p, (m.cols, 3)))
        Q, E = _factor(m)
        assert type(Q) is list and type(E) is list and all(type(e) is dict for e in E)
        assert np.array_equal(_factored_solve(E, m, B.a), solve_matrix(m, B).a)
    with pytest.raises(InvariantError, match="full row rank"):
        _factor(Mat(F, [[1, 2, 3], [2, 4, 6]]))


@pytest.mark.parametrize("p", [2, 5, 65521, 2**31 - 1])
def test_sparse_rref_matches_oracle(p):
    # matrices at four densities, from nearly empty to nearly a third full;
    # the echelon pass alone gives the same pivot columns
    F = Field(p)
    rng = np.random.default_rng(p % 1009)
    for density in (0.005, 0.02, 0.08, 0.3):
        rows, cols = int(rng.integers(32, 161)), int(rng.integers(8, 49))
        a = rng.integers(1, p, (rows, cols)) * (rng.random((rows, cols)) < density)
        m = Mat(F, a)
        R, pivots, rank = rref(m)
        expected_rows, expected_pivots = oracles.gauss_rref(a.tolist(), p, cols)
        assert R.a.tolist() == expected_rows and list(pivots) == expected_pivots, (density, rows, cols)
        assert exactla.pivot_columns(m) == pivots and m.rank() == rank


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
# columns; the second list has full row rank (for _sparse_factor)
_BATCHED = {
    "mixed": ([((2, 3), _KINDS[i % 3]) for i in range(30)] + [((3, 2), _KINDS[i % 3]) for i in range(24)]
              + [((1, 1), "generic")] * 20 + [((1, 3), "generic")] * 12 + [((2, 1), "generic")] * 10
              + [((5, 4), "swap"), ((4, 7), "deficient")], 4, 3),
    "full_row_rank": ([((2, 3), "triangular")] * 40 + [((1, 2), "generic")] * 30
                      + [((3, 3), "triangular")] * 8 + [((4, 6), "triangular")], 0, 2),
}


@pytest.fixture
def eliminations(monkeypatch):
    """Records every elimination: for each _sparse_rref pass, whether it
    back-substitutes (reduced)."""
    calls = []
    sparse = exactla._sparse_rref

    def recording(rows, p, reduced=True):
        calls.append(reduced)
        return sparse(rows, p, reduced)

    monkeypatch.setattr(exactla, "_sparse_rref", recording)
    return calls


@pytest.mark.parametrize("p", [2, 5, 65521, 2**31 - 1])
def test_batched_rref_matches_oracle(eliminations, p):
    # many small blocks of a few shapes, with zero rows and columns: rref,
    # kernel_rref, pivot_columns, rank and _sparse_factor are one sparse pass
    # each, and only pivot_columns and rank skip back substitution
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
    Q, E = _factor(m)
    assert eliminations == [True, False, False, True, True]
    B = m @ Mat(F, rng.integers(0, p, (m.cols, 3)))
    assert np.array_equal(_factored_solve(E, m, B.a), solve_matrix(m, B).a)


def test_equal_blocks_take_one_batched_elimination(eliminations):
    # 64 dense 4 x 6 blocks hold more than 2(rows + cols) nonzeros; the
    # matrix is still one sparse pass, whose row operations stay inside the
    # blocks: a row is reduced only by pivot rows of its own block
    rng = np.random.default_rng(64)
    a = _interleaved_blocks(rng, 5, [((4, 6), _KINDS[i % 3]) for i in range(64)], 0, 0)
    assert np.count_nonzero(a) > 2 * sum(a.shape)
    R, pivots, rank = rref(Mat(F5, a))
    assert eliminations == [True]
    expected_rows, expected_pivots = oracles.gauss_rref(a.tolist(), 5, a.shape[1])
    assert R.a.tolist() == expected_rows and list(pivots) == expected_pivots


def _peelable(kind, p, seed):
    """Matrices with unit rows for the sparse kernel: "planted", a random
    sparse matrix with unit rows (some repeated, some sharing a column with
    a denser row) and zero rows and columns; "chain", a bidiagonal matrix
    with its rows and columns permuted; "dense", with no unit row; "units",
    unit rows only."""
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
    # all but the dense one hold at most 2(rows + cols) nonzeros
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

    # _sparse_factor factors the rows that start the oracle's echelon form
    # when those have full row rank, and refuses a rank-deficient input
    if rank < rows:
        with pytest.raises(InvariantError, match="full row rank"):
            _factor(m)
        return
    Q, E = _factor(m)
    assert Q == expected_pivots
    inverse, _ = oracles.gauss_rref(np.hstack([a[:, Q], np.eye(rows, dtype=np.int64)]).tolist(), p, 2 * rows)
    assert _inverse_rows(Q, E) == [row[rows:] for row in inverse]


def test_unit_rows_pivot_before_any_arithmetic(monkeypatch, eliminations):
    # a dense 4 x 5 block, next to unit rows, a row on their columns and a
    # chain, with zero rows and columns.  Rows are taken fewest entries
    # first, so the unit rows become pivot rows before any arithmetic and
    # clear the row on their columns by one-entry subtractions
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
        subtract(row, f, other, p)

    monkeypatch.setattr(exactla, "_subtract", recording)
    R, pivots, rank = rref(Mat(F5, a))
    expected_rows, expected_pivots = oracles.gauss_rref(a.tolist(), 5, a.shape[1])
    assert R.a.tolist() == expected_rows and list(pivots) == expected_pivots
    assert eliminations == [True]
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
    # a dense matrix is one sparse pass too
    eliminations.clear()
    d = rng.integers(1, 5, (8, 8))
    R, pivots, rank = rref(Mat(F5, d))
    assert eliminations == [True]
    assert (R.a.tolist(), list(pivots)) == oracles.gauss_rref(d.tolist(), 5, 8)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 2**31 - 1]), st.integers(1, 6), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_small_sparse_rref_matches_oracle(p, n, rows, cols, seed):
    # each of n small matrices reduced on sparse rows gives the oracle's
    # rows and pivots, and the echelon pass alone its pivots, including
    # zero matrices, sparse ones that need row swaps and ones that are full
    # early
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, p, (n, rows, cols)) * (rng.random((n, rows, cols)) < rng.random((n, 1, 1)))
    for k in range(n):
        expected_rows, expected_pivots = oracles.gauss_rref(stack[k].tolist(), p, cols)
        dict_rows = [{j: v for j, v in enumerate(row) if v} for row in stack[k].tolist()]
        assert sorted(exactla._sparse_rref([dict(r) for r in dict_rows], p, reduced=False)) == expected_pivots
        pivot = exactla._sparse_rref(dict_rows, p)
        assert sorted(pivot) == expected_pivots
        assert [[pivot[c].get(j, 0) for j in range(cols)] for c in expected_pivots] == expected_rows[: len(pivot)]


def _kernel_input(kind, p):
    """Inputs for the kernel: "fill", sparse rows of two entries whose row
    operations fill in, with repeated and zero rows; empty and zero shapes;
    "dense", all entries nonzero; "arrow", a dense first row and column on
    a diagonal, sparse, but each row reduced in turn walks the whole chain
    of earlier pivots, so its row operations touch more entries than it
    has.  The nonzero pattern does not depend on p."""
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


@pytest.mark.parametrize("kind", ["arrow", "dense", "fill", "no_columns", "no_rows", "zero"])
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
        subtract(row, f, other, p)

    monkeypatch.setattr(exactla, "_subtract", recording)
    R, pivots, rank = rref(m)
    # a matrix with no nonzero entry takes no pass
    assert eliminations == ([True] if a.any() else [])
    assert bool(subtracted) == (kind in ("fill", "dense", "arrow"))
    if kind == "arrow":
        assert sum(subtracted) > np.count_nonzero(a)
    expected_rows, expected_pivots = oracles.gauss_rref(a.tolist(), p, cols)
    assert R.shape == a.shape and R.a.tolist() == expected_rows and list(pivots) == expected_pivots
    assert exactla.pivot_columns(m) == pivots and m.rank() == rank == len(expected_pivots)

    null = oracles.gauss_nullspace(a.tolist(), p, cols)
    k_rank, K, k_pivots = kernel_rref(m)
    expected_null, expected_null_pivots = oracles.gauss_rref(null, p, cols)
    assert k_rank == rank and K.shape == (len(null), cols)
    assert K.a.tolist() == expected_null and list(k_pivots) == expected_null_pivots
