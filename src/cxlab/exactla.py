"""Exact dense linear algebra over prime fields F_p.

This is the sole arithmetic substrate of the engine.  Matrices are int64
arrays with entries normalized to [0, p); every operation returns the exact
residues.  Products run through float64 BLAS only where that is exact: a
sum of k products of residues is at most k(p-1)^2, and while that is below
2^53 every partial sum is an integer that float64 represents exactly, in
any summation order and with or without fused multiply-add (the bound of
FFLAS-FFPACK: Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  Past that
bound the operands are lifted to balanced residues in (-p/2, p/2], and
while k max|a| max|b| stays below 2^53 one product is still exact (entries
of +-1 at p = 2^31 - 1 take this path); otherwise each operand is split
into 16-bit limbs.  Pivoting is deterministic (first nonzero entry in
column order), so all derived bases are reproducible across runs and
platforms.

A Mat has two constructors.  The public Mat(field, array) reduces its input
mod p (a copy), and so do +, -, negation and scale.  The private
Mat._trusted wraps an array that is reduced by construction (a product, an
echelon form, a transpose, a stack or slice of reduced arrays) without a
copy.  Elimination first peels the rows with a single nonzero entry: each
is a multiple of a unit vector e_c, so c is a pivot column whose reduced
row is e_c; the column is cleared from the nonzero pattern without any
arithmetic, which may make new singleton rows (the singleton step of
structured Gaussian elimination).  On the benchmark's inputs peeling
leaves about a tenth of the cells.  The residual clears each pivot column only in the rows where it
is nonzero while those are fewer than a quarter of the rows, and with one
rank-1 update of the whole block otherwise.  A large residual is split into
the blocks of its nonzero pattern (over a monomial complete intersection,
many tiny blocks of a few shapes), and the blocks of each shape are
stacked and eliminated together, column by column, by one batched kernel,
and their pivot rows are normalized with one inverse per distinct pivot
value.  The reduced echelon form of a row space is unique, so every path
gives the same result.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError

__all__ = ["Field", "Mat", "rref", "kernel_basis", "kernel_rref", "pivot_inverse"]


@functools.lru_cache
def _is_prime(n: int) -> bool:
    """Trial division, once per n: each Field construction asks again."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Field:
    """The prime field F_p with 2 <= p < 2**31, validated at construction."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not (2 <= self.p < 2**31):
            raise InputError(f"field cardinality out of range: {self.p!r}")
        if not _is_prime(self.p):
            raise InputError(f"field cardinality must be prime, got {self.p}")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, self.p - 2, self.p)


# Below this many multiply-adds an int64 product beats BLAS with its float64
# conversions; the int64 path is taken only where it cannot overflow.
_INT64_MAX_MADDS = 4096
_LIMB_BITS = 16
# Limb products are below 2^32, so fewer than 2^21 of them sum exactly in float64.
_LIMB_CHUNK = 2**21


def _f64_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b through float64 BLAS; exact while every sum stays below 2^53."""
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)


def _limb_product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for p < 2^31 and fewer than 2^21 inner terms.

    With a = a1·2^16 + a0 and b likewise, a1, b1 < 2^15 and a0, b0 < 2^16,
    so each limb sum is below 2^21·2^32 = 2^53 and exact in float64.
    """
    a1, a0 = np.divmod(a, 1 << _LIMB_BITS)
    b1, b0 = np.divmod(b, 1 << _LIMB_BITS)
    hi = _f64_product(a1, b1) % p
    mid = (_f64_product(a1, b0) + _f64_product(a0, b1)) % p
    lo = _f64_product(a0, b0)
    # each term stays below 2^62, so the sum fits in int64
    return (hi * (2 ** (2 * _LIMB_BITS) % p) + (mid << _LIMB_BITS) + lo) % p


def _balanced(a: np.ndarray, p: int):
    """a with its residues lifted to (-p/2, p/2], and the largest |entry|."""
    b = np.where(a > p // 2, a - p, a)
    return b, max(int(b.max(initial=0)), -int(b.min(initial=0)))


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, exact (entries of a, b lie in [0, p))."""
    m, k = a.shape
    n = b.shape[1]
    bound = k * (p - 1) ** 2  # the largest possible entry of a @ b
    if bound >= 2**53:
        # the worst case needs limbs; operands of small balanced residues
        # (such as +-1) bound every partial sum by k max|a| max|b| instead
        sa, ma = _balanced(a, p)
        sb, mb = _balanced(b, p)
        if k * ma * mb < 2**53:
            a, b, bound = sa, sb, k * ma * mb
    if m * k * n < _INT64_MAX_MADDS and bound < 2**63:
        return (a @ b) % p
    if bound < 2**53:
        return _f64_product(a, b) % p
    out = np.zeros((m, n), dtype=np.int64)
    for s in range(0, k, _LIMB_CHUNK):
        out += _limb_product(a[:, s : s + _LIMB_CHUNK], b[s : s + _LIMB_CHUNK], p)
        out %= p
    return out


class Mat:
    """Immutable dense matrix over a prime field.

    Entries are stored row-major as a read-only int64 array, reduced mod p.
    """

    __slots__ = ("field", "a", "_rank")

    def __init__(self, field: Field, array):
        arr = np.asarray(array, dtype=np.int64)
        if arr.ndim != 2:
            raise InputError(f"matrix must be 2-dimensional, got shape {arr.shape}")
        self._wrap(field, arr % field.p)

    @classmethod
    def _trusted(cls, field: Field, arr: np.ndarray) -> "Mat":
        """Wrap arr, a 2-D int64 array already reduced mod p, as it is: no
        copy and no reduction.  Only for results that are reduced by
        construction; every other array goes through Mat(...), which reduces."""
        m = object.__new__(cls)
        m._wrap(field, arr)
        return m

    def _wrap(self, field: Field, arr: np.ndarray):
        arr.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", arr)
        object.__setattr__(self, "_rank", None)

    def __setattr__(self, name, value):
        if name == "_rank":
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("Mat is immutable")

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Mat":
        return cls._trusted(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        return cls._trusted(field, np.eye(n, dtype=np.int64))

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "Mat":
        if len(rows) == 0:
            if cols is None:
                raise InputError("cannot infer column count of an empty matrix")
            return cls.zeros(field, 0, cols)
        return cls(field, np.array([list(r) for r in rows], dtype=np.int64))

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.cols != other.rows:
            raise InputError(f"shape mismatch in product: {self.shape} @ {other.shape}")
        return Mat._trusted(self.field, _matmul_mod(self.a, other.a, self.field.p))

    def __add__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.shape != other.shape:
            raise InputError(f"shape mismatch in sum: {self.shape} + {other.shape}")
        return Mat(self.field, self.a + other.a)

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_field(other)
        if self.shape != other.shape:
            raise InputError(f"shape mismatch in difference: {self.shape} - {other.shape}")
        return Mat(self.field, self.a - other.a)

    def __neg__(self) -> "Mat":
        return Mat(self.field, -self.a)

    def scale(self, c: int) -> "Mat":
        # both factors are below p < 2^31, so the product fits in int64
        return Mat(self.field, self.a * (c % self.field.p))

    def transpose(self) -> "Mat":
        return Mat._trusted(self.field, self.a.T)

    def hstack(self, other: "Mat") -> "Mat":
        self._check_field(other)
        return Mat._trusted(self.field, np.hstack([self.a, other.a]))

    def vstack(self, other: "Mat") -> "Mat":
        self._check_field(other)
        return Mat._trusted(self.field, np.vstack([self.a, other.a]))

    @property
    def shape(self) -> tuple:
        return self.a.shape

    def is_zero(self) -> bool:
        return not self.a.any()

    def rank(self) -> int:
        if self._rank is None:
            self._rank = rref(self)[2]
        return self._rank

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.shape == other.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self):
        return hash((self.field, self.shape, self.a.tobytes()))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols} over F_{self.field.p})"

    def _check_field(self, other: "Mat"):
        if self.field != other.field:
            raise InputError("matrices over different fields")


# Below _PEEL_MIN_CELLS cells a matrix goes to _eliminate whole: looking
# for singleton rows costs more than they save.  Below _BLOCK_MIN_CELLS the
# residual left after peeling is eliminated whole: finding and grouping its
# blocks costs more than it saves.  Measured on the 2768 RREF inputs of one
# seed-0 pass of each benchmark workload (2 vCPUs, one BLAS thread, best of
# 15 repeats), summed by size.  Inputs, whole against peeled: 32-48 cells
# (144 inputs) 2.4 against 3.6 ms, 48-64 cells (61) 1.3 against 1.4 ms,
# 64-96 cells (181) 5.5 against 4.9 ms.  Peeling leaves 843 nonempty
# residuals (276k of the 2.69M cells); residuals, whole against blocked:
# 512-1024 cells (59) 5.7 against 9.5 ms, 1024-2048 cells (26) 3.7
# against 4.3 ms, 2048-8192 cells (9) 3.4 against 3.8 ms, above 8192 cells
# (5) 5.5 against 3.6 ms.  All inputs take the same time, within the spread
# of repeats (100-112 ms), with the block cut at 2048, 4096, 8192 or 16384.
_PEEL_MIN_CELLS = 48
_BLOCK_MIN_CELLS = 8192


def _eliminate(A: np.ndarray, p: int):
    """RREF of A in place; returns (A, pivot column list).

    Each pivot clears its column in the rows where that column is nonzero.
    When they are few (fewer than a quarter of the rows), only those rows
    are updated, so the work follows the fill rather than the size of A
    (cf. LaMacchia and Odlyzko, "Solving large sparse linear systems over
    finite fields", CRYPTO '90); otherwise one rank-1 update covers all
    rows.  Both give the same array.
    """
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = A[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r] = (A[r] * inv) % p
        hit = A[:, c].nonzero()[0]
        if hit.size > 1:
            if 4 * hit.size < rows:
                others = hit[hit != r]
                A[others] = (A[others] - np.outer(A[others, c], A[r])) % p
            else:
                f = A[:, c].copy()
                f[r] = 0
                A -= np.outer(f, A[r])
                A %= p
        pivots.append(c)
        r += 1
    return A, pivots


def _complement(n: int, indices) -> np.ndarray:
    """The sorted indices 0..n-1 that are not among indices (a sequence of
    distinct ones, such as pivot columns), from one boolean mask."""
    keep = np.ones(n, dtype=bool)
    keep[np.asarray(indices, dtype=np.intp)] = False
    return keep.nonzero()[0]


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Entrywise inverses of the nonzero residues x, a vector: one pow per
    distinct value (pivots take few)."""
    values, where = np.unique(x, return_inverse=True)
    return np.array([pow(int(v), -1, p) for v in values], dtype=np.int64)[where]


def _eliminate_batch(B: np.ndarray, p: int):
    """RREF of every matrix of the stack B, shape (n, rows, cols), in place.

    Returns (B, P): P[k, i] is the pivot column of row i of matrix k, or -1
    below its rank.  The rules are those of _eliminate, applied to all n
    matrices at once, so each column costs a fixed number of array
    operations whatever n is (batched factorization: Haidar, Dong,
    Luszczek, Tomov and Dongarra, IJHPCA 29(2), 2015).  Each matrix keeps
    its own current row; its pivot is the first nonzero entry at or below
    it, swapped up.  Every row j is replaced by v·A_j - f_j·A_r, with v the
    pivot and f_j the column's entry in row j (f_r = 0): a row operation
    that needs no inverse, which keeps every term below 2^62.  A matrix
    without a pivot in the column gets v = 1 and f = 0.  The pivot rows are
    normalized once at the end.
    """
    n, rows, cols = B.shape
    k = np.arange(n)
    row = np.arange(rows)
    r = np.zeros(n, dtype=np.intp)
    P = np.full((n, rows), -1, dtype=np.intp)
    for c in range(cols):
        top = np.minimum(r, rows - 1)
        below = (B[:, :, c] != 0) & (row >= r[:, None])
        has = below.any(axis=1)
        if not has.any():
            continue
        i = np.where(has, below.argmax(axis=1), top)
        if (i != top).any():
            B[k, top], B[k, i] = B[k, i], B[k, top]
        pivot_row = B[k, top]
        v = np.where(has, pivot_row[:, c], 1)
        f = B[:, :, c] * has[:, None]
        f[k, top] = 0
        B *= v[:, None, None]
        B -= f[:, :, None] * pivot_row[:, None, :]
        B %= p
        P[k[has], r[has]] = c
        r += has
        if (r == rows).all():
            break
    kk, ii = np.nonzero(P >= 0)
    B[kk, ii] = B[kk, ii] * _inverse_mod(B[kk, ii, P[kk, ii]], p)[:, None] % p
    return B, P


def _blocks(a: np.ndarray):
    """Component labels (row_label, col_label) of the bipartite graph joining
    row i to column j where a[i, j] != 0.

    Permuted by component, a is block-diagonal.  Every column is labelled by
    the smallest column of its component, found by min-label propagation
    through the rows with pointer jumping, and every row by the label of its
    columns; zero rows and columns belong to no block and get the label
    a.shape[1].
    """
    r, c = np.nonzero(a)
    nrows, ncols = a.shape
    label = np.arange(ncols)
    while True:
        row_label = np.full(nrows, ncols)
        np.minimum.at(row_label, r, label[c])
        new = label.copy()
        np.minimum.at(new, c, row_label[r])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    used = np.zeros(ncols, dtype=bool)
    used[c] = True
    return row_label, np.where(used, label, ncols)


def _rref_dense(a: np.ndarray, p: int):
    """RREF of a copy of a, without peeling; returns (array, pivot column list).

    A large matrix is eliminated block by block of its nonzero pattern.  For
    a fixed column order the RREF of a row space is unique, and the row
    space of a block-diagonal matrix is the direct sum of its blocks' row
    spaces, so the reduced blocks, merged by pivot column, are exactly the
    RREF of the whole matrix.  The blocks are grouped by shape, and each
    group is gathered into one (n, rows, cols) stack: _eliminate_batch
    reduces a stack of two or more at once, _eliminate a block whose shape
    occurs once.  One sort of all pivot columns places the reduced rows, and
    each group is scattered into place in one step, so Python loops only
    over the shapes.
    """
    if a.size < _BLOCK_MIN_CELLS:
        return _eliminate(a.copy(), p)
    ncols = a.shape[1]
    row_label, col_label = _blocks(a)
    rows = np.flatnonzero(row_label < ncols)
    cols = np.flatnonzero(col_label < ncols)
    # components are numbered in the order of their labels; rows and columns
    # sorted by component list the components in that order
    comps = np.unique(col_label[cols])
    row_comp = np.searchsorted(comps, row_label[rows])
    col_comp = np.searchsorted(comps, col_label[cols])
    rows = rows[np.argsort(row_comp, kind="stable")]
    cols = cols[np.argsort(col_comp, kind="stable")]
    row_count = np.bincount(row_comp, minlength=comps.size)
    col_count = np.bincount(col_comp, minlength=comps.size)
    row_start = np.cumsum(row_count) - row_count
    col_start = np.cumsum(col_count) - col_count
    shapes, group = np.unique(row_count * (ncols + 1) + col_count, return_inverse=True)
    pieces = []  # per shape: (pivot columns, reduced rows, their columns)
    for g in range(shapes.size):
        members = np.flatnonzero(group == g)
        nr, nc = row_count[members[0]], col_count[members[0]]
        C = cols[col_start[members][:, None] + np.arange(nc)]
        stack = a[rows[row_start[members][:, None] + np.arange(nr)][:, :, None], C[:, None, :]]
        if members.size > 1:
            B, P = _eliminate_batch(stack, p)
        else:
            B, piv = _eliminate(stack[0], p)
            B, P = B[None], np.full((1, nr), -1, dtype=np.intp)
            P[0, : len(piv)] = piv
        k, i = np.nonzero(P >= 0)
        pieces.append((C[k, P[k, i]], B[k, i], C[k]))
    # pivot columns are distinct; a reduced row goes to the rank of its own
    pivots = np.sort(np.concatenate([pc for pc, _, _ in pieces] + [np.zeros(0, dtype=np.intp)]))
    out = np.zeros_like(a)
    for pc, reduced, where in pieces:
        out[np.searchsorted(pivots, pc)[:, None], where] = reduced
    return out, pivots.tolist()


def _rref_array(a: np.ndarray, p: int):
    """RREF of a copy of a; returns (array, pivot column list).

    Rows with a single nonzero entry are taken first, before any arithmetic
    (the singleton step of structured Gaussian elimination: LaMacchia and
    Odlyzko, CRYPTO '90; Faugere and Lachartre, PASCO 2010, take known
    pivots the same way).  Such a row is a multiple of the unit vector e_c,
    so e_c lies in the row space: c is a pivot column, its RREF row is e_c,
    and every other RREF row is zero at c.  Column c is cleared from the
    nonzero pattern, and the nonzero count of each row it meets drops by
    one, which may make new singleton rows; the step repeats until none is
    left.  Every row of a is then a combination of the peeled e_c plus its
    residual, the row restricted to the columns not peeled, so the row
    space of a is the direct sum of span{e_c} and the row space of the
    residual.  The residual's RREF (_rref_dense, on its nonzero rows and
    columns only) is zero at every peeled column and the e_c are zero at
    its pivots, so the two sets of rows, merged by pivot column, are the
    RREF of a: the same array as eliminating a whole.
    """
    if a.size < _PEEL_MIN_CELLS:
        return _eliminate(a.copy(), p)
    nz = a != 0
    count = nz.sum(axis=1)
    peeled = []
    while True:
        single = (count == 1).nonzero()[0]
        if single.size == 0:
            break
        # the column of each singleton row; rows sharing one column peel it once
        hit = np.zeros(a.shape[1], dtype=bool)
        hit[nz[single].argmax(axis=1)] = True
        c = hit.nonzero()[0]
        count -= nz[:, c].sum(axis=1)
        nz[:, c] = False
        peeled.append(c)
    if not peeled:
        return _rref_dense(a, p)
    unit = np.concatenate(peeled)
    rows = count.nonzero()[0]
    cols = nz.any(axis=0).nonzero()[0]
    R, piv = _rref_dense(a[rows][:, cols], p)
    reduced = cols[piv]
    pivots = np.sort(np.concatenate([unit, reduced]))
    out = np.zeros(a.shape, dtype=np.int64)
    out[np.searchsorted(pivots, unit), unit] = 1
    # whole rows scatter faster than a row-by-column grid
    wide = np.zeros((len(piv), a.shape[1]), dtype=np.int64)
    wide[:, cols] = R[: len(piv)]
    out[np.searchsorted(pivots, reduced)] = wide
    return out, pivots.tolist()


def rref(m: Mat):
    """Reduced row-echelon form.

    Returns (reduced, pivot_columns, rank).  The row space is preserved and
    the result is canonical: pivots are chosen as the first nonzero entry in
    column order, each pivot is normalized to 1 and cleared above and below.
    """
    A, pivots = _rref_array(m.a, m.field.p)
    return Mat._trusted(m.field, A), tuple(pivots), len(pivots)


def kernel_basis(m: Mat) -> Mat:
    """Matrix whose columns are a basis of the null space {x : m x = 0}.

    Columns are produced in increasing free-column order, one per non-pivot
    column, so the basis is canonical for a given input.
    """
    R, pivots, rank = rref(m)
    free = _complement(m.cols, pivots)
    K = np.zeros((m.cols, len(free)), dtype=np.int64)
    K[free, np.arange(len(free))] = 1
    K[list(pivots)] = -R.a[:rank, free] % m.field.p
    return Mat._trusted(m.field, K)


def kernel_rref(m: Mat):
    """Rank of m and the reduced row-echelon basis of its null space, from
    one elimination.

    Returns (rank, K, pivots): the rows of K span {x : m x = 0} in reduced
    echelon form, with pivot columns pivots.  m is eliminated with its
    columns reversed, so each non-pivot column f gives a kernel vector with
    a 1 at f, zeros at the other non-pivot columns and nonzeros only at
    pivot columns before f.  Reversed back, its 1 is its first nonzero entry
    and every other row vanishes there: the rows are the kernel's reduced
    echelon form, which is unique, so K equals rref(kernel_basis(m).T).
    """
    n = m.cols
    R, piv = _rref_array(m.a[:, ::-1], m.field.p)
    rank = len(piv)
    free = _complement(n, piv)
    K = np.zeros((len(free), n), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    K[:, piv] = -R[:rank, free].T % m.field.p
    # reversed columns put the last free column first; reverse both axes
    return rank, Mat._trusted(m.field, K[::-1, ::-1]), (n - 1 - free)[::-1]


def pivot_inverse(m: Mat):
    """Factor m, of full row rank r, for repeated solves of m x = b.

    Returns (Q, E): the pivot columns Q of rref(m) and E = m[:, Q]^-1, from
    one elimination of [m | I_r].  The row operations that bring m to
    rref(m) = E m bring I_r to E, and rref(m) is the identity at Q.  For b
    in the column space, x with x[Q] = E b and zeros elsewhere solves m x = b:
    it is the solution whose free coordinates (those off Q) are zero.
    """
    r = m.rows
    R, pivots = _rref_array(np.hstack([m.a, np.eye(r, dtype=np.int64)]), m.field.p)
    # [m | I_r] has rank r; m has it too exactly when no pivot falls in I_r
    if len(pivots) != r or (r and pivots[-1] >= m.cols):
        raise InputError("pivot_inverse needs a matrix of full row rank")
    return np.array(pivots, dtype=np.int64), Mat._trusted(m.field, R[:, m.cols :].copy())
