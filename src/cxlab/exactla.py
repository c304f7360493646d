"""Exact linear algebra over prime fields F_p.

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
into 16-bit limbs.

A Mat has two constructors.  The public Mat(field, array) takes an array of
integers or booleans, refuses any other dtype (floats, strings, objects such
as Python ints past int64) with an InputError, and reduces its input mod p
(a copy), and so do +, -, negation and scale.  The private
Mat._trusted wraps an array that is reduced by construction (a product, an
echelon form, a transpose, a stack or slice of reduced arrays) without a
copy.

One elimination, _sparse_rref, is behind rref, kernel_rref, pivot_inverse,
pivot_columns and Mat.rank, whatever the density of the input, and behind
_sparse_kernel, the kernel of a matrix given as sparse rows, which
kernel_rref reads.  Its reduction loop, _reduce_in_order, is the only one:
a resolution step runs it on its own rows, degree by degree and in order,
and then _back_substitute and _kernel_rows, as _sparse_kernel does, and
checks its exactness rank with an echelon pass of _sparse_rref.  The
matrices the engine eliminates are nearly empty: on the benchmark's inputs
they hold at most 1.1 times as many nonzeros as their longer side.  Each is
eliminated on sparse rows, dicts {column: residue} of Python ints, which
are exact at every p, so the work follows the fill and not the size of the
matrix (structured Gaussian elimination: LaMacchia and Odlyzko, CRYPTO '90;
F4 keeps its nearly empty matrices sparse the same way: Faugère, J. Pure
Appl. Algebra 139, 1999).  Rows are taken fewest entries first, so unit
rows become pivots before any arithmetic.  Each row is reduced against the
pivot rows met so far and normalized, and back substitution then runs from
the last pivot; pivot_columns and Mat.rank stop after the echelon pass.
Pivots are the first nonzero entry in column order, and the reduced echelon
form of a row space is unique, as are its pivot columns (the leading
columns of any echelon basis), so no output depends on the order in which
rows are taken, and every derived basis is reproducible across runs and
platforms.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = ["Field", "Mat", "rref", "kernel_rref", "pivot_inverse", "pivot_columns"]


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

    __slots__ = ("field", "a")

    def __init__(self, field: Field, array):
        arr = np.asarray(array)
        if arr.dtype.kind not in "biu":
            raise InputError(f"matrix entries must be integers, got dtype {arr.dtype}")
        if arr.ndim != 2:
            raise InputError(f"matrix must be 2-dimensional, got shape {arr.shape}")
        if arr.dtype.kind == "u":
            arr = arr % field.p  # an unsigned entry may not fit in int64; its residue does
        self._wrap(field, arr.astype(np.int64, copy=False) % field.p)

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

    def __setattr__(self, name, value):
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
        return len(pivot_columns(self))

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


def _complement(n: int, indices) -> np.ndarray:
    """The sorted indices 0..n-1 that are not among indices (a sequence of
    distinct ones, such as pivot columns), from one boolean mask."""
    keep = np.ones(n, dtype=bool)
    keep[np.asarray(indices, dtype=np.intp)] = False
    return keep.nonzero()[0]


def _subtract(row: dict, f: int, other: dict, p: int):
    """row -= f·other in place, on dicts {column: residue}; an entry that
    becomes 0 is dropped."""
    for j, v in other.items():
        x = (row.get(j, 0) - f * v) % p
        if x:
            row[j] = x
        else:
            # f and v are units, so an entry becomes 0 only where row had one
            del row[j]


def _reduce_in_order(rows, pivot: dict, p: int) -> list:
    """The one reduction loop: each of rows, dicts {column: residue} with
    residues in [0, p) (consumed), in the order given, is reduced by its
    least column against pivot, the pivot rows met so far {pivot column:
    row}, until that column is no pivot, and then becomes its pivot row,
    normalized, added to pivot.  Returns the positions in rows of those
    that reduce to zero: the rows in the span of the rows before them and
    of the pivot rows given.  Residues are Python ints: f·v < p^2 is exact
    at every p."""
    zero = []
    for k, row in enumerate(rows):
        while row:
            c = min(row)
            other = pivot.get(c)
            if other is None:
                if row[c] != 1:
                    inv = pow(row[c], p - 2, p)
                    row = {j: v * inv % p for j, v in row.items()}
                pivot[c] = row
                break
            _subtract(row, row[c], other, p)
        else:
            zero.append(k)
    return zero


def _back_substitute(pivot: dict, p: int):
    """Clear the other pivot columns from each row of pivot, echelon pivot
    rows {pivot column: row}, in place, from the last pivot: the rows become
    those of the reduced echelon form.  The rows after c are already
    reduced: they hold no other pivot column."""
    for c in sorted(pivot, reverse=True):
        row = pivot[c]
        for j in [j for j in row if j != c and j in pivot]:
            _subtract(row, row[j], pivot[j], p)


def _sparse_rref(rows, p: int, reduced: bool = True) -> dict:
    """Echelon pivot rows of the row space of rows, dicts {column: residue}
    with residues in [0, p) (consumed).

    Returns {pivot column: row}, each row 1 at its pivot column.  Rows are
    taken fewest entries first, so unit rows become pivots before any
    arithmetic, through _reduce_in_order.  The pivot rows have distinct
    least columns, so they are an echelon basis of the row space and their
    pivot columns are those of its RREF.  With reduced, _back_substitute
    makes the rows the RREF's.  gralg hands its ideal's slices here as
    rows, with no dense form.
    """
    pivot: dict = {}
    _reduce_in_order(sorted(rows, key=len), pivot, p)
    if reduced:
        _back_substitute(pivot, p)
    return pivot


def _dict_rows(a: np.ndarray) -> list:
    """The rows of a as dicts {column: residue}, one per row, read off one
    nonzero() scan: a zero row is an empty dict."""
    rows: list = [{} for _ in range(a.shape[0])]
    r, c = a.nonzero()
    for i, j, v in zip(r.tolist(), c.tolist(), a[r, c].tolist()):
        rows[i][j] = v
    return rows


def _dense(rows, n: int) -> np.ndarray:
    """The int64 array, one row per dict {column: residue}, n columns."""
    out = np.zeros((len(rows), n), dtype=np.int64)
    where = [i for i, row in enumerate(rows) for _ in row]
    out[where, [j for row in rows for j in row]] = [v for row in rows for v in row.values()]
    return out


def _sparse_pivots(a: np.ndarray, p: int, reduced: bool) -> dict:
    """_sparse_rref of the rows of a; a matrix with no nonzero entry takes
    no pass."""
    return _sparse_rref(_dict_rows(a), p, reduced) if a.any() else {}


def _rref_array(a: np.ndarray, p: int):
    """RREF of a, as a new array, and its pivot column list."""
    pivot = _sparse_pivots(a, p, reduced=True)
    lead = sorted(pivot)
    out = np.zeros(a.shape, dtype=np.int64)
    out[: len(lead)] = _dense([pivot[c] for c in lead], a.shape[1])
    return out, lead


def pivot_columns(m: Mat) -> tuple:
    """The pivot columns of rref(m), from the echelon pass alone: no back
    substitution and no reduced array."""
    return tuple(sorted(_sparse_pivots(m.a, m.field.p, reduced=False)))


def rref(m: Mat):
    """Reduced row-echelon form.

    Returns (reduced, pivot_columns, rank).  The row space is preserved and
    the result is canonical: pivots are chosen as the first nonzero entry in
    column order, each pivot is normalized to 1 and cleared above and below.
    """
    A, pivots = _rref_array(m.a, m.field.p)
    return Mat._trusted(m.field, A), tuple(pivots), len(pivots)


def _sparse_kernel(rows, n: int, p: int):
    """Rank of a matrix of n columns and the reduced row-echelon basis of
    its null space, from one elimination: (rank, kernel rows as dicts
    sorted by pivot, pivots).  rows are the matrix's rows with its columns
    reversed, column j at n - 1 - j, as dicts (consumed)."""
    pivot = _sparse_rref(rows, p)
    return (len(pivot), *_kernel_rows(pivot, {f: n - 1 - f for f in range(n)}, p))


def _kernel_rows(pivot: dict, column: dict, p: int):
    """The reduced row-echelon basis of the null space of a matrix, read
    off pivot, the reduced echelon pivot rows of its rows with each column
    given a label, the labels in the reverse order of the columns: (kernel
    rows as dicts sorted by pivot, pivots).  column maps each label to its
    column; a column without a label is zero in every null vector.

    With the columns reversed, each non-pivot label f gives a kernel
    vector with a 1 at f, zeros at the other non-pivot labels and nonzeros
    only at pivot labels before f.  Reversed back, its 1 is its first
    nonzero entry and every other row vanishes there: the rows are the
    kernel's reduced echelon form, which is unique."""
    kernel = {j: {j: 1} for f, j in column.items() if f not in pivot}
    for c, row in pivot.items():
        j = column[c]
        for f, v in row.items():
            if f != c:  # a non-pivot label: reduced rows hold no other pivot
                kernel[column[f]][j] = p - v
    lead = sorted(kernel)
    return [kernel[j] for j in lead], lead


def kernel_rref(m: Mat):
    """Rank of m and the reduced row-echelon basis of its null space, from
    one elimination (_sparse_kernel).

    Returns (rank, K, pivots): the rows of K span {x : m x = 0} in reduced
    echelon form, with pivot columns pivots.
    """
    rank, K, lead = _sparse_kernel(_dict_rows(m.a[:, ::-1]), m.cols, m.field.p)
    return rank, Mat._trusted(m.field, _dense(K, m.cols)), np.array(lead, dtype=np.intp)


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
