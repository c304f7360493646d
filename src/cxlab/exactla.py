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

A Mat has two constructors.  The public Mat(field, array) reduces its input
mod p (a copy), and so do +, -, negation and scale.  The private
Mat._trusted wraps an array that is reduced by construction (a product, an
echelon form, a transpose, a stack or slice of reduced arrays) without a
copy.

One elimination, _rref_array, is behind rref, kernel_rref, pivot_inverse
and Mat.rank, and it picks its method from the density of its input.  The
matrices the engine eliminates are nearly empty: on the benchmark's inputs
they hold at most 1.1 times as many nonzeros as their longer side.  An
input with at most 2(rows + cols) nonzeros is eliminated on sparse rows,
dicts {column: residue} of Python ints, which are exact at every p.  Rows
are taken fewest entries first, so unit rows become pivots before any
arithmetic (the singleton step of structured Gaussian elimination:
LaMacchia and Odlyzko, CRYPTO '90).  Each row is reduced against the pivot
rows met so far and normalized, and back substitution then runs from the
last pivot; pivot_columns and Mat.rank stop after the echelon pass.  A
denser input goes to the dense kernel _eliminate, and so does a sparse one
whose row operations touch more than a sixteenth of its cells plus 64.  On
a 2-vCPU Xeon (Python 3.11, numpy 2.4) a touched entry costs about 185 ns
and a cell of a numpy row update 8 to 12 ns, so the bound caps a pass that
loses at about the cost of one update of every cell by the dense kernel.
Pivots are the first nonzero entry in column order, and the reduced echelon
form of a row space is unique, as are its pivot columns (the leading
columns of any echelon basis).  Both methods, in any row order, give the
same array, so no output depends on the method taken, and every derived
basis is reproducible across runs and platforms.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

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


def _subtract(row: dict, f: int, other: dict, p: int) -> int:
    """row -= f·other in place, on dicts {column: residue}; an entry that
    becomes 0 is dropped.  Returns the number of entries touched."""
    for j, v in other.items():
        x = (row.get(j, 0) - f * v) % p
        if x:
            row[j] = x
        else:
            # f and v are units, so an entry becomes 0 only where row had one
            del row[j]
    return len(other)


def _sparse_rref(rows, p: int, budget=math.inf, reduced: bool = True) -> Optional[dict]:
    """Echelon pivot rows of the row space of rows, dicts {column: residue}
    with residues in [0, p) (consumed); None once the row operations touch
    more than budget entries.

    Returns {pivot column: row}, each row 1 at its pivot column.  Rows are
    taken fewest entries first, so unit rows become pivots before any
    arithmetic.  Each is reduced by its least column against the pivot rows
    met so far until that column is no pivot, and then becomes its pivot
    row, normalized.  The pivot rows have distinct least columns, so they
    are an echelon basis of the row space and their pivot columns are those
    of its RREF.  With reduced, back substitution from the last pivot clears
    the later pivot columns from each row, making the rows the RREF's.
    Residues are Python ints: f·v < p^2 is exact at every p.  gralg hands
    its ideal's slices here as rows, with no dense form and no bound.
    """
    pivot: dict = {}
    work = 0
    for row in sorted(rows, key=len):
        while row:
            c = min(row)
            other = pivot.get(c)
            if other is None:
                if row[c] != 1:
                    inv = pow(row[c], p - 2, p)
                    row = {j: v * inv % p for j, v in row.items()}
                pivot[c] = row
                break
            work += _subtract(row, row[c], other, p)
            if work > budget:
                return None
    if reduced:
        # the rows after c are already reduced: they hold no other pivot column
        for c in sorted(pivot, reverse=True):
            row = pivot[c]
            for j in [j for j in row if j != c and j in pivot]:
                work += _subtract(row, row[j], pivot[j], p)
            if work > budget:
                return None
    return pivot


def _sparse_pivots(a: np.ndarray, p: int, reduced: bool) -> Optional[dict]:
    """_sparse_rref of the rows of a when a holds at most 2(rows + cols)
    nonzeros, with a work bound of a sixteenth of its cells; None when a is
    denser or its fill passes the bound (the caller then runs _eliminate)."""
    nonzeros = np.count_nonzero(a)
    if nonzeros > 2 * (a.shape[0] + a.shape[1]):
        return None
    if not nonzeros:
        return {}
    r, c = a.nonzero()
    dict_rows: dict = {}
    for i, j, v in zip(r.tolist(), c.tolist(), a[r, c].tolist()):
        if i in dict_rows:
            dict_rows[i][j] = v
        else:
            dict_rows[i] = {j: v}
    return _sparse_rref(dict_rows.values(), p, a.size // 16 + 64, reduced)


def _rref_array(a: np.ndarray, p: int):
    """RREF of a copy of a; returns (array, pivot column list): by sparse
    rows (_sparse_pivots) where they apply, otherwise by _eliminate."""
    pivot = _sparse_pivots(a, p, reduced=True)
    if pivot is None:
        return _eliminate(a.copy(), p)
    lead = sorted(pivot)
    out = np.zeros(a.shape, dtype=np.int64)
    reduced = [pivot[c] for c in lead]
    where = [i for i, row in enumerate(reduced) for _ in row]
    out[where, [j for row in reduced for j in row]] = [v for row in reduced for v in row.values()]
    return out, lead


def pivot_columns(m: Mat) -> tuple:
    """The pivot columns of rref(m), from the echelon pass alone: no back
    substitution and no reduced array."""
    pivot = _sparse_pivots(m.a, m.field.p, reduced=False)
    if pivot is None:
        return tuple(_eliminate(m.a.copy(), m.field.p)[1])
    return tuple(sorted(pivot))


def rref(m: Mat):
    """Reduced row-echelon form.

    Returns (reduced, pivot_columns, rank).  The row space is preserved and
    the result is canonical: pivots are chosen as the first nonzero entry in
    column order, each pivot is normalized to 1 and cleared above and below.
    """
    A, pivots = _rref_array(m.a, m.field.p)
    return Mat._trusted(m.field, A), tuple(pivots), len(pivots)


def kernel_rref(m: Mat):
    """Rank of m and the reduced row-echelon basis of its null space, from
    one elimination.

    Returns (rank, K, pivots): the rows of K span {x : m x = 0} in reduced
    echelon form, with pivot columns pivots.  m is eliminated with its
    columns reversed, so each non-pivot column f gives a kernel vector with
    a 1 at f, zeros at the other non-pivot columns and nonzeros only at
    pivot columns before f.  Reversed back, its 1 is its first nonzero entry
    and every other row vanishes there: the rows are the kernel's reduced
    echelon form, which is unique.
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
