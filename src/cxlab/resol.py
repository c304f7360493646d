"""Minimal free resolutions, Betti numbers and complexity estimation.

Resolutions are built constructively in free-module coordinates: each
kernel ker d_i is an echelon span of F_i whose generators modulo m are
lifted, so minimality (all differential entries in the maximal ideal)
holds by construction and is checked at every step together with
d o d = 0 and exactness (at step 0: F_0 -> M is onto).

A step runs on sparse rows, dicts {coordinate: residue}, from start to
finish, as the matrices of a resolution are nearly empty, and it
eliminates once (_cover), one internal degree at a time.  Z_i, the rows of
the realized d_i at the span's pivot columns, is reduced row by row in
span order without its generator columns.  In degree d those columns span
mN_d, and they come from generators of lower degree, so a span row reduces
to zero against the rows before it exactly when it is not in mN plus those
rows: exactly when it is a generator of N/mN.  The generators come out of
the elimination, and their products with every basis monomial, one
gmod.multiples_of_rows per degree, are the columns of d_i and fill the
rows of higher degree.  The same elimination gives the echelon span of
ker d_i that the next step covers.  The rank that proves exactness, rank
Z_i = dim F_{i-1} - rank Z_{i-1} as in verify_complex, is read off the
realized columns by a second pass that only counts pivots (no back
substitution, no kernel): the first pass makes every span row a generator
or a pivot, so it cannot find its own faults.  The step checks d_{i-1} o
d_i = 0 on the lifts against the columns of d_{i-1} that the step before
kept.  A step builds no dense array.

A resolution keeps each d_i as its matrix over A, the images of the
generators of F_i, in the form its step built them: the lifts, one sparse
column, a dict {row: residue}, per generator.  The dense generator images
(diff_images) and the realized d_i (one extend_linearly of them) are
written within each call that reads them, and not kept.  It keeps a span's
rows only until the step that covers them has run, and their pivot
columns for good, and the last step's realized columns until the
next step has checked d o d = 0 against them.  Chain lifts solve d_i X = B
through a factorization (Q, E) of Z_i made once, on the first lift through
d_i; each solve realizes d_i to check its solution and drops it.
Syzygy modules are built only when asked for.
A resolution is cached on its module and extended incrementally;
previously computed steps never change.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, repeat
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, check
from .exactla import (
    Mat,
    _back_substitute,
    _dense,
    _kernel_rows,
    _reduce_in_order,
    _sparse_kernel,
    _sparse_rref,
    pivot_inverse,
)
from .gralg import Algebra, AlgebraElement
from .gmod import (
    FreeModule,
    Module,
    coefficient_view,
    column_degrees,
    entry_images,
    extend_linearly,
    free_module,
    multiples_of_rows,
    submodule_from_span,
)

__all__ = [
    "MinimalFreeResolution",
    "resolve",
    "syzygy",
    "ComplexityEstimate",
    "estimate_complexity",
    "ComplexReport",
    "verify_complex",
]


class MinimalFreeResolution:
    """... -> F_2 -> F_1 -> F_0 -> M -> 0, minimal, computed step by step.

    Step i maps F_i onto an echelon span: ker d_{i-1} in F_{i-1}, or the
    identity rows of M for i = 0.  What a step keeps of d_i is its matrix
    over A, the images of the generators of F_i, as the lifts the step
    built: one dict {row: residue} per generator, which diff_lifts hands
    out as they are (the Ext and Tor tables read them so).  diff_images
    writes them as the dense dim F_{i-1} x rank F_i array (dim M x rank F_0
    for the augmentation d_0) on each call; diff_coefficients is its
    coefficient view (gmod.coefficient_view), and diff_realized realizes
    it; none of them is kept.  solve keeps only the factorization (Q, E)
    of Z_i, the rows of d_i at the span's pivot columns.  The span's rows,
    sparse, are kept until step i has covered them, their pivot columns
    for good; syzygy_module re-derives a covered span by one _sparse_kernel
    of Z_{i-1}, rebuilt from the lifts of d_{i-1}, and the reduced echelon
    form of a row space is unique, so the span is the one the step
    covered.  The syzygy module a span stands for is built, verified and
    cached on the first request.

    Completed prefixes are immutable; extending the resolution only appends.
    Concurrent extension of the same resolution needs external locking.
    """

    def __init__(self, module: Module):
        self.module = module
        self.frees: List[FreeModule] = []
        # index 0: augmentation F_0 -> M; i >= 1: d_i, as the images of the
        # generators of F_i, dicts {row: residue} on the target
        self._lifts: List[List[dict]] = []
        # index i: the pivot columns of the span step i covers (ker d_{i-1}
        # in F_{i-1}, or M at 0); the RREF rows of the span the next step
        # covers, as dicts {column: residue}
        self._pivots = [np.arange(module.dim)]
        self._span: List[dict] = [{c: 1} for c in range(module.dim)]
        self._rank = 0  # rank Z of the last step: the next step checks exactness with it
        # the realized columns of the last step's d, as dicts {row: residue}:
        # the next step checks d o d = 0 against them
        self._columns: List[dict] = []
        self._syz = {}  # i >= 1: the gmod.Submodule of syzygy i, built on request
        self._solvers = {}  # i: (Q, E), pivot_inverse of Z_i, built on the first solve

    @property
    def computed_to(self) -> int:
        return len(self.frees) - 1

    def extend(self, n: int):
        if n < 0:
            raise InputError("resolution degree must be nonnegative")
        while self.computed_to < n:
            self._step()

    def _step(self):
        i = len(self.frees)
        A = self.module.algebra
        p = A.field.p
        target = self._target(i)
        span, pivots = self._span, self._pivots[i].tolist()
        if not span:
            # nothing to cover: the zero free module, the zero map and an
            # empty span, the objects the general path builds; every check
            # on them is vacuous
            F, lifts, columns, rank, kernel, ker_pivots = free_module(A, []), [], [], 0, [], []
        else:
            gens, columns, kernel, ker_pivots = _cover(target, span, pivots)
            F = free_module(A, [d for _, d in gens])
            lifts = [u for u, _ in gens]
            if i:
                # minimality: constructive generator choice keeps entries in
                # m, so no lift has an entry at a generator of F_{i-1}
                units = set(target.generator_columns())
                check(not any(c in units for u in lifts for c in u), "differential entry has a unit component")
                # both maps are A-linear, so d_{i-1} o d_i vanishes when it
                # vanishes on the generators of F_i: d_{i-1} of each lift,
                # read off the realized columns of d_{i-1}
                check(all(_vanishes(self._columns, u, p) for u in lifts), f"d_{i-1} o d_{i} != 0")
            # Exactness, as in verify_complex: Z_i, the rows of d_i at the
            # span's pivot columns, is made of rows of d_i and Z_{i-1} of rows
            # of d_{i-1}, so
            #   rank d_i >= rank Z_i = dim F_{i-1} - rank Z_{i-1}
            #            >= dim F_{i-1} - rank d_{i-1} = dim ker d_{i-1} >= rank d_i,
            # the last since im d_i lies in ker d_{i-1}.  All are equal: im d_i
            # = ker d_{i-1}, and Z_i has the row space, so the rank and the
            # kernel, of d_i.  The argument reads no span: a span only
            # decides which generators are lifted and which rows make up Z.
            # At i = 0 (rank Z_{-1} = 0) it says that F_0 -> M is onto.
            # rank Z_i is read off the realized columns by an echelon pass
            # of its own: _cover's elimination makes every span row a
            # generator or a pivot, so a rank counted from it would equal
            # dim F_{i-1} - rank Z_{i-1} whatever W held
            rank = len(_sparse_rref(_reversed_pivot_rows(columns, pivots), p, reduced=False))
            check(rank == target.dim - self._rank,
                  f"image of d_{i} does not fill ker d_{i-1}" if i else "augmentation F_0 -> M is not onto")
        self.frees.append(F)
        self._lifts.append(lifts)  # d_i over A sends the g-th generator of F to the g-th lift
        self._pivots.append(np.array(ker_pivots, dtype=np.intp))
        self._span, self._rank, self._columns = kernel, rank, columns

    def _target(self, n: int) -> Module:
        """The target of d_n: F_{n-1}, or M at n = 0."""
        return self.frees[n - 1] if n else self.module

    # -- accessors ---------------------------------------------------------

    def betti(self, n: int) -> int:
        self.extend(n)
        return self.frees[n].rank

    def betti_list(self, n: int) -> List[int]:
        self.extend(n)
        return [self.frees[i].rank for i in range(n + 1)]

    def free(self, n: int) -> FreeModule:
        self.extend(n)
        return self.frees[n]

    def diff_realized(self, n: int) -> Mat:
        """d_n realized, the augmentation F_0 -> M at n = 0: one
        extend_linearly of its generator images, not kept."""
        return extend_linearly(self._target(n), self.diff_images(n))

    def solve(self, i: int, B: Mat) -> Mat:
        """X with d_i X = B, d_0 being the augmentation F_0 -> M: the
        particular solution whose coordinates off the pivot columns of d_i
        are zero.  InvariantError when some column of B is not in the
        image of d_i.

        The image lies in the span that step i covers, and Z, the span's
        pivot rows of d_i, is d_i read in the span's coordinates, of full
        row rank (the exactness check proves it), with the row space of
        d_i.  The first solve through d_i factors Z with pivot_inverse and
        keeps only (Q, E); each solve is then one product, X[Q] = E
        B[pivots], proven by the product d_i X = B with d_i realized for
        this call alone.
        """
        d = self.diff_realized(i)
        if B.rows != d.rows:
            raise InputError(f"right-hand side has {B.rows} rows, expected {d.rows}")
        if i not in self._solvers:
            self._solvers[i] = pivot_inverse(Mat._trusted(d.field, d.a[self._pivots[i]]))
        Q, E = self._solvers[i]
        X = np.zeros((d.cols, B.cols), dtype=np.int64)
        X[Q] = (E @ Mat._trusted(d.field, B.a[self._pivots[i]])).a
        X = Mat._trusted(d.field, X)
        check(d @ X == B, f"right-hand side outside the image of d_{i}")
        return X

    def diff_lifts(self, n: int) -> List[dict]:
        """d_n over A as the resolution keeps it: the lifts its step built,
        one dict {row: residue} on F_{n-1} per generator of F_n (on M for
        the augmentation at n = 0).  The kept list itself, not a copy, and
        no dense array: a reader must not change it."""
        if n < 0:
            raise InputError("differentials are indexed from 0, the augmentation")
        self.extend(n)
        return self._lifts[n]

    def diff_images(self, n: int) -> Mat:
        """d_n over A, its generator images written dense from the kept
        lifts, not kept: dim F_{n-1} x rank F_n, the augmentation F_0 -> M
        (dim M x rank F_0) at n = 0."""
        return Mat._trusted(self.module.field, _dense(self.diff_lifts(n), self._target(n).dim).T)

    def diff_coefficients(self, n: int) -> np.ndarray:
        """d_n over A as a coefficient array: gmod.coefficient_view of its
        generator images."""
        if n < 1:
            raise InputError("differentials are indexed from 1")
        return coefficient_view(self.diff_images(n), self.module.algebra)

    def syzygy_module(self, i: int) -> Module:
        if i < 0:
            raise InputError("syzygy index must be nonnegative")
        self.extend(max(i - 1, 0))
        if i == 0:
            return self.module
        if i not in self._syz:
            F = self.frees[i - 1]
            if i == len(self.frees):
                span = self._span
            else:
                # covered: ker d_{i-1} = ker Z_{i-1}, in reduced echelon form
                columns = multiples_of_rows(self._target(i - 1), self._lifts[i - 1], "basis")
                span = _sparse_kernel(_reversed_pivot_rows(columns, self._pivots[i - 1].tolist()), F.dim, F.field.p)[1]
            self._syz[i] = submodule_from_span(F, Mat._trusted(F.field, _dense(span, F.dim)),
                                               provenance=f"syzygy({i})")
        return self._syz[i].module

    def syzygy_inclusion(self, i: int) -> Mat:
        if i < 1:
            raise InputError("only positive syzygies embed into a free module")
        self.syzygy_module(i)
        return self._syz[i].inclusion

    def __repr__(self):
        return f"MinimalFreeResolution(to {self.computed_to}, betti {[f.rank for f in self.frees]})"


def _vanishes(columns: List[dict], u: dict, p: int) -> bool:
    """Whether the map with the given realized columns, dicts {row:
    residue}, sends the vector u, a dict {column: residue}, to 0."""
    acc: dict = {}
    for c, v in u.items():
        for r, w in columns[c].items():
            acc[r] = acc.get(r, 0) + v * w
    return not any(x % p for x in acc.values())


def _reversed_pivot_rows(columns: List[dict], pivots: List[int]) -> List[dict]:
    """The rows at pivots of the matrix with the given columns, dicts {row:
    residue}, as dicts with the columns reversed, as _sparse_kernel reads
    them: column c at len(columns) - 1 - c."""
    rows: List[dict] = [{} for _ in pivots]
    _write_reversed(rows, columns, {r: q for q, r in enumerate(pivots)}, len(columns) - 1)
    return rows


def _write_reversed(rows: List[dict], columns: List[dict], row_of: dict, last: int):
    """Write the entries of columns, dicts {row: residue}, at the rows that
    row_of numbers into those rows, with the columns reversed: entry r of
    column c goes to rows[row_of[r]] at label last - c."""
    for c, col in enumerate(columns):
        for r, w in col.items():
            q = row_of.get(r)
            if q is not None:
                rows[q][last - c] = w


def _cover(target: Module, span: List[dict], pivots: List[int]):
    """Cover the span N of target, its rows s_q in reduced echelon form
    at pivot columns c_q, by one elimination, one internal degree at a time.

    Column (g, m) of the realized d_i is basis monomial m times lift g, and
    Z_i is its rows at the pivot columns.  Column (g, 0), monomial 1, is the
    lift s_q itself, which reads e_q at the pivots.  W is Z_i without these
    generator columns.  In degree d, W's columns span mN_d, and as every
    basis monomial but 1 has degree >= 1 they come from generators of lower
    degree.  A vector of N whose first nonzero span coordinate is q starts
    at c_q, so row q of W is in the span of the rows before it exactly when
    c_q is no pivot of mN: exactly when s_q is a generator of N/mN.  So the
    rows of degree d are reduced in span order, one _reduce_in_order against
    the pivot rows so far, and those that reduce to zero are the generators;
    their products with the basis, one multiples_of_rows, fill W's rows of
    higher degree.  Their unit columns lie at rows that are not among W's
    leading rows, so ker Z_i is ker W with zeros at the generator columns.
    (Every span row becomes a generator or a pivot of W, so the number of
    generators plus rank W is the number of span rows whatever W holds: it
    proves nothing, and the step reads rank Z_i off the columns.)  W's column
    (q_g, m) is labelled q_g dim A + m, which sorts as the final (g, m)
    does, so W's reduced echelon form, and with it the kernel, is the one
    of Z_i.

    Returns (gens, columns, kernel, pivots): the generators as
    (lift, degree) in span order, the realized columns of d_i as dicts {row:
    residue}, and the reduced echelon rows of ker d_i, dicts on F_i, with
    their pivot columns.  InvariantError when the span is not in reduced
    echelon form or a row of it is not homogeneous."""
    A = target.algebra
    p, dA = A.field.p, A.dim
    index = {c: q for q, c in enumerate(pivots)}
    # increasing pivots, each its row's first entry and 1 there, and no
    # other entry at any pivot column
    check(all(map(operator.lt, pivots, pivots[1:])) and all(span) and list(map(min, span)) == pivots
          and list(map(dict.get, span, pivots)) == [1] * len(span)
          and sum(map(index.__contains__, chain.from_iterable(span))) == len(span),
          "span is not in reduced echelon form")
    # every row is homogeneous, of its pivot column's degree, so W is block
    # diagonal by degree and a generator's products fill rows of higher
    # degree only
    deg = target.degrees
    degrees = list(map(deg.__getitem__, pivots))
    check(list(map(deg.__getitem__, chain.from_iterable(span)))
          == list(chain.from_iterable(map(repeat, degrees, map(len, span)))), "span row is not homogeneous")
    by_degree: dict = {}
    for q, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(q)
    n = len(span) * dA  # W's column (q, m) at the reversed label n - 1 - (q dA + m), as _kernel_rows reads it
    W: List[dict] = [{} for _ in span]
    echelon: dict = {}
    gens: List[int] = []
    products: dict = {}  # q: the dA columns of the realized d_i, s_q times each basis monomial
    for d in sorted(by_degree):
        rows = by_degree[d]
        new = [rows[k] for k in _reduce_in_order([W[q] for q in rows], echelon, p)]
        if not new:
            continue
        out = multiples_of_rows(target, [span[q] for q in new], "basis")
        for k, q in enumerate(new):
            products[q] = block = out[k * dA:(k + 1) * dA]
            # column m >= 1 of the block at label n - 1 - (q dA + m)
            _write_reversed(W, block[1:], index, n - 2 - q * dA)
        gens += new
    gens.sort()
    _back_substitute(echelon, p)
    # W's label n - 1 - (q dA + m) is column g dA + m of F_i, g the place of q in gens
    column = {n - 1 - q * dA - m: g * dA + m for g, q in enumerate(gens) for m in range(1, dA)}
    return ([(span[q], degrees[q]) for q in gens], [col for q in gens for col in products[q]],
            *_kernel_rows(echelon, column, p))


def resolve(module: Module, n: int) -> MinimalFreeResolution:
    """Minimal free resolution of the module, computed (at least) to step n.

    The resolution is cached on the module; repeated calls extend it.
    """
    res = module._resolution
    if res is None:
        res = MinimalFreeResolution(module)
        module._resolution = res
    res.extend(n)
    return res


def syzygy(module: Module, i: int) -> Module:
    """The i-th syzygy; syzygy(M, 0) is M itself."""
    return resolve(module, max(i, 0)).syzygy_module(i)


# -- complexity estimation ---------------------------------------------------


@dataclass
class ComplexityEstimate:
    """Polynomial-growth estimate read off a finite Betti window.

    value is the estimated complexity; stabilized reports whether both the
    even-index and odd-index finite-difference tables were constant over s
    consecutive tail entries.  When no stabilization is visible, value is an
    upper-bound guess (one more than the highest difference order examined)
    and stabilized stays False; only stabilized estimates are trusted
    downstream.
    """

    betti: Tuple[int, ...]
    s: int
    even_order: Optional[int]
    odd_order: Optional[int]
    value: int
    stabilized: bool

    def to_jsonable(self) -> dict:
        return {
            "betti_window": list(self.betti),
            "stabilization_length": self.s,
            "even_order": self.even_order,
            "odd_order": self.odd_order,
            "value": self.value,
            "stabilized": self.stabilized,
        }


def _stabilization_order(sub: Sequence[int], s: int) -> Tuple[Optional[int], int]:
    """Smallest finite-difference order whose last s entries are constant."""
    cur = np.asarray(sub, dtype=np.int64)
    max_checked = -1
    r = 0
    while len(cur) >= s:
        max_checked = r
        tail = cur[-s:]
        if np.all(tail == tail[0]):
            return r, max_checked
        cur = np.diff(cur)
        r += 1
    return None, max_checked


def estimate_complexity(betti: Sequence[int], s: int = 4) -> ComplexityEstimate:
    """Estimate the complexity from a Betti window.

    A zero anywhere in the sequence certifies finite projective dimension
    (the tail must then be identically zero, which is asserted); otherwise
    the estimate is one plus the order at which the even- and odd-index
    finite-difference tables both become constant over s tail entries.
    """
    seq = [int(b) for b in betti]
    if s < 1:
        raise InputError("stabilization length must be positive")
    if len(seq) < 2 * s + 2:
        raise InputError(
            f"betti window of length {len(seq)} is too short for s={s}; "
            f"resolve to at least {2 * s + 1}"
        )
    if any(b == 0 for b in seq):
        first = seq.index(0)
        check(all(b == 0 for b in seq[first:]), "Betti numbers revive after a zero")
        return ComplexityEstimate(tuple(seq), s, None, None, 0, True)
    even, odd = seq[0::2], seq[1::2]
    ev, ev_max = _stabilization_order(even, s)
    od, od_max = _stabilization_order(odd, s)
    stabilized = ev is not None and od is not None
    if stabilized:
        value = 1 + max(ev, od)
    else:
        value = 1 + max(ev if ev is not None else ev_max + 1,
                        od if od is not None else od_max + 1)
    return ComplexityEstimate(tuple(seq), s, ev, od, value, stabilized)


# -- verification of externally supplied complexes ---------------------------


@dataclass
class ComplexReport:
    """Outcome of checking a finite complex of free modules over A."""

    start_index: int
    count: int
    d2_ok: bool
    minimal: bool
    exact_at: List[int]
    failures: List[dict]

    @property
    def ok(self) -> bool:
        return self.d2_ok and self.minimal and len(self.exact_at) == self.count - 1

    def to_jsonable(self) -> dict:
        return {
            "start_index": self.start_index,
            "matrix_count": self.count,
            "d2_zero": self.d2_ok,
            "minimal": self.minimal,
            "exact_at": self.exact_at,
            "failures": self.failures,
            "ok": self.ok,
        }


def verify_complex(algebra: Algebra, matrices: Sequence[Sequence[Sequence[AlgebraElement]]],
                   target_degrees: Optional[Sequence[int]] = None,
                   start_index: int = 0) -> ComplexReport:
    """Check d o d = 0, minimality and exactness for a chain of matrices over A.

    matrices[n] presents a map F_{n+1} -> F_n of free modules.  Generator
    degrees of F_0 default to zero; the degrees of every later free module
    are inferred from homogeneity of the columns (ambiguity is an error).
    Exactness is checked at each interior free module by comparing the rank
    of the incoming map with the nullity of the outgoing one.
    """
    if not matrices:
        raise InputError("no matrices to verify")
    failures: List[dict] = []
    degrees = list(target_degrees) if target_degrees is not None else [0] * len(matrices[0])
    frees = [free_module(algebra, degrees)]
    images, realized = [], []
    for idx, mat in enumerate(matrices):
        what = f"matrix {start_index + idx}"
        F_next = free_module(algebra, column_degrees(algebra, mat, frees[-1].gen_degrees, what))
        images.append(entry_images(algebra, mat, frees[-1].rank, F_next.rank))
        realized.append(extend_linearly(frees[-1], images[-1]))
        frees.append(F_next)

    # both maps are A-linear, so d_n o d_{n+1} vanishes when it vanishes on
    # the generators of F_{n+2}: d_n times the generator images of d_{n+1};
    # the units of d_n are its constant coefficients
    d2_ok = True
    for n in range(len(matrices) - 1):
        if not (realized[n] @ images[n + 1]).is_zero():
            d2_ok = False
            failures.append({"kind": "d2_nonzero", "at": start_index + n})
    minimal = True
    for idx in range(len(matrices)):
        for i, j in zip(*np.nonzero(coefficient_view(images[idx], algebra)[0])):
            minimal = False
            failures.append({"kind": "unit_entry", "matrix": start_index + idx, "row": int(i), "col": int(j)})
    exact_at = []
    ranks = [d.rank() for d in realized] if len(matrices) > 1 else []
    for n in range(1, len(matrices)):
        nullity = frees[n].dim - ranks[n - 1]
        if ranks[n] == nullity:
            exact_at.append(start_index + n)
        else:
            failures.append({
                "kind": "not_exact",
                "at": start_index + n,
                "incoming_rank": ranks[n],
                "kernel_dim": nullity,
            })
    return ComplexReport(start_index, len(matrices), d2_ok, minimal, exact_at, failures)
