"""Minimal free resolutions, Betti numbers and complexity estimation.

Resolutions are built constructively in free-module coordinates: each
kernel ker d_i is an echelon span of F_i whose generators modulo m are
lifted, so minimality (all differential entries in the maximal ideal)
holds by construction and is checked at every step together with
d o d = 0 and exactness (at step 0: F_0 -> M is onto).  A step eliminates
once: d_i read in the coordinates of its span gives, in one kernel_rref,
the rank that proves exactness and the echelon span of ker d_i that the
next step covers.

A resolution keeps each d_i as its matrix over A, the images of the
generators of F_i, dim A times smaller than the realized d_i; the realized
matrix lives while its step runs, and is rebuilt, by one extend_linearly,
within each call that reads it.  It keeps a span's rows only until the step
that covers them has run, their pivot columns for good, and Z of the last
step until the next one.  Chain lifts solve d_i X = B through a
factorization (Q, E) of Z_i made once, on the first lift through d_i; each
solve realizes d_i to check its solution and drops it.
Syzygy modules are built only when asked for.
A resolution is cached on its module and extended incrementally;
previously computed steps never change.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, check
from .exactla import Mat, _complement, kernel_rref, pivot_inverse
from .gralg import Algebra, AlgebraElement
from .gmod import (
    FreeModule,
    Module,
    coefficient_view,
    column_degrees,
    extend_linearly,
    free_module,
    min_generators,
    realize_algebra_matrix,
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
    over A, the images of the generators of F_i: dim F_{i-1} x rank F_i
    (dim M x rank F_0 for the augmentation d_0), which diff_images returns;
    diff_coefficients is its coefficient view (gmod.coefficient_view), and
    diff_realized realizes it on request, without keeping it; solve keeps
    only the factorization (Q, E) of Z_i.  The span's rows are kept until
    step i has covered them, their pivot columns for good;
    syzygy_module re-derives a covered span by one kernel_rref of d_{i-1}
    read in its span, and the reduced echelon form of a row space is
    unique, so the span is the one the step covered.  The syzygy module a
    span stands for is built, verified and cached on the first request.

    Completed prefixes are immutable; extending the resolution only appends.
    Concurrent extension of the same resolution needs external locking.
    """

    def __init__(self, module: Module):
        self.module = module
        self.frees: List[FreeModule] = []
        self._images: List[Mat] = []  # index 0: augmentation F_0 -> M; i >= 1: d_i
        # index i: the pivot columns of the span step i covers (ker d_{i-1}
        # in F_{i-1}, or M at 0); the RREF rows of the span the next step covers
        self._pivots = [np.arange(module.dim)]
        self._span = Mat.identity(module.field, module.dim)
        # Z of the last step, its d read in its span's coordinates: the next
        # step checks d o d = 0 through it
        self._z: Optional[Mat] = None
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
        target = self.frees[i - 1] if i else self.module
        span, pivots = self._span, self._pivots[i]
        if span.rows == 0:
            # nothing to cover: the zero free module, the zero map and an
            # empty span, the objects the general path builds; every check
            # on them is vacuous
            F, images = free_module(A, []), Mat.zeros(A.field, target.dim, 0)
            Z = R = Mat.zeros(A.field, 0, 0)
            ker_pivots = np.zeros(0, dtype=np.intp)
        else:
            gens = min_generators(target, span)
            F = free_module(A, [d for _, d in gens])
            # realized map F -> target, sending the g-th generator to the
            # g-th lift; it lives while the step runs, and the resolution
            # keeps its generator columns, d_i over A
            lifts = np.array([vec for vec, _ in gens], dtype=np.int64).reshape(len(gens), target.dim)
            d_real = extend_linearly(target, Mat._trusted(A.field, lifts.T))
            images = Mat._trusted(A.field, d_real.a[:, F.generator_columns()])
            # the span is in reduced echelon form, so its pivot columns are
            # coordinates on it: Z, the pivot rows of d_i, is d_i read in them
            Z = Mat._trusted(A.field, d_real.a[pivots])
            if i:
                # minimality: constructive generator choice keeps entries in
                # m, so the images vanish at the generator rows of F_{i-1}
                check(not images.a[:: A.dim].any(), "differential entry has a unit component")
                # both maps are A-linear, so d_{i-1} o d_i vanishes when it
                # vanishes on the generators of F_i; step i-1 proved
                # d_{i-1} = span^T Z_{i-1} with independent span rows, so
                # d_{i-1} x = 0 exactly when Z_{i-1} x = 0
                check((self._z @ images).is_zero(), f"d_{i-1} o d_{i} != 0")
                # the image of d_i lies in the span: a column lies in it
                # exactly when it equals the span rows combined by its
                # coordinates Z.  The span is the identity at its pivot
                # columns (kernel_rref writes it so), so the pivot rows agree
                # by definition of Z and only the other rows need the
                # product.  At i = 0 the span is all of M.
                rest = _complement(span.cols, pivots)
                check(Mat._trusted(A.field, span.a[:, rest].T) @ Z == Mat._trusted(A.field, d_real.a[rest]),
                      f"image of d_{i} leaves the span of ker d_{i-1}")
            # One elimination of Z gives its rank and ker Z.  Reading
            # coordinates is injective on the span, which holds the image, so
            # rank Z = rank d_i and ker Z = ker d_i.  Exactness: the image of
            # d_i (the augmentation at i = 0) fills the span.
            rank, R, ker_pivots = kernel_rref(Z)
            check(rank == span.rows,
                  f"image of d_{i} does not fill ker d_{i-1}" if i else "augmentation F_0 -> M is not onto")
        self.frees.append(F)
        self._images.append(images)
        self._pivots.append(ker_pivots)
        self._span, self._z = R, Z

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
        if n < 0:
            raise InputError("differentials are indexed from 0, the augmentation")
        self.extend(n)
        return extend_linearly(self.frees[n - 1] if n else self.module, self._images[n])

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
        if B.rows != self.diff_images(i).rows:
            raise InputError(f"right-hand side has {B.rows} rows, expected {self._images[i].rows}")
        d = self.diff_realized(i)
        if i not in self._solvers:
            self._solvers[i] = pivot_inverse(Mat._trusted(d.field, d.a[self._pivots[i]]))
        Q, E = self._solvers[i]
        X = np.zeros((d.cols, B.cols), dtype=np.int64)
        X[Q] = (E @ Mat._trusted(d.field, B.a[self._pivots[i]])).a
        X = Mat._trusted(d.field, X)
        check(d @ X == B, f"right-hand side outside the image of d_{i}")
        return X

    def diff_images(self, n: int) -> Mat:
        """d_n over A, its generator images as kept: dim F_{n-1} x rank F_n,
        the augmentation F_0 -> M (dim M x rank F_0) at n = 0."""
        if n < 0:
            raise InputError("differentials are indexed from 0, the augmentation")
        self.extend(n)
        return self._images[n]

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
            if i == len(self.frees):
                span = self._span
            else:
                # covered: ker d_{i-1} = ker Z_{i-1}, in reduced echelon form
                d = self.diff_realized(i - 1)
                span = kernel_rref(Mat._trusted(d.field, d.a[self._pivots[i - 1]]))[1]
            self._syz[i] = submodule_from_span(self.frees[i - 1], span, provenance=f"syzygy({i})")
        return self._syz[i].module

    def syzygy_inclusion(self, i: int) -> Mat:
        if i < 1:
            raise InputError("only positive syzygies embed into a free module")
        self.syzygy_module(i)
        return self._syz[i].inclusion

    def __repr__(self):
        return f"MinimalFreeResolution(to {self.computed_to}, betti {[f.rank for f in self.frees]})"


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
    realized = []
    for idx, mat in enumerate(matrices):
        what = f"matrix {start_index + idx}"
        F_next = free_module(algebra, column_degrees(algebra, mat, frees[-1].gen_degrees, what))
        realized.append(realize_algebra_matrix(F_next, frees[-1], mat))
        frees.append(F_next)

    # the generators of a free module sit at every dim A-th coordinate.  Both
    # maps are A-linear, so d_n o d_{n+1} vanishes when it vanishes on the
    # generator columns of d_{n+1}; the units of d_n are its constant
    # coefficients, read at its generator rows and generator columns
    dA = algebra.dim
    d2_ok = True
    for n in range(len(matrices) - 1):
        if not (realized[n] @ Mat._trusted(algebra.field, realized[n + 1].a[:, ::dA])).is_zero():
            d2_ok = False
            failures.append({"kind": "d2_nonzero", "at": start_index + n})
    minimal = True
    for idx in range(len(matrices)):
        for i, j in zip(*np.nonzero(realized[idx].a[::dA, ::dA])):
            minimal = False
            failures.append({"kind": "unit_entry", "matrix": start_index + idx, "row": int(i), "col": int(j)})
    exact_at = []
    for n in range(1, len(matrices)):
        nullity = frees[n].dim - realized[n - 1].rank()
        if realized[n].rank() == nullity:
            exact_at.append(start_index + n)
        else:
            failures.append({
                "kind": "not_exact",
                "at": start_index + n,
                "incoming_rank": realized[n].rank(),
                "kernel_dim": nullity,
            })
    return ComplexReport(start_index, len(matrices), d2_ok, minimal, exact_at, failures)
