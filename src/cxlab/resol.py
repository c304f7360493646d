"""Minimal free resolutions, Betti numbers and complexity estimation.

Resolutions are built constructively: generators are lifted from M/mM, so
minimality (all differential entries in the maximal ideal) holds by
construction and is asserted at every step together with d o d = 0 and
exactness of the realized complexes.  A resolution is cached on its module
and extended incrementally; previously computed steps never change.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError
from .exactla import Mat, kernel_basis
from .gralg import Algebra, AlgebraElement
from .gmod import (
    FreeModule,
    Module,
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

    Completed prefixes are immutable; extending the resolution only appends.
    Concurrent extension of the same resolution needs external locking.
    """

    def __init__(self, module: Module):
        self.module = module
        self.frees: List[FreeModule] = []
        self.augmentation: Optional[Mat] = None       # F_0 coords -> M coords
        self._diff_real: List[Optional[Mat]] = [None]  # index i >= 1: d_i realized
        self._diff_alg: List[Optional[list]] = [None]  # index i >= 1: entries over A
        self._syz: List[Module] = [module]             # syzygy modules, syz[0] = M
        self._syz_inc: List[Optional[Mat]] = [None]    # inclusion of syz[i] into F_{i-1}

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
        K = self._syz[i]
        gens = min_generators(K)
        F = free_module(A, [d for _, d in gens])
        # realized map F -> K, sending the g-th generator to the g-th lift
        lifts = np.array([vec for vec, _ in gens], dtype=np.int64).reshape(len(gens), K.dim)
        eps_mat = extend_linearly(K, Mat(A.field, lifts.T))
        self.frees.append(F)
        if i == 0:
            self.augmentation = eps_mat
        else:
            d_real = self._syz_inc[i] @ eps_mat
            prev_free = self.frees[i - 1]
            d_alg = [[None] * F.rank for _ in range(prev_free.rank)]
            for g, col in enumerate(F.generator_columns()):
                for r, a in enumerate(prev_free.to_algebra_entries(d_real.a[:, col])):
                    # minimality: constructive generator choice keeps entries in m
                    assert a.constant_term() == 0, "differential entry has a unit component"
                    d_alg[r][g] = a
            self._diff_real.append(d_real)
            self._diff_alg.append(d_alg)
            # complex and exactness bookkeeping
            if i == 1:
                assert (self.augmentation @ d_real).is_zero(), "eps o d_1 != 0"
            else:
                assert (self._diff_real[i - 1] @ d_real).is_zero(), f"d_{i-1} o d_{i} != 0"
            assert d_real.rank() == K.dim, f"image of d_{i} does not fill the syzygy"
        ker = kernel_basis(eps_mat)
        sub = submodule_from_span(F, ker.transpose(), provenance=f"syzygy({i + 1})")
        self._syz.append(sub.module)
        self._syz_inc.append(sub.inclusion)

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
        if n < 1:
            raise InputError("differentials are indexed from 1")
        self.extend(n)
        return self._diff_real[n]

    def diff_algebra(self, n: int) -> list:
        if n < 1:
            raise InputError("differentials are indexed from 1")
        self.extend(n)
        return self._diff_alg[n]

    def syzygy_module(self, i: int) -> Module:
        if i < 0:
            raise InputError("syzygy index must be nonnegative")
        self.extend(max(i - 1, 0))
        if i >= len(self._syz):
            self.extend(i)
        return self._syz[i]

    def syzygy_inclusion(self, i: int) -> Mat:
        if i < 1:
            raise InputError("only positive syzygies embed into a free module")
        self.syzygy_module(i)
        return self._syz_inc[i]

    def generator_degrees(self, n: int) -> Tuple[int, ...]:
        self.extend(n)
        return self.frees[n].gen_degrees

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
        assert all(b == 0 for b in seq[first:]), "Betti numbers revive after a zero"
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
    rows0 = len(matrices[0])
    degrees = list(target_degrees) if target_degrees is not None else [0] * rows0
    if len(degrees) != rows0:
        raise InputError("target degree count does not match the first matrix")
    frees = [free_module(algebra, degrees)]
    realized = []
    cur_degrees = degrees
    for idx, mat in enumerate(matrices):
        rows = len(mat)
        if rows != len(cur_degrees):
            raise InputError(f"matrix {start_index + idx} has {rows} rows, expected {len(cur_degrees)}")
        ncols = len(mat[0]) if rows else 0
        col_degrees = []
        for j in range(ncols):
            degs = set()
            for i in range(rows):
                a = mat[i][j]
                if a.is_zero():
                    continue
                d = a.degree()
                if d is None:
                    raise InputError(f"entry ({i},{j}) of matrix {start_index + idx} is not homogeneous")
                degs.add(d + cur_degrees[i])
            if len(degs) != 1:
                raise InputError(f"column {j} of matrix {start_index + idx} has ambiguous degree")
            col_degrees.append(degs.pop())
        F_next = free_module(algebra, col_degrees)
        realized.append(realize_algebra_matrix(F_next, frees[-1], mat))
        frees.append(F_next)
        cur_degrees = col_degrees

    d2_ok = True
    for n in range(len(matrices) - 1):
        if not (realized[n] @ realized[n + 1]).is_zero():
            d2_ok = False
            failures.append({"kind": "d2_nonzero", "at": start_index + n})
    minimal = True
    for idx, mat in enumerate(matrices):
        for i, row in enumerate(mat):
            for j, a in enumerate(row):
                if a.constant_term() != 0:
                    minimal = False
                    failures.append({"kind": "unit_entry", "matrix": start_index + idx, "row": i, "col": j})
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
