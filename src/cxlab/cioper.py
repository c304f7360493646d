"""Degree-two cohomology operators over monomial complete intersections.

For A = k[x_1..x_c]/(x_1^{n_1}, .., x_c^{n_c}) the differential of a minimal
free resolution lifts canonically to the polynomial ring: its kept lifts
(MinimalFreeResolution.diff_lifts) list each entry over the standard
monomials, which are ordinary monomials.  The square of the lift factors
through the relations, and since the relation ideal is generated by pure
powers every monomial of the square is claimed by the lowest variable index
whose exponent reaches its power.  That decomposition is unique, so the
chain operators are deterministic.  They are computed from the terms of the
two lifts, a plain loop over their nonzero entries with no polynomial,
AlgebraElement or dense array on the way, and kept as sparse columns, one
dict {r dim A + m: residue} per generator: the one form in which the
library keeps a matrix over A.  The chain identity and the operator classes
in Ext^2(M, M) are sparse composites on generators (gmod.compose_sparse);
an operator is realized as a field matrix only on request, as the A-linear
extension of its columns.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InputError, InvariantError, check
from .exactla import Field, Mat, _dense
from .gmod import Module, compose_sparse, extend_linearly, residue_field
from .gralg import Algebra, Polynomial, build_algebra, codimension
from .resol import resolve
from .yoneda import (
    DEFAULT_TAIL,
    DEFAULT_WINDOW,
    ExtElement,
    PushoutExtension,
    Verdict,
    _check_tail,
    ext_table,
    pushout,
)

__all__ = [
    "MonomialCI",
    "EisenbudOperatorSet",
    "eisenbud_operators",
    "chi_self_extension",
    "cut_by_chi",
    "build_kchi",
    "vartest_check",
    "testci_run",
]


@dataclass(frozen=True)
class MonomialCI:
    """A = k[x_1..x_c]/(x_1^{n_1}, .., x_c^{n_c}), exponents all >= 2."""

    field: Field
    exponents: Tuple[int, ...]
    algebra: Algebra

    @classmethod
    def build(cls, field: Field, exponents: Sequence[int],
              varnames: Optional[Sequence[str]] = None) -> "MonomialCI":
        exps = tuple(int(n) for n in exponents)
        if any(n < 2 for n in exps):
            raise InputError("monomial complete intersection needs every exponent >= 2")
        c = len(exps)
        rels = [Polynomial.variable(field, c, i, power=n) for i, n in enumerate(exps)]
        alg = build_algebra(field, c, rels, varnames=varnames)
        expected = 1
        for n in exps:
            expected *= n
        check(alg.dim == expected, "monomial CI dimension must be the product of the exponents")
        check(codimension(alg) == c, "monomial CI codimension must be the number of exponents")
        return cls(field, exps, alg)

    @classmethod
    def from_algebra(cls, algebra: Algebra) -> "MonomialCI":
        """Recognize an algebra presented by pure powers of distinct variables."""
        c = algebra.nvars
        exps = [0] * c
        if len(algebra.relations) != c:
            raise InputError("not a monomial complete intersection: wrong relation count")
        for g in algebra.relations:
            if len(g.terms) != 1:
                raise InputError(f"relation {g!r} is not a pure power")
            e, coeff = g.terms[0]
            nz = [i for i, a in enumerate(e) if a]
            if len(nz) != 1 or coeff != 1:
                raise InputError(f"relation {g!r} is not a pure power of one variable")
            i = nz[0]
            if exps[i]:
                raise InputError(f"variable {algebra.varnames[i]} has two pure-power relations")
            exps[i] = e[i]
        if any(n < 2 for n in exps):
            raise InputError("every variable needs a pure-power relation of exponent >= 2")
        return cls(algebra.field, tuple(exps), algebra)

    @property
    def codim(self) -> int:
        return len(self.exponents)


def _chi_images(ci: MonomialCI, prev: Sequence[dict], cur: Sequence[dict], rank: int) -> List[List[dict]]:
    """chi_1..chi_c at source degree n as sparse columns, one dict per
    generator of F_n, from the kept lifts of d_{n-1} (prev, on F_{n-2} of
    the given rank) and d_n (cur).

    Entry (r, g) of the lifted square sums c1 c2 x^(m1 + m2) over the terms
    c1 x^m1 of entry (r, s) of d_{n-1} and c2 x^m2 of entry (s, g) of d_n.
    Its part at a monomial e goes to the lowest j with e_j >= n_j, at e -
    n_j e_j when that is standard (otherwise it is zero in A); the parts no
    pure power claims must cancel.  When two pure powers divide e, e - n_j
    e_j is not standard for either j, so the operators do not depend on
    which index claims e.  Distinct monomials claimed by one j give distinct
    quotients, so a column's terms are summed at the key (j rank + r) dim A
    + (index of the quotient), j = c where no pure power claims e, and each
    sum is reduced mod p once, at its end.
    """
    A, p, c, dA = ci.algebra, ci.field.p, ci.codim, ci.algebra.dim
    block = rank * dA

    def claim(m1: int, m2: int) -> Optional[int]:
        """The key of x^(m1 + m2) in row 0, None where it is 0 in A."""
        e = tuple(a + b for a, b in zip(A.basis[m1], A.basis[m2]))
        j = next((j for j, n in enumerate(ci.exponents) if e[j] >= n), None)
        if j is None:
            return c * block + A.basis_index[e]  # no pure power divides e, so it is standard
        idx = A.basis_index.get(e[:j] + (e[j] - ci.exponents[j],) + e[j + 1:])
        return None if idx is None else j * block + idx

    m1s, m2s = ({key % dA for u in lifts for key in u} for lifts in (prev, cur))
    claims = {m1 * dA + m2: claim(m1, m2) for m1 in m1s for m2 in m2s}
    chi: List[List[dict]] = [[{} for _ in cur] for _ in range(c)]
    for g, col in enumerate(cur):
        acc: dict = {}
        for k2, c2 in col.items():
            s, m2 = divmod(k2, dA)
            for k1, c1 in prev[s].items():
                r, m1 = divmod(k1, dA)
                at = claims[m1 * dA + m2]
                if at is not None:
                    key = at + r * dA
                    acc[key] = acc.get(key, 0) + c1 * c2
        for key, x in acc.items():
            if x := x % p:
                j, at = divmod(key, block)
                if j == c:
                    raise InvariantError(f"monomial {A.basis[at % dA]} of the lifted square lies outside the "
                                         "relation ideal")
                chi[j][g][at] = x
    return chi


class EisenbudOperatorSet:
    """Chain operators chi_j: F_n -> F_{n-2} for one module's resolution.

    chi_images(j, n) is the matrix over A at source degree n (2 <= n <=
    max_degree), kept as sparse columns, one dict {r dim A + m: residue} per
    generator of F_n, as a resolution keeps d_n; the chain identity d o chi =
    chi o d is checked exactly, and the induced actions on Ext^*(M, k) commute
    (also checked).
    """

    def __init__(self, ci: MonomialCI, module: Module, max_degree: int):
        if module.algebra is not ci.algebra:
            raise InputError("module over a different algebra")
        if max_degree < 2:
            raise InputError("need max_degree >= 2 for degree-two operators")
        self.ci = ci
        self.module = module
        self.max_degree = max_degree
        self.resolution = resolve(module, max_degree)
        self._chi: Dict[int, List[List[dict]]] = {}  # n: the sparse columns of chi_1..chi_c
        self._build()

    def _build(self):
        res = self.resolution
        for n in range(2, self.max_degree + 1):
            self._chi[n] = _chi_images(self.ci, res.diff_lifts(n - 1), res.diff_lifts(n), res.free(n - 2).rank)
        # chain identity: d_{n-2} chi(n) = chi(n-1) d_n; both sides are
        # A-linear, so they agree when they agree on the generators of F_n
        for j in range(1, self.ci.codim + 1):
            for n in range(3, self.max_degree + 1):
                F = res.free(n - 3)
                lhs = compose_sparse(F, res.diff_lifts(n - 2), self._chi[n][j - 1])
                rhs = compose_sparse(F, self._chi[n - 1][j - 1], res.diff_lifts(n))
                check(lhs == rhs, f"chain identity fails for operator {j} at degree {n}")
        # induced actions on Ext^*(M, k) must commute pairwise (each built once)
        act = functools.cache(self.ext_action)
        for j in range(1, self.ci.codim + 1):
            for l in range(j + 1, self.ci.codim + 1):
                for n in range(0, self.max_degree - 3):
                    lhs = act(l, n + 2) @ act(j, n)
                    rhs = act(j, n + 2) @ act(l, n)
                    check(lhs == rhs, f"Ext actions of operators {j} and {l} do not commute")

    def chi_images(self, j: int, n: int) -> List[dict]:
        """The j-th operator (j is 1-based) F_n -> F_{n-2} over A: its
        sparse columns, one dict {r dim A + m: residue} per generator of
        F_n, the kept list itself."""
        self._check(j, n)
        return self._chi[n][j - 1]

    def chi_realized(self, j: int, n: int) -> Mat:
        """Field matrix F_n -> F_{n-2} of the j-th operator (j is 1-based):
        the A-linear extension of its columns, written dense."""
        columns = self.chi_images(j, n)  # checks j and n before F_{n-2} is read
        F = self.resolution.free(n - 2)
        return extend_linearly(F, Mat._trusted(F.field, _dense(columns, F.dim).T))

    def ext_action(self, j: int, n: int) -> Mat:
        """Induced map Ext^n(M, k) -> Ext^{n+2}(M, k), j 1-based: the
        transposed constant coefficients of chi_j: each column's terms at the
        generator columns of F_n, the keys r dim A."""
        dA, columns = self.ci.algebra.dim, self.chi_images(j, n + 2)
        constants = [{key // dA: c for key, c in col.items() if not key % dA} for col in columns]
        return Mat._trusted(self.ci.field, _dense(constants, self.resolution.betti(n)))

    def _check(self, j: int, n: int):
        if not 1 <= j <= self.ci.codim:
            raise InputError(f"operator index {j} out of range 1..{self.ci.codim}")
        if not 2 <= n <= self.max_degree:
            raise InputError(f"operator degree {n} outside computed range [2, {self.max_degree}]")


def eisenbud_operators(ci: MonomialCI, module: Module, max_degree: int) -> EisenbudOperatorSet:
    """Compute the commuting degree-two chain operators for a resolved module."""
    return EisenbudOperatorSet(ci, module, max_degree)


def chi_self_extension(ops: EisenbudOperatorSet, j: int) -> ExtElement:
    """The class of the j-th operator (1-based) in Ext^2(M, M): compose it
    with F_0 -> M on the generators of F_2, one sparse composite, whose
    columns, one block of M-coordinates per generator, are its vector."""
    res, M = ops.resolution, ops.module
    res.extend(3)
    phi = compose_sparse(M, res.diff_lifts(0), ops.chi_images(j, 2))
    return ExtElement(res, M, 2, _dense(phi, M.dim).reshape(-1), -ops.ci.exponents[j - 1])


def cut_by_chi(ops: EisenbudOperatorSet, j: int) -> PushoutExtension:
    """Pushout along the j-th operator class; drops the complexity estimate by
    one exactly when the operator still acts injectively on the Ext tail."""
    return pushout(chi_self_extension(ops, j))


def build_kchi(ci: MonomialCI, j: int) -> Module:
    """The test module k_chi_j: the cut of the residue field along chi_j.

    It is the extension 0 -> k -> K -> m -> 0 of the maximal ideal m by a
    copy of k in degree n_j, so dim K = dim A; the pushout verifies its
    exactness.
    """
    return cut_by_chi(eisenbud_operators(ci, residue_field(ci.algebra), 4), j).module


def vartest_check(m: Module, tests: Sequence[Module], t: int,
                  max_degree: int = DEFAULT_WINDOW) -> Verdict:
    """Coordinate-cut variety test: tail vanishing against any single test
    module of cut size t bounds the complexity by t."""
    if not tests:
        raise InputError("need at least one test module")
    _check_tail(max_degree)
    params = {"cut_size": t, "max_degree": max_degree, "tail": DEFAULT_TAIL,
              "tail_window": [max_degree - DEFAULT_TAIL + 1, max_degree]}
    witnesses = []
    for idx, n in enumerate(tests):
        if n.algebra is not m.algebra:
            raise InputError("test module over a different algebra")
        table = ext_table(m, n, max_degree)
        nz = [(i, table[i]) for i in range(max_degree - DEFAULT_TAIL + 1, max_degree + 1) if table[i] != 0]
        if not nz:
            return Verdict("bound_established", True, params,
                           witness={"test_index": idx},
                           note=f"cx <= {t}: tail of Ext against test {idx} vanishes")
        witnesses.append({"test_index": idx, "degree": nz[0][0], "dim": nz[0][1]})
    return Verdict("inconclusive", True, params, witness={"nonvanishing": witnesses},
                   note="no test exhibited tail vanishing")


def testci_run(m: Module, t: int, q: int, n: int, tests: Sequence[Module],
               test_names: Optional[Sequence[str]] = None) -> Verdict:
    """Finite-window complexity test over a monomial complete intersection.

    Checks the groups Ext^{n + i q}(M, N) for 0 <= i <= c - t against every
    supplied test module of declared complexity t; all of them vanishing
    establishes cx M < t for the checked family.  The underlying statement
    quantifies over all modules of complexity t, so the verdict always
    records that only a finite family was inspected.
    """
    ci = MonomialCI.from_algebra(m.algebra)
    c = ci.codim
    if not 1 <= t <= c:
        raise InputError(f"t must lie in 1..{c}")
    if q < 1 or q % 2 == 0:
        raise InputError("q must be an odd number >= 1")
    if n <= 0 or n % 2 == 1:
        raise InputError("n must be a positive even number")
    if not tests:
        raise InputError("need at least one test module")
    degrees = [n + i * q for i in range(c - t + 1)]
    params = {"t": t, "q": q, "n": n, "checked_degrees": degrees,
              "caveat": "finite test family only; the bound is relative to it"}
    names = list(test_names) if test_names else [f"test_{i}" for i in range(len(tests))]
    for idx, N in enumerate(tests):
        if N.algebra is not m.algebra:
            raise InputError("test module over a different algebra")
        table = ext_table(m, N, max(degrees))
        for d in degrees:
            if table[d] != 0:
                return Verdict("inconclusive", True, params,
                               witness={"test": names[idx], "degree": d, "dim": table[d]},
                               note="a checked group is nonzero; no bound follows")
    return Verdict("bound_established", True, params,
                   note=f"cx < {t} relative to the checked family of test modules")
