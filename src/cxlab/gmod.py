"""Finitely generated graded modules over a graded Artinian algebra.

A module is a graded vector space with one commuting action matrix per
algebra variable.  The module axioms (commutativity, vanishing of the
relations, degree shifts) are verified where actions enter the program: a
direct `Module(...)` call, including `residue_field` and the regular
module of each algebra.  A module built from verified ones (`shift`,
`direct_sum`, `quotient_by_span`, `submodule_from_span`, `FreeModule`)
inherits the axioms; each such construction checks the one fact its
inheritance rests on.  Failed checks raise InvariantError, also under
`python -O`: the engine checks, it never assumes.

A module applies A to coordinates in one way: `Module.multiples` multiplies
every column of a coordinate matrix by every monomial of a fixed list (the
basis of A or its variables).  A module that is not free does it with one
exact product by its monomial actions, stacked and kept once per module.  A
free module keeps only its rank and the regular module, and reads the
products off the structure constants of A, kept once per algebra: one exact
int64 gather per term slot, and a single gather over a monomial algebra,
whose regular action is a partial permutation.  Its dense matrices
kron(I_r, X_v) are built on request, for the readers that need them
(`shift`, `direct_sum`, `hom_space`, `monomial_action` and the source side
of `ModuleMap.is_equivariant`), and never kept.  `extend_linearly`,
`compose_on_generators`, `realize_algebra_matrix`, `min_generators`, the
subquotients and the equivariance check go through `multiples`;
`block_action` is one product by the same stacked actions.
"""
from __future__ import annotations

import random
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, InvariantError, check
from .exactla import Field, Mat, _complement, _matmul_mod, kernel_basis, rref
from .gralg import Algebra, AlgebraElement

__all__ = [
    "Module",
    "FreeModule",
    "ModuleMap",
    "IsoVerdict",
    "free_module",
    "regular_module",
    "extend_linearly",
    "algebra_coefficients",
    "generator_images",
    "compose_on_generators",
    "block_action",
    "column_degrees",
    "coker_presentation",
    "residue_field",
    "direct_sum",
    "shift",
    "min_generators",
    "hom_space",
    "is_isomorphic",
    "quotient_by_span",
    "submodule_from_span",
]


class Module:
    """Graded module: degree-labelled basis plus commuting variable actions."""

    def __init__(self, algebra: Algebra, degrees: Sequence[int], actions: Sequence[Mat],
                 provenance: str = "", chi_cuts: Optional[int] = None,
                 _skip_verify: bool = False):
        self.algebra = algebra
        self.degrees = tuple(int(d) for d in degrees)
        self._actions = tuple(actions)
        self.provenance = provenance
        self.chi_cuts = chi_cuts
        self._monomial_actions: Dict[Tuple[int, ...], Mat] = {}
        self._stacks: Dict[str, np.ndarray] = {}
        self._resolution = None
        if not _skip_verify:
            self._verify()

    @property
    def actions(self) -> Tuple[Mat, ...]:
        """The matrix X_v of each variable on this module's basis."""
        return self._actions

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def multiples(self, cols: Mat, which: str) -> Mat:
        """Every column of cols, a matrix of coordinates on this module,
        times every monomial x^e of a list: `which` is "basis" (the basis
        monomials of A, in order) or "variables".  The s products of
        column c sit side by side, at columns c*s .. c*s + s - 1."""
        if cols.rows != self.dim:
            raise InputError(f"{cols.rows} coordinates on a module of dimension {self.dim}")
        X = self._stacked(which)
        s, n, k = X.shape[0], self.dim, cols.cols
        # one product by the actions stacked on top of each other
        out = _matmul_mod(X.reshape(s * n, n), cols.a, self.field.p).reshape(s, n, k)
        return Mat._trusted(self.field, out.transpose(1, 2, 0).reshape(n, k * s))

    def _stacked(self, which: str) -> np.ndarray:
        """The actions of the monomials of the list `which` (see
        _monomial_list), an s x dim x dim array; built once per module."""
        got = self._stacks.get(which)
        if got is not None:
            return got
        monomials = _monomial_list(self.algebra, which)
        p, n, actions = self.field.p, self.dim, self.actions
        out = np.empty((len(monomials), n, n), dtype=np.int64)
        if which == "variables":
            for v, X in enumerate(actions):
                out[v] = X.a
        elif monomials:
            out[0] = np.eye(n, dtype=np.int64)  # basis[0] is 1
            # x_v m' is X_v times x^m': standard monomials are closed under
            # division and listed degree by degree, so m' comes first
            for j, mono in enumerate(monomials[1:], 1):
                v = next(i for i, a in enumerate(mono) if a)
                below = self.algebra.basis_index[mono[:v] + (mono[v] - 1,) + mono[v + 1:]]
                out[j] = _matmul_mod(actions[v].a, out[below], p)
        out.setflags(write=False)
        self._stacks[which] = out
        return out

    @property
    def field(self) -> Field:
        return self.algebra.field

    def _verify(self):
        A = self.algebra
        n = self.dim
        if len(self.actions) != A.nvars:
            raise InputError(f"expected {A.nvars} action matrices, got {len(self.actions)}")
        for X in self.actions:
            if X.shape != (n, n):
                raise InputError(f"action matrix has shape {X.shape}, expected ({n}, {n})")
            if X.field != A.field:
                raise InputError("action matrix over the wrong field")
        # degree shift: x_i maps the degree-d slice into the degree-(d+1) slice
        degrees = np.array(self.degrees, dtype=np.int64)
        for X in self.actions:
            rr, cc = np.nonzero(X.a)
            bad = np.flatnonzero(degrees[rr] != degrees[cc] + 1)
            if bad.size:
                r, c = rr[bad[0]], cc[bad[0]]
                raise InvariantError(f"action entry ({r},{c}) violates grading: "
                                     f"{self.degrees[c]} -> {self.degrees[r]}")
        # commutativity
        for i in range(A.nvars):
            for j in range(i + 1, A.nvars):
                check(self.actions[i] @ self.actions[j] == self.actions[j] @ self.actions[i],
                      f"actions of variables {i} and {j} do not commute")
        # every algebra relation must act as zero
        for g in A.relations:
            acc = Mat.zeros(A.field, n, n)
            for e, c in g.terms:
                acc = acc + self.monomial_action(e).scale(c)
            if not acc.is_zero():
                raise InvariantError(f"relation {g!r} does not annihilate the module")

    def monomial_action(self, e: Tuple[int, ...]) -> Mat:
        """Action of the monomial x^e (product of the commuting variable actions)."""
        e = tuple(int(a) for a in e)
        got = self._monomial_actions.get(e)
        if got is not None:
            return got
        out = Mat.identity(self.field, self.dim)
        for i, a in enumerate(e):
            for _ in range(a):
                out = self.actions[i] @ out
        self._monomial_actions[e] = out
        return out

    def hilbert(self) -> Dict[int, int]:
        return dict(sorted(Counter(self.degrees).items()))

    def __repr__(self):
        tag = f" {self.provenance}" if self.provenance else ""
        return f"Module(dim {self.dim} over F_{self.field.p},{tag} degrees {sorted(set(self.degrees))})"


class FreeModule(Module):
    """Free module on homogeneous generators; basis is generator-major blocks
    (generator g, standard monomial m) with degree deg(m) + deg(g).  Each
    block is a copy of `regular`, the algebra as a module over itself.  A
    free module multiplies through the structure constants of A; the dense
    matrices kron(I_r, X_v) are built only on request and never kept."""

    def __init__(self, algebra: Algebra, gen_degrees: Sequence[int]):
        self.gen_degrees = tuple(int(d) for d in gen_degrees)
        self.regular = regular_module(algebra)
        degrees = []
        for g in self.gen_degrees:
            degrees.extend(d + g for d in algebra.basis_degrees)
        # inherited: every block carries the verified regular representation
        super().__init__(algebra, degrees, (), provenance="free", _skip_verify=True)

    @property
    def rank(self) -> int:
        return len(self.gen_degrees)

    def multiples(self, cols: Mat, which: str) -> Mat:
        """Module.multiples, read off the structure constants of A: entry
        (g, a) of column c times x^e_j is the sum of v * cols[(g, src), c]
        over the terms (src, v) of (a, j) (see _structure_terms), so the
        result is one gather per term slot, exact in int64 at every p.  Over
        a monomial algebra every term is 1, one slot holds them all, and the
        gather is the whole product."""
        if cols.rows != self.dim:
            raise InputError(f"{cols.rows} coordinates on a free module of dimension {self.dim}")
        src, coef = _structure_terms(self.algebra, which)
        dA, r, k = self.algebra.dim, self.rank, cols.cols
        # V[g, c, m]: coordinate m of block g of column c, and a zero at
        # m = dim A, which padding terms read
        V = np.zeros((r, k, dA + 1), dtype=np.int64)
        V[:, :, :dA] = cols.a.reshape(r, dA, k).transpose(0, 2, 1)
        V = V.reshape(r, k * (dA + 1))
        # slot t of entry (g, a) of column c times x^e_j reads V[g, c, src[t, a, j]]:
        # one take per slot writes the products in place, (g, a) by (c, j)
        at = src[:, :, None, :] + (dA + 1) * np.arange(k)[:, None]
        out = np.take(V, at[0], axis=1)
        if coef is not None:
            p = self.field.p
            out *= coef[0][:, None, :]
            out %= p
            for t in range(1, len(src)):
                # each term is below p^2 < 2^62 until reduced; the sum of the
                # reduced terms stays below dim A * p
                term = np.take(V, at[t], axis=1)
                term *= coef[t][:, None, :]
                term %= p
                out += term
            out %= p
        return Mat._trusted(self.field, out.reshape(self.dim, k * src.shape[2]))

    def _dense(self, X: Mat) -> Mat:
        """kron(I_r, X): the regular matrix X on every generator block."""
        return Mat._trusted(self.field, np.kron(np.eye(self.rank, dtype=np.int64), X.a))

    @property
    def actions(self) -> Tuple[Mat, ...]:
        return tuple(self._dense(X) for X in self.regular.actions)

    def monomial_action(self, e: Tuple[int, ...]) -> Mat:
        return self._dense(self.regular.monomial_action(e))

    def generator_columns(self) -> List[int]:
        """Coordinate of each generator: the monomial 1 in its block."""
        dA = self.algebra.dim
        return [g * dA for g in range(self.rank)]


def free_module(algebra: Algebra, gen_degrees: Sequence[int]) -> FreeModule:
    return FreeModule(algebra, gen_degrees)


# A as a module over itself, shared while some module holds it (each free
# module does).  A module refers to its algebra, so strong values would keep
# every algebra alive; the weak set remembers, for each live algebra, that
# the axioms were verified, so a rebuilt regular module is not verified again.
_REGULAR: "weakref.WeakValueDictionary[Algebra, Module]" = weakref.WeakValueDictionary()
_REGULAR_VERIFIED: "weakref.WeakSet[Algebra]" = weakref.WeakSet()


def regular_module(algebra: Algebra) -> Module:
    """A as a module over itself; its axioms are verified once per algebra."""
    got = _REGULAR.get(algebra)
    if got is None:
        got = Module(algebra, algebra.basis_degrees,
                     [algebra.variable_action(i) for i in range(algebra.nvars)],
                     provenance="regular", _skip_verify=algebra in _REGULAR_VERIFIED)
        _REGULAR[algebra] = got
        _REGULAR_VERIFIED.add(algebra)
    return got


def _monomial_list(algebra: Algebra, which: str) -> List[Tuple[int, ...]]:
    """The monomials Module.multiples applies: A's basis or its variables."""
    if which == "basis":
        return algebra.basis
    if which == "variables":
        return [tuple(int(i == v) for i in range(algebra.nvars)) for v in range(algebra.nvars)]
    raise InputError(f"no monomial list named {which!r}: expected 'basis' or 'variables'")


# The terms of A's structure constants for each monomial list, built once
# per algebra from its verified regular module; arrays only, so no algebra
# is kept alive by its entry.
_STRUCTURE: "weakref.WeakKeyDictionary[Algebra, Dict[str, tuple]]" = weakref.WeakKeyDictionary()


def _structure_terms(algebra: Algebra, which: str):
    """The structure constants x^e_j * basis[c] = sum over a of S[j, a, c]
    basis[a], for the monomials e_j of the list `which` (see
    _monomial_list), as two arrays (src, coef) of shape (slots, dim A, s).

    The nonzero S[j, a, c] of each output (a, j) fill its slots t = 0, 1,
    ..: src[t, a, j] = c and coef[t, a, j] = S[j, a, c].  An unused slot
    reads source dim A, a zero the reader appends.  coef is None when one
    slot holds every term and each term is 1, as over a monomial algebra,
    whose regular action is a partial permutation."""
    cache = _STRUCTURE.setdefault(algebra, {})
    got = cache.get(which)
    if got is not None:
        return got
    monomials = _monomial_list(algebra, which)
    dA, s = algebra.dim, len(monomials)
    # S[j, a, c] is entry (a, c) of the action of x^e_j on the regular module
    S = regular_module(algebra)._stacked(which)
    a, j, c = np.nonzero(S.transpose(1, 0, 2))  # ordered by (a, j)
    key = a * s + j
    slot = np.arange(key.size) - np.searchsorted(key, key)
    slots = int(slot.max()) + 1 if key.size else 1
    src = np.full((slots, dA, s), dA, dtype=np.intp)
    coef = np.ones((slots, dA, s), dtype=np.int64)
    src[slot, a, j] = c
    coef[slot, a, j] = S[j, a, c]
    got = cache[which] = (src, None if slots == 1 and (coef == 1).all() else coef)
    return got


def extend_linearly(target: Module, gen_images: Mat) -> Mat:
    """Matrix of the A-linear map from a free module into target that sends
    generator g to column g of gen_images; column (g, m) is m times it."""
    return target.multiples(gen_images, "basis")


def algebra_coefficients(d: Mat, src: FreeModule, tgt: FreeModule) -> np.ndarray:
    """Matrix over A of the A-linear map src -> tgt whose field matrix is d,
    as an array C of shape (dim A, tgt.rank, src.rank): C[m, r, g] is the
    coefficient of basis monomial m in entry (r, g).  Column (g, 1) of d,
    the image of generator g, holds the entries (., g), so C is a view of
    d's generator columns."""
    if d.shape != (tgt.dim, src.dim):
        raise InputError(f"matrix of shape {d.shape} is not a map of free modules "
                         f"of dimensions {src.dim} -> {tgt.dim}")
    dA = src.algebra.dim
    return d.a[:, ::dA].reshape(tgt.rank, dA, src.rank).transpose(1, 0, 2)


def generator_images(field: Field, coeffs: np.ndarray) -> Mat:
    """Inverse of algebra_coefficients: the images of the source generators
    (one column each) of the map over A with coefficient array coeffs,
    entry (r, g) in the rows of block r."""
    dA, rows, cols = coeffs.shape
    return Mat(field, coeffs.transpose(1, 0, 2).reshape(rows * dA, cols))


def compose_on_generators(target: Module, images: Mat, coeffs: np.ndarray) -> Mat:
    """Generator images of phi o d, where phi: F -> target is the A-linear
    map sending generator r of F to column r of images, and d: F' -> F is
    the matrix over A with coefficient array coeffs (see algebra_coefficients):
    phi realized by extend_linearly, times the generator images of d.
    """
    _, rows, cols = coeffs.shape
    if images.rows != target.dim or images.cols != rows:
        raise InputError(f"generator images of shape {images.shape} do not compose with "
                         f"{rows} x {cols} over A into dimension {target.dim}")
    return extend_linearly(target, images) @ generator_images(target.field, coeffs)


def block_action(n: Module, coeffs: np.ndarray) -> Mat:
    """Field matrix of a rows x cols matrix over A acting on N^cols -> N^rows,
    given by its coefficient array (see algebra_coefficients): block (i, j)
    is the action of entry (i, j) on N, the sum over the basis monomials m
    of coeffs[m, i, j] times x^m acting on N.  Over the monomials that
    occur, that is one product of the coefficients by the actions of N."""
    _, rows, cols = coeffs.shape
    d = n.dim
    occurring = np.flatnonzero(coeffs.any(axis=(1, 2)))
    terms = _matmul_mod(coeffs[occurring].reshape(occurring.size, rows * cols).T,
                        n._stacked("basis")[occurring].reshape(occurring.size, d * d), n.field.p)
    out = terms.reshape(rows, cols, d, d).transpose(0, 2, 1, 3).reshape(rows * d, cols * d)
    return Mat._trusted(n.field, out)


def realize_algebra_matrix(src: FreeModule, tgt: FreeModule,
                           entries: Sequence[Sequence[AlgebraElement]]) -> Mat:
    """Field-linear matrix of the map src -> tgt given by a matrix over A.

    entries[i][j] is the coefficient of generator i of tgt on generator j of
    src: the A-linear extension of the generator images the entries give.
    """
    if len(entries) != tgt.rank or any(len(r) != src.rank for r in entries):
        raise InputError("entry matrix shape does not match generator counts")
    if any(a.algebra is not src.algebra for row in entries for a in row):
        raise InputError("entry over a different algebra")
    vecs = np.array([[a.vec for a in row] for row in entries], dtype=np.int64)
    coeffs = vecs.reshape(tgt.rank, src.rank, src.algebra.dim).transpose(2, 0, 1)
    return extend_linearly(tgt, generator_images(src.field, coeffs))


def residue_field(algebra: Algebra) -> Module:
    """k = A/m as a module: one basis vector in degree 0, all actions zero."""
    z = Mat.zeros(algebra.field, 1, 1)
    return Module(algebra, [0], [z] * algebra.nvars, provenance="k", chi_cuts=0)


def direct_sum(m: Module, n: Module) -> Module:
    if m.algebra is not n.algebra:
        raise InputError("direct sum of modules over different algebras")
    degrees = m.degrees + n.degrees
    actions = []
    for X, Y in zip(m.actions, n.actions):
        arr = np.zeros((m.dim + n.dim, m.dim + n.dim), dtype=np.int64)
        arr[: m.dim, : m.dim] = X.a
        arr[m.dim :, m.dim :] = Y.a
        actions.append(Mat(m.field, arr))
    # inherited: the actions are block-diagonal copies of verified actions
    return Module(m.algebra, degrees, actions, provenance="sum", _skip_verify=True)


def shift(m: Module, s: int) -> Module:
    """Relabel every degree by +s; nothing else changes."""
    # inherited: the actions are the same verified matrices
    return Module(m.algebra, [d + s for d in m.degrees], m.actions,
                  provenance=m.provenance or "shift", chi_cuts=m.chi_cuts, _skip_verify=True)


def min_generators(m: Module, span: Optional[Mat] = None) -> List[Tuple[np.ndarray, int]]:
    """A basis of N/mN lifted to homogeneous elements of M, with degrees.

    N is M, or the span of the rows of span, a reduced echelon form whose
    pivot columns are coordinates on N.  Lifts are the rows of span (unit
    vectors for N = M) at the non-pivot positions of the reduced echelon
    form of mN in those coordinates, so the choice is canonical."""
    if span is None:
        span = Mat.identity(m.field, m.dim)
    if span.rows == 0:
        return []
    pivots = np.argmax(span.a != 0, axis=1)
    check(np.array_equal(span.a[:, pivots], np.eye(span.rows)), "span is not in reduced echelon form")
    # mN is spanned by the images of the basis rows under each variable; the
    # order of the rows does not change the pivots of their echelon form
    images = m.multiples(span.transpose(), "variables").a[pivots]
    _, mn_pivots, _ = rref(Mat._trusted(m.field, images.T))
    return [(span.a[q].copy(), _row_degree(m, span.a[q]))
            for q in _complement(span.rows, mn_pivots)]


@dataclass
class ModuleMap:
    """Field-linear map that commutes with every variable action."""

    source: Module
    target: Module
    matrix: Mat

    def is_equivariant(self) -> bool:
        return _commutes(self.matrix, self.source.actions, self.target)

    def is_invertible(self) -> bool:
        return self.source.dim == self.target.dim and self.matrix.rank() == self.source.dim


def _commutes(matrix: Mat, source_actions: Sequence[Mat], target: Module) -> bool:
    """True when matrix X_i = X_i matrix for every variable, X_i acting on
    the source by source_actions[i] and on the target through multiples."""
    images = _by_variable(target, target.multiples(matrix, "variables").a)
    return all(matrix @ X == Y for X, Y in zip(source_actions, images))


def _by_variable(m: Module, multiples: np.ndarray) -> List[Mat]:
    """The products of Module.multiples(cols, "variables") on m split by
    variable: entry v is X_v @ cols."""
    s = m.algebra.nvars
    return [Mat._trusted(m.field, multiples[:, v::s]) for v in range(s)]


def hom_space(m: Module, n: Module) -> List[ModuleMap]:
    """Basis of Hom_A(M, N) = {phi : phi X_i = X_i phi for all i}.

    Solved as one field-linear system; the basis is canonical under the
    deterministic pivoting of the kernel computation.
    """
    if m.algebra is not n.algebra:
        raise InputError("hom between modules over different algebras")
    p = m.field.p
    dM, dN = m.dim, n.dim
    if dM == 0 or dN == 0:
        return []
    nv = m.algebra.nvars
    # built once: a free source's dense actions serve the system and every check
    m_actions = m.actions
    if nv == 0:
        blocks = np.zeros((0, dN * dM), dtype=np.int64)
    else:
        rows = []
        I_N = np.eye(dN, dtype=np.int64)
        I_M = np.eye(dM, dtype=np.int64)
        for X, Y in zip(m_actions, n.actions):
            # row-major vec(phi): vec(phi X) = (I (x) X^T) v, vec(Y phi) = (Y (x) I) v
            rows.append((np.kron(I_N, X.a.T) - np.kron(Y.a, I_M)) % p)
        blocks = np.vstack(rows)
    K = kernel_basis(Mat(m.field, blocks))
    maps = []
    for j in range(K.cols):
        phi = Mat(m.field, K.a[:, j].reshape(dN, dM))
        check(_commutes(phi, m_actions, n), "Hom basis element is not equivariant")
        maps.append(ModuleMap(m, n, phi))
    return maps


@dataclass
class IsoVerdict:
    """Outcome of the randomized isomorphism search.

    kind is one of "yes", "structurally_distinct", "no_witness_found";
    the inconclusive branch is never reported as a definite "no".
    """

    kind: str
    witness: Optional[ModuleMap] = None
    reason: Optional[str] = None

    def to_jsonable(self) -> dict:
        return {"kind": self.kind, "reason": self.reason}


def is_isomorphic(m: Module, n: Module, seed: int = 0, attempts: int = 64) -> IsoVerdict:
    """Search for an invertible equivariant map M -> N.

    Structural invariants (dimension, graded dimensions, minimal generator
    count) rule out isomorphism outright; otherwise basis homomorphisms and
    seeded random combinations are tried.  A verified witness gives "yes";
    exhaustion gives "no_witness_found", which is explicitly inconclusive.
    """
    if m.algebra is not n.algebra:
        raise InputError("modules over different algebras")
    if m.dim != n.dim:
        return IsoVerdict("structurally_distinct", reason=f"dim {m.dim} != {n.dim}")
    if m.hilbert() != n.hilbert():
        return IsoVerdict("structurally_distinct", reason=f"graded dimensions differ: {m.hilbert()} vs {n.hilbert()}")
    if len(min_generators(m)) != len(min_generators(n)):
        return IsoVerdict("structurally_distinct", reason="minimal generator counts differ")
    if m.dim == 0:
        return IsoVerdict("yes", witness=ModuleMap(m, n, Mat.zeros(m.field, 0, 0)))
    basis = hom_space(m, n)
    if not basis:
        return IsoVerdict("no_witness_found", reason="Hom(M, N) = 0")
    for cand in basis:
        if cand.is_invertible():
            return IsoVerdict("yes", witness=cand)
    rng = random.Random(seed)
    p = m.field.p
    for _ in range(attempts):
        coeffs = [rng.randrange(p) for _ in basis]
        if not any(coeffs):
            continue
        acc = Mat.zeros(m.field, n.dim, m.dim)
        for c, bm in zip(coeffs, basis):
            if c:
                acc = acc + bm.matrix.scale(c)
        cand = ModuleMap(m, n, acc)
        if cand.is_invertible():
            check(cand.is_equivariant(), "isomorphism witness is not equivariant")
            return IsoVerdict("yes", witness=cand)
    return IsoVerdict("no_witness_found", reason=f"no invertible combination in {attempts} attempts")


# -- subquotient machinery -------------------------------------------------


def _row_degree(m: Module, row: np.ndarray) -> int:
    degs = {m.degrees[j] for j in np.nonzero(row)[0]}
    if len(degs) != 1:
        raise InvariantError(f"inhomogeneous vector with degrees {degs}")
    return degs.pop()


@dataclass
class Quotient:
    module: Module
    projection: Mat  # ambient coords -> quotient coords
    lift: Mat        # quotient coords -> ambient coords (section)


def quotient_by_span(m: Module, span_rows: Mat, provenance: str = "quotient",
                     chi_cuts: Optional[int] = None) -> Quotient:
    """Quotient of M by the subspace spanned by the given homogeneous rows.

    The rows must span an A-submodule (verified).  The quotient basis is the
    set of non-pivot coordinates of the span's reduced echelon form, so the
    construction is canonical.
    """
    if span_rows.cols != m.dim:
        raise InputError("span vectors have the wrong length")
    R, pivots, rank = rref(span_rows)
    nonpivot = _complement(m.dim, pivots)
    for r in range(rank):
        _row_degree(m, R.a[r])
    lift = np.zeros((m.dim, len(nonpivot)), dtype=np.int64)
    lift[nonpivot, np.arange(len(nonpivot))] = 1
    proj = lift.T.copy()
    proj[:, list(pivots)] = -R.a[:rank, nonpivot].T
    P = Mat(m.field, proj)
    L = Mat(m.field, lift)
    # invariance of the span: the induced actions are well defined; the
    # products of the span's rows come first, then those of the lift
    images = (P @ m.multiples(Mat._trusted(m.field, R.a[:rank].T).hstack(L), "variables")).a
    split = rank * m.algebra.nvars
    check(not images[:, :split].any(), "span is not an A-submodule")
    actions = _by_variable(m, np.ascontiguousarray(images[:, split:]))
    degrees = [m.degrees[j] for j in nonpivot]
    # inherited: the rows are homogeneous and P X_i R^T = 0, so P X_i = X'_i P
    # with P onto; commutation, the relations and the grading pass down
    q = Module(m.algebra, degrees, actions, provenance=provenance, chi_cuts=chi_cuts,
               _skip_verify=True)
    return Quotient(q, P, L)


@dataclass
class Submodule:
    module: Module
    inclusion: Mat  # submodule coords -> ambient coords


def submodule_from_span(m: Module, span_rows: Mat, provenance: str = "submodule") -> Submodule:
    """The A-submodule spanned by the given homogeneous rows, as a module.

    The basis is the reduced echelon form of the span; coordinates in the
    span are read off the pivot columns.
    """
    if span_rows.cols != m.dim:
        raise InputError("span vectors have the wrong length")
    R, pivots, rank = rref(span_rows)
    degrees = [_row_degree(m, R.a[r]) for r in range(rank)]
    inc = Mat(m.field, R.a[:rank].T)
    img = m.multiples(inc, "variables")  # ambient coords of X_i applied to each basis row
    coords = Mat._trusted(m.field, img.a[list(pivots)])
    # reconstruction check: the span is closed under the action
    check(inc @ coords == img, "span is not closed under the action")
    actions = _by_variable(m, coords.a)
    # inherited: inc X'_i = X_i inc holds exactly and inc is injective
    sub = Module(m.algebra, degrees, actions, provenance=provenance, _skip_verify=True)
    return Submodule(sub, inc)


def column_degrees(algebra: Algebra, entries: Sequence[Sequence[AlgebraElement]],
                   row_degrees: Sequence[int], what: str) -> List[int]:
    """Degree of each column of the matrix `what` over A, whose row i has
    degree row_degrees[i]: every nonzero entry of a column must be
    homogeneous and give it the same degree, else InputError."""
    rows = len(row_degrees)
    if len(entries) != rows:
        raise InputError(f"{what} has {len(entries)} rows, expected {rows}")
    ncols = len(entries[0]) if rows else 0
    if any(len(r) != ncols for r in entries):
        raise InputError(f"ragged {what}")
    out = []
    for j in range(ncols):
        degs = set()
        for i in range(rows):
            a = entries[i][j]
            if a.algebra is not algebra:
                raise InputError(f"{what} entry ({i},{j}) is over the wrong algebra")
            if a.is_zero():
                continue
            d = a.degree()
            if d is None:
                raise InputError(f"{what} entry ({i},{j}) is not homogeneous")
            degs.add(d + row_degrees[i])
        if len(degs) != 1:
            raise InputError(f"column {j} of {what} has ambiguous degree {sorted(degs)}")
        out.append(degs.pop())
    return out


def coker_presentation(algebra: Algebra, entries: Sequence[Sequence[AlgebraElement]],
                       row_degrees: Sequence[int]) -> Module:
    """Cokernel of the map of free modules presented by a homogeneous matrix.

    entries[i][j] sits in row i (generator of degree row_degrees[i]) and
    column j; a column without one degree (see column_degrees) is rejected.
    """
    rows = len(row_degrees)
    ncols = len(column_degrees(algebra, entries, row_degrees, "presentation"))
    F = free_module(algebra, row_degrees)
    columns = np.zeros((F.dim, ncols), dtype=np.int64)
    for j in range(ncols):
        columns[:, j] = np.concatenate([entries[i][j].vec for i in range(rows)])
    span_rows = extend_linearly(F, Mat(algebra.field, columns)).transpose()
    return quotient_by_span(F, span_rows, provenance="coker").module
