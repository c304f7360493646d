"""Finitely generated graded modules over a graded Artinian algebra.

A module is a graded vector space with one commuting action matrix per
algebra variable.  The module axioms (commutativity, vanishing of the
relations, degree shifts) are verified where actions enter the program: a
direct `Module(...)` call, including `residue_field`, and, once per
algebra, A's regular representation, where the first free module over A is
built.  A module built from verified ones (`shift`, `direct_sum`,
`quotient_by_span`, `submodule_from_span`, `FreeModule`) inherits the
axioms; each such construction checks the one fact its inheritance rests
on.  Failed checks raise InvariantError, also under `python -O`: the
engine checks, it never assumes.

A module applies A to coordinates in one way: `Module.multiples` multiplies
every column of a coordinate matrix by every monomial of a fixed list (the
basis of A or its variables).  A module that is not free does it with one
exact product by its monomial actions, stacked and kept once per module.  A
free module keeps only its generator degrees and its rank, no array, and
multiplies as rank copies of A's regular module, which is verified once per
algebra and kept only as arrays (see _structure_terms).  Where every
variable of A acts by a partial permutation, as over a monomial algebra, a
product is one int64 gather through the source of each output coordinate,
composed one basis monomial at a time with no dim A^3 stack.  Over any
other ring A keeps the stacked actions of its regular module, and a
product is the one exact product Module.multiples takes, with the
generator blocks side by side.  A free module's stacked actions, the
multiples of the identity, and its variable actions, their "variables"
slice, are built on each request and not kept.  `extend_linearly`,
`min_generators` and the subquotients go through `multiples`;
`block_action` is one product by the stacked actions.

A matrix over A, a map F' -> F of free modules, has one form: its
generator images, the dim F x rank F' matrix whose column g is the image of
generator g, entry (r, g) in the rows of block r.  Its layout has one
reading and one writing, both here: `coefficient_view` reads its
coefficient array C[m, r, g] off it, without a copy, and `images_of`, the
inverse, writes it from such an array; `entry_images` writes it from
entries given as algebra elements through `images_of`.  `extend_linearly`
realizes it, `compose_on_generators` composes a map into any module with
it, and `block_action` applies it to N^r through its coefficient array.
"""
from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, InvariantError, check
from .exactla import Field, Mat, _complement, _matmul_mod, pivot_columns, rref
from .gralg import Algebra, AlgebraElement

__all__ = [
    "Module",
    "FreeModule",
    "free_module",
    "extend_linearly",
    "coefficient_view",
    "images_of",
    "entry_images",
    "compose_on_generators",
    "block_action",
    "column_degrees",
    "coker_presentation",
    "residue_field",
    "direct_sum",
    "shift",
    "min_generators",
    "quotient_by_span",
    "submodule_from_span",
]


class Module:
    """Graded module: degree-labelled basis plus commuting variable actions."""

    def __init__(self, algebra: Algebra, degrees: Sequence[int], actions: Sequence[Mat],
                 provenance: str = "", _skip_verify: bool = False):
        self.algebra = algebra
        self.degrees = tuple(int(d) for d in degrees)
        self._actions = tuple(actions)
        self.provenance = provenance
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
        return Mat._trusted(self.field, _stack_product(self._stacked(which), cols.a, 1, self.field.p))

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
        # every algebra relation must act as zero; a term x^e acts as the
        # product of the variable actions, formed here and not kept
        for g in A.relations:
            acc = Mat.zeros(A.field, n, n)
            for e, c in g.terms:
                term = Mat.identity(A.field, n)
                for X, a in zip(self.actions, e):
                    for _ in range(a):
                        term = X @ term
                acc = acc + term.scale(c)
            if not acc.is_zero():
                raise InvariantError(f"relation {g!r} does not annihilate the module")

    def hilbert(self) -> Dict[int, int]:
        return dict(sorted(Counter(self.degrees).items()))

    def __repr__(self):
        tag = f" {self.provenance}" if self.provenance else ""
        return f"Module(dim {self.dim} over F_{self.field.p},{tag} degrees {sorted(set(self.degrees))})"


class FreeModule(Module):
    """Free module on homogeneous generators; basis is generator-major blocks
    (generator g, standard monomial m) with degree deg(m) + deg(g).  Each
    block is a copy of A as a module over itself.  A free module multiplies
    through A's regular representation (see _structure_terms), and its
    actions are read off the same products on each request: it keeps no
    array."""

    def __init__(self, algebra: Algebra, gen_degrees: Sequence[int]):
        self.gen_degrees = tuple(int(d) for d in gen_degrees)
        # verifies A's regular representation, once per algebra
        _structure_terms(algebra, "basis")
        degrees = []
        for g in self.gen_degrees:
            degrees.extend(d + g for d in algebra.basis_degrees)
        # inherited: every block carries the verified regular representation
        super().__init__(algebra, degrees, (), provenance="free", _skip_verify=True)

    @property
    def rank(self) -> int:
        return len(self.gen_degrees)

    def multiples(self, cols: Mat, which: str) -> Mat:
        """Module.multiples over rank copies of A's regular module, read off
        _structure_terms.  Where it keeps the stacked actions, that is one
        exact product, as for a module that is not free.  Where it keeps a
        gather's sources, entry (g, a) of column c times x^e_j is
        cols[(g, src[a, j]), c], or zero, and one gather is the product."""
        if cols.rows != self.dim:
            raise InputError(f"{cols.rows} coordinates on a free module of dimension {self.dim}")
        terms = _structure_terms(self.algebra, which)
        if terms.ndim == 3:
            return Mat._trusted(self.field, _stack_product(terms, cols.a, self.rank, self.field.p))
        dA, r, k = self.algebra.dim, self.rank, cols.cols
        # V[g, c, m]: coordinate m of block g of column c, and a zero at
        # m = dim A, which an output with no source reads
        V = np.zeros((r, k, dA + 1), dtype=np.int64)
        V[:, :, :dA] = cols.a.reshape(r, dA, k).transpose(0, 2, 1)
        V = V.reshape(r, k * (dA + 1))
        # entry (g, a) of column c times x^e_j reads V[g, c, src[a, j]]: one
        # take writes the products in place, (g, a) by (c, j)
        out = np.take(V, terms[:, None, :] + (dA + 1) * np.arange(k)[:, None], axis=1)
        return Mat._trusted(self.field, out.reshape(self.dim, k * terms.shape[1]))

    def _stacked(self, which: str) -> np.ndarray:
        """Module._stacked read off A's regular representation: the
        multiples of the identity, built on each call and not kept."""
        n, s = self.dim, len(_monomial_list(self.algebra, which))
        out = self.multiples(Mat.identity(self.field, n), which).a.reshape(n, n, s)
        return np.ascontiguousarray(out.transpose(2, 0, 1))

    @property
    def actions(self) -> Tuple[Mat, ...]:
        return tuple(Mat._trusted(self.field, X) for X in self._stacked("variables"))

    def generator_columns(self) -> List[int]:
        """Coordinate of each generator: the monomial 1 in its block."""
        dA = self.algebra.dim
        return [g * dA for g in range(self.rank)]


def free_module(algebra: Algebra, gen_degrees: Sequence[int]) -> FreeModule:
    return FreeModule(algebra, gen_degrees)


def _monomial_list(algebra: Algebra, which: str) -> List[Tuple[int, ...]]:
    """The monomials Module.multiples applies: A's basis or its variables."""
    if which == "basis":
        return algebra.basis
    if which == "variables":
        return [tuple(int(i == v) for i in range(algebra.nvars)) for v in range(algebra.nvars)]
    raise InputError(f"no monomial list named {which!r}: expected 'basis' or 'variables'")


def _stack_product(X: np.ndarray, cols: np.ndarray, r: int, p: int) -> np.ndarray:
    """The products of the s x n x n stack of actions X with the columns of
    cols, r blocks of n coordinates each, X acting on every block: entry
    (g, a) of column c times X[j] sits at row g * n + a, column c * s + j.
    One exact product by the actions stacked on top of each other, with the
    blocks side by side."""
    s, n, _ = X.shape
    k = cols.shape[1]
    side = cols.reshape(r, n, k).transpose(1, 0, 2).reshape(n, r * k)
    out = _matmul_mod(X.reshape(s * n, n), side, p).reshape(s, n, r, k)
    return out.transpose(2, 1, 3, 0).reshape(r * n, k * s)


# A's regular representation, kept once per algebra for both monomial lists
# (see _structure_terms): arrays only, so no algebra is kept alive by its
# entry.
_STRUCTURE: "weakref.WeakKeyDictionary[Algebra, Dict[str, np.ndarray]]" = weakref.WeakKeyDictionary()


def _structure_terms(algebra: Algebra, which: str) -> np.ndarray:
    """A's regular representation on the monomials x^e_j of the list
    `which` (see _monomial_list), in one of two forms.

    Where every row of every variable's action holds at most one nonzero
    entry, a 1, as over a monomial algebra, whose regular action is a
    partial permutation, so does every row of every monomial's action.  The
    form is then the gather's sources, a dim A x s array: x^e_j * basis[c]
    has coefficient 1 on basis[a] for c = src[a, j] and 0 for every other c;
    src[a, j] = dim A, a zero the reader appends, where the row is zero.
    Over any other ring it is the stacked actions of A's regular module
    (Module._stacked), an s x dim A x dim A array.

    The first call for an algebra builds A as a module over itself, which
    verifies its axioms, and reads the form off its variable actions.  The
    gather's basis sources follow one monomial at a time: x^e_j = x_v x^e',
    e' listed before e_j (standard monomials are closed under division and
    listed degree by degree), so output a of x^e_j reads the source of
    output src_v[a] of x^e'; no dim A^3 stack is formed."""
    terms = _STRUCTURE.get(algebra)
    if terms is None:
        regular = Module(algebra, algebra.basis_degrees,
                         [algebra.variable_action(i) for i in range(algebra.nvars)],
                         provenance="regular")
        dA = algebra.dim
        S = regular._stacked("variables")
        # entries lie in [0, p): a row sum of at most 1 is one entry 1 at most
        if (S.sum(axis=2) <= 1).all():
            variables = np.ascontiguousarray(np.where(S.any(axis=2), S.argmax(axis=2), dA).T)
            # column j: the sources of basis[j]; row dA: the zero's own source
            basis = np.full((dA + 1, dA), dA, dtype=np.intp)
            basis[:dA, 0] = np.arange(dA)  # basis[0] is 1
            for j, mono in enumerate(algebra.basis[1:], 1):
                v = next(i for i, e in enumerate(mono) if e)
                below = algebra.basis_index[mono[:v] + (mono[v] - 1,) + mono[v + 1:]]
                basis[:dA, j] = basis[variables[:, v], below]
            terms = {"basis": basis[:dA], "variables": variables}
        else:
            terms = {w: regular._stacked(w) for w in ("basis", "variables")}
        _STRUCTURE[algebra] = terms
    if which not in terms:
        _monomial_list(algebra, which)  # raises InputError: no such list
    return terms[which]


def extend_linearly(target: Module, gen_images: Mat) -> Mat:
    """Matrix of the A-linear map from a free module into target that sends
    generator g to column g of gen_images; column (g, m) is m times it."""
    return target.multiples(gen_images, "basis")


def coefficient_view(d: Mat, algebra: Algebra) -> np.ndarray:
    """The coefficient array of a matrix over A given by its generator
    images d, a (rows * dim A) x cols matrix whose column g holds entry
    (r, g) in the rows of block r: C[m, r, g] is the coefficient of basis
    monomial m in entry (r, g).  A view of d, no copy; C[0] holds the
    constant coefficients, the generator rows of d."""
    dA = algebra.dim
    if d.rows % dA:
        raise InputError(f"{d.rows} rows are not generator images over an algebra of dimension {dA}")
    return d.a.reshape(d.rows // dA, dA, d.cols).transpose(1, 0, 2)


def images_of(coeffs: np.ndarray, field: Field) -> Mat:
    """The generator images of a matrix over A given by its coefficient
    array, the inverse of coefficient_view: coeffs[m, r, g], an int64
    residue mod p, is the coefficient of basis monomial m in entry (r, g)."""
    dA, rows, cols = coeffs.shape
    return Mat._trusted(field, coeffs.transpose(1, 0, 2).reshape(rows * dA, cols))


def entry_images(algebra: Algebra, entries: Sequence[Sequence[AlgebraElement]], rows: int, cols: int) -> Mat:
    """The generator images of a rows x cols matrix over A given entry by
    entry: column j holds entries[i][j] in the rows of block i."""
    if any(a.algebra is not algebra for row in entries for a in row):
        raise InputError("entry over a different algebra")
    vecs = np.array([[a.vec for a in row] for row in entries], dtype=np.int64)
    return images_of(vecs.reshape(rows, cols, algebra.dim).transpose(2, 0, 1), algebra.field)


def compose_on_generators(target: Module, images: Mat, d: Mat) -> Mat:
    """Generator images of phi o d, where phi: F -> target is the A-linear
    map sending generator r of F to column r of images, and d: F' -> F is a
    matrix over A given by its generator images, dim F x rank F': phi
    realized by extend_linearly, times d.

    images may hold k maps side by side: a width of k * rank F columns, for
    any k >= 1, is read as k maps, map j in columns j * rank F ..
    (j + 1) * rank F - 1, and block j of the result, its columns
    j * rank F' .., is then phi_j o d, byte for byte the result for map j
    alone; a width that is not a multiple of rank F raises InputError.  Column
    (j, r, m) of the realization is x^m times generator r of map j, so each
    row of it holds the k maps' blocks one after the other: read as k rows
    (a reshape, no copy), it is multiplied by d in one product, whose rows,
    read back, are the k results side by side.
    """
    dA, n = target.algebra.dim, target.dim
    rows = d.rows // dA
    k = images.cols // rows if rows else 1
    if d.rows != rows * dA or images.rows != n or images.cols != k * rows:
        raise InputError(f"generator images of shape {images.shape} do not compose with "
                         f"{d.shape} over A into dimension {n}")
    realized = extend_linearly(target, images).a.reshape(n * k, d.rows)
    out = _matmul_mod(realized, d.a, target.field.p)
    return Mat._trusted(target.field, out.reshape(n, k * d.cols))


def block_action(n: Module, coeffs: np.ndarray) -> Mat:
    """Field matrix of a rows x cols matrix over A acting on N^cols -> N^rows,
    given by its coefficient array (see coefficient_view): block (i, j) is
    the action of entry (i, j) on N, the sum over the basis monomials m of
    coeffs[m, i, j] times x^m acting on N.  Over the monomials that occur,
    that is one product of the coefficients by the actions of N."""
    _, rows, cols = coeffs.shape
    d = n.dim
    occurring = np.flatnonzero(coeffs.any(axis=(1, 2)))
    terms = _matmul_mod(coeffs[occurring].reshape(occurring.size, rows * cols).T,
                        n._stacked("basis")[occurring].reshape(occurring.size, d * d), n.field.p)
    out = terms.reshape(rows, cols, d, d).transpose(0, 2, 1, 3).reshape(rows * d, cols * d)
    return Mat._trusted(n.field, out)


def residue_field(algebra: Algebra) -> Module:
    """k = A/m as a module: one basis vector in degree 0, all actions zero."""
    z = Mat.zeros(algebra.field, 1, 1)
    return Module(algebra, [0], [z] * algebra.nvars, provenance="k")


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
                  provenance=m.provenance or "shift", _skip_verify=True)


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
    mn_pivots = pivot_columns(Mat._trusted(m.field, images.T))
    return [(span.a[q].copy(), _row_degree(m, span.a[q]))
            for q in _complement(span.rows, mn_pivots)]


def _by_variable(m: Module, multiples: np.ndarray) -> List[Mat]:
    """The products of Module.multiples(cols, "variables") on m split by
    variable: entry v is X_v @ cols."""
    s = m.algebra.nvars
    return [Mat._trusted(m.field, multiples[:, v::s]) for v in range(s)]


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


def quotient_by_span(m: Module, span_rows: Mat, provenance: str = "quotient") -> Quotient:
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
    q = Module(m.algebra, degrees, actions, provenance=provenance, _skip_verify=True)
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
    span_rows = extend_linearly(F, entry_images(algebra, entries, rows, ncols)).transpose()
    return quotient_by_span(F, span_rows, provenance="coker").module
