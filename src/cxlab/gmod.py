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

A module applies A through one sparse table per monomial list (A's basis
or its variables), by source (_Sources: for each source coordinate, the
triples (j, a, w) of x^e_j times it).  A module that is not free keeps its
variables' table and builds its basis table from it once, along the
division chain, the builder that also makes A's structure table; `shift`
shares both, and `Module.actions` writes the variable actions dense on
request.  A free module keeps its generator degrees only, and multiplies
as rank copies of A.  `Module(...)` keeps the table of the dense actions
it verifies; `direct_sum` (the summands' tables side by side) and the
subquotients of a span hand over a table.  `multiples_of_rows` multiplies
sparse rows, dicts {coordinate: residue}, by every monomial of a list,
plain loops over the triples; `FreeModule.multiples` does it on a dense
matrix.  A subquotient eliminates its span, given as sparse rows, once,
reads its actions off one `multiples_of_rows` by the variables reduced
against the echelon rows, and writes its maps dense only on request.

A matrix over A, a map F' -> F of free modules, has one form, that of a
resolution's differentials, the Eisenbud operators and the chain lifts: its
generator images as sparse columns, one dict {r dim A + m: c} per generator
g, c x^m a term of entry (r, g); `multiples_of_rows` realizes it.
`entry_images` writes the same layout dense from entries given as algebra
elements.  `compose_sparse` composes a map into any module, given by sparse
columns, with it, and `action_rows` writes its action on N (block (r, g)
entry (r, g), or block (g, r) for Hom(-, N)) as sparse rows; both apply
each term c x^m directly, through the actions grouped by monomial
(_Sources.monomials) kept beside the by-source table, and realize no map.
"""
from __future__ import annotations

import operator
import weakref
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, InvariantError, check
from .exactla import Field, Mat, _complement, _dense, _dict_rows, _sparse_rref, _subtract
from .gralg import Algebra, AlgebraElement

__all__ = [
    "Module",
    "FreeModule",
    "free_module",
    "extend_linearly",
    "entry_images",
    "compose_sparse",
    "action_rows",
    "column_degrees",
    "coker_presentation",
    "residue_field",
    "direct_sum",
    "shift",
    "multiples_of_rows",
    "quotient_by_span",
    "submodule_from_span",
]


class Module:
    """Graded module: degree-labelled basis plus commuting variable actions."""

    def __init__(self, algebra: Algebra, degrees: Sequence[int], actions: Optional[Sequence[Mat]],
                 provenance: str = "", _skip_verify: bool = False):
        self.algebra = algebra
        self.degrees = tuple(int(d) for d in degrees)
        self.provenance = provenance
        self._resolution = None
        if not _skip_verify:
            self._verify(actions)
        # the by-source table of each monomial list asked for (_by_source),
        # the variables' from the start (_with_table); None on a free module
        self._sources: Optional[Dict[str, _Sources]] = None
        if actions is not None:
            stack = np.array([X.a for X in actions], dtype=np.int64).reshape(-1)
            keys = np.flatnonzero(stack)  # (v dim + a) dim + c: entry (a, c) of X_v
            self._sources = {"variables": _grouped(self.dim, keys, stack[keys], len(actions))}

    @property
    def actions(self) -> Tuple[Mat, ...]:
        """The matrix X_v of each variable, written dense from the table."""
        s, n = self.algebra.nvars, self.dim
        out = np.zeros(s * n * n, dtype=np.int64)
        keys, w = _flat(self, "variables")
        out[keys] = w
        return tuple(Mat._trusted(self.field, X) for X in out.reshape(s, n, n))

    @property
    def dim(self) -> int:
        return len(self.degrees)

    @property
    def field(self) -> Field:
        return self.algebra.field

    def _verify(self, actions: Sequence[Mat]):
        """The module axioms for the given variable actions on this basis."""
        A = self.algebra
        n = self.dim
        if len(actions) != A.nvars:
            raise InputError(f"expected {A.nvars} action matrices, got {len(actions)}")
        for X in actions:
            if X.shape != (n, n):
                raise InputError(f"action matrix has shape {X.shape}, expected ({n}, {n})")
            if X.field != A.field:
                raise InputError("action matrix over the wrong field")
        # degree shift: x_i maps the degree-d slice into the degree-(d+1) slice
        degrees = np.array(self.degrees, dtype=np.int64)
        for X in actions:
            rr, cc = np.nonzero(X.a)
            bad = np.flatnonzero(degrees[rr] != degrees[cc] + 1)
            if bad.size:
                r, c = rr[bad[0]], cc[bad[0]]
                raise InvariantError(f"action entry ({r},{c}) violates grading: "
                                     f"{self.degrees[c]} -> {self.degrees[r]}")
        # commutativity
        for i in range(A.nvars):
            for j in range(i + 1, A.nvars):
                check(actions[i] @ actions[j] == actions[j] @ actions[i],
                      f"actions of variables {i} and {j} do not commute")
        # every algebra relation must act as zero; a term x^e acts as the
        # product of the variable actions, formed here and not kept
        for g in A.relations:
            acc = Mat.zeros(A.field, n, n)
            for e, c in g.terms:
                # relations have degree >= 1: every term has a first factor
                term, *rest = [X for X, a in zip(actions, e) for _ in range(a)]
                for X in rest:
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
    block is a copy of A as a module over itself, and multiplies through
    A's structure table (see _structure_terms); a free module keeps no
    array."""

    def __init__(self, algebra: Algebra, gen_degrees: Sequence[int]):
        self.gen_degrees = tuple(int(d) for d in gen_degrees)
        # verifies A's regular representation, once per algebra
        _structure_terms(algebra, "basis")
        # inherited: every block carries the verified regular representation;
        # Module.__init__ reads no degrees here, so they are set after it
        super().__init__(algebra, (), None, provenance="free", _skip_verify=True)
        basis = algebra.basis_degrees
        self.degrees = tuple([d + g for g in self.gen_degrees for d in basis])

    @property
    def rank(self) -> int:
        return len(self.gen_degrees)

    def multiples(self, cols: Mat, which: str) -> Mat:
        """Every column of cols, coordinates on this module, times every
        monomial of the list `which` (see _list_length), at columns c*s ..
        c*s + s - 1: a plain loop over the nonzero entries of cols and A's
        triples, summed into a zeroed output, the one array of its size."""
        if cols.rows != self.dim:
            raise InputError(f"{cols.rows} coordinates on a free module of dimension {self.dim}")
        entries, s, p = _structure_terms(self.algebra, which).entries, _list_length(self.algebra, which), self.field.p
        dA, n = self.algebra.dim, cols.cols * s
        # output (row, column) at the flat key row n + column; each sum is
        # reduced mod p at each step, so it stays a residue below p
        acc: Dict[int, int] = {}
        r, c = cols.a.nonzero()
        for rr, cc, v in zip(r.tolist(), c.tolist(), cols.a[r, c].tolist()):
            b = rr % dA
            base = (rr - b) * n + cc * s
            for j, a, w in entries[b]:
                key = base + a * n + j
                acc[key] = (acc.get(key, 0) + v * w) % p
        out = np.zeros(self.dim * n, dtype=np.int64)
        out[list(acc)] = list(acc.values())
        return Mat._trusted(self.field, out.reshape(self.dim, n))

    def generator_columns(self) -> List[int]:
        """Coordinate of each generator: the monomial 1 in its block."""
        dA = self.algebra.dim
        return [g * dA for g in range(self.rank)]


def free_module(algebra: Algebra, gen_degrees: Sequence[int]) -> FreeModule:
    return FreeModule(algebra, gen_degrees)


def _list_length(algebra: Algebra, which: str) -> int:
    """The length of the monomial list a product applies: "basis", A's
    basis monomials in order, or "variables"."""
    if which not in ("basis", "variables"):
        raise InputError(f"no monomial list named {which!r}: expected 'basis' or 'variables'")
    return algebra.dim if which == "basis" else algebra.nvars


# The division chain of each algebra (see _division_chain), weakly.
_CHAINS: "weakref.WeakKeyDictionary[Algebra, List[Tuple[int, int, int]]]" = weakref.WeakKeyDictionary()


def _division_chain(algebra: Algebra) -> List[Tuple[int, int, int]]:
    """(j, v, below) for every basis monomial x^e_j but 1: x^e_j = x_v *
    x^e_below, v its first variable.  Standard monomials are closed under
    division and listed degree by degree, so below comes before j."""
    if algebra not in _CHAINS:
        _CHAINS[algebra] = [(j, v, algebra.basis_index[mono[:v] + (mono[v] - 1,) + mono[v + 1:]])
                            for j, mono in enumerate(algebra.basis[1:], 1)
                            for v in [next(i for i, a in enumerate(mono) if a)]]
    return _CHAINS[algebra]


class _Sources(NamedTuple):
    """A monomial list's action on a module by source coordinate: coordinate
    c, at b = c % period in its block, goes to entries[b], the triples
    (j, a, w) by which x^e_j times basis vector b of a block has coefficient
    w on vector a of the same block.  lone: every output (j, a) of a block
    has one entry, w = 1 (every output over a monomial algebra), so a
    product writes each output once and sums nothing.  monomials[j][b]: the
    pairs (a, w) of the same triples, by monomial, then by source."""
    period: int
    entries: List[List[Tuple[int, int, int]]]
    lone: bool
    monomials: List[Dict[int, List[Tuple[int, int]]]]


# A's structure tables, once per algebra (see _structure_terms): lists of
# ints only, so no algebra is kept alive by its entry.
_STRUCTURE: "weakref.WeakKeyDictionary[Algebra, Dict[str, _Sources]]" = weakref.WeakKeyDictionary()


def _structure_terms(algebra: Algebra, which: str) -> _Sources:
    """A's structure table on the monomials of the list `which`, by source:
    the first call for an algebra builds A as a module over itself, which
    verifies its axioms, and reads both tables off it (_by_source)."""
    tables = _STRUCTURE.get(algebra)
    if tables is None:
        regular = Module(algebra, algebra.basis_degrees,
                         [algebra.variable_action(i) for i in range(algebra.nvars)],
                         provenance="regular")
        tables = {name: _by_source(regular, name) for name in ("basis", "variables")}
        _STRUCTURE[algebra] = tables
    if which not in tables:
        _list_length(algebra, which)  # raises InputError: no such list
    return tables[which]


def _basis_table(m: Module) -> _Sources:
    """The basis table of m from its variables', one source c at a time
    along the division chain: x^e_j e_c = X_v (x^e_below e_c), as dicts,
    for the x^e_j whose degree leaves e_c inside the degrees of m."""
    n, p, X, A = m.dim, m.field.p, _by_source(m, "variables").monomials, m.algebra
    chain, top = _division_chain(A), max(m.degrees, default=0)
    keys, w = [], []
    for c in range(n):
        images = [{c: 1}]
        # the chain lists x^e_j degree by degree, after 1
        for j, v, below in chain[:bisect_right(A.basis_degrees, top - m.degrees[c]) - 1]:
            acc, Xv = {}, X[v]
            for b, x in images[below].items():
                for a, y in Xv.get(b, ()):
                    acc[a] = acc.get(a, 0) + x * y
            images.append({a: z for a, y in acc.items() if (z := y % p)} if acc else acc)
        for j, u in enumerate(images):
            keys += [(j * n + a) * n + c for a in u]
            w += u.values()
    return _grouped(n, keys, w, A.dim)


def _grouped(period: int, keys, w, count: int) -> _Sources:
    """The _Sources of the actions of count monomials given by their
    nonzero entries in any order: flat indices (j period + a) period + b and
    residues w, w on output a of x^e_j times source b."""
    keys, w = np.asarray(keys, dtype=np.int64), np.asarray(w, dtype=np.int64)
    order = keys.argsort()
    keys, w = keys[order], w[order]
    # output (j, a) as j period + a; two entries of one output are side by
    # side.  Tables are mostly a few dozen entries: the flag is found on lists
    out, ws = (keys // period).tolist(), w.tolist()
    lone = ws.count(1) == len(ws) and all(map(operator.ne, out, islice(out, 1, None)))
    entries: List[List[Tuple[int, int, int]]] = [[] for _ in range(period)]
    monomials: List[Dict[int, List[Tuple[int, int]]]] = [{} for _ in range(count)]
    for o, b, ww in zip(out, (keys % period).tolist(), ws):
        j, a = divmod(o, period)
        entries[b].append((j, a, ww))
        monomials[j].setdefault(b, []).append((a, ww))
    return _Sources(period, entries, lone, monomials)


def _by_source(m: Module, which: str) -> _Sources:
    """The _Sources of the monomial list `which` on m: A's structure table
    on every block of a free module; on any other module the table it
    keeps, the basis table built on the first request (_basis_table)."""
    if isinstance(m, FreeModule):
        return _structure_terms(m.algebra, which)
    kept = m._sources
    if which not in kept:
        _list_length(m.algebra, which)  # raises InputError: no such list
        kept[which] = _basis_table(m)
    return kept[which]


def _flat(m: Module, which: str, dim: Optional[int] = None, at: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """The nonzero entries of the table `which` on each coordinate c of m (at
    + c of dimension dim), sorted: flat indices (j dim + a) dim + c, and w."""
    src, n = _by_source(m, which), m.dim if dim is None else dim
    keys, w = [], []
    for c in range(m.dim):
        b = c % src.period
        for j, a, x in src.entries[b]:
            keys.append((j * n + at + c - b + a) * n + at + c)
            w.append(x)
    keys, w = np.array(keys, dtype=np.int64), np.array(w, dtype=np.int64)
    order = keys.argsort()
    return keys[order], w[order]


def _with_table(algebra: Algebra, degrees: Sequence[int], keys, w, provenance: str) -> Module:
    """The module whose variable actions have the nonzero entries keys (as
    in _flat, in any order) and w: how the library's builders hand over
    actions derived from verified ones, which the module inherits."""
    out = Module(algebra, degrees, None, provenance=provenance, _skip_verify=True)
    out._sources = {"variables": _grouped(out.dim, keys, w, algebra.nvars)}
    return out


def multiples_of_rows(m: Module, rows: Sequence[dict], which: str) -> List[dict]:
    """Each of the sparse rows, a dict {coordinate on m: residue}, times
    each monomial x^e_j of the list `which` (see _list_length), as a dict of
    nonzero residues; the s products of row r sit at r*s .. r*s + s - 1.
    Plain loops over the by-source entries (_Sources), so the work follows
    the nonzero entries and not the dimension of m."""
    src, s, p = _by_source(m, which), _list_length(m.algebra, which), m.field.p
    period, entries = src.period, src.entries
    out: List[dict] = []
    if src.lone:
        for u in rows:
            prods: List[dict] = [{} for _ in range(s)]
            for c, v in u.items():
                base = c - c % period
                for j, a, _ in entries[c % period]:
                    prods[j][base + a] = v
            out += prods
        return out
    for u in rows:
        prods = [{} for _ in range(s)]
        for c, v in u.items():
            base = c - c % period
            for j, a, w in entries[c % period]:
                d, k = prods[j], base + a
                d[k] = (d.get(k, 0) + v * w) % p
        out += [{k: x for k, x in d.items() if x} for d in prods]
    return out


def extend_linearly(target: Module, gen_images: Mat) -> Mat:
    """Matrix of the A-linear map from a free module into target that sends
    generator g to column g of gen_images; column (g, m) is m times it."""
    if gen_images.rows != target.dim:
        raise InputError(f"{gen_images.rows} coordinates on a module of dimension {target.dim}")
    if isinstance(target, FreeModule):
        return target.multiples(gen_images, "basis")
    rows = multiples_of_rows(target, _dict_rows(gen_images.a.T), "basis")
    return Mat._trusted(target.field, _dense(rows, target.dim).T)


def entry_images(algebra: Algebra, entries: Sequence[Sequence[AlgebraElement]], rows: int, cols: int) -> Mat:
    """The generator images of a rows x cols matrix over A given entry by
    entry: column j holds entries[i][j] in the rows of block i."""
    if any(a.algebra is not algebra for row in entries for a in row):
        raise InputError("entry over a different algebra")
    vecs = np.array([[a.vec for a in row] for row in entries], dtype=np.int64)
    return Mat._trusted(algebra.field, vecs.reshape(rows, cols, algebra.dim).transpose(0, 2, 1)
                        .reshape(rows * algebra.dim, cols))


def _combination(columns: Sequence[dict], u: dict) -> dict:
    """The sum of c columns[key] over the terms key: c of u, exact ints."""
    acc: dict = {}
    for key, c in u.items():
        for r, w in columns[key].items():
            acc[r] = acc.get(r, 0) + c * w
    return acc


def compose_sparse(target: Module, phi: Sequence[dict], d: Sequence[dict]) -> List[dict]:
    """phi o d on generators, phi: F -> target and d: F' -> F both given by
    sparse columns: phi[r], a dict on target, is the image of generator r.
    Column g, a dict of nonzero residues, is the sum of c x^m phi[r] over
    the terms c x^m of entry (r, g) of d.  Each term is applied to phi[r]
    directly, through the action of x^m by source (_Sources.monomials), so
    no phi is realized and the work follows the nonzero entries of d, of
    phi and of the actions; each sum is reduced mod p once, at its end."""
    src, dA, p = _by_source(target, "basis"), target.algebra.dim, target.field.p
    period, monomials = src.period, src.monomials
    out: List[dict] = []
    for u in d:
        acc: dict = {}
        for key, c in u.items():
            r, m = divmod(key, dA)
            act = monomials[m]
            for k, v in phi[r].items():
                b = k % period
                pairs = act.get(b)
                if pairs:
                    base, cv = k - b, c * v
                    for a, w in pairs:
                        i = base + a
                        acc[i] = acc.get(i, 0) + cv * w
        out.append({i: y for i, x in acc.items() if (y := x % p)})
    return out


def action_rows(n: Module, columns: Sequence[dict], rows: int, hom: bool = False) -> List[dict]:
    """The field matrix of a rows x len(columns) matrix over A acting on N,
    as sparse rows, dicts {column: residue}, read off the matrix's sparse
    form: columns, one dict {r dim A + m: residue} per generator g, the form
    a resolution keeps its differentials in.  Block (r, g), rows r dim N ..
    and columns g dim N .., is entry (r, g) acting on N, the sum of c X_m
    over its terms c x^m, X_m the action of x^m on N: the matrix acting
    N^cols -> N^rows, as d (x) 1 on F (x) N.  With hom, block (g, r) is, as
    Hom(d, N): len(columns) dim N rows on rows dim N columns.

    X_m is read off N's table grouped by monomial (_Sources.monomials, kept
    beside the by-source table that multiples_of_rows reads), on every block
    of N, so the work follows the nonzero terms of the matrix and of the
    actions.  Sums are reduced mod p at each step, and an entry whose sum
    ends at 0 is dropped."""
    dA, dN, p = n.algebra.dim, n.dim, n.field.p
    out: List[dict] = [{} for _ in range((len(columns) if hom else rows) * dN)]
    if not (dN and columns):
        return out
    src = _by_source(n, "basis")
    blocks = range(0, dN, src.period)  # one, or dim N / dim A when N is free
    cancelled = []  # the rows where some sum was 0 mod p on the way
    for g, col in enumerate(columns):
        for key, c in col.items():
            r, m = divmod(key, dA)
            row_at, col_at = (g * dN, r * dN) if hom else (r * dN, g * dN)
            for b, pairs in src.monomials[m].items():
                for a, w in pairs:
                    cw = c * w
                    for s in blocks:
                        row, k = out[row_at + s + a], col_at + s + b
                        x = row[k] = (row.get(k, 0) + cw) % p
                        if not x:
                            cancelled.append(row)
    for row in cancelled:
        for k in [k for k, x in row.items() if not x]:
            del row[k]
    return out


def residue_field(algebra: Algebra) -> Module:
    """k = A/m as a module: one basis vector in degree 0, all actions zero."""
    z = Mat.zeros(algebra.field, 1, 1)
    return Module(algebra, [0], [z] * algebra.nvars, provenance="k")


def direct_sum(m: Module, n: Module) -> Module:
    """M (+) N on the basis of M followed by that of N: the summands' variable
    tables side by side, a free summand's A's on each of its blocks."""
    if m.algebra is not n.algebra:
        raise InputError("direct sum of modules over different algebras")
    (km, wm), (kn, wn) = (_flat(x, "variables", m.dim + n.dim, at) for x, at in ((m, 0), (n, m.dim)))
    # inherited: each summand carries verified actions
    return _with_table(m.algebra, m.degrees + n.degrees, np.append(km, kn), np.append(wm, wn), "sum")


def shift(m: Module, s: int) -> Module:
    """Relabel every degree by +s.  A free module stays free; any other
    shares the tables m keeps, also those built later."""
    if isinstance(m, FreeModule):
        return FreeModule(m.algebra, [g + s for g in m.gen_degrees])
    # inherited: the actions are the same verified ones
    out = Module(m.algebra, [d + s for d in m.degrees], None, provenance=m.provenance or "shift",
                 _skip_verify=True)
    out._sources = m._sources
    return out


# -- subquotient machinery -------------------------------------------------


def _row_degree(m: Module, columns) -> int:
    """The degree of a vector given by its nonzero columns; InvariantError
    unless it is homogeneous."""
    degs = {m.degrees[j] for j in columns}
    if len(degs) != 1:
        raise InvariantError(f"inhomogeneous vector with degrees {degs}")
    return degs.pop()


def _echelon(m: Module, span_rows: Sequence[dict]) -> Tuple[List[int], Dict[int, dict], List[int]]:
    """The pivot columns of the span of span_rows (dicts, not changed), its
    reduced echelon rows by pivot column, and their degrees, if homogeneous."""
    p = m.field.p
    if any(row and not 0 <= min(row) <= max(row) < m.dim for row in span_rows):
        raise InputError("span vectors have the wrong length")
    echelon = _sparse_rref([{c: y for c, v in row.items() if (y := v % p)} for row in span_rows], p)
    pivots = sorted(echelon)
    return pivots, echelon, [_row_degree(m, echelon[c]) for c in pivots]


def _residue(u: dict, echelon: Dict[int, dict], p: int) -> dict:
    """u, a dict of residues, minus u_c times the reduced echelon row of each
    pivot column c (zero at the other pivot columns): u modulo their span."""
    u = dict(u)
    for c in [c for c in u if c in echelon]:
        _subtract(u, u[c], echelon[c], p)
    return u


@dataclass
class Quotient:
    """M/S; echelon: the reduced echelon rows of S by pivot column."""

    module: Module
    ambient: Module
    echelon: Dict[int, dict]

    @property
    def projection(self) -> Mat:
        """ambient coords -> quotient coords, written dense: e_c to its residue."""
        m = self.ambient
        at = {c: q for q, c in enumerate(_complement(m.dim, list(self.echelon)).tolist())}
        cols = [{at[j]: x for j, x in _residue({c: 1}, self.echelon, m.field.p).items()} for c in range(m.dim)]
        return Mat._trusted(m.field, _dense(cols, self.module.dim).T)

    @property
    def lift(self) -> Mat:
        """quotient coords -> ambient coords, the section, written dense."""
        m = self.ambient
        return Mat._trusted(m.field, _dense([{c: 1} for c in _complement(m.dim, list(self.echelon))], m.dim).T)


def quotient_by_span(m: Module, span_rows: Sequence[dict], provenance: str = "quotient") -> Quotient:
    """Quotient of M by the span of the given homogeneous rows, dicts
    {coordinate on M: residue}, an A-submodule (verified), on the non-pivot
    coordinates of its reduced echelon form: the products of the echelon
    rows and of those unit vectors with the variables, reduced against the
    echelon rows, prove the invariance and give the actions."""
    pivots, echelon, _ = _echelon(m, span_rows)
    nonpivot = _complement(m.dim, pivots).tolist()
    s, p, n, at = m.algebra.nvars, m.field.p, len(nonpivot), {c: q for q, c in enumerate(nonpivot)}
    products = multiples_of_rows(m, [echelon[c] for c in pivots] + [{c: 1} for c in nonpivot], "variables")
    # invariance of the span: the induced actions are well defined
    check(not any(_residue(u, echelon, p) for u in products[:len(pivots) * s]), "span is not an A-submodule")
    keys, w = [], []
    for i, u in enumerate(products[len(pivots) * s:]):
        (q, v), r = divmod(i, s), _residue(u, echelon, p)
        keys += [(v * n + at[c]) * n + q for c in r]
        w += r.values()
    # inherited: the rows are homogeneous and P X_i R^T = 0, so P X_i = X'_i P
    # with P onto; commutation, the relations and the grading pass down
    return Quotient(_with_table(m.algebra, [m.degrees[c] for c in nonpivot], keys, w, provenance), m, echelon)


@dataclass
class Submodule:
    """S in M; echelon: the reduced echelon rows of S by pivot column."""

    module: Module
    ambient: Module
    echelon: Dict[int, dict]

    @property
    def inclusion(self) -> Mat:
        """submodule coords -> ambient coords, the echelon rows as columns."""
        m = self.ambient
        return Mat._trusted(m.field, _dense([self.echelon[c] for c in sorted(self.echelon)], m.dim).T)


def submodule_from_span(m: Module, span_rows: Sequence[dict], provenance: str = "submodule") -> Submodule:
    """The A-submodule spanned by the given homogeneous rows, dicts {coordinate
    on M: residue}, on its reduced echelon rows: the products of the rows
    with the variables, read at the pivot columns, give the actions."""
    pivots, echelon, degrees = _echelon(m, span_rows)
    s, p, r, at = m.algebra.nvars, m.field.p, len(pivots), {c: i for i, c in enumerate(pivots)}
    keys, w = [], []
    for k, u in enumerate(multiples_of_rows(m, [echelon[c] for c in pivots], "variables")):
        # reconstruction check: each product is the combination of the rows
        # it reads at the pivot columns, as its residue modulo them is zero
        check(not _residue(u, echelon, p), "span is not closed under the action")
        i, v = divmod(k, s)
        keys += [(v * r + at[c]) * r + i for c in u if c in at]
        w += [x for c, x in u.items() if c in at]
    # inherited: inc X'_i = X_i inc holds exactly and inc is injective
    return Submodule(_with_table(m.algebra, degrees, keys, w, provenance), m, echelon)


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
    columns = _dict_rows(entry_images(algebra, entries, rows, ncols).a.T)
    return quotient_by_span(F, multiples_of_rows(F, columns, "basis"), provenance="coker").module
