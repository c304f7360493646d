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
basis of A or its variables).  A module given by its actions keeps them
once, as the stack of its variable actions, and a product is one exact
product by its monomial actions, whose basis stack it builds from the
variables' once and keeps; its `shift` shares them.  A free module keeps
only its generator degrees and its rank, and multiplies as rank copies of
A's regular module, kept once per algebra as one sparse structure table
per monomial list, by source and the same over every ring (_Sources: for
each coordinate of a block, the triples (j, a, w) of x^e_j times it).  Its
product is a plain loop over the nonzero entries of the columns and the
table's triples.  A direct sum keeps its two summands, and its products
are theirs, one over the other.  A module that keeps no actions, free or
a direct sum, reads its stacked actions and its variable actions off the
multiples of the identity, on each request.  `extend_linearly` and the
subquotients go through `multiples`.

Sparse rows, dicts {coordinate: residue}, have the same product:
`multiples_of_rows` is `multiples` on rows, plain loops over the same
by-source form of the actions, so its work follows the nonzero entries:
A's structure table on a free module, read off its stacked actions on any
other module, once for a module that keeps them.

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
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, InvariantError, check
from .exactla import Field, Mat, _complement, _matmul_mod, rref
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
        # the stacked actions of each monomial list built so far (see
        # _stacked), the variables' from the start; None for a module that
        # keeps no actions (a free module, a direct sum)
        self._stacks: Optional[Dict[str, np.ndarray]] = None
        # the by-source table of each monomial list asked for (_by_source),
        # read off the stacks once and kept beside them; None with them
        self._sources: Optional[Dict[str, _Sources]] = None
        if actions is not None:
            stack = np.array([X.a for X in actions], dtype=np.int64).reshape(len(actions), self.dim, self.dim)
            stack.setflags(write=False)
            self._stacks, self._sources = {"variables": stack}, {}

    @property
    def actions(self) -> Tuple[Mat, ...]:
        """The matrix X_v of each variable on this module's basis, read off
        its stacked variable actions."""
        return tuple(Mat._trusted(self.field, X) for X in self._stacked("variables"))

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
        # one exact product by the monomial actions stacked on top of each other
        X, n, k = self._stacked(which), self.dim, cols.cols
        out = _matmul_mod(X.reshape(len(X) * n, n), cols.a, self.field.p).reshape(len(X), n, k)
        return Mat._trusted(self.field, out.transpose(1, 2, 0).reshape(n, k * len(X)))

    def _stacked(self, which: str) -> np.ndarray:
        """The actions of the monomials of the list `which` (see
        _list_length), an s x dim x dim array.  A module that keeps its
        variable actions builds the basis stack from them once and keeps it;
        a module that keeps none reads either off the multiples of the
        identity, built on each call and not kept."""
        if self._stacks is None:
            n, s = self.dim, _list_length(self.algebra, which)
            out = self.multiples(Mat.identity(self.field, n), which).a.reshape(n, n, s)
            return np.ascontiguousarray(out.transpose(2, 0, 1))
        if which not in self._stacks:
            X = self._stacks["variables"]
            out = np.empty((_list_length(self.algebra, which), self.dim, self.dim), dtype=np.int64)
            out[0] = np.eye(self.dim, dtype=np.int64)  # basis[0] is 1
            for j, v, below in _division_chain(self.algebra):
                out[j] = _matmul_mod(X[v], out[below], self.field.p)
            out.setflags(write=False)
            self._stacks[which] = out
        return self._stacks[which]

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
        # inherited: every block carries the verified regular representation.
        # Given no actions and no verification, Module.__init__ reads neither
        # degrees nor dim, so the degrees are set after it, built once from
        # ints and not converted again
        super().__init__(algebra, (), None, provenance="free", _skip_verify=True)
        basis = algebra.basis_degrees
        self.degrees = tuple([d + g for g in self.gen_degrees for d in basis])

    @property
    def rank(self) -> int:
        return len(self.gen_degrees)

    def multiples(self, cols: Mat, which: str) -> Mat:
        """Module.multiples through A's structure table on every block: a
        plain loop over the nonzero entries of cols and the table's triples,
        whose sums are written into a zeroed output, the one array of its
        size."""
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
    """The length of the monomial list Module.multiples applies: "basis",
    A's basis monomials in order, or "variables"."""
    if which not in ("basis", "variables"):
        raise InputError(f"no monomial list named {which!r}: expected 'basis' or 'variables'")
    return algebra.dim if which == "basis" else algebra.nvars


def _division_chain(algebra: Algebra) -> Iterator[Tuple[int, int, int]]:
    """(j, v, below) for every basis monomial x^e_j but 1: x^e_j = x_v *
    x^e_below, v its first variable.  Standard monomials are closed under
    division and listed degree by degree, so below comes before j."""
    for j, mono in enumerate(algebra.basis[1:], 1):
        v = next(i for i, a in enumerate(mono) if a)
        yield j, v, algebra.basis_index[mono[:v] + (mono[v] - 1,) + mono[v + 1:]]


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
    """A's structure table on the monomials of the list `which` (see
    _list_length), by source.  The first call for an algebra builds A as a
    module over itself, which verifies its axioms, and reads both tables off
    its variable actions X_v.  The basis actions follow along the division
    chain, one degree at a time and as entries only: x^e_j acts as x^e_below
    times X_v (A is commutative), so an entry (below, a, b, w) and an entry
    x at (b, src) of X_v give (j, a, src, w x), and entries alike are
    summed; no dim A^3 stack is formed."""
    tables = _STRUCTURE.get(algebra)
    if tables is None:
        regular = Module(algebra, algebra.basis_degrees,
                         [algebra.variable_action(i) for i in range(algebra.nvars)],
                         provenance="regular")
        X, p, dA = regular._stacked("variables"), algebra.field.p, algebra.dim
        # an entry of a stack of actions is its flat index (j dA + a) dA + src
        # and its residue: xk, x those of X, row b of X_v from ptr[v dA + b]
        xk = np.flatnonzero(X)
        x, ptr = X.reshape(-1)[xk], np.searchsorted(xk // dA, np.arange(len(X) * dA + 1))
        keys, w = np.arange(dA) * (dA + 1), np.ones(dA, dtype=np.int64)  # basis[0] is 1
        chain = np.array(list(_division_chain(algebra)), dtype=np.intp).reshape(-1, 3)
        degrees = np.array(algebra.basis_degrees)[chain[:, 0]]
        for d in range(1, max(algebra.basis_degrees) + 1):
            j, v, below = chain[degrees == d].T
            lo = keys.searchsorted(below * dA * dA)
            n = keys.searchsorted((below + 1) * dA * dA) - lo
            e = _ranges(lo, n)  # the entries (below, a, b) of each x^e_below
            ab = keys[e] % (dA * dA)
            row = (v * dA).repeat(n) + ab % dA
            m = ptr[row + 1] - ptr[row]
            f = _ranges(ptr[row], m)  # and those (v, b, src) of row b of X_v
            new = ((j.repeat(n) * dA + ab // dA) * dA).repeat(m) + xk[f] % dA
            order = new.argsort()
            new, terms = new[order], (x[f] * w[e].repeat(m) % p)[order]
            alike = np.flatnonzero(new != np.append(-1, new[:-1]))  # each key's first entry
            sums = np.add.reduceat(terms, alike) % p
            # keys stay sorted: the basis lists its monomials degree by degree
            keys, w = np.concatenate((keys, new[alike][sums != 0])), np.concatenate((w, sums[sums != 0]))
        tables = {"basis": _grouped(dA, keys, w, dA), "variables": _grouped(dA, xk, x, len(X))}
        _STRUCTURE[algebra] = tables
    if which not in tables:
        _list_length(algebra, which)  # raises InputError: no such list
    return tables[which]


def _ranges(lo: np.ndarray, n: np.ndarray) -> np.ndarray:
    """lo[i] .. lo[i] + n[i] - 1 for every i, one after the other."""
    return (lo - n.cumsum() + n).repeat(n) + np.arange(n.sum())


def _grouped(period: int, keys: np.ndarray, w: np.ndarray, count: int) -> _Sources:
    """The _Sources of a stack of the actions of count monomials given by
    its nonzero entries in order: flat indices (j period + a) period + b and
    residues w, w on output a of x^e_j times source b."""
    # output (j, a) as j period + a; two entries of one output are side by
    # side.  A stack is read once per module (a direct sum's per call), mostly
    # a few dozen entries, so the flag is found on lists: no small-array calls
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
    on every block of a free module, the stacked actions of any other, read
    once and kept beside them; a direct sum keeps neither, and reads its
    table on each call."""
    if isinstance(m, FreeModule):
        return _structure_terms(m.algebra, which)
    kept = {} if m._sources is None else m._sources
    if which not in kept:
        S = m._stacked(which)
        keys = np.flatnonzero(S)
        kept[which] = _grouped(m.dim, keys, S.reshape(-1)[keys], len(S))
    return kept[which]


def multiples_of_rows(m: Module, rows: Sequence[dict], which: str) -> List[dict]:
    """Module.multiples on sparse rows: each row, a dict {coordinate on m:
    residue}, times each monomial x^e_j of the list `which`, as a dict of
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
    return target.multiples(gen_images, "basis")


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


class _DirectSum(Module):
    """M (+) N on the basis of M followed by that of N.  It keeps its two
    summands and no array: its products are theirs, the rows of M's over
    those of N's, so each summand multiplies in its own way, a free one
    through A's regular representation."""

    def __init__(self, m: Module, n: Module):
        self.summands = (m, n)
        # inherited: each summand carries verified actions
        super().__init__(m.algebra, m.degrees + n.degrees, None, provenance="sum", _skip_verify=True)

    def multiples(self, cols: Mat, which: str) -> Mat:
        if cols.rows != self.dim:
            raise InputError(f"{cols.rows} coordinates on a direct sum of dimension {self.dim}")
        m, n = self.summands
        top = m.multiples(Mat._trusted(self.field, cols.a[:m.dim]), which)
        return top.vstack(n.multiples(Mat._trusted(self.field, cols.a[m.dim:]), which))


def direct_sum(m: Module, n: Module) -> Module:
    if m.algebra is not n.algebra:
        raise InputError("direct sum of modules over different algebras")
    return _DirectSum(m, n)


def shift(m: Module, s: int) -> Module:
    """Relabel every degree by +s; nothing else changes.  A free module
    stays free and a direct sum is the sum of its summands' shifts; any
    other module shares the stacked actions m keeps and their by-source
    tables, also those built later."""
    if isinstance(m, FreeModule):
        return FreeModule(m.algebra, [g + s for g in m.gen_degrees])
    if isinstance(m, _DirectSum):
        return _DirectSum(*(shift(x, s) for x in m.summands))
    # inherited: the actions are the same verified matrices
    out = Module(m.algebra, [d + s for d in m.degrees], None, provenance=m.provenance or "shift",
                 _skip_verify=True)
    out._stacks, out._sources = m._stacks, m._sources
    return out


def _by_variable(m: Module, multiples: np.ndarray) -> List[Mat]:
    """The products of Module.multiples(cols, "variables") on m split by
    variable: entry v is X_v @ cols."""
    s = m.algebra.nvars
    return [Mat._trusted(m.field, multiples[:, v::s]) for v in range(s)]


# -- subquotient machinery -------------------------------------------------


def _row_degree(m: Module, columns) -> int:
    """The degree of a vector given by its nonzero columns; InvariantError
    unless it is homogeneous."""
    degs = {m.degrees[j] for j in columns}
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
        _row_degree(m, R.a[r].nonzero()[0])
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
    degrees = [_row_degree(m, R.a[r].nonzero()[0]) for r in range(rank)]
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
