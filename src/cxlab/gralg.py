"""Graded Artinian local algebras A = F_p[x_1..x_v]/I with degreewise normal forms.

Only homogeneous ideals are supported, so per-degree reduced echelon bases
give canonical normal forms without any Groebner machinery.  Standard
monomials (the quotient basis) are the non-pivot monomials under a fixed
descending degrevlex order; the flat basis of A lists them degree by degree.
"""
from __future__ import annotations

import itertools
import re
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, ScenarioError
from .exactla import Field, Mat, _sparse_rref

__all__ = [
    "Polynomial",
    "parse_polynomial",
    "parse_poly_tokens",
    "Token",
    "TokenStream",
    "tokenize_line",
    "Algebra",
    "AlgebraElement",
    "build_algebra",
    "multiply",
    "is_gorenstein",
    "codimension",
    "monomials_of_degree",
]

Monomial = Tuple[int, ...]


def _mono_degree(e: Monomial) -> int:
    return sum(e)


def _drl_pos_key(e: Monomial):
    # descending degrevlex within a fixed degree = ascending lex on reversed tuples
    return tuple(reversed(e))


def monomials_of_degree(nvars: int, d: int) -> List[Monomial]:
    """All exponent tuples of total degree d, in descending degrevlex order."""
    if d < 0:
        return []
    if nvars == 0:
        return [()] if d == 0 else []
    monos = []
    for bars in itertools.combinations(range(d + nvars - 1), nvars - 1):
        prev = -1
        e = []
        for b in bars:
            e.append(b - prev - 1)
            prev = b
        e.append(d + nvars - 2 - prev)
        monos.append(tuple(e))
    monos.sort(key=_drl_pos_key)
    return monos


def _term_sort_key(item):
    e, _ = item
    return (_mono_degree(e), _drl_pos_key(e))


class Polynomial:
    """Element of F_p[x_1..x_v] with exact coefficients in [0, p)."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms: Dict[Monomial, int]):
        clean = {}
        for e, c in terms.items():
            if len(e) != nvars:
                raise InputError(f"exponent tuple {e} has wrong length, expected {nvars}")
            c %= field.p
            if c:
                clean[tuple(int(x) for x in e)] = c
        self.field = field
        self.nvars = nvars
        self.terms = tuple(sorted(clean.items(), key=_term_sort_key))

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "Polynomial":
        return cls(field, nvars, {})

    @classmethod
    def variable(cls, field: Field, nvars: int, i: int, power: int = 1) -> "Polynomial":
        e = [0] * nvars
        e[i] = power
        return cls(field, nvars, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Optional[int]:
        """Total degree when homogeneous and nonzero, else None."""
        degs = {_mono_degree(e) for e, _ in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def shift_by_monomial(self, e: Monomial) -> "Polynomial":
        return Polynomial(
            self.field,
            self.nvars,
            {tuple(a + b for a, b in zip(e1, e)): c for e1, c in self.terms},
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, self.terms))

    def text(self, varnames: Sequence[str]) -> str:
        """Canonical text form, parseable by parse_polynomial."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            factors = []
            for i, a in enumerate(e):
                if a == 1:
                    factors.append(varnames[i])
                elif a > 1:
                    factors.append(f"{varnames[i]}^{a}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return "+".join(parts)

    def __repr__(self):
        names = [f"x{i+1}" for i in range(self.nvars)]
        return f"Polynomial({self.text(names)} over F_{self.field.p})"


class Token(NamedTuple):
    kind: str   # INT, IDENT, SYM, or END, which closes a line
    value: str
    line: int
    col: int


class TokenStream:
    """Tokens read with peek() and take(); fail() raises an error at a token."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, *symbols: str) -> bool:
        """True when the next token is one of the given symbols."""
        tok = self.peek()
        return tok.kind == "SYM" and tok.value in symbols

    def fail(self, message: str, tok: Token):
        raise InputError(f"column {tok.col}: {message}")


# names and integers are ASCII; any other character outside whitespace is an error
_TOKEN = re.compile(r"\s*(?:(?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)|(?P<INT>[0-9]+)"
                    r"|(?P<SYM>\.\.|[\[\](),=/^*+-]))")


def tokenize_line(text: str, line: int = 1) -> List[Token]:
    """The tokens of one line of the scenario language, polynomials included,
    closed by an END token one column past the line; a character that
    starts no token raises a ScenarioError at its column."""
    tokens: List[Token] = []
    pos = 0
    while (m := _TOKEN.match(text, pos)) is not None:
        tokens.append(Token(m.lastgroup, m.group(m.lastgroup), line, m.start(m.lastgroup) + 1))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        raise ScenarioError(f"unexpected character {rest[0]!r}", line, len(text) - len(rest) + 1)
    return tokens + [Token("END", "", line, len(text) + 1)]


def parse_poly_tokens(stream: TokenStream, varnames: Sequence[str], field: Field) -> Polynomial:
    """The polynomial grammar: terms like ``c*x1^2*x3`` joined by +/-, with an
    optional leading sign.

    Parsing stops before the first token that cannot continue the
    polynomial; errors are raised by stream.fail at the offending token.
    Coefficients are integer literals reduced mod p; a bare monomial has
    coefficient 1.
    """
    var_index = {name: i for i, name in enumerate(varnames)}
    acc: Dict[Monomial, int] = {}
    sign = 1
    if stream.at("+", "-"):
        sign = -1 if stream.take().value == "-" else 1
    while True:
        coeff = 1
        exps = [0] * len(varnames)
        while True:
            tok = stream.take()
            if tok.kind == "INT":
                coeff = (coeff * int(tok.value)) % field.p
            elif tok.kind == "IDENT":
                if tok.value not in var_index:
                    stream.fail(f"unknown variable {tok.value!r}", tok)
                power = 1
                if stream.at("^"):
                    stream.take()
                    if stream.peek().kind != "INT":
                        stream.fail("expected an integer exponent after '^'", stream.peek())
                    power = int(stream.take().value)
                exps[var_index[tok.value]] += power
            else:
                stream.fail("expected a coefficient or a variable", tok)
            if not stream.at("*"):
                break
            stream.take()
        e = tuple(exps)
        acc[e] = (acc.get(e, 0) + sign * coeff) % field.p
        if not stream.at("+", "-"):
            return Polynomial(field, len(varnames), acc)
        sign = -1 if stream.take().value == "-" else 1


def parse_polynomial(text: str, varnames: Sequence[str], field: Field) -> Polynomial:
    """Parse one polynomial in the shared syntax (see parse_poly_tokens);
    whitespace is insignificant."""
    stream = TokenStream(tokenize_line(text))
    poly = parse_poly_tokens(stream, varnames, field)
    if stream.peek().kind != "END":
        stream.fail(f"unexpected {stream.peek().value!r} after the polynomial", stream.peek())
    return poly


class Algebra:
    """A graded Artinian local F_p-algebra with fully materialized degree tables.

    Immutable after construction; all operations are pure.
    """

    def __init__(self, field: Field, nvars: int, relations: Sequence[Polynomial],
                 varnames: Optional[Sequence[str]] = None):
        self.field = field
        self.nvars = nvars
        self.varnames = tuple(varnames) if varnames is not None else tuple(f"x{i+1}" for i in range(nvars))
        if len(self.varnames) != nvars:
            raise InputError("variable name count does not match nvars")
        rels = []
        for g in relations:
            if g.field != field or g.nvars != nvars:
                raise InputError("relation over the wrong polynomial ring")
            d = g.degree()
            if d is None or d < 1:
                raise InputError(f"relations must be homogeneous of degree >= 1, got {g!r}")
            rels.append(g)
        self.relations = tuple(rels)
        self._std: List[List[Monomial]] = []  # standard monomials of each degree
        self._nf: Dict[Monomial, np.ndarray] = {}  # nonzero normal forms of the others
        self._build_slices()
        self.top_degree = len(self._std) - 1
        # flat quotient basis: standard monomials listed degree by degree
        self.basis: List[Monomial] = [e for std in self._std for e in std]
        self.basis_degrees: List[int] = [d for d, std in enumerate(self._std) for _ in std]
        self.basis_index: Dict[Monomial, int] = {e: j for j, e in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._var_actions: List[Optional[Mat]] = [None] * nvars

    def _build_slices(self):
        """Standard monomials degree by degree, until a degree has none (then
        A_e = 0 for every e above it, A being standard graded).  An Artinian
        quotient of n variables by relations of degree <= D vanishes above
        n(D - 1): over an infinite field the degree-D part of the ideal holds
        a regular sequence of n forms of degree D, and field extension keeps
        the Hilbert function.  So a slice at n(D - 1) + 1 refuses the
        quotient, and a monomial ideal is refused at once when a variable
        has no pure power among its generators (an exact criterion)."""
        # a monomial ideal's standard monomials are the ones no leading
        # exponent divides; they form an order ideal, so degree d consists
        # of degree d-1 times one variable, and every other normal form is 0
        monomial_ideal = all(len(g.terms) == 1 for g in self.relations)
        lead_exps = [g.terms[0][0] for g in self.relations]
        missing = [v for v in range(self.nvars) if monomial_ideal and all(e[v] < sum(e) for e in lead_exps)]
        if missing:
            raise InputError(f"non-Artinian quotient: no relation is a pure power of {self.varnames[missing[0]]}")
        top_degree = max((g.degree() for g in self.relations), default=1)
        bound = self.nvars * (top_degree - 1)
        for d in range(bound + 2):
            if monomial_ideal and d:
                ups = {s[:v] + (s[v] + 1,) + s[v + 1:] for s in self._std[-1] for v in range(self.nvars)}
                std = sorted((e for e in ups if not any(all(a >= b for a, b in zip(e, le)) for le in lead_exps)),
                             key=_drl_pos_key)
            else:
                # degree 0 is the monomial 1 either way: relations have degree >= 1
                std = self._echelon_slice(d)
            if not std:
                return
            self._std.append(std)
        raise InputError(f"non-Artinian quotient: it is nonzero in degree {bound + 1}, while an Artinian "
                         f"quotient of {self.nvars} variables by relations of degree <= {top_degree} "
                         f"vanishes above degree {bound}")

    def _echelon_slice(self, d: int) -> List[Monomial]:
        """Standard monomials of degree d: the non-pivot columns of the RREF of
        the ideal's degree-d slice, eliminated as sparse rows (one per
        relation multiple) with no dense slice.  Modulo the ideal a pivot
        monomial equals minus the rest of its row; that normal form is stored
        when nonzero."""
        monos = monomials_of_degree(self.nvars, d)
        mono_pos = {e: j for j, e in enumerate(monos)}
        rows = [{mono_pos[em]: int(c) for em, c in g.shift_by_monomial(m).terms}
                for g in self.relations if g.degree() <= d
                for m in monomials_of_degree(self.nvars, d - g.degree())]
        pivot = _sparse_rref(rows, self.field.p)
        std = [j for j in range(len(monos)) if j not in pivot]
        at = {j: i for i, j in enumerate(std)}
        for pc in sorted(pivot):
            nf = np.zeros(len(std), dtype=np.int64)
            for j, v in pivot[pc].items():
                if j != pc:
                    nf[at[j]] = -v % self.field.p
            if nf.any():
                self._nf[monos[pc]] = nf
        return [monos[j] for j in std]

    # -- basis bookkeeping ------------------------------------------------

    def slice_std(self, d: int) -> List[Monomial]:
        if 0 <= d <= self.top_degree:
            return self._std[d]
        return []

    def hilbert_function(self) -> Tuple[int, ...]:
        return tuple(len(std) for std in self._std)

    def nf_monomial(self, e: Monomial) -> np.ndarray:
        """Normal form of a single monomial as a vector over the flat basis."""
        e = tuple(e)
        if len(e) != self.nvars:
            raise InputError(f"exponent tuple {e} has wrong length, expected {self.nvars}")
        vec = np.zeros(self.dim, dtype=np.int64)
        j = self.basis_index.get(e)
        if j is not None:
            vec[j] = 1
        elif e in self._nf:
            # stored over the standard monomials of its degree
            off = self.basis_index[self._std[_mono_degree(e)][0]]
            vec[off : off + len(self._nf[e])] = self._nf[e]
        return vec

    def nf_polynomial(self, poly: Polynomial) -> "AlgebraElement":
        if poly.field != self.field or poly.nvars != self.nvars:
            raise InputError("polynomial over the wrong ring")
        vec = np.zeros(self.dim, dtype=np.int64)
        for e, c in poly.terms:
            vec = (vec + c * self.nf_monomial(e)) % self.field.p
        return AlgebraElement(self, vec)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, np.zeros(self.dim, dtype=np.int64))

    def one(self) -> "AlgebraElement":
        vec = np.zeros(self.dim, dtype=np.int64)
        vec[0] = 1
        return AlgebraElement(self, vec)

    def variable(self, i: int) -> "AlgebraElement":
        if not 0 <= i < self.nvars:
            raise InputError(f"variable index {i} out of range")
        return self.nf_polynomial(Polynomial.variable(self.field, self.nvars, i))

    def element(self, vec) -> "AlgebraElement":
        return AlgebraElement(self, np.asarray(vec, dtype=np.int64) % self.field.p)

    def basis_element(self, idx: int) -> "AlgebraElement":
        vec = np.zeros(self.dim, dtype=np.int64)
        vec[idx] = 1
        return AlgebraElement(self, vec)

    def variable_action(self, i: int) -> Mat:
        """Multiplication by x_i as a matrix on the flat quotient basis."""
        if self._var_actions[i] is None:
            cols = np.zeros((self.dim, self.dim), dtype=np.int64)
            for j, e in enumerate(self.basis):
                ee = list(e)
                ee[i] += 1
                cols[:, j] = self.nf_monomial(tuple(ee))
            self._var_actions[i] = Mat(self.field, cols)
        return self._var_actions[i]

    def __repr__(self):
        rel = ", ".join(g.text(self.varnames) for g in self.relations)
        return f"Algebra(F_{self.field.p}[{', '.join(self.varnames)}]/({rel}), dim {self.dim})"


class AlgebraElement:
    """Element of an Algebra, stored as coefficients over the standard monomials."""

    __slots__ = ("algebra", "vec")

    def __init__(self, algebra: Algebra, vec: np.ndarray):
        v = np.asarray(vec, dtype=np.int64) % algebra.field.p
        if v.shape != (algebra.dim,):
            raise InputError(f"coefficient vector has shape {v.shape}, expected ({algebra.dim},)")
        v.setflags(write=False)
        self.algebra = algebra
        self.vec = v

    def is_zero(self) -> bool:
        return not self.vec.any()

    def constant_term(self) -> int:
        return int(self.vec[0]) if self.algebra.dim else 0

    def degree(self) -> Optional[int]:
        """Degree when homogeneous and nonzero, else None."""
        degs = {self.algebra.basis_degrees[j] for j in np.nonzero(self.vec)[0]}
        if len(degs) != 1:
            return None
        return degs.pop()

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.algebra, (self.vec + other.vec) % self.algebra.field.p)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.algebra, (self.vec - other.vec) % self.algebra.field.p)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, -self.vec)

    def scale(self, c: int) -> "AlgebraElement":
        return AlgebraElement(self.algebra, (self.vec * (c % self.algebra.field.p)))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        A = self.algebra
        p = A.field.p
        acc = np.zeros(A.dim, dtype=np.int64)
        for i in np.nonzero(self.vec)[0]:
            ci = int(self.vec[i])
            for j in np.nonzero(other.vec)[0]:
                # reduce the scalar first so each term stays below p^2 < 2^62;
                # basis[i] * basis[j] is the normal form of the exponent sum
                c = ci * int(other.vec[j]) % p
                acc = (acc + c * A.nf_monomial(tuple(a + b for a, b in zip(A.basis[i], A.basis[j])))) % p
        return AlgebraElement(A, acc)

    def to_polynomial(self) -> Polynomial:
        """Canonical lift: the combination of standard monomials itself."""
        terms = {self.algebra.basis[j]: int(c) for j, c in enumerate(self.vec) if c}
        return Polynomial(self.algebra.field, self.algebra.nvars, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.algebra is other.algebra
            and bool(np.array_equal(self.vec, other.vec))
        )

    def __hash__(self):
        return hash((id(self.algebra), self.vec.tobytes()))

    def __repr__(self):
        return f"AlgebraElement({self.to_polynomial().text(self.algebra.varnames)})"

    def _check(self, other: "AlgebraElement"):
        if self.algebra is not other.algebra:
            raise InputError("elements of different algebras")


def build_algebra(field: Field, nvars: int, relations: Sequence[Polynomial],
                  varnames: Optional[Sequence[str]] = None) -> Algebra:
    """Construct F_p[x_1..x_v]/(relations) with all degree tables materialized.

    Raises InputError when a relation is not homogeneous of degree >= 1 or
    when the quotient is not Artinian (see Algebra._build_slices).
    """
    return Algebra(field, nvars, relations, varnames=varnames)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product in the algebra (bilinear, commutative, associative)."""
    return a * b


def socle_dimension(A: Algebra) -> int:
    """Dimension of {a in A : m a = 0}, the annihilator of the maximal ideal."""
    if A.nvars == 0:
        return A.dim
    stacked = A.variable_action(0)
    for i in range(1, A.nvars):
        stacked = stacked.vstack(A.variable_action(i))
    return A.dim - stacked.rank()


def is_gorenstein(A: Algebra) -> bool:
    """True iff the socle is one dimensional."""
    return socle_dimension(A) == 1


def codimension(A: Algebra) -> int:
    """dim_k(m/m^2); for an Artinian algebra this is the usual codimension."""
    return len(A.slice_std(1))
