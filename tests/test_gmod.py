import gc
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracles
from cxlab.cioper import MonomialCI
from cxlab.errors import InputError, InvariantError
from cxlab.exactla import Field, Mat, _dense, _dict_rows, rref
from cxlab.gralg import build_algebra, parse_polynomial, socle_dimension
from cxlab import gmod
from cxlab.gmod import (
    Module,
    action_rows,
    coker_presentation,
    compose_on_generators,
    direct_sum,
    extend_linearly,
    free_module,
    coefficient_view,
    entry_images,
    images_of,
    multiples_of_rows,
    quotient_by_span,
    residue_field,
    shift,
    submodule_from_span,
    _structure_terms,
)
from cxlab.resol import resolve, syzygy, verify_complex
from cxlab.yoneda import _hom_differential, ext_table
from conftest import GASHAROV_RELATIONS, GASHAROV_VARS, gasharov_presentation
from oracles import diff_algebra, gauss_rank, hom_space, is_isomorphic, min_generators, solve_matrix

F5 = Field(5)


def test_free_module_shapes(A, gasharov):
    F = free_module(A, [0])
    assert F.dim == 4 and sorted(F.degrees) == [0, 1, 1, 2]
    assert free_module(A, []).dim == 0
    assert free_module(gasharov, [0, 0]).dim == 2 * gasharov.dim


def test_coker_identity_column(A):
    Z = coker_presentation(A, [[A.one()]], [0])
    assert Z.dim == 0


def test_coker_row_x_y(A):
    # one generator, columns x and y: the quotient is the residue field
    M = coker_presentation(A, [[A.variable(0), A.variable(1)]], [0])
    assert M.dim == 1
    assert is_isomorphic(M, residue_field(A)).kind == "yes"
    # brute-force span oracle: the submodule A*x + A*y has dimension 3
    F = free_module(A, [0])
    span = []
    for col in (A.variable(0).vec, A.variable(1).vec):
        for mono in A.basis:
            span.append((oracles.monomial_action(F, mono).a @ col % 5).tolist())
    assert F.dim - gauss_rank(span, 5) == M.dim


def test_coker_gasharov_dimension(gasharov, gasharov_module):
    # column span rank over the free module, computed with the naive oracle
    from cxlab.gralg import parse_polynomial
    from conftest import GASHAROV_VARS

    pe = lambda s: gasharov.nf_polynomial(parse_polynomial(s, GASHAROV_VARS, F5))
    F = free_module(gasharov, [0, 0])
    cols = []
    for entries in [(pe("x1"), pe("0")), (pe("2*x3+x4"), pe("x2"))]:
        col = np.concatenate([entries[0].vec, entries[1].vec])
        for mono in gasharov.basis:
            cols.append((oracles.monomial_action(F, mono).a @ col % 5).tolist())
    assert F.dim - gauss_rank(cols, 5) == gasharov_module.dim


def test_realize_algebra_matrix_entrywise(gasharov):
    from cxlab.gralg import parse_polynomial
    from conftest import GASHAROV_VARS

    pe = lambda s: gasharov.nf_polynomial(parse_polynomial(s, GASHAROV_VARS, F5))
    entries = [[pe("x1"), pe("0")], [pe("2*x3+x4"), pe("x2*x5")], [pe("1+x3"), pe("3*x4^2")]]
    got = extend_linearly(free_module(gasharov, [0, 0, 0]), entry_images(gasharov, entries, 3, 2)).a
    dA = gasharov.dim
    for i, row in enumerate(entries):
        for j, a in enumerate(row):
            for m in range(dA):
                assert np.array_equal(got[i * dA : (i + 1) * dA, j * dA + m],
                                      (a * gasharov.basis_element(m)).vec)


def test_residue_sum_shift(A, k):
    assert k.dim == 1 and k.degrees == (0,)
    assert all(X.is_zero() for X in k.actions)
    Z = free_module(A, [])
    assert is_isomorphic(direct_sum(k, Z), k).kind == "yes"
    assert shift(k, 3).degrees == (3,)


def test_min_generators(A, k, Ax, gasharov_module):
    assert len(min_generators(free_module(A, [0, 1, 3]))) == 3
    assert len(min_generators(k)) == 1
    assert len(min_generators(gasharov_module)) == 2
    assert min_generators(free_module(A, [])) == []
    # a span whose pivot entry is not 1, or whose pivot column is not cleared
    with pytest.raises(InvariantError, match="span is not in reduced echelon form"):
        min_generators(k, Mat(F5, [[2]]))
    with pytest.raises(InvariantError, match="span is not in reduced echelon form"):
        min_generators(Ax, Mat(F5, [[1, 1], [1, 0]]))


def test_hom_space_dimensions(A, k):
    F = free_module(A, [0])
    N = coker_presentation(A, [[A.variable(0)]], [0])
    assert len(hom_space(F, N)) == N.dim
    assert len(hom_space(k, k)) == 1
    assert len(hom_space(k, F)) == 1  # socle of the algebra
    for phi in hom_space(N, N):
        assert phi.is_equivariant()


def test_hom_dimension_invariant_under_basis_reorder(A, Ax):
    # conjugating by a permutation must not change hom dimensions
    perm = [1, 0]
    P = Mat(F5, np.eye(2, dtype=np.int64)[perm])
    reordered = Module(
        A,
        [Ax.degrees[i] for i in perm],
        [P @ X @ P.transpose() for X in Ax.actions],
    )
    assert len(hom_space(Ax, Ax)) == len(hom_space(reordered, reordered))
    assert len(hom_space(Ax, reordered)) == len(hom_space(Ax, Ax))


def test_is_isomorphic_basic(A, k, Ax):
    assert is_isomorphic(k, k).kind == "yes"
    assert is_isomorphic(k, Ax).kind == "structurally_distinct"
    v = is_isomorphic(Ax, shift(Ax, 1))
    assert v.kind == "structurally_distinct"  # graded dimensions differ


def test_is_isomorphic_gasharov_periodicity(gasharov_module):
    M = gasharov_module
    v4 = is_isomorphic(syzygy(M, 4), shift(M, 4), seed=0, attempts=64)
    assert v4.kind == "yes"
    assert v4.witness.is_equivariant() and v4.witness.is_invertible()
    # the period is exactly the order of the twisting unit: no witness earlier
    for i in (1, 2, 3):
        assert is_isomorphic(syzygy(M, i), shift(M, i), seed=0).kind != "yes"


def test_module_verification_rejects_bad_actions(A):
    # non-commuting pair: x then y reaches the top slot, y then x dies
    X = np.zeros((4, 4), dtype=np.int64)
    X[1, 0] = 1
    X[3, 2] = 1
    Y = np.zeros((4, 4), dtype=np.int64)
    Y[2, 0] = 1
    with pytest.raises(AssertionError, match="commute"):
        Module(A, [0, 1, 1, 2], [Mat(F5, X), Mat(F5, Y)])
    # grading violated: a degree-1 slot mapping into a degree-0 slot
    bad = np.zeros((2, 2), dtype=np.int64)
    bad[0, 1] = 1
    with pytest.raises(AssertionError, match="grading"):
        Module(A, [0, 1], [Mat(F5, bad), Mat.zeros(F5, 2, 2)])
    # relation violated: x^2 acting as a nonzero map
    chain = np.zeros((3, 3), dtype=np.int64)
    chain[1, 0] = 1
    chain[2, 1] = 1
    with pytest.raises(AssertionError, match="relation .* does not annihilate the module"):
        Module(A, [0, 1, 2], [Mat(F5, chain), Mat.zeros(F5, 3, 3)])
    # the same over F_5[x]/(x^2), where no other check sees it
    B = build_algebra(F5, 1, [parse_polynomial("x^2", ["x"], F5)], varnames=["x"])
    with pytest.raises(InvariantError, match="does not annihilate the module"):
        Module(B, [0, 1, 2], [Mat(F5, chain)])


def test_mixed_algebra_operations_rejected(A, cubic, k):
    other = residue_field(cubic.algebra)
    with pytest.raises(InputError):
        direct_sum(k, other)
    with pytest.raises(InputError):
        ext_table(k, other, 1)
    with pytest.raises(InputError):
        A.variable(0) * cubic.algebra.variable(0)


def test_zero_module_resolution(A):
    Z = free_module(A, [])
    from cxlab.resol import resolve, syzygy as syz

    assert resolve(Z, 4).betti_list(4) == [0] * 5
    assert syz(Z, 2).dim == 0


def test_coker_rejects_ambiguous_column(A):
    x = A.variable(0)
    one = A.one()
    with pytest.raises(InputError, match="ambiguous"):
        coker_presentation(A, [[x], [x]], [0, 1])
    with pytest.raises(InputError, match="ambiguous"):
        coker_presentation(A, [[A.zero()]], [0])
    with pytest.raises(InputError, match="homogeneous"):
        coker_presentation(A, [[x + one]], [0])


@pytest.mark.parametrize("entry_point", ["coker_presentation", "verify_complex"])
@pytest.mark.parametrize("case, match", [
    ("ambiguous", "ambiguous"),
    ("zero", "ambiguous"),
    ("inhomogeneous", "homogeneous"),
    ("wrong algebra", "wrong algebra"),
])
def test_bad_columns_rejected_by_both_entry_points(A, cubic, entry_point, case, match):
    x = A.variable(0)
    entries, degrees = {
        "ambiguous": ([[x], [x]], [0, 1]),
        "zero": ([[A.zero()]], [0]),
        "inhomogeneous": ([[x + A.one()]], [0]),
        "wrong algebra": ([[cubic.algebra.variable(0)]], [0]),
    }[case]
    with pytest.raises(InputError, match=match):
        if entry_point == "coker_presentation":
            coker_presentation(A, entries, degrees)
        else:
            verify_complex(A, [entries], target_degrees=degrees)


@pytest.mark.parametrize("p", [5, 2**31 - 1])
def test_extend_linearly_matches_entrywise_definition(p):
    # the Gasharov algebra's standard monomials are echelon pivots, not the
    # complement of a monomial ideal
    F = Field(p)
    G = build_algebra(F, 5, [parse_polynomial(s, GASHAROV_VARS, F) for s in GASHAROV_RELATIONS],
                      varnames=GASHAROV_VARS)
    pe = lambda s: G.nf_polynomial(parse_polynomial(s, GASHAROV_VARS, F))
    M = coker_presentation(G, [[pe("x1"), pe("2*x3+x4")], [pe("0"), pe("x2")]], [0, 0])
    free_module(G, [0])  # verified once per algebra; later free modules start with empty caches
    rng = np.random.default_rng(p % 1000)
    for target in (M, free_module(G, [0, 1]), free_module(G, [])):
        for rank in (0, 1, 3):
            images = Mat(F, rng.integers(0, p, (target.dim, rank)))
            got = extend_linearly(target, images)
            if target is not M:
                assert not oracles.held_arrays(target)  # a free module keeps no array
            assert got.shape == (target.dim, rank * G.dim)
            for mi, mono in enumerate(G.basis):
                expected = oracles.monomial_action(target, mono) @ images
                assert np.array_equal(got.a[:, mi::G.dim], expected.a), (target, rank, mono)


_TERM_RINGS = {
    # name: (p, variables, relations, each variable acts by a partial permutation)
    "x2y2z2": (5, "xyz", ["x^2", "y^2", "z^2"], True),
    "gasharov": (5, GASHAROV_VARS, GASHAROV_RELATIONS, False),
    "x2+y2": (7, "xyz", ["x^2+y^2", "y^3", "z^2", "x*z"], False),
    "x3y3z3": (5, "xyz", ["x^3", "y^3", "z^3"], True),
    "a4b4c4d4": (5, "abcd", ["a^4", "b^4", "c^4", "d^4"], True),
    "dim64": (5, "abc", ["a^4+b^4", "b^4+c^4", "a*b*c^2+c^4"], False),
    # entries alike of a basis action sum to p or more, so the build reduces the sum
    "wraps": (3, "xyz", ["y^2+z^2", "x^2+x*y+z^2", "x*z+z^2"], False),
}


def _table_entries(t):
    """The structure constants a gmod._Sources holds, as sorted tuples (j, a,
    src, w): w on output a of x^e_j times source src."""
    return sorted((j, a, src, w) for src, triples in enumerate(t.entries) for j, a, w in triples)


@pytest.mark.parametrize("ring", sorted(_TERM_RINGS))
def test_structure_terms_match_dense_stack(ring):
    # the one structure table holds, by source, the nonzero entries of the
    # dense dim A^3 stack of A's monomial actions, each once.  Over a partial
    # permutation every output is one entry 1, and exactly there the table
    # is lone: nothing is summed.  Where the stack dominates (dim A >= 64:
    # 2 MiB and up), building both tables allocates less than a quarter of it
    p, names, relations, lone = _TERM_RINGS[ring]
    F = Field(p)
    A = build_algebra(F, len(names), [parse_polynomial(r, names, F) for r in relations], varnames=list(names))
    tracemalloc.start()
    try:
        got = {w: _structure_terms(A, w) for w in ("basis", "variables")}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if A.dim >= 64:
        assert peak < 8 * A.dim ** 3 / 4, (peak, A.dim)
    for which, t in got.items():
        assert type(t) is gmod._Sources and t.period == A.dim == len(t.entries), which
        S = oracles.regular_module(A)._stacked(which)
        j, a, c = np.nonzero(S)
        assert _table_entries(t) == sorted(zip(j.tolist(), a.tolist(), c.tolist(), S[j, a, c].tolist())), which
        assert t.lone == lone, which


_RINGS = {
    # name: (variables, relations, each variable acts by a partial permutation)
    "monomial_ci": ("xyz", ["x^2", "y^3", "z^2"], True),
    "gasharov": (GASHAROV_VARS, GASHAROV_RELATIONS, False),
    "quadrics": ("xyz", ["x^2+3*y*z+2*z^2", "y^2+2*x*z+4*x*y", "z^2+x*y+3*x*z", "x*y+y*z+2*x^2"], False),
    "scaled": ("xy", ["x^2-2*y^2", "x*y", "y^3"], False),  # x * x = 2 y^2, one term
    # x * x = x * y: one entry 1 in every column of x's action, two in a row
    "merging": ("xy", ["x^2-x*y", "y^3"], False),
    # at p = 2^31 - 1, x * x = (p - 1) / 2 y^2: the product's worst case needs limbs
    "half_p": ("xy", ["x^2-1073741823*y^2", "x*y", "y^3"], False),
    "dim64": ("abc", ["a^4+b^4", "b^4+c^4", "a*b*c^2+c^4"], False),
}


@pytest.mark.parametrize("ring, p", [(ring, p) for ring in sorted(_RINGS) for p in (2, 5, 2**31 - 1)
                                     if (ring, p) != ("dim64", 2)])  # a^4 + b^4 = (a + b)^4 over F_2
def test_multiples_match_monomial_actions(ring, p):
    # column c times the j-th monomial of a list sits at column c*s + j;
    # outside a monomial algebra, x^e * m can have several standard
    # monomials, so an output entry sums several structure constants
    F = Field(p)
    names, relations, lone = _RINGS[ring]
    A = build_algebra(F, len(names), [parse_polynomial(r, names, F) for r in relations], varnames=names)
    variables = [tuple(int(i == v) for i in range(A.nvars)) for v in range(A.nvars)]
    # over a partial permutation the table is lone and every output is
    # written once; "merging" sums two entries in an output, "half_p"
    # reduces (p - 1) / 2 times a residue before it sums
    if p > 2:
        for which in ("basis", "variables"):
            assert _structure_terms(A, which).lone == lone
    triples = [(j, a, w) for t in _structure_terms(A, "basis").entries for j, a, w in t]
    if ring == "merging":
        assert max(Counter((j, a) for j, a, _ in triples).values()) == 2
    if ring == "half_p" and p == 2**31 - 1:
        assert (p - 1) // 2 in [w for _, _, w in triples]
    if ring == "dim64":
        # a nearly empty product writes its output and, beside it, only its
        # nonzero entries: no output-sized temporary
        M, I = free_module(A, [0, 1]), Mat.identity(F, 2 * A.dim)
        tracemalloc.start()
        try:
            out = M.multiples(I, "basis")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (M.dim, M.dim * A.dim) and peak <= 1.25 * out.a.nbytes, peak / out.a.nbytes
    rng = np.random.default_rng(p % 1000)
    N = coker_presentation(A, [[A.variable(0), A.variable(1)]], [0])
    Z = coker_presentation(A, [[A.one()]], [0])  # zero-dimensional, and not free
    assert Z.dim == 0 and type(Z) is Module
    # multiples_of_rows on the columns as dict rows is the same product
    for target in (free_module(A, []), free_module(A, [0]), free_module(A, [0, 1, 1]), N, Z,
                   direct_sum(free_module(A, [1]), N)):
        for k in (0, 1, 4):
            cols = Mat(F, rng.integers(0, p, (target.dim, k)))
            for which, monomials in (("basis", A.basis), ("variables", variables)):
                got = target.multiples(cols, which)
                s = len(monomials)
                assert got.shape == (target.dim, k * s)
                for j, e in enumerate(monomials):
                    assert np.array_equal(got.a[:, j::s], (oracles.monomial_action(target, e) @ cols).a), (target, which, e)
                rows = multiples_of_rows(target, _dict_rows(cols.a.T), which)
                assert np.array_equal(_dense(rows, target.dim).T, got.a), (target, which)
    # action_rows reads the sparse columns of a matrix over A, in both
    # orientations; matrices over A with no rows or columns and a zero
    # module give empty blocks
    for n in (N, Z):
        for rows, cols in ((2, 3), (0, 3), (2, 0)):
            coeffs = rng.integers(0, p, (A.dim, rows, cols))
            entries = [[A.element(coeffs[:, i, j]) for j in range(cols)] for i in range(rows)]
            got = _action_dense(n, coeffs)
            assert got.shape == (rows * n.dim, cols * n.dim)
            assert np.array_equal(got, oracles.block_action(n, entries, rows, cols)), (n, rows, cols)
            transposed = [[entries[i][j] for i in range(rows)] for j in range(cols)]
            assert np.array_equal(_action_dense(n, coeffs, hom=True),
                                  oracles.block_action(n, transposed, cols, rows)), (n, rows, cols)
    for target in (free_module(A, [0]), N):
        with pytest.raises(InputError, match="no monomial list"):
            target.multiples(Mat.zeros(F, target.dim, 1), "monomials")
        with pytest.raises(InputError, match="coordinates"):
            target.multiples(Mat.zeros(F, target.dim + 1, 1), "basis")


def _action_dense(n, coeffs, hom=False):
    """action_rows of the matrix over A with the coefficient array coeffs,
    handed its sparse columns as a resolution keeps them, written dense."""
    _, rows, cols = coeffs.shape
    columns = _dict_rows(images_of(coeffs, n.field).a.T)
    return _dense(action_rows(n, columns, rows, hom), (rows if hom else cols) * n.dim)


def _dense_free_module(A, rng):
    """A rank-2 free module with its actions conjugated by a random graded
    change of basis, so that they have large entries."""
    F = A.field
    free = free_module(A, [0, 0])
    P = np.zeros((free.dim, free.dim), dtype=np.int64)
    for d in set(free.degrees):
        idx = [j for j, e in enumerate(free.degrees) if e == d]
        P[np.ix_(idx, idx)] = rng.integers(0, F.p, (len(idx), len(idx)))
    P = Mat(F, P)
    P_inv = solve_matrix(P, Mat.identity(F, free.dim))
    assert P_inv is not None
    return Module(A, free.degrees, [P @ X @ P_inv for X in free.actions])


def test_extend_linearly_exact_at_large_prime():
    # residues near 2^31: a raw int64 product of an action and the images overflows
    p = 2**31 - 1
    F = Field(p)
    A = MonomialCI.build(F, [2, 2, 2]).algebra
    rng = np.random.default_rng(7)
    M = _dense_free_module(A, rng)
    images = rng.integers(0, p, (M.dim, 3))
    expected = []
    for g in range(3):
        for e in A.basis:
            v = images[:, g].tolist()
            for X, n in zip(M.actions, e):
                for _ in range(n):
                    v = [row[0] for row in oracles.matmul_mod(X.a.tolist(), [v], p)]
            expected.append(v)
    assert extend_linearly(M, Mat(F, images)).a.T.tolist() == expected


@pytest.mark.parametrize("p", [5, 2**31 - 1])
def test_action_rows_drop_cancelled_sums(p):
    # x and y act alike on N = A/(x - y), so the entry x - y acts as zero:
    # each of its sums cancels, and no row keeps a zero residue, which the
    # echelon pass that takes the rank cannot read
    F = Field(p)
    A = build_algebra(F, 2, [parse_polynomial(r, ["x", "y"], F) for r in ("x^2", "y^2")], varnames=["x", "y"])
    x, y = A.variable(0), A.variable(1)
    N = coker_presentation(A, [[x - y]], [0])
    entries = [[x - y, x]]
    columns = _dict_rows(entry_images(A, entries, 1, 2).a.T)
    for hom in (False, True):
        rows = action_rows(N, columns, 1, hom)
        assert all(all(row.values()) for row in rows)
        got = _dense(rows, (1 if hom else 2) * N.dim)
        expected = oracles.block_action(N, [[e] for e in entries[0]] if hom else entries, *((2, 1) if hom else (1, 2)))
        assert np.array_equal(got, expected) and got.any() and not expected[:N.dim, :N.dim].any()


def test_block_actions_exact_at_large_prime():
    # dense actions and entries with every monomial, each coefficient a small
    # negative: a term is below p^2 < 2^62, and the terms that meet in an
    # entry of a degree-1 or degree-2 block would overflow int64; the sums
    # are exact and reduced mod p
    p = 2**31 - 1
    F = Field(p)
    A = MonomialCI.build(F, [2, 2, 2]).algebra
    rng = np.random.default_rng(3)
    M = _dense_free_module(A, rng)
    coeffs = p - rng.integers(1, 100, (A.dim, 2, 3))
    entries = [[A.element(coeffs[:, i, j]) for j in range(3)] for i in range(2)]
    assert np.array_equal(_action_dense(M, coeffs), oracles.block_action(M, entries, 2, 3))
    transposed = [[entries[i][j] for i in range(2)] for j in range(3)]
    assert np.array_equal(_action_dense(M, coeffs, hom=True), oracles.block_action(M, transposed, 3, 2))
    assert np.array_equal(extend_linearly(free_module(A, [0, 0]), entry_images(A, entries, 2, 3)).a,
                          oracles.block_action(oracles.regular_module(A), entries, 2, 3))
    # a resolution whose differentials have dense linear entries
    form = A.element(np.concatenate([[0], rng.integers(1, p, 3), np.zeros(A.dim - 4, dtype=np.int64)]))
    res = resolve(coker_presentation(A, [[form]], [0]), 3)
    assert max(np.count_nonzero(a.vec) for i in (1, 2, 3) for row in diff_algebra(res, i) for a in row) >= 3
    for i in (1, 2, 3):
        d = diff_algebra(res, i)
        r, c = res.free(i - 1).rank, res.free(i).rank
        tensor = _dense(action_rows(M, res.diff_lifts(i), r), c * M.dim)
        assert np.array_equal(tensor, oracles.block_action(M, d, r, c))
        transposed = [[d[h][g] for h in range(r)] for g in range(c)]
        assert np.array_equal(_hom_differential(res, M, i - 1).a, oracles.block_action(M, transposed, c, r))


@pytest.mark.parametrize("p", [5, 2**31 - 1])
def test_compose_on_generators_matches_realized_product(p):
    # phi o d on generators, read off the generator images of phi and of d,
    # is the realized product on the generator columns; with dense
    # coefficients every basis monomial occurs in d
    F = Field(p)
    A = MonomialCI.build(F, [2, 2, 2]).algebra
    rng = np.random.default_rng(p % 1000)
    src, mid, tgt = free_module(A, [0, 0, 0]), free_module(A, [0, 0]), free_module(A, [0, 1])
    images = Mat(F, rng.integers(0, p, (tgt.dim, mid.rank)))
    phi = extend_linearly(tgt, images)
    gens = src.generator_columns()
    for coeffs in (rng.integers(0, p, (A.dim, mid.rank, src.rank)),
                   np.zeros((A.dim, mid.rank, src.rank), dtype=np.int64)):
        d = extend_linearly(mid, images_of(coeffs, F))
        d_images = Mat(F, d.a[:, gens])
        assert np.array_equal(coefficient_view(d_images, A), coeffs)
        assert images_of(coeffs, F) == d_images
        entries = [[A.element(coeffs[:, r, g]) for g in range(src.rank)] for r in range(mid.rank)]
        assert entry_images(A, entries, mid.rank, src.rank) == d_images
        got = compose_on_generators(tgt, images, d_images)
        assert got.a.tobytes() == (phi @ d).a[:, gens].tobytes()
        # k maps side by side: block j is the result for map j alone
        maps = [images] + [Mat(F, rng.integers(0, p, (tgt.dim, mid.rank))) for _ in range(2)]
        stacked = compose_on_generators(tgt, Mat(F, np.hstack([m.a for m in maps])), d_images)
        assert stacked.shape == (tgt.dim, 3 * src.rank)
        for j, m in enumerate(maps):
            block = stacked.a[:, j * src.rank:(j + 1) * src.rank]
            assert block.tobytes() == compose_on_generators(tgt, m, d_images).a.tobytes(), j
    with pytest.raises(InputError, match="do not compose"):
        compose_on_generators(src, images, d_images)
    with pytest.raises(InputError, match="do not compose"):  # not a multiple of rank F
        compose_on_generators(tgt, Mat(F, rng.integers(0, p, (tgt.dim, 3))), d_images)
    with pytest.raises(InputError, match="do not compose"):  # rows not whole blocks over A
        compose_on_generators(tgt, images, Mat(F, d_images.a[1:]))
    with pytest.raises(InputError, match="not generator images"):
        coefficient_view(Mat(F, d_images.a[1:]), A)


def _unit_row(M, idx):
    row = np.zeros((1, M.dim), dtype=np.int64)
    row[0, idx] = 1
    return Mat(M.field, row)


def test_span_not_closed_under_action_rejected(A):
    # the span of x in A: y*x = xy is nonzero and outside it
    F = free_module(A, [0])
    x = _unit_row(F, A.basis_index[(1, 0)])
    with pytest.raises(InvariantError, match="not an A-submodule"):
        quotient_by_span(F, x)
    with pytest.raises(InvariantError, match="not closed"):
        submodule_from_span(F, x)


def _fresh_algebra(relations=("x^2", "x*y", "y^3")):
    return build_algebra(F5, 2, [parse_polynomial(r, ["x", "y"], F5) for r in relations],
                         varnames=["x", "y"])


# over a monomial ring the structure table sums no output; over this one it sums some
_NOT_MONOMIAL = ("x^2+3*y^2", "x*y")


def test_verification_multiplies_by_no_identity(monkeypatch):
    # the regular module of (x^2 + 3y^2, xy): one product per commutator
    # order (2) and per factor after a term's first (x^2, y^2, xy: 3); no
    # product is by the identity
    operands = []
    matmul = Mat.__matmul__

    def recording(X, Y):
        operands.extend((X, Y))
        return matmul(X, Y)

    B = _fresh_algebra(_NOT_MONOMIAL)
    actions = [B.variable_action(i) for i in range(B.nvars)]
    monkeypatch.setattr(Mat, "__matmul__", recording)
    Module(B, B.basis_degrees, actions)
    assert len(operands) == 2 * 5
    assert Mat.identity(F5, B.dim) not in operands


def test_derived_modules_inherit_axioms(monkeypatch):
    calls = []
    verify = Module._verify
    monkeypatch.setattr(Module, "_verify",
                        lambda self, actions: (calls.append(self.provenance), verify(self, actions)))
    B = _fresh_algebra()
    attributes = set(vars(B))
    F = free_module(B, [0, 1])
    assert calls == ["regular"]
    G = free_module(B, [0])
    assert calls == ["regular"]
    k = residue_field(B)
    assert calls == ["regular", "k"]
    del calls[:]
    shift(k, 2)
    direct_sum(F, k)
    socle = _unit_row(F, B.basis_index[(0, 2)])  # y^2 on the first generator
    quotient_by_span(F, socle)
    submodule_from_span(F, socle)
    extend_linearly(F, entry_images(B, [[B.variable(0)], [B.zero()]], 2, 1))
    assert calls == []
    Module(B, [0], [Mat.zeros(F5, 1, 1)] * 2)
    assert calls == [""]
    # verified once per algebra, also after every module over it is gone
    del F, G, k
    gc.collect()
    free_module(B, [0])
    assert calls == [""]
    assert set(vars(B)) == attributes and not hasattr(B, "_regular_rep_ok")


def test_free_module_keeps_no_regular_module():
    # A's regular representation is kept only as ints: no module over A as
    # a module over itself outlives the free module's build or its products
    for relations in (("x^2", "x*y", "y^3"), _NOT_MONOMIAL):
        B = _fresh_algebra(relations)
        F = free_module(B, [0, 1])
        F.multiples(Mat.identity(F5, F.dim), "basis")
        gc.collect()
        assert not [o for o in gc.get_objects() if isinstance(o, Module) and o.provenance == "regular"]
        assert not [v for v in vars(F).values() if isinstance(v, Module)]
        tables = gmod._STRUCTURE[B].values()
        assert all(type(t.period) is int and type(t.lone) is bool for t in tables), relations
        assert all(type(x) is int for t in tables for triples in t.entries for e in triples for x in e), relations


def test_algebra_keeps_no_dense_array():
    # the variable actions are built for A's regular module, and for the
    # socle, on request; the algebra keeps only vectors, its normal forms
    for relations in (("x^2", "x*y", "y^3"), _NOT_MONOMIAL):
        B = _fresh_algebra(relations)
        free_module(B, [0, 1])
        assert socle_dimension(B) >= 1
        assert all(len(shape) == 1 for _, shape in oracles.held_arrays(B)), relations


@pytest.mark.parametrize("p", [5, 2**31 - 1])
@pytest.mark.parametrize("ring", ["monomial_ci", "gasharov"])
def test_direct_sum_multiplies_through_its_summands(ring, p):
    # a direct sum keeps its summands and no array, and multiplies as the
    # block-diagonal actions of the reference would, a free summand through
    # A's regular representation; a shift shares its module's stacks
    F = Field(p)
    names, relations, _ = _RINGS[ring]
    A = build_algebra(F, len(names), [parse_polynomial(r, names, F) for r in relations], varnames=list(names))
    N = coker_presentation(A, [[A.variable(0), A.variable(1)]], [0])
    free = free_module(A, [0, 1])
    assert shift(N, -2)._stacked("basis") is N._stacked("basis")
    rng = np.random.default_rng(p % 1000)
    for pair in ((free, N), (N, free), (shift(N, -2), free_module(A, [1])), (residue_field(A), N)):
        D, R = direct_sum(*pair), oracles.direct_sum(*pair)
        assert D.degrees == R.degrees and D.actions == R.actions
        cols = Mat(F, rng.integers(0, p, (D.dim, 3)))
        for which in ("basis", "variables"):
            assert D.multiples(cols, which) == R.multiples(cols, which), which
            got, want = D._stacked(which), R._stacked(which)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert oracles.held_arrays(D) == []
        S = shift(D, 3)
        assert S.degrees == tuple(d + 3 for d in R.degrees) and S.actions == R.actions
        assert oracles.held_arrays(S) == [] and all(type(x) is type(y) for x, y in zip(S.summands, pair))
    with pytest.raises(InputError, match="coordinates"):
        D.multiples(Mat.zeros(F, D.dim - 1, 1), "basis")


def test_regular_module_cache_keeps_no_algebra_alive():
    for relations, summed in ((("x^2", "x*y", "y^3"), False), (_NOT_MONOMIAL, True)):
        B = _fresh_algebra(relations)
        assert resolve(residue_field(B), 3).betti_list(3)[0] == 1
        F = free_module(B, [0, 1])
        assert F.multiples(Mat.identity(F5, F.dim), "variables").shape == (F.dim, 2 * F.dim)
        assert _structure_terms(B, "basis").lone != summed
        gone = weakref.ref(B)
        del B, F
        gc.collect()
        assert gone() is None, relations


_UNDER_O = """
import numpy as np
from cxlab.cioper import MonomialCI
from cxlab.errors import InvariantError
from cxlab.exactla import Field, Mat
from cxlab.gmod import Module, free_module, quotient_by_span

print("debug", __debug__)
F = Field(5)
A = MonomialCI.build(F, [2, 2]).algebra
bad = np.zeros((2, 2), dtype=np.int64)
bad[0, 1] = 1
x = np.zeros((1, A.dim), dtype=np.int64)
x[0, A.basis_index[(1, 0)]] = 1
for build in (lambda: Module(A, [0, 1], [Mat(F, bad), Mat.zeros(F, 2, 2)]),
              lambda: quotient_by_span(free_module(A, [0]), Mat(F, x))):
    try:
        build()
        print("accepted")
    except InvariantError as exc:
        print("rejected:", exc)
"""


def test_invariants_hold_under_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.splitlines()
    assert out[0] == "debug False"
    assert out[1].startswith("rejected:") and "violates grading" in out[1]
    assert out[2] == "rejected: span is not an A-submodule"


def _dense_twin(F):
    """The free module F as a verified module with the dense actions
    kron(I_r, X_v) of the regular representation."""
    I = np.eye(F.rank, dtype=np.int64)
    return Module(F.algebra, F.degrees,
                  [Mat(F.field, np.kron(I, X.a)) for X in oracles.regular_module(F.algebra).actions])


def _same_module(a, b):
    return a.degrees == b.degrees and a.actions == b.actions


@pytest.mark.parametrize("gen_degrees", [(), (2,), (0, 1, 3)])
@pytest.mark.parametrize("ring", ["gasharov", "cubes_big_p"])
def test_free_module_matches_dense_twin(ring, gen_degrees, gasharov):
    from cxlab.yoneda import tor_table

    if ring == "gasharov":
        A = gasharov
        N = gasharov_presentation(A)
    else:
        A = MonomialCI.build(Field(2**31 - 1), [2, 2, 2]).algebra
        N = coker_presentation(A, [[A.variable(0), A.variable(1)]], [0])
    p = A.field.p
    F = free_module(A, list(gen_degrees))
    T = _dense_twin(F)
    rng = np.random.default_rng(len(gen_degrees))
    cols = Mat(A.field, rng.integers(0, p, (F.dim, 4)))

    assert F.actions == T.actions
    for which in ("variables", "basis"):
        assert np.array_equal(F._stacked(which), T._stacked(which))
        assert F.multiples(cols, which) == T.multiples(cols, which)
    for mono in A.basis:
        assert oracles.monomial_action(F, mono) == oracles.monomial_action(T, mono)
    for rank in (0, 2):
        images = Mat(A.field, rng.integers(0, p, (F.dim, rank)))
        assert extend_linearly(F, images) == extend_linearly(T, images)

    def gens(m, span=None):
        return [(v.tolist(), d) for v, d in min_generators(m, span)]

    # mF, a graded submodule in reduced echelon form
    mF = Mat(A.field, np.vstack([X.a.T for X in T.actions]))
    span = rref(mF)[0]
    span = Mat(A.field, span.a[: span.rank()])
    assert gens(F) == gens(T) and gens(F, span) == gens(T, span)
    assert _same_module(shift(F, 2), shift(T, 2))
    for pair in ((F, N), (N, F)):
        twin = tuple(T if x is F else x for x in pair)
        assert _same_module(direct_sum(*pair), direct_sum(*twin))
    qF, qT = quotient_by_span(F, mF), quotient_by_span(T, mF)
    assert _same_module(qF.module, qT.module)
    assert qF.projection == qT.projection and qF.lift == qT.lift
    sF, sT = submodule_from_span(F, mF), submodule_from_span(T, mF)
    assert _same_module(sF.module, sT.module) and sF.inclusion == sT.inclusion

    # N has small Betti numbers over both rings (k has not over Gasharov's)
    assert ext_table(N, F, 4) == ext_table(N, T, 4)
    assert tor_table(N, F, 4) == tor_table(N, T, 4)
    res = resolve(N, 4)
    for i in range(1, 4):
        assert _hom_differential(res, F, i) == _hom_differential(res, T, i)
        lifts, rank = res.diff_lifts(i), res.free(i - 1).rank
        assert action_rows(F, lifts, rank) == action_rows(T, lifts, rank)
