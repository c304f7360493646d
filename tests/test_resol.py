import hashlib
import random
import sys
from collections import Counter

import numpy as np
import pytest

from cxlab.cioper import MonomialCI
from cxlab.errors import InputError, InvariantError
from cxlab.exactla import Field, Mat
from cxlab.gralg import AlgebraElement, build_algebra, parse_polynomial
from cxlab import resol
from cxlab.gmod import (FreeModule, Module, coker_presentation, direct_sum, free_module, multiples_of_rows,
                        residue_field, shift)
from cxlab.resol import estimate_complexity, resolve, syzygy, verify_complex
from conftest import GASHAROV_VARS, gasharov_algebra, gasharov_presentation
import oracles
from oracles import (
    ModuleMap,
    assert_matches_eager,
    diff_algebra,
    monomial_ci_structure,
    naive_betti_sequence,
    quadric_ci_betti_closed_form,
    solve_matrix,
)

F5 = Field(5)


def test_resolve_free_module(A):
    res = resolve(free_module(A, [0, 2, 5]), 6)
    assert res.betti_list(6) == [3, 0, 0, 0, 0, 0, 0]


def test_resolve_k_quadric(k):
    betti = resolve(k, 12).betti_list(12)
    assert betti == [n + 1 for n in range(13)]
    assert betti == [quadric_ci_betti_closed_form(n) for n in range(13)]


def test_resolve_builds_no_algebra_elements(monkeypatch):
    # each differential is kept once, as its matrix over A in field coordinates
    A = MonomialCI.build(F5, [2, 2, 2]).algebra
    M = coker_presentation(A, [[A.variable(0), A.variable(1)]], [0])
    built = []
    init = AlgebraElement.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(AlgebraElement, "__init__", counting_init)
    assert resolve(residue_field(A), 12).betti_list(12)[12] == 91
    resolve(M, 8)
    assert built == []
    assert len(diff_algebra(resolve(M, 8), 2)) == resolve(M, 8).betti(1)
    assert built


def _count_kron(monkeypatch):
    """Record the caller of every np.kron call from now on."""
    kron = np.kron
    callers = []

    def counting_kron(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return kron(*args)

    monkeypatch.setattr(np, "kron", counting_kron)
    return callers


def test_resolve_builds_no_dense_free_module_action(monkeypatch):
    # free modules act through the structure constants of A: neither the
    # resolution nor a free module's actions, read on request, build a kron
    A = MonomialCI.build(F5, [2, 2, 2]).algebra
    k = residue_field(A)
    callers = _count_kron(monkeypatch)
    assert resolve(k, 9).betti_list(9) == [1, 3, 6, 10, 15, 21, 28, 36, 45, 55]
    F = resolve(k, 9).free(1)
    assert len(F.actions) == A.nvars and all(X.shape == (F.dim, F.dim) for X in F.actions)
    assert callers == []


def test_products_over_A_make_no_kron_call(monkeypatch):
    # Hom and tensor differentials, cocycles, chain lifts, operator checks,
    # realized matrices over A, the pushouts of a search and a scenario run
    # all multiply through Module.multiples or one product by a module's
    # stacked actions, never through kron terms
    from cxlab.cioper import eisenbud_operators
    from cxlab.cxcli import RunOptions, parse_scenario, run
    from cxlab.yoneda import cocycle_basis, ext_table, find_reducing_element, tor_table
    from conftest import SCENARIO_DIR

    ci = MonomialCI.build(F5, [2, 2, 2])
    k = residue_field(ci.algebra)
    G = gasharov_algebra(F5)
    M = gasharov_presentation(G)
    res = resolve(M, 3)
    matrices = [diff_algebra(res, i) for i in (1, 2, 3)]
    scenario = parse_scenario((SCENARIO_DIR / "quadric_ci.cx").read_text())
    callers = _count_kron(monkeypatch)
    kG = residue_field(G)
    assert ext_table(M, kG, 4) == tor_table(M, kG, 4) == res.betti_list(4)
    assert len(cocycle_basis(M, M, 2)) == ext_table(M, M, 2)[2] > 0
    ops = eisenbud_operators(ci, k, 8)
    assert all(ops.chi_realized(j, n).shape == (ops.resolution.free(n - 2).dim, ops.resolution.free(n).dim)
               for j in (1, 2, 3) for n in range(2, 9))
    assert verify_complex(G, matrices).ok
    assert find_reducing_element(M, 8, seed=0, budget=3)[0].degree == 4
    assert run(scenario, RunOptions()).ok
    assert callers == []


def test_resolve_eliminates_blocks_in_batches(monkeypatch, gasharov):
    # a step eliminates sparse rows only: no dense matrix is read into rows.
    # Every pass of the shared reduction loop and every back substitution
    # works on a nearly empty matrix: it holds at most 2(rows + cols)
    # nonzeros, and its row operations touch at most a sixteenth of its
    # cells plus 64 entries; cols is the number of distinct columns its rows
    # hold, which only makes both bounds tighter.  Over the monomial CI a
    # step makes no row operation at all: a generator's row of W is empty
    # when it is reached; over Gasharov's ring the steps do make some
    from cxlab import exactla

    A = MonomialCI.build(F5, [2, 2, 2]).algebra
    M = gasharov_presentation(gasharov)  # a new module, resolved from step 0
    touched, passes, scans = [], [], []
    subtract, dict_rows = exactla._subtract, exactla._dict_rows

    def counting(row, f, other, p):
        touched.append(len(other))
        subtract(row, f, other, p)

    def recording(real, read):
        def wrapped(rows, *args):
            rows = list(rows) if read is list else rows
            touched.clear()
            matrix = list(read(rows))
            nonzeros, cols = sum(map(len, matrix)), len({j for row in matrix for j in row})
            out = real(rows, *args)
            passes.append((nonzeros, len(matrix) + cols, sum(touched), len(matrix) * cols))
            return out
        return wrapped

    loop = recording(exactla._reduce_in_order, list)
    back = recording(exactla._back_substitute, dict.values)
    monkeypatch.setattr(exactla, "_subtract", counting)
    for module in (exactla, resol):
        monkeypatch.setattr(module, "_reduce_in_order", loop)
        monkeypatch.setattr(module, "_back_substitute", back)
    monkeypatch.setattr(exactla, "_dict_rows", lambda a: scans.append(a.shape) or dict_rows(a))
    assert resolve(residue_field(A), 9).betti_list(9) == [1, 3, 6, 10, 15, 21, 28, 36, 45, 55]
    assert passes and not any(work for _, _, work, _ in passes)
    assert resolve(M, 8).betti_list(8) == [2] * 9
    assert scans == []
    assert any(work for _, _, work, _ in passes)
    assert all(nonzeros <= 2 * sides and work <= cells // 16 + 64 for nonzeros, sides, work, cells in passes)


@pytest.mark.parametrize("p", [5, 2**31 - 1])
@pytest.mark.parametrize("pair", ["four_variables", "gasharov"])
def test_kunneth_betti_numbers_convolve(p, pair):
    # the Betti window beta_0..beta_7 of M (x) N over A (x) B
    if pair == "four_variables":
        A = MonomialCI.build(Field(p), [2, 2], varnames=["x", "y"]).algebra
        B = MonomialCI.build(Field(p), [2, 3], varnames=["z", "w"]).algebra
        M, N = residue_field(A), residue_field(B)
    else:
        # not over a complete intersection
        M = gasharov_presentation(gasharov_algebra(Field(p)))
        N = residue_field(MonomialCI.build(Field(p), [3], varnames=["z"]).algebra)
    MN = oracles.tensor_module(M, N, oracles.tensor_algebra(M.algebra, N.algebra))
    expected = oracles.convolve(resolve(M, 7).betti_list(7), resolve(N, 7).betti_list(7))
    assert resolve(MN, 7).betti_list(7) == expected


def test_resolve_k_against_naive_kernel_iteration(A, k):
    basis, mult = monomial_ci_structure(5, (2, 2))
    acts = [[[1 if sum(e) == 0 else 0]] for e in basis]
    naive = naive_betti_sequence(5, basis, mult, acts, 8)
    assert resolve(k, 8).betti_list(8) == naive


def test_resolve_gasharov(gasharov_module):
    assert resolve(gasharov_module, 12).betti_list(12) == [2] * 13


def test_syzygy_basics(A, k):
    assert syzygy(k, 0) is k
    F = free_module(A, [0])
    assert syzygy(F, 1).dim == 0
    om1 = syzygy(k, 1)
    assert om1.dim == 3
    assert om1.hilbert() == {1: 2, 2: 1}


def test_syzygy_betti_shift(k, Ax, gasharov_module):
    for M in (k, Ax, gasharov_module):
        res = resolve(M, 9)
        full = res.betti_list(9)
        for i in (1, 2, 3):
            om = syzygy(M, i)
            fresh = resolve(om, 9 - i).betti_list(9 - i)
            assert fresh == full[i : 9 + 1], (M.provenance, i)


def test_resolution_minimality_and_d2(k, Ax, gasharov_module):
    for M in (k, Ax, gasharov_module):
        res = resolve(M, 8)
        for i in range(1, 8):
            d_i = res.diff_realized(i)
            d_next = res.diff_realized(i + 1)
            assert (d_i @ d_next).is_zero()
            for row in diff_algebra(res, i):
                for a in row:
                    assert a.constant_term() == 0
            # exactness bookkeeping: rank d_i + rank d_{i+1} = dim F_i
            assert d_i.rank() + d_next.rank() == res.free(i).dim


def test_resolution_deterministic(A):
    M1 = coker_presentation(A, [[A.variable(0), A.variable(1)]], [0])
    M2 = coker_presentation(A, [[A.variable(0), A.variable(1)]], [0])
    r1, r2 = resolve(M1, 6), resolve(M2, 6)
    assert r1.betti_list(6) == r2.betti_list(6)
    for i in range(1, 7):
        assert r1.diff_realized(i) == r2.diff_realized(i)


def test_resolution_extension_preserves_prefix(A):
    M = coker_presentation(A, [[A.variable(0)]], [0])
    res = resolve(M, 4)
    before = [res.diff_realized(i) for i in range(1, 5)]
    resolve(M, 9)
    after = [res.diff_realized(i) for i in range(1, 5)]
    assert before == after


def test_estimate_complexity_cases():
    assert estimate_complexity([1] + [0] * 11).value == 0
    assert estimate_complexity([1] + [0] * 11).stabilized
    est = estimate_complexity([2] * 12)
    assert est.value == 1 and est.stabilized
    est = estimate_complexity(list(range(1, 14)))
    assert est.value == 2 and est.stabilized
    with pytest.raises(InputError, match="too short"):
        estimate_complexity([1, 2, 3], s=4)
    # a Betti number after a zero contradicts finite projective dimension
    with pytest.raises(InvariantError, match="Betti numbers revive after a zero"):
        estimate_complexity([1, 2, 0, 3] + [0] * 8)


def test_estimate_not_stabilized_for_exponential_growth():
    # radical-square-zero in two variables: Betti numbers double every step
    B = build_algebra(
        F5, 2, [parse_polynomial(s, ["x", "y"], F5) for s in ["x^2", "x*y", "y^2"]],
        varnames=["x", "y"],
    )
    betti = resolve(residue_field(B), 7).betti_list(7)
    assert betti == [2**n for n in range(8)]
    est = estimate_complexity(betti, s=3)
    assert not est.stabilized


def test_estimate_zero_means_tail_zero(A, Ax):
    # value 0 on a long window forces literal vanishing beyond the start
    M = coker_presentation(A, [[A.variable(0), A.variable(1)]], [0])
    # k itself never vanishes; use a free module and the double-cut fixture path
    F = free_module(A, [2])
    est = estimate_complexity(resolve(F, 12).betti_list(12))
    assert est.value == 0
    assert all(b == 0 for b in resolve(F, 12).betti_list(12)[1:])


def test_verify_complex_gasharov(gasharov):
    pe = lambda s: gasharov.nf_polynomial(parse_polynomial(s, GASHAROV_VARS, F5))
    mats = []
    for n in range(13):
        an = pow(2, n, 5)
        mats.append([[pe("x1"), pe(f"{an}*x3+x4")], [pe("0"), pe("x2")]])
    report = verify_complex(gasharov, mats)
    assert report.ok
    assert report.d2_ok and report.minimal
    assert report.exact_at == list(range(1, 13))


def test_verify_complex_failures(A):
    x, y = A.variable(0), A.variable(1)
    zero = A.zero()
    # d o d != 0
    bad = verify_complex(A, [[[x, zero], [zero, y]], [[y, zero], [zero, y]]])
    assert not bad.d2_ok
    assert any(f["kind"] == "d2_nonzero" for f in bad.failures)
    # unit entry
    unit = verify_complex(A, [[[A.one()]]])
    assert not unit.minimal
    assert any(f["kind"] == "unit_entry" for f in unit.failures)
    # non-exact spot: the kernel of multiplication by xy is the whole maximal
    # ideal, but its image is only the socle
    xy = x * y
    partial = verify_complex(A, [[[xy]], [[xy]]])
    assert partial.d2_ok
    assert partial.exact_at == []
    assert any(f["kind"] == "not_exact" for f in partial.failures)


def test_verify_complex_exact_pair(A):
    x = A.variable(0)
    y = A.variable(1)
    xy = x * y
    rep = verify_complex(A, [[[xy]], [[x, y]]])
    assert rep.d2_ok and rep.minimal
    assert rep.exact_at == [1]


@pytest.mark.parametrize("name", ["k", "Ax", "gasharov_module"])
def test_resolution_matches_eager_reference(request, name):
    assert_matches_eager(request.getfixturevalue(name), 8)


@pytest.mark.parametrize("case", ["free", "zero", "zero-coker"])
def test_zero_spans_give_zero_steps(monkeypatch, A, case):
    # once nothing is left to cover, a step appends the zero free module,
    # the zero map and an empty span without eliminating; the resolution is
    # still the eager one
    module = {"free": lambda: free_module(A, [0, 2, 5]), "zero": lambda: free_module(A, []),
              "zero-coker": lambda: coker_presentation(A, [[A.one()]], [0])}[case]()
    calls, cover = [], resol._cover
    monkeypatch.setattr(resol, "_cover", lambda *args: (calls.append(args), cover(*args))[1])
    res = resolve(module, 6)
    assert res.betti_list(6) == ([3] if case == "free" else [0]) + [0] * 6
    assert len(calls) == (1 if case == "free" else 0)  # step 0 of the free module only
    monkeypatch.undo()
    assert_matches_eager(module, 6)


def test_resolution_matches_eager_reference_large_prime():
    A = MonomialCI.build(Field(2**31 - 1), [2, 2, 2]).algebra
    assert_matches_eager(residue_field(A), 6)


# (relations over x, y, z, presentation matrix and its row degrees, or None
# for k, last step, primes where the ring is Artinian, whether some step
# has generators in several degrees)
_EAGER_CASES = {
    "coker-x-y2": (["x^3", "y^3", "z^3"], ([["x", "y^2"]], [0]), 10, [2, 5, 2**31 - 1], True),
    "coker-x0-yz": (["x^2", "y^2", "z^2"], ([["x", "0"], ["y", "z"]], [0, 0]), 8, [2, 5, 2**31 - 1], True),
    "k-quartics": (["x^4+y^4", "y^4+z^4", "x*y*z^2+z^4"], None, 3, [5, 2**31 - 1], True),
    "k-quadrics": (["y^2+z^2", "x^2+x*y+z^2", "x*z+z^2"], None, 6, [2, 2**31 - 1], False),
}


@pytest.mark.parametrize("name,p", [(name, p) for name, case in _EAGER_CASES.items() for p in case[3]])
def test_steps_match_eager_reference(name, p):
    # a step chooses its generators inside its one elimination, degree by
    # degree; the eager reference chooses them by eliminating mN, the span's
    # products with the variables, and covers an explicit syzygy module.
    # Both agree on steps whose generators lie in several degrees and over
    # rings that are not monomial
    relations, presentation, n, _, several = _EAGER_CASES[name]
    names = ["x", "y", "z"]
    B = build_algebra(Field(p), 3, [parse_polynomial(r, names, Field(p)) for r in relations], varnames=names)
    if presentation is None:
        M = residue_field(B)
    else:
        rows, degrees = presentation
        M = coker_presentation(B, [[B.nf_polynomial(parse_polynomial(e, names, B.field)) for e in row] for row in rows],
                               degrees)
    assert_matches_eager(M, n)
    assert any(len(set(F.gen_degrees)) > 1 for F in resolve(M, n).frees) == several


def test_step_multiplies_by_the_basis_once_per_degree(monkeypatch, gasharov):
    # a step forms no product of its span with the variables and reads no
    # second kernel: one multiples_of_rows by the basis per degree of its
    # generators, no _sparse_kernel, and one echelon pass without back
    # substitution, which counts the rank of Z_i for the exactness check
    from cxlab import exactla, gmod

    B = MonomialCI.build(F5, [3, 3, 3]).algebra
    modules = [residue_field(MonomialCI.build(F5, [2, 2, 2]).algebra), gasharov_presentation(gasharov),
               coker_presentation(B, [[B.variable(0), B.variable(1) * B.variable(1)]], [0])]
    lists, kernels, ranks = [], [], []
    products, kernel, echelon = gmod.multiples_of_rows, exactla._sparse_kernel, exactla._sparse_rref
    for module in (gmod, resol):
        monkeypatch.setattr(module, "multiples_of_rows", lambda m, rows, which: lists.append(which) or products(m, rows, which))
    for module in (exactla, resol):
        monkeypatch.setattr(module, "_sparse_kernel", lambda *args: kernels.append(args) or kernel(*args))
    monkeypatch.setattr(resol, "_sparse_rref",
                        lambda rows, p, reduced=True: ranks.append(reduced) or echelon(rows, p, reduced))
    for M in modules:
        resolve(M, 7)
    assert kernels == []
    assert lists == ["basis"] * sum(len(set(F.gen_degrees)) for M in modules for F in resolve(M, 7).frees)
    assert ranks == [False] * sum(F.rank > 0 for M in modules for F in resolve(M, 7).frees)


def test_syzygy_modules_built_on_request(A):
    M = residue_field(A)
    res = resolve(M, 3)
    S = res.syzygy_module(4)
    assert res.computed_to == 3
    assert res.syzygy_module(4) is S
    assert syzygy(M, 2) is res.syzygy_module(2)
    for i in range(1, 5):
        F, inc = res.free(i - 1), res.syzygy_inclusion(i)
        assert ModuleMap(res.syzygy_module(i), F, inc).is_equivariant()
        d_prev = res.diff_realized(i - 1)
        assert inc.rank() == F.dim - d_prev.rank()
    assert res.computed_to == 3


def _held_arrays(res):
    """(attribute, shape) of every array the resolution holds, outside its
    module, its free modules and its syzygy cache."""
    return oracles.held_arrays(res, skip=("module", "frees", "_syz"))


def _dense_rows(rows, n):
    """The int64 array whose rows are the dicts {column: residue} rows."""
    out = np.zeros((len(rows), n), dtype=np.int64)
    for i, row in enumerate(rows):
        out[i, list(row)] = list(row.values())
    return out


@pytest.mark.parametrize("name", ["k", "Ax", "gasharov"])
def test_resolution_keeps_maps_over_A(A, gasharov, name):
    # each d_i is kept as the images of the generators of F_i, sparse: one
    # dict {row: residue} per generator, the lifts its step built; the span
    # no step has covered keeps its rows, and the last step its realized
    # columns, which the next step checks d o d = 0 against, both as sparse
    # rows.  The dense generator images and a realized d_i are written on
    # request and never kept, also not by a solve through d_i
    M = {"k": lambda: residue_field(A), "Ax": lambda: coker_presentation(A, [[A.variable(0)]], [0]),
         "gasharov": lambda: gasharov_presentation(gasharov)}[name]()
    n = 6
    res = resolve(M, n)
    dims = [M.dim] + [res.free(i).dim for i in range(n + 1)]  # dims[i + 1] = dim F_i
    ranks = [M.dim] + [res.diff_realized(i).rank() for i in range(1, n + 1)]
    # the only arrays it holds: the pivot columns of the spans, 1-D; of Z_n
    # only its rank, an int
    pivots = [("_pivots", (len(q),)) for q in res._pivots]
    assert sorted(_held_arrays(res)) == sorted(pivots)
    assert type(res._rank) is int and res._rank == ranks[n]
    assert all(type(row) is dict for row in res._span + res._columns)
    for i in range(n + 1):
        lifts = res._lifts[i]
        assert type(lifts) is list and len(lifts) == res.free(i).rank and all(type(u) is dict for u in lifts)
        images = res.diff_images(i)
        assert images.shape == (dims[i], res.free(i).rank) and np.array_equal(_dense_rows(lifts, dims[i]).T, images.a)
        # each call writes the images anew, equal, and keeps nothing
        assert res.diff_images(i) == images and sorted(_held_arrays(res)) == sorted(pivots)
    span = Mat(M.field, _dense_rows(res._span, dims[n + 1]))
    assert span.rows == dims[n + 1] - ranks[n] and span.transpose() == res.syzygy_inclusion(n + 1)
    assert np.array_equal(_dense_rows(res._columns, dims[n]).T, res.diff_realized(n).a)
    res.solve(2, res.diff_realized(2))
    # the solve keeps (Q, E) of Z_2, whose rows are those of ker d_1, and no
    # dim F_1 x dim F_2 array: E is the one 2-D array a resolution holds
    r = dims[2] - ranks[1]
    assert sorted(_held_arrays(res)) == sorted(pivots + [("_solvers", (r,)), ("_solvers", (r, r))])


@pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
def test_covered_spans_are_rederived(p):
    # a syzygy requested while step i has not yet covered its span equals
    # the one requested after the resolution went past step i + 1, which
    # re-derives the span from d_{i-1}; both equal the eager oracle
    relations, n = ["x^2", "y^2", "z^3", "x*y"], 5
    res = resolve(_residue_field_over(p, relations), 0)
    early = []
    for i in range(1, n + 1):
        assert res.computed_to == i - 1
        early.append((res.syzygy_module(i), res.syzygy_inclusion(i)))
        res.extend(i)
    late = resolve(_residue_field_over(p, relations), n + 2)
    for i, (S, inc) in enumerate(early, 1):
        assert late.syzygy_module(i).degrees == S.degrees, i
        assert late.syzygy_module(i).actions == S.actions, i
        assert late.syzygy_inclusion(i).a.tobytes() == inc.a.tobytes(), i
    assert_matches_eager(late.module, n)


def test_step_zero_checks_augmentation_onto(k, monkeypatch):
    # a cover that misses one generator of M leaves F_0 -> M not onto
    monkeypatch.setattr(resol, "_cover", _covering(lambda gens: gens[:-1], Module))
    with pytest.raises(InvariantError, match="augmentation F_0 -> M is not onto"):
        resolve(direct_sum(k, shift(k, 1)), 0)


def _covering(change, targets=FreeModule):
    """resol._cover with change applied to the generators it returns,
    (lift, degree) pairs with lifts as dicts {column: residue}, when it
    covers a span of a module of type targets: by default a free module,
    at the steps i >= 1.  The realized columns of d_i it returns are those
    of the changed generators, so the step checks a cover that chose them."""
    cover = resol._cover

    def changed(target, span, pivots):
        gens, columns, *rest = cover(target, span, pivots)
        if isinstance(target, targets):
            gens = change(gens)
            columns = multiples_of_rows(target, [u for u, _ in gens], "basis")
        return (gens, columns, *rest)
    return changed


def test_step_checks_minimality(A, monkeypatch):
    # a lift with a unit added at generator row 0 of F_0 is no longer in m F_0
    def with_unit(gens):
        vec = gens[0][0].copy()
        vec[0] = 1
        return [(vec, gens[0][1])] + gens[1:]

    monkeypatch.setattr(resol, "_cover", _covering(with_unit))
    with pytest.raises(InvariantError, match="differential entry has a unit component"):
        resolve(residue_field(A), 1)  # a new module, so its resolution starts empty


def test_step_checks_exactness(A, monkeypatch):
    # without its last generator, the image of d_1 misses part of ker d_0 =
    # m: the rank of Z_1 counts one generator fewer
    monkeypatch.setattr(resol, "_cover", _covering(lambda gens: gens[:-1]))
    with pytest.raises(InvariantError, match="image of d_1 does not fill ker d_0"):
        resolve(residue_field(A), 1)


def test_step_checks_exactness_against_its_own_elimination(monkeypatch):
    # a fault inside the step's elimination: W, Z_1 without its generator
    # columns, gains an entry that no realized column holds, in the row of
    # y^2, the generator of degree 2 of ker d_0 = (x, y^2).  The entry sits
    # in a column of W that is zero, so the row no longer reduces to zero
    # and becomes a pivot: y^2 is lost while the generators and W's pivots
    # still number the span's rows.  The rank of Z_1, read off the realized
    # columns of the generators that are left, finds the loss
    names = ["x", "y", "z"]
    B = build_algebra(F5, 3, [parse_polynomial(r, names, F5) for r in ("x^3", "y^3", "z^3")], varnames=names)
    res = resolve(coker_presentation(B, [[B.variable(0), B.variable(1) * B.variable(1)]], [0]), 0)
    target, span, pivots = res.frees[0], res._span, res._pivots[1].tolist()
    gens, columns, _, _ = resol._cover(target, span, pivots)
    (low, d_low), (high, d_high) = [(next(q for q, row in enumerate(span) if row is u), d) for u, d in gens]
    assert d_low < d_high
    dA, degrees = B.dim, sorted({target.degrees[c] for c in pivots})
    # a product of the degree-1 generator with no entry at a pivot row
    m = next(m for m in range(1, dA) if not set(columns[m]) & set(pivots))
    label = len(span) * dA - 1 - (low * dA + m)  # its column of W
    position = [q for q, c in enumerate(pivots) if target.degrees[c] == d_high].index(high)
    calls, reduce = [], resol._reduce_in_order

    def faulty(rows, echelon, p):
        calls.append(len(rows))
        if len(calls) == degrees.index(d_high) + 1:
            rows[position][label] = 1
            zero = reduce(rows, echelon, p)
            assert position not in zero
            return zero
        return reduce(rows, echelon, p)

    monkeypatch.setattr(resol, "_reduce_in_order", faulty)
    with pytest.raises(InvariantError, match="image of d_1 does not fill ker d_0"):
        res.extend(1)


@pytest.mark.parametrize("case", ["pivot not 1", "entry before the pivot", "entry at a pivot",
                                  "pivots out of order", "inhomogeneous"])
def test_step_checks_span(A, case):
    # the span a step covers must be in reduced echelon form, each row
    # homogeneous: the step reads its generators and its processing order
    # off the pivots and their degrees
    res = resol.MinimalFreeResolution(residue_field(A))
    res.extend(1)
    span, pivots = res._span, res._pivots[2].tolist()
    row = next(q for q, r in enumerate(span) if len(r) > 1)
    c = pivots[row]
    if case == "pivot not 1":
        span[row][c] = 2
    elif case == "entry before the pivot":
        span[row][next(j for j in range(c) if j not in pivots)] = 1
    elif case == "entry at a pivot":
        span[row][pivots[-1] if pivots[-1] != c else pivots[0]] = 1
    elif case == "pivots out of order":
        res._pivots[2] = res._pivots[2][::-1]
        res._span = span[::-1]
    else:
        # a column after the pivot, of another degree, at no pivot
        F = res.free(1)
        span[row][next(j for j in range(c + 1, F.dim) if j not in pivots and F.degrees[j] != F.degrees[c])] = 1
    match = "not homogeneous" if case == "inhomogeneous" else "span is not in reduced echelon form"
    with pytest.raises(InvariantError, match=match):
        res.extend(2)


def test_step_checks_image_in_span(A):
    # the span ker d_0 = m cut down to its first row, a variable: that row
    # spans no A-submodule, and the A-linear map onto it leaves it (the
    # other variable times it is xy); d_0 kills the map, and the rank check,
    # which reads no span, finds that its image does not fill ker d_0
    res = resol.MinimalFreeResolution(residue_field(A))
    res.extend(0)
    assert A.basis_degrees[int(res._pivots[1][0])] == 1
    res._span = res._span[:1]
    res._pivots[1] = res._pivots[1][:1]
    with pytest.raises(InvariantError, match="image of d_1 does not fill ker d_0"):
        res.extend(1)


def _residue_field_over(p, relations):
    names = ["x", "y", "z"]
    B = build_algebra(Field(p), 3, [parse_polynomial(r, names, Field(p)) for r in relations], varnames=names)
    return residue_field(B)


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2**31 - 1])
@pytest.mark.parametrize("relations", [["x^2", "y^2", "z^2"], ["x^2", "y^2", "z^3", "x*y"]],
                         ids=["x2y2z2", "x2y2z3xy"])
def test_solve_matches_solve_matrix(p, relations):
    # the factored solve gives the particular solution of solve_matrix,
    # byte for byte, on images of random columns and on d_i's own columns
    res = resolve(_residue_field_over(p, relations), 7)
    rng = np.random.default_rng(p % 1000)
    for i in range(8):
        d = res.diff_realized(i)
        X = Mat(d.field, rng.integers(0, p, (d.cols, 3)))
        B = (d @ X).hstack(Mat(d.field, d.a[:, :: max(1, d.cols // 5)]))
        got = res.solve(i, B)
        assert got.a.tobytes() == solve_matrix(d, B).a.tobytes(), (p, i)
        assert d @ got == B


def test_solve_rejects_rhs_outside_image(k):
    res = resolve(k, 3)
    # generator 0 of F_1 is not a cycle (d_1 maps it to a variable), so it
    # lies outside the image of d_2
    d2 = res.diff_realized(2)
    outside = Mat(d2.field, np.eye(d2.rows, dtype=np.int64)[:, :1])
    assert solve_matrix(d2, outside) is None
    with pytest.raises(InvariantError, match="outside the image of d_2"):
        res.solve(2, outside)
    with pytest.raises(InputError, match="rows"):
        res.solve(1, outside)


def test_step_checks_d2_on_generator_columns(A, monkeypatch):
    # the lift of generator 0 of F_2 corrupted at one row: a unit added at
    # a row of F_1 that d_1 does not kill makes d_1 o d_2 nonzero on that
    # generator
    res = resolve(residue_field(A), 1)  # a new module, so its resolution stops at 1
    d1 = res.diff_realized(1)
    row = next(r for r in range(d1.cols) if r % A.dim and d1.a[:, r].any())

    def corrupt(gens):
        vec = gens[0][0].copy()
        vec[row] = (vec.get(row, 0) + 1) % A.field.p
        return [(vec, gens[0][1])] + gens[1:]

    monkeypatch.setattr(resol, "_cover", _covering(corrupt))
    with pytest.raises(InvariantError, match="d_1 o d_2 != 0"):
        res.extend(2)


def _linear_cokernel(A, rows, cols, seed):
    """Cokernel of a rows x cols matrix of linear forms with coefficients
    drawn from random.Random(seed), generators in degree 0."""
    rng = random.Random(seed)

    def form():
        vec = np.zeros(A.dim, dtype=np.int64)
        for v in range(A.nvars):
            vec[A.basis_index[tuple(int(j == v) for j in range(A.nvars))]] = rng.randrange(A.field.p)
        return A.element(vec)

    return coker_presentation(A, [[form() for _ in range(cols)] for _ in range(rows)], [0] * rows)


# SHA-1 of the int64 bytes of d_1, d_2, ...: "k" and the linear cokernel over
# F_5[x1..x4]/(x1^2, .., x4^2), recorded with one rank-1 update of every row
# at each pivot; M = coker [[a+b, c^2], [a-b, ab+3c^2]] over the dim-64 ring
# (a^4+b^4, b^4+c^4, abc^2+c^4), which is not monomial, at p = 5 and
# 2^31 - 1, recorded with its denser matrices on the rank-1 updates and the
# rest on sparse rows.  The reduced echelon form of a row space is unique, so
# no way of eliminating may change them
_PINNED_DIFFERENTIALS = {
    "k": (7, [1, 4, 10, 20, 35, 56, 84, 120], [
        "5d25776099318d3162769331370b4b7e1c1ab42d", "ac25d29559ae68bfe325580e35191c53a93adad1",
        "d4e907b4213111aef248114d08f1ba21b84b1716", "e302af24ea1472045d7d913e3c058bfe4b1db67c",
        "a29924fceb560af84892b285c83f7bf130ab796e", "e87e4866843d5a27849e50106d74f4ae611b01b2",
        "92585fa4795d007e61a0f903bc4ebaa5217fed05"]),
    "linear-cokernel-2x3-seed1": (5, [2, 3, 10, 30, 63, 112], [
        "eeab990a89ebbf119bba73d7df55e9a5513c2102", "b00e3b1f621e71ffbe3d102b0197647cc4cf5093",
        "9edeb007d78fce3eab49417bdda2b2fe6dac65e1", "8b028959fb4a6a4dfab7381a0f3eb898318ebe0e",
        "00e67fe6f50525af0a4606d491750f10d1aa57e9"]),
    "nonmonomial-5": (5, [2, 2, 4, 10, 18, 28], [
        "6f5c9abc4257cd6a70bc43403f559ed486cc19ec", "043611c535483b113ec3d1f2b237ed24d42d7930",
        "d06d59433da04ecd19da0d786f56ae7312323f55", "6c67653ff69daa2e21000c59e4b7c6ab6228aba1",
        "62212be0d62f3c91bbd15cf02cc02ff910c2bc89"]),
    "nonmonomial-2147483647": (5, [2, 2, 4, 10, 18, 28], [
        "1e9409e89975e809f5d525927fa60c90ea655545", "077eb6bd567f21031b7def29205b062579b9ba08",
        "d78ee23446b187985da2e4be18521134bab5c407", "41b08665dc23a6e9bc910cd9fc9a66d9e8d1bcca",
        "0c72293a31c481d4c3b6c47899ed9f3a0fa10332"]),
}


def _pinned_module(name):
    if name.startswith("nonmonomial-"):
        F, names = Field(int(name.split("-")[1])), ["a", "b", "c"]
        poly = lambda text: parse_polynomial(text, names, F)
        B = build_algebra(F, 3, [poly(r) for r in ("a^4+b^4", "b^4+c^4", "a*b*c^2+c^4")], names)
        e = lambda text: B.nf_polynomial(poly(text))
        return coker_presentation(B, [[e("a+b"), e("c^2")], [e("a-b"), e("a*b+3*c^2")]], [0, 0])
    A = MonomialCI.build(F5, [2, 2, 2, 2]).algebra
    return residue_field(A) if name == "k" else _linear_cokernel(A, 2, 3, seed=1)


@pytest.mark.parametrize("name", sorted(_PINNED_DIFFERENTIALS))
def test_differentials_are_pinned(name):
    M = _pinned_module(name)
    n, betti, shas = _PINNED_DIFFERENTIALS[name]
    res = resolve(M, n)
    assert res.betti_list(n) == betti
    assert [hashlib.sha1(res.diff_realized(i).a.tobytes()).hexdigest() for i in range(1, n + 1)] == shas


# SHA-1 of each realized d_1..d_12 of k over F_5[x1..x4]/(x1^2, .., x4^2)
# as its shape, the flat indices of its nonzero entries and their values,
# int64 bytes one after the other, recorded on the dense path, which
# realized each d_i whole (d_12 is 5824 x 7280; the resolution took 1.15 GB
# there)
_PINNED_AT_DEPTH = [
    "02a7b58548e56ac80c6038b02f0988c5b815b2f3", "98da346c9480fe3c2107c0269c4e5d5a9388629a",
    "5a737f30233c2a1a2c79bfcc57b2823386a1fc04", "c4b604217abe829428fd3ffed6747fa7599ba81a",
    "de92349b3ef3b8c20425199d0eca8da5bf43c3b9", "f87e58d954d05bb9533ad8b75370c97384dab296",
    "fddc6bc1e6ad9ebf4939c6d53952ea1ebfe564ae", "3154b500c479b1a79133cad8f3459b5ee3c17e39",
    "96fcc40431be0cd77adafcd7ccc218a22d082b37", "64f82ae4a4a9e994503190e80c0716d92b4d3b64",
    "6634479999aed1f893647d370514fa2cd75d9744", "c08ce6058aea4aca2a5e3c21873247a8fad89903",
]


def test_differentials_are_pinned_at_depth():
    # the nonzero entries of each realized d_i are read off its generator
    # images by monomial products alone, so no whole d_i is built: over a
    # monomial algebra x^m x^b is one basis monomial x^a or 0, and entry
    # (h, b) of generator image g gives entry ((h, a), (g, m)) of d_i.  The
    # resolution goes on to step 16, Tate's form at p = 5 (see below)
    A = MonomialCI.build(F5, [2, 2, 2, 2]).algebra
    res, dA = resolve(residue_field(A), 16), A.dim
    assert res.betti_list(16) == oracles.tate_betti(4, 4, 16)
    # x^m x^b = x^a, a = -1 where the product vanishes
    prod = np.array([[A.basis_index.get(tuple(map(sum, zip(x, y))), -1) for y in A.basis] for x in A.basis])
    shas = []
    for i in range(1, 13):
        images = res.diff_images(i).a
        shape = (images.shape[0], images.shape[1] * dA)
        r, g = images.nonzero()
        h, b = np.divmod(r, dA)
        m, k = np.nonzero(prod[:, b] >= 0)  # entry k times x^m
        flat = (h[k] * dA + prod[m, b[k]]) * shape[1] + g[k] * dA + m
        order = flat.argsort()
        values = images[r, g][k][order]
        shas.append(hashlib.sha1(np.array(shape, dtype=np.int64).tobytes() + flat[order].astype(np.int64).tobytes()
                                 + values.astype(np.int64).tobytes()).hexdigest())
    assert shas == _PINNED_AT_DEPTH


@pytest.mark.parametrize("p, v, n", [(2, 4, 20), (2**31 - 1, 4, 20), (2, 5, 12), (5, 5, 8), (2**31 - 1, 5, 12)])
def test_betti_numbers_of_k_over_monomial_ci_follow_tate(p, v, n):
    # k over F_p[x_1..x_v]/(x_1^2, .., x_v^2), a complete intersection of
    # codimension v, at depth: beta_n = C(n + v - 1, v - 1), 1771 at step 20
    # for v = 4 and 1820 at step 12 for v = 5; at p = 5 and v = 4 the pin at
    # depth above checks it
    A = MonomialCI.build(Field(p), [2] * v).algebra
    assert resolve(residue_field(A), n).betti_list(n) == oracles.tate_betti(v, v, n)


@pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
def test_betti_numbers_of_k_over_non_monomial_ci_follow_tate(p):
    # (x^2 + y^2, xy) is a complete intersection over every F_p, and not
    # monomial: beta_n = n + 1
    F, names = Field(p), ["x", "y"]
    B = build_algebra(F, 2, [parse_polynomial(r, names, F) for r in ("x^2+y^2", "x*y")], varnames=names)
    assert resolve(residue_field(B), 14).betti_list(14) == oracles.tate_betti(2, 2, 14) == list(range(1, 16))
