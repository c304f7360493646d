from functools import reduce

import numpy as np
import pytest

from cxlab import cioper
from cxlab.errors import InputError, InvariantError
from cxlab.exactla import Field, Mat
from cxlab.gralg import AlgebraElement, build_algebra, parse_polynomial
from cxlab.gmod import coker_presentation, free_module, residue_field
from cxlab.resol import estimate_complexity, resolve
from cxlab.yoneda import _side_by_side, ext_table, pushout
import oracles
from oracles import is_isomorphic
from conftest import gasharov_algebra, gasharov_presentation
from cxlab.cioper import (
    MonomialCI,
    build_kchi,
    chi_self_extension,
    cut_by_chi,
    eisenbud_operators,
    vartest_check,
)
from cxlab.cioper import testci_run as run_testci

F5 = Field(5)


def _est(module, window=20):
    return estimate_complexity(resolve(module, window).betti_list(window))


def test_monomial_ci_build_and_detect(quadric):
    assert quadric.algebra.dim == 4
    assert quadric.codim == 2
    again = MonomialCI.from_algebra(quadric.algebra)
    assert again.exponents == (2, 2)
    with pytest.raises(InputError):
        MonomialCI.build(F5, [1, 2])
    B = build_algebra(F5, 2, [parse_polynomial(s, ["x", "y"], F5) for s in ["x^2", "x*y", "y^2"]],
                      varnames=["x", "y"])
    with pytest.raises(InputError):
        MonomialCI.from_algebra(B)


def test_operators_c1_periodicity(cubic):
    # the single operator realizes the periodicity isomorphism on Ext
    k3 = residue_field(cubic.algebra)
    ops = eisenbud_operators(cubic, k3, 8)
    assert ops.resolution.betti_list(8) == [1] * 9
    for n in range(0, 6):
        act = ops.ext_action(1, n)
        assert act.shape == (1, 1) and not act.is_zero()


def _generated_in_degrees(ops, bound):
    """True when the operators map Ext^n(M, k) onto Ext^{n+2}(M, k) for
    every bound - 1 <= n <= max_degree - 2."""
    dims = ops.resolution.betti_list(ops.max_degree)
    return all(reduce(Mat.hstack, [ops.ext_action(j, n) for j in range(1, ops.ci.codim + 1)]).rank()
               == dims[n + 2] for n in range(bound - 1, ops.max_degree - 1))


def test_operators_quadric_ext_structure(quadric, k):
    ops = eisenbud_operators(quadric, k, 12)  # chain identity asserted inside
    assert ops.resolution.betti_list(12) == [n + 1 for n in range(13)]
    # the operator pair does not generate from degrees <= 1 (the degree-two
    # slot needs an extra generator) but does from degrees <= 2
    assert not _generated_in_degrees(ops, 1)
    assert _generated_in_degrees(ops, 2)


@pytest.mark.parametrize("p", [2, 3, 5, 65521, 2**31 - 1])
@pytest.mark.parametrize("exps", [(2,), (3,), (2, 2), (2, 3), (3, 3), (4, 2), (2, 2, 2), (3, 2, 2)])
def test_operators_match_polynomial_reference(p, exps):
    # the coefficient-array operators equal the polynomial computation they
    # replace: realized chi, the Ext actions and the cut modules
    ci = MonomialCI.build(Field(p), exps)
    A = ci.algebra
    linear = A.variable(0)
    for i in range(1, ci.codim):
        linear = linear + A.variable(i)
    modules = [residue_field(A), build_kchi(ci, 1), free_module(A, [0]),
               coker_presentation(A, [[linear]], [0])]
    top = 6 if ci.codim == 3 else 8
    for M in modules:
        ops = eisenbud_operators(ci, M, top)
        res = ops.resolution
        ref = oracles.eisenbud_chi(ci, res, top)
        for j in range(1, ci.codim + 1):
            for n in range(2, top + 1):
                assert ops.chi_realized(j, n) == ref[(j, n)], (M, j, n)
                if n >= 4:
                    # the constant coefficients: generator rows of the generator columns
                    ref_ext = ref[(j, n)].a[:: A.dim, :: A.dim].T
                    assert ops.ext_action(j, n - 2) == Mat(ci.field, ref_ext), (M, j, n)
            res.extend(3)
            eta = oracles.ext_from_realized(res, M, 2, oracles.diff_realized(res, 0) @ ref[(j, 2)], -exps[j - 1])
            want, got = pushout(eta).module, cut_by_chi(ops, j).module
            assert (got.degrees, got.actions) == (want.degrees, want.actions), (M, j)


def test_operators_build_no_algebra_elements(quadric, monkeypatch):
    # the operators are computed on the terms of the kept lifts, never entry
    # by entry
    built = []
    init = AlgebraElement.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(AlgebraElement, "__init__", counting_init)
    ops = eisenbud_operators(quadric, residue_field(quadric.algebra), 12)
    assert ops.ext_action(2, 10).shape == (ops.resolution.betti(12), 11) == (13, 11)
    assert built == []


def test_operator_build_makes_each_ext_action_once(monkeypatch):
    # the commutation check reads each Ext action it compares once: at codim
    # 4 and degree 12, the 44 maps at n = 0..10 (216 calls when each pair of
    # operators built its own)
    ci = MonomialCI.build(F5, [2, 2, 2, 2])
    calls = []
    ext_action = cioper.EisenbudOperatorSet.ext_action

    def counting(self, j, n):
        calls.append((j, n))
        return ext_action(self, j, n)

    monkeypatch.setattr(cioper.EisenbudOperatorSet, "ext_action", counting)
    eisenbud_operators(ci, residue_field(ci.algebra), 12)
    assert len(calls) == len(set(calls)) == 44


def test_operator_checks_raise(quadric, monkeypatch):
    A = quadric.algebra
    x, y = ([{A.basis_index[e]: 1}] for e in [(1, 0), (0, 1)])
    # residue: the square x*y of these 1x1 "differentials" is outside (x^2, y^2)
    with pytest.raises(InvariantError, match="outside the relation ideal"):
        cioper._chi_images(quadric, x, y, 1)
    # chain identity: a unit added to chi_1 at degree 3 breaks d o chi = chi o d
    build = cioper._chi_images

    def broken(ci, prev, cur, rank):
        chi = build(ci, prev, cur, rank)
        if len(cur) == 4:  # n = 3, where F_3 of k has rank 4
            # the constant coefficient of entry (0, 0): key 0 of column 0
            chi[0][0][0] = (chi[0][0].get(0, 0) + 1) % ci.field.p
        return chi

    monkeypatch.setattr(cioper, "_chi_images", broken)
    with pytest.raises(InvariantError, match="chain identity fails for operator 1 at degree 3"):
        eisenbud_operators(quadric, residue_field(A), 6)
    monkeypatch.undo()
    # Ext commutation: actions that do not commute are refused
    rng = np.random.default_rng(0)
    dims = resolve(residue_field(A), 8).betti_list(8)
    monkeypatch.setattr(cioper.EisenbudOperatorSet, "ext_action",
                        lambda self, j, n: Mat(F5, rng.integers(0, 5, (dims[n + 2], dims[n]))))
    with pytest.raises(InvariantError, match="do not commute"):
        eisenbud_operators(quadric, residue_field(A), 6)


def test_ext_dims_eventually_polynomial(quadric, cubic):
    # over a codim-c monomial CI the parity tails of dim Ext^n(k, k) are
    # polynomials of degree c - 1: order-c differences vanish
    for ci in (quadric, cubic):
        kk = residue_field(ci.algebra)
        dims = resolve(kk, 14).betti_list(14)
        c = ci.codim
        for par in (0, 1):
            sub = np.array(dims[par::2], dtype=np.int64)
            diffs = np.diff(sub, n=c)
            assert not diffs[-3:].any()


def test_chi_classes_independent(quadric, k):
    ops = eisenbud_operators(quadric, k, 6)
    e1 = chi_self_extension(ops, 1)
    e2 = chi_self_extension(ops, 2)
    assert not oracles.is_zero_class(e1) and not oracles.is_zero_class(e2)
    assert Mat(F5, np.vstack([e1.rep, e2.rep])).rank() == 2
    assert e1.shift == -2 and e2.shift == -2
    # a class's vector and its generator images are one layout, read both
    # ways: side by side and back again, one class or both
    reps = np.vstack([e1.rep, e2.rep])
    images = _side_by_side(reps, ops.resolution.free(2).rank, k)
    assert np.array_equal(oracles.vectors_of(images, 2), reps)
    assert np.array_equal(oracles.vectors_of(e1.on_generators(), 1), reps[:1])


def test_chi_class_zero_iff_finite_pd(cubic):
    kk = residue_field(cubic.algebra)
    ops = eisenbud_operators(cubic, kk, 6)
    assert not oracles.is_zero_class(chi_self_extension(ops, 1))
    F = free_module(cubic.algebra, [0])
    ops_free = eisenbud_operators(cubic, F, 6)
    assert oracles.is_zero_class(chi_self_extension(ops_free, 1))


def test_cut_by_chi_chain(quadric, k):
    ops = eisenbud_operators(quadric, k, 6)
    K1 = cut_by_chi(ops, 1).module
    assert _est(K1).value == 1 and _est(K1).stabilized
    ops1 = eisenbud_operators(quadric, K1, 6)
    K2 = cut_by_chi(ops1, 2).module
    est2 = _est(K2)
    assert est2.value == 0
    assert resolve(K2, 2).betti(1) == 0
    # cutting twice with the same operator gives no further drop
    K_same = cut_by_chi(ops1, 1).module
    est_same = _est(K_same)
    assert est_same.stabilized and est_same.value == 1


def test_complexities_add(quadric, k, cubic):
    # cx_{A(x)B}(M (x) N) = cx_A M + cx_B N (L. L. Avramov, "Infinite free
    # resolutions", 1998), each estimate stabilized
    def est(M, window):
        e = _est(M, window)
        assert e.stabilized
        return e.value

    kz = residue_field(cubic.algebra)
    AB = oracles.tensor_algebra(quadric.algebra, cubic.algebra)
    kk = oracles.tensor_module(k, kz, AB)
    assert est(kk, 14) == est(k, 14) + est(kz, 14) == 3
    kchi = build_kchi(quadric, 1)
    assert est(oracles.tensor_module(kchi, kz, AB), 12) == est(kchi, 12) + 1 == 2
    # a ring that is not a complete intersection
    G = gasharov_algebra(F5)
    gasharov = gasharov_presentation(G)
    GZ = oracles.tensor_algebra(G, cubic.algebra)
    assert est(oracles.tensor_module(gasharov, kz, GZ), 12) == est(gasharov, 12) + 1 == 2
    # an operator cut in codimension 3 drops the sum by one
    ops = eisenbud_operators(MonomialCI.from_algebra(AB), kk, 6)
    assert est(cut_by_chi(ops, 1).module, 12) == 2


def test_build_kchi_quadric(quadric, k):
    K = build_kchi(quadric, 1)
    assert K.dim == 4
    est = _est(K)
    assert est.value == 1 and est.stabilized
    # alternating dimension sum of the four-term sequence
    assert 1 - K.dim + quadric.algebra.dim - 1 == 0
    # nonvanishing against the residue field in every degree (cx k = 2 > 1)
    assert all(v != 0 for v in ext_table(k, K, 12))
    with pytest.raises(InputError):
        build_kchi(quadric, 3)


def test_build_kchi_matches_pushout_cut():
    # the pushout cut of k along chi_j against the module glued by hand
    for p in (2, 5, 2 ** 31 - 1):
        for exponents in ((2, 2), (2, 3), (4, 2), (2, 2, 2), (3, 2, 2)):
            ci = MonomialCI.build(Field(p), exponents)
            for j in range(1, ci.codim + 1):
                K_cut, K_glued = build_kchi(ci, j), oracles.glued_kchi(ci, j)
                assert sorted(K_cut.degrees) == sorted(K_glued.degrees), (p, exponents, j)
                assert is_isomorphic(K_cut, K_glued, seed=0).kind == "yes", (p, exponents, j)


def test_build_kchi_larger_ci():
    ci = MonomialCI.build(F5, [3, 2], varnames=["x", "y"])
    K = build_kchi(ci, 1)
    assert K.dim == ci.algebra.dim == 6
    assert _est(K, 16).value == 1


def test_support_dimension(quadric, k):
    # dim V(M) is the complexity estimate of the Betti window
    assert _est(free_module(quadric.algebra, [0])).value == 0
    assert _est(k).value == 2
    assert _est(build_kchi(quadric, 1)).value == 1


def test_vartest_check(quadric, k):
    T1, T2 = build_kchi(quadric, 1), build_kchi(quadric, 2)
    F = free_module(quadric.algebra, [0])
    assert vartest_check(F, [T1], 1).kind == "bound_established"
    v = vartest_check(k, [T1, T2], 1)
    assert v.kind == "inconclusive"
    # a once-cut module is perpendicular to the complementary cut
    ops = eisenbud_operators(quadric, k, 6)
    K1 = cut_by_chi(ops, 1).module
    v = vartest_check(K1, [T1, T2], 1, max_degree=20)
    assert v.kind == "bound_established"
    # a tail of 6 degrees ending at 3 would read degrees -2..0, wrapped
    assert vartest_check(K1, [T1], 1, max_degree=6).params["tail_window"] == [1, 6]
    with pytest.raises(InputError, match="shorter than the tail"):
        vartest_check(K1, [T1], 1, max_degree=3)


def test_testci_harness(quadric, k, Ax):
    T1, T2 = build_kchi(quadric, 1), build_kchi(quadric, 2)
    F = free_module(quadric.algebra, [0])
    for t in (1, 2):
        assert run_testci(F, t, 1, 2, [Ax, T1, T2]).kind == "bound_established"
    v = run_testci(k, 1, 1, 2, [Ax, T1, T2], test_names=["Ax", "T1", "T2"])
    assert v.kind == "inconclusive" and v.witness["test"] == "Ax"
    ops = eisenbud_operators(quadric, k, 6)
    K1 = cut_by_chi(ops, 1).module
    ops1 = eisenbud_operators(quadric, K1, 6)
    K2 = cut_by_chi(ops1, 2).module
    for (q, n) in [(1, 2), (3, 4)]:
        v = run_testci(K2, 1, q, n, [Ax, T1, T2])
        assert v.kind == "bound_established"
        assert v.params["checked_degrees"] == [n, n + q]
    with pytest.raises(InputError):
        run_testci(k, 1, 2, 2, [T1])  # even q
    with pytest.raises(InputError):
        run_testci(k, 1, 1, 3, [T1])  # odd n
    with pytest.raises(InputError):
        run_testci(k, 3, 1, 2, [T1])  # t > codim
