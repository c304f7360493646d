"""Acceptance suite: one test per criterion, exact integer checks throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every tolerance is exact equality of integers; windows and
stabilization lengths are fixed here, not tuned at runtime.
"""
import json
import random

import numpy as np

from cxlab.exactla import Field, Mat
from cxlab.gralg import is_gorenstein, parse_polynomial
from cxlab.gmod import direct_sum, free_module, residue_field, shift
from cxlab.resol import estimate_complexity, resolve, syzygy, verify_complex
from cxlab.yoneda import (
    ExtElement,
    ext_table,
    pushout,
    reduction_sequence,
    self_ext_pd_check,
    symmetry_check,
    tor_table,
    window_vanishing_check,
)
from cxlab.cioper import build_kchi, cut_by_chi, eisenbud_operators
from cxlab.cioper import testci_run as run_testci
from cxlab.cxcli import RunOptions, parse_scenario, run

from conftest import GASHAROV_VARS, SCENARIO_DIR
from oracles import (diff_algebra, diff_realized, is_isomorphic, kernel_basis, monomial_ci_structure,
                     naive_betti_sequence)
from test_properties import random_module

F5 = Field(5)


def _gasharov_matrices(algebra):
    pe = lambda s: algebra.nf_polynomial(parse_polynomial(s, GASHAROV_VARS, F5))
    mats = []
    for n in range(13):
        an = pow(2, n, 5)
        mats.append([[pe("x1"), pe(f"{an}*x3+x4")], [pe("0"), pe("x2")]])
    return mats


def test_criterion_1_gasharov_reproduction(gasharov, gasharov_module):
    report = verify_complex(gasharov, _gasharov_matrices(gasharov))
    assert report.d2_ok and report.minimal
    assert report.exact_at == list(range(1, 13))
    betti = resolve(gasharov_module, 12).betti_list(12)
    assert betti == [2] * 13
    est = estimate_complexity(resolve(gasharov_module, 20).betti_list(20))
    assert est.value == 1 and est.stabilized
    assert is_gorenstein(gasharov)
    print("ACCEPTANCE 1 PASS: worked five-variable example reproduced "
          "(complex exact+minimal, betti constant 2, estimate 1, Gorenstein)")


def test_criterion_2_periodicity(gasharov_module):
    M = gasharov_module
    verdict = is_isomorphic(syzygy(M, 4), shift(M, 4), seed=0, attempts=64)
    assert verdict.kind == "yes"
    assert verdict.witness.is_equivariant() and verdict.witness.is_invertible()
    print("ACCEPTANCE 2 PASS: fourth syzygy is the module shifted by four "
          "(twisting unit has order four)")


def test_criterion_3_quadric_suite(quadric, k):
    betti = resolve(k, 12).betti_list(12)
    assert betti == [n + 1 for n in range(13)]
    basis, mult = monomial_ci_structure(5, (2, 2))
    acts = [[[1 if sum(e) == 0 else 0]] for e in basis]
    assert naive_betti_sequence(5, basis, mult, acts, 8) == betti[:9]
    est = estimate_complexity(resolve(k, 20).betti_list(20))
    assert est.value == 2 == quadric.codim and est.stabilized
    assert ext_table(k, k, 12) == [i + 1 for i in range(13)]
    print("ACCEPTANCE 3 PASS: residue-field resolution over the quadric CI "
          "(betti n+1 vs naive oracle, estimate 2, self-Ext dims i+1)")


def test_criterion_4_operator_cuts(quadric, k):
    ops = eisenbud_operators(quadric, k, 10)  # chain identity and commuting
    # actions are asserted during construction; re-check the identity here
    for j in (1, 2):
        for n in range(3, 10):
            lhs = diff_realized(ops.resolution, n - 2) @ ops.chi_realized(j, n)
            rhs = ops.chi_realized(j, n - 1) @ diff_realized(ops.resolution, n)
            assert lhs == rhs
    for n in range(0, 6):
        a12 = ops.ext_action(2, n + 2) @ ops.ext_action(1, n)
        a21 = ops.ext_action(1, n + 2) @ ops.ext_action(2, n)
        assert a12 == a21
    K1 = cut_by_chi(ops, 1).module
    est1 = estimate_complexity(resolve(K1, 20).betti_list(20))
    assert est1.value == 1 and est1.stabilized
    ops1 = eisenbud_operators(quadric, K1, 6)
    K2 = cut_by_chi(ops1, 2).module
    est2 = estimate_complexity(resolve(K2, 20).betti_list(20))
    assert est2.value == 0 and est2.stabilized
    assert resolve(K2, 1).betti(1) == 0
    print("ACCEPTANCE 4 PASS: operator cuts drop the estimate 2 -> 1 -> 0 "
          "with a free double cut")


def test_criterion_5_explicit_test_module(quadric, k):
    K = build_kchi(quadric, 1)
    assert K.dim == 4
    dims = (1, K.dim, quadric.algebra.dim, 1)
    assert dims == (1, 4, 4, 1)
    assert dims[0] - dims[1] + dims[2] - dims[3] == 0
    est = estimate_complexity(resolve(K, 20).betti_list(20))
    assert est.value == 1 and est.stabilized
    table = ext_table(k, K, 12)
    assert all(v != 0 for v in table)
    print("ACCEPTANCE 5 PASS: glued test module has dim 4, four-term "
          "sequence (1,4,4,1), estimate 1, and never-vanishing Ext from k")


def test_criterion_6_testci_contracts(quadric, k, Ax):
    A = quadric.algebra
    F = free_module(A, [0])
    T1, T2 = build_kchi(quadric, 1), build_kchi(quadric, 2)
    for t in (1, 2):
        for tests in ([Ax, T1, T2], [T1], [k]):
            v = run_testci(F, t, 1, 2, tests)
            assert v.kind == "bound_established"
            assert "checked_degrees" in v.params
    v = run_testci(k, 1, 1, 2, [Ax, T1, T2], test_names=["Ax", "T1", "T2"])
    assert v.kind == "inconclusive"
    assert v.witness is not None and v.witness["dim"] > 0
    assert v.params["checked_degrees"] == [2, 3]
    ops = eisenbud_operators(quadric, k, 6)
    K1 = cut_by_chi(ops, 1).module
    ops1 = eisenbud_operators(quadric, K1, 6)
    K2 = cut_by_chi(ops1, 2).module
    for q in (1, 3):
        for n in (2, 4):
            v = run_testci(K2, 1, q, n, [Ax, T1, T2])
            assert v.kind == "bound_established"
            assert v.params["checked_degrees"] == [n, n + q]
    print("ACCEPTANCE 6 PASS: finite-window test verdicts behave as "
          "specified and embed their window parameters")


def test_criterion_7_property_suites(quadric, cubic, k, Ax, gasharov_module):
    rng = random.Random(424242)
    # rank-nullity on 100 random matrices
    for _ in range(100):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 7)
        m = Mat(F5, [[rng.randrange(5) for _ in range(cols)] for _ in range(rows)])
        assert m.rank() + kernel_basis(m).cols == m.cols
    # 100 random modules: d^2 = 0, minimality, syzygy shift, Ext vs betti
    mods = []
    for i in range(100):
        A = quadric.algebra if i % 2 == 0 else cubic.algebra
        mods.append(random_module(rng, A))
    for M in mods:
        res = resolve(M, 5)
        for i in range(1, 5):
            assert (diff_realized(res, i) @ diff_realized(res, i + 1)).is_zero()
            for row in diff_algebra(res, i):
                for a in row:
                    assert a.constant_term() == 0
    for M in mods:
        full = resolve(M, 5).betti_list(5)
        assert resolve(syzygy(M, 1), 4).betti_list(4) == full[1:6]
        assert ext_table(M, residue_field(M.algebra), 4) == full[:5]
    # pushout dimension identity and split isomorphism for the zero class
    for M in mods:
        t = rng.choice([1, 2])
        res = resolve(M, t + 1)
        zero = ExtElement(res, M, t, np.zeros(res.free(t).rank * M.dim, dtype=np.int64), 0)
        P = pushout(zero)
        assert P.module.dim == M.dim + res.free(t - 1).dim - diff_realized(res, t).rank()
        assert is_isomorphic(P.module, direct_sum(M, syzygy(M, t - 1)), seed=5).kind == "yes"
    # Tor symmetry on 100 pairs
    done = 0
    while done < 100:
        m, n = rng.choice(mods), rng.choice(mods)
        if m.algebra is not n.algebra:
            continue
        assert tor_table(m, n, 4) == tor_table(n, m, 4)
        done += 1
    # window vanishing / self-Ext / symmetry on the named fixtures
    seq, _ = reduction_sequence(k, 4, seed=0)
    assert seq is not None
    T1 = build_kchi(quadric, 1)
    F = free_module(quadric.algebra, [0])
    for N in (F, T1, k):
        for tor_flag in (False, True):
            v = window_vanishing_check(k, seq, N, 2, 20, use_tor=tor_flag)
            assert v.kind in ("confirmed", "window_not_vanishing")
    for M in (k, Ax, T1, F, gasharov_module):
        assert self_ext_pd_check(M, 12).ok
    for (m, n) in ((k, T1), (F, k), (gasharov_module, syzygy(gasharov_module, 1))):
        assert symmetry_check(m, n, 16).kind == "co_occurrence"
    print("ACCEPTANCE 7 PASS: property suites green "
          "(100+ seeded cases per randomized family, fixture checks exact)")


def test_criterion_8_determinism():
    for name in ("gasharov.cx", "quadric_ci.cx"):
        text = (SCENARIO_DIR / name).read_text()
        first = run(parse_scenario(text), RunOptions(max_degree=20, seed=0)).to_json()
        second = run(parse_scenario(text), RunOptions(max_degree=20, seed=0)).to_json()
        assert first == second, f"{name} not byte-identical"
        payload = json.loads(first)
        assert payload["ok"] is True
    print("ACCEPTANCE 8 PASS: shipped scenarios rerun byte-identically")
