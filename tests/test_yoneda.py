import gc
import random
import weakref

import numpy as np
import pytest

import oracles
from cxlab import yoneda
from cxlab.errors import InputError, InvariantError
from cxlab.exactla import Field, Mat
from cxlab.gmod import (
    Module,
    direct_sum,
    free_module,
    residue_field,
    shift,
)
from cxlab.gralg import build_algebra, parse_polynomial
from cxlab.resol import estimate_complexity, resolve, syzygy
from cxlab.yoneda import (
    ExtElement,
    _lift_stack,
    cocycle_basis,
    ext_table,
    find_reducing_element,
    pushout,
    reduction_sequence,
    self_ext_pd_check,
    symmetry_check,
    tor_table,
    window_vanishing_check,
)
from conftest import gasharov_algebra, gasharov_presentation, one_class_screen, stacked_lift
from oracles import hom_space, is_isomorphic, yoneda_power

F5 = Field(5)
P31 = Field(2**31 - 1)


def test_ext_table_free(A, k):
    F = free_module(A, [0, 1])
    table = ext_table(F, k, 6)
    assert table[0] == len(hom_space(F, k))
    assert all(v == 0 for v in table[1:])


def test_ext_table_k_equals_betti(k):
    table = ext_table(k, k, 10)
    assert table == [i + 1 for i in range(11)]
    assert table == resolve(k, 10).betti_list(10)


def test_ext_table_gasharov(gasharov, gasharov_module):
    kG = residue_field(gasharov)
    assert ext_table(gasharov_module, kG, 10) == [2] * 11


def test_tor_tables(A, k, Ax):
    F = free_module(A, [0])
    assert tor_table(k, F, 6)[1:] == [0] * 6
    assert tor_table(k, k, 8) == [i + 1 for i in range(9)]
    rng = random.Random(3)
    pairs = [(k, Ax), (Ax, k), (k, syzygy(k, 1)), (Ax, syzygy(Ax, 2))]
    for m, n in pairs:
        assert tor_table(m, n, 6) == tor_table(n, m, 6)


def test_tor_table_builds_each_tensor_differential_once(monkeypatch, A):
    # a fresh k: the session's k already holds the ranks of earlier tables
    k = residue_field(A)
    built = []
    tensor_differential = yoneda._tensor_differential

    def counting(res, n, i):
        built.append(i)
        return tensor_differential(res, n, i)

    monkeypatch.setattr(yoneda, "_tensor_differential", counting)
    assert tor_table(k, k, 12) == [i + 1 for i in range(13)]
    assert tor_table(k, k, 5) == [i + 1 for i in range(6)]
    assert built == list(range(1, 14))


def test_ext_table_builds_each_hom_differential_once(monkeypatch, quadric, k):
    # the ranks are kept per resolution and target: a longer table extends
    # the prefix, a shorter one reads it
    from cxlab.cioper import build_kchi

    built = []
    hom_differential = yoneda._hom_differential

    def counting(res, n, i):
        built.append(i)
        return hom_differential(res, n, i)

    monkeypatch.setattr(yoneda, "_hom_differential", counting)
    T1 = build_kchi(quadric, 1)
    tables = {d: ext_table(k, T1, d) for d in (10, 12, 3)}
    assert built == list(range(13))
    for d, table in tables.items():
        assert table == ext_table(k, Module(T1.algebra, T1.degrees, T1.actions), d)
    # the entry goes with its target module
    by_target = yoneda._RANKS[resolve(k, 0)]
    gc.collect()
    held = len(by_target)
    assert T1 in by_target
    collected = weakref.ref(T1)
    del T1
    gc.collect()
    assert collected() is None and len(by_target) == held - 1


def test_cocycle_basis_counts(A, k):
    F = free_module(A, [0])
    assert cocycle_basis(F, k, 1) == []
    assert len(cocycle_basis(k, k, 2)) == 3
    for t in (1, 2, 3):
        assert len(cocycle_basis(k, k, t)) == ext_table(k, k, t)[t]


def test_cocycle_count_checked(k, monkeypatch):
    # a kernel rank off by one implies one class fewer than the
    # representatives found, and the count check refuses them
    kernel_rref = yoneda.kernel_rref

    def off_by_one(m):
        rank, K, pivots = kernel_rref(m)
        return rank + 1, K, pivots

    monkeypatch.setattr(yoneda, "kernel_rref", off_by_one)
    with pytest.raises(InvariantError, match="cocycle count 2 != ext dimension 1"):
        cocycle_basis(k, k, 1)


def test_cocycle_basis_builds_each_hom_differential_once(monkeypatch, gasharov_module):
    # the class count comes from the delta_5 and delta_6 it already holds;
    # an ExtElement checks its cocycle on generators and builds none
    built = []
    hom_differential = yoneda._hom_differential

    def counting(res, n, i):
        built.append(i)
        return hom_differential(res, n, i)

    monkeypatch.setattr(yoneda, "_hom_differential", counting)
    basis = cocycle_basis(gasharov_module, gasharov_module, 6)
    assert basis and sorted(built) == [5, 6]


@pytest.mark.parametrize("t", [1, 2, 3])
def test_cocycle_check_agrees_with_hom_differential(gasharov_module, k, t):
    # ExtElement checks rep o d_{t+1} = 0 on generator images, as one sum
    # over the monomials of d_{t+1} whose terms cancel on the Gasharov ring;
    # it must accept exactly the vectors that delta^t sends to zero
    for M in (gasharov_module, k):
        res = resolve(M, t + 1)
        delta = yoneda._hom_differential(res, M, t)
        cocycles = [eta.rep for eta in cocycle_basis(M, M, t)]
        rng = np.random.default_rng(t)
        for trial in range(6):
            rep = sum((int(rng.integers(5)) * c for c in cocycles), np.zeros(delta.cols, dtype=np.int64))
            if trial % 2:
                rep = rep + np.eye(delta.cols, dtype=np.int64)[int(rng.integers(delta.cols))]
            if (delta @ Mat(M.field, rep.reshape(-1, 1))).is_zero():
                ExtElement(res, M, t, rep, 0)
            else:
                with pytest.raises(InvariantError, match="not a cocycle"):
                    ExtElement(res, M, t, rep, 0)


def test_non_cocycle_rep_raises(gasharov_module):
    res = resolve(gasharov_module, 3)
    delta = yoneda._hom_differential(res, gasharov_module, 2)
    j = int(np.flatnonzero(delta.a.any(axis=0))[0])  # a coordinate delta^2 does not kill
    rep = np.zeros(delta.cols, dtype=np.int64)
    rep[j] = 1
    with pytest.raises(InvariantError, match="not a cocycle"):
        ExtElement(res, gasharov_module, 2, rep, 0)
    with pytest.raises(InputError, match="cocycle vector"):
        ExtElement(res, gasharov_module, 2, rep[1:], 0)


def test_cocycle_representatives_are_homogeneous(k):
    for eta in cocycle_basis(k, k, 2):
        mm = eta.realized()
        rr, cc = np.nonzero(mm.a)
        F = eta.resolution.free(2)
        shifts = {k.degrees[r] - F.degrees[c] for r, c in zip(rr, cc)}
        assert shifts <= {eta.shift}


@pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
def test_reduce_mod_rows_clears_pivots_one_row_at_a_time(p):
    # v - v[pivots]·R, one exact product, against clearing each pivot
    # column of v with its row of R in turn
    from cxlab.exactla import rref

    F = Field(p)
    rng = np.random.default_rng(p % 101)
    echelon = rref(Mat(F, rng.integers(0, p, (5, 12)) * (rng.random((5, 12)) < 0.6)))
    R, pivots, _ = echelon
    V = rng.integers(0, p, (7, 12))
    for v in list(V) + [V]:
        expected = np.atleast_2d(v).copy()
        for row in expected:
            for r, pc in enumerate(pivots):
                row[:] = (row - int(row[pc]) * R.a[r]) % p
        assert yoneda._reduce_mod_rows(v, echelon).tolist() == expected.reshape(v.shape).tolist()


def test_yoneda_power_degree_bookkeeping(k):
    eta = cocycle_basis(k, k, 1)[0]
    for s in (1, 2, 3):
        pw = yoneda_power(eta, s)
        assert pw.degree == s * eta.degree
        assert pw.shift == s * eta.shift
    assert yoneda_power(eta, 1) is eta


def test_yoneda_power_nilpotent_and_split(A, k):
    # a strictly triangular class on k + k(1) squares to zero
    M = direct_sum(k, shift(k, 1))
    nil = None
    for eta in cocycle_basis(M, M, 1):
        sq = yoneda_power(eta, 2)
        if oracles.is_zero_class(sq) and not oracles.is_zero_class(eta):
            nil = sq
            break
    assert nil is not None
    P = pushout(nil)
    target = direct_sum(shift(M, -nil.shift), syzygy(M, nil.degree - 1))
    assert is_isomorphic(P.module, target, seed=1).kind == "yes"


def test_pushout_split_case(k):
    res = resolve(k, 3)
    zero = ExtElement(res, k, 2, np.zeros(res.free(2).rank * k.dim, dtype=np.int64), 0)
    P = pushout(zero)
    target = direct_sum(k, syzygy(k, 1))
    assert P.module.dim == target.dim
    assert is_isomorphic(P.module, target, seed=0).kind == "yes"


def test_pushout_dimension_identity(k, Ax):
    for (m, n, t) in [(k, k, 1), (k, k, 2), (Ax, Ax, 1), (k, Ax, 2)]:
        basis = cocycle_basis(m, n, t)
        for eta in basis[:2]:
            P = pushout(eta)
            res = resolve(m, t)
            omega_t = res.diff_realized(t).rank()
            assert P.module.dim == n.dim + res.free(t - 1).dim - omega_t


def test_pushout_refuses_a_non_cocycle(F5):
    # a unit vector of Hom(F_t, A), t = 1, 2, whose composite with d_{t+1}
    # is nonzero, set on a copy of a valid class (bypassing ExtElement's
    # check): N does not embed in the pushout, and pushout refuses it
    import copy

    from cxlab.cioper import MonomialCI
    from cxlab.gmod import compose_on_generators
    from cxlab.yoneda import _hom_shifts

    B = MonomialCI.build(F5, [2, 3], varnames=["x", "y"]).algebra
    kB, N = residue_field(B), free_module(B, [0])
    refused = 0
    for t in (1, 2):
        res = resolve(kB, t + 1)
        valid = ExtElement(res, N, t, np.zeros(res.free(t).rank * N.dim, dtype=np.int64), 0)
        shifts = _hom_shifts(res, N, t)
        for i in range(valid.rep.size):
            eta = copy.copy(valid)
            eta.rep = np.zeros_like(valid.rep)
            eta.rep[i] = 1
            eta.shift = int(shifts[i])
            images = compose_on_generators(N, eta.on_generators(), res.diff_images(t + 1))
            if images.is_zero():
                continue
            with pytest.raises(InvariantError, match="N does not embed"):
                pushout(eta)
            refused += 1
    assert refused == 23


def test_pushout_independent_of_representative(k, Ax):
    # against A/(x) the Hom differentials are nonzero, so coboundaries exist
    from cxlab.yoneda import _hom_differential, _hom_shifts

    basis = cocycle_basis(k, Ax, 2)
    res = resolve(k, 3)
    delta_prev = _hom_differential(res, Ax, 1)
    in_shifts = _hom_shifts(res, Ax, 1)
    checked = 0
    for eta in basis:
        cols = np.nonzero(in_shifts == eta.shift)[0]
        cob = None
        for c in cols:
            cand = delta_prev.a[:, c]
            if cand.any():
                cob = cand
                break
        if cob is None:
            continue
        other = ExtElement(res, Ax, 2, (eta.rep + cob) % 5, eta.shift)
        assert is_isomorphic(pushout(eta).module, pushout(other).module, seed=2).kind == "yes"
        checked += 1
    assert checked > 0


def test_pushout_long_exact_sequence_subadditivity(quadric, k):
    # from ... -> Ext^{i+t-1}(M,N) -> Ext^i(K,N) -> Ext^i(M,N) -> ...
    from cxlab.cioper import build_kchi, chi_self_extension, eisenbud_operators

    ops = eisenbud_operators(quadric, k, 8)
    eta = chi_self_extension(ops, 1)
    K = pushout(eta).module
    t = eta.degree
    for N in (k, build_kchi(quadric, 2)):
        upper = ext_table(k, N, 12 + t)
        middle = ext_table(K, N, 12)
        for i in range(1, 13):
            assert middle[i] <= upper[i] + upper[i + t - 1], (i, N.provenance)


def test_pushout_power_complexity_monotone(quadric, k):
    from cxlab.cioper import chi_self_extension, eisenbud_operators

    ops = eisenbud_operators(quadric, k, 8)
    eta = chi_self_extension(ops, 1)
    est1 = estimate_complexity(resolve(pushout(eta).module, 14).betti_list(14))
    eta2 = yoneda_power(eta, 2)
    est2 = estimate_complexity(resolve(pushout(eta2).module, 14).betti_list(14))
    assert est2.value <= est1.value


def test_lift_chain_map_resolves_only_what_it_reads(A):
    M = residue_field(A)  # a new module, so its resolution starts empty
    eta = cocycle_basis(M, M, 2)[0]
    assert eta.resolution.computed_to == 3
    _lift_stack(eta.resolution, 2, eta.on_generators(), 3)  # theta_3: F_5 -> F_3 reads d_5 and F_5
    assert eta.resolution.computed_to == 5


def _assert_screen_matches_pushouts(m, degrees, window):
    """The Tor-sequence Betti numbers of each basis class's pushout equal
    those of the resolved pushout; returns the number of classes checked."""
    checked = 0
    for t in degrees:
        for eta in cocycle_basis(m, m, t):
            assert one_class_screen(eta, window) == oracles.pushout_betti(eta, window), (t, eta.shift)
            checked += 1
    return checked


def test_pushout_betti_matches_resolved_pushout_gasharov(gasharov_module):
    assert _assert_screen_matches_pushouts(gasharov_module, range(1, 6), 8) == 45


@pytest.mark.parametrize("field, relations, varnames, top_t, window", [
    (F5, ["x^2", "y^2", "z^3"], ["x", "y", "z"], 3, 8),
    (P31, ["x^2", "y^2", "z^2"], ["x", "y", "z"], 2, 8),
    (P31, ["x^2", "y^3"], ["x", "y"], 3, 8),
    (Field(3), ["x^2", "y^2", "x*y"], ["x", "y"], 2, 6),  # not a complete intersection
    (Field(2), ["x^2", "y^2"], ["x", "y"], 3, 8),
], ids=["F5-x2y2z3", "P31-x2y2z2", "P31-x2y3", "F3-x2y2xy", "F2-x2y2"])
def test_pushout_betti_matches_resolved_pushout_residue_fields(field, relations, varnames, top_t, window):
    B = build_algebra(field, len(varnames), [parse_polynomial(r, varnames, field) for r in relations],
                      varnames=varnames)
    assert _assert_screen_matches_pushouts(residue_field(B), range(1, top_t + 1), window) > 0


def _reference_screen(eta, window, thetas):
    """The screen's formula on realized reference lifts, the constant
    coefficients read off their generator rows and generator columns."""
    res, t, dA = eta.resolution, eta.degree, eta.target.algebra.dim
    ranks = [0] + [Mat(eta.target.field, th.a[::dA, ::dA]).rank() for th in thetas]
    betti = res.betti_list(t + window - 1)
    return [betti[n] + betti[n + t - 1] - ranks[n + 1] - ranks[n] for n in range(window + 1)]


def _lift_case(p, case):
    """A module, the degrees of its classes to lift and a window."""
    field = Field(p)
    if case == "gasharov" and p == 2:
        # over F_2 the relation 2 x1 x3 + x2 x3 loses a term: another ring,
        # where the module's Betti numbers grow exponentially (2, 2, 3, 7,
        # 22, 78, 287), so the lifts stop at F_5
        return gasharov_presentation(gasharov_algebra(field)), range(1, 3), 3
    if case == "gasharov":
        return gasharov_presentation(gasharov_algebra(field)), range(1, 5), 8
    names = ["x", "y", "z"]
    B = build_algebra(field, 3, [parse_polynomial(r, names, field) for r in ["x^2", "y^2", "z^3"]],
                      varnames=names)
    return residue_field(B), range(1, 4), 5


@pytest.mark.parametrize("p", [5, 2**31 - 1])
@pytest.mark.parametrize("case", ["gasharov", "x2y2z3"])
def test_lifts_match_reference_lift(p, case):
    # generator images, screens and Yoneda squares from the cached solves
    # are byte for byte those of lifts solved and realized from scratch
    M, degrees, window = _lift_case(p, case)
    checked = 0
    for t in degrees:
        for eta in cocycle_basis(M, M, t):
            res = eta.resolution
            ref = oracles.reference_lift(eta, window)
            for n, (U, theta) in enumerate(zip(_lift_stack(res, t, eta.on_generators(), window), ref)):
                want = theta.a[:, res.free(t + n).generator_columns()]
                assert U.a.tobytes() == want.tobytes(), (t, eta.shift, n)
            assert one_class_screen(eta, window) == _reference_screen(eta, window, ref), (t, eta.shift)
            square = oracles.ext_from_realized(res, M, 2 * t, eta.realized() @ ref[t], 2 * eta.shift)
            assert yoneda_power(eta, 2).rep.tobytes() == square.rep.tobytes(), (t, eta.shift)
            if t == 1:
                cube = eta.realized() @ ref[1] @ ref[2]
                want = oracles.ext_from_realized(res, M, 3, cube, 3 * eta.shift)
                assert yoneda_power(eta, 3).rep.tobytes() == want.rep.tobytes(), eta.shift
            checked += 1
    assert checked >= 6


@pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
@pytest.mark.parametrize("case", ["gasharov", "x2y2z3"])
def test_stacked_lift_matches_reference_lift(p, case):
    # one lift of all basis classes of a degree, side by side: block j of
    # every step is byte for byte the lift of class j solved from scratch,
    # and the stack's screens are the screens of those lifts
    M, degrees, window = _lift_case(p, case)
    checked = 0
    for t in degrees:
        basis = cocycle_basis(M, M, t)
        if not basis:
            continue
        res = basis[0].resolution
        lifts, constants = stacked_lift(basis, window)
        refs = [oracles.reference_lift(eta, window) for eta in basis]
        for n, U in enumerate(lifts):
            gens = res.free(t + n).generator_columns()
            want = np.hstack([ref[n].a[:, gens] for ref in refs])
            assert U.a.tobytes() == want.tobytes(), (t, n)
        screens = yoneda._screen_combinations(basis, constants, np.eye(len(basis), dtype=np.int64))
        assert screens == [_reference_screen(eta, window, ref) for eta, ref in zip(basis, refs)], t
        checked += len(basis)
    assert checked >= 6


def test_combination_screens_match_one_class_screens():
    # the screen of sum_j c_j eta_j read off the stacked lift equals the
    # screen of that class lifted on its own, at p = 2^31 - 1, where the
    # combination needs the exact product.  Each class is listed four
    # times: random coefficients, and coefficients whose four copies cancel
    # (p - 1, p - 1, p - 1, 3) but for one class, so the exact combination
    # is a multiple of that class, with partial sums near 3 p^2 > 2^63 that
    # an int64 sum of products wraps
    p = 2**31 - 1
    M, degrees, window = _lift_case(p, "x2y2z3")
    rng = np.random.default_rng(11)
    checked = 0
    for t in degrees:
        basis = cocycle_basis(M, M, t)
        k = len(basis)
        _, constants = stacked_lift(basis, window)
        repeated = [np.concatenate([L] * 4) for L in constants]
        coeffs = rng.integers(0, p, (k + 3, 4 * k))
        for j in range(k):
            coeffs[j] = np.tile([p - 1, p - 1, p - 1, 3], (k, 1)).T.reshape(-1)
            coeffs[j, j] = 1
        got = yoneda._screen_combinations(basis * 4, repeated, coeffs)
        want = [one_class_screen(oracles.combination(basis * 4, row), window) for row in coeffs]
        assert got == want, t
        assert got[:k] == yoneda._screen_combinations(basis, constants, np.eye(k, dtype=np.int64)), t
        checked += 1
    assert checked == 3


def test_find_reducing_element_eliminates_once_per_lifted_step(monkeypatch, gasharov):
    # every lift of a search solves through a factorization of d_i made on
    # the first lift through it; the library has no solve_matrix to call
    import importlib
    import pkgutil

    import cxlab
    from cxlab import exactla, resol

    for info in pkgutil.iter_modules(cxlab.__path__):
        assert not hasattr(importlib.import_module(f"cxlab.{info.name}"), "solve_matrix"), info.name

    eliminations = []
    rref_array = exactla._rref_array

    def counting_rref(a, p):
        eliminations.append(a.shape)
        return rref_array(a, p)

    solves = []
    solve = resol.MinimalFreeResolution.solve

    def counting_solve(self, i, B):
        before = len(eliminations)
        out = solve(self, i, B)
        solves.append((id(self), i, len(eliminations) - before))
        return out

    monkeypatch.setattr(exactla, "_rref_array", counting_rref)
    monkeypatch.setattr(resol.MinimalFreeResolution, "solve", counting_solve)
    found = find_reducing_element(gasharov_presentation(gasharov), 8, seed=0, budget=3)
    assert found[0].degree == 4
    steps = sorted({(res, i) for res, i, _ in solves})
    assert [i for _, i in steps] == list(range(yoneda.QUICK_WINDOW + 1))  # one resolution, steps 0..8
    for step in steps:
        assert sum(n for res, i, n in solves if (res, i) == step) == 1, step
    # the basis classes of a degree are lifted in one stack and the random
    # candidates are combined from it: one solve per degree and step, 36
    # (306 when each candidate was lifted on its own)
    assert [i for _, i, _ in solves] == list(range(yoneda.QUICK_WINDOW + 1)) * 4


def test_find_reducing_element_reduces_by_one_coboundary_echelon_per_degree(monkeypatch, gasharov):
    residuals = []
    monkeypatch.setattr(ExtElement, "class_residual", lambda self: residuals.append(self))
    echelons = []
    build = yoneda._coboundary_echelon

    def counting(delta_prev):
        echelons.append(delta_prev)
        return build(delta_prev)

    monkeypatch.setattr(yoneda, "_coboundary_echelon", counting)
    M = gasharov_presentation(gasharov)
    found = find_reducing_element(M, 8, seed=0, budget=3)
    assert found[0].degree == 4
    assert residuals == []
    # degree t reduces by the image of delta^{t-1}
    res = resolve(M, 5)
    assert echelons == [yoneda._hom_differential(res, M, t - 1) for t in (1, 2, 3, 4)]


def test_find_reducing_element_builds_each_hom_differential_once(monkeypatch, gasharov):
    # degree t builds delta^t for its cocycles and hands it on to degree
    # t + 1, whose coboundaries it spans (8 builds, 5 distinct, when each
    # degree built both)
    built = []
    hom_differential = yoneda._hom_differential
    echelons = []
    build = yoneda._coboundary_echelon

    def counting(res, n, i):
        built.append((i, hom_differential(res, n, i)))
        return built[-1][1]

    def recording(delta_prev):
        echelons.append(delta_prev)
        return build(delta_prev)

    monkeypatch.setattr(yoneda, "_hom_differential", counting)
    monkeypatch.setattr(yoneda, "_coboundary_echelon", recording)
    found = find_reducing_element(gasharov_presentation(gasharov), 8, seed=0, budget=3)
    assert found[0].degree == 4
    assert [i for i, _ in built] == [0, 1, 2, 3, 4]
    assert all(e is d for e, (_, d) in zip(echelons, built)) and len(echelons) == 4


def _search_summary(found):
    eta, push, est = found
    return eta.degree, eta.shift, eta.rep.tolist(), push.module.dim, est


def test_find_reducing_element_same_with_resolved_screen(monkeypatch, gasharov_module, cubic, k):
    # the screen only decides which candidates get pushed out, so screening
    # on resolved pushouts must give the same search
    k3 = residue_field(cubic.algebra)
    searches = [(gasharov_module, 8, seed, 3) for seed in range(4)] + [(k3, 4, 0, 200), (k, 4, 0, 200)]
    ours = [_search_summary(find_reducing_element(m, d, seed=s, budget=b)) for m, d, s, b in searches]
    screened = []

    def resolved_screens(basis, constants, coeffs):
        screened.append(len(basis) if coeffs is None else len(coeffs))
        return oracles.resolved_screens(basis, constants, coeffs)

    monkeypatch.setattr(yoneda, "_screen_combinations", resolved_screens)
    resolved = [_search_summary(find_reducing_element(m, d, seed=s, budget=b)) for m, d, s, b in searches]
    assert ours == resolved
    assert sum(screened) > len(searches)


def test_find_reducing_element_builds_only_fresh_random_candidates(monkeypatch, F5):
    # a random candidate is checked for a repeat before it is screened, and
    # its ExtElement is built only when it passes the screen.  The random
    # loop runs in the second search, at degree 1, where each shift holds
    # one basis class: every random row would be a multiple of one basis
    # class, already screened, so none is drawn and only the basis batches
    # are tested.  A batch of candidates, the basis or the random draws of a
    # degree, is tested in one reduction modulo the coboundaries of its
    # degree
    from cxlab.cioper import MonomialCI

    k = residue_field(MonomialCI.build(F5, [2, 3], varnames=["u", "v"]).algebra)
    built, basis, echelons, screened, tested = [], [], [], [], []
    post_init = ExtElement.__post_init__
    classes = yoneda._cocycle_classes
    screen = yoneda._screen_combinations
    reduce_mod_rows = yoneda._reduce_mod_rows

    def counting_init(eta):
        built.append(eta)
        post_init(eta)

    def recording_classes(m, n, t, delta_prev=None):
        found = classes(m, n, t, delta_prev)
        basis.extend(found[0])
        echelons.append(found[1])
        return found

    def recording_screen(classes, constants, coeffs):
        screened.append(len(coeffs))
        return screen(classes, constants, coeffs)

    def recording_reduce(v, echelon):
        if any(echelon is e for e in echelons):  # a batch's freshness test
            tested.append(len(v))
        return reduce_mod_rows(v, echelon)

    monkeypatch.setattr(ExtElement, "__post_init__", counting_init)
    monkeypatch.setattr(yoneda, "_cocycle_classes", recording_classes)
    monkeypatch.setattr(yoneda, "_screen_combinations", recording_screen)
    monkeypatch.setattr(yoneda, "_reduce_mod_rows", recording_reduce)
    sequence, _ = reduction_sequence(k, 4, window=12)
    assert sequence is not None
    assert sum(tested) == len(basis)  # no random row was drawn
    assert len(tested) <= 2 * len(echelons)  # at most two batches per degree
    assert sum(screened) == len(basis)
    assert len(built) == len(basis)


def test_find_reducing_element_builds_one_pushout(monkeypatch, gasharov_module):
    built = []

    def counting(eta):
        built.append(eta.degree)
        return pushout(eta)

    monkeypatch.setattr(yoneda, "pushout", counting)
    find_reducing_element(gasharov_module, 8, seed=0, budget=3)
    assert built == [4]  # only the class that passes the screen


def test_find_reducing_element_frees_losing_pushouts(monkeypatch, F5):
    # over (x^3, y^3, z^2) at window 11 two pushouts pass the screen and
    # lose on the full window; each is freed with its resolution when it
    # loses, by reference counting, not left to the cyclic collector
    from cxlab.cioper import MonomialCI

    k = residue_field(MonomialCI.build(F5, [3, 3, 2]).algebra)
    pushed = []

    def recording(eta):
        push = pushout(eta)
        pushed.append(weakref.ref(push.module))
        return push

    monkeypatch.setattr(yoneda, "pushout", recording)
    gc.disable()
    try:
        _, push, _ = find_reducing_element(k, 4, window=11)
        assert len(pushed) == 3 and pushed[-1]() is push.module
        assert [ref() for ref in pushed[:-1]] == [None, None]
    finally:
        gc.enable()


def test_lift_heavy_search_keeps_maps_over_A_only(monkeypatch, F5):
    # the search over (x^3, y^3, z^2) at window 11 lifts classes down the
    # resolution of k and pushes out three candidates; afterwards no
    # resolution it made holds a realized differential: d_i is kept as its
    # generator images, a solver as its (Q, E), and besides them only the
    # pivots, the last span and Z.  No free module holds an array
    from cxlab.cioper import MonomialCI
    from cxlab.gmod import FreeModule
    from cxlab.resol import MinimalFreeResolution

    made = {MinimalFreeResolution: [], FreeModule: []}
    for cls, objects in made.items():
        def recording(self, *args, init=cls.__init__, objects=objects):
            init(self, *args)
            objects.append(self)
        monkeypatch.setattr(cls, "__init__", recording)
    k = residue_field(MonomialCI.build(F5, [3, 3, 2]).algebra)
    assert find_reducing_element(k, 4, window=11) is not None
    assert len(made[MinimalFreeResolution]) == 4 and k._resolution._solvers
    for res in made[MinimalFreeResolution]:
        dims = [res.module.dim] + [F.dim for F in res.frees]
        n = res.computed_to
        want = [("_images", (dims[i], F.rank)) for i, F in enumerate(res.frees)]
        want += [("_pivots", q.shape) for q in res._pivots]
        want += [("_span", (res._span.rows, dims[n + 1])), ("_z", (len(res._pivots[n]), dims[n + 1]))]
        for i in res._solvers:
            r = len(res._pivots[i])
            want += [("_solvers", (r,)), ("_solvers", (r, r))]
        assert sorted(oracles.held_arrays(res, skip=("module", "frees", "_syz"))) == sorted(want)
    assert made[FreeModule] and not any(oracles.held_arrays(F) for F in made[FreeModule])


def test_find_reducing_element_rechecks_the_screen(monkeypatch, gasharov_module):
    # a screen that claims a free pushout for the first candidate is caught
    # by the resolution of that pushout
    def free_screens(basis, constants, coeffs):
        return [[2] + [0] * (len(constants) - 1)] * len(coeffs)

    monkeypatch.setattr(yoneda, "_screen_combinations", free_screens)
    with pytest.raises(InvariantError, match="long exact Tor sequence"):
        find_reducing_element(gasharov_module, 8, seed=0, budget=3)


def test_find_reducing_element_cubic(cubic):
    # over F_5[x]/(x^3) no degree-one class reduces; degree two is the first
    k3 = residue_field(cubic.algebra)
    eta, push, est = find_reducing_element(k3, 4, seed=0)
    assert eta.degree == 2
    assert est.value == 0
    assert resolve(push.module, 2).betti(1) == 0  # finite pd means free here


def test_find_reducing_element_quadric(k):
    eta, push, est = find_reducing_element(k, 4, seed=0)
    assert est.value == 1
    assert est.stabilized


def test_find_reducing_element_free_precondition(A):
    with pytest.raises(InputError):
        find_reducing_element(free_module(A, [0]), 4)


def test_find_reducing_element_gasharov(gasharov_module):
    # the twisting unit has order 4, so the first reducer is the degree-4
    # periodicity class and the pushout is free
    eta, push, est = find_reducing_element(gasharov_module, 8, seed=0, budget=40)
    assert eta.degree == 4
    assert est.value == 0
    assert resolve(push.module, 2).betti(1) == 0


def test_reduction_sequence_quadric(k):
    seq, transcript = reduction_sequence(k, 4, seed=0)
    assert seq is not None
    assert seq.length == 3
    values = [s.estimate.value for s in seq.steps]
    assert values == [2, 1, 0]


def test_reduction_sequence_free(A):
    seq, transcript = reduction_sequence(free_module(A, [0, 1]), 4)
    assert seq is not None and seq.length == 1


def test_reduction_sequence_failure_branch(F5):
    B = build_algebra(
        F5, 2, [parse_polynomial(s, ["x", "y"], F5) for s in ["x^2", "x*y", "y^2"]],
        varnames=["x", "y"],
    )
    kB = residue_field(B)
    seq, transcript = reduction_sequence(kB, 2, window=7, stab=3)
    assert seq is None
    assert transcript  # the search records why it stopped


def test_window_vanishing_check(A, k, quadric):
    from cxlab.cioper import build_kchi

    seq, _ = reduction_sequence(k, 4, seed=0)
    F = free_module(A, [0])
    assert window_vanishing_check(k, seq, F, 2, 20).kind == "confirmed"
    assert window_vanishing_check(k, seq, F, 2, 20, use_tor=True).kind == "confirmed"
    T1 = build_kchi(quadric, 1)
    assert window_vanishing_check(k, seq, T1, 2, 20).kind == "window_not_vanishing"
    with pytest.raises(InputError):
        window_vanishing_check(k, seq, F, 0, 20)


def test_self_ext_pd_check(A, k, gasharov_module):
    assert self_ext_pd_check(free_module(A, [0, 1]), 10).kind == "consistent_free"
    assert self_ext_pd_check(k, 10).kind == "consistent_nonfree"
    v = self_ext_pd_check(gasharov_module, 10)
    assert v.ok
    # nonvanishing self-extensions show up in every window of length >= 5
    table = v.params["table"]
    for start in range(1, 6):
        assert any(table[i] != 0 for i in range(start, start + 5))
    # no positive degree to check: all() of nothing would call k free
    assert self_ext_pd_check(k, 1).kind == "consistent_nonfree"
    with pytest.raises(InputError, match="no positive degree"):
        self_ext_pd_check(k, 0)


def test_bound_test_against(A, k, Ax, quadric):
    # cx M < t follows when Ext(M, N) vanishes on the tail 15..20 of the
    # window for every test N of complexity t; a nonvanishing tail bounds
    # nothing
    from cxlab.cioper import build_kchi

    def tail_vanishes(m, n):
        return not any(ext_table(m, n, 20)[15:])

    F = free_module(A, [0])
    T1, T2 = build_kchi(quadric, 1), build_kchi(quadric, 2)
    assert all(tail_vanishes(F, n) for n in (Ax, T1, k))
    assert not all(tail_vanishes(k, n) for n in (Ax, T1, T2))
    # one-directional: cx A/(x) = 1 < 2 yet Ext against k never dies
    assert not tail_vanishes(Ax, k)


def test_symmetry_check(A, k, quadric, gasharov_module):
    from cxlab.cioper import build_kchi

    T1 = build_kchi(quadric, 1)
    assert symmetry_check(k, T1, 14).kind == "co_occurrence"
    assert symmetry_check(free_module(A, [0]), k, 14).kind == "co_occurrence"
    M = gasharov_module
    assert symmetry_check(M, syzygy(M, 1), 20).kind == "co_occurrence"
    B = build_algebra(
        F5, 2, [parse_polynomial(s, ["x", "y"], F5) for s in ["x^2", "x*y", "y^2"]],
        varnames=["x", "y"],
    )
    with pytest.raises(InputError, match="Gorenstein"):
        symmetry_check(residue_field(B), residue_field(B))
    # a tail of 6 degrees ending at 5 would wrap round to Ext^0
    assert symmetry_check(k, T1, 6).kind == "co_occurrence"
    with pytest.raises(InputError, match="shorter than the tail"):
        symmetry_check(k, T1, 5)


def test_kunneth_ext_tables_convolve(gasharov_module):
    # Ext over G (x) B, B = F_5[z]/(z^3), from M (x) k to M (x) B/(z^2), with
    # M the Gasharov module: the convolution of Ext_G(M, M) and Ext_B(k, B/(z^2))
    from cxlab.gmod import coker_presentation
    from cxlab.cioper import MonomialCI

    M = gasharov_module
    B = MonomialCI.build(M.field, [3], varnames=["z"]).algebra
    z2 = coker_presentation(B, [[B.variable(0) * B.variable(0)]], [0])
    k = residue_field(B)
    GB = oracles.tensor_algebra(M.algebra, B)
    got = ext_table(oracles.tensor_module(M, k, GB), oracles.tensor_module(M, z2, GB), 6)
    assert got == oracles.convolve(ext_table(M, M, 6), ext_table(k, z2, 6))
