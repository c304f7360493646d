"""Seeded randomized property suites over small module fixtures."""
import random

import numpy as np
import pytest

from cxlab.cioper import MonomialCI, build_kchi, cut_by_chi, eisenbud_operators, vartest_check
from cxlab.exactla import Field, _dense
from cxlab.gmod import (Module, action_rows, coker_presentation, direct_sum, entry_images, extend_linearly,
                        free_module, residue_field)
from cxlab.gralg import Algebra, build_algebra, is_gorenstein, parse_polynomial
from cxlab.resol import estimate_complexity, resolve, syzygy
from cxlab.errors import InvariantError
from cxlab.yoneda import (ExtElement, _cocycle_classes, _hom_differential, _lift_stack, _side_by_side,
                          cocycle_basis, ext_table, pushout, reduction_sequence, tor_table,
                          window_vanishing_check)
import oracles
from oracles import assert_matches_eager, hom_space, is_isomorphic
from conftest import one_class_screen

F5 = Field(5)


def random_homogeneous(rng: random.Random, A: Algebra, degree: int):
    vec = np.zeros(A.dim, dtype=np.int64)
    offset = 0
    for d in range(A.top_degree + 1):
        size = len(A.slice_std(d))
        if d == degree:
            for i in range(size):
                vec[offset + i] = rng.randrange(5)
        offset += size
    return A.element(vec)


def random_module(rng: random.Random, A: Algebra):
    """Random homogeneous cokernel presentation with one or two generators."""
    nrows = rng.choice([1, 1, 2])
    row_degrees = [rng.choice([0, 0, 1]) for _ in range(nrows)]
    ncols = rng.choice([1, 2, 3])
    entries = [[None] * ncols for _ in range(nrows)]
    for j in range(ncols):
        col_degree = max(row_degrees) + rng.choice([1, 1, 2])
        ok = False
        for i in range(nrows):
            d = col_degree - row_degrees[i]
            if 1 <= d <= A.top_degree:
                e = random_homogeneous(rng, A, d)
                ok = ok or not e.is_zero()
            else:
                e = A.zero()
            entries[i][j] = e
        if not ok:
            # keep columns unambiguous: force one positive-degree entry
            i = max(range(nrows), key=lambda r: row_degrees[r])
            d = col_degree - row_degrees[i]
            vec = np.zeros(A.dim, dtype=np.int64)
            offset = sum(len(A.slice_std(dd)) for dd in range(d))
            vec[offset] = 1
            entries[i][j] = A.element(vec)
    return coker_presentation(A, entries, row_degrees)


def seeded_modules(quadric: Algebra, cubic: Algebra):
    """The 110 seeded presentations, over the two rings in turn.  Their
    coefficients are below 5, so over F_p[x,y]/(x^2,y^2) and F_p[x]/(x^3)
    they are the same presentations at every prime p >= 5."""
    rng = random.Random(20240)
    return [random_module(rng, quadric if n % 2 == 0 else cubic) for n in range(110)]


@pytest.fixture(scope="module")
def random_modules(quadric, cubic):
    return seeded_modules(quadric.algebra, cubic.algebra)


def test_resolutions_d2_and_minimality(random_modules):
    for M in random_modules:
        if M.dim == 0:
            continue
        res = resolve(M, 5)
        for i in range(1, 5):
            assert (oracles.diff_realized(res, i) @ oracles.diff_realized(res, i + 1)).is_zero()
            for row in oracles.diff_algebra(res, i):
                for a in row:
                    assert a.constant_term() == 0


def test_resolutions_match_eager_reference_random(random_modules):
    for M in random_modules:
        if M.dim == 0:
            continue
        assert_matches_eager(M, 5)


def test_rebuilt_syzygies_of_seeded_modules_shift_betti_numbers(random_modules):
    # beta_n(Omega^i M) = beta_{n+i}(M), exactly, on the first 20 seeded
    # modules, Omega^i M rebuilt over its own basis from its actions written
    # dense, which Module(...) verifies
    for M in random_modules[:20]:
        betti = resolve(M, 7).betti_list(7)
        for i in range(1, 5):
            S = syzygy(M, i)
            rebuilt = Module(M.algebra, S.degrees, S.actions)
            assert resolve(rebuilt, 3).betti_list(3) == betti[i:i + 4], i


def test_block_actions_match_entrywise_reference(random_modules):
    # each differential over A acts on the regular module and on another
    # random module exactly as its entries do, one entry at a time
    for M, N in zip(random_modules[0::3], random_modules[2::3]):
        assert M.algebra is N.algebra
        if M.dim == 0:
            continue
        res = resolve(M, 3)
        for i in range(1, 4):
            d = oracles.diff_algebra(res, i)
            r, c = res.free(i - 1).rank, res.free(i).rank
            regular = oracles.regular_module(M.algebra)
            assert np.array_equal(extend_linearly(res.free(i - 1), entry_images(M.algebra, d, r, c)).a,
                                  oracles.block_action(regular, d, r, c))
            tensor = _dense(action_rows(N, res.diff_lifts(i), r), c * N.dim)
            assert np.array_equal(tensor, oracles.block_action(N, d, r, c))
            transposed = [[d[h][g] for h in range(r)] for g in range(c)]
            assert np.array_equal(_hom_differential(res, N, i - 1).a,
                                  oracles.block_action(N, transposed, c, r))


def test_vartest_bound_never_below_a_stabilized_estimate(random_modules, quadric, cubic):
    # the sound direction only: tail vanishing against a cut of size 1
    # proves cx M <= 1, so no stabilized estimate may exceed it; a coordinate
    # cut may be inconclusive where the bound holds
    tests = {id(quadric.algebra): [build_kchi(quadric, 1), build_kchi(quadric, 2)],
             id(cubic.algebra): [build_kchi(cubic, 1)]}
    kinds = set()
    for M in random_modules:
        v = vartest_check(M, tests[id(M.algebra)], 1, max_degree=12)
        kinds.add(v.kind)
        if v.kind == "bound_established":
            est = estimate_complexity(resolve(M, 12).betti_list(12))
            assert not est.stabilized or est.value <= 1, (M.degrees, est)
    assert kinds == {"bound_established", "inconclusive"}


def test_syzygy_betti_shift_random(random_modules):
    for M in random_modules[:60]:
        if M.dim == 0:
            continue
        full = resolve(M, 6).betti_list(6)
        om = syzygy(M, 2)
        assert resolve(om, 4).betti_list(4) == full[2:7]


def test_ext_against_k_equals_betti(random_modules):
    for M in random_modules:
        if M.dim == 0:
            continue
        kk = residue_field(M.algebra)
        assert ext_table(M, kk, 5) == resolve(M, 5).betti_list(5)


def test_pushout_dimension_and_split(random_modules):
    rng = random.Random(7)
    for M in random_modules[:100]:
        if M.dim == 0:
            continue
        t = rng.choice([1, 2])
        res = resolve(M, t + 1)
        zero = ExtElement(res, M, t, np.zeros(res.free(t).rank * M.dim, dtype=np.int64), 0)
        P = pushout(zero)
        omega_rank = oracles.diff_realized(res, t).rank()
        assert P.module.dim == M.dim + res.free(t - 1).dim - omega_rank
        target = direct_sum(M, syzygy(M, t - 1))
        assert is_isomorphic(P.module, target, seed=3).kind == "yes"


def test_pushout_betti_random(random_modules):
    # the long exact Tor sequence against the resolved pushout, on every
    # basis class and on the split (zero) class
    rng = random.Random(17)
    for M in random_modules:
        if M.dim == 0:
            continue
        t = rng.choice([1, 2])
        res = resolve(M, t + 1)
        zero = ExtElement(res, M, t, np.zeros(res.free(t).rank * M.dim, dtype=np.int64), 0)
        for eta in cocycle_basis(M, M, t) + [zero]:
            assert one_class_screen(eta, 6) == oracles.pushout_betti(eta, 6)


def test_cocycle_rows_are_the_basis_and_their_lift_proves_them(random_modules):
    # the rows of _cocycle_classes are the reps of cocycle_basis, in order,
    # each its own class residual, dim Ext^t of them; stacked with one
    # vector outside ker delta^t, their lift fails at the solve through d_1,
    # which is what lets the search build no ExtElement for them
    checked = 0
    for M in random_modules:
        if M.dim == 0:
            continue
        for t in (1, 2):
            reps, shifts, _, delta_t = _cocycle_classes(M, M, t)
            basis = cocycle_basis(M, M, t)
            assert reps.tolist() == [e.rep.tolist() for e in basis]
            assert shifts == [e.shift for e in basis]
            assert all(e.class_residual().tolist() == e.rep.tolist() for e in basis)
            assert len(reps) == ext_table(M, M, t)[t]
            outside = np.nonzero(delta_t.a.any(axis=0))[0]
            if outside.size == 0:
                continue
            non_cocycle = np.zeros((1, delta_t.cols), dtype=np.int64)
            non_cocycle[0, outside[0]] = 1
            res = resolve(M, t + 1)
            images = _side_by_side(np.vstack([reps, non_cocycle]), res.free(t).rank, M)
            with pytest.raises(InvariantError, match="outside the image of d_1$"):
                _lift_stack(res, t, images, 1)
            checked += 1
    assert checked >= 90


def test_tor_symmetry_random(random_modules):
    rng = random.Random(11)
    pairs = 0
    while pairs < 100:
        m = rng.choice(random_modules)
        n = rng.choice(random_modules)
        if m.algebra is not n.algebra or m.dim == 0 or n.dim == 0:
            continue
        assert tor_table(m, n, 4) == tor_table(n, m, 4)
        pairs += 1


def test_ext0_matches_hom_space(random_modules):
    # Ext^0 from the realized Hom complex must agree with the commutant
    # equations, which are solved by an entirely different path
    rng = random.Random(5)
    for _ in range(60):
        m = rng.choice(random_modules)
        n = rng.choice(random_modules)
        if m.algebra is not n.algebra:
            continue
        assert ext_table(m, n, 0)[0] == len(hom_space(m, n))


@pytest.fixture(scope="module", params=[5, 2**31 - 1])
def seeded_at_p(request, random_modules):
    """The seeded modules at p = 5, random_modules itself, and at 2^31 - 1."""
    if request.param == 5:
        return random_modules
    return seeded_modules(*(MonomialCI.build(Field(request.param), e).algebra for e in ([2, 2], [3])))


def test_ext_into_dual_equals_tor_random(seeded_at_p):
    # Hom_A(F_., Hom_k(N, k)) = Hom_k(F_. (x)_A N, k), so dim Ext^i(M, N^v)
    # = dim Tor_i(M, N) for every i, over every ring and at every prime
    rng = random.Random(17)
    pairs = 0
    while pairs < 100:
        m, n = rng.choice(seeded_at_p), rng.choice(seeded_at_p)
        if m.algebra is n.algebra:
            assert ext_table(m, oracles.dual(n), 6) == tor_table(m, n, 6)
            pairs += 1


def test_ext_into_gorenstein_ring_vanishes_random(seeded_at_p):
    # an Artinian Gorenstein local ring is self-injective: Ext^i(M, A) = 0
    # for i >= 1, and Hom(M, A), the k-dual of M, has dimension dim M
    assert all(is_gorenstein(M.algebra) for M in seeded_at_p[:2])
    for M in seeded_at_p:
        assert ext_table(M, free_module(M.algebra, [0]), 6) == [M.dim] + [0] * 6


def test_duality_identities_over_gasharov_ring(gasharov, gasharov_module):
    # Gasharov and Peeva's ring is Gorenstein and not a complete intersection
    M = gasharov_module
    assert is_gorenstein(gasharov)
    assert ext_table(M, oracles.dual(M), 6) == tor_table(M, M, 6)
    assert ext_table(M, free_module(gasharov, [0]), 6) == [M.dim] + [0] * 6


@pytest.mark.parametrize("p", [5, 2**31 - 1])
@pytest.mark.parametrize("relations, gorenstein", [(["x^2", "y^2", "z^2"], True),
                                                   (["x^2", "x*y", "y^3", "z^3", "y*z^2"], False)])
def test_duality_identities_over_three_variables(p, relations, gorenstein):
    # M = coker [[x, y^2], [0, z]] over a complete intersection and over a
    # ring whose socle is not one dimensional, where Ext(M, A) does not
    # vanish: the negative control of the self-injectivity check
    F, names = Field(p), ["x", "y", "z"]
    B = build_algebra(F, 3, [parse_polynomial(r, names, F) for r in relations], varnames=names)
    x, y, z = (B.variable(v) for v in range(3))
    M = coker_presentation(B, [[x, y * y], [B.zero(), z]], [0, 1])
    assert is_gorenstein(B) == gorenstein
    assert ext_table(M, oracles.dual(M), 5) == tor_table(M, M, 5)
    ext = ext_table(M, free_module(B, [0]), 5)
    assert ext == ([M.dim] + [0] * 5 if gorenstein else [11, 3, 9, 20, 48, 118])


@pytest.mark.parametrize("p", [5, 2**31 - 1])
def test_duality_identities_at_depth(p):
    # both identities where the complexes are large: M = coker [[a, b], [c,
    # d]] over (x_1^2..x_4^2) to degree 12, and over the non-Gorenstein ring
    # of the test above to degree 8, where Ext(M, A) is the negative control
    F = Field(p)
    A = MonomialCI.build(F, [2, 2, 2, 2]).algebra
    a, b, c, d = (A.variable(v) for v in range(4))
    M = coker_presentation(A, [[a, b], [c, d]], [0, 0])
    assert ext_table(M, oracles.dual(M), 12) == tor_table(M, M, 12)
    assert ext_table(M, free_module(A, [0]), 12) == [M.dim] + [0] * 12
    names = ["x", "y", "z"]
    B = build_algebra(F, 3, [parse_polynomial(r, names, F) for r in ["x^2", "x*y", "y^3", "z^3", "y*z^2"]],
                      varnames=names)
    x, y, z = (B.variable(v) for v in range(3))
    M = coker_presentation(B, [[x, y * y], [B.zero(), z]], [0, 1])
    assert ext_table(M, oracles.dual(M), 8) == tor_table(M, M, 8) == [16, 6, 7, 11, 21, 45, 105, 257, 645]
    assert ext_table(M, free_module(B, [0]), 8) == [11, 3, 9, 20, 48, 118, 294, 740, 1878]


def test_tor_against_k_equals_betti(random_modules):
    for M in random_modules[:60]:
        kk = residue_field(M.algebra)
        assert tor_table(M, kk, 4) == resolve(M, 4).betti_list(4)


def test_kunneth_betti_numbers_convolve_random(random_modules):
    # M over F_5[x,y]/(x^2,y^2) and N over F_5[x]/(x^3): M (x) N over their
    # tensor product has the convolved Betti numbers
    quadric, cubic = random_modules[0].algebra, random_modules[1].algebra
    AB = oracles.tensor_algebra(quadric, cubic)
    pairs = [(M, N) for M, N in zip(random_modules[0::2], random_modules[1::2]) if M.dim and N.dim]
    for M, N in pairs[:20]:
        assert M.algebra is quadric and N.algebra is cubic
        expected = oracles.convolve(resolve(M, 7).betti_list(7), resolve(N, 7).betti_list(7))
        assert resolve(oracles.tensor_module(M, N, AB), 7).betti_list(7) == expected


_PRIMES = [2, 3, 5, 7, 65521, 2**31 - 1]


def _random_cis(seed, codim, count, max_dim):
    """count seeded monomial CIs of the given codimension: exponents 2-4,
    dimension at most max_dim, primes from _PRIMES."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        exps = [rng.randint(2, 4) for _ in range(codim)]
        if np.prod(exps) <= max_dim:
            out.append(MonomialCI.build(Field(rng.choice(_PRIMES)), exps))
    return out


# codimension 3 stops at dimension 36 to keep the resolutions of the cuts to
# step 12 within a second
@pytest.mark.parametrize("codim, count, max_dim", [(2, 8, 16), (3, 5, 36)])
def test_cut_by_chi_of_k_lowers_complexity_by_one(codim, count, max_dim):
    # over a complete intersection each chi_j acts injectively on Ext(k, k)
    # (L. L. Avramov and R.-O. Buchweitz, Invent. Math. 142 (2000)), so the
    # cut of k along chi_j has complexity codim - 1, stabilized at window 12
    for ci in _random_cis(200 + codim, codim, count, max_dim):
        k = residue_field(ci.algebra)
        ops = eisenbud_operators(ci, k, 4)
        for j in range(1, codim + 1):
            est = estimate_complexity(resolve(cut_by_chi(ops, j).module, 12).betti_list(12), 4)
            assert est.stabilized and est.value == codim - 1, (ci.exponents, ci.field.p, j, est)


def test_reduction_sequence_and_window_vanishing_codim_2():
    # k over a codimension-2 CI with an exponent 2 reduces in two steps, and
    # window vanishing against k, A and the kchi modules, of Ext and of Tor,
    # never fails to propagate to the whole window
    rng = random.Random(2007)
    for _ in range(8):
        exps = [2, rng.randint(2, 4)]
        rng.shuffle(exps)
        ci = MonomialCI.build(Field(rng.choice(_PRIMES)), exps)
        k = residue_field(ci.algebra)
        seq, transcript = reduction_sequence(k, 4, seed=0, window=12)
        assert seq is not None, (exps, ci.field.p, transcript)
        assert [s.estimate.value for s in seq.steps] == [2, 1, 0], (exps, ci.field.p)
        tests = [k, free_module(ci.algebra, [0]), build_kchi(ci, 1), build_kchi(ci, 2)]
        for N in tests:
            for t in (1, 2):
                for use_tor in (False, True):
                    v = window_vanishing_check(k, seq, N, t, 12, use_tor=use_tor)
                    assert v.kind != "violation", (exps, ci.field.p, N, t, use_tor, v)
