"""Seeded randomized property suites over small module fixtures."""
import random

import numpy as np
import pytest

from cxlab.cioper import MonomialCI, build_kchi, cut_by_chi, eisenbud_operators
from cxlab.exactla import Field
from cxlab.gmod import coker_presentation, direct_sum, free_module, realize_algebra_matrix, residue_field
from cxlab.gralg import Algebra
from cxlab.resol import estimate_complexity, resolve, syzygy
from cxlab.yoneda import (ExtElement, _hom_differential, _tensor_differential, cocycle_basis,
                          ext_table, pushout, reduction_sequence, tor_table, window_vanishing_check)
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


@pytest.fixture(scope="module")
def random_modules(quadric, cubic):
    rng = random.Random(20240)
    mods = []
    for n in range(110):
        A = quadric.algebra if n % 2 == 0 else cubic.algebra
        mods.append(random_module(rng, A))
    return mods


def test_resolutions_d2_and_minimality(random_modules):
    for M in random_modules:
        if M.dim == 0:
            continue
        res = resolve(M, 5)
        for i in range(1, 5):
            assert (res.diff_realized(i) @ res.diff_realized(i + 1)).is_zero()
            for row in oracles.diff_algebra(res, i):
                for a in row:
                    assert a.constant_term() == 0


def test_resolutions_match_eager_reference_random(random_modules):
    for M in random_modules:
        if M.dim == 0:
            continue
        assert_matches_eager(M, 5)


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
            assert np.array_equal(realize_algebra_matrix(res.free(i), res.free(i - 1), d).a,
                                  oracles.block_action(regular, d, r, c))
            assert np.array_equal(_tensor_differential(res, N, i).a, oracles.block_action(N, d, r, c))
            transposed = [[d[h][g] for h in range(r)] for g in range(c)]
            assert np.array_equal(_hom_differential(res, N, i - 1).a,
                                  oracles.block_action(N, transposed, c, r))


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
        omega_rank = res.diff_realized(t).rank()
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
