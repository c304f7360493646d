"""Independent brute-force implementations used as cross-checks.

Everything here is deliberately naive: plain Python integers and lists, a
separate Gaussian elimination, and a resolution built by raw kernel
iteration over structure constants.  None of it imports the engine's
linear algebra or resolution code, so agreement is a real cross-check.
The exceptions are references for bookkeeping rather than arithmetic:
min_generator_rows (min_generators on dense coordinates) is the reference
generator choice, which eliminates every product of a span with a variable
through the engine's product and elimination, while a resolution step
chooses its generators inside its one elimination; eager_resolution builds
every syzygy as an explicit module from the engine's gmod constructors and
covers it by that choice, pushout_betti builds and resolves a pushout
(resolved_screens does it for each candidate of a search's screen),
eisenbud_chi computes the chain operators from polynomial lifts of the
engine's differentials, realized extends a class's generator images and
reference_lift lifts a class with solve_matrix, both with the engine's
extend_linearly, direct_sum copies two modules' actions into block-diagonal
ones, dual transposes a module's actions into those of its k-dual,
glued_kchi glues a test module with direct_sum and the engine's
quotient_by_span, and tensor_algebra and tensor_module build the inputs of
the Kunneth checks, whose expected values are convolutions of sequences the
engine computes for each factor alone.  solve and solve_matrix solve
through the engine's rref; their particular solution is the one
MinimalFreeResolution.solve must reproduce.  hom_space, ModuleMap and
is_isomorphic read Hom_A(M, N) off the dense variable actions with
kernel_basis, and yoneda_power composes the engine's chain lifts; the
library computes Ext without either.  kernel_basis reads a null space off
the engine's rref, ext_from_realized reads an Ext class off a realized
cocycle, the inverse of realized, and is_zero_class tests its
class_residual.
diff_algebra reads a differential of an engine resolution as a matrix of
algebra elements.  monomial_action multiplies a module's variable actions
with the engine's product, and held_arrays lists the arrays an object
keeps.
"""
from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from itertools import product
from math import comb

import numpy as np


def gauss_rref(rows, p, ncols):
    """Reduced row-echelon form of a list-of-rows matrix over F_p.

    Returns (reduced rows, pivot columns); zero rows end up last.
    """
    rows = [[v % p for v in r] for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows, pivots


def gauss_rank(rows, p):
    """Row-reduce a list of row lists over F_p and return the rank."""
    return len(_pivot_cols(rows, p))


def gauss_nullspace(matrix, p, ncols=None):
    """Null space basis (list of column vectors) of a list-of-rows matrix."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    rows, pivots = gauss_rref(matrix, p, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-rows[r][f]) % p
        basis.append(vec)
    return basis


def matmul_mod(rows, cols, p):
    """Product over F_p of the matrix with the given rows and the matrix with
    the given columns, entry by entry in Python integers."""
    return [[sum(a * b for a, b in zip(row, col)) % p for col in cols] for row in rows]


def element_action(module, a, powers=None):
    """Rows of the matrix by which the algebra element a acts on the module:
    the sum over a's monomials x^e of its coefficient times the product of
    the variable actions, in Python integers.  powers caches x^e by the
    basis index of e."""
    p = module.field.p
    n = module.dim
    powers = {} if powers is None else powers
    out = [[0] * n for _ in range(n)]
    for j, c in enumerate(a.vec.tolist()):
        if not c:
            continue
        if j not in powers:
            power = [[int(r == s) for s in range(n)] for r in range(n)]
            for X, k in zip(module.actions, a.algebra.basis[j]):
                for _ in range(k):
                    power = matmul_mod(X.a.tolist(), [list(col) for col in zip(*power)], p)
            powers[j] = power
        out = [[(o + c * x) % p for o, x in zip(orow, xrow)] for orow, xrow in zip(out, powers[j])]
    return out


# per module, weakly: its variable actions and the monomial actions built so far
_MONOMIAL_ACTIONS = weakref.WeakKeyDictionary()


def monomial_action(module, e):
    """The action of the monomial x^e on the module: the product of its
    variable actions, x_v applied e_v times, with the engine's exact
    product.  Built along the division chain, x^e = x_v x^(e - e_v) for the
    first variable v of e, and kept per module, so each monomial costs one
    product by a variable action."""
    from cxlab.exactla import Mat

    e = tuple(int(a) for a in e)
    if module not in _MONOMIAL_ACTIONS:
        _MONOMIAL_ACTIONS[module] = (module.actions, {(0,) * len(e): Mat.identity(module.field, module.dim)})
    actions, known = _MONOMIAL_ACTIONS[module]
    if e not in known:
        v = next(i for i, a in enumerate(e) if a)
        known[e] = actions[v] @ monomial_action(module, e[:v] + (e[v] - 1,) + e[v + 1:])
    return known[e]


def held_arrays(obj, skip=()):
    """(attribute, shape) of every array among obj's attributes, through
    lists, tuples and dicts, outside the attributes named in skip; other
    objects, a module's algebra or resolution say, are not entered."""
    from cxlab.exactla import Mat

    out = []

    def walk(name, value):
        if isinstance(value, Mat):
            value = value.a
        if isinstance(value, np.ndarray):
            out.append((name, value.shape))
        elif isinstance(value, (list, tuple)):
            for v in value:
                walk(name, v)
        elif isinstance(value, dict):
            for v in value.values():
                walk(name, v)

    for name, value in vars(obj).items():
        if name not in skip:
            walk(name, value)
    return out


def direct_sum(m, n):
    """M (+) N with the block-diagonal actions diag(X_v, Y_v) copied from
    the summands' actions: the reference for gmod.direct_sum, which keeps
    its summands and multiplies through theirs.  A verified module."""
    from cxlab.exactla import Mat
    from cxlab.gmod import Module

    actions = []
    for X, Y in zip(m.actions, n.actions):
        arr = np.zeros((m.dim + n.dim, m.dim + n.dim), dtype=np.int64)
        arr[: m.dim, : m.dim] = X.a
        arr[m.dim :, m.dim :] = Y.a
        actions.append(Mat(m.field, arr))
    return Module(m.algebra, m.degrees + n.degrees, actions, provenance="sum")


def dual(m):
    """N^v = Hom_k(N, k) on the dual basis: x_v sends a functional f to f(x_v
    -), the transposed action, and the dual of a vector of degree d has
    degree -d.  A verified module."""
    from cxlab.gmod import Module

    return Module(m.algebra, [-d for d in m.degrees], [X.transpose() for X in m.actions], provenance="dual")


def regular_module(algebra):
    """A as a module over itself, built from the actions of its variables
    (so its axioms are verified)."""
    from cxlab.gmod import Module
    return Module(algebra, algebra.basis_degrees,
                  [algebra.variable_action(v) for v in range(algebra.nvars)])


def block_action(module, entries, rows, cols):
    """A rows x cols matrix over A acting on N^cols -> N^rows, entry by
    entry: block (i, j) is element_action(module, entries[i][j])."""
    n = module.dim
    out = np.zeros((rows * n, cols * n), dtype=np.int64)
    powers = {}
    for i, row in enumerate(entries):
        for j, a in enumerate(row):
            out[i * n : (i + 1) * n, j * n : (j + 1) * n] = element_action(module, a, powers)
    return out


def gauss_solve(matrix, rhs_cols, p, ncols):
    """The solution X of matrix @ X = rhs whose free coordinates are zero,
    or None when some column of rhs is not in the column space.

    matrix is a list of rows with ncols entries, rhs is given by columns.
    """
    nrhs = len(rhs_cols)
    aug = [row + [col[i] for col in rhs_cols] for i, row in enumerate(matrix)]
    rows, pivots = gauss_rref(aug, p, ncols + nrhs)
    if any(pc >= ncols for pc in pivots):
        return None
    X = [[0] * nrhs for _ in range(ncols)]
    for r, pc in enumerate(pivots):
        X[pc] = rows[r][ncols:]
    return X


def solve(m, b):
    """One exact solution x of m x = b (m a Mat), or None when b is not in
    the column space."""
    from cxlab.errors import InputError
    from cxlab.exactla import Mat

    bv = np.asarray(b, dtype=np.int64) % m.field.p
    if bv.ndim != 1 or bv.shape[0] != m.rows:
        raise InputError(f"right-hand side has {bv.shape} entries, expected {m.rows}")
    X = solve_matrix(m, Mat(m.field, bv.reshape(-1, 1)))
    return None if X is None else X.a[:, 0].copy()


def solve_matrix(m, B):
    """Solve m X = B (Mats) for all columns at once by one rref of [m | B]:
    the solution whose free coordinates are zero, or None when any column
    is unsolvable."""
    from cxlab.errors import InputError
    from cxlab.exactla import Mat, rref

    if B.rows != m.rows:
        raise InputError(f"right-hand side has {B.rows} rows, expected {m.rows}")
    R, pivots, rank = rref(m.hstack(B))
    if any(pc >= m.cols for pc in pivots):
        return None
    X = np.zeros((m.cols, B.cols), dtype=np.int64)
    X[list(pivots)] = R.a[:rank, m.cols :]
    return Mat(m.field, X)


def diff_algebra(res, n):
    """d_n of the resolution res as a matrix of algebra elements."""
    from cxlab.gralg import AlgebraElement

    C = res.diff_coefficients(n)
    A = res.module.algebra
    return [[AlgebraElement(A, C[:, r, g]) for g in range(C.shape[2])] for r in range(C.shape[1])]


def poly_mul(a, b, p):
    """Multiply term dicts {exponent tuple: coeff}."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def monomials(nvars, d):
    if nvars == 0:
        return [()] if d == 0 else []
    return [e for e in product(range(d + 1), repeat=nvars) if sum(e) == d]


def hilbert_by_bruteforce(p, nvars, relations, maxdeg):
    """Degreewise quotient dimensions from raw rank computations.

    relations: list of term dicts, each homogeneous.  Returns dims for
    degrees 0..maxdeg (no early stop).
    """
    dims = []
    for d in range(maxdeg + 1):
        monos = monomials(nvars, d)
        index = {e: i for i, e in enumerate(monos)}
        rows = []
        for g in relations:
            deg_g = sum(next(iter(g)))
            if deg_g > d:
                continue
            for m in monomials(nvars, d - deg_g):
                prod = poly_mul(g, {m: 1}, p)
                row = [0] * len(monos)
                for e, c in prod.items():
                    row[index[e]] = c
                rows.append(row)
        dims.append(len(monos) - gauss_rank(rows, p))
    return dims


def monomial_ci_structure(p, exponents):
    """Basis and multiplication table of k[x]/(pure powers), brute force.

    Returns (basis list of exponent tuples, mult) where mult[i][j] is the
    basis index of the product or None when the product dies.
    """
    basis = [e for e in product(*(range(n) for n in exponents))]
    index = {e: i for i, e in enumerate(basis)}
    mult = []
    for e1 in basis:
        row = []
        for e2 in basis:
            e = tuple(a + b for a, b in zip(e1, e2))
            row.append(index.get(e))
        mult.append(row)
    return basis, mult


def naive_betti_sequence(p, basis, mult, module_actions, steps):
    """Betti numbers by raw kernel iteration.

    module_actions[i] is the matrix (list of rows) of the i-th algebra
    basis element acting on the module; index 0 must be the identity.
    Works with any finite-dimensional module over the structure constants.
    """
    dA = len(basis)
    unit = 0
    positive = [i for i in range(dA) if i != unit]

    def mat_vec(mat, vec):
        return [sum(mat[r][c] * vec[c] for c in range(len(vec))) % p for r in range(len(mat))]

    def regular_action(i):
        # left multiplication by basis element i on the algebra itself
        out = [[0] * dA for _ in range(dA)]
        for j in range(dA):
            k = mult[i][j]
            if k is not None:
                out[k][j] = 1
        return out

    reg = [regular_action(i) for i in range(dA)]
    actions = [[list(r) for r in m] for m in module_actions]
    betti = []
    for _ in range(steps + 1):
        dim = len(actions[0])
        if dim == 0:
            betti.append(0)
            continue
        # minimal generators: complement of the radical image
        rad_rows = []
        for i in positive:
            for c in range(dim):
                rad_rows.append([actions[i][r][c] for r in range(dim)])
        rk = gauss_rank(rad_rows, p)
        # pivot columns of the radical span to pick complement lifts
        pivots = _pivot_cols(rad_rows, p)
        lifts = [c for c in range(dim) if c not in pivots]
        g = dim - rk
        assert len(lifts) == g
        betti.append(g)
        # cover map A^g -> module, basis (gen, algebra basis elt)
        cover = [[0] * (g * dA) for _ in range(dim)]
        for gi, lift in enumerate(lifts):
            e = [0] * dim
            e[lift] = 1
            for ai in range(dA):
                col = gi * dA + ai
                img = mat_vec(actions[ai], e)
                for r in range(dim):
                    cover[r][col] = img[r]
        kernel = gauss_nullspace(cover, p)
        # restrict the free actions to the kernel
        kdim = len(kernel)
        if kdim == 0:
            actions = [[] for _ in range(dA)]
            continue
        kernel_rows = [list(v) for v in kernel]
        free_act = []
        for ai in range(dA):
            blk = [[0] * (g * dA) for _ in range(g * dA)]
            for gi in range(g):
                for r in range(dA):
                    for c in range(dA):
                        blk[gi * dA + r][gi * dA + c] = reg[ai][r][c]
            free_act.append(blk)
        new_actions = []
        for ai in range(dA):
            rows = []
            for v in kernel_rows:
                img = mat_vec(free_act[ai], v)
                coeffs = _solve_in_span(kernel_rows, img, p)
                rows.append(coeffs)
            # rows currently express images per basis vector; transpose
            new_actions.append([[rows[c][r] for c in range(kdim)] for r in range(kdim)])
        actions = new_actions
    return betti


def _pivot_cols(rows, p):
    return gauss_rref(rows, p, len(rows[0]) if rows else 0)[1]


def _solve_in_span(span_rows, target, p):
    """Coefficients expressing target in the span of the rows (must exist)."""
    n = len(span_rows)
    cols = len(target)
    aug = [[span_rows[r][c] for r in range(n)] + [target[c]] for c in range(cols)]
    # solve span^T x = target by elimination
    rank = 0
    pivots = []
    for col in range(n):
        piv = None
        for r in range(rank, cols):
            if aug[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = pow(aug[rank][col] % p, p - 2, p)
        aug[rank] = [(v * inv) % p for v in aug[rank]]
        for r in range(cols):
            if r != rank and aug[r][col] % p:
                f = aug[r][col] % p
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    x = [0] * n
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][n]
    # consistency
    for c in range(cols):
        val = sum(span_rows[r][c] * x[r] for r in range(n)) % p
        assert val == target[c] % p, "target not in span"
    return x


def tate_betti(v, c, n):
    """beta_0..beta_n of k over a complete intersection of embedding
    dimension v and codimension c: the coefficients of (1+t)^v / (1-t^2)^c
    (J. Tate, "Homology of Noetherian rings and local rings", Illinois J.
    Math. 1, 1957), as the sum over the powers t^{2m} of the denominator."""
    return [sum(comb(v, i - 2 * m) * comb(m + c - 1, c - 1) for m in range(i // 2 + 1)) for i in range(n + 1)]


def quadric_ci_betti_closed_form(n, codim=2):
    """Coefficient of t^n in (1-t)^{-codim}."""
    return comb(n + codim - 1, codim - 1)


def min_generators(m, span=None):
    """min_generator_rows on dense coordinates: N is M, or the span of the
    rows of span, a Mat in reduced echelon form; each lift is a coordinate
    vector on M."""
    from cxlab.exactla import _dense, _dict_rows

    rows = [{c: 1} for c in range(m.dim)] if span is None else _dict_rows(span.a)
    return [(_dense([row], m.dim)[0], d) for row, d in min_generator_rows(m, rows)]


def min_generator_rows(m, span):
    """The reference generator choice: a basis of N/mN lifted to
    homogeneous elements of M, with degrees, as (lift, degree) pairs.

    N is the span of the rows of span, dicts {coordinate on M: residue} in
    reduced echelon form, one after the other by pivot column.  Lifts are
    the rows of span themselves at the non-pivot positions of the echelon
    form of mN in the span's coordinates, so the choice is canonical.  mN,
    every product x_v s_q, is eliminated in M's coordinates: a vector of N
    whose first nonzero span coordinate is q has its first nonzero entry at
    the pivot column of row q, as every other row it holds starts later and
    vanishes there, so the pivot columns of mN are those of the rows at its
    pivot positions.  The resolution step makes the same choice inside its
    one elimination, without forming mN."""
    from cxlab.errors import check
    from cxlab.exactla import _sparse_rref
    from cxlab.gmod import _row_degree, multiples_of_rows

    pivots = [min(row, default=-1) for row in span]
    index = {c: q for q, c in enumerate(pivots)}
    # increasing pivots, a 1 at each, and no other entry at any pivot column
    check(all(a < b for a, b in zip(pivots, pivots[1:])) and all(row.get(c) == 1 for row, c in zip(span, pivots))
          and sum(j in index for row in span for j in row) == len(span), "span is not in reduced echelon form")
    # mN is spanned by the products of the rows with each variable, and the
    # order of the rows does not change the pivots of their echelon form
    lead = _sparse_rref(multiples_of_rows(m, span, "variables"), m.field.p, reduced=False)
    return [(row, _row_degree(m, row)) for row, c in zip(span, pivots) if c not in lead]


def eager_resolution(module, n):
    """Minimal resolution to step n, one explicit syzygy module per step.

    Step i takes min_generators of the syzygy K = Omega^i M, built as a
    verified Module by submodule_from_span, and covers it entrywise: column
    (g, m) is monomial_action(K, m) @ images[:, g].  Returns (frees, maps,
    syzygies): maps[0] is the augmentation F_0 -> M and maps[i] the
    realized d_i; syzygies[i] (i >= 1) is the Submodule of F_{i-1}.
    """
    from cxlab.exactla import Mat
    from cxlab.gmod import free_module, submodule_from_span

    A = module.algebra
    K, inc = module, None
    frees, maps, syzygies = [], [], [None]
    for i in range(n + 1):
        gens = min_generators(K)
        images = Mat(A.field, np.array([v for v, _ in gens], dtype=np.int64).reshape(len(gens), K.dim).T)
        cover = np.zeros((K.dim, len(gens), A.dim), dtype=np.int64)
        for mi, mono in enumerate(A.basis):
            cover[:, :, mi] = (monomial_action(K, mono) @ images).a
        eps = Mat(A.field, cover.reshape(K.dim, len(gens) * A.dim))
        frees.append(free_module(A, [d for _, d in gens]))
        maps.append(eps if i == 0 else inc @ eps)
        sub = submodule_from_span(frees[-1], kernel_basis(eps).transpose(), provenance=f"syzygy({i + 1})")
        syzygies.append(sub)
        K, inc = sub.module, sub.inclusion
    return frees, maps, syzygies


def assert_matches_eager(module, n):
    """The engine's resolution of module agrees with eager_resolution to step n:
    augmentation, differentials (realized and over A), syzygies and inclusions."""
    from cxlab.gmod import entry_images, extend_linearly
    from cxlab.resol import resolve, syzygy

    res = resolve(module, n)
    frees, maps, syzygies = eager_resolution(module, n)
    assert res.diff_realized(0) == maps[0]
    for i in range(1, n + 1):
        assert res.free(i).gen_degrees == frees[i].gen_degrees, i
        assert res.diff_realized(i) == maps[i], i
        d = entry_images(module.algebra, diff_algebra(res, i), frees[i - 1].rank, frees[i].rank)
        assert extend_linearly(frees[i - 1], d) == maps[i], i
        S, ref = syzygy(module, i), syzygies[i]
        assert S.degrees == ref.module.degrees, i
        assert S.actions == ref.module.actions, i
        assert res.syzygy_inclusion(i) == ref.inclusion, i


def pushout_betti(eta, window):
    """beta_0..beta_window of the pushout of eta, by building the pushout
    module and resolving it: the reference for yoneda._screen_combinations,
    which reads them off the long exact Tor sequence."""
    from cxlab.resol import resolve
    from cxlab.yoneda import pushout

    return resolve(pushout(eta).module, window).betti_list(window)


def combination(basis, row):
    """The class sum_j row[j] basis[j] of Ext^t(M, M), with plain Python
    integers, its shift that of the first class with a nonzero coefficient."""
    from cxlab.yoneda import ExtElement

    first = basis[0]
    p = first.target.field.p
    rep = [sum(int(c) * int(e.rep[i]) for c, e in zip(row, basis)) % p for i in range(first.rep.size)]
    shift = next(e.shift for c, e in zip(row, basis) if c % p)
    return ExtElement(first.resolution, first.target, first.degree, np.array(rep, dtype=np.int64), shift)


def resolved_screens(res, t, constants, coeffs):
    """What yoneda._screen_combinations returns for the cocycle basis of
    Ext^t(M, M), M resolved by res, by building and resolving the pushout of
    each candidate, the combination of the basis by each row of coeffs."""
    from cxlab.yoneda import cocycle_basis

    basis = cocycle_basis(res.module, res.module, t)
    return [pushout_betti(combination(basis, row), len(constants) - 1) for row in coeffs]


def realized(eta):
    """The representing map of the class eta as a matrix on realized
    coordinates F_t -> N: its generator images extended linearly."""
    from cxlab.gmod import extend_linearly

    return extend_linearly(eta.target, eta.on_generators())


def reference_lift(eta, upto):
    """The realized chain lift theta_i: F_{t+i} -> F_i (i = 0..upto) of eta in
    Ext^t(M, M), each step solved from scratch: the reference for
    yoneda._lift_stack, which solves through factorizations cached on
    the resolution and composes on generators.

    theta_0 solves eps U = eta on the generators of F_t, theta_i solves
    d_i U = theta_{i-1} d_{t+i} on the generators of F_{t+i}, each with
    solve_matrix on the realized matrices, and extend_linearly realizes U.
    """
    from cxlab.exactla import Mat
    from cxlab.gmod import extend_linearly

    res, t, field = eta.resolution, eta.degree, eta.target.field
    res.extend(t + upto)
    thetas = []
    for i in range(upto + 1):
        rhs = realized(eta) if i == 0 else thetas[-1] @ res.diff_realized(t + i)
        d = res.diff_realized(i)
        U = solve_matrix(d, Mat(field, rhs.a[:, res.free(t + i).generator_columns()]))
        assert U is not None, f"no lift through step {i}"
        thetas.append(extend_linearly(res.free(i), U))
    return thetas


def yoneda_power(eta, s):
    """The s-fold Yoneda power of eta in Ext^t(M, M): eta composed with the
    chain lifts theta_t, theta_2t, .., theta_(s-1)t of eta (yoneda._lift_stack)."""
    from cxlab.gmod import extend_linearly
    from cxlab.yoneda import ExtElement, _lift_stack

    if s == 1:
        return eta
    res, t = eta.resolution, eta.degree
    res.extend(s * t + 1)
    lifts = _lift_stack(res, t, eta.on_generators(), (s - 1) * t)
    comp = realized(eta)
    for j in range(1, s):
        comp = comp @ extend_linearly(res.free(j * t), lifts[j * t])
    return ext_from_realized(res, eta.target, s * t, comp, s * eta.shift)


def ext_from_realized(resolution, target, degree, phi, shift):
    """The ExtElement whose realized map F_t -> N is phi: its generator
    columns, one block of N-coordinates per generator; the inverse of
    realized."""
    from cxlab.yoneda import ExtElement

    gens = resolution.free(degree).generator_columns()
    return ExtElement(resolution, target, degree, phi.a[:, gens].T.reshape(-1), shift)


def is_zero_class(eta):
    """True when eta is a coboundary: its class_residual vanishes."""
    return not eta.class_residual().any()


def kernel_basis(m):
    """Matrix whose columns are a basis of the null space {x : m x = 0}, one
    per non-pivot column of rref(m), in increasing order: the canonical
    basis with a 1 at its free column and zeros at the other free columns."""
    from cxlab.exactla import Mat, rref

    R, pivots, rank = rref(m)
    free = sorted(set(range(m.cols)) - set(pivots))
    K = np.zeros((m.cols, len(free)), dtype=np.int64)
    K[free, np.arange(len(free))] = 1
    K[list(pivots)] = -R.a[:rank, free] % m.field.p
    return Mat(m.field, K)


@dataclass
class ModuleMap:
    """A field-linear map source -> target, given by its matrix."""

    source: object
    target: object
    matrix: object

    def is_equivariant(self):
        return all(self.matrix @ X == Y @ self.matrix
                   for X, Y in zip(self.source.actions, self.target.actions))

    def is_invertible(self):
        return self.source.dim == self.target.dim == self.matrix.rank()


def hom_space(m, n):
    """A basis of Hom_A(M, N), the kernel of phi -> (phi X_v - Y_v phi)_v:
    on row-major vec(phi), vec(phi X) = (I (x) X^T) vec(phi) and
    vec(Y phi) = (Y (x) I) vec(phi)."""
    from cxlab.exactla import Mat

    if m.dim == 0 or n.dim == 0:
        return []
    I_M, I_N = np.eye(m.dim, dtype=np.int64), np.eye(n.dim, dtype=np.int64)
    rows = [np.kron(I_N, X.a.T) - np.kron(Y.a, I_M) for X, Y in zip(m.actions, n.actions)]
    K = kernel_basis(Mat(m.field, np.vstack(rows + [np.zeros((0, n.dim * m.dim), dtype=np.int64)])))
    return [ModuleMap(m, n, Mat(m.field, K.a[:, j].reshape(n.dim, m.dim))) for j in range(K.cols)]


@dataclass
class IsoVerdict:
    kind: str  # "yes", "structurally_distinct" or the inconclusive "no_witness_found"
    witness: object = None


def is_isomorphic(m, n, seed=0, attempts=64):
    """Search for an invertible A-linear map M -> N: none exists when the
    graded dimensions or the minimal generator counts differ; else the Hom
    basis maps, then `attempts` seeded random combinations of them, are tried."""
    from cxlab.exactla import Mat

    if m.hilbert() != n.hilbert() or len(min_generators(m)) != len(min_generators(n)):
        return IsoVerdict("structurally_distinct")
    basis = hom_space(m, n)
    rng = random.Random(seed)
    rows = [[int(i == j) for j in range(len(basis))] for i in range(len(basis))]
    rows += [[rng.randrange(m.field.p) for _ in basis] for _ in range(attempts)]
    for row in rows:
        phi = Mat.zeros(m.field, n.dim, m.dim)
        for c, h in zip(row, basis):
            phi = phi + h.matrix.scale(c)
        if phi.rank() == m.dim:
            return IsoVerdict("yes", ModuleMap(m, n, phi))
    return IsoVerdict("no_witness_found")


def eisenbud_chi(ci, res, max_degree):
    """The degree-two chain operators over the monomial complete intersection
    ci, computed entry by entry from polynomials: the reference for
    cioper._chi_images, which works on coefficient slices.

    Each d_i lifts to {exponent: coefficient} dicts over the standard
    monomials; each entry of the product of the lifts of d_{n-1} and d_n is
    split monomial by monomial, x^e going to the lowest j with e_j >= n_j
    as x^(e - n_j e_j), whose normal form (nf_monomial) is the entry's part
    of chi_j.  Returns {(j, n): realized matrix F_n -> F_{n-2}}, j 1-based.
    """
    from cxlab.gmod import entry_images, extend_linearly
    from cxlab.gralg import AlgebraElement

    A, p, exps = ci.algebra, ci.field.p, ci.exponents
    lifts = {i: [[{A.basis[m]: int(c) for m, c in enumerate(a.vec) if c} for a in row]
                 for row in diff_algebra(res, i)] for i in range(1, max_degree + 1)}
    out = {}
    for n in range(2, max_degree + 1):
        rows, mid, cols = res.betti(n - 2), res.betti(n - 1), res.betti(n)
        parts = [[[np.zeros(A.dim, dtype=np.int64) for _ in range(cols)] for _ in range(rows)] for _ in exps]
        for r in range(rows):
            for g in range(cols):
                square = {}
                for s in range(mid):
                    for e, c in poly_mul(lifts[n - 1][r][s], lifts[n][s][g], p).items():
                        square[e] = (square.get(e, 0) + c) % p
                for e, c in square.items():
                    if not c:
                        continue
                    j = next((j for j, nj in enumerate(exps) if e[j] >= nj), None)
                    assert j is not None, f"monomial {e} outside the relation ideal"
                    quotient = e[:j] + (e[j] - exps[j],) + e[j + 1:]
                    parts[j][r][g] = (parts[j][r][g] + c * A.nf_monomial(quotient)) % p
        for j, part in enumerate(parts):
            entries = [[AlgebraElement(A, v) for v in row] for row in part]
            out[(j + 1, n)] = extend_linearly(res.free(n - 2), entry_images(A, entries, rows, cols))
    return out


def glued_kchi(ci, j):
    """The test module k_chi_j glued by hand from k and the first syzygy of
    the ambient regular sequence: the reference for cioper.build_kchi, which
    builds it as the pushout cut of k along chi_j.

    Realizes m_Q/(f)m_Q concretely: basis = nonconstant standard monomials
    plus one class e_i per relation x_i^{n_i}; a variable action either stays
    standard, hits a pure power exactly (landing on e_i), or dies.  The glued
    quotient fits the four-term sequence 0 -> k -> K -> A -> k -> 0, which is
    checked by ranks.
    """
    from cxlab.exactla import Mat
    from cxlab.gmod import Module, quotient_by_span

    A, p, c = ci.algebra, ci.field.p, ci.codim
    nonconst = [e for e in A.basis if sum(e) > 0]
    dW = len(nonconst) + c
    pos = {e: i for i, e in enumerate(nonconst)}
    degrees = [sum(e) for e in nonconst] + list(ci.exponents)
    actions = []
    for l in range(A.nvars):
        arr = np.zeros((dW, dW), dtype=np.int64)
        for e, col in pos.items():
            ee = e[:l] + (e[l] + 1,) + e[l + 1:]
            if ee in pos:
                arr[pos[ee], col] = 1
            else:
                hits = [i for i, n in enumerate(ci.exponents)
                        if ee[i] == n and all(ee[s] == 0 for s in range(c) if s != i)]
                if hits:
                    arr[len(nonconst) + hits[0], col] = 1
                # otherwise x_l * e lies in (f) m_Q and the class is zero
        actions.append(Mat(ci.field, arr))
    W = Module(A, degrees, actions, provenance="ambient_syzygy")
    k_shifted = Module(A, [ci.exponents[j - 1]], [Mat.zeros(ci.field, 1, 1)] * A.nvars, provenance="k")
    D = direct_sum(k_shifted, W)
    span = np.zeros((c, D.dim), dtype=np.int64)
    for i in range(c):
        if i == j - 1:
            span[i, 0] = 1
        span[i, 1 + len(nonconst) + i] = (-1) % p
    quot = quotient_by_span(D, Mat(ci.field, span), provenance=f"kchi_{j}")
    K = quot.module
    assert K.dim == A.dim, "glued test module must have the dimension of the algebra"
    # four-term exactness 0 -> k -> K -> A -> k -> 0, checked by ranks
    first = quot.projection @ Mat(ci.field, np.eye(D.dim, dtype=np.int64)[:, :1])
    FA = np.zeros((A.dim, D.dim), dtype=np.int64)
    for e, col in pos.items():
        FA[A.basis_index[e], 1 + col] = 1
    g = Mat(ci.field, FA) @ quot.lift
    h = np.zeros((1, A.dim), dtype=np.int64)
    h[0, 0] = 1
    rank_g = gauss_rank(g.a.tolist(), p)
    assert gauss_rank(first.a.tolist(), p) == 1, "k does not embed into the glued module"
    assert not (g @ first).a.any(), "composite k -> A is nonzero"
    assert K.dim - rank_g == 1, "exactness fails at the glued module"
    assert not ((h @ g.a) % p).any(), "composite K -> k is nonzero"
    assert rank_g == A.dim - 1, "exactness fails at the free slot"
    assert gauss_rank(h.tolist(), p) == 1, "A does not surject onto k"
    return K


# -- Kunneth: tensor products over disjoint sets of variables -----------------
#
# For M over A and N over B, the tensor product of minimal resolutions of M
# and N is a minimal resolution of M (x)_k N over A (x)_k B, so its Betti
# numbers are the convolution of theirs, and Ext_{A(x)B}(M (x) N, M' (x) N')
# is the convolution of the two Ext tables (L. L. Avramov, "Infinite free
# resolutions", 1998).


def tensor_algebra(A, B):
    """A (x)_k B: the variables of A, then those of B, renamed apart, and the
    relations of both, each padded with zero exponents on the other side."""
    from cxlab.gralg import Polynomial, build_algebra

    nA, nB = A.nvars, B.nvars
    rels = [Polynomial(A.field, nA + nB, {e + (0,) * nB: c for e, c in g.terms}) for g in A.relations]
    rels += [Polynomial(A.field, nA + nB, {(0,) * nA + e: c for e, c in g.terms}) for g in B.relations]
    names = [f"{v}_a" for v in A.varnames] + [f"{v}_b" for v in B.varnames]
    return build_algebra(A.field, nA + nB, rels, varnames=names)


def tensor_module(M, N, AB):
    """M (x)_k N over AB = tensor_algebra(M.algebra, N.algebra), basis
    (i, j) in kron order: A's variables act as kron(X, I), B's as kron(I, Y).
    Built as a verified Module, so the axioms are checked, not assumed."""
    from cxlab.exactla import Mat
    from cxlab.gmod import Module

    I_M = np.eye(M.dim, dtype=np.int64)
    I_N = np.eye(N.dim, dtype=np.int64)
    actions = [Mat(AB.field, np.kron(X.a, I_N)) for X in M.actions]
    actions += [Mat(AB.field, np.kron(I_M, Y.a)) for Y in N.actions]
    degrees = [dm + dn for dm in M.degrees for dn in N.degrees]
    return Module(AB, degrees, actions, provenance="tensor")


def convolve(a, b):
    """c_n = sum over i + j = n of a_i b_j, for n < min(len(a), len(b))."""
    n = min(len(a), len(b))
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n)]
