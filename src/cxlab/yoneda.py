"""Ext/Tor tables, cocycle representatives, pushout extensions and the
complexity-reduction search.

Ext classes are held at the chain level: a degree-t class is a cocycle
F_t -> N, identified modulo maps factoring through d_t.  That makes the
search's chain lifts a matter of solving on generators and lets a pushout
materialize the corresponding extension on demand.  Cocycle representatives
are chosen per internal degree shift, so every constructed extension module
stays graded.
"""
from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import InputError, check
from .exactla import Mat, _dense, _dict_rows, _sparse_rref, kernel_rref, rref
from .gmod import Module, action_rows, compose_sparse, direct_sum, multiples_of_rows, quotient_by_span, shift
from .gralg import is_gorenstein
from .resol import ComplexityEstimate, MinimalFreeResolution, estimate_complexity, resolve

__all__ = [
    "Verdict",
    "ExtElement",
    "PushoutExtension",
    "ReductionStep",
    "ReductionSequence",
    "ext_table",
    "tor_table",
    "cocycle_basis",
    "pushout",
    "find_reducing_element",
    "reduction_sequence",
    "window_vanishing_check",
    "self_ext_pd_check",
    "symmetry_check",
]

DEFAULT_WINDOW = 20
DEFAULT_STAB = 4
DEFAULT_TAIL = 6


@dataclass
class Verdict:
    """Serializable outcome of a check; params always record the window used."""

    kind: str
    ok: bool
    params: dict
    witness: Optional[dict] = None
    note: str = ""

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "params": self.params,
            "witness": self.witness,
            "note": self.note,
        }


# -- realized Hom and tensor complexes ---------------------------------------


def _hom_shifts(res: MinimalFreeResolution, n: Module, i: int) -> np.ndarray:
    """Internal degree shift of each coordinate of Hom(F_i, N)."""
    # coordinate g * dN + b pairs generator g of F_i with basis vector b of N
    gen = np.asarray(res.free(i).gen_degrees, dtype=np.int64)
    return (np.asarray(n.degrees, dtype=np.int64)[None, :] - gen[:, None]).reshape(-1)


def _hom_differential(res: MinimalFreeResolution, n: Module, i: int) -> Mat:
    """delta^i : Hom(F_i, N) -> Hom(F_{i+1}, N), phi -> phi o d_{i+1}: the
    rows _table eliminates for Ext, written dense."""
    rank = res.free(i).rank
    return Mat._trusted(n.field, _dense(action_rows(n, res.diff_lifts(i + 1), rank, hom=True), rank * n.dim))


# The ranks of the differentials found so far, per resolution and target
# module: of delta^i = Hom(d_{i+1}, N) for Ext, of d_{i+1} (x) N for Tor,
# i = 0, 1, ...  Ranks only, no matrices.  Weak on both keys, so an entry
# goes away with its resolution or its target.
_RANKS: "weakref.WeakKeyDictionary[MinimalFreeResolution, weakref.WeakKeyDictionary]" = \
    weakref.WeakKeyDictionary()


def _table(functor: str, m: Module, n: Module, max_degree: int) -> List[int]:
    """dim_k of Ext^i_A(M, N) (functor "Ext", via Hom(F_., N)) or of
    Tor_i^A(M, N) ("Tor", via F_. (x) N) for i = 0..max_degree.

    Both complexes have dimension rank F_i * dim N in degree i, so each
    group is that minus the ranks of the two differentials at degree i
    (delta^{i-1} and delta^i, or d_i (x) 1 and d_{i+1} (x) 1, the one at
    i = 0 being zero).  Each differential is built as sparse rows straight
    from the lifts the resolution keeps (gmod.action_rows, in the Hom or
    the tensor orientation), and its rank is one echelon pass over them,
    with no dense array.  The ranks come from _RANKS: a table extends the
    prefix it needs, so each differential is built once per resolution and
    target.
    """
    if m.algebra is not n.algebra:
        raise InputError(f"{functor} between modules over different algebras")
    res = resolve(m, max_degree + 1)
    if n.dim == 0 or m.dim == 0:
        return [0] * (max_degree + 1)
    by_target = _RANKS.setdefault(res, weakref.WeakKeyDictionary())
    ranks = by_target.setdefault(n, {"Ext": [], "Tor": []})[functor]
    while len(ranks) <= max_degree:
        i = len(ranks)
        rows = action_rows(n, res.diff_lifts(i + 1), res.free(i).rank, hom=functor == "Ext")
        ranks.append(len(_sparse_rref(rows, n.field.p, reduced=False)))
    at = [0] + ranks
    return [res.free(i).rank * n.dim - at[i] - at[i + 1] for i in range(max_degree + 1)]


def ext_table(m: Module, n: Module, max_degree: int) -> List[int]:
    """dim_k Ext^i_A(M, N) for i = 0..max_degree, via Hom(F_., N)."""
    return _table("Ext", m, n, max_degree)


def tor_table(m: Module, n: Module, max_degree: int) -> List[int]:
    """dim_k Tor_i^A(M, N) for i = 0..max_degree, via F_. (x) N."""
    return _table("Tor", m, n, max_degree)


# -- cocycles -----------------------------------------------------------------


def _reduce_mod_rows(v: np.ndarray, echelon) -> np.ndarray:
    """v, a reduced vector or a matrix of reduced rows, reduced modulo the
    row space of a reduced echelon form (R, pivots, rank): v - v[pivots]·R.

    R is the identity at its pivot columns, so this is what clearing the
    pivot columns of v one row of R at a time gives.
    """
    R, pivots, rank = echelon
    V = np.atleast_2d(v)
    coefficients = Mat._trusted(R.field, V[:, list(pivots)])
    return ((V - (coefficients @ Mat._trusted(R.field, R.a[:rank])).a) % R.field.p).reshape(v.shape)


@dataclass
class ExtElement:
    """A class in Ext^t(M, N) held as a cocycle F_t -> N.

    rep is the coordinate vector of the representing map on the generators
    of F_t (one block of N-coordinates per generator); shift is its internal
    degree as a graded map.  The cocycle condition rep o d_{t+1} = 0 is
    checked at construction, on the generators of F_{t+1}: both maps are
    A-linear, so the composite vanishes when its generator images do.
    """

    resolution: MinimalFreeResolution
    target: Module
    degree: int
    rep: np.ndarray
    shift: int

    def __post_init__(self):
        if self.degree < 1:
            raise InputError("Ext elements live in positive degrees")
        self.rep = np.asarray(self.rep, dtype=np.int64) % self.target.field.p
        size = self.resolution.free(self.degree).rank * self.target.dim
        if self.rep.shape != (size,):
            raise InputError(f"cocycle vector of shape {self.rep.shape}, expected ({size},)")
        # the images are one sum over the monomials of d_{t+1}; its terms
        # need not vanish one by one
        phi = _dict_rows(self.rep.reshape(self.resolution.free(self.degree).rank, self.target.dim))
        check(not any(compose_sparse(self.target, phi, self.resolution.diff_lifts(self.degree + 1))),
              "not a cocycle")

    @property
    def source(self) -> Module:
        return self.resolution.module

    def on_generators(self) -> Mat:
        """The representing map on the generators of F_t, one column each."""
        return _side_by_side(self.rep[None], self.resolution.free(self.degree).rank, self.target)

    def class_residual(self) -> np.ndarray:
        """Canonical coset representative: rep reduced modulo coboundaries."""
        return _reduce_mod_rows(self.rep, _coboundary_echelon(
            _hom_differential(self.resolution, self.target, self.degree - 1)))

    def describe(self) -> dict:
        return {"degree": self.degree, "shift": self.shift}


def _coboundary_echelon(delta_prev: Mat):
    """Reduced echelon form (R, pivots, rank) of the coboundaries in
    Hom(F_t, N), the image of delta_prev = delta^{t-1}."""
    return rref(delta_prev.transpose())


def cocycle_basis(m: Module, n: Module, t: int) -> List[ExtElement]:
    """Canonical representatives of a basis of Ext^t(M, N) (see
    _cocycle_classes), each an ExtElement that checks its cocycle condition."""
    reps, shifts, _, _ = _cocycle_classes(m, n, t)
    res = resolve(m, t + 1)
    return [ExtElement(res, n, t, rep, s) for rep, s in zip(reps, shifts)]


def _cocycle_classes(m: Module, n: Module, t: int, delta_prev: Optional[Mat] = None):
    """Canonical representatives of a basis of Ext^t(M, N) as the rows of
    one matrix, their shifts, the reduced echelon form of the coboundaries
    they were reduced by, and delta^t (no rows, None and None when M or N is
    zero).  delta_prev is delta^{t-1} when the caller holds it (a search
    hands on the delta^t of the degree before); otherwise it is built here.

    The reduced echelon basis of the cocycles (the kernel of delta^t),
    reduced modulo the coboundaries, spans a complement of them; its own
    reduced echelon basis gives the representatives, ordered by shift and,
    within a shift, by pivot column.  The Hom differentials preserve the
    internal degree, and the reduced echelon basis of a graded subspace
    consists of homogeneous vectors, so every representative is a
    homogeneous graded map; this is what allows pushout modules to stay
    graded.

    No row is checked here: cocycle_basis wraps them into ExtElements, which
    check one each, and a search's stacked lift (_lift_stack) proves them all.
    """
    if t < 1:
        raise InputError("cocycle_basis needs t >= 1")
    if m.algebra is not n.algebra:
        raise InputError("modules over different algebras")
    res = resolve(m, t + 1)
    if m.dim == 0 or n.dim == 0:
        return np.zeros((0, 0), dtype=np.int64), [], None, None
    if delta_prev is None:
        delta_prev = _hom_differential(res, n, t - 1)
    delta_t = _hom_differential(res, n, t)
    rank_t, cocycles, _ = kernel_rref(delta_t)
    coboundaries = _coboundary_echelon(delta_prev)
    R, pivots, _ = rref(Mat._trusted(m.field, _reduce_mod_rows(cocycles.a, coboundaries)))
    shifts = _hom_shifts(res, n, t)[list(pivots)]
    order = np.argsort(shifts, kind="stable")
    expected = delta_t.cols - rank_t - coboundaries[2]
    check(len(order) == expected, f"cocycle count {len(order)} != ext dimension {expected}")
    return R.a[order], [int(shifts[j]) for j in order], coboundaries, delta_t


# -- chain lifting and pushouts -----------------------------------------------


def _side_by_side(reps: np.ndarray, rank: int, n: Module) -> Mat:
    """The generator images of k maps F -> N, F free of the given rank, their
    coordinate vectors (one block of N-coordinates per generator) the rows
    of reps, side by side: map j in columns j * rank .. (j + 1) * rank - 1."""
    k = reps.shape[0]
    return Mat._trusted(n.field, reps.reshape(k, rank, n.dim).transpose(2, 0, 1).reshape(n.dim, k * rank))


def _lift_stack(res: MinimalFreeResolution, t: int, images: Mat, upto: int) -> List[List[dict]]:
    """Lift k cocycles of Ext^t(M, M), their generator images side by side
    in images, to chain maps theta_i: F_{t+i} -> F_i, i = 0..upto, each
    given by its generator images U_i, sparse columns on F_i, the k classes
    side by side.

    theta_i is the A-linear map with those images, so it is a module map,
    and the chain identity d_i theta_i = theta_{i-1} d_{t+i} (eps theta_0 =
    eta at i = 0) holds because both sides agree on generators: U_i solves
    d_i U_i = theta_{i-1} d_{t+i} on generators, the compose_sparse of each
    class's block of U_{i-1} with the kept lifts of d_{t+i}, in class order,
    so block j of every U_i is the lift of class j alone; each solve checks
    d_i U_i on every column.

    The stack is the cocycle proof of its classes (upto >= 1): eps theta_0 =
    eta, so theta_0 d_{t+1} lies in im d_1 = ker eps exactly when eta d_{t+1}
    = 0, and otherwise the solve through d_1 raises InvariantError.
    """
    res.extend(t + upto)
    k = images.cols // max(res.free(t).rank, 1)
    lifts = [res.solve(0, _dict_rows(images.a.T))]
    for i in range(1, upto + 1):
        r, d = res.free(t + i - 1).rank, res.diff_lifts(t + i)
        lifts.append(res.solve(i, [u for j in range(k)
                                   for u in compose_sparse(res.free(i - 1), lifts[-1][j * r:(j + 1) * r], d)]))
    return lifts


def pushout(eta: ExtElement) -> "PushoutExtension":
    """The extension 0 -> N -> K -> Omega^{t-1}(M) -> 0 classified by eta.

    K is the quotient of N (+) F_{t-1} by the graph of (phi, -d_t) over F_t,
    phi the representing map, as sparse rows: the multiples of phi's
    generator images beside those of the kept lifts of d_t, negated; N is
    shifted so that K is graded.  K -> F_{t-1}/im d_t is onto and kills N,
    and its kernel is the image of N, since (n, d_t x) is (n + phi x, 0)
    modulo the graph.  So the sequence is exact exactly when N embeds,
    i.e. when ker d_t lies in ker phi (the cocycle condition, as
    ker d_t = im d_{t+1}), and that holds exactly when the graph has
    dimension rank d_t: when dim K = dim N + dim F_{t-1} - rank d_t, the
    one identity checked.  rank d_t is read off the exactness the
    resolution proved: rank d_0 = dim M (the augmentation is onto) and
    rank d_{i+1} = dim F_i - rank d_i.
    """
    res, t, N = eta.resolution, eta.degree, eta.target
    F_prev, N_shifted, p = res.free(t - 1), shift(N, -eta.shift), N.field.p
    phi = _dict_rows(eta.rep.reshape(res.free(t).rank, N.dim))
    # the graph's rows: m phi(e_g) on N, over -m d_t(e_g) on F_{t-1}
    graph = [{**top, **{N.dim + c: p - w for c, w in bottom.items()}}
             for top, bottom in zip(multiples_of_rows(N_shifted, phi, "basis"),
                                    multiples_of_rows(F_prev, res.diff_lifts(t), "basis"))]
    K = quotient_by_span(direct_sum(N_shifted, F_prev), graph, provenance="pushout").module
    rank_d = res.module.dim
    for i in range(t):
        rank_d = res.free(i).dim - rank_d
    check(K.dim == N.dim + F_prev.dim - rank_d, "N does not embed in the pushout: not a cocycle")
    return PushoutExtension(eta, K)


@dataclass
class PushoutExtension:
    """The short exact sequence materialized from an Ext class: the class
    and the middle module K."""

    eta: ExtElement
    module: Module


# -- reduction of complexity ---------------------------------------------------


def _estimate(module: Module, window: int) -> ComplexityEstimate:
    return estimate_complexity(resolve(module, window).betti_list(window), DEFAULT_STAB)


def _constant_stacks(res: MinimalFreeResolution, t: int, lifts: List[List[dict]]) -> List[np.ndarray]:
    """theta_n (x) k for each of the k classes of a stacked lift (_lift_stack),
    n = 0..len(lifts) - 1: the constant coefficients of theta_n over A, the
    terms of U_n at the generator columns of F_n, the keys g dim A, as a (k,
    r_n, r_{t+n}) stack."""
    dA = res.module.algebra.dim
    rows = ([{key // dA: c for key, c in u.items() if not key % dA} for u in U] for U in lifts)
    return [_dense(G, res.free(n).rank).reshape(-1, res.free(t + n).rank, res.free(n).rank).transpose(0, 2, 1)
            for n, G in enumerate(rows)]


def _screen_combinations(res: MinimalFreeResolution, t: int, constants: List[np.ndarray],
                         coeffs: np.ndarray) -> List[List[int]]:
    """beta_0..beta_window of the pushout of each class sum_j coeffs[c, j]
    eta_j of Ext^t(M, M), M resolved by res, one per row c of coeffs,
    without building it; constants are the stacked theta_n (x) k of the
    classes eta_j (_constant_stacks), window = len(constants) - 1.  The rows
    of the identity screen the classes eta_j.

    The pushout K sits in 0 -> M -> K -> Omega^{t-1}(M) -> 0, whose
    connecting map Tor_{n+1}(Omega^{t-1}M, k) = Tor_{n+t}(M, k) -> Tor_n(M, k)
    is eta itself, i.e. theta_n (x) k for the chain lift theta_n: F_{n+t} -> F_n
    (P. A. Bergh, "Modules with reducible complexity", J. Algebra 2007).
    With minimal resolutions the long exact sequence gives
    beta_n(K) = beta_n(M) + beta_{n+t-1}(M) - rk(theta_n (x) k) - rk(theta_{n-1} (x) k),
    with theta_{-1} = 0.

    The canonical lift is linear in the class: solve returns X[Q] = E B[pivots]
    with zeros elsewhere, and compose_sparse is linear in the map it composes.
    So theta_n (x) k of a combination is the same combination of the basis
    classes' layers, one exact product by coeffs per step.
    """
    field = res.module.field
    C = Mat(field, coeffs)

    def layer_ranks(L: np.ndarray) -> List[int]:
        # most layers are zero: one with no nonzero entry has rank 0, and no
        # Mat is built for it, nor for a stack of them
        if not L.any():
            return [0] * C.rows
        layers = (C @ Mat._trusted(field, L.reshape(L.shape[0], -1))).a.reshape((C.rows,) + L.shape[1:])
        return [Mat._trusted(field, a).rank() if a.any() else 0 for a in layers]

    window = len(constants) - 1
    ranks = [[0] * C.rows] + [layer_ranks(L) for L in constants]
    betti = res.betti_list(t + window - 1)
    return [[betti[n] + betti[n + t - 1] - ranks[n + 1][j] - ranks[n][j] for n in range(window + 1)]
            for j in range(C.rows)]


QUICK_WINDOW = 8
QUICK_STAB = 3


def find_reducing_element(m: Module, max_search_degree: int = 8, *, seed: int = 0, budget: int = 200,
                          window: int = DEFAULT_WINDOW) -> Optional[Tuple[ExtElement, PushoutExtension, ComplexityEstimate]]:
    """Search Ext^t(M, M), t = 1..max_search_degree, for a class whose pushout
    drops the complexity estimate by exactly one.

    A degree's candidates are the rows of a coefficient matrix over its
    cocycle representatives (_cocycle_classes): first the identity, then,
    when none of them wins, seeded random combinations within one internal
    shift (a per-degree budget applies).  Each batch takes one path.  Its
    classes are reduced modulo the coboundaries together; scalar multiples
    and cohomologous candidates are dropped through their normalized
    residues.  The fresh ones are screened on a short Betti window of their
    pushout, read off the resolution of M through the long exact Tor
    sequence without building the pushout (_screen_combinations), as
    combinations of the representatives' layers in one stacked chain lift
    (_lift_stack), which also proves them all cocycles.  Candidates are
    then evaluated in order, and only one that passes the screen becomes
    an ExtElement, is pushed out and is confirmed on the full window, so
    the returned estimate always uses the full window; its resolution also
    re-checks the screen's Betti numbers.  Returns None when nothing is
    found within the budget; that is a statement about the search, never
    about the module.
    """
    res = resolve(m, window)
    est_m = estimate_complexity(res.betti_list(window), DEFAULT_STAB)
    if not est_m.stabilized or est_m.value < 1:
        raise InputError("find_reducing_element needs a stabilized estimate >= 1")
    target = est_m.value - 1
    rng = random.Random(seed)
    field = m.field
    p = field.p

    def batches(shifts: List[int]):
        """(coefficient rows, the shift of each row); the random rows are
        drawn only when asked for, and rng serves only these draws, in this
        order."""
        yield np.eye(len(shifts), dtype=np.int64), shifts
        by_shift: Dict[int, List[int]] = {}
        for j, s in enumerate(shifts):
            by_shift.setdefault(s, []).append(j)
        keys = sorted(by_shift)
        rows, row_shifts = [], []
        for _ in range(budget):
            s_key = keys[rng.randrange(len(keys))]
            group = by_shift[s_key]
            coeffs = [rng.randrange(p) for _ in group]
            # a row with one nonzero coefficient is a multiple of one
            # representative, whose class the identity batch has already seen
            if len(coeffs) - coeffs.count(0) >= 2:
                rows.append(np.zeros(len(shifts), dtype=np.int64))
                rows[-1][group] = coeffs
                row_shifts.append(s_key)
        if rows:
            yield np.array(rows), row_shifts

    delta = None  # delta^{t-1}, handed on from the degree before
    for t in range(1, max_search_degree + 1):
        # every candidate of degree t is reduced modulo the coboundaries
        # that reduced the representatives
        reps, shifts, coboundaries, delta = _cocycle_classes(m, m, t, delta)
        if not shifts:
            continue
        lifts = _lift_stack(res, t, _side_by_side(reps, res.free(t).rank, m), QUICK_WINDOW)
        constants = _constant_stacks(res, t, lifts)
        seen = set()
        for C, row_shifts in batches(shifts):
            classes = (Mat._trusted(field, C) @ Mat._trusted(field, reps)).a
            # a zero class or a repeat is dropped before it is screened
            keep = []
            for c, v in enumerate(_reduce_mod_rows(classes, coboundaries)):
                nz = np.nonzero(v)[0]
                if nz.size == 0:
                    continue
                key = ((v * field.inv(int(v[nz[0]]))) % p).tobytes()
                if key not in seen:
                    seen.add(key)
                    keep.append(c)
            for c, screen in zip(keep, _screen_combinations(res, t, constants, C[keep])):
                quick = estimate_complexity(screen, QUICK_STAB)
                if quick.stabilized and quick.value != target:
                    continue
                eta = ExtElement(res, m, t, classes[c], row_shifts[c])
                push = pushout(eta)
                full = _estimate(push.module, window)
                check(resolve(push.module, QUICK_WINDOW).betti_list(QUICK_WINDOW) == screen,
                      "pushout Betti numbers differ from the long exact Tor sequence")
                if full.stabilized and full.value == target:
                    return eta, push, full
                # the loser and its cached resolution refer to each other; dropping
                # the resolution now frees both here, not at the next cyclic collection
                push.module._resolution = None
    return None


@dataclass
class ReductionStep:
    module: Module
    eta: Optional[ExtElement]
    cut_degree: Optional[int]   # n_i = |eta| - 1
    estimate: ComplexityEstimate

    def to_jsonable(self) -> dict:
        return {
            "dim": self.module.dim,
            "eta": self.eta.describe() if self.eta else None,
            "cut_degree": self.cut_degree,
            "estimate": self.estimate.to_jsonable(),
        }


@dataclass
class ReductionSequence:
    """Chain M = K_0, K_1, ..., K_c with estimated complexity dropping by one
    per step and reaching zero."""

    steps: List[ReductionStep]

    @property
    def length(self) -> int:
        return len(self.steps)

    def window_sum(self) -> int:
        return sum(s.cut_degree for s in self.steps[1:])

    def to_jsonable(self) -> dict:
        return {"steps": [s.to_jsonable() for s in self.steps]}


def reduction_sequence(m: Module, max_search_degree: int = 8, *, seed: int = 0,
                       window: int = DEFAULT_WINDOW) -> Tuple[Optional[ReductionSequence], List[str]]:
    """Iterate find_reducing_element until the estimate reaches zero.

    Returns (sequence, transcript); the sequence is None when some step
    fails, with the transcript recording how far the search got.
    """
    transcript: List[str] = []
    est = _estimate(m, window)
    steps = [ReductionStep(m, None, None, est)]
    transcript.append(f"start: estimate {est.value} (stabilized={est.stabilized})")
    if not est.stabilized:
        transcript.append("initial estimate not stabilized; aborting")
        return None, transcript
    cur = m
    while steps[-1].estimate.value > 0:
        found = find_reducing_element(cur, max_search_degree, seed=seed, window=window)
        if found is None:
            transcript.append(
                f"no reducing class found for step {len(steps)} within degree {max_search_degree}"
            )
            return None, transcript
        eta, push, est_k = found
        transcript.append(
            f"step {len(steps)}: degree {eta.degree} shift {eta.shift} -> estimate {est_k.value}"
        )
        steps.append(ReductionStep(push.module, eta, eta.degree - 1, est_k))
        cur = push.module
    return ReductionSequence(steps), transcript


# -- vanishing checks ----------------------------------------------------------


def _check_tail(max_degree: int):
    """The last DEFAULT_TAIL degrees of the window 0..max_degree are positive."""
    if max_degree < DEFAULT_TAIL:
        raise InputError(f"max_degree {max_degree} is shorter than the tail of {DEFAULT_TAIL} degrees")


def window_vanishing_check(m: Module, reduction: ReductionSequence, n: Module, t: int,
                           max_degree: int = DEFAULT_WINDOW, use_tor: bool = False) -> Verdict:
    """Window-implies-tail vanishing check.

    If the groups vanish on the window [t, t + n_1 + ... + n_c], they must
    vanish in every positive degree up to max_degree; a violation would
    falsify the implementation, not the underlying theory.
    """
    if t <= 0:
        raise InputError("window start must be positive (depth 0 everywhere)")
    win = reduction.window_sum()
    if max_degree < t + win:
        raise InputError(f"max_degree {max_degree} too small for window ending at {t + win}")
    table = tor_table(m, n, max_degree) if use_tor else ext_table(m, n, max_degree)
    params = {
        "t": t,
        "window_length": win + 1,
        "max_degree": max_degree,
        "functor": "Tor" if use_tor else "Ext",
        "table": table,
    }
    bad = [i for i in range(t, t + win + 1) if table[i] != 0]
    if bad:
        return Verdict("window_not_vanishing", True, params,
                       witness={"degree": bad[0], "dim": table[bad[0]]},
                       note="premise fails, nothing to conclude")
    violations = [i for i in range(1, max_degree + 1) if table[i] != 0]
    if violations:
        return Verdict("violation", False, params,
                       witness={"degree": violations[0], "dim": table[violations[0]]},
                       note="window vanished but the tail did not; implementation error")
    return Verdict("confirmed", True, params, note="window vanishing propagates to all positive degrees")


def self_ext_pd_check(m: Module, max_degree: int = DEFAULT_WINDOW) -> Verdict:
    """Consistency of self-extension vanishing with freeness.

    Over an Artinian local ring finite projective dimension means free, so
    Ext^i(M, M) = 0 for 1 <= i <= max_degree must co-occur with beta_1 = 0.
    """
    if max_degree < 1:
        raise InputError(f"max_degree {max_degree} leaves no positive degree to check")
    table = ext_table(m, m, max_degree)
    beta1 = resolve(m, 1).betti(1)
    vanishing = all(v == 0 for v in table[1:])
    free = beta1 == 0
    params = {"max_degree": max_degree, "table": table, "beta_1": beta1}
    if vanishing and not free:
        return Verdict("violation", False, params,
                       note="self-extensions vanish on the window but the module is not free")
    if not vanishing and free:
        return Verdict("violation", False, params,
                       note="free module with nonvanishing self-extensions")
    kind = "consistent_free" if free else "consistent_nonfree"
    return Verdict(kind, True, params,
                   note="projective dimension matches the top nonvanishing self-extension")


def symmetry_check(m: Module, n: Module, max_degree: int = DEFAULT_WINDOW) -> Verdict:
    """Observational Gorenstein symmetry of tail vanishing of Ext(M,N) and Ext(N,M)."""
    if not is_gorenstein(m.algebra):
        raise InputError("symmetry check requires a Gorenstein algebra")
    _check_tail(max_degree)
    t_mn = ext_table(m, n, max_degree)
    t_nm = ext_table(n, m, max_degree)
    tail_range = range(max_degree - DEFAULT_TAIL + 1, max_degree + 1)
    v_mn = all(t_mn[i] == 0 for i in tail_range)
    v_nm = all(t_nm[i] == 0 for i in tail_range)
    params = {"max_degree": max_degree, "tail": DEFAULT_TAIL,
              "ext_mn_tail_vanishes": v_mn, "ext_nm_tail_vanishes": v_nm}
    if v_mn == v_nm:
        return Verdict("co_occurrence", True, params,
                       note="tail vanishing co-occurs on this window")
    return Verdict("window_too_short", True, params,
                   witness={"ext_mn": t_mn, "ext_nm": t_nm},
                   note="tails disagree on this finite window; not a refutation")
