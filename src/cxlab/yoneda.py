"""Ext/Tor tables, cocycle representatives, pushout extensions and the
complexity-reduction search.

Ext classes are held at the chain level: a degree-t class is a cocycle
F_t -> N, identified modulo maps factoring through d_t.  That makes Yoneda
powers a pure chain-lifting problem and lets a pushout materialize the
corresponding extension on demand.  Cocycle representatives are chosen per
internal degree shift, so every constructed extension module stays graded.
"""
from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InputError, check
from .exactla import Mat, kernel_rref, rref
from .gmod import (Module, block_action, compose_on_generators, direct_sum, extend_linearly,
                   quotient_by_span, shift)
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
    "yoneda_power",
    "pushout",
    "find_reducing_element",
    "reduction_sequence",
    "window_vanishing_check",
    "self_ext_pd_check",
    "test_against",
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
    """delta^i : Hom(F_i, N) -> Hom(F_{i+1}, N), phi -> phi o d_{i+1}."""
    return block_action(n, res.diff_coefficients(i + 1).transpose(0, 2, 1))


def _tensor_differential(res: MinimalFreeResolution, n: Module, i: int) -> Mat:
    """d_i (x) 1 : F_i (x) N -> F_{i-1} (x) N."""
    return block_action(n, res.diff_coefficients(i))


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
    i = 0 being zero).  The ranks come from _RANKS: a table extends the
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
        d = _hom_differential(res, n, i) if functor == "Ext" else _tensor_differential(res, n, i + 1)
        ranks.append(d.rank())
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
        images = compose_on_generators(self.target, self.generator_images(),
                                       self.resolution.diff_coefficients(self.degree + 1))
        check(images.is_zero(), "not a cocycle")

    @property
    def source(self) -> Module:
        return self.resolution.module

    @classmethod
    def from_realized(cls, resolution: MinimalFreeResolution, target: Module, degree: int,
                      phi: Mat, shift: int) -> "ExtElement":
        """The element whose realized map F_t -> N is phi; inverse of realized()."""
        gens = resolution.free(degree).generator_columns()
        return cls(resolution, target, degree, phi.a[:, gens].T.reshape(-1), shift)

    def generator_images(self) -> Mat:
        """The representing map on the generators of F_t, one column each."""
        F = self.resolution.free(self.degree)
        return Mat._trusted(self.target.field, self.rep.reshape(F.rank, self.target.dim).T)

    def realized(self) -> Mat:
        """The representing map as a matrix on realized coordinates F_t -> N."""
        return extend_linearly(self.target, self.generator_images())

    def class_residual(self) -> np.ndarray:
        """Canonical coset representative: rep reduced modulo coboundaries."""
        return _reduce_mod_rows(self.rep, _coboundary_echelon(self.resolution, self.target, self.degree))

    def is_zero_class(self) -> bool:
        return not self.class_residual().any()

    def describe(self) -> dict:
        return {"degree": self.degree, "shift": self.shift}


def _coboundary_echelon(res: MinimalFreeResolution, n: Module, t: int):
    """Reduced echelon form (R, pivots, rank) of the coboundaries in
    Hom(F_t, N), the image of delta^{t-1}."""
    return rref(_hom_differential(res, n, t - 1).transpose())


def cocycle_basis(m: Module, n: Module, t: int) -> List[ExtElement]:
    """Canonical representatives of a basis of Ext^t(M, N); see _cocycle_classes."""
    return _cocycle_classes(m, n, t)[0]


def _cocycle_classes(m: Module, n: Module, t: int):
    """Canonical representatives of a basis of Ext^t(M, N), and the reduced
    echelon form of the coboundaries they were reduced by (None when M or N
    is zero).

    The reduced echelon basis of the cocycles (the kernel of delta^t),
    reduced modulo the coboundaries, spans a complement of them; its own
    reduced echelon basis gives the representatives, ordered by shift and,
    within a shift, by pivot column.  The Hom differentials preserve the
    internal degree, and the reduced echelon basis of a graded subspace
    consists of homogeneous vectors, so every representative is a
    homogeneous graded map; this is what allows pushout modules to stay
    graded.
    """
    if t < 1:
        raise InputError("cocycle_basis needs t >= 1")
    if m.algebra is not n.algebra:
        raise InputError("modules over different algebras")
    res = resolve(m, t + 1)
    if m.dim == 0 or n.dim == 0:
        return [], None
    delta_t = _hom_differential(res, n, t)
    rank_t, cocycles, _ = kernel_rref(delta_t)
    coboundaries = _coboundary_echelon(res, n, t)
    R, pivots, _ = rref(Mat._trusted(m.field, _reduce_mod_rows(cocycles.a, coboundaries)))
    shifts = _hom_shifts(res, n, t)[list(pivots)]
    elements = [ExtElement(res, n, t, R.a[j], int(shifts[j])) for j in np.argsort(shifts, kind="stable")]
    expected = delta_t.cols - rank_t - coboundaries[2]
    check(len(elements) == expected, f"cocycle count {len(elements)} != ext dimension {expected}")
    return elements, coboundaries


# -- chain lifting and Yoneda powers ------------------------------------------


def _lift_chain_map(eta: ExtElement, upto: int) -> List[Mat]:
    """Lift the cocycle of eta in Ext^t(M, M) to chain maps theta_i: F_{t+i} -> F_i,
    i = 0..upto, each given by its generator images U_i (one column per
    generator of F_{t+i}).

    theta_i is the A-linear map with those images, so it is a module map,
    and the chain identity d_i theta_i = theta_{i-1} d_{t+i} (eps theta_0 =
    eta at i = 0) holds because both sides agree on generators: U_i solves
    d_i U_i = theta_{i-1} d_{t+i} on generators, which compose_on_generators
    reads off U_{i-1} and d_{t+i} over A.  Only the images U_i are kept.
    """
    res = eta.resolution
    if eta.target is not res.module:
        raise InputError("chain lifting needs source = target")
    t = eta.degree
    res.extend(t + upto)
    images = [res.solve(0, eta.generator_images())]
    for i in range(1, upto + 1):
        rhs = compose_on_generators(res.free(i - 1), images[i - 1], res.diff_coefficients(t + i))
        images.append(res.solve(i, rhs))
    return images


def yoneda_power(eta: ExtElement, s: int) -> ExtElement:
    """The s-fold Yoneda power of a self-extension class.

    Computed by lifting the cocycle to a chain self-map of the resolution
    and composing; the result has degree s*t and internal shift s*shift.
    """
    if eta.target is not eta.resolution.module:
        raise InputError("yoneda_power needs eta in Ext(M, M)")
    if s < 1:
        raise InputError("power must be >= 1")
    if s == 1:
        return eta
    res = eta.resolution
    t = eta.degree
    res.extend(s * t + 1)
    images = _lift_chain_map(eta, (s - 1) * t)
    comp = eta.realized()
    for j in range(1, s):
        comp = comp @ extend_linearly(res.free(j * t), images[j * t])  # theta_{jt}: F_{(j+1)t} -> F_{jt}
    return ExtElement.from_realized(res, eta.target, s * t, comp, eta.shift * s)


def pushout(eta: ExtElement) -> "PushoutExtension":
    """The extension 0 -> N -> K -> Omega^{t-1}(M) -> 0 classified by eta.

    K is the quotient of N (+) F_{t-1} by the graph of the representing map
    over Omega^t(M); the target copy of N is degree-shifted so that the
    glued module is graded.  Exactness of the short sequence is verified by
    ranks.
    """
    res = eta.resolution
    t = eta.degree
    N = eta.target
    p = N.field.p
    Nsh = shift(N, -eta.shift)
    F_prev = res.free(t - 1)
    D = direct_sum(Nsh, F_prev)
    phi = eta.realized()
    d_t = res.diff_realized(t)
    F_t = res.free(t)
    span = np.zeros((F_t.dim, D.dim), dtype=np.int64)
    span[:, : N.dim] = phi.a.T
    span[:, N.dim :] = (-d_t.a.T) % p
    quot = quotient_by_span(D, Mat(N.field, span), provenance="pushout")
    K = quot.module
    embed_N = np.zeros((D.dim, N.dim), dtype=np.int64)
    embed_N[: N.dim, :] = np.eye(N.dim, dtype=np.int64)
    injection = quot.projection @ Mat(N.field, embed_N)
    cosz = quotient_by_span(F_prev, Mat(N.field, d_t.a.T), provenance="cosyzygy")
    Om = cosz.module
    to_om = np.zeros((Om.dim, D.dim), dtype=np.int64)
    to_om[:, N.dim :] = cosz.projection.a
    surjection = Mat(N.field, to_om) @ quot.lift
    # rank bookkeeping for exactness of 0 -> N -> K -> Omega^{t-1} -> 0
    check(injection.rank() == N.dim, "N does not embed")
    check(surjection.rank() == Om.dim, "K does not surject onto the cosyzygy")
    check((surjection @ injection).is_zero(), "composite N -> Omega is nonzero")
    check(K.dim == N.dim + F_prev.dim - d_t.rank(), "pushout dimension identity fails")
    return PushoutExtension(eta, K, injection, surjection, Om)


@dataclass
class PushoutExtension:
    """The short exact sequence materialized from an Ext class."""

    eta: ExtElement
    module: Module
    injection: Mat    # N coords -> K coords (N internally shifted by -eta.shift)
    surjection: Mat   # K coords -> Omega^{t-1}(M) realized as F_{t-1}/im d_t
    cosyzygy: Module

    def to_jsonable(self) -> dict:
        return {
            "eta": self.eta.describe(),
            "dim": self.module.dim,
        }


# -- reduction of complexity ---------------------------------------------------


def _estimate(module: Module, window: int, s: int) -> ComplexityEstimate:
    return estimate_complexity(resolve(module, window).betti_list(window), s)


def _pushout_betti(eta: ExtElement, window: int) -> List[int]:
    """beta_0..beta_window of the pushout of eta in Ext^t(M, M), without
    building it.

    The pushout K sits in 0 -> M -> K -> Omega^{t-1}(M) -> 0, whose
    connecting map Tor_{n+1}(Omega^{t-1}M, k) = Tor_{n+t}(M, k) -> Tor_n(M, k)
    is eta itself, i.e. theta_n (x) k for the chain lift theta_n: F_{n+t} -> F_n
    (P. A. Bergh, "Modules with reducible complexity", J. Algebra 2007).
    With minimal resolutions the long exact sequence gives
    beta_n(K) = beta_n(M) + beta_{n+t-1}(M) - rk(theta_n (x) k) - rk(theta_{n-1} (x) k),
    with theta_{-1} = 0.
    """
    res = eta.resolution
    t = eta.degree
    images = _lift_chain_map(eta, window)
    # theta_n (x) k: the constant coefficients of theta_n over A, which are
    # the generator rows of its generator images
    ranks = [0] + [Mat(eta.target.field, U.a[res.free(n).generator_columns()]).rank()
                   for n, U in enumerate(images)]
    betti = res.betti_list(t + window - 1)
    return [betti[n] + betti[n + t - 1] - ranks[n + 1] - ranks[n] for n in range(window + 1)]


QUICK_WINDOW = 8
QUICK_STAB = 3


def find_reducing_element(m: Module, max_search_degree: int = 8, *, seed: int = 0,
                          budget: int = 200, window: int = DEFAULT_WINDOW,
                          stab: int = DEFAULT_STAB) -> Optional[Tuple[ExtElement, PushoutExtension, ComplexityEstimate]]:
    """Search Ext^t(M, M), t = 1..max_search_degree, for a class whose pushout
    drops the complexity estimate by exactly one.

    Basis representatives are tried first, then seeded random combinations
    within one internal shift (a per-degree budget applies).  Scalar multiples
    and cohomologous candidates are deduplicated through canonical class
    residues.  Candidates are screened on a short Betti window of their
    pushout, read off the resolution of M through the long exact Tor sequence
    (_pushout_betti) without building the pushout.  Only a candidate that
    passes is pushed out and confirmed on the full window, so the returned
    estimate always uses the full window; its resolution also re-checks the
    screen's Betti numbers.  Returns None when nothing is found within the
    budget; that is a statement about the search, never about the module.
    """
    est_m = _estimate(m, window, stab)
    if not est_m.stabilized or est_m.value < 1:
        raise InputError("find_reducing_element needs a stabilized estimate >= 1")
    target = est_m.value - 1
    rng = random.Random(seed)
    p = m.field.p

    def evaluate(eta: ExtElement) -> Optional[Tuple[ExtElement, PushoutExtension, ComplexityEstimate]]:
        screen = _pushout_betti(eta, QUICK_WINDOW)
        quick = estimate_complexity(screen, QUICK_STAB)
        if quick.stabilized and quick.value != target:
            return None
        push = pushout(eta)
        full = _estimate(push.module, window, stab)
        check(resolve(push.module, QUICK_WINDOW).betti_list(QUICK_WINDOW) == screen,
              "pushout Betti numbers differ from the long exact Tor sequence")
        if full.stabilized and full.value == target:
            return eta, push, full
        return None

    for t in range(1, max_search_degree + 1):
        # every candidate of degree t is reduced modulo the coboundaries
        # that reduced the basis
        basis, coboundaries = _cocycle_classes(m, m, t)
        seen = set()

        def fresh(rep: np.ndarray) -> bool:
            v = _reduce_mod_rows(rep, coboundaries)
            nz = np.nonzero(v)[0]
            if nz.size == 0:
                return False
            v = (v * m.field.inv(int(v[nz[0]]))) % p
            key = v.tobytes()
            if key in seen:
                return False
            seen.add(key)
            return True

        for eta in basis:
            if fresh(eta.rep):
                hit = evaluate(eta)
                if hit:
                    return hit
        by_shift: Dict[int, List[ExtElement]] = {}
        for e in basis:
            by_shift.setdefault(e.shift, []).append(e)
        shifts = sorted(by_shift)
        for _ in range(budget if shifts else 0):
            s_key = shifts[rng.randrange(len(shifts))]
            group = by_shift[s_key]
            coeffs = [rng.randrange(p) for _ in group]
            if not any(coeffs):
                continue
            rep = np.zeros_like(group[0].rep)
            for c, e in zip(coeffs, group):
                rep = (rep + c * e.rep) % p
            # a duplicate is dropped before it is built; a fresh candidate's
            # cocycle check runs at construction
            if fresh(rep):
                hit = evaluate(ExtElement(resolve(m, t + 1), m, t, rep, s_key))
                if hit:
                    return hit
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
                       budget: int = 200, window: int = DEFAULT_WINDOW,
                       stab: int = DEFAULT_STAB) -> Tuple[Optional[ReductionSequence], List[str]]:
    """Iterate find_reducing_element until the estimate reaches zero.

    Returns (sequence, transcript); the sequence is None when some step
    fails, with the transcript recording how far the search got.
    """
    transcript: List[str] = []
    est = _estimate(m, window, stab)
    steps = [ReductionStep(m, None, None, est)]
    transcript.append(f"start: estimate {est.value} (stabilized={est.stabilized})")
    if not est.stabilized:
        transcript.append("initial estimate not stabilized; aborting")
        return None, transcript
    cur = m
    while steps[-1].estimate.value > 0:
        found = find_reducing_element(cur, max_search_degree, seed=seed, budget=budget,
                                      window=window, stab=stab)
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


def test_against(m: Module, tests: Sequence[Tuple[Module, int]],
                 max_degree: int = DEFAULT_WINDOW, tail: int = DEFAULT_TAIL) -> Verdict:
    """One-directional complexity bound from vanishing against test modules.

    BoundEstablished (cx M < t) requires tail vanishing of Ext(M, N) for
    every supplied N of declared complexity t; any nonvanishing witness
    yields Inconclusive, never a lower bound.
    """
    if not tests:
        raise InputError("need at least one test module")
    ts = {int(cx) for _, cx in tests}
    if len(ts) != 1:
        raise InputError("test modules must share one declared complexity")
    t = ts.pop()
    for n, _ in tests:
        if n.algebra is not m.algebra:
            raise InputError("test module over a different algebra")
    params = {"declared_cx": t, "max_degree": max_degree, "tail": tail,
              "tail_window": [max_degree - tail + 1, max_degree]}
    for idx, (n, _) in enumerate(tests):
        table = ext_table(m, n, max_degree)
        for i in range(max_degree - tail + 1, max_degree + 1):
            if table[i] != 0:
                return Verdict("inconclusive", True, params,
                               witness={"test_index": idx, "degree": i, "dim": table[i]},
                               note="nonvanishing tail; no bound follows in either direction")
    return Verdict("bound_established", True, params,
                   note=f"cx < {t} relative to the checked family of test modules")


def symmetry_check(m: Module, n: Module, max_degree: int = DEFAULT_WINDOW,
                   tail: int = DEFAULT_TAIL) -> Verdict:
    """Observational Gorenstein symmetry of tail vanishing of Ext(M,N) and Ext(N,M)."""
    if not is_gorenstein(m.algebra):
        raise InputError("symmetry check requires a Gorenstein algebra")
    t_mn = ext_table(m, n, max_degree)
    t_nm = ext_table(n, m, max_degree)
    tail_range = range(max_degree - tail + 1, max_degree + 1)
    v_mn = all(t_mn[i] == 0 for i in tail_range)
    v_nm = all(t_nm[i] == 0 for i in tail_range)
    params = {"max_degree": max_degree, "tail": tail,
              "ext_mn_tail_vanishes": v_mn, "ext_nm_tail_vanishes": v_nm}
    if v_mn == v_nm:
        return Verdict("co_occurrence", True, params,
                       note="tail vanishing co-occurs on this window")
    return Verdict("window_too_short", True, params,
                   witness={"ext_mn": t_mn, "ext_nm": t_nm},
                   note="tails disagree on this finite window; not a refutation")
