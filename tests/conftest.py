import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the oracles are a helper module, not a test module: without this, pytest
# leaves their asserts plain, and python -O strips them
pytest.register_assert_rewrite("oracles")

from cxlab.exactla import Field, Mat
from cxlab.gralg import build_algebra, parse_polynomial
from cxlab.gmod import coker_presentation, free_module, residue_field
from cxlab.cioper import MonomialCI

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"

GASHAROV_VARS = ["x1", "x2", "x3", "x4", "x5"]
GASHAROV_RELATIONS = [
    "x1^2", "x2^2", "x5^2", "x3*x4", "x3*x5", "x4*x5",
    "x1*x4+x2*x4", "2*x1*x3+x2*x3",
    "x3^2-x2*x5+2*x1*x5", "x4^2-x2*x5+x1*x5",
]


@pytest.fixture(scope="session", autouse=True)
def trusted_mats_are_reduced():
    """Mat._trusted wraps its array without reducing it; throughout the suite
    every such array must be a 2-D int64 array with entries in [0, p)."""
    trusted = Mat._trusted.__func__

    def checked(cls, field, arr):
        assert arr.dtype == np.int64 and arr.ndim == 2, (arr.dtype, arr.shape)
        assert arr.size == 0 or (arr.min() >= 0 and arr.max() < field.p), (arr.min(), arr.max(), field.p)
        return trusted(cls, field, arr)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Mat, "_trusted", classmethod(checked))
        yield


@pytest.fixture(scope="session")
def F5():
    return Field(5)


@pytest.fixture(scope="session")
def quadric(F5):
    """The monomial complete intersection F_5[x,y]/(x^2, y^2)."""
    return MonomialCI.build(F5, [2, 2], varnames=["x", "y"])


@pytest.fixture(scope="session")
def A(quadric):
    return quadric.algebra


@pytest.fixture(scope="session")
def k(A):
    return residue_field(A)


@pytest.fixture(scope="session")
def Ax(A):
    """A/(x) over the quadric algebra: a bounded-resolution module."""
    return coker_presentation(A, [[A.variable(0)]], [0])


@pytest.fixture(scope="session")
def free2(A):
    return free_module(A, [0, 0])


@pytest.fixture(scope="session")
def cubic(F5):
    """F_5[x]/(x^3): the smallest ring where degree two is the first reducing degree."""
    return MonomialCI.build(F5, [3], varnames=["x"])


def gasharov_algebra(field):
    rels = [parse_polynomial(s, GASHAROV_VARS, field) for s in GASHAROV_RELATIONS]
    return build_algebra(field, 5, rels, varnames=GASHAROV_VARS)


def gasharov_presentation(G):
    """The rank-two module of the worked example over the Gasharov algebra G."""
    pe = lambda s: G.nf_polynomial(parse_polynomial(s, GASHAROV_VARS, G.field))
    return coker_presentation(G, [[pe("x1"), pe("2*x3+x4")], [pe("0"), pe("x2")]], [0, 0])


def stacked_lift(basis, window):
    """The stacked lift of one degree's classes to window, and its
    theta_n (x) k layers, as find_reducing_element makes them."""
    from cxlab import yoneda

    res, t, M = basis[0].resolution, basis[0].degree, basis[0].target
    reps = np.array([e.rep for e in basis])
    lifts = yoneda._lift_stack(res, t, yoneda._side_by_side(reps, res.free(t).rank, M), window)
    return lifts, yoneda._constant_stacks(res, t, lifts)


def one_class_screen(eta, window):
    """The screen of eta alone: _screen_combinations over a stack of one
    class, with coefficient 1."""
    from cxlab import yoneda

    _, constants = stacked_lift([eta], window)
    return yoneda._screen_combinations(eta.resolution, eta.degree, constants, np.eye(1, dtype=np.int64))[0]


@pytest.fixture(scope="session")
def gasharov(F5):
    return gasharov_algebra(F5)


@pytest.fixture(scope="session")
def gasharov_module(gasharov):
    return gasharov_presentation(gasharov)
