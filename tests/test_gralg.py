import random
import time

import pytest

from cxlab.errors import InputError
from cxlab.exactla import Field
from cxlab.gralg import (
    Polynomial,
    Token,
    build_algebra,
    codimension,
    is_gorenstein,
    monomials_of_degree,
    multiply,
    parse_polynomial,
    tokenize_line,
)
from conftest import GASHAROV_RELATIONS, GASHAROV_VARS
from oracles import hilbert_by_bruteforce

F5 = Field(5)
XY = ["x", "y"]


def _quadric():
    return build_algebra(F5, 2, [parse_polynomial(s, XY, F5) for s in ["x^2", "y^2"]], varnames=XY)


def test_build_quadric_ci():
    A = _quadric()
    assert A.hilbert_function() == (1, 2, 1)
    assert A.top_degree == 2
    assert A.dim == 4


def test_build_trivial_field():
    A = build_algebra(F5, 0, [])
    assert A.dim == 1
    assert A.hilbert_function() == (1,)
    assert codimension(A) == 0
    assert is_gorenstein(A)


def test_gasharov_hilbert_against_bruteforce(gasharov):
    rels = [
        {tuple(e): c for e, c in parse_polynomial(s, GASHAROV_VARS, F5).terms}
        for s in GASHAROV_RELATIONS
    ]
    brute = hilbert_by_bruteforce(5, 5, rels, 4)
    assert list(gasharov.hilbert_function()) + [0] * (5 - len(gasharov.hilbert_function())) == brute
    assert gasharov.dim == sum(brute)


def test_non_artinian_rejected():
    # x*y alone leaves powers of x alive forever
    with pytest.raises(InputError, match="non-Artinian"):
        build_algebra(F5, 2, [parse_polynomial("x*y", XY, F5)], varnames=XY)


def _timed_build(p, names, relations):
    F = Field(p)
    started = time.perf_counter()
    try:
        return build_algebra(F, len(names), [parse_polynomial(r, names, F) for r in relations], varnames=names)
    finally:
        assert time.perf_counter() - started < 2


@pytest.mark.parametrize("p", [2, 5, 2**31 - 1])
def test_non_artinian_refused_at_the_bound(p):
    # relations of degree <= D in n variables: an Artinian quotient vanishes
    # above n(D - 1), so a nonzero slice at n(D - 1) + 1 refuses it there
    names = ["x0", "x1", "x2", "x3"]
    with pytest.raises(InputError, match=r"non-Artinian quotient: it is nonzero in degree 5, .* "
                                         r"vanishes above degree 4"):
        _timed_build(p, names, ["x0^2-x1^2"])
    with pytest.raises(InputError, match="non-Artinian"):
        _timed_build(p, XY, ["x^2+y^2"])
    with pytest.raises(InputError, match="non-Artinian"):
        _timed_build(p, names, [])
    # a monomial ideal is refused at once when a variable has no pure power
    names = ["x0", "x1", "x2", "x3", "x4"]
    with pytest.raises(InputError, match="non-Artinian quotient: no relation is a pure power of x1"):
        _timed_build(p, names, ["x0^2"])
    with pytest.raises(InputError, match="no relation is a pure power of y"):
        _timed_build(p, XY, ["x^3", "x*y^4"])


def test_artinian_quotients_at_the_bound():
    # the top degree may reach the bound n(D - 1) itself
    A = _timed_build(5, ["x"], ["x^70"])
    assert A.dim == 70 and A.top_degree == 69
    B = _timed_build(5, XY, ["x^2+y^2", "x*y"])  # not monomial: top degree 2 = 2(2 - 1)
    assert B.hilbert_function() == (1, 2, 1)
    C = _timed_build(5, XY, ["x^3", "y^3"])
    assert C.top_degree == 4
    K = build_algebra(F5, 0, [], varnames=[])
    assert K.dim == 1


def test_inhomogeneous_relation_rejected():
    with pytest.raises(InputError, match="homogeneous"):
        build_algebra(F5, 2, [parse_polynomial("x^2+y", XY, F5)], varnames=XY)
    with pytest.raises(InputError, match="homogeneous"):
        build_algebra(F5, 1, [Polynomial.zero(F5, 1)], varnames=["x"])


def test_multiply_identity_and_relations():
    A = _quadric()
    x, y = A.variable(0), A.variable(1)
    one = A.one()
    assert multiply(one, x) == x
    assert multiply(x, x).is_zero()
    assert not multiply(x, y).is_zero()


def test_multiply_gasharov_normal_form(gasharov):
    # x3 * x3 = x2*x5 - 2*x1*x5 holds in the quotient whatever basis is used
    pe = lambda s: gasharov.nf_polynomial(parse_polynomial(s, GASHAROV_VARS, F5))
    assert multiply(pe("x3"), pe("x3")) == pe("x2*x5-2*x1*x5")


def test_multiply_commutative_associative_seeded():
    A = _quadric()
    rng = random.Random(7)
    elems = [A.element([rng.randrange(5) for _ in range(A.dim)]) for _ in range(12)]
    for i in range(0, 12, 3):
        a, b, c = elems[i], elems[i + 1], elems[i + 2]
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_normal_form_idempotent(gasharov):
    pe = lambda s: gasharov.nf_polynomial(parse_polynomial(s, GASHAROV_VARS, F5))
    a = pe("x3^2+2*x1*x2+x4^2")
    again = gasharov.nf_polynomial(a.to_polynomial())
    assert again == a


def test_is_gorenstein_cases(gasharov):
    assert is_gorenstein(_quadric())
    B = build_algebra(F5, 2, [parse_polynomial(s, XY, F5) for s in ["x^2", "x*y", "y^2"]], varnames=XY)
    assert not is_gorenstein(B)  # socle is {x, y}
    assert is_gorenstein(gasharov)


def test_codimension_cases(gasharov):
    assert codimension(_quadric()) == 2
    assert codimension(gasharov) == 5
    # a linear relation cuts the codimension down
    C = build_algebra(F5, 2, [parse_polynomial(s, XY, F5) for s in ["x-y", "x^2"]], varnames=XY)
    assert codimension(C) == 1


def test_monomial_ci_hilbert_product_formula():
    # quotient dims must match the coefficients of prod_i (1 + t + .. + t^{n_i-1}),
    # for every exponent tuple with total dimension <= 200
    def poly_product(ns):
        coeffs = [1]
        for n in ns:
            new = [0] * (len(coeffs) + n - 1)
            for i, c in enumerate(coeffs):
                for j in range(n):
                    new[i + j] += c
            coeffs = new
        return tuple(coeffs)

    tuples = []
    for c in range(1, 4):
        def rec(prefix, dim):
            if len(prefix) == c:
                tuples.append(tuple(prefix))
                return
            n = 2
            while dim * n <= 200:
                rec(prefix + [n], dim * n)
                n += 1
        rec([], 1)
    assert tuples
    for ns in tuples:
        names = [f"x{i+1}" for i in range(len(ns))]
        rels = [Polynomial.variable(F5, len(ns), i, power=n) for i, n in enumerate(ns)]
        A = build_algebra(F5, len(ns), rels, varnames=names)
        assert A.hilbert_function() == poly_product(ns), ns


def test_monomial_fast_path_matches_dense_path():
    # same ideal, one presentation forcing the generic echelon route
    for p in (2, 5, 2**31 - 1):
        F = Field(p)

        def build(rels):
            return build_algebra(F, 2, [parse_polynomial(s, XY, F) for s in rels], varnames=XY)

        fast, dense = build(["x^2", "y^2"]), build(["x^2", "x^2+y^2", "y^2"])
        assert fast.hilbert_function() == dense.hilbert_function()
        assert fast.basis == dense.basis
        for d in range(fast.top_degree + 2):
            for e in monomials_of_degree(2, d):
                assert fast.nf_monomial(e).tolist() == dense.nf_monomial(e).tolist(), (p, e)
        # a tuple of the wrong length is an error, not the zero normal form
        for A in (fast, dense):
            for e in [(1,), (1, 0, 0), (2, 1, 1)]:
                with pytest.raises(InputError, match="wrong length"):
                    A.nf_monomial(e)


def test_variable_action_nilpotent():
    A = _quadric()
    for i in range(2):
        X = A.variable_action(i)
        power = X
        for _ in range(A.top_degree):
            power = power @ X
        assert power.is_zero()


def test_polynomial_parse_and_text_roundtrip():
    names = ["x1", "x2", "x3"]
    for text in ["x1^2", "2*x1*x2+x3^2", "x1-x2", "3", "x1^2-2*x2*x3+4"]:
        p = parse_polynomial(text, names, F5)
        assert parse_polynomial(p.text(names), names, F5) == p


def test_polynomial_parse_errors():
    with pytest.raises(InputError, match="column 5: unknown variable 'z'"):
        parse_polynomial("x + z^2", ["x"], F5)
    with pytest.raises(InputError):
        parse_polynomial("x^", ["x"], F5)
    with pytest.raises(InputError):
        parse_polynomial("", ["x"], F5)
    with pytest.raises(InputError):
        parse_polynomial("x*", ["x"], F5)


def test_product_near_the_largest_prime():
    # each term c_i * c_j * (basis product) must be reduced before it can overflow int64
    F = Field(2**31 - 1)
    A = build_algebra(F, 2, [parse_polynomial(s, XY, F) for s in ["x^2+7*y^2", "x*y"]], varnames=XY)
    pe = lambda s: A.nf_polynomial(parse_polynomial(s, XY, F))
    assert multiply(pe("-2*x-3*y"), pe("-5*x-11*y")) == pe("-37*y^2")


def test_polynomial_tokens_are_the_scenario_tokens():
    # one tokenizer: a character that no scenario token starts with is an error here too
    for text, col in [("x^²", 3), ("é^2", 1), ("x + ٥", 5)]:
        with pytest.raises(InputError, match=f"1:{col}: unexpected character"):
            parse_polynomial(text, ["x"], F5)
    assert tokenize_line("ring A = [x]", 2)[3] == Token("SYM", "[", 2, 10)
    # a line is closed by END one column past its end
    assert tokenize_line("ring A = [x]", 2)[-1] == Token("END", "", 2, 13)
    assert tokenize_line("  ", 3) == [Token("END", "", 3, 3)]
