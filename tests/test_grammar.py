from fractions import Fraction as Q

import numpy as np
import pytest

from cycleval.coefficients import CoefficientFn, ball_bump
from cycleval.convex import (
    LogSumExp,
    MaxAffine,
    PiecewiseLinear1D,
    Quadratic,
    Shifted,
    SmoothCatalog,
)
from cycleval.forms import Form
from cycleval.grammar import (
    CATALOG_TEXT,
    ParseError,
    parse_body,
    parse_form,
    parse_function,
    parse_value,
    serialize_form,
)
from cycleval.forms import random_bump_form
from cycleval.polynomials import Poly


def test_parse_value():
    assert parse_value("3/2") == Q(3, 2)
    assert parse_value("[1, -2/3]") == [Q(1), Q(-2, 3)]
    assert parse_value("[[1,0],[0,1]]") == [[Q(1), Q(0)], [Q(0), Q(1)]]
    assert parse_value("sqrt1p") == "sqrt1p"
    for bad in ("1/0", "[1, 2", "[", "1.2.3", "1 2"):
        with pytest.raises(ParseError):
            parse_value(bad)


def test_parse_simple_forms():
    n = 2
    f = parse_form("3/2 * x1^2 * y2 * dx1^dy2", n)
    expected = Form.monomial(n, [1], [2],
                             Poly(4, {(2, 0, 0, 1): Q(3, 2)}))
    assert f == expected
    g = parse_form("bump(R=2) * x1 * dx1^dx2", n)
    expected_g = Form(n, 2, {(0, 1): CoefficientFn.bump(
        n, ball_bump(n, 2), Poly.variable(4, 0))})
    assert g == expected_g
    h = parse_form("dy1^dx1", n)
    assert h == Form.monomial(n, [1], [1], -1)


def test_parse_sums_and_signs():
    n = 1
    f = parse_form("2*dx1 - 3*dy1 + 1/2 * x1 * dy1", n)
    assert f.coefficient([1], []) == CoefficientFn.from_poly(1, Poly.const(2, 2))
    expected_dy = Poly.const(2, -3) + Poly.variable(2, 0).scale(Q(1, 2))
    assert f.coefficient([], [1]) == CoefficientFn.from_poly(1, expected_dy)


def test_box_window():
    n = 1
    f = parse_form("box(-2,2) * x1 * dx1", n)
    c = f.coefficient([1], [])
    assert c.declared_box == ((Q(-2), Q(2)),)
    g = parse_form("box(3) * dx1", n)
    assert g.coefficient([1], []).declared_box == ((Q(-3), Q(3)),)


def test_box_with_reversed_bounds_is_refused():
    # the routes disagreed on a reversed box: the polyhedral one read its
    # bounds as an interval, the graph quadrature as an oriented one
    from cycleval.lab import Valuation, evaluate

    for text, n in (("box(1,-1) * dx1", 1), ("box(-1,1,2,0) * dx1^dx2", 2)):
        with pytest.raises(ParseError, match="reversed"):
            parse_form(text, n)
    assert parse_form("box(1,1) * dx1", 1).coefficient([1], []).declared_box == ((Q(1), Q(1)),)
    tau = parse_form("box(-1,1) * dx1", 1)
    functions = [parse_function("quadratic A=[[1]]", 1),
                 parse_function("maxaffine pieces=[[[1],0],[[-1],0]]", 1)]
    assert [float(row[0].value) for row in evaluate([Valuation(tau)], functions)] == [2.0, 2.0]


def test_roundtrip_random_forms():
    rng = np.random.default_rng(8)
    for n in (1, 2):
        for _ in range(6):
            form = random_bump_form(rng, n, degree=rng.integers(0, 2 * n + 1))
            text = serialize_form(form)
            again = parse_form(text, n)
            assert again == form
            assert serialize_form(again) == text


def test_roundtrip_derivative_forms():
    # derivatives introduce bump powers and denominators; they must survive
    from cycleval.forms import exterior_derivative

    n = 1
    tau = Form(n, 1, {(1,): CoefficientFn.bump(n, ball_bump(n, 2),
                                               Poly.variable(2, 0) ** 2)})
    d = exterior_derivative(tau)
    text = serialize_form(d)
    assert parse_form(text, n) == d


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_form("dx3", 2)
    with pytest.raises(ParseError):
        parse_form("wibble * dx1", 1)
    with pytest.raises(ParseError):
        parse_form("bump() * dx1", 1)
    # a bump matrix must be a symmetric positive definite n x n matrix
    for M, n in (("[[0]]", 1), ("[[-1]]", 1), ("[[1,2]]", 1), ("[[1]]", 2),
                 ("[[1,2],[2,1]]", 2), ("[[2,1],[0,2]]", 2)):
        with pytest.raises(ParseError, match="bump M="):
            parse_form(f"bump(M={M}) * dx1", n)
    assert parse_form("bump(M=[[2,1],[1,2]]) * dx1", 2).support_box() is not None
    # beyond the exponent field of a packed monomial
    with pytest.raises(ValueError, match="exponent 5000"):
        parse_form("x1^5000 * dx1", 1)


def test_parse_functions():
    f = parse_function("quadratic A=[[2,0],[0,1]] b=[0,0] c=0", 2)
    assert isinstance(f, Quadratic)
    g = parse_function("maxaffine pieces=[[[1,0],0],[[-1,0],0]]", 2)
    assert isinstance(g, MaxAffine) and g.m == 2
    h = parse_function("lse pieces=[[[1],0],[[-1],0]] beta=50", 1)
    assert isinstance(h, LogSumExp) and h.beta == 50.0
    s = parse_function("quadratic A=[[1]] shift=[1] shiftc=2", 1)
    assert isinstance(s, Shifted)
    p = parse_function("pwl breaks=[0] slopes=[-1,1] v0=0", 1)
    assert isinstance(p, PiecewiseLinear1D)
    d = parse_function({"kind": "quadratic", "A": [[1]]}, 1)
    assert isinstance(d, Quadratic)
    for spec in ("smooth name=quartic", {"kind": "smooth", "name": "quartic"}):
        q = parse_function(spec, 2)
        assert isinstance(q, SmoothCatalog) and q.name == "quartic"


@pytest.mark.parametrize("spec", [
    "quadratic b=[0]", "maxaffine", "lse pieces=[[[1],0],[[-1],0]]",
    "pwl slopes=[-1,1]", {"A": [[1]]}, "", "smooth name=[1]",
])
def test_parse_function_errors(spec):
    with pytest.raises(ParseError):
        parse_function(spec, 1)


@pytest.mark.parametrize("spec,key", [
    ("quadratic A=[[1]] shift=foo", "shift"),
    ("quadratic A=foo", "A"),
    ("quadratic A=[[1, foo]]", "A"),
    ("lse pieces=[[[1],0],[[-1],0]] beta=foo", "beta"),
    ({"kind": "quadratic", "A": [[1]], "c": "foo"}, "c"),
])
def test_parse_function_name_for_a_number(spec, key):
    # only smooth name= takes a bare name; elsewhere the error names both
    with pytest.raises(ParseError, match=f"{key}= needs numbers, not the name 'foo'"):
        parse_function(spec, 1)


def test_parse_body_name_for_a_number():
    with pytest.raises(ParseError, match="M= needs numbers, not the name 'foo'"):
        parse_body("ellipsoid M=foo", 1)


@pytest.mark.parametrize("spec", ["ellipsoid", "point", "body", {"p": [0, 1]}])
def test_parse_body_errors(spec):
    with pytest.raises(ParseError):
        parse_body(spec, 1)


def _catalog_examples(heading):
    block = CATALOG_TEXT.split(heading, 1)[1].split("\n\n", 1)[0]
    lines = [ln.strip() for ln in block.splitlines()[1:]]
    # drop the trailing comments, e.g. "(also: quartic)"
    return [ln.split("  ")[0] for ln in lines if ln]


def test_catalog_examples_parse():
    functions = _catalog_examples("Function specs")
    bodies = _catalog_examples("Body specs")
    assert len(functions) == 5 and len(bodies) == 3
    for spec in functions:
        parse_function(spec, 1)
    for spec in bodies:
        parse_body(spec, 2)


def test_parse_bodies():
    b = parse_body("ellipsoid M=[[1,0],[0,1]]", 1)
    assert b.n_ambient == 2
    p = parse_body("point p=[1,0,0]", 2)
    assert p.n_ambient == 3
    s = parse_body("smoothbox a=[1,1] eps=1/5", 1)
    assert s.eps == pytest.approx(0.2)
