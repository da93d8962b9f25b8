import math
from fractions import Fraction as Q

import numpy as np
import pytest

from cycleval.coefficients import BumpFactor, CoefficientFn, ball_bump
from cycleval.convex import (
    LogSumExp,
    MaxAffine,
    PiecewiseLinear1D,
    Quadratic,
    Shifted,
    SmoothCatalog,
    SmoothField,
)
from cycleval.exactla import det
from cycleval.forms import (
    Form,
    integrate_zero_section,
    lie_derivative,
    random_bump_form,
    standard_symplectic_form,
    wedge,
)
from cycleval.lab import (
    MixedDiscriminantSpec,
    Valuation,
    battery,
    evaluate,
    first_variation_check,
    group_average,
    hessian_form,
    hessian_valuation,
    homogeneity_fit,
    k1_representation,
    kernel_check,
    mixed_discriminant,
    random_kernel_form,
    random_window_form,
    signed_permutations,
    so_generators,
    so_projection,
    volume_contraction_form,
)
from cycleval.polynomials import Poly
from cycleval.quadrature import integrate_box
from cycleval.report import scale_of
from cycleval.rumin import g_invariance_conditions


def test_battery_composition():
    for n in (1, 2):
        fam = battery(n, seed=3, size=32)
        assert len(fam) == 32
        kinds = {type(f).__name__ for f in fam}
        assert {"Quadratic", "MaxAffine", "LogSumExp", "SmoothCatalog",
                "BodyRestriction", "Shifted", "Scaled"} <= kinds


def test_constant_valuation():
    # tau = beta(x) vol_x is closed: mu(f) = int beta for every f
    n = 1
    beta = CoefficientFn.bump(n, ball_bump(n, 2))
    tau = Form(n, n, {(0,): beta})
    val = Valuation(tau)
    ref = float(integrate_zero_section(tau))
    for f in battery(n, seed=1, size=8):
        (v,), = evaluate([val], [f])
        assert abs(float(v.value) - ref) < 1e-7 * max(1, abs(ref))


def test_evaluate_at_zero_function():
    # mu(0) equals the zero-section integral
    n = 2
    rng = np.random.default_rng(2)
    tau = random_bump_form(rng, n, degree=n)
    val = Valuation(tau)
    zero = Quadratic(np.zeros((n, n)))
    got = float(evaluate([val], [zero])[0][0].value)
    assert got == pytest.approx(float(integrate_zero_section(tau)), abs=1e-9)


def _two_box_forms(rng, n):
    """Forms on the [-2, 2]^n window and on a bump box, interleaved, and a
    window form on the bump's bounding box: at n = 2 the bump forms have
    their own support domain, the ellipse, inside that shared box."""
    forms = [random_window_form(rng, n, n), random_kernel_form(rng, n, kind="bump"),
             random_window_form(rng, n, n), random_bump_form(rng, n, degree=n)]
    (_, bump_hi), *_ = forms[1].support_box()
    forms.insert(2, random_window_form(rng, n, n, R=bump_hi))
    assert len({tau.support_box() for tau in forms}) == 2
    assert len({tau.support_domain() for tau in forms}) == (3 if n == 2 else 2)
    return [Valuation(tau) for tau in forms]


@pytest.mark.parametrize("route,n,f", [
    ("smooth", 1, Quadratic([[Q(3, 2)]], [Q(1, 4)], Q(0))),
    ("smooth", 2, Quadratic([[Q(2), Q(1, 2)], [Q(1, 2), Q(1)]], [Q(0), Q(-1, 3)])),
    ("ridge", 1, LogSumExp(MaxAffine([([1], 0), ([-1], Q(1, 2)), ([2], -1)]), 12.0)),
    ("ridge", 2, LogSumExp(MaxAffine([([1, 0], 0), ([-1, 1], Q(1, 2)),
                                      ([0, -1], Q(-1, 2))]), 40.0)),
    ("polyhedral", 1, MaxAffine([([1], 0), ([-1], Q(1, 2)), ([2], -1)])),
    ("polyhedral", 2, MaxAffine([([1, 0], 0), ([-1, 1], Q(1, 2)), ([0, -1], Q(-1, 2))])),
    ("polyline", 1, PiecewiseLinear1D([Q(-1), Q(1, 2)], [2, -1, Q(1, 2)], 0)),
])
def test_evaluate_list_equals_per_pair(route, n, f):
    # one call on forms with two support boxes (and at n = 2 three support
    # domains) gives, in input order, the value and error of each form
    # evaluated alone, bit for bit
    vals = _two_box_forms(np.random.default_rng(21 + n), n)
    got, = evaluate(vals, [f])
    ref = [evaluate([val], [f])[0][0] for val in vals]
    assert [(type(r.value), r.value, r.error) for r in got] == \
        [(type(r.value), r.value, r.error) for r in ref]
    assert any(r.value != 0 for r in ref)


def _mixed_battery(n):
    """One function of every route in dimension n, as (route, function)."""
    if n == 1:
        ma = MaxAffine([([1], 0), ([-1], Q(1, 2)), ([2], -1)])
        A = [[Q(3, 2)]]
    else:
        ma = MaxAffine([([1, 0], 0), ([-1, 1], Q(1, 2)), ([0, -1], Q(-1, 2))])
        A = [[Q(2), Q(1, 2)], [Q(1, 2), Q(1)]]
    out = [("smooth", Quadratic(A, [Q(1, 4)] * n, Q(0))),
           ("smooth", SmoothCatalog("sqrt1p", n)),
           ("ridge", LogSumExp(ma, 40.0)),
           ("polyhedral", ma)]
    if n == 1:
        out.append(("polyline", PiecewiseLinear1D([Q(-1), Q(1, 2)], [2, -1, Q(1, 2)], 0)))
    return out


def _bits(results):
    return [(type(r.value), r.value, r.error) for r in results]


@pytest.mark.parametrize("n", [1, 2])
def test_battery_equals_one_function_evaluation(n):
    # every route on forms with two support boxes, at n = 2 also an ellipse
    # (smooth box, smooth ellipse, ridge, polyhedral and polyline): each
    # function's results in a battery, with a repeated function, are the
    # bits of a battery of that function alone, and of each form alone
    vals = _two_box_forms(np.random.default_rng(31 + n), n)
    routes = _mixed_battery(n)
    functions = [f for _, f in routes]
    functions.insert(2, functions[0])
    got = evaluate(vals, functions)
    assert len(got) == len(functions)
    for f, row in zip(functions, got):
        assert _bits(row) == _bits(evaluate(vals, [f])[0])
        assert _bits(row) == [_bits(evaluate([val], [f])[0])[0] for val in vals]
    assert got[0] is not got[2] and _bits(got[0]) == _bits(got[2])
    assert all(any(r.value != 0 for r in row) for row in got)


@pytest.mark.parametrize("n", [1, 2])
def test_battery_mixing_gradient_degrees_equals_batteries_of_one(n, monkeypatch):
    # functions with and without a polynomial gradient on one window group
    # of forms of several degrees, and at n = 1 on a group that mixes bump
    # and window forms: the window forms of a polynomial-gradient function
    # run on Gauss pairs of more than one order, the rest on the box pair,
    # and each function's results are the bits of a battery of one and of
    # each form alone
    from cycleval import quadrature
    from cycleval.convex import BodyRestriction, EllipsoidBody, Scaled

    rng = np.random.default_rng(41 + n)
    vals = _two_box_forms(rng, n) + [Valuation(random_window_form(rng, n, n, max_deg=k))
                                     for k in (0, 3)]
    A = [[Q(2), Q(1, 2)], [Q(1, 2), Q(1)]] if n == 2 else [[Q(3, 2)]]
    functions = [Quadratic(A, [Q(1, 4)] * n), SmoothCatalog("sqrt1p", n),
                 SmoothCatalog("quartic", n), Shifted(Quadratic(A), [Q(-1, 2)] * n, 1),
                 Scaled(SmoothCatalog("quartic", n), Q(1, 2)),
                 BodyRestriction(EllipsoidBody(np.diag(np.arange(1.0, n + 2))))]
    orders = set()
    real = quadrature._rule

    def rule(domain):
        if isinstance(domain, quadrature.PolynomialBox):
            orders.add(domain.orders)
        return real(domain)

    monkeypatch.setattr(quadrature, "_rule", rule)
    got = evaluate(vals, functions)
    assert len(orders) >= 2
    for f, row in zip(functions, got):
        assert _bits(row) == _bits(evaluate(vals, [f])[0])
        assert _bits(row) == [_bits(evaluate([val], [f])[0])[0] for val in vals]
    assert all(any(r.value != 0 for r in row) for row in got)


def _ellipse_forms(rng):
    """Bump forms on one support ellipse each: two kernel forms, a form on
    a skew matrix and a declared bump(R=2) form, of pullback degrees 1 to 4
    on a quadratic."""
    from cycleval.grammar import parse_form

    skew = BumpFactor(((Q(1), Q(1, 3)), (Q(1, 3), Q(1, 2))))
    forms = [random_kernel_form(rng, 2, kind="bump") for _ in range(2)]
    forms.append(Form(2, 2, {
        (0, 3): CoefficientFn.bump(2, skew, Poly.monomial(4, [1, 0, 0, 2], Q(3))),
        (2, 3): CoefficientFn.bump(2, skew, Poly.const(4, Q(1, 2)))}))
    forms.append(parse_form("bump(R=2) * dx1 ^ dy2 + 2 * bump(R=2) * x1 * y2 * dx1 ^ dy2"
                            " + bump(R=2) * y1 * dy1 ^ dy2", 2))
    return forms


def _polynomial_gradient_functions():
    from cycleval.convex import Scaled

    A = [[Q(2), Q(1, 2)], [Q(1, 2), Q(1)]]
    return [Quadratic(A, [Q(1, 4), Q(-1, 3)]), Shifted(Quadratic(A), [Q(-1, 2), Q(1)], 1),
            Scaled(Quadratic(A), Q(3, 2)), SmoothCatalog("quartic", 2)]


def test_degree_rule_agrees_with_the_plain_ellipse_pair_and_a_reference():
    # on a function with a polynomial gradient a 2-D bump form runs on the
    # polar rule of its pullback degree: both rules are exact in the angle,
    # so value and error agree with the plain pair to rounding, and the
    # value with a 160 x 256 polar reference within its error estimate
    from cycleval.cycles import eval_smooth, graph_pullback_integrand, pullback_degree
    from cycleval.quadrature import Ellipse, node_blocks

    for tau in _ellipse_forms(np.random.default_rng(12)):
        domain = tau.support_domain()
        assert isinstance(domain, Ellipse) and domain.degree is None
        for f in _polynomial_gradient_functions():
            assert pullback_degree(f, tau) is not None
            got = evaluate([Valuation(tau)], [f])[0][0]
            plain = eval_smooth(f, [tau])[0]
            scale = max(1.0, abs(got.value))
            assert abs(got.value - plain.value) <= 1e-12 * scale
            assert abs(got.error - plain.error) <= 1e-12 * scale
            pts, wts = map(np.concatenate, zip(*node_blocks(domain, (160, 256))))
            ref = float(np.add.reduce(wts * graph_pullback_integrand(f, [tau])(pts)[0]))
            assert abs(got.value - ref) <= got.error + 1e-12 * scale


def test_degree_rule_reads_the_degree_tightly():
    # (2 x1 + x2)^2 beta dx1 ^ dx2 pulled back by y = A x: y1^2 beta has
    # degree 2 and a second angular harmonic, which D + 1 = 3 angles
    # integrate and D = 2 angles miss
    from cycleval.cycles import eval_smooth, graph_pullback_integrand, pullback_degree
    from cycleval.quadrature import Ellipse, integrate

    f = Quadratic([[Q(2), Q(1)], [Q(1), Q(1)]])
    tau = Form.monomial(2, [1, 2], [], CoefficientFn.bump(
        2, ball_bump(2, 2), Poly.monomial(4, [0, 0, 2, 0], Q(1))))
    degree = pullback_degree(f, tau)
    assert degree == 2
    M = tau.support_domain().M
    fn = graph_pullback_integrand(f, [tau])
    exact, short = (integrate(fn, [Ellipse(M, d)])[0] for d in (degree, degree - 1))
    plain = eval_smooth(f, [tau])[0]
    assert abs(exact.value - plain.value) <= 1e-12 * abs(plain.value)
    assert abs(short.value - plain.value) > 0.1 * abs(plain.value)


def test_bump_battery_mixing_gradient_degrees_equals_batteries_of_one():
    # bump forms of several pullback degrees on functions with gradients of
    # degree 1 and 3 and without a polynomial gradient: each function's
    # results are the bits of a battery of one and of each form alone
    from cycleval.convex import BodyRestriction, EllipsoidBody

    vals = [Valuation(tau) for tau in _ellipse_forms(np.random.default_rng(13))]
    functions = _polynomial_gradient_functions() + [
        SmoothCatalog("sqrt1p", 2), BodyRestriction(EllipsoidBody(np.diag([1.0, 2.0, 3.0])))]
    got = evaluate(vals, functions)
    for f, row in zip(functions, got):
        assert _bits(row) == _bits(evaluate(vals, [f])[0])
        assert _bits(row) == [_bits(evaluate([val], [f])[0])[0] for val in vals]
    assert all(any(r.value != 0 for r in row) for row in got)


def test_graph_routes_refuse_a_term_off_its_window():
    # box(-2,2) * dx1 + box(0,1) * dy1: the graph routes integrate every term
    # over [-2, 2] (8 on x^2/2, against 5), the polyhedral and polyline
    # routes honour each term's window (6 on |x|)
    from cycleval.coefficients import SupportError
    from cycleval.grammar import parse_form

    val = Valuation(parse_form("box(-2,2) * dx1 + box(0,1) * dy1", 1))
    for f in (Quadratic([[1]]), LogSumExp(MaxAffine([([1], 0), ([-1], 0)]), 12.0)):
        with pytest.raises(SupportError, match="window"):
            evaluate([val], [f])
    exact = evaluate([val], [MaxAffine([([1], 0), ([-1], 0)]),
                             PiecewiseLinear1D([Q(0)], [-1, 1], 0)])
    assert [row[0].value for row in exact] == [6, 6]


@pytest.mark.parametrize("route", ["polyline", "polyhedral", "smooth", "ridge", "bridge"])
def test_routes_refuse_a_form_they_cannot_integrate_alike(route):
    # D(f)[tau] needs a known support and no free parameters: every route
    # refuses a polynomial without a window, and a free parameter, with the
    # SupportError of Form.check_evaluable
    from cycleval.bridge import conormal_eval
    from cycleval.coefficients import SupportError
    from cycleval.convex import EllipsoidBody
    from cycleval.grammar import parse_form

    t = Poly.variable(3, 2)  # a parameter slot after (x1, y1)
    forms = [parse_form("x1 * dy1", 1),
             Form.monomial(1, [], [1], CoefficientFn(1, {(ball_bump(1, 2),): t}))]
    abs_x = MaxAffine([([1], 0), ([-1], 0)])
    f = {"polyline": PiecewiseLinear1D([Q(0)], [-1, 1], 0), "polyhedral": abs_x,
         "smooth": Quadratic([[1]]), "ridge": LogSumExp(abs_x, 12.0)}.get(route)
    for tau in forms:
        with pytest.raises(SupportError) as got:
            if f is None:
                conormal_eval(EllipsoidBody([[1, 0], [0, 1]]), tau)
            else:
                evaluate([Valuation(tau)], [f])
        with pytest.raises(SupportError) as want:
            tau.check_evaluable()
        assert str(got.value) == str(want.value)


def test_battery_families_share_a_function():
    # the kernel suite's two families: a bump form on the smooth functions
    # and window forms on all, with the smooth functions in both batteries
    n = 2
    rng = np.random.default_rng(33)
    bump = [Valuation(random_kernel_form(rng, n, kind="bump"))]
    window = [Valuation(random_window_form(rng, n, n)) for _ in range(2)]
    routes = _mixed_battery(n)
    smooth = [f for route, f in routes if route == "smooth"]
    full = [f for _, f in routes]
    for vals, family in ((bump, smooth), (window, full)):
        got = evaluate(vals, family)
        for f, row in zip(family, got):
            assert _bits(row) == [_bits(evaluate([val], [f])[0])[0] for val in vals]


def test_battery_shares_block_caches_within_the_call(monkeypatch):
    # the smooth route fills one EvalCache per node block for the whole
    # battery, dropped with its block: at most one is alive at any time,
    # and none outlives the call
    import weakref

    from cycleval import cycles
    from cycleval.coefficients import EvalCache
    from cycleval.convex import Scaled

    made = []

    class Tracked(EvalCache):
        __slots__ = ("__weakref__",)

        def __init__(self):
            assert all(ref() is None for ref in made)
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(cycles, "EvalCache", Tracked)
    n = 2
    vals = [Valuation(random_bump_form(np.random.default_rng(34), n, degree=n))]
    functions = [Quadratic([[Q(1) + k, Q(0)], [Q(0), Q(1)]]) for k in range(4)]
    got = evaluate(vals, functions)
    # the form's pullback on the quadratics has degree 1: its polar rule's
    # two passes, 56 and 64 radii times 2 angles, are one block each
    assert len(made) == 2
    assert all(ref() is None for ref in made)
    for f, row in zip(functions, got):
        assert _bits(row) == _bits(evaluate(vals, [f])[0])
    # at n = 3 a bump form on sqrt1p runs on the 32^3 / 48^3 box pair, 8
    # and 27 blocks, each with its one cache for both functions
    made.clear()
    vals = [Valuation(random_bump_form(np.random.default_rng(35), 3, degree=3))]
    functions = [SmoothCatalog("sqrt1p", 3), Scaled(SmoothCatalog("sqrt1p", 3), Q(3, 2))]
    got = evaluate(vals, functions)
    assert len(made) == 8 + 27
    assert all(ref() is None for ref in made)
    for f, row in zip(functions, got):
        assert _bits(row) == _bits(evaluate(vals, [f])[0])


def _values(tau, functions):
    return [float(evaluate([Valuation(tau)], [f])[0][0].value) for f in functions]


def test_kernel_forward_small():
    rng = np.random.default_rng(5)
    fam = battery(1, seed=2, size=10) + battery(1, seed=9, size=4)
    for _ in range(3):
        tau = random_kernel_form(rng, 1)
        rep = kernel_check(tau, fam, _values(tau, fam))
        assert rep.mode == "kernel"
        assert rep.passed, (rep.values, rep.scale)


def test_kernel_contrapositive_witness():
    rng = np.random.default_rng(6)
    n = 1
    # psi(x) dy is not in the kernel: quadratics witness int psi''f != 0
    psi = CoefficientFn.bump(n, ball_bump(n, 2), Poly.const(2, 2))
    tau = Form(n, 1, {(1,): psi})
    fam = battery(n, seed=4, size=12)
    rep = kernel_check(tau, fam, _values(tau, fam))
    assert rep.mode == "nonkernel"
    assert rep.passed and rep.witness is not None


def test_dual_epi_invariance_numeric():
    # mu(f + lambda + c) = mu(f) for vertically invariant pure-bidegree tau
    n = 2
    rng = np.random.default_rng(8)
    tau = random_bump_form(rng, n, bidegree=(1, 1), y_dependent=False)
    val = Valuation(tau)
    f = Quadratic([[1.2, 0.1], [0.1, 0.9]])
    base = float(evaluate([val], [f])[0][0].value)
    for lam, c in (([Q(1, 2), Q(-1)], Q(2)), ([Q(0), Q(3, 4)], Q(-1, 3))):
        shifted = Shifted(f, lam, c)
        v = float(evaluate([val], [shifted])[0][0].value)
        assert abs(v - base) < 1e-7 * max(1, abs(base))


def test_homogeneity_fit_pure_bidegree():
    rng = np.random.default_rng(9)
    n = 2
    for k in (0, 1, 2):
        tau = random_bump_form(rng, n, bidegree=(n - k, k), y_dependent=False)
        val = Valuation(tau)
        f = Quadratic([[1.5, 0.2], [0.2, 1.1]], [0.1, 0.0], 0.3)
        fit = homogeneity_fit(val, f)
        coeffs = np.abs(np.asarray(fit.coefficients))
        others = [c for i, c in enumerate(coeffs) if i != k]
        assert all(c < 1e-7 * fit.scale for c in others), (k, fit.coefficients)


def test_homogeneity_fit_mixed_bidegree_decomposes():
    # the fit of a two-bidegree sum matches the separate pure fits
    rng = np.random.default_rng(15)
    n = 2
    tau0 = random_bump_form(rng, n, bidegree=(2, 0), y_dependent=False)
    tau2 = random_bump_form(rng, n, bidegree=(0, 2), y_dependent=False)
    f = Quadratic([[1.4, 0.3], [0.3, 1.0]])
    fit_sum = homogeneity_fit(Valuation(tau0 + tau2), f)
    fit0 = homogeneity_fit(Valuation(tau0), f)
    fit2 = homogeneity_fit(Valuation(tau2), f)
    combined = np.asarray(fit0.coefficients) + np.asarray(fit2.coefficients)
    scale = max(fit_sum.scale, 1.0)
    assert np.abs(np.asarray(fit_sum.coefficients) - combined).max() < 1e-7 * scale


def test_first_variation():
    n = 1
    # tau = x^2 beta(x) dy: genuinely nonconstant along the perturbation
    tau = Form(n, 1, {(1,): CoefficientFn.bump(n, ball_bump(n, 2),
                                               Poly.variable(2, 0) ** 2)})
    val = Valuation(tau)
    f = Quadratic([[1]])
    psi = SmoothField(CoefficientFn.bump(n, ball_bump(n, Q(3, 2)),
                                         Poly.variable(2, 0) ** 3
                                         + Poly.variable(2, 0) ** 2))
    rep = first_variation_check(val, f, psi)
    assert abs(rep.directional) > 1e-3  # non-degenerate case
    assert abs(rep.order - 2.0) < 0.2
    assert rep.residual < 1e-5 * rep.scale


def test_first_variation_constant_direction():
    # psi constant: both sides vanish (rumin output is exact)
    n = 1
    rng = np.random.default_rng(11)
    tau = random_bump_form(rng, n, degree=1, radius=2)
    val = Valuation(tau)
    f = Quadratic([[1]])
    psi = SmoothField(CoefficientFn.from_poly(n, Poly.const(2, 1),
                                              box=((Q(-3), Q(3)),)))
    rep = first_variation_check(val, f, psi)
    assert abs(rep.directional) < 1e-8
    assert abs(rep.extrapolated) < 1e-6 * rep.scale


def test_first_variation_refuses_a_bump_direction_above_n_1():
    # fixed nodes do not resolve the Hessian layers a bump psi puts at its
    # support sphere inside the box; the check refuses rather than guess
    n = 2
    tau = Form(n, 2, {(2, 3): CoefficientFn.bump(n, ball_bump(n, 2),
                                                 Poly.const(4, 1))})
    psi = SmoothField(CoefficientFn.bump(n, ball_bump(n, Q(3, 2)),
                                         Poly.variable(4, 0) ** 2))
    with pytest.raises(ValueError):
        first_variation_check(Valuation(tau), Quadratic([[1, 0], [0, 1]]), psi)


def test_first_variation_perturbations_share_one_rule(monkeypatch):
    # at n = 2 with a polynomial psi the six perturbed functions share one
    # gradient degree, max(1, deg psi - 1) = 2, and so one angle-exact
    # rule; the right-hand side, whose coefficients carry psi's window,
    # keeps the plain ellipse rule
    from cycleval import lab
    from cycleval.convex import Perturbed
    from cycleval.cycles import pullback_degree
    from cycleval.quadrature import Ellipse

    n = 2
    tau = Form(n, 2, {(2, 3): CoefficientFn.bump(
        n, ball_bump(n, 2), Poly.const(4, 1) + Poly.monomial(4, (0, 0, 1, 0), Q(1, 2)))})
    tau = tau + Form(n, 2, {(0, 1): CoefficientFn.bump(
        n, ball_bump(n, 2), Poly.monomial(4, (1, 0, 0, 1), Q(1, 3)))})
    wide = ((Q(-3), Q(3)),) * 2
    psi = SmoothField(CoefficientFn.from_poly(
        n, Poly.monomial(4, (3, 0, 0, 0), Q(1, 6)) + Poly.monomial(4, (0, 2, 0, 0), Q(1, 3)),
        box=wide))
    f = Quadratic([[2, 1], [1, 2]])
    calls = []
    real = lab.eval_smooth

    def eval_smooth(g, forms, domain=None, **kw):
        calls.append((g, domain))
        return real(g, forms, domain, **kw)

    monkeypatch.setattr(lab, "eval_smooth", eval_smooth)
    rep = first_variation_check(Valuation(tau), f, psi)
    perturbed = {domain for g, domain in calls if isinstance(g, Perturbed)}
    assert len(calls) == 7 and len(perturbed) == 1
    M = tau.support_domain().M
    probe = Perturbed(f, psi, 0.01, window=0.01, box=tau.support_box(), check=False)
    assert probe.gradient_degree == 2
    assert perturbed == {Ellipse(M, pullback_degree(probe, tau))}
    assert [domain for g, domain in calls if g is f] == [Ellipse(M)]
    assert abs(rep.order - 2.0) < 0.2 and rep.residual < 1e-5 * rep.scale


def test_hessian_cross_check_sides_on_two_angle_exact_rules(monkeypatch):
    # at n = 2 and 3 both sides of the Hessian cross-check run on an
    # ellipse rule of known degree, the direct side on one of a larger
    # degree, so the two sides compare two node sets
    from cycleval import quadrature
    from cycleval.quadrature import Ellipse

    rules = []
    real = quadrature._rule

    def rule(domain):
        rules.append(domain)
        return real(domain)

    monkeypatch.setattr(quadrature, "_rule", rule)
    rng = np.random.default_rng(17)
    for n, k in ((2, 1), (3, 0), (3, 2)):
        B = CoefficientFn.bump(n, ball_bump(n, Q(3, 2)),
                               Poly.const(2 * n, 1) + Poly.variable(2 * n, 0).scale(Q(1, 2)))
        spec = MixedDiscriminantSpec(n, k, B, [_rand_sym(rng, n) for _ in range(n - k)])
        f = Quadratic(_rand_pd(rng, n))
        rules.clear()
        direct = hessian_valuation(spec, f)
        via = float(evaluate([Valuation(hessian_form(spec))], [f])[0][0].value)
        (d_rule,), (v_rule,) = rules[:1], rules[1:]
        assert isinstance(d_rule, Ellipse) and isinstance(v_rule, Ellipse)
        assert d_rule.M == v_rule.M and (d_rule.degree, v_rule.degree) == (3, 1)
        assert via == pytest.approx(direct, rel=1e-12), (n, k)


def test_hessian_cross_check_at_n1_compares_two_node_sets():
    # at n = 1 the form side runs on the box pair of the bump's support box
    # and the direct side on that box cut in two at its centre: the sides
    # agree to rounding, not bit for bit
    B = CoefficientFn.bump(1, ball_bump(1, Q(3, 2)),
                           Poly.const(2, 1) + Poly.variable(2, 0).scale(Q(1, 2)))
    f = Quadratic([[Q(5, 2)]])
    for k, A in ((0, [[[Q(3, 2)]]]), (1, [])):
        spec = MixedDiscriminantSpec(1, k, B, A)
        direct = hessian_valuation(spec, f)
        via = float(evaluate([Valuation(hessian_form(spec))], [f])[0][0].value)
        assert via != direct and via == pytest.approx(direct, rel=1e-13), k


def test_3d_bump_forms_on_the_spherical_rule_agree_with_the_box_pair():
    # a 3-D form on one bump matrix, on functions whose gradient is a
    # polynomial, runs on the ellipsoid rule of its pullback degree: within
    # the 32^3 / 48^3 box pair's estimate of that pair's value, with an
    # estimate of its own far below
    from cycleval.cycles import eval_smooth, pullback_degree
    from cycleval.lab import _rand_pd_matrix

    rng = np.random.default_rng(19)
    A = _rand_pd_matrix(rng, 3)
    functions = [Quadratic(A, [Q(1, 4), Q(-1, 3), 0]), Shifted(Quadratic(A), [Q(1, 2), 0, 1], 1),
                 SmoothCatalog("quartic", 3)]
    for tau in [random_bump_form(rng, 3, degree=3, nterms=3) for _ in range(2)]:
        box = tau.support_box()
        for f in functions:
            assert pullback_degree(f, tau) is not None
            got = evaluate([Valuation(tau)], [f])[0][0]
            pair = eval_smooth(f, [tau], domain=box)[0]
            scale = max(1.0, abs(pair.value))
            assert abs(got.value - pair.value) <= pair.error + 1e-12 * scale
            assert got.error <= 1e-3 * pair.error + 1e-12 * scale


def integral_against_density(f, phi):
    """int f phi dx over the support box of phi, by quadrature."""
    box = phi.support_box()
    if box is None:
        raise ValueError("density needs a support box")

    def fn(pts):
        return f.eval_array(pts) * phi.eval_x_array(pts)

    return integrate_box(fn, box).value


def test_k1_representation_density():
    # n = 1, tau = psi(x) dy: density is psi''; mu(f) = int f psi''
    n = 1
    psi = Poly.variable(2, 0) ** 2
    tau = Form(n, 1, {(1,): CoefficientFn.bump(n, ball_bump(n, 2), psi)})
    val = Valuation(tau)
    phi = k1_representation(val)
    f = Quadratic([[1]], [Q(1, 3)], Q(0))
    lhs = float(evaluate([val], [f])[0][0].value)
    rhs = integral_against_density(f, phi)
    assert lhs == pytest.approx(rhs, rel=1e-6)
    # affine functions are annihilated (moment conditions)
    aff = Quadratic([[0]], [Q(1)], Q(2))
    assert abs(float(evaluate([val], [aff])[0][0].value)) < 1e-9


def test_mixed_discriminant():
    rng = np.random.default_rng(12)
    # diagonal of the polarization is det
    for n in (2, 3):
        A = rng.normal(size=(n, n))
        A = A + A.T
        got = mixed_discriminant([A] * n)
        assert got == pytest.approx(np.linalg.det(A), rel=1e-10)
    # n = 2 closed form
    A = np.array([[1.0, 0.2], [0.2, 2.0]])
    B = np.array([[0.5, -0.1], [-0.1, 1.5]])
    expect = 0.5 * (np.linalg.det(A + B) - np.linalg.det(A) - np.linalg.det(B))
    assert mixed_discriminant([A, B]) == pytest.approx(expect, rel=1e-12)
    # multilinearity and symmetry on random triples, against the coefficient
    # of t1 t2 t3 in det(t1 A1 + t2 A2 + t3 A3)
    for _ in range(5):
        mats = [rng.normal(size=(3, 3)) for _ in range(3)]
        mats = [m + m.T for m in mats]
        got = mixed_discriminant(mats)
        # brute force: finite differences of the determinant polynomial
        def det_at(t):
            return np.linalg.det(t[0] * mats[0] + t[1] * mats[1] + t[2] * mats[2])

        coeff = 0.0
        for eps in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
                    (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)):
            coeff += np.prod(eps) * det_at(np.asarray(eps, dtype=float))
        coeff /= 8.0 * 6.0  # 2^3 polarization steps, then / 3!
        assert got == pytest.approx(coeff, abs=1e-10)
    # exact arithmetic path
    E1 = [[Q(1), Q(0)], [Q(0), Q(0)]]
    E2 = [[Q(0), Q(0)], [Q(0), Q(1)]]
    assert mixed_discriminant([E1, E2]) == Q(1, 2)


def test_hessian_form_and_valuation_agree():
    rng = np.random.default_rng(13)
    for n, k in ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 1), (3, 3)):
        B = CoefficientFn.bump(n, ball_bump(n, Q(3, 2)))
        A = []
        for _ in range(n - k):
            M = _rand_sym(rng, n)
            A.append(M)
        spec = MixedDiscriminantSpec(n, k, B, A)
        form = hessian_form(spec)
        f = Quadratic(_rand_pd(rng, n))
        direct = hessian_valuation(spec, f)
        via_form = float(evaluate([Valuation(form)], [f])[0][0].value)
        assert via_form == pytest.approx(direct, rel=1e-6, abs=1e-9), (n, k)


def _rand_sym(rng, n):
    M = [[Q(int(rng.integers(-2, 3)), 2) for _ in range(n)] for _ in range(n)]
    return [[(M[i][j] + M[j][i]) / 2 for j in range(n)] for i in range(n)]


def _rand_pd(rng, n):
    G = [[Q(int(rng.integers(-2, 3)), 2) for _ in range(n)] for _ in range(n)]
    return [[sum(G[k][i] * G[k][j] for k in range(n)) + (Q(1, 2) if i == j else 0)
             for j in range(n)] for i in range(n)]


def test_hessian_form_known_cases():
    # k = n, B = beta, n = 1: the form is beta(x) dy1
    n = 1
    B = CoefficientFn.bump(n, ball_bump(n, 1))
    spec = MixedDiscriminantSpec(n, 1, B, [])
    form = hessian_form(spec)
    assert set(form.terms) == {(1,)}
    # k = 0: B D(A_1..A_n) vol_x
    spec0 = MixedDiscriminantSpec(n, 0, B, [[[Q(3)]]])
    form0 = hessian_form(spec0)
    assert set(form0.terms) == {(0,)}
    # n = 2, k = 1, A = I: pullback must give B * tr(D^2 f) * (1/2) * vol
    n = 2
    B2 = CoefficientFn.bump(n, ball_bump(n, 1))
    spec2 = MixedDiscriminantSpec(n, 1, B2, [[[Q(1), Q(0)], [Q(0), Q(1)]]])
    form2 = hessian_form(spec2)
    f = Quadratic([[Q(3), Q(0)], [Q(0), Q(5)]])
    direct = hessian_valuation(spec2, f)
    # mixed discriminant D(H, I) for diagonal H: (h11 + h22)/2
    ref = 4.0 * float(integrate_zero_section(Form(n, n, {(0, 1): B2})))
    assert direct == pytest.approx(ref, rel=1e-9)
    via = float(evaluate([Valuation(form2)], [f])[0][0].value)
    assert via == pytest.approx(ref, rel=1e-8)


def test_group_average_exact_invariance():
    # averaging over the 90-degree rotation subgroup (exact integer matrices)
    n = 2
    rng = np.random.default_rng(14)
    tau = random_bump_form(rng, n, bidegree=(1, 1), y_dependent=False)
    C4 = [[[Q(1), Q(0)], [Q(0), Q(1)]], [[Q(0), Q(-1)], [Q(1), Q(0)]],
          [[Q(-1), Q(0)], [Q(0), Q(-1)]], [[Q(0), Q(1)], [Q(-1), Q(0)]]]
    avg = group_average(tau, C4)
    for g in C4:
        rep = g_invariance_conditions(avg, g)
        assert rep.pullback_matches
    # averaging is idempotent on the result
    assert group_average(avg, C4) == avg


def test_signed_permutations():
    assert len(signed_permutations(2)) == 8
    for n in (2, 3):
        group = signed_permutations(n)
        keys = {tuple(map(tuple, g)) for g in group}
        for g in group:
            gtg = [[sum(g[k][i] * g[k][j] for k in range(n)) for j in range(n)]
                   for i in range(n)]
            assert gtg == [[int(i == j) for j in range(n)] for i in range(n)]
            for h in group:
                gh = tuple(tuple(sum(g[i][k] * h[k][j] for k in range(n))
                                 for j in range(n)) for i in range(n))
                assert gh in keys
    rotations = [g for g in signed_permutations(3) if det(g) == 1]
    assert len(rotations) == 24


def _tan_half_rotations(N=64, denom=2 ** 24):
    # near-equispaced rotations of the plane, each exactly orthogonal
    out = []
    for j in range(N):
        t = Q(round(math.tan(math.pi * (2 * j + 1 - N) / (2 * N)) * denom), denom)
        d = 1 + t * t
        out.append([[(1 - t * t) / d, -2 * t / d], [2 * t / d, (1 - t * t) / d]])
    return out


def test_so_projection_is_the_rotation_average():
    rng = np.random.default_rng(17)
    for n, bidegree in ((2, (1, 1)), (3, (2, 1))):
        tau = random_bump_form(rng, n, bidegree=bidegree, y_dependent=False,
                               max_deg=2, nterms=3)
        P = so_projection(tau)
        assert all(lie_derivative(X, P).is_zero() for X in so_generators(n))
        assert so_projection(P) == P
    # the 64-rotation average agrees on the k = 1 density
    tau = random_bump_form(rng, 2, bidegree=(1, 1), y_dependent=False,
                           max_deg=2, nterms=3)
    exact = k1_representation(Valuation(so_projection(tau)))
    sampled = k1_representation(Valuation(group_average(tau, _tan_half_rotations())))
    pts = rng.uniform(-2, 2, size=(200, 2))
    ref = exact.eval_x_array(pts)
    assert not exact.is_zero()
    assert np.abs(sampled.eval_x_array(pts) - ref).max() <= 1e-6 * scale_of(ref)


def test_so_projection_fixes_invariant_forms():
    for n in (2, 3):
        bump = CoefficientFn.bump(n, ball_bump(n, 2))
        r2 = sum((Poly.variable(2 * n, v) ** 2 for v in range(2 * n)), Poly.zero(2 * n))
        for inv in (volume_contraction_form(bump),
                    wedge(Form.from_coefficient(n, bump * r2),
                          standard_symplectic_form(n))):
            assert all(lie_derivative(X, inv).is_zero() for X in so_generators(n))
            assert so_projection(inv) == inv
    # x1^2 vol_x is not invariant; x1 dx1 averages to (x1 dx1 + x2 dx2) / 2
    n = 2
    bump = CoefficientFn.bump(n, ball_bump(n, 2))
    x = [Poly.variable(2 * n, v) for v in range(n)]
    skew = Form.monomial(n, [1, 2], [], bump * x[0] ** 2)
    assert not lie_derivative(so_generators(n)[0], skew).is_zero()
    tau = Form.monomial(n, [1], [], bump * x[0])
    want = (Form.monomial(n, [1], [], bump * x[0])
            + Form.monomial(n, [2], [], bump * x[1])).scale(Q(1, 2))
    assert so_projection(tau) == want
    with pytest.raises(ValueError):
        so_projection(Form.monomial(1, [1], [], CoefficientFn.bump(1, ball_bump(1, 2))))
    with pytest.raises(ValueError):
        ellipse = BumpFactor(((Q(1), Q(0)), (Q(0), Q(2))))
        so_projection(Form.monomial(n, [1], [2], CoefficientFn.bump(n, ellipse)))


def test_scale_of():
    assert scale_of([0.5, -2.0]) == 2.0
    assert scale_of([1e-9]) == 1.0
