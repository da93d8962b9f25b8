import math
from fractions import Fraction as Q
from itertools import combinations

import numpy as np
import pytest

from cycleval.coefficients import BumpFactor, CoefficientFn, ball_bump
from cycleval.forms import (
    DegreeError,
    DimensionMismatch,
    Form,
    PolynomialMap,
    exterior_derivative,
    fiber_scaling,
    integrate_zero_section,
    interior_product,
    lefschetz_L,
    lefschetz_L_inverse,
    lie_derivative,
    linear_lift,
    merge_sign,
    pullback,
    random_bump_form,
    standard_symplectic_form,
    vertical_translation,
    wedge,
    zero_section_coefficient,
)
from cycleval.exactla import inverse
from cycleval.lab import so_generators
from cycleval.polynomials import Poly


def dx(n, i, coeff=1):
    return Form.monomial(n, [i], [], coeff)


def dy(n, j, coeff=1):
    return Form.monomial(n, [], [j], coeff)


def var_x(n, i):
    return Poly.variable(2 * n, i - 1)


def var_y(n, j):
    return Poly.variable(2 * n, n + j - 1)


def tautological_one_form(n):
    """alpha = sum_i y_i dx_i."""
    alpha = Form.zero(n, 1)
    for i in range(1, n + 1):
        alpha = alpha + dx(n, i, var_y(n, i))
    return alpha


def test_symplectic_data_constructs_for_all_dims():
    for n in (1, 2, 3, 4):
        alpha, omega = tautological_one_form(n), standard_symplectic_form(n)
        assert alpha.degree == 1 and omega.degree == 2
        # d(alpha) = -omega_s
        assert exterior_derivative(alpha) == -omega
        # omega_s^n = n! dx_1^dy_1^...^dx_n^dy_n = (-1)^(n(n-1)/2) n! dx_I^dy_J
        top = omega
        for _ in range(n - 1):
            top = wedge(top, omega)
        sign = (-1) ** (n * (n - 1) // 2)
        volume = Form.monomial(n, range(1, n + 1), range(1, n + 1),
                               sign * math.factorial(n))
        assert top == volume
    with pytest.raises(DimensionMismatch):
        standard_symplectic_form(5)  # dimension capped by configuration


def test_merge_sign_basic():
    assert merge_sign((0,), (1,)) == (1, (0, 1))
    assert merge_sign((1,), (0,)) == (-1, (0, 1))
    assert merge_sign((0,), (0,)) == (0, None)


def test_wedge_anticommutes():
    n = 2
    a = dx(n, 1)
    b = dy(n, 1)
    assert wedge(a, b) == Form.monomial(n, [1], [1], 1)
    assert wedge(b, a) == Form.monomial(n, [1], [1], -1)
    xdx = Form.monomial(n, [1], [], Poly.variable(2 * n, 0))
    assert wedge(xdx, xdx).is_zero()


def test_exterior_derivative_examples():
    n = 1
    # d(y1 dx1) = -dx1^dy1
    a = Form.monomial(n, [1], [], var_y(n, 1))
    da = exterior_derivative(a)
    assert da == Form.monomial(n, [1], [1], -1)
    # d(alpha) = -omega_s
    assert exterior_derivative(tautological_one_form(2)) == -standard_symplectic_form(2)
    # product rule: d(x1 y1 dx2) = y1 dx1^dx2 + x1 dy1^dx2
    n = 2
    b = Form.monomial(n, [2], [], var_x(n, 1) * var_y(n, 1))
    db = exterior_derivative(b)
    expected = (Form.monomial(n, [1, 2], [], var_y(n, 1))
                + Form.monomial(n, [2], [1], -var_x(n, 1)))
    assert db == expected


def test_d_squared_zero_randomized():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        for deg in range(0, 2 * n - 1):
            for _ in range(10):
                a = _random_poly_form(rng, n, deg)
                assert exterior_derivative(exterior_derivative(a)).is_zero()


def _random_poly_form(rng, n, deg, nterms=2, bump=False):
    from cycleval.forms import _subset_keys
    keys = _subset_keys(n, deg)
    terms = {}
    for _ in range(nterms):
        key = keys[rng.integers(len(keys))]
        nv = 2 * n
        p = Poly.zero(nv)
        for _ in range(2):
            e = [0] * nv
            e[rng.integers(nv)] = rng.integers(0, 3)
            p = p + Poly.monomial(nv, e, Q(int(rng.integers(-4, 5)), int(rng.integers(1, 4))))
        c = CoefficientFn.bump(n, ball_bump(n, 2), p) if bump else CoefficientFn.from_poly(n, p)
        if key in terms:
            terms[key] = terms[key] + c
        else:
            terms[key] = c
    return Form(n, deg, terms)


def test_leibniz_randomized():
    rng = np.random.default_rng(11)
    for n in (1, 2):
        for dega in range(0, 2):
            for degb in range(0, 2):
                a = _random_poly_form(rng, n, dega)
                b = _random_poly_form(rng, n, degb)
                lhs = exterior_derivative(wedge(a, b))
                rhs = wedge(exterior_derivative(a), b) + wedge(a, exterior_derivative(b)).scale((-1) ** dega)
                assert lhs == rhs


def test_d_squared_on_bump_coefficients():
    rng = np.random.default_rng(3)
    for n in (1, 2):
        a = _random_poly_form(rng, n, 1, bump=True)
        assert exterior_derivative(exterior_derivative(a)).is_zero()


def test_interior_product_examples():
    n = 1
    omega = standard_symplectic_form(n)
    # i_{d/dy1} omega_s = -dx1
    X = [Poly.zero(2 * n), Poly.const(2 * n, 1)]
    assert interior_product(X, omega) == dx(n, 1, -1)
    # X = (0, grad psi): i_X alpha = 0 and i_X omega_s = -sum psi_i dx_i
    n = 2
    psi_grad = [var_x(n, 1) * 2, var_y := Poly.const(2 * n, 3)]  # gradient of x1^2 + 3 x2
    X = [Poly.zero(2 * n), Poly.zero(2 * n), psi_grad[0], psi_grad[1]]
    alpha = tautological_one_form(n)
    assert interior_product(X, alpha).is_zero()
    got = interior_product(X, standard_symplectic_form(n))
    expected = (Form.monomial(n, [1], [], psi_grad[0]) + Form.monomial(n, [2], [], psi_grad[1])).scale(-1)
    assert got == expected


def test_pullback_examples():
    # m_t^* omega_s = t omega_s with symbolic t
    n = 2
    mt = fiber_scaling(n)
    t = Poly.variable(2 * n + 1, 2 * n)
    got = pullback(mt, standard_symplectic_form(n))
    expected = Form(n, 2, {(i, n + i): CoefficientFn.from_poly(n, t) for i in range(n)})
    assert got == expected
    # phi_lambda^* alpha = alpha + sum lambda_i dx_i
    phi = vertical_translation(n)
    alpha = tautological_one_form(n)
    got = pullback(phi, alpha)
    lam = [Poly.variable(3 * n, 2 * n + i) for i in range(n)]
    expected = Form(n, 1, {(i,): CoefficientFn.from_poly(n, Poly.variable(3 * n, n + i) + lam[i])
                           for i in range(n)})
    assert got == expected
    # identity pullback
    rng = np.random.default_rng(5)
    a = _random_poly_form(rng, 2, 2)
    assert pullback(PolynomialMap.identity(2), a) == a


def test_cartan_identity_exact():
    # d i_X + i_X d equals the t-derivative at 0 of the pullback along the
    # time-t flow, for fields X = (0, A x + b) whose flow is polynomial
    rng = np.random.default_rng(19)
    n = 2
    A = [[Q(1), Q(-2)], [Q(0), Q(3)]]
    b = [Q(1, 2), Q(-1)]
    X = [Poly.zero(2 * n), Poly.zero(2 * n),
         Poly.variable(2 * n, 0) - Poly.variable(2 * n, 1).scale(2) + Poly.const(2 * n, Q(1, 2)),
         Poly.variable(2 * n, 1).scale(3) - Poly.const(2 * n, 1)]
    # flow: (x, y) -> (x, y + t (A x + b)); carry t as a parameter
    nv = 2 * n + 1
    t = Poly.variable(nv, 2 * n)
    comps = [Poly.variable(nv, v) for v in range(2 * n)]
    for i in range(2):
        shift = Poly.zero(nv)
        for j in range(2):
            shift = shift + Poly.variable(nv, j).scale(A[i][j])
        shift = shift + Poly.const(nv, b[i])
        comps[n + i] = comps[n + i] + shift * t
    flow = PolynomialMap(n, comps)
    for deg in (1, 2):
        for _ in range(5):
            a = _random_poly_form(rng, n, deg)
            lie = pullback(flow, a).map_coefficients(lambda c: _t_derivative(c, 2 * n))
            assert lie_derivative(X, a) == lie


def test_lie_derivative_commutes_with_d():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        for X in so_generators(n):
            for deg in range(2 * n):
                a = random_bump_form(rng, n, degree=deg)
                assert lie_derivative(X, exterior_derivative(a)) \
                    == exterior_derivative(lie_derivative(X, a))


def _cayley(A, s):
    # (I - s A / 2)^{-1} (I + s A / 2): a rational rotation for antisymmetric A
    n = len(A)
    lo = inverse([[int(i == j) - s * A[i][j] / 2 for j in range(n)] for i in range(n)])
    hi = [[int(i == j) + s * A[i][j] / 2 for j in range(n)] for i in range(n)]
    return [[sum(lo[i][k] * hi[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def test_lie_derivative_is_derivative_of_rotations():
    # g_t = cayley(A, t) is tangent to exp(tA) at t = 0, so the central
    # difference (g_t^* tau - g_{-t}^* tau) / 2t is L_X tau up to O(t^2)
    rng = np.random.default_rng(29)
    t = Q(1, 1000)
    for n in (2, 3):
        pts = rng.uniform(-1.5, 1.5, size=(40, 2 * n))
        for (i, j), X in zip(combinations(range(n), 2), so_generators(n)):
            A = [[Q(0)] * n for _ in range(n)]
            A[j][i], A[i][j] = Q(1), Q(-1)
            for deg in (1, n):
                tau = random_bump_form(rng, n, degree=deg, nterms=3)
                up = pullback(linear_lift(n, _cayley(A, t)), tau)
                down = pullback(linear_lift(n, _cayley(A, -t)), tau)
                lie = lie_derivative(X, tau)
                err = ((up - down).scale(1 / (2 * t)) - lie).terms.values()
                scale = max([1.0] + [np.abs(c.eval_array(pts)).max()
                                     for c in lie.terms.values()])
                assert max((np.abs(c.eval_array(pts)).max() for c in err),
                           default=0.0) <= 1e-5 * scale


def _t_derivative(c, slot):
    # coefficient of t^1, i.e. d/dt at t = 0
    from cycleval.coefficients import CoefficientFn

    out = {}
    for sig, poly in c.atoms.items():
        terms = {}
        for e, v in poly.terms.items():
            if len(e) > slot and e[slot] == 1:
                e2 = list(e)
                e2[slot] = 0
                terms[tuple(e2)] = v
        if terms:
            out[sig] = Poly(poly.nvars, terms)
    return CoefficientFn(c.n, out, declared_box=c.declared_box)


def test_zero_section_fixed_by_fiber_scaling():
    from cycleval.coefficients import ball_bump

    n = 2
    c = CoefficientFn.bump(n, ball_bump(n, 1),
                           Poly.const(4, 1) + Poly.variable(4, n))
    tau = Form(n, n, {(0, 1): c})
    base = integrate_zero_section(tau).value
    for t in (Q(1, 2), Q(3)):
        pulled = pullback(fiber_scaling(n, t), tau)
        assert integrate_zero_section(pulled).value == pytest.approx(base, abs=1e-10)


def test_pullback_functorial_and_commutes_with_d():
    rng = np.random.default_rng(13)
    n = 2
    g = linear_lift(n, [[1, 2], [0, 1]])
    h = linear_lift(n, [[0, -1], [1, 0]])
    a = _random_poly_form(rng, n, 2)
    assert pullback(h, pullback(g, a)) == pullback(g.compose(h), a)
    assert exterior_derivative(pullback(g, a)) == pullback(g, exterior_derivative(a))


def test_one_map_pulls_back_forms_of_every_ring_size():
    # a map keeps its expanded minors; reusing it on forms in different
    # rings (parameter slots or not) gives what a fresh map gives
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        plain = _random_poly_form(rng, n, n, nterms=3)
        bumped = random_bump_form(rng, n, degree=n, nterms=3)
        # lambda in slots 2n..3n-1, a ring larger than fiber_scaling's
        shifted = pullback(vertical_translation(n), plain + bumped)
        assert max(c.nvars() for c in shifted.terms.values()) == 3 * n
        for make in (lambda: fiber_scaling(n), lambda: linear_lift(n, _shear(n))):
            F = make()
            for a in (plain, shifted, bumped, shifted, plain):
                got = pullback(F, a)
                want = pullback(make(), a)
                assert got == want
                assert [list(c.atoms.items()) for c in got.terms.values()] == \
                    [list(c.atoms.items()) for c in want.terms.values()]
                assert list(got.terms) == list(want.terms)
            key = next(iter(plain.terms))
            assert F.minors(key) is F.minors(key)


def _shear(n):
    return [[Q(1) if i == j else Q(j - i, 2) * (j > i) for j in range(n)] for i in range(n)]


def _no_zero_coefficient(form: Form) -> Form:
    assert all(not c.is_zero() for c in form.terms.values()), form
    return form


def test_algebra_results_hold_no_zero_coefficient():
    rng = np.random.default_rng(37)
    for n in (1, 2, 3):
        lift = linear_lift(n, _shear(n))
        for degree in range(1, 2 * n, 2):
            for make in (lambda: _random_poly_form(rng, n, degree, nterms=3),
                         lambda: random_bump_form(rng, n, degree=degree, nterms=3)):
                a = make()
                dd = _no_zero_coefficient(exterior_derivative(
                    _no_zero_coefficient(exterior_derivative(a))))
                assert dd.terms == {} and dd.is_zero()
                aa = _no_zero_coefficient(wedge(a, a))
                assert aa.terms == {} and aa.is_zero()
                _no_zero_coefficient(pullback(lift, a))
                _no_zero_coefficient(pullback(fiber_scaling(n), a))
        for xi in (_random_poly_form(rng, n, n - 1, nterms=3),
                   random_bump_form(rng, n, degree=n - 1, nterms=3)):
            back = _no_zero_coefficient(lefschetz_L_inverse(lefschetz_L(xi)))
            assert back == xi


def test_lefschetz_examples():
    n = 2
    # L(1) = omega_s
    one = Form.constant(n, 1)
    assert lefschetz_L(one) == standard_symplectic_form(n)
    # L(dx1) = dx1^dx2^dy2 for n = 2
    got = lefschetz_L(dx(n, 1))
    assert got == Form.monomial(n, [1, 2], [2], 1)
    # round trips
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        xi = _random_poly_form(rng, n, n - 1)
        assert lefschetz_L_inverse(lefschetz_L(xi)) == xi
        eta = _random_poly_form(rng, n, n + 1)
        assert lefschetz_L(lefschetz_L_inverse(eta)) == eta
    # n=2: L^{-1}(dx1^dx2^dy2) = dx1
    assert lefschetz_L_inverse(Form.monomial(2, [1, 2], [2], 1)) == dx(2, 1)
    with pytest.raises(DegreeError):
        lefschetz_L_inverse(dx(2, 1))


def test_integrate_zero_section():
    n = 2
    bump = ball_bump(n, 1)
    beta = CoefficientFn.bump(n, bump)
    vol = Form(n, n, {(0, 1): beta})
    val = integrate_zero_section(vol).value
    # cross-check against a tensor quadrature oracle at a different order
    from scipy.integrate import dblquad

    ref, _ = dblquad(
        lambda y, x: float(np.exp(1 - 1 / (1 - x * x - y * y))) if x * x + y * y < 1 else 0.0,
        -1, 1, lambda x: -1, lambda x: 1, epsabs=1e-12)
    assert abs(val - ref) < 1e-8
    # coefficient vanishing at y = 0
    ycoeff = CoefficientFn.bump(n, bump, Poly.variable(2 * n, n))
    assert integrate_zero_section(Form(n, n, {(0, 1): ycoeff})).value == 0
    # no (full x, empty y) term at all
    mixed = Form.monomial(n, [1], [1], beta)
    assert integrate_zero_section(mixed).value == 0
    # polynomial with declared window integrates exactly
    c = CoefficientFn.from_poly(n, Poly.variable(2 * n, 0) ** 2,
                                box=((Q(-1), Q(1)), (Q(0), Q(2))))
    exact = integrate_zero_section(Form(n, n, {(0, 1): c})).value
    assert exact == Q(4, 3)


def test_zero_section_bump_atom_runs_on_the_polar_rule_of_its_degree(monkeypatch):
    # a 2-D bump atom of x-degree D is a radial factor times a polynomial:
    # it runs on the ellipse of degree D, with the plain pair's value and
    # error to rounding
    from cycleval import quadrature
    from cycleval.forms import integrate_coefficient

    skew = BumpFactor(((Q(1), Q(1, 3)), (Q(1, 3), Q(1, 2))))
    x1, x2 = Poly.variable(4, 0), Poly.variable(4, 1)
    c = CoefficientFn.bump(2, skew, Poly.const(4, 1) + x1 * x1 * x2 + x2 * x2)
    domains = []
    real = quadrature._rule

    def rule(domain):
        domains.append(domain)
        return real(domain)

    monkeypatch.setattr(quadrature, "_rule", rule)
    got = integrate_coefficient(c)
    assert domains == [quadrature.Ellipse(skew.M, 3)]
    plain = quadrature.integrate(c.eval_x_array, [quadrature.Ellipse(skew.M)])
    assert abs(got.value - plain.value) <= 1e-12 * max(1.0, abs(plain.value))
    assert abs(got.error - plain.error) <= 1e-12 * max(1.0, abs(plain.value))


def test_integrate_coefficient_refuses_parameters_and_missing_windows_alike():
    # a free parameter raises one SupportError, whether the atom is a
    # windowed polynomial, a bump atom or one whose integral vanishes by
    # parity, and so does a polynomial atom without a window, before any
    # atom is integrated
    from cycleval.coefficients import SupportError
    from cycleval.forms import FREE_PARAMETERS, NO_SUPPORT, integrate_coefficient

    t, x1 = Poly.variable(3, 2), Poly.variable(3, 0)  # (x1, y1, t)
    bump = ball_bump(1, 2)
    window = ((Q(-1), Q(1)),)
    for c in (CoefficientFn(1, {(bump,): t * x1}), CoefficientFn(1, {(bump,): t}),
              CoefficientFn.from_poly(1, t, box=window)):
        with pytest.raises(SupportError) as got:
            integrate_coefficient(c)
        assert str(got.value) == FREE_PARAMETERS
    windowless = CoefficientFn.from_poly(1, Poly.variable(2, 0)) + CoefficientFn.bump(1, bump)
    with pytest.raises(SupportError) as got:
        integrate_coefficient(windowless)
    assert str(got.value) == NO_SUPPORT


def test_zero_section_coefficient_restricts_y():
    n = 1
    c = CoefficientFn.from_poly(n, Poly.variable(2, 1), box=((Q(-1), Q(1)),))
    form = Form(n, 1, {(0,): c})
    assert zero_section_coefficient(form).is_zero()


def _cartan_lie(X, a):
    # reference: L_X a = i_X d a + d i_X a
    out = interior_product(X, exterior_derivative(a))
    if a.degree > 0:
        out = out + exterior_derivative(interior_product(X, a))
    return out


def _random_field(rng, n):
    nv = 2 * n
    X = []
    for _ in range(nv):
        p = Poly.zero(nv)
        for _ in range(int(rng.integers(0, 3))):
            e = [0] * nv
            e[rng.integers(nv)] = int(rng.integers(0, 3))
            p = p + Poly.monomial(nv, e, Q(int(rng.integers(-3, 4)), int(rng.integers(1, 3))))
        X.append(p)
    return X


def test_lie_derivative_termwise_equals_cartan():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3):
        box = tuple((Q(-1), Q(int(rng.integers(1, 3)))) for _ in range(n))
        # an ellipsoid bump: 2 on the diagonal, 1/2 at (1, 2) and (2, 1)
        M = [[Q(2) if i == j else Q(1, 2) if i + j == 1 else Q(0) for j in range(n)]
             for i in range(n)]
        fields = so_generators(n) + [_random_field(rng, n) for _ in range(3)]
        for deg in range(2 * n + 1):
            plain = _random_poly_form(rng, n, deg)
            window = plain.map_coefficients(
                lambda c: CoefficientFn(n, c.atoms, declared_box=box))
            forms = [plain, window, _random_poly_form(rng, n, deg, bump=True),
                     random_bump_form(rng, n, degree=deg, nterms=3),
                     _random_poly_form(rng, n, deg).map_coefficients(
                         lambda c: c * CoefficientFn.bump(n, BumpFactor(M, 2, 1)))]
            for a in forms:
                for X in fields:
                    got, want = lie_derivative(X, a), _cartan_lie(X, a)
                    assert got == want
                    assert {k: c.declared_box for k, c in got.terms.items()} == \
                        {k: c.declared_box for k, c in want.terms.items()}


def _check_windows_reference(tau):
    """The window check as it stood beside ``check_evaluable``, kept as the
    reference: the windows of the coefficients with a polynomial atom, in
    term order, must agree."""
    from cycleval.coefficients import SupportError, _box_text

    first = None
    for c in tau.terms.values():
        if () not in c.atoms or c.declared_box is None:
            continue
        if first is None:
            first = c.declared_box
        elif c.declared_box != first:
            raise SupportError(
                f"the polynomial coefficients of one form have the windows "
                f"{_box_text(first)} and {_box_text(c.declared_box)}; the graph "
                "evaluators integrate every term over one box")


@pytest.mark.parametrize("n", [1, 2])
def test_check_windows_refuses_as_the_checks_it_replaces(n):
    # one check_windows call refuses exactly the forms that check_evaluable
    # and the reference window check refused, with the same message, and
    # otherwise returns check_evaluable's box
    from cycleval.coefficients import SupportError
    from cycleval.forms import FREE_PARAMETERS, NO_SUPPORT

    nv = 2 * n
    x = Poly.variable(nv, 0)
    one = Poly.const(nv, 1)
    wa, wb = ((Q(-2), Q(2)),) * n, ((Q(0), Q(1)),) * n
    kinds = [
        CoefficientFn.from_poly(n, x + one, box=wa),
        CoefficientFn.from_poly(n, x, box=wb),
        CoefficientFn.from_poly(n, one),  # no window
        CoefficientFn.bump(n, ball_bump(n, 1), x),
        CoefficientFn(n, {(ball_bump(n, 3),): one}, declared_box=wb),
        CoefficientFn(n, {(): x, (ball_bump(n, 2),): one}, declared_box=wa),
        CoefficientFn.bump(n, ball_bump(n, 2), Poly.variable(nv + 1, nv)),  # a parameter
    ]
    rng = np.random.default_rng(90 + n)
    outcomes = set()
    for _ in range(150):
        keys = rng.choice(nv, size=int(rng.integers(1, nv + 1)), replace=False)
        terms = {(int(k),): kinds[int(rng.integers(len(kinds)))] for k in keys}

        def reference():
            tau = Form(n, 1, terms)
            box = tau.check_evaluable()
            _check_windows_reference(tau)
            return box

        want, got = [], []
        for out, call in ((want, reference), (got, Form(n, 1, terms).check_windows)):
            try:
                out.append(call())
            except SupportError as err:
                out.append(str(err))
        assert got == want
        outcomes.add(want[0] if isinstance(want[0], str) else "box")
    # forms are accepted, and refused for each reason
    assert {"box", FREE_PARAMETERS, NO_SUPPORT} < outcomes
    assert any(o.startswith("the polynomial coefficients") for o in outcomes)
