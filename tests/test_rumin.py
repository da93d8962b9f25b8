from fractions import Fraction as Q

import numpy as np
import pytest

from cycleval.coefficients import CoefficientFn, ball_bump
from cycleval.forms import (
    Form,
    exterior_derivative,
    fiber_scaling,
    integrate_zero_section,
    linear_lift,
    pullback,
    standard_symplectic_form,
    vertical_translation,
    wedge,
)
from cycleval.polynomials import Poly
from cycleval.rumin import (
    RuminResult,
    d_bar,
    dually_epi_conditions,
    g_invariance_conditions,
    homogeneity_degree,
    image_of_dbar_membership,
    is_vertically_invariant,
    rumin_d,
)

from test_forms import _random_poly_form


def test_n1_closed_forms():
    n = 1
    # d_bar(psi(x) dy1) = psi'(x); rumin(psi dy1) = psi'' dx1
    psi = Poly.variable(2, 0) ** 3
    tau = Form.monomial(n, [], [1], psi)
    db = d_bar(tau)
    assert db == Form.from_coefficient(n, CoefficientFn.from_poly(n, psi.diff(0)))
    D = rumin_d(tau)
    assert D == Form.monomial(n, [1], [], psi.diff(0).diff(0))


def test_vanishing_cases():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3):
        # closed forms: rumin(d rho) = 0 and d_bar(d rho) = 0
        rho = _random_poly_form(rng, n, n - 1)
        assert d_bar(exterior_derivative(rho)).is_zero()
        assert rumin_d(exterior_derivative(rho)).is_zero()
        # multiples of omega_s
        xi = _random_poly_form(rng, n, n - 2) if n >= 2 else Form.constant(n, Q(3, 2))
        tau = wedge(standard_symplectic_form(n), xi)
        if tau.degree == n:
            assert rumin_d(tau).is_zero()


def test_rumin_output_is_primitive_and_consistent():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for _ in range(5):
            tau = _random_poly_form(rng, n, n, nterms=3)
            res = RuminResult.of(tau)
            # omega_s ^ D = 0
            assert wedge(standard_symplectic_form(n), res.D_bar).is_zero()
            # omega_s ^ d_bar = d tau
            assert wedge(standard_symplectic_form(n), res.d_bar) == exterior_derivative(tau)


def test_symplectomorphism_equivariance():
    rng = np.random.default_rng(9)
    n = 2
    tau = _random_poly_form(rng, n, n, nterms=3)
    phi = vertical_translation(n, [Q(1, 2), Q(-2)])
    assert pullback(phi, rumin_d(tau)) == rumin_d(pullback(phi, tau))
    g = linear_lift(n, [[1, 1], [0, 1]])
    assert pullback(g, rumin_d(tau)) == rumin_d(pullback(g, tau))
    # symbolic vertical translation
    phis = vertical_translation(n)
    assert pullback(phis, rumin_d(tau)) == rumin_d(pullback(phis, tau))


def test_scaling_intertwiner_symbolic():
    rng = np.random.default_rng(31)
    for n in (1, 2):
        tau = _random_poly_form(rng, n, n, nterms=3)
        mt = fiber_scaling(n)
        t = Poly.variable(2 * n + 1, 2 * n)
        lhs = rumin_d(pullback(mt, tau))
        rhs = pullback(mt, rumin_d(tau)).map_coefficients(lambda c: c * t)
        assert lhs == rhs


def test_vertical_invariance():
    n = 2
    psi = Poly.variable(2 * n, 0)
    assert is_vertically_invariant(Form.monomial(n, [1], [], psi))
    assert not is_vertically_invariant(Form.monomial(n, [1], [], Poly.variable(2 * n, n)))
    # rumin of a vertically invariant bidegree form stays vertically invariant
    tau = Form.monomial(n, [1], [1], Poly.variable(2 * n, 0) ** 2)
    assert is_vertically_invariant(rumin_d(tau))


def test_homogeneity_degree():
    n = 2
    assert homogeneity_degree(Form.monomial(n, [], [1, 2], 1)) == n
    psi = Poly.variable(2 * n, 0) ** 2
    assert homogeneity_degree(Form.monomial(n, [1, 2], [], psi)) == 0
    mixed = Form.monomial(n, [1], [1], 1) + Form.monomial(n, [1], [2], Poly.variable(2 * n, n))
    assert homogeneity_degree(mixed) == "mixed"
    # rumin of a (n-k, k) form is (k-1)-homogeneous
    for k in (1, 2):
        I = list(range(1, n - k + 1))
        J = list(range(1, k + 1))
        tau = Form.monomial(n, I, J, Poly.variable(2 * n, 0) ** 2)
        D = rumin_d(tau)
        if not D.is_zero():
            assert homogeneity_degree(D) == k - 1


def test_dually_epi_conditions():
    n = 1
    beta = ball_bump(n, 2)
    # vertically invariant, bidegree (0, 1)
    tau = Form.monomial(n, [], [1], CoefficientFn.bump(n, beta, Poly.variable(2, 0) ** 2))
    rep = dually_epi_conditions(tau)
    assert rep.vertical_invariance and rep.zero_section_shift_invariance
    # y-dependent coefficient fails vertical invariance of rumin_d
    tau2 = Form.monomial(n, [1], [], CoefficientFn.bump(n, beta, Poly.variable(2, 1) ** 2))
    rep2 = dually_epi_conditions(tau2)
    assert not rep2.vertical_invariance


def test_dually_epi_zero_section_shift_by_quadrature():
    # bump(R=2) * y1 * dx1: a vertical shift by lambda changes the
    # zero-section integral by lambda times the bump's integral, which only
    # quadrature can compute
    n = 1
    bump = CoefficientFn.bump(n, ball_bump(n, 2))
    tau = Form.monomial(n, [1], [], bump * Poly.variable(2, 1))
    rep = dually_epi_conditions(tau)
    assert not rep.zero_section_shift_invariance
    assert rep.max_shift_residual > 1
    mass = float(integrate_zero_section(Form(n, n, {(0,): bump})))
    assert rep.max_shift_residual == pytest.approx(mass, rel=1e-12)


def test_image_membership():
    n = 2
    # k >= 2: rumin of a vertically invariant (n-k, k) form is in the image
    tau = Form.monomial(n, [], [1, 2], CoefficientFn.bump(n, ball_bump(n, 2), Poly.variable(4, 0) ** 2))
    D = rumin_d(tau)
    assert not D.is_zero()
    assert image_of_dbar_membership(D, 2)
    # k = 1: the operator output of an (n-1,1) form passes the moment test
    n = 1
    tau1 = Form.monomial(n, [], [1], CoefficientFn.bump(n, ball_bump(n, 1), Poly.variable(2, 0) ** 2))
    a = rumin_d(tau1)
    assert not a.is_zero()
    assert image_of_dbar_membership(a, 1)
    # moments vanishing by arranged parity: phi = x1 x2 beta in n = 2
    n = 2
    phi = CoefficientFn.bump(n, ball_bump(n, 1),
                             Poly.variable(4, 0) * Poly.variable(4, 1))
    assert image_of_dbar_membership(Form(n, n, {(0, 1): phi}), 1)
    # the plain bump has positive mass, hence is not in the image
    n = 1
    even = CoefficientFn.bump(n, ball_bump(n, 1))
    b = Form(n, 1, {(0,): even})
    assert not image_of_dbar_membership(b, 1)


def test_g_invariance():
    n = 2
    beta = CoefficientFn.bump(n, ball_bump(n, 2))
    tau = Form.monomial(n, [1], [1], beta)
    rep = g_invariance_conditions(tau, [[1, 0], [0, 1]])
    assert rep.invariant
    # rotation by 90 degrees: x1 dx1^dy1 is not invariant
    rot = [[0, -1], [1, 0]]
    tau2 = Form.monomial(n, [1], [1], beta * Poly.variable(4, 0))
    rep2 = g_invariance_conditions(tau2, rot)
    assert not rep2.pullback_matches


def test_g_invariance_reflection_sign():
    # g = diag(1, -1): sign(det g) = -1
    n = 2
    refl = [[1, 0], [0, -1]]
    beta = CoefficientFn.bump(n, ball_bump(n, 2))
    # an even form picks up the wrong sign unless rumin_d vanishes
    tau = Form.monomial(n, [1], [1], beta * Poly.variable(4, 0))
    rep = g_invariance_conditions(tau, refl)
    D = rumin_d(tau)
    if not D.is_zero():
        assert not rep.pullback_matches
