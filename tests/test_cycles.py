import math
from fractions import Fraction as Q

import numpy as np
import pytest

from cycleval.coefficients import CoefficientFn, SupportError, ball_bump
from cycleval.convex import (
    ConvexFunction,
    MaxAffine,
    PiecewiseLinear1D,
    Quadratic,
    Scaled,
    Shifted,
    SmoothCatalog,
)
from cycleval.cycles import (
    Polyline1DCycle,
    _closed_form,
    _polyline_parts,
    build_1d,
    eval_polyline,
    eval_smooth,
    mass_smooth,
)
from cycleval.exactla import inverse
from cycleval.forms import (
    Form,
    PolynomialMap,
    exterior_derivative,
    fiber_scaling,
    linear_lift,
    pullback,
    standard_symplectic_form,
    wedge,
)
from cycleval.polynomials import Poly, _as_fraction
from cycleval.quadrature import RIDGE_ORDERS, GradedSimplex, _gl_pieces, _graded_cuts
from cycleval.rumin import _det_sign
from nodes import node_blocks


def beta_coeff(n, R=1, poly=None):
    return CoefficientFn.bump(n, ball_bump(n, R), poly)


def test_defining_property_identity_hessian():
    # f = |x|^2/2: pullback of beta(x) dy1^...^dyn is beta(x) dx (Hessian = I)
    for n in (1, 2):
        f = Quadratic(np.eye(n))
        tau_dy = Form.monomial(n, [], list(range(1, n + 1)), beta_coeff(n))
        tau_dx = Form.monomial(n, list(range(1, n + 1)), [], beta_coeff(n))
        v1, v2 = eval_smooth(f, [tau_dy, tau_dx])
        assert v1.value == pytest.approx(v2.value, abs=1e-10)
        # n = 1 oracle: int beta
        if n == 1:
            from scipy.integrate import quad

            ref, _ = quad(lambda x: math.exp(1 - 1 / (1 - x * x)) if abs(x) < 1 else 0.0,
                          -1, 1, epsabs=1e-13)
            assert v1.value == pytest.approx(ref, abs=1e-9)


def test_defining_property_vs_direct_quadrature():
    # tau = phi(x, y) pi^* vol evaluates to int phi(x, grad f)
    n = 2
    f = Quadratic([[2.0, 0.5], [0.5, 1.0]], [0.1, -0.2], 0.0)
    phi = beta_coeff(n, R=2, poly=Poly.variable(4, 2) ** 2)  # y1^2 * bump(x)
    tau = Form(n, n, {(0, 1): phi})
    got, = eval_smooth(f, [tau])
    pts, wts = map(np.concatenate, zip(*node_blocks([(-2, 2), (-2, 2)], 160)))
    grad = f.gradient_array(pts)
    full = np.concatenate([pts, grad], axis=1)
    ref = float(np.dot(wts, phi.eval_array(full)))
    assert got.value == pytest.approx(ref, rel=1e-8)


def test_smooth_closedness_and_lagrangian():
    rng = np.random.default_rng(3)
    n = 2
    f = SmoothCatalog("sqrt1p", n)
    # D(f)[d rho] ~ 0 for bump-coefficient 1-forms rho
    for _ in range(3):
        p = Poly.monomial(4, (rng.integers(0, 2), rng.integers(0, 2),
                              rng.integers(0, 2), 0), Q(int(rng.integers(1, 4)), 2))
        rho = Form.monomial(n, [int(rng.integers(1, 3))], [], beta_coeff(n, 2, p))
        val, = eval_smooth(f, [exterior_derivative(rho)])
        assert abs(val.value) < 1e-8
    # D(f)[omega_s ^ xi] ~ 0
    xi = Form.from_coefficient(n, beta_coeff(n, 2, Poly.variable(4, 1)))
    val, = eval_smooth(f, [wedge(standard_symplectic_form(n), xi)])
    assert abs(val.value) < 1e-8


def test_polyline_absolute_value():
    # D(|x|)[phi dy] = 2 phi(0), exact
    f = PiecewiseLinear1D.from_max_affine(MaxAffine([([1], 0), ([-1], 0)]))
    cyc = build_1d(f)
    phi = Poly.const(2, Q(3, 7)) + Poly.variable(2, 0) ** 2  # 3/7 + x^2
    tau = Form.monomial(1, [], [1], CoefficientFn.from_poly(1, phi, box=((Q(-1), Q(1)),)))
    assert eval_polyline(cyc, tau).value == 2 * Q(3, 7)
    # horizontal form: vertical segment contributes nothing; int phi over window
    tau_dx = Form.monomial(1, [1], [], CoefficientFn.from_poly(1, phi, box=((Q(-1), Q(1)),)))
    assert eval_polyline(cyc, tau_dx).value == 2 * Q(3, 7) + Q(2, 3)


def test_polyline_concave_kink_sign():
    # f = -|x|: downward vertical segment, D(f)[phi dy] = -2 phi(0)
    f = PiecewiseLinear1D([Q(0)], [Q(1), Q(-1)], Q(0))
    cyc = build_1d(f)
    phi = Poly.const(2, 1)
    tau = Form.monomial(1, [], [1], CoefficientFn.from_poly(1, phi, box=((Q(-2), Q(2)),)))
    assert eval_polyline(cyc, tau).value == -2
    # affine: single horizontal line, no kinks
    aff = PiecewiseLinear1D([], [Q(2)], Q(1))
    assert eval_polyline(build_1d(aff), tau).value == 0


def test_polyline_bump_terms_match_quad_along_segments():
    from scipy.integrate import quad

    # kinks at -1/2 (convex, slope -1 -> 1) and 1/2 (concave, 1 -> -1/2)
    f = PiecewiseLinear1D([Q(-1, 2), Q(1, 2)], [Q(-1), Q(1), Q(-1, 2)], Q(0))
    cyc = build_1d(f)
    xy = Poly.variable(2, 0) * Poly.variable(2, 1)
    c = beta_coeff(1, Q(3, 2), Poly.const(2, 1) + xy)

    def coeff(x, y):
        q = 1 - x * x / 2.25
        return math.exp(1 - 1 / q) * (1 + x * y) if q > 0 else 0.0

    # dx: the horizontal pieces at y = slope, left to right, inside |x| < 3/2
    ref_dx = sum(quad(lambda x: coeff(x, s), a, b, epsabs=1e-13)[0]
                 for a, b, s in [(-1.5, -0.5, -1), (-0.5, 0.5, 1), (0.5, 1.5, -0.5)])
    # dy: each kink from its left slope to its right slope
    ref_dy = (quad(lambda y: coeff(-0.5, y), -1, 1, epsabs=1e-13)[0]
              + quad(lambda y: coeff(0.5, y), 1, -0.5, epsabs=1e-13)[0])
    got_dx = eval_polyline(cyc, Form.monomial(1, [1], [], c))
    got_dy = eval_polyline(cyc, Form.monomial(1, [], [1], c))
    assert isinstance(got_dx.value, float) and isinstance(got_dy.value, float)
    assert got_dx.value == pytest.approx(ref_dx, abs=1e-9)
    assert got_dy.value == pytest.approx(ref_dy, abs=1e-9)

    # exact and bump atoms together: the exact sum, then the bump parts
    p = CoefficientFn.from_poly(1, Poly.const(2, 1) + xy, box=((Q(-2), Q(2)),))
    exact_only = eval_polyline(cyc, Form(1, 1, {(0,): p, (1,): p}))
    bump_only = eval_polyline(cyc, Form(1, 1, {(0,): c, (1,): c}))
    both = eval_polyline(cyc, Form(1, 1, {(0,): p + c, (1,): p + c}))
    assert isinstance(exact_only.value, Q) and exact_only.error == 0.0
    assert both.value == float(exact_only.value) + bump_only.value
    assert both.error == bump_only.error


def test_valuation_property_exact_1d():
    rng = np.random.default_rng(17)
    for _ in range(25):
        f = _random_pwl(rng)
        g = _random_pwl(rng)
        fg_max = f.maximum(g)
        fg_min = f.minimum(g)
        tau = _random_window_form(rng)
        vf = eval_polyline(build_1d(f), tau).value
        vg = eval_polyline(build_1d(g), tau).value
        vmax = eval_polyline(build_1d(fg_max), tau).value
        vmin = eval_polyline(build_1d(fg_min), tau).value
        assert vf + vg == vmax + vmin


def _random_pwl(rng):
    k = int(rng.integers(0, 4))
    breaks = sorted(set(Q(int(rng.integers(-8, 9)), 4) for _ in range(k)))
    slopes = [Q(int(rng.integers(-6, 7)), 2) for _ in range(len(breaks) + 1)]
    return PiecewiseLinear1D(breaks, slopes, Q(int(rng.integers(-4, 5)), 2))


def _random_window_form(rng):
    box = ((Q(-3), Q(3)),)
    px = Poly(2, {(int(rng.integers(0, 3)), int(rng.integers(0, 2))):
                  Q(int(rng.integers(-6, 7)), 3)})
    py = Poly(2, {(int(rng.integers(0, 2)), int(rng.integers(0, 3))):
                  Q(int(rng.integers(-6, 7)), 3)})
    return Form(1, 1, {(0,): CoefficientFn.from_poly(1, px, box=box),
                       (1,): CoefficientFn.from_poly(1, py, box=box)})


def test_mass_values():
    # affine: flat graph over the ball has mass omega_n R^n
    for n, omega in ((1, 2.0), (2, math.pi)):
        f = Quadratic(np.zeros((n, n)), [0.3] * n, 1.0)
        for R in (1.0, 2.0):
            assert mass_smooth(f, R).value == pytest.approx(omega * R ** n, rel=1e-8)
    # n = 1, f = x^2/2: mass over U_1 is the length of the diagonal, 2 sqrt 2
    f = Quadratic([[1]])
    assert mass_smooth(f, 1.0).value == pytest.approx(2 * math.sqrt(2), rel=1e-10)


def test_mass_error_covers_the_closed_form():
    # a quadratic's Hessian A is constant, so the mass of its gradient graph
    # over the ball of radius R is omega_n R^n sqrt(det(I + A^2)); on every
    # quadratic, shifted and scaled quadratic of a battery the returned
    # value lies within its error estimate of it, up to rounding
    from cycleval.convex import Scaled, Shifted
    from cycleval.lab import battery

    checked = 0
    for n, omega in ((1, 2.0), (2, math.pi)):
        for f in battery(n, 7, 16):
            if not isinstance(f, (Quadratic, Shifted, Scaled)):
                continue
            A = f.hessian(np.zeros(n))
            want = omega * math.sqrt(np.linalg.det(np.eye(n) + A @ A))
            for R in (1.0, 2.0):
                got = mass_smooth(f, R)
                assert abs(got.value - want * R ** n) <= got.error + 1e-13 * abs(got.value)
                checked += 1
    assert checked == 2 * 2 * 8


# -- transform identities: D(f) under f + quadratic, f o g and c f ----------------


def gradient_shear(n, A, b):
    """(x, y) -> (x, y + A x + b): adds the differential of a quadratic."""
    nv = 2 * n
    comps = [Poly.variable(nv, v) for v in range(2 * n)]
    for i in range(n):
        extra = Poly.const(nv, _as_fraction(b[i]))
        for j in range(n):
            aij = _as_fraction(A[i][j])
            if aij:
                extra = extra + Poly.variable(nv, j).scale(aij)
        comps[n + i] = comps[n + i] + extra
    return PolynomialMap(n, comps)


class LinearPrecompose(ConvexFunction):
    """x -> f(g x) for an invertible linear map g."""

    def __init__(self, inner: ConvexFunction, g):
        self.inner = inner
        self.n = inner.n
        self.g = np.asarray(g, dtype=float)
        self.smooth = inner.smooth

    def eval_array(self, X):
        return self.inner.eval_array(X @ self.g.T)

    def gradient_array(self, X):
        return self.inner.gradient_array(X @ self.g.T) @ self.g

    def hessian_array(self, X):
        H = self.inner.hessian_array(X @ self.g.T)
        return np.einsum("ij,njk,kl->nil", self.g.T, H, self.g)

    def sup_abs_bound(self, rho):
        gain = float(np.linalg.norm(self.g, 2))
        return self.inner.sup_abs_bound(gain * rho)

    def describe(self):
        return f"precompose({self.inner.describe()})"


class PlusQuadratic(ConvexFunction):
    """f + (x^T A x / 2 + b.x), A positive semidefinite."""

    def __init__(self, inner: ConvexFunction, A, b):
        self.inner = inner
        self.n = inner.n
        self.quad = Quadratic(A, b, 0)
        self.smooth = inner.smooth

    def eval_array(self, X):
        return self.inner.eval_array(X) + self.quad.eval_array(X)

    def gradient_array(self, X):
        return self.inner.gradient_array(X) + self.quad.gradient_array(X)

    def hessian_array(self, X):
        return self.inner.hessian_array(X) + self.quad.hessian_array(X)

    def sup_abs_bound(self, rho):
        return self.inner.sup_abs_bound(rho) + self.quad.sup_abs_bound(rho)

    def describe(self):
        return f"plusquad({self.inner.describe()})"


def transform_identity_residual(f, form, transform):
    """Residual of a pushforward identity, both sides computed independently.

    transform is one of
      ("add_quadratic", A, b)   -- D(f + phi) = (G_phi)_* D(f)
      ("linear", g)             -- D(f o g) = sign(det g) (g#)_* D(f)
      ("scale", c), c > 0       -- D(c f) = C_* D(f), C(x, y) = (x, c y)
    """
    n = form.n
    kind = transform[0]
    if kind == "add_quadratic":
        _, A, b = transform
        lhs = eval_smooth(PlusQuadratic(f, A, b), [form])[0].value
        rhs = eval_smooth(f, [pullback(gradient_shear(n, A, b), form)])[0].value
        return abs(float(lhs) - float(rhs))
    if kind == "linear":
        _, g = transform
        sgn = _det_sign(g, n)
        lhs = eval_smooth(LinearPrecompose(f, [[float(v) for v in row] for row in g]),
                          [form])[0].value
        pulled = pullback(linear_lift(n, inverse(g)), form)
        rhs = sgn * float(eval_smooth(f, [pulled])[0].value)
        return abs(float(lhs) - rhs)
    if kind == "scale":
        _, c = transform
        c = _as_fraction(c)
        if c <= 0:
            raise ValueError("scaling tests keep c > 0 so that c f stays convex")
        lhs = eval_smooth(Scaled(f, c), [form])[0].value
        rhs = eval_smooth(f, [pullback(fiber_scaling(n, c), form)])[0].value
        return abs(float(lhs) - float(rhs))
    raise ValueError(f"unknown transform {kind!r}")


def test_transform_identities():
    n = 2
    f = Quadratic([[1.5, 0.2], [0.2, 1.0]])
    tau = Form(n, n, {(0, 1): beta_coeff(n, Q(3, 2)),
                      (0, 2): beta_coeff(n, Q(3, 2), Poly.variable(4, 1)),
                      (2, 3): beta_coeff(n, Q(3, 2))})
    # adding a C^{1,1} quadratic
    res = transform_identity_residual(f, tau, ("add_quadratic",
                                               [[0.5, 0.0], [0.0, 0.25]], [0.1, -0.3]))
    assert res < 1e-8
    # coordinate swap: det = -1
    res = transform_identity_residual(f, tau, ("linear", [[0, 1], [1, 0]]))
    assert res < 1e-8
    # shear: the pulled-back bump acquires an ellipsoidal support
    res = transform_identity_residual(f, tau, ("linear", [[1, 1], [0, 1]]))
    assert res < 1e-6
    # fiber scaling c = 2
    res = transform_identity_residual(f, tau, ("scale", 2))
    assert res < 1e-8


def test_lse_consistency_converges():
    # eval_smooth(LSE_beta(f)) approaches the exact polyhedral value
    from cycleval.convex import LogSumExp
    from cycleval.polyhedral import build_polyhedral, eval_polyhedral, window_for

    n = 1
    ma = MaxAffine([([1], 0), ([-1], 0), ([2], -1)])
    tau = Form.monomial(n, [], [1],
                        CoefficientFn.from_poly(n, Poly.const(2, 1) + Poly.variable(2, 0),
                                                box=((Q(-2), Q(2)),)))
    cyc = build_polyhedral(ma, window=window_for(ma, tau.support_box()))
    exact = float(eval_polyhedral(cyc, tau))
    from cycleval.cycles import eval_smooth_ridge_aligned

    gaps = []
    for beta in (10.0, 100.0, 1000.0):
        approx, = eval_smooth_ridge_aligned(LogSumExp(ma, beta), cyc, [tau])
        gaps.append(abs(approx.value - exact))
    assert gaps[0] > gaps[1]
    assert gaps[2] < 1e-4
    assert gaps[2] < gaps[0]


def test_ridge_aligned_batches_match_per_triangle_sum():
    from cycleval.convex import LogSumExp
    from cycleval.cycles import eval_smooth_ridge_aligned, graph_pullback_integrand
    from cycleval.polyhedral import _clip_to_box, build_polyhedral, window_for
    from cycleval.quadrature import gl_interval as _gl_on

    n = 2
    ma = MaxAffine([([1, 0], 0), ([-1, 1], Q(1, 2)), ([0, -1], Q(-1, 2)), ([1, 1], 0)])
    f = LogSumExp(ma, 40.0)
    x1 = Poly.variable(4, 0)
    tau = (Form.monomial(n, [1], [2], beta_coeff(n, 2, Poly.const(4, 1) + x1))
           + Form.monomial(n, [1, 2], [], beta_coeff(n, Q(3, 2), x1 * x1))
           + Form.monomial(n, [], [1, 2], beta_coeff(n, 2)))
    layer = min(0.25, 50.0 / f.beta)  # the layer the route reads off f

    def reference(o):
        # one integrand call per (u, r) sub-rectangle of each triangle
        integrand = graph_pullback_integrand(f, [tau])
        box = tau.support_box()
        total = 0.0
        for cell in build_polyhedral(ma, window=window_for(ma, box)).cells:
            if cell.dim_x != n:
                continue
            clipped, _ = _clip_to_box(cell.x_vertices, n, box)
            if not clipped:
                continue
            c = np.array([[float(v) for v in p] for p in clipped]).mean(axis=0)
            for i in range(len(clipped)):
                v1 = np.array([float(v) for v in clipped[i]])
                v2 = np.array([float(v) for v in clipped[(i + 1) % len(clipped)]])
                e = v2 - v1
                area2 = abs((v1 - c)[0] * (v2 - c)[1] - (v1 - c)[1] * (v2 - c)[0])
                if area2 == 0.0:
                    continue
                h = area2 / np.linalg.norm(e)
                ucuts = _graded_cuts(layer / np.linalg.norm(e))
                rcuts = [0.0, 1.0 - min(max(layer / h, 1e-12), 1.0 / 3.0), 1.0]
                for ulo, uhi in zip(ucuts, ucuts[1:]):
                    up, uw = _gl_on(ulo, uhi, o)
                    for rlo, rhi in zip(rcuts, rcuts[1:]):
                        rp, rw = _gl_on(rlo, rhi, o)
                        U, R = np.meshgrid(up, rp, indexing="ij")
                        W = np.outer(uw, rw).ravel() * R.ravel() * area2
                        E = v1 + U.ravel()[:, None] * e
                        pts = c + R.ravel()[:, None] * (E - c)
                        total += float(np.dot(W, integrand(pts)[0]))
        return total

    cycle = build_polyhedral(ma, window=window_for(ma, tau.support_box()))
    got, = eval_smooth_ridge_aligned(f, cycle, [tau])
    coarse, fine = (reference(o) for o in RIDGE_ORDERS)
    assert abs(fine) > 1e-3
    assert abs(got.value - fine) <= 1e-12 * max(1.0, abs(fine))
    assert abs(got.error - abs(fine - coarse)) <= 1e-12 * max(1.0, abs(fine))


def _per_piece_integrand(f, forms, absolute=False):
    """The graph-pullback integrand as a loop over each form's pieces, one
    ``CoefficientFn.eval_array`` per piece on all nodes at once.  With
    ``absolute`` every piece adds ``|coeff| |minor|`` instead, where
    ``|coeff|`` has the absolute values of the coefficients at ``|x|``,
    ``|y|``: a per-node scale of the rounding error of the sum."""
    from cycleval.exactla import det
    from cycleval.forms import merge_sign

    per_form = []
    for form in forms:
        n = form.n
        pieces = []
        for key, coeff in form.terms.items():
            I = tuple(v for v in key if v < n)
            J = tuple(v - n for v in key if v >= n)
            Ic = tuple(v for v in range(n) if v not in I)
            sign, _ = merge_sign(I, Ic)
            pieces.append((coeff, J, Ic, sign))
        per_form.append(pieces)

    def integrand(X):
        Y = f.gradient_array(X)
        H = f.hessian_array(X)
        pts = np.concatenate([X, Y], axis=1)
        out = np.zeros((len(forms), X.shape[0]))
        for row, pieces in zip(out, per_form):
            for coeff, J, Ic, sign in pieces:
                minor = det([[H[:, r, c] for c in Ic] for r in J])
                if absolute:
                    mags = sum(_abs_atom(coeff.n, sig, poly, pts)
                               for sig, poly in coeff.atoms.items())
                    row += mags * np.abs(minor)
                else:
                    row += sign * coeff.eval_array(pts) * minor
        return out

    return integrand


def _abs_atom(n, sig, poly, pts):
    """Sum over the terms of one atom of |c x^e y^e'|, times its (positive)
    bump factors."""
    mags = Poly(poly.nvars, {e: abs(c) for e, c in poly.terms.items()})
    factors = CoefficientFn(n, {sig: Poly.const(poly.nvars, 1)}).eval_array(pts)
    return mags.eval_array(np.abs(pts)) * factors


def _term_poly(rng, n):
    """A random polynomial in (x, y) with a constant term and small exponents."""
    terms = {(0,) * (2 * n): Q(int(rng.integers(1, 5)), int(rng.integers(1, 4)))}
    for _ in range(4):
        e = tuple(int(v) for v in rng.integers(0, 3, size=2 * n))
        terms[e] = Q(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
    return Poly(2 * n, {e: c for e, c in terms.items() if c})


def _battery_forms(n, rng):
    """n-forms mixing windowed polynomial, ball-bump and ellipsoid-bump atoms
    and constant terms over several (dx_I, dy_J) keys, one zero form, and
    two forms that share atoms."""
    from itertools import combinations

    from cycleval.coefficients import BumpFactor

    M = tuple(tuple(Q(2 if i == j else -1, 5 + i + j) for j in range(n)) for i in range(n))
    window = [(-2, 2)] * n
    keys = [(list(I), [j for j in range(1, n + 1) if j not in I])
            for k in range(n + 1) for I in combinations(range(1, n + 1), k)]

    def coeff(kind):
        if kind == "window":
            return CoefficientFn.from_poly(n, _term_poly(rng, n), box=window)
        if kind == "ball":
            return CoefficientFn.bump(n, ball_bump(n, 2), _term_poly(rng, n))
        if kind == "ellipsoid":
            return CoefficientFn.bump(n, BumpFactor(M), _term_poly(rng, n))
        return CoefficientFn.constant(n, Q(int(rng.integers(1, 9)), 7))

    forms = []
    for kinds in (("window", "ball"), ("ellipsoid", "constant", "ball"),
                  ("ball", "ellipsoid", "window", "constant")):
        form = Form.zero(n, n)
        for i, kind in enumerate(kinds):
            I, J = keys[(i * 3 + len(kinds)) % len(keys)]
            form = form + Form.monomial(n, I, J, coeff(kind))
        forms.append(form)
    forms.insert(1, Form.zero(n, n))
    # the atoms of forms[0] in a second form, with one more atom
    forms.append(forms[0] + Form.monomial(n, *keys[0], coeff("ball")))
    return forms


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compiled_integrand_matches_per_piece_reference(n):
    from cycleval.cycles import graph_pullback_integrand
    from cycleval.quadrature import _NODE_BLOCK

    rng = np.random.default_rng(40 + n)
    forms = _battery_forms(n, rng)
    A = np.eye(n) + 0.3 * np.ones((n, n))
    f = PlusQuadratic(SmoothCatalog("sqrt1p", n), A, 0.2 * np.arange(n))
    compiled = graph_pullback_integrand(f, forms)
    reference = _per_piece_integrand(f, forms)
    scale = _per_piece_integrand(f, forms, absolute=True)
    for count in (_NODE_BLOCK + 1, 3 * _NODE_BLOCK + 7):
        X = rng.uniform(-2.3, 2.3, size=(count, n))
        got = compiled(X)
        assert got.shape == (len(forms), count) and got.flags.c_contiguous
        ref, tol = reference(X), 1e-13 * scale(X) + 1e-300
        assert np.all(np.abs(got - ref) <= tol)
        assert np.all(got[1] == 0)
        assert np.abs(ref).max() > 1e-3
        # a form's row is the same bits in the batch and alone
        for row, form in enumerate(forms):
            alone = graph_pullback_integrand(f, [form])(X)
            assert np.array_equal(alone[0], got[row])


def test_compiled_integrand_refuses_free_parameters():
    from cycleval.cycles import graph_pullback_integrand

    n = 1
    t = Poly.variable(3, 2)  # a parameter slot after (x1, y1)
    c = CoefficientFn(n, {(ball_bump(n, 2),): t})
    with pytest.raises(SupportError):
        graph_pullback_integrand(Quadratic(np.eye(1)), [Form.monomial(n, [], [1], c)])


def test_support_domain_routing(monkeypatch):
    # only a 2-D integrand on one bump matrix without a window runs on the
    # plain ellipse rule; windows, two matrices, n = 1 and n = 3 stay on
    # boxes; a window form on a function with a polynomial gradient runs on
    # the Gauss pair of its degree, on any other function on the box pair;
    # a form on one bump matrix on a function with a polynomial gradient
    # keeps the ellipse radii and takes one angle more than its pullback
    # degree, in 3-D as azimuths times half as many polar nodes
    from cycleval import quadrature
    from cycleval.coefficients import BumpFactor
    from cycleval.lab import Valuation, evaluate

    calls = []
    # each domain's rule, named by its pass pair
    names = {quadrature.ELLIPSE_ORDERS: "ellipse",
             **{orders: "box" for orders in quadrature.ORDERS.values()}}
    real = quadrature._rule

    def rule(domain):
        nodes, orders = real(domain)
        calls.append(names.get(orders, orders))
        return nodes, orders

    monkeypatch.setattr(quadrature, "_rule", rule)

    def top_form(n, coeff):
        return Form.monomial(n, list(range(1, n + 1)), [], coeff)

    bump2 = beta_coeff(2, 2, Poly.const(4, 1) + Poly.variable(4, 0))
    skew_bump = BumpFactor(((Q(1), Q(1, 3)), (Q(1, 3), Q(1, 2))))
    skew = CoefficientFn.bump(2, skew_bump)
    windowed = CoefficientFn(2, bump2.atoms, declared_box=((Q(-1), Q(1)),) * 2)
    # x1^2 y2 on a window: degree 2 + 1 on a quadratic, m = 2
    window = top_form(2, CoefficientFn.from_poly(
        2, Poly.monomial(4, [2, 0, 0, 1], Q(1)), box=((Q(-1), Q(1)),) * 2))
    quadratic = Quadratic(np.eye(2))
    sqrt1p = SmoothCatalog("sqrt1p", 2)

    def polar(degree):
        return tuple((radii, degree + 1) for radii, _ in quadrature.ELLIPSE_ORDERS)

    def spherical(degree):
        return tuple((radii, degree // 2 + 1, degree + 1)
                     for radii, _ in quadrature.ELLIPSE_ORDERS)

    cases = [
        (top_form(2, bump2), sqrt1p, "ellipse"),
        (top_form(2, skew), sqrt1p, "ellipse"),
        # 1 + x1 on a quadratic: degree 1; on the quartic, whose Hessian
        # minor det H has degree 4: 1 + 4
        (top_form(2, bump2), quadratic, polar(1)),
        (Form.monomial(2, [], [1, 2], bump2), SmoothCatalog("quartic", 2), polar(5)),
        # x1^2 y2 times the skew bump: degree 2 + 1 on a shifted quadratic
        (top_form(2, CoefficientFn.bump(2, skew_bump, Poly.monomial(4, [2, 0, 0, 1], Q(1)))),
         Shifted(quadratic, [1, 0], 0), polar(3)),
        (top_form(2, windowed), quadratic, "box"),
        (top_form(2, bump2 + skew), quadratic, "box"),
        (top_form(2, bump2) + Form.monomial(2, [], [1, 2], skew), quadratic, "box"),
        (top_form(1, beta_coeff(1, 2)), Quadratic(np.eye(1)), "box"),
        (top_form(3, beta_coeff(3, 2)), SmoothCatalog("sqrt1p", 3), "box"),
        (top_form(3, beta_coeff(3, 2)), Quadratic(np.eye(3)), spherical(0)),
        # beta dy1 ^ dy2 ^ dy3 on the quartic: the minor det H has degree 6
        (Form.monomial(3, [], [1, 2, 3], beta_coeff(3, 2)), SmoothCatalog("quartic", 3),
         spherical(6)),
        (window, quadratic, (2, 3)),
        (window, SmoothCatalog("sqrt1p", 2), "box"),
    ]
    for tau, f, rule in cases:
        calls.clear()
        evaluate([Valuation(tau)], [f])
        assert calls == [rule], (tau, calls)


def _fraction_segments(cycle, lo, hi):
    # reference: the segments in Fractions, read off the breaks, slopes and
    # kinks of the function
    f = cycle.f
    cuts = [lo] + [b for b in f.breaks if lo < b < hi] + [hi]
    horiz = [(f.slopes[sum(1 for b in f.breaks if b <= a)], a, b)
             for a, b in zip(cuts, cuts[1:]) if b > a]
    vert = [(b, sr, sl) if cycle.flip_vertical else (b, sl, sr)
            for b, sl, sr in f.kinks() if lo <= b <= hi]
    return [horiz, vert]


def _segments_over(cycle, coeffs):
    # each atom's axis, polynomial, and segments (fixed, start, end) along
    # its axis as integers over the denominator d
    for axis, coeff in coeffs:
        *along, d = cycle.segments(*coeff.declared_box[0])
        assert [[tuple(Q(v, d) for v in seg) for seg in part] for part in along] == \
            _fraction_segments(cycle, *coeff.declared_box[0])
        for poly in coeff.atoms.values():
            yield axis, poly, along[axis], d


def _closed_form_segments(cycle, coeffs):
    # one list per atom: each segment's integer numerator over the atom's
    # shared denominator, as a Fraction
    for axis, poly, segments, d in _segments_over(cycle, coeffs):
        nums, den = _closed_form(poly, axis, segments, d)
        assert len(nums) == len(segments) and all(type(v) is int for v in nums)
        yield [Q(v, den) for v in nums]


def _poly_route_parts(cycle, coeffs):
    # reference: each polynomial atom restricted to the segment's line by
    # Poly.subs, integrated and evaluated exactly, one list per atom
    for axis, poly, segments, d in _segments_over(cycle, coeffs):
        parts = []
        for fixed, start, end in segments:
            line = [Poly.variable(1, 0), Poly.const(1, Q(fixed, d))]
            restricted = poly.extend(2).subs(line[::-1] if axis else line)
            val = restricted.integrate_box([(Q(start, d), Q(end, d))], [0])
            parts.append(val.eval_point([Q(0)] * val.nvars))
        yield parts


def _check_polyline_segments(cycle, coeffs, reference):
    # every segment against the reference, and each atom's part against
    # the sum of its segments
    want = list(reference(cycle, coeffs))
    assert list(_closed_form_segments(cycle, coeffs)) == want
    got = list(_polyline_parts(cycle, coeffs))
    assert got == [sum(parts, Q(0)) for parts in want] and all(type(v) is Q for v in got)


def test_polyline_closed_form_matches_poly_route():
    rng = np.random.default_rng(23)
    for trial in range(60):
        f = _random_pwl(rng)
        coeffs = []
        for axis in (0, 1):
            terms = {(int(rng.integers(0, 4)), int(rng.integers(0, 4))):
                     Q(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(3)}
            lo = Q(int(rng.integers(-9, 0)), 4)
            box = ((lo, lo + Q(int(rng.integers(1, 12)), 2)),)
            coeffs.append((axis, CoefficientFn.from_poly(1, Poly(2, terms), box=box)))
        for flip in (False, True):
            _check_polyline_segments(Polyline1DCycle(f, flip_vertical=flip), coeffs,
                                     _poly_route_parts)


def _fraction_parts(cycle, coeffs):
    # reference: each term of each polynomial atom integrated in Fraction
    # arithmetic and summed term by term, one list per atom
    for axis, poly, segments, d in _segments_over(cycle, coeffs):
        parts = []
        for fixed, start, end in segments:
            fixed, start, end = Q(fixed, d), Q(start, d), Q(end, d)
            total = Q(0)
            for e, c in poly.terms.items():
                i, j = (e[1], e[0]) if axis else (e[0], e[1])
                total += c * fixed ** j * (end ** (i + 1) - start ** (i + 1)) / (i + 1)
            parts.append(total)
        yield parts


def _big_denominator_pwl(rng):
    # lines with slopes and offsets over seven-digit denominators: the
    # crossings of their maxima and minima have denominators beyond 10^10
    def line():
        den = int(rng.integers(10 ** 6, 10 ** 7))
        return PiecewiseLinear1D([], [Q(int(rng.integers(-10 ** 7, 10 ** 7)), den)],
                                 Q(int(rng.integers(-10 ** 7, 10 ** 7)), den + 1))
    f = line().maximum(line()).maximum(line())
    return f.minimum(line().maximum(line()))


def test_polyline_integer_sums_match_fractions_at_large_denominators():
    rng = np.random.default_rng(47)
    for trial in range(30):
        f = _big_denominator_pwl(rng)
        assert max((b.denominator for b in f.breaks), default=1) > 10 ** 10
        lo = min(f.breaks, default=Q(0)) - Q(1, 3)
        hi = max(f.breaks, default=Q(0)) + Q(2, 7)
        coeffs = []
        for axis in (0, 1):
            # mixed exponents, from constants to x^4 y^3
            terms = {(int(rng.integers(0, 5)), int(rng.integers(0, 4))):
                     Q(int(rng.integers(-9, 10)), int(rng.integers(1, 30))) for _ in range(5)}
            terms[(0, 0)] = Q(7, 3)
            coeffs.append((axis, CoefficientFn.from_poly(1, Poly(2, terms), box=((lo, hi),))))
        for flip in (False, True):
            _check_polyline_segments(Polyline1DCycle(f, flip_vertical=flip), coeffs,
                                     _fraction_parts)


def _meshgrid_triangle_nodes(v0, v1, v2, order, layer):
    # reference: the (u, r) grid as two meshgrids and (N, 2) temporaries
    v0, v1, v2 = (np.asarray(v, dtype=float) for v in (v0, v1, v2))
    e = v2 - v1
    area2 = abs((v1 - v0)[0] * (v2 - v0)[1] - (v1 - v0)[1] * (v2 - v0)[0])
    elen = float(np.linalg.norm(e))
    h = area2 / elen
    up, uw = _gl_pieces(_graded_cuts(layer / elen), order)
    rp, rw = _gl_pieces([0.0, 1.0 - min(max(layer / h, 1e-12), 1.0 / 3.0), 1.0], order)
    U, R = np.meshgrid(up, rp, indexing="ij")
    WU, WR = np.meshgrid(uw, rw, indexing="ij")
    E = v1[None, :] + U.ravel()[:, None] * e[None, :]
    pts = v0[None, :] + R.ravel()[:, None] * (E - v0[None, :])
    wts = (WU * WR).ravel() * R.ravel() * area2
    return pts, wts


def test_triangle_nodes_match_meshgrid_bitwise():
    rng = np.random.default_rng(29)
    for _ in range(40):
        v0, v1, v2 = rng.uniform(-3, 3, size=(3, 2))
        order = int(rng.integers(2, 33))
        layer = float(10.0 ** rng.uniform(-4, 0))
        triangle = GradedSimplex((tuple(v0), tuple(v1), tuple(v2)), layer)
        pts, wts = map(np.concatenate, zip(*node_blocks(triangle, order)))
        want_pts, want_wts = _meshgrid_triangle_nodes(v0, v1, v2, order, layer)
        assert pts.flags.c_contiguous
        assert np.array_equal(pts, want_pts) and np.array_equal(wts, want_wts)
    flat = GradedSimplex(((0, 0), (1, 1), (2, 2)), 1e-2)
    assert not list(node_blocks(flat, 8))


class _MaterialisedHessian(ConvexFunction):
    """``f`` with each Hessian copied into a fresh array, so no evaluator
    sees a broadcast view."""

    def __init__(self, f):
        self.f = f
        self.n = f.n

    def eval_array(self, X):
        return self.f.eval_array(X)

    def gradient_array(self, X):
        return self.f.gradient_array(X)

    def hessian_array(self, X):
        return np.array(self.f.hessian_array(X))

    @property
    def gradient_degree(self):
        # the rule of an integrand depends on it: both functions on one rule
        return self.f.gradient_degree


def test_constant_hessian_read_once_matches_materialised_bitwise():
    from cycleval.forms import random_bump_form
    from cycleval.lab import MixedDiscriminantSpec, hessian_valuation

    rng = np.random.default_rng(31)
    for n in (1, 2):
        G = rng.normal(size=(n, n))
        q = Quadratic(np.round(G @ G.T + 0.5 * np.eye(n), 3), rng.normal(size=n).round(2))
        forms = [random_bump_form(rng, n, degree=n, nterms=3) for _ in range(3)]
        B = CoefficientFn.bump(n, ball_bump(n, Q(3, 2)), Poly(n, {(1,) + (0,) * (n - 1): Q(1)}))
        specs = [MixedDiscriminantSpec(n, k, B, [np.eye(n).astype(int).tolist()] * (n - k))
                 for k in range(n + 1)]
        for f in (q, Scaled(q, Q(5, 2))):
            ref = _MaterialisedHessian(f)
            assert f.hessian_array(np.zeros((8, n))).strides[0] == 0
            got, want = eval_smooth(f, forms), eval_smooth(ref, forms)
            assert [(r.value, r.error) for r in got] == [(r.value, r.error) for r in want]
            for spec in specs:
                assert hessian_valuation(spec, f) == hessian_valuation(spec, ref)
            assert mass_smooth(f, 1.5) == mass_smooth(ref, 1.5)


def _polynomial_gradients(rng, n):
    """``(function, its gradient as exact polynomials in x)`` for each kind
    of function whose gradient is a polynomial."""
    from cycleval.convex import Shifted
    from cycleval.forms import _rand_frac
    from cycleval.lab import _rand_pd_matrix

    nv = 2 * n
    x = [Poly.variable(nv, i) for i in range(n)]

    def affine(A, b):
        return [sum((x[j].scale(A[i][j]) for j in range(n)), Poly.const(nv, b[i]))
                for i in range(n)]

    A = _rand_pd_matrix(rng, n)
    b, lam = ([_rand_frac(rng, 2, 2) for _ in range(n)] for _ in range(2))
    r2 = sum((xi * xi for xi in x), Poly.const(nv, 0))
    return [
        (Quadratic(A, b, Q(1, 3)), affine(A, b)),
        (Shifted(Quadratic(A), lam, Q(-1, 2)), affine(A, lam)),
        (Scaled(Quadratic(A, b), Q(3, 2)), [p.scale(Q(3, 2)) for p in affine(A, b)]),
        (SmoothCatalog("quartic", n), [xi * r2 for xi in x]),
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_degree_rule_matches_exact_graph_pullback(n, monkeypatch):
    # window forms on functions with a polynomial gradient run on the Gauss
    # pair of their degree alone, and match the exact integral of their
    # pullback by the graph map (x, y) -> (x, grad f(x)) over the zero section
    from cycleval import quadrature
    from cycleval.forms import integrate_zero_section
    from cycleval.lab import Valuation, evaluate, random_window_form

    domains = []
    real = quadrature._rule
    monkeypatch.setattr(quadrature, "_rule", lambda d: domains.append(d) or real(d))
    rng = np.random.default_rng(50 + n)
    forms = [random_window_form(rng, n, n, nterms=2, edge_vanishing=k % 2 == 0)
             for k in range(3 if n < 3 else 2)]
    functions, gradients = zip(*_polynomial_gradients(rng, n))
    got = evaluate([Valuation(tau) for tau in forms], list(functions))
    assert domains and all(isinstance(d, quadrature.PolynomialBox) for d in domains)
    for grad, row in zip(gradients, got):
        graph = PolynomialMap(n, [Poly.variable(2 * n, i) for i in range(n)] + grad)
        for tau, res in zip(forms, row):
            exact = integrate_zero_section(pullback(graph, tau)).value
            assert isinstance(exact, Q)
            assert abs(res.value - float(exact)) <= 1e-10 * max(1, abs(exact)), (tau, exact)
            assert res.error <= 1e-10 * max(1, abs(exact))
    assert any(res.value != 0 for row in got for res in row)


def test_pullback_degree_is_read_off_the_form():
    # |a| + g |b| + (g - 1) |J| over the monomials x^a y^b of the
    # coefficient of dx_I ^ dy_J, g the degree of the gradient
    from cycleval.cycles import pullback_degree
    from cycleval.grammar import parse_form

    quadratic = {n: Quadratic(np.eye(n)) for n in (1, 2)}
    quartic = {n: SmoothCatalog("quartic", n) for n in (1, 2)}
    top = parse_form("box(1) * x1^2 * y2 * dx1 ^ dx2", 2)
    assert (pullback_degree(quadratic[2], top), pullback_degree(quartic[2], top)) == (3, 5)
    mixed = parse_form("box(1) * x1 * dy1", 1)
    assert (pullback_degree(quadratic[1], mixed), pullback_degree(quartic[1], mixed)) == (1, 3)
    bump = parse_form("box(1) * x1 * dy1 + bump(R=2) * dx1", 1)
    assert pullback_degree(quadratic[1], bump) is None
    assert pullback_degree(SmoothCatalog("sqrt1p", 1), mixed) is None
    assert pullback_degree(quartic[2], Form.zero(2, 2)) == 0


def test_exact_routes_read_atoms_without_building_coefficients(monkeypatch):
    # the polyhedral, polyline and zero-section routes take each atom and
    # its box from CoefficientFn.atom_supports: integrating a mixed form
    # (a window polynomial, a bump on a window and a bump of two matrices)
    # calls the canonicalising constructor not once
    from cycleval.coefficients import BumpFactor
    from cycleval.forms import integrate_zero_section
    from cycleval.polyhedral import build_polyhedral, eval_polyhedral, window_for

    def mixed(n):
        nv = 2 * n
        window = ((Q(-2), Q(2)),) * n
        M = [[Q(1 + (i == j), 3) for j in range(n)] for i in range(n)]
        return CoefficientFn(n, {
            (): Poly.const(nv, 1) + Poly.monomial(nv, [1] + [0] * (nv - 1), Q(1, 2)),
            (ball_bump(n, 1),): Poly.monomial(nv, [0] * (nv - 1) + [1], Q(2, 3)),
            (ball_bump(n, 3), BumpFactor(M)): Poly.const(nv, Q(3, 4)),
        }, declared_box=window)

    line = Form(1, 1, {(0,): mixed(1), (1,): mixed(1).scale(2)})
    plane = Form(2, 2, {(0, 1): mixed(2), (2, 3): mixed(2).scale(-1)})
    zero = Form(3, 3, {(0, 1, 2): mixed(3)})
    polyline = build_1d(PiecewiseLinear1D([Q(0)], [-1, 1], 0))
    ma = MaxAffine([([1, 0], 0), ([0, 1], 0), ([-1, -1], 1)])
    polyhedral = build_polyhedral(ma, window=window_for(ma, plane.support_box()))
    calls = []
    real = CoefficientFn.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(CoefficientFn, "__init__", counted)
    values = [eval_polyline(polyline, line), eval_polyhedral(polyhedral, plane),
              integrate_zero_section(zero)]
    assert calls == []
    assert all(abs(float(v)) > 0 for v in values)
