import math
from fractions import Fraction as Q

import numpy as np
import pytest

from cycleval.bridge import QMapData, SphereChart, bridge_check
from cycleval.coefficients import CoefficientFn, ball_bump
from cycleval.convex import EllipsoidBody, PointBody, Shifted, body_restriction
from cycleval.forms import Form, integrate_zero_section
from cycleval.lab import Valuation, evaluate, random_bump_form
from cycleval.quadrature import _leggauss


def test_chart_covers_lower_hemisphere():
    chart = SphereChart(2)
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(32, 2)) * 2
    U = chart.point(Z)
    assert np.allclose(np.linalg.norm(U, axis=1), 1.0)
    assert (U[:, 2] < 0).all()
    # P o chart = identity: -x/t recovers z
    q = QMapData(2)
    assert np.allclose(q.project(U), Z)


def test_chart_jacobian_matches_finite_differences():
    chart = SphereChart(2)
    z = np.array([[0.3, -1.1]])
    J = chart.jacobian(z)[0]
    h = 1e-6
    for j in range(2):
        e = np.zeros((1, 2))
        e[0, j] = h
        fd = (chart.point(z + e) - chart.point(z - e))[0] / (2 * h)
        assert np.abs(J[:, j] - fd).max() < 1e-8


def test_sphere_area_via_chart():
    # integrate the area element sqrt(det J^T J) of the chart Jacobian in
    # polar coordinates with r = tan(theta): half the sphere area, to 1e-8
    # relative
    for n, half_area in ((1, math.pi), (2, 2 * math.pi)):
        chart = SphereChart(n)

        def area_element(Z):
            J = chart.jacobian(Z)
            return np.sqrt(np.linalg.det(np.einsum("nai,naj->nij", J, J)))

        x, w = _leggauss(80)
        theta = 0.25 * math.pi * (x + 1.0)  # (0, pi/2)
        wt = 0.25 * math.pi * w
        r = np.tan(theta)
        jac_sub = 1.0 / np.cos(theta) ** 2
        if n == 1:
            zs = np.concatenate([r, -r])[:, None]
            ws = np.concatenate([wt * jac_sub, wt * jac_sub])
            vols = area_element(zs)
            area = float((ws * vols).sum())
        else:
            m = 160
            phis = 2 * math.pi * (np.arange(m) + 0.5) / m
            wphi = 2 * math.pi / m
            R, P = np.meshgrid(r, phis, indexing="ij")
            WR = np.repeat((wt * jac_sub * r)[:, None], m, axis=1) * wphi
            zs = np.stack([(R * np.cos(P)).ravel(), (R * np.sin(P)).ravel()], axis=1)
            area = float((WR.ravel() * area_element(zs)).sum())
        assert area == pytest.approx(half_area, rel=1e-8)


def test_bridge_unit_ball_constant_form():
    # K = unit ball: both sides equal the defining-property integral
    n = 2
    K = EllipsoidBody(np.eye(n + 1))
    beta = CoefficientFn.bump(n, ball_bump(n, 2))
    tau = Form(n, n, {(0, 1): beta})
    rep = bridge_check(K, tau)
    assert rep.residual < 1e-8 * rep.scale
    ref = float(integrate_zero_section(tau))
    assert rep.graph == pytest.approx(ref, abs=1e-8)


def test_bridge_point_body():
    # K = {p}: f_K affine; only the horizontal term of tau survives
    n = 2
    p = [0.7, -0.4, 0.2]
    K = PointBody(p)
    beta = CoefficientFn.bump(n, ball_bump(n, 2))
    tau = Form(n, n, {(0, 1): beta})
    rep = bridge_check(K, tau)
    assert rep.residual < 1e-8 * rep.scale
    assert rep.conormal == pytest.approx(float(integrate_zero_section(tau)), abs=1e-8)


def test_bridge_random_forms_and_bodies():
    rng = np.random.default_rng(3)
    for n in (1, 2):
        for _ in range(3):
            G = rng.normal(size=(n + 1, n + 1))
            M = G @ G.T + 0.5 * np.eye(n + 1)
            K = EllipsoidBody(M)
            tau = random_bump_form(rng, n, degree=n, nterms=2)
            rep = bridge_check(K, tau)
            assert rep.residual < 1e-6 * rep.scale, (n, rep)


def test_t_map_properties():
    # T(tau)(K) is the valuation of tau at f_K = h_K(., -1)
    def t_map(tau, K):
        return evaluate([Valuation(tau)], [body_restriction(K)])[0][0]

    n = 2
    rng = np.random.default_rng(5)
    # dually epi-translation invariant tau: T(mu) ignores body translations
    tau = random_bump_form(rng, n, bidegree=(1, 1), y_dependent=False)
    K = EllipsoidBody(np.eye(n + 1))
    base = float(t_map(tau, K).value)
    # translating the body K by v in V* x R shifts f_K by an affine function
    f_translated = Shifted(body_restriction(K), [Q(1, 2), Q(-1, 4)], Q(3, 5))
    v = float(evaluate([Valuation(tau)], [f_translated])[0][0].value)
    assert abs(v - base) < 1e-6 * max(1.0, abs(base))
    # scaling: r K scales h_K linearly; degree matches the bidegree
    val = Valuation(tau)
    K2 = EllipsoidBody(4.0 * np.eye(n + 1))  # h scales by 2
    v1 = float(t_map(tau, K).value)
    v2 = float(t_map(tau, K2).value)
    if abs(v1) > 1e-6:
        assert v2 == pytest.approx(2.0 * v1, rel=1e-5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chart_jacobians_match_einsum_bitwise(n):
    rng = np.random.default_rng(60 + n)
    Z = rng.normal(size=(4096, n)) * 2
    chart, q = SphereChart(n), QMapData(n)
    w = np.sqrt(1.0 + (Z * Z).sum(axis=1))
    want = np.empty((4096, n + 1, n))
    want[:, :n, :] = np.eye(n)[None] / w[:, None, None] \
        - np.einsum("ni,nj->nij", Z, Z) / (w ** 3)[:, None, None]
    want[:, n, :] = Z / (w ** 3)[:, None]
    dU = chart.jacobian(Z)
    assert np.array_equal(dU.view(np.int64), want.view(np.int64))
    U = chart.point(Z)
    t, x = U[:, n], U[:, :n]
    want = -(dU[:, :n, :] * t[:, None, None]
             - np.einsum("ni,nj->nij", x, dU[:, n, :])) / (t ** 2)[:, None, None]
    assert np.array_equal(q.project_jacobian(U, dU).view(np.int64), want.view(np.int64))


def test_conormal_eval_refuses_a_term_off_its_window():
    # box(-2,2) * dx1 + box(0,1) * dy1 on the unit disk: each term alone
    # gives 4 and 1/sqrt 2, but over the one box [-2, 2] the dy1 term would
    # count outside its window (5.7889); the bridge refuses the sum with
    # the graph routes' SupportError
    from cycleval.bridge import conormal_eval
    from cycleval.coefficients import SupportError
    from cycleval.grammar import parse_form

    K = EllipsoidBody(np.eye(2))
    parts = [conormal_eval(K, parse_form(text, 1)).value
             for text in ("box(-2,2) * dx1", "box(0,1) * dy1")]
    assert parts[0] == pytest.approx(4.0, abs=1e-12)
    assert parts[1] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    tau = parse_form("box(-2,2) * dx1 + box(0,1) * dy1", 1)
    with pytest.raises(SupportError) as got:
        conormal_eval(K, tau)
    with pytest.raises(SupportError) as want:
        tau.check_windows()
    assert str(got.value) == str(want.value)


def _all_nodes_integrand(K, tau):
    """The conormal integrand of ``conormal_eval`` on every node at once."""
    from cycleval.coefficients import CompiledBatch
    from cycleval.convex import node_matmul
    from cycleval.exactla import det

    n = tau.n
    chart, qmap = SphereChart(n), QMapData(n)
    batch = CompiledBatch(n, [(0, (tuple(v for v in key if v < n),
                                   tuple(v - n for v in key if v >= n)), coeff, 1)
                              for key, coeff in tau.terms.items()])

    def integrand(Z):
        U, dU = chart.point(Z), chart.jacobian(Z)
        X, dX = qmap.project(U), qmap.project_jacobian(U, dU)
        Y = K.grad_h_array(U)[:, :n]
        dY = node_matmul(K.hess_h_array(U)[:, :n, :], dU)
        dets = {}
        for I, J in batch.keys:
            rows = [dX[:, i, :] for i in I] + [dY[:, j, :] for j in J]
            dets[I, J] = det([[r[:, c] for c in range(n)] for r in rows])
        out = np.zeros((1, Z.shape[0]))
        batch.add_to(out, np.concatenate([X.T, Y.T]), dets)
        return out[0]

    return integrand


def test_conormal_integrand_in_blocks_equals_all_nodes_bitwise(monkeypatch):
    # quadrature.integrate hands the chart, oracle and determinant chain one
    # node block at a time, and each node's value is that of the whole node
    # set at once, bit for bit
    from cycleval import bridge
    from cycleval.quadrature import _NODE_BLOCK

    rng = np.random.default_rng(51)
    calls = []
    real = bridge.integrate

    def integrate(fn, domains):
        def recorded(Z):
            out = fn(Z)
            calls.append((np.array(Z), out))
            return out

        return real(recorded, domains)

    monkeypatch.setattr(bridge, "integrate", integrate)
    for n in (1, 2):
        G = rng.normal(size=(n + 1, n + 1))
        K = EllipsoidBody(G @ G.T + 0.5 * np.eye(n + 1))
        tau = random_bump_form(rng, n, degree=n, nterms=3)
        calls.clear()
        bridge.conormal_eval(K, tau)
        assert all(len(Z) <= _NODE_BLOCK for Z, _ in calls)
        # the plain ellipse passes of 6,272 and 8,192 nodes take two blocks each
        assert len(calls) == (2 if n == 1 else 4)
        Z = np.concatenate([Z for Z, _ in calls])
        got = np.concatenate([out for _, out in calls])
        want = _all_nodes_integrand(K, tau)(Z)
        assert got.tobytes() == want.tobytes() and np.abs(want).max() > 0
