import math
from fractions import Fraction as Q

import numpy as np
import pytest

from cycleval.quadrature import QuadratureSpec, box_nodes, integrate_box


def test_integrate_box_at_depth_zero_is_one_tensor_pass_pair():
    spec = QuadratureSpec(order=12, refine_order=20)
    box = [(Q(-1), Q(1, 2)), (0.25, 2.0)]

    def fn(p):
        return np.exp(p[:, 0]) * np.cos(3 * p[:, 1])

    def one_pass(order):
        pts, wts = box_nodes(box, order)
        return float(np.dot(wts, fn(pts)))

    coarse, fine = one_pass(12), one_pass(20)
    got = integrate_box(fn, box, spec)
    assert got.value == fine
    assert got.error == abs(fine - coarse)


def test_bisection_meets_tol_on_a_peaked_integrand():
    # Lorentzian peak of width 1e-2 at x = 0.3
    eps, c = 1e-2, 0.3

    def fn(p):
        return eps * eps / ((p[:, 0] - c) ** 2 + eps * eps)

    exact = eps * (math.atan((1 - c) / eps) + math.atan((1 + c) / eps))
    tensor = QuadratureSpec(order=24, refine_order=32, tol=1e-9)
    adaptive = QuadratureSpec(order=24, refine_order=32, tol=1e-9, max_depth=10)
    flat = integrate_box(fn, [(-1, 1)], tensor)
    assert abs(flat.value - exact) > tensor.tol
    assert flat.error > tensor.tol
    got = integrate_box(fn, [(-1, 1)], adaptive)
    assert abs(got.value - exact) <= adaptive.tol
    assert got.error <= adaptive.tol


def test_multi_row_integrand_at_depth_zero_equals_each_row():
    spec = QuadratureSpec(order=12, refine_order=20)
    box = [(Q(-1), Q(1, 2)), (0.25, 2.0)]
    rows = [lambda p: np.exp(p[:, 0]) * np.cos(3 * p[:, 1]),
            lambda p: p[:, 0] ** 2 * p[:, 1],
            lambda p: np.sin(p[:, 0] + p[:, 1])]

    def fn(p):
        return np.stack([row(p) for row in rows])

    got = integrate_box(fn, box, spec)
    ref = [integrate_box(row, box, spec) for row in rows]
    assert [(r.value, r.error) for r in got] == [(r.value, r.error) for r in ref]


def test_multi_row_integrand_refuses_bisection():
    spec = QuadratureSpec(order=12, refine_order=20, max_depth=1)
    with pytest.raises(ValueError):
        integrate_box(lambda p: np.stack([p[:, 0], p[:, 0] ** 2]), [(-1, 1)], spec)
