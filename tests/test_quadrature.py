from fractions import Fraction as Q

import numpy as np

from cycleval.quadrature import ORDERS, box_nodes, integrate_box


def test_integrate_box_at_depth_zero_is_one_tensor_pass_pair():
    box = [(Q(-1), Q(1, 2)), (0.25, 2.0)]

    def fn(p):
        return np.exp(p[:, 0]) * np.cos(3 * p[:, 1])

    def one_pass(order):
        pts, wts = box_nodes(box, order)
        return float(np.dot(wts, fn(pts)))

    order, refine = ORDERS[len(box)]
    coarse, fine = one_pass(order), one_pass(refine)
    got = integrate_box(fn, box)
    assert got.value == fine
    assert got.error == abs(fine - coarse)


def test_multi_row_integrand_at_depth_zero_equals_each_row():
    box = [(Q(-1), Q(1, 2)), (0.25, 2.0)]
    rows = [lambda p: np.exp(p[:, 0]) * np.cos(3 * p[:, 1]),
            lambda p: p[:, 0] ** 2 * p[:, 1],
            lambda p: np.sin(p[:, 0] + p[:, 1])]

    def fn(p):
        return np.stack([row(p) for row in rows])

    got = integrate_box(fn, box)
    ref = [integrate_box(row, box) for row in rows]
    assert [(r.value, r.error) for r in got] == [(r.value, r.error) for r in ref]
