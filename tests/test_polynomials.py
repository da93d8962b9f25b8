from fractions import Fraction as Q

import numpy as np

from cycleval.polynomials import Poly, dirichlet_moment


def test_ring_basics():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert p.total_degree() == 2


def test_rational_exactness():
    x = Poly.variable(1, 0)
    p = x.scale(Q(1, 3)) + x.scale(Q(2, 3))
    assert p == x


def test_diff_and_subs():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x ** 3 * y + y ** 2
    assert p.diff(0) == x ** 2 * y * 3
    assert p.diff(1) == x ** 3 + y * 2
    # compose with (x, y) -> (y, x + y)
    q = p.subs([y, x + y])
    expected = y ** 3 * (x + y) + (x + y) ** 2
    assert q == expected


def test_subs_into_extended_ring():
    x = Poly.variable(1, 0)
    t = Poly.variable(2, 1)  # parameter slot
    p = x ** 2
    q = p.subs([x.extend(2) * t])
    assert q == (Poly.variable(2, 0) * t) ** 2


def test_eval_matches_float():
    rng = np.random.default_rng(0)
    x = Poly.variable(3, 0)
    y = Poly.variable(3, 1)
    z = Poly.variable(3, 2)
    p = x ** 2 * y - z * y + x.scale(Q(1, 2))
    pts = rng.normal(size=(17, 3))
    vals = p.eval_array(pts)
    direct = pts[:, 0] ** 2 * pts[:, 1] - pts[:, 2] * pts[:, 1] + 0.5 * pts[:, 0]
    assert np.allclose(vals, direct, atol=1e-12)


def test_divide_exact():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    q = Poly.const(2, 1) - x ** 2 - y ** 2
    p = q * (x ** 3 - y + Poly.const(2, Q(5, 7)))
    quo = p.divide_exact(q)
    assert quo == x ** 3 - y + Poly.const(2, Q(5, 7))
    assert (p + Poly.const(2, 1)).divide_exact(q) is None


def test_integrate_box():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = x ** 2 * y
    out = p.integrate_box([(Q(-1), Q(1)), (Q(0), Q(2))], [0, 1])
    # int x^2 over [-1,1] = 2/3 ; int y over [0,2] = 2
    assert out == Poly.const(2, Q(4, 3))


def test_integrate_simplex():
    # over the standard triangle: int 1 = 1/2, int s = 1/6, int s t = 1/24
    assert dirichlet_moment([0, 0]) == Q(1, 2)
    assert dirichlet_moment([1, 0]) == Q(1, 6)
    assert dirichlet_moment([1, 1]) == Q(1, 24)
