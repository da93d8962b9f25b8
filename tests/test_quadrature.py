import math
from fractions import Fraction as Q

import numpy as np

from cycleval.polynomials import dirichlet_moment
from cycleval.quadrature import (
    _NODE_BLOCK,
    ELLIPSE_ORDERS,
    ORDERS,
    Ellipse,
    GradedSimplex,
    SimplexProduct,
    box_nodes,
    ellipse_nodes,
    integrate,
    integrate_box,
    simplex_nodes,
)


def integrate_ellipsoid(fn, M):
    return integrate(fn, [Ellipse(M)])


def test_integrate_box_at_depth_zero_is_one_tensor_pass_pair():
    # each pass is the sum of the pairwise sums of its node blocks, in order
    box = [(Q(-1), Q(1, 2)), (0.25, 2.0)]

    def fn(p):
        return np.exp(p[:, 0]) * np.cos(3 * p[:, 1])

    def one_pass(order):
        pts, wts = box_nodes(box, order)
        total = 0.0
        for start in range(0, len(wts), _NODE_BLOCK):
            block = slice(start, start + _NODE_BLOCK)
            total += float(np.add.reduce(wts[block] * fn(pts[block])))
        return total

    order, refine = ORDERS[len(box)]
    coarse, fine = one_pass(order), one_pass(refine)
    got = integrate_box(fn, box)
    assert got.value == fine
    assert got.error == abs(fine - coarse)


def test_integrand_never_gets_more_than_one_block():
    # a 160^2 box, a 3-D box and a gather of graded triangles, as the ridge
    # route integrates them: every call holds at most one block, and the
    # calls of both passes cover every node once
    triangles = [GradedSimplex(((0.0, 0.0), (1.0, k / 3), (1.0, (k + 1) / 3)), 0.05, (20, 28))
                 for k in range(3)]
    cases = [([[(-2.0, 2.0), (-1.0, 3.0)]], 128 ** 2 + 160 ** 2),
             ([[(-1.0, 1.0)] * 3], 32 ** 3 + 48 ** 3),
             (triangles, 3 * 6 * (20 ** 2 + 28 ** 2))]
    for domains, total in cases:
        sizes = []

        def fn(p):
            sizes.append(len(p))
            return np.cos(p[:, 0]) * np.exp(-p[:, -1] ** 2)

        integrate(fn, domains)
        assert max(sizes) == _NODE_BLOCK and sum(sizes) == total


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


def test_ellipse_rule_area_and_second_moment():
    # x^T M x < 1 has area pi / sqrt(det M) and second moment
    # int x x^T = pi / (4 sqrt(det M)) M^-1; the polar rule is exact on both
    M = ((Q(3), Q(-5, 4)), (Q(-5, 4), Q(1)))
    Mf = np.array(M, dtype=float)
    area = math.pi / math.sqrt(np.linalg.det(Mf))
    got = integrate_ellipsoid(lambda p: np.ones(p.shape[0]), M)
    assert abs(got.value - area) <= 1e-14 * area
    assert got.error <= 1e-14 * area
    want = area / 4 * np.linalg.inv(Mf)
    rows = integrate_ellipsoid(
        lambda p: np.stack([p[:, 0] ** 2, p[:, 0] * p[:, 1], p[:, 1] ** 2]), M)
    got = [[rows[0].value, rows[1].value], [rows[1].value, rows[2].value]]
    assert np.abs(np.array(got) - want).max() <= 1e-14 * area


def test_ellipse_rule_is_two_polar_passes():
    M = ((Q(1, 2), Q(1, 5)), (Q(1, 5), Q(1, 3)))

    def fn(p):
        return np.exp(p[:, 0]) * np.cos(3 * p[:, 1])

    coarse, fine = (float(np.add.reduce(w * fn(x))) for x, w in
                    (ellipse_nodes(M, orders) for orders in ELLIPSE_ORDERS))
    got = integrate_ellipsoid(fn, M)
    assert (got.value, got.error) == (fine, abs(fine - coarse))
    assert len(ellipse_nodes(M, ELLIPSE_ORDERS[1])[1]) == 64 * 128


def test_ellipse_rule_resolves_a_bump_at_its_support_circle():
    # beta / q^4 (1 + x + x y^2) cos y on the R = 2 disk: the radial rule
    # ends on the circle where the bump is flat, the tensor pair on the
    # bounding box does not
    M = ((Q(1, 4), Q(0)), (Q(0), Q(1, 4)))

    def fn(p):
        x, y = p[:, 0], p[:, 1]
        q = 1.0 - (x * x + y * y) / 4.0
        out = np.zeros(p.shape[0])
        inside = q > 0
        qi, xi, yi = q[inside], x[inside], y[inside]
        out[inside] = (np.exp(1.0 - 1.0 / qi) / qi ** 4
                       * (1.0 + xi + xi * yi ** 2) * np.cos(yi))
        return out

    pts, wts = ellipse_nodes(M, (160, 256))
    ref = float(np.dot(wts, fn(pts)))
    polar = integrate_ellipsoid(fn, M)
    tensor = integrate_box(fn, [(-2.0, 2.0), (-2.0, 2.0)])
    assert abs(polar.value - ref) <= 1e-10
    assert abs(polar.value - ref) * 100 < abs(tensor.value - ref)


def test_memoised_rules_equal_fresh_ones_and_are_read_only():
    from cycleval.quadrature import _box_rule, _ellipse_rule

    box = ((Q(-3, 2), Q(2)), (-0.5, Q(1, 3)))
    M = ((Q(3), Q(-5, 4)), (Q(-5, 4), Q(1)))
    for _ in range(2):  # built, then served from the cache
        for order in (8, 128):
            got = box_nodes(box, order)
            want = _box_rule(tuple((float(lo), float(hi)) for lo, hi in box), order)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        got = ellipse_nodes(M, ELLIPSE_ORDERS[1])
        want = _ellipse_rule(tuple(tuple(map(float, row)) for row in M), ELLIPSE_ORDERS[1])
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert box_nodes(box, 8)[0] is box_nodes([list(b) for b in box], 8)[0]
    for arr in (*box_nodes(box, 128), *ellipse_nodes(M, ELLIPSE_ORDERS[0])):
        with np.testing.assert_raises(ValueError):
            arr[0] = 1.0


def test_rule_memo_is_bounded_and_keeps_no_3d_rule():
    from cycleval.quadrature import _kept_box_rule

    for k in range(40):
        box_nodes([(0, 1 + k), (0, 1)], 160)
        info = _kept_box_rule.cache_info()
        assert info.currsize <= info.maxsize
    # a 3-D rule is built for the call and not kept
    for order in (32, 48):
        big = box_nodes([(0, 1)] * 3, order)
        assert not big[0].flags.writeable and not big[1].flags.writeable
        assert box_nodes([(0, 1)] * 3, order)[0] is not big[0]


def _monomials(dim, degree):
    # exponent tuples of total degree <= degree
    if dim == 0:
        return [()]
    return [(a,) + g for a in range(degree + 1) for g in _monomials(dim - 1, degree - a)]


def test_collapsed_rule_is_exact_on_monomials_of_segment_and_triangle():
    # order o integrates t^a on [0, 1] up to a = 2o - 1, and s^a t^b on the
    # standard triangle up to a + b = 2o - 2 (the collapse adds a factor r),
    # whichever vertex it collapses onto and with the pieces of a grading
    order = 6
    segment = [[0.0], [1.0]]
    triangle = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    rules = [simplex_nodes(segment, order), simplex_nodes(segment, order, 0.05)]
    for k in range(3):
        ring = triangle[k:] + triangle[:k]
        rules += [simplex_nodes(ring, order), simplex_nodes(ring, order, 0.05)]
    for pts, wts in rules:
        dim = pts.shape[1]
        for g in _monomials(dim, 2 * order - 1 if dim == 1 else 2 * order - 2):
            got = float(np.dot(wts, np.prod(pts ** np.array(g), axis=1)))
            assert abs(got - float(dirichlet_moment(g))) <= 1e-15, (dim, g)


def test_simplex_product_is_exact_on_monomials():
    # x1^a x2^b y1^c y2^d on products of a standard triangle, point or
    # segment along an axis: the weights are in the measure of the standard
    # simplices, so each factor contributes its moment or its point value
    O, E1, E2 = (Q(0), Q(0)), (Q(1), Q(0)), (Q(0), Q(1))
    p = (Q(1, 2), Q(-1, 3))
    cases = [
        ([O, E1, E2], [p], lambda a, b, c, d: dirichlet_moment((a, b)) * p[0] ** c * p[1] ** d),
        ([O, E1], [O, E2], lambda a, b, c, d: dirichlet_moment((a,)) * dirichlet_moment((d,))
         if b == c == 0 else 0),
        ([p], [O, E1, E2], lambda a, b, c, d: p[0] ** a * p[1] ** b * dirichlet_moment((c, d))),
    ]
    for x, y, moment in cases:
        for g in _monomials(4, 4):
            got = integrate(lambda pts: np.prod(pts ** np.array(g), axis=1),
                            [SimplexProduct(x, y)])
            want = float(moment(*g))
            assert abs(got.value - want) <= 1e-15 and got.error <= 1e-15, (x, y, g)


def test_gauss_legendre_table_is_leggauss_bit_for_bit():
    # the shipped table holds the orders the rules name and 1-16 for the
    # degree rules, each row numpy's leggauss to the bit; another order
    # falls back to leggauss
    from numpy.polynomial.legendre import leggauss

    from cycleval.quadrature import CELL_ORDERS, _gauss_table, _leggauss

    named = {o for pair in ORDERS.values() for o in pair}
    named |= {radii for radii, _ in ELLIPSE_ORDERS} | set(CELL_ORDERS)
    named |= {32, 44, 40, 56}  # the ridge route's pass pairs
    assert set(map(int, _gauss_table())) == named | set(range(1, 17))
    for order in sorted(map(int, _gauss_table())) + [80]:
        got, want = _leggauss(order), leggauss(order)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], order


def test_polar_degree_rule_is_exact_in_the_angle():
    # a radial bump times x^a y^b, a + b <= D, on the polar rule of degree
    # D: D + 1 angles per radius, the value of the plain pair to rounding,
    # the radial pair's error estimate; the rules are kept apart
    from cycleval.quadrature import _kept_ellipse_rule, _kept_polar_rule

    M = ((Q(3), Q(-5, 4)), (Q(-5, 4), Q(1)))
    Mf = np.array(M, dtype=float)

    def bump(p):
        q = 1.0 - np.einsum("ni,ij,nj->n", p, Mf, p)
        inside = q > 0
        out = np.zeros(p.shape[0])
        out[inside] = np.exp(1.0 - 1.0 / q[inside])
        return out

    integrate(bump, [Ellipse(M)])
    plain_kept = _kept_ellipse_rule.cache_info().currsize
    for degree in range(5):
        domain = Ellipse(M, degree)
        assert domain.orders == tuple((radii, degree + 1) for radii, _ in ELLIPSE_ORDERS)
        assert len(domain.nodes(domain.orders[1])[1]) == 64 * (degree + 1)
        for a in range(degree + 1):
            def fn(p):
                return bump(p) * p[:, 0] ** a * p[:, 1] ** (degree - a)

            got, plain = integrate(fn, [domain]), integrate(fn, [Ellipse(M)])
            assert abs(got.value - plain.value) <= 1e-14
            assert abs(got.error - plain.error) <= 1e-14
    assert _kept_ellipse_rule.cache_info().currsize == plain_kept
    assert _kept_polar_rule.cache_info().currsize >= 5


def test_spherical_degree_rule_is_exact_in_the_angles():
    # a skew 3-D bump times x^a y^b z^c, a + b + c <= D <= 6, on the
    # ellipsoid rule of degree D: within 1e-9 of a 96^3 box reference,
    # within the 32^3 / 48^3 box pair's own estimate, and with an estimate
    # of rounding, as the radial pair resolves the bump
    M = ((Q(2), Q(1, 3), Q(-1, 4)), (Q(1, 3), Q(1), Q(1, 5)), (Q(-1, 4), Q(1, 5), Q(3, 2)))
    Mf = np.array(M, dtype=float)
    box = [(-h, h) for h in np.sqrt(np.diag(np.linalg.inv(Mf)))]
    top = 6

    def bump(p):
        q = 1.0 - sum(p[:, i] * (Mf[i] * p).sum(axis=1) for i in range(3))
        inside = q > 0
        out = np.zeros(p.shape[0])
        out[inside] = np.exp(1.0 - 1.0 / q[inside])
        return out

    def box_moments(order):
        # every moment of degree <= top on one tensor rule, by running products
        pts, wts = box_nodes(box, order)
        x, y, z = pts.T
        out, wa = {}, wts * bump(pts)
        for a in range(top + 1):
            wab = wa
            for b in range(top + 1 - a):
                wabc = wab
                for c in range(top + 1 - a - b):
                    out[a, b, c] = float(np.add.reduce(wabc))
                    wabc = wabc * z
                wab = wab * y
            wa = wa * x
        return out

    ref, coarse, fine = (box_moments(order) for order in (96,) + ORDERS[3])
    for degree in range(top + 1):
        domain = Ellipse(M, degree)
        polar = degree // 2 + 1
        assert domain.orders == tuple((radii, polar, degree + 1) for radii, _ in ELLIPSE_ORDERS)
        for g in ref:
            if sum(g) > degree:
                continue

            def fn(p):
                return bump(p) * p[:, 0] ** g[0] * p[:, 1] ** g[1] * p[:, 2] ** g[2]

            got = integrate(fn, [domain])
            assert abs(got.value - ref[g]) <= 1e-9, (degree, g)
            assert abs(got.value - fine[g]) <= abs(fine[g] - coarse[g]) + 1e-15, (degree, g)
            assert got.error <= 1e-12, (degree, g)


def test_spherical_rule_sizes_and_its_need_of_a_degree():
    # 56 + 64 radii times ceil((D + 1) / 2) polar nodes times D + 1
    # azimuths; a 3-D ellipse without a degree has no rule
    M = ((Q(1), Q(0), Q(0)), (Q(0), Q(2), Q(0)), (Q(0), Q(0), Q(3)))
    for degree, nodes in ((1, 240), (2, 720)):
        domain = Ellipse(M, degree)
        assert sum(len(domain.nodes(orders)[1]) for orders in domain.orders) == nodes
    with np.testing.assert_raises(ValueError):
        Ellipse(M)
    # the volume of the ellipsoid, 4 pi / 3 / sqrt(det M), to rounding
    got = integrate(lambda p: np.ones(p.shape[0]), [Ellipse(M, 0)])
    assert abs(got.value - 4.0 * math.pi / 3.0 / math.sqrt(6.0)) <= 1e-14
