import math
from fractions import Fraction as Q

import numpy as np

from cycleval.quadrature import (
    _NODE_BLOCK,
    CELL_ORDERS,
    ELLIPSE_ORDERS,
    ORDERS,
    RIDGE_ORDERS,
    Ellipse,
    EvalResult,
    GradedSimplex,
    PolynomialBox,
    SimplexProduct,
    integrate,
    integrate_box,
    sum_parts,
)
from dirichlet import dirichlet_moment
from nodes import node_blocks


class _Graded(GradedSimplex):
    """A graded simplex at a pass pair of fewer nodes than RIDGE_ORDERS, so
    that several fit in one block."""

    orders = (20, 28)


def integrate_ellipsoid(fn, M):
    return integrate(fn, [Ellipse(M)])


def whole(domain, order):
    # a domain's rule at one order, its node blocks concatenated
    return tuple(map(np.concatenate, zip(*node_blocks(domain, order))))


def test_integrate_box_at_depth_zero_is_one_tensor_pass_pair():
    # each pass is the sum of the pairwise sums of its node blocks, in order
    box = [(Q(-1), Q(1, 2)), (0.25, 2.0)]

    def fn(p):
        return np.exp(p[:, 0]) * np.cos(3 * p[:, 1])

    def one_pass(order):
        pts, wts = whole(box, order)
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
    triangles = [_Graded(((0.0, 0.0), (1.0, k / 3), (1.0, (k + 1) / 3)), 0.05)
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
                    (whole(Ellipse(M), orders) for orders in ELLIPSE_ORDERS))
    got = integrate_ellipsoid(fn, M)
    assert (got.value, got.error) == (fine, abs(fine - coarse))
    assert len(whole(Ellipse(M), ELLIPSE_ORDERS[1])[1]) == 64 * 128


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

    pts, wts = whole(Ellipse(M), (160, 256))
    ref = float(np.dot(wts, fn(pts)))
    polar = integrate_ellipsoid(fn, M)
    tensor = integrate_box(fn, [(-2.0, 2.0), (-2.0, 2.0)])
    assert abs(polar.value - ref) <= 1e-10
    assert abs(polar.value - ref) * 100 < abs(tensor.value - ref)


# Whole rules built as the quadrature module once built them, for the
# comparison with the blocks it makes now.
def _box_whole(box, order):
    from functools import reduce

    from cycleval.quadrature import gl_interval

    axes = [gl_interval(float(lo), float(hi), order) for lo, hi in box]
    grids = np.meshgrid(*(pts for pts, _ in axes), indexing="ij")
    wts = reduce(np.multiply.outer, (w for _, w in axes))
    return np.stack([g.ravel() for g in grids], axis=-1), np.asarray(wts).ravel()


def _ellipse_whole(M, orders):
    from cycleval.quadrature import _ellipse_map, gl_interval

    r, wr = gl_interval(0.0, 1.0, orders[0])
    order_t = orders[-1]
    phi = 2.0 * np.pi * (np.arange(order_t) + 0.5) / order_t
    azimuth = np.full(order_t, 2.0 * np.pi / order_t)
    if len(orders) == 2:
        u = [np.multiply.outer(r, np.cos(phi)).ravel(), np.multiply.outer(r, np.sin(phi)).ravel()]
        wts = np.multiply.outer(wr * r, azimuth).ravel()
    else:
        z, wz = gl_interval(-1.0, 1.0, orders[1])
        rho = np.sqrt(1.0 - z * z)
        u = [np.multiply.outer(r, np.multiply.outer(rho, np.cos(phi))).ravel(),
             np.multiply.outer(r, np.multiply.outer(rho, np.sin(phi))).ravel(),
             np.multiply.outer(r, np.multiply.outer(z, np.ones(order_t))).ravel()]
        wts = np.multiply.outer(wr * r * r, np.multiply.outer(wz, azimuth)).ravel()
    rows, jac = _ellipse_map(M)
    x = [sum((row[j] * u[i + j] for j in range(1, len(row))), row[0] * u[i])
         for i, row in enumerate(rows)]
    return np.stack(x, axis=-1), wts * jac


def _triangle_whole(vertices, order, layer):
    from cycleval.quadrature import _gl_pieces, _graded_cuts

    v0, v1, v2 = (np.asarray(v, dtype=float) for v in vertices)
    e = v2 - v1
    area2 = abs((v1 - v0)[0] * (v2 - v0)[1] - (v1 - v0)[1] * (v2 - v0)[0])
    elen = float(np.linalg.norm(e))
    up, uw = _gl_pieces(_graded_cuts(layer / elen), order)
    rp, rw = _gl_pieces([0.0, 1.0 - min(max(layer / (area2 / elen), 1e-12), 1.0 / 3.0), 1.0],
                        order)
    pts = np.stack([(v0[k] + rp[None, :] * (v1[k] + up[:, None] * e[k] - v0[k])).ravel()
                    for k in range(2)], axis=1)
    return pts, ((uw[:, None] * rw[None, :]) * rp[None, :] * area2).ravel()


def _product_whole(x, y, order):
    sides = []
    for simplex in (x, y):
        params, wts = whole(GradedSimplex(tuple(_STANDARD[len(simplex) - 1]), None), order)
        frame = np.array([[float(a - b) for a, b in zip(v, simplex[0])] for v in simplex])
        offset = np.zeros((len(wts), frame.shape[1]))
        for k in range(1, len(frame)):
            offset += params[:, k - 1:k] * frame[k]
        sides.append((np.array(simplex[0], dtype=float) + offset, wts))
    (X, ws), (Y, wt) = sides
    pts = np.concatenate([np.repeat(X, len(wt), axis=0), np.tile(Y, (len(ws), 1))], 1)
    return pts, np.repeat(ws, len(wt)) * np.tile(wt, len(ws))


_STANDARD = {0: [[]], 1: [[0.0], [1.0]], 2: [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]}


def test_blocks_of_every_domain_kind_equal_the_rule_built_whole():
    # every domain kind makes its nodes one block at a time, from 1-D
    # factors: its blocks, each of at most one block, concatenated, are the
    # rule built whole, bit for bit, whether the rule is kept or not
    box2 = ((Q(-3, 2), Q(2)), (-0.5, Q(1, 3)))
    M = ((Q(3), Q(-5, 4)), (Q(-5, 4), Q(1)))
    M3 = ((Q(2), Q(1, 3), Q(-1, 4)), (Q(1, 3), Q(1), Q(1, 5)), (Q(-1, 4), Q(1, 5), Q(3, 2)))
    triangle = ((0.1, -0.3), (1.7, 0.2), (0.4, 1.9))
    O, E1, E2 = (Q(0), Q(0)), (Q(1), Q(0)), (Q(0), Q(1))
    p = (Q(1, 2), Q(-1, 3))
    cases = [(box, order, _box_whole(box, order))
             for box in ([(-2, Q(1, 2))], box2, [(-1, 1), (0, 2), (Q(-1, 2), 1)])
             for order in (8, 48, 128) if len(box) < 3 or order <= 48]
    cases += [(PolynomialBox.of(box2, 5), order, _box_whole(box2, order)) for order in (3, 4)]
    cases += [(Ellipse(M), orders, _ellipse_whole(M, orders)) for orders in ELLIPSE_ORDERS]
    cases += [(Ellipse(Mk, degree), orders, _ellipse_whole(Mk, orders))
              for Mk, degree in ((M, 3), (M3, 6)) for orders in Ellipse(Mk, degree).orders]
    cases += [(GradedSimplex(triangle, 0.05), order,
               _triangle_whole(triangle, order, 0.05)) for order in RIDGE_ORDERS]
    cases += [(SimplexProduct(x, y), order, _product_whole(x, y, order))
              for x, y in (((O, E1, E2), (p,)), ((O, E1), (O, E2)), ((p,), (O, E1, E2)))
              for order in CELL_ORDERS]
    for _ in range(2):  # built, then from the kept rules
        for domain, order, (pts, wts) in cases:
            blocks = list(node_blocks(domain, order))
            assert all(len(w) <= _NODE_BLOCK for _, w in blocks)
            assert sum(len(w) for _, w in blocks[:-1]) == _NODE_BLOCK * (len(blocks) - 1)
            got_pts, got_wts = map(np.concatenate, zip(*blocks))
            assert np.array_equal(got_pts, pts) and np.array_equal(got_wts, wts), domain
    # a rule of one block is kept whole and handed out read-only
    for arr in next(node_blocks(Ellipse(M, 3), Ellipse(M, 3).orders[0])):
        with np.testing.assert_raises(ValueError):
            arr[0] = 1.0
    flat = GradedSimplex(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)), 0.1)
    assert list(node_blocks(flat, 4)) == []
    # the blocks of a pass over several domains are their node sets, one
    # after the other, gathered until they hold a block and cut at its
    # multiples from the start of the gathering: 2,400-node triangles at
    # order 20, 4,704-node ones at 28
    triangles = [_Graded(((0.0, 0.0), (1.0, k / 3), (1.0, (k + 1) / 3)), 0.05)
                 for k in range(3)]
    seen = []
    integrate(lambda p: seen.append(p) or p[:, 0], triangles + [flat])
    assert [len(p) for p in seen] == [4096, 704, 2400] + [4096, 608] * 3
    for order, got in ((20, seen[:3]), (28, seen[3:])):
        pts = np.concatenate([_triangle_whole(t.vertices, order, 0.05)[0] for t in triangles])
        assert np.array_equal(np.concatenate(got), pts)


def test_large_rules_integrate_below_one_megabyte_and_are_not_kept():
    # under tracemalloc, one integral on the 32^3 / 48^3 box pair (143,360
    # nodes), on the 128^2 / 160^2 pair (41,984) and on the plain ellipse
    # pair (14,464) peaks below 1 MB, and none of their node sets is kept
    import tracemalloc

    def fn(p):
        return np.cos(p[:, 0]) * np.exp(-p[:, -1] ** 2)

    integrate(fn, [[(0.0, 1.0)]])  # the Gauss-Legendre table is read
    domains = [[(-1.0, 1.5)] * 3, [(-2.5, 2.0), (-1.0, 3.5)],
               Ellipse(((Q(3), Q(-5, 7)), (Q(-5, 7), Q(1))))]
    for domain in domains:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            integrate(fn, [domain])
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base < 1 << 20, (domain, peak - base)
        assert now - base < 1 << 16, (domain, now - base)


def test_integral_over_no_nodes_is_zero():
    # no domain, or one triangle of zero area: zero results, one per row
    # of the integrand, whose row count a call on zero nodes gives
    flat = GradedSimplex(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)), 0.1)
    for domains in ([], [flat]):
        got = integrate(lambda p: np.ones(len(p)), domains)
        assert (got.value, got.error) == (0.0, 0.0)
        rows = integrate(lambda p: np.stack([p.sum(axis=1), np.ones(len(p))]), domains)
        assert [(r.value, r.error) for r in rows] == [(0.0, 0.0)] * 2
        both = integrate([lambda p: np.ones(len(p)), lambda p: np.zeros((3, len(p)))], domains)
        assert both[0].value == 0.0 and [r.value for r in both[1]] == [0.0] * 3


def test_several_integrands_are_integrated_as_each_alone():
    # a list of integrands gets every block in turn, each integrand the
    # results it gets alone, bit for bit
    fns = [lambda p: np.exp(p[:, 0]) * np.cos(3 * p[:, 1]),
           lambda p: np.stack([p[:, 0] ** 2 * p[:, 1], np.sin(p[:, 0] + p[:, 1])])]
    triangles = [_Graded(((0.0, 0.0), (1.0, k / 3), (1.0, (k + 1) / 3)), 0.05)
                 for k in range(3)]
    for domains in ([[(-1.0, 0.5), (0.25, 2.0)]], [Ellipse(((Q(1), Q(0)), (Q(0), Q(2))))],
                    triangles):
        seen = []

        def first(p):
            seen.append(p)
            return fns[0](p)

        def second(p):
            assert p is seen[-1]  # the block the first integrand got
            return fns[1](p)

        got = integrate([first, second], domains)
        alone = [integrate(fn, domains) for fn in fns]
        assert (got[0].value, got[0].error) == (alone[0].value, alone[0].error)
        assert [(r.value, r.error) for r in got[1]] == [(r.value, r.error) for r in alone[1]]


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
    rings = [segment] + [triangle[k:] + triangle[:k] for k in range(3)]
    rules = [whole(GradedSimplex(tuple(vertices), layer), order)
             for vertices in rings for layer in (None, 0.05)]
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
    named |= set(RIDGE_ORDERS)
    assert set(map(int, _gauss_table())) == named | set(range(1, 17))
    for order in sorted(map(int, _gauss_table())) + [80]:
        got, want = _leggauss(order), leggauss(order)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], order


def test_polar_degree_rule_is_exact_in_the_angle():
    # a radial bump times x^a y^b, a + b <= D, on the polar rule of degree
    # D: D + 1 angles per radius, the value of the plain pair to rounding,
    # the radial pair's error estimate
    M = ((Q(3), Q(-5, 4)), (Q(-5, 4), Q(1)))
    Mf = np.array(M, dtype=float)

    def bump(p):
        q = 1.0 - np.einsum("ni,ij,nj->n", p, Mf, p)
        inside = q > 0
        out = np.zeros(p.shape[0])
        out[inside] = np.exp(1.0 - 1.0 / q[inside])
        return out

    for degree in range(5):
        domain = Ellipse(M, degree)
        assert domain.orders == tuple((radii, degree + 1) for radii, _ in ELLIPSE_ORDERS)
        assert domain.rule(domain.orders[1]).size == 64 * (degree + 1)
        for a in range(degree + 1):
            def fn(p):
                return bump(p) * p[:, 0] ** a * p[:, 1] ** (degree - a)

            got, plain = integrate(fn, [domain]), integrate(fn, [Ellipse(M)])
            assert abs(got.value - plain.value) <= 1e-14
            assert abs(got.error - plain.error) <= 1e-14


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
        pts, wts = whole(box, order)
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
        assert sum(domain.rule(orders).size for orders in domain.orders) == nodes
    with np.testing.assert_raises(ValueError):
        Ellipse(M)
    # the volume of the ellipsoid, 4 pi / 3 / sqrt(det M), to rounding
    got = integrate(lambda p: np.ones(p.shape[0]), [Ellipse(M, 0)])
    assert abs(got.value - 4.0 * math.pi / 3.0 / math.sqrt(6.0)) <= 1e-14


def test_sum_parts_adds_exact_parts_over_one_denominator():
    rng = np.random.default_rng(61)
    for _ in range(50):
        exact = [Q(int(rng.integers(-10 ** 12, 10 ** 12)), int(rng.integers(1, 10 ** 12)))
                 for _ in range(int(rng.integers(0, 8)))] + [3, Q(0)]
        got = sum_parts(iter(exact))
        assert got.value == sum(exact, Q(0)) and type(got.value) is Q and got.error == 0.0
        # a quadrature part makes the sum a float: the exact sum's float plus
        # the sum of the quadrature values in order, their errors summed
        quad = [EvalResult(float(rng.normal()), float(rng.random())) for _ in range(3)]
        got = sum_parts(iter(exact[:2] + quad[:1] + exact[2:] + quad[1:]))
        want = float(sum(exact, Q(0))) + (quad[0].value + quad[1].value + quad[2].value)
        assert got.value == want and got.error == quad[0].error + quad[1].error + quad[2].error
