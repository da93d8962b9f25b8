import math
from fractions import Fraction as Q

import numpy as np
import pytest

from cycleval.coefficients import CoefficientFn, ball_bump
from cycleval.convex import MaxAffine
from cycleval.cycles import build_1d, eval_polyline
from cycleval.forms import Form, exterior_derivative, standard_symplectic_form, wedge
from cycleval.polyhedral import (
    WindowTooSmall,
    _affine_subs_polys,
    _integrate_poly_cell,
    build_polyhedral,
    default_window,
    disk_polygon_area,
    eval_polyhedral,
    mass_polyhedral,
    prune_dominated_pieces,
    window_for,
)
from cycleval.polynomials import Poly
from dirichlet import dirichlet_moment


def test_cells_absolute_value_1d():
    f = MaxAffine([([1], 0), ([-1], 0)])
    cyc = build_polyhedral(f)
    dims = sorted(c.dim_x for c in cyc.cells)
    assert dims == [0, 1, 1]
    vertex = next(c for c in cyc.cells if c.dim_x == 0)
    assert vertex.x_vertices == [(Q(0),)]
    assert sorted(v[0] for v in vertex.y_vertices) == [Q(-1), Q(1)]


def test_cells_linf_ball_2d():
    # max(x1, -x1, x2, -x2): 4 two-cells, 4 edge cells, 1 vertex with square P
    f = MaxAffine([([1, 0], 0), ([-1, 0], 0), ([0, 1], 0), ([0, -1], 0)])
    cyc = build_polyhedral(f)
    by_dim = {}
    for c in cyc.cells:
        by_dim.setdefault(c.dim_x, []).append(c)
    assert len(by_dim[2]) == 4
    assert len(by_dim[1]) == 4
    assert len(by_dim[0]) == 1
    square = by_dim[0][0]
    assert len(square.y_vertices) == 4
    assert square.x_vertices == [(Q(0), Q(0))]


def test_single_piece_is_shifted_zero_section():
    f = MaxAffine([([2, -1], 3)])
    beta = CoefficientFn.bump(2, ball_bump(2, 2))
    cyc = build_polyhedral(f, window=window_for(f, Form(2, 2, {(0, 1): beta}).support_box()))
    assert len(cyc.cells) == 1
    # beta(x) dx1^dx2 integrates to int beta regardless of the shift
    tau = Form(2, 2, {(0, 1): beta})
    v = eval_polyhedral(cyc, tau).value
    from cycleval.forms import integrate_zero_section

    ref = integrate_zero_section(Form(2, 2, {(0, 1): beta})).value
    assert v == pytest.approx(ref, abs=1e-7)
    # beta(x) dy1^dy2 vanishes: the fiber polytope is a point
    assert eval_polyhedral(cyc, Form(2, 2, {(2, 3): beta})).value == 0


def test_prune_dominated():
    pieces = [((Q(1), Q(0)), Q(0)), ((Q(-1), Q(0)), Q(0)),
              ((Q(0), Q(0)), Q(0))]  # flat piece touches but never wins
    kept = prune_dominated_pieces(pieces)
    assert ((Q(0), Q(0)), Q(0)) not in kept
    # a genuinely needed piece stays
    pieces2 = [((Q(1), Q(0)), Q(0)), ((Q(-1), Q(0)), Q(0)), ((Q(0), Q(1)), Q(0))]
    assert len(prune_dominated_pieces(pieces2)) == 3


def _window_vanishing_rho(n, rng):
    """Random (n-1)-form, polynomial coefficients vanishing on the box edge."""
    box = ((Q(-2), Q(2)),) * n
    nv = 2 * n
    w = Poly.const(nv, 1)
    for i in range(n):
        w = w * (Poly.const(nv, 4) - Poly.variable(nv, i) ** 2)
    from cycleval.forms import _subset_keys

    keys = _subset_keys(n, n - 1)
    terms = {}
    for _ in range(2):
        key = keys[rng.integers(len(keys))]
        e = [0] * nv
        e[rng.integers(0, 2 * n)] = int(rng.integers(0, 2))
        p = w * Poly.monomial(nv, e, Q(int(rng.integers(-3, 4)), 2))
        if not p.is_zero():
            c = CoefficientFn.from_poly(n, p, box=box)
            terms[key] = terms[key] + c if key in terms else c
    return Form(n, n - 1, terms)


@pytest.mark.parametrize("pieces", [
    [([1], 0), ([-1], 0), ([2], -1)],
    [([1, 0], 0), ([-1, 0], 0), ([0, 1], 0), ([0, -1], 0)],
    [([1, 1], 0), ([-1, 0], Q(1, 2)), ([0, -1], -1)],
])
def test_stokes_exact(pieces):
    rng = np.random.default_rng(5)
    f = MaxAffine(pieces)
    n = f.n
    for _ in range(4):
        rho = _window_vanishing_rho(n, rng)
        drho = exterior_derivative(rho)
        cyc = build_polyhedral(f, window=window_for(f, drho.support_box()))
        assert eval_polyhedral(cyc, drho).value == 0


def test_lagrangian_exact():
    f = MaxAffine([([1, 1], 0), ([-1, 0], Q(1, 2)), ([0, -1], -1)])
    box = ((Q(-3), Q(3)), (Q(-3), Q(3)))
    xi = Form.from_coefficient(2, CoefficientFn.from_poly(
        2, Poly.variable(4, 0) * Poly.variable(4, 3), box=box))
    tau = wedge(standard_symplectic_form(2), xi)
    cyc = build_polyhedral(f, window=window_for(f, tau.support_box()))
    assert eval_polyhedral(cyc, tau).value == 0


def test_defining_property_polyhedral():
    # D(f)[phi pi^*vol] = sum over regions of int phi(x, a_i) dx
    f = MaxAffine([([1], 0), ([-1], 0)])
    box = ((Q(-1), Q(1)),)
    phi = Poly.variable(2, 0) ** 2 + Poly.variable(2, 1)  # x^2 + y
    tau = Form.monomial(1, [1], [], CoefficientFn.from_poly(1, phi, box=box))
    cyc = build_polyhedral(f, window=window_for(f, box))
    got = eval_polyhedral(cyc, tau).value
    # int_{-1}^{0} (x^2 - 1) + int_0^1 (x^2 + 1) = 2/3
    assert got == Q(2, 3)


def test_cross_evaluator_1d():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        f = MaxAffine([([Q(int(rng.integers(-4, 5)), 2)], Q(int(rng.integers(-4, 5)), 2))
                       for _ in range(m)])
        box = ((Q(-6), Q(6)),)
        px = Poly(2, {(int(rng.integers(0, 3)), int(rng.integers(0, 2))): Q(3, 2)})
        py = Poly(2, {(int(rng.integers(0, 2)), int(rng.integers(0, 2))): Q(-2, 3)})
        tau = Form(1, 1, {(0,): CoefficientFn.from_poly(1, px, box=box),
                          (1,): CoefficientFn.from_poly(1, py, box=box)})
        cyc = build_polyhedral(f, window=window_for(f, tau.support_box()))
        assert eval_polyhedral(cyc, tau).value == eval_polyline(build_1d(f), tau).value


def test_vertical_boundedness():
    f = MaxAffine([([1, 1], 0), ([-1, 0], Q(1, 2)), ([0, -1], -1)])
    cyc = build_polyhedral(f)
    # every y-vertex is a gradient of f, so |y| is at most the largest |a_i|
    r = max(math.sqrt(float(sum(v * v for v in a))) for a, _ in f.pieces)
    for cell in cyc.cells:
        for y in cell.y_vertices:
            assert math.sqrt(float(sum(v * v for v in y))) <= r + 1e-12


def test_window_too_small():
    f = MaxAffine([([1], 0), ([-1], 0)])
    beta = CoefficientFn.bump(1, ball_bump(1, 5))
    tau = Form(1, 1, {(1,): beta})
    cyc = build_polyhedral(f)  # default window is [-1, 1]
    with pytest.raises(WindowTooSmall):
        eval_polyhedral(cyc, tau)


def test_disk_polygon_area():
    # big square containing the disk: full disk area
    sq = [(-3, -3), (3, -3), (3, 3), (-3, 3)]
    assert disk_polygon_area(sq, 1.0) == pytest.approx(math.pi, rel=1e-12)
    # unit square in the corner of the disk
    sq2 = [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert disk_polygon_area(sq2, 10.0) == pytest.approx(1.0, rel=1e-12)
    # quarter overlap: square [0,2]^2 with disk radius 1: quarter disk
    sq3 = [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert disk_polygon_area(sq3, 1.0) == pytest.approx(math.pi / 4, rel=1e-12)
    # Monte Carlo cross-check on a shifted triangle
    tri = [(-0.5, -0.4), (1.5, 0.2), (0.3, 1.7)]
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 2, size=(400000, 2))

    def in_tri(p):
        def cr(a, b, c):
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        s1 = cr(tri[0], tri[1], p)
        s2 = cr(tri[1], tri[2], p)
        s3 = cr(tri[2], tri[0], p)
        return (s1 >= 0) & (s2 >= 0) & (s3 >= 0)

    def cr_arr(a, b, P):
        return (b[0] - a[0]) * (P[:, 1] - a[1]) - (b[1] - a[1]) * (P[:, 0] - a[0])

    mask = (cr_arr(tri[0], tri[1], pts) >= 0) & (cr_arr(tri[1], tri[2], pts) >= 0) \
        & (cr_arr(tri[2], tri[0], pts) >= 0) & (np.linalg.norm(pts, axis=1) <= 1.0)
    mc = mask.mean() * 9.0
    assert disk_polygon_area(tri, 1.0) == pytest.approx(mc, abs=4e-3)


def test_mass_polyhedral_values():
    # |x| over U_1: horizontal length 2 plus vertical length 2
    f = MaxAffine([([1], 0), ([-1], 0)])
    cyc = build_polyhedral(f)
    assert mass_polyhedral(cyc, 1.0) == pytest.approx(4.0)
    # single affine piece in 2D: flat graph has mass pi R^2
    g = MaxAffine([([1, 2], 0)])
    cyc2 = build_polyhedral(g, window=((Q(-4), Q(4)), (Q(-4), Q(4))))
    assert mass_polyhedral(cyc2, 2.0) == pytest.approx(4 * math.pi, rel=1e-12)
    # linf ball gradient: mass over U_R includes the unit square at the vertex
    h = MaxAffine([([1, 0], 0), ([-1, 0], 0), ([0, 1], 0), ([0, -1], 0)])
    cyc3 = build_polyhedral(h)
    m = mass_polyhedral(cyc3, 1.0)
    # 4 sectors (pi/4 each) + 4 diagonal edges (length 1, P length sqrt 2)
    # + the vertex cell carrying the diamond conv{(+-1,0),(0,+-1)} of area 2
    expected = math.pi + 4 * math.sqrt(2.0) + 2.0
    assert m == pytest.approx(expected, rel=1e-9)


def test_dump_json():
    f = MaxAffine([([1], 0), ([-1], 0)])
    cyc = build_polyhedral(f)
    import json

    data = json.loads(cyc.dump_json())
    assert data["n"] == 1 and len(data["cells"]) == 3


def _reference_poly_cell(poly, n, sx, sy):
    # the composed polynomial's Fraction terms, each times two Dirichlet moments
    dx, dy = len(sx) - 1, len(sy) - 1
    composed = poly.subs(_affine_subs_polys(n, sx, sy, poly.nvars)[:poly.nvars])
    return sum((c * dirichlet_moment(e[:dx]) * dirichlet_moment(e[dx:dx + dy])
                for e, c in composed.terms.items()), Q(0))


def test_poly_cell_integrals_match_dirichlet_moments():
    rng = np.random.default_rng(53)

    def point(n):
        return tuple(Q(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(n))

    for _ in range(60):
        n = int(rng.integers(1, 3))
        dx = int(rng.integers(0, n + 1))
        sx = [point(n) for _ in range(dx + 1)]
        sy = [point(n) for _ in range(n - dx + 1)]
        terms = {tuple(int(rng.integers(0, 3)) for _ in range(2 * n)):
                 Q(int(rng.integers(-9, 10)), int(rng.integers(1, 9))) for _ in range(4)}
        poly = Poly(2 * n, terms)
        got = _integrate_poly_cell(poly, n, sx, sy)
        assert got == _reference_poly_cell(poly, n, sx, sy) and type(got) is Q


def _reference_window(f):
    # the window in Fraction arithmetic: kinks (1-D), or feet of the
    # perpendiculars and crossings of the kink lines (2-D), inflated by 1
    pts = [(Q(0),) * f.n]
    pairs = [(p, q) for i, p in enumerate(f.pieces) for q in f.pieces[i + 1:]]
    if f.n == 1:
        pts += [((b2 - b1) / (a1[0] - a2[0]),) for (a1, b1), (a2, b2) in pairs if a1 != a2]
    else:
        lines = [((a1[0] - a2[0], a1[1] - a2[1]), b2 - b1) for (a1, b1), (a2, b2) in pairs]
        pts += [(c * v[0] / (v[0] ** 2 + v[1] ** 2), c * v[1] / (v[0] ** 2 + v[1] ** 2))
                for v, c in lines]
        for i, (n1, c1) in enumerate(lines):
            for n2, c2 in lines[i + 1:]:
                det = n1[0] * n2[1] - n1[1] * n2[0]
                if det:
                    pts.append(((c1 * n2[1] - c2 * n1[1]) / det, (n1[0] * c2 - n2[0] * c1) / det))
    return tuple((min(p[k] for p in pts) - 1, max(p[k] for p in pts) + 1) for k in range(f.n))


def test_default_window_matches_fraction_routine():
    rng = np.random.default_rng(59)
    for _ in range(80):
        n = int(rng.integers(1, 3))
        pieces = [([Q(int(rng.integers(-7, 8)), int(rng.integers(1, 6))) for _ in range(n)],
                   Q(int(rng.integers(-7, 8)), int(rng.integers(1, 6))))
                  for _ in range(int(rng.integers(1, 6)))]
        f = MaxAffine(pieces)
        window = default_window(f)
        assert window == _reference_window(f)
        assert all(type(v) is Q for side in window for v in side)
