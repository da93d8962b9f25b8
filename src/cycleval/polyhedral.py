"""Exact polyhedral Lagrangian cycles of max-affine convex functions.

For f(x) = max_i (a_i . x + b_i) the graph of the subdifferential decomposes
into product cells C x P: a face C of the max-affine subdivision of x-space
paired with the polytope P = conv{a_i : i active on C}, with
dim C + dim P = n.  Cells are computed exactly over the rationals for
n <= 2, which covers the whole evaluation battery; the construction raises
for larger n.

Orientation: the subdifferential graph is parametrized by the Minty map
z -> (prox_f(z), z - prox_f(z)), which sends the cell {x + y : x in C, y in P}
onto C x P.  Transporting the standard orientation of z-space gives each
parametrized product simplex the sign of det [U | W], where U and W are the
x- and y-frames; that sign is what the evaluators use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .coefficients import BoxT
from .convex import MaxAffine, PiecewiseLinear1D
from .forms import Form
from .exactla import det, solve
from .polynomials import Poly, Q, _unpack
from .quadrature import EvalResult, SimplexProduct, integrate, sum_parts

# the largest n that build_polyhedral constructs cells for
MAX_POLYHEDRAL_DIMENSION = 2


class WindowTooSmall(ValueError):
    pass


class DegenerateConfiguration(ValueError):
    pass


# -- exact 2D polygon helpers ---------------------------------------------------


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def clip_halfplane(poly: list, a: Sequence[Fraction], c: Fraction) -> list:
    """Sutherland-Hodgman step keeping {x : a.x <= c}; exact arithmetic."""
    if not poly:
        return []
    out = []
    m = len(poly)
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        dp, dq = _dot(a, p) - c, _dot(a, q) - c
        if dp <= 0:
            out.append(p)
        if (dp < 0 < dq) or (dq < 0 < dp):
            t = dp / (dp - dq)
            out.append(tuple(pi + t * (qi - pi) for pi, qi in zip(p, q)))
    # drop consecutive duplicates
    dedup = []
    for v in out:
        if not dedup or v != dedup[-1]:
            dedup.append(v)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def polygon_area2(poly: list) -> Fraction:
    """Twice the signed area."""
    s = Q(0)
    m = len(poly)
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        s += p[0] * q[1] - p[1] * q[0]
    return s


def convex_hull(points: list) -> list:
    """Monotone chain; returns ccw hull without repeated endpoint."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
                if cross <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(list(reversed(pts)))
    return lower[:-1] + upper[:-1]


def polygon_line_chord(poly: list, a, c) -> Optional[tuple]:
    """Endpoints of (convex polygon) intersect {a.x = c}, or None."""
    hits = []
    m = len(poly)
    for i in range(m):
        p, q = poly[i], poly[(i + 1) % m]
        dp, dq = _dot(a, p) - c, _dot(a, q) - c
        if dp == 0:
            hits.append(p)
        if (dp < 0 < dq) or (dq < 0 < dp):
            t = dp / (dp - dq)
            hits.append(tuple(pi + t * (qi - pi) for pi, qi in zip(p, q)))
    if not hits:
        return None
    d = (-a[1], a[0])
    hits.sort(key=lambda v: _dot(d, v))
    lo, hi = hits[0], hits[-1]
    if lo == hi:
        return (lo, lo)
    return (lo, hi)


# -- piece pruning -----------------------------------------------------------------


def prune_dominated_pieces(pieces: list) -> list:
    """Drop pieces that never strictly exceed the maximum of the others.

    Exact Caratheodory test: piece i is dominated iff a_i is a convex
    combination of at most n+1 other gradients whose matching combination of
    offsets is >= b_i.
    """
    n = len(pieces[0][0])
    keep = []
    for i, (ai, bi) in enumerate(pieces):
        others = [p for j, p in enumerate(pieces) if j != i]
        if not _dominated(ai, bi, others, n):
            keep.append((ai, bi))
    return keep if keep else [pieces[0]]


def _dominated(ai, bi, others, n) -> bool:
    from itertools import combinations

    for r in range(1, n + 2):
        for combo in combinations(others, r):
            sol = _convex_combo(ai, [a for a, _ in combo])
            if sol is None:
                continue
            val = sum(lam * b for lam, (_, b) in zip(sol, combo))
            if val >= bi:
                return True
    return False


def _convex_combo(target, gradients) -> Optional[list]:
    """Solve sum lam_j g_j = target, sum lam_j = 1, lam >= 0 exactly."""
    rows = [[g[k] for g in gradients] for k in range(len(target))]
    rows.append([Q(1)] * len(gradients))
    lam, rank = solve(rows, list(target) + [Q(1)])
    if lam is None:
        return None  # inconsistent
    if rank < len(gradients):
        return None  # underdetermined; a smaller subset will be tried
    if any(v < 0 for v in lam):
        return None
    return lam


# -- cell structure ------------------------------------------------------------------


@dataclass
class Cell:
    """Product cell C x P with provenance.

    ``x_vertices``: vertices of C (point / segment / ccw polygon).
    ``y_vertices``: vertices of P likewise.
    ``clipped``: True when C was truncated by the window.
    """

    dim_x: int
    x_vertices: list
    y_vertices: list
    active: tuple
    clipped: bool = False

    @property
    def dim_y(self) -> int:
        return min(len(self.y_vertices) - 1, 2)


@dataclass
class PolyhedralLagrangianCycle:
    """The cells of the subdifferential graph of ``f`` inside ``window``.

    The clipping of a cell to a coefficient's support box, and the simplex
    products that the box leaves, are computed once per (cell, box) and
    kept with the cycle, for every atom and form evaluated on it.
    """

    n: int
    f: MaxAffine
    window: BoxT
    cells: list = field(default_factory=list)
    perturbed: bool = False
    _clipped: dict = field(default_factory=dict, repr=False, compare=False)
    _products: dict = field(default_factory=dict, repr=False, compare=False)

    def clipped(self, index: int, box: BoxT) -> list:
        """The vertices of the x-polytope of cell ``index`` clipped to ``box``,
        empty when nothing of it is left."""
        out = self._clipped.get((index, box))
        if out is None:
            cell = self.cells[index]
            out = self._clipped[index, box] = _clip_to_box(cell.x_vertices, cell.dim_x, box)[0]
        return out

    def simplex_products(self, index: int, box: BoxT) -> list:
        """``(U, W, sx, sy, sign)`` for each product of an x-simplex ``sx`` of
        cell ``index`` clipped to ``box`` and a y-simplex ``sy`` of the cell,
        with their frames U and W, whose frame [U | W] is nonsingular;
        ``sign`` is the product's Minty orientation, the sign of det [U | W]."""
        out = self._products.get((index, box))
        if out is None:
            cell = self.cells[index]
            ys = [(sy, _frame(sy)) for sy in _triangulate(cell.y_vertices, cell.dim_y)]
            clipped = self.clipped(index, box)
            out = []
            for sx in _triangulate(clipped, cell.dim_x) if clipped else []:
                U = _frame(sx)
                for sy, W in ys:
                    Mdet = det(U + W)
                    if Mdet != 0:
                        out.append((U, W, sx, sy, 1 if Mdet > 0 else -1))
            self._products[index, box] = out
        return out

    def dump(self) -> dict:
        return {
            "n": self.n,
            "window": [[str(lo), str(hi)] for lo, hi in self.window],
            "perturbed": self.perturbed,
            "pieces": [[[str(v) for v in a], str(b)] for a, b in self.f.pieces],
            "cells": [
                {
                    "dim_x": c.dim_x,
                    "x_vertices": [[str(v) for v in p] for p in c.x_vertices],
                    "y_vertices": [[str(v) for v in p] for p in c.y_vertices],
                    "active": list(c.active),
                    "clipped": c.clipped,
                    "orientation": cell_orientation(c),
                }
                for c in self.cells
            ],
        }

    def dump_json(self) -> str:
        return json.dumps(self.dump(), indent=2, sort_keys=True)


def default_window(f: MaxAffine) -> BoxT:
    """Box containing the subdivision's vertex structure, inflated by 1.  On
    the pieces scaled to integers, each point is an integer vector over an
    integer denominator; bounds are compared by cross-multiplication."""
    n = f.n
    L = math.lcm(*(q.denominator for a, b in f.pieces for q in (*a, b)))
    pieces = [[q.numerator * (L // q.denominator) for q in (*a, b)] for a, b in f.pieces]
    pts = []  # (numerators, denominator) of each point but the origin
    if n == 1:
        for (a1, b1), (a2, b2) in _pairs(pieces):
            if a1 != a2:
                pts.append(((b2 - b1,), a1 - a2))
    else:
        lines = []
        for (u1, v1, b1), (u2, v2, b2) in _pairs(pieces):
            nvec, c = (u1 - u2, v1 - v2), b2 - b1
            if nvec == (0, 0):
                continue
            lines.append((nvec, c))
            # foot of the perpendicular from the origin
            pts.append(((c * nvec[0], c * nvec[1]), nvec[0] ** 2 + nvec[1] ** 2))
        for (n1, c1), (n2, c2) in _pairs(lines):
            det = n1[0] * n2[1] - n1[1] * n2[0]
            if det != 0:
                pts.append(((c1 * n2[1] - c2 * n1[1], n1[0] * c2 - n2[0] * c1), det))
    box = []
    for k in range(n):
        lo = hi = (0, 1)  # the origin
        for v, q in pts:
            p, q = (v[k], q) if q > 0 else (-v[k], -q)
            if p * lo[1] < lo[0] * q:
                lo = (p, q)
            if p * hi[1] > hi[0] * q:
                hi = (p, q)
        box.append((Q(lo[0] - lo[1], lo[1]), Q(hi[0] + hi[1], hi[1])))
    return tuple(box)


def _pairs(seq):
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            yield seq[i], seq[j]


def window_for(f: MaxAffine, support: Optional[BoxT]) -> BoxT:
    """Window covering both the kink structure of f and a form's support."""
    base = default_window(f)
    if support is None:
        return base
    return tuple((min(bl, sl), max(bh, sh))
                 for (bl, bh), (sl, sh) in zip(base, support))


def build_polyhedral(f: MaxAffine, window: Optional[BoxT] = None,
                     _perturbed: bool = False) -> PolyhedralLagrangianCycle:
    """Enumerate the cells of the subdifferential graph inside a window."""
    if f.n == 1:
        return _build_1d_cells(f, window, _perturbed)
    if f.n == 2:
        try:
            return _build_2d_cells(f, window, _perturbed)
        except DegenerateConfiguration:
            if _perturbed:
                raise
            g = MaxAffine([(a, b + Q(ix + 1, 10 ** 9)) for ix, (a, b) in enumerate(f.pieces)],
                          prune=True)
            return build_polyhedral(g, window, _perturbed=True)
    raise NotImplementedError(
        f"polyhedral construction is implemented for n <= {MAX_POLYHEDRAL_DIMENSION}; "
        "smooth approximation covers higher dimensions")


def _build_1d_cells(f: MaxAffine, window, perturbed) -> PolyhedralLagrangianCycle:
    pwl = PiecewiseLinear1D.from_max_affine(f)
    window = window or default_window(f)
    lo, hi = window[0]
    slope_to_piece = {a[0]: idx for idx, (a, b) in enumerate(f.pieces)}
    cells = []
    cuts = [b for b in pwl.breaks if lo < b < hi]
    if any(not lo < b < hi for b in pwl.breaks):
        raise WindowTooSmall("window misses part of the kink structure")
    xs = [lo] + cuts + [hi]
    for i, s in enumerate(pwl.slopes):
        seg = (xs[i],), (xs[i + 1],)
        cells.append(Cell(1, [seg[0], seg[1]], [(s,)],
                          active=(slope_to_piece[s],),
                          clipped=(i == 0 or i == len(pwl.slopes) - 1)))
    for b, sl, sr in pwl.kinks():
        cells.append(Cell(0, [(b,)], [(sl,), (sr,)],
                          active=(slope_to_piece[sl], slope_to_piece[sr])))
    return PolyhedralLagrangianCycle(1, f, window, cells, perturbed)


def _build_2d_cells(f: MaxAffine, window, perturbed) -> PolyhedralLagrangianCycle:
    n = 2
    window = window or default_window(f)
    (x0, x1), (y0, y1) = window
    wpoly = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    pieces = f.pieces
    m = len(pieces)

    regions = []
    for i, (ai, bi) in enumerate(pieces):
        poly = wpoly
        for j, (aj, bj) in enumerate(pieces):
            if j == i:
                continue
            nvec = (aj[0] - ai[0], aj[1] - ai[1])
            poly = clip_halfplane(poly, nvec, bi - bj)
            if not poly:
                break
        if len(poly) >= 3 and polygon_area2(poly) > 0:
            regions.append((i, poly))
        else:
            raise WindowTooSmall(f"piece {i} is never active inside the window")

    cells = [Cell(2, poly, [pieces[i][0]], active=(i,), clipped=True)
             for i, poly in regions]

    # edges: pairs of regions meeting along the equality line
    region_by_piece = dict(regions)
    edges = []
    for i, j in _pairs(range(m)):
        if i not in region_by_piece or j not in region_by_piece:
            continue
        ai, bi = pieces[i]
        aj, bj = pieces[j]
        nvec = (aj[0] - ai[0], aj[1] - ai[1])
        c = bi - bj
        ch1 = polygon_line_chord(region_by_piece[i], nvec, c)
        ch2 = polygon_line_chord(region_by_piece[j], nvec, c)
        if ch1 is None or ch2 is None:
            continue
        d = (-nvec[1], nvec[0])
        lo = max(_dot(d, ch1[0]), _dot(d, ch2[0]))
        hi = min(_dot(d, ch1[1]), _dot(d, ch2[1]))
        if hi <= lo:
            continue
        p_lo = _point_on_line(nvec, c, d, lo)
        p_hi = _point_on_line(nvec, c, d, hi)
        mid = tuple((u + v) / 2 for u, v in zip(p_lo, p_hi))
        act = _active_set(pieces, mid)
        if len(act) != 2:
            raise DegenerateConfiguration(
                f"{len(act)} pieces active along an edge; offsets will be perturbed")
        # Lagrangian pairing: the edge direction is orthogonal to a_j - a_i
        assert _dot((p_hi[0] - p_lo[0], p_hi[1] - p_lo[1]), nvec) == 0
        edges.append(Cell(1, [p_lo, p_hi], [pieces[i][0], pieces[j][0]],
                          active=(i, j),
                          clipped=_on_window_boundary(p_lo, window)
                          or _on_window_boundary(p_hi, window)))
    cells.extend(edges)

    # vertices: interior endpoints of edges
    vert_pts = {}
    for e in edges:
        for p in e.x_vertices:
            if not _on_window_boundary(p, window):
                vert_pts[p] = True
    for p in vert_pts:
        act = _active_set(pieces, p)
        if len(act) < 3:
            continue  # collinear contact of two regions, not a vertex of the fan
        hull = convex_hull([pieces[i][0] for i in act])
        if len(hull) < 3:
            raise DegenerateConfiguration(
                "active gradients at a vertex are collinear; offsets will be perturbed")
        cells.append(Cell(0, [p], hull, active=tuple(act)))
    return PolyhedralLagrangianCycle(2, f, window, cells, perturbed)


def _point_on_line(nvec, c, d, param):
    # solve nvec.x = c, d.x = param  (d orthogonal to nvec)
    det = nvec[0] * d[1] - nvec[1] * d[0]
    x = (c * d[1] - param * nvec[1]) / det
    y = (nvec[0] * param - d[0] * c) / det
    return (x, y)


def _active_set(pieces, x) -> list:
    vals = [_dot(a, x) + b for a, b in pieces]
    top = max(vals)
    return [i for i, v in enumerate(vals) if v == top]


def _on_window_boundary(p, window) -> bool:
    return any(p[k] == lo or p[k] == hi for k, (lo, hi) in enumerate(window))


# -- triangulation ---------------------------------------------------------------------


def _triangulate(vertices: list, dim: int) -> list:
    """Split a point/segment/convex polygon into simplices (pulling fan)."""
    if dim == 0:
        return [(vertices[0],)]
    if dim == 1:
        return [(vertices[0], vertices[1])]
    base = min(vertices)
    k = vertices.index(base)
    ring = vertices[k:] + vertices[:k]
    return [(ring[0], ring[i], ring[i + 1]) for i in range(1, len(ring) - 1)]


def _clip_to_box(vertices: list, dim: int, box: BoxT) -> tuple[list, int]:
    """Clip a cell's x-polytope to a coefficient window."""
    n = len(vertices[0])
    if dim == 0:
        p = vertices[0]
        inside = all(lo <= p[k] <= hi for k, (lo, hi) in enumerate(box[:n]))
        return ([p] if inside else [], 0)
    if dim == 1:
        p, q = vertices
        t0, t1 = Q(0), Q(1)
        for k, (lo, hi) in enumerate(box[:n]):
            dpq = q[k] - p[k]
            if dpq == 0:
                if not lo <= p[k] <= hi:
                    return ([], 1)
                continue
            ta = (lo - p[k]) / dpq
            tb = (hi - p[k]) / dpq
            if ta > tb:
                ta, tb = tb, ta
            t0, t1 = max(t0, ta), min(t1, tb)
        if t1 <= t0:
            return ([], 1)
        pt = lambda t: tuple(pi + t * (qi - pi) for pi, qi in zip(p, q))
        return ([pt(t0), pt(t1)], 1)
    poly = vertices
    for k, (lo, hi) in enumerate(box[:n]):
        e = [Q(0)] * n
        e[k] = Q(1)
        poly = clip_halfplane(poly, tuple(e), hi)
        e[k] = Q(-1)
        poly = clip_halfplane(poly, tuple(e), -lo)
        if not poly:
            return ([], 2)
    if len(poly) < 3 or polygon_area2(poly) <= 0:
        return ([], 2)
    return (poly, 2)


# -- evaluation ---------------------------------------------------------------------------


def _frame(simplex) -> list:
    v0 = simplex[0]
    return [tuple(v[k] - v0[k] for k in range(len(v0))) for v in simplex[1:]]


def cell_orientation(cell: Cell) -> int:
    """Minty sign of the cell's first simplex product, for inspection."""
    sx = _triangulate(cell.x_vertices, cell.dim_x)[0]
    sy = _triangulate(cell.y_vertices, cell.dim_y)[0]
    d = det(_frame(sx) + _frame(sy))
    return 0 if d == 0 else (1 if d > 0 else -1)


def _submatrix_det(frame, rows) -> Fraction:
    """Determinant of the frame vectors restricted to the coordinates ``rows``."""
    return det([[v[r] for r in rows] for v in frame])


def eval_polyhedral(cycle: PolyhedralLagrangianCycle, form: Form) -> EvalResult:
    """Integrate an n-form over the cycle.

    Polynomial atoms with declared windows integrate exactly over simplex
    products (Dirichlet formula); bump atoms by quadrature on each simplex
    product (a :class:`~cycleval.quadrature.SimplexProduct` domain) with its
    refinement error estimate.  The value is a Fraction when every atom is
    exact.
    """
    n = cycle.n
    if form.n != n or form.degree != n:
        raise ValueError("form degree/dimension mismatch")
    support = form.check_evaluable()
    for k, ((slo, shi), (wlo, whi)) in enumerate(zip(support, cycle.window)):
        if slo < wlo or shi > whi:
            raise WindowTooSmall(
                f"form support exceeds the cycle window along x_{k + 1}")
    return sum_parts(_polyhedral_parts(cycle, form))


def _polyhedral_parts(cycle: PolyhedralLagrangianCycle, form: Form):
    """Integral of each atom over each simplex product of each cell."""
    n = cycle.n
    for key, coeff in form.terms.items():
        I = [v for v in key if v < n]
        J = [v - n for v in key if v >= n]
        cells = [i for i, cell in enumerate(cycle.cells)
                 if cell.dim_x == len(I) and cell.dim_y == len(J)]
        for atom, box in coeff.atom_supports():
            poly = atom.atoms.get(())
            for index in cells:
                for U, W, sx, sy, sign in cycle.simplex_products(index, box):
                    scale = sign * _submatrix_det(U, I) * _submatrix_det(W, J)
                    if scale == 0:
                        continue
                    if poly is not None:
                        yield scale * _integrate_poly_cell(poly, n, sx, sy)
                    else:
                        res = integrate(atom.eval_array, [SimplexProduct(sx, sy)])
                        yield EvalResult(float(scale) * res.value,
                                         abs(float(scale)) * res.error)


def _affine_subs_polys(n: int, sx, sy, nvars: int) -> list:
    """Substitutions x(s), y(t) into a ring with s in slots 0..dx-1, t after."""
    dx = len(sx) - 1
    dy = len(sy) - 1
    nv = max(dx + dy, 1)
    repl = []
    for k in range(n):
        p = Poly.const(nv, sx[0][k])
        for a in range(dx):
            p = p + Poly.variable(nv, a).scale(sx[a + 1][k] - sx[0][k])
        repl.append(p)
    for k in range(n):
        p = Poly.const(nv, sy[0][k])
        for b in range(dy):
            p = p + Poly.variable(nv, dx + b).scale(sy[b + 1][k] - sy[0][k])
        repl.append(p)
    repl += [Poly.zero(nv)] * (nvars - 2 * n)
    return repl


def _integrate_poly_cell(poly: Poly, n: int, sx, sy) -> Fraction:
    """Integral of ``poly`` over the simplex product sx x sy.  In the
    simplex coordinates s and t, the moment of s^g over the standard
    dx-simplex is prod g_i! / (dx + |g|)! (the Dirichlet integral), so every
    term is an integer over ``den (dx + top_s)! (dy + top_t)!``, with top_s
    and top_t the largest degrees in s and t."""
    dx = len(sx) - 1
    dy = len(sy) - 1
    repl = _affine_subs_polys(n, sx, sy, poly.nvars)
    composed = poly.subs(repl[:poly.nvars])
    fact = math.factorial
    terms = []
    for key, c in composed.num.items():
        e = _unpack(key, dx + dy)
        terms.append((c * math.prod(map(fact, e)), dx + sum(e[:dx]), dy + sum(e[dx:])))
    fs = fact(max((a for _, a, _ in terms), default=0))
    ft = fact(max((b for _, _, b in terms), default=0))
    total = sum(c * (fs // fact(a)) * (ft // fact(b)) for c, a, b in terms)
    return Q(total, composed.den * fs * ft)


# -- mass ----------------------------------------------------------------------------------


def mass_polyhedral(cycle: PolyhedralLagrangianCycle, R: float) -> float:
    """Mass of the cycle over pi^{-1}(ball of radius R): sum of cell volumes."""
    total = 0.0
    for cell in cycle.cells:
        xs = [[float(v) for v in p] for p in cell.x_vertices]
        ys = [[float(v) for v in p] for p in cell.y_vertices]
        if cycle.n == 1:
            if cell.dim_x == 1:
                lo, hi = sorted([xs[0][0], xs[1][0]])
                total += max(0.0, min(hi, R) - max(lo, -R))
            else:
                if abs(xs[0][0]) <= R:
                    total += abs(ys[1][0] - ys[0][0])
            continue
        if cell.dim_x == 2:
            total += disk_polygon_area(xs, R)
        elif cell.dim_x == 1:
            total += segment_disk_length(xs[0], xs[1], R) * _dist(ys[0], ys[1])
        else:
            if math.hypot(*xs[0]) <= R and len(ys) >= 3:
                s = 0.0
                for i in range(len(ys)):
                    p, q = ys[i], ys[(i + 1) % len(ys)]
                    s += p[0] * q[1] - p[1] * q[0]
                total += abs(s) / 2.0
    return total


def _dist(p, q):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def segment_disk_length(p, q, R) -> float:
    """Length of a segment inside the disk |x| <= R."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = q - p
    a = d @ d
    if a == 0:
        return 0.0
    b = 2 * p @ d
    c = p @ p - R * R
    disc = b * b - 4 * a * c
    if disc <= 0:
        return 0.0
    s = math.sqrt(disc)
    t0 = max(0.0, (-b - s) / (2 * a))
    t1 = min(1.0, (-b + s) / (2 * a))
    return max(0.0, (t1 - t0)) * math.sqrt(a)


def disk_polygon_area(poly, R) -> float:
    """Area of (convex polygon) intersect (disk of radius R at the origin)."""
    total = 0.0
    m = len(poly)
    for i in range(m):
        total += _edge_disk_contrib(np.asarray(poly[i], dtype=float),
                                    np.asarray(poly[(i + 1) % m], dtype=float), R)
    return abs(total)


def _edge_disk_contrib(A, B, R) -> float:
    """Signed contribution of triangle (O, A, B) clipped to the disk."""

    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    def sector(u, v):
        ang = math.atan2(cross(u, v), float(u @ v))
        return 0.5 * R * R * ang

    inA = A @ A <= R * R + 1e-15
    inB = B @ B <= R * R + 1e-15
    if inA and inB:
        return 0.5 * cross(A, B)
    # intersections of segment AB with the circle
    d = B - A
    a = d @ d
    b = 2 * A @ d
    c = A @ A - R * R
    disc = b * b - 4 * a * c
    ts = []
    if disc > 0 and a > 0:
        s = math.sqrt(disc)
        for t in ((-b - s) / (2 * a), (-b + s) / (2 * a)):
            if 1e-12 < t < 1 - 1e-12:
                ts.append(t)
    pts = [A + t * d for t in sorted(ts)]
    if inA and not inB:
        C = pts[0] if pts else B
        return 0.5 * cross(A, C) + sector(C, B)
    if not inA and inB:
        C = pts[-1] if pts else A
        return sector(A, C) + 0.5 * cross(C, B)
    if len(pts) == 2:
        C, D = pts
        return sector(A, C) + 0.5 * cross(C, D) + sector(D, B)
    return sector(A, B)
