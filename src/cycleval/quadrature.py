"""Every numeric integral of the workbench, and the one result type of every
integral: exact where the atoms allow it, quadrature with an error estimate
elsewhere.

``integrate(fn, domains)`` integrates over a list of support domains.  Each
domain kind owns its rule and its pass pair, the coarse and the fine order:

* a box, a plain sequence of (lo, hi): tensor Gauss-Legendre at ``ORDERS``;
* a :class:`PolynomialBox`, a box whose integrand is a polynomial of known
  degree: tensor Gauss-Legendre at the pass pair that integrates it exactly;
* an :class:`Ellipse`, the support {x^T M x < 1} of a bump at n = 2 or 3:
  in 2-D a polar rule at ``ELLIPSE_ORDERS``; an ellipse of known
  ``degree``, whose integrand is a radial bump factor times a polynomial of
  that degree, keeps the radii of that pair and takes degree + 1 angles in
  2-D, and in 3-D a Gauss product rule on the sphere, both exact in the
  angles; a 3-D ellipse needs its degree;
* a :class:`GradedSimplex`, a segment or triangle of the ridge-aligned
  evaluator, at ``RIDGE_ORDERS``, and a :class:`SimplexProduct`, a piece
  of a polyhedral cell, at ``CELL_ORDERS``: both on the one collapsed
  Gauss-Legendre rule of segments and triangles, ``_simplex_rule``.

A pass gathers the nodes of consecutive domains until they reach
``_NODE_BLOCK``, cuts them into blocks of ``_NODE_BLOCK`` nodes and adds
the sums of the blocks in order: an integrand never sees more than one
block, so the arrays it builds are bounded by the block, and a domain of at
most one block is one call.  No rule is built whole: each block is made
from the memoised 1-D factors of its rules (Gauss nodes and weights, angle
tables, the ellipse map) by the elementwise products of the whole rule, so
its nodes keep their bits, and no node array holds more than a block and
two rows of its grid.  Several integrands on the same domains are handed
each block in turn, so a battery of functions makes each block once.  The
fine pass gives the value, its distance from the coarse pass the error
estimate (``two_pass``).  A lone box, plain or polynomial, of one
integrand goes through ``integrate_box``, the entry of every such box
integral.

Every Gauss-Legendre rule comes from ``gl_interval``, which reads the orders
the rules name from a table shipped with the package, ``gauss_legendre.json``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

Box = Sequence[tuple]  # [(lo, hi)] per axis, rational or float bounds


@dataclass
class EvalResult:
    """An integral: a Fraction when exact, else a float with its error estimate."""

    value: float | Fraction
    error: float = 0.0

    def __float__(self):
        return float(self.value)


def sum_parts(parts: Iterable[Fraction | EvalResult]) -> EvalResult:
    """Sum of exact parts (Fractions) and quadrature parts (EvalResults).

    A Fraction while every part is exact; otherwise the float of the exact
    sum plus the quadrature values in order, with their errors summed.  The
    exact parts are added as integers over their least common denominator,
    reduced once.
    """
    exact = []
    total = 0.0
    err = 0.0
    inexact = False
    for part in parts:
        if isinstance(part, EvalResult):
            total += part.value
            err += part.error
            inexact = True
        else:
            exact.append(part)
    den = math.lcm(*[q.denominator for q in exact])
    exact = Fraction(sum(q.numerator * (den // q.denominator) for q in exact), den)
    return EvalResult(float(exact) + total if inexact else exact, err)


# Plain box rules serve every box integrand not known to be a polynomial:
# window forms (polynomial coefficients on a declared box) on functions
# whose gradient is not a polynomial, integrands that mix bumps or windows,
# and the other bump integrands in 1-D and 3-D.  A window form on a
# function with a polynomial gradient integrates a polynomial, on a
# PolynomialBox, and a one-matrix bump form on such a function a radial bump
# factor times a polynomial, on an Ellipse of that degree, in 3-D too.  A
# bump is smooth but not analytic at its support sphere, and tensor
# Gauss-Legendre converges subgeometrically on it.  These per-axis orders
# were calibrated so that box integrals of the catalog bumps carry absolute
# errors ~1e-10 (dim <= 2) / ~1e-7 (dim 3), which the bundled tolerances
# rely on.  In 1-D the bounding box is the support interval itself, so a
# support-adapted rule would need as many nodes (128-192 for 1e-14).
ORDERS = {1: (128, 192), 2: (128, 160), 3: (32, 48), 4: (16, 24)}

# (radii, angles) of the coarse and the fine pass of the ellipse rule.  The
# radial Gauss-Legendre rule ends on the support circle, where the bump is
# flat to all orders, and in the angle the integrand is smooth and periodic,
# where the trapezoidal rule converges geometrically (Trefethen & Weideman,
# SIAM Review 56, 2014).  Calibrated on the 676 ellipse integrands (256 of
# them kernel forms) of the suites of the benchmark's kernel-battery and
# cli-breadth configs at seeds 7 + 100003 i, i < 8, against a 160 x 256
# polar reference; errors relative to max(1, |value|):
#
#   rule                          nodes    max error   max estimate
#   tensor box pair 128^2/160^2   41,984   5.5e-6      6.0e-5
#     (kernel forms only)                  2.6e-8      1.3e-6
#   polar 64x128 / 56x112         14,464   3.6e-9      6.2e-8
#   polar 64x128 / 48x96          12,800   -           1.4e-6
#   polar 64x64 fine pass         -        1.1e-3      -
#   polar 80x160 fine pass        -        5.4e-11     -
#
# Fewer than 128 angles do not resolve the angular content of the kernel
# forms; a coarser pass than 56 x 112 inflates the estimate.  The pair
# serves the ellipse integrands of unknown angular degree: graph pullbacks on
# functions whose gradient is not a polynomial (body restrictions, sqrt1p),
# the Hessian valuations, the first-variation checks and both sides of the
# conormal bridge.  A pullback on a function with a polynomial gradient, and
# a 2-D bump atom of the zero section, is the bump's radial factor times a
# polynomial of degree D in x, a trigonometric polynomial of degree D in the
# angle: its Ellipse of that degree keeps these radii and takes D + 1
# angles, which the 112 and 128 angles above also integrate exactly, so the
# two rules differ by rounding.  In 3-D the Ellipse of degree D keeps these
# radii, with weight r^2 dr, on a Gauss product rule on the sphere (Stroud,
# Approximate Calculation of Multiple Integrals, 1971): ceil((D + 1) / 2)
# Gauss-Legendre nodes in cos(theta), exact to degree D, times D + 1 equally
# spaced azimuths, 240 nodes over both passes at D = 1 against the 143,360
# of the 32^3 / 48^3 box pair.
ELLIPSE_ORDERS = ((56, 112), (64, 128))

# Per-axis Gauss-Legendre orders of the polyhedral cell quadrature and its
# refinement.
CELL_ORDERS = (64, 88)

# Per-axis orders of the graded segments and triangles of the ridge-aligned
# route, each order on every piece of the grading.  Measured on the suites'
# ridge-aligned integrals, this pair keeps the error within
# 3.7e-6 max(1, |value|), where 16 / 24 reaches 1.4e-3.
RIDGE_ORDERS = (32, 44)

# Nodes per block: a pass gathers consecutive domains until they hold this
# many nodes and cuts them into blocks of this size, each made from its
# pieces of the domains' rules alone and handed to every integrand before
# the next is made, the one block loop of every integral.  It keeps the
# call count low and bounds the node arrays and the integrands' arrays,
# the live rows of a monomial table above all, and so peak memory.
_NODE_BLOCK = 4096


# The Gauss-Legendre rules of the orders named above and of orders 1-16 for
# the degree rules, as numpy's leggauss gives them: the nonnegative half of
# each symmetric rule, nodes ascending then weights, as float.hex strings.
# Reading a row spares each process an eigenvalue problem per order, and its
# bits do not depend on the LAPACK at hand; other orders fall back to
# leggauss.
_GAUSS_TABLE = Path(__file__).with_name("gauss_legendre.json")


@lru_cache(maxsize=1)
def _gauss_table() -> dict:
    return json.loads(_GAUSS_TABLE.read_text())


@lru_cache(maxsize=64)
def _leggauss(order: int):
    half = _gauss_table().get(str(order))
    if half is None:
        from numpy.polynomial.legendre import leggauss

        return leggauss(order)
    x, w = (np.array([float.fromhex(v) for v in col]) for col in half)
    k = order // 2  # the mirrored nodes, without a middle one at 0
    return np.concatenate([-x[::-1][:k], x]), np.concatenate([w[::-1][:k], w])


def gl_interval(lo: float, hi: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``order`` on [lo, hi]."""
    x, w = _leggauss(order)
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * x, half * w


def _gl_pieces(cuts, order: int):
    """Gauss-Legendre nodes and weights of ``order`` on each piece of ``cuts``."""
    pieces = [gl_interval(lo, hi, order) for lo, hi in zip(cuts, cuts[1:])]
    return (np.concatenate([p for p, _ in pieces]),
            np.concatenate([w for _, w in pieces]))


def _graded_cuts(width: float) -> list:
    """Partition of [0, 1] isolating boundary layers of relative width w."""
    w = min(max(width, 1e-12), 1.0 / 3.0)
    return [0.0, w, 1.0 - w, 1.0]


class _Rule:
    """The nodes and weights of one rule, made on demand: its nodes are a
    C-order grid of the given ``shape`` over 1-D factors, and ``make`` makes
    the nodes (..., d) and weights (...) of a broadcast grid of indices, one
    index per axis (an array, or a slice with new axes), elementwise from
    the factors.  So any block of the rule is made alone, with the bits it
    has in the whole rule."""

    __slots__ = ("shape", "make", "size")

    def __init__(self, shape: tuple, make):
        self.shape, self.make = shape, make
        self.size = math.prod(shape)

    def block(self, start: int, stop: int) -> tuple:
        """Nodes (N, d) and weights of nodes ``start`` to ``stop`` - 1, cut
        from the rows of the grid that hold them (rows along its last axis,
        so at most two rows beyond the block are made)."""
        if len(self.shape) == 1:
            return self.make(slice(start, stop))
        last = self.shape[-1]
        first, end = start // last, -(-stop // last)
        if len(self.shape) == 2:
            rows = [(slice(first, end), None)]
        else:
            rows = [i[:, None] for i in np.unravel_index(np.arange(first, end), self.shape[:-1])]
        pts, wts = self.make(*rows, (None, slice(None)))
        cut = slice(start - first * last, stop - first * last)
        return pts.reshape(-1, pts.shape[-1])[cut], wts.reshape(-1)[cut]


def _whole(pts: np.ndarray, wts: np.ndarray) -> _Rule:
    return _Rule((len(wts),), lambda i: (pts[i], wts[i]))


def _simplex_rule(vertices, order: int, layer: float | None = None) -> _Rule:
    """The collapsed Gauss-Legendre rule on a point, a segment on the line
    or a triangle in the plane, given by its float vertices, nodes (N, d);
    no node for a triangle of zero area.  A triangle is collapsed onto v0
    (Duffy): P(u, r) = v0 + r (v1 + u (v2 - v1) - v0), |Jacobian| =
    2 area r, node (i, j) on the grid of u_i and r_j.  Each 1-D rule has
    ``order`` nodes, on each piece of a grading that isolates boundary
    layers of width ``layer`` at both ends of the segment or the edge v1 v2,
    and along that edge."""
    if len(vertices) == 1:
        return _whole(np.array(vertices, dtype=float), np.ones(1))
    if len(vertices) == 2:
        (a,), (b,) = vertices
        length = b - a
        cuts = [0.0, 1.0] if layer is None else _graded_cuts(layer / max(length, 1e-12))
        pts, wts = _gl_pieces([a + t * length for t in cuts], order)
        return _whole(pts[:, None], wts)
    v0, v1, v2 = (np.asarray(v, dtype=float) for v in vertices)
    e = v2 - v1
    area2 = abs((v1 - v0)[0] * (v2 - v0)[1] - (v1 - v0)[1] * (v2 - v0)[0])
    if area2 == 0.0:
        return _whole(np.empty((0, 2)), np.empty(0))
    if layer is None:
        ucuts = rcuts = [0.0, 1.0]
    else:
        elen = float(np.linalg.norm(e))
        h = area2 / elen  # distance from v0 to the edge line
        ucuts = _graded_cuts(layer / elen)
        rcuts = [0.0, 1.0 - min(max(layer / h, 1e-12), 1.0 / 3.0), 1.0]
    up, uw = _gl_pieces(ucuts, order)
    rp, rw = _gl_pieces(rcuts, order)
    # node (i, j): E = v1 + u_i e on the edge, P = v0 + r_j (E - v0), per
    # coordinate
    edge = [v1[k] + up * e[k] - v0[k] for k in range(2)]

    def make(i, j):
        r = rp[j]
        wts = uw[i] * rw[j] * r * area2
        pts = np.empty(wts.shape + (2,))
        for k in range(2):
            pts[..., k] = v0[k] + r * edge[k][i]
        return pts, wts

    return _Rule((len(up), len(rp)), make)


def _box_rule(bounds, order) -> _Rule:
    """The tensor Gauss-Legendre rule of ``order`` on a box of float bounds."""
    axes = [gl_interval(lo, hi, order) for lo, hi in bounds]

    def make(*idx):
        wts = reduce(np.multiply, [w[i] for (_, w), i in zip(axes, idx)])
        pts = np.empty(wts.shape + (len(axes),))
        for k, ((axis, _), i) in enumerate(zip(axes, idx)):
            pts[..., k] = axis[i]
        return pts, wts

    return _Rule(tuple(len(w) for _, w in axes), make)


# The rules of the suites' support domains repeat from integral to integral,
# for every function of a battery: a few dozen (domain, order) pairs per run.
# A rule of at most one block is kept whole, any other as its 1-D factors,
# so no node set of more than one block is ever kept.  The blocks of a
# whole rule are views of its arrays, which every integral shares: they are
# read-only.
@lru_cache(maxsize=128)
def _kept(build, key, order) -> _Rule:
    rule = build(key, order)
    if rule.size > _NODE_BLOCK:
        return rule
    pts, wts = rule.block(0, rule.size)
    pts.flags.writeable = wts.flags.writeable = False
    return _whole(pts, wts)


def _ellipse_map(M) -> tuple:
    """``(T, 1 / det L)`` for the float Cholesky factor M = L L^T of a 2 x 2
    or 3 x 3 matrix, in closed form: T = L^-T is upper triangular, row i
    given from its diagonal on, and the map x = T u carries the unit disk or
    ball onto {x^T M x < 1}."""
    if len(M) == 2:
        (p, q), (_, r) = (map(float, row) for row in M)
        l00 = math.sqrt(p)
        l10 = q / l00
        l11 = math.sqrt(r - l10 * l10)
        return ((1.0 / l00, -l10 / (l00 * l11)), (1.0 / l11,)), 1.0 / (l00 * l11)
    (p, q, s), (_, r, t), (_, _, w) = (map(float, row) for row in M)
    l00 = math.sqrt(p)
    l10, l20 = q / l00, s / l00
    l11 = math.sqrt(r - l10 * l10)
    l21 = (t - l20 * l10) / l11
    l22 = math.sqrt(w - l20 * l20 - l21 * l21)
    return (((1.0 / l00, -l10 / (l00 * l11), (l10 * l21 - l11 * l20) / (l00 * l11 * l22)),
             (1.0 / l11, -l21 / (l11 * l22)), (1.0 / l22,)), 1.0 / (l00 * l11 * l22))


def _float_rows(M) -> tuple:
    return tuple(tuple(map(float, row)) for row in M)


def _ellipse_rule(M, orders) -> _Rule:
    """The polar rule of ``orders`` = (radii, angles) on the ellipse
    {x^T M x < 1} in 2-D, Gauss-Legendre radii on [0, 1] times equally
    spaced angles, or the spherical rule of ``orders`` = (radii, polar nodes,
    azimuths) on the ellipsoid M in 3-D: radii, then cos(theta), then
    azimuth, on the unit disk or ball, mapped by L^-T (``_ellipse_map``)
    elementwise."""
    r, wr = gl_interval(0.0, 1.0, orders[0])
    order_t = orders[-1]
    phi = 2.0 * np.pi * (np.arange(order_t) + 0.5) / order_t
    cos, sin = np.cos(phi), np.sin(phi)
    azimuth = np.full(order_t, 2.0 * np.pi / order_t)
    if len(orders) == 2:
        shape, wr = (len(r), order_t), wr * r

        def ball(i, j):
            return [r[i] * cos[j], r[i] * sin[j]], wr[i] * azimuth[j]
    else:
        z, wz = gl_interval(-1.0, 1.0, orders[1])
        rho = np.sqrt(1.0 - z * z)
        shape, wr = (len(r), len(z), order_t), wr * r * r

        def ball(i, k, j):
            ri = r[i]
            return ([ri * (rho[k] * cos[j]), ri * (rho[k] * sin[j]), ri * z[k]],
                    wr[i] * (wz[k] * azimuth[j]))
    rows, jac = _ellipse_map(M)

    def make(*idx):
        u, wts = ball(*idx)
        pts = np.empty(wts.shape + (len(rows),))
        for i, row in enumerate(rows):
            xi = row[0] * u[i]
            for j in range(1, len(row)):
                xi = xi + row[j] * u[i + j]
            pts[..., i] = xi
        return pts, wts * jac

    return _Rule(shape, make)


@dataclass(frozen=True)
class PolynomialBox:
    """A box, (lo, hi) per axis, whose integrand is a polynomial of total
    degree at most ``degree``.  Its pass pair (m, m + 1), m = degree // 2 + 1,
    integrates such a polynomial exactly, as 2m - 1 >= degree (Davis &
    Rabinowitz, Methods of Numerical Integration, 2.7), so the error
    estimate is rounding.  :meth:`of` keeps the float bounds and the
    largest degree of the pass pair, so degrees of one pass pair give one
    domain."""

    box: tuple
    degree: int

    @classmethod
    def of(cls, box: Box, degree: int) -> "PolynomialBox":
        return cls(tuple((float(lo), float(hi)) for lo, hi in box), 2 * (degree // 2) + 1)

    @property
    def orders(self) -> tuple:
        m = self.degree // 2 + 1
        return m, m + 1

    def rule(self, order) -> _Rule:
        return _kept(_box_rule, self.box, order)


@dataclass(frozen=True)
class Ellipse:
    """Support domain {x^T M x < 1} of a bump at n = 2 or 3, M as nested
    tuples.  In 2-D without a ``degree``, on the polar rule at
    ``ELLIPSE_ORDERS``.

    With ``degree`` D, the integrand is a function of x^T M x times a
    polynomial of total degree at most D in x.  In the disk or ball
    coordinates u, x = L^-T u, that is a radial factor times a polynomial
    of degree D in u, so on each circle a trigonometric polynomial of
    degree D, which K >= D + 1 equally spaced angles integrate exactly
    (Trefethen & Weideman, SIAM Review 56, 2014).  In 2-D its passes keep
    the radii of ``ELLIPSE_ORDERS`` and take D + 1 angles.  In 3-D they keep
    those radii, weighted by r^2, and take D + 1 azimuths times
    ceil((D + 1) / 2) Gauss-Legendre nodes in cos(theta): after the azimuth
    sum, a monomial u1^a u2^b u3^c leaves sin(theta)^(a+b) cos(theta)^c
    with a and b even, a polynomial of degree a + b + c <= D in cos(theta).
    The error estimate then measures the radial pair.  A 3-D ellipse needs
    its degree: its plain rule has no calibration."""

    M: tuple
    degree: int | None = None

    def __post_init__(self):
        if len(self.M) == 3 and self.degree is None:
            raise ValueError("a 3-D ellipse rule needs the degree of its integrand")

    @property
    def orders(self) -> tuple:
        if self.degree is None:
            return ELLIPSE_ORDERS
        if len(self.M) == 2:
            return tuple((radii, self.degree + 1) for radii, _ in ELLIPSE_ORDERS)
        polar = self.degree // 2 + 1
        return tuple((radii, polar, self.degree + 1) for radii, _ in ELLIPSE_ORDERS)

    def rule(self, orders) -> _Rule:
        return _kept(_ellipse_rule, _float_rows(self.M), orders)


@dataclass(frozen=True)
class GradedSimplex:
    """A segment or triangle, float vertices, on the collapsed rule graded
    at ``layer`` (``_simplex_rule``), at ``RIDGE_ORDERS``."""

    vertices: tuple
    layer: float
    orders = RIDGE_ORDERS

    def rule(self, order) -> _Rule:
        return _simplex_rule(self.vertices, order, self.layer)


# The standard simplices, the triangle listed to collapse onto (1, 0).
_STANDARD = {0: [[]], 1: [[0.0], [1.0]], 2: [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]}


@dataclass(frozen=True)
class SimplexProduct:
    """The product of an x-simplex and a y-simplex in R^n, exact or float
    vertices, in T*R^n: nodes (N, 2n), with weights in the measure of the
    standard simplices, whose collapsed rules are mapped onto the factors."""

    x: tuple
    y: tuple
    orders = CELL_ORDERS

    def rule(self, order) -> _Rule:
        # the grid of the x-side's rule times that of the y-side's
        sides = [(_simplex_rule(_STANDARD[len(simplex) - 1], order),
                  np.array(simplex[0], dtype=float),
                  np.array([[float(a - b) for a, b in zip(v, simplex[0])] for v in simplex]))
                 for simplex in (self.x, self.y)]
        split = len(sides[0][0].shape)

        def side(idx, params, origin, frame):
            # v0 + the sum of params[..., k] (v_{k+1} - v0), elementwise
            pts, wts = params.make(*idx)
            offset = np.zeros(wts.shape + frame.shape[1:])
            for k in range(1, len(frame)):
                offset += pts[..., k - 1:k] * frame[k]
            return origin + offset, wts

        def make(*idx):
            (X, ws), (Y, wt) = side(idx[:split], *sides[0]), side(idx[split:], *sides[1])
            grid = np.broadcast_shapes(ws.shape, wt.shape)
            return (np.concatenate([np.broadcast_to(X, grid + X.shape[-1:]),
                                    np.broadcast_to(Y, grid + Y.shape[-1:])], axis=-1),
                    ws * wt)

        return _Rule(sides[0][0].shape + sides[1][0].shape, make)


def _rule(domain):
    """``(rule(order), (coarse order, fine order))`` of a support domain."""
    if isinstance(domain, (tuple, list)):
        bounds = tuple((float(lo), float(hi)) for lo, hi in domain)
        return (lambda order: _kept(_box_rule, bounds, order)), ORDERS[len(domain)]
    return domain.rule, domain.orders


def integrate(fn: Callable[[np.ndarray], np.ndarray] | list, domains: list) -> EvalResult | list:
    """Integral of a vectorized integrand over the union of ``domains``; an
    integrand that returns an (F, N) array, one row per integrand on the
    same nodes, gives a list of F results, each row reduced exactly as an
    integrand returning that row alone would be.  ``fn`` may be a list of
    integrands: each node block is then handed to every one of them before
    the next block is made, and the result is a list, one entry per
    integrand, each what ``integrate`` of that integrand alone gives."""
    # every box integral of one integrand enters through integrate_box:
    # perfbench traces it
    if (callable(fn) and len(domains) == 1
            and isinstance(domains[0], (tuple, list, PolynomialBox))):
        return integrate_box(fn, domains[0])
    return two_pass(fn, domains)


def integrate_box(fn: Callable[[np.ndarray], np.ndarray],
                  box: Box | PolynomialBox) -> EvalResult | list:
    """Integral over one box by its tensor pass pair: at ``ORDERS[len(box)]``
    for a plain box, at its degree's pair for a :class:`PolynomialBox`; an
    (F, N) integrand gives F results."""
    return two_pass(fn, [box])


def two_pass(fn, domains: list) -> EvalResult | list:
    """The fine pass over ``domains``, with its distance from the coarse pass
    as the error estimate; an (F, N) integrand gives one result per row, a
    list of integrands one entry per integrand."""
    fns = [fn] if callable(fn) else list(fn)
    rules = [_rule(d) for d in domains]
    coarse, fine = (_one_pass(fns, rules, k) for k in (0, 1))
    out = [[EvalResult(v, abs(v - c)) for v, c in zip(f, c_)] if isinstance(f, list)
           else EvalResult(f, abs(f - c_)) for f, c_ in zip(fine, coarse)]
    return out[0] if callable(fn) else out


def _one_pass(fns: list, rules, k: int) -> list:
    """Weighted sum of each integrand of ``fns`` over the nodes of each rule
    at its ``k``-th order, a float or one per row: the sums of the blocks
    of :func:`_blocks`, added in order.  The sums are numpy's pairwise ones,
    not a BLAS dot, whose order of summation follows the BLAS thread count."""
    totals: list = [None] * len(fns)
    for pts, wts in _blocks(rules, k):
        for i, fn in enumerate(fns):
            vals = fn(pts)
            if np.ndim(vals) < 2:
                part = float(np.add.reduce(wts * vals))
                totals[i] = part if totals[i] is None else totals[i] + part
            else:
                parts = [float(np.add.reduce(wts * row)) for row in vals]
                totals[i] = parts if totals[i] is None else [
                    t + p for t, p in zip(totals[i], parts)]
    return totals


def _blocks(rules, k: int):
    """The node blocks of the ``k``-th pass over ``rules``: the node sets of
    consecutive rules are gathered until they hold ``_NODE_BLOCK`` nodes and
    cut into blocks of ``_NODE_BLOCK`` nodes from their start, and each
    block is made from its pieces of the rules alone (``_cut``).  A pass
    without nodes is one block of zero nodes, on which an integrand gives
    its row count and sums of zero."""
    gathered, count, made, rule = [], 0, False, None
    for rule_at, orders in rules:
        rule = rule_at(orders[k])
        if rule.size:
            gathered.append(rule)
            count += rule.size
        if count >= _NODE_BLOCK:
            yield from _cut(gathered)
            gathered, count, made = [], 0, True
    if gathered:
        yield from _cut(gathered)
    elif not made:
        yield (np.empty((0, 0)), np.empty(0)) if rule is None else rule.block(0, 0)


def _cut(rules):
    """The node sets of ``rules``, one after the other, in blocks of
    ``_NODE_BLOCK`` nodes (the last one shorter): a block spans the rules
    whose nodes it holds and is made from its piece of each."""
    pieces, room, left = [], _NODE_BLOCK, sum(rule.size for rule in rules)
    for rule in rules:
        start = 0
        while start < rule.size:
            stop = min(rule.size, start + room)
            pieces.append(rule.block(start, stop))
            room -= stop - start
            left -= stop - start
            start = stop
            if not room or not left:
                yield pieces[0] if len(pieces) == 1 else tuple(map(np.concatenate, zip(*pieces)))
                pieces, room = [], _NODE_BLOCK

