"""Fixed quadrature rules on the supports of forms, with the refinement's
distance as the error estimate, and the one result type of every integral:
exact where the atoms allow it, quadrature with an error estimate elsewhere.

A 2-D integrand supported on one bump ellipse {x^T M x < 1} is integrated
on that ellipse: Gauss-Legendre radii ending on the support circle times
equally spaced angles (``integrate_ellipsoid``).  Every other integrand, one
on a declared window, on a union of several bumps, or in 1-D or 3-D, is
integrated on its box by tensor Gauss-Legendre (``integrate_box``).  Each
rule runs one fixed pass pair; ``integrate`` picks the rule of a support
domain.  A rule depends only on its domain and order, so ``box_nodes`` and
``ellipse_nodes`` memoise it: a battery of functions integrated on one
support builds its rule once.  The memo is filled on first use, bounded in
entries, and hands out read-only arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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


def two_pass(one_pass: Callable[[int], float | list], order: int,
             refine_order: int) -> EvalResult | list:
    """The pass at ``refine_order``, with its distance from the pass at
    ``order`` as the error estimate; a pass that returns one value per
    integrand gives one result per integrand."""
    coarse = one_pass(order)
    fine = one_pass(refine_order)
    if isinstance(fine, list):
        return [EvalResult(v, abs(v - c)) for v, c in zip(fine, coarse)]
    return EvalResult(fine, abs(fine - coarse))


def sum_parts(parts: Iterable[Fraction | EvalResult]) -> EvalResult:
    """Sum of exact parts (Fractions) and quadrature parts (EvalResults).

    A Fraction while every part is exact; otherwise the float of the exact
    sum plus the quadrature values in order, with their errors summed.
    """
    exact = Fraction(0)
    total = 0.0
    err = 0.0
    inexact = False
    for part in parts:
        if isinstance(part, EvalResult):
            total += part.value
            err += part.error
            inexact = True
        else:
            exact += part
    return EvalResult(float(exact) + total if inexact else exact, err)


# Box rules serve window forms (polynomial coefficients on a declared box),
# integrands that mix bumps or windows, and every bump integrand in 1-D and
# 3-D.  A bump is smooth but not analytic at its support sphere, and tensor
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
# forms; a coarser pass than 56 x 112 inflates the estimate.
ELLIPSE_ORDERS = ((56, 112), (64, 128))


@lru_cache(maxsize=64)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def gl_interval(lo: float, hi: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``order`` on [lo, hi]."""
    x, w = _leggauss(order)
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * x, half * w


def box_nodes(box: Box, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product nodes/weights for a box; nodes shape (N, dim), as
    read-only arrays.  A 1-D or 2-D rule is memoised on the box's float
    bounds.  A 3-D rule (1 MiB at order 32, 3.4 MiB at 48) serves one or two
    integrals per run and is built per call, as a kept one would add to the
    peak memory of the 3-D integrands."""
    bounds = tuple((float(lo), float(hi)) for lo, hi in box)
    return (_kept_box_rule if len(bounds) <= 2 else _box_rule)(bounds, order)


def _box_rule(bounds, order):
    axes_pts = []
    axes_wts = []
    for lo, hi in bounds:
        pts, wts = gl_interval(lo, hi, order)
        axes_pts.append(pts)
        axes_wts.append(wts)
    grids = np.meshgrid(*axes_pts, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wts = axes_wts[0]
    for w in axes_wts[1:]:
        wts = np.multiply.outer(wts, w)
    return _read_only(pts, np.asarray(wts).ravel())


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


# The rules of the suites' support domains repeat from integral to integral,
# for every function of a battery: a few dozen (domain, order) pairs per run,
# the largest a 0.6 MB 160^2 box rule.
_kept_box_rule = lru_cache(maxsize=16)(_box_rule)


def _passes(fn, nodes, order, refine_order) -> EvalResult | list:
    """``two_pass`` of ``fn`` on the rule ``nodes(order)``.

    An integrand that returns an (F, N) array, one row per integrand on the
    same nodes, gives a list of F results, each row reduced exactly as an
    integrand returning that row alone would be.
    """
    def one_pass(order):
        pts, wts = nodes(order)
        vals = fn(pts)
        if np.ndim(vals) < 2:
            return float(np.dot(wts, vals))
        return [float(np.dot(wts, row)) for row in vals]

    return two_pass(one_pass, order, refine_order)


def integrate_box(fn: Callable[[np.ndarray], np.ndarray], box: Box) -> EvalResult | list:
    """Integrate a vectorized integrand over a box by one tensor pass pair at
    the orders ``ORDERS`` gives its dimension; an (F, N) integrand gives F
    results."""
    return _passes(fn, lambda order: box_nodes(box, order), *ORDERS[len(box)])


def _ellipse_map(M) -> tuple[np.ndarray, float]:
    """``(L^-T, 1 / det L)`` for the float Cholesky factor M = L L^T of a 2 x 2
    matrix: the map x = L^-T u carries the unit disk onto {x^T M x < 1}."""
    (a, b), (_, c) = (map(float, row) for row in M)
    l00 = math.sqrt(a)
    l10 = b / l00
    l11 = math.sqrt(c - l10 * l10)
    return np.array([[1.0 / l00, -l10 / (l00 * l11)], [0.0, 1.0 / l11]]), 1.0 / (l00 * l11)


def ellipse_nodes(M, orders: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (N, 2) and weights of the polar rule of ``orders`` = (radii,
    angles) on the ellipse {x^T M x < 1}: Gauss-Legendre radii on [0, 1]
    times equally spaced angles on the unit disk, mapped by L^-T.  M is a
    symmetric positive definite 2 x 2 matrix given as nested tuples.  The
    rule is memoised on M's floats: the arrays are read-only."""
    return _kept_ellipse_rule(tuple(tuple(map(float, row)) for row in M), tuple(orders))


def _ellipse_rule(M, orders):
    order_r, order_t = orders
    r, wr = gl_interval(0.0, 1.0, order_r)
    theta = 2.0 * np.pi * (np.arange(order_t) + 0.5) / order_t
    disk = np.stack([np.multiply.outer(r, np.cos(theta)).ravel(),
                     np.multiply.outer(r, np.sin(theta)).ravel()], axis=-1)
    wts = np.multiply.outer(wr * r, np.full(order_t, 2.0 * np.pi / order_t)).ravel()
    T, jac = _ellipse_map(M)
    return _read_only(disk @ T.T, wts * jac)


_kept_ellipse_rule = lru_cache(maxsize=16)(_ellipse_rule)


def integrate_ellipsoid(fn: Callable[[np.ndarray], np.ndarray], M) -> EvalResult | list:
    """Integrate a vectorized integrand supported in the ellipse
    {x^T M x < 1} (2-D) by one polar pass pair at ``ELLIPSE_ORDERS``; an
    (F, N) integrand gives F results."""
    if len(M) != 2:
        raise ValueError("the ellipse rule is 2-D")
    return _passes(fn, lambda orders: ellipse_nodes(M, orders), *ELLIPSE_ORDERS)


@dataclass(frozen=True)
class Ellipse:
    """Support domain {x^T M x < 1} of a 2-D bump, M as nested tuples."""

    M: tuple


def integrate(fn: Callable[[np.ndarray], np.ndarray], domain) -> EvalResult | list:
    """Integrate over a support domain: an :class:`Ellipse` on the ellipse
    rule, a box on the tensor rule."""
    if isinstance(domain, Ellipse):
        return integrate_ellipsoid(fn, domain.M)
    return integrate_box(fn, domain)
