"""Tensor Gauss-Legendre quadrature on boxes, one fixed pair of orders per box
dimension with the refinement's distance as the error estimate, and the one
result type of every integral: exact where the atoms allow it, quadrature
with an error estimate elsewhere."""

from __future__ import annotations

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


# Bump-type integrands are smooth but not analytic at their support sphere;
# tensor Gauss-Legendre converges subgeometrically on them.  These per-axis
# orders were calibrated so that box integrals of the catalog bumps carry
# absolute errors ~1e-10 (dim <= 2) / ~1e-7 (dim 3), which the bundled
# tolerances rely on.
ORDERS = {1: (128, 192), 2: (128, 160), 3: (32, 48), 4: (16, 24)}


@lru_cache(maxsize=64)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def gl_interval(lo: float, hi: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``order`` on [lo, hi]."""
    x, w = _leggauss(order)
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * x, half * w


def box_nodes(box: Box, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product nodes/weights for a box; nodes shape (N, dim)."""
    axes_pts = []
    axes_wts = []
    for lo, hi in box:
        pts, wts = gl_interval(float(lo), float(hi), order)
        axes_pts.append(pts)
        axes_wts.append(wts)
    grids = np.meshgrid(*axes_pts, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wts = axes_wts[0]
    for w in axes_wts[1:]:
        wts = np.multiply.outer(wts, w)
    return pts, np.asarray(wts).ravel()


def integrate_box(fn: Callable[[np.ndarray], np.ndarray], box: Box) -> EvalResult | list:
    """Integrate a vectorized integrand over a box by one tensor pass pair at
    the orders ``ORDERS`` gives its dimension.

    An integrand that returns an (F, N) array, one row per integrand on the
    same nodes, gives a list of F results, each row reduced exactly as an
    integrand returning that row alone would be.
    """
    def one_pass(order):
        pts, wts = box_nodes(box, order)
        vals = fn(pts)
        if np.ndim(vals) < 2:
            return float(np.dot(wts, vals))
        return [float(np.dot(wts, row)) for row in vals]

    return two_pass(one_pass, *ORDERS[len(box)])


def disk_nodes(radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Polar-coordinate nodes/weights for a disk about the origin (dim 2):
    64 Gauss-Legendre radii times 128 equally spaced angles."""
    order_r, order_t = 64, 128
    r, wr = _leggauss(order_r)
    r = 0.5 * radius * (r + 1.0)
    wr = 0.5 * radius * wr
    theta = 2.0 * np.pi * (np.arange(order_t) + 0.5) / order_t
    wt = np.full(order_t, 2.0 * np.pi / order_t)
    R, T = np.meshgrid(r, theta, indexing="ij")
    pts = np.stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()], axis=-1)
    wts = np.multiply.outer(wr * r, wt).ravel()
    return pts, wts
