"""Tensor Gauss-Legendre quadrature on boxes, with refinement-based error
estimates and an adaptive (dyadic subdivision) mode for peaked integrands."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

Box = Sequence[tuple]  # [(lo, hi)] per axis, rational or float bounds


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate a smooth integrand over a box.

    ``mode="tensor"``: one pass at ``order`` plus a refinement at
    ``refine_order``; the difference is the reported error estimate.
    ``mode="adaptive"``: recursive bisection of the box until the local
    tensor estimate is below ``tol`` (absolute, split over children).
    """

    mode: str = "tensor"
    order: int = 24
    refine_order: int = 32
    tol: float = 1e-9
    max_depth: int = 9


DEFAULT_QUAD = QuadratureSpec()

# Bump-type integrands are smooth but not analytic at their support sphere;
# tensor Gauss-Legendre converges subgeometrically on them.  These per-axis
# orders were calibrated so that box integrals of the catalog bumps carry
# absolute errors ~1e-10 (dim <= 2) / ~1e-7 (dim 3), which the bundled
# tolerances rely on.
_DEFAULT_BY_DIM = {
    1: QuadratureSpec(order=128, refine_order=192),
    2: QuadratureSpec(order=128, refine_order=160),
    3: QuadratureSpec(order=32, refine_order=48),
    4: QuadratureSpec(order=16, refine_order=24),
}


def default_spec(dim: int) -> QuadratureSpec:
    return _DEFAULT_BY_DIM.get(dim, DEFAULT_QUAD)


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


def integrate_box(fn: Callable[[np.ndarray], np.ndarray], box: Box,
                  spec: QuadratureSpec = DEFAULT_QUAD) -> tuple[float, float]:
    """Integrate a vectorized integrand over a box; returns (value, error)."""
    if spec.mode == "adaptive":
        return _integrate_adaptive(fn, [(float(lo), float(hi)) for lo, hi in box], spec)
    pts, wts = box_nodes(box, spec.order)
    coarse = float(np.dot(wts, fn(pts)))
    pts2, wts2 = box_nodes(box, spec.refine_order)
    fine = float(np.dot(wts2, fn(pts2)))
    return fine, abs(fine - coarse)


def _integrate_adaptive(fn, box, spec: QuadratureSpec, depth: int = 0) -> tuple[float, float]:
    pts, wts = box_nodes(box, spec.order)
    coarse = float(np.dot(wts, fn(pts)))
    pts2, wts2 = box_nodes(box, spec.refine_order)
    fine = float(np.dot(wts2, fn(pts2)))
    err = abs(fine - coarse)
    if err <= spec.tol or depth >= spec.max_depth:
        return fine, err
    # split along the widest axis
    widths = [hi - lo for lo, hi in box]
    ax = int(np.argmax(widths))
    lo, hi = box[ax]
    mid = 0.5 * (lo + hi)
    child = QuadratureSpec(spec.mode, spec.order, spec.refine_order, spec.tol / 2, spec.max_depth)
    left = list(box)
    left[ax] = (lo, mid)
    right = list(box)
    right[ax] = (mid, hi)
    v1, e1 = _integrate_adaptive(fn, left, child, depth + 1)
    v2, e2 = _integrate_adaptive(fn, right, child, depth + 1)
    return v1 + v2, e1 + e2


def disk_nodes(radius: float, order_r: int = 32, order_t: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Polar-coordinate nodes/weights for a disk about the origin (dim 2)."""
    r, wr = _leggauss(order_r)
    r = 0.5 * radius * (r + 1.0)
    wr = 0.5 * radius * wr
    theta = 2.0 * np.pi * (np.arange(order_t) + 0.5) / order_t
    wt = np.full(order_t, 2.0 * np.pi / order_t)
    R, T = np.meshgrid(r, theta, indexing="ij")
    pts = np.stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()], axis=-1)
    wts = np.multiply.outer(wr * r, wt).ravel()
    return pts, wts
