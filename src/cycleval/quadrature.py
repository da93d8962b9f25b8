"""Tensor Gauss-Legendre quadrature on boxes with refinement-based error
estimates, bisected up to ``max_depth`` times for peaked integrands, and the
one result type of every integral: exact where the atoms allow it,
quadrature with an error estimate elsewhere."""

from __future__ import annotations

from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate a smooth integrand over a box.

    One pass at ``order`` plus a refinement at ``refine_order``; the
    difference is the reported error estimate.  Where it exceeds ``tol``
    (absolute, halved for each child) the box is bisected along its widest
    axis, at most ``max_depth`` times; ``max_depth=0`` is one tensor pass
    pair.
    """

    order: int = 24
    refine_order: int = 32
    tol: float = 1e-9
    max_depth: int = 0


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
                  spec: QuadratureSpec = DEFAULT_QUAD) -> EvalResult | list:
    """Integrate a vectorized integrand over a box.

    An integrand that returns an (F, N) array, one row per integrand on the
    same nodes, gives a list of F results, each row reduced exactly as an
    integrand returning that row alone would be.  Bisection would split each
    row's box its own way, so such an integrand is accepted only at
    ``max_depth=0``.
    """
    return _bisected(fn, [(float(lo), float(hi)) for lo, hi in box], spec, 0)


def _bisected(fn, box, spec: QuadratureSpec, depth: int) -> EvalResult | list:
    def one_pass(order):
        pts, wts = box_nodes(box, order)
        vals = fn(pts)
        if np.ndim(vals) < 2:
            return float(np.dot(wts, vals))
        if spec.max_depth:
            raise ValueError("a multi-row integrand is integrated at max_depth=0 only")
        return [float(np.dot(wts, row)) for row in vals]

    res = two_pass(one_pass, spec.order, spec.refine_order)
    if isinstance(res, list) or res.error <= spec.tol or depth >= spec.max_depth:
        return res
    # split along the widest axis
    widths = [hi - lo for lo, hi in box]
    ax = int(np.argmax(widths))
    lo, hi = box[ax]
    mid = 0.5 * (lo + hi)
    child = replace(spec, tol=spec.tol / 2)
    left = list(box)
    left[ax] = (lo, mid)
    right = list(box)
    right[ax] = (mid, hi)
    r1 = _bisected(fn, left, child, depth + 1)
    r2 = _bisected(fn, right, child, depth + 1)
    return EvalResult(r1.value + r2.value, r1.error + r2.error)


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
