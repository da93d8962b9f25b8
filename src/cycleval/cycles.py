"""Differential-cycle evaluators of D(f)[tau] on gradient graphs and polylines:

* smooth gradient graphs (quadrature of the graph pullback, C^2 catalog,
  on the forms' support ellipse or box), plain or ridge-aligned for
  log-sum-exp smoothings (on graded triangles of the max-affine regions),
  and their mass, each with its error estimate,
* 1D polylines for piecewise-linear f on R, convex or not: exact for
  windowed polynomial atoms, integrated along each segment in closed form
  term by term, and by quadrature for bump atoms.

Every numeric integral here is a call of quadrature.integrate on support
domains, which owns the nodes, the pass pairs and the error estimates.
The graph evaluators take a list of forms and return one result per form.
Forms that share a support domain are evaluated on one node stream.  Their
coefficients are compiled once into one exponent table with exact-summed
float coefficients (``pullback_batch``, a coefficients.CompiledBatch),
once for a whole battery of functions; each block of nodes then costs one
jet of f (gradient and Hessian, on one softmax for a log-sum-exp
smoothing), one Hessian minor per minor that occurs, and one monomial
table, whatever the number of forms.  The functions of a battery on one
rule are integrated together (``eval_smooth`` of a list of functions):
each node block is made once and handed to every function's integrand,
and one coefficients.EvalCache per block, dropped with the block, holds
its bump factors and the rows of bump groups in x alone for the battery.
One function, ``graph_rule``, chooses the rule of every graph integral.
When the gradient of f is a polynomial, the pullback of a form without
bumps is a polynomial of a degree read off the form's exponents
(``pullback_degree``), which the Gauss pass pair of that degree integrates
exactly (quadrature.PolynomialBox), and that of a form whose bumps are
those of one matrix, at n = 2 or 3, is a radial bump factor times such a
polynomial, which the ellipse rule of that degree integrates exactly in
the angles (quadrature.Ellipse); so is the weight of a Hessian valuation
and a coefficient on the zero section.  A batch evaluates any selection
of its rows.  Each form's row, and so its value, is bit for bit what it
would be alone.  A constant Hessian (a quadratic's, returned as a
broadcast view) is read once per block: its minors, and the metric
determinant of the mass, are computed on one node and broadcast.

Polyhedral cycles of max-affine f live in polyhedral.py.  All evaluators
share one orientation convention, the Minty transport; for a smooth convex
graph it reduces to the standard orientation of the base.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coefficients import CoefficientFn, CompiledBatch, EvalCache, SupportError
from .convex import (
    ConvexFunction,
    MaxAffine,
    NonsmoothPointError,
    PiecewiseLinear1D,
    node_matmul,
    unbroadcast,
    wrapped_lse,
)
from .exactla import det
from .forms import FREE_PARAMETERS, Form, merge_sign
from .polynomials import Q, _as_fraction, _unpack, field_sum
from .quadrature import (
    Ellipse,
    EvalResult,
    GradedSimplex,
    PolynomialBox,
    integrate,
    sum_parts,
)


def _shared(supports):
    """The one support (box or domain) of forms evaluated together."""
    supports = set(supports)
    if len(supports) != 1:
        raise ValueError("forms evaluated together must share one support")
    return supports.pop()


def pullback_batch(forms: Sequence[Form]) -> CompiledBatch:
    """The forms' graph-pullback coefficients compiled into one
    :class:`CompiledBatch`, one row per form, weighted by the Hessian
    minors ``det H[J, Ic]``: compiled once for every function that the
    forms are evaluated on.  A form with a free parameter raises
    SupportError: the batch has no slot for it.  The integrand of a form
    without a known support is compiled, and the graph evaluators refuse
    to integrate it (``Form.check_windows``)."""
    pieces = []
    for row, form in enumerate(forms):
        n = form.n
        for key, coeff in form.terms.items():
            if coeff.has_params():
                raise SupportError(FREE_PARAMETERS)
            I = [v for v in key if v < n]
            J = tuple(v - n for v in key if v >= n)
            Ic = tuple(v for v in range(n) if v not in I)
            if len(J) != len(Ic):
                continue
            sign, _ = merge_sign(tuple(I), Ic)
            if sign == 0:
                continue
            pieces.append((row, (J, Ic), coeff, sign))
    return CompiledBatch(forms[0].n if forms else 0, pieces)


def pullback_degree(f: ConvexFunction | None, integrand: Form | CoefficientFn,
                    hessians: int = 0) -> int | None:
    """The total degree in x of the polynomial factor of an integrand on the
    graph of df, when the gradient of f is a polynomial of degree g: of the
    graph pullback of the n-form ``integrand``, or of the weight
    ``integrand``, a coefficient of x, times ``hessians`` entries of the
    Hessian of f (as in ``lab.hessian_valuation``).  f None is the zero
    section, g = 0.  The polynomial factor is the integrand itself when it
    has no bumps, and the integrand over its bump factors when these are
    those of one matrix (``bump_matrix``) at n = 2 or 3, functions of
    x^T M x.  A monomial x^a y^b of the coefficient of dx_I ^ dy_J then has
    degree |a| + g |b| and its minor det H[J, Ic] (g - 1) |J|; no two keys
    share a minor.  None otherwise: bumps at n = 1 or 4 keep the box rules,
    and bumps of more than one matrix, or with a window, have no such
    factor."""
    g = 0 if f is None else f.gradient_degree
    if isinstance(integrand, Form):
        terms = [(c, sum(v >= integrand.n for v in key)) for key, c in integrand.terms.items()]
    else:
        terms = [(integrand, hessians)]
    n = integrand.n
    if g is None or (any(c.has_bump() for c, _ in terms)
                     and (n not in (2, 3) or integrand.bump_matrix() is None)):
        return None
    top = 0
    for coeff, ys in terms:
        minor = (g - 1) * ys
        for poly in coeff.atoms.values():
            for k in poly.num:
                a = field_sum(k, n)
                top = max(top, a + g * (field_sum(k, 2 * n) - a) + minor)
    return top


def graph_rule(f: ConvexFunction | None, integrand: Form | CoefficientFn, domain,
               hessians: int = 0, margin: int = 0):
    """The rule of every graph integral: the support domain on which
    quadrature.integrate integrates ``integrand`` on f, as in
    :func:`pullback_degree`, over ``domain``, its support domain.  With the
    integrand's degree D known, a polynomial runs on the
    :class:`~cycleval.quadrature.PolynomialBox` of ``domain`` and D, and a
    bump integrand on the :class:`~cycleval.quadrature.Ellipse` of its bump
    matrix and D, in 2-D and in 3-D: both are exact, the ellipse in the
    angles.  Any other integrand, and a ``domain`` of None, stays on
    ``domain``.  ``margin`` raises D, so that a second evaluation of one
    integrand runs on other nodes."""
    degree = pullback_degree(f, integrand, hessians)
    if degree is None or domain is None:  # eval_smooth refuses no support
        return domain
    M = integrand.bump_matrix()
    if M is None:
        return PolynomialBox.of(domain, degree + margin)
    return Ellipse(M, degree + margin)


class BlockCache:
    """The coefficients.EvalCache of the node block at hand, for the
    integrands of a battery that quadrature.integrate calls on the same
    blocks: called with a block's node array, it returns that block's
    cache, made at the first call on the block and dropped at the first
    call on the next one, so at most one block's cache is alive."""

    __slots__ = ("_nodes", "_cache")

    def __init__(self):
        self._nodes = self._cache = None

    def __call__(self, X: np.ndarray) -> EvalCache:
        if X is not self._nodes:
            self._nodes = self._cache = None  # dropped before the next is made
            self._nodes, self._cache = X, EvalCache()
        return self._cache


def graph_pullback_integrand(f: ConvexFunction, forms: Sequence[Form],
                             batch: CompiledBatch | None = None, cache=None,
                             rows=None):
    """Vectorized x -> (graph map)^* form, the coefficient of the volume form,
    for each of ``forms``: nodes of shape (N, n) give a C-contiguous (F, N)
    array, one row per form.

    ``batch`` is ``pullback_batch(forms)``, compiled here by default, or a
    batch compiled from more forms, in which ``forms`` are the ``rows``:
    the other rows cost nothing.  A call evaluates its nodes as one block,
    and quadrature.integrate hands it one node block at a time: a call
    costs one ``f.jet`` (gradient and Hessian), one minor per ``(J, Ic)``
    and the live rows of one monomial table for all forms, and each row
    equals the integrand of its form alone bit for bit.  ``cache``, a
    :class:`BlockCache`, gives the coefficients.EvalCache of each block,
    so the integrands of a battery on one batch, integrated together,
    share the x-only work of each block; by default a call makes its own.
    """
    if batch is None:
        batch = pullback_batch(forms)

    def integrand(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Y, H = f.jet(X)
        H = unbroadcast(H)
        minors = {(J, Ic): det([[H[:, r, c] for c in Ic] for r in J]) for J, Ic in batch.keys}
        out = np.zeros((len(forms), X.shape[0]))
        batch.add_to(out, np.concatenate([X.T, Y.T]), minors,
                     None if cache is None else cache(X), rows)
        return out

    return integrand


def eval_smooth(f, forms: Sequence[Form], domains=None,
                batch: CompiledBatch | None = None, rows=None) -> list:
    """D(f)[form] for each of ``forms``, for twice-differentiable catalog
    functions: one scalar :class:`EvalResult` per form, in order.

    Every form must be evaluable over one box (``Form.check_windows``).
    The forms are integrated over the union of ``domains`` (boxes,
    :class:`~cycleval.quadrature.PolynomialBox` or
    :class:`~cycleval.quadrature.Ellipse` domains), by default their one
    shared support domain, on one node stream, with one error estimate.
    ``batch`` is ``pullback_batch(forms)``, compiled here by default, and
    ``rows`` selects the forms evaluated, by their indices, by default all.

    ``f`` may be a battery, a list of functions, with ``rows`` one
    selection (or None) per function: all are integrated in one call of
    quadrature.integrate, which makes each node block once and hands it to
    every function's integrand, and the integrands share one
    coefficients.EvalCache per block (:class:`BlockCache`), dropped with
    the block.  The result is then one list per function, each bit for bit
    what that function alone gives.
    """
    for form in forms:
        form.check_windows()
    battery = isinstance(f, (list, tuple))
    functions, selections = (f, rows or [None] * len(f)) if battery else ([f], [rows])
    if any(not g.smooth for g in functions):
        raise NonsmoothPointError(
            "nonsmooth function: use the polyhedral evaluation path")
    if any(form.degree != g.n or form.n != g.n for g in functions for form in forms):
        raise ValueError("form must be an n-form matching the function dimension")
    if batch is None:
        batch = pullback_batch(forms)
    cache = BlockCache()
    integrands = [graph_pullback_integrand(
        g, forms if sel is None else [forms[r] for r in sel], batch, cache, sel)
        for g, sel in zip(functions, selections)]
    return integrate(integrands if battery else integrands[0],
                     domains or [_shared(form.support_domain() for form in forms)])


def eval_smooth_ridge_aligned(f: ConvexFunction, cycle, forms: Sequence[Form],
                              batch: CompiledBatch | None = None) -> list:
    """Smooth-graph evaluation subdivided along the kink loci of a max-affine
    base of ``f``, for forms that share one support box: one scalar
    :class:`EvalResult` per form, in order.  ``cycle`` is the polyhedral
    cycle of that base on the forms' window,
    ``build_polyhedral(base, window=window_for(base, box))``; a caller that
    also evaluates the base exactly passes the cycle it built for that.

    ``f`` is a log-sum-exp smoothing LSE_beta, shifted or scaled
    (``convex.wrapped_lse``), whose Hessians concentrate in O(1/beta)
    layers along the max-affine ridges, invisible to plain tensor
    quadrature.  The max-affine regions clipped to the box, each 2-D region
    fanned into triangles from its centroid, are integrated as
    :class:`~cycleval.quadrature.GradedSimplex` domains graded at the layer
    min(1/4, 50/beta).  ``batch`` is that of
    :func:`graph_pullback_integrand`.
    """
    layer = min(0.25, 50.0 / wrapped_lse(f).beta)
    n = f.n
    box = _shared(form.check_windows() for form in forms)
    pieces = []  # float vertices of the intervals or triangles
    for index, cell in enumerate(cycle.cells):
        clipped = cycle.clipped(index, box) if cell.dim_x == n else []
        region = [[float(v) for v in p] for p in clipped]
        if n == 1 and region:
            pieces.append(region)
        elif region:
            centroid = [sum(v[k] for v in region) / len(region) for k in range(2)]
            pieces += [(centroid, v, w) for v, w in zip(region, region[1:] + region[:1])]
    if not pieces:  # a box without area, as a zero form has
        return [EvalResult(0.0) for _ in forms]
    return integrate(graph_pullback_integrand(f, forms, batch),
                     [GradedSimplex(p, layer) for p in pieces])


def mass_smooth(f: ConvexFunction, R: float) -> EvalResult:
    """Mass of the gradient graph over the ball of radius R (n <= 2), the
    integral of its metric density sqrt(det(I + H^T H)), H the Hessian of
    f, on the interval [-R, R] or the disk's ellipse, with its error
    estimate."""
    n = f.n
    if n > 2:
        raise NotImplementedError("mass quadrature implemented for n <= 2")
    inv_r2 = 1.0 / (R * R)
    domain = [(-R, R)] if n == 1 else Ellipse(((inv_r2, 0.0), (0.0, inv_r2)))

    def density(pts):
        H = unbroadcast(f.hessian_array(pts))
        G = np.eye(n)[None, :, :] + node_matmul(H.transpose(0, 2, 1), H)
        return np.sqrt(det([[G[:, i, j] for j in range(n)] for i in range(n)]))

    return integrate(density, [domain])


# -- 1D polylines ------------------------------------------------------------------


@dataclass
class Polyline1DCycle:
    """Oriented polyline realizing D(f) for piecewise-linear f on R.

    Horizontal segments follow the graph of f' left to right; each kink
    contributes the vertical segment from the left slope to the right slope
    (upward at convex kinks, downward at concave ones).  ``flip_vertical``
    deliberately breaks that convention; it exists as a negative control so
    test batteries can demonstrate they detect orientation bugs.
    """

    f: PiecewiseLinear1D
    flip_vertical: bool = False

    def segments(self, lo, hi) -> tuple:
        """``(horizontal, vertical, d)``: the pieces of the graph of f' over
        [lo, hi] and its kink segments, each as (fixed, start, end), all
        integers over the one denominator d.  A piece runs at y = slope from
        start to end, a kink at x = kink from the left to the right slope."""
        lo, hi = _as_fraction(lo), _as_fraction(hi)
        d = math.lcm(self.f.den, lo.denominator, hi.denominator)
        B, S, _ = self.f.over(d)
        L, H = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
        # the slope right of each left end holds up to the next cut
        i, j = bisect.bisect_right(B, L), bisect.bisect_left(B, H)
        cuts = [L] + B[i:j] + [H]
        horiz = [(s, a, b) for a, b, s in zip(cuts, cuts[1:], S[i:]) if b > a]
        i, j = bisect.bisect_left(B, L), bisect.bisect_right(B, H)
        vert = [(b, sr, sl) if self.flip_vertical else (b, sl, sr)
                for b, sl, sr in zip(B[i:j], S[i:], S[i + 1:])]
        return horiz, vert, d


def build_1d(f: PiecewiseLinear1D | MaxAffine) -> Polyline1DCycle:
    if isinstance(f, MaxAffine):
        f = PiecewiseLinear1D.from_max_affine(f)
    return Polyline1DCycle(f)


def eval_polyline(cycle: Polyline1DCycle, form: Form) -> EvalResult:
    """Exact for polynomial atoms with windows; quadrature for bump atoms."""
    if form.n != 1 or form.degree != 1:
        raise ValueError("polyline evaluation needs a 1-form on T*R")
    form.check_evaluable()
    coeffs = [(axis, form.terms[(axis,)]) for axis in (0, 1) if (axis,) in form.terms]
    return sum_parts(_polyline_parts(cycle, coeffs))


def _polyline_parts(cycle: Polyline1DCycle, coeffs):
    """Integral of each dx (axis 0) or dy (axis 1) atom over the segments
    along its axis: pieces left to right at y = slope, kinks at x = kink
    from left to right slope.  A polynomial atom is integrated in closed
    form (:func:`_closed_form`), one exact part per atom; a bump atom by
    quadrature, one part per segment."""
    windows = []  # (support box, its (horizontal, vertical, d) segments)
    for axis, coeff in coeffs:
        for atom, box in coeff.atom_supports():
            poly = atom.atoms.get(())
            # a few boxes: a search by equality costs less than hashing Fractions
            window = next((w for b, w in windows if b == box), None)
            if window is None:
                window = cycle.segments(*box[0])
                windows.append((box, window))
            segments, d = window[axis], window[2]
            if poly is not None:
                nums, den = _closed_form(poly, axis, segments, d)
                yield Q(sum(nums), den)
                continue
            for fixed, start, end in segments:
                ff = fixed / d  # int / int rounds as float() of the Fraction

                def fn(p):
                    cols = [p[:, 0], np.full(p.shape[0], ff)]
                    return atom.eval_array(np.stack(cols[::-1] if axis else cols, axis=1))

                a, b = start / d, end / d
                res = integrate(fn, [[(min(a, b), max(a, b))]])
                yield EvalResult((-1.0 if b < a else 1.0) * res.value, res.error)


def _closed_form(poly, axis: int, segments, d: int) -> tuple:
    """The exact integral of the polynomial atom ``poly`` along ``axis`` over
    each segment (F, S, E) of integers over d, fixed at F / d from S / d to
    E / d: ``(numerators, den)``, one integer numerator per segment over
    the shared denominator den.  Its term c x^a y^b, with i the power along
    the segment and j that of the fixed coordinate, gives
    c fixed^j (end^(i+1) - start^(i+1)) / (i+1).  With L the least common
    multiple of the (i+1), every term is an integer over
    ``poly.den L d^(top+1)``, top the largest i + j."""
    powers = []
    for key, c in poly.num.items():
        a, b = _unpack(key, 2)
        i, j = (b, a) if axis else (a, b)
        powers.append((c, i + 1, j))
    top = max((i1 + j - 1 for _, i1, j in powers), default=0)
    lcm = math.lcm(*(i1 for _, i1, _ in powers))
    # c L / (i+1) times the power of d that lifts the term to d^(top+1)
    terms = [(c * (lcm // i1) * d ** (top + 1 - i1 - j), i1, j) for c, i1, j in powers]
    nums = [sum(c * F ** j * (E ** i1 - S ** i1) for c, i1, j in terms)
            for F, S, E in segments]
    return nums, poly.den * lcm * d ** (top + 1)
