"""Catalog of convex functions with exact value / gradient / Hessian oracles.

The catalog is a deliberate desk-scale selection: quadratics, max-affine
functions, their log-sum-exp smoothings, a couple of closed-form smooth
functions, restrictions of support functions of smooth convex bodies, and
affine shifts / nonnegative scalings / small smooth perturbations of these.
Each variant also supplies a certified over-estimate of sup |f| on a ball,
which feeds the mass bound.

``jet(X)`` returns the gradient and the Hessian together.  Variants that
share work between the two (the log-sum-exp softmax, the closed-form
entries' r^2, a body restriction's lift and, for an ellipsoid, its h and
M u in the n x n block only) compute it once, with the same elementwise
expressions as the separate oracles, so a jet is bit for bit the pair
``(gradient_array(X), hessian_array(X))``.  Work that does not depend on
the evaluation is not done until it is needed: a max-affine function
prunes its dominated pieces when they are first read.

A Hessian that is the same at every node (a quadratic's, or a nonnegative
multiple of it) is returned as a broadcast view whose node axis has stride
0; :func:`unbroadcast` reads it as its single row, so that consumers
compute on it once per node block.  The node kernels (:func:`outer`,
:func:`quadratic_form`, :func:`node_matmul`) do the small dense algebra on
(N, ...) node arrays at elementwise cost: a sum of products is summed term
by term, in a fixed order, from zero.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .coefficients import CoefficientFn
from .polynomials import Q, _as_fraction


class NonsmoothPointError(ValueError):
    """Gradient/Hessian requested where only the polyhedral path is valid."""


class CatalogError(ValueError):
    pass


def _frac_vector(v, n):
    if len(v) != n:
        raise CatalogError(f"a vector needs {n} entries, got {len(v)}")
    return tuple(_as_fraction(x) for x in v)


# -- node kernels ------------------------------------------------------------------


def unbroadcast(H: np.ndarray) -> np.ndarray:
    """``H[:1]`` if the node axis of ``H`` has stride 0, as in a constant
    Hessian's broadcast view, else ``H``: arithmetic on the result
    broadcasts back to every node with the same floats, at the cost of one
    node."""
    return H[:1] if H.strides[0] == 0 else H


def _scale_broadcast(t: float, H: np.ndarray) -> np.ndarray:
    """``t * H``, a broadcast view again if ``H`` is one."""
    row = unbroadcast(H)
    return t * H if row is H else np.broadcast_to(t * row, H.shape)


def quadratic_form(U: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``u^T M u`` for each row u of ``U``: the products ``(u_i M_ij) u_j``
    summed i outer, j inner, from zero."""
    m = M.shape[0]
    out = np.zeros(U.shape[0])
    for i in range(m):
        for j in range(m):
            out += U[:, i] * M[i, j] * U[:, j]
    return out


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The (N, p, q) outer products of the rows of ``a`` and ``b``."""
    out = np.empty(a.shape + b.shape[1:])
    for i in range(a.shape[1]):
        for j in range(b.shape[1]):
            np.multiply(a[:, i], b[:, j], out=out[:, i, j])
    return out


def node_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A[k] @ B[k]`` for each node k, shape (N, p, q) from (N, p, r) and
    (N, r, q): each entry is the sum of its r products, accumulated from
    zero."""
    N, p, r = A.shape
    out = np.empty((N, p, B.shape[2]))
    for i in range(p):
        for j in range(B.shape[2]):
            acc = np.zeros(N)
            for k in range(r):
                acc += A[:, i, k] * B[:, k, j]
            out[:, i, j] = acc
    return out


# -- the catalog -------------------------------------------------------------------


class ConvexFunction:
    """Base class; subclasses implement the numeric oracles."""

    n: int
    smooth: bool = True
    # the degree of the gradient when it is a polynomial in x, else None
    gradient_degree: int | None = None

    def eval_array(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def gradient_array(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hessian_array(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jet(self, X: np.ndarray) -> tuple:
        """``(gradient_array(X), hessian_array(X))``; variants that share
        work between the two oracles override it."""
        return self.gradient_array(X), self.hessian_array(X)

    def sup_abs_bound(self, rho: float) -> float:
        """Certified upper bound for sup_{|x| <= rho} |f|."""
        raise NotImplementedError

    # convenience single-point wrappers
    def eval(self, x) -> float:
        return float(self.eval_array(np.asarray(x, dtype=float)[None, :])[0])

    def gradient(self, x) -> np.ndarray:
        return self.gradient_array(np.asarray(x, dtype=float)[None, :])[0]

    def hessian(self, x) -> np.ndarray:
        return self.hessian_array(np.asarray(x, dtype=float)[None, :])[0]

    def describe(self) -> str:
        return type(self).__name__


class Quadratic(ConvexFunction):
    """f(x) = x^T A x / 2 + b.x + c with A symmetric positive semidefinite.

    A, b, c may be given as exact rationals; only their floats are kept.
    """

    gradient_degree = 1

    def __init__(self, A, b=None, c=0):
        A = np.atleast_2d(np.asarray(A, dtype=object))
        n = A.shape[0]
        if A.shape != (n, n) or b is not None and len(b) != n:
            raise CatalogError("quadratic needs a square matrix A and len(b) = len(A)")
        self.n = n
        try:
            self._Af = np.array([[float(_as_fraction(v)) for v in row] for row in A])
        except TypeError:
            raise CatalogError("quadratic matrix entries must be numbers") from None
        if not np.allclose(self._Af, self._Af.T):
            raise CatalogError("quadratic matrix must be symmetric")
        eig = np.linalg.eigvalsh(self._Af)
        if eig.min() < -1e-10:
            raise CatalogError("quadratic matrix must be positive semidefinite")
        self._bf = np.array([float(v) for v in _frac_vector(b if b is not None else [0] * n, n)])
        self._cf = float(_as_fraction(c))

    def eval_array(self, X):
        return 0.5 * quadratic_form(X, self._Af) + X @ self._bf + self._cf

    def gradient_array(self, X):
        return X @ self._Af.T + self._bf

    def hessian_array(self, X):
        """The constant Hessian as a read-only (N, n, n) broadcast view:
        its node axis has stride 0, so consumers read it once per block
        (:func:`unbroadcast`)."""
        return np.broadcast_to(self._Af, (X.shape[0],) + self._Af.shape)

    def sup_abs_bound(self, rho):
        lam = max(float(np.linalg.eigvalsh(self._Af).max()), 0.0)
        return 0.5 * lam * rho * rho + float(np.linalg.norm(self._bf)) * rho + abs(self._cf) + 1e-12

    def describe(self):
        return f"quadratic(n={self.n})"


class MaxAffine(ConvexFunction):
    """f(x) = max_i (a_i . x + b_i), exact rational pieces.

    Duplicate pieces are removed at construction.  For n <= 2, pieces
    dominated everywhere are pruned when ``pieces`` (or a numeric oracle)
    is first read, so a function that is built but never evaluated costs
    no exact pruning.
    """

    smooth = False

    def __init__(self, pieces: Sequence, prune: bool = True):
        if not pieces:
            raise CatalogError("max-affine needs at least one piece")
        n = len(pieces[0][0])
        self.n = n
        seen = {}
        for a, b in pieces:
            a = _frac_vector(a, n)
            b = _as_fraction(b)
            # identical gradient: only the largest offset survives
            if a in seen:
                seen[a] = max(seen[a], b)
            else:
                seen[a] = b
        self._pieces = sorted(seen.items())
        self._prune = prune and n <= 2 and len(self._pieces) > 1

    @property
    def pieces(self) -> list:
        """The sorted ``(a, b)`` pieces, pruned on first read."""
        if self._prune:
            from .polyhedral import prune_dominated_pieces

            self._pieces = prune_dominated_pieces(self._pieces)
            self._prune = False
        return self._pieces

    @cached_property
    def _af(self) -> np.ndarray:
        return np.array([[float(v) for v in a] for a, _ in self.pieces])

    @cached_property
    def _bf(self) -> np.ndarray:
        return np.array([float(b) for _, b in self.pieces])

    @property
    def m(self) -> int:
        return len(self.pieces)

    def eval_array(self, X):
        return (X @ self._af.T + self._bf).max(axis=1)

    def _active(self, x):
        vals = self._af @ np.asarray(x, dtype=float) + self._bf
        top = vals.max()
        return np.nonzero(vals >= top - 1e-12 * max(1.0, abs(top)))[0]

    def gradient_array(self, X):
        out = np.empty_like(np.asarray(X, dtype=float))
        for i, x in enumerate(np.asarray(X, dtype=float)):
            act = self._active(x)
            if len(act) > 1:
                raise NonsmoothPointError(
                    "nonsmooth point: use the polyhedral evaluation path")
            out[i] = self._af[act[0]]
        return out

    def hessian_array(self, X):
        self.gradient_array(X)  # raises on nonsmooth points
        return np.zeros((X.shape[0], self.n, self.n))

    def sup_abs_bound(self, rho):
        norms = np.linalg.norm(self._af, axis=1)
        upper = float((norms * rho + self._bf).max())
        lower_neg = float((norms * rho - self._bf).min())
        return max(upper, lower_neg, 0.0)

    def shift(self, lam, c) -> "MaxAffine":
        return MaxAffine([([ai + _as_fraction(l) for ai, l in zip(a, lam)],
                           b + _as_fraction(c)) for a, b in self.pieces], prune=False)

    def scale(self, t) -> "MaxAffine":
        t = _as_fraction(t)
        if t < 0:
            raise CatalogError("scaling factor must be nonnegative")
        if t == 0:
            return MaxAffine([([Q(0)] * self.n, Q(0))], prune=False)
        return MaxAffine([([t * ai for ai in a], t * b) for a, b in self.pieces], prune=False)

    def describe(self):
        return f"maxaffine(n={self.n}, m={self.m})"


class LogSumExp(ConvexFunction):
    """Smoothing of a max-affine function: log sum exp(beta g_i) / beta.

    Lies within [0, log(m)/beta] above the max-affine value everywhere.
    """

    def __init__(self, base: MaxAffine, beta: float):
        if beta <= 0:
            raise CatalogError("beta must be positive")
        self.base = base
        self.beta = float(beta)
        self.n = base.n

    def _weights(self, X):
        """Softmax weights of shape (N, m): the transposed view of a
        node-major (m, N) array, computed in place, whose reductions over
        the few pieces run along contiguous node rows."""
        w = self.beta * (self.base._af @ X.T + self.base._bf[:, None])
        w -= w.max(axis=0)
        np.exp(w, out=w)
        w /= w.sum(axis=0)
        return w.T

    def eval_array(self, X):
        z = self.beta * (X @ self.base._af.T + self.base._bf)
        top = z.max(axis=1)
        return (top + np.log(np.exp(z - top[:, None]).sum(axis=1))) / self.beta

    def gradient_array(self, X, weights=None):
        """``weights``: the softmax weights ``_weights(X)``, if known."""
        if weights is None:
            weights = self._weights(X)
        w = weights.T  # node-major (m, N)
        return (self.base._af.T @ w).T

    def hessian_array(self, X, weights=None, mean=None):
        """``weights`` as for :meth:`gradient_array`; ``mean``: the
        node-major (n, N) softmax mean of the gradients, the transpose of
        ``gradient_array(X, weights)``, if known."""
        if weights is None:
            weights = self._weights(X)
        w = weights.T  # node-major (m, N)
        a = self.base._af
        n = a.shape[1]
        if mean is None:
            mean = a.T @ w
        # beta * (E[a a^T] - E[a] E[a]^T) under the softmax weights
        aa = (a[:, :, None] * a[:, None, :]).reshape(len(a), n * n)
        second = (aa.T @ w).reshape(n, n, -1)
        for i in range(n):
            second[i] -= mean[i] * mean
        second *= self.beta
        return second.transpose(2, 0, 1)

    def jet(self, X):
        """Both oracles on one softmax and one mean, the gradient."""
        w = self._weights(X)
        Y = self.gradient_array(X, weights=w)
        return Y, self.hessian_array(X, weights=w, mean=Y.T)

    def sup_abs_bound(self, rho):
        return self.base.sup_abs_bound(rho) + math.log(self.base.m) / self.beta

    def describe(self):
        return f"lse(n={self.n}, m={self.base.m}, beta={self.beta})"


class SmoothCatalog(ConvexFunction):
    """Closed-form smooth entries: sqrt1p (sqrt(1+|x|^2)) and quartic (|x|^4/4)."""

    NAMES = ("sqrt1p", "quartic")

    def __init__(self, name: str, n: int):
        if name not in self.NAMES:
            raise CatalogError(f"unknown smooth catalog entry {name!r}")
        self.name = name
        self.n = n
        self.gradient_degree = 3 if name == "quartic" else None

    def eval_array(self, X):
        r2 = (X * X).sum(axis=1)
        if self.name == "sqrt1p":
            return np.sqrt(1.0 + r2)
        return 0.25 * r2 * r2

    def gradient_array(self, X):
        r2 = (X * X).sum(axis=1)
        if self.name == "sqrt1p":
            return X / np.sqrt(1.0 + r2)[:, None]
        return X * r2[:, None]

    def hessian_array(self, X):
        return self.jet(X)[1]

    def jet(self, X):
        """Both oracles on one r^2 (and, for sqrt1p, one square root)."""
        N, n = X.shape
        r2 = (X * X).sum(axis=1)
        eye = np.broadcast_to(np.eye(n), (N, n, n))
        xx = outer(X, X)
        if self.name == "sqrt1p":
            f = np.sqrt(1.0 + r2)
            return (X / f[:, None],
                    eye / f[:, None, None] - xx / (f ** 3)[:, None, None])
        return X * r2[:, None], eye * r2[:, None, None] + 2.0 * xx

    def sup_abs_bound(self, rho):
        if self.name == "sqrt1p":
            return math.sqrt(1.0 + rho * rho)
        return 0.25 * rho ** 4

    def describe(self):
        return f"{self.name}(n={self.n})"


class Shifted(ConvexFunction):
    """inner + lambda . x + c."""

    def __init__(self, inner: ConvexFunction, lam, c):
        self.inner = inner
        self.n = inner.n
        self.lam = _frac_vector(lam, self.n)
        self.c = _as_fraction(c)
        self.smooth = inner.smooth
        self.gradient_degree = inner.gradient_degree
        self._lamf = np.array([float(v) for v in self.lam])
        self._cf = float(self.c)

    def eval_array(self, X):
        return self.inner.eval_array(X) + X @ self._lamf + self._cf

    def gradient_array(self, X):
        return self.inner.gradient_array(X) + self._lamf

    def hessian_array(self, X):
        return self.inner.hessian_array(X)

    def jet(self, X):
        Y, H = self.inner.jet(X)
        return Y + self._lamf, H

    def sup_abs_bound(self, rho):
        return self.inner.sup_abs_bound(rho) + float(np.linalg.norm(self._lamf)) * rho + abs(self._cf)

    def describe(self):
        return f"shifted({self.inner.describe()})"


class Scaled(ConvexFunction):
    """t * inner for t >= 0."""

    def __init__(self, inner: ConvexFunction, t):
        t = _as_fraction(t)
        if t < 0:
            raise CatalogError("scaling factor must be nonnegative")
        self.inner = inner
        self.n = inner.n
        self.t = t
        self._tf = float(t)
        self.smooth = inner.smooth or t == 0
        self.gradient_degree = inner.gradient_degree

    def eval_array(self, X):
        if self._tf == 0.0:
            return np.zeros(X.shape[0])
        return self._tf * self.inner.eval_array(X)

    def gradient_array(self, X):
        if self._tf == 0.0:
            return np.zeros_like(np.asarray(X, dtype=float))
        return self._tf * self.inner.gradient_array(X)

    def hessian_array(self, X):
        if self._tf == 0.0:
            return np.zeros((X.shape[0], self.n, self.n))
        return _scale_broadcast(self._tf, self.inner.hessian_array(X))

    def jet(self, X):
        if self._tf == 0.0:
            return super().jet(X)
        Y, H = self.inner.jet(X)
        return self._tf * Y, _scale_broadcast(self._tf, H)

    def sup_abs_bound(self, rho):
        return self._tf * self.inner.sup_abs_bound(rho)

    def describe(self):
        return f"scaled({self.inner.describe()}, t={self.t})"


class SmoothField:
    """Smooth (not necessarily convex) scalar field on R^n with exact partials.

    Wraps a coefficient function of x only; gradients and Hessians evaluate
    the exact derivative coefficients.
    """

    def __init__(self, coeff: CoefficientFn):
        if coeff.depends_on_y() or coeff.has_params():
            raise CatalogError("perturbation fields live on x only")
        self.coeff = coeff
        self.n = coeff.n
        self._grad = [coeff.diff(i) for i in range(self.n)]
        self._hess = [[self._grad[i].diff(j) for j in range(self.n)] for i in range(self.n)]

    def eval_array(self, X):
        return self.coeff.eval_x_array(X)

    def gradient_array(self, X):
        return np.stack([g.eval_x_array(X) for g in self._grad], axis=-1)

    def hessian_array(self, X):
        N = X.shape[0]
        H = np.empty((N, self.n, self.n))
        for i in range(self.n):
            for j in range(i, self.n):
                H[:, i, j] = H[:, j, i] = self._hess[i][j].eval_x_array(X)
        return H

    def sup_abs_bound(self, rho):
        # coarse certified bound: grid maximum inflated by a safety factor
        grid = np.linspace(-rho, rho, 41)
        pts = np.stack(np.meshgrid(*([grid] * self.n), indexing="ij"), axis=-1).reshape(-1, self.n)
        return 2.0 * float(np.abs(self.eval_array(pts)).max()) + 1e-9


class Perturbed(ConvexFunction):
    """inner + t * psi, convex for |t| within a declared window on a box.

    Convexity is spot-checked on a sample grid at construction.  Its
    gradient degree is max(that of inner, deg psi - 1) when inner has one
    and psi has no bump.  A windowed psi makes the gradient a polynomial on
    the window alone, which must then hold the supports integrated over.
    """

    def __init__(self, inner: ConvexFunction, psi: SmoothField, t: float,
                 window: float, box: Sequence[tuple], check: bool = True):
        if abs(t) > window:
            raise CatalogError("perturbation parameter outside the declared window")
        if not inner.smooth:
            raise CatalogError("perturbed variant needs a smooth inner function")
        self.inner = inner
        self.psi = psi
        self.n = inner.n
        self.t = float(t)
        self.window = float(window)
        self.box = box
        if inner.gradient_degree is not None and not psi.coeff.has_bump():
            top = max((p.total_degree() for p in psi.coeff.atoms.values()), default=0)
            self.gradient_degree = max(inner.gradient_degree, top - 1)
        if check:
            self._spot_check()

    def _spot_check(self):
        axes = [np.linspace(float(lo), float(hi), 5) for lo, hi in self.box]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.n)
        for s in (-self.window, self.window):
            H = self.inner.hessian_array(pts) + s * self.psi.hessian_array(pts)
            if np.linalg.eigvalsh(H).min() < -1e-8:
                raise CatalogError("perturbation violates convexity on the box")

    def eval_array(self, X):
        return self.inner.eval_array(X) + self.t * self.psi.eval_array(X)

    def gradient_array(self, X):
        return self.inner.gradient_array(X) + self.t * self.psi.gradient_array(X)

    def hessian_array(self, X):
        return self.inner.hessian_array(X) + self.t * self.psi.hessian_array(X)

    def sup_abs_bound(self, rho):
        return self.inner.sup_abs_bound(rho) + abs(self.t) * self.psi.sup_abs_bound(rho)

    def describe(self):
        return f"perturbed({self.inner.describe()}, t={self.t})"


# -- piecewise-linear functions on R (possibly non-convex) -----------------------


class PiecewiseLinear1D:
    """Continuous piecewise-linear function on R with exact breakpoints.

    ``breaks`` strictly increasing; ``slopes`` has one more entry; ``value0``
    anchors the function at x = 0.  Not required to be convex.

    Layout: integers over one positive denominator D = ``den``, as in the
    packed :class:`~cycleval.polynomials.Poly`.  Break i is ``_b[i] / D``,
    the slope of piece i is ``_s[i] / D`` and its line s x + o has the
    offset ``_o[i] / D^2``: at x = X / D it is ``(_s[i] X + _o[i]) / D^2``.
    ``breaks``, ``slopes``, ``value0``, ``lines`` and :meth:`kinks` are exact
    Fraction views, built on first use.
    """

    def __init__(self, breaks: Sequence, slopes: Sequence, value0):
        breaks = [_as_fraction(b) for b in breaks]
        if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
            raise CatalogError("breakpoints must be strictly increasing")
        slopes = [_as_fraction(s) for s in slopes]
        if len(slopes) != len(breaks) + 1:
            raise CatalogError("need len(breaks) + 1 slopes")
        value0 = _as_fraction(value0)
        D = math.lcm(value0.denominator, *(q.denominator for q in breaks + slopes))
        B, S = ([q.numerator * (D // q.denominator) for q in qs] for qs in (breaks, slopes))
        # offsets by continuity at the breaks, shifted so that the piece at 0
        # passes through value0
        O = [0]
        for i, b in enumerate(B):
            O.append(O[i] + (S[i] - S[i + 1]) * b)
        c = value0.numerator * (D // value0.denominator) * D - O[bisect.bisect_right(B, 0)]
        self._set(D, B, S, [o + c for o in O])

    def _set(self, D, B, S, O):
        """Hold the pieces ``S``, ``O`` between the breaks ``B`` over ``D``,
        without the breaks where the slope does not change."""
        keep = [i for i in range(len(B)) if S[i] != S[i + 1]]
        self.den = D
        self._b = [B[i] for i in keep]
        self._s = [S[0]] + [S[i + 1] for i in keep]
        self._o = [O[0]] + [O[i + 1] for i in keep]

    @classmethod
    def from_max_affine(cls, f: MaxAffine) -> "PiecewiseLinear1D":
        if f.n != 1:
            raise CatalogError("only 1D max-affine functions convert")
        pieces = sorted((a[0], b) for a, b in f.pieces)
        # upper envelope of lines, left to right
        slopes = [pieces[0][0]]
        offs = [pieces[0][1]]
        breaks: list[Fraction] = []
        for a, b in pieces[1:]:
            while True:
                a0, b0 = slopes[-1], offs[-1]
                if a == a0:
                    break
                x = (b0 - b) / (a - a0)
                if breaks and x <= breaks[-1]:
                    breaks.pop()
                    slopes.pop()
                    offs.pop()
                    continue
                breaks.append(x)
                slopes.append(a)
                offs.append(b)
                break
        idx = sum(1 for b in breaks if b <= 0)
        return cls(breaks, slopes, offs[idx])

    def over(self, d: int) -> tuple:
        """Breaks and slopes as integers over d, a multiple of ``den``, and
        offsets over d²."""
        k = d // self.den
        if k == 1:
            return self._b, self._s, self._o
        return [b * k for b in self._b], [s * k for s in self._s], [o * k * k for o in self._o]

    @cached_property
    def breaks(self) -> list:
        return [Q(b, self.den) for b in self._b]

    @cached_property
    def slopes(self) -> list:
        return [Q(s, self.den) for s in self._s]

    @cached_property
    def lines(self) -> list:
        """Per-segment (slope, offset) with f(x) = s x + o on the segment."""
        return [(s, Q(o, self.den ** 2)) for s, o in zip(self.slopes, self._o)]

    @property
    def value0(self) -> Fraction:
        return self.eval_exact(0)

    def eval_exact(self, x) -> Fraction:
        x = _as_fraction(x)
        p, q, D = x.numerator, x.denominator, self.den
        # break i lies at or left of x iff _b[i] <= floor(x D)
        i = bisect.bisect_right(self._b, p * D // q)
        return Q(self._s[i] * p * D + self._o[i] * q, D * D * q)

    def eval_array(self, X):
        X = np.asarray(X, dtype=float).reshape(-1)
        D = self.den
        # int / int is correctly rounded, as the float of the Fraction is
        idx = np.searchsorted([b / D for b in self._b], X, side="right")
        out = np.empty_like(X)
        for i, (s, o) in enumerate(zip(self._s, self._o)):
            m = idx == i
            out[m] = s / D * X[m] + o / D ** 2
        return out

    def kinks(self):
        """List of (breakpoint, left slope, right slope)."""
        return list(zip(self.breaks, self.slopes, self.slopes[1:]))

    def pointwise(self, other: "PiecewiseLinear1D", take_max: bool) -> "PiecewiseLinear1D":
        """max (``take_max``) or min of two functions, in one left-to-right
        merge of their breaks over a common denominator D.  Between
        consecutive breaks both are lines, which cross at most once: left of
        the crossing the smaller slope is the larger line, right of it the
        larger slope.  A crossing x = P / (R D) is placed among the breaks by
        integer cross-multiplication; the result is brought over one
        denominator at the end."""
        D = math.lcm(self.den, other.den)
        fb, fs, fo = self.over(D)
        gb, gs, go = other.over(D)
        i = j = 0
        lo = None
        cuts, pieces = [], []  # (P, R) with x = P / (R D); (slope, offset)
        while True:
            f, g = (fs[i], fo[i]), (gs[j], go[j])
            nf = fb[i] if i < len(fb) else None
            ng = gb[j] if j < len(gb) else None
            hi = ng if nf is None else nf if ng is None else min(nf, ng)
            if f[0] == g[0]:
                pieces.append(max(f, g) if take_max else min(f, g))
            else:
                low, high = (f, g) if f[0] < g[0] else (g, f)
                left, right = (low, high) if take_max else (high, low)
                P, R = low[1] - high[1], high[0] - low[0]
                if hi is not None and P >= hi * R:
                    pieces.append(left)
                elif lo is not None and P <= lo * R:
                    pieces.append(right)
                else:
                    pieces += [left, right]
                    cuts.append((P, R))
            if hi is None:
                break
            cuts.append((hi, 1))
            i += nf == hi
            j += ng == hi
            lo = hi
        Dn = math.lcm(D, *(R * D // math.gcd(P, R * D) for P, R in cuts if R != 1))
        k = Dn // D
        out = object.__new__(PiecewiseLinear1D)
        out._set(Dn, [P * k // R for P, R in cuts], [s * k for s, _ in pieces],
                 [o * k * k for _, o in pieces])
        return out

    def maximum(self, other):
        return self.pointwise(other, True)

    def minimum(self, other):
        return self.pointwise(other, False)

    def describe(self):
        return f"pwl1d(kinks={len(self._b)})"


# -- convex bodies via support functions ------------------------------------------


class ConvexBody:
    """Body in R^{n+1} described by its support function with oracles on
    R^{n+1} minus the origin."""

    n_ambient: int

    def h_array(self, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_h_array(self, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess_h_array(self, U: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def leading_jet(self, U: np.ndarray, k: int) -> tuple:
        """Gradient and Hessian of h at U in the first k coordinates only:
        ``(N, k)`` and ``(N, k, k)``, the leading blocks of ``grad_h_array``
        and ``hess_h_array``; bodies that can skip the rest override it."""
        return self.grad_h_array(U)[:, :k], self.hess_h_array(U)[:, :k, :k]

    def gauge_bound(self) -> float:
        """Certified bound for sup_{|u|=1} |h(u)|."""
        raise NotImplementedError

    def spot_check(self, rng=None):
        rng = rng or np.random.default_rng(0)
        U = rng.normal(size=(16, self.n_ambient))
        U = U[np.linalg.norm(U, axis=1) > 0.3]
        s = 1.0 + rng.random(len(U))
        hu = self.h_array(U)
        hsu = self.h_array(U * s[:, None])
        assert np.allclose(hsu, s * hu, rtol=1e-9), "support function must be 1-homogeneous"
        g = self.grad_h_array(U)
        g2 = self.grad_h_array(U * s[:, None])
        assert np.allclose(g, g2, rtol=1e-8, atol=1e-10), "gradient must be 0-homogeneous"

    def describe(self) -> str:
        return type(self).__name__


def _ellipsoid_hessian(M: np.ndarray, h: np.ndarray, MU: np.ndarray) -> np.ndarray:
    """M / h - (M u)(M u)^T / h^3 at each node, k x k for the k columns of
    ``MU``, in one (N, k, k) array: each entry as the broadcast expression
    gives it."""
    H = outer(MU, MU)
    H /= (h ** 3)[:, None, None]
    for i in range(H.shape[1]):
        for j in range(H.shape[2]):
            np.subtract(M[i, j] / h, H[:, i, j], out=H[:, i, j])
    return H


class EllipsoidBody(ConvexBody):
    """h(u) = sqrt(u^T M u) for symmetric positive definite M."""

    def __init__(self, M):
        M = np.asarray(M, dtype=float)
        self.M = 0.5 * (M + M.T)
        self.n_ambient = M.shape[0]
        if np.linalg.eigvalsh(self.M).min() <= 1e-12:
            raise CatalogError("ellipsoid matrix must be positive definite")
        self.spot_check()

    def h_array(self, U):
        return np.sqrt(quadratic_form(U, self.M))

    def grad_h_array(self, U):
        MU = U @ self.M.T
        return MU / self.h_array(U)[:, None]

    def hess_h_array(self, U):
        h = self.h_array(U)
        return _ellipsoid_hessian(self.M, h, U @ self.M.T)

    def leading_jet(self, U, k):
        """One h and one M U for both blocks, each entry computed as in
        ``grad_h_array`` and ``hess_h_array``."""
        h = self.h_array(U)
        MU = (U @ self.M.T)[:, :k]
        return MU / h[:, None], _ellipsoid_hessian(self.M, h, MU)


    def gauge_bound(self):
        return math.sqrt(float(np.linalg.eigvalsh(self.M).max())) + 1e-12

    def describe(self):
        return f"ellipsoid(dim={self.n_ambient})"


class PointBody(ConvexBody):
    """Degenerate body {p}: h(u) = p . u."""

    def __init__(self, p):
        self.p = np.asarray(p, dtype=float)
        self.n_ambient = len(self.p)

    def h_array(self, U):
        return U @ self.p

    def grad_h_array(self, U):
        return np.broadcast_to(self.p, U.shape).copy()

    def hess_h_array(self, U):
        return np.zeros((U.shape[0], self.n_ambient, self.n_ambient))

    def gauge_bound(self):
        return float(np.linalg.norm(self.p)) + 1e-12

    def describe(self):
        return f"point({self.p.tolist()})"


class SmoothedBoxBody(ConvexBody):
    """h(u) = (sum (a_i u_i)^4)^{1/4} + eps |u|: a box smoothed into a body
    with positive curvature."""

    def __init__(self, halfwidths, eps=0.1):
        self.a = np.asarray(halfwidths, dtype=float)
        if (self.a <= 0).any():
            raise CatalogError("halfwidths must be positive")
        self.eps = float(eps)
        if self.eps <= 0:
            raise CatalogError("smoothing radius must be positive")
        self.n_ambient = len(self.a)
        self.spot_check()

    def h_array(self, U):
        g4 = ((self.a * U) ** 4).sum(axis=1)
        return g4 ** 0.25 + self.eps * np.linalg.norm(U, axis=1)

    def grad_h_array(self, U):
        c = self.a ** 4
        g = (((self.a * U) ** 4).sum(axis=1)) ** 0.25
        r = np.linalg.norm(U, axis=1)
        return (c * U ** 3) / (g ** 3)[:, None] + self.eps * U / r[:, None]

    def hess_h_array(self, U):
        N, m = U.shape
        c = self.a ** 4
        g = (((self.a * U) ** 4).sum(axis=1)) ** 0.25
        r = np.linalg.norm(U, axis=1)
        grad4 = (c * U ** 3) / (g ** 3)[:, None]
        eye = np.broadcast_to(np.eye(m), (N, m, m))
        H = np.zeros((N, m, m))
        for i in range(m):
            H[:, i, i] += 3.0 * c[i] * U[:, i] ** 2 / g ** 3
        H -= 3.0 * outer(grad4, grad4) / g[:, None, None]
        uhat = U / r[:, None]
        H += self.eps * (eye - outer(uhat, uhat)) / r[:, None, None]
        return H

    def gauge_bound(self):
        return float(self.a.max()) * self.n_ambient ** 0.25 + self.eps + 1e-12

    def describe(self):
        return f"smoothbox(a={self.a.tolist()}, eps={self.eps})"


class BodyRestriction(ConvexFunction):
    """f_K(x) = h_K(x, -1): the convex function attached to a body in R^{n+1}."""

    def __init__(self, body: ConvexBody):
        self.body = body
        self.n = body.n_ambient - 1
        if self.n < 1:
            raise CatalogError("body must live in dimension >= 2")

    def _lift(self, X):
        U = np.empty((X.shape[0], self.n + 1))
        U[:, :self.n] = X
        U[:, self.n] = -1.0
        return U

    def eval_array(self, X):
        return self.body.h_array(self._lift(X))

    def gradient_array(self, X):
        return self.body.grad_h_array(self._lift(X))[:, :self.n]

    def hessian_array(self, X):
        return self.jet(X)[1]

    def jet(self, X):
        """Both oracles on one lift, in the n x n block only."""
        return self.body.leading_jet(self._lift(X), self.n)

    def sup_abs_bound(self, rho):
        return self.body.gauge_bound() * math.sqrt(1.0 + rho * rho)

    def describe(self):
        return f"restriction({self.body.describe()})"


def body_restriction(K: ConvexBody) -> BodyRestriction:
    return BodyRestriction(K)


# -- routing helpers -----------------------------------------------------------------


def as_max_affine(f: ConvexFunction) -> Optional[MaxAffine]:
    """Unwrap shifts/scalings of a max-affine function exactly, else None."""
    if isinstance(f, MaxAffine):
        return f
    if isinstance(f, Shifted):
        inner = as_max_affine(f.inner)
        return inner.shift(f.lam, f.c) if inner is not None else None
    if isinstance(f, Scaled):
        inner = as_max_affine(f.inner)
        return inner.scale(f.t) if inner is not None else None
    return None


def wrapped_lse(f: ConvexFunction) -> Optional[LogSumExp]:
    """The log-sum-exp smoothing under shifts and scalings of ``f``, if any:
    its max-affine base marks the Hessian ridges of ``f``."""
    while isinstance(f, (Shifted, Scaled)):
        f = f.inner
    return f if isinstance(f, LogSumExp) else None
