"""Conormal cycles of smooth bodies and the bridge to function valuations.

A convex body K in R^{n+1} with smooth support function h has conormal cycle
(d'h x Id)_*[S(R^{n+1})].  Composing with the fiberwise-projective map
(y, s, (x, t)) -> (-x/t, y) on the lower hemisphere carries that cycle onto
the differential cycle of f_K = h(., -1).  The evaluator below integrates a
pulled-back form through that chain (hemisphere chart, support-function
oracles on the sphere, projective map), an arithmetic path disjoint from the
gradient-graph quadrature of f_K, so agreement of the two numbers is a
genuine cross-validation.

The form's coefficients are compiled once into a coefficients.CompiledBatch
weighted by the Jacobian determinant of each ``(I, J)`` term: the same
batched coefficient evaluator as the gradient-graph integrand, so the
cross-validation covers the two geometric chains, not that evaluator.  As
there, quadrature.integrate hands the integrand one node block at a time,
so the chart, oracle and Jacobian arrays are those of one block.

Orientation: the chart domain carries the standard orientation; the sign is
pinned by the unit-ball / constant-volume-form case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CompiledBatch
from .convex import ConvexBody, body_restriction, node_matmul, outer
from .cycles import eval_smooth
from .exactla import det
from .forms import Form
from .quadrature import EvalResult, integrate
from .report import scale_of


@dataclass
class SphereChart:
    """Parametrization z -> (z, -1)/sqrt(1+|z|^2) of the lower hemisphere.

    Inverse of the projective embedding of R^n into S(R^{n+1}); covers
    exactly the open lower hemisphere.
    """

    n: int

    def point(self, Z: np.ndarray) -> np.ndarray:
        w = np.sqrt(1.0 + (Z * Z).sum(axis=1))
        U = np.empty((Z.shape[0], self.n + 1))
        U[:, :self.n] = Z / w[:, None]
        U[:, self.n] = -1.0 / w
        return U

    def jacobian(self, Z: np.ndarray) -> np.ndarray:
        """dU/dz of shape (N, n+1, n)."""
        N, n = Z.shape
        w = np.sqrt(1.0 + (Z * Z).sum(axis=1))
        J = np.empty((N, n + 1, n))
        eye = np.eye(n)
        J[:, :n, :] = eye[None, :, :] / w[:, None, None] \
            - outer(Z, Z) / (w ** 3)[:, None, None]
        J[:, n, :] = Z / (w ** 3)[:, None]
        return J


@dataclass
class QMapData:
    """(y, s, (x, t)) -> (-x/t, y), defined for t < 0, with its Jacobian
    assembled along the chart chain."""

    n: int

    def project(self, U: np.ndarray) -> np.ndarray:
        """The base component -x/t for sphere points (x, t)."""
        return -U[:, :self.n] / U[:, self.n:self.n + 1]

    def project_jacobian(self, U: np.ndarray, dU: np.ndarray) -> np.ndarray:
        """d(-x/t)/dz by the quotient rule, shape (N, n, n)."""
        n = self.n
        t = U[:, n]
        x = U[:, :n]
        dt = dU[:, n, :]
        dx = dU[:, :n, :]
        return -(dx * t[:, None, None]
                 - outer(x, dt)) / (t ** 2)[:, None, None]


def conormal_eval(K: ConvexBody, tau: Form) -> EvalResult:
    """Integral of the pullback of tau over CNC(K) restricted to the lower
    hemisphere, computed in the hemisphere chart."""
    n = tau.n
    if K.n_ambient != n + 1:
        raise ValueError("body must live in R^{n+1}")
    if tau.degree != n:
        raise ValueError("expected an n-form on T*R^n")
    # every term is integrated over the one support domain, as on the
    # graph routes, which is right for a polynomial only on its own window
    tau.check_windows()
    # the base point -x/t of the chart point at z is z itself, so the
    # form's support domain is the integration domain in the chart
    domain = tau.support_domain()
    chart = SphereChart(n)
    qmap = QMapData(n)

    pieces = []
    for key, coeff in tau.terms.items():
        I = tuple(v for v in key if v < n)
        J = tuple(v - n for v in key if v >= n)
        pieces.append((0, (I, J), coeff, 1))
    batch = CompiledBatch(n, pieces)

    def integrand(Z: np.ndarray) -> np.ndarray:
        U = chart.point(Z)
        dU = chart.jacobian(Z)
        X = qmap.project(U)
        dX = qmap.project_jacobian(U, dU)
        Y = K.grad_h_array(U)[:, :n]
        dY = node_matmul(K.hess_h_array(U)[:, :n, :], dU)  # the n rows read
        dets = {}
        for I, J in batch.keys:
            rows = [dX[:, i, :] for i in I] + [dY[:, j, :] for j in J]
            dets[I, J] = det([[r[:, c] for c in range(n)] for r in rows])
        out = np.zeros((1, Z.shape[0]))
        batch.add_to(out, np.concatenate([X.T, Y.T]), dets)
        return out[0]

    return integrate(integrand, [domain])


@dataclass
class BridgeReport:
    conormal: float
    graph: float
    residual: float
    scale: float


def bridge_check(K: ConvexBody, tau: Form) -> BridgeReport:
    """Residual of the pushforward identity between the restricted conormal
    cycle of K and the differential cycle of h_K(., -1)."""
    lhs = conormal_eval(K, tau)
    fK = body_restriction(K)
    rhs = eval_smooth(fK, [tau])[0]
    return BridgeReport(float(lhs.value), float(rhs.value),
                        abs(float(lhs.value) - float(rhs.value)),
                        scale_of([lhs.value, rhs.value]))
