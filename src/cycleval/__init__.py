"""cycleval: a workbench for valuations on convex functions built from
differential cycles on the cotangent space.

Exact exterior calculus on T*R^n, a catalog of convex functions with
closed-form oracles, three cycle evaluators (smooth graphs, exact polyhedral
Lagrangian cells, 1D polylines), the symplectic second-order operator that
characterizes trivial valuations, and batch experiment suites with
machine-readable reports.
"""

__version__ = "0.1.0"

from .coefficients import BumpFactor, CoefficientFn, ball_bump
from .convex import (
    ConvexBody,
    ConvexFunction,
    EllipsoidBody,
    LogSumExp,
    MaxAffine,
    PiecewiseLinear1D,
    PointBody,
    Quadratic,
    Scaled,
    Shifted,
    SmoothCatalog,
    SmoothedBoxBody,
    SmoothField,
    body_restriction,
)
from .forms import (
    Form,
    PolynomialMap,
    exterior_derivative,
    integrate_zero_section,
    interior_product,
    lefschetz_L,
    lefschetz_L_inverse,
    pullback,
    wedge,
)
from .lab import Valuation, battery, evaluate, kernel_check, mixed_discriminant
from .polynomials import Poly
from .rumin import RuminResult, d_bar, rumin_d

__all__ = [name for name in dir() if not name.startswith("_")]
