"""cycleval: a workbench for valuations on convex functions built from
differential cycles on the cotangent space.

Exact exterior calculus on T*R^n, a catalog of convex functions with
closed-form oracles, six cycle evaluators (smooth graphs, ridge-aligned
graphs, exact polyhedral Lagrangian cells, polyhedral quadrature, 1D
polylines and the conormal bridge), the symplectic second-order operator
that characterizes trivial valuations, and batch experiment suites with
machine-readable reports.

The names below are imported from their modules on first use (PEP 562), so
importing one layer of the package does not import the others.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "coefficients": ("BumpFactor", "CoefficientFn", "ball_bump"),
    "convex": ("ConvexBody", "ConvexFunction", "EllipsoidBody", "LogSumExp",
               "MaxAffine", "PiecewiseLinear1D", "PointBody", "Quadratic", "Scaled",
               "Shifted", "SmoothCatalog", "SmoothedBoxBody", "SmoothField",
               "body_restriction"),
    "forms": ("Form", "PolynomialMap", "exterior_derivative", "integrate_zero_section",
              "interior_product", "lefschetz_L", "lefschetz_L_inverse", "pullback",
              "wedge"),
    "lab": ("Valuation", "battery", "evaluate", "kernel_check", "mixed_discriminant"),
    "polynomials": ("Poly",),
    "rumin": ("RuminResult", "d_bar", "rumin_d"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_MODULES = ("coefficients", "convex", "cycles", "exactla", "forms", "lab",
            "polyhedral", "polynomials", "quadrature", "rumin")

__all__ = sorted([*_HOME, *_MODULES])


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
