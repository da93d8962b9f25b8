"""The symplectic Rumin operator and the analyzers built on it.

For an n-form tau on T*R^n the operator factors through the Lefschetz
inverse: ``d_bar(tau) = L^{-1}(d tau)`` and ``rumin_d(tau) = d(d_bar(tau))``.
The second operator is primitive, kills multiples of omega_s and closed
forms, and commutes with symplectomorphisms; those identities are exact
here and the analyzers below turn them into decision procedures for the
valuation-theoretic character of tau (constancy, homogeneity, vertical
translation invariance, invariance under linear groups, membership in the
image of the operator on vertically invariant forms).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .coefficients import CoefficientFn
from .forms import (
    DegreeError,
    Form,
    exterior_derivative,
    fiber_scaling,
    integrate_coefficient,
    integrate_zero_section,
    lefschetz_L_inverse,
    linear_lift,
    pullback,
    standard_symplectic_form,
    vertical_translation,
    wedge,
    zero_section_coefficient,
)
from .exactla import det, inverse
from .polynomials import Poly, Q, _as_fraction
from .report import scale_of, within

# Quadrature integrals this close to zero (scaled by max(1, |integral|) for
# the moments and G-integrals) count as zero; exact ones must be exactly 0.
QUAD_ZERO_TOL = 1e-9


def d_bar(tau: Form) -> Form:
    """The unique (n-1)-form with omega_s ^ d_bar(tau) = d(tau)."""
    if tau.degree != tau.n:
        raise DegreeError("operator defined on middle-degree forms")
    return lefschetz_L_inverse(exterior_derivative(tau))


def rumin_d(tau: Form) -> Form:
    """Second-order operator d(L^{-1}(d tau)); primitive middle-degree output."""
    return exterior_derivative(d_bar(tau))


@dataclass
class RuminResult:
    d_bar: Form
    D_bar: Form

    @classmethod
    def of(cls, tau: Form) -> "RuminResult":
        db = d_bar(tau)
        return cls(d_bar=db, D_bar=exterior_derivative(db))


def is_vertically_invariant(a: Form) -> bool:
    """True iff the pullback under (x, y) -> (x, y + lambda) equals a
    identically in the symbolic parameter lambda."""
    phi = vertical_translation(a.n)
    return pullback(phi, a) == a


def homogeneity_degree(a: Form):
    """The unique k with m_t^* a = t^k a identically in t, else "mixed".

    The zero form reports 0.
    """
    if a.is_zero():
        return 0
    n = a.n
    mt = fiber_scaling(n)
    pulled = pullback(mt, a)
    tslot = 2 * n
    degree: Optional[int] = None
    for key, c in pulled.terms.items():
        for poly in c.atoms.values():
            for e in poly.terms:
                k = e[tslot] if poly.nvars > tslot else 0
                if degree is None:
                    degree = k
                elif degree != k:
                    return "mixed"
    # uniform t-power: strip it and compare against the original
    stripped = pulled.map_coefficients(lambda c: _strip_param_power(c, tslot, degree or 0))
    if stripped == a:
        return degree or 0
    return "mixed"


def _strip_param_power(c: CoefficientFn, slot: int, power: int) -> CoefficientFn:
    out = {}
    for sig, poly in c.atoms.items():
        terms = {}
        for e, v in poly.terms.items():
            if poly.nvars <= slot:
                if power:
                    raise AssertionError("missing parameter slot")
                terms[e] = v
                continue
            if e[slot] != power:
                raise AssertionError("non-uniform parameter power")
            e2 = list(e)
            e2[slot] = 0
            terms[tuple(e2)] = v
        out[sig] = Poly(poly.nvars, terms)
    return CoefficientFn(c.n, out, declared_box=c.declared_box)


@dataclass
class DuallyEpiReport:
    vertical_invariance: bool
    zero_section_shift_invariance: bool
    max_shift_residual: float


def dually_epi_conditions(tau: Form) -> DuallyEpiReport:
    """Criterion for the induced valuation to ignore added affine functions.

    Checks (a) that rumin_d(tau) is vertically translation invariant and
    (b) that the zero-section integral of the pullback under every vertical
    translation equals that of tau, decided coefficient-wise in the symbolic
    translation parameter.
    """
    n = tau.n
    vert = is_vertically_invariant(rumin_d(tau))
    phi = vertical_translation(n)
    diff = zero_section_coefficient(pullback(phi, tau)) - zero_section_coefficient(tau)
    residual = 0.0
    ok = True
    for part in _split_by_params(diff, 2 * n):
        val = integrate_coefficient(part).value
        residual = max(residual, abs(float(val)))
        if isinstance(val, Fraction):
            ok = ok and val == 0
        else:
            ok = ok and abs(val) <= QUAD_ZERO_TOL
    return DuallyEpiReport(vert, ok, residual)


def _split_by_params(c: CoefficientFn, base: int) -> list[CoefficientFn]:
    """Split a coefficient into pieces with fixed parameter monomials."""
    nv = max(c.nvars(), base)
    pieces: dict[tuple, dict] = {}
    for sig, poly in c.atoms.items():
        poly = poly.extend(nv)
        for e, v in poly.terms.items():
            pkey = tuple(e[base:])
            e2 = e[:base] + (0,) * (nv - base)
            bucket = pieces.setdefault(pkey, {})
            if sig not in bucket:
                bucket[sig] = {}
            bucket[sig][e2] = bucket[sig].get(e2, Q(0)) + v
    out = []
    for pkey, sigs in pieces.items():
        atoms = {sig: Poly(nv, terms) for sig, terms in sigs.items()}
        part = CoefficientFn(c.n, atoms, declared_box=c.declared_box)
        if not part.is_zero():
            out.append(part)
    return out


def image_of_dbar_membership(a: Form, k: int) -> bool:
    """Membership test for the image of the operator on Omega^{n-k,k}.

    For k >= 2 the image is ker d intersect ker L in bidegree
    (n-k+1, k-1), decided exactly.  For k = 1 it is the set of multiples
    phi(x) vol_x whose mass and first moments vanish; the moment integrals
    are exact for odd integrands and quadrature otherwise (bump kind).
    """
    n = a.n
    if a.degree != n:
        raise DegreeError("membership test expects an n-form")
    if not (1 <= k <= n):
        raise ValueError("k out of range")
    if not a.is_zero():
        # an n-form with n - k + 1 dx factors in every term has k - 1 dy factors
        if any(sum(v < n for v in key) != n - k + 1 for key in a.terms):
            raise ValueError(f"form is not of bidegree {(n - k + 1, k - 1)}")
        if not is_vertically_invariant(a):
            raise ValueError("form must be vertically translation invariant")
    if k >= 2:
        if not exterior_derivative(a).is_zero():
            return False
        return wedge(standard_symplectic_form(n), a).is_zero()
    # k = 1: a = phi(x) dx_1^...^dx_n
    phi = zero_section_coefficient(a)
    moments = [phi]
    for i in range(n):
        moments.append(phi * Poly.variable(2 * n, i))
    vals = [integrate_coefficient(m).value for m in moments]
    scale = scale_of(vals)
    return all(val == 0 if isinstance(val, Fraction)
               else within(abs(val), QUAD_ZERO_TOL, scale) for val in vals)


@dataclass
class GInvarianceReport:
    pullback_matches: bool
    integral_matches: bool
    integral_residual: float

    @property
    def invariant(self) -> bool:
        return self.pullback_matches and self.integral_matches


def g_invariance_conditions(tau: Form, g: Sequence[Sequence]) -> GInvarianceReport:
    """Conditions for the induced valuation to be invariant under f -> f o g.

    Checks g^* rumin_d(tau) = sign(det g) rumin_d(tau) exactly, and the
    zero-section condition  int tau = sign(det g) int (g^{-1})^* tau.
    """
    n = tau.n
    sgn = _det_sign(g, n)
    lift = linear_lift(n, g)
    Dtau = rumin_d(tau)
    pb_ok = pullback(lift, Dtau) == Dtau.scale(sgn)
    lift_inv = linear_lift(n, inverse(g))
    left = integrate_zero_section(tau).value
    right = integrate_zero_section(pullback(lift_inv, tau)).value
    if isinstance(left, Fraction) and isinstance(right, Fraction):
        int_ok = left == sgn * right
        resid = abs(float(left - sgn * right))
    else:
        resid = abs(float(left) - sgn * float(right))
        int_ok = within(resid, QUAD_ZERO_TOL, scale_of([left]))
    return GInvarianceReport(pb_ok, int_ok, resid)


def _det_sign(g, n: int) -> int:
    d = det([[_as_fraction(g[i][j]) for j in range(n)] for i in range(n)])
    if d == 0:
        raise ValueError("singular linear map")
    return 1 if d > 0 else -1
