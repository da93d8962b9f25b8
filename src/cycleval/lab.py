"""Experiment layer: valuations mu(f) = D(f)[tau] and the theorem checks.

Builds valuations from horizontally supported n-forms, routes each catalog
function to the right cycle evaluator, and packages the kernel, constancy,
homogeneity, first-variation, Hessian/mixed-discriminant and invariance
experiments used by the acceptance suites.

:func:`evaluate` takes a battery, a list of valuations and a list of
functions, and pays once for what the functions share: forms that share a
support domain are compiled once, share each function's nodes, gradients
and Hessians, and share the bump factors of each node block across the
functions.  :func:`kernel_check` reads the values computed this way.

Every graph integral, of :func:`evaluate`, of both sides of the
Hessian-valuation cross-check and of the first-variation check, runs on the
rule that ``cycles.graph_rule`` chooses for its integrand and function.

Invariance under a finite group is an average over its exactly orthogonal
matrices; invariance under SO(2) and SO(3) is exact and infinitesimal: the
lifted so(n) generators, Lie derivatives along them, and the Casimir
projection onto invariant forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .coefficients import CoefficientFn, ball_bump
from .convex import (
    BodyRestriction,
    ConvexFunction,
    EllipsoidBody,
    LogSumExp,
    MaxAffine,
    Perturbed,
    PiecewiseLinear1D,
    Quadratic,
    Scaled,
    Shifted,
    SmoothCatalog,
    SmoothField,
    as_max_affine,
    unbroadcast,
    wrapped_lse,
)
from .cycles import (
    build_1d,
    eval_polyline,
    eval_smooth,
    eval_smooth_ridge_aligned,
    graph_rule,
    pullback_batch,
)
from .exactla import det, inverse, polarized_det, solve
from .forms import (
    Form,
    _rand_frac,
    _subset_keys,
    integrate_zero_section,
    lie_derivative,
    linear_lift,
    merge_sign,
    pullback,
    random_bump_form,
)
from .polyhedral import build_polyhedral, eval_polyhedral, window_for
from .polynomials import Poly, Q, _as_fraction
from .quadrature import Ellipse, EvalResult, integrate
from .report import largest, scale_of, within
from .rumin import RuminResult, rumin_d


@dataclass
class Valuation:
    """f -> D(f)[tau] for a horizontally supported middle-degree form."""

    tau: Form
    _rumin: Optional[RuminResult] = None

    @property
    def n(self) -> int:
        return self.tau.n

    @property
    def rumin(self) -> RuminResult:
        if self._rumin is None:
            self._rumin = RuminResult.of(self.tau)
        return self._rumin


def evaluate(vals: Sequence[Valuation],
             functions: Sequence[ConvexFunction | PiecewiseLinear1D]) -> list[list[EvalResult]]:
    """D(f)[tau] for each of ``functions`` and the form tau of each
    valuation: one list per function, in order, of one result per valuation
    in order.  A single evaluation is ``evaluate([val], [f])[0][0]``.

    Routing: polyhedral for max-affine, exact polyline for 1D
    piecewise-linear, ridge-aligned quadrature for log-sum-exp smoothings,
    plain graph quadrature otherwise.  The polyhedral route builds one
    cycle per function and window, and clips each of its cells once per
    support box for all forms.  The quadrature routes group the forms by
    support domain (a bump ellipse or a box); each group is compiled once
    for the whole battery (``cycles.pullback_batch``).  On the plain route
    each form runs on the rule that ``cycles.graph_rule`` chooses for it and
    the function, with the forms of the group on the same rule, as a
    selection of the group's batch: on a function whose gradient is a polynomial, a form without
    bumps on the Gauss pair of its pullback degree, and a form on the bumps
    of one matrix, at n = 2 or 3, on the ellipse rule of that degree; the
    other forms on the group's domain.  The functions on one rule of a
    group are integrated together, in one ``eval_smooth`` call: each node
    block of the rule is made once for the battery, and one
    :class:`~cycleval.coefficients.EvalCache` per block, dropped with the
    block, holds the bump factors and a bump group's rows in x alone for
    every function.  A form's rule depends on that form and the function
    alone, and each function's block sums are added in order, so its
    results are bit for bit those of a battery of one.
    """
    forms = [val.tau for val in vals]
    out: list = [None] * len(functions)
    smooth, ridge = [], []
    for j, f in enumerate(functions):
        if isinstance(f, PiecewiseLinear1D):
            cycle = build_1d(f)
            out[j] = [eval_polyline(cycle, tau) for tau in forms]
        elif (ma := as_max_affine(f)) is not None:
            out[j] = _polyhedral_row(ma, forms)
        elif (lse := wrapped_lse(f)) is not None and lse.n <= 2:
            ridge.append(j)
        else:
            smooth.append(j)
    if not smooth and not ridge:
        return out
    domains: dict = {}
    for i, tau in enumerate(forms):
        domains.setdefault(tau.support_domain(), []).append(i)
    groups = [(idx, [forms[i] for i in idx]) for idx in domains.values()]
    batches = [pullback_batch(group) for _, group in groups]
    for j in smooth:
        out[j] = [None] * len(forms)
    for domain, (idx, group), batch in zip(domains, groups, batches):
        rules: dict = {}  # gradient degree -> the group's rows by rule
        battery: dict = {}  # rule -> the functions on it and their rows
        for j in smooth:
            f = functions[j]
            if f.gradient_degree not in rules:
                by_rule = rules[f.gradient_degree] = {}
                for row, form in enumerate(group):
                    by_rule.setdefault(graph_rule(f, form, domain), []).append(row)
            for rule, rows in rules[f.gradient_degree].items():
                battery.setdefault(rule, []).append((j, rows))
        for rule, on_rule in battery.items():
            results = eval_smooth([functions[j] for j, _ in on_rule], group, [rule],
                                  batch=batch, rows=[rows for _, rows in on_rule])
            for (j, rows), row in zip(on_rule, results):
                for r, res in zip(rows, row):
                    out[j][idx[r]] = res
    for j in ridge:
        out[j] = _ridge_row(functions[j], groups, batches, len(forms))
    return out


def _polyhedral_row(ma: MaxAffine, forms: list) -> list:
    """D(ma)[tau] for each of ``forms``, exact on one cycle per window."""
    cycles: dict = {}
    return [eval_polyhedral(_cycle_of(cycles, ma, tau.check_evaluable()), tau) for tau in forms]


def _ridge_row(f: ConvexFunction, groups: list, batches: list, count: int) -> list:
    """D(f)[tau] for the ``count`` forms of ``groups``, ``(indices, forms)``
    compiled into ``batches``, for a log-sum-exp smoothing ``f`` of a
    max-affine base in n <= 2: ridge-aligned on the cycles of the base."""
    base = wrapped_lse(f).base
    cycles: dict = {}
    row = [None] * count
    for (idx, group), batch in zip(groups, batches):
        cycle = _cycle_of(cycles, base, group[0].check_evaluable())
        results = eval_smooth_ridge_aligned(f, cycle, group, batch=batch)
        for i, res in zip(idx, results):
            row[i] = res
    return row


def _cycle_of(cycles: dict, ma: MaxAffine, box):
    """The polyhedral cycle of ``ma`` on the window of the support ``box``
    (``window_for``), kept in ``cycles`` by box; boxes with one window share
    one cycle."""
    cycle = cycles.get(box)
    if cycle is None:
        window = window_for(ma, box)
        cycle = next((c for c in cycles.values() if c.window == window), None)
        cycles[box] = cycle = cycle or build_polyhedral(ma, window=window)
    return cycle


# -- function battery ------------------------------------------------------------


def _rand_pd_matrix(rng, n, floor=Q(2, 5)):
    G = [[_rand_frac(rng, 3, 2) for _ in range(n)] for _ in range(n)]
    A = [[sum(G[k][i] * G[k][j] for k in range(n)) + (floor if i == j else 0)
          for j in range(n)] for i in range(n)]
    return A


def battery(n: int, seed: int = 7, size: int = 32) -> list:
    """Documented battery of convex functions standing in for Conv(V, R).

    Mix of positive definite quadratics, max-affine functions, their
    log-sum-exp smoothings, closed-form smooth entries, body restrictions
    and shifted/scaled variants.
    """
    rng = np.random.default_rng(seed)
    out: list[ConvexFunction] = []
    while len(out) < size:
        kind = len(out) % 8
        if kind in (0, 1):
            out.append(Quadratic(_rand_pd_matrix(rng, n),
                                 [_rand_frac(rng, 2, 2) for _ in range(n)],
                                 _rand_frac(rng, 2, 2)))
        elif kind == 2:
            m = int(rng.integers(2, 7))
            out.append(MaxAffine([([_rand_frac(rng, 3, 2) for _ in range(n)],
                                   _rand_frac(rng, 2, 2)) for _ in range(m)]))
        elif kind == 3:
            m = int(rng.integers(2, 5))
            ma = MaxAffine([([_rand_frac(rng, 2, 2) for _ in range(n)],
                             _rand_frac(rng, 2, 2)) for _ in range(m)])
            out.append(LogSumExp(ma, float(rng.choice([12.0, 40.0]))))
        elif kind == 4:
            out.append(SmoothCatalog("sqrt1p" if len(out) % 2 else "quartic", n))
        elif kind == 5:
            M = np.asarray([[float(v) for v in row]
                            for row in _rand_pd_matrix(rng, n + 1, Q(1, 2))])
            out.append(BodyRestriction(EllipsoidBody(M)))
        elif kind == 6:
            inner = Quadratic(_rand_pd_matrix(rng, n))
            out.append(Shifted(inner, [_rand_frac(rng, 2, 2) for _ in range(n)],
                               _rand_frac(rng, 2, 2)))
        else:
            inner = Quadratic(_rand_pd_matrix(rng, n))
            out.append(Scaled(inner, Q(int(rng.integers(1, 4)), 2)))
    return out[:size]


# -- random forms -----------------------------------------------------------------


def window_vanishing_weight(n: int, R=2, power: int = 1) -> Poly:
    """prod_i (R^2 - x_i^2)^power: vanishes on the boundary of [-R, R]^n."""
    R = _as_fraction(R)
    w = Poly.const(2 * n, 1)
    for i in range(n):
        w = w * (Poly.const(2 * n, R * R) - Poly.variable(2 * n, i) ** 2) ** power
    return w


def random_window_form(rng, n: int, degree: int, R=2, nterms: int = 2,
                       max_deg: int = 2, edge_vanishing: bool = True) -> Form:
    """Random form with polynomial coefficients on the window [-R, R]^n.

    With ``edge_vanishing`` the coefficients carry the boundary-vanishing
    weight, so exterior derivatives satisfy the Stokes identity exactly on
    every cycle evaluator.
    """
    R = _as_fraction(R)
    box = tuple((-R, R) for _ in range(n))
    keys = _subset_keys(n, degree)
    w = window_vanishing_weight(n, R) if edge_vanishing else Poly.const(2 * n, 1)
    terms: dict = {}
    for _ in range(nterms):
        key = keys[rng.integers(len(keys))]
        nv = 2 * n
        e = [0] * nv
        for _ in range(2):
            e[int(rng.integers(0, nv))] = int(rng.integers(0, max_deg + 1))
        poly = w * Poly.monomial(nv, e, _rand_frac(rng, 6, 3))
        if poly.is_zero():
            poly = w
        c = CoefficientFn.from_poly(n, poly, box=box)
        terms[key] = terms[key] + c if key in terms else c
    return Form(n, degree, terms)


_KERNEL_FORM_RADIUS = 2  # half-width of the window forms, radius of the bumps


def random_kernel_form(rng, n: int, kind: str = "window") -> Form:
    """tau = d(rho) + omega_s ^ xi, corrected to zero zero-section integral.

    Lies in the kernel of the induced valuation by construction.  The
    ``window`` kind uses boundary-vanishing polynomial coefficients, so the
    correction is exact and polyhedral evaluations stay in exact arithmetic;
    the ``bump`` kind exercises the smooth compactly supported class.
    """
    from .forms import exterior_derivative, standard_symplectic_form, wedge

    radius = _KERNEL_FORM_RADIUS
    if kind == "window":
        rho = random_window_form(rng, n, n - 1, R=radius, nterms=2)
        tau = exterior_derivative(rho)
        if n >= 2:
            xi = random_window_form(rng, n, n - 2, R=radius, nterms=1,
                                    edge_vanishing=False)
            tau = tau + wedge(standard_symplectic_form(n), xi)
        probe = CoefficientFn.from_poly(
            n, window_vanishing_weight(n, radius, power=2),
            box=tuple((-_as_fraction(radius), _as_fraction(radius))
                      for _ in range(n)))
        probe_form = Form(n, n, {tuple(range(n)): probe})
        i_tau = integrate_zero_section(tau).value
        i_probe = integrate_zero_section(probe_form).value
        return tau + probe_form.scale(-Fraction(i_tau) / Fraction(i_probe))

    rho = random_bump_form(rng, n, degree=n - 1, radius=radius, nterms=2)
    tau = exterior_derivative(rho)
    if n >= 2:
        # for n = 1 there is no (n-2)-form to wedge with omega_s
        xi = random_bump_form(rng, n, degree=n - 2, radius=radius, nterms=1)
        tau = tau + wedge(standard_symplectic_form(n), xi)
    # subtract c * beta(x) vol_x to cancel the zero-section integral
    probe = CoefficientFn.bump(n, ball_bump(n, radius))
    probe_form = Form(n, n, {tuple(range(n)): probe})
    i_tau = float(integrate_zero_section(tau))
    i_probe = float(integrate_zero_section(probe_form))
    return tau + probe_form.scale(Q(-i_tau / i_probe).limit_denominator(10**12))


# -- kernel theorem ------------------------------------------------------------------


@dataclass
class KernelReport:
    mode: str                 # "kernel" | "constant" | "nonkernel"
    values: list
    gap: float                # largest |value - the mode's constant|
    scale: float              # the scale of the mode's verdict
    tolerance: float
    passed: bool
    witness: Optional[tuple] = None
    zero_section_integral: float = 0.0

    def max_abs(self) -> float:
        return max((abs(float(v)) for v in self.values), default=0.0)


def kernel_check(tau: Form, functions: Sequence, values: Sequence[float],
                 tol_zero: float, tol_witness: float) -> KernelReport:
    """Forward and contrapositive probes of the kernel description.

    ``values`` holds D(f)[tau] for each of ``functions``, as computed by
    :func:`evaluate`.  If rumin_d(tau) vanishes identically and the
    zero-section integral is zero, every battery evaluation must be zero to
    tolerance; if it is not zero, every evaluation must equal it; if the
    operator does not vanish, some battery function must witness a nonzero
    value.  Without any value, no probe passes.
    """
    D = rumin_d(tau)
    i0 = float(integrate_zero_section(tau))
    values = [float(v) for v in values]
    scale = scale_of(values)
    gap = largest(abs(v) for v in values)
    if D.is_zero():
        mode = "kernel"
        if not within(abs(i0), tol_zero):
            mode, scale = "constant", scale_of(values + [i0])
            gap = largest(abs(v - i0) for v in values)
        return KernelReport(mode, values, gap, scale, tol_zero,
                            bool(values) and within(gap, tol_zero, scale),
                            zero_section_integral=i0)
    witness = None
    for f, v in zip(functions, values):
        if abs(v) > tol_witness * scale:
            witness = (f.describe(), v)
            break
    return KernelReport("nonkernel", values, gap, scale, tol_witness,
                        witness is not None, witness=witness,
                        zero_section_integral=i0)


# -- homogeneity ----------------------------------------------------------------------


@dataclass
class HomogeneityFit:
    coefficients: list
    residual: float
    values: list
    scale: float


def homogeneity_fit(val: Valuation, f: ConvexFunction) -> HomogeneityFit:
    """Least-squares polynomial fit of t -> mu(t f), degree <= n."""
    n = val.n
    t_grid = [Q(k, 2) for k in range(1, n + 4)]
    values = [float(res.value) for res, in evaluate([val], [Scaled(f, t) for t in t_grid])]
    V = np.vander([float(t) for t in t_grid], n + 1, increasing=True)
    coeffs, res, *_ = np.linalg.lstsq(V, np.asarray(values), rcond=None)
    fitted = V @ coeffs
    residual = float(np.abs(fitted - values).max())
    return HomogeneityFit(coeffs.tolist(), residual, values, scale_of(values))


# -- first variation -----------------------------------------------------------------


@dataclass
class FirstVariationReport:
    directional: float
    fd_values: dict
    extrapolated: float
    order: float
    residual: float
    scale: float


def first_variation_check(val: Valuation, f: ConvexFunction,
                          psi: SmoothField) -> FirstVariationReport:
    """Central differences of t -> mu(f + t psi) against D(f)[psi ^ rumin(tau)],
    at steps t = 1e-2 and 1e-3.

    The same quadrature nodes evaluate every perturbed function, so the
    finite differences do not amplify quadrature error: the six perturbed
    functions f +- t psi share one gradient degree, and so one rule
    (``cycles.graph_rule``), and are integrated together in one battery
    call of ``eval_smooth``, each with the bits it gets alone.  The
    right-hand side's coefficients carry psi's window or bumps, so it keeps
    the plain rules of its domains.  At n = 1 the domain is cut at psi's
    support (:func:`_split_at_support`), and each mu is one integral over
    the pieces, with one error.  For n > 1 a bump-type psi puts Hessian
    layers at its own support sphere, in the interior of the integration
    domain, which fixed nodes do not resolve to the check's tolerance; such
    a psi is refused with a ValueError.
    """
    tau = val.tau
    n = val.n
    if n > 1 and psi.coeff.has_bump():
        raise ValueError("first variation at n > 1 needs a polynomial psi")
    rhs_form = val.rumin.D_bar.map_coefficients(lambda c: c * psi.coeff)
    box = tau.support_box()
    if n == 1:
        domains = _split_at_support(box, psi.coeff.support_box())
    else:
        domains = [tau.support_domain()]

    rhs_rules = [graph_rule(f, rhs_form, d) for d in domains]
    rhs = float(eval_smooth(f, [rhs_form], rhs_rules)[0].value)
    t1, t2 = 1e-2, 1e-3
    tm = math.sqrt(t1 * t2)  # auxiliary geometric step for the order estimate
    window = max(t1, t2, tm) * 1.05
    steps = (t1, tm, t2)
    # f + t psi and f - t psi for each step, in one battery on one rule
    perturbed = [Perturbed(f, psi, s * t, window=window, box=box, check=k == 0 and s > 0)
                 for k, t in enumerate(steps) for s in (1, -1)]
    rules = [graph_rule(perturbed[0], tau, d) for d in domains]
    mus = [float(row[0].value) for row in eval_smooth(perturbed, [tau], rules)]
    fd = {t: (mus[2 * k] - mus[2 * k + 1]) / (2 * t) for k, t in enumerate(steps)}
    scale = scale_of([rhs] + list(fd.values()))
    # order from successive differences: shared quadrature bias cancels
    d1, d2 = abs(fd[t1] - fd[tm]), abs(fd[tm] - fd[t2])
    if min(d1, d2) <= 1e-10 * scale:
        order = 2.0  # the truncation term sits below quadrature noise
    else:
        order = math.log(d1 / d2) / math.log(t1 / tm)
    extrap = (t1 ** 2 * fd[t2] - t2 ** 2 * fd[t1]) / (t1 ** 2 - t2 ** 2)
    return FirstVariationReport(rhs, fd, extrap, order, abs(extrap - rhs), scale)


# -- k = 1 representation ---------------------------------------------------------------


def _split_at_support(box, inner) -> list:
    """Cut a 1D box at the boundary points of an inner support box.

    Bump perturbations are flat to all orders at their support sphere but
    carry boundary layers just inside it; cutting there lets fixed
    Gauss-Legendre panels resolve the layers at their endpoints.
    """
    (lo, hi), = box
    cuts = {lo, hi}
    if inner is not None:
        for c in inner[0]:
            if lo < c < hi:
                cuts.add(c)
    pts = sorted(cuts)
    return [((a, b),) for a, b in zip(pts, pts[1:])]


def k1_representation(val: Valuation) -> CoefficientFn:
    """The density phi with mu(f) = int f phi when rumin(tau) = phi vol_x."""
    D = val.rumin.D_bar
    n = val.n
    vol_key = tuple(range(n))
    for key, c in D.terms.items():
        if key != vol_key:
            raise ValueError("operator output is not a multiple of the base volume")
        if c.depends_on_y():
            raise ValueError("density depends on the fiber; not 1-homogeneous")
    return D.terms.get(vol_key, CoefficientFn.zero(n))


# -- mixed discriminants and Hessian valuations -------------------------------------------


def mixed_discriminant(matrices: Sequence) -> Fraction | float:
    """Full polarization of det on an n-tuple of symmetric n x n matrices.

    D(A_1..A_n) = (1/n!) sum_{S nonempty} (-1)^{n-|S|} det(sum_{i in S} A_i);
    exact over Fractions, float otherwise.
    """
    n = len(matrices)
    exact = all(isinstance(matrices[i][p][q], (int, Fraction))
                for i in range(n) for p in range(n) for q in range(n))
    coerce = _as_fraction if exact else float
    return polarized_det([[[coerce(v) for v in row] for row in m] for m in matrices])


@dataclass
class MixedDiscriminantSpec:
    """Data of a Hessian valuation: B(x) det(D^2 f [k], A_1, ..., A_{n-k})."""

    n: int
    k: int
    B: CoefficientFn
    A: list  # constant symmetric matrices with rational entries

    def __post_init__(self):
        if not (0 <= self.k <= self.n):
            raise ValueError("homogeneity degree out of range")
        if len(self.A) != self.n - self.k:
            raise ValueError("need n - k constant matrices")
        self.A = [[[_as_fraction(row[q]) for q in range(self.n)]
                   for row in m] for m in self.A]
        for m in self.A:
            for p in range(self.n):
                for q in range(self.n):
                    if m[p][q] != m[q][p]:
                        raise ValueError("matrices must be symmetric")


def hessian_valuation(spec: MixedDiscriminantSpec, f: ConvexFunction) -> float:
    """Quadrature of B(x) det(D^2 f(x)[k], A_1..A_{n-k}) over B's support
    domain, on the node blocks of quadrature.integrate; a constant
    Hessian's mixed discriminant is computed once per block.

    The integrand is the graph pullback of :func:`hessian_form`; on a
    function whose gradient is a polynomial of degree g it has the degree
    deg_x B + k (g - 1).  It runs on the rule that ``cycles.graph_rule``
    chooses with a margin of two degrees: where the form runs on the rule
    of its degree, the cross-check of the two compares two node sets.
    Where that rule has no degree to raise, a box such as the one of a
    bump at n = 1, the box is cut in two at its centre, so the two still
    run on different nodes."""
    n, k = spec.n, spec.k
    domain = spec.B.support_domain()
    if domain is None:
        raise ValueError("weight needs a support box")
    rules = [graph_rule(f, spec.B, domain, hessians=k, margin=2)]
    if rules[0] is domain and not isinstance(domain, Ellipse):
        (lo, hi), *rest = domain
        mid = (lo + hi) / 2
        rules = [((lo, mid), *rest), ((mid, hi), *rest)]
    A_float = [[[float(v) for v in row] for row in m] for m in spec.A]

    def fn(pts):
        H = unbroadcast(f.hessian_array(pts))
        Hrows = [[H[:, p, q] for q in range(n)] for p in range(n)]
        return spec.B.eval_x_array(pts) * polarized_det([Hrows] * k + A_float)

    return integrate(fn, rules).value


def hessian_form(spec: MixedDiscriminantSpec) -> Form:
    """The vertically invariant (n-k, k) form whose graph pullback is the
    Hessian-valuation integrand; solved from the symbolic identity
    pullback = B det(H[k], A_1..A_{n-k}) vol for a symbolic Hessian H."""
    n, k = spec.n, spec.k
    nh = n * (n + 1) // 2
    idx = {}
    c = 0
    for p in range(n):
        for q in range(p, n):
            idx[(p, q)] = c
            idx[(q, p)] = c
            c += 1

    def hvar(p, q):
        return Poly.variable(nh, idx[(p, q)])

    Hsym = [[hvar(p, q) for q in range(n)] for p in range(n)]
    Amats = [[[Poly.const(nh, v) for v in row] for row in m] for m in spec.A]
    target = polarized_det([Hsym] * k + Amats)

    # basis of candidate monomials dx_I ^ dy_J of bidegree (n-k, k)
    pairs = []
    cols = []
    for I in combinations(range(n), n - k):
        Ic = [v for v in range(n) if v not in I]
        sign, _ = merge_sign(tuple(I), tuple(Ic))
        for J in combinations(range(n), k):
            pb = _poly_minor(Hsym, list(J), Ic) * Q(sign)
            pairs.append((I, J))
            cols.append(pb)

    monomials = sorted(set().union(*[set(p.terms) for p in cols + [target]]))
    rows = [[col.terms.get(m, Q(0)) for col in cols] for m in monomials]
    rhs = [target.terms.get(m, Q(0)) for m in monomials]
    sol, _ = solve(rows, rhs)
    if sol is None:
        raise AssertionError("mixed-discriminant expansion is not representable")
    # symbolic verification of the postcondition
    check = Poly.zero(nh)
    for coef, col in zip(sol, cols):
        check = check + col.scale(coef)
    if check != target:
        raise AssertionError("symbolic pullback identity failed")

    terms = {}
    for coef, (I, J) in zip(sol, pairs):
        if coef == 0:
            continue
        key = tuple(I) + tuple(n + j for j in J)
        c = spec.B.scale(coef)
        terms[key] = terms[key] + c if key in terms else c
    return Form(n, n, terms)


def _poly_minor(H: list, rows: list, cols: list) -> Poly:
    if not rows:
        return Poly.const(H[0][0].nvars, 1)
    return det([[H[r][c] for c in cols] for r in rows])


# -- finite-group averaging -------------------------------------------------------------


def group_average(tau: Form, gs: Sequence) -> Form:
    """(1/N) sum over g of sign(det g) pullback(lift(g^{-1}), tau); each g
    must be exactly orthogonal."""
    from .rumin import _det_sign

    n = tau.n
    acc = None
    for g in gs:
        G = [[_as_fraction(v) for v in row] for row in g]
        if any(sum(G[k][i] * G[k][j] for k in range(n)) != (i == j)
               for i in range(n) for j in range(n)):
            raise ValueError("group averaging requires exactly orthogonal matrices")
        piece = pullback(linear_lift(n, inverse(G)), tau).scale(_det_sign(G, n))
        acc = piece if acc is None else acc + piece
    return acc.scale(Q(1, len(gs)))


def signed_permutations(n: int) -> list:
    """The 2^n n! signed permutation matrices: the symmetries of [-1, 1]^n."""
    from itertools import permutations, product

    out = []
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            M = [[Q(0)] * n for _ in range(n)]
            for i, (p, s) in enumerate(zip(perm, signs)):
                M[i][p] = Q(s)
            out.append(M)
    return out


# -- exact rotation invariance ------------------------------------------------------------


def so_generators(n: int) -> list:
    """The basis x_i d/dx_j - x_j d/dx_i (i < j) of so(n), lifted to T*R^n.

    A rotation acts on (x, y) by (g x, g^{-T} y) = (g x, g y), so each field
    carries the same term on y: 2n polynomial components per generator.
    """
    nv = 2 * n
    out = []
    for i, j in combinations(range(n), 2):
        X = [Poly.zero(nv)] * nv
        for off in (0, n):
            X[off + j] = Poly.variable(nv, off + i)
            X[off + i] = -Poly.variable(nv, off + j)
        out.append(X)
    return out


def so_projection(tau: Form) -> Form:
    """The SO(n)-average of tau for n = 2, 3, exactly and without a solve.

    Rotations fix ball bumps and the powers of q_M, and act on polynomial
    coefficients of (x, y)-degree at most p and on differentials of degree
    k, so tau spans only spins l <= p + k.  The Casimir C = sum_X L_X^2 acts
    on spin l as -lambda_l, with lambda_l = l^2 (SO(2)) or l(l + 1) (SO(3)),
    hence P = prod_{l=1..p+k} (C + lambda_l) / lambda_l kills every l >= 1
    and fixes the invariant part.
    """
    n = tau.n
    atoms = [atom for c in tau.terms.values() for atom in c.atoms.items()]
    if n not in (2, 3) or any(f.M[i][j] != f.M[0][0] * (i == j) for sig, _ in atoms
                              for f in sig for i in range(n) for j in range(n)):
        raise ValueError("the Casimir projection needs n = 2, 3 and ball bumps")
    spins = tau.degree + max((poly.total_degree() for _, poly in atoms), default=0)
    gens = so_generators(n)
    out = tau
    for l in range(1, spins + 1):
        lam = l * l if n == 2 else l * (l + 1)
        casimir = [lie_derivative(X, lie_derivative(X, out)) for X in gens]
        out = sum(casimir, out.scale(lam)).scale(Q(1, lam))
    return out


def volume_contraction_form(c: CoefficientFn) -> Form:
    """sum_k c i_{d/dx_k}(dx_1^...^dx_n) ^ dy_k: SO(n)-invariant for radial c."""
    n = c.n
    return Form(n, n, {tuple(v for v in range(n) if v != k) + (n + k,): c.scale((-1) ** k)
                       for k in range(n)})
