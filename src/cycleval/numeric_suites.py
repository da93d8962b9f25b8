"""The nine suites that evaluate valuations on cycles: every suite but
identities.  This module imports the evaluator layers but ``bridge``;
``ExperimentConfig`` imports it when it validates a suite list that names
one of its suites, and ``bridge`` when the list names the bridge suite, so
the evaluators load during set-up, never inside a suite, and a run of
identities alone does not load them.  ``suites.SUITES`` lists every suite.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .coefficients import CoefficientFn, ball_bump
from .convex import (
    EllipsoidBody, LogSumExp, MaxAffine, PiecewiseLinear1D, PointBody, Quadratic, Shifted,
    SmoothField, as_max_affine, wrapped_lse,
)
from .cycles import Polyline1DCycle, build_1d, eval_polyline, eval_smooth_ridge_aligned, mass_smooth
from .forms import Form, _rand_frac, exterior_derivative, lie_derivative, random_bump_form
from .lab import (
    MixedDiscriminantSpec, Valuation, battery, evaluate, first_variation_check, group_average,
    hessian_form, hessian_valuation, homogeneity_fit, k1_representation, kernel_check,
    mixed_discriminant, random_kernel_form, random_window_form, signed_permutations,
    so_generators, so_projection, volume_contraction_form, window_vanishing_weight,
    _rand_pd_matrix,
)
from .polyhedral import build_polyhedral, eval_polyhedral, mass_polyhedral, window_for
from .polynomials import Poly, Q
from .report import SuiteEntry, exact_entry, gap_entry, largest, scale_of, within
from .rumin import g_invariance_conditions, rumin_d

if TYPE_CHECKING:
    from .suites import ExperimentConfig


# -- kernel -----------------------------------------------------------------------


# Bump-kind kernel forms are checked on smooth functions only.  While the
# smooth sub-battery holds fewer than _KERNEL_SMOOTH_MIN functions (or fewer
# than the whole battery but two), batteries drawn at these seed offsets top
# it up.
_KERNEL_SMOOTH_MIN = 30
_KERNEL_TOP_UP_SEEDS = range(78, 90)


def suite_kernel(config: ExperimentConfig) -> list:
    entries = []
    tol_f = config.tol("kernel_forward")
    tol_w = config.tol("kernel_witness")
    tol_c = config.tol("constant")
    for n in config.size("kernel_dims"):
        rng = np.random.default_rng(config.seed + 101 * n)
        fam = battery(n, seed=config.seed + n, size=int(config.size("kernel_battery")))
        fam += [f for _, f in config.declared("functions", n)]
        # polyhedral and ridge-aligned routes need exact-integrable windows
        # to hit 1e-7; the smooth sub-battery absorbs bump-kind forms
        smooth_fam = [f for f in fam if f.smooth and wrapped_lse(f) is None]
        for offset in _KERNEL_TOP_UP_SEEDS:
            if len(smooth_fam) >= max(_KERNEL_SMOOTH_MIN, len(fam) - 2):
                break
            extra = battery(n, seed=config.seed + offset,
                            size=int(config.size("kernel_battery")))
            smooth_fam += [f for f in extra
                           if f.smooth and wrapped_lse(f) is None]
        # every form of this dimension is drawn first, in the rng order of
        # the entries, then each family is evaluated as one battery on the
        # forms that use it
        forward = {"tol_zero": tol_f, "tol_witness": tol_w}
        checks = []  # (name, kind, tau, functions, kernel_check tolerances)
        nforms = int(config.size("kernel_forms"))
        n_bump = max(1, nforms // 5)
        for i in range(nforms):
            kind = "bump" if i < n_bump else "window"
            tau = random_kernel_form(rng, n, kind=kind)
            checks.append((f"kernel/forward/n={n}/{i}({kind})", "forward", tau,
                           smooth_fam if kind == "bump" else fam, forward))
        for i in range(int(config.size("kernel_nonkernel"))):
            tau = random_window_form(rng, n, n, nterms=2)
            if rumin_d(tau).is_zero():
                # mix in w(x) dx_2..dx_n ^ dy_1, which never lies in the kernel
                key = tuple(range(1, n)) + (n,)
                w = window_vanishing_weight(n, 2)
                tau = tau + Form(n, n, {key: CoefficientFn.from_poly(
                    n, w, box=((Q(-2), Q(2)),) * n)})
            checks.append((f"kernel/contrapositive/n={n}/{i}", "contrapositive",
                           tau, fam, forward))
        for i in range(int(config.size("constant_forms"))):
            # closed form with nonzero zero-section integral
            tau = exterior_derivative(random_window_form(rng, n, n - 1))
            tau = tau + Form(n, n, {tuple(range(n)): CoefficientFn.from_poly(
                n, window_vanishing_weight(n, 2, power=2),
                box=((Q(-2), Q(2)),) * n)})
            checks.append((f"kernel/constant/n={n}/{i}", "constant", tau, fam,
                           {"tol_zero": tol_c, "tol_witness": tol_w}))
        # user-declared forms are classified and reported, never asserted
        for j, tau in config.declared("forms", n):
            checks.append((f"kernel/declared/n={n}/{j}", "declared", tau, fam,
                           forward))

        values = [None] * len(checks)
        for family in (smooth_fam, fam):
            used = [(c, tau) for c, (_, _, tau, functions, _) in enumerate(checks)
                    if functions is family]
            results = evaluate([Valuation(tau) for _, tau in used], family)
            for k, (c, _) in enumerate(used):
                values[c] = [float(row[k].value) for row in results]

        for (name, kind, tau, functions, tols), row in zip(checks, values):
            rep = kernel_check(tau, functions, row, **tols)
            entries.append(_kernel_entry(name, kind, rep, tols, len(functions)))
    return entries


def _kernel_entry(name: str, kind: str, rep, tols: dict,
                  nfunctions: int) -> SuiteEntry:
    """The suite entry of one kernel_check report."""
    if kind == "forward":
        return gap_entry(name, rep.gap, tols["tol_zero"], rep.scale,
                         also=rep.mode == "kernel" and rep.passed,
                         details={"mode": rep.mode, "scale": rep.scale,
                                  "functions": nfunctions})
    if kind == "contrapositive":
        return SuiteEntry(
            name=name, passed=rep.mode == "nonkernel" and rep.passed,
            residual=0.0 if rep.witness else rep.max_abs() / rep.scale,
            tolerance=tols["tol_witness"],
            details={"witness": rep.witness, "scale": rep.scale})
    if kind == "constant":
        return gap_entry(name, rep.gap, tols["tol_zero"], rep.scale,
                         also=rep.mode == "constant" and rep.passed,
                         details={"integral": rep.zero_section_integral})
    return SuiteEntry(
        name=name, passed=True,
        details={"mode": rep.mode, "max_abs": rep.max_abs(),
                 "integral": rep.zero_section_integral})


# -- homogeneity -------------------------------------------------------------------


def suite_homogeneity(config: ExperimentConfig) -> list:
    entries = []
    tol = config.tol("homogeneity")
    for n in config.size("homogeneity_dims"):
        rng = np.random.default_rng(config.seed + 17 * n)
        for k in range(0, n + 1):
            tau = random_bump_form(rng, n, bidegree=(n - k, k), y_dependent=False)
            val = Valuation(tau)
            for j in range(2):
                f = Quadratic(_rand_pd_matrix(rng, n),
                              [_rand_frac(rng, 2, 2) for _ in range(n)],
                              _rand_frac(rng, 2, 2))
                fit = homogeneity_fit(val, f)
                worst = largest(abs(c) for i, c in enumerate(fit.coefficients) if i != k)
                entries.append(gap_entry(
                    f"homogeneity/n={n}/k={k}/f{j}", worst, tol, fit.scale,
                    strict=True, details={"coefficients": fit.coefficients}))
        # dual epi-translation invariance of the same bidegree forms
        tau = random_bump_form(rng, n, bidegree=(n - 1, 1), y_dependent=False)
        val = Valuation(tau)
        f = Quadratic(_rand_pd_matrix(rng, n))
        shifted = Shifted(f, [_rand_frac(rng, 2, 2) for _ in range(n)],
                          _rand_frac(rng, 2, 2))
        base, v = (float(row[0].value) for row in evaluate([val], [f, shifted]))
        entries.append(gap_entry(f"homogeneity/dual-epi/n={n}", abs(v - base),
                                 config.tol("dual_epi"), scale_of([base])))
    return entries


# -- invariance ---------------------------------------------------------------------


def suite_invariance(config: ExperimentConfig) -> list:
    entries = []
    rng = np.random.default_rng(config.seed + 23)

    # finite group: D4 in O(2), the signed permutation matrices of the plane
    n = 2
    tau = random_bump_form(rng, n, bidegree=(1, 1), y_dependent=False)
    D4 = signed_permutations(2)
    avg = group_average(tau, D4)
    entries.append(exact_entry(
        "invariance/finite-group/D4-average",
        all(g_invariance_conditions(avg, g).invariant for g in D4),
        {"group_order": len(D4)}))

    # SO(2) and SO(3), transitive on the sphere: project a random form plus
    # a nonzero multiple of an invariant one and check exactly that the
    # result and its k = 1 density have zero Lie derivative under every
    # generator.  The invariant form's bump has radius 3, the random form's
    # radius 2, so their densities cannot cancel: the density is nonzero.
    for n, bidegree in ((2, (1, 1)), (3, (2, 1))):
        tau = random_bump_form(rng, n, bidegree=bidegree, y_dependent=False,
                               max_deg=2)
        seed_form = volume_contraction_form(CoefficientFn.bump(n, ball_bump(n, 3)))
        scale = Q(int(rng.integers(1, 7)), int(rng.integers(1, 4)))
        avg = so_projection(tau + seed_form.scale(scale))
        val = Valuation(avg)
        gens = so_generators(n)
        checks = {
            "invariant": all(lie_derivative(X, avg).is_zero() for X in gens),
            "density_nonzero": not k1_representation(val).is_zero(),
            "density_radial": all(lie_derivative(X, val.rumin.D_bar).is_zero()
                                  for X in gens)}
        entries.append(exact_entry(f"invariance/exact-SO{n}/k1-radial",
                                   all(checks.values()),
                                   {"generators": len(gens), **checks}))
    return entries


# -- hessian ----------------------------------------------------------------------


def suite_hessian(config: ExperimentConfig) -> list:
    entries = []
    rng = np.random.default_rng(config.seed + 31)
    tol = config.tol("hessian_rel")
    specs = int(config.size("hessian_specs"))
    i = 0
    while i < specs:
        n = int(rng.choice([1, 2, 3]))
        k = int(rng.integers(0, n + 1))
        B = CoefficientFn.bump(n, ball_bump(n, Q(3, 2)),
                               Poly.const(2 * n, 1)
                               + Poly.variable(2 * n, 0).scale(_rand_frac(rng, 2, 2)))
        A = [_rand_sym(rng, n) for _ in range(n - k)]
        spec = MixedDiscriminantSpec(n, k, B, A)
        form = hessian_form(spec)
        f = Quadratic(_rand_pd_matrix(rng, n))
        direct = hessian_valuation(spec, f)
        via = float(evaluate([Valuation(form)], [f])[0][0].value)
        entries.append(gap_entry(
            f"hessian/cross-check/{i}(n={n},k={k})", abs(via - direct), tol,
            scale_of([direct], floor=1e-9), details={"direct": direct, "via_form": via}))
        i += 1

    tol_md = config.tol("mixed_discriminant")
    gaps = []
    samples = int(config.size("mixed_disc_samples"))
    for j in range(samples):
        n = 2 if j % 2 else 3
        mats = []
        for _ in range(n):
            M = rng.normal(size=(n, n))
            mats.append(M + M.T)
        got = mixed_discriminant(mats)
        ref = _mixed_disc_bruteforce(mats)
        gaps.append(abs(got - ref))
    entries.append(gap_entry("hessian/mixed-discriminant-oracle", largest(gaps), tol_md,
                             details={"samples": samples}))
    # structural spot checks
    A = rng.normal(size=(3, 3))
    A = A + A.T
    dd = mixed_discriminant([A] * 3)
    entries.append(gap_entry("hessian/polarization-diagonal",
                             abs(dd - float(np.linalg.det(A))), 1e-10, strict=True))
    return entries


def _rand_sym(rng, n):
    M = [[_rand_frac(rng, 2, 2) for _ in range(n)] for _ in range(n)]
    return [[(M[i][j] + M[j][i]) / 2 for j in range(n)] for i in range(n)]


def _mixed_disc_bruteforce(mats):
    """Coefficient of t_1...t_n in det(sum t_i A_i), via sign polarization."""
    from itertools import product

    n = len(mats)
    total = 0.0
    for eps in product((1.0, -1.0), repeat=n):
        M = sum(e * m for e, m in zip(eps, mats))
        total += np.prod(eps) * np.linalg.det(M)
    return total / (2 ** n) / math.factorial(n)


# -- bridge ------------------------------------------------------------------------


def suite_bridge(config: ExperimentConfig) -> list:
    from .bridge import bridge_check  # loaded when the config was validated

    entries = []
    tol = config.tol("bridge")
    for n in config.size("bridge_dims"):
        rng = np.random.default_rng(config.seed + 41 * n)
        bodies = [("unit-ball", EllipsoidBody(np.eye(n + 1)))]
        for b in range(3):
            G = rng.normal(size=(n + 1, n + 1))
            bodies.append((f"ellipsoid{b}", EllipsoidBody(G @ G.T + 0.5 * np.eye(n + 1))))
        bodies.append(("point", PointBody(rng.normal(size=n + 1) * 0.5)))
        bodies += [(f"declared{i}", K) for i, K in config.declared("bodies", n)]
        forms = [random_bump_form(rng, n, degree=n, nterms=2)
                 for _ in range(int(config.size("bridge_forms")))]
        for bname, K in bodies:
            for i, tau in enumerate(forms):
                rep = bridge_check(K, tau)
                entries.append(gap_entry(
                    f"bridge/n={n}/{bname}/form{i}", rep.residual, tol, rep.scale,
                    details={"conormal": rep.conormal, "graph": rep.graph}))
    return entries


# -- mass --------------------------------------------------------------------------


def suite_mass(config: ExperimentConfig) -> list:
    """The mass of D(f) over the ball B_R against omega_n (R + 2M)^n, M =
    ``f.sup_abs_bound(R + 1)``.  For convex f, |x| <= R and a subgradient y
    at x, |y| <= f(x + y/|y|) - f(x) <= 2M: the subgradients over B_R lie in
    B_{2M}.  For smooth f the mass is the integral over B_R of
    sqrt(det(I + H^2)) <= det(I + H), H >= 0 the Hessian: the Jacobian of
    the one-to-one map x -> x + grad f(x), which carries B_R into B_{R+2M}.
    A max-affine f is the limit of its smoothings, whose sup |f| tends to
    that of f, and mass is lower semicontinuous under that limit, so the
    bound holds for it too."""
    entries = []
    for n in config.size("mass_dims"):
        omega_n = {1: 2.0, 2: math.pi}[n]
        fam = battery(n, seed=config.seed + 3 * n,
                      size=int(config.size("mass_battery")))
        for R in (1.0, 2.0):
            for i, f in enumerate(fam):
                ma = as_max_affine(f)
                if ma is not None:
                    halfwidth = Q(int(math.ceil(R + 1)))
                    window = tuple((min(lo, -halfwidth), max(hi, halfwidth))
                                   for lo, hi in window_for(ma, None))
                    cyc = build_polyhedral(ma, window=window)
                    m = mass_polyhedral(cyc, R)
                else:
                    m = mass_smooth(f, R).value
                bound = omega_n * (R + 2.0 * f.sup_abs_bound(R + 1.0)) ** n
                entries.append(gap_entry(
                    f"mass/n={n}/R={R}/f{i}", m, bound,
                    details={"mass": m, "bound": bound, "f": f.describe()}))
    return entries


# -- valuation property ------------------------------------------------------------


def suite_valuation_property(config: ExperimentConfig) -> list:
    entries = []
    rng = np.random.default_rng(config.seed + 53)

    # exact identity D(|x|)[phi dy] = 2 phi(0)
    absx = MaxAffine([([1], 0), ([-1], 0)])
    phi = Poly.const(2, Q(3, 7)) + Poly.variable(2, 0) ** 2
    tau = Form(1, 1, {(1,): CoefficientFn.from_poly(1, phi, box=((Q(-1), Q(1)),))})
    got = eval_polyline(build_1d(absx), tau).value
    entries.append(gap_entry("valuation-property/abs-kink", abs(got - 2 * Q(3, 7)), 0.0,
                             details={"value": str(got)}))

    # negative control: a deliberately flipped vertical orientation must be
    # caught by the same identity, with the mismatch reported as a witness
    flipped = Polyline1DCycle(PiecewiseLinear1D.from_max_affine(absx),
                              flip_vertical=True)
    wrong = eval_polyline(flipped, tau).value
    entries.append(SuiteEntry(
        name="valuation-property/orientation-negative-control",
        passed=wrong != 2 * Q(3, 7),
        details={"expected": str(2 * Q(3, 7)), "flipped_value": str(wrong)}))

    pairs = int(config.size("valuation_pairs"))
    fails = 0
    witness = None
    for i in range(pairs):
        f = _random_pwl(rng)
        g = _random_pwl(rng)
        tau = _random_window_form_1d(rng)
        vf = eval_polyline(build_1d(f), tau).value
        vg = eval_polyline(build_1d(g), tau).value
        vmax = eval_polyline(build_1d(f.maximum(g)), tau).value
        vmin = eval_polyline(build_1d(f.minimum(g)), tau).value
        if vf + vg != vmax + vmin:
            fails += 1
            witness = witness or {"pair": i,
                                  "lhs": str(vf + vg), "rhs": str(vmax + vmin)}
    entries.append(gap_entry("valuation-property/lattice-identity", fails, 0.0,
                             details={"pairs": pairs, "witness": witness}))
    return entries


def _random_pwl(rng):
    k = int(rng.integers(0, 5))
    breaks = sorted(set(Q(int(rng.integers(-8, 9)), 4) for _ in range(k)))
    slopes = [Q(int(rng.integers(-6, 7)), 2) for _ in range(len(breaks) + 1)]
    return PiecewiseLinear1D(breaks, slopes, Q(int(rng.integers(-4, 5)), 2))


def _random_window_form_1d(rng):
    box = ((Q(-3), Q(3)),)
    px = Poly(2, {(int(rng.integers(0, 3)), int(rng.integers(0, 2))):
                  _rand_frac(rng, 6, 3)})
    py = Poly(2, {(int(rng.integers(0, 2)), int(rng.integers(0, 3))):
                  _rand_frac(rng, 6, 3)})
    return Form(1, 1, {(0,): CoefficientFn.from_poly(1, px, box=box),
                       (1,): CoefficientFn.from_poly(1, py, box=box)})


# -- first variation -----------------------------------------------------------------


def suite_first_variation(config: ExperimentConfig) -> list:
    entries = []
    rng = np.random.default_rng(config.seed + 61)
    tol_r = config.tol("first_variation_residual")
    tol_o = config.tol("first_variation_order")
    cases = int(config.size("first_variation_cases"))
    made = 0
    attempts = 0
    while made < cases and attempts < 10 * cases:
        attempts += 1
        n = 1 if made % 2 == 0 else 2
        tau = random_bump_form(rng, n, degree=n, nterms=2, max_deg=3)
        # fiber-cubic terms make t -> mu(f + t psi) genuinely cubic, so the
        # central differences carry a measurable second-order truncation term
        if n == 1:
            curv = Form(n, 1, {(1,): CoefficientFn.bump(
                n, ball_bump(n, 2),
                Poly.monomial(2, (0, 3), Q(1, 3)) + Poly.monomial(2, (1, 2), Q(1, 2)))})
        else:
            curv = Form(n, 2, {(2, 3): CoefficientFn.bump(
                n, ball_bump(n, 2),
                Poly.const(4, 1) + Poly.monomial(4, (0, 0, 1, 0), Q(1, 2)))})
        tau = tau + curv
        val = Valuation(tau)
        f = Quadratic(_rand_pd_matrix(rng, n))
        if n == 1:
            psi = SmoothField(CoefficientFn.bump(
                n, ball_bump(n, Q(3, 2)),
                Poly.monomial(2, (int(rng.integers(0, 3)), 0), _rand_frac(rng, 3, 2))
                + Poly.monomial(2, (1, 0), Q(1, 2)) + Poly.const(2, Q(1, 2))))
            rep = first_variation_check(val, f, psi)
        else:
            # polynomial field on a window covering the support of tau:
            # smooth where it matters and friendly to tensor quadrature
            box = tau.support_box()
            wide = tuple((lo - 1, hi + 1) for lo, hi in box)
            p = Poly.monomial(4, (int(rng.integers(1, 3)), int(rng.integers(0, 2)),
                                  0, 0), _rand_frac(rng, 2, 2)) \
                + Poly.monomial(4, (3, 0, 0, 0), Q(1, 6)) \
                + Poly.monomial(4, (2, 0, 0, 0), Q(1, 4)) \
                + Poly.monomial(4, (0, 2, 0, 0), Q(1, 3))
            psi = SmoothField(CoefficientFn.from_poly(n, p, box=wide))
            rep = first_variation_check(val, f, psi)
        tvals = sorted(rep.fd_values, reverse=True)
        d1 = abs(rep.fd_values[tvals[0]] - rep.fd_values[tvals[1]])
        if d1 <= 1e-8 * rep.scale:
            continue  # degenerate draw: truncation term below the noise floor
        made += 1
        entries.append(gap_entry(
            f"first-variation/case{made}(n={n})", rep.residual, tol_r, rep.scale,
            also=within(abs(rep.order - 2.0), tol_o),
            details={"order": rep.order, "directional": rep.directional,
                     "fd": {str(k): v for k, v in rep.fd_values.items()}}))
    if made < cases:
        entries.append(SuiteEntry(
            name="first-variation/generation", passed=False,
            details={"made": made, "requested": cases}))
    return entries


# -- consistency ----------------------------------------------------------------------


def suite_consistency(config: ExperimentConfig) -> list:
    entries = []
    rng = np.random.default_rng(config.seed + 71)
    tol = config.tol("consistency")
    n = 2
    nfun = int(config.size("consistency_functions"))
    nform = int(config.size("consistency_forms"))
    betas = (10.0, 100.0, 1000.0)
    # moderate coefficients: the smoothing gap scales with the form while
    # the tolerance reference saturates at max(1, |values|)
    forms = [random_bump_form(rng, n, degree=n, nterms=2, max_deg=2,
                              coeff_num=2, coeff_den=3)
             for _ in range(nform)]
    made = 0
    attempts = 0
    while made < nfun and attempts < 4 * nfun:
        attempts += 1
        m = int(rng.integers(2, 6))
        # and sub-unit gradients keep the kink strength in the same regime
        ma = MaxAffine([([Q(int(rng.integers(-2, 3)), int(rng.integers(3, 5)))
                          for _ in range(n)],
                         Q(int(rng.integers(-2, 3)), 4)) for _ in range(m)])
        if ma.m < 2:
            continue
        tau = forms[made % nform]
        cyc = build_polyhedral(ma, window=window_for(ma, tau.support_box()))
        exact = float(eval_polyhedral(cyc, tau))
        gaps = []
        approxes = []
        for beta in betas:
            approx, = eval_smooth_ridge_aligned(LogSumExp(ma, beta), cyc, [tau])
            approxes.append(float(approx.value))
            gaps.append(abs(approx.value - exact))
        scale = scale_of([exact] + approxes)
        # monotone within quadrature noise; the last gap sits at the floor
        decreasing = gaps[0] >= gaps[1] >= gaps[2] or \
            (within(gaps[2], 3e-5, scale) and gaps[0] >= gaps[1]) or \
            within(max(gaps), 1e-9, scale)  # evaluations agree to machine precision
        entries.append(gap_entry(
            f"consistency/case{made}", gaps[2], tol, scale, also=decreasing,
            details={"gaps": gaps, "exact": exact, "pieces": ma.m}))
        made += 1
    return entries


SUITES = {
    "kernel": suite_kernel,
    "homogeneity": suite_homogeneity,
    "invariance": suite_invariance,
    "hessian": suite_hessian,
    "bridge": suite_bridge,
    "mass": suite_mass,
    "valuation-property": suite_valuation_property,
    "first-variation": suite_first_variation,
    "consistency": suite_consistency,
}
