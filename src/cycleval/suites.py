"""Named experiment suites.

Each suite turns one family of claims into SuiteEntry records:

  identities          exact exterior-calculus and operator identities
  kernel              kernel description: forward, contrapositive, constancy
  homogeneity         single-monomial fits of t -> mu(t f)
  invariance          finite-group exactness and exact SO(2)/SO(3) invariance
  hessian             mixed-discriminant valuations vs their forms
  bridge              conormal cycle vs gradient graph
  mass                mass of the cycle against the Lipschitz-based bound
  valuation-property  exact 1D identities and the lattice identity
  first-variation     finite differences vs the directional pairing
  consistency         smoothing limit of polyhedral evaluations

Sizes are configurable so the bundled quick configuration and the full
acceptance gate share one implementation.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .coefficients import CoefficientFn, ball_bump
from .convex import (
    LogSumExp,
    MaxAffine,
    PiecewiseLinear1D,
    Quadratic,
    Shifted,
    SmoothField,
    as_max_affine,
)
from .cycles import (
    Polyline1DCycle,
    build_1d,
    eval_polyline,
    eval_smooth_ridge_aligned,
    mass_smooth,
)
from .forms import (
    MAX_DIMENSION,
    Form,
    exterior_derivative,
    fiber_scaling,
    lefschetz_L,
    lefschetz_L_inverse,
    lie_derivative,
    linear_lift,
    pullback,
    standard_symplectic_form,
    vertical_translation,
    wedge,
)
from .grammar import ParseError, parse_body, parse_form, parse_function
from .lab import (
    MixedDiscriminantSpec,
    Valuation,
    battery,
    evaluate,
    first_variation_check,
    group_average,
    hessian_form,
    hessian_valuation,
    homogeneity_fit,
    k1_representation,
    kernel_check,
    mixed_discriminant,
    random_bump_form,
    random_kernel_form,
    random_window_form,
    scale_of,
    signed_permutations,
    so_generators,
    so_projection,
    volume_contraction_form,
    window_vanishing_weight,
    _rand_frac,
    _rand_pd_matrix,
    _wrapped_lse,
)
from .polyhedral import build_polyhedral, eval_polyhedral, mass_polyhedral, window_for
from .polynomials import Poly, Q
from .report import SuiteEntry, SuiteResult
from .rumin import g_invariance_conditions, rumin_d


DEFAULT_TOLERANCES = {
    "kernel_forward": 1e-7,
    "kernel_witness": 1e-3,
    "constant": 1e-7,
    "dual_epi": 1e-7,
    "homogeneity": 1e-7,
    "first_variation_residual": 1e-5,
    "first_variation_order": 0.2,
    "hessian_rel": 1e-6,
    "mixed_discriminant": 1e-10,
    "bridge": 1e-4,
    "consistency": 1e-3,
}

# sizes of the full acceptance runs; the bundled config scales these down
DEFAULT_SIZES = {
    "identity_dims": [1, 2, 3],
    "identity_forms": 200,
    "kernel_dims": [1, 2],
    "kernel_forms": 25,          # per dimension (50 total)
    "kernel_nonkernel": 10,      # per dimension (20 total)
    "kernel_battery": 32,
    "constant_forms": 5,
    "homogeneity_dims": [1, 2],
    "hessian_specs": 30,
    "mixed_disc_samples": 50,
    "bridge_dims": [1, 2],
    "bridge_forms": 10,
    "mass_dims": [1, 2],
    "mass_battery": 16,
    "valuation_pairs": 100,
    "first_variation_cases": 20,
    "consistency_functions": 20,
    "consistency_forms": 10,
}


@dataclass
class ExperimentConfig:
    n: int = 1
    seed: int = 7
    suites: list = field(default_factory=lambda: list(SUITES))
    forms: list = field(default_factory=list)
    functions: list = field(default_factory=list)
    bodies: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)

    def __post_init__(self):
        if not _is_int(self.n) or not 1 <= self.n <= MAX_DIMENSION:
            raise ValueError(f"n must be an integer in 1..{MAX_DIMENSION}, got {self.n!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for field_name, kind in (("suites", list), ("forms", list), ("functions", list),
                                 ("bodies", list), ("tolerances", dict), ("sizes", dict)):
            value = getattr(self, field_name)
            if not isinstance(value, kind):
                want = "a list" if kind is list else "an object"
                raise ValueError(f"{field_name} must be {want}, got {value!r}")
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown}")
        if not self.suites:
            raise ValueError("no suites to run: name at least one")
        repeated = sorted({s for s in self.suites if self.suites.count(s) > 1})
        if repeated:
            raise ValueError(f"suites named more than once: {repeated}")
        # tol() and size() fall back to the defaults, so a misspelt key
        # would otherwise be ignored without a word
        for field_name, known in (("tolerances", DEFAULT_TOLERANCES),
                                  ("sizes", DEFAULT_SIZES)):
            unknown = sorted(set(getattr(self, field_name)) - set(known))
            if unknown:
                raise ValueError(f"unknown {field_name} keys: {unknown}")
        for key, value in self.tolerances.items():
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or value < 0):
                raise ValueError(f"tolerance {key} must be a finite number >= 0, "
                                 f"got {value!r}")
        for key, value in self.sizes.items():
            if isinstance(DEFAULT_SIZES[key], list):
                # the kernel battery's polyhedral cycles and the mass
                # quadrature exist for n <= 2 only
                top = 2 if key in ("kernel_dims", "mass_dims") else MAX_DIMENSION
                ok = isinstance(value, list) and all(
                    _is_int(d) and 1 <= d <= top for d in value)
                want = f"a list of dimensions in 1..{top}"
            else:
                ok = _is_int(value) and value >= 0
                want = "a non-negative integer"
            if not ok:
                raise ValueError(f"size {key} must be {want}, got {value!r}")

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))

    def size(self, key: str):
        return self.sizes.get(key, DEFAULT_SIZES[key])

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        known = {"n", "seed", "suites", "forms", "functions", "bodies",
                 "tolerances", "sizes"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def to_dict(self) -> dict:
        return {
            "n": self.n, "seed": self.seed, "suites": list(self.suites),
            "forms": list(self.forms), "functions": list(self.functions),
            "bodies": list(self.bodies), "tolerances": dict(self.tolerances),
            "sizes": {k: v for k, v in self.sizes.items()},
        }

    def parsed_forms(self, n: int) -> list:
        return [_declared_form(s, n) for s in self.forms]

    def parsed_functions(self, n: int) -> list:
        return [parse_function(s, n) for s in self.functions]

    def parsed_bodies(self, n: int) -> list:
        return [parse_body(s, n) for s in self.bodies]

    def declared(self, kind: str, n: int) -> list:
        """``(index, object)`` for each declared object of ``kind`` (a key of
        ``_DECLARED``) that its suite evaluates at dimension n.  A spec that
        does not parse at n (a coordinate beyond n, a 1-D-only function) is
        not of dimension n."""
        use = _DECLARED[kind]
        out = []
        for i, spec in enumerate(getattr(self, kind)):
            try:
                obj = use.parse(spec, n)
            except ParseError:
                continue
            if use.keep(obj, n):
                out.append((i, obj))
        return out

    def check_declared(self) -> None:
        """Parse each declared object at its suite's dimensions (else at
        ``n``): raise the parse error of a spec that parses at none of them,
        and ValueError for one that no requested suite evaluates."""
        for kind, use in _DECLARED.items():
            requested = use.suite in self.suites
            dims = list(self.size(use.dims_key)) if requested else []
            for spec in getattr(self, kind):
                parsed, error = [], None
                for n in dims or [self.n]:
                    try:
                        parsed.append((use.parse(spec, n), n))
                    except ParseError as exc:
                        error = error or exc
                if not parsed:
                    raise error
                if any(n in dims and use.keep(obj, n) for obj, n in parsed):
                    continue
                where = (f"the {use.suite} suite evaluates {use.what} for n in {dims}"
                         if requested else f"only the {use.suite} suite evaluates "
                         f"{kind}, and it is not requested")
                if any(isinstance(obj, PiecewiseLinear1D) for obj, _ in parsed):
                    where = f"pwl specs serve dump-cycle; {where}"
                raise ValueError(f"declared {use.noun} {spec!r} is evaluated by "
                                 f"no requested suite: {where}")


def _declared_form(spec: str, n: int) -> Form:
    """A declared form; SupportError when the kernel suite cannot evaluate
    it (``Form.check_evaluable``, and ``Form.check_windows`` for its
    quadrature routes)."""
    tau = parse_form(spec, n)
    tau.check_evaluable()
    tau.check_windows()
    return tau


class _Declarable(NamedTuple):
    """How the suites use one kind of declared object."""

    noun: str
    parse: Callable        # (spec, n) -> object
    suite: str             # the one suite that evaluates this kind
    dims_key: str          # the size key of that suite's dimensions
    keep: Callable         # (object parsed at n, n) -> evaluated at n?
    what: str              # what the suite evaluates, for messages


_DECLARED = {
    "forms": _Declarable("form", _declared_form, "kernel", "kernel_dims",
                         lambda tau, n: tau.n == n and tau.degree == n,
                         "n-forms on T*R^n"),
    "functions": _Declarable("function", parse_function, "kernel", "kernel_dims",
                             lambda f, n: getattr(f, "n", None) == n,
                             "the convex catalog on R^n"),
    "bodies": _Declarable("body", parse_body, "bridge", "bridge_dims",
                          lambda K, n: K.n_ambient == n + 1, "bodies in R^(n+1)"),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# -- identities -------------------------------------------------------------------


def suite_identities(config: ExperimentConfig) -> list:
    entries = []
    count = int(config.size("identity_forms"))
    for n in config.size("identity_dims"):
        rng = np.random.default_rng(config.seed + 11 * n)
        sd = standard_symplectic_form(n)
        checks = {
            "d_squared": 0, "leibniz": 0, "lefschetz_roundtrip": 0,
            "rumin_primitive": 0, "rumin_kills_L": 0, "rumin_kills_exact": 0,
            "equivariance": 0, "scaling_intertwiner": 0,
        }
        failures: dict = {}
        g = _generic_linear(n)
        glift = linear_lift(n, g)
        phis = vertical_translation(n)
        mt = fiber_scaling(n)
        tslot = 2 * n
        for degree in range(0, 2 * n + 1):
            for i in range(count):
                a = random_bump_form(rng, n, degree=degree, nterms=2) \
                    if i % 2 else _random_poly_form(rng, n, degree)
                if degree < 2 * n - 1:
                    if not exterior_derivative(exterior_derivative(a)).is_zero():
                        failures.setdefault("d_squared", (n, degree, i))
                    checks["d_squared"] += 1
                if degree <= n:
                    b = _random_poly_form(rng, n, rng.integers(0, n + 1))
                    lhs = exterior_derivative(wedge(a, b))
                    rhs = wedge(exterior_derivative(a), b) \
                        + wedge(a, exterior_derivative(b)).scale((-1) ** a.degree)
                    if lhs != rhs:
                        failures.setdefault("leibniz", (n, degree, i))
                    checks["leibniz"] += 1
                if degree == n - 1:
                    if lefschetz_L_inverse(lefschetz_L(a)) != a:
                        failures.setdefault("lefschetz_roundtrip", (n, degree, i))
                    checks["lefschetz_roundtrip"] += 1
                if degree == n + 1:
                    if lefschetz_L(lefschetz_L_inverse(a)) != a:
                        failures.setdefault("lefschetz_roundtrip", (n, degree, i))
                    checks["lefschetz_roundtrip"] += 1
                if degree == n:
                    D = rumin_d(a)
                    if not wedge(sd, D).is_zero():
                        failures.setdefault("rumin_primitive", (n, i))
                    checks["rumin_primitive"] += 1
                    if n >= 2:
                        xi = _random_poly_form(rng, n, n - 2)
                        if not rumin_d(wedge(sd, xi)).is_zero():
                            failures.setdefault("rumin_kills_L", (n, i))
                        checks["rumin_kills_L"] += 1
                    rho = _random_poly_form(rng, n, n - 1)
                    if not rumin_d(exterior_derivative(rho)).is_zero():
                        failures.setdefault("rumin_kills_exact", (n, i))
                    checks["rumin_kills_exact"] += 1
                    if pullback(phis, D) != rumin_d(pullback(phis, a)):
                        failures.setdefault("equivariance", (n, i, "vertical"))
                    if pullback(glift, D) != rumin_d(pullback(glift, a)):
                        failures.setdefault("equivariance", (n, i, "linear"))
                    checks["equivariance"] += 2
                    t = Poly.variable(tslot + 1, tslot)
                    lhs = rumin_d(pullback(mt, a))
                    rhs = pullback(mt, D).map_coefficients(lambda c: c * t)
                    if lhs != rhs:
                        failures.setdefault("scaling_intertwiner", (n, i))
                    checks["scaling_intertwiner"] += 1
        for name, num in checks.items():
            ok = name not in failures
            entries.append(SuiteEntry(
                name=f"identities/n={n}/{name}", passed=ok,
                residual=0.0 if ok else None, tolerance=0.0,
                details={"checks": num, "witness": failures.get(name)}))
    return entries


def _generic_linear(n: int):
    g = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    g[0][n - 1] = g[0][n - 1] + Q(1, 2)  # shear; sign(det) = +1
    if n >= 2:
        g[1][0] = Q(-1, 3)
    return g


def _random_poly_form(rng, n, degree, nterms=2, max_deg=2):
    from .forms import _subsets

    keys = _subsets(range(2 * n), int(degree))
    terms: dict = {}
    for _ in range(nterms):
        key = keys[rng.integers(len(keys))]
        nv = 2 * n
        e = [0] * nv
        for _ in range(2):
            e[rng.integers(nv)] = int(rng.integers(0, max_deg + 1))
        c = CoefficientFn.from_poly(n, Poly.monomial(nv, e, _rand_frac(rng, 6, 3)))
        terms[key] = terms[key] + c if key in terms else c
    return Form(n, int(degree), terms)


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
        smooth_fam = [f for f in fam if f.smooth and _wrapped_lse(f) is None]
        for offset in _KERNEL_TOP_UP_SEEDS:
            if len(smooth_fam) >= max(_KERNEL_SMOOTH_MIN, len(fam) - 2):
                break
            extra = battery(n, seed=config.seed + offset,
                            size=int(config.size("kernel_battery")))
            smooth_fam += [f for f in extra
                           if f.smooth and _wrapped_lse(f) is None]
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
                           {"tol_zero": tol_c}))
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
        return SuiteEntry(
            name=name, passed=rep.mode == "kernel" and rep.passed,
            residual=rep.max_abs() / rep.scale, tolerance=tols["tol_zero"],
            details={"mode": rep.mode, "scale": rep.scale,
                     "functions": nfunctions})
    if kind == "contrapositive":
        return SuiteEntry(
            name=name, passed=rep.mode == "nonkernel" and rep.passed,
            residual=0.0 if rep.witness else rep.max_abs() / rep.scale,
            tolerance=tols["tol_witness"],
            details={"witness": rep.witness, "scale": rep.scale})
    if kind == "constant":
        return SuiteEntry(
            name=name, passed=rep.mode == "constant" and rep.passed,
            residual=max((abs(v - rep.zero_section_integral)
                          for v in rep.values), default=0.0) / rep.scale,
            tolerance=tols["tol_zero"],
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
                others = [abs(c) for i, c in enumerate(fit.coefficients) if i != k]
                worst = max(others) if others else 0.0
                entries.append(SuiteEntry(
                    name=f"homogeneity/n={n}/k={k}/f{j}",
                    passed=worst < tol * fit.scale,
                    residual=worst / fit.scale, tolerance=tol,
                    details={"coefficients": fit.coefficients}))
        # dual epi-translation invariance of the same bidegree forms
        tau = random_bump_form(rng, n, bidegree=(n - 1, 1), y_dependent=False)
        val = Valuation(tau)
        f = Quadratic(_rand_pd_matrix(rng, n))
        shifted = Shifted(f, [_rand_frac(rng, 2, 2) for _ in range(n)],
                          _rand_frac(rng, 2, 2))
        base, v = (float(row[0].value) for row in evaluate([val], [f, shifted]))
        tol_de = config.tol("dual_epi")
        entries.append(SuiteEntry(
            name=f"homogeneity/dual-epi/n={n}",
            passed=abs(v - base) <= tol_de * max(1.0, abs(base)),
            residual=abs(v - base) / max(1.0, abs(base)), tolerance=tol_de))
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
    ok = all(g_invariance_conditions(avg, g).invariant for g in D4)
    entries.append(SuiteEntry(
        name="invariance/finite-group/D4-average", passed=ok,
        residual=0.0 if ok else None, tolerance=0.0,
        details={"group_order": len(D4)}))

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
        ok = all(checks.values())
        entries.append(SuiteEntry(
            name=f"invariance/exact-SO{n}/k1-radial", passed=ok,
            residual=0.0 if ok else None, tolerance=0.0,
            details={"generators": len(gens), **checks}))
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
        denom = max(1e-9, abs(direct))
        entries.append(SuiteEntry(
            name=f"hessian/cross-check/{i}(n={n},k={k})",
            passed=abs(via - direct) <= tol * denom,
            residual=abs(via - direct) / denom, tolerance=tol,
            details={"direct": direct, "via_form": via}))
        i += 1

    tol_md = config.tol("mixed_discriminant")
    worst = 0.0
    samples = int(config.size("mixed_disc_samples"))
    for j in range(samples):
        n = 2 if j % 2 else 3
        mats = []
        for _ in range(n):
            M = rng.normal(size=(n, n))
            mats.append(M + M.T)
        got = mixed_discriminant(mats)
        ref = _mixed_disc_bruteforce(mats)
        worst = max(worst, abs(got - ref))
    entries.append(SuiteEntry(
        name="hessian/mixed-discriminant-oracle", passed=worst <= tol_md,
        residual=worst, tolerance=tol_md, details={"samples": samples}))
    # structural spot checks
    A = rng.normal(size=(3, 3))
    A = A + A.T
    dd = mixed_discriminant([A] * 3)
    entries.append(SuiteEntry(
        name="hessian/polarization-diagonal",
        passed=abs(dd - np.linalg.det(A)) < 1e-10,
        residual=abs(dd - float(np.linalg.det(A))), tolerance=1e-10))
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
    from .bridge import bridge_check

    entries = []
    tol = config.tol("bridge")
    for n in config.size("bridge_dims"):
        rng = np.random.default_rng(config.seed + 41 * n)
        from .convex import EllipsoidBody, PointBody

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
                entries.append(SuiteEntry(
                    name=f"bridge/n={n}/{bname}/form{i}",
                    passed=rep.residual <= tol * rep.scale,
                    residual=rep.residual / rep.scale, tolerance=tol,
                    details={"conormal": rep.conormal, "graph": rep.graph}))
    return entries


# -- mass --------------------------------------------------------------------------


def suite_mass(config: ExperimentConfig) -> list:
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
                    m = mass_smooth(f, R)
                bound = (2 ** n) * omega_n * f.sup_abs_bound(R + 1.0) ** n
                entries.append(SuiteEntry(
                    name=f"mass/n={n}/R={R}/f{i}", passed=m <= bound,
                    residual=m, tolerance=bound,
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
    entries.append(SuiteEntry(
        name="valuation-property/abs-kink", passed=got == 2 * Q(3, 7),
        residual=float(abs(got - 2 * Q(3, 7))), tolerance=0.0,
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
    entries.append(SuiteEntry(
        name="valuation-property/lattice-identity", passed=fails == 0,
        residual=float(fails), tolerance=0.0,
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
        entries.append(SuiteEntry(
            name=f"first-variation/case{made}(n={n})",
            passed=(abs(rep.order - 2.0) <= tol_o
                    and rep.residual <= tol_r * rep.scale),
            residual=rep.residual / rep.scale, tolerance=tol_r,
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
            approx, = eval_smooth_ridge_aligned(
                LogSumExp(ma, beta), cyc, [tau], layer=50.0 / beta,
                order=40, refine=56)
            approxes.append(float(approx.value))
            gaps.append(abs(approx.value - exact))
        scale = scale_of([exact] + approxes)
        # monotone within quadrature noise; the last gap sits at the floor
        decreasing = gaps[0] >= gaps[1] >= gaps[2] or \
            (gaps[2] <= 3e-5 * scale and gaps[0] >= gaps[1]) or \
            max(gaps) <= 1e-9 * scale  # evaluations agree to machine precision
        entries.append(SuiteEntry(
            name=f"consistency/case{made}",
            passed=decreasing and gaps[2] <= tol * scale,
            residual=gaps[2] / scale, tolerance=tol,
            details={"gaps": gaps, "exact": exact, "pieces": ma.m}))
        made += 1
    return entries


# -- registry ---------------------------------------------------------------------------


SUITES: dict[str, Callable[[ExperimentConfig], list]] = {
    "identities": suite_identities,
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


def run_suite(name: str, config: ExperimentConfig) -> SuiteResult:
    start = time.perf_counter()
    entries = SUITES[name](config)
    return SuiteResult(name, entries, time.perf_counter() - start)
