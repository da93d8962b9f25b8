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
acceptance gate share one implementation.  The identities suite, on the
exact layers alone, is defined here; the other nine, in ``numeric_suites``.
"""

from __future__ import annotations

import math
import numbers
import random
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .coefficients import CoefficientFn
from .forms import (
    MAX_DIMENSION,
    Form,
    _rand_frac,
    _subset_keys,
    exterior_derivative,
    fiber_scaling,
    lefschetz_L,
    lefschetz_L_inverse,
    linear_lift,
    pullback,
    random_bump_form,
    standard_symplectic_form,
    vertical_translation,
    wedge,
)
from .polynomials import Poly, Q
from .report import SuiteResult, exact_entry
from .rumin import rumin_d


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
                ok = (isinstance(value, list)
                      and all(_is_int(d) and 1 <= d <= top for d in value)
                      and len(set(value)) == len(value))
                want = f"a list of distinct dimensions in 1..{top}"
            else:
                ok = _is_int(value) and value >= 0
                want = "a non-negative integer"
            if not ok:
                raise ValueError(f"size {key} must be {want}, got {value!r}")
        # the layers a run uses load in set-up, not in a suite
        if set(self.suites) != {"identities"}:
            _numeric_suites()
        if "bridge" in self.suites:
            from . import bridge  # noqa: F401
        if self.forms or self.functions or self.bodies:
            _grammar()

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
        return [_DECLARED["functions"].parse(s, n) for s in self.functions]

    def parsed_bodies(self, n: int) -> list:
        return [_DECLARED["bodies"].parse(s, n) for s in self.bodies]

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
            except _grammar().ParseError:
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
                    except _grammar().ParseError as exc:
                        error = error or exc
                if not parsed:
                    raise error
                if any(n in dims and use.keep(obj, n) for obj, n in parsed):
                    continue
                where = (f"the {use.suite} suite evaluates {use.what} for n in {dims}"
                         if requested else f"only the {use.suite} suite evaluates "
                         f"{kind}, and it is not requested")
                from .convex import PiecewiseLinear1D

                if any(isinstance(obj, PiecewiseLinear1D) for obj, _ in parsed):
                    where = f"pwl specs serve dump-cycle; {where}"
                raise ValueError(f"declared {use.noun} {spec!r} is evaluated by "
                                 f"no requested suite: {where}")


def _declared_form(spec: str, n: int) -> Form:
    """A declared form; SupportError when the kernel suite cannot evaluate
    it (``Form.check_evaluable``, and ``Form.check_windows`` for its
    quadrature routes)."""
    tau = _grammar().parse_form(spec, n)
    tau.check_evaluable()
    tau.check_windows()
    return tau


def _grammar():
    """The grammar module, which only a config that declares objects loads."""
    from . import grammar

    return grammar


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
    "functions": _Declarable("function", lambda s, n: _grammar().parse_function(s, n),
                             "kernel", "kernel_dims",
                             lambda f, n: getattr(f, "n", None) == n,
                             "the convex catalog on R^n"),
    "bodies": _Declarable("body", lambda s, n: _grammar().parse_body(s, n),
                          "bridge", "bridge_dims",
                          lambda K, n: K.n_ambient == n + 1, "bodies in R^(n+1)"),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# -- identities -------------------------------------------------------------------


class _Draws(random.Random):
    """Python's Mersenne Twister with the ``integers`` of a numpy Generator,
    half-open like it: ``integers(hi)`` draws from [0, hi) and
    ``integers(lo, hi)`` from [lo, hi).  The form draws of ``forms`` run on
    it unchanged, without numpy."""

    def integers(self, lo: int, hi: int | None = None) -> int:
        return self.randrange(lo) if hi is None else self.randrange(lo, hi)


def suite_identities(config: ExperimentConfig) -> list:
    """The exact identities at each dimension of ``identity_dims``: d
    squared, Leibniz, the Lefschetz round trips and the Rumin operator's
    primitivity, kernel, equivariance and scaling, each on random forms.
    The forms are drawn from Python's ``random`` (:class:`_Draws`, seeded
    ``seed + 11 n``), so this suite, all exact algebra, loads no numpy;
    its entries record check counts and a failure's witness, not the forms."""
    entries = []
    count = int(config.size("identity_forms"))
    for n in config.size("identity_dims"):
        rng = _Draws(config.seed + 11 * n)
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
            entries.append(exact_entry(
                f"identities/n={n}/{name}", name not in failures,
                {"checks": num, "witness": failures.get(name)}))
    return entries


def _generic_linear(n: int):
    g = [[Q(1) if i == j else Q(0) for j in range(n)] for i in range(n)]
    g[0][n - 1] = g[0][n - 1] + Q(1, 2)  # shear; sign(det) = +1
    if n >= 2:
        g[1][0] = Q(-1, 3)
    return g


def _random_poly_form(rng, n, degree, nterms=2, max_deg=2):
    keys = _subset_keys(n, int(degree))
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


# -- registry ---------------------------------------------------------------------------


def _numeric_suites():
    """The module of every suite but identities, which imports the evaluator
    layers.  Validating a config that names one of its suites loads it, so
    that no suite run imports a module."""
    from . import numeric_suites

    return numeric_suites


def _numeric(name: str) -> Callable[[ExperimentConfig], list]:
    def suite(config: ExperimentConfig) -> list:
        return _numeric_suites().SUITES[name](config)

    return suite


SUITES: dict[str, Callable[[ExperimentConfig], list]] = {
    "identities": suite_identities,
    **{name: _numeric(name) for name in (
        "kernel", "homogeneity", "invariance", "hessian", "bridge", "mass",
        "valuation-property", "first-variation", "consistency")},
}


def run_suite(name: str, config: ExperimentConfig) -> SuiteResult:
    start = time.perf_counter()
    entries = SUITES[name](config)
    return SuiteResult(name, entries, time.perf_counter() - start)
