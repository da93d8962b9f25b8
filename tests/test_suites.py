from fractions import Fraction as Q

import numpy as np
import pytest

from cycleval.coefficients import CoefficientFn
from cycleval.convex import wrapped_lse
from cycleval.forms import Form, exterior_derivative
from cycleval.lab import (
    Valuation,
    battery,
    evaluate,
    kernel_check,
    random_kernel_form,
    random_window_form,
    window_vanishing_weight,
)
from cycleval.report import SuiteEntry
from cycleval.rumin import rumin_d
from cycleval.numeric_suites import _KERNEL_SMOOTH_MIN, _KERNEL_TOP_UP_SEEDS, suite_kernel
from cycleval.suites import ExperimentConfig

SMALL_KERNEL = ExperimentConfig(
    n=1, seed=11, suites=["kernel"],
    forms=["bump(R=2) * dy1", "box(2) * x1^2 * dx1"],
    functions=["quadratic A=[[1]] b=[0] c=0", "maxaffine pieces=[[[1],0],[[-1],0]]"],
    sizes={"kernel_dims": [1, 2], "kernel_forms": 3, "kernel_nonkernel": 1,
           "constant_forms": 1, "kernel_battery": 8})


def _reference_kernel(config):
    """The kernel suite one (form, function) pair at a time, each form
    checked as soon as it is drawn."""
    entries = []
    tol_f = config.tol("kernel_forward")
    tol_w = config.tol("kernel_witness")
    tol_c = config.tol("constant")
    size = int(config.size("kernel_battery"))
    for n in config.size("kernel_dims"):
        rng = np.random.default_rng(config.seed + 101 * n)
        fam = battery(n, seed=config.seed + n, size=size)
        fam += [f for f in config.parsed_functions(n) if getattr(f, "n", None) == n]
        smooth_fam = [f for f in fam if f.smooth and wrapped_lse(f) is None]
        for offset in _KERNEL_TOP_UP_SEEDS:
            if len(smooth_fam) >= max(_KERNEL_SMOOTH_MIN, len(fam) - 2):
                break
            smooth_fam += [f for f in battery(n, seed=config.seed + offset, size=size)
                           if f.smooth and wrapped_lse(f) is None]

        def check(tau, functions, **tols):
            values = [float(evaluate([Valuation(tau)], [f])[0][0].value) for f in functions]
            return kernel_check(tau, functions, values, **tols)

        window = ((Q(-2), Q(2)),) * n
        nforms = int(config.size("kernel_forms"))
        for i in range(nforms):
            kind = "bump" if i < max(1, nforms // 5) else "window"
            tau = random_kernel_form(rng, n, kind=kind)
            functions = smooth_fam if kind == "bump" else fam
            rep = check(tau, functions, tol_zero=tol_f, tol_witness=tol_w)
            entries.append(SuiteEntry(
                name=f"kernel/forward/n={n}/{i}({kind})",
                passed=rep.mode == "kernel" and rep.passed,
                residual=rep.max_abs() / rep.scale, tolerance=tol_f,
                details={"mode": rep.mode, "scale": rep.scale,
                         "functions": len(functions)}))
        for i in range(int(config.size("kernel_nonkernel"))):
            tau = random_window_form(rng, n, n, nterms=2)
            if rumin_d(tau).is_zero():
                tau = tau + Form(n, n, {tuple(range(1, n)) + (n,): CoefficientFn.from_poly(
                    n, window_vanishing_weight(n, 2), box=window)})
            rep = check(tau, fam, tol_zero=tol_f, tol_witness=tol_w)
            entries.append(SuiteEntry(
                name=f"kernel/contrapositive/n={n}/{i}",
                passed=rep.mode == "nonkernel" and rep.passed,
                residual=0.0 if rep.witness else rep.max_abs() / rep.scale,
                tolerance=tol_w,
                details={"witness": rep.witness, "scale": rep.scale}))
        for i in range(int(config.size("constant_forms"))):
            tau = exterior_derivative(random_window_form(rng, n, n - 1))
            tau = tau + Form(n, n, {tuple(range(n)): CoefficientFn.from_poly(
                n, window_vanishing_weight(n, 2, power=2), box=window)})
            rep = check(tau, fam, tol_zero=tol_c, tol_witness=tol_w)
            entries.append(SuiteEntry(
                name=f"kernel/constant/n={n}/{i}",
                passed=rep.mode == "constant" and rep.passed,
                residual=max((abs(v - rep.zero_section_integral)
                              for v in rep.values), default=0.0) / rep.scale,
                tolerance=tol_c,
                details={"integral": rep.zero_section_integral}))
        for j, tau in enumerate(config.parsed_forms(n)):
            if tau.n != n or tau.degree != n:
                continue
            rep = check(tau, fam, tol_zero=tol_f, tol_witness=tol_w)
            entries.append(SuiteEntry(
                name=f"kernel/declared/n={n}/{j}", passed=True,
                details={"mode": rep.mode, "max_abs": rep.max_abs(),
                         "integral": rep.zero_section_integral}))
    return entries


def test_suite_kernel_matches_per_pair_reference():
    got = [e.to_dict() for e in suite_kernel(SMALL_KERNEL)]
    ref = [e.to_dict() for e in _reference_kernel(SMALL_KERNEL)]
    assert [e["name"] for e in got] == [e["name"] for e in ref]
    assert got == ref
    assert {e["name"].split("/")[1] for e in got} == \
        {"forward", "contrapositive", "constant", "declared"}


def test_suite_kernel_compiles_once_per_family_and_domain(monkeypatch):
    # the kernel-battery benchmark config at seed 7: each function family
    # is one battery, so each (family, support domain) is compiled once
    # (2 dimensions x {bump forms on the smooth family, window forms on
    # all}), not once per function (74), and each bump factor column is
    # computed once per node block of a battery
    from cycleval import coefficients

    compiled, columns = [], []
    init, factor = coefficients.CompiledBatch.__init__, coefficients.EvalCache.factor

    def counting_init(self, n, pieces):
        compiled.append(n)
        init(self, n, pieces)

    def counting_factor(self, f, pts):
        if f._ident not in self._factors:
            columns.append((f._ident, len(pts)))
        return factor(self, f, pts)

    monkeypatch.setattr(coefficients.CompiledBatch, "__init__", counting_init)
    monkeypatch.setattr(coefficients.EvalCache, "factor", counting_factor)
    config = ExperimentConfig(
        n=1, seed=7, suites=["kernel"],
        sizes={"kernel_dims": [1, 2], "kernel_forms": 3, "kernel_nonkernel": 1,
               "constant_forms": 1, "kernel_battery": 8})
    entries = suite_kernel(config)
    assert all(e.passed for e in entries)
    assert sorted(compiled) == [1, 1, 2, 2]
    # two bump factors per node block of each rule of the bump forms'
    # battery: at n = 1 one block per pass of the box (128 and 192 nodes);
    # at n = 2, where the bump form's pullback has degree 2 on the
    # quadratic, shifted and scaled functions and 4 on the quartic, one
    # block per pass of each polar rule, 56 and 64 radii times 3 angles
    # and times 5, and the plain ellipse rule's 6,272 and 8,192 nodes in 4
    # blocks for the body restriction; and one column per pass and
    # dimension for the zero-section integrals of the bump forms
    assert len(columns) == 2 * (2 + 2 + 2 + 4) + 2 * 2


def test_hessian_suite_builds_no_3d_box_rule(monkeypatch):
    # every Hessian valuation of the suite, on quadratics, is a bump times
    # a polynomial: at n = 3 both sides of the cross-check run on ellipsoid
    # rules of a few hundred nodes, not on the 32^3 / 48^3 box pair, whose
    # 143,360 nodes would set the suite's time
    from cycleval import quadrature
    from cycleval.suites import run_suite

    boxes = []
    real = quadrature._rule

    def rule(domain):
        if isinstance(domain, (tuple, list)):
            boxes.append(len(domain))
        return real(domain)

    monkeypatch.setattr(quadrature, "_rule", rule)
    config = ExperimentConfig(n=1, seed=7, suites=["hessian"],
                              sizes={"hessian_specs": 5, "mixed_disc_samples": 4})
    result = run_suite("hessian", config)
    assert all(e.passed for e in result.entries)
    assert any("(n=3," in e.name for e in result.entries)
    assert 3 not in boxes
    # a 3-D bump form on the box pair integrates that box
    from cycleval.convex import Quadratic
    from cycleval.cycles import eval_smooth
    from cycleval.forms import random_bump_form

    tau = random_bump_form(np.random.default_rng(5), 3, degree=3)
    eval_smooth(Quadratic(np.eye(3)), [tau], [tau.support_box()])
    assert boxes.count(3) == 1


def test_identity_draws_are_half_open_and_seeded():
    # the identities suite draws from Python's random through numpy's
    # half-open integers(hi) and integers(lo, hi)
    from cycleval.forms import random_bump_form
    from cycleval.suites import _Draws, _random_poly_form

    rng = _Draws(7)
    assert {rng.integers(-2, 3) for _ in range(10_000)} == {-2, -1, 0, 1, 2}
    assert {rng.integers(4) for _ in range(10_000)} == {0, 1, 2, 3}

    def forms(seed):
        rng = _Draws(seed)
        return [f for degree in range(5) for f in (random_bump_form(rng, 2, degree=degree),
                                                   _random_poly_form(rng, 2, degree))]

    assert forms(11) == forms(11)
    assert forms(11) != forms(12)


@pytest.mark.parametrize("seed", [7, 11, 100010, 200013])
def test_identities_suite_passes_at_workload_seeds(seed):
    # the exact-identities benchmark config at its first three draws' seeds
    # (7 + 100003 i) and at 11
    from cycleval.suites import run_suite

    config = ExperimentConfig(seed=seed, suites=["identities"],
                              sizes={"identity_dims": [1, 2, 3], "identity_forms": 16})
    entries = run_suite("identities", config).entries
    assert len(entries) == 24
    assert all(e.passed for e in entries), [e.name for e in entries if not e.passed]


def test_mass_bound_holds_at_a_seed_where_the_old_bound_failed():
    # the mass suite at cli-breadth sizes and config seed 100004: the bound
    # 2^n omega_n M^n left out the base's own measure, and
    # scaled(quadratic(n=1), t=1/2), whose mass over [-R, R] is above 2R,
    # failed it at both radii; omega_n (R + 2M)^n holds for every entry
    from cycleval.suites import run_suite

    config = ExperimentConfig(seed=100004, suites=["mass"],
                              sizes={"mass_dims": [1, 2], "mass_battery": 16})
    entries = run_suite("mass", config).entries
    assert len(entries) == 64
    assert all(e.passed for e in entries), [e.name for e in entries if not e.passed]
