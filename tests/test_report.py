"""The verdict rule of ``report``: every suite entry whose verdict is a gap
within a tolerance is built by ``gap_entry``, every exact pass/fail entry by
``exact_entry``; only the witness and control entries set their verdict
themselves, which an ``ast`` scan of the suite modules holds."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np

from cycleval.coefficients import CoefficientFn, ball_bump
from cycleval.forms import Form, integrate_zero_section
from cycleval.lab import kernel_check, random_kernel_form
from cycleval.numeric_suites import _kernel_entry, suite_kernel
from cycleval.report import exact_entry, gap_entry, largest, scale_of, within
from cycleval.suites import ExperimentConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cycleval"

# (enclosing function, name argument) of each entry that passes when a
# difference exceeds a bound, or that is reported without a verdict
DIRECT_ENTRIES = Counter({
    ("_kernel_entry", "name"): 2,  # kernel/contrapositive and kernel/declared
    ("suite_valuation_property", "'valuation-property/orientation-negative-control'"): 1,
    ("suite_first_variation", "'first-variation/generation'"): 1,
})


def test_bound_is_inclusive_unless_strict():
    gap, tol, scale = 2.0, 0.5, 4.0  # gap == tol * scale exactly
    assert within(gap, tol, scale) and not within(gap, tol, scale, strict=True)
    assert gap_entry("e", gap, tol, scale).passed
    assert not gap_entry("e", gap, tol, scale, strict=True).passed
    assert not gap_entry("e", 2.5, tol, scale).passed


def test_extra_condition_false_fails_the_entry():
    assert gap_entry("e", 0.0, 1e-7).passed
    assert not gap_entry("e", 0.0, 1e-7, also=False).passed


def test_residual_is_gap_over_scale_bit_for_bit():
    for gap, scale in ((0.1, 3.0), (1e-17, 7.3), (2.5e-8, 1.0)):
        entry = gap_entry("e", gap, 1e-7, scale)
        assert entry.residual.hex() == (gap / scale).hex()
        assert entry.to_dict()["residual"].hex() == (gap / scale).hex()
        assert entry.tolerance == 1e-7


def test_exact_entry():
    held, broken = exact_entry("e", True, {"checks": 3}), exact_entry("e", False)
    assert (held.passed, held.residual, held.tolerance) == (True, 0.0, 0.0)
    assert (broken.passed, broken.residual, broken.tolerance) == (False, None, 0.0)
    assert "residual" not in broken.to_dict() and held.details == {"checks": 3}


def test_scale_floor():
    assert scale_of([]) == 1.0
    assert scale_of([0.25], floor=1e-9) == 0.25
    assert scale_of([-3.0, 2.0], floor=1e-9) == 3.0


def test_a_nan_gap_fails_the_rule():
    assert largest([]) == 0.0 and largest([0.5, 2.0]) == 2.0
    for gaps in ([0.0, float("nan")], [float("nan"), 0.0]):
        assert not gap_entry("e", largest(gaps), 1.0).passed
    tau = random_kernel_form(np.random.default_rng(5), 1)
    assert not kernel_check(tau, [], [0.0, float("nan")], tol_zero=1e-7, tol_witness=1e-3).passed


def test_a_kernel_entry_judged_on_no_evaluation_fails():
    # with no function at n, largest([]) reads 0: a gap that judges nothing
    tols = {"tol_zero": 1e-7, "tol_witness": 1e-3}
    tau = random_kernel_form(np.random.default_rng(5), 1)
    rep = kernel_check(tau, [], [], **tols)
    assert rep.mode == "kernel" and rep.gap == 0.0 and not rep.passed
    assert not _kernel_entry("kernel/forward", "forward", rep, tols, 0).passed
    const = Form(1, 1, {(0,): CoefficientFn.bump(1, ball_bump(1, 2)).scale(40)})
    rep = kernel_check(const, [], [], tol_zero=0.5, tol_witness=1e-3)
    assert rep.mode == "constant" and not rep.passed
    assert not _kernel_entry("kernel/constant", "constant", rep, {"tol_zero": 0.5}, 0).passed
    config = ExperimentConfig(n=1, seed=3, suites=["kernel"], sizes={
        "kernel_dims": [1], "kernel_forms": 1, "kernel_nonkernel": 0,
        "constant_forms": 1, "kernel_battery": 0})
    entries = suite_kernel(config)
    assert [e.name for e in entries] == ["kernel/forward/n=1/0(bump)", "kernel/constant/n=1/0"]
    assert not any(e.passed for e in entries)


def test_passing_constant_entry_reports_a_residual_within_its_tolerance():
    # the zero-section integral exceeds every value: the verdict's scale is
    # |integral|, and the residual is read on that same scale
    tau = Form(1, 1, {(0,): CoefficientFn.bump(1, ball_bump(1, 2)).scale(40)})
    i0 = float(integrate_zero_section(tau))
    assert i0 > 2
    rep = kernel_check(tau, [], [0.6 * i0], tol_zero=0.5, tol_witness=1e-3)
    assert rep.mode == "constant" and rep.passed and rep.scale == i0
    entry = _kernel_entry("kernel/constant", "constant", rep, {"tol_zero": 0.5}, 1)
    assert entry.passed and entry.residual <= entry.tolerance
    assert entry.residual == rep.gap / i0


def _direct_entries(path: Path) -> Counter:
    found = Counter()
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, ast.FunctionDef):
            continue
        for call in ast.walk(func):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "SuiteEntry"):
                kwargs = {k.arg: k.value for k in call.keywords}
                name = call.args[0] if call.args else kwargs["name"]
                found[func.name, ast.unparse(name)] += 1
    return found


def test_only_witness_and_control_entries_set_their_verdict():
    found = sum((_direct_entries(PACKAGE / f"{m}.py")
                 for m in ("suites", "numeric_suites")), Counter())
    assert found == DIRECT_ENTRIES
