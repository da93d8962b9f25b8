"""Which modules a run imports, and when.

Each test runs in a fresh interpreter, so that the modules it finds loaded
are the ones its own imports and calls loaded.  A run of the identities
suite alone loads no evaluator, no quadrature, no grammar and no numpy,
and every suite's run imports no cycleval module: the evaluators a config
needs, and the grammar of its declared objects, load while the config is
validated, in set-up, not in a suite's timed run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
EVALUATORS = ["cycleval.bridge", "cycleval.convex", "cycleval.cycles", "cycleval.lab",
              "cycleval.polyhedral"]
# the layers an identities run does without
NUMERIC = ["cycleval.grammar", "cycleval.quadrature"]

# the sizes of a one-suite config small enough to run in a moment
TINY = {
    "identities": {"identity_dims": [1], "identity_forms": 1},
    "kernel": {"kernel_dims": [1], "kernel_forms": 1, "kernel_nonkernel": 1,
               "constant_forms": 1, "kernel_battery": 2},
    "homogeneity": {"homogeneity_dims": [1]},
    "invariance": {},
    "hessian": {"hessian_specs": 1, "mixed_disc_samples": 1},
    "bridge": {"bridge_dims": [1], "bridge_forms": 1},
    "mass": {"mass_dims": [1], "mass_battery": 2},
    "valuation-property": {"valuation_pairs": 1},
    "first-variation": {"first_variation_cases": 1},
    "consistency": {"consistency_functions": 1, "consistency_forms": 1},
}

# cycleval.__all__ before its names were imported lazily
EXPORTS = [
    "BumpFactor", "CoefficientFn", "ConvexBody", "ConvexFunction", "EllipsoidBody", "Form",
    "LogSumExp", "MaxAffine", "PiecewiseLinear1D", "PointBody", "Poly", "PolynomialMap",
    "Quadratic", "RuminResult", "Scaled", "Shifted", "SmoothCatalog", "SmoothField",
    "SmoothedBoxBody", "Valuation", "ball_bump", "battery", "body_restriction",
    "coefficients", "convex", "cycles", "d_bar", "evaluate", "exactla",
    "exterior_derivative", "forms", "integrate_zero_section", "interior_product",
    "kernel_check", "lab", "lefschetz_L", "lefschetz_L_inverse", "mixed_discriminant",
    "polyhedral", "polynomials", "pullback", "quadrature", "rumin", "rumin_d", "wedge"]


def _fresh(script: str, *args: str):
    """The JSON that ``script`` prints, run with ``args`` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "sorted(k for k in sys.modules if k.startswith('cycleval'))"
NUMPY = "'numpy' in sys.modules"


def test_identities_run_loads_no_evaluator(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["identities"], "sizes": TINY["identities"]}))
    loaded = _fresh(f"""
import json, sys
from cycleval import cli, suites
code = cli.main(["run", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, {LOADED}, {NUMPY}]))
""", str(cfg), str(tmp_path / "out"))
    assert loaded[0] == 0
    assert (tmp_path / "out" / "report.json").is_file()
    assert not set(EVALUATORS + NUMERIC) & set(loaded[1]), loaded[1]
    assert loaded[2] is False


def test_identities_worker_sequence_loads_no_numpy():
    # what a benchmark worker does: validate, parse the declared objects,
    # run the suite
    numpy = _fresh(f"""
import json, sys
from cycleval.suites import ExperimentConfig, run_suite
config = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
config.parsed_forms(config.n)
config.parsed_functions(config.n)
config.parsed_bodies(config.n)
result = run_suite("identities", config)
assert result.entries and all(e.passed for e in result.entries)
print(json.dumps({NUMPY}))
""", json.dumps({"suites": ["identities"], "sizes": TINY["identities"]}))
    assert numpy is False


def test_exact_core_and_driver_load_no_quadrature_or_grammar():
    loaded = _fresh(f"""
import json, sys
from cycleval import cli, coefficients, exactla, forms, polynomials, report, rumin, suites
print(json.dumps([{LOADED}, {NUMPY}]))
""")
    assert not set(EVALUATORS + NUMERIC) & set(loaded[0]), loaded[0]
    assert loaded[1] is False


# evaluates the numeric methods of the exact core in the order
# sys.argv[1] gives, after importing numpy first if sys.argv[2] says so
NUMERIC_CALLS = """
import json, sys
if sys.argv[2] == "eager":
    import numpy
from fractions import Fraction
from cycleval.coefficients import CoefficientFn, CompiledBatch, ball_bump
from cycleval.polynomials import Poly
assert ("numpy" in sys.modules) == (sys.argv[2] == "eager")
p = Poly.monomial(2, (2, 1), Fraction(3, 7)) + Poly.variable(2, 0)
c = CoefficientFn.bump(1, ball_bump(1, 2), p) + CoefficientFn.from_poly(1, p)
pts = [[0.3, -0.7], [1.1, 0.2], [-1.9, 0.5], [2.5, 1.0]]


def batch():
    import numpy as np
    out = np.zeros((2, len(pts)))
    CompiledBatch(1, [(0, "w", c, 1), (1, "w", c * c, -1)]).add_to(
        out, np.ascontiguousarray(np.array(pts).T), {"w": 0.5})
    return [v for row in out for v in row]


calls = {"poly": lambda: p.eval_array(pts), "coefficient": lambda: c.eval_array(pts),
         "x": lambda: c.eval_x_array([[0.3], [1.9]]), "point": lambda: [c.eval_point(pts[0])],
         "batch": batch}
print(json.dumps({name: [float(v).hex() for v in calls[name]()]
                  for name in sys.argv[1].split(",")}))
"""


@pytest.mark.parametrize("first", ["poly", "coefficient", "batch"])
def test_numeric_calls_import_numpy_on_first_use(first):
    # the exact core defers numpy to its numeric methods; called first
    # thing, they give the bits of a run that imported numpy eagerly
    order = ",".join([first] + [k for k in ("poly", "coefficient", "x", "point", "batch")
                                if k != first])
    lazy = _fresh(NUMERIC_CALLS, order, "lazy")
    assert lazy == _fresh(NUMERIC_CALLS, order, "eager")
    assert len(lazy["batch"]) == 8 and any(v != "0x0.0p+0" for v in lazy["coefficient"])


def test_kernel_config_loads_numpy_in_validation():
    numpy = _fresh(f"""
import json, sys
from cycleval.suites import ExperimentConfig
before = {NUMPY}
ExperimentConfig.from_dict(json.loads(sys.argv[1]))
print(json.dumps([before, {NUMPY}]))
""", json.dumps({"suites": ["kernel"], "sizes": TINY["kernel"]}))
    assert numpy == [False, True]


def test_exact_layers_load_no_evaluator():
    loaded = _fresh(f"""
import json, sys
from cycleval import coefficients, exactla, forms, polynomials, quadrature, report, rumin
print(json.dumps({LOADED}))
""")
    assert not set(EVALUATORS) & set(loaded), loaded
    assert "cycleval.numeric_suites" not in loaded


def test_every_exported_name_resolves():
    got = _fresh("""
import json
import cycleval
names = [n for n in cycleval.__all__ if getattr(cycleval, n, None) is not None]
print(json.dumps([cycleval.__all__, names]))
""")
    assert got == [EXPORTS, EXPORTS]


def _validated(config: dict):
    """The cycleval modules loaded after ``config`` is validated, then after
    its first suite, which makes entries, has run."""
    got = _fresh(f"""
import json, sys
from cycleval.suites import ExperimentConfig, run_suite
config = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
before = {LOADED}
result = run_suite(config.suites[0], config)
print(json.dumps([len(result.entries), before, {LOADED}]))
""", json.dumps(config))
    entries, before, after = got
    assert entries > 0
    return before, after


def test_declared_form_loads_grammar_in_validation():
    before, after = _validated({"suites": ["kernel"], "sizes": TINY["kernel"],
                                "forms": ["bump(R=2) * dy1"]})
    assert "cycleval.grammar" in before
    assert after == before


@pytest.mark.parametrize("suite", list(TINY))
def test_a_suite_run_imports_no_module(suite):
    # set-up (the config's validation) imports what the suite needs; the
    # suite's own run, the timed region of a benchmark, imports nothing
    before, after = _validated({"suites": [suite], "sizes": TINY[suite]})
    assert after == before
    # bridge serves the bridge suite alone; lab needs the other three; a
    # config that declares nothing needs no grammar
    uses = {"identities": set(), "bridge": set(EVALUATORS)}
    assert set(EVALUATORS) & set(after) == uses.get(suite, set(EVALUATORS) - {"cycleval.bridge"})
    assert "cycleval.grammar" not in after
