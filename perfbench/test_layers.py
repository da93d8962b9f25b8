"""Self-test of the benchmark: layer separation and trace transparency.

    python3 -m pytest -q perfbench/test_layers.py

Each workload runs once, traced, at reduced sizes, and so does a
consistency-only config that is not a benchmark workload (NOTES.md).  The tests assert the
"predicted 0" and "exercised" columns of the layer table in NOTES.md: a
count that should be zero on a workload is exactly zero, and a layer the
workload exercises is seen at all, which shows that the wrappers catch the
``from .x import f`` bindings.  They also check that tracing leaves
report.json byte-identical and that BENCHMARK.json names the metrics the
benchmark prints.
"""

from __future__ import annotations

import json
import shutil

import pytest

import run
from layertrace import PER_LAYER, SUITE_NAMES

# The consistency suite alone: its cost depends too much on the input for a
# steady benchmark figure, but its layer separation is still asserted.
CONSISTENCY_ONLY = {"n": 1, "seed": 7, "suites": ["consistency"], "sizes": {}}
CASES = sorted(run.WORKLOADS) + ["consistency-only"]

SMALL_SIZES = {
    "exact-identities": {"identity_forms": 2},
    "kernel-battery": {"kernel_forms": 1, "kernel_nonkernel": 1,
                       "constant_forms": 1},
    "consistency-only": {"consistency_functions": 1, "consistency_forms": 1},
    "cli-breadth": {"identity_forms": 1, "kernel_forms": 1, "kernel_nonkernel": 1,
                    "hessian_specs": 2, "mixed_disc_samples": 4, "bridge_forms": 1,
                    "mass_battery": 8, "valuation_pairs": 10,
                    "first_variation_cases": 2},
}

ZERO = {
    "exact-identities": [
        "convex.gradient_array.calls", "convex.hessian_array.calls",
        "coefficients.eval_array.calls", "quadrature.integrate_box.calls",
        "polynomials.eval_array.calls", "lab.evaluate.calls",
        "polyhedral.build.calls", "bridge.conormal_eval.calls"],
    "kernel-battery": ["bridge.conormal_eval.calls", "cycles.eval_polyline.calls",
                       "lab.route.polyline"],
    "consistency-only": [
        "cycles.eval_smooth.calls", "quadrature.integrate_box.calls",
        "bridge.conormal_eval.calls", "lab.evaluate.calls",
        "polynomials.mul.calls", "polynomials.add.calls", "polynomials.subs.calls",
        "polynomials.divide_exact.calls", "forms.d.calls", "forms.wedge.calls",
        "forms.pullback.calls", "forms.lefschetz.calls", "rumin.rumin_d.calls"],
    # no battery holds a PiecewiseLinear1D: polylines are evaluated directly
    "cli-breadth": ["lab.route.polyline"],
}

EXERCISED = {
    "exact-identities": [
        "polynomials.mul.calls", "polynomials.add.calls", "polynomials.subs.calls",
        "polynomials.divide_exact.calls", "coefficients.construct.calls",
        "coefficients.q_poly.calls", "forms.d.calls", "forms.wedge.calls",
        "forms.pullback.calls", "forms.lefschetz.calls", "rumin.rumin_d.calls"],
    "kernel-battery": [
        "polynomials.eval_array.calls", "coefficients.eval_array.calls",
        "convex.gradient_array.calls", "convex.hessian_array.calls",
        "convex.lse.gradient_array.self_s", "quadrature.integrate_box.calls",
        "cycles.eval_smooth.calls", "cycles.ridge_aligned.calls",
        "cycles.integrand.calls", "polyhedral.build.calls", "polyhedral.eval.calls",
        "lab.evaluate.calls", "lab.route.smooth", "lab.route.ridge",
        "lab.route.polyhedral", "lab.kernel_check.calls", "rumin.rumin_d.calls",
        "forms.integrate_zero_section.calls"],
    "consistency-only": [
        "coefficients.eval_array.calls", "convex.gradient_array.calls",
        "convex.lse.hessian_array.self_s", "cycles.ridge_aligned.calls",
        "cycles.integrand.calls", "polyhedral.build.calls", "polyhedral.eval.calls"],
    "cli-breadth": [
        "bridge.conormal_eval.calls", "cycles.eval_polyline.calls",
        "cycles.mass_smooth.self_s", "polyhedral.mass.self_s",
        "lab.hessian_valuation.self_s", "lab.first_variation_check.self_s",
        "rumin.g_invariance.self_s", "grammar.parse.self_s", "report.to_json.self_s",
        "cli.write.self_s"] + [f"suites.{s}.wall_s" for s in SUITE_NAMES],
}


@pytest.fixture(scope="module")
def traced():
    """Layer metrics and report hashes of one traced and one untraced
    suite run per workload, at reduced sizes."""
    out = {}
    base = run.WORK / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    for name in CASES:
        w = run.WORKLOADS.get(name, {})
        config = (run.workload_config(name, 7) if name in run.WORKLOADS
                  else json.loads(json.dumps(CONSISTENCY_ONLY)))
        config["sizes"].update(SMALL_SIZES[name])
        rundir = base / name
        rundir.mkdir(parents=True)
        cfg_path = rundir / "config.json"
        cfg_path.write_text(json.dumps(config))
        cli = bool(w.get("cli"))
        reps = [run.spawn(rundir, tag, cfg_path, cli, tag == "traced", False, 150.0)
                for tag in ("plain", "traced")]
        expected = run.expected_entries(config, w.get("declared_entries", {}))
        for rep in reps:
            failed, problems = run.verify(rep, config, expected, cli)
            assert not problems, (name, rep["tag"], problems, rep.get("stderr"))
        out[name] = {"layers": reps[1]["result"]["layers"],
                     "shas": [rep["report_sha"] for rep in reps]}
    return out


@pytest.mark.parametrize("workload", CASES)
def test_predicted_zero(traced, workload):
    layers = traced[workload]["layers"]
    assert {m: layers[m] for m in ZERO[workload] if layers[m] != 0} == {}


@pytest.mark.parametrize("workload", CASES)
def test_exercised_layers_seen(traced, workload):
    layers = traced[workload]["layers"]
    assert [m for m in EXERCISED[workload] if not layers[m] > 0] == []


def test_conormal_bridge_only_on_cli_breadth(traced):
    calls = {w: traced[w]["layers"]["bridge.conormal_eval.calls"] for w in traced}
    assert [w for w, c in calls.items() if c > 0] == ["cli-breadth"]


def test_tracing_leaves_report_unchanged(traced):
    for workload, t in traced.items():
        assert t["shas"][0] == t["shas"][1], workload


def test_spans_cover_the_suites(traced):
    for workload, t in traced.items():
        assert 0.5 < t["layers"]["trace.coverage"] <= 1.0, workload


def test_benchmark_json_matches_run_py():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _, _ in PER_LAYER]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(u, b) for _, u, b in PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"wall_s", "setup_s", "peak_rss_mb"}
