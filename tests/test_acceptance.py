"""Acceptance gate: every criterion at its stated tolerance and scale.

Each test runs the corresponding suite at full size, prints one PASS/FAIL
line, and asserts.  Runtime limits are asserted where the criterion states
them.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import pytest

from cycleval.suites import ExperimentConfig, run_suite

CONFIG = ExperimentConfig(n=1, seed=7)


def _report(label, result, seconds=None, budget=None):
    status = "PASS" if result else "FAIL"
    extra = f" ({seconds:.1f}s / budget {budget}s)" if seconds is not None else ""
    print(f"[{status}] {label}{extra}")


def _failures(res):
    return [e.to_dict() for e in res.entries if not e.passed][:5]


def test_criterion_01_exact_symbolic_suite():
    # d^2, Leibniz, Lefschetz round trip, operator identities: exact, n in
    # {1,2,3}, 200 randomized forms per degree, under 2 minutes
    t0 = time.perf_counter()
    res = run_suite("identities", CONFIG)
    dt = time.perf_counter() - t0
    checks = sum(e.details.get("checks", 0) for e in res.entries)
    _report(f"criterion 1: exact symbolic suite ({checks} checks)",
            res.passed and dt < 120.0, dt, 120)
    assert res.passed, _failures(res)
    assert dt < 120.0, f"runtime {dt:.1f}s exceeds the 2 minute budget"
    dims = {e.name.split("/")[1] for e in res.entries}
    assert dims == {"n=1", "n=2", "n=3"}


@pytest.fixture(scope="module")
def kernel_result():
    t0 = time.perf_counter()
    res = run_suite("kernel", CONFIG)
    res.seconds = time.perf_counter() - t0
    return res


def test_criterion_02_kernel_forward(kernel_result):
    res = kernel_result
    forward = [e for e in res.entries if "/forward/" in e.name]
    n_forms = len(forward)
    sizes_ok = n_forms >= 50
    fn_counts = [e.details.get("functions", 0) for e in forward]
    ok = all(e.passed for e in forward) and sizes_ok and res.seconds < 300.0
    _report(f"criterion 2: kernel forward ({n_forms} forms, "
            f">= {min(fn_counts)} functions each)", ok, res.seconds, 300)
    assert sizes_ok
    assert all(e.passed for e in forward), _failures(res)
    assert res.seconds < 300.0


def test_criterion_03_kernel_contrapositive(kernel_result):
    probes = [e for e in kernel_result.entries if "/contrapositive/" in e.name]
    ok = len(probes) >= 20 and all(e.passed for e in probes)
    _report(f"criterion 3: kernel contrapositive ({len(probes)} witnesses)", ok)
    assert len(probes) >= 20
    assert all(e.passed for e in probes), [e.to_dict() for e in probes if not e.passed]


def test_criterion_04_constant_valuations(kernel_result):
    const = [e for e in kernel_result.entries if "/constant/" in e.name]
    ok = const and all(e.passed for e in const)
    _report(f"criterion 4: constant-valuation corollary ({len(const)} forms)", ok)
    assert ok, [e.to_dict() for e in const if not e.passed]


def test_criterion_05_exact_1d_identities():
    res = run_suite("valuation-property", CONFIG)
    kink = next(e for e in res.entries if "abs-kink" in e.name)
    lattice = next(e for e in res.entries if "lattice" in e.name)
    pairs = lattice.details["pairs"]
    ok = res.passed and pairs >= 100
    _report(f"criterion 5: exact 1D identities ({pairs} lattice pairs)", ok)
    assert kink.passed and kink.residual == 0.0
    assert lattice.passed and pairs >= 100, lattice.to_dict()


def test_criterion_06_mass_bound():
    res = run_suite("mass", CONFIG)
    per_dim = {}
    for e in res.entries:
        per_dim.setdefault(e.name.split("/")[1], []).append(e)
    ok = res.passed and set(per_dim) == {"n=1", "n=2"}
    _report(f"criterion 6: mass bound ({len(res.entries)} cases, R in {{1,2}})", ok)
    assert ok, _failures(res)


def test_criterion_07_smoothing_consistency():
    res = run_suite("consistency", CONFIG)
    cases = [e for e in res.entries if e.name.startswith("consistency/case")]
    ok = res.passed and len(cases) >= 20
    _report(f"criterion 7: smoothing consistency ({len(cases)} cases)", ok)
    assert len(cases) >= 20
    assert res.passed, _failures(res)


def test_criterion_08_homogeneity_fits():
    res = run_suite("homogeneity", CONFIG)
    fits = [e for e in res.entries if "/k=" in e.name]
    ks = {e.name.split("/")[2] for e in fits}
    ok = res.passed and {"k=0", "k=1", "k=2"} <= ks
    _report(f"criterion 8: homogeneity fits ({len(fits)} fits, {sorted(ks)})", ok)
    assert ok, _failures(res)


def test_criterion_09_first_variation():
    res = run_suite("first-variation", CONFIG)
    cases = [e for e in res.entries if "/case" in e.name]
    orders = [e.details["order"] for e in cases]
    ok = res.passed and len(cases) >= 20 \
        and all(abs(o - 2.0) <= 0.2 for o in orders)
    _report(f"criterion 9: first variation ({len(cases)} cases, "
            f"orders in [{min(orders):.2f}, {max(orders):.2f}])", ok)
    assert len(cases) >= 20
    assert res.passed, _failures(res)


def test_criterion_10_hessian_cross_checks():
    res = run_suite("hessian", CONFIG)
    cross = [e for e in res.entries if "cross-check" in e.name]
    dims = {e.name.split("(")[1].split(",")[0] for e in cross}
    oracle = next(e for e in res.entries if "oracle" in e.name)
    ok = res.passed and len(cross) >= 30 and dims == {"n=1", "n=2", "n=3"} \
        and oracle.details["samples"] >= 50
    _report(f"criterion 10: Hessian cross-checks ({len(cross)} specs, "
            f"{oracle.details['samples']} discriminant samples)", ok)
    assert ok, _failures(res)


def test_criterion_11_conormal_bridge():
    t0 = time.perf_counter()
    res = run_suite("bridge", CONFIG)
    dt = time.perf_counter() - t0
    bodies = {e.name.split("/")[2] for e in res.entries}
    ok = res.passed and dt < 300.0 \
        and {"unit-ball", "point", "ellipsoid0", "ellipsoid1", "ellipsoid2"} <= bodies
    _report(f"criterion 11: conormal bridge ({len(res.entries)} checks)",
            ok, dt, 300)
    assert res.passed, _failures(res)
    assert dt < 300.0


def test_criterion_12_invariance():
    res = run_suite("invariance", CONFIG)
    finite = next(e for e in res.entries if "finite-group" in e.name)
    so2 = next(e for e in res.entries if "SO2" in e.name)
    so3 = next(e for e in res.entries if "SO3" in e.name)
    ok = res.passed
    _report("criterion 12: invariance (finite group and so(n), exact)", ok)
    assert finite.passed, finite.to_dict()
    for e in (so2, so3):
        assert e.passed and e.residual == 0.0, e.to_dict()
        assert e.details["invariant"] and e.details["density_radial"], e.to_dict()


def test_invariance_exact_across_seeds():
    # the octahedral stand-in for SO(3) failed at seeds 5, 17 and 18
    for seed in range(1, 19):
        res = run_suite("invariance", ExperimentConfig(n=1, seed=seed))
        assert len(res.entries) == 3
        for e in res.entries:
            assert e.passed and e.residual == 0.0, (seed, e.to_dict())
