import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from cycleval import cli
from cycleval.cli import main

QUICK_SIZES = {
    "identity_dims": [1], "identity_forms": 4,
    "kernel_dims": [1], "kernel_forms": 2, "kernel_nonkernel": 1,
    "kernel_battery": 6, "constant_forms": 1,
    "homogeneity_dims": [1],
    "hessian_specs": 2, "mixed_disc_samples": 4,
    "bridge_dims": [1], "bridge_forms": 1,
    "mass_dims": [1], "mass_battery": 4,
    "valuation_pairs": 5,
    "first_variation_cases": 2,
    "consistency_functions": 2, "consistency_forms": 1,
}


def _write_config(path, **overrides):
    cfg = {"n": 1, "seed": 3, "suites": ["valuation-property", "mass"],
           "sizes": QUICK_SIZES}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_run_pass_and_reports(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["overall_pass"] is True
    assert {s["suite"] for s in report["suites"]} == {"valuation-property", "mass"}
    assert "started:" in (out / "summary.txt").read_text()


def test_run_deterministic_reports(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_process_wide_caches_leave_no_trace_in_the_report(tmp_path):
    # interned matrices, memoised signs and cached transforms persist in a
    # process: the exact-identities config (seed 7) reports the same bytes
    # twice after a kernel suite has interned other matrices, and in a
    # fresh process
    ident = _write_config(tmp_path / "ident.json", seed=7, suites=["identities"],
                          sizes={"identity_dims": [1, 2, 3], "identity_forms": 16})
    kernel = _write_config(tmp_path / "kernel.json", seed=5, suites=["kernel"],
                           sizes={**QUICK_SIZES, "kernel_dims": [1, 2], "kernel_forms": 1,
                                  "kernel_battery": 2})
    assert main(["run", str(kernel), "--out", str(tmp_path / "k")]) in (0, 1)
    runs = []
    for name in ("a", "b"):
        assert main(["run", str(ident), "--out", str(tmp_path / name)]) == 0
        runs.append((tmp_path / name / "report.json").read_bytes())
    proc = subprocess.run([sys.executable, "-m", "cycleval", "run", str(ident),
                           "--out", str(tmp_path / "fresh")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert runs[0] == runs[1] == (tmp_path / "fresh" / "report.json").read_bytes()


def test_kernel_runs_in_one_process_match_fresh_processes(tmp_path):
    # memoised quadrature rules and lazily pruned max-affine pieces persist
    # in a process: two kernel-battery-like configs run one after the other
    # write the bytes each writes in a fresh process
    sizes = {**QUICK_SIZES, "kernel_dims": [1, 2], "kernel_forms": 3,
             "kernel_battery": 8}
    cfgs = [_write_config(tmp_path / f"k{seed}.json", seed=seed, suites=["kernel"],
                          sizes=sizes) for seed in (7, 100010)]
    script = ("import sys; from cycleval.cli import main; "
              "sys.exit(max(main(['run', c, '--out', c + '.out']) for c in sys.argv[1:]))")
    runs = [[str(c) for c in cfgs]] + [[str(c)] for c in cfgs]
    reports = []
    for args in runs:
        proc = subprocess.run([sys.executable, "-c", script, *args],
                              capture_output=True, text=True)
        assert proc.returncode in (0, 1), proc.stderr
        reports.append([(Path(c + ".out") / "report.json").read_bytes()
                        for c in args])
    assert reports[0] == reports[1] + reports[2]


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # n = 2 bump and window forms, on the ellipse rule and on 160^2 box
    # rules whose node sums a threaded BLAS dot would split by threads
    cfg = _write_config(tmp_path / "cfg.json", seed=7, suites=["kernel"],
                        sizes={**QUICK_SIZES, "kernel_dims": [2], "kernel_forms": 3,
                               "kernel_battery": 8})
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "cycleval", "run", str(cfg),
                               "--out", str(out)], capture_output=True, text=True,
                              env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("spec,message", [
    ("box(-2,2) * dx1 + box(0,1) * dx1",
     "cannot add coefficients on the windows [-2, 2] and [0, 1]"),
    ("box(-2,2) * dx1 + box(0,1) * dy1",
     "the polynomial coefficients of one form have the windows [-2, 2] and [0, 1]"),
    # a polynomial without a window has no support box at all
    ("x1 * dy1", "form needs horizontally compact (or windowed) support"),
    ("box(-2,2) * dx1 + x1 * dy1", "form needs horizontally compact (or windowed) support"),
    # a box whose bounds are reversed
    ("box(1,-1) * dx1", "box bounds of x1 are reversed: 1 > -1"),
])
def test_exit_code_form_on_two_windows(tmp_path, capsys, spec, message):
    # the graph evaluators integrate every term of a form over one box
    cfg = _write_config(tmp_path / "cfg.json", suites=["kernel"], forms=[spec])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


# the kernel-battery workload of the benchmark
KERNEL_BATTERY = {"suites": ["kernel"],
                  "sizes": {"kernel_dims": [1, 2], "kernel_forms": 3, "kernel_nonkernel": 1,
                            "constant_forms": 1, "kernel_battery": 8}}
# numpy's X86_V2 baseline on an x86 host with a higher dispatch level
BASELINE_DISPATCH = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def _close(a, b, where=""):
    """Equal but for floats, which may differ by 2.2e-14·max(1, |v|): ten
    times the 2.2e-15 measured between two dispatch levels on these
    configs."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _close(a[key], b[key], f"{where}/{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _close(x, y, f"{where}/{x.get('name', i) if isinstance(x, dict) else i}")
    elif isinstance(a, float) and isinstance(b, float):
        assert abs(a - b) <= 2.2e-14 * max(1.0, abs(a)), (where, a, b)
    else:
        assert a == b, (where, a, b)


@pytest.mark.parametrize("seed", [7, 11])
def test_reports_agree_across_cpu_dispatch_levels(tmp_path, seed):
    # numpy's transcendental array kernels round differently at different
    # dispatch levels: verdicts stay, floats move by rounding only
    cfg = _write_config(tmp_path / "cfg.json", seed=seed, **KERNEL_BATTERY)
    base = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    lowered = {**base, "NPY_DISABLE_CPU_FEATURES": BASELINE_DISPATCH}
    if subprocess.run([sys.executable, "-c", "import numpy"], env=lowered,
                      capture_output=True).returncode:
        pytest.skip("numpy refuses NPY_DISABLE_CPU_FEATURES on this host")
    reports = []
    for i, env in enumerate((base, lowered)):
        out = tmp_path / f"out{i}"
        proc = subprocess.run([sys.executable, "-m", "cycleval", "run", str(cfg),
                               "--out", str(out)], capture_output=True, text=True,
                              env={**env, "OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 0, proc.stderr
        reports.append(json.loads((out / "report.json").read_text()))
    _close(*reports)


def test_run_jobs_suites_on_calling_thread_same_report(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path / "cfg.json",
                        suites=["valuation-property", "mass", "homogeneity"])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    threads = []
    inner = cli.run_suite

    def run_suite(name, config):
        threads.append(threading.current_thread())
        return inner(name, config)

    monkeypatch.setattr(cli, "run_suite", run_suite)
    assert main(["run", str(cfg), "--out", str(out2), "--jobs", "3"]) == 0
    assert threads == [threading.main_thread()] * 3
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1 == r2


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    # valid JSON that is not an object
    for text, kind in (("[]", "list"), ('"x"', "str"), ("null", "NoneType")):
        bad.write_text(text)
        capsys.readouterr()
        assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
        assert f"config must be a JSON object, got {kind}" in capsys.readouterr().err
    # unknown suite name is a config error too
    cfg = _write_config(tmp_path / "cfg.json", suites=["no-such-suite"])
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    # malformed form expression
    cfg2 = _write_config(tmp_path / "cfg2.json", forms=["wibble * dq7"])
    assert main(["run", str(cfg2), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("suites", [[], ["mass", "mass"],
                                    ["kernel", "mass", "kernel"]])
def test_exit_code_empty_or_repeated_suites(tmp_path, capsys, suites, jobs):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json", suites=suites)
    assert main(["run", str(cfg), "--out", str(out), "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert "config error:" in captured.err
    assert "overall" not in captured.out
    assert not out.exists()


def test_exit_code_unknown_tolerance_or_size(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path / "cfg.json", tolerances={"kernel_fwd": 1})
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "kernel_fwd" in capsys.readouterr().err
    cfg2 = _write_config(tmp_path / "cfg2.json", sizes={**QUICK_SIZES, "identity_form": 3})
    assert main(["run", str(cfg2), "--out", str(out)]) == 2
    assert "identity_form" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override", [
    {"seed": "x"},
    {"seed": 1.5},
    {"tolerances": {"bridge": "abc"}},
    {"sizes": {"mass_dims": 1}},
    {"sizes": {"kernel_dims": [7]}},
    {"n": 1.5},
    {"n": 2.0},
    {"n": True},
    {"n": 0},
    {"seed": -100},
    {"seed": True},
    {"tolerances": {"bridge": float("inf")}},
    {"tolerances": {"bridge": float("nan")}},
    {"tolerances": {"bridge": -1}},
    {"tolerances": []},
    {"sizes": "kernel_dims"},
    {"suites": "kernel"},
    {"forms": "bump(R=2) * dy1"},
    {"functions": "quadratic A=[[1]] b=[0] c=0"},
    {"bodies": "ellipsoid M=[[1,0],[0,1]]"},
    # a repeated dimension would run twice under the same entry names
    {"sizes": {"identity_dims": [1, 1]}},
    {"sizes": {"kernel_dims": [2, 2]}},
])
def test_exit_code_wrongly_typed_config_value(tmp_path, capsys, override):
    # json writes the non-finite tolerances as Infinity and NaN, which
    # json.loads accepts
    cfg = _write_config(tmp_path / "cfg.json", **override)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    # the message names the field, or the key within it, and what it must be
    (key, value), = override.items()
    assert (next(iter(value)) if isinstance(value, dict) else key) in err
    assert "must be" in err
    assert not out.exists()


@pytest.mark.parametrize("key,spec", [
    ("functions", "quadratic b=[0]"),
    ("functions", "maxaffine"),
    ("functions", "lse pieces=[[[1],0],[[-1],0]]"),
    ("functions", "pwl slopes=[-1,1]"),
    ("functions", {"A": [[1]]}),
    ("bodies", "ellipsoid"),
    ("bodies", "point"),
    ("bodies", {"M": [[1, 0], [0, 1]]}),
    ("functions", "smooth name=foo"),
    ("functions", "quadratic A=[[1,2]]"),
    ("functions", "quadratic A=[[1]] b=[0,0]"),
    ("functions", "quadratic A=[[1/0]]"),
    ("functions", "quadratic A=[[1]"),
    ("functions", ""),
    ("functions", "maxaffine pieces=[[[1,0],0],[[1],0]]"),
    ("functions", "maxaffine pieces=[[[1],0],[[-1]]]"),
    ("functions", "lse pieces=[[[1,0],0],[[1],0]] beta=2"),
    ("functions", "maxaffine pieces=[[[1],0],[[1,2],0]]"),
    ("functions", "quadratic A=[[1]] shift=[1,2]"),
    ("forms", 3),
    ("forms", "bump(R=0) * dx1"),
    ("forms", "bump(R=2,p=1/2) * dx1"),
])
def test_exit_code_malformed_spec(tmp_path, capsys, key, spec):
    # a missing key, an unknown name, a shape mismatch, a bad literal or a
    # value out of range
    cfg = _write_config(tmp_path / "cfg.json", **{key: [spec]})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec,key", [
    ("quadratic A=[[1]] shift=foo", "shift"),
    ("quadratic A=foo", "A"),
    ("lse pieces=[[[1],0],[[-1],0]] beta=foo", "beta"),
])
def test_exit_code_name_for_a_number(tmp_path, capsys, spec, key):
    cfg = _write_config(tmp_path / "cfg.json", functions=[spec])
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{key}= needs numbers, not the name 'foo'" in capsys.readouterr().err


@pytest.mark.parametrize("key,spec,literal", [
    ("functions", "quadratic A=[[1e400]] b=[0] c=0", "1e400"),
    ("functions", "quadratic A=[[1]] b=[1e400] c=0", "1e400"),
    ("functions", "quadratic A=[[1]] b=[0] c=-1e400", "-1e400"),
    ("functions", "quadratic A=[[1]] b=[0] c=0 shift=[1e400]", "1e400"),
    ("functions", "quadratic A=[[1]] b=[0] c=0 scale=1e400", "1e400"),
    ("functions", "lse pieces=[[[1],0],[[-1],0]] beta=1e400", "1e400"),
    ("functions", "maxaffine pieces=[[[1e400],0],[[-1],0]]", "1e400"),
    ("functions", "lse pieces=[[[1],0],[[-1],2e308]] beta=2", "2e308"),
    ("functions", "pwl breaks=[1e400] slopes=[-1,1]", "1e400"),
    ("bodies", "ellipsoid M=[[1e400,0],[0,1]]", "1e400"),
    ("forms", "bump(R=1e400) * dy1", "1e400"),
    ("forms", "1e400 * box(2) * dy1", "1e400"),
    ("forms", "box(-1e400,2) * dy1", "-1e400"),
    # the bump's matrix I / R^2
    ("forms", "bump(R=1e-200) * dy1", "1/R^2"),
    # dict specs: the JSON number 1e400 reads as the float inf, a long
    # integer and a numeric string keep their digits
    ("functions", {"kind": "quadratic", "A": [[math.inf]], "b": [0], "c": 0}, "inf"),
    pytest.param("functions", {"kind": "quadratic", "A": [[10 ** 400]], "b": [0], "c": 0},
                 str(10 ** 400), id="functions-dict-long-int"),
    ("functions", {"kind": "quadratic", "A": [[1]], "b": ["1e400"], "c": 0}, "1e400"),
    ("functions", {"kind": "lse", "pieces": [[[1], 0], [[-1], 0]], "beta": math.inf},
     "inf"),
    ("bodies", {"kind": "ellipsoid", "M": [[math.inf, 0], [0, 1]]}, "inf"),
    # the inverse of the bump's matrix, whose diagonal gives the half-widths
    # of the support box
    ("forms", "bump(R=1e160) * dx1", "R^2"),
    ("forms", "bump(M=[[1e-310]]) * dx1", "(M^-1)_11"),
])
def test_exit_code_number_outside_float_range(tmp_path, capsys, key, spec, literal):
    # such a number would overflow the float evaluators of some suite
    cfg = _write_config(tmp_path / "cfg.json", **{key: [spec]})
    cfg.write_text(cfg.read_text().replace("Infinity", "1e400"))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    message = f"number {literal} is outside the float range"
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()
    if key == "functions" and isinstance(spec, str):
        assert main(["dump-cycle", spec]) == 2
        assert f"spec error: {message}" in capsys.readouterr().err


def test_run_tiny_bump_radius_inside_float_range(tmp_path):
    # 1/R^2 = 1e300 is a float: the form is evaluated
    cfg = _write_config(tmp_path / "cfg.json", suites=["kernel"],
                        forms=["bump(R=1e-150) * dy1"])
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_run_declared_smooth_spec(tmp_path):
    # the kernel suite is the one that evaluates declared functions
    cfg = _write_config(tmp_path / "cfg.json", suites=["kernel"],
                        functions=["smooth name=sqrt1p"])
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    functions = {e["details"]["functions"] for e in report["suites"][0]["entries"]
                 if e["name"].endswith("(window)")}
    assert functions == {QUICK_SIZES["kernel_battery"] + 1}


@pytest.mark.parametrize("key,spec,suites,dims", [
    # a function on R^2 while the kernel suite runs at n = 1 only
    ("functions", "quadratic A=[[1,0],[0,1]] b=[0,0] c=0", ["kernel"],
     {"kernel_dims": [1]}),
    # piecewise-linear functions have no dimension the kernel suite evaluates
    ("functions", "pwl breaks=[0] slopes=[-1,1]", ["kernel"], {"kernel_dims": [1]}),
    # a 1-form on T*R^2 while the kernel suite evaluates 2-forms at n = 2
    ("forms", "box(2) * dx1", ["kernel"], {"kernel_dims": [2]}),
    ("forms", "bump(R=2) * dy1", ["mass"], {}),
    # a body in R^3 while the bridge suite runs at n = 1
    ("bodies", "ellipsoid M=[[1,0,0],[0,1,0],[0,0,1]]", ["bridge"], {"bridge_dims": [1]}),
    ("bodies", "ellipsoid M=[[1,0],[0,1]]", ["kernel"], {}),
    ("bodies", "ellipsoid M=[[1,0],[0,1]]", ["bridge"], {"bridge_dims": []}),
])
def test_exit_code_declared_object_no_suite_evaluates(tmp_path, capsys, key, spec,
                                                      suites, dims):
    cfg = _write_config(tmp_path / "cfg.json", suites=suites, **{key: [spec]},
                        sizes={**QUICK_SIZES, **dims})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and repr(spec) in err
    suite = "bridge" if key == "bodies" else "kernel"
    if suite in suites:
        assert f"for n in {dims[suite + '_dims']}" in err
    else:
        assert "not requested" in err
    assert not out.exists()


def test_declared_pwl_function_is_refused_for_what_it_is(tmp_path, capsys):
    # a pwl function lives on R, but the kernel suite evaluates the convex
    # catalog; pwl specs serve dump-cycle
    cfg = _write_config(tmp_path / "cfg.json", suites=["kernel"],
                        functions=["pwl breaks=[0] slopes=[-1,1]"])
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert ("pwl specs serve dump-cycle; the kernel suite evaluates the convex "
            "catalog on R^n for n in [1]") in err


def test_declared_specs_are_read_at_their_suite_dimensions(tmp_path, capsys):
    # a 2-form on T*R^2 is valid for a kernel suite at n = 2 whatever the
    # config's own n; a spec that parses at no such dimension reports why
    sizes = {**QUICK_SIZES, "kernel_dims": [2], "kernel_forms": 1, "kernel_battery": 2}
    reports = []
    for n in (1, 2):
        cfg = _write_config(tmp_path / f"n{n}.json", n=n, suites=["kernel"], sizes=sizes,
                            forms=["bump(R=2) * dx1 ^ dx2"])
        out = tmp_path / f"out{n}"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        names = [e["name"] for e in
                 json.loads((out / "report.json").read_text())["suites"][0]["entries"]]
        assert "kernel/declared/n=2/0" in names
        reports.append(names)
    assert reports[0] == reports[1]
    cfg = _write_config(tmp_path / "bad.json", suites=["kernel"],
                        sizes={**sizes, "kernel_dims": [1, 2]}, forms=["bump(R=2) * dx3"])
    capsys.readouterr()
    assert main(["run", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    assert "config error: generator index out of range: dx3" in capsys.readouterr().err


def test_declared_objects_of_bundled_and_benchmark_configs_are_evaluated():
    from pathlib import Path

    from cycleval.suites import ExperimentConfig

    default = Path(__file__).resolve().parents[1] / "src/cycleval/configs/default_n1.json"
    ExperimentConfig.from_dict(json.loads(default.read_text())).check_declared()
    breadth = ExperimentConfig(
        n=1, forms=["bump(R=2) * dy1", "box(-2,2) * x1^2 * dx1"],
        functions=["quadratic A=[[1]] b=[0] c=0", "maxaffine pieces=[[[1],0],[[-1],0]]"],
        bodies=["ellipsoid M=[[1,0],[0,1]]"],
        sizes={"kernel_dims": [1], "bridge_dims": [1, 2]})
    breadth.check_declared()
    assert [i for i, _ in breadth.declared("bodies", 1)] == [0]
    assert breadth.declared("bodies", 2) == []


@pytest.mark.parametrize("key", ["kernel_dims", "mass_dims"])
def test_exit_code_dimension_beyond_suite_limit(tmp_path, capsys, key):
    # the polyhedral cycle and the mass quadrature exist for n <= 2 only
    cfg = _write_config(tmp_path / "cfg.json", sizes={**QUICK_SIZES, key: [3]})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and key in err and "1..2" in err
    assert not out.exists()


def test_exit_code_bad_job_count(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", suites=["mass"])
    out = tmp_path / "out"
    for jobs in ("0", "-2"):
        assert main(["run", str(cfg), "--out", str(out), "--jobs", jobs]) == 2
        assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("under_file", [False, True])
def test_exit_code_unusable_out_directory(tmp_path, monkeypatch, capsys, under_file):
    # --out names an existing file, or a path below one: exit 2 before any suite runs
    ran = []
    inner = cli.run_suite

    def run_suite(name, config):
        ran.append(name)
        return inner(name, config)

    monkeypatch.setattr(cli, "run_suite", run_suite)
    cfg = _write_config(tmp_path / "cfg.json", suites=["mass"])
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub" if under_file else blocker
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(out) in err
    assert ran == []


@pytest.mark.parametrize("name", ["report.json", "summary.txt"])
def test_exit_code_unwritable_output_file(tmp_path, capsys, name):
    # the output file is a directory: exit 2 once the suites have run, no traceback
    cfg = _write_config(tmp_path / "cfg.json", suites=["valuation-property"])
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error:") and str(out / name) in err
    assert "Traceback" not in err


def test_exit_code_non_finite_residual(tmp_path, monkeypatch, capsys):
    import cycleval.cli as cli

    real_run_suite = cli.run_suite

    def nan_residual(name, config):
        result = real_run_suite(name, config)
        result.entries[0].residual = float("nan")
        return result

    monkeypatch.setattr(cli, "run_suite", nan_residual)
    cfg = _write_config(tmp_path / "cfg.json", suites=["mass"])
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert "runtime error:" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_exit_code_suite_failure(tmp_path):
    # an impossible tolerance forces a failing suite
    cfg = _write_config(tmp_path / "cfg.json", suites=["consistency"],
                        tolerances={"consistency": 1e-18})
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["overall_pass"] is False
    failing = [e for s in report["suites"] for e in s["entries"] if not e["pass"]]
    assert failing and "details" in failing[0]


def test_list_catalog(capsys):
    assert main(["list-catalog"]) == 0
    text = capsys.readouterr().out
    for needle in ("quadratic", "maxaffine", "lse", "ellipsoid", "bump(", "suites:"):
        assert needle in text


def test_dump_cycle(tmp_path, capsys):
    assert main(["dump-cycle", "maxaffine pieces=[[[1],0],[[-1],0]]", "--n", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["cells"]) == 3
    # 2D dump to a file
    target = tmp_path / "cyc.json"
    assert main(["dump-cycle",
                 "maxaffine pieces=[[[1,0],0],[[-1,0],0],[[0,1],0],[[0,-1],0]]",
                 "--n", "2", "--out", str(target)]) == 0
    data2 = json.loads(target.read_text())
    assert sum(1 for c in data2["cells"] if c["dim_x"] == 0) == 1
    # polyline dump for a non-convex function
    assert main(["dump-cycle", "pwl breaks=[0] slopes=[1,-1] v0=0", "--n", "1"]) == 0
    data3 = json.loads(capsys.readouterr().out)
    assert data3["kind"] == "polyline"
    assert data3["horizontal"] == [["-10", "0", "1"], ["0", "10", "-1"]]
    # kinks outside [-10, 10] widen the window to one past them
    assert main(["dump-cycle", "pwl breaks=[-30,20] slopes=[1,-1,1] v0=0", "--n", "1"]) == 0
    data4 = json.loads(capsys.readouterr().out)
    assert data4["horizontal"] == [["-31", "-30", "1"], ["-30", "20", "-1"],
                                   ["20", "21", "1"]]
    assert data4["vertical"] == [["-30", "1", "-1"], ["20", "-1", "1"]]
    # bad spec
    assert main(["dump-cycle", "quadratic A=[[1]]", "--n", "1"]) == 2
    assert main(["dump-cycle", "pwl breaks=0 slopes=[-1,1]", "--n", "1"]) == 2
    capsys.readouterr()
    # an output file in a directory that does not exist
    target = tmp_path / "missing" / "dir" / "x.json"
    assert main(["dump-cycle", "maxaffine pieces=[[[1],0],[[-1],0]]", "--n", "1",
                 "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and str(target) in captured.err
    assert captured.err.count("\n") == 1
    # --n outside 1..MAX_DIMENSION, or not the dimension of the spec
    one_d = "maxaffine pieces=[[[1],0],[[-1],0]]"
    two_d = "maxaffine pieces=[[[1,0],0],[[-1,0],0],[[0,1],0],[[0,-1],0]]"
    for spec, n in [(one_d, "0"), (one_d, "-1"), (one_d, "5"), (one_d, "2"),
                    (one_d, "3"), (two_d, "1"), ("lse pieces=[[[1],0]] beta=5", "2")]:
        assert main(["dump-cycle", spec, "--n", n]) == 2, (spec, n)
        captured = capsys.readouterr()
        assert captured.out == "" and "spec error:" in captured.err, (spec, n)
    # valid max-affine specs above n = 2, which has no polyhedral cycles:
    # a spec error that names n = 1 and 2, before any build
    for spec, n in [("maxaffine pieces=[[[1,0,0],0],[[0,1,0],0]]", "3"),
                    ("maxaffine pieces=[[[1,0,0,0],0],[[0,0,0,1],1]]", "4")]:
        assert main(["dump-cycle", spec, "--n", n]) == 2, (spec, n)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"spec error: polyhedral cycles are built for n = 1 and 2, not n = {n}\n")


# dump-cycle's stdout, pinned byte for byte: the command prints
# json.dumps(document, indent=2, sort_keys=True), here kept compact.  The
# pwl spec has a trivial kink and kinks beyond [-10, 10]; the 2-D cycle
# has a five-vertex clipped cell.
DUMPED_CYCLES = [
    ('pwl breaks=[-25/2,-1/3,7/2,14] slopes=[1/2,-1/2,-1/2,2,-5/3] v0=2/7', '1',
     '{"horizontal":[["-27/2","-25/2","1/2"],["-25/2","7/2","-1/2"],["7/2"'
     ',"14","2"],["14","15","-5/3"]],"kind":"polyline","vertical":[["-25/2'
     '","1/2","-1/2"],["7/2","-1/2","2"],["14","2","-5/3"]]}'),
    ('maxaffine pieces=[[[1/2],1/3],[[-3/2],0],[[2],-5/4],[[-1/3],-7]]', '1',
     '{"cells":[{"active":[0],"clipped":true,"dim_x":1,"orientation":1,"x_'
     'vertices":[["-7/6"],["-1/6"]],"y_vertices":[["-3/2"]]},{"active":[1]'
     ',"clipped":false,"dim_x":1,"orientation":1,"x_vertices":[["-1/6"],["'
     '19/18"]],"y_vertices":[["1/2"]]},{"active":[2],"clipped":true,"dim_x'
     '":1,"orientation":1,"x_vertices":[["19/18"],["37/18"]],"y_vertices":'
     '[["2"]]},{"active":[0,1],"clipped":false,"dim_x":0,"orientation":1,"'
     'x_vertices":[["-1/6"]],"y_vertices":[["-3/2"],["1/2"]]},{"active":[1'
     ',2],"clipped":false,"dim_x":0,"orientation":1,"x_vertices":[["19/18"'
     ']],"y_vertices":[["1/2"],["2"]]}],"n":1,"perturbed":false,"pieces":['
     '[["-3/2"],"0"],[["1/2"],"1/3"],[["2"],"-5/4"]],"window":[["-7/6","37'
     '/18"]]}'),
    ('maxaffine pieces=[[[1,0],0],[[-1/2,1],1/3],[[0,-1],-1/2],[[2/3,1/2],-2]]', '2',
     '{"cells":[{"active":[0],"clipped":true,"dim_x":2,"orientation":1,"x_'
     'vertices":[["197/35","127/15"],["-58/5","127/15"],["-58/5","-199/60"'
     '],["-1/15","-13/30"],["26/5","112/15"]],"y_vertices":[["-1/2","1"]]}'
     ',{"active":[1],"clipped":true,"dim_x":2,"orientation":1,"x_vertices"'
     ':[["-58/5","-61/15"],["107/30","-61/15"],["-1/15","-13/30"],["-58/5"'
     ',"-199/60"]],"y_vertices":[["0","-1"]]},{"active":[2],"clipped":true'
     ',"dim_x":2,"orientation":1,"x_vertices":[["31/5","122/15"],["31/5","'
     '127/15"],["197/35","127/15"],["26/5","112/15"]],"y_vertices":[["2/3"'
     ',"1/2"]]},{"active":[3],"clipped":true,"dim_x":2,"orientation":1,"x_'
     'vertices":[["107/30","-61/15"],["31/5","-61/15"],["31/5","122/15"],['
     '"26/5","112/15"],["-1/15","-13/30"]],"y_vertices":[["1","0"]]},{"act'
     'ive":[0,1],"clipped":true,"dim_x":1,"orientation":-1,"x_vertices":[['
     '"-58/5","-199/60"],["-1/15","-13/30"]],"y_vertices":[["-1/2","1"],["'
     '0","-1"]]},{"active":[0,2],"clipped":true,"dim_x":1,"orientation":-1'
     ',"x_vertices":[["26/5","112/15"],["197/35","127/15"]],"y_vertices":['
     '["-1/2","1"],["2/3","1/2"]]},{"active":[0,3],"clipped":false,"dim_x"'
     ':1,"orientation":-1,"x_vertices":[["-1/15","-13/30"],["26/5","112/15'
     '"]],"y_vertices":[["-1/2","1"],["1","0"]]},{"active":[1,3],"clipped"'
     ':true,"dim_x":1,"orientation":-1,"x_vertices":[["107/30","-61/15"],['
     '"-1/15","-13/30"]],"y_vertices":[["0","-1"],["1","0"]]},{"active":[2'
     ',3],"clipped":true,"dim_x":1,"orientation":-1,"x_vertices":[["26/5",'
     '"112/15"],["31/5","122/15"]],"y_vertices":[["2/3","1/2"],["1","0"]]}'
     ',{"active":[0,1,3],"clipped":false,"dim_x":0,"orientation":1,"x_vert'
     'ices":[["-1/15","-13/30"]],"y_vertices":[["-1/2","1"],["0","-1"],["1'
     '","0"]]},{"active":[0,2,3],"clipped":false,"dim_x":0,"orientation":1'
     ',"x_vertices":[["26/5","112/15"]],"y_vertices":[["-1/2","1"],["1","0'
     '"],["2/3","1/2"]]}],"n":2,"perturbed":false,"pieces":[[["-1/2","1"],'
     '"1/3"],[["0","-1"],"-1/2"],[["2/3","1/2"],"-2"],[["1","0"],"0"]],"wi'
     'ndow":[["-58/5","31/5"],["-61/15","127/15"]]}'),
]


@pytest.mark.parametrize("spec, n, compact", DUMPED_CYCLES)
def test_dump_cycle_output_is_pinned(capsys, spec, n, compact):
    assert main(["dump-cycle", spec, "--n", n]) == 0
    assert capsys.readouterr().out == json.dumps(json.loads(compact), indent=2,
                                                 sort_keys=True) + "\n"


# a polyline of 2,000 kinks dumps some 200 KB, more than a pipe holds
LONG_PWL = f"pwl breaks={list(range(2000))} slopes={list(range(-1, 2000))} v0=0"


@pytest.mark.parametrize("argv,lines", [
    # the reader stops after one line, while the dump is still being written
    (["dump-cycle", LONG_PWL], 1),
    # the reader has gone before anything is written
    (["dump-cycle", "maxaffine pieces=[[[1,0],0],[[0,1],0]]", "--n", "2"], 0),
    (["list-catalog"], 0),
])
def test_closed_stdout_is_an_output_error(argv, lines):
    # as `cycleval dump-cycle ... | head -1`: exit 2 and one line on
    # stderr, as for an output file that cannot be written, no traceback
    read, write = os.pipe()
    if not lines:
        os.close(read)
    proc = subprocess.Popen([sys.executable, "-m", "cycleval", *argv], stdout=write,
                            stderr=subprocess.PIPE, text=True)
    os.close(write)
    if lines:
        with os.fdopen(read) as reader:
            assert reader.readline() == "{\n"
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err == "output error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("command", ["list-catalog", "dump-cycle", "run"])
def test_text_only_stdout(tmp_path, command):
    # an in-process caller may swap in a stdout without a binary buffer
    argv, needle = {
        "list-catalog": (["list-catalog"], "suites:"),
        "dump-cycle": (["dump-cycle", "maxaffine pieces=[[[1],0],[[-1],0]]"], '"cells"'),
        "run": (["run", str(_write_config(tmp_path / "c.json")),
                 "--out", str(tmp_path / "out")], "overall: PASS"),
    }[command]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    assert needle in out.getvalue()


def test_package_entry_point():
    proc = subprocess.run([sys.executable, "-m", "cycleval", "list-catalog"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "quadratic" in proc.stdout


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "cycleval.cli", "list-catalog"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "cycleval" in proc.stdout
