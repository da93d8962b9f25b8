"""Benchmark of cycleval: time to a verdict, set-up time, memory and
failures on three suite workloads, plus a traced run for per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every suite run is a fresh
``python3 perfbench/worker.py`` process importing ``cycleval`` from the
checkout's ``src``, one at a time (a closed loop with one client).  A run
spawns one untimed warm-up process, then a fixed number of input draws
that depends only on the workload, ``--seconds`` and ``--trace``: draw i
runs the workload's config seeded ``N + SEED_STRIDE * i``, and with
``--trace 1`` runs it untraced and then traced.  Before every draw and
after the last one a fixed reference process (reference.py) is timed,
twice over; the draw's set-up and suite times are scaled by the ratio of
its nominal duration to the mean of the timings around the draw.

Every suite run is verified (entry counts, exact zeros, verdict and exit
code agreement, traced and untraced reports identical); see ``verify``.
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (suite entries), and ``metrics``, the
end-to-end metrics or, with ``--trace 1``, the per-layer metrics.
NOTES.md explains the choices.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH))
from layertrace import PER_LAYER, SUITE_NAMES  # noqa: E402

MIN_DRAWS = 3           # input draws per run, whatever --seconds says
SEED_STRIDE = 100003    # config seeds of one run: seed, seed + stride, ...
HARD_LIMIT_S = 150.0    # start no suite run that would end after this
# Duration of perfbench/reference.py on the host the benchmark was defined
# on; setup_s is scaled to a host running it in this time.
REFERENCE_NOMINAL_S = 0.30
REFERENCE_REPEATS = 2   # reference processes per timing, averaged

# The declared objects of the bundled default_n1.json, copied so that the
# workload stays fixed if that file changes.
CLI_DECLARED = {
    "forms": ["bump(R=2) * dy1", "box(-2,2) * x1^2 * dx1"],
    "functions": ["quadratic A=[[1]] b=[0] c=0",
                  "maxaffine pieces=[[[1],0],[[-1],0]]"],
    "bodies": ["ellipsoid M=[[1,0],[0,1]]"],
}

# Every size key a workload's suites read is set, so no workload depends on
# DEFAULT_SIZES.  No workload sets tolerances: DEFAULT_TOLERANCES apply.
WORKLOADS = {
    "exact-identities": {
        "suites": ["identities"],
        "sizes": {"identity_dims": [1, 2, 3], "identity_forms": 16},
        "draws_at_30s": 6,
    },
    "kernel-battery": {
        "suites": ["kernel"],
        "sizes": {"kernel_dims": [1, 2], "kernel_forms": 3,
                  "kernel_nonkernel": 1, "constant_forms": 1,
                  "kernel_battery": 8},
        "draws_at_30s": 8,
    },
    "cli-breadth": {
        "suites": list(SUITE_NAMES),
        **CLI_DECLARED,
        "sizes": {
            "identity_dims": [1, 2], "identity_forms": 4,
            "kernel_dims": [1], "kernel_forms": 3, "kernel_nonkernel": 1,
            "constant_forms": 1, "kernel_battery": 8,
            "homogeneity_dims": [1, 2],
            "hessian_specs": 5, "mixed_disc_samples": 50,
            "bridge_dims": [1, 2], "bridge_forms": 1,
            "mass_dims": [1, 2], "mass_battery": 16,
            "valuation_pairs": 100,
            "first_variation_cases": 2,
            "consistency_functions": 1, "consistency_forms": 1,
        },
        # entries the declared objects add: both forms are 1-forms on T*R
        # (kernel/declared at n=1), the body lives in R^2 (bridge at n=1)
        "declared_entries": {"kernel": {1: 2}, "bridge": {1: 1}},
        "draws_at_30s": 8,
        "cli": True,
    },
}


def draw_count(name: str, seconds: float, trace: bool) -> int:
    """Input draws of a run: fixed by the workload, ``--seconds`` and
    ``--trace`` alone, so that every run with the same arguments measures
    the same inputs, however fast the program is.  A traced run runs each
    draw twice, so it makes half the draws.  ``draws_at_30s`` take 24 to
    62 s on the host the benchmark was defined on (NOTES.md)."""
    draws = round(WORKLOADS[name]["draws_at_30s"] * seconds / 30)
    return max(MIN_DRAWS, draws // 2 if trace else draws)


def workload_config(name: str, seed: int) -> dict:
    w = WORKLOADS[name]
    cfg = {"n": 1, "seed": seed, "suites": list(w["suites"]),
           "sizes": json.loads(json.dumps(w["sizes"]))}
    for key in ("forms", "functions", "bodies"):
        if key in w:
            cfg[key] = list(w[key])
    return cfg


# -- verification ----------------------------------------------------------------


def expected_entries(config: dict, declared: dict) -> dict:
    """Entries each suite must produce for ``config``'s sizes."""
    s = config["sizes"]
    extra = {k: {int(n): c for n, c in v.items()} for k, v in declared.items()}
    counts = {
        "identities": lambda: 8 * len(s["identity_dims"]),
        "kernel": lambda: sum(
            s["kernel_forms"] + s["kernel_nonkernel"] + s["constant_forms"]
            + extra.get("kernel", {}).get(n, 0) for n in s["kernel_dims"]),
        "homogeneity": lambda: sum(2 * (n + 1) + 1 for n in s["homogeneity_dims"]),
        "invariance": lambda: 3,
        "hessian": lambda: s["hessian_specs"] + 2,
        "bridge": lambda: sum(
            (5 + extra.get("bridge", {}).get(n, 0)) * s["bridge_forms"]
            for n in s["bridge_dims"]),
        "mass": lambda: sum(2 * s["mass_battery"] for _ in s["mass_dims"]),
        "valuation-property": lambda: 3,
        "first-variation": lambda: s["first_variation_cases"],
        "consistency": lambda: s["consistency_functions"],
    }
    return {name: counts[name]() for name in config["suites"]}


def identity_checks(n: int, forms: int) -> dict:
    """details.checks of each identities entry in dimension n."""
    return {
        "d_squared": forms * (2 * n - 1), "leibniz": forms * (n + 1),
        "lefschetz_roundtrip": 2 * forms, "rumin_primitive": forms,
        "rumin_kills_L": forms if n >= 2 else 0, "rumin_kills_exact": forms,
        "equivariance": 2 * forms, "scaling_intertwiner": forms,
    }


def verify(rep: dict, config: dict, expected: dict, cli: bool) -> tuple[int, list]:
    """Failed entries of one suite run and the problems found in its output.

    A run with any problem counts every expected entry as failed."""
    total = sum(expected.values())
    res = rep.get("result")
    if res is None:
        return total, [f"no result (exit {rep['returncode']})"]
    if rep["returncode"] != res["exit_code"]:
        return total, [f"exit {rep['returncode']} but verdict code {res['exit_code']}"]
    if res["exit_code"] not in (0, 1):
        return total, [f"runtime error (exit {res['exit_code']})"]
    try:
        report = json.loads(rep["report"])
    except (TypeError, ValueError):
        return total, ["report.json missing or not JSON"]
    problems = []
    suites = report.get("suites", [])
    if [s["suite"] for s in suites] != list(expected):
        return total, [f"suites {[s['suite'] for s in suites]} != {list(expected)}"]
    failed = 0
    for s in suites:
        entries = s["entries"]
        if len(entries) != expected[s["suite"]]:
            problems.append(f"{s['suite']}: {len(entries)} entries, "
                            f"expected {expected[s['suite']]}")
        if s["pass"] != all(e["pass"] for e in entries):
            problems.append(f"{s['suite']}: suite verdict disagrees with entries")
        failed += sum(not e["pass"] for e in entries)
        if s["suite"] == "identities":
            problems += _verify_identities(entries, config["sizes"])
    entries_pass = all(e["pass"] for s in suites for e in s["entries"])
    if report.get("overall_pass") != entries_pass:
        problems.append("overall_pass disagrees with the entries")
    if (res["exit_code"] == 0) != entries_pass:
        problems.append(f"exit code {res['exit_code']} disagrees with the entries")
    if cli and rep.get("summary_overall") != ("PASS" if entries_pass else "FAIL"):
        problems.append("summary.txt verdict disagrees with the entries")
    return (total if problems else failed), problems


def _verify_identities(entries: list, sizes: dict) -> list:
    problems = []
    by_name = {e["name"]: e for e in entries}
    for n in sizes["identity_dims"]:
        for check, num in identity_checks(n, sizes["identity_forms"]).items():
            e = by_name.get(f"identities/n={n}/{check}")
            if e is None:
                problems.append(f"identities/n={n}/{check} missing")
                continue
            if e.get("residual") != 0.0 or not e["pass"]:
                problems.append(f"{e['name']}: residual {e.get('residual')}, not exactly 0")
            if e.get("details", {}).get("checks") != num:
                problems.append(f"{e['name']}: {e.get('details', {}).get('checks')} "
                                f"checks, expected {num}")
    return problems


# -- processes -------------------------------------------------------------------


def spawn(rundir: Path, tag: str, cfg_path: Path, cli: bool, trace: bool,
          setup_only: bool, timeout: float) -> dict:
    """Run one worker process to completion; returns what it left behind."""
    outdir = rundir / tag
    outdir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), str(cfg_path), str(outdir),
           "--src", str(SRC)]
    cmd += ["--cli"] * cli + ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    with open(outdir / "stdout.txt", "wb") as out, \
            open(outdir / "stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            returncode = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            returncode = None
        ended = time.monotonic()
    rep = {"tag": tag, "trace": trace, "returncode": returncode,
           "elapsed": ended - spawned, "result": None, "report": None}
    result_path = outdir / "result.json"
    if result_path.exists():
        rep["result"] = json.loads(result_path.read_text())
        rep["setup_s"] = rep["result"]["setup_done"] - spawned
    if (outdir / "report.json").exists():
        rep["report"] = (outdir / "report.json").read_text()
        rep["report_sha"] = hashlib.sha256(rep["report"].encode()).hexdigest()
    summary = outdir / "summary.txt"
    if summary.exists():
        last = summary.read_text().strip().splitlines()[-1]
        rep["summary_overall"] = last.removeprefix("overall: ")
    if rep["result"] is None or returncode not in (0, 1):
        rep["stderr"] = (outdir / "stderr.txt").read_text()[-2000:]
    return rep


def verdict_reached(rep: dict) -> bool:
    """Whether the suites ran to a verdict, so that the process was timed."""
    return rep["result"] is not None and rep["result"]["exit_code"] in (0, 1)


def reference_seconds() -> float:
    """Mean spawn-to-exit time of REFERENCE_REPEATS runs of the fixed
    reference process, one after the other."""
    start = time.monotonic()
    for _ in range(REFERENCE_REPEATS):
        subprocess.run([sys.executable, str(BENCH / "reference.py")], check=True,
                       cwd=ROOT)
    return (time.monotonic() - start) / REFERENCE_REPEATS


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _median(values) -> float:
    return float(statistics.median(values))


def _quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[workload]
    cli = bool(w.get("cli"))
    declared = w.get("declared_entries", {})
    started = time.monotonic()

    rundir = WORK / workload
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)

    def write_config(i: int) -> tuple[Path, dict]:
        config = workload_config(workload, seed + SEED_STRIDE * i)
        path = rundir / f"config{i}.json"
        path.write_text(json.dumps(config, indent=2))
        return path, config

    first_path, first = write_config(0)
    # the warm-up compiles bytecode and fills the file cache; untimed
    warm = spawn(rundir, "warmup", first_path, cli, False, True, HARD_LIMIT_S)
    if warm["result"] is None:
        raise RuntimeError(f"the workload process does not start: {warm.get('stderr', '')}")
    environment = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **warm["result"]["environment"],
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "seed": seed,
        "workload": workload,
    }

    hard_deadline = started + HARD_LIMIT_S
    ndraws = draw_count(workload, seconds, trace)
    problems = []
    # draw i runs the config seeded seed + SEED_STRIDE * i; with --trace 1
    # it runs untraced and then traced, and both reports must be identical
    draws = []
    refs = []
    for i in range(ndraws):
        if draws:
            typical = _median([sum(r["elapsed"] for r in d[2]) for d in draws])
            if time.monotonic() + typical > hard_deadline:
                problems.append(f"cut short after {len(draws)} of {ndraws} draws: "
                                f"the run would not end within {HARD_LIMIT_S:.0f} s")
                break
        path, config = write_config(i)
        expected = expected_entries(config, declared)
        refs.append(reference_seconds())
        reps = []
        for traced in (False, True) if trace else (False,):
            remaining = hard_deadline - time.monotonic()
            reps.append(spawn(rundir, f"draw{i}" + "-traced" * traced,
                              path, cli, traced, False, remaining))
        draws.append((config, expected, reps))
    # one more reference after the last draw, so each draw is bracketed
    refs.append(reference_seconds())

    attempted = failed = 0
    for config, expected, reps in draws:
        draw_failed = 0
        for rep in reps:
            f, p = verify(rep, config, expected, cli)
            draw_failed += f
            problems += [f"{rep['tag']} (seed {config['seed']}): {x}" for x in p]
        attempted += len(reps) * sum(expected.values())
        if len({r.get("report_sha") for r in reps}) != 1:
            problems.append(f"seed {config['seed']}: tracing changed report.json")
            draw_failed = len(reps) * sum(expected.values())
        failed += draw_failed

    # untraced processes that reached a verdict, with the mean of the two
    # reference times around their draw
    brackets = [(a + b) / 2 for a, b in zip(refs, refs[1:])]
    plain = [(reps[0], ref) for (_, _, reps), ref in zip(draws, brackets)
             if verdict_reached(reps[0])]
    summary = {
        "environment": environment,
        "workload": workload,
        "seed": seed,
        "config_seeds": [config["seed"] for config, _, _ in draws],
        "first_config": first,
        "expected_entries": draws[0][1],
        "draws": ndraws,
        "wall_s_samples": [r["result"]["wall_s"] for r, _ in plain],
        "setup_s_samples": [r["setup_s"] for r, _ in plain],
        "reference_s_samples": [ref for _, ref in plain],
        "peak_rss_mb_samples": [r["result"]["maxrss_kb"] / 1024 for r, _ in plain],
        "cpu_util_samples": [r["result"]["cpu_s"] / r["result"]["wall_s"]
                             for r, _ in plain],
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": problems,
        "elapsed_s": time.monotonic() - started,
    }
    if trace:
        traced_reps = [reps[1] for _, _, reps in draws if verdict_reached(reps[1])]
        summary["traced_wall_s_samples"] = [r["result"]["wall_s"] for r in traced_reps]
        summary["layer_samples"] = [r["result"]["layers"] for r in traced_reps]
    return summary


def scaled(samples: list, refs: list) -> list:
    """Each sample times REFERENCE_NOMINAL_S / the mean of the reference
    times taken just before and just after its draw, so that it does not
    follow the host's drift."""
    return [x * REFERENCE_NOMINAL_S / ref for x, ref in zip(samples, refs)]


def end_to_end(summary: dict) -> dict:
    """Suite time: the mean of the scaled samples, that is scaled time per
    draw over the run's fixed set of inputs, whose costs differ by up to a
    factor of two.  Set-up time, the same work in every draw, and memory:
    medians (see NOTES.md)."""
    refs = summary["reference_s_samples"]
    return {
        "wall_s": {"value": statistics.fmean(scaled(summary["wall_s_samples"], refs)),
                   "unit": "s"},
        "setup_s": {"value": _median(scaled(summary["setup_s_samples"], refs)),
                    "unit": "s"},
        "peak_rss_mb": {"value": _median(summary["peak_rss_mb_samples"]), "unit": "MB"},
    }


def per_layer(summary: dict) -> dict:
    layers = summary["layer_samples"]
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "cli.cpu_util":
            value = _median(summary["cpu_util_samples"])
        elif name == "trace.overhead":
            value = (_median(summary["traced_wall_s_samples"])
                     / _median(summary["wall_s_samples"]) - 1.0)
        else:
            value = _median([layer[name] for layer in layers])
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cycleval" / "__init__.py").is_file():
        print(f"no cycleval sources under {SRC}", file=sys.stderr)
        return 2
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if not summary["wall_s_samples"] or (args.trace and not summary["layer_samples"]):
        print("benchmark error: no suite run finished", file=sys.stderr)
        for p in summary["problems"]:
            print("  " + p, file=sys.stderr)
        return 3

    metrics = per_layer(summary) if args.trace else end_to_end(summary)
    summary["metrics"] = metrics
    (WORK / args.workload / "summary.json").write_text(json.dumps(summary, indent=2))

    print("environment: " + json.dumps(summary["environment"], sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(summary['config_seeds'])} input draws of "
          f"{sum(summary['expected_entries'].values())} entries, "
          f"{summary['elapsed_s']:.1f} s")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    else:
        raw = {"wall_s": summary["wall_s_samples"],
               "setup_s": summary["setup_s_samples"],
               "peak_rss_mb": summary["peak_rss_mb_samples"]}
        for name, m in metrics.items():
            q = _quartiles(raw[name])
            print(f"  {name:12s} {m['value']:.4f} {m['unit']}  (raw: median "
                  f"{_median(raw[name]):.4f} of {len(raw[name])}, quartiles "
                  f"{q[0]:.4f} .. {q[2]:.4f})")
        refs = summary["reference_s_samples"]
        print(f"  {'reference':12s} {_median(refs):.4f} s  (median of {len(refs)}; "
              f"wall_s and setup_s are scaled by {REFERENCE_NOMINAL_S} / the mean "
              f"of the two around each draw)")
    print(f"  {'fail_frac':12s} {summary['fail_frac']:.4f}  "
          f"({summary['failed']} of {summary['attempted']} entries failed)")
    for p in summary["problems"]:
        print("  problem: " + p)
    print(json.dumps({
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
