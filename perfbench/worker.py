"""One workload process of the cycleval benchmark.

    python3 perfbench/worker.py CONFIG OUTDIR --src SRC [--cli] [--trace] [--setup-only]

Set-up is what ``cycleval run`` does before its first suite: import the
package and parse and validate the config, including the grammar parsing
of its declared forms, functions and bodies.  The end of set-up is written
as a ``time.monotonic()`` reading, which on Linux shares its clock with the
parent, so the parent can time set-up from its own spawn time.

Then the suites run.  With ``--cli`` the worker calls ``cycleval.cli.main``
without parsing the config itself: ``cmd_run`` parses it, so set-up ends,
and the timed region starts, at ``cmd_run``'s first ``run_suite`` call, and
``cmd_run`` writes report.json and summary.txt into OUTDIR.  Otherwise the
worker parses the config and runs one ``run_suite`` per suite, after which
the report is written outside the timed region.  ``result.json`` in OUTDIR
holds the timings, the exit code the CLI contract gives the verdict (0
pass, 1 suite failures, 3 runtime error), peak memory and, with
``--trace``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "CYCLEVAL_JOBS")


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_settings": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("config")
    ap.add_argument("outdir")
    ap.add_argument("--src", required=True)
    ap.add_argument("--cli", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    outdir = Path(args.outdir)

    import cycleval
    from cycleval import cli
    from cycleval.report import ValuationReport, config_digest
    from cycleval.suites import ExperimentConfig, run_suite

    src = Path(args.src).resolve()
    if src not in Path(cycleval.__file__).resolve().parents:
        print(f"cycleval imported from {cycleval.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.install()
    if args.cli and not args.setup_only:
        return _run_cli(cli, args.config, outdir, tracer)
    config = ExperimentConfig.from_dict(json.loads(Path(args.config).read_text()))
    config.parsed_forms(config.n)
    config.parsed_functions(config.n)
    config.parsed_bodies(config.n)
    result = {"setup_done": time.monotonic()}
    if args.setup_only:
        result["environment"] = _environment()
        (outdir / "result.json").write_text(json.dumps(result))
        return 0

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        suites = [run_suite(name, config) for name in config.suites]
    except Exception as exc:  # noqa: BLE001 - the contract is exit code 3
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        suites = None
    wall = time.perf_counter() - t0
    if suites is None:
        code = cli.EXIT_RUNTIME_ERROR
    else:
        report = ValuationReport(
            environment={"package": "cycleval", "version": cycleval.__version__,
                         "n": config.n, "seed": config.seed},
            inputs_digest=config_digest(config.to_dict()), suites=suites)
        (outdir / "report.json").write_text(report.to_json())
        code = cli.EXIT_OK if report.passed else cli.EXIT_SUITE_FAILURES
    result.update(wall_s=wall, cpu_s=_cpu_seconds() - cpu0)
    return _finish(result, code, outdir, tracer)


def _run_cli(cli, config_path: str, outdir: Path, tracer) -> int:
    """``cycleval run CONFIG --out OUTDIR --jobs 2``, timed from the first
    ``run_suite`` call, which ``cmd_run`` makes once the config is parsed."""
    first = []  # (monotonic, cpu seconds) at each suite's start
    inner = cli.run_suite

    def run_suite(name, config):
        first.append((time.monotonic(), _cpu_seconds()))
        return inner(name, config)

    cli.run_suite = run_suite
    code = cli.main(["run", config_path, "--out", str(outdir), "--jobs", "2"])
    end, cpu1 = time.monotonic(), _cpu_seconds()
    if not first:  # cmd_run stopped before its first suite
        return _finish({"setup_done": end, "wall_s": 0.0, "cpu_s": 0.0},
                       code, outdir, tracer)
    setup_done, cpu0 = min(first)
    return _finish({"setup_done": setup_done, "wall_s": end - setup_done,
                    "cpu_s": cpu1 - cpu0}, code, outdir, tracer)


def _finish(result: dict, code: int, outdir: Path, tracer) -> int:
    result.update(exit_code=code,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.dump(outdir / "spans.npz")
    (outdir / "result.json").write_text(json.dumps(result))
    return code

if __name__ == "__main__":
    sys.exit(main())
