"""Batch driver.

    cycleval run <config.json> [--out DIR] [--jobs N]
    cycleval list-catalog
    cycleval dump-cycle "<function spec>" [--n N] [--out FILE]

``run`` executes the suites named in the config, writes ``report.json``
(canonical, timestamp-free: identical config and seed give byte-identical
bytes) and ``summary.txt`` next to it, and exits 0 only if every suite
passed: 1 on suite failures, 2 on config/parse errors, 3 on runtime errors.
A declared form, function or body that no requested suite evaluates is a
config error, and so is an output directory that cannot be created; both
are found before the first suite runs.  An output file that cannot be
written once the suites have run exits 2 with an ``output error``, and so
does a stdout that its reader closes early (``| head -1``).  The suites
run one after another on the calling thread.  A job count (``--jobs``,
default 1) is accepted for process jobs to come; a job count below 1 is a
config error.

A run loads only the layers its config uses, all of them while it
validates the config: a run of ``identities`` alone loads ``polynomials``,
``exactla``, ``coefficients``, ``forms``, ``rumin``, ``suites``, ``report``
and this module, and no numpy, since its random forms are drawn from
Python's ``random``; any other suite adds numpy and ``numeric_suites``
with ``quadrature``, ``convex``, ``cycles``, ``polyhedral`` and ``lab``;
the bridge suite adds ``bridge``, and declared forms, functions or bodies
add ``grammar``, which ``list-catalog`` and ``dump-cycle`` load as well.
Only ``numpy.random`` loads later: at the first draw of a numeric suite
(in set-up when a declared body is checked), so a kernel-only run pays
that import in its first suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .forms import MAX_DIMENSION
from .report import ValuationReport, config_digest
from .suites import SUITES, ExperimentConfig, run_suite

EXIT_OK = 0
EXIT_SUITE_FAILURES = 1
EXIT_PARSE_ERROR = 2
EXIT_RUNTIME_ERROR = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cycleval",
                                description="valuation workbench batch driver")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run the suites of a config file")
    runp.add_argument("config", help="path to a JSON experiment config, "
                      "or 'default' for the bundled n=1 configuration")
    runp.add_argument("--out", default=".", help="output directory")
    runp.add_argument("--jobs", type=int, default=1,
                      help="job count, at least 1 (default 1); accepted and "
                      "checked, but the suites run one at a time on the "
                      "calling thread")

    sub.add_parser("list-catalog", help="print constructors and the grammar")

    dumpp = sub.add_parser("dump-cycle",
                           help="dump the polyhedral cycle of a max-affine spec")
    dumpp.add_argument("spec", help="function spec, e.g. "
                       "'maxaffine pieces=[[[1],0],[[-1],0]]'")
    dumpp.add_argument("--n", type=int, default=1, help="base dimension")
    dumpp.add_argument("--out", default="-", help="output file, - for stdout")
    return p


def _resolve_config_path(arg: str) -> Path:
    if arg == "default":
        return Path(__file__).parent / "configs" / "default_n1.json"
    return Path(arg)


def cmd_run(args) -> int:
    try:
        if args.jobs < 1:
            raise ValueError(f"the job count must be at least 1, got {args.jobs}")
        raw = json.loads(_resolve_config_path(args.config).read_text())
        config = ExperimentConfig.from_dict(raw)
        # malformed declared objects, and ones no requested suite
        # evaluates, exit with code 2
        config.check_declared()
        # after validation, so that a rejected config leaves no directory,
        # and before the first suite, so that a bad --out costs no run
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR

    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    try:
        results = [run_suite(name, config) for name in config.suites]
        report = ValuationReport(
            environment={
                "package": "cycleval",
                "version": __version__,
                "n": config.n,
                "seed": config.seed,
            },
            inputs_digest=config_digest(config.to_dict()),
            suites=results,
        )
        # serialise before writing: a non-finite value raises here
        report_json = report.to_json()
    except Exception as exc:  # noqa: BLE001 - the contract is exit code 3
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR

    try:
        (outdir / "report.json").write_text(report_json)
        (outdir / "summary.txt").write_text(
            f"started: {started}\n" + report.summary_text())
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    if not _to_stdout(report.summary_text()):
        return EXIT_PARSE_ERROR
    return EXIT_OK if report.passed else EXIT_SUITE_FAILURES


def _to_stdout(text: str) -> bool:
    """Write ``text`` to stdout; False, after an ``output error``, when its
    reader has gone (``head``, say, which stops early).  A text-only stdout
    (an ``io.StringIO``, say) takes the text as it is."""
    out = sys.stdout
    if out is None:  # started without a stdout: nothing to write to
        return True
    buffer = getattr(out, "buffer", None)
    try:
        out.flush()
        if buffer is None:
            out.write(text)
            return True
        data = text.encode(out.encoding, out.errors)
        while data:  # a pipe whose reader leaves takes part of a write
            data = data[buffer.write(data):]
        buffer.flush()
    except OSError as exc:
        # the interpreter flushes stdout once more at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        print(f"output error: {exc}", file=sys.stderr)
        return False
    return True


def cmd_list_catalog(_args) -> int:
    from .grammar import CATALOG_TEXT

    text = f"cycleval {__version__}\n\n{CATALOG_TEXT}\nsuites: {', '.join(SUITES)}\n"
    return EXIT_OK if _to_stdout(text) else EXIT_PARSE_ERROR


def cmd_dump_cycle(args) -> int:
    from .convex import PiecewiseLinear1D, as_max_affine
    from .cycles import build_1d
    from .grammar import parse_function
    from .polyhedral import MAX_POLYHEDRAL_DIMENSION, build_polyhedral

    try:
        if not 1 <= args.n <= MAX_DIMENSION:
            raise ValueError(f"--n must be in 1..{MAX_DIMENSION}, got {args.n}")
        f = parse_function(args.spec, args.n)
        dim = getattr(f, "n", 1)  # a PiecewiseLinear1D lives on R
        if dim != args.n:
            raise ValueError(f"the spec has dimension {dim}, not --n {args.n}")
        ma = None if isinstance(f, PiecewiseLinear1D) else as_max_affine(f)
        if ma is not None and dim > MAX_POLYHEDRAL_DIMENSION:
            raise ValueError("polyhedral cycles are built for n = 1 and "
                             f"{MAX_POLYHEDRAL_DIMENSION}, not n = {dim}")
    except (ValueError, KeyError, TypeError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        if isinstance(f, PiecewiseLinear1D):
            # [-10, 10], widened to hold every kink and a piece beyond it
            lo = min([-10] + [b - 1 for b in f.breaks])
            hi = max([10] + [b + 1 for b in f.breaks])
            horiz, vert, d = build_1d(f).segments(lo, hi)
            payload = json.dumps({
                "kind": "polyline",
                "horizontal": [[str(Fraction(v, d)) for v in (a, b, s)] for s, a, b in horiz],
                "vertical": [[str(Fraction(v, d)) for v in seg] for seg in vert],
            }, indent=2, sort_keys=True)
        elif ma is None:
            print("dump-cycle expects a max-affine or piecewise-linear spec",
                  file=sys.stderr)
            return EXIT_PARSE_ERROR
        else:
            payload = build_polyhedral(ma).dump_json()
    except Exception as exc:  # noqa: BLE001
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    if args.out == "-":
        return EXIT_OK if _to_stdout(payload + "\n") else EXIT_PARSE_ERROR
    try:
        Path(args.out).write_text(payload + "\n")
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "list-catalog":
        return cmd_list_catalog(args)
    return cmd_dump_cycle(args)


if __name__ == "__main__":
    sys.exit(main())
