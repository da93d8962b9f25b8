"""Paired perfbench runs of two source trees, written as one BENCH file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload NAME \\
        [--workload NAME ...] --seeds 1-10 --label LABEL \\
        [--claim TEXT] [--parent-name REV] [--change-name REV] [--out DIR]

PARENT_DIR and CHANGE_DIR are extracted source trees (``git archive REV |
tar -x -C DIR``), each with its own ``perfbench/run.py``.  For every
workload and seed, each tree's benchmark runs once with
``PYTHONDONTWRITEBYTECODE=1``, in a fresh process started in that tree and
at run.py's own run length; the parent runs first at odd seeds and the
change at even ones.  Neither tree
may hold a ``__pycache__`` directory before the runs, and one found after
them is reported and fails the command.

The output, ``BENCH_<label>.json`` in ``--out`` (default: the current
directory), holds every run's last output line (``runs``) and, per workload
and end-to-end metric, the number of pairs, the median and quartiles of
each side, the pairs in which the change reads lower and the gap between
the medians (change minus parent).  Quartiles are those of
``statistics.quantiles`` (its default, exclusive method).  The verdict
line of each metric sets that gap against the parent's interquartile range
and against the metric's bound in the parent tree's ``BENCHMARK.json``, a
share of the parent's median as ``perfbench/NOTES.md`` reads it; it calls
the metric unresolved when the parent's IQR is wider than the bound, since
such runs cannot tell a shift of the bound's size from noise.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
# the keys of perfbench's environment line that describe the host, not the run
HOST_KEYS = ("platform", "nproc", "python", "numpy", "blas", "thread_settings")


def seed_list(text: str) -> list[int]:
    """``1-10`` or ``1,2,5`` (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def bytecode_dirs(tree: Path) -> list[str]:
    return sorted(str(p.relative_to(tree)) for p in tree.rglob("__pycache__"))


def run_once(tree: Path, workload: str, seed: int) -> tuple[dict, str]:
    """The JSON result line of one benchmark run and its host, as JSON text."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    environment = next((json.loads(line.partition(": ")[2]) for line in lines
                        if line.startswith("environment: ")), {})
    host = {k: environment.get(k) for k in HOST_KEYS}
    return json.loads(lines[-1]), json.dumps(host, sort_keys=True)


def summarise(runs: list, workload: str, seeds: list) -> dict:
    """Pair statistics of every metric of one workload."""
    by = {(r["side"], r["seed"]): r["result"] for r in runs if r["workload"] == workload}
    out = {}
    for name in METRICS:
        parent = [by["parent", s]["metrics"][name]["value"] for s in seeds]
        change = [by["change", s]["metrics"][name]["value"] for s in seeds]
        pq, cq = _quartiles(parent), _quartiles(change)
        out[name] = {
            "pairs": len(seeds),
            "parent_median": pq[1], "parent_q1": pq[0], "parent_q3": pq[2],
            "change_median": cq[1], "change_q1": cq[0], "change_q3": cq[2],
            "change_lower_in": sum(c < p for p, c in zip(parent, change)),
            "median_gap": cq[1] - pq[1],
        }
    out["failed_over_attempted"] = {
        side: [sum(by[side, s]["failed"] for s in seeds),
               sum(by[side, s]["attempted"] for s in seeds)]
        for side in ("parent", "change")}
    return out


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def bounds(tree: Path) -> dict:
    """The bound of each end-to-end metric in the tree's BENCHMARK.json."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _side(gap: float, width: float) -> str:
    return "beyond" if abs(gap) > width else "within"


def verdict(summary: dict, bound: dict) -> list:
    """One line per workload and metric: the gap against the parent's IQR
    and the metric's bound (times the parent's median), or unresolved where
    that IQR exceeds the bound."""
    lines = []
    for workload, metrics in summary.items():
        for name in METRICS:
            m = metrics[name]
            gap, iqr = m["median_gap"], m["parent_q3"] - m["parent_q1"]
            limit = bound[name] * m["parent_median"]
            if iqr > limit:
                judged = (f"unresolved, the parent's IQR of {iqr:.4f} being wider "
                          f"than the bound of {limit:.4f} ({bound[name]:g} of its median)")
            else:
                judged = (f"{_side(gap, iqr)} the parent's IQR of {iqr:.4f}, "
                          f"{_side(gap, limit)} the bound of {limit:.4f} "
                          f"({bound[name]:g} of its median)")
            lines.append(
                f"{workload} {name}: {m['parent_median']:.4f} -> {m['change_median']:.4f} "
                f"(change lower in {m['change_lower_in']}/{m['pairs']}, gap "
                f"{gap:+.4f}: {judged})")
        fails = metrics["failed_over_attempted"]
        lines.append(f"{workload} failed entries: parent {fails['parent'][0]} of "
                     f"{fails['parent'][1]}, change {fails['change'][0]} of "
                     f"{fails['change'][1]}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--claim", default="none")
    ap.add_argument("--parent-name", help="what the parent tree is, e.g. its git "
                    "revision (default: the directory's name)")
    ap.add_argument("--change-name", help="the same for the change tree")
    ap.add_argument("--out", type=Path, default=Path("."))
    args = ap.parse_args(argv)

    trees = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"{side} tree {tree} has no perfbench/run.py", file=sys.stderr)
            return 2
        if not (tree / "BENCHMARK.json").is_file():
            print(f"{side} tree {tree} has no BENCHMARK.json", file=sys.stderr)
            return 2
        found = bytecode_dirs(tree)
        if found:
            print(f"{side} tree holds __pycache__ before the runs: {found}", file=sys.stderr)
            return 2

    runs, environments = [], set()
    for workload in args.workload:
        for seed in args.seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                result, environment = run_once(trees[side], workload, seed)
                environments.add(environment)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "ran_first": side == order[0], "result": result})
                print(f"{workload} seed {seed} {side}: "
                      f"{json.dumps(result['metrics'])}", file=sys.stderr)

    left = {side: bytecode_dirs(tree) for side, tree in trees.items()}
    summary = {w: summarise(runs, w, args.seeds) for w in args.workload}
    seeds = f"{min(args.seeds)}_{max(args.seeds)}"
    bench = {
        "label": args.label,
        "claim": args.claim,
        "parent": args.parent_name or trees["parent"].name,
        "change": args.change_name or trees["change"].name,
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   "--trace 0",
        "host": " / ".join(sorted(environments)),
        "bytecode_state": (
            "both trees run with PYTHONDONTWRITEBYTECODE=1; no __pycache__ under "
            "either tree before the runs, "
            + ("none after them" if not any(left.values())
               else f"found after them: {left}")),
        "method": f"one run per (side, workload, seed) at seeds {args.seeds}, the side "
                  "that runs first alternating (parent first at odd seeds)",
        f"summary_seeds_{seeds}": summary,
        "verdict": verdict(summary, bounds(trees["parent"])),
        "runs": runs,
    }
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 1 if any(left.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
