"""Alternating benchmark pairs between two checkouts, with the gain verdict.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload scalable_n100 \
        --pairs 10 --seconds 25 --seed 701 --out pairs.json

Pair i runs ``benchmarks/run.py --workload W --seed S+i --seconds T --trace 0``
in both checkouts, one process each, the change first on odd i. Each run is
read from its last line (the JSON result) and its ``# identity`` line. For
every end-to-end metric of the change's BENCHMARK.json the script prints both
medians, the parent's interquartile range (inclusive quartiles), the pairs the
change won (ties count for neither) and two verdicts. A gain needs wins in at
least nine tenths of the pairs and a median gap larger than the parent's IQR.
The no-regression verdict reads the metric's ``bound``, relative to the
parent's median: "worse" when the change's median is worse by more than it,
"unresolved" when the parent's IQR exceeds it (unless every change run beats
every parent run), and "ok" otherwise. ``--out`` writes every raw run as JSON.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def quartiles(values):
    """(Q1, median, Q3) with inclusive quartiles; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, better):
    """The gain test on paired runs: parent[i] and change[i] form pair i.

    better is "lower" or "higher". Returns the two medians, the parent's IQR,
    the pairs won and whether the change's gain is shown.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on both sides")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    q1, parent_median, q3 = quartiles(parent)
    change_median = statistics.median(change)
    gap = sign * (change_median - parent_median)
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": q3 - q1,
        "wins": wins,
        "pairs": len(parent),
        "gain": wins >= math.ceil(WIN_SHARE * len(parent)) and gap > q3 - q1,
    }


def no_regression(parent, change, better, bound):
    """The no-regression verdict on runs of both sides: "worse", "unresolved" or "ok".

    bound is relative to the parent's median m: the change is "worse" when its
    median is worse than m by more than bound |m|, and "unresolved" when the
    parent's IQR exceeds bound |m|, unless every change run beats every parent
    run.
    """
    sign = -1.0 if better == "lower" else 1.0
    q1, parent_median, q3 = quartiles(parent)
    allowed = bound * abs(parent_median)
    if sign * (statistics.median(change) - parent_median) < -allowed:
        return "worse"
    if q3 - q1 > allowed and not min(sign * c for c in change) > max(sign * p for p in parent):
        return "unresolved"
    return "ok"


def parse_run(stdout):
    """(the identity line after '# identity ', the JSON result) of one run."""
    lines = stdout.strip().splitlines()
    ident = next((line[len("# identity "):] for line in lines
                  if line.startswith("# identity ")), None)
    return ident, json.loads(lines[-1])


def run_side(root, workload, seed, seconds):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True, check=False)
    if not proc.stdout.strip():
        raise RuntimeError(f"{root}: no output (exit {proc.returncode}): {proc.stderr[-500:]}")
    ident, result = parse_run(proc.stdout)
    return {"seed": seed, "exit": proc.returncode, "identity": ident, "result": result}


def end_to_end_metrics(root):
    """BENCHMARK.json's end-to-end metrics: dicts with "name", "better" and "bound"."""
    return json.loads((Path(root) / "BENCHMARK.json").read_text())["end_to_end"]


def report(runs, metrics):
    """Per-metric verdicts of paired runs: {"parent": [...], "change": [...]}."""
    rows = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        sides = [[r["result"]["metrics"][name]["value"] for r in runs[side]]
                 for side in ("parent", "change")]
        rows[name] = dict(verdict(*sides, better), better=better,
                          regression=no_regression(*sides, better, metric["bound"]))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="write the raw runs and verdicts here as JSON")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("change", "parent") if i % 2 else ("parent", "change")
        for side in order:
            root = args.change_dir if side == "change" else args.parent_dir
            runs[side].append(run_side(root, args.workload, seed, args.seconds))
        same = runs["parent"][-1]["identity"] == runs["change"][-1]["identity"]
        print(f"# pair {i} seed {seed}: identity {'equal' if same else 'differs'}", flush=True)

    rows = report(runs, end_to_end_metrics(args.change_dir))
    print(f"{'metric':<14}{'parent':>12}{'change':>12}{'delta':>9}{'IQR':>12}{'won':>7}"
          f"  gain  regression")
    for name, row in rows.items():
        base = row["parent_median"]
        delta = (row["change_median"] - base) / base if base else float("nan")
        print(f"{name:<14}{base:>12.6g}{row['change_median']:>12.6g}{delta:>+9.1%}"
              f"{row['parent_iqr']:>12.4g}{row['wins']:>4}/{row['pairs']:<2}  "
              f"{'yes' if row['gain'] else 'no':<4}  {row['regression']}")
    for side in ("parent", "change"):
        bad = [r["seed"] for r in runs[side]
               if r["exit"] or not r["result"]["correct"] or r["result"]["failed"]]
        print(f"# {side}: {len(runs[side]) - len(bad)} of {len(runs[side])} runs correct "
              f"with no failed solve" + (f"; not at seeds {bad}" if bad else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "runs": runs,
             "verdicts": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
