"""Run-to-run spread of the end-to-end metrics over several seeds, and the
agreement of two sets of runs.

    python3 perfbench/spread.py [--seeds 1-10] [--json FILE] [WORKLOAD ...]
    python3 perfbench/spread.py --compare FIRST.json SECOND.json

The first form runs the benchmark command of BENCHMARK.json once per seed and
workload, one run at a time, and prints for every end-to-end metric its
median, its quartiles, the quartile spread (Q3 - Q1) / median and the
metric's bound.  --json keeps every run's result.

The second form reads two files written by --json, prints each set's
spreads, and then for every metric and workload how much worse the second
set's median is than the first's, as a share of the first, against the
metric's bound.  It exits with 1 if any metric is worse by more than its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import stats
from run import ROOT, WORKLOAD_NAMES


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _values(results, metric):
    return [r["metrics"][metric]["value"] for r in results]


def run_set(spec, workloads, seeds):
    runs = {}
    for workload in workloads:
        for seed in seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return None
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: correct {result['correct']}",
                  file=sys.stderr)
    return runs


def report_spreads(spec, runs):
    """Print the spreads; return the largest spread as a share of its bound,
    with its metric and workload.  setup_s is included."""
    worst = (0.0, "", "")
    for workload, results in runs.items():
        print(f"{workload} ({len(results)} runs, all correct: "
              f"{all(r['correct'] for r in results)})")
        for m in spec["end_to_end"]:
            values = _values(results, m["name"])
            q1, q2, q3 = statistics.quantiles(values, n=4)
            share = stats.quartile_spread(values)
            worst = max(worst, (share / m["bound"], m["name"], workload))
            print(f"  {m['name']:15} median {q2:12.6g}  Q1 {q1:12.6g}  "
                  f"Q3 {q3:12.6g}  spread {share:7.2%}  bound {m['bound']:.0%}")
    print(f"largest spread as a share of its bound: {worst[0]:.2f} "
          f"({worst[1]} on {worst[2]})")
    return worst


def compare(spec, first, second):
    """Print how much worse each median of `second` is than that of `first`;
    return the number of metrics worse by more than their bound."""
    over = 0
    print("second set against the first: change of the median in the worse "
          "direction, as a share of the first median")
    for workload in first:
        for m in spec["end_to_end"]:
            a = statistics.median(_values(first[workload], m["name"]))
            b = statistics.median(_values(second[workload], m["name"]))
            worse = (b - a if m["better"] == "lower" else a - b) / a
            over += worse > m["bound"]
            print(f"  {workload:12} {m['name']:15} first {a:12.6g}  "
                  f"second {b:12.6g}  worse by {worse:+7.2%}  "
                  f"bound {m['bound']:.0%}"
                  f"{'  OVER' if worse > m['bound'] else ''}")
    print(f"metrics worse than their bound: {over}")
    return over


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--json", help="also write every run's result here")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare two files written by --json; runs nothing")
    ap.add_argument("workloads", nargs="*", default=list(WORKLOAD_NAMES))
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        sets = [json.loads(open(path).read()) for path in args.compare]
        for path, runs in zip(args.compare, sets):
            print(f"== {path}")
            report_spreads(spec, runs)
        return 1 if compare(spec, *sets) else 0
    runs = run_set(spec, args.workloads, args.seeds)
    if runs is None:
        return 1
    report_spreads(spec, runs)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(runs, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
