"""sktsym benchmark: four verdict workloads, checked against known answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; sktsym is imported from its src/.  Every
round runs the whole workload in a fresh interpreter, because every sktsym
invocation starts with cold sympy caches.  Rounds repeat while another round
of the same length still fits in S seconds (at least one round runs).  Each
metric is computed within a round and the run reports its median over the
rounds, so verdict_p50_s and verdict_tail_s depend only on the verdicts of
one round, not on how many rounds fit.  setup_s is the median of
SETUP_SAMPLES set-ups: one per round, plus set-up-only processes.

With --trace 1 the run makes one untraced and one traced round and reports
the per-layer metrics of the traced one; the traced spans are written to
.perfbench_out/.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import tracing  # noqa: E402

WORKLOAD_NAMES = ("catalog", "determining", "solutions", "simulate")

EXPECTED = HERE / "expected.json"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
             "verdict_p50_s": "s", "verdict_tail_s": "s",
             "peak_rss_mb": "MB", "match_ratio": "ratio"}


class BenchError(Exception):
    pass


def spawn_round(workload, seed, deadline, *, spans=None, profile=False,
                setup_only=False, record=False):
    """Run one worker process to completion and return its result dict."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"round-{os.getpid()}-{time.monotonic_ns()}.json"
    cmd = ([sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
            "--workload", workload, "--seed", str(seed), "--out", str(out)]
           + (["--spans", str(spans)] if spans else [])
           + ["--profile"] * profile + ["--setup-only"] * setup_only
           + ["--record"] * record)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before a round could start")
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} round exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    try:
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def mismatches(verdicts, expected):
    """Verdict rows whose outcome or report differs from the expected one.
    A verdict that raised, failed its known-answer check, or has no recorded
    report hash counts as a mismatch."""
    return [v for v in verdicts
            if v["error"] or not v["ok"] or expected.get(v["id"]) != v["hash"]]


def end_to_end(rounds, setups, expected):
    """The end-to-end metrics of a run: each is computed within a round and
    then the median is taken over the rounds."""
    times = [[v["seconds"] for v in r["verdicts"]] for r in rounds]
    tails = [stats.tail(t) for t in times]
    attempted = sum(map(len, times))
    bad = [v for r in rounds for v in mismatches(r["verdicts"], expected)]
    median = statistics.median
    metrics = {
        "setup_s": median(setups),
        "wall_s": median([r["wall_s"] for r in rounds]),
        "cpu_s": median([r["cpu_s"] for r in rounds]),
        "verdict_p50_s": median([median(t) for t in times]),
        "verdict_tail_s": median([value for value, _, _ in tails]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
        "match_ratio": 1.0 - len(bad) / attempted,
    }
    _, pct, n = tails[0]
    rule = ("slowest verdict: fewer than 11 verdicts, so no percentile has ten "
            "beyond it" if n <= stats.TAIL_BEYOND else
            "highest percentile with ten verdicts beyond it")
    notes = [f"rounds: {len(rounds)}  set-up samples: {len(setups)}",
             f"verdict_tail_s: p{pct:.1f} of the {n} verdicts of a round ({rule})",
             f"mismatch_ratio: {len(bad)}/{attempted} = {len(bad) / attempted:.4f}"]
    notes += [f"mismatch: {v['id']} ok={v['ok']} "
              + "".join((v["error"] or "").strip().splitlines()[-1:]) for v in bad]
    return metrics, attempted, len(bad), notes


def measure(workload, seed, seconds, trace):
    expected = json.loads(EXPECTED.read_text()).get(workload, {})
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    if trace:
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        plain = spawn_round(workload, seed, deadline)
        traced = spawn_round(workload, seed, deadline, spans=spans)
        rounds = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.self_sum_s"] = traced["self_sum_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        units = dict(tracing.per_layer_names())
        bad = sum(len(mismatches(r["verdicts"], expected)) for r in rounds)
        attempted = sum(len(r["verdicts"]) for r in rounds)
        notes = [f"spans: {spans.relative_to(ROOT)}",
                 f"mismatch_ratio: {bad}/{attempted}"]
    else:
        rounds = []
        while True:
            rounds.append(spawn_round(workload, seed, deadline))
            elapsed = time.monotonic() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn_round(workload, seed, deadline,
                                      setup_only=True)["setup_s"])
        metrics, attempted, bad, notes = end_to_end(rounds, setups, expected)
        units = E2E_UNITS
    if set(metrics) != set(units):
        raise BenchError(f"metric set differs from the definition: "
                         f"{sorted(set(metrics) ^ set(units))}")
    result = {"correct": bad == 0, "attempted": attempted, "failed": bad,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return result, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "sktsym" / "__init__.py").is_file():
        print(f"error: no sktsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    try:
        result, notes = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
