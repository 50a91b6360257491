"""Check that the spans cover every call: for each workload, the traced
call count of every wrapped function must equal the cProfile call count of
an untraced round with the same seed.

    python3 perfbench/coverage.py [--seed N] [WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import sys
import time

import tracing
from run import OUT_DIR, WORKLOAD_NAMES, spawn_round


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOAD_NAMES))
    args = ap.parse_args(argv)
    bad = 0
    for workload in args.workloads:
        deadline = time.monotonic() + 3600
        spans = OUT_DIR / f"spans-{workload}-coverage.json"
        traced = spawn_round(workload, args.seed, deadline, spans=spans)
        profiled = spawn_round(workload, args.seed, deadline, profile=True)
        for name in tracing.SPAN_NAMES:
            got = traced["layers"][f"{name}.calls"]
            want = profiled["profile_calls"][name]
            bad += got != want
            print(f"{workload:12} {name:38} traced {got:8} cProfile {want:8}"
                  f"{'' if got == want else '  MISMATCH'}")
        spans.unlink(missing_ok=True)
    print(f"mismatched counts: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
