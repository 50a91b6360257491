"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
        --spawned T --out FILE [--spans FILE | --profile]
        [--setup-only] [--record]

T is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is shared by all processes), so setup_s covers interpreter
start, imports, Catalog.load and input construction.  The round's result is
written to FILE as JSON.  With --spans the sktsym layers are traced and the
spans are written to that file when the round ends.  With --profile the
round runs under cProfile, untraced, and reports the profiler's call count of
every traced function (the coverage check in coverage.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
import types
from pathlib import Path
from time import perf_counter, process_time

import tracing
from workloads import WORKLOADS


def _args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--profile", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    return ap.parse_args(argv)


def main(argv=None):
    args = _args(argv)
    sys.path.insert(0, str(Path(args.root) / "src"))
    from sktsym import catalog, cli, expr, invariance, jet, simulator, solutions

    sk = types.SimpleNamespace(expr=expr, jet=jet, invariance=invariance,
                               catalog=catalog, cli=cli, solutions=solutions,
                               simulator=simulator)
    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.verdict = "setup"
        tracing.install(tracer, vars(sk))

    profiler = None
    if args.profile:
        import cProfile
        functions = tracing.layer_functions(vars(sk))
        profiler = cProfile.Profile()
        profiler.enable()

    verdicts = WORKLOADS[args.workload](sk, args.seed, record=args.record)
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(_run_verdicts(verdicts, tracer))
    if profiler is not None:
        profiler.disable()
        result["profile_calls"] = _profiled_calls(profiler, functions)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(args.spans)
        result["layers"] = tracing.per_layer_metrics(tracer.spans, tracer.counters)
        # the self times of the verdicts' spans partition their durations
        result["self_sum_s"] = sum(
            own for rec, own in zip(tracer.spans, tracing.self_times(tracer.spans))
            if rec[4] != "setup")
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def _profiled_calls(profiler, functions):
    import pstats
    ncalls = {key: row[1] for key, row in pstats.Stats(profiler).stats.items()}
    out = {}
    for name, fn in functions.items():
        code = fn.__code__
        out[name] = ncalls.get(
            (code.co_filename, code.co_firstlineno, code.co_name), 0)
    return out


def _run_verdicts(verdicts, tracer):
    rows = []
    wall0, cpu0 = perf_counter(), process_time()
    for vid, fn in verdicts:
        t0 = perf_counter()
        error = None
        try:
            if tracer is None:
                ok, report = fn()
            else:
                tracer.verdict = vid
                ok, report = tracer.span(tracing.VERDICT_SPAN, fn)
        except Exception:  # a verdict that raises is a mismatch, not a crash
            ok, report, error = False, "", traceback.format_exc(limit=3)
        rows.append({"id": vid, "seconds": perf_counter() - t0, "ok": bool(ok),
                     "hash": hashlib.sha256(report.encode()).hexdigest(),
                     "error": error})
    return {"wall_s": perf_counter() - wall0, "cpu_s": process_time() - cpu0,
            "verdicts": rows}


if __name__ == "__main__":
    sys.exit(main())
