"""In-memory spans around the calls into each sktsym layer.

The tracer wraps the public functions listed in LAYERS.  A function that
another module imports by name is bound in several module namespaces, so
every binding that holds the original function object is replaced; calls
through any of them, including calls a module makes to its own functions,
then go through the wrapper.  Nothing under src/ is modified.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

# module -> wrapped functions ("Class.method" for methods)
LAYERS = {
    "expr": ("normalize", "iszero", "collect_jet", "eval_numeric", "parse"),
    "jet": ("prolong2", "apply_prolonged"),
    "invariance": ("check_invariance", "manifold_restrict", "closure_check",
                   "commutator", "generate_determining", "proportional"),
    "catalog": ("Catalog.load", "Catalog.validate_all"),
    "cli": ("main",),
    "solutions": ("residual", "residual_numeric", "sample_points",
                  "group_orbit", "flux_check", "reduce_ansatz",
                  "check_reduction", "builtin_family"),
    "simulator": ("convergence_study", "run", "discretize_rhs",
                  "field_functions", "exact_error"),
}

VERDICT_SPAN = "bench.verdict"

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# counters derived from a wrapped function's return value
_RESULT_COUNTERS = {
    "invariance.proportional": ("hits", lambda r: int(r is not None)),
    "simulator.run": ("steps", lambda r: r.steps),
}


class Tracer:
    """Spans are [name, start, end, parent index, verdict id] in call order."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []
        self.verdict = None

    def span(self, name, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
               self.verdict]
        stack.append(len(spans))
        spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            stack.pop()

    def wrap(self, name, fn):
        counter = _RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.counters[key] = self.counters.get(key, 0) + counter[1](result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "verdict"],
                       "spans": self.spans, "counters": self.counters}, fh)


def layer_functions(modules):
    """span name -> the plain function it wraps.  `modules` maps the short
    module names (keys of LAYERS) to the imported sktsym modules."""
    out = {}
    for mod_name, names in LAYERS.items():
        for qual in names:
            owner = modules[mod_name]
            *cls, attr = qual.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            fn = owner.__dict__[attr]
            out[f"{mod_name}.{qual}"] = (fn.__func__ if isinstance(fn, classmethod)
                                         else fn)
    return out


def install(tracer, modules):
    """Wrap every function in LAYERS, in every namespace that binds it."""
    for name, fn in layer_functions(modules).items():
        traced = tracer.wrap(name, fn)
        mod_name, _, qual = name.partition(".")
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            setattr(cls, attr, classmethod(traced)
                    if isinstance(raw, classmethod) else traced)
            continue
        for other in modules.values():
            for key, val in list(vars(other).items()):
                if val is fn:
                    setattr(other, key, traced)


def self_times(spans):
    """Self time of each span: its duration minus its children's durations.
    The spans come from one call stack, so a span's children never overlap."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_table(spans):
    """name -> (calls, self seconds) over all spans."""
    table = {}
    for rec, own in zip(spans, self_times(spans)):
        calls, self_s = table.get(rec[0], (0, 0.0))
        table[rec[0]] = (calls + 1, self_s + own)
    return table


# verdicts whose simulator numbers are also reported on their own
_LADDERS = {"neumann": "neumann-ladder", "dirichlet": "dirichlet-ladder"}

# run.py adds these from the traced and untraced rounds
TRACE_METRICS = (("trace.wall_s", "s"), ("trace.self_sum_s", "s"),
                 ("trace.overhead_s", "s"))


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for span in SPAN_NAMES + (VERDICT_SPAN,):
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    names += [("invariance.proportional.hit_ratio", "ratio"),
              ("simulator.run.steps", "count"),
              ("simulator.rhs_per_s", "1/s"),
              ("simulator.field_functions.per_run", "calls/run")]
    for ladder in _LADDERS:
        names += [(f"simulator.rhs_per_s.{ladder}", "1/s"),
                  (f"simulator.field_functions.per_run.{ladder}", "calls/run")]
    return names + list(TRACE_METRICS)


def _simulator_rates(spans):
    """RHS evaluations per second of RHS time (children included), and
    field_functions compiles per solver run."""
    rhs_calls, rhs_s, runs, compiles = 0, 0.0, 0, 0
    for name, start, end, _, _ in spans:
        if name == "simulator.discretize_rhs":
            rhs_calls += 1
            rhs_s += end - start
        elif name == "simulator.run":
            runs += 1
        elif name == "simulator.field_functions":
            compiles += 1
    return (rhs_calls / rhs_s if rhs_s else 0.0,
            compiles / runs if runs else 0.0)


def per_layer_metrics(spans, counters):
    """Every per-layer metric except TRACE_METRICS, as name -> value."""
    table = layer_table(spans)
    out = {}
    for span in SPAN_NAMES + (VERDICT_SPAN,):
        calls, self_s = table.get(span, (0, 0.0))
        out[f"{span}.calls"] = calls
        out[f"{span}.self_s"] = self_s
    calls = out["invariance.proportional.calls"]
    out["invariance.proportional.hit_ratio"] = (
        counters.get("invariance.proportional.hits", 0) / calls if calls else 0.0)
    out["simulator.run.steps"] = counters.get("simulator.run.steps", 0)
    out["simulator.rhs_per_s"], out["simulator.field_functions.per_run"] = \
        _simulator_rates(spans)
    for ladder, verdict in _LADDERS.items():
        rhs, per_run = _simulator_rates([s for s in spans if s[4] == verdict])
        out[f"simulator.rhs_per_s.{ladder}"] = rhs
        out[f"simulator.field_functions.per_run.{ladder}"] = per_run
    return out
