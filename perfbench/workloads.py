"""The four benchmark workloads.

A workload's `setup(sk, seed, record)` does what a user's process does before
its first verdict (load the catalog, build the inputs) and returns the
verdicts as (id, callable) pairs in the order they run.  A verdict is one
timed call into sktsym; its callable returns (ok, report): `ok` is the check
against the known answer, and `report` is the text whose hash must equal the
one recorded at the seed commit (expected.json).

`sk` is a namespace holding the imported sktsym modules, so that a traced run
sees the wrapped functions.  Inputs that vary with the seed are drawn here;
sktsym receives only the drawn values.
"""

from __future__ import annotations

import contextlib
import io
import math
import random

import numpy as np
import sympy as sp

# Determining-split draw: catalog entries whose restricted split through the
# CLI costs 3-4 s (2 CPUs), so that the seed changes which entries run but
# not how much work the run does.
DETERMINING_POOL = ((1, 9), (1, 11), (1, 12), (1, 13), (1, 14), (1, 15),
                    (1, 16), (2, 1), (2, 2), (2, 3), (2, 4), (3, 5))
DETERMINING_DRAWS = 1

# family-trig on u_t = [uv]_xx + uv, as in the acceptance ladder
LADDER_BINDINGS = {"alpha1": -1.0, "alpha2": -3.0, "p": 0.05,
                   "lambda1": 1.0, "lambda2": 0.0}
NEUMANN_SIZES = (64, 128, 256)
DIRICHLET_SIZES = (16, 32)
FIRST_ORDER_SIZES = (64, 128)
LADDER_T_END = 0.2
DIRICHLET_T_END = 0.05

# seeded numeric-residual bindings: (low, high) per parameter, inside each
# family's admissible region
NUMERIC_RANGES = {
    "seed-ode": {"alpha1": (0.5, 1.2), "alpha2": (0.8, 2.0)},
    "family-exp": {"alpha1": (0.5, 1.2), "alpha2": (0.8, 2.0),
                   "p": (0.01, 0.05), "lambda1": (0.1, 0.6),
                   "lambda2": (0.1, 0.3)},
    "family-trig": {"alpha1": (-1.2, -0.8), "alpha2": (-3.5, -2.5),
                    "p": (0.02, 0.06), "lambda1": (0.5, 1.0),
                    "lambda2": (0.0, 0.4)},
    "steady-ratio": {"lambda1": (0.5, 1.5), "lambda2": (0.2, 0.8)},
    "reduced-a": {"lambda1": (1.5, 2.5), "lambda2": (-1.5, -0.5)},
    "reduced-b": {"alpha1": (0.2, 0.4), "lambda1": (2.5, 3.5),
                  "lambda2": (-1.5, -0.5)},
    "reduced-c": {"alpha1": (0.3, 0.5), "alpha2": (0.3, 0.6),
                  "lambda1": (1.5, 2.5), "lambda2": (-1.5, -0.5)},
}
NUMERIC_POINTS = 20
NUMERIC_TOL = 1e-10


def _draw(rng, ranges):
    return {k: rng.uniform(lo, hi) for k, (lo, hi) in ranges.items()}


def _zero_word(e):
    return "0" if e.is_zero else "NONZERO"


def _validation_report(rep):
    lines = [f"{r.table},{r.case_id},{r.operator},{r.invariant},"
             f"{r.witness_count},{';'.join(r.assumptions)}" for r in rep.rows]
    lines += [f"note {key}: {note}" for key, note in rep.notes]
    return "\n".join(lines)


def _cli(sk, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sk.cli.main(list(argv))
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# catalog: every entry validated, plus the sign-mutation control

def catalog_setup(sk, seed, record=False):
    cat = sk.catalog.Catalog.load()

    def entry(key):
        rep = cat.validate_all(keys=[key])
        return rep.ok, _validation_report(rep)

    def mutated():
        rep = cat.validate_all(keys=[(2, 4)], mutate={(2, 4): {"c1": "1"}})
        return not rep.ok, _validation_report(rep)

    verdicts = [(f"entry-{t}-{c}", lambda key=(t, c): entry(key))
                for (t, c) in sorted(cat.entries)]
    verdicts.append(("mutated-2-4-c1", mutated))
    return verdicts


# ---------------------------------------------------------------------------
# determining: CLI splits (each pays Catalog.load) and the full (3,6) split

def determining_setup(sk, seed, record=False):
    cat = sk.catalog.Catalog.load()
    system_36 = cat.entry(3, 6).system
    draw = (list(DETERMINING_POOL) if record else
            random.Random(seed).sample(DETERMINING_POOL, DETERMINING_DRAWS))

    def cli_split(argv, count):
        code, text = _cli(sk, argv)
        return code == 0 and text.startswith(
            f"determining equations ({count + 1}):"), text

    def full_36():
        ds = sk.invariance.generate_determining(system_36, full_deps=True)
        eqs = sorted((sk.expr.render(e) for e in ds.equations),
                     key=lambda s: (len(s), s))
        ok = len(ds.equations) == 52 and len(ds.raw_split) == 60
        return ok, "\n".join([f"equations {len(eqs)} raw {len(ds.raw_split)}"]
                             + eqs)

    verdicts = [("cli-generic",
                 lambda: cli_split(["determining", "--generic"], 16))]
    for (t, c) in draw:
        # table 2 entries split into 14 equations, the rest of the pool 16
        count = 14 if t == 2 else 16
        verdicts.append((f"cli-{t}-{c}", lambda t=t, c=c, n=count: cli_split(
            ["determining", "--table", str(t), "--case", str(c)], n)))
    verdicts.append(("full-split-3-6", full_36))
    return verdicts


# ---------------------------------------------------------------------------
# solutions: residuals, numeric oracle, orbits, flux, reduction, and the
# wrong-system negative control

def solutions_setup(sk, seed, record=False):
    # no catalog load: none of the CLI's solution commands loads the catalog
    so, ex = sk.solutions, sk.expr
    rng = random.Random(seed)
    numeric = {fid: _draw(rng, r) for fid, r in NUMERIC_RANGES.items()}
    orbit = _draw(rng, {"alpha1": (0.3, 1.2), "alpha2": (0.5, 2.0),
                        "lambda1": (0.1, 1.0), "lambda2": (0.1, 1.0),
                        "p1": (0.005, 0.05), "p2": (0.005, 0.05)})
    state = {}

    def symbolic(fid, **kw):
        fam = so.builtin_family(fid, **kw)
        r1, r2 = so.residual(fam.system(), fam)
        return r1.is_zero and r2.is_zero, f"{_zero_word(r1)} {_zero_word(r2)}"

    def steady(fid, sid):
        # one verdict per family and system: the family with its function
        # slot filled by each element of the test basis
        checks = [symbolic(fid, system_id=sid, func=func)
                  for func in so.STEADY_TEST_BASIS]
        return all(ok for ok, _ in checks), "\n".join(r for _, r in checks)

    def numeric_residual(fid):
        fam = so.builtin_family(fid)
        worst, n = so.residual_numeric(fam.system(), fam, numeric[fid],
                                       points=NUMERIC_POINTS, seed=seed)
        ok = worst < NUMERIC_TOL and n == NUMERIC_POINTS
        return ok, f"{'below' if ok else 'ABOVE'} {NUMERIC_TOL:g} over {n} points"

    def orbit_identity():
        seed_fam = so.builtin_family("seed-ode")
        orb = so.group_orbit(seed_fam, ex.parameter("p"), generator="X1")
        fam = so.builtin_family("family-exp")
        ok = orb.u_expr == fam.u_expr and orb.v_expr == fam.v_expr
        return ok, f"orbit of seed-ode under X1 equals family-exp: {ok}"

    def orbit_composition():
        o = orbit
        seed_fam = so.builtin_family("seed-ode")
        once = so.group_orbit(seed_fam, o["p1"] + o["p2"], o["lambda1"],
                              o["lambda2"], generator="X1")
        twice = so.group_orbit(
            so.group_orbit(seed_fam, o["p1"], o["lambda1"], o["lambda2"],
                           generator="X1"),
            o["p2"], o["lambda1"], o["lambda2"], generator="X1")
        at = {"alpha1": o["alpha1"], "alpha2": o["alpha2"],
              ex.T: 0.4, ex.X: 0.9}
        worst = max(abs(ex.eval_numeric(a, at) - ex.eval_numeric(b, at))
                    for a, b in ((once.u_expr, twice.u_expr),
                                 (once.v_expr, twice.v_expr)))
        ok = worst < NUMERIC_TOL
        return ok, f"orbit composition additive within {NUMERIC_TOL:g}: {ok}"

    def flux(x1, expect):
        trig = so.builtin_family("family-trig").subs({ex.parameter("lambda2"): 0})
        rep = so.flux_check(trig, 0, x1)
        lines = [f"x = {ex.render(pt)}: u_x = {ex.render(ux)}, v_x = {ex.render(vx)}"
                 for pt, ux, vx in rep.endpoint_values]
        return rep.passed == expect, "\n".join(lines + [f"passed: {rep.passed}"])

    def reduce():
        op = sk.jet.VectorField.make(
            "0", "1", "(lambda1*cos(x)+lambda2*sin(x))/(u-v)",
            "-(lambda1*cos(x)+lambda2*sin(x))/(u-v)")
        red = so.reduce_ansatz(so.target_system(so.PLUS), op)
        state["ansatz"] = red
        lines = [ex.render(e) for e in red.reduced + red.integrated]
        return len(red.reduced) == 2, "\n".join(lines)

    def branch(name):
        f1, f2 = so.reduction_solutions()[name]
        ok = so.check_reduction(state["ansatz"], f1, f2)
        return ok, f"{name} satisfies the reduced ODEs: {ok}"

    def wrong_system():
        fam = so.builtin_family("family-exp")
        r1, r2 = so.residual(so.target_system(so.PLUS), fam)
        return not (r1.is_zero and r2.is_zero), f"{_zero_word(r1)} {_zero_word(r2)}"

    verdicts = [(f"residual-{fid}", lambda fid=fid: symbolic(fid))
                for fid in so.BUILTIN_IDS]
    verdicts += [(f"steady-{sid}-{fid}", lambda fid=fid, sid=sid: steady(fid, sid))
                 for sid in (so.MINUS, so.PLUS)
                 for fid in ("steady-ratio", "steady-upper", "steady-lower")]
    verdicts += [(f"numeric-{fid}", lambda fid=fid: numeric_residual(fid))
                 for fid in NUMERIC_RANGES]
    verdicts += [("orbit-identity", orbit_identity),
                 ("orbit-composition", orbit_composition),
                 ("flux-full", lambda: flux(sp.pi, True)),
                 ("flux-half", lambda: flux(sp.pi / 2, False)),
                 ("reduce", reduce)]
    verdicts += [(f"reduction-{name}", lambda name=name: branch(name))
                 for name in ("reduced-a", "reduced-b", "reduced-c")]
    verdicts.append(("wrong-system", wrong_system))
    return verdicts


# ---------------------------------------------------------------------------
# simulate: convergence ladders for both boundary kinds, the first-order
# control, and the 1000-step mass-conservation run

def simulate_setup(sk, seed, record=False):
    sim, so = sk.simulator, sk.solutions
    cat = sk.catalog.Catalog.load()
    system_37 = cat.entry(3, 7).system
    plus = so.target_system(so.PLUS)
    grid = sim.Grid1D(0.0, math.pi, 64)
    xs = grid.centers()
    u0 = 1.0 + 0.3 * np.cos(xs)
    v0 = 1.2 + 0.2 * np.cos(2 * xs)

    def ladder(sizes, t_end, order, **kw):
        trig = so.builtin_family("family-trig")
        res = sim.convergence_study(plus, trig, list(sizes), t_end,
                                    bindings=LADDER_BINDINGS, **kw)
        ok = all(abs(o - order) <= 0.2 for o in res.orders)
        return ok, " ".join(f"{o:.4f}" for o in res.orders)

    def mass():
        c = sim._numeric_params(system_37)
        dt = 0.2 * grid.h ** 2 / sim.max_diffusivity(c, u0, v0)
        traj = sim.run(system_37, grid, (u0, v0), sim.BCSpec(sim.ZERO_NEUMANN),
                       sim.SolverConfig(t_end=1000 * dt, cfl_factor=0.2,
                                        output_stride=1000))
        (m0u, m0v), (m1u, m1v) = traj.mass(0), traj.mass(-1)
        drift = max(abs(m1u - m0u) / abs(m0u), abs(m1v - m0v) / abs(m0v))
        ok = traj.steps >= 1000 and not traj.aborted and drift < 1e-8
        return ok, f"steps {traj.steps} aborted {traj.aborted} drift below 1e-8: {drift < 1e-8}"

    return [
        ("neumann-ladder", lambda: ladder(NEUMANN_SIZES, LADDER_T_END, 2.0)),
        ("dirichlet-ladder", lambda: ladder(
            DIRICHLET_SIZES, DIRICHLET_T_END, 2.0,
            bc_kind=sim.EXACT_DIRICHLET)),
        ("first-order-control", lambda: ladder(
            FIRST_ORDER_SIZES, LADDER_T_END, 1.0, first_order=True)),
        ("mass-3-7", mass),
    ]


WORKLOADS = {
    "catalog": catalog_setup,
    "determining": determining_setup,
    "solutions": solutions_setup,
    "simulate": simulate_setup,
}
