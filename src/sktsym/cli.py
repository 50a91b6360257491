"""Command-line front end: catalog validation, determining-equation
generation, invariance and commutator checks, solution verification, group
orbits, symmetry reduction, flux checks, and finite-difference simulation.

Each subcommand returns `(ok, lines)`; `main` writes the lines to stdout or
`--output` and maps `ok` to the exit code.

Exit codes: 0 all verdicts pass, 1 verification failure, 2 usage error,
3 file not found.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys

import sympy as sp

from . import expr as ex
from . import invariance as inv
from . import simulator as sim
from . import solutions as so
from .catalog import Catalog, CatalogError
from .jet import VectorField

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NOFILE = 3


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# helpers

def _parameter_name(name):
    """The stripped name, when it names a parameter: t, x and the jet names
    are variables, and binding one is a usage error."""
    name = name.strip()
    try:
        ex.parameter(name)
    except ex.ExprError:
        raise UsageError(f"binding names a variable, not a parameter: {name!r}")
    return name


# names an argv value may use besides the grammar's own; oo and nan are
# known so that they are refused as not finite rather than as unknown
_ARGV_CONSTANTS = {"pi": sp.pi, "oo": sp.oo, "nan": sp.nan}


def _argv_value(text, what):
    """A value given on the command line, read by the toolkit grammar with
    _ARGV_CONSTANTS and never evaluated as Python; a decimal is its exact
    rational.  A value outside the grammar or not finite is a usage error,
    and `what` names it in the message."""
    try:
        val = ex.parse_sym(text, _ARGV_CONSTANTS)
    except ex.ParseError:
        raise UsageError(f"cannot parse {what}")
    if val.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
        raise UsageError(f"{what} is not finite")
    return val


def _parse_bindings(pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise UsageError(f"--bind expects k=v, got {item!r}")
        k, _, v = item.partition("=")
        k = _parameter_name(k)
        out[k] = _argv_value(v, f"binding value {v!r}")
    return out


def _float_bindings(bindings):
    out = {}
    for k, v in bindings.items():
        try:
            out[k] = float(v)
        except TypeError:
            raise UsageError(f"binding {k} = {v} must be numeric here")
    return out


def _sizes(text):
    """argparse type of --sizes: two or more comma-separated grid sizes."""
    try:
        sizes = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")
    if len(sizes) < 2:
        raise argparse.ArgumentTypeError("needs at least two grid sizes")
    return sizes


def _verdict(ok):
    return f"verdict: {'pass' if ok else 'FAIL'}"


def _family(args, path=None):
    try:
        if path:
            with open(path) as fh:
                return so.parse_solution_file(fh.read())
        return so.builtin_family(args.family, branch=args.branch,
                                 system_id=args.system)
    except so.SolutionError as exc:
        raise UsageError(str(exc))


def _entry(cat, args):
    if args.table is None or args.case is None:
        raise UsageError("--table and --case are required")
    try:
        return cat.entry(args.table, args.case)
    except CatalogError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# subcommands: each returns (ok, report lines)

def _cmd_validate(args):
    cat = Catalog.load(args.catalog)
    keys = None
    if not args.all:
        if args.table is None:
            raise UsageError("validate needs --all or --table [--case]")
        keys = [(t, c) for (t, c) in sorted(cat.entries)
                if t == args.table and (args.case is None or c == args.case)]
        if not keys:
            raise UsageError(f"no catalog entries match table {args.table}")
    rep = cat.validate_all(keys=keys)
    rows = sorted(rep.rows, key=lambda r: (r.table, r.case_id, r.operator))
    if args.format == "csv":
        lines = ["table,case,operator,invariant,witnesses"]
        lines += [f"{r.table},{r.case_id},{r.operator},"
                  f"{str(r.invariant).lower()},{r.witness_count}" for r in rows]
    else:
        lines = [f"command: validate {'--all' if args.all else ''}".rstrip()]
        for r in rows:
            verdict = "pass" if r.invariant else "FAIL"
            lines.append(f"table {r.table} case {r.case_id:>2}  "
                         f"{r.operator:<10} {verdict}")
        for note in rep.notes:
            lines.append(f"note: {note}")
        n_ent = len({(r.table, r.case_id) for r in rows})
        lines.append(f"entries: {n_ent}  checks: {len(rows)}  "
                     f"verdict: {'pass' if rep.ok else 'FAIL'}")
    return rep.ok, lines


def _cmd_determining(args):
    if args.generic:
        system = inv.SKTSystem.generic()
    else:
        cat = Catalog.load(args.catalog)
        system = _entry(cat, args).system
    ds = inv.generate_determining(system, full_deps=False)
    deps = ("Derivative(xi0(t,x,u,v), x) = Derivative(xi0(t,x,u,v), u) = "
            "Derivative(xi0(t,x,u,v), v) = Derivative(xi1(t,x,u,v), u) = "
            "Derivative(xi1(t,x,u,v), v) = 0")
    eqs = sorted((ex.render(e) for e in ds.equations), key=lambda s: (len(s), s))
    lines = [f"determining equations ({len(eqs) + 1}):", f"  (1) {deps}"]
    lines += [f"  ({i + 2}) {s} = 0" for i, s in enumerate(eqs)]
    return True, lines


def _cmd_check(args):
    cat = Catalog.load(args.catalog)
    entry = _entry(cat, args)
    names = [args.operator] if args.operator else list(entry.operators)
    lines = []
    ok = True
    for name in names:
        if name not in entry.operators:
            raise UsageError(f"operator {name} not listed for this entry")
        verdict = inv.check_invariance(entry.system, cat.operator(name))
        ok = ok and verdict.invariant
        lines.append(f"{name:<10} {'pass' if verdict.invariant else 'FAIL'}"
                     + (f"  witnesses: {len(verdict.witnesses)}"
                        if not verdict.invariant else ""))
    lines.append(_verdict(ok))
    return ok, lines


def _cmd_commutators(args):
    cat = Catalog.load(args.catalog)
    entry = _entry(cat, args)
    ops = [cat.operator(n) for n in entry.operators]
    rep = inv.closure_check(ops)
    lines = [f"algebra: {', '.join(entry.operators)}  "
             f"(dimension {len(ops)})"]
    for (i, j), coeffs in sorted(rep.constants.items()):
        terms = [f"{sp.sstr(c)}*{entry.operators[k]}"
                 for k, c in enumerate(coeffs) if c != 0]
        rhs = " + ".join(terms) if terms else "0"
        lines.append(f"[{entry.operators[i]}, {entry.operators[j]}] = {rhs}")
    for f in rep.failures:
        lines.append(f"not in span: {f}")
    lines.append(f"closes: {'yes' if rep.closes else 'NO'}")
    return rep.closes, lines


def _cmd_verify_solution(args):
    sol = _family(args, args.file)
    system = sol.system()
    r1, r2 = so.residual(system, sol)
    symbolic_ok = r1.is_zero and r2.is_zero
    bindings = _parse_bindings(args.bind)
    max_res = 0.0
    numeric_note = "skipped (no bindings)"
    numeric_ok = True
    if bindings:
        max_res, npts = so.residual_numeric(
            system, sol, _float_bindings(bindings),
            points=args.points, seed=args.seed)
        numeric_note = f"max |residual| {max_res:.3e} over {npts} points"
        numeric_ok = max_res < args.tol
    ok = symbolic_ok and numeric_ok
    if args.format == "csv":
        row = (sol.name, sol.system_id, max_res,
               args.points if bindings else 0, "pass" if ok else "FAIL")
        return ok, so.verification_csv([row]).rstrip("\n").split("\n")
    return ok, [f"family: {sol.name}  system: {sol.system_id}  "
                f"branch: {sol.branch}",
                f"symbolic residual: {'0' if symbolic_ok else 'NONZERO'}",
                f"numeric check: {numeric_note}",
                _verdict(ok)]


def _cmd_orbit(args):
    sol = _family(args)
    bindings = _parse_bindings(args.bind)
    p = bindings.get("p", ex.parameter("p"))
    try:
        orb = so.group_orbit(sol, p, bindings.get("lambda1"),
                             bindings.get("lambda2"), generator=args.generator)
    except so.SolutionError as exc:
        raise UsageError(str(exc))
    r1, r2 = so.residual(orb.system(), orb)
    ok = r1.is_zero and r2.is_zero
    return ok, [f"orbit of {sol.name} under {args.generator}:",
                f"u = {ex.render(orb.u_expr)}",
                f"v = {ex.render(orb.v_expr)}",
                f"residual on {orb.system_id}: {'0' if ok else 'NONZERO'}",
                _verdict(ok)]


def _cmd_reduce(args):
    system = so.target_system(args.system or so.PLUS)
    Xf = VectorField.make(
        "0", "1",
        "(lambda1*cos(x)+lambda2*sin(x))/(u-v)",
        "-(lambda1*cos(x)+lambda2*sin(x))/(u-v)", name="reduction-op")
    try:
        red = so.reduce_ansatz(system, Xf)
    except so.SolutionError as exc:
        raise UsageError(str(exc))
    lines = [f"ansatz u = {ex.render(red.ansatz_u)}",
             f"ansatz v = {ex.render(red.ansatz_v)}",
             "reduced ODE system:"]
    lines += [f"  {ex.render(o)} = 0" for o in red.reduced]
    lines.append("integrated form (beta = first integral constant):")
    lines += [f"  {ex.render(i)} = 0" for i in red.integrated]
    ok = True
    for name, (f1, f2) in sorted(so.reduction_solutions().items()):
        good = so.check_reduction(red, f1, f2)
        ok = ok and good
        lines.append(f"branch {name}: phi1 = {sp.sstr(f1)}, "
                     f"phi2 = {sp.sstr(sp.simplify(f2))} -> "
                     f"{'satisfies ODEs' if good else 'FAILS'}")
    lines.append(_verdict(ok))
    return ok, lines


def _cmd_flux_check(args):
    sol = _family(args)
    bindings = _parse_bindings(args.bind)
    if bindings:
        sol = sol.subs(bindings)
    x0, x1 = (_argv_value(x, "--x0/--x1") for x in (args.x0, args.x1))
    rep = so.flux_check(sol, x0, x1)
    lines = [f"flux check for {sol.name} on ({sp.sstr(x0)}, {sp.sstr(x1)}):"]
    for (pt, ux, vx) in rep.endpoint_values:
        lines.append(f"  x = {ex.render(pt)}: u_x = {ex.render(ux)}, "
                     f"v_x = {ex.render(vx)}")
    lines.append(_verdict(rep.passed))
    return rep.passed, lines


def _relative_drift(m0, m1):
    """|m1 - m0| / |m0|; inf when a zero mass moved, 0 when it stayed."""
    d = abs(m1 - m0)
    return d / abs(m0) if m0 else (math.inf if d else 0.0)


def _cmd_simulate(args):
    """The trajectory as CSV, and one stderr line on how the run went: the
    step count, the smallest and largest step, the largest diffusivity over
    the kept states and the larger relative mass drift of u and v between
    the first and last kept state; or the abort reason."""
    cp = configparser.ConfigParser()
    with open(args.config) as fh:
        cp.read_file(fh)
    if "simulate" not in cp:
        raise UsageError("config file needs a [simulate] section")
    sec = cp["simulate"]
    try:
        grid = sim.Grid1D(sec.getfloat("grid.x0", 0.0),
                          sec.getfloat("grid.x1", math.pi),
                          sec.getint("grid.n", 64))
        t_end = sec.getfloat("t_end")
        cfl = sec.getfloat("cfl", 0.2)
        bc_kind = sec.get("bc", sim.ZERO_NEUMANN)
        init = sec.get("init")
        if t_end is None or init is None:
            raise UsageError("[simulate] needs t_end and init")
        bindings = {_parameter_name(k.split(".", 1)[1]): float(v)
                    for k, v in sec.items() if k.startswith("bind.")}
        config = sim.SolverConfig(t_end=t_end, cfl_factor=cfl,
                                  output_stride=sec.getint("output_stride", 1))
        sol = so.builtin_family(init)
        system = (so.target_system(sec["system"]) if sec.get("system")
                  else sol.system())
        bc = sim.BCSpec(bc_kind, family=sol, bindings=bindings)
    except (ValueError, TypeError, sim.SimulatorError, so.SolutionError) as exc:
        raise UsageError(f"bad [simulate] config: {exc}")
    eval_u, eval_v = bc.fields
    xs = grid.centers()
    traj = sim.run(system, grid, (eval_u(0.0, xs), eval_v(0.0, xs)), bc,
                   config, bindings=bindings)
    if traj.aborted:
        sys.stderr.write(f"aborted: {traj.abort_reason}\n")
    else:
        dts = (f", dt min {traj.dt_min:.6g} max {traj.dt_max:.6g}"
               if traj.steps else "")
        c = sim._numeric_params(system, bindings)
        dmax = max(sim.max_diffusivity(c, st.u, st.v) for st in traj.states)
        drift = max(_relative_drift(m0, m1)
                    for m0, m1 in zip(traj.mass(0), traj.mass()))
        sys.stderr.write(f"{traj.steps} steps{dts}, max diffusivity "
                         f"{dmax:.6g}, mass drift {drift:.6g}\n")
    return not traj.aborted, traj.to_csv().rstrip("\n").split("\n")


def _cmd_convergence(args):
    sol = _family(args)
    bindings = _float_bindings(_parse_bindings(args.bind))
    try:
        res = sim.convergence_study(sol.system(), sol, args.sizes, args.t_end,
                                    bindings=bindings,
                                    first_order=args.first_order)
    except (sim.SimulatorError, ex.GuardViolation) as exc:
        raise UsageError(str(exc))
    expected = 1.0 if args.first_order else 2.0
    ok = all(abs(o - expected) <= 0.2 for o in res.orders)
    if args.format == "csv":
        lines = ["n,error,order"]
        for i, n in enumerate(res.sizes):
            o = f"{res.orders[i - 1]:.4f}" if i else ""
            lines.append(f"{n},{res.errors[i]:.6e},{o}")
        lines.append(f"verdict,{'pass' if ok else 'FAIL'},")
    else:
        lines = [f"convergence of {sol.name} on {sol.system_id} "
                 f"(expected order {expected:g}):"]
        for i, n in enumerate(res.sizes):
            tail = f"  order {res.orders[i - 1]:.4f}" if i else ""
            lines.append(f"  n = {n:>5}: error {res.errors[i]:.6e}{tail}")
        lines.append(_verdict(ok))
    return ok, lines


def _cmd_catalog(args):
    cat = Catalog.load(args.catalog)
    if args.action == "list":
        csv = args.format == "csv"
        lines = ["table,case,operators,substitutions"] if csv else []
        for (t, c) in sorted(cat.entries):
            e = cat.entry(t, c)
            if csv:
                lines.append(f"{t},{c},{'|'.join(e.operators)},"
                             f"{'|'.join(e.substitutions)}")
            else:
                lines.append(f"table {t} case {c:>2}: "
                             f"{', '.join(e.operators)}")
        return True, lines
    entry = _entry(cat, args)
    lines = [f"table {entry.table} case {entry.case_id}", "parameters:"]
    for k, v in sorted(entry.system.params().items()):
        lines.append(f"  {k} = {ex.render(v)}")
    if entry.restrictions:
        lines.append("restrictions (each must be nonzero): "
                     + ", ".join(ex.render(r) for r in entry.restrictions))
    lines.append("operators:")
    for name in entry.operators:
        op = cat.operator(name)
        lines.append(f"  {name}: xi0 = {ex.render(op.xi0)}, "
                     f"xi1 = {ex.render(op.xi1)}, "
                     f"eta1 = {ex.render(op.eta1)}, "
                     f"eta2 = {ex.render(op.eta2)}")
    if entry.substitutions:
        lines.append("substitutions: " + ", ".join(entry.substitutions))
    return True, lines


# ---------------------------------------------------------------------------
# parser

def _parent(*options):
    """A parent parser holding the given (flag, keyword arguments) options."""
    p = argparse.ArgumentParser(add_help=False)
    for flag, kw in options:
        p.add_argument(flag, **kw)
    return p


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="sktsym",
        description="Symmetry analysis and verification toolkit for a "
                    "two-species cross-diffusion system")
    sub = ap.add_subparsers(dest="command", required=True)

    output = _parent(("--output", dict(help="write the report to this path")))
    fmt = _parent(("--format", dict(choices=("text", "csv"), default="text")))
    catalog = _parent(("--catalog", dict(
        help="catalog file (default: packaged data or SYMKIT_CATALOG)")))
    family = _parent(
        ("--family", dict(required=True)),
        ("--system", {}),
        ("--branch", dict(choices=("upper", "lower"), default="upper")),
        ("--bind", dict(action="append", metavar="k=v")))
    entry, entry_required = (
        _parent(("--table", dict(type=int, required=required)),
                ("--case", dict(type=int, required=required)))
        for required in (False, True))

    flag = dict(action="store_true")
    commands = (
        ("validate", _cmd_validate, "check catalog entries for invariance",
         (entry, fmt, catalog), [("--all", flag)]),
        ("determining", _cmd_determining,
         "generate the determining-equation system", (entry, catalog),
         [("--generic", dict(flag, help="use fully symbolic coefficients"))]),
        ("check", _cmd_check, "check one entry (optionally one operator)",
         (entry_required, catalog), [("--operator", {})]),
        ("commutators", _cmd_commutators,
         "commutator table and closure for an entry",
         (entry_required, catalog), []),
        ("verify-solution", _cmd_verify_solution,
         "residual check for a solution family", (family, fmt),
         [("--file", dict(help="load the family from a solution file")),
          ("--points", dict(type=int, default=20)),
          ("--tol", dict(type=float, default=1e-10)),
          ("--seed", dict(type=int, default=0))]),
        ("orbit", _cmd_orbit, "one-parameter group action on a family",
         (family,), [("--generator", dict(choices=("X1", "X2"),
                                          default="X1"))]),
        ("reduce", _cmd_reduce, "symmetry reduction to an ODE system in time",
         (), [("--system", {})]),
        ("flux-check", _cmd_flux_check,
         "zero-gradient check at interval endpoints", (family,),
         [("--x0", dict(default="0")), ("--x1", dict(default="pi"))]),
        ("simulate", _cmd_simulate, "finite-difference run from a config",
         (), [("--config", dict(required=True))]),
        ("convergence", _cmd_convergence, "grid-refinement error ladder",
         (family, fmt),
         [("--sizes", dict(type=_sizes, default="64,128,256")),
          ("--t-end", dict(type=float, default=0.2)),
          ("--first-order", dict(
              flag, help="use the deliberately first-order stencil"))]),
        ("catalog", _cmd_catalog, "list or show catalog entries",
         (entry, fmt, catalog), [("action", dict(choices=("list", "show")))]),
    )
    for name, fn, help, parents, options in commands:
        p = sub.add_parser(name, help=help,
                           parents=[output, *parents, _parent(*options)])
        p.set_defaults(fn=fn)
    return ap


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        ok, lines = args.fn(args)
        text = "\n".join(lines) + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK if ok else EXIT_FAIL
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: file not found: {exc.filename}\n")
        return EXIT_NOFILE
    except (ex.ExprError, inv.TransformError, CatalogError,
            so.SolutionError, sim.SimulatorError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
