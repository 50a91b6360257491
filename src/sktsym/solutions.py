"""Closed-form solution families of the two cross-diffusion systems
u_t = [uv]_xx -/+ uv, v_t = [uv]_xx -/+ uv: residual verification (symbolic
and numeric), finite group actions on solutions, symmetry reduction, flux
checks and the logistic change of variables."""

from __future__ import annotations

import csv
import functools
import io
import random
from dataclasses import dataclass, replace

import mpmath
import sympy as sp

from . import expr as ex
from . import jet
from .expr import Expression, T, U, V, X
from .invariance import SKTSystem, _linear_expand, _scale_free_key


class SolutionError(ex.ExprError):
    pass


UPPER, LOWER = "upper", "lower"

# system ids for which the two equations coincide under (u, v) -> (v, u)
MINUS, PLUS = "3-1", "3-2"


def target_system(system_id):
    """The concrete system a family solves."""
    if system_id == MINUS:     # u_t = [uv]_xx - uv (both equations)
        return SKTSystem.make(d12=1, d21=1, c1=1, b2=1)
    if system_id == PLUS:      # u_t = [uv]_xx + uv
        return SKTSystem.make(d12=1, d21=1, c1=-1, b2=-1)
    raise SolutionError(f"unknown system id {system_id!r}")


def logistic_system(source_id, a, b, d1, d2):
    """The image of the system `source_id` under the logistic change of
    variables: u*_t = d1 [u*v*]_xx + u*(a b + b1 v*) with b1 = -/+ b d1 (and
    the v*-equation with d2, b2 = -/+ b d2)."""
    sign = -1 if source_id == MINUS else 1
    a, b, d1, d2 = [ex.as_sym(z) for z in (a, b, d1, d2)]
    return SKTSystem.make(d12=d1, d21=d2, a1=a * b, a2=a * b,
                          c1=-sign * b * d1, b2=-sign * b * d2)


@dataclass(frozen=True)
class Constraint:
    """Domain constraint: `kind` is "nonzero" (|expr| bounded away from 0)
    or "nonneg" (expr bounded away from below 0)."""
    kind: str
    expr: Expression

    @classmethod
    def parse(cls, text):
        kind, _, rest = text.strip().partition(" ")
        if kind not in ("nonzero", "nonneg"):
            raise SolutionError(f"unknown constraint kind {kind!r}")
        return cls(kind, ex.parse(rest))

    def holds(self, bindings):
        """Whether |expr| >= 0.1 (nonzero) or expr >= 0.01 (nonneg)."""
        val = ex.eval_numeric(self.expr, bindings)
        return abs(val) >= 0.1 if self.kind == "nonzero" else val >= 0.01


@dataclass(frozen=True)
class SolutionFamily:
    name: str
    system_id: str
    u_expr: Expression
    v_expr: Expression
    branch: str = UPPER
    constraints: tuple = ()

    def __post_init__(self):
        if self.branch not in (UPPER, LOWER):
            raise SolutionError(f"branch must be upper or lower, got {self.branch!r}")
        found = [e.sym.free_symbols for e in (self.u_expr, self.v_expr)]
        bad = [j for j in ex.ALL_JET_SYMBOLS for f in found if j in f]
        if bad:
            raise SolutionError(f"solution expressions contain jet variables: {bad}")

    def swap_branch(self):
        return replace(self, u_expr=self.v_expr, v_expr=self.u_expr,
                       branch=LOWER if self.branch == UPPER else UPPER)

    def subs(self, bindings):
        return replace(
            self,
            u_expr=ex.substitute(self.u_expr, bindings),
            v_expr=ex.substitute(self.v_expr, bindings),
            constraints=tuple(Constraint(c.kind, ex.substitute(c.expr, bindings))
                              for c in self.constraints))

    def system(self):
        return target_system(self.system_id)


# ---------------------------------------------------------------------------
# built-in families

_A1 = ex.parameter("alpha1")
_A2 = ex.parameter("alpha2")
_P = ex.parameter("p")
_L1 = ex.parameter("lambda1")
_L2 = ex.parameter("lambda2")

# test basis for the arbitrary-function slots of the steady-state families
STEADY_TEST_BASIS = ("1", "1+x^2", "2+sin(x)")

BUILTIN_IDS = ("seed-ode", "family-exp", "family-trig",
               "steady-ratio", "steady-upper", "steady-lower",
               "reduced-a", "reduced-b", "reduced-c")

# accepted aliases for the family ids (CLI shorthands)
_ALIASES = {
    "3-5": "seed-ode", "seed-3-5": "seed-ode",
    "3-6": "family-exp", "family-3-6": "family-exp",
    "3-7": "family-trig", "family-3-7": "family-trig",
    "3-13a": "steady-ratio", "steady-3-13a": "steady-ratio",
    "3-13b": "steady-upper", "steady-3-13b": "steady-upper",
    "3-13c": "steady-lower", "steady-3-13c": "steady-lower",
    "3-14a": "reduced-a", "reduced-3-14a": "reduced-a",
    "3-14b": "reduced-b", "reduced-3-14b": "reduced-b",
    "3-14c": "reduced-c", "reduced-3-14c": "reduced-c",
}


def _sqrt_pair(name, system_id, mean, radicand, branch, constraints):
    s = 1 if branch == UPPER else -1
    w = sp.sqrt(radicand.sym)
    u = ex.normalize(mean.sym + s * w / 2)
    v = ex.normalize(mean.sym - s * w / 2)
    cons = tuple(constraints) + (Constraint("nonneg", radicand),)
    return SolutionFamily(name=name, system_id=system_id, u_expr=u, v_expr=v,
                          branch=branch, constraints=cons)


def builtin_family(fid, branch=UPPER, system_id=None, func=None):
    """Return a built-in family by id, built once per process.

    `func` instantiates the arbitrary-function slot of the steady-state
    families (an expression in x; defaults to the first test-basis entry).
    `system_id` selects the target system for the steady families.

    A family is kept per resolved id (an alias shares its family's entry),
    branch, system_id and func, with func keyed as raw sympy plus its
    assumptions: a string and the equal Expression share an entry, and no
    lookup runs iszero, as Expression equality would.  A family is frozen,
    so every caller shares the one object.  An id or argument that does not
    give a family raises on every call."""
    g = None if func is None else ex.as_expression(func)
    return _build_family(_ALIASES.get(fid, fid), branch, system_id,
                         None if g is None else (g.sym, g.assumptions))


@functools.lru_cache(maxsize=128)
def _build_family(fid, branch, system_id, func):
    """builtin_family's family for a resolved id and func key."""
    a1, a2, p, l1, l2 = _A1, _A2, _P, _L1, _L2
    t, x = T, X
    if fid == "seed-ode":
        den = a2 + sp.exp(a1 * t)
        fam = SolutionFamily(
            name=fid, system_id=MINUS,
            u_expr=ex.normalize(a1 * sp.exp(a1 * t) / den),
            v_expr=ex.normalize(-a1 * a2 / den),
            branch=branch,
            constraints=(Constraint("nonzero", ex.normalize(den)),))
        return fam if branch == UPPER else fam.swap_branch()
    if fid == "family-exp":
        den = a2 + sp.exp(a1 * t)
        mean = ex.normalize((a1 * sp.exp(a1 * t) - a1 * a2) / (2 * den))
        rad = ex.normalize(a1 ** 2 + 4 * p * (l1 * sp.exp(x) + l2 * sp.exp(-x)))
        return _sqrt_pair(fid, MINUS, mean, rad, branch,
                          (Constraint("nonzero", ex.normalize(den)),))
    if fid == "family-trig":
        den = 1 - a2 * sp.exp(a1 * t)
        mean = ex.normalize((a1 + a1 * a2 * sp.exp(a1 * t)) / (2 * den))
        rad = ex.normalize(a1 ** 2 + 4 * p * (l1 * sp.cos(x) + l2 * sp.sin(x)))
        return _sqrt_pair(fid, PLUS, mean, rad, branch,
                          (Constraint("nonzero", ex.normalize(den)),))
    if fid in ("steady-ratio", "steady-upper", "steady-lower"):
        sid = system_id or MINUS
        if sid not in (MINUS, PLUS):
            raise SolutionError(f"steady families target {MINUS} or {PLUS}")
        g = (ex.as_expression(STEADY_TEST_BASIS[0]) if func is None
             else Expression(*func))
        if g.has(T) or ex.jets_in(g.sym):
            raise SolutionError("function slot must depend on x only")
        if fid == "steady-ratio":
            # u = f/g, v = g with f'' - f = 0 (minus system) or f'' + f = 0
            f = (l1 * sp.exp(x) + l2 * sp.exp(-x) if sid == MINUS
                 else l1 * sp.sin(x) + l2 * sp.cos(x))
            fam = SolutionFamily(
                name=fid, system_id=sid,
                u_expr=ex.normalize(f / g.sym), v_expr=g, branch=branch,
                constraints=(Constraint("nonzero", g),))
        elif fid == "steady-upper":
            fam = SolutionFamily(name=fid, system_id=sid, u_expr=g,
                                 v_expr=ex.normalize(0), branch=branch)
        else:
            fam = SolutionFamily(name=fid, system_id=sid,
                                 u_expr=ex.normalize(0), v_expr=g,
                                 branch=branch)
        return fam
    if fid in ("reduced-a", "reduced-b", "reduced-c"):
        S = l1 * sp.sin(x) - l2 * sp.cos(x)
        if fid == "reduced-a":
            mean, rad, cons = -1 / t, S, (Constraint("nonzero", ex.normalize(t)),)
        elif fid == "reduced-b":
            # tan is represented as sin/cos so the kernel sees only its atoms
            mean = a1 * sp.sin(a1 * t) / sp.cos(a1 * t)
            rad = S - a1 ** 2
            cons = (Constraint("nonzero", ex.normalize(sp.cos(a1 * t))),)
        else:
            den = 1 - a2 * sp.exp(2 * a1 * t)
            mean = a1 * (1 + a2 * sp.exp(2 * a1 * t)) / den
            rad = S + a1 ** 2
            cons = (Constraint("nonzero", ex.normalize(den)),)
        s = 1 if branch == UPPER else -1
        w = sp.sqrt(rad)
        return SolutionFamily(
            name=fid, system_id=PLUS,
            u_expr=ex.normalize(mean + s * w), v_expr=ex.normalize(mean - s * w),
            branch=branch,
            constraints=cons + (Constraint("nonneg", ex.normalize(rad)),))
    raise SolutionError(f"unknown family id {fid!r}")


# ---------------------------------------------------------------------------
# residuals

def _jet_bindings(sol):
    """Raw sympy values for the jet symbols along the family (normalization
    deferred to the final residual, which is much cheaper than normalizing
    each derivative separately).  Every jet is a first partial taken by
    jet._partial, u_xx as the x-partial of u_x: sympy simplifies a
    derivative of order 2 taken at once (factor_terms), which costs more
    than the derivative and which the zero test does not need.  The
    partials are kept per expression, so residual and residual_numeric of
    one family take them once."""
    u, v = sol.u_expr.sym, sol.v_expr.sym
    b = {U: u, V: v}
    for dep, e in ((1, u), (2, v)):
        e_x = jet._partial(e, X)
        b[ex.jet(dep, 1, 0)] = jet._partial(e, T)
        b[ex.jet(dep, 0, 1)] = e_x
        b[ex.jet(dep, 0, 2)] = jet._partial(e_x, X)
    return b


def residual(sys, sol):
    """Substitute the family into both evolution equations; returns the two
    residual Expressions.  Each is decided once by iszero: a vanishing
    residual comes back as 0, a nonzero one as the raw substituted
    expression, unnormalized.  Read only `.is_zero` from the result."""
    b = _jet_bindings(sol)
    assumptions = sol.u_expr.assumptions | sol.v_expr.assumptions
    raws = (sys.S_raw(k).xreplace(b) for k in (1, 2))
    return tuple(ex.Expression(0 if ex.iszero(s) else s, assumptions)
                 for s in raws)


def sample_points(sol, bindings, points=20, seed=0):
    """Quasi-random admissible (t, x) samples: every domain constraint must
    hold with margin and every kernel guard must pass."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    u, v = sol.u_expr.sym, sol.v_expr.sym
    probe = ex.normalize((u + v) * (u - v))
    while len(out) < points and attempts < 200 * points:
        attempts += 1
        pt = {**bindings, T: rng.uniform(0.1, 1.0), X: rng.uniform(0.1, 3.0)}
        try:
            if not all(c.holds(pt) for c in sol.constraints):
                continue
            ex.eval_numeric(probe, pt, guard=1e-6)
        except ex.ExprError:
            continue
        out.append(pt)
    if len(out) < points:
        raise SolutionError(
            f"could not find {points} admissible sample points "
            f"({len(out)} found)")
    return out


def residual_numeric(sys, sol, bindings, points=20, seed=0):
    """Max |residual| of both equations over admissible samples, from the
    raw, unnormalized residual compiled once by expr.compile_numeric and
    evaluated in mpmath at 30 digits: an independent oracle."""
    b = _jet_bindings(sol)
    raw = [ex.compile_numeric(sys.S_raw(k).xreplace(b)) for k in (1, 2)]
    pts = sample_points(sol, bindings, points=points, seed=seed)
    worst = 0.0
    with mpmath.workdps(30):
        for pt in pts:
            env = {k: mpmath.mpf(v) for k, v in pt.items()}
            for r in raw:
                try:
                    val = r(env)
                except ex.ExprError:
                    val = mpmath.nan
                if not mpmath.isfinite(val):
                    raise SolutionError(f"residual did not evaluate at {pt}")
                worst = max(worst, abs(float(val)))
    return worst, len(pts)


# ---------------------------------------------------------------------------
# finite group action

_GENERATOR_PROFILE = {
    # generator id -> the x-profile entering the radicand shift
    "X1": lambda l1, l2: l1 * sp.exp(X) + l2 * sp.exp(-X),
    "X2": lambda l1, l2: l1 * sp.cos(X) + l2 * sp.sin(X),
}


def group_orbit(sol, p, lam1=None, lam2=None, generator="X1"):
    """Finite action of the one-parameter group generated by
    lam1*Z_a + lam2*Z_b on a solution pair:
        u* = (u+v)/2 + (1/2) sqrt((u-v)^2 + 4 p profile(x)),
        v* = (u+v)/2 - (1/2) sqrt(...)
    (signs per branch).  p = 0 is the identity on both branches.  p, lam1
    and lam2 enter through normalize, so a float is its exact binary value:
    group_orbit(sol, 0.25, 0.5, 0.75) is the orbit at 1/4, 1/2 and 3/4, and
    no output holds a Float."""
    if generator not in _GENERATOR_PROFILE:
        raise SolutionError(f"unknown generator id {generator!r}")
    if (generator == "X1") != (sol.system_id == MINUS):
        raise SolutionError(
            f"generator {generator} does not act on system {sol.system_id}")
    lam1 = ex.as_expression(_L1 if lam1 is None else lam1)
    lam2 = ex.as_expression(_L2 if lam2 is None else lam2)
    p = ex.as_expression(p)
    profile = _GENERATOR_PROFILE[generator](lam1.sym, lam2.sym)
    u, v = sol.u_expr.sym, sol.v_expr.sym
    mean = ex.normalize((u + v) / 2)
    rad = ex.normalize((u - v) ** 2 + 4 * p.sym * profile)
    out = _sqrt_pair(f"{sol.name}*{generator}", sol.system_id, mean, rad,
                     sol.branch, sol.constraints)
    if p.is_zero:
        # identity: sqrt((u-v)^2) collapses along the branch sign
        s = 1 if sol.branch == UPPER else -1
        diff = ex.normalize(u - v)
        return replace(out,
                       u_expr=ex.normalize(mean.sym + s * diff.sym / 2),
                       v_expr=ex.normalize(mean.sym - s * diff.sym / 2))
    return out


# ---------------------------------------------------------------------------
# symmetry reduction

@dataclass(frozen=True)
class ReductionAnsatz:
    ansatz_u: Expression       # in t, x, w-slot via sqrt, phi1, phi2
    ansatz_v: Expression
    reduced: tuple             # ODEs in phi1(t), phi2(t), = 0 each
    integrated: tuple          # equivalent integrated form with constant beta
    profile: Expression        # the x-profile of the operator coefficient


PHI1 = sp.Function("phi1")(T)
PHI2 = sp.Function("phi2")(T)


def _operator_profile(Xf):
    """Read (l1, l2) from an operator xi1 = const, eta1 = F(x)/(u-v),
    eta2 = -eta1 with F = l1 cos x + l2 sin x, through the linear layer
    (_linear_expand)."""
    c = Xf.xi1.sym
    if (not Xf.xi0.is_zero or not ex.iszero(Xf.eta1.sym + Xf.eta2.sym)
            or c.has(T, X, U, V) or c == 0):
        raise SolutionError("operator outside the supported reduction family")
    F = ex.normalize(Xf.eta1.sym * (U - V) / c)
    try:
        profile = _linear_expand([F], [[sp.cos(X)], [sp.sin(X)]])
    except ex.NotPolynomialError:
        profile = None
    if profile is None:
        raise SolutionError("operator outside the supported reduction family")
    return profile


def reduce_ansatz(sys, Xf):
    """Reduce u_t = [uv]_xx + uv under a combined translation/nonlinear
    operator.  The invariant ansatz is
        u, v = (phi1 +/- sqrt(phi1^2 + 4 phi2 + 4 (l1 sin x - l2 cos x))) / 2,
    and the reduction returns the two ODEs {phi1' + 2 phi2, phi1 phi1' + 2 phi2'}
    plus the integrated form {phi2 + phi1'/2, phi1' - phi1^2/2 - beta}.  The
    ODEs are the parts of the residual numerators even and odd in the
    radical, deduplicated up to a factor that depends only on the parameters
    (_scale_free_key); each class keeps the primitive part of its first
    member."""
    if not sys.equals(target_system(PLUS)):
        raise SolutionError("reduction implemented for u_t = [uv]_xx + uv only")
    l1, l2 = _operator_profile(Xf)
    G = l1 * sp.sin(X) - l2 * sp.cos(X)      # antiderivative of the profile
    Rrad = PHI1 ** 2 + 4 * PHI2 + 4 * G
    w = sp.Dummy("w")

    def d(e, var):
        # total derivative treating w = sqrt(Rrad)
        return sp.diff(e, var) + sp.diff(e, w) * sp.diff(Rrad, var) / (2 * w)

    u = (PHI1 + w) / 2
    v = (PHI1 - w) / 2
    resids = []
    for main, other in ((u, v), (v, u)):
        uv = sp.expand(main * other)
        rhs = d(d(uv, X), X) + uv
        resids.append(sp.expand(d(main, T) - rhs))
    classes = {}
    for r in resids:
        n, _ = sp.fraction(ex._together(r))
        poly = sp.Poly(sp.expand(n), w)
        parts = {0: sp.Integer(0), 1: sp.Integer(0)}
        for (k,), coeff in poly.terms():
            parts[k % 2] += coeff * Rrad ** (k // 2)
        for c in parts.values():
            c = sp.expand(sp.cancel(c))
            if c != 0:
                classes.setdefault(_scale_free_key(c), c.primitive()[1])
    odes = sorted(classes.values(), key=sp.count_ops)
    beta = ex.parameter("beta")
    integrated = (sp.expand(PHI2 + sp.diff(PHI1, T) / 2),
                  sp.expand(sp.diff(PHI1, T) - PHI1 ** 2 / 2 - beta))
    rad_expr = ex.normalize(Rrad)
    return ReductionAnsatz(
        ansatz_u=ex.normalize((PHI1 + sp.sqrt(Rrad)) / 2),
        ansatz_v=ex.normalize((PHI1 - sp.sqrt(Rrad)) / 2),
        reduced=tuple(ex.normalize(o) for o in odes),
        integrated=tuple(ex.normalize(i) for i in integrated),
        profile=ex.normalize(l1 * sp.cos(X) + l2 * sp.sin(X)))


def reduction_solutions():
    """The three (phi1, phi2) branches solving the reduced ODEs, keyed by the
    family they regenerate."""
    a1, a2 = _A1, _A2
    t = T
    return {
        "reduced-a": (-2 / t, -1 / t ** 2),
        "reduced-b": (2 * a1 * sp.sin(a1 * t) / sp.cos(a1 * t),
                      -a1 ** 2 / sp.cos(a1 * t) ** 2),
        "reduced-c": (2 * a1 * (1 + a2 * sp.exp(2 * a1 * t))
                      / (1 - a2 * sp.exp(2 * a1 * t)),
                      -sp.diff(a1 * (1 + a2 * sp.exp(2 * a1 * t))
                               / (1 - a2 * sp.exp(2 * a1 * t)), t)),
    }


def check_reduction(ansatz, phi1, phi2):
    """True when the concrete profiles phi1(t), phi2(t) satisfy every reduced
    ODE of the ansatz."""
    p1 = ex.as_expression(phi1).sym
    p2 = ex.as_expression(phi2).sym
    for o in ansatz.reduced:
        val = o.sym.subs({PHI1: p1, PHI2: p2}).doit()
        if not ex.iszero(val):
            return False
    return True


# ---------------------------------------------------------------------------
# flux check

@dataclass(frozen=True)
class FluxReport:
    passed: bool
    endpoint_values: tuple     # ((x0, u_x, v_x), (x1, u_x, v_x)) Expressions

    def __bool__(self):
        return self.passed


def flux_check(sol, x0, x1):
    """Zero-gradient check: u_x and v_x must vanish identically in t at both
    endpoints."""
    ux = ex.diff(sol.u_expr, X)
    vx = ex.diff(sol.v_expr, X)
    rows = []
    ok = True
    for endpoint in (x0, x1):
        e = ex.as_expression(endpoint)
        vals = tuple(ex.substitute(d, {X: e}) for d in (ux, vx))
        ok = ok and all(v.is_zero for v in vals)
        rows.append((e,) + vals)
    return FluxReport(passed=ok, endpoint_values=tuple(rows))


# ---------------------------------------------------------------------------
# logistic change of variables

def to_logistic(sol, a, b, d1, d2):
    """Map a solution of u_t = [uv]_xx -/+ uv through
    t -> exp(a b t*), x -> sqrt(b) x*, u* = a t u / d2, v* = a t v / d1,
    yielding a solution of the logistic-form system (see logistic_system).
    Valid for t* real (the original t > 0 branch); requires a != 0, b > 0."""
    a_, b_, d1_, d2_ = [ex.as_expression(z) for z in (a, b, d1, d2)]
    for val, cond in ((a_, lambda s: s == 0), (b_, lambda s: s.is_Number and s <= 0)):
        if cond(val.sym):
            raise SolutionError("logistic map needs a != 0 and b > 0")
    if sol.system_id not in (MINUS, PLUS):
        raise SolutionError("logistic map applies to the two canonical systems")
    tmap = sp.exp(a_.sym * b_.sym * T)
    xmap = sp.sqrt(b_.sym) * X
    pullback = {T: ex.normalize(tmap), X: ex.normalize(xmap)}
    scale_u = a_.sym * tmap / d2_.sym
    scale_v = a_.sym * tmap / d1_.sym
    u_new = ex.normalize(scale_u * ex.substitute(sol.u_expr, pullback).sym)
    v_new = ex.normalize(scale_v * ex.substitute(sol.v_expr, pullback).sym)
    cons = tuple(Constraint(c.kind, ex.substitute(c.expr, pullback))
                 for c in sol.constraints)
    fam = SolutionFamily(name=f"{sol.name}*logistic",
                         system_id=f"logistic{sol.system_id[-2:]}",
                         u_expr=u_new, v_expr=v_new, branch=sol.branch,
                         constraints=cons)
    return fam, logistic_system(sol.system_id, a_, b_, d1_, d2_)


# ---------------------------------------------------------------------------
# solution files and reports

def parse_solution_file(text, name="solution"):
    """[solution] block: keys u, v, branch, system, constraints
    (semicolon-separated "kind expr" items)."""
    current = None
    vals = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            head = line[1:-1].strip()
            if head != "solution":
                raise SolutionError(f"line {lineno}: unknown block [{head}]")
            current = head
        elif "=" in line and current:
            key, _, val = line.partition("=")
            vals[key.strip()] = val.strip()
        else:
            raise SolutionError(f"line {lineno}: cannot parse {raw!r}")
    if "u" not in vals or "v" not in vals:
        raise SolutionError("solution block needs u= and v=")
    cons = tuple(Constraint.parse(c) for c in vals.get("constraints", "").split(";")
                 if c.strip())
    return SolutionFamily(
        name=vals.get("name", name), system_id=vals.get("system", MINUS),
        u_expr=ex.parse(vals["u"]), v_expr=ex.parse(vals["v"]),
        branch=vals.get("branch", UPPER), constraints=cons)


def verification_csv(rows):
    """rows: (family, system, max_abs_residual, points, verdict)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["family", "system", "max_residual", "points", "verdict"])
    for row in rows:
        writer.writerow(list(row))
    return buf.getvalue()
