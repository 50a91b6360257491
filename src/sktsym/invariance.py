"""SKT system representation, manifold restriction, invariance verdicts,
determining-equation generation, commutators and algebra closure."""

from __future__ import annotations

from dataclasses import dataclass, field

import sympy as sp

from . import expr as ex
from .expr import Expression, T, U, V, X, jet
from .jet import VectorField, prolong2, apply_prolonged, _total_raw

_PARAM_KEYS = ("d1", "d2", "d11", "d12", "d21", "d22",
               "a1", "a2", "b1", "b2", "c1", "c2")


def _sym(e):
    return e.sym if isinstance(e, Expression) else sp.sympify(e)


@dataclass(frozen=True)
class SKTSystem:
    """The 12-parameter cross-diffusion system in evaluated form:
    u_t = d1 u_xx + 2 d11 u u_xx + d12 v u_xx + d12 u v_xx
          + 2 d11 u_x^2 + 2 d12 u_x v_x + a1 u - b1 u^2 - c1 u v   (and the
    v-equation with d2, d21, d22, a2, b2, c2)."""

    d1: Expression
    d2: Expression
    d11: Expression
    d12: Expression
    d21: Expression
    d22: Expression
    a1: Expression
    a2: Expression
    b1: Expression
    b2: Expression
    c1: Expression
    c2: Expression

    @classmethod
    def make(cls, **kw):
        vals = {}
        for k in _PARAM_KEYS:
            val = kw.get(k, 0)
            if isinstance(val, str):
                val = ex.parse(val)
            elif not isinstance(val, Expression):
                val = ex.normalize(val)
            vals[k] = val
        return cls(**vals)

    @classmethod
    def generic(cls):
        return cls.make(**{k: ex.parameter(k) for k in _PARAM_KEYS})

    def params(self):
        return {k: getattr(self, k) for k in _PARAM_KEYS}

    def rhs_raw(self, dep):
        """Right-hand side of the evolution equation for u (dep=1) or v."""
        g = lambda k: getattr(self, k).sym
        u, v = U, V
        ux, vx = jet(1, 0, 1), jet(2, 0, 1)
        uxx, vxx = jet(1, 0, 2), jet(2, 0, 2)
        if dep == 1:
            return (g("d1") * uxx + 2 * g("d11") * u * uxx + g("d12") * v * uxx
                    + g("d12") * u * vxx + 2 * g("d11") * ux ** 2
                    + 2 * g("d12") * ux * vx
                    + g("a1") * u - g("b1") * u ** 2 - g("c1") * u * v)
        return (g("d2") * vxx + 2 * g("d22") * v * vxx + g("d21") * u * vxx
                + g("d21") * v * uxx + 2 * g("d22") * vx ** 2
                + 2 * g("d21") * ux * vx
                + g("a2") * v - g("c2") * v ** 2 - g("b2") * u * v)

    def S_raw(self, k):
        return -jet(k, 1, 0) + self.rhs_raw(k)

    def S(self, k):
        return ex.normalize(self.S_raw(k))

    def swap_uv(self):
        """The (u <-> v)-swapped system."""
        return SKTSystem(
            d1=self.d2, d2=self.d1, d11=self.d22, d12=self.d21,
            d21=self.d12, d22=self.d11, a1=self.a2, a2=self.a1,
            b1=self.c2, b2=self.c1, c1=self.b2, c2=self.b1)

    def subs(self, bindings):
        return SKTSystem.make(**{k: ex.substitute(v, bindings)
                                 for k, v in self.params().items()})

    def equals(self, other):
        return all((getattr(self, k) - getattr(other, k)).is_zero
                   for k in _PARAM_KEYS)

    def __repr__(self):
        shown = {k: str(v.sym) for k, v in self.params().items()
                 if v.sym != 0}
        return f"SKTSystem({shown})"


_RESTRICT_PASSES = 8


def manifold_restrict(e, sys, raw=False):
    """Eliminate u_t, v_t via the evolution equations, then u_tx/v_tx via
    D_x of them, then u_tt/v_tt via D_t.  (u_txx introduced by the D_t route
    is outside the elimination order and left alone.)  Raises ExprError if no
    pass leaves the expression unchanged within _RESTRICT_PASSES passes."""
    s = _sym(e)
    rhs = {1: sys.rhs_raw(1), 2: sys.rhs_raw(2)}
    first = {jet(1, 1, 0): rhs[1], jet(2, 1, 0): rhs[2]}
    for _ in range(_RESTRICT_PASSES):
        done = True
        if s.has(jet(1, 1, 0)) or s.has(jet(2, 1, 0)):
            s = s.xreplace(first)
            done = False
        for dep in (1, 2):
            jx = jet(dep, 1, 1)
            if s.has(jx):
                s = s.xreplace({jx: _total_raw(rhs[dep], X)})
                done = False
            jtt = jet(dep, 2, 0)
            if s.has(jtt):
                s = s.xreplace({jtt: _total_raw(rhs[dep], T)})
                done = False
        if done:
            break
    else:
        raise ex.ExprError(
            f"manifold restriction reached no fixed point in {_RESTRICT_PASSES} passes")
    return s if raw else ex.normalize(s)


@dataclass(frozen=True)
class Verdict:
    invariant: bool
    witnesses: dict
    assumptions_used: tuple

    def __bool__(self):
        return self.invariant


def check_invariance(sys, Xf):
    """Is the system invariant under the field?  Non-invariance yields the
    nonvanishing split coefficients as witnesses."""
    P = prolong2(Xf)
    witnesses = {}
    assumptions = set()
    for k in (1, 2):
        Ek = apply_prolonged(P, sys.S_raw(k), raw=True)
        r = manifold_restrict(Ek, sys, raw=True)
        n, d = sp.fraction(sp.together(r))
        if sp.expand(n) == 0:
            if not d.is_Number:
                assumptions.add(d)
            continue
        for mono, coeff in ex.collect_jet(r).items():
            assumptions |= coeff.assumptions
            if not coeff.is_zero:
                witnesses[(k, mono)] = coeff
    return Verdict(invariant=not witnesses, witnesses=witnesses,
                   assumptions_used=tuple(sorted(assumptions, key=sp.default_sort_key)))


# ---------------------------------------------------------------------------
# determining equations

def opaque_field(full_deps=True):
    """The generic infinitesimal operator with opaque coefficient functions.
    full_deps=False applies the dependency restrictions xi0=xi0(t),
    xi1=xi1(t,x)."""
    if full_deps:
        xi0 = sp.Function("xi0")(T, X, U, V)
        xi1 = sp.Function("xi1")(T, X, U, V)
    else:
        xi0 = sp.Function("xi0")(T)
        xi1 = sp.Function("xi1")(T, X)
    eta1 = sp.Function("eta1")(T, X, U, V)
    eta2 = sp.Function("eta2")(T, X, U, V)
    return VectorField.make(xi0, xi1, eta1, eta2, name="generic")


@dataclass(frozen=True)
class DeterminingSystem:
    equations: tuple          # Expressions, jet-free, deduplicated
    raw_split: dict           # (eq index, jet monomial) -> Expression
    field: VectorField

    def __len__(self):
        return len(self.equations)


def _is_scalar(e_sym):
    """True if e_sym involves no variables or opaque functions (parameters
    only)."""
    bad = (T, X, U, V)
    if e_sym.has(*bad):
        return False
    return not (e_sym.atoms(sp.Derivative) or
                e_sym.atoms(sp.core.function.AppliedUndef))


def proportional(e1, e2):
    """Nonzero scalar lambda with e1 = lambda * e2, or None."""
    s1, s2 = _sym(e1), _sym(e2)
    if s1 == 0 or s2 == 0:
        return sp.Integer(1) if s1 == 0 and s2 == 0 else None
    q = sp.cancel(sp.together(s1 / s2))
    if _is_scalar(q):
        return q
    return None


def _param_field(syms):
    syms = sorted(syms, key=sp.default_sort_key)
    return sp.ZZ.frac_field(*syms) if syms else sp.QQ


def _scale_free_key(e):
    """Canonical form of a nonzero equation up to a nonzero factor that
    depends only on the parameters: two equations get the same key exactly
    when proportional() relates them.

    The numerator of e is read as a polynomial in the opaque functions, their
    derivatives and t, x, u, v, over the field of rational functions of the
    remaining symbols, and made monic.  The field is then shrunk to the
    symbols of the monic coefficients, so that the key does not depend on
    symbols that only the scale factor carried.  Raises NotPolynomialError
    if e is not of that form."""
    num, den = sp.fraction(sp.together(_sym(e)))
    variables = {T, X, U, V}
    opaque = (sp.Derivative, sp.core.function.AppliedUndef)
    if den.has(*variables) or den.atoms(*opaque):
        raise ex.NotPolynomialError(f"denominator involves a generator: {den}")
    gens = sorted(num.atoms(*opaque) | (num.free_symbols & variables),
                  key=sp.default_sort_key)
    try:
        poly = sp.Poly(num, *gens, domain=_param_field(num.free_symbols - variables))
        monic = poly.exclude().monic()
        coeff_syms = set().union(*(c.free_symbols for c in monic.coeffs()))
        monic = sp.Poly(monic.as_expr(), *monic.gens, domain=_param_field(coeff_syms))
    except sp.polys.polyerrors.BasePolynomialError as exc:
        raise ex.NotPolynomialError(f"not polynomial over the parameters: {exc}") from exc
    return monic.gens, monic


def generate_determining(sys=None, full_deps=True):
    """Split the invariance conditions of the generic operator over jet
    monomials.  The artifact derives, rather than assumes, the dependency
    reductions xi0=xi0(t), xi1=xi1(t,x).

    Equations are identified up to a nonzero factor that depends only on the
    parameters: a split coefficient is kept when its _scale_free_key has not
    been seen, so the first of each proportional class represents it."""
    if sys is None:
        sys = SKTSystem.generic()
    Xf = opaque_field(full_deps=full_deps)
    P = prolong2(Xf)
    raw_split = {}
    for k in (1, 2):
        Ek = apply_prolonged(P, sys.S_raw(k), raw=True)
        r = manifold_restrict(Ek, sys, raw=True)
        for mono, coeff in ex.collect_jet(r).items():
            if not coeff.is_zero:
                raw_split[(k, mono)] = coeff
    equations, seen = [], set()
    for coeff in raw_split.values():
        key = _scale_free_key(coeff)
        if key not in seen:
            seen.add(key)
            equations.append(coeff)
    return DeterminingSystem(equations=tuple(equations), raw_split=raw_split,
                             field=Xf)


def printed_determining_equations():
    """The paper's determining system for the generic 12-parameter system,
    under the derived dependency restrictions.  Returned as a dict id -> list
    of expressions (the first entry bundles the five dependency relations)."""
    xi0f = sp.Function("xi0")(T)
    xi1f = sp.Function("xi1")(T, X)
    e1 = sp.Function("eta1")(T, X, U, V)
    e2 = sp.Function("eta2")(T, X, U, V)
    D = sp.diff  # evaluated diff keeps mixed-derivative variable order canonical
    d1, d2, d11, d12, d21, d22 = [ex.parameter(k) for k in
                                  ("d1", "d2", "d11", "d12", "d21", "d22")]
    a1, a2, b1, b2, c1, c2 = [ex.parameter(k) for k in
                              ("a1", "a2", "b1", "b2", "c1", "c2")]
    u, v = U, V
    xi0_t = D(xi0f, T)
    xi1_x = D(xi1f, X)
    xi1_t = D(xi1f, T)
    xi1_xx = D(xi1f, X, 2)
    P1 = d1 + 2 * d11 * u + d12 * v      # diffusivity group of the u-equation
    P2 = d2 + d21 * u + 2 * d22 * v
    dd = d1 - d2 + (2 * d11 - d21) * u + (d12 - 2 * d22) * v
    trace = xi0_t - 2 * xi1_x

    xi0full = sp.Function("xi0")(T, X, U, V)
    xi1full = sp.Function("xi1")(T, X, U, V)
    eqs = {
        10: [D(xi0full, X), D(xi0full, U), D(xi0full, V),
             D(xi1full, U), D(xi1full, V)],
        11: [d21 * v * D(e1, U, 2) + P2 * D(e2, U, 2)
             + 2 * (d21 - d11) * D(e2, U)],
        12: [P1 * D(e1, U, 2) + d12 * u * D(e2, U, 2)
             + 2 * d11 * (D(e1, U) + trace) + 2 * d12 * D(e2, U)],
        13: [P1 * D(e1, V, 2) + d12 * u * D(e2, V, 2)
             + 2 * (d12 - d22) * D(e1, V)],
        14: [d21 * v * D(e1, V, 2) + P2 * D(e2, V, 2) + 2 * d21 * D(e1, V)
             + 2 * d22 * (D(e2, V) + trace)],
        15: [P1 * D(e1, U, V) + d12 * u * D(e2, U, V)
             + (2 * d11 - d21) * D(e1, V) + d12 * (D(e2, V) + trace)],
        16: [d21 * v * D(e1, U, V) + P2 * D(e2, U, V)
             + d21 * (D(e1, U) + trace) + (2 * d22 - d12) * D(e2, U)],
        17: [d12 * u * D(e1, U) - dd * D(e1, V) - d12 * u * D(e2, V)
             - d12 * e1 - d12 * u * trace],
        18: [d21 * v * D(e1, U) - dd * D(e2, U) - d21 * v * D(e2, V)
             + d21 * e2 + d21 * v * trace],
        19: [d21 * v * D(e1, V) - d12 * u * D(e2, U) - 2 * d11 * e1
             - d12 * e2 - P1 * trace],
        20: [d21 * v * D(e1, V) - d12 * u * D(e2, U) + d21 * e1
             + 2 * d22 * e2 + P2 * trace],
        21: [2 * d21 * v * D(e1, X, U) + 2 * P2 * D(e2, X, U)
             + 2 * d21 * D(e2, X) - d21 * v * xi1_xx],
        22: [2 * P1 * D(e1, X, U) + 2 * d12 * u * D(e2, X, U)
             + 4 * d11 * D(e1, X) + 2 * d12 * D(e2, X)
             + xi1_t - P1 * xi1_xx],
        23: [2 * P1 * D(e1, X, V) + 2 * d12 * u * D(e2, X, V)
             + 2 * d12 * D(e1, X) - d12 * u * xi1_xx],
        24: [2 * d21 * v * D(e1, X, V) + 2 * P2 * D(e2, X, V)
             + 2 * d21 * D(e1, X) + 4 * d22 * D(e2, X)
             + xi1_t - P2 * xi1_xx],
        25: [D(e1, T) + (a1 * u - b1 * u ** 2 - c1 * u * v) * D(e1, U)
             + (a2 * v - b2 * u * v - c2 * v ** 2) * D(e1, V)
             - (a1 - 2 * b1 * u - c1 * v) * e1 + c1 * u * e2
             - P1 * D(e1, X, 2) - d12 * u * D(e2, X, 2)
             - (a1 * u - b1 * u ** 2 - c1 * u * v) * xi0_t],
        26: [D(e2, T) + (a2 * v - c2 * v ** 2 - b2 * u * v) * D(e2, V)
             + (a1 * u - b1 * u ** 2 - c1 * u * v) * D(e2, U)
             + b2 * v * e1 - (a2 - b2 * u - 2 * c2 * v) * e2
             - d21 * v * D(e1, X, 2) - P2 * D(e2, X, 2)
             - (a2 * v - b2 * u * v - c2 * v ** 2) * xi0_t],
    }
    return eqs


@dataclass
class GoldenReport:
    matches: dict = field(default_factory=dict)       # printed id -> scale
    discrepancies: list = field(default_factory=list)
    unmatched_generated: list = field(default_factory=list)
    sign_notes: list = field(default_factory=list)

    @property
    def clean(self):
        return not self.discrepancies and not self.unmatched_generated


def _forced_zero_derivatives(equations, zeroed, targets):
    """Which of `targets` are forced to vanish by the equations, after the
    `zeroed` substitutions?  Treats every remaining opaque derivative of the
    target functions as an unknown of a linear system over rational
    functions."""
    funcs = {d.expr.func for d in list(zeroed) + list(targets)}
    sub_eqs = []
    unknowns = set(targets)
    for eq in equations:
        s = _sym(eq).xreplace(zeroed)
        if s == 0:
            continue
        derivs = s.atoms(sp.Derivative)
        if not derivs or any(d.expr.func not in funcs for d in derivs):
            continue
        unknowns |= derivs
        sub_eqs.append(s)
    unknowns = sorted(unknowns, key=sp.default_sort_key)
    dummies = {d: sp.Dummy(f"w{i}") for i, d in enumerate(unknowns)}
    eqs = [e.xreplace(dummies) for e in sub_eqs]
    # split over monomials in (u, v) so the solve is over the parameter field
    split = []
    for e in eqs:
        try:
            split.extend(sp.Poly(sp.expand(e), U, V).coeffs())
        except sp.PolynomialError:
            split.append(e)
    split = [e for e in split if e != 0]
    if not split:
        return set()
    sol = sp.linsolve(split, list(dummies.values()))
    if not sol:
        return set()
    vec = list(sol)[0]
    forced = set()
    for d, val in zip(unknowns, vec):
        if val == 0 and d in targets:
            forced.add(d)
    return forced


def golden_compare():
    """Compare the generated determining system with the printed one.

    The dependency relations (the first golden item) are extracted from the
    full-dependency split; the remaining 16 items are matched against the
    restricted-dependency split up to a nonzero factor that depends only on
    the parameters.  Each printed equation looks up the generated one with
    the same _scale_free_key, and proportional() then gives the factor."""
    report = GoldenReport()
    printed = printed_determining_equations()

    # dependency restrictions from the full split.  The xi0 derivatives are
    # matched directly (an equation of the form factor * target); the xi1
    # derivatives only appear in linear combinations, so they are recovered
    # by eliminating the already-established zeros and solving the residual
    # linear system.
    full = generate_determining(full_deps=True)
    zeroed = {}
    pending = []
    for target in printed[10]:
        found = None
        for eq in full.equations:
            s = _sym(eq).xreplace(zeroed)
            if s == 0:
                continue
            quo = sp.cancel(sp.together(s / target))
            if not quo.atoms(sp.Derivative) and quo != 0:
                found = quo
                break
        if found is None:
            pending.append(target)
        else:
            zeroed[target] = sp.Integer(0)
            report.matches.setdefault(10, []).append((str(target), found))
    if pending:
        forced = _forced_zero_derivatives(full.equations, zeroed, pending)
        for target in pending:
            if target in forced:
                zeroed[target] = sp.Integer(0)
                report.matches.setdefault(10, []).append(
                    (str(target), "linear elimination"))
            else:
                report.discrepancies.append(("(10)", str(target)))

    restricted = generate_determining(full_deps=False)
    remaining = {_scale_free_key(eq): eq for eq in restricted.equations}
    for eq_id in range(11, 27):
        target = ex.normalize(printed[eq_id][0])
        eq = remaining.pop(_scale_free_key(target), None)
        if eq is None:
            report.discrepancies.append((f"({eq_id})", str(target.sym)))
            continue
        lam = proportional(eq, target)
        report.matches[eq_id] = lam
        if lam.is_Number and lam < 0:
            report.sign_notes.append(
                f"generated equation matches ({eq_id}) with overall sign {lam}")
    report.unmatched_generated = [str(e.sym) for e in remaining.values()]
    return report


# ---------------------------------------------------------------------------
# algebra structure

def commutator(Xf, Yf):
    """[X, Y], componentwise X(Y_i) - Y(X_i) on (xi0, xi1, eta1, eta2)."""
    coeffs = [Xf.apply(yc) - Yf.apply(xc)
              for xc, yc in zip(Xf.coeffs(), Yf.coeffs())]
    name = None
    if Xf.name and Yf.name:
        name = f"[{Xf.name},{Yf.name}]"
    return VectorField.make(*coeffs, name=name)


@dataclass
class ClosureReport:
    closes: bool
    constants: dict            # (i, j) -> tuple of expansion coefficients
    failures: list             # (i, j, residual VectorField)
    degenerate: list           # pairs where the linear solve was ambiguous

    def __bool__(self):
        return self.closes


def _linear_expand(target, basis):
    """Write each coefficient of `target` as sum c_k * basis_k coefficient;
    returns the c_k (t,x,u,v-independent) or None."""
    cs = [sp.Dummy(f"c{k}") for k in range(len(basis))]
    eqs = []
    for slot in range(4):
        resid = _sym(target.coeffs()[slot])
        for c, b in zip(cs, basis):
            resid -= c * _sym(b.coeffs()[slot])
        n, _ = sp.fraction(sp.cancel(sp.together(resid)))
        n = sp.expand(n)
        gens = set()
        for s in (T, X, U, V):
            if n.has(s):
                gens.add(s)
        gens |= n.atoms(sp.exp) | n.atoms(sp.sin) | n.atoms(sp.cos)
        if gens:
            try:
                poly = sp.Poly(n, *sorted(gens, key=sp.default_sort_key))
                eqs.extend(poly.coeffs())
            except sp.PolynomialError:
                eqs.append(n)
        else:
            eqs.append(n)
    eqs = [e for e in eqs if e != 0]
    if not eqs:
        return "degenerate"
    sol = sp.linsolve(eqs, cs)
    if not sol:
        return None
    vec = list(sol)[0]
    if any(val.free_symbols & set(cs) for val in vec):
        return "degenerate"
    return tuple(sp.cancel(val) for val in vec)


def closure_check(ops):
    """Check that the span of `ops` closes under the commutator."""
    if not ops:
        raise ValueError("operator list is empty")
    constants, failures, degenerate = {}, [], []
    for i, Xi in enumerate(ops):
        for j, Xj in enumerate(ops):
            if j <= i:
                continue
            C = commutator(Xi, Xj)
            if C.is_zero():
                constants[(i, j)] = tuple(sp.Integer(0) for _ in ops)
                continue
            res = _linear_expand(C, ops)
            if res is None:
                failures.append((i, j, C))
            elif res == "degenerate":
                degenerate.append((i, j))
            else:
                constants[(i, j)] = res
    return ClosureReport(closes=not failures, constants=constants,
                         failures=failures, degenerate=degenerate)


# ---------------------------------------------------------------------------
# point transformations of the equivalence family

@dataclass(frozen=True)
class PointTransformation:
    """t* = t_map(t), x* = x_map(x), (u*, v*) affine in (u, v) with
    t-dependent coefficients; the family of the paper's substitution lists."""

    t_map: Expression
    x_map: Expression
    u_map: Expression
    v_map: Expression
    name: str | None = None

    @classmethod
    def make(cls, t_map="t", x_map="x", u_map="u", v_map="v", name=None):
        conv = lambda e: e if isinstance(e, Expression) else (
            ex.parse(e) if isinstance(e, str) else ex.normalize(e))
        return cls(conv(t_map), conv(x_map), conv(u_map), conv(v_map), name=name)

    def is_identity(self):
        return (self.t_map.sym == T and self.x_map.sym == X
                and self.u_map.sym == U and self.v_map.sym == V)


class TransformError(ex.ExprError):
    pass


@dataclass(frozen=True)
class TransformResult:
    is_skt: bool
    system: SKTSystem | None
    raw_equations: tuple | None   # (rhs for u_t, rhs for v_t) when not SKT
    note: str = ""


def _affine_block(um, vm):
    """Extract the (u,v)-affine structure of the maps; coefficients may
    depend on t."""
    out = []
    for m in (um, vm):
        s = sp.expand(m)
        A = sp.diff(s, U)
        B = sp.diff(s, V)
        g = sp.expand(s - A * U - B * V)
        if A.has(U, V) or B.has(U, V) or g.has(U, V) or any(
                z.has(X) for z in (A, B, g)):
            raise TransformError(f"map {m} outside the affine family")
        out.append((A, B, g))
    return out


def _time_map(tm):
    """Classify t* = alpha1 * t or alpha00 * exp(alpha0 * t); returns
    (tprime, exp_rate or None)."""
    s = tm
    if s == T:
        return sp.Integer(1), None
    d = sp.cancel(sp.diff(s, T))
    if not d.has(T) and not d.atoms(sp.exp):
        if sp.expand(s - d * T) != 0:
            raise TransformError(f"time map {s} outside the supported family")
        return d, None
    exps = s.atoms(sp.exp)
    if len(exps) == 1:
        E = list(exps)[0]
        rate = sp.cancel(sp.diff(E.args[0], T))
        coeff = sp.cancel(s / E)
        if not coeff.has(T) and not rate.has(T):
            return sp.diff(s, T), rate
    raise TransformError(f"time map {s} outside the supported family")


def _rewrite_exp_t(s, rate, tm):
    """Replace exp(k * rate * t) by (t*/alpha00)^k after the exponential
    time substitution."""
    E_unit = sp.exp(rate * T)
    alpha00 = sp.cancel(tm / E_unit)
    repl = {}
    for E in s.atoms(sp.exp):
        arg = E.args[0]
        if not arg.has(T):
            continue
        k = sp.cancel(arg / (rate * T))
        if k.has(T) or not k.is_Rational:
            raise TransformError(f"exponential {E} incommensurate with the time map")
        repl[E] = (T / alpha00) ** k        # T now stands for t*
    return s.xreplace(repl)


_NEW_JETS = {(1, 0, 0): U, (2, 0, 0): V}


def transform_system(sys, Tr):
    """Push the system through a point transformation of the supported
    family and re-express it in the 12-parameter template."""
    tm, xm = Tr.t_map.sym, Tr.x_map.sym
    (A, B, g), (C, D, h) = _affine_block(Tr.u_map.sym, Tr.v_map.sym)
    det = sp.cancel(A * D - B * C)
    if det == 0:
        raise TransformError("(u,v) block of the transformation is singular")
    cx = sp.cancel(sp.diff(xm, X))
    if xm != X and (cx.has(X) or sp.expand(xm - cx * X) != 0):
        raise TransformError(f"space map {xm} outside the supported family")
    tprime, rate = _time_map(tm)

    # d(u*, v*)/dt along solutions, with u_t, v_t replaced by the system rhs
    rhs1, rhs2 = sys.rhs_raw(1), sys.rhs_raw(2)
    dU = sp.diff(A, T) * U + sp.diff(B, T) * V + sp.diff(g, T) + A * rhs1 + B * rhs2
    dV = sp.diff(C, T) * U + sp.diff(D, T) * V + sp.diff(h, T) + C * rhs1 + D * rhs2
    new_rhs = [sp.cancel(dU / tprime), sp.cancel(dV / tprime)]

    # invert the affine block: (u, v) in terms of (U*, V*)
    Us, Vs = sp.Dummy("Ustar"), sp.Dummy("Vstar")
    inv_u = sp.cancel((D * (Us - g) - B * (Vs - h)) / det)
    inv_v = sp.cancel((-C * (Us - g) + A * (Vs - h)) / det)
    jet_map = {}
    star = {}
    for dep in (1, 2):
        for nt, nx in ((0, 0), (0, 1), (0, 2)):
            star[(dep, nt, nx)] = sp.Dummy(f"J{dep}{nt}{nx}")
    for dep, inv in ((1, inv_u), (2, inv_v)):
        coefU = sp.diff(inv, Us)
        coefV = sp.diff(inv, Vs)
        const = sp.expand(inv - coefU * Us - coefV * Vs)
        jet_map[jet(dep, 0, 0)] = (coefU * star[(1, 0, 0)]
                                   + coefV * star[(2, 0, 0)] + const)
        for nx in (1, 2):
            jet_map[jet(dep, 0, nx)] = cx ** nx * (
                coefU * star[(1, 0, nx)] + coefV * star[(2, 0, nx)])
    new_rhs = [sp.cancel(r.xreplace(jet_map)) for r in new_rhs]

    if rate is not None:
        new_rhs = [_rewrite_exp_t(r, rate, tm) for r in new_rhs]
    else:
        scale = tprime  # t = t*/alpha1
        new_rhs = [r.xreplace({T: T / scale}) for r in new_rhs]
    for r in new_rhs:
        if sp.cancel(r).has(T):
            raise TransformError(f"transformed equation is time dependent: {r}")

    back = {star[(1, 0, 0)]: U, star[(2, 0, 0)]: V,
            star[(1, 0, 1)]: jet(1, 0, 1), star[(2, 0, 1)]: jet(2, 0, 1),
            star[(1, 0, 2)]: jet(1, 0, 2), star[(2, 0, 2)]: jet(2, 0, 2)}
    new_rhs = [sp.expand(sp.cancel(r.xreplace(back))) for r in new_rhs]
    return _match_template(new_rhs)


def _match_template(new_rhs):
    """Fit (rhs_u, rhs_v) to the 12-parameter template; flag non-template
    images (including a diffusion-free second equation)."""
    ux, vx = jet(1, 0, 1), jet(2, 0, 1)
    uxx, vxx = jet(1, 0, 2), jet(2, 0, 2)
    params = {}
    raw = tuple(ex.normalize(r) for r in new_rhs)
    try:
        for eqno, r in enumerate(new_rhs, start=1):
            split = {}
            poly = sp.Poly(r, ux, vx, uxx, vxx)
            for powers, coeff in poly.terms():
                split[powers] = sp.expand(coeff)
            own_xx = split.pop((0, 0, 1, 0) if eqno == 1 else (0, 0, 0, 1),
                               sp.Integer(0))
            other_xx = split.pop((0, 0, 0, 1) if eqno == 1 else (0, 0, 1, 0),
                                 sp.Integer(0))
            own_sq = split.pop((2, 0, 0, 0) if eqno == 1 else (0, 2, 0, 0),
                               sp.Integer(0))
            cross = split.pop((1, 1, 0, 0), sp.Integer(0))
            react = split.pop((0, 0, 0, 0), sp.Integer(0))
            if split and any(sp.expand(c) != 0 for c in split.values()):
                return TransformResult(False, None, raw,
                                       note="unexpected jet monomials in the image")
            own, other = (U, V) if eqno == 1 else (V, U)
            pre = "1" if eqno == 1 else "2"
            dlin = sp.Poly(own_xx, U, V)
            d0 = dlin.nth(0, 0)
            dU_, dV_ = dlin.nth(1, 0), dlin.nth(0, 1)
            if dlin.total_degree() > 1:
                return TransformResult(False, None, raw,
                                       note="diffusivity not affine in (u, v)")
            if eqno == 1:
                cand = dict(d1=d0, d11=dV_ * 0 + dU_ / 2, d12=dV_)
                checks = [(other_xx, cand["d12"] * U),
                          (own_sq, 2 * cand["d11"]),
                          (cross, 2 * cand["d12"])]
            else:
                cand = dict(d2=d0, d22=dV_ / 2, d21=dU_)
                checks = [(other_xx, cand["d21"] * V),
                          (own_sq, 2 * cand["d22"]),
                          (cross, 2 * cand["d21"])]
            for got, want in checks:
                if sp.expand(got - want) != 0:
                    return TransformResult(False, None, raw,
                                           note="image not of SKT template")
            rp = sp.Poly(react, U, V)
            if rp.total_degree() > 2:
                return TransformResult(False, None, raw,
                                       note="reaction degree exceeds 2")
            if eqno == 1:
                cand.update(a1=rp.nth(1, 0), b1=-rp.nth(2, 0), c1=-rp.nth(1, 1))
                stray = [rp.nth(0, 0), rp.nth(0, 1), rp.nth(0, 2)]
            else:
                cand.update(a2=rp.nth(0, 1), c2=-rp.nth(0, 2), b2=-rp.nth(1, 1))
                stray = [rp.nth(0, 0), rp.nth(1, 0), rp.nth(2, 0)]
            if any(sp.expand(s_) != 0 for s_ in stray):
                return TransformResult(False, None, raw,
                                       note="reaction outside the template")
            params.update({k: sp.cancel(v) for k, v in cand.items()})
    except sp.PolynomialError:
        return TransformResult(False, None, raw, note="image not polynomial in jets")
    new_sys = SKTSystem.make(**params)
    if all(sp.expand(_sym(getattr(new_sys, k))) == 0
           for k in ("d2", "d21", "d22")):
        return TransformResult(False, None, raw,
                               note="second equation lost its diffusion; not SKT template")
    return TransformResult(True, new_sys, None)


def pushforward(Xf, Tr, sys=None):
    """Push a vector field forward along a transformation of the supported
    family: new coefficients are X applied to the new coordinate functions,
    re-expressed in the new coordinates."""
    tm, xm = Tr.t_map.sym, Tr.x_map.sym
    (A, B, g), (C, D, h) = _affine_block(Tr.u_map.sym, Tr.v_map.sym)
    det = sp.cancel(A * D - B * C)
    cx = sp.cancel(sp.diff(xm, X))
    tprime, rate = _time_map(tm)
    comps = [Xf.apply(target, raw=True)
             for target in (tm, xm, A * U + B * V + g, C * U + D * V + h)]
    # express in new coordinates
    Us, Vs = sp.Dummy("Us"), sp.Dummy("Vs")
    inv_u = sp.cancel((D * (Us - g) - B * (Vs - h)) / det)
    inv_v = sp.cancel((-C * (Us - g) + A * (Vs - h)) / det)
    out = []
    for val in comps:
        val = val.xreplace({U: inv_u, V: inv_v}).xreplace({X: X / cx})
        if rate is not None:
            val = _rewrite_exp_t(sp.cancel(val), rate, tm)
        else:
            val = val.xreplace({T: T / tprime})
        out.append(sp.cancel(val.xreplace({Us: U, Vs: V})))
    return VectorField.make(*out, name=(Xf.name or "X") + "*")
