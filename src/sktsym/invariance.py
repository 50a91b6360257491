"""SKT system representation, manifold restriction, invariance verdicts,
determining-equation generation, commutators and algebra closure.

One linear layer over the parameter field reads every coefficient: its
polynomials live in one sparse ring (_param_polys), which keys equations up
to a parameter factor (_scale_free_key) and feeds _split_solve.  That solve
gives the closure constants, the golden factors (proportional), the golden
dependency relations (the forced zeros) and the reduction's profile."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import sympy as sp
from sympy.polys.matrices import DomainMatrix

from . import expr as ex
from .expr import Expression, T, U, V, X, jet
from .jet import VectorField, prolong2, apply_prolonged, total_derivative

_PARAM_KEYS = ("d1", "d2", "d11", "d12", "d21", "d22",
               "a1", "a2", "b1", "b2", "c1", "c2")


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
        return cls(**{k: ex.as_expression(kw.get(k, 0)) for k in _PARAM_KEYS})

    @classmethod
    def generic(cls):
        return cls.make(**{k: ex.parameter(k) for k in _PARAM_KEYS})

    def params(self):
        return {k: getattr(self, k) for k in _PARAM_KEYS}

    def rhs_raw(self, dep):
        """Right-hand side of the evolution equation for u (dep=1) or v
        (dep=2), built once per system object (_raw_equations)."""
        return self._raw_equations[dep][0]

    def S_raw(self, k):
        """-u_t + rhs_raw(1) (k=1) or -v_t + rhs_raw(2), built once per
        system object, so the partials expr.partial keeps for it serve every
        operator checked on the system."""
        return self._raw_equations[k][1]

    @cached_property
    def _raw_equations(self):
        """dep -> (rhs_raw(dep), S_raw(dep)), built on first use."""
        g = lambda k: getattr(self, k).sym
        u, v = U, V
        ux, vx = jet(1, 0, 1), jet(2, 0, 1)
        uxx, vxx = jet(1, 0, 2), jet(2, 0, 2)
        rhs = {
            1: (g("d1") * uxx + 2 * g("d11") * u * uxx + g("d12") * v * uxx
                + g("d12") * u * vxx + 2 * g("d11") * ux ** 2
                + 2 * g("d12") * ux * vx
                + g("a1") * u - g("b1") * u ** 2 - g("c1") * u * v),
            2: (g("d2") * vxx + 2 * g("d22") * v * vxx + g("d21") * u * vxx
                + g("d21") * v * uxx + 2 * g("d22") * vx ** 2
                + 2 * g("d21") * ux * vx
                + g("a2") * v - g("c2") * v ** 2 - g("b2") * u * v)}
        return {k: (r, -jet(k, 1, 0) + r) for k, r in rhs.items()}

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
        return all(getattr(self, k) == getattr(other, k) for k in _PARAM_KEYS)

    def __repr__(self):
        shown = {k: str(v.sym) for k, v in self.params().items()
                 if v.sym != 0}
        return f"SKTSystem({shown})"


_RESTRICT_PASSES = 8


def manifold_restrict(e, sys):
    """Eliminate u_t, v_t via the evolution equations, then u_tx/v_tx via
    D_x of them, then u_tt/v_tt via D_t, and return raw sympy.  (u_txx
    introduced by the D_t route is outside the elimination order and left
    alone.)  Raises ExprError if no pass leaves the expression unchanged
    within _RESTRICT_PASSES passes."""
    s = ex.as_sym(e)
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
                s = s.xreplace({jx: total_derivative(rhs[dep], X)})
                done = False
            jtt = jet(dep, 2, 0)
            if s.has(jtt):
                s = s.xreplace({jtt: total_derivative(rhs[dep], T)})
                done = False
        if done:
            break
    else:
        raise ex.ExprError(
            f"manifold restriction reached no fixed point in {_RESTRICT_PASSES} passes")
    return s


@dataclass(frozen=True)
class Verdict:
    invariant: bool
    witnesses: dict
    assumptions_used: tuple

    def __bool__(self):
        return self.invariant


def check_invariance(sys, Xf):
    """Is the system invariant under the field?  Each restricted invariance
    condition is decided by iszero.  A failing one is normalized as a whole
    and then split over jet monomials (collect_jet), so that its witnesses,
    the nonvanishing split coefficients, carry the assumptions of that
    normalization as well as their own."""
    P = prolong2(Xf)
    witnesses = {}
    assumptions = set()
    for k in (1, 2):
        r = manifold_restrict(apply_prolonged(P, sys.S_raw(k)), sys)
        if ex.iszero(r, assumptions):
            continue
        for mono, coeff in ex.collect_jet(ex.normalize(r)).items():
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
    xi1=xi1(t,x).  There is one field per choice in a process, so every
    split of it shares one generic prolongation (VectorField.prolonged)."""
    return _opaque_field(bool(full_deps))


@lru_cache(maxsize=None)
def _opaque_field(full_deps):
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


# ---------------------------------------------------------------------------
# linear algebra over the parameter field

_VARIABLES = frozenset((T, X, U, V))
_OPAQUE = (sp.Derivative, sp.core.function.AppliedUndef)


def _generators(exprs, kinds=_OPAQUE):
    """t, x, u, v and the atoms of the given kinds (by default the opaque
    functions and their derivatives) that occur in exprs, sorted."""
    found = set()
    for e in exprs:
        found |= (e.free_symbols & _VARIABLES) | e.atoms(*kinds)
    return sorted(found, key=sp.default_sort_key)


def _param_field(syms):
    syms = sorted(syms, key=sp.default_sort_key)
    return sp.ZZ.frac_field(*syms) if syms else sp.QQ


def _param_polys(nums, gens):
    """The ring of polynomials in gens over one parameter field (the rational
    functions of the symbols other than t, x, u, v and the generators), and
    nums as its elements: one sparse ring for every coefficient reading.
    The nums are read by the kernel's tree walk (ex._ring_read), in which
    every symbol outside gens is a ground element of the field.  Raises
    NotPolynomialError if some num is not of that form."""
    syms = set().union(*(n.free_symbols for n in nums)) - _VARIABLES - set(gens)
    return ex._ring_read(nums, gens, _param_field(syms))


def _split_solve(eqs, unknowns, gens=None):
    """Row-reduce equations that are linear in `unknowns` after splitting
    the numerator of each over its monomials in `gens` (by default t, x, u,
    v, the exp/sin/cos atoms and the opaque functions and derivatives).

    The numerators are read in one sparse ring (_param_polys).  Returns the
    RREF and the pivots of the matrix over the ring's parameter field with
    one row per (equation, monomial), one column per unknown and a last
    column for the part free of the unknowns.  Raises NotPolynomialError if
    a numerator is not polynomial in gens and the unknowns over that field,
    or not linear in the unknowns."""
    # denominators are free of the unknowns, so the numerator over any common
    # denominator has the same solutions; as_numer_denom skips together's gcd
    nums = [ex.as_sym(e).as_numer_denom()[0] for e in eqs]
    if gens is None:
        gens = _generators(nums, _OPAQUE + (sp.exp, sp.sin, sp.cos))
    gens = [g for g in gens if g not in unknowns]
    n = len(unknowns)
    ring, polys = _param_polys(nums, gens + list(unknowns))
    rows = {}
    for i, poly in enumerate(polys):
        for monom, c in poly.items():
            linear = monom[len(gens):]
            if sum(linear) > 1:
                raise ex.NotPolynomialError(f"not linear in the unknowns: {nums[i]}")
            col = linear.index(1) if any(linear) else n
            rows.setdefault((i, monom[:len(gens)]), {})[col] = c
    return DomainMatrix(dict(enumerate(rows.values())), (len(rows), n + 1),
                        ring.domain).rref()


def _linear_expand(target, basis):
    """The coefficients c_k, free of the generators, with target = sum of
    c_k * basis[k] slot by slot (target and each basis element are sequences
    of expressions); None if there are none, "degenerate" if they are not
    unique."""
    cs = [sp.Dummy(f"c{k}") for k in range(len(basis))]
    eqs = [ex.as_sym(t) - sum(c * ex.as_sym(b) for c, b in zip(cs, bs))
           for t, *bs in zip(target, *basis)]
    rref, pivots = _split_solve(eqs, cs)
    n = len(cs)
    if n in pivots:
        return None
    if len(pivots) < n:
        return "degenerate"
    return tuple(rref.domain.to_sympy(-rref[i, n].element) for i in range(n))


def proportional(e1, e2):
    """Nonzero scalar lambda with e1 = lambda * e2, or None: the expansion of
    e1 in the basis (e2,)."""
    s1, s2 = ex.as_sym(e1), ex.as_sym(e2)
    if s1 == 0 or s2 == 0:
        return sp.Integer(1) if s1 == 0 and s2 == 0 else None
    lam = _linear_expand([s1], [[s2]])
    return None if lam is None else lam[0]


def _scale_free_key(e):
    """Canonical form of a nonzero equation up to a nonzero factor that
    depends only on the parameters: two equations get the same key exactly
    when proportional() relates them.

    The numerator of e is read in the sparse ring of polynomials in its
    opaque functions, their derivatives and t, x, u, v, over the field of
    rational functions of the remaining symbols (_param_polys), and made
    monic.  The key is the generators with the monic coefficients as sympy
    expressions, which do not depend on symbols that only the scale factor
    carried.  The generators stay in the key: the numerators of
    Derivative(xi0(t), t) and Derivative(xi1(t), t) have the same monomials.
    Raises NotPolynomialError if e is not of that form."""
    num, den = ex.as_sym(e).as_numer_denom()
    if _generators([den]):
        raise ex.NotPolynomialError(f"denominator involves a generator: {den}")
    gens = _generators([num])
    ring, (poly,) = _param_polys([num], gens)
    return tuple(gens), frozenset((monom, ring.domain.to_sympy(c))
                                  for monom, c in poly.monic().items())


def generate_determining(sys=None, full_deps=True):
    """Split the invariance conditions of the generic operator over jet
    monomials.  The artifact derives, rather than assumes, the dependency
    reductions xi0=xi0(t), xi1=xi1(t,x).

    The raw restricted condition goes to collect_jet unnormalized: it is
    expanded and grouped by monomial, and only each group is normalized,
    so the large canonical form of the whole condition is never built.

    Equations are identified up to a nonzero factor that depends only on the
    parameters: a split coefficient is kept when its _scale_free_key has not
    been seen, so the first of each proportional class represents it."""
    if sys is None:
        sys = SKTSystem.generic()
    Xf = opaque_field(full_deps=full_deps)
    P = prolong2(Xf)
    raw_split = {}
    for k in (1, 2):
        r = manifold_restrict(apply_prolonged(P, sys.S_raw(k)), sys)
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


def _forced_zero_derivatives(equations, targets):
    """Which of `targets` are forced to vanish by the equations?  Every opaque
    derivative of the target functions is an unknown, and only the equations
    in no other derivatives are read; they are split over monomials in (u, v)
    by one _split_solve, and an unknown is forced to vanish exactly when its
    pivot row has no other nonzero entry."""
    funcs = {d.expr.func for d in targets}
    eqs, unknowns = [], set(targets)
    for eq in equations:
        s = ex.as_sym(eq)
        derivs = s.atoms(sp.Derivative)
        if not derivs or any(d.expr.func not in funcs for d in derivs):
            continue
        unknowns |= derivs
        eqs.append(s)
    unknowns = sorted(unknowns, key=sp.default_sort_key)
    rref, pivots = _split_solve(eqs, unknowns, gens=(U, V))
    rows = rref.to_dod()
    return {unknowns[j] for i, j in enumerate(pivots)
            if j < len(unknowns) and len(rows[i]) == 1 and unknowns[j] in targets}


def golden_compare():
    """Compare the generated determining system with the printed one.

    The five dependency relations (the first golden item) are the forced
    zeros of the full-dependency split (_forced_zero_derivatives).  The
    remaining 16 items are matched against the restricted-dependency split
    up to a nonzero factor that depends only on the parameters: each printed
    equation looks up the generated one with the same _scale_free_key, and
    proportional() solves for the factor through the same layer."""
    report = GoldenReport()
    printed = printed_determining_equations()

    full = generate_determining(full_deps=True)
    forced = _forced_zero_derivatives(full.equations, printed[10])
    for target in printed[10]:
        if target in forced:
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
    """[X, Y], componentwise X(Y_i) - Y(X_i) on (xi0, xi1, eta1, eta2), with
    one normalize per slot.  The normalized slots are kept per pair of raw
    coefficient tuples (_bracket), so a pair that several entries list is
    bracketed once per process."""
    coeffs = _bracket(tuple(c.sym for c in Xf.coeffs()),
                      tuple(c.sym for c in Yf.coeffs()))
    name = None
    if Xf.name and Yf.name:
        name = f"[{Xf.name},{Yf.name}]"
    return VectorField.make(*coeffs, name=name)


@lru_cache(maxsize=256)
def _bracket(xs, ys):
    """The four normalized slots of [X, Y] for the raw coefficients xs of X
    and ys of Y.  The key is raw sympy, so a lookup compares structure and
    never runs the zero test that Expression equality runs.  A catalog
    validation brackets 78 distinct pairs."""
    Xf, Yf = (VectorField(*map(Expression, cs)) for cs in (xs, ys))
    return tuple(ex.normalize(Xf.apply(yc) - Yf.apply(xc))
                 for xc, yc in zip(xs, ys))


@dataclass
class ClosureReport:
    closes: bool
    constants: dict            # (i, j) -> tuple of expansion coefficients
    failures: list             # (i, j, residual VectorField)
    degenerate: list           # pairs where the linear solve was ambiguous

    def __bool__(self):
        return self.closes


def closure_check(ops):
    """Check that the span of `ops` closes under the commutator.  The
    structure constants expand each commutator in `ops` through the linear
    layer (_linear_expand); a commutator it cannot split raises
    NotPolynomialError."""
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
            res = _linear_expand(C.coeffs(), [op.coeffs() for op in ops])
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
        return cls(*[ex.as_expression(m) for m in (t_map, x_map, u_map, v_map)],
                   name=name)


class TransformError(ex.ExprError):
    pass


@dataclass(frozen=True)
class TransformResult:
    """The image of a system under a point transformation.  When the image
    fits the 12-parameter template, `system` holds the fitted parameters;
    otherwise `raw_equations` holds its right-hand sides for u_t and v_t in
    the new coordinates, and `note` says whether it is outside the template
    (a time-dependent image included) or its second equation lost its
    diffusion."""

    is_skt: bool
    system: SKTSystem | None
    raw_equations: tuple | None
    note: str = ""


def _affine_block(um, vm):
    """Extract the (u,v)-affine structure of the maps; coefficients may
    depend on t."""
    out = []
    for m in (um, vm):
        s = sp.expand(m)
        A = ex.partial(s, U)
        B = ex.partial(s, V)
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
    d = sp.cancel(ex.partial(s, T))
    if not d.has(T) and not d.atoms(sp.exp):
        if sp.expand(s - d * T) != 0:
            raise TransformError(f"time map {s} outside the supported family")
        return d, None
    exps = s.atoms(sp.exp)
    if len(exps) == 1:
        E = list(exps)[0]
        rate = sp.cancel(ex.partial(E.args[0], T))
        coeff = sp.cancel(s / E)
        if not coeff.has(T) and not rate.has(T):
            return ex.partial(s, T), rate
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


def _coordinate_change(Tr):
    """The change to the coordinates of Tr, as (tprime, to_new): tprime is
    dt*/dt, and to_new maps a raw expression in t, x, u, v and the x-jets of
    u, v up to order 2 to the same quantity written in t*, x*, u*, v* and
    their x*-jets, for which the same symbols then stand.  Raises
    TransformError for a map outside the supported family."""
    (A, B, g), (C, D, h) = _affine_block(Tr.u_map.sym, Tr.v_map.sym)
    det = sp.cancel(A * D - B * C)
    if det == 0:
        raise TransformError("(u,v) block of the transformation is singular")
    tm, xm = Tr.t_map.sym, Tr.x_map.sym
    cx = sp.cancel(ex.partial(xm, X))
    if xm != X and (cx.has(X) or sp.expand(xm - cx * X) != 0):
        raise TransformError(f"space map {xm} outside the supported family")
    tprime, rate = _time_map(tm)
    # (u, v) in terms of (u*, v*); each x-derivative picks up a factor cx
    space = {X: X / cx}
    for dep, num in ((1, D * (U - g) - B * (V - h)),
                     (2, A * (V - h) - C * (U - g))):
        inv = sp.cancel(num / det)
        cu, cv = ex.partial(inv, U), ex.partial(inv, V)
        space[jet(dep, 0, 0)] = inv
        for nx in (1, 2):
            space[jet(dep, 0, nx)] = cx ** nx * (cu * jet(1, 0, nx)
                                                 + cv * jet(2, 0, nx))

    def to_new(s):
        s = sp.cancel(s.xreplace(space))
        if rate is not None:
            return _rewrite_exp_t(s, rate, tm)
        return s.xreplace({T: T / tprime})
    return tprime, to_new


def transform_system(sys, Tr):
    """The image of the system under a point transformation of the supported
    family, fitted to the 12-parameter template.  The equation for u* =
    u_map is u*_t* = D_t(u_map) / tprime with u_t, v_t replaced by the
    system's right-hand sides, written in the new coordinates
    (_coordinate_change); likewise for v*."""
    tprime, to_new = _coordinate_change(Tr)
    image = [to_new(manifold_restrict(total_derivative(m, T), sys) / tprime)
             for m in (Tr.u_map.sym, Tr.v_map.sym)]
    return _fit_template(image)


_TEMPLATE_GENS = (T, X, U, V, jet(1, 0, 1), jet(2, 0, 1), jet(1, 0, 2), jet(2, 0, 2))


def _fit_template(image):
    """Fit the image (the right-hand sides for u_t and v_t) to the
    12-parameter template: one _split_solve over the monomials in t, x, u, v
    and the x-jets, with the parameters as unknowns.  An inconsistent fit (a
    pivot in the last column) or an image that is not polynomial over the
    parameter field is outside the template."""
    unknowns = [sp.Dummy(k) for k in _PARAM_KEYS]
    template = SKTSystem(**{k: Expression(d) for k, d in zip(_PARAM_KEYS, unknowns)})
    n = len(unknowns)
    try:
        rref, pivots = _split_solve(
            [r - template.rhs_raw(k) for k, r in zip((1, 2), image)],
            unknowns, gens=_TEMPLATE_GENS)
    except ex.NotPolynomialError:
        pivots = (n,)
    if n not in pivots:
        # the template's columns are independent, so every unknown is a pivot
        system = SKTSystem.make(**{k: rref.domain.to_sympy(-rref[i, n].element)
                                   for i, k in enumerate(_PARAM_KEYS)})
        if not all(getattr(system, k).is_zero for k in ("d2", "d21", "d22")):
            return TransformResult(True, system, None)
        note = "second equation lost its diffusion"
    else:
        note = "image outside the SKT template"
    return TransformResult(False, None, tuple(ex.normalize(r) for r in image),
                           note=note)


def pushforward(Xf, Tr):
    """Push a vector field forward along a point transformation of the
    supported family: the new coefficients are Xf applied to the new
    coordinate functions (t_map, x_map, u_map, v_map), written in the new
    coordinates (_coordinate_change)."""
    _, to_new = _coordinate_change(Tr)
    comps = [to_new(Xf.apply(m))
             for m in (Tr.t_map, Tr.x_map, Tr.u_map, Tr.v_map)]
    return VectorField.make(*comps, name=(Xf.name or "X") + "*")
