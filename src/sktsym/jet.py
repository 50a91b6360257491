"""Vector fields on (t, x, u, v), total derivatives on second-order jet
space, and the second prolongation of a point-symmetry generator, whose
coefficients are built and normalized only when an equation uses them."""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

from . import expr as ex
from .expr import Expression, T, U, V, X, jet


class JetOrderError(ex.ExprError):
    pass


def _as_sym(e):
    return e.sym if isinstance(e, Expression) else sp.sympify(e)


@dataclass(frozen=True)
class VectorField:
    """Infinitesimal operator xi0*dt + xi1*dx + eta1*du + eta2*dv."""

    xi0: Expression
    xi1: Expression
    eta1: Expression
    eta2: Expression
    name: str | None = None

    def __post_init__(self):
        for c in self.coeffs():
            if any(c.has(j) for j in ex.ALL_JET_SYMBOLS if j not in (U, V)):
                raise ex.ExprError(f"vector field coefficient has jet variables: {c}")

    @classmethod
    def make(cls, xi0, xi1, eta1, eta2, name=None):
        return cls(*[c if isinstance(c, Expression) else ex.normalize(c)
                     for c in (xi0, xi1, eta1, eta2)], name=name)

    def coeffs(self):
        return (self.xi0, self.xi1, self.eta1, self.eta2)

    def __add__(self, other):
        return VectorField.make(*[a + b for a, b in zip(self.coeffs(), other.coeffs())])

    def __sub__(self, other):
        return VectorField.make(*[a - b for a, b in zip(self.coeffs(), other.coeffs())])

    def __rmul__(self, scalar):
        return VectorField.make(*[scalar * c for c in self.coeffs()])

    def __neg__(self):
        return (-1) * self

    def is_zero(self):
        return all(c.is_zero for c in self.coeffs())

    def equals(self, other):
        return all((a - b).is_zero for a, b in zip(self.coeffs(), other.coeffs()))

    def apply(self, e, raw=False):
        """First-order action X(e) on an order-0 expression."""
        s = _as_sym(e)
        out = (self.xi0.sym * sp.diff(s, T) + self.xi1.sym * sp.diff(s, X)
               + self.eta1.sym * sp.diff(s, U) + self.eta2.sym * sp.diff(s, V))
        return out if raw else ex.normalize(out)

    def render(self):
        lines = [f"{k}={ex.render(c)}" for k, c in
                 zip(("xi0", "xi1", "eta1", "eta2"), self.coeffs())]
        return "\n".join(lines)

    @classmethod
    def parse(cls, text, name=None, extra=None):
        vals = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            key, _, rhs = line.partition("=")
            vals[key.strip()] = ex.parse(rhs, extra=extra)
        return cls.make(vals["xi0"], vals["xi1"], vals["eta1"], vals["eta2"], name=name)

    def __repr__(self):
        label = self.name or "X"
        return (f"VectorField<{label}>(xi0={self.xi0.sym}, xi1={self.xi1.sym}, "
                f"eta1={self.eta1.sym}, eta2={self.eta2.sym})")


def total_derivative(e, wrt, raw=False):
    """Total derivative D_t or D_x of an expression with jet variables of
    order <= 1 only (so the result stays within the order-2 jet space)."""
    s = _as_sym(e)
    if isinstance(wrt, str):
        wrt = {"t": T, "x": X}[wrt]
    for j in ex.ALL_JET_SYMBOLS:
        if sum(ex._jet_index(j)[1:]) >= 2 and s.has(j):
            raise JetOrderError(
                f"input has order-2 jet {j}; total derivative "
                "would leave the supported jet space")
    out = _total_raw(s, wrt)
    return out if raw else ex.normalize(out)


def _total_raw(s, wrt):
    """Unchecked total derivative on raw sympy: the chain rule runs through
    every jet variable of s, up to the internal order-3 x-jets."""
    dt, dx = (1, 0) if wrt == T else (0, 1)
    out = sp.diff(s, wrt)
    for j in ex.ALL_JET_SYMBOLS:
        if s.has(j):
            dep, nt, nx = ex._jet_index(j)
            try:
                nxt = jet(dep, nt + dt, nx + dx)
            except ex.ExprError as exc:
                raise JetOrderError(str(exc))
            out += nxt * sp.diff(s, j)
    return out


class ProlongedField:
    """Second prolongation of a vector field, built on demand.

    coeff(dep, nt, nx) is the coefficient of d/du^dep_{t^nt x^nx} for
    1 <= nt + nx <= 2, from the standard recursion over multi-indices J
        phi_{J+var} = D_var(phi_J) - u_{J+t} D_var(xi0) - u_{J+x} D_var(xi1),
    phi_0 = eta.  A coefficient is built and normalized the first time it is
    asked for, so a check on an equation without u_tt or u_tx never builds
    those.  Raw and normalized coefficients are memoized on the instance."""

    def __init__(self, base):
        self.base = base
        self._raw = {(1, 0, 0): base.eta1.sym, (2, 0, 0): base.eta2.sym}
        self._coeffs = {}

    def coeff(self, dep, nt, nx):
        key = (dep, nt, nx)
        if key not in self._coeffs:
            if dep not in (1, 2) or nt < 0 or nx < 0 or not 1 <= nt + nx <= 2:
                raise KeyError(key)
            self._coeffs[key] = ex.normalize(self._raw_coeff(dep, nt, nx))
        return self._coeffs[key]

    def _raw_coeff(self, dep, nt, nx):
        key = (dep, nt, nx)
        if key not in self._raw:
            # phi_tt = D_t(phi_t), phi_tx = D_x(phi_t), phi_xx = D_x(phi_x)
            var, pt, px = (X, nt, nx - 1) if nx else (T, nt - 1, nx)
            xi0, xi1 = self.base.xi0.sym, self.base.xi1.sym
            self._raw[key] = (_total_raw(self._raw_coeff(dep, pt, px), var)
                              - jet(dep, pt + 1, px) * _total_raw(xi0, var)
                              - jet(dep, pt, px + 1) * _total_raw(xi1, var))
        return self._raw[key]


def prolong2(field):
    """Second prolongation of the field; coefficients are built lazily by
    ProlongedField.coeff."""
    return ProlongedField(field)


def apply_prolonged(P, e, raw=False):
    """Directional derivative of e along the prolonged field.  Only the
    coefficients of the jets that e contains are built."""
    s = _as_sym(e)
    out = P.base.apply(s, raw=True)
    for dep in (1, 2):
        for nt, nx in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            j = jet(dep, nt, nx)
            if s.has(j):
                out += P.coeff(dep, nt, nx).sym * sp.diff(s, j)
    return out if raw else ex.normalize(out)
