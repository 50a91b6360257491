"""Vector fields on (t, x, u, v), the total derivative on jet space, and the
second prolongation of a point-symmetry generator, whose coefficients are
built and normalized only when an equation uses them.  A field's action,
the one total derivative (total_derivative, raw sympy in and out) and the
prolonged action return raw sympy; the caller normalizes once.

What depends on one operator or one expression only is computed once per
process: a field keeps its one prolongation (VectorField.prolonged), and
every partial derivative these functions take goes through _partial, kept
per (raw sympy expression, variable)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import sympy as sp

from . import expr as ex
from .expr import Expression, T, U, V, X, jet


class JetOrderError(ex.ExprError):
    pass


_HIGHER_JETS = ex._JET_SET - {U, V}


@lru_cache(maxsize=512)
def _partial(s, var):
    """sp.diff(s, var) for raw sympy s, kept per (s, var): the partials of
    a system's S_raw(k) are taken once for all the operators checked on it,
    those of an operator coefficient once for all its brackets, and the
    jets of a solution family once for its symbolic and numeric residuals
    (solutions._jet_bindings).  The key is raw sympy, whose equality is
    structural.  A catalog validation takes 655 distinct partials, and at
    this bound it misses no repeated one."""
    return sp.diff(s, var)


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
            if c.sym.free_symbols & _HIGHER_JETS:
                raise ex.ExprError(f"vector field coefficient has jet variables: {c}")

    @classmethod
    def make(cls, xi0, xi1, eta1, eta2, name=None):
        """The field with coefficients through ex.as_expression: a string is
        read by the toolkit grammar, as an entry line of the catalog is."""
        return cls(*[ex.as_expression(c) for c in (xi0, xi1, eta1, eta2)],
                   name=name)

    def coeffs(self):
        return (self.xi0, self.xi1, self.eta1, self.eta2)

    def is_zero(self):
        return all(c.is_zero for c in self.coeffs())

    @cached_property
    def prolonged(self):
        """The field's one second prolongation: its coefficients, once built,
        serve every check of this field object."""
        return ProlongedField(self)

    def apply(self, e):
        """First-order action X(e) on an order-0 expression, as raw sympy."""
        s = ex.as_sym(e)
        return (self.xi0.sym * _partial(s, T) + self.xi1.sym * _partial(s, X)
                + self.eta1.sym * _partial(s, U) + self.eta2.sym * _partial(s, V))

    def __repr__(self):
        label = self.name or "X"
        return (f"VectorField<{label}>(xi0={self.xi0.sym}, xi1={self.xi1.sym}, "
                f"eta1={self.eta1.sym}, eta2={self.eta2.sym})")


def total_derivative(s, wrt):
    """The total derivative D_t (wrt=T) or D_x (wrt=X) of raw sympy s, as raw
    sympy: the chain rule runs through every jet variable of s, up to the
    internal order-3 x-jets.  Raises JetOrderError past them."""
    dt, dx = (1, 0) if wrt == T else (0, 1)
    out = _partial(s, wrt)
    for j in ex.jets_in(s):
        dep, nt, nx = ex._jet_index(j)
        try:
            nxt = jet(dep, nt + dt, nx + dx)
        except ex.ExprError as exc:
            raise JetOrderError(str(exc))
        out += nxt * _partial(s, j)
    return out


class ProlongedField:
    """Second prolongation of a vector field, built on demand.

    coeff(dep, nt, nx) is the coefficient of d/du^dep_{t^nt x^nx} for
    1 <= nt + nx <= 2, from the standard recursion over multi-indices J
        phi_{J+var} = D_var(phi_J) - u_{J+t} D_var(xi0) - u_{J+x} D_var(xi1),
    phi_0 = eta.  A coefficient is built and normalized the first time it is
    asked for, so a check on an equation without u_tt or u_tx never builds
    those.  Raw and normalized coefficients are memoized on the instance,
    and a field has one instance (VectorField.prolonged), so they are built
    once per field object however many systems it is checked on."""

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
            self._raw[key] = (
                total_derivative(self._raw_coeff(dep, pt, px), var)
                - jet(dep, pt + 1, px) * total_derivative(xi0, var)
                - jet(dep, pt, px + 1) * total_derivative(xi1, var))
        return self._raw[key]


def prolong2(field):
    """Second prolongation of the field: its one ProlongedField, kept on the
    field (VectorField.prolonged); coefficients are built lazily by
    ProlongedField.coeff."""
    return field.prolonged


def apply_prolonged(P, e):
    """Directional derivative of e along the prolonged field, as raw sympy.
    Only the coefficients of the jets that e contains are built, and the
    partials of e are kept by _partial, so a system's S_raw(k) is
    differentiated once for all the operators checked on it."""
    s = ex.as_sym(e)
    out = P.base.apply(s)
    present = s.free_symbols
    for dep in (1, 2):
        for nt, nx in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            j = jet(dep, nt, nx)
            if j in present:
                out += P.coeff(dep, nt, nx).sym * _partial(s, j)
    return out
