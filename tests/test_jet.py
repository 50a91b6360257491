import pytest
import sympy as sp

from sktsym import catalog as cat_mod
from sktsym import expr as ex
from sktsym import invariance as inv
from sktsym import jet as jet_mod
from sktsym.expr import T, U, V, X, jet
from sktsym.jet import VectorField, apply_prolonged, prolong2, total_derivative
from sktsym.invariance import commutator


UX = ex.jet(1, 0, 1)
UT = ex.jet(1, 1, 0)
UXX = ex.jet(1, 0, 2)
VX = ex.jet(2, 0, 1)


class TestTotalDerivative:
    def test_base_variable(self):
        assert total_derivative(ex.normalize(U), X) == ex.normalize(UX)

    def test_product_rule(self):
        e = ex.normalize(U * V)
        expect = ex.normalize(UX * V + U * VX)
        assert total_derivative(e, X) == expect

    def test_explicit_x_dependence(self):
        e = ex.normalize(X * U)
        assert total_derivative(e, X) == ex.normalize(U + X * UX)

    def test_time_direction(self):
        assert total_derivative(ex.normalize(U), T) == ex.normalize(UT)


class TestProlongation:
    def test_translation_has_trivial_coefficients(self):
        P = prolong2(VectorField.make("0", "1", "0", "0"))
        assert P.coeff(1, 0, 1).is_zero
        assert P.coeff(1, 0, 2).is_zero
        assert P.coeff(2, 1, 0).is_zero

    def test_vertical_field_coefficients(self):
        # eta1 = u: first/second prolongations are the matching jets
        P = prolong2(VectorField.make("0", "0", "u", "0"))
        assert P.coeff(1, 0, 1) == ex.normalize(UX)
        assert P.coeff(1, 0, 2) == ex.normalize(UXX)
        assert P.coeff(1, 1, 0) == ex.normalize(UT)

    def test_x_scaling_coefficients(self):
        # xi1 = x: u_x coefficient is -u_x, u_xx coefficient is -2 u_xx,
        # and the u_t coefficient vanishes
        P = prolong2(VectorField.make("0", "x", "0", "0"))
        assert P.coeff(1, 0, 1) == ex.normalize(-UX)
        assert P.coeff(1, 0, 2) == ex.normalize(-2 * UXX)
        assert P.coeff(1, 1, 0).is_zero

    def test_apply_prolonged_is_derivation(self):
        P = prolong2(VectorField.make("0", "0", "u", "v"))
        a = ex.normalize(U * UX)
        b = ex.normalize(V ** 2)
        lhs = apply_prolonged(P, a * b)
        rhs = apply_prolonged(P, a) * b + a * apply_prolonged(P, b)
        assert lhs == rhs


def _eager_total(s, wrt):
    step = (1, 0) if wrt == T else (0, 1)
    out = sp.diff(s, wrt)
    for dep in (1, 2):
        for nt in range(3):
            for nx in range(4):
                if s.has(jet(dep, nt, nx)):
                    out += (jet(dep, nt + step[0], nx + step[1])
                            * sp.diff(s, jet(dep, nt, nx)))
    return out


def _eager_prolong2(field):
    """All ten coefficients at once, by the recursion written out per order:
    rho^k_mu = D_mu(eta^k) - u^k_t D_mu(xi0) - u^k_x D_mu(xi1),
    sigma^k_{mu nu} = D_nu(rho^k_mu) - u^k_{t mu} D_nu(xi0) - u^k_{x mu} D_nu(xi1)."""
    xi0, xi1 = field.xi0.sym, field.xi1.sym
    out = {}
    for dep, eta in ((1, field.eta1.sym), (2, field.eta2.sym)):
        rho = {}
        for mu, var in (("t", T), ("x", X)):
            rho[mu] = (_eager_total(eta, var)
                       - jet(dep, 1, 0) * _eager_total(xi0, var)
                       - jet(dep, 0, 1) * _eager_total(xi1, var))
        out[(dep, 1, 0)], out[(dep, 0, 1)] = rho["t"], rho["x"]
        for mu, nu, var in (("t", "t", T), ("t", "x", X), ("x", "x", X)):
            ut_mu = jet(dep, 1 + (mu == "t"), (mu == "x"))
            ux_mu = jet(dep, (mu == "t"), 1 + (mu == "x"))
            key = (dep, (mu == "t") + (nu == "t"), (mu == "x") + (nu == "x"))
            out[key] = (_eager_total(rho[mu], var)
                        - ut_mu * _eager_total(xi0, var)
                        - ux_mu * _eager_total(xi1, var))
    return {k: ex.normalize(v) for k, v in out.items()}


ALL_TEN = [(dep, nt, nx) for dep in (1, 2) for nt in range(3) for nx in range(3)
           if 1 <= nt + nx <= 2]
SKT_JETS = {(dep, nt, nx) for dep in (1, 2) for nt, nx in ((1, 0), (0, 1), (0, 2))}


class _CountingExpr:
    """Stands in for the expr module inside sktsym.jet and records every
    normalize call made from there."""

    def __init__(self):
        self.normalized = []

    def __getattr__(self, name):
        return getattr(ex, name)

    def normalize(self, e, *args, **kwargs):
        self.normalized.append(e)
        return ex.normalize(e, *args, **kwargs)


class TestLazyProlongation:
    @pytest.mark.parametrize("field", [
        pytest.param(lambda: inv.opaque_field(full_deps=True), id="generic-full-deps"),
        pytest.param(lambda: cat_mod.Catalog.load().operator("Q1"), id="catalog-Q1-exp"),
        pytest.param(lambda: VectorField.make("sqrt(1+t^2)", "x*exp(t)", "u/(u-v)",
                                              "sqrt(x)*v"), id="sqrt-exp"),
    ])
    def test_every_coefficient_equals_the_eager_recursion(self, field):
        fld = field()
        expect = _eager_prolong2(fld)
        P = prolong2(fld)
        for key in reversed(ALL_TEN):   # second order first: builds its own rho
            assert P.coeff(*key).sym == expect[key].sym, key

    def test_check_invariance_normalizes_only_the_six_skt_coefficients(self, monkeypatch):
        system = inv.SKTSystem.generic()
        field = VectorField.make("2*t", "x", "0", "0")
        counting = _CountingExpr()
        made = []

        def recording_prolong2(field):
            made.append(jet_mod.prolong2(field))
            return made[-1]

        monkeypatch.setattr(jet_mod, "ex", counting)
        monkeypatch.setattr(inv, "prolong2", recording_prolong2)
        inv.check_invariance(system, field)
        (P,) = made
        # the generic system couples u and v, so both equations ask for the
        # u- and v-coefficients: a coefficient built twice shows up here
        assert set(P._coeffs) == SKT_JETS
        assert len(counting.normalized) == len(SKT_JETS)

    @pytest.mark.parametrize("key", [(1, 0, 0), (1, 0, 3), (2, 3, 0), (3, 1, 0)])
    def test_coeff_outside_orders_one_and_two_raises(self, key):
        P = prolong2(VectorField.make("t", "x", "u", "v"))
        with pytest.raises(KeyError):
            P.coeff(*key)


class TestCommutator:
    def test_translations_commute(self):
        pt = VectorField.make("1", "0", "0", "0")
        px = VectorField.make("0", "1", "0", "0")
        c = commutator(pt, px)
        assert all(e.is_zero for e in (c.xi0, c.xi1, c.eta1, c.eta2))

    def test_translation_vs_scaling(self):
        px = VectorField.make("0", "1", "0", "0")
        d = VectorField.make("0", "x", "0", "0")
        c = commutator(px, d)
        assert c.xi1 == ex.normalize(1)
        assert c.xi0.is_zero and c.eta1.is_zero and c.eta2.is_zero

    def test_antisymmetry(self):
        a = VectorField.make("t", "x/2", "-u", "-v")
        b = VectorField.make("0", "1", "u", "0")
        ab = commutator(a, b)
        ba = commutator(b, a)
        assert ab.xi0 == -ba.xi0 and ab.xi1 == -ba.xi1
        assert ab.eta1 == -ba.eta1 and ab.eta2 == -ba.eta2
