import pytest
import sympy as sp

from sktsym import expr as ex
from sktsym import invariance as inv
from sktsym.expr import T, U, V, X


@pytest.fixture(scope="module")
def generic_restricted():
    return inv.generate_determining(inv.SKTSystem.generic(), full_deps=False)


class TestScaleFreeKey:
    # printed equation (22): opaque derivatives with parameter and u, v
    # dependent coefficients
    EQ = ex.normalize(inv.printed_determining_equations()[22][0])

    def key(self, factor):
        return inv._scale_free_key(ex.normalize(factor * self.EQ.sym))

    def test_equal_under_parameter_only_factors(self):
        d1, d2, d12 = (ex.parameter(k) for k in ("d1", "d2", "d12"))
        base = inv._scale_free_key(self.EQ)
        for factor in (-1, 2, d12, 1 / (d1 - d2)):
            assert self.key(factor) == base
            assert hash(self.key(factor)) == hash(base)

    def test_differs_under_variable_or_opaque_factors(self):
        base = inv._scale_free_key(self.EQ)
        eta1 = sp.Function("eta1")(T, X, U, V)
        for factor in (U, T, eta1):
            assert self.key(factor) != base

    def test_generators_tell_equal_monomial_sets_apart(self):
        # both numerators are one generator to the first power, over the
        # generators (t, derivative): only the generators differ
        xi0t = sp.Derivative(sp.Function("xi0")(T), T)
        xi1t = sp.Derivative(sp.Function("xi1")(T), T)
        (gens0, monic0), (gens1, monic1) = (inv._scale_free_key(xi0t),
                                            inv._scale_free_key(xi1t))
        assert monic0 == monic1
        assert gens0 != gens1
        assert inv._scale_free_key(xi0t) != inv._scale_free_key(xi1t)

    def test_non_polynomial_input_raises(self):
        eta1 = sp.Function("eta1")(T, X, U, V)
        for bad in (sp.exp(U) * eta1, eta1 / V, sp.sin(X) * sp.Derivative(eta1, U)):
            with pytest.raises(ex.NotPolynomialError):
                inv._scale_free_key(bad)


class TestGenerateDetermining:
    def test_restricted_dependency_count(self, generic_restricted):
        assert len(generic_restricted.equations) == 16

    def test_keyed_dedupe_equals_pairwise_scan(self, generic_restricted):
        ds = generic_restricted
        pairwise = []
        for coeff in ds.raw_split.values():
            if not any(inv.proportional(coeff, e) for e in pairwise):
                pairwise.append(coeff)
        assert [e.sym for e in ds.equations] == [e.sym for e in pairwise]

    def test_equations_only_involve_coefficient_functions(self, generic_restricted):
        allowed = {"xi0", "xi1", "eta1", "eta2"}
        for e in generic_restricted.equations:
            funcs = {f.func.__name__ for f in e.sym.atoms(sp.Function)
                     if isinstance(f, sp.core.function.AppliedUndef)}
            assert funcs <= allowed

    def test_no_cross_diffusion_coefficients_after_zeroing(self):
        # with all nonlinear diffusion coefficients set to zero the equations
        # must reduce to the diagonal-diffusion determining set
        g = inv.SKTSystem.generic().subs(
            {"d11": 0, "d12": 0, "d21": 0, "d22": 0})
        ds = inv.generate_determining(g, full_deps=False)
        banned = {ex.parameter(n) for n in ("d11", "d12", "d21", "d22")}
        for e in ds.equations:
            assert not (e.sym.free_symbols & banned)
        assert 0 < len(ds.equations) <= 16

    def test_reference_list_has_seventeen_entries(self):
        printed = inv.printed_determining_equations()
        assert len(printed) == 17


class TestGoldenComparison:
    def test_generated_set_matches_reference(self, golden_report):
        assert not golden_report.discrepancies
        assert not golden_report.unmatched_generated
        assert len(golden_report.matches) == 17

    def test_sign_conventions_documented(self, golden_report):
        # four reference equations differ by an overall sign; anything else
        # must match exactly
        assert len(golden_report.sign_notes) == 4
