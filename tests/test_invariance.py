import pytest
import sympy as sp

from sktsym import catalog as cg
from sktsym import expr as ex
from sktsym import invariance as inv
from sktsym.expr import T, U, V, X
from sktsym.jet import VectorField


def cross_system():
    # u_t = [uv]_xx - uv, v_t = [uv]_xx - uv
    return inv.SKTSystem.make(d12="1", d21="1", c1="1", b2="1")


class TestSKTSystem:
    def test_generic_has_twelve_symbolic_parameters(self):
        g = inv.SKTSystem.generic()
        params = g.params()
        assert len(params) == 12
        assert all(not p.sym.is_number for p in params.values())

    def test_swap_uv_on_symmetric_system(self):
        s = cross_system()
        assert s.swap_uv().equals(s)

    def test_subs_parameters(self):
        g = inv.SKTSystem.generic()
        zeroed = g.subs({"d11": 0, "d12": 0, "d21": 0, "d22": 0})
        assert zeroed.params()["d11"].is_zero

    def test_rhs_contains_reaction_terms(self):
        s = cross_system()
        r = ex.normalize(s.rhs_raw(1))
        # the u-equation reaction term is -u*v
        no_diff = r.sym.xreplace({j: 0 for j in ex.ALL_JET_SYMBOLS
                                  if j not in (U, V)})
        assert sp.expand(no_diff + U * V) == 0


class TestManifoldRestrict:
    def test_time_derivatives_eliminated(self):
        s = cross_system()
        ut = ex.jet(1, 1, 0)
        r = ex.normalize(inv.manifold_restrict(ex.normalize(ut), s))
        assert r == ex.normalize(s.rhs_raw(1))

    def test_pure_space_jet_untouched(self):
        s = cross_system()
        uxx = ex.jet(1, 0, 2)
        r = ex.normalize(inv.manifold_restrict(ex.normalize(uxx), s))
        assert r == ex.normalize(uxx)

    def test_second_time_derivative_reaches_fixed_point(self):
        # u_tt -> D_t(rhs) brings back u_t and u_tx, which later passes remove
        s = cross_system()
        r = ex.normalize(inv.manifold_restrict(ex.normalize(ex.jet(1, 2, 0)), s))
        assert not r.has(ex.jet(1, 1, 0), ex.jet(2, 1, 0), ex.jet(1, 1, 1),
                         ex.jet(2, 1, 1), ex.jet(1, 2, 0), ex.jet(2, 2, 0))

    def test_no_fixed_point_raises(self, monkeypatch):
        monkeypatch.setattr(inv, "_RESTRICT_PASSES", 1)
        with pytest.raises(ex.ExprError, match="no fixed point"):
            inv.manifold_restrict(ex.normalize(ex.jet(1, 2, 0)), cross_system())


class TestCheckInvariance:
    def test_translations_always_invariant(self):
        s = inv.SKTSystem.generic()
        for f in (VectorField.make("1", "0", "0", "0"),
                  VectorField.make("0", "1", "0", "0")):
            assert inv.check_invariance(s, f).invariant

    def test_nonlinear_operator_invariant(self):
        s = cross_system()
        z = VectorField.make("0", "0", "exp(x)/(u-v)", "-exp(x)/(u-v)")
        v = inv.check_invariance(s, z)
        assert v.invariant

    def test_sign_mutation_breaks_invariance(self):
        # same operator against the +uv variant must fail
        s = inv.SKTSystem.make(d12="1", d21="1", c1="-1", b2="-1")
        z = VectorField.make("0", "0", "exp(x)/(u-v)", "-exp(x)/(u-v)")
        v = inv.check_invariance(s, z)
        assert not v.invariant
        assert v.witnesses

    def test_scaling_needs_right_weights(self):
        s = cross_system()
        good = VectorField.make("t", "0", "-u", "-v")
        bad = VectorField.make("t", "0", "-u", "-2*v")
        assert inv.check_invariance(s, good).invariant
        assert not inv.check_invariance(s, bad).invariant


class TestClosure:
    def test_three_dimensional_algebra_closes(self):
        ops = [VectorField.make("1", "0", "0", "0"),
               VectorField.make("0", "1", "0", "0"),
               VectorField.make("t", "0", "-u", "-v")]
        rep = inv.closure_check(ops)
        assert rep.closes
        assert not rep.failures

    def test_open_set_detected(self):
        # [P_x, x*P_x] = P_x is in span, but [x*P_x, x^2*P_x] = x^2*P_x
        # requires the missing third element
        ops = [VectorField.make("0", "1", "0", "0"),
               VectorField.make("0", "x^2", "0", "0")]
        rep = inv.closure_check(ops)
        assert not rep.closes

    def test_repeated_commutator_runs_no_zero_test(self, monkeypatch):
        a = VectorField.make("t", "x/2", "-u", "exp(x)/(u - v)")
        b = VectorField.make("0", "1", "u", "0")
        first = inv.commutator(a, b)
        calls = []

        def counting_iszero(*args, **kwargs):
            calls.append(args)
            return ex_iszero(*args, **kwargs)

        ex_iszero = ex.iszero
        monkeypatch.setattr(ex, "iszero", counting_iszero)
        # equal fields built anew: the lookup compares raw sympy only
        again = inv.commutator(VectorField.make("t", "x/2", "-u", "exp(x)/(u - v)"),
                               VectorField.make("0", "1", "u", "0"))
        assert calls == []
        assert [c.sym for c in again.coeffs()] == [c.sym for c in first.coeffs()]

    def test_pairs_that_differ_in_one_slot_do_not_share_a_bracket(self, catalog):
        px, d2, d4, u_dv = (catalog.operator(n) for n in ("P_x", "D2", "D4", "u_dv"))
        # D2 and D4 share xi0 and xi1 and differ in eta1
        inv._bracket.cache_clear()
        inv.commutator(px, d2)
        inv.commutator(px, d4)
        assert inv._bracket.cache_info().misses == 2
        assert inv.commutator(d2, u_dv).is_zero()
        c = inv.commutator(d4, u_dv)
        assert c.eta2.sym == -2 * U
        assert c.xi0.is_zero and c.xi1.is_zero and c.eta1.is_zero

    def test_commutator_outside_the_polynomial_span_raises(self):
        # [P_x, sqrt(x)*P_x] = P_x/(2*sqrt(x)) is not in the span; it must not
        # pass as a degenerate pair of a closing algebra
        ops = [VectorField.make("0", "1", "0", "0"),
               VectorField.make("0", "sqrt(x)", "0", "0")]
        with pytest.raises(ex.NotPolynomialError):
            inv.closure_check(ops)


class TestRepeatedValidation:
    def test_second_run_in_one_process_gives_identical_rows(self):
        # a fresh catalog; the second run finds every prolongation, bracket
        # and partial of the first one kept
        cat = cg.Catalog.load()

        def rows():
            report = cat.validate_all(keys=[(2, 3), (2, 4)])
            control = cat.validate_all(keys=[(2, 4)], mutate={(2, 4): {"c1": "1"}})
            return report.rows + control.rows, report.notes + control.notes

        first, second = rows(), rows()
        assert second == first
        assert not all(r.invariant for r in first[0])


class TestPointTransformation:
    def test_identity_preserves_system(self):
        s = cross_system()
        ident = inv.PointTransformation.make()
        out = inv.transform_system(s, ident)
        assert out.system.equals(s)

    def test_u_v_swap_map(self):
        s = inv.SKTSystem.generic()
        swap = inv.PointTransformation.make(u_map="v", v_map="u")
        out = inv.transform_system(s, swap)
        assert out.system.equals(s.swap_uv())

    @pytest.mark.parametrize("key, sub_id", [
        ((1, 3), "37a:10"), ((1, 12), "37a:10"), ((2, 1), "112:1"),
        ((2, 3), "112:1"), ((2, 4), "112:1")])
    def test_time_dependent_image_is_not_skt(self, catalog, key, sub_id):
        # t is a generator of the template fit, so an image that keeps a
        # t-dependence is outside the template, not an error
        out = inv.transform_system(catalog.entry(*key).system,
                                   cg.substitution(sub_id))
        assert not out.is_skt and out.system is None
        assert out.note == "image outside the SKT template"
        assert any(r.has(T) for r in out.raw_equations)
        assert not any(r.sym.atoms(sp.Dummy) for r in out.raw_equations)

    def test_constant_term_is_outside_the_template(self, catalog):
        # the shift u -> u + d1/(2 d11) leaves a u-free reaction term
        out = inv.transform_system(catalog.entry(1, 3).system,
                                   cg.substitution("37a:3"))
        assert not out.is_skt
        assert out.note == "image outside the SKT template"

    def test_second_equation_without_diffusion_is_not_skt(self):
        # the swap moves the only diffusion into the second equation's slot
        s = inv.SKTSystem.make(d2="1", d21="1")
        swap = inv.PointTransformation.make(u_map="v", v_map="u")
        out = inv.transform_system(s, swap)
        assert not out.is_skt
        assert out.note == "second equation lost its diffusion"
        assert out.raw_equations[1].is_zero
        assert inv.transform_system(s.swap_uv(), swap).is_skt

    def test_singular_map_is_rejected(self):
        singular = inv.PointTransformation.make(u_map="u + v", v_map="u + v")
        with pytest.raises(inv.TransformError):
            inv.transform_system(cross_system(), singular)
        with pytest.raises(inv.TransformError):
            inv.pushforward(VectorField.make("1", "0", "0", "0"), singular)
