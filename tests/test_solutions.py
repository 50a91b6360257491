import mpmath
import pytest
import sympy as sp

from sktsym import expr as ex
from sktsym import solutions as so
from sktsym.expr import T, X
from sktsym.invariance import SKTSystem
from sktsym.jet import VectorField


class TestFamilies:
    def test_builtin_ids_and_aliases(self):
        assert "seed-ode" in so.BUILTIN_IDS
        a = so.builtin_family("3-6")
        b = so.builtin_family("family-exp")
        assert a.u_expr == b.u_expr

    def test_unknown_id_raises(self):
        with pytest.raises(so.SolutionError):
            so.builtin_family("no-such-family")

    def test_each_family_is_built_once(self, monkeypatch):
        fam = so.builtin_family("family-exp")
        assert so.builtin_family("family-exp") is fam
        assert so.builtin_family("3-6") is fam
        assert so.builtin_family("family-3-6", branch="upper") is fam
        ratio = so.builtin_family("steady-ratio", func="1+x^2")
        g = ex.as_expression("1+x^2")
        calls = []
        real = ex.iszero
        monkeypatch.setattr(ex, "iszero",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        assert so.builtin_family("steady-ratio", func="1+x^2") is ratio
        assert so.builtin_family("steady-ratio", func=g) is ratio
        assert calls == []
        monkeypatch.undo()
        assert so.builtin_family("family-exp", branch="lower") is not fam
        assert so.builtin_family("family-exp", branch="lower").branch == "lower"
        plus = so.builtin_family("steady-ratio", system_id=so.PLUS, func=g)
        assert plus is not ratio and plus.system_id == so.PLUS
        assert so.builtin_family("steady-ratio", func="2+sin(x)") is not ratio
        for _ in range(2):
            with pytest.raises(so.SolutionError):
                so.builtin_family("no-such-family")
            with pytest.raises(so.SolutionError):
                so.builtin_family("steady-ratio", system_id="3-9")

    def test_branch_swap(self):
        up = so.builtin_family("family-trig", branch="upper")
        lo = up.swap_branch()
        assert lo.branch == "lower"
        assert up.u_expr == lo.v_expr and up.v_expr == lo.u_expr

    def test_seed_is_space_independent(self):
        seed = so.builtin_family("seed-ode")
        assert ex.diff(seed.u_expr, X).is_zero
        assert ex.diff(seed.v_expr, X).is_zero


class TestResidual:
    def test_symbolic_zero_for_every_builtin(self):
        for fid in so.BUILTIN_IDS:
            fam = so.builtin_family(fid)
            r1, r2 = so.residual(fam.system(), fam)
            assert r1.is_zero and r2.is_zero, fid

    def test_wrong_system_is_nonzero(self):
        fam = so.builtin_family("family-exp")           # solves the -uv form
        wrong = so.target_system(so.PLUS)               # +uv form
        r1, r2 = so.residual(wrong, fam)
        assert not (r1.is_zero and r2.is_zero)

    def test_nonzero_residual_is_decided_without_normalize(self, monkeypatch):
        fam = so.builtin_family("family-exp")
        wrong = so.target_system(so.PLUS)
        calls = []
        real = ex.normalize
        monkeypatch.setattr(ex, "normalize",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        r1, r2 = so.residual(wrong, fam)
        assert not (r1.is_zero and r2.is_zero)
        assert calls == []

    def test_every_jet_is_a_kept_first_partial(self, partial_misses):
        # residual takes six first partials of the family through the
        # kernel's memo (expr.partial), u_xx as the x-partial of u_x;
        # residual_numeric of the same family then takes none afresh
        fam = so.builtin_family("family-exp")
        binds = self.NUMERIC_BINDINGS["family-exp"]
        r1, r2 = so.residual(fam.system(), fam)
        assert r1.is_zero and r2.is_zero
        first = list(partial_misses)
        u, v = fam.u_expr.sym, fam.v_expr.sym
        ux, vx = ex.partial(u, X), ex.partial(v, X)
        assert partial_misses == first
        tops = (u, v, ux, vx)
        taken = [(s, var) for s, var in first if s in tops]
        assert sorted(taken, key=str) == sorted(
            [(u, T), (u, X), (ux, X), (v, T), (v, X), (vx, X)], key=str)
        worst, _ = so.residual_numeric(fam.system(), fam, binds, points=2)
        assert worst < 1e-10
        assert partial_misses == first

    def test_numeric_oracle_independent(self):
        fam = so.builtin_family("family-trig")
        binds = {"alpha1": -1.0, "alpha2": -3.0, "p": 0.05,
                 "lambda1": 1.0, "lambda2": 0.3}
        worst, n = so.residual_numeric(fam.system(), fam, binds,
                                       points=10, seed=1)
        assert n == 10 and worst < 1e-10
        bad, _ = so.residual_numeric(so.target_system(so.MINUS), fam, binds,
                                     points=5, seed=1)
        assert bad > 1e-3

    NUMERIC_BINDINGS = {
        "seed-ode": {"alpha1": 0.8, "alpha2": 1.5},
        "family-exp": {"alpha1": 0.8, "alpha2": 1.5, "p": 0.03,
                       "lambda1": 0.5, "lambda2": 0.2},
        "family-trig": {"alpha1": -1.0, "alpha2": -3.0, "p": 0.05,
                        "lambda1": 1.0, "lambda2": 0.3},
        "steady-ratio": {"lambda1": 1.0, "lambda2": 0.5},
        "reduced-a": {"lambda1": 2.0, "lambda2": -1.0},
        "reduced-b": {"alpha1": 0.3, "lambda1": 3.0, "lambda2": -1.0},
        "reduced-c": {"alpha1": 0.4, "alpha2": 0.5, "lambda1": 2.0,
                      "lambda2": -1.0},
    }

    @pytest.mark.parametrize("fid", sorted(NUMERIC_BINDINGS))
    def test_compiled_residual_agrees_with_evalf(self, fid):
        # the raw residuals on the family's own system (near zero) and on
        # the other one (of order one), against evalf(30) as the reference
        fam = so.builtin_family(fid)
        binds = self.NUMERIC_BINDINGS[fid]
        b = so._jet_bindings(fam)
        raws = [sys.S_raw(k).xreplace(b)
                for sys in (so.target_system(so.MINUS),
                            so.target_system(so.PLUS))
                for k in (1, 2)]
        for pt in so.sample_points(fam, binds, points=3, seed=5):
            subs = {ex.parameter(k) if isinstance(k, str) else k:
                    sp.Float(v, 30) for k, v in pt.items()}
            for r in raws:
                ref = r.xreplace(subs).evalf(30)
                with mpmath.workdps(30):
                    got = ex.eval_numeric(r, {k: mpmath.mpf(v)
                                              for k, v in pt.items()})
                assert abs(got - ref) <= 1e-25 * max(1, abs(ref)), (fid, pt)

    def test_residual_that_does_not_evaluate_raises(self):
        # the system's parameter beta is bound at no sample point
        fam = so.builtin_family("seed-ode")
        sys = SKTSystem.make(d12=1, d21=1, c1="beta", b2=1)
        with pytest.raises(so.SolutionError, match="did not evaluate"):
            so.residual_numeric(sys, fam, {"alpha1": 0.8, "alpha2": 1.5},
                                points=2)

    def test_sample_points_deterministic(self):
        fam = so.builtin_family("family-trig")
        binds = {"alpha1": -1.0, "alpha2": -3.0, "p": 0.05,
                 "lambda1": 1.0, "lambda2": 0.3}
        a = so.sample_points(fam, binds, points=5, seed=9)
        b = so.sample_points(fam, binds, points=5, seed=9)
        assert a == b
        # the (t, x) points at seed 9: reduced-c rejects the fourth draw
        draws = [(0.5167066220335194, 1.182604601045622),
                 (0.2246854712630097, 2.61302936496039),
                 (0.105791548673011, 1.5580680321514042),
                 (0.9084681730287443, 0.33436247683070297),
                 (0.5988434213604574, 1.8882851237824936),
                 (0.1368061889363304, 1.1991568527467635)]
        pinned = {"family-trig": draws[:5], "family-exp": draws[:5],
                  "reduced-c": draws[:3] + draws[4:]}
        for fid, want in pinned.items():
            pts = so.sample_points(so.builtin_family(fid),
                                   self.NUMERIC_BINDINGS[fid], points=5, seed=9)
            assert [(pt[T], pt[X]) for pt in pts] == want, fid


class TestConstraints:
    def test_holds_with_margin(self):
        c = so.Constraint("nonzero", ex.parse("u - v"))
        assert c.holds({ex.U: 1.0, ex.V: 0.0})
        assert not c.holds({ex.U: 1.0, ex.V: 0.95})

    def test_nonneg_margin(self):
        c = so.Constraint("nonneg", ex.parse("u"))
        assert c.holds({ex.U: 0.5})
        assert not c.holds({ex.U: 0.001})

    def test_render_parse_roundtrip(self):
        c = so.Constraint("nonzero", ex.parse("1 - alpha2*exp(alpha1*t)"))
        assert so.Constraint.parse("nonzero 1 - alpha2*exp(alpha1*t)") == c


class TestGroupOrbit:
    def test_identity_at_zero_parameter(self):
        seed = so.builtin_family("seed-ode")
        out = so.group_orbit(seed, 0, 1, 0, generator="X1")
        assert out.u_expr == seed.u_expr and out.v_expr == seed.v_expr

    def test_orbit_solves_the_system(self):
        seed = so.builtin_family("seed-ode")
        out = so.group_orbit(seed, ex.parameter("p"), generator="X1")
        r1, r2 = so.residual(out.system(), out)
        assert r1.is_zero and r2.is_zero

    def test_float_arguments_are_their_exact_values(self):
        seed = so.builtin_family("seed-ode")
        a = so.group_orbit(seed, 0.25, 0.5, 0.75, generator="X1")
        b = so.group_orbit(seed, sp.Rational(1, 4), sp.Rational(1, 2),
                           sp.Rational(3, 4), generator="X1")
        assert sp.srepr(a.u_expr.sym) == sp.srepr(b.u_expr.sym)
        assert sp.srepr(a.v_expr.sym) == sp.srepr(b.v_expr.sym)
        assert ([(c.kind, sp.srepr(c.expr.sym)) for c in a.constraints]
                == [(c.kind, sp.srepr(c.expr.sym)) for c in b.constraints])

    def test_float_parameter_leaves_no_float(self):
        seed = so.builtin_family("seed-ode")
        out = so.group_orbit(seed, 0.1, generator="X1")
        for e in (out.u_expr, out.v_expr, *(c.expr for c in out.constraints)):
            assert not e.sym.atoms(sp.Float)

    def test_generator_system_mismatch_rejected(self):
        seed = so.builtin_family("seed-ode")      # lives on the -uv system
        with pytest.raises(so.SolutionError):
            so.group_orbit(seed, 1, generator="X2")


@pytest.fixture(scope="module")
def ansatz():
    op = VectorField.make(
        "0", "1",
        "(lambda1*cos(x)+lambda2*sin(x))/(u-v)",
        "-(lambda1*cos(x)+lambda2*sin(x))/(u-v)")
    return so.reduce_ansatz(so.target_system(so.PLUS), op)


class TestReduction:

    def test_exactly_two_odes(self, ansatz):
        assert len(ansatz.reduced) == 2
        p1, p2 = so.PHI1, so.PHI2
        expected = [ex.normalize(sp.diff(p1, T) + 2 * p2),
                    ex.normalize(p1 * sp.diff(p1, T) + 2 * sp.diff(p2, T))]
        for want in expected:
            assert any(ex.iszero(o.sym - want.sym)
                       or ex.iszero(o.sym + want.sym)
                       for o in ansatz.reduced)

    def test_only_time_derivatives(self, ansatz):
        for o in ansatz.reduced:
            for d in o.sym.atoms(sp.Derivative):
                assert set(d.variables) == {T}

    def test_branches_satisfy_odes(self, ansatz):
        for name, (f1, f2) in so.reduction_solutions().items():
            assert so.check_reduction(ansatz, f1, f2), name

    def test_perturbed_branch_fails(self, ansatz):
        assert not so.check_reduction(ansatz, -2 / T + 1, -1 / T ** 2)

    @pytest.mark.parametrize("coeffs", [
        ("0", "1", "exp(x)/(u-v)", "-exp(x)/(u-v)"),
        ("1", "1", "cos(x)/(u-v)", "-cos(x)/(u-v)"),
    ], ids=["exp-profile", "xi0-nonzero"])
    def test_operator_outside_the_family_rejected(self, coeffs):
        with pytest.raises(so.SolutionError):
            so.reduce_ansatz(so.target_system(so.PLUS), VectorField.make(*coeffs))

    def test_wrong_system_rejected(self):
        op = VectorField.make("0", "1", "cos(x)/(u-v)", "-cos(x)/(u-v)")
        with pytest.raises(so.SolutionError):
            so.reduce_ansatz(so.target_system(so.MINUS), op)


class TestFlux:
    def test_full_interval_passes(self):
        trig = so.builtin_family("family-trig").subs(
            {ex.parameter("lambda2"): 0})
        assert so.flux_check(trig, 0, sp.pi).passed

    def test_half_interval_fails(self):
        trig = so.builtin_family("family-trig").subs(
            {ex.parameter("lambda2"): 0})
        assert not so.flux_check(trig, 0, sp.pi / 2).passed


class TestLogisticMap:
    def test_transformed_seed_still_solves(self):
        seed = so.builtin_family("seed-ode")
        fam, logsys = so.to_logistic(seed, "a", "b", "d1", "d2")
        r1, r2 = so.residual(logsys, fam)
        assert r1.is_zero and r2.is_zero


class TestSerialization:
    # family-trig as a solution file, in the grammar that expr.render writes
    TRIG_FILE = (
        "[solution]\n"
        "name = family-trig\n"
        "system = 3-2\n"
        "branch = upper\n"
        "u = (-alpha1*alpha2*exp(alpha1*t) - alpha1 + alpha2*sqrt(alpha1^2 "
        "+ 4*lambda1*p*cos(x) + 4*lambda2*p*sin(x))*exp(alpha1*t) - "
        "sqrt(alpha1^2 + 4*lambda1*p*cos(x) + 4*lambda2*p*sin(x)))"
        "/(2*alpha2*exp(alpha1*t) - 2)\n"
        "v = (-alpha1*alpha2*exp(alpha1*t) - alpha1 - alpha2*sqrt(alpha1^2 "
        "+ 4*lambda1*p*cos(x) + 4*lambda2*p*sin(x))*exp(alpha1*t) + "
        "sqrt(alpha1^2 + 4*lambda1*p*cos(x) + 4*lambda2*p*sin(x)))"
        "/(2*alpha2*exp(alpha1*t) - 2)\n"
        "constraints = nonzero -alpha2*exp(alpha1*t) + 1; nonneg alpha1^2 "
        "+ 4*lambda1*p*cos(x) + 4*lambda2*p*sin(x)\n")

    def test_solution_file_roundtrip(self):
        fam = so.builtin_family("family-trig")
        back = so.parse_solution_file(self.TRIG_FILE)
        assert back.u_expr == fam.u_expr
        assert back.v_expr == fam.v_expr
        assert back.system_id == fam.system_id
        assert back.constraints == fam.constraints

    def test_verification_csv_header(self):
        out = so.verification_csv([("f", "3-1", 0.0, 20, "pass")])
        assert out.splitlines()[0] == "family,system,max_residual,points,verdict"
