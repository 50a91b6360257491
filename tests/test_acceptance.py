"""End-to-end acceptance gate: one test class per release criterion."""

import math
import random
import time

import numpy as np
import pytest
import sympy as sp

from sktsym import expr as ex
from sktsym import invariance as inv
from sktsym import simulator as sim
from sktsym import solutions as so
from sktsym.expr import T, U, V, X
from sktsym.jet import VectorField


class TestCriterion1CatalogValidation:
    def test_all_entries_pass_within_budget(self, full_validation):
        report, elapsed = full_validation
        assert report.ok
        assert report.entry_count() == 27
        assert elapsed < 60.0, f"validation took {elapsed:.1f}s"

    def test_sign_mutation_flips_verdict(self, catalog):
        clean = catalog.validate_all(keys=[(2, 4)])
        assert clean.ok
        mutated = catalog.validate_all(keys=[(2, 4)],
                                       mutate={(2, 4): {"c1": "1"}})
        assert not mutated.ok


class TestCriterion2DeterminingGolden:
    def test_generated_equations_match_reference(self, golden_report):
        assert len(golden_report.matches) == 17
        assert not golden_report.discrepancies
        assert not golden_report.unmatched_generated

    def test_only_documented_sign_differences(self, golden_report):
        assert len(golden_report.sign_notes) == 4
        for note in golden_report.sign_notes:
            assert "sign -1" in note


class TestCriterion3NonlinearOperators:
    CASES = [((2, 3), ("Z1", "Z2")),
             ((2, 4), ("Z3", "Z4")),
             ((3, 7), ("Z5", "Z6"))]

    def test_each_check_symbolic_and_fast(self, catalog):
        for key, names in self.CASES:
            entry = catalog.entry(*key)
            for name in names:
                t0 = time.process_time()
                verdict = inv.check_invariance(entry.system,
                                               catalog.operator(name))
                elapsed = time.process_time() - t0
                assert verdict.invariant, (key, name)
                assert not verdict.witnesses
                assert elapsed < 5.0, (key, name, elapsed)


class TestCriterion4SolutionResiduals:
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

    def test_symbolic_residuals_vanish(self):
        for fid in so.BUILTIN_IDS:
            fam = so.builtin_family(fid)
            r1, r2 = so.residual(fam.system(), fam)
            assert r1.is_zero and r2.is_zero, fid

    def test_steady_states_over_test_basis(self):
        for system_id in (so.MINUS, so.PLUS):
            for fid in ("steady-ratio", "steady-upper", "steady-lower"):
                for func in so.STEADY_TEST_BASIS:
                    fam = so.builtin_family(fid, system_id=system_id,
                                            func=func)
                    r1, r2 = so.residual(fam.system(), fam)
                    assert r1.is_zero and r2.is_zero, (system_id, fid, func)

    def test_numeric_residuals_below_tolerance(self):
        for fid, binds in self.NUMERIC_BINDINGS.items():
            fam = so.builtin_family(fid)
            worst, n = so.residual_numeric(fam.system(), fam, binds,
                                           points=20, seed=3)
            assert n == 20
            assert worst < 1e-10, (fid, worst)

    def test_negative_control_wrong_system(self):
        fam = so.builtin_family("family-exp")
        r1, r2 = so.residual(so.target_system(so.PLUS), fam)
        assert not (r1.is_zero and r2.is_zero)


class TestCriterion5OrbitEquivalence:
    def test_orbit_of_seed_is_exponential_family(self):
        seed = so.builtin_family("seed-ode")
        orbit = so.group_orbit(seed, ex.parameter("p"), generator="X1")
        family = so.builtin_family("family-exp")
        assert orbit.u_expr == family.u_expr
        assert orbit.v_expr == family.v_expr

    def test_group_additivity_numeric(self):
        seed = so.builtin_family("seed-ode")
        rng = random.Random(7)
        worst = 0.0
        for _trial in range(10):
            a1 = rng.uniform(0.3, 1.2)
            a2 = rng.uniform(0.5, 2.0)
            l1 = rng.uniform(0.1, 1.0)
            l2 = rng.uniform(0.1, 1.0)
            p1 = rng.uniform(0.0, 0.05)
            p2 = rng.uniform(0.0, 0.05)
            once = so.group_orbit(seed, p1 + p2, l1, l2, generator="X1")
            twice = so.group_orbit(
                so.group_orbit(seed, p1, l1, l2, generator="X1"),
                p2, l1, l2, generator="X1")
            binds = {"alpha1": a1, "alpha2": a2, T: 0.4, X: 0.9}
            for a, b in ((once.u_expr, twice.u_expr),
                         (once.v_expr, twice.v_expr)):
                diff = abs(ex.eval_numeric(a, binds) -
                           ex.eval_numeric(b, binds))
                worst = max(worst, diff)
        assert worst < 1e-10


@pytest.fixture(scope="module")
def ansatz():
    op = VectorField.make(
        "0", "1",
        "(lambda1*cos(x)+lambda2*sin(x))/(u-v)",
        "-(lambda1*cos(x)+lambda2*sin(x))/(u-v)")
    return so.reduce_ansatz(so.target_system(so.PLUS), op)


class TestCriterion6Reduction:

    def test_reduced_system_is_exactly_the_expected_pair(self, ansatz):
        p1, p2 = so.PHI1, so.PHI2
        expected = [ex.normalize(sp.diff(p1, T) + 2 * p2),
                    ex.normalize(p1 * sp.diff(p1, T) + 2 * sp.diff(p2, T))]
        assert len(ansatz.reduced) == 2
        for want in expected:
            assert any(ex.iszero(o.sym - want.sym)
                       or ex.iszero(o.sym + want.sym)
                       for o in ansatz.reduced)

    def test_branches_satisfy_reduced_odes(self, ansatz):
        branches = so.reduction_solutions()
        assert set(branches) == {"reduced-a", "reduced-b", "reduced-c"}
        for name, (f1, f2) in branches.items():
            assert so.check_reduction(ansatz, f1, f2), name

    def test_branches_solve_the_pde_directly(self):
        for fid in ("reduced-a", "reduced-b", "reduced-c"):
            fam = so.builtin_family(fid)
            r1, r2 = so.residual(fam.system(), fam)
            assert r1.is_zero and r2.is_zero, fid


class TestCriterion7Flux:
    def test_zero_gradient_on_full_interval(self):
        trig = so.builtin_family("family-trig").subs(
            {ex.parameter("lambda2"): 0})
        report = so.flux_check(trig, 0, sp.pi)
        assert report.passed
        for (_pt, ux, vx) in report.endpoint_values:
            assert ux.is_zero and vx.is_zero

    def test_negative_control_half_interval(self):
        trig = so.builtin_family("family-trig").subs(
            {ex.parameter("lambda2"): 0})
        assert not so.flux_check(trig, 0, sp.pi / 2).passed


class TestCriterion8CommutatorClosure:
    CASES = [((1, 1), 3), ((2, 3), 5), ((2, 4), 5), ((3, 7), 6)]

    def test_algebras_close_with_rational_constants(self, catalog):
        params = {ex.parameter(n) for n in
                  ("a", "b", "c", "d1", "d2", "d11", "d12", "d21", "d22",
                   "a1", "a2", "b1", "b2", "c1", "c2")}
        for key, dim in self.CASES:
            entry = catalog.entry(*key)
            ops = [catalog.operator(n) for n in entry.operators]
            assert len(ops) == dim, key
            report = inv.closure_check(ops)
            assert report.closes, key
            assert not report.failures
            for coeffs in report.constants.values():
                for c in coeffs:
                    c = sp.sympify(c)
                    assert c.free_symbols <= params, (key, c)
                    if c.free_symbols:
                        assert c.is_rational_function(*c.free_symbols)
                    else:
                        assert c.is_Rational


class TestCriterion9SimulatorConvergence:
    BINDS = {"alpha1": -1.0, "alpha2": -3.0, "p": 0.05,
             "lambda1": 1.0, "lambda2": 0.0}

    def test_second_order_ladder(self):
        # alpha1^2 = 1 >= 4|p lambda1| + 0.01 and the denominator
        # 1 - alpha2 exp(alpha1 t) stays above 1 - |alpha2| e^{-0.0} > 0
        trig = so.builtin_family("family-trig")
        t0 = time.monotonic()
        res = sim.convergence_study(so.target_system(so.PLUS), trig,
                                    [64, 128, 256], 0.2, bindings=self.BINDS)
        elapsed = time.monotonic() - t0
        for order in res.orders:
            assert order == pytest.approx(2.0, abs=0.2)
        assert res.errors[-1] < 1e-4
        assert elapsed < 30.0, f"ladder took {elapsed:.1f}s"

    def test_first_order_negative_control(self):
        trig = so.builtin_family("family-trig")
        res = sim.convergence_study(so.target_system(so.PLUS), trig,
                                    [64, 128], 0.2, bindings=self.BINDS,
                                    first_order=True)
        assert res.orders[0] == pytest.approx(1.0, abs=0.2)

    def test_mass_conservation_thousand_steps(self, catalog):
        system = catalog.entry(3, 7).system
        grid = sim.Grid1D(0.0, math.pi, 64)
        xs = grid.centers()
        u0 = 1.0 + 0.3 * np.cos(xs)
        v0 = 1.2 + 0.2 * np.cos(2 * xs)
        c = sim._numeric_params(system)
        dt = 0.2 * grid.h ** 2 / sim.max_diffusivity(c, u0, v0)
        traj = sim.run(system, grid, (u0, v0), sim.BCSpec(sim.ZERO_NEUMANN),
                       sim.SolverConfig(t_end=1000 * dt, cfl_factor=0.2,
                                        output_stride=1000))
        assert traj.steps >= 1000 and not traj.aborted
        m0u, m0v = traj.mass(0)
        m1u, m1v = traj.mass(-1)
        assert abs(m1u - m0u) / abs(m0u) < 1e-8
        assert abs(m1v - m0v) / abs(m0v) < 1e-8


class TestCriterion10KernelSoundness:
    """Randomized agreement between the symbolic zero-test and an
    independent high-precision numeric oracle over the supported expression
    grammar (rational functions of t, x, u, v with sin/cos/exp/sqrt atoms
    over polynomial arguments)."""

    SYMS = (T, X, U, V)

    def _lin(self, rng):
        picks = rng.sample(self.SYMS, 2)
        return sp.Add(*[sp.Integer(rng.randint(-3, 3)) * s for s in picks],
                      sp.Integer(rng.randint(-2, 2)))

    def _poly(self, rng):
        terms = [sp.Integer(rng.randint(-3, 3)) *
                 rng.choice(self.SYMS) ** rng.randint(0, 2)
                 for _ in range(rng.randint(1, 3))]
        return sp.Add(*terms, sp.Integer(rng.randint(-2, 2)))

    def _atom(self, rng):
        k = rng.random()
        if k < 0.25:
            return sp.sin(self._lin(rng))
        if k < 0.5:
            return sp.cos(self._lin(rng))
        if k < 0.75:
            return sp.exp(self._lin(rng))
        return sp.sqrt(self._lin(rng) ** 2 + rng.randint(1, 3))

    def _expr(self, rng):
        terms = []
        for _ in range(rng.randint(1, 3)):
            num = self._poly(rng)
            for _ in range(rng.randint(0, 2)):
                num *= self._atom(rng)
            if rng.random() < 0.4:
                num /= (self._lin(rng) ** 2 + rng.randint(1, 3))
            terms.append(num)
        return sp.Add(*terms)

    def _disguise(self, e, rng):
        ops = [sp.expand, sp.together,
               lambda z: z * (U ** 2 + 1) / (U ** 2 + 1),
               lambda z: z + self._poly(rng) * (sp.sin(X) ** 2 +
                                                sp.cos(X) ** 2 - 1),
               lambda z: z + self._poly(rng) * (sp.exp(T) * sp.exp(X) -
                                                sp.exp(T + X)),
               lambda z: z + self._poly(rng) * (sp.sqrt(T ** 2 + 2) ** 2 -
                                                T ** 2 - 2)]
        for _ in range(rng.randint(1, 3)):
            e = rng.choice(ops)(e)
        return e

    def _numeric_equal(self, a, b, rng):
        hits = 0
        for _ in range(25):
            pt = {s: sp.Float(rng.uniform(0.2, 1.5), 30) for s in self.SYMS}
            try:
                va = complex(a.xreplace(pt).evalf(30))
                vb = complex(b.xreplace(pt).evalf(30))
            except (TypeError, ValueError):
                continue
            scale = max(1.0, abs(va), abs(vb))
            if abs(va - vb) > 1e-9 * scale:
                return False
            hits += 1
            if hits >= 6:
                return True
        return None

    def test_partial_matches_sympy_diff(self):
        # the kernel's one partial derivative builds sympy's own tree
        rng = random.Random(7)
        differ = []
        for case in range(100):
            e = self._disguise(self._expr(rng), rng)
            for var in self.SYMS:
                ours, theirs = ex.partial(e, var), sp.diff(e, var)
                if ours is not theirs and sp.srepr(ours) != sp.srepr(theirs):
                    differ.append((case, e, var))
        assert not differ

    def test_thousand_randomized_cases_agree(self):
        rng = random.Random(42)
        disagreements = []
        decided = 0
        for case in range(1000):
            e = self._expr(rng)
            if case % 2 == 0:
                other = self._disguise(e, rng)
            else:
                other = (self._disguise(e, rng) +
                         sp.Rational(rng.randint(1, 3), 7) *
                         rng.choice(self.SYMS))
            symbolic = ex.iszero(e - other)
            numeric = self._numeric_equal(e, other, rng)
            if numeric is None:
                continue
            decided += 1
            if symbolic != numeric:
                disagreements.append((case, symbolic, numeric))
        assert decided > 900
        assert not disagreements
