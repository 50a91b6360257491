import math
import warnings

import numpy as np
import pytest

from sktsym import expr as ex
from sktsym import simulator as sim
from sktsym import solutions as so
from sktsym.invariance import SKTSystem


def cross_minus():
    # u_t = [uv]_xx - uv (and symmetric v equation)
    return so.target_system(so.MINUS)


def pure_diffusion():
    return SKTSystem.make(d12="1", d21="1")


class TestGrid:
    def test_cell_centers(self):
        g = sim.Grid1D(0.0, 1.0, 10)
        xs = g.centers()
        assert xs[0] == pytest.approx(0.05)
        assert xs[-1] == pytest.approx(0.95)
        assert g.h == pytest.approx(0.1)

    def test_invalid_grid_rejected(self):
        with pytest.raises(sim.SimulatorError):
            sim.Grid1D(1.0, 0.0, 32)
        with pytest.raises(sim.SimulatorError):
            sim.Grid1D(0.0, 1.0, 4)


class TestDiscretizeRhs:
    def test_uniform_pure_diffusion_is_zero(self):
        g = sim.Grid1D(0.0, math.pi, 32)
        st = sim.GridState(np.full(32, 1.5), np.full(32, 0.5))
        du, dv = sim.discretize_rhs(pure_diffusion(), g, st,
                                    sim.BCSpec(sim.ZERO_NEUMANN))
        assert np.allclose(du, 0.0, atol=1e-13)
        assert np.allclose(dv, 0.0, atol=1e-13)

    def test_uniform_reaction_only(self):
        g = sim.Grid1D(0.0, math.pi, 32)
        u0, v0 = 0.7, 1.3
        st = sim.GridState(np.full(32, u0), np.full(32, v0))
        du, dv = sim.discretize_rhs(cross_minus(), g, st,
                                    sim.BCSpec(sim.ZERO_NEUMANN))
        assert np.allclose(du, -u0 * v0, atol=1e-13)
        assert np.allclose(dv, -u0 * v0, atol=1e-13)

    def test_quadratic_field_laplacian(self):
        # u = v = x^2 with only d12 = 1: composite field is x^4 and its
        # second derivative 12 x^2 must appear to second order
        sys = SKTSystem.make(d12="1")
        errs = []
        for n in (64, 128):
            g = sim.Grid1D(0.5, 1.5, n)
            xs = g.centers()
            st = sim.GridState(xs ** 2, xs ** 2)
            du, _ = sim.discretize_rhs(sys, g, st, sim.BCSpec(sim.PERIODIC))
            interior = slice(2, -2)
            errs.append(np.max(np.abs(du[interior] - 12 * xs[interior] ** 2)))
        # Richardson: halving h divides the error by about four
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)

    @pytest.mark.parametrize("bc", [sim.ZERO_NEUMANN, sim.PERIODIC,
                                    sim.EXACT_DIRICHLET])
    @pytest.mark.parametrize("first_order", [False, True])
    def test_one_stacked_array(self, bc, first_order):
        trig = so.builtin_family("family-trig")
        g = sim.Grid1D(0.0, math.pi, 16)
        eval_u, eval_v = sim.field_functions(trig, TestConvergence.BINDS)
        st = sim.GridState(eval_u(0.1, g.centers()), eval_v(0.1, g.centers()),
                           0.1)
        spec = sim.BCSpec(bc, family=trig, bindings=TestConvergence.BINDS)
        rhs = sim.discretize_rhs(so.target_system(so.PLUS), g, st, spec,
                                 first_order=first_order)
        assert rhs.shape == (2, 16)
        assert np.all(np.isfinite(rhs))


class TestRun:
    def test_four_rhs_calls_per_step(self, monkeypatch):
        calls = []
        rhs = sim.discretize_rhs
        monkeypatch.setattr(sim, "discretize_rhs",
                            lambda *a, **kw: calls.append(1) or rhs(*a, **kw))
        g = sim.Grid1D(0.0, math.pi, 16)
        xs = g.centers()
        traj = sim.run(pure_diffusion(), g,
                       (1.0 + 0.3 * np.cos(xs), 1.2 + 0.2 * np.cos(2 * xs)),
                       sim.BCSpec(sim.ZERO_NEUMANN),
                       sim.SolverConfig(t_end=0.05))
        assert traj.steps > 1
        assert len(calls) == 4 * traj.steps

    def test_dt_range_and_last_step_clipped(self):
        g = sim.Grid1D(0.0, math.pi, 16)
        xs = g.centers()
        init = (1.0 + 0.3 * np.cos(xs), 1.2 + 0.2 * np.cos(2 * xs))
        bc = sim.BCSpec(sim.ZERO_NEUMANN)
        traj = sim.run(pure_diffusion(), g, init, bc,
                       sim.SolverConfig(t_end=0.05))
        assert traj.steps > 1
        assert traj.dt_min <= 0.05 / traj.steps <= traj.dt_max
        assert traj.final.time == pytest.approx(0.05, abs=1e-15)
        # a t_end below the first CFL step is reached in one clipped step
        short = sim.run(pure_diffusion(), g, init, bc,
                        sim.SolverConfig(t_end=traj.dt_max / 3))
        assert short.steps == 1
        assert short.dt_min == short.dt_max == traj.dt_max / 3
        assert short.final.time == traj.dt_max / 3
        still = sim.run(pure_diffusion(), g, init, bc,
                        sim.SolverConfig(t_end=0.0))
        assert still.dt_min is None and still.dt_max is None

    def test_non_finite_run_names_its_step(self):
        # u_t = u_xx + u^2 from u = 1e100 overflows within the first step;
        # the abort reason says so, and numpy does not warn as well
        g = sim.Grid1D(0.0, math.pi, 16)
        blowup = SKTSystem.make(d1="1", b1="-1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = sim.run(blowup, g, (np.full(16, 1e100), np.ones(16)),
                           sim.BCSpec(sim.ZERO_NEUMANN),
                           sim.SolverConfig(t_end=1.0))
        assert traj.aborted
        assert traj.abort_step == traj.steps == 1
        assert "step 1 " in traj.abort_reason
        assert len(traj.states) == 1
        assert np.isfinite(traj.final.uv).all()

    def test_zero_time_returns_initial_state(self):
        g = sim.Grid1D(0.0, math.pi, 16)
        u0 = np.linspace(1, 2, 16)
        v0 = np.linspace(2, 1, 16)
        traj = sim.run(cross_minus(), g, (u0, v0),
                       sim.BCSpec(sim.ZERO_NEUMANN),
                       sim.SolverConfig(t_end=0.0))
        assert traj.steps == 0
        assert np.array_equal(traj.final.u, u0)

    def test_uniform_tracks_time_only_solution(self):
        g = sim.Grid1D(0.0, math.pi, 16)
        seed = so.builtin_family("seed-ode")
        binds = {"alpha1": 1.0, "alpha2": 2.0}
        eval_u, eval_v = sim.field_functions(seed, binds)
        xs = g.centers()
        traj = sim.run(cross_minus(), g, (eval_u(0.0, xs), eval_v(0.0, xs)),
                       sim.BCSpec(sim.ZERO_NEUMANN),
                       sim.SolverConfig(t_end=0.5))
        assert sim.exact_error(traj, seed, binds) < 1e-10

    def test_uniform_data_stays_uniform(self):
        g = sim.Grid1D(0.0, math.pi, 16)
        for bc in (sim.ZERO_NEUMANN, sim.PERIODIC):
            traj = sim.run(cross_minus(), g,
                           (np.full(16, 0.8), np.full(16, 0.6)),
                           sim.BCSpec(bc), sim.SolverConfig(t_end=0.1))
            assert np.ptp(traj.final.u) < 1e-13
            assert np.ptp(traj.final.v) < 1e-13

    def test_swap_symmetry_is_exact(self):
        # both equations of the pure cross-diffusion system are symmetric
        # under (u, v) -> (v, u); trajectories must swap bitwise
        g = sim.Grid1D(0.0, math.pi, 32)
        xs = g.centers()
        u0 = 1.0 + 0.3 * np.cos(xs)
        v0 = 1.2 + 0.2 * np.cos(2 * xs)
        cfg = sim.SolverConfig(t_end=0.02)
        t1 = sim.run(pure_diffusion(), g, (u0, v0),
                     sim.BCSpec(sim.ZERO_NEUMANN), cfg)
        t2 = sim.run(pure_diffusion(), g, (v0, u0),
                     sim.BCSpec(sim.ZERO_NEUMANN), cfg)
        assert np.array_equal(t1.final.u, t2.final.v)
        assert np.array_equal(t1.final.v, t2.final.u)

    def test_mass_conserved_for_flux_form(self):
        g = sim.Grid1D(0.0, math.pi, 32)
        xs = g.centers()
        traj = sim.run(pure_diffusion(), g,
                       (1.0 + 0.3 * np.cos(xs), 1.2 + 0.2 * np.cos(2 * xs)),
                       sim.BCSpec(sim.ZERO_NEUMANN),
                       sim.SolverConfig(t_end=0.05))
        m0u, m0v = traj.mass(0)
        m1u, m1v = traj.mass(-1)
        assert abs(m1u - m0u) / abs(m0u) < 1e-12
        assert abs(m1v - m0v) / abs(m0v) < 1e-12

    def test_unbound_parameters_rejected(self):
        g = sim.Grid1D(0.0, math.pi, 16)
        generic = SKTSystem.generic()
        with pytest.raises(sim.SimulatorError):
            sim.run(generic, g, (np.ones(16), np.ones(16)),
                    sim.BCSpec(sim.ZERO_NEUMANN), sim.SolverConfig(t_end=0.1))


class TestTrajectoryOutput:
    def test_csv_header_and_shape(self):
        g = sim.Grid1D(0.0, math.pi, 16)
        traj = sim.run(cross_minus(), g, (np.ones(16), np.ones(16)),
                       sim.BCSpec(sim.ZERO_NEUMANN),
                       sim.SolverConfig(t_end=0.0))
        lines = traj.to_csv().splitlines()
        assert lines[0] == "t,x,u,v"
        assert len(lines) == 1 + 16


class TestConvergence:
    BINDS = {"alpha1": -1.0, "alpha2": -3.0, "p": 0.05, "lambda1": 1.0,
             "lambda2": 0.0}

    def test_second_order_with_dirichlet_bc(self):
        trig = so.builtin_family("family-trig")
        res = sim.convergence_study(so.target_system(so.PLUS), trig,
                                    [32, 64], 0.05, bindings=self.BINDS,
                                    bc_kind=sim.EXACT_DIRICHLET)
        assert res.orders[0] == pytest.approx(2.0, abs=0.2)

    def test_ladder_runs_keep_two_states(self, monkeypatch):
        kept = []
        run = sim.run

        def keep(*args, **kwargs):
            traj = run(*args, **kwargs)
            kept.append(len(traj.states))
            return traj

        monkeypatch.setattr(sim, "run", keep)
        trig = so.builtin_family("family-trig")
        sim.convergence_study(so.target_system(so.PLUS), trig, [16, 32], 0.01,
                              bindings=self.BINDS)
        assert kept == [2, 2]

    def test_dirichlet_run_compiles_family_once(self, monkeypatch):
        calls = []
        compile_fields = sim.field_functions
        monkeypatch.setattr(sim, "field_functions",
                            lambda *a: calls.append(a) or compile_fields(*a))
        trig = so.builtin_family("family-trig")
        bc = sim.BCSpec(sim.EXACT_DIRICHLET, family=trig, bindings=self.BINDS)
        g = sim.Grid1D(0.0, math.pi, 16)
        eval_u, eval_v = bc.fields
        init = (eval_u(0.0, g.centers()), eval_v(0.0, g.centers()))
        traj = sim.run(so.target_system(so.PLUS), g, init, bc,
                       sim.SolverConfig(t_end=0.01), bindings=self.BINDS)
        assert traj.steps > 1
        assert len(calls) == 1

    def test_dirichlet_ladder_compiles_family_once(self, monkeypatch):
        calls = []
        compile_fields = sim.field_functions
        monkeypatch.setattr(sim, "field_functions",
                            lambda *a: calls.append(a) or compile_fields(*a))
        trig = so.builtin_family("family-trig")
        res = sim.convergence_study(so.target_system(so.PLUS), trig,
                                    [16, 32], 0.01, bindings=self.BINDS,
                                    bc_kind=sim.EXACT_DIRICHLET)
        assert len(res.errors) == 2
        assert len(calls) == 1


class TestFieldFunctions:
    BINDS = TestConvergence.BINDS

    def test_fields_equal_eval_numeric_pointwise(self):
        trig = so.builtin_family("family-trig")
        eval_u, eval_v = sim.field_functions(trig, self.BINDS)
        xs = np.linspace(0.05, 3.1, 17)
        for t in (0.0, 0.3):
            for fn, e in ((eval_u, trig.u_expr), (eval_v, trig.v_expr)):
                want = [ex.eval_numeric(e, {**self.BINDS, "t": t, "x": x})
                        for x in xs]
                assert np.array_equal(fn(t, xs), want)

    def test_constant_family_broadcasts_over_x(self):
        seed = so.builtin_family("seed-ode")
        eval_u, _ = sim.field_functions(seed, {"alpha1": 1.0, "alpha2": 2.0})
        assert eval_u(0.1, np.zeros(5)).shape == (5,)

    def test_negative_radicand_raises(self):
        # p < 0: alpha1^2 + 4 p lambda1 cos(x) = 1 - 2 cos(x) < 0 near x = 0
        trig = so.builtin_family("family-trig")
        binds = {**self.BINDS, "p": -0.5, "lambda2": 0.0}
        eval_u, _ = sim.field_functions(trig, binds)
        with pytest.raises(ex.GuardViolation):
            eval_u(0.0, sim.Grid1D(0.0, math.pi, 16).centers())
