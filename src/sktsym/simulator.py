"""Method-of-lines finite-difference solver for the conservative form of the
cross-diffusion system, used to cross-validate closed-form solutions and to
check flux/conservation behavior."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import sympy as sp

from . import expr as ex
from .expr import T, U, V, X
from .invariance import SKTSystem

ZERO_NEUMANN = "zero-neumann"
PERIODIC = "periodic"
EXACT_DIRICHLET = "exact-dirichlet"
MIN_DT = 1e-12     # run() raises on a smaller step (time step underflow)


class SimulatorError(Exception):
    pass


@dataclass(frozen=True)
class Grid1D:
    x0: float
    x1: float
    n: int

    def __post_init__(self):
        if self.x1 <= self.x0:
            raise SimulatorError("grid needs x1 > x0")
        if self.n < 8:
            raise SimulatorError("grid needs at least 8 cells")

    @property
    def h(self):
        return (self.x1 - self.x0) / self.n

    def centers(self):
        return self.x0 + (np.arange(self.n) + 0.5) * self.h


@dataclass
class GridState:
    u: np.ndarray
    v: np.ndarray
    time: float = 0.0

    def copy(self):
        return GridState(self.u.copy(), self.v.copy(), self.time)

    def is_finite(self):
        return bool(np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.v)))


@dataclass(frozen=True)
class BCSpec:
    kind: str
    family: object = None      # SolutionFamily for exact-dirichlet
    bindings: dict = None      # parameter values for the family

    def __post_init__(self):
        if self.kind not in (ZERO_NEUMANN, PERIODIC, EXACT_DIRICHLET):
            raise SimulatorError(f"unknown bc kind {self.kind!r}")
        if self.kind == EXACT_DIRICHLET and self.family is None:
            raise SimulatorError("exact-dirichlet bc needs a solution family")

    @cached_property
    def fields(self):
        """The exact family built once: (u(t, x), v(t, x)) callables."""
        return field_functions(self.family, self.bindings)


@dataclass(frozen=True)
class SolverConfig:
    t_end: float
    cfl_factor: float = 0.2
    output_stride: int = 1
    first_order_stencil: bool = False   # negative-control variant

    def __post_init__(self):
        if not (0 < self.cfl_factor <= 1):
            raise SimulatorError("cfl_factor must lie in (0, 1]")
        if self.output_stride < 1:
            raise SimulatorError("output_stride must be at least 1")


def _numeric_params(sys, bindings=None):
    vals = {}
    bindings = bindings or {}
    for k, e in sys.params().items():
        s = e.sym
        if bindings:
            s = s.xreplace({ex.parameter(name) if isinstance(name, str) else name:
                            sp.Float(val) for name, val in bindings.items()})
        try:
            vals[k] = float(s)
        except TypeError:
            raise SimulatorError(f"parameter {k} = {e.sym} is not numeric; "
                                 "supply bindings")
    return vals


def field_functions(sol, bindings):
    """The exact family as callables u(t, x), v(t, x) over arrays of x,
    evaluated by expr.eval_numeric with the parameters bound."""
    params = {ex.parameter(k) if isinstance(k, str) else k: float(v)
              for k, v in (bindings or {}).items()}
    for e in (sol.u_expr, sol.v_expr):
        free = e.sym.free_symbols - {T, X} - set(params)
        if free:
            raise SimulatorError(f"unbound parameters in exact solution: {free}")

    def evaluator(e):
        def evaluate(t, x):
            val = ex.eval_numeric(e, {**params, T: t, X: np.asarray(x, dtype=float)})
            return np.broadcast_to(val, np.shape(x)).copy()
        return evaluate

    return evaluator(sol.u_expr), evaluator(sol.v_expr)


def _ghost(arr, grid, bc, t, which, width=1):
    """Pad with `width` ghost cells per side according to the boundary
    condition (mirror for zero-neumann, wrap for periodic, exact sample for
    dirichlet)."""
    g = np.empty(arr.size + 2 * width)
    g[width:-width] = arr
    if bc.kind == ZERO_NEUMANN:
        for k in range(width):
            g[width - 1 - k] = arr[k]
            g[arr.size + width + k] = arr[-1 - k]
    elif bc.kind == PERIODIC:
        g[:width] = arr[-width:]
        g[-width:] = arr[:width]
    else:
        eval_u, eval_v = bc.fields
        fn = eval_u if which == "u" else eval_v
        xs_l = grid.x0 - (np.arange(width, 0, -1) - 0.5) * grid.h
        xs_r = grid.x1 + (np.arange(1, width + 1) - 0.5) * grid.h
        g[:width] = fn(t, xs_l)
        g[-width:] = fn(t, xs_r)
    return g


def discretize_rhs(sys, grid, state, bc, params=None, first_order=False):
    """du/dt, dv/dt arrays: second-difference of the composite fields
    P = (d1 + d11 u + d12 v) u and Q = (d2 + d21 u + d22 v) v plus reaction
    terms.  `first_order` swaps in a one-sided first-difference-of-first-
    difference stencil (deliberately lower order, for negative controls)."""
    c = params if params is not None else _numeric_params(sys)
    u, v = state.u, state.v
    width = 2 if first_order else 1
    ug = _ghost(u, grid, bc, state.time, "u", width)
    vg = _ghost(v, grid, bc, state.time, "v", width)
    P = (c["d1"] + c["d11"] * ug + c["d12"] * vg) * ug
    Q = (c["d2"] + c["d21"] * ug + c["d22"] * vg) * vg
    h = grid.h
    if first_order:
        # negative control: face fluxes taken from cell-centered gradients,
        # which are offset from the faces by h/2 -> first-order accurate
        def lap(F):
            flux = (F[2:] - F[:-2]) / (2 * h)    # gradient at cell centers
            return (flux[1:-1] - flux[:-2]) / h
    else:
        def lap(F):
            return (F[2:] - 2.0 * F[1:-1] + F[:-2]) / (h * h)
    du = lap(P) + c["a1"] * u - c["b1"] * u * u - c["c1"] * u * v
    dv = lap(Q) + c["a2"] * v - c["c2"] * v * v - c["b2"] * u * v
    return du, dv


def max_diffusivity(c, u, v):
    return max(
        float(np.max(np.abs(c["d1"] + 2 * c["d11"] * u + c["d12"] * v))),
        float(np.max(np.abs(c["d2"] + c["d21"] * u + 2 * c["d22"] * v))),
        float(np.max(np.abs(c["d12"] * u))),
        float(np.max(np.abs(c["d21"] * v))),
    )


@dataclass
class Trajectory:
    grid: Grid1D
    states: list = field(default_factory=list)
    aborted: bool = False
    abort_step: int = -1
    steps: int = 0

    @property
    def final(self):
        return self.states[-1]

    def mass(self, index=-1):
        s = self.states[index]
        h = self.grid.h
        return float(np.sum(s.u) * h), float(np.sum(s.v) * h)

    def to_csv(self):
        lines = ["t,x,u,v"]
        xs = self.grid.centers()
        for s in self.states:
            for x, uu, vv in zip(xs, s.u, s.v):
                lines.append(f"{s.time:.12g},{x:.12g},{uu:.12g},{vv:.12g}")
        return "\n".join(lines) + "\n"


def run(sys, grid, init, bc, config, bindings=None):
    """RK4 time stepping to t_end with an h^2-limited adaptive step.
    `init` is a GridState or an (u array, v array) pair.  Aborts on NaN with
    the last valid state retained."""
    c = _numeric_params(sys, bindings)
    if isinstance(init, GridState):
        state = init.copy()
    else:
        u0, v0 = init
        state = GridState(np.array(u0, dtype=float), np.array(v0, dtype=float), 0.0)
    if state.u.size != grid.n or state.v.size != grid.n:
        raise SimulatorError("initial data does not match the grid")
    if not state.is_finite():
        raise SimulatorError("initial data is not finite")
    traj = Trajectory(grid=grid, states=[state.copy()])
    step = 0
    while state.time < config.t_end - 1e-15:
        dmax = max_diffusivity(c, state.u, state.v)
        if dmax <= 0:
            dmax = 1.0
        dt = config.cfl_factor * grid.h ** 2 / dmax
        dt = min(dt, config.t_end - state.time)
        if dt < MIN_DT:
            raise SimulatorError(f"time step underflow: dt = {dt}")

        def f(t, u, v):
            return discretize_rhs(sys, grid, GridState(u, v, t), bc, params=c,
                                  first_order=config.first_order_stencil)

        t0, u0, v0 = state.time, state.u, state.v
        k1u, k1v = f(t0, u0, v0)
        k2u, k2v = f(t0 + dt / 2, u0 + dt / 2 * k1u, v0 + dt / 2 * k1v)
        k3u, k3v = f(t0 + dt / 2, u0 + dt / 2 * k2u, v0 + dt / 2 * k2v)
        k4u, k4v = f(t0 + dt, u0 + dt * k3u, v0 + dt * k3v)
        state = GridState(
            u0 + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u),
            v0 + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v),
            t0 + dt)
        step += 1
        if not state.is_finite():
            traj.aborted = True
            traj.abort_step = step
            break
        if step % config.output_stride == 0 or state.time >= config.t_end - 1e-15:
            traj.states.append(state.copy())
    traj.steps = step
    return traj


def exact_error(traj, sol, bindings, index=-1, fields=None):
    """Relative L2 error of a trajectory state against the exact family.
    `fields` is the family already built by field_functions, if at hand."""
    s = traj.states[index]
    eval_u, eval_v = fields or field_functions(sol, bindings)
    xs = traj.grid.centers()
    ue = eval_u(s.time, xs)
    ve = eval_v(s.time, xs)
    num = math.sqrt(float(np.sum((s.u - ue) ** 2 + (s.v - ve) ** 2)))
    den = math.sqrt(float(np.sum(ue ** 2 + ve ** 2)))
    if den == 0:
        return num
    return num / den


@dataclass(frozen=True)
class ConvergenceResult:
    sizes: tuple
    errors: tuple
    orders: tuple            # log2(e(n) / e(2n)) between consecutive sizes


def convergence_study(sys, sol, sizes, t_end, bindings=None, x0=0.0, x1=math.pi,
                      bc_kind=ZERO_NEUMANN, cfl=0.2, first_order=False):
    """L2-error ladder against the exact family over a list of grid sizes."""
    errors = []
    bindings = bindings or {}
    # the exact family is built once for the whole ladder
    if bc_kind == EXACT_DIRICHLET:
        bc = BCSpec(bc_kind, family=sol, bindings=bindings)
        fields = bc.fields
    else:
        bc = BCSpec(bc_kind)
        fields = field_functions(sol, bindings)
    eval_u, eval_v = fields
    config = SolverConfig(t_end=t_end, cfl_factor=cfl,
                          first_order_stencil=first_order)
    for n in sizes:
        grid = Grid1D(x0, x1, n)
        xs = grid.centers()
        init = (eval_u(0.0, xs), eval_v(0.0, xs))
        traj = run(sys, grid, init, bc, config, bindings=bindings)
        if traj.aborted:
            raise SimulatorError(f"solver aborted at n = {n}")
        errors.append(exact_error(traj, sol, bindings, fields=fields))
        if errors[-1] == 0:
            raise SimulatorError(f"the error vanishes at n = {n}: the scheme "
                                 "is exact here, so the order is undefined")
    orders = tuple(math.log2(errors[i] / errors[i + 1])
                   for i in range(len(errors) - 1))
    return ConvergenceResult(sizes=tuple(sizes), errors=tuple(errors),
                             orders=orders)
