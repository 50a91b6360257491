"""Method-of-lines finite-difference solver for the conservative form of the
cross-diffusion system, used to cross-validate closed-form solutions and to
check flux/conservation behavior.

A state (GridState) keeps u and v as the two rows of one (2, n) array.
There is one right-hand side, discretize_rhs: it pads both rows into one
ghost buffer, forms the composite fields P and Q together with (2, size)
coefficient arrays (the u equation's coefficient in row 0, the v
equation's in row 1), takes their second difference on both rows at once
and adds the reaction terms in place.  run forms the RK4 stage arguments
and the update in place on stacked arrays.  Every operation keeps the
order of the per-field formulas,

    P = ((d1 + d11 u) + d12 v) u,       lap = ((F+ - 2F) + F-) / h^2,
    du = ((lap + a1 u) - (b1 u) u) - (c1 u) v,
    u1 = u0 + dt/6 (((k1 + 2 k2) + 2 k3) + k4),

and only swaps the operands of a single + or *, or doubles x as x + x;
both are exact, so the floats are those of stepping u and v one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import expr as ex
from .expr import T, U, V, X
from .invariance import SKTSystem

ZERO_NEUMANN = "zero-neumann"
PERIODIC = "periodic"
EXACT_DIRICHLET = "exact-dirichlet"
MIN_DT = 1e-12     # run() raises on a smaller step (time step underflow)
_ENDS_ONLY = 2 ** 62  # an output_stride beyond any step count: only the
                      # initial and the final state are kept


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


class GridState:
    """u and v on the cells, as the two rows of one (2, n) array `uv`, at
    `time`.  GridState(u, v, time) copies the fields into a new array;
    GridState.stacked(uv, time) wraps an existing one."""
    __slots__ = ("uv", "time")

    def __init__(self, u, v, time=0.0):
        self.uv = np.array((u, v), dtype=float)
        self.time = time

    @classmethod
    def stacked(cls, uv, time):
        state = cls.__new__(cls)
        state.uv, state.time = uv, time
        return state

    @property
    def u(self):
        return self.uv[0]

    @property
    def v(self):
        return self.uv[1]


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
    """The system's parameters as floats, by expr.eval_numeric: a frozenset
    of (name, value) items.  A frozenset keeps its hash, so each RHS call
    finds the cached coefficient arrays (_coefficients) without hashing the
    items again."""
    vals = {}
    for k, e in sys.params().items():
        try:
            vals[k] = ex.eval_numeric(e, bindings or {})
        except ex.UnboundSymbolError:
            raise SimulatorError(f"parameter {k} = {e.sym} is not numeric; "
                                 "supply bindings")
    return frozenset(vals.items())


def field_functions(sol, bindings):
    """The exact family as callables u(t, x), v(t, x) over arrays of x: each
    holds its expression compiled once by expr.compile_numeric, with the
    parameters bound."""
    params = {ex.symbol(k): float(v) for k, v in (bindings or {}).items()}
    for e in (sol.u_expr, sol.v_expr):
        free = e.sym.free_symbols - {T, X} - set(params)
        if free:
            raise SimulatorError(f"unbound parameters in exact solution: {free}")

    def evaluator(e):
        fn = ex.compile_numeric(e)

        def evaluate(t, x):
            out = np.empty(np.shape(x))
            out[...] = fn({**params, T: t, X: np.asarray(x, dtype=float)})
            return out
        return evaluate

    return evaluator(sol.u_expr), evaluator(sol.v_expr)


# the parameter pairs (u equation, v equation) of the coefficient arrays:
# P, Q = ((D0 + DU u) + DV v) (u, v), and the reaction terms
# A (u, v) - (B (u, v)) (u, v) - (C u) v
_PAIRS = (("d1", "d2"), ("d11", "d21"), ("d12", "d22"),
          ("a1", "a2"), ("b1", "c2"), ("c1", "b2"))


@lru_cache(maxsize=64)
def _coefficients(params, n, width):
    """Each pair of _PAIRS, then max_diffusivity's (2 d11, d21), (d12, 2 d22)
    and (d12, d21), as a two-row array: the u equation's value fills row 0
    and the v equation's row 1.  The first three span the ghost buffer,
    n + 2 width cells, and the rest the n cells.  Whole rows rather than
    (2, 1) columns, because numpy is about twice as fast on same-shape
    operands at these sizes.  Cached per parameters (_numeric_params), n
    and width; the arrays are shared and read-only."""
    c = dict(params)
    pairs = [(c[a], c[b]) for a, b in _PAIRS] + [(2 * c["d11"], c["d21"]),
                                                 (c["d12"], 2 * c["d22"]),
                                                 (c["d12"], c["d21"])]
    out = []
    for i, pair in enumerate(pairs):
        size = n + 2 * width if i < 3 else n
        arr = np.repeat(np.array(pair, dtype=float)[:, None], size, axis=1)
        arr.flags.writeable = False
        out.append(arr)
    return tuple(out)


def _ghost(state, grid, bc, width):
    """The state as one (2, n + 2 width) array: u and v padded with `width`
    ghost cells per side according to the boundary condition (mirror for
    zero-neumann, wrap for periodic, and for dirichlet the exact family,
    evaluated once per field at the ghost cells of both sides)."""
    n, w = grid.n, width
    g = np.empty((2, n + 2 * w))
    g[:, w:-w] = state.uv
    if bc.kind == ZERO_NEUMANN:
        g[:, :w] = g[:, 2 * w - 1:w - 1:-1]
        g[:, -w:] = g[:, n + w - 1:n - 1:-1]
    elif bc.kind == PERIODIC:
        g[:, :w] = g[:, n:n + w]
        g[:, -w:] = g[:, w:2 * w]
    else:
        eval_u, eval_v = bc.fields
        xs = np.concatenate((grid.x0 - (np.arange(w, 0, -1) - 0.5) * grid.h,
                             grid.x1 + (np.arange(1, w + 1) - 0.5) * grid.h))
        cells = np.r_[0:w, n + w:n + 2 * w]
        g[0, cells] = eval_u(state.time, xs)
        g[1, cells] = eval_v(state.time, xs)
    return g


def discretize_rhs(sys, grid, state, bc, params=None, first_order=False):
    """The one right-hand side: a (2, n) array whose rows are du/dt and
    dv/dt (so `du, dv = discretize_rhs(...)` unpacks it).  Both rows are
    formed at once: the second difference of the composite fields
    P = (d1 + d11 u + d12 v) u and Q = (d2 + d21 u + d22 v) v over one ghost
    buffer, plus the reaction terms, added in place.  `params` are those of
    _numeric_params.  `first_order` swaps in a one-sided
    first-difference-of-first-difference stencil (deliberately lower order,
    for negative controls)."""
    c = params if params is not None else _numeric_params(sys)
    width = 2 if first_order else 1
    d0, du, dv, growth, own, cross = _coefficients(c, grid.n, width)[:6]
    g = _ghost(state, grid, bc, width)
    F = du * g[0]
    F += d0
    F += dv * g[1]
    F *= g
    h = grid.h
    if first_order:
        # negative control: face fluxes taken from cell-centered gradients,
        # which are offset from the faces by h/2 -> first-order accurate
        flux = (F[:, 2:] - F[:, :-2]) / (2 * h)    # gradient at cell centers
        out = (flux[:, 1:-1] - flux[:, :-2]) / h
    else:
        mid = F[:, 1:-1]
        out = F[:, 2:] - (mid + mid)     # mid + mid == 2.0 * mid, exactly
        out += F[:, :-2]
        out /= h * h
    uv = state.uv
    out += growth * uv
    out -= (own * uv) * uv
    out -= (cross * uv[0]) * uv[1]
    return out


def max_diffusivity(c, u, v):
    """The largest entry of |dP/du|, |dQ/dv|, |dP/dv| and |dQ/du| over the
    cells, which bounds the explicit step."""
    d0, *_, dmax_u, dmax_v, cross = _coefficients(c, np.size(u), 0)
    own = np.abs((d0 + dmax_u * u) + dmax_v * v)
    return float(max(own.max(), np.abs(cross * (u, v)).max()))


@dataclass
class Trajectory:
    """The states a run kept, with how it went: the step count, the
    smallest and largest step taken (None before the first step) and, for
    an aborted run, the step and the reason."""
    grid: Grid1D
    states: list = field(default_factory=list)
    aborted: bool = False
    abort_step: int = -1
    steps: int = 0
    dt_min: float | None = None
    dt_max: float | None = None
    abort_reason: str = ""

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
    """RK4 time stepping to t_end with an h^2-limited adaptive step, the last
    step clipped to t_end, from `init`, an (u array, v array) pair at
    t = 0.  The state is one (2, n) array; each of the four stages is one
    call of discretize_rhs, and the stage arguments and the update are
    formed in place.  Every `output_stride`-th state and the final one are
    kept; each wraps the array its step made, which nothing writes
    afterwards.  The trajectory records the step count and the smallest and
    largest step.  Aborts on a non-finite state, which is not kept, and
    records its step and the reason; the steps run under np.errstate, so an
    overflow gives no numpy warning."""
    c = _numeric_params(sys, bindings)
    (u0, v0), t = init, 0.0
    if np.size(u0) != grid.n or np.size(v0) != grid.n:
        raise SimulatorError("initial data does not match the grid")
    uv = np.array((np.ravel(u0), np.ravel(v0)), dtype=float)
    if not np.isfinite(uv).all():
        raise SimulatorError("initial data is not finite")
    traj = Trajectory(grid=grid, states=[GridState.stacked(uv, t)])
    t_end, stride = config.t_end, config.output_stride
    fo = config.first_order_stencil
    stage = np.empty_like(uv)
    step, dt_min, dt_max = 0, math.inf, 0.0
    # an overflow shows as a non-finite state, which aborts the run with
    # its reason; numpy need not warn about it as well
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end - 1e-15:
            dmax = max_diffusivity(c, uv[0], uv[1])
            if dmax <= 0:
                dmax = 1.0
            dt = config.cfl_factor * grid.h ** 2 / dmax
            dt = min(dt, t_end - t)
            if dt < MIN_DT:
                raise SimulatorError(f"time step underflow: dt = {dt}")
            dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)

            k1 = discretize_rhs(sys, grid, GridState.stacked(uv, t), bc,
                                params=c, first_order=fo)
            np.multiply(k1, dt / 2, out=stage)
            stage += uv
            k2 = discretize_rhs(sys, grid,
                                GridState.stacked(stage, t + dt / 2), bc,
                                params=c, first_order=fo)
            np.multiply(k2, dt / 2, out=stage)
            stage += uv
            k3 = discretize_rhs(sys, grid,
                                GridState.stacked(stage, t + dt / 2), bc,
                                params=c, first_order=fo)
            np.multiply(k3, dt, out=stage)
            stage += uv
            k4 = discretize_rhs(sys, grid, GridState.stacked(stage, t + dt),
                                bc, params=c, first_order=fo)
            # uv + dt/6 * (((k1 + 2 k2) + 2 k3) + k4), accumulated in k2; the
            # doublings are additions, x + x == 2.0 * x exactly
            k2 += k2
            k2 += k1
            k3 += k3
            k2 += k3
            k2 += k4
            k2 *= dt / 6
            k2 += uv
            uv, t = k2, t + dt
            step += 1
            if not np.isfinite(uv).all():
                traj.aborted = True
                traj.abort_step = step
                traj.abort_reason = (f"non-finite state at step {step} "
                                     f"(t = {t:.6g}, dt = {dt:.6g})")
                break
            if step % stride == 0 or t >= t_end - 1e-15:
                traj.states.append(GridState.stacked(uv, t))
    traj.steps = step
    if step:
        traj.dt_min, traj.dt_max = dt_min, dt_max
    return traj


def exact_error(traj, sol, bindings, fields=None):
    """Relative L2 error of the final state against the exact family.
    `fields` is the family already built by field_functions, if at hand."""
    s = traj.final
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


def convergence_study(sys, sol, sizes, t_end, bindings=None,
                      bc_kind=ZERO_NEUMANN, first_order=False):
    """L2-error ladder on (0, pi) against the exact family over a list of
    grid sizes.  Each run keeps only its initial and final state."""
    errors = []
    # the exact family is built once for the whole ladder
    bc = BCSpec(bc_kind, family=sol, bindings=bindings)
    eval_u, eval_v = bc.fields
    config = SolverConfig(t_end=t_end, output_stride=_ENDS_ONLY,
                          first_order_stencil=first_order)
    for n in sizes:
        grid = Grid1D(0.0, math.pi, n)
        xs = grid.centers()
        init = (eval_u(0.0, xs), eval_v(0.0, xs))
        traj = run(sys, grid, init, bc, config, bindings=bindings)
        if traj.aborted:
            raise SimulatorError(f"solver aborted at n = {n}")
        errors.append(exact_error(traj, sol, bindings, fields=bc.fields))
        if errors[-1] == 0:
            raise SimulatorError(f"the error vanishes at n = {n}: the scheme "
                                 "is exact here, so the order is undefined")
    orders = tuple(math.log2(errors[i] / errors[i + 1])
                   for i in range(len(errors) - 1))
    return ConvergenceResult(sizes=tuple(sizes), errors=tuple(errors),
                             orders=orders)
