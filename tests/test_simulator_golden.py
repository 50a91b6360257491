"""The simulator's floats, compared byte for byte against a golden file: the
errors of three family-trig ladders (zero-Neumann, exact-Dirichlet and the
first-order control) by float.hex(), and the step count, final time and a
sha256 of the final u and v bytes of a 1000-step mass run of (3,7).

Regenerate (only when a change of the floats is intended) with
    PYTHONPATH=src python tests/test_simulator_golden.py > tests/golden/simulator_runs.txt
"""

import hashlib
import math
import pathlib
import sys

import numpy as np

from sktsym import simulator as sim
from sktsym import solutions as so
from sktsym.catalog import Catalog

GOLDEN = pathlib.Path(__file__).parent / "golden" / "simulator_runs.txt"
BINDS = {"alpha1": -1.0, "alpha2": -3.0, "p": 0.05, "lambda1": 1.0,
         "lambda2": 0.0}
LADDERS = (
    ("zero-neumann", (32, 64), {}),
    ("exact-dirichlet", (16, 32), {"bc_kind": sim.EXACT_DIRICHLET}),
    ("first-order", (32, 64), {"first_order": True}),
)


def render(catalog):
    lines = []
    plus = so.target_system(so.PLUS)
    trig = so.builtin_family("family-trig")
    for name, sizes, kw in LADDERS:
        res = sim.convergence_study(plus, trig, list(sizes), 0.05,
                                    bindings=BINDS, **kw)
        lines.append(f"{name} " + " ".join(
            f"{n}:{e.hex()}" for n, e in zip(res.sizes, res.errors)))
    system = catalog.entry(3, 7).system
    grid = sim.Grid1D(0.0, math.pi, 64)
    xs = grid.centers()
    u0 = 1.0 + 0.3 * np.cos(xs)
    v0 = 1.2 + 0.2 * np.cos(2 * xs)
    dt = 0.2 * grid.h ** 2 / sim.max_diffusivity(sim._numeric_params(system),
                                                 u0, v0)
    traj = sim.run(system, grid, (u0, v0), sim.BCSpec(sim.ZERO_NEUMANN),
                   sim.SolverConfig(t_end=1000 * dt, output_stride=1000))
    final = traj.final
    digest = hashlib.sha256(final.u.tobytes() + final.v.tobytes()).hexdigest()
    lines.append(f"mass-3-7 steps {traj.steps} time {final.time.hex()} "
                 f"sha256 {digest}")
    return "\n".join(lines) + "\n"


def test_simulator_runs_match_golden(catalog):
    assert render(catalog) == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(render(Catalog.load()))
