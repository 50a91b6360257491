"""The numeric evaluator's values on every built-in family, compared byte
for byte against a golden file: eval_numeric of u_expr and v_expr on float
arrays of four (t, x) points, by float.hex(), and at the same four points as
mpf bindings under mpmath.workdps(30), by repr().

Regenerate (only when a change of the values is intended) with
    PYTHONPATH=src python tests/test_family_values.py > tests/golden/family_values.txt
"""

import pathlib
import sys

import mpmath
import numpy as np

from sktsym import expr as ex
from sktsym import solutions as so

GOLDEN = pathlib.Path(__file__).parent / "golden" / "family_values.txt"
# parameters at which every family is defined (radicands positive,
# denominators away from zero) at each of the points below
BINDINGS = {
    "seed-ode": {"alpha1": 0.8, "alpha2": 1.5},
    "family-exp": {"alpha1": 0.8, "alpha2": 1.5, "p": 0.03,
                   "lambda1": 0.5, "lambda2": 0.2},
    "family-trig": {"alpha1": -1.0, "alpha2": -3.0, "p": 0.05,
                    "lambda1": 1.0, "lambda2": 0.3},
    "steady-ratio": {"lambda1": 1.0, "lambda2": 0.5},
    "steady-upper": {},
    "steady-lower": {},
    "reduced-a": {"lambda1": 2.0, "lambda2": -1.0},
    "reduced-b": {"alpha1": 0.3, "lambda1": 3.0, "lambda2": -1.0},
    "reduced-c": {"alpha1": 0.4, "alpha2": 0.5, "lambda1": 2.0,
                  "lambda2": -1.0},
}
POINTS = ((0.15, 0.3), (0.35, 1.1), (0.55, 1.9), (0.7, 2.5))


def render():
    ts = np.array([t for t, _ in POINTS])
    xs = np.array([x for _, x in POINTS])
    lines = []
    for fid in so.BUILTIN_IDS:
        fam = so.builtin_family(fid)
        binds = BINDINGS[fid]
        for side, e in (("u", fam.u_expr), ("v", fam.v_expr)):
            vals = np.broadcast_to(
                ex.eval_numeric(e, {**binds, "t": ts, "x": xs}), ts.shape)
            lines.append(f"{fid} {side} float "
                         + " ".join(float(v).hex() for v in vals))
            with mpmath.workdps(30):
                precise = [ex.eval_numeric(
                    e, {k: mpmath.mpf(v) for k, v in
                        {**binds, "t": t, "x": x}.items()})
                    for t, x in POINTS]
                lines.append(f"{fid} {side} mpf "
                             + " ".join(repr(v) for v in precise))
    return "\n".join(lines) + "\n"


def test_family_values_match_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(render())
