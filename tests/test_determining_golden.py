"""The jet-monomial splits behind the determining equations, compared byte
for byte against a golden file: for the generic restricted split, the
generic full split and the full split of entry (3,6), the `srepr` of every
deduplicated equation and of every `raw_split` (key, coefficient) in order,
with the nonzero assumptions each coefficient carries.

Regenerate (only when a change of the splits is intended) with
    PYTHONPATH=src python tests/test_determining_golden.py > tests/golden/determining_splits.txt
"""

import pathlib
import sys

import sympy as sp

from sktsym import invariance as inv
from sktsym.catalog import Catalog

GOLDEN = pathlib.Path(__file__).parent / "golden" / "determining_splits.txt"


def _assumptions(e):
    return sorted(sp.srepr(a) for a in e.assumptions)


def render_split(title, ds):
    lines = [f"== {title}: {len(ds.equations)} equations, "
             f"{len(ds.raw_split)} raw"]
    lines += [f"eq {i} {sp.srepr(e.sym)}" for i, e in enumerate(ds.equations)]
    for (k, mono), coeff in ds.raw_split.items():
        lines.append(f"raw {k} {sp.srepr(mono)} {sp.srepr(coeff.sym)} "
                     f"assumptions={_assumptions(coeff)}")
    return lines


def render(catalog):
    generic = inv.SKTSystem.generic()
    lines = render_split("generic restricted",
                         inv.generate_determining(generic, full_deps=False))
    lines += render_split("generic full",
                          inv.generate_determining(generic, full_deps=True))
    lines += render_split("entry 3,6 full", inv.generate_determining(
        catalog.entry(3, 6).system, full_deps=True))
    return "\n".join(lines) + "\n"


def test_determining_splits_match_golden(catalog):
    assert render(catalog) == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(render(Catalog.load()))
