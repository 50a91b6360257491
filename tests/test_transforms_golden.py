"""The image of every catalog entry under each of its substitutions (the SKT
verdict and the 12 parameters) and the pushforward of every listed operator
along each of them, compared byte for byte against a golden file.

The five time-dependent pairs of TIME_DEPENDENT are left out of the file;
tests/test_invariance.py checks them.

Regenerate (only when a change of the images is intended) with
    PYTHONPATH=src python tests/test_transforms_golden.py > tests/golden/transforms.txt
"""

import pathlib
import sys

import sympy as sp

from sktsym import invariance as inv
from sktsym.catalog import Catalog, substitution

GOLDEN = pathlib.Path(__file__).parent / "golden" / "transforms.txt"
TIME_DEPENDENT = {((1, 3), "37a:10"), ((1, 12), "37a:10"),
                  ((2, 1), "112:1"), ((2, 3), "112:1"), ((2, 4), "112:1")}


def render(catalog):
    images, pushed = [], []
    for key in sorted(catalog.entries):
        entry = catalog.entries[key]
        for sub_id in entry.substitutions:
            tr = substitution(sub_id)
            head = f"{key[0]},{key[1]} {sub_id}"
            if (key, sub_id) not in TIME_DEPENDENT:
                res = inv.transform_system(entry.system, tr)
                if res.is_skt:
                    images.append(f"{head} SKT")
                    images += [f"  {k} {sp.srepr(v.sym)}"
                               for k, v in res.system.params().items()]
                else:
                    images.append(f"{head} not SKT")
            for name in entry.operators:
                out = inv.pushforward(catalog.operator(name), tr)
                coeffs = tuple(c.sym for c in out.coeffs())
                pushed.append(f"{head} {name} {sp.srepr(coeffs)}")
    return "\n".join(["== transform_system"] + images
                     + ["== pushforward"] + pushed) + "\n"


def test_transforms_match_golden(catalog):
    assert render(catalog) == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(render(Catalog.load()))
