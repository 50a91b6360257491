"""The structure constants of every catalog algebra and the `commutators`
report of three entries, compared byte for byte against a golden file.

Regenerate (only when a change of the constants is intended) with
    PYTHONPATH=src python tests/test_closure_golden.py > tests/golden/closure_constants.txt
"""

import io
import pathlib
import sys
from contextlib import redirect_stdout

import sympy as sp

from sktsym import cli
from sktsym import invariance as inv
from sktsym.catalog import Catalog

GOLDEN = pathlib.Path(__file__).parent / "golden" / "closure_constants.txt"
CLI_ENTRIES = ((1, 1), (2, 3), (3, 7))


def render(catalog):
    lines = []
    for key in sorted(catalog.entries):
        entry = catalog.entries[key]
        rep = inv.closure_check([catalog.operator(n) for n in entry.operators])
        lines.append(f"== entry {key[0]},{key[1]} closes={rep.closes} "
                     f"degenerate={rep.degenerate}")
        for pair, coeffs in sorted(rep.constants.items()):
            lines.append(f"{pair} {sp.srepr(coeffs)}")
    for table, case in CLI_ENTRIES:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["commutators", "--table", str(table),
                             "--case", str(case)])
        lines.append(f"== sktsym commutators --table {table} --case {case} "
                     f"(exit {code})")
        lines.append(out.getvalue().rstrip("\n"))
    return "\n".join(lines) + "\n"


def test_structure_constants_match_golden(catalog):
    assert render(catalog) == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(render(Catalog.load()))
