"""Every `validate_all()` row (operator verdict, witness count and the
nonzero assumptions it used), the notes, and the rows of the (2,4) c1=1
mutated control, compared byte for byte against a golden file.

Regenerate (only when a change of the verdicts is intended) with
    PYTHONPATH=src python tests/test_validation_golden.py > tests/golden/validation_rows.txt
"""

import pathlib
import sys

from sktsym.catalog import Catalog

GOLDEN = pathlib.Path(__file__).parent / "golden" / "validation_rows.txt"


def _rows(report):
    lines = [f"{r.table},{r.case_id} {r.operator} invariant={r.invariant} "
             f"witnesses={r.witness_count} assumptions={list(r.assumptions)}"
             for r in report.rows]
    lines += [f"note {key[0]},{key[1]}: {note}" for key, note in report.notes]
    return lines


def render(catalog, report):
    mutated = catalog.validate_all(keys=[(2, 4)], mutate={(2, 4): {"c1": "1"}})
    lines = ["== validate_all"] + _rows(report)
    lines += ["== validate_all (2,4) with c1=1"] + _rows(mutated)
    return "\n".join(lines) + "\n"


def test_validation_rows_match_golden(catalog, full_validation):
    report, _elapsed = full_validation
    assert render(catalog, report) == GOLDEN.read_text()


if __name__ == "__main__":
    cat = Catalog.load()
    sys.stdout.write(render(cat, cat.validate_all()))
