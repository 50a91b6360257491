"""The canonical form (srepr and sorted assumptions of `normalize`) of hand
cases that no other golden reaches: sqrt and sin generators of degree 1 in
a denominator (one, two and nested), radicands with rational, negative and
fractional content, pairs with no generators and denominators that vanish,
compared byte for byte against a golden file.

Regenerate (only when a change of the canonical forms is intended) with
    PYTHONPATH=src python tests/test_canonical_forms_golden.py > tests/golden/canonical_forms.txt
"""

import pathlib
import sys

import sympy as sp

from sktsym import expr as ex
from sktsym.catalog import Catalog

GOLDEN = pathlib.Path(__file__).parent / "golden" / "canonical_forms.txt"

CASES = [
    # one generator of degree 1 in a denominator
    "1/(1 + sqrt(x))",
    "x/(x - sqrt(u))",
    "(1 + sqrt(x))/(1 - sqrt(x))",
    "u/(sqrt(u)*x + sqrt(u)*t)",
    "1/(a*sqrt(u) + b*u)",
    "sqrt(2)/(sqrt(2) + 1)",
    "exp(x)/(exp(x) + sqrt(exp(x)))",
    "1/(sin(x) + 2)",
    "sin(t)/(1 - sin(t))",
    "1/(sin(x) + cos(x))",
    # two generators
    "1/(sqrt(x) + sqrt(t))",
    "1/(1 + sqrt(x) + sqrt(u))",
    "1/(sqrt(x)*sin(t) + 1)",
    "(sqrt(u) + sin(x))/(sqrt(u) - sin(x))",
    "1/(sin(x) + sin(t))",
    # nested generators
    "1/(1 + sqrt(1 + sqrt(x)))",
    "1/(sqrt(x + sqrt(u)) - sqrt(u))",
    "1/(sin(sqrt(x)) + sqrt(x))",
    "sqrt(1 + 1/(1 + sqrt(x)))",
    # radicands with rational, negative and fractional content
    "sqrt(8*x)",
    "sqrt(-x)",
    "sqrt(x/4)",
    "sqrt(2*x/3)",
    "sqrt(-12*u^2 - 12)",
    "sqrt(x^2/9 + 1)",
    "sqrt(1/(x + 1))",
    "sqrt((x^2 - 1)/(2*x + 2))",
    "sqrt(3)*sqrt(6*x)",
    "1/sqrt(2 - 2*x)",
    "sqrt(-2/(3*u))",
    "sqrt(18)/sqrt(2*u)",
    "sqrt(4*exp(2*x))",
    # pairs with no generators
    "(sqrt(2) + 1)*(sqrt(2) - 1)",
    "((1 + x)^2 - x^2 - 2*x)/((2 + x)^2 - x^2 - 4*x)",
    # denominators that vanish
    "1/(sin(x)^2 + cos(x)^2 - 1)",
    "u/(sin(x)^3 + sin(x)*cos(x)^2 - sin(x))",
    "sqrt(1/(sin(x)^2 + cos(x)^2 - 1))",
]


def render():
    lines = []
    for text in CASES:
        lines.append(text)
        try:
            out = ex.normalize(ex.parse_sym(text))
        except ex.ZeroDenominatorError:
            lines.append("  ZeroDenominatorError")
            continue
        lines.append(f"  {sp.srepr(out.sym)}")
        lines += [f"  assume {a}" for a in sorted(map(sp.srepr, out.assumptions))]
    return "\n".join(lines) + "\n"


def test_canonical_forms_match_golden():
    assert render() == GOLDEN.read_text()


def test_normalize_calls_no_sympy_polynomial_entry(monkeypatch):
    """normalize does its polynomial work in the kernel's own rings: sympy's
    cancel, Poly, primitive and sring are never entered."""
    calls = []

    def refuse(name):
        def entry(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"sp.{name} was called")
        return entry

    for name in ("cancel", "Poly", "primitive", "sring"):
        monkeypatch.setattr(ex.sp, name, refuse(name))
    for text in CASES:
        try:
            ex.normalize(ex.parse_sym(text))
        except ex.ZeroDenominatorError:
            pass
    report = Catalog.load().validate_all(keys=[(2, 4)])
    assert report.rows
    assert calls == []


if __name__ == "__main__":
    sys.stdout.write(render())
