"""The linear-algebra layer over the parameter field (invariance._split_solve)
and the three solves built on it: expansion in a basis of vector fields,
proportionality of equations and forced zeros of derivatives."""

import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sktsym import expr as ex
from sktsym import invariance as inv
from sktsym.expr import T, U, V, X
from sktsym.jet import VectorField

# linearly independent fields with polynomial, exp and sin/cos coefficients
POOL = [VectorField.make(*c) for c in (
    ("1", "0", "0", "0"),
    ("0", "1", "0", "0"),
    ("2*t", "x", "-u", "-v"),
    ("0", "0", "exp(x)/(u-v)", "-exp(x)/(u-v)"),
    ("0", "0", "sin(x)/(u-v)", "-sin(x)/(u-v)"),
    ("0", "0", "cos(x)/(u-v)", "-cos(x)/(u-v)"),
    ("exp(-a*t)", "0", "exp(-a*t)*a*u", "exp(-a*t)*a*v"),
    ("0", "0", "u", "v"),
)]

rationals = st.fractions(min_value=-20, max_value=20,
                         max_denominator=12).map(sp.Rational)


def slots(f):
    return [c.sym for c in f.coeffs()]


def combination(coeffs, basis):
    return [ex.normalize(sum(c * s for c, s in zip(coeffs, col))).sym
            for col in zip(*(slots(b) for b in basis))]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(POOL) - 1), rationals,
                          st.booleans()),
                min_size=1, max_size=4, unique_by=lambda t: t[0]))
def test_expansion_recovers_exact_coefficients(draw):
    basis = [POOL[k] for k, _, _ in draw]
    d12 = ex.parameter("d12")
    coeffs = [q * d12 if scaled else q for _, q, scaled in draw]
    got = inv._linear_expand(combination(coeffs, basis),
                             [slots(b) for b in basis])
    assert isinstance(got, tuple) and len(got) == len(coeffs)
    assert all(sp.expand(g - c) == 0 for g, c in zip(got, coeffs))


def test_independent_term_is_not_in_the_span():
    basis = POOL[:4]
    target = combination([1, 2, sp.Rational(1, 3), -1], basis)
    target[1] += X ** 2
    assert inv._linear_expand(target, [slots(b) for b in basis]) is None


def test_dependent_basis_is_degenerate():
    basis = [POOL[0], POOL[3], VectorField.make("2", "0", "0", "0")]
    target = slots(POOL[0])
    assert inv._linear_expand(target, [slots(b) for b in basis]) == "degenerate"


class TestProportional:
    EQ = ex.normalize(inv.printed_determining_equations()[22][0])

    def test_variable_factor_is_not_a_scalar(self):
        assert inv.proportional(ex.normalize(U * self.EQ.sym), self.EQ) is None

    def test_parameter_factor_is_recovered(self):
        d12 = ex.parameter("d12")
        assert inv.proportional(ex.normalize(d12 * self.EQ.sym), self.EQ) == d12

    def test_rational_parameter_factor_is_recovered(self):
        d1, d2 = ex.parameter("d1"), ex.parameter("d2")
        lam = inv.proportional(ex.normalize(self.EQ.sym / (d1 - d2)), self.EQ)
        assert sp.cancel(lam * (d1 - d2)) == 1

    def test_zero_only_matches_zero(self):
        zero = ex.normalize(0)
        assert inv.proportional(zero, zero) == 1
        assert inv.proportional(zero, self.EQ) is None
        assert inv.proportional(self.EQ, zero) is None


# the first five equations of generate_determining(full_deps=True) on the
# generic system
FIRST_FIVE_FULL = """
-2*d1*d11*Derivative(xi0(t, x, u, v), (u, 2)) - 4*d11**2*u*Derivative(xi0(t, x, u, v), (u, 2)) - 4*d11**2*Derivative(xi0(t, x, u, v), u) - 2*d11*d12*v*Derivative(xi0(t, x, u, v), (u, 2))
-4*d1*d11*Derivative(xi0(t, x, u, v), u, v) - 2*d1*d12*Derivative(xi0(t, x, u, v), (u, 2)) - 8*d11**2*u*Derivative(xi0(t, x, u, v), u, v) - 8*d11**2*Derivative(xi0(t, x, u, v), v) - 4*d11*d12*u*Derivative(xi0(t, x, u, v), (u, 2)) - 4*d11*d12*v*Derivative(xi0(t, x, u, v), u, v) - 4*d11*d12*Derivative(xi0(t, x, u, v), u) + 4*d11*d21*Derivative(xi0(t, x, u, v), v) - 2*d12**2*v*Derivative(xi0(t, x, u, v), (u, 2)) - 2*d12*d21*u*Derivative(xi0(t, x, u, v), (u, 2)) - 4*d12*d21*Derivative(xi0(t, x, u, v), u)
-4*d1*d11*Derivative(xi0(t, x, u, v), u, x) - d1*Derivative(xi1(t, x, u, v), (u, 2)) - 8*d11**2*u*Derivative(xi0(t, x, u, v), u, x) - 8*d11**2*Derivative(xi0(t, x, u, v), x) - 4*d11*d12*v*Derivative(xi0(t, x, u, v), u, x) - 2*d11*u*Derivative(xi1(t, x, u, v), (u, 2)) - 2*d11*Derivative(xi1(t, x, u, v), u) - d12*v*Derivative(xi1(t, x, u, v), (u, 2))
-d1**2*Derivative(xi0(t, x, u, v), (u, 2)) - 4*d1*d11*u*Derivative(xi0(t, x, u, v), (u, 2)) - 14*d1*d11*Derivative(xi0(t, x, u, v), u) - 2*d1*d12*v*Derivative(xi0(t, x, u, v), (u, 2)) - 4*d11**2*u**2*Derivative(xi0(t, x, u, v), (u, 2)) - 28*d11**2*u*Derivative(xi0(t, x, u, v), u) - 4*d11*d12*u*v*Derivative(xi0(t, x, u, v), (u, 2)) - 14*d11*d12*v*Derivative(xi0(t, x, u, v), u) + 2*d11*d21*v*Derivative(xi0(t, x, u, v), v) - d12**2*v**2*Derivative(xi0(t, x, u, v), (u, 2)) - d12*d21*u*v*Derivative(xi0(t, x, u, v), (u, 2)) - 2*d12*d21*v*Derivative(xi0(t, x, u, v), u)
-2*d1*d11*Derivative(xi0(t, x, u, v), (v, 2)) - 4*d1*d12*Derivative(xi0(t, x, u, v), u, v) - 4*d11**2*u*Derivative(xi0(t, x, u, v), (v, 2)) - 8*d11*d12*u*Derivative(xi0(t, x, u, v), u, v) - 2*d11*d12*v*Derivative(xi0(t, x, u, v), (v, 2)) - 12*d11*d12*Derivative(xi0(t, x, u, v), v) + 4*d11*d22*Derivative(xi0(t, x, u, v), v) - 4*d12**2*v*Derivative(xi0(t, x, u, v), u, v) - 4*d12*d21*u*Derivative(xi0(t, x, u, v), u, v) - 2*d12*d22*u*Derivative(xi0(t, x, u, v), (u, 2)) - 4*d12*d22*Derivative(xi0(t, x, u, v), u)
"""


def test_forced_zeros_of_a_partial_system():
    # with all five dependency targets as unknowns, these five equations
    # force xi0_u and xi0_v only: xi0_x and xi1_u, xi1_v stay free
    xi0, xi1 = sp.Function("xi0"), sp.Function("xi1")
    eqs = [sp.sympify(line, locals={"xi0": xi0, "xi1": xi1})
           for line in FIRST_FIVE_FULL.strip().splitlines()]
    xi0f, xi1f = xi0(T, X, U, V), xi1(T, X, U, V)
    targets = ([sp.diff(xi0f, s) for s in (X, U, V)]
               + [sp.diff(xi1f, s) for s in (U, V)])
    assert inv._forced_zero_derivatives(eqs, targets) == {targets[1], targets[2]}
