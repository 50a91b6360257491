import math

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sktsym import expr as ex
from sktsym.catalog import Catalog
from sktsym.expr import T, U, V, X


class TestNormalize:
    def test_polynomial_identity(self):
        a = ex.parse("(u+v)^2")
        b = ex.parse("u^2 + 2*u*v + v^2")
        assert a == b

    def test_rational_cancellation(self):
        a = ex.parse("(u^2 - v^2)/(u - v)")
        b = ex.parse("u + v")
        assert a == b

    def test_trig_relation(self):
        assert ex.normalize(sp.sin(X) ** 2 + sp.cos(X) ** 2 - 1).is_zero

    def test_trig_relation_shifted_argument(self):
        arg = 2 * X + 3 * T
        assert ex.normalize(sp.sin(arg) ** 2 + sp.cos(arg) ** 2 - 1).is_zero

    def test_exp_combination(self):
        assert ex.normalize(sp.exp(T) * sp.exp(X) - sp.exp(T + X)).is_zero

    def test_exp_integer_powers_share_generators(self):
        assert ex.normalize(sp.exp(2 * X) - sp.exp(X) ** 2).is_zero

    def test_euler_constant_is_exp_one(self):
        assert ex.normalize(sp.exp(U - 1) - sp.exp(U) / sp.E).is_zero

    def test_sqrt_square_collapses(self):
        r = X ** 2 + 1
        assert ex.normalize(sp.sqrt(r) ** 2 - r).is_zero

    def test_sqrt_odd_power_survives(self):
        assert not ex.normalize(sp.sqrt(X ** 2 + 1)).is_zero

    def test_sqrt_radicands_unify_after_expansion(self):
        a = sp.sqrt((1 - 3 * U) ** 2 + 2)
        b = sp.sqrt(9 * U ** 2 - 6 * U + 3)
        assert ex.normalize(a - b).is_zero

    def test_sqrt_numeric_content_split(self):
        a = sp.sqrt(4 * U ** 2 - 8 * U + 6)
        b = sp.sqrt(2) * sp.sqrt(2 * U ** 2 - 4 * U + 3)
        assert ex.normalize(a - b).is_zero

    def test_distinct_radicands_not_conflated(self):
        assert not ex.normalize(sp.sqrt(X ** 2 + 1) - sp.sqrt(X ** 2 + 2)).is_zero

    def test_denominator_rationalized(self):
        w = sp.sqrt(X ** 2 + 1)
        e = 1 / (w - X) - (w + X)
        assert ex.normalize(e).is_zero

    def test_iszero_agrees_with_normalize(self):
        samples = [
            sp.sin(X) ** 2 + sp.cos(X) ** 2 - 1,
            sp.exp(T + X) - sp.exp(T) * sp.exp(X),
            (U + V) ** 2 - U ** 2 - 2 * U * V - V ** 2,
            U - V,
            sp.sqrt(U ** 2 + 1) - U,
        ]
        for s in samples:
            assert ex.iszero(s) == ex.normalize(s).is_zero

    def test_iszero_records_the_denominator_it_assumed(self):
        acc = set()
        assert ex.iszero((U ** 2 - V ** 2) / (U - V) - (U + V), acc)
        assert acc == {U - V}

    def test_iszero_records_no_number_denominator(self):
        acc = set()
        assert ex.iszero((U + V) / 2 - U / 2 - V / 2, acc)
        assert acc == set()

    def test_iszero_records_nothing_for_a_nonzero(self):
        acc = set()
        assert not ex.iszero(1 / (U - V) - U, acc)
        assert acc == set()

    def test_iszero_record_does_not_depend_on_earlier_calls(self):
        e = (sp.sin(T) ** 2 + sp.cos(T) ** 2 - 1) / (sp.exp(X) - U)
        first = set()
        assert ex.iszero(e, first)
        for other in (sp.cos(T) * sp.exp(-X) - U, sp.exp(2 * X) / sp.sin(T)):
            ex.iszero(other)
        again = set()
        assert ex.iszero(e, again)
        assert first == again == {sp.exp(X) - U}

    def test_iszero_verdict_does_not_depend_on_the_accumulator(self):
        for s in (sp.sqrt(U ** 2 + 1) ** 2 / (U - V) - (U ** 2 + 1) / (U - V),
                  sp.exp(X) / (sp.exp(X) + 1) - 1):
            assert ex.iszero(s) == ex.iszero(s, set())


class TestExpressionType:
    def test_equality_is_semantic(self):
        assert ex.parse("u*(u+1)") == ex.parse("u^2 + u")

    def test_equality_decides_through_iszero(self, monkeypatch):
        calls = []
        normalize = ex.normalize
        monkeypatch.setattr(ex, "normalize",
                            lambda *a: calls.append(a) or normalize(*a))
        assert ex.Expression(sp.sin(X) ** 2 + sp.cos(X) ** 2) == 1
        assert calls == []

    def test_hashable_and_frozen(self):
        e = ex.parse("u + v")
        with pytest.raises(Exception):
            e.sym = None

    def test_arithmetic_operators(self):
        # an Expression is a record: values combine as raw sympy
        with pytest.raises(TypeError):
            ex.parse("u") + 1

    def test_parameter_is_plain_symbol(self):
        p = ex.parameter("alpha1")
        assert isinstance(p, sp.Symbol)

    def test_render_parse_roundtrip(self):
        texts = ["u^2 + 2*u*v", "sin(x)*exp(t)", "sqrt(u^2 + 1)/(u - v)"]
        for t in texts:
            assert ex.parse(ex.render(ex.parse(t))) == ex.parse(t)

    def test_parse_rejects_unknown_function(self):
        with pytest.raises(ex.ParseError):
            ex.parse("gamma(u)")


class TestCoercion:
    def test_expression_is_returned_as_it_is(self):
        e = ex.parse("u + v")
        assert ex.as_expression(e) is e

    def test_string_reads_the_grammar(self):
        assert ex.as_sym("x^2") == X ** 2
        assert ex.as_expression("x^2").sym == X ** 2

    def test_string_is_not_evaluated_as_python(self):
        for coerce in (ex.as_sym, ex.as_expression):
            with pytest.raises(ex.ParseError):
                coerce("__import__('os')")

    def test_float_stays_a_float(self):
        assert isinstance(ex.as_sym(0.5), sp.Float)


class TestFloatPolicy:
    """normalize and iszero read each Float as its exact binary value."""

    def test_float_terms_combine_exactly(self):
        assert ex.normalize(0.5 * X + X / 2).sym == X

    def test_exact_binary_value_not_the_decimal(self):
        out = ex.normalize(sp.Float(0.1)).sym
        assert out == sp.Rational(0.1)
        assert out == sp.Rational(3602879701896397, 36028797018963968)
        assert out != sp.Rational(1, 10)
        assert ex.eval_numeric(out, {}) == 0.1

    def test_nan_still_raises(self):
        with pytest.raises(ex.ZeroDenominatorError):
            ex.normalize(float("nan"))


class TestEvalNumeric:
    def test_simple_value(self):
        e = ex.parse("u^2 + v")
        assert ex.eval_numeric(e, {U: 2.0, V: 1.0}) == pytest.approx(5.0)

    def test_unbound_symbol_raises(self):
        with pytest.raises(ex.UnboundSymbolError):
            ex.eval_numeric(ex.parse("u + v"), {U: 1.0})

    def test_zero_denominator_guard(self):
        e = ex.parse("1/(u - v)")
        with pytest.raises(ex.ExprError):
            ex.eval_numeric(e, {U: 1.0, V: 1.0 - 1e-15})

    def test_negative_radicand_guard(self):
        e = ex.normalize(sp.sqrt(U - 2))
        with pytest.raises(ex.GuardViolation):
            ex.eval_numeric(e, {U: 1.0})

    def test_array_bindings_broadcast(self):
        e = ex.normalize(sp.sqrt(X + 1) * sp.exp(T) / (X + 2))
        xs = np.array([0.0, 0.5, 2.0])
        vals = ex.eval_numeric(e, {"x": xs, "t": 0.25})
        assert isinstance(vals, np.ndarray) and vals.shape == (3,)
        for x, val in zip(xs, vals):
            assert val == ex.eval_numeric(e, {"x": float(x), "t": 0.25})

    def test_scalar_bindings_give_a_float(self):
        # the canonical form of exp(x + 1) is E*exp(x)
        val = ex.eval_numeric(ex.parse("cos(x) + exp(x + 1)"), {X: 0.0})
        assert type(val) is float and val == pytest.approx(1 + math.e)

    def test_guard_trips_on_any_array_element(self):
        e = ex.normalize(sp.sqrt(X - 1))
        with pytest.raises(ex.GuardViolation):
            ex.eval_numeric(e, {X: np.array([3.0, 2.0, 0.5])})
        with pytest.raises(ex.GuardViolation):
            ex.eval_numeric(ex.parse("1/(x - 1)"), {X: np.array([0.0, 1.0])})

    def test_transcendental_eval(self):
        e = ex.normalize(sp.sin(X) * sp.exp(T))
        val = ex.eval_numeric(e, {X: 0.5, T: 0.25})
        assert val == pytest.approx(math.sin(0.5) * math.exp(0.25), rel=1e-12)

    def test_mpf_bindings_evaluate_at_working_precision(self):
        with mpmath.workdps(30):
            val = ex.eval_numeric(ex.parse("exp(x)"), {X: mpmath.mpf(1)})
            assert isinstance(val, mpmath.mpf)
            assert abs(val - mpmath.e) < 1e-29
            # 1/(x - 1) at 1 + 1e-10 is 1e10 to some 20 digits; in double
            # precision it is off by about 800
            near = ex.eval_numeric(ex.parse("1/(x - 1)"),
                                   {X: 1 + mpmath.mpf(10) ** -10})
            assert abs(near - mpmath.mpf(10) ** 10) < 1e-6

    def test_mpf_guard_trips(self):
        with mpmath.workdps(30), pytest.raises(ex.GuardViolation):
            ex.eval_numeric(ex.parse("1/(x - 1)"), {X: mpmath.mpf(1)})

    @staticmethod
    def _at(e, vals, precise):
        """eval_numeric at float bindings, or at them as mpf at 30 digits."""
        if not precise:
            return ex.eval_numeric(e, vals)
        with mpmath.workdps(30):
            return ex.eval_numeric(e, {k: mpmath.mpf(v) for k, v in vals.items()})

    @pytest.mark.parametrize("precise", [False, True], ids=["float", "mpf"])
    def test_each_subexpression_is_evaluated_once(self, monkeypatch, precise):
        # the head is bound when the expression is translated, so the spy is
        # in place before this expression (its symbols used nowhere else) is
        # first compiled; the tree holds four copies of exp(x)
        lib = mpmath if precise else np
        real, calls = lib.exp, []
        monkeypatch.setattr(lib, "exp", lambda z: calls.append(z) or real(z))
        ys = sp.symbols("once_y1:5")
        e = sp.Add(*[sp.exp(X) * (y + k) for k, y in enumerate(ys)])
        vals = {X: 0.5, **{y: 0.25 for y in ys}}
        for n in (1, 2):
            got = self._at(e, vals, precise)
            assert len(calls) == n
            assert abs(got - math.exp(0.5) * 7.0) < 1e-12

    # (expression, the zero denominator the tree walk meets first): each
    # denominator is shared by several terms, and the printed order puts the
    # other one first
    SHARED_DENOMINATORS = [
        (T / (U - V) + X / (U - V) + 1 / (U ** 2 - V ** 2), U ** 2 - V ** 2),
        (T * X / (U ** 2 - V ** 2) + T / (U - V) ** 2 + X / (U ** 2 - V ** 2)
         + 1 / (U - V), U - V),
    ]

    @pytest.mark.parametrize("precise", [False, True], ids=["float", "mpf"])
    @pytest.mark.parametrize("e, first", SHARED_DENOMINATORS)
    def test_shared_zero_denominator_trips_where_the_tree_walk_does(
            self, e, first, precise):
        vals = {U: 1.0, V: 1.0, X: 0.5, T: 0.2}
        with pytest.raises(ex.GuardViolation) as err:
            self._at(e, vals, precise)
        assert err.value.subexpr == first
        assert str(err.value) == f"denominator below guard: {first}"

    @pytest.mark.parametrize("precise", [False, True], ids=["float", "mpf"])
    def test_first_unbound_symbol_is_the_tree_walks(self, precise):
        # sqrt(b) comes first in the sum's arguments, though a sorts first
        a, b = sp.symbols("a b")
        e = sp.sqrt(b) + a * X
        assert e.args[0] == sp.sqrt(b)
        with pytest.raises(ex.UnboundSymbolError, match="^unbound symbol b$"):
            self._at(e, {X: 1.0}, precise)

    @pytest.mark.parametrize("text", [
        "sqrt(u^2 + 1)*exp(-x/3) + sin(t)^3/(2 + cos(x*u))",
        "exp(t + x/2)/sqrt(1 + x^2)^3 - cos(3*t)*sqrt(2*u + v)",
        "(sin(x) + 2)^-2*exp(sin(u)) + sqrt(v*sqrt(x + 1))",
    ])
    def test_mpf_path_agrees_with_evalf(self, text):
        # evalf(30) is the reference; the bindings are floats, exact in both
        vals = {T: 0.3, X: 1.7, U: 0.45, V: 2.25}
        for e in (ex.parse_sym(text), ex.parse(text).sym):
            ref = e.xreplace({k: sp.Float(v, 30) for k, v in vals.items()})
            ref = ref.evalf(30)
            with mpmath.workdps(30):
                got = ex.eval_numeric(e, {k: mpmath.mpf(v)
                                          for k, v in vals.items()})
            assert abs(got - ref) <= 1e-25 * max(1, abs(ref)), (e, got, ref)


class TestCollectJet:
    def test_splits_by_monomial(self):
        ux = ex.jet(1, 0, 1)
        vx = ex.jet(2, 0, 1)
        e = ex.normalize(U * ux ** 2 + V * ux * vx + ux ** 2)
        groups = ex.collect_jet(e)
        keys = set(groups)
        assert ux ** 2 in keys and ux * vx in keys
        assert ex.normalize(groups[ux ** 2].sym - (U + 1)).is_zero

    @pytest.mark.parametrize("text", [
        "u_x/(1 + u_xx)", "exp(u_x)", "sqrt(u_x)", "u_x^-1"])
    @pytest.mark.parametrize("normalized", [False, True])
    def test_jet_outside_a_polynomial_raises(self, text, normalized):
        e = ex.parse_sym(text)
        if normalized:
            e = ex.normalize(e)
        with pytest.raises(ex.NotPolynomialError):
            ex.collect_jet(e)

    def test_monomials_in_poly_terms_order(self):
        ux, vx, uxx, vxx = (ex.jet(d, 0, k) for k in (1, 2) for d in (1, 2))
        e = ex.normalize(vxx * ux - U * uxx ** 2 + sp.exp(X) * vx * ux
                         + V * vx ** 3 + T * uxx * vxx - 3 + ux / (U - V))
        n = sp.fraction(sp.together(e.sym))[0]
        gens = (ux, uxx, vx, vxx)
        expected = [sp.Mul(*[g ** k for g, k in zip(gens, powers)])
                    for powers, _ in sp.Poly(n, *gens).terms()]
        assert list(ex.collect_jet(e)) == expected
        assert list(ex.collect_jet(e.sym)) == expected

    def test_no_jets_gives_the_normal_form(self):
        e = (U ** 2 - V ** 2) / (U - V) + sp.exp(X)
        out, normal = ex.collect_jet(e), ex.normalize(e)
        assert list(out) == [sp.Integer(1)]
        assert out[1].sym == normal.sym
        assert out[1].assumptions == normal.assumptions == {U - V}

    def test_expression_assumptions_reach_every_coefficient(self):
        e = ex.Expression(ex.jet(1, 0, 1) + U * ex.jet(2, 0, 2),
                          frozenset({U - V}))
        for coeff in ex.collect_jet(e).values():
            assert U - V in coeff.assumptions

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_raw_and_normalized_splits_agree(self, data):
        e = data.draw(_jet_polys())
        raw, normal = ex.collect_jet(e), ex.collect_jet(ex.normalize(e))
        assert list(raw) == list(normal)
        assert ([sp.srepr(c.sym) for c in raw.values()]
                == [sp.srepr(c.sym) for c in normal.values()])


_SPLIT_JETS = [ex.jet(d, nt, nx) for d in (1, 2)
               for nt, nx in ((0, 1), (0, 2), (1, 0))]
_COEFF_ATOMS = [T, X, U, V, ex.parameter("a"), ex.parameter("b"),
                sp.exp(X), sp.exp(T - U), sp.sin(X), sp.cos(X),
                sp.sqrt(X ** 2 + 1), sp.sqrt(ex.parameter("a"))]


@st.composite
def _jet_polys(draw):
    """A sum of a few coefficient * jet-monomial terms.  Coefficients are
    rational multiples of products of t, x, u, v, parameters and
    exp/sin/cos/sqrt atoms over a power of (u - v); several terms can share
    a monomial."""
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        c = sp.Rational(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
        coeff = c * sp.Mul(*draw(st.lists(st.sampled_from(_COEFF_ATOMS),
                                          max_size=3)))
        if draw(st.booleans()):
            coeff += draw(st.sampled_from(_COEFF_ATOMS))
        coeff /= (U - V) ** draw(st.integers(0, 2))
        mono = sp.Mul(*draw(st.lists(st.sampled_from(_SPLIT_JETS),
                                     max_size=3)))
        terms.append(coeff * mono)
    return sp.Add(*terms)


class TestZeroDenominator:
    @pytest.mark.parametrize("text", [
        "1/(0*t)", "exp(1)/(t-t)", "u/(x-x) - u/(x-x)", "0/(t-t)"])
    def test_literal_division_by_zero_raises(self, text):
        with pytest.raises(ex.ZeroDenominatorError):
            ex.parse(text)
        with pytest.raises(ex.ZeroDenominatorError):
            ex.iszero(ex.parse_sym(text))


def _gcd_then_cancel(n, d):
    """The two-gcd cancellation that _cancel replaces."""
    acc = set()
    g = sp.gcd(n, d)
    if not g.is_Number:
        acc.add(g)
    return sp.fraction(sp.cancel(n / d)), acc


def _single_gcd(n, d):
    acc = set()
    return ex._cancel(n, d, ex._AtomTable(), acc), acc


_A, _B = ex.parameter("a"), ex.parameter("b")
_W = sp.Dummy("W")
_GENS = (U, X, _A, _W)


@st.composite
def _polys(draw, max_terms=3):
    terms = draw(st.lists(
        st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                  st.tuples(*[st.integers(0, 2) for _ in _GENS])),
        min_size=1, max_size=max_terms))
    return sp.Add(*[sp.Rational(c.numerator, c.denominator)
                    * sp.Mul(*[g ** k for g, k in zip(_GENS, ks)])
                    for c, ks in terms])


class TestCancel:
    @pytest.mark.parametrize("n, d", [
        ((U ** 2 - V ** 2) * 2, 4 * (U - V)),                 # ZZ
        (U ** 2 - 1, U / 2 - sp.Rational(1, 2)),              # QQ
        (sp.Rational(2, 3) * (X + 1) * U, (X + 1) / 5),       # QQ, both sides
        ((_W + 1) * (_W - U), -3 * (_W + 1)),                 # Dummy generators
        (_A * _B - _A, _A ** 2 * (_B - 1)),                   # parameters only
        (sp.Integer(0), U + 1),                               # zero numerator
        (sp.Integer(6), sp.Integer(4)),                       # constants only
        (-(U + 1), -(U ** 2 - 1)),                            # negative leading term
    ])
    def test_matches_gcd_then_cancel(self, n, d):
        assert _single_gcd(n, d) == _gcd_then_cancel(n, d)

    @settings(max_examples=60, deadline=None)
    @given(_polys(), _polys(), _polys(max_terms=2))
    def test_planted_common_factor(self, p, q, c):
        assume(q != 0 and c != 0)
        n, d = sp.expand(p * c), sp.expand(q * c)
        assert _single_gcd(n, d) == _gcd_then_cancel(n, d)

    def test_pythagorean_numerator_vanishes_without_assumptions(self):
        s, c = sp.sin(X), sp.cos(X)
        out = ex.normalize((s ** 2 + c ** 2 - 1) / s ** 2)
        assert out.sym == 0
        assert out.assumptions == frozenset()

    def test_rational_coefficients_cancel_to_integer_form(self):
        out = ex.normalize((X ** 2 - 1) / (X / 2 - sp.Rational(1, 2)))
        assert out.sym == 2 * X + 2
        assert out.assumptions == frozenset({X - 1})


def _ring_parts(ring, polys):
    return ring.symbols, ring.domain, [dict(p) for p in polys]


# the leaves and nodes a reading must take as sp.sring takes them
_READER_CASES = [
    2 ** (X - 2),                        # expands to 2**x/4
    U ** _A,                             # a symbolic power is a generator
    1 / (U + 1),                         # the reciprocal is the generator
    U ** -2,                             # ... to the second power
    (_W + 1) * (U - _W) ** 2 / 3,        # an atom Dummy, QQ
    (U + 1) ** 2 - U ** 2 - 2 * U,       # generators that cancel out
]


class TestRingReader:
    """The kernel's one tree walk builds the ring sp.sring builds: the same
    generators in the same order, the same domain and the same elements."""

    @pytest.mark.parametrize("e", _READER_CASES)
    def test_hand_cases_match_sring(self, e):
        assert _ring_parts(*ex._ring_read([e])) == _ring_parts(*sp.sring([e]))

    def test_cancelled_pairs_of_a_catalog_entry_match_sring(self, monkeypatch):
        pairs, cancel = [], ex._cancel

        def spy(n, d, table, assumptions):
            pairs.append((n, d))
            return cancel(n, d, table, assumptions)

        monkeypatch.setattr(ex, "_cancel", spy)
        Catalog.load().validate_all(keys=[(2, 4)])
        assert len(pairs) > 20
        for pair in pairs:
            assert (_ring_parts(*ex._ring_read(pair))
                    == _ring_parts(*sp.sring(pair)))

    def test_float_leaf_raises(self):
        with pytest.raises(ex.ExprError):
            ex._ring_read([sp.Float(0.5) * U + V])

    def test_given_generators_over_a_parameter_field(self):
        nums = [_A * U ** 2 + sp.exp(T) * _B / (_A + 1), U * V - _A / _B]
        gens = [U, V, sp.exp(T)]
        field = sp.ZZ.frac_field(_A, _B)
        assert (_ring_parts(*ex._ring_read(nums, gens, field))
                == _ring_parts(*sp.sring(nums, *gens, domain=field)))
        for e in (sp.sqrt(U), 1 / U, T * U):
            with pytest.raises(ex.NotPolynomialError):
                ex._ring_read([e], gens, field)

    def test_zero_test_expands_no_polynomial_node(self, monkeypatch):
        calls, expand = [], ex.sp.expand

        def spy(e, *args, **kwargs):
            calls.append(e)
            return expand(e, *args, **kwargs)

        monkeypatch.setattr(ex.sp, "expand", spy)
        p = (U + V) ** 6
        assert ex.iszero(p - expand(p))
        assert calls == []


def _powsimp(e):
    return sp.powsimp(e, combine="exp", deep=True)


_SYM_NAMES = ("t", "x", "u", "v", "a", "b")


@st.composite
def _lin_text(draw):
    terms = [f"{draw(st.integers(-3, 3))}*{s}"
             for s in draw(st.lists(st.sampled_from(_SYM_NAMES),
                                    min_size=1, max_size=2))]
    return "(" + " + ".join(terms + [str(draw(st.integers(-2, 2)))]) + ")"


@st.composite
def _exp_text(draw):
    lin = draw(_lin_text())
    if draw(st.booleans()):
        return f"exp{lin}"
    p, q = draw(st.integers(-3, 3)), draw(st.integers(2, 4))
    return f"exp({p}/{q}*{lin})"


@st.composite
def _factor_text(draw):
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(_exp_text())
    if kind == 1:
        return "exp(1)"
    if kind == 2:
        names = draw(st.lists(st.sampled_from(_SYM_NAMES + ("2", "3")),
                              min_size=1, max_size=3))
        return "sqrt(" + "*".join(names) + ")"
    if kind == 3:
        base = draw(st.sampled_from(("u - v", "v - u")))
        return f"({base})^{draw(st.integers(-2, 2))}"
    if kind == 4:
        # exponentials that merge only once the argument is expanded
        return (f"sin({draw(_exp_text())}*({draw(_exp_text())}"
                f" + {draw(_lin_text())}))")
    return draw(_lin_text()) + f"^{draw(st.integers(1, 2))}"


@st.composite
def _merge_text(draw):
    products = [draw(st.sampled_from(("*", "/"))).join(
                    draw(st.lists(_factor_text(), min_size=1, max_size=3)))
                for _ in range(draw(st.integers(1, 3)))]
    return " + ".join(products)


def _finite(text):
    """The grammar can divide by a linear form that is 0."""
    e = ex.parse_sym(text)
    assume(not e.has(sp.zoo, sp.nan))
    return e


# one case per way sympy's powsimp(combine="exp") can rewrite a product
_POWSIMP_CASES = [
    sp.exp(_A) * sp.exp(_B),                  # two exponentials
    sp.E * sp.exp(_A) + U,                    # E is exp(1)
    _A / ((U - V) * (V - U)),                 # a base and its negation
    _A * _B * sp.sqrt(_A * _B),               # radical of a product
    X * sp.sqrt(T * U) * sp.sqrt(T * U) ** 3,  # unflattened product
    2 ** X / 4,                               # number to a symbolic power
]


class TestMergeExp:
    """Exponentials merge in generator space: exp(c*m) is a power of one
    generator exp(m/L) per direction m, so the kernel needs no powsimp."""

    def test_product_with_half_exponent(self):
        e = (sp.exp(X / 2) * (sp.exp(X / 2) + sp.exp(T))
             - sp.exp(X) - sp.exp(T + X / 2))
        assert ex.iszero(e)
        assert ex.normalize(e).is_zero

    @pytest.mark.parametrize("e", [
        sp.exp(X / 2) * sp.exp(X / 3 + T) - sp.exp(5 * X / 6 + T),
        sp.exp(X / 2) * (sp.exp(X / 3 + T) + 1) - sp.exp(5 * X / 6 + T)
        - sp.exp(X / 2),
    ])
    def test_denominators_meet_at_their_lcm(self, e):
        assert ex.iszero(e)
        assert ex.normalize(e).is_zero
        assert not ex.iszero(e + sp.exp(X / 3))
        assert not ex.normalize(e + sp.exp(X / 3)).is_zero

    def test_sqrt_relation_follows_the_rewrite(self):
        # w**2 = exp(x/3) + 1 must be read over the root exp(x/6) that
        # exp(x/2) and exp(5x/6) force
        w = sp.sqrt(sp.exp(X / 3) + 1)
        e = w ** 3 * sp.exp(X / 2) - w * (sp.exp(5 * X / 6) + sp.exp(X / 2))
        assert ex.iszero(e)
        assert ex.normalize(e).is_zero
        assert not ex.iszero(e + w * sp.exp(X / 3))

    @pytest.mark.parametrize("e", [
        sp.sin(sp.exp(X / 2) * (sp.exp(X / 2) + 1))
        - sp.sin(sp.exp(X) + sp.exp(X / 2)),
        sp.sqrt(sp.exp(X / 2) * (sp.exp(X / 2) + sp.exp(T)))
        - sp.sqrt(sp.exp(X) + sp.exp(T + X / 2)),
        sp.exp(X * sp.exp(T / 2) * (sp.exp(T / 2) + 1))
        - sp.exp(X * sp.exp(T)) * sp.exp(X * sp.exp(T / 2)),
    ])
    def test_arguments_merge_before_they_become_keys(self, e):
        assert ex.iszero(e)
        assert ex.normalize(e).is_zero

    def test_canonical_form_prints_merged_exponentials(self):
        out = ex.normalize((sp.exp(X) - 1) / (sp.exp(X / 2) - 1))
        assert out.sym == sp.exp(X / 2) + 1

    def test_kernel_never_calls_powsimp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("powsimp called")

        monkeypatch.setattr(ex.sp, "powsimp", refuse)
        for e in _POWSIMP_CASES + [sp.exp(X / 2) * sp.exp(X / 3 + T)]:
            ex.normalize(e)
            ex.iszero(e)

    @pytest.mark.parametrize("e", _POWSIMP_CASES)
    def test_rewrite_rule_matches_powsimp(self, e):
        merged = _powsimp(e)
        assert merged != e
        assert ex.normalize(e).sym == ex.normalize(merged).sym
        assert ex.iszero(e - merged)

    @settings(max_examples=80, deadline=None)
    @given(_merge_text())
    def test_equals_powsimp(self, text):
        e = _finite(text)
        assert ex.normalize(e).sym == ex.normalize(_powsimp(e)).sym
        assert ex.iszero(e - _powsimp(e))

    @settings(max_examples=80, deadline=None)
    @given(_merge_text(), _merge_text(),
           st.sampled_from(("powsimp", "expand", "other")))
    def test_iszero_agrees_with_normalize(self, text, other, how):
        e = _finite(text)
        rewritten = {"powsimp": _powsimp, "expand": sp.expand,
                     "other": lambda _: _finite(other)}[how](e)
        diff = e - rewritten
        assert ex.iszero(diff) == ex.normalize(diff).is_zero
        if how != "other":
            assert ex.iszero(diff)


class TestTrigArguments:
    @pytest.mark.parametrize("arg", [X / sp.sqrt(_B), sp.sqrt(_B) * X])
    def test_no_generator_leaks_into_the_argument(self, arg):
        first, second = (sp.srepr(ex.normalize(sp.cos(arg)).sym)
                         for _ in range(2))
        assert first == second
        assert "Dummy" not in first
        assert ex.normalize(sp.cos(arg)) == ex.normalize(sp.cos(arg))

    def test_sign_is_read_from_the_expanded_numerator(self):
        e = sp.sin((1 - T) * sp.exp(-1)) + sp.sin(T * sp.exp(-1) - sp.exp(-1))
        assert ex.iszero(e)
        assert ex.normalize(e).is_zero
        assert not ex.iszero(e + sp.cos((T - 1) * sp.exp(-1)))


def _same_as_together(e):
    return sp.srepr(ex._together(e)) == sp.srepr(sp.together(e))


_C = ex.parameter("c")
_TOGETHER_BASES = (T, X, U, V, _A, _C, _W, sp.I, U - V,
                   2 * U - 2 * V,                  # content 2
                   U ** 2 - 2 * U * V + V ** 2,
                   1 / (1 + 1 / X),                # nested
                   sp.I * U + V)


@st.composite
def _together_sums(draw):
    """A sum of 1-8 terms: a rational, negative or Float coefficient times
    powers in [-3, 3] of symbols, a generator, I and sums."""
    coeff = st.one_of(
        st.fractions(min_value=-5, max_value=5, max_denominator=6).map(
            lambda c: sp.Rational(c.numerator, c.denominator)),
        st.sampled_from((0.5, -1.25, 3.0, -0.1)).map(sp.Float))
    factor = st.tuples(st.sampled_from(_TOGETHER_BASES), st.integers(-3, 3))
    return sp.Add(*[draw(coeff) * sp.Mul(*[b ** k for b, k in draw(
                        st.lists(factor, max_size=4))])
                    for _ in range(draw(st.integers(1, 8)))])


class TestTogether:
    """_together is sympy's together, down to the srepr of its output."""

    @settings(max_examples=200, deadline=None)
    @given(_together_sums())
    def test_same_srepr_as_together(self, e):
        assert _same_as_together(e)

    @pytest.mark.parametrize("e", [
        3 * U ** 2 / (U - V),                      # a single term
        X, sp.Integer(0), sp.Float(2.5),           # atoms
        U * V * (U - V) ** 2,                      # no denominator
        X / 2 + T / 3,                             # rational content only
        U / (2 * U - 2 * V) ** 2 - V / (U - V) ** 3,
        sp.I * X + 1 / X,                          # I, left untidied
        sp.I * X * (1 / T + 1 / U),
        sp.exp(X + 1) * T + sp.exp(-2 * X - 2) / T,
        # Factors.gcd makes an Integer exponent, which Factors.as_expr
        # writes as b**(k*e) unevaluated
        sp.exp(sp.Mul(3, X + 1, evaluate=False))
        + sp.exp(sp.Mul(2, X + 1, evaluate=False)) + 1,
        sp.Pow(X, sp.Mul(2, T + 1, evaluate=False), evaluate=False) * U
        + sp.Pow(X, sp.Mul(3, T + 1, evaluate=False), evaluate=False),
    ])
    def test_fixed_cases(self, e):
        assert _same_as_together(e)

    def test_non_commutative_term_raises(self):
        a, b = sp.symbols("p q", commutative=False)
        with pytest.raises(ex.ExprError):
            ex._together(a * b + 1 / X)

    def test_every_kernel_call_on_catalog_entries(self, monkeypatch):
        calls, depth = [], []
        kernel = ex._together

        def spy(e):
            # _together recurses through the module: record the outer calls
            depth.append(e)
            try:
                out = kernel(e)
            finally:
                depth.pop()
            if not depth:
                calls.append((e, out))
            return out

        monkeypatch.setattr(ex, "_together", spy)
        cat = Catalog.load()
        cat.validate_all(keys=[(2, 3), (2, 4)])
        cat.validate_all(keys=[(2, 4)], mutate={(2, 4): {"c1": "1"}})
        assert len(calls) > 100
        assert all(sp.srepr(out) == sp.srepr(sp.together(e))
                   for e, out in calls)

    def test_kernel_never_calls_together(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("together called")

        monkeypatch.setattr(ex.sp, "together", refuse)
        e = U / (U - V) + sp.exp(X) / (2 * U - 2 * V) - sp.sin(X) ** 2
        assert ex.normalize(e).sym == ex.normalize(sp.expand(e)).sym
        pythagoras = sp.sin(X) ** 2 + sp.cos(X) ** 2 - 1
        assert ex.iszero(e - sp.expand(e) + pythagoras)
        assert not ex.iszero(e)
