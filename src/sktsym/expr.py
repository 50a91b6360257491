"""Symbolic kernel: expressions over base/jet variables, parameters and
transcendental atoms (exp, sin, cos, sqrt), with a deterministic canonical
form that makes zero-testing decisive for everything the toolkit needs.

The canonical form is a cancelled rational function whose numerator and
denominator are expanded polynomials over the declared symbols and atoms,
reduced by the atom relations

    sqrt(R)**2 -> R          (and sqrt(0) -> 0)
    sin(A)**2  -> 1 - cos(A)**2

with sqrt/sin factors rationalized out of denominators.  Exponentials need no
relation: each becomes a monomial in generators exp(m/L), one per primitive
direction m of its exponent, so exp(A)*exp(B) and exp(A+B), or exp(-A) and
1/exp(A), are the same polynomial.  The common denominator is _together:
sympy's together, the same output down to its srepr, with the terms'
factors in plain dicts instead of sympy's Factors.  Each cancellation is
one polynomial gcd with cofactors.  A literal division by zero (sympy's zoo
or nan) raises ZeroDenominatorError in normalize and iszero, as a
denominator that cancels to zero does; in the same walk of their input
each Float becomes its exact binary value, so every ring is exact.  sympy
supplies the polynomial arithmetic underneath, in sparse PolyRings: one
reader (_ring_read), a memoized walk of the tree with Add, Mul and integer
powers as ring arithmetic, builds every polynomial the zero test, the
canonical form (read once, cancelled, reduced and rationalized in that
ring, then made a tree) and the linear layer's parameter splits use, in
the ring sp.sring would build but without expanding the tree through
sympy first.  This module owns the atom discipline, the grammar, the ring
reader, the one zero test (iszero), the one partial derivative (partial), a
chain-rule walk kept per (node, variable) that builds sympy's own evaluated
diff tree without its Derivative dispatch, the one jet-monomial splitter
(collect_jet), which normalizes each coefficient but never the whole input,
and the one numeric evaluator (eval_numeric), shared by the sample checks,
the simulator and the residual oracle.  It translates an expression once
into a straight-line program with one step per distinct node
(compile_numeric), in numpy double precision or, for mpmath bindings, in
mpmath at the working precision, and runs it.

Every value enters the kernel through one of two entry points: as_sym gives
its raw sympy form and as_expression its Expression.  Both read a string with
the toolkit grammar (parse_sym), so no input text is evaluated as Python.
An Expression is a record (sym, assumptions) with no arithmetic operators.
The builders elsewhere (a field's action, the total derivative, the
manifold restriction) return raw sympy, values are combined as raw sympy,
and each caller normalizes or decides the result once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np
import sympy as sp
from sympy.core.exprtools import decompose_power
from sympy.core.function import AppliedUndef
from sympy.core.mul import _keep_coeff
from sympy.polys.constructor import construct_domain
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyRing


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message, column):
        super().__init__(f"{message} (column {column})")
        self.column = column


class UnknownIdentifierError(ParseError):
    pass


class UnboundSymbolError(ExprError):
    pass


class GuardViolation(ExprError):
    def __init__(self, message, subexpr):
        super().__init__(f"{message}: {subexpr}")
        self.subexpr = subexpr


class ZeroDenominatorError(ExprError):
    pass


# ---------------------------------------------------------------------------
# symbol registry

T, X = sp.symbols("t x")

_JET_MAX_T = 2
_JET_MAX_X = 3  # order-3 x-jets are internal (manifold consequences)


def jet_name(dep, nt, nx):
    head = "u" if dep == 1 else "v"
    if nt == 0 and nx == 0:
        return head
    return head + "_" + "t" * nt + "x" * nx


_JET = {}
for _dep in (1, 2):
    for _nt in range(_JET_MAX_T + 1):
        for _nx in range(_JET_MAX_X + 1):
            _JET[(_dep, _nt, _nx)] = sp.Symbol(jet_name(_dep, _nt, _nx))

U, V = _JET[(1, 0, 0)], _JET[(2, 0, 0)]


def jet(dep, nt, nx):
    """The jet symbol for derivative d^{nt+nx} u^dep / dt^nt dx^nx."""
    try:
        return _JET[(dep, nt, nx)]
    except KeyError:
        raise ExprError(f"jet order out of range: dep={dep} nt={nt} nx={nx}")


# names acceptable in the surface grammar (total order <= 2)
_PUBLIC_JET_NAMES = {
    jet_name(d, nt, nx): _JET[(d, nt, nx)]
    for d in (1, 2)
    for nt in range(3)
    for nx in range(3)
    if nt + nx <= 2
}

ALL_JET_SYMBOLS = tuple(_JET.values())
_JET_SET = frozenset(ALL_JET_SYMBOLS)


def jets_in(s):
    """The jet symbols free in raw sympy s, in ALL_JET_SYMBOLS order, from
    one free_symbols scan."""
    found = s.free_symbols & _JET_SET
    return [j for j in ALL_JET_SYMBOLS if j in found]


_PARAMETER_NAMES = [
    "d1", "d2", "d11", "d12", "d21", "d22",
    "a1", "a2", "b1", "b2", "c1", "c2",
    "a", "b", "c", "p", "beta", "e1", "e2",
    "alpha0", "alpha1", "alpha2", "alpha3", "alpha4", "alpha5",
    "alpha6", "alpha7", "lambda1", "lambda2",
]

_PARAMETERS = {n: sp.Symbol(n) for n in _PARAMETER_NAMES}


def parameter(name):
    """Look up (declaring on first use) a parameter symbol."""
    if name in _PUBLIC_JET_NAMES or name in ("t", "x"):
        raise ExprError(f"{name!r} is reserved")
    return _PARAMETERS.setdefault(name, sp.Symbol(name))


def symbol(name):
    """The symbol a binding key stands for: a sympy symbol is itself; a name
    is t, x, a public jet name, or else parameter(name)."""
    if not isinstance(name, str):
        return name
    if name in ("t", "x"):
        return T if name == "t" else X
    return _PUBLIC_JET_NAMES.get(name) or parameter(name)


def known_symbols():
    d = {"t": T, "x": X}
    d.update(_PUBLIC_JET_NAMES)
    d.update(_PARAMETERS)
    return d


_FUNCTION_HEADS = {"exp": sp.exp, "sin": sp.sin, "cos": sp.cos, "sqrt": sp.sqrt}


# ---------------------------------------------------------------------------
# canonicalization

def _square_split(q):
    """q = s**2 * r with s, r rational, r squarefree, s > 0."""
    q = sp.Rational(q)
    sign = 1 if q >= 0 else -1
    num, den = int(abs(q.p)), int(abs(q.q))
    s_num, r_num = _int_square_split(num)
    s_den, r_den = _int_square_split(den)
    # 1/den = den/den^2 -> move r_den up
    s = sp.Rational(s_num, s_den * r_den)
    r = sign * sp.Rational(r_num * r_den, 1)
    return s, r


def _int_square_split(n):
    if n == 0:
        return 1, 0
    s = 1
    f = sp.factorint(n)
    r = 1
    for prime, e in f.items():
        s *= prime ** (e // 2)
        if e % 2:
            r *= prime
    return s, r


def _canon_sqrt(base, canon):
    """Canonicalize a sqrt radicand: clear the denominator of its canonical
    form, which is cancelled, and pull the rational square content out of
    its ring element.  Returns (coefficient, r, radicand), r a squarefree
    integer (0 for a zero radicand): sqrt(base) = coefficient * sqrt(r) *
    sqrt(radicand)."""
    n, d = sp.fraction(canon(base))
    R, (p,) = _ring_read([n * d])
    content, p = p.primitive()
    s, r = _square_split(R.domain.to_sympy(content))
    return s / d, r, sp.expand(p.as_expr())


class _AtomTable:
    """Maps transcendental/opaque atoms to generator symbols plus the
    rewrite relations binding them.  `generators` (atom expr -> Dummy) may be
    shared between tables so that an atom gets the same generator in each."""

    def __init__(self, generators=None):
        # atom expr (in generator space) -> Dummy
        self.generators = {} if generators is None else generators
        self.back = {}         # Dummy -> original atom expr, for this table's atoms
        self.sqrt_rad = {}     # sqrt Dummy -> radicand (generator space)
        self.sin_pair = {}     # sin Dummy -> cos Dummy

    def gen(self, atom_expr, original):
        d = self.generators.get(atom_expr)
        if d is None:
            d = self.generators[atom_expr] = sp.Dummy(f"A{len(self.back)}")
        self.back.setdefault(d, original)
        return d


def _replace_atoms(e, table, canon):
    """Bottom-up replacement of atoms by generator symbols.  The argument of
    an exp, sin or cos and a sqrt radicand are canonicalized as expressions
    of their own before their atoms are replaced, so that an atom gets one
    key however its argument was written.  A subtree that recurs (the same
    exponential in many terms) is replaced once.  A sqrt of a zero radicand
    is 0 (ZeroDenominatorError in a denominator).

    An exponential splits into powers of generators exp(m/q), one for each
    primitive direction m (the exponent's terms without their rational
    coefficients) and denominator q.  Once the whole expression is replaced,
    every generator of a direction is rewritten as a power of exp(m/L), L
    the lcm of its q's, here and in the sqrt relations.  Products and powers
    of exponentials then merge as monomials: exp(x/2)**2, exp(x/3)*exp(x/6)
    and exp(x/2)*exp(t) become the same polynomial as exp(x), exp(x/2) and
    exp(t + x/2)."""
    denominators = {}  # direction m -> the q's of its generators exp(m/q)

    def exp_gen(root):
        return table.gen(sp.exp(root), sp.exp(root.xreplace(table.back)))

    def exp_power(c, m):
        """exp(c*m) for a rational c = p/q, as exp(m/q)**p."""
        denominators.setdefault(m, set()).add(c.q)
        return exp_gen(m / c.q) ** c.p

    def nonzero(node, new):
        if new is sp.zoo:  # only a zero radicand makes a node zero
            raise ZeroDenominatorError(f"zero radicand in denominator: {node}")
        return new

    @functools.cache
    def rec(node):
        if node is sp.E:
            # written-out Euler constants must share the exp(1) generator
            return exp_power(sp.Integer(1), sp.Integer(1))
        if node.is_Atom:
            return node
        if isinstance(node, sp.exp):
            arg = rec(canon(node.args[0]))
            out = sp.Integer(1)
            for term in sp.Add.make_args(sp.expand(arg)):
                c, m = term.as_coeff_Mul()
                if not c.is_Rational:
                    # a float coefficient stays inside its direction
                    c, m = ((sp.Integer(-1), -term)
                            if term.could_extract_minus_sign()
                            else (sp.Integer(1), term))
                out *= exp_power(c, m)
            return out
        if isinstance(node, (sp.sin, sp.cos)):
            # the sign is read off the expanded numerator, so that A and -A
            # key one pair of generators however -A was written
            num, den = sp.fraction(rec(canon(node.args[0])))
            sign = 1
            if num.could_extract_minus_sign():
                num = -num
                if isinstance(node, sp.sin):
                    sign = -1
            arg = num / den
            orig = arg.xreplace(table.back)
            gs = table.gen(sp.sin(arg), sp.sin(orig))
            gc = table.gen(sp.cos(arg), sp.cos(orig))
            table.sin_pair[gs] = gc
            return sign * gs if isinstance(node, sp.sin) else gc
        if node.is_Pow and node.exp.is_Rational and node.exp.q == 2:
            # separate the square-free numeric content from the primitive
            # radicand so sqrt(2)*sqrt(p) and sqrt(2*p) share generators
            coeff, num_sf, rad = _canon_sqrt(node.base, canon)
            k = int(node.exp.p)
            if not num_sf:
                return nonzero(node, sp.Integer(0) ** k)
            out = rec(coeff) ** k
            if num_sf != 1:
                wn = table.gen(sp.sqrt(num_sf), sp.sqrt(num_sf))
                table.sqrt_rad[wn] = num_sf
                out *= wn ** k
            if rad != 1:
                rad_g = rec(rad)
                w = table.gen(sp.sqrt(rad_g), sp.sqrt(rad))
                table.sqrt_rad[w] = rad_g
                out *= w ** k
            return out
        if isinstance(node, (AppliedUndef, sp.Derivative)):
            return table.gen(node, node)
        if node.is_Pow or node.is_Add or node.is_Mul:
            args = [rec(a) for a in node.args]
            if all(new is old for new, old in zip(args, node.args)):
                return node
            return nonzero(node, node.func(*args))
        if isinstance(node, sp.Function):
            raise ExprError(f"unsupported function head: {node.func}")
        return node

    out = rec(e)
    roots = {}
    for m, qs in denominators.items():
        lcm = math.lcm(*qs)
        roots.update((exp_gen(m / q), exp_gen(m / lcm) ** (lcm // q))
                     for q in qs if q != lcm)
    if roots:
        out = out.xreplace(roots)
        table.sqrt_rad = {w: rad.xreplace(roots)
                          for w, rad in table.sqrt_rad.items()}
    return out


# ---------------------------------------------------------------------------
# ring reader: raw sympy into a sparse polynomial ring by one tree walk

def _power_base(node):
    """The generator and exponent a factor is read as (decompose_power), a
    negative exponent going to the reciprocal: u**-2 is (1/u)**2."""
    base, k = decompose_power(node)
    if k < 0:
        return sp.Pow(base, -1), -k
    return base, k


def _is_ground_number(node):
    return node.is_Rational or node is sp.I


def _scan(exprs):
    """The first pass of a free reading: the generators met, in the order
    _sort_gens gives them; the domain its leaves call for (QQ_I for I, QQ
    for a fraction, ZZ otherwise); and the expansion of each node that is
    not ring arithmetic.  The rings are exact: a Float leaf raises
    ExprError (normalize and iszero make every Float exact on entry)."""
    found, expanded, leaves = {}, {}, set()

    @functools.cache
    def scan(node):
        if _is_ground_number(node):
            leaves.add(node)
        elif node.is_Float:
            raise ExprError(f"a Float in an exact ring: {node}")
        elif node.is_Symbol:
            found[node] = None
        elif node.is_Add or node.is_Mul:
            for a in node.args:
                scan(a)
        elif node.is_Pow and node.exp.is_Integer and node.exp > 0:
            scan(node.base)
        else:
            new = expanded[node] = sp.expand(node)
            if new != node:
                scan(new)
            else:
                found[_power_base(node)[0]] = None

    for e in exprs:
        scan(e)
    if sp.I in leaves:
        domain = sp.QQ_I
    elif any(not n.is_Integer for n in leaves):
        domain = sp.QQ
    else:
        domain = sp.ZZ
    return _sort_gens(found), domain, expanded


def _narrow(R, polys):
    """The ring sring would build for these elements: over only the
    generators that occur, and over the domain construct_domain gives their
    coefficients (ZZ for integral QQ)."""
    monoms = [m for p in polys for m in p]
    used = [i for i in range(R.ngens) if any(m[i] for m in monoms)]
    K = domain = R.domain
    coeffs = [c for p in polys for c in p.values()]
    if K == sp.QQ_I:
        domain = construct_domain([K.to_sympy(c) for c in coeffs] or [0])[0]
    elif K == sp.QQ and all(c.denominator == 1 for c in coeffs):
        domain = sp.ZZ
    if len(used) == R.ngens and domain == K:
        return R, polys
    S = PolyRing([R.symbols[i] for i in used], domain)
    return S, [S.dtype({tuple(m[i] for i in used): domain.from_sympy(K.to_sympy(c))
                        for m, c in p.items()}) for p in polys]


def _ring_read(exprs, gens=None, domain=None):
    """Raw sympy expressions as elements of one sparse PolyRing, from a
    bottom-up walk that reads each distinct node once: a Symbol is a
    generator and a rational or I a ground element; Add, Mul and a power
    to a positive integer are ring arithmetic.  Any other node is expanded
    once (sp.expand) and the result read in its place if that changes it,
    else it is a generator: its base under decompose_power to that power,
    so exp(2*x) is exp(x)**2 and u**-2 is (1/u)**2.  No sympy tree is
    expanded as a whole.

    Without gens the ring is the one sp.sring would build: the generators
    that occur in the result in _sort_gens order, over ZZ or QQ as the
    coefficients need and a Gaussian domain for I.  The rings are exact:
    a Float leaf raises ExprError.  Generators that print alike keep the
    order they were met in, where sring's is that of a set.  With gens the
    ring is over them and `domain`, and every other node must be an
    element of that domain; one that is not raises NotPolynomialError.
    Returns (ring, elements)."""
    free = gens is None
    if free:
        gens, domain, expanded = _scan(exprs)
    else:
        expanded = {}
    R = PolyRing(gens, domain)
    index = dict(zip(gens, R.gens))

    def ground(node):
        try:
            return R.ground_new(domain.convert(node))
        except sp.polys.polyerrors.BasePolynomialError as exc:
            raise NotPolynomialError(f"not polynomial over the generators: {exc}") from exc

    @functools.cache
    def read(node):
        if node.is_Add:
            acc = {}
            zero = domain.zero
            for a in node.args:
                for monom, c in read(a).items():
                    c = acc.get(monom, zero) + c
                    if c:
                        acc[monom] = c
                    else:
                        acc.pop(monom, None)
            p = R.dtype(acc)
        elif node.is_Mul:
            args = iter(node.args)
            p = read(next(args))
            for a in args:
                p = p * read(a)
        elif node in index:
            p = index[node]
        elif node.is_Pow and node.exp.is_Integer and node.exp > 0:
            p = read(node.base) ** node.exp.p
        elif _is_ground_number(node) or node.is_Symbol:
            p = ground(node)
        else:
            new = expanded.get(node)
            if new is None:
                new = sp.expand(node)
            if new != node:
                p = read(new)
            else:
                base, k = _power_base(node)
                if base in index:
                    p = index[base] ** k
                else:
                    p = ground(node)
        return p

    polys = [read(e) for e in exprs]
    return _narrow(R, polys) if free else (R, polys)


def _ring_relations(exprs, table):
    """exprs read in one ring (_ring_read) together with the table's
    relations sqrt(R)**2 = R and sin(A)**2 = 1 - cos(A)**2, the one reading
    of the zero test and the canonical form.  Returns the ring,
    the elements and a function that reduces an element by the relations:
    it rewrites every monomial g**k -> g**(k%2) * rel**(k//2) until no
    relation generator has degree 2 or more, and returns its argument itself
    when nothing reduces.  The normal form does not depend on the order of
    the rewrites, since each relation has its own leading generator."""
    rels = [*table.sqrt_rad.items(),
            *((s, 1 - c ** 2) for s, c in table.sin_pair.items())]
    R, polys = _ring_read([*exprs, *(rel for _, rel in rels)])
    index = {g: i for i, g in enumerate(R.symbols)}
    rules = {index[g]: p for (g, _), p in zip(rels, polys[len(exprs):])
             if g in index}

    @functools.cache
    def power(i, k):
        return rules[i] ** k

    def reduce(p):
        while True:
            acc, changed = {}, False
            for monom, c in p.items():
                hit = [i for i in rules if monom[i] >= 2]
                if hit:
                    changed = True
                    monom = list(monom)
                    term = R.one
                    for i in hit:
                        k, monom[i] = divmod(monom[i], 2)
                        term = term * power(i, k)
                    items = term.mul_term((tuple(monom), c)).items()
                else:
                    items = ((monom, c),)
                for m, v in items:
                    v = acc.pop(m, 0) + v
                    if v:
                        acc[m] = v
            if not changed:
                return p
            p = R.dtype(acc)

    return R, polys[:len(exprs)], reduce


def _cancel(f, g, table, assumptions):
    """f/g in lowest terms as a (numerator, denominator) pair in the ring of
    f and g, from one gcd with cofactors in the ring sp.sring would build
    for the pair (_narrow), which has no generators for constants.  A
    nonconstant gcd is recorded as a nonzero assumption (monic over a
    field, as sp.gcd returns it); the pair is normalized as sp.cancel
    normalizes it."""
    R = f.ring
    S, (f, g) = _narrow(R, [f, g])
    dom = S.domain
    if dom.is_Field and dom.has_assoc_Ring:
        # cofactors over the ring, rescaled by the reduced denominators
        ZR = S.clone(domain=dom.get_ring())
        cq, f = f.clear_denoms()
        cp, g = g.clear_denoms()
        h, p, q = f.set_ring(ZR).cofactors(g.set_ring(ZR))
        _, cp, cq = ZR.domain.cofactors(cp, cq)
        h = h.set_ring(S).monic()
        p = p.set_ring(S).mul_ground(cp)
        q = q.set_ring(S).mul_ground(cq)
    else:
        h, p, q = f.cofactors(g)
    if not h.is_ground:
        assumptions.add(h.as_expr().xreplace(table.back))
    u = q.canonical_unit()
    if u != dom.one:
        p, q = p.mul_ground(u), q.mul_ground(u)
    return p.set_ring(R), q.set_ring(R)


# ---------------------------------------------------------------------------
# common denominator: sympy's together without its Factors
#
# A term is (coeff, numer, denom), numer and denom dicts from base to
# exponent, as sympy's exprtools.Term holds them.  Exponents are Python ints
# except where Factors.gcd sympifies one into an Integer; the type is kept
# because Factors.as_expr builds the power differently for each: exponent 2
# on exp(x + 1) gives exp(2*x + 2) as an int, exp(2*(x + 1)) as an Integer.
# Factors' tidying of the powers of -1 and I is left out: I enters a
# numerator at most to the first power (I**2 is -1) and no denominator
# (1/I is -I), so the tidying would change nothing.

def _fmul(a, b):
    """a times b (Factors.mul)."""
    out = dict(a)
    for base, k in b.items():
        if base in out:
            k = out[base] + k
            if not k:
                del out[base]
                continue
        out[base] = k
    return out


def _fnormal(a, b):
    """a and b with their common factors removed (Factors.normal)."""
    sa, sb = dict(a), dict(b)
    for base, k in a.items():
        if base not in b:
            continue
        k = k - b[base]
        if not k:
            del sa[base], sb[base]
        elif k > 0:
            sa[base] = k
            del sb[base]
        else:
            del sa[base]
            sb[base] = -k
    return sa, sb


def _fgcd(a, b):
    """The common factors of a and b (Factors.gcd)."""
    return {base: sp.Integer(k) if k < b[base] else b[base]
            for base, k in a.items() if base in b}


def _flcm(a, b):
    """The least common multiple of a and b (Factors.lcm)."""
    out = dict(a)
    for base, k in b.items():
        out[base] = max(k, out[base]) if base in out else k
    return out


def _fquo(a, b):
    """a over b, the numerator (Factors.quo)."""
    out = dict(a)
    for base, k in b.items():
        if base in out:
            k = out[base] - k
            if k > 0:
                out[base] = k
            else:
                del out[base]
    return out


def _fexpr(f):
    """f as a product (Factors.as_expr)."""
    args = []
    for base, k in f.items():
        if k == 1:
            args.append(base)
        elif isinstance(k, sp.Integer):
            b, e = base.as_base_exp()
            args.append(b ** _keep_coeff(k, e))
        else:
            args.append(base ** k)
    return sp.Mul(*args)


def _term(t):
    """Term(t): the content of an Add base joins the coefficient."""
    if not t.is_commutative:
        raise ExprError(f"non-commutative term: {t}")
    coeff, factors = t.as_coeff_mul()
    numer, denom = {}, {}
    for factor in factors:
        base, k = decompose_power(factor)
        if base.is_Add:
            cont, base = base.primitive()
            coeff *= cont ** k
        if k > 0:
            numer[base] = numer.get(base, 0) + k
        else:
            denom[base] = denom.get(base, 0) - k
    return coeff, numer, denom


def _gcd_terms(terms):
    """gcd_terms(terms) with clear=True and fraction=True: the terms over
    their common denominator, with their common factor pulled out."""
    terms = [_term(t) for t in terms if t]
    if not terms:
        return sp.S.Zero
    if len(terms) == 1:
        cont, numer, denom = (terms[0][0], _fexpr(terms[0][1]),
                              _fexpr(terms[0][2]))
    else:
        cc, cn, cd = terms[0]
        for c, n, d in terms[1:]:
            cc, cn, cd = cc.gcd(c), _fgcd(cn, n), _fgcd(cd, d)
        inv = 1 / cc
        terms = [(c * inv, *_fnormal(_fmul(n, cd), _fmul(d, cn)))
                 for c, n, d in terms]
        denom = terms[0][2]
        for _, _, d in terms[1:]:
            denom = _flcm(denom, d)
        numer = sp.Add(*[c * _fexpr(_fmul(n, _fquo(denom, d)))
                         for c, n, d in terms])
        cont = cc * (_fexpr(cn) / _fexpr(cd))
        denom = _fexpr(denom)
    if numer.is_Add:
        content, numer = numer.primitive()
        cont *= content
    coeff, factors = cont.as_coeff_Mul()
    return _keep_coeff(coeff, factors * numer / denom)


def _together(e):
    """sympy's together(e), deep=False and fraction=True, down to its srepr:
    the same algorithm with the terms' factors in plain dicts instead of
    sympy's Factors.  `e` is a sympy expression; a non-commutative term
    raises ExprError."""
    if e.is_Atom or e.is_Function:
        return e
    if e.is_Add:
        return _gcd_terms([_together(a) for a in e.args])
    if e.is_Pow:
        return e.func(_together(e.base), e.exp)
    return e.func(*[_together(a) for a in e.args])


def _canon_core(e, assumptions):
    """The full canonicalization pipeline on a raw sympy expression: expand,
    replace atoms by generators (which merges exponentials, _replace_atoms),
    bring it over one common denominator (_together, sympy's together
    without its Factors) and read that pair once, with the relations
    (_ring_relations).  In that ring: cancel, reduce by the relations and
    rationalize the denominator, each conjugate d0 - d1*g recorded in sympy
    form.  Each cancellation is one gcd with cofactors (_cancel); the second
    runs only when there are sqrt/sin generators, whose relations and
    conjugates can reintroduce a common factor.  The tree is built last."""
    if e.is_Number:
        return e

    def canon(sub):
        if sub.is_Number or sub.is_Symbol:
            return sub
        return _canon_core(sub, assumptions)

    e = sp.expand(e)
    table = _AtomTable()
    e = _replace_atoms(e, table, canon)

    R, (n, d), reduce = _ring_relations(sp.fraction(_together(e)), table)
    n, d = _cancel(n, d, table, assumptions)
    n, d = reduce(n), reduce(d)
    if not d:
        raise ZeroDenominatorError("denominator is identically zero")

    # rationalize sqrt/sin generators out of the denominator
    lin_gens = list(table.sqrt_rad) + list(table.sin_pair)
    index = {g: i for i, g in enumerate(R.symbols)}
    progress = True
    while progress:
        progress = False
        for g in lin_gens:
            i = index.get(g)
            if i is None or d.degree(i) != 1:
                continue
            d1, d0 = d.coeff_wrt(i, 1), d.coeff_wrt(i, 0)
            conj = d0.as_expr() - d1.as_expr() * g
            assumptions.add(conj.xreplace(table.back))
            conj = d0 - d1 * R.gens[i]
            n, d = reduce(n * conj), reduce(d * conj)
            progress = True

    if not n:
        return sp.Integer(0)
    if lin_gens:
        # the relations and the conjugates may have left a common factor
        n, d = _cancel(n, d, table, assumptions)
    n, d = sp.fraction(n.as_expr() / d.as_expr())
    n, d = sp.expand(n), sp.expand(d)
    result = n / d if d != 1 else n
    return result.xreplace(table.back)


@dataclass(frozen=True)
class Expression:
    """A record of a canonical symbolic expression and the nonzeroness
    assumptions consumed while producing it.  It has no arithmetic: a caller
    combines .sym values as raw sympy and normalizes or decides the result
    once.  Equality is the zero test (iszero) of the difference."""

    sym: sp.Expr
    assumptions: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if not isinstance(self.sym, sp.Basic):
            object.__setattr__(self, "sym", as_sym(self.sym))

    def __eq__(self, other):
        if isinstance(other, Expression):
            other = other.sym
        elif not isinstance(other, (sp.Basic, int, Fraction)):
            return NotImplemented
        return iszero(self.sym - as_sym(other))

    def __hash__(self):
        return hash(self.sym)

    def __repr__(self):
        return f"Expression({self.sym})"

    # -- queries ----------------------------------------------------------
    @property
    def is_zero(self):
        """O(1) query on a canonical (normalized) form; use iszero to
        decide whether any other expression vanishes."""
        return self.sym == 0

    def has(self, *syms):
        return self.sym.has(*syms)


def _exact_finite(sym):
    """sym as the exact kernel takes it, from one walk of its tree: each
    Float leaf is replaced by its exact binary value (sp.Rational(f), so
    0.1 is 3602879701896397/2**55, not 1/10, and every numeric value stays
    the same to the bit), and a division by zero that sympy already
    evaluated (a literal 1/0 or 0/0 becomes zoo or nan) raises
    ZeroDenominatorError.  Returns sym itself when it holds no Float."""
    floats = {}
    stack = [sym]
    while stack:
        node = stack.pop()
        if node.args:
            stack.extend(node.args)
        elif node is sp.zoo or node is sp.nan:
            raise ZeroDenominatorError(f"division by zero in {sym}")
        elif node.is_Float:
            floats[node] = sp.Rational(node)
    return sym.xreplace(floats) if floats else sym


def as_sym(value):
    """The raw sympy form of a value entering the kernel: an Expression gives
    its sym, a string is read by the toolkit grammar (parse_sym) and is never
    evaluated as Python, and anything else goes to sp.sympify.  Expressions
    have no arithmetic, so values are combined in this form.  A plain
    coercion: a Float stays a Float here; the kernel's entries (normalize
    and iszero) make it exact."""
    if isinstance(value, Expression):
        return value.sym
    if isinstance(value, str):
        return parse_sym(value)
    return sp.sympify(value)


def as_expression(value):
    """A value entering the kernel as an Expression: an Expression is
    returned as it is, anything else is normalize(as_sym(value))."""
    if isinstance(value, Expression):
        return value
    return normalize(as_sym(value))


def normalize(e, assumptions=frozenset()):
    """Canonicalize a value (through as_sym) into an Expression, keeping the
    assumptions of an Expression input.  Each Float is read as its exact
    binary value first (_exact_finite), so 0.5*x + x/2 is x and the result
    holds no Float.  Raises ZeroDenominatorError if a denominator is
    identically zero."""
    if isinstance(e, Expression):
        assumptions = frozenset(assumptions) | e.assumptions
    e = _exact_finite(as_sym(e))
    acc = set()
    out = _canon_core(e, acc)
    return Expression(out, frozenset(assumptions) | frozenset(acc))


# iszero's atom -> generator map, kept across calls: an atom then keeps its
# generator from check to check, so the trees that _replace_atoms and
# _together build repeat and sympy's cache serves them (iszero expands no
# tree of its own).  A fresh map per call gives the same verdicts, slower.
# normalize() draws fresh generators: it maps its nested results back through
# its own table.
_ISZERO_GENERATORS = {}


def iszero(e, assumptions=None):
    """The zero test: whether e vanishes identically on its domain
    (denominators and radicands assumed nonzero).  No canonical form is
    built and no sympy tree is expanded: atoms become generators (the same
    _replace_atoms as normalize(), so exponentials merge as monomials), the
    expression is brought over one common denominator (_together, sympy's
    together without its Factors), and only the numerator is read into a
    ring by the kernel's tree walk, with the relations that normalize() uses
    (_ring_relations).  It is zero exactly when its reduced element is 0.
    `assumptions` is an output set, as in _canon_core: when e vanishes, its
    common denominator is added to it unless that is a number.  The verdict
    does not depend on it.  Each Float is read as its exact binary value
    first, as in normalize() (_exact_finite).  Raises ZeroDenominatorError,
    as normalize() does, if e holds a division by zero."""
    sym = _exact_finite(as_sym(e))
    if sym == 0:
        return True

    def canon(sub):
        if sub.is_Number or sub.is_Symbol:
            return sub
        return _canon_core(sub, set())

    table = _AtomTable(_ISZERO_GENERATORS)
    sym = _replace_atoms(sym, table, canon)
    n, d = sp.fraction(_together(sym))
    _, (p,), reduce = _ring_relations([n], table)
    if reduce(p):
        return False
    if assumptions is not None and not d.is_Number:
        assumptions.add(d.xreplace(table.back))
    return True


# ---------------------------------------------------------------------------
# parser

class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.i = 0

    def _scan(self):
        text, i, n = self.text, 0, len(self.text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            col = i + 1
            if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i
                seen_dot = False
                while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                    if text[j] == ".":
                        seen_dot = True
                    j += 1
                self.tokens.append(("num", text[i:j], col))
                i = j
            elif ch.isalpha():
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], col))
                i = j
            elif ch in "+-*/^()":
                self.tokens.append(("op", ch, col))
                i += 1
            else:
                raise ParseError(f"unexpected character {ch!r}", col)
        self.tokens.append(("end", "", n + 1))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok


def parse_sym(text, extra=None):
    """Parse to a raw sympy expression (grammar of the toolkit)."""
    symbols = known_symbols()
    if extra:
        symbols = {**symbols, **extra}
    tz = _Tokenizer(text)

    def expression():
        node = term()
        while tz.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, _ = tz.next()
            rhs = term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term():
        node = factor()
        while tz.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, _ = tz.next()
            rhs = factor()
            node = node * rhs if op == "*" else node / rhs
        return node

    def factor():
        node = base()
        if tz.peek()[:2] == ("op", "^"):
            tz.next()
            kind, val, col = tz.next()
            sign = 1
            if (kind, val) == ("op", "-"):
                sign = -1
                kind, val, col = tz.next()
            if kind != "num" or "." in val:
                raise ParseError("integer exponent expected", col)
            node = node ** (sign * int(val))
        return node

    def base():
        kind, val, col = tz.next()
        if (kind, val) == ("op", "-"):
            return -base()
        if (kind, val) == ("op", "("):
            node = expression()
            expect(")")
            return node
        if kind == "num":
            return sp.Rational(val) if "." in val else sp.Integer(val)
        if kind == "ident":
            if val in _FUNCTION_HEADS:
                expect("(")
                arg = expression()
                expect(")")
                return _FUNCTION_HEADS[val](arg)
            if val in symbols:
                return symbols[val]
            raise UnknownIdentifierError(f"unknown identifier {val!r}", col)
        raise ParseError(f"unexpected token {val!r}", col)

    def expect(op):
        kind, val, col = tz.next()
        if (kind, val) != ("op", op):
            raise ParseError(f"expected {op!r}, got {val!r}", col)

    node = expression()
    kind, val, col = tz.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", col)
    return node


def parse(text, extra=None):
    """Parse text to a canonical Expression."""
    return normalize(parse_sym(text, extra))


def render(e):
    """Render an expression in the surface grammar; round-trips via parse."""
    return sp.sstr(as_sym(e)).replace("**", "^")


# ---------------------------------------------------------------------------
# calculus / substitution / collection

@functools.lru_cache(maxsize=4096)
def partial(s, var):
    """The partial derivative of raw sympy s by var, as raw sympy: the same
    tree as sp.diff(s, var), down to its srepr, taken once per (node, var).
    Every derivative the toolkit takes goes through here: the prolongation
    and the total derivative (jet), the jets of a solution family, the
    ansatz reduction and the point transformations.  The key is raw sympy,
    whose equality is structural, so the partials of a system's S_raw(k)
    serve every operator checked on it, the sqrt(R) of a family is
    differentiated once however often it occurs, and residual and
    residual_numeric of one family share its jets.  A catalog validation
    keeps about 1440 entries; an entry evicted is recomputed as the same
    tree."""
    return _chain_rule(s, var)


def _chain_rule(s, var):
    """One step of sympy 1.14's evaluated diff at order 1, on the node s,
    with each argument's partial taken through the memo (partial).  Each
    rule builds its result with the constructors sympy's own rule uses:
    Add term by term; Mul by the Leibniz form of Mul._eval_derivative_n_times
    (one product per factor, every factor kept), not the pairwise products
    of Mul._eval_derivative, which build another tree; Pow as
    s * (dexp*log(base) + dbase*exp/base), with log(base) built only when
    dexp is not 0, since 0*log(base) is 0 for every base a Pow node holds;
    exp, sin and cos as Function._eval_derivative does.  Any other head,
    such as an undefined function or a Derivative, and a var that is not a
    Symbol, go to sp.diff whole."""
    if not isinstance(var, sp.Symbol):
        return sp.diff(s, var)
    if var not in s.free_symbols:
        return sp.S.Zero
    if s == var:
        return sp.S.One
    if isinstance(s, sp.Add):
        return s.func(*[partial(a, var) for a in s.args])
    if isinstance(s, sp.Mul):
        args = s.args
        return sp.Add(*[sp.Mul(*args[:i], partial(a, var), *args[i + 1:])
                        for i, a in enumerate(args)])
    if isinstance(s, sp.Pow):
        base, e = s.args
        dbase, dexp = partial(base, var), partial(e, var)
        if dexp is sp.S.Zero:
            return s * (dbase * e / base)
        return s * (dexp * sp.log(base) + dbase * e / base)
    if type(s) in (sp.exp, sp.sin, sp.cos):
        da = partial(s.args[0], var)
        return sp.Add() if da.is_zero else sp.Add(s.fdiff(1) * da)
    return sp.diff(s, var)


def diff(e, s):
    """Exact partial derivative w.r.t. one symbol, normalized: the kernel's
    one partial (partial) of the raw form, then the canonical form."""
    assumptions = e.assumptions if isinstance(e, Expression) else frozenset()
    return normalize(partial(as_sym(e), symbol(s)), assumptions)


def substitute(e, bindings):
    """Simultaneous substitution followed by normalization."""
    assumptions = e.assumptions if isinstance(e, Expression) else frozenset()
    e = as_sym(e)
    sub = {}
    for k, val in bindings.items():
        if isinstance(val, Expression):
            assumptions = assumptions | val.assumptions
        sub[symbol(k)] = as_sym(val)
    return normalize(e.xreplace(sub) if all(s.is_Symbol for s in sub) else e.subs(sub, simultaneous=True),
                     assumptions)


class NotPolynomialError(ExprError):
    pass


# the split variables: every jet but u and v, in ALL_JET_SYMBOLS order
_SPLIT_JETS = {g: i for i, g in enumerate(g for g in ALL_JET_SYMBOLS
                                          if g not in (U, V))}


def _split_term(term):
    """One term of an expanded sum as (the exponents of the split jets, as a
    tuple in _SPLIT_JETS order; the jet-free cofactor).  Raises
    NotPolynomialError when a jet occurs other than as a positive integer
    power of itself: in a denominator, inside exp/sin/cos/sqrt, or at any
    other power."""
    powers = [0] * len(_SPLIT_JETS)
    rest = []
    for factor in sp.Mul.make_args(term):
        base, k = factor.as_base_exp()
        i = _SPLIT_JETS.get(base)
        if i is not None and k.is_Integer and k > 0:
            powers[i] += int(k)
        elif factor.free_symbols.isdisjoint(_SPLIT_JETS):
            rest.append(factor)
        else:
            raise NotPolynomialError(f"not polynomial in the jets: {factor}")
    return tuple(powers), sp.Mul(*rest)


def collect_jet(e):
    """Split e = sum coeff(m) * m over the jet monomials m (u and v stay in
    the coefficients).  Returns a dict keyed by sympy monomials, 1 for the
    jet-free part, in the order of Poly(e, *jets).terms() (lex,
    descending, jets in ALL_JET_SYMBOLS order).  A coefficient that
    vanishes has no key; an input with no jets gives {1: normalize(e)}.

    The input, raw or normalized, is expanded and its terms are grouped by
    monomial; each group is normalized once, with the assumptions of an
    Expression input.  No canonical form of the whole input is built.
    Raises NotPolynomialError if a jet occurs in a denominator, inside an
    atom or at a power that is not a positive integer."""
    assumptions = e.assumptions if isinstance(e, Expression) else frozenset()
    groups = {}
    for term in sp.Add.make_args(sp.expand(as_sym(e))):
        powers, rest = _split_term(term)
        groups.setdefault(powers, []).append(rest)
    jets = tuple(_SPLIT_JETS)
    out, zero = {}, Expression(sp.Integer(0), assumptions)
    for powers in sorted(groups, reverse=True):
        coeff = normalize(sp.Add(*groups[powers]), assumptions)
        if coeff.is_zero:
            zero = Expression(zero.sym, zero.assumptions | coeff.assumptions)
        else:
            out[sp.Mul(*[g ** k for g, k in zip(jets, powers)])] = coeff
    return out or {sp.Integer(1): zero}


_JET_INDEX = {s: k for k, s in _JET.items()}


def _jet_index(s):
    return _JET_INDEX.get(s)


# ---------------------------------------------------------------------------
# numeric evaluation

_NUMERIC_HEADS = {sp.exp: "exp", sp.sin: "sin", sp.cos: "cos"}


def _least(val):
    """The smallest element of an array (NaN if any is), or a scalar itself."""
    return val.min() if isinstance(val, np.ndarray) else val


def _step(node, guard, prec, at):
    """The step that computes `node` from the value list `vals` (`at` maps a
    node to its slot there) and the environment {Symbol: value}."""
    if node.is_Number or node.is_NumberSymbol:
        const = float(node) if prec is None else node._to_mpmath(prec)
        return lambda vals, env: const
    if node.is_Symbol:
        def symbol(vals, env):
            try:
                return env[node]
            except KeyError:
                raise UnboundSymbolError(f"unbound symbol {node}")
        return symbol
    if node.is_Add:
        terms = tuple(at(a) for a in node.args)

        def add(vals, env):
            out = 0
            for i in terms:
                out = out + vals[i]
            return out
        return add
    if node.is_Mul:
        factors = tuple(at(a) for a in node.args)

        def mul(vals, env):
            out = 1.0
            for i in factors:
                out *= vals[i]
            return out
        return mul
    if node.is_Pow:
        base, expo = at(node.base), node.exp
        if expo.is_Integer:
            k = int(expo)
            if k >= 0:
                return lambda vals, env: vals[base] ** k

            def reciprocal(vals, env):
                b = vals[base]
                if _least(abs(b)) < guard:
                    raise GuardViolation("denominator below guard", node.base)
                return b ** k
            return reciprocal
        if expo.is_Rational and expo.q == 2:
            half = float(expo)   # k/2, exact in both

            def root(vals, env):
                b = vals[base]
                if _least(b) < guard:
                    raise GuardViolation("sqrt radicand below guard", node.base)
                return b ** half
            return root
        power = at(expo)
        return lambda vals, env: vals[base] ** vals[power]
    if node.func in _NUMERIC_HEADS:
        head = getattr(mpmath if prec else np, _NUMERIC_HEADS[node.func])
        arg = at(node.args[0])
        return lambda vals, env: head(vals[arg])

    def unknown(vals, env):
        raise UnboundSymbolError(f"cannot evaluate {node}")
    return unknown


def _translate(sym, guard, prec):
    """`sym` as a straight-line program over an environment {Symbol: value},
    in numpy (prec None) or in mpmath with constants rounded to `prec` bits.
    The program has one step per distinct node of the tree, in
    first-occurrence post-order, and a call fills the value list once, so a
    subexpression that occurs k times is evaluated once.  Each step keeps
    the tree walk's arithmetic: sums fold from 0 and products from 1.0, left
    to right over the arguments, so every value is the tree walk's to the
    bit.  A guard is tested when its step runs, and the steps run in the
    order the tree walk first meets their nodes, so the first guard or
    unbound symbol to trip is the one the tree walk would meet first."""
    slots, steps = {}, []

    def at(node):
        if node not in slots:
            step = _step(node, guard, prec, at)
            slots[node] = len(steps)
            steps.append(step)
        return slots[node]

    at(sym)

    def run(env):
        vals = []
        for step in steps:
            vals.append(step(vals, env))
        return vals[-1]
    return run


@functools.lru_cache(maxsize=256)
def _compiled(sym, guard):
    return _translate(sym, guard, None)


def _as_float(val):
    return val if isinstance(val, np.ndarray) else float(val)


def compile_numeric(e, guard=1e-12):
    """The numeric evaluator, compiled: the returned function evaluates `e`
    at a bindings dict as eval_numeric does, through a straight-line
    program over its distinct nodes (_translate), translated once (in numpy,
    cached per expression and guard; in mpmath, kept by the function per
    working precision)."""
    sym = as_sym(e)
    precise = {}   # working precision -> the mpmath program

    def evaluate(bindings):
        if any(isinstance(val, mpmath.mpf) for val in bindings.values()):
            prec = mpmath.mp.prec
            if prec not in precise:
                precise[prec] = _translate(sym, guard, prec)
            run, convert = precise[prec], mpmath.mpf
        else:
            run, convert = _compiled(sym, guard), _as_float
        env = {symbol(k): convert(val) for k, val in bindings.items()}
        return convert(run(env))
    return evaluate


def eval_numeric(e, bindings, guard=1e-12):
    """The numeric evaluator, with guards on denominators and sqrt
    radicands.  Every free symbol must be bound (by symbol or name).  With
    an mpf among the bindings it evaluates at mpmath's working precision
    and gives an mpf; otherwise in double precision, where array values
    broadcast, a guard trips on any element and scalars give a float.  A
    guard or an unbound symbol raises when evaluated."""
    return compile_numeric(e, guard)(bindings)
