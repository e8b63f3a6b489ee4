import random

from hypothesis import given, settings
from hypothesis import strategies as st

from superfn.superpoly import (
    DerivationSpec,
    Poly,
    monomial_degree,
    monomial_parity,
    symbol,
)
from superfn.scalar import Scalar

# a small fixed alphabet: two even symbols, two odd
X = symbol("t", 1, 1, 0)
Y = symbol("t", 2, 2, 0)
A = symbol("t", 1, 2, 1)
B = symbol("t", 2, 1, 1)

gen_polys = st.sampled_from([Poly.from_symbol(s) for s in (X, Y, A, B)])
small_scalars = st.builds(
    Scalar,
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
    st.fractions(min_value=-9, max_value=9, max_denominator=4),
)


@st.composite
def polys(draw):
    out = Poly.zero()
    for _ in range(draw(st.integers(0, 3))):
        term = Poly.from_scalar(draw(small_scalars))
        for _ in range(draw(st.integers(0, 3))):
            term = term * draw(gen_polys)
        out = out + term
    return out


def test_odd_symbols_square_to_zero():
    a = Poly.from_symbol(A)
    assert (a * a).is_zero()
    assert not (Poly.from_symbol(X) * Poly.from_symbol(X)).is_zero()


def test_koszul_sign_on_generators():
    a, b = Poly.from_symbol(A), Poly.from_symbol(B)
    x = Poly.from_symbol(X)
    assert a * b == -(b * a)
    assert a * x == x * a
    assert (a * b) * (a * b) == -(a * a) * (b * b)  # both sides zero
    assert ((a * b) ** 2).is_zero()


def test_parity_and_degree():
    p = Poly.from_symbol(A) * Poly.from_symbol(B)
    (mono, c), = p.terms.items()
    assert monomial_parity(mono) == 0
    assert monomial_degree(mono) == 2
    q = Poly.from_symbol(A) * Poly.from_symbol(X)
    (mono, _), = q.terms.items()
    assert monomial_parity(mono) == 1


@given(p=polys(), q=polys(), r=polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + q == q + p


@given(p=polys(), q=polys())
@settings(max_examples=60, deadline=None)
def test_supercommutativity(p, q):
    # check on homogeneous components: fg = (-1)^{[f][g]} gf
    for mono1, c1 in p.terms.items():
        for mono2, c2 in q.terms.items():
            f = Poly({mono1: c1})
            g = Poly({mono2: c2})
            sign = (-1) ** (monomial_parity(mono1) * monomial_parity(mono2))
            assert f * g == (g * f).scale(Scalar(sign))


def test_derivation_leibniz():
    # d sends X -> 1 and kills the rest: an even derivation
    d = DerivationSpec(0, {X: Poly.one()})
    p = Poly.from_symbol(X) * Poly.from_symbol(X) * Poly.from_symbol(Y)
    assert d.apply(p) == (Poly.from_symbol(X) * Poly.from_symbol(Y)).scale(Scalar(2))

    # odd derivation sending A -> 1: picks up a sign past odd prefixes
    dd = DerivationSpec(1, {A: Poly.one()})
    ba = Poly.from_symbol(B) * Poly.from_symbol(A)
    assert dd.apply(ba) == -Poly.from_symbol(B)
    ab = Poly.from_symbol(A) * Poly.from_symbol(B)
    assert dd.apply(ab) == Poly.from_symbol(B)


@given(p=polys(), q=polys())
@settings(max_examples=40, deadline=None)
def test_derivation_leibniz_property(p, q):
    d = DerivationSpec(0, {X: Poly.one(), Y: Poly.from_symbol(Y)})
    assert d.apply(p * q) == d.apply(p) * q + p * d.apply(q)


def test_pretty_basics():
    assert Poly.zero().pretty() == "0"
    assert Poly.one().pretty() == "1"
    assert Poly.from_symbol(X).pretty() == "t[1,1]"
    p = Poly.from_symbol(X) * Poly.from_symbol(X)
    assert p.pretty() == "t[1,1]^2"
    assert (-Poly.from_symbol(X)).pretty() == "-1*t[1,1]"
    assert Poly.from_scalar(Scalar(0, -1)).pretty() == "-1*i"


def test_pretty_reparses_to_equal_value(rng=random.Random(5)):
    """Both printers, Poly.pretty and the CLI's u_pretty for U(gl(m|n)),
    print random elements that reparse to the same value."""
    from superfn.cli import ExprContext, parse_expr, u_pretty
    from superfn.grading import Dims
    from superfn.cg import CG
    from superfn.ugl import UEl

    coeffs = [Scalar(1), Scalar(-2), Scalar(0, 1),
              Scalar(1) / Scalar(3), Scalar(-1, 2)]
    d = Dims(1, 1)
    gens = [CG.t(d, a, b) for a in d.indices() for b in d.indices()]
    gens += [CG.tbar(d, a, b) for a in d.indices() for b in d.indices()]
    sides = [(d, CG, gens, CG.pretty)]
    for d in (Dims(1, 1), Dims(2, 1)):
        letters = [UEl.letter(d, a, b) for a in d.indices()
                   for b in d.indices()]
        sides.append((d, UEl, letters, u_pretty))
    for d, cls, gens, show in sides:
        ctx = ExprContext(d)
        for _ in range(200):
            f = cls.zero(d)
            for _ in range(rng.randint(0, 4)):
                term = cls.from_scalar(d, rng.choice(coeffs))
                for _ in range(rng.randint(0, 3)):
                    term = term * rng.choice(gens)
                f = f + term
            side, value = ctx.evaluate(parse_expr(show(f)))
            if side is None:
                value = cls.from_scalar(d, value)
            assert value == f, show(f)
