import random

from hypothesis import given, settings
from hypothesis import strategies as st

from superfn.actions import letter_action
from superfn.cg import CG
from superfn.grading import Dims
from superfn.linalg import add_term
from superfn.superpoly import (
    DerivationSpec,
    Poly,
    monomial_degree,
    monomial_parity,
    symbol,
)
from superfn.scalar import ONE, Scalar

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


def apply_by_poly_products(spec: DerivationSpec, p: Poly) -> Poly:
    """The graded Leibniz rule with each image multiplied in as a Poly
    product, prefix * image * rest: the reference for ``apply``."""
    out = {}
    for m, c in p.terms.items():
        prefix_par = 0
        for idx, (s, e) in enumerate(m):
            img = spec.images.get(s)
            if img is not None and not img.is_zero():
                coeff = c * Scalar(e)
                if spec.parity and prefix_par:
                    coeff = -coeff
                rest = m[idx + 1:]
                if e > 1:
                    rest = ((s, e - 1),) + rest
                term = Poly({m[:idx]: coeff}) * img * Poly({rest: ONE})
                for mm, cc in term.terms.items():
                    add_term(out, mm, cc)
            prefix_par ^= (e & 1) & s[3]
    return Poly(out)


def test_derivation_apply_matches_poly_products():
    """``apply`` merges each image monomial between the prefix and the rest;
    on seeded polynomials with odd factors and exponents up to 3 it gives
    the reference's terms, coefficients and term order."""
    rng = random.Random(30)
    alphabet = [symbol("t", r, c, par) for r, c, par in
                ((1, 1, 0), (1, 2, 1), (2, 1, 1), (2, 2, 0), (1, 3, 1),
                 (3, 3, 0))]
    gens = [Poly.from_symbol(s) for s in alphabet]

    def scalar():
        return Scalar(rng.randint(-4, 4),
                      rng.choice((0, 0, rng.randint(-3, 3))))

    def poly(terms, length):
        out = Poly.zero()
        for _ in range(terms):
            term = Poly.from_scalar(scalar())
            for _ in range(rng.randint(0, length)):
                g = rng.choice(gens)
                term = term * g ** (rng.randint(1, 3) if g.parity() == 0
                                    else 1)
            out = out + term
        return out

    seen = {"odd prefix": 0, "exponent": 0, "odd square": 0}
    for _ in range(200):
        spec = DerivationSpec(rng.randint(0, 1), {
            s: poly(rng.randint(1, 3), 2) for s in rng.sample(alphabet, 3)})
        p = poly(rng.randint(1, 4), 4)
        got, want = spec.apply(p), apply_by_poly_products(spec, p)
        assert list(got.terms.items()) == list(want.terms.items())
        for m in p.terms:
            for i, (s, e) in enumerate(m):
                if s not in spec.images:
                    continue
                seen["exponent"] += e >= 2
                seen["odd prefix"] += spec.parity and any(
                    t[3] for t, _ in m[:i])
                others = {t for t, _ in m if t[3] and t != s}
                seen["odd square"] += any(
                    t in others for mi in spec.images[s].terms
                    for t, _ in mi)
    assert min(seen.values()) >= 20, seen


def test_letter_actions_match_poly_products():
    """The same on the translation actions' letter derivations at (2,1)
    and (1,2), applied to seeded function-algebra elements."""
    rng = random.Random(31)
    for dims in (Dims(2, 1), Dims(1, 2)):
        gens = [f(dims, a, b) for f in (CG.t, CG.tbar)
                for a in dims.indices() for b in dims.indices()]
        for _ in range(40):
            f = CG.zero(dims)
            for _ in range(rng.randint(1, 3)):
                term = CG.from_scalar(dims, Scalar(rng.randint(-3, 3)))
                for _ in range(rng.randint(1, 4)):
                    term = term * rng.choice(gens)
                f = f + term
            a, b = rng.randint(1, dims.size), rng.randint(1, dims.size)
            spec = letter_action(dims, rng.choice(("left", "right")), a, b)
            got = spec.apply(f)
            assert type(got) is CG and got.dims == dims
            want = apply_by_poly_products(spec, f)
            assert list(got.terms.items()) == list(want.terms.items())


def test_pretty_basics():
    assert Poly.zero().pretty() == "0"
    assert Poly.one().pretty() == "1"
    assert Poly.from_symbol(X).pretty() == "t[1,1]"
    p = Poly.from_symbol(X) * Poly.from_symbol(X)
    assert p.pretty() == "t[1,1]^2"
    assert (-Poly.from_symbol(X)).pretty() == "-1*t[1,1]"
    assert Poly.from_scalar(Scalar(0, -1)).pretty() == "-1*i"


def test_pretty_reparses_to_equal_value(rng=random.Random(5)):
    """Both printers, Poly.pretty and UEl.pretty for U(gl(m|n)), print
    random elements that reparse to the same value."""
    from superfn.cli import ExprContext, parse_expr
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
        sides.append((d, UEl, letters, UEl.pretty))
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
