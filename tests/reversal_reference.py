"""The Poly-product route for the antipode S and the star omega: slow
reference computations the tests compare the library against.

The library maps each monomial through one reversal rule
(``cg._reversed_monomial``: generator images merged in reverse order, plus
the sign (-1)^(k choose 2) of reversing k odd factors for S).  The
functions here follow the definitions instead: the image of a monomial is
the Poly product of its generators' images, taken factor by factor in
reverse order, with the pairwise Koszul sign of the reversal for the graded
S, the coefficient conjugated for omega, and the generator images written
out from their formulas rather than read from ``grading``.
"""

from superfn.cg import CG, TensorCG, delta
from superfn.linalg import add_term
from superfn.scalar import ONE, sign_pow
from superfn.superpoly import Poly, monomial_parity, symbol


def _image(dims, s, star: bool) -> Poly:
    """S(s) (star false) or omega(s) (star true) of a t or tb symbol:
    S(t_ab) = (-1)^{[a][b]+[a]} tbar_ba, S(tbar_ab) = (-1)^{[a][b]+[b]} t_ba,
    omega(t_ab) = (-1)^{[b]([a]+[b])} tbar_ab and omega(tbar_ab) likewise."""
    tag, a, b, par = s
    pa, pb = dims.par(a), dims.par(b)
    other = {"t": "tb", "tb": "t"}[tag]
    if star:
        e, key = pb * (pa + pb), (other, a, b)
    else:
        e, key = pa * pb + (pa if tag == "t" else pb), (other, b, a)
    return Poly.from_symbol(symbol(*key, par)).scale(sign_pow(e))


def _reversed(f: CG, star: bool) -> CG:
    out = Poly.zero()
    for mono, c in f.terms.items():
        factors = [s for s, e in mono for _ in range(e)]
        if star:
            c = c.conj()
        else:
            # S(x_1 ... x_k) = (-1)^{sum_{i<j} [x_i][x_j]} S(x_k) ... S(x_1)
            c = c * sign_pow(sum(x[3] * y[3] for i, x in enumerate(factors)
                                 for y in factors[i + 1:]))
        prod = Poly.from_scalar(c)
        for s in reversed(factors):
            prod = prod * _image(f.dims, s, star)
        out = out + prod
    return CG(f.dims, out.terms)


def antipode(f: CG) -> CG:
    return _reversed(f, False)


def omega(f: CG) -> CG:
    return _reversed(f, True)


def antipode_convolution(f: CG, side: str) -> CG:
    """m (S (x) id) Delta(f) ("left") or m (id (x) S) Delta(f) ("right"),
    one CG product per coproduct term."""
    out = CG.zero(f.dims)
    for (m1, m2), c in delta(f).terms.items():
        f1 = CG(f.dims, {m1: ONE})
        f2 = CG(f.dims, {m2: ONE})
        if side == "left":
            prod = antipode(f1) * f2
        else:
            prod = f1 * antipode(f2)
        out = out + prod.scale(c)
    return out


def omega_star_delta(f: CG) -> TensorCG:
    """(omega (x) omega) Delta(f), with the Koszul sign
    (-1)^{[f_(1)][f_(2)]}, one omega per coproduct slot."""
    out = {}
    for (m1, m2), c in delta(f).terms.items():
        coeff = c.conj()
        if monomial_parity(m1) & monomial_parity(m2):
            coeff = -coeff
        for mm1, c1 in omega(CG(f.dims, {m1: ONE})).terms.items():
            for mm2, c2 in omega(CG(f.dims, {m2: ONE})).terms.items():
                add_term(out, (mm1, mm2), coeff * c1 * c2)
    return TensorCG(f.dims, 2, out)
