"""The coproduct route: slow reference computations the tests compare the
library against.

The library pairs a function with a word through the module-side kernel
(``cg.pair``: the word's image on the generator columns) and acts on free
polynomials through one derivation per letter.  The functions here reach
the same values the other way, by splitting words through the coproduct
Delta(E) = E (x) 1 + 1 (x) E and by applying letters one at a time, so
they are an independent check on both.

The free coefficient algebra on tags ``x``/``xb`` carries the slot actions

    phi(u)(x_ab)  = (-1)^{[u]} x_{a, u.b}          (u acting in V)
    psi(u)(x_ab)  = (-1)^{[u][b]} x_{u.a, b}       (u acting in V*)
    phi(u)(xb_ab) = (-1)^{[u]} xb_{a, u.b}         (u acting in V*)
    psi(u)(xb_ab) = (-1)^{[u]([u]+[b])} xb_{u.a, b} (u acting in V)

and the tag renaming x -> t, xb -> tbar onto the function algebra
intertwines psi with dL and phi with dR.  :func:`slot_action` reads
``actions.letter_action`` through the inverse renaming, so a test of its
images against these formulas checks the signs of dL and dR.
"""

from itertools import product

from superfn.actions import letter_action
from superfn.cg import CG, _module_kind
from superfn.grading import Dims
from superfn.scalar import Scalar, ZERO, ONE
from superfn.superpoly import DerivationSpec, Poly
from superfn.ugl import TVec, UEl, word_parity


def split_word(dims: Dims, word: tuple, slots: int):
    """All ways to distribute a word's letters over ``slots`` tensor slots.

    Yields ``(subwords, sign)`` where ``subwords`` is a tuple of letter
    tuples (order preserved) and ``sign`` is the Koszul parity picked up by
    moving each letter into its slot (a pair i < j with slot_i > slot_j
    contributes ``par_i * par_j``).  This is the d-fold coproduct of the
    word, since Delta(E) = E (x) 1 + 1 (x) E.
    """
    pars = [dims.letter_par(a, b) for a, b in word]
    d = len(word)
    for assign in product(range(slots), repeat=d):
        sign = 0
        for j in range(d):
            if pars[j]:
                for i in range(j):
                    if pars[i] and assign[i] > assign[j]:
                        sign ^= 1
        subwords = tuple(
            tuple(word[i] for i in range(d) if assign[i] == s)
            for s in range(slots)
        )
        yield subwords, sign


def pair_via_coproduct(f: CG, u: UEl) -> Scalar:
    """The pairing <f, u>, with each word split through the coproduct over
    the generator factors of each monomial of f; must agree with
    ``cg.pair``."""
    dims = f.dims
    total = ZERO
    for mono, cf in f.terms.items():
        factors = []
        for s, e in mono:
            factors.extend([s] * e)
        for w, cu in u.terms.items():
            total = total + cf * cu * _pair_factors(dims, factors, w)
    return total


def _pair_factors(dims: Dims, factors: list, word: tuple) -> Scalar:
    if not factors:
        return ONE if not word else ZERO
    if len(factors) == 1:
        # matrix element of the word in the generator's own module
        tag, a, b, _ = factors[0]
        vec = TVec.basis(dims, (_module_kind(tag),), (b,)).act_word(word)
        return vec.terms.get((a,), ZERO)
    head, rest = factors[0], factors[1:]
    rest_par = sum(s[3] for s in rest) & 1
    total = ZERO
    for (w1, w2), sgn in split_word(dims, word, 2):
        v1 = _pair_factors(dims, [head], w1)
        if not v1:
            continue
        v2 = _pair_factors(dims, rest, w2)
        if not v2:
            continue
        term_sign = sgn ^ (rest_par & word_parity(dims, w1))
        term = v1 * v2
        if term_sign:
            term = -term
        total = total + term
    return total


_TO_FREE = {"t": "x", "tb": "xb"}


def _free(s):
    """The symbol s with its tag renamed t -> x, tb -> xb."""
    return (_TO_FREE[s[0]],) + s[1:]


def slot_action(dims: Dims, kind: str, a: int, b: int) -> DerivationSpec:
    """phi(E_ab) (kind="phi") or psi(E_ab) ("psi") on the x/xb alphabet:
    dR_{E_ab} or dL_{E_ab} read through the renaming t -> x, tb -> xb.
    The renaming keeps tag order (t < tb, x < xb), so canonical monomials
    stay canonical."""
    spec = letter_action(dims, "right" if kind == "phi" else "left", a, b)
    return DerivationSpec(spec.parity, {
        _free(s): Poly({tuple((_free(x), e) for x, e in mono): c
                        for mono, c in img.terms.items()})
        for s, img in spec.images.items()
    })
