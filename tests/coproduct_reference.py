"""The coproduct route: slow reference computations the tests compare the
library against.

The library pairs a function with a word through the module-side kernel
(``cg.pair``: the word's image on the generator columns) and acts on free
polynomials through one derivation per letter.  The functions here reach
the same values the other way, by splitting words through the coproduct
Delta(E) = E (x) 1 + 1 (x) E and by applying letters one at a time, so
they are an independent check on both.
"""

from itertools import product

from superfn.actions import slot_action
from superfn.cg import CG, _module_kind
from superfn.grading import Dims
from superfn.scalar import Scalar, ZERO, ONE
from superfn.superpoly import Poly
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


def slot_act_word(dims: Dims, kind: str, word: tuple, p: Poly) -> Poly:
    """A word acting on a free polynomial through the slot derivation
    ``kind`` ("psi" or "phi"), one letter at a time, the last letter
    first."""
    out = p
    for a, b in reversed(word):
        out = slot_action(dims, kind, a, b).apply(out)
    return out
