"""Supercommutative polynomials in tagged generators.

A generator symbol is a tuple ``(tag, row, col, par)`` with ``tag`` a short
string (``"t"``, ``"tb"``, ``"x"``, ``"xb"``), 1-based indices, and ``par``
the symbol's parity.  Monomials are tuples of ``(symbol, exponent)`` pairs
with symbols strictly increasing in tuple order; odd symbols square to zero,
so their exponent is always 1.  Reordering two factors costs the Koszul sign
``(-1)^{[f][g]}``.

A :class:`Poly` is a finite Scalar-linear combination of monomials.  The
representation is independent of the ambient (m, n): parities are baked into
the symbols.
"""

from __future__ import annotations

from typing import Optional

from .linalg import LinComb, add_term
from .scalar import Scalar, ONE, _rat_str

Symbol = tuple  # (tag, row, col, par)
Monomial = tuple  # ((symbol, exp), ...)


def symbol(tag: str, row: int, col: int, par: int) -> Symbol:
    return (tag, row, col, par)


def _merge_monomials(m1: Monomial, m2: Monomial):
    """Concatenate two canonical monomials into canonical form.

    Returns ``(monomial, sign_parity)`` or ``None`` when an odd symbol would
    square.  ``sign_parity`` is 0/1: the Koszul sign is (-1)**sign_parity.
    """
    if not m1:
        return m2, 0
    if not m2:
        return m1, 0
    res = []
    sign = 0
    odd_rest = sum(1 for s, _ in m1 if s[3])
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        s1, e1 = m1[i]
        s2, e2 = m2[j]
        if s1 < s2:
            res.append(m1[i])
            if s1[3]:
                odd_rest -= 1
            i += 1
        elif s2 < s1:
            if s2[3]:
                sign ^= odd_rest & 1
            res.append(m2[j])
            j += 1
        else:
            if s1[3]:
                return None
            res.append((s1, e1 + e2))
            i += 1
            j += 1
    res.extend(m1[i:])
    res.extend(m2[j:])
    return tuple(res), sign


def monomial_parity(m: Monomial) -> int:
    return sum(1 for s, _ in m if s[3]) & 1


def monomial_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


class Poly(LinComb):
    """Sparse supercommutative polynomial with exact coefficients."""

    __slots__ = ()
    _UNIT = ()
    _key_degree = staticmethod(monomial_degree)
    _key_parity = staticmethod(monomial_parity)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = terms if terms is not None else {}

    def _like(self, terms: dict) -> "Poly":
        return Poly(terms)

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly({(): ONE})

    @staticmethod
    def from_scalar(c) -> "Poly":
        c = c if isinstance(c, Scalar) else Scalar(c)
        return Poly({(): c}) if c else Poly()

    @staticmethod
    def from_symbol(sym: Symbol) -> "Poly":
        return Poly({((sym, 1),): ONE})

    def __mul__(self, other: "Poly") -> "Poly":
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                merged = _merge_monomials(m1, m2)
                if merged is None:
                    continue
                mono, sgn = merged
                c = c1 * c2
                if sgn:
                    c = -c
                add_term(out, mono, c)
        return self._like(out)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def pretty(self) -> str:
        return pretty(self)

    def __str__(self):
        return pretty(self)

    def __repr__(self):
        return f"{type(self).__name__}({pretty(self)})"


class DerivationSpec:
    """A homogeneous left superderivation, determined by generator images.

    ``apply`` extends the images by the graded Leibniz rule
    ``d(fg) = d(f) g + (-1)^{[d][f]} f d(g)``; generators without an image
    map to zero.  The result is built by ``p._like``, so a CG keeps its dims.
    """

    __slots__ = ("parity", "images")

    def __init__(self, parity: int, images: dict):
        self.parity = parity & 1
        self.images = images

    def apply(self, p: Poly) -> Poly:
        out = {}
        for m, c in p.terms.items():
            prefix_par = 0
            for idx in range(len(m)):
                s, e = m[idx]
                img = self.images.get(s)
                if img is not None and img.terms:
                    coeff = c * Scalar(e)
                    if self.parity and prefix_par:
                        coeff = -coeff
                    prefix, rest = m[:idx], m[idx + 1:]
                    if e > 1:
                        rest = ((s, e - 1),) + rest
                    # prefix * img * rest, one image monomial at a time
                    for mi, ci in img.terms.items():
                        left = _merge_monomials(prefix, mi)
                        if left is None:
                            continue
                        whole = _merge_monomials(left[0], rest)
                        if whole is None:
                            continue
                        cc = coeff * ci
                        add_term(out, whole[0],
                                 -cc if left[1] ^ whole[1] else cc)
                prefix_par ^= (e & 1) & s[3]
        return p._like(out)


def _scalar_body(c: Scalar):
    """Render a Scalar as (negative?, body-string) in CLI grammar."""
    if c.im == 0:
        return c.re < 0, _rat_str(abs(c.re))
    im_body = "i" if abs(c.im) == 1 else f"{_rat_str(abs(c.im))}*i"
    if c.re == 0:
        return c.im < 0, im_body
    # both parts nonzero: parenthesized sum, never negated from outside
    return False, f"({_rat_str(c.re)} {'-' if c.im < 0 else '+'} {im_body})"


def render_terms(terms: dict, order, factor_names) -> str:
    """Render a linear combination in the CLI expression grammar.

    ``order`` is the sort key of the terms' keys (None: the keys' own
    order) and ``factor_names(key)`` lists the printed factors of one key
    (none for the constant term).
    """
    if not terms:
        return "0"
    parts = []
    for key in sorted(terms, key=order):
        c = terms[key]
        factors = factor_names(key)
        if not factors:
            neg, body = _scalar_body(c)
        elif c == ONE:
            neg, body = False, "*".join(factors)
        elif c == -ONE:
            neg, body = True, "*".join(factors)
        else:
            neg, cbody = _scalar_body(c)
            body = "*".join([cbody] + factors)
        parts.append((neg, body))
    first_neg, first_body = parts[0]
    if first_neg:
        # a leading minus must start a scalar literal in the grammar
        out = "-" + first_body if first_body[0].isdigit() else "-1*" + first_body
    else:
        out = first_body
    for neg, body in parts[1:]:
        out += (" - " if neg else " + ") + body
    return out


def _monomial_factors(m: Monomial) -> list:
    return [
        f"{s[0]}[{s[1]},{s[2]}]" + ("" if e == 1 else f"^{e}") for s, e in m
    ]


def pretty(p: Poly) -> str:
    """Render a Poly in the CLI expression grammar (re-parseable)."""
    return render_terms(
        p.terms, lambda m: (monomial_degree(m), m), _monomial_factors
    )
