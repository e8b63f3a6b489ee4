"""Left and right translation actions of U(gl(m|n)) on the function algebra.

For a letter ``x = E_ab`` and a generator ``g`` (t or tbar), the actions are
spliced mechanically out of the coproduct and the duality pairing:

    dR_x(g_cd) = (-1)^{[x][g]} sum_e sign(c,e,d) g_ce <g_ed, x>
    dL_x(g_cd) = -(-1)^{[x]}   sum_e <g_ce, x> sign(c,e,d) g_ed

with ``sign(c,e,d) = (-1)^{([e]+[c])([e]+[d])}`` the coproduct sign of
:func:`grading.delta_sign` (the antipode S(x) = -x accounts for the
leading minus in dL).  Letters act as superderivations of parity [x]; a
word acts by composing its letters with the rightmost letter applied
first.  The two actions supercommute:
dL_x dR_y = (-1)^{[x][y]} dR_y dL_x.

The free coefficient algebra on tags ``x``/``xb`` carries the slot actions

    phi(u)(x_ab)  = (-1)^{[u]} x_{a, u.b}          (u acting in V)
    psi(u)(x_ab)  = (-1)^{[u][b]} x_{u.a, b}       (u acting in V*)
    phi(u)(xb_ab) = (-1)^{[u]} xb_{a, u.b}         (u acting in V*)
    psi(u)(xb_ab) = (-1)^{[u]([u]+[b])} xb_{u.a, b} (u acting in V)

and the tag-renaming isomorphism :func:`jmath` onto t/tbar intertwines
psi with dL and phi with dR.  :func:`slot_action` is built that way: it
renames the generator images of :func:`letter_action`, the one place
where the signs of the translation actions are written.
"""

from __future__ import annotations

from .cg import CG, is_zero_mod_j
from .grading import Dims, delta_sign
from .scalar import sign_pow
from .superpoly import DerivationSpec, Poly, symbol
from .ugl import UEl, _remember, invariant_letters, letter_column

# Letter actions by (m, n, side, a, b), kept through _remember.
_LETTER_CACHE_CAP = 1024
_letter_cache: dict = {}


def letter_action(dims: Dims, side: str, a: int, b: int) -> DerivationSpec:
    """The superderivation dL_{E_ab} (side="left") or dR_{E_ab} ("right")."""
    key = (dims.m, dims.n, side, a, b)
    spec = _letter_cache.get(key)
    if spec is not None:
        return spec
    if side not in ("left", "right"):
        raise ValueError(f"bad side {side!r}")
    xpar = dims.letter_par(a, b)
    letter = (a, b)
    # <g_rs, E_ab> = (E_ab . e_s)[r] in g's own module (V for t, V* for tb)
    pairs = {}
    for tag, kind in (("t", "v"), ("tb", "vb")):
        for s in dims.indices():
            for (r,), k in letter_column(dims, (kind,), letter, (s,)):
                pairs[tag, r, s] = k
    images = {}
    for tag in ("t", "tb"):
        for c in dims.indices():
            for d in dims.indices():
                gsym = symbol(tag, c, d, dims.letter_par(c, d))
                img = Poly.zero()
                for e in dims.indices():
                    if side == "right":
                        val = pairs.get((tag, e, d))
                        if not val:
                            continue
                        coeff = val * sign_pow(delta_sign(dims, c, e, d))
                        if xpar and dims.letter_par(c, d):
                            coeff = -coeff
                        img = img + Poly.from_symbol(
                            symbol(tag, c, e, dims.letter_par(c, e))
                        ).scale(coeff)
                    else:
                        val = pairs.get((tag, c, e))
                        if not val:
                            continue
                        coeff = -val * sign_pow(delta_sign(dims, c, e, d))
                        if xpar:
                            coeff = -coeff
                        img = img + Poly.from_symbol(
                            symbol(tag, e, d, dims.letter_par(e, d))
                        ).scale(coeff)
                if not img.is_zero():
                    images[gsym] = img
    spec = DerivationSpec(xpar, images)
    _remember(_letter_cache, _LETTER_CACHE_CAP, key, spec)
    return spec


def act_word(dims: Dims, side: str, word: tuple, poly: Poly) -> Poly:
    """Apply a letter word, rightmost letter first."""
    out = poly
    for a, b in reversed(word):
        out = letter_action(dims, side, a, b).apply(out)
    return out


def act(side: str, u: UEl, f: CG) -> CG:
    """dL_u(f) for side="left", dR_u(f) for side="right"."""
    if side not in ("left", "right"):
        raise ValueError(f"bad side {side!r}")
    if u.dims != f.dims:
        raise ValueError("mismatched gl(m|n) dimensions")
    out = CG.zero(f.dims)
    for w, c in u.terms.items():
        out = out + act_word(u.dims, side, w, f).scale(c)
    return out


# --------------------------------------------------------- free coefficients


_TO_FREE = {"t": "x", "tb": "xb"}
_TO_FUNCTION = {"x": "t", "xb": "tb"}


def _rename(s, tags: dict):
    return (tags[s[0]],) + s[1:]


def _renamed(terms: dict, tags: dict) -> dict:
    """terms with every symbol's tag renamed by tags.  Tag order is kept
    (t < tb, x < xb), so canonical monomials stay canonical."""
    return {
        tuple((_rename(s, tags), e) for s, e in mono): c
        for mono, c in terms.items()
    }


def slot_action(dims: Dims, kind: str, a: int, b: int) -> DerivationSpec:
    """phi(E_ab) (kind="phi") or psi(E_ab) ("psi") on the x/xb alphabet:
    dR_{E_ab} or dL_{E_ab} read through the renaming t -> x, tb -> xb."""
    if kind not in ("phi", "psi"):
        raise ValueError(f"bad slot action {kind!r}")
    spec = letter_action(dims, "right" if kind == "phi" else "left", a, b)
    return DerivationSpec(spec.parity, {
        _rename(s, _TO_FREE): Poly(_renamed(img.terms, _TO_FREE))
        for s, img in spec.images.items()
    })


def x_gen(dims: Dims, tag: str, a: int, b: int) -> Poly:
    if tag not in ("x", "xb"):
        raise ValueError(f"bad free tag {tag!r}")
    return Poly.from_symbol(symbol(tag, a, b, dims.letter_par(a, b)))


def jmath(dims: Dims, p: Poly) -> CG:
    """Rename x -> t, xb -> tbar; an isomorphism onto the function algebra.
    Raises ValueError unless each renamed symbol passes CG.from_symbol."""
    for mono in p.terms:
        for s, _ in mono:
            if s[0] not in _TO_FUNCTION:
                raise ValueError(f"{s!r} is not an x or xb symbol")
            CG.from_symbol(dims, _rename(s, _TO_FUNCTION))
    return CG(dims, _renamed(p.terms, _TO_FUNCTION))


# ------------------------------------------------------------- invariance


def is_invariant(
    f: CG,
    blocks,
    side: str = "left",
    mode: str = "generic",
    trials: int = 3,
    seed: int = 0,
):
    """Whether every Levi letter kills f modulo the defining ideal.

    Returns (flag, details) where details maps each letter to its verdict.
    """
    dims = f.dims
    details = {}
    ok = True
    for a, b in invariant_letters(dims, blocks):
        g = act(side, UEl.letter(dims, a, b), f)
        v = is_zero_mod_j(g, mode=mode, trials=trials, seed=seed)
        details[(a, b)] = v
        if not v.is_zero:
            ok = False
    return ok, details
