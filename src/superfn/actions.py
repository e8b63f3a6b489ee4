"""Left and right translation actions of U(gl(m|n)) on the function algebra.

For a letter ``x = E_ab`` and a generator ``g`` (t or tbar), the actions are
spliced mechanically out of the coproduct and the duality pairing:

    dR_x(g_cd) = (-1)^{[x][g]} sum_e sign(c,e,d) g_ce <g_ed, x>
    dL_x(g_cd) = -(-1)^{[x]}   sum_e <g_ce, x> sign(c,e,d) g_ed

with ``sign(c,e,d) = (-1)^{([e]+[c])([e]+[d])}`` the coproduct sign of
:func:`grading.delta_sign` (the antipode S(x) = -x accounts for the
leading minus in dL).  A letter pairs nonzero with one generator per tag,
t_ab and tbar_ba, and each such val = <g_rs, x> adds, for every index o,

    (-1)^{[x][g_os]} sign(o,r,s) val g_or    to dR_x(g_os)
    -(-1)^{[x]}      sign(r,s,o) val g_so    to dL_x(g_ro).

Letters act as superderivations of parity [x]; a word acts by composing
its letters with the rightmost letter applied first.  The two actions
supercommute: dL_x dR_y = (-1)^{[x][y]} dR_y dL_x.
"""

from __future__ import annotations

from .cg import CG, is_zero_mod_j
from .grading import Dims, delta_sign
from .linalg import add_term
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
    # the nonzero <g_rs, E_ab> = (E_ab . e_s)[r] in g's module (V, V*)
    pairings = [(tag, r, s, val) for tag, kind in (("t", "v"), ("tb", "vb"))
                for s in dims.indices()
                for (r,), val in letter_column(dims, (kind,), (a, b), (s,))]
    terms = {}
    for tag, r, s, val in pairings:
        for o in dims.indices():  # the side picks source, target and sign
            if side == "right":
                src, tgt = (o, s), (o, r)
                e = delta_sign(dims, o, r, s) + xpar * dims.letter_par(o, s)
            else:
                src, tgt = (r, o), (s, o)
                e = delta_sign(dims, r, s, o) + xpar + 1
            add_term(terms.setdefault(
                symbol(tag, *src, dims.letter_par(*src)), {}),
                ((symbol(tag, *tgt, dims.letter_par(*tgt)), 1),),
                sign_pow(e) * val)
    spec = DerivationSpec(xpar, {g: Poly(t) for g, t in terms.items() if t})
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
