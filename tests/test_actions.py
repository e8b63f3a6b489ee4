import itertools
import random

import pytest

from coproduct_reference import slot_action
from superfn import actions
from superfn.actions import (
    act,
    act_word,
    invariant_letters,
    is_invariant,
    letter_action,
)
from superfn.cg import CG, is_zero_mod_j, pair, relations
from superfn.grading import Dims
from superfn.scalar import Scalar, ZERO, ONE, sign_pow
from superfn.spherical import LeviProfile, c_block
from superfn.superpoly import Poly, symbol
from superfn.ugl import UEl

D11 = Dims(1, 1)
D21 = Dims(2, 1)
D22 = Dims(2, 2)
ALL_DIMS = (D11, D21, Dims(1, 2), D22)


def gen_cg(dims, tag, a, b):
    return CG.t(dims, a, b) if tag == "t" else CG.tbar(dims, a, b)


def rand_cg(dims, rng, max_terms=3, max_len=3):
    gens = []
    for a in dims.indices():
        for b in dims.indices():
            gens.append(CG.t(dims, a, b))
            gens.append(CG.tbar(dims, a, b))
    out = CG.zero(dims)
    for _ in range(rng.randint(0, max_terms)):
        term = CG.from_scalar(dims, Scalar(rng.randint(-4, 4)))
        for _ in range(rng.randint(0, max_len)):
            term = term * rng.choice(gens)
        out = out + term
    return out


def test_right_action_closed_form():
    # dR_{E_ab} t_cd = delta_db (-1)^{[a]+[b]} t_ca
    # dR_{E_ab} tb_cd = -delta_da (-1)^{[b]+[a][b]} tb_cb
    for a, b, c, d in itertools.product(D21.indices(), repeat=4):
        pa, pb = D21.par(a), D21.par(b)
        got = act("right", UEl.letter(D21, a, b), CG.t(D21, c, d))
        want = CG.t(D21, c, a).scale(sign_pow(pa + pb)) if d == b \
            else CG.zero(D21)
        assert got == want, (a, b, c, d)
        got = act("right", UEl.letter(D21, a, b), CG.tbar(D21, c, d))
        want = CG.tbar(D21, c, b).scale(-sign_pow(pb + pa * pb)) if d == a \
            else CG.zero(D21)
        assert got == want, (a, b, c, d)


def test_left_action_closed_form():
    # dL_{E_ab} t_cd = -delta_ca (-1)^{([a]+[b])([b]+[d]+1)} t_bd
    # dL_{E_ab} tb_cd = delta_cb (-1)^{([a]+[b])([d]+1)} tb_ad
    for a, b, c, d in itertools.product(D21.indices(), repeat=4):
        pa, pb, pd = D21.par(a), D21.par(b), D21.par(d)
        got = act("left", UEl.letter(D21, a, b), CG.t(D21, c, d))
        want = CG.t(D21, b, d).scale(
            -sign_pow((pa + pb) * (pb + pd + 1))) if c == a \
            else CG.zero(D21)
        assert got == want, (a, b, c, d)
        got = act("left", UEl.letter(D21, a, b), CG.tbar(D21, c, d))
        want = CG.tbar(D21, a, d).scale(
            sign_pow((pa + pb) * (pd + 1))) if c == b \
            else CG.zero(D21)
        assert got == want, (a, b, c, d)


def _pair_gen_letter_reference(dims, tag, a, b, letter):
    """<g_ab, E_cd> in closed form (the duality in the cg module docstring):
    delta_ac delta_bd for t, -(-1)^{[a][b]+[b]} delta_bc delta_ad for tbar."""
    c, d = letter
    if tag == "t":
        return ONE if (a, b) == (c, d) else ZERO
    if (a, b) == (d, c):
        return -sign_pow(dims.par(a) * dims.par(b) + dims.par(b))
    return ZERO


def _gen(dims, tag, a, b):
    return symbol(tag, a, b, dims.letter_par(a, b))


def _letter_action_reference(dims, side, letter):
    """Generator images of dR_x / dL_x from the formulas in the actions
    module docstring, with the closed-form pairing above."""
    xpar = dims.letter_par(*letter)
    images = {}
    for tag in ("t", "tb"):
        for c, d in itertools.product(dims.indices(), repeat=2):
            img = Poly.zero()
            for e in dims.indices():
                sign = sign_pow((dims.par(e) + dims.par(c))
                                * (dims.par(e) + dims.par(d)))
                if side == "right":
                    val = _pair_gen_letter_reference(dims, tag, e, d, letter)
                    coeff = val * sign * sign_pow(xpar * dims.letter_par(c, d))
                    g = _gen(dims, tag, c, e)
                else:
                    val = _pair_gen_letter_reference(dims, tag, c, e, letter)
                    coeff = -val * sign * sign_pow(xpar)
                    g = _gen(dims, tag, e, d)
                img = img + Poly.from_symbol(g).scale(coeff)
            if not img.is_zero():
                images[_gen(dims, tag, c, d)] = img
    return images


def test_letter_action_matches_closed_form_pairing():
    # (1,0) and (0,2) have an empty parity class
    for dims in ALL_DIMS + (Dims(3, 2), Dims(1, 0), Dims(0, 2)):
        for a, b in itertools.product(dims.indices(), repeat=2):
            for tag, c, d in itertools.product(("t", "tb"), dims.indices(),
                                               dims.indices()):
                assert pair(gen_cg(dims, tag, c, d), UEl.letter(dims, a, b)) \
                    == _pair_gen_letter_reference(dims, tag, c, d, (a, b))
            for side in ("left", "right"):
                spec = letter_action(dims, side, a, b)
                assert spec.parity == dims.letter_par(a, b)
                assert spec.images == \
                    _letter_action_reference(dims, side, (a, b)), (dims, side)


def _act_v_reference(dims, c, d, idx):
    """E_cd v_idx = delta_{d,idx} v_c."""
    if idx == d:
        return c, ONE
    return None


def _act_vb_reference(dims, c, d, idx):
    """E_cd vb_idx = -(-1)^{[c]+[c][d]} delta_{c,idx} vb_d."""
    if idx == c:
        return d, -sign_pow(dims.par(c) * (1 + dims.par(d)))
    return None


def _slot_action_reference(dims, kind, a, b):
    """Generator images of phi(E_ab) / psi(E_ab), as in the
    coproduct_reference module docstring."""
    upar = dims.letter_par(a, b)
    images = {}
    for r, cc in itertools.product(dims.indices(), repeat=2):
        for tag in ("x", "xb"):
            if kind == "phi":
                act = _act_v_reference if tag == "x" else _act_vb_reference
                hit = act(dims, a, b, cc)
                if hit is None:
                    continue
                new, coeff = hit
                tgt = (r, new)
                twist = upar
            else:
                act = _act_vb_reference if tag == "x" else _act_v_reference
                hit = act(dims, a, b, r)
                if hit is None:
                    continue
                new, coeff = hit
                tgt = (new, cc)
                twist = upar * (dims.par(cc) if tag == "x"
                                else upar + dims.par(cc))
            images[_gen(dims, tag, r, cc)] = Poly.from_symbol(
                _gen(dims, tag, *tgt)).scale(coeff * sign_pow(twist))
    return images


def test_slot_action_matches_module_reference():
    for dims in ALL_DIMS + (Dims(3, 2), Dims(2, 3), Dims(1, 0), Dims(0, 2)):
        for a, b in itertools.product(dims.indices(), repeat=2):
            for kind in ("phi", "psi"):
                spec = slot_action(dims, kind, a, b)
                assert spec.parity == dims.letter_par(a, b)
                assert spec.images == \
                    _slot_action_reference(dims, kind, a, b), (dims, kind)


def test_actions_are_superderivations():
    rng = random.Random(20)
    for dims in (D11, D21):
        letters = [(a, b) for a in dims.indices() for b in dims.indices()]
        for _ in range(25):
            f = rand_cg(dims, rng, max_terms=2, max_len=2)
            g = rand_cg(dims, rng, max_terms=2, max_len=2)
            a, b = rng.choice(letters)
            for side in ("left", "right"):
                spec = letter_action(dims, side, a, b)
                lhs = spec.apply((f * g).poly)
                sgn = sign_pow(spec.parity * f.parity()) \
                    if f.parity() is not None else None
                rhs = spec.apply(f.poly) * g.poly
                if f.parity() is not None:
                    rhs = rhs + (f.poly * spec.apply(g.poly)).scale(sgn)
                    assert lhs == rhs


def test_action_pairing_contract():
    # <dR_x f, y> = (-1)^{[x]([f]+[y])} <f, yx>
    # <dL_x f, y> = (-1)^{[x][f]} <f, S(x) y>
    rng = random.Random(21)
    for dims in (D11, D21):
        letters = [(a, b) for a in dims.indices() for b in dims.indices()]
        gens = [gen_cg(dims, tag, a, b)
                for tag in ("t", "tb") for a, b in letters]
        for _ in range(60):
            f = rng.choice(gens)
            if rng.random() < 0.5:
                f = f * rng.choice(gens)
                if f.is_zero():
                    continue
            xl = rng.choice(letters)
            x = UEl.letter(dims, *xl)
            y = UEl.word(dims, tuple(rng.choice(letters)
                                     for _ in range(rng.randint(0, 2))))
            xpar = dims.letter_par(*xl)
            fpar = f.parity()
            ypar = y.parity() or 0
            lhs = pair(act("right", x, f), y)
            rhs = pair(f, y * x) * sign_pow(xpar * (fpar + ypar))
            assert lhs == rhs
            lhs = pair(act("left", x, f), y)
            rhs = pair(f, x.antipode() * y) * sign_pow(xpar * fpar)
            assert lhs == rhs


def test_left_and_right_actions_supercommute():
    # dL_x dR_y = (-1)^{[x][y]} dR_y dL_x, exactly on representatives
    rng = random.Random(22)
    letters = [(a, b) for a in D11.indices() for b in D11.indices()]
    for _ in range(40):
        f = rand_cg(D11, rng, max_terms=2, max_len=2)
        x = rng.choice(letters)
        y = rng.choice(letters)
        lr = act_word(D11, "left", (x,),
                      act_word(D11, "right", (y,), f.poly))
        rl = act_word(D11, "right", (y,),
                      act_word(D11, "left", (x,), f.poly))
        sgn = sign_pow(D11.letter_par(*x) * D11.letter_par(*y))
        assert lr == rl.scale(sgn)


def test_actions_preserve_the_ideal():
    rng = random.Random(23)
    for dims in (D11, D21):
        letters = [(a, b) for a in dims.indices() for b in dims.indices()]
        for rel in relations(dims):
            for _ in range(3):
                x = UEl.letter(dims, *rng.choice(letters))
                for side in ("left", "right"):
                    g = act(side, x, rel)
                    v = is_zero_mod_j(g, mode="pairing")
                    assert v.is_zero


def test_word_action_composes_outermost_first():
    rng = random.Random(24)
    letters = [(a, b) for a in D21.indices() for b in D21.indices()]
    for side in ("left", "right"):
        for _ in range(15):
            f = rand_cg(D21, rng, max_terms=2, max_len=2)
            w1 = rng.choice(letters)
            w2 = rng.choice(letters)
            via_word = act_word(D21, side, (w1, w2), f.poly)
            nested = act_word(D21, side, (w1,),
                              act_word(D21, side, (w2,), f.poly))
            assert via_word == nested
            u = UEl.letter(D21, *w1) * UEl.letter(D21, *w2)
            assert act(side, u, f).poly == via_word


def test_invariant_letters_layout():
    blocks = [(1, 3), (4, 4)]
    letters = invariant_letters(D22, blocks)
    assert [(a, a) for a in D22.indices()] == letters[:4]
    assert (1, 2) in letters and (2, 1) in letters
    assert (2, 3) in letters and (3, 2) in letters
    assert (3, 4) not in letters


def test_is_invariant_on_block_traces():
    # C^{(i,j)} over pure refined blocks is a two-sided invariant
    from superfn.spherical import c_pair

    prof = LeviProfile.parse(D22, "2|1,1")
    f = c_pair(prof, 3, 3)
    ok, details = is_invariant(f, prof.blocks, side="left", mode="pairing")
    assert ok, details
    ok, _ = is_invariant(f, prof.blocks, side="right", mode="pairing")
    assert ok
    prof = LeviProfile.parse(D22, "1,1|1,1")
    for i in (1, 4):
        for j in (1, 4):
            f = c_pair(prof, i, j)
            for side in ("left", "right"):
                ok, _ = is_invariant(f, prof.blocks, side=side,
                                     mode="pairing")
                assert ok, (i, j, side)


def test_is_invariant_rejects_plain_generators():
    prof = LeviProfile.parse(D11, "1,1")
    ok, details = is_invariant(CG.t(D11, 1, 1), prof.blocks, side="left",
                               mode="pairing")
    assert not ok
    bad = [ab for ab, v in details.items() if not v.is_zero]
    assert bad


def test_corrected_mixed_block_derivative_signs():
    # dL_{E_23} C^{(3)}_ab = (-1)^{[a]+[b]} t_{3a} tb_{2b} and
    # dL_{E_32} C^{(3)}_ab = (-1)^{[a]} t_{2a} tb_{3b}
    # for the profile with middle block {2,3} at (m,n) = (2,2).
    # Besides matching act exactly, each form is checked against the
    # contract <dL_x f, y> = (-1)^{[x][f]} <f, S(x) y> through pair alone,
    # for y on the PBW monomials of degree <= 3: they span every word of
    # length <= 3, which is needed, since length <= 2 cannot separate the
    # stated form -(-1)^{[a]+[b]} from the forced one at (E_23, 2, 3) and
    # (E_32, 3, 2).  The same check must reject that stated form exactly
    # where it differs: every E_23 entry and the E_32 entries with [b] = 0.
    prof = LeviProfile.parse(D22, "1,1|1,1")
    letters = [(a, b) for a in D22.indices() for b in D22.indices()]
    basis = [UEl.word(D22, w) for k in range(4)
             for w in itertools.combinations_with_replacement(letters, k)
             if not any(u == v and D22.letter_par(*u)
                        for u, v in zip(w, w[1:]))]
    assert len(basis) == 833
    stated_rejected = set()
    for xl, name in (((2, 3), "E23"), ((3, 2), "E32")):
        x = UEl.letter(D22, *xl)
        xpar = D22.letter_par(*xl)
        sx = x.antipode()
        sx_basis = [sx * y for y in basis]
        for a in D22.indices():
            for b in D22.indices():
                pa, pb = D22.par(a), D22.par(b)
                f = c_block(prof, 3, a, b)
                prod = CG.t(D22, xl[1], a) * CG.tbar(D22, xl[0], b)
                want = prod.scale(
                    sign_pow(pa + pb) if xl == (2, 3) else sign_pow(pa))
                got = act("left", x, f)
                assert (got - want).is_zero(), (name, a, b)
                sgn = sign_pow(xpar * f.parity())
                rhs = [pair(f, u) * sgn for u in sx_basis]
                assert all(pair(want, y) == r
                           for y, r in zip(basis, rhs)), (name, a, b)
                stated = prod.scale(-sign_pow(pa + pb))
                if any(pair(stated, y) != r for y, r in zip(basis, rhs)):
                    stated_rejected.add((name, a, b))
    differs = {(name, a, b) for name in ("E23", "E32")
               for a in D22.indices() for b in D22.indices()
               if name == "E23" or not D22.par(b)}
    assert len(differs) == 24
    assert stated_rejected == differs


def test_act_refuses_a_bad_side_with_no_letter_to_apply():
    """The empty word and scalars apply no letter action, so the side is
    checked before any work."""
    f = CG.t(D11, 1, 2)
    for u in (UEl.one(D11), UEl.from_scalar(D11, 3), UEl.zero(D11)):
        with pytest.raises(ValueError, match="bad side 'middle'"):
            act("middle", u, f)


def _spec_data(spec):
    return spec.parity, spec.images


def test_letter_action_memo_stays_under_its_cap(monkeypatch):
    """Acting with every letter on both sides at (2,1) and (2,2) stores 50
    letter actions; under a cap of 5 the memo never holds more, and every
    action (and every act through it) equals one built afresh."""
    monkeypatch.setattr(actions, "_LETTER_CACHE_CAP", 5)
    monkeypatch.setattr(actions, "_letter_cache", {})
    got, sizes = [], []
    for dims in (D21, D22):
        f = CG.t(dims, 1, dims.size) * CG.tbar(dims, dims.size, 2)
        for a in dims.indices():
            for b in dims.indices():
                for side in ("left", "right"):
                    spec = letter_action(dims, side, a, b)
                    image = act(side, UEl.letter(dims, a, b), f)
                    got.append((dims, side, a, b, _spec_data(spec), image))
                    sizes.append(len(actions._letter_cache))
    assert len(got) == 50 and max(sizes) <= 5
    assert any(y < x for x, y in zip(sizes, sizes[1:]))  # the cap fired
    for dims, side, a, b, data, image in got:
        actions._letter_cache.clear()
        assert _spec_data(letter_action(dims, side, a, b)) == data
        f = CG.t(dims, 1, dims.size) * CG.tbar(dims, dims.size, 2)
        actions._letter_cache.clear()
        assert act(side, UEl.letter(dims, a, b), f) == image
