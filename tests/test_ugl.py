import itertools
import random

import pytest

from coproduct_reference import split_word
from superfn import ugl
from superfn.grading import Dims
from superfn.linalg import add_term
from superfn.scalar import Scalar, ONE, MINUS_ONE, I, sign_pow
from superfn.ugl import (
    DegreeCapError,
    TVec,
    UEl,
    bracket,
    casimir,
    invariant_letters,
    laplacian,
    letter_column,
    word_parity,
    z_central,
)

D11 = Dims(1, 1)
D21 = Dims(2, 1)
ALL_DIMS = (Dims(1, 1), Dims(2, 1), Dims(1, 2), Dims(2, 2))


def rand_uel(dims, rng, max_terms=3, max_len=3):
    letters = [(a, b) for a in dims.indices() for b in dims.indices()]
    out = UEl.zero(dims)
    for _ in range(rng.randint(0, max_terms)):
        w = [rng.choice(letters) for _ in range(rng.randint(0, max_len))]
        c = Scalar(rng.randint(-4, 4), rng.randint(-2, 2))
        out = out + UEl.word(dims, w).scale(c)
    return out


def test_bracket_examples():
    # [E_12, E_21] = E_11 + E_22 at (1,1): both odd, anticommutator
    br = bracket(D11, (1, 2), (2, 1))
    assert br == {(1, 1): ONE, (2, 2): ONE}
    # [E_11, E_12] = E_12
    assert bracket(D11, (1, 1), (1, 2)) == {(1, 2): ONE}
    # even case at (2,1): [E_12, E_21] = E_11 - E_22
    br = bracket(D21, (1, 2), (2, 1))
    assert br == {(1, 1): ONE, (2, 2): -ONE}


def test_straightening_respects_bracket():
    # E_21 E_12 = +/- E_12 E_21 + bracket terms, by the defining relation
    for dims in (D11, D21):
        for x in [(a, b) for a in dims.indices() for b in dims.indices()]:
            for y in [(a, b) for a in dims.indices() for b in dims.indices()]:
                sgn = sign_pow(dims.letter_par(*x) * dims.letter_par(*y))
                lhs = UEl.word(dims, [x, y])
                rhs = UEl.word(dims, [y, x]).scale(sgn)
                br = bracket(dims, x, y)
                for letter, c in br.items():
                    rhs = rhs + UEl.letter(dims, *letter).scale(c)
                assert lhs == rhs


def test_odd_letters_square_to_zero():
    assert UEl.word(D11, [(1, 2), (1, 2)]) == UEl.zero(D11)
    assert UEl.word(D21, [(1, 3), (1, 3)]) == UEl.zero(D21)
    assert UEl.word(D21, [(1, 2), (1, 2)]) != UEl.zero(D21)


def test_multiplication_associative_random():
    rng = random.Random(1)
    for _ in range(40):
        u, v, w = (rand_uel(D21, rng, max_len=2) for _ in range(3))
        assert (u * v) * w == u * (v * w)


def test_degree_cap():
    with pytest.raises(DegreeCapError):
        UEl.word(D11, [(1, 1)] * 9)
    u = UEl.word(D11, [(1, 1)] * 5)
    with pytest.raises(DegreeCapError):
        u * u


def test_degree_cap_from_environment(monkeypatch):
    monkeypatch.setenv("SUPERFN_DEGREE_CAP", "10")
    ugl.reread_degree_cap()
    u = UEl.letter(D11, 1, 1) ** 9
    assert u == UEl.word(D11, [(1, 1)] * 9) and u.degree() == 9
    with pytest.raises(DegreeCapError, match="exceeds degree cap 10"):
        UEl.word(D11, [(1, 1)] * 11)
    for raw in ("0", "abc"):
        monkeypatch.setenv("SUPERFN_DEGREE_CAP", raw)
        ugl.reread_degree_cap()
        with pytest.raises(DegreeCapError, match="bad SUPERFN_DEGREE_CAP"):
            UEl.word(D11, [(1, 1)])


def test_degree_cap_is_read_once_per_reread(counting_environ):
    # the first word after a re-read reads the cap; no later word or
    # product reads it again
    rng = random.Random(5)
    for dims in (D11, D21):
        ugl.reread_degree_cap()
        counting_environ.reads = 0
        for _ in range(30):
            u = rand_uel(dims, rng, max_len=2) + UEl.one(dims)
            v = rand_uel(dims, rng, max_len=2) + UEl.one(dims)
            assert (u * v).counit() == u.counit() * v.counit()
        assert counting_environ.reads == 1
        assert ugl.degree_cap() == 8 and counting_environ.reads == 1


def test_degree_cap_setting_waits_for_a_reread(monkeypatch):
    # the held cap stays in force until reread_degree_cap; a bad value is
    # refused at the first word after the re-read, then again on each
    # word until a good value is read
    UEl.word(D11, [(1, 1)] * 8)
    monkeypatch.setenv("SUPERFN_DEGREE_CAP", "10")
    with pytest.raises(DegreeCapError, match="exceeds degree cap 8"):
        UEl.word(D11, [(1, 1)] * 9)
    ugl.reread_degree_cap()
    assert UEl.word(D11, [(1, 1)] * 9).degree() == 9
    assert ugl.degree_cap() == 10
    monkeypatch.setenv("SUPERFN_DEGREE_CAP", "abc")
    ugl.reread_degree_cap()
    for _ in range(2):
        with pytest.raises(DegreeCapError, match="bad SUPERFN_DEGREE_CAP"):
            UEl.letter(D11, 1, 1) * UEl.letter(D11, 1, 1)
    monkeypatch.delenv("SUPERFN_DEGREE_CAP")
    ugl.reread_degree_cap()
    assert ugl.degree_cap() == 8


def test_counit():
    assert UEl.one(D11).counit() == ONE
    assert UEl.letter(D11, 1, 2).counit() == Scalar(0)
    u = UEl.from_scalar(D11, Scalar(3)) + UEl.letter(D11, 1, 1)
    assert u.counit() == Scalar(3)


def test_antipode_on_letters_and_words():
    # S(X) = -X on letters
    assert UEl.letter(D11, 1, 2).antipode() == -UEl.letter(D11, 1, 2)
    # S(xy) = (-1)^{[x][y]} S(y)S(x)
    rng = random.Random(2)
    letters = [(a, b) for a in D21.indices() for b in D21.indices()]
    for _ in range(60):
        x = rng.choice(letters)
        y = rng.choice(letters)
        u = UEl.letter(D21, *x)
        v = UEl.letter(D21, *y)
        sgn = sign_pow(D21.letter_par(*x) * D21.letter_par(*y))
        assert (u * v).antipode() == (v.antipode() * u.antipode()).scale(sgn)


def test_antipode_involutive():
    rng = random.Random(3)
    for _ in range(30):
        u = rand_uel(D21, rng)
        assert u.antipode().antipode() == u


def test_hopf_axioms_via_coproduct():
    # m (S (x) id) Delta(u) = counit(u) 1, on random words
    rng = random.Random(4)
    for dims in (D11, D21):
        letters = [(a, b) for a in dims.indices() for b in dims.indices()]
        for _ in range(40):
            w = tuple(rng.choice(letters)
                      for _ in range(rng.randint(0, 3)))
            u = UEl.word(dims, w)
            left = UEl.zero(dims)
            right = UEl.zero(dims)
            base = next(iter(u.terms), None)
            # apply the splitting to each PBW term of u
            for ww, c in u.terms.items():
                for (w1, w2), sgn in split_word(dims, ww, 2):
                    part = UEl.word(dims, w1).antipode() * UEl.word(dims, w2)
                    left = left + part.scale(c * sign_pow(sgn))
                    part = UEl.word(dims, w1) * UEl.word(dims, w2).antipode()
                    right = right + part.scale(c * sign_pow(sgn))
            expected = UEl.from_scalar(dims, u.counit())
            assert left == expected
            assert right == expected


def test_theta_star_involution_and_transpose():
    assert UEl.letter(D11, 1, 2).theta_star() == UEl.letter(D11, 2, 1)
    rng = random.Random(5)
    for _ in range(30):
        u = rand_uel(D21, rng)
        assert u.theta_star().theta_star() == u
    # conjugate linearity
    u = UEl.letter(D11, 1, 2).scale(I)
    assert u.theta_star() == UEl.letter(D11, 2, 1).scale(-I)
    # anti-automorphism without Koszul signs: (uv)* = v* u*
    for _ in range(30):
        u = rand_uel(D21, rng, max_len=2)
        v = rand_uel(D21, rng, max_len=2)
        assert (u * v).theta_star() == v.theta_star() * u.theta_star()


def test_module_action_is_representation():
    # acting by a product = acting twice
    rng = random.Random(6)
    for dims, factors in [(D11, ("v",)), (D21, ("v", "vb")),
                          (D21, ("vb", "v"))]:
        basis = [TVec.basis(dims, factors, comps)
                 for comps in _all_comps(dims, len(factors))]
        letters = [(a, b) for a in dims.indices() for b in dims.indices()]
        for _ in range(25):
            x = rng.choice(letters)
            y = rng.choice(letters)
            u = UEl.letter(dims, *x) * UEl.letter(dims, *y)
            for vec in basis:
                assert vec.act(u) == vec.act_word((x, y))


def _all_comps(dims, k):
    import itertools
    return itertools.product(dims.indices(), repeat=k)


def test_act_letter_matches_letter_column_reference():
    """TVec.act_letter, read from the memoised letter tables, sums
    c * k over letter_column of each basis tensor, with Scalar
    coefficients over Q(i)."""
    rng = random.Random(12)
    coeffs = [Scalar(1), Scalar(-3), Scalar(0, 2), Scalar(1) / Scalar(3),
              Scalar(2, -1)]
    for dims, factors in [(D11, ("v", "vb")), (D21, ("vb", "v", "v")),
                          (Dims(2, 2), ("v", "vb"))]:
        comps = list(_all_comps(dims, len(factors)))
        for _ in range(20):
            vec = TVec(dims, factors)
            for _ in range(rng.randint(0, 4)):
                vec = vec + TVec.basis(dims, factors, rng.choice(comps)) \
                    .scale(rng.choice(coeffs))
            letter = (rng.choice(dims.indices()), rng.choice(dims.indices()))
            want = {}
            for idx, c in vec.terms.items():
                for o, k in letter_column(dims, factors, letter, idx):
                    add_term(want, o, c * k)
            assert vec.act_letter(*letter).terms == want


def test_vector_action_values():
    # E_ab v_c = delta_bc v_a
    v2 = TVec.basis(D11, ("v",), (2,))
    assert v2.act_word(((1, 2),)) == TVec.basis(D11, ("v",), (1,))
    assert v2.act_word(((2, 1),)).terms == {}
    # E_ab vb_c = -(-1)^{[a]([b]+1)} delta_ac vb_b; at a=1,b=2: -(+1) = -1
    vb1 = TVec.basis(D11, ("vb",), (1,))
    out = vb1.act_word(((1, 2),))
    assert out == TVec.basis(D11, ("vb",), (2,)).scale(-ONE)


@pytest.mark.parametrize("kinds", [("x",), ("v", "V"), ("vb", "")])
def test_factor_kinds_other_than_v_and_vb_are_refused(monkeypatch, kinds):
    # an unknown kind used to act as V*: E_12 sent x_1 to -x_2
    with pytest.raises(ValueError, match="neither 'v' nor 'vb'"):
        TVec.basis(D11, kinds, (1,) * len(kinds))
    monkeypatch.setattr(ugl, "_letter_tables", {})
    with pytest.raises(ValueError, match="neither 'v' nor 'vb'"):
        ugl.letter_table(D11, kinds, (1, 2))
    assert not ugl._letter_tables
    # a tensor built without TVec.basis is refused when a letter acts on it
    vec = TVec(D11, kinds, {(1,) * len(kinds): ONE})
    with pytest.raises(ValueError, match="neither 'v' nor 'vb'"):
        vec.act_letter(1, 2)
    with pytest.raises(ValueError, match="neither 'v' nor 'vb'"):
        ugl.letter_column(D11, kinds, (1, 1), (1,) * len(kinds))


def test_grading_element_acts_by_degree_difference():
    # sum_a E_aa acts on V^{(x)k} (x) V*^{(x)l} by (k - l) id
    for dims, factors in [(D11, ("v", "v", "vb")), (D21, ("vb", "vb")),
                          (D21, ("v", "vb", "v", "v"))]:
        k = sum(1 for f in factors if f == "v")
        el = sum(1 for f in factors if f == "vb")
        z = z_central(dims)
        for comps in _all_comps(dims, len(factors)):
            vec = TVec.basis(dims, factors, comps)
            assert vec.act(z) == vec.scale(Scalar(k - el))


def test_casimir_and_laplacian_are_even_elements():
    for dims in (D11, D21):
        for u in (casimir(dims), laplacian(dims)):
            assert all(word_parity(dims, w) == 0 for w in u.terms)


def test_split_word_coassociative():
    # splitting into three slots = splitting into two, then the left part
    # again; subwords keep letter order so keys need no straightening
    dims = D21
    for w in [((1, 2), (2, 3), (3, 1)), ((1, 3), (3, 3), (2, 1), (1, 1))]:
        direct = {}
        for (w1, w2, w3), sgn in split_word(dims, w, 3):
            key = (w1, w2, w3)
            assert key not in direct  # letters in w are pairwise distinct
            direct[key] = sgn & 1
        nested = {}
        for (w12, w3), sgn in split_word(dims, w, 2):
            for (w1, w2), sgn2 in split_word(dims, w12, 2):
                key = (w1, w2, w3)
                assert key not in nested
                nested[key] = (sgn + sgn2) & 1
        assert direct == nested


def test_split_word_counit_slot():
    # exactly one split sends everything to one slot, with no sign
    dims = D21
    w = ((1, 3), (2, 1))
    splits = dict(split_word(dims, w, 2))
    assert splits[(w, ())] == 0
    assert splits[((), w)] == 0


def _act_letter_reference(dims, factors, letter, idx):
    """E_letter on one basis tensor by the graded Leibniz rule on Scalars,
    written out apart from letter_column: E_ab v_c = delta_bc v_a and
    E_ab vb_c = -(-1)^{[a]+[a][b]} delta_ac vb_b in each slot, an odd letter
    picking up the parity of the slots before the one it acts on."""
    a, b = letter
    xpar = dims.letter_par(a, b)
    vb_coeff = MINUS_ONE if (dims.par(a) * (1 + dims.par(b))) % 2 == 0 \
        else ONE
    out = {}
    prefix = 0
    for j, kind in enumerate(factors):
        coeff = MINUS_ONE if xpar and prefix else ONE
        if kind == "v":
            if idx[j] == b:
                add_term(out, idx[:j] + (a,) + idx[j + 1:], coeff)
        elif idx[j] == a:
            add_term(out, idx[:j] + (b,) + idx[j + 1:], coeff * vb_coeff)
        prefix ^= dims.par(idx[j])
    return out


def test_letter_column_matches_scalar_reference():
    # every letter on every basis tensor of every v/vb shape up to 3 slots
    for dims in ALL_DIMS:
        letters = [(a, b) for a in dims.indices() for b in dims.indices()]
        for k in (1, 2, 3):
            for factors in itertools.product(("v", "vb"), repeat=k):
                for idx in _all_comps(dims, k):
                    vec = TVec.basis(dims, factors, idx)
                    for letter in letters:
                        col = letter_column(dims, factors, letter, idx)
                        want = _act_letter_reference(dims, factors, letter,
                                                     idx)
                        assert all(type(c) is int and c for _, c in col)
                        assert len(dict(col)) == len(col)
                        assert dict(col) == want, (dims, factors, letter, idx)
                        assert vec.act_letter(*letter).terms == want


def test_letter_column_sums_equal_outputs():
    # E_aa on v_a (x) v_a gives 2; on v_a (x) vb_a the two slots cancel
    for dims in ALL_DIMS:
        for a in dims.indices():
            assert letter_column(dims, ("v", "v"), (a, a), (a, a)) == \
                (((a, a), 2),)
            assert letter_column(dims, ("v", "vb"), (a, a), (a, a)) == ()
            assert letter_column(dims, ("vb", "vb"), (a, a), (a, a)) == \
                (((a, a), -2),)


@pytest.mark.parametrize("dims", ALL_DIMS + (Dims(3, 2), Dims(1, 0)),
                         ids=["11", "21", "12", "22", "32", "10"])
def test_single_block_rule_generates_gl(dims):
    # 3(m+n)-2 letters whose brackets span all (m+n)^2 letters
    letters = invariant_letters(dims, [(1, dims.size)])
    assert len(letters) == len(set(letters)) == 3 * dims.size - 2
    span = set(letters)
    grown = True
    while grown:
        new = {w for x in span for y in span for w in bracket(dims, x, y)}
        grown = not new <= span
        span |= new
    assert span == {(a, b) for a in dims.indices() for b in dims.indices()}


def test_invariant_letters_refuses_blocks_outside_the_indices():
    for blocks in ([(1, 3)], [(2, 1)], [(0, 1)], [(1, 2), (2, 3)]):
        with pytest.raises(ValueError, match="block"):
            invariant_letters(D11, blocks)
    assert invariant_letters(D11, [(1, 2)]) == [(1, 1), (2, 2), (1, 2), (2, 1)]
    assert invariant_letters(D11, [(1, 1), (2, 2)]) == [(1, 1), (2, 2)]


def reference_mul(u, v):
    """The product with every coefficient product multiplied through the
    normal form, unit or not."""
    out = {}
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            c = c1 * c2
            for w, cc in ugl._normalize_word(u.dims, w1 + w2).items():
                add_term(out, w, c * cc)
    return UEl(u.dims, out)


# pairs within the pool multiply to 1 (2 * 1/2, i * -i, -1 * -1) and to
# -1 (i * i, 1 * -1)
COEFFS = (ONE, MINUS_ONE, Scalar(2), Scalar.rational(1, 2), I, -I,
          Scalar.rational(-3, 4) + Scalar.rational(1, 3) * I)


def seeded_uel(dims, rng, max_terms=3, max_len=3):
    letters = [(a, b) for a in dims.indices() for b in dims.indices()]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
        terms[w] = rng.choice(COEFFS)
    return UEl(dims, terms)


@pytest.mark.parametrize("dims", ALL_DIMS, ids=["11", "21", "12", "22"])
def test_product_matches_the_multiply_through_reference(dims):
    rng = random.Random(22)
    products = {1: 0, -1: 0}
    for _ in range(60):
        u = seeded_uel(dims, rng)
        v = seeded_uel(dims, rng, max_len=2)
        for c1 in u.terms.values():
            for c2 in v.terms.values():
                for unit in products:
                    products[unit] += c1 * c2 == unit
        got = u * v
        assert got == reference_mul(u, v), (u, v)
        assert all(type(c) is Scalar and c for c in got.terms.values())
    assert products[1] and products[-1]
    # odd squares vanish whatever the unit coefficients
    odd = [(a, b) for a in dims.indices() for b in dims.indices()
           if dims.letter_par(a, b)]
    for a, b in odd:
        x = UEl.letter(dims, a, b)
        for c in (ONE, MINUS_ONE, I):
            y = x.scale(c)
            for lhs, rhs in ((x, x), (y, y.scale(ONE / c)), (y, x)):
                assert (lhs * rhs).is_zero()
                assert reference_mul(lhs, rhs).is_zero()


def test_word_checks_every_index_and_takes_list_letters():
    for dims in ALL_DIMS:
        s = dims.size
        for bad in (0, s + 1, -1):
            for letters in ([(bad, 1)], [(1, bad)], [(1, 1), (1, bad)]):
                with pytest.raises(ValueError,
                                   match=rf"index {bad} out of range 1\.\.{s}"):
                    UEl.word(dims, letters)
        u = UEl.word(dims, [[1, s], [s, 1]])
        assert u == UEl.word(dims, [(1, s), (s, 1)])
        assert all(type(x) is tuple for w in u.terms for x in w)


def test_letter_table_refuses_a_letter_outside_the_indices(monkeypatch):
    # a letter outside 1..m+n used to be memoised: one tensor raised only at
    # the column lookup, and the zero tensor gave zero
    monkeypatch.setattr(ugl, "_letter_tables", {})
    for vec in (TVec.basis(D11, ("v",), (1,)), TVec(D11, ("v",))):
        for a, b in ((9, 9), (1, 9), (0, 1)):
            bad = a if not 1 <= a <= 2 else b
            with pytest.raises(ValueError,
                               match=rf"index {bad} out of range 1\.\.2"):
                vec.act_letter(a, b)
    assert not ugl._letter_tables


def reference_invariant_letters(dims, blocks):
    """Every Cartan letter, then each block's Chevalley pairs, repeats
    kept."""
    letters = [(a, a) for a in dims.indices()]
    for lo, hi in blocks:
        for c in range(lo, hi):
            letters += [(c, c + 1), (c + 1, c)]
    return letters


def compositions(size):
    """Every partition of 1..size into consecutive blocks."""
    for cuts in itertools.product((False, True), repeat=size - 1):
        blocks, lo = [], 1
        for c, cut in enumerate(cuts, start=1):
            if cut:
                blocks.append((lo, c))
                lo = c + 1
        yield blocks + [(lo, size)]


def test_overlapping_blocks_give_each_letter_once():
    d22 = Dims(2, 2)
    letters = invariant_letters(d22, [(1, 3), (2, 4)])
    assert len(letters) == len(set(letters)) == 10
    ref = reference_invariant_letters(d22, [(1, 3), (2, 4)])
    assert len(ref) == 12
    assert letters == list(dict.fromkeys(ref))
    assert invariant_letters(d22, [(1, 4), (1, 2), (3, 4)]) == \
        invariant_letters(d22, [(1, 4)])


@pytest.mark.parametrize("dims", ALL_DIMS + (Dims(3, 2), Dims(1, 0)),
                         ids=["11", "21", "12", "22", "32", "10"])
def test_partitions_keep_their_letter_lists(dims):
    # a partition's blocks share no letter, so every LeviProfile keeps its
    # letter list, and is_invariant, which tests exactly these letters,
    # keeps its verdicts
    from superfn.spherical import LeviProfile

    for blocks in compositions(dims.size):
        prof = LeviProfile(dims, blocks)
        assert invariant_letters(dims, prof.blocks) == \
            reference_invariant_letters(dims, prof.blocks), blocks


def normal_forms(dims, seed):
    """Products, antipodes and normal-form words of random elements, all
    built through the normal-form memo as it is."""
    rng = random.Random(seed)
    out = []
    for _ in range(25):
        u, v = seeded_uel(dims, rng), seeded_uel(dims, rng, max_len=2)
        out += [u * v, u.antipode(), (u * v).antipode(),
                UEl.word(dims, [(b, a) for a, b in max(u.terms)] * 2)]
    return out


@pytest.mark.parametrize("dims", ALL_DIMS, ids=["11", "21", "12", "22"])
def test_normal_forms_do_not_depend_on_the_memo_cap(dims, monkeypatch):
    monkeypatch.setattr(ugl, "_normalize_cache", {})
    want = normal_forms(dims, 40)
    assert len(ugl._normalize_cache) > 3
    for cap in (1, 3):
        monkeypatch.setattr(ugl, "_NORMALIZE_CACHE_CAP", cap)
        monkeypatch.setattr(ugl, "_normalize_cache", {})
        assert normal_forms(dims, 40) == want, cap
        assert len(ugl._normalize_cache) <= cap


def test_normal_form_memo_stays_under_its_cap(monkeypatch):
    """Random 6-letter words at (2,2), each stored in a fresh process-wide
    memo that the cap must keep bounded: uncapped, these words leave over
    a thousand entries."""
    monkeypatch.setattr(ugl, "_NORMALIZE_CACHE_CAP", 256)
    monkeypatch.setattr(ugl, "_normalize_cache", {})
    dims = Dims(2, 2)
    letters = [(a, b) for a in dims.indices() for b in dims.indices()]
    rng = random.Random(8)
    sizes = []
    for _ in range(80):
        UEl.word(dims, [rng.choice(letters) for _ in range(6)])
        sizes.append(len(ugl._normalize_cache))
    assert max(sizes) <= 256
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # the cap fired


# ------------------------------------------- product kernel regressions


@pytest.mark.parametrize("dims", ALL_DIMS, ids=["11", "21", "12", "22"])
def test_product_edge_cases_match_the_reference(dims):
    # zero operands, a first term pair whose normal form is empty (an odd
    # square) followed by pairs that are not, and coefficients equal to 1
    # that are not the ONE object
    odd = next((a, b) for a in dims.indices() for b in dims.indices()
               if dims.letter_par(a, b))
    even = (1, 1)
    zero = UEl.zero(dims)
    x = UEl.letter(dims, *odd)
    cases = [(zero, x), (x, zero), (zero, zero), (UEl.one(dims), zero)]
    unit_like = Scalar(2) * Scalar.rational(1, 2)
    assert unit_like == 1 and unit_like is not ONE
    for c1, c2 in itertools.product(
            (ONE, unit_like, MINUS_ONE, Scalar.rational(2, 3), I,
             Scalar(1, -2)), repeat=2):
        u = UEl(dims, {(odd,): c1, (even,): c2})
        v = UEl(dims, {(odd,): c2, (even, odd): c1})
        cases += [(u, v), (v, u), (u, u)]
    for u, v in cases:
        got = u * v
        assert got == reference_mul(u, v), (u, v)
        assert all(type(c) is Scalar and c for c in got.terms.values())
    assert (x * x).is_zero()


def test_product_refuses_other_dims():
    with pytest.raises(ValueError, match="mismatched UEl operands"):
        UEl.letter(D11, 1, 1) * UEl.letter(D21, 1, 1)


def test_results_never_share_a_dict_with_the_normal_form_memo(monkeypatch):
    # products seed their result from the memo's normal form, words copy
    # it: editing the result must leave the memo as it was
    monkeypatch.setattr(ugl, "_normalize_cache", {})
    dims = D21
    x, y = UEl.letter(dims, 3, 1), UEl.letter(dims, 1, 3)
    word = UEl.word(dims, ((3, 1), (1, 3)))
    results = [word, x * y, UEl.one(dims) * word, word * UEl.one(dims),
               x.scale(Scalar(2)) * y]
    memo = {key: dict(normal) for key, normal in ugl._normalize_cache.items()}
    assert memo and all(r.terms for r in results)
    for r in results:
        for w in list(r.terms):
            r.terms[w] = Scalar(99)
        r.terms[((2, 2),)] = Scalar(7)
    assert ugl._normalize_cache == memo
    assert x * y == UEl.word(dims, ((3, 1), (1, 3)))


@pytest.mark.parametrize("dims", ALL_DIMS, ids=["11", "21", "12", "22"])
def test_word_parity_is_the_index_rule(dims):
    letters = [(a, b) for a in dims.indices() for b in dims.indices()]
    for k in range(3):
        for w in itertools.product(letters, repeat=k):
            want = sum(dims.par(a) ^ dims.par(b) for a, b in w) & 1
            assert word_parity(dims, w) == want
            u = UEl(dims, {w: ONE})
            assert u.parity() == want


@pytest.mark.parametrize("word", [((5, 1),), ((1, 1), (1, 3)), ((0, 2),),
                                  ((2, -1),)],
                         ids=["a-high", "b-high-second", "a-zero", "b-neg"])
def test_word_parity_refuses_an_out_of_range_index(word):
    # UEl(dims, terms) does not check its words, so parity does
    dims = Dims(1, 1)
    with pytest.raises(ValueError, match="out of range 1..2"):
        word_parity(dims, word)
    with pytest.raises(ValueError, match="out of range 1..2"):
        UEl(dims, {word: ONE}).parity()
