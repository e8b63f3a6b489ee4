import itertools
import json
import operator
import random
from fractions import Fraction

import pytest

import reversal_reference
from coproduct_reference import pair_via_coproduct
from superfn import cg, grassmann, ugl
from superfn.cg import (
    CG,
    Verdict,
    _oracle_case,
    _report,
    antipode_convolution,
    delta,
    is_zero_mod_j,
    omega_star_delta,
    pair,
    pair_word,
    pairing_certificate,
    relations,
    verify_hopf,
)
from superfn.grading import Dims, antipode_image, omega_image
from superfn.linalg import SparseEchelon
from superfn.grassmann import (
    GroupPoint,
    random_even_invertible,
    random_gauss_point,
)
from superfn.scalar import Scalar, ZERO, ONE, sign_pow
from superfn.superpoly import symbol
from superfn.ugl import UEl

D11 = Dims(1, 1)
D21 = Dims(2, 1)
D12 = Dims(1, 2)


def all_gens(dims):
    out = []
    for a in dims.indices():
        for b in dims.indices():
            out.append(CG.t(dims, a, b))
            out.append(CG.tbar(dims, a, b))
    return out


def rand_cg(dims, rng, max_terms=3, max_len=3):
    gens = all_gens(dims)
    out = CG.zero(dims)
    for _ in range(rng.randint(0, max_terms)):
        term = CG.from_scalar(dims, Scalar(rng.randint(-4, 4),
                                           rng.randint(-2, 2)))
        for _ in range(rng.randint(0, max_len)):
            term = term * rng.choice(gens)
        out = out + term
    return out


def rand_word(dims, rng, max_len=3):
    letters = [(a, b) for a in dims.indices() for b in dims.indices()]
    return tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))


def test_pairing_on_generators():
    # <t_ab, E_cd> = delta_ac delta_bd
    for dims in (D11, D21):
        for a, b, c, d in itertools.product(dims.indices(), repeat=4):
            got = pair(CG.t(dims, a, b), UEl.letter(dims, c, d))
            assert got == (ONE if (a, b) == (c, d) else ZERO)
            # <tbar_ab, E_cd> = -(-1)^{[a][b]+[b]} delta_bc delta_ad
            got = pair(CG.tbar(dims, a, b), UEl.letter(dims, c, d))
            if (b, a) == (c, d):
                want = -sign_pow(dims.par(a) * dims.par(b) + dims.par(b))
            else:
                want = ZERO
            assert got == want


def test_pairing_of_unit_and_counit():
    for dims in (D11, D21):
        assert pair(CG.one(dims), UEl.one(dims)) == ONE
        assert pair(CG.one(dims), UEl.letter(dims, 1, 1)) == ZERO
        g = CG.t(dims, 1, 1)
        assert pair(g, UEl.one(dims)) == g.counit()


def test_single_generator_pairs_against_long_words():
    # a matrix element sees every degree through the representation
    assert pair(CG.t(D11, 1, 1),
                UEl.word(D11, [(1, 1), (1, 1)])) == ONE
    # E_11 acts on the dual line by -1, so the square acts by +1
    assert pair(CG.tbar(D11, 1, 1),
                UEl.word(D11, [(1, 1), (1, 1)])) == ONE
    assert pair(CG.tbar(D11, 1, 1),
                UEl.word(D11, [(1, 1)])) == -ONE


def test_pair_agrees_with_coproduct_recursion():
    rng = random.Random(7)
    for dims in (D11, D21):
        for _ in range(60):
            f = rand_cg(dims, rng)
            u = UEl.word(dims, rand_word(dims, rng))
            assert pair(f, u) == pair_via_coproduct(f, u)


def test_pairing_respects_products_in_u():
    # <f, uv> = sum <f1, u> <f2, v> with the Koszul sign, via delta
    rng = random.Random(8)
    for dims in (D11, D21):
        for _ in range(40):
            f = rand_cg(dims, rng, max_terms=2, max_len=2)
            u = UEl.word(dims, rand_word(dims, rng, max_len=2))
            v = UEl.word(dims, rand_word(dims, rng, max_len=2))
            acc = ZERO
            for (m1, m2), c in delta(f).terms.items():
                f1 = CG(dims, {m1: c})
                f2 = CG(dims, {m2: ONE})
                p1 = f1.parity()
                sgn = ONE
                u_par = u.parity()
                if f2.parity() and u_par:
                    sgn = -ONE
                acc = acc + pair(f1, u) * pair(f2, v) * sgn
            assert acc == pair(f, u * v)


def test_antipode_duality():
    rng = random.Random(9)
    for dims in (D11, D21):
        for _ in range(60):
            f = rand_cg(dims, rng)
            u = UEl.word(dims, rand_word(dims, rng))
            assert pair(f.antipode(), u) == pair(f, u.antipode())


def test_antipode_generator_images():
    for dims in (D11, D21):
        for a in dims.indices():
            for b in dims.indices():
                pa, pb = dims.par(a), dims.par(b)
                assert CG.t(dims, a, b).antipode() == \
                    CG.tbar(dims, b, a).scale(sign_pow(pa * pb + pa))
                assert CG.tbar(dims, a, b).antipode() == \
                    CG.t(dims, b, a).scale(sign_pow(pa * pb + pb))


def test_antipode_graded_anti_automorphism():
    rng = random.Random(10)
    gens = all_gens(D21)
    for _ in range(50):
        f = rng.choice(gens)
        g = rng.choice(gens)
        lhs = (f * g).antipode()
        rhs = (g.antipode() * f.antipode()).scale(
            sign_pow(f.parity() * g.parity()))
        assert lhs == rhs


def test_omega_involution_and_coproduct():
    rng = random.Random(11)
    for dims in (D11, D21):
        for g in all_gens(dims):
            assert g.omega().omega() == g
        for _ in range(20):
            f = rand_cg(dims, rng)
            assert f.omega().omega() == f


def test_omega_generator_images():
    # omega(t_ab) = (-1)^{[b]([a]+[b])} tbar_ab and symmetrically
    for dims in (D11, D21):
        for a in dims.indices():
            for b in dims.indices():
                s = sign_pow(dims.par(b) * (dims.par(a) + dims.par(b)))
                assert CG.t(dims, a, b).omega() == \
                    CG.tbar(dims, a, b).scale(s)
                assert CG.tbar(dims, a, b).omega() == \
                    CG.t(dims, a, b).scale(s)


REVERSAL_DIMS = [D11, D21, D12, Dims(2, 2), Dims(3, 2)]


def rand_term(dims, rng, evens, odds, power):
    """c times up to ``evens`` distinct even generators, each to a power
    1..``power``, times up to ``odds`` distinct odd ones, in random order;
    c is a nonzero Gaussian rational."""
    gens = all_gens(dims)
    even = [g for g in gens if g.parity() == 0]
    odd = [g for g in gens if g.parity() == 1]
    factors = [g ** rng.randint(1, power)
               for g in rng.sample(even, rng.randint(0, evens))]
    factors += rng.sample(odd, rng.randint(0, min(odds, len(odd))))
    rng.shuffle(factors)
    term = CG.from_scalar(dims, Scalar(
        Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)),
        rng.randint(-2, 2)))
    for g in factors:
        term = term * g
    return term


def rand_sum(dims, rng, evens, odds, power):
    out = CG.zero(dims)
    for _ in range(rng.randint(1, 3)):
        out = out + rand_term(dims, rng, evens, odds, power)
    return out


def assert_features(fs, odd_factors):
    """The sample has a complex coefficient, an exponent of at least 2 and
    a monomial with at least ``odd_factors`` odd factors."""
    terms = [(m, c) for f in fs for m, c in f.terms.items()]
    assert any(c.im for _, c in terms)
    assert any(e >= 2 for m, _ in terms for _, e in m)
    assert any(sum(s[3] for s, _ in m) >= odd_factors for m, _ in terms)


@pytest.mark.parametrize("dims", REVERSAL_DIMS,
                         ids=lambda d: f"{d.m}{d.n}")
def test_antipode_and_omega_match_the_poly_product_reference(dims):
    rng = random.Random(2900 + 10 * dims.m + dims.n)
    fs = [rand_sum(dims, rng, 2, 3, 3) for _ in range(40)]
    assert_features(fs, 3)
    for f in fs:
        assert f.antipode() == reversal_reference.antipode(f)
        assert f.omega() == reversal_reference.omega(f)


@pytest.mark.parametrize("dims", REVERSAL_DIMS,
                         ids=lambda d: f"{d.m}{d.n}")
def test_convolutions_match_the_poly_product_reference(dims):
    rng = random.Random(2910 + 10 * dims.m + dims.n)
    fs = [rand_sum(dims, rng, 1, 2, 2) for _ in range(12)]
    assert_features(fs, 2)
    for f in fs:
        for side in ("left", "right"):
            assert antipode_convolution(f, side) == \
                reversal_reference.antipode_convolution(f, side)
        assert omega_star_delta(f) == reversal_reference.omega_star_delta(f)


def rand_homogeneous(dims, rng):
    """A sum of two random terms of one parity."""
    f = rand_term(dims, rng, 2, 2, 2)
    while True:
        g = rand_term(dims, rng, 2, 2, 2)
        if g.parity() == f.parity():
            return f + g


@pytest.mark.parametrize("dims", REVERSAL_DIMS,
                         ids=lambda d: f"{d.m}{d.n}")
def test_antipode_and_omega_reverse_products(dims):
    """S(fg) = (-1)^{[f][g]} S(g) S(f) and omega(fg) = omega(g) omega(f)
    on homogeneous f and g."""
    rng = random.Random(2920 + 10 * dims.m + dims.n)
    nonzero = 0
    for _ in range(40):
        f, g = rand_homogeneous(dims, rng), rand_homogeneous(dims, rng)
        fg = f * g
        nonzero += not fg.is_zero()
        assert fg.antipode() == (g.antipode() * f.antipode()).scale(
            sign_pow(f.parity() * g.parity()))
        assert fg.omega() == g.omega() * f.omega()
    assert nonzero >= 20


@pytest.mark.parametrize("dims", REVERSAL_DIMS,
                         ids=lambda d: f"{d.m}{d.n}")
def test_omega_is_a_conjugate_linear_involution(dims):
    rng = random.Random(2930 + 10 * dims.m + dims.n)
    c = Scalar(2, -3)
    for _ in range(20):
        f = rand_sum(dims, rng, 2, 3, 3)
        assert f.omega().omega() == f
        assert f.scale(c).omega() == f.omega().scale(c.conj())


def test_s_and_omega_refuse_a_symbol_other_than_t_or_tb():
    with pytest.raises(ValueError, match="antipode undefined for tag 'x'"):
        antipode_image(D11, "x", 1, 2)
    with pytest.raises(ValueError, match="omega undefined for tag 'x'"):
        omega_image(D11, "x", 1, 2)
    f = CG(D11, {((symbol("x", 1, 2, 1), 1),): ONE})
    for op in (CG.antipode, CG.omega):
        with pytest.raises(ValueError, match="undefined for tag 'x'"):
            op(f)


def test_coassociativity_random():
    rng = random.Random(12)
    for dims in (D11, D21):
        for _ in range(25):
            f = rand_cg(dims, rng, max_terms=2, max_len=2)
            two = delta(f)
            assert two.expand(0) == two.expand(1)


def test_counit_axiom_random():
    rng = random.Random(13)
    for dims in (D11, D21):
        for _ in range(25):
            f = rand_cg(dims, rng, max_terms=2, max_len=2)
            left = CG.zero(dims)
            right = CG.zero(dims)
            for (m1, m2), c in delta(f).terms.items():
                left = left + CG(dims, {m2: c}).scale(
                    CG(dims, {m1: ONE}).counit())
                right = right + CG(dims, {m1: c}).scale(
                    CG(dims, {m2: ONE}).counit())
            assert left == f and right == f


def test_relations_vanish_at_random_points():
    rng = random.Random(14)
    for dims in (D11, D21):
        rels = relations(dims)
        assert len(rels) == 2 * dims.size ** 2
        for _ in range(5):
            mat = random_even_invertible(dims, rng)
            point = GroupPoint.from_matrix(dims, mat)
            for rel in rels:
                assert point.evaluate(rel).is_zero()


def test_relations_pair_to_zero_small():
    letters = [(a, b) for a in D11.indices() for b in D11.indices()]
    words = [()]
    for k in (1, 2):
        words.extend(itertools.product(letters, repeat=k))
    for rel in relations(D11):
        for w in words:
            assert pair_word(rel, w) == ZERO


def test_antipode_convolution_lands_in_ideal():
    for dims in (D11, D21):
        for g in all_gens(dims):
            for side in ("left", "right"):
                defect = antipode_convolution(g, side) - CG.from_scalar(
                    dims, g.counit())
                v = is_zero_mod_j(defect, mode="generic", trials=3, seed=0)
                assert v.is_zero


def test_operands_of_other_dims_are_refused():
    """t[1,1] has the same representative at (1|1) and (2|1); only the
    dims tell the two apart, and they must not combine."""
    f, g = CG.t(D11, 1, 1), CG.t(D21, 1, 1)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError):
            op(f, g)
    assert not f == g
    assert f == CG.t(D11, 1, 1)


def test_from_symbol_builds_a_generator_of_its_dims():
    sym = symbol("t", 1, 2, 1)
    f = CG.from_symbol(D11, sym)
    assert isinstance(f, CG) and f.dims == D11
    assert f == CG.t(D11, 1, 2)
    assert CG.from_symbol(D21, symbol("tb", 3, 3, 0)) == CG.tbar(D21, 3, 3)
    for bad in (symbol("t", 1, 2, 0), symbol("x", 1, 1, 0),
                symbol("t", 3, 1, 1), symbol("tb", 0, 1, 1), ("t", 1, 1)):
        with pytest.raises(ValueError, match="not a generator"):
            CG.from_symbol(D11, bad)


def test_antipode_convolution_refuses_a_bad_side_on_zero():
    with pytest.raises(ValueError, match="bad side 'middle'"):
        antipode_convolution(CG.zero(D11), "middle")


def test_is_zero_mod_j_verdicts():
    v = is_zero_mod_j(CG.zero(D11))
    assert v.is_zero and v.mode == "exact"
    v = is_zero_mod_j(CG.t(D11, 1, 1), seed=3)
    assert not v.is_zero
    v = is_zero_mod_j(relations(D11)[0], trials=2, seed=5)
    assert v.is_zero and v.mode == "generic" and v.trials == 2
    # deterministic serialization
    a = json.dumps(v.to_dict(), sort_keys=True)
    b = json.dumps(
        is_zero_mod_j(relations(D11)[0], trials=2, seed=5).to_dict(),
        sort_keys=True)
    assert a == b


def test_unknown_oracle_mode_raises_even_on_zero():
    for f in (CG.zero(D11), CG.t(D11, 1, 1)):
        with pytest.raises(ValueError, match="unknown oracle mode 'bogus'"):
            is_zero_mod_j(f, mode="bogus")


def test_generic_oracle_rejects_fewer_than_one_trial(monkeypatch):
    def no_points(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(cg, "_oracle_points", no_points)
    for trials in (0, -2):
        for f in (CG.zero(D11), relations(D11)[0], CG.t(D11, 1, 1)):
            with pytest.raises(ValueError, match="trials must be at least 1"):
                is_zero_mod_j(f, trials=trials)
    # pairing mode ignores trials
    v = is_zero_mod_j(relations(D11)[0], mode="pairing", trials=0)
    assert v.is_zero and v.mode == "pairing"


def test_pairing_certificate_is_sharp():
    rels = relations(D11)
    for rel in rels:
        assert pairing_certificate(rel)
    assert pairing_certificate(CG.t(D11, 2, 1) * rels[0])
    assert not pairing_certificate(CG.t(D11, 1, 1))
    assert not pairing_certificate(CG.t(D11, 1, 1) - CG.one(D11))


def test_modes_agree_on_random_corpus():
    rng = random.Random(15)
    rels = relations(D11)
    for _ in range(15):
        f = rand_cg(D11, rng, max_terms=2, max_len=2)
        if rng.random() < 0.5:
            f = f * rng.choice(rels)
        generic = is_zero_mod_j(f, mode="generic", trials=3, seed=1)
        certified = is_zero_mod_j(f, mode="pairing")
        assert generic.is_zero == certified.is_zero


def random_ideal_element(dims, rng):
    """sum_i c_i * g_i * rel_i, g_i a product of 0 or 1 generators: in J by
    construction, mixing monomial degrees, with a constant term whenever a
    diagonal relation comes with no lead factor."""
    gens = all_gens(dims)
    rels = relations(dims)
    f = CG.zero(dims)
    for _ in range(rng.randint(1, 3)):
        term = CG.from_scalar(dims, Scalar(rng.choice((1, 2, 3, -1, -2)),
                                           rng.choice((0, 0, 1))))
        for _ in range(rng.randint(0, 1)):
            term = term * rng.choice(gens)
        f = f + term * rng.choice(rels)
    return f


@pytest.mark.parametrize("dims", [D11, D21, D12], ids=["11", "21", "12"])
def test_cyclic_certificate_agrees_with_generic_oracle(dims, monkeypatch):
    echelons = []

    class Recording(cg.SparseEchelon):
        def __init__(self):
            super().__init__()
            echelons.append(self)

    monkeypatch.setattr(cg, "SparseEchelon", Recording)
    rng = random.Random(100 + 10 * dims.m + dims.n)
    const_terms = degrees = 0
    for _ in range(8):
        base = random_ideal_element(dims, rng)
        const = CG.from_scalar(dims, rng.choice((1, 2, -3)))
        gen = rng.choice(all_gens(dims)).scale(rng.choice((1, -2)))
        for f in (base, base + const, base + gen):
            if f.is_zero():
                continue
            const_terms += () in f.poly.terms
            degrees += len({len(m) for m in f.poly.terms}) > 1
            echelons.clear()
            certified = is_zero_mod_j(f, mode="pairing")
            generic = is_zero_mod_j(f, mode="generic", trials=3, seed=4)
            assert certified.is_zero == generic.is_zero, f
            (ech,) = echelons
            data = {cg._monomial_pair_data(dims, m) for m in f.poly.terms}
            bound = sum(dims.size ** len(kinds)
                        for kinds, cols in {(d[0], d[2]) for d in data})
            assert 1 <= ech.rank <= bound
            words = list(ech.payloads.values())
            assert words[0] == ()
            # every kept word but the last pairs to zero; the last one is
            # the witness of a nonzero verdict
            assert all(not pair_word(f, w) for w in words[:-1])
            assert bool(pair_word(f, words[-1])) == (not certified.is_zero)
    assert const_terms and degrees


def reference_certificate(f):
    """The pairing certificate saturating by all (m+n)^2 letters, frontier
    popped last-in-first-out: (verdict is zero, rank of the kept vectors)."""
    dims = f.dims
    data = cg._pair_data(f)
    gens = sorted({(kinds, cols) for kinds, _, cols, _ in data})
    index = {g: i for i, g in enumerate(gens)}
    _, ((phi_re, phi_im),) = cg.cleared(
        ({(index[kinds, cols], rows): c for kinds, rows, cols, c in data},))

    def pairs_nonzero(vec):
        return any(sum(w * vec.get(key, 0) for key, w in part.items())
                   for part in (phi_re, phi_im))

    start = {(g, cols): 1 for g, (_, cols) in enumerate(gens)}
    ech = SparseEchelon()
    ech._insert_cleared((dict(start), {}))
    if pairs_nonzero(start):
        return False, ech.rank
    letters = [(a, b) for a in dims.indices() for b in dims.indices()]
    frontier = [start]
    while frontier:
        vec = frontier.pop()
        for letter in letters:
            new = {}
            for (g, idx), x in vec.items():
                table = ugl.letter_table(dims, gens[g][0], letter)
                for o, c in table[idx]:
                    new[g, o] = new.get((g, o), 0) + c * x
            new = {key: x for key, x in new.items() if x}
            if new and ech._insert_cleared((dict(new), {})) is not None:
                if pairs_nonzero(new):
                    return False, ech.rank
                frontier.append(new)
    return True, ech.rank


@pytest.mark.parametrize("dims", [D11, D21, D12, Dims(2, 2)],
                         ids=["11", "21", "12", "22"])
def test_breadth_first_certificate_matches_the_all_letter_reference(
        dims, monkeypatch):
    echelons = []

    class Recording(cg.SparseEchelon):
        def __init__(self):
            super().__init__()
            echelons.append(self)

    monkeypatch.setattr(cg, "SparseEchelon", Recording)
    rng = random.Random(2026 + 10 * dims.m + dims.n)
    rule = set(ugl.invariant_letters(dims, [(1, dims.size)]))
    verdicts = set()
    for _ in range(6):
        base = random_ideal_element(dims, rng)
        const = CG.from_scalar(dims, rng.choice((1, 2, -3)))
        gen = rng.choice(all_gens(dims)).scale(rng.choice((1, -2)))
        for f in (base, base + const, base + gen):
            if f.is_zero():
                continue
            echelons.clear()
            zero = pairing_certificate(f)
            want_zero, want_rank = reference_certificate(f)
            assert zero == want_zero, f
            verdicts.add(zero)
            (ech,) = echelons
            if zero:
                assert ech.rank == want_rank, f
            # kept words come from the rule, shortest first; every one but
            # the last pairs to zero, and the last is a nonzero verdict's
            # witness
            words = list(ech.payloads.values())
            assert words[0] == ()
            assert all(set(w) <= rule for w in words)
            assert [len(w) for w in words] == sorted(len(w) for w in words)
            assert all(not pair_word(f, w) for w in words[:-1])
            assert bool(pair_word(f, words[-1])) == (not zero)
    assert verdicts == {True, False}


def memo_cases():
    """(dims, f, word) over every generator and every product of two, with
    all words of length <= 3 at (1,1) and a seeded sample at (2,1)."""
    rng = random.Random(21)
    for dims in (D11, D21):
        letters = [(a, b) for a in dims.indices() for b in dims.indices()]
        words = [w for k in range(4)
                 for w in itertools.product(letters, repeat=k)]
        if dims == D21:
            words = sorted(rng.sample(words, 12), key=len)
        gens = all_gens(dims)
        fs = gens + [g * h for g in gens for h in gens]
        for w in words:
            for f in fs:
                yield dims, f, w


@pytest.fixture
def cold_pairing_memos(monkeypatch):
    monkeypatch.setattr(ugl, "_letter_tables", {})
    monkeypatch.setattr(cg, "_word_images", {})


def test_word_image_memo_matches_coproduct_reference(cold_pairing_memos):
    cases = list(memo_cases())
    want = [pair_via_coproduct(f, UEl.word(dims, w)) for dims, f, w in cases]
    for _ in ("cold", "warm"):
        assert [pair_word(f, w) for _, f, w in cases] == want
    assert cg._word_images


def test_word_image_memo_stays_under_its_cap(cold_pairing_memos,
                                             monkeypatch):
    cases = list(memo_cases())[::7]
    want = [pair_word(f, w) for _, f, w in cases]
    monkeypatch.setattr(cg, "_word_images", {})
    monkeypatch.setattr(cg, "_WORD_IMAGES_CAP", 5)
    for (_, f, w), value in zip(cases, want):
        assert pair_word(f, w) == value
        assert len(cg._word_images) <= 5


def pair_cases(rng):
    """Seeded (f, u) pairs: f with rational and complex coefficients, u a
    sum of up to three words of length <= 2; then one monomial at two
    dims."""
    cases = []
    for dims in (D11, D21, D12, Dims(2, 2)):
        for _ in range(12):
            f = rand_cg(dims, rng, max_terms=3, max_len=2)
            f = f.scale(Scalar.rational(rng.choice((1, -3)), rng.choice((1, 2))))
            u = UEl.zero(dims)
            for _ in range(rng.randint(1, 3)):
                c = Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
                u = u + UEl.word(dims, rand_word(dims, rng, 2)).scale(c)
            cases.append((f, u))
    # one monomial whose Koszul sign differs between (2,1) and (1,2): the
    # row 2 before the odd t[3,1] is even at (2,1) and odd at (1,2)
    for dims in (D21, D12):
        cases.append((CG.t(dims, 2, 2) * CG.t(dims, 3, 1),
                      UEl.word(dims, [(2, 2), (3, 1)])))
    return cases


def test_pair_matches_coproduct_reference_with_the_pair_data_memo(
        cold_pairing_memos, monkeypatch):
    monkeypatch.setattr(cg, "_pair_data_memo", {})
    cases = pair_cases(random.Random(22))
    want = [pair_via_coproduct(f, u) for f, u in cases]
    assert any(want) and not all(want)
    for _ in ("cold", "warm"):
        assert [pair(f, u) for f, u in cases] == want
    assert cg._pair_data_memo
    monkeypatch.setattr(cg, "_pair_data_memo", {})
    monkeypatch.setattr(cg, "_PAIR_DATA_CAP", 3)
    for (f, u), value in zip(cases, want):
        assert pair(f, u) == value
        assert len(cg._pair_data_memo) <= 3


def test_letter_tables_fill_only_the_columns_images_reach(
        cold_pairing_memos):
    # a six-slot monomial at (2,2) lives in a module of dimension 4^6; its
    # letter tables are filled only at e_cols and at the basis tensors one
    # letter moves it to (at most 16 letters times 6 slots)
    dims = Dims(2, 2)
    f = (CG.t(dims, 1, 1) * CG.t(dims, 2, 2) * CG.t(dims, 3, 3)
         * CG.tbar(dims, 4, 4) * CG.t(dims, 1, 2) * CG.tbar(dims, 3, 4))
    letters = [(a, b) for a in dims.indices() for b in dims.indices()]
    words = [w for k in range(3) for w in itertools.product(letters, repeat=k)]
    values = [pair_word(f, w) for w in words]
    assert values == [pair_via_coproduct(f, UEl.word(dims, w)) for w in words]
    assert any(values)
    assert ugl._letter_tables
    assert all(len(table) <= 1 + 16 * 6
               for table in ugl._letter_tables.values())


def test_verify_hopf_both_modes():
    rep = verify_hopf(D11, mode="pairing")
    assert rep["passed"], rep
    rep = verify_hopf(D11, mode="generic")
    assert rep["passed"], rep


@pytest.mark.parametrize("dims", [D21, D12, Dims(2, 2), Dims(3, 2)],
                         ids=["21", "12", "22", "32"])
def test_verify_hopf_pairing_passes(dims):
    rep = verify_hopf(dims, mode="pairing")
    assert rep["passed"], rep


@pytest.mark.parametrize("dims", [D11, D21, D12, Dims(2, 2), Dims(3, 2)],
                         ids=["11", "21", "12", "22", "32"])
def test_relations_are_zero_under_the_pairing_oracle(dims):
    # exact on both sides: every defining relation lies in J
    for rel in relations(dims):
        assert is_zero_mod_j(rel, mode="pairing").is_zero, rel


# ------------------------------------------------------------ oracle cases


def zero(bound):
    return Verdict("zero", "generic", 3, 0, bound)


NONZERO = Verdict("nonzero", "generic", 2, 0, "0")


@pytest.mark.parametrize("bounds", [("1/8", "1/2", "0"), ("1/2", "1/8"),
                                    ("0", "1/8", "1/2", "1/8")])
def test_oracle_case_reports_the_largest_zero_bound(bounds):
    for want_zero in (True, False):
        case = _oracle_case("c", [zero(b) for b in bounds], want_zero,
                            extra=1)
        assert case == {"name": "c", "passed": want_zero, "verdict": "zero",
                        "mode": "generic", "failure_bound": "1/2",
                        "extra": 1}


def test_oracle_case_reports_the_first_nonzero_verdict():
    exact = Verdict("nonzero", "pairing", 0, None, "0")
    for verdicts in ([zero("1/2"), NONZERO, exact], [NONZERO, zero("1/2")]):
        for want_zero in (True, False):
            case = _oracle_case("c", iter(verdicts), want_zero)
            assert case == {"name": "c", "passed": not want_zero,
                            "verdict": "nonzero", "mode": "generic",
                            "failure_bound": "0"}


def test_oracle_case_and_report_refuse_to_pass_vacuously():
    with pytest.raises(ValueError, match="no oracle verdict"):
        _oracle_case("c", [], True)
    with pytest.raises(ValueError, match="no cases"):
        _report("hopf", [])


@pytest.mark.parametrize("dims", [D11, D21], ids=["11", "21"])
def test_antipode_case_reports_the_largest_generator_bound(dims):
    rep = verify_hopf(dims)
    gens = [CG.t(dims, a, b) for a in dims.indices() for b in dims.indices()]
    gens += [CG.tbar(dims, a, b) for a in dims.indices()
             for b in dims.indices()]
    for side in ("left", "right"):
        bounds = []
        for g in gens:
            defect = antipode_convolution(g, side) - CG.from_scalar(
                dims, g.counit())
            v = is_zero_mod_j(defect)
            assert v.is_zero
            bounds.append(Fraction(v.failure_bound))
        (case,) = [c for c in rep["cases"]
                   if c["name"].startswith(f"antipode convolution axiom "
                                           f"({side})")]
        assert case["verdict"] == "zero" and case["passed"]
        assert Fraction(case["failure_bound"]) == max(bounds) > 0


# ------------------------------------------------ generic-oracle point memo


@pytest.fixture
def inversions(monkeypatch):
    """Start the test with an empty point memo; log the size of every body
    inverse (the oracle's Gauss-form points invert only their blocks)."""
    monkeypatch.setattr(cg, "_point_memo", {})
    inversions = []
    invert = grassmann._block_inverse

    def counting(rows):
        inversions.append(len(rows))
        return invert(rows)

    monkeypatch.setattr(grassmann, "_block_inverse", counting)
    return inversions


def reference_points(dims, seed, count):
    """The first ``count`` oracle points, drawn from a fresh RNG."""
    rng = random.Random(seed)
    return [random_gauss_point(dims, rng) for _ in range(count)]


def reference_verdict(f, trials, seed, points):
    """What the generic oracle must answer: points[k - 1] is trial k."""
    for trial, point in enumerate(points[:trials], 1):
        if not point.evaluate(f).is_zero():
            return {"verdict": "nonzero", "mode": "generic", "trials": trial,
                    "seed": seed, "failure_bound": "0"}
    # Schwartz-Zippel over the 2 * 2**20 + 1 body entries, given that A and
    # D are invertible (README "Zero testing")
    m_n = f.dims.m + f.dims.n
    bound = Fraction(max(f.degree(), 1) * (m_n + 1),
                     2 * 2 ** 20 + 1 - m_n) ** trials
    return {"verdict": "zero", "mode": "generic", "trials": trials,
            "seed": seed, "failure_bound": str(bound)}


def vanishing_at(dims, points):
    """(1 + a J element) * prod (t[k,k] - t[k,k](P)) over the given points,
    k = m + 1: zero at each of them, nonzero mod J.  An oracle point's
    t[k,k] image is the entry D[1,1] of its odd body block, with no soul."""
    k = dims.m + 1
    tkk = CG.t(dims, k, k)
    f = relations(dims)[-1] + CG.one(dims)
    for p in points:
        img = p.t_img[(k, k)]
        assert img.soul().is_zero()
        f = f * (tkk - CG.from_scalar(dims, img.body()))
    return f


def oracle_corpus(dims, points):
    """J elements, J elements plus a constant, and elements whose first
    nonzero trial is k for k = 1..len(points)."""
    rels = relations(dims)
    corpus = [rels[0], rels[-1] * CG.t(dims, 1, 1),
              rels[0] + CG.from_scalar(dims, 3)]
    corpus += [vanishing_at(dims, points[:k]) for k in range(len(points))]
    return corpus


@pytest.mark.parametrize("dims", [D11, D21, D12], ids=["11", "21", "12"])
def test_point_memo_matches_fresh_rng_reference(inversions, dims):
    nonzero_trials = set()
    for seed in (0, 7, 2 ** 31 - 1):
        points = reference_points(dims, seed, 5)
        corpus = oracle_corpus(dims, points)
        # extend the stream (2, 5), then reuse its prefixes (3, 1)
        for trials in (2, 5, 3, 1):
            for f in corpus:
                got = is_zero_mod_j(f, trials=trials, seed=seed).to_dict()
                assert got == reference_verdict(f, trials, seed, points)
                if got["verdict"] == "nonzero":
                    nonzero_trials.add(got["trials"])
    assert nonzero_trials == {1, 2, 3, 4, 5}
    assert sorted(cg._point_memo) == [
        (dims.m, dims.n, seed) for seed in (0, 7, 2 ** 31 - 1)]


def test_cold_oracle_inverts_each_body_once(inversions):
    rel = relations(D11)[0]
    assert is_zero_mod_j(rel, trials=3, seed=0).is_zero
    # one inversion per block (A, then D) per point
    assert inversions == [1, 1] * 3
    assert is_zero_mod_j(rel, trials=3, seed=0).is_zero
    assert inversions == [1, 1] * 3


def test_point_memo_keeps_at_most_eight_streams(inversions):
    rel = relations(D11)[0]
    for seed in range(100, 120):
        assert is_zero_mod_j(rel, trials=1, seed=seed).is_zero
    assert list(cg._point_memo) == [(1, 1, s) for s in range(112, 120)]
    assert len(inversions) == 2 * 20


def test_long_runs_keep_eight_points_and_match_reference(inversions):
    seed = 9
    points = reference_points(D11, seed, 20)
    # first nonzero at trial 13, past the kept points
    late = vanishing_at(D11, points[:12])
    inversions.clear()
    for f in (relations(D11)[0], late):
        for _ in range(2):
            got = is_zero_mod_j(f, trials=20, seed=seed).to_dict()
            assert got == reference_verdict(f, 20, seed, points)
    assert reference_verdict(late, 20, seed, points)["trials"] == 13
    # builds: 20 cold, then 12 + 5 + 5 past the 8 kept points, each
    # inverting its two blocks
    assert len(inversions) == 2 * (20 + 12 + 5 + 5)


def test_same_seed_at_other_dims_never_shares_a_stream(inversions):
    seed = 4
    for dims in (D11, D21, D12, D11):
        points = reference_points(dims, seed, 3)
        for f in oracle_corpus(dims, points):
            got = is_zero_mod_j(f, trials=3, seed=seed).to_dict()
            assert got == reference_verdict(f, 3, seed, points)
    assert sorted(cg._point_memo) == [(1, 1, 4), (1, 2, 4), (2, 1, 4)]


def assert_reference_verdicts(dims, seed, points, trials=(1, 3, 10)):
    """The oracle answers every corpus element as the reference points
    say, for runs inside and past the kept points."""
    for f in oracle_corpus(dims, points[:4]):
        for t in trials:
            got = is_zero_mod_j(f, trials=t, seed=seed).to_dict()
            assert got == reference_verdict(f, t, seed, points)


def test_interleaved_generators_share_one_stream(inversions):
    seed = 11
    points = reference_points(D21, seed, 12)
    inversions.clear()
    first, second = cg._oracle_points(D21, seed), cg._oracle_points(D21, seed)
    got_first = [next(first) for _ in range(2)]
    got_second = [next(second) for _ in range(5)]
    got_first += [next(first) for _ in range(8)]
    got_second += [next(second) for _ in range(7)]
    assert got_first == points[:10] and got_second == points
    # 8 kept points, then 2 + 4 built past them from copies of the RNG
    assert len(inversions) == 2 * (8 + 2 + 4)
    assert_reference_verdicts(D21, seed, points)


def test_abandoned_generators_leave_the_stream_intact(inversions):
    seed = 12
    points = reference_points(D11, seed, 12)
    early = cg._oracle_points(D11, seed)
    assert [next(early) for _ in range(3)] == points[:3]
    early.close()
    late = cg._oracle_points(D11, seed)
    assert [next(late) for _ in range(11)] == points[:11]
    del late  # abandoned while drawing from its copy
    assert_reference_verdicts(D11, seed, points)


def test_a_stream_evicted_under_a_suspended_generator(inversions):
    seed = 13
    points = reference_points(D12, seed, 12)
    held = cg._oracle_points(D12, seed)
    assert [next(held) for _ in range(2)] == points[:2]
    for other in range(100, 108):
        is_zero_mod_j(relations(D11)[0], trials=1, seed=other)
    assert (1, 2, seed) not in cg._point_memo
    # a fresh stream for the same key, then the held one resumes
    assert_reference_verdicts(D12, seed, points)
    assert [next(held) for _ in range(10)] == points[2:]
    assert_reference_verdicts(D12, seed, points)


def test_a_draw_that_raises_evicts_its_stream(inversions, monkeypatch):
    seed = 14
    points = reference_points(D11, seed, 10)
    draw = grassmann.random_gauss_point

    def interrupted(dims, rng):
        rng.random()  # part-way through a point
        raise KeyboardInterrupt

    assert is_zero_mod_j(relations(D11)[0], trials=2, seed=seed).is_zero
    monkeypatch.setattr(grassmann, "random_gauss_point", interrupted)
    with pytest.raises(KeyboardInterrupt):
        is_zero_mod_j(relations(D11)[0], trials=3, seed=seed)
    assert (1, 1, seed) not in cg._point_memo
    monkeypatch.setattr(grassmann, "random_gauss_point", draw)
    assert_reference_verdicts(D11, seed, points)


def test_a_warm_stream_builds_no_rng(inversions, monkeypatch):
    rel = relations(D11)[0]
    made = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    assert is_zero_mod_j(rel, trials=3, seed=15).is_zero
    monkeypatch.setattr(random, "Random", CountingRandom)
    assert is_zero_mod_j(rel, trials=3, seed=15).is_zero
    assert made == []
    # a cold stream builds its own; a run past the kept points, one copy
    assert is_zero_mod_j(rel, trials=3, seed=16).is_zero
    assert made == [(16,)]
    assert is_zero_mod_j(rel, trials=10, seed=16).is_zero
    assert made == [(16,), ()]


# ------------------------------------------------------------ failure bound


def derived_bound(dims, degree, trials, body_bound=2 ** 20):
    """Schwartz-Zippel for (det A det D)^D times a Grassmann coefficient,
    of degree D (m+n+1) in entries uniform on S = {-B..B}, given that A and
    D are invertible (probability at least 1 - (m+n)/|S|)."""
    m_n = dims.m + dims.n
    size = 2 * body_bound + 1
    return Fraction(max(degree, 1) * (m_n + 1), size - m_n) ** trials


@pytest.mark.parametrize("dims", [D11, D21, D12, Dims(2, 2)],
                         ids=["11", "21", "12", "22"])
def test_zero_verdict_bound_is_at_least_the_derived_bound(dims):
    rel = relations(dims)[0]
    for extra in (0, 1, 3):
        f = rel * CG.t(dims, 1, 1) ** extra if extra else rel
        for trials in (1, 3):
            v = is_zero_mod_j(f, trials=trials, seed=5)
            assert v.is_zero
            assert Fraction(v.failure_bound) >= derived_bound(
                dims, 2 + extra, trials)


@pytest.mark.parametrize("dims, want", [(D11, Fraction(3, 15)),
                                        (D21, Fraction(4, 14))],
                         ids=["11", "21"])
def test_miss_rate_stays_under_the_derived_bound(dims, want, monkeypatch):
    """With bodies drawn from {-8..8}, f = t[m+1,m+1] - 1 (degree 1, not in
    J) vanishes at a point exactly when D's first body entry is 1."""
    monkeypatch.setattr(grassmann, "_BODY_BOUND", 8)
    monkeypatch.setattr(cg, "_point_memo", {})
    k = dims.m + 1
    f = CG.t(dims, k, k) - CG.one(dims)
    seeds = range(2000)
    misses = 0
    for seed in seeds:
        v = is_zero_mod_j(f, trials=1, seed=seed)
        if v.is_zero:
            misses += 1
            assert Fraction(v.failure_bound) == want == derived_bound(
                dims, 1, 1, body_bound=8)
    assert 0 < Fraction(misses, len(seeds)) <= want
