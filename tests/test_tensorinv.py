import itertools
from collections import defaultdict
from math import factorial

import pytest

from superfn import tensorinv
from superfn.cg import DimCapError
from superfn.grading import Dims
from superfn.linalg import SparseEchelon, add_term, kernel_dense
from superfn.scalar import ZERO, ONE
from superfn.tensorinv import (
    _echelon,
    contains_vector,
    invariant_subspace,
    rho,
    rho_operator,
    sergeev_invariant,
    sergeev_sign,
    span_rank,
    supercommutant_basis,
    verify_fft,
)
from superfn.ugl import TVec, letter_table

D11 = Dims(1, 1)
D21 = Dims(2, 1)
D12 = Dims(1, 2)
D22 = Dims(2, 2)


def all_letters(dims):
    return [(a, b) for a in dims.indices() for b in dims.indices()]


def reference_invariant_subspace(dims, k, l):
    """The joint kernel of all (m+n)^2 letters over every tensor of
    V^{(x)k} (x) V*^{(x)l}, columns in decreasing order."""
    factors = ("v",) * k + ("vb",) * l
    basis = list(itertools.product(dims.indices(), repeat=k + l))[::-1]
    pos = {idx: i for i, idx in enumerate(basis)}
    rows = []
    for letter in all_letters(dims):
        table = letter_table(dims, factors, letter)
        outputs = {}
        for idx in basis:
            for out_idx, c in table[idx]:
                outputs.setdefault(out_idx, {})[pos[idx]] = c
        rows.extend((row, {}) for row in outputs.values())
    return [TVec(dims, factors, {basis[i]: c for i, c in sol.items()})
            for sol in kernel_dense(rows, len(basis))]


def reference_supercommutant_basis(dims, d):
    """The graded centralizer solved over every entry (o, i) of End(V^d),
    one parity block at a time, from pi(E) phi = (-1)^{[E] p} phi pi(E)
    for all (m+n)^2 letters."""
    factors = ("v",) * d
    basis = list(itertools.product(dims.indices(), repeat=d))
    par = {idx: sum(dims.par(x) for x in idx) & 1 for idx in basis}
    letters = all_letters(dims)
    out = []
    for p in (0, 1):
        unknowns = [(o, i) for o in basis for i in basis
                    if (par[o] ^ par[i]) == p]
        upos = {u: j for j, u in enumerate(unknowns)}
        rows = []
        for letter in letters:
            q = dims.letter_par(*letter)
            table = letter_table(dims, factors, letter)
            constraints = defaultdict(dict)
            for (o, i) in unknowns:
                for o2, c in table[o]:
                    add_term(constraints[(o2, i)], upos[(o, i)], c)
            for i2 in basis:
                for i_mid, c in table[i2]:
                    w = c if (q and p) else -c
                    for o in basis:
                        if (par[o] ^ par[i_mid]) == p:
                            add_term(constraints[(o, i2)],
                                     upos[(o, i_mid)], w)
            rows.extend((row, {}) for row in constraints.values())
        for sol in kernel_dense(rows, len(unknowns)):
            out.append({unknowns[j]: c for j, c in sol.items()})
    return out


def test_swap_is_graded():
    # v_2 (x) v_2 is odd (x) odd at (1,1): swap gives a minus sign
    t = TVec.basis(D11, ("v", "v"), (2, 2))
    assert rho((1, 0), t) == t.scale(-ONE)
    t = TVec.basis(D11, ("v", "v"), (1, 2))
    assert rho((1, 0), t) == TVec.basis(D11, ("v", "v"), (2, 1))


def test_rho_is_a_representation():
    perms = list(itertools.permutations(range(3)))

    def compose(s, t):
        return tuple(s[t[i]] for i in range(len(t)))

    for s in perms:
        for t in perms:
            for idx in itertools.product(D11.indices(), repeat=3):
                vec = TVec.basis(D11, ("v",) * 3, idx)
                assert rho(compose(s, t), vec) == rho(s, rho(t, vec))


def test_sergeev_sign_examples():
    # swapping two odd positions flips the sign; even positions do not
    assert sergeev_sign((1, 0), (1, 1)) == 1
    assert sergeev_sign((1, 0), (0, 0)) == 0
    assert sergeev_sign((1, 0), (1, 0)) == 0
    assert sergeev_sign((2, 1, 0), (1, 1, 1)) == 1
    assert sergeev_sign((1, 2, 0), (1, 1, 1)) == 0


def test_sergeev_identity_element():
    # P_id = sum_a v_a (x) vbar_a, every coefficient +1
    p = sergeev_invariant(D11, (1,), 1)
    assert p.terms == {(1, 1): ONE, (2, 2): ONE}


def test_sergeev_elements_are_invariant():
    for dims, d in ((D11, 1), (D11, 2), (D21, 1), (D21, 2)):
        for sigma in itertools.permutations(range(1, d + 1)):
            p = sergeev_invariant(dims, sigma, d)
            for a in dims.indices():
                for b in dims.indices():
                    assert p.act_letter(a, b).is_zero(), (dims, sigma, a, b)


def test_invariant_subspace_diagonal_case():
    invs = invariant_subspace(D11, 1, 1)
    assert len(invs) == 1
    assert contains_vector(invs, sergeev_invariant(D11, (1,), 1))


def test_invariant_vectors_are_killed_by_every_letter():
    # invariant_subspace builds its constraints from the memoised letter
    # tables; TVec.act_letter applies letter_column without the memo
    for dims, dmax in ((D11, 3), (D21, 2), (Dims(1, 2), 2)):
        for d in range(1, dmax + 1):
            invs = invariant_subspace(dims, d, d)
            assert invs
            for v in invs:
                for a in dims.indices():
                    for b in dims.indices():
                        assert v.act_letter(a, b).is_zero(), (dims, d, a, b)


def test_sergeev_span_matches_invariant_dimension():
    for dims, d in ((D11, 2), (D21, 2)):
        invs = invariant_subspace(dims, d, d)
        serg = [sergeev_invariant(dims, s, d)
                for s in itertools.permutations(range(1, d + 1))]
        assert span_rank(serg) == len(invs)
        for s in serg:
            assert contains_vector(invs, s)


def test_invariant_basis_is_in_reduced_echelon_form():
    # each vector is ONE at its least key, which no other vector touches,
    # so an echelon takes the basis as it is, one row per vector
    for dims, dmax in ((D11, 4), (D21, 2), (Dims(1, 2), 2)):
        for d in range(1, dmax + 1):
            invs = invariant_subspace(dims, d, d)
            leads = [min(v.terms) for v in invs]
            assert len(set(leads)) == len(invs), (dims, d)
            for v, lead in zip(invs, leads):
                assert v.terms[lead] == ONE, (dims, d, lead)
                assert not any(o in v.terms for o in leads if o != lead)
            assert sorted(_echelon(invs).rows) == sorted(leads), (dims, d)


def test_span_queries_refuse_vectors_of_another_module():
    invs = invariant_subspace(D11, 1, 1)
    (v,) = invs
    with pytest.raises(ValueError):
        contains_vector(invs, TVec(D11, ("v", "v"), dict(v.terms)))
    with pytest.raises(ValueError):
        contains_vector(invs, TVec(Dims(2, 0), v.factors, dict(v.terms)))
    with pytest.raises(ValueError):
        span_rank([v, TVec(D11, ("v", "v"), dict(v.terms))])
    assert contains_vector(invs, TVec(D11, v.factors, dict(v.terms)))
    assert span_rank([v, v.scale(2)]) == 1


def test_mixed_powers_have_no_invariants():
    for k, l in ((1, 0), (0, 1), (2, 1), (1, 2), (2, 0), (3, 1)):
        assert invariant_subspace(D11, k, l) == []


@pytest.mark.parametrize("dims, k, l", [(D11, -1, 1), (D11, 1, -1),
                                        (D11, -1, -1), (Dims(3, 3), -1, 8)])
def test_invariant_subspace_rejects_negative_degrees(dims, k, l):
    # refused at the call, before the cap: (3,3) with k + l = 7 is over it
    with pytest.raises(ValueError, match="must be non-negative"):
        invariant_subspace(dims, k, l)


def test_rejects_permutation_errors():
    try:
        sergeev_invariant(D11, (1, 1), 2)
        assert False, "expected ValueError"
    except ValueError:
        pass
    # rho and rho_operator take a 0-based permutation of every slot: a
    # short sigma used to drop a factor, a repeated one gave the swap
    t = TVec.basis(D11, ("v", "v"), (1, 2))
    for sigma in ((0,), (0, 0), (1, 1), (0, 2), (0, 1, 2), ()):
        with pytest.raises(ValueError, match="not a permutation"):
            rho(sigma, t)
    with pytest.raises(ValueError, match="not a permutation"):
        rho_operator(D11, (0, 0), 2)


def _refuse_letter_tables(monkeypatch):
    def refuse(*args):
        raise AssertionError("a letter table was read before the cap check")
    monkeypatch.setattr(tensorinv, "letter_table", refuse)


def test_dimension_cap(monkeypatch):
    # the cap fires before any row is built, on the columns solved: the
    # weight-zero tensors under WEIGHT_ZERO_CAP for k == l, the whole basis
    # (m+n)^(k+l) under SUBSPACE_CAP otherwise
    _refuse_letter_tables(monkeypatch)
    for dims, k, l, columns, cap in ((D22, 4, 4, 2716, 2500),
                                     (D21, 5, 5, 4653, 2500),
                                     (Dims(6, 2), 4, 4, 66424, 2500),
                                     (Dims(6, 5), 1, 3, 14641, 10000)):
        with pytest.raises(DimCapError, match=f"^{columns} invariant-solve "
                                              f"columns exceed cap {cap}$"):
            invariant_subspace(dims, k, l)


@pytest.mark.parametrize("dims,k,l", [
    (Dims(3, 2), 3, 3), (Dims(3, 3), 3, 3), (Dims(4, 3), 3, 3),
    (Dims(4, 3), 1, 3), (Dims(7, 1), 1, 3), (Dims(5, 5), 1, 3),
], ids=["32-d3", "33-d3", "43-d3", "43-k1l3", "71-k1l3", "55-k1l3"])
def test_the_cap_admits_solves_within_its_measure(dims, k, l, monkeypatch):
    # a measure of (m+n)^(k+l) against 10000 would refuse the first three
    # (15625, 46656, 117649); the 545, 996 and 1645 weight-zero columns
    # they solve fit, and so do the 2401, 4096 and 10000 columns of the
    # mixed solves, as before
    _refuse_letter_tables(monkeypatch)
    with pytest.raises(AssertionError, match="letter table was read"):
        invariant_subspace(dims, k, l)


def test_solve_cap_counts_the_columns_handed_to_the_solver(monkeypatch):
    # the cap's measure agrees with the solve it guards, on every case that
    # fits; _solve_cap counts the weight-zero tensors by formula
    sizes = []
    _spy_solves(monkeypatch, lambda factors, letters, rows, ncols:
                sizes.append(ncols))
    for dims in (D11, D21, D22, Dims(3, 2)):
        for k in range(4):
            for l in range(4):
                columns, cap = tensorinv._solve_cap(dims, k, l)
                assert cap == (tensorinv.WEIGHT_ZERO_CAP if k == l
                               else tensorinv.SUBSPACE_CAP)
                if columns > cap:
                    continue
                invariant_subspace(dims, k, l)
                assert sizes.pop() == columns, (dims, k, l)


def test_sergeev_invariant_is_capped_by_its_own_terms():
    # (m+n)^d terms under SUBSPACE_CAP: 3125 at (3,2) d=5 fit, 16807 at
    # (4,3) d=5 do not
    assert len(sergeev_invariant(Dims(3, 2), (2, 3, 1, 5, 4), 5).terms) \
        == 3125
    with pytest.raises(DimCapError,
                       match="^16807 Sergeev element terms exceed cap 10000$"):
        sergeev_invariant(Dims(4, 3), (1, 2, 3, 4, 5), 5)


@pytest.mark.parametrize("dims,dmax,count,what,cap", [
    (Dims(1, 0), 8, 46233, "suite Sergeev terms", 10000),
    (Dims(1, 0), 9, 409113, "suite Sergeev terms", 10000),
    (D11, 6, 50362, "suite Sergeev terms", 10000),
    (D11, 7, 3432, "invariant-solve columns", 2500),
    (Dims(36, 0), 1, 2556, "invariant-solve columns", 2500),
], ids=["10-d8", "10-d9", "11-d6", "11-d7", "36-0-d1"])
def test_verify_fft_prices_its_whole_run_before_any_work(
        dims, dmax, count, what, cap, monkeypatch):
    # every degree's weight-zero columns under their cap, then the sum over
    # d <= dmax of d! (m+n)^d Sergeev terms under SUBSPACE_CAP, checked
    # before the first solve: 1! + ... + 8! = 46233 at m+n = 1, and
    # 3432 = C(14, 7) columns at (1,1) d=7; the commutant's d = 2 is priced
    # too, 2 * 36^2 - 36 = 2556 columns at m+n = 36
    def refuse(*args):
        raise AssertionError("the suite worked before its price was checked")

    monkeypatch.setattr(tensorinv, "invariant_subspace", refuse)
    monkeypatch.setattr(tensorinv, "sergeev_invariant", refuse)
    with pytest.raises(DimCapError, match=f"^{count} {what} exceed cap {cap}$"):
        verify_fft(dims, dmax)


@pytest.mark.parametrize("dims,dmax", [(Dims(1, 0), 7), (D11, 5)],
                         ids=["10-d7", "11-d5"])
def test_verify_fft_runs_the_largest_priced_case(dims, dmax):
    # 5913 and 4282 Sergeev terms, the largest dmax under the cap
    rep = verify_fft(dims, dmax)
    assert rep["passed"], rep
    assert f"d={dmax}: Sergeev elements are invariant" in \
        [c["name"] for c in rep["cases"]]


def test_supercommutant_equals_group_algebra_image():
    for dims in (D11, D21):
        d = 2
        comm = supercommutant_basis(dims, d)
        ech = SparseEchelon()
        for sigma in itertools.permutations(range(d)):
            ech.insert(rho_operator(dims, sigma, d))
        rho_rank = ech.rank
        for op in comm:
            ech.insert(dict(op))
        assert len(comm) == rho_rank == ech.rank


def test_commutant_operators_supercommute_with_letters():
    comm = supercommutant_basis(D11, 2)
    basis = list(itertools.product(D11.indices(), repeat=2))
    par = {idx: (D11.par(idx[0]) + D11.par(idx[1])) & 1 for idx in basis}
    for op in comm:
        pars = {(par[o] ^ par[i]) for o, i in op}
        assert len(pars) == 1
        p = pars.pop()
        for a in D11.indices():
            for b in D11.indices():
                q = D11.letter_par(a, b)
                for i in basis:
                    # (pi(E) phi)(e_i)
                    lhs: dict = {}
                    for (o, i2), c in op.items():
                        if i2 != i:
                            continue
                        moved = TVec.basis(D11, ("v", "v"), o).act_letter(a, b)
                        for o2, c2 in moved.terms.items():
                            lhs[o2] = lhs.get(o2, ZERO) + c * c2
                    # (-1)^{qp} (phi pi(E))(e_i)
                    rhs: dict = {}
                    moved = TVec.basis(D11, ("v", "v"), i).act_letter(a, b)
                    for i_mid, c2 in moved.terms.items():
                        for (o, i3), c in op.items():
                            if i3 != i_mid:
                                continue
                            w = c * c2
                            if q and p:
                                w = -w
                            rhs[o] = rhs.get(o, ZERO) + w
                    lhs = {k: v for k, v in lhs.items() if v}
                    rhs = {k: v for k, v in rhs.items() if v}
                    assert lhs == rhs


def test_verify_fft_reports():
    rep = verify_fft(D11, 2)
    assert rep["passed"], rep
    rep = verify_fft(D21, 2)
    assert rep["passed"], rep
    names = [c["name"] for c in rep["cases"]]
    assert any("mixed" in n for n in names)


def test_verify_fft_refuses_to_pass_without_a_sergeev_case():
    # dmax < 1 would drop every Sergeev case
    for dmax in (-2, 0):
        with pytest.raises(ValueError, match="dmax must be at least 1"):
            verify_fft(D11, dmax)


def test_verify_fft_catches_a_non_invariant_sergeev_element(monkeypatch):
    import superfn.tensorinv as tensorinv

    real = tensorinv.sergeev_invariant

    def spoiled(dims, sigma, d):
        # v_1^(x)d (x) vbar_2^(x)d has nonzero weight, so it is not invariant
        stray = TVec.basis(dims, ("v",) * d + ("vb",) * d, (1,) * d + (2,) * d)
        return real(dims, sigma, d) + stray

    monkeypatch.setattr(tensorinv, "sergeev_invariant", spoiled)
    rep = verify_fft(D11, 2)
    verdicts = {c["name"]: c["passed"] for c in rep["cases"]}
    assert verdicts["d=1: Sergeev elements are invariant"] is False
    assert verdicts["d=2: Sergeev elements are invariant"] is False
    assert not rep["passed"]


@pytest.mark.parametrize("dims,dmax", [(D11, 4), (D21, 3), (D12, 3),
                                       (D22, 2)],
                         ids=["11", "21", "12", "22"])
def test_weight_zero_invariants_equal_the_full_solve(dims, dmax):
    for d in range(1, dmax + 1):
        assert invariant_subspace(dims, d, d) == \
            reference_invariant_subspace(dims, d, d), (dims, d)
    for k, l in ((1, 0), (0, 1), (2, 1), (1, 2)):
        assert invariant_subspace(dims, k, l) == \
            reference_invariant_subspace(dims, k, l) == [], (dims, k, l)


@pytest.mark.parametrize("dims,d", [(D11, 1), (D11, 2), (D21, 1), (D21, 2),
                                    (D21, 3), (D12, 1), (D12, 2), (D22, 1),
                                    (D22, 2)],
                         ids=["11-1", "11-2", "21-1", "21-2", "21-3", "12-1",
                              "12-2", "22-1", "22-2"])
def test_weight_preserving_commutant_equals_the_full_solve(dims, d):
    # the same space and dimension; the bases differ in column order
    got = supercommutant_basis(dims, d)
    want = reference_supercommutant_basis(dims, d)
    assert len(got) == len(want)
    echelons = []
    for ops in (got, want):
        ech = SparseEchelon()
        for op in ops:
            ech.insert(op)
        echelons.append(ech.reduced())
    assert echelons[0] == echelons[1]


def _spy_solves(monkeypatch, solved):
    """Route tensorinv's letter tables and kernel solves through spies:
    each kernel_dense call reports solved(factors, letters, rows, ncols)
    with the one factors tuple and the set of letters whose tables the
    solve read."""
    real_letter_table = tensorinv.letter_table
    real_kernel_dense = tensorinv.kernel_dense
    letters = {}

    def letter_table(dims, factors, letter):
        letters.setdefault(factors, set()).add(letter)
        return real_letter_table(dims, factors, letter)

    def kernel_dense(rows, ncols):
        rows = list(rows)
        (factors, used), = letters.items()
        letters.clear()
        solved(factors, used, rows, ncols)
        return real_kernel_dense(rows, ncols)

    monkeypatch.setattr(tensorinv, "letter_table", letter_table)
    monkeypatch.setattr(tensorinv, "kernel_dense", kernel_dense)


@pytest.mark.parametrize("dims", [D11, D21, D22], ids=["11", "21", "22"])
def test_every_mixed_case_solves_a_nonempty_system(dims, monkeypatch):
    # no tensor of V^k (x) V*^l, k != l, has weight zero, so a mixed case
    # run over the weight-zero tensors would pass by construction; each
    # mixed solve is recorded as (k, l) -> (basis size, nonempty rows)
    solves = {}

    def solved(factors, letters, rows, ncols):
        k, l = factors.count("v"), factors.count("vb")
        if k != l:
            solves[k, l] = (ncols, sum(1 for re, im in rows if re or im))

    _spy_solves(monkeypatch, solved)
    rep = verify_fft(dims, 1)
    assert rep["passed"], rep
    want = {(k, l) for k in range(tensorinv.MIXED_TOTAL + 1)
            for l in range(tensorinv.MIXED_TOTAL + 1 - k)
            if k != l and dims.size ** (k + l) <= tensorinv.SUBSPACE_CAP}
    assert set(solves) == want
    names = [c["name"] for c in rep["cases"]]
    for k, l in want:
        assert f"mixed ({k},{l}) invariants vanish" in names
        size, nonempty_rows = solves[k, l]
        assert size == dims.size ** (k + l) and nonempty_rows, (k, l)


@pytest.mark.parametrize("dims,totals", [(Dims(7, 1), 4), (Dims(13, 1), 3)],
                         ids=["71", "131"])
def test_verify_fft_runs_the_mixed_cases_within_the_full_basis_cap(
        dims, totals, monkeypatch):
    # a mixed case runs while (m+n)^(k+l) <= 10000: every k+l <= 4 at m+n=8
    # (8^4 = 4096), and k+l <= 3 at m+n=14 (14^3 = 2744, 14^4 = 38416);
    # the mixed solves are recorded, not run
    real = tensorinv.invariant_subspace
    mixed = []

    def spy(dims, k, l):
        if k == l:
            return real(dims, k, l)
        mixed.append((k, l))
        return []

    monkeypatch.setattr(tensorinv, "invariant_subspace", spy)
    rep = verify_fft(dims, 1)
    assert rep["passed"], rep
    want = [(k, l) for k in range(5) for l in range(5 - k)
            if k != l and k + l <= totals]
    assert mixed == want
    names = [c["name"] for c in rep["cases"] if c["name"].startswith("mixed")]
    assert names == [f"mixed ({k},{l}) invariants vanish" for k, l in want]


@pytest.mark.parametrize("dims,dmax", [(D11, 4), (D21, 3), (D22, 2)],
                         ids=["11", "21", "22"])
def test_weight_zero_solves_skip_the_cartan_letters(dims, dmax, monkeypatch):
    # every weight-zero solve reads no Cartan letter, every mixed one reads
    # them all; test_weight_zero_invariants_equal_the_full_solve compares
    # the weight-zero bases with the solve by all (m+n)^2 letters
    cartan = {(a, a) for a in dims.indices()}
    calls = []

    def solved(factors, letters, rows, ncols):
        if factors.count("v") == factors.count("vb"):
            assert not cartan & letters, factors
        else:
            assert cartan <= letters, factors
        calls.append((factors.count("v"), factors.count("vb")))

    _spy_solves(monkeypatch, solved)
    for d in range(1, dmax + 1):
        invariant_subspace(dims, d, d)
    for k, l in ((1, 0), (2, 1)):
        assert invariant_subspace(dims, k, l) == []
    for d in range(1, min(dmax, 2) + 1):
        supercommutant_basis(dims, d)
    assert calls == [(d, d) for d in range(1, dmax + 1)] + \
        [(1, 0), (2, 1)] + [(d, d) for d in range(1, min(dmax, 2) + 1)]


@pytest.mark.parametrize("dims,dmax", [(D11, 6), (D21, 4)], ids=["11", "21"])
def test_weight_zero_columns_are_the_filtered_tensors(dims, dmax, monkeypatch):
    # the directly enumerated columns count the tensors whose v-indices
    # are a permutation of their vb-indices, as a filter over all of them
    sizes = []
    _spy_solves(monkeypatch, lambda factors, letters, rows, ncols:
                sizes.append(ncols))
    for d in range(1, dmax + 1):
        invariant_subspace(dims, d, d)
        want = sum(1 for idx in itertools.product(dims.indices(),
                                                  repeat=2 * d)
                   if sorted(idx[:d]) == sorted(idx[d:]))
        assert sizes.pop() == want, (dims, d)


def hook_dimension(dims, d):
    """sum (f^lambda)^2 over the partitions lambda of d in the (m, n) hook
    (lambda_{m+1} <= n), f^lambda by the hook length formula: the
    dimension of the invariants in V^{(x)d} (x) V*^{(x)d}."""
    def partitions(rest, top):
        if not rest:
            yield ()
        for part in range(min(rest, top), 0, -1):
            for tail in partitions(rest - part, part):
                yield (part,) + tail

    total = 0
    for lam in partitions(d, d):
        if len(lam) > dims.m and lam[dims.m] > dims.n:
            continue
        conj = [sum(1 for part in lam if part > j) for j in range(lam[0])]
        hooks = 1
        for i, part in enumerate(lam):
            for j in range(part):
                hooks *= part - j + conj[j] - i - 1
        total += (factorial(d) // hooks) ** 2
    return total


@pytest.mark.parametrize("dims,d,dim",
                         [(D11, 5, 70), (D22, 3, 6), (Dims(3, 2), 3, 6)],
                         ids=["11-d5", "22-d3", "32-d3"])
def test_invariant_dimension_is_the_hook_formula(dims, d, dim):
    invs = invariant_subspace(dims, d, d)
    assert len(invs) == hook_dimension(dims, d) == dim
    serg = [sergeev_invariant(dims, s, d)
            for s in itertools.permutations(range(1, d + 1))]
    ech = _echelon(invs)
    assert all(ech.contains(s.terms) for s in serg)
    assert span_rank(serg) == dim
