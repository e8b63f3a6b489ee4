"""Acceptance gate: nine exact desk-scale suites with wall-clock budgets.

Each test prints one PASS/FAIL line through conftest.record_criterion.
Criterion 4 carries a sub-check on the closed forms of the super-block
derivatives; it asserts the signs that the duality contract checked in
the same criterion forces, and decides each entry with the exact pairing
oracle.  That those signs satisfy the contract, and that the word set used
there rejects every wrong sign, is shown with the pairing alone in
test_actions.test_corrected_mixed_block_derivative_signs.
"""

import itertools
import random
import time

import pytest

from conftest import record_criterion

from superfn.actions import act, act_word
from superfn.cg import (
    CG,
    Verdict,
    antipode_convolution,
    is_zero_mod_j,
    pair,
    pair_word,
    relations,
    verify_hopf,
)
from superfn.grading import Dims
from superfn.grassmann import (
    GroupPoint,
    random_even_invertible,
    real_sample_points,
    verify_group,
)
from superfn.scalar import Scalar, ZERO, sign_pow
from superfn.spherical import (
    LeviProfile,
    c_block,
    laplacian_apply,
    r_func,
    theta,
    theta_eigenvalue,
    verify_invariance,
    verify_maxrank,
    verify_t51,
)
from superfn.tensorinv import verify_fft
from superfn.ugl import UEl, casimir

D11 = Dims(1, 1)
D21 = Dims(2, 1)
D22 = Dims(2, 2)


def all_gens(dims):
    out = []
    for a in dims.indices():
        for b in dims.indices():
            out.append(CG.t(dims, a, b))
            out.append(CG.tbar(dims, a, b))
    return out


def in_ideal(f, mode="generic"):
    return is_zero_mod_j(f, mode=mode, trials=3, seed=0).is_zero


def report(num, name, ok, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    record_criterion(
        f"criterion {num} ({name}): {verdict} "
        f"({elapsed:.1f}s, budget {budget:.0f}s)"
    )


def test_criterion_1_hopf_suite():
    t0 = time.perf_counter()
    reports = [verify_hopf(D11, mode="pairing"),
               verify_hopf(D21),
               verify_hopf(D22)]
    ok = all(r["passed"] for r in reports)
    elapsed = time.perf_counter() - t0
    report(1, "Hopf axioms", ok and elapsed < 30, elapsed, 30)
    assert ok, [c for r in reports for c in r["cases"] if not c["passed"]]
    assert elapsed < 30


def test_criterion_2_relations_suite():
    t0 = time.perf_counter()
    rng = random.Random(0)
    ok = True
    for dims in (D11, D21):
        rels = relations(dims)
        assert len(rels) == 2 * dims.size ** 2
        for _ in range(10):
            p = GroupPoint.from_matrix(dims, random_even_invertible(dims, rng))
            ok = ok and all(p.evaluate(rel).is_zero() for rel in rels)
        letters = [(a, b) for a in dims.indices() for b in dims.indices()]
        words = [()]
        for k in (1, 2, 3):
            words.extend(itertools.product(letters, repeat=k))
        for rel in rels:
            ok = ok and all(pair_word(rel, w) == ZERO for w in words)
    elapsed = time.perf_counter() - t0
    report(2, "defining relations", ok and elapsed < 60, elapsed, 60)
    assert ok
    assert elapsed < 60


# Exact pairing-mode proofs of what criteria 1 and 2 sample: the generic
# oracle's antipode defects and the relations paired with short words.
# They add to the gate; the criterion lines stay as they are.
PAIRING_DIMS = [D11, D21, Dims(1, 2)]
PROVED = Verdict("zero", "pairing", 0, None, "0")


def assert_proved_in_j(dims, elems):
    # each element is proved in J; the same element plus t[1,1] - 1, which
    # is not in J although its counit is 0, is refused, so the proofs
    # cannot pass by construction
    off = CG.t(dims, 1, 1) - CG.one(dims)
    for f in elems:
        assert not f.is_zero()
        assert is_zero_mod_j(f, mode="pairing") == PROVED, f
        assert not is_zero_mod_j(f + off, mode="pairing").is_zero, f


@pytest.mark.parametrize("dims", PAIRING_DIMS, ids=["11", "21", "12"])
def test_criterion_1_antipode_defects_proved_by_pairing(dims):
    assert_proved_in_j(dims, [
        antipode_convolution(g, side) - CG.from_scalar(dims, g.counit())
        for side in ("left", "right") for g in all_gens(dims)])


@pytest.mark.parametrize("dims", PAIRING_DIMS, ids=["11", "21", "12"])
def test_criterion_2_relations_proved_by_pairing(dims):
    assert_proved_in_j(dims, relations(dims))


def test_criterion_3_supergroup_suite():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(1)
    for dims in (D11, D21):
        assert 2 * dims.m * dims.n <= 4
        rep = verify_group(dims, count=20, seed=0)
        ok = ok and rep["passed"]
        # antipode precomposition on every generator, against the
        # matrix-inverse point
        for _ in range(3):
            p = GroupPoint.from_matrix(dims, random_even_invertible(dims, rng))
            q = p.inverse_point()
            for g in all_gens(dims):
                ok = ok and p.evaluate(g.antipode()) == q.evaluate(g)
        pts = real_sample_points(dims)
        ok = ok and len(pts) == 5
        for p in pts:
            ok = ok and p.is_real() and p.theta_dual() == p.inverse_point()
    elapsed = time.perf_counter() - t0
    report(3, "supergroup points", ok and elapsed < 60, elapsed, 60)
    assert ok
    assert elapsed < 60


def test_criterion_4_action_suite():
    t0 = time.perf_counter()
    failures = []

    # duality contract for both translation actions, exact
    for dims in (D11, D21):
        letters = [(a, b) for a in dims.indices() for b in dims.indices()]
        words = [()] + [(l,) for l in letters] + \
            list(itertools.product(letters, repeat=2))
        for xl in letters:
            x = UEl.letter(dims, *xl)
            xpar = dims.letter_par(*xl)
            for f in all_gens(dims):
                fpar = f.parity()
                dr = act("right", x, f)
                dl = act("left", x, f)
                sx = x.antipode()
                for w in words:
                    y = UEl.word(dims, w)
                    ypar = y.parity() or 0
                    if pair(dr, y) != pair(f, y * x) * sign_pow(
                            xpar * (fpar + ypar)):
                        failures.append(("right", dims, xl, w))
                    if pair(dl, y) != pair(f, sx * y) * sign_pow(xpar * fpar):
                        failures.append(("left", dims, xl, w))

    # the two actions supercommute on representatives
    for dims in (D11, D21):
        letters = [(a, b) for a in dims.indices() for b in dims.indices()]
        for xl in letters:
            for yl in letters:
                sgn = sign_pow(dims.letter_par(*xl) * dims.letter_par(*yl))
                for f in all_gens(dims):
                    lr = act_word(dims, "left", (xl,),
                                  act_word(dims, "right", (yl,), f.poly))
                    rl = act_word(dims, "right", (yl,),
                                  act_word(dims, "left", (xl,), f.poly))
                    if lr != rl.scale(sgn):
                        failures.append(("commute", dims, xl, yl))

    # the defining ideal is stable under every letter
    for dims in (D11, D21):
        letters = [(a, b) for a in dims.indices() for b in dims.indices()]
        for rel in relations(dims):
            for xl in letters:
                for side in ("left", "right"):
                    g = act(side, UEl.letter(dims, *xl), rel)
                    if not in_ideal(g):
                        failures.append(("ideal", dims, side, xl))

    sub_ok = not failures

    # closed forms of the super-block derivatives at (2,2), profile with
    # the middle block straddling the parity wall; the duality contract
    # forces dL_E[2,3] C(3)_ab = +(-1)^([a]+[b]) t[3,a]*tb[2,b] and
    # dL_E[3,2] C(3)_ab = +(-1)^[a] t[2,a]*tb[3,b], each decided exactly
    prof = LeviProfile.parse(D22, "1,1|1,1")
    sign_bad = []
    for a in D22.indices():
        for b in D22.indices():
            pa, pb = D22.par(a), D22.par(b)
            f = c_block(prof, 3, a, b)
            for name, xl, s in (("E[2,3]", (2, 3), sign_pow(pa + pb)),
                                ("E[3,2]", (3, 2), sign_pow(pa))):
                got = act("left", UEl.letter(D22, *xl), f)
                want = (CG.t(D22, xl[1], a) * CG.tbar(D22, xl[0], b)).scale(s)
                if not is_zero_mod_j(got - want, mode="pairing").is_zero:
                    sign_bad.append((name, a, b, s))

    ok = sub_ok and not sign_bad
    elapsed = time.perf_counter() - t0
    report(4, "translation actions", ok and elapsed < 120, elapsed, 120)
    assert sub_ok, failures[:5]
    assert elapsed < 120
    assert not sign_bad, (
        f"super-block derivative closed form fails at {len(sign_bad)}/32 "
        "entries; first at (letter, a, b) = "
        f"{sign_bad[0][:3]}, expected sign {sign_bad[0][3]} as forced by "
        "<dL_x f, y> = (-1)^([x][f]) <f, S(x) y>"
    )


def test_criterion_5_laplacian_suite():
    t0 = time.perf_counter()
    ok = True
    for mn in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2)):
        dims = Dims(*mn)
        rr = r_func(dims)
        for k in range(1, 5):
            lhs = laplacian_apply(rr ** k)
            rhs = (rr ** k).scale(Scalar(k * (dims.m - dims.n - k + 1))) \
                + (rr ** (k - 1)).scale(Scalar(k * k))
            ok = ok and in_ideal(lhs - rhs)
    from fractions import Fraction
    for mn in ((1, 1), (1, 2)):
        dims = Dims(*mn)
        rr = r_func(dims)
        for k in range(0, 4):
            f = rr ** k
            half_c = act("right", casimir(dims), f).scale(
                Scalar(Fraction(1, 2)))
            ok = ok and in_ideal(half_c - laplacian_apply(f))
    for mn in ((1, 2), (1, 3)):
        dims = Dims(*mn)
        for k in range(1, 4):
            f = theta(dims, k)
            defect = laplacian_apply(f) - f.scale(theta_eigenvalue(dims, k))
            ok = ok and in_ideal(defect)
    for a, b in ((1, 0), (0, 1), (2, 3)):
        f = CG.from_scalar(D11, a) + r_func(D11).scale(Scalar(b))
        ok = ok and in_ideal(laplacian_apply(f) - CG.from_scalar(D11, b),
                             "pairing")
    elapsed = time.perf_counter() - t0
    report(5, "radial Laplacian", ok and elapsed < 600, elapsed, 600)
    assert ok
    assert elapsed < 600


def test_criterion_6_nilpotency_suite():
    t0 = time.perf_counter()
    reports = [verify_t51(Dims(m, 1)) for m in (1, 2, 3)]
    reports.append(verify_t51(Dims(1, 2)))
    ok = all(r["passed"] for r in reports)
    elapsed = time.perf_counter() - t0
    report(6, "projective nilpotency", ok and elapsed < 300, elapsed, 300)
    assert ok, [c for r in reports for c in r["cases"] if not c["passed"]]
    assert elapsed < 300


def test_criterion_7_maximal_rank_suite():
    t0 = time.perf_counter()
    reports = [verify_maxrank(D22, k) for k in (1, 2)]
    ok = all(r["passed"] for r in reports)
    elapsed = time.perf_counter() - t0
    report(7, "corner-rank nilpotency orders", ok and elapsed < 300,
           elapsed, 300)
    assert ok, [c for r in reports for c in r["cases"] if not c["passed"]]
    assert elapsed < 300


def test_criterion_8_tensor_invariant_suite():
    t0 = time.perf_counter()
    rep1 = verify_fft(D11, 3)
    rep2 = verify_fft(D21, 2)
    ok = rep1["passed"] and rep2["passed"]
    elapsed = time.perf_counter() - t0
    report(8, "tensor invariants", ok and elapsed < 180, elapsed, 180)
    assert ok, [c for r in (rep1, rep2) for c in r["cases"]
                if not c["passed"]]
    assert elapsed < 180


def test_criterion_9_invariance_suite():
    t0 = time.perf_counter()
    profiles = [LeviProfile.parse(D22, "2|1,1"),
                LeviProfile.parse(D22, "1,1|1,1")]
    rep = verify_invariance(D22, profiles)
    ok = rep["passed"]
    elapsed = time.perf_counter() - t0
    report(9, "block invariance", ok and elapsed < 180, elapsed, 180)
    assert ok, [c for c in rep["cases"] if not c["passed"]]
    assert elapsed < 180
