from fractions import Fraction

import pytest

from superfn import cg, ugl
from superfn.cg import CG, DimCapError, is_zero_mod_j
from superfn.grading import Dims
from superfn.scalar import Scalar, sign_pow
from superfn.spherical import (
    LeviProfile,
    c_block,
    c_pair,
    corner_invariant,
    corner_trace,
    laplacian_apply,
    q_func,
    r_func,
    sphere_defect,
    theta,
    theta_eigenvalue,
    theta_exists,
    verify_invariance,
    verify_maxrank,
    verify_t51,
    z,
    zbar,
)
from superfn.ugl import casimir
from superfn.actions import act
from superfn.cli import main

D11 = Dims(1, 1)
D12 = Dims(1, 2)
D22 = Dims(2, 2)


def in_ideal(f, mode="generic"):
    return is_zero_mod_j(f, mode=mode, trials=3, seed=1).is_zero


def test_profile_parsing():
    prof = LeviProfile.parse(D22, "2|1,1")
    assert prof.blocks == [(1, 3), (4, 4)]
    assert prof.refined() == [(1, 2), (3, 3), (4, 4)]
    assert prof.super_pair() == (1, 2)
    assert prof.pure_refined_indices() == [3]
    assert prof.refined_sizes() == [2, 1, 1]
    assert [prof.block_parity(i) for i in (1, 2, 3)] == [0, 1, 1]

    prof = LeviProfile.parse(D22, "1,1|1,1")
    assert prof.blocks == [(1, 1), (2, 3), (4, 4)]
    assert prof.refined() == [(1, 1), (2, 2), (3, 3), (4, 4)]
    assert prof.super_pair() == (2, 3)
    assert prof.pure_refined_indices() == [1, 4]

    prof = LeviProfile.projective(D12)
    assert prof.blocks == [(1, 2), (3, 3)]
    assert prof.super_pair() == (1, 2)


def test_refined_block_index_is_checked(capsys):
    # "1,1|1,1" at (2,2) has four refined blocks; 0 and -1 must not wrap
    # round to blocks 4 and 3 as negative list indices do
    prof = LeviProfile.parse(D22, "1,1|1,1")
    for i in (0, -1, 5):
        want = f"block index {i} out of range for profile {prof.blocks}"
        for call in (lambda: c_block(prof, i, 1, 1),
                     lambda: c_pair(prof, i, 1), lambda: c_pair(prof, 1, i),
                     lambda: prof.block_parity(i),
                     lambda: prof.refined_block(i)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == want
    assert prof.refined_block(4) == (4, 4)
    # the CLI reads the block index before the row indices
    for expr in ("C[5;1,1]", "C[5;9,9]", "CP[5,9]"):
        assert main(["--m", "2", "--n", "2", "--profile", "1,1|1,1", "eval",
                     expr]) == 2
        assert capsys.readouterr().err == (
            f"error: block index 5 out of range for profile {prof.blocks}\n")


def test_profile_parse_errors():
    for text in ("2,1|1,1", "4", "1|1,2", "3,1"):
        try:
            LeviProfile.parse(D22, text)
            assert False, text
        except ValueError:
            pass


def test_block_sum_rebuilds_identity_up_to_parity_signs():
    # sum_i (-1)^{[b][l_i]} C^{(i)}_ab = (-1)^{[a][b]} delta_ab mod J
    for dims, text, mode in ((D11, "1,1", "pairing"),
                             (D22, "2|1,1", "generic"),
                             (D22, "1,1|1,1", "generic")):
        prof = LeviProfile.parse(dims, text)
        nref = len(prof.refined())
        for a in dims.indices():
            for b in dims.indices():
                acc = CG.zero(dims)
                for i in range(1, nref + 1):
                    acc = acc + c_block(prof, i, a, b).scale(
                        sign_pow(dims.par(b) * prof.block_parity(i)))
                want = CG.from_scalar(
                    dims, sign_pow(dims.par(a) * dims.par(b))) \
                    if a == b else CG.zero(dims)
                assert in_ideal(acc - want, mode), (text, a, b)


def test_unsigned_block_sum_fails_on_odd_diagonal():
    # dropping the parity signs breaks the resolution of the identity
    prof = LeviProfile.parse(D11, "1,1")
    acc = CG.zero(D11)
    for i in (1, 2):
        acc = acc + c_block(prof, i, 2, 2)
    assert not in_ideal(acc - CG.one(D11), "pairing")
    # the signed sum resolves to -1 on the odd diagonal entry
    acc = CG.zero(D11)
    for i in (1, 2):
        acc = acc + c_block(prof, i, 2, 2).scale(
            sign_pow(prof.block_parity(i)))
    assert in_ideal(acc + CG.one(D11), "pairing")


def test_signed_traces_report_block_sizes():
    # sum_a (-1)^{([a]+1)[l_i]} C^{(i)}_aa = k_i mod J and the c_pair forms
    for dims, text, mode in ((D11, "1,1", "pairing"),
                             (D22, "2|1,1", "generic"),
                             (D22, "1,1|1,1", "generic")):
        prof = LeviProfile.parse(dims, text)
        nref = len(prof.refined())
        sizes = prof.refined_sizes()
        for i in range(1, nref + 1):
            acc = CG.zero(dims)
            for a in dims.indices():
                acc = acc + c_block(prof, i, a, a).scale(
                    sign_pow((dims.par(a) + 1) * prof.block_parity(i)))
            assert in_ideal(acc - CG.from_scalar(dims, sizes[i - 1]), mode)
        for j in range(1, nref + 1):
            acc = CG.zero(dims)
            for i in range(1, nref + 1):
                acc = acc + c_pair(prof, i, j).scale(sign_pow(
                    (prof.block_parity(i) + 1) * prof.block_parity(j)))
            assert in_ideal(acc - CG.from_scalar(dims, sizes[j - 1]), mode)
        for i in range(1, nref + 1):
            acc = CG.zero(dims)
            for j in range(1, nref + 1):
                acc = acc + c_pair(prof, i, j).scale(sign_pow(
                    (prof.block_parity(j) + 1) * prof.block_parity(i)))
            assert in_ideal(acc - CG.from_scalar(dims, sizes[i - 1]), mode)


def test_sphere_identity():
    for dims in (D11, D12):
        assert in_ideal(sphere_defect(dims), "pairing")
        assert not in_ideal(z(dims, 1), "pairing")


def test_q_reduces_to_rank_one_form():
    # Q_ab = delta_ab + (-1)^{[b]} zbar_a z_b mod J
    for a in D12.indices():
        for b in D12.indices():
            cand = (zbar(D12, a) * z(D12, b)).scale(sign_pow(D12.par(b)))
            if a == b:
                cand = cand + CG.one(D12)
            assert in_ideal(q_func(D12, a, b) - cand), (a, b)


def test_theta_existence_window():
    # exists iff k <= floor(L/2) or k > L with L = m - n + 1
    assert theta_exists(D12, 1) and theta_exists(D12, 2)
    assert theta_exists(D11, 0)
    assert not theta_exists(D11, 1)
    assert theta_exists(D11, 2)
    d31 = Dims(3, 1)
    assert theta_exists(d31, 1)
    assert not theta_exists(d31, 2)
    assert not theta_exists(d31, 3)
    assert theta_exists(d31, 4)


def test_theta_raises_outside_window():
    try:
        theta(D11, 1)
        assert False, "expected ValueError"
    except ValueError as e:
        assert "no degree-1 eigenfunction" in str(e)


def test_theta_closed_forms():
    assert theta(D12, 1).pretty() == "-1 + t[3,3]*tb[3,3]"
    d13 = Dims(1, 3)
    assert theta(d13, 2).pretty() == \
        "1/6 - t[4,4]*tb[4,4] + t[4,4]^2*tb[4,4]^2"


def test_theta_eigen_relation():
    for dims, ks, lams in ((D12, (1, 2, 3), (-1, -4, -9)),
                           (Dims(1, 3), (1, 2, 3), (-2, -6, -12))):
        for k, lam in zip(ks, lams):
            f = theta(dims, k)
            assert theta_eigenvalue(dims, k) == Scalar(lam)
            defect = laplacian_apply(f) - f.scale(Scalar(lam))
            assert in_ideal(defect), (dims, k)


def test_laplacian_power_formula():
    # dR(Delta) r^k = k(m-n-k+1) r^k + k^2 r^{k-1} mod J
    for dims in (D11, D12):
        rr = r_func(dims)
        for k in range(1, 4):
            lhs = laplacian_apply(rr ** k)
            rhs = (rr ** k).scale(
                Scalar(k * (dims.m - dims.n - k + 1))) + \
                (rr ** (k - 1)).scale(Scalar(k * k))
            assert in_ideal(lhs - rhs), (dims, k)


def test_casimir_halves_to_laplacian_on_radial_functions():
    for dims in (D11, D12):
        rr = r_func(dims)
        for k in range(0, 3):
            f = rr ** k
            via_c = act("right", casimir(dims), f).scale(Scalar(Fraction(1, 2)))
            assert in_ideal(via_c - laplacian_apply(f)), (dims, k)


def test_degenerate_projective_line():
    # at m - n + 1 = 1 the radial direction degenerates: dR(Delta)(a+br) = b
    for a, b in ((1, 0), (0, 1), (2, 3)):
        f = CG.from_scalar(D11, a) + r_func(D11).scale(Scalar(b))
        defect = laplacian_apply(f) - CG.from_scalar(D11, b)
        assert in_ideal(defect, "pairing")


def test_corner_invariants_nilpotency_shape():
    # odd corner rows make even-diagonal entries square-nilpotent
    c = corner_invariant(D11, "n", 1, 1, 1)
    assert (c * c).is_zero()
    assert not in_ideal(c)
    c = corner_invariant(D11, "n", 1, 2, 2)
    assert not (c * c).is_zero()
    tr = corner_trace(D11, "n", 1)
    assert not in_ideal(tr * tr)


def test_verify_t51_small():
    rep = verify_t51(D11)
    assert rep["passed"], rep
    names = [c["name"] for c in rep["cases"]]
    assert "(1-r)^2 vanishes" in names
    assert "(1-r)^1 survives" in names


def test_verify_maxrank_small():
    rep = verify_maxrank(D11, 1)
    assert rep["passed"], rep


@pytest.mark.parametrize("dims", [Dims(0, 1), Dims(2, 0)])
def test_verify_maxrank_rejects_dims_without_corner_rows(dims):
    with pytest.raises(ValueError, match="needs m >= 1 and n >= 1"):
        verify_maxrank(dims, 1)


def test_verify_invariance_small():
    rep = verify_invariance(D11)
    assert rep["passed"], rep
    rep = verify_invariance(
        D22, [LeviProfile.parse(D22, "2|1,1")], trials=2)
    assert rep["passed"], rep


@pytest.mark.parametrize("dims", [D11, D22], ids=["11", "22"])
def test_invariance_cases_report_their_deciding_verdict(dims):
    """The letter actions vanish on the representatives, so the invariant
    cases are exact zeros; each control is decided by a nonzero witness."""
    cases = verify_invariance(dims)["cases"]
    for case in cases:
        control = "control" in case["name"]
        assert case["passed"], case
        assert (case["verdict"], case["mode"], case["failure_bound"]) == (
            ("nonzero", "generic", "0") if control else ("zero", "exact", "0"))
    assert sum("control" in c["name"] for c in cases) == 2


def test_verify_invariance_without_profiles_is_not_a_vacuous_pass():
    with pytest.raises(ValueError, match="no cases"):
        verify_invariance(D11, profiles=[])


@pytest.fixture
def no_oracle_work(monkeypatch):
    """Empty pairing memos, and every piece of pairing work raises."""
    def fail(*args, **kwargs):
        raise AssertionError("pairing oracle started before the cap check")

    monkeypatch.setattr(ugl, "_letter_tables", {})
    monkeypatch.setattr(cg, "_word_images", {})
    monkeypatch.setattr(ugl, "letter_column", fail)
    monkeypatch.setattr(cg, "SparseEchelon", fail)


def test_t51_pairing_hits_the_workspace_cap_before_oracle_work(
        no_oracle_work):
    # r^4 at (1,1) needs a pairing workspace of 65536 > PAIRING_FLAT_CAP, so
    # `verify --suite t51 --mode pairing` exits 3 at every dims
    with pytest.raises(DimCapError, match="65536 exceeds cap 5000"):
        is_zero_mod_j(r_func(D11) ** 4, mode="pairing")
    assert not ugl._letter_tables and not cg._word_images


def test_degree_four_ideal_element_hits_the_cap_before_oracle_work(
        no_oracle_work):
    # a degree-4 ideal element at (2,1) with even lead factors, as in the
    # benchmark's pairing-mode cap queries: its degree-4 terms share one
    # shape (v, v, v, vb) and the unit of the relation leaves (v, v), so
    # the flat workspace is (3^4)^2 + (3^2)^2 = 6642
    dims = Dims(2, 1)
    rel = cg.relations(dims)[0]  # row relation at a = b = 1
    f = (CG.t(dims, 1, 1) * CG.t(dims, 2, 2) * rel).scale(3)
    assert f.degree() == 4
    with pytest.raises(DimCapError,
                       match="pairing oracle workspace 6642 exceeds cap 5000"):
        is_zero_mod_j(f, mode="pairing")
    assert not ugl._letter_tables and not cg._word_images
