import inspect
import itertools
import math
import random
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superfn import cg, grassmann
from superfn import scalar as scalar_module
from superfn.cg import CG, DimCapError, is_zero_mod_j, relations
from superfn.grading import Dims
from superfn.grassmann import (
    GEl,
    GroupPoint,
    SMat,
    eta,
    random_even_invertible,
    random_gauss_point,
    real_sample_points,
    verify_group,
)
from superfn.linalg import SparseEchelon, add_term, cleared
from superfn.scalar import Scalar, I, ONE, ZERO, sign_pow
from superfn.spherical import (
    laplacian_apply,
    r_func,
    theta,
    theta_eigenvalue,
)
from superfn.superpoly import Poly, symbol
from superfn.ugl import UEl

D11 = Dims(1, 1)
D21 = Dims(2, 1)
D22 = Dims(2, 2)
D31 = Dims(3, 1)
D12 = Dims(1, 2)


def th(n, *js):
    out = GEl.scalar(n, 1)
    for j in js:
        out = out * GEl.gen(n, j)
    return out


def test_generators_anticommute_and_square_to_zero():
    a, b = GEl.gen(4, 1), GEl.gen(4, 2)
    assert a * b == -(b * a)
    assert (a * a).is_zero()
    assert (th(4, 1, 2, 3) * th(4, 3)).is_zero()


def test_koszul_sign_on_blocks():
    # theta1*theta2 commutes with theta3*theta4 (even times even)
    assert th(4, 1, 2) * th(4, 3, 4) == th(4, 3, 4) * th(4, 1, 2)
    assert th(4, 1, 2) * th(4, 3, 4) == th(4, 1, 2, 3, 4)
    # crossing swaps pick up signs: theta2*theta1 = -theta1*theta2
    assert GEl.gen(2, 2) * GEl.gen(2, 1) == -th(2, 1, 2)


def test_body_soul_parity_degree():
    x = GEl.scalar(3, Scalar(2, 1)) + th(3, 1, 2).scale(5)
    assert x.body() == Scalar(2, 1)
    assert x.soul() == th(3, 1, 2).scale(5)
    assert x.parity() == 0
    assert x.degree() == 2
    assert (x + GEl.gen(3, 3)).parity() is None
    assert GEl(3).degree() == -1


def test_negative_power_raises():
    x = GEl.scalar(2, 2) + GEl.gen(2, 1)
    assert x ** 0 == GEl.scalar(2, 1) and x ** 2 == x * x
    for k in (-1, -3):
        with pytest.raises(ValueError, match="negative power"):
            x ** k


def test_gel_refuses_a_mask_above_its_generators():
    """A mask naming theta3 or above has no place on two generators; the
    product would otherwise carry it and print only its low generators."""
    for mask in (4, 8, 9, 1 << 40):
        with pytest.raises(ValueError, match="above theta2"):
            GEl(2, {mask: ONE})
    with pytest.raises(ValueError, match="above theta0"):
        GEl(0, {1: ONE})
    assert GEl(2, {3: ONE}) == th(2, 1, 2)
    assert GEl(0, {0: ONE}) == GEl.scalar(0, 1) and GEl(2, {}).is_zero()


def test_conj_is_antilinear_reversal():
    # conj reverses factors, so a k-blade picks up (-1)^{k(k-1)/2}
    assert th(4, 1, 2).conj() == -th(4, 1, 2)
    assert th(4, 1, 2, 3).conj() == -th(4, 1, 2, 3)
    assert th(4, 1, 2, 3, 4).conj() == th(4, 1, 2, 3, 4)
    assert GEl.scalar(2, I).conj() == GEl.scalar(2, -I)
    x = th(4, 1).scale(Scalar(1, 2)) + th(4, 2, 3).scale(3)
    assert x.conj().conj() == x


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
@settings(max_examples=40, deadline=None)
def test_conj_reverses_products(a, b, c):
    x = GEl.scalar(3, a) + GEl.gen(3, 1).scale(b)
    y = GEl.gen(3, 2).scale(c) + th(3, 1, 3)
    assert (x * y).conj() == y.conj() * x.conj()


def test_smat_inverse_is_exact():
    rng = random.Random(0)
    u1 = Scalar(Fraction(3, 5), Fraction(4, 5))
    for dims, count in ((D11, 6), (D21, 6), (D22, 4), (D31, 4)):
        n_gen = 2 * dims.m * dims.n
        ident = SMat.identity(dims, n_gen)
        u1_diag = SMat(dims, n_gen, [
            [GEl.scalar(n_gen, u1 if a == b else 0) for b in dims.indices()]
            for a in dims.indices()
        ])
        for _ in range(count):
            mat = random_even_invertible(dims, rng)
            inv = mat.inverse()
            assert (mat @ inv) == ident
            assert (inv @ mat) == ident
            # inv has a rational soul; inverting it must give mat back
            twice = inv.inverse()
            assert twice == mat
            assert (inv @ twice) == ident
            # a complex body
            cmat = u1_diag @ mat
            assert cmat.entry(1, 1).body().im != 0
            cinv = cmat.inverse()
            assert (cmat @ cinv) == ident
            assert (cinv @ cmat) == ident


@pytest.mark.parametrize("dims", [D22, D31, Dims(3, 2)],
                         ids=["22", "31", "32"])
def test_smat_inverse_series_is_over_the_least_common_denominator(dims):
    # the soul of a random_even_invertible matrix is linear in the
    # generators, so the j-th Neumann term has Grassmann degree j and no
    # two terms cancel: the series' denominator is exactly the LCD of the
    # inverse's entries
    rng = random.Random(0)
    for _ in range(2):
        mat = random_even_invertible(dims, rng)
        lcd, _ = cleared(e.terms for row in mat.inverse().rows for e in row)
        assert mat._inverse_cleared()[0] == lcd


def test_smat_inverse_rejects_singular_body():
    for dims in (D11, D21):
        n_gen = 2 * dims.m * dims.n
        mat = random_even_invertible(dims, random.Random(6))
        rows = [list(r) for r in mat.rows]
        rows[-1] = [e.soul() for e in rows[-1]]  # zero last body row
        with pytest.raises(ValueError, match="singular body matrix"):
            SMat(dims, n_gen, rows).inverse()


def test_group_point_images_match_twist():
    # alpha(t_ab) = eta(a,b) T_ab with eta(a,b) = (-1)^{[a][b]+[a]}
    rng = random.Random(1)
    mat = random_even_invertible(D11, rng)
    p = GroupPoint.from_matrix(D11, mat)
    assert p.evaluate(CG.t(D11, 1, 1)) == mat.entry(1, 1)
    assert p.evaluate(CG.t(D11, 2, 1)) == -mat.entry(2, 1)
    assert p.evaluate(CG.t(D11, 1, 2)) == mat.entry(1, 2)
    # eta(2,2) = (-1)^{1*1+1} = +1
    assert p.evaluate(CG.t(D11, 2, 2)) == mat.entry(2, 2)
    inv = mat.inverse()
    for a in D11.indices():
        for b in D11.indices():
            assert p.evaluate(CG.tbar(D11, a, b)) == inv.entry(b, a)


def test_point_evaluation_is_multiplicative():
    rng = random.Random(2)
    f = CG.t(D21, 1, 2) * CG.tbar(D21, 3, 1) + CG.from_scalar(D21, Scalar(2))
    g = CG.t(D21, 3, 3) - CG.tbar(D21, 2, 2)
    for _ in range(4):
        p = GroupPoint.from_matrix(D21, random_even_invertible(D21, rng))
        assert p.evaluate(f * g) == p.evaluate(f) * p.evaluate(g)
        assert p.evaluate(f + g) == p.evaluate(f) + p.evaluate(g)


def test_relations_vanish_on_points():
    rng = random.Random(3)
    for dims in (D11, D21):
        p = GroupPoint.from_matrix(dims, random_even_invertible(dims, rng))
        for rel in relations(dims):
            assert p.evaluate(rel).is_zero()


def test_convolution_matches_matrix_product():
    rng = random.Random(4)
    for dims in (D11, D21):
        x = random_even_invertible(dims, rng)
        y = random_even_invertible(dims, rng)
        left = GroupPoint.from_matrix(dims, x).convolve(
            GroupPoint.from_matrix(dims, y))
        assert left == GroupPoint.from_matrix(dims, x @ y)


def test_inverse_point_is_matrix_inverse():
    rng = random.Random(5)
    for dims in (D11, D21):
        mat = random_even_invertible(dims, rng)
        p = GroupPoint.from_matrix(dims, mat)
        assert p.inverse_point() == GroupPoint.from_matrix(
            dims, mat.inverse())
        ident = GroupPoint.identity(dims, p.n)
        assert p.convolve(p.inverse_point()) == ident
        assert p.inverse_point().convolve(p) == ident


def test_identity_point_is_counit():
    p = GroupPoint.identity(D21)
    f = CG.t(D21, 1, 1) * CG.tbar(D21, 2, 2) + CG.t(D21, 1, 2)
    assert p.evaluate(f) == GEl.scalar(0, f.counit())


def test_real_points_dual_equals_inverse():
    for dims in (D11, D21):
        pts = real_sample_points(dims)
        assert len(pts) == 5
        for p in pts:
            assert p.is_real()
            assert p.theta_dual() == p.inverse_point()


def unitary_soul_point(dims, n, rng):
    """The point of exp(X) for an even supermatrix X of souls with
    X^+ = -X, where X^+_ba = (-1)^{[a]+[b]} conj(X_ab): a point of the real
    form whose odd images are nonzero.  X^(n+1) = 0 ends the series."""
    size = dims.size
    x = [[GEl(n)] * size for _ in range(size)]
    for a in dims.indices():
        x[a - 1][a - 1] = th(n, 1, 2).scale(Scalar(rng.randint(1, 3)))
        for b in range(a + 1, size + 1):
            blades = itertools.combinations(range(1, n + 1),
                                            2 - dims.letter_par(a, b))
            x[a - 1][b - 1] = sum(
                (th(n, *js).scale(Scalar(rng.randint(-3, 3),
                                         rng.randint(-3, 3)))
                 for js in blades), GEl(n))
            x[b - 1][a - 1] = x[a - 1][b - 1].conj().scale(
                sign_pow(1 + dims.letter_par(a, b)))
    mat = SMat(dims, n, x)
    term = total = SMat.identity(dims, n)
    for k in range(1, n + 1):
        term = term @ mat
        term = SMat(dims, n, [[e.scale(Scalar(Fraction(1, k))) for e in row]
                              for row in term.rows])
        total = SMat(dims, n, [[e + f for e, f in zip(r, s)]
                               for r, s in zip(total.rows, term.rows)])
    return GroupPoint.from_matrix(dims, total)


@pytest.mark.parametrize("dims", [D11, D21, D12, D22],
                         ids=["11", "21", "12", "22"])
def test_point_operations_are_precompositions_with_the_symbolic_maps(dims):
    # inverse_point is alpha o S and theta_dual is conj o alpha o omega o S
    # on every generator, and is_real compares alpha o omega with conj o alpha
    rng = random.Random(19)
    gens = [g(dims, a, b) for g in (CG.t, CG.tbar)
            for a in dims.indices() for b in dims.indices()]
    real = unitary_soul_point(dims, 3, rng)
    points = [random_gauss_point(dims, rng) for _ in range(2)]
    points += [GroupPoint.from_matrix(dims, random_even_invertible(dims, rng)),
               real] + real_sample_points(dims)
    verdicts = []
    for p in points:
        inv, dual = p.inverse_point(), p.theta_dual()
        for g in gens:
            assert inv.evaluate(g) == p.evaluate(g.antipode())
            assert dual.evaluate(g) == p.evaluate(g.antipode().omega()).conj()
        verdicts.append(p.is_real())
        assert verdicts[-1] == all(p.evaluate(g.omega()) == p.evaluate(g).conj()
                                   for g in gens)
    assert verdicts == [False] * 3 + [True] * 6
    odd = [CG.t(dims, 1, dims.size), CG.tbar(dims, dims.size, 1)]
    assert all(not real.evaluate(g).is_zero() for g in odd)


def test_nonreal_point_detected():
    mat = SMat(D11, 0, [
        [GEl.scalar(0, 2), GEl.scalar(0, 0)],
        [GEl.scalar(0, 0), GEl.scalar(0, 1)],
    ])
    p = GroupPoint.from_matrix(D11, mat)
    assert not p.is_real()
    assert p.theta_dual() != p.inverse_point()


def test_smat_rejects_wrong_parity_entries():
    one, t1, t2 = GEl.scalar(2, 1), GEl.gen(2, 1), GEl.gen(2, 2)
    for rows, match in [
        # an even entry at the odd slot (1,2)
        ([[one, one], [GEl(2), one]], "parity 0"),
        # 1 + theta1 at the even slot (1,1)
        ([[one + t1, t2], [t1, one]], "mixed parity"),
        # theta2 + theta1 theta2 at the odd slot (1,2)
        ([[one, t2 + th(2, 1, 2)], [t1, one]], "mixed parity"),
    ]:
        with pytest.raises(ValueError, match=match):
            SMat(D11, 2, rows)


def test_from_matrix_rejects_singular_body():
    bad = SMat(D11, 0, [
        [GEl.scalar(0, 0), GEl(0)],
        [GEl(0), GEl.scalar(0, 1)],
    ])
    try:
        GroupPoint.from_matrix(D11, bad)
        assert False, "expected ValueError"
    except ValueError:
        pass


def test_verify_group_suites():
    for dims in (D11, D21, D12, D22):
        rep = verify_group(dims, count=8, seed=0)
        assert rep["passed"], rep
        names = {c["name"] for c in rep["cases"]}
        assert "convolution matches the supermatrix product" in names


@pytest.mark.parametrize("count", [1, 2])
def test_verify_group_rejects_counts_with_no_pair_or_triple(count):
    with pytest.raises(ValueError, match="count must be at least 3"):
        verify_group(D11, count=count, seed=0)


# ------------------------------------------- one exact integer evaluator


def reference_evaluate(n, t_img, tb_img, f, mul=GEl.__mul__):
    """f at the point with the given images, as a loop of Fraction GEl
    products ``mul``: the reference for the integer evaluator."""
    poly = getattr(f, "poly", f)
    out = GEl(n)
    for mono, c in poly.terms.items():
        prod = GEl.scalar(n, c)
        for s, e in mono:
            img = (t_img if s[0] == "t" else tb_img)[(s[1], s[2])]
            for _ in range(e):
                prod = mul(prod, img)
        out = out + prod
    return out


def matrix_images(dims, mat):
    """alpha(t_ab) and alpha(tbar_ab) computed from the matrix alone."""
    inv = mat.inverse()
    t_img = {(a, b): mat.entry(a, b).scale(eta(dims, a, b))
             for a in dims.indices() for b in dims.indices()}
    tb_img = {(a, b): inv.entry(b, a)
              for a in dims.indices() for b in dims.indices()}
    return t_img, tb_img


def rand_coeff(rng):
    return Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 7)))


def rand_poly(dims, rng):
    """A constant term plus monomials of degrees 1..4 with Q(i)
    coefficients."""
    gens = [g(dims, a, b) for g in (CG.t, CG.tbar)
            for a in dims.indices() for b in dims.indices()]
    f = CG.from_scalar(dims, rand_coeff(rng))
    for deg in (1, 2, 2, 3, 4):
        term = CG.from_scalar(dims, rand_coeff(rng))
        for _ in range(deg):
            term = term * rng.choice(gens)
        f = f + term
    return f


def assert_evaluates_exactly(p, t_img, tb_img, rng, count=3):
    dims = p.dims
    for f in [CG.zero(dims)] + [rand_poly(dims, rng) for _ in range(count)]:
        assert p.evaluate(f) == reference_evaluate(p.n, t_img, tb_img, f)


def test_evaluate_matches_fraction_reference_at_random_points():
    rng = random.Random(21)
    for dims in (D11, D21, D22, D31):
        for _ in range(2):
            mat = random_even_invertible(dims, rng)
            t_img, tb_img = matrix_images(dims, mat)
            p = GroupPoint.from_matrix(dims, mat)
            assert p.t_img == t_img and p.tb_img == tb_img
            # from_matrix reaches the same least common denominator
            assert p == GroupPoint(dims, p.n, t_img, tb_img)
            assert_evaluates_exactly(p, t_img, tb_img, rng)


def test_evaluate_matches_reference_on_rational_soul_points():
    rng = random.Random(22)
    for dims in (D11, D21, D22):
        inv = random_even_invertible(dims, rng).inverse()
        t_img, tb_img = matrix_images(dims, inv)
        p = GroupPoint.from_matrix(dims, inv)
        assert p.den > 1
        assert p.t_img == t_img and p.tb_img == tb_img
        assert p == GroupPoint(dims, p.n, t_img, tb_img)
        assert_evaluates_exactly(p, t_img, tb_img, rng)


def test_evaluate_matches_reference_on_complex_points():
    rng = random.Random(23)
    for dims in (D11, D21, D12):
        for mat_point in real_sample_points(dims):
            for p in (mat_point, mat_point.theta_dual(),
                      mat_point.inverse_point()):
                assert_evaluates_exactly(p, p.t_img, p.tb_img, rng, count=2)
        # the u1 diagonal: a point whose images have imaginary parts
        u1_point = real_sample_points(dims)[1]
        assert any(im for re, im in u1_point.num.values())


@pytest.mark.parametrize("dims", [D11, D21, D22], ids=["11", "21", "22"])
def test_evaluate_matches_reference_on_complex_points_with_souls(dims):
    """u1 T, T a random real even supermatrix: images whose real and
    imaginary parts both carry odd generators, so every cross term of a
    complex product counts.  The reference images are u1 T and the
    transpose of conj(u1) T^{-1} (|u1| = 1), scaled from the real point,
    whose inverse meets no imaginary part, and multiplied by the Scalar
    loop ref_mul."""
    rng = random.Random(25)
    u1 = Scalar(Fraction(3, 5), Fraction(4, 5))
    mat = random_even_invertible(dims, rng)
    n = mat.n
    u1_diag = SMat(dims, n, [[GEl.scalar(n, u1 if a == b else 0)
                              for b in dims.indices()]
                             for a in dims.indices()])
    p = GroupPoint.from_matrix(dims, u1_diag @ mat)
    assert any(any(im) and any(re) for re, im in p.num.values())
    real_t, real_tb = matrix_images(dims, mat)
    t_img = {k: img.scale(u1) for k, img in real_t.items()}
    tb_img = {k: img.scale(u1.conj()) for k, img in real_tb.items()}
    assert p.t_img == t_img and p.tb_img == tb_img
    for f in [rand_poly(dims, rng) for _ in range(3)]:
        assert p.evaluate(f) == reference_evaluate(n, t_img, tb_img, f,
                                                   mul=ref_mul)


def test_evaluate_matches_reference_at_identity_point():
    rng = random.Random(24)
    for dims in (D11, D21):
        p = GroupPoint.identity(dims, 0)
        assert p.den == 1
        assert_evaluates_exactly(p, p.t_img, p.tb_img, rng)


def test_evaluate_rejects_unknown_tag():
    p = GroupPoint.identity(D11, 0)
    with pytest.raises(ValueError, match="cannot evaluate tag"):
        p.evaluate(Poly.from_symbol(symbol("x", 1, 1, 0)))


def test_evaluate_refuses_other_dims_and_indices():
    """A point of GL(1|1) evaluates neither a (2|1) element, whose
    representative it could otherwise read, nor a symbol outside 1..2."""
    p = random_gauss_point(D11, random.Random(0))
    with pytest.raises(ValueError, match="mismatched"):
        p.evaluate(CG.t(D21, 2, 2))
    for sym in (symbol("t", 3, 3, 0), symbol("tb", 1, 3, 1),
                symbol("t", 0, 1, 0)):
        with pytest.raises(ValueError, match="outside 1..2"):
            p.evaluate(Poly.from_symbol(sym))
    assert p.evaluate(CG.t(D11, 2, 2)) == p.evaluate(
        Poly.from_symbol(symbol("t", 2, 2, 0)))


def test_evaluate_refuses_a_symbol_of_the_wrong_parity():
    """t[1,2] is odd at (1|1); an even t[1,2] would otherwise read the odd
    image, and its square would evaluate to 0."""
    p = random_gauss_point(D11, random.Random(0))
    for f in (Poly.from_symbol(symbol("t", 1, 2, 0)) ** 2,
              Poly.from_symbol(symbol("tb", 2, 2, 1))):
        with pytest.raises(ValueError, match="parity"):
            p.evaluate(f)
    assert not p.evaluate(Poly.from_symbol(symbol("t", 2, 2, 0)) ** 2) \
        .is_zero()


def test_evaluate_refuses_what_is_not_a_poly():
    """A UEl of the point's own dims has the dims as its shape; it is
    refused as it is, not read as a polynomial."""
    p = random_gauss_point(D11, random.Random(0))
    for f in (UEl.letter(D11, 1, 1), UEl.one(D11), GEl.gen(2, 1), 3):
        with pytest.raises(ValueError, match="cannot evaluate a"):
            p.evaluate(f)


def laplacian_defect(dims, k):
    rr = r_func(dims)
    rhs = (rr ** k).scale(Scalar(k * (dims.m - dims.n - k + 1))) \
        + (rr ** (k - 1)).scale(Scalar(k * k))
    return laplacian_apply(rr ** k) - rhs


def theta_defect(dims, k):
    f = theta(dims, k)
    return laplacian_apply(f) - f.scale(theta_eigenvalue(dims, k))


# generic verdicts of the default oracle (trials=3, seed=0), recorded with
# the Fraction evaluator; each defect plus 1 is nonzero at trial 1.  The
# bounds are (5 D / 2097149)^3 at (2,2) and (4 D / 2097150)^3 at (1,2),
# D = 2k the defect's degree
ORACLE_PINS = [
    ("laplacian", D22, 1, "1000/9223332454492798949"),
    ("laplacian", D22, 2, "8000/9223332454492798949"),
    ("laplacian", D22, 3, "27000/9223332454492798949"),
    ("laplacian", D22, 4, "64000/9223332454492798949"),
    ("theta", D12, 1, "64/1152918206075109375"),
    ("theta", D12, 2, "512/1152918206075109375"),
    ("theta", D12, 3, "64/42700674299078125"),
]


@pytest.mark.parametrize("kind, dims, k, bound", ORACLE_PINS,
                         ids=[f"{p[0]}{p[1].m}{p[1].n}-k{p[2]}"
                              for p in ORACLE_PINS])
def test_oracle_verdicts_are_pinned(kind, dims, k, bound):
    defect = (laplacian_defect if kind == "laplacian" else theta_defect)(
        dims, k)
    assert is_zero_mod_j(defect).to_dict() == {
        "verdict": "zero", "mode": "generic", "trials": 3, "seed": 0,
        "failure_bound": bound}
    assert is_zero_mod_j(defect + CG.one(dims)).to_dict() == {
        "verdict": "nonzero", "mode": "generic", "trials": 1, "seed": 0,
        "failure_bound": "0"}


# ------------------------------------------------------ Gauss-form points

D32 = Dims(3, 2)


def gauss_blocks(dims, seed):
    """The bodies A and D that random_gauss_point draws from a fresh
    random.Random(seed): A's rows, then D's rows (none singular here)."""
    rng = random.Random(seed)
    bound = 2 ** 20
    a = [[rng.randint(-bound, bound) for _ in range(dims.m)]
         for _ in range(dims.m)]
    d = [[rng.randint(-bound, bound) for _ in range(dims.n)]
         for _ in range(dims.n)]
    assert det(a) and det(d)
    return a, d


def det(rows):
    """Exact determinant, by Fraction elimination."""
    rows = [[Fraction(c) for c in row] for row in rows]
    out = Fraction(1)
    for j in range(len(rows)):
        piv = next((i for i in range(j, len(rows)) if rows[i][j]), None)
        if piv is None:
            return 0
        if piv != j:
            rows[j], rows[piv] = rows[piv], rows[j]
            out = -out
        out *= rows[j][j]
        for i in range(j + 1, len(rows)):
            f = rows[i][j] / rows[j][j]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[j])]
    return out


def gauss_matrix(dims, a, d):
    """diag(A, D) [[1, beta], [0, 1]] [[1, 0], [gamma, 1]] as an SMat
    product, beta[i][j] = theta_{i n + j + 1} and
    gamma[i][j] = theta_{m n + i m + j + 1}."""
    m, n = dims.m, dims.n
    n_gen = 2 * m * n
    size = dims.size

    def blank():
        return [[GEl.scalar(n_gen, 1 if i == j else 0) for j in range(size)]
                for i in range(size)]

    body, upper, lower = blank(), blank(), blank()
    for i in range(m):
        for j in range(m):
            body[i][j] = GEl.scalar(n_gen, a[i][j])
        for j in range(n):
            upper[i][m + j] = GEl.gen(n_gen, i * n + j + 1)
    for i in range(n):
        for j in range(n):
            body[m + i][m + j] = GEl.scalar(n_gen, d[i][j])
        for j in range(m):
            lower[m + i][j] = GEl.gen(n_gen, m * n + i * m + j + 1)
    return (SMat(dims, n_gen, body) @ SMat(dims, n_gen, upper)
            @ SMat(dims, n_gen, lower))


@pytest.mark.parametrize("dims", [D11, D21, D12, D22],
                         ids=["11", "21", "12", "22"])
def test_gauss_point_matches_neumann_series_point(dims):
    for seed in (0, 1, 2):
        a, d = gauss_blocks(dims, seed)
        want = GroupPoint.from_matrix(dims, gauss_matrix(dims, a, d))
        assert random_gauss_point(dims, random.Random(seed)) == want


@pytest.mark.parametrize("dims", [D11, D21, D12, D22, D32],
                         ids=["11", "21", "12", "22", "32"])
def test_gauss_point_images_have_degree_two_over_block_dets(dims):
    for seed in (0, 1, 2):
        a, d = gauss_blocks(dims, seed)
        p = random_gauss_point(dims, random.Random(seed))
        assert p.n == 2 * dims.m * dims.n
        assert max(mask.bit_count() for re, im in p.num.values()
                   for mask in (*re, *im)) == 2
        assert not any(im for re, im in p.num.values())
        assert (det(a) * det(d)) % p.den == 0


@pytest.mark.parametrize("dims", [Dims(2, 0), Dims(0, 2), Dims(1, 0),
                                  Dims(0, 1), D11, D21, D12, D22, D32],
                         ids=["20", "02", "10", "01", "11", "21", "12", "22",
                              "32"])
def test_gauss_points_satisfy_the_relations(dims):
    rng = random.Random(8)
    for _ in range(3):
        random_gauss_point(dims, rng).validate()
    for rel in relations(dims):
        assert is_zero_mod_j(rel, trials=2, seed=8).is_zero
    assert not is_zero_mod_j(CG.t(dims, 1, 1), seed=8).is_zero


def test_gauss_sampler_redraws_a_singular_block(monkeypatch):
    # A = [[0]] is singular, then [[5]]; D = 0 is singular, then
    # [[2, 3], [0, 1]]
    draws = iter([0, 5, 0, 0, 0, 0, 2, 3, 0, 1])
    rng = random.Random()
    monkeypatch.setattr(rng, "randint", lambda lo, hi: next(draws))
    p = random_gauss_point(D12, rng)
    assert next(draws, None) is None
    assert p == GroupPoint.from_matrix(D12, gauss_matrix(D12, [[5]],
                                                         [[2, 3], [0, 1]]))


def scalar_block_inverse(re, im):
    """The Scalar route to (d, x, y): invert re + i im over Q(i), reducing
    [A | I] to [I | A^{-1}] by ``SparseEchelon.insert`` and ``reduced``,
    then clear the entries."""
    k = len(re)
    ech = SparseEchelon()
    for i in range(k):
        aug = {j: Scalar(re[i][j], im[i][j] if im else 0) for j in range(k)}
        aug = {j: c for j, c in aug.items() if c}
        aug[k + i] = ONE
        ech.insert(aug)
    if any(p not in ech.rows for p in range(k)):
        raise ValueError("singular body matrix")
    red = ech.reduced()
    d, nums = cleared({0: red[i].get(k + j, ZERO)}
                      for i in range(k) for j in range(k))
    x = [[nums[i * k + j][0].get(0, 0) for j in range(k)] for i in range(k)]
    y = [[nums[i * k + j][1].get(0, 0) for j in range(k)] for i in range(k)]
    return d, x, y


def gaussian_block(rng, k, bound, rational):
    """Dense (re, im) rows of a random k x k Q(i) matrix cleared of its
    denominators: parts from {-bound..bound}, over denominators 1..7 when
    rational.  One draw in four makes the last row a multiple of the first
    (zero when k = 1), so singular matrices are common."""
    def part():
        return Fraction(rng.randint(-bound, bound),
                        rng.randint(1, 7) if rational else 1)

    mat = [[Scalar(part(), part()) for _ in range(k)] for _ in range(k)]
    if k and rng.random() < 0.25:
        c = Scalar(rng.randint(-3, 3), rng.randint(-3, 3)) if k > 1 else ZERO
        mat[-1] = [c * x for x in mat[0]]
    _, rows = cleared(dict(enumerate(row)) for row in mat)
    return ([[re.get(j, 0) for j in range(k)] for re, _ in rows],
            [[im.get(j, 0) for j in range(k)] for _, im in rows])


def pair_rows(re, im):
    """Dense (re, im) rows as the (re, im) pairs of column -> int dicts that
    ``_block_inverse`` takes."""
    return [({j: c for j, c in enumerate(re[i]) if c},
             {j: c for j, c in enumerate(im[i]) if c} if im else {})
            for i in range(len(re))]


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_integer_block_inverse_matches_the_scalar_route(k):
    for field in ("integer", "gaussian", "gaussian-rational"):
        rng = random.Random(40 + k if field == "integer" else 50 + k)
        singular = 0
        for trial in range(60):
            # small entries make singular blocks common; wide ones are the
            # sampler's own range
            bound = 1 if trial % 2 else 2 ** 20
            if field == "integer":
                re = [[rng.randint(-bound, bound) for _ in range(k)]
                      for _ in range(k)]
                im = ()
            else:
                re, im = gaussian_block(rng, k, bound,
                                        field == "gaussian-rational")
            try:
                want = scalar_block_inverse(re, im)
            except ValueError as exc:
                singular += 1
                with pytest.raises(ValueError, match=str(exc)):
                    grassmann._block_inverse(pair_rows(re, im))
                continue
            d, x, y = grassmann._block_inverse(pair_rows(re, im))
            assert (d, x) == want[:2]
            assert y == (want[2] if any(map(any, im)) else ())
            assert math.gcd(d, *(c for row in [*x, *y] for c in row)) == 1
        assert singular >= (0 if k == 0 else 5), field


def lowest_terms_gauss_point(dims, a_block, d_block):
    """The Gauss point assembled the slow way: T and d T^{-1} built block
    by block over d = lcm(d_A, d_D), the t images twisted, the tbar images
    transposed, and everything put over its least common denominator by a
    gcd pass."""
    m, n, size = dims.m, dims.n, dims.size
    a, (da, xa) = a_block
    d, (dd, xd) = d_block
    den = math.lcm(da, dd)
    ka, kd = den // da, den // dd

    def beta(i, j):
        return 1 << (i * n + j)

    def gamma(i, j):
        return 1 << (m * n + i * m + j)

    def real(pairs):
        return {mask: c for mask, c in pairs if c}, {}

    mat, inv = [], []  # T and den * T^{-1}, row by row
    for i in range(m):
        mat += [real([(0, a[i][j])] + [(beta(k, l) | gamma(l, j), a[i][k])
                                        for k in range(m) for l in range(n)])
                for j in range(m)]
        mat += [real((beta(k, j), a[i][k]) for k in range(m))
                for j in range(n)]
        inv += [real([(0, ka * xa[i][j])]) for j in range(m)]
        inv += [real((beta(i, k), -kd * xd[k][j]) for k in range(n))
                for j in range(n)]
    for i in range(n):
        mat += [real((gamma(k, j), d[i][k]) for k in range(n))
                for j in range(m)]
        mat += [real([(0, d[i][j])]) for j in range(n)]
        inv += [real((gamma(i, k), -ka * xa[k][j]) for k in range(m))
                for j in range(m)]
        inv += [real([(0, kd * xd[i][j])]
                     + [(gamma(i, k) | beta(k, l), -kd * xd[l][j])
                        for k in range(m) for l in range(n)])
                for j in range(n)]
    keys = [(p, q) for p in dims.indices() for q in dims.indices()]
    t_nums = [({k: -c for k, c in re.items()}, im)
              if dims.par(p) and not dims.par(q) else (re, im)
              for (p, q), (re, im) in zip(keys, mat)]
    tb_nums = [inv[(q - 1) * size + p - 1] for p, q in keys]
    parts = [(1, t_nums), (den, tb_nums)]
    g = den
    for part_den, nums in parts:
        for re, im in nums:
            g = math.gcd(g, *(c * (den // part_den) for c in re.values()))
    out = {}
    for tag, (part_den, nums) in zip(("t", "tb"), parts):
        for (p, q), (re, im) in zip(keys, nums):
            out[(tag, p, q)] = (
                {k: c * (den // part_den) // g for k, c in re.items()}, im)
    return den // g, out


GAUSS_DIMS = [Dims(1, 0), Dims(0, 1), Dims(2, 0), Dims(0, 2), D11, D21, D12,
              D22, D32]


@pytest.mark.parametrize("dims", GAUSS_DIMS,
                         ids=["10", "01", "20", "02", "11", "21", "12", "22",
                              "32"])
def test_gauss_point_images_are_written_at_lowest_terms(dims):
    for seed in range(6):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(2):
            p = random_gauss_point(dims, rng)
            a_block = grassmann._random_block(dims.m, ref_rng)
            den, num = lowest_terms_gauss_point(
                dims, a_block, grassmann._random_block(dims.n, ref_rng))
            assert (p.den, p.num, list(p.num)) == (den, num, list(num))
            # the least common denominator, with no gcd pass
            assert math.gcd(p.den, *(c for re, im in p.num.values()
                                     for c in (*re.values(), *im.values()))
                            ) == 1


@pytest.mark.parametrize("dims", [D22, D32], ids=["22", "32"])
def test_gauss_points_are_built_on_integers_only(dims, monkeypatch):
    made = []
    init, new = Scalar.__init__, scalar_module._new

    def counting_init(self, *args):
        made.append(args)
        init(self, *args)

    def counting_new(cls):
        made.append(cls)
        return new(cls)

    monkeypatch.setattr(Scalar, "__init__", counting_init)
    monkeypatch.setattr(scalar_module, "_new", counting_new)
    rng = random.Random(3)
    points = [random_gauss_point(dims, rng) for _ in range(3)]
    assert made == []
    # the counters do see Scalars: reading a GEl image builds them
    points[0].t_img
    assert made


@pytest.mark.parametrize("dims", [D11, D21, D12, D22],
                         ids=["11", "21", "12", "22"])
def test_product_of_all_odd_slots_is_nonzero_at_trial_one(dims):
    # the 2mn odd entries are independent combinations of the generators
    # only if no generator is reused; their product lies in the top mask
    f = CG.one(dims)
    for a in dims.indices():
        for b in dims.indices():
            if dims.letter_par(a, b):
                f = f * CG.t(dims, a, b)
    for seed in (0, 1, 2):
        p = random_gauss_point(dims, random.Random(seed))
        assert set(p.evaluate(f).terms) == {(1 << p.n) - 1}
        assert is_zero_mod_j(f, seed=seed).to_dict() == {
            "verdict": "nonzero", "mode": "generic", "trials": 1,
            "seed": seed, "failure_bound": "0"}


@pytest.mark.parametrize("dims", [D22, D32], ids=["22", "32"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_laplacian_defect_plus_r_power_is_nonzero(dims, k):
    f = laplacian_defect(dims, k) + r_func(dims) ** k
    assert is_zero_mod_j(f).to_dict() == {
        "verdict": "nonzero", "mode": "generic", "trials": 1, "seed": 0,
        "failure_bound": "0"}


def test_verify_group_inverts_each_matrix_once_for_the_antipode(monkeypatch):
    calls = []
    invert = grassmann._block_inverse

    def counting(rows):
        calls.append(len(rows))
        return invert(rows)

    monkeypatch.setattr(grassmann, "_block_inverse", counting)
    rep = verify_group(D11, count=20, seed=0)
    assert rep["passed"], rep
    # 20 Gauss points of two block inverses each, 5 real points and 1
    # non-unitary diagonal: the relations, product and antipode cases
    # invert nothing
    assert len(calls) == 2 * 20 + 5 + 1


def test_verify_group_checks_the_oracle_points(monkeypatch):
    drawn = []
    draw = grassmann.random_gauss_point

    def spy(dims, rng):
        drawn.append(draw(dims, rng))
        return drawn[-1]

    monkeypatch.setattr(grassmann, "random_gauss_point", spy)
    assert verify_group(D21, count=5, seed=3)["passed"]
    monkeypatch.setattr(grassmann, "random_gauss_point", draw)
    monkeypatch.setattr(cg, "_point_memo", {})
    oracle = cg._oracle_points(D21, 3)
    assert drawn == [next(oracle) for _ in range(5)]


class Drew(Exception):
    pass


def no_draw(dims, rng):
    raise Drew


@pytest.mark.parametrize("dims", [Dims(3, 3), Dims(4, 2), Dims(7, 1)],
                         ids=["33", "42", "71"])
def test_verify_group_cap_fires_before_any_point(monkeypatch, dims):
    monkeypatch.setattr(grassmann, "random_gauss_point", no_draw)
    with pytest.raises(DimCapError, match="over cap 12"):
        verify_group(dims, count=20, seed=0)


@pytest.mark.parametrize("dims", [Dims(21, 0), Dims(0, 21), Dims(30, 0)],
                         ids=["21-0", "0-21", "30-0"])
def test_verify_group_even_cap_fires_before_any_point(monkeypatch, dims):
    # no odd generators, but (m+n)^3 above GROUP_EVEN_CAP = 8000 = 20^3
    monkeypatch.setattr(grassmann, "random_gauss_point", no_draw)
    with pytest.raises(DimCapError, match=r"\(m\+n\)\^3 = \d+, over cap 8000"):
        verify_group(dims, count=20, seed=0)


def test_verify_group_even_cap_admits_twenty_indices(monkeypatch):
    monkeypatch.setattr(grassmann, "random_gauss_point", no_draw)
    with pytest.raises(Drew):
        verify_group(Dims(20, 0), count=20, seed=0)
    monkeypatch.undo()
    rep = verify_group(Dims(8, 0), count=3, seed=0)
    assert rep["passed"], rep


@pytest.mark.parametrize("dims", [Dims(3, 2), Dims(2, 3), Dims(6, 1)],
                         ids=["32", "23", "61"])
def test_verify_group_cap_admits_twelve_generators(monkeypatch, dims):
    monkeypatch.setattr(grassmann, "random_gauss_point", no_draw)
    with pytest.raises(Drew):
        verify_group(dims, count=20, seed=0)


def delta_sign_xor_c(monkeypatch):
    sign = grassmann.delta_sign

    def xor_c(dims, a, c, b):
        return sign(dims, a, c, b) ^ dims.par(c)

    monkeypatch.setattr(grassmann, "delta_sign", xor_c)


def precomposed_unsigned(monkeypatch):
    def unsigned(self, *maps):
        num = {}
        for key in self.num:
            image = key
            for gen_map in maps:
                _, image = gen_map(self.dims, *image)
            num[key] = self.num[image]
        return GroupPoint._new(self.dims, self.n, self.den, num)

    monkeypatch.setattr(GroupPoint, "_precomposed", unsigned)


def gauss_inverse_without_gamma_beta(monkeypatch):
    # T^{-1}'s D block loses its (gamma beta) D^{-1} term
    src = textwrap.dedent(inspect.getsource(grassmann._gauss_point))
    term = "(gamma(i, k) | beta(k, l), -kd * xd[l][j])"
    assert src.count(term) == 1
    ns = {}
    exec(src.replace(term, "(gamma(i, k) | beta(k, l), 0)"), vars(grassmann),
         ns)
    monkeypatch.setattr(grassmann, "_gauss_point", ns["_gauss_point"])


def series_cut_after_one_term(monkeypatch):
    src = textwrap.dedent(inspect.getsource(SMat._inverse_cleared))
    assert src.count("range(self.n)") == 1
    ns = {}
    exec(src.replace("range(self.n)", "range(1)"), vars(grassmann), ns)
    monkeypatch.setattr(SMat, "_inverse_cleared", ns["_inverse_cleared"])


@pytest.mark.parametrize("mutate", [delta_sign_xor_c, precomposed_unsigned,
                                    gauss_inverse_without_gamma_beta],
                         ids=lambda f: f.__name__)
def test_verify_group_fails_on_mutants(monkeypatch, mutate):
    assert verify_group(D21, count=8, seed=0)["passed"]
    mutate(monkeypatch)
    assert not verify_group(D21, count=8, seed=0)["passed"]


def test_gauss_mutant_fails_only_the_relations_case(monkeypatch):
    gauss_inverse_without_gamma_beta(monkeypatch)
    failed = [c["name"] for c in verify_group(D21, count=8, seed=0)["cases"]
              if not c["passed"]]
    assert failed == ["random supermatrices define group points"]


def test_series_mutant_breaks_the_supermatrix_inverse(monkeypatch):
    mat = random_even_invertible(D21, random.Random(4))
    ident = SMat.identity(D21, mat.n)
    assert mat @ mat.inverse() == ident
    series_cut_after_one_term(monkeypatch)
    assert mat @ mat.inverse() != ident


@pytest.mark.parametrize("dims", [D21, D22], ids=["21", "22"])
def test_verify_group_runs_no_series_on_a_point_with_odd_generators(
        monkeypatch, dims):
    series = SMat._inverse_cleared

    def even_only(self):
        if self.n > 0:
            raise AssertionError("series inverse of a matrix with a soul")
        return series(self)

    monkeypatch.setattr(SMat, "_inverse_cleared", even_only)
    rep = verify_group(dims, count=20, seed=0)
    assert rep["passed"], rep


@pytest.mark.parametrize("dims", [D11, D21, D22, D31, Dims(2, 0), Dims(0, 2)],
                         ids=["11", "21", "22", "31", "20", "02"])
def test_random_even_invertible_contract(dims):
    rng = random.Random(7)
    n_gen = 2 * dims.m * dims.n
    for _ in range(3):
        mat = random_even_invertible(dims, rng)
        assert mat.n == n_gen
        body = SparseEchelon()
        assert all(body.insert({j: c for j, c in enumerate(row) if c})
                   is not None for row in mat.body_matrix())
        gens = []
        for a in dims.indices():
            for b in dims.indices():
                terms = mat.entry(a, b).terms
                if dims.letter_par(a, b):
                    (mask, c), = terms.items()
                    assert mask.bit_count() == 1
                    assert c.im == 0 and 1 <= abs(c.re) <= 2 ** 20
                    gens.append(mask)
                else:
                    assert set(terms) <= {0}
        assert sorted(gens) == [1 << j for j in range(n_gen)]


# ------------------------------- references for the integer product kernel


def ref_mul(x, y):
    """x * y as a Scalar loop: a generator of x standing right of a
    generator of y in the sorted product costs one sign per crossing."""
    out = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            if m1 & m2:
                continue
            crossings = sum((m2 & ((1 << i) - 1)).bit_count()
                            for i in range(x.n) if m1 >> i & 1)
            add_term(out, m1 | m2, -(c1 * c2) if crossings & 1 else c1 * c2)
    return GEl(x.n, out)


def ref_conj(x):
    """Coefficients conjugated, a k-blade signed by (-1)^{k(k-1)/2}."""
    out = {}
    for m, c in x.terms.items():
        k = bin(m).count("1")
        out[m] = -c.conj() if (k * (k - 1) // 2) & 1 else c.conj()
    return GEl(x.n, out)


def ref_convolve(p, q):
    """The twisted matrix product of the GEl images."""
    dims = p.dims
    imgs = [(p.t_img, q.t_img), (p.tb_img, q.tb_img)]
    out = []
    for s, o in imgs:
        prod = {}
        for a in dims.indices():
            for b in dims.indices():
                acc = GEl(p.n)
                for c in dims.indices():
                    sgn = sign_pow((dims.par(c) + dims.par(a))
                                   * (dims.par(c) + dims.par(b)))
                    acc = acc + ref_mul(s[(a, c)], o[(c, b)]).scale(sgn)
                prod[(a, b)] = acc
        out.append(prod)
    return GroupPoint(dims, p.n, *out)


def ref_inverse_point(p):
    dims, s_t, s_tb = p.dims, p.t_img, p.tb_img
    t_img, tb_img = {}, {}
    for a in dims.indices():
        for b in dims.indices():
            pa, pb = dims.par(a), dims.par(b)
            t_img[(a, b)] = s_tb[(b, a)].scale(sign_pow(pa * pb + pa))
            tb_img[(a, b)] = s_t[(b, a)].scale(sign_pow(pa * pb + pb))
    return GroupPoint(dims, p.n, t_img, tb_img)


def ref_theta_dual(p):
    dims, s_t, s_tb = p.dims, p.t_img, p.tb_img
    t_img, tb_img = {}, {}
    for a in dims.indices():
        for b in dims.indices():
            t_img[(a, b)] = ref_conj(s_t[(b, a)])
            tb_img[(a, b)] = ref_conj(s_tb[(b, a)]).scale(
                sign_pow(dims.par(a) + dims.par(b)))
    return GroupPoint(dims, p.n, t_img, tb_img)


def ref_is_real(p):
    dims, s_t, s_tb = p.dims, p.t_img, p.tb_img
    return all(
        s_tb[(a, b)].scale(sign_pow(dims.par(b) * (dims.par(a) + dims.par(b))))
        == ref_conj(s_t[(a, b)])
        for a in dims.indices() for b in dims.indices())


def fractional_complex(a, d, b, e):
    """(2a+1)/(2d) + i (3b+1)/(3e): both parts nonzero and non-integral."""
    return Scalar(Fraction(2 * a + 1, 2 * d), Fraction(3 * b + 1, 3 * e))


coefficients = st.one_of(
    st.builds(fractional_complex, st.integers(-30, 30), st.integers(1, 12),
              st.integers(-30, 30), st.integers(1, 12)),
    st.integers(-9, 9).map(Scalar),
)
gels = st.dictionaries(st.integers(0, 31), coefficients, max_size=12).map(
    lambda terms: GEl(5, {m: c for m, c in terms.items() if c}))


@given(gels, gels)
@settings(max_examples=200, deadline=None)
def test_gel_products_and_conjugates_match_scalar_reference(x, y):
    assert x * y == ref_mul(x, y)
    assert x.conj() == ref_conj(x)
    assert (x * y).conj() == y.conj() * x.conj()


real_coefficients = st.one_of(
    st.integers(-9, 9).map(Scalar),
    st.builds(lambda a, d: Scalar(Fraction(2 * a + 1, 2 * d)),
              st.integers(-30, 30), st.integers(1, 12)),
)
real_gels = st.dictionaries(st.integers(0, 31), real_coefficients,
                            max_size=12).map(
    lambda terms: GEl(5, {m: c for m, c in terms.items() if c}))
complex_gels = st.dictionaries(
    st.integers(0, 31),
    st.builds(fractional_complex, st.integers(-30, 30), st.integers(1, 12),
              st.integers(-30, 30), st.integers(1, 12)),
    min_size=1, max_size=12).map(lambda terms: GEl(5, terms))


@given(real_gels, complex_gels)
@settings(max_examples=150, deadline=None)
def test_real_times_complex_products_match_scalar_reference(x, z):
    """Both orders of a real and a complex operand: each runs the kernel
    on the real part against the real and the imaginary part."""
    assert x * z == ref_mul(x, z)
    assert z * x == ref_mul(z, x)


def test_evaluation_runs_the_kernel_only_on_nonempty_operands(monkeypatch):
    """Work counts of the (2,2) Laplacian defects k=1..4 at the first three
    seed-0 Gauss points: no kernel call meets an empty operand, and each
    sign mask is computed once while the memo lasts."""
    kernel, odd_below = grassmann._mul_into, grassmann._odd_below
    empty, masks = [], []

    def counting_kernel(out, x, y, sign=1):
        if not x or not y:
            empty.append((x, y))
        kernel(out, x, y, sign)

    def counting_odd_below(m):
        masks.append(m)
        return odd_below(m)

    monkeypatch.setattr(grassmann, "_sign_masks", {})
    monkeypatch.setattr(grassmann, "_mul_into", counting_kernel)
    monkeypatch.setattr(grassmann, "_odd_below", counting_odd_below)
    rng = random.Random(0)
    points = [random_gauss_point(D22, rng) for _ in range(3)]
    for k in range(1, 5):
        f = laplacian_defect(D22, k)
        for p in points:
            assert p.evaluate(f).is_zero()
            assert not p.evaluate(f + r_func(D22) ** k).is_zero()
    assert masks and not empty
    assert len(grassmann._sign_masks) < grassmann._SIGN_MASKS_CAP
    assert len(masks) == len(set(masks)) == len(grassmann._sign_masks)


def test_sign_mask_memo_stays_under_its_cap(monkeypatch):
    """More distinct right-hand masks than the cap: the memo is emptied
    as it fills, and every product stays exact."""
    monkeypatch.setattr(grassmann, "_sign_masks", {})
    cap = grassmann._SIGN_MASKS_CAP
    n = (cap + 100).bit_length()
    x = GEl(n, {0: Scalar(2), 1: Scalar(0, 3), 1 << (n - 1): ONE})
    y = GEl(n, {m: Scalar(m % 7 - 3 or 1) for m in range(cap + 100)})
    for a, b in ((x, y), (y, x), (x, y)):
        assert a * b == ref_mul(a, b)
        assert len(grassmann._sign_masks) <= cap
    assert grassmann._sign_masks  # filled again after it was emptied


@pytest.mark.parametrize("dims", [D11, D21, D12, D22],
                         ids=["11", "21", "12", "22"])
def test_point_operations_match_gel_references(dims):
    rng = random.Random(32)
    p, q = (GroupPoint.from_matrix(dims, random_even_invertible(dims, rng))
            for _ in range(2))
    p_inv, q_inv = p.inverse_point(), q.inverse_point()
    assert p_inv.den > 1 and q_inv.den > 1  # rational souls
    reals = real_sample_points(dims)
    assert any(im for r in reals for _, im in r.num.values())  # complex
    for x in [p, q, p_inv, q_inv] + reals:
        assert x.inverse_point() == ref_inverse_point(x)
        assert x.theta_dual() == ref_theta_dual(x)
        assert x.is_real() == ref_is_real(x)
    pairs = [(p, q), (p_inv, q_inv), (q, p_inv), (p, p_inv)]
    u1 = reals[1]
    pairs += [(r, s) for r in reals for s in (u1, u1.inverse_point())]
    for x, y in pairs:
        assert x.convolve(y) == ref_convolve(x, y)
    assert p.convolve(p_inv) == GroupPoint.identity(dims, p.n)
