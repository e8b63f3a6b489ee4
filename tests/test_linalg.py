"""The exact eliminator: SparseEchelon, its reduced form, nullspaces and
the integer body inverse built on it, on seeded random sparse matrices
over Z, Z[i], Q and Q(i); and the graded core LinComb gives Poly, CG, UEl
and GEl: degree, parity and powers."""

import math
import random
from fractions import Fraction

import pytest

from superfn.cg import CG, TensorCG
from superfn.grading import Dims
from superfn.grassmann import GEl, _block_inverse
from superfn.linalg import SparseEchelon, add_term, cleared, kernel_dense
from superfn.scalar import Scalar, ZERO, ONE
from superfn.superpoly import Poly, symbol
from superfn.ugl import TVec, UEl

FIELDS = ["integer", "gaussian", "rational", "gaussian-rational"]


def _part(rng: random.Random, field: str):
    """A random real or imaginary part: an integer in [-3, 3], over a
    denominator in 1..7 for the rational fields."""
    num = rng.randint(-3, 3)
    if field in ("rational", "gaussian-rational"):
        return Fraction(num, rng.randint(1, 7))
    return num


def _entry(rng: random.Random, field: str) -> Scalar:
    while True:
        complex_field = field in ("gaussian", "gaussian-rational")
        im = _part(rng, field) if complex_field else 0
        c = Scalar(_part(rng, field), im)
        if c:
            return c


def _sparse_rows(rng: random.Random, field: str, ncols: int) -> list:
    """Random sparse rows of nonzero entries, some of them dependent."""
    rows = []
    for _ in range(rng.randint(1, ncols + 2)):
        if len(rows) >= 2 and rng.random() < 0.3:
            # a combination of two earlier rows keeps the rank down
            row = {}
            for src in rng.sample(rows, 2):
                c = _entry(rng, field)
                for k, v in src.items():
                    add_term(row, k, c * v)
        else:
            row = {j: _entry(rng, field)
                   for j in range(ncols) if rng.random() < 0.4}
        if row:
            rows.append(row)
    return rows


def _dense(rng: random.Random, field: str, size: int) -> list:
    return [[_entry(rng, field) if rng.random() < 0.7 else ZERO
             for _ in range(size)] for _ in range(size)]


def _matmul(a: list, b: list) -> list:
    n = len(b)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


def _identity(size: int) -> list:
    return [[ONE if i == j else ZERO for j in range(size)]
            for i in range(size)]


def _as_scalars(mat) -> list:
    return [[Scalar(c) for c in row] for row in mat]


def _invert(mat: list) -> list:
    """mat^{-1} by the integer body inverse: clear the Scalar rows,
    mat = N / b, invert N = re + i im by ``_block_inverse``, N^{-1} =
    (x + i y) / d, and divide: mat^{-1} = b (x + i y) / d."""
    size = len(mat)
    b, rows = cleared(dict(enumerate(row)) for row in mat)
    d, x, y = _block_inverse(rows)
    return [[Scalar(Fraction(b * x[i][j], d),
                    Fraction(b * y[i][j], d) if y else 0)
             for j in range(size)] for i in range(size)]


@pytest.mark.parametrize("field", FIELDS)
def test_reduced_rows_are_zero_at_every_other_pivot(field):
    rng = random.Random(11 if field == "integer" else 12)
    for _ in range(60):
        ncols = rng.randint(1, 8)
        ech = SparseEchelon()
        for row in _sparse_rows(rng, field, ncols):
            ech.insert(row)
        red = ech.reduced()
        assert sorted(red) == sorted(ech.rows)
        for piv, row in red.items():
            assert row[piv] == ONE
            assert min(row) == piv
            for other in red:
                if other != piv:
                    assert other not in row
            assert ech.contains(row)


@pytest.mark.parametrize("field", FIELDS)
def test_kernel_dense_is_the_canonical_nullspace_basis(field):
    rng = random.Random(21 if field == "integer" else 22)
    shuffler = random.Random(23)  # leaves rng's rows as they were
    nonzero_kernels = 0
    for _ in range(60):
        ncols = rng.randint(1, 8)
        rows = _sparse_rows(rng, field, ncols)
        ech = SparseEchelon()
        for row in rows:
            ech.insert(row)
        basis = kernel_dense(cleared(rows)[1], ncols)
        free = [j for j in range(ncols) if j not in ech.rows]
        assert len(basis) == ncols - ech.rank == len(free)
        nonzero_kernels += bool(basis)
        for vec, own in zip(basis, free):
            assert set(vec) <= set(range(ncols))
            assert all(c != ZERO for c in vec.values())
            for row in rows:
                assert sum((c * vec.get(k, ZERO) for k, c in row.items()),
                           ZERO) == 0
            for j in free:
                assert vec.get(j, ZERO) == (ONE if j == own else ZERO)
        shuffled = rows[:]
        shuffler.shuffle(shuffled)
        assert kernel_dense(cleared(shuffled)[1], ncols) == basis
    assert nonzero_kernels >= 20


def test_kernel_dense_of_no_constraints_is_the_standard_basis():
    assert kernel_dense([], 3) == [{0: ONE}, {1: ONE}, {2: ONE}]


@pytest.mark.parametrize("field", FIELDS)
def test_inverse_of_random_matrices(field):
    rng = random.Random(31 if field == "integer" else 32)
    inverted = 0
    for _ in range(60):
        size = rng.randint(1, 5)
        mat = _dense(rng, field, size)
        try:
            inv = _invert(mat)
        except ValueError:
            continue
        inverted += 1
        assert _matmul(mat, inv) == _identity(size)
        assert _matmul(inv, mat) == _identity(size)
    assert inverted >= 40


@pytest.mark.parametrize("mat", [
    [[0, 1], [1, 0]],
    [[0, 2, 1], [1, 1, 0], [3, 0, 1]],
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
])
def test_inverse_needs_a_pivot_swap(mat):
    mat = _as_scalars(mat)
    inv = _invert(mat)
    assert _matmul(mat, inv) == _identity(len(mat))


@pytest.mark.parametrize("mat", [
    [[0]],
    [[1, 2], [2, 4]],
    [[0, 0], [0, 0]],
    # the first two columns give pivots; the rank is lost only at column 3
    [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
    [[2, 1, 0], [1, 3, 0], [4, 1, 0]],
])
def test_inverse_rejects_singular_matrices(mat):
    with pytest.raises(ValueError, match="singular body matrix"):
        _invert(_as_scalars(mat))


@pytest.mark.parametrize("field", FIELDS)
def test_inverse_rejects_random_singular_matrices(field):
    rng = random.Random(41 if field == "integer" else 42)
    for _ in range(30):
        size = rng.randint(2, 5)
        mat = _dense(rng, field, size - 1)
        # last column: a combination of the others, so column size-1 has
        # no pivot although every earlier column may have one
        c = [_entry(rng, field) for _ in range(size - 1)]
        for row in mat:
            row.append(sum((ci * x for ci, x in zip(c, row)), ZERO))
        mat.append([_entry(rng, field) for _ in range(size)])
        # make the new last row consistent with the column dependency
        mat[-1][-1] = sum((ci * x for ci, x in zip(c, mat[-1])), ZERO)
        with pytest.raises(ValueError, match="singular body matrix"):
            _invert(mat)


class _PivotOneEchelon:
    """The reference eliminator: the same algorithm on Scalar rows, each
    scaled to 1 at its pivot, as SparseEchelon ran before it went
    fraction-free."""

    def __init__(self):
        self.rows: dict = {}
        self.payloads: dict = {}

    def reduce(self, vec: dict) -> dict:
        v = dict(vec)
        while v:
            piv = min(v)
            row = self.rows.get(piv)
            if row is None:
                return v
            c = -v[piv]
            for k, rv in row.items():
                add_term(v, k, c * rv)
        return v

    def insert(self, vec: dict, payload=None):
        rem = self.reduce(vec)
        if not rem:
            return None
        piv = min(rem)
        inv = ONE / rem[piv]
        self.rows[piv] = {k: c * inv for k, c in rem.items()}
        self.payloads[piv] = payload
        return piv

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def reduced(self) -> dict:
        out: dict = {}
        for piv in sorted(self.rows, reverse=True):
            row = dict(self.rows[piv])
            for q in [k for k in row if k in out]:
                c = -row[q]
                for k, rv in out[q].items():
                    add_term(row, k, c * rv)
            out[piv] = row
        return out


def _reference_kernel(rows: list, ncols: int) -> list:
    ech = _PivotOneEchelon()
    for row in rows:
        ech.insert(row)
    red = ech.reduced()
    basis = {free: [ZERO] * ncols for free in range(ncols) if free not in red}
    for free, vec in basis.items():
        vec[free] = ONE
    for piv, row in red.items():
        for free, c in row.items():
            if free != piv:
                basis[free][piv] = -c
    return list(basis.values())


def _pivot_kind(c: Scalar) -> str:
    if not c.im:
        return "real"
    return "imaginary" if not c.re else "complex"


def _combination(rng: random.Random, field: str, rows: list) -> dict:
    out: dict = {}
    for src in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
        c = _entry(rng, field)
        for k, v in src.items():
            add_term(out, k, c * v)
    return out


@pytest.mark.parametrize("field", FIELDS)
def test_echelon_matches_the_pivot_one_reference(field):
    rng = random.Random(51 + FIELDS.index(field))
    pivot_kinds = {"real": 0, "imaginary": 0, "complex": 0}
    for trial in range(80):
        ncols = rng.randint(1, 10)
        rows = _sparse_rows(rng, field, ncols)
        ech, ref = SparseEchelon(), _PivotOneEchelon()
        for i, row in enumerate(rows):
            rem = ref.reduce(row)
            if rem:
                pivot_kinds[_pivot_kind(rem[min(rem)])] += 1
            assert ech.insert(row, payload=(trial, i)) == \
                ref.insert(row, payload=(trial, i))
            assert ech.rank == len(ref.rows)
        assert ech.payloads == ref.payloads
        assert sorted(ech.rows) == sorted(ref.rows)
        probes = [{}] + [_combination(rng, field, rows) for _ in range(4)]
        probes += _sparse_rows(rng, field, ncols)
        for vec in probes:
            assert ech.contains(vec) == ref.contains(vec)
        assert ech.reduced() == ref.reduced()
        assert kernel_dense(cleared(rows)[1], ncols) == \
            [{j: c for j, c in enumerate(v) if c}
             for v in _reference_kernel(rows, ncols)]
    assert pivot_kinds["real"] >= 20
    if field.startswith("gaussian"):
        assert pivot_kinds["imaginary"] >= 5
        assert pivot_kinds["complex"] >= 20


@pytest.mark.parametrize("field", FIELDS)
def test_rows_are_primitive_with_a_positive_integer_pivot(field):
    rng = random.Random(61 + FIELDS.index(field))
    for _ in range(60):
        ech = SparseEchelon()
        for row in _sparse_rows(rng, field, rng.randint(1, 8)):
            ech.insert(row)
        for piv, (re, im) in ech.rows.items():
            values = [*re.values(), *im.values()]
            assert all(type(x) is int and x for x in values)
            assert min(re.keys() | im.keys()) == piv
            assert re[piv] > 0 and piv not in im
            assert math.gcd(*values) == 1


@pytest.mark.parametrize("field", FIELDS)
def test_cleared_integer_pairs_insert_like_their_scalar_dicts(field):
    # a vector given already cleared, as a Gaussian-integer pair, lands on
    # the same rows as the Scalar dict it clears
    rng = random.Random(71 + FIELDS.index(field))
    for _ in range(40):
        rows = _sparse_rows(rng, field, rng.randint(1, 8))
        ech, ech_int = SparseEchelon(), SparseEchelon()
        for i, row in enumerate(rows):
            _, (pair,) = cleared((row,))
            assert ech_int._insert_cleared(pair, payload=i) == ech.insert(
                row, payload=i)
        assert ech_int.rows == ech.rows
        assert ech_int.payloads == ech.payloads


def reference_cleared(elems):
    """cleared through Fraction: every part rescaled to the least common
    denominator."""
    elems = list(elems)
    den = math.lcm(*(Fraction(q).denominator for terms in elems
                     for c in terms.values() for q in (c.re, c.im)))
    return den, [
        tuple({k: int(Fraction(getattr(c, part)) * den)
               for k, c in terms.items() if getattr(c, part)}
              for part in ("re", "im"))
        for terms in elems
    ]


@pytest.mark.parametrize("field", FIELDS)
def test_cleared_matches_the_rescaling_reference(field):
    # all-int (integer, gaussian), rational and complex inputs, as int parts
    rng = random.Random(5 + FIELDS.index(field))
    for _ in range(40):
        elems = _sparse_rows(rng, field, rng.randint(1, 6))
        got = cleared(iter(elems))
        assert got == reference_cleared(elems)
        for num in got[1]:
            assert all(type(x) is int and x for part in num
                       for x in part.values())
    assert cleared([]) == (1, [])
    assert cleared([{}, {0: Scalar(2, -1)}]) == (1, [({}, {}),
                                                     ({0: 2}, {0: -1})])


# ------------------------------------------------------------- graded core

D11, D21 = Dims(1, 1), Dims(2, 1)
_COEFFS = [Scalar(1), Scalar(-2), Scalar(0, 1), Scalar(1) / Scalar(3),
           Scalar(-1, 2)]


def _graded_kit(kind: str):
    """(generators, unit, key degree, key parity) of one graded algebra,
    the last two written here from the definitions: a monomial's degree
    sums its exponents, a word's is its length and a mask's its bit count;
    a parity counts the odd factors."""
    if kind in ("Poly", "CG"):
        if kind == "Poly":
            gens = [Poly.from_symbol(symbol(tag, a, b, D11.letter_par(a, b)))
                    for tag in ("x", "xb") for a in (1, 2) for b in (1, 2)]
            unit = Poly.one()
        else:
            gens = [f(D11, a, b) for f in (CG.t, CG.tbar)
                    for a in (1, 2) for b in (1, 2)]
            unit = CG.one(D11)
        return (gens, unit, lambda m: sum(e for _, e in m),
                lambda m: sum(s[3] for s, _ in m) & 1)
    if kind == "UEl":
        gens = [UEl.letter(D21, a, b)
                for a in D21.indices() for b in D21.indices()]
        return (gens, UEl.one(D21), len,
                lambda w: sum(D21.letter_par(a, b) for a, b in w) & 1)
    return ([GEl.gen(4, j) for j in range(1, 5)], GEl.scalar(4, 1),
            lambda m: bin(m).count("1"), lambda m: bin(m).count("1") & 1)


@pytest.mark.parametrize("kind", ["Poly", "CG", "UEl", "GEl"])
def test_degree_parity_and_powers_of_the_graded_algebras(kind):
    rng = random.Random(31)
    gens, unit, key_degree, key_parity = _graded_kit(kind)
    zero = unit.scale(0)
    assert zero.degree() == -1 and zero.parity() is None
    assert unit.degree() == 0 and unit.parity() == 0
    seen = set()
    for _ in range(40):
        # up to three products of up to two generators
        x = zero
        for _ in range(rng.randint(1, 3)):
            term = unit.scale(rng.choice(_COEFFS))
            for _ in range(rng.randint(0, 2)):
                term = term * rng.choice(gens)
            x = x + term
        assert x.degree() == max(map(key_degree, x.terms), default=-1)
        pars = set(map(key_parity, x.terms))
        assert x.parity() == (pars.pop() if len(pars) == 1 else None)
        seen.add(x.parity())
        power = unit
        for k in range(4):
            assert x ** k == power, (kind, k)
            power = power * x
        with pytest.raises(ValueError, match="negative power"):
            x ** -1
    assert seen == {0, 1, None}


def test_tensor_containers_have_no_degree_parity_or_powers():
    for x in (TensorCG.unit(D11, 2), TensorCG(D11, 2),
              TVec.basis(D11, ("v", "vb"), (1, 2)), TVec(D11, ("v",))):
        with pytest.raises(AttributeError):
            x ** 2
        with pytest.raises(AttributeError):
            x.degree()
        with pytest.raises(AttributeError):
            x.parity()


def test_graded_reprs_print_in_the_expression_grammar():
    e = {(a, b): UEl.letter(Dims(2, 0), a, b) for a in (1, 2) for b in (1, 2)}
    u = e[1, 2] - (e[1, 1] * e[2, 2]).scale(2)
    assert repr(u) == "UEl(E[1,2] - 2*E[1,1]*E[2,2])" and u.pretty() in repr(u)
    assert repr(UEl.zero(D11)) == "UEl(0)"
    x = GEl.scalar(2, 5) + GEl.gen(2, 1) * GEl.gen(2, 2)
    assert repr(x) == "GEl(5 + theta1*theta2)"
    assert repr(GEl(3)) == "GEl(0)"
    assert repr(GEl.gen(3, 2).scale(Scalar(0, -1))) == "GEl(-1*i*theta2)"
