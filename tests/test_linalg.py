"""The exact eliminator: SparseEchelon, its reduced form, nullspaces and
inverses, on seeded random sparse integer and Gaussian-integer matrices."""

import random

import pytest

from superfn.grassmann import _invert_scalar_matrix
from superfn.linalg import SparseEchelon, add_term, kernel_dense
from superfn.scalar import Scalar, ZERO, ONE

FIELDS = ["integer", "gaussian"]


def _entry(rng: random.Random, field: str) -> Scalar:
    while True:
        im = rng.randint(-3, 3) if field == "gaussian" else 0
        c = Scalar(rng.randint(-3, 3), im)
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
    nonzero_kernels = 0
    for _ in range(60):
        ncols = rng.randint(1, 8)
        rows = _sparse_rows(rng, field, ncols)
        ech = SparseEchelon()
        for row in rows:
            ech.insert(row)
        basis = kernel_dense(rows, ncols)
        free = [j for j in range(ncols) if j not in ech.rows]
        assert len(basis) == ncols - ech.rank == len(free)
        nonzero_kernels += bool(basis)
        for vec, own in zip(basis, free):
            assert len(vec) == ncols
            for row in rows:
                assert sum((c * vec[k] for k, c in row.items()), ZERO) == 0
            for j in free:
                assert vec[j] == (ONE if j == own else ZERO)
    assert nonzero_kernels >= 20


def test_kernel_dense_of_no_constraints_is_the_standard_basis():
    assert kernel_dense([], 3) == _identity(3)


@pytest.mark.parametrize("field", FIELDS)
def test_inverse_of_random_matrices(field):
    rng = random.Random(31 if field == "integer" else 32)
    inverted = 0
    for _ in range(60):
        size = rng.randint(1, 5)
        mat = _dense(rng, field, size)
        try:
            inv = _invert_scalar_matrix(mat)
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
    inv = _invert_scalar_matrix(mat)
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
        _invert_scalar_matrix(_as_scalars(mat))


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
            _invert_scalar_matrix(mat)
