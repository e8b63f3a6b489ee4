"""Exact sparse linear algebra over Q(i): linear combinations and echelon.

Vectors are dicts mapping orderable keys to nonzero :class:`Scalar` values.
:func:`add_term` is the one accumulation step on such dicts, and
:class:`LinComb` wraps one with the vector-space operations shared by every
sparse container of the package (polynomials, PBW elements, tensor-module
vectors, coproduct tensors and Grassmann elements).
"""

from __future__ import annotations

from typing import Optional

from .scalar import Scalar, ZERO, ONE


def add_term(terms: dict, key, c: Scalar):
    """Add c into terms[key], dropping the key when the sum is zero."""
    cur = terms.get(key)
    tot = c if cur is None else cur + c
    if tot:
        terms[key] = tot
    elif cur is not None:
        del terms[key]


class LinComb:
    """A finite Scalar-linear combination held as ``terms``: key -> Scalar.

    Subclasses supply ``_like(terms)``, a copy of themselves around a new
    dict, and ``_shape()``, the state two operands must share to be added
    or compared.
    """

    __slots__ = ("terms",)

    def _like(self, terms: dict):
        raise NotImplementedError

    def _shape(self):
        return ()

    def _check(self, other: "LinComb"):
        if self._shape() != other._shape():
            raise ValueError(f"mismatched {type(self).__name__} operands")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            add_term(terms, k, c)
        return self._like(terms)

    def __sub__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            add_term(terms, k, -c)
        return self._like(terms)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = c if isinstance(c, Scalar) else Scalar(c)
        if not c:
            return self._like({})
        return self._like({k: cc * c for k, cc in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._shape() == other._shape()
            and self.terms == other.terms
        )


class SparseEchelon:
    """Incremental echelon basis of sparse vectors, with optional payloads."""

    __slots__ = ("rows", "payloads")

    def __init__(self):
        self.rows: dict = {}  # pivot key -> row dict, row[pivot] == 1
        self.payloads: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """Remainder of vec modulo the current row space."""
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

    def insert(self, vec: dict, payload=None) -> Optional[object]:
        """Insert vec if independent; returns its pivot key or None."""
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
        """Back-substitution: {pivot: row}, each row zero at every other pivot.

        A row's keys are never below its pivot, so the rows are finished
        from the highest pivot down, each cleared by the finished rows above.
        """
        out: dict = {}
        for piv in sorted(self.rows, reverse=True):
            row = dict(self.rows[piv])
            for q in [k for k in row if k in out]:
                c = -row[q]
                for k, rv in out[q].items():
                    add_term(row, k, c * rv)
            out[piv] = row
        return out


def kernel_dense(constraint_rows, ncols: int) -> list:
    """Nullspace basis of a constraint matrix.

    ``constraint_rows`` iterates dicts {col: Scalar} of nonzero entries with
    0 <= col < ncols; returns a list of dense solution vectors (lists of
    Scalars), one per free column in increasing order, in reduced echelon
    normal form: 1 at its own free column and 0 at the others.
    """
    ech = SparseEchelon()
    for row in constraint_rows:
        ech.insert(row)
    rows = ech.reduced()
    basis = {free: [ZERO] * ncols for free in range(ncols) if free not in rows}
    for free, vec in basis.items():
        vec[free] = ONE
    for piv, row in rows.items():
        for free, c in row.items():
            if free != piv:
                basis[free][piv] = -c
    return list(basis.values())
