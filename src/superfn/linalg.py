"""Exact sparse linear algebra over Q(i): linear combinations and echelon.

Vectors are dicts mapping orderable keys to nonzero :class:`Scalar` values.
:func:`add_term` is the one accumulation step on such dicts, and
:class:`LinComb` wraps one with the vector-space operations shared by every
sparse container of the package (polynomials, PBW elements, tensor-module
vectors, coproduct tensors and Grassmann elements).
"""

from __future__ import annotations

from typing import Optional

from .scalar import Scalar, ONE


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


def kernel_dense(constraint_rows, ncols: int) -> list:
    """Nullspace basis of a constraint matrix.

    ``constraint_rows`` iterates dicts {col: Scalar} with 0 <= col < ncols;
    returns a list of dense solution vectors (lists of Scalars), one per
    free column, in reduced echelon normal form.
    """
    zero = Scalar(0)
    rref: list = []  # (pivot_col, dense row)
    for sparse in constraint_rows:
        row = [zero] * ncols
        for k, c in sparse.items():
            row[k] = c
        for pc, rr in rref:
            c = row[pc]
            if c:
                for j in range(ncols):
                    if rr[j]:
                        row[j] = row[j] - c * rr[j]
        pivot = next((j for j in range(ncols) if row[j]), None)
        if pivot is None:
            continue
        inv = ONE / row[pivot]
        row = [c * inv for c in row]
        for pc, rr in rref:
            c = rr[pivot]
            if c:
                for j in range(ncols):
                    if row[j]:
                        rr[j] = rr[j] - c * row[j]
        rref.append((pivot, row))
    pivot_cols = {pc for pc, _ in rref}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [zero] * ncols
        vec[free] = ONE
        for pc, rr in rref:
            if rr[free]:
                vec[pc] = -rr[free]
        basis.append(vec)
    return basis
