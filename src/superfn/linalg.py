"""Exact sparse linear algebra over Q(i): linear combinations and echelon.

Vectors are dicts mapping orderable keys to nonzero :class:`Scalar` values.
:func:`add_term` is the one accumulation step on such dicts, and
:class:`LinComb` wraps one with the vector-space operations shared by every
sparse container of the package (polynomials, PBW elements, tensor-module
vectors, coproduct tensors and Grassmann elements).  The three Z/2-graded
algebras among them, polynomials (``Poly``), U(gl(m|n)) (``UEl``) and
Grassmann elements (``GEl``), take their degree, parity and powers from
:class:`LinComb` too.

Exact integer work runs on Gaussian-integer vectors, each a (re, im) pair of
key -> int dicts; a real vector has an empty im dict.  :func:`cleared` puts
Scalar dicts over one denominator as such pairs and :func:`divided` turns a
pair back into Scalars.  :class:`SparseEchelon` eliminates on them.
"""

from __future__ import annotations

import math
from typing import Optional

from .scalar import Scalar, ONE, _mk, _part, _rat


def add_term(terms: dict, key, c):
    """Add c, a Scalar or an int, into terms[key], dropping the key when
    the sum is zero."""
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

    A graded algebra also sets ``_UNIT``, the key of its unit, and supplies
    ``_key_degree(key)`` and ``_key_parity(key)``, the degree and parity of
    one basis element; :meth:`degree`, :meth:`parity` and ``**`` read
    them.  A container without them (a tensor-module vector, a coproduct
    tensor) has no degree, parity or powers: each raises AttributeError.
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

    def degree(self) -> int:
        """The largest degree of a term; -1 for zero."""
        return max(map(self._key_degree, self.terms), default=-1)

    def parity(self) -> Optional[int]:
        """0 or 1 when every term has that parity; None for mixed or zero."""
        pars = set(map(self._key_parity, self.terms))
        return pars.pop() if len(pars) == 1 else None

    def __pow__(self, k: int):
        """The k-fold product, built from the unit."""
        if k < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        out = self._like({self._UNIT: ONE})
        for _ in range(k):
            out = out * self
        return out


def cleared(elems) -> tuple:
    """Clear key -> Scalar dicts over one denominator.

    Returns (L, nums): L is the least common denominator of all their
    coefficients, and elems[i] = nums[i] / L with nums[i] a Gaussian-integer
    (re, im) pair of key -> int dicts, each holding only nonzero values.
    """
    elems = list(elems)
    den = math.lcm(*(
        q.denominator
        for terms in elems
        for c in terms.values()
        for q in (c.re, c.im)
    ))
    return den, [
        (
            {k: c.re.numerator * (den // c.re.denominator)
             for k, c in terms.items() if c.re},
            {k: c.im.numerator * (den // c.im.denominator)
             for k, c in terms.items() if c.im},
        )
        for terms in elems
    ]


def divided(num: tuple, den: int) -> dict:
    """The key -> Scalar dict num / den, num a Gaussian-integer (re, im)
    pair; one division per part, each made canonical, keys in increasing
    order."""
    re, im = num
    return {
        k: _mk(_part(_rat(re[k], den)) if k in re else 0,
               _part(_rat(im[k], den)) if k in im else 0)
        for k in sorted(re.keys() | im.keys())
    }


def _add_scaled(dst: dict, c: int, src: dict) -> None:
    """dst += c * src on key -> int dicts, dropping keys that reach zero."""
    if not c:
        return
    for k, x in src.items():
        t = dst.get(k, 0) + c * x
        if t:
            dst[k] = t
        else:
            del dst[k]


def _times(v: tuple, a: int, b: int) -> tuple:
    """(a + b i) v for a Gaussian-integer (re, im) pair v."""
    vr, vi = v
    re, im = {}, {}
    _add_scaled(re, a, vr)
    _add_scaled(re, -b, vi)
    _add_scaled(im, a, vi)
    _add_scaled(im, b, vr)
    return re, im


def _primitive(v: tuple) -> tuple:
    """v divided by the gcd of all its integers."""
    vr, vi = v
    g = math.gcd(*vr.values(), *vi.values())
    if g == 1:
        return v
    return ({k: x // g for k, x in vr.items()},
            {k: x // g for k, x in vi.items()})


def _eliminate(v: tuple, piv, row: tuple) -> None:
    """Clear v at piv by row, in place: v <- (P/g) v - (c/g) row.

    row is a Gaussian-integer pair whose entry at piv is the positive
    integer P, c is v's entry there and g = gcd(P, c).
    """
    vr, vi = v
    rr, ri = row
    p = rr[piv]
    cr, ci = vr.get(piv, 0), vi.get(piv, 0)
    g = math.gcd(p, cr, ci)
    s, a, b = p // g, cr // g, ci // g
    if s != 1:
        for k in vr:
            vr[k] *= s
        for k in vi:
            vi[k] *= s
    # (a + b i)(rr + ri i) = (a rr - b ri) + (a ri + b rr) i
    _add_scaled(vr, -a, rr)
    _add_scaled(vr, b, ri)
    _add_scaled(vi, -a, ri)
    _add_scaled(vi, -b, rr)
    # zero by construction; dropped outright, so every step raises v's
    # least key and the elimination always ends
    vr.pop(piv, None)
    vi.pop(piv, None)


def _lead(v: tuple):
    """The least key of a nonzero Gaussian-integer pair."""
    vr, vi = v
    if not vi:
        return min(vr)
    if not vr:
        return min(vi)
    return min(min(vr), min(vi))


class SparseEchelon:
    """Incremental echelon basis of sparse vectors, with optional payloads.

    Vectors come in as key -> Scalar dicts over Q(i).  Each is cleared of
    denominators once and eliminated fraction-free: a row is a primitive
    Gaussian-integer (re, im) pair of key -> int dicts whose entry at its
    pivot, its least key, is a positive integer.  Scalars are built again
    only by :meth:`reduced`, one division per entry.
    """

    __slots__ = ("rows", "payloads")

    def __init__(self):
        self.rows: dict = {}  # pivot key -> (re, im), re[pivot] > 0
        self.payloads: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _remainder(self, v: tuple) -> tuple:
        """Reduce the Gaussian-integer pair v modulo the row space, in
        place; returns v and its least key (None when v was in the row
        space)."""
        rows = self.rows
        while v[0] or v[1]:
            piv = _lead(v)
            row = rows.get(piv)
            if row is None:
                return v, piv
            _eliminate(v, piv, row)
        return v, None

    def insert(self, vec: dict, payload=None) -> Optional[object]:
        """Insert vec if independent; returns its pivot key or None."""
        _, (v,) = cleared((vec,))
        return self._insert_cleared(v, payload)

    def _insert_cleared(self, v: tuple, payload=None) -> Optional[object]:
        """:meth:`insert` for a vector already cleared to a Gaussian-integer
        (re, im) pair of key -> int dicts; v is reduced in place."""
        v, piv = self._remainder(v)
        if piv is None:
            return None
        cr, ci = v[0].get(piv, 0), v[1].get(piv, 0)
        if ci or cr < 0:
            # times the conjugate: the pivot becomes cr^2 + ci^2 > 0
            v = _times(v, cr, -ci)
        self.rows[piv] = _primitive(v)
        self.payloads[piv] = payload
        return piv

    def contains(self, vec: dict) -> bool:
        _, (v,) = cleared((vec,))
        return self._remainder(v)[1] is None

    def reduced(self) -> dict:
        """Back-substitution: {pivot: row}, each row a key -> Scalar dict
        equal to 1 at its pivot and zero at every other pivot; each row of
        :meth:`_reduced_cleared` divided by its pivot entry."""
        return {piv: divided(row, row[0][piv])
                for piv, row in self._reduced_cleared().items()}

    def _reduced_cleared(self) -> dict:
        """Back-substitution on integers: {pivot: row}, each row a primitive
        Gaussian-integer pair with a positive integer P at its pivot and
        zero at every other pivot, so that row / P is the reduced row at
        lowest terms: P is the least common denominator of its entries.

        A row's keys are never below its pivot, so the rows are finished
        from the highest pivot down, each cleared by the finished rows above.
        """
        done: dict = {}
        for piv in sorted(self.rows, reverse=True):
            rr, ri = self.rows[piv]
            row = (dict(rr), dict(ri))
            for q in [k for k in rr.keys() | ri.keys() if k in done]:
                _eliminate(row, q, done[q])
            done[piv] = _primitive(row)
        return done


def kernel_dense(rows, ncols: int) -> list:
    """Nullspace basis of a constraint matrix.

    ``rows`` iterates cleared rows, Gaussian-integer (re, im) pairs of
    {col: int} dicts with 0 <= col < ncols, as :func:`cleared` returns
    them; each is reduced in place.  Returns one sparse {col: Scalar}
    solution per free column in increasing order, in reduced echelon
    normal form: 1 at its own free column and absent at the others.  The
    rows enter in descending order of their least column, shorter rows
    first among equal ones, which changes no answer but saves elimination
    steps; empty rows constrain nothing and are skipped.
    """
    ech = SparseEchelon()
    nonempty = [row for row in rows if row[0] or row[1]]
    nonempty.sort(key=lambda row: (-_lead(row), len(row[0]) + len(row[1])))
    for row in nonempty:
        ech._insert_cleared(row)
    reduced = ech.reduced()
    basis = {free: {free: ONE} for free in range(ncols) if free not in reduced}
    for piv, row in reduced.items():
        for free, c in row.items():
            if free != piv:
                basis[free][piv] = -c
    return list(basis.values())
