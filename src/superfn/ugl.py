"""The universal enveloping algebra of gl(m|n) and its tensor modules.

Letters are elementary matrices ``E_ab`` stored as pairs ``(a, b)``.  Words
are straightened into the PBW basis indexed by weakly increasing letter
sequences (lexicographic order on ``(row, col)``); an odd letter never
repeats, since ``[E_ab, E_ab] = 0`` forces its square to vanish.

The super bracket is
``[E_ab, E_cd] = delta_bc E_ad - (-1)^{([a]+[b])([c]+[d])} delta_ad E_cb``.
"""

from __future__ import annotations

import os
from itertools import product as _iproduct
from typing import Iterable, Optional

from .grading import Dims
from .linalg import LinComb, add_term
from .scalar import Scalar, ZERO, ONE

Letter = tuple  # (row, col)
Word = tuple  # (Letter, ...)

DEFAULT_DEGREE_CAP = 8


class DegreeCapError(RuntimeError):
    """Raised when a computation would exceed the PBW degree cap."""


def degree_cap() -> int:
    raw = os.environ.get("SUPERFN_DEGREE_CAP")
    if raw is None:
        return DEFAULT_DEGREE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DegreeCapError(f"bad SUPERFN_DEGREE_CAP: {raw!r}") from exc
    if cap < 1:
        raise DegreeCapError(f"bad SUPERFN_DEGREE_CAP: {raw!r}")
    return cap


def _check_cap(length: int):
    cap = degree_cap()
    if length > cap:
        raise DegreeCapError(
            f"word of degree {length} exceeds degree cap {cap} "
            "(set SUPERFN_DEGREE_CAP to raise it)"
        )


def bracket(dims: Dims, x: Letter, y: Letter) -> dict:
    """Super bracket of two letters as a letter -> Scalar map."""
    a, b = x
    c, d = y
    out = {}
    if b == c:
        add_term(out, (a, d), ONE)
    if a == d:
        sgn = (dims.letter_par(a, b) * dims.letter_par(c, d)) & 1
        add_term(out, (c, b), Scalar(-1) if not sgn else ONE)
    return out


_normalize_cache: dict = {}


def _normalize_word(dims: Dims, word: Word) -> dict:
    key = (dims.m, dims.n, word)
    cached = _normalize_cache.get(key)
    if cached is not None:
        return cached
    pivot = -1
    for i in range(len(word) - 1):
        x, y = word[i], word[i + 1]
        if x > y or (x == y and dims.letter_par(*x)):
            pivot = i
            break
    if pivot < 0:
        result = {word: ONE}
        _normalize_cache[key] = result
        return result
    x, y = word[pivot], word[pivot + 1]
    out: dict = {}
    if x == y:
        # adjacent equal odd letters: the square is (1/2)[x,x] = 0
        _normalize_cache[key] = out
        return out
    sgn = (dims.letter_par(*x) * dims.letter_par(*y)) & 1
    swap_coeff = Scalar(-1) if sgn else ONE
    swapped = word[:pivot] + (y, x) + word[pivot + 2:]
    for w, c in _normalize_word(dims, swapped).items():
        add_term(out, w, c * swap_coeff)
    for letter, bc in bracket(dims, x, y).items():
        shorter = word[:pivot] + (letter,) + word[pivot + 2:]
        for w, c in _normalize_word(dims, shorter).items():
            add_term(out, w, c * bc)
    _normalize_cache[key] = out
    return out


def word_parity(dims: Dims, word: Word) -> int:
    return sum(dims.letter_par(a, b) for a, b in word) & 1


class UEl(LinComb):
    """An element of U(gl(m|n)), stored on the PBW basis."""

    __slots__ = ("dims",)

    def __init__(self, dims: Dims, terms: Optional[dict] = None):
        self.dims = dims
        self.terms = terms if terms is not None else {}

    def _like(self, terms: dict) -> "UEl":
        return UEl(self.dims, terms)

    def _shape(self):
        return self.dims

    @staticmethod
    def zero(dims: Dims) -> "UEl":
        return UEl(dims)

    @staticmethod
    def one(dims: Dims) -> "UEl":
        return UEl(dims, {(): ONE})

    @staticmethod
    def from_scalar(dims: Dims, c) -> "UEl":
        c = c if isinstance(c, Scalar) else Scalar(c)
        return UEl(dims, {(): c}) if c else UEl(dims)

    @staticmethod
    def letter(dims: Dims, a: int, b: int) -> "UEl":
        dims.par(a), dims.par(b)  # index range check
        return UEl(dims, {((a, b),): ONE})

    @staticmethod
    def word(dims: Dims, letters: Iterable[tuple]) -> "UEl":
        w = tuple((a, b) for a, b in letters)
        for a, b in w:
            dims.par(a), dims.par(b)
        _check_cap(len(w))
        return UEl(dims, dict(_normalize_word(dims, w)))

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def parity(self) -> Optional[int]:
        pars = {word_parity(self.dims, w) for w in self.terms}
        if len(pars) == 1:
            return pars.pop()
        return None

    def __mul__(self, other: "UEl") -> "UEl":
        self._check(other)
        if self.terms and other.terms:
            _check_cap(self.degree() + other.degree())
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                c = c1 * c2
                for w, cc in _normalize_word(self.dims, w1 + w2).items():
                    add_term(out, w, c * cc)
        return UEl(self.dims, out)

    def __pow__(self, k: int) -> "UEl":
        if k < 0:
            raise ValueError("negative power in U(gl(m|n))")
        out = UEl.one(self.dims)
        for _ in range(k):
            out = out * self
        return out

    def counit(self) -> Scalar:
        """epsilon: the coefficient of the empty word."""
        return self.terms.get((), ZERO)

    def antipode(self) -> "UEl":
        """S(x) = -x on letters, extended as a graded anti-automorphism."""
        out = {}
        for w, c in self.terms.items():
            odd = sum(self.dims.letter_par(a, b) for a, b in w)
            sgn = (len(w) + odd * (odd - 1) // 2) & 1
            coeff = -c if sgn else c
            for ww, cc in _normalize_word(self.dims, tuple(reversed(w))).items():
                add_term(out, ww, coeff * cc)
        return UEl(self.dims, out)

    def theta_star(self) -> "UEl":
        """The conjugate-linear anti-automorphism with E_ab -> E_ba."""
        out = {}
        for w, c in self.terms.items():
            flipped = tuple((b, a) for a, b in reversed(w))
            coeff = c.conj()
            for ww, cc in _normalize_word(self.dims, flipped).items():
                add_term(out, ww, coeff * cc)
        return UEl(self.dims, out)

    def __repr__(self):
        if not self.terms:
            return "UEl(0)"
        bits = []
        for w in sorted(self.terms):
            c = self.terms[w]
            if not w:
                bits.append(str(c))
            else:
                mono = "*".join(f"E[{a},{b}]" for a, b in w)
                bits.append(f"({c})*{mono}")
        return "UEl(" + " + ".join(bits) + ")"


def split_word(dims: Dims, word: Word, slots: int):
    """All ways to distribute a word's letters over ``slots`` tensor slots.

    Yields ``(subwords, sign)`` where ``subwords`` is a tuple of letter
    tuples (order preserved) and ``sign`` is the Koszul parity picked up by
    moving each letter into its slot (a pair i < j with slot_i > slot_j
    contributes ``par_i * par_j``).  This is the d-fold coproduct of the
    word, since Delta(E) = E (x) 1 + 1 (x) E.
    """
    pars = [dims.letter_par(a, b) for a, b in word]
    d = len(word)
    for assign in _iproduct(range(slots), repeat=d):
        sign = 0
        for j in range(d):
            if pars[j]:
                for i in range(j):
                    if pars[i] and assign[i] > assign[j]:
                        sign ^= 1
        subwords = tuple(
            tuple(word[i] for i in range(d) if assign[i] == s)
            for s in range(slots)
        )
        yield subwords, sign


class TVec(LinComb):
    """An element of a tensor module V^{(x)k} (x) V*^{(x)l}.

    ``factors`` is a tuple of ``"v"`` / ``"vb"`` marking each slot as the
    natural module V (basis v_a, E_ab v_c = delta_bc v_a) or its dual V*
    (basis vb_a, E_ab vb_c = -(-1)^{[a]+[a][b]} delta_ac vb_b).  Components
    are stored on the index-tuple basis.
    """

    __slots__ = ("dims", "factors")

    def __init__(self, dims: Dims, factors: tuple, terms: Optional[dict] = None):
        self.dims = dims
        self.factors = tuple(factors)
        self.terms = terms if terms is not None else {}

    def _like(self, terms: dict) -> "TVec":
        return TVec(self.dims, self.factors, terms)

    def _shape(self):
        return self.dims, self.factors

    @staticmethod
    def basis(dims: Dims, factors, idx) -> "TVec":
        idx = tuple(idx)
        factors = tuple(factors)
        if len(idx) != len(factors):
            raise ValueError("index length must match factor count")
        for a in idx:
            dims.par(a)
        return TVec(dims, factors, {idx: ONE})

    def act_letter(self, a: int, b: int) -> "TVec":
        """Apply E_ab by the graded Leibniz rule across the slots."""
        dims = self.dims
        xpar = dims.letter_par(a, b)
        out = {}
        vb_coeff = Scalar(-1) if (dims.par(a) * (1 + dims.par(b))) % 2 == 0 else ONE
        for idx, c in self.terms.items():
            prefix = 0
            for j, kind in enumerate(self.factors):
                coeff = c
                if xpar and prefix:
                    coeff = -coeff
                if kind == "v":
                    if idx[j] == b:
                        add_term(out, idx[:j] + (a,) + idx[j + 1:], coeff)
                else:
                    if idx[j] == a:
                        add_term(out, idx[:j] + (b,) + idx[j + 1:], coeff * vb_coeff)
                prefix ^= dims.par(idx[j])
        return TVec(dims, self.factors, out)

    def act_word(self, word: Word) -> "TVec":
        """Apply a word outermost-first: the last letter acts first."""
        v = self
        for a, b in reversed(word):
            v = v.act_letter(a, b)
        return v

    def act(self, u: UEl) -> "TVec":
        if u.dims != self.dims:
            raise ValueError("mismatched gl(m|n) dimensions")
        out = {}
        for w, c in u.terms.items():
            for idx, cc in self.act_word(w).terms.items():
                add_term(out, idx, cc * c)
        return TVec(self.dims, self.factors, out)

    def __repr__(self):
        return f"TVec({self.factors}, {self.terms})"


def letter_matrix(dims: Dims, factors: tuple, letter: Letter) -> dict:
    """E_letter on the tensor module of ``factors``.

    Returns {in_idx: [(out_idx, coeff), ...]} over the index-tuple basis in
    ``itertools.product`` order, omitting the basis vectors E_letter kills.
    """
    mat = {}
    for idx in _iproduct(dims.indices(), repeat=len(factors)):
        acted = TVec.basis(dims, factors, idx).act_letter(*letter)
        if acted.terms:
            mat[idx] = list(acted.terms.items())
    return mat


def z_central(dims: Dims) -> UEl:
    """The grading element sum_a E_aa."""
    return UEl(dims, {((a, a),): ONE for a in dims.indices()})


def casimir(dims: Dims) -> UEl:
    """The quadratic Casimir sum_{a,b} (-1)^{[b]} E_ab E_ba."""
    out = UEl.zero(dims)
    for a in dims.indices():
        for b in dims.indices():
            term = UEl.word(dims, [(a, b), (b, a)])
            if dims.par(b):
                term = -term
            out = out + term
    return out


def laplacian(dims: Dims) -> UEl:
    """-sum_{i<m+n} E_{i,m+n} E_{m+n,i}, the radial Laplacian letter word."""
    s = dims.size
    out = UEl.zero(dims)
    for i in range(1, s):
        out = out - UEl.word(dims, [(i, s), (s, i)])
    return out
