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
from typing import Iterable, Optional

from .grading import Dims
from .linalg import LinComb, add_term
from .scalar import Scalar, ZERO, ONE, MINUS_ONE
from .superpoly import render_terms

Letter = tuple  # (row, col)
Word = tuple  # (Letter, ...)

DEFAULT_DEGREE_CAP = 8


class DegreeCapError(RuntimeError):
    """Raised when a computation would exceed the PBW degree cap."""


# The cap in force, held once read (see degree_cap): a read of the
# environment costs as much as a short product.
_cap: Optional[int] = None


def _read_degree_cap() -> int:
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


def degree_cap() -> int:
    """The PBW degree cap in force.

    It is read from ``SUPERFN_DEGREE_CAP`` (default 8) the first time it is
    needed and then held: changing the variable later takes effect only
    after :func:`reread_degree_cap`, which ``superfn.cli.main`` calls at the
    start of each call.  Raises ``DegreeCapError`` on a value that is not a
    positive integer, and reads the variable again on the next call.
    """
    global _cap
    if _cap is None:
        _cap = _read_degree_cap()
    return _cap


def reread_degree_cap() -> None:
    """Drop the held cap, so the next word or product reads
    ``SUPERFN_DEGREE_CAP`` again (and refuses a bad value there)."""
    global _cap
    _cap = None


def _check_cap(length: int):
    """Refuse a word of ``length`` letters above the held cap; the first
    check after import or :func:`reread_degree_cap` reads the cap."""
    cap = _cap if _cap is not None else degree_cap()
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
        add_term(out, (c, b), MINUS_ONE if not sgn else ONE)
    return out


# PBW normal forms by (m, n, word), kept through _remember.  Emptying the
# memo mid-recursion changes no value: callers keep the dicts they got.
_NORMALIZE_CACHE_CAP = 65536
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
        _remember(_normalize_cache, _NORMALIZE_CACHE_CAP, key, result)
        return result
    x, y = word[pivot], word[pivot + 1]
    out: dict = {}
    if x == y:
        # adjacent equal odd letters: the square is (1/2)[x,x] = 0
        _remember(_normalize_cache, _NORMALIZE_CACHE_CAP, key, out)
        return out
    sgn = (dims.letter_par(*x) * dims.letter_par(*y)) & 1
    swap_coeff = MINUS_ONE if sgn else ONE
    swapped = word[:pivot] + (y, x) + word[pivot + 2:]
    for w, c in _normalize_word(dims, swapped).items():
        add_term(out, w, c * swap_coeff)
    for letter, bc in bracket(dims, x, y).items():
        shorter = word[:pivot] + (letter,) + word[pivot + 2:]
        for w, c in _normalize_word(dims, shorter).items():
            add_term(out, w, c * bc)
    _remember(_normalize_cache, _NORMALIZE_CACHE_CAP, key, out)
    return out


def word_parity(dims: Dims, word: Word) -> int:
    """Parity of a word: E_ab is odd exactly when one of a, b exceeds m.
    Raises ValueError on an index outside 1..m+n."""
    m, size = dims.m, dims.size
    odd = 0
    for a, b in word:
        if not 0 < a <= size >= b > 0:
            dims.par(a), dims.par(b)  # raises the index range error
        odd ^= (a > m) ^ (b > m)
    return odd


class UEl(LinComb):
    """An element of U(gl(m|n)), stored on the PBW basis."""

    __slots__ = ("dims",)
    _UNIT = ()
    _key_degree = staticmethod(len)

    def _key_parity(self, w: Word) -> int:
        return word_parity(self.dims, w)

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
        return UEl.word(dims, ((a, b),))

    @staticmethod
    def word(dims: Dims, letters: Iterable[tuple]) -> "UEl":
        w = tuple((a, b) for a, b in letters)
        size = dims.size
        for a, b in w:
            if not 0 < a <= size >= b > 0:
                dims.par(a), dims.par(b)  # raises the index range error
        _check_cap(len(w))
        return UEl(dims, dict(_normalize_word(dims, w)))

    def __mul__(self, other: "UEl") -> "UEl":
        """The product, straightened through the memoised normal forms.

        The first term pair's normal form seeds the result, as a copy: the
        result never shares a dict with the memo.  A coefficient that is
        ``ONE`` is never multiplied.
        """
        self._check(other)
        dims, t1, t2 = self.dims, self.terms, other.terms
        if not (t1 and t2):
            return UEl(dims)
        _check_cap(max(map(len, t1)) + max(map(len, t2)))
        out = None
        for w1, c1 in t1.items():
            for w2, c2 in t2.items():
                c = c2 if c1 is ONE else c1 if c2 is ONE else c1 * c2
                normal = _normalize_word(dims, w1 + w2)
                if out is None:
                    out = (dict(normal) if c is ONE
                           else {w: c * cc for w, cc in normal.items()})
                elif c is ONE:
                    for w, cc in normal.items():
                        add_term(out, w, cc)
                else:
                    for w, cc in normal.items():
                        add_term(out, w, c * cc)
        return UEl(dims, out)

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

    def pretty(self) -> str:
        """Render in the CLI expression grammar (re-parseable)."""
        return render_terms(self.terms, lambda w: (len(w), w),
                            lambda w: [f"E[{a},{b}]" for a, b in w])

    def __repr__(self):
        return f"UEl({self.pretty()})"


class TVec(LinComb):
    """An element of a tensor module V^{(x)k} (x) V*^{(x)l}.

    ``factors`` is a tuple of ``"v"`` / ``"vb"`` marking each slot as the
    natural module V (basis v_a) or its dual V* (basis vb_a); letters act
    by :func:`letter_column`.  Components are stored on the index-tuple
    basis.
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
        _check_kinds(factors)
        if len(idx) != len(factors):
            raise ValueError("index length must match factor count")
        for a in idx:
            dims.par(a)
        return TVec(dims, factors, {idx: ONE})

    def act_letter(self, a: int, b: int) -> "TVec":
        """Apply E_ab through its memoised :func:`letter_table`."""
        table = letter_table(self.dims, self.factors, (a, b))
        return self._like(_letter_times(table, self.terms))

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


def _check_kinds(kinds: tuple) -> None:
    """Refuse a factor kind other than "v" (V) and "vb" (V*)."""
    for kind in kinds:
        if kind != "v" and kind != "vb":
            raise ValueError(f"factor kind {kind!r} is neither 'v' nor 'vb'")


def letter_column(dims: Dims, factors: tuple, letter: Letter, idx) -> tuple:
    """E_letter on the basis tensor ``idx`` of ``factors``, as
    ((out_idx, int), ...), empty when E_letter kills it.

    This is the one place the module actions are written.  On V,
    E_ab v_c = delta_bc v_a; on V*, E_ab vb_c = -(-1)^{[a]+[a][b]} delta_ac
    vb_b.  Across slots the graded Leibniz rule holds: an odd letter picks
    up the Koszul sign of the slots before the one it acts on.  Equal
    outputs are summed (E_aa on v_a (x) v_a gives 2, and on v_a (x) vb_a it
    cancels) and zero values dropped.  Any other factor kind is refused
    with ValueError.
    """
    a, b = letter
    pa, pb = dims.par(a), dims.par(b)
    odd = pa ^ pb
    vb_sign = 1 if pa and not pb else -1
    out = {}
    prefix = 0
    for j, kind in enumerate(factors):
        c = idx[j]
        if kind == "v":
            hit, new, k = c == b, a, 1
        elif kind == "vb":
            hit, new, k = c == a, b, vb_sign
        else:
            _check_kinds(factors)  # raises
        if hit:
            if odd and prefix:
                k = -k
            o = idx[:j] + (new,) + idx[j + 1:]
            t = out.get(o, 0) + k
            if t:
                out[o] = t
            else:
                del out[o]
        prefix ^= dims.par(c)
    return tuple(out.items())


# Letter tables: E_letter on the tensor module of ``kinds`` as integer
# columns of :func:`letter_column`, one table per (m, n, kinds, letter),
# each column filled the first time it is looked up.  The memo is emptied
# when it reaches its cap (a dict evicting its oldest key one at a time
# scans ever more deleted slots).
_LETTER_TABLES_CAP = 512
_letter_tables: dict = {}


def _remember(memo: dict, cap: int, key, value):
    if len(memo) >= cap:
        memo.clear()
    memo[key] = value


class _LetterTable(dict):
    """E_letter on the tensor module of ``kinds``: in_idx -> ((out_idx,
    int), ...), empty for a basis tensor it kills; a column is computed
    when first looked up."""

    __slots__ = ("dims", "kinds", "letter")

    def __init__(self, dims: Dims, kinds: tuple, letter):
        super().__init__()
        self.dims = dims
        self.kinds = kinds
        self.letter = letter

    def __missing__(self, idx):
        col = letter_column(self.dims, self.kinds, self.letter, idx)
        self[idx] = col
        return col


def letter_table(dims: Dims, kinds: tuple, letter: Letter) -> _LetterTable:
    """The memoised integer table of E_letter on the tensor module of
    ``kinds`` (see :class:`_LetterTable`).  Shared: read only."""
    key = (dims.m, dims.n, kinds, letter)
    table = _letter_tables.get(key)
    if table is None:
        _check_kinds(kinds)
        dims.letter_par(*letter)  # raises the index range error
        table = _LetterTable(dims, kinds, letter)
        _remember(_letter_tables, _LETTER_TABLES_CAP, key, table)
    return table


def _letter_times(table: dict, vec: dict) -> dict:
    """The image of a vector idx -> coefficient (int or Scalar) under a
    letter table; zero values are dropped."""
    out = {}
    for idx, x in vec.items():
        for o, c in table[idx]:
            t = out.get(o, 0) + c * x
            if t:
                out[o] = t
            else:
                del out[o]
    return out


def invariant_letters(dims: Dims, blocks) -> list:
    """Generating letters of the Levi subalgebra of a block partition:
    every Cartan E_aa, plus the Chevalley pairs E_{c,c+1}, E_{c+1,c}
    internal to each block ``(lo, hi)``.  The single block ``(1, m+n)``
    gives 3(m+n)-2 letters that generate gl(m|n): brackets of neighbours
    reach every E_ab.  Overlapping blocks give each letter once, at its
    first occurrence.  Raises ValueError unless 1 <= lo <= hi <= m+n."""
    letters = {(a, a): None for a in dims.indices()}
    for lo, hi in blocks:
        if not 1 <= lo <= hi <= dims.size:
            raise ValueError(f"block ({lo}, {hi}) is not within 1..{dims.size}")
        for c in range(lo, hi):
            letters[c, c + 1] = None
            letters[c + 1, c] = None
    return list(letters)


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
