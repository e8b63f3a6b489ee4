"""The Hopf superalgebra of regular functions on the supergroup GL(m|n).

Elements are represented by polynomials in the matrix-coefficient generators
``t_ab`` (natural module V) and ``tbar_ab`` (dual module V*), both of parity
``[a]+[b]``, taken modulo the defining ideal J generated by

    sum_c (-1)^{[c][a]+[b]} t_ac tbar_bc - delta_ab      (rows)
    sum_c (-1)^{[b][c]+[c]} tbar_ca t_cb - delta_ab      (columns)

Arithmetic is on representatives; equality modulo J is decided by the two
zero-test oracles in :func:`is_zero_mod_j`.

Hopf structure on generators (g either t or tbar):

    Delta(g_ab) = sum_c (-1)^{([c]+[a])([c]+[b])} g_ac (x) g_cb
    epsilon(g_ab) = delta_ab
    S(t_ab) = (-1)^{[a][b]+[a]} tbar_ba
    S(tbar_ab) = (-1)^{[a][b]+[b]} t_ba

and the compact-form star structure

    omega(t_ab) = (-1)^{[b]([a]+[b])} tbar_ab,
    omega(tbar_ab) = (-1)^{[b]([a]+[b])} t_ab,

a conjugate-linear anti-automorphism with omega^2 = id.

These signs are implemented once, in :func:`grading.delta_sign`,
:func:`grading.antipode_image` and :func:`grading.omega_image`, which the
group points of :mod:`superfn.grassmann` read too.  S and omega reach
monomials through one reversal rule, :func:`_reversed_monomial`: the
factors' images are merged in reverse order; S adds (-1)^(k choose 2) for
k odd factors, and omega, which adds no sign, conjugates the coefficient.
``CG.antipode``, ``CG.omega``, :func:`antipode_convolution` and
:func:`omega_star_delta` all read it.

Duality with U(gl(m|n)) is the graded pairing determined by
``<t_ab, E_cd> = delta_ac delta_bd`` and
``<tbar_ab, E_cd> = -(-1)^{[a][b]+[b]} delta_bc delta_ad`` together with
``<fg, u> = sum (-1)^{[g][u_(1)]} <f, u_(1)> <g, u_(2)>``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import grassmann
from .grading import Dims, antipode_image, delta_sign, omega_image
from .linalg import LinComb, SparseEchelon, add_term, cleared
from .scalar import Scalar, ZERO, ONE, sign_pow
from .superpoly import (
    Monomial,
    Poly,
    _merge_monomials,
    monomial_parity,
    symbol,
)
from .ugl import (UEl, _letter_times, _remember, invariant_letters,
                  letter_table)

PAIRING_FLAT_CAP = 5000


class DimCapError(RuntimeError):
    """Raised when an exact-oracle workspace would exceed its size cap."""


def _gen_symbol(dims: Dims, tag: str, a: int, b: int):
    return symbol(tag, a, b, dims.letter_par(a, b))


class CG(Poly):
    """An element of the function algebra: a representative Poly that
    carries its (m|n).  Sums, products and equality are of representatives,
    not of classes mod J, and refuse operands of other dims."""

    __slots__ = ("dims",)

    def __init__(self, dims: Dims, terms: Optional[dict] = None):
        self.dims = dims
        self.terms = terms if terms is not None else {}

    def _like(self, terms: dict) -> "CG":
        return CG(self.dims, terms)

    def _shape(self):
        return self.dims

    @property
    def poly(self) -> Poly:
        """The representative as a bare Poly (read by perfbench's tracer)."""
        return Poly(self.terms)

    @staticmethod
    def t(dims: Dims, a: int, b: int) -> "CG":
        return CG(dims, Poly.from_symbol(_gen_symbol(dims, "t", a, b)).terms)

    @staticmethod
    def tbar(dims: Dims, a: int, b: int) -> "CG":
        return CG(dims, Poly.from_symbol(_gen_symbol(dims, "tb", a, b)).terms)

    @staticmethod
    def from_symbol(dims: Dims, sym) -> "CG":
        """The generator sym, a t or tb symbol of dims with its parity."""
        if not (isinstance(sym, tuple) and len(sym) == 4
                and sym[0] in ("t", "tb")
                and sym[1] in dims.indices() and sym[2] in dims.indices()
                and sym == _gen_symbol(dims, *sym[:3])):
            raise ValueError(f"{sym!r} is not a generator of {dims!r}")
        return CG(dims, {((sym, 1),): ONE})

    @staticmethod
    def one(dims: Dims) -> "CG":
        return CG(dims, {(): ONE})

    @staticmethod
    def zero(dims: Dims) -> "CG":
        return CG(dims)

    @staticmethod
    def from_scalar(dims: Dims, c) -> "CG":
        return CG(dims, Poly.from_scalar(c).terms)

    def __mul__(self, other: "CG") -> "CG":
        self._check(other)
        return Poly.__mul__(self, other)

    def counit(self) -> Scalar:
        total = ZERO
        for mono, c in self.terms.items():
            if all(s[1] == s[2] for s, _ in mono):
                total = total + c
        return total

    def antipode(self) -> "CG":
        return self._reversed(False)

    def omega(self) -> "CG":
        return self._reversed(True)

    def _reversed(self, star: bool) -> "CG":
        """S (star false) or omega (star true), term by term through
        :func:`_reversed_monomial`; omega conjugates the coefficients."""
        out = {}
        for mono, c in self.terms.items():
            e, image = _reversed_monomial(self.dims, mono, star)
            if star:
                c = c.conj()
            add_term(out, image, -c if e else c)
        return CG(self.dims, out)

    def delta(self) -> "TensorCG":
        return delta(self)


def _reversed_monomial(dims: Dims, mono: Monomial, star: bool):
    """(e, image) with map(mono) = (-1)^e image, for map S (star false) or
    omega (star true): the reversal rule of the module docstring.  Both
    generator maps are injective and keep parity, so no odd factor of the
    image squares."""
    gen_image = omega_image if star else antipode_image
    e = k = 0
    image = ()
    for s, p in reversed(mono):
        d, key = gen_image(dims, *s[:3])
        image, sgn = _merge_monomials(image, ((_gen_symbol(dims, *key), p),))
        e ^= sgn ^ (d & p)
        k += s[3]
    if not star:
        e ^= (k * (k - 1) // 2) & 1
    return e, image


class TensorCG(LinComb):
    """An element of a tensor power of the function algebra.

    Terms map tuples of monomials (one per slot) to scalars.  Multiplication
    is slotwise with the Koszul sign for moving each right-hand slot past
    the left-hand slots after it.
    """

    __slots__ = ("dims", "slots")

    def __init__(self, dims: Dims, slots: int, terms: Optional[dict] = None):
        self.dims = dims
        self.slots = slots
        self.terms = terms if terms is not None else {}

    def _like(self, terms: dict) -> "TensorCG":
        return TensorCG(self.dims, self.slots, terms)

    def _shape(self):
        return self.slots

    @staticmethod
    def unit(dims: Dims, slots: int) -> "TensorCG":
        return TensorCG(dims, slots, {((),) * slots: ONE})

    def __mul__(self, other: "TensorCG") -> "TensorCG":
        self._check(other)
        out = {}
        for ms, c1 in self.terms.items():
            apar = [monomial_parity(m) for m in ms]
            suffix = [0] * (self.slots + 1)
            for j in range(self.slots - 1, -1, -1):
                suffix[j] = suffix[j + 1] ^ apar[j]
            for ns, c2 in other.terms.items():
                sign = 0
                for j in range(self.slots):
                    if monomial_parity(ns[j]):
                        sign ^= suffix[j + 1]
                coeff = c1 * c2
                if sign:
                    coeff = -coeff
                key = []
                dead = False
                for j in range(self.slots):
                    merged = _merge_monomials(ms[j], ns[j])
                    if merged is None:
                        dead = True
                        break
                    mono, sgn = merged
                    if sgn:
                        coeff = -coeff
                    key.append(mono)
                if not dead:
                    add_term(out, tuple(key), coeff)
        return TensorCG(self.dims, self.slots, out)

    def expand(self, slot: int) -> "TensorCG":
        """Apply the coproduct to one slot, yielding slots+1 slots."""
        out = {}
        for key, c in self.terms.items():
            inner = _delta_monomial(self.dims, key[slot])
            for (m1, m2), c2 in inner.terms.items():
                new_key = key[:slot] + (m1, m2) + key[slot + 1:]
                add_term(out, new_key, c * c2)
        return TensorCG(self.dims, self.slots + 1, out)


def _delta_gen(dims: Dims, s) -> TensorCG:
    tag, a, b, _ = s
    out = {}
    for c in dims.indices():
        m1 = ((_gen_symbol(dims, tag, a, c), 1),)
        m2 = ((_gen_symbol(dims, tag, c, b), 1),)
        add_term(out, (m1, m2), sign_pow(delta_sign(dims, a, c, b)))
    return TensorCG(dims, 2, out)


def _delta_monomial(dims: Dims, mono: Monomial) -> TensorCG:
    out = TensorCG.unit(dims, 2)
    for s, e in mono:
        g = _delta_gen(dims, s)
        for _ in range(e):
            out = out * g
    return out


def delta(f: CG) -> TensorCG:
    """The coproduct, as a two-slot tensor."""
    out = {}
    for mono, c in f.terms.items():
        for key, cc in _delta_monomial(f.dims, mono).terms.items():
            add_term(out, key, c * cc)
    return TensorCG(f.dims, 2, out)


def antipode_convolution(f: CG, side: str = "left") -> CG:
    """m (S (x) id) Delta(f) for side="left", m (id (x) S) Delta(f) for "right".

    Both must equal epsilon(f) * 1 modulo the defining ideal.
    """
    if side not in ("left", "right"):
        raise ValueError(f"bad side {side!r}")
    out = {}
    for (m1, m2), c in delta(f).terms.items():
        if side == "left":
            e, m1 = _reversed_monomial(f.dims, m1, False)
        else:
            e, m2 = _reversed_monomial(f.dims, m2, False)
        merged = _merge_monomials(m1, m2)
        if merged is not None:
            mono, sgn = merged
            add_term(out, mono, -c if e ^ sgn else c)
    return CG(f.dims, out)


# ---------------------------------------------------------------- pairing


def _module_kind(tag: str) -> str:
    if tag == "t":
        return "v"
    if tag == "tb":
        return "vb"
    raise ValueError(f"tag {tag!r} does not pair with U(gl(m|n))")


# Monomial pair data, one entry per (m, n, monomial), kept process-wide;
# the memo is emptied when it reaches its cap.
_PAIR_DATA_CAP = 4096
_pair_data_memo: dict = {}


def _monomial_pair_data(dims: Dims, mono: Monomial):
    """(kinds, rows, cols, sign) for the module-action pairing formula,
    memoised per (m, n, monomial)."""
    key = (dims.m, dims.n, mono)
    data = _pair_data_memo.get(key)
    if data is None:
        data = _compute_pair_data(dims, mono)
        _remember(_pair_data_memo, _PAIR_DATA_CAP, key, data)
    return data


def _compute_pair_data(dims: Dims, mono: Monomial):
    kinds = []
    rows = []
    cols = []
    sign = 0
    row_par = 0
    for s, e in mono:
        tag, r, c, p = s
        for _ in range(e):
            if p and row_par:
                sign ^= 1
            kinds.append(_module_kind(tag))
            rows.append(r)
            cols.append(c)
            row_par ^= dims.par(r)
    return tuple(kinds), tuple(rows), tuple(cols), sign


# Module-side pairing kernel.  Letters act on the tensor module of a shape
# (kinds) through the memoised integer tables of :func:`ugl.letter_table`.
# Word images w . e_cols are filled by suffix, w . e = w[0] . (w[1:] . e),
# and kept process-wide; the memo is emptied when it reaches its cap.
_WORD_IMAGES_CAP = 8192
_word_images: dict = {}


def _word_image(dims: Dims, kinds: tuple, cols: tuple, word: tuple) -> dict:
    """word . e_cols on the tensor module of ``kinds``, as idx -> int.

    Extends the longest memoised suffix of the word one letter at a time,
    keeping every suffix image it makes.  The result is shared: read only.
    """
    img = _word_images.get((dims.m, dims.n, kinds, cols, word))
    if img is not None:
        return img
    head = (dims.m, dims.n, kinds, cols)
    k = len(word)
    img = {cols: 1}
    for s in range(1, len(word) + 1):
        hit = _word_images.get(head + (word[s:],))
        if hit is not None:
            k, img = s, hit
            break
    for s in range(k - 1, -1, -1):
        img = _letter_times(letter_table(dims, kinds, word[s]), img)
        _remember(_word_images, _WORD_IMAGES_CAP, head + (word[s:],), img)
    return img


def _pair_data(f: CG) -> list:
    """(kinds, rows, cols, signed coefficient) for each monomial of f."""
    out = []
    for mono, c in f.terms.items():
        kinds, rows, cols, sign = _monomial_pair_data(f.dims, mono)
        out.append((kinds, rows, cols, -c if sign else c))
    return out


def pair_word(f: CG, word: tuple) -> Scalar:
    """Pairing of f against one PBW word (no normalization required):
    :func:`pair` with the word as a one-term element."""
    return pair(f, UEl(f.dims, {word: ONE}))


def pair(f: CG, u: UEl) -> Scalar:
    """The duality pairing <f, u>, term by term of u.

    A monomial of f with module data (kinds, rows, cols, sign) pairs with a
    word to (-1)^sign (word . e_cols)[rows], read from the word-image memo.
    """
    dims = f.dims
    if dims != u.dims:
        raise ValueError("mismatched gl(m|n) dimensions")
    data = _pair_data(f)
    total = ZERO
    for w, cu in u.terms.items():
        val = None  # seeded by the first nonzero term
        for kinds, rows, cols, c in data:
            x = _word_image(dims, kinds, cols, w).get(rows)
            if x:
                val = c * x if val is None else val + c * x
        if val:
            total = total + cu * val
    return total


# ---------------------------------------------------------------- relations


def relations(dims: Dims) -> list:
    """Generators of the defining ideal J, as representative polynomials."""
    out = []
    for a in dims.indices():
        for b in dims.indices():
            r1 = CG.zero(dims)
            r2 = CG.zero(dims)
            for c in dims.indices():
                s1 = sign_pow(dims.par(c) * dims.par(a) + dims.par(b))
                r1 = r1 + (CG.t(dims, a, c) * CG.tbar(dims, b, c)).scale(s1)
                s2 = sign_pow(dims.par(b) * dims.par(c) + dims.par(c))
                r2 = r2 + (CG.tbar(dims, c, a) * CG.t(dims, c, b)).scale(s2)
            if a == b:
                r1 = r1 - CG.one(dims)
                r2 = r2 - CG.one(dims)
            out.append(r1)
            out.append(r2)
    return out


# ---------------------------------------------------------------- oracles


@dataclass(frozen=True)
class Verdict:
    """Outcome of a zero-test modulo the defining ideal.

    ``failure_bound`` is the exact probability (as a rational string) that a
    "zero" verdict is wrong; nonzero verdicts and exact modes report "0".
    """

    verdict: str
    mode: str
    trials: int
    seed: Optional[int]
    failure_bound: str

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "mode": self.mode,
            "trials": self.trials,
            "seed": self.seed,
            "failure_bound": self.failure_bound,
        }

    @property
    def is_zero(self) -> bool:
        return self.verdict == "zero"


def is_zero_mod_j(
    f: CG, mode: str = "generic", trials: int = 3, seed: int = 0
) -> Verdict:
    """Decide whether f lies in the defining ideal J.

    mode="generic": evaluate at random group points with Grassmann odd
    coordinates, the Gauss-form points of :func:`_oracle_points`; a nonzero
    value is an exact disproof, while "zero" carries failure probability at
    most (D (m+n+1) / (|S| - m - n)) ** trials, with D = max(deg f, 1) and
    S the body-entry range of :func:`grassmann.random_gauss_point` (README
    "Zero testing" derives it).

    mode="pairing": exact on both sides via the U(gl(m|n)) duality; see
    :func:`pairing_certificate`.  It ignores ``trials``.

    Raises ValueError for any other mode, and if mode is "generic" and
    trials < 1: no evaluated point, no proven bound.
    """
    if mode not in ("generic", "pairing"):
        raise ValueError(f"unknown oracle mode {mode!r}")
    if mode == "generic" and trials < 1:
        raise ValueError("trials must be at least 1")
    if f.is_zero():
        return Verdict("zero", "exact", 0, seed, "0")
    if mode == "generic":
        return _generic_zero_test(f, trials, seed)
    zero = pairing_certificate(f)
    return Verdict("zero" if zero else "nonzero", "pairing", 0, None, "0")


# Generic-oracle points per (m, n, seed): (points, rng), where rng is the
# live random.Random(seed) that drew those points and has drawn nothing
# else.  Both caps keep memory bounded: a (3,2) point holds about 31 KB
# (tracemalloc).
_POINT_STREAMS_CAP = 8
_POINTS_PER_STREAM_CAP = 8
_point_memo: dict = {}


def _oracle_points(dims: Dims, seed: int):
    """Yield the generic-oracle points for (dims, seed), trial 1 first.

    Trial k's point is the k-th that ``grassmann.random_gauss_point`` draws
    from ``random.Random(seed)``, built lazily: random integer bodies A and
    D, each redrawn while singular, and the 2mn generators as beta and
    gamma, in T = [[A + A beta gamma, A beta], [D gamma, D]].  Every even
    invertible supermatrix factors this way, so the points are generic on
    all of GL(m|n), and T^{-1} is closed form.

    The first ``_POINTS_PER_STREAM_CAP`` are kept, drawn from the stream's
    own live RNG, which every generator of the stream shares: a point is
    drawn only when no generator has drawn it yet, so the RNG stays just
    past the kept points.  Later points are built from a copy of it and
    dropped.  A draw that raises evicts its stream, whose RNG may then be
    part-way through a point.  At most ``_POINT_STREAMS_CAP`` streams are
    kept, the least recently used evicted first.
    """
    key = (dims.m, dims.n, seed)
    stream = _point_memo.pop(key, None)
    if stream is None:
        stream = ([], random.Random(seed))
        if len(_point_memo) >= _POINT_STREAMS_CAP:
            del _point_memo[next(iter(_point_memo))]
    _point_memo[key] = stream
    points, rng = stream
    for k in range(_POINTS_PER_STREAM_CAP):
        if k == len(points):
            try:
                points.append(grassmann.random_gauss_point(dims, rng))
            except BaseException:
                if _point_memo.get(key) is stream:
                    del _point_memo[key]
                raise
        yield points[k]
    late = random.Random()
    late.setstate(rng.getstate())
    while True:
        yield grassmann.random_gauss_point(dims, late)


def _generic_zero_test(f: CG, trials: int, seed: int) -> Verdict:
    points = _oracle_points(f.dims, seed)
    for trial in range(1, trials + 1):
        if not next(points).evaluate(f).is_zero():
            return Verdict("nonzero", "generic", trial, seed, "0")
    m_n = f.dims.m + f.dims.n
    size = 2 * grassmann._BODY_BOUND + 1
    bound = Fraction(max(f.degree(), 1) * (m_n + 1), size - m_n)
    return Verdict("zero", "generic", trials, seed, str(bound ** trials))


def pairing_certificate(f: CG) -> bool:
    """Exact zero test through the U(gl(m|n)) duality.

    <f, u> = phi(u . v0), where v0 is the sum of e_cols over the distinct
    (kinds, cols) of f's monomials, one summand per such generator, and phi
    reads c (-1)^sign (.)[rows] off each monomial's summand.  So f lies in J
    exactly when phi vanishes on the cyclic submodule U . v0.  That
    submodule is saturated from v0 breadth-first, shorter words first, by
    the left action of the generating letters of
    :func:`ugl.invariant_letters` with the one block (1, m+n): a subspace
    closed under generators of gl(m|n) is closed under U.  Each vector new
    to the echelon basis is kept, with its word as payload; phi is checked
    on v0 and on every kept vector, and the first nonzero value is an exact
    witness that f is not in J.

    The cap still measures the flat workspace sum (m+n)^(2s) over f's
    shapes, and fires before any oracle work.
    """
    dims = f.dims
    data = _pair_data(f)
    shapes = {kinds for kinds, _, _, _ in data}
    if not shapes:
        return True
    size = dims.size
    flat = sum((size ** len(sh)) ** 2 for sh in shapes)
    if flat > PAIRING_FLAT_CAP:
        raise DimCapError(
            f"pairing oracle workspace {flat} exceeds cap {PAIRING_FLAT_CAP}"
        )
    gens = sorted({(kinds, cols) for kinds, _, cols, _ in data})
    index = {g: i for i, g in enumerate(gens)}
    _, ((phi_re, phi_im),) = cleared(
        ({(index[kinds, cols], rows): c for kinds, rows, cols, c in data},)
    )

    def pairs_nonzero(vec: dict) -> bool:
        return any(
            sum(w * vec.get(key, 0) for key, w in part.items())
            for part in (phi_re, phi_im)
        )

    # vectors are integer dicts keyed (generator, idx)
    start = {(g, cols): 1 for g, (_, cols) in enumerate(gens)}
    ech = SparseEchelon()
    ech._insert_cleared((dict(start), {}), payload=())
    if pairs_nonzero(start):
        return False
    letters = invariant_letters(dims, ((1, size),))
    tables = {
        letter: [letter_table(dims, kinds, letter) for kinds, _ in gens]
        for letter in letters
    }
    frontier = deque([(start, ())])
    while frontier:
        vec, word = frontier.popleft()
        for letter in letters:
            by_gen = tables[letter]
            new = {}
            for (g, idx), x in vec.items():
                for o, c in by_gen[g][idx]:
                    key = (g, o)
                    t = new.get(key, 0) + c * x
                    if t:
                        new[key] = t
                    else:
                        del new[key]
            if not new:
                continue
            new_word = (letter,) + word
            if ech._insert_cleared((dict(new), {}), new_word) is not None:
                if pairs_nonzero(new):
                    return False
                frontier.append((new, new_word))
    return True


# ------------------------------------------------------------------- suite


def omega_star_delta(f: CG) -> TensorCG:
    """(omega (*) omega) applied to Delta(f): slots swap-free, with the
    Koszul sign (-1)^{[f_(1)][f_(2)]} of a graded tensor-square map."""
    out = {}
    for (m1, m2), c in delta(f).terms.items():
        e1, w1 = _reversed_monomial(f.dims, m1, True)
        e2, w2 = _reversed_monomial(f.dims, m2, True)
        c = c.conj()
        sgn = monomial_parity(m1) & monomial_parity(m2)
        add_term(out, (w1, w2), -c if sgn ^ e1 ^ e2 else c)
    return TensorCG(f.dims, 2, out)


def _all_generators(dims: Dims) -> list:
    out = []
    for a in dims.indices():
        for b in dims.indices():
            out.append(CG.t(dims, a, b))
            out.append(CG.tbar(dims, a, b))
    return out


def _case(name: str, passed: bool, **extra) -> dict:
    """One suite case: its name, pass flag and any extra witness fields."""
    return {"name": name, "passed": bool(passed), **extra}


def _oracle_case(name: str, verdicts, want_zero: bool, **extra) -> dict:
    """One suite case that rests on oracle verdicts.

    It passes when every verdict is zero (``want_zero``), or when at least
    one is nonzero (not ``want_zero``).  It carries the verdict that decides
    it: the first nonzero one, an exact witness, else the zero verdict with
    the largest failure bound.  Raises ValueError when given no verdicts.
    """
    verdicts = list(verdicts)
    if not verdicts:
        raise ValueError(f"case {name!r} rests on no oracle verdict")
    nonzero = [v for v in verdicts if not v.is_zero]
    v = nonzero[0] if nonzero else max(
        verdicts, key=lambda v: Fraction(v.failure_bound))
    return _case(name, v.is_zero == want_zero, verdict=v.verdict,
                 mode=v.mode, failure_bound=v.failure_bound, **extra)


def _report(suite: str, cases: list) -> dict:
    """A suite report; raises ValueError on no cases, a vacuous pass."""
    if not cases:
        raise ValueError(f"suite {suite!r} has no cases")
    return {
        "suite": suite,
        "cases": cases,
        "passed": all(c["passed"] for c in cases),
    }


def verify_hopf(dims: Dims, seed: int = 0, trials: int = 3,
                mode: str = "generic") -> dict:
    """Hopf-axiom suite on the generators.

    Coassociativity, counit, and the omega compatibilities are exact
    identities of representatives; the antipode convolution axiom holds
    only modulo the defining ideal and goes through the chosen oracle.
    """
    gens = _all_generators(dims)
    cases = []

    ok = all(
        delta(g).expand(0) == delta(g).expand(1) for g in gens
    )
    cases.append(_case("coproduct coassociative on generators", ok))

    ok = True
    for g in gens:
        left = CG.zero(dims)
        right = CG.zero(dims)
        for (m1, m2), c in delta(g).terms.items():
            left = left + CG(dims, {m2: c}).scale(
                CG(dims, {m1: ONE}).counit())
            right = right + CG(dims, {m1: c}).scale(
                CG(dims, {m2: ONE}).counit())
        ok = ok and left == g and right == g
    cases.append(_case("counit axiom on generators", ok))

    for side in ("left", "right"):
        defects = [antipode_convolution(g, side)
                   - CG.from_scalar(dims, g.counit()) for g in gens]
        cases.append(_oracle_case(
            f"antipode convolution axiom ({side}) on generators",
            [is_zero_mod_j(f, mode, trials, seed) for f in defects], True))

    ok = True
    for a in dims.indices():
        for b in dims.indices():
            pa, pb = dims.par(a), dims.par(b)
            want_t = CG.tbar(dims, b, a).scale(sign_pow(pa * pb + pa))
            want_tb = CG.t(dims, b, a).scale(sign_pow(pa * pb + pb))
            ok = ok and CG.t(dims, a, b).antipode() == want_t
            ok = ok and CG.tbar(dims, a, b).antipode() == want_tb
    cases.append(_case("antipode matches its generator assignment", ok))

    ok = all(g.omega().omega() == g for g in gens)
    sample = (CG.t(dims, 1, dims.size) * CG.tbar(dims, dims.size, 1)).scale(
        Scalar(2, 3)
    )
    ok = ok and sample.omega().omega() == sample
    cases.append(_case("omega is an involution", ok))

    ok = all(omega_star_delta(g) == delta(g.omega()) for g in gens)
    cases.append(_case("omega intertwines the coproduct", ok))

    ok = True
    f1 = CG.t(dims, 1, dims.size)
    f2 = CG.tbar(dims, 1, dims.size)
    p1, p2 = f1.parity(), f2.parity()
    lhs = (f1 * f2).antipode()
    rhs = (f2.antipode() * f1.antipode()).scale(sign_pow(p1 * p2))
    ok = lhs == rhs
    cases.append(_case("antipode is a graded anti-automorphism (sample)", ok))

    return _report("hopf", cases)
