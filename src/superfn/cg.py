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

Duality with U(gl(m|n)) is the graded pairing determined by
``<t_ab, E_cd> = delta_ac delta_bd`` and
``<tbar_ab, E_cd> = -(-1)^{[a][b]+[b]} delta_bc delta_ad`` together with
``<fg, u> = sum (-1)^{[g][u_(1)]} <f, u_(1)> <g, u_(2)>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _iproduct
from typing import Optional

from .grading import Dims
from .linalg import LinComb, SparseEchelon, add_term
from .scalar import Scalar, ZERO, ONE, sign_pow
from .superpoly import (
    Monomial,
    Poly,
    StarSpec,
    monomial_parity,
    symbol,
)
from .ugl import TVec, UEl, letter_matrix

PAIRING_FLAT_CAP = 5000


class DimCapError(RuntimeError):
    """Raised when an exact-oracle workspace would exceed its size cap."""


def _gen_symbol(dims: Dims, tag: str, a: int, b: int):
    return symbol(tag, a, b, dims.letter_par(a, b))


class CG:
    """An element of the function algebra, held as a representative Poly."""

    __slots__ = ("dims", "poly")

    def __init__(self, dims: Dims, poly: Poly):
        self.dims = dims
        self.poly = poly

    @staticmethod
    def t(dims: Dims, a: int, b: int) -> "CG":
        return CG(dims, Poly.from_symbol(_gen_symbol(dims, "t", a, b)))

    @staticmethod
    def tbar(dims: Dims, a: int, b: int) -> "CG":
        return CG(dims, Poly.from_symbol(_gen_symbol(dims, "tb", a, b)))

    @staticmethod
    def one(dims: Dims) -> "CG":
        return CG(dims, Poly.one())

    @staticmethod
    def zero(dims: Dims) -> "CG":
        return CG(dims, Poly.zero())

    @staticmethod
    def from_scalar(dims: Dims, c) -> "CG":
        return CG(dims, Poly.from_scalar(c))

    def is_zero_poly(self) -> bool:
        """Whether the representative is the zero polynomial (not mod J)."""
        return self.poly.is_zero()

    def degree(self) -> int:
        return self.poly.degree()

    def parity(self) -> Optional[int]:
        return self.poly.parity()

    def _check(self, other: "CG"):
        if self.dims != other.dims:
            raise ValueError("mismatched gl(m|n) dimensions")

    def __add__(self, other: "CG") -> "CG":
        self._check(other)
        return CG(self.dims, self.poly + other.poly)

    def __sub__(self, other: "CG") -> "CG":
        self._check(other)
        return CG(self.dims, self.poly - other.poly)

    def __neg__(self) -> "CG":
        return CG(self.dims, -self.poly)

    def __mul__(self, other: "CG") -> "CG":
        self._check(other)
        return CG(self.dims, self.poly * other.poly)

    def scale(self, c) -> "CG":
        return CG(self.dims, self.poly.scale(c))

    def __pow__(self, k: int) -> "CG":
        return CG(self.dims, self.poly ** k)

    def __eq__(self, other) -> bool:
        """Equality of representatives, not of classes mod J."""
        return (
            isinstance(other, CG)
            and self.dims == other.dims
            and self.poly == other.poly
        )

    def counit(self) -> Scalar:
        total = ZERO
        for mono, c in self.poly.terms.items():
            if all(s[1] == s[2] for s, _ in mono):
                total = total + c
        return total

    def antipode(self) -> "CG":
        out = Poly.zero()
        for mono, c in self.poly.terms.items():
            # reversing k odd factors costs (-1)^(k choose 2)
            k = sum(e for s, e in mono if s[3])
            prod = Poly.from_scalar(c * sign_pow(k * (k - 1) // 2))
            for s, e in reversed(mono):
                img = _antipode_gen(self.dims, s)
                for _ in range(e):
                    prod = prod * img
            out = out + prod
        return CG(self.dims, out)

    def omega(self) -> "CG":
        return CG(self.dims, _omega_spec(self.dims).apply(self.poly))

    def delta(self) -> "TensorCG":
        return delta(self)

    def pretty(self) -> str:
        return self.poly.pretty()

    def __repr__(self):
        return f"CG({self.poly.pretty()})"


def _antipode_gen(dims: Dims, s) -> Poly:
    tag, a, b, _ = s
    pa, pb = dims.par(a), dims.par(b)
    if tag == "t":
        img = Poly.from_symbol(_gen_symbol(dims, "tb", b, a))
        return img.scale(sign_pow(pa * pb + pa))
    if tag == "tb":
        img = Poly.from_symbol(_gen_symbol(dims, "t", b, a))
        return img.scale(sign_pow(pa * pb + pb))
    raise ValueError(f"antipode undefined for tag {tag!r}")


_omega_cache: dict = {}


def _omega_spec(dims: Dims) -> StarSpec:
    key = (dims.m, dims.n)
    spec = _omega_cache.get(key)
    if spec is None:
        images = {}
        for a in dims.indices():
            for b in dims.indices():
                sgn = sign_pow(dims.par(b) * (dims.par(a) + dims.par(b)))
                images[_gen_symbol(dims, "t", a, b)] = Poly.from_symbol(
                    _gen_symbol(dims, "tb", a, b)
                ).scale(sgn)
                images[_gen_symbol(dims, "tb", a, b)] = Poly.from_symbol(
                    _gen_symbol(dims, "t", a, b)
                ).scale(sgn)
        spec = StarSpec(images)
        _omega_cache[key] = spec
    return spec


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
        from .superpoly import _merge_monomials

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
        sgn = sign_pow(
            (dims.par(c) + dims.par(a)) * (dims.par(c) + dims.par(b))
        )
        m1 = ((_gen_symbol(dims, tag, a, c), 1),)
        m2 = ((_gen_symbol(dims, tag, c, b), 1),)
        add_term(out, (m1, m2), sgn)
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
    for mono, c in f.poly.terms.items():
        for key, cc in _delta_monomial(f.dims, mono).terms.items():
            add_term(out, key, c * cc)
    return TensorCG(f.dims, 2, out)


def antipode_convolution(f: CG, side: str = "left") -> CG:
    """m (S (x) id) Delta(f) for side="left", m (id (x) S) Delta(f) for "right".

    Both must equal epsilon(f) * 1 modulo the defining ideal.
    """
    two = delta(f)
    out = CG.zero(f.dims)
    for (m1, m2), c in two.terms.items():
        f1 = CG(f.dims, Poly({m1: ONE}))
        f2 = CG(f.dims, Poly({m2: ONE}))
        if side == "left":
            prod = f1.antipode() * f2
        elif side == "right":
            prod = f1 * f2.antipode()
        else:
            raise ValueError(f"bad side {side!r}")
        out = out + prod.scale(c)
    return out


# ---------------------------------------------------------------- pairing


def _module_kind(tag: str) -> str:
    if tag == "t":
        return "v"
    if tag == "tb":
        return "vb"
    raise ValueError(f"tag {tag!r} does not pair with U(gl(m|n))")


def _monomial_pair_data(dims: Dims, mono: Monomial):
    """(kinds, rows, cols, sign) for the module-action pairing formula."""
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


def pair_word(f: CG, word: tuple) -> Scalar:
    """Pairing of f against one PBW word (no normalization required)."""
    dims = f.dims
    total = ZERO
    for mono, c in f.poly.terms.items():
        if not mono:
            if not word:
                total = total + c
            continue
        kinds, rows, cols, sign = _monomial_pair_data(dims, mono)
        acted = TVec.basis(dims, kinds, cols).act_word(word)
        val = acted.terms.get(rows)
        if val is None:
            continue
        if sign:
            val = -val
        total = total + c * val
    return total


def pair(f: CG, u: UEl) -> Scalar:
    """The duality pairing <f, u>."""
    if f.dims != u.dims:
        raise ValueError("mismatched gl(m|n) dimensions")
    total = ZERO
    for w, cu in u.terms.items():
        total = total + cu * pair_word(f, w)
    return total


def _pair_gen_letter(dims: Dims, s, letter) -> Scalar:
    tag, a, b, _ = s
    c, d = letter
    if tag == "t":
        return ONE if (a == c and b == d) else ZERO
    if a == d and b == c:
        return -sign_pow(dims.par(a) * dims.par(b) + dims.par(b))
    return ZERO


def pair_via_coproduct(f: CG, u: UEl) -> Scalar:
    """Slow reference pairing that splits words through the coproduct.

    Independent of :func:`pair`'s module-action shortcut; the two must agree.
    """
    from .ugl import split_word

    dims = f.dims
    total = ZERO
    for mono, cf in f.poly.terms.items():
        factors = []
        for s, e in mono:
            factors.extend([s] * e)
        for w, cu in u.terms.items():
            total = total + cf * cu * _pair_factors(dims, factors, w)
    return total


def _pair_factors(dims: Dims, factors: list, word: tuple) -> Scalar:
    from .ugl import split_word, word_parity

    if not factors:
        return ONE if not word else ZERO
    if len(factors) == 1:
        # matrix element of the word in the generator's own module
        tag, a, b, _ = factors[0]
        vec = TVec.basis(dims, (_module_kind(tag),), (b,)).act_word(word)
        return vec.terms.get((a,), ZERO)
    head, rest = factors[0], factors[1:]
    rest_par = sum(s[3] for s in rest) & 1
    total = ZERO
    for (w1, w2), sgn in split_word(dims, word, 2):
        v1 = _pair_factors(dims, [head], w1)
        if not v1:
            continue
        v2 = _pair_factors(dims, rest, w2)
        if not v2:
            continue
        term_sign = sgn ^ (rest_par & word_parity(dims, w1))
        term = v1 * v2
        if term_sign:
            term = -term
        total = total + term
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
    coordinates; a nonzero value is an exact disproof, while "zero" carries
    failure probability at most (deg f / 2**20) ** trials.

    mode="pairing": exact on both sides via the U(gl(m|n)) duality; see
    :func:`pairing_certificate`.
    """
    if f.poly.is_zero():
        return Verdict("zero", "exact", 0, seed, "0")
    if mode == "generic":
        return _generic_zero_test(f, trials, seed)
    if mode == "pairing":
        zero = pairing_certificate(f)
        return Verdict(
            "zero" if zero else "nonzero", "pairing", 0, None, "0"
        )
    raise ValueError(f"unknown oracle mode {mode!r}")


def _generic_zero_test(f: CG, trials: int, seed: int) -> Verdict:
    import random as _random

    from .grassmann import GroupPoint, random_even_invertible

    dims = f.dims
    rng = _random.Random(seed)
    for trial in range(1, trials + 1):
        mat = random_even_invertible(dims, rng)
        point = GroupPoint.from_matrix(dims, mat, validate=False)
        if not point.evaluate(f).is_zero():
            return Verdict("nonzero", "generic", trial, seed, "0")
    bound = Fraction(max(f.poly.degree(), 1), 2 ** 20) ** trials
    return Verdict("zero", "generic", trials, seed, str(bound))


def pairing_certificate(f: CG) -> bool:
    """Exact zero test: pair f against a spanning set of U(gl(m|n)) words.

    The functional <f, .> factors through the direct sum of the tensor
    modules carrying f's monomial shapes; the span of the module images of
    all words is saturated from the identity by left letter multiplication,
    and f is zero mod J iff it pairs to zero against every recorded word.
    """
    dims = f.dims
    shapes = sorted({_monomial_pair_data(dims, m)[0] for m in f.poly.terms})
    if not shapes:
        return True
    size = dims.size
    flat = sum((size ** len(sh)) ** 2 for sh in shapes)
    if flat > PAIRING_FLAT_CAP:
        raise DimCapError(
            f"pairing oracle workspace {flat} exceeds cap {PAIRING_FLAT_CAP}"
        )
    letters = [(a, b) for a in dims.indices() for b in dims.indices()]
    tables = [  # per shape: {letter: {in_basis: [(out_basis, coeff), ...]}}
        {letter: letter_matrix(dims, sh, letter) for letter in letters}
        for sh in shapes
    ]
    ident = {}
    for si, sh in enumerate(shapes):
        for idx in _iproduct(dims.indices(), repeat=len(sh)):
            ident[(si, idx, idx)] = ONE
    ech = SparseEchelon()
    ech.insert(ident, payload=())
    frontier = [(ident, ())]
    words = [()]
    while frontier:
        elem, word = frontier.pop()
        for letter in letters:
            new = {}
            for (si, out_idx, in_idx), c in elem.items():
                col = tables[si][letter].get(out_idx)
                if col is None:
                    continue
                for new_out, coeff in col:
                    add_term(new, (si, new_out, in_idx), coeff * c)
            if not new:
                continue
            new_word = (letter,) + word
            if ech.insert(new, payload=new_word) is not None:
                frontier.append((new, new_word))
                words.append(new_word)
    return all(not pair_word(f, w) for w in words)


# ------------------------------------------------------------------- suite


def omega_star_delta(f: CG) -> TensorCG:
    """(omega (*) omega) applied to Delta(f): slots swap-free, with the
    Koszul sign (-1)^{[f_(1)][f_(2)]} of a graded tensor-square map."""
    two = delta(f)
    out = {}
    for (m1, m2), c in two.terms.items():
        sgn = monomial_parity(m1) & monomial_parity(m2)
        w1 = CG(f.dims, Poly({m1: ONE})).omega()
        w2 = CG(f.dims, Poly({m2: ONE})).omega()
        coeff = c.conj()
        if sgn:
            coeff = -coeff
        for mm1, c1 in w1.poly.terms.items():
            for mm2, c2 in w2.poly.terms.items():
                add_term(out, (mm1, mm2), coeff * c1 * c2)
    return TensorCG(f.dims, 2, out)


def _all_generators(dims: Dims) -> list:
    out = []
    for a in dims.indices():
        for b in dims.indices():
            out.append(CG.t(dims, a, b))
            out.append(CG.tbar(dims, a, b))
    return out


def _case(name: str, passed: bool, verdict: Optional[Verdict] = None,
          **extra) -> dict:
    """One suite case: its name, pass flag, the oracle verdict it rests on
    (if any) and any extra witness fields."""
    out = {"name": name, "passed": bool(passed)}
    if verdict is not None:
        out["verdict"] = verdict.verdict
        out["mode"] = verdict.mode
        out["failure_bound"] = verdict.failure_bound
    out.update(extra)
    return out


def _report(suite: str, cases: list) -> dict:
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
            left = left + CG(dims, Poly({m2: c})).scale(
                CG(dims, Poly({m1: ONE})).counit()
            )
            right = right + CG(dims, Poly({m1: c})).scale(
                CG(dims, Poly({m2: ONE})).counit()
            )
        ok = ok and left == g and right == g
    cases.append(_case("counit axiom on generators", ok))

    for side in ("left", "right"):
        worst = None
        ok = True
        for g in gens:
            defect = antipode_convolution(g, side) - CG.from_scalar(
                dims, g.counit()
            )
            v = is_zero_mod_j(defect, mode=mode, trials=trials, seed=seed)
            if not v.is_zero:
                ok = False
            if worst is None or not v.is_zero:
                worst = v
        cases.append(
            _case(f"antipode convolution axiom ({side}) on generators",
                  ok, worst)
        )

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
