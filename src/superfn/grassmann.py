"""Grassmann algebras, even supermatrices, and supergroup points.

A :class:`GEl` is an element of the Grassmann algebra on N generators
theta_1..theta_N over Q(i), stored as a bitmask -> Scalar map.  Conjugation
fixes the generators, conjugates coefficients, and reverses products, so a
k-generator monomial picks up (-1)^{k(k-1)/2}.

A group point is an algebra map from the function algebra to a Grassmann
algebra.  For an even invertible supermatrix T it is the twisted assignment

    alpha(t_ab)    = (-1)^{[a][b]+[a]} T_ab
    alpha(tbar_ab) = (T^{-1})_ba

under which the defining relations reduce exactly to T T^{-1} = I and
T^{-1} T = I, convolution of points is the matrix product, and the antipode
implements matrix inversion.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .grading import Dims
from .linalg import LinComb, SparseEchelon, add_term
from .scalar import Scalar, ZERO, ONE, I, _rat_str, sign_pow

_BODY_BOUND = 2 ** 20


class GEl(LinComb):
    """An element of the Grassmann algebra on n generators over Q(i)."""

    __slots__ = ("n",)

    def __init__(self, n: int, terms: Optional[dict] = None):
        self.n = n
        self.terms = terms if terms is not None else {}

    def _like(self, terms: dict) -> "GEl":
        return GEl(self.n, terms)

    def _shape(self):
        return self.n

    @staticmethod
    def scalar(n: int, c) -> "GEl":
        c = c if isinstance(c, Scalar) else Scalar(c)
        return GEl(n, {0: c}) if c else GEl(n)

    @staticmethod
    def gen(n: int, j: int) -> "GEl":
        """theta_j, 1-based."""
        if not 1 <= j <= n:
            raise ValueError(f"generator index {j} out of range 1..{n}")
        return GEl(n, {1 << (j - 1): ONE})

    def body(self) -> Scalar:
        return self.terms.get(0, ZERO)

    def soul(self) -> "GEl":
        return GEl(self.n, {m: c for m, c in self.terms.items() if m})

    def parity(self) -> Optional[int]:
        pars = {bin(m).count("1") & 1 for m in self.terms}
        if len(pars) == 1:
            return pars.pop()
        return None

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(bin(m).count("1") for m in self.terms)

    def __mul__(self, other: "GEl") -> "GEl":
        self._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue
                c = c1 * c2
                if _cross_sign(m1, m2):
                    c = -c
                add_term(out, m1 | m2, c)
        return GEl(self.n, out)

    def __pow__(self, k: int) -> "GEl":
        out = GEl.scalar(self.n, 1)
        for _ in range(k):
            out = out * self
        return out

    def conj(self) -> "GEl":
        out = {}
        for m, c in self.terms.items():
            k = bin(m).count("1")
            out[m] = -c.conj() if (k * (k - 1) // 2) & 1 else c.conj()
        return GEl(self.n, out)

    def to_json(self) -> list:
        out = []
        for m in sorted(self.terms):
            c = self.terms[m]
            subset = [j + 1 for j in range(self.n) if m >> j & 1]
            out.append(
                {"subset": subset, "re": _rat_str(c.re), "im": _rat_str(c.im)}
            )
        return out

    def __repr__(self):
        if not self.terms:
            return "GEl(0)"
        bits = []
        for m in sorted(self.terms):
            c = self.terms[m]
            if m == 0:
                bits.append(str(c))
            else:
                gens = "*".join(
                    f"theta{j + 1}" for j in range(self.n) if m >> j & 1
                )
                bits.append(f"({c})*{gens}")
        return "GEl(" + " + ".join(bits) + ")"


def _cross_sign(m1: int, m2: int) -> int:
    """Parity of |{(i,j): i in m1, j in m2, i > j}|."""
    sign = 0
    while m2:
        low = m2 & -m2
        j = low.bit_length() - 1
        sign ^= bin(m1 >> (j + 1)).count("1") & 1
        m2 ^= low
    return sign


class SMat:
    """An even supermatrix over a Grassmann algebra.

    Entry (a, b) must be even when [a] = [b] and odd when [a] != [b].
    """

    __slots__ = ("dims", "n", "rows")

    def __init__(self, dims: Dims, n: int, rows):
        self.dims = dims
        self.n = n
        self.rows = [list(r) for r in rows]
        size = dims.size
        if len(self.rows) != size or any(len(r) != size for r in self.rows):
            raise ValueError("supermatrix shape must be (m+n) x (m+n)")
        for a in dims.indices():
            for b in dims.indices():
                e = self.rows[a - 1][b - 1]
                if e.n != n:
                    raise ValueError("mismatched Grassmann algebra sizes")
                p = e.parity()
                want = dims.letter_par(a, b)
                if p is not None and p != want and not e.is_zero():
                    raise ValueError(
                        f"entry ({a},{b}) has parity {p}, expected {want}"
                    )

    @staticmethod
    def identity(dims: Dims, n: int) -> "SMat":
        size = dims.size
        return SMat(
            dims,
            n,
            [
                [GEl.scalar(n, 1 if i == j else 0) for j in range(size)]
                for i in range(size)
            ],
        )

    def entry(self, a: int, b: int) -> GEl:
        return self.rows[a - 1][b - 1]

    def __matmul__(self, other: "SMat") -> "SMat":
        if self.dims != other.dims or self.n != other.n:
            raise ValueError("mismatched supermatrices")
        size = self.dims.size
        rows = []
        for i in range(size):
            row = []
            for j in range(size):
                acc = GEl(self.n)
                for k in range(size):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            rows.append(row)
        return SMat(self.dims, self.n, rows)

    def __sub__(self, other: "SMat") -> "SMat":
        rows = [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.rows, other.rows)
        ]
        return SMat(self.dims, self.n, rows)

    def __add__(self, other: "SMat") -> "SMat":
        rows = [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.rows, other.rows)
        ]
        return SMat(self.dims, self.n, rows)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SMat)
            and self.dims == other.dims
            and self.n == other.n
            and self.rows == other.rows
        )

    def body_matrix(self) -> list:
        return [[e.body() for e in row] for row in self.rows]

    def inverse(self) -> "SMat":
        """Exact inverse: invert the body, then sum the soul Neumann series.

        Raises ValueError when the body is singular.
        """
        size = self.dims.size
        binv = _invert_scalar_matrix(self.body_matrix())
        x = SMat(
            self.dims,
            self.n,
            [[GEl.scalar(self.n, c) for c in row] for row in binv],
        )
        body = SMat(
            self.dims,
            self.n,
            [[GEl.scalar(self.n, e.body()) for e in row] for row in self.rows],
        )
        soul = self - body
        neg_xs = SMat(
            self.dims,
            self.n,
            [[-e for e in row] for row in (x @ soul).rows],
        )
        acc = x
        cur = x
        for _ in range(self.n + 1):
            cur = neg_xs @ cur
            if cur.is_zero():
                break
            acc = acc + cur
        return acc


def _invert_scalar_matrix(mat: list) -> list:
    """Inverse of a square Scalar matrix: reduce [A | I] to [I | A^{-1}]."""
    size = len(mat)
    ech = SparseEchelon()
    for i, row in enumerate(mat):
        aug = {j: c for j, c in enumerate(row) if c}
        aug[size + i] = ONE
        ech.insert(aug)
    if any(p not in ech.rows for p in range(size)):
        raise ValueError("singular body matrix")
    rows = ech.reduced()
    return [
        [rows[i].get(size + j, ZERO) for j in range(size)] for i in range(size)
    ]


def random_even_invertible(dims: Dims, rng: random.Random) -> SMat:
    """A random even supermatrix with invertible body.

    Even entries are random integers bounded by 2**20; each odd slot gets
    its own Grassmann generator (N = 2mn covers them all) with a random
    nonzero integer coefficient.
    """
    n_gen = 2 * dims.m * dims.n
    size = dims.size
    while True:
        rows = []
        gen_index = 1
        for a in dims.indices():
            row = []
            for b in dims.indices():
                if dims.letter_par(a, b):
                    coeff = rng.randint(1, _BODY_BOUND) * rng.choice((1, -1))
                    row.append(GEl.gen(n_gen, gen_index).scale(coeff))
                    gen_index += 1
                else:
                    row.append(
                        GEl.scalar(
                            n_gen, rng.randint(-_BODY_BOUND, _BODY_BOUND)
                        )
                    )
            rows.append(row)
        mat = SMat(dims, n_gen, rows)
        try:
            _invert_scalar_matrix(mat.body_matrix())
        except ValueError:
            continue
        return mat


def eta(dims: Dims, a: int, b: int) -> Scalar:
    """The group-point twist (-1)^{[a][b]+[a]}."""
    return sign_pow(dims.par(a) * dims.par(b) + dims.par(a))


class GroupPoint:
    """An algebra map from the function algebra to a Grassmann algebra."""

    __slots__ = ("dims", "n", "t_img", "tb_img")

    def __init__(self, dims: Dims, n: int, t_img: dict, tb_img: dict):
        self.dims = dims
        self.n = n
        self.t_img = t_img
        self.tb_img = tb_img

    @staticmethod
    def from_matrix(dims: Dims, mat: SMat, validate: bool = True) -> "GroupPoint":
        if mat.dims != dims:
            raise ValueError("mismatched gl(m|n) dimensions")
        inv = mat.inverse()
        t_img = {}
        tb_img = {}
        for a in dims.indices():
            for b in dims.indices():
                t_img[(a, b)] = mat.entry(a, b).scale(eta(dims, a, b))
                tb_img[(a, b)] = inv.entry(b, a)
        point = GroupPoint(dims, mat.n, t_img, tb_img)
        if validate:
            point.validate()
        return point

    @staticmethod
    def identity(dims: Dims, n: int = 0) -> "GroupPoint":
        t_img = {}
        tb_img = {}
        for a in dims.indices():
            for b in dims.indices():
                val = GEl.scalar(n, 1 if a == b else 0)
                t_img[(a, b)] = val
                tb_img[(a, b)] = GEl.scalar(n, 1 if a == b else 0)
        return GroupPoint(dims, n, t_img, tb_img)

    def validate(self):
        """Check the defining relations; raises ValueError on failure."""
        from .cg import relations

        for rel in relations(self.dims):
            val = self.evaluate(rel)
            if not val.is_zero():
                raise ValueError("matrix does not define a group point")

    def evaluate(self, f) -> GEl:
        """Evaluate a function-algebra element (CG or its Poly)."""
        poly = getattr(f, "poly", f)
        out = GEl(self.n)
        for mono, c in poly.terms.items():
            prod = GEl.scalar(self.n, c)
            for s, e in mono:
                tag = s[0]
                if tag == "t":
                    img = self.t_img[(s[1], s[2])]
                elif tag == "tb":
                    img = self.tb_img[(s[1], s[2])]
                else:
                    raise ValueError(f"cannot evaluate tag {s[0]!r}")
                for _ in range(e):
                    prod = prod * img
            out = out + prod
        return out

    def convolve(self, other: "GroupPoint") -> "GroupPoint":
        """Convolution product (alpha * beta)(f) = m (alpha (x) beta) Delta(f).

        On generator images this is the twisted matrix product; for points
        built from supermatrices it matches from_matrix of the product.
        """
        if self.dims != other.dims or self.n != other.n:
            raise ValueError("mismatched group points")
        dims = self.dims
        t_img = {}
        tb_img = {}
        for a in dims.indices():
            for b in dims.indices():
                acc_t = GEl(self.n)
                acc_tb = GEl(self.n)
                for c in dims.indices():
                    sgn = sign_pow(
                        (dims.par(c) + dims.par(a))
                        * (dims.par(c) + dims.par(b))
                    )
                    acc_t = acc_t + (
                        self.t_img[(a, c)] * other.t_img[(c, b)]
                    ).scale(sgn)
                    acc_tb = acc_tb + (
                        self.tb_img[(a, c)] * other.tb_img[(c, b)]
                    ).scale(sgn)
                t_img[(a, b)] = acc_t
                tb_img[(a, b)] = acc_tb
        return GroupPoint(dims, self.n, t_img, tb_img)

    def inverse_point(self) -> "GroupPoint":
        """Precompose with the antipode: the convolution inverse."""
        dims = self.dims
        t_img = {}
        tb_img = {}
        for a in dims.indices():
            for b in dims.indices():
                pa, pb = dims.par(a), dims.par(b)
                t_img[(a, b)] = self.tb_img[(b, a)].scale(
                    sign_pow(pa * pb + pa)
                )
                tb_img[(a, b)] = self.t_img[(b, a)].scale(
                    sign_pow(pa * pb + pb)
                )
        return GroupPoint(dims, self.n, t_img, tb_img)

    def is_real(self) -> bool:
        """Whether alpha(omega(t_ab)) = conj(alpha(t_ab)) for all a, b.

        The tbar condition follows formally from this one.
        """
        dims = self.dims
        for a in dims.indices():
            for b in dims.indices():
                sgn = sign_pow(dims.par(b) * (dims.par(a) + dims.par(b)))
                lhs = self.tb_img[(a, b)].scale(sgn)
                if lhs != self.t_img[(a, b)].conj():
                    return False
        return True

    def theta_dual(self) -> "GroupPoint":
        """The point f -> conj(alpha(omega(S(f)))).

        On generators: omega(S(t_ab)) = t_ba and
        omega(S(tbar_ab)) = (-1)^{[a]+[b]} tbar_ba.  For real points this
        equals the convolution inverse.
        """
        dims = self.dims
        t_img = {}
        tb_img = {}
        for a in dims.indices():
            for b in dims.indices():
                t_img[(a, b)] = self.t_img[(b, a)].conj()
                tb_img[(a, b)] = self.tb_img[(b, a)].conj().scale(
                    sign_pow(dims.par(a) + dims.par(b))
                )
        return GroupPoint(dims, self.n, t_img, tb_img)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupPoint)
            and self.dims == other.dims
            and self.n == other.n
            and self.t_img == other.t_img
            and self.tb_img == other.tb_img
        )

    def to_json(self) -> dict:
        dims = self.dims
        return {
            "m": dims.m,
            "n": dims.n,
            "grassmann_generators": self.n,
            "t": {
                f"{a},{b}": self.t_img[(a, b)].to_json()
                for a in dims.indices()
                for b in dims.indices()
            },
            "tbar": {
                f"{a},{b}": self.tb_img[(a, b)].to_json()
                for a in dims.indices()
                for b in dims.indices()
            },
        }


def _scalar_diag(dims: Dims, entries) -> SMat:
    rows = [
        [
            GEl.scalar(0, entries[a - 1] if a == b else 0)
            for b in dims.indices()
        ]
        for a in dims.indices()
    ]
    return SMat(dims, 0, rows)


def real_sample_points(dims: Dims, count: int = 5) -> list:
    """Constructed points of the real form: unit-modulus diagonals and a
    parity-preserving permutation when one exists."""
    u1 = Scalar(Fraction(3, 5), Fraction(4, 5))
    u2 = Scalar(Fraction(5, 13), Fraction(12, 13))
    size = dims.size
    mats = [
        SMat.identity(dims, 0),
        _scalar_diag(dims, [u1] * size),
        _scalar_diag(dims, [I if a % 2 else -I for a in range(size)]),
        _scalar_diag(dims, [u2 if a % 2 else u2.conj() for a in range(size)]),
    ]
    if dims.m >= 2 or dims.n >= 2:
        lo = 1 if dims.m >= 2 else dims.m + 1
        perm = list(range(1, size + 1))
        perm[lo - 1], perm[lo] = perm[lo], perm[lo - 1]
        rows = [
            [GEl.scalar(0, 1 if perm[a - 1] == b else 0) for b in dims.indices()]
            for a in dims.indices()
        ]
        mats.append(SMat(dims, 0, rows))
    else:
        mats.append(_scalar_diag(dims, [-ONE] * size))
    points = [GroupPoint.from_matrix(dims, mat) for mat in mats[:count]]
    return points


def verify_group(dims: Dims, count: int = 20, seed: int = 0) -> dict:
    """The supergroup suite: point construction, convolution vs matrix
    product, inverses via the antipode, and the real-form duality."""
    from .cg import CG, _case, _report

    rng = random.Random(seed)
    cases = []

    mats = []
    ok = True
    for _ in range(count):
        try:
            mat = random_even_invertible(dims, rng)
            GroupPoint.from_matrix(dims, mat)
        except ValueError:
            ok = False
            break
        mats.append(mat)
    cases.append(
        _case("random supermatrices define group points", ok, count=count)
    )

    ok = True
    for j in range(0, len(mats) - 1, 2):
        a = GroupPoint.from_matrix(dims, mats[j], validate=False)
        b = GroupPoint.from_matrix(dims, mats[j + 1], validate=False)
        prod = GroupPoint.from_matrix(dims, mats[j] @ mats[j + 1],
                                      validate=False)
        if a.convolve(b) != prod:
            ok = False
    cases.append(_case("convolution matches the supermatrix product", ok))

    ok = True
    for j in range(0, len(mats) - 2, 3):
        a, b, c = (
            GroupPoint.from_matrix(dims, mats[j + k], validate=False)
            for k in range(3)
        )
        if a.convolve(b).convolve(c) != a.convolve(b.convolve(c)):
            ok = False
    cases.append(_case("convolution is associative", ok))

    ok = True
    for mat in mats:
        p = GroupPoint.from_matrix(dims, mat, validate=False)
        q = GroupPoint.from_matrix(dims, mat.inverse(), validate=False)
        if p.inverse_point() != q:
            ok = False
    cases.append(
        _case("antipode precomposition inverts the point", ok)
    )

    ok = True
    for j in range(0, len(mats) - 1, 2):
        a = GroupPoint.from_matrix(dims, mats[j], validate=False)
        b = GroupPoint.from_matrix(dims, mats[j + 1], validate=False)
        lhs = a.convolve(b).inverse_point()
        rhs = b.inverse_point().convolve(a.inverse_point())
        if lhs != rhs:
            ok = False
    cases.append(_case("inverse reverses the product", ok))

    nn = 2 * dims.m * dims.n
    ident = GroupPoint.identity(dims, nn)
    ok = True
    if mats:
        p = GroupPoint.from_matrix(dims, mats[0], validate=False)
        ok = p.convolve(ident) == p and ident.convolve(p) == p
    sample = [CG.t(dims, a, b) for a in dims.indices() for b in dims.indices()]
    sample.append(CG.t(dims, 1, 1) * CG.tbar(dims, 1, 1))
    for f in sample:
        got = GroupPoint.identity(dims, 0).evaluate(f)
        if got != GEl.scalar(0, f.counit()):
            ok = False
    cases.append(_case("identity point is neutral and counit-valued", ok))

    reals = real_sample_points(dims)
    ok = all(p.is_real() for p in reals)
    ok = ok and all(p.theta_dual() == p.inverse_point() for p in reals)
    cases.append(
        _case("conjugate dual inverts the constructed real points", ok,
              points=len(reals))
    )

    bad = GroupPoint.from_matrix(
        dims, _scalar_diag(dims, [Scalar(2)] + [ONE] * (dims.size - 1))
    )
    cases.append(_case("non-unitary diagonal is not real", not bad.is_real()))

    return _report("group", cases)
