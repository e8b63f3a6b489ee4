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

All Grassmann arithmetic runs on integers.  One kernel, :func:`_mul_into`,
multiplies Grassmann elements stored as mask -> int dicts; a Gaussian
integer element is a (re, im) pair of them, and a real one has an empty im
dict, which costs no kernel pass: :func:`_zmul_sum` runs the kernel only on
two nonempty parts.  The kernel's sign mask of each right-hand mask is
computed once and kept in a module memo, emptied when it reaches
``_SIGN_MASKS_CAP`` entries.  :func:`_zconj` conjugates an element.
``GEl.__mul__`` and ``GEl.conj`` clear their operands, apply these, and
divide once.  Every body inverse, of a Gauss block or of a supermatrix,
comes from one routine, :func:`_block_inverse`: the integer
back-substitution of SparseEchelon on Gaussian-integer rows, at lowest
terms.  ``SMat.inverse`` clears its body once, inverts it there, sums the
soul Neumann series on such elements and divides once per entry;
``GroupPoint.from_matrix`` takes the integer sum as it is.  The series,
``SMat.__matmul__`` and the group suite multiply cleared matrices by one
product, :func:`_zmatmul`.  A
:class:`GroupPoint` keeps its generator images over their least common
denominator L, and every point operation works on them there: ``convolve``
sums the twisted matrix product over the product of the two denominators
and reduces it, while ``inverse_point``, ``theta_dual`` and ``is_real``
precompose with the antipode and the star omega: at the same L,
``_precomposed`` moves and signs the images by the generator rules of
:mod:`superfn.grading`, where every Hopf sign is written.  ``evaluate``
clears the coefficients of f by their common denominator q, adds the image
of a monomial with j generator factors into the sum scaled by its cleared
coefficient times L^(D - j), D the degree of f, and divides the integer sum
once by q * L^D.  The result is exactly the rational value.  GEl images
appear only at the public boundary: the ``GroupPoint`` constructor and
``t_img``/``tb_img``.  A GEl on n generators refuses a mask that names a
generator above theta_n.

The generic oracle's points come from :func:`random_gauss_point`, in the
Gauss form

    T = diag(A, D) [[1, beta], [0, 1]] [[1, 0], [gamma, 1]]
      = [[A + A beta gamma, A beta], [D gamma, D]]

with integer bodies A (m x m), D (n x n) and the 2mn free generators as
the entries of beta (m x n) and gamma (n x m).  Its inverse is closed form,

    T^{-1} = [[A^{-1},        -beta D^{-1}],
              [-gamma A^{-1}, (1 + gamma beta) D^{-1}]],

so no image has Grassmann degree above 2 and only det A and det D enter
the denominators: no Neumann series.  Such a point is built on integers
alone: each block is inverted by :func:`_block_inverse`, and the
images are written over the lcm of the two block denominators, which is
already their least common denominator.  The body of every T in GL(m|n) is
block diagonal and invertible, so (A, D, beta, gamma) -> T is an
isomorphism GL_m x GL_n x A^{0|2mn} -> GL(m|n), and these points are as
generic as arbitrary even supermatrices (Berezin, *Introduction to
Superanalysis*, 1987, uses the same factorisation for the Berezinian).

The group suite :func:`verify_group` checks these same points.  Each must
satisfy the defining relations (``validate``), that is T T^{-1} = T^{-1} T
= I; an inverse is unique, so that proves the closed form without a second
inverse by the series.  The suite reads T and T^{-1} back off each point's
images and checks convolution and the antipode against integer matrix
products of them, the antipode case at lowest terms.  It refuses more than
``GROUP_GENERATOR_CAP`` odd generators, and an even work (m+n)^3 above
``GROUP_EVEN_CAP``; its cost is the convolutions, mostly the associativity
case's triple products.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional

from .grading import Dims, antipode_image, delta_sign, omega_image
from .linalg import LinComb, SparseEchelon, _add_scaled, cleared, divided
from .scalar import Scalar, ZERO, ONE, I, sign_pow
from .superpoly import Poly, render_terms
from .ugl import _remember

_BODY_BOUND = 2 ** 20
GROUP_GENERATOR_CAP = 12
GROUP_EVEN_CAP = 8000


class GEl(LinComb):
    """An element of the Grassmann algebra on n generators over Q(i)."""

    __slots__ = ("n",)
    _UNIT = 0
    _key_degree = staticmethod(int.bit_count)

    @staticmethod
    def _key_parity(mask: int) -> int:
        return mask.bit_count() & 1

    def __init__(self, n: int, terms: Optional[dict] = None):
        self.n = n
        self.terms = terms if terms is not None else {}
        if terms and max(terms) >> n:
            raise ValueError(f"mask {max(terms)} names a generator above "
                             f"theta{n}")

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

    def __mul__(self, other: "GEl") -> "GEl":
        self._check(other)
        den, (x, y) = cleared((self.terms, other.terms))
        return GEl(self.n, divided(_zmul_sum(((x, y),)), den * den))

    def conj(self) -> "GEl":
        den, (num,) = cleared((self.terms,))
        return GEl(self.n, divided(_zconj(num), den))

    def __repr__(self):
        body = render_terms(self.terms, None, lambda m: [
            f"theta{j + 1}" for j in range(self.n) if m >> j & 1])
        return f"GEl({body})"


def _odd_below(m: int) -> int:
    """The bits i at which m has an odd number of set bits below i.

    Bits above m's highest bit all agree, so the result may be negative.
    """
    out = 0
    while m:
        low = m & -m
        out ^= -(low << 1)
        m ^= low
    return out


# _odd_below of each right-hand mask, computed once: the right operand of
# a product is nearly always a generator image, whose few masks repeat.
# The memo is emptied when it reaches its cap.
_SIGN_MASKS_CAP = 4096
_sign_masks: dict = {}


def _mul_into(out: dict, x: dict, y: dict, sign: int = 1) -> None:
    """Add sign * x * y into out, on mask -> int Grassmann elements.

    The one integer Grassmann product; zero values may be left in out.
    Each mask of y takes its sign mask from the memo.
    """
    masks = _sign_masks
    for m2, c2 in y.items():
        below = masks.get(m2)
        if below is None:
            below = _odd_below(m2)
            _remember(masks, _SIGN_MASKS_CAP, m2, below)
        c2 *= sign
        for m1, c1 in x.items():
            if not m1 & m2:
                m = m1 | m2
                if (m1 & below).bit_count() & 1:
                    out[m] = out.get(m, 0) - c1 * c2
                else:
                    out[m] = out.get(m, 0) + c1 * c2


def _zmul_sum(pairs) -> tuple:
    """Sum of x * y over pairs of Gaussian-integer Grassmann elements.

    An element is a (re, im) pair of mask -> int dicts; a real one has an
    empty im dict.  The kernel runs only on two nonempty parts, so a
    product of real elements costs one kernel pass.
    """
    re, im = {}, {}
    for (xr, xi), (yr, yi) in pairs:
        if xr:
            if yr:
                _mul_into(re, xr, yr)
            if yi:
                _mul_into(im, xr, yi)
        if xi:
            if yi:
                _mul_into(re, xi, yi, -1)
            if yr:
                _mul_into(im, xi, yr)
    return (
        {m: c for m, c in re.items() if c},
        {m: c for m, c in im.items() if c},
    )


_ZONE = ({0: 1}, {})  # the Gaussian-integer Grassmann element 1


def _lowest_terms(parts) -> tuple:
    """Put cleared parts over their least common denominator.

    parts is a list of (den, nums) pairs, nums a list of Gaussian-integer
    elements standing for nums[i] / den.  Returns (L, nums) with all the
    elements, in order, over the least common denominator L of their
    coefficients.
    """
    den = math.lcm(*(d for d, _ in parts))
    g = den
    for d, nums in parts:
        k = den // d
        for re, im in nums:
            g = math.gcd(g, *(c * k for c in re.values()),
                         *(c * k for c in im.values()))
    out = []
    for d, nums in parts:
        k = den // d
        for re, im in nums:
            out.append(({m: c * k // g for m, c in re.items()},
                        {m: c * k // g for m, c in im.items()}))
    return den // g, out


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
                if p != want and not e.is_zero():
                    got = "mixed parity" if p is None else f"parity {p}"
                    raise ValueError(
                        f"entry ({a},{b}) has {got}, expected {want}"
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
        (dx, x), (dy, y) = self._cleared(), other._cleared()
        return _smat(self.dims, self.n, dx * dy,
                     _zmatmul(x, y, self.dims.size))

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
        """Exact inverse, by the integer soul Neumann series of
        :meth:`_inverse_cleared`, each entry divided once.  Raises
        ValueError when the body is singular.
        """
        return _smat(self.dims, self.n, *self._inverse_cleared())

    def _cleared(self) -> tuple:
        """(L, nums) with the entries, row by row, equal to nums / L."""
        return cleared(e.terms for row in self.rows for e in row)

    def _inverse_cleared(self) -> tuple:
        """(L, nums) with T^{-1} = nums / L, nums its Gaussian-integer
        entries row by row, as :meth:`_cleared` gives those of T.

        The body is cleared once, B = N / b, and N is inverted on integers
        by :func:`_block_inverse`, N^{-1} = (x + i y) / d, so that
        B^{-1} = b (x + i y) / d, put at lowest terms X / d'.  The soul
        S = T - B enters the Neumann series
        T^{-1} = sum_j B^{-1} (-S B^{-1})^j.  With S' = e S integral, the
        j-th term is the one before times -S'X / (e d').  Each term is put
        in its own lowest terms as it is produced, and the terms are summed
        once over the lcm L of their denominators.
        """
        size = self.dims.size
        b, body = cleared(dict(enumerate(row)) for row in self.body_matrix())
        d, x, y = _block_inverse(body)
        d, x = _lowest_terms([(d, [  # B^{-1} = b (x + i y) / d
            ({0: b * x[i][j]} if x[i][j] else {},
             {0: b * y[i][j]} if y and y[i][j] else {})
            for i in range(size) for j in range(size)])])
        e, neg_soul = cleared(
            {m: -c for m, c in entry.terms.items() if m}
            for row in self.rows
            for entry in row
        )
        neg_sx = _zmatmul(neg_soul, x, size)
        terms = [(d, x)]
        for _ in range(self.n):
            den, cur = terms[-1]
            cur = _zmatmul(cur, neg_sx, size)
            if not any(re or im for re, im in cur):
                break
            terms.append(_lowest_terms([(den * e * d, cur)]))
        den = math.lcm(*(t for t, _ in terms))
        return den, [
            _zmul_sum((({0: den // t}, {}), nums[i]) for t, nums in terms)
            for i in range(size * size)
        ]


def _split(flat: list, size: int) -> list:
    """The rows of a size x size matrix whose entries are listed row by row."""
    return [flat[i:i + size] for i in range(0, len(flat), size)]


def _smat(dims: Dims, n: int, den: int, nums: list) -> SMat:
    """The supermatrix whose entries, row by row, are nums / den."""
    return SMat(dims, n, _split([GEl(n, divided(z, den)) for z in nums],
                                dims.size))


def _zmatmul(x: list, y: list, size: int) -> list:
    """x y, on size x size matrices of Gaussian-integer Grassmann elements
    listed row by row: the one cleared matrix product."""
    cols = list(zip(*_split(y, size)))
    return [_zmul_sum(zip(row, col)) for row in _split(x, size)
            for col in cols]


def _zneg(num: tuple) -> tuple:
    """-num, for a Gaussian-integer element num."""
    re, im = num
    return {m: -c for m, c in re.items()}, {m: -c for m, c in im.items()}


def _zconj(num: tuple) -> tuple:
    """conj(num), for a Gaussian-integer element num: im negated, and a
    k-generator mask negated when k(k-1)/2 is odd, that is when
    (k >> 1) & 1."""
    re, im = num
    return ({m: -c if m.bit_count() & 2 else c for m, c in re.items()},
            {m: c if m.bit_count() & 2 else -c for m, c in im.items()})


def _block_inverse(rows: list) -> tuple:
    """(d, x, y) with the inverse of the square Gaussian-integer matrix N
    equal to (x + i y) / d at lowest terms, on integers throughout: the one
    body inverse of the package.  rows are N's rows as :func:`cleared`
    gives them, (re, im) pairs of column -> int dicts, and are reduced in
    place; x and y are dense rows of ints, and y is empty when N is real.
    [N | I] goes into SparseEchelon, and row i of its integer
    back-substitution is (P_i e_i | P_i (N^{-1})_i), primitive over its
    real and imaginary parts with a positive integer P_i, so P_i is the
    least denominator of that row and d is the lcm of the P_i.  Raises
    ValueError when N is singular.
    """
    k = len(rows)
    ech = SparseEchelon()
    for i, row in enumerate(rows):
        row[0][k + i] = 1
        ech._insert_cleared(row)
    if any(p not in ech.rows for p in range(k)):
        raise ValueError("singular body matrix")
    done = ech._reduced_cleared()
    red = [done[i] for i in range(k)]
    d = math.lcm(*(re[i] for i, (re, _) in enumerate(red)))
    x = [[re.get(k + j, 0) * (d // re[i]) for j in range(k)]
         for i, (re, _) in enumerate(red)]
    for _, im in red:
        if im:
            return d, x, [[im.get(k + j, 0) * (d // re[i]) for j in range(k)]
                          for i, (re, im) in enumerate(red)]
    return d, x, ()


def _random_block(k: int, rng: random.Random) -> tuple:
    """(rows, (d, x)): a random k x k integer matrix, drawn row by row from
    {-2**20..2**20} and redrawn while it is singular, and its inverse."""
    while True:
        rows = [[rng.randint(-_BODY_BOUND, _BODY_BOUND) for _ in range(k)]
                for _ in range(k)]
        try:
            d, x, _ = _block_inverse(
                [({j: c for j, c in enumerate(row) if c}, {}) for row in rows])
            return rows, (d, x)
        except ValueError:
            pass


def random_even_invertible(dims: Dims, rng: random.Random) -> SMat:
    """A random even supermatrix with invertible body.

    The even blocks A and then D are drawn by :func:`_random_block`; then
    each odd slot, row by row, gets its own Grassmann generator (N = 2mn
    covers them all) with a random nonzero coefficient bounded by 2**20.
    """
    n_gen = 2 * dims.m * dims.n
    a, _ = _random_block(dims.m, rng)
    d, _ = _random_block(dims.n, rng)
    body = [r + [0] * dims.n for r in a] + [[0] * dims.m + r for r in d]
    gens = iter(range(1, n_gen + 1))
    return SMat(dims, n_gen, [[
        GEl.gen(n_gen, next(gens)).scale(
            rng.randint(1, _BODY_BOUND) * rng.choice((1, -1)))
        if dims.letter_par(a, b) else GEl.scalar(n_gen, body[a - 1][b - 1])
        for b in dims.indices()] for a in dims.indices()])


def random_gauss_point(dims: Dims, rng: random.Random) -> "GroupPoint":
    """The Gauss-form point of random integer bodies A and then D (see the
    module docstring), unvalidated; each block is inverted once."""
    a_block = _random_block(dims.m, rng)
    return _gauss_point(dims, a_block, _random_block(dims.n, rng))


def _gauss_point(dims: Dims, a_block: tuple, d_block: tuple) -> "GroupPoint":
    """The point of T = [[A + A beta gamma, A beta], [D gamma, D]].

    Each block is (rows, (d, x)) with rows^{-1} = x / d.  beta[i][j] is
    generator i n + j + 1 and gamma[i][j] generator m n + i m + j + 1, so
    every beta precedes every gamma: beta gamma keeps the sign of its mask
    and gamma beta flips it.

    The images are written over den = lcm(d_A, d_D) as they are: the t
    images den T with the eta twist (-1 on the D gamma block) and the tbar
    images the transpose of den T^{-1}.  den is already their least common
    denominator, because each block inverse is at lowest terms and the body
    entries of den T^{-1} are den x_A / d_A and den x_D / d_D.
    """
    m, n = dims.m, dims.n
    a, (da, xa) = a_block
    d, (dd, xd) = d_block
    den = math.lcm(da, dd)
    ka, kd = den // da, den // dd

    def beta(i, j):
        return 1 << (i * n + j)

    def gamma(i, j):
        return 1 << (m * n + i * m + j)

    def real(pairs):
        return {mask: c for mask, c in pairs if c}, {}

    mat, inv = [], []  # den T twisted, and den T^{-1}, row by row
    for i in range(m):
        mat += [real([(0, den * a[i][j])]
                     + [(beta(k, l) | gamma(l, j), den * a[i][k])
                        for k in range(m) for l in range(n)])
                for j in range(m)]
        mat += [real((beta(k, j), den * a[i][k]) for k in range(m))
                for j in range(n)]
        inv += [real([(0, ka * xa[i][j])]) for j in range(m)]
        inv += [real((beta(i, k), -kd * xd[k][j]) for k in range(n))
                for j in range(n)]
    for i in range(n):
        mat += [real((gamma(k, j), -den * d[i][k]) for k in range(n))
                for j in range(m)]
        mat += [real([(0, den * d[i][j])]) for j in range(n)]
        inv += [real((gamma(i, k), -ka * xa[k][j]) for k in range(m))
                for j in range(m)]
        inv += [real([(0, kd * xd[i][j])]
                     + [(gamma(i, k) | beta(k, l), -kd * xd[l][j])
                        for k in range(m) for l in range(n)])
                for j in range(n)]
    size = dims.size
    keys = [(i, j) for i in dims.indices() for j in dims.indices()]
    num = {("t", i, j): img for (i, j), img in zip(keys, mat)}
    num.update((("tb", i, j), inv[(j - 1) * size + i - 1]) for i, j in keys)
    return GroupPoint._new(dims, 2 * m * n, den, num)


def _relaid(dims: Dims, mat: list, inv: list) -> tuple:
    """The t and tbar images, in (a, b) order, of T and T^{-1} listed row by
    row: T twisted by eta and T^{-1} transposed.  Both are involutions, so
    the same call reads T and T^{-1} back off the images."""
    keys = [(a, b) for a in dims.indices() for b in dims.indices()]
    return ([_zneg(x) if dims.par(a) > dims.par(b) else x  # eta(a, b) = -1
             for (a, b), x in zip(keys, mat)],
            [inv[(b - 1) * dims.size + a - 1] for a, b in keys])


def eta(dims: Dims, a: int, b: int) -> Scalar:
    """The group-point twist (-1)^{[a][b]+[a]}."""
    return sign_pow(dims.par(a) * dims.par(b) + dims.par(a))


class GroupPoint:
    """An algebra map from the function algebra to a Grassmann algebra.

    The generator images are held cleared over one common denominator: the
    positive integer ``den`` is the least common denominator of all their
    coefficients, and ``num[(tag, a, b)]`` for tag "t" or "tb" is the
    Gaussian-integer (re, im) pair of mask -> int dicts with
    alpha(tag[a,b]) = num[(tag, a, b)] / den.
    """

    __slots__ = ("dims", "n", "den", "num")

    def __init__(self, dims: Dims, n: int, t_img: dict, tb_img: dict):
        self.dims = dims
        self.n = n
        keys = [("t",) + k for k in t_img] + [("tb",) + k for k in tb_img]
        self.den, nums = cleared(
            g.terms for g in (*t_img.values(), *tb_img.values())
        )
        self.num = dict(zip(keys, nums))

    def _images(self, tag: str) -> dict:
        return {
            (a, b): GEl(self.n, divided(num, self.den))
            for (t, a, b), num in self.num.items()
            if t == tag
        }

    @property
    def t_img(self) -> dict:
        """alpha(t_ab) as GEl, keyed (a, b): the public view of the images.

        Rebuilt from the cleared images on every read, one division per
        coefficient; read it once, not inside a loop.  No point operation
        reads it.
        """
        return self._images("t")

    @property
    def tb_img(self) -> dict:
        """alpha(tbar_ab) as GEl, keyed (a, b): the public view, rebuilt on
        every read like :attr:`t_img`."""
        return self._images("tb")

    @staticmethod
    def from_matrix(dims: Dims, mat: SMat) -> "GroupPoint":
        """The point of an even invertible supermatrix, validated.

        The tbar images come from the integer series of
        ``mat._inverse_cleared`` and go over the point's least common
        denominator without a pass through Fraction.  The group suite does
        not call it on its Gauss points, which it checks by the relations.
        """
        if mat.dims != dims:
            raise ValueError("mismatched gl(m|n) dimensions")
        point = GroupPoint._from_cleared(
            dims, mat.n, mat._cleared(), mat._inverse_cleared()
        )
        point.validate()
        return point

    @staticmethod
    def _from_cleared(dims: Dims, n: int, mat: tuple,
                      inv: tuple) -> "GroupPoint":
        """The point of T from cleared parts (den, nums) of T and of T^{-1},
        nums their Gaussian-integer entries row by row, laid out by
        :func:`_relaid` over one least common denominator
        (:func:`_lowest_terms`).
        """
        (mat_den, mat_nums), (inv_den, inv_nums) = mat, inv
        t_nums, tb_nums = _relaid(dims, mat_nums, inv_nums)
        den, nums = _lowest_terms([(mat_den, t_nums), (inv_den, tb_nums)])
        keys = [(a, b) for a in dims.indices() for b in dims.indices()]
        return GroupPoint._new(dims, n, den, dict(zip(
            [("t",) + k for k in keys] + [("tb",) + k for k in keys], nums
        )))

    def _matrices(self) -> tuple:
        """((den, nums) of T, (den, nums) of T^{-1}), nums row by row, read
        back off the images by :func:`_relaid` at the point's den."""
        keys = [(a, b) for a in self.dims.indices()
                for b in self.dims.indices()]
        mat, inv = _relaid(self.dims, [self.num[("t", *k)] for k in keys],
                           [self.num[("tb", *k)] for k in keys])
        return (self.den, mat), (self.den, inv)

    @staticmethod
    def _new(dims: Dims, n: int, den: int, num: dict) -> "GroupPoint":
        """The point with alpha(tag[a,b]) = num[(tag, a, b)] / den, den the
        least common denominator of the images."""
        point = GroupPoint.__new__(GroupPoint)
        point.dims, point.n, point.den, point.num = dims, n, den, num
        return point

    @staticmethod
    def identity(dims: Dims, n: int = 0) -> "GroupPoint":
        ident = (1, [_ZONE if a == b else ({}, {})
                     for a in dims.indices() for b in dims.indices()])
        return GroupPoint._from_cleared(dims, n, ident, ident)

    def validate(self):
        """Check the defining relations; raises ValueError on failure."""
        from .cg import relations

        for rel in relations(self.dims):
            val = self.evaluate(rel)
            if not val.is_zero():
                raise ValueError("matrix does not define a group point")

    def evaluate(self, f) -> GEl:
        """Evaluate a function-algebra element: a CG of this point's dims,
        or a bare Poly in t[a,b] and tb[a,b] with a, b in 1..m+n and
        parity [a]+[b].

        f's coefficients are cleared by their common denominator q, and the
        image of a monomial with j generator factors is added into the sum
        scaled by its cleared coefficient times den^(D - j), D the degree
        of f.  The sum runs on integers and is divided once, by q * den^D.
        Raises ValueError for anything but a Poly, for a CG of other dims
        and for any other symbol.
        """
        if not isinstance(f, Poly):
            raise ValueError(f"cannot evaluate a {type(f).__name__}: not a "
                             f"function-algebra element")
        if f._shape() not in ((), self.dims):  # a bare Poly has shape ()
            raise ValueError("mismatched gl(m|n) dimensions")
        if not f.terms:
            return GEl(self.n)
        top = f.degree()
        q, coeffs = cleared({0: c} for c in f.terms.values())
        re, im = {}, {}
        for (cre, cim), mono in zip(coeffs, f.terms):
            (pre, pim), j = self._monomial(mono)
            k = self.den ** (top - j)
            a, b = cre.get(0, 0) * k, cim.get(0, 0) * k
            # (a + b i)(pre + pim i), added term by term
            _add_scaled(re, a, pre)
            _add_scaled(re, -b, pim)
            _add_scaled(im, a, pim)
            _add_scaled(im, b, pre)
        return GEl(self.n, divided((re, im), q * self.den ** top))

    def _monomial(self, mono) -> tuple:
        """(den^j times the image of mono, its degree j)."""
        prod, j, m = _ZONE, 0, self.dims.m
        for s, e in mono:
            img = self.num.get(s[:3])
            if img is None:
                if s[0] != "t" and s[0] != "tb":
                    raise ValueError(f"cannot evaluate tag {s[0]!r}")
                raise ValueError(f"symbol {s[0]}[{s[1]},{s[2]}] outside "
                                 f"1..{self.dims.size}")
            par = (s[1] > m) ^ (s[2] > m)  # [a]+[b]
            if s[3] != par:
                raise ValueError(f"symbol {s[0]}[{s[1]},{s[2]}] has parity "
                                 f"{s[3]!r}, not {int(par)}")
            for _ in range(e):
                prod = _zmul_sum(((prod, img),)) if j else img
                j += 1
        return prod, j

    def convolve(self, other: "GroupPoint") -> "GroupPoint":
        """Convolution product (alpha * beta)(f) = m (alpha (x) beta) Delta(f).

        On generator images this is the twisted matrix product, summed on
        integers over self.den * other.den; for points built from
        supermatrices it matches from_matrix of the product.
        """
        if self.dims != other.dims or self.n != other.n:
            raise ValueError("mismatched group points")
        dims = self.dims
        keys = list(self.num)
        nums = [
            _zmul_sum(
                (self.num[(tag, a, c)],
                 _zneg(other.num[(tag, c, b)]) if delta_sign(dims, a, c, b)
                 else other.num[(tag, c, b)])
                for c in dims.indices()
            )
            for tag, a, b in keys
        ]
        den, nums = _lowest_terms([(self.den * other.den, nums)])
        return GroupPoint._new(self.dims, self.n, den, dict(zip(keys, nums)))

    def _precomposed(self, *maps) -> "GroupPoint":
        """The generator images of alpha after the generator maps ``maps``,
        applied in the order given, each a grading sign rule
        (dims, tag, a, b) -> (e, image key): the image of g is
        +-num[image key], at the same den."""
        num = {}
        for key in self.num:
            e, image = 0, key
            for gen_map in maps:
                d, image = gen_map(self.dims, *image)
                e ^= d
            num[key] = _zneg(self.num[image]) if e else self.num[image]
        return GroupPoint._new(self.dims, self.n, self.den, num)

    def inverse_point(self) -> "GroupPoint":
        """Precompose with the antipode: the convolution inverse."""
        return self._precomposed(antipode_image)

    def is_real(self) -> bool:
        """Whether alpha(omega(g)) = conj(alpha(g)) for every generator g."""
        starred = self._precomposed(omega_image).num
        return all(starred[key] == _zconj(num)
                   for key, num in self.num.items())

    def theta_dual(self) -> "GroupPoint":
        """The point f -> conj(alpha(omega(S(f)))), at the same den.  For
        real points this equals the convolution inverse."""
        dual = self._precomposed(antipode_image, omega_image)
        return GroupPoint._new(self.dims, self.n, self.den, {
            key: _zconj(num) for key, num in dual.num.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupPoint)
            and self.dims == other.dims
            and self.n == other.n
            and self.den == other.den
            and self.num == other.num
        )


def _scalar_diag(dims: Dims, entries) -> SMat:
    rows = [
        [
            GEl.scalar(0, entries[a - 1] if a == b else 0)
            for b in dims.indices()
        ]
        for a in dims.indices()
    ]
    return SMat(dims, 0, rows)


def real_sample_points(dims: Dims) -> list:
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
    return [GroupPoint.from_matrix(dims, mat) for mat in mats]


def verify_group(dims: Dims, count: int = 20, seed: int = 0) -> dict:
    """The supergroup suite: point construction, convolution vs matrix
    product, inverses via the antipode, and the real-form duality.

    Its points are the generic oracle's, the first ``count`` that
    :func:`random_gauss_point` draws from ``random.Random(seed)``, checked
    as the module docstring says: the first case passes when every point
    satisfies the defining relations, with no series inverse of its
    matrix.  The product cases check consecutive
    pairs and the associativity case consecutive triples, so ``count``
    must be at least 3: with fewer, those cases would pass without
    checking anything.  Raises DimCapError, before any point is drawn,
    when 2mn exceeds ``GROUP_GENERATOR_CAP`` or (m+n)^3, the even work of
    its matrix products, exceeds ``GROUP_EVEN_CAP``.
    """
    from .cg import CG, DimCapError, _case, _report

    if count < 3:
        raise ValueError("count must be at least 3")
    nn = 2 * dims.m * dims.n
    if nn > GROUP_GENERATOR_CAP:
        raise DimCapError(f"group suite needs {nn} odd generators, over "
                          f"cap {GROUP_GENERATOR_CAP}")
    even = dims.size ** 3
    if even > GROUP_EVEN_CAP:
        raise DimCapError(f"group suite needs even work (m+n)^3 = {even}, "
                          f"over cap {GROUP_EVEN_CAP}")
    rng = random.Random(seed)
    points = [random_gauss_point(dims, rng) for _ in range(count)]
    mats = [p._matrices() for p in points]
    cases = []

    ok = True
    for p in points:
        try:
            p.validate()
        except ValueError:
            ok = False
    cases.append(
        _case("random supermatrices define group points", ok, count=count)
    )

    ok = True
    for j in range(0, count - 1, 2):
        ((d1, t1), (_, i1)), ((d2, t2), (_, i2)) = mats[j:j + 2]
        ok = ok and points[j].convolve(points[j + 1]) == (
            GroupPoint._from_cleared(
                dims, nn, (d1 * d2, _zmatmul(t1, t2, dims.size)),
                (d1 * d2, _zmatmul(i2, i1, dims.size))))
    cases.append(_case("convolution matches the supermatrix product", ok))

    ok = all(a.convolve(b).convolve(c) == a.convolve(b.convolve(c))
             for a, b, c in zip(points[::3], points[1::3], points[2::3]))
    cases.append(_case("convolution is associative", ok))

    ok = all(p.inverse_point() == GroupPoint._from_cleared(dims, nn, inv, mat)
             for p, (mat, inv) in zip(points, mats))
    cases.append(_case("antipode precomposition inverts the point", ok))

    ok = all(a.convolve(b).inverse_point()
             == b.inverse_point().convolve(a.inverse_point())
             for a, b in zip(points[::2], points[1::2]))
    cases.append(_case("inverse reverses the product", ok))

    ident = GroupPoint.identity(dims, nn)
    p = points[0]
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
