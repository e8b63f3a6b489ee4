"""Index parities, weights, and the invariant form for gl(m|n).

Indices run 1..m+n; index ``a`` is even iff ``a <= m``.  A weight is a tuple
of m+n exact scalars in the epsilon basis; the invariant form is
``(eps_a, eps_b) = (-1)^{[a]} delta_ab``.

The Hopf signs on the generators t_ab, tbar_ab, keyed (tag, a, b) with tag
"t" or "tb", are written here once as parity exponents, for the function
algebra and the group points alike.
"""

from __future__ import annotations

from .scalar import Scalar, ZERO, ONE, MINUS_ONE


class Dims:
    """Ambient size (m, n) of gl(m|n).  Indices are 1-based.

    Interned: ``Dims(m, n)`` is one object per (m, n), so two dims are
    equal exactly when they are the same object, and equality and hashing
    are the identity ones of ``object``."""

    __slots__ = ("m", "n", "size")

    def __new__(cls, m: int, n: int):
        if not isinstance(m, int) or not isinstance(n, int):
            raise TypeError(f"dimensions must be integers, got ({m!r}, {n!r})")
        m, n = int(m), int(n)
        self = _interned.get((m, n))
        if self is not None:
            return self
        if m < 0 or n < 0 or m + n == 0:
            raise ValueError(f"invalid dimensions ({m}, {n})")
        self = object.__new__(cls)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "size", m + n)
        _interned[m, n] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Dims is immutable")

    def par(self, a: int) -> int:
        """Parity of index a: 0 if a <= m, else 1."""
        if not 1 <= a <= self.size:
            raise ValueError(f"index {a} out of range 1..{self.size}")
        return 0 if a <= self.m else 1

    def letter_par(self, a: int, b: int) -> int:
        """Parity of the elementary letter E_ab."""
        return self.par(a) ^ self.par(b)

    def indices(self) -> range:
        return range(1, self.size + 1)

    def __repr__(self):
        return f"Dims({self.m}, {self.n})"


_interned: dict = {}


def delta_sign(dims: Dims, a: int, c: int, b: int) -> int:
    """e with Delta(g_ab) = sum_c (-1)^e g_ac (x) g_cb, g = t or tbar:
    e = ([c]+[a])([c]+[b])."""
    pc = dims.par(c)
    return (pc ^ dims.par(a)) & (pc ^ dims.par(b))


def antipode_image(dims: Dims, tag: str, a: int, b: int) -> tuple:
    """(e, key) with S(tag_ab) = (-1)^e key:
    S(t_ab) = (-1)^{[a][b]+[a]} tbar_ba, S(tbar_ab) = (-1)^{[a][b]+[b]} t_ba."""
    pa, pb = dims.par(a), dims.par(b)
    if tag == "t":
        return (pa & pb) ^ pa, ("tb", b, a)
    if tag == "tb":
        return (pa & pb) ^ pb, ("t", b, a)
    raise ValueError(f"antipode undefined for tag {tag!r}")


def omega_image(dims: Dims, tag: str, a: int, b: int) -> tuple:
    """(e, key) with omega(tag_ab) = (-1)^e key, for the compact star
    omega(t_ab) = (-1)^{[b]([a]+[b])} tbar_ab and
    omega(tbar_ab) = (-1)^{[b]([a]+[b])} t_ab."""
    if tag not in ("t", "tb"):
        raise ValueError(f"omega undefined for tag {tag!r}")
    pb = dims.par(b)
    return pb & (dims.par(a) ^ pb), ("tb" if tag == "t" else "t", a, b)


def _as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    return Scalar(x)


def form(dims: Dims, lam, mu) -> Scalar:
    """Invariant bilinear form sum_a (-1)^{[a]} lam_a mu_a."""
    lam = [_as_scalar(x) for x in lam]
    mu = [_as_scalar(x) for x in mu]
    if len(lam) != dims.size or len(mu) != dims.size:
        raise ValueError("weight length must equal m+n")
    total = ZERO
    for a in dims.indices():
        term = lam[a - 1] * mu[a - 1]
        if dims.par(a):
            term = -term
        total = total + term
    return total


def is_dominant(dims: Dims, lam) -> bool:
    """Dominance: 2(lam, alpha_a)/(alpha_a, alpha_a) is a nonnegative integer
    for every simple root alpha_a = eps_a - eps_{a+1} with a != m.

    At a = m the form (alpha_m, alpha_m) vanishes, so that root imposes no
    condition.
    """
    lam = [_as_scalar(x) for x in lam]
    if len(lam) != dims.size:
        raise ValueError("weight length must equal m+n")
    for a in range(1, dims.size):
        if a == dims.m:
            continue
        alpha = [ZERO] * dims.size
        alpha[a - 1] = ONE
        alpha[a] = MINUS_ONE
        num = Scalar(2) * form(dims, lam, alpha)
        den = form(dims, alpha, alpha)
        q = num / den
        if not q.is_rational() or q.re.denominator != 1 or q.re < 0:
            return False
    return True
