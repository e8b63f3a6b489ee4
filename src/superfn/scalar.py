"""Exact Gaussian-rational arithmetic.

Every coefficient in this package is a :class:`Scalar`, an element of Q(i)
stored as an exact real and imaginary rational part.  The rational type
``_rat`` is ``fractions.Fraction``.

There is one class with one representation, and its parts are canonical: a
part is a plain ``int`` when it is integral and a ``_rat`` with denominator
above 1 otherwise (see :func:`_part`).  Nearly every coefficient the package
meets is an integer (letter actions, Koszul signs, PBW straightening
constants), so most sums and products are ``int`` arithmetic, done in C with
no rational objects.  A rational result goes back to ``int`` when its
denominator is 1.  Division always goes through ``_rat``, so it is exact and
never gives a ``float``.

Nearly every coefficient is also real, so the operators take a real fast
path: when both imaginary parts are zero, ``+``, ``-`` and ``*`` make one
operation on the real parts, and division by a real divides each part once.
Complex operands use the full Q(i) formulas.  Operators build their results
with :func:`_mk` from canonical parts, without converting them again.  The
public constructor stores two plain ``int`` parts as they are; otherwise it
converts its arguments and rejects inexact ``float`` and ``complex`` parts.
"""

from __future__ import annotations

from fractions import Fraction as _rat

_INEXACT = (float, complex)


class Scalar:
    """An exact Gaussian rational ``re + im*i``.  Immutable and hashable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if re.__class__ is int and im.__class__ is int:
            # plain ints are canonical parts already
            _set_re(self, re)
            _set_im(self, im)
            return
        if isinstance(re, _INEXACT) or isinstance(im, _INEXACT):
            raise TypeError(
                f"Scalar parts must be exact, got {type(re).__name__} "
                f"and {type(im).__name__}"
            )
        _set_re(self, _part(_rat(re)))
        _set_im(self, _part(_rat(im)))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __delattr__(self, name):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def rational(p, q=1) -> "Scalar":
        return _mk(_part(_rat(p, q)), 0)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.re == other.re and self.im == other.im
        if isinstance(other, int):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = _coerce(other)
        re = self.re + other.re
        if re.__class__ is not int:
            re = _part(re)
        if not self.im and not other.im:
            return _mk(re, 0)
        return _mk(re, _part(self.im + other.im))

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = _coerce(other)
        re = self.re - other.re
        if re.__class__ is not int:
            re = _part(re)
        if not self.im and not other.im:
            return _mk(re, 0)
        return _mk(re, _part(self.im - other.im))

    def __rsub__(self, other) -> "Scalar":
        return _coerce(other) - self

    def __neg__(self) -> "Scalar":
        return _mk(-self.re, -self.im)

    def __mul__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = _coerce(other)
        if not self.im and not other.im:
            re = self.re * other.re
            if re.__class__ is not int:
                re = _part(re)
            return _mk(re, 0)
        return _mk(
            _part(self.re * other.re - self.im * other.im),
            _part(self.re * other.im + self.im * other.re),
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if not other.im:
            den = other.re
            if not den:
                raise ZeroDivisionError("division by zero Scalar")
            if not self.im:
                return _mk(_quo(self.re, den), 0)
            return _mk(_quo(self.re, den), _quo(self.im, den))
        den = other.re * other.re + other.im * other.im
        return _mk(
            _quo(self.re * other.re + self.im * other.im, den),
            _quo(self.im * other.re - self.re * other.im, den),
        )

    def __rtruediv__(self, other) -> "Scalar":
        return _coerce(other) / self

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return ONE / self ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "Scalar":
        return _mk(self.re, -self.im)

    def is_rational(self) -> bool:
        return not self.im

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def __str__(self) -> str:
        if not self.im:
            return _rat_str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{_rat_str(self.im)}*i"
        im = self.im
        op = "+" if im > 0 else "-"
        im_abs = im if im > 0 else -im
        im_part = "i" if im_abs == 1 else f"{_rat_str(im_abs)}*i"
        return f"{_rat_str(self.re)} {op} {im_part}"


# The slots are set through their member descriptors, which skip the
# refusing __setattr__ without a call to object.__setattr__ by name.
_new = object.__new__
_set_re = Scalar.re.__set__
_set_im = Scalar.im.__set__


def _mk(re, im) -> Scalar:
    """The Scalar re + im*i from parts that are already canonical."""
    s = _new(Scalar)
    _set_re(s, re)
    _set_im(s, im)
    return s


def _part(q):
    """The canonical part equal to the rational q: a plain ``int`` when q is
    integral, else q itself, a ``_rat`` with denominator above 1."""
    if q.__class__ is int:
        return q
    if q.denominator == 1:
        return int(q.numerator)
    return q


def _quo(a, b):
    """The canonical part a / b of two parts, b nonzero; exact through
    ``_rat``, so two ``int`` parts never divide to a ``float``."""
    return _part(_rat(a) / b)


def _coerce(x) -> Scalar:
    if x.__class__ is Scalar:
        return x
    if isinstance(x, int):
        return _mk(int(x), 0)
    raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")


def _rat_str(q) -> str:
    num, den = q.numerator, q.denominator
    if den == 1:
        return str(num)
    return f"{num}/{den}"


ZERO = Scalar(0)
ONE = Scalar(1)
MINUS_ONE = Scalar(-1)
I = Scalar(0, 1)


def sign_pow(e: int) -> Scalar:
    """(-1)**e as a Scalar, for parity exponents."""
    return ONE if e % 2 == 0 else MINUS_ONE
