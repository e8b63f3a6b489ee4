from fractions import Fraction

import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superfn.linalg import divided
from superfn.scalar import Scalar, ZERO, ONE, I, _rat, sign_pow

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=12
)
scalars = st.builds(Scalar, rationals, rationals)
# Real scalars (im == 0) take the operators' real fast path; mix them with
# complex ones so both paths and every real/complex pairing are drawn.
reals = st.builds(Scalar, rationals)
mixed = st.one_of(reals, scalars)
operands = st.one_of(mixed, st.integers(min_value=-50, max_value=50))


def test_constants():
    assert ZERO == Scalar(0)
    assert ONE == Scalar(1)
    assert I * I == Scalar(-1)
    assert sign_pow(0) == ONE and sign_pow(1) == -ONE
    assert sign_pow(7) == -ONE and sign_pow(10) == ONE


def test_basic_arithmetic():
    a = Scalar(Fraction(1, 2), Fraction(3, 4))
    b = Scalar(Fraction(-2), Fraction(1, 4))
    assert a + b == Scalar(Fraction(-3, 2), Fraction(1))
    assert a - b == Scalar(Fraction(5, 2), Fraction(1, 2))
    assert a * b == Scalar(Fraction(-19, 16), Fraction(-11, 8))
    assert a / a == ONE
    assert (a / b) * b == a


def test_conjugation_and_modulus():
    a = Scalar(Fraction(3, 5), Fraction(4, 5))
    assert a.conj() == Scalar(Fraction(3, 5), Fraction(-4, 5))
    assert a * a.conj() == ONE


def test_powers():
    assert I ** 4 == ONE
    assert Scalar(2) ** 10 == Scalar(1024)
    assert (ONE + I) ** 2 == Scalar(0, 2)
    assert Scalar(3) ** 0 == ONE


def test_rendering():
    assert str(Scalar(Fraction(1, 2))) == "1/2"
    assert str(Scalar(0, 1)) == "i"
    assert str(Scalar(0, -1)) == "-i"
    assert str(Scalar(-2)) == "-2"
    assert str(Scalar(1, 1)) == "1 + i"


@given(a=scalars, b=scalars, c=scalars)
def test_field_axioms(a, b, c):
    assert a + (b + c) == (a + b) + c
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(a=scalars)
def test_conj_is_involution(a):
    assert a.conj().conj() == a


@given(a=scalars, b=scalars)
def test_conj_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()


@given(a=scalars)
def test_division_inverts(a):
    if a != ZERO:
        assert a / a == ONE
        assert (ONE / a) * a == ONE


def _parts(x) -> tuple:
    if isinstance(x, int):
        return Fraction(x), Fraction(0)
    return Fraction(x.re), Fraction(x.im)


def _reference(op, a, b) -> tuple:
    """The full Q(i) formulas on (re, im) pairs of Fractions."""
    (ar, ai), (br, bi) = _parts(a), _parts(b)
    if op is operator.add:
        return ar + br, ai + bi
    if op is operator.sub:
        return ar - br, ai - bi
    if op is operator.mul:
        return ar * br - ai * bi, ar * bi + ai * br
    den = br * br + bi * bi
    return (ar * br + ai * bi) / den, (ai * br - ar * bi) / den


def _assert_canonical(r: Scalar):
    """Each part is exactly an int when integral, else a _rat with
    denominator above 1: never a float or a denominator-1 rational."""
    for part in (r.re, r.im):
        assert type(part) is int or (
            type(part) is _rat and part.denominator > 1), repr(part)


def _check_result(r: Scalar, want: tuple):
    assert (r.re, r.im) == want
    _assert_canonical(r)
    assert hash(r) == hash(Scalar(r.re, r.im))
    if r.im == 0 and r.re.denominator == 1:
        assert hash(r) == hash(int(r.re))
        assert r == int(r.re)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv],
                         ids=["add", "sub", "mul", "truediv"])
@given(a=operands, b=operands)
def test_operators_match_the_complex_reference(op, a, b):
    if isinstance(a, int) and isinstance(b, int):
        a = Scalar(a)
    if op is operator.truediv and not any(_parts(b)):
        return
    _check_result(op(a, b), _reference(op, a, b))


@given(a=mixed)
def test_negation_and_conjugation_match_the_reference(a):
    _check_result(-a, (-Fraction(a.re), -Fraction(a.im)))
    _check_result(a.conj(), (Fraction(a.re), -Fraction(a.im)))


def test_int_operands_on_both_sides():
    s = Scalar(Fraction(1, 2), 2)
    r = Scalar(Fraction(1, 2))
    assert 3 * s == s * 3 == Scalar(Fraction(3, 2), 6)
    assert s - 3 == Scalar(Fraction(-5, 2), 2)
    assert 3 - s == Scalar(Fraction(5, 2), -2)
    assert 3 / r == Scalar(6)
    assert 3 / s == Scalar(Fraction(6, 17), Fraction(-24, 17))
    assert 3 + r == r + 3 == Scalar(Fraction(7, 2))


@pytest.mark.parametrize("s", [Scalar(Fraction(2, 3)), Scalar(1, -2), ZERO],
                         ids=["real", "complex", "zero"])
def test_division_by_zero_raises(s):
    with pytest.raises(ZeroDivisionError):
        s / ZERO
    with pytest.raises(ZeroDivisionError):
        s / 0
    with pytest.raises(ZeroDivisionError):
        1 / ZERO


@pytest.mark.parametrize("parts", [(0.1,), (1, 0.5), (1j,), (0, complex(2))],
                         ids=["float-re", "float-im", "complex-re",
                              "complex-im"])
def test_inexact_parts_are_rejected(parts):
    with pytest.raises(TypeError):
        Scalar(*parts)


@pytest.mark.parametrize("re, im", [(0, 0), (1, 0), (-3, 7), (2**70, -1)])
def test_int_parts_are_stored_as_given(re, im):
    s = Scalar(re, im)
    slow = Scalar(Fraction(re), Fraction(im))
    assert s.re.__class__ is int and s.im.__class__ is int
    assert (s.re, s.im) == (slow.re, slow.im) == (re, im)
    assert s == slow and hash(s) == hash(slow)
    with pytest.raises(TypeError):
        Scalar(1.0)
    with pytest.raises(TypeError):
        Scalar(re, 1.0)


def test_exact_parts_are_accepted():
    assert Scalar(Fraction(1, 10)) == Scalar.rational(1, 10)
    assert Scalar(True) == ONE
    assert Scalar(-3, Fraction(2, 7)).im == Fraction(2, 7)


@pytest.mark.parametrize("r, want", [
    (lambda: Scalar(1) / Scalar(3), (Fraction(1, 3), 0)),
    (lambda: Scalar(4) / 2, (2, 0)),
    (lambda: 1 / Scalar(3), (Fraction(1, 3), 0)),
    (lambda: Scalar(3, 1) / Scalar(1, 1), (2, -1)),
    (lambda: Scalar(1, 1) / Scalar(1, -1), (0, 1)),
    (lambda: Scalar(1, 2) / Scalar(2, 1), (Fraction(4, 5), Fraction(3, 5))),
    (lambda: Scalar(6, 4) / 2, (3, 2)),
    (lambda: Scalar.rational(4, 2), (2, 0)),
    (lambda: Scalar.rational(1, 3), (Fraction(1, 3), 0)),
    (lambda: Scalar(Fraction(6, 3)), (2, 0)),
    (lambda: Scalar(Fraction(1, 2), Fraction(4, 2)), (Fraction(1, 2), 2)),
    (lambda: Scalar(True), (1, 0)),
], ids=["int/int", "int/2", "1/int", "complex-int", "complex-unit",
        "complex-frac", "complex/int", "rational-int", "rational-frac",
        "fraction-int", "fraction-parts", "bool"])
def test_results_have_canonical_parts(r, want):
    _check_result(r(), want)


def test_divided_parts_are_canonical():
    out = divided(({0: 4, 1: 3, 2: -6}, {1: 2, 3: 1}), 2)
    assert out == {0: Scalar(2), 1: Scalar(Fraction(3, 2), 1),
                   2: Scalar(-3), 3: Scalar(0, Fraction(1, 2))}
    for s in out.values():
        _assert_canonical(s)


def test_integral_products_of_fractions_are_ints():
    half = Scalar(Fraction(1, 2))
    for r in (half * 2, 2 * half, half + half, Scalar(Fraction(3, 2)) - half):
        _check_result(r, (1, 0))
        assert r == ONE and hash(r) == hash(ONE) == hash(1)


@pytest.mark.parametrize("make", [
    lambda: Scalar(1, 2), lambda: Scalar(Fraction(1, 3)), lambda: ONE + ONE,
    lambda: Scalar(2) * Scalar.rational(1, 2), lambda: -I,
    lambda: Scalar(1) / 3, lambda: ONE,
], ids=["init", "init-fraction", "add", "mul", "neg", "div", "constant"])
def test_scalars_stay_immutable(make):
    # operator results are built through the slots' member descriptors,
    # which must not open the slots to assignment or deletion
    s = make()
    before = (s.re, s.im)
    for name in ("re", "im", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(s, name, 1)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(s, name)
    assert (s.re, s.im) == before

