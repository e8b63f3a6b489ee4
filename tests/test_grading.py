import pytest

from superfn.grading import Dims, form, is_dominant
from superfn.scalar import Scalar


def test_parities():
    d = Dims(2, 1)
    assert [d.par(a) for a in d.indices()] == [0, 0, 1]
    assert d.letter_par(1, 3) == 1
    assert d.letter_par(1, 2) == 0
    assert d.size == 3


def test_index_range_checked():
    d = Dims(1, 1)
    with pytest.raises(ValueError):
        d.par(0)
    with pytest.raises(ValueError):
        d.par(3)


def test_form_signature():
    # (eps_a, eps_b) = (-1)^{[a]} delta_ab
    d = Dims(2, 2)
    e1 = (1, 0, 0, 0)
    e3 = (0, 0, 1, 0)
    assert form(d, e1, e1) == Scalar(1)
    assert form(d, e3, e3) == Scalar(-1)
    assert form(d, e1, e3) == Scalar(0)


def test_dominance_examples():
    d = Dims(2, 1)
    # lam = eps_1: (lam, eps_1 - eps_2) / (eps_1 - eps_2, eps_1 - eps_2)
    # = 1/2... the quotient used is the one vanishing only off a = m
    assert is_dominant(d, (1, 0, 0))
    assert is_dominant(d, (0, 0, 0))
    assert is_dominant(d, (2, 1, 5))
    assert not is_dominant(d, (0, 1, 0))


def test_dominance_skips_the_wall():
    # at a = m the denominator (eps_m - eps_{m+1}, same) vanishes; any gap
    # across the wall is allowed
    d = Dims(1, 1)
    assert is_dominant(d, (0, 7))
    assert is_dominant(d, (3, -5))


def test_dominance_rejects_nonintegral_quotient():
    d = Dims(3, 1)
    assert is_dominant(d, (2, 1, 0, 4))
    assert not is_dominant(d, (2, 0, 1, 0))


def test_dims_are_interned():
    assert Dims(2, 1) is Dims(2, 1)
    assert Dims(2, 1) is not Dims(1, 2)
    assert Dims(True, 1) is Dims(1, 1)


def test_invalid_dims_are_refused():
    for m, n in ((0, 0), (-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="invalid dimensions"):
            Dims(m, n)
    with pytest.raises(TypeError):
        Dims(1.0, 1)


def test_dims_are_immutable():
    d = Dims(2, 1)
    for name, value in (("m", 3), ("size", 4), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(d, name, value)
    assert (d.m, d.n, d.size) == (2, 1, 3)


def test_dims_as_keys_and_in_inequality_checks():
    table = {Dims(1, 1): "a", Dims(2, 1): "b"}
    assert table[Dims(2, 1)] == "b" and Dims(1, 2) not in table
    assert Dims(2, 1) == Dims(2, 1) and not Dims(2, 1) != Dims(2, 1)
    assert Dims(2, 1) != Dims(1, 2) and Dims(2, 1) != Dims(2, 2)
    for other in (None, (2, 1), 3, "Dims(2, 1)"):
        assert Dims(2, 1) != other
