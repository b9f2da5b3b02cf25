from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isotopelab import Char2FieldError, DomainError, Field

rationals = Field.rationals()
f5 = Field.gf(5)


def test_char2_rejected_at_construction():
    with pytest.raises(Char2FieldError):
        Field.gf(2)


def test_nonprime_modulus_rejected():
    with pytest.raises(DomainError):
        Field.gf(9)


def test_p3_allowed():
    assert Field.gf(3).p == 3


@given(st.integers(-1000, 1000), st.integers(1, 1000))
def test_rational_normalization(num, den):
    # any representation equals its lowest-terms form
    s = rationals.scalar(Fraction(num, den))
    assert s.value == Fraction(num, den)
    assert s.value.denominator > 0
    assert s == Fraction(2 * num, 2 * den)


@given(st.integers(-100, 100))
def test_gf_residues_reduced(n):
    s = f5.scalar(n)
    assert 0 <= s.value < 5
    assert s == n


def test_fraction_coercion_into_gf():
    # 1/2 = 3 mod 5
    assert f5.scalar(Fraction(1, 2)).value == 3
    with pytest.raises(ZeroDivisionError):
        f5.scalar(Fraction(1, 5))


def test_equality_with_fraction_outside_gf():
    # 1/3 is not an element of F_3, so no residue equals it, and comparing
    # must not raise
    f3 = Field.gf(3)
    for v in range(3):
        assert not f3.scalar(v) == Fraction(1, 3)
        assert f3.scalar(v) != Fraction(2, 3)
    assert f5.scalar(3) == Fraction(1, 2)
    assert f5.scalar(1) != Fraction(7, 10)


@pytest.mark.parametrize("p", [3, 5, 7, 2**31 - 1])
@given(st.one_of(st.integers(-10**6, 10**6), st.integers(-10**40, 10**40), st.booleans()))
def test_gf_int_coercion_matches_fraction_route(p, k):
    # ints take a direct residue path; it must agree with the rational route
    field = Field.gf(p)
    direct, via_fraction = field.scalar(k), field.scalar(Fraction(k))
    assert direct == via_fraction
    assert direct.value == via_fraction.value
    assert type(direct.value) is type(via_fraction.value) is int


def test_string_parsing():
    assert rationals.scalar("-3/2").value == Fraction(-3, 2)
    assert f5.scalar("-3/2").value == f5.scalar(Fraction(-3, 2)).value


small_fractions = st.fractions(
    min_value=-50, max_value=50, max_denominator=50
)


@given(small_fractions, small_fractions)
def test_rational_field_axioms(a, b):
    x, y = rationals.scalar(a), rationals.scalar(b)
    assert (x + y).value == a + b
    assert (x * y).value == a * b
    assert (x - y) + y == x
    if b != 0:
        assert (x / y) * y == x


@given(st.integers(0, 4), st.integers(0, 4))
def test_gf5_field_axioms(a, b):
    x, y = f5.scalar(a), f5.scalar(b)
    assert x + y == (a + b) % 5
    assert x * y == (a * b) % 5
    assert (x - y) + y == x
    if b % 5:
        assert (x / y) * y == x


def test_inverse_and_pow():
    x = f5.scalar(3)
    assert x.inverse() * x == 1
    assert x**-1 == x.inverse()
    assert x**3 == 27 % 5
    with pytest.raises(ZeroDivisionError):
        f5.zero.inverse()
    r = rationals.scalar(Fraction(2, 7))
    assert r.inverse().value == Fraction(7, 2)


def test_mixed_field_arithmetic_rejected():
    from isotopelab import FieldMismatchError

    with pytest.raises(FieldMismatchError):
        f5.scalar(1) + rationals.scalar(1)


def test_scalar_int_convenience():
    g = f5.scalar(2)
    assert 1 - 2 * g == (1 - 4) % 5
    r = rationals.scalar(Fraction(1, 6))
    assert 1 - 2 * r == Fraction(2, 3)


def test_serialization_forms():
    assert str(rationals.scalar(Fraction(-3, 2))) == "-3/2"
    assert str(rationals.scalar(7)) == "7"
    assert str(f5.scalar(-1)) == "4"
