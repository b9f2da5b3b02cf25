import copy
import pickle
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isotopelab import QQ, Char2FieldError, DomainError, Field, FieldMismatchError
from isotopelab.fields import _MR_BOUND, _is_prime

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


def trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(200_000) if _is_prime(n)] == [
        n for n in range(200_000) if trial_division(n)
    ]


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051, 318665857834031151167461])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # strong pseudoprimes to all prime bases up to 7, 23 and 37 in turn
    assert not _is_prime(n)


@pytest.mark.parametrize("n", [10**16 + 61, 2**61 - 1])
def test_is_prime_accepts_large_primes_quickly(n):
    # trial division took seconds on 10**16 + 61 and would not end on 2**61 - 1
    start = time.perf_counter()
    assert _is_prime(n)
    assert time.perf_counter() - start < 0.05


def test_modulus_at_the_primality_bound_is_a_domain_error():
    assert _MR_BOUND == 3_317_044_064_679_887_385_961_981  # psi_13
    for p in (_MR_BOUND, _MR_BOUND + 2):
        with pytest.raises(DomainError, match=str(_MR_BOUND)):
            Field(p)


def test_one_object_per_field():
    assert Field(5) is Field.gf(5) is Field(p=5)
    assert Field() is Field.rationals() is Field(None) is QQ
    assert Field(5) is not Field(7)
    for field in (QQ, f5):
        assert copy.copy(field) is field
        assert copy.deepcopy(field) is field
        assert copy.deepcopy([field])[0] is field
        assert pickle.loads(pickle.dumps(field)) is field


def test_invalid_moduli_raise_on_every_call():
    # a modulus that fails its checks is never kept
    for _ in range(2):
        with pytest.raises(Char2FieldError):
            Field(2)
        with pytest.raises(DomainError):
            Field(9)
        # a modulus that is no int is refused, never kept in place of an int
        with pytest.raises(TypeError):
            Field(7.5)


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
    assert (x**3).value == a**3
    if b != 0:
        assert (x / y) * y == x
        assert (1 / y).value == 1 / b
        assert (y**-2).value == 1 / (b * b)


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


@pytest.mark.parametrize("p", [None, 3, 5, 7])
@given(small_fractions, st.integers(-4, 4))
def test_pow_matches_python_pow(p, a, k):
    field = Field(p)
    if p is not None:
        a = a.numerator  # an int, often a multiple of p
    x = field.scalar(a)
    assert x**0 == 1
    assert field.zero**0 == 1
    if k < 0:
        # not the ValueError of pow(0, -1, p)
        with pytest.raises(ZeroDivisionError, match="zero has no inverse"):
            field.zero**k
    if x.is_zero:
        return
    assert (x**k).value == (a**k if p is None else pow(a, k, p))
    assert x**-1 == x.inverse()


INPUT_CHECKS = {
    "a scalar over gf 5 into QQ": (FieldMismatchError, lambda: QQ.scalar(f5.one)),
    "a float": (TypeError, lambda: QQ.scalar(0.5)),
    "decimal text": (ValueError, lambda: QQ.scalar("1.5")),
    "exponent text": (ValueError, lambda: f5.scalar("1e5000")),
    "scalar + float": (TypeError, lambda: QQ.one + 1.5),
    "float - scalar": (TypeError, lambda: 1.5 - QQ.one),
    "scalar - float": (TypeError, lambda: f5.one - 1.5),
    "scalar * float": (TypeError, lambda: f5.one * 1.5),
    "scalar / float": (TypeError, lambda: QQ.one / 1.5),
    "float / scalar": (TypeError, lambda: 1.5 / QQ.one),
    "scalar ** float": (TypeError, lambda: QQ.one ** 1.5),
}


@pytest.mark.parametrize("error,call", INPUT_CHECKS.values(), ids=list(INPUT_CHECKS))
def test_input_checks(error, call):
    with pytest.raises(error):
        call()


def test_scalar_equals_no_text_or_float():
    assert QQ.one != "1" and f5.one != 1.0


def test_scalar_text_is_an_integer_or_a_fraction():
    assert QQ.scalar("-3/6") == Fraction(-1, 2) and QQ.scalar("+7") == 7
    assert f5.scalar("1/3").value == 2
    for text in ("1.5", "1e5000", "1_000", " 1", "0x10", "1/2/3", ""):
        with pytest.raises(ValueError, match=re.escape(f"Invalid literal for Fraction: {text!r}")):
            QQ.scalar(text)


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
