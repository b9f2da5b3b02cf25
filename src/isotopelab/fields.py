"""Exact scalar arithmetic over the rationals and over odd prime fields F_p.

A :class:`Field` is a lightweight descriptor (rationals, or F_p for an odd
prime p); a :class:`Scalar` pairs a field with a normalized value.  Rationals
are stored as :class:`fractions.Fraction` (always in lowest terms, positive
denominator), prime-field elements as residues in ``[0, p)``.  Characteristic
2 is rejected at field construction: 2 must be invertible everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import Char2FieldError, DomainError, FieldMismatchError


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class Field:
    """Field descriptor: the rationals when ``p is None``, else F_p, p an odd prime."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if self.p == 2:
                raise Char2FieldError("characteristic 2 is not supported")
            if not _is_prime(self.p):
                raise DomainError(f"modulus {self.p} is not prime")

    @classmethod
    def rationals(cls) -> "Field":
        return cls(None)

    @classmethod
    def gf(cls, p: int) -> "Field":
        return cls(p)

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def scalar(self, value) -> "Scalar":
        """Coerce ``value`` (Scalar, int, Fraction, or string like ``-3/2``) into this field."""
        if isinstance(value, Scalar):
            if value.field is not self and value.field != self:
                raise FieldMismatchError(f"scalar over {value.field} used in {self}")
            return value
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, int):
            if self.p is not None:
                return Scalar(self, value % self.p)
            value = Fraction(value)
        if not isinstance(value, Fraction):
            raise TypeError(f"cannot interpret {value!r} as a field element")
        if self.p is None:
            return Scalar(self, value)
        den = value.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {value} vanishes mod {self.p}")
        return Scalar(self, value.numerator * pow(den, self.p - 2, self.p) % self.p)

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, 0 if self.p is not None else Fraction(0))

    @property
    def one(self) -> "Scalar":
        return Scalar(self, 1 if self.p is not None else Fraction(1))

    def __str__(self) -> str:
        return "rational" if self.p is None else f"gf {self.p}"


class Scalar:
    """Immutable field element.

    Arithmetic operators accept another Scalar over the same field, or a raw
    int/Fraction which is coerced first, so that formulas read naturally
    (``1 - 2 * alpha * beta``).  Equality likewise compares against raw
    numbers after coercion.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatchError(
                    f"cannot combine scalars over {self.field} and {other.field}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.scalar(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        if p is None:
            return Scalar(self.field, self.value + o.value)
        return Scalar(self.field, (self.value + o.value) % p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        if p is None:
            return Scalar(self.field, self.value - o.value)
        return Scalar(self.field, (self.value - o.value) % p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        if p is None:
            return Scalar(self.field, self.value * o.value)
        return Scalar(self.field, self.value * o.value % p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        p = self.field.p
        if p is None:
            return Scalar(self.field, -self.value)
        return Scalar(self.field, -self.value % p)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        p = self.field.p
        if p is None:
            return Scalar(self.field, self.value**k)
        return Scalar(self.field, pow(self.value, k, p))

    def inverse(self) -> "Scalar":
        if self.is_zero:
            raise ZeroDivisionError("zero has no inverse")
        p = self.field.p
        if p is None:
            return Scalar(self.field, 1 / self.value)
        return Scalar(self.field, pow(self.value, p - 2, p))

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return (
                self.field is other.field or self.field == other.field
            ) and self.value == other.value
        if isinstance(other, (int, Fraction)):
            p = self.field.p
            if p is not None and other.denominator % p == 0:
                # not an element of F_p, so equal to none of them
                return False
            return self.value == self.field.scalar(other).value
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.value}, {self.field})"


QQ = Field.rationals()
