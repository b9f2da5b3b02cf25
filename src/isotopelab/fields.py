"""Exact scalar arithmetic over the rationals and over odd prime fields F_p.

A :class:`Field` is a lightweight descriptor (rationals, or F_p for an odd
prime p), one object per field, so fields compare by identity; a
:class:`Scalar` pairs a field with a normalized value.  Rationals
are stored as :class:`fractions.Fraction` (always in lowest terms, positive
denominator), prime-field elements as residues in ``[0, p)``.  Characteristic
2 is rejected at field construction: 2 must be invertible everywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import Char2FieldError, DomainError, FieldMismatchError
from .records import FrozenRecord


# Miller-Rabin to these 13 bases is exact below psi_13 (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: with n - 1 = d 2^s, d odd, n passes base
    b when b^d = 1 or b^(d 2^k) = -1 for some k < s."""
    if n >= _MR_BOUND:
        raise DomainError(f"primality is decided only below {_MR_BOUND}, not for {n}")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    m = n - 1
    s = (m & -m).bit_length() - 1
    for b in _MR_BASES:
        x = pow(b, m >> s, n)
        if x == 1:
            continue
        for _ in range(s - 1):
            if x == m:
                break
            x = x * x % n
        if x != m:
            return False
    return True


def _residue(q, p: int) -> int | None:
    """The residue mod p of an int or Fraction, or None when its denominator
    vanishes mod p."""
    den = q.denominator % p
    if not den:
        return None
    return q.numerator * pow(den, -1, p) % p


_SCALAR_TEXT = re.compile(r"[-+]?[0-9]+(/[0-9]+)?")  # no decimal or exponent form

# p (None for the rationals) -> its one Field; an invalid p is never stored
_FIELDS: dict = {}


class Field(FrozenRecord):
    """Field descriptor: the rationals when ``p is None``, else F_p, p an odd
    prime.  ``Field(p)`` returns the same object on every call, and so do
    copies and pickles of it."""

    __slots__ = ("p",)

    def __new__(cls, p: int | None = None):
        field = _FIELDS.get(p)
        if field is None:
            if p is not None:
                if p.__class__ is not int:
                    raise TypeError(f"modulus must be an int, not {p!r}")
                if p == 2:
                    raise Char2FieldError("characteristic 2 is not supported")
                if not _is_prime(p):
                    raise DomainError(f"modulus {p} is not prime")
            field = object.__new__(cls)
            field._set(p)
            _FIELDS[p] = field
        return field

    def __reduce__(self):
        return Field, (self.p,)

    @classmethod
    def rationals(cls) -> "Field":
        return cls(None)

    @classmethod
    def gf(cls, p: int) -> "Field":
        return cls(p)

    def scalar(self, value) -> "Scalar":
        """Coerce ``value`` (Scalar, int, Fraction, or text ``[-+]digits[/digits]``
        like ``-3/2``) into this field; other text is a ValueError."""
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldMismatchError(f"scalar over {value.field} used in {self}")
            return value
        if isinstance(value, str):
            if not _SCALAR_TEXT.fullmatch(value):
                raise ValueError(f"Invalid literal for Fraction: {value!r}")
            if "/" in value and not int(value.partition("/")[2]):
                raise ZeroDivisionError("zero denominator")
            value = Fraction(value)
        if isinstance(value, int):
            if self.p is not None:
                return Scalar(self, value % self.p)
            value = Fraction(value)
        if not isinstance(value, Fraction):
            raise TypeError(f"cannot interpret {value!r} as a field element")
        if self.p is None:
            return Scalar(self, value)
        residue = _residue(value, self.p)
        if residue is None:
            raise ZeroDivisionError(f"denominator of {value} vanishes mod {self.p}")
        return Scalar(self, residue)

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
            if other.field is not self.field:
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
        return not self.value

    def __bool__(self) -> bool:
        return bool(self.value)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field is other.field and self.value == other.value
        if isinstance(other, (int, Fraction)):
            p = self.field.p
            # None, for a denominator that vanishes mod p, equals no residue
            return self.value == (other if p is None else _residue(other, p))
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.value))

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.value}, {self.field})"


QQ = Field.rationals()
