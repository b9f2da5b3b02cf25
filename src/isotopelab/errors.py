"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for every error raised by this package."""


class FieldMismatchError(AlgebraError):
    """Operands live over different fields."""


class DimensionMismatchError(AlgebraError):
    """Operands have incompatible dimensions."""


class Char2FieldError(AlgebraError):
    """Characteristic-2 fields are rejected everywhere (2 must be invertible)."""


class SingularMatrixError(AlgebraError):
    """A matrix required to be invertible has determinant zero."""


class SearchBudgetExceededError(AlgebraError):
    """An exhaustive search was requested outside its feasible parameter range."""


class DomainError(AlgebraError):
    """Arguments are outside the mathematical domain of the operation."""


class NotUnitalError(DomainError):
    """The algebra has no two-sided unit."""


class DependentNilsError(DomainError):
    """The supplied nil elements are linearly dependent (or trap the unit)."""


class NonSimpleError(DomainError):
    """The algebra is not simple, so the requested normal form does not exist."""


class NilRank3Error(DomainError):
    """The algebra has nil-rank 3, outside the scope of the rank-2 pipeline."""


class ParseError(AlgebraError):
    """Malformed algebra or matrix file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateEntryError(ParseError):
    """The same structure-tensor entry was specified twice."""
