"""Exact-arithmetic structure-constant algebras, Albert isotopes, and
machine-checkable certificates for a family of small commutative algebras.
"""

from .algebras import (
    Algebra,
    Element,
    associator,
    envelope_dimension,
    find_unit,
    ideal_search_exhaustive,
    is_commutative,
    is_jordan,
    is_simple_closure,
    isomorphism_search,
    span_rank,
    verify_isomorphism,
)
from .catalog import (
    CanonicalizationResult,
    c2,
    c3,
    c_family,
    c_rho,
    canonicalize_C,
    catalog_algebras,
    g_n,
    j2,
    jordan_bilinear,
    to_canonical_C,
)
from .certificates import Certificate, Step
from .errors import (
    AlgebraError,
    Char2FieldError,
    DependentNilsError,
    DimensionMismatchError,
    DomainError,
    DuplicateEntryError,
    FieldMismatchError,
    NilRank3Error,
    NonSimpleError,
    NotUnitalError,
    ParseError,
    SearchBudgetExceededError,
    SingularMatrixError,
)
from .fields import QQ, Field, Scalar
from .isotopes import (
    Isotopy,
    RMultReport,
    express_as_right_mult,
    principal_isotope,
    r_mult_report,
    right_mult_fibre,
    standard_isotope,
    verify_isotopy,
)
from .matrices import Matrix, SolveResult, SpanTracker, random_invertible, rref, solve
from .nilpotents import (
    NilReport,
    is_nil_index2,
    nil_rank,
    nil_rank_bruteforce,
    nil_rank_exact_C,
    nil_set_bruteforce,
)
from .witnesses import (
    run_witness,
    witness_lemma1,
    witness_lemma6,
    witness_lemma10,
    witness_lemma11,
    witness_prop1,
    witness_prop2,
    witness_theorem1,
    witness_theorem2,
)

__version__ = "0.1.0"
