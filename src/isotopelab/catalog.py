"""Constructors for the named algebra families and normal forms for the
3-dimensional unital family C(alpha, beta, gamma).

Families:

* ``jordan_bilinear``: F1 + V with v w = f(v, w) 1 for a symmetric Gram
  matrix f; ``j2`` is the 2-dimensional symplectic case
  <1, x, y | x^2 = y^2 = 0, xy = 1>.
* ``c_family``: <1, x, y | x^2 = y^2 = 0, xy = a 1 + b x + g y>;
  ``c_rho`` is the symmetric member C(r, r, r).
* ``c2``: the non-unital algebra <a, b, c | a^2 = b, ab = a, ac = c,
  b^2 = c^2 = 0, bc = b>.
* ``c3``: the cyclic algebra <x, y, z | squares 0, xy = z, yz = x, zx = y>.
* ``g_n``: dimension n + 1, with an n-dimensional zero-multiplication
  subalgebra and one idempotent.
"""

from __future__ import annotations

from .algebras import Algebra, Element, is_commutative, span_rank, verify_isomorphism
from .certificates import Certificate
from .errors import (
    DependentNilsError,
    DimensionMismatchError,
    DomainError,
    NonSimpleError,
    NotUnitalError,
)
from .fields import Field, Scalar
from .matrices import Matrix
from .records import FrozenRecord


def _commutative(field: Field, names, products: dict) -> Algebra:
    """The commutative algebra on ``names`` with e_i e_j = e_j e_i =
    sum_k c e_k for each ``(i, j): {k: c}`` of ``products``, i <= j; pairs
    not given multiply to zero."""
    n = len(names)
    table = {}
    for (i, j), terms in products.items():
        vec = [0] * n
        for k, c in terms.items():
            vec[k] = c
        table[i, j] = table[j, i] = vec
    return Algebra.from_products(field, n, table, names=names)


def jordan_bilinear(field: Field, gram) -> Algebra:
    """Unital algebra F1 + V of a symmetric bilinear form given by its Gram
    matrix: (a 1 + x)(b 1 + y) = (a b + f(x, y)) 1 + a y + b x."""
    rows = [[field.scalar(v) for v in row] for row in gram]
    m = len(rows)
    if m == 0 or any(len(r) != m for r in rows):
        raise DimensionMismatchError("Gram matrix must be square and nonempty")
    if any(rows[i][j] != rows[j][i] for i in range(m) for j in range(i)):
        raise DomainError("Gram matrix must be symmetric")
    products = {(0, 0): {0: 1}}
    for i in range(1, m + 1):
        products[0, i] = {i: 1}
        for j in range(i, m + 1):
            products[i, j] = {0: rows[i - 1][j - 1]}
    return _commutative(field, ["1"] + [f"v{i + 1}" for i in range(m)], products)


def j2(field: Field) -> Algebra:
    """<1, x, y | x^2 = y^2 = 0, xy = yx = 1>."""
    A = jordan_bilinear(field, [[0, 1], [1, 0]])
    return Algebra._of_raw(field, A._tensor, A._scale, ("1", "x", "y"))


def c_family(field: Field, alpha, beta, gamma) -> Algebra:
    """<1, x, y | x^2 = y^2 = 0, xy = yx = alpha 1 + beta x + gamma y>."""
    return _commutative(field, ("1", "x", "y"), {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {0: alpha, 1: beta, 2: gamma},
    })


def c_rho(field: Field, rho) -> Algebra:
    return c_family(field, rho, rho, rho)


def c2(field: Field) -> Algebra:
    """<a, b, c | a^2 = b, ab = a, ac = c, b^2 = c^2 = 0, bc = b>, commutative."""
    return _commutative(field, ("a", "b", "c"), {
        (0, 0): {1: 1}, (0, 1): {0: 1}, (0, 2): {2: 1}, (1, 2): {1: 1},
    })


def c3(field: Field) -> Algebra:
    """<x, y, z | x^2 = y^2 = z^2 = 0, xy = z, yz = x, zx = y>, commutative."""
    return _commutative(field, ("x", "y", "z"), {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: 1}})


def g_n(field: Field, n: int) -> Algebra:
    """Commutative algebra on (x_1, ..., x_n, e): the x_i span a
    zero-multiplication subalgebra, e^2 = e, x_1 e = e + x_2,
    x_i e = x_i + x_{i+1} for 2 <= i <= n - 1, and x_n e = x_n + x_1."""
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"the family needs an integer n >= 2, got {n!r}")
    products = {(n, n): {n: 1}, (0, n): {n: 1, 1: 1}, (n - 1, n): {n - 1: 1, 0: 1}}
    products.update({(i, n): {i: 1, i + 1: 1} for i in range(1, n - 1)})
    return _commutative(field, tuple(f"x{i + 1}" for i in range(n)) + ("e",), products)


def catalog_algebras(field: Field) -> dict[str, Algebra]:
    """The named small algebras used throughout the test pipelines."""
    return {
        "J2": j2(field),
        "C2": c2(field),
        "C3": c3(field),
        "C(-2)": c_rho(field, -2),
        "C(1)": c_rho(field, 1),
        "C(1,1,0)": c_family(field, 1, 1, 0),
        "G2": g_n(field, 2),
        "G3": g_n(field, 3),
    }


def to_canonical_C(e: Element, x: Element, y: Element):
    """Read a unital commutative 3-dimensional algebra A = e.algebra in the
    basis (e, x, y) of its unit e and two independent index-2 nil elements.

    Returns (alpha, beta, gamma, S): xy in the coordinates of the basis
    S = (e, x, y), whose rows, in A's coordinates, map canonical ones into A.
    """
    A = e.algebra
    if A.n != 3:
        raise DomainError("canonical C form needs dimension 3")
    if not is_commutative(A):
        raise DomainError("canonical C form needs a commutative algebra")
    for v in (x, y):
        if v.is_zero or not v.square().is_zero:
            raise DomainError(f"{v} is not a nil element of index 2")
    if span_rank([x, y]) != 2:
        raise DependentNilsError("the nil elements are linearly dependent")
    # S is invertible for the unit: e = a x + b y would make x = b xy, y = a xy dependent
    S = Matrix(A.field, [e.coords, x.coords, y.coords])
    inverse = S.inverse()
    # an element fixing a basis of a commutative algebra is its unit
    if any(e * v != v for v in (e, x, y)):
        raise NotUnitalError(f"{e} is not the unit of the algebra")
    alpha, beta, gamma = inverse.apply((x * y).coords)
    return alpha, beta, gamma, S


class CanonicalizationResult(FrozenRecord):
    """Outcome of :func:`canonicalize_C`: the target normal form, its
    parameters, the verified base change, and the certificate."""

    __slots__ = ("certificate", "source", "target", "kind", "params", "change")

    def __init__(
        self,
        certificate: Certificate,
        source: Algebra,
        target: Algebra,
        kind: str,
        params: tuple,
        change: Matrix,
    ):
        self._set(certificate, source, target, kind, params, change)

    @property
    def verdict(self) -> bool:
        return self.certificate.verdict


def canonicalize_C(alpha: Scalar, beta: Scalar, gamma: Scalar) -> CanonicalizationResult:
    """Normal form of C(alpha, beta, gamma), alpha != 0, by basis rescaling:

    * beta, gamma both nonzero: C(rho) with rho = beta gamma / alpha;
    * exactly one of beta, gamma zero: C(1, 1, 0), swapping x and y first
      when needed;
    * beta = gamma = 0: C(1, 0, 0), by the change diag(1, 1, 1/alpha),
      which takes no root and works over every field.

    The returned base change maps target coordinates into the source and is
    verified by :func:`verify_isomorphism`.
    """
    field = alpha.field
    beta = field.scalar(beta)
    gamma = field.scalar(gamma)
    if not alpha:
        raise NonSimpleError("alpha = 0: the span of x and y is a proper ideal")
    source = c_family(field, alpha, beta, gamma)
    cert = Certificate(f"normal form of C({alpha}, {beta}, {gamma})")
    if beta and gamma:
        rho = beta * gamma / alpha
        target = c_rho(field, rho)
        kind, params = "Crho", (rho,)
        change = Matrix.diagonal(field, [field.one, beta / alpha, gamma / alpha])
        cert.check(f"rho = beta gamma / alpha = {rho}", rho * alpha == beta * gamma, actual=rho)
    elif not beta and not gamma:
        target = c_family(field, 1, 0, 0)
        kind, params = "C(1,0,0)", (field.one, field.zero, field.zero)
        change = Matrix.diagonal(field, [field.one, field.one, alpha.inverse()])
    else:
        target = c_family(field, 1, 1, 0)
        kind, params = "C(1,1,0)", (field.one, field.one, field.zero)
        if beta:
            change = Matrix.diagonal(field, [field.one, beta / alpha, beta.inverse()])
        else:
            swap = Matrix(field, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
            cert.check(
                "swap the two nil basis elements",
                verify_isomorphism(c_family(field, alpha, gamma, 0), source, swap),
            )
            change = Matrix.diagonal(field, [field.one, gamma / alpha, gamma.inverse()]) * swap
    cert.check(
        "base change to the normal form is an isomorphism",
        verify_isomorphism(target, source, change),
        actual=change,
    )
    return CanonicalizationResult(cert, source, target, kind, params, change)
