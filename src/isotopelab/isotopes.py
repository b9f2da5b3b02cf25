"""Principal and standard isotopes, isotopy verification, and
right-multiplication operator analysis.

A principal isotope ``A^(f, g)`` carries the product ``x * y = (x f)(y g)``
on the same space, for invertible operators f, g.  An isotopy between two
algebras is a triple of invertible maps (phi, psi, xi) with
``(x phi) o (y psi) = (x y) xi``.
"""

from __future__ import annotations

from .algebras import Algebra, Element, _isotope_tensor, _preserves_products
from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    SingularMatrixError,
)
from .fields import Scalar
from .matrices import Matrix, SolveResult, solve
from .records import FrozenRecord


def _once(fn, *calls) -> list:
    """``fn(*c)`` for each argument tuple c, computed once per tuple of equal
    maps: a map given twice, as one object or as two equal ones, is checked,
    inverted or multiplied once.  A Matrix hash reads no Scalar."""
    done = {}
    for c in calls:
        if c not in done:
            done[c] = fn(*c)
    return [done[c] for c in calls]


class Isotopy(FrozenRecord):
    """Triple of invertible linear maps; verified against a pair of algebras
    with :func:`verify_isotopy`."""

    __slots__ = ("phi", "psi", "xi")

    def __init__(self, phi: Matrix, psi: Matrix, xi: Matrix):
        for m in (psi, xi):
            if m.field is not phi.field:
                raise FieldMismatchError("isotopy maps over different fields")
            if m.n != phi.n:
                raise DimensionMismatchError("isotopy maps of different sizes")
        # a map given more than once, as in an isomorphism, is checked once
        if not all(_once(Matrix.is_invertible, (phi,), (psi,), (xi,))):
            raise SingularMatrixError("isotopy maps must be invertible")
        self._set(phi, psi, xi)

    @classmethod
    def isomorphism(cls, xi: Matrix) -> "Isotopy":
        """The isotopy (xi, xi, xi) attached to an isomorphism."""
        return cls(xi, xi, xi)

    @classmethod
    def into_isotope(cls, f: Matrix, g: Matrix) -> "Isotopy":
        """The canonical isotopy A -> A^(f, g), namely (f^-1, g^-1, 1)."""
        ident = Matrix.identity(f.field, f.n)
        return cls(*_once(Matrix.inverse, (f,), (g,)), ident)

    @classmethod
    def from_isotope(cls, f: Matrix, g: Matrix) -> "Isotopy":
        """The tautological isotopy A^(f, g) -> A, namely (f, g, 1)."""
        ident = Matrix.identity(f.field, f.n)
        return cls(f, g, ident)

    def inverse(self) -> "Isotopy":
        return Isotopy(*_once(Matrix.inverse, (self.phi,), (self.psi,), (self.xi,)))

    def then(self, other: "Isotopy") -> "Isotopy":
        """Composition: this isotopy A -> B followed by ``other`` B -> C."""
        return Isotopy(*_once(Matrix.__mul__, *zip((self.phi, self.psi, self.xi),
                                                   (other.phi, other.psi, other.xi))))


class RMultReport(FrozenRecord):
    """Right-multiplication operator of an element, with its determinant."""

    __slots__ = ("element", "matrix", "determinant", "invertible")

    def __init__(self, element: Element, matrix: Matrix, determinant: Scalar, invertible: bool):
        self._set(element, matrix, determinant, invertible)


def principal_isotope(A: Algebra, f: Matrix, g: Matrix) -> Algebra:
    """The algebra A^(f, g) on the same space: e_i * e_j = (e_i f)(e_j g)."""
    if f.field is not A.field or g.field is not A.field:
        raise FieldMismatchError("operators over a different field")
    if f.n != A.n or g.n != A.n:
        raise DimensionMismatchError("operator size does not match the algebra")
    if not all(_once(Matrix.is_invertible, (f,), (g,))):
        raise SingularMatrixError("isotope operators must be invertible")
    return Algebra._of_raw(A.field, _isotope_tensor(A._tensor, f._ints, g._ints),
                           f._scale * g._scale * A._scale, A.names)


def standard_isotope(A: Algebra, f: Matrix) -> Algebra:
    """The standard isotope A^(f, f).  A proportional pair (s f, t f) yields
    an algebra isomorphic to this one via the homothety ((s t)^-1) 1."""
    return principal_isotope(A, f, f)


def verify_isotopy(A: Algebra, B: Algebra, lam: Isotopy) -> bool:
    """Whether (phi, psi, xi) satisfies (x phi) o (y psi) = (x y) xi on all
    basis pairs of A (enough, by bilinearity)."""
    return _preserves_products(A, B, lam.phi, lam.psi, lam.xi)


def r_mult_report(a: Element) -> RMultReport:
    m = a.right_mult_matrix()
    d = m.det()
    return RMultReport(element=a, matrix=m, determinant=d, invertible=bool(d))


def right_mult_fibre(A: Algebra, m: Matrix) -> SolveResult | None:
    """Solution set of R_g = m in the unknown element g, or None.  Row i of
    R_g is e_i g = g L_{e_i}, and (g L_{e_i})_k = sum_j g_j c_ijk: the system
    needs all n L_{e_i}, so it reads them straight off the tensor."""
    if m.field is not A.field or m.n != A.n:
        raise DimensionMismatchError("matrix does not match the algebra")
    # on the raw tensor D c and m = M / s: sum_j g_j (s D c_ijk) = D M_ik
    n, s = A.n, m._scale
    rows = [[s * cell[k] for cell in A._tensor[i]] for i in range(n) for k in range(n)]
    rhs = [A._scale * v for row in m._ints for v in row]
    return solve(A.field, rows, rhs)


def express_as_right_mult(A: Algebra, m: Matrix) -> Element | None:
    """An element g with R_g = m, when one exists.

    If the fibre is an affine family, the canonical representative with all
    free coordinates zero is returned; :func:`right_mult_fibre` exposes the
    kernel for uniqueness assertions.
    """
    sol = right_mult_fibre(A, m)
    if sol is None:
        return None
    return A.element(sol.point)
