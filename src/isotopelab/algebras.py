"""Finite-dimensional algebras given by structure constants, and their
structural predicates: commutativity, unit, Jordan identity, simplicity.

An algebra is a field, a dimension n, and a tensor ``c[i][j][k]`` with
``e_i e_j = sum_k c[i][j][k] e_k``.  Elements are row coordinate vectors.
Everything is immutable and exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from .errors import (
    DimensionMismatchError,
    DomainError,
    FieldMismatchError,
    SearchBudgetExceededError,
)
from .fields import Field, Scalar
from .matrices import (Matrix, _combination, _insert, _irreducible, _raw, _reduce, _row_images,
                       _scalars, _spin, row_rank, solve)


def _contract(table, u, v) -> list:
    """Coordinates of u v = sum_{i,j,k} u_i v_j c_ijk e_k on raw values:
    integers, or residues mod p, which it leaves unreduced."""
    out = [0] * len(table)
    for ui, row in zip(u, table):
        if not ui:
            continue
        for vj, cell in zip(v, row):
            if not vj:
                continue
            coeff = ui * vj
            k = 0  # a bare counter: measurably faster than enumerate here
            for c in cell:
                if c:
                    out[k] += coeff * c
                k += 1
    return out


def _operators(tensor) -> list[tuple[int, list]]:
    """The multiplication operators as row lists, each tagged with its b:
    R_{e_b} (row i is c_ib.) for every b, then L_{e_b} (row i is c_bi.) for
    the b where L_{e_b} != R_{e_b}.  A repeated operator adds nothing to a
    span closure or a linear system, so a commutative algebra gets n.
    Works on a raw tensor: the integers D c of a rational algebra, or residues."""
    n = len(tensor)
    rights = [(b, [tensor[i][b] for i in range(n)]) for b in range(n)]
    return rights + [(b, list(tensor[b])) for b, op in rights if list(tensor[b]) != op]


class Algebra:
    """Structure-constant algebra over an exact field.

    From construction on it holds its tensor as :func:`~isotopelab.matrices._raw`
    scales a vector: residues mod p with scale 1, or over QQ the integers
    D c_ijk over D, the least common denominator.  Products run on these;
    ``table``, the tensor of Scalars, is a cache built when first read."""

    __slots__ = ("field", "n", "names", "_table", "_tensor", "_scale")

    def __init__(self, field: Field, table, names=None):
        n = len(table)
        if n == 0:
            raise DimensionMismatchError("dimension must be >= 1")
        for row in table:
            if len(row) != n or any(len(cell) != n for cell in row):
                raise DimensionMismatchError("structure tensor must be n x n x n")
        raw, scale = _raw(field, [c for row in table for cell in row for c in cell])
        raw = iter(raw)
        # zip(*[it] * n) groups an iterator in n-tuples: the cells, then the rows
        self._set(field, tuple(zip(*[zip(*[raw] * n)] * n)), scale, names)

    @classmethod
    def _of_raw(cls, field: Field, tensor, scale: int, names=None) -> "Algebra":
        """The algebra of ``tensor`` (n x n x n integers) over ``scale``, 1 over
        gf p: the one way raw values get into an Algebra.  It reduces them mod
        p, or over QQ divides them and the scale by their gcd, so that
        ``__eq__`` and ``__hash__`` read the least raw form."""
        p = field.p
        g = 1 if p else gcd(scale, *(c for row in tensor for cell in row for c in cell))
        A = object.__new__(cls)
        A._set(field, tuple(tuple(tuple(c % p if p else c // g for c in cell) for cell in row)
                            for row in tensor), scale // g, names)
        return A

    def _set(self, field: Field, tensor: tuple, scale: int, names) -> None:
        self.field, self.n, self._tensor, self._scale, self._table = (
            field, len(tensor), tensor, scale, None)
        self.names = tuple(names) if names is not None else None
        if self.names is not None and len(self.names) != self.n:
            raise DimensionMismatchError("need one name per basis element")

    @property
    def table(self) -> tuple:
        if self._table is None:
            self._table = tuple(tuple(_scalars(self.field, cell, self._scale) for cell in row)
                                for row in self._tensor)
        return self._table

    @classmethod
    def from_products(cls, field: Field, n: int, products: dict, names=None) -> "Algebra":
        """Build from a sparse map ``(i, j) -> coordinate vector`` (0-based);
        missing pairs multiply to zero."""
        table = [[(0,) * n] * n for _ in range(n)]
        for (i, j), vec in products.items():
            table[i][j] = vec
        return cls(field, table, names=names)

    def element(self, coords) -> "Element":
        return Element(self, coords)

    def zero(self) -> "Element":
        return Element(self, [self.field.zero] * self.n)

    def basis_element(self, i: int) -> "Element":
        coords = [self.field.zero] * self.n
        coords[i] = self.field.one
        return Element(self, coords)

    def basis(self) -> list["Element"]:
        return [self.basis_element(i) for i in range(self.n)]

    def mul_coords(self, u, v) -> tuple[Scalar, ...]:
        """Coordinates of the product of two row vectors."""
        ru, su = _raw(self.field, u)
        rv, sv = _raw(self.field, v)
        return _scalars(self.field, _contract(self._tensor, ru, rv), su * sv * self._scale)

    def relabel(self, perm, names=None) -> "Algebra":
        """Permuted copy: old basis element i becomes new basis element perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise DomainError("relabel requires a permutation of 0..n-1")
        inv = sorted(range(self.n), key=perm.__getitem__)  # perm[inv[a]] = a
        if names is None and self.names is not None:
            names = [self.names[i] for i in inv]
        t = self._tensor
        tensor = [[[t[i][j][k] for k in inv] for j in inv] for i in inv]
        return Algebra._of_raw(self.field, tensor, self._scale, names)

    def nonzero_entries(self):
        """Yield ``(i, j, k, scalar)`` for every nonzero tensor entry (0-based)."""
        for i in range(self.n):
            for j in range(self.n):
                for k, c in enumerate(self.table[i][j]):
                    if c:
                        yield i, j, k, c

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        # the raw tensor and its scale determine the table
        return (self.field is other.field and self._scale == other._scale
                and self._tensor == other._tensor)

    def __hash__(self):
        return hash((self.field, self._scale, self._tensor))

    def __repr__(self) -> str:
        return f"Algebra(dim {self.n} over {self.field})"


class Element:
    """Element of an :class:`Algebra`, held as a row coordinate vector."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: Algebra, coords):
        field = algebra.field
        coords = tuple(v if v.__class__ is Scalar and v.field is field else field.scalar(v)
                       for v in coords)
        if len(coords) != algebra.n:
            raise DimensionMismatchError("coordinate length does not match the algebra")
        self.algebra = algebra
        self.coords = coords

    def _check_same(self, other: "Element"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise DomainError("elements belong to different algebras")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        return Element(self.algebra, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        return Element(self.algebra, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return Element(self.algebra, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same(other)
            return Element(self.algebra, self.algebra.mul_coords(self.coords, other.coords))
        if isinstance(other, (int, Fraction, Scalar)):
            s = self.algebra.field.scalar(other)
            return Element(self.algebra, [s * a for a in self.coords])
        return NotImplemented

    __rmul__ = __mul__  # scalars commute

    def square(self) -> "Element":
        return self * self

    def apply(self, m: Matrix) -> "Element":
        """Image under a linear operator (row vector times matrix)."""
        if m.field is not self.algebra.field:
            raise FieldMismatchError("operator over a different field")
        return Element(self.algebra, m.apply(self.coords))

    def right_mult_matrix(self) -> Matrix:
        """Matrix of x -> x * self; row i is e_i * self = sum_j v_j c_ij."""
        return self._mult_matrix(self.algebra._tensor)

    def left_mult_matrix(self) -> Matrix:
        """Matrix of x -> self * x; row i is self * e_i = sum_j v_j c_ji."""
        return self._mult_matrix(zip(*self.algebra._tensor))

    def _mult_matrix(self, rows) -> Matrix:
        # row i is sum_j v_j rows[i][j] on the raw tensor, over s_v D
        A = self.algebra
        v, scale = _raw(A.field, self.coords)
        return Matrix._of_raw(A.field, [_combination(v, row, 0) for row in rows], scale * A._scale)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and self.coords == other.coords

    def __hash__(self):
        return hash((self.algebra, self.coords))

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.coords) + ")"

    def __repr__(self) -> str:
        return f"Element{self}"


def associator(u: Element, v: Element, w: Element) -> Element:
    """(u, v, w) = (uv)w - u(vw)."""
    return (u * v) * w - u * (v * w)


def is_commutative(A: Algebra) -> bool:
    for i in range(A.n):
        for j in range(i + 1, A.n):
            if A._tensor[i][j] != A._tensor[j][i]:
                return False
    return True


def find_unit(A: Algebra) -> Element | None:
    """The two-sided unit, or None: the solution of u R_{e_b} = u e_b = e_b
    and u L_{e_b} = e_b u = e_b for every operator :func:`_operators` tags b.
    It leaves out only the L_{e_b} equal to R_{e_b}, so every solution has
    u e_b = e_b u = e_b for all b: it is the unit, with R_u = L_u = I."""
    n, ops = A.n, _operators(A._tensor)  # on the raw tensor D c: u (D R_{e_b}) = D e_b
    rows = [[op[i][k] for i in range(n)] for _, op in ops for k in range(n)]
    rhs = [A._scale if b == k else 0 for b, _ in ops for k in range(n)]
    sol = solve(A.field, rows, rhs)
    return None if sol is None else A.element(sol.point)


def is_jordan(A: Algebra) -> bool:
    """Whether the degree-4 identity ((x x) y) x = (x x) (y x) holds over
    the algebraic closure.

    The defect is a polynomial, cubic in the coordinates of x and linear in
    those of y.  Its coefficient at x_a x_b x_c y_m sums
    ((e_b e_c) e_m) e_a - (e_b e_c)(e_m e_a) over the distinct orderings
    (a, b, c) of one multiset of basis indices.  Over an infinite field the
    identity holds iff every coefficient vanishes, in every characteristic.
    Each coefficient is summed on the raw tensor, where both of its products
    carry the scale D^3, and tested as an integer, or mod p over gf p.
    """
    if not is_commutative(A):
        raise DomainError("Jordan check requires a commutative algebra")
    n, t, p = A.n, A._tensor, A.field.p
    units = [[int(i == m) for i in range(n)] for m in range(n)]
    for idx in itertools.combinations_with_replacement(range(n), 3):
        orders = set(itertools.permutations(idx))
        for m in range(n):
            total = [0] * n
            for a, b, c in orders:
                lhs = _contract(t, _contract(t, t[b][c], units[m]), units[a])
                rhs = _contract(t, t[b][c], t[m][a])
                total = [s + u - v for s, u, v in zip(total, lhs, rhs)]
            if any(total if p is None else [x % p for x in total]):
                return False
    return True


# Rational envelopes are first computed modulo this prime (see envelope_dimension),
# the largest below 2^15, so that residues and their products are single-digit ints.
ENVELOPE_PRIME = 32749


def _exact_envelope_dimension(A: Algebra) -> int:
    """The envelope dimension, exactly: the residue closure below over gf p,
    and over QQ the same closure on the integer vectors of raw Matrix
    products, each image a positive multiple of the rational one."""
    p = A.field.p
    if p is not None:
        return _residue_envelope_dimension(A._tensor, p)
    n = A.n
    ops = [op for _, op in _operators(A._tensor)]
    gens = [Matrix._of_raw(A.field, op, A._scale) for op in ops]

    def images(v):
        m = Matrix._of_raw(A.field, [v[i * n:(i + 1) * n] for i in range(n)], 1)
        return ([c for row in (m * g)._ints for c in row] for g in gens)

    return len(_spin([[c for row in op for c in row] for op in ops], images, n * n)[0])


def _residues(A: Algebra, p: int) -> tuple | None:
    """A rational algebra's structure tensor as residues mod p, read off
    the stored raw tensor: D c_ijk times D^-1 mod p, which is None exactly
    when p divides D, that is, when p divides a denominator."""
    if not A._scale % p:
        return None
    inv = pow(A._scale, -1, p)
    return tuple(tuple(tuple(c * inv % p for c in cell) for cell in row) for row in A._tensor)


def _residue_envelope_dimension(tensor, p: int) -> int:
    """Envelope dimension over F_p of a tensor of residues mod p.

    The span closure of the flattened operators of :func:`_operators` under
    right multiplication by each of them, which is enough, since every word
    in the generators is a generator times generators on the right.
    """
    n = len(tensor)
    ops = [op for _, op in _operators(tensor)]

    def images(m):
        m_rows = [m[i * n:(i + 1) * n] for i in range(n)]
        for g in ops:
            yield [c % p for r in m_rows for c in _combination(r, g, 0)]

    return len(_spin([[c for row in g for c in row] for g in ops], images, n * n, p)[0])


def _envelope(A: Algebra) -> tuple[int, int | None]:
    """The envelope dimension, and the prime it was decided modulo when
    that is a shortcut for a rational algebra (else None)."""
    if A.field.p is None:
        full = A.n * A.n
        tensor = _residues(A, ENVELOPE_PRIME)
        if tensor is not None and _residue_envelope_dimension(tensor, ENVELOPE_PRIME) == full:
            return full, ENVELOPE_PRIME
    return _exact_envelope_dimension(A), None


def envelope_dimension(A: Algebra) -> int:
    """Dimension of the associative span-closure of all left and right
    multiplication operators under matrix products.

    Over F_p the closure runs on raw residues and is exact.  A rational
    algebra is first reduced mod ``ENVELOPE_PRIME``: reduction is a ring map
    on rationals whose denominators are prime to P, so the dimension mod P
    is at most the dimension over QQ, which is at most n^2, and a full
    closure mod P proves a full closure over QQ.  Otherwise (a denominator
    divisible by P, or a closure mod P that is not full) the exact closure
    over QQ decides.
    """
    return _envelope(A)[0]


def is_simple_closure(A: Algebra) -> bool:
    """Simplicity after base change to the algebraic closure: a full
    multiplication envelope (dimension n^2), which also forces a nonzero
    product."""
    return envelope_dimension(A) == A.n * A.n


_IDEAL_MAX_N, _IDEAL_MAX_P = 4, 7  # the largest n and p the ideal search runs for


def ideal_search_exhaustive(A: Algebra) -> list[tuple[Element, ...]]:
    """All proper nonzero ideals of a small prime-field algebra, one
    reduced-echelon basis each, in the order of a flat scan over every
    proper subspace.  Feasible range: n <= _IDEAL_MAX_N, p <= _IDEAL_MAX_P.

    Norton's test (:func:`~isotopelab.matrices._irreducible`) may first
    prove that there is none.  Lemma: let dim ker(theta - lambda) = 1 for a
    combination theta of the operators of :func:`_operators`; if its left
    kernel vector v spins to all of F_p^n under the operators and its right
    one w under their transposes, A has no proper ideal W != 0.  For
    theta - lambda maps W into W: singular there, it puts v in W;
    invertible there, it is singular on A / W and puts w in the annihilator
    of W, which the transposes keep.  Otherwise :func:`_ideal_scan`
    decides.  Neither route forms the multiplication envelope, so the
    search stays an independent check of :func:`is_simple_closure`.
    """
    p = A.field.p
    if p is None:
        raise SearchBudgetExceededError("exhaustive ideal search needs a finite field")
    if A.n > _IDEAL_MAX_N or p > _IDEAL_MAX_P:
        raise SearchBudgetExceededError(
            f"subspace enumeration infeasible for n = {A.n}, p = {p}"
        )
    operators = [op for _, op in _operators(A._tensor)]
    return [] if _irreducible(operators, p) else _ideal_scan(A, _row_images(operators, p), p)


def _ideal_scan(A: Algebra, images, p: int) -> list[tuple[Element, ...]]:
    """The ideals of :func:`ideal_search_exhaustive` by a pruned scan.

    The bases are built one row at a time: pivot columns in
    ``itertools.combinations`` order, then the free entries with row 0
    slowest, each row's in lexicographic order.  Every row but the last is
    spun: closed under the operators' row ``images`` (:func:`_row_images`),
    which gives the ideal <v> it generates.  If v lies in an ideal I then
    <v> lies in I, so every leading position of <v> is a pivot column of I;
    a row whose spin has a leading position outside the pivot columns (a
    spin of all of F_p^n has every column) is dropped with all its
    completions.  Each completed basis is then checked for closure
    directly, on the same images, so the list and its order are those of a
    flat scan over every proper subspace.
    """
    n = A.n
    spins: dict[tuple[int, ...], frozenset] = {}
    found: list[tuple[Element, ...]] = []

    def extend(rows, pivots, pivot_set, r) -> None:
        free = [c for c in range(pivots[r] + 1, n) if c not in pivot_set]
        last = r == len(pivots) - 1
        for values in itertools.product(range(p), repeat=len(free)):
            row = [0] * n
            row[pivots[r]] = 1
            for c, x in zip(free, values):
                row[c] = x
            if last:
                basis = rows + [row]
                if all(
                    not any(_reduce(image, basis, pivots, p)[0])
                    for w in basis
                    for image in images(w)
                ):
                    found.append(tuple(Element(A, w) for w in basis))
                continue
            key = tuple(row)
            spun = spins.get(key)
            if spun is None:
                spun = spins[key] = frozenset(_spin([row], images, n, p)[1])
            if spun <= pivot_set:
                extend(rows + [row], pivots, pivot_set, r + 1)

    for k in range(1, n):
        for pivots in itertools.combinations(range(n), k):
            extend([], pivots, frozenset(pivots), 0)
    return found


def _isotope_tensor(tensor, f, g) -> list:
    """The raw tensor T[i][j] = f_i g_j of the rows f_i, g_j of raw values,
    unreduced, in two stages: M_i[b] = sum_a f_ia c_ab., then T[i][j] =
    sum_b g_jb M_i[b].  O(n^4) where one contraction per pair is O(n^5)."""
    columns = list(zip(*tensor))  # columns[b][a] = c_ab.
    return [[_combination(gj, m, 0) for gj in g]
            for m in ([_combination(fi, col, 0) for col in columns] for fi in f)]


def _preserves_products(A: Algebra, B: Algebra, phi: Matrix, psi: Matrix, xi: Matrix) -> bool:
    """Whether (e_i phi)(e_j psi) = (e_i e_j) xi in B for every basis pair of
    A (enough, by bilinearity); the maps share one field and size.  Both
    sides are compared on raw values: with f_i, g_j, x the raw rows of
    phi, psi, xi over the scales s_f, s_g, s_x, and D_A, D_B the tensor
    scales, (f_i g_j) D_A s_x = (c_ij x) D_B s_f s_g, exactly over QQ and
    mod p over gf p; the left side is B's (phi, psi) isotope tensor."""
    if A.field is not B.field or A.n != B.n:
        return False
    if phi.field is not A.field or phi.n != A.n:
        return False
    f, g, x = phi._ints, psi._ints, xi._ints
    left, right = A._scale * xi._scale, B._scale * phi._scale * psi._scale
    p = A.field.p
    return not any(
        (d % p if p else d)
        for t_row, a_row in zip(_isotope_tensor(B._tensor, f, g), A._tensor)
        for t, cell in zip(t_row, a_row)
        for d in (u * left - v * right for u, v in zip(t, _combination(cell, x, 0)))
    )


def verify_isomorphism(A: Algebra, B: Algebra, xi: Matrix) -> bool:
    """Whether the invertible map sending basis element i of A to row i of
    ``xi`` (coordinates in B) is multiplicative on all basis pairs."""
    return xi.is_invertible() and _preserves_products(A, B, xi, xi, xi)


def _solutions(maps, n: int, p: int):
    """The points x of F_p^n where every affine map in ``maps`` (a callable
    from n residues to a vector of ints) vanishes mod p, in lexicographic
    order.  Every map is called before the first point is yielded.

    A map d gives the equations sum_m x_m (d(e_m) - d(0))_k = -d(0)_k, each
    of which enters :func:`~isotopelab.matrices._insert` with its unknowns
    reversed, so a basis row gives its last unknown from the earlier ones.
    The free unknowns run through F_p with the first one slowest and each
    solved one follows the unknowns before it, which lists the points in
    lexicographic order.  Once one point is left, the remaining maps are
    only evaluated there."""
    rows: list[list[int]] = []
    pivots: list[int] = []
    reversed_basis = [tuple(int(m == k) for k in range(n)) for m in reversed(range(n))]

    def points():
        solved = {n - 1 - piv: row for piv, row in zip(pivots, rows)}
        free = [j for j in range(n) if j not in solved]
        order = sorted(solved.items())
        x = [0] * n
        for values in itertools.product(range(p), repeat=len(free)):
            for j, v in zip(free, values):
                x[j] = v
            for j, row in order:
                x[j] = (row[n] - sum(row[n - 1 - m] * x[m] for m in range(j))) % p
            yield tuple(x)

    maps = iter(maps)
    for d in maps:
        at0 = d((0,) * n)
        at = [d(e) for e in reversed_basis]
        for k in range(n):
            eq = [(a[k] - at0[k]) % p for a in at] + [-at0[k] % p]
            if _insert(eq, rows, pivots, p) is not None and pivots[-1] == n:
                return  # the equation 0 = 1
        if len(rows) == n:
            x = next(points())
            if not any(v % p for d in maps for v in d(x)):
                yield x
            return
    yield from points()


def _unit_mod(tensor, p: int) -> tuple[int, ...] | None:
    """The unit of a tensor of residues mod p, or None: the solution of
    u R_{e_b} = u L_{e_b} = e_b as in :func:`find_unit`.  There is at most
    one, since two differ by a v with v e_b = e_b v = 0 for every b, and
    then v = v u = 0."""
    n = len(tensor)
    maps = [
        lambda u, b=b, op=op: [c - (k == b) for k, c in enumerate(_combination(u, op, 0))]
        for b, op in _operators(tensor)
    ]
    return next(_solutions(maps, n, p), None)


def isomorphism_search(A: Algebra, B: Algebra) -> Matrix | None:
    """Search for an isomorphism between two small prime-field algebras.
    Feasible range: n <= 3, p <= 5.

    The rows x_0, x_1, ... of xi are fixed one at a time, and the result is
    the first matrix of the flat lexicographic scan (row 0 slowest, each
    row in lexicographic order) that passes :func:`verify_isomorphism`, or
    None.  The equation (e_i xi)(e_j xi) = (e_i e_j) xi of a basis pair is
    due at row r, the largest of i, j and every k with c_ijk != 0.  Three
    rules drop candidates, each only ones that break a necessary condition,
    so no match of the flat scan is lost and its order is kept:

    - for (i, j) != (r, r) the equation is linear in x_r, since the other
      rows in it are fixed; row r runs, in lexicographic order, through
      the solutions of these equations mod p only, and the quadratic
      equation of (r, r) is checked on each;
    - a row in the span of the earlier ones is skipped, since a singular
      xi never passes :func:`verify_isomorphism`;
    - an isomorphism maps the unit u_A to the unit u_B, so with both
      unital u_A xi = u_B joins the equations of the last row that u_A
      touches, and with exactly one unital there is no isomorphism.
    """
    if A.field is not B.field:
        raise FieldMismatchError("isomorphism search requires one common field")
    p = A.field.p
    if p is None:
        raise SearchBudgetExceededError("isomorphism search needs a finite field")
    if A.n != B.n:
        return None
    n = A.n
    if n > 3 or p > 5:
        raise SearchBudgetExceededError(
            f"matrix enumeration infeasible for n = {n}, p = {p}"
        )
    ta, tb = A._tensor, B._tensor
    ua, ub = _unit_mod(ta, p), _unit_mod(tb, p)
    if (ua is None) != (ub is None):
        return None
    xi: list[tuple[int, ...]] = []

    # due[r]: the defects due at row r that are affine in the candidate x_r,
    # the unit's first; square[r]: the defect of (r, r), quadratic in x_r
    due: list[list] = [[] for _ in range(n)]
    square = [None] * n
    if ua is not None:
        due[max(k for k, c in enumerate(ua) if c)].append(
            lambda x: [a - b for a, b in zip(_combination(ua, xi + [x], 0), ub)]
        )
    for i, j in itertools.product(range(n), repeat=2):
        r = max([i, j] + [k for k, c in enumerate(ta[i][j]) if c])

        def defect(x, i=i, j=j):
            rows = xi + [x]
            return [
                a - b
                for a, b in zip(_contract(tb, rows[i], rows[j]), _combination(ta[i][j], rows, 0))
            ]

        if (i, j) == (r, r):
            square[r] = defect
        else:
            due[r].append(defect)
    echelon: list[list[int]] = []
    pivots: list[int] = []

    def extend() -> Matrix | None:
        r = len(xi)
        if r == n:
            m = Matrix._of_raw(A.field, xi, 1)
            return m if verify_isomorphism(A, B, m) else None
        for row in _solutions(due[r], n, p):
            if square[r] is not None and any(d % p for d in square[r](row)):
                continue
            if _insert(row, echelon, pivots, p) is None:
                continue  # in the span of the earlier rows
            xi.append(row)
            found = extend()
            if found is not None:
                return found
            xi.pop()
            echelon.pop()
            pivots.pop()
        return None

    return extend()


def span_rank(elements) -> int:
    """Rank of a family of elements of one algebra."""
    elements = list(elements)
    if not elements:
        return 0
    field = elements[0].algebra.field
    return row_rank(field, [e.coords for e in elements])
