"""Dense exact matrices and linear solving over a :class:`~isotopelab.fields.Field`.

Convention throughout: vectors are rows and matrices act from the right,
``v -> v @ M``, so row i of an operator matrix is the image of the i-th basis
vector.  All arithmetic is exact; there is no floating point anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DimensionMismatchError,
    DomainError,
    FieldMismatchError,
    SingularMatrixError,
)
from .fields import Field, Scalar
from .records import FrozenRecord


class Matrix:
    """Immutable square matrix of scalars over one field.

    It holds its entries in the raw form of :func:`_raw` (residues mod p
    with scale 1, or integers over one positive scale, not necessarily the
    least) from construction on.  ``rows``, the Scalars, is a cache that a
    product fills the first time it is read.  Products and ``det`` run on
    the raw form; ``apply`` and ``inverse`` read Scalars."""

    __slots__ = ("field", "n", "_rows", "_ints", "_scale")

    def __init__(self, field: Field, rows):
        rows = tuple(tuple(field.scalar(v) for v in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionMismatchError("matrix must be square and nonempty")
        self.field = field
        self.n = n
        self._rows = rows
        vals, self._scale = _raw(field, [v for row in rows for v in row])
        vals = iter(vals)
        self._ints = tuple(zip(*[vals] * n))

    @classmethod
    def _of_raw(cls, field: Field, ints, scale: int) -> "Matrix":
        """The matrix with entries ``ints`` (n rows of n raw values) over
        ``scale``; no Scalar is built until ``rows`` is read."""
        m = object.__new__(cls)
        m.field, m.n, m._rows, m._ints, m._scale = field, len(ints), None, ints, scale
        return m

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        if self._rows is None:
            self._rows = tuple(_scalars(self.field, row, self._scale) for row in self._ints)
        return self._rows

    def _raw_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The raw form: the rows of raw values and their common scale."""
        return self._ints, self._scale

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls.diagonal(field, [field.one] * n)

    @classmethod
    def scalar_matrix(cls, field: Field, n: int, value) -> "Matrix":
        return cls.diagonal(field, [value] * n)

    @classmethod
    def diagonal(cls, field: Field, values) -> "Matrix":
        vals = [field.scalar(v) for v in values]
        zero = field.zero
        n = len(vals)
        return cls(field, [[vals[i] if i == j else zero for j in range(n)] for i in range(n)])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field is not other.field:
            raise FieldMismatchError("matrices over different fields")
        if self.n != other.n:
            raise DimensionMismatchError(f"dimension mismatch: {self.n} vs {other.n}")
        # the product of the scales is a common scale, if not the least one
        (a, sa), (b, sb) = self._raw_rows(), other._raw_rows()
        p = self.field.p
        if p is None:
            prod = tuple(tuple(_combination(row, b, 0)) for row in a)
        else:
            prod = tuple(tuple(c % p for c in _combination(row, b, 0)) for row in a)
        return Matrix._of_raw(self.field, prod, sa * sb)

    def apply(self, coords) -> tuple[Scalar, ...]:
        """Row vector times matrix: image of ``coords`` under this operator."""
        coords = [self.field.scalar(v) for v in coords]
        if len(coords) != self.n:
            raise DimensionMismatchError("vector length does not match matrix size")
        return tuple(_combination(coords, self.rows, self.field.zero))

    def det(self) -> Scalar:
        # each raw row loses only multiples of earlier rows, so det is the
        # product of the exact remainders' pivot values over scale^n, signed
        # by the parity of the pivot order
        field = self.field
        rows, pivots = [], []
        num = 1
        for row in self._ints:
            pval = _insert(row, rows, pivots, field.p)
            if pval is None:
                return field.zero
            num *= pval
        inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
        return field.scalar(Fraction(-num if inversions % 2 else num, self._scale ** self.n))

    def is_invertible(self) -> bool:
        return bool(self.det())

    def inverse(self) -> "Matrix":
        # the reduced echelon form of [M | I] is [I | M^-1] exactly when M is
        # invertible; otherwise a pivot falls into the right half
        n = self.n
        one, zero = self.field.one, self.field.zero
        rows, pivots = rref(self.field, [row + tuple(one if i == j else zero for j in range(n))
                                         for i, row in enumerate(self.rows)])
        if pivots[-1] != n - 1:
            raise SingularMatrixError("matrix is singular")
        return Matrix(self.field, [r[n:] for r in rows])

    def rank(self) -> int:
        return row_rank(self.field, self.rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field is other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __reduce__(self):
        # pickles and copies depend on the entries only, not on the forms held
        return Matrix, (self.field, self.rows)

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(v) for v in row) + "]" for row in self.rows) + "]"

    def __repr__(self) -> str:
        return f"Matrix({self}, {self.field})"


def rref(field: Field, rows: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    The package's one back-substitution: the rows go into a
    :class:`SpanTracker`, and each row of its semi-echelon basis, last
    first, is inserted in raw values into the already reduced later ones.
    Each row is then made monic once, in Scalars.  The result depends only
    on the span of ``rows``.
    """
    tracker = SpanTracker(field)
    for row in rows:
        tracker.add(row)
    reduced: list[list[int]] = []
    pivots: list[int] = []
    for row in reversed(tracker.rows):
        _insert(row, reduced, pivots, field.p)
    monic = []
    for i in sorted(range(len(pivots)), key=pivots.__getitem__):
        inv = field.scalar(reduced[i][pivots[i]]).inverse().value
        monic.append([field.scalar(v * inv) for v in reduced[i]])
    return monic, sorted(pivots)


def row_rank(field: Field, rows) -> int:
    tracker = SpanTracker(field)
    for row in rows:
        tracker.add(row)
    return tracker.dim


class SolveResult(FrozenRecord):
    """Solution set of a consistent linear system: a point plus a kernel basis.

    The point is the canonical representative with all free coordinates set
    to zero; the kernel basis vectors are indexed by free column, ascending.
    An empty kernel means the solution is unique.
    """

    __slots__ = ("point", "kernel")

    def __init__(self, point: tuple[Scalar, ...], kernel: tuple[tuple[Scalar, ...], ...]):
        self._set(point, kernel)


def solve(field: Field, rows, rhs) -> SolveResult | None:
    """Exact solution of ``x @ rows[i] ... `` -- i.e. of the system
    ``sum_j rows[i][j] * x_j = rhs[i]``.  Returns None when inconsistent.
    """

    rows = [list(r) for r in rows]
    rhs = [field.scalar(v) for v in rhs]
    if len(rows) != len(rhs):
        raise DimensionMismatchError("system rows and right-hand side differ in length")
    if not rows:
        raise DomainError("empty system")
    width = len(rows[0])
    # [A | b] is inconsistent exactly when a pivot lands in the b column;
    # rref's tracker rejects a ragged system
    aug, pivots = rref(field, [row + [b] for row, b in zip(rows, rhs)])
    if pivots and pivots[-1] == width:
        return None
    zero = field.zero
    point = [zero] * width
    for r, col in enumerate(pivots):
        point[col] = aug[r][width]
    free_cols = [c for c in range(width) if c not in pivots]
    kernel = []
    for fc in free_cols:
        vec = [zero] * width
        vec[fc] = field.one
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][fc]
        kernel.append(tuple(vec))
    return SolveResult(tuple(point), tuple(kernel))


def _combination(coeffs, rows, zero) -> list:
    """The row vector ``coeffs`` times the matrix ``rows``: sum_j coeffs_j
    rows_j, the package's one v M product, of width ``len(rows[0])``.  Skips
    zero coefficients and zero entries.  Works on Scalars, and on raw ints,
    which it leaves unreduced."""
    out = [zero] * len(rows[0])
    for vj, row in zip(coeffs, rows):
        if vj:
            for k, c in enumerate(row):
                if c:
                    out[k] += vj * c
    return out


def _raw(field: Field, vec) -> tuple[list[int], int]:
    """``vec`` as raw values and the factor it was scaled by: residues mod p
    and 1, or over QQ the integers d vec and d, the lcm of the denominators."""
    vals = [v.value if v.__class__ is Scalar and v.field is field else field.scalar(v).value
            for v in vec]
    if field.p is not None:
        return vals, 1
    nums, dens = zip(*[v.as_integer_ratio() for v in vals])
    d = lcm(*dens)
    return [a * (d // b) for a, b in zip(nums, dens)], d


def _scalars(field: Field, vals, scale: int) -> tuple[Scalar, ...]:
    """The Scalars of raw values over ``scale``: residues reduced mod p, or
    over QQ each integer over ``scale``.  The zeros share one Scalar."""
    p, zero = field.p, field.zero
    if p is not None:
        return tuple(Scalar(field, r) if (r := x % p) else zero for x in vals)
    return tuple(Scalar(field, Fraction(x, scale)) if x else zero for x in vals)


def _reduce(vec: list, rows: list[list], pivots: list[int], p: int | None = None):
    """Eliminate from ``vec`` its components along the semi-echelon ``rows``
    (row r is nonzero at ``pivots[r]`` and 0 at every earlier pivot).
    Returns the remainder, s vec minus a combination of the rows, and s.
    Given p, the values are residues, every row is 1 at its pivot and s = 1.
    Otherwise they are integers and each step is fraction-free: with
    f = vec[pivot] and d = row[pivot] divided by their gcd, vec becomes
    d vec - f row, the same line over QQ, and s is the product of the d."""
    scale = 1
    for row, piv in zip(rows, pivots):
        f = vec[piv]
        if f:
            if p is not None:
                vec = [(a - f * b) % p for a, b in zip(vec, row)]
            elif row[piv] == 1:
                vec = [a - f * b for a, b in zip(vec, row)]
            else:
                g = gcd(row[piv], f)
                d, f = row[piv] // g, f // g
                scale *= d
                vec = [d * a - f * b for a, b in zip(vec, row)]
    return vec, scale


def _insert(vec: list, rows: list[list], pivots: list[int], p: int | None = None):
    """Insert ``vec`` (residues mod p in 0..p-1, or integers) into the
    semi-echelon basis ``rows``: reduce it and append it divided by its
    first nonzero entry mod p, else by its content, so that integer rows
    stay primitive.  Returns the pivot value of the exact remainder (over QQ
    the integer pivot over the scale of :func:`_reduce`), or None if ``vec``
    was already in the span.  Earlier rows are never touched."""
    vec, scale = _reduce(vec, rows, pivots, p)
    piv = next((i for i, v in enumerate(vec) if v), None)
    if piv is None:
        return None
    pval = vec[piv]
    if p is None:
        g = gcd(*vec)
        rows.append([v // g for v in vec])
        pval = Fraction(pval, scale)
    else:
        inv = pow(pval, -1, p)
        rows.append([v * inv % p for v in vec])
    pivots.append(piv)
    return pval


def _spin(seeds, images, full: int, p: int | None = None) -> tuple[list[list], list[int]]:
    """Semi-echelon ``(rows, pivots)`` of the smallest span that contains
    ``seeds`` and is closed under ``images``, which yields the images of a
    vector under a fixed set of linear maps.  Each new basis row is spun
    once, which is enough by linearity; it is zero at every earlier pivot,
    so sparser than the image it came from.  Stops once the span has
    dimension ``full``.  Works on the raw values of :func:`_insert`:
    residues mod p in 0..p-1, which ``images`` must yield reduced, or
    (p None) integer vectors, spun as primitive rows."""
    rows: list[list] = []
    pivots: list[int] = []
    work = [v for v in seeds if _insert(v, rows, pivots, p) is not None]
    while work and len(rows) < full:
        for vec in images(work.pop()):
            if _insert(vec, rows, pivots, p) is not None:
                if len(rows) == full:
                    break
                work.append(rows[-1])
    return rows, pivots


def _row_images(mats, p: int):
    """:func:`_spin`'s ``images`` under residue matrices: v M mod p per M."""
    return lambda v: ([c % p for c in _combination(v, mat, 0)] for mat in mats)


_NORTON_TRIES = 8  # how many theta _irreducible tries before it gives up


def _irreducible(ops, p: int) -> bool:
    """Norton's test: True proves that no proper nonzero subspace of F_p^n
    is invariant under the n x n residue matrices ``ops`` (acting on rows).
    Try t spins the kernel vectors of theta - lambda, theta = s ops[i] +
    ops[i + 1] (i = t mod m for m ops, s = t // m + 1), at the first lambda
    in F_p with a 1-dimensional kernel: the lemma of
    :func:`~isotopelab.algebras.ideal_search_exhaustive`."""
    n, m = len(ops[0]), len(ops)
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    transposes = [list(zip(*op)) for op in ops]

    def spins_full(seeds, mats):
        return len(_spin(seeds, _row_images(mats, p), n, p)[0]) == n

    def kernel(rows):
        # the semi-echelon rows of [M | I] that are 0 on M end in a basis of {x : x M = 0}
        ech, piv = [], []
        for row, e in zip(rows, unit):
            _insert([*row, *e], ech, piv, p)
        return [r[n:] for r, c in zip(ech, piv) if c >= n]

    thetas = (tuple(tuple(((t // m + 1) * a + b) % p for a, b in zip(*rows))
                    for rows in zip(ops[t % m], ops[(t + 1) % m])) for t in range(_NORTON_TRIES))
    for theta in dict.fromkeys(thetas):  # a theta met again decides nothing new
        for lam in range(p):
            shifted = [[(x - lam * e) % p for x, e in zip(row, es)]
                       for row, es in zip(theta, unit)]
            left = kernel(shifted)
            if len(left) == 1:
                return spins_full(left, ops) and spins_full(kernel(zip(*shifted)), transposes)
    return False


class SpanTracker:
    """Incremental row space over a field: a semi-echelon basis in insertion
    order, built by :func:`_insert`, the package's one elimination step.

    Each vector enters once as raw values (:func:`_raw`), and a vector
    whose length differs from the first one's is a DimensionMismatchError.
    :func:`rref` back-substitutes over its rows; ``dim`` is the rank.
    """

    def __init__(self, field: Field):
        self.field = field
        self.width: int | None = None
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def _checked(self, vec) -> list[int]:
        raw = _raw(self.field, vec)[0]
        if self.width is None:
            self.width = len(raw)
        if len(raw) != self.width:
            raise DimensionMismatchError(f"length {len(raw)} in a span of width {self.width}")
        return raw

    def contains(self, vec) -> bool:
        return not any(_reduce(self._checked(vec), self.rows, self.pivots, self.field.p)[0])

    def add(self, vec) -> bool:
        """Insert ``vec``; True if it enlarged the span."""
        return _insert(self._checked(vec), self.rows, self.pivots, self.field.p) is not None

    @property
    def dim(self) -> int:
        return len(self.rows)


def random_invertible(field: Field, n: int, seed: int) -> Matrix:
    """Deterministic pseudo-random invertible matrix (rejection sampling)."""
    if n < 1:
        raise DomainError("dimension must be >= 1")
    rng = random.Random(seed)
    while True:
        if field.p is not None:
            entries = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        else:
            entries = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        m = Matrix(field, entries)
        if m.det():
            return m
