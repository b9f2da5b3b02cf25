import copy
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from isotopelab import (
    DimensionMismatchError,
    DomainError,
    Field,
    Matrix,
    Scalar,
    SingularMatrixError,
    SpanTracker,
    random_invertible,
    rref,
    solve,
)
from isotopelab import matrices
from isotopelab.matrices import _insert, _raw, _spin

rationals = Field.rationals()
f3 = Field.gf(3)
f5 = Field.gf(5)


def test_identity_product():
    m = Matrix(rationals, [[1, 2], [3, 4]])
    assert Matrix.identity(rationals, 2) * m == m
    assert m * Matrix.identity(rationals, 2) == m


def test_displayed_inverse_pair():
    # R_{1+x} and its inverse in the rank-2 pipeline multiply to the identity
    a = Matrix(rationals, [[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    b = Matrix(rationals, [[1, -1, 0], [0, 1, 0], [-1, 1, 1]])
    assert a * b == Matrix.identity(rationals, 3)
    assert a.inverse() == b


def test_gf5_inverse_pair():
    a = Matrix(f5, [[2, 0], [0, 3]])
    b = Matrix(f5, [[3, 0], [0, 2]])
    assert a * b == Matrix.identity(f5, 2)


def test_inverse_of_identity():
    i3 = Matrix.identity(rationals, 3)
    assert i3.inverse() == i3


def test_closed_form_inverse_gamma_sixth():
    g = Fraction(1, 6)
    d = 1 / (1 - 2 * g)
    m = Matrix(rationals, [[1, g, 1], [1, 1, 0], [g, 0, 1]])
    expected = Matrix(
        rationals,
        [
            [d, -g * d, -d],
            [-d, (1 - g) * d, d],
            [-g * d, g * g * d, (1 - g) * d],
        ],
    )
    assert m.inverse() == expected


def test_all_ones_off_diagonal_inverse():
    m = Matrix(rationals, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    h = Fraction(1, 2)
    expected = Matrix(rationals, [[-h, h, h], [h, -h, h], [h, h, -h]])
    assert m.inverse() == expected


def test_singular_inverse_raises():
    with pytest.raises(SingularMatrixError):
        Matrix(rationals, [[1, 2], [2, 4]]).inverse()


def test_det_examples():
    m = Matrix(rationals, [[1, 2], [3, 4]])
    assert m.det() == -2
    assert Matrix(f5, [[2, 0], [0, 3]]).det() == 1
    assert Matrix(rationals, [[1, 2], [2, 4]]).det() == 0


def test_rank():
    # span{x, y, x+y} has rank 2 inside 3-space
    m = Matrix(rationals, [[0, 1, 0], [0, 0, 1], [0, 1, 1]])
    assert m.rank() == 2
    assert Matrix.identity(f5, 3).rank() == 3


def test_apply_row_convention():
    m = Matrix(rationals, [[1, -1, 0], [0, 1, 0], [-1, 1, 1]])
    assert m.apply([1, 2, 0]) == (rationals.scalar(1), rationals.scalar(1), rationals.scalar(0))


def test_solve_unique():
    sol = solve(rationals, [[2, 0], [0, 4]], [6, 8])
    assert sol is not None and not sol.kernel
    assert [s.value for s in sol.point] == [3, 2]


def test_solve_inconsistent():
    assert solve(rationals, [[1, 1], [1, 1]], [0, 1]) is None


def test_solve_affine_canonical_point():
    # x + y = 1: canonical representative sets the free coordinate to zero
    sol = solve(rationals, [[1, 1]], [1])
    assert sol is not None and sol.kernel
    assert [s.value for s in sol.point] == [1, 0]
    assert len(sol.kernel) == 1
    kx, ky = sol.kernel[0]
    assert kx + ky == 0 and (kx, ky) != (rationals.zero, rationals.zero)


def test_random_invertible_deterministic():
    m1 = random_invertible(f5, 3, seed=1)
    m2 = random_invertible(f5, 3, seed=1)
    assert m1 == m2
    assert m1.det()


def test_random_invertible_f3_rank():
    assert random_invertible(f3, 2, seed=7).rank() == 2


@given(st.integers(0, 10_000))
def test_inverse_roundtrip_gf5(seed):
    m = random_invertible(f5, 3, seed)
    assert m * m.inverse() == Matrix.identity(f5, 3)
    assert m.inverse() * m == Matrix.identity(f5, 3)


@given(st.integers(0, 10_000))
def test_inverse_roundtrip_rational(seed):
    m = random_invertible(rationals, 3, seed)
    assert m * m.inverse() == Matrix.identity(rationals, 3)


@given(st.integers(0, 5_000), st.integers(5_001, 10_000))
def test_det_multiplicative(seed_a, seed_b):
    for field in (rationals, f5):
        a = random_invertible(field, 3, seed_a)
        b = random_invertible(field, 3, seed_b)
        assert (a * b).det() == a.det() * b.det()


def test_field_mismatch_rejected():
    from isotopelab import FieldMismatchError

    with pytest.raises(FieldMismatchError):
        Matrix(rationals, [[1]]) * Matrix(f5, [[1]])


@pytest.mark.parametrize("field", [rationals, f5])
def test_span_tracker_fixes_its_width(field):
    # a vector of another length used to be cut to the shorter one: span{e1,
    # e2} in 3-space "contained" (1, 1) and took (0, 0, 0, 1) as a new row
    tracker = SpanTracker(field)
    tracker.add([1, 0, 0])
    tracker.add([0, 1, 0])
    with pytest.raises(DimensionMismatchError):
        tracker.contains([1, 1])
    with pytest.raises(DimensionMismatchError):
        tracker.add([0, 0, 0, 1])
    assert tracker.dim == 2
    assert tracker.contains([1, 1, 0]) and not tracker.contains([0, 0, 1])
    with pytest.raises(DimensionMismatchError):
        solve(field, [[1, 0], [1]], [0, 0])
    # a query leaves the width open: only the first vector added fixes it
    tracker = SpanTracker(field)
    assert not tracker.contains([1, 2])
    assert tracker.add([1, 2, 3]) and tracker.width == 3
    with pytest.raises(DimensionMismatchError):
        tracker.contains([1, 2])


@pytest.mark.parametrize("field", [rationals, f5, Field.gf(999983)])
def test_raw_reads_ints_without_field_scalar(field, monkeypatch):
    # an int is a raw value already: negative ones and ones >= p scale as
    # their Scalars do, next to a Scalar, and build no Scalar on the way
    ints = [-7, 0, 3, 5, 12, 2 * 999983 + 1, -(10**20)]
    half = field.scalar(Fraction(1, 2))
    expected = _raw(field, [field.scalar(v) for v in ints] + [half])

    def refuse(self, value):
        raise AssertionError(f"Field.scalar({value!r}) called")

    monkeypatch.setattr(Field, "scalar", refuse)
    assert _raw(field, ints + [half]) == expected


@pytest.mark.parametrize("field", [rationals, f5])
def test_matrix_equality_hash_pickle_and_copy_build_no_scalars(field, monkeypatch):
    # ==, hash, pickles and copies read the least raw form only, and a
    # matrix of ints is built without a Scalar too
    rows = [[Fraction(1, 2), 3, 0], [0, Fraction(-2, 3), 1], [4, 0, Fraction(5, 6)]]
    a, b = Matrix(field, rows), Matrix(field, rows)

    def refuse(*args):
        raise AssertionError("a Scalar was built")

    monkeypatch.setattr(matrices, "_scalars", refuse)
    monkeypatch.setattr(Field, "scalar", refuse)
    twins = [pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)]
    ints = Matrix(field, [[1, 2, 0], [0, 1, 0], [0, 0, 1]])
    for m in [b] + twins:
        assert m == a and not m != a and hash(m) == hash(a)
    assert pickle.dumps(a) == pickle.dumps(b) and a != ints and a * ints != a
    assert all(m._rows is None for m in [a, b, ints] + twins)


INPUT_CHECKS = {
    "ragged rows": (DimensionMismatchError, lambda: Matrix(rationals, [[1, 0], [1]])),
    "apply to a vector of length 3": (
        DimensionMismatchError, lambda: Matrix.identity(f5, 2).apply([1, 0, 0])
    ),
    "solve with one right-hand side for two rows": (
        DimensionMismatchError, lambda: solve(rationals, [[1, 0], [0, 1]], [1])
    ),
    "solve an empty system": (DomainError, lambda: solve(rationals, [], [])),
    "random invertible of size 0": (DomainError, lambda: random_invertible(f5, 0, seed=1)),
    "matrix * int": (TypeError, lambda: Matrix.identity(rationals, 2) * 2),
}


@pytest.mark.parametrize("error,call", INPUT_CHECKS.values(), ids=list(INPUT_CHECKS))
def test_input_checks(error, call):
    with pytest.raises(error):
        call()


def test_matrix_equals_no_row_tuple():
    m = Matrix.identity(f5, 2)
    assert m != m.rows and m == Matrix(f5, m.rows)


def test_rows_cannot_be_assigned():
    m = Matrix.identity(f5, 2)
    with pytest.raises(AttributeError):
        m.rows = ((0, 1), (1, 0))
    assert m == Matrix.identity(f5, 2)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        Matrix(rationals, [[1]]) * Matrix(rationals, [[1, 0], [0, 1]])


# ---------------------------------------------------------------------------
# det / rank / inverse / solve share one elimination routine; these checks
# compare it with formulas that need no elimination at all
# ---------------------------------------------------------------------------


def leibniz_det(field, rows):
    n = len(rows)
    total = field.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = field.one if inversions % 2 == 0 else -field.one
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def dot(field, row, x):
    return sum((a * b for a, b in zip(row, x)), field.zero)


def check_product(make, plain):
    """Products made by ``make``, each fresh, so that none of its forms has
    been read, against the matrix ``plain`` of the same entries."""
    field, p = plain.field, plain.field.p
    values = [[v.value for v in row] for row in plain.rows]
    # det and is_invertible read the raw form and leave the rows unbuilt
    det, prod = leibniz_det(field, plain.rows), make()
    assert prod.det() == det and prod.is_invertible() == bool(det) and prod._rows is None
    # the raw form: residues with scale 1, or integers over a positive scale
    ints, scale = make()._ints, make()._scale
    if p is None:
        assert scale > 0 and all(type(v) is int for row in ints for v in row)
        assert [[Fraction(v, scale) for v in row] for row in ints] == values
    else:
        assert scale == 1 and [list(row) for row in ints] == values
    # every entry is a Scalar of the field: a Fraction over QQ, a residue over gf p
    for v in (v for row in make().rows for v in row):
        assert v.__class__ is Scalar and v.field is field
        assert type(v.value) is Fraction if p is None else type(v.value) is int and 0 <= v.value < p
    assert make() == plain and plain == make() and not make() != plain
    assert hash(make()) == hash(plain)
    assert str(make()) == str(plain) and repr(make()) == repr(plain)
    prod = make()
    assert pickle.dumps(prod) == pickle.dumps(Matrix(field, prod.rows))
    for twin in (pickle.loads(pickle.dumps(make())), copy.copy(make()), copy.deepcopy(make())):
        assert twin == plain and hash(twin) == hash(plain)
    with pytest.raises(AttributeError):
        make().rows = plain.rows
    # _of_raw copies the lists it is handed (and reduces them over gf p):
    # editing them afterwards leaves the matrix as it was
    lists = [[v + 3 * (p or 0) for v in row] for row in make()._ints]
    copied = Matrix._of_raw(field, lists, make()._scale)
    for row in lists:
        row[0] += 1
    lists.append(lists[0])
    assert copied == plain and copied.n == plain.n
    assert (copied._ints, copied._scale) == (make()._ints, make()._scale)


@st.composite
def square_systems(draw):
    field = draw(st.sampled_from([rationals, f3, f5, Field.gf(7)]))
    n = draw(st.integers(1, 4))
    entries = st.integers(-2, 2)
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # a row equal to a combination of two others makes singular cases common
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        c = draw(entries)
        rows[k] = [a + c * b for a, b in zip(rows[i], rows[j])]
    x0 = draw(st.lists(entries, min_size=n, max_size=n))
    rhs = draw(st.lists(entries, min_size=n, max_size=n))
    other = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    return field, Matrix(field, rows), [field.scalar(v) for v in x0], rhs, Matrix(field, other)


def exact(field, values):
    """Whether every value is a Fraction over QQ: a stray int division gives
    a float, which compares equal to a Fraction such as 1/2 and would slip
    through the equalities below."""
    return field.p is not None or all(type(v.value) is Fraction for v in values)


def qq_system(rows, other=None):
    n = len(rows)
    if other is None:
        other = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    other = Matrix(rationals, other)
    x0 = [rationals.scalar(Fraction(i + 1, 3)) for i in range(n)]
    return rationals, Matrix(rationals, rows), x0, [Fraction(1, 5)] * n, other


# integer pivots other than +-1 after scaling by coprime denominators, so
# that the row scales of the fraction-free elimination enter det and inverse
@example(qq_system([[Fraction(1, 2), Fraction(1, 3), 2], [Fraction(2, 5), 3, Fraction(1, 7)],
                    [5, Fraction(3, 4), 6]]))
@example(qq_system([[Fraction(2, 3), Fraction(4, 5)], [Fraction(7, 2), Fraction(9, 11)]]))
@example(qq_system([[Fraction(2, 3), Fraction(4, 5), 1], [Fraction(1, 3), Fraction(2, 5), 3],
                    [3, 6, Fraction(5, 7)]]))
@example(qq_system([[Fraction(2, 3), Fraction(4, 5)], [Fraction(1, 3), Fraction(2, 5)]]))
# factors whose denominators are coprime, so that a product's scale is the
# product of theirs; in the first, entries of the product also cancel
@example(qq_system([[Fraction(1, 2), 0], [0, Fraction(1, 3)]],
                   [[Fraction(4, 5), Fraction(2, 7)], [Fraction(3, 5), Fraction(9, 7)]]))
@example(qq_system([[Fraction(1, 4), Fraction(3, 2), 1], [2, Fraction(1, 8), 0], [1, 1, Fraction(5, 2)]],
                   [[Fraction(1, 3), 0, Fraction(2, 9)], [Fraction(1, 5), 1, 7],
                    [Fraction(4, 15), Fraction(1, 9), Fraction(1, 7)]]))
# a product equal to 1, held as 2 I over the scale 2
@example(qq_system([[Fraction(1, 2), 0], [0, Fraction(1, 2)]], [[2, 0], [0, 2]]))
@given(square_systems())
def test_elimination_against_independent_oracles(system):
    field, m, x0, rhs, other = system
    n = m.n
    # products and images run the one v M kernel; compare entrywise sums,
    # also for a product of products, whose factors hold raw values only
    def product_rows(a, b):
        return tuple(tuple(dot(field, row, col) for col in zip(*b.rows)) for row in a.rows)

    assert (m * other).rows == product_rows(m, other)
    assert ((m * other) * (other * m)).rows == product_rows(Matrix(field, product_rows(m, other)),
                                                          Matrix(field, product_rows(other, m)))
    assert (m * other) * m == m * (other * m)
    plain = Matrix(field, product_rows(m * other, m))
    check_product(lambda: m * other * m, plain)
    # raw values over a scale that is not the least one: 3 x over 3 s over
    # QQ, x + 3 p over gf p, whose scale is always 1
    prod = m * other * m
    ints = [[3 * v if field.p is None else v + 3 * field.p for v in row] for row in prod._ints]
    check_product(lambda: Matrix._of_raw(field, ints, 3 * prod._scale if field.p is None else 1),
                  plain)
    assert m.apply(x0) == tuple(dot(field, x0, col) for col in zip(*m.rows))
    det = m.det()
    assert exact(field, [det])
    assert det == leibniz_det(field, m.rows)
    assert (m.rank() == n) == bool(det)
    if det:
        inv = m.inverse()
        assert exact(field, [v for row in inv.rows for v in row])
        assert m * inv == Matrix.identity(field, n)
    else:
        with pytest.raises(SingularMatrixError):
            m.inverse()
    # inverse reads the raw form, whose scale need not be the least one
    prod = m * other
    if prod.det():
        inv = prod.inverse()
        assert inv == Matrix(field, prod.rows).inverse()
        assert prod * inv == Matrix.identity(field, n)
    consistent_rhs = [dot(field, row, x0) for row in m.rows]
    assert solve(field, m.rows, consistent_rhs) is not None
    for b in (consistent_rhs, rhs):
        sol = solve(field, m.rows, b)
        if sol is None:
            assert not det
            continue
        assert exact(field, sol.point) and all(exact(field, k) for k in sol.kernel)
        assert [dot(field, row, sol.point) for row in m.rows] == [field.scalar(v) for v in b]
        assert len(sol.kernel) == n - m.rank()
        for k in sol.kernel:
            assert any(k)
            assert all(not dot(field, row, k) for row in m.rows)
    # the reduced form depends only on the span, not on the insertion order
    # that shaped the semi-echelon basis it is read from
    reduced = rref(field, m.rows)
    assert all(exact(field, row) for row in reduced[0])
    assert reduced == rref(field, list(reversed(m.rows)))
    if field.p is not None:
        # the tracker converts each row to residues once and then keeps the
        # basis that inserts on raw residues build
        p = field.p
        tracker = SpanTracker(field)
        rows, pivots = [], []
        for row in m.rows:
            raw = [v.value for v in row]
            assert (_insert(raw, rows, pivots, p) is not None) == tracker.add(row)
        assert rows == tracker.rows
        assert pivots == tracker.pivots


@st.composite
def spin_cases(draw):
    """A field among QQ, gf 3, gf 5, one or two seed vectors of length
    d <= 4 and one to three d x d operators, whose zeros are drawn often so
    that the closure is often a proper subspace."""
    field = draw(st.sampled_from([rationals, f3, f5]))
    d = draw(st.integers(1, 4))
    pool = (1, -1, 2, Fraction(1, 2)) if field.p is None else tuple(range(1, field.p))

    def vectors(zeros):
        return st.lists(st.sampled_from((0,) * zeros + pool), min_size=d, max_size=d)

    seeds = draw(st.lists(vectors(1), min_size=1, max_size=2))
    op_rows = vectors(draw(st.integers(0, 8)))
    ops = draw(st.lists(st.lists(op_rows, min_size=d, max_size=d), min_size=1, max_size=3))
    return field, seeds, ops


@given(spin_cases())
def test_spin_matches_word_closure(case):
    field, seeds, ops = case
    d, p = len(seeds[0]), field.p

    def times(v, op):
        return [sum(v[j] * op[j][k] for j in range(d)) for k in range(d)]

    # every word of length <= d in the operators: the spans of the words of
    # length <= l grow strictly until they are closed, at most d times
    words, layer = [], list(seeds)
    for _ in range(d + 1):
        words += layer
        layer = [times(v, op) for v in layer for op in ops]
    if p is None:
        # the core spins integer vectors: each vector times the lcm of its
        # denominators spans the same line
        def integral(v):
            den = math.lcm(*(Fraction(x).denominator for x in v))
            return [int(x * den) for x in v]

        rows, pivots = _spin(
            [integral(v) for v in seeds],
            lambda v: (integral(times(v, op)) for op in ops),
            d,
        )
    else:
        residue_ops = [[[x % p for x in row] for row in op] for op in ops]
        rows, pivots = _spin(
            [[x % p for x in v] for v in seeds],
            lambda v: ([x % p for x in times(v, op)] for op in residue_ops),
            d,
            p,
        )
    for r, (row, piv) in enumerate(zip(rows, pivots)):
        assert next(k for k, x in enumerate(row) if x) == piv
        assert all(row[q] == 0 for q in pivots[:r])
        if p is None:
            # primitive integer rows
            assert all(type(x) is int for x in row) and math.gcd(*row) == 1
        else:
            assert row[piv] == 1
    assert rref(field, rows) == rref(field, words)
