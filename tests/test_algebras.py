import itertools
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isotopelab import (
    Algebra,
    DimensionMismatchError,
    DomainError,
    Field,
    FieldMismatchError,
    Matrix,
    SearchBudgetExceededError,
    associator,
    c2,
    c3,
    c_family,
    catalog_algebras,
    envelope_dimension,
    find_unit,
    g_n,
    ideal_search_exhaustive,
    is_commutative,
    is_jordan,
    is_simple_closure,
    isomorphism_search,
    j2,
    jordan_bilinear,
    nil_set_bruteforce,
    span_rank,
    verify_isomorphism,
)
from isotopelab import algebras
from isotopelab.algebras import ENVELOPE_PRIME, _envelope, _operators, _residues, _unit_mod
from isotopelab.algfile import parse_algebra_file
from isotopelab.fields import _residue
from isotopelab.matrices import random_invertible, row_rank

QQ = Field.rationals()
F3 = Field.gf(3)
F5 = Field.gf(5)
DATA = pathlib.Path(__file__).resolve().parent / "data"


def coords(el):
    return tuple(s.value for s in el.coords)


# e_0 is a two-sided unit and e_1 e_2 = e_1, e_2 e_1 = 0: L_{e_0} = R_{e_0},
# while L_{e_b} != R_{e_b} for b = 1, 2
PARTLY_CENTRAL = Algebra.from_products(
    QQ,
    3,
    {
        (0, 0): [1, 0, 0],
        (0, 1): [0, 1, 0],
        (1, 0): [0, 1, 0],
        (0, 2): [0, 0, 1],
        (2, 0): [0, 0, 1],
        (1, 2): [0, 1, 0],
    },
)


# ---------------------------------------------------------------------------
# products and multiplication operators
# ---------------------------------------------------------------------------


def test_mul_examples():
    J = j2(QQ)
    _, x, y = J.basis()
    assert coords(x * y) == (1, 0, 0)
    C = c2(QQ)
    _, b, c = C.basis()
    assert coords(b * c) == (0, 1, 0)
    D = c3(QQ)
    x3, y3, _ = D.basis()
    assert coords(x3 * y3) == (0, 0, 1)


def test_mul_requires_same_algebra():
    J, C = j2(QQ), c2(QQ)
    with pytest.raises(DomainError):
        J.basis_element(0) * C.basis_element(0)


J_QQ = j2(QQ)
E0 = J_QQ.basis_element(0)
INPUT_CHECKS = {
    "dimension 0": (DimensionMismatchError, lambda: Algebra(QQ, [])),
    "non-cubic tensor": (DimensionMismatchError, lambda: Algebra(QQ, [[[1, 0]], [[0, 1]]])),
    "two names in dimension 1": (
        DimensionMismatchError, lambda: Algebra(QQ, [[[1]]], names=("a", "b"))
    ),
    "relabel by a non-permutation": (DomainError, lambda: J_QQ.relabel((0, 0, 1))),
    "2 coordinates in dimension 3": (DimensionMismatchError, lambda: J_QQ.element((1, 0))),
    "apply a matrix over gf 5": (FieldMismatchError, lambda: E0.apply(Matrix.identity(F5, 3))),
    "search across fields": (FieldMismatchError, lambda: isomorphism_search(j2(F3), j2(F5))),
    "coordinates over gf 5 in a product": (
        FieldMismatchError, lambda: J_QQ.mul_coords([F5.one] * 3, [1, 0, 0])
    ),
    "an element with a coordinate over gf 5": (
        FieldMismatchError, lambda: J_QQ.element([QQ.one, F5.one, QQ.zero])
    ),
    "a structure constant over gf 5": (FieldMismatchError, lambda: Algebra(QQ, [[[F5.one]]])),
    "element + int": (TypeError, lambda: E0 + 1),
    "element - int": (TypeError, lambda: E0 - 1),
    "element * float": (TypeError, lambda: E0 * 1.5),
    "float * element": (TypeError, lambda: 1.5 * E0),
}


@pytest.mark.parametrize("error,call", INPUT_CHECKS.values(), ids=list(INPUT_CHECKS))
def test_input_checks(error, call):
    with pytest.raises(error):
        call()


def test_equal_to_no_other_type():
    assert J_QQ != "J2" and E0 != (1, 0, 0)


def test_right_mult_matrix_examples():
    C = c2(QQ)
    a = C.basis_element(0)
    assert a.right_mult_matrix() == Matrix(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    J = j2(QQ)
    one, x, _ = J.basis()
    assert (one + x).right_mult_matrix() == Matrix(QQ, [[1, 1, 0], [0, 1, 0], [1, 0, 1]])
    assert J.zero().right_mult_matrix() == Matrix(QQ, [[0] * 3] * 3)


def test_left_equals_right_iff_commutative():
    J = j2(QQ)
    rng = random.Random(0)
    for _ in range(20):
        a = J.element([rng.randint(-5, 5) for _ in range(3)])
        assert a.left_mult_matrix() == a.right_mult_matrix()
    C = c2(QQ)
    a = C.basis_element(0)
    assert a.left_mult_matrix() == a.right_mult_matrix()
    assert C.zero().left_mult_matrix() == Matrix(QQ, [[0] * 3] * 3)


def test_coords_of_product_via_rmul_matrix():
    J = j2(QQ)
    rng = random.Random(3)
    for _ in range(10):
        a = J.element([rng.randint(-4, 4) for _ in range(3)])
        b = J.element([rng.randint(-4, 4) for _ in range(3)])
        assert (a * b).coords == a.apply(b.right_mult_matrix()).coords


def _triple_sum(c, u, v):
    """Oracle for the product: coordinate k of u v is sum_ij u_i v_j c_ijk."""
    n = len(c)
    return [sum(u[i] * v[j] * c[i][j][k] for i in range(n) for j in range(n)) for k in range(n)]


def _values(field, xs):
    return [x % field.p for x in xs] if field.p else list(xs)


@st.composite
def noncommutative_tensors(draw):
    """A field among QQ, gf 3, gf 5, and a raw n x n x n tensor (n = 2, 3)
    with c_ij != c_ji for some pair; zeros are drawn often."""
    field = draw(st.sampled_from((QQ, F3, F5)))
    n = draw(st.integers(2, 3))
    if field.p:
        entry = st.integers(0, field.p - 1)
    else:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    entries = st.one_of(st.just(0), entry)
    c = [[draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)] for _ in range(n)]
    assume(any(c[i][j] != c[j][i] for i in range(n) for j in range(n)))
    vectors = st.lists(entries, min_size=n, max_size=n)
    return field, c, draw(vectors), draw(vectors)


HALF, THIRD, M57 = Fraction(1, 2), Fraction(1, 3), Fraction(-5, 7)


@given(noncommutative_tensors())
# coprime denominators in the tensor and in both vectors
@example((QQ, [[[HALF, THIRD], [M57, 0]], [[0, 1], [THIRD, M57]]], [THIRD, M57], [HALF, THIRD]))
# 2/3 * 3 * 1/2: the denominators of the product cancel to the integer 1
@example((QQ, [[[HALF, 0], [0, 0]], [[0, 1], [0, 0]]], [2 * THIRD, 0], [3, 0]))
def test_noncommutative_products_against_triple_sum(case):
    field, c, u, v = case
    A = Algebra(field, c)
    n = A.n
    product = A.mul_coords(A.element(u).coords, A.element(v).coords)
    got = [s.value for s in product]
    assert got == _values(field, _triple_sum(c, u, v))
    # a scalar on either side of either factor scales the product
    x, y = A.element(u), A.element(v)
    assert (x * 2).coords == (x + x).coords
    half = Fraction(1, 2)
    scaled = tuple(half * s for s in (x * y).coords)
    assert ((half * x) * y).coords == (x * (y * half)).coords == scaled
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    rv = A.element(v).right_mult_matrix()
    lv = A.element(v).left_mult_matrix()
    # R_v and L_v hold the raw form only, residues in 0..p-1 over gf p,
    # until rows is read; det reads the raw form over its scale s_v D
    for m in (rv, lv):
        assert m._rows is None
        ints, scale = m._ints, m._scale
        if field.p:
            assert scale == 1 and all(0 <= x < field.p for row in ints for x in row)
        assert m.det() == Matrix(field, m.rows).det()
    for i, e in enumerate(units):
        assert [s.value for s in rv.rows[i]] == _values(field, _triple_sum(c, e, v))
        assert [s.value for s in lv.rows[i]] == _values(field, _triple_sum(c, v, e))
    if field.p is None:
        # an integral coordinate is still a Fraction, as every QQ Scalar is
        out = list(product) + [s for m in (rv, lv) for row in m.rows for s in row]
        assert all(type(s.value) is Fraction for s in out)
    if field.p:
        p = field.p
        expected = [
            vec
            for vec in itertools.product(range(p), repeat=n)
            if any(vec) and not any(x % p for x in _triple_sum(c, vec, vec))
        ]
        assert [coords(e) for e in nil_set_bruteforce(A)] == expected


def test_equal_algebras_from_different_inputs():
    ints = [[[1, 0, 2], [0, 3, 0], [4, 0, 0]], [[0, 3, 0], [1, 1, 0], [0, 0, 2]],
            [[4, 0, 0], [0, 0, 2], [2, 0, 1]]]

    def entrywise(f):
        return [[[f(x) for x in cell] for cell in row] for row in ints]

    halves = entrywise(lambda x: Fraction(x, 2))
    pairs = [
        # equal over QQ: the values as ints and as Fractions in other terms,
        # and halved, as Fractions and as text
        (Algebra(QQ, ints), Algebra(QQ, entrywise(lambda x: Fraction(2 * x, 2)))),
        (Algebra(QQ, halves), Algebra(QQ, entrywise(lambda x: f"{x}/2"))),
        # equal over gf 5: x + 5/7 is x mod 5
        (Algebra(F5, ints), Algebra(F5, entrywise(lambda x: Fraction(7 * x + 5, 7)))),
    ]
    vectors = [(1, 0, 0), (THIRD, -2, -M57), (0, -HALF, 4)]
    for A, B in pairs:
        assert A is not B and A._tensor == B._tensor and A._scale == B._scale
        assert A == B and hash(A) == hash(B)
        for u, v in itertools.product(vectors, repeat=2):
            u, v = A.element(u).coords, A.element(v).coords
            assert A.mul_coords(u, v) == B.mul_coords(u, v)
    # the raw integers of halves and of ints agree; only the scale tells them apart
    assert Algebra(QQ, halves)._tensor == Algebra(QQ, ints)._tensor
    assert Algebra(QQ, halves) != Algebra(QQ, ints)


@pytest.mark.parametrize("field", [QQ, F5])
def test_raw_first_algebra_builds_no_scalars(field, monkeypatch):
    # ints and Scalars of the field are raw values already: building from
    # them, or from raw values over a scale that is not the least one, goes
    # through no Field.scalar, and neither does reading the table
    ints = [[[1, 0, -2], [0, 3, 0], [7, 0, 0]], [[0, 3, 0], [1, 1, 0], [0, 0, 2]],
            [[7, 0, 0], [0, 0, 2], [2, 0, -1]]]
    scalars = [[[field.scalar(x) for x in cell] for cell in row] for row in ints]
    # 6 x over 6 over QQ, x + 10 over gf 5, whose scale is always 1
    raw = [[[6 * x if field.p is None else x + 10 for x in cell] for cell in row] for row in ints]
    expected = Algebra(field, scalars)
    table = expected.table

    def refuse(self, value):
        raise AssertionError(f"Field.scalar({value!r}) called")

    monkeypatch.setattr(Field, "scalar", refuse)
    built = [
        Algebra(field, ints),
        Algebra(field, scalars),
        Algebra.from_products(field, 3, {(i, j): ints[i][j] for i in range(3) for j in range(3)}),
        Algebra._of_raw(field, raw, 6 if field.p is None else 1),
    ]
    for A in built:
        assert A == expected and hash(A) == hash(expected)
        assert A._tensor == expected._tensor and A._scale == expected._scale
        assert A._table is None and A.table == table and A.table is A.table
        with pytest.raises(AttributeError):
            A.table = table


@pytest.mark.parametrize("field", [QQ, F5])
def test_relabel_permutes_the_raw_tensor(field, monkeypatch):
    # relabel moves raw values only, building no Scalar, and a permutation
    # followed by its inverse gives back A, names and all
    tensor = [[[HALF, 0, 3], [0, 1, 0], [2, 0, 0]], [[0, -1, 0], [THIRD, 1, 0], [0, 0, 2]],
              [[7, 0, 0], [0, 0, 2], [2, 0, HALF]]]
    A = Algebra(field, tensor, names=("a", "b", "c"))
    perm, inverse = (2, 0, 1), (1, 2, 0)
    expected = {(perm[i], perm[j], perm[k]): c for i, j, k, c in A.nonzero_entries()}

    def refuse(*args):
        raise AssertionError("a Scalar was built")

    monkeypatch.setattr(Field, "scalar", refuse)
    monkeypatch.setattr(algebras, "_scalars", refuse)
    B = A.relabel(perm)
    back = B.relabel(inverse)
    assert B._table is None and back._table is None
    assert back == A and back.names == A.names and B.names == ("b", "c", "a")
    monkeypatch.undo()
    assert {(i, j, k): c for i, j, k, c in B.nonzero_entries()} == expected


def _expected_operators(A):
    """(b, rows of R_{e_b}) for every b, then (b, rows of L_{e_b}) for each
    b where the two matrices differ."""
    basis = A.basis()
    rights = [(b, e.right_mult_matrix().rows) for b, e in enumerate(basis)]
    lefts = [(b, e.left_mult_matrix().rows) for b, e in enumerate(basis)]
    return rights + [left for left, right in zip(lefts, rights) if left != right]


def _listed_operators(A):
    return [(b, tuple(op)) for b, op in _operators(A.table)]


def test_operators_list_each_operator_once():
    # a commutative algebra gets its n right multiplications only
    for A in catalog_algebras(QQ).values():
        assert len(_operators(A.table)) == A.n
        assert _listed_operators(A) == _expected_operators(A)
    assert [b for b, _ in _operators(PARTLY_CENTRAL.table)] == [0, 1, 2, 1, 2]
    assert _listed_operators(PARTLY_CENTRAL) == _expected_operators(PARTLY_CENTRAL)


@given(noncommutative_tensors())
def test_operators_add_the_left_multiplications_that_differ(case):
    field, c, _, _ = case
    A = Algebra(field, c)
    n = A.n
    differ = [b for b in range(n) if any(c[i][b] != c[b][i] for i in range(n))]
    assert len(_operators(A.table)) == n + len(differ)
    assert _listed_operators(A) == _expected_operators(A)


# ---------------------------------------------------------------------------
# units and commutativity
# ---------------------------------------------------------------------------


def test_find_unit():
    assert find_unit(c2(QQ)) is None
    assert find_unit(c3(QQ)) is None
    u = find_unit(c_family(QQ, 2, 3, 4))
    assert u is not None and coords(u) == (1, 0, 0)


def test_find_unit_needs_the_left_multiplications():
    # e_0 e_j = e_j for every j, so each e_0 + t e_1 solves u R_{e_b} = e_b
    # for every b; only u L_{e_1} = e_1 u = e_1 fails, as e_1 e_0 = 0
    A = Algebra.from_products(QQ, 2, {(0, 0): [1, 0], (0, 1): [0, 1]})
    e0, e1 = A.basis()
    assert all(e0 * e == e for e in (e0, e1)) and (e1 * e0).is_zero
    assert find_unit(A) is None
    u = find_unit(PARTLY_CENTRAL)
    assert u is not None and coords(u) == (1, 0, 0)


def test_find_unit_postcondition():
    for label, A in catalog_algebras(QQ).items():
        u = find_unit(A)
        if u is not None:
            ident = Matrix.identity(QQ, A.n)
            assert u.right_mult_matrix() == ident
            assert u.left_mult_matrix() == ident


def scanned_unit(A):
    """The unit by brute force over F_p^n: the u with e_i u = u e_i = e_i
    for every i, i.e. R_u = L_u = I, from the raw tensor."""
    p, n = A.field.p, A.n
    c = [[[x.value for x in cell] for cell in row] for row in A.table]
    found = [
        u
        for u in itertools.product(range(p), repeat=n)
        if all(
            sum(c[i][j][k] * u[j] for j in range(n)) % p == (i == k)
            and sum(c[j][i][k] * u[j] for j in range(n)) % p == (i == k)
            for i in range(n)
            for k in range(n)
        )
    ]
    assert len(found) <= 1
    return found[0] if found else None


@st.composite
def unit_search_algebras(draw):
    """gf 3 or gf 5, n <= 3, a commutative or non-commutative tensor; half
    the time e_1 is made the unit and the algebra is moved to a random
    basis, so that the unit lands anywhere."""
    field = draw(st.sampled_from((F3, F5)))
    n = draw(st.integers(1, 3))
    entries = st.integers(0, field.p - 1)
    c = [[draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        c = [[c[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            c[0][i] = c[i][0] = [int(k == i) for k in range(n)]
        S = random_invertible(field, n, draw(st.integers(0, 2**16)))
        return transported(Algebra(field, c), S)
    return Algebra(field, c)


@settings(max_examples=60)
@given(unit_search_algebras())
def test_find_unit_matches_point_scan(A):
    u = find_unit(A)
    assert (None if u is None else coords(u)) == scanned_unit(A)


def test_is_commutative():
    assert is_commutative(j2(QQ))
    assert is_commutative(c3(QQ))
    noncomm = Algebra.from_products(QQ, 2, {(0, 1): [1, 0]})
    assert not is_commutative(noncomm)


# ---------------------------------------------------------------------------
# associator and the Jordan identity
# ---------------------------------------------------------------------------


def test_associator_examples():
    C = c_family(QQ, 1, 1, 0)
    _, x, y = C.basis()
    assert associator(x * y, x, y) == -x
    J = j2(QQ)
    _, xj, yj = J.basis()
    assert associator(xj.square(), yj, xj).is_zero
    # a commutative associative sample: F x F with componentwise product
    D = Algebra.from_products(QQ, 2, {(0, 0): [1, 0], (1, 1): [0, 1]})
    for u, v, w in itertools.product(D.basis(), repeat=3):
        assert associator(u, v, w).is_zero


def test_is_jordan_separates_the_two_normal_forms():
    assert is_jordan(c_family(QQ, 1, 0, 0))
    assert not is_jordan(c_family(QQ, 1, 1, 0))
    assert is_jordan(j2(QQ))


def test_is_jordan_char3_answers():
    assert is_jordan(j2(F3))
    assert is_jordan(c_family(F3, 1, 0, 0))
    assert not is_jordan(c_family(F3, 1, 1, 0))


def test_is_jordan_requires_commutative():
    noncomm = Algebra.from_products(QQ, 2, {(0, 1): [1, 0]})
    with pytest.raises(DomainError):
        is_jordan(noncomm)


def multilinearized_jordan(A):
    """The complete multilinearization of ((x x) y) x = (x x) (y x) on
    basis tuples: equivalent to the identity in characteristic 0 or p >= 5
    only, so a reference for those fields."""
    basis = A.basis()

    def f(v, y):
        v2 = v * v
        return (v2 * y) * v - v2 * (y * v)

    subsets = [s for r in (1, 2, 3) for s in itertools.combinations((0, 1, 2), r)]
    for idx in itertools.combinations_with_replacement(range(A.n), 3):
        xs = [basis[i] for i in idx]
        for y in basis:
            total = A.zero()
            for s in subsets:
                arg = xs[s[0]]
                for t in s[1:]:
                    arg = arg + xs[t]
                term = f(arg, y)
                total = total + term if (3 - len(s)) % 2 == 0 else total - term
            if not total.is_zero:
                return False
    return True


def transported(A, S):
    """A written in the basis given by the rows of the invertible S."""
    inv = S.inverse()
    rows = range(A.n)
    return Algebra(
        A.field, [[inv.apply(A.mul_coords(S.rows[i], S.rows[j])) for j in rows] for i in rows]
    )


@st.composite
def commutative_algebras(draw, fields, dims):
    """A commutative algebra over one of ``fields``, of a dimension in
    ``dims``: either a random tensor, with the share of zero entries drawn
    per algebra so that both answers occur, or the Jordan algebra of a
    random symmetric bilinear form in a random basis."""
    field = draw(st.sampled_from(fields))
    n = draw(st.sampled_from(dims))
    if draw(st.booleans()):
        pool = range(-2, 3) if field.p is None else range(field.p)
        gram = [[draw(st.sampled_from(pool)) for _ in range(n - 1)] for _ in range(n - 1)]
        gram = [[gram[min(i, j)][max(i, j)] for j in range(n - 1)] for i in range(n - 1)]
        S = random_invertible(field, n, draw(st.integers(0, 2**16)))
        return transported(jordan_bilinear(field, gram), S)
    zeros = draw(st.integers(0, 12))
    nonzero = (1, -1, 2, Fraction(1, 2)) if field.p is None else tuple(range(1, field.p))
    entries = st.sampled_from((0,) * zeros + nonzero)
    c = [[draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)] for _ in range(n)]
    return Algebra(field, [[c[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])


@settings(max_examples=30)
@given(commutative_algebras((QQ, F5, Field.gf(7)), (2, 3, 4)))
def test_is_jordan_matches_multilinearization(A):
    assert is_jordan(A) == multilinearized_jordan(A)


def f9_point_jordan(A):
    """The identity checked at every x in F_9^n, F_9 = F_3[i] with i^2 = -1,
    for a gf 3 algebra.  The defect is linear in y, so y runs over the
    basis; each coordinate of x has degree at most 3 < 9 in it, so a defect
    that vanishes at every point is the zero polynomial."""
    n = A.n
    tensor = [[[c.value.numerator for c in cell] for cell in row] for row in A.table]

    def mul(u, v):
        re, im = [0] * n, [0] * n
        for i, (a, b) in enumerate(u):
            for j, (c, d) in enumerate(v):
                pr, pi = a * c - b * d, a * d + b * c
                for k, t in enumerate(tensor[i][j]):
                    re[k] += t * pr
                    im[k] += t * pi
        return [(r % 3, s % 3) for r, s in zip(re, im)]

    units = [[(int(i == m), 0) for i in range(n)] for m in range(n)]
    for x in itertools.product(itertools.product(range(3), repeat=2), repeat=n):
        xx = mul(x, x)
        for y in units:
            if mul(mul(xx, y), x) != mul(xx, mul(y, x)):
                return False
    return True


@settings(max_examples=30)
@given(commutative_algebras((F3,), (2, 3)))
@example(j2(F3))
@example(c_family(F3, 1, 1, 0))
def test_is_jordan_matches_f9_point_oracle(A):
    assert is_jordan(A) == f9_point_jordan(A)


def test_jordan_invariant_under_verified_isomorphism():
    # basis swap between C(1,1,0) and C(1,0,1)
    A = c_family(QQ, 1, 1, 0)
    B = c_family(QQ, 1, 0, 1)
    swap = Matrix(QQ, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert verify_isomorphism(A, B, swap)
    assert is_jordan(A) == is_jordan(B)


# ---------------------------------------------------------------------------
# envelope and simplicity
# ---------------------------------------------------------------------------


def elimination_rank(field, rows):
    """Rank of a list of Scalar rows by Gauss-Jordan elimination written
    out here on Fractions, or on residues mod p, so that the oracle below
    shares no code with the package's elimination core."""
    p = field.p
    rows = [[s.value for s in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inv = 1 / top[c] if p is None else pow(top[c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], top)]
                if p is not None:
                    rows[i] = [a % p for a in rows[i]]
        rank += 1
    return rank


# row lists for the rank functions: wide, tall, dependent (over QQ, or only
# mod 5: det [[1, 2], [3, 1]] = -5) and all zero
RANK_ROWS = {
    "wide": [[1, 2, 3, 0], [0, 1, 4, 2]],
    "tall": [[1, 0], [0, 1], [1, 1]],
    "dependent": [[1, 2, 0, 1], [2, 4, 0, 2], [0, 1, 1, 0], [1, 3, 1, 1]],
    "dependent fractions": [[Fraction(1, 2), Fraction(1, 3), 0], [3, 2, 0]],
    "dependent mod 5": [[1, 2], [3, 1]],
    "all zero": [[0, 0, 0], [0, 0, 0]],
}


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
@pytest.mark.parametrize("rows", RANK_ROWS.values(), ids=RANK_ROWS)
def test_ranks_match_elimination_oracle(field, rows):
    expected = elimination_rank(field, [[field.scalar(v) for v in r] for r in rows])
    assert row_rank(field, rows) == expected
    A = Algebra.from_products(field, len(rows[0]), {})
    assert span_rank([A.element(r) for r in rows]) == expected
    # zero rows and columns that pad the rows to a square leave the rank
    size = max(len(rows), len(rows[0]))
    square = [r + [0] * (size - len(r)) for r in rows] + [[0] * size] * (size - len(rows))
    assert Matrix(field, square).rank() == expected


def test_span_rank_of_no_elements():
    assert span_rank([]) == 0


def envelope_dim_oracle(A):
    """Round-based closure: keep a maximal independent set of operator
    words, extend it by whole rounds of pairwise products, recompute the
    rank from scratch each time."""
    flat = lambda m: [v for row in m.rows for v in row]

    def rank_of(mats):
        return elimination_rank(A.field, [flat(m) for m in mats])

    gens = []
    for b in A.basis():
        gens.append(b.right_mult_matrix())
        gens.append(b.left_mult_matrix())
    independent = []
    for g in gens:
        if rank_of(independent + [g]) > len(independent):
            independent.append(g)
    while True:
        grew = False
        for x in list(independent):
            for y in list(independent):
                prod = x * y
                if rank_of(independent + [prod]) > len(independent):
                    independent.append(prod)
                    grew = True
        if not grew:
            return len(independent)


def test_envelope_dimension_against_oracle():
    for A in (j2(QQ), g_n(QQ, 2), c2(QQ), c_family(QQ, 0, 1, 1)):
        assert envelope_dimension(A) == envelope_dim_oracle(A)


def test_envelope_examples():
    assert envelope_dimension(j2(QQ)) == 9
    assert envelope_dimension(g_n(QQ, 2)) == 9
    zero2 = Algebra.from_products(QQ, 2, {})
    assert envelope_dimension(zero2) == 0


def test_envelope_independent_of_basis_order():
    for A in (j2(QQ), c2(QQ), g_n(QQ, 3)):
        perm = list(range(A.n))[::-1]
        assert envelope_dimension(A.relabel(perm)) == envelope_dimension(A)


def test_is_simple_closure_examples():
    assert is_simple_closure(c_family(QQ, 1, 0, 0))
    assert not is_simple_closure(c_family(QQ, 0, 1, 1))
    zero1 = Algebra.from_products(QQ, 1, {})
    assert not is_simple_closure(zero1)
    zero3 = Algebra.from_products(QQ, 3, {})
    assert not is_simple_closure(zero3)
    field_as_algebra = Algebra.from_products(QQ, 1, {(0, 0): [1]})
    assert is_simple_closure(field_as_algebra)


# entry pools, zeros weighted up so that non-full envelopes (and with them
# the exact fallback) come up often
ENTRY_POOLS = {
    "QQ ints": (QQ, [0, 0, 0, 1, -1, 2, -2]),
    "QQ fractions": (QQ, [0, 0, 0, 1, Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 4)]),
    "gf 3": (F3, [0, 0, 1, 2]),
    "gf 5": (F5, [0, 0, 0, 1, 2, 3, 4]),
    "gf 7": (Field.gf(7), [0, 0, 0, 1, 3, 5, 6]),
}


@st.composite
def small_tensor_algebras(draw):
    field, pool = ENTRY_POOLS[draw(st.sampled_from(sorted(ENTRY_POOLS)))]
    n = draw(st.integers(2, 3))
    flat = draw(st.lists(st.sampled_from(pool), min_size=n**3, max_size=n**3))
    table = [[flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)]
    return Algebra(field, table)


def scaled(A, factor):
    return Algebra(A.field, [[[c * factor for c in cell] for cell in row] for row in A.table])


# G_2 scaled by P reduces to the zero algebra mod P, and G_2 scaled by 1/P
# does not reduce at all; over QQ both are isomorphic to G_2
G2_SCALED = [scaled(g_n(QQ, 2), f) for f in (ENVELOPE_PRIME, Fraction(1, ENVELOPE_PRIME))]


# the oracle takes up to a second on a full 3-dimensional rational example
@settings(max_examples=25)
@given(small_tensor_algebras())
@example(G2_SCALED[0])
@example(G2_SCALED[1])
@example(PARTLY_CENTRAL)
def test_envelope_dimension_matches_exact_oracle(A):
    assert envelope_dimension(A) == envelope_dim_oracle(A)


def test_envelope_names_the_prime_only_when_it_decided():
    assert _envelope(g_n(QQ, 2)) == (9, ENVELOPE_PRIME)
    # alpha = P is 0 mod P, where the span of x and y is an ideal, but C(P, 1, 1)
    # is simple over QQ: the closure mod P is not full and the exact one decides
    assert _envelope(c_family(QQ, ENVELOPE_PRIME, 1, 1)) == (9, None)
    assert _envelope(g_n(F5, 2)) == (9, None)
    for A in G2_SCALED:
        assert _envelope(A) == (9, None)


# ---------------------------------------------------------------------------
# exhaustive ideal search
# ---------------------------------------------------------------------------


def test_ideal_search_examples():
    ids = ideal_search_exhaustive(c_family(F5, 0, 1, 1))
    bases = [tuple(coords(e) for e in b) for b in ids]
    assert ((0, 1, 0), (0, 0, 1)) in bases
    assert ideal_search_exhaustive(j2(F5)) == []
    assert ideal_search_exhaustive(g_n(F3, 3)) == []


def test_ideal_search_budget():
    with pytest.raises(SearchBudgetExceededError):
        ideal_search_exhaustive(j2(QQ))
    with pytest.raises(SearchBudgetExceededError):
        ideal_search_exhaustive(g_n(F3, 4))
    with pytest.raises(SearchBudgetExceededError):
        ideal_search_exhaustive(j2(Field.gf(11)))


def test_ideal_closure_property():
    # every returned subspace really absorbs multiplication; in the
    # non-commutative input e1 e1 = e1, e1 e2 = e3, span(e2) is a right ideal
    # but not a left one
    noncomm = Algebra.from_products(F3, 3, {(0, 0): [1, 0, 0], (0, 1): [0, 0, 1]})
    assert any(len(basis) == 2 for basis in ideal_search_exhaustive(noncomm))
    for ids_algebra in (c_family(F5, 0, 1, 1), c_family(F3, 0, 0, 0), noncomm):
        for basis in ideal_search_exhaustive(ids_algebra):
            from isotopelab import SpanTracker

            span = SpanTracker(ids_algebra.field)
            for e in basis:
                span.add(e.coords)
            for e in basis:
                for b in ids_algebra.basis():
                    assert span.contains((e * b).coords)
                    assert span.contains((b * e).coords)


@st.composite
def ideal_search_algebras(draw):
    """An algebra of dimension 1..4 over gf 3 or gf 5, or 1..3 over gf 7,
    commutative or not.  The share of zero entries is drawn per algebra,
    up to about 90%, so that proper ideals occur often."""
    field = draw(st.sampled_from((F3, F5, Field.gf(7))))
    n = draw(st.integers(1, 3 if field.p == 7 else 4))
    zeros = draw(st.integers(1, 9 * (field.p - 1)))
    entries = st.sampled_from((0,) * zeros + tuple(range(1, field.p)))
    c = [[draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        c = [[c[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return Algebra(field, c)


def _flat_ideal_scan(A):
    """Every proper nonzero subspace as a reduced-echelon basis (pivot
    columns in combinations order, then all free entries with row 0
    slowest), kept when the triple-sum products with the basis land in it."""
    p, n = A.field.p, A.n
    c = [[[s.value for s in cell] for cell in row] for row in A.table]
    units = [[int(i == j) for j in range(n)] for i in range(n)]

    def inside(x, rows, pivots):
        # in the span of a reduced-echelon basis, x is its pivot coordinates
        # times the rows
        return all(
            (x[col] - sum(x[piv] * row[col] for piv, row in zip(pivots, rows))) % p == 0
            for col in range(n)
        )

    found = []
    for k in range(1, n):
        for pivots in itertools.combinations(range(n), k):
            free = [(r, col) for r in range(k) for col in range(pivots[r] + 1, n)
                    if col not in pivots]
            for values in itertools.product(range(p), repeat=len(free)):
                rows = [[int(col == piv) for col in range(n)] for piv in pivots]
                for (r, col), v in zip(free, values):
                    rows[r][col] = v
                if all(
                    inside(_triple_sum(c, w, e), rows, pivots)
                    and inside(_triple_sum(c, e, w), rows, pivots)
                    for w in rows
                    for e in units
                ):
                    found.append(tuple(tuple(row) for row in rows))
    return found


def _matrix_units(field):
    """M_2(F) on the basis E_11, E_12, E_21, E_22: E_ij E_kl = [j == k] E_il,
    simple and not commutative."""
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return Algebra.from_products(field, 4, {
        (a, b): [int(unit == (i, l)) for unit in units]
        for a, (i, j) in enumerate(units) for b, (k, l) in enumerate(units) if j == k
    })


@given(ideal_search_algebras())
@example(Algebra.from_products(F3, 4, {}))
@example(Algebra.from_products(F3, 3, {(0, 0): [1, 0, 0], (0, 1): [0, 0, 1]}))
# Norton's test, with the shipped theta sequence: gf 3 with e_1 e_0 = e_0 and
# e_1 e_1 = e_1, where only the spin of the left kernel vector v shows that
# span(e_0) is an ideal, and gf 5 with e_0 e_1 = 2 e_0, where only the spin
# of the right kernel vector w shows it
@example(Algebra.from_products(F3, 2, {(1, 0): [1, 0], (1, 1): [0, 1]}))
@example(Algebra.from_products(F5, 2, {(0, 1): [2, 0]}))
# gf 3 with e_0 e_0 = e_1 e_1 = e_0 + e_1 and e_0 e_1 = e_1 e_0 = 2 (e_0 + e_1):
# the first theta is 0, and its 2-dimensional kernel must not decide
@example(Algebra.from_products(F3, 2, {(0, 0): [1, 1], (0, 1): [2, 2], (1, 0): [2, 2],
                                       (1, 1): [1, 1]}))
# M_2(F_3), decided by the test through left and right operators
@example(_matrix_units(F3))
# the field F_9 = F_3[i] on (1, i): simple, but each theta - lambda over F_3
# is invertible or has a 2-dimensional kernel, so no theta decides it
@example(Algebra.from_products(F3, 2, {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1],
                                       (1, 1): [2, 0]}))
def test_ideal_search_against_flat_subspace_scan(A):
    # the pruned search must return the flat scan's ideals, in its order
    got = [tuple(coords(e) for e in basis) for basis in ideal_search_exhaustive(A)]
    assert got == _flat_ideal_scan(A)


# ---------------------------------------------------------------------------
# isomorphism verification and search
# ---------------------------------------------------------------------------


def test_verify_isomorphism_identity():
    J = j2(QQ)
    assert verify_isomorphism(J, J, Matrix.identity(QQ, 3))
    assert not verify_isomorphism(J, J, Matrix.identity(QQ, 2))


def test_verify_isomorphism_homothety():
    from isotopelab import principal_isotope

    J = j2(QQ)
    s, t = QQ.scalar(2), QQ.scalar(3)
    iso = principal_isotope(
        J, Matrix.scalar_matrix(QQ, 3, s), Matrix.scalar_matrix(QQ, 3, t)
    )
    omega = (s * t).inverse()
    assert verify_isomorphism(J, iso, Matrix.scalar_matrix(QQ, 3, omega))
    assert not verify_isomorphism(J, iso, Matrix.identity(QQ, 3))


def test_isomorphism_search_self():
    m = isomorphism_search(j2(F3), j2(F3))
    assert m is not None
    assert m.is_invertible()
    assert verify_isomorphism(j2(F3), j2(F3), m)


def test_isomorphism_search_negative():
    assert isomorphism_search(c_family(F3, 1, 0, 0), c_family(F3, 1, 1, 0)) is None


def test_isomorphism_search_swap():
    A, B = c_family(F3, 1, 1, 0), c_family(F3, 1, 0, 1)
    m = isomorphism_search(A, B)
    assert m is not None
    assert m.is_invertible()
    assert verify_isomorphism(A, B, m)


@st.composite
def search_pairs(draw):
    """A 2-dimensional algebra A over gf 3 or gf 5 (any tensor, commutative
    or not) and B, either a random tensor or a copy of A transported by an
    invertible matrix P, so that P is an isomorphism A -> B."""
    field = draw(st.sampled_from((F3, F5)))
    rows = st.lists(st.integers(0, field.p - 1), min_size=2, max_size=2)
    matrices = st.lists(rows, min_size=2, max_size=2)
    tensors = st.lists(matrices, min_size=2, max_size=2)
    A = Algebra(field, draw(tensors))
    if draw(st.booleans()):
        return A, Algebra(field, draw(tensors))
    P = Matrix(field, draw(matrices))
    assume(P.is_invertible())
    Pi = P.inverse()
    table = [
        [list(P.apply(A.mul_coords(Pi.rows[i], Pi.rows[j]))) for j in range(2)]
        for i in range(2)
    ]
    return A, Algebra(field, table)


# all eight structure constants nonzero
DENSE_2 = Algebra(F5, [[[1, 2], [3, 4]], [[2, 3], [4, 1]]])
# the dual numbers F[t]/(t^2) on the basis (t, 1): the unit is e_1
DUAL_NUMBERS = Algebra.from_products(F5, 2, {(0, 1): [1, 0], (1, 0): [1, 0], (1, 1): [0, 1]})


@given(search_pairs())
@example((DENSE_2, transported(DENSE_2, Matrix(F5, [[1, 2], [3, 4]]))))
# e_0 is the unit of the first; the second has no unit, as e_1 e_0 = 0
@example((
    Algebra.from_products(F3, 2, {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1], (1, 1): [0, 1]}),
    Algebra.from_products(F3, 2, {(0, 0): [1, 0], (0, 1): [0, 1], (1, 1): [0, 1]}),
))
# a source whose unit, (1, 2), touches both rows
@example((transported(DUAL_NUMBERS, Matrix(F5, [[1, 1], [2, 0]])), DUAL_NUMBERS))
# algebras of different dimensions
@example((DENSE_2, c_family(F5, 1, 1, 0)))
def test_isomorphism_search_against_flat_scan(pair):
    # the first matrix of the flat lexicographic scan accepted by
    # verify_isomorphism, or None: the pruned search must return exactly it
    A, B = pair
    p, n = A.field.p, A.n
    expected = None
    for flat in itertools.product(range(p), repeat=n * n):
        m = Matrix(A.field, [flat[r * n : (r + 1) * n] for r in range(n)])
        if verify_isomorphism(A, B, m):
            expected = m
            break
    assert isomorphism_search(A, B) == expected


@pytest.mark.parametrize("p", [3, 5])
def test_isomorphism_search_matches_golden(p):
    # every ordered pair of the 3-dimensional catalog over gf p
    algs = {k: a for k, a in catalog_algebras(Field.gf(p)).items() if a.n == 3}
    text = "".join(
        f"{s} {t} {isomorphism_search(a, b)}\n" for s, a in algs.items() for t, b in algs.items()
    )
    assert text.encode() == (DATA / f"iso_search_gf{p}.txt").read_bytes()


def test_ideal_search_matches_golden():
    # the catalog with n <= 4 and every C(0, b, g) over gf 3, 5 and 7, then
    # the zero algebra and one with a nonzero square, each listed by its ideals
    def show(p, label, A):
        return f"{p} {label} {[[str(e) for e in basis] for basis in ideal_search_exhaustive(A)]}\n"

    parts = []
    for p in (3, 5, 7):
        F = Field.gf(p)
        parts += [show(p, label, A) for label, A in catalog_algebras(F).items() if A.n <= 4]
        parts += [show(p, f"C(0,{b},{g})", c_family(F, 0, b, g))
                  for b in range(p) for g in range(p)]
    parts.append(show(5, "zero3", Algebra.from_products(F5, 3, {})))
    e1e1_e1e2 = Algebra.from_products(F3, 3, {(0, 0): [1, 0, 0], (0, 1): [0, 0, 1]})
    parts.append(show(3, "e1e1=e1,e1e2=e3", e1e1_e1e2))
    assert "".join(parts).encode() == (DATA / "ideal_search_gf.txt").read_bytes()


def test_norton_test_spares_the_scan_exactly_on_simple_inputs(monkeypatch):
    # Norton's test proves each of these ideal-free, so the subspace scan
    # never runs for them; it runs for every C(0, b, g) and the zero
    # algebra, which have ideals, and their answers stay the golden's
    import isotopelab.algebras as algebras_module

    scans = []
    scan = algebras_module._ideal_scan
    monkeypatch.setattr(algebras_module, "_ideal_scan",
                        lambda *args: scans.append(args) or scan(*args))
    golden = {}
    for line in (DATA / "ideal_search_gf.txt").read_text().splitlines():
        p, label, ideals = line.split(" ", 2)
        golden[int(p), label] = ideals

    def show(A):
        return str([[str(e) for e in basis] for basis in ideal_search_exhaustive(A)])

    F7 = Field.gf(7)
    simple = [g_n(Field.gf(p), n) for p in (3, 5, 7) for n in (2, 3)]
    simple += [A for p in (3, 5, 7) for label, A in catalog_algebras(Field.gf(p)).items()
               if A.n <= 4 and golden[p, label] == "[]"]
    simple += [transported(g_n(F7, 3), random_invertible(F7, 4, seed)) for seed in range(16)]
    for A in simple:
        assert ideal_search_exhaustive(A) == []
    assert scans == []
    for p in (3, 5, 7):
        F = Field.gf(p)
        for b, g in itertools.product(range(p), repeat=2):
            assert show(c_family(F, 0, b, g)) == golden[p, f"C(0,{b},{g})"]
            assert len(scans) == 1
            scans.clear()
    assert show(Algebra.from_products(F5, 3, {})) == golden[5, "zero3"]
    assert len(scans) == 1


def test_unit_mod_matches_find_unit():
    for p in (3, 5, 7):
        F = Field.gf(p)
        for A in catalog_algebras(F).values():
            for B in [A] + [transported(A, random_invertible(F, A.n, seed)) for seed in range(3)]:
                u = find_unit(B)
                assert _unit_mod(_residues(B, p), p) == (None if u is None else coords(u))


@pytest.mark.parametrize("den", [1, 3, 5, 9])
@pytest.mark.parametrize("p", [3, 5, 7, ENVELOPE_PRIME, 2**31 - 1])
def test_residues_match_entrywise_reduction(den, p):
    rng = random.Random(den * p)
    c = [[[Fraction(rng.randint(-20, 20), rng.choice((1, den))) for _ in range(3)]
          for _ in range(3)] for _ in range(3)]
    c[0][0][0] = Fraction(1, den)  # den divides the lcm of the denominators
    got = _residues(Algebra(QQ, c), p)
    expected = [[[_residue(x, p) for x in cell] for cell in row] for row in c]
    if any(None in cell for row in expected for cell in row):
        assert got is None and den % p == 0
    else:
        assert [[list(cell) for cell in row] for row in got] == expected


def test_isomorphism_search_dense_source():
    # a unital standard isotope of C(2,0,0) with 26 nonzero structure
    # constants: every pair's equation is due at the last row
    D = parse_algebra_file(DATA / "dense_c2_gf5.alg")
    J = j2(F5)
    assert D.field == F5 and len(list(D.nonzero_entries())) >= 25
    assert find_unit(D) is not None
    forward, backward = isomorphism_search(D, J), isomorphism_search(J, D)
    assert (forward is None) == (backward is None)
    assert forward is None or verify_isomorphism(D, J, forward)
    assert backward is None or verify_isomorphism(J, D, backward)


def test_isomorphism_search_budget():
    with pytest.raises(SearchBudgetExceededError):
        isomorphism_search(j2(Field.gf(7)), j2(Field.gf(7)))
    with pytest.raises(SearchBudgetExceededError):
        isomorphism_search(g_n(F3, 3), g_n(F3, 3))
    with pytest.raises(SearchBudgetExceededError):
        isomorphism_search(j2(QQ), j2(QQ))
