import random
from fractions import Fraction

import pytest

from isotopelab import (
    Algebra,
    DimensionMismatchError,
    Field,
    FieldMismatchError,
    Isotopy,
    Matrix,
    SingularMatrixError,
    c2,
    c3,
    c_rho,
    catalog_algebras,
    express_as_right_mult,
    find_unit,
    is_commutative,
    j2,
    nil_rank_bruteforce,
    principal_isotope,
    r_mult_report,
    random_invertible,
    right_mult_fibre,
    standard_isotope,
    verify_isomorphism,
    verify_isotopy,
)

QQ = Field.rationals()
F5 = Field.gf(5)


def coords(el):
    return tuple(s.value for s in el.coords)


def random_r_invertible(A, rng):
    while True:
        el = A.element([rng.randint(-3, 3) for _ in range(A.n)])
        rep = r_mult_report(el)
        if rep.invertible:
            return el, rep


# ---------------------------------------------------------------------------
# principal and standard isotopes
# ---------------------------------------------------------------------------


def test_identity_isotope_is_the_algebra():
    J = j2(QQ)
    ident = Matrix.identity(QQ, 3)
    assert principal_isotope(J, ident, ident) == J
    assert standard_isotope(J, ident) == J


def test_c2_ra_isotope_table():
    C = c2(QQ)
    ra = C.basis_element(0).right_mult_matrix()
    iso = principal_isotope(C, ra, ra)
    expected = {
        (0, 0): (0, 0, 0),
        (1, 1): (0, 1, 0),
        (2, 2): (0, 0, 0),
        (0, 1): (1, 0, 0),
        (1, 2): (0, 0, 1),
        (0, 2): (0, 1, 0),
    }
    for (i, j), vec in expected.items():
        assert tuple(s.value for s in iso.table[i][j]) == vec
        assert tuple(s.value for s in iso.table[j][i]) == vec


def test_scaled_isotope_isomorphic_via_homothety():
    J = j2(QQ)
    iso = principal_isotope(
        J, Matrix.scalar_matrix(QQ, 3, 2), Matrix.scalar_matrix(QQ, 3, 3)
    )
    omega = QQ.scalar(6).inverse()
    assert verify_isomorphism(J, iso, Matrix.scalar_matrix(QQ, 3, omega))


INPUT_CHECKS = {
    "isotope by an operator over gf 5": (
        FieldMismatchError,
        lambda: principal_isotope(j2(QQ), Matrix.identity(F5, 3), Matrix.identity(QQ, 3)),
    ),
    "isotope by a 2 x 2 operator": (
        DimensionMismatchError,
        lambda: principal_isotope(j2(QQ), Matrix.identity(QQ, 3), Matrix.identity(QQ, 2)),
    ),
    "fibre of a 2 x 2 matrix": (
        DimensionMismatchError, lambda: right_mult_fibre(j2(QQ), Matrix.identity(QQ, 2))
    ),
}


@pytest.mark.parametrize("error,call", INPUT_CHECKS.values(), ids=list(INPUT_CHECKS))
def test_input_checks(error, call):
    with pytest.raises(error):
        call()


def test_singular_operator_rejected():
    J = j2(QQ)
    singular = Matrix(QQ, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    with pytest.raises(SingularMatrixError):
        principal_isotope(J, singular, Matrix.identity(QQ, 3))


def test_c3_standard_isotope_has_unit_2c():
    C = c3(QQ)
    x, y, z = C.basis()
    c = x + y + z
    iso = standard_isotope(C, c.right_mult_matrix().inverse())
    u = find_unit(iso)
    assert u is not None and coords(u) == (2, 2, 2)


def test_j2_isotope_by_inv_r_1px_is_c110():
    J = j2(QQ)
    one, x, y = J.basis()
    iso = standard_isotope(J, (one + x).right_mult_matrix().inverse())
    e = iso.element((1, 2, 0))
    ap = iso.element((0, -2, 0))
    bp = iso.element(( QQ.scalar("-1/2"), 0, QQ.scalar("-1/2")))
    assert find_unit(iso) == e
    assert (ap * ap).is_zero and (bp * bp).is_zero
    assert ap * bp == e + ap
    change = Matrix(QQ, [e.coords, ap.coords, bp.coords])
    from isotopelab import c_family

    assert verify_isomorphism(c_family(QQ, 1, 1, 0), iso, change)


# ---------------------------------------------------------------------------
# verify_isotopy
# ---------------------------------------------------------------------------


def test_isomorphism_triple_is_isotopy():
    A = c_rho(QQ, 3)
    ident = Matrix.identity(QQ, 3)
    assert verify_isotopy(A, A, Isotopy.isomorphism(ident))


def test_tautological_triples():
    A = j2(F5)
    f = random_invertible(F5, 3, seed=21)
    g = random_invertible(F5, 3, seed=22)
    iso = principal_isotope(A, f, g)
    assert verify_isotopy(iso, A, Isotopy.from_isotope(f, g))
    assert verify_isotopy(A, iso, Isotopy.into_isotope(f, g))
    assert not verify_isotopy(iso, A, Isotopy.from_isotope(g, f)) or f == g


def test_isotopy_composition_and_inverse():
    A = j2(F5)
    f = random_invertible(F5, 3, seed=31)
    g = random_invertible(F5, 3, seed=32)
    iso = principal_isotope(A, f, g)
    lam = Isotopy.into_isotope(f, g)
    assert verify_isotopy(iso, A, lam.inverse())
    composed = lam.then(lam.inverse())
    assert verify_isotopy(A, A, composed)


def preserves_on_scalars(A, B, phi, psi, xi):
    """The definition, on Scalars: (e_i phi)(e_j psi) = (e_i e_j) xi."""
    return all(B.mul_coords(phi.rows[i], psi.rows[j]) == xi.apply(A.table[i][j])
               for i in range(A.n) for j in range(A.n))


@pytest.mark.parametrize("field", [QQ, F5])
@pytest.mark.parametrize("seed", range(8))
def test_verify_isotopy_matches_the_definition(field, seed):
    # denominators that differ from map to map and from the tensors', and
    # maps that are products, so that every scale of the raw check is not 1
    rng = random.Random(seed)
    n = 3

    def value(dens):
        return Fraction(rng.randint(-3, 3), rng.choice(dens))

    def invertible(dens):
        while True:
            m = Matrix(field, [[value(dens) for _ in range(n)] for _ in range(n)])
            if m.is_invertible():
                return m

    A = Algebra(field, [[[value((1, 7)) for _ in range(n)] for _ in range(n)] for _ in range(n)])
    phi = invertible((1, 2)) * invertible((1, 3))
    psi, xi = invertible((1, 3)), invertible((1, 2, 3)) * invertible((1, 7))
    phi_inv, psi_inv, xi_inv = phi.inverse(), psi.inverse(), xi.inverse()

    def transported(f_inv, g_inv, h):
        # the algebra on which (f, g, h) is an isotopy from A
        return Algebra(field, [[h.apply(A.mul_coords(f_inv.rows[i], g_inv.rows[j]))
                                for j in range(n)] for i in range(n)])

    B = transported(phi_inv, psi_inv, xi)
    assert verify_isotopy(A, B, Isotopy(phi, psi, xi))
    assert principal_isotope(A, phi, psi).table == tuple(
        tuple(A.mul_coords(phi.rows[i], psi.rows[j]) for j in range(n)) for i in range(n))
    C = transported(xi_inv, xi_inv, xi)
    assert verify_isomorphism(A, C, xi)
    bent = Matrix(field, [[xi.rows[0][0] + 1, *xi.rows[0][1:]], *xi.rows[1:]])
    two = Matrix.scalar_matrix(field, n, 2)
    for maps in [(phi, psi, bent), (psi, phi, xi), (phi * two, psi, xi), (phi, psi, xi * two)]:
        if all(m.is_invertible() for m in maps):
            assert verify_isotopy(A, B, Isotopy(*maps)) == preserves_on_scalars(A, B, *maps)
    for m in (bent, xi * two, phi):
        if m.is_invertible():
            assert verify_isomorphism(A, C, m) == preserves_on_scalars(A, C, m, m, m)


def test_isotopy_requires_invertible_maps():
    singular = Matrix(QQ, [[0, 0], [0, 0]])
    ident = Matrix.identity(QQ, 2)
    with pytest.raises(SingularMatrixError):
        Isotopy(singular, ident, ident)


def test_a_map_given_twice_is_checked():
    # each distinct map is checked once, so a repeated one must still count
    J = j2(QQ)
    s = Matrix(QQ, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])
    ident = Matrix.identity(QQ, 3)
    with pytest.raises(SingularMatrixError):
        Isotopy(s, s, ident)
    with pytest.raises(SingularMatrixError):
        principal_isotope(J, s, s)
    m = Matrix.diagonal(QQ, [1, 2, QQ.scalar("1/2")])  # x -> 2x, y -> y/2: an automorphism
    twin = Matrix(m.field, m.rows)  # equal to m, a distinct object
    assert twin == m and twin is not m
    assert verify_isotopy(J, J, Isotopy(m, twin, m))


def test_a_shared_map_stays_one_object():
    # the inverse, composite or isotope inverse of a map given twice is
    # computed once, so the result shares it and checks it once
    m = Matrix.diagonal(QQ, [1, 2, 3])
    iso = Isotopy.isomorphism(m)
    for lam in (iso.inverse(), iso.then(iso), Isotopy.into_isotope(m, m)):
        assert lam.phi is lam.psi
    inv = iso.inverse()
    assert inv.xi is inv.phi
    assert inv.phi == Matrix.diagonal(QQ, [1, QQ.scalar("1/2"), QQ.scalar("1/3")])


# ---------------------------------------------------------------------------
# r_mult_report
# ---------------------------------------------------------------------------


def test_rmult_report_j2_symbolic_det():
    J = j2(QQ)
    rng = random.Random(5)
    from fractions import Fraction

    for _ in range(25):
        alpha = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        beta = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        rep = r_mult_report(J.element((1, alpha, beta)))
        assert rep.determinant == 1 - 2 * alpha * beta
        rep0 = r_mult_report(J.element((0, alpha, beta)))
        assert not rep0.invertible


def test_rmult_report_c2():
    C = c2(QQ)
    rep = r_mult_report(C.basis_element(0))
    assert rep.determinant in (QQ.scalar(1), QQ.scalar(-1))
    assert rep.invertible
    assert rep.matrix * rep.matrix == Matrix.identity(QQ, 3)


# ---------------------------------------------------------------------------
# express_as_right_mult
# ---------------------------------------------------------------------------


def test_express_round_trip():
    J = j2(QQ)
    one, x, _ = J.basis()
    g = one + x
    assert express_as_right_mult(J, g.right_mult_matrix()) == g


def test_express_inverse_not_representable():
    J = j2(QQ)
    one, x, _ = J.basis()
    m = (one + x).right_mult_matrix().inverse()
    assert express_as_right_mult(J, m) is None


def test_express_identity_gives_unit():
    A = c_rho(QQ, 7)
    g = express_as_right_mult(A, Matrix.identity(QQ, 3))
    assert g is not None and coords(g) == (1, 0, 0)


def test_express_recovers_unique_solution_on_catalog():
    rng = random.Random(11)
    for label, A in catalog_algebras(QQ).items():
        el = A.element([rng.randint(-3, 3) for _ in range(A.n)])
        fib = right_mult_fibre(A, el.right_mult_matrix())
        assert fib is not None
        assert not fib.kernel, label
        assert A.element(fib.point) == el


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_round_trip_inverse_isotope():
    rng = random.Random(2)
    for field in (QQ, F5):
        A = j2(field)
        for seed in range(8):
            f = random_invertible(field, 3, seed=100 + seed)
            g = random_invertible(field, 3, seed=200 + seed)
            iso = principal_isotope(A, f, g)
            assert principal_isotope(iso, f.inverse(), g.inverse()) == A


def test_unit_of_standard_isotope_is_square():
    rng = random.Random(13)
    for label, A in catalog_algebras(QQ).items():
        el, rep = random_r_invertible(A, rng)
        iso = standard_isotope(A, rep.matrix.inverse())
        unit = find_unit(iso)
        assert unit is not None
        assert unit.coords == (el * el).coords, label


def test_commutativity_preserved_by_proportional_isotopes():
    rng = random.Random(17)
    for label, A in catalog_algebras(QQ).items():
        if not is_commutative(A):
            continue
        f = random_invertible(QQ, A.n, seed=500 + A.n)
        iso = principal_isotope(
            A, Matrix.scalar_matrix(QQ, A.n, 2) * f, Matrix.scalar_matrix(QQ, A.n, -3) * f
        )
        assert is_commutative(iso), label


def test_nil_rank_invariant_under_standard_isotopy_sample():
    from isotopelab import is_nil_index2

    for label, A in catalog_algebras(F5).items():
        base = nil_rank_bruteforce(A)
        for seed in range(5):
            phi = random_invertible(F5, A.n, seed=900 + seed)
            iso = standard_isotope(A, phi)
            assert nil_rank_bruteforce(iso).rank == base.rank, label
            # witness transport: w phi^-1 is nil in the isotope
            inv = phi.inverse()
            for w in base.witnesses:
                transported = iso.element(inv.apply(w.coords))
                assert is_nil_index2(transported)
