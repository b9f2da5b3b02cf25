import pathlib

import pytest

from isotopelab import (
    Algebra,
    DependentNilsError,
    DimensionMismatchError,
    DomainError,
    Field,
    Matrix,
    NonSimpleError,
    NotUnitalError,
    SingularMatrixError,
    c2,
    c3,
    c_family,
    c_rho,
    canonicalize_C,
    g_n,
    j2,
    jordan_bilinear,
    run_witness,
    to_canonical_C,
    verify_isomorphism,
    witness_prop1,
    witness_prop2,
)

QQ = Field.rationals()
F5 = Field.gf(5)


def coords(el):
    return tuple(s.value for s in el.coords)


def tensor_entry(A, i, j):
    return tuple(s.value for s in A.table[i][j])


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_j2_table():
    J = j2(QQ)
    assert tensor_entry(J, 0, 0) == (1, 0, 0)
    assert tensor_entry(J, 1, 1) == (0, 0, 0)
    assert tensor_entry(J, 2, 2) == (0, 0, 0)
    assert tensor_entry(J, 1, 2) == (1, 0, 0)
    assert tensor_entry(J, 2, 1) == (1, 0, 0)
    assert tensor_entry(J, 0, 1) == (0, 1, 0)
    from isotopelab import find_unit

    assert coords(find_unit(J)) == (1, 0, 0)


def test_j2_equals_c100():
    assert j2(QQ) == c_family(QQ, 1, 0, 0)
    assert j2(F5) == c_family(F5, 1, 0, 0)


def test_jordan_bilinear_gram():
    A = jordan_bilinear(QQ, [[1, 0], [0, 1]])
    # v1 v1 = 1, v1 v2 = 0
    assert tensor_entry(A, 1, 1) == (1, 0, 0)
    assert tensor_entry(A, 1, 2) == (0, 0, 0)
    with pytest.raises(DomainError):
        jordan_bilinear(QQ, [[0, 1], [2, 0]])
    with pytest.raises(DimensionMismatchError):
        jordan_bilinear(QQ, [[0, 1]])


def test_c3_cyclic_table():
    C = c3(QQ)
    x, y, z = C.basis()
    assert coords(x * y) == (0, 0, 1)
    assert coords(y * z) == (1, 0, 0)
    assert coords(z * x) == (0, 1, 0)
    for b in (x, y, z):
        assert b.square().is_zero


def test_gn_relations_including_wraparound():
    for n in range(2, 6):
        G = g_n(QQ, n)
        e = G.basis_element(n)
        xs = [G.basis_element(i) for i in range(n)]
        assert (e * e) == e
        assert (xs[0] * e) == e + xs[1]
        for i in range(1, n - 1):
            assert (xs[i] * e) == xs[i] + xs[i + 1]
        assert (xs[n - 1] * e) == xs[n - 1] + xs[0]
        for i in range(n):
            for j in range(n):
                assert (xs[i] * xs[j]).is_zero
            assert (xs[i] * e) == (e * xs[i])


def test_gn_needs_n_at_least_2():
    with pytest.raises(DomainError):
        g_n(QQ, 1)
    # a float n is no index range and text is no number: g_n refuses both by
    # name, also behind prop1 and prop2 and through run_witness, which passes
    # n on as given, and no range guard compares them with 2 first
    for n in (2.0, "3"):
        for make in (lambda: g_n(QQ, n), lambda: witness_prop1(n), lambda: witness_prop2(n),
                     lambda: run_witness("prop1", n=n), lambda: run_witness("prop2", n=n)):
            with pytest.raises(DomainError, match=f"integer n >= 2, got {n!r}"):
                make()


# ---------------------------------------------------------------------------
# canonical C form
# ---------------------------------------------------------------------------


def test_to_canonical_c_j2():
    J = j2(QQ)
    one, x, y = J.basis()
    alpha, beta, gamma, change = to_canonical_C(one, x, y)
    assert (alpha, beta, gamma) == (QQ.one, QQ.zero, QQ.zero)
    assert change == Matrix.identity(QQ, 3)


def test_to_canonical_c_rescaled():
    J = j2(QQ)
    one, x, y = J.basis()
    alpha, beta, gamma, _ = to_canonical_C(one, 2 * x, y)
    assert (alpha.value, beta.value, gamma.value) == (2, 0, 0)


def test_to_canonical_c_identity_on_crho():
    C = c_rho(QQ, -2)
    one, x, y = C.basis()
    alpha, beta, gamma, _ = to_canonical_C(one, x, y)
    assert (alpha.value, beta.value, gamma.value) == (-2, -2, -2)


def test_to_canonical_c_errors():
    J = j2(QQ)
    one, x, y = J.basis()
    with pytest.raises(DependentNilsError):
        to_canonical_C(one, x, 3 * x)
    # S = (a, b, c) is invertible, but a a = b != a: a is not the unit
    with pytest.raises(NotUnitalError):
        to_canonical_C(*c2(QQ).basis())
    with pytest.raises(DomainError):
        to_canonical_C(one, one, y)  # unit is not nil
    G = g_n(QQ, 3)
    with pytest.raises(DomainError, match="needs dimension 3"):
        to_canonical_C(G.basis_element(3), G.basis_element(0), G.basis_element(1))
    N = Algebra.from_products(QQ, 3, {(0, 1): [0, 0, 1]})
    with pytest.raises(DomainError, match="needs a commutative algebra"):
        to_canonical_C(*N.basis())
    # no unit is a x + b y, which would give x = b xy and y = a xy, so
    # dependent nils; a given e = x + y makes the basis singular
    with pytest.raises(SingularMatrixError):
        to_canonical_C(x + y, x, y)


# ---------------------------------------------------------------------------
# canonicalize_C
# ---------------------------------------------------------------------------


def test_canonicalize_generic_to_crho():
    res = canonicalize_C(QQ.scalar(2), QQ.scalar(1), QQ.scalar(4))
    assert res.kind == "Crho"
    assert res.params[0].value == 2
    assert res.verdict
    assert verify_isomorphism(res.target, res.source, res.change)


def test_canonicalize_identity_cases():
    res = canonicalize_C(QQ.scalar(1), QQ.scalar(1), QQ.scalar(0))
    assert res.kind == "C(1,1,0)" and res.verdict
    assert res.change == Matrix.identity(QQ, 3)
    res = canonicalize_C(QQ.scalar(1), QQ.scalar(0), QQ.scalar(0))
    assert res.kind == "C(1,0,0)" and res.verdict


def test_canonicalize_square_case():
    res = canonicalize_C(QQ.scalar(4), QQ.scalar(0), QQ.scalar(0))
    assert res.kind == "C(1,0,0)" and res.verdict
    # x is kept and y is rescaled by 1/alpha
    assert res.change == Matrix.diagonal(QQ, [1, 1, QQ.scalar("1/4")])


def test_canonicalize_swap_case():
    res = canonicalize_C(QQ.scalar(3), QQ.scalar(0), QQ.scalar(5))
    assert res.kind == "C(1,1,0)" and res.verdict
    assert verify_isomorphism(res.target, res.source, res.change)


def test_canonicalize_rejects_alpha_zero():
    with pytest.raises(NonSimpleError):
        canonicalize_C(QQ.scalar(0), QQ.scalar(1), QQ.scalar(1))


def test_canonicalize_alpha_00_verifies_for_every_alpha():
    # the Euler non-residues 2 and 3 mod 5 included: no root is taken
    for field in (Field.gf(3), F5, Field.gf(7)):
        for a in range(1, field.p):
            alpha = field.scalar(a)
            res = canonicalize_C(alpha, field.zero, field.zero)
            assert res.verdict and res.kind == "C(1,0,0)", (field, a)
            assert res.change == Matrix.diagonal(field, [1, 1, alpha.inverse()])


def test_canonicalize_full_f5_consistency():
    for a in range(1, 5):
        for b in range(1, 5):
            for g in range(1, 5):
                res = canonicalize_C(F5.scalar(a), F5.scalar(b), F5.scalar(g))
                assert res.verdict, (a, b, g)
                assert res.params[0] == F5.scalar(b * g) / F5.scalar(a)


def test_shipped_files_match_the_catalog(run_script, tmp_path):
    # scripts/write_catalog_files.py writes algebras/ anew, byte for byte
    proc = run_script("write_catalog_files.py", "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr.decode()
    shipped = pathlib.Path(__file__).resolve().parent.parent / "algebras"
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(f.name for f in shipped.iterdir())
    for f in shipped.iterdir():
        assert (tmp_path / f.name).read_bytes() == f.read_bytes(), f.name
