import pytest

from isotopelab import (
    DomainError,
    Field,
    SearchBudgetExceededError,
    c2,
    c3,
    c_family,
    c_rho,
    g_n,
    is_nil_index2,
    j2,
    nil_rank,
    nil_rank_bruteforce,
    nil_rank_exact_C,
    nil_set_bruteforce,
    span_rank,
)

QQ = Field.rationals()
F3 = Field.gf(3)
F5 = Field.gf(5)
F7 = Field.gf(7)


def coords(el):
    return tuple(s.value for s in el.coords)


def test_is_nil_index2_examples():
    J = j2(QQ)
    one, x, y = J.basis()
    assert is_nil_index2(x)
    assert not is_nil_index2(x + y)  # (x+y)^2 = 2
    assert not is_nil_index2(J.zero())
    C = c_rho(QQ, -2)
    half = QQ.scalar("1/2")
    assert is_nil_index2(C.element((1, half, half)))


def test_nil_set_j2_is_the_two_lines():
    for p in (3, 5, 7):
        J = j2(Field.gf(p))
        got = sorted(coords(e) for e in nil_set_bruteforce(J))
        expected = sorted(
            [(0, a, 0) for a in range(1, p)] + [(0, 0, b) for b in range(1, p)]
        )
        assert got == expected


def test_nil_set_c2_is_the_two_lines():
    got = sorted(coords(e) for e in nil_set_bruteforce(c2(F5)))
    expected = sorted(
        [(0, a, 0) for a in range(1, 5)] + [(0, 0, b) for b in range(1, 5)]
    )
    assert got == expected


def test_nil_set_c3_contains_the_basis():
    got = {coords(e) for e in nil_set_bruteforce(c3(F3))}
    assert {(1, 0, 0), (0, 1, 0), (0, 0, 1)} <= got


def test_nil_set_budget():
    with pytest.raises(SearchBudgetExceededError):
        nil_set_bruteforce(g_n(Field.gf(101), 3))
    with pytest.raises(DomainError):
        nil_set_bruteforce(j2(QQ))


def test_nil_set_lexicographic_order():
    nils = nil_set_bruteforce(j2(F3))
    as_tuples = [coords(e) for e in nils]
    assert as_tuples == sorted(as_tuples)


def test_nil_rank_table_over_f5():
    expected = {
        "J2": 2,
        "C2": 2,
        "C3": 3,
        "C(-2)": 3,
        "C(1)": 2,
        "C(1,1,0)": 2,
    }
    from isotopelab import catalog_algebras

    algebras = catalog_algebras(F5)
    for label, rank in expected.items():
        report = nil_rank_bruteforce(algebras[label])
        assert report.rank == rank, label
        assert report.method == "bruteforce-fp"
        assert report.closure_caveat


def test_strongly_degenerate_family_has_nil_rank_n():
    # the nil set is exactly the zero-multiplication subalgebra minus zero
    for n in (2, 3):
        G = g_n(F5, n)
        report = nil_rank_bruteforce(G)
        assert report.rank == n
        nils = nil_set_bruteforce(G)
        assert len(nils) == 5**n - 1
        assert all(e.coords[n].is_zero for e in nils)


def test_nil_rank_witnesses_are_independent_nils():
    for A in (j2(F5), c3(F5), c_rho(F5, -2), g_n(F5, 3)):
        report = nil_rank_bruteforce(A)
        for w in report.witnesses:
            assert is_nil_index2(w)
        assert span_rank(report.witnesses) == report.rank == len(report.witnesses)


def test_exact_c_examples():
    from fractions import Fraction

    report = nil_rank_exact_C(QQ.scalar(-2), -2, -2)
    assert report.rank == 3
    assert coords(report.witnesses[2]) == (1, Fraction(1, 2), Fraction(1, 2))
    assert not report.closure_caveat
    assert nil_rank_exact_C(QQ.scalar(1), 0, 0).rank == 2
    # beta gamma = -2 alpha with asymmetric parameters
    report = nil_rank_exact_C(QQ.scalar(1), 1, -2)
    assert report.rank == 3
    for w in report.witnesses:
        assert is_nil_index2(w)


def test_exact_c_rejects_alpha_zero():
    with pytest.raises(DomainError):
        nil_rank_exact_C(QQ.scalar(0), 1, 1)


@pytest.mark.parametrize("field", [F5, F7], ids=["gf5", "gf7"])
def test_exact_c_agrees_with_bruteforce(field):
    p = field.p
    checked = 0
    for a in range(1, p):
        for b in range(0, p, 2):
            for g in range(0, p, 3):
                exact = nil_rank_exact_C(field.scalar(a), b, g)
                brute = nil_rank_bruteforce(c_family(field, a, b, g))
                assert exact.rank == brute.rank, (a, b, g)
                checked += 1
    assert checked >= 20


def test_nil_rank_dispatcher():
    # prime field goes brute force
    assert nil_rank(j2(F5)).method == "bruteforce-fp"
    # rational C-form uses the closed form, no caveat
    report = nil_rank(c_rho(QQ, -2))
    assert report.method == "exact-cfamily"
    assert report.rank == 3 and not report.closure_caveat
    # other rational algebras reduce mod p with the caveat
    report = nil_rank(c2(QQ))
    assert report.method == "bruteforce-fp"
    assert report.rank == 2 and report.closure_caveat
    report = nil_rank(g_n(QQ, 2), p=7)
    assert report.rank == 2
    assert report.reduced_mod == 7
    with pytest.raises(DomainError):
        nil_rank(c2(QQ), p=4)


def test_nil_rank_names_the_reduction_prime():
    # only a rational algebra that was reduced mod p carries the prime
    report = nil_rank(g_n(QQ, 2))
    assert report.reduced_mod == 3
    assert all(w.algebra.field.p == 3 for w in report.witnesses)
    assert nil_rank(c_rho(QQ, -2)).reduced_mod is None
    assert nil_rank(j2(F5)).reduced_mod is None
