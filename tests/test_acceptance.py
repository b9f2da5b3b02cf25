"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints its own pass/fail line (visible with ``pytest -s`` or in
the failure report); run the whole file with ``pytest tests/test_acceptance.py -v``.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

from isotopelab import (
    Field,
    Matrix,
    c2,
    c3,
    c_family,
    c_rho,
    catalog_algebras,
    envelope_dimension,
    express_as_right_mult,
    find_unit,
    g_n,
    ideal_search_exhaustive,
    is_jordan,
    is_simple_closure,
    isomorphism_search,
    j2,
    nil_rank_bruteforce,
    nil_rank_exact_C,
    principal_isotope,
    r_mult_report,
    random_invertible,
    standard_isotope,
    to_canonical_C,
    verify_isomorphism,
    witness_lemma1,
    witness_lemma6,
    witness_lemma10,
    witness_lemma11,
    witness_prop2,
    witness_theorem1,
    witness_theorem2,
)

QQ = Field.rationals()
F3 = Field.gf(3)
F5 = Field.gf(5)
F7 = Field.gf(7)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_rmult_determinant():
    with criterion(1, "det R_(1,a,b) = 1 - 2ab on 100 random rationals"):
        J = j2(QQ)
        rng = random.Random(20260811)
        for _ in range(100):
            alpha = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
            beta = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
            rep = r_mult_report(J.element((1, alpha, beta)))
            assert rep.determinant == 1 - 2 * alpha * beta
            assert rep.invertible == (1 - 2 * alpha * beta != 0)
            assert not r_mult_report(J.element((0, alpha, beta))).invertible


def test_criterion_2_c2_isotope_is_j2():
    with criterion(2, "the R_a isotope of C2 equals J2 after relabeling"):
        cert = witness_lemma6(QQ)
        assert cert.verdict, [s.description for s in cert.steps if not s.check]
        C = c2(QQ)
        ra = C.basis_element(0).right_mult_matrix()
        iso = principal_isotope(C, ra, ra)
        assert iso.relabel((1, 0, 2), names=("1", "x", "y")) == j2(QQ)


def test_criterion_3_isotopic_not_isomorphic():
    with criterion(3, "C(1,1,0) vs C(1,0,0): isotopy data exact, no isomorphism"):
        cert = witness_lemma10(QQ)
        assert cert.verdict, [s.description for s in cert.steps if not s.check]
        J = j2(QQ)
        one, x, y = J.basis()
        rc = (one + x).right_mult_matrix()
        assert rc == Matrix(QQ, [[1, 1, 0], [0, 1, 0], [1, 0, 1]])
        assert rc.inverse() == Matrix(QQ, [[1, -1, 0], [0, 1, 0], [-1, 1, 1]])
        iso = standard_isotope(J, rc.inverse())
        unit = find_unit(iso)
        assert unit is not None and unit.coords == iso.element((1, 2, 0)).coords
        ap = iso.element((0, -2, 0))
        bp = iso.element((QQ.scalar("-1/2"), 0, QQ.scalar("-1/2")))
        alpha, beta, gamma, change = to_canonical_C(iso, ap, bp)
        assert (alpha, beta, gamma) == (QQ.one, QQ.one, QQ.zero)
        assert verify_isomorphism(c_family(QQ, 1, 1, 0), iso, change)
        assert is_jordan(c_family(QQ, 1, 0, 0))
        assert not is_jordan(c_family(QQ, 1, 1, 0))
        from isotopelab import associator

        c110 = c_family(QQ, 1, 1, 0)
        xx, yy = c110.basis_element(1), c110.basis_element(2)
        assert associator(xx * yy, xx, yy) == -xx
        assert isomorphism_search(c_family(F3, 1, 0, 0), c_family(F3, 1, 1, 0)) is None


def test_criterion_4_lemma11_and_theorem1_sweep():
    with criterion(4, "lemma11 parameter set and the full theorem1 sweep over gf 5"):
        for rho in (1, 2, 3, -1, Fraction(1, 2), Fraction(-1, 2), 5):
            cert = witness_lemma11(rho)
            assert cert.verdict, (rho, [s.description for s in cert.steps if not s.check])
            assert cert.artifacts["rho"] == QQ.scalar(rho)
            recovered = next(
                s for s in cert.steps if s.description == "4 gamma delta = rho exactly"
            )
            assert recovered.expected == recovered.actual
        verified = 0
        for a in range(1, 5):
            for b in range(5):
                for g in range(5):
                    if (b * g) % 5 == (-2 * a) % 5:
                        continue
                    cert = witness_theorem1(a, b, g, field=F5)
                    assert cert.verdict, (a, b, g)
                    verified += 1
        # every alpha != 0 and beta gamma != -2 alpha, the non-residues
        # alpha = 2, 3 with beta = gamma = 0 included
        assert verified == 84


def test_criterion_5_theorem2():
    with criterion(5, "the isotope of C3 verifies as C(-2), with the exact operator"):
        cert = witness_theorem2(QQ)
        assert cert.verdict, [s.description for s in cert.steps if not s.check]
        C = c3(QQ)
        x, y, z = C.basis()
        phi = (x + y + z).right_mult_matrix().inverse()
        h = QQ.scalar("1/2")
        assert phi == Matrix(QQ, [[-h, h, h], [h, -h, h], [h, h, -h]])
        iso = standard_isotope(C, phi)
        e = iso.element((2, 2, 2))
        a = iso.element((0, -2, -2))
        b = iso.element((-2, 0, -2))
        assert a * b == -2 * (e + a + b)
        alpha, beta, gamma, change = to_canonical_C(iso, a, b)
        assert (alpha.value, beta.value, gamma.value) == (-2, -2, -2)
        assert verify_isomorphism(c_rho(QQ, -2), iso, change)


def test_criterion_6_nil_rank_table_and_sweep():
    with criterion(6, "nil-rank table over gf 5 and the exact-vs-brute sweep"):
        expected = {"J2": 2, "C2": 2, "C3": 3, "C(-2)": 3, "C(1)": 2, "C(1,1,0)": 2}
        algebras = catalog_algebras(F5)
        for label, rank in expected.items():
            assert nil_rank_bruteforce(algebras[label]).rank == rank, label
        for a in range(1, 5):
            for b in range(5):
                for g in range(5):
                    exact = nil_rank_exact_C(F5.scalar(a), b, g)
                    brute = nil_rank_bruteforce(c_family(F5, a, b, g))
                    assert exact.rank == brute.rank, (a, b, g)


def test_criterion_7_nil_rank_isotopy_invariance():
    with criterion(7, "200 random standard isotopes per catalog algebra keep nil-rank"):
        for label, A in catalog_algebras(F5).items():
            base = nil_rank_bruteforce(A).rank
            for seed in range(200):
                phi = random_invertible(F5, A.n, seed=seed)
                assert nil_rank_bruteforce(standard_isotope(A, phi)).rank == base, (
                    label,
                    seed,
                )


def test_criterion_8_propositions():
    with criterion(8, "envelope (n+1)^2 for n = 2..6 and the non-simple isotopes"):
        for n in range(2, 7):
            assert envelope_dimension(g_n(QQ, n)) == (n + 1) ** 2, n
            cert = witness_prop2(n, QQ)
            assert cert.verdict, (n, [s.description for s in cert.steps if not s.check])
        for n in (2, 3):
            assert ideal_search_exhaustive(g_n(F3, n)) == []
        # spot-check the ideal content of the isotope construction
        G = g_n(QQ, 2)
        t = G.basis_element(2)
        rt = t.right_mult_matrix()
        iso = standard_isotope(G, rt.inverse())
        unit = find_unit(iso)
        assert unit is not None and unit.coords == (t * t).coords
        zs = [iso.element(G.basis_element(i).apply(rt).coords) for i in range(2)]
        assert all((zi * zj).is_zero for zi in zs for zj in zs)
        assert not is_simple_closure(iso)


def test_criterion_9_right_mult_recovery():
    with criterion(9, "R_g recovery on every unital isotope, and the obstructed inverse"):
        J = j2(QQ)
        one, x, y = J.basis()
        c10 = one + x
        assert express_as_right_mult(J, c10.right_mult_matrix().inverse()) is None
        cases = []
        # the rank-2 pipeline isotopes: phi = R_c^-1 with g = c
        cases.append((J, c10))
        for rho in (1, 2, 3, -1, Fraction(1, 2), Fraction(-1, 2), 5):
            gamma = QQ.scalar(rho) / (2 * QQ.scalar(rho) + 4)
            cases.append((J, one + gamma * x + y))
        C = c3(QQ)
        cases.append((C, C.element((1, 1, 1))))
        for n in (2, 3, 4):
            G = g_n(QQ, n)
            cases.append((G, G.basis_element(n)))
        C2 = c2(QQ)
        cases.append((C2, C2.basis_element(0)))
        for A, g in cases:
            rg = g.right_mult_matrix()
            phi = rg.inverse()
            iso = standard_isotope(A, phi)
            assert find_unit(iso) is not None
            recovered = express_as_right_mult(A, phi.inverse())
            assert recovered == g
            assert phi * recovered.right_mult_matrix() == Matrix.identity(QQ, A.n)


def test_criterion_10_homothety_isomorphisms():
    with criterion(10, "50 random scalar pairs per catalog algebra verify the homothety"):
        rng = random.Random(77)
        algebras = catalog_algebras(QQ)
        pairs = []
        while len(pairs) < 50:
            s = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            t = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            if s and t:
                pairs.append((s, t))
        for label, A in algebras.items():
            for s, t in pairs:
                cert = witness_lemma1(A, s, t)
                assert cert.verdict, (label, s, t)
                # the homothety and its inverse verify in both directions
                iso = cert.artifacts["isotope"]
                omega = cert.artifacts["omega"]
                m = Matrix.scalar_matrix(QQ, A.n, omega)
                assert verify_isomorphism(A, iso, m)
                assert verify_isomorphism(iso, A, m.inverse())


def test_criterion_11_burnside_cross_check():
    with criterion(11, "envelope simplicity agrees with exhaustive ideal search"):
        for field in (F3, F5, F7):
            for label, A in catalog_algebras(field).items():
                if A.n > 4:
                    continue
                simple = is_simple_closure(A)
                ideals = ideal_search_exhaustive(A)
                assert simple == (len(ideals) == 0), (label, field.p)
            for b, g in ((1, 1), (2, 0), (0, 3), (0, 0)):
                A = c_family(field, 0, b, g)
                assert not is_simple_closure(A)
                ideals = ideal_search_exhaustive(A)
                bases = [
                    tuple(tuple(s.value for s in e.coords) for e in basis)
                    for basis in ideals
                ]
                assert ((0, 1, 0), (0, 0, 1)) in bases, (b, g, field.p)
