import itertools
import pathlib
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from isotopelab import (
    Algebra,
    Char2FieldError,
    DomainError,
    Field,
    Matrix,
    Scalar,
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
    random_invertible,
    span_rank,
    standard_isotope,
)
from isotopelab import nilpotents
from isotopelab.algfile import parse_algebra_file
from isotopelab.nilpotents import BRUTE_FORCE_BUDGET

QQ = Field.rationals()
F3 = Field.gf(3)
F5 = Field.gf(5)
F7 = Field.gf(7)
DATA = pathlib.Path(__file__).resolve().parent / "data"


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
    # G_8 mod 5 has 488,281 lines through the origin, within budget, but
    # 5^9 points; the guard is on the points
    assert (5**9 - 1) // 4 <= BRUTE_FORCE_BUDGET < 5**9
    with pytest.raises(SearchBudgetExceededError):
        nil_set_bruteforce(g_n(Field.gf(5), 8))
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


def test_nil_rank_rejects_a_p_that_is_not_an_odd_prime_on_every_route():
    # the exact C-form route ignores p, yet p must still be an odd prime
    for A in (j2(QQ), c_rho(QQ, -2), c2(QQ), g_n(QQ, 2), j2(F5)):
        with pytest.raises(DomainError, match="modulus 4 is not prime"):
            nil_rank(A, p=4)
        with pytest.raises(Char2FieldError):
            nil_rank(A, p=2)


def test_nil_rank_rejects_a_foreign_prime_on_a_prime_field():
    A = c_family(F7, 1, 1, 0)
    with pytest.raises(DomainError):
        nil_rank(A, p=5)
    # the field's own prime is accepted and changes nothing
    assert nil_rank(A, p=7) == nil_rank(A)
    assert nil_rank(A, p=7).reduced_mod is None


def test_nil_rank_names_the_reduction_prime():
    # only a rational algebra that was reduced mod p carries the prime
    report = nil_rank(g_n(QQ, 2))
    assert report.reduced_mod == 3
    assert all(w.algebra.field.p == 3 for w in report.witnesses)
    assert nil_rank(c_rho(QQ, -2)).reduced_mod is None
    assert nil_rank(j2(F5)).reduced_mod is None


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_nilrank_sweep_script_finds_no_mismatch(run_script, p):
    # the closed form against the brute force on every C(alpha, beta, gamma)
    # with alpha != 0 over gf p; the script exits 1 on a mismatch
    proc = run_script("nilrank_sweep.py", "--p", p)
    assert proc.returncode == 0, proc.stdout.decode()
    assert proc.stdout.decode().endswith("mismatches: 0\n")


def test_nil_rank_reduces_a_rational_algebra_with_denominators():
    # G_2 in the basis (3 x1, x2, e): x2 e = x2 + (3 x1) / 3, so 3 divides
    # a denominator and the smallest feasible prime is 5
    G = g_n(QQ, 2)
    S = Matrix.diagonal(QQ, [3, 1, 1])
    inv = S.inverse()
    table = [[inv.apply(G.mul_coords(S.rows[i], S.rows[j])) for j in range(3)] for i in range(3)]
    A = Algebra(QQ, table, names=G.names)
    assert any(c.value.denominator == 3 for row in A.table for cell in row for c in cell)
    report = nil_rank(A)
    assert report.reduced_mod == 5
    assert report.rank == 2
    residues = [[[F5.scalar(c.value) for c in cell] for cell in row] for row in A.table]
    reduced = Algebra(F5, residues, names=("x1", "x2", "e"))
    for w in report.witnesses:
        assert w.algebra == reduced and w.algebra.names == ("x1", "x2", "e")
        assert is_nil_index2(w)
    with pytest.raises(DomainError, match="not reducible mod 3"):
        nil_rank(A, p=3)
    assert nil_rank(A, p=7).reduced_mod == 7


def _rank_mod_p(rows, p):
    """Row rank mod p by plain Gauss-Jordan elimination on a copy."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _scan_oracle(table, p):
    """Every nonzero point with zero square in itertools.product order, and
    the greedy witnesses of that order."""
    n = len(table)
    nils = []
    for vec in itertools.product(range(p), repeat=n):
        square = [
            sum(vec[i] * vec[j] * table[i][j][k] for i in range(n) for j in range(n)) % p
            for k in range(n)
        ]
        if any(vec) and not any(square):
            nils.append(vec)
    witnesses = []
    for vec in nils:
        if _rank_mod_p(witnesses + [vec], p) > len(witnesses):
            witnesses.append(vec)
    return nils, witnesses


def _values(A):
    return [[[c.value for c in cell] for cell in row] for row in A.table]


# G4^(f, g) mod 5, n = 5: its prefixes get lines with s bound and with t
# bound, most of them cut to one point by a later h; G5^(f, f) mod 3, n = 6:
# every h-equation of a prefix is a multiple of the first, whole nil lines
G4_ISOTOPE_GF5 = _values(parse_algebra_file(DATA / "g4_gf5_isotope.alg"))
G5_ISOTOPE_GF3 = _values(standard_isotope(g_n(F3, 5), random_invertible(F3, 6, 0)))
E0_SQUARED_E2 = [[[0, 0, 1, 0]] + [[0] * 4] * 3] + [[[0] * 4] * 4] * 3


@st.composite
def small_tensors(draw):
    """(p, table) over gf 3/5/7, n = 1..4 (n = 5 over gf 3), biased to zero
    entries so that nil elements are common; commutative or not."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 5 if p == 3 else 4))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    table = [[[draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i):
                table[i][j] = list(table[j][i])
    return p, table


# e1 e2 = e3 only: every point is on a nil line and the nils span all of A
@example((7, [[[0, 0, 0], [0, 0, 1], [0, 0, 0]], [[0, 0, 0]] * 3, [[0, 0, 0]] * 3]))
# the zero algebra of dimension 4: nil-rank n
@example((3, [[[0] * 4] * 4] * 4))
# e0 e1 = e0, e1 e0 = 2 e0 over gf 3: anticommutative, so every vector is nil
# only through the cross term c_01. + c_10. = 3 e0
@example((3, [[[0, 0], [1, 0]], [[2, 0], [0, 0]]]))
# e1 e1 = e0 over gf 5: the nils are the line of e0, cut out by the t^2 term
@example((5, [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]))
# (a, b, t)^2 = (0, a^2 + b^2, t^2): coordinate 0 is identically zero, so t
# comes from coordinate 1, or from coordinate 2 where a^2 + b^2 = 0
@example((5, [[[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
              [[0, 0, 0], [0, 0, 0], [0, 0, 1]]]))
# e_last^2 = 0: (a, b, t)^2 = (a^2 + 6 a t, 0, b^2) is linear in t
@example((7, [[[1, 0, 0], [0, 0, 0], [3, 0, 0]], [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
              [[3, 0, 0], [0, 0, 0], [0, 0, 0]]]))
# a dense standard isotope of G_3 mod 7 (342 nils, nil-rank 3): s runs
# through all of 0..6 below every outer coordinate
@example((7, [[[6, 3, 1, 2], [6, 6, 6, 2], [3, 6, 5, 3], [3, 0, 1, 4]],
              [[6, 6, 6, 2], [3, 2, 6, 1], [0, 0, 5, 6], [6, 1, 2, 4]],
              [[3, 6, 5, 3], [0, 0, 5, 6], [2, 6, 3, 6], [1, 4, 4, 6]],
              [[3, 0, 1, 4], [6, 1, 2, 4], [1, 4, 4, 6], [2, 2, 0, 1]]]))
@example((5, G4_ISOTOPE_GF5))
@example((3, G5_ISOTOPE_GF3))
# Below, n = 4 over gf 5: v = (a, b, s, t), so k = 2 and l = 3, the prefixes
# are y = e0 + b e1 and e1, and H is the h with h . e2^2 = 0,
# h . (e2 e3 + e3 e2) = 0 and h . e3^2 = 0.
# e0^2 = e2: at y = e0 + b e1, h = e2 reads 0 s + 0 t + 1 = 0, no point
@example((5, E0_SQUARED_E2))
# v^2 = (3 a^2 + 4 a t + 4 b s) e0 + s^2 e3: h = e0 gives a line with s bound,
# s = -(3 + 4 t) / (4 b) for b != 0, and s^2 = 0 leaves t = 3 only
@example((5, [[[3, 0, 0, 0], [0] * 4, [0] * 4, [2, 0, 0, 0]],
              [[0] * 4, [0] * 4, [2, 0, 0, 0], [0] * 4],
              [[0] * 4, [2, 0, 0, 0], [0, 0, 0, 1], [0] * 4],
              [[2, 0, 0, 0], [0] * 4, [0] * 4, [0] * 4]]))
# v^2 = (b^2 + b t + 3 s^2) e0 + s^2 e1: h = e0 + 2 e1 gives a line with t
# bound, t = -b, and then s = 0
@example((5, [[[0] * 4] * 4,
              [[0] * 4, [1, 0, 0, 0], [0] * 4, [3, 0, 0, 0]],
              [[0] * 4, [0] * 4, [3, 1, 0, 0], [0] * 4],
              [[0] * 4, [3, 0, 0, 0], [0] * 4, [0] * 4]]))
# noncommutative; H = span(e1, e2, e3), and at y = e0 + b e1, h = e1 gives
# the line s = 2 b and h = e2 the line t = 0: at b = 0 their one common point
# is nil, for b != 0 the check on all coordinates of the first line rejects it
@example((5, [[[0] * 4, [0, 4, 0, 0], [0, 3, 0, 0], [0] * 4],
              [[0] * 4, [0] * 4, [3, 0, 0, 0], [0] * 4],
              [[0] * 4, [0] * 4, [3, 0, 0, 0], [0] * 4],
              [[0, 0, 2, 0], [0] * 4, [0] * 4, [0] * 4]]))
# e0^2 = e3, e0 e2 = e2 e0 = e0: at y = e0 + b e1, v^2 = 2 s e0 + e3, so
# h = e0 gives the line s = 0 and the later h = e3 reads 1 = 0; the check on
# all coordinates finds no point on the line (124 nils, nil-rank 3)
@example((5, [[[0, 0, 0, 1], [0] * 4, [1, 0, 0, 0], [0] * 4], [[0] * 4] * 4,
              [[1, 0, 0, 0], [0] * 4, [0] * 4, [0] * 4], [[0] * 4] * 4]))
# n = 5 over gf 3, e0 e2 = e1 and e2 e0 = 2 e1: v^2 = 3 a c e1 = 0, so every
# vector is nil, but only through the stepped term c_02. + c_20. of the
# prefixes e0 + b e1 + c e2 (2 c_02. in its place would keep only c = 0)
@example((3, [[[0] * 5, [0] * 5, [0, 1, 0, 0, 0], [0] * 5, [0] * 5],
              [[0] * 5] * 5,
              [[0, 2, 0, 0, 0]] + [[0] * 5] * 4,
              [[0] * 5] * 5, [[0] * 5] * 5]))
# e1^2 = e1 over gf 5: v = (a, b, s, t) is nil iff b = 0, so the lead-1
# block is empty, and the rank pass jumps from the block of e2 + t e3
# straight to that of e0 + s e2 + t e3 (the witnesses are e3, e2, e0)
@example((5, [[[0] * 4] * 4, [[0] * 4, [0, 1, 0, 0], [0] * 4, [0] * 4],
              [[0] * 4] * 4, [[0] * 4] * 4]))
@given(small_tensors())
def test_nil_scan_matches_full_point_scan(case):
    p, table = case
    A = Algebra(Field.gf(p), table)
    nils, witnesses = _scan_oracle(table, p)
    got = nil_set_bruteforce(A)
    assert [coords(e) for e in got] == nils
    for e in got:
        assert e == A.element(coords(e))
        assert all(type(s) is Scalar and s.field == A.field for s in e.coords)
    report = nil_rank_bruteforce(A)
    assert report.rank == len(witnesses)
    assert tuple(coords(w) for w in report.witnesses) == tuple(witnesses)


def test_nil_scan_solves_one_quadratic_per_prefix(monkeypatch):
    # the first h-equation leaves each prefix y one line, one quadratic,
    # where stepping s through F_p takes p of them
    calls = []
    roots = nilpotents._roots
    monkeypatch.setattr(nilpotents, "_roots", lambda *args: calls.append(args) or roots(*args))
    A = Algebra(F5, G4_ISOTOPE_GF5)
    p, n = 5, 5
    assert nil_rank_bruteforce(A).rank == 3  # as in nilrank_cli.txt
    prefixes = sum(p**j for j in range(n - 2))  # leads 0..n-3
    # plus one for the fixed block e_(n-2) + t e_(n-1); e_(n-1) takes none
    assert 0 < len(calls) <= prefixes + 1
    # e0^2 = e2 over gf 5: the prefixes e0 + b e1 read 1 = 0 and take none,
    # e1 has no equation and takes p, e2 + t e3 takes one
    calls.clear()
    assert len(nil_set_bruteforce(Algebra(F5, E0_SQUARED_E2))) == p**3 - 1  # v_0 = 0
    assert len(calls) == p + 1


@pytest.mark.parametrize("p, table", [(5, G4_ISOTOPE_GF5), (3, G5_ISOTOPE_GF3)])
def test_nil_scan_contracts_once_per_p_prefixes(monkeypatch, p, table):
    # below lead n - 3 the p prefixes y0 + t e_(n-3) share the contraction
    # of y0, so a lead block of P prefixes takes ceil(P / p) of them
    calls = []
    contract = nilpotents._contract
    monkeypatch.setattr(nilpotents, "_contract",
                        lambda *args: calls.append(args) or contract(*args))
    A = Algebra(Field.gf(p), table)
    k = A.n - 2
    assert [coords(e) for e in nil_set_bruteforce(A)] == _scan_oracle(table, p)[0]
    assert 0 < len(calls) <= sum((p ** (k - lead - 1) + p - 1) // p for lead in range(k))


@pytest.mark.parametrize("p, table", [(5, G4_ISOTOPE_GF5), (3, G5_ISOTOPE_GF3)])
def test_nil_rank_reads_one_point_per_nil_line(monkeypatch, p, table):
    # the rank pass tests each line's leading-1 point and jumps over its
    # p - 2 other multiples: one _annihilate per line, besides the three
    # that build H, and one more point read per lead block
    A = Algebra(Field.gf(p), table)
    nils = nil_set_bruteforce(A)
    assert len(nils) % (p - 1) == 0
    lines = len(nils) // (p - 1)
    calls, read = [], set()

    class Reads(list):
        def __getitem__(self, i):
            read.add(i)
            return super().__getitem__(i)

        def __iter__(self):
            read.update(range(len(self)))
            return super().__iter__()

    annihilate, nil_set = nilpotents._annihilate, nilpotents.nil_set_bruteforce
    monkeypatch.setattr(nilpotents, "_annihilate",
                        lambda *args: calls.append(args) or annihilate(*args))
    monkeypatch.setattr(nilpotents, "nil_set_bruteforce", lambda A: Reads(nil_set(A)))
    report = nil_rank_bruteforce(A)
    assert report.rank == len(_scan_oracle(table, p)[1])
    assert len(calls) <= lines + 3
    assert 0 < len(read) <= lines + A.n


def test_empty_nil_set_over_a_large_prime_builds_no_scalars(monkeypatch):
    # e0^2 = e0 over gf 999983 has no nil element; no per-residue Scalar
    # table may be built for an empty output
    built = []
    monkeypatch.setattr(nilpotents, "Scalar", lambda *args: built.append(args) or Scalar(*args))
    A = Algebra(Field.gf(999983), [[[1]]])
    assert nil_set_bruteforce(A) == []
    report = nil_rank_bruteforce(A)
    assert report.rank == 0 and report.witnesses == ()
    assert built == []


def test_bruteforce_matches_exact_c_over_gf97():
    F = Field.gf(97)
    rng = random.Random(97)
    # two rank-3 members (beta gamma = -2 alpha), then three seeded triples
    triples = [(a, b, -2 * a * pow(b, -1, 97) % 97) for a, b in [(1, 1), (5, 30)]]
    triples += [(rng.randrange(1, 97), rng.randrange(97), rng.randrange(97)) for _ in range(3)]
    ranks = []
    for a, b, g in triples:
        exact = nil_rank_exact_C(F.scalar(a), b, g)
        brute = nil_rank_bruteforce(c_family(F, a, b, g))
        assert brute.rank == exact.rank, (a, b, g)
        assert all(is_nil_index2(w) for w in brute.witnesses)
        ranks.append(brute.rank)
    assert ranks[:2] == [3, 3] and 2 in ranks
