"""Index-2 nil elements and nil-rank: the dimension of the span of the set
of nonzero elements squaring to zero.

Two routes are provided.  The exact route covers the C(alpha, beta, gamma)
family, where eliminating the quadratic system for a nil element
``l 1 + s x + t y`` gives a closed criterion: a nil element with l != 0
exists iff beta gamma = -2 alpha (alpha != 0), with witness
``1 - x / gamma - y / beta``.  The brute-force route enumerates a prime
field, with a closure caveat: its points can miss nil elements that only
appear over the algebraic closure.  Since (c v)^2 = c^2 v^2, it scans the
leading-1 point of each line through the origin, y + s e_k + t e_last
(k = n - 2, y_k = y_last = 0), and per prefix y takes the first h in the
annihilator of e_k^2, e_k e_last + e_last e_k and e_last^2 whose equation
h . v^2 = 0, linear in (s, t), is not 0 = 0 (see ``_nil_lines``).  The
prefixes come p at a time, stepped along their last coordinate, with one
contraction per p of them.  The rank pass tests only the leading-1 points,
one per nil line, against the annihilator of the span so far: a multiple
c v is in a span iff v is, and v comes first.
"""

from __future__ import annotations

import itertools
from operator import mul

from .algebras import Algebra, Element, _contract, _residues
from .catalog import c_family
from .errors import DomainError, SearchBudgetExceededError
from .fields import Field, Scalar, _is_prime
from .matrices import _combination
from .records import FrozenRecord

BRUTE_FORCE_BUDGET = 10**6

METHOD_EXACT_C = "exact-cfamily"
METHOD_BRUTE_FP = "bruteforce-fp"


class NilReport(FrozenRecord):
    """Nil-rank with independent witnesses, each squaring to zero.

    ``closure_caveat`` is True when the result came from enumerating a
    field that is not algebraically closed.  ``reduced_mod`` is the prime p
    when a rational algebra was reduced mod p first; the witnesses then
    live in gf p.
    """

    __slots__ = ("rank", "witnesses", "method", "closure_caveat", "reduced_mod")

    def __init__(
        self,
        rank: int,
        witnesses: tuple[Element, ...],
        method: str,
        closure_caveat: bool,
        reduced_mod: int | None = None,
    ):
        self._set(rank, witnesses, method, closure_caveat, reduced_mod)


def is_nil_index2(a: Element) -> bool:
    """Nonzero with zero square."""
    return not a.is_zero and a.square().is_zero


def _annihilate(ann: list, vec, p: int) -> list:
    """A basis of the h in the span of the rows ``ann`` with h . vec = 0 mod
    p: ``ann`` itself when every row has it already, else one row fewer."""
    dots = [sum(map(mul, h, vec)) % p for h in ann]
    if not any(dots):
        return ann
    i = next(i for i, d in enumerate(dots) if d)
    # rows before i have h . vec = 0; clear it from the later ones with row i
    h0, inv = ann[i], pow(dots[i], -1, p)
    return ann[:i] + [[(u - d * inv * v) % p for u, v in zip(h, h0)]
                      for h, d in zip(ann[i + 1:], dots[i + 1:])]


def _roots(sq, lin, quad, p, root):
    """The t in 0..p-1, ascending, with sq + t lin + t^2 quad = 0 mod p in
    every coordinate; ``quad`` must be reduced mod p, and ``root`` maps each
    square residue to a square root."""
    for a, b, c in zip(sq, lin, quad):
        a, b = a % p, b % p
        if c:
            r = root.get((b * b - 4 * a * c) % p)
            if r is None:
                return ()
            inv = pow(2 * c, -1, p)
            cands = sorted({(r - b) * inv % p, (-r - b) * inv % p})
        elif a or b:
            cands = (-a * pow(b, -1, p) % p,) if b else ()
        else:
            continue
        terms = list(zip(sq, lin, quad))
        return [t for t in cands if not any([(a + t * (b + t * c)) % p for a, b, c in terms])]
    return range(p)


def _nil_lines(tensor, p: int):
    """For lead = n-1 down to 0, the nil points whose first nonzero
    coordinate is a 1 at ``lead``, not sorted (``nil_set_bruteforce``
    sorts each block).  Below lead k = n - 2, v = y + s e_k + t e_l
    (l = n - 1) squares to Y + s U + t W + s^2 e_k^2 + s t C + t^2 e_l^2
    (Y = y^2, U = y e_k + e_k y, W = y e_l + e_l y, C = e_k e_l + e_l e_k).
    Below lead j = k - 1 the prefixes come p at a time, y = y0 + t e_j
    (y0_j = 0): one contraction and two combinations give Y0 = y0^2,
    B = y0 e_j + e_j y0 and (U0, W0) at t = 0, and then Y = Y0 + t B +
    t^2 e_j^2 and (U, W) = (U0, W0) + t (U, W at y = e_j).  Each h in H, the
    annihilator of e_k^2, C and e_l^2, gives h . Y + s h . U + t h . W = 0.
    The first of these that is not 0 = 0 decides: with a = b = 0 the
    prefix has no point, else it has one line (s bound if a != 0, else t),
    and with no such h it has the p lines s = 0..p-1.  Every nil point
    lies on a line so chosen, and v^2 along a line is one quadratic whose
    roots ``_roots`` checks on all n coordinates."""
    n = len(tensor)
    last, k, j = n - 1, n - 2, n - 3
    quad = tensor[last][last]
    yield [] if any(quad) else [(0,) * last + (1,)]
    if n == 1:
        return
    root = {r * r % p: r for r in range(p)}
    # row i: e_i e_k + e_k e_i, then e_i e_last + e_last e_i
    cross = [[u + v for u, v in zip(tensor[i][k] + tensor[i][last], tensor[k][i] + tensor[last][i])]
             for i in range(n)]
    sq_k, mixed = tensor[k][k], cross[k][n:]
    yield [(0,) * k + (1, t) for t in _roots(sq_k, mixed, quad, p, root)]
    ann = [[int(i == j) for j in range(n)] for i in range(n)]
    for vec in (sq_k, mixed, quad):
        ann = _annihilate(ann, vec, p)

    def prefixes(lead):
        # (prefix, Y, U and W in one list) in product order
        if lead == j:
            yield (0,) * j + (1,), tensor[j][j], cross[j]
            return
        sym = [[u + v for u, v in zip(tensor[i][j], tensor[j][i])] for i in range(n)]
        sq_j = tensor[j][j]
        for outer in itertools.product(range(p), repeat=j - lead - 1):
            y0 = (0,) * lead + (1,) + outer + (0, 0, 0)
            sq0, lin0 = _contract(tensor, y0, y0), _combination(y0, cross, 0)
            step = _combination(y0, sym, 0)
            for t in range(p):
                yield (y0[:j] + (t,), [a + t * (b + t * c) for a, b, c in zip(sq0, step, sq_j)],
                       [a + t * b for a, b in zip(lin0, cross[j])])

    for lead in reversed(range(k)):
        lines = []
        for prefix, sq, lin in prefixes(lead):
            u, w = lin[:n], lin[n:]
            # the first h . v^2 = 0, a s + b t + c = 0, that is not 0 = 0
            a = b = c = 0
            for h in ann:
                a, b, c = [sum(map(mul, h, x)) % p for x in (u, w, sq)]
                if a or b or c:
                    break
            # each line is bound = b0 + m free, with s bound unless a = 0 != b
            if a:
                inv = pow(a, -1, p)
                on_s, bound = True, [(-c * inv, -b * inv)]
            elif b:
                on_s, bound = False, [(-c * pow(b, -1, p), 0)]
            elif c:
                continue
            else:
                on_s, bound = True, [(s, 0) for s in range(p)]
            bv, fv, bq, fq = (u, w, sq_k, quad) if on_s else (w, u, quad, sq_k)
            for b0, m in bound:
                # along the line v^2 = c0 + free c1 + free^2 c2
                c0 = [y2 + b0 * (x + b0 * q) for y2, x, q in zip(sq, bv, bq)]
                c1 = [f + m * (x + 2 * b0 * q) + b0 * r for f, x, q, r in zip(fv, bv, bq, mixed)]
                c2 = [(q + m * (r + m * x)) % p for q, r, x in zip(fq, mixed, bq)]
                lines.extend(prefix + ((b0 + m * f) % p, f) if on_s else prefix + (f, b0 % p)
                             for f in _roots(c0, c1, c2, p, root))
        yield lines


def nil_set_bruteforce(A: Algebra) -> list[Element]:
    """Every nonzero element with zero square, in lexicographic coordinate
    order.  Requires a prime field with p^n <= 10^6."""
    p = A.field.p
    if p is None:
        raise DomainError("brute-force nil enumeration needs a finite field")
    if p**A.n > BRUTE_FORCE_BUDGET:
        raise SearchBudgetExceededError(
            f"nil enumeration infeasible: {p}^{A.n} > {BRUTE_FORCE_BUDGET}"
        )
    out, scalar, new = [], None, object.__new__
    # a line is nil iff its leading-1 point is; the c-multiples of a block
    # lead with c, so its sorted groups for c = 1, 2, ... are in order
    for lines in _nil_lines(A._tensor, p):
        if not lines:
            continue
        # built at the first nil line, whose multiples hold every nonzero residue
        scalar = scalar or [Scalar(A.field, r) for r in range(p)].__getitem__
        cols = list(zip(*lines))  # columnwise: a few long loops, not many short ones
        # a table of the block's residues only: at most p, and at most its entries
        residues = set().union(*cols)
        for c in range(1, p):
            times = {v: c * v % p for v in residues}.__getitem__
            group = sorted(zip(*[map(times, col) for col in cols]))
            # built in place, not by a helper: a call per element cost 1-6% of
            # this function's time on catalog and G_3..G_5 isotopes mod 5 and
            # 7 (2-vCPU VM), and the benchmark's search-fp op_p50_ms 1.5%
            for coords in zip(*[map(scalar, col) for col in zip(*group)]):
                el = new(Element)
                el.algebra = A
                el.coords = coords
                out.append(el)
    return out


def nil_rank_bruteforce(A: Algebra) -> NilReport:
    """Rank of the span of the brute-force nil set, with witnesses taken
    greedily in scan order.  Only the points whose first nonzero coordinate
    is 1 are tested: c v lies in a span iff v does, and v comes first."""
    p, n = A.field.p, A.n
    # ann is a basis of the vectors h with h . w = 0 for every witness w so
    # far; v is outside the witnesses' span iff some h . v != 0.  It has
    # n - r rows where an echelon span (matrices._insert) has r, and on G_k,
    # of dimension k + 1, r reaches k: on isotopes of G_5 mod 5 (2-vCPU VM)
    # the rank pass took 2.0-2.4 ms this way and 5.7-7.2 ms through _insert.
    ann = [[int(i == j) for j in range(n)] for i in range(n)]
    witnesses, nils, i = [], nil_set_bruteforce(A), 0
    # the list is one block per lead coordinate: L points whose lead value is
    # 1, then their multiples by c = 2..p-1 in groups of L.  Test the run that
    # shares the block's first lead value, 1 (never empty, so i advances; it
    # ends at the c = 2 group, as p > 2), then jump (p - 1) L to the next block
    while i < len(nils) and ann:
        start, lead = i, next(j for j, s in enumerate(nils[i].coords) if s.value)
        one = nils[i].coords[lead].value
        while ann and nils[i].coords[lead].value == one:
            rest = _annihilate(ann, [s.value for s in nils[i].coords], p)
            if len(rest) < len(ann):
                witnesses.append(nils[i])
                ann = rest
            i += 1
        i = start + (p - 1) * (i - start)
    return NilReport(len(witnesses), tuple(witnesses), METHOD_BRUTE_FP, closure_caveat=True)


def nil_rank_exact_C(alpha: Scalar, beta, gamma) -> NilReport:
    """Closed-form nil-rank of C(alpha, beta, gamma), alpha != 0.

    Rank 3 iff beta gamma = -2 alpha, with the explicit third witness
    ``1 - x / gamma - y / beta``; rank 2 (witnesses x, y) otherwise.  The
    criterion is field-independent, so there is no closure caveat.
    """
    field = alpha.field
    beta = field.scalar(beta)
    gamma = field.scalar(gamma)
    if not alpha:
        raise DomainError("the exact nil-rank form needs alpha != 0")
    A = c_family(field, alpha, beta, gamma)
    x = A.basis_element(1)
    y = A.basis_element(2)
    if beta * gamma == -2 * alpha:
        third = A.element([field.one, -gamma.inverse(), -beta.inverse()])
        witnesses = (x, y, third)
        rank = 3
    else:
        witnesses = (x, y)
        rank = 2
    return NilReport(
        rank=rank, witnesses=witnesses, method=METHOD_EXACT_C, closure_caveat=False
    )


def _match_c_params(A: Algebra):
    """Parameters (alpha, beta, gamma) when the tensor is literally a
    C(alpha, beta, gamma) presentation in its given basis, else None."""
    if A.n != 3:
        return None
    cell = A.table[1][2]
    if A == c_family(A.field, cell[0], cell[1], cell[2]):
        return cell[0], cell[1], cell[2]
    return None


def nil_rank(A: Algebra, p: int | None = None) -> NilReport:
    """Dispatching front end used by the command line.

    Prime-field algebras are enumerated directly.  Rational algebras in
    literal C(alpha, beta, gamma) form use the exact criterion; any other
    rational algebra is reduced mod an odd prime (p, or the smallest
    feasible one) and enumerated, with the closure caveat and
    ``reduced_mod`` set.  A given p must be an odd prime, whatever the
    route, and with a prime-field algebra that field's characteristic.
    """
    if p is not None:
        Field.gf(p)  # rejects a p that is not an odd prime
    if A.field.p is not None:
        if p is not None and p != A.field.p:
            raise DomainError(f"algebra over {A.field} cannot be reduced mod {p}")
        return nil_rank_bruteforce(A)
    params = _match_c_params(A)
    if params is not None and params[0]:
        return nil_rank_exact_C(*params)
    if p is None:
        p = 3
        while not (_is_prime(p) and (tensor := _residues(A, p)) is not None):
            p += 2
    elif (tensor := _residues(A, p)) is None:
        raise DomainError(f"structure constants are not reducible mod {p}")
    report = nil_rank_bruteforce(Algebra._of_raw(Field.gf(p), tensor, 1, A.names))
    return NilReport(report.rank, report.witnesses, report.method, report.closure_caveat, p)
