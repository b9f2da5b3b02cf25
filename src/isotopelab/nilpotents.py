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
(k = n - 2, y_k = y_last = 0), stepping s by forward differences and
taking t from the roots of a quadratic mod p (see ``_nil_lines``).  The
rank pass tests only these points, against the annihilator of the span so
far: a multiple c v is in a span iff v is, and v comes first.
"""

from __future__ import annotations

import itertools
from operator import add, mul

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


def _roots(sq, lin, quad, p, root):
    """The t in 0..p-1, ascending, with sq + t lin + t^2 quad = 0 mod p in
    every coordinate; ``root`` maps each square residue to a square root."""
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
    coordinate is a 1 at ``lead``, in lexicographic order.  The point
    y + s e_k + t e_last squares to S + t B + t^2 e_last^2, S = (y + s e_k)^2
    and B = (y + s e_k) e_last + e_last (y + s e_k).  One contraction and one
    combination per y give S, B and D = S(1) - S(0); each further s costs
    three vector additions, and t runs over the roots of the first
    coordinate's quadratic that is not identically 0, checked on all."""
    n = len(tensor)
    last, k = n - 1, n - 2
    quad = tensor[last][last]
    yield [] if any(quad) else [(0,) * last + (1,)]
    if n == 1:
        return
    root = {r * r % p: r for r in range(p)}
    # row i: e_i e_k + e_k e_i, then e_i e_last + e_last e_i
    cross = [[u + v for u, v in zip(tensor[i][k] + tensor[i][last], tensor[k][i] + tensor[last][i])]
             for i in range(n)]
    sq_k, step_b, step_d = tensor[k][k], cross[k][n:], [2 * c for c in tensor[k][k]]
    yield [(0,) * k + (1, t) for t in _roots(sq_k, step_b, quad, p, root)]
    for lead in reversed(range(k)):
        lines = []
        for outer in itertools.product(range(p), repeat=k - lead - 1):
            prefix = (0,) * lead + (1,) + outer
            y = prefix + (0, 0)
            sq = _contract(tensor, y, y, 0)
            lin = _combination(y, cross, 0)
            diff, lin = list(map(add, lin, sq_k)), lin[n:]
            for s in range(p):
                lines.extend(prefix + (s, t) for t in _roots(sq, lin, quad, p, root))
                sq = list(map(add, sq, diff))  # S += D
                diff = list(map(add, diff, step_d))  # D += 2 e_k^2
                lin = list(map(add, lin, step_b))  # B += e_k e_last + e_last e_k
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
    for lines in _nil_lines(_residues(A, p), p):
        if not lines:
            continue
        # built at the first nil line, whose multiples hold every nonzero residue
        scalar = scalar or [Scalar(A.field, r) for r in range(p)].__getitem__
        cols = list(zip(*lines))  # columnwise: a few long loops, not many short ones
        for c in range(1, p):
            group = sorted(zip(*[[c * v % p for v in col] for col in cols]))
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
    witnesses = []
    for el in nil_set_bruteforce(A):
        for s in el.coords:
            if s.value:
                break
        if s.value != 1:
            continue
        vec = [s.value for s in el.coords]
        dots = [sum(map(mul, h, vec)) % p for h in ann]
        i = next((i for i, d in enumerate(dots) if d), None)
        if i is not None:
            witnesses.append(el)
            # clear h . vec from the other rows with row i: the new span's basis
            h0, inv = ann.pop(i), pow(dots.pop(i), -1, p)
            ann = [[(u - d * inv * v) % p for u, v in zip(h, h0)] for h, d in zip(ann, dots)]
            if not ann:
                break
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
    report = nil_rank_bruteforce(Algebra(Field.gf(p), tensor, names=A.names))
    return NilReport(report.rank, report.witnesses, report.method, report.closure_caveat, p)
