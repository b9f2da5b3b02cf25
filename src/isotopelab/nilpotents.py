"""Index-2 nil elements and nil-rank: the dimension of the span of the set
of nonzero elements squaring to zero.

Two routes are provided.  The exact route covers the C(alpha, beta, gamma)
family, where eliminating the quadratic system for a nil element
``l 1 + s x + t y`` gives a closed criterion: a nil element with l != 0
exists iff beta gamma = -2 alpha (alpha != 0), with witness
``1 - x / gamma - y / beta``.  The brute-force route enumerates a prime
field; it carries a closure caveat because rational or prime-field points
can miss nil elements that only appear over the algebraic closure.  Since
(c v)^2 = c^2 v^2, it tests one vector per line through the origin (the one
whose leading nonzero coordinate is 1).  That vector is y + t e_last with
y_last = 0, and its square y^2 + t (y e_last + e_last y) + t^2 e_last^2 is
a quadratic in t: one contraction and one combination per y decide p
points.  The rank pass reduces only the leading-1 points as raw residues
mod p, which gives the same greedy witnesses, since a multiple c v is in a
span iff v is and v comes first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .algebras import Algebra, Element, _contract, _residues
from .catalog import c_family
from .errors import DomainError, SearchBudgetExceededError
from .fields import Scalar, _is_prime
from .matrices import _combination, _insert

BRUTE_FORCE_BUDGET = 10**6

METHOD_EXACT_C = "exact-cfamily"
METHOD_BRUTE_FP = "bruteforce-fp"


@dataclass(frozen=True)
class NilReport:
    """Nil-rank with independent witnesses, each squaring to zero.

    ``closure_caveat`` is True when the result came from enumerating a
    field that is not algebraically closed.  ``reduced_mod`` is the prime p
    when a rational algebra was reduced mod p first; the witnesses then
    live in gf p.
    """

    rank: int
    witnesses: tuple[Element, ...]
    method: str
    closure_caveat: bool
    reduced_mod: int | None = None


def is_nil_index2(a: Element) -> bool:
    """Nonzero with zero square."""
    return not a.is_zero and a.square().is_zero


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
    n = A.n
    last = n - 1
    tensor = _residues(A, p)
    # x = y + t e_last with y_last = 0 squares to
    # y^2 + t (y e_last + e_last y) + t^2 e_last^2: one contraction per p points
    cross = [[u + v for u, v in zip(tensor[i][last], tensor[last][i])] for i in range(n)]
    quad = tensor[last][last]
    out = []
    # a line is nil iff its point with leading coordinate 1 is; lexicographic
    # order lists the points with more leading zeros first
    for lead in reversed(range(n)):
        head = (0,) * lead + (1,)
        if lead == last:
            lines = [] if any(quad) else [head]
        else:
            lines = []
            for mid in itertools.product(range(p), repeat=last - lead - 1):
                y = head + mid + (0,)
                terms = list(zip(_contract(tensor, y, y, 0), _combination(y, cross, 0), quad))
                for t in range(p):
                    for a, b, c in terms:
                        if (a + t * (b + t * c)) % p:
                            break
                    else:
                        lines.append(head + mid + (t,))
        block = [tuple(c * v % p for v in vec) for vec in lines for c in range(1, p)]
        block.sort()
        out.extend(block)
    scalars = [Scalar(A.field, r) for r in range(p)]
    return [Element._of_scalars(A, tuple([scalars[v] for v in vec])) for vec in out]


def nil_rank_bruteforce(A: Algebra) -> NilReport:
    """Rank of the span of the brute-force nil set, with witnesses extracted
    greedily in scan order.  Only the points whose leading nonzero
    coordinate is 1 are reduced: a multiple c v is in the span iff v is, and
    v comes first, so the witnesses are the same."""
    nils = nil_set_bruteforce(A)
    p, n = A.field.p, A.n
    rows, pivots, witnesses = [], [], []
    for el in nils:
        vec = [c.value for c in el.coords]
        if next(filter(None, vec)) != 1:
            continue
        if _insert(vec, rows, pivots, p) is not None:
            witnesses.append(el)
            if len(witnesses) == n:
                break
    return NilReport(
        rank=len(witnesses),
        witnesses=tuple(witnesses),
        method=METHOD_BRUTE_FP,
        closure_caveat=True,
    )


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
    ``reduced_mod`` set.  A prime p given with a prime-field algebra must
    be that field's characteristic.
    """
    if A.field.p is not None:
        if p is not None and p != A.field.p:
            raise DomainError(f"algebra over {A.field} cannot be reduced mod {p}")
        return nil_rank_bruteforce(A)
    params = _match_c_params(A)
    if params is not None and params[0]:
        return nil_rank_exact_C(*params)
    if p is None:
        p = 3
        while not _reducible(A, p):
            p += 2
    elif not _reducible(A, p):
        raise DomainError(f"structure constants are not reducible mod {p}")
    return replace(nil_rank_bruteforce(A.reduce_mod(p)), reduced_mod=p)


def _reducible(A: Algebra, p: int) -> bool:
    return p != 2 and _is_prime(p) and _residues(A, p) is not None
