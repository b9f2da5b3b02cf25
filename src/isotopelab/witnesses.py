"""Certificate pipelines: each builds the construction it certifies step by
step, comparing every intermediate object against its exact expected value.

The names (lemma1 .. theorem2, prop1, prop2) are the library's claim
catalog; the corresponding statements are spelled out in each docstring.
"""

from __future__ import annotations

from .algebras import (
    _IDEAL_MAX_N,
    Algebra,
    _envelope,
    _exact_envelope_dimension,
    _operators,
    associator,
    find_unit,
    ideal_search_exhaustive,
    is_jordan,
    verify_isomorphism,
)
from .catalog import (
    c2,
    c3,
    c_family,
    c_rho,
    canonicalize_C,
    catalog_algebras,
    g_n,
    j2,
    to_canonical_C,
)
from .certificates import Certificate
from .errors import DomainError, NilRank3Error, ParseError, SearchBudgetExceededError
from .fields import QQ, Field
from .isotopes import (
    Isotopy,
    principal_isotope,
    r_mult_report,
    standard_isotope,
    verify_isotopy,
)
from .matrices import Matrix, SpanTracker, _combination
from .nilpotents import nil_rank_exact_C


def witness_lemma1(A: Algebra, sigma, tau) -> Certificate:
    """Scaled isotope claim: A^(s 1, t 1) is isomorphic to A through the
    homothety by (s t)^-1."""
    field = A.field
    s = field.scalar(sigma)
    t = field.scalar(tau)
    if not s or not t:
        raise DomainError(
            f"the scaling factors must be nonzero in {field} (sigma = {sigma}, tau = {tau})"
        )
    cert = Certificate(f"lemma1: homothety isotope (sigma = {s}, tau = {t})")
    ms, mt = Matrix.scalar_matrix(field, A.n, s), Matrix.scalar_matrix(field, A.n, t)
    iso = principal_isotope(A, ms, mt)
    omega = (s * t).inverse()
    cert.expect_equal("omega sigma tau = 1", field.one, omega * s * t)
    cert.check(
        "omega 1 is an isomorphism onto the scaled isotope",
        verify_isomorphism(A, iso, Matrix.scalar_matrix(field, A.n, omega)),
        actual=omega,
    )
    cert.check(
        "(sigma 1, tau 1, 1) is an isotopy from the scaled isotope back",
        verify_isotopy(iso, A, Isotopy.from_isotope(ms, mt)),
    )
    cert.artifacts.update(isotope=iso, omega=omega)
    return cert


def witness_lemma6(field: Field = QQ) -> Certificate:
    """The non-unital rank-2 algebra C2 has a standard isotope by R_a that
    is literally J2 after relabeling (x := a, 1 := b, y := c)."""
    C = c2(field)
    a, b, c = C.basis()
    cert = Certificate("lemma6: the R_a isotope of C2 is J2")
    ra = a.right_mult_matrix()
    cert.expect_equal(
        "R_a in the canonical basis", Matrix(field, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]), ra
    )
    cert.expect_equal("R_a squared is the identity", Matrix.identity(field, 3), ra * ra)
    iso = principal_isotope(C, ra, ra)
    expected = {
        "a*a = 0": ((0, 0), (0, 0, 0)),
        "b*b = b": ((1, 1), (0, 1, 0)),
        "c*c = 0": ((2, 2), (0, 0, 0)),
        "a*b = a": ((0, 1), (1, 0, 0)),
        "b*c = c": ((1, 2), (0, 0, 1)),
        "a*c = b": ((0, 2), (0, 1, 0)),
    }
    for label, ((i, j), vec) in expected.items():
        cert.expect_equal(label, iso.element(vec), iso.element(iso.table[i][j]))
    unit = find_unit(iso)
    cert.expect_equal("the isotope is unital with unit b", iso.element((0, 1, 0)), unit)
    relabeled = iso.relabel((1, 0, 2), names=("1", "x", "y"))
    cert.check(
        "after relabeling the structure tensor equals J2 exactly",
        relabeled == j2(field),
    )
    perm = Matrix(field, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    cert.check(
        "the relabeling permutation is an isomorphism onto J2",
        verify_isomorphism(iso, j2(field), perm),
    )
    cert.artifacts.update(isotope=iso, relabeled=relabeled)
    return cert


def witness_lemma10(field: Field = QQ) -> Certificate:
    """C(1,1,0) and C(1,0,0) = J2 are isotopic but not isomorphic.

    Isotopy: the standard isotope of J2 by R_{1+x}^-1 has unit 1 + 2x and
    canonical C(1,1,0) basis (e, -2x, -(1+y)/2).  Non-isomorphism: J2
    satisfies the degree-4 commutative identity and C(1,1,0) does not,
    witnessed by the associator (xy, x, y) = -x.
    """
    J = j2(field)
    one, x, y = J.basis()
    cert = Certificate("lemma10: C(1,1,0) and C(1,0,0) are isotopic, not isomorphic")
    c = one + x
    rc = c.right_mult_matrix()
    cert.expect_equal(
        "R_{1+x}", Matrix(field, [[1, 1, 0], [0, 1, 0], [1, 0, 1]]), rc
    )
    rci = rc.inverse()
    cert.expect_equal(
        "R_{1+x}^-1", Matrix(field, [[1, -1, 0], [0, 1, 0], [-1, 1, 1]]), rci
    )
    iso = standard_isotope(J, rci)
    e = c * c
    cert.expect_equal("e = c^2 = 1 + 2x", J.element((1, 2, 0)), e)
    ei = iso.element(e.coords)
    cert.expect_equal("the isotope unit is e", ei, find_unit(iso))
    cert.expect_equal("e maps back to c under R_{1+x}^-1", c, e.apply(rci))
    cert.expect_equal("x is fixed by R_{1+x}^-1", x, x.apply(rci))
    cert.expect_equal("1 + y maps to y under R_{1+x}^-1", y, (one + y).apply(rci))
    ap = iso.element((-2 * x).coords)
    bp = iso.element((field.scalar("-1/2") * (one + y)).coords)
    cert.check("a' = -2x squares to zero in the isotope", (ap * ap).is_zero)
    cert.check("b' = -(1+y)/2 squares to zero in the isotope", (bp * bp).is_zero)
    cert.expect_equal("a' * b' = e + a'", ei + ap, ap * bp)
    alpha, beta, gamma, change = to_canonical_C(ei, ap, bp)
    cert.expect_equal(
        "(e, a', b') reads off the parameters (1, 1, 0)",
        (field.one, field.one, field.zero),
        (alpha, beta, gamma),
    )
    c110 = c_family(field, 1, 1, 0)
    cert.check(
        "(e, a', b') is a canonical C(1,1,0) basis of the isotope",
        verify_isomorphism(c110, iso, change),
    )
    chain = Isotopy.into_isotope(rci, rci).then(Isotopy.isomorphism(change.inverse()))
    cert.check(
        "composed chain is an isotopy from J2 to C(1,1,0)",
        verify_isotopy(J, c110, chain),
    )
    c100 = c_family(field, 1, 0, 0)
    cert.check("C(1,0,0) equals J2 as a tensor", c100 == J)
    cert.check("C(1,0,0) satisfies the Jordan identity", is_jordan(c100))
    cert.check("C(1,1,0) violates the Jordan identity", not is_jordan(c110))
    xx, yy = c110.basis_element(1), c110.basis_element(2)
    cert.expect_equal(
        "in C(1,1,0) the associator (xy, x, y) equals -x",
        -xx,
        associator(xx * yy, xx, yy),
    )
    cert.artifacts.update(isotopy=chain, isotope=iso, c=c, target=c110)
    return cert


def witness_lemma11(rho, field: Field = QQ) -> Certificate:
    """For rho outside {0, -2}, C(rho) is isotopic to J2: with
    gamma = rho / (2 rho + 4) and c = 1 + gamma x + y, the standard isotope
    of J2 by R_c^-1 is isomorphic to C(4 gamma delta) = C(rho), where
    delta = (1 - 2 gamma)^-1."""
    r = field.scalar(rho)
    if r == 0 or r == -2:
        raise DomainError(f"rho = {r} is excluded (simplicity and nil-rank constraints)")
    cert = Certificate(f"lemma11: C({r}) is isotopic to J2")
    gamma = r / (2 * r + 4)
    delta = (1 - 2 * gamma).inverse()
    cert.check("gamma = rho / (2 rho + 4)", gamma * (2 * r + 4) == r, actual=gamma)
    cert.check(
        "gamma avoids 0 and 1/2",
        bool(gamma) and gamma != field.scalar("1/2"),
        actual=gamma,
    )
    J = j2(field)
    one, x, y = J.basis()
    c = one + gamma * x + y
    rc = c.right_mult_matrix()
    cert.expect_equal(
        "R_c for c = 1 + gamma x + y",
        Matrix(field, [[1, gamma, 1], [1, 1, 0], [gamma, 0, 1]]),
        rc,
    )
    cert.expect_equal("det R_c = 1 - 2 gamma", 1 - 2 * gamma, rc.det())
    phi = rc.inverse()
    g2 = gamma * gamma
    cert.expect_equal(
        "R_c^-1 = delta [[1, -g, -1], [-1, 1-g, 1], [-g, g^2, 1-g]]",
        Matrix(
            field,
            [
                [delta, -gamma * delta, -delta],
                [-delta, (1 - gamma) * delta, delta],
                [-gamma * delta, g2 * delta, (1 - gamma) * delta],
            ],
        ),
        phi,
    )
    iso = standard_isotope(J, phi)
    e = c * c
    cert.expect_equal(
        "e = c^2 = (1 + 2 gamma) 1 + 2 gamma x + 2 y",
        J.element((1 + 2 * gamma, 2 * gamma, 2)),
        e,
    )
    ei = iso.element(e.coords)
    cert.expect_equal("the isotope unit is e", ei, find_unit(iso))
    xp = x * c
    yp = y * c
    cert.expect_equal("x' = xc = 1 + x", J.element((1, 1, 0)), xp)
    cert.expect_equal("y' = yc = gamma 1 + y", J.element((gamma, 0, 1)), yp)
    cert.expect_equal("x' maps back to x", x, xp.apply(phi))
    cert.expect_equal("y' maps back to y", y, yp.apply(phi))
    xpi, ypi = iso.element(xp.coords), iso.element(yp.coords)
    cert.check("x' squares to zero in the isotope", (xpi * xpi).is_zero)
    cert.check("y' squares to zero in the isotope", (ypi * ypi).is_zero)
    cert.expect_equal(
        "x' * y' = delta (e - 2 gamma x' - 2 y')",
        delta * (ei - (2 * gamma) * xpi - 2 * ypi),
        xpi * ypi,
    )
    alpha1, beta1, gamma1, change = to_canonical_C(ei, xpi, ypi)
    cert.expect_equal(
        "the isotope is C(delta, -2 gamma delta, -2 delta)",
        (delta, -2 * gamma * delta, -2 * delta),
        (alpha1, beta1, gamma1),
    )
    canon = canonicalize_C(alpha1, beta1, gamma1)
    cert.merge(canon.certificate, prefix="canonical form")
    cert.check("the normal form is the symmetric family", canon.kind == "Crho")
    cert.expect_equal("4 gamma delta = rho exactly", r, canon.params[0])
    chain = (
        Isotopy.into_isotope(phi, phi)
        .then(Isotopy.isomorphism(change.inverse()))
        .then(Isotopy.isomorphism(canon.change.inverse()))
    )
    target = c_rho(field, r)
    cert.check(
        "composed chain is an isotopy from J2 to C(rho)",
        verify_isotopy(J, target, chain),
    )
    cert.artifacts.update(
        isotopy=chain, isotope=iso, c=c, gamma=gamma, delta=delta, rho=r, target=target
    )
    return cert


def witness_theorem1(alpha, beta, gamma, field: Field = QQ) -> Certificate:
    """Every simple unital commutative 3-dimensional algebra of nil-rank 2,
    presented as C(alpha, beta, gamma), is isotopic to J2.

    The normal form from :func:`canonicalize_C` picks the route: C(rho)
    through lemma11, C(1,1,0) through lemma10, and C(1,0,0), reached from
    every beta = gamma = 0 source without a square root, is J2 itself.

    Preconditions surfaced as errors: alpha != 0 (simplicity) and
    beta gamma != -2 alpha (nil-rank 2).
    """
    a = field.scalar(alpha)
    b = field.scalar(beta)
    g = field.scalar(gamma)
    canon = canonicalize_C(a, b, g)  # a NonSimpleError for alpha = 0
    report = nil_rank_exact_C(a, b, g)
    if report.rank == 3:
        raise NilRank3Error("beta gamma = -2 alpha: the algebra has nil-rank 3")
    cert = Certificate(f"theorem1: C({a}, {b}, {g}) is isotopic to J2")
    J = j2(field)
    cert.expect_equal("exact nil-rank is 2", 2, report.rank)
    cert.merge(canon.certificate, prefix="canonical form")
    to_target = Isotopy.isomorphism(canon.change.inverse())
    if canon.kind == "Crho":
        sub = witness_lemma11(canon.params[0], field=field)
        cert.merge(sub, prefix="lemma11")
        chain = to_target.then(sub.artifacts["isotopy"].inverse())
    elif canon.kind == "C(1,1,0)":
        sub = witness_lemma10(field=field)
        cert.merge(sub, prefix="lemma10")
        chain = to_target.then(sub.artifacts["isotopy"].inverse())
    else:
        cert.check("the normal form C(1,0,0) equals J2 as a tensor", canon.target == J)
        chain = to_target
    cert.check(
        "composed chain is an isotopy from the source to J2",
        verify_isotopy(canon.source, J, chain),
    )
    cert.artifacts.update(isotopy=chain, source=canon.source)
    return cert


def witness_theorem2(field: Field = QQ) -> Certificate:
    """The cyclic nil-basis algebra C3 has a standard isotope isomorphic to
    C(-2): with c = x + y + z, the isotope by R_c^-1 has unit e = c^2 = 2c
    and canonical basis (e, -2(y+z), -2(z+x))."""
    C = c3(field)
    x, y, z = C.basis()
    cert = Certificate("theorem2: the R_c^-1 isotope of C3 is C(-2)")
    c = x + y + z
    e = c * c
    cert.expect_equal("e = c^2 = 2c", 2 * c, e)
    cert.expect_equal("e has coordinates (2, 2, 2)", C.element((2, 2, 2)), e)
    rc = c.right_mult_matrix()
    cert.expect_equal(
        "R_c is the all-ones matrix minus the identity",
        Matrix(field, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
        rc,
    )
    phi = rc.inverse()
    half = field.scalar("1/2")
    cert.expect_equal(
        "R_c^-1 = 1/2 [[-1, 1, 1], [1, -1, 1], [1, 1, -1]]",
        Matrix(field, [[-half, half, half], [half, -half, half], [half, half, -half]]),
        phi,
    )
    cert.expect_equal("(x + y) maps to z", z, (x + y).apply(phi))
    cert.expect_equal("(y + z) maps to x", x, (y + z).apply(phi))
    cert.expect_equal("(z + x) maps to y", y, (z + x).apply(phi))
    iso = standard_isotope(C, phi)
    ei = iso.element(e.coords)
    cert.expect_equal("the isotope unit is e", ei, find_unit(iso))
    a = iso.element((-2 * (y + z)).coords)
    b = iso.element((-2 * (z + x)).coords)
    cert.check("a = -2(y+z) squares to zero in the isotope", (a * a).is_zero)
    cert.check("b = -2(z+x) squares to zero in the isotope", (b * b).is_zero)
    cert.expect_equal("e + a + b = -2z", iso.element((-2 * z).coords), ei + a + b)
    cert.expect_equal("a * b = -2 (e + a + b)", -2 * (ei + a + b), a * b)
    alpha, beta, gamma, change = to_canonical_C(ei, a, b)
    cert.expect_equal(
        "(e, a, b) reads off the parameters (-2, -2, -2)",
        (field.scalar(-2), field.scalar(-2), field.scalar(-2)),
        (alpha, beta, gamma),
    )
    target = c_rho(field, -2)
    cert.check(
        "(e, a, b) is a canonical C(-2) basis of the isotope",
        verify_isomorphism(target, iso, change),
    )
    chain = Isotopy.into_isotope(phi, phi).then(Isotopy.isomorphism(change.inverse()))
    cert.check(
        "composed chain is an isotopy from C3 to C(-2)",
        verify_isotopy(C, target, chain),
    )
    cert.artifacts.update(isotopy=chain, isotope=iso, c=c, target=target)
    return cert


# prop1 and prop2 run G_n for 2 <= n <= _G_N_MAX; g_n refuses a non-int n
_G_N_MAX = 8


def witness_prop1(n: int, field: Field = QQ) -> Certificate:
    """The (n+1)-dimensional algebra with an n-dimensional
    zero-multiplication subalgebra is simple: its multiplication envelope is
    the full matrix algebra."""
    if isinstance(n, int) and not 2 <= n <= _G_N_MAX:
        raise SearchBudgetExceededError(f"feasible range is 2 <= n <= {_G_N_MAX}")
    G = g_n(field, n)
    cert = Certificate(f"prop1: G_{n} is simple")
    dim, prime = _envelope(G)
    how = ""
    if prime is not None:
        how = f", decided mod P = {prime} (dim over F_P <= dim over QQ <= (n+1)^2)"
    cert.expect_equal(
        "multiplication envelope has full dimension (n+1)^2" + how, (n + 1) ** 2, dim
    )
    # a full envelope forces a nonzero product, so this is the whole criterion
    cert.check("simplicity over the closure (envelope criterion)", dim == (n + 1) ** 2)
    if n + 1 <= _IDEAL_MAX_N:  # G_n has dimension n + 1
        ideals = ideal_search_exhaustive(g_n(Field.gf(3), n))
        cert.expect_equal("exhaustive ideal search over gf 3 finds nothing", 0, len(ideals))
    cert.artifacts.update(algebra=G, envelope_dim=dim)
    return cert


def witness_prop2(n: int, field: Field = QQ) -> Certificate:
    """No strongly degenerate commutative algebra is isotopically simple:
    the standard isotope of G_n by R_e^-1 is unital with unit e^2 and
    contains the n-dimensional zero-multiplication ideal spanned by the
    x_i R_e."""
    if isinstance(n, int) and not 2 <= n <= _G_N_MAX:
        raise SearchBudgetExceededError(f"feasible range is 2 <= n <= {_G_N_MAX}")
    G = g_n(field, n)
    cert = Certificate(f"prop2: the R_e^-1 isotope of G_{n} is not simple")
    t = G.basis_element(n)
    rep = r_mult_report(t)
    cert.check("R_e is invertible", rep.invertible, actual=rep.determinant)
    phi = rep.matrix.inverse()
    iso = standard_isotope(G, phi)
    u = iso.element((t * t).coords)
    cert.expect_equal("the isotope unit is t^2 = e", u, find_unit(iso))
    zs = [iso.element(G.basis_element(i).apply(rep.matrix).coords) for i in range(n)]
    cert.check(
        "z_i * z_j = 0 for all i, j",
        all((zi * zj).is_zero for zi in zs for zj in zs),
    )
    span = SpanTracker(field)
    for zi in zs:
        span.add(zi.coords)
    cert.expect_equal("Z = span(z_1 .. z_n) has dimension n", n, span.dim)
    cert.check("the unit lies outside Z", not span.contains(u.coords))
    # z e_b = z R_{e_b} and e_b z = z L_{e_b} on raw rows, as the ideal scan tests
    absorbed = all(span.contains(_combination(z, op, 0))
                   for _, op in _operators(iso._tensor) for z in span.rows)
    cert.check("Z absorbs multiplication by every basis element", absorbed)
    # Z is a proper nonzero ideal, so the envelope is not full and a pass mod
    # ENVELOPE_PRIME, which can only prove fullness, would decide nothing
    dim = _exact_envelope_dimension(iso)
    cert.check("the isotope fails the simplicity criterion", dim != (n + 1) ** 2)
    cert.artifacts.update(isotope=iso, ideal_basis=tuple(zs))
    return cert


def _lemma1_catalog(sigma, tau, field: Field = QQ) -> Certificate:
    """lemma1 on every catalog algebra, one merged block per algebra."""
    cert = Certificate(f"lemma1 across the catalog (sigma = {sigma}, tau = {tau})")
    for label, A in catalog_algebras(field).items():
        cert.merge(witness_lemma1(A, sigma, tau), prefix=label)
    return cert


class _Required(str):
    """Stands in for the default of an option its pipeline cannot run
    without; the text spells the value in the error message."""


# Each pipeline by name: the function that runs it, called with the field and
# every option by keyword, and the default of each option it takes.  Each is
# a lambda so that a run looks up the module attribute a tracer may wrap.
PIPELINES = {
    "lemma1": (lambda **kw: _lemma1_catalog(**kw), {"sigma": 2, "tau": 3}),
    "lemma6": (lambda **kw: witness_lemma6(**kw), {}),
    "lemma10": (lambda **kw: witness_lemma10(**kw), {}),
    "lemma11": (lambda **kw: witness_lemma11(**kw), {"rho": _Required()}),
    "theorem1": (lambda abg, **kw: witness_theorem1(*abg, **kw),
                 {"abg": _Required("alpha,beta,gamma")}),
    "theorem2": (lambda **kw: witness_theorem2(**kw), {}),
    "prop1": (lambda **kw: witness_prop1(**kw), {"n": 2}),
    "prop2": (lambda **kw: witness_prop2(**kw), {"n": 2}),
}

WITNESS_NAMES = tuple(PIPELINES)


def _needs(name: str, option: str) -> DomainError:
    return DomainError(f"{name} needs --{option} {PIPELINES[name][1][option]}".rstrip())


def _reduce(field: Field, option: str, value):
    """A given scalar option, a number or its text, as an element of the
    field: text, stripped of surrounding whitespace, outside
    :meth:`Field.scalar`'s syntax (read over QQ) is a ParseError, and a
    denominator that vanishes mod p is a DomainError, not a
    ZeroDivisionError mid-run."""
    if isinstance(value, str):
        value = value.strip()
        try:
            value = QQ.scalar(value).value
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad --{option} value {value!r}") from None
    try:
        return field.scalar(value)
    except ZeroDivisionError:
        raise DomainError(f"--{option} {value} is not an element of {field}") from None


def run_witness(name: str, field: Field = QQ, **options) -> Certificate:
    """Run a witness pipeline by name (used by the command line).  An option
    given as None counts as not given; an option the pipeline does not take
    is a DomainError, not ignored.  Given scalar options, numbers or their
    text, are reduced into the field first (:func:`_reduce`)."""
    if name not in PIPELINES:
        raise DomainError(f"unknown witness {name!r}; choose from {', '.join(WITNESS_NAMES)}")
    pipeline, defaults = PIPELINES[name]
    given = {k: v for k, v in options.items() if v is not None}
    ignored = sorted(set(given) - set(defaults))
    if ignored:
        raise DomainError(f"{name} does not take " + ", ".join(f"--{k}" for k in ignored))
    kwargs = {**defaults, **given}
    for option, value in kwargs.items():
        if isinstance(value, _Required):
            raise _needs(name, option)
    for option, value in given.items():
        if option == "abg":
            kwargs[option] = tuple(_reduce(field, option, v) for v in value)
            if len(kwargs[option]) != 3:
                raise _needs(name, option)
        elif option in ("rho", "sigma", "tau"):
            kwargs[option] = _reduce(field, option, value)
    return pipeline(field=field, **kwargs)
