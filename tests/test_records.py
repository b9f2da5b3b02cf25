"""The library's record types behave as value objects: equality by fields,
a hash consistent with it where the record is frozen, no assignment to a
frozen record, and constructors that take the same positions, keywords and
defaults the call sites use."""

import pytest

from isotopelab import (
    CanonicalizationResult,
    Certificate,
    Field,
    Isotopy,
    Matrix,
    NilReport,
    RMultReport,
    SolveResult,
    Step,
    c_family,
    canonicalize_C,
    j2,
    nil_rank,
    r_mult_report,
    solve,
)
from isotopelab.errors import (
    Char2FieldError,
    DimensionMismatchError,
    DomainError,
    FieldMismatchError,
    SingularMatrixError,
)


def _diag(p, *values):
    return Matrix.diagonal(Field(p), values)


def _isotopy(p, a):
    return Isotopy(_diag(p, 1, a), _diag(p, a, 1), _diag(p, 1, 1))


def _canonical(rho):
    # fresh Scalars and algebras, so equality cannot rest on identity
    field = Field.rationals()
    return canonicalize_C(field.scalar(1), field.scalar(rho), field.scalar(1))


# name -> a builder of a fresh record from a variant number: equal variants
# build equal records from fresh objects, different variants unequal ones
FROZEN = {
    "Field": lambda v: Field((5, 7)[v]),
    "SolveResult": lambda v: solve(Field(5), [[1, 0], [0, 1]], [v, 1]),
    "Isotopy": lambda v: _isotopy(5, (2, 3)[v]),
    "RMultReport": lambda v: r_mult_report(j2(Field(5)).basis_element(v)),
    "NilReport": lambda v: nil_rank(c_family(Field(7), 1, 1, (0, 1)[v])),
    "CanonicalizationResult": lambda v: _canonical((2, 3)[v]),
}
FIRST_FIELD = {
    "Field": "p",
    "SolveResult": "point",
    "Isotopy": "phi",
    "RMultReport": "element",
    "NilReport": "rank",
    "CanonicalizationResult": "certificate",
}
MUTABLE = {
    "Step": lambda v: Step("d", bool(v), "1", "2"),
    "Certificate": lambda v: Certificate(("a", "b")[v]),
}
RECORDS = {**FROZEN, **MUTABLE}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_exactly_when_the_fields_are(name):
    build = RECORDS[name]
    a, b, other = build(0), build(0), build(1)
    # a field is one object per p, so two equal fields are the same object
    assert (a is b) == (name == "Field")
    assert type(a).__name__ == name
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object()


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_refuse_assignment(name):
    record = FROZEN[name](0)
    field = FIRST_FIELD[name]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert FROZEN[name](0) == record


@pytest.mark.parametrize("name", sorted(set(FROZEN) - {"CanonicalizationResult"}))
def test_frozen_records_hash_consistently_with_equality(name):
    build = FROZEN[name]
    assert hash(build(0)) == hash(build(0))
    assert len({build(0), build(0), build(1)}) == 2


def test_unhashable_records():
    # mutable records, and a frozen one holding a mutable Certificate
    for record in (Step("d", True), Certificate("a"), _canonical(2)):
        with pytest.raises(TypeError):
            hash(record)


def test_field_hash_carries_into_algebras_and_matrices():
    assert hash(Field.gf(5)) == hash(Field(5))
    assert hash(Matrix.identity(Field(5), 2)) == hash(Matrix.identity(Field.gf(5), 2))
    assert hash(j2(Field(5))) == hash(j2(Field.gf(5)))
    assert len({j2(Field(5)), j2(Field.gf(5))}) == 1


def test_field_rejects_characteristic_two_and_composites():
    with pytest.raises(Char2FieldError):
        Field(2)
    with pytest.raises(DomainError):
        Field(9)
    assert Field().p is None and Field(p=3).p == 3


def test_mutable_records_take_assignment():
    step = Step("d", True)
    step.check = False
    assert step == Step("d", False)
    cert = Certificate("a")
    cert.title = "b"
    assert cert == Certificate("b")


def test_certificates_do_not_share_default_containers():
    a, b = Certificate("a"), Certificate("b")
    assert a.steps is not b.steps
    assert a.artifacts is not b.artifacts
    a.check("x", True)
    a.artifacts["k"] = 1
    assert b.steps == [] and b.artifacts == {}
    # artifacts count for equality
    c = Certificate("a", list(a.steps))
    assert c != a
    c.artifacts["k"] = 1
    assert c == a


def test_keyword_call_sites_and_defaults():
    step = Step("d", True)
    assert step.expected is None and step.actual is None
    assert Step("d", True, "1", "2") == Step(description="d", check=True, expected="1", actual="2")
    A = j2(Field(5))
    e = A.basis_element(0)
    m = e.right_mult_matrix()
    rep = RMultReport(element=e, matrix=m, determinant=m.det(), invertible=True)
    assert rep == RMultReport(e, m, m.det(), True)
    nil = NilReport(2, (e,), "bruteforce-fp", closure_caveat=True)
    assert nil.reduced_mod is None
    assert nil != NilReport(2, (e,), "bruteforce-fp", True, reduced_mod=5)
    sol = SolveResult(point=(1,), kernel=())
    assert sol == SolveResult((1,), ())
    r = _canonical(2)
    assert r == CanonicalizationResult(
        r.certificate, r.source, r.target, r.kind, r.params, change=r.change
    )


def test_nil_rank_reports_the_reduction_prime():
    # not a literal C-form over QQ, so it is reduced mod 3 and enumerated
    A = c_family(Field.rationals(), 0, 1, 1)
    report = nil_rank(A)
    assert report.reduced_mod == 3
    assert report.closure_caveat is True
    direct = nil_rank(c_family(Field(3), 0, 1, 1))
    assert direct.reduced_mod is None
    assert (report.rank, report.witnesses, report.method) == (
        direct.rank,
        direct.witnesses,
        direct.method,
    )


def test_isotopy_validates_its_maps():
    with pytest.raises(SingularMatrixError):
        Isotopy(_diag(5, 1, 0), _diag(5, 1, 1), _diag(5, 1, 1))
    with pytest.raises(FieldMismatchError):
        Isotopy(_diag(5, 1, 1), _diag(7, 1, 1), _diag(5, 1, 1))
    with pytest.raises(DimensionMismatchError):
        Isotopy(_diag(5, 1, 1), _diag(5, 1, 1, 1), _diag(5, 1, 1))


def test_reprs_name_the_fields():
    assert repr(Field(5)) == "Field(p=5)"
    assert repr(Step("d", True)) == "Step(description='d', check=True, expected=None, actual=None)"
    cert = Certificate("a")
    cert.artifacts["big"] = object()
    assert repr(cert) == "Certificate(title='a', steps=[])"
    assert repr(SolveResult((), ())) == "SolveResult(point=(), kernel=())"
