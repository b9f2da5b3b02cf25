import pathlib

import pytest

from isotopelab import (
    Char2FieldError,
    DuplicateEntryError,
    Field,
    ParseError,
    c2,
    c3,
    c_family,
    c_rho,
    g_n,
    j2,
)
from isotopelab.algfile import (
    parse_algebra_text,
    parse_element_coords,
    parse_matrix_text,
    serialize_algebra,
    serialize_matrix,
)

QQ = Field.rationals()

J2_FILE = """
# the symplectic form algebra
field rational
dim 3
names 1 x y
c 1 1 1 1
c 1 2 2 1
c 2 1 2 1
c 1 3 3 1
c 3 1 3 1
c 2 3 1 1
c 3 2 1 1
"""


def test_parse_j2_file():
    A = parse_algebra_text(J2_FILE)
    assert A == j2(QQ)
    assert A.names == ("1", "x", "y")


def test_char2_field_rejected():
    with pytest.raises(Char2FieldError):
        parse_algebra_text("field gf 2\ndim 1\n")


def test_fraction_reduces_mod_p():
    A = parse_algebra_text("field gf 5\ndim 1\nc 1 1 1 1/2\n")
    assert A.table[0][0][0].value == 3


def test_duplicate_entry_rejected():
    text = "field rational\ndim 2\nc 1 1 1 1\nc 1 1 1 2\n"
    with pytest.raises(DuplicateEntryError) as err:
        parse_algebra_text(text)
    assert err.value.line == 4


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("dim 2\nc 1 1 1 1\n", "before field"),
        ("field rational\nc 1 1 1 1\n", "before field and dim"),
        ("field rational\ndim 2\nc 1 1 3 1\n", "out of range"),
        ("field rational\ndim 2\nc 1 1 1 x\n", "bad scalar"),
        ("field rational\ndim 2\nbogus 1\n", "unknown directive"),
        ("field rational\ndim 2\nnames a\n", "expected 2 names"),
        ("field rational\ndim 2\nnames a b\nnames c d\n", "names specified twice"),
        ("field rational\ndim 2 3\n", "expected 'dim <n>'"),
        ("field rational\ndim\n", "expected 'dim <n>'"),
        ("field hyperreal\ndim 1\n", "expected 'field rational'"),
        ("field rational\n", "missing dim"),
        ("", "missing field"),
    ],
)
def test_parse_errors_carry_messages(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_algebra_text(text)
    assert fragment in str(err.value)


def test_parse_error_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_algebra_text("field rational\ndim 2\n\n# fine\nc 9 1 1 1\n")
    assert err.value.line == 5


@pytest.mark.parametrize(
    "algebra",
    [
        j2(QQ),
        c2(QQ),
        c3(QQ),
        c_rho(QQ, -2),
        c_family(QQ, 2, 1, 4),
        g_n(QQ, 3),
        j2(Field.gf(5)),
        c_family(Field.gf(7), 3, 0, 2),
    ],
)
def test_serialize_parse_round_trip(algebra):
    assert parse_algebra_text(serialize_algebra(algebra)) == algebra


def test_shipped_files_match_catalog():
    root = pathlib.Path(__file__).resolve().parent.parent / "algebras"
    expected = {
        "j2.alg": j2(QQ),
        "c2.alg": c2(QQ),
        "c3.alg": c3(QQ),
        "c_minus2.alg": c_rho(QQ, -2),
        "c110.alg": c_family(QQ, 1, 1, 0),
        "g2.alg": g_n(QQ, 2),
        "g3.alg": g_n(QQ, 3),
    }
    for name, algebra in expected.items():
        assert parse_algebra_text((root / name).read_text()) == algebra


def test_matrix_round_trip():
    m = j2(QQ).basis_element(1).right_mult_matrix()
    assert parse_matrix_text(serialize_matrix(m), QQ) == m


def test_matrix_parse_checks_shape():
    with pytest.raises(ParseError):
        parse_matrix_text("1 2\n3\n", QQ)
    with pytest.raises(ParseError):
        parse_matrix_text("# nothing\n", QQ)


def test_parse_element_coords():
    A = j2(QQ)
    el = parse_element_coords("1,-3/2,0", A)
    assert el == A.element((1, QQ.scalar("-3/2"), 0))
    with pytest.raises(ParseError):
        parse_element_coords("1,2", A)
