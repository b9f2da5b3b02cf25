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
    MAX_DIM,
    parse_algebra_file,
    parse_algebra_text,
    parse_element_coords,
    parse_matrix_file,
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
        ("field rational\nfield gf 5\ndim 1\n", "line 2: field specified twice"),
        ("field gf x\ndim 1\n", "line 1: bad modulus 'x'"),
        ("field rational\ndim 2\ndim 2\n", "line 3: dim specified twice"),
        ("field rational\ndim x\n", "line 2: expected 'dim <n>'"),
        ("field rational\ndim 0\n", "line 2: dimension must be >= 1"),
        ("field rational\ndim 65\n", "line 2: dimension must be <= 64, got 65"),
        ("field rational\ndim 2_000\n", "line 2: dimension must be <= 64, got 2000"),
        ("field rational\nnames a b\ndim 2\n", "line 2: names line before dim"),
        ("field rational\ndim 2\nc 1 1 1\n", "line 3: expected 'c <i> <j> <k> <value>'"),
        ("field rational\ndim 2\nc 1 x 1 1\n", "line 3: indices must be integers"),
    ],
)
def test_parse_errors_carry_messages(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_algebra_text(text)
    assert fragment in str(err.value)


def test_largest_dim_parses():
    A = parse_algebra_text(f"field gf 5\ndim {MAX_DIM}\nc 64 64 64 1\n")
    assert MAX_DIM == 64 and A.n == 64 and A.table[63][63][63] == A.field.one


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


@pytest.mark.parametrize("field", [QQ, Field.gf(5)])
@pytest.mark.parametrize("token", ["1/0", "0/0", "-2/00"])
def test_zero_denominator_is_named(field, token):
    # Fraction's own message, "Fraction(1, 0)", would leak a Python repr
    with pytest.raises(ParseError) as err:
        parse_algebra_text(f"field {field}\ndim 1\nc 1 1 1 {token}\n")
    assert str(err.value) == f"line 3: bad scalar {token!r} (zero denominator)"
    with pytest.raises(ParseError) as err:
        parse_matrix_text(f"1 0\n0 {token}\n", field)
    assert str(err.value) == f"line 2: bad scalar {token!r} (zero denominator)"


@pytest.mark.parametrize("data,byte,offset", [
    (b"\xff\n", 0xff, 0),
    # a lead byte with no continuation, after two valid lines
    (b"field rational\ndim 1\n\xe9\n", 0xe9, 21),
    # a valid two-byte character, then a stray continuation byte
    (b"# caf\xc3\xa9\n1 \x80\n", 0x80, 10),
])
def test_bytes_that_are_not_utf8_are_a_parse_error(tmp_path, data, byte, offset):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    message = f"not UTF-8: byte 0x{byte:02x} at offset {offset}"
    with pytest.raises(ParseError) as err:
        parse_algebra_file(path)
    assert str(err.value) == message and err.value.line is None
    with pytest.raises(ParseError) as err:
        parse_matrix_file(path, QQ)
    assert str(err.value) == message


def test_files_are_read_as_utf8(tmp_path):
    # a non-ASCII comment and CRLF line ends read as the same text
    path = tmp_path / "j2.alg"
    path.write_bytes(("# algèbre\r\n" + J2_FILE.replace("\n", "\r\n")).encode())
    assert parse_algebra_file(path) == parse_algebra_text(J2_FILE)
    path.write_bytes("1 0 # é\r\n0 1\r\n".encode())
    assert parse_matrix_file(path, QQ) == parse_matrix_text("1 0\n0 1\n", QQ)


def test_parse_element_coords():
    A = j2(QQ)
    el = parse_element_coords("1,-3/2,0", A)
    assert el == A.element((1, QQ.scalar("-3/2"), 0))
    with pytest.raises(ParseError):
        parse_element_coords("1,2", A)
