"""Line-oriented file format for algebras and matrices.

Algebra grammar (``#`` starts a comment, blank lines ignored)::

    field rational          | field gf <p>
    dim <n>                 # 1 <= n <= MAX_DIM
    names <id> ... <id>     # optional, n labels
    c <i> <j> <k> <value>   # 1-based indices, value int or num/den
                            # (no decimal or exponent form)

Unspecified tensor entries are zero; duplicate (i, j, k) lines are an
error.  Matrix files are n lines of n scalar tokens in the same syntax,
interpreted over a caller-supplied field.
"""

from __future__ import annotations

from .algebras import Algebra
from .errors import DuplicateEntryError, ParseError
from .fields import Field
from .matrices import Matrix

# the largest dim a file may declare: parsing builds the dense n^3 tensor
MAX_DIM = 64


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def _parse_value(token: str, field: Field, lineno: int | None = None):
    try:
        return field.scalar(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {token!r} ({exc})", lineno) from None


def parse_algebra_text(text: str) -> Algebra:
    field: Field | None = None
    dim: int | None = None
    names: tuple[str, ...] | None = None
    entries: dict[tuple[int, int, int], object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "field":
            if field is not None:
                raise ParseError("field specified twice", lineno)
            if tokens[1:] == ["rational"]:
                field = Field.rationals()
            elif len(tokens) == 3 and tokens[1] == "gf":
                try:
                    p = int(tokens[2])
                except ValueError:
                    raise ParseError(f"bad modulus {tokens[2]!r}", lineno) from None
                field = Field.gf(p)
            else:
                raise ParseError("expected 'field rational' or 'field gf <p>'", lineno)
        elif head == "dim":
            if dim is not None:
                raise ParseError("dim specified twice", lineno)
            if len(tokens) != 2:
                raise ParseError("expected 'dim <n>'", lineno)
            try:
                dim = int(tokens[1])
            except ValueError:
                raise ParseError("expected 'dim <n>'", lineno) from None
            if dim < 1:
                raise ParseError("dimension must be >= 1", lineno)
            if dim > MAX_DIM:
                raise ParseError(f"dimension must be <= {MAX_DIM}, got {dim}", lineno)
        elif head == "names":
            if names is not None:
                raise ParseError("names specified twice", lineno)
            if dim is None:
                raise ParseError("names line before dim", lineno)
            if len(tokens) - 1 != dim:
                raise ParseError(f"expected {dim} names, got {len(tokens) - 1}", lineno)
            names = tuple(tokens[1:])
        elif head == "c":
            if field is None or dim is None:
                raise ParseError("c line before field and dim", lineno)
            if len(tokens) != 5:
                raise ParseError("expected 'c <i> <j> <k> <value>'", lineno)
            try:
                i, j, k = (int(t) for t in tokens[1:4])
            except ValueError:
                raise ParseError("indices must be integers", lineno) from None
            if not all(1 <= t <= dim for t in (i, j, k)):
                raise ParseError(f"indices out of range 1..{dim}", lineno)
            key = (i - 1, j - 1, k - 1)
            if key in entries:
                raise DuplicateEntryError(f"entry c {i} {j} {k} specified twice", lineno)
            entries[key] = _parse_value(tokens[4], field, lineno)
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)
    if field is None:
        raise ParseError("missing field line")
    if dim is None:
        raise ParseError("missing dim line")
    zero = field.zero
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), value in entries.items():
        table[i][j][k] = value
    return Algebra(field, table, names=names)


def _read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 are a ParseError naming
    the first bad byte and its offset in the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start}") from None


def parse_algebra_file(path) -> Algebra:
    return parse_algebra_text(_read_text(path))


def serialize_algebra(A: Algebra, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"field {A.field}")
    lines.append(f"dim {A.n}")
    if A.names is not None:
        lines.append("names " + " ".join(A.names))
    for i, j, k, value in A.nonzero_entries():
        lines.append(f"c {i + 1} {j + 1} {k + 1} {value}")
    return "\n".join(lines) + "\n"


def write_algebra_file(path, A: Algebra, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_algebra(A, comment))


def parse_matrix_text(text: str, field: Field) -> Matrix:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        rows.append([_parse_value(t, field, lineno) for t in line.split()])
    if not rows:
        raise ParseError("empty matrix file")
    if any(len(r) != len(rows) for r in rows):
        raise ParseError(f"expected a square matrix, got rows of sizes {[len(r) for r in rows]}")
    return Matrix(field, rows)


def parse_matrix_file(path, field: Field) -> Matrix:
    return parse_matrix_text(_read_text(path), field)


def serialize_matrix(m: Matrix) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in m.rows) + "\n"


def parse_element_coords(text: str, A: Algebra):
    """Comma-separated coordinates like ``1,-3/2,0`` as an element of A."""
    tokens = [t.strip() for t in text.split(",")]
    if len(tokens) != A.n:
        raise ParseError(f"expected {A.n} coordinates, got {len(tokens)}")
    return A.element([_parse_value(t, A.field) for t in tokens])
