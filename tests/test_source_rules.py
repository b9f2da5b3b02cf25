"""Every certificate step is decided by the computation it records: no module
of the library records a ``check`` whose outcome is a literal, or an
``expect_equal`` of two literals, since such a step passes whatever the
code computes (ROADMAP aim 3: no ``check(..., True)`` may pass for a check).
And no module of the library, its tests or its scripts imports a name it
never uses.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "isotopelab"
# the package's __init__ imports names only to re-export them
IMPORTING = sorted(
    [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "scripts").glob("*.py"))
)

# the judged arguments of each certificate method, by position and keyword
JUDGED = {"check": ("description", "ok"), "expect_equal": ("description", "expected", "actual")}


def _is_literal(node) -> bool:
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError):
        return False
    return True


def literal_steps(source: str) -> list[tuple[int, str]]:
    """(line, method) of each certificate call in ``source`` whose judged
    arguments are all literals."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        params = JUDGED.get(node.func.attr)
        if params is None:
            continue
        bound = dict(zip(params, node.args))
        bound.update((kw.arg, kw.value) for kw in node.keywords if kw.arg in params)
        judged = [bound.get(name) for name in params[1:]]
        if all(arg is not None and _is_literal(arg) for arg in judged):
            found.append((node.lineno, node.func.attr))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_certificate_step_is_decided_by_a_literal(path):
    assert literal_steps(path.read_text(encoding="utf-8")) == []


def test_literal_steps_finds_each_form():
    source = "\n".join(
        [
            'cert.check("a", True)',
            'cert.check("b", ok=0)',
            'cert.expect_equal("c", 2, 2)',
            'cert.expect_equal("d", (1, 0), actual=(1, 0))',
            'cert.check("e", ok)',
            'cert.check(f"f {x}", x == 1, actual=3)',
            'cert.expect_equal("g", 2, report.rank)',
            'cert.expect_equal("h", field.one, 1)',
        ]
    )
    assert literal_steps(source) == [
        (1, "check"), (2, "check"), (3, "expect_equal"), (4, "expect_equal")
    ]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import statement of ``source`` binds
    that no expression of the module reads; ``__future__`` imports are
    compiler directives, not names."""
    tree = ast.parse(source)
    bound = [
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize(
    "path", IMPORTING, ids=lambda path: f"{path.parent.name}/{path.name}"
)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_finds_each_form():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import os",
            "import os.path",
            "import json as js",
            "from a import b, c as d",
            "from e import (f,",
            "    g)",
            "print(os.sep, f, d)",
        ]
    )
    assert unused_imports(source) == [(4, "js"), (5, "b"), (6, "g")]
