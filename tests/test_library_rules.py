"""Static rules for the library source."""

import ast
from pathlib import Path

import onebitcs

SOURCES = sorted(Path(onebitcs.__file__).parent.glob("*.py"))


def test_library_has_no_assert():
    # python -O strips assert statements, so library checks must raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
