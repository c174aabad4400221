"""Source-level rules for the library package."""

import ast
from pathlib import Path

import krpoly

SOURCE = Path(krpoly.__file__).parent


def test_library_has_no_assert_statements():
    # invariants raise typed KRErrors; python -O strips assert statements
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert sorted(SOURCE.glob("*.py"))
    assert not found, f"assert statements in krpoly: {', '.join(found)}"
