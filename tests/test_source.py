"""Checks on the package source itself."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "trapbose"


def test_no_assert_statements():
    # Invariants are raised as errors: `python -O` strips assert statements.
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"


def test_exports_are_used_by_the_package():
    # Each public name serves the pipeline or --validate: some other module of
    # the package reads it as a name, an attribute or an import.  Oracles
    # that only the tests call live in tests/oracles.py.
    init = SOURCE / "__init__.py"
    exported = {alias.asname or alias.name
                for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in sorted(SOURCE.rglob("*.py")):
        if path == init:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    assert not exported - used, f"exported but unused in the package: {sorted(exported - used)}"
