"""The brute-force references stay apart from gsets and are defined once."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REFERENCES = TESTS / "references.py"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_the_references_import_nothing_from_gsets():
    imported = set()
    for node in ast.walk(_tree(REFERENCES)):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not {name for name in imported if name.partition(".")[0] == "gsets"}


def test_no_other_test_file_defines_a_reference():
    public = {
        node.name for node in _tree(REFERENCES).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert public
    redefined = [
        (path.name, node.name)
        for path in sorted(TESTS.glob("**/*.py")) if path != REFERENCES
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in public
    ]
    assert redefined == []
