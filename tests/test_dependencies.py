"""numpy is the only runtime dependency: every import in src/oqf is from the
standard library, numpy or oqf itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oqf"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "oqf"}


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE)))
def test_imports_are_stdlib_numpy_or_oqf(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # not an import, or a relative one
        outside += [name for name in names if name.split(".")[0] not in ALLOWED]
    assert outside == []
