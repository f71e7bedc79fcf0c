"""numpy is the only runtime dependency: every import in src/oqf is from the
standard library, numpy or oqf itself.  The oracle imports nothing of oqf, so
it shares no code with the closed forms it checks."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oqf"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "oqf"}


def _imports(path):
    """(module, level) of every import in the file; level 0 for an absolute one."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, 0) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", node.level


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE)))
def test_imports_are_stdlib_numpy_or_oqf(path):
    outside = [name for name, level in _imports(path)
               if level == 0 and name.split(".")[0] not in ALLOWED]
    assert outside == []


def test_oracle_imports_no_oqf_module():
    ours = [(name, level) for name, level in _imports(PACKAGE / "oracle.py")
            if level > 0 or name.split(".")[0] == "oqf"]
    assert ours == []
