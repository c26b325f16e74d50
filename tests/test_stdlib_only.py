"""The runtime stays stdlib-only: every absolute import in the package
names a standard-library module or doctrina itself.  The sources are
read with ``ast``, so an import inside a function or under a guard
counts as well."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "doctrina"


def absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_doctrina(path):
    foreign = [
        name for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"doctrina"}
    ]
    assert not foreign, f"{path.name} imports {foreign}"
