"""Each law is checked in one place: Beck-Chevalley is decided by
``doctrine.check_beck_chevalley`` and reported by
``doctrine.beck-chevalley`` alone, so no other package module calls it.
The sources are read with ``ast``, so a call under any name the function
is imported as counts as well."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "doctrina"
LAW = "check_beck_chevalley"


def calls(path: Path, name: str):
    """The lines on which ``path`` calls ``name``, bare, as an attribute,
    or under a name it is imported as."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {name} | {
        alias.asname
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name == name and alias.asname
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if called in names:
                yield node.lineno


def test_the_law_is_called_in_doctrine():
    assert list(calls(PACKAGE / "doctrine.py", LAW))


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "doctrine.py"),
    ids=lambda p: p.name,
)
def test_beck_chevalley_is_checked_only_in_doctrine(path):
    lines = list(calls(path, LAW))
    assert not lines, f"{path.name} calls {LAW} on lines {lines}"
