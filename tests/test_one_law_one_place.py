"""Each law is checked in one place: Beck-Chevalley is decided by
``doctrine.check_beck_chevalley`` and reported by
``doctrine.beck-chevalley`` alone, so no other package module calls it.
The other single-law checkers are held to the modules whose clauses
report them (``CALLERS``).  The sources are read with ``ast``, so a call
under any name the function is imported as counts as well."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "doctrina"
LAW = "check_beck_chevalley"
MODULES = sorted(PACKAGE.glob("*.py"))

# each other single-law checker, and the package modules that may call
# it: ``roundtrip.frobenius`` cross-checks the rebuilt Frobenius
# equality against the direct one
CALLERS = {
    "check_adjunction": {"doctrine.py"},
    "check_frobenius": {"doctrine.py", "extraction.py"},
    "frobenius_via_Bhat": {"extraction.py"},
}


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
    "path", [p for p in MODULES if p.name != "doctrine.py"], ids=lambda p: p.name,
)
def test_beck_chevalley_is_checked_only_in_doctrine(path):
    lines = list(calls(path, LAW))
    assert not lines, f"{path.name} calls {LAW} on lines {lines}"


@pytest.mark.parametrize("law", sorted(CALLERS))
def test_each_law_is_called_where_it_is_reported(law):
    for name in sorted(CALLERS[law]):
        assert list(calls(PACKAGE / name, law)), f"{name} does not call {law}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_laws_are_checked_only_where_they_are_reported(path):
    for law, allowed in CALLERS.items():
        lines = [] if path.name in allowed else list(calls(path, law))
        assert not lines, f"{path.name} calls {law} on lines {lines}"
