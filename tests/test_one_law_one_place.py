"""Each law is checked in one place: Beck-Chevalley is decided by
``doctrine.check_beck_chevalley`` and reported by
``doctrine.beck-chevalley`` alone, so no other package module calls it.
The other single-law checkers are held to the modules whose clauses
report them (``CALLERS``).  The span action has one definition too:
only ``doctrine.py`` folds joins (``_join_fold``), and no class defines
``_act``, a hook the suites no longer read, so a subclass that redefined
it would be silently ignored.  The sources are read with ``ast``, so a
call under any name the function is imported as counts as well."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "doctrina"
LAW = "check_beck_chevalley"
MODULES = sorted(PACKAGE.glob("*.py"))
SOURCES = MODULES + sorted(Path(__file__).resolve().parent.glob("*.py"))

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_joins_are_folded_only_in_doctrine(path):
    lines = [] if path == PACKAGE / "doctrine.py" else list(calls(path, "_join_fold"))
    assert not lines, f"{path.name} calls _join_fold on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_class_defines_act(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [
        stmt.lineno
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if (isinstance(stmt, ast.FunctionDef) and stmt.name == "_act")
        or any(isinstance(t, ast.Name) and t.id == "_act" for t in getattr(stmt, "targets", ()))
    ]
    assert not lines, f"{path.name} defines _act on lines {lines}"
