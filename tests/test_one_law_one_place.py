"""Each law is checked in one place: Beck-Chevalley is decided by
``doctrine.check_beck_chevalley`` and reported by
``doctrine.beck-chevalley`` alone, so no other package module calls it.
The other single-law checkers are held to the modules whose clauses
report them (``CALLERS``).  The span action has one definition too:
only ``doctrine.py`` folds joins (``_join_fold``), and no class defines
``_act``, a hook the suites no longer read, so a subclass that redefined
it would be silently ignored.  A square is decided in one place as
well: only ``PDot._verdict`` calls ``doubling._decide`` and
``doubling._check_sides``, and no package module defines a second
decider (``SECOND_DECIDERS``).  A pullback's apex is ordered in one
place, ``finset.pullback_tables``: every pullback in the package calls
it (``PULLBACKS``), and no module defines the second pullback or its
cache that it replaced (``SECOND_PULLBACKS``).  Evaluation reaches a
doctrine only through its public methods: ``uwd.py`` reads no private
attribute of a ``Doctrine``, so it tensors values with
``tensor_values`` and quantifies with ``act``.  The sources are read
with ``ast``, so a call under any name the function is imported as
counts as well."""

import ast
from pathlib import Path

import pytest

from doctrina.doctrine import Doctrine, powerset_doctrine

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

# the square decider's helpers, and the one definition that may call them
DECIDER_HELPERS = ("_decide", "_check_sides")
DECIDER = "PDot._verdict"
# the span-taking decider and its entry point that ``PDot._verdict``
# replaced
SECOND_DECIDERS = ("_qt_cell", "_equality")

# the one pullback order, and the scopes, by module, that must call it
ORDER = "pullback_tables"
PULLBACKS = {
    "finset.py": ("pullback",),
    "spancat.py": (
        "SpanCategory.compose_keys",
        "SpanCategory.interchange_class",
        "SpanCategory.cell_hcompose",
    ),
}
# the FinFn pullback cache and the identity test of the pair loop that
# ``pullback_tables`` replaced
SECOND_PULLBACKS = ("_pullback", "_pullbacks", "_is_identity")


def scoped_calls(path: Path, name: str):
    """``(scope, line)`` for each call of ``name`` in ``path``, bare, as an
    attribute, or under a name it is imported as; the scope is the dotted
    name of the enclosing classes and functions, ``""`` at module level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {name} | {
        alias.asname
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name == name and alias.asname
    }

    def walk(node, scope):
        if isinstance(node, ast.Call):
            f = node.func
            called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if called in names:
                yield scope, node.lineno
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        for child in ast.iter_child_nodes(node):
            yield from walk(child, scope)

    yield from walk(tree, "")


def calls(path: Path, name: str):
    """The lines on which ``path`` calls ``name`` (``scoped_calls``)."""
    return (line for _, line in scoped_calls(path, name))


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


@pytest.mark.parametrize("helper", DECIDER_HELPERS)
def test_the_decider_calls_its_helpers(helper):
    scopes = {scope for scope, _ in scoped_calls(PACKAGE / "doubling.py", helper)}
    assert DECIDER in scopes


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
@pytest.mark.parametrize("helper", DECIDER_HELPERS)
def test_squares_are_decided_only_in_verdict(path, helper):
    lines = [line for scope, line in scoped_calls(path, helper) if scope != DECIDER]
    assert not lines, f"{path.name} calls {helper} outside {DECIDER} on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_second_decider_is_defined(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in SECOND_DECIDERS)
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            and node.id in SECOND_DECIDERS)
    ]
    assert not lines, f"{path.name} defines a second decider on lines {lines}"


@pytest.mark.parametrize(
    "module, scope",
    [(m, scope) for m, scopes in PULLBACKS.items() for scope in scopes],
)
def test_every_pullback_is_ordered_in_one_place(module, scope):
    scopes = {found for found, _ in scoped_calls(PACKAGE / module, ORDER)}
    assert scope in scopes, f"{module}: {scope} does not call {ORDER}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_second_pullback_is_defined(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name in SECOND_PULLBACKS)
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            and node.id in SECOND_PULLBACKS)
        or (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and node.attr in SECOND_PULLBACKS)
    ]
    assert not lines, f"{path.name} defines a second pullback on lines {lines}"


def test_uwd_reads_no_private_doctrine_attribute(triple3):
    private = {
        name
        for name in [*vars(Doctrine), *vars(powerset_doctrine(triple3))]
        if name.startswith("_") and not name.startswith("__")
    }
    tree = ast.parse((PACKAGE / "uwd.py").read_text(encoding="utf-8"))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert private and not lines, f"uwd.py reads a private Doctrine attribute on lines {lines}"
