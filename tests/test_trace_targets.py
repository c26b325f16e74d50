"""Every function the benchmark's per-layer tracer wraps still exists
under the name it traces, so a rename or deletion in the package cannot
silently break ``perfbench/run.py --trace``.  ``TARGETS`` is read from
``perfbench/child.py`` with ``ast``; the benchmark is not imported."""

import ast
import importlib
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def trace_targets() -> list[str]:
    for node in ast.parse(CHILD.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [entry.elts[0].value for entry in node.value.elts]
    raise AssertionError(f"no TARGETS list in {CHILD}")


@pytest.mark.parametrize("target", trace_targets())
def test_trace_target_resolves(target):
    # the tracer wraps "module:function" through the module, and
    # "module:Class.method" through the class's own namespace
    modname, qual = target.split(":")
    mod = importlib.import_module(modname)
    if "." in qual:
        cls_name, attr = qual.split(".")
        fn = vars(getattr(mod, cls_name))[attr]
    else:
        fn = getattr(mod, qual)
    assert callable(fn)


def test_tracer_cache_metrics_resolve():
    # the cache hit ratios read ``cache_info`` of these two functions
    from doctrina import finset

    for name in ("product", "fn_product"):
        assert callable(getattr(finset, name).cache_info)
