"""The public names: every exported name resolves, and so does every name the benchmark uses.

The README's Library example runs and shows what its comments claim.
"""

import ast
import importlib
import importlib.util
import math
from pathlib import Path

import pytest

import focklab
import focklab.cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.mark.parametrize("name", ["functions", "integrate", "levelset", "verify", "cli"])
def test_every_all_entry_resolves(name):
    # the package itself imports its names one by one, so a missing one fails at import
    module = importlib.import_module(f"focklab.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name} exports names it does not define: {missing}"


def test_benchmark_spans_wrap_and_restore_every_traced_name():
    # instrument() looks up each traced name in its home module, so a deleted or
    # renamed one fails here, not in the benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = {
        (layer, fname): getattr(importlib.import_module(f"focklab.{layer}"), fname)
        for layer, names in spans.LAYERS.items()
        for fname in names
    }
    restore = spans.instrument(spans.Recorder())
    try:
        for (layer, fname), original in originals.items():
            wrapped = getattr(importlib.import_module(f"focklab.{layer}"), fname)
            assert wrapped is not original and wrapped.__wrapped__ is original
    finally:
        restore()
    for (layer, fname), original in originals.items():
        assert getattr(importlib.import_module(f"focklab.{layer}"), fname) is original


@pytest.mark.parametrize("script", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_benchmark_reads_only_names_that_exist(script):
    # `focklab.x`, `cli.x`, `integrate.x`, `levelset.x` and `verify.x` in the benchmark's source
    modules = {"focklab": focklab, **{n: importlib.import_module(f"focklab.{n}")
                                     for n in ("cli", "integrate", "levelset", "verify")}}
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    missing = sorted(
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)
    )
    assert not missing, f"perfbench/{script} reads names focklab does not define: {missing}"


def test_readme_library_example():
    # the first python block of README.md, run statement by statement, keeping each bare expression's value
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, shown = {}, []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            shown.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    value, report, violations = shown
    est, p = namespace["est"], namespace["params"].p  # p = 4
    assert abs(value - (2.0 / p) ** 0.5 * math.gamma(1.0 + p / 2.0) ** (1.0 / p)) <= est.value_error
    assert report.passed and report.details["equality_detected"] is True
    assert violations == ()
