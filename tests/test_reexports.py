"""The package's `# noqa: F401` imports exist only for the benchmark's tracer.

`bench/spans.py` wraps functions at the module attributes where callers look
them up, so a module re-exports a few names it never calls. Each such import
must be a binding the tracer names; once the tracer stops naming one, its test
here fails and the import can go.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def unused_imports() -> list[str]:
    """Every name a `# noqa: F401` import binds in `src/clickrisk`, as "module:attribute"."""
    names = []
    for path in sorted((ROOT / "src" / "clickrisk").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                names += [f"{path.stem}:{(alias.asname or alias.name).partition('.')[0]}" for alias in node.names]
    return names


def traced_bindings() -> set[str]:
    """The "module:attribute" bindings of `bench/spans.py`'s SPANS and COUNTERS, read without installing them."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {b for _, _, names in spans.SPANS for b in names} | {b for _, names in spans.COUNTERS for b in names}


@pytest.mark.parametrize("binding", unused_imports())
def test_an_unused_import_is_a_binding_the_tracer_wraps(binding):
    assert binding in traced_bindings()
