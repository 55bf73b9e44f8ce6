"""Each demo runs to completion against the package namespace it imports from, and the package
needs nothing at run time but numpy and the standard library."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr


def test_the_package_imports_only_numpy_and_the_standard_library():
    sources = sorted((ROOT / "src" / "clickrisk").glob("*.py"))
    roots = set()
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), filename=str(source))):
            if isinstance(node, ast.Import):
                roots.update((alias.name.split(".")[0], source.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add((node.module.split(".")[0], source.name))
    assert sources and ("numpy", "records.py") in roots
    assert [(root, name) for root, name in sorted(roots) if root not in sys.stdlib_module_names | {"numpy"}] == []
