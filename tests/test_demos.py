"""Each demo and the README's Python example run to completion against the package namespace they
import from, and the package needs nothing at run time but numpy and the standard library."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


def run_python(*argv) -> subprocess.CompletedProcess:
    """`python argv...` in a fresh process that imports the package from `src`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr


def test_the_readme_python_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    result = run_python("-c", example)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("threshold ")  # the calibration was feasible, so every line ran


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
