"""Every name a demo imports from selqr resolves, and the quick demos run.

The imports are parsed, so a deleted or renamed public name fails here in
milliseconds. Every demo also runs to exit 0, which catches a demo reading
a deleted attribute. Demo 04, about 3.5 s on two cores, is the only one that
drives the parallel `simlab.run` path.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _selqr_imports(tree):
    """(module, name) per name imported from selqr; name None for `import`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                yield node.module, alias.name


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    for module_name, name in _selqr_imports(ast.parse(path.read_text())):
        if module_name.split(".")[0] != "selqr":
            continue
        module = importlib.import_module(module_name)
        if name is None or name == "*":
            continue
        assert (hasattr(module, name)
                or importlib.util.find_spec(f"{module_name}.{name}") is not None), \
            f"{path.name}: 'from {module_name} import {name}' does not resolve"


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    # TMPDIR keeps demo 05's working directory inside tmp_path
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                               os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not list(tmp_path.glob("selqr_demo_*")), "demo left its directory behind"


def test_public_names_resolve_once():
    # a name left in __all__ after its object is deleted breaks `import *`
    import selqr
    assert len(selqr.__all__) == len(set(selqr.__all__))
    missing = [name for name in selqr.__all__ if not hasattr(selqr, name)]
    assert not missing, f"selqr.__all__ names missing objects: {missing}"
