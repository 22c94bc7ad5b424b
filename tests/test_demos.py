"""Every name a demo imports from selqr resolves. The demos are parsed,
not run, so a deleted or renamed public name fails here in milliseconds."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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


def test_public_names_resolve_once():
    # a name left in __all__ after its object is deleted breaks `import *`
    import selqr
    assert len(selqr.__all__) == len(set(selqr.__all__))
    missing = [name for name in selqr.__all__ if not hasattr(selqr, name)]
    assert not missing, f"selqr.__all__ names missing objects: {missing}"
