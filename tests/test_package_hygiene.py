"""Static checks on the package's modules, by the stdlib ``ast`` module.

Every ``__all__`` entry must name something the module defines, and no
module but ``__init__.py`` may import a name it never uses, so a deleted
class or constant cannot linger as a stale export or import.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lprecovery

MODULES = sorted(Path(lprecovery.__file__).parent.glob("*.py"))


def _module_name(path: Path) -> str:
    return "lprecovery" if path.stem == "__init__" else f"lprecovery.{path.stem}"


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _imported_names(tree: ast.Module) -> dict:
    """Name bound by each import statement anywhere in the module -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_resolves(path):
    module = importlib.import_module(_module_name(path))
    missing = [name for name in _exports(ast.parse(path.read_text())) if not hasattr(module, name)]
    assert not missing, f"{path.name}: __all__ names {missing}, which the module does not define"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exports(tree))
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_the_checks_see_every_module():
    assert {p.stem for p in MODULES} >= {"__init__", "bounds", "gaussian", "limits", "quadrature", "solvers"}


def test_importing_the_package_and_cli_loads_no_lp_stack():
    # scipy.optimize loads on the first LP solve, so the threshold commands never pay for it
    code = "import sys, lprecovery, lprecovery.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(lprecovery.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
