"""Static checks on the package's modules, by the stdlib ``ast`` module.

Every ``__all__`` entry must name something the module defines, and no
module but ``__init__.py`` may import a name it never uses, so a deleted
class or constant cannot linger as a stale export or import.
The CLI's experiment key table must agree with the runners' signatures, and
file formats and process concerns (argument parsing, JSON, logging, timing)
stay in ``cli``; ``linalg`` alone shares CSV, for matrix files.

The import-path checks run in new interpreters: importing the package and
its CLI loads no scipy module, the scipy-free threshold commands run
without one, l1 solves and weak-l1 verdicts load the LP stack only on their
HiGHS fallbacks, and the function-local scipy imports work on a first call.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lprecovery
from lprecovery import bounds, cli, conditions, experiments, quadrature

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


def _imported_modules(tree: ast.Module) -> set:
    """Top-level name of every absolute import anywhere in the module."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


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


# the only package modules that may import each of these
_HOMES = {"click": {"cli"}, "json": {"cli"}, "logging": {"cli"}, "time": {"cli"}, "csv": {"cli", "linalg"}}


@pytest.mark.parametrize("module", list(_HOMES))
def test_formats_and_process_concerns_live_in_the_cli(module):
    importers = {p.stem for p in MODULES if module in _imported_modules(ast.parse(p.read_text()))}
    assert importers <= _HOMES[module], f"{sorted(importers - _HOMES[module])} import {module}"


def test_the_checks_see_every_module():
    assert {p.stem for p in MODULES} >= {"__init__", "bounds", "gaussian", "limits", "quadrature", "solvers"}


def test_fixed_numerics_have_no_knobs():
    # the quadrature tolerances and panel budget, the tilt cap and the
    # pattern-search step shrink are module constants, not settings
    assert [f.name for f in dataclasses.fields(bounds.ExponentSearchConfig)] == [
        "gamma_grid", "epsilon_grid", "t_tol", "a_tol", "rho_grid_resolution",
    ]
    assert [f.name for f in dataclasses.fields(conditions.SearchBudget)] == ["sphere_samples", "refine_steps", "seed"]
    assert list(inspect.signature(quadrature.integrate).parameters) == ["f", "a", "b", "points"]
    assert not hasattr(lprecovery, "QuadratureConfig")
    assert not hasattr(quadrature, "QuadratureConfig")


@pytest.mark.parametrize("kind", list(cli._EXPERIMENTS))
def test_experiment_keys_match_the_runner_signature(kind):
    # phase's runner hands its keys to PhaseDiagramSpec; a spec must give every parameter
    # without a default and may give only some with one, so band and bracket_eps_factor stay unexposed
    run, required, optional = cli._EXPERIMENTS[kind]
    params = inspect.signature(experiments.PhaseDiagramSpec if kind == "phase" else run).parameters.values()
    assert set(required) == {p.name for p in params if p.default is inspect.Parameter.empty}
    assert set(optional) <= {p.name for p in params if p.default is not inspect.Parameter.empty}
    assert set(required + optional) <= set(cli._KEYS)


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(lprecovery.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


_LOADED_SCIPY = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_importing_the_package_and_cli_loads_no_lp_stack():
    # scipy.optimize loads on the first LP solve, so the threshold commands never pay for it
    code = "import sys, lprecovery, lprecovery.cli; print('scipy.optimize' in sys.modules)"
    assert _fresh(code).strip() == "False"


def test_l1_solves_load_the_lp_stack_only_on_fallback():
    # the homotopy needs scipy.linalg alone; scipy.optimize loads when the linear program runs
    code = """
import sys
import numpy as np
from lprecovery import linalg, solvers
A = linalg.sample_gaussian_matrix(10, 20, 21)
solvers.solve_l1(solvers.RecoveryInstance(A=A, y=A[:, 3] - 1.5 * A[:, 7]))
loaded = ['scipy.optimize' in sys.modules]
A[4] = 0.0
try:
    solvers.solve_l1(solvers.RecoveryInstance(A=A, y=np.eye(10)[4]))
except solvers.SolverError:
    loaded.append('scipy.optimize' in sys.modules)
print(loaded)
"""
    assert _fresh(code).strip() == "[False, True]"


def test_weak_l1_verdicts_load_the_lp_stack_only_on_fallback():
    # the vertex walk is numpy only; scipy.optimize loads when the HiGHS fallback runs
    code = """
import sys
from lprecovery import conditions, linalg
B = linalg.sample_gaussian_matrix(600, 6, 601)
verdict = conditions.certify(B, "weak_l1", 1.0, conditions.SupportPattern.nonnegative(480))
loaded = [verdict.certificate_exact, 'scipy.optimize' in sys.modules]
conditions._l1_dual_walk = lambda comp, target: None
verdict = conditions.certify(B, "weak_l1", 1.0, conditions.SupportPattern.nonnegative(480))
print(loaded + [verdict.certificate_exact, 'scipy.optimize' in sys.modules])
"""
    assert _fresh(code).strip() == "[True, False, True, True]"


def test_importing_the_package_and_cli_loads_no_scipy():
    # scipy.linalg and scipy.special load on the first factorization or strong limit
    code = f"import sys, lprecovery, lprecovery.cli; print({_LOADED_SCIPY})"
    assert _fresh(code).strip() == "[]"


def test_scipy_free_threshold_commands_load_no_scipy():
    code = f"""
import contextlib, io, json, sys
from lprecovery.cli import main
commands = [
    ["threshold", "weak-limit", "--p", "0.5"],
    ["threshold", "sectional-limit", "--p", "0.5"],
    ["threshold", "weak-bound", "--alpha", "0.9", "--p", "0.5",
     "--gamma-points", "2", "--epsilon-points", "2", "--a-tol", "0.05"],
    ["threshold", "strong-bound", "--alpha", "0.99", "--p", "1", "--gamma-points", "3", "--epsilon-points", "2"],
]
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({{"codes": codes, "scipy": {_LOADED_SCIPY}}}))
"""
    out = json.loads(_fresh(code))
    assert out == {"codes": [0, 0, 0, 0], "scipy": []}


def test_deferred_scipy_imports_work_in_a_cold_process():
    # the suite has loaded scipy long before this test, so only a new interpreter
    # exercises the function-local imports on their first call
    code = f"""
import dataclasses, json, sys
import numpy as np
from lprecovery import limits, linalg
assert {_LOADED_SCIPY} == []
A = linalg.sample_gaussian_matrix(3, 7, 11)
print(json.dumps({{
    "null_space": linalg.null_space_basis(A).tolist(),
    "weighted_solve": linalg.min_norm_weighted_solve(A, np.arange(1.0, 4.0), np.linspace(0.5, 2.0, 7)).tolist(),
    "strong_limit": dataclasses.asdict(limits.strong_limit_threshold(0.5)),
    "derivative": limits.strong_threshold_derivative(0.7),
}}))
"""
    cold = json.loads(_fresh(code))
    from lprecovery import limits, linalg

    A = linalg.sample_gaussian_matrix(3, 7, 11)
    assert cold["null_space"] == linalg.null_space_basis(A).tolist()
    assert cold["weighted_solve"] == linalg.min_norm_weighted_solve(
        A, np.arange(1.0, 4.0), np.linspace(0.5, 2.0, 7)
    ).tolist()
    assert cold["strong_limit"] == dataclasses.asdict(limits.strong_limit_threshold(0.5))
    assert cold["derivative"] == limits.strong_threshold_derivative(0.7)
