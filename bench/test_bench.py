"""Tests of the benchmark itself: tracing changes no output, and every check
fails on a tampered input.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import lprecovery  # noqa: E402
from lprecovery import bounds, conditions, experiments, limits, linalg, quadrature, solvers  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Failed, Operation  # noqa: E402


def small_strong_bound():
    cfg = bounds.ExponentSearchConfig.default(0.99, gamma_points=4, epsilon_points=4)
    return bounds.strong_bound(0.99, 1.0, cfg)


def small_weak_bound():
    base = bounds.ExponentSearchConfig.default(0.99, gamma_points=4, epsilon_points=3)
    cfg = bounds.ExponentSearchConfig(
        gamma_grid=base.gamma_grid, epsilon_grid=base.epsilon_grid, t_tol=1e-8, a_tol=1e-2, rho_grid_resolution=16
    )
    return bounds.weak_bound(0.99, 1.0, cfg)


@pytest.fixture(scope="module")
def strong_result():
    return small_strong_bound()


@pytest.fixture(scope="module")
def weak_result():
    return small_weak_bound()


def small_operations():
    """A few cheap calls that reach every layer the workloads exercise."""
    inst = workloads.make_recovery_instances(5, sparsities=(4,), instances=1)[0][1]
    budget = conditions.SearchBudget(sphere_samples=16, refine_steps=4)
    return [
        Operation("strong", small_strong_bound),
        Operation("limit", lambda: limits.strong_limit_threshold(0.5)),
        Operation("weak_mgf", lambda: bounds.chernoff_indicator_exponent(1.0, 0.5)),
        Operation(
            "probe",
            lambda: experiments.run_weak_threshold_probe(
                n=60, codim=3, p=0.5, rho_list=(0.3, 0.9), trials=1, budget=budget, seed=linalg.RngSeed(3)
            ),
        ),
        Operation("l1", lambda: solvers.solve_l1(inst)),
        Operation("irls", lambda: solvers.solve_lp_irls(inst)),
    ]


def test_traced_outputs_identical_to_untraced():
    ops = small_operations()
    untraced = workloads.run_rounds(ops, 0.0, count=1)[0][2]
    original = quadrature.integrate
    tr = tracer.Tracer()
    with tr:
        assert quadrature.integrate is not original
        traced = workloads.run_rounds(ops, 0.0, count=1)[0][2]
    assert quadrature.integrate is original and lprecovery.gaussian.integrate is original
    assert not any(isinstance(out, Failed) for out in untraced + traced)
    assert run.canonical(traced) == run.canonical(untraced)
    metrics = tr.metrics(1)
    exercised = {name for wl in workloads.WORKLOADS.values() for name in wl.exercised}
    checks.check_layers(metrics, exercised)
    assert metrics["quadrature.points"][0] >= 15 * metrics["quadrature.calls"][0]
    assert metrics["conditions.falsified"][0] >= 1
    assert metrics["experiments.trials"][0] == 2


def test_zero_layer_count_fails_the_run():
    metrics = tracer.Tracer().metrics(1)
    for wl in workloads.WORKLOADS.values():
        with pytest.raises(checks.CheckFailed):
            checks.check_layers(metrics, wl.exercised)
    forced = dict(metrics, **{name: (1.0, "count") for name in workloads.WORKLOADS["recovery"].exercised})
    checks.check_layers(forced, workloads.WORKLOADS["recovery"].exercised)
    forced["solvers.l1_solves"] = (0.0, "count")
    with pytest.raises(checks.CheckFailed, match="solvers.l1_solves"):
        checks.check_layers(forced, workloads.WORKLOADS["recovery"].exercised)


def test_strong_certificate_recheck(strong_result):
    checks.check_strong_bound(strong_result)
    raised = dataclasses.replace(strong_result, rho_bound=strong_result.rho_bound * 1.01)
    with pytest.raises(checks.CheckFailed, match="rho stage"):
        checks.check_strong_bound(raised)
    looser = dataclasses.replace(strong_result, lambda_max=strong_result.lambda_max * 1.01)
    with pytest.raises(checks.CheckFailed):
        checks.check_strong_bound(looser)


def test_weak_certificate_recheck(weak_result):
    checks.check_weak_bound(weak_result)
    detail = dict(weak_result.detail, lambda_tilde_max=weak_result.detail["lambda_tilde_max"] * 0.99)
    with pytest.raises(checks.CheckFailed, match="lambda_tilde"):
        checks.check_weak_bound(dataclasses.replace(weak_result, detail=detail))
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_weak_bound(dataclasses.replace(weak_result, rho_bound=0.7))


@pytest.mark.parametrize("family, a, p", [("upper", 1.4, 1.0), ("upper", 1.5, 0.5), ("indicator", 1.2, 0.3)])
def test_tilt_recheck(family, a, p):
    t_opt, value = getattr(bounds, f"chernoff_{family}_exponent")(a, p)
    checks.check_tilt(family, a, p, (t_opt, value))
    with pytest.raises(checks.CheckFailed, match="rebuilt minimum"):
        checks.check_tilt(family, a, p, (t_opt, value - 1e-6))
    with pytest.raises(checks.CheckFailed, match="objective at t_opt"):
        checks.check_tilt(family, a, p, (1.1 * t_opt, value))


def test_fastest_sums_each_operations_fastest_call():
    rounds = [([0.3, 0.1], [0.2, 0.1], None), ([0.2, 0.4], [0.3, 0.05], None)]
    assert workloads.fastest(rounds, 0) == pytest.approx(0.3)
    assert workloads.fastest(rounds, 1) == pytest.approx(0.25)


def test_limit_against_closed_form():
    limit = limits.strong_limit_threshold(0.5)
    checks.check_limit(limit)
    with pytest.raises(checks.CheckFailed):
        checks.check_limit(dataclasses.replace(limit, rho_star=limit.rho_star + 1e-6))


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_independent_log_mgf_matches_quadrature(p):
    for t in (0.01, 0.7, 5.0):
        assert abs(checks.log_mgf(t, p) - lprecovery.gaussian.log_mgf_pos(t, p)) < 1e-12


def test_weak_l1_verdict_against_exact_lp():
    # support rows fight the all-plus pattern along z = +1 and outweigh the rest
    bad = np.array([[-1.0], [-1.0], [-1.0], [0.1], [-0.1]])
    pattern = conditions.SupportPattern.nonnegative(3)
    verdict = conditions.certify(bad, "weak_l1", 1.0, pattern)
    assert not verdict.holds
    checks.check_weak_l1_verdict(bad, 3, holds=False)
    with pytest.raises(checks.CheckFailed, match="holds"):
        checks.check_weak_l1_verdict(bad, 3, holds=True)
    good = linalg.sample_gaussian_matrix(200, 3, linalg.RngSeed(4))
    assert checks.weak_l1_lp_optimum(good, 20) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(checks.CheckFailed, match="falsified"):
        checks.check_weak_l1_verdict(good, 20, holds=False)


def test_probe_frequency_checks():
    checks.check_falsification_frequency({"falsification_frequency": 0.0, "rho": 0.5, "p": 0.5}, at_most=0.1)
    with pytest.raises(checks.CheckFailed):
        checks.check_falsification_frequency({"falsification_frequency": 0.5, "rho": 0.5, "p": 0.5}, at_most=0.1)
    with pytest.raises(checks.CheckFailed):
        checks.check_falsification_frequency({"falsification_frequency": 0.5, "rho": 0.8, "p": 0.5}, at_least=0.9)


def test_recovery_checks_reject_tampered_solutions():
    k, inst = workloads.make_recovery_instances(2, sparsities=(5,), instances=1)[0]
    x_hat = solvers.solve_l1(inst).x_hat
    checks.check_solution(inst.A, inst.y, x_hat, "l1")
    checks.check_l1_optimality(x_hat, inst.x_true, "l1")
    assert checks.recovered(x_hat, inst.x_true)
    with pytest.raises(checks.CheckFailed, match="residual"):
        checks.check_solution(inst.A, inst.y, x_hat + 1e-6, "l1")
    # a feasible point with a larger l1 norm: add a kernel direction
    kernel = linalg.null_space_basis(inst.A)[:, 0]
    with pytest.raises(checks.CheckFailed, match="exceeds"):
        checks.check_l1_optimality(x_hat + 0.5 * kernel, inst.x_true, "l1")
    checks.check_recovery_rates([1.0, 0.8, 0.0], 5, "l1")
    with pytest.raises(checks.CheckFailed):
        checks.check_recovery_rates([0.8, 0.8, 0.0], 5, "l1")
    with pytest.raises(checks.CheckFailed):
        checks.check_recovery_rates([1.0, 0.2, 0.8], 5, "l1")


def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_reports_every_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(["--workload", "recovery", "--seed", "7", "--seconds", "0", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "recovery", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
