import json
import math

import numpy as np
import pytest

from lprecovery import linalg as la
from lprecovery import solvers as sv
from lprecovery.experiments import example1_kernel, example1_matrix

from conftest import seeded_sparse_instance


def test_lp_quasinorm_examples():
    beta = example1_kernel(1)
    assert sv.lp_quasinorm(beta, 0.5) == pytest.approx(2.5, abs=1e-12)
    x = la.sample_gaussian_vector(40, 3)
    assert sv.lp_quasinorm(x, 1.0) == pytest.approx(float(np.abs(x).sum()), rel=1e-14)
    assert sv.lp_quasinorm(np.array([0.0, 2.0, -3.0]), 0.0) == 2.0
    assert sv.lp_quasinorm(np.zeros(4), 0.0) == 0.0
    with pytest.raises(ValueError):
        sv.lp_quasinorm(x, 1.5)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8, 1.0])
def test_quasinorm_triangle_property(p):
    rng = la.RngSeed(515).generator()
    for _ in range(250):
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        lhs = sv.lp_quasinorm(x + y, p)
        rhs = sv.lp_quasinorm(x, p) + sv.lp_quasinorm(y, p)
        assert lhs <= rhs + 1e-12


def test_instance_validation():
    A = la.sample_gaussian_matrix(3, 6, 1)
    with pytest.raises(ValueError):
        sv.RecoveryInstance(A=A, y=np.zeros(2))
    with pytest.raises(ValueError):
        sv.RecoveryInstance(A=A, y=np.zeros(3), p=2.0)
    x_bad = np.ones(6)
    with pytest.raises(ValueError, match="not consistent"):
        sv.RecoveryInstance(A=A, y=np.zeros(3), x_true=x_bad)


def test_l1_zero_measurements():
    A = la.sample_gaussian_matrix(3, 6, 2)
    result = sv.solve_l1(sv.RecoveryInstance(A=A, y=np.zeros(3)))
    assert np.abs(result.x_hat).max() == 0.0
    assert result.objective == 0.0
    assert result.converged


def test_l1_recovers_example1_vector(matrix_k2):
    k = 2
    x_star = np.concatenate([np.full(k, 9.0), np.ones(k), np.zeros(4 * k)])
    inst = sv.RecoveryInstance(A=matrix_k2, y=matrix_k2 @ x_star, p=1.0, x_true=x_star)
    result = sv.solve_l1(inst)
    assert result.converged
    assert np.linalg.norm(result.x_hat - x_star) <= 1e-6
    assert result.recovered


def test_l1_certifies_an_optimum_near_the_transition():
    # HiGHS returns this vertex with |Ax - y|_inf = 8.9e-7, enough to break
    # the 1e-8 duality-gap test unless the vertex is refit on its support
    rng = np.random.default_rng(1005)
    A = rng.standard_normal((100, 200))
    for k in (10, 25, 40):
        for _ in range(6):
            x = np.zeros(200)
            x[rng.choice(200, k, replace=False)] = rng.standard_normal(k)
    result = sv.solve_l1(sv.RecoveryInstance(A=A, y=A @ x, p=1.0, x_true=x))
    assert np.abs(A @ result.x_hat - A @ x).max() <= 1e-12
    assert result.objective <= np.abs(x).sum() + 1e-9


def test_l1_matches_l0_in_recoverable_regime():
    agree = 0
    for seed in range(100):
        inst = seeded_sparse_instance(10_000 + seed, m=8, n=12, sparsity=1, p=1.0)
        r1 = sv.solve_l1(inst)
        r0 = sv.solve_l0_exhaustive(inst)
        assert r1.check_feasibility(inst) <= 1e-6 * (1.0 + np.linalg.norm(inst.y))
        if np.linalg.norm(r1.x_hat - r0.x_hat) <= 1e-8:
            agree += 1
    assert agree == 100


def test_l0_exhaustive_basics():
    A = la.sample_gaussian_matrix(5, 10, 21)
    # single-column measurement
    y = 3.0 * A[:, 4]
    result = sv.solve_l0_exhaustive(sv.RecoveryInstance(A=A, y=y))
    assert result.objective == 1.0
    assert result.x_hat[4] == pytest.approx(3.0, rel=1e-9)
    # zero measurement
    zero = sv.solve_l0_exhaustive(sv.RecoveryInstance(A=A, y=np.zeros(5)))
    assert zero.objective == 0.0
    # 2-sparse generic recovery
    inst = seeded_sparse_instance(5150, m=5, n=10, sparsity=2, p=0.0)
    rec = sv.solve_l0_exhaustive(inst)
    assert rec.recovered
    assert rec.objective == 2.0


def test_l0_budget_guards():
    A = la.sample_gaussian_matrix(10, 30, 3)
    inst = sv.RecoveryInstance(A=A, y=la.sample_gaussian_vector(10, 4))
    with pytest.raises(ValueError, match="guard"):
        sv.solve_l0_exhaustive(inst)
    with pytest.raises(sv.BudgetExceededError):
        sv.solve_l0_exhaustive(inst, max_support=2)  # generic y needs >= m columns


def test_irls_zero_measurements():
    A = la.sample_gaussian_matrix(4, 9, 5)
    result = sv.solve_lp_irls(sv.RecoveryInstance(A=A, y=np.zeros(4), p=0.5))
    assert np.abs(result.x_hat).max() == 0.0
    assert result.converged
    assert result.iterations == 1


def test_irls_config_validation():
    with pytest.raises(ValueError):
        sv.IrlsConfig(epsilon_init=1e-9, epsilon_floor=1e-8)
    with pytest.raises(ValueError):
        sv.IrlsConfig(epsilon_shrink=1.5)
    with pytest.raises(ValueError):
        sv.solve_lp_irls(sv.RecoveryInstance(A=np.eye(2)[:1], y=np.ones(1), p=1.0))


def test_irls_on_the_denser_global_minimum():
    # the adversarial kernel: the sparse vector is NOT the quasinorm
    # minimizer, and the solver's objective must not exceed it
    k = 4
    beta = example1_kernel(k)
    A = example1_matrix(k)
    x_star = np.concatenate([np.full(k, 9.0), np.ones(k), np.zeros(4 * k)])
    x_dense = x_star + beta
    inst = sv.RecoveryInstance(A=A, y=A @ x_star, p=0.5)
    result = sv.solve_lp_irls(inst)
    obj_sparse = sv.lp_quasinorm(x_star, 0.5)
    obj_dense = sv.lp_quasinorm(x_dense, 0.5)
    assert obj_sparse == pytest.approx(4.0 * k, abs=1e-12)
    assert obj_dense == pytest.approx((math.sqrt(10.0) + 0.5) * k, abs=1e-12)
    assert obj_dense < obj_sparse
    assert result.objective <= obj_sparse + 1e-9
    assert result.check_feasibility(inst) <= 1e-6 * (1.0 + np.linalg.norm(inst.y))


def test_irls_smoothed_objective_never_increases():
    # instrumented rerun of the outer iteration on a moderate instance
    inst = seeded_sparse_instance(777, m=20, n=40, sparsity=3, p=0.5)
    cfg = sv.IrlsConfig()
    A, y, p = inst.A, inst.y / np.linalg.norm(inst.y), inst.p
    x = la.min_norm_weighted_solve(A, y, np.ones(40))
    eps = cfg.epsilon_init
    history = []
    for _ in range(60):
        w = (x * x + eps * eps) ** (p / 2.0 - 1.0)
        x_new = la.min_norm_weighted_solve(A, y, w)
        history.append(
            np.sum((x_new * x_new + eps * eps) ** (p / 2.0)) - np.sum((x * x + eps * eps) ** (p / 2.0))
        )
        step = np.linalg.norm(x_new - x)
        x = x_new
        if step <= math.sqrt(eps) / 100.0:
            eps = max(eps * cfg.epsilon_shrink, cfg.epsilon_floor)
    assert max(history) <= cfg.inner_tol


def test_irls_monte_carlo_recovery_rate():
    recovered = 0
    for seed in range(100):
        inst = seeded_sparse_instance(20_000 + seed, m=20, n=40, sparsity=2, p=0.5)
        result = sv.solve_lp_irls(inst)
        recovered += bool(result.recovered)
    assert recovered >= 95


def test_job_file_roundtrip(tmp_path):
    inst = seeded_sparse_instance(31, m=6, n=12, sparsity=2, p=0.5)
    la.write_matrix_csv(tmp_path / "A.csv", inst.A)
    la.write_vector_csv(tmp_path / "y.csv", inst.y)
    la.write_vector_csv(tmp_path / "x.csv", inst.x_true)
    job = {"matrix": "A.csv", "y": "y.csv", "x_true": "x.csv", "p": 0.5}
    (tmp_path / "job.json").write_text(json.dumps(job))
    loaded = sv.load_instance(tmp_path / "job.json")
    assert np.array_equal(loaded.A, inst.A)
    assert loaded.p == 0.5
    result = sv.solve_lp_irls(loaded)
    payload = sv.result_to_dict(result)
    assert set(payload) >= {"objective", "iterations", "converged", "x_hat", "recovered"}
