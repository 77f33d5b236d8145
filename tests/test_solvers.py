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


# x_hat, iterations and recovered of both recovery programs on a seeded
# 50 x 100 set, computed with the numpy-lstsq weighted solve and HiGHS with
# presolve; entries not listed are zero (to 1e-13)
PINNED_RECOVERY = {
    ("l1", 5): (25, True, {
        40: 1.0919737996097347, 51: -0.08765322904914696, 62: -0.11995258399058285, 92: 1.7096998448472327,
        99: 0.5474187314708356,
    }),
    ("l1", 12): (59, True, {
        5: 0.028795717265983185, 30: -0.467028772943739, 34: 1.1198119278461982, 39: -0.4985938926956221,
        41: 0.06046682415601233, 47: -1.9006090151779738, 58: 1.6193697580092972, 62: -0.25316701119300167,
        70: 1.5729598173034893, 78: 2.470767028413123, 80: -1.2283253294459193, 87: -0.9057483197117848,
    }),
    ("l1", 28): (91, False, {
        1: 0.03182348979798351, 2: 0.07370119559992339, 3: -0.12358893826468896, 5: -0.9958395105991881,
        11: -0.017168580332262554, 13: -0.019064888356355742, 14: -0.07314088030687974,
        19: -0.1369873021861371, 20: -0.04475865344276148, 21: 0.0032738651992646347,
        22: -0.0451794812743086, 23: 0.022284281423265374, 28: -0.10513516489689465, 32: 0.5915473165676053,
        34: -0.10001709882232174, 35: -0.0461122105399968, 36: 0.1504325796773095, 39: -0.7065016670519894,
        43: -1.4152589790601646, 44: -0.18975582605876867, 45: -1.1781318371895877, 47: -0.18151524300590763,
        48: 0.16568873200184228, 50: 0.0006073841611931817, 55: 0.6756954617347882, 57: 0.8809022243460524,
        58: 1.1623544830468702, 59: 0.7719008585124943, 65: 0.6682988968443881, 66: -0.11673111949991286,
        67: -0.1281868557699868, 68: 1.466481746029634, 72: -0.18131478520910077, 74: 0.14613387332641156,
        75: 0.43715842920928655, 76: 1.3858382615491667, 78: -0.009196002637106845, 79: 0.10290167306017843,
        80: 0.011293686543518752, 81: -0.1269811500251836, 83: -1.4674323896358954, 84: -0.06214251911340268,
        86: 1.1666056507261524, 87: -0.5084142010075727, 88: -0.27237618936426755, 89: 0.39919098916729107,
        90: -0.4595839369809125, 91: -0.011266119364408996, 94: 0.6166093643202645, 95: -1.171356927577185,
    }),
    ("irls", 5): (21, True, {
        40: 1.0919737996097347, 51: -0.08765322904914667, 62: -0.11995258399058303, 92: 1.7096998448472311,
        99: 0.5474187314708356,
    }),
    ("irls", 12): (25, True, {
        5: 0.02879571726598449, 30: -0.46702877294373685, 34: 1.1198119278461953, 39: -0.4985938926956222,
        41: 0.060466824156011074, 47: -1.9006090151779726, 58: 1.6193697580092994, 62: -0.2531670111930011,
        70: 1.5729598173034898, 78: 2.470767028413123, 80: -1.2283253294459187, 87: -0.9057483197117842,
    }),
}


def pinned_instance(k: int) -> sv.RecoveryInstance:
    seed = la.RngSeed(8050).child(k)
    A = la.sample_gaussian_matrix(50, 100, seed.child(0))
    support = np.argsort(la.sample_gaussian_vector(100, seed.child(1)))[:k]
    x = np.zeros(100)
    x[support] = la.sample_gaussian_vector(k, seed.child(2))
    return sv.RecoveryInstance(A=A, y=A @ x, p=0.5, x_true=x)


@pytest.mark.parametrize("solver, k", sorted(PINNED_RECOVERY))
def test_recovery_outputs_are_pinned(solver, k):
    iterations, recovered, entries = PINNED_RECOVERY[(solver, k)]
    inst = pinned_instance(k)
    result = sv.solve_l1(inst) if solver == "l1" else sv.solve_lp_irls(inst)
    assert result.iterations == iterations
    assert result.recovered is recovered
    expected = np.zeros(100)
    expected[list(entries)] = list(entries.values())
    assert np.abs(result.x_hat - expected).max() <= 1e-12


@pytest.mark.parametrize("defect", ["zero", "duplicate", "dependent"])
def test_l1_certifies_and_recovers_with_redundant_rows(defect):
    # presolve would drop these rows; the simplex must cope with them as they are
    for trial in range(5):
        A = la.sample_gaussian_matrix(20, 40, la.RngSeed(2040).child(trial))
        if defect == "zero":
            A[3] = 0.0
        elif defect == "duplicate":
            A[3] = A[7]
        else:
            A[3] = 2.0 * A[1] - 0.5 * A[9]
        x = np.zeros(40)
        x[[2, 11, 30]] = [1.5, -0.7, 2.2]
        result = sv.solve_l1(sv.RecoveryInstance(A=A, y=A @ x, p=1.0, x_true=x))
        assert result.recovered
        assert result.objective == pytest.approx(np.abs(x).sum(), rel=1e-12)


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
