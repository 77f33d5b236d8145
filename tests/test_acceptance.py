"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Several criteria are wall-time bounded; the limits are
asserted alongside the numeric checks.
"""

import math
import time

import numpy as np
import pytest

from lprecovery import bounds as B
from lprecovery import experiments as ex
from lprecovery import gaussian as g
from lprecovery import limits
from lprecovery.conditions import SearchBudget
from lprecovery.linalg import RngSeed
from lprecovery.quadrature import integrate
from lprecovery.solvers import solve_l0_exhaustive, solve_l1, solve_lp_irls

from conftest import seeded_sparse_instance


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {label} {detail}".rstrip())
    assert ok, f"criterion {number}: {label} {detail}"


def test_criterion_01_limiting_strong_thresholds():
    start = time.monotonic()
    rho_one = limits.strong_limit_threshold(1.0).rho_star
    t_one = time.monotonic() - start
    start = time.monotonic()
    rho_half = limits.strong_limit_threshold(0.5).rho_star
    t_half = time.monotonic() - start
    ok = (
        abs(rho_one - 0.239) <= 1e-3
        and abs(rho_half - 0.3406) <= 1e-3
        and t_one < 1.0
        and t_half < 1.0
    )
    report(1, "limiting strong thresholds", ok,
           f"rho*(1)={rho_one:.5f} rho*(0.5)={rho_half:.5f} times={t_one:.2f}s/{t_half:.2f}s")


def test_criterion_02_monotonicity_and_derivative():
    start = time.monotonic()
    grid = [round(0.05 * k, 2) for k in range(1, 21)]
    values = [limits.strong_limit_threshold(p).rho_star for p in grid]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    derivs = [limits.strong_threshold_derivative(p) for p in grid]
    negative = all(d < 0 for d in derivs)
    fd_ok = True
    h = 1e-4
    for p, d in zip(grid, derivs):
        hi = min(p + h, 1.0)
        lo = max(p - h, 1e-4)
        fd = (
            limits.strong_limit_threshold(hi).rho_star - limits.strong_limit_threshold(lo).rho_star
        ) / (hi - lo)
        if abs(fd - d) > 1e-4:
            fd_ok = False
    elapsed = time.monotonic() - start
    ok = decreasing and negative and fd_ok and elapsed < 10.0
    report(2, "strict monotonicity of the strong threshold", ok, f"time={elapsed:.1f}s")


def test_criterion_03_small_p_limit():
    value = limits.strong_limit_threshold(0.01).rho_star
    report(3, "threshold approaches one half as p vanishes", value > 0.48, f"rho*(0.01)={value:.5f}")


def test_criterion_04_example1_exact_suite():
    start = time.monotonic()
    ok = True
    for k in range(2, 17):
        rep = ex.run_example1(k)
        claims = rep["claims"]
        ok &= claims["strong_max_sparsity_l1"]["value"] == math.ceil(33 * k / 32) - 1
        ok &= claims["strong_max_sparsity_lp"]["value"] == math.ceil(5 * k / 4) - 1
        ok &= claims["weak_l1_holds"]["value"] is True
        ok &= claims["weak_lp_falsified"]["value"] is True
        ok &= claims["weak_lp_falsified"]["witness_reverified"] is True
        dense = claims["denser_solution_wins"]
        ok &= abs(dense["objective_dense"] - (math.sqrt(10.0) + 0.5) * k) <= 1e-12 * 4 * k
        ok &= dense["objective_dense"] < dense["objective_sparse"] == pytest.approx(4.0 * k, abs=1e-12)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    report(4, "explicit-kernel example, k = 2..16, exact", bool(ok), f"time={elapsed:.2f}s")


def test_criterion_05_sectional_counterexamples():
    from lprecovery.conditions import sectional_condition_holds_for

    one = np.array([16.0, 16.0, 1.0, 36.0]).reshape(-1, 1)
    two = np.array([1.0, 4.0, 1.0, 9.0]).reshape(-1, 1)
    z = np.array([1.0])
    ok = sectional_condition_holds_for(one, z, 1.0, (0, 1)) == (32.0, 37.0)
    ok &= sectional_condition_holds_for(one, z, 0.5, (0, 1)) == (8.0, 7.0)
    lhs1, rhs1 = sectional_condition_holds_for(two, z, 1.0, (0, 1))
    lhs2, rhs2 = sectional_condition_holds_for(two, z, 0.5, (0, 1))
    ok &= lhs1 < rhs1 and lhs2 < rhs2
    report(5, "sectional recovery counterexamples", bool(ok))


def test_criterion_06_finite_alpha_strong_bounds():
    results = {}
    ok = True
    for alpha, p, check in [
        (0.8, 1.0, lambda r: r >= 0.003),
        (0.99, 1.0, lambda r: 0.05 < r <= 0.239),
        (0.99, 0.5, lambda r: 0.15 < r <= 0.268),
    ]:
        start = time.monotonic()
        rho = B.strong_bound(alpha, p).rho_bound
        elapsed = time.monotonic() - start
        results[(alpha, p)] = (rho, elapsed)
        ok &= check(rho) and elapsed < 300.0
    detail = " ".join(f"rho({a},{p})={r:.4f}/{t:.0f}s" for (a, p), (r, t) in results.items())
    report(6, "finite-ratio strong bounds", bool(ok), detail)


def test_criterion_07_finite_alpha_weak_bounds():
    start = time.monotonic()
    main = B.weak_bound(0.99, 0.5)
    t_main = time.monotonic() - start
    ok = 0.3 < main.rho_bound <= 2.0 / 3.0 and t_main < 600.0
    details = [f"rho_w(0.99,0.5)={main.rho_bound:.4f}/{t_main:.0f}s"]
    grid_ok = main.rho_bound < 2.0 / 3.0
    for alpha in (0.7, 0.9, 0.99):
        for p in (0.3, 0.8):
            start = time.monotonic()
            cfg = B.ExponentSearchConfig.default(alpha, gamma_points=12, epsilon_points=6)
            cfg = B.ExponentSearchConfig(
                gamma_grid=cfg.gamma_grid, epsilon_grid=cfg.epsilon_grid,
                t_tol=1e-9, a_tol=1e-3, rho_grid_resolution=128,
            )
            rho = B.weak_bound(alpha, p, cfg).rho_bound
            elapsed = time.monotonic() - start
            grid_ok &= rho < 2.0 / 3.0 and elapsed < 600.0
            details.append(f"rho_w({alpha},{p})={rho:.4f}/{elapsed:.0f}s")
    ok = ok and grid_ok
    report(7, "finite-ratio weak bounds below two thirds", bool(ok), " ".join(details))


def test_criterion_08_weak_threshold_monte_carlo():
    start = time.monotonic()
    budget = SearchBudget(sphere_samples=256, refine_steps=120, seed=RngSeed(0))
    probe_half = ex.run_weak_threshold_probe(
        n=600, codim=6, p=0.5, rho_list=(0.5, 0.8), trials=50, budget=budget, seed=RngSeed(600)
    )
    below = probe_half.points[0]["falsification_frequency"]
    above = probe_half.points[1]["falsification_frequency"]
    probe_one = ex.run_weak_threshold_probe(
        n=600, codim=6, p=1.0, rho_list=(0.8,), trials=50, budget=budget, seed=RngSeed(601)
    )
    l1_above = probe_one.points[0]["falsification_frequency"]
    elapsed = time.monotonic() - start
    ok = below <= 0.1 and above >= 0.9 and l1_above <= 0.1 and elapsed < 600.0
    report(8, "weak-threshold Monte Carlo (both directions)", bool(ok),
           f"freq(0.5,p=.5)={below:.2f} freq(0.8,p=.5)={above:.2f} freq(0.8,p=1)={l1_above:.2f} time={elapsed:.0f}s")


def test_criterion_09_solver_cross_validation():
    agree = 0
    for seed in range(100):
        inst = seeded_sparse_instance(10_000 + seed, m=8, n=12, sparsity=1, p=1.0)
        r1 = solve_l1(inst)
        r0 = solve_l0_exhaustive(inst)
        if np.linalg.norm(r1.x_hat - r0.x_hat) <= 1e-8:
            agree += 1
    recovered = 0
    for seed in range(100):
        inst = seeded_sparse_instance(20_000 + seed, m=20, n=40, sparsity=2, p=0.5)
        if solve_lp_irls(inst).recovered:
            recovered += 1
    ok = agree == 100 and recovered >= 95
    report(9, "solver cross-validation", ok, f"l1=l0 {agree}/100, irls {recovered}/100")


def test_criterion_10_phase_transition_shape():
    spec = ex.PhaseDiagramSpec(
        n=60, m=30, p_list=(0.5,), rho_grid=(1 / 60, 0.1, 0.2, 0.3, 0.45),
        trials_per_point=50, seed=RngSeed(2),
    )
    rep = ex.run_phase_transition(spec)
    rates = [pt["success_rate"] for pt in rep.points]
    margin = 2.0 / spec.trials_per_point
    monotone = all(b <= a + margin for a, b in zip(rates, rates[1:]))
    ok = rates[0] >= 0.98 and rates[-1] <= 0.1 and monotone
    report(10, "phase-transition shape at reduced scale", ok,
           "rates=" + ",".join(f"{r:.2f}" for r in rates))


def test_criterion_11_concentration_suite():
    ok = True
    details = []
    for p in (0.5, 1.0):
        rho_star = limits.strong_limit_threshold(p).rho_star
        ratio_rep = ex.run_concentration_check(20000, p, rho_star, trials=100, seed=RngSeed(100))
        ratio_frac = ratio_rep.points[0]["ratio_in_band"]
        bracket_rep = ex.run_concentration_check(20000, p, 2.0 / 3.0, trials=100, seed=RngSeed(200))
        mismatch = bracket_rep.points[0]["mismatch_in_bracket"]
        complement = bracket_rep.points[0]["complement_in_bracket"]
        ok &= ratio_frac >= 0.95 and mismatch >= 0.95 and complement >= 0.95
        details.append(f"p={p}: ratio={ratio_frac:.2f} brackets={mismatch:.2f}/{complement:.2f}")
    report(11, "concentration of top-fraction and pattern sums", bool(ok), " ".join(details))


def test_criterion_12_numerical_foundation_suite():
    start = time.monotonic()
    ok = abs(g.abs_moment(2.0) - 1.0) <= 1e-10
    # abs_moment is the gamma closed form, so the oracle is the quadrature
    # of x^p f(x), with break points laid toward the cusp at the origin
    cusp = tuple(4.0**-k for k in range(24)) + (2.0, 4.0)
    for p in [round(0.1 * k, 1) for k in range(1, 11)]:
        oracle = integrate(lambda x: x**p * math.sqrt(2.0 / math.pi) * np.exp(-0.5 * x * x), 0.0, 12.0, points=cusp)
        ok &= abs(g.abs_moment(p) - oracle) <= 1e-10 * oracle
    # closed forms at p = 1: 2 e^{t^2/2} Phi(+-t)
    for t in (0.3, 1.0, 2.5):
        phi = 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))
        ok &= abs(g.mgf_pos(t, 1.0) - 2.0 * math.exp(t * t / 2) * phi) <= 1e-9 * g.mgf_pos(t, 1.0)
        phi_neg = 0.5 * (1.0 + math.erf(-t / math.sqrt(2.0)))
        ok &= abs(g.mgf_neg(t, 1.0) - 2.0 * math.exp(t * t / 2) * phi_neg) <= 1e-9
    # closed-form decay envelope on a (t, p) grid
    for p in (0.2, 0.5, 0.8, 1.0):
        for t in np.geomspace(1.0, 100.0, 8):
            ok &= math.log(g.mgf_neg(t, p)) <= g.mgf_neg_log_upper_bound(t, p) + 1e-12
    # log-convexity along the tilt
    for p in (0.4, 1.0):
        ts = np.linspace(0.05, 2.5, 17)
        for logs in (
            np.array([g.log_mgf_pos(t, p) for t in ts]),
            np.array([math.log(g.mgf_neg(t, p)) for t in ts]),
        ):
            ok &= float((logs[2:] - 2 * logs[1:-1] + logs[:-2]).min()) >= -1e-8
    elapsed = time.monotonic() - start
    ok = bool(ok) and elapsed < 30.0
    report(12, "numerical foundation suite", ok, f"time={elapsed:.1f}s")
