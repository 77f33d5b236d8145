"""Exponent-optimization chains against dense-grid oracles and invariants.

Oracle constants come from an independent brute-force sweep (QUADPACK
integrals, 9000-point tilt grids, 240-point net-radius grids, 6000-point
coefficient grids) run separately from this implementation and frozen here.
Package regression values pin the documented default grids.
"""

import math

import numpy as np
import pytest

from lprecovery import bounds as B
from lprecovery.gaussian import (
    abs_moment,
    indicator_tilted_moment_ratio,
    log_mgf_indicator,
    log_mgf_pos,
    mgf_neg,
    tilted_moment_ratio,
)

# independent dense-grid oracle values, frozen
ORACLE_CHERNOFF_A2_P1 = -1.3315950132601602
ORACLE_CHERNOFF_IND_A1_P1 = -0.3667355540846332
ORACLE_LAMBDA_MAX_05_1 = 2.3299952807687503
ORACLE_LAMBDA_MIN_09_05 = 0.3436710146719594  # 240x240 (gamma, eps) grid
ORACLE_LAMBDA_TILDE_09_05_01 = 1.9838310178990877

# package regression values on the documented default grids, frozen
PKG_LAMBDA_MAX_05_1 = 2.330007714700207
PKG_LAMBDA_MIN_09_05 = 0.3339382343230467
PKG_LAMBDA_TILDE_09_05_01 = 1.9828286755568831


def coarse_config(alpha: float) -> B.ExponentSearchConfig:
    base = B.ExponentSearchConfig.default(alpha, gamma_points=14, epsilon_points=8)
    return B.ExponentSearchConfig(
        gamma_grid=base.gamma_grid,
        epsilon_grid=base.epsilon_grid,
        t_tol=1e-9,
        a_tol=1e-4,
        rho_grid_resolution=256,
    )


def test_binary_entropy():
    assert B.binary_entropy(0.0) == 0.0
    assert B.binary_entropy(1.0) == 0.0
    assert B.binary_entropy(0.5) == 1.0
    assert B.binary_entropy(0.11) == pytest.approx(0.4999, abs=5e-4)
    with pytest.raises(ValueError):
        B.binary_entropy(1.5)


def test_chernoff_upper_near_the_moment():
    mu = abs_moment(0.6)
    t_opt, value = B.chernoff_upper_exponent(mu * (1.0 + 1e-9), 0.6)
    assert abs(value) < 1e-8
    assert t_opt < 1e-3


def test_chernoff_upper_against_grid_oracle():
    t_opt, value = B.chernoff_upper_exponent(2.0, 1.0)
    assert value == pytest.approx(ORACLE_CHERNOFF_A2_P1, abs=1e-6)
    # first-order optimality: the tilted mean equals the coefficient
    assert tilted_moment_ratio(t_opt, 1.0) == pytest.approx(2.0, abs=1e-8)


def test_chernoff_upper_monotone_in_coefficient():
    values = [B.chernoff_upper_exponent(a, 0.5)[1] for a in (1.0, 1.5, 2.5, 4.0)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_chernoff_upper_domain_error():
    with pytest.raises(ValueError):
        B.chernoff_upper_exponent(abs_moment(0.5) * 0.99, 0.5)


def test_chernoff_upper_convex_along_tilt():
    a, p = 1.7, 0.8
    t_opt, _ = B.chernoff_upper_exponent(a, p)
    from lprecovery.gaussian import log_mgf_pos

    h = max(1e-6, 1e-6 * t_opt)
    f = lambda t: log_mgf_pos(t, p) - a * t
    second = f(t_opt + h) - 2 * f(t_opt) + f(t_opt - h)
    assert second >= -1e-10


def test_chernoff_indicator_values():
    mu_half = abs_moment(0.4) / 2
    _, value = B.chernoff_indicator_exponent(mu_half * (1.0 + 1e-9), 0.4)
    assert abs(value) < 1e-8
    t_opt, value = B.chernoff_indicator_exponent(1.0, 1.0)
    assert value == pytest.approx(ORACLE_CHERNOFF_IND_A1_P1, abs=1e-6)
    assert indicator_tilted_moment_ratio(t_opt, 1.0) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        B.chernoff_indicator_exponent(mu_half * 0.5, 0.4)


def test_lambda_max_regression_and_oracle():
    value = B.compute_lambda_max(0.5, 1.0)
    assert value == pytest.approx(PKG_LAMBDA_MAX_05_1, abs=1e-5)
    assert value == pytest.approx(ORACLE_LAMBDA_MAX_05_1, abs=1e-3)


@pytest.mark.parametrize("alpha,p", [(0.3, 0.5), (0.7, 0.5), (0.7, 1.0)])
def test_lambda_max_exceeds_the_moment(alpha, p):
    assert B.compute_lambda_max(alpha, p, coarse_config(alpha)) > abs_moment(p)


def test_lambda_max_monotone_in_alpha():
    values = [B.compute_lambda_max(a, 0.5, coarse_config(a)) for a in (0.3, 0.6, 0.9)]
    assert values[0] >= values[1] >= values[2]


def test_lambda_min_regression_oracle_and_sandwich():
    value = B.compute_lambda_min(0.9, 0.5)
    assert value == pytest.approx(PKG_LAMBDA_MIN_09_05, abs=1e-5)
    # denser (gamma, eps) grids can only raise the max; stay below the oracle
    assert value <= ORACLE_LAMBDA_MIN_09_05 + 1e-6
    assert value > 0.0
    assert value < B.compute_lambda_max(0.9, 0.5)


def test_lambda_min_positive_below_lambda_max_on_grid():
    for alpha, p in [(0.5, 0.5), (0.8, 0.8), (0.95, 0.3)]:
        cfg = coarse_config(alpha)
        lmin = B.compute_lambda_min(alpha, p, cfg)
        lmax = B.compute_lambda_max(alpha, p, cfg)
        assert 0.0 < lmin < lmax


def test_lambda_min_infeasible_grid_raises():
    # tiny undersampling ratio: the default net grid cannot certify anything
    with pytest.raises(B.InfeasibleBoundError):
        B.compute_lambda_min(0.05, 0.5)


def test_lambda_tilde_regression_and_monotonicity():
    value = B.compute_lambda_tilde_max(0.9, 0.5, 0.1)
    assert value == pytest.approx(PKG_LAMBDA_TILDE_09_05_01, abs=2e-5)
    assert value == pytest.approx(ORACLE_LAMBDA_TILDE_09_05_01, abs=5e-3)
    assert value > abs_moment(0.5) / 2
    cfg = coarse_config(0.9)
    rhos = (0.05, 0.1, 0.2, 0.4)
    tilde = [B.compute_lambda_tilde_max(0.9, 0.5, r, cfg) for r in rhos]
    # shrinking the support fraction can only raise the per-index bound ...
    assert all(a >= b - 1e-9 for a, b in zip(tilde, tilde[1:]))
    # ... while the aggregate rho * bound still grows with rho
    aggregate = [r * v for r, v in zip(rhos, tilde)]
    assert all(b >= a - 1e-9 for a, b in zip(aggregate, aggregate[1:]))
    with pytest.raises(ValueError):
        B.compute_lambda_tilde_max(0.9, 0.5, 0.95, cfg)


def test_strong_bound_structure_and_margins():
    cfg = coarse_config(0.9)
    res = B.strong_bound(0.9, 0.5, cfg)
    assert 0.0 < res.rho_bound < 0.5
    assert res.exponent_margin < 0.0
    assert res.lambda_min < res.lambda_max
    assert res.lambda_max > abs_moment(0.5)
    record = res.to_record(cfg)
    assert set(record["search_config"]) == {
        "gamma_grid",
        "epsilon_grid",
        "t_max",
        "t_tol",
        "a_tol",
        "rho_grid_resolution",
    }
    assert record["rho_bound"] == res.rho_bound


def test_strong_bound_monotone_in_alpha():
    values = [B.strong_bound(a, 0.5, coarse_config(a)).rho_bound for a in (0.6, 0.8, 0.95)]
    assert values[0] <= values[1] <= values[2]


def test_weak_bound_dominates_strong_bound():
    cfg = coarse_config(0.9)
    strong = B.strong_bound(0.9, 0.5, cfg).rho_bound
    weak = B.weak_bound(0.9, 0.5, cfg).rho_bound
    assert weak >= strong


def test_weak_bound_fixed_point_and_slack():
    cfg = coarse_config(0.9)
    res = B.weak_bound(0.9, 0.5, cfg)
    rho = res.rho_bound
    assert 0.0 < rho < 0.9
    assert res.exponent_margin < 0.0
    assert res.detail["slack"] >= -cfg.a_tol
    # one step beyond the fixed point the inequality must fail
    rho_bad = rho + 0.01
    lt = B.compute_lambda_tilde_max(0.9, 0.5, rho_bad, cfg)
    alpha_prime = (0.9 - rho_bad) / (1.0 - rho_bad)
    lmin = B.compute_lambda_min(alpha_prime, 0.5, cfg)
    assert rho_bad * lt > (1.0 - rho_bad) * lmin


def test_gamma_grid_refinement_never_hurts():
    alpha, p = 0.9, 0.7
    coarse_gammas = tuple(np.geomspace(1e-6, 0.9, 8))
    midpoints = tuple(math.sqrt(a * b) for a, b in zip(coarse_gammas, coarse_gammas[1:]))
    fine_gammas = tuple(sorted(coarse_gammas + midpoints))
    eps = tuple(np.linspace(alpha / 6, alpha, 6))
    kwargs = dict(epsilon_grid=eps, t_tol=1e-9, a_tol=1e-4, rho_grid_resolution=256)
    cfg_coarse = B.ExponentSearchConfig(gamma_grid=coarse_gammas, **kwargs)
    cfg_fine = B.ExponentSearchConfig(gamma_grid=fine_gammas, **kwargs)
    strong_coarse = B.strong_bound(alpha, p, cfg_coarse).rho_bound
    strong_fine = B.strong_bound(alpha, p, cfg_fine).rho_bound
    assert strong_fine >= strong_coarse - cfg_coarse.a_tol
    weak_coarse = B.weak_bound(alpha, p, cfg_coarse).rho_bound
    weak_fine = B.weak_bound(alpha, p, cfg_fine).rho_bound
    assert weak_fine >= weak_coarse - cfg_coarse.a_tol


def test_config_validation():
    with pytest.raises(ValueError):
        B.ExponentSearchConfig(gamma_grid=(0.5, 0.2))
    with pytest.raises(ValueError):
        B.ExponentSearchConfig(gamma_grid=(0.5, 1.2))
    with pytest.raises(ValueError):
        B.ExponentSearchConfig(gamma_grid=(0.5,), a_tol=0.0)
    with pytest.raises(ValueError):
        B.strong_bound(1.2, 0.5)
    with pytest.raises(ValueError):
        B.weak_bound(0.9, 0.0)


def test_degenerate_search_configs_are_rejected():
    for points in ({"gamma_points": 0}, {"epsilon_points": 0}, {"gamma_points": -3}):
        with pytest.raises(ValueError, match="at least one point"):
            B.ExponentSearchConfig.default(0.9, **points)
    with pytest.raises(ValueError, match="rho_grid_resolution"):
        B.ExponentSearchConfig(rho_grid_resolution=0)
    # a bare config keeps its empty grids: the public tilt solves need none
    assert B.ExponentSearchConfig().gamma_grid == ()


def _tilt_family(family):
    if family == "upper":
        return B.chernoff_upper_exponent, log_mgf_pos, tilted_moment_ratio, 1.0
    return B.chernoff_indicator_exponent, log_mgf_indicator, indicator_tilted_moment_ratio, 0.5


@pytest.mark.parametrize("family", ["upper", "indicator"])
@pytest.mark.parametrize("p,top", [(1.0, 60.0), (0.5, 10.0), (0.3, 4.0)])
def test_tilt_solve_is_stationary_exact_and_hint_free(monkeypatch, family, p, top):
    solve, log_mgf, mean, mass = _tilt_family(family)
    mu = mass * abs_moment(p)
    t_tol = B.ExponentSearchConfig().t_tol
    # from just above the mean up to a coefficient ``top`` whose tilt peak
    # lies beyond 50, on the kernel's shifted-coordinate branch
    for a in (mu * (1.0 + 1e-6), mu * 1.5, 3.0, top):
        t_opt, value = solve(a, p)
        assert abs(mean(t_opt, p) - a) <= 1e-9 * max(1.0, a)
        assert value == log_mgf(t_opt, p) - a * t_opt
        # a warm start far from the root on either side lands on the same tilt
        for hint in (t_opt * 1e4, t_opt * 1e-4):
            t_warm, _ = solve(a, p, _hint=hint)
            assert t_warm == pytest.approx(t_opt, abs=2 * t_tol, rel=1e-14)
        with monkeypatch.context() as patch, pytest.raises(B.UnboundedSearchError):
            patch.setattr(B, "_T_MAX", 0.5 * t_opt)
            solve(a, p)
    assert (p * t_opt) ** (1.0 / (2.0 - p)) > 50.0


def _net(alpha, gamma):
    return (1.0 - alpha) * math.log1p(2.0 / gamma)


def _record_config(alpha):
    base = B.ExponentSearchConfig.default(alpha, gamma_points=6, epsilon_points=4)
    return B.ExponentSearchConfig(gamma_grid=base.gamma_grid, epsilon_grid=base.epsilon_grid, a_tol=1e-3)


def test_every_bound_stage_rebuilds_from_its_record():
    alpha, p = 0.9, 0.5
    cfg = _record_config(alpha)

    strong = B.strong_bound(alpha, p, cfg).to_record(cfg)
    d = strong["detail"]
    gamma = d["lambda_max_gamma"]
    a, t = strong["lambda_max"] * (1.0 - gamma**p), d["lambda_max_t"]
    exponent = _net(alpha, gamma) + log_mgf_pos(t, p) - a * t
    assert exponent == pytest.approx(d["lambda_max_margin"], abs=1e-12)
    gamma = d["lambda_min_gamma"]
    b = gamma ** (p * (1.0 - alpha + strong["winning_epsilon"]))
    exponent = _net(alpha, gamma) + math.log(mgf_neg(1.0 / b, p)) + 1.0
    assert exponent == pytest.approx(d["lambda_min_margin"], abs=1e-12)
    gamma, rho = strong["winning_gamma"], strong["rho_bound"]
    a, t = 0.5 * strong["lambda_min"] * (1.0 - gamma**p) / rho, d["rho_stage_t"]
    exponent = B.binary_entropy(rho) * math.log(2.0) + _net(alpha, gamma) + rho * (log_mgf_pos(t, p) - a * t)
    assert exponent == pytest.approx(d["rho_stage_margin"], abs=1e-12)

    weak = B.weak_bound(alpha, p, cfg).to_record(cfg)
    d, rho = weak["detail"], weak["rho_bound"]
    margins = []
    a, t = d["lambda_tilde_a"], d["lambda_tilde_t"]
    exponent = _net(alpha, weak["winning_gamma"]) + rho * (log_mgf_indicator(t, p) - a * t)
    assert exponent == pytest.approx(d["lambda_tilde_margin"], abs=1e-12)
    assert d["lambda_tilde_max"] == a / (1.0 - weak["winning_gamma"] ** p)
    margins.append(exponent)
    alpha_prime = d["alpha_prime"]
    assert alpha_prime == (alpha - rho) / (1.0 - rho)
    gamma, a, t = (d[f"lambda_max_alpha_prime_{key}"] for key in ("gamma", "a", "t"))
    exponent = _net(alpha_prime, gamma) + log_mgf_pos(t, p) - a * t
    assert exponent == pytest.approx(d["lambda_max_alpha_prime_margin"], abs=1e-12)
    assert d["lambda_max_alpha_prime"] == a / (1.0 - gamma**p)
    margins.append(exponent)
    gamma, eps, t = (d[f"lambda_min_alpha_prime_{key}"] for key in ("gamma", "epsilon", "t"))
    b = gamma ** (p * (1.0 - alpha_prime + eps))
    assert t == 1.0 / b
    exponent = _net(alpha_prime, gamma) + math.log(mgf_neg(t, p)) + 1.0
    assert exponent == pytest.approx(d["lambda_min_alpha_prime_margin"], abs=1e-12)
    assert d["lambda_min_alpha_prime"] == pytest.approx(b - gamma**p * d["lambda_max_alpha_prime"], abs=1e-12)
    margins.append(exponent)
    assert max(margins) == pytest.approx(weak["exponent_margin"], abs=1e-12)
    assert max(margins) < 0.0


def test_every_coefficient_stage_is_tight_to_the_slack_not_to_a_tol():
    # even on a coarse a_tol each stage sits a relative 1e-7 past its
    # boundary, so a 1e-6 step toward the boundary leaves certification
    alpha, p, ln2 = 0.9, 0.5, math.log(2.0)
    base = B.ExponentSearchConfig.default(alpha, gamma_points=6, epsilon_points=4)
    cfg = B.ExponentSearchConfig(gamma_grid=base.gamma_grid, epsilon_grid=base.epsilon_grid, a_tol=3e-2)

    def upper(alpha_, gamma, a):
        return _net(alpha_, gamma) + B.chernoff_upper_exponent(a, p, cfg)[1]

    strong = B.strong_bound(alpha, p, cfg)
    gamma = strong.detail["lambda_max_gamma"]
    a = strong.lambda_max * (1.0 - gamma**p)
    assert upper(alpha, gamma, a) < 0.0 <= upper(alpha, gamma, a * (1.0 - 1e-6))
    gamma = strong.winning_gamma
    h = 0.5 * strong.lambda_min * (1.0 - gamma**p)

    def rho_stage(rho):
        return B.binary_entropy(rho) * ln2 + _net(alpha, gamma) + rho * B.chernoff_upper_exponent(h / rho, p, cfg)[1]

    assert rho_stage(strong.rho_bound) < 0.0 <= rho_stage(strong.rho_bound * (1.0 + 1e-6))

    weak = B.weak_bound(alpha, p, cfg)
    d, rho, gamma = weak.detail, weak.rho_bound, weak.winning_gamma

    def tilde(a):
        return _net(alpha, gamma) + rho * B.chernoff_indicator_exponent(a, p, cfg)[1]

    a = d["lambda_tilde_a"]
    assert tilde(a) < 0.0 <= tilde(a * (1.0 - 1e-6))
    gamma, a = d["lambda_max_alpha_prime_gamma"], d["lambda_max_alpha_prime_a"]
    assert upper(d["alpha_prime"], gamma, a) < 0.0 <= upper(d["alpha_prime"], gamma, a * (1.0 - 1e-6))


def test_weak_bound_rejects_an_infeasible_rho_below_a_certified_one(monkeypatch):
    alpha, p = 0.9, 0.5
    cfg = _record_config(alpha)
    rho = B.weak_bound(alpha, p, cfg).rho_bound
    # the halving probe alpha / 2^k that first certified, strictly below the bound
    probe = alpha / 2.0
    while probe >= rho:
        probe /= 2.0
    infeasible_alpha_prime = (alpha - probe) / (1.0 - probe)
    lambda_min_detail = B._lambda_min_detail

    def patched(alpha_prime, *args, **kwargs):
        if alpha_prime == infeasible_alpha_prime:
            raise B.InfeasibleBoundError("patched: no feasible pair")
        return lambda_min_detail(alpha_prime, *args, **kwargs)

    monkeypatch.setattr(B, "_lambda_min_detail", patched)
    with pytest.raises(B.MonotonicityError, match="infeasible below the certified"):
        B.weak_bound(alpha, p, cfg)


@pytest.mark.parametrize(
    "run",
    [
        lambda cfg: B.compute_lambda_max(0.9, 0.5, cfg),
        lambda cfg: B.compute_lambda_tilde_max(0.9, 0.5, 0.1, cfg),
        lambda cfg: B.strong_bound(0.9, 0.5, cfg),
    ],
    ids=["upper", "indicator", "strong-rho"],
)
def test_one_moment_pass_per_rate_evaluation(monkeypatch, run):
    # every function a tilt root is taken of (the rate I(t) = t Lambda' - Lambda
    # of either family, the strong rho stage's gain, the tilted mean) makes
    # exactly one gaussian._tilted_moments pass per evaluation
    from lprecovery import gaussian

    passes, per_evaluation = [0], []
    tilted_moments, solve_tilt = gaussian._tilted_moments, B._solve_tilt

    def counted_moments(*args):
        passes[0] += 1
        return tilted_moments(*args)

    def counted_solve(fn, *args):
        def counted(t):
            before = passes[0]
            value = fn(t)
            per_evaluation.append(passes[0] - before)
            return value

        return solve_tilt(counted, *args)

    monkeypatch.setattr(gaussian, "_tilted_moments", counted_moments)
    monkeypatch.setattr(B, "_solve_tilt", counted_solve)
    run(_record_config(0.9))
    assert len(per_evaluation) > 20
    assert set(per_evaluation) == {1}


@pytest.mark.parametrize(
    "fn, root, floor",
    [
        (lambda t: 1.0 + t, 1e-6, 0.0),  # nearly flat in log-log at the root
        (lambda t: 1.0 + t, 1e-6, 1.0),  # the same, an exact power once fn(0+) is subtracted
        (lambda t: t**0.2, 3e3, 0.0),  # an exact power
        (lambda t: 2.0 * t - 1.0, 0.75, 0.0),  # negative below t = 1/2
        (lambda t: math.floor(1e3 * t) / 1e3 + 1e-6 * t, 0.3712, 0.0),  # steps
    ],
    ids=["flat", "flat-floor", "power", "negative", "steps"],
)
def test_solve_tilt_brackets_the_root_from_any_hint(fn, root, floor):
    # the result has a sign change within t_tol whatever the hint, including
    # hints past the tilt cap, and costs few evaluations beyond the factor-4
    # steps that the distance from the hint needs
    t_tol, target = 1e-10, fn(root)
    for hint in (root * 1e-6, root, root * 1e6, 1e20):
        evaluations = []
        t = B._solve_tilt(lambda s: evaluations.append(s) or fn(s), target, t_tol, hint, 1.0, floor)
        width = t_tol + 1e-15 * t
        assert fn(t - width) <= target < fn(t + width)
        assert len(evaluations) <= 20 + abs(math.log(min(hint, B._T_MAX) / root, 4.0))


def test_solve_tilt_edge_roots(monkeypatch):
    # a root in (0, t_tol] returns a t at most t_tol; a root at infinity and a
    # root past the tilt cap raise
    t = B._solve_tilt(lambda s: s, 1e-12, 1e-10, 1.0)
    assert 1e-12 <= t <= 1e-10
    with pytest.raises(B.UnboundedSearchError):
        B._solve_tilt(lambda s: -math.expm1(-s), 1.0, 1e-10, 1.0)
    monkeypatch.setattr(B, "_T_MAX", 3.0)
    with pytest.raises(B.UnboundedSearchError):
        B._solve_tilt(lambda s: s, 5.0, 1e-10, 100.0)


def test_non_finite_tilt_inputs_are_value_errors():
    for solve in (B.chernoff_upper_exponent, B.chernoff_indicator_exponent):
        for p in (1.0, 0.5):
            for a in (math.inf, math.nan):
                with pytest.raises(ValueError, match="finite"):
                    solve(a, p)


# the benchmark's weak_bound tilt coefficients, at p = 0.3 and t_tol = 1e-9
WEAK_INDICATOR_COEFFICIENTS = (0.85, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.8, 2.0)
WEAK_UPPER_COEFFICIENTS = (1.1, 1.2, 1.25, 1.45, 1.75)


def test_cold_tilt_solves_take_few_moment_passes(monkeypatch):
    # a cold public solve costs one order-0 pass for its value and, on
    # average, at most 5 order-1 passes for the tilted mean
    from lprecovery import gaussian

    passes = {0: 0, 1: 0}
    tilted_moments = gaussian._tilted_moments

    def counted(t, p, order):
        passes[order] += 1
        return tilted_moments(t, p, order)

    monkeypatch.setattr(gaussian, "_tilted_moments", counted)
    cfg = B.ExponentSearchConfig(t_tol=1e-9)
    solves = [(B.chernoff_indicator_exponent, a) for a in WEAK_INDICATOR_COEFFICIENTS]
    solves += [(B.chernoff_upper_exponent, a) for a in WEAK_UPPER_COEFFICIENTS]
    for solve, a in solves:
        before = passes[0]
        solve(a, 0.3, cfg)
        assert passes[0] == before + 1
    assert passes[1] <= 5 * len(solves)
