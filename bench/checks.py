"""Checks of the package's outputs against computations made apart from it.

Nothing here calls the package's numerics: the tilted log-MGF is the
closed form log 2 + t^2/2 + log Phi(t) at p = 1 and ``scipy.integrate.quad``
below, its minimum over t comes from ``scipy.optimize``, the limiting
threshold from the incomplete-gamma inverse, and weak-l1 verdicts from an
exact linear program.  The one package function the checks rely on is
``sample_gaussian_matrix``, with which ``workloads.py`` rebuilds a probe's
kernel from the seed its record names.

Every check raises ``CheckFailed`` with a message naming what disagreed.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, optimize, special

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
MARGIN_TOL = 1e-9  # recorded stage margins against their rebuilt values
LIMIT_TOL = 1e-9  # rho*(p) against its closed form
FEASIBILITY_TOL = 1e-8
L1_OPTIMALITY_TOL = 1e-9
RECOVERY_TOL = 1e-4  # l2 error that counts as recovered, as in the package's protocol
WEAK_LIMIT = 2.0 / 3.0


class CheckFailed(AssertionError):
    """An output of the package disagreed with its independent re-check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _quad(f, lo: float, hi: float) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def log_mgf(t: float, p: float) -> float:
    """log E exp(t |X|^p) for X ~ N(0, 1) and t >= 0."""
    if p == 1.0:
        return math.log(2.0) + 0.5 * t * t + float(special.log_ndtr(t))
    peak = (p * t) ** (1.0 / (2.0 - p)) if t > 0 else 0.0
    g_max = t * peak**p - 0.5 * peak * peak

    def f(x):
        return math.exp(t * x**p - 0.5 * x * x - g_max)

    value = _quad(f, 0.0, peak) + _quad(f, peak, math.inf)
    return math.log(SQRT_2_OVER_PI * value) + g_max


def log_mgf_indicator(t: float, p: float) -> float:
    """log E exp(t |X|^p S) with S ~ Bernoulli(1/2): log((e^Lambda + 1) / 2)."""
    return float(np.logaddexp(log_mgf(t, p), 0.0)) - math.log(2.0)


def log_mgf_neg(t: float, p: float) -> float:
    """log E exp(-t |X|^p) for t > 0, integrated on the scale x = t^(-1/p) y."""
    s = t ** (-1.0 / p)

    def f(y):
        return math.exp(-(y**p) - 0.5 * (s * y) ** 2)

    return math.log(SQRT_2_OVER_PI * s * (_quad(f, 0.0, 1.0) + _quad(f, 1.0, math.inf)))


def chernoff_min(log_mgf_fn, a: float) -> float:
    """min over t > 0 of log_mgf_fn(t) - a t, for a above the mean (convex objective)."""

    def phi(t):
        return log_mgf_fn(t) - a * t

    lo, t, f_t = 0.0, 1e-3, phi(1e-3)
    while True:
        f_next = phi(2.0 * t)
        if f_next > f_t:
            break
        lo, t, f_t = t, 2.0 * t, f_next
        require(t < 1e12, f"no minimum of the tilt objective below t = 1e12 (a = {a})")
    res = optimize.minimize_scalar(phi, bounds=(lo, 2.0 * t), method="bounded", options={"xatol": 1e-12})
    return float(min(res.fun, f_t))


def net_term(alpha: float, gamma: float) -> float:
    return (1.0 - alpha) * math.log(1.0 + 2.0 / gamma)


def entropy_nats(rho: float) -> float:
    return -rho * math.log(rho) - (1.0 - rho) * math.log(1.0 - rho)


def limit_rho_star(p: float) -> float:
    """rho*(p) = erfc(sqrt(gammaincinv((p + 1) / 2, 1 / 2)))."""
    return float(special.erfc(math.sqrt(special.gammaincinv(0.5 * (p + 1.0), 0.5))))


def _stage(name: str, exponent: float, recorded: float) -> None:
    require(exponent < 0.0, f"{name} stage exponent {exponent:.6e} is not negative")
    require(
        abs(exponent - recorded) <= MARGIN_TOL,
        f"{name} stage exponent {exponent:.15e} differs from the recorded margin {recorded:.15e}",
    )


def check_strong_bound(result) -> None:
    """Rebuild the three stage exponents of a strong BoundResult from the record alone."""
    alpha, p, detail = result.alpha, result.p, result.detail

    def lam(t):
        return log_mgf(t, p)

    gamma = detail["lambda_max_gamma"]
    a = result.lambda_max * (1.0 - gamma**p)
    _stage("lambda_max", net_term(alpha, gamma) + chernoff_min(lam, a), detail["lambda_max_margin"])

    gamma = detail["lambda_min_gamma"]
    b = gamma ** (p * (1.0 - alpha + result.winning_epsilon))
    exponent = net_term(alpha, gamma) + log_mgf_neg(1.0 / b, p) + 1.0
    _stage("lambda_min", exponent, detail["lambda_min_margin"])
    expected = b - gamma**p * result.lambda_max
    require(
        abs(result.lambda_min - expected) <= 1e-12 * max(1.0, abs(expected)),
        f"lambda_min {result.lambda_min!r} is not b - gamma^p lambda_max = {expected!r}",
    )

    gamma, rho = result.winning_gamma, result.rho_bound
    require(0.0 < rho < 1.0, f"rho_bound {rho!r} outside (0, 1)")
    a = 0.5 * result.lambda_min * (1.0 - gamma**p) / rho
    exponent = entropy_nats(rho) + net_term(alpha, gamma) + rho * chernoff_min(lam, a)
    _stage("rho", exponent, detail["rho_stage_margin"])
    rho_star = limit_rho_star(p)
    require(rho < rho_star, f"strong rho_bound {rho:.6f} at p={p} is not below rho*(p) = {rho_star:.6f}")


def check_tilt(family: str, a: float, p: float, result) -> None:
    """A tilt solve (t_opt, value) against min over t of Lambda(t) - a t, rebuilt here."""
    t_opt, value = result
    lam = log_mgf if family == "upper" else log_mgf_indicator
    label = f"{family} tilt exponent at a={a}, p={p}"
    expected = chernoff_min(lambda t: lam(t, p), a)
    require(value < 0.0, f"{label}: minimum {value:.6e} is not negative")
    require(abs(value - expected) <= MARGIN_TOL, f"{label}: {value:.15e}, rebuilt minimum {expected:.15e}")
    at_t = lam(t_opt, p) - a * t_opt
    require(abs(at_t - value) <= MARGIN_TOL, f"{label}: {value:.15e}, objective at t_opt={t_opt!r} is {at_t:.15e}")


def check_weak_bound(result) -> None:
    """Rebuild the lambda-tilde stage of a weak BoundResult and bound rho_w."""
    alpha, p, rho, gamma = result.alpha, result.p, result.rho_bound, result.winning_gamma
    require(0.0 < rho < WEAK_LIMIT, f"weak rho_bound {rho!r} outside (0, 2/3)")
    a = result.detail["lambda_tilde_max"] * (1.0 - gamma**p)
    exponent = net_term(alpha, gamma) + rho * chernoff_min(lambda t: log_mgf_indicator(t, p), a)
    require(exponent < 0.0, f"lambda_tilde stage exponent {exponent:.6e} is not negative")
    require(
        exponent <= result.exponent_margin + MARGIN_TOL,
        f"lambda_tilde stage exponent {exponent:.15e} exceeds the recorded margin {result.exponent_margin:.15e}",
    )


def check_limit(limit) -> None:
    expected = limit_rho_star(limit.p)
    require(
        abs(limit.rho_star - expected) <= LIMIT_TOL,
        f"rho*({limit.p}) = {limit.rho_star!r}, closed form gives {expected!r}",
    )


def weak_l1_lp_optimum(B: np.ndarray, size: int) -> float:
    """min over ||z||_inf <= 1 of sum_{i<size} (Bz)_i + ||B_{size:} z||_1.

    The all-plus sign pattern on the first ``size`` rows is recovered by l1
    for every amplitude exactly when this optimum is 0; a negative optimum
    is a kernel direction that breaks it.
    """
    support, comp = B[:size], B[size:]
    dim, rest = B.shape[1], comp.shape[0]
    cost = np.concatenate([support.sum(axis=0), np.ones(rest)])
    eye = np.eye(rest)
    a_ub = np.block([[comp, -eye], [-comp, -eye]])
    bounds = [(-1.0, 1.0)] * dim + [(0.0, None)] * rest
    res = optimize.linprog(cost, A_ub=a_ub, b_ub=np.zeros(2 * rest), bounds=bounds, method="highs")
    require(res.status == 0, f"weak-l1 LP did not solve: {res.message}")
    return float(res.fun)


def check_weak_l1_verdict(B: np.ndarray, size: int, holds: bool) -> None:
    optimum = weak_l1_lp_optimum(B, size)
    tol = 1e-9 * float(np.abs(B).sum())
    if holds:
        require(optimum >= -tol, f"verdict 'holds' but the weak-l1 LP optimum is {optimum:.6e} < 0")
    else:
        require(optimum < -tol, f"verdict 'falsified' but the weak-l1 LP optimum is {optimum:.6e}")


def check_falsification_frequency(point: dict, at_most: float | None = None, at_least: float | None = None) -> None:
    freq, rho, p = point["falsification_frequency"], point["rho"], point["p"]
    if at_most is not None:
        require(freq <= at_most, f"falsification frequency {freq} at p={p}, rho={rho} above {at_most}")
    if at_least is not None:
        require(freq >= at_least, f"falsification frequency {freq} at p={p}, rho={rho} below {at_least}")


def check_solution(A: np.ndarray, y: np.ndarray, x_hat: np.ndarray, label: str) -> None:
    residual = float(np.linalg.norm(A @ x_hat - y))
    bound = FEASIBILITY_TOL * (1.0 + float(np.linalg.norm(y)))
    require(residual <= bound, f"{label}: residual {residual:.3e} above {bound:.3e}")


def check_l1_optimality(x_hat: np.ndarray, x_true: np.ndarray, label: str) -> None:
    norm, true_norm = float(np.abs(x_hat).sum()), float(np.abs(x_true).sum())
    require(
        norm <= true_norm * (1.0 + L1_OPTIMALITY_TOL),
        f"{label}: ||x_hat||_1 = {norm!r} exceeds the feasible ||x_true||_1 = {true_norm!r}",
    )


def recovered(x_hat: np.ndarray, x_true: np.ndarray) -> bool:
    return float(np.linalg.norm(x_hat - x_true)) <= RECOVERY_TOL


def check_recovery_rates(rates, instances: int, label: str) -> None:
    """Rate 1 at the smallest sparsity, then non-increasing within 2/instances."""
    require(rates[0] == 1.0, f"{label}: recovery rate {rates[0]} at the smallest sparsity")
    slack = 2.0 / instances
    for lo, hi in zip(rates, rates[1:]):
        require(hi <= lo + slack, f"{label}: recovery rate rose from {lo} to {hi} with sparsity")


def check_layers(metrics: dict, exercised) -> None:
    """A layer the workload exercises must have done work; a zero count fails the run."""
    for name in exercised:
        require(metrics[name][0] > 0, f"layer metric {name} is 0 on a workload that exercises it")
