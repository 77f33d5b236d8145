"""Finite undersampling-ratio recovery bounds via Chernoff exponents.

For a Gaussian null-space basis B (n rows, (1-alpha)n columns) the chain of
high-probability bounds is, writing net(gamma) = (1-alpha) log(1 + 2/gamma)
for the covering-number term of a gamma-net on the unit sphere:

* ``compute_lambda_max``   smallest a with
      net(gamma) + min_{t>0}[ log E e^{t|X|^p} - a t ] < 0,
  minimized over gamma as a / (1 - gamma^p); upper bound on ||Bz||_p^p / n.

* ``compute_lambda_min``   largest  b - gamma^p * lambda_max  over feasible
  (gamma, eps), b = gamma^{p(1-alpha+eps)}, feasibility meaning
      net(gamma) + log E e^{-t|X|^p} + 1 < 0  at  t = 1/b;
  lower bound on ||Bz||_p^p / n.

* ``strong_bound``         largest rho with
      H(rho) log 2 + net(gamma) + min_{t>0}[ rho log E e^{t|X|^p}
                                             - t lambda_min (1-gamma^p)/2 ] < 0,
  maximized over gamma; sparsity ratio below which every support of size
  rho*n satisfies the strong null-space condition w.h.p.

* ``compute_lambda_tilde_max`` / ``weak_bound``  the analogous chain for a
  fixed support and sign pattern, built on the sign-mismatch MGF
  E e^{t|X|^p S} and the fixed-point inequality
      rho * lt_max(alpha, p, rho) <= (1-rho) * lambda_min((alpha-rho)/(1-rho), p).

All inner minimizations over t are convex, so the minimizer is the root of
the stationarity equation: the tilted mean d/dt log E e^{t|X|^p} equals the
linear-term coefficient.  It is bracketed geometrically from a warm start
(the minimizer at the previous bisection step) and solved by brentq; the
returned exponent is the objective evaluated exactly at that tilt, which
bounds the minimum from above, so search precision only affects tightness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .gaussian import (
    abs_moment,
    indicator_tilted_moment_ratio,
    log_mgf_indicator,
    log_mgf_pos,
    mgf_neg,
    mgf_neg_log_upper_bound,
    tilted_moment_ratio,
)
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig

__all__ = [
    "ExponentSearchConfig",
    "BoundResult",
    "BoundSearchError",
    "UnboundedSearchError",
    "InfeasibleBoundError",
    "MonotonicityError",
    "binary_entropy",
    "chernoff_upper_exponent",
    "chernoff_indicator_exponent",
    "compute_lambda_max",
    "compute_lambda_min",
    "compute_lambda_tilde_max",
    "strong_bound",
    "weak_bound",
]

_A_CAP = 1e6


class BoundSearchError(RuntimeError):
    """Base class for failures of the exponent-optimization chains."""


class UnboundedSearchError(BoundSearchError):
    """No tilt coefficient below the safety cap made the exponent negative."""


class InfeasibleBoundError(BoundSearchError):
    """No (gamma, eps) pair passed the feasibility test; grids too coarse."""


class MonotonicityError(BoundSearchError):
    """A monotonicity assumption of the weak-bound bisection failed."""


@dataclass(frozen=True)
class ExponentSearchConfig:
    """Grids and tolerances for the nested exponent optimizations.

    ``t_max`` caps the tilt t; a stationarity root beyond it raises
    :class:`UnboundedSearchError`.  ``t_tol`` is the widest final bracket
    on the tilt root: the returned t lies within ``t_tol`` of the point
    where the tilted mean equals the coefficient.  ``a_tol`` is the
    bisection tolerance on coefficients and sparsity ratios, and
    ``rho_grid_resolution`` sets the smallest sparsity fraction probed when
    bracketing (range / resolution).
    """

    gamma_grid: tuple = field(default_factory=tuple)
    epsilon_grid: tuple = field(default_factory=tuple)
    t_max: float = 1e12
    t_tol: float = 1e-10
    a_tol: float = 1e-6
    rho_grid_resolution: int = 4096

    def __post_init__(self) -> None:
        if not all(0.0 < gamma < 1.0 for gamma in self.gamma_grid):
            raise ValueError("gamma grid entries must lie in (0, 1)")
        if list(self.gamma_grid) != sorted(self.gamma_grid):
            raise ValueError("gamma grid must be sorted ascending")
        if not (self.t_tol > 0 and self.a_tol > 0):
            raise ValueError("tolerances must be positive")

    @classmethod
    def default(cls, alpha: float, gamma_points: int = 60, epsilon_points: int = 20) -> "ExponentSearchConfig":
        """Default grids: log-spaced gamma in [1e-6, 0.9], linear eps in (0, alpha]."""
        gammas = tuple(np.geomspace(1e-6, 0.9, gamma_points))
        epsilons = tuple(np.linspace(alpha / epsilon_points, alpha, epsilon_points))
        return cls(gamma_grid=gammas, epsilon_grid=epsilons)


@dataclass(frozen=True)
class BoundResult:
    """A certified sparsity-ratio bound with the parameters that achieved it.

    ``exponent_margin`` is the largest (closest to zero) probability exponent
    among the bounds backing the result; it is strictly negative whenever the
    result is valid.
    """

    alpha: float
    p: float
    lambda_max: float
    lambda_min: float
    rho_bound: float
    winning_gamma: float
    winning_epsilon: float
    exponent_margin: float
    detail: dict = field(default_factory=dict, compare=False)

    def to_record(self, cfg: ExponentSearchConfig) -> dict:
        """JSON-ready record carrying the grids, so the number is reproducible."""
        return {
            "alpha": self.alpha,
            "p": self.p,
            "lambda_max": self.lambda_max,
            "lambda_min": self.lambda_min,
            "rho_bound": self.rho_bound,
            "winning_gamma": self.winning_gamma,
            "winning_epsilon": self.winning_epsilon,
            "exponent_margin": self.exponent_margin,
            "detail": self.detail,
            "search_config": {
                "gamma_grid": list(cfg.gamma_grid),
                "epsilon_grid": list(cfg.epsilon_grid),
                "t_max": cfg.t_max,
                "t_tol": cfg.t_tol,
                "a_tol": cfg.a_tol,
                "rho_grid_resolution": cfg.rho_grid_resolution,
            },
        }


def binary_entropy(rho: float) -> float:
    """Binary entropy in bits, with H(0) = H(1) = 0."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if rho in (0.0, 1.0):
        return 0.0
    return -rho * math.log2(rho) - (1.0 - rho) * math.log2(1.0 - rho)


def _solve_tilt(mean_fn, a: float, t_max: float, t_tol: float, hint: float) -> float:
    """Root of the tilted mean, mean_fn(t) = a, on (0, t_max].

    The tilted mean is increasing in t and starts below a at t = 0, so a
    bracket grown by factors of 4 from ``hint`` (a warm start, or a cold
    guess) holds the root; brentq then narrows it to at most ``t_tol``.
    """
    known = {}

    def excess(t):
        if t not in known:
            known[t] = mean_fn(t) - a
        return known[t]

    lo = hi = min(hint, t_max)
    if excess(hi) > 0.0:
        lo = hi / 4.0
        while excess(lo) > 0.0:
            if lo <= t_tol:
                return lo  # the root lies in (0, lo]
            hi, lo = lo, lo / 4.0
    else:
        while excess(hi) <= 0.0:
            if hi >= t_max:
                raise UnboundedSearchError(f"tilt bracket exceeded t_max={t_max:g}")
            lo, hi = hi, min(4.0 * hi, t_max)
    return brentq(excess, lo, hi, xtol=t_tol)


def _chernoff_exponent(log_mgf_fn, mean_fn, a: float, p: float, cfg, hint):
    """min_{t>0} [ log_mgf_fn(t) - a t ] -> (t_opt, value) via the stationarity root.

    The value is the objective evaluated exactly at t_opt, which bounds the
    minimum from above at any t > 0; search precision only affects tightness.
    """
    t_max = cfg.t_max if cfg is not None else 1e12
    t_tol = cfg.t_tol if cfg is not None else 1e-10
    if hint is None:
        # large-a asymptote of the tilted mean: (p t)^(p / (2 - p)) = a
        hint = math.exp(min((2.0 - p) / p * math.log(a) - math.log(p), math.log(t_max)))
    t_opt = _solve_tilt(mean_fn, a, t_max, t_tol, hint)
    return t_opt, log_mgf_fn(t_opt) - a * t_opt


def chernoff_upper_exponent(
    a: float,
    p: float,
    cfg: ExponentSearchConfig | None = None,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
    _hint=None,
):
    """min_{t>0} [ log E e^{t|X|^p} - a t ] -> (t_opt, value).

    Requires a > E[|X|^p]; the objective is convex with a unique interior
    minimum and the minimum value is strictly negative.  ``_hint`` is a
    warm-start tilt, typically the minimizer at a nearby coefficient.
    """
    mu = abs_moment(p)
    if not a > mu:
        raise ValueError(f"need a > E[|X|^p] = {mu:.6f}, got a = {a}")
    return _chernoff_exponent(
        lambda t: log_mgf_pos(t, p, quad), lambda t: tilted_moment_ratio(t, p, quad), a, p, cfg, _hint
    )


def chernoff_indicator_exponent(
    a_tilde: float,
    p: float,
    cfg: ExponentSearchConfig | None = None,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
    _hint=None,
):
    """min_{t>0} [ log E e^{t|X|^p S} - a_tilde t ] -> (t_opt, value).

    S is the Bernoulli(1/2) sign-mismatch indicator, so the moment condition
    is a_tilde > E[|X|^p] / 2.
    """
    mu_half = 0.5 * abs_moment(p)
    if not a_tilde > mu_half:
        raise ValueError(f"need a_tilde > E[|X|^p S] = {mu_half:.6f}, got {a_tilde}")
    return _chernoff_exponent(
        lambda t: log_mgf_indicator(t, p, quad),
        lambda t: indicator_tilted_moment_ratio(t, p, quad),
        a_tilde,
        p,
        cfg,
        _hint,
    )


def _net_term(alpha: float, gamma: float) -> float:
    return (1.0 - alpha) * math.log1p(2.0 / gamma)


def _validate_alpha_p(alpha: float, p: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")


def _smallest_feasible_coefficient(exponent_at, lo_start: float, a_tol: float):
    """Bisect for the smallest coefficient making ``exponent_at`` negative.

    ``exponent_at(a)`` must be continuous and decreasing.  Returns
    (a, exponent(a), t_opt(a)) with the exponent strictly negative at a.
    """
    lo = lo_start  # infinitesimally above the moment: exponent > 0 there
    hi = max(2.0 * lo_start, 1.0)
    hint = None
    while True:
        val, t_opt = exponent_at(hi, hint)
        hint = t_opt
        if val < 0.0:
            break
        hi *= 2.0
        if hi > _A_CAP:
            raise UnboundedSearchError(f"no coefficient below {_A_CAP:g} made the exponent negative")
    val_hi, t_hi = val, t_opt
    while hi - lo > a_tol:
        mid = 0.5 * (lo + hi)
        val, t_opt = exponent_at(mid, hint)
        hint = t_opt
        if val < 0.0:
            hi, val_hi, t_hi = mid, val, t_opt
        else:
            lo = mid
    return hi, val_hi, t_hi


def _lambda_max_detail(alpha: float, p: float, cfg: ExponentSearchConfig, quad: QuadratureConfig) -> dict:
    _validate_alpha_p(alpha, p)
    mu = abs_moment(p)
    best = None
    for gamma in cfg.gamma_grid:
        shrink = 1.0 - gamma**p
        if best is not None and mu / shrink >= best["value"]:
            continue  # a > mu always, so this gamma cannot win
        net = _net_term(alpha, gamma)

        def exponent_at(a, hint):
            t_opt, val = chernoff_upper_exponent(a, p, cfg, quad, _hint=hint)
            return net + val, t_opt

        a, margin, t_opt = _smallest_feasible_coefficient(exponent_at, mu * (1.0 + 1e-9), cfg.a_tol)
        candidate = a / shrink
        if best is None or candidate < best["value"]:
            best = {"value": candidate, "gamma": gamma, "a": a, "margin": margin, "t_opt": t_opt}
    if best is None:
        raise InfeasibleBoundError("empty gamma grid")
    return best


def compute_lambda_max(
    alpha: float,
    p: float,
    cfg: ExponentSearchConfig | None = None,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """High-probability upper bound on ||Bz||_p^p / n over the unit sphere."""
    cfg = cfg or ExponentSearchConfig.default(alpha)
    return _lambda_max_detail(alpha, p, cfg, quad)["value"]


def _lambda_min_detail(
    alpha: float,
    p: float,
    cfg: ExponentSearchConfig,
    quad: QuadratureConfig,
    lambda_max: float | None = None,
) -> dict:
    _validate_alpha_p(alpha, p)
    if lambda_max is None:
        lambda_max = _lambda_max_detail(alpha, p, cfg, quad)["value"]
    best = None
    for gamma in cfg.gamma_grid:
        gp = gamma**p
        net = _net_term(alpha, gamma)
        for eps in cfg.epsilon_grid:
            if not 0.0 < eps <= alpha:
                continue
            b = gamma ** (p * (1.0 - alpha + eps))
            candidate = b - gp * lambda_max
            if candidate <= 0.0 or (best is not None and candidate <= best["value"]):
                continue
            t = 1.0 / b
            # closed-form bound first (cheap); exact MGF evaluation rescues
            # pairs the loose bound rejects
            margin = net + mgf_neg_log_upper_bound(t, p) + 1.0
            if margin >= 0.0:
                margin = net + math.log(mgf_neg(t, p, quad)) + 1.0
                if margin >= 0.0:
                    continue
            best = {"value": candidate, "gamma": gamma, "epsilon": eps, "t": t, "margin": margin}
    if best is None:
        raise InfeasibleBoundError(
            f"no feasible (gamma, eps) pair for alpha={alpha}, p={p}; refine the grids"
        )
    # report the exact exponent for the winner
    best["margin"] = _net_term(alpha, best["gamma"]) + math.log(mgf_neg(best["t"], p, quad)) + 1.0
    return best


def compute_lambda_min(
    alpha: float,
    p: float,
    cfg: ExponentSearchConfig | None = None,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """High-probability lower bound on ||Bz||_p^p / n over the unit sphere."""
    cfg = cfg or ExponentSearchConfig.default(alpha)
    return _lambda_min_detail(alpha, p, cfg, quad)["value"]


def strong_bound(
    alpha: float,
    p: float,
    cfg: ExponentSearchConfig | None = None,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> BoundResult:
    """Sparsity-ratio bound for strong recovery at undersampling ratio alpha.

    Every support of size up to rho_bound * n satisfies the strong null-space
    condition with probability 1 - e^{-c n}; the returned exponent margin is
    the bottleneck exponent of the union bound.
    """
    _validate_alpha_p(alpha, p)
    cfg = cfg or ExponentSearchConfig.default(alpha)
    lam_max = _lambda_max_detail(alpha, p, cfg, quad)
    lam_min = _lambda_min_detail(alpha, p, cfg, quad, lam_max["value"])
    mu = abs_moment(p)
    ln2 = math.log(2.0)
    best = None
    for gamma in cfg.gamma_grid:
        shrink = 1.0 - gamma**p
        half_mass = 0.5 * lam_min["value"] * shrink
        rho_cap = half_mass / mu  # keeps the inner minimizer strictly positive
        if best is not None and rho_cap <= best["rho"]:
            continue
        net = _net_term(alpha, gamma)
        hint = None

        def exponent_at(rho):
            nonlocal hint
            t_opt, val = chernoff_upper_exponent(half_mass / rho, p, cfg, quad, _hint=hint)
            hint = t_opt
            return binary_entropy(rho) * ln2 + net + rho * val

        hi = rho_cap * (1.0 - 1e-9)
        rho_floor = rho_cap / cfg.rho_grid_resolution
        lo = None
        probe = rho_cap / 2.0
        try:
            while probe >= rho_floor:
                e = exponent_at(probe)
                if e < 0.0:
                    lo, margin, t_margin = probe, e, hint
                    break
                probe /= 2.0
            if lo is None:
                continue  # no feasible sparsity at this gamma
            e_hi = exponent_at(hi)
            if e_hi < 0.0:
                lo, margin, t_margin = hi, e_hi, hint
            else:
                while hi - lo > cfg.a_tol:
                    mid = 0.5 * (lo + hi)
                    e = exponent_at(mid)
                    if e < 0.0:
                        lo, margin, t_margin = mid, e, hint
                    else:
                        hi = mid
        except UnboundedSearchError:
            # shrinking rho pushed the tilt beyond t_max; this gamma cannot
            # be certified on the current budget
            continue
        if best is None or lo > best["rho"]:
            best = {"rho": lo, "gamma": gamma, "margin": margin, "t_opt": t_margin}
    if best is None:
        raise InfeasibleBoundError(f"no feasible sparsity ratio for alpha={alpha}, p={p}")
    overall_margin = max(best["margin"], lam_max["margin"], lam_min["margin"])
    return BoundResult(
        alpha=alpha,
        p=p,
        lambda_max=lam_max["value"],
        lambda_min=lam_min["value"],
        rho_bound=best["rho"],
        winning_gamma=best["gamma"],
        winning_epsilon=lam_min["epsilon"],
        exponent_margin=overall_margin,
        detail={
            "rho_stage_margin": best["margin"],
            "lambda_max_margin": lam_max["margin"],
            "lambda_min_margin": lam_min["margin"],
            "lambda_max_gamma": lam_max["gamma"],
            "lambda_min_gamma": lam_min["gamma"],
            "lambda_max_t": lam_max["t_opt"],
            "rho_stage_t": best["t_opt"],
        },
    )


def _lambda_tilde_detail(
    alpha: float, p: float, rho: float, cfg: ExponentSearchConfig, quad: QuadratureConfig
) -> dict:
    _validate_alpha_p(alpha, p)
    if not 0.0 < rho < alpha:
        raise ValueError(f"need 0 < rho < alpha, got rho={rho}, alpha={alpha}")
    mu_half = 0.5 * abs_moment(p)
    best = None
    for gamma in cfg.gamma_grid:
        shrink = 1.0 - gamma**p
        if best is not None and mu_half / shrink >= best["value"]:
            continue
        net = _net_term(alpha, gamma)

        def exponent_at(a_tilde, hint):
            t_opt, val = chernoff_indicator_exponent(a_tilde, p, cfg, quad, _hint=hint)
            return net + rho * val, t_opt

        a_tilde, margin, t_opt = _smallest_feasible_coefficient(
            exponent_at, mu_half * (1.0 + 1e-9), cfg.a_tol
        )
        candidate = a_tilde / shrink
        if best is None or candidate < best["value"]:
            best = {"value": candidate, "gamma": gamma, "a_tilde": a_tilde, "margin": margin, "t_opt": t_opt}
    if best is None:
        raise InfeasibleBoundError("empty gamma grid")
    return best


def compute_lambda_tilde_max(
    alpha: float,
    p: float,
    rho: float,
    cfg: ExponentSearchConfig | None = None,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Upper bound on the sign-mismatch sub-sum ||B_{T-}z||_p^p / (rho n)."""
    cfg = cfg or ExponentSearchConfig.default(alpha)
    return _lambda_tilde_detail(alpha, p, rho, cfg, quad)["value"]


def weak_bound(
    alpha: float,
    p: float,
    cfg: ExponentSearchConfig | None = None,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> BoundResult:
    """Sparsity-ratio bound for weak recovery (one support, one sign pattern).

    Bisects for the largest rho satisfying

        rho * lt_max(alpha, p, rho) <= (1 - rho) * lambda_min(alpha', p),
        alpha' = (alpha - rho) / (1 - rho).

    Validity of the bisection rests on monotonicity of both sides in rho;
    the iterates are checked at runtime and a violation aborts rather than
    silently returning.  A rho whose lambda chain is infeasible on the
    current grids counts as not certified (predicate false).
    """
    _validate_alpha_p(alpha, p)
    cfg = cfg or ExponentSearchConfig.default(alpha)
    evaluations = []

    def predicate(rho: float):
        lt = _lambda_tilde_detail(alpha, p, rho, cfg, quad)
        alpha_prime = (alpha - rho) / (1.0 - rho)
        try:
            lam_max_prime = _lambda_max_detail(alpha_prime, p, cfg, quad)
            lam_min_prime = _lambda_min_detail(alpha_prime, p, cfg, quad, lam_max_prime["value"])
        except (InfeasibleBoundError, UnboundedSearchError):
            return False, {"rho": rho, "lt": lt, "infeasible": True}
        ok = rho * lt["value"] <= (1.0 - rho) * lam_min_prime["value"]
        info = {
            "rho": rho,
            "alpha_prime": alpha_prime,
            "lt": lt,
            "lam_min": lam_min_prime,
            "lam_max": lam_max_prime,
            "infeasible": False,
        }
        evaluations.append(info)
        return ok, info

    lo_info = None
    rho_floor = alpha / cfg.rho_grid_resolution
    probe = alpha / 2.0
    while probe >= rho_floor:
        ok, info = predicate(probe)
        if ok:
            lo, lo_info = probe, info
            break
        probe /= 2.0
    if lo_info is None:
        raise InfeasibleBoundError(f"no certifiable sparsity ratio above {rho_floor:g}")
    hi = alpha * (1.0 - 1e-9)
    ok_hi, hi_info = predicate(hi)
    if ok_hi:
        lo, lo_info = hi, hi_info
    else:
        while hi - lo > cfg.a_tol:
            mid = 0.5 * (lo + hi)
            ok, info = predicate(mid)
            if ok:
                lo, lo_info = mid, info
            else:
                hi = mid
    _check_weak_monotonicity(evaluations, cfg.a_tol)
    lt = lo_info["lt"]
    lam_min = lo_info["lam_min"]
    lam_max = lo_info["lam_max"]
    margin = max(lt["margin"], lam_min["margin"], lam_max["margin"])
    return BoundResult(
        alpha=alpha,
        p=p,
        lambda_max=lt["value"],
        lambda_min=lam_min["value"],
        rho_bound=lo,
        winning_gamma=lt["gamma"],
        winning_epsilon=lam_min["epsilon"],
        exponent_margin=margin,
        detail={
            "lambda_tilde_max": lt["value"],
            "lambda_min_alpha_prime": lam_min["value"],
            "lambda_max_alpha_prime": lam_max["value"],
            "slack": (1.0 - lo) * lam_min["value"] - lo * lt["value"],
            "alpha_prime": lo_info["alpha_prime"],
            "lambda_tilde_a": lt["a_tilde"],
            "lambda_tilde_t": lt["t_opt"],
            "lambda_tilde_margin": lt["margin"],
            "lambda_max_alpha_prime_gamma": lam_max["gamma"],
            "lambda_max_alpha_prime_a": lam_max["a"],
            "lambda_max_alpha_prime_t": lam_max["t_opt"],
            "lambda_max_alpha_prime_margin": lam_max["margin"],
            "lambda_min_alpha_prime_gamma": lam_min["gamma"],
            "lambda_min_alpha_prime_epsilon": lam_min["epsilon"],
            "lambda_min_alpha_prime_t": lam_min["t"],
            "lambda_min_alpha_prime_margin": lam_min["margin"],
        },
    )


def _check_weak_monotonicity(evaluations, a_tol: float) -> None:
    """The bisection needs rho*lt_max nondecreasing and lambda_min
    nonincreasing in rho; verify on the evaluated iterates."""
    tol = 10.0 * a_tol + 1e-12
    pts = sorted(evaluations, key=lambda e: e["rho"])
    for prev, cur in zip(pts, pts[1:]):
        lhs_prev = prev["rho"] * prev["lt"]["value"]
        lhs_cur = cur["rho"] * cur["lt"]["value"]
        if lhs_cur < lhs_prev - tol:
            raise MonotonicityError(
                f"rho * lambda_tilde_max decreased from {lhs_prev:.6g} at rho={prev['rho']:.6g} "
                f"to {lhs_cur:.6g} at rho={cur['rho']:.6g}"
            )
        if cur["lam_min"]["value"] > prev["lam_min"]["value"] + tol:
            raise MonotonicityError(
                f"lambda_min increased from {prev['lam_min']['value']:.6g} to "
                f"{cur['lam_min']['value']:.6g} as rho grew"
            )
