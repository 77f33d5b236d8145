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

Every stage is parametrized by the tilt t.  Along the Legendre curve
a = Lambda'(t) the inner minimum min_s [ Lambda(s) - a s ] is -I(t), with
I(t) = t Lambda'(t) - Lambda(t) increasing from I(0) = 0, so the smallest
feasible coefficient of a lambda stage is the root of I(t) = net / scale,
and the strong sparsity ratio rho(t) = h / Lambda'(t) turns the rho stage
into a root in t as well.  Each root is solved from a warm start (the root
at the previous gamma) by a safeguarded secant in log t on the log of the
function's rise from t = 0, stopped on a bracket of evaluated signs
(``_solve_tilt``).  The
winning coefficient is re-certified by a public tilt solve, whose exponent
is the objective evaluated exactly at the returned tilt; that bounds the
minimum from above, so search precision only affects tightness.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .gaussian import (
    _log_mgf_and_ratio,
    _to_indicator,
    abs_moment,
    indicator_tilted_moment_ratio,
    log_mgf_indicator,
    log_mgf_pos,
    mgf_neg,
    mgf_neg_log_upper_bound,
    tilted_moment_ratio,
)

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

# Each coefficient stage stops a relative _SLACK past its exact boundary, so
# its margin is about -_SLACK * scale * a * t*; since t Lambda'(t) >= Lambda(t),
# that is at least 1000x the quadrature rel_tol (1e-10) on Lambda.
_SLACK = 1e-7
_LOG_4 = math.log(4.0)
# relative floor of the final tilt bracket, in units of t
_REL_TOL = 4.0 * sys.float_info.epsilon
# interpolated tilt steps allowed before the root is bracketed; later ones grow the bracket
_EXTRAPOLATION_BUDGET = 32
# a public tilt solve subtracts the moment from the tilted mean below this multiple of it
_NEAR_MOMENT = 1.5
# cap on every tilt t; a root past it raises UnboundedSearchError
_T_MAX = 1e12


class BoundSearchError(RuntimeError):
    """Base class for failures of the exponent-optimization chains."""


class UnboundedSearchError(BoundSearchError):
    """A tilt root lies beyond the tilt cap t = 1e12."""


class InfeasibleBoundError(BoundSearchError):
    """No (gamma, eps) pair passed the feasibility test; grids too coarse."""


class MonotonicityError(BoundSearchError):
    """A monotonicity assumption of the weak-bound bisection failed."""


@dataclass(frozen=True)
class ExponentSearchConfig:
    """Grids and tolerances for the nested exponent optimizations.

    The tilt t is capped at 1e12, and a stationarity root beyond the cap
    raises :class:`UnboundedSearchError`.  ``t_tol`` is the widest final
    bracket of evaluated signs on a tilt root (plus 4 ulps of t): the
    returned t, an end of that bracket, lies within ``t_tol`` of the point
    where the tilted mean equals the coefficient, whatever the warm start.
    ``a_tol`` and ``rho_grid_resolution`` serve only ``weak_bound``'s
    bisection on rho: its tolerance, and the smallest sparsity fraction
    probed when bracketing (alpha / resolution).
    """

    gamma_grid: tuple = field(default_factory=tuple)
    epsilon_grid: tuple = field(default_factory=tuple)
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
        if not self.rho_grid_resolution >= 1:
            raise ValueError(f"rho_grid_resolution must be at least 1, got {self.rho_grid_resolution}")

    @classmethod
    def default(cls, alpha: float, gamma_points: int = 60, epsilon_points: int = 20) -> "ExponentSearchConfig":
        """Default grids: log-spaced gamma in [1e-6, 0.9], linear eps in (0, alpha]."""
        if gamma_points < 1 or epsilon_points < 1:
            raise ValueError(f"grids need at least one point, got {gamma_points} gamma and {epsilon_points} eps")
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
                "t_max": _T_MAX,
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


def _solve_tilt(fn, target: float, t_tol: float, hint: float, slope: float = 1.0, floor: float = 0.0) -> float:
    """Root of fn(t) = target on (0, _T_MAX] for any increasing fn below target at 0+.

    Every tilt function here is close to a power of t, at least once its
    value at 0+ is subtracted, so the solve works on y = log((fn - floor) /
    (target - floor)) against u = log t; ``floor`` is 0, or fn(0+) >= 0
    where the caller knows it, and an fn at or below it only tells the side
    of the root.  The first step from ``hint`` (a warm start, or a cold
    guess) takes ``slope`` as the log-slope of fn; later steps interpolate
    u(y) at y = 0 through the current and the last one or two evaluations
    with a finite y, as far as u and y rise together (secant, then inverse
    quadratic).  Safeguards: no step moves t by more than a factor of 4.
    Once evaluations bracket the root, a step that leaves the bracket or is
    not under half the step before last is a geometric bisection; before
    that, a step that leaves the known side, comes when |y| has not halved
    since two evaluations back, or exceeds ``_EXTRAPOLATION_BUDGET`` such
    steps, is a factor-4 step.

    The solve stops once the bracket is at most ``t_tol`` wide (plus 4 ulps
    of t) and returns its end nearer the root, so the result lies within
    ``t_tol`` of the root whatever the hint, a root in (0, ``t_tol``]
    included.  A root past ``_T_MAX`` raises :class:`UnboundedSearchError`.
    """
    lo, hi, y_lo, y_hi = 0.0, math.inf, -math.inf, math.inf  # fn(lo) <= target < fn(hi)
    t, extrapolations = min(hint, _T_MAX), 0
    points = []  # (log t, y) of the last two evaluations with a finite y
    ys = [None, None]  # y two evaluations back and one back
    steps = [math.inf, math.inf]  # |change in log t| of the step before last and the last
    while True:
        f = fn(t)
        excess = (f - target) / (target - floor)
        y = math.log1p(excess) if excess > -1.0 else -math.inf
        if excess > 0.0:
            hi, y_hi = t, y
        else:
            lo, y_lo = t, y
        if hi < math.inf and hi - lo <= t_tol + _REL_TOL * hi:
            return hi if abs(y_hi) <= abs(y_lo) else lo
        if lo >= _T_MAX:
            raise UnboundedSearchError(f"tilt root exceeds t_max={_T_MAX:g}")
        if y == -math.inf:
            move = _LOG_4  # fn at or below its floor: only the side is known
        else:
            # interpolate u(y) at y = 0 through an increasing run of the last
            # finite evaluations, taken relative to the current one
            u = math.log(t)
            earlier = [(v - u, z) for v, z in points]
            points = points[-1:] + [(u, y)]
            move = -y * (f - floor) / (slope * f)
            if earlier and earlier[-1][0] * (earlier[-1][1] - y) > 0.0:
                db, yb = earlier[-1]
                move = -y * db / (yb - y)
                if len(earlier) == 2:
                    da, ya = earlier[0]
                    if da * (ya - y) > 0.0 and (da - db) * (ya - yb) > 0.0:
                        move = y * (da * yb / ((ya - yb) * (ya - y)) + db * ya / ((yb - ya) * (yb - y)))
        t_new = t * math.exp(min(max(move, -_LOG_4), _LOG_4))
        half_tol = 0.5 * (t_tol + _REL_TOL * t)
        if abs(t_new - t) < half_tol:
            # a step under half the tolerance crosses the root by half the tolerance instead
            t_new = t + half_tol if t == lo else t - half_tol
        if 0.0 < lo and hi < math.inf:
            if not (lo < t_new < hi and abs(math.log(t_new / t)) < 0.5 * steps[0]):
                t_new = math.sqrt(lo * hi)
        elif (
            lo < t_new < hi
            and extrapolations < _EXTRAPOLATION_BUDGET
            and (ys[0] is None or abs(y) < 0.5 * abs(ys[0]))
        ):
            extrapolations += 1
        else:
            t_new = 4.0 * t if t == lo else 0.25 * t
        steps, ys = [steps[1], abs(math.log(t_new / t))], [ys[1], y]
        t = min(t_new, _T_MAX)


def _chernoff_exponent(log_mgf_fn, mean_fn, a: float, p: float, moment: float, cfg, hint):
    """min_{t>0} [ log_mgf_fn(t) - a t ] -> (t_opt, value) via the stationarity root.

    ``moment`` is the tilted mean at t = 0.  The value is the objective
    evaluated exactly at t_opt, which bounds the minimum from above at any
    t > 0; search precision only affects tightness.
    """
    cfg = cfg or ExponentSearchConfig()
    if hint is None:
        # large-a asymptote of the tilted mean: (p t)^(p / (2 - p)) = a
        hint = math.exp(min((2.0 - p) / p * math.log(a) - math.log(p), math.log(_T_MAX)))
    # near the moment the tilted mean is about moment + var * t, a power of t
    # only once the moment is subtracted; further out it is close to the asymptote
    floor = moment if a < _NEAR_MOMENT * moment else 0.0
    t_opt = _solve_tilt(mean_fn, a, cfg.t_tol, hint, p / (2.0 - p), floor)
    return t_opt, log_mgf_fn(t_opt) - a * t_opt


def chernoff_upper_exponent(a: float, p: float, cfg: ExponentSearchConfig | None = None, _hint=None):
    """min_{t>0} [ log E e^{t|X|^p} - a t ] -> (t_opt, value).

    Requires a > E[|X|^p]; the objective is convex with a unique interior
    minimum and the minimum value is strictly negative.  ``_hint`` is a
    warm-start tilt, typically the minimizer at a nearby coefficient.
    """
    mu = abs_moment(p)
    if not mu < a < math.inf:
        raise ValueError(f"need finite a > E[|X|^p] = {mu:.6f}, got a = {a}")
    return _chernoff_exponent(
        lambda t: log_mgf_pos(t, p), lambda t: tilted_moment_ratio(t, p), a, p, mu, cfg, _hint
    )


def chernoff_indicator_exponent(a_tilde: float, p: float, cfg: ExponentSearchConfig | None = None, _hint=None):
    """min_{t>0} [ log E e^{t|X|^p S} - a_tilde t ] -> (t_opt, value).

    S is the Bernoulli(1/2) sign-mismatch indicator, so the moment condition
    is a_tilde > E[|X|^p] / 2.
    """
    mu_half = 0.5 * abs_moment(p)
    if not mu_half < a_tilde < math.inf:
        raise ValueError(f"need finite a_tilde > E[|X|^p S] = {mu_half:.6f}, got {a_tilde}")
    return _chernoff_exponent(
        lambda t: log_mgf_indicator(t, p),
        lambda t: indicator_tilted_moment_ratio(t, p),
        a_tilde,
        p,
        mu_half,
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


def _indicator_log_mgf_and_ratio(t: float, p: float):
    return _to_indicator(*_log_mgf_and_ratio(t, p))


def _family(name: str):
    """((Lambda, Lambda') from one moment pass, public tilt solve, moment mass) of a tilt family."""
    if name == "upper":
        return _log_mgf_and_ratio, chernoff_upper_exponent, 1.0
    return _indicator_log_mgf_and_ratio, chernoff_indicator_exponent, 0.5


def _coefficient_stage(family: str, net: float, scale: float, p: float, cfg, hint: float):
    """Smallest a with net + scale * min_t [ Lambda(t) - a t ] < 0 -> (a, t*).

    The exponent at a = Lambda'(t) is net - scale * I(t), so the boundary is
    the root I(t*) = net / scale and a steps a relative _SLACK past it.
    """
    log_mgf_and_ratio, _, _ = _family(family)
    means = {}  # the tilted mean at each evaluated t; the root is one of them

    def rate(t):
        log_mgf, means[t] = log_mgf_and_ratio(t, p)
        return t * means[t] - log_mgf

    # I(t) grows as t^2 near 0 and as t^(2 / (2 - p)) for large t
    t_star = _solve_tilt(rate, net / scale, cfg.t_tol, hint, 2.0 / (2.0 - p))
    return means[t_star] * (1.0 + _SLACK), t_star


def _coefficient_detail(family: str, alpha: float, p: float, scale: float, cfg) -> dict:
    """Best a / (1 - gamma^p) over the gamma grid, warm-starting each gamma's tilt."""
    _validate_alpha_p(alpha, p)
    _, solve, mass = _family(family)
    mass *= abs_moment(p)
    best, hint = None, 1.0
    for gamma in cfg.gamma_grid:
        shrink = 1.0 - gamma**p
        if best is not None and mass / shrink >= best["value"]:
            continue  # a > mass always, so this gamma cannot win
        a, hint = _coefficient_stage(family, _net_term(alpha, gamma), scale, p, cfg, hint)
        if best is None or a / shrink < best["value"]:
            best = {"value": a / shrink, "gamma": gamma, "a": a, "t_opt": hint}
    if best is None:
        raise InfeasibleBoundError("empty gamma grid")
    t_opt, val = solve(best["a"], p, cfg, _hint=best["t_opt"])
    best.update(t_opt=t_opt, margin=_net_term(alpha, best["gamma"]) + scale * val)
    return best


def _lambda_max_detail(alpha: float, p: float, cfg: ExponentSearchConfig) -> dict:
    return _coefficient_detail("upper", alpha, p, 1.0, cfg)


def compute_lambda_max(alpha: float, p: float, cfg: ExponentSearchConfig | None = None) -> float:
    """High-probability upper bound on ||Bz||_p^p / n over the unit sphere."""
    cfg = cfg or ExponentSearchConfig.default(alpha)
    return _lambda_max_detail(alpha, p, cfg)["value"]


def _lambda_min_detail(alpha: float, p: float, cfg: ExponentSearchConfig, lambda_max: float | None = None) -> dict:
    _validate_alpha_p(alpha, p)
    if lambda_max is None:
        lambda_max = _lambda_max_detail(alpha, p, cfg)["value"]
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
                margin = net + math.log(mgf_neg(t, p)) + 1.0
                if margin >= 0.0:
                    continue
            best = {"value": candidate, "gamma": gamma, "epsilon": eps, "t": t, "margin": margin}
    if best is None:
        raise InfeasibleBoundError(
            f"no feasible (gamma, eps) pair for alpha={alpha}, p={p}; refine the grids"
        )
    # report the exact exponent for the winner
    best["margin"] = _net_term(alpha, best["gamma"]) + math.log(mgf_neg(best["t"], p)) + 1.0
    return best


def compute_lambda_min(alpha: float, p: float, cfg: ExponentSearchConfig | None = None) -> float:
    """High-probability lower bound on ||Bz||_p^p / n over the unit sphere."""
    cfg = cfg or ExponentSearchConfig.default(alpha)
    return _lambda_min_detail(alpha, p, cfg)["value"]


def strong_bound(alpha: float, p: float, cfg: ExponentSearchConfig | None = None) -> BoundResult:
    """Sparsity-ratio bound for strong recovery at undersampling ratio alpha.

    Every support of size up to rho_bound * n satisfies the strong null-space
    condition with probability 1 - e^{-c n}; the returned exponent margin is
    the bottleneck exponent of the union bound.
    """
    _validate_alpha_p(alpha, p)
    cfg = cfg or ExponentSearchConfig.default(alpha)
    lam_max = _lambda_max_detail(alpha, p, cfg)
    lam_min = _lambda_min_detail(alpha, p, cfg, lam_max["value"])
    mu = abs_moment(p)
    ln2 = math.log(2.0)
    best, hint = None, 1.0
    for gamma in cfg.gamma_grid:
        h = 0.5 * lam_min["value"] * (1.0 - gamma**p)
        if best is not None and h / mu <= best["rho"]:
            continue  # rho(t) = h / Lambda'(t) stays below h / mu
        net = _net_term(alpha, gamma)

        means = {}

        def gain(t):
            # net minus the stage exponent at rho(t); increasing in t, since
            # rho(t) falls and the exponent grows with rho below 1/2
            log_mgf, means[t] = _log_mgf_and_ratio(t, p)
            rho = h / means[t]
            return h * t - rho * log_mgf - binary_entropy(rho) * ln2

        try:
            hint = _solve_tilt(gain, net, cfg.t_tol, hint)
        except UnboundedSearchError:
            continue  # the boundary tilt lies past _T_MAX: nothing certified here
        rho = h / means[hint] * (1.0 - _SLACK)
        if best is None or rho > best["rho"]:
            best = {"rho": rho, "gamma": gamma, "h": h, "net": net, "t_opt": hint}
    if best is None:
        raise InfeasibleBoundError(f"no feasible sparsity ratio for alpha={alpha}, p={p}")
    rho = best["rho"]
    t_opt, val = chernoff_upper_exponent(best["h"] / rho, p, cfg, _hint=best["t_opt"])
    best.update(t_opt=t_opt, margin=binary_entropy(rho) * ln2 + best["net"] + rho * val)
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


def _lambda_tilde_detail(alpha: float, p: float, rho: float, cfg: ExponentSearchConfig) -> dict:
    if not 0.0 < rho < alpha:
        raise ValueError(f"need 0 < rho < alpha, got rho={rho}, alpha={alpha}")
    return _coefficient_detail("indicator", alpha, p, rho, cfg)


def compute_lambda_tilde_max(alpha: float, p: float, rho: float, cfg: ExponentSearchConfig | None = None) -> float:
    """Upper bound on the sign-mismatch sub-sum ||B_{T-}z||_p^p / (rho n)."""
    cfg = cfg or ExponentSearchConfig.default(alpha)
    return _lambda_tilde_detail(alpha, p, rho, cfg)["value"]


def weak_bound(alpha: float, p: float, cfg: ExponentSearchConfig | None = None) -> BoundResult:
    """Sparsity-ratio bound for weak recovery (one support, one sign pattern).

    Bisects for the largest rho satisfying

        rho * lt_max(alpha, p, rho) <= (1 - rho) * lambda_min(alpha', p),
        alpha' = (alpha - rho) / (1 - rho).

    Validity of the bisection rests on monotonicity of both sides in rho,
    and on the lambda chain at alpha' staying feasible below every certified
    rho; the iterates are checked at runtime and a violation aborts rather
    than silently returning.  A rho whose lambda chain is infeasible on the
    current grids counts as not certified.
    """
    _validate_alpha_p(alpha, p)
    cfg = cfg or ExponentSearchConfig.default(alpha)
    evaluations = []

    def predicate(rho: float) -> dict:
        alpha_prime = (alpha - rho) / (1.0 - rho)
        info = {"rho": rho, "alpha_prime": alpha_prime, "lt": _lambda_tilde_detail(alpha, p, rho, cfg)}
        evaluations.append(info)
        try:
            info["lam_max"] = _lambda_max_detail(alpha_prime, p, cfg)
            info["lam_min"] = _lambda_min_detail(alpha_prime, p, cfg, info["lam_max"]["value"])
        except (InfeasibleBoundError, UnboundedSearchError):
            info.update(infeasible=True, ok=False)
            return info
        info.update(infeasible=False, ok=rho * info["lt"]["value"] <= (1.0 - rho) * info["lam_min"]["value"])
        return info

    lo_info = None
    rho_floor = alpha / cfg.rho_grid_resolution
    probe = alpha / 2.0
    while probe >= rho_floor:
        info = predicate(probe)
        if info["ok"]:
            lo, lo_info = probe, info
            break
        probe /= 2.0
    if lo_info is None:
        raise InfeasibleBoundError(f"no certifiable sparsity ratio above {rho_floor:g}")
    hi = alpha * (1.0 - 1e-9)
    hi_info = predicate(hi)
    if hi_info["ok"]:
        lo, lo_info = hi, hi_info
    else:
        while hi - lo > cfg.a_tol:
            mid = 0.5 * (lo + hi)
            info = predicate(mid)
            if info["ok"]:
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
            "lambda_tilde_a": lt["a"],
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
    """The bisection needs rho*lt_max nondecreasing, lambda_min(alpha')
    nonincreasing, and the lambda chain at alpha' feasible below every
    certified rho (alpha' falls as rho grows); verify on the iterates."""
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
    feasible = [e for e in pts if not e["infeasible"]]
    for prev, cur in zip(feasible, feasible[1:]):
        if cur["lam_min"]["value"] > prev["lam_min"]["value"] + tol:
            raise MonotonicityError(
                f"lambda_min increased from {prev['lam_min']['value']:.6g} to "
                f"{cur['lam_min']['value']:.6g} as rho grew"
            )
    certified = max(e["rho"] for e in pts if e["ok"])
    for e in pts:
        if e["infeasible"] and e["rho"] < certified:
            raise MonotonicityError(
                f"the lambda chain at alpha'={e['alpha_prime']:.6g} (rho={e['rho']:.6g}) is infeasible "
                f"below the certified rho={certified:.6g}"
            )
