"""Limiting recovery thresholds in the nearly-square regime (m/n -> 1).

The strong threshold for exponent p comes from the split point z* at which
the upper truncated moment of |X| equals half the full moment:

    integral_{z*}^inf x^p f(x) dx = E[|X|^p] / 2,

giving rho*(p) = 1 - F(z*).  Substituting u = x^2/2 turns the truncated
moment into E[|X|^p] Q((p+1)/2, z^2/2), with Q the regularized upper
incomplete gamma function, so z*^2/2 is the median of a Gamma((p+1)/2)
variable:

    z* = sqrt(2 gammaincinv((p+1)/2, 1/2)),   rho*(p) = erfc(z* / sqrt(2)).

One quadrature of the truncated moment re-checks the closed form; its
residual travels with the threshold.

The weak and sectional limits are constants (2/3 below p = 1, 1 at p = 1;
1/2 for all p) and are exposed as functions only for a uniform surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaincinv

from .gaussian import _SQRT_2_OVER_PI, abs_moment
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, integrate

__all__ = [
    "LimitThreshold",
    "solve_z_star",
    "strong_limit_threshold",
    "strong_threshold_derivative",
    "weak_limit_threshold",
    "sectional_limit_threshold",
]

_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class LimitThreshold:
    """Strong limiting threshold with the quadrature residual of its split point."""

    p: float
    z_star: float
    rho_star: float
    derivative: float
    residual: float


def _upper_truncated_moment(z: float, p: float, cfg: QuadratureConfig) -> float:
    """integral_z^U x^p f(x) dx with U the configured tail cutoff."""
    upper = cfg.tail_cutoff_sigma
    if z >= upper:
        return 0.0

    def integrand(x):
        return np.power(x, p) * _SQRT_2_OVER_PI * np.exp(-0.5 * x * x)

    return integrate(integrand, z, upper, cfg)


def _solve_z_star(p: float, cfg: QuadratureConfig):
    """Closed-form split point and the quadrature residual that re-checks it."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    z = math.sqrt(2.0 * gammaincinv(0.5 * (p + 1.0), 0.5))
    residual = abs(abs_moment(p) - 2.0 * _upper_truncated_moment(z, p, cfg))
    if residual > _RESIDUAL_TOL:
        raise RuntimeError(f"split-point residual {residual:.2e} above {_RESIDUAL_TOL}")
    return z, residual


def solve_z_star(p: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Split point z* of the half-moment equation for exponent p."""
    return _solve_z_star(p, cfg)[0]


def _threshold_derivative(z: float, p: float, cfg: QuadratureConfig) -> float:
    """d(rho*)/dp at split point z: (full - 2 upper) / (2 z^p).

    full = integral_0^inf x^p log(x) f = d E[|X|^p] / dp has the closed form
    E[|X|^p] (log 2 + psi((p+1)/2)) / 2; upper is the same integral over
    [z, U], by quadrature.
    """
    upper = cfg.tail_cutoff_sigma

    def integrand(x):
        return np.power(x, p) * np.log(x) * _SQRT_2_OVER_PI * np.exp(-0.5 * x * x)

    full = abs_moment(p) * 0.5 * (math.log(2.0) + float(digamma(0.5 * (p + 1.0))))
    upper_part = integrate(integrand, z, upper, cfg, points=(min(z + 1.0, upper * 0.999),))
    return (full - 2.0 * upper_part) / (2.0 * z**p)


def strong_threshold_derivative(p: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Closed-form d(rho*)/dp; strictly negative on (0, 1]."""
    return _threshold_derivative(solve_z_star(p, cfg), p, cfg)


def strong_limit_threshold(p: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> LimitThreshold:
    """Strong limiting threshold rho*(p) = 1 - F(z*(p)) = erfc(z*(p) / sqrt(2))."""
    z, residual = _solve_z_star(p, cfg)
    return LimitThreshold(
        p=p,
        z_star=z,
        rho_star=math.erfc(z / math.sqrt(2.0)),
        derivative=_threshold_derivative(z, p, cfg),
        residual=residual,
    )


def weak_limit_threshold(p: float) -> float:
    """Weak limiting threshold: 2/3 for p in [0, 1), 1 at p = 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return 1.0 if p == 1.0 else 2.0 / 3.0


def sectional_limit_threshold(p: float) -> float:
    """Sectional limiting threshold: 1/2 for every p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return 0.5
