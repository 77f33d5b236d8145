"""Scalar integrals of the half-normal distribution.

Everything downstream (limiting thresholds, Chernoff exponents) reduces to
integrals of x^p against the folded standard normal density

    f(x) = sqrt(2/pi) * exp(-x^2/2),   x >= 0,

and to three moment generating functions of |X|^p for X ~ N(0, 1):

* ``mgf_pos``       E[exp( t |X|^p)]            (t >= 0)
* ``mgf_neg``       E[exp(-t |X|^p)]            (t > 0)
* ``mgf_indicator`` E[exp( t |X|^p S)] with S the indicator of a sign
  mismatch against a fixed pattern; S is Bernoulli(1/2) independent of
  |X|, so this equals (mgf_pos + 1) / 2.

Exponentials are evaluated in log space with the integrand's peak factored
out, so arbitrarily large tilts t stay finite.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, integrate

__all__ = [
    "half_normal_pdf",
    "half_normal_cdf",
    "abs_moment",
    "mgf_pos",
    "log_mgf_pos",
    "mgf_neg",
    "mgf_indicator",
    "log_mgf_indicator",
    "mgf_neg_log_upper_bound",
    "tilted_moment_ratio",
    "indicator_tilted_moment_ratio",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _origin_ladder(head: float, floor: float = 1e-14, factor: float = 4.0):
    """Geometric break points from ``head`` down toward 0.

    x^p has unbounded derivatives at the origin for p < 1; pre-placing
    shrinking panels there resolves the cusp in one vectorized pass instead
    of many sequential refinement rounds.
    """
    pts = []
    x = head
    while x > floor:
        pts.append(x)
        x /= factor
    return pts


def half_normal_pdf(z: float) -> float:
    """Density of |X| for X ~ N(0,1); zero for negative arguments."""
    if z < 0:
        return 0.0
    return _SQRT_2_OVER_PI * math.exp(-0.5 * z * z)


def half_normal_cdf(z: float) -> float:
    """CDF of |X|: erf(z / sqrt(2)) for z >= 0, zero below."""
    if z < 0:
        return 0.0
    return math.erf(z / math.sqrt(2.0))


def _check_exponent(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"exponent p must lie in (0, 1], got {p}")


def abs_moment(p: float) -> float:
    """E[|X|^p] = 2^{p/2} Gamma((p+1)/2) / sqrt(pi) for X ~ N(0,1) and any p > 0.

    p = 2 gives the unit variance.
    """
    if not p > 0:
        raise ValueError(f"abs_moment requires p > 0, got {p}")
    return 2.0 ** (0.5 * p) * math.gamma(0.5 * (p + 1.0)) / math.sqrt(math.pi)


def _tilt_peak(t: float, p: float) -> float:
    """Stationary point of t*x^p - x^2/2 on (0, inf); 0 when t <= 0."""
    if t <= 0.0:
        return 0.0
    return (p * t) ** (1.0 / (2.0 - p))


def _tilt_upper(t: float, p: float, cfg: QuadratureConfig) -> float:
    return cfg.tail_cutoff_sigma * max(1.0, t ** (1.0 / (2.0 - p))) if t > 0 else cfg.tail_cutoff_sigma


_BUMP_STEPS = (-26.0, -18.0, -12.0, -8.0, -5.0, -3.0, -1.5, -0.5, 0.5, 1.5, 3.0, 5.0, 8.0, 12.0, 18.0, 26.0)


def _tilted_moments(t: float, p: float, cfg: QuadratureConfig, order: int):
    """Tilted moments integral_0^U x^(j p) exp(t x^p - x^2/2 - g_max) dx, j = 0..order.

    One quadrature pass evaluates every moment on the same nodes.  Returns
    (moments, g_max): ``moments`` is a float for order 0 and a length
    order + 1 array otherwise, and g_max is the factored peak value, so the
    caller reconstructs the full logarithm without overflow.
    """
    peak = _tilt_peak(t, p)
    g_max = t * peak**p - 0.5 * peak * peak if peak > 0 else 0.0
    # Peak curvature is universal: g''(peak) = p - 2, so the bump always has
    # width near 1 / sqrt(2 - p); lay unit-scale panels across it.
    width = 1.0 / math.sqrt(2.0 - p)
    if peak > 50.0:
        # Far from the origin, integrate in s = x - peak: both exponent terms
        # are then huge while their difference is order one, and expm1/log1p
        # keep the difference exact.  Beyond ~30 bump widths the integrand
        # is below 1e-300, so narrow limits lose nothing.  Moment j is
        # peak^(j p) times the integral of (x / peak)^(j p).
        tpow = t * peak**p
        span = 2.5 * cfg.tail_cutoff_sigma * width
        lo, hi, unit = max(-peak, -span), span, peak**p
        pts = [width * k for k in _BUMP_STEPS]

        def density_and_power(s):
            log_ratio = np.log1p(s / peak)
            return np.exp(tpow * np.expm1(p * log_ratio) - peak * s - 0.5 * s * s), np.exp(p * log_ratio)

    else:
        lo, hi, unit = 0.0, _tilt_upper(t, p, cfg), 1.0
        # a geometric ladder resolves the x^p cusp at the origin
        if peak > 0:
            bump = [peak + width * k for k in _BUMP_STEPS]
            pts = _origin_ladder(max(peak / 4, 1.0)) + [x for x in bump if 0.0 < x < hi]
        else:
            pts = _origin_ladder(1.0) + [2.0, 4.0]

        def density_and_power(x):
            xp = np.power(x, p)
            return np.exp(t * xp - 0.5 * x * x - g_max), xp

    def integrand(x):
        val, xp = density_and_power(x)
        return np.stack([val * xp**j for j in range(order + 1)]) if order else val

    value = integrate(integrand, lo, hi, cfg, points=tuple(pts))
    if order:
        value = value * unit ** np.arange(order + 1)
    return value, g_max


def log_mgf_pos(t: float, p: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """log E[exp(t |X|^p)].  Stable for large t via peak factoring."""
    _check_exponent(p)
    if t < 0 and p < 1.0:
        raise ValueError("mgf_pos requires t >= 0 for p < 1")
    value, g_max = _tilted_moments(t, p, cfg, 0)
    return math.log(_SQRT_2_OVER_PI) + g_max + math.log(value)


def mgf_pos(t: float, p: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """E[exp(t |X|^p)]; at least 1 and strictly increasing in t."""
    return math.exp(log_mgf_pos(t, p, cfg))


def mgf_neg(t: float, p: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """E[exp(-t |X|^p)] in (0, 1) for t > 0.

    For large t the mass concentrates on the scale x ~ t^{-1/p}; a ladder of
    break points around that scale keeps the adaptive rule honest.
    """
    _check_exponent(p)
    if not t > 0:
        raise ValueError(f"mgf_neg requires t > 0, got {t}")
    upper = cfg.tail_cutoff_sigma

    def integrand(x):
        return _SQRT_2_OVER_PI * np.exp(-t * np.power(x, p) - 0.5 * x * x)

    scale = min(t ** (-1.0 / p), 1.0)
    pts = _origin_ladder(scale)
    step = scale
    while step < upper:
        pts.append(step)
        step *= 4.0
    return integrate(integrand, 0.0, upper, cfg, points=tuple(pts))


def mgf_neg_log_upper_bound(t: float, p: float) -> float:
    """log of the closed-form bound t^{-1/p} sqrt(2/pi) Gamma(1/p) / p.

    Derived by dropping the Gaussian factor after the substitution
    x = t^{-1/p} y; an upper bound on log mgf_neg for every t > 0.
    """
    _check_exponent(p)
    if not t > 0:
        raise ValueError("bound requires t > 0")
    return -math.log(t) / p + 0.5 * math.log(2.0 / math.pi) + math.lgamma(1.0 / p) - math.log(p)


def log_mgf_indicator(t: float, p: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """log E[exp(t |X|^p S)] with S ~ Bernoulli(1/2) independent of |X|."""
    lm = log_mgf_pos(t, p, cfg)
    return np.logaddexp(lm, 0.0) - math.log(2.0)


def mgf_indicator(t: float, p: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """E[exp(t |X|^p S)] = (mgf_pos(t, p) + 1) / 2."""
    return math.exp(log_mgf_indicator(t, p, cfg))


def tilted_moment_ratio(t: float, p: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """d/dt log mgf_pos: the mean of |X|^p under the exponentially tilted law.

    Equals the stationarity ratio of the positive-tilt Chernoff objective,
    so optimizer residuals can be checked without finite differences.
    """
    _check_exponent(p)
    (m0, m1), _ = _tilted_moments(t, p, cfg, 1)
    # both moments share the same factored peak, so it cancels
    return m1 / m0


def indicator_tilted_moment_ratio(t: float, p: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """d/dt log mgf_indicator = w * d/dt log mgf_pos, w = 1 / (1 + 1/mgf_pos).

    The indicator law puts mass 1/2 on S = 0, which the weight w discounts.
    """
    _check_exponent(p)
    (m0, m1), g_max = _tilted_moments(t, p, cfg, 1)
    log_mgf = math.log(_SQRT_2_OVER_PI) + g_max + math.log(m0)
    return (m1 / m0) / (1.0 + math.exp(-log_mgf))
