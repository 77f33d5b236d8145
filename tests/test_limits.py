"""Limiting thresholds against analytic, high-precision and quadrature values."""

import math

import numpy as np
import pytest

from lprecovery import limits
from lprecovery.gaussian import _SQRT_2_OVER_PI, abs_moment
from lprecovery.quadrature import integrate

# 30-digit oracle values, frozen
Z_STAR_ONE = 1.1774100225154747  # sqrt(2 ln 2)
RHO_STAR_ONE = 0.23903189144951192
RHO_STAR_HALF = 0.34055685580269462
RHO_STAR_P001 = 0.49597689991760015
DERIV_AT_ONE = -0.164001496845714
DERIV_AT_03 = -0.300153608110893


def test_z_star_at_p_one_is_analytic():
    # for p = 1 the split point solves exp(-z^2/2) = 1/2
    assert limits.solve_z_star(1.0) == pytest.approx(Z_STAR_ONE, abs=1e-9)


def test_threshold_values():
    assert limits.strong_limit_threshold(1.0).rho_star == pytest.approx(RHO_STAR_ONE, abs=1e-9)
    assert limits.strong_limit_threshold(0.5).rho_star == pytest.approx(RHO_STAR_HALF, abs=1e-9)
    assert limits.strong_limit_threshold(0.01).rho_star == pytest.approx(RHO_STAR_P001, abs=1e-9)


def test_threshold_record_invariants():
    result = limits.strong_limit_threshold(0.7)
    assert result.rho_star == pytest.approx(1.0 - math.erf(result.z_star / math.sqrt(2.0)), abs=1e-14)
    assert result.residual <= 1e-10
    assert 0.239 < result.rho_star < 0.5


@pytest.mark.parametrize("p", [0.05, 0.3, 0.75, 1.0])
def test_split_point_halves_the_moment(p):
    z = limits.solve_z_star(p)
    mu = abs_moment(p)

    def integrand(x):
        return np.power(x, p) * _SQRT_2_OVER_PI * np.exp(-0.5 * x * x)

    lower = integrate(integrand, 0.0, z, points=(min(1.0, z / 2),))
    upper = integrate(integrand, z, 12.0)
    assert lower == pytest.approx(mu / 2, abs=1e-9)
    assert upper == pytest.approx(mu / 2, abs=1e-9)


CLOSED_FORM_PS = [1e-3, 0.01, 0.3, 0.7, 1.0]


@pytest.mark.parametrize("p", CLOSED_FORM_PS)
def test_closed_form_split_point_passes_quadrature_recheck(p):
    assert limits.strong_limit_threshold(p).residual <= 1e-13


def quadrature_derivative(p):
    """d(rho*)/dp from three quadratures: (lower - upper) / (2 z^p) with
    lower and upper the integrals of x^p log(x) f below and above z*; the
    log factor on [0, 1e-3] is integrated in u = log x."""
    z = limits.solve_z_star(p)

    def integrand(x):
        return np.power(x, p) * np.log(x) * _SQRT_2_OVER_PI * np.exp(-0.5 * x * x)

    def integrand_log(u):
        x = np.exp(u)
        return np.power(x, p + 1.0) * u * _SQRT_2_OVER_PI * np.exp(-0.5 * x * x)

    cut = 1e-3
    lower = integrate(integrand_log, -60.0, math.log(cut)) + integrate(integrand, cut, z)
    upper = integrate(integrand, z, 12.0, points=(z + 1.0,))
    return (lower - upper) / (2.0 * z**p)


@pytest.mark.parametrize("p", CLOSED_FORM_PS)
def test_derivative_matches_quadrature_oracle(p):
    assert limits.strong_threshold_derivative(p) == pytest.approx(quadrature_derivative(p), abs=1e-11)


def test_derivative_closed_form_values():
    assert limits.strong_threshold_derivative(1.0) == pytest.approx(DERIV_AT_ONE, abs=1e-9)
    assert limits.strong_threshold_derivative(0.3) == pytest.approx(DERIV_AT_03, abs=1e-9)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
def test_derivative_matches_finite_differences(p):
    h = 1e-4
    fd = (
        limits.strong_limit_threshold(p + h).rho_star - limits.strong_limit_threshold(p - h).rho_star
    ) / (2 * h)
    assert limits.strong_threshold_derivative(p) == pytest.approx(fd, abs=1e-4)


def test_threshold_strictly_decreasing_in_p():
    grid = np.linspace(0.05, 1.0, 20)
    values = [limits.strong_limit_threshold(p).rho_star for p in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(0.0 < v < 0.5 for v in values)
    derivs = [limits.strong_threshold_derivative(p) for p in grid]
    assert all(d < 0 for d in derivs)


def test_weak_limit_threshold():
    assert limits.weak_limit_threshold(0.0) == pytest.approx(2.0 / 3.0)
    assert limits.weak_limit_threshold(0.5) == pytest.approx(2.0 / 3.0)
    assert limits.weak_limit_threshold(1.0) == 1.0
    with pytest.raises(ValueError):
        limits.weak_limit_threshold(1.2)


def test_sectional_limit_threshold():
    for p in (0.0, 0.5, 1.0):
        assert limits.sectional_limit_threshold(p) == 0.5
    with pytest.raises(ValueError):
        limits.sectional_limit_threshold(-0.1)


def test_p_out_of_domain():
    with pytest.raises(ValueError):
        limits.solve_z_star(0.0)
    with pytest.raises(ValueError):
        limits.strong_limit_threshold(1.0001)
