"""Half-normal integrals against closed forms and high-precision oracles.

Frozen constants were produced by an independent 30-digit quadrature run
(series/continued-fraction erf, gamma-function moments); they are exact to
the digits shown.
"""

import math

import numpy as np
import pytest

from lprecovery import gaussian as g
from lprecovery import quadrature
from lprecovery.quadrature import QuadratureError, integrate

# oracle values, 30-digit arithmetic, frozen
MU_HALF = 0.82217895866245855  # 2^{1/4} Gamma(3/4) / sqrt(pi)
MU_ONE = 0.79788456080286536  # sqrt(2/pi)
MGF_POS_1_1 = 2.7742859576700096  # 2 e^{1/2} Phi(1)
MGF_POS_1_HALF = 2.419136430467954  # adaptive-quadrature oracle at 1e-12
MGF_NEG_1_1 = 0.52315658373024674  # 2 e^{1/2} Phi(-1)
MGF_NEG_4_HALF = 0.088959228962194105


def test_abs_moment_examples():
    assert g.abs_moment(2.0) == pytest.approx(1.0, rel=1e-10)
    assert g.abs_moment(1.0) == pytest.approx(MU_ONE, rel=1e-10)
    assert g.abs_moment(0.5) == pytest.approx(MU_HALF, rel=1e-10)
    with pytest.raises(ValueError):
        g.abs_moment(0.0)


@pytest.mark.parametrize("p", [round(0.1 * k, 1) for k in range(1, 11)])
def test_abs_moment_matches_gamma_closed_form(p):
    closed = 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)
    assert g.abs_moment(p) == pytest.approx(closed, rel=1e-10)

    # quadrature as the independent oracle, with panels laid toward the cusp at 0
    def integrand(x):
        return np.power(x, p) * g._SQRT_2_OVER_PI * np.exp(-0.5 * x * x)

    points = tuple(g._origin_ladder(1.0) + [2.0, 4.0])
    assert g.abs_moment(p) == pytest.approx(integrate(integrand, 0.0, 12.0, points=points), rel=1e-13)


def test_mgf_pos_examples():
    assert g.mgf_pos(0.0, 0.3) == pytest.approx(1.0, abs=1e-12)
    assert g.mgf_pos(1.0, 1.0) == pytest.approx(MGF_POS_1_1, rel=1e-12)
    assert g.mgf_pos(1.0, 0.5) == pytest.approx(MGF_POS_1_HALF, rel=1e-12)
    with pytest.raises(ValueError):
        g.mgf_pos(-0.5, 0.5)  # negative tilt only integrable at p = 1
    with pytest.raises(ValueError):
        g.mgf_pos(1.0, 1.5)


def test_mgf_pos_monotone_and_at_least_one():
    values = [g.mgf_pos(t, 0.7) for t in (0.0, 0.4, 1.1, 2.0)]
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v >= 1.0 - 1e-12 for v in values)


def test_mgf_neg_examples():
    assert g.mgf_neg(1e-12, 0.7) == pytest.approx(1.0, abs=1e-9)
    assert g.mgf_neg(1.0, 1.0) == pytest.approx(MGF_NEG_1_1, rel=1e-12)
    got = g.mgf_neg(4.0, 0.5)
    assert got == pytest.approx(MGF_NEG_4_HALF, rel=1e-12)
    # closed-form envelope at (4, 0.5): t^{-2} sqrt(2/pi) Gamma(2) / 0.5
    assert got <= 4.0**-2 * math.sqrt(2 / math.pi) * math.gamma(2.0) / 0.5
    with pytest.raises(ValueError):
        g.mgf_neg(0.0, 0.5)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8, 1.0])
def test_mgf_neg_upper_bound_on_grid(p):
    for t in np.geomspace(1.0, 100.0, 12):
        assert math.log(g.mgf_neg(t, p)) <= g.mgf_neg_log_upper_bound(t, p) + 1e-12


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0])
def test_mgf_neg_lower_bound_beyond_unit_tilt(p):
    # for t > 1: mgf_neg >= t^{-1/p} sqrt(2/pi) * integral exp(-y^p - y^2/2)
    from scipy.integrate import quad

    base, _ = quad(lambda y: math.exp(-(y**p) - 0.5 * y * y), 0, 50, limit=200)
    for t in (1.5, 4.0, 20.0):
        lower = t ** (-1.0 / p) * math.sqrt(2 / math.pi) * base
        assert g.mgf_neg(t, p) >= lower - 1e-12


def test_mgf_indicator_identity_and_examples():
    def mgf_indicator(t, p):
        return math.exp(g.log_mgf_indicator(t, p))

    assert mgf_indicator(0.0, 0.4) == pytest.approx(1.0, abs=1e-12)
    assert mgf_indicator(1.0, 1.0) == pytest.approx((MGF_POS_1_1 + 1.0) / 2.0, rel=1e-12)
    for t, p in [(0.3, 0.2), (1.7, 0.5), (4.0, 0.9)]:
        assert mgf_indicator(t, p) == pytest.approx((g.mgf_pos(t, p) + 1.0) / 2.0, rel=1e-12)


@pytest.mark.parametrize("p", [0.3, 0.6, 1.0])
def test_log_convexity_in_tilt(p):
    ts = np.linspace(0.05, 3.0, 25)
    logs_pos = np.array([g.log_mgf_pos(t, p) for t in ts])
    logs_neg = np.array([math.log(g.mgf_neg(t, p)) for t in ts])
    for logs in (logs_pos, logs_neg):
        second = logs[2:] - 2 * logs[1:-1] + logs[:-2]
        assert second.min() >= -1e-8


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8, 1.0])
def test_log_mgf_slope_at_zero_is_the_moment(p):
    h = 1e-5
    slope = (g.log_mgf_pos(h, p) - g.log_mgf_pos(0.0, p)) / h
    assert slope == pytest.approx(g.abs_moment(p), abs=1e-5)


def test_tilted_moment_ratio_is_log_derivative():
    for t, p in [(0.5, 0.5), (2.0, 0.8), (1.0, 1.0)]:
        h = 1e-6
        fd = (g.log_mgf_pos(t + h, p) - g.log_mgf_pos(t - h, p)) / (2 * h)
        assert g.tilted_moment_ratio(t, p) == pytest.approx(fd, rel=1e-6)


def test_indicator_ratio_is_log_derivative():
    for t, p in [(0.8, 0.5), (2.5, 0.9)]:
        h = 1e-6
        fd = (g.log_mgf_indicator(t + h, p) - g.log_mgf_indicator(t - h, p)) / (2 * h)
        assert g.indicator_tilted_moment_ratio(t, p) == pytest.approx(fd, rel=1e-6)


def test_extreme_tilts_stay_finite():
    assert math.isfinite(g.log_mgf_pos(1e5, 0.5))
    assert math.isfinite(g.log_mgf_pos(1e12, 0.2))
    assert 0.0 < g.mgf_neg(1e6, 1.0) < 1e-5


def test_quadrature_error_carries_diagnostics(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 2)

    def integrand(x):
        return np.power(x, 0.37) * g._SQRT_2_OVER_PI * np.exp(-0.5 * x * x)

    with pytest.raises(QuadratureError) as info:
        integrate(integrand, 0.0, 12.0)
    assert math.isfinite(info.value.value)
    assert info.value.error_estimate > 0.0


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0, 60.0, 200.0])
def test_p_one_tilt_against_closed_form(t):
    # at p = 1: E e^{t|X|} = 2 e^{t^2/2} Phi(t), and its log-derivative is
    # t + phi(t) / Phi(t); t = 60 and 200 put the peak on the shifted branch
    from scipy.special import log_ndtr

    assert g.log_mgf_pos(t, 1.0) == pytest.approx(math.log(2.0) + 0.5 * t * t + log_ndtr(t), rel=1e-15, abs=1e-12)
    mills = math.exp(-0.5 * t * t - log_ndtr(t)) / math.sqrt(2.0 * math.pi)
    assert g.tilted_moment_ratio(t, 1.0) == pytest.approx(t + mills, abs=1e-10)
