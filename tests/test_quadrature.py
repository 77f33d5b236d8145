import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from lprecovery import quadrature
from lprecovery.quadrature import QuadratureError, integrate


@pytest.mark.parametrize(
    "f,a,b",
    [
        (lambda x: np.exp(-0.5 * x * x), 0.0, 12.0),
        (lambda x: np.sqrt(np.abs(x)), 0.0, 3.0),
        (lambda x: np.sin(7 * x) * np.exp(-x), 0.0, 9.0),
        (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0),
    ],
)
def test_matches_scipy_quadpack(f, a, b):
    want, _ = scipy_quad(lambda x: float(f(np.array([x]))[0]), a, b, epsabs=1e-13, epsrel=1e-13, limit=300)
    got = integrate(f, a, b)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_break_points_help_sharp_features():
    scale = 1e-6
    f = lambda x: np.exp(-x / scale)
    got = integrate(f, 0.0, 1.0, points=tuple(scale * 10.0**k for k in range(0, 6)))
    assert got == pytest.approx(scale, rel=1e-9)


def test_empty_interval_and_bad_bounds():
    assert integrate(lambda x: x, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        integrate(lambda x: x, 2.0, 1.0)


def test_nonconvergence_raises_with_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 4)
    f = lambda x: np.sin(40 * x) ** 2 + np.sqrt(np.abs(x - 0.3))
    with pytest.raises(QuadratureError) as err:
        integrate(f, 0.0, 5.0)
    assert err.value.error_estimate > 0


def test_duplicate_break_points_are_harmless():
    got = integrate(lambda x: np.ones_like(x), 0.0, 1.0, points=(0.5, 0.5, 0.5 + 1e-17))
    assert got == pytest.approx(1.0, rel=1e-12)


def test_vector_integrand_matches_rowwise_scalar_integrals():
    rows = (
        lambda x: np.exp(-0.5 * x * x),
        lambda x: np.sqrt(x) * np.exp(-0.5 * x * x),
        lambda x: x**3 * np.exp(-0.5 * x * x),
    )
    got = integrate(lambda x: np.stack([f(x) for f in rows]), 0.0, 12.0, points=(0.25, 1.0, 4.0))
    assert isinstance(got, np.ndarray) and got.shape == (3,)
    for value, f in zip(got, rows):
        want = integrate(f, 0.0, 12.0, points=(0.25, 1.0, 4.0))
        assert value == pytest.approx(want, rel=quadrature._REL_TOL)
    scalar = integrate(rows[0], 0.0, 12.0)
    assert type(scalar) is float


def test_vector_integrand_holds_every_row_to_the_tolerance(monkeypatch):
    # the smooth row alone converges on the initial panel; the cusp row
    # forces refinement, and its value must still meet the tolerance
    f = lambda x: np.stack([np.ones_like(x), np.sqrt(x)])
    flat, cusp = integrate(f, 0.0, 1.0)
    assert flat == pytest.approx(1.0, rel=1e-12)
    assert cusp == pytest.approx(2.0 / 3.0, rel=1e-9)
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 2)
    with pytest.raises(QuadratureError):
        integrate(f, 0.0, 1.0)
