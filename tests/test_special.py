"""Incomplete gamma against an independent quadrature oracle; series kernels."""

import math

import numpy as np
import pytest
from scipy import integrate

from gentropy import catalog, universal_group_G, universal_group_G_prime, upper_incomplete_gamma
from gentropy.errors import ParamOutOfDomain, TruncationCapHit, ValidationError


def quadrature_tail(a, x):
    """The defining integral, evaluated by adaptive quadrature (oracle)."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(
            lambda t: t ** (a - 1.0) * math.exp(-t),
            x,
            np.inf,
            epsabs=1e-14,
            epsrel=1e-13,
        )
    return value


def test_gamma_shape_one_is_exponential():
    for x in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0):
        assert upper_incomplete_gamma(1.0, x) == pytest.approx(
            math.exp(-x), rel=1e-13, abs=1e-300
        )


def test_gamma_complete_values():
    assert upper_incomplete_gamma(2.0, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert upper_incomplete_gamma(5.0, 0.0) == pytest.approx(24.0, rel=1e-14)


def test_gamma_frozen_high_precision_values():
    # frozen from a 50-digit evaluation of the defining integral
    assert upper_incomplete_gamma(1.5, 2.0) == pytest.approx(
        0.23171655200098069332, rel=1e-12
    )
    assert upper_incomplete_gamma(0.5, 0.1) == pytest.approx(
        1.1604624847937442309, rel=1e-12
    )
    assert upper_incomplete_gamma(3.0, 7.5) == pytest.approx(
        0.040513430113328809962, rel=1e-12
    )
    assert upper_incomplete_gamma(7.0, 20.0) == pytest.approx(
        0.1836881970165365277, rel=1e-12
    )


def test_gamma_against_quadrature_grid():
    """50-point (a, x) grid, relative agreement 1e-10 with the oracle."""
    shapes = [0.5, 1.0, 1.5, 2.5, 4.0, 7.0, 10.0, 15.0, 20.0, 30.0]
    limits = [0.0, 0.1, 0.5, 2.0, 10.0]
    checked = 0
    for a in shapes:
        for x in limits:
            ours = upper_incomplete_gamma(a, x)
            oracle = quadrature_tail(a, x)
            assert ours == pytest.approx(oracle, rel=1e-10), (a, x)
            checked += 1
    assert checked == 50


def test_gamma_domain_errors():
    with pytest.raises(ParamOutOfDomain):
        upper_incomplete_gamma(0.0, 1.0)
    with pytest.raises(ParamOutOfDomain):
        upper_incomplete_gamma(-1.5, 1.0)
    with pytest.raises(ValidationError):
        upper_incomplete_gamma(1.0, -0.1)


def test_series_single_term_is_linear():
    assert universal_group_G([1.0], 2.0) == 2.0
    assert universal_group_G_prime([1.0], 2.0) == 1.0


def test_series_two_terms():
    # 1 > 1 * 0.4 satisfies the dominance condition
    assert universal_group_G([1.0, 0.4], 1.0) == pytest.approx(1.2, abs=1e-15)


def test_series_coefficient_condition():
    with pytest.raises(ParamOutOfDomain):
        universal_group_G([1.0, 1.0], 1.0)  # needs a_0 > 1 * a_1
    with pytest.raises(ParamOutOfDomain):
        universal_group_G([-1.0], 1.0)
    with pytest.raises(ParamOutOfDomain):
        universal_group_G([], 1.0)
    negative = lambda k: -0.1 if k == 2 else 0.5**k  # noqa: E731
    for series in (universal_group_G, universal_group_G_prime):
        with pytest.raises(ParamOutOfDomain, match="a_2 is negative"):
            series(negative, 1.0)


def test_series_callable_converges():
    # a_k = (0.5)^k / k! decays fast enough for any fixed t
    coeffs = lambda k: 0.5**k / math.factorial(k)  # noqa: E731
    got = universal_group_G(coeffs, 1.0)
    expected = sum(coeffs(k) / (k + 1) for k in range(60))
    assert got == pytest.approx(expected, rel=1e-12)


def test_series_callable_cap():
    with pytest.raises(TruncationCapHit):
        universal_group_G(lambda k: 1.0, 1.0)  # constant terms never converge


def _functional_series(coeffs, monkeypatch):
    """The g and g' that the universal_group functional is built on."""
    monkeypatch.setattr(catalog, "_x_g_neglog", lambda g, g_prime: (g, g_prime))
    return catalog._universal_group({"coeffs": coeffs})


@pytest.mark.parametrize(
    "coeffs", [(1.0, 0.4, 0.1), lambda k: 0.5**k / math.factorial(k)], ids=["finite", "callable"]
)
def test_public_series_equal_the_catalog_functional_bit_for_bit(coeffs, monkeypatch):
    """G and G' agree with the g and g' that the universal_group functional is built on."""
    g, g_prime = _functional_series(coeffs, monkeypatch)
    t = np.linspace(0.01, 8.0, 2000)
    public_g = np.array([universal_group_G(coeffs, v) for v in t.tolist()])
    public_g_prime = np.array([universal_group_G_prime(coeffs, v) for v in t.tolist()])
    assert g(t).tobytes() == public_g.tobytes()
    assert g_prime(t).tobytes() == public_g_prime.tobytes()


def _series_by_loop(coeffs, t, integral):
    """G(t) or G'(t) for a callable, one Python float at a time (the reference)."""
    total, power = 0.0, (t if integral else 1.0)
    for k in range(200):
        term = coeffs(k) * power / (k + 1) if integral else coeffs(k) * power
        total += term
        if abs(term) <= 1e-14 * abs(total) and k > 0:
            return total
        power *= t
    raise AssertionError(f"no convergence at t={t!r}")


def test_callable_series_equal_a_per_point_loop(monkeypatch):
    """Over an array, each point stops at the term its own scalar loop stops at."""
    coeffs = lambda k: 1.0 / math.factorial(k)  # noqa: E731
    g, g_prime = _functional_series(coeffs, monkeypatch)
    t = np.concatenate([[0.0], np.linspace(0.01, 30.0, 1000)])
    for series, integral in ((g, True), (g_prime, False)):
        expected = np.array([_series_by_loop(coeffs, v, integral) for v in t.tolist()])
        assert series(t).tobytes() == expected.tobytes()
