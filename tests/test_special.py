"""Incomplete gamma against an independent quadrature oracle; series kernels."""

from functools import partial
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from gentropy import (
    EntropySpec,
    catalog,
    universal_group_G,
    universal_group_G_prime,
    upper_incomplete_gamma,
)
from gentropy.errors import (
    NonFinite,
    ParamOutOfDomain,
    TruncationCapHit,
    UserCallableError,
    ValidationError,
)
from gentropy.special import check_series_coefficients


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


@pytest.mark.parametrize("depth", [64, 65, 500])
def test_gamma_refuses_a_lower_limit_nested_past_64_lists(depth):
    """numpy holds at most 64 dimensions: a deeper lower limit is a ``ValidationError``
    that names it, not numpy's bare ``ValueError``; 64 lists still evaluate."""
    x = 1.0
    for _ in range(depth):
        x = [x]
    if depth <= 64:
        assert upper_incomplete_gamma(1.0, x).shape == (1,) * depth
        return
    with pytest.raises(ValidationError, match="lower limit"):
        upper_incomplete_gamma(1.0, x)


def test_gamma_past_the_float_range_is_non_finite_not_an_overflow():
    """Above a shape of about 171.6 the complete gamma passes the float range:
    that is a ``NonFinite``, for s_cd's phi too.  Below it the bits are kept."""
    for a, x in [(171.7, 1.0), (201.0, np.array([0.5, 250.0])), (1e6, 2.0)]:
        with pytest.raises(NonFinite, match="overflows the float range"):
            upper_incomplete_gamma(a, x)
    with pytest.raises(NonFinite):
        EntropySpec("s_cd", c=0.5, d=200).functional.phi(np.array([0.5, 0.5]))
    kept = upper_incomplete_gamma(171.5, np.array([0.0, 1.0, 171.5, 400.0]))
    assert [v.hex() for v in kept.tolist()] == [
        "0x1.0e1863dcad769p+1023", "0x1.0e1863dcad769p+1023",
        "0x1.089c18fab3d27p+1022", "0x1.69215fcb55756p+897",
    ]


def _series_by_point(a, x):
    """P(a, x) by power series, one float at a time (the reference loop)."""
    if x == 0.0:
        return 0.0
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(500):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * 1e-12:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _continued_fraction_by_point(a, x):
    """Q(a, x) by modified Lentz continued fraction, one float at a time."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, 501):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def _gamma_by_point(a, x):
    gamma_a = math.gamma(a) if a < 170.0 else math.exp(math.lgamma(a))
    if x == 0.0:
        return gamma_a
    if x < a + 1.0:
        return gamma_a * (1.0 - _series_by_point(a, x))
    return gamma_a * _continued_fraction_by_point(a, x)


@pytest.mark.parametrize("a", [1e-9, 0.5, 1.5, 2.0, 3.0, 7.0, 150.0])
def test_gamma_over_an_array_equals_a_per_point_loop_bit_for_bit(a):
    """x = 0, tiny x, both sides of the x = a + 1 switch, x up to 700, and huge
    and subnormal x, where the prefactor exp(-x + a log x - lgamma(a)) underflows."""
    rng = np.random.default_rng(int(10 * a))
    edge = a + 1.0
    x = np.concatenate([
        [0.0, 5e-324, 1e-300, 1e-12, np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1e3)],
        [1e-310, 745.0, 800.0, 1e5, 1e300, 1.7e308],
        edge + rng.uniform(-1.0, 1.0, 200),
        rng.uniform(0.0, 2.0 * edge, 300),
        rng.uniform(0.0, 700.0, 300),
        10.0 ** rng.uniform(-30.0, np.log10(700.0), 200),
    ])
    expected = np.array([_gamma_by_point(a, v) for v in x.tolist()])
    assert upper_incomplete_gamma(a, x).tobytes() == expected.tobytes()
    grid = upper_incomplete_gamma(a, x[:1000].reshape(-1, 4))
    assert grid.tobytes() == expected[:1000].tobytes() and grid.shape == (250, 4)
    scalars = [upper_incomplete_gamma(a, v) for v in x[:40].tolist()]
    assert all(type(v) is float for v in scalars) and scalars == expected[:40].tolist()


@pytest.mark.parametrize("c, d", [(0.5, 1.0), (0.8, 0.5), (1.0, 2.0)])
def test_s_cd_phi_equals_a_per_element_gamma_loop(c, d):
    """One batched gamma call gives the bits of one call per element."""
    x = np.concatenate([[1.0, 1e-300, 0.5], np.random.default_rng(1).dirichlet(np.ones(400))])
    scale = math.e / (1.0 - c + c * d)
    expected = [scale * upper_incomplete_gamma(1.0 + d, 1.0 - c * math.log(v)) for v in x.tolist()]
    assert EntropySpec("s_cd", c=c, d=d).functional.phi(x).tolist() == expected


@pytest.mark.parametrize("c, d", [(0.5, 1.0), (1.0, 2.0), (1.0, -1.0 + 1e-9), (0.3, 150.0)])
def test_s_cd_phi_equals_its_per_point_math_form_bit_for_bit(c, d):
    """phi against the scalar form, one ``math.log`` limit and one per-point
    gamma each, on masses whose prefactor underflows (subnormal masses, a
    shape near 0) or is largest (a shape of 151); numpy warns nowhere."""
    x = np.concatenate([
        [1.0, 5e-324, 1e-320, 1e-308, 1e-300, 0.5, np.nextafter(1.0, 0.0)],
        np.random.default_rng(2).uniform(0.0, 1.0, 4000),
    ])
    scale = math.e / (1.0 - c + c * d)
    expected = [scale * _gamma_by_point(1.0 + d, 1.0 - c * math.log(v)) for v in x.tolist()]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = EntropySpec("s_cd", c=c, d=d).functional.phi(x)
    assert caught == [] and got.tobytes() == np.array(expected).tobytes()


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


@pytest.mark.parametrize("coeffs", [["1.5", True], 5, (1.0, True), [1.0, math.nan], [1e400]])
def test_series_coefficients_are_finite_numbers_not_coerced(coeffs):
    """No entry is parsed by float(): a str, a bool, a non-list or a non-finite entry is refused."""
    for call in (check_series_coefficients, lambda c: universal_group_G(c, 0.5),
                 lambda c: universal_group_G_prime(c, 0.5)):
        with pytest.raises(ParamOutOfDomain, match="'coeffs'"):
            call(coeffs)


def test_series_callable_converges():
    # a_k = (0.5)^k / k! decays fast enough for any fixed t
    coeffs = lambda k: 0.5**k / math.factorial(k)  # noqa: E731
    got = universal_group_G(coeffs, 1.0)
    expected = sum(coeffs(k) / (k + 1) for k in range(60))
    assert got == pytest.approx(expected, rel=1e-12)


def test_series_callable_cap():
    with pytest.raises(TruncationCapHit):
        universal_group_G(lambda k: 1.0, 1.0)  # constant terms never converge


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_series_callable_non_finite_coefficient_names_k_and_value(bad):
    """A callable coefficient that is NaN or infinite is refused where it is met, with its
    index and value, not summed until the term cap."""
    coeffs = lambda k: bad if k == 3 else 0.5**k  # noqa: E731
    kind = "negative" if bad < 0.0 else "not finite"
    for series in (universal_group_G, universal_group_G_prime):
        with pytest.raises(ParamOutOfDomain, match=f"^coefficient a_3 is {kind}: {bad!r}$"):
            series(coeffs, 0.5)


def test_series_callable_that_fails_raises_user_callable_error():
    """A coefficient that raises, or is no number, is the user's failure, chained."""
    def boom(k):
        raise RuntimeError("boom")

    for coeffs, cause in ((boom, RuntimeError), (lambda k: "x", ValueError)):
        for series in (universal_group_G, universal_group_G_prime):
            with pytest.raises(UserCallableError, match="universal_group coeffs raised") as caught:
                series(coeffs, 0.5)
            assert type(caught.value.__cause__) is cause


def _functional_series(coeffs):
    """The g and g' of the universal_group functional's form record."""
    record = catalog.EntropySpec("universal_group", coeffs=coeffs).functional
    return record.g, partial(record.g, integral=False)


@pytest.mark.parametrize(
    "coeffs", [(1.0, 0.4, 0.1), lambda k: 0.5**k / math.factorial(k)], ids=["finite", "callable"]
)
def test_public_series_equal_the_catalog_functional_bit_for_bit(coeffs):
    """G and G' agree with the g and g' that the universal_group functional is built on."""
    g, g_prime = _functional_series(coeffs)
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


def test_callable_series_equal_a_per_point_loop():
    """Over an array, each point stops at the term its own scalar loop stops at."""
    coeffs = lambda k: 1.0 / math.factorial(k)  # noqa: E731
    g, g_prime = _functional_series(coeffs)
    t = np.concatenate([[0.0], np.linspace(0.01, 30.0, 1000)])
    for series, integral in ((g, True), (g_prime, False)):
        expected = np.array([_series_by_loop(coeffs, v, integral) for v in t.tolist()])
        assert series(t).tobytes() == expected.tobytes()
